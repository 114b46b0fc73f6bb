//! `sim_failover`: the account store deployed on the simulated network,
//! two shards each with a passive backup, under Poisson arrivals on the
//! simulator's virtual clock; the primary of shard 1 is killed half way.
//! Latencies are virtual and repeat exactly for a seed; throughput is the
//! wall-clock cost of simulating the protocol.

use crate::clock::OnCpu;
use crate::common::{
    compile, front_end_metrics, peak_rss_mb, set_up_repeatedly, Better, Compiled, Outcome, RunCfg,
    SEGMENTS,
};
use crate::gen::{Arrivals, KeyDist, KvMix, KvOp, SplitMix64, OP_UPSERT};
use crate::kv::{
    preload_value, preloaded_model, KV_WRITE, MAILBOX, PROGRAM, RESIDENT, SHARDS, TABLE,
};
use crate::model::{KvModel, Reply, Tally};
use crate::stats::{median, segments, Grouped};
use crate::sut::{Cluster, ClusterCounters};
use crate::trace::{SpanId, Tracer};
use std::time::Instant;

/// Measured operations per unit of `--seconds`.
const OPS_PER_S: u64 = 50_000;
/// Mean gap between arrivals, virtual µs (20 000 operations a second).
const MEAN_GAP_US: f64 = 50.0;
/// Arrivals are stamped ahead one slice at a time, then the simulator
/// runs to the end of the slice.
const SLICE_US: u64 = 100_000;
/// The generator keeps two operations on one key at least this far apart,
/// further than any retry reaches, so that replies follow arrival order.
const KEY_GAP_US: u64 = 250_000;
/// Gap between preload arrivals, virtual µs.
const PRELOAD_GAP_US: u64 = 10;
const PRELOAD_CHUNK: i64 = 10_000;
/// Virtual time allowed for the last replies after the last arrival.
const DRAIN_US: u64 = 1_000_000;
/// A reply slower than this was disrupted by the failover.
const DISRUPTED_US: u64 = 10_000;
const SETUP_REPS: usize = 3;
const KILLED_SHARD: usize = 1;

struct SetUp {
    compiled: Compiled,
    cluster: Cluster,
    total_s: f64,
    preload_s: f64,
}

/// Text → parse → preflight → partition → `deploy_sharded` → the resident
/// keys sent through the router → the cluster left idle.
fn set_up(cfg: &RunCfg, replicate: bool, tally: &mut Tally, tracer: &mut Tracer) -> SetUp {
    let (t0, cpu0) = (Instant::now(), OnCpu::now());
    let root = tracer.open("setup", None);
    let compiled = compile(cfg, PROGRAM, tracer, root);
    assert!(
        compiled.partition.is_key_partitioned(TABLE),
        "{TABLE} must be key-partitioned"
    );
    let t = Instant::now();
    let mut cluster = Cluster::deploy(&compiled.parsed, SHARDS, cfg.seed, replicate);
    tracer.leaf("deploy_sharded", root, t, t.elapsed(), (0, 0));

    let t_load = OnCpu::now();
    let mut at = cluster.now_us() + 1000;
    let mut key = 0i64;
    while key < RESIDENT as i64 {
        let hi = (key + PRELOAD_CHUNK).min(RESIDENT as i64);
        let t = Instant::now();
        for k in key..hi {
            at += PRELOAD_GAP_US;
            cluster.request_at(MAILBOX, &[i64::from(OP_UPSERT), k, preload_value(k)], at);
        }
        cluster.run_until(at);
        tracer.leaf(
            "preload_slice",
            root,
            t,
            t.elapsed(),
            (key as u64, hi as u64),
        );
        key = hi;
    }
    let t = Instant::now();
    cluster.run_until(at + DRAIN_US);
    tracer.leaf("settle", root, t, t.elapsed(), (0, 0));
    let preload_s = t_load.elapsed_s();
    let total_s = cpu0.elapsed_s();
    tracer.close(root, t0, t0.elapsed(), (0, RESIDENT));
    for request in 0..RESIDENT {
        tally.attempted += 1;
        let got = cluster
            .outcome(request)
            .and_then(|(_, r)| r)
            .map(|(_, r)| r);
        tally.check("preload", got.as_ref(), &Reply::Ok);
    }
    SetUp {
        compiled,
        cluster,
        total_s,
        preload_s,
    }
}

/// The arrival stream: the `kv_write` mix, uniform keys, with same-key
/// operations kept apart.
struct Stream {
    mix: KvMix,
    rng: SplitMix64,
    arrivals: Arrivals,
    /// Per key, when it may next be used.
    free_at_us: Vec<u64>,
}

impl Stream {
    fn new(seed: u64, start_us: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let arrivals = Arrivals::new(rng.fork(), start_us as f64, MEAN_GAP_US);
        let mix = KvMix {
            keys: KeyDist::Uniform,
            ..KV_WRITE.mix()
        };
        Stream {
            mix,
            rng,
            arrivals,
            free_at_us: vec![0; RESIDENT as usize],
        }
    }

    fn next(&mut self) -> (u64, KvOp) {
        let at = self.arrivals.next();
        let mut op = self.mix.draw(&mut self.rng);
        while at < self.free_at_us[op.key as usize] {
            op.key = self.rng.below(RESIDENT) as i64;
        }
        self.free_at_us[op.key as usize] = at + KEY_GAP_US;
        (at, op)
    }
}

/// One measured pass over a deployed cluster.
struct Pass {
    /// On-CPU seconds and operations per slice.
    slices: Vec<(f64, u64)>,
    /// Virtual latency in µs of each request, by arrival.
    latency_us: Vec<u64>,
    before: ClusterCounters,
    after: ClusterCounters,
    run_until_s: f64,
    kill_at_us: Option<u64>,
}

/// Stamp `ops` arrivals a slice ahead, run the simulator slice by slice,
/// then check every reply against the model. With `kill`, the primary of
/// shard 1 dies at the end of the slice that holds the middle arrival.
#[allow(clippy::too_many_arguments)]
fn pass(
    cluster: &mut Cluster,
    seed: u64,
    ops: u64,
    kill: bool,
    model: &mut KvModel,
    tally: &mut Tally,
    tracer: &mut Tracer,
    phase: Option<SpanId>,
) -> Pass {
    let start = cluster.now_us();
    let mut stream = Stream::new(seed, start);
    let before = cluster.counters();
    let mut issued: Vec<(u64, KvOp)> = Vec::with_capacity(ops as usize);
    let mut slices = Vec::new();
    let mut run_until_s = 0.0;
    let mut kill_at_us = None;
    let mut slice_end = start + SLICE_US;
    let mut pending = Some(stream.next());
    let mut sent = 0u64;
    let mut i = 0usize;
    let mut slice: Vec<(u64, KvOp)> = Vec::new();
    loop {
        // Alternate traced and untraced slices in the traced run.
        let record = tracer.on;
        tracer.on = record && i.is_multiple_of(2);
        i += 1;
        // Draw the slice's arrivals before the clock starts.
        slice.clear();
        while let Some(next) =
            pending.filter(|(at, _)| *at < slice_end && sent + (slice.len() as u64) < ops)
        {
            slice.push(next);
            pending = Some(stream.next());
        }
        let lo = sent;
        let (t0, cpu0) = (Instant::now(), OnCpu::now());
        let span = tracer.open("slice", phase);
        for &(at, op) in &slice {
            let id = cluster.request_at(
                MAILBOX,
                &[i64::from(op.op), op.key, RESIDENT as i64 + sent as i64],
                at,
            );
            issued.push((id, op));
            sent += 1;
        }
        let stamped = t0.elapsed();
        let t1 = Instant::now();
        cluster.run_until(slice_end);
        let ran = t1.elapsed();
        let cpu_s = cpu0.elapsed_s();
        tracer.close(span, t0, t0.elapsed(), (lo, sent));
        tracer.folded(
            "client_request_at",
            span,
            stamped.as_nanos() as u64,
            sent - lo,
        );
        tracer.folded("sim.run_until", span, ran.as_nanos() as u64, 1);
        tracer.on = record;
        run_until_s += ran.as_secs_f64();
        slices.push((cpu_s, sent - lo));
        if kill && kill_at_us.is_none() && sent >= ops / 2 {
            cluster.kill_primary(KILLED_SHARD);
            kill_at_us = Some(cluster.now_us());
        }
        slice_end += SLICE_US;
        if sent >= ops {
            break;
        }
    }
    // The tail: let the last replies arrive.
    let (t, cpu0) = (Instant::now(), OnCpu::now());
    cluster.run_until(slice_end + DRAIN_US);
    let (tail, tail_cpu_s) = (t.elapsed(), cpu0.elapsed_s());
    tracer.leaf("sim.run_until", phase, t, tail, (sent, sent));
    run_until_s += tail.as_secs_f64();
    if let Some(last) = slices.last_mut() {
        last.0 += tail_cpu_s;
    }
    let after = cluster.counters();

    let mut latency_us = Vec::with_capacity(issued.len());
    for (n, (id, op)) in issued.iter().enumerate() {
        tally.attempted += 1;
        let want = model.apply(*op, RESIDENT as i64 + n as i64);
        match cluster.outcome(*id) {
            Some((t0, Some((t1, got)))) => {
                tally.check("sim reply", Some(&got), &want);
                latency_us.push(t1.saturating_sub(t0));
            }
            _ => tally.check("sim reply", None, &want),
        }
    }
    Pass {
        slices,
        latency_us,
        before,
        after,
        run_until_s,
        kill_at_us,
    }
}

impl Pass {
    fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.1).sum()
    }

    /// Operations per wall second, by segment.
    fn throughput(&self) -> Vec<f64> {
        segments(self.slices.len(), SEGMENTS)
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(|r| {
                let s = &self.slices[r];
                s.iter().map(|x| x.1 as f64).sum::<f64>() / s.iter().map(|x| x.0).sum::<f64>()
            })
            .collect()
    }

    /// A latency quantile in virtual µs over the whole pass. The virtual
    /// clock is not disturbed by the host, so there is no best segment to
    /// look for; and after the kill, shard 1 answers without the wait for
    /// a backup's acknowledgement, so a late segment's median sits on the
    /// edge between two populations, where it does not hold still.
    fn latency(&self, q: f64) -> f64 {
        Grouped::from_samples(&mut self.latency_us.clone()).quantile(q)
    }
}

/// After the drain the current owners' rows must equal the model: an
/// acknowledged write that is missing was lost in the failover.
fn lost_acks(cluster: &Cluster, model: &KvModel, out: &mut Outcome) -> u64 {
    let rows = cluster.owner_rows(TABLE);
    if rows != model.len() {
        out.violations.push(format!(
            "owners hold {rows} rows of {TABLE}, the model {}",
            model.len()
        ));
    }
    let mut lost = 0;
    for key in 0..RESIDENT as i64 {
        let (value, owners) = cluster.owner_value_of(TABLE, key);
        if value != model.get(key) || owners > 1 {
            lost += 1;
        }
    }
    if lost > 0 {
        out.violations.push(format!(
            "{lost} keys differ between the owners and the model"
        ));
    }
    lost
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let t_part = Instant::now();
    let (setup_s, up) = set_up_repeatedly(cfg, SETUP_REPS, || {
        let up = set_up(cfg, true, &mut tally, tracer);
        (up.total_s, up)
    });
    let SetUp {
        compiled,
        mut cluster,
        preload_s,
        ..
    } = up;
    out.wall("setup", t_part);

    let ops = OPS_PER_S * cfg.seconds;
    let mut model = preloaded_model();
    let phase = tracer.open("failover", None);
    let t_phase = Instant::now();
    let main = pass(
        &mut cluster,
        cfg.seed,
        ops,
        true,
        &mut model,
        &mut tally,
        tracer,
        phase,
    );
    tracer.close(phase, t_phase, t_phase.elapsed(), (0, ops));
    out.wall("failover", t_phase);
    let lost = lost_acks(&cluster, &model, &mut out);
    let recovery_us = match (main.kill_at_us, cluster.promoted_at_us(KILLED_SHARD)) {
        (Some(killed), Some(promoted)) => promoted.saturating_sub(killed),
        _ => {
            out.violations
                .push("the backup of the killed primary was never promoted".into());
            0
        }
    };

    if !cfg.trace {
        out.put("setup_s", setup_s);
        out.put_best("throughput_ops_s", &main.throughput(), Better::Higher);
        out.put("latency_p50_us", main.latency(0.5));
        out.put("latency_p99_us", main.latency(0.99));
        out.put("peak_rss_mb", peak_rss_mb());
        out.tally = tally;
        return out;
    }

    front_end_metrics(cfg, PROGRAM, &compiled, &mut out);
    out.put("interp.preload_ops_s", RESIDENT as f64 / preload_s);
    out.put(
        "interp.replies_per_op",
        tally.replied as f64 / tally.attempted.max(1) as f64,
    );

    let (b, a) = (main.before, main.after);
    let n = main.ops() as f64;
    let events = (a.delivered - b.delivered)
        + (a.timers_fired - b.timers_fired)
        + (a.dropped_by_dead - b.dropped_by_dead);
    out.put("deploy.recovery_us", recovery_us as f64);
    out.put("deploy.msgs_per_op", (a.sent - b.sent) as f64 / n);
    out.put("deploy.sim_events_per_op", events as f64 / n);
    out.put("deploy.retries", (a.retries - b.retries) as f64);
    out.put("deploy.shed", (a.shed - b.shed) as f64);
    out.put("deploy.gave_up", (a.gave_up - b.gave_up) as f64);
    out.put("deploy.lost_acks", lost as f64);
    out.put(
        "deploy.disrupted_ops",
        main.latency_us
            .iter()
            .filter(|&&l| l > DISRUPTED_US)
            .count() as f64,
    );
    out.put(
        "deploy.latency_max_us",
        main.latency_us.iter().copied().max().unwrap_or(0) as f64,
    );
    out.put("net.step_ns", main.run_until_s * 1e9 / events.max(1) as f64);
    out.put("net.delivered", (a.delivered - b.delivered) as f64);
    out.put("net.timers_fired", (a.timers_fired - b.timers_fired) as f64);
    out.put(
        "net.dropped_by_dead",
        (a.dropped_by_dead - b.dropped_by_dead) as f64,
    );
    let slice_rates = |traced: bool| {
        let picked: Vec<f64> = main
            .slices
            .iter()
            .enumerate()
            .filter(|(i, s)| (i % 2 == 0) == traced && s.1 > 0)
            .map(|(_, s)| s.1 as f64 / s.0)
            .collect();
        median(&picked)
    };
    out.put(
        "trace.overhead_share",
        1.0 - slice_rates(true) / slice_rates(false),
    );
    drop(cluster);

    // What replication costs: the same stream, no kill, with and without
    // backups, on fresh clusters.
    let t_part = Instant::now();
    let mut off = Tracer::new(false);
    let arm_ops = ops / 5;
    let mut arm = |replicate: bool| {
        let mut s = set_up(cfg, replicate, &mut tally, &mut off);
        let mut model = preloaded_model();
        let p = pass(
            &mut s.cluster,
            cfg.seed,
            arm_ops,
            false,
            &mut model,
            &mut tally,
            &mut off,
            None,
        );
        let wall: f64 = p.slices.iter().map(|x| x.0).sum();
        (p.latency(0.5), wall / p.ops() as f64)
    };
    let (p50_on, wall_on) = arm(true);
    let (p50_off, wall_off) = arm(false);
    out.put("deploy.repl_hold_us", p50_on - p50_off);
    out.put("deploy.repl_wall_share", 1.0 - wall_off / wall_on);
    out.wall("arms", t_part);

    out.tally = tally;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_operations_stay_apart() {
        let mut s = Stream::new(9, 0);
        let mut last = std::collections::HashMap::new();
        let mut prev_at = 0;
        for _ in 0..200_000 {
            let (at, op) = s.next();
            assert!(at >= prev_at);
            prev_at = at;
            if let Some(before) = last.insert(op.key, at) {
                assert!(
                    at - before >= KEY_GAP_US,
                    "key {} at {before} and {at}",
                    op.key
                );
            }
        }
    }

    fn stream_hash(seed: u64) -> u64 {
        let mut h = crate::gen::StreamHash::default();
        let mut s = Stream::new(seed, 0);
        for _ in 0..10_000 {
            let (at, op) = s.next();
            h.push(at);
            h.push(u64::from(op.op));
            h.push(op.key as u64);
        }
        h.finish()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(stream_hash(4), stream_hash(4));
        assert_ne!(stream_hash(4), stream_hash(5));
    }
    #[test]
    fn seed_1_stream_is_pinned() {
        assert_eq!(stream_hash(1), 0x2c80_1af3_9a9f_a849);
    }
}
