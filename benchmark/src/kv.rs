//! `kv_read` and `kv_write`: the account store behind the serve loop over
//! the 2-shard serial driver, first saturated (closed loop), then paced
//! (open loop, Poisson arrivals on the loop's virtual clock).

use crate::arms;
use crate::clock::OnCpu;
use crate::common::{
    compile, front_end_metrics, peak_rss_mb, set_up_repeatedly, Better, Compiled, Outcome, RunCfg,
    SEGMENTS,
};
use crate::gen::{Arrivals, KeyDist, KvMix, KvOp, SplitMix64, Zipf, OP_UPSERT};
use crate::model::{KvModel, Reply, Tally};
use crate::stats::{median, segments, Grouped};
use crate::sut::{Latencies, Probe, Routing, Serial, Serve, ServeCounters, TickDriver};
use crate::trace::{SpanId, Tracer};
use std::time::Instant;

pub const PROGRAM: &str = "accounts.hydro";
pub const TABLE: &str = "accounts";
pub const MAILBOX: &str = "req";
pub const RESIDENT: u64 = 200_000;
pub const SHARDS: usize = 2;
/// Requests offered at one instant in the saturation phase; also the
/// preload chunk. One window fits the serve loop's default per-shard
/// queue, so nothing is rejected.
pub const WINDOW: usize = 8192;
/// Offers folded into one `ServeLoop::offer` span in the paced phase.
const GROUP: usize = 1024;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub struct KvSpec {
    pub upsert_pct: u64,
    pub close_pct: u64,
    pub zipf: bool,
    /// Saturation operations per unit of `--seconds`.
    pub sat_ops_per_s: u64,
    /// Paced operations per unit of `--seconds`.
    pub paced_ops_per_s: u64,
    /// Paced arrival rate, operations per virtual second.
    pub rate: f64,
}

/// The paced rate and length are chosen so that most paced segments see
/// no compaction stall: at twice the rate, or with segments twice as
/// long, a stall reaches about 1 % of a segment's requests and its p99
/// flips between two regimes from run to run.
pub const KV_READ: KvSpec = KvSpec {
    upsert_pct: 4,
    close_pct: 1,
    zipf: true,
    sat_ops_per_s: 100_000,
    paced_ops_per_s: 50_000,
    rate: 20_000.0,
};

/// Here a tenth of the paced requests wait behind a compaction, so p99
/// is deep inside the stalls whatever the rate.
pub const KV_WRITE: KvSpec = KvSpec {
    upsert_pct: 50,
    close_pct: 15,
    zipf: false,
    sat_ops_per_s: 30_000,
    paced_ops_per_s: 50_000,
    rate: 20_000.0,
};

impl KvSpec {
    pub fn mix(&self) -> KvMix {
        KvMix {
            resident: RESIDENT,
            upsert_pct: self.upsert_pct,
            close_pct: self.close_pct,
            keys: if self.zipf {
                KeyDist::Zipf(Zipf::new(RESIDENT, 0.99))
            } else {
                KeyDist::Uniform
            },
        }
    }
}

/// The value the preload writes under `key`.
pub fn preload_value(key: i64) -> i64 {
    key % 97
}

/// The model of a freshly preloaded instance.
pub fn preloaded_model() -> KvModel {
    let mut m = KvModel::default();
    for key in 0..RESIDENT as i64 {
        m.apply(KvOp { op: OP_UPSERT, key }, preload_value(key));
    }
    m
}

/// Load the resident keys through the normal handler, a window per tick,
/// then one empty tick so the deferred view fold is not left for the
/// first measured request. Returns the seconds spent.
pub fn preload(
    driver: &mut impl TickDriver,
    tally: &mut Tally,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> f64 {
    let t0 = OnCpu::now();
    let mut replies = Vec::with_capacity(WINDOW);
    let mut key = 0i64;
    while key < RESIDENT as i64 {
        let hi = (key + WINDOW as i64).min(RESIDENT as i64);
        let t = Instant::now();
        for k in key..hi {
            driver.send(MAILBOX, &[i64::from(OP_UPSERT), k, preload_value(k)]);
        }
        driver.step(&mut replies);
        tracer.leaf(
            "preload_tick",
            parent,
            t,
            t.elapsed(),
            (key as u64, hi as u64),
        );
        tally.attempted += (hi - key) as u64;
        let ok = replies.iter().filter(|(_, r)| *r == Reply::Ok).count() as u64;
        tally.replied += replies.len() as u64;
        tally.wrong += replies.len() as u64 - ok;
        tally.unanswered += ((hi - key) as u64).saturating_sub(replies.len() as u64);
        replies.clear();
        key = hi;
    }
    let t = Instant::now();
    driver.step(&mut replies);
    tracer.leaf("settle_tick", parent, t, t.elapsed(), (0, 0));
    t0.elapsed_s()
}

struct SetUp {
    compiled: Compiled,
    routing: Routing,
    driver: Serial,
    total_s: f64,
    instantiate_ns: u64,
    preload_s: f64,
}

fn set_up(cfg: &RunCfg, tally: &mut Tally, tracer: &mut Tracer) -> SetUp {
    let (t0, cpu0) = (Instant::now(), OnCpu::now());
    let root = tracer.open("setup", None);
    let compiled = compile(cfg, PROGRAM, tracer, root);
    assert!(
        compiled.partition.is_key_partitioned(TABLE),
        "{TABLE} must be key-partitioned for the sharded workloads"
    );
    let routing = compiled.partition.routing();
    let t = Instant::now();
    let mut driver = Serial::new(&compiled.core, &routing, SHARDS);
    let instantiate = t.elapsed();
    tracer.leaf("from_core", root, t, instantiate, (0, 0));
    let preload_s = preload(&mut driver, tally, tracer, root);
    let total_s = cpu0.elapsed_s();
    tracer.close(root, t0, t0.elapsed(), (0, RESIDENT));
    SetUp {
        compiled,
        routing,
        driver,
        total_s,
        instantiate_ns: instantiate.as_nanos() as u64,
        preload_s,
    }
}

/// The requests of one segment and what came back.
struct Issued {
    /// Request number of `ops[0]`.
    base: i64,
    ops: Vec<KvOp>,
    rejected: Vec<usize>,
    replies: Vec<(u64, Reply)>,
}

impl Issued {
    fn new(base: i64, capacity: usize) -> Self {
        Issued {
            base,
            ops: Vec::with_capacity(capacity),
            rejected: Vec::new(),
            replies: Vec::new(),
        }
    }
}

/// The state of one kv run.
pub struct Kv<'a> {
    pub mix: KvMix,
    pub rng: SplitMix64,
    pub model: KvModel,
    /// Next request number; it rides in the `v` argument of every
    /// request, so an upsert writes a value no other request writes.
    pub next_req: i64,
    pub tally: Tally,
    pub tracer: &'a mut Tracer,
    pub trace: bool,
}

/// One saturation segment's measurements.
struct SatSegment {
    ops: u64,
    secs: f64,
    /// `(traced, ops/s)` per window.
    windows: Vec<(bool, f64)>,
    counters: ServeCounters,
}

/// One paced segment's measurements.
pub struct PacedSegment {
    pub latency: Latencies,
    pub counters: ServeCounters,
    pub probe: Probe,
}

impl Kv<'_> {
    /// The driver calls the serve loop made inside `parent`, folded into
    /// one span per kind, from two readings of the wrapper's counters.
    fn driver_spans(&mut self, parent: Option<SpanId>, before: [u64; 4], after: [u64; 4]) {
        self.tracer.folded(
            "ServeDriver::enqueue",
            parent,
            after[0] - before[0],
            after[1] - before[1],
        );
        self.tracer.folded(
            "ServeDriver::tick",
            parent,
            after[2] - before[2],
            after[3] - before[3],
        );
    }

    /// Match replies to requests through the wrapper's tags and compare
    /// each with the model, applied in arrival order.
    fn verify(&mut self, issued: Issued, probe: &Probe, count_rejections: bool) {
        let n = issued.ops.len();
        let mut got: Vec<Option<Reply>> = vec![None; n];
        let mut duplicate = 0u64;
        for (id, reply) in issued.replies {
            let tag = probe
                .tags
                .get(id.wrapping_sub(probe.first_id) as usize)
                .copied()
                .unwrap_or(-1);
            match usize::try_from(tag - issued.base)
                .ok()
                .and_then(|i| got.get_mut(i))
            {
                Some(slot) if slot.is_none() => *slot = Some(reply),
                _ => duplicate += 1,
            }
        }
        let mut rejected = issued.rejected.iter().copied().peekable();
        for (i, op) in issued.ops.iter().enumerate() {
            if rejected.peek() == Some(&i) {
                rejected.next();
                continue;
            }
            let want = self.model.apply(*op, issued.base + i as i64);
            self.tally.check("kv reply", got[i].as_ref(), &want);
        }
        self.tally.attempted += n as u64;
        self.tally.wrong += duplicate;
        if count_rejections {
            self.tally.rejected += issued.rejected.len() as u64;
        } else {
            self.tally.attempted -= issued.rejected.len() as u64;
        }
    }

    /// Closed loop: offer a window at the loop's current instant, drain,
    /// repeat. Only the offer loop (row construction included), the drain
    /// and collecting the replies are timed, on the on-CPU clock; windows
    /// are drawn before the clock starts.
    fn saturation_segment(
        &mut self,
        driver: Serial,
        routing: &Routing,
        ops: usize,
        phase: Option<SpanId>,
    ) -> (Serial, SatSegment) {
        let mut lp = Serve::new(driver, Probe::default(), routing);
        let mut issued = Issued::new(self.next_req, ops);
        let mut seg = SatSegment {
            ops: 0,
            secs: 0.0,
            windows: Vec::new(),
            counters: ServeCounters::default(),
        };
        let mut window: Vec<KvOp> = Vec::with_capacity(WINDOW);
        let mut w = 0usize;
        while issued.ops.len() < ops {
            let size = WINDOW.min(ops - issued.ops.len());
            window.clear();
            window.extend((0..size).map(|_| self.mix.draw(&mut self.rng)));
            // Traced and untraced windows alternate, so that their rates
            // can be compared inside one process.
            let traced = self.trace && w.is_multiple_of(2);
            w += 1;
            self.tracer.on = traced;
            lp.probe().timing.set(traced);
            let lo = self.next_req;

            let (t0, cpu0) = (Instant::now(), OnCpu::now());
            let span = self.tracer.open("window", phase);
            let offer = self.tracer.open("ServeLoop::offer", span);
            let p0 = lp.probe().timed();
            let now = lp.now_ns();
            for (i, op) in window.iter().enumerate() {
                if !lp.offer(now, MAILBOX, &[i64::from(op.op), op.key, lo + i as i64]) {
                    issued.rejected.push(issued.ops.len() + i);
                }
            }
            let offered = t0.elapsed();
            let p1 = lp.probe().timed();
            let t1 = Instant::now();
            let drain = self.tracer.open("ServeLoop::drain", span);
            lp.drain();
            lp.take_replies(&mut issued.replies);
            let drained = t1.elapsed();
            let (dt, cpu_s) = (t0.elapsed(), cpu0.elapsed_s());
            let p2 = lp.probe().timed();

            self.next_req += size as i64;
            issued.ops.extend_from_slice(&window);
            let reqs = (lo as u64, self.next_req as u64);
            self.tracer.close(span, t0, dt, reqs);
            self.tracer.close(offer, t0, offered, reqs);
            self.driver_spans(offer, p0, p1);
            self.tracer.close(drain, t1, drained, reqs);
            self.driver_spans(drain, p1, p2);

            seg.ops += size as u64;
            seg.secs += cpu_s;
            seg.windows.push((traced, size as f64 / cpu_s));
        }
        self.tracer.on = self.trace;
        seg.counters = lp.counters();
        let (driver, probe) = lp.into_parts();
        self.verify(issued, &probe, true);
        (driver, seg)
    }

    /// Open loop: Poisson arrivals at `rate` per virtual second, each
    /// timed by the serve loop from its stamped arrival. A stall cannot
    /// delay the generator, because arrival times are drawn, not read off
    /// a clock: lateness is 0 by construction.
    pub fn paced_segment(
        &mut self,
        driver: Serial,
        routing: &Routing,
        ops: usize,
        rate: f64,
        phase: Option<SpanId>,
        count_rejections: bool,
    ) -> (Serial, PacedSegment) {
        let probe = Probe::default();
        probe.timing.set(self.trace);
        let mut lp = Serve::new(driver, probe, routing);
        let mut issued = Issued::new(self.next_req, ops);
        let mut arrivals = Arrivals::new(self.rng.fork(), 0.0, 1e9 / rate);
        while issued.ops.len() < ops {
            let size = GROUP.min(ops - issued.ops.len());
            let before = lp.probe().timed();
            let lo = self.next_req;
            let t0 = Instant::now();
            let span = self.tracer.open("ServeLoop::offer", phase);
            for _ in 0..size {
                let op = self.mix.draw(&mut self.rng);
                if !lp.offer(
                    arrivals.next(),
                    MAILBOX,
                    &[i64::from(op.op), op.key, self.next_req],
                ) {
                    issued.rejected.push(issued.ops.len());
                }
                issued.ops.push(op);
                self.next_req += 1;
            }
            lp.take_replies(&mut issued.replies);
            self.tracer
                .close(span, t0, t0.elapsed(), (lo as u64, self.next_req as u64));
            self.driver_spans(span, before, lp.probe().timed());
        }
        let before = lp.probe().timed();
        let t0 = Instant::now();
        let span = self.tracer.open("ServeLoop::drain", phase);
        lp.drain();
        lp.take_replies(&mut issued.replies);
        self.tracer.close(
            span,
            t0,
            t0.elapsed(),
            (issued.base as u64, self.next_req as u64),
        );
        self.driver_spans(span, before, lp.probe().timed());

        let latency = lp.latencies();
        let counters = lp.counters();
        let (driver, probe) = lp.into_parts();
        self.verify(issued, &probe, count_rejections);
        (
            driver,
            PacedSegment {
                latency,
                counters,
                probe,
            },
        )
    }

    /// The resident table must equal the model row for row.
    fn check_final_state(&self, driver: &Serial, out: &mut Outcome) {
        let rows = driver.table_len(TABLE);
        if rows != self.model.len() {
            out.violations.push(format!(
                "{TABLE} has {rows} rows, the model {}",
                self.model.len()
            ));
        }
        let bad = (0..RESIDENT as i64)
            .filter(|&k| driver.value_of(TABLE, k) != self.model.get(k))
            .count();
        if bad > 0 {
            out.violations
                .push(format!("{bad} rows of {TABLE} differ from the model"));
        }
    }
}

fn sum_counters(parts: impl Iterator<Item = ServeCounters>) -> ServeCounters {
    parts.fold(ServeCounters::default(), |mut a, c| {
        a.accepted += c.accepted;
        a.rejected += c.rejected;
        a.completed += c.completed;
        a.ticks += c.ticks;
        a.max_batch = a.max_batch.max(c.max_batch);
        a.max_queue_depth = a.max_queue_depth.max(c.max_queue_depth);
        a.budget_peak = a.budget_peak.max(c.budget_peak);
        a
    })
}

pub fn run(spec: &KvSpec, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let t_part = Instant::now();
    let (setup_s, up) = set_up_repeatedly(cfg, SETUP_REPS, || {
        let up = set_up(cfg, &mut tally, tracer);
        (up.total_s, up)
    });
    let SetUp {
        compiled,
        routing,
        mut driver,
        instantiate_ns,
        preload_s,
        ..
    } = up;
    out.wall("setup", t_part);

    let mut kv = Kv {
        mix: spec.mix(),
        rng: SplitMix64::new(cfg.seed),
        model: preloaded_model(),
        next_req: 0,
        tally,
        tracer,
        trace: cfg.trace,
    };

    // Saturation and paced segments take turns, so that each metric's
    // segments are spread over the whole run and a disturbance of a few
    // seconds on the host cannot reach all of them.
    let sat_ops = (spec.sat_ops_per_s * cfg.seconds) as usize;
    let paced_ops = (spec.paced_ops_per_s * cfg.seconds) as usize;
    let t_part = Instant::now();
    let mut sat = Vec::new();
    let mut paced = Vec::new();
    for (s, p) in segments(sat_ops, SEGMENTS)
        .into_iter()
        .zip(segments(paced_ops, SEGMENTS))
    {
        let (base, t) = (kv.next_req as u64, Instant::now());
        let phase = kv.tracer.open("saturation", None);
        let (d, seg) = kv.saturation_segment(driver, &routing, s.len(), phase);
        kv.tracer
            .close(phase, t, t.elapsed(), (base, kv.next_req as u64));
        sat.push(seg);

        let (base, t) = (kv.next_req as u64, Instant::now());
        let phase = kv.tracer.open("paced", None);
        let (d, seg) = kv.paced_segment(d, &routing, p.len(), spec.rate, phase, true);
        kv.tracer
            .close(phase, t, t.elapsed(), (base, kv.next_req as u64));
        paced.push(seg);
        driver = d;
    }
    out.wall("saturation and paced", t_part);

    if !cfg.trace {
        kv.check_final_state(&driver, &mut out);
        let throughput: Vec<f64> = sat.iter().map(|s| s.ops as f64 / s.secs).collect();
        let quantile_us = |q: f64| -> Vec<f64> {
            paced
                .iter()
                .map(|s| s.latency.grouped.quantile(q) / 1e3)
                .collect()
        };
        out.put("setup_s", setup_s);
        out.put_best("throughput_ops_s", &throughput, Better::Higher);
        out.put_best("latency_p50_us", &quantile_us(0.5), Better::Lower);
        out.put_best("latency_p99_us", &quantile_us(0.99), Better::Lower);
        out.put("peak_rss_mb", peak_rss_mb());
        out.tally = kv.tally;
        return out;
    }

    front_end_metrics(cfg, PROGRAM, &compiled, &mut out);
    out.put("interp.instantiate_us", instantiate_ns as f64 / 1e3);
    out.put("interp.preload_ops_s", RESIDENT as f64 / preload_s);
    serve_metrics(&kv, &sat, &paced, &mut out);

    // The paced phase once more at double the rate. A rejection here is
    // reported, not counted as a failure: this arm is meant to press.
    let t_part = Instant::now();
    let base = kv.next_req as u64;
    let phase = kv.tracer.open("paced_2x", None);
    let (d, twice) = kv.paced_segment(
        driver,
        &routing,
        paced_ops / 4,
        spec.rate * 2.0,
        phase,
        false,
    );
    driver = d;
    kv.tracer
        .close(phase, t_part, t_part.elapsed(), (base, kv.next_req as u64));
    out.put(
        "serve.latency_p99_us_2x",
        twice.latency.grouped.quantile(0.99) / 1e3,
    );
    out.put("serve.rejected_2x", twice.counters.rejected as f64);

    // The generator alone.
    let mut rng = SplitMix64::new(cfg.seed ^ 0xD1CE);
    let mut arrivals = Arrivals::new(rng.fork(), 0.0, 1e9 / spec.rate);
    let n = 1_000_000u64;
    let t = Instant::now();
    let mut sink = 0u64;
    for _ in 0..n {
        let op = kv.mix.draw(&mut rng);
        sink = sink.wrapping_add(arrivals.next() ^ op.key as u64);
    }
    std::hint::black_box(sink);
    out.put("gen.ns_per_op", t.elapsed().as_nanos() as f64 / n as f64);
    out.note(
        "generator lateness is 0 by construction: arrival times are drawn, not read off a clock"
            .into(),
    );

    let by_shard = driver.rows_by_shard(TABLE);
    let mean_rows = by_shard.iter().sum::<usize>() as f64 / by_shard.len() as f64;
    out.put(
        "shard.skew",
        by_shard.iter().copied().max().unwrap_or(0) as f64 / mean_rows.max(1.0),
    );
    kv.check_final_state(&driver, &mut out);
    out.wall("paced_2x and generator", t_part);

    let t_part = Instant::now();
    arms::kv_arms(&compiled, &routing, driver, &mut kv, &mut out);
    out.wall("arms", t_part);
    out.tally = kv.tally;
    out
}

/// The serve loop's per-layer metrics, from the traced run's spans, the
/// wrapper's counters and the loop's own.
fn serve_metrics(kv: &Kv<'_>, sat: &[SatSegment], paced: &[PacedSegment], out: &mut Outcome) {
    // Saturation: self time of offer + drain in the traced windows (the
    // driver's enqueue and tick are their children).
    let under = kv.tracer.totals_under("saturation");
    let of = |name: &str| under.get(name).copied().unwrap_or_default();
    let serve_self_ns = (of("ServeLoop::offer").self_ns + of("ServeLoop::drain").self_ns) as f64;
    out.put(
        "serve.self_ns_per_op",
        serve_self_ns / (of("window").reqs as f64).max(1.0),
    );
    out.put(
        "serve.self_share",
        serve_self_ns / (of("window").busy_ns as f64).max(1.0),
    );
    let rates = |traced: bool| {
        median(
            &sat.iter()
                .flat_map(|s| s.windows.iter())
                .filter(|(t, _)| *t == traced)
                .map(|(_, r)| *r)
                .collect::<Vec<_>>(),
        )
    };
    out.put("trace.overhead_share", 1.0 - rates(true) / rates(false));

    // Paced: the mean request's wait is its latency less the service of
    // the tick that carried it.
    let all = Grouped::merged(paced.iter().map(|s| &s.latency.grouped));
    let served = paced
        .iter()
        .map(|s| s.counters.completed)
        .sum::<u64>()
        .max(1) as f64;
    let mean_ns = paced
        .iter()
        .map(|s| s.latency.mean_ns as f64 * s.counters.completed as f64)
        .sum::<f64>()
        / served;
    let tick_service_ns = paced
        .iter()
        .map(|s| s.probe.batch_weighted_tick_ns as f64)
        .sum::<f64>()
        / served;
    out.put(
        "serve.queue_wait_mean_us",
        (mean_ns - tick_service_ns) / 1e3,
    );
    let sc = sum_counters(
        sat.iter()
            .map(|s| s.counters)
            .chain(paced.iter().map(|s| s.counters)),
    );
    let pc = sum_counters(paced.iter().map(|s| s.counters));
    out.put("serve.ticks", sc.ticks as f64);
    out.put(
        "serve.mean_batch",
        sc.completed as f64 / sc.ticks.max(1) as f64,
    );
    out.put(
        "serve.paced_mean_batch",
        pc.completed as f64 / pc.ticks.max(1) as f64,
    );
    out.put("serve.max_batch", sc.max_batch as f64);
    out.put("serve.budget_peak", sc.budget_peak as f64);
    out.put("serve.max_queue_depth", sc.max_queue_depth as f64);
    out.put("serve.rejected", sc.rejected as f64);
    out.put("serve.latency_p999_us", all.quantile(0.999) / 1e3);
    out.put(
        "serve.latency_max_us",
        paced.iter().map(|s| s.latency.max_ns).max().unwrap_or(0) as f64 / 1e3,
    );
    out.put(
        "interp.slow_ticks",
        paced
            .iter()
            .map(|s| s.probe.slow_ticks.len())
            .sum::<usize>() as f64,
    );
    out.put(
        "interp.tick_max_us",
        paced.iter().map(|s| s.probe.tick_max_ns).max().unwrap_or(0) as f64 / 1e3,
    );
    let t = kv.tally;
    out.put(
        "interp.replies_per_op",
        t.replied as f64 / (t.attempted - t.rejected).max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{StreamHash, OP_CLOSE, OP_READ};

    /// Hash of the first 10 000 paced arrivals of a run.
    fn stream_hash(spec: &KvSpec, seed: u64) -> u64 {
        let mix = spec.mix();
        let mut rng = SplitMix64::new(seed);
        let mut arrivals = Arrivals::new(rng.fork(), 0.0, 1e9 / spec.rate);
        let mut h = StreamHash::default();
        for _ in 0..10_000 {
            let op = mix.draw(&mut rng);
            h.push(arrivals.next());
            h.push(u64::from(op.op));
            h.push(op.key as u64);
        }
        h.finish()
    }

    #[test]
    fn same_seed_same_stream() {
        for spec in [&KV_READ, &KV_WRITE] {
            assert_eq!(stream_hash(spec, 1), stream_hash(spec, 1));
            assert_ne!(stream_hash(spec, 1), stream_hash(spec, 2));
        }
        assert_ne!(stream_hash(&KV_READ, 1), stream_hash(&KV_WRITE, 1));
    }

    #[test]
    fn mixes_have_the_documented_shares() {
        for (spec, reads, closes) in [(&KV_READ, 0.95, 0.01), (&KV_WRITE, 0.35, 0.15)] {
            let mix = spec.mix();
            let mut rng = SplitMix64::new(11);
            let n = 200_000;
            let mut count = [0u32; 3];
            let mut distinct = std::collections::HashSet::new();
            for _ in 0..n {
                let op = mix.draw(&mut rng);
                assert!((0..RESIDENT as i64).contains(&op.key));
                count[usize::from(op.op)] += 1;
                distinct.insert(op.key);
            }
            let share = |op: u8| f64::from(count[usize::from(op)]) / f64::from(n);
            assert!((share(OP_READ) - reads).abs() < 0.01, "{}", share(OP_READ));
            assert!(
                (share(OP_CLOSE) - closes).abs() < 0.01,
                "{}",
                share(OP_CLOSE)
            );
            // Zipf keys repeat; uniform keys mostly do not.
            if spec.zipf {
                assert!(distinct.len() < n as usize / 3, "{}", distinct.len());
            } else {
                assert!(distinct.len() > n as usize / 2, "{}", distinct.len());
            }
        }
    }

    #[test]
    fn preloaded_model_holds_every_resident_key() {
        let m = preloaded_model();
        assert_eq!(m.len(), RESIDENT as usize);
        assert_eq!(m.get(98), Some(1));
    }
    /// A change to the generators changes what the benchmark measures;
    /// it must not happen by accident.
    #[test]
    fn seed_1_streams_are_pinned() {
        assert_eq!(stream_hash(&KV_READ, 1), 0x469a_7c6e_07bf_5413);
        assert_eq!(stream_hash(&KV_WRITE, 1), 0x4e6a_52f3_c014_ae3f);
    }
}
