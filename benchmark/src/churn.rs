//! `view_churn`: one bare transducer running the contact-tracing program
//! while whole contact clusters come and go. Closed loop, one client:
//! every tick carries one cluster's removal, one cluster's arrival, two
//! reads and now and then a diagnosis, and the client waits for the tick.
//! A message's latency is the duration of its tick.

use crate::clock::OnCpu;
use crate::common::{
    compile, front_end_metrics, peak_rss_mb, set_up_repeatedly, Better, Compiled, Outcome, RunCfg,
    SEGMENTS,
};
use crate::gen::SplitMix64;
use crate::model::{line_up, Reply, Tally};
use crate::stats::{median, segments, Bucket, Grouped};
use crate::sut::{Bare, TickDriver};
use crate::trace::{SpanId, Tracer};
use std::collections::VecDeque;
use std::time::Instant;

pub const PROGRAM: &str = "contacts.hydro";
/// People per contact cluster, linked in a chain.
const CLUSTER: i64 = 4;
/// Resident clusters (2 000 people).
const RESIDENT: usize = 500;
/// Measured ticks per unit of `--seconds`.
const TICKS_PER_S: u64 = 600;
/// Set-ups per untraced run; `setup_s` is their median. This set-up is
/// short, so it is repeated more often than the kv one.
const SETUP_REPS: usize = 9;
/// Ticks per traced or untraced block of the traced run.
const BLOCK: usize = 16;
/// A diagnosis rides on every this-many-th tick.
const DIAGNOSE_EVERY: u64 = 8;
/// Steady ticks run, and checked, before the measured ones.
const WARM_UP_TICKS: usize = 32;
/// Ticks per arm of the traced run.
const ARM_TICKS: usize = 200;

struct Cluster {
    base: i64,
    /// Whether its `add_contact`s have been sent (in an earlier tick).
    linked: bool,
    /// Diagnosed members, ascending.
    sick: Vec<i64>,
}

struct Msg {
    handler: &'static str,
    args: [i64; 2],
    arity: usize,
    want: Reply,
}

fn msg1(handler: &'static str, a: i64, want: Reply) -> Msg {
    Msg {
        handler,
        args: [a, 0],
        arity: 1,
        want,
    }
}

/// What one tick carries.
#[derive(Clone, Copy)]
struct Plan {
    remove: bool,
    add: bool,
    read: bool,
    diagnose: bool,
}

/// The generator, which is also the oracle: clusters are disjoint and
/// arrive and leave whole, so it knows every view row.
struct Population {
    ring: VecDeque<Cluster>,
    next_pid: i64,
    rng: SplitMix64,
    ticks: u64,
}

impl Population {
    fn new(seed: u64) -> Self {
        Population {
            ring: VecDeque::new(),
            next_pid: 1,
            rng: SplitMix64::new(seed),
            ticks: 0,
        }
    }

    fn arrive(&mut self, msgs: &mut Vec<Msg>) {
        let base = self.next_pid;
        self.next_pid += CLUSTER;
        msgs.extend((base..base + CLUSTER).map(|p| msg1("add_person", p, Reply::Ok)));
        self.ring.push_back(Cluster {
            base,
            linked: false,
            sick: Vec::new(),
        });
    }

    /// Link every cluster whose people arrived in an earlier tick.
    fn link(&mut self, msgs: &mut Vec<Msg>, skip_last: bool) {
        let upto = self.ring.len() - usize::from(skip_last);
        for c in self.ring.iter_mut().take(upto).filter(|c| !c.linked) {
            msgs.extend((c.base..c.base + CLUSTER - 1).map(|p| Msg {
                handler: "add_contact",
                args: [p, p + 1],
                arity: 2,
                want: Reply::Ok,
            }));
            c.linked = true;
        }
    }

    /// A cluster whose links were committed before this tick began: any
    /// but the two youngest.
    fn settled(&mut self) -> usize {
        self.rng.below(self.ring.len() as u64 - 2) as usize
    }

    fn member(&mut self, cluster: usize) -> i64 {
        self.ring[cluster].base + self.rng.below(CLUSTER as u64) as i64
    }

    fn next_tick(&mut self, plan: Plan) -> Vec<Msg> {
        let mut msgs = Vec::with_capacity(16);
        if plan.remove {
            let gone = self.ring.pop_front().expect("resident clusters");
            msgs.extend(
                (gone.base..gone.base + CLUSTER).map(|p| msg1("remove_person", p, Reply::Ok)),
            );
        }
        if plan.add {
            self.arrive(&mut msgs);
            self.link(&mut msgs, true);
        }
        if plan.read {
            // Handlers read the state committed by earlier ticks, so the
            // expectations are taken before this tick's diagnosis lands.
            let c = self.settled();
            let p = self.member(c);
            let base = self.ring[c].base;
            msgs.push(msg1(
                "trace",
                p,
                Reply::Set((base..base + CLUSTER).collect()),
            ));
            let c = self.settled();
            let p = self.member(c);
            if self.ticks.is_multiple_of(2) {
                msgs.push(msg1("exposed_q", p, Reply::Set(self.ring[c].sick.clone())));
            } else {
                msgs.push(msg1("reach_q", p, Reply::Set(vec![CLUSTER])));
            }
        }
        if plan.diagnose {
            let c = self.settled();
            let p = self.member(c);
            msgs.push(msg1("diagnosed", p, Reply::Ok));
            let sick = &mut self.ring[c].sick;
            if let Err(at) = sick.binary_search(&p) {
                sick.insert(at, p);
            }
        }
        self.ticks += 1;
        msgs
    }

    fn steady(&self) -> Plan {
        Plan {
            remove: true,
            add: true,
            read: true,
            diagnose: self.ticks.is_multiple_of(DIAGNOSE_EVERY),
        }
    }
}

/// One measured tick.
struct Ticked {
    msgs: usize,
    ns: u64,
    rows_out: usize,
}

/// Messages per second over some ticks.
fn rate(ticks: &[Ticked]) -> f64 {
    let msgs: f64 = ticks.iter().map(|t| t.msgs as f64).sum();
    let ns: f64 = ticks.iter().map(|t| t.ns as f64).sum();
    msgs / (ns / 1e9)
}

/// Quantile in µs of message latency over some ticks: every message of a
/// tick waited for the whole tick.
fn latency_us(ticks: &[Ticked], q: f64) -> f64 {
    let mut cells: Vec<Bucket> = ticks
        .iter()
        .map(|t| Bucket {
            floor: t.ns,
            width: 1,
            count: t.msgs as u64,
        })
        .collect();
    cells.sort_by_key(|b| b.floor);
    Grouped::from_buckets(cells).quantile(q) / 1e3
}

/// Send a tick's messages, run the tick, check every reply. Only the
/// sends and the tick are timed, on the on-CPU clock.
fn run_tick(
    driver: &mut impl TickDriver,
    msgs: &[Msg],
    tally: &mut Tally,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    replies: &mut Vec<(u64, Reply)>,
) -> Ticked {
    let (t0, cpu0) = (Instant::now(), OnCpu::now());
    let span = tracer.open("churn_tick", parent);
    let mut first_id = 0;
    for (i, m) in msgs.iter().enumerate() {
        let id = driver.send(m.handler, &m.args[..m.arity]);
        if i == 0 {
            first_id = id;
        }
    }
    let sent = if span.is_some() {
        t0.elapsed()
    } else {
        std::time::Duration::ZERO
    };
    driver.step(replies);
    let (dt, cpu_ns) = (t0.elapsed(), cpu0.elapsed_ns());
    let lo = first_id;
    let reqs = (lo, lo + msgs.len() as u64);
    tracer.close(span, t0, dt, reqs);
    tracer.folded(
        "Transducer::enqueue",
        span,
        sent.as_nanos() as u64,
        msgs.len() as u64,
    );
    tracer.folded("Transducer::tick", span, (dt - sent).as_nanos() as u64, 1);

    let rows_out = replies
        .iter()
        .map(|(_, r)| {
            if let Reply::Set(rows) = r {
                rows.len()
            } else {
                0
            }
        })
        .sum();
    let got = line_up(replies.drain(..), first_id, msgs.len());
    tally.attempted += msgs.len() as u64;
    for (m, g) in msgs.iter().zip(&got) {
        tally.check(m.handler, g.as_ref(), &m.want);
    }
    Ticked {
        msgs: msgs.len(),
        ns: cpu_ns,
        rows_out,
    }
}

struct SetUp {
    compiled: Compiled,
    node: Bare,
    people: Population,
    total_s: f64,
    instantiate_ns: u64,
    preload_s: f64,
    preload_ops: u64,
}

/// Text → compiled core → instance → `clusters` resident clusters loaded
/// through the handlers (people in one tick, their links in the next) →
/// one empty tick that folds the links into the views.
fn set_up(cfg: &RunCfg, clusters: usize, tally: &mut Tally, tracer: &mut Tracer) -> SetUp {
    let (t0, cpu0) = (Instant::now(), OnCpu::now());
    let root = tracer.open("setup", None);
    let compiled = compile(cfg, PROGRAM, tracer, root);
    let t = Instant::now();
    let mut node = Bare::new(&compiled.core);
    let instantiate = t.elapsed();
    tracer.leaf("from_core", root, t, instantiate, (0, 0));

    let t_load = OnCpu::now();
    let mut people = Population::new(cfg.seed);
    let mut replies = Vec::new();
    let mut preload_ops = 0u64;
    let mut arrivals = Vec::new();
    for _ in 0..clusters {
        people.arrive(&mut arrivals);
    }
    let mut links = Vec::new();
    people.link(&mut links, false);
    for batch in [arrivals, links, Vec::new()] {
        let t = Instant::now();
        let span = tracer.open("preload_tick", root);
        let ticked = run_tick(&mut node, &batch, tally, tracer, span, &mut replies);
        tracer.close(span, t, t.elapsed(), (0, ticked.msgs as u64));
        preload_ops += ticked.msgs as u64;
    }
    let preload_s = t_load.elapsed_s();
    let total_s = cpu0.elapsed_s();
    tracer.close(root, t0, t0.elapsed(), (0, preload_ops));
    SetUp {
        compiled,
        node,
        people,
        total_s,
        instantiate_ns: instantiate.as_nanos() as u64,
        preload_s,
        preload_ops,
    }
}

/// Median tick time in µs over `ARM_TICKS` ticks that all follow `plan`.
fn arm(node: &mut Bare, people: &mut Population, plan: Plan, tally: &mut Tally) -> f64 {
    let mut off = Tracer::new(false);
    let mut replies = Vec::new();
    let us: Vec<f64> = (0..ARM_TICKS)
        .map(|_| {
            let msgs = people.next_tick(plan);
            run_tick(node, &msgs, tally, &mut off, None, &mut replies).ns as f64 / 1e3
        })
        .collect();
    // An empty tick, so that the next arm does not pay for folding this
    // one's last effects into the views.
    run_tick(node, &[], tally, &mut off, None, &mut replies);
    median(&us)
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let t_part = Instant::now();
    let (setup_s, up) = set_up_repeatedly(cfg, SETUP_REPS, || {
        let up = set_up(cfg, RESIDENT, &mut tally, tracer);
        (up.total_s, up)
    });
    let SetUp {
        compiled,
        mut node,
        mut people,
        instantiate_ns,
        preload_s,
        preload_ops,
        ..
    } = up;

    out.wall("setup", t_part);

    // Let lazy set-up finish first: the first few ticks build indexes that
    // every later tick finds in place.
    let mut replies = Vec::new();
    tracer.on = false;
    for _ in 0..WARM_UP_TICKS {
        let plan = people.steady();
        let msgs = people.next_tick(plan);
        run_tick(&mut node, &msgs, &mut tally, tracer, None, &mut replies);
    }
    tracer.on = cfg.trace;

    let ticks = (TICKS_PER_S * cfg.seconds) as usize;
    let phase = tracer.open("churn", None);
    let t_phase = Instant::now();
    let mut measured: Vec<Ticked> = Vec::with_capacity(ticks);
    for i in 0..ticks {
        // Traced and untraced blocks alternate in the traced run.
        tracer.on = cfg.trace && (i / BLOCK).is_multiple_of(2);
        let plan = people.steady();
        let msgs = people.next_tick(plan);
        measured.push(run_tick(
            &mut node,
            &msgs,
            &mut tally,
            tracer,
            phase,
            &mut replies,
        ));
    }
    tracer.on = cfg.trace;
    tracer.close(phase, t_phase, t_phase.elapsed(), (0, 0));
    out.wall("churn", t_phase);

    if !cfg.trace {
        let per_segment = |f: &dyn Fn(&[Ticked]) -> f64| -> Vec<f64> {
            segments(ticks, SEGMENTS)
                .into_iter()
                .map(|r| f(&measured[r]))
                .collect()
        };
        out.put("setup_s", setup_s);
        out.put_best("throughput_ops_s", &per_segment(&rate), Better::Higher);
        out.put_best(
            "latency_p50_us",
            &per_segment(&|ts| latency_us(ts, 0.5)),
            Better::Lower,
        );
        out.put_best(
            "latency_p99_us",
            &per_segment(&|ts| latency_us(ts, 0.99)),
            Better::Lower,
        );
        out.put("peak_rss_mb", peak_rss_mb());
        out.tally = tally;
        return out;
    }

    front_end_metrics(cfg, PROGRAM, &compiled, &mut out);
    out.put("interp.instantiate_us", instantiate_ns as f64 / 1e3);
    out.put("interp.preload_ops_s", preload_ops as f64 / preload_s);

    out.put("eval.us_per_msg", 1e6 / rate(&measured));
    out.put(
        "eval.rows_out_per_tick",
        measured.iter().map(|t| t.rows_out as f64).sum::<f64>() / ticks as f64,
    );
    out.put(
        "interp.replies_per_op",
        tally.replied as f64 / tally.attempted.max(1) as f64,
    );
    // Blocks alternate, starting with a traced one.
    let block_rates = |traced: bool| {
        let rates: Vec<f64> = measured
            .chunks(BLOCK)
            .enumerate()
            .filter(|(i, _)| i.is_multiple_of(2) == traced)
            .map(|(_, b)| rate(b))
            .collect();
        median(&rates)
    };
    out.put(
        "trace.overhead_share",
        1.0 - block_rates(true) / block_rates(false),
    );

    // Ticks that carry one kind of work only.
    let t_part = Instant::now();
    let only = |remove, add, read| Plan {
        remove,
        add,
        read,
        diagnose: false,
    };
    out.put(
        "eval.insert_tick_us",
        arm(&mut node, &mut people, only(false, true, false), &mut tally),
    );
    let delete_us = arm(&mut node, &mut people, only(true, false, false), &mut tally);
    out.put("eval.delete_tick_us", delete_us);
    let read_us = arm(&mut node, &mut people, only(false, false, true), &mut tally);
    out.put("eval.read_tick_us", read_us);
    out.put(
        "eval.noop_tick_us",
        arm(
            &mut node,
            &mut people,
            only(false, false, false),
            &mut tally,
        ),
    );
    drop(node);

    // The delete and read arms again with four times the resident
    // people: 1.0 means the tick costs the same whatever is resident.
    let mut off = Tracer::new(false);
    let mut big = set_up(cfg, 4 * RESIDENT, &mut tally, &mut off);
    let big_delete_us = arm(
        &mut big.node,
        &mut big.people,
        only(true, false, false),
        &mut tally,
    );
    out.put("eval.resident_scaling", big_delete_us / delete_us);
    let big_read_us = arm(
        &mut big.node,
        &mut big.people,
        only(false, false, true),
        &mut tally,
    );
    out.put("eval.read_resident_scaling", big_read_us / read_us);
    out.wall("arms", t_part);

    out.tally = tally;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_hash(seed: u64) -> u64 {
        let mut h = crate::gen::StreamHash::default();
        let mut p = Population::new(seed);
        let mut sink = Vec::new();
        for _ in 0..RESIDENT {
            p.arrive(&mut sink);
        }
        p.link(&mut sink, false);
        for _ in 0..200 {
            let plan = p.steady();
            for m in p.next_tick(plan) {
                h.push(m.handler.len() as u64);
                h.push(m.args[0] as u64);
                h.push(m.args[1] as u64);
            }
        }
        h.finish()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(stream_hash(1), stream_hash(1));
        assert_ne!(stream_hash(1), stream_hash(2));
    }

    #[test]
    fn steady_tick_has_the_documented_shape() {
        let mut p = Population::new(3);
        let mut sink = Vec::new();
        for _ in 0..RESIDENT {
            p.arrive(&mut sink);
        }
        p.link(&mut sink, false);
        assert_eq!(sink.len(), RESIDENT * 7);
        for i in 0..64u64 {
            let plan = p.steady();
            let msgs = p.next_tick(plan);
            let count = |h: &str| msgs.iter().filter(|m| m.handler == h).count();
            assert_eq!(count("remove_person"), 4);
            assert_eq!(count("add_person"), 4);
            // The first tick has no cluster from the tick before to link.
            assert_eq!(count("add_contact"), if i == 0 { 0 } else { 3 });
            assert_eq!(count("trace"), 1);
            assert_eq!(count("exposed_q") + count("reach_q"), 1);
            assert_eq!(count("diagnosed"), usize::from(i % DIAGNOSE_EVERY == 0));
            assert_eq!(p.ring.len(), RESIDENT);
        }
    }
    #[test]
    fn seed_1_stream_is_pinned() {
        assert_eq!(stream_hash(1), 0x1ecb_0cfb_36fc_7042);
    }
}
