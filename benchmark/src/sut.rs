//! The system under test, as the benchmark sees it.
//!
//! This is the only file that names the repository's crates. Every call
//! the benchmark makes into them is here, so a change that alters one of
//! these signatures has one file to adapt (README.md lists them), and the
//! rest of the benchmark deals in whole numbers, [`Reply`]s and
//! nanoseconds.

use crate::model::Reply;
use crate::stats::{Bucket, Grouped};
use hydro_analysis::partition::{PartitionReport, TableClass};
use hydro_analysis::PreflightReport;
use hydro_core::interp::{Checkpoint, ProgramCore, TickOutput, Transducer, TransducerError};
use hydro_core::serve::{LatencyHistogram, OfferOutcome, ServeConfig, ServeDriver, ServeLoop};
use hydro_core::shard::{ParallelShardedTransducer, RoutingSpec, ShardedTransducer};
use hydro_core::{Program, Value};
use hydro_deploy::{deploy_sharded, DeployConfig, ShardedDeployment};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

fn row(args: &[i64]) -> Vec<Value> {
    args.iter().map(|&a| Value::Int(a)).collect()
}

fn reply(v: &Value) -> Reply {
    match v {
        Value::Str(s) if s == "OK" => Reply::Ok,
        Value::Str(s) if s == "miss" => Reply::Miss,
        Value::Int(i) => Reply::Int(*i),
        Value::Set(items) if items.iter().all(|i| matches!(i, Value::Int(_))) => {
            Reply::Set(items.iter().filter_map(Value::as_int).collect())
        }
        other => Reply::Other(format!("{other:?}")),
    }
}

fn replies(out: TickOutput, into: &mut Vec<(u64, Reply)>) {
    into.extend(
        out.responses
            .iter()
            .map(|r| (r.message_id, reply(&r.value))),
    );
}

// ------------------------------------------------------------ front end

#[derive(Clone)]
pub struct Parsed(Program);

/// `hydro_lang::parse_program`.
pub fn parse(src: &str) -> Result<Parsed, String> {
    hydro_lang::parse_program(src)
        .map(Parsed)
        .map_err(|e| e.to_string())
}

pub struct Preflight(PreflightReport);

/// `hydro_analysis::preflight`.
pub fn preflight(p: &Parsed) -> Preflight {
    Preflight(hydro_analysis::preflight(&p.0))
}

impl Preflight {
    pub fn errors(&self) -> usize {
        self.0.errors().count()
    }

    pub fn diagnostics(&self) -> usize {
        self.0.diagnostics.len()
    }

    pub fn rendered(&self) -> String {
        self.0.render()
    }
}

pub struct Partition(PartitionReport);

/// `hydro_analysis::partition`.
pub fn partition(p: &Parsed) -> Partition {
    Partition(hydro_analysis::partition(&p.0))
}

#[derive(Clone)]
pub struct Routing(RoutingSpec);

impl Partition {
    /// `PartitionReport::routing`.
    pub fn routing(&self) -> Routing {
        Routing(self.0.routing())
    }

    pub fn is_key_partitioned(&self, table: &str) -> bool {
        self.0.tables.get(table) == Some(&TableClass::Partitioned)
    }
}

#[derive(Clone)]
pub struct Core(Arc<ProgramCore>);

/// `ProgramCore::new`, which takes the program by value.
pub fn build_core(p: Parsed) -> Result<Core, String> {
    ProgramCore::new(p.0).map(Core).map_err(|e| e.to_string())
}

// -------------------------------------------------------------- drivers

/// What every tick-based driver offers the benchmark.
pub trait TickDriver {
    /// `enqueue(mailbox, row)` with a row of whole numbers; returns the
    /// message id.
    fn send(&mut self, mailbox: &str, args: &[i64]) -> u64;
    /// `tick()`, appending `(message id, reply)` pairs; returns the
    /// number of messages the tick processed.
    fn step(&mut self, into: &mut Vec<(u64, Reply)>) -> usize;
}

fn must<T>(r: Result<T, TransducerError>, what: &str) -> T {
    r.unwrap_or_else(|e| panic!("{what} failed: {e}"))
}

/// The three drivers share the repository's `ServeDriver` signatures.
macro_rules! tick_driver {
    ($wrapper:ty) => {
        impl TickDriver for $wrapper {
            fn send(&mut self, mailbox: &str, args: &[i64]) -> u64 {
                must(
                    ServeDriver::enqueue(&mut self.0, mailbox, row(args)),
                    "enqueue",
                )
            }

            fn step(&mut self, into: &mut Vec<(u64, Reply)>) -> usize {
                let out = must(ServeDriver::tick(&mut self.0), "tick");
                let n = out.messages_processed;
                replies(out, into);
                n
            }
        }
    };
}

tick_driver!(Bare);
tick_driver!(Serial);
tick_driver!(Parallel);

/// One bare `Transducer`.
pub struct Bare(Transducer);

pub struct Image(Checkpoint);

impl Bare {
    /// `Transducer::from_core`.
    pub fn new(core: &Core) -> Self {
        Bare(Transducer::from_core(Arc::clone(&core.0)))
    }

    /// `Transducer::set_journaling`.
    pub fn set_journaling(&mut self, on: bool) {
        self.0.set_journaling(on);
    }

    /// `Transducer::take_journal_delta`; returns the table rows in the
    /// record.
    pub fn take_journal_rows(&mut self) -> usize {
        self.0.take_journal_delta().map_or(0, |d| d.tables.len())
    }

    /// `Transducer::checkpoint`.
    pub fn checkpoint(&self) -> Image {
        Image(self.0.checkpoint())
    }

    /// `Transducer::restore`.
    pub fn restore(core: &Core, image: &Image) -> Self {
        Bare(Transducer::restore(Arc::clone(&core.0), &image.0))
    }

    /// `Transducer::table_len`.
    pub fn table_len(&self, table: &str) -> usize {
        self.0.table_len(table)
    }
}

/// `ShardedTransducer::from_core`: the serial sharded driver.
pub struct Serial(ShardedTransducer);

impl Serial {
    pub fn new(core: &Core, routing: &Routing, shards: usize) -> Self {
        Serial(ShardedTransducer::from_core(
            Arc::clone(&core.0),
            routing.0.clone(),
            shards,
        ))
    }

    /// `ShardedTransducer::table_len`.
    pub fn table_len(&self, table: &str) -> usize {
        self.0.table_len(table)
    }

    /// `ShardedTransducer::row`: the second column of the row keyed `key`.
    pub fn value_of(&self, table: &str, key: i64) -> Option<i64> {
        self.0
            .row(table, &[Value::Int(key)])
            .and_then(|r| r.get(1))
            .and_then(Value::as_int)
    }

    /// Rows of `table` per shard (`ShardedTransducer::shard(i).table_len`).
    pub fn rows_by_shard(&self, table: &str) -> Vec<usize> {
        (0..self.0.shard_count())
            .map(|i| self.0.shard(i).table_len(table))
            .collect()
    }
}

/// `ParallelShardedTransducer::from_core`: one worker thread per shard.
/// Dropping it joins the workers.
pub struct Parallel(ParallelShardedTransducer);

impl Parallel {
    pub fn new(core: &Core, routing: &Routing, shards: usize) -> Self {
        Parallel(ParallelShardedTransducer::from_core(
            Arc::clone(&core.0),
            routing.0.clone(),
            shards,
        ))
    }
}

// ---------------------------------------------------------- serve loop

/// What the benchmark's `ServeDriver` wrapper saw. The serve loop calls
/// `enqueue` once per drained request and `tick` once per batch; timing
/// those calls from the wrapper splits the loop's own work from the
/// driver's.
#[derive(Default)]
pub struct Probe {
    /// Whether to read the clock around each call (the traced run). A
    /// `Cell`, because the serve loop lends its driver out only by shared
    /// reference.
    pub timing: Cell<bool>,
    /// The third argument of each enqueued row, in enqueue order: the
    /// kv workloads put the request number there, which ties message ids
    /// (assigned in enqueue order) back to requests.
    pub tags: Vec<i64>,
    /// Message id of `tags[0]`.
    pub first_id: u64,
    /// Calls and nanoseconds seen while `timing` was on.
    pub enqueue_ns: u64,
    pub enqueues: u64,
    pub tick_ns: u64,
    pub ticks: u64,
    /// Σ batch × tick duration: the tick service the mean request saw.
    pub batch_weighted_tick_ns: u128,
    pub tick_max_ns: u64,
    /// `(messages, ns)` of every tick longer than [`SLOW_TICK_NS`].
    pub slow_ticks: Vec<(u32, u64)>,
    batch: u32,
}

pub const SLOW_TICK_NS: u64 = 10_000_000;

impl Probe {
    /// `(enqueue ns, enqueue calls, tick ns, tick calls)` timed so far.
    pub fn timed(&self) -> [u64; 4] {
        [self.enqueue_ns, self.enqueues, self.tick_ns, self.ticks]
    }
}

pub struct Timed<D> {
    inner: D,
    probe: Probe,
}

impl<D: ServeDriver> ServeDriver for Timed<D> {
    fn enqueue(&mut self, mailbox: &str, row: Vec<Value>) -> Result<u64, TransducerError> {
        let tag = row.get(2).and_then(Value::as_int).unwrap_or(-1);
        let id = if self.probe.timing.get() {
            let t = Instant::now();
            let id = self.inner.enqueue(mailbox, row)?;
            self.probe.enqueue_ns += t.elapsed().as_nanos() as u64;
            self.probe.enqueues += 1;
            id
        } else {
            self.inner.enqueue(mailbox, row)?
        };
        if self.probe.tags.is_empty() {
            self.probe.first_id = id;
        }
        self.probe.tags.push(tag);
        self.probe.batch += 1;
        Ok(id)
    }

    fn tick(&mut self) -> Result<TickOutput, TransducerError> {
        let batch = std::mem::take(&mut self.probe.batch);
        if !self.probe.timing.get() {
            return self.inner.tick();
        }
        let t = Instant::now();
        let out = self.inner.tick()?;
        let ns = t.elapsed().as_nanos() as u64;
        self.probe.ticks += 1;
        self.probe.tick_ns += ns;
        self.probe.batch_weighted_tick_ns += u128::from(batch) * u128::from(ns);
        self.probe.tick_max_ns = self.probe.tick_max_ns.max(ns);
        if ns > SLOW_TICK_NS {
            self.probe.slow_ticks.push((batch, ns));
        }
        Ok(out)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
}

/// Counters of one serve loop (`ServeLoop::stats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub ticks: u64,
    pub max_batch: u64,
    pub max_queue_depth: u64,
    pub budget_peak: u64,
}

/// `ServeLoop<Timed<ShardedTransducer>>` with `ServeConfig::default()`.
pub struct Serve(ServeLoop<Timed<ShardedTransducer>>);

impl Serve {
    /// `ServeLoop::new`.
    pub fn new(driver: Serial, probe: Probe, routing: &Routing) -> Self {
        Serve(ServeLoop::new(
            Timed {
                inner: driver.0,
                probe,
            },
            routing.0.clone(),
            ServeConfig::default(),
        ))
    }

    /// `ServeLoop::offer`; `false` means rejected (`Overloaded`).
    pub fn offer(&mut self, t_ns: u64, mailbox: &str, args: &[i64]) -> bool {
        must(self.0.offer(t_ns, mailbox, row(args)), "offer") == OfferOutcome::Accepted
    }

    /// `ServeLoop::drain`.
    pub fn drain(&mut self) {
        must(self.0.drain(), "drain");
    }

    /// `ServeLoop::virtual_now`.
    pub fn now_ns(&self) -> u64 {
        self.0.virtual_now()
    }

    /// `ServeLoop::take_output`.
    pub fn take_replies(&mut self, into: &mut Vec<(u64, Reply)>) {
        replies(self.0.take_output(), into);
    }

    /// `ServeLoop::stats`.
    pub fn counters(&self) -> ServeCounters {
        let s = self.0.stats();
        ServeCounters {
            accepted: s.accepted,
            rejected: s.rejected_queue_full,
            completed: s.completed,
            ticks: s.ticks,
            max_batch: s.max_batch as u64,
            max_queue_depth: s.max_queue_depth as u64,
            budget_peak: s.budget_peak as u64,
        }
    }

    /// `ServeLoop::histogram`, exported cell by cell.
    pub fn latencies(&self) -> Latencies {
        let h = self.0.histogram();
        Latencies {
            grouped: export(h),
            mean_ns: h.mean(),
            max_ns: h.max(),
        }
    }

    /// What the wrapper has seen so far (through `ServeLoop::driver`).
    pub fn probe(&self) -> &Probe {
        &self.0.driver().probe
    }

    /// `ServeLoop::into_inner`: the driver and what the wrapper saw.
    pub fn into_parts(self) -> (Serial, Probe) {
        let timed = self.0.into_inner();
        (Serial(timed.inner), timed.probe)
    }
}

/// Enqueue→reply latencies of one serve loop, in nanoseconds.
pub struct Latencies {
    pub grouped: Grouped,
    pub mean_ns: u64,
    pub max_ns: u64,
}

/// Read a `LatencyHistogram` out through its public `percentile`: the
/// value at each rank is a cell floor, so walking the ranks recovers every
/// cell's count. Cell widths follow the layout the type documents (32
/// linear cells per power of two).
fn export(h: &LatencyHistogram) -> Grouped {
    let n = h.count();
    let at_rank = |r: u64| h.percentile((r as f64 - 0.5) / n as f64);
    let mut buckets = Vec::new();
    let mut lo = 1u64;
    while lo <= n {
        let floor = at_rank(lo);
        // Last rank that still reads `floor`.
        let (mut a, mut b) = (lo, n);
        while a < b {
            let mid = a + (b - a).div_ceil(2);
            if at_rank(mid) == floor {
                a = mid;
            } else {
                b = mid - 1;
            }
        }
        let width = if floor < 64 {
            1
        } else {
            1u64 << (63 - floor.leading_zeros() - 5)
        };
        buckets.push(Bucket {
            floor,
            width,
            count: a - lo + 1,
        });
        lo = a + 1;
    }
    Grouped::from_buckets(buckets)
}

// ------------------------------------------------------- sim deployment

/// Counters of the simulated cluster (`Sim::stats` and the router's
/// `status`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterCounters {
    pub sent: u64,
    pub delivered: u64,
    pub timers_fired: u64,
    pub dropped_by_dead: u64,
    pub retries: u64,
    pub shed: u64,
    pub gave_up: u64,
}

/// `deploy_sharded`: shards behind the router on the simulated network.
pub struct Cluster(ShardedDeployment);

impl Cluster {
    pub fn deploy(p: &Parsed, shards: usize, seed: u64, replicate: bool) -> Self {
        let config = DeployConfig {
            seed,
            replicate_shards: replicate,
            ..DeployConfig::default()
        };
        Cluster(deploy_sharded(&p.0, config, shards, |_| {}))
    }

    /// `ShardedDeployment::client_request_at`; returns the request id.
    pub fn request_at(&mut self, mailbox: &str, args: &[i64], at_us: u64) -> u64 {
        self.0.client_request_at(mailbox, row(args), at_us)
    }

    /// `Sim::run_until`.
    pub fn run_until(&mut self, t_us: u64) {
        self.0.sim.run_until(t_us);
    }

    /// `Sim::now`.
    pub fn now_us(&self) -> u64 {
        self.0.sim.now()
    }

    /// `Sim::kill` on the primary of `shard`.
    pub fn kill_primary(&mut self, shard: usize) {
        let node = self.0.shards[shard];
        self.0.sim.kill(node);
    }

    /// `ShardedDeployment::promoted_at`.
    pub fn promoted_at_us(&self, shard: usize) -> Option<u64> {
        self.0.promoted_at(shard)
    }

    /// One `ledger` entry: `(submitted, Some((replied, reply)))`, times
    /// in virtual µs.
    pub fn outcome(&self, request: u64) -> Option<(u64, Option<(u64, Reply)>)> {
        let ledger = self.0.ledger.borrow();
        let (t0, r) = ledger.get(&request)?;
        Some((*t0, r.as_ref().map(|(t1, v)| (*t1, reply(v)))))
    }

    pub fn counters(&self) -> ClusterCounters {
        let n = self.0.sim.stats();
        let s = self.0.status.borrow();
        ClusterCounters {
            sent: n.sent,
            delivered: n.delivered,
            timers_fired: n.timers_fired,
            dropped_by_dead: n.dropped_by_dead,
            retries: s.retries,
            shed: s.shed + s.shed_queue_full,
            gave_up: s.gave_up,
        }
    }

    /// The second column of the row keyed `key`, on whichever current
    /// owner (`owner_handle`) holds it; and on how many owners it was
    /// found.
    pub fn owner_value_of(&self, table: &str, key: i64) -> (Option<i64>, usize) {
        let k = [Value::Int(key)];
        let mut found = (None, 0);
        for shard in 0..self.0.shards.len() {
            let owner = self.0.owner_handle(shard).borrow();
            if let Some(r) = owner.row(table, &k) {
                found = (r.get(1).and_then(Value::as_int), found.1 + 1);
            }
        }
        found
    }

    /// Rows of `table` over the current owners.
    pub fn owner_rows(&self, table: &str) -> usize {
        self.0.table_len(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exported_histogram_matches_what_was_recorded() {
        let mut h = LatencyHistogram::default();
        let mut n = 0u64;
        for v in (1..=2000u64).map(|i| i * 37) {
            h.record(v);
            n += 1;
        }
        h.record(50_000_000);
        let g = export(&h);
        assert_eq!(g.count, n + 1);
        assert!(g
            .buckets
            .windows(2)
            .all(|w| w[0].floor + w[0].width <= w[1].floor));
        // Interpolated quantiles sit within one cell (3%) of the truth.
        let p50 = g.quantile(0.5);
        assert!((p50 - 37_000.0).abs() < 37_000.0 * 0.04, "{p50}");
        assert!(g.quantile(1.0) >= 50_000_000.0 * 0.96);
        // Every cell floor is one the histogram itself reports.
        for b in &g.buckets {
            assert!(b.count > 0);
        }
    }

    #[test]
    fn replies_convert() {
        assert_eq!(reply(&Value::ok()), Reply::Ok);
        assert_eq!(reply(&Value::Str("miss".into())), Reply::Miss);
        assert_eq!(reply(&Value::Int(7)), Reply::Int(7));
        assert_eq!(
            reply(&Value::set_of([Value::Int(3), Value::Int(1)])),
            Reply::Set(vec![1, 3])
        );
        assert!(matches!(
            reply(&Value::Str("OVERLOADED".into())),
            Reply::Other(_)
        ));
    }
}
