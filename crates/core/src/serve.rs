//! Open-loop serving layer: event-loop ingress with adaptive
//! micro-batching over any sharded (or single) transducer driver.
//!
//! Everything measured before this module was closed-loop wall-ms per
//! tick; the paper's pitch is programs that *serve heavy traffic*, and
//! the number that decides serving architectures is tail latency under
//! arrival pressure. [`ServeLoop`] is the missing ingress: clients
//! `offer` timestamped requests, the loop queues them per shard, and an
//! event loop (a [`TimerWheel`] min-heap, the Boon `event_loop` shape)
//! decides when the underlying driver ticks and how many requests each
//! tick drains.
//!
//! # Micro-batching and the budget controller
//!
//! Every tick of the underlying transducer pays a fixed overhead —
//! incremental-plan setup, journal folding, output merging — that PR 6's
//! parallel runtime and PR 8's O(delta) maintenance have made *the*
//! dominant cost of a one-message tick. Draining a batch of `b` queued
//! requests into one tick amortizes that overhead `b`-fold, at the price
//! of holding the batch's earliest request for the tick's duration.
//! The [`BatchController`] walks that trade-off live, per the classic
//! adaptive group-commit scheme:
//!
//! * the per-shard drain budget starts at 1 (light load ⇒ every request
//!   ticks immediately ⇒ minimal latency);
//! * a tick that leaves backlog behind while service time stays under
//!   [`ServeConfig::latency_target_ns`] doubles the budget (pressure ⇒
//!   grow toward [`BatchPolicy::Adaptive`]'s cap);
//! * a tick whose service time overruns the target halves it, and an
//!   under-full drain decays it — so the budget tracks the offered load
//!   instead of sticking at the cap.
//!
//! A tick is triggered by whichever comes first: a shard's queue
//! reaching the current budget (tick *now*), or the flush timer armed
//! [`ServeConfig::flush_delay_ns`] after an arrival (bounds the wait of
//! a sub-budget batch). A drain takes at most the budget in messages
//! and [`ServeConfig::batch_bytes`] in estimated payload bytes per
//! shard — but always at least one message per non-empty eligible
//! queue, so a single oversized request cannot wedge the loop.
//!
//! # Backpressure contract
//!
//! Ingress queues are bounded ([`ServeConfig::queue_cap`] per shard).
//! An [`ServeLoop::offer`] against a full queue is **rejected
//! immediately** — the request never enters the system, the caller gets
//! [`OfferOutcome::Overloaded`] (the wire-level `OVERLOADED` reply),
//! and the rejection is counted in
//! [`ServeStats::rejected_queue_full`], distinct from any other shed
//! path. Accepted requests are never dropped: every one is eventually
//! drained, ticked, and measured. This is an *open-loop* contract —
//! arrival timestamps come from the caller and are never gated on
//! service progress, so the loop under overload reports honest queueing
//! delay and rejection counts instead of the closed-loop's coordinated
//! omission.
//!
//! # Clock and determinism story
//!
//! The loop runs on a **virtual nanosecond clock**. Arrival times are
//! caller-supplied; service time per tick comes from the
//! [`ServiceModel`]: `Measured` folds the real (wall-clock) tick
//! duration into the virtual clock — the benchmarking mode — while
//! `Fixed` charges a deterministic `tick_ns + per_msg_ns · batch`,
//! making **every** observable of a run — batch boundaries, tick
//! times, the latency histogram, stats — a pure function of the offered
//! (timestamp, mailbox, row) sequence. The differential and
//! determinism suites run on `Fixed`; CI double-runs them and diffs.
//!
//! Latency is recorded enqueue→reply: from the offered arrival
//! timestamp to the virtual completion time of the tick that processed
//! the request, captured in an HDR-style log-bucketed
//! [`LatencyHistogram`] (≈3% relative resolution, fixed footprint).
//!
//! # Batching transparency — which programs can't tell
//!
//! Micro-batching changes *tick boundaries*, and two handler classes
//! observe them:
//!
//! * **Serialized handlers** (`Serializable` level, or any handler
//!   carrying invariants) execute one message at a time against
//!   committed mid-tick state — read-your-writes holds *within* a
//!   batch, not just across batches. One caveat: within a tick the
//!   interpreter runs handlers in *program order* (all of handler A's
//!   mailbox, then all of handler B's), so when requests fan out over
//!   several handlers, cross-handler arrival order inside one batch is
//!   not preserved. Full batch-split invariance — *any* two batch
//!   partitions of a request stream produce identical responses, sends,
//!   and state — therefore requires routing traffic through a **single
//!   serialized entry handler** (a `req(op, …)` multiplexer), where
//!   within-tick order is exactly arrival order. That is the E20
//!   serving shape, and the property the `serve_batching` proptests
//!   pin.
//! * **Snapshot (eventual) handlers** read the tick-*start* snapshot:
//!   a read batched into the same tick as an earlier same-key write
//!   sees the pre-tick value. That is precisely the consistency the
//!   program declared — but it means batch boundaries are observable,
//!   so only runs fed *identical* batch boundaries compare
//!   bit-identically (the differential suite does exactly that).
//! * **Condition handlers** fire per tick, not per message — batching
//!   coalesces their firings by construction.

use crate::eval::Row;
use crate::interp::{TickOutput, TransducerError};
use crate::shard::RoutingSpec;
use crate::value::Value;
use std::collections::{BinaryHeap, VecDeque};

/// Anything the serve loop can drive: one tick-based transducer exposing
/// sequential message-id enqueue and a tick barrier. Implemented by
/// [`crate::interp::Transducer`] (one shard) and by the one sharded
/// driver, [`crate::shard::ShardSet`], over either executor
/// ([`crate::shard::ShardedTransducer`] inline,
/// [`crate::shard::ParallelShardedTransducer`] on worker threads) — all
/// three produce bit-identical outputs for the same enqueue/tick
/// sequence, which is what lets the differential suite swap them freely
/// under the loop.
pub trait ServeDriver {
    /// Enqueue one message, returning its globally sequential id.
    fn enqueue(&mut self, mailbox: &str, row: Row) -> Result<u64, TransducerError>;
    /// Run one tick over everything enqueued since the last.
    fn tick(&mut self) -> Result<TickOutput, TransducerError>;
    /// Number of shards (= ingress queues the loop maintains).
    fn shard_count(&self) -> usize;
}

impl ServeDriver for crate::interp::Transducer {
    fn enqueue(&mut self, mailbox: &str, row: Row) -> Result<u64, TransducerError> {
        crate::interp::Transducer::enqueue(self, mailbox, row)
    }
    fn tick(&mut self) -> Result<TickOutput, TransducerError> {
        crate::interp::Transducer::tick(self)
    }
    fn shard_count(&self) -> usize {
        1
    }
}

impl<E: crate::shard::ShardExec> ServeDriver for crate::shard::ShardSet<E> {
    fn enqueue(&mut self, mailbox: &str, row: Row) -> Result<u64, TransducerError> {
        crate::shard::ShardSet::enqueue(self, mailbox, row)
    }
    fn tick(&mut self) -> Result<TickOutput, TransducerError> {
        crate::shard::ShardSet::tick(self)
    }
    fn shard_count(&self) -> usize {
        crate::shard::ShardSet::shard_count(self)
    }
}

/// Where a tick's service time comes from (see the module docs).
#[derive(Clone, Copy, Debug)]
pub enum ServiceModel {
    /// Charge the measured wall-clock duration of `driver.tick()` —
    /// latencies and throughput come out in real nanoseconds.
    Measured,
    /// Charge a deterministic `tick_ns + per_msg_ns · batch_size` — the
    /// reproducible model the differential/determinism suites run on.
    Fixed {
        /// Fixed cost charged per tick.
        tick_ns: u64,
        /// Marginal cost charged per drained message.
        per_msg_ns: u64,
    },
}

/// Per-shard drain-budget policy.
#[derive(Clone, Copy, Debug)]
pub enum BatchPolicy {
    /// Constant budget (batch=1 is the no-batching baseline the E20
    /// saturation arm compares against).
    Fixed(usize),
    /// Adaptive between 1 and `cap` (see [`BatchController`]).
    Adaptive {
        /// Upper bound the budget may grow to.
        cap: usize,
    },
}

/// Configuration for a [`ServeLoop`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Bounded per-shard ingress queue depth; offers beyond it are
    /// rejected `OVERLOADED`.
    pub queue_cap: usize,
    /// Drain-budget policy.
    pub batch: BatchPolicy,
    /// Per-shard per-tick estimated-payload byte budget (at least one
    /// message per shard is always drained).
    pub batch_bytes: usize,
    /// The latency target the adaptive controller steers toward: growth
    /// is gated on tick service time staying under it.
    pub latency_target_ns: u64,
    /// How long a sub-budget batch may wait for company before the
    /// flush timer forces a tick.
    pub flush_delay_ns: u64,
    /// Service-time model.
    pub service: ServiceModel,
    /// Record every tick's drained `(mailbox, row)` batch in order —
    /// the differential suites replay these against a reference driver.
    pub record_batches: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 8192,
            batch: BatchPolicy::Adaptive { cap: 512 },
            batch_bytes: 1 << 20,
            latency_target_ns: 5_000_000,
            flush_delay_ns: 100_000,
            service: ServiceModel::Measured,
            record_batches: false,
        }
    }
}

/// Outcome of one [`ServeLoop::offer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Queued; it will be drained, ticked and measured.
    Accepted,
    /// The target shard's ingress queue was full — rejected without
    /// entering the system (the `OVERLOADED` backpressure reply).
    Overloaded,
}

/// Counters a [`ServeLoop`] maintains (all deterministic under
/// [`ServiceModel::Fixed`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Offers accepted into an ingress queue.
    pub accepted: u64,
    /// Offers rejected because the target shard's queue was at cap —
    /// the distinct queue-full backpressure counter.
    pub rejected_queue_full: u64,
    /// Requests fully served (drained into a tick that completed).
    pub completed: u64,
    /// Ticks the loop ran.
    pub ticks: u64,
    /// Largest single-tick drain (messages, across all shards).
    pub max_batch: usize,
    /// Deepest any ingress queue got.
    pub max_queue_depth: usize,
    /// Largest budget the adaptive controller reached.
    pub budget_peak: usize,
}

/// HDR-style log-bucketed latency histogram: 32 linear sub-buckets per
/// power-of-two magnitude (≈3% relative resolution), fixed footprint,
/// exact counts. Values are nanoseconds.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS; // 32 linear sub-buckets per magnitude

impl Default for LatencyHistogram {
    fn default() -> Self {
        // Highest index bucket_of can produce is for v = u64::MAX:
        // (63 - SUB_BITS + 1) * SUB + (SUB - 1).
        let len = ((64 - SUB_BITS as usize) * SUB as usize) + SUB as usize;
        LatencyHistogram {
            buckets: vec![0; len],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_of(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS
        let shift = msb - SUB_BITS as u64;
        let block = (msb - SUB_BITS as u64 + 1) as usize;
        block * SUB as usize + ((v >> shift) & (SUB - 1)) as usize
    }

    /// Lower bound of the value range bucket `i` covers — what
    /// [`LatencyHistogram::percentile`] reports, so reported quantiles
    /// never exceed the true ones.
    fn bucket_floor(i: usize) -> u64 {
        let block = i / SUB as usize;
        if block == 0 {
            return i as u64;
        }
        let shift = (block - 1) as u32;
        (SUB + (i % SUB as usize) as u64) << shift
    }

    /// Record one latency (ns).
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (exact sum / count; 0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Value at quantile `q ∈ [0, 1]` (e.g. 0.999 for p999): the floor
    /// of the bucket containing the `ceil(q · count)`-th smallest
    /// recorded value; 0 when empty. `q = 1` reports the exact max.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        self.max
    }
}

/// One pending wake-up in the [`TimerWheel`]. Ordered soonest-first
/// (reversed `Ord`, so `BinaryHeap`'s max-heap pops the minimum), ties
/// broken by schedule order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TimerEvent {
    deadline: u64,
    seq: u64,
}

impl Ord for TimerEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for TimerEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of wake-up deadlines (virtual ns). Stale timers are cheap:
/// firing one against empty queues is a no-op, so the loop schedules
/// liberally (one per arrival, one per leftover backlog) and never
/// needs cancellation.
#[derive(Debug, Default)]
struct TimerWheel {
    heap: BinaryHeap<TimerEvent>,
    seq: u64,
}

impl TimerWheel {
    fn schedule(&mut self, deadline: u64) {
        self.seq += 1;
        self.heap.push(TimerEvent {
            deadline,
            seq: self.seq,
        });
    }

    fn peek_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.deadline)
    }

    fn pop(&mut self) -> Option<u64> {
        self.heap.pop().map(|e| e.deadline)
    }
}

/// One queued request.
#[derive(Clone, Debug)]
struct Ingress {
    arrived: u64,
    seq: u64,
    mailbox: String,
    row: Row,
}

/// The adaptive drain-budget controller (see the module docs for the
/// policy). Kept as its own type so its transition function is unit
/// testable without a loop around it.
#[derive(Clone, Copy, Debug)]
pub struct BatchController {
    budget: usize,
    cap: usize,
}

impl BatchController {
    /// Start at budget 1 (tick-per-message under light load).
    pub fn new(cap: usize) -> Self {
        BatchController {
            budget: 1,
            cap: cap.max(1),
        }
    }

    /// Current per-shard drain budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Feed one tick's observation: the largest per-shard drain it took,
    /// whether backlog remained after the drain, and its service time
    /// against the latency target.
    pub fn observe(
        &mut self,
        largest_drain: usize,
        backlog_remains: bool,
        service_ns: u64,
        target_ns: u64,
    ) {
        if service_ns > target_ns {
            // Over target: back off regardless of pressure.
            self.budget = (self.budget / 2).max(1);
        } else if backlog_remains {
            // Under target with queued work left: amortize harder.
            self.budget = (self.budget * 2).min(self.cap);
        } else if largest_drain * 2 <= self.budget {
            // Drained everything at well under budget: decay toward
            // tick-per-message latency.
            self.budget = (self.budget / 2).max(1);
        }
    }
}

/// Estimated wire size of one request payload, for the byte budget:
/// enum footprint plus string/collection heap bytes. An estimate is
/// fine — the budget bounds memory pressure, not exact bytes.
fn row_cost(row: &Row) -> usize {
    fn value_cost(v: &Value) -> usize {
        let base = std::mem::size_of::<Value>();
        match v {
            Value::Str(s) => base + s.len(),
            Value::Tuple(parts) => base + parts.iter().map(value_cost).sum::<usize>(),
            _ => base,
        }
    }
    std::mem::size_of::<Row>() + row.iter().map(value_cost).sum::<usize>()
}

/// The open-loop serving event loop. See the module docs for the full
/// contract; the lifecycle is
/// [`offer`](ServeLoop::offer)* → [`drain`](ServeLoop::drain) →
/// inspect [`stats`](ServeLoop::stats) /
/// [`histogram`](ServeLoop::histogram) /
/// [`take_output`](ServeLoop::take_output).
pub struct ServeLoop<D: ServeDriver> {
    driver: D,
    routing: RoutingSpec,
    cfg: ServeConfig,
    queues: Vec<VecDeque<Ingress>>,
    timers: TimerWheel,
    controller: BatchController,
    /// Virtual clock (ns).
    now: u64,
    /// Virtual time the in-flight tick completes (the server is busy
    /// until then; ≤ `now` means idle).
    busy_until: u64,
    /// Monotone guard on offered timestamps.
    last_offer: u64,
    arrival_seq: u64,
    stats: ServeStats,
    hist: LatencyHistogram,
    collected: TickOutput,
    batch_log: Vec<Vec<(String, Row)>>,
    /// Pooled drain buffer, reused across ticks.
    drain_scratch: Vec<Ingress>,
}

impl<D: ServeDriver> ServeLoop<D> {
    /// Wrap `driver` with ingress queues sized by its shard count.
    /// `routing` must be the spec the driver itself routes by (use
    /// [`RoutingSpec::all_global`] for a single [`crate::interp::Transducer`]) —
    /// the loop uses it only to pick the ingress queue, so a mismatch
    /// costs batching fairness, never correctness.
    pub fn new(driver: D, routing: RoutingSpec, cfg: ServeConfig) -> Self {
        let shards = driver.shard_count().max(1);
        let controller = match cfg.batch {
            BatchPolicy::Fixed(n) => {
                let mut c = BatchController::new(n.max(1));
                c.budget = n.max(1);
                c
            }
            BatchPolicy::Adaptive { cap } => BatchController::new(cap),
        };
        ServeLoop {
            driver,
            routing,
            cfg,
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            timers: TimerWheel::default(),
            controller,
            now: 0,
            busy_until: 0,
            last_offer: 0,
            arrival_seq: 0,
            stats: ServeStats::default(),
            hist: LatencyHistogram::default(),
            collected: TickOutput::default(),
            batch_log: Vec::new(),
            drain_scratch: Vec::new(),
        }
    }

    /// Offer one request with arrival time `t` ns on the virtual clock.
    /// Timestamps must be non-decreasing (an earlier `t` is clamped to
    /// the last one — open-loop generators produce sorted arrivals).
    /// Queue-full rejection is immediate and counted; acceptance only
    /// means *queued* — processing happens as timers fire during later
    /// offers and [`drain`](ServeLoop::drain).
    pub fn offer(
        &mut self,
        t: u64,
        mailbox: &str,
        row: Row,
    ) -> Result<OfferOutcome, TransducerError> {
        let t = t.max(self.last_offer);
        self.last_offer = t;
        // Catch the event loop up to this arrival's time first: ticks
        // whose start time precedes `t` must not include this request.
        self.pump(t)?;
        let shard = self.routing.shard_of(mailbox, &row, self.queues.len());
        let q = &mut self.queues[shard];
        if q.len() >= self.cfg.queue_cap {
            self.stats.rejected_queue_full += 1;
            return Ok(OfferOutcome::Overloaded);
        }
        self.arrival_seq += 1;
        q.push_back(Ingress {
            arrived: t,
            seq: self.arrival_seq,
            mailbox: mailbox.to_string(),
            row,
        });
        self.stats.accepted += 1;
        let depth = q.len();
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
        // Wake-up policy: a queue at budget ticks as soon as the server
        // frees; below budget it waits at most the flush delay. Stale
        // timers are no-ops, so both can be scheduled optimistically.
        if depth >= self.controller.budget() {
            self.timers.schedule(t);
        } else {
            self.timers.schedule(t + self.cfg.flush_delay_ns);
        }
        Ok(OfferOutcome::Accepted)
    }

    /// Advance the virtual clock to `t`, firing any due timers (and the
    /// ticks they trigger). [`offer`](ServeLoop::offer) calls this
    /// implicitly; it is public for drivers that interleave their own
    /// time sources.
    pub fn advance_to(&mut self, t: u64) -> Result<(), TransducerError> {
        self.last_offer = self.last_offer.max(t);
        self.pump(t)
    }

    /// Process everything still queued (end-of-run flush: fires all
    /// remaining timers and keeps ticking until the queues are empty).
    pub fn drain(&mut self) -> Result<(), TransducerError> {
        self.pump(u64::MAX)?;
        // Belt and braces: pump fires every scheduled timer, and every
        // queued request had one scheduled, so this loop should find
        // nothing — but the loop must *never* strand accepted requests.
        while self.queues.iter().any(|q| !q.is_empty()) {
            let start = self.now.max(self.busy_until);
            self.try_tick(start)?;
        }
        Ok(())
    }

    /// Fire timers due at or before `until`. A due timer triggers a tick
    /// only when the server is free by `until` too — otherwise the timer
    /// stays armed, because arrivals between `until` and the server
    /// freeing belong in that batch.
    fn pump(&mut self, until: u64) -> Result<(), TransducerError> {
        while let Some(deadline) = self.timers.peek_deadline() {
            if deadline > until {
                break;
            }
            let start = deadline.max(self.busy_until);
            if start > until {
                break;
            }
            self.timers.pop();
            self.try_tick(start)?;
        }
        self.now = self.now.max(until.min(self.last_offer));
        Ok(())
    }

    /// Attempt one tick at virtual time `start`: drain eligible requests
    /// (arrived ≤ `start`) up to the per-shard message/byte budgets, run
    /// the driver, charge service time, record latencies. A no-op if
    /// nothing is eligible (stale timer).
    fn try_tick(&mut self, start: u64) -> Result<(), TransducerError> {
        let budget = self.controller.budget();
        let mut drained = std::mem::take(&mut self.drain_scratch);
        drained.clear();
        let mut largest_drain = 0usize;
        for q in &mut self.queues {
            let mut taken = 0usize;
            let mut bytes = 0usize;
            while taken < budget {
                let Some(front) = q.front() else { break };
                if front.arrived > start {
                    break;
                }
                let cost = row_cost(&front.row);
                if taken > 0 && bytes + cost > self.cfg.batch_bytes {
                    break;
                }
                bytes += cost;
                taken += 1;
                drained.push(q.pop_front().expect("front just peeked"));
            }
            largest_drain = largest_drain.max(taken);
        }
        if drained.is_empty() {
            self.drain_scratch = drained;
            return Ok(());
        }
        // Enqueue in global arrival order — the driver assigns message
        // ids sequentially, so ids correlate with arrival order exactly
        // as a serial reference fed the same batches would.
        drained.sort_unstable_by_key(|i| i.seq);
        self.now = self.now.max(start);
        if self.cfg.record_batches {
            self.batch_log.push(
                drained
                    .iter()
                    .map(|i| (i.mailbox.clone(), i.row.clone()))
                    .collect(),
            );
        }
        let wall = std::time::Instant::now();
        for ing in &drained {
            self.driver.enqueue(&ing.mailbox, ing.row.clone())?;
        }
        let out = self.driver.tick()?;
        let service = match self.cfg.service {
            ServiceModel::Measured => (wall.elapsed().as_nanos() as u64).max(1),
            ServiceModel::Fixed {
                tick_ns,
                per_msg_ns,
            } => tick_ns + per_msg_ns * drained.len() as u64,
        };
        self.busy_until = start + service;
        self.now = self.busy_until;
        for ing in &drained {
            self.hist.record(self.busy_until - ing.arrived);
        }
        self.stats.completed += drained.len() as u64;
        self.stats.ticks += 1;
        self.stats.max_batch = self.stats.max_batch.max(drained.len());
        self.collected.responses.extend(out.responses);
        self.collected.sends.extend(out.sends);
        self.collected.warnings.extend(out.warnings);
        self.collected.messages_processed += out.messages_processed;
        if let BatchPolicy::Adaptive { .. } = self.cfg.batch {
            let backlog = self.queues.iter().any(|q| !q.is_empty());
            self.controller.observe(
                largest_drain,
                backlog,
                service,
                self.cfg.latency_target_ns,
            );
        }
        self.stats.budget_peak = self.stats.budget_peak.max(self.controller.budget());
        // Leftover backlog: the server restarts the moment it frees.
        if self.queues.iter().any(|q| !q.is_empty()) {
            self.timers.schedule(self.busy_until);
        }
        drained.clear();
        self.drain_scratch = drained;
        Ok(())
    }

    /// Counters so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Current adaptive budget.
    pub fn budget(&self) -> usize {
        self.controller.budget()
    }

    /// The enqueue→reply latency histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Current virtual time (ns).
    pub fn virtual_now(&self) -> u64 {
        self.now
    }

    /// Take the accumulated outputs of every tick so far (responses,
    /// sends, warnings, in emission order).
    pub fn take_output(&mut self) -> TickOutput {
        std::mem::take(&mut self.collected)
    }

    /// Take the recorded batch boundaries
    /// ([`ServeConfig::record_batches`]): one `Vec<(mailbox, row)>` per
    /// tick, in the exact order the driver saw them.
    pub fn take_batch_log(&mut self) -> Vec<Vec<(String, Row)>> {
        std::mem::take(&mut self.batch_log)
    }

    /// Read access to the wrapped driver (between ticks).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Unwrap the driver (e.g. to re-wrap the same preloaded state under
    /// a different serving configuration).
    pub fn into_inner(self) -> D {
        self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_floor_inverts() {
        let mut last = 0usize;
        for v in [0u64, 1, 5, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, u64::MAX] {
            let b = LatencyHistogram::bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            let floor = LatencyHistogram::bucket_floor(b);
            assert!(floor <= v, "floor {floor} above value {v}");
            // Floor is inside the same bucket.
            assert_eq!(LatencyHistogram::bucket_of(floor), b, "floor left bucket at {v}");
        }
    }

    #[test]
    fn histogram_percentiles_bracket_known_data() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs..1ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        // ~3% bucket resolution around the true quantiles.
        assert!((480_000..=500_000).contains(&p50), "p50={p50}");
        assert!((950_000..=990_000).contains(&p99), "p99={p99}");
        assert_eq!(h.percentile(1.0), 1_000_000);
        assert!(h.mean() > 480_000 && h.mean() < 520_000);
    }

    #[test]
    fn timer_wheel_pops_soonest_first_fifo_on_ties() {
        let mut w = TimerWheel::default();
        w.schedule(30);
        w.schedule(10);
        w.schedule(20);
        w.schedule(10);
        assert_eq!(w.pop(), Some(10));
        assert_eq!(w.pop(), Some(10));
        assert_eq!(w.pop(), Some(20));
        assert_eq!(w.pop(), Some(30));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn controller_grows_under_pressure_shrinks_over_target() {
        let mut c = BatchController::new(64);
        assert_eq!(c.budget(), 1);
        // Backlog + under target: doubles to the cap.
        for _ in 0..10 {
            c.observe(c.budget(), true, 100, 1000);
        }
        assert_eq!(c.budget(), 64);
        // Service blows the target: halves regardless of backlog.
        c.observe(64, true, 5000, 1000);
        assert_eq!(c.budget(), 32);
        // Light load (small drains, no backlog): decays back to 1.
        for _ in 0..10 {
            c.observe(1, false, 100, 1000);
        }
        assert_eq!(c.budget(), 1);
    }

    #[test]
    fn row_cost_counts_string_heap_bytes() {
        let small = row_cost(&vec![Value::Int(1)]);
        let big = row_cost(&vec![Value::Str("x".repeat(100))]);
        assert!(big >= small + 100);
    }
}
