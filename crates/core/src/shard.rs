//! Key-partitioned scale-out: N shards of one [`ProgramCore`].
//!
//! The paper's compiler is meant to choose *distribution*, not just
//! evaluation order (§4–5): a Hydrologic program whose handlers only ever
//! touch state keyed by one of their parameters can be split across
//! machines, with the runtime hash-routing each message to the shard that
//! owns its key. [`ShardedTransducer`] is that runtime for one process:
//!
//! * every shard is a full [`Transducer`] instantiated from the **same
//!   shared [`ProgramCore`]** (compilation happens once — the
//!   core/instance split in [`crate::interp`] exists for exactly this);
//! * a [`RoutingSpec`] — produced by `hydro-analysis`'s key-partition
//!   analysis, or written by hand — maps each mailbox to a [`Route`]:
//!   hash-partitioned by one message parameter, or pinned to shard 0
//!   (the *global* shard, where non-partitionable state lives);
//! * [`ShardedTransducer::enqueue`] assigns globally sequential message
//!   ids (so responses correlate exactly as a single transducer's would)
//!   and routes by [`partition_hash`] of the routing parameter;
//! * [`ShardedTransducer::tick`] ticks every shard — untouched shards
//!   no-op in microseconds thanks to cross-tick incremental maintenance —
//!   and merges the per-shard [`TickOutput`]s deterministically: responses
//!   are interleaved per handler in message-id order and sends per handler
//!   in source-message-id order off their recorded provenance — both
//!   reconstruct the exact single-node emission order — while warnings
//!   concatenate in shard order;
//! * [`ShardedTransducer::run_to_quiescence`] rewrites cross-shard `send`
//!   effects into routed re-enqueues: a send whose destination mailbox is
//!   local to the program goes back through the router, landing on the
//!   shard that owns the destination key.
//!
//! Condition-triggered handlers run only on shard 0 (see
//! [`Transducer::set_run_condition_handlers`]): they read global state,
//! and firing them per-shard would duplicate their effects.
//!
//! **Delta exchange.** A routing spec may carry an [`ExchangeSpec`]
//! (lowered by the partition analysis): views the analysis classified
//! `NeedsExchange` — joins/aggregations over partitioned tables — execute
//! *partitioned* instead of demoting their source tables to the global
//! shard. Non-gather shards keep owning their table slices but **ship
//! each tick's net row deltas** ([`Transducer::exchange_delta`], a
//! sorted, final-value fold of the same first-touch effect journal the
//! recovery log uses) to the gather shard (shard 0) at the tick barrier;
//! shard 0 folds them into a foreign mirror
//! ([`Transducer::apply_exchange_delta`]) and evaluates the gather views
//! over local + foreign rows, while the other shards skip those view
//! heads entirely. Because single-node handlers read the *tick-start
//! snapshot* (= end of the previous tick), barrier-shipped foreign rows
//! are observationally indistinguishable from local ones for every
//! consumer the analysis admits — it only plans an exchange when all
//! global consumption of the affected relations is order-insensitive
//! (aggregates, membership, keyed lookups), never ordered row iteration,
//! keyed writes, serialized mid-tick reads, or UDF-bearing views (those
//! still demote; see `hydro_analysis::partition`'s module docs).
//!
//! **Soundness contract.** The driver is exactly as correct as its
//! routing spec. If every handler routed `ByParam(p)` touches only table
//! rows keyed by a pure function of parameter `p` (and no scalars, whole
//! relations, or UDFs), then table contents partition disjointly across
//! shards, per-shard execution observes exactly what single-node
//! execution would, and [`ShardedTransducer::merged_state`] equals the
//! single transducer's state — this is what the differential suite pins
//! for the analysis-produced specs, including the `shards = 1` case,
//! which must be (and is) bit-identical. An unsound hand-written spec
//! silently degrades to "eventually inconsistent sharding"; use the
//! analysis.
//!
//! **Two drivers, one semantics.** [`ShardedTransducer`] ticks its shards
//! sequentially on the calling thread — the minimal-moving-parts
//! reference, whose scale-out win (experiment E16) is *work isolation*: a
//! tick only pays recompute/journal costs on the shards its messages
//! touch. [`ParallelShardedTransducer`] runs the same shards as **one OS
//! worker thread each**, fed per-shard bounded inboxes by a router
//! thread, all sharing the one compiled `Arc<ProgramCore>`; a tick
//! broadcasts through the router, workers tick concurrently, and the
//! coordinator buckets results *by shard index* before running the same
//! deterministic merge — so thread completion order never reaches an
//! observable output, and the parallel driver is bit-identical to the
//! serial one (and hence to the single transducer) by construction. The
//! per-shard inbox FIFO carries ordering end-to-end: enqueues precede the
//! tick that consumes them, and exchange deltas forwarded after tick `T`
//! land on shard 0 before the tick `T+1` broadcast. Experiment E18
//! measures the added multicore scaling on the E16 workload.

use crate::eval::Row;
use crate::interp::{
    ExchangeDelta, ProgramCore, State, TickOutput, Transducer, TransducerError,
};
use crate::value::Value;
use crossbeam::channel;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How messages to one mailbox are distributed across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Hash-partition by the message parameter at this index: the message
    /// goes to shard `partition_hash(row[i]) % shards`.
    ByParam(usize),
    /// Pin to shard 0, the global shard (non-partitionable handlers,
    /// declared mailboxes, condition-handler state).
    Global,
}

/// The delta-exchange plan for one sharded deployment: which partitioned
/// tables ship their per-tick deltas to the gather shard, and which view
/// heads only the gather shard evaluates. Lowered by the partition
/// analysis (`hydro_analysis::partition`); an empty spec means no
/// exchange — PR 4's demote-to-global behavior.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExchangeSpec {
    /// Partitioned tables whose net row changes non-gather shards export
    /// at every tick barrier ([`Transducer::set_exchange_tables`]).
    pub ship_tables: BTreeSet<String>,
    /// View heads computed only on the gather shard, over local + shipped
    /// foreign rows; other shards skip them
    /// ([`Transducer::set_skip_view_heads`]).
    pub gather_views: BTreeSet<String>,
}

impl ExchangeSpec {
    /// Whether this spec plans no exchange at all.
    pub fn is_empty(&self) -> bool {
        self.ship_tables.is_empty()
    }
}

/// Mailbox → [`Route`] map for one program. Mailboxes absent from the map
/// route [`Route::Global`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingSpec {
    /// Per-mailbox routes.
    pub routes: BTreeMap<String, Route>,
    /// The delta-exchange plan (empty = none).
    pub exchange: ExchangeSpec,
}

impl RoutingSpec {
    /// The degenerate spec: everything on shard 0. Always sound.
    pub fn all_global() -> Self {
        RoutingSpec::default()
    }

    /// Builder-style route registration.
    pub fn with_route(mut self, mailbox: &str, route: Route) -> Self {
        self.routes.insert(mailbox.to_string(), route);
        self
    }

    /// The shard a message to `mailbox` with payload `row` belongs to.
    /// A routing parameter out of range (an arity-mismatched message)
    /// falls back to the global shard rather than erroring: arity is
    /// checked where messages enter — the drivers' and the transducer's
    /// `enqueue` refuse such a row with `TransducerError::MessageArity`
    /// before routing it — so this function stays total.
    pub fn shard_of(&self, mailbox: &str, row: &Row, shards: usize) -> usize {
        match self.routes.get(mailbox) {
            Some(Route::ByParam(p)) if *p < row.len() => {
                (partition_hash(&row[*p]) % shards as u64) as usize
            }
            _ => 0,
        }
    }
}

/// Deterministic partition hash of one routing value. Tuples hash as
/// their elements — matching how key expressions spread tuple values into
/// multi-column storage keys — so a tuple-valued routing parameter and
/// the key row it produces agree on a shard.
pub fn partition_hash(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = rustc_hash::FxHasher::default();
    match v {
        Value::Tuple(parts) => {
            for p in parts {
                p.hash(&mut h);
            }
        }
        other => other.hash(&mut h),
    }
    h.finish()
}

/// N key-partitioned shards of one program, driven in lockstep. See the
/// module docs for the routing/merging contract.
pub struct ShardedTransducer {
    core: Arc<ProgramCore>,
    routing: RoutingSpec,
    shards: Vec<Transducer>,
    next_msg_id: u64,
    merge_scratch: MergeScratch,
}

impl ShardedTransducer {
    /// Compile `program` once and instantiate `shards` partitions of it.
    /// `shards` must be at least 1; shard 0 is the global shard.
    pub fn new(
        program: crate::ast::Program,
        routing: RoutingSpec,
        shards: usize,
    ) -> Result<Self, TransducerError> {
        Ok(Self::from_core(ProgramCore::new(program)?, routing, shards))
    }

    /// Instantiate over an already-compiled core.
    pub fn from_core(core: Arc<ProgramCore>, routing: RoutingSpec, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded transducer needs at least one shard");
        let shards = (0..shards)
            .map(|i| configure_shard(&core, i, shards, &routing.exchange))
            .collect();
        ShardedTransducer {
            core,
            routing,
            shards,
            next_msg_id: 1,
            merge_scratch: MergeScratch::default(),
        }
    }

    /// Run `setup` once per shard — how UDF implementations are bound
    /// (each shard gets its own instance, mirroring per-replica
    /// registration in `hydro-deploy`).
    pub fn register_udfs(&mut self, setup: impl Fn(&mut Transducer)) {
        for s in &mut self.shards {
            setup(s);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard (between ticks).
    pub fn shard(&self, i: usize) -> &Transducer {
        &self.shards[i]
    }

    /// The shared compiled core.
    pub fn core(&self) -> &Arc<ProgramCore> {
        &self.core
    }

    /// The routing spec in force.
    pub fn routing(&self) -> &RoutingSpec {
        &self.routing
    }

    /// Enqueue a message, hash-routing it to its owning shard; returns the
    /// globally sequential message id (identical to what a single
    /// transducer would have assigned).
    pub fn enqueue(&mut self, mailbox: &str, row: Row) -> Result<u64, TransducerError> {
        self.core.admit(mailbox, &row)?;
        let shard = self.routing.shard_of(mailbox, &row, self.shards.len());
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.shards[shard].enqueue_with_id(id, mailbox, row)?;
        Ok(id)
    }

    /// Enqueue, panicking on unknown mailbox — for tests and examples.
    pub fn enqueue_ok(&mut self, mailbox: &str, row: Row) -> u64 {
        self.enqueue(mailbox, row).expect("known mailbox")
    }

    /// Messages pending for a mailbox, summed across shards.
    pub fn pending(&self, mailbox: &str) -> usize {
        self.shards.iter().map(|s| s.pending(mailbox)).sum()
    }

    /// Total messages pending across all shards and mailboxes.
    pub fn pending_total(&self) -> usize {
        self.shards.iter().map(Transducer::pending_total).sum()
    }

    /// Execute one tick on every shard, ship exchange deltas to the
    /// gather shard, and merge the outputs. On an evaluation error the
    /// first failing shard's error is returned (shards before it have
    /// already ticked; like a single transducer after an error, the
    /// instance should be considered poisoned).
    pub fn tick(&mut self) -> Result<TickOutput, TransducerError> {
        let mut outs = Vec::with_capacity(self.shards.len());
        for s in &mut self.shards {
            outs.push(s.tick()?);
        }
        // Tick barrier: every shard has committed this tick; ship the net
        // deltas of exchange tables to the gather shard, in shard order
        // (shard partitions are key-disjoint, so the order is cosmetic —
        // it just keeps the journal deterministic). The exported fold
        // reads the effect journal *before* the next tick drains it.
        if !self.routing.exchange.is_empty() {
            for i in 1..self.shards.len() {
                let delta = self.shards[i].exchange_delta();
                if !delta.is_empty() {
                    self.shards[0].apply_exchange_delta(delta);
                }
            }
        }
        Ok(merge_tick_outputs(&self.core, outs, &mut self.merge_scratch))
    }

    /// The union of all shards' states: partitioned tables are disjoint
    /// across shards, global tables live only on shard 0, and scalars are
    /// written only on shard 0 (under a sound routing spec) — so the
    /// merge is shard 0's state plus every other shard's table rows.
    /// (Shard 0's exchange-received *foreign mirror* is deliberately not
    /// part of [`State`]: the owning shards' rows are the authority.)
    pub fn merged_state(&self) -> State {
        merge_states(self.shards.iter().map(|s| s.state().clone()).collect())
    }
}

/// Instantiate and configure one shard over the shared core: condition
/// handlers only on shard 0; exchange export + gather-view skip on every
/// non-gather shard of a multi-shard, exchange-planned deployment. Shared
/// by the serial driver (shards built inline) and the parallel driver
/// (each worker builds its shard on its own thread — [`Transducer`] is
/// deliberately not `Send`, its scan caches and UDF closures are
/// thread-local by design).
fn configure_shard(
    core: &Arc<ProgramCore>,
    index: usize,
    shards: usize,
    exchange: &ExchangeSpec,
) -> Transducer {
    let mut t = Transducer::from_core(Arc::clone(core));
    if index > 0 {
        t.set_run_condition_handlers(false);
        if shards > 1 && !exchange.is_empty() {
            t.set_exchange_tables(exchange.ship_tables.iter().cloned());
            t.set_skip_view_heads(exchange.gather_views.iter().cloned());
        }
    }
    t
}

/// Merge per-shard states, `states[0]` being the global/gather shard (see
/// [`ShardedTransducer::merged_state`]).
fn merge_states(mut states: Vec<State>) -> State {
    let mut state = states.remove(0);
    for s in states {
        for (table, rows) in s.tables {
            let slot = state.tables.entry(table).or_default();
            for (k, row) in rows {
                slot.insert(k, row);
            }
        }
    }
    state
}

/// Pooled scratch for [`merge_tick_outputs`]: the handler × shard bucket
/// vectors and the handler-name index, owned by each sharded driver and
/// reused across ticks. Buckets hold `u32` *indices* into the per-shard
/// outputs rather than borrows, so the scratch has no lifetime tie to any
/// one tick and a steady-state merge allocates nothing (the serving loop
/// merges once per micro-batch tick — this was the top per-tick
/// allocation hot spot at batch=1).
#[derive(Default)]
struct MergeScratch {
    /// handler → shard → indices into that shard's `responses`.
    resp: Vec<Vec<Vec<u32>>>,
    /// handler → shard → indices into that shard's `sends`.
    send: Vec<Vec<Vec<u32>>>,
    /// Handler name → program-order index, built on first use (the
    /// handler set is fixed per core).
    handler_idx: rustc_hash::FxHashMap<String, usize>,
}

impl MergeScratch {
    /// Size the buckets for this tick's shape and clear them in place
    /// (inner vectors keep their capacity).
    fn reset(&mut self, core: &ProgramCore, shards: usize) {
        let handlers = &core.program().handlers;
        if self.handler_idx.is_empty() {
            for (i, h) in handlers.iter().enumerate() {
                self.handler_idx.insert(h.name.clone(), i);
            }
        }
        for buckets in [&mut self.resp, &mut self.send] {
            buckets.resize_with(handlers.len(), Vec::new);
            for per_shard in buckets.iter_mut() {
                per_shard.resize_with(shards, Vec::new);
                for idxs in per_shard.iter_mut() {
                    idxs.clear();
                }
            }
        }
    }
}

/// Deterministically merge per-shard tick outputs, `outs` in shard order
/// (see the module docs). Shared by the serial and parallel drivers —
/// bit-identical merging is the whole determinism story, so there is
/// exactly one implementation.
fn merge_tick_outputs(
    core: &ProgramCore,
    outs: Vec<TickOutput>,
    scratch: &mut MergeScratch,
) -> TickOutput {
    let mut merged = TickOutput {
        messages_processed: outs.iter().map(|o| o.messages_processed).sum(),
        ..TickOutput::default()
    };
    scratch.reset(core, outs.len());
    // Responses: the single-node order is (handler in program order,
    // then message id). Each shard already emits that order over its
    // message subset, so bucketing every response by handler in one
    // pass and then merging each handler's per-shard runs by leading
    // message id reconstructs it exactly; responses of one message
    // stay contiguous (they come from a single shard).
    for (shard, out) in outs.iter().enumerate() {
        debug_assert!(out.responses.len() < u32::MAX as usize);
        for (i, r) in out.responses.iter().enumerate() {
            let hi = scratch.handler_idx[r.handler.as_str()];
            scratch.resp[hi][shard].push(i as u32);
        }
    }
    for per_shard in &scratch.resp {
        let mut runs: Vec<std::iter::Peekable<std::slice::Iter<'_, u32>>> =
            per_shard.iter().map(|idxs| idxs.iter().peekable()).collect();
        loop {
            let next = runs
                .iter_mut()
                .enumerate()
                .filter_map(|(i, it)| {
                    it.peek()
                        .map(|&&idx| (outs[i].responses[idx as usize].message_id, i))
                })
                .min();
            let Some((id, i)) = next else { break };
            while let Some(&&idx) = runs[i].peek() {
                let r = &outs[i].responses[idx as usize];
                if r.message_id != id {
                    break;
                }
                merged.responses.push(r.clone());
                runs[i].next();
            }
        }
    }
    // Sends: same reconstruction, keyed by the producing invocation's
    // provenance ([`crate::interp::SendOut::handler`] +
    // [`crate::interp::SendOut::source_msg`]). Each shard emits its
    // sends in (handler program order, message id, statement order);
    // bucketing by handler and merging each handler's per-shard runs
    // by source message id — keeping one invocation's sends contiguous
    // — is exactly the single-node emission order. Condition-handler
    // sends (source id 0) only ever come from shard 0, so they can't
    // collide across runs.
    for (shard, out) in outs.iter().enumerate() {
        debug_assert!(out.sends.len() < u32::MAX as usize);
        for (i, s) in out.sends.iter().enumerate() {
            let hi = scratch.handler_idx[s.handler.as_str()];
            scratch.send[hi][shard].push(i as u32);
        }
    }
    for per_shard in &scratch.send {
        let mut runs: Vec<std::iter::Peekable<std::slice::Iter<'_, u32>>> =
            per_shard.iter().map(|idxs| idxs.iter().peekable()).collect();
        loop {
            let next = runs
                .iter_mut()
                .enumerate()
                .filter_map(|(i, it)| {
                    it.peek()
                        .map(|&&idx| (outs[i].sends[idx as usize].source_msg, i))
                })
                .min();
            let Some((id, i)) = next else { break };
            while let Some(&&idx) = runs[i].peek() {
                let s = &outs[i].sends[idx as usize];
                if s.source_msg != id {
                    break;
                }
                merged.sends.push(s.clone());
                runs[i].next();
            }
        }
    }
    for out in outs {
        merged.warnings.extend(out.warnings);
    }
    merged
}

impl ShardedTransducer {
    /// Read a scalar (scalars are global: shard 0 owns them).
    pub fn scalar(&self, name: &str) -> Option<&Value> {
        self.shards[0].scalar(name)
    }

    /// Read a table row by key, wherever its shard is.
    pub fn row(&self, table: &str, key: &[Value]) -> Option<&Row> {
        self.shards.iter().find_map(|s| s.row(table, key))
    }

    /// Total rows of a table across shards.
    pub fn table_len(&self, table: &str) -> usize {
        self.shards.iter().map(|s| s.table_len(table)).sum()
    }

    /// Ticks executed so far (shards run in lockstep).
    pub fn tick_no(&self) -> u64 {
        self.shards[0].tick_no()
    }

    /// Convenience driver mirroring [`Transducer::run_to_quiescence`]:
    /// repeatedly tick, re-routing any sends whose mailbox exists locally
    /// through the partition router (the "cross-shard send → routed
    /// re-enqueue" rewrite). External sends accumulate in the returned
    /// output. Stops when quiescent or after `max_ticks`.
    ///
    /// Because [`Self::tick`] merges sends in exact single-node emission
    /// order (via [`crate::interp::SendOut`] provenance), the re-enqueues
    /// here assign the same message ids a single transducer's
    /// `run_to_quiescence` would — cross-shard message cascades replay the
    /// single-node interleaving exactly, not just as a multiset.
    pub fn run_to_quiescence(&mut self, max_ticks: usize) -> Result<TickOutput, TransducerError> {
        let mut all = TickOutput::default();
        for _ in 0..max_ticks {
            if self.pending_total() == 0 {
                break;
            }
            let out = self.tick()?;
            all.responses.extend(out.responses);
            all.warnings.extend(out.warnings);
            all.messages_processed += out.messages_processed;
            for send in out.sends {
                if self.core.has_mailbox(&send.mailbox) {
                    self.enqueue(&send.mailbox, send.row)?;
                } else {
                    all.sends.push(send);
                }
            }
        }
        Ok(all)
    }
}

// ---- the parallel driver -----------------------------------------------

/// How the coordinator's UDF registration closure travels to every worker
/// thread (each worker applies it to its own shard instance).
type UdfSetup = Arc<dyn Fn(&mut Transducer) + Send + Sync>;

/// One instruction to a shard worker. Everything a worker does arrives
/// through its inbox in FIFO order — that single queue *is* the ordering
/// contract: enqueues precede the tick that consumes them, exchange
/// deltas from tick `T` precede the tick `T+1` broadcast.
#[derive(Clone)]
enum WorkerCmd {
    /// A routed message under its coordinator-assigned global id.
    Enqueue { id: u64, mailbox: String, row: Row },
    /// Run one tick and report a [`WorkerDone`].
    Tick,
    /// Fold another shard's exchange delta (gather shard only).
    ApplyExchange(ExchangeDelta),
    /// Reply with `(shard index, state clone)` on the given channel.
    Snapshot(channel::Sender<(usize, State)>),
    /// Apply the UDF registration closure to this shard.
    Udfs(UdfSetup),
    /// Exit the worker loop.
    Shutdown,
}

/// One instruction to the router thread, which owns the [`RoutingSpec`]
/// and the per-shard inbox senders.
enum RouterCmd {
    /// Hash-route a message to its owning shard's inbox.
    Route { id: u64, mailbox: String, row: Row },
    /// Forward a command to one shard's inbox.
    ToShard { shard: usize, cmd: WorkerCmd },
    /// Clone a command into every shard's inbox.
    Broadcast(WorkerCmd),
}

/// A worker's report after one tick.
struct WorkerDone {
    shard: usize,
    result: Result<TickOutput, TransducerError>,
    /// Messages left pending on this shard after the tick.
    pending: usize,
    /// This shard's exchange export for the tick (empty off non-exchange
    /// configurations and on the gather shard).
    exchange: ExchangeDelta,
}

/// Per-shard inbox capacity. Bounded so a fast coordinator/router cannot
/// run unboundedly ahead of a slow worker — `send` blocks, applying
/// backpressure upstream.
const INBOX_CAP: usize = 4096;

/// [`ShardedTransducer`]'s semantics on worker threads: one OS thread per
/// shard plus a router thread, communicating over bounded channels. See
/// the module docs for the architecture and the determinism argument; the
/// differential suite pins bit-identity against the serial driver and the
/// single transducer, and `scripts/ci.sh` double-runs it as a race
/// tripwire.
///
/// The API mirrors the serial driver where it can. The one structural
/// difference: shards live on their worker threads ([`Transducer`] is not
/// `Send`), so there is no `shard(i)` accessor — state inspection goes
/// through [`ParallelShardedTransducer::merged_state`], which snapshots
/// every worker over a reply channel.
pub struct ParallelShardedTransducer {
    core: Arc<ProgramCore>,
    shards: usize,
    next_msg_id: u64,
    tick_no: u64,
    router_tx: Option<channel::Sender<RouterCmd>>,
    done_rx: channel::Receiver<WorkerDone>,
    router: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Pending-message count each shard reported after its last tick.
    last_pending: Vec<usize>,
    /// Messages routed since the last tick (they drain at the next one).
    enqueued_since: usize,
    merge_scratch: MergeScratch,
}

impl ParallelShardedTransducer {
    /// Compile `program` once and spawn `shards` worker threads plus the
    /// router. Shard 0 is the global/gather shard.
    pub fn new(
        program: crate::ast::Program,
        routing: RoutingSpec,
        shards: usize,
    ) -> Result<Self, TransducerError> {
        Ok(Self::from_core(ProgramCore::new(program)?, routing, shards))
    }

    /// Spawn over an already-compiled core. Each worker constructs its
    /// shard *on its own thread* (the instance never crosses threads) via
    /// the same [`configure_shard`] the serial driver uses.
    pub fn from_core(core: Arc<ProgramCore>, routing: RoutingSpec, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded transducer needs at least one shard");
        let (done_tx, done_rx) = channel::unbounded();
        let mut inboxes = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = channel::bounded(INBOX_CAP);
            inboxes.push(tx);
            let core = Arc::clone(&core);
            let done_tx = done_tx.clone();
            let exchange = routing.exchange.clone();
            let handle = std::thread::Builder::new()
                .name(format!("hydro-shard-{i}"))
                .spawn(move || worker_loop(core, i, shards, exchange, rx, done_tx))
                .expect("spawn shard worker thread");
            workers.push(handle);
        }
        let (router_tx, router_rx) = channel::bounded::<RouterCmd>(INBOX_CAP);
        let router = std::thread::Builder::new()
            .name("hydro-router".into())
            .spawn(move || router_loop(router_rx, inboxes, routing, shards))
            .expect("spawn shard router thread");
        ParallelShardedTransducer {
            core,
            shards,
            next_msg_id: 1,
            tick_no: 0,
            router_tx: Some(router_tx),
            done_rx,
            router: Some(router),
            workers,
            last_pending: vec![0; shards],
            enqueued_since: 0,
            merge_scratch: MergeScratch::default(),
        }
    }

    /// Broadcast the UDF registration closure; every worker applies it to
    /// its own shard instance (mirroring the serial driver's
    /// [`ShardedTransducer::register_udfs`], with the `Send + Sync`
    /// bounds crossing threads requires).
    pub fn register_udfs(&mut self, setup: impl Fn(&mut Transducer) + Send + Sync + 'static) {
        self.send_router(RouterCmd::Broadcast(WorkerCmd::Udfs(Arc::new(setup))));
    }

    /// Number of shards (= worker threads).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shared compiled core.
    pub fn core(&self) -> &Arc<ProgramCore> {
        &self.core
    }

    /// Enqueue a message: assign the globally sequential id here (ids are
    /// the merge key, the coordinator must own them) and hand the routing
    /// decision to the router thread.
    pub fn enqueue(&mut self, mailbox: &str, row: Row) -> Result<u64, TransducerError> {
        self.core.admit(mailbox, &row)?;
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.enqueued_since += 1;
        self.send_router(RouterCmd::Route {
            id,
            mailbox: mailbox.to_string(),
            row,
        });
        Ok(id)
    }

    /// Enqueue, panicking on unknown mailbox — for tests and examples.
    pub fn enqueue_ok(&mut self, mailbox: &str, row: Row) -> u64 {
        self.enqueue(mailbox, row).expect("known mailbox")
    }

    /// Total messages pending across all shards: what the workers
    /// reported after their last tick, plus everything routed since
    /// (inbox FIFO guarantees those are consumed by the next tick).
    pub fn pending_total(&self) -> usize {
        self.last_pending.iter().sum::<usize>() + self.enqueued_since
    }

    /// Ticks executed so far (shards run in lockstep).
    pub fn tick_no(&self) -> u64 {
        self.tick_no
    }

    /// Execute one tick on every shard *concurrently* and merge the
    /// outputs deterministically: broadcast `Tick`, collect one
    /// [`WorkerDone`] per shard in whatever order threads finish, bucket
    /// by shard index, then run the same merge as the serial driver —
    /// completion order never reaches an observable output. Exchange
    /// deltas are forwarded to the gather shard after all workers report
    /// (the tick barrier); per-inbox FIFO applies them before the next
    /// tick. On evaluation errors the lowest-numbered failing shard's
    /// error is returned, matching the serial driver's first-error
    /// semantics.
    pub fn tick(&mut self) -> Result<TickOutput, TransducerError> {
        self.tick_no += 1;
        self.enqueued_since = 0;
        self.send_router(RouterCmd::Broadcast(WorkerCmd::Tick));
        let mut outs: Vec<Option<TickOutput>> = (0..self.shards).map(|_| None).collect();
        let mut exchanges: Vec<ExchangeDelta> = vec![ExchangeDelta::new(); self.shards];
        let mut first_err: Option<(usize, TransducerError)> = None;
        for _ in 0..self.shards {
            let done = self
                .done_rx
                .recv()
                .unwrap_or_else(|_| panic!("shard worker disconnected mid-tick"));
            self.last_pending[done.shard] = done.pending;
            exchanges[done.shard] = done.exchange;
            match done.result {
                Ok(out) => outs[done.shard] = Some(out),
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(s, _)| done.shard < *s) {
                        first_err = Some((done.shard, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        for delta in exchanges.into_iter().skip(1) {
            if !delta.is_empty() {
                self.send_router(RouterCmd::ToShard {
                    shard: 0,
                    cmd: WorkerCmd::ApplyExchange(delta),
                });
            }
        }
        let outs: Vec<TickOutput> = outs
            .into_iter()
            .map(|o| o.expect("every shard reported exactly once"))
            .collect();
        Ok(merge_tick_outputs(&self.core, outs, &mut self.merge_scratch))
    }

    /// Snapshot and merge every shard's state (see
    /// [`ShardedTransducer::merged_state`] for the merge rule). Workers
    /// reply with clones over a bounded channel; per-inbox FIFO means the
    /// snapshot reflects everything sent before this call.
    pub fn merged_state(&self) -> State {
        let (tx, rx) = channel::bounded::<(usize, State)>(self.shards);
        self.send_router(RouterCmd::Broadcast(WorkerCmd::Snapshot(tx)));
        let mut states: Vec<Option<State>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            let (i, s) = rx.recv().expect("shard worker disconnected mid-snapshot");
            states[i] = Some(s);
        }
        merge_states(
            states
                .into_iter()
                .map(|s| s.expect("every shard replied"))
                .collect(),
        )
    }

    /// Read a scalar through a snapshot (scalars are global: shard 0 owns
    /// them). For between-tick inspection; costs a state clone.
    pub fn scalar(&self, name: &str) -> Option<Value> {
        let (tx, rx) = channel::bounded::<(usize, State)>(1);
        self.send_router(RouterCmd::ToShard {
            shard: 0,
            cmd: WorkerCmd::Snapshot(tx),
        });
        let (_, s) = rx.recv().expect("shard worker disconnected mid-snapshot");
        s.scalars.get(name).cloned()
    }

    /// Convenience driver mirroring
    /// [`ShardedTransducer::run_to_quiescence`]: repeatedly tick,
    /// re-routing sends whose mailbox exists locally; external sends
    /// accumulate in the returned output.
    pub fn run_to_quiescence(&mut self, max_ticks: usize) -> Result<TickOutput, TransducerError> {
        let mut all = TickOutput::default();
        for _ in 0..max_ticks {
            if self.pending_total() == 0 {
                break;
            }
            let out = self.tick()?;
            all.responses.extend(out.responses);
            all.warnings.extend(out.warnings);
            all.messages_processed += out.messages_processed;
            for send in out.sends {
                if self.core.has_mailbox(&send.mailbox) {
                    self.enqueue(&send.mailbox, send.row)?;
                } else {
                    all.sends.push(send);
                }
            }
        }
        Ok(all)
    }

    fn send_router(&self, cmd: RouterCmd) {
        let tx = self.router_tx.as_ref().expect("router alive until drop");
        if tx.send(cmd).is_err() {
            panic!("shard router disconnected");
        }
    }
}

impl Drop for ParallelShardedTransducer {
    /// Orderly teardown: ask every worker to exit, close the router
    /// channel, join all threads. Workers also exit if their inbox
    /// disconnects, so a panicking coordinator still unwinds cleanly.
    fn drop(&mut self) {
        if let Some(tx) = self.router_tx.take() {
            let _ = tx.send(RouterCmd::Broadcast(WorkerCmd::Shutdown));
            drop(tx);
        }
        if let Some(r) = self.router.take() {
            let _ = r.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The router thread: owns the routing spec and every shard's inbox
/// sender. Sequential, so commands fan out to inboxes in exactly the
/// order the coordinator issued them — the FIFO ordering contract rests
/// here. Exits when the coordinator drops its sender; dropping the
/// inboxes then releases the workers.
fn router_loop(
    rx: channel::Receiver<RouterCmd>,
    inboxes: Vec<channel::Sender<WorkerCmd>>,
    routing: RoutingSpec,
    shards: usize,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            RouterCmd::Route { id, mailbox, row } => {
                let shard = routing.shard_of(&mailbox, &row, shards);
                let _ = inboxes[shard].send(WorkerCmd::Enqueue { id, mailbox, row });
            }
            RouterCmd::ToShard { shard, cmd } => {
                let _ = inboxes[shard].send(cmd);
            }
            RouterCmd::Broadcast(cmd) => {
                for tx in &inboxes {
                    let _ = tx.send(cmd.clone());
                }
            }
        }
    }
}

/// One shard's worker thread: build the shard here (it never crosses
/// threads), then serve inbox commands until shutdown or disconnect.
fn worker_loop(
    core: Arc<ProgramCore>,
    shard: usize,
    shards: usize,
    exchange: ExchangeSpec,
    rx: channel::Receiver<WorkerCmd>,
    done_tx: channel::Sender<WorkerDone>,
) {
    let mut t = configure_shard(&core, shard, shards, &exchange);
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WorkerCmd::Enqueue { id, mailbox, row } => {
                // The coordinator validated the mailbox against the core.
                let _ = t.enqueue_with_id(id, &mailbox, row);
            }
            WorkerCmd::Tick => {
                let result = t.tick();
                let exchange = if shard > 0 {
                    t.exchange_delta()
                } else {
                    ExchangeDelta::new()
                };
                let done = WorkerDone {
                    shard,
                    result,
                    pending: t.pending_total(),
                    exchange,
                };
                if done_tx.send(done).is_err() {
                    break; // coordinator gone
                }
            }
            WorkerCmd::ApplyExchange(delta) => t.apply_exchange_delta(delta),
            WorkerCmd::Snapshot(reply) => {
                let _ = reply.send((shard, t.state().clone()));
            }
            WorkerCmd::Udfs(setup) => setup(&mut t),
            WorkerCmd::Shutdown => break,
        }
    }
}
