//! Key-partitioned scale-out: N shards of one [`ProgramCore`].
//!
//! The paper's compiler is meant to choose *distribution*, not just
//! evaluation order (§4–5): a Hydrologic program whose handlers only ever
//! touch state keyed by one of their parameters can be split across
//! machines, with the runtime hash-routing each message to the shard that
//! owns its key. [`ShardSet`] is that runtime for one process:
//!
//! * every shard is a full [`Transducer`] instantiated from the **same
//!   shared [`ProgramCore`]** (compilation happens once — the
//!   core/instance split in [`crate::interp`] exists for exactly this);
//! * a [`RoutingSpec`] — produced by `hydro-analysis`'s key-partition
//!   analysis, or written by hand — maps each mailbox to a [`Route`]:
//!   hash-partitioned by one message parameter, or pinned to shard 0
//!   (the *global* shard, where non-partitionable state lives);
//! * [`ShardSet::enqueue`] assigns globally sequential message
//!   ids (so responses correlate exactly as a single transducer's would)
//!   and routes by [`partition_hash`] of the routing parameter;
//! * [`ShardSet::tick`] ticks every shard — untouched shards
//!   no-op in microseconds thanks to cross-tick incremental maintenance —
//!   and merges the per-shard [`TickOutput`]s deterministically: responses
//!   are interleaved per handler in message-id order and sends per handler
//!   in source-message-id order off their recorded provenance — both
//!   reconstruct the exact single-node emission order — while warnings
//!   concatenate in shard order;
//! * [`ShardSet::run_to_quiescence`] rewrites cross-shard `send`
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
//! execution would, and [`ShardSet::merged_state`] equals the
//! single transducer's state — this is what the differential suite pins
//! for the analysis-produced specs, including the `shards = 1` case,
//! which must be (and is) bit-identical. An unsound hand-written spec
//! silently degrades to "eventually inconsistent sharding"; use the
//! analysis.
//!
//! **One driver, two executors.** [`ShardSet`] owns everything above —
//! admission, id assignment, routing, the merge, exchange forwarding,
//! first-error semantics — and delegates the per-shard steps to a
//! [`ShardExec`]. [`Inline`] ([`ShardedTransducer`]) ticks the shards in
//! order on the calling thread: the minimal-moving-parts reference, whose
//! scale-out win (experiment E16) is *work isolation* — a tick only pays
//! recompute/journal costs on the shards its messages touch. [`Threads`]
//! ([`ParallelShardedTransducer`]) runs each shard on an OS worker thread
//! of its own, fed through a per-shard inbox. The coordinator is the
//! single sender to every inbox, so each inbox is FIFO end to end: a
//! tick's messages travel with its tick command, and exchange deltas
//! forwarded after tick `T` land on shard 0 before the tick `T+1` command.
//! Workers tick concurrently; the coordinator reads their reports in shard
//! order, so thread completion order never reaches an observable output,
//! and both executors are bit-identical to the single transducer by
//! construction. A worker that dies (a panicking UDF, say) disconnects the
//! report channels only it sends on; the coordinator joins it and resumes
//! its panic on the calling thread, which is how [`Inline`] fails for the
//! same UDF, and dropping the driver afterwards still joins the rest.
//!
//! Multicore scaling is modest. On a 2-vCPU host (`nproc` = 2), twelve
//! traced `kv_read` runs of the benchmark, in two series, read
//! `shard.parallel_speedup_b256` (serial ÷ parallel time per message, two
//! shards, 256 messages per tick) at 0.88–1.65, series medians 1.38 and
//! 1.48, and `shard.parallel_tick_us_b1` at 16.5–32 µs against 2.9–5.3 µs
//! for `shard.serial_tick_us_b1`; where the parallel tick's extra time
//! goes is not yet attributed. The 1.86× and 3.03× once recorded for
//! experiment E18 were not reproduced there.

use crate::eval::Row;
use crate::interp::{
    ExchangeDelta, ProgramCore, State, TickOutput, Transducer, TransducerError,
};
use crate::value::Value;
use crossbeam::channel;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

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

/// N key-partitioned shards of one program, driven in lockstep by one
/// coordinator: the routing, id assignment, merge and exchange forwarding
/// live here, and `E` runs the per-shard steps. See the module docs for
/// the routing/merging contract.
pub struct ShardSet<E: ShardExec> {
    core: Arc<ProgramCore>,
    routing: RoutingSpec,
    exec: E,
    next_msg_id: u64,
    tick_no: u64,
    merge_scratch: MergeScratch,
}

/// The serial driver: every shard ticks on the calling thread.
pub type ShardedTransducer = ShardSet<Inline>;

/// The parallel driver: one worker thread per shard.
pub type ParallelShardedTransducer = ShardSet<Threads>;

/// The per-shard steps a [`ShardSet`] delegates: building, feeding,
/// ticking and reading its shards. Shard 0 is the global/gather shard.
pub trait ShardExec {
    /// Instantiate `shards` shards over `core`: condition handlers on
    /// shard 0 only, exchange export on the others.
    fn build(core: &Arc<ProgramCore>, shards: usize, exchange: &ExchangeSpec) -> Self;
    /// Number of shards.
    fn shard_count(&self) -> usize;
    /// Queue a routed message on `shard` under its global id.
    fn enqueue(
        &mut self,
        shard: usize,
        id: u64,
        mailbox: &str,
        row: Row,
    ) -> Result<(), TransducerError>;
    /// Begin a tick on every shard; a no-op where
    /// [`ShardExec::tick_output`] runs the tick itself.
    fn start_tick(&mut self);
    /// `shard`'s output for the current tick. Called in shard order.
    fn tick_output(&mut self, shard: usize) -> Result<TickOutput, TransducerError>;
    /// A shard before `from` failed the tick: shards `from..` are not
    /// asked for their output.
    fn abandon_tick(&mut self, _from: usize) {}
    /// `shard`'s exchange export for the tick just finished.
    fn exchange_delta(&mut self, shard: usize) -> ExchangeDelta;
    /// Fold an exchange delta into the gather shard.
    fn apply_exchange(&mut self, delta: ExchangeDelta);
    /// Messages pending across all shards.
    fn pending_total(&self) -> usize;
    /// A clone of every shard's state, in shard order.
    fn states(&self) -> Vec<State>;
}

impl<E: ShardExec> ShardSet<E> {
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
        let exec = E::build(&core, shards, &routing.exchange);
        ShardSet {
            core,
            routing,
            exec,
            next_msg_id: 1,
            tick_no: 0,
            merge_scratch: MergeScratch::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.exec.shard_count()
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
        let shard = self.routing.shard_of(mailbox, &row, self.exec.shard_count());
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.exec.enqueue(shard, id, mailbox, row)?;
        Ok(id)
    }

    /// Enqueue, panicking on unknown mailbox — for tests and examples.
    pub fn enqueue_ok(&mut self, mailbox: &str, row: Row) -> u64 {
        self.enqueue(mailbox, row).expect("known mailbox")
    }

    /// Total messages pending across all shards and mailboxes.
    pub fn pending_total(&self) -> usize {
        self.exec.pending_total()
    }

    /// Ticks executed so far (shards run in lockstep).
    pub fn tick_no(&self) -> u64 {
        self.tick_no
    }

    /// Execute one tick on every shard, ship exchange deltas to the
    /// gather shard, and merge the outputs in shard order — so the order
    /// in which worker threads finish never reaches an observable output.
    /// On an evaluation error the first failing shard's error is returned
    /// (like a single transducer after an error, the instance should be
    /// considered poisoned).
    pub fn tick(&mut self) -> Result<TickOutput, TransducerError> {
        self.tick_no += 1;
        self.exec.start_tick();
        let shards = self.exec.shard_count();
        let mut outs = Vec::with_capacity(shards);
        for i in 0..shards {
            match self.exec.tick_output(i) {
                Ok(out) => outs.push(out),
                Err(e) => {
                    self.exec.abandon_tick(i + 1);
                    return Err(e);
                }
            }
        }
        // Tick barrier: every shard has committed this tick; ship the net
        // deltas of exchange tables to the gather shard, in shard order
        // (shard partitions are key-disjoint, so the order is cosmetic —
        // it just keeps the journal deterministic). The exported fold
        // reads the effect journal *before* the next tick drains it.
        if !self.routing.exchange.is_empty() {
            for i in 1..shards {
                let delta = self.exec.exchange_delta(i);
                if !delta.is_empty() {
                    self.exec.apply_exchange(delta);
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
        merge_states(self.exec.states())
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

/// Instantiate and configure one shard over the shared core: condition
/// handlers only on shard 0; exchange export + gather-view skip on every
/// non-gather shard of a multi-shard, exchange-planned deployment. Shared
/// by both executors ([`Threads`] calls it on each worker's own thread —
/// [`Transducer`] is deliberately not `Send`, its scan caches and UDF
/// closures are thread-local by design).
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
/// [`ShardSet::merged_state`]).
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
/// vectors and the handler-name index, owned by the driver and reused
/// across ticks. Buckets hold `u32` *indices* into the per-shard
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
/// (see the module docs). Bit-identical merging is the whole determinism
/// story, so both executors share this one implementation.
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

// ---- the inline executor -----------------------------------------------

/// Every shard a [`Transducer`] on the calling thread, ticked in shard
/// order; a tick stops at the first failing shard.
pub struct Inline {
    shards: Vec<Transducer>,
}

impl ShardExec for Inline {
    fn build(core: &Arc<ProgramCore>, shards: usize, exchange: &ExchangeSpec) -> Self {
        Inline {
            shards: (0..shards)
                .map(|i| configure_shard(core, i, shards, exchange))
                .collect(),
        }
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn enqueue(
        &mut self,
        shard: usize,
        id: u64,
        mailbox: &str,
        row: Row,
    ) -> Result<(), TransducerError> {
        self.shards[shard].enqueue_with_id(id, mailbox, row)
    }

    fn start_tick(&mut self) {}

    fn tick_output(&mut self, shard: usize) -> Result<TickOutput, TransducerError> {
        self.shards[shard].tick()
    }

    fn exchange_delta(&mut self, shard: usize) -> ExchangeDelta {
        self.shards[shard].exchange_delta()
    }

    fn apply_exchange(&mut self, delta: ExchangeDelta) {
        self.shards[0].apply_exchange_delta(delta);
    }

    fn pending_total(&self) -> usize {
        self.shards.iter().map(Transducer::pending_total).sum()
    }

    fn states(&self) -> Vec<State> {
        self.shards.iter().map(|s| s.state().clone()).collect()
    }
}

impl ShardSet<Inline> {
    /// Run `setup` once per shard — how UDF implementations are bound
    /// (each shard gets its own instance, mirroring per-replica
    /// registration in `hydro-deploy`).
    pub fn register_udfs(&mut self, setup: impl Fn(&mut Transducer)) {
        for s in &mut self.exec.shards {
            setup(s);
        }
    }

    /// Read access to one shard (between ticks).
    pub fn shard(&self, i: usize) -> &Transducer {
        &self.exec.shards[i]
    }

    /// Messages pending for a mailbox, summed across shards.
    pub fn pending(&self, mailbox: &str) -> usize {
        self.exec.shards.iter().map(|s| s.pending(mailbox)).sum()
    }

    /// Read a scalar (scalars are global: shard 0 owns them).
    pub fn scalar(&self, name: &str) -> Option<&Value> {
        self.exec.shards[0].scalar(name)
    }

    /// Read a table row by key, wherever its shard is.
    pub fn row(&self, table: &str, key: &[Value]) -> Option<&Row> {
        self.exec.shards.iter().find_map(|s| s.row(table, key))
    }

    /// Total rows of a table across shards.
    pub fn table_len(&self, table: &str) -> usize {
        self.exec.shards.iter().map(|s| s.table_len(table)).sum()
    }
}

// ---- the thread executor -----------------------------------------------

/// How the coordinator's UDF registration closure travels to every worker
/// thread (each worker applies it to its own shard instance).
type UdfSetup = Arc<dyn Fn(&mut Transducer) + Send + Sync>;

/// A routed message under its coordinator-assigned global id.
type Routed = (u64, String, Row);

/// One instruction to a shard worker. Everything a worker does arrives
/// through its inbox in FIFO order, and the coordinator is the inbox's
/// only sender — that single queue *is* the ordering contract: exchange
/// deltas from tick `T` precede the tick `T+1` command.
enum WorkerCmd {
    /// Enqueue the tick's messages, run one tick and report a
    /// [`WorkerDone`].
    Tick(Vec<Routed>),
    /// Fold another shard's exchange delta (gather shard only).
    ApplyExchange(ExchangeDelta),
    /// Reply with a clone of this shard's state.
    Snapshot,
    /// Apply the UDF registration closure to this shard.
    Udfs(UdfSetup),
}

/// A worker's report after one tick.
struct WorkerDone {
    result: Result<TickOutput, TransducerError>,
    /// Messages left pending on this shard after the tick.
    pending: usize,
    /// This shard's exchange export for the tick (empty on the gather
    /// shard and off exchange-planned deployments).
    exchange: ExchangeDelta,
}

/// One OS worker thread per shard, all sharing the one compiled
/// `Arc<ProgramCore>`. Each worker builds its shard on its own thread
/// ([`Transducer`] is not `Send`), serves its inbox, and answers on
/// channels only it sends on, so a dead worker disconnects them; the
/// coordinator then joins it and resumes its panic. The differential
/// suite pins bit-identity against [`Inline`] and the single transducer,
/// and `scripts/ci.sh` double-runs it as a race tripwire.
pub struct Threads {
    inboxes: Vec<channel::Sender<WorkerCmd>>,
    done: Vec<channel::Receiver<WorkerDone>>,
    snapshots: Vec<channel::Receiver<State>>,
    workers: Vec<Mutex<Option<JoinHandle<()>>>>,
    /// Each shard's messages for the next tick. They travel with its tick
    /// command: one hand-off per shard per tick, not one per message.
    outbox: Vec<Vec<Routed>>,
    /// Each shard's exchange export from its last tick report.
    exchange: Vec<ExchangeDelta>,
    /// Messages the workers reported pending after the last tick, plus
    /// those in the outbox.
    pending: usize,
}

impl ShardExec for Threads {
    fn build(core: &Arc<ProgramCore>, shards: usize, exchange: &ExchangeSpec) -> Self {
        let mut threads = Threads {
            inboxes: Vec::with_capacity(shards),
            done: Vec::with_capacity(shards),
            snapshots: Vec::with_capacity(shards),
            workers: Vec::with_capacity(shards),
            outbox: vec![Vec::new(); shards],
            exchange: vec![ExchangeDelta::new(); shards],
            pending: 0,
        };
        for i in 0..shards {
            let (inbox_tx, inbox) = channel::unbounded();
            let (done, done_rx) = channel::unbounded();
            let (snapshots, snapshot_rx) = channel::unbounded();
            let core = Arc::clone(core);
            let exchange = exchange.clone();
            let handle = std::thread::Builder::new()
                .name(format!("hydro-shard-{i}"))
                .spawn(move || {
                    let mut t = configure_shard(&core, i, shards, &exchange);
                    worker_loop(&mut t, i, inbox, done, snapshots);
                })
                .expect("spawn shard worker thread");
            threads.inboxes.push(inbox_tx);
            threads.done.push(done_rx);
            threads.snapshots.push(snapshot_rx);
            threads.workers.push(Mutex::new(Some(handle)));
        }
        threads
    }

    fn shard_count(&self) -> usize {
        self.inboxes.len()
    }

    fn enqueue(
        &mut self,
        shard: usize,
        id: u64,
        mailbox: &str,
        row: Row,
    ) -> Result<(), TransducerError> {
        self.pending += 1;
        self.outbox[shard].push((id, mailbox.to_string(), row));
        Ok(())
    }

    fn start_tick(&mut self) {
        self.pending = 0;
        for i in 0..self.inboxes.len() {
            let messages = std::mem::take(&mut self.outbox[i]);
            self.send(i, WorkerCmd::Tick(messages));
        }
    }

    fn tick_output(&mut self, shard: usize) -> Result<TickOutput, TransducerError> {
        let done = self.recv(&self.done, shard);
        self.pending += done.pending;
        self.exchange[shard] = done.exchange;
        done.result
    }

    /// The later workers ticked anyway: read their reports, so the next
    /// tick reads its own.
    fn abandon_tick(&mut self, from: usize) {
        for i in from..self.inboxes.len() {
            let _ = self.tick_output(i);
        }
    }

    fn exchange_delta(&mut self, shard: usize) -> ExchangeDelta {
        std::mem::take(&mut self.exchange[shard])
    }

    fn apply_exchange(&mut self, delta: ExchangeDelta) {
        self.send(0, WorkerCmd::ApplyExchange(delta));
    }

    fn pending_total(&self) -> usize {
        self.pending
    }

    /// Ask every worker first, so they clone concurrently; read the
    /// replies in shard order.
    fn states(&self) -> Vec<State> {
        for i in 0..self.inboxes.len() {
            self.send(i, WorkerCmd::Snapshot);
        }
        (0..self.inboxes.len())
            .map(|i| self.recv(&self.snapshots, i))
            .collect()
    }
}

impl Threads {
    fn send(&self, shard: usize, cmd: WorkerCmd) {
        if self.inboxes[shard].send(cmd).is_err() {
            self.dead(shard);
        }
    }

    fn recv<T>(&self, from: &[channel::Receiver<T>], shard: usize) -> T {
        from[shard].recv().unwrap_or_else(|_| self.dead(shard))
    }

    /// `shard`'s worker has exited: a channel only it held disconnected.
    /// Join it and continue its panic on the caller's thread — the
    /// failure [`Inline`] gives for the same UDF.
    fn dead(&self, shard: usize) -> ! {
        let worker = self.workers[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match worker.map(JoinHandle::join) {
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            _ => panic!("shard worker {shard} exited"),
        }
    }
}

impl Drop for Threads {
    /// Closing every channel ends each worker's loop once it has drained
    /// its inbox; a worker that died earlier was joined already.
    fn drop(&mut self) {
        self.inboxes.clear();
        self.done.clear();
        self.snapshots.clear();
        for worker in &mut self.workers {
            let worker = worker.get_mut().unwrap_or_else(PoisonError::into_inner);
            if let Some(handle) = worker.take() {
                let _ = handle.join();
            }
        }
    }
}

impl ShardSet<Threads> {
    /// Send the UDF registration closure to every worker, which applies
    /// it to its own shard instance (the `Send + Sync` bounds are what
    /// crossing threads requires).
    pub fn register_udfs(&mut self, setup: impl Fn(&mut Transducer) + Send + Sync + 'static) {
        let setup: UdfSetup = Arc::new(setup);
        for i in 0..self.exec.inboxes.len() {
            self.exec.send(i, WorkerCmd::Udfs(Arc::clone(&setup)));
        }
    }

    /// Read a scalar through a snapshot of shard 0, which owns the
    /// scalars. For between-tick inspection; costs a state clone.
    pub fn scalar(&self, name: &str) -> Option<Value> {
        self.exec.send(0, WorkerCmd::Snapshot);
        let mut state = self.exec.recv(&self.exec.snapshots, 0);
        state.scalars.remove(name)
    }
}

/// One shard's worker: serve inbox commands until the coordinator closes
/// the inbox or stops listening.
fn worker_loop(
    t: &mut Transducer,
    shard: usize,
    inbox: channel::Receiver<WorkerCmd>,
    done: channel::Sender<WorkerDone>,
    snapshots: channel::Sender<State>,
) {
    while let Ok(cmd) = inbox.recv() {
        match cmd {
            WorkerCmd::Tick(messages) => {
                for (id, mailbox, row) in messages {
                    // The coordinator validated the row against the core.
                    let _ = t.enqueue_with_id(id, &mailbox, row);
                }
                let result = t.tick();
                let exchange = if shard > 0 {
                    t.exchange_delta()
                } else {
                    ExchangeDelta::new()
                };
                let pending = t.pending_total();
                let report = WorkerDone {
                    result,
                    pending,
                    exchange,
                };
                if done.send(report).is_err() {
                    break;
                }
            }
            WorkerCmd::ApplyExchange(delta) => t.apply_exchange_delta(delta),
            WorkerCmd::Snapshot => {
                if snapshots.send(t.state().clone()).is_err() {
                    break;
                }
            }
            WorkerCmd::Udfs(setup) => setup(t),
        }
    }
}
