//! The transducer interpreter: HydroLogic's event loop (§3.1).
//!
//! Each [`Transducer::tick`]:
//!
//! 1. reveals the tick's inputs: the effects committed by the previous
//!    tick are folded into per-relation deltas that update a *persistent*
//!    materialized database in place (see [`crate::eval::EvalState`]).
//!    There is one tick path: the fresh modes ([`EvalMode`]) rebuild that
//!    state from program state before the tick and drop it after, so
//!    their fold starts from an empty journal;
//! 2. brings every declared view up to date (stratified, to fixpoint;
//!    see [`crate::eval`]) — from the deltas, or, on a rebuilt state, by
//!    deriving every view from scratch;
//! 3. runs handlers over their mailboxes — message handlers once per
//!    pending message, condition handlers once if their guard holds —
//!    *reading only the snapshot* and recording mutations/sends as effects;
//! 4. applies the recorded mutations atomically at end-of-tick; handlers
//!    never observe each other's writes within a tick, so "handlers do not
//!    experience race conditions within a tick" (§2.3);
//! 5. emits responses and asynchronous sends. Sends are *not* delivered
//!    locally: delivery timing belongs to the network (simulated with
//!    unbounded, nondeterministic delay in `hydro-deploy`), which is the
//!    only source of nondeterminism in the model.
//!
//! Handlers whose consistency facet declares invariants get *transactional*
//! per-message effect groups: a group that would violate an invariant is
//! rolled back and its message answered `ABORT`. On a single node this is
//! enough for serializability (ticks already execute sequentially);
//! distributed enforcement is synthesized in `hydro-deploy`.
//!
//! # The core / instance split
//!
//! A transducer is two halves with very different lifetimes:
//!
//! * [`ProgramCore`] — the **immutable, plan-time artifacts**: the
//!   validated [`Program`], every handler's slot-compiled body
//!   (`CompiledHandler` in `handler.rs`: `CStmt`s, frame layouts,
//!   invariant key slots), and the compiled evaluation plan
//!   (`eval::ProgramPlan`: stratification, SCC evaluation units,
//!   delta-variant tables, probe layouts). It is built once by
//!   [`ProgramCore::new`] and shared behind an `Arc`.
//! * [`Transducer`] — the **per-instance mutable half**: [`State`]
//!   (tables + scalars), mailboxes, the persistent incremental
//!   [`EvalState`], the effect journal, message-id and tick counters, and
//!   the UDF host.
//!
//! Any number of instances — replicas in `hydro-deploy`, the shards of a
//! [`crate::shard::ShardedTransducer`], differential-test twins — run off
//! one `ProgramCore` via [`Transducer::from_core`], paying compilation
//! once and sharing the read-only plan. [`Transducer::new`] remains the
//! single-instance convenience (compile + instantiate).
//!
//! # Module map
//!
//! | file | holds |
//! |---|---|
//! | `mod.rs` | the public tick types ([`Message`], [`Response`], [`SendOut`], [`TickOutput`], [`TransducerError`]), [`EvalMode`], [`Transducer`] and its accessors and enqueue paths |
//! | `state.rs` | [`State`], the serialized handlers' `TickMirror`, [`ProgramCore`] |
//! | `handler.rs` | slot-compiled handler bodies (`CStmt`, `CompiledHandler`), the `Snapshot` handlers read, and statement execution |
//! | `txn.rs` | effects and effect groups: commit, invariant pre- and post-conditions, roll-back, functional-dependency warnings |
//! | `journal.rs` | the effect journal (`PendingDeltas`), the recovery journal ([`Checkpoint`], [`JournalDelta`], [`RecoveryLog`]) and both halves of the delta exchange ([`ExchangeDelta`]) |
//! | `tick.rs` | [`Transducer::tick`]: the journal fold, the evaluation-state rebuild, the handler phase, [`Transducer::run_to_quiescence`] |

mod handler;
mod journal;
mod state;
mod tick;
mod txn;

pub use journal::{Checkpoint, ExchangeDelta, JournalDelta, RecoveryLog};
pub use state::{ProgramCore, State};

use crate::ast::Program;
use crate::eval::{EvalError, EvalState, Row, UdfHost};
use crate::value::Value;
use journal::PendingDeltas;
use rustc_hash::FxHashMap;
use state::TickMirror;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A message waiting in a mailbox.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Unique id assigned at enqueue time (drives response correlation).
    pub id: u64,
    /// Payload row.
    pub row: Row,
}

/// A handler's reply to a specific message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Responding handler.
    pub handler: String,
    /// The message being answered.
    pub message_id: u64,
    /// Reply payload.
    pub value: Value,
}

/// An asynchronous send emitted by a tick.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendOut {
    /// Destination mailbox (may be another node's handler, a declared
    /// mailbox, or an external endpoint like `alert`).
    pub mailbox: String,
    /// Payload row.
    pub row: Row,
    /// Send provenance: the handler that produced this send. Together
    /// with [`SendOut::source_msg`] this identifies the producing
    /// invocation, which is what lets a sharded driver merge per-shard
    /// send streams back into the exact single-node emission order.
    pub handler: String,
    /// The id of the message the producing invocation was handling, or 0
    /// for condition-triggered handlers (message ids start at 1).
    pub source_msg: u64,
}

/// Everything a tick produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TickOutput {
    /// Per-message handler replies.
    pub responses: Vec<Response>,
    /// Asynchronous sends (undelivered; routing is the deployment's job).
    pub sends: Vec<SendOut>,
    /// Non-fatal runtime warnings (e.g. merge into a missing row).
    pub warnings: Vec<String>,
    /// Number of messages consumed this tick.
    pub messages_processed: usize,
}

/// Validation / runtime errors from the transducer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransducerError {
    /// Query or expression evaluation failed.
    Eval(EvalError),
    /// A merge targeted a non-lattice scalar or column.
    NotMergeable(String),
    /// A statement referenced an unknown name.
    Unknown(String),
    /// An insert's value count disagrees with the table arity.
    InsertArity {
        /// Table name.
        table: String,
        /// Values provided.
        given: usize,
        /// Columns declared.
        expected: usize,
    },
    /// Enqueue targeted a mailbox that is neither a handler nor declared.
    NoSuchMailbox(String),
    /// An enqueued row's length disagrees with the mailbox: the handler's
    /// parameter count, or the declared arity of a handler-less mailbox.
    MessageArity {
        /// Mailbox name.
        mailbox: String,
        /// Values provided.
        given: usize,
        /// Values the mailbox takes.
        expected: usize,
    },
    /// A merge or assignment targeted a key column. Key columns identify
    /// the row — rewriting one in place would detach the row from its
    /// storage key (and make keyed reads engine-dependent); delete and
    /// re-insert instead.
    KeyColumn {
        /// Table name.
        table: String,
        /// Key column name.
        column: String,
    },
}

impl From<EvalError> for TransducerError {
    fn from(e: EvalError) -> Self {
        TransducerError::Eval(e)
    }
}

impl std::fmt::Display for TransducerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransducerError::Eval(e) => write!(f, "evaluation error: {e}"),
            TransducerError::NotMergeable(t) => {
                write!(f, "merge into non-lattice target {t:?} (use assignment)")
            }
            TransducerError::Unknown(n) => write!(f, "unknown name {n:?}"),
            TransducerError::InsertArity {
                table,
                given,
                expected,
            } => write!(
                f,
                "insert into {table:?} has {given} values, table has {expected} columns"
            ),
            TransducerError::NoSuchMailbox(m) => write!(f, "no such mailbox {m:?}"),
            TransducerError::MessageArity {
                mailbox,
                given,
                expected,
            } => write!(
                f,
                "message to {mailbox:?} has {given} values, the mailbox takes {expected}"
            ),
            TransducerError::KeyColumn { table, column } => write!(
                f,
                "cannot write key column {column:?} of table {table:?} in place \
                 (delete and re-insert the row instead)"
            ),
        }
    }
}

impl std::error::Error for TransducerError {}

/// Which evaluation engine a transducer's ticks use. Semantics are
/// identical across all three (the differential suites enforce it); only
/// cost differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// Cross-tick incremental view maintenance (the default): persistent
    /// materialized views and scan indexes, delta-driven ticks. See
    /// [`EvalState`].
    #[default]
    Incremental,
    /// Rebuild, tick, discard: every tick starts from an empty evaluation
    /// state rebuilt from program state, derives every view from scratch
    /// with the semi-naive kernel, and drops the state after its handlers
    /// ran. The incremental engine's differential reference and benchmark
    /// baseline.
    FreshSemiNaive,
    /// Rebuild, tick, discard, with each unit derived by the independent
    /// naive fixpoint (full rounds, no indexes) instead of the kernel.
    FreshNaive,
}

// The parallel shard driver shares one `Arc<ProgramCore>` across worker
// threads; keep that capability from silently regressing (e.g. an `Rc`
// or `RefCell` creeping into the compiled plan).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProgramCore>();
    assert_send_sync::<State>();
    assert_send_sync::<TickOutput>();
    assert_send_sync::<Checkpoint>();
    assert_send_sync::<TransducerError>();
};

/// The HydroLogic interpreter for one logical node: the per-instance
/// mutable half ([`State`], mailboxes, journal, evaluation state, UDFs)
/// over a shared [`ProgramCore`].
pub struct Transducer {
    core: Arc<ProgramCore>,
    state: State,
    mailboxes: BTreeMap<String, Vec<Message>>,
    udfs: UdfHost,
    next_msg_id: u64,
    tick_no: u64,
    eval_mode: EvalMode,
    /// Persistent incremental evaluation state (`None` until the first
    /// tick, dropped after every fresh-mode tick and on evaluation error —
    /// the next tick rebuilds it from `state`).
    eval: Option<EvalState>,
    /// Base-state changes since the last evaluation.
    pending: PendingDeltas,
    /// Whether condition-triggered handlers run on this instance. Shards
    /// other than shard 0 of a [`crate::shard::ShardedTransducer`] disable
    /// them: condition handlers read global state, which the partition
    /// analysis pins to shard 0 — letting every shard evaluate the
    /// condition against its slice would fire the handler once per shard.
    run_condition_handlers: bool,
    /// Tables whose per-tick net changes this instance exports as
    /// [`ExchangeDelta`]s (the *sender* half of the delta-exchange
    /// operator; empty outside exchange-configured shard drivers).
    exchange_tables: std::collections::BTreeSet<String>,
    /// Foreign rows received via [`Transducer::apply_exchange_delta`]
    /// (the *receiver* half): a persistent per-table mirror of other
    /// shards' partitions, keyed like [`State::tables`]. Disjoint from
    /// the local partition by construction (hash routing), merged into
    /// every snapshot and evaluation-state rebuild.
    foreign: BTreeMap<String, BTreeMap<Row, Row>>,
    /// Foreign-row transitions received since the last tick, folded into
    /// the incremental engine's deltas at the next tick (last-wins per
    /// key, exactly like the local journal's first-touch fold).
    exchange_in: FxHashMap<String, FxHashMap<Row, Option<Row>>>,
    /// View heads this instance must not evaluate (their inputs are
    /// shipped away to the gather shard instead). Installed into the
    /// evaluation state at rebuild.
    skip_view_heads: std::collections::BTreeSet<String>,
    /// Whether counting/DRed deletion maintenance is enabled (see
    /// [`EvalState::set_counting`]). On by default; off, retractions fall
    /// back to unit recompute — the differential reference.
    counting: bool,
    /// Persistent serialized-handler mirror (see [`TickMirror`]): built
    /// once — a clone of the key indexes and scalars on the first
    /// serialized message this instance ever runs — then maintained
    /// incrementally through every committed effect, including the
    /// deferred end-of-tick commits. Without persistence the serving hot
    /// path would re-clone the full key index every tick that carries a
    /// serialized message, a cost proportional to *resident state* (ruinous
    /// at millions of keys) rather than to the tick's batch. Dropped (and
    /// lazily rebuilt) when state changes outside the effect pipeline:
    /// exchange-received foreign rows and evaluation errors.
    serial_mirror: Option<TickMirror>,
}

impl Transducer {
    /// Validate a program and build its transducer: the single-instance
    /// convenience over [`ProgramCore::new`] + [`Transducer::from_core`].
    pub fn new(program: Program) -> Result<Self, TransducerError> {
        Ok(Self::from_core(ProgramCore::new(program)?))
    }

    /// Instantiate a fresh transducer (empty tables, initial scalars,
    /// empty mailboxes) over a shared, already-compiled core.
    pub fn from_core(core: Arc<ProgramCore>) -> Self {
        let program = &core.program;
        let mut state = State::default();
        for t in &program.tables {
            state.tables.insert(t.name.clone(), BTreeMap::new());
        }
        for s in &program.scalars {
            state.scalars.insert(s.name.clone(), s.init.clone());
        }
        let mut mailboxes = BTreeMap::new();
        for h in &program.handlers {
            mailboxes.insert(h.name.clone(), Vec::new());
        }
        for m in &program.mailboxes {
            mailboxes.insert(m.name.clone(), Vec::new());
        }
        Transducer {
            core,
            state,
            mailboxes,
            udfs: UdfHost::new(),
            next_msg_id: 1,
            tick_no: 0,
            eval_mode: EvalMode::default(),
            eval: None,
            pending: PendingDeltas::default(),
            run_condition_handlers: true,
            exchange_tables: std::collections::BTreeSet::new(),
            foreign: BTreeMap::new(),
            exchange_in: FxHashMap::default(),
            skip_view_heads: std::collections::BTreeSet::new(),
            counting: true,
            serial_mirror: None,
        }
    }

    /// The shared compiled core this instance runs on.
    pub fn core(&self) -> &Arc<ProgramCore> {
        &self.core
    }

    /// Enable or disable condition-triggered handlers on this instance
    /// (see [`ProgramCore`]'s sharding story; defaults to enabled).
    pub fn set_run_condition_handlers(&mut self, run: bool) {
        self.run_condition_handlers = run;
    }

    /// Select the evaluation engine (see [`EvalMode`]). Takes effect at
    /// the next tick; switching away from and back to incremental mode
    /// rebuilds the persistent state from scratch.
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.eval_mode = mode;
    }

    /// Enable or disable counting/DRed deletion maintenance in the
    /// incremental engine (on by default). Off, every retraction falls
    /// back to unit-local recompute — the differential-testing reference
    /// and the E19 benchmark comparison point. Semantics are identical;
    /// only cost differs.
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
        if let Some(eval) = &mut self.eval {
            eval.set_counting(on);
        }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &Program {
        &self.core.program
    }

    /// Register a UDF implementation.
    pub fn register_udf(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&[Value]) -> Value + 'static,
    ) {
        self.udfs.register(name, f);
    }

    /// Direct read access to current state (between ticks).
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Lifetime count of real (non-memoized) invocations of a UDF —
    /// observable evidence for the §3.1 "once per input per tick" contract.
    pub fn udf_invocations(&self, name: &str) -> u64 {
        self.udfs.invocation_count(name)
    }

    /// How many scan indexes the incremental engine's current evaluation
    /// state has built from a full pass over a relation
    /// ([`EvalState::index_builds`]; 0 while there is no such state).
    /// Observable evidence that steady-state reads and compactions
    /// maintain their access paths instead of rebuilding them.
    pub fn index_builds(&self) -> u64 {
        self.eval.as_ref().map_or(0, EvalState::index_builds)
    }

    /// How many relation compactions the incremental engine's current
    /// evaluation state has run ([`EvalState::compactions`]; 0 while there
    /// is no such state): the tombstone sweeps its ticks paid for.
    pub fn compactions(&self) -> u64 {
        self.eval.as_ref().map_or(0, EvalState::compactions)
    }

    /// Read a scalar's current value.
    pub fn scalar(&self, name: &str) -> Option<&Value> {
        self.state.scalars.get(name)
    }

    /// Read a table row by key.
    pub fn row(&self, table: &str, key: &[Value]) -> Option<&Row> {
        self.state.tables.get(table)?.get(key)
    }

    /// Number of rows in a table.
    pub fn table_len(&self, table: &str) -> usize {
        self.state.tables.get(table).map_or(0, BTreeMap::len)
    }

    /// Ticks executed so far.
    pub fn tick_no(&self) -> u64 {
        self.tick_no
    }

    /// Messages currently pending in a mailbox.
    pub fn pending(&self, mailbox: &str) -> usize {
        self.mailboxes.get(mailbox).map_or(0, Vec::len)
    }

    /// Enqueue a message; returns its id. The message becomes visible at
    /// the *next* tick (it joins the snapshot then). An unknown mailbox or
    /// a row of the wrong length is refused and consumes no id.
    pub fn enqueue(&mut self, mailbox: &str, row: Row) -> Result<u64, TransducerError> {
        self.core.admit(mailbox, &row)?;
        let q = self
            .mailboxes
            .get_mut(mailbox)
            .expect("every admitted mailbox has a queue");
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        q.push(Message { id, row });
        self.pending.note_mailbox(mailbox);
        Ok(id)
    }

    /// Enqueue, panicking on unknown mailbox — for tests and examples.
    pub fn enqueue_ok(&mut self, mailbox: &str, row: Row) -> u64 {
        self.enqueue(mailbox, row).expect("known mailbox")
    }

    /// Enqueue a message under a caller-assigned id. Used by the sharded
    /// driver (and the deployment layer's journal replay), which owns the
    /// global id sequence so that responses across shards correlate
    /// exactly like a single transducer's would. The local counter is
    /// advanced past `id` so locally-assigned ids can never collide with
    /// driver-assigned ones.
    pub fn enqueue_with_id(
        &mut self,
        id: u64,
        mailbox: &str,
        row: Row,
    ) -> Result<(), TransducerError> {
        self.core.admit(mailbox, &row)?;
        let q = self
            .mailboxes
            .get_mut(mailbox)
            .expect("every admitted mailbox has a queue");
        q.push(Message { id, row });
        self.next_msg_id = self.next_msg_id.max(id + 1);
        self.pending.note_mailbox(mailbox);
        Ok(())
    }

    /// Total messages pending across all mailboxes.
    pub fn pending_total(&self) -> usize {
        self.mailboxes.values().map(Vec::len).sum()
    }

    /// Whether a mailbox exists on this transducer (handler or declared).
    pub fn has_mailbox(&self, name: &str) -> bool {
        self.mailboxes.contains_key(name)
    }
}
