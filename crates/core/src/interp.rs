//! The transducer interpreter: HydroLogic's event loop (§3.1).
//!
//! Each [`Transducer::tick`]:
//!
//! 1. reveals the tick's inputs: in the default incremental mode
//!    ([`EvalMode::Incremental`]) the effects committed by the previous
//!    tick are folded into per-relation deltas that update a *persistent*
//!    materialized database in place (see [`crate::eval::EvalState`]);
//!    the fresh modes snapshot program state wholesale instead;
//! 2. brings every declared view up to date (stratified, to fixpoint;
//!    see [`crate::eval`]) — incrementally from the deltas, or by full
//!    re-derivation in the fresh modes;
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
//!   ([`CompiledHandler`]: `CStmt`s, frame layouts, invariant key slots),
//!   and the compiled evaluation plan (`eval::ProgramPlan`: stratification,
//!   SCC evaluation units, delta-variant tables, probe layouts). It is
//!   built once by [`ProgramCore::new`] and shared behind an `Arc`.
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

use crate::ast::{
    response_mailbox, AssignTarget, ColumnKind, Handler, MergeTarget, Program, Stmt, Trigger,
};
use crate::eval::{
    build_key_indexes, eval_cexpr, eval_cselect, evaluate_views, CExpr, CSelect, Database,
    EvalError, EvalState, Frame, ProgramPlan, RelDelta, Relation, Row, ScanCache, SlotCompiler,
    UdfHost,
};
use crate::facets::Invariant;
use crate::value::Value;
use rustc_hash::{FxHashMap, FxHashSet};
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

/// A deferred state mutation, tagged with its effect group (handler
/// invocation) for transactional invariant enforcement.
#[derive(Clone, Debug)]
enum Effect {
    MergeScalar(String, Value),
    AssignScalar(String, Value),
    MergeField {
        table: String,
        key: Row,
        col: usize,
        value: Value,
    },
    AssignField {
        table: String,
        key: Row,
        col: usize,
        value: Value,
    },
    InsertRow {
        table: String,
        row: Row,
    },
    DeleteRow {
        table: String,
        key: Row,
    },
    ClearMailbox(String),
}

/// Tables a set of effects writes (the scope of end-of-tick FD checks).
fn touched_tables(effects: &[Effect]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for e in effects {
        match e {
            Effect::MergeField { table, .. }
            | Effect::AssignField { table, .. }
            | Effect::InsertRow { table, .. }
            | Effect::DeleteRow { table, .. } => {
                out.insert(table.clone());
            }
            Effect::MergeScalar(..) | Effect::AssignScalar(..) | Effect::ClearMailbox(..) => {}
        }
    }
    out
}

/// One handler invocation's worth of effects plus its invariants (the
/// handler's name and invariants are read through the shared
/// [`ProgramCore`], not copied per message).
struct EffectGroup<'c> {
    handler: &'c str,
    message_id: Option<u64>,
    effects: Vec<Effect>,
    invariants: &'c [Invariant],
    /// Invariant parameter values (e.g. `HasKey.key_param`) captured at
    /// group creation, one per invariant (`Null` where the invariant takes
    /// no parameter or the name was unbound) — the slot-frame replacement
    /// for cloning the whole bindings map per group.
    inv_keys: Vec<Value>,
    /// The contiguous range of `TickOutput::responses` this group's
    /// execution produced, so a rollback rewrites exactly its optimistic
    /// replies instead of scanning every response of the tick.
    resp_range: std::ops::Range<usize>,
}

// ---------------------------------------------------------------------------
// Compiled handlers: slot-resolved statements over a reusable frame.
// ---------------------------------------------------------------------------

/// Slot-compiled mirror of [`MergeTarget`].
enum CMergeTarget {
    /// Merge into a lattice scalar.
    Scalar(String),
    /// Merge into a lattice column of the row keyed by `key`.
    TableField {
        /// Table name.
        table: String,
        /// Key expression.
        key: CExpr,
        /// Column name (resolved per execution, like the reference — an
        /// unknown column only errors if the statement runs).
        field: String,
    },
}

/// Slot-compiled mirror of [`AssignTarget`].
enum CAssignTarget {
    /// Assign a bare scalar.
    Scalar(String),
    /// Overwrite a column of the row keyed by `key`.
    TableField {
        /// Table name.
        table: String,
        /// Key expression.
        key: CExpr,
        /// Column name.
        field: String,
    },
}

/// Slot-compiled mirror of [`Stmt`]: every variable reference resolves
/// through the handler's frame; names survive only where resolution is
/// deliberately dynamic (tables, columns, scalars, mailboxes, UDFs).
enum CStmt {
    /// Deferred lattice merge.
    Merge(CMergeTarget, CExpr),
    /// Deferred assignment.
    Assign(CAssignTarget, CExpr),
    /// Deferred row insert.
    Insert {
        /// Table name.
        table: String,
        /// Row expressions.
        values: Vec<CExpr>,
    },
    /// Deferred row delete.
    Delete {
        /// Table name.
        table: String,
        /// Key expression.
        key: CExpr,
    },
    /// Asynchronous send of each projected row.
    Send {
        /// Destination mailbox.
        mailbox: String,
        /// Rows to send.
        select: CSelect,
    },
    /// Respond to the message being handled.
    Return(CExpr),
    /// Conditional execution.
    If {
        /// Condition.
        cond: CExpr,
        /// Statements when true.
        then: Vec<CStmt>,
        /// Statements when false.
        els: Vec<CStmt>,
    },
    /// Execute statements once per comprehension match. The select's
    /// projection is the comprehension's bindable variables (matching the
    /// reference's `collect_bound_vars` projection exactly); each match
    /// row is spread into `vars` slots — saving priors, restoring after —
    /// instead of cloning a bindings map per match.
    ForEach {
        /// Comprehension whose projection is `vars`.
        select: CSelect,
        /// Slots the projection binds, positionally.
        vars: Vec<u32>,
        /// Statements run under each binding.
        stmts: Vec<CStmt>,
    },
    /// Clear a declared mailbox at end-of-tick.
    ClearMailbox(String),
}

/// A handler compiled once at [`Transducer::new`]: body statements with
/// every variable resolved to a dense slot of one per-invocation frame.
/// Executing a message costs indexed slot stores (params, `__msg_id`) and
/// zero string hashing on the statement/select hot path.
struct CompiledHandler {
    /// Slot → variable name (for `UnboundVar` rendering; its length is the
    /// frame size).
    names: Vec<String>,
    /// One slot per handler parameter, positionally.
    param_slots: Vec<u32>,
    /// Slot of the implicit `__msg_id` binding.
    msg_id_slot: u32,
    /// Compiled condition (condition-triggered handlers only).
    cond: Option<CExpr>,
    /// Compiled body.
    body: Vec<CStmt>,
    /// Per invariant: the slot of its key parameter, if the name resolves
    /// (`HasKey` invariants; `None` reads as `Null`, like the reference's
    /// missing-binding lookup).
    inv_key_slots: Vec<Option<u32>>,
}

impl CompiledHandler {
    fn compile(handler: &Handler, invariants: &[Invariant]) -> Self {
        let mut sc = SlotCompiler::new();
        let param_slots: Vec<u32> = handler.params.iter().map(|p| sc.slot(p)).collect();
        let msg_id_slot = sc.slot("__msg_id");
        // Message handlers enter their body with params + `__msg_id`
        // bound; condition handlers enter with nothing bound (their
        // condition and body read only the snapshot), exactly like the
        // reference's empty bindings map.
        let cond = match &handler.trigger {
            Trigger::OnMessage => {
                for &s in &param_slots {
                    sc.mark_bound(s);
                }
                sc.mark_bound(msg_id_slot);
                None
            }
            Trigger::OnCondition(c) => Some(sc.compile_expr(c)),
        };
        let body = compile_stmts(&handler.body, &mut sc);
        let inv_key_slots = invariants
            .iter()
            .map(|inv| match inv {
                Invariant::HasKey { key_param, .. } => sc.lookup(key_param),
                _ => None,
            })
            .collect();
        CompiledHandler {
            param_slots,
            msg_id_slot,
            cond,
            body,
            inv_key_slots,
            names: sc.into_names(),
        }
    }

    /// Capture the invariant parameter values for a new effect group.
    fn capture_inv_keys(&self, frame: &Frame) -> Vec<Value> {
        self.inv_key_slots
            .iter()
            .map(|s| match s {
                Some(s) => frame.get(*s).cloned().unwrap_or(Value::Null),
                None => Value::Null,
            })
            .collect()
    }
}

/// Compile a statement list against the current boundness scope.
fn compile_stmts(stmts: &[Stmt], sc: &mut SlotCompiler) -> Vec<CStmt> {
    stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::Merge(target, expr) => {
                let value = sc.compile_expr(expr);
                let target = match target {
                    MergeTarget::Scalar(name) => CMergeTarget::Scalar(name.clone()),
                    MergeTarget::TableField { table, key, field } => CMergeTarget::TableField {
                        table: table.clone(),
                        key: sc.compile_expr(key),
                        field: field.clone(),
                    },
                };
                CStmt::Merge(target, value)
            }
            Stmt::Assign(target, expr) => {
                let value = sc.compile_expr(expr);
                let target = match target {
                    AssignTarget::Scalar(name) => CAssignTarget::Scalar(name.clone()),
                    AssignTarget::TableField { table, key, field } => CAssignTarget::TableField {
                        table: table.clone(),
                        key: sc.compile_expr(key),
                        field: field.clone(),
                    },
                };
                CStmt::Assign(target, value)
            }
            Stmt::Insert { table, values } => CStmt::Insert {
                table: table.clone(),
                values: values.iter().map(|e| sc.compile_expr(e)).collect(),
            },
            Stmt::Delete { table, key } => CStmt::Delete {
                table: table.clone(),
                key: sc.compile_expr(key),
            },
            Stmt::Send { mailbox, select } => {
                let (cselect, introduced) = sc.compile_select(select);
                sc.unmark(&introduced);
                CStmt::Send {
                    mailbox: mailbox.clone(),
                    select: cselect,
                }
            }
            Stmt::Return(expr) => CStmt::Return(sc.compile_expr(expr)),
            Stmt::If { cond, then, els } => CStmt::If {
                cond: sc.compile_expr(cond),
                then: compile_stmts(then, sc),
                els: compile_stmts(els, sc),
            },
            Stmt::ForEach { select, stmts } => {
                // Compile the body first (allocating/binding its slots),
                // then project every bindable variable of the body — the
                // same set, in the same order, as the reference's
                // `collect_bound_vars` projection.
                let (cbody, introduced) = sc.compile_body(&select.body);
                let mut vars: Vec<String> = Vec::new();
                collect_bound_vars(&select.body, &mut vars);
                let var_slots: Vec<u32> = vars.iter().map(|v| sc.slot(v)).collect();
                let projection: Vec<CExpr> =
                    var_slots.iter().map(|&s| CExpr::Var(s)).collect();
                // Nested statements run under the select's scope (base
                // bindings plus everything the body introduced); the
                // scope closes after them.
                let stmts = compile_stmts(stmts, sc);
                sc.unmark(&introduced);
                CStmt::ForEach {
                    select: CSelect {
                        body: cbody,
                        projection,
                    },
                    vars: var_slots,
                    stmts,
                }
            }
            Stmt::ClearMailbox(name) => CStmt::ClearMailbox(name.clone()),
        })
        .collect()
}

/// Mutable program state: keyed tables and scalars.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct State {
    /// Table name → key → row. `BTreeMap` gives deterministic iteration.
    pub tables: BTreeMap<String, BTreeMap<Row, Row>>,
    /// Scalar name → value.
    pub scalars: BTreeMap<String, Value>,
}

/// Hash-map mirrors of the parts of [`State`] that *serialized* handlers
/// read mid-tick (table key indexes and scalars). Built at most once per
/// **transducer** — on the first serialized message, by cloning the
/// tick-start snapshot — then kept on [`Transducer::serial_mirror`] and
/// maintained incrementally as each effect commits (serialized *and*
/// deferred), instead of re-snapshotting the whole state per tick. The
/// one-time clone costs O(resident state); every subsequent tick pays
/// only O(effects), which is what lets serialized handlers serve
/// million-key tables at micro-batch granularity.
#[derive(Clone, Default)]
struct TickMirror {
    key_index: FxHashMap<String, FxHashMap<Row, Row>>,
    scalars: FxHashMap<String, Value>,
}

impl TickMirror {
    /// Re-mirror one table row (or its absence) after an effect landed.
    fn refresh_row(&mut self, state: &State, table: &str, key: &Row) {
        let slot = self.key_index.entry(table.to_string()).or_default();
        match state.tables.get(table).and_then(|t| t.get(key)) {
            Some(row) => {
                slot.insert(key.clone(), row.clone());
            }
            None => {
                slot.remove(key);
            }
        }
    }
}

/// What a tick's handlers read: the tick-start database with every view,
/// the scalar and table-key snapshots (a serialized message substitutes
/// the [`TickMirror`]'s), and the scan indexes over `db`. `db` is borrowed
/// immutably for the whole handler phase — commits go to [`State`] and the
/// mirror, never to `db` — so `cache` cannot go stale while it is lent.
struct Snapshot<'a> {
    db: &'a Database,
    scalars: &'a FxHashMap<String, Value>,
    key_index: &'a FxHashMap<String, FxHashMap<Row, Row>>,
    cache: &'a mut ScanCache,
}

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
    /// Re-derive every view from a fresh snapshot each tick with the
    /// semi-naive evaluator (the PR 1 path, kept as the incremental
    /// engine's differential reference and benchmark baseline).
    FreshSemiNaive,
    /// Re-derive with the original naive nested-loop evaluator.
    FreshNaive,
}

/// Journal of base-state changes made by committed effects since the last
/// incremental evaluation. Folded into per-relation [`RelDelta`]s at the
/// next tick start. Recording keeps *first-touch* originals and compares
/// them against the final state, so a transactional rollback naturally
/// folds to "no change".
///
/// The same note sites optionally feed a second, independently-drained
/// consumer: the **recovery journal** ([`JournalNotes`]), enabled by
/// [`Transducer::set_journaling`] and drained by
/// [`Transducer::take_journal_delta`] into replayable [`JournalDelta`]
/// records. The two consumers have separate lifecycles — the eval notes
/// are consumed every incremental tick, the recovery notes whenever the
/// host decides to emit a delta record — so each keeps its own
/// first-touch maps.
struct PendingDeltas {
    /// Whether eval notes are recorded at all — only the incremental
    /// engine reads them; the fresh modes would discard them unread, so
    /// they skip the per-effect clones entirely.
    enabled: bool,
    /// table → key → row as of the last evaluation (`None` = absent).
    tables: FxHashMap<String, FxHashMap<Row, Option<Row>>>,
    /// scalar → value as of the last evaluation.
    scalars: FxHashMap<String, Value>,
    /// Mailboxes whose queues changed (enqueue or drain).
    mailboxes: FxHashSet<String>,
    /// Recovery-journal notes (`None` = journaling off). Recorded
    /// regardless of `enabled`: the recovery journal tracks committed
    /// state for replay, whatever evaluation engine runs the ticks.
    journal: Option<JournalNotes>,
    /// Recycled per-table first-touch maps, shared by both consumers: the
    /// incremental tick's fold and [`Transducer::take_journal_delta`]
    /// drain their `tables` and return the emptied inner maps here, so a
    /// steady-state tick's delta recording allocates no fresh maps.
    table_pool: Vec<FxHashMap<Row, Option<Row>>>,
}

/// First-touch notes for the recovery journal, relative to the last
/// [`Transducer::take_journal_delta`] drain.
#[derive(Default)]
struct JournalNotes {
    tables: FxHashMap<String, FxHashMap<Row, Option<Row>>>,
    scalars: FxHashMap<String, Value>,
    mailboxes: FxHashSet<String>,
    /// Counters as of the last drain, so a drain can tell "nothing
    /// happened" apart from "a tick ran but changed no base state".
    last_next_msg_id: u64,
    last_tick_no: u64,
}

impl Default for PendingDeltas {
    fn default() -> Self {
        PendingDeltas {
            enabled: true,
            tables: FxHashMap::default(),
            scalars: FxHashMap::default(),
            mailboxes: FxHashSet::default(),
            journal: None,
            table_pool: Vec::new(),
        }
    }
}

impl PendingDeltas {
    fn clear(&mut self) {
        for (_, mut m) in self.tables.drain() {
            m.clear();
            self.table_pool.push(m);
        }
        self.scalars.clear();
        self.mailboxes.clear();
    }

    /// Record `old` as the first-touch original of `table[key]`, if this
    /// is indeed the first touch since the last evaluation.
    fn note_table(&mut self, table: &str, key: &Row, old: Option<&Row>) {
        if self.enabled {
            if !self.tables.contains_key(table) {
                let slot = self.table_pool.pop().unwrap_or_default();
                self.tables.insert(table.to_string(), slot);
            }
            let slot = self.tables.get_mut(table).expect("just inserted");
            if !slot.contains_key(key) {
                slot.insert(key.clone(), old.cloned());
            }
        }
        if let Some(j) = &mut self.journal {
            if !j.tables.contains_key(table) {
                let slot = self.table_pool.pop().unwrap_or_default();
                j.tables.insert(table.to_string(), slot);
            }
            let slot = j.tables.get_mut(table).expect("just inserted");
            if !slot.contains_key(key) {
                slot.insert(key.clone(), old.cloned());
            }
        }
    }

    /// Record `old` as the first-touch original of a scalar.
    fn note_scalar(&mut self, name: &str, old: &Value) {
        if self.enabled && !self.scalars.contains_key(name) {
            self.scalars.insert(name.to_string(), old.clone());
        }
        if let Some(j) = &mut self.journal {
            if !j.scalars.contains_key(name) {
                j.scalars.insert(name.to_string(), old.clone());
            }
        }
    }

    /// Record that a mailbox's queue changed.
    fn note_mailbox(&mut self, name: &str) {
        if self.enabled {
            self.mailboxes.insert(name.to_string());
        }
        if let Some(j) = &mut self.journal {
            j.mailboxes.insert(name.to_string());
        }
    }
}

/// A point-in-time image of everything that defines a transducer's
/// replayable state: tables, scalars, mailbox queues (with message ids),
/// and the message-id / tick counters. [`Transducer::restore`] rebuilds a
/// replacement instance from one bit-identically — the evaluation state
/// is deliberately *not* captured; it rebuilds deterministically from the
/// restored base state on the next tick (the same path error recovery
/// uses).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Tables and scalars.
    pub state: State,
    /// Mailbox queues, ids included (in-flight requests survive replay).
    pub mailboxes: BTreeMap<String, Vec<Message>>,
    /// Message-id counter.
    pub next_msg_id: u64,
    /// Ticks executed.
    pub tick_no: u64,
}

impl Checkpoint {
    /// Fold one journaled delta into this image (deltas carry final
    /// values, so application is idempotent — replaying a record twice is
    /// harmless, replaying out of order is not).
    pub fn apply(&mut self, delta: &JournalDelta) {
        for (table, key, row) in &delta.tables {
            let slot = self.state.tables.entry(table.clone()).or_default();
            match row {
                Some(r) => {
                    slot.insert(key.clone(), r.clone());
                }
                None => {
                    slot.remove(key);
                }
            }
        }
        for (name, value) in &delta.scalars {
            self.state.scalars.insert(name.clone(), value.clone());
        }
        for (mailbox, queue) in &delta.mailboxes {
            self.mailboxes.insert(mailbox.clone(), queue.clone());
        }
        self.next_msg_id = delta.next_msg_id;
        self.tick_no = delta.tick_no;
    }
}

/// One committed recovery-journal record: every table key, scalar and
/// mailbox whose value changed since the previous record was drained,
/// with its **final** value (not the mutation) — so records are
/// idempotent to re-apply and fold trivially into a [`Checkpoint`].
/// Entries are sorted by name/key, so identical histories yield identical
/// records byte-for-byte.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalDelta {
    /// `(table, key, row)` — `None` = key now absent.
    pub tables: Vec<(String, Row, Option<Row>)>,
    /// `(scalar, value)`.
    pub scalars: Vec<(String, Value)>,
    /// `(mailbox, full queue now)` for every mailbox whose queue changed.
    pub mailboxes: Vec<(String, Vec<Message>)>,
    /// Message-id counter after this delta.
    pub next_msg_id: u64,
    /// Tick counter after this delta.
    pub tick_no: u64,
}

impl JournalDelta {
    /// Whether the record carries any change at all.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.scalars.is_empty() && self.mailboxes.is_empty()
    }
}

/// One tick's net changes to a shard's exchange-shipped tables:
/// `(table, [(key, final row — None = deleted)])`, sorted by table and
/// key. Like [`JournalDelta`], entries carry **final** values, so
/// application is idempotent; rolled-back transactions fold to "no
/// change" and never ship. Produced by [`Transducer::exchange_delta`] on
/// the owning shard after a tick, consumed by
/// [`Transducer::apply_exchange_delta`] on the gather shard before its
/// next tick — the delta-exchange operator's wire format.
pub type ExchangeDelta = Vec<(String, Vec<(Row, Option<Row>)>)>;

/// A replayable recovery log: a base [`Checkpoint`] plus the
/// [`JournalDelta`]s committed since. Appending folds the log into a
/// fresh base every `checkpoint_every` records (the checkpoint cadence),
/// bounding both replay work and retained memory; [`RecoveryLog::restore`]
/// rebuilds a replacement [`Transducer`] whose observable state —
/// tables, scalars, mailbox queues, counters — is bit-identical to the
/// instance the deltas were drained from.
#[derive(Clone, Debug)]
pub struct RecoveryLog {
    base: Checkpoint,
    deltas: Vec<JournalDelta>,
    checkpoint_every: usize,
}

impl RecoveryLog {
    /// A log rooted at `base`, compacting every `checkpoint_every`
    /// appended deltas (0 is treated as 1: compact on every append).
    pub fn new(base: Checkpoint, checkpoint_every: usize) -> Self {
        RecoveryLog {
            base,
            deltas: Vec::new(),
            checkpoint_every: checkpoint_every.max(1),
        }
    }

    /// Append one journaled delta, compacting at the checkpoint cadence.
    pub fn append(&mut self, delta: JournalDelta) {
        self.deltas.push(delta);
        if self.deltas.len() >= self.checkpoint_every {
            self.compact();
        }
    }

    /// Fold every retained delta into the base checkpoint now.
    pub fn compact(&mut self) {
        for d in self.deltas.drain(..) {
            self.base.apply(&d);
        }
    }

    /// Deltas appended since the last checkpoint fold.
    pub fn deltas_since_checkpoint(&self) -> usize {
        self.deltas.len()
    }

    /// The current image: base checkpoint plus retained deltas.
    pub fn image(&self) -> Checkpoint {
        let mut ck = self.base.clone();
        for d in &self.deltas {
            ck.apply(d);
        }
        ck
    }

    /// Replay the log into a replacement instance over `core` (UDFs must
    /// be re-registered by the caller — closures don't journal).
    pub fn restore(&self, core: Arc<ProgramCore>) -> Transducer {
        Transducer::restore(core, &self.image())
    }
}

/// The immutable, plan-time half of a transducer: the validated program,
/// its slot-compiled handlers, and the compiled evaluation plan. Built
/// once, shared behind an `Arc` by every instance that interprets the
/// same program — replicas, shards, differential twins (see the module
/// docs). Contains no mutable state, so sharing is free and thread-safe.
pub struct ProgramCore {
    program: Program,
    /// Handler bodies paired with their resolved consistency facets and
    /// their slot-compiled form (a tick borrows these off the `Arc`
    /// while holding `&mut` to the instance state).
    handlers: Vec<(Handler, crate::facets::ConsistencyReq, CompiledHandler)>,
    /// The compiled evaluation plan every instance's [`EvalState`] runs
    /// against.
    plan: Arc<ProgramPlan>,
}

impl ProgramCore {
    /// Validate and compile a program: stratification, SCC evaluation
    /// units, handler slot compilation. Unstratifiable programs are
    /// rejected here, so instantiation is infallible.
    pub fn new(program: Program) -> Result<Arc<Self>, TransducerError> {
        let plan = Arc::new(ProgramPlan::compile(&program)?);
        let handlers = program
            .handlers
            .iter()
            .map(|h| {
                let consistency = program.consistency_of(&h.name).clone();
                let compiled = CompiledHandler::compile(h, &consistency.invariants);
                (h.clone(), consistency, compiled)
            })
            .collect();
        Ok(Arc::new(ProgramCore {
            program,
            handlers,
            plan,
        }))
    }

    /// The program this core was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Whether `name` is a mailbox of this program (a handler's implicit
    /// mailbox or a declared handler-less one).
    pub fn has_mailbox(&self, name: &str) -> bool {
        self.program.handler(name).is_some()
            || self.program.mailboxes.iter().any(|m| m.name == name)
    }

    /// Admit a message at the boundary: the mailbox must exist and the row
    /// must have its arity. Every scan of a mailbox relation assumes rows
    /// of one length (it checks the first row only), so a wrong-length row
    /// must never reach a queue.
    pub(crate) fn admit(&self, mailbox: &str, row: &Row) -> Result<(), TransducerError> {
        let expected = match self.program.handler(mailbox) {
            Some(h) => h.params.len(),
            None => {
                let decl = self.program.mailboxes.iter().find(|m| m.name == mailbox);
                decl.ok_or_else(|| TransducerError::NoSuchMailbox(mailbox.to_string()))?
                    .arity
            }
        };
        if row.len() != expected {
            return Err(TransducerError::MessageArity {
                mailbox: mailbox.to_string(),
                given: row.len(),
                expected,
            });
        }
        Ok(())
    }

    /// The static reorder-safety report computed when this core's plan
    /// was compiled (see [`crate::reorder`]).
    pub fn reorder(&self) -> &crate::reorder::ReorderReport {
        self.plan.reorder()
    }

    /// Whether plain rule `index` (into `Program::rules`) is proven
    /// reorder-safe — the per-rule license for join reordering, sideways
    /// information passing, and counting maintenance (see the module docs
    /// of [`crate::eval`]).
    pub fn rule_reorder_safe(&self, index: usize) -> bool {
        self.plan.rule_reorder_safe(index)
    }

    /// Whether aggregation rule `index` (into `Program::agg_rules`) is
    /// proven reorder-safe.
    pub fn agg_reorder_safe(&self, index: usize) -> bool {
        self.plan.agg_reorder_safe(index)
    }
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
    /// incremental tick, and dropped on evaluation error or mode switch —
    /// the next incremental tick rebuilds it from `state`).
    eval: Option<EvalState>,
    /// Base-state changes since the last incremental evaluation.
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
        self.pending.enabled = mode == EvalMode::Incremental;
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

    /// Evaluate views with the retained naive reference evaluator instead
    /// of the default engine. For differential tests and the E1/E8
    /// before/after benchmarks; semantics are identical, only cost differs.
    pub fn set_naive_eval(&mut self, naive: bool) {
        self.set_eval_mode(if naive {
            EvalMode::FreshNaive
        } else {
            EvalMode::Incremental
        });
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

    // ---- delta exchange --------------------------------------------------

    /// Configure the tables whose per-tick net changes this instance
    /// exports via [`Transducer::exchange_delta`]. Exchange piggybacks on
    /// the incremental engine's effect journal, so it only functions in
    /// [`EvalMode::Incremental`] (the default). Used by the shard drivers
    /// for tables feeding `NeedsExchange` views.
    pub fn set_exchange_tables(
        &mut self,
        tables: impl IntoIterator<Item = String>,
    ) {
        self.exchange_tables = tables.into_iter().collect();
    }

    /// Configure view heads this instance must *not* evaluate: the
    /// exchange plan computes them on the gather shard from shipped
    /// deltas, so evaluating them here would derive partial (and wasted)
    /// results. Drops the persistent evaluation state; the next tick
    /// rebuilds it with the exclusion installed.
    pub fn set_skip_view_heads(&mut self, heads: impl IntoIterator<Item = String>) {
        self.skip_view_heads = heads.into_iter().collect();
        self.eval = None;
    }

    /// Export the last tick's net changes to the configured exchange
    /// tables, without consuming the underlying journal (the incremental
    /// engine still drains it at the next tick). Mirrors
    /// [`Transducer::take_journal_delta`]'s fold: first-touch originals
    /// against final state, rolled-back effects vanish, entries carry
    /// final values and are sorted — the same tick always exports the
    /// same bytes. Call between ticks, after the tick whose changes are
    /// being shipped.
    pub fn exchange_delta(&self) -> ExchangeDelta {
        debug_assert!(
            self.exchange_tables.is_empty() || self.eval_mode == EvalMode::Incremental,
            "delta exchange requires the incremental engine's journal"
        );
        let mut out = ExchangeDelta::new();
        for table in &self.exchange_tables {
            let Some(keys) = self.pending.tables.get(table) else {
                continue;
            };
            let current = self.state.tables.get(table);
            let mut rows: Vec<(Row, Option<Row>)> = Vec::new();
            for (key, old) in keys {
                let new = current.and_then(|t| t.get(key));
                if old.as_ref() == new {
                    continue; // rolled back / rewritten to the original
                }
                rows.push((key.clone(), new.cloned()));
            }
            if rows.is_empty() {
                continue;
            }
            rows.sort();
            out.push((table.clone(), rows));
        }
        out
    }

    /// Receive another shard's [`ExchangeDelta`]: update the persistent
    /// foreign mirror immediately (snapshots and rebuilds see it) and
    /// queue the transitions for the incremental engine's next delta
    /// fold. Last-wins per key, so applying several shards' deltas (or a
    /// retransmission of the same delta) before the next tick is safe —
    /// shard partitions are key-disjoint and entries are idempotent.
    pub fn apply_exchange_delta(&mut self, delta: ExchangeDelta) {
        // Foreign rows land in the key indexes that serialized handlers
        // read, but arrive outside the effect pipeline that maintains the
        // persistent mirror — drop it and let the next serialized message
        // re-clone. (Exchange-configured gather shards paid the per-tick
        // clone before this mirror persisted; they are no worse off.)
        self.serial_mirror = None;
        for (table, rows) in delta {
            // Exchange deltas ship *net* signed rows (`Some` = upsert,
            // `None` = retraction), sorted and key-unique by construction
            // in `exchange_delta` — the counting/DRed engine consumes the
            // fold directly, so a duplicated or unsorted key would
            // corrupt its support accounting. Assert the wire invariant.
            debug_assert!(
                rows.windows(2).all(|w| w[0].0 < w[1].0),
                "exchange delta rows must be sorted and key-unique"
            );
            let mirror = self.foreign.entry(table.clone()).or_default();
            let queued = self.exchange_in.entry(table).or_default();
            for (key, new) in rows {
                match &new {
                    Some(row) => {
                        mirror.insert(key.clone(), row.clone());
                    }
                    None => {
                        mirror.remove(&key);
                    }
                }
                queued.insert(key, new);
            }
        }
    }

    // ---- recovery journal ------------------------------------------------

    /// Enable or disable the recovery journal. While enabled, every
    /// committed base-state mutation (tables, scalars, mailbox queues) is
    /// noted first-touch, and [`Transducer::take_journal_delta`] drains
    /// the notes into replayable [`JournalDelta`] records. Off by default;
    /// independent of the evaluation mode.
    pub fn set_journaling(&mut self, on: bool) {
        if on {
            if self.pending.journal.is_none() {
                self.pending.journal = Some(JournalNotes {
                    last_next_msg_id: self.next_msg_id,
                    last_tick_no: self.tick_no,
                    ..JournalNotes::default()
                });
            }
        } else {
            self.pending.journal = None;
        }
    }

    /// Whether the recovery journal is currently recording.
    pub fn journaling(&self) -> bool {
        self.pending.journal.is_some()
    }

    /// Capture a full [`Checkpoint`] of the current replayable state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            state: self.state.clone(),
            mailboxes: self.mailboxes.clone(),
            next_msg_id: self.next_msg_id,
            tick_no: self.tick_no,
        }
    }

    /// Drain the recovery journal into one [`JournalDelta`] covering every
    /// change since the previous drain (or since journaling was enabled).
    /// Returns `None` when journaling is off or literally nothing happened
    /// — no noted mutation and unchanged counters. Note that `tick_no`
    /// advances on every tick, so a live instance yields a (possibly
    /// state-empty) record per tick: the delta stream doubles as a
    /// liveness signal for whoever consumes it.
    ///
    /// Entries carry *final* values and are sorted, so the same history
    /// always drains to the same bytes.
    pub fn take_journal_delta(&mut self) -> Option<JournalDelta> {
        let j = self.pending.journal.as_mut()?;
        if j.tables.is_empty()
            && j.scalars.is_empty()
            && j.mailboxes.is_empty()
            && j.last_next_msg_id == self.next_msg_id
            && j.last_tick_no == self.tick_no
        {
            return None;
        }
        // Take the note maps out (releasing the `self.pending` borrow so
        // state lookups below can run), drain them rather than consuming
        // them, and hand the emptied maps back — the outer maps to the
        // journal, the per-table first-touch maps to the shared
        // `table_pool` — so a steady-state drain cycle allocates no fresh
        // maps (the serving loop drains once per micro-batch tick).
        let mut tables = std::mem::take(&mut j.tables);
        let mut scalars = std::mem::take(&mut j.scalars);
        let mut mailboxes = std::mem::take(&mut j.mailboxes);
        j.last_next_msg_id = self.next_msg_id;
        j.last_tick_no = self.tick_no;

        let mut delta = JournalDelta {
            next_msg_id: self.next_msg_id,
            tick_no: self.tick_no,
            ..JournalDelta::default()
        };
        for (table, mut keys) in tables.drain() {
            let current = self.state.tables.get(&table);
            for (key, old) in keys.drain() {
                let new = current.and_then(|t| t.get(&key));
                if old.as_ref() == new {
                    continue; // rolled back / rewritten to the original
                }
                delta.tables.push((table.clone(), key, new.cloned()));
            }
            self.pending.table_pool.push(keys);
        }
        delta.tables.sort();
        for (name, old) in scalars.drain() {
            let current = self.state.scalars.get(&name);
            if current == Some(&old) {
                continue;
            }
            if let Some(v) = current {
                delta.scalars.push((name, v.clone()));
            }
        }
        delta.scalars.sort();
        for m in mailboxes.drain() {
            let queue = self.mailboxes.get(&m).cloned().unwrap_or_default();
            delta.mailboxes.push((m, queue));
        }
        delta.mailboxes.sort_by(|a, b| a.0.cmp(&b.0));
        let j = self.pending.journal.as_mut().expect("journal still on");
        j.tables = tables;
        j.scalars = scalars;
        j.mailboxes = mailboxes;
        Some(delta)
    }

    /// Rebuild a replacement instance over `core` from a checkpoint image:
    /// [`Transducer::from_core`] with the captured tables, scalars,
    /// mailbox queues and counters installed. Evaluation state is rebuilt
    /// lazily from the restored base on the next tick, so the replacement
    /// is observably bit-identical to the checkpointed instance. UDFs must
    /// be re-registered by the caller (closures don't journal), and
    /// journaling starts off.
    pub fn restore(core: Arc<ProgramCore>, checkpoint: &Checkpoint) -> Transducer {
        let mut t = Transducer::from_core(core);
        t.state = checkpoint.state.clone();
        t.mailboxes = checkpoint.mailboxes.clone();
        t.next_msg_id = checkpoint.next_msg_id;
        t.tick_no = checkpoint.tick_no;
        t
    }

    /// Whether a mailbox exists on this transducer (handler or declared).
    pub fn has_mailbox(&self, name: &str) -> bool {
        self.mailboxes.contains_key(name)
    }

    /// Build the snapshot database: tables (local partition plus any
    /// exchange-received foreign mirror) + mailbox relations.
    fn snapshot_db(&self) -> Database {
        let mut db = Database::default();
        for (name, rows) in &self.state.tables {
            let foreign = self.foreign.get(name);
            db.insert(
                name.clone(),
                Relation::from_rows(
                    rows.values()
                        .cloned()
                        .chain(foreign.into_iter().flat_map(|f| f.values().cloned())),
                ),
            );
        }
        for (name, msgs) in &self.mailboxes {
            db.insert(
                name.clone(),
                Relation::from_rows(msgs.iter().map(|m| m.row.clone())),
            );
        }
        db
    }

    /// Execute one tick of the transducer loop.
    pub fn tick(&mut self) -> Result<TickOutput, TransducerError> {
        self.tick_no += 1;
        self.udfs.start_tick();
        match self.eval_mode {
            EvalMode::Incremental => self.tick_incremental(),
            EvalMode::FreshSemiNaive => self.tick_fresh(false),
            EvalMode::FreshNaive => self.tick_fresh(true),
        }
    }

    /// The fresh-per-tick paths: snapshot the whole state, re-derive every
    /// view, rebuild the key indexes. Kept as differential references and
    /// benchmark baselines for the incremental engine.
    fn tick_fresh(&mut self, naive: bool) -> Result<TickOutput, TransducerError> {
        // The journal only feeds the incremental engine; a fresh tick
        // re-reads everything, and any later switch back to incremental
        // mode rebuilds from state, so stale entries are dropped.
        self.pending.clear();
        self.eval = None;

        // 1–2: snapshot + views to fixpoint.
        let base = self.snapshot_db();
        let scalars: FxHashMap<String, Value> = self
            .state
            .scalars
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let db = if naive {
            crate::eval::evaluate_views_naive(&self.core.program, &base, &scalars, &mut self.udfs)?
        } else {
            evaluate_views(&self.core.program, &base, &scalars, &mut self.udfs)?
        };
        let key_index = build_key_indexes(&self.core.program, &base);
        // One index set for the tick's handlers: `db` no longer changes.
        self.run_handlers(Snapshot {
            db: &db,
            scalars: &scalars,
            key_index: &key_index,
            cache: &mut ScanCache::default(),
        })
    }

    /// The incremental path: fold the effect journal of the previous tick
    /// into per-relation deltas, maintain the persistent materialized
    /// views from them (see [`EvalState::evaluate`]), and run handlers
    /// against the persistent database. A no-op tick (empty journal)
    /// skips view evaluation entirely.
    fn tick_incremental(&mut self) -> Result<TickOutput, TransducerError> {
        let mut eval = match self.eval.take() {
            Some(e) => e,
            None => {
                self.pending.clear();
                self.rebuild_eval_state()?
            }
        };

        // Fold the journal into deltas. First-touch originals are compared
        // against final state, so rolled-back effects vanish here. The
        // three eval maps are drained individually — `pending.journal`
        // (the recovery journal) has its own drain cycle and must survive
        // the tick.
        // Scratch maps and deltas come from the evaluation state's
        // recycling pools (refilled after each evaluation), so this fold
        // allocates nothing in the steady state; the emptied first-touch
        // maps return to the journal's own pool the same way.
        let mut pending_tables = std::mem::take(&mut self.pending.tables);
        let pending_scalars = std::mem::take(&mut self.pending.scalars);
        let pending_mailboxes = std::mem::take(&mut self.pending.mailboxes);
        let mut changed: FxHashMap<String, RelDelta> = eval.take_changed_scratch();
        for (table, mut keys) in pending_tables.drain() {
            let current = self.state.tables.get(&table);
            let mut delta = eval.pooled_delta();
            let mut touched = false;
            for (key, old) in keys.drain() {
                let new = current.and_then(|t| t.get(&key));
                if old.as_ref() == new {
                    continue;
                }
                touched = true;
                eval.note_key_transition(&table, key, old, new, &mut delta);
            }
            self.pending.table_pool.push(keys);
            // A key transition can net to an *empty* row-set delta (two
            // keys holding identical rows), yet still change what keyed
            // expressions (`FieldOf`/`RowOf`/`HasKey`) observe — so any
            // touched table must be marked changed for the non-monotone
            // classification, not just tables whose row set moved.
            if touched {
                changed.insert(table, delta);
            } else {
                eval.recycle_delta(delta);
            }
        }
        self.pending.tables = pending_tables;
        // Fold exchange-received foreign transitions exactly like local
        // journal entries: previous foreign value looked up in the
        // persistent key index (shard partitions are key-disjoint, so a
        // foreign key can never collide with a local fold above), no-op
        // transitions skipped, deltas merged with any local delta for the
        // same table.
        for (table, keys) in std::mem::take(&mut self.exchange_in) {
            let locally_touched = changed.contains_key(&table);
            let mut delta = changed
                .remove(&table)
                .unwrap_or_else(|| eval.pooled_delta());
            let mut touched = locally_touched;
            for (key, new) in keys {
                let old = eval.key_index.get(&table).and_then(|t| t.get(&key)).cloned();
                if old.as_ref() == new.as_ref() {
                    continue;
                }
                touched = true;
                eval.note_key_transition(&table, key, old, new.as_ref(), &mut delta);
            }
            if touched {
                changed.insert(table, delta);
            } else {
                eval.recycle_delta(delta);
            }
        }
        for m in pending_mailboxes {
            // Diff the queue against the materialized mailbox relation
            // without materializing a cloned `Relation` first: membership
            // goes through borrowed-row hash sets, so a resident message
            // that didn't move costs a hash probe, never a row clone. A
            // mailbox whose queue and materialized relation are both
            // empty (enqueued and drained within one tick) is skipped
            // outright. Orders are preserved exactly as `RelDelta::diff`
            // produced them: removals in materialized insertion order,
            // additions in queue first-occurrence order.
            let queue: &[Message] = self.mailboxes.get(&m).map_or(&[], Vec::as_slice);
            if queue.is_empty() && eval.db.get(&m).is_none_or(Relation::is_empty) {
                continue;
            }
            let mut delta = eval.pooled_delta();
            let old = eval.db.get(&m);
            let queue_rows: FxHashSet<&Row> = queue.iter().map(|msg| &msg.row).collect();
            if let Some(old) = old {
                for row in old.iter() {
                    if !queue_rows.contains(row) {
                        delta.removed.push(row.clone());
                    }
                }
            }
            let mut seen: FxHashSet<&Row> = FxHashSet::default();
            for msg in queue {
                if seen.insert(&msg.row) && !old.is_some_and(|o| o.contains(&msg.row)) {
                    delta.added.push(msg.row.clone());
                }
            }
            if !delta.is_empty() {
                changed.insert(m, delta);
            } else {
                eval.recycle_delta(delta);
            }
        }
        let mut changed_scalars: FxHashSet<String> = FxHashSet::default();
        for (name, old) in pending_scalars {
            let current = self.state.scalars.get(&name);
            if current != Some(&old) {
                changed_scalars.insert(name.clone());
            }
            // Keep the persistent scalar snapshot in sync (journaled
            // scalars only — unchanged ones are already mirrored).
            match current {
                Some(v) => {
                    eval.scalars.insert(name, v.clone());
                }
                None => {
                    eval.scalars.remove(&name);
                }
            }
        }
        for (rel, delta) in &changed {
            eval.apply_base_delta(rel, delta);
        }

        // 1–2 (incremental): views maintained from the deltas. On error
        // `eval` is dropped (partially updated), and the next tick
        // rebuilds it from state — errors stay reproducible.
        eval.evaluate(&self.core.program, changed, &changed_scalars, &mut self.udfs)?;
        // Handlers probe the indexes view maintenance keeps current.
        let out = self.run_handlers(Snapshot {
            db: &eval.db,
            scalars: &eval.scalars,
            key_index: &eval.key_index,
            cache: &mut eval.cache,
        });
        if out.is_ok() {
            self.eval = Some(eval);
        }
        out
    }

    /// Rebuild the persistent evaluation state from the current tables,
    /// scalars and mailboxes (first incremental tick, or recovery after an
    /// evaluation error).
    fn rebuild_eval_state(&self) -> Result<EvalState, TransducerError> {
        let mut eval = EvalState::with_plan(&self.core.program, Arc::clone(&self.core.plan));
        eval.scalars = self
            .state
            .scalars
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (name, rows) in &self.state.tables {
            for (key, row) in rows {
                eval.seed_table_row(name, key.clone(), row.clone());
            }
        }
        // Exchange-received foreign rows are part of this instance's view
        // of the table, just not of its owned partition.
        for (name, rows) in &self.foreign {
            for (key, row) in rows {
                eval.seed_table_row(name, key.clone(), row.clone());
            }
        }
        for (name, msgs) in &self.mailboxes {
            for m in msgs {
                eval.seed_row(name, m.row.clone());
            }
        }
        if !self.skip_view_heads.is_empty() {
            eval.set_skip_heads(self.skip_view_heads.iter().cloned());
        }
        eval.set_counting(self.counting);
        Ok(eval)
    }

    /// Steps 3–5 of the tick, shared by every evaluation mode: run
    /// handlers against the tick-start snapshot `snap`, apply effects,
    /// monitor functional dependencies.
    fn run_handlers(&mut self, mut snap: Snapshot<'_>) -> Result<TickOutput, TransducerError> {
        // 3: run handlers against the snapshot, recording effects. Tables
        // written anywhere this tick are collected for FD monitoring.
        // Serialized handlers additionally read committed mid-tick state
        // through `mirror` — the *persistent* mirror carried across ticks
        // on `self.serial_mirror` (taken here, put back at the end), built
        // lazily on the first serialized message ever and updated
        // incrementally as effects land. An early error return leaves it
        // `None`; the next serialized message re-clones.
        let mut groups: Vec<EffectGroup<'_>> = Vec::new();
        let mut touched: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut out = TickOutput::default();
        let mut mirror: Option<TickMirror> = self.serial_mirror.take();
        // One frame for the whole handler phase: reset (cheap — a handful
        // of slots) and refilled per invocation. Param binding is an
        // indexed store; no per-message map allocation or string hashing.
        let mut frame = Frame::default();
        let core = Arc::clone(&self.core);
        for (handler, consistency, compiled) in core.handlers.iter() {
            let invariants = consistency.invariants.as_slice();
            // Serializable handlers (and any handler carrying invariants)
            // execute *serially against current state*, each message seeing
            // the committed effects of the previous one — the enforcement
            // mechanism §7 says the compiler must interpose. Everything
            // else reads the tick-start snapshot and defers its effects.
            let serial = consistency.level == crate::facets::ConsistencyLevel::Serializable
                || !invariants.is_empty();
            match &handler.trigger {
                Trigger::OnMessage => {
                    let msgs = self
                        .mailboxes
                        .get(&handler.name)
                        .cloned()
                        .unwrap_or_default();
                    for msg in &msgs {
                        frame.reset(compiled.names.len());
                        for (&s, v) in compiled.param_slots.iter().zip(msg.row.iter()) {
                            frame.replace(s, Some(v.clone()));
                        }
                        frame.replace(compiled.msg_id_slot, Some(Value::Int(msg.id as i64)));
                        let resp_start = out.responses.len();
                        let mut group = EffectGroup {
                            handler: &handler.name,
                            message_id: Some(msg.id),
                            effects: Vec::new(),
                            invariants,
                            inv_keys: compiled.capture_inv_keys(&frame),
                            resp_range: resp_start..resp_start,
                        };
                        // A serialized message reads the current scalars
                        // and table keys — prior serialized commits of
                        // this tick included — through the mirror,
                        // maintained incrementally across messages.
                        let (scalars, key_index) = if serial {
                            let m = mirror.get_or_insert_with(|| TickMirror {
                                key_index: snap.key_index.clone(),
                                scalars: snap.scalars.clone(),
                            });
                            (&m.scalars, &m.key_index)
                        } else {
                            (snap.scalars, snap.key_index)
                        };
                        let mut reads = Snapshot {
                            db: snap.db,
                            scalars,
                            key_index,
                            cache: &mut *snap.cache,
                        };
                        self.exec_stmts(
                            &compiled.body,
                            &compiled.names,
                            &mut frame,
                            &mut reads,
                            &mut group,
                            &mut out,
                            handler,
                            Some(msg.id),
                        )?;
                        group.resp_range = resp_start..out.responses.len();
                        if serial {
                            // Commit immediately (transactionally if
                            // invariants are present).
                            touched.extend(touched_tables(&group.effects));
                            self.apply_group(group, &mut out, mirror.as_mut())?;
                        } else {
                            groups.push(group);
                        }
                        out.messages_processed += 1;
                    }
                    // Message handlers consume their mailbox at end of tick.
                    if let Some(q) = self.mailboxes.get_mut(&handler.name) {
                        if !q.is_empty() {
                            q.clear();
                            self.pending.note_mailbox(&handler.name);
                        }
                    }
                }
                Trigger::OnCondition(_) => {
                    if !self.run_condition_handlers {
                        continue;
                    }
                    frame.reset(compiled.names.len());
                    let cond = compiled.cond.as_ref().expect("condition trigger compiled");
                    let fire = self
                        .eval(cond, &compiled.names, &mut frame, &mut snap)?
                        .as_bool()
                        .unwrap_or(false);
                    if fire {
                        let resp_start = out.responses.len();
                        let mut group = EffectGroup {
                            handler: &handler.name,
                            message_id: None,
                            effects: Vec::new(),
                            invariants,
                            inv_keys: compiled.capture_inv_keys(&frame),
                            resp_range: resp_start..resp_start,
                        };
                        self.exec_stmts(
                            &compiled.body,
                            &compiled.names,
                            &mut frame,
                            &mut snap,
                            &mut group,
                            &mut out,
                            handler,
                            None,
                        )?;
                        group.resp_range = resp_start..out.responses.len();
                        groups.push(group);
                    }
                }
            }
        }

        // 4: apply effects atomically; invariant groups transactionally.
        // The serialized-handler mirror survives the tick now, so these
        // commits maintain it too — it must keep tracking committed state
        // for the next tick's serialized messages.
        for group in &groups {
            touched.extend(touched_tables(&group.effects));
        }
        for group in groups {
            self.apply_group(group, &mut out, mirror.as_mut())?;
        }
        self.serial_mirror = mirror;

        // 5: functional dependencies (§5 relational constraints) are
        // monitored on every table written this tick. Transactional
        // handlers already rolled back on violation (see
        // `postconditions_hold`); anything that slipped through an
        // eventually-consistent handler is surfaced as a warning rather
        // than silently accepted.
        for table in touched {
            out.warnings.extend(self.fd_warnings(&table));
        }

        Ok(out)
    }

    /// Check every FD of `table` against current state; one message per
    /// violated dependency.
    fn fd_warnings(&self, table: &str) -> Vec<String> {
        let Some(decl) = self.core.program.table(table) else {
            return Vec::new();
        };
        if decl.fds.is_empty() {
            return Vec::new();
        }
        let Some(rows) = self.state.tables.get(table) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for fd in &decl.fds {
            if let Some((a, b)) = decl.fd_violation(fd, rows.values().map(|r| r.as_slice())) {
                out.push(format!(
                    "table {table:?}: functional dependency `{}` violated by rows {a:?} and {b:?}",
                    decl.fd_display(fd)
                ));
            }
        }
        out
    }

    /// Convenience driver: repeatedly tick, re-delivering any sends whose
    /// mailbox exists locally (immediate, in-order delivery — the
    /// zero-delay schedule). External sends accumulate in the returned
    /// output. Stops when quiescent or after `max_ticks`.
    pub fn run_to_quiescence(&mut self, max_ticks: usize) -> Result<TickOutput, TransducerError> {
        let mut all = TickOutput::default();
        for _ in 0..max_ticks {
            let pending: usize = self.mailboxes.values().map(Vec::len).sum();
            if pending == 0 {
                break;
            }
            let out = self.tick()?;
            all.responses.extend(out.responses);
            all.warnings.extend(out.warnings);
            all.messages_processed += out.messages_processed;
            for send in out.sends {
                if self.has_mailbox(&send.mailbox) {
                    self.enqueue(&send.mailbox, send.row)?;
                } else {
                    all.sends.push(send);
                }
            }
        }
        Ok(all)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_stmts(
        &mut self,
        stmts: &[CStmt],
        names: &[String],
        frame: &mut Frame,
        snap: &mut Snapshot<'_>,
        group: &mut EffectGroup<'_>,
        out: &mut TickOutput,
        handler: &Handler,
        msg_id: Option<u64>,
    ) -> Result<(), TransducerError> {
        for stmt in stmts {
            match stmt {
                CStmt::Merge(target, expr) => {
                    let value = self.eval(expr, names, frame, snap)?;
                    match target {
                        CMergeTarget::Scalar(name) => {
                            group.effects.push(Effect::MergeScalar(name.clone(), value));
                        }
                        CMergeTarget::TableField { table, key, field } => {
                            let (key, col) =
                                self.resolve_field(table, key, field, names, frame, snap)?;
                            group.effects.push(Effect::MergeField {
                                table: table.clone(),
                                key,
                                col,
                                value,
                            });
                        }
                    }
                }
                CStmt::Assign(target, expr) => {
                    let value = self.eval(expr, names, frame, snap)?;
                    match target {
                        CAssignTarget::Scalar(name) => {
                            group
                                .effects
                                .push(Effect::AssignScalar(name.clone(), value));
                        }
                        CAssignTarget::TableField { table, key, field } => {
                            let (key, col) =
                                self.resolve_field(table, key, field, names, frame, snap)?;
                            group.effects.push(Effect::AssignField {
                                table: table.clone(),
                                key,
                                col,
                                value,
                            });
                        }
                    }
                }
                CStmt::Insert { table, values } => {
                    let expected = self
                        .core
                        .program
                        .table(table)
                        .ok_or_else(|| TransducerError::Unknown(table.clone()))?
                        .arity();
                    if values.len() != expected {
                        return Err(TransducerError::InsertArity {
                            table: table.clone(),
                            given: values.len(),
                            expected,
                        });
                    }
                    let row: Row = values
                        .iter()
                        .map(|e| self.eval(e, names, frame, snap))
                        .collect::<Result<_, _>>()?;
                    group.effects.push(Effect::InsertRow {
                        table: table.clone(),
                        row,
                    });
                }
                CStmt::Delete { table, key } => {
                    let k = self.eval(key, names, frame, snap)?;
                    let key_row = key_row_of(k);
                    group.effects.push(Effect::DeleteRow {
                        table: table.clone(),
                        key: key_row,
                    });
                }
                CStmt::Send { mailbox, select } => {
                    let rows = self.eval_select_rows(select, names, frame, snap)?;
                    for row in rows {
                        out.sends.push(SendOut {
                            mailbox: mailbox.clone(),
                            row,
                            handler: handler.name.clone(),
                            source_msg: msg_id.unwrap_or(0),
                        });
                    }
                }
                CStmt::Return(expr) => {
                    let value = self.eval(expr, names, frame, snap)?;
                    if let Some(id) = msg_id {
                        out.responses.push(Response {
                            handler: handler.name.clone(),
                            message_id: id,
                            value: value.clone(),
                        });
                        out.sends.push(SendOut {
                            mailbox: response_mailbox(&handler.name),
                            row: vec![Value::Int(id as i64), value],
                            handler: handler.name.clone(),
                            source_msg: id,
                        });
                    }
                }
                CStmt::If { cond, then, els } => {
                    let c = self
                        .eval(cond, names, frame, snap)?
                        .as_bool()
                        .unwrap_or(false);
                    let branch = if c { then } else { els };
                    self.exec_stmts(branch, names, frame, snap, group, out, handler, msg_id)?;
                }
                CStmt::ForEach { select, vars, stmts } => {
                    // Evaluate the comprehension (its projection is the
                    // bindable variables), then run the nested statements
                    // once per match, spreading each row into the slots via
                    // the frame's value-preserving save stack — priors are
                    // restored by mark/truncate, so the enclosing scope
                    // (and the next match) is undisturbed and no per-match
                    // `Vec` is allocated. The matches are fully
                    // materialized *before* any nested statement runs,
                    // preserving the reference's effect and UDF ordering.
                    let rows = self.eval_select_rows(select, names, frame, snap)?;
                    for row in rows {
                        let mark = frame.save_mark();
                        for (&s, v) in vars.iter().zip(row) {
                            frame.save_replace(s, Some(v));
                        }
                        let run =
                            self.exec_stmts(stmts, names, frame, snap, group, out, handler, msg_id);
                        frame.restore_saved(mark);
                        run?;
                    }
                }
                CStmt::ClearMailbox(name) => {
                    group.effects.push(Effect::ClearMailbox(name.clone()));
                }
            }
        }
        Ok(())
    }

    /// The evaluation context of one handler expression: the snapshot with
    /// its scan indexes, and this instance's program and UDFs.
    fn ctx<'a>(&'a mut self, snap: &'a mut Snapshot<'_>) -> crate::eval::EvalCtx<'a> {
        crate::eval::EvalCtx {
            program: &self.core.program,
            db: snap.db,
            scalars: snap.scalars,
            key_index: snap.key_index,
            udfs: &mut self.udfs,
            scan_cache: snap.cache,
        }
    }

    fn eval(
        &mut self,
        expr: &CExpr,
        names: &[String],
        frame: &mut Frame,
        snap: &mut Snapshot<'_>,
    ) -> Result<Value, TransducerError> {
        Ok(eval_cexpr(expr, frame, names, &mut self.ctx(snap))?)
    }

    fn eval_select_rows(
        &mut self,
        select: &CSelect,
        names: &[String],
        frame: &mut Frame,
        snap: &mut Snapshot<'_>,
    ) -> Result<Vec<Row>, TransducerError> {
        Ok(eval_cselect(select, frame, names, &mut self.ctx(snap))?)
    }

    /// Resolve a `table[key].field` target to (key row, column index).
    fn resolve_field(
        &mut self,
        table: &str,
        key: &CExpr,
        field: &str,
        names: &[String],
        frame: &mut Frame,
        snap: &mut Snapshot<'_>,
    ) -> Result<(Row, usize), TransducerError> {
        let decl = self.core.program
            .table(table)
            .ok_or_else(|| TransducerError::Unknown(table.to_string()))?;
        let col = decl
            .column_index(field)
            .ok_or_else(|| TransducerError::Unknown(format!("{table}.{field}")))?;
        // Key columns are the row's identity: rewriting one in place would
        // detach the stored row from its key, making every keyed read
        // ambiguous. Enforced here so the invariant "storage key ==
        // key_of(row)" holds for all evaluation engines.
        if decl.key.contains(&col) {
            return Err(TransducerError::KeyColumn {
                table: table.to_string(),
                column: field.to_string(),
            });
        }
        let k = self.eval(key, names, frame, snap)?;
        Ok((key_row_of(k), col))
    }

    /// Apply one effect group; transactional if it carries invariants.
    /// `mirror`, when present, is kept consistent with the state — through
    /// rollbacks included.
    fn apply_group(
        &mut self,
        mut group: EffectGroup<'_>,
        out: &mut TickOutput,
        mut mirror: Option<&mut TickMirror>,
    ) -> Result<(), TransducerError> {
        if group.invariants.is_empty() {
            let effects = std::mem::take(&mut group.effects);
            for e in effects {
                self.apply_effect(e, out, mirror.as_deref_mut())?;
            }
            return Ok(());
        }
        // Preconditions (referential integrity) are checked against the
        // pre-state: a merge must not be allowed to conjure the row that
        // would justify it.
        if !self.preconditions_hold(&group)? {
            self.reject_group(&group, out);
            return Ok(());
        }
        // Transactional: snapshot, apply, check postconditions,
        // commit-or-rollback. Declared functional dependencies on the
        // tables this group wrote count as postconditions. The snapshot
        // covers *only what the group writes* — the first-touch original
        // of every (table, key) its effects name and of every scalar they
        // set — so a guarded message costs O(|its writes|), not O(|state|).
        // Mailbox clears live outside `State` and are not transactional
        // (the old whole-state clone never covered them either).
        let touched = touched_tables(&group.effects);
        let mut saved_rows: FxHashMap<(String, Row), Option<Row>> = FxHashMap::default();
        let mut saved_scalars: FxHashMap<String, Value> = FxHashMap::default();
        {
            let mut save_row = |state: &State, table: &str, key: &Row| {
                saved_rows
                    .entry((table.to_string(), key.clone()))
                    .or_insert_with(|| state.tables.get(table).and_then(|t| t.get(key)).cloned());
            };
            for e in &group.effects {
                match e {
                    Effect::MergeScalar(name, _) | Effect::AssignScalar(name, _) => {
                        if let Some(v) = self.state.scalars.get(name) {
                            saved_scalars
                                .entry(name.clone())
                                .or_insert_with(|| v.clone());
                        }
                    }
                    Effect::MergeField { table, key, .. }
                    | Effect::AssignField { table, key, .. }
                    | Effect::DeleteRow { table, key } => save_row(&self.state, table, key),
                    Effect::InsertRow { table, row } => {
                        if let Some(decl) = self.core.program.table(table) {
                            let key = decl.key_of(row);
                            save_row(&self.state, table, &key);
                        }
                    }
                    Effect::ClearMailbox(_) => {}
                }
            }
        }
        let effects = std::mem::take(&mut group.effects);
        for e in effects {
            self.apply_effect(e, out, mirror.as_deref_mut())?;
        }
        if self.postconditions_hold(&group)?
            && touched.iter().all(|t| self.fd_warnings(t).is_empty())
        {
            return Ok(());
        }
        // Roll back: put the first-touch originals back and re-mirror
        // exactly the touched entries — the mirror, like the state, is
        // repaired per key, never re-cloned wholesale. (Restores are
        // per-key independent, so the map's iteration order is
        // immaterial.)
        for ((table, key), old) in saved_rows {
            if let Some(t) = self.state.tables.get_mut(&table) {
                match old {
                    Some(row) => {
                        t.insert(key.clone(), row);
                    }
                    None => {
                        t.remove(&key);
                    }
                }
            }
            if let Some(m) = mirror.as_deref_mut() {
                m.refresh_row(&self.state, &table, &key);
            }
        }
        for (name, old) in saved_scalars {
            if let Some(m) = mirror.as_deref_mut() {
                m.scalars.insert(name.clone(), old.clone());
            }
            self.state.scalars.insert(name, old);
        }
        self.reject_group(&group, out);
        Ok(())
    }

    /// Replace the optimistic OK responses this group produced with ABORT
    /// and record a warning. The group's recorded response range makes
    /// this O(|its own replies|) — abort-heavy ticks no longer rescan
    /// every response per rolled-back group.
    fn reject_group(&mut self, group: &EffectGroup<'_>, out: &mut TickOutput) {
        if let Some(id) = group.message_id {
            for r in &mut out.responses[group.resp_range.clone()] {
                if r.message_id == id && r.handler == group.handler {
                    r.value = Value::Str("ABORT".to_string());
                }
            }
        }
        out.warnings.push(format!(
            "handler {:?} message {:?}: invariant violated, effects rolled back",
            group.handler, group.message_id
        ));
    }

    /// Referential-integrity preconditions, evaluated on the pre-state
    /// against the key values captured at group creation.
    fn preconditions_hold(&self, group: &EffectGroup<'_>) -> Result<bool, TransducerError> {
        for (inv, key) in group.invariants.iter().zip(&group.inv_keys) {
            if let Invariant::HasKey { table, .. } = inv {
                let key_row = key_row_of(key.clone());
                let present = self
                    .state
                    .tables
                    .get(table)
                    .is_some_and(|t| t.contains_key(&key_row));
                if !present {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Value-range postconditions, evaluated on the post-state.
    fn postconditions_hold(&self, group: &EffectGroup<'_>) -> Result<bool, TransducerError> {
        for inv in group.invariants {
            if let Invariant::NonNegative(scalar) = inv {
                let v = self
                    .state
                    .scalars
                    .get(scalar)
                    .ok_or_else(|| TransducerError::Unknown(scalar.clone()))?;
                if v.as_int().is_some_and(|i| i < 0) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn apply_effect(
        &mut self,
        effect: Effect,
        out: &mut TickOutput,
        mirror: Option<&mut TickMirror>,
    ) -> Result<(), TransducerError> {
        match effect {
            Effect::MergeScalar(name, value) => {
                let decl = self.core.program
                    .scalar(&name)
                    .ok_or_else(|| TransducerError::Unknown(name.clone()))?;
                let Some(kind) = decl.lattice.clone() else {
                    return Err(TransducerError::NotMergeable(name));
                };
                let slot = self
                    .state
                    .scalars
                    .get_mut(&name)
                    .ok_or_else(|| TransducerError::Unknown(name.clone()))?;
                self.pending.note_scalar(&name, slot);
                kind.merge(slot, value)
                    .map_err(|e| TransducerError::Eval(EvalError::Type {
                        expected: "lattice-shaped value",
                        got: e.to_string(),
                    }))?;
                if let Some(m) = mirror {
                    m.scalars.insert(name, slot.clone());
                }
            }
            Effect::AssignScalar(name, value) => {
                let slot = self
                    .state
                    .scalars
                    .get_mut(&name)
                    .ok_or_else(|| TransducerError::Unknown(name.clone()))?;
                self.pending.note_scalar(&name, slot);
                *slot = value;
                if let Some(m) = mirror {
                    m.scalars.insert(name, slot.clone());
                }
            }
            Effect::MergeField {
                table,
                key,
                col,
                value,
            } => {
                let decl = self.core.program
                    .table(&table)
                    .ok_or_else(|| TransducerError::Unknown(table.clone()))?
                    .clone();
                let ColumnKind::Lattice(kind) = &decl.columns[col].kind else {
                    return Err(TransducerError::NotMergeable(format!(
                        "{table}.{}",
                        decl.columns[col].name
                    )));
                };
                // MapUnion semantics: merging into an absent key creates
                // the row at lattice bottom first, keeping merges total and
                // order-insensitive (required for CALM confluence).
                let tab = self
                    .state
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| TransducerError::Unknown(table.clone()))?;
                self.pending.note_table(&table, &key, tab.get(&key));
                let row = tab
                    .entry(key.clone())
                    .or_insert_with(|| bottom_row(&decl, &key));
                kind.merge(&mut row[col], value).map_err(|e| {
                    TransducerError::Eval(EvalError::Type {
                        expected: "lattice-shaped value",
                        got: e.to_string(),
                    })
                })?;
                if let Some(m) = mirror {
                    m.refresh_row(&self.state, &table, &key);
                }
            }
            Effect::AssignField {
                table,
                key,
                col,
                value,
            } => {
                if let Some(t) = self.state.tables.get(&table) {
                    self.pending.note_table(&table, &key, t.get(&key));
                }
                match self
                    .state
                    .tables
                    .get_mut(&table)
                    .and_then(|t| t.get_mut(&key))
                {
                    Some(row) => {
                        row[col] = value;
                        if let Some(m) = mirror {
                            m.refresh_row(&self.state, &table, &key);
                        }
                    }
                    None => out.warnings.push(format!(
                        "assign into missing row {key:?} of {table:?} ignored"
                    )),
                }
            }
            Effect::InsertRow { table, row } => {
                let decl = self.core.program
                    .table(&table)
                    .ok_or_else(|| TransducerError::Unknown(table.clone()))?
                    .clone();
                let key = decl.key_of(&row);
                let slot = self
                    .state
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| TransducerError::Unknown(table.clone()))?;
                self.pending.note_table(&table, &key, slot.get(&key));
                match slot.entry(key.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(row);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        // Upsert: lattice columns merge; atom columns
                        // overwrite (a non-monotone act the typechecker
                        // flags when it can happen).
                        let existing = e.get_mut();
                        for (i, v) in row.into_iter().enumerate() {
                            match &decl.columns[i].kind {
                                ColumnKind::Lattice(kind) => {
                                    kind.merge(&mut existing[i], v).map_err(|err| {
                                        TransducerError::Eval(EvalError::Type {
                                            expected: "lattice-shaped value",
                                            got: err.to_string(),
                                        })
                                    })?;
                                }
                                ColumnKind::Atom => existing[i] = v,
                            }
                        }
                    }
                }
                if let Some(m) = mirror {
                    m.refresh_row(&self.state, &table, &key);
                }
            }
            Effect::DeleteRow { table, key } => {
                if let Some(t) = self.state.tables.get_mut(&table) {
                    self.pending.note_table(&table, &key, t.get(&key));
                    t.remove(&key);
                }
                if let Some(m) = mirror {
                    m.refresh_row(&self.state, &table, &key);
                }
            }
            Effect::ClearMailbox(name) => {
                if let Some(q) = self.mailboxes.get_mut(&name) {
                    if !q.is_empty() {
                        q.clear();
                        self.pending.note_mailbox(&name);
                    }
                }
            }
        }
        Ok(())
    }
}

/// A fresh row at lattice bottom for a table: key columns take the key's
/// values, lattice columns their bottoms, atom columns `Null`.
fn bottom_row(decl: &crate::ast::TableDecl, key: &[Value]) -> Row {
    let mut row: Row = decl
        .columns
        .iter()
        .map(|c| match &c.kind {
            ColumnKind::Lattice(kind) => kind.bottom(),
            ColumnKind::Atom => Value::Null,
        })
        .collect();
    for (slot, v) in decl.key.iter().zip(key.iter()) {
        row[*slot] = v.clone();
    }
    row
}

/// Normalize a key expression value into a key row: tuples spread into
/// multi-column keys, anything else is a single-column key.
fn key_row_of(v: Value) -> Row {
    match v {
        Value::Tuple(parts) => parts,
        single => vec![single],
    }
}

fn collect_bound_vars(body: &[crate::ast::BodyAtom], vars: &mut Vec<String>) {
    use crate::ast::{BodyAtom, Term};
    for atom in body {
        match atom {
            BodyAtom::Scan { terms, .. } => {
                for t in terms {
                    if let Term::Var(v) = t {
                        if !vars.contains(v) {
                            vars.push(v.clone());
                        }
                    }
                }
            }
            BodyAtom::Let { var, .. } | BodyAtom::Flatten { var, .. } => {
                if !vars.contains(var) {
                    vars.push(var.clone());
                }
            }
            BodyAtom::Neg { .. } | BodyAtom::Guard(_) => {}
        }
    }
}
