//! Query evaluation: stratified, recursive, to fixpoint (§3.1) — and,
//! across ticks, **incrementally maintained**.
//!
//! Every declared view is computed over the database (tables + mailbox
//! relations). Rules are stratified — negation and aggregation may not be
//! entered recursively — and each stratum is run to fixpoint, so "the
//! results of a tick are independent of the order in which statements
//! appear in the program".
//!
//! # Semi-naive evaluation
//!
//! [`evaluate_views`] runs each stratum's recursive rules **semi-naively**
//! (the same algorithm the Hydroflow lowering in `hydrolysis` compiles to):
//!
//! * Round 0 evaluates every rule once over the snapshot; rows actually
//!   *new* to their head relation form the initial per-relation **delta**.
//! * Every later round evaluates, for each rule and each body atom that
//!   scans a same-stratum head, a *delta variant* of the rule: that atom
//!   ranges over the previous round's delta while every other atom ranges
//!   over the full (already-updated) relations. The union of newly
//!   inserted rows becomes the next delta; the stratum is done when a
//!   round inserts nothing.
//!
//! The delta invariant: at the start of round *k*, `full` holds every row
//! derivable in at most *k* rounds and `delta` exactly the rows first
//! derived in round *k − 1*. Any row first derivable in round *k* has a
//! derivation using at least one round-(*k − 1*) row, so constraining one
//! recursive atom to the delta loses nothing; joining the delta against
//! updated-full relations double-derives some rows, which deduplication
//! absorbs. Negation and aggregation read strictly lower strata
//! (stratification guarantees it), so their inputs are stable during the
//! fixpoint.
//!
//! Joins are **hash-indexed**: each scan probes a lazily built, composite
//! `(relation, bound columns) → row indexes` index (see [`ScanCache`]),
//! maintained incrementally as derived rows land. Bodies always evaluate
//! in source order — a delta variant *constrains* an atom, it never
//! reorders one, because reordering changes which errors are reachable
//! and how often stateful UDFs run (see `reference::BodyPlan`). [`evaluate_views_naive`]
//! retains the naive nested-loop evaluator as a differential-testing
//! reference; experiment E8 compares the two against the compiled path.
//!
//! # Compiled variable slots
//!
//! The engines never bind variables through a string-keyed map. A
//! **slot-resolution pass** ([`SlotCompiler`](slots::SlotCompiler)) runs once per compilation
//! unit — one rule, one aggregation rule, or one handler body — and maps
//! every distinct variable name to a dense index into that unit's
//! [`Frame`](slots::Frame): a `Vec<Option<Value>>` (`None` = unbound) sized to the
//! unit's variable count, reused across rows, rounds and ticks. The
//! compiled mirror of the AST (`CExpr` / `CAtom` / `CTerm` /
//! `CSelect`, in `slots.rs`) carries the resolved slots, so the per-row cost of a
//! binding is an indexed store — no hashing, no allocation.
//!
//! **Frame layout.** Slots are allocated in first-mention order over the
//! whole unit: for handlers, parameters first, then the implicit
//! `__msg_id`, then body variables (including every nested select's and
//! comprehension's variables — same name ⇒ same slot, scoping is
//! temporal, not spatial). The slot → name table survives only to render
//! `UnboundVar` errors identically to the reference.
//!
//! **Static boundness.** A body is a linear conjunction, so whether a
//! variable is bound at an atom is known at compile time: scan terms
//! compile to `CTerm::Check` (equality against the slot) or
//! `CTerm::Bind` (first occurrence), and each scan gets a static
//! `ProbeLayout` over the columns bound *before* it — exactly the
//! columns the reference's dynamic detection would probe.
//!
//! **Scope save/restore discipline.** Scan rows mark the frame's undo log
//! and truncate back after the sub-walk (or on a mid-terms mismatch);
//! `let`/`flatten` save the prior slot value locally and restore it, so
//! shadowing works like the map's insert-prior/restore dance; nested
//! `CollectSet` comprehensions evaluate in the same frame and restore by
//! the same two rules. A successful walk therefore leaves the frame
//! exactly as it found it; error paths abandon mid-walk and the next use
//! re-arms via `Frame::reset`.
//!
//! All three engines — cross-tick incremental, fresh semi-naive, fresh
//! naive — evaluate one shared compiled `RuleSet`, so error
//! reachability and stateful-UDF call order stay bit-identical across
//! them. The map-based evaluator ([`eval_select`] / [`eval_expr`] /
//! [`evaluate_views_mapref`]) is retained purely as the differential
//! reference that pins the slot pass (see `seminaive_differential.rs`).
//!
//! # Cross-tick incremental view maintenance
//!
//! [`EvalState`] extends the same delta argument *across ticks*: the
//! transducer owns a persistent materialized database (base relations and
//! views), persistent scan indexes, a persistent table-key mirror, and a
//! once-per-program compiled [`ProgramPlan`] — strata split into strongly
//! connected components (`EvalUnit`s) in dependency order, with
//! delta-variant tables and per-atom probe layouts precomputed. At tick
//! start, the effects committed by the previous tick become per-relation
//! *signed* [`RelDelta`]s (additions and retractions), and each unit is
//! classified (`state.rs`) by its shape and by what actually changed:
//!
//! | unit shape | change | `UnitMode` | strategy (`maintain.rs`) |
//! |---|---|---|---|
//! | any | none | `Clean` | skipped entirely — a no-op tick is O(1) in the database size |
//! | any | scalar read changed, or UDF-calling rules | `Recompute` | stateful/unbounded invalidation: remove every head row, re-derive (rows derived again revive in place), report the heads' uncommitted change |
//! | any | changed relation read under negation / nested comprehension / keyed table expression | `Recompute` | non-monotone read: any change can flip it, and it isn't delta-keyed |
//! | recursive SCC | inserts only | `Incremental` | semi-naive fixpoint seeded by the added input rows; landed rows are the delta |
//! | non-recursive rules | inserts and/or deletes on positive scans | `Counting` | signed expansion folded into per-row **support counts**; rows crossing zero appear/retract |
//! | aggregations (one rule per head) | inserts/deletes on positive scans only | `CountingAgg` | signed expansion folded into persistent per-group multisets; only touched groups re-fold and replace their head row |
//! | recursive SCC | any delete on a positive scan | `Dred` | **DRed**: over-delete the downward closure, re-derive survivors via head-bound checks, then the insertion fixpoint; the emitted delta is net |
//! | aggregations | non-monotone input changed, or multiple rules share a head | `Recompute` | group ownership is ambiguous or the body isn't delta-keyed |
//!
//! Every strategy is a composition of **one delta-round kernel** and one
//! of **three sinks**, all in `maintain.rs`:
//!
//! * *The kernel.* `delta_round` enumerates a round's delta variants —
//!   one body atom constrained to a slice of delta rows, the rest ranging over
//!   the full relations — from either source: the signed halves of the
//!   unit's changed inputs, or the rows the previous round landed, through
//!   the unit's same-SCC recursive scans. It is the only place a SIP
//!   variant is selected. `fixpoint` lands a round's derivations and runs
//!   the next wave until a landing yields nothing new.
//! * *Set sink* (`land`): a derived row new to its head is inserted and
//!   joins the next wave. Recompute, the insert-only path, DRed's survivor
//!   propagation and insertion phase — and the fresh semi-naive evaluator,
//!   which runs each stratum as one big unit — all land here; DRed's
//!   over-delete marking is the same fixpoint landing into a mark set.
//! * *Counting sink* and *aggregate sink*: `signed_expansion` reads the
//!   unit's changed inputs in their pre-tick state, walks them forward one
//!   relation at a time collecting `Row → i64` weight changes per rule, and
//!   the weights fold into a support table (rows crossing zero appear or
//!   retract) or into per-group multisets (touched groups re-emit).
//!
//! **Maintenance without roll-back.** No strategy writes a unit's inputs.
//! A [`Relation`] keeps what it held at its last commit next to what it
//! holds now: a removed row stays stored (and indexed) until the commit,
//! an added row sits above the commit watermark, and a row removed and
//! re-added keeps its slot. A scan reads one [`View`] of it — `New` (the
//! rows present now), `Old` (the pre-tick rows) or `Mid` (pre-tick rows
//! still present) — so the mixed-state walk of `signed_expansion` and
//! DRed's phases switch an input's view instead of removing and
//! re-applying its delta once per consuming unit. Delta atoms range over
//! the delta's rows as slices; no delta relation is built. At the end of
//! [`EvalState::evaluate`] every changed relation is committed once
//! (`ScanCache::commit`): its removed slots become tombstones and leave the
//! indexes, and tombstone-heavy relations compact — the only place they do.
//! Tombstones therefore accrue at the rate rows are actually deleted.
//!
//! Why these boundaries: counting is exact only where every derivation is
//! a finite conjunction of *current* facts — recursion breaks that (a
//! cyclic derivation supports itself, so counts never reach zero), hence
//! DRed for cyclic SCCs. Deletion maintenance needs multiplicities, so
//! once a unit has live support counts even insert-only ticks route
//! through counting (semi-naive dedups; counts must not). Support and
//! group state is built lazily on a unit's first counting tick and
//! dropped on any recompute (a recompute cannot tell which derivations
//! survived). [`EvalState::set_counting`]`(false)` disables the whole
//! deletion path — retractions then recompute per unit, which is kept as
//! the differential reference and the E19 benchmark baseline.
//!
//! **Sideways information passing.** An input delta feeding a rule at
//! atom position *p* used to evaluate that delta variant in source order,
//! paying for the scans before *p* (`tc(a,c) :- tc(a,b), Δcp(b,c)` walked
//! `tc` in full). Where the static reorder proof ([`crate::reorder`], PR 7)
//! licenses it — `rule_reorder_safe == true`, meaning no binding/arity
//! error is reachable under any admissible order — the delta atom is
//! hoisted first and the remaining atoms follow a greedy bound-column
//! order (`plan::sip_order`), so each subsequent scan probes the
//! [`ScanCache`] index on the columns the delta row already bound.
//! Rules without the proof keep source order and the old cost. The same
//! machinery compiles DRed's per-row derivability checks (`plan::CheckQuery`):
//! the head's variables are pre-bound, so a check is a keyed probe chain,
//! not a full rule evaluation.
//!
//! **One persistent index set.** Every `(relation, bound columns)` index
//! is built by the first probe of that shape and then only maintained. It
//! lists every stored slot that is not a tombstone, whatever the view, and
//! a probing scan keeps the positions its relation's view shows. Appended
//! rows report to it ([`ScanCache::note_insert`]); a removal or a revival
//! changes nothing; a commit drops its tombstoned positions
//! ([`ScanCache::note_remove`]) and, when the relation compacts, rewrites
//! the posting lists through the old → new position table (positions stay
//! ascending, so an index-driven scan still enumerates rows in insertion
//! order). A `Recompute` unit's heads keep their indexes too: re-derived
//! rows revive in their old slots. The tick's handlers read through the
//! same cache — the database is borrowed immutably while they run, so it
//! cannot go stale — which makes a keyed read of a view
//! (`{p2 for transitive(pid, p2)}`) cost its answer, not the view, and
//! makes the reader's index one more index the next tick's deltas keep
//! current. [`EvalState::index_builds`] counts full-relation builds; in
//! the steady state it does not move. [`EvalState::compactions`] counts
//! the compactions.
//!
//! # Module map
//!
//! | file | holds |
//! |---|---|
//! | `relation.rs` | [`Relation`] (insertion-ordered, with a commit watermark and old / new / mid [`View`]s; tombstoned at commit, compacted by renumbering), [`RelDelta`], [`Row`], [`Database`] |
//! | `scan_cache.rs` | [`ScanCache`]: `(relation, bound columns)` probe indexes, built on first probe, then maintained; commits and compacts relations |
//! | `slots.rs` | the slot pass and the compiled-body interpreter (`SlotCompiler`, `Frame`, `CExpr`/`CAtom`, `eval_cexpr`, `eval_cbody`) |
//! | `plan.rs` | [`stratify`], the compiled `RuleSet`, SIP/check compilation, [`ProgramPlan`] and its `EvalUnit`s |
//! | `maintain.rs` | the delta-round kernel, its three sinks, DRed — none of which writes a unit's inputs |
//! | `state.rs` | [`EvalState`]: the persistent database and per-tick unit classification |
//! | `fresh.rs` | [`evaluate_views`] / [`evaluate_views_naive`]: the fresh-per-call engines over one stratum skeleton; the naive fixpoint, which a fresh naive tick's [`EvalState`] also recomputes its units with |
//! | `reference.rs` | the map-based evaluator ([`eval_expr`], [`eval_select`], [`evaluate_views_mapref`]) — shares neither the slot pass nor the compiled interpreter with production, which is why the differential suites compare against it |

mod fresh;
mod maintain;
mod plan;
mod reference;
mod relation;
mod scan_cache;
mod slots;
mod state;

pub use fresh::{evaluate_views, evaluate_views_naive};
pub use plan::{stratify, ProgramPlan};
pub use reference::{eval_expr, eval_select, evaluate_views_mapref, Bindings};
pub use relation::{Database, Inserted, RelDelta, RelIter, Relation, Row, View};
pub use scan_cache::ScanCache;
pub(crate) use slots::{eval_cexpr, eval_cselect, CExpr, CSelect, Frame, SlotCompiler};
pub use state::EvalState;

use crate::ast::Program;
use crate::value::Value;
use rustc_hash::FxHashMap;

/// Errors surfaced during evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// Referenced an unbound variable.
    UnboundVar(String),
    /// Referenced an unknown relation.
    UnknownRelation(String),
    /// Referenced an unknown scalar.
    UnknownScalar(String),
    /// Referenced an unknown table.
    UnknownTable(String),
    /// Referenced an unknown column.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// Called an unregistered UDF.
    UnknownUdf(String),
    /// A scan pattern's arity disagrees with the relation.
    ArityMismatch {
        /// Relation name.
        rel: String,
        /// Arity expected by the pattern.
        expected: usize,
        /// Actual relation arity.
        actual: usize,
    },
    /// A value had the wrong type for an operation.
    Type {
        /// What the operation needed.
        expected: &'static str,
        /// Rendering of what it got.
        got: String,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// The rule set cannot be stratified (negation/aggregation in a cycle).
    NotStratifiable(String),
    /// A head is defined by both an aggregation rule and a plain rule —
    /// the two derivations cannot be maintained independently.
    AggPlainHead(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnboundVar(v) => write!(f, "unbound variable {v:?}"),
            EvalError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            EvalError::UnknownScalar(s) => write!(f, "unknown scalar {s:?}"),
            EvalError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            EvalError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column:?} of table {table:?}")
            }
            EvalError::UnknownUdf(u) => write!(f, "unknown UDF {u:?}"),
            EvalError::ArityMismatch {
                rel,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch scanning {rel:?}: pattern has {expected}, relation has {actual}"
            ),
            EvalError::Type { expected, got } => {
                write!(f, "type error: expected {expected}, got {got}")
            }
            EvalError::DivByZero => write!(f, "division by zero"),
            EvalError::NotStratifiable(head) => {
                write!(f, "rules for {head:?} use negation/aggregation recursively")
            }
            EvalError::AggPlainHead(head) => {
                write!(
                    f,
                    "head {head:?} is defined by both an aggregation rule and a plain rule"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Host for user-defined functions: black boxes, possibly stateful,
/// memoized once per distinct input per tick (§3.1).
#[derive(Default)]
pub struct UdfHost {
    fns: FxHashMap<String, Box<dyn FnMut(&[Value]) -> Value>>,
    memo: FxHashMap<(String, Vec<Value>), Value>,
    /// Count of actual (non-memoized) invocations, per UDF.
    invocations: FxHashMap<String, u64>,
}

impl UdfHost {
    /// Empty host.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a UDF under a name.
    pub fn register(&mut self, name: impl Into<String>, f: impl FnMut(&[Value]) -> Value + 'static) {
        self.fns.insert(name.into(), Box::new(f));
    }

    /// Whether a UDF is registered.
    pub fn has(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }

    /// Invoke (memoized within the current tick).
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        let key = (name.to_string(), args.to_vec());
        if let Some(v) = self.memo.get(&key) {
            return Ok(v.clone());
        }
        let f = self
            .fns
            .get_mut(name)
            .ok_or_else(|| EvalError::UnknownUdf(name.to_string()))?;
        let v = f(args);
        *self.invocations.entry(name.to_string()).or_default() += 1;
        self.memo.insert(key, v.clone());
        Ok(v)
    }

    /// Clear per-tick memoization (called by the transducer at tick start).
    pub fn start_tick(&mut self) {
        self.memo.clear();
    }

    /// Non-memoized invocation count for a UDF.
    pub fn invocation_count(&self, name: &str) -> u64 {
        self.invocations.get(name).copied().unwrap_or(0)
    }
}

/// Evaluation context: the snapshot database (tables, mailboxes, and
/// already-computed views), table key indexes, scalars, and the UDF host.
pub struct EvalCtx<'a> {
    /// The program (for table metadata).
    pub program: &'a Program,
    /// Snapshot relations.
    pub db: &'a Database,
    /// Snapshot scalar values.
    pub scalars: &'a FxHashMap<String, Value>,
    /// Key → row indexes for tables, built once per tick.
    pub key_index: &'a FxHashMap<String, FxHashMap<Row, Row>>,
    /// UDF host (mutable: stateful, memoized).
    pub udfs: &'a mut UdfHost,
    /// Lazily-built scan indexes over the snapshot (see [`ScanCache`]),
    /// borrowed so a caller that keeps its database across evaluations
    /// keeps the indexes too: the incremental transducer passes
    /// [`EvalState`]'s persistent cache to view maintenance *and* to the
    /// tick's handlers. Only a caller whose database does not outlive the
    /// call (a fresh tick, the reference evaluators) passes a cache of its
    /// own.
    pub scan_cache: &'a mut ScanCache,
}

impl<'a> EvalCtx<'a> {
    pub(super) fn lookup_row(&self, table: &str, key: &Value) -> Result<Option<&Row>, EvalError> {
        let idx = self
            .key_index
            .get(table)
            .ok_or_else(|| EvalError::UnknownTable(table.to_string()))?;
        // Looked up by borrowed slice (`Row: Borrow<[Value]>`): a keyed
        // read allocates nothing.
        let key_row: &[Value] = match key {
            Value::Tuple(parts) => parts,
            single => std::slice::from_ref(single),
        };
        Ok(idx.get(key_row))
    }
}

/// Build the per-tick key indexes for all tables.
pub fn build_key_indexes(program: &Program, db: &Database) -> FxHashMap<String, FxHashMap<Row, Row>> {
    let mut out = FxHashMap::default();
    for t in &program.tables {
        let mut idx = FxHashMap::default();
        if let Some(rel) = db.get(&t.name) {
            for row in rel.iter() {
                idx.insert(t.key_of(row), row.clone());
            }
        }
        out.insert(t.name.clone(), idx);
    }
    out
}

pub(super) fn int_of(v: Value) -> Result<i64, EvalError> {
    v.as_int().ok_or_else(|| EvalError::Type {
        expected: "int",
        got: format!("{v:?}"),
    })
}

pub(super) fn bool_of(v: Value) -> Result<bool, EvalError> {
    v.as_bool().ok_or_else(|| EvalError::Type {
        expected: "bool",
        got: format!("{v:?}"),
    })
}
