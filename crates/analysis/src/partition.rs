//! Key-partition analysis: can this program shard? (§4–5.)
//!
//! The paper's compiler chooses *distribution*: a Hydrologic program whose
//! handlers only touch state keyed by one of their parameters can be
//! hash-partitioned across machines, with the runtime routing each message
//! to the shard that owns its key. This module derives that placement
//! statically:
//!
//! * **Handlers** are classified [`HandlerClass::Local`] — every table
//!   access is keyed by a single message parameter (the *routing
//!   parameter*), no scalars, no whole-relation scans, no UDFs, no
//!   condition trigger — or [`HandlerClass::Global`] with the reason.
//!   Global handlers are pinned to shard 0, where all non-partitionable
//!   state lives.
//! * **Tables** are [`TableClass::Partitioned`] when touched only by
//!   aligned local handlers (rows then distribute disjointly by key hash),
//!   else [`TableClass::Global`].
//! * **Rules** are classified [`RuleClass::ShardLocal`] (per-shard
//!   evaluation over the shard's slice unions to exactly the single-node
//!   result), [`RuleClass::GlobalOnly`] (reads only global relations, so
//!   it is complete on shard 0 and empty elsewhere), or
//!   [`RuleClass::NeedsExchange`] — a join/negation/aggregation over
//!   partitioned inputs that a shard cannot answer from its own slice.
//!
//! **The exchange plan.** A `NeedsExchange` view no longer automatically
//! demotes its partitioned sources to the global shard: when every global
//! consumption of the affected relations is *order- and
//! timing-insensitive*, the analysis instead lowers a delta-exchange plan
//! ([`ExchangeSpec`]) — the source tables stay partitioned, non-gather
//! shards ship each tick's net row deltas to shard 0 at the tick barrier,
//! and shard 0 alone evaluates the affected views over local + shipped
//! foreign rows (the other shards skip those view heads). Shipping at
//! tick barriers makes foreign rows exactly as fresh as a single node's
//! tick-start snapshot, so the plan is sound precisely when nothing
//! observes *order* or *mid-tick* state of the exchanged relations. A
//! candidate table `t` (with taint set = `t` plus every view transitively
//! reading it) therefore still **demotes** when:
//!
//! * a global handler iterates a tainted relation in emission order (a
//!   `Send`/`ForEach` select scan — row order is observable there, and a
//!   local+foreign concatenation orders differently than a single node's
//!   interleaved insertions; `CollectSet`, negation and keyed lookups are
//!   content-based and safe);
//! * a global handler *writes* `t` by key (rows would materialize on
//!   shard 0 that hash-belong to another shard, breaking disjointness);
//! * a *serialized* global handler (Serializable level, or any handler
//!   carrying invariants) reads or writes `t` by key — serialized
//!   execution observes same-tick commits through the tick mirror and
//!   monitors preconditions against owned state, and foreign rows are
//!   only barrier-fresh;
//! * a tainted view calls a UDF (stateful, per-instance: the gather
//!   shard's host would see different invocation streams than the
//!   owner's);
//! * or exchange is disabled by [`ExchangePolicy::Demote`] (the
//!   sim-based deployment layer keeps the demote-only plan: its ticks
//!   are not barrier-synchronized across nodes).
//!
//! Classification runs to a **demotion fixpoint**: a table shared between
//! a local and a global handler forces the local handler global *unless
//! the sharing is exchange-admissible* (above); anything a global handler
//! reads — transitively through rule bodies — must likewise be global or
//! exchange-shipped; a local handler whose mailbox relation is read from
//! the global shard demotes (mailbox relations never ship); tables
//! carrying a functional dependency whose determinant *omits* the
//! partition key stay global so FD monitoring sees whole tables (such an
//! FD can be violated by rows on different shards), while FDs whose
//! determinant contains the partition key are checked per-shard —
//! equal-determinant rows share the partition value and therefore a
//! shard, so the local monitor sees every violating pair.
//!
//! The result lowers to a [`RoutingSpec`] (routes + exchange plan) for
//! the one sharded driver, [`hydro_core::shard::ShardSet`], over either
//! executor; [`sharded`] (inline) and [`parallel_sharded`] (one worker
//! thread per shard) are the one-call conveniences, and UDFs bind through
//! the driver's `register_udfs`. The differential suite
//! (`tests/sharded_differential.rs`) pins the soundness of exactly this
//! pipeline — both executors alike — for
//! analysis-produced specs: a sharded run is indistinguishable from the
//! single transducer, exchange plans included.

use crate::diag::{sort_diagnostics, Diagnostic, Loc, Severity};
use hydro_core::ast::{
    AssignTarget, BodyAtom, Expr, Handler, MergeTarget, Program, Select, Stmt, Term, Trigger,
};
use hydro_core::facets::{ConsistencyLevel, Invariant};
use hydro_core::shard::{
    ExchangeSpec, ParallelShardedTransducer, Route, RoutingSpec, ShardedTransducer,
};
use hydro_core::interp::TransducerError;
use std::collections::{BTreeMap, BTreeSet};

/// How a handler executes under sharding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandlerClass {
    /// Shard-local: every state access is keyed by the message parameter
    /// at this index; messages hash-route by it.
    Local {
        /// Routing parameter index.
        param: usize,
    },
    /// Pinned to shard 0.
    Global {
        /// Human-readable reason (the first disqualifier found).
        reason: String,
    },
}

/// How a table's rows distribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableClass {
    /// Rows live on the shard that owns their key hash.
    Partitioned,
    /// All rows on shard 0.
    Global,
}

/// How a derived view relates to the partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleClass {
    /// Reads only global relations: complete on shard 0, empty elsewhere.
    GlobalOnly,
    /// Single positive scan of a partitioned relation (plus row-local
    /// guards/lets/flattens): per-shard results union to the global view.
    ShardLocal,
    /// Joins, negation, or aggregation over partitioned inputs: a shard
    /// cannot answer from its slice; needs broadcast/exchange.
    NeedsExchange,
}

/// Whether the analysis may plan delta exchanges, or must fall back to
/// PR 4's demote-to-global behavior (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExchangePolicy {
    /// Plan delta exchanges for admissible `NeedsExchange` views.
    #[default]
    Enabled,
    /// Never exchange; demote partitioned state observed from the global
    /// shard. Used by deployments whose ticks are not barrier-synchronized
    /// (the network-sim deployment layer).
    Demote,
}

/// The full partition analysis of one program.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Per-handler classification.
    pub handlers: BTreeMap<String, HandlerClass>,
    /// Per-table classification.
    pub tables: BTreeMap<String, TableClass>,
    /// Per-view-head classification (worst rule wins for shared heads).
    pub rules: BTreeMap<String, RuleClass>,
    /// The lowered delta-exchange plan (empty when nothing exchanges —
    /// every global observation is either of global state or demoted).
    pub exchange: ExchangeSpec,
    /// Human-readable findings (demotions and exchange plans), rendered
    /// from [`PartitionReport::diagnostics`] in its canonical sorted
    /// order — kept for callers that grep for plain strings.
    pub notes: Vec<String>,
    /// Structured findings: demotions (`HY401`, with a full table →
    /// blocker → fixpoint-round why-chain), exchange placements
    /// (`HY402`/`HY403`), the plan summary (`HY404`), and initial
    /// global-pinning reasons (`HY405`). Sorted canonically (see
    /// [`crate::diag::sort_diagnostics`]), so emission is deterministic.
    pub diagnostics: Vec<Diagnostic>,
}

impl PartitionReport {
    /// Lower to the runtime routing spec: local handlers hash-route by
    /// their routing parameter, everything else (global handlers and
    /// declared mailboxes) pins to shard 0; the exchange plan rides
    /// along for the shard drivers to configure delta shipping.
    pub fn routing(&self) -> RoutingSpec {
        let mut spec = RoutingSpec {
            exchange: self.exchange.clone(),
            ..RoutingSpec::default()
        };
        for (name, class) in &self.handlers {
            let route = match class {
                HandlerClass::Local { param } => Route::ByParam(*param),
                HandlerClass::Global { .. } => Route::Global,
            };
            spec.routes.insert(name.clone(), route);
        }
        spec
    }

    /// Whether nothing in the program can shard — every message routes to
    /// shard 0 (the broadcast-free fallback for programs whose state is
    /// inherently global).
    pub fn requires_broadcast(&self) -> bool {
        !self
            .handlers
            .values()
            .any(|c| matches!(c, HandlerClass::Local { .. }))
    }

    /// The routing parameter of a local handler, if it is one.
    pub fn routing_param(&self, handler: &str) -> Option<usize> {
        match self.handlers.get(handler) {
            Some(HandlerClass::Local { param }) => Some(*param),
            _ => None,
        }
    }
}

/// Everything one handler touches, and how.
#[derive(Clone, Debug, Default)]
struct Facts {
    /// Relations read whole (scans in selects, negation, comprehensions).
    scans: BTreeSet<String>,
    /// Relations scanned where *row order is observable*: top-level scan
    /// atoms of `Send`/`ForEach` select bodies, whose match enumeration
    /// order determines emission/iteration order. `CollectSet` bodies and
    /// negation are content-based and excluded. Exchange-shipped foreign
    /// rows concatenate after local ones, so ordered scans are
    /// exchange-inadmissible.
    ordered_scans: BTreeSet<String>,
    /// Keyed table *reads* (`FieldOf`/`RowOf`/`HasKey`, `HasKey`
    /// invariants): `(table, Some(param))` when the key expression is
    /// exactly that message parameter, `None` otherwise.
    keyed_reads: Vec<(String, Option<String>)>,
    /// Keyed table *writes* (insert/delete/field assign/field merge),
    /// same alignment encoding.
    keyed_writes: Vec<(String, Option<String>)>,
    /// Reads or writes any scalar (scalars are global by nature).
    scalar_touch: bool,
    /// Calls a UDF (stateful, per-instance — shard-unsafe).
    udf: bool,
    /// Clears a declared mailbox (declared mailboxes are global).
    clears: bool,
}

impl Facts {
    /// All keyed accesses, reads and writes alike (alignment checks and
    /// table-ownership tracking treat them identically).
    fn keyed(&self) -> impl Iterator<Item = &(String, Option<String>)> {
        self.keyed_reads.iter().chain(self.keyed_writes.iter())
    }

    /// Whether this handler reads or writes `table` by key.
    fn keyed_touches(&self, table: &str) -> bool {
        self.keyed().any(|(t, _)| t == table)
    }
}

fn param_of(key: &Expr, params: &BTreeSet<String>) -> Option<String> {
    match key {
        Expr::Var(name) if params.contains(name) => Some(name.clone()),
        _ => None,
    }
}

fn walk_expr(e: &Expr, params: &BTreeSet<String>, f: &mut Facts) {
    match e {
        Expr::Scalar(_) => f.scalar_touch = true,
        Expr::Call(_, args) => {
            f.udf = true;
            for a in args {
                walk_expr(a, params, f);
            }
        }
        Expr::FieldOf { table, key, .. }
        | Expr::RowOf { table, key }
        | Expr::HasKey { table, key } => {
            f.keyed_reads.push((table.clone(), param_of(key, params)));
            walk_expr(key, params, f);
        }
        // A collected set is order-insensitive (it *is* a set).
        Expr::CollectSet(sel) => walk_select(sel, params, f, false),
        Expr::Cmp(_, l, r)
        | Expr::Arith(_, l, r)
        | Expr::And(l, r)
        | Expr::Or(l, r)
        | Expr::Contains(l, r) => {
            walk_expr(l, params, f);
            walk_expr(r, params, f);
        }
        Expr::Not(e) | Expr::Len(e) | Expr::Index(e, _) => walk_expr(e, params, f),
        Expr::Tuple(items) | Expr::SetBuild(items) => {
            for e in items {
                walk_expr(e, params, f);
            }
        }
        Expr::Const(_) | Expr::Var(_) => {}
    }
}

/// Names a select body binds (shadowing message parameters inside the
/// select's scope — keyed accesses through them are not aligned).
fn select_bound(body: &[BodyAtom]) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    for atom in body {
        match atom {
            BodyAtom::Scan { terms, .. } => {
                for t in terms {
                    if let Term::Var(v) = t {
                        bound.insert(v.clone());
                    }
                }
            }
            BodyAtom::Let { var, .. } | BodyAtom::Flatten { var, .. } => {
                bound.insert(var.clone());
            }
            BodyAtom::Neg { .. } | BodyAtom::Guard(_) => {}
        }
    }
    bound
}

/// Walk a select. `ordered` marks contexts where the row enumeration
/// order of the select's scans is observable (`Send`/`ForEach` bodies);
/// nested `CollectSet` selects reset it — aggregating into a set erases
/// order again.
fn walk_select(sel: &Select, params: &BTreeSet<String>, f: &mut Facts, ordered: bool) {
    let inner: BTreeSet<String> = params
        .difference(&select_bound(&sel.body))
        .cloned()
        .collect();
    for atom in &sel.body {
        match atom {
            BodyAtom::Scan { rel, .. } => {
                f.scans.insert(rel.clone());
                if ordered {
                    f.ordered_scans.insert(rel.clone());
                }
            }
            BodyAtom::Neg { rel, args } => {
                f.scans.insert(rel.clone());
                for a in args {
                    walk_expr(a, &inner, f);
                }
            }
            BodyAtom::Guard(e) => walk_expr(e, &inner, f),
            BodyAtom::Let { expr, .. } => walk_expr(expr, &inner, f),
            BodyAtom::Flatten { set, .. } => walk_expr(set, &inner, f),
        }
    }
    for e in &sel.projection {
        walk_expr(e, &inner, f);
    }
}

fn insert_alignment(
    program: &Program,
    table: &str,
    values: &[Expr],
    params: &BTreeSet<String>,
) -> Option<String> {
    let decl = program.table(table)?;
    // Only single-column keys align: routing hashes one parameter value,
    // and a multi-column storage key would need a tuple of parameters.
    if decl.key.len() != 1 {
        return None;
    }
    match values.get(decl.key[0]) {
        Some(Expr::Var(name)) if params.contains(name) => Some(name.clone()),
        _ => None,
    }
}

fn walk_stmts(program: &Program, params: &BTreeSet<String>, stmts: &[Stmt], f: &mut Facts) {
    for stmt in stmts {
        match stmt {
            Stmt::Merge(target, e) => {
                walk_expr(e, params, f);
                match target {
                    MergeTarget::Scalar(_) => f.scalar_touch = true,
                    MergeTarget::TableField { table, key, .. } => {
                        f.keyed_writes.push((table.clone(), param_of(key, params)));
                        walk_expr(key, params, f);
                    }
                }
            }
            Stmt::Assign(target, e) => {
                walk_expr(e, params, f);
                match target {
                    AssignTarget::Scalar(_) => f.scalar_touch = true,
                    AssignTarget::TableField { table, key, .. } => {
                        f.keyed_writes.push((table.clone(), param_of(key, params)));
                        walk_expr(key, params, f);
                    }
                }
            }
            Stmt::Insert { table, values } => {
                for e in values {
                    walk_expr(e, params, f);
                }
                f.keyed_writes
                    .push((table.clone(), insert_alignment(program, table, values, params)));
            }
            Stmt::Delete { table, key } => {
                f.keyed_writes.push((table.clone(), param_of(key, params)));
                walk_expr(key, params, f);
            }
            // `send` emits one message per matched row: scan order is
            // observable emission order.
            Stmt::Send { select, .. } => walk_select(select, params, f, true),
            Stmt::Return(e) => walk_expr(e, params, f),
            Stmt::If { cond, then, els } => {
                walk_expr(cond, params, f);
                walk_stmts(program, params, then, f);
                walk_stmts(program, params, els, f);
            }
            Stmt::ForEach { select, stmts } => {
                // Body statements execute once per row, in scan order.
                walk_select(select, params, f, true);
                let inner: BTreeSet<String> = params
                    .difference(&select_bound(&select.body))
                    .cloned()
                    .collect();
                walk_stmts(program, &inner, stmts, f);
            }
            Stmt::ClearMailbox(_) => f.clears = true,
        }
    }
}

fn handler_facts(program: &Program, h: &Handler) -> Facts {
    let params: BTreeSet<String> = h.params.iter().cloned().collect();
    let mut f = Facts::default();
    if let Trigger::OnCondition(cond) = &h.trigger {
        walk_expr(cond, &params, &mut f);
    }
    walk_stmts(program, &params, &h.body, &mut f);
    for inv in &program.consistency_of(&h.name).invariants {
        match inv {
            Invariant::HasKey { table, key_param } => {
                let aligned = params.contains(key_param).then(|| key_param.clone());
                f.keyed_reads.push((table.clone(), aligned));
            }
            Invariant::NonNegative(_) => f.scalar_touch = true,
        }
    }
    f
}

fn initial_class(h: &Handler, facts: &Facts) -> HandlerClass {
    let global = |reason: String| HandlerClass::Global { reason };
    if matches!(h.trigger, Trigger::OnCondition(_)) {
        return global("condition-triggered: reads the global snapshot".into());
    }
    if facts.scalar_touch {
        return global("touches scalar state (scalars are global)".into());
    }
    if facts.udf {
        return global("calls a UDF (stateful, per-instance)".into());
    }
    if facts.clears {
        return global("clears a declared mailbox (declared mailboxes are global)".into());
    }
    if let Some(rel) = facts.scans.iter().next() {
        return global(format!("scans whole relation {rel:?}"));
    }
    let mut routing: BTreeSet<&String> = BTreeSet::new();
    for (table, aligned) in facts.keyed() {
        match aligned {
            Some(p) => {
                routing.insert(p);
            }
            None => {
                return global(format!(
                    "accesses table {table:?} through a key that is not a message parameter"
                ))
            }
        }
    }
    if routing.len() > 1 {
        return global(format!(
            "keys state by multiple parameters {:?}",
            routing.iter().map(|s| s.as_str()).collect::<Vec<_>>()
        ));
    }
    match routing.into_iter().next() {
        Some(p) => {
            let param = h.params.iter().position(|q| q == p).expect("param exists");
            HandlerClass::Local { param }
        }
        // Touches no state at all: runs identically anywhere — spread it.
        None if !h.params.is_empty() => HandlerClass::Local { param: 0 },
        None => global("no parameters to route by".into()),
    }
}

/// Relations a rule body (plus head/group/over expressions) reads.
fn body_rels(body: &[BodyAtom], extra: &[&Expr], out: &mut BTreeSet<String>) {
    fn expr_rels(e: &Expr, out: &mut BTreeSet<String>) {
        match e {
            Expr::FieldOf { table, key, .. }
            | Expr::RowOf { table, key }
            | Expr::HasKey { table, key } => {
                out.insert(table.clone());
                expr_rels(key, out);
            }
            Expr::CollectSet(sel) => {
                body_rels(&sel.body, &sel.projection.iter().collect::<Vec<_>>(), out)
            }
            Expr::Cmp(_, l, r)
            | Expr::Arith(_, l, r)
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Contains(l, r) => {
                expr_rels(l, out);
                expr_rels(r, out);
            }
            Expr::Not(e) | Expr::Len(e) | Expr::Index(e, _) => expr_rels(e, out),
            Expr::Tuple(items) | Expr::SetBuild(items) => {
                for e in items {
                    expr_rels(e, out);
                }
            }
            Expr::Const(_) | Expr::Var(_) | Expr::Scalar(_) | Expr::Call(..) => {
                if let Expr::Call(_, args) = e {
                    for a in args {
                        expr_rels(a, out);
                    }
                }
            }
        }
    }
    for atom in body {
        match atom {
            BodyAtom::Scan { rel, .. } => {
                out.insert(rel.clone());
            }
            BodyAtom::Neg { rel, args } => {
                out.insert(rel.clone());
                for a in args {
                    expr_rels(a, out);
                }
            }
            BodyAtom::Guard(e) => expr_rels(e, out),
            BodyAtom::Let { expr, .. } => expr_rels(expr, out),
            BodyAtom::Flatten { set, .. } => expr_rels(set, out),
        }
    }
    for e in extra {
        expr_rels(e, out);
    }
}

/// Does any expression of a rule body (plus extras) call a UDF?
fn exprs_call_udf(body: &[BodyAtom], extra: &[&Expr]) -> bool {
    fn expr_calls(e: &Expr) -> bool {
        match e {
            Expr::Call(_, _) => true,
            Expr::CollectSet(sel) => {
                exprs_call_udf(&sel.body, &sel.projection.iter().collect::<Vec<_>>())
            }
            Expr::FieldOf { key, .. } | Expr::RowOf { key, .. } | Expr::HasKey { key, .. } => {
                expr_calls(key)
            }
            Expr::Cmp(_, l, r)
            | Expr::Arith(_, l, r)
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Contains(l, r) => expr_calls(l) || expr_calls(r),
            Expr::Not(e) | Expr::Len(e) | Expr::Index(e, _) => expr_calls(e),
            Expr::Tuple(items) | Expr::SetBuild(items) => items.iter().any(expr_calls),
            Expr::Const(_) | Expr::Var(_) | Expr::Scalar(_) => false,
        }
    }
    body.iter().any(|atom| match atom {
        BodyAtom::Scan { .. } => false,
        BodyAtom::Neg { args, .. } => args.iter().any(expr_calls),
        BodyAtom::Guard(e) | BodyAtom::Let { expr: e, .. } | BodyAtom::Flatten { set: e, .. } => {
            expr_calls(e)
        }
    }) || extra.iter().any(|e| expr_calls(e))
}

/// Run the key-partition analysis with exchange planning enabled (see
/// module docs).
pub fn partition(program: &Program) -> PartitionReport {
    partition_with(program, ExchangePolicy::Enabled)
}

/// Run the key-partition analysis under an explicit [`ExchangePolicy`].
pub fn partition_with(program: &Program, policy: ExchangePolicy) -> PartitionReport {
    let facts: BTreeMap<String, Facts> = program
        .handlers
        .iter()
        .map(|h| (h.name.clone(), handler_facts(program, h)))
        .collect();
    let mut classes: BTreeMap<String, HandlerClass> = program
        .handlers
        .iter()
        .map(|h| (h.name.clone(), initial_class(h, &facts[&h.name])))
        .collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for h in &program.handlers {
        if let HandlerClass::Global { reason } = &classes[&h.name] {
            diags.push(
                Diagnostic::new(
                    "HY405",
                    Severity::Info,
                    Loc::Handler(h.name.clone()),
                    format!("pinned to the global shard by initial classification: {reason}"),
                )
                .because("initial classification inspects the handler alone, before the demotion fixpoint"),
            );
        }
    }

    // Rule read sets, head → everything its bodies read (for the global
    // read closure).
    let mut rule_reads: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for r in &program.rules {
        let extra: Vec<&Expr> = r.head_exprs.iter().collect();
        body_rels(&r.body, &extra, rule_reads.entry(r.head.clone()).or_default());
    }
    for r in &program.agg_rules {
        let mut extra: Vec<&Expr> = r.group_exprs.iter().collect();
        extra.push(&r.over);
        body_rels(&r.body, &extra, rule_reads.entry(r.head.clone()).or_default());
    }

    // Transitive read closure per head (exchange taint needs "does this
    // view read that table through any chain of views").
    let mut trans_reads = rule_reads.clone();
    loop {
        let snapshot = trans_reads.clone();
        let mut grew = false;
        for reads in trans_reads.values_mut() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for r in reads.iter() {
                if let Some(rr) = snapshot.get(r) {
                    add.extend(rr.iter().cloned());
                }
            }
            let before = reads.len();
            reads.extend(add);
            grew |= reads.len() > before;
        }
        if !grew {
            break;
        }
    }

    // View heads whose rules call UDFs (exchange-inadmissible: the UDF
    // host is per-instance state).
    let mut udf_heads: BTreeSet<String> = BTreeSet::new();
    for r in &program.rules {
        let extra: Vec<&Expr> = r.head_exprs.iter().collect();
        if exprs_call_udf(&r.body, &extra) {
            udf_heads.insert(r.head.clone());
        }
    }
    for r in &program.agg_rules {
        let mut extra: Vec<&Expr> = r.group_exprs.iter().collect();
        extra.push(&r.over);
        if exprs_call_udf(&r.body, &extra) {
            udf_heads.insert(r.head.clone());
        }
    }

    // Handlers that execute serially against current state (the §7
    // enforcement path: Serializable level, or any carried invariant) —
    // their keyed reads go through the mid-tick mirror and their
    // preconditions monitor owned state, so barrier-fresh foreign rows
    // are not equivalent for them.
    let serialized: BTreeSet<&str> = program
        .handlers
        .iter()
        .filter(|h| {
            let c = program.consistency_of(&h.name);
            c.level == ConsistencyLevel::Serializable || !c.invariants.is_empty()
        })
        .map(|h| h.name.as_str())
        .collect();

    // Demotion fixpoint. Each entry carries the one-line reason (stored
    // on the class and in the legacy note) plus the structured derivation
    // steps for the HY401 why-chain.
    let mut round = 0usize;
    loop {
        round += 1;
        let mut demote: Vec<(String, String, Vec<String>)> = Vec::new();
        let is_local = |c: &HandlerClass| matches!(c, HandlerClass::Local { .. });

        // Tables touched (keyed) per side of the divide.
        let mut local_tables: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut global_tables: BTreeSet<&str> = BTreeSet::new();
        for h in &program.handlers {
            for (table, _) in facts[&h.name].keyed() {
                if is_local(&classes[&h.name]) {
                    local_tables.entry(table).or_default().push(&h.name);
                } else {
                    global_tables.insert(table);
                }
            }
        }

        // Exchange admissibility of a globally-observed partitioned table:
        // `None` means every global observation of it — and of every view
        // transitively reading it — can be served by shipping tick-barrier
        // deltas to the gather shard; `Some(reason)` names the first
        // disqualifier (the module docs walk through each one).
        let exchange_blocker = |table: &str| -> Option<String> {
            if policy == ExchangePolicy::Demote {
                return Some("exchange disabled by policy".into());
            }
            // Taint: the table plus every view transitively reading it.
            let mut taint: BTreeSet<&str> = BTreeSet::new();
            taint.insert(table);
            for (head, reads) in &trans_reads {
                if reads.contains(table) {
                    taint.insert(head);
                }
            }
            if let Some(head) = taint.iter().find(|h| udf_heads.contains(**h)) {
                return Some(format!("view {head:?} over it calls a UDF"));
            }
            for h in &program.handlers {
                let f = &facts[&h.name];
                if is_local(&classes[&h.name]) {
                    // A shard-local consumer of a tainted *view* would read
                    // a head that only the gather shard evaluates.
                    if let Some(v) = taint.iter().find(|v| **v != table && f.keyed_touches(v)) {
                        return Some(format!(
                            "local handler {:?} reads derived view {v:?} over it",
                            h.name
                        ));
                    }
                    continue;
                }
                if let Some(rel) = taint.iter().find(|r| f.ordered_scans.contains(**r)) {
                    return Some(format!(
                        "global handler {:?} iterates {rel:?} in emission order",
                        h.name
                    ));
                }
                if f.keyed_writes.iter().any(|(t, _)| t == table) {
                    return Some(format!("global handler {:?} writes it by key", h.name));
                }
                if serialized.contains(h.name.as_str()) && f.keyed_touches(table) {
                    return Some(format!(
                        "serialized handler {:?} reads it outside the tick snapshot",
                        h.name
                    ));
                }
            }
            None
        };

        // A table cannot be both partitioned and read/written from shard 0
        // — unless the global side's accesses are exchange-admissible, in
        // which case the table stays partitioned and ships deltas.
        for (table, owners) in &local_tables {
            if global_tables.contains(*table) {
                if let Some(block) = exchange_blocker(table) {
                    for o in owners {
                        demote.push((
                            o.to_string(),
                            format!(
                                "table {table:?} is shared with a global handler \
                                 and cannot exchange: {block}"
                            ),
                            vec![
                                format!(
                                    "table {table:?} is keyed by this shard-local handler \
                                     and also accessed from the global shard"
                                ),
                                format!("delta exchange is blocked: {block}"),
                            ],
                        ));
                    }
                }
            }
            // FD monitoring is per-shard, so an FD is only checkable
            // under sharding when every potentially-violating row pair
            // co-locates: a determinant that *contains the partition key
            // column* guarantees it (rows agreeing on the determinant
            // agree on the partition value, hence hash to the same
            // shard). Tables where every declared FD pins the partition
            // key stay partitioned and are checked per-shard; one FD
            // whose determinant omits it can pair rows across shards, so
            // the table demotes to global as before.
            if let Some(t) = program.table(table) {
                let cross_shard_fd = t.fds.iter().any(|fd| {
                    !t.partition_by
                        .is_some_and(|p| fd.determinant.contains(&p))
                });
                if !t.fds.is_empty() && cross_shard_fd {
                    for o in owners {
                        demote.push((
                            o.to_string(),
                            format!(
                                "table {table:?} declares functional dependencies \
                                 not determined by the partition key"
                            ),
                            vec![
                                format!(
                                    "table {table:?} carries an FD whose determinant \
                                     omits the partition key column"
                                ),
                                "FD monitoring is per-shard; rows agreeing on that \
                                 determinant could land on different shards, so the \
                                 violating pair would go unobserved"
                                    .to_string(),
                            ],
                        ));
                    }
                }
            }
        }

        // Global read closure: everything a global handler reads,
        // transitively through rule bodies, must be global.
        let mut closure: BTreeSet<String> = BTreeSet::new();
        for h in &program.handlers {
            if is_local(&classes[&h.name]) {
                continue;
            }
            let f = &facts[&h.name];
            closure.extend(f.scans.iter().cloned());
            closure.extend(f.keyed().map(|(t, _)| t.clone()));
        }
        loop {
            let mut grew = false;
            for (head, reads) in &rule_reads {
                if closure.contains(head) {
                    for r in reads {
                        grew |= closure.insert(r.clone());
                    }
                }
            }
            if !grew {
                break;
            }
        }
        for rel in &closure {
            if let Some(owners) = local_tables.get(rel.as_str()) {
                if let Some(block) = exchange_blocker(rel) {
                    for o in owners {
                        demote.push((
                            o.to_string(),
                            format!(
                                "table {rel:?} is read (transitively) from the global \
                                 shard and cannot exchange: {block}"
                            ),
                            vec![
                                format!(
                                    "table {rel:?} is in the global read closure \
                                     (a global handler reaches it through rule bodies)"
                                ),
                                format!("delta exchange is blocked: {block}"),
                            ],
                        ));
                    }
                }
            }
            // A local handler's mailbox relation read by a global consumer
            // would be partial on shard 0.
            if program.handler(rel).is_some() && is_local(&classes[rel]) {
                demote.push((
                    rel.clone(),
                    "its mailbox relation is read (transitively) from the global shard".into(),
                    vec![
                        "a rule or global handler scans this handler's mailbox relation".into(),
                        "mailbox relations never ship deltas; per-shard contents would be \
                         partial on the gather shard"
                            .into(),
                    ],
                ));
            }
        }

        let mut changed = false;
        for (name, reason, why) in demote {
            if matches!(classes[&name], HandlerClass::Local { .. }) {
                let mut d = Diagnostic::new(
                    "HY401",
                    Severity::Warning,
                    Loc::Handler(name.clone()),
                    format!("demoted to global: {reason}"),
                );
                for step in why {
                    d = d.because(step);
                }
                diags.push(d.because(format!("decided in demotion fixpoint round {round}")));
                classes.insert(name, HandlerClass::Global { reason });
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Final table classes.
    let mut tables: BTreeMap<String, TableClass> = program
        .tables
        .iter()
        .map(|t| (t.name.clone(), TableClass::Global))
        .collect();
    for h in &program.handlers {
        if matches!(classes[&h.name], HandlerClass::Local { .. }) {
            for (table, _) in facts[&h.name].keyed() {
                if let Some(slot) = tables.get_mut(table) {
                    *slot = TableClass::Partitioned;
                }
            }
        }
    }

    // Rule classification (reporting + input to the exchange plan):
    // fixpoint over heads, worst rule wins.
    let partitioned_rel = |rel: &str,
                           heads: &BTreeMap<String, RuleClass>|
     -> bool {
        if tables.get(rel) == Some(&TableClass::Partitioned) {
            return true;
        }
        if program.handler(rel).is_some()
            && matches!(classes[rel], HandlerClass::Local { .. })
        {
            return true;
        }
        matches!(heads.get(rel), Some(RuleClass::ShardLocal | RuleClass::NeedsExchange))
    };
    let mut rules: BTreeMap<String, RuleClass> = rule_reads
        .keys()
        .map(|h| (h.clone(), RuleClass::GlobalOnly))
        .collect();
    loop {
        let mut changed = false;
        for r in &program.rules {
            let mut reads = BTreeSet::new();
            let extra: Vec<&Expr> = r.head_exprs.iter().collect();
            body_rels(&r.body, &extra, &mut reads);
            let part: Vec<&String> = reads
                .iter()
                .filter(|rel| partitioned_rel(rel, &rules))
                .collect();
            let class = if part.is_empty() {
                RuleClass::GlobalOnly
            } else {
                // Shard-local iff a single positive scan of a partitioned
                // relation and nothing else touching relations.
                let scans: Vec<&String> = r
                    .body
                    .iter()
                    .filter_map(|a| match a {
                        BodyAtom::Scan { rel, .. } => Some(rel),
                        _ => None,
                    })
                    .collect();
                let only_scan_reads = reads.len() == scans.len()
                    && scans.iter().all(|s| reads.contains(*s));
                if scans.len() == 1 && only_scan_reads && partitioned_rel(scans[0], &rules) {
                    RuleClass::ShardLocal
                } else {
                    RuleClass::NeedsExchange
                }
            };
            let slot = rules.get_mut(&r.head).expect("head registered");
            if class > *slot {
                *slot = class;
                changed = true;
            }
        }
        for r in &program.agg_rules {
            let mut reads = BTreeSet::new();
            let mut extra: Vec<&Expr> = r.group_exprs.iter().collect();
            extra.push(&r.over);
            body_rels(&r.body, &extra, &mut reads);
            let class = if reads.iter().any(|rel| partitioned_rel(rel, &rules)) {
                // An aggregate folds across shards; always an exchange.
                RuleClass::NeedsExchange
            } else {
                RuleClass::GlobalOnly
            };
            let slot = rules.get_mut(&r.head).expect("head registered");
            if class > *slot {
                *slot = class;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // The exchange plan: recompute the global observation closure over the
    // *final* classes. Partitioned tables inside it are exactly the ones
    // that survived demotion because exchange is admissible — they ship
    // per-tick deltas, and every view head transitively reading a shipped
    // table evaluates only on the gather shard (the others skip it).
    let mut observed: BTreeSet<String> = BTreeSet::new();
    for h in &program.handlers {
        if matches!(classes[&h.name], HandlerClass::Local { .. }) {
            continue;
        }
        let f = &facts[&h.name];
        observed.extend(f.scans.iter().cloned());
        observed.extend(f.keyed().map(|(t, _)| t.clone()));
    }
    loop {
        let mut grew = false;
        for (head, reads) in &rule_reads {
            if observed.contains(head) {
                for r in reads {
                    grew |= observed.insert(r.clone());
                }
            }
        }
        if !grew {
            break;
        }
    }
    let ship_tables: BTreeSet<String> = observed
        .iter()
        .filter(|t| tables.get(*t) == Some(&TableClass::Partitioned))
        .cloned()
        .collect();
    let gather_views: BTreeSet<String> = trans_reads
        .iter()
        .filter(|(_, reads)| reads.iter().any(|r| ship_tables.contains(r)))
        .map(|(head, _)| head.clone())
        .collect();

    for (head, class) in &rules {
        if *class != RuleClass::NeedsExchange {
            continue;
        }
        if gather_views.contains(head) {
            let shipped: Vec<&String> = trans_reads
                .get(head)
                .map(|reads| reads.iter().filter(|r| ship_tables.contains(*r)).collect())
                .unwrap_or_default();
            diags.push(
                Diagnostic::new(
                    "HY402",
                    Severity::Info,
                    Loc::View(head.clone()),
                    "executes via delta exchange: its partitioned inputs \
                     ship per-tick deltas to the gather shard, which alone evaluates it \
                     over local + foreign rows",
                )
                .because(format!("partitioned inputs shipping deltas: {shipped:?}"))
                .because(
                    "every global observation of those tables is exchange-admissible \
                     (the demotion fixpoint found no blocker)",
                ),
            );
        } else {
            diags.push(
                Diagnostic::new(
                    "HY403",
                    Severity::Info,
                    Loc::View(head.clone()),
                    "requires broadcast/exchange over partitioned inputs; \
                     per-shard derivations are partial (sound only while no global reader \
                     observes them — enforced by the demotion fixpoint)",
                )
                .because(
                    "it joins, negates, or aggregates over partitioned relations \
                     outside the lowered exchange plan",
                ),
            );
        }
    }
    if !ship_tables.is_empty() {
        diags.push(Diagnostic::new(
            "HY404",
            Severity::Info,
            Loc::Program,
            format!(
                "exchange plan: tables {:?} ship tick-barrier deltas; views {:?} \
                 evaluate on the gather shard only",
                ship_tables.iter().collect::<Vec<_>>(),
                gather_views.iter().collect::<Vec<_>>(),
            ),
        ));
    }

    // Canonical order, then render the legacy note strings from it — so
    // `notes` inherits the same determinism the diagnostics carry.
    sort_diagnostics(&mut diags);
    let notes = diags.iter().filter_map(legacy_note).collect();

    PartitionReport {
        handlers: classes,
        tables,
        rules,
        exchange: ExchangeSpec {
            ship_tables,
            gather_views,
        },
        notes,
        diagnostics: diags,
    }
}

/// The pre-diagnostic note string for one finding (`None` for codes that
/// never appeared in `notes`, like the `HY405` initial pinnings).
fn legacy_note(d: &Diagnostic) -> Option<String> {
    match d.code {
        "HY401" => match &d.loc {
            Loc::Handler(name) => Some(format!("handler {name:?} {}", d.message)),
            _ => None,
        },
        "HY402" | "HY403" => match &d.loc {
            Loc::View(head) => Some(format!("view {head:?} {}", d.message)),
            _ => None,
        },
        "HY404" => Some(d.message.clone()),
        _ => None,
    }
}

/// One-call convenience: analyze `program`, lower the report to a routing
/// spec, and build an N-shard [`ShardedTransducer`] from it.
pub fn sharded(program: &Program, shards: usize) -> Result<ShardedTransducer, TransducerError> {
    let routing = partition(program).routing();
    ShardedTransducer::new(program.clone(), routing, shards)
}

/// One-call convenience: analyze `program`, lower the report, and spin up
/// the N-worker [`ParallelShardedTransducer`] over it.
pub fn parallel_sharded(
    program: &Program,
    shards: usize,
) -> Result<ParallelShardedTransducer, TransducerError> {
    let routing = partition(program).routing();
    ParallelShardedTransducer::new(program.clone(), routing, shards)
}
