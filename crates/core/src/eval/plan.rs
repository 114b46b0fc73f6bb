//! Plan-time compilation: stratification, the slot-compiled [`RuleSet`]
//! (with its SIP delta variants and DRed check queries), and the
//! [`ProgramPlan`] — strata partitioned into [`EvalUnit`]s in dependency
//! order. Nothing here evaluates; `maintain.rs` runs what this builds.

use super::slots::{CompiledQuery, CSelect, SlotCompiler};
use super::EvalError;
use crate::ast::{AggFun, BodyAtom, Expr, Program, Term};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

/// Collect the view names a set of body atoms depends on, tagging negative
/// (stratum-raising) dependencies.
fn body_deps(body: &[BodyAtom], views: &FxHashSet<String>, deps: &mut Vec<(String, bool)>) {
    for atom in body {
        match atom {
            BodyAtom::Scan { rel, .. } => {
                if views.contains(rel) {
                    deps.push((rel.clone(), false));
                }
            }
            BodyAtom::Neg { rel, args } => {
                if views.contains(rel) {
                    deps.push((rel.clone(), true));
                }
                for e in args {
                    expr_deps(e, views, deps);
                }
            }
            BodyAtom::Guard(e) => expr_deps(e, views, deps),
            BodyAtom::Let { expr, .. } => expr_deps(expr, views, deps),
            BodyAtom::Flatten { set, .. } => expr_deps(set, views, deps),
        }
    }
}

fn expr_deps(expr: &Expr, views: &FxHashSet<String>, deps: &mut Vec<(String, bool)>) {
    match expr {
        Expr::CollectSet(select) => {
            // A nested comprehension reads its relations "all at once", so
            // treat its view dependencies as negative (stratum-raising).
            let mut inner = Vec::new();
            body_deps(&select.body, views, &mut inner);
            for e in &select.projection {
                expr_deps(e, views, &mut inner);
            }
            deps.extend(inner.into_iter().map(|(r, _)| (r, true)));
        }
        Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            expr_deps(l, views, deps);
            expr_deps(r, views, deps);
        }
        Expr::Contains(l, r) => {
            expr_deps(l, views, deps);
            expr_deps(r, views, deps);
        }
        Expr::Not(e) | Expr::Len(e) | Expr::Index(e, _) => expr_deps(e, views, deps),
        Expr::Tuple(items) | Expr::SetBuild(items) | Expr::Call(_, items) => {
            for e in items {
                expr_deps(e, views, deps);
            }
        }
        Expr::FieldOf { key, .. } | Expr::RowOf { key, .. } | Expr::HasKey { key, .. } => {
            expr_deps(key, views, deps)
        }
        Expr::Const(_) | Expr::Var(_) | Expr::Scalar(_) => {}
    }
}

/// Assign a stratum to every view. Aggregation heads depend on their body
/// views negatively (they read them "all at once"). Errors if negation or
/// aggregation occurs in a recursive cycle.
pub fn stratify(program: &Program) -> Result<FxHashMap<String, usize>, EvalError> {
    // A head fed by both an aggregation and a plain rule would entangle
    // two evaluation regimes (the aggregate re-folds "all at once", the
    // plain rules run semi-naively) on one relation; no evaluator here
    // supports maintaining that union, so reject it up front.
    let plain_heads: FxHashSet<&str> = program.rules.iter().map(|r| r.head.as_str()).collect();
    for r in &program.agg_rules {
        if plain_heads.contains(r.head.as_str()) {
            return Err(EvalError::AggPlainHead(r.head.clone()));
        }
    }
    let views: FxHashSet<String> = program
        .rules
        .iter()
        .map(|r| r.head.clone())
        .chain(program.agg_rules.iter().map(|r| r.head.clone()))
        .collect();

    // edges: head -> (dep, negative). The sentinel `__base__` stands for
    // all base relations at stratum 0, so that negation/aggregation over a
    // base relation still raises the head's stratum (the flow lowering
    // needs the antijoin/fold strictly above its blocking inputs).
    const BASE: &str = "__base__";
    let mut edges: Vec<(String, String, bool)> = Vec::new();
    for rule in &program.rules {
        let mut deps = Vec::new();
        body_deps(&rule.body, &views, &mut deps);
        for e in &rule.head_exprs {
            expr_deps(e, &views, &mut deps);
        }
        for (dep, neg) in deps {
            edges.push((rule.head.clone(), dep, neg));
        }
        if rule
            .body
            .iter()
            .any(|a| matches!(a, BodyAtom::Neg { rel, .. } if !views.contains(rel)))
        {
            edges.push((rule.head.clone(), BASE.to_string(), true));
        }
    }
    for rule in &program.agg_rules {
        let mut deps = Vec::new();
        body_deps(&rule.body, &views, &mut deps);
        expr_deps(&rule.over, &views, &mut deps);
        for e in &rule.group_exprs {
            expr_deps(e, &views, &mut deps);
        }
        // Aggregation is stratum-raising over all its dependencies, and
        // always sits at least one stratum above the base relations it
        // folds over.
        for (dep, _) in deps {
            edges.push((rule.head.clone(), dep, true));
        }
        edges.push((rule.head.clone(), BASE.to_string(), true));
    }

    let mut stratum: FxHashMap<String, usize> = views.iter().map(|v| (v.clone(), 0)).collect();
    stratum.insert(BASE.to_string(), 0);
    let n = views.len().max(1);
    // Bellman-Ford-style relaxation; a stratum exceeding the view count
    // implies a negative cycle, i.e. unstratifiable rules.
    for _round in 0..=n {
        let mut changed = false;
        for (head, dep, neg) in &edges {
            let need = stratum[dep] + usize::from(*neg);
            if stratum[head] < need {
                stratum.insert(head.clone(), need);
                changed = true;
            }
        }
        if !changed {
            stratum.remove(BASE);
            return Ok(stratum);
        }
        if _round == n {
            break;
        }
    }
    // Find a culprit for the error message.
    let culprit = edges
        .iter()
        .find(|(h, d, neg)| *neg && stratum[h] > n.min(stratum[d]))
        .map(|(h, _, _)| h.clone())
        .unwrap_or_else(|| "<unknown>".to_string());
    Err(EvalError::NotStratifiable(culprit))
}

/// A rule body compiled with the head's variables pre-bound: the
/// derivability check DRed's re-derivation phase runs per over-deleted
/// row. Binding a candidate row's values into `head_slots` before the
/// walk turns every scan whose columns the head covers into a keyed
/// probe, so one check costs a fraction of a full rule evaluation.
#[derive(Clone, Debug)]
pub(super) struct CheckQuery {
    /// Body in SIP order seeded by the head bindings; empty projection
    /// (the check only asks whether any assignment exists).
    pub(super) query: CompiledQuery,
    /// Frame slot per head column, in head-projection order.
    pub(super) head_slots: Vec<u32>,
}

/// Greedy sideways-information-passing order over a rule body: starting
/// from `bound` (the delta atom's variables, or a check's head
/// variables), repeatedly pick the best *admissible* atom — one whose
/// free variables are all bound. Filters (guards, negation) run as early
/// as possible, then `let` bindings, then the scan probing the most
/// bound columns; flattens and unconstrained scans go last. Ties break
/// to source position, keeping the order deterministic and as close to
/// the source as the heuristic allows.
///
/// Some atom is always admissible: the smallest-index remaining atom has
/// every source predecessor already placed, and the source order itself
/// is admissible (a precondition — callers only pass reorder-safe
/// bodies, whose proof includes source-order admissibility).
fn sip_order(
    body: &[BodyAtom],
    mut bound: BTreeSet<String>,
    first: Option<usize>,
) -> Vec<usize> {
    let meta: Vec<crate::reorder::AtomBindings> =
        body.iter().map(crate::reorder::atom_bindings).collect();
    let mut order = Vec::with_capacity(body.len());
    if let Some(f) = first {
        bound.extend(meta[f].binds.iter().cloned());
        order.push(f);
    }
    let mut remaining: Vec<usize> = (0..body.len()).filter(|i| Some(*i) != first).collect();
    while !remaining.is_empty() {
        let mut best: Option<(usize, (u8, i64, usize))> = None;
        for (ri, &i) in remaining.iter().enumerate() {
            if !meta[i].needs.is_subset(&bound) {
                continue;
            }
            let key = match &body[i] {
                BodyAtom::Guard(_) | BodyAtom::Neg { .. } => (0, 0, i),
                BodyAtom::Let { .. } => (1, 0, i),
                BodyAtom::Scan { terms, .. } => {
                    let score = terms
                        .iter()
                        .filter(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound.contains(v),
                            Term::Wildcard => false,
                        })
                        .count() as i64;
                    if score > 0 {
                        (2, -score, i)
                    } else {
                        (4, 0, i)
                    }
                }
                BodyAtom::Flatten { .. } => (3, 0, i),
            };
            if best.as_ref().is_none_or(|(_, bk)| key < *bk) {
                best = Some((ri, key));
            }
        }
        let (ri, _) = best.expect("source order is admissible, so some atom always is");
        let i = remaining.remove(ri);
        bound.extend(meta[i].binds.iter().cloned());
        order.push(i);
    }
    order
}

/// Build the per-scan-position SIP variants of a reorder-safe body:
/// for each scan atom, the body re-ordered so that atom runs first
/// (the delta seed) and the rest follow in [`sip_order`]. Positions
/// whose SIP order equals the source order are omitted — the plain
/// compiled query is already optimal there.
fn compile_sip_variants(body: &[BodyAtom], projection: &[Expr]) -> FxHashMap<usize, CompiledQuery> {
    let mut sip = FxHashMap::default();
    for pos in 0..body.len() {
        if !matches!(body[pos], BodyAtom::Scan { .. }) {
            continue;
        }
        let order = sip_order(body, BTreeSet::new(), Some(pos));
        if order.iter().copied().eq(0..body.len()) {
            continue;
        }
        let permuted: Vec<BodyAtom> = order.iter().map(|&i| body[i].clone()).collect();
        sip.insert(pos, CompiledQuery::compile(&permuted, projection));
    }
    sip
}

/// Build a rule's [`CheckQuery`], if its shape admits one: reorder-safe
/// (the permutation license) and a pure-variable head projection (so a
/// candidate row's values bind head slots directly).
fn compile_check(body: &[BodyAtom], head_exprs: &[Expr], reorder_safe: bool) -> Option<CheckQuery> {
    if !reorder_safe || !head_exprs.iter().all(|e| matches!(e, Expr::Var(_))) {
        return None;
    }
    let mut sc = SlotCompiler::new();
    let mut head_vars: BTreeSet<String> = BTreeSet::new();
    let head_slots: Vec<u32> = head_exprs
        .iter()
        .map(|e| {
            let Expr::Var(name) = e else { unreachable!("checked above") };
            head_vars.insert(name.clone());
            let s = sc.slot(name);
            sc.mark_bound(s);
            s
        })
        .collect();
    let order = sip_order(body, head_vars, None);
    let permuted: Vec<BodyAtom> = order.iter().map(|&i| body[i].clone()).collect();
    let (cbody, _) = sc.compile_body(&permuted);
    Some(CheckQuery {
        query: CompiledQuery {
            select: CSelect {
                body: cbody,
                projection: Vec::new(),
            },
            names: sc.into_names(),
        },
        head_slots,
    })
}

/// One rule — plain or aggregation — slot-compiled.
#[derive(Clone, Debug)]
pub(super) struct CompiledRule {
    pub(super) head: String,
    /// The fold of an aggregation rule (whose projection is the group
    /// expressions then `over`); `None` for plain rules.
    pub(super) agg: Option<AggFun>,
    pub(super) query: CompiledQuery,
    /// Statically proven ([`crate::reorder`]) that no binding/arity error
    /// is reachable under any admissible atom order — the license a join
    /// reorderer / SIP pass needs before permuting this body.
    pub(super) reorder_safe: bool,
    /// Sideways-information-passing delta variants, keyed by the scan
    /// atom's *source* position: the body re-ordered so that scan runs
    /// first (the compiled delta atom is always position 0 of the
    /// variant) and later scans probe on the delta row's bindings. Built
    /// only for reorder-safe rules, and only for positions where SIP
    /// actually changes the order. For aggregation rules these find the
    /// body matches an input delta gains/loses.
    pub(super) sip: FxHashMap<usize, CompiledQuery>,
    /// Per-row derivability check for DRed re-derivation (`None` when
    /// the rule isn't reorder-safe or its head projection isn't pure
    /// variables — those rules re-derive via a full evaluation instead —
    /// and for aggregation rules, which are never recursive).
    pub(super) check: Option<CheckQuery>,
}

impl CompiledRule {
    fn compile(
        head: &str,
        agg: Option<AggFun>,
        body: &[BodyAtom],
        projection: &[Expr],
        reorder_safe: bool,
    ) -> Self {
        CompiledRule {
            head: head.to_string(),
            agg,
            query: CompiledQuery::compile(body, projection),
            // SIP permutations and head-bound checks only ever compile
            // for rules with the static reorder license.
            sip: if reorder_safe {
                compile_sip_variants(body, projection)
            } else {
                FxHashMap::default()
            },
            check: if agg.is_none() {
                compile_check(body, projection, reorder_safe)
            } else {
                None
            },
            reorder_safe,
        }
    }
}

/// Every rule of a program compiled once — **the one resolver** all three
/// engines (incremental, fresh semi-naive, fresh naive) share, so slot
/// assignment, probe layouts, error reachability and stateful-UDF ordering
/// are bit-identical across them. Index-aligned with `Program::rules` and
/// `Program::agg_rules`.
pub(super) struct RuleSet {
    pub(super) rules: Vec<CompiledRule>,
    pub(super) aggs: Vec<CompiledRule>,
}

impl RuleSet {
    pub(super) fn compile(program: &Program, reorder: &crate::reorder::ReorderReport) -> Self {
        let rules = program
            .rules
            .iter()
            .zip(&reorder.rules)
            .map(|(r, safety)| {
                CompiledRule::compile(&r.head, None, &r.body, &r.head_exprs, safety.reorder_safe())
            })
            .collect();
        let aggs = program
            .agg_rules
            .iter()
            .zip(&reorder.agg_rules)
            .map(|(r, safety)| {
                let projection: Vec<Expr> = r
                    .group_exprs
                    .iter()
                    .cloned()
                    .chain(std::iter::once(r.over.clone()))
                    .collect();
                CompiledRule::compile(
                    &r.head,
                    Some(r.agg),
                    &r.body,
                    &projection,
                    safety.reorder_safe(),
                )
            })
            .collect();
        RuleSet { rules, aggs }
    }
}

/// What a set of rules reads, split by how the read reacts to change.
#[derive(Clone, Debug, Default)]
struct ReadSets {
    /// Positively scanned relations — monotone reads: insertions into
    /// them can only add derived rows, so they are delta-friendly.
    pos: FxHashSet<String>,
    /// Non-monotone reads: negation, nested `CollectSet` comprehensions
    /// (read "all at once"), and keyed table expressions
    /// (`FieldOf`/`RowOf`/`HasKey`). Any change here can *retract*
    /// derived rows, so it forces a recompute.
    nonmono: FxHashSet<String>,
    /// Scalars read via `Expr::Scalar`.
    scalars: FxHashSet<String>,
    /// Whether a UDF is called: UDFs may be stateful, so results can
    /// change between ticks even with identical inputs.
    volatile: bool,
}

fn collect_body_reads(body: &[BodyAtom], out: &mut ReadSets) {
    for atom in body {
        match atom {
            BodyAtom::Scan { rel, .. } => {
                out.pos.insert(rel.clone());
            }
            BodyAtom::Neg { rel, args } => {
                out.nonmono.insert(rel.clone());
                for e in args {
                    collect_expr_reads(e, out);
                }
            }
            BodyAtom::Guard(e) => collect_expr_reads(e, out),
            BodyAtom::Let { expr, .. } => collect_expr_reads(expr, out),
            BodyAtom::Flatten { set, .. } => collect_expr_reads(set, out),
        }
    }
}

fn collect_expr_reads(expr: &Expr, out: &mut ReadSets) {
    match expr {
        Expr::Scalar(name) => {
            out.scalars.insert(name.clone());
        }
        Expr::Call(_, args) => {
            out.volatile = true;
            for e in args {
                collect_expr_reads(e, out);
            }
        }
        Expr::CollectSet(select) => {
            let mut inner = ReadSets::default();
            collect_body_reads(&select.body, &mut inner);
            for e in &select.projection {
                collect_expr_reads(e, &mut inner);
            }
            out.nonmono.extend(inner.pos);
            out.nonmono.extend(inner.nonmono);
            out.scalars.extend(inner.scalars);
            out.volatile |= inner.volatile;
        }
        Expr::FieldOf { table, key, .. }
        | Expr::RowOf { table, key }
        | Expr::HasKey { table, key } => {
            out.nonmono.insert(table.clone());
            collect_expr_reads(key, out);
        }
        Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            collect_expr_reads(l, out);
            collect_expr_reads(r, out);
        }
        Expr::Contains(l, r) => {
            collect_expr_reads(l, out);
            collect_expr_reads(r, out);
        }
        Expr::Not(e) | Expr::Len(e) | Expr::Index(e, _) => collect_expr_reads(e, out),
        Expr::Tuple(items) | Expr::SetBuild(items) => {
            for e in items {
                collect_expr_reads(e, out);
            }
        }
        Expr::Const(_) | Expr::Var(_) => {}
    }
}

/// One independently schedulable evaluation unit: either all of a
/// stratum's aggregation rules, or one strongly connected component of
/// the stratum's plain rules (so a non-recursive view in the same stratum
/// as an expensive recursive one is maintained without touching it).
pub(super) struct EvalUnit {
    /// Plain-rule indices into `Program::rules` (empty for agg units).
    pub(super) rules: Vec<usize>,
    /// Agg-rule indices into `Program::agg_rules` (empty for rule units).
    pub(super) aggs: Vec<usize>,
    /// Heads this unit derives, in deterministic first-occurrence order.
    pub(super) heads: Vec<String>,
    /// Per rule slot: `(atom position, head)` of same-unit recursive
    /// scans — the delta-variant candidates of the inner fixpoint.
    pub(super) rec_variants: Vec<Vec<(usize, String)>>,
    /// Outside-unit positively scanned relation → `(rule slot, atom
    /// position)` list, in first-occurrence order: the delta-variant
    /// candidates fed by cross-tick input deltas. For agg units the slot
    /// indexes `aggs` instead of `rules` (delta-keyed group maintenance).
    pub(super) input_variants: Vec<(String, Vec<(usize, usize)>)>,
    /// Outside-unit positive reads.
    pub(super) reads_pos: FxHashSet<String>,
    /// Non-monotone reads (negation / aggregation inputs / nested
    /// comprehensions / keyed table expressions).
    pub(super) reads_nonmono: FxHashSet<String>,
    /// Scalars read.
    pub(super) reads_scalar: FxHashSet<String>,
    /// Whether any rule calls a UDF (recompute every tick).
    pub(super) volatile: bool,
    /// Whether any rule scans a same-unit head (the SCC has a cycle):
    /// retractions then need DRed, not per-row counting.
    pub(super) recursive: bool,
    /// Agg units only: the *truly* non-monotone reads (negation, nested
    /// comprehensions, keyed table expressions) — `reads_nonmono` holds
    /// every read for classification, but only changes to these defeat
    /// delta-keyed group maintenance.
    pub(super) agg_nonmono: FxHashSet<String>,
    /// Agg units only: every head has exactly one agg rule, so a group's
    /// output row is owned by one rule and can be replaced in place.
    pub(super) agg_unique_heads: bool,
}

impl EvalUnit {
    /// Rule slots of the unit: positions in `aggs` for an aggregation
    /// unit, in `rules` otherwise.
    pub(super) fn slots(&self) -> usize {
        self.rules.len().max(self.aggs.len())
    }

    /// The compiled rule behind a rule slot.
    pub(super) fn rule<'r>(&self, ruleset: &'r RuleSet, slot: usize) -> &'r CompiledRule {
        if self.rules.is_empty() {
            &ruleset.aggs[self.aggs[slot]]
        } else {
            &ruleset.rules[self.rules[slot]]
        }
    }
}

/// The per-program evaluation plan, compiled once: stratified,
/// SCC-partitioned units in dependency order, per-rule delta-variant
/// tables, and the slot-compiled [`RuleSet`] (bodies, projections, probe
/// layouts and frame name tables) every tick evaluates against.
pub struct ProgramPlan {
    pub(super) units: Vec<EvalUnit>,
    pub(super) ruleset: RuleSet,
    /// Static reorder-safety verdicts, computed once at compile time
    /// (see [`crate::reorder`]).
    reorder: crate::reorder::ReorderReport,
}

// One compiled plan is shared behind an `Arc` by every shard worker
// thread of the parallel driver; keep the compiled forms free of
// thread-unsafe interior state (the *runtime* `ScanCache`/`UdfHost` are
// per-instance and deliberately not `Send`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProgramPlan>();
    assert_send_sync::<RuleSet>();
    assert_send_sync::<EvalUnit>();
};

impl ProgramPlan {
    /// Compile a program's rules. Fails iff the program is unstratifiable.
    pub fn compile(program: &Program) -> Result<Self, EvalError> {
        let strata = stratify(program)?;
        let max_stratum = strata.values().copied().max().unwrap_or(0);
        let units = (0..=max_stratum)
            .flat_map(|s| stratum_units(program, &strata, s, true))
            .collect();
        let reorder = crate::reorder::ReorderReport::analyze(program);
        Ok(ProgramPlan {
            units,
            ruleset: RuleSet::compile(program, &reorder),
            reorder,
        })
    }

    /// The static reorder-safety report computed at compile time.
    pub fn reorder(&self) -> &crate::reorder::ReorderReport {
        &self.reorder
    }

    /// Whether plain rule `index` (into `Program::rules`) is proven
    /// reorder-safe: no `UnboundVar`/`UnknownRelation`/`ArityMismatch`
    /// is reachable under any admissible permutation of its body atoms.
    pub fn rule_reorder_safe(&self, index: usize) -> bool {
        self.ruleset.rules[index].reorder_safe
    }

    /// Whether aggregation rule `index` (into `Program::agg_rules`) is
    /// proven reorder-safe.
    pub fn agg_reorder_safe(&self, index: usize) -> bool {
        self.ruleset.aggs[index].reorder_safe
    }
}

/// The units of stratum `s`, in evaluation order: its aggregation rules
/// as one unit, run first (they read strictly lower strata, so a single
/// pass each), then its plain rules — one unit per SCC of their
/// same-stratum positive head-to-head dependencies, dependencies first,
/// or (`split_sccs == false`, the fresh evaluators) the whole stratum as
/// one unit.
pub(super) fn stratum_units(
    program: &Program,
    strata: &FxHashMap<String, usize>,
    s: usize,
    split_sccs: bool,
) -> Vec<EvalUnit> {
    let in_stratum = |head: &String| strata[head] == s;
    let aggs: Vec<usize> = (0..program.agg_rules.len())
        .filter(|&i| in_stratum(&program.agg_rules[i].head))
        .collect();
    let rule_ids: Vec<usize> = (0..program.rules.len())
        .filter(|&i| in_stratum(&program.rules[i].head))
        .collect();
    let mut units = Vec::new();
    if !aggs.is_empty() {
        units.push(build_agg_unit(program, &aggs));
    }
    if rule_ids.is_empty() {
        return units;
    }
    if split_sccs {
        for comp in stratum_components(program, &rule_ids) {
            units.push(build_rule_unit(program, &comp));
        }
    } else {
        units.push(build_rule_unit(program, &rule_ids));
    }
    units
}

/// Compile one stratum's aggregation rules into an [`EvalUnit`].
fn build_agg_unit(program: &Program, aggs: &[usize]) -> EvalUnit {
    let mut reads = ReadSets::default();
    let mut heads = Vec::new();
    let mut input_variants: Vec<(String, Vec<(usize, usize)>)> = Vec::new();
    let mut input_slot: FxHashMap<String, usize> = FxHashMap::default();
    for (slot, &i) in aggs.iter().enumerate() {
        let rule = &program.agg_rules[i];
        collect_body_reads(&rule.body, &mut reads);
        collect_expr_reads(&rule.over, &mut reads);
        for e in &rule.group_exprs {
            collect_expr_reads(e, &mut reads);
        }
        if !heads.contains(&rule.head) {
            heads.push(rule.head.clone());
        }
        for (pos, atom) in rule.body.iter().enumerate() {
            if let BodyAtom::Scan { rel, .. } = atom {
                let at = *input_slot.entry(rel.clone()).or_insert_with(|| {
                    input_variants.push((rel.clone(), Vec::new()));
                    input_variants.len() - 1
                });
                input_variants[at].1.push((slot, pos));
            }
        }
    }
    // An aggregate must re-fold whenever *any* input changed (a lost row
    // can shrink a count), so every read counts as non-monotone for
    // classification; the truly non-monotone subset is kept separately,
    // since changes confined to positive body scans admit delta-keyed
    // group maintenance instead of a full re-fold.
    let agg_unique_heads = heads.len() == aggs.len();
    let agg_nonmono = reads.nonmono.clone();
    let mut nonmono = reads.nonmono;
    nonmono.extend(reads.pos);
    EvalUnit {
        rules: Vec::new(),
        aggs: aggs.to_vec(),
        heads,
        rec_variants: Vec::new(),
        input_variants,
        reads_pos: FxHashSet::default(),
        reads_nonmono: nonmono,
        reads_scalar: reads.scalars,
        volatile: reads.volatile,
        recursive: false,
        agg_nonmono,
        agg_unique_heads,
    }
}

/// Group a stratum's rules into SCCs of their head-dependency graph and
/// return them dependencies-first. Each component is a rule-index list.
fn stratum_components(program: &Program, rule_ids: &[usize]) -> Vec<Vec<usize>> {
    // Heads in first-occurrence order.
    let mut heads: Vec<&str> = Vec::new();
    let mut head_id: FxHashMap<&str, usize> = FxHashMap::default();
    for &r in rule_ids {
        let h = program.rules[r].head.as_str();
        if !head_id.contains_key(h) {
            head_id.insert(h, heads.len());
            heads.push(h);
        }
    }
    // adj[u] = heads u's rules positively scan (its dependencies).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); heads.len()];
    for &r in rule_ids {
        let u = head_id[program.rules[r].head.as_str()];
        for atom in &program.rules[r].body {
            if let BodyAtom::Scan { rel, .. } = atom {
                if let Some(&v) = head_id.get(rel.as_str()) {
                    if !adj[u].contains(&v) {
                        adj[u].push(v);
                    }
                }
            }
        }
    }
    // Tarjan: components pop in reverse topological order of "depends
    // on" edges, i.e. dependencies before dependents — the evaluation
    // order we need.
    struct Tarjan<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        comps: Vec<Vec<usize>>,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, u: usize) {
            self.index[u] = Some(self.next);
            self.low[u] = self.next;
            self.next += 1;
            self.stack.push(u);
            self.on_stack[u] = true;
            for &v in &self.adj[u] {
                match self.index[v] {
                    None => {
                        self.visit(v);
                        self.low[u] = self.low[u].min(self.low[v]);
                    }
                    Some(vi) if self.on_stack[v] => {
                        self.low[u] = self.low[u].min(vi);
                    }
                    _ => {}
                }
            }
            if self.low[u] == self.index[u].expect("visited") {
                let mut comp = Vec::new();
                loop {
                    let v = self.stack.pop().expect("stack nonempty");
                    self.on_stack[v] = false;
                    comp.push(v);
                    if v == u {
                        break;
                    }
                }
                comp.reverse();
                self.comps.push(comp);
            }
        }
    }
    let mut t = Tarjan {
        adj: &adj,
        index: vec![None; heads.len()],
        low: vec![0; heads.len()],
        on_stack: vec![false; heads.len()],
        stack: Vec::new(),
        next: 0,
        comps: Vec::new(),
    };
    for u in 0..heads.len() {
        if t.index[u].is_none() {
            t.visit(u);
        }
    }
    // Map head components back to rule-index lists (program order).
    t.comps
        .into_iter()
        .map(|comp| {
            let set: FxHashSet<&str> = comp.iter().map(|&u| heads[u]).collect();
            rule_ids
                .iter()
                .copied()
                .filter(|&r| set.contains(program.rules[r].head.as_str()))
                .collect()
        })
        .collect()
}

/// Compile one plain-rule component into an [`EvalUnit`].
fn build_rule_unit(program: &Program, rule_ids: &[usize]) -> EvalUnit {
    let mut heads: Vec<String> = Vec::new();
    for &r in rule_ids {
        if !heads.contains(&program.rules[r].head) {
            heads.push(program.rules[r].head.clone());
        }
    }
    let head_set: FxHashSet<String> = heads.iter().cloned().collect();
    let mut reads = ReadSets::default();
    let mut rec_variants = Vec::with_capacity(rule_ids.len());
    let mut input_variants: Vec<(String, Vec<(usize, usize)>)> = Vec::new();
    let mut input_slot: FxHashMap<String, usize> = FxHashMap::default();
    for (slot, &r) in rule_ids.iter().enumerate() {
        let rule = &program.rules[r];
        collect_body_reads(&rule.body, &mut reads);
        for e in &rule.head_exprs {
            collect_expr_reads(e, &mut reads);
        }
        let mut rec = Vec::new();
        for (pos, atom) in rule.body.iter().enumerate() {
            if let BodyAtom::Scan { rel, .. } = atom {
                if head_set.contains(rel) {
                    rec.push((pos, rel.clone()));
                } else {
                    let at = *input_slot.entry(rel.clone()).or_insert_with(|| {
                        input_variants.push((rel.clone(), Vec::new()));
                        input_variants.len() - 1
                    });
                    input_variants[at].1.push((slot, pos));
                }
            }
        }
        rec_variants.push(rec);
    }
    let mut reads_pos = reads.pos;
    for h in &heads {
        reads_pos.remove(h);
    }
    let recursive = rec_variants.iter().any(|v| !v.is_empty());
    EvalUnit {
        rules: rule_ids.to_vec(),
        aggs: Vec::new(),
        heads,
        rec_variants,
        input_variants,
        reads_pos,
        reads_nonmono: reads.nonmono,
        reads_scalar: reads.scalars,
        volatile: reads.volatile,
        recursive,
        agg_nonmono: FxHashSet::default(),
        agg_unique_heads: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::dsl::{scan, v};
    use crate::builder::ProgramBuilder;

    /// SIP delta-probe variants and DRed check queries compile only for
    /// rules carrying the static reorder license — an unsafe rule keeps
    /// its source order on every path, so reordering can never change
    /// its error reachability.
    #[test]
    fn sip_and_check_queries_are_gated_on_reorder_safety() {
        use crate::builder::dsl::atom;

        let safe = ProgramBuilder::new()
            .table(
                "e",
                vec![("a", atom()), ("b", atom())],
                &["a", "b"],
                None,
            )
            .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
            .rule(
                "tc",
                vec![v("a"), v("c")],
                vec![scan("tc", &["a", "b"]), scan("e", &["b", "c"])],
            )
            .build();
        let plan = ProgramPlan::compile(&safe).expect("safe program compiles");
        assert!(plan.rule_reorder_safe(1));
        let rule = &plan.ruleset.rules[1];
        assert!(
            rule.sip.contains_key(&1),
            "safe two-scan rule gets a SIP variant for the non-leading scan"
        );
        assert!(
            rule.check.is_some(),
            "safe var-headed rule gets a DRed check query"
        );

        // Same shape, but the second scan's pattern width disagrees with
        // the declared arity: the arity error is only reachable when that
        // scan enumerates a row, which depends on atom order — so the
        // rule is unsafe and must never be reordered.
        let unsafe_prog = ProgramBuilder::new()
            .table(
                "e",
                vec![("a", atom()), ("b", atom())],
                &["a", "b"],
                None,
            )
            .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
            .rule(
                "tc",
                vec![v("a"), v("c")],
                vec![scan("tc", &["a", "b"]), scan("e", &["b", "c", "d"])],
            )
            .build();
        let plan = ProgramPlan::compile(&unsafe_prog).expect("still compiles");
        assert!(!plan.rule_reorder_safe(1));
        let rule = &plan.ruleset.rules[1];
        assert!(rule.sip.is_empty(), "unsafe rule gets no SIP variants");
        assert!(rule.check.is_none(), "unsafe rule gets no check query");
    }
}
