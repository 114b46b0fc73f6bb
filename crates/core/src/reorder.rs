//! Static reorder-safety: prove, per rule, that binding and arity errors
//! cannot occur — under the source atom order *or any admissible
//! permutation of it*.
//!
//! ## Why this exists
//!
//! The evaluator reports [`crate::eval::EvalError::UnboundVar`] when an
//! expression reads a variable no earlier atom bound, and an
//! [`crate::eval::EvalError::ArityMismatch`] when a scan pattern's width
//! disagrees with the scanned relation — but the arity check runs against
//! the *first row actually enumerated*, so an ill-arity scan sitting
//! behind an empty join prefix never errors. Both error classes are
//! therefore **reachability-dependent**: reordering a rule's atoms (for
//! sideways information passing, join reordering, or counting-based
//! maintenance) could surface an error the source order never hit, or
//! vice versa. That is exactly why the evaluator gates those
//! optimizations on an error-semantics story (see "Sideways information
//! passing" in the module docs of [`crate::eval`]).
//!
//! This module discharges the gate statically. A rule is *reorder-safe*
//! when:
//!
//! 1. **every scanned or negated relation exists** in the program (a
//!    table, declared or handler mailbox, or rule head), so
//!    `UnknownRelation` is impossible in any order;
//! 2. **every scan and negation pattern has the relation's declared
//!    arity** — since every row a relation can ever hold has the declared
//!    arity (inserts, enqueues, and head projections are all
//!    width-checked), `ArityMismatch` is impossible in any order; and
//! 3. **the source order is admissible**: every variable an expression
//!    position reads (guards, `let`/`flatten` definitions, negation
//!    arguments, head/group/aggregate projections) is bound by an earlier
//!    scan term, `let`, or `flatten` — so `UnboundVar` is unreachable in
//!    source order.
//!
//! Together these make binding/arity errors *order-independent*: an
//! admissible permutation is by definition one where every expression
//! still evaluates with its variables bound (conditions 1–2 are
//! position-free, and condition 3 holds for the permutation by
//! admissibility), so **no admissible order of a reorder-safe rule can
//! raise `UnboundVar`, `UnknownRelation`, or `ArityMismatch`**. A future
//! join reorderer only ever picks admissible orders, hence the per-rule
//! `reorder_safe` flag recorded on the compiled
//! [`crate::eval::ProgramPlan`] (and exposed via
//! [`crate::interp::ProgramCore`]) is exactly the license it needs.
//!
//! The verdict is relative to *well-formed inputs*: messages enqueued
//! into a mailbox are assumed to match the mailbox's declared arity (the
//! runtime enforces this for handler dispatch; `hydro_analysis`'s
//! preflight additionally lints statically-visible `send` widths).
//!
//! Handler bodies are checked too ([`ReorderReport::handlers`]) — their
//! statements are sequential rather than reorderable, so for them the
//! verdict simply means "no binding or arity error is reachable".

use crate::ast::{BodyAtom, Expr, Handler, Program, Select, Stmt, Term, Trigger};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which compilation unit a verdict describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleKind {
    /// A plain rule (`Program::rules`).
    Rule,
    /// A stratified aggregation rule (`Program::agg_rules`).
    AggRule,
    /// A handler body (`Program::handlers`).
    Handler,
}

/// Stable provenance of one verdict: the unit's kind, head (or handler
/// name), and index within its program vector — enough to line a
/// diagnostic up with the source rule even when several rules share a
/// head.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Provenance {
    /// Unit kind.
    pub kind: RuleKind,
    /// Head relation (rules) or handler name.
    pub head: String,
    /// Index into `Program::rules` / `Program::agg_rules` /
    /// `Program::handlers` respectively.
    pub index: usize,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RuleKind::Rule => write!(f, "rule {:?}#{}", self.head, self.index),
            RuleKind::AggRule => write!(f, "agg rule {:?}#{}", self.head, self.index),
            RuleKind::Handler => write!(f, "handler {:?}", self.head),
        }
    }
}

/// One reason a unit is not reorder-safe. Each variant corresponds to a
/// runtime [`crate::eval::EvalError`] the static proof could not exclude.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReorderIssue {
    /// A scan or negation references a relation the program never
    /// declares or derives (`EvalError::UnknownRelation`).
    UnknownRelation {
        /// The missing relation.
        rel: String,
    },
    /// A scan/negation pattern width disagrees with the relation's
    /// declared arity (`EvalError::ArityMismatch` — reachable only when
    /// the scan enumerates a row, hence order-dependent).
    PatternArity {
        /// The scanned relation.
        rel: String,
        /// Width of the pattern in the rule.
        pattern: usize,
        /// The relation's declared arity.
        declared: usize,
    },
    /// Two definitions give one head different arities, so rows of both
    /// widths coexist and scans of the head are arity-unsound.
    HeadArityConflict {
        /// The head relation.
        head: String,
        /// This definition's arity.
        arity: usize,
        /// The arity established by the first definition (or declaration).
        prior: usize,
    },
    /// An expression reads a variable no earlier atom binds
    /// (`EvalError::UnboundVar` under the source order).
    UnboundVar {
        /// The unbound variable.
        var: String,
        /// Where it is read (guard, negation, projection, …).
        context: String,
    },
}

impl fmt::Display for ReorderIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReorderIssue::UnknownRelation { rel } => {
                write!(f, "scans unknown relation {rel:?}")
            }
            ReorderIssue::PatternArity {
                rel,
                pattern,
                declared,
            } => write!(
                f,
                "pattern over {rel:?} has {pattern} terms but the relation's declared arity is {declared}"
            ),
            ReorderIssue::HeadArityConflict { head, arity, prior } => write!(
                f,
                "derives {head:?} with arity {arity} but an earlier definition established arity {prior}"
            ),
            ReorderIssue::UnboundVar { var, context } => {
                write!(f, "{context} reads {var:?} before any atom binds it")
            }
        }
    }
}

/// Variable-binding footprint of one body atom: the variables it needs
/// already bound to evaluate, and the variables it binds for atoms that
/// run after it. This is the per-atom metadata an admissible-order
/// planner consumes: a permutation is admissible iff every atom's
/// `needs` set is covered by the union of `binds` of the atoms placed
/// before it (plus any externally pre-bound variables, e.g. a delta
/// row's columns or a DRed check's head values).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AtomBindings {
    /// Variables the atom reads; all must be bound before it runs.
    pub needs: BTreeSet<String>,
    /// Variables bound (or confirmed bound) once the atom has run.
    pub binds: BTreeSet<String>,
}

/// Compute the binding footprint of a single body atom.
///
/// Scan variable terms appear in `binds` only: an already-bound variable
/// at a scan position degrades to an equality check, never an error, so
/// a scan imposes no ordering constraint of its own. A nested
/// comprehension ([`Expr::CollectSet`]) contributes its *free* variables
/// — those its own body does not bind internally.
pub fn atom_bindings(atom: &BodyAtom) -> AtomBindings {
    let mut ab = AtomBindings::default();
    match atom {
        BodyAtom::Scan { terms, .. } => {
            for t in terms {
                if let Term::Var(v) = t {
                    ab.binds.insert(v.clone());
                }
            }
        }
        BodyAtom::Neg { args, .. } => {
            for a in args {
                expr_free_vars(a, &mut ab.needs);
            }
        }
        BodyAtom::Guard(e) => expr_free_vars(e, &mut ab.needs),
        BodyAtom::Let { var, expr } => {
            expr_free_vars(expr, &mut ab.needs);
            ab.binds.insert(var.clone());
        }
        BodyAtom::Flatten { var, set } => {
            expr_free_vars(set, &mut ab.needs);
            ab.binds.insert(var.clone());
        }
    }
    ab
}

/// Collect the free variables of an expression into `out`. Nested
/// comprehensions bind into a child scope, so only variables their body
/// leaves unbound count as free.
pub fn expr_free_vars(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Var(name) => {
            out.insert(name.clone());
        }
        Expr::CollectSet(sel) => select_free_vars(sel, out),
        Expr::FieldOf { key, .. } | Expr::RowOf { key, .. } | Expr::HasKey { key, .. } => {
            expr_free_vars(key, out);
        }
        Expr::Cmp(_, l, r)
        | Expr::Arith(_, l, r)
        | Expr::And(l, r)
        | Expr::Or(l, r)
        | Expr::Contains(l, r) => {
            expr_free_vars(l, out);
            expr_free_vars(r, out);
        }
        Expr::Not(e) | Expr::Len(e) | Expr::Index(e, _) => expr_free_vars(e, out),
        Expr::Tuple(items) | Expr::SetBuild(items) => {
            for e in items {
                expr_free_vars(e, out);
            }
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_free_vars(a, out);
            }
        }
        Expr::Const(_) | Expr::Scalar(_) => {}
    }
}

/// Free variables of a comprehension: needs of its body atoms and
/// projection not satisfied by earlier binders *within* the body.
fn select_free_vars(sel: &Select, out: &mut BTreeSet<String>) {
    let mut local: BTreeSet<String> = BTreeSet::new();
    for atom in &sel.body {
        let ab = atom_bindings(atom);
        for n in &ab.needs {
            if !local.contains(n) {
                out.insert(n.clone());
            }
        }
        local.extend(ab.binds);
    }
    let mut pvars = BTreeSet::new();
    for e in &sel.projection {
        expr_free_vars(e, &mut pvars);
    }
    for n in pvars {
        if !local.contains(&n) {
            out.insert(n);
        }
    }
}

/// The verdict for one rule, aggregation rule, or handler body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleVerdict {
    /// Which unit this is.
    pub provenance: Provenance,
    /// Everything preventing the safety proof (empty ⇒ safe).
    pub issues: Vec<ReorderIssue>,
    /// Per-atom binding footprints, index-aligned with the unit's body
    /// (empty for handlers, whose statements are sequential). Combined
    /// with an empty `issues` list this is everything a join reorderer
    /// or sideways-information-passing planner needs to enumerate
    /// admissible orders.
    pub atoms: Vec<AtomBindings>,
}

impl RuleVerdict {
    /// Whether the unit is proven reorder-safe: no binding or arity
    /// error is reachable under any admissible atom order.
    pub fn reorder_safe(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Whole-program reorder-safety report, index-aligned with the program's
/// rule and handler vectors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReorderReport {
    /// One verdict per `Program::rules` entry.
    pub rules: Vec<RuleVerdict>,
    /// One verdict per `Program::agg_rules` entry.
    pub agg_rules: Vec<RuleVerdict>,
    /// One verdict per `Program::handlers` entry (sequential bodies:
    /// "safe" here means no binding/arity error is reachable at all).
    pub handlers: Vec<RuleVerdict>,
}

impl ReorderReport {
    /// Run the analysis over a program.
    pub fn analyze(program: &Program) -> Self {
        // Declared arities: tables, mailboxes, handler mailboxes. Rule
        // heads are added first-definition-wins so later conflicting
        // definitions are flagged rather than silently shadowing.
        let mut arities: BTreeMap<String, usize> = BTreeMap::new();
        for t in &program.tables {
            arities.insert(t.name.clone(), t.arity());
        }
        for mb in &program.mailboxes {
            arities.insert(mb.name.clone(), mb.arity);
        }
        for h in &program.handlers {
            arities.insert(h.name.clone(), h.params.len());
        }
        let mut conflicts: Vec<(usize, RuleKind, ReorderIssue)> = Vec::new();
        let mut register_head = |head: &str, arity: usize, index: usize, kind: RuleKind| {
            match arities.get(head) {
                Some(&prior) if prior != arity => {
                    conflicts.push((
                        index,
                        kind,
                        ReorderIssue::HeadArityConflict {
                            head: head.to_string(),
                            arity,
                            prior,
                        },
                    ));
                }
                Some(_) => {}
                None => {
                    arities.insert(head.to_string(), arity);
                }
            }
        };
        for (i, r) in program.rules.iter().enumerate() {
            register_head(&r.head, r.head_exprs.len(), i, RuleKind::Rule);
        }
        for (i, r) in program.agg_rules.iter().enumerate() {
            register_head(&r.head, r.group_exprs.len() + 1, i, RuleKind::AggRule);
        }

        let mut report = ReorderReport::default();
        for (i, r) in program.rules.iter().enumerate() {
            let mut chk = Checker::new(&arities);
            let mut bound = BTreeSet::new();
            chk.check_body(&r.body, &mut bound);
            for e in &r.head_exprs {
                chk.check_expr(e, &bound, "head projection");
            }
            for (_, _, c) in conflicts
                .iter()
                .filter(|(ix, k, _)| *ix == i && *k == RuleKind::Rule)
            {
                chk.issues.push(c.clone());
            }
            report.rules.push(RuleVerdict {
                provenance: Provenance {
                    kind: RuleKind::Rule,
                    head: r.head.clone(),
                    index: i,
                },
                issues: chk.finish(),
                atoms: r.body.iter().map(atom_bindings).collect(),
            });
        }
        for (i, r) in program.agg_rules.iter().enumerate() {
            let mut chk = Checker::new(&arities);
            let mut bound = BTreeSet::new();
            chk.check_body(&r.body, &mut bound);
            for e in &r.group_exprs {
                chk.check_expr(e, &bound, "group projection");
            }
            chk.check_expr(&r.over, &bound, "aggregate input");
            for (_, _, c) in conflicts
                .iter()
                .filter(|(ix, k, _)| *ix == i && *k == RuleKind::AggRule)
            {
                chk.issues.push(c.clone());
            }
            report.agg_rules.push(RuleVerdict {
                provenance: Provenance {
                    kind: RuleKind::AggRule,
                    head: r.head.clone(),
                    index: i,
                },
                issues: chk.finish(),
                atoms: r.body.iter().map(atom_bindings).collect(),
            });
        }
        for (i, h) in program.handlers.iter().enumerate() {
            report.handlers.push(RuleVerdict {
                provenance: Provenance {
                    kind: RuleKind::Handler,
                    head: h.name.clone(),
                    index: i,
                },
                issues: check_handler(&arities, h),
                atoms: Vec::new(),
            });
        }
        report
    }

    /// Whether every rule, aggregation rule, and handler is safe.
    pub fn all_safe(&self) -> bool {
        self.iter().all(RuleVerdict::reorder_safe)
    }

    /// All verdicts: plain rules, then aggregation rules, then handlers.
    pub fn iter(&self) -> impl Iterator<Item = &RuleVerdict> {
        self.rules
            .iter()
            .chain(self.agg_rules.iter())
            .chain(self.handlers.iter())
    }
}

/// Walks one unit accumulating issues against a fixed arity map.
struct Checker<'a> {
    arities: &'a BTreeMap<String, usize>,
    issues: Vec<ReorderIssue>,
}

impl<'a> Checker<'a> {
    fn new(arities: &'a BTreeMap<String, usize>) -> Self {
        Checker {
            arities,
            issues: Vec::new(),
        }
    }

    fn finish(mut self) -> Vec<ReorderIssue> {
        self.issues.sort();
        self.issues.dedup();
        self.issues
    }

    fn check_rel(&mut self, rel: &str, pattern: usize) {
        match self.arities.get(rel) {
            None => self.issues.push(ReorderIssue::UnknownRelation {
                rel: rel.to_string(),
            }),
            Some(&declared) if declared != pattern => {
                self.issues.push(ReorderIssue::PatternArity {
                    rel: rel.to_string(),
                    pattern,
                    declared,
                });
            }
            Some(_) => {}
        }
    }

    /// Walk a body in source order, extending `bound` with every binder
    /// (scan variables, `let`, `flatten`) and checking each expression
    /// position against the bindings established so far.
    fn check_body(&mut self, body: &[BodyAtom], bound: &mut BTreeSet<String>) {
        for atom in body {
            match atom {
                BodyAtom::Scan { rel, terms } => {
                    self.check_rel(rel, terms.len());
                    for t in terms {
                        if let Term::Var(v) = t {
                            bound.insert(v.clone());
                        }
                    }
                }
                BodyAtom::Neg { rel, args } => {
                    self.check_rel(rel, args.len());
                    for a in args {
                        self.check_expr(a, bound, &format!("negation of {rel:?}"));
                    }
                }
                BodyAtom::Guard(e) => self.check_expr(e, bound, "guard"),
                BodyAtom::Let { var, expr } => {
                    self.check_expr(expr, bound, &format!("definition of let {var:?}"));
                    bound.insert(var.clone());
                }
                BodyAtom::Flatten { var, set } => {
                    self.check_expr(set, bound, &format!("flatten source of {var:?}"));
                    bound.insert(var.clone());
                }
            }
        }
    }

    /// Check a nested comprehension: its body binds into a child scope
    /// that sees the enclosing bindings but does not leak back out —
    /// mirroring the slot compiler's scoped un-marking.
    fn check_select(&mut self, sel: &Select, bound: &BTreeSet<String>, context: &str) {
        let mut inner = bound.clone();
        self.check_body(&sel.body, &mut inner);
        for e in &sel.projection {
            self.check_expr(e, &inner, context);
        }
    }

    fn check_expr(&mut self, e: &Expr, bound: &BTreeSet<String>, context: &str) {
        match e {
            Expr::Var(name) => {
                if !bound.contains(name) {
                    self.issues.push(ReorderIssue::UnboundVar {
                        var: name.clone(),
                        context: context.to_string(),
                    });
                }
            }
            Expr::CollectSet(sel) => self.check_select(sel, bound, "comprehension projection"),
            Expr::FieldOf { key, .. } | Expr::RowOf { key, .. } | Expr::HasKey { key, .. } => {
                self.check_expr(key, bound, context);
            }
            Expr::Cmp(_, l, r)
            | Expr::Arith(_, l, r)
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Contains(l, r) => {
                self.check_expr(l, bound, context);
                self.check_expr(r, bound, context);
            }
            Expr::Not(e) | Expr::Len(e) | Expr::Index(e, _) => self.check_expr(e, bound, context),
            Expr::Tuple(items) | Expr::SetBuild(items) => {
                for e in items {
                    self.check_expr(e, bound, context);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.check_expr(a, bound, context);
                }
            }
            Expr::Const(_) | Expr::Scalar(_) => {}
        }
    }

    /// Walk handler statements; `bound` starts at the handler params and
    /// grows through `ForEach` scopes (scoped: the clone never leaks).
    fn check_stmts(&mut self, stmts: &[Stmt], bound: &BTreeSet<String>) {
        for stmt in stmts {
            match stmt {
                Stmt::Merge(target, e) => {
                    if let crate::ast::MergeTarget::TableField { key, .. } = target {
                        self.check_expr(key, bound, "merge key");
                    }
                    self.check_expr(e, bound, "merge value");
                }
                Stmt::Assign(target, e) => {
                    if let crate::ast::AssignTarget::TableField { key, .. } = target {
                        self.check_expr(key, bound, "assignment key");
                    }
                    self.check_expr(e, bound, "assigned value");
                }
                Stmt::Insert { table, values } => {
                    for e in values {
                        self.check_expr(e, bound, &format!("insert into {table:?}"));
                    }
                }
                Stmt::Delete { key, .. } => self.check_expr(key, bound, "delete key"),
                Stmt::Send { mailbox, select } => {
                    self.check_select(select, bound, &format!("send to {mailbox:?}"));
                }
                Stmt::Return(e) => self.check_expr(e, bound, "return value"),
                Stmt::If { cond, then, els } => {
                    self.check_expr(cond, bound, "if condition");
                    self.check_stmts(then, bound);
                    self.check_stmts(els, bound);
                }
                Stmt::ForEach { select, stmts } => {
                    let mut inner = bound.clone();
                    self.check_body(&select.body, &mut inner);
                    // The projection of a `ForEach` select is ignored at
                    // runtime; only the body statements execute.
                    self.check_stmts(stmts, &inner);
                }
                Stmt::ClearMailbox(_) => {}
            }
        }
    }
}

fn check_handler(arities: &BTreeMap<String, usize>, h: &Handler) -> Vec<ReorderIssue> {
    let mut chk = Checker::new(arities);
    let bound: BTreeSet<String> = h.params.iter().cloned().collect();
    if let Trigger::OnCondition(cond) = &h.trigger {
        chk.check_expr(cond, &bound, "trigger condition");
    }
    chk.check_stmts(&h.body, &bound);
    chk.finish()
}
