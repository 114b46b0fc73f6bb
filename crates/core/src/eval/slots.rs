//! Compiled variable slots: the evaluation hot path.
//!
//! The engines evaluate a slot-compiled mirror of the AST: every variable
//! in a rule (or handler body) is resolved once, at plan time, to a dense
//! numeric slot, and evaluation runs against a reusable [`Frame`] — so the
//! per-row cost of binding a variable is an indexed store, not a string
//! hash. The map-based twin of everything here lives in `reference.rs`.

use super::relation::{Database, Row};
use super::{bool_of, int_of, EvalCtx, EvalError};
use crate::ast::{ArithOp, BodyAtom, CmpOp, Expr, Select, Term};
use crate::value::Value;
use rustc_hash::FxHashMap;

/// A compiled variable store: one `Option<Value>` per slot (`None` =
/// unbound), plus an undo log for scan bindings.
///
/// # Scope discipline
///
/// Every construct that binds restores on exit, so a frame returns to its
/// entry state after any successful body walk (engines reuse one scratch
/// frame across rules and rounds; `reset` re-arms it defensively after
/// errors, which may abandon a walk mid-body):
///
/// * **Scan rows** ([`CTerm::Bind`]) mark the undo log before matching a
///   row's terms and truncate back to the mark afterwards — including on a
///   mismatch part-way through the terms. A `Bind` slot is statically
///   unbound at that point of the body, so undo entries are bare slot ids
///   and undoing just stores `None`.
/// * **`let` and `flatten`** save the prior slot value in a local and
///   restore it after the sub-walk — shadowing an outer binding of the
///   same name works exactly like the map's insert-prior/restore dance.
/// * **Nested comprehensions** (`CollectSet`) evaluate in the same frame;
///   their bindings restore by the two rules above, so the enclosing walk
///   never observes them.
#[derive(Clone, Debug, Default)]
pub(crate) struct Frame {
    slots: Vec<Option<Value>>,
    undo: Vec<u32>,
    /// Value-preserving undo log for scoped *overwrites* (handler `ForEach`
    /// bindings, which may shadow already-bound slots): `(slot, prior)`
    /// pairs restored in reverse by [`Frame::restore_saved`]. A persistent
    /// stack, so a per-match save/restore allocates nothing.
    saved: Vec<(u32, Option<Value>)>,
}

impl Frame {
    /// Clear and size the frame for a body with `len` slots.
    pub(crate) fn reset(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize(len, None);
        self.undo.clear();
        self.saved.clear();
    }

    /// Read a slot (`None` = unbound).
    pub(crate) fn get(&self, slot: u32) -> Option<&Value> {
        self.slots[slot as usize].as_ref()
    }

    /// Store into a slot, returning the prior value.
    pub(crate) fn replace(&mut self, slot: u32, v: Option<Value>) -> Option<Value> {
        std::mem::replace(&mut self.slots[slot as usize], v)
    }

    fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Bind a statically-unbound slot, recording it for [`Frame::undo_to`].
    fn bind(&mut self, slot: u32, v: Value) {
        self.slots[slot as usize] = Some(v);
        self.undo.push(slot);
    }

    /// Unbind every slot bound since `mark` (scan-row bindings only).
    fn undo_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let slot = self.undo.pop().expect("len checked");
            self.slots[slot as usize] = None;
        }
    }

    /// Mark the save stack (see [`Frame::save_replace`]).
    pub(crate) fn save_mark(&self) -> usize {
        self.saved.len()
    }

    /// Overwrite a slot, pushing its prior value onto the save stack.
    pub(crate) fn save_replace(&mut self, slot: u32, v: Option<Value>) {
        let prior = std::mem::replace(&mut self.slots[slot as usize], v);
        self.saved.push((slot, prior));
    }

    /// Restore every slot overwritten since `mark`, in reverse order —
    /// the mark/truncate discipline for value-preserving scopes.
    pub(crate) fn restore_saved(&mut self, mark: usize) {
        while self.saved.len() > mark {
            let (slot, prior) = self.saved.pop().expect("len checked");
            self.slots[slot as usize] = prior;
        }
    }
}

/// Compiled scan term: boundness is resolved statically (a body is a
/// linear sequence, so whether an earlier atom — or an earlier term of the
/// same atom — introduced the variable is known at compile time).
#[derive(Clone, Debug)]
pub(crate) enum CTerm {
    /// Match a constant.
    Const(Value),
    /// Variable already bound here: compare against its slot.
    Check(u32),
    /// First occurrence: bind the slot to the row value.
    Bind(u32),
    /// Ignore the position.
    Wildcard,
}

/// Where one probe-key value comes from at scan time.
#[derive(Clone, Debug)]
pub(super) enum ProbeSrc {
    /// A constant in the scan pattern.
    Const(Value),
    /// A slot bound by an earlier atom (statically guaranteed).
    Slot(u32),
}

/// Precomputed probe shape for one scan atom: which columns are bound at
/// probe time and where each key value comes from, so the per-binding work
/// of a probe is indexed value loads only. Only columns bound *before* the
/// atom participate (a within-atom repeated variable is a [`CTerm::Check`],
/// not a probe column — exactly matching the reference's dynamic
/// detection).
#[derive(Clone, Debug, Default)]
pub(crate) struct ProbeLayout {
    pub(super) cols: Vec<usize>,
    pub(super) srcs: Vec<ProbeSrc>,
}

/// Slot-compiled mirror of [`Expr`]. Only variables are resolved at
/// compile time: tables, columns, scalars and UDFs keep their names and
/// resolve per evaluation, so *which* errors are reachable (unknown
/// table/column/scalar/UDF on an executed expression only) is identical to
/// the reference.
#[derive(Clone, Debug)]
pub(crate) enum CExpr {
    /// Literal.
    Const(Value),
    /// Slot-resolved variable.
    Var(u32),
    /// Scalar read (resolved per evaluation).
    Scalar(String),
    /// Comparison.
    Cmp(CmpOp, Box<CExpr>, Box<CExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<CExpr>, Box<CExpr>),
    /// Logical negation.
    Not(Box<CExpr>),
    /// Short-circuit conjunction.
    And(Box<CExpr>, Box<CExpr>),
    /// Short-circuit disjunction.
    Or(Box<CExpr>, Box<CExpr>),
    /// Tuple build.
    Tuple(Vec<CExpr>),
    /// Tuple projection.
    Index(Box<CExpr>, usize),
    /// Set build.
    SetBuild(Vec<CExpr>),
    /// Set membership.
    Contains(Box<CExpr>, Box<CExpr>),
    /// Set / tuple cardinality.
    Len(Box<CExpr>),
    /// Keyed field read.
    FieldOf {
        /// Table name.
        table: String,
        /// Key expression.
        key: Box<CExpr>,
        /// Column name (resolved per evaluation, like the reference).
        field: String,
    },
    /// Keyed row read.
    RowOf {
        /// Table name.
        table: String,
        /// Key expression.
        key: Box<CExpr>,
    },
    /// Key-presence test.
    HasKey {
        /// Table name.
        table: String,
        /// Key expression.
        key: Box<CExpr>,
    },
    /// UDF call.
    Call(String, Vec<CExpr>),
    /// Nested comprehension, evaluated in the same frame (its bindings are
    /// scoped by the restore discipline).
    CollectSet(Box<CSelect>),
}

/// Slot-compiled mirror of [`BodyAtom`].
#[derive(Clone, Debug)]
pub(crate) enum CAtom {
    /// Positional scan with compiled terms and a static probe layout
    /// (`None` = no statically bound column, a full scan).
    Scan {
        /// Relation name.
        rel: String,
        /// Compiled terms.
        terms: Vec<CTerm>,
        /// Static probe layout.
        layout: Option<ProbeLayout>,
    },
    /// Stratified negation.
    Neg {
        /// Relation name.
        rel: String,
        /// Tuple to test for absence.
        args: Vec<CExpr>,
    },
    /// Boolean guard.
    Guard(CExpr),
    /// Bind a slot to an expression (restores the prior value on exit).
    Let {
        /// Slot to bind.
        slot: u32,
        /// Defining expression.
        expr: CExpr,
    },
    /// Iterate a set-valued expression, binding each element.
    Flatten {
        /// Slot bound to each element.
        slot: u32,
        /// Set-valued expression.
        set: CExpr,
    },
}

/// Slot-compiled comprehension.
#[derive(Clone, Debug)]
pub(crate) struct CSelect {
    /// Compiled body atoms, evaluated in source order.
    pub(crate) body: Vec<CAtom>,
    /// Compiled projection.
    pub(crate) projection: Vec<CExpr>,
}

/// The slot-resolution pass: allocates one dense slot per distinct
/// variable name of a compilation unit (one rule, one aggregation rule, or
/// one handler body — whatever shares a frame), and tracks static
/// boundness while walking bodies so scan terms compile to
/// [`CTerm::Check`] vs [`CTerm::Bind`] and probe layouts cover exactly the
/// columns the reference's dynamic detection would.
///
/// Boundness is static because a body is a linear conjunction: at any
/// atom, the bound variables are the base bindings (empty for rules;
/// handler params for handler statements; the enclosing scopes for nested
/// constructs) plus whatever earlier atoms introduced. Scoped constructs
/// un-mark on exit via [`SlotCompiler::unmark`].
pub(crate) struct SlotCompiler {
    names: Vec<String>,
    by_name: FxHashMap<String, u32>,
    bound: Vec<bool>,
}

impl SlotCompiler {
    /// Empty compiler (no slots, nothing bound).
    pub(crate) fn new() -> Self {
        SlotCompiler {
            names: Vec::new(),
            by_name: FxHashMap::default(),
            bound: Vec::new(),
        }
    }

    /// Get-or-create the slot for a variable name (created unbound).
    pub(crate) fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), s);
        self.bound.push(false);
        s
    }

    /// The slot for a name, if one was ever allocated.
    pub(crate) fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Mark a slot statically bound (handler params, `ForEach` scopes).
    pub(crate) fn mark_bound(&mut self, slot: u32) {
        self.bound[slot as usize] = true;
    }

    /// Un-mark slots when their binding scope closes.
    pub(crate) fn unmark(&mut self, slots: &[u32]) {
        for &s in slots {
            self.bound[s as usize] = false;
        }
    }

    /// Consume the compiler, yielding the slot → name table (used only to
    /// render `UnboundVar` errors identically to the reference).
    pub(crate) fn into_names(self) -> Vec<String> {
        self.names
    }

    /// Compile an expression against the current boundness state.
    pub(crate) fn compile_expr(&mut self, e: &Expr) -> CExpr {
        match e {
            Expr::Const(v) => CExpr::Const(v.clone()),
            Expr::Var(name) => CExpr::Var(self.slot(name)),
            Expr::Scalar(name) => CExpr::Scalar(name.clone()),
            Expr::Cmp(op, l, r) => CExpr::Cmp(
                *op,
                Box::new(self.compile_expr(l)),
                Box::new(self.compile_expr(r)),
            ),
            Expr::Arith(op, l, r) => CExpr::Arith(
                *op,
                Box::new(self.compile_expr(l)),
                Box::new(self.compile_expr(r)),
            ),
            Expr::Not(e) => CExpr::Not(Box::new(self.compile_expr(e))),
            Expr::And(l, r) => CExpr::And(
                Box::new(self.compile_expr(l)),
                Box::new(self.compile_expr(r)),
            ),
            Expr::Or(l, r) => CExpr::Or(
                Box::new(self.compile_expr(l)),
                Box::new(self.compile_expr(r)),
            ),
            Expr::Tuple(items) => {
                CExpr::Tuple(items.iter().map(|e| self.compile_expr(e)).collect())
            }
            Expr::Index(e, i) => CExpr::Index(Box::new(self.compile_expr(e)), *i),
            Expr::SetBuild(items) => {
                CExpr::SetBuild(items.iter().map(|e| self.compile_expr(e)).collect())
            }
            Expr::Contains(l, r) => CExpr::Contains(
                Box::new(self.compile_expr(l)),
                Box::new(self.compile_expr(r)),
            ),
            Expr::Len(e) => CExpr::Len(Box::new(self.compile_expr(e))),
            Expr::FieldOf { table, key, field } => CExpr::FieldOf {
                table: table.clone(),
                key: Box::new(self.compile_expr(key)),
                field: field.clone(),
            },
            Expr::RowOf { table, key } => CExpr::RowOf {
                table: table.clone(),
                key: Box::new(self.compile_expr(key)),
            },
            Expr::HasKey { table, key } => CExpr::HasKey {
                table: table.clone(),
                key: Box::new(self.compile_expr(key)),
            },
            Expr::Call(name, args) => CExpr::Call(
                name.clone(),
                args.iter().map(|e| self.compile_expr(e)).collect(),
            ),
            Expr::CollectSet(select) => {
                // The nested comprehension's own bindings are scoped: they
                // compile against the current boundness and un-mark on
                // exit, so a later atom of the enclosing body sees exactly
                // the names the reference's cloned-base semantics exposes.
                let (csel, introduced) = self.compile_select(select);
                self.unmark(&introduced);
                CExpr::CollectSet(Box::new(csel))
            }
        }
    }

    /// Compile a body, marking introduced slots bound as it walks; returns
    /// the slots this body newly bound, in first-binding order. The caller
    /// decides when their scope closes ([`SlotCompiler::unmark`]).
    pub(crate) fn compile_body(&mut self, body: &[BodyAtom]) -> (Vec<CAtom>, Vec<u32>) {
        let mut out = Vec::with_capacity(body.len());
        let mut introduced: Vec<u32> = Vec::new();
        for atom in body {
            match atom {
                BodyAtom::Scan { rel, terms } => {
                    let mut layout = ProbeLayout::default();
                    let mut cterms = Vec::with_capacity(terms.len());
                    // Layout columns come from boundness *before* the
                    // atom; snapshot it, since the term walk below marks
                    // within-atom bindings.
                    let bound_before = self.bound.clone();
                    for (i, t) in terms.iter().enumerate() {
                        match t {
                            Term::Const(c) => {
                                layout.cols.push(i);
                                layout.srcs.push(ProbeSrc::Const(c.clone()));
                                cterms.push(CTerm::Const(c.clone()));
                            }
                            Term::Var(name) => {
                                let s = self.slot(name);
                                if bound_before.get(s as usize).copied().unwrap_or(false) {
                                    layout.cols.push(i);
                                    layout.srcs.push(ProbeSrc::Slot(s));
                                }
                                if self.bound[s as usize] {
                                    cterms.push(CTerm::Check(s));
                                } else {
                                    cterms.push(CTerm::Bind(s));
                                    self.bound[s as usize] = true;
                                    introduced.push(s);
                                }
                            }
                            Term::Wildcard => cterms.push(CTerm::Wildcard),
                        }
                    }
                    out.push(CAtom::Scan {
                        rel: rel.clone(),
                        terms: cterms,
                        layout: (!layout.cols.is_empty()).then_some(layout),
                    });
                }
                BodyAtom::Neg { rel, args } => {
                    out.push(CAtom::Neg {
                        rel: rel.clone(),
                        args: args.iter().map(|e| self.compile_expr(e)).collect(),
                    });
                }
                BodyAtom::Guard(e) => out.push(CAtom::Guard(self.compile_expr(e))),
                BodyAtom::Let { var, expr } => {
                    // The defining expression sees the pre-`let` scope.
                    let cexpr = self.compile_expr(expr);
                    let s = self.slot(var);
                    if !self.bound[s as usize] {
                        self.bound[s as usize] = true;
                        introduced.push(s);
                    }
                    out.push(CAtom::Let { slot: s, expr: cexpr });
                }
                BodyAtom::Flatten { var, set } => {
                    let cset = self.compile_expr(set);
                    let s = self.slot(var);
                    if !self.bound[s as usize] {
                        self.bound[s as usize] = true;
                        introduced.push(s);
                    }
                    out.push(CAtom::Flatten { slot: s, set: cset });
                }
            }
        }
        (out, introduced)
    }

    /// Compile a comprehension (body + projection); returns the slots the
    /// body newly bound (still marked — the caller un-marks when the
    /// select's scope closes).
    pub(crate) fn compile_select(&mut self, select: &Select) -> (CSelect, Vec<u32>) {
        let (body, introduced) = self.compile_body(&select.body);
        let projection = select
            .projection
            .iter()
            .map(|e| self.compile_expr(e))
            .collect();
        (CSelect { body, projection }, introduced)
    }
}

/// Evaluate a compiled expression against a frame.
pub(crate) fn eval_cexpr(
    expr: &CExpr,
    frame: &mut Frame,
    names: &[String],
    ctx: &mut EvalCtx<'_>,
) -> Result<Value, EvalError> {
    match expr {
        CExpr::Const(v) => Ok(v.clone()),
        CExpr::Var(s) => frame.slots[*s as usize]
            .clone()
            .ok_or_else(|| EvalError::UnboundVar(names[*s as usize].clone())),
        CExpr::Scalar(name) => ctx
            .scalars
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownScalar(name.clone())),
        CExpr::Cmp(op, l, r) => {
            let l = eval_cexpr(l, frame, names, ctx)?;
            let r = eval_cexpr(r, frame, names, ctx)?;
            let res = match op {
                CmpOp::Eq => l == r,
                CmpOp::Ne => l != r,
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
            };
            Ok(Value::Bool(res))
        }
        CExpr::Arith(op, l, r) => {
            let l = int_of(eval_cexpr(l, frame, names, ctx)?)?;
            let r = int_of(eval_cexpr(r, frame, names, ctx)?)?;
            let v = match op {
                ArithOp::Add => l.wrapping_add(r),
                ArithOp::Sub => l.wrapping_sub(r),
                ArithOp::Mul => l.wrapping_mul(r),
                ArithOp::Div => {
                    if r == 0 {
                        return Err(EvalError::DivByZero);
                    }
                    l.wrapping_div(r)
                }
                ArithOp::Mod => {
                    if r == 0 {
                        return Err(EvalError::DivByZero);
                    }
                    l.wrapping_rem(r)
                }
            };
            Ok(Value::Int(v))
        }
        CExpr::Not(e) => Ok(Value::Bool(!bool_of(eval_cexpr(e, frame, names, ctx)?)?)),
        CExpr::And(l, r) => {
            if bool_of(eval_cexpr(l, frame, names, ctx)?)? {
                eval_cexpr(r, frame, names, ctx)
            } else {
                Ok(Value::Bool(false))
            }
        }
        CExpr::Or(l, r) => {
            if bool_of(eval_cexpr(l, frame, names, ctx)?)? {
                Ok(Value::Bool(true))
            } else {
                eval_cexpr(r, frame, names, ctx)
            }
        }
        CExpr::Tuple(items) => Ok(Value::Tuple(
            items
                .iter()
                .map(|e| eval_cexpr(e, frame, names, ctx))
                .collect::<Result<_, _>>()?,
        )),
        CExpr::Index(e, i) => {
            let v = eval_cexpr(e, frame, names, ctx)?;
            let t = v.as_tuple().ok_or_else(|| EvalError::Type {
                expected: "tuple",
                got: format!("{v:?}"),
            })?;
            t.get(*i).cloned().ok_or(EvalError::Type {
                expected: "tuple index in range",
                got: format!("index {i} of arity {}", t.len()),
            })
        }
        CExpr::SetBuild(items) => Ok(Value::Set(
            items
                .iter()
                .map(|e| eval_cexpr(e, frame, names, ctx))
                .collect::<Result<_, _>>()?,
        )),
        CExpr::Contains(set, item) => {
            let s = eval_cexpr(set, frame, names, ctx)?;
            let item = eval_cexpr(item, frame, names, ctx)?;
            let set = s.as_set().ok_or_else(|| EvalError::Type {
                expected: "set",
                got: format!("{s:?}"),
            })?;
            Ok(Value::Bool(set.contains(&item)))
        }
        CExpr::Len(e) => {
            let v = eval_cexpr(e, frame, names, ctx)?;
            match &v {
                Value::Set(s) => Ok(Value::Int(s.len() as i64)),
                Value::Tuple(t) => Ok(Value::Int(t.len() as i64)),
                other => Err(EvalError::Type {
                    expected: "set or tuple",
                    got: format!("{other:?}"),
                }),
            }
        }
        CExpr::FieldOf { table, key, field } => {
            let k = eval_cexpr(key, frame, names, ctx)?;
            let t = ctx
                .program
                .table(table)
                .ok_or_else(|| EvalError::UnknownTable(table.clone()))?;
            let col = t.column_index(field).ok_or_else(|| EvalError::UnknownColumn {
                table: table.clone(),
                column: field.clone(),
            })?;
            Ok(match ctx.lookup_row(table, &k)? {
                Some(row) => row[col].clone(),
                None => Value::Null,
            })
        }
        CExpr::RowOf { table, key } => {
            let k = eval_cexpr(key, frame, names, ctx)?;
            Ok(match ctx.lookup_row(table, &k)? {
                Some(row) => Value::Tuple(row.clone()),
                None => Value::Null,
            })
        }
        CExpr::HasKey { table, key } => {
            let k = eval_cexpr(key, frame, names, ctx)?;
            Ok(Value::Bool(ctx.lookup_row(table, &k)?.is_some()))
        }
        CExpr::Call(name, args) => {
            let args: Vec<Value> = args
                .iter()
                .map(|e| eval_cexpr(e, frame, names, ctx))
                .collect::<Result<_, _>>()?;
            ctx.udfs.call(name, &args)
        }
        CExpr::CollectSet(select) => {
            let rows = eval_cselect(select, frame, names, ctx)?;
            Ok(Value::Set(
                rows.into_iter()
                    .map(|mut r| {
                        if r.len() == 1 {
                            r.pop().expect("len checked")
                        } else {
                            Value::Tuple(r)
                        }
                    })
                    .collect(),
            ))
        }
    }
}

/// How a compiled body is to be evaluated; same source-order contract as
/// `reference::BodyPlan`.
struct CPlan<'p> {
    /// The body's atoms, evaluated in source order.
    body: &'p [CAtom],
    /// Slot → variable name of the body's frame (for `UnboundVar`).
    names: &'p [String],
    /// `(atom position, delta rows)`: that scan ranges over the delta
    /// rows instead of the relation.
    delta: Option<(usize, &'p [Row])>,
    /// Probe hash indexes for bound scan columns (`false` = pure nested
    /// loops, for the naive reference engine).
    use_indexes: bool,
}

/// Evaluate a compiled comprehension under the *current* frame state
/// (nested comprehensions and handler selects; the frame is left exactly
/// as found). Ad-hoc evaluation always probes indexes, exactly like the
/// reference's [`eval_select`](super::eval_select).
pub(crate) fn eval_cselect(
    select: &CSelect,
    frame: &mut Frame,
    names: &[String],
    ctx: &mut EvalCtx<'_>,
) -> Result<Vec<Row>, EvalError> {
    let plan = CPlan {
        body: &select.body,
        names,
        delta: None,
        use_indexes: true,
    };
    eval_cquery(&plan, &select.projection, frame, ctx)
}

fn eval_cquery(
    plan: &CPlan<'_>,
    projection: &[CExpr],
    frame: &mut Frame,
    ctx: &mut EvalCtx<'_>,
) -> Result<Vec<Row>, EvalError> {
    let mut out = Vec::new();
    eval_cbody(plan, 0, frame, ctx, &mut |f, ctx| {
        let row = projection
            .iter()
            .map(|e| eval_cexpr(e, f, plan.names, ctx))
            .collect::<Result<Row, _>>()?;
        out.push(row);
        Ok(())
    })?;
    Ok(out)
}

/// Recursive source-order compiled-body evaluation; the slot-frame twin of
/// `reference::eval_body`.
fn eval_cbody(
    plan: &CPlan<'_>,
    step: usize,
    frame: &mut Frame,
    ctx: &mut EvalCtx<'_>,
    emit: &mut dyn FnMut(&mut Frame, &mut EvalCtx<'_>) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let pos = step;
    let names = plan.names;
    if pos >= plan.body.len() {
        return emit(frame, ctx);
    }
    match &plan.body[pos] {
        CAtom::Scan { rel, terms, layout } => {
            let arity = |first: Option<&Row>| match first {
                Some(row) if row.len() != terms.len() => Err(EvalError::ArityMismatch {
                    rel: rel.clone(),
                    expected: terms.len(),
                    actual: row.len(),
                }),
                _ => Ok(()),
            };
            // A delta atom ranges over its rows, never through an index.
            if let Some((_, rows)) = plan.delta.filter(|&(p, _)| p == pos) {
                arity(rows.first())?;
                for row in rows {
                    cscan_row(plan, step, terms, row, frame, ctx, emit)?;
                }
                return Ok(());
            }
            let db: &Database = ctx.db;
            let relation = db
                .get(rel)
                .ok_or_else(|| EvalError::UnknownRelation(rel.clone()))?;
            arity(relation.iter().next())?;
            // Probe the composite index over the statically bound columns.
            // The probe key is read *borrowed* — constants from the layout,
            // bound variables straight from the frame slots — so the fast
            // path clones no `Value`, hashes no names, allocates nothing.
            // An index lists every stored slot; the relation's view decides
            // which of them this scan sees.
            let probe = if plan.use_indexes {
                layout
                    .as_ref()
                    .map(|l| ctx.scan_cache.probe_layout(rel, relation, l, frame))
            } else {
                None
            };
            match probe {
                None => {
                    for row in relation.iter() {
                        cscan_row(plan, step, terms, row, frame, ctx, emit)?;
                    }
                }
                // Indexed probe with no matching rows: nothing to scan.
                Some(None) => {}
                Some(Some(ids)) => {
                    for &i in ids.iter().filter(|&&i| relation.visible(i)) {
                        cscan_row(plan, step, terms, relation.row(i), frame, ctx, emit)?;
                    }
                }
            }
            Ok(())
        }
        CAtom::Neg { rel, args } => {
            let tuple: Row = args
                .iter()
                .map(|e| eval_cexpr(e, frame, names, ctx))
                .collect::<Result<_, _>>()?;
            let relation = ctx
                .db
                .get(rel)
                .ok_or_else(|| EvalError::UnknownRelation(rel.clone()))?;
            if relation.contains(&tuple) {
                Ok(())
            } else {
                eval_cbody(plan, step + 1, frame, ctx, emit)
            }
        }
        CAtom::Guard(expr) => {
            if bool_of(eval_cexpr(expr, frame, names, ctx)?)? {
                eval_cbody(plan, step + 1, frame, ctx, emit)
            } else {
                Ok(())
            }
        }
        CAtom::Let { slot, expr } => {
            let v = eval_cexpr(expr, frame, names, ctx)?;
            let prior = frame.replace(*slot, Some(v));
            eval_cbody(plan, step + 1, frame, ctx, emit)?;
            frame.replace(*slot, prior);
            Ok(())
        }
        CAtom::Flatten { slot, set } => {
            let v = eval_cexpr(set, frame, names, ctx)?;
            let items: Vec<Value> = match &v {
                Value::Set(s) => s.iter().cloned().collect(),
                Value::Null => Vec::new(),
                other => {
                    return Err(EvalError::Type {
                        expected: "set",
                        got: format!("{other:?}"),
                    })
                }
            };
            let prior = frame.replace(*slot, None);
            for item in items {
                frame.replace(*slot, Some(item));
                eval_cbody(plan, step + 1, frame, ctx, emit)?;
            }
            frame.replace(*slot, prior);
            Ok(())
        }
    }
}

/// Match one scanned row against compiled terms; the slot-frame twin of
/// `reference::scan_row`. Bindings are undone via the frame's undo mark — including
/// on a mismatch part-way through the terms.
fn cscan_row(
    plan: &CPlan<'_>,
    step: usize,
    terms: &[CTerm],
    row: &Row,
    frame: &mut Frame,
    ctx: &mut EvalCtx<'_>,
    emit: &mut dyn FnMut(&mut Frame, &mut EvalCtx<'_>) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let mark = frame.mark();
    for (term, v) in terms.iter().zip(row.iter()) {
        let matched = match term {
            CTerm::Wildcard => true,
            CTerm::Const(c) => c == v,
            CTerm::Check(s) => {
                frame.slots[*s as usize]
                    .as_ref()
                    .expect("checked slots are statically bound")
                    == v
            }
            CTerm::Bind(s) => {
                frame.bind(*s, v.clone());
                true
            }
        };
        if !matched {
            frame.undo_to(mark);
            return Ok(());
        }
    }
    eval_cbody(plan, step + 1, frame, ctx, emit)?;
    frame.undo_to(mark);
    Ok(())
}

/// A rule or aggregation body compiled to slots: the atoms, the
/// projection, and the slot → name table its frame uses.
#[derive(Clone, Debug)]
pub(crate) struct CompiledQuery {
    /// Compiled comprehension.
    pub(crate) select: CSelect,
    /// Slot → variable name (for `UnboundVar` rendering).
    pub(crate) names: Vec<String>,
}

impl CompiledQuery {
    pub(super) fn compile(body: &[BodyAtom], projection: &[Expr]) -> Self {
        let mut sc = SlotCompiler::new();
        let (cbody, _) = sc.compile_body(body);
        let cproj = projection.iter().map(|e| sc.compile_expr(e)).collect();
        CompiledQuery {
            select: CSelect {
                body: cbody,
                projection: cproj,
            },
            names: sc.into_names(),
        }
    }

    /// Evaluate the query to its projected rows (resetting the scratch
    /// frame to the query's slot count first — rule bodies always start
    /// from empty bindings). `delta` constrains the scan at that body
    /// position to the given rows; `use_indexes == false` is the naive
    /// engine's pure nested loops.
    pub(super) fn eval(
        &self,
        delta: Option<(usize, &[Row])>,
        use_indexes: bool,
        frame: &mut Frame,
        ctx: &mut EvalCtx<'_>,
    ) -> Result<Vec<Row>, EvalError> {
        frame.reset(self.names.len());
        let plan = CPlan {
            body: &self.select.body,
            names: &self.names,
            delta,
            use_indexes,
        };
        eval_cquery(&plan, &self.select.projection, frame, ctx)
    }

    /// Whether any assignment satisfies the body with `row`'s values
    /// pre-bound into `slots` (one per column). A slot repeated across
    /// columns whose values disagree can never match.
    pub(super) fn holds_with(
        &self,
        slots: &[u32],
        row: &Row,
        frame: &mut Frame,
        ctx: &mut EvalCtx<'_>,
    ) -> Result<bool, EvalError> {
        frame.reset(self.names.len());
        for (i, &s) in slots.iter().enumerate() {
            match &frame.slots[s as usize] {
                Some(v) if *v != row[i] => return Ok(false),
                Some(_) => {}
                None => {
                    frame.replace(s, Some(row[i].clone()));
                }
            }
        }
        let plan = CPlan {
            body: &self.select.body,
            names: &self.names,
            delta: None,
            use_indexes: true,
        };
        let mut found = false;
        eval_cbody(&plan, 0, frame, ctx, &mut |_, _| {
            found = true;
            Ok(())
        })?;
        Ok(found)
    }
}
