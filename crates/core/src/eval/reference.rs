//! The **map-based reference evaluator**: binds variables through a
//! string-keyed [`Bindings`] map and detects bound scan columns
//! dynamically. It is not an engine — it shares neither the slot pass nor
//! the compiled-body interpreter with production, which is exactly why the
//! differential suites (`seminaive_differential.rs`) compare the engines
//! against it. Moved here verbatim from the pre-split `eval.rs`; only the
//! [`EvalCtx`] constructions changed (the context now borrows its cache).

use super::fresh::seed_views;
use super::plan::stratify;
use super::relation::{Database, Row};
use super::scan_cache::ScanCache;
use super::{bool_of, build_key_indexes, int_of, EvalCtx, EvalError, UdfHost};
use crate::ast::{AggFun, AggRule, ArithOp, BodyAtom, CmpOp, Expr, Program, Rule, Select, Term};
use crate::value::Value;
use rustc_hash::FxHashMap;

/// Variable bindings during body evaluation.
pub type Bindings = FxHashMap<String, Value>;

/// Evaluate an expression under bindings.
pub fn eval_expr(expr: &Expr, b: &Bindings, ctx: &mut EvalCtx<'_>) -> Result<Value, EvalError> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(name) => b
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVar(name.clone())),
        Expr::Scalar(name) => ctx
            .scalars
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownScalar(name.clone())),
        Expr::Cmp(op, l, r) => {
            let l = eval_expr(l, b, ctx)?;
            let r = eval_expr(r, b, ctx)?;
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
        Expr::Arith(op, l, r) => {
            let l = int_of(eval_expr(l, b, ctx)?)?;
            let r = int_of(eval_expr(r, b, ctx)?)?;
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
        Expr::Not(e) => Ok(Value::Bool(!bool_of(eval_expr(e, b, ctx)?)?)),
        Expr::And(l, r) => {
            if bool_of(eval_expr(l, b, ctx)?)? {
                eval_expr(r, b, ctx)
            } else {
                Ok(Value::Bool(false))
            }
        }
        Expr::Or(l, r) => {
            if bool_of(eval_expr(l, b, ctx)?)? {
                Ok(Value::Bool(true))
            } else {
                eval_expr(r, b, ctx)
            }
        }
        Expr::Tuple(items) => Ok(Value::Tuple(
            items
                .iter()
                .map(|e| eval_expr(e, b, ctx))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Index(e, i) => {
            let v = eval_expr(e, b, ctx)?;
            let t = v.as_tuple().ok_or_else(|| EvalError::Type {
                expected: "tuple",
                got: format!("{v:?}"),
            })?;
            t.get(*i).cloned().ok_or(EvalError::Type {
                expected: "tuple index in range",
                got: format!("index {i} of arity {}", t.len()),
            })
        }
        Expr::SetBuild(items) => Ok(Value::Set(
            items
                .iter()
                .map(|e| eval_expr(e, b, ctx))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Contains(set, item) => {
            let s = eval_expr(set, b, ctx)?;
            let item = eval_expr(item, b, ctx)?;
            let set = s.as_set().ok_or_else(|| EvalError::Type {
                expected: "set",
                got: format!("{s:?}"),
            })?;
            Ok(Value::Bool(set.contains(&item)))
        }
        Expr::Len(e) => {
            let v = eval_expr(e, b, ctx)?;
            match &v {
                Value::Set(s) => Ok(Value::Int(s.len() as i64)),
                Value::Tuple(t) => Ok(Value::Int(t.len() as i64)),
                other => Err(EvalError::Type {
                    expected: "set or tuple",
                    got: format!("{other:?}"),
                }),
            }
        }
        Expr::FieldOf { table, key, field } => {
            let k = eval_expr(key, b, ctx)?;
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
        Expr::RowOf { table, key } => {
            let k = eval_expr(key, b, ctx)?;
            Ok(match ctx.lookup_row(table, &k)? {
                Some(row) => Value::Tuple(row.clone()),
                None => Value::Null,
            })
        }
        Expr::HasKey { table, key } => {
            let k = eval_expr(key, b, ctx)?;
            Ok(Value::Bool(ctx.lookup_row(table, &k)?.is_some()))
        }
        Expr::Call(name, args) => {
            let args: Vec<Value> = args
                .iter()
                .map(|e| eval_expr(e, b, ctx))
                .collect::<Result<_, _>>()?;
            ctx.udfs.call(name, &args)
        }
        Expr::CollectSet(select) => {
            let rows = eval_select(select, b, ctx)?;
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

/// How a (map-based, reference-only) body is to be evaluated. Atoms always
/// run in source order — the evaluators promise *exact* agreement with
/// source-order evaluation, including which errors are reachable (an
/// `ArityMismatch` behind an empty scan must stay unreachable) and how
/// often stateful UDFs run, so no reordering is safe.
struct BodyPlan<'p> {
    /// The body's atoms, evaluated in source order.
    body: &'p [BodyAtom],
    /// Probe hash indexes for bound scan columns (`false` = pure nested
    /// loops; the map reference detects bound terms dynamically either way).
    use_indexes: bool,
}

impl<'p> BodyPlan<'p> {
    /// Index-backed: the default for ad-hoc selects.
    fn full(body: &'p [BodyAtom]) -> Self {
        BodyPlan {
            body,
            use_indexes: true,
        }
    }
}

/// Evaluate a comprehension to its projected rows (duplicates preserved;
/// callers dedup as needed).
pub fn eval_select(
    select: &Select,
    base: &Bindings,
    ctx: &mut EvalCtx<'_>,
) -> Result<Vec<Row>, EvalError> {
    eval_select_with_plan(&BodyPlan::full(&select.body), &select.projection, base, ctx)
}

fn eval_select_with_plan(
    plan: &BodyPlan<'_>,
    projection: &[Expr],
    base: &Bindings,
    ctx: &mut EvalCtx<'_>,
) -> Result<Vec<Row>, EvalError> {
    let mut out = Vec::new();
    let mut bindings = base.clone();
    eval_body(plan, 0, &mut bindings, ctx, &mut |b, ctx| {
        let row = projection
            .iter()
            .map(|e| eval_expr(e, b, ctx))
            .collect::<Result<Row, _>>()?;
        out.push(row);
        Ok(())
    })?;
    Ok(out)
}

/// Recursive source-order body evaluation with binding propagation.
fn eval_body(
    plan: &BodyPlan<'_>,
    step: usize,
    bindings: &mut Bindings,
    ctx: &mut EvalCtx<'_>,
    emit: &mut dyn FnMut(&Bindings, &mut EvalCtx<'_>) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let pos = step;
    if pos >= plan.body.len() {
        return emit(bindings, ctx);
    }
    match &plan.body[pos] {
        BodyAtom::Scan { rel, terms } => {
            // Copy the shared database reference out of `ctx` so the row
            // borrows below do not pin `ctx`, which the recursion needs
            // mutably.
            let db: &Database = ctx.db;
            let relation = db
                .get(rel)
                .ok_or_else(|| EvalError::UnknownRelation(rel.clone()))?;
            if let Some(first) = relation.iter().next() {
                if first.len() != terms.len() {
                    return Err(EvalError::ArityMismatch {
                        rel: rel.clone(),
                        expected: terms.len(),
                        actual: first.len(),
                    });
                }
            }
            // Access-path selection: probe a composite hash index over
            // *every* bound term (constants, and variables bound by
            // earlier atoms) instead of scanning the relation. Index
            // probes enumerate matches in insertion order, so a scan's
            // row order is identical on both paths. Bound terms are
            // detected dynamically (this is the map-based reference path;
            // the compiled engines carry static probe layouts).
            let mut have_key = false;
            if plan.use_indexes {
                let (cols, key) = ctx.scan_cache.begin_probe();
                for (i, t) in terms.iter().enumerate() {
                    match t {
                        Term::Const(c) => {
                            cols.push(i);
                            key.push(c.clone());
                        }
                        Term::Var(name) => {
                            if let Some(v) = bindings.get(name) {
                                cols.push(i);
                                key.push(v.clone());
                            }
                        }
                        Term::Wildcard => {}
                    }
                }
                have_key = !cols.is_empty();
            }
            if !have_key {
                for row in relation.iter() {
                    scan_row(plan, step, terms, row, bindings, ctx, emit)?;
                }
            } else if let Some(ids) = ctx.scan_cache.probe_prepared(rel, relation) {
                for &i in ids.iter().filter(|&&i| relation.visible(i)) {
                    scan_row(plan, step, terms, relation.row(i), bindings, ctx, emit)?;
                }
            }
            Ok(())
        }
        BodyAtom::Neg { rel, args } => {
            let tuple: Row = args
                .iter()
                .map(|e| eval_expr(e, bindings, ctx))
                .collect::<Result<_, _>>()?;
            let relation = ctx
                .db
                .get(rel)
                .ok_or_else(|| EvalError::UnknownRelation(rel.clone()))?;
            if relation.contains(&tuple) {
                Ok(())
            } else {
                eval_body(plan, step + 1, bindings, ctx, emit)
            }
        }
        BodyAtom::Guard(expr) => {
            if bool_of(eval_expr(expr, bindings, ctx)?)? {
                eval_body(plan, step + 1, bindings, ctx, emit)
            } else {
                Ok(())
            }
        }
        BodyAtom::Let { var, expr } => {
            let v = eval_expr(expr, bindings, ctx)?;
            let prior = bindings.insert(var.clone(), v);
            eval_body(plan, step + 1, bindings, ctx, emit)?;
            match prior {
                Some(p) => {
                    bindings.insert(var.clone(), p);
                }
                None => {
                    bindings.remove(var);
                }
            }
            Ok(())
        }
        BodyAtom::Flatten { var, set } => {
            let v = eval_expr(set, bindings, ctx)?;
            // Flattening Null (e.g. a missing row's field) yields nothing,
            // which makes queries over optional structure total.
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
            let prior = bindings.remove(var);
            for item in items {
                bindings.insert(var.clone(), item);
                eval_body(plan, step + 1, bindings, ctx, emit)?;
            }
            match prior {
                Some(p) => {
                    bindings.insert(var.clone(), p);
                }
                None => {
                    bindings.remove(var);
                }
            }
            Ok(())
        }
    }
}

/// Match one scanned row against a scan's terms, extending `bindings`; on a
/// full match, continue body evaluation at `pos + 1`. All bindings this row
/// introduced are removed again before returning — including on a mismatch
/// part-way through the terms (a constant mismatch after a fresh variable
/// binding must not leak that binding into the next candidate row).
fn scan_row(
    plan: &BodyPlan<'_>,
    step: usize,
    terms: &[Term],
    row: &Row,
    bindings: &mut Bindings,
    ctx: &mut EvalCtx<'_>,
    emit: &mut dyn FnMut(&Bindings, &mut EvalCtx<'_>) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let mut newly_bound: Vec<&str> = Vec::new();
    for (term, v) in terms.iter().zip(row.iter()) {
        let matched = match term {
            Term::Wildcard => true,
            Term::Const(c) => c == v,
            Term::Var(name) => match bindings.get(name) {
                Some(bound) => bound == v,
                None => {
                    bindings.insert(name.clone(), v.clone());
                    newly_bound.push(name);
                    true
                }
            },
        };
        if !matched {
            for n in newly_bound {
                bindings.remove(n);
            }
            return Ok(());
        }
    }
    eval_body(plan, step + 1, bindings, ctx, emit)?;
    for n in newly_bound {
        bindings.remove(n);
    }
    Ok(())
}

/// Run one stratum's aggregation rules (they read completed lower strata
/// only, so a single pass each) and land their rows, against a throwaway
/// cache.
fn run_stratum_aggs(
    program: &Program,
    strata: &FxHashMap<String, usize>,
    s: usize,
    db: &mut Database,
    scalars: &FxHashMap<String, Value>,
    key_index: &FxHashMap<String, FxHashMap<Row, Row>>,
    udfs: &mut UdfHost,
) -> Result<(), EvalError> {
    let mut cache = ScanCache::default();
    let agg_rules: Vec<&AggRule> = program
        .agg_rules
        .iter()
        .filter(|r| strata[&r.head] == s)
        .collect();
    for rule in agg_rules {
        let rows = {
            let mut ctx = EvalCtx {
                program,
                db,
                scalars,
                key_index,
                udfs,
                scan_cache: &mut cache,
            };
            eval_agg_rule(rule, &mut ctx)?
        };
        let rel = db.entry(rule.head.clone()).or_default();
        for row in rows {
            cache.insert_into(&rule.head, rel, &row);
        }
    }
    Ok(())
}

/// The **map-based** naive evaluator: the same algorithm as
/// [`evaluate_views_naive`], but binding variables through the dynamic
/// `Bindings` string map ([`eval_select`] / [`eval_expr`]) instead of
/// compiled slot frames. It is *not* an engine — it exists purely as the
/// differential reference that pins the slot-resolution pass: same
/// algorithm, different binding machinery, so derived rows, reachable
/// errors and stateful-UDF call order must all be bit-identical to
/// [`evaluate_views_naive`] (see `seminaive_differential.rs`).
pub fn evaluate_views_mapref(
    program: &Program,
    base: &Database,
    scalars: &FxHashMap<String, Value>,
    udfs: &mut UdfHost,
) -> Result<Database, EvalError> {
    let strata = stratify(program)?;
    let max_stratum = strata.values().copied().max().unwrap_or(0);

    let mut db = seed_views(program, base);
    let key_index = build_key_indexes(program, base);

    for s in 0..=max_stratum {
        run_stratum_aggs(
            program,
            &strata,
            s,
            &mut db,
            scalars,
            &key_index,
            udfs,
        )?;

        let rules: Vec<&Rule> = program
            .rules
            .iter()
            .filter(|r| strata[&r.head] == s)
            .collect();
        if rules.is_empty() {
            continue;
        }
        loop {
            let mut derived: Vec<(String, Row)> = Vec::new();
            {
                let mut ctx = EvalCtx {
                    program,
                    db: &db,
                    scalars,
                    key_index: &key_index,
                    udfs,
                    scan_cache: &mut ScanCache::default(),
                };
                for rule in &rules {
                    let mut plan = BodyPlan::full(&rule.body);
                    plan.use_indexes = false;
                    for row in eval_select_with_plan(
                        &plan,
                        &rule.head_exprs,
                        &Bindings::default(),
                        &mut ctx,
                    )? {
                        derived.push((rule.head.clone(), row));
                    }
                }
            }
            let mut changed = false;
            for (head, row) in derived {
                changed |= db.entry(head).or_default().insert(row).is_some();
            }
            if !changed {
                break;
            }
        }
    }
    Ok(db)
}

fn eval_agg_rule(rule: &AggRule, ctx: &mut EvalCtx<'_>) -> Result<Vec<Row>, EvalError> {
    // Gather (group_key, over_value) pairs.
    let select = Select {
        body: rule.body.clone(),
        projection: rule
            .group_exprs
            .iter()
            .cloned()
            .chain(std::iter::once(rule.over.clone()))
            .collect(),
    };
    let matches = eval_select(&select, &Bindings::default(), ctx)?;
    let mut groups: FxHashMap<Row, Vec<Value>> = FxHashMap::default();
    for mut row in matches {
        let over = row.pop().expect("projection includes `over`");
        groups.entry(row).or_default().push(over);
    }
    let mut out = Vec::new();
    let mut keys: Vec<Row> = groups.keys().cloned().collect();
    keys.sort();
    for key in keys {
        let values = &groups[&key];
        let agg = match rule.agg {
            AggFun::Count => Value::Int(values.len() as i64),
            AggFun::Sum => {
                let mut total = 0i64;
                for v in values {
                    total = total.wrapping_add(int_of(v.clone())?);
                }
                Value::Int(total)
            }
            AggFun::Min => values.iter().min().cloned().unwrap_or(Value::Null),
            AggFun::Max => values.iter().max().cloned().unwrap_or(Value::Null),
            AggFun::CollectSet => Value::Set(values.iter().cloned().collect()),
        };
        let mut row = key;
        row.push(agg);
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::relation::Relation;
    use super::*;
    use crate::builder::dsl::{scan, scan_terms, select, v};
    use crate::builder::ProgramBuilder;

    fn int_rows(rows: &[&[i64]]) -> Relation {
        Relation::from_rows(
            rows.iter()
                .map(|r| r.iter().map(|x| Value::Int(*x)).collect::<Row>()),
        )
    }

    fn run_select(sel: &Select, db: &Database) -> Vec<Row> {
        let program = ProgramBuilder::new().build();
        let mut udfs = UdfHost::new();
        let mut ctx = EvalCtx {
            program: &program,
            db,
            scalars: &Default::default(),
            key_index: &Default::default(),
            udfs: &mut udfs,
            scan_cache: &mut ScanCache::default(),
        };
        eval_select(sel, &Bindings::default(), &mut ctx).unwrap()
    }

    /// Regression: a constant mismatch *after* a variable binding in the
    /// same scan pattern must undo that binding. The original evaluator
    /// leaked it, silently filtering later candidate rows.
    #[test]
    fn const_mismatch_after_var_does_not_leak_binding() {
        let mut db = Database::default();
        db.insert("r".into(), int_rows(&[&[1, 5], &[2, 6], &[3, 5]]));
        let sel = select(
            vec![scan_terms(
                "r",
                vec![Term::Var("x".into()), Term::Const(Value::Int(5))],
            )],
            vec![v("x")],
        );
        let got = run_select(&sel, &db);
        assert_eq!(got, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }

    /// The indexed probe path must produce the same matches, in the same
    /// order, as the full-scan path. The first atom leaves `b` bound, so
    /// the second scan takes the index path.
    #[test]
    fn indexed_probe_matches_full_scan_semantics() {
        let mut db = Database::default();
        db.insert("edge".into(), int_rows(&[&[1, 2], &[2, 3], &[2, 4], &[3, 4]]));
        let sel = select(
            vec![scan("edge", &["a", "b"]), scan("edge", &["b", "c"])],
            vec![v("a"), v("c")],
        );
        let got = run_select(&sel, &db);
        let expect: Vec<Row> = [[1, 3], [1, 4], [2, 4]]
            .iter()
            .map(|r| r.iter().map(|x| Value::Int(*x)).collect())
            .collect();
        assert_eq!(got, expect);
    }

    /// Probing a key absent from the index yields no matches (and no error).
    #[test]
    fn indexed_probe_on_absent_key_is_empty() {
        let mut db = Database::default();
        db.insert("r".into(), int_rows(&[&[1, 10]]));
        let sel = select(
            vec![scan_terms(
                "r",
                vec![Term::Const(Value::Int(99)), Term::Var("y".into())],
            )],
            vec![v("y")],
        );
        assert!(run_select(&sel, &db).is_empty());
    }

    /// Repeated variables within one pattern still enforce equality on the
    /// indexed path (`r(x, x)` only matches the diagonal).
    #[test]
    fn repeated_variable_enforces_equality() {
        let mut db = Database::default();
        db.insert("r".into(), int_rows(&[&[1, 1], &[1, 2], &[3, 3]]));
        // Bind x first via a scan of `s`, forcing the probe path on `r`.
        db.insert("s".into(), int_rows(&[&[1], &[3]]));
        let sel = select(
            vec![scan("s", &["x"]), scan("r", &["x", "x"])],
            vec![v("x")],
        );
        let got = run_select(&sel, &db);
        assert_eq!(got, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }

    /// One relation may be indexed on several columns within one context.
    #[test]
    fn scan_cache_indexes_multiple_columns() {
        let mut db = Database::default();
        db.insert("r".into(), int_rows(&[&[1, 20], &[2, 10], &[1, 10]]));
        // Probe column 0 then column 1 in a single select: both index paths.
        let sel = select(
            vec![
                scan_terms(
                    "r",
                    vec![Term::Const(Value::Int(1)), Term::Var("y".into())],
                ),
                scan_terms(
                    "r",
                    vec![Term::Var("z".into()), Term::Const(Value::Int(10))],
                ),
            ],
            vec![v("y"), v("z")],
        );
        let got = run_select(&sel, &db);
        // y ∈ {20, 10} (insertion order), z ∈ {2, 1} (insertion order).
        let expect: Vec<Row> = [[20, 2], [20, 1], [10, 2], [10, 1]]
            .iter()
            .map(|r| r.iter().map(|x| Value::Int(*x)).collect())
            .collect();
        assert_eq!(got, expect);
    }
}
