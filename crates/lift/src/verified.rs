//! Verified lifting of sequential loops (§1.2, §4): program synthesis as
//! code search.
//!
//! The paper's verified-lifting line of work translates imperative code to
//! declarative form by *searching* a space of candidate summaries and
//! *verifying* equivalence. Full verified lifting uses SMT solvers; this
//! reproduction substitutes testing-based verification (random +
//! boundary-case inputs, seeded), which preserves the architecture — search
//! over a declarative grammar, accept only candidates indistinguishable
//! from the source — at laptop scale.
//!
//! The source language is the single-accumulator loop (the shape §4 says
//! lifts well: "applications consisting largely of single-threaded logic"),
//! plus nested-loop equijoins. Lifted results are declarative
//! [`Summary`]s, mappable onto HydroLogic aggregation rules.

use hydro_core::ast::{AggFun, AggRule, Expr};
use hydro_core::builder::dsl::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pure expressions over the loop variable `x`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoopExpr {
    /// The loop variable.
    X,
    /// Integer literal.
    Const(i64),
    /// Addition.
    Add(Box<LoopExpr>, Box<LoopExpr>),
    /// Multiplication.
    Mul(Box<LoopExpr>, Box<LoopExpr>),
}

impl LoopExpr {
    fn eval(&self, x: i64) -> i64 {
        match self {
            LoopExpr::X => x,
            LoopExpr::Const(c) => *c,
            LoopExpr::Add(l, r) => l.eval(x).wrapping_add(r.eval(x)),
            LoopExpr::Mul(l, r) => l.eval(x).wrapping_mul(r.eval(x)),
        }
    }
}

/// Guards over the loop variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoopGuard {
    /// Always true.
    True,
    /// `x > c`.
    Gt(i64),
    /// `x < c`.
    Lt(i64),
    /// `x % 2 == 0`.
    Even,
}

impl LoopGuard {
    fn eval(&self, x: i64) -> bool {
        match self {
            LoopGuard::True => true,
            LoopGuard::Gt(c) => x > *c,
            LoopGuard::Lt(c) => x < *c,
            LoopGuard::Even => x % 2 == 0,
        }
    }
}

/// Fold operators the accumulator may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldOp {
    /// `acc += e`
    Add,
    /// `acc = max(acc, e)`
    Max,
    /// `acc = min(acc, e)`
    Min,
    /// `acc += 1` (count; ignores the mapped value)
    Count,
}

/// An imperative accumulator loop:
/// `acc = init; for x in xs { if guard(x) { acc = acc ⊕ body(x) } }`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImpLoop {
    /// Initial accumulator.
    pub init: i64,
    /// Filter guard.
    pub guard: LoopGuard,
    /// Mapped expression.
    pub body: LoopExpr,
    /// Fold operator.
    pub op: FoldOp,
}

impl ImpLoop {
    /// Reference (imperative) semantics.
    pub fn run(&self, xs: &[i64]) -> i64 {
        let mut acc = self.init;
        for &x in xs {
            if self.guard.eval(x) {
                let e = self.body.eval(x);
                acc = match self.op {
                    FoldOp::Add => acc.wrapping_add(e),
                    FoldOp::Max => acc.max(e),
                    FoldOp::Min => acc.min(e),
                    FoldOp::Count => acc.wrapping_add(1),
                };
            }
        }
        acc
    }
}

/// A declarative summary: `fold(op, init, map(body, filter(guard, xs)))`.
/// The lifted, HydroLogic-ready form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Fold operator.
    pub op: FoldOp,
    /// Initial value.
    pub init: i64,
    /// Mapped expression.
    pub map: LoopExpr,
    /// Filter guard.
    pub filter: LoopGuard,
}

impl Summary {
    /// Declarative semantics (order-insensitive by construction for
    /// commutative folds).
    pub fn run(&self, xs: &[i64]) -> i64 {
        let mut acc = self.init;
        for &x in xs {
            if self.filter.eval(x) {
                let e = self.map.eval(x);
                acc = match self.op {
                    FoldOp::Add => acc.wrapping_add(e),
                    FoldOp::Max => acc.max(e),
                    FoldOp::Min => acc.min(e),
                    FoldOp::Count => acc.wrapping_add(1),
                };
            }
        }
        acc
    }

    /// Emit the corresponding HydroLogic aggregation rule over an indexed
    /// relation `xs(ix, x)`, deriving `lifted(result)`.
    ///
    /// The index column matters: relations are *sets*, so lifting a list
    /// as bare values would silently dedup `sum([2, 2])` to 2. Indexing
    /// elements preserves bag semantics — the same trick the paper's own
    /// Appendix A.3 uses (`gathered(request_id, ix, val)`).
    pub fn to_hydrologic(&self) -> AggRule {
        let agg = match self.op {
            FoldOp::Add => AggFun::Sum,
            FoldOp::Max => AggFun::Max,
            FoldOp::Min => AggFun::Min,
            FoldOp::Count => AggFun::Count,
        };
        let over = loop_expr_to_ir(&self.map);
        let mut body = vec![scan("xs", &["ix", "x"])];
        match &self.filter {
            LoopGuard::True => {}
            LoopGuard::Gt(c) => body.push(guard(Expr::Cmp(
                hydro_core::ast::CmpOp::Gt,
                Box::new(v("x")),
                Box::new(i(*c)),
            ))),
            LoopGuard::Lt(c) => body.push(guard(lt(v("x"), i(*c)))),
            LoopGuard::Even => body.push(guard(eq(
                Expr::Arith(
                    hydro_core::ast::ArithOp::Mod,
                    Box::new(v("x")),
                    Box::new(i(2)),
                ),
                i(0),
            ))),
        }
        AggRule {
            head: "lifted".into(),
            group_exprs: vec![],
            agg,
            over,
            body,
        }
    }
}

fn loop_expr_to_ir(e: &LoopExpr) -> Expr {
    match e {
        LoopExpr::X => v("x"),
        LoopExpr::Const(c) => i(*c),
        LoopExpr::Add(l, r) => add(loop_expr_to_ir(l), loop_expr_to_ir(r)),
        LoopExpr::Mul(l, r) => Expr::Arith(
            hydro_core::ast::ArithOp::Mul,
            Box::new(loop_expr_to_ir(l)),
            Box::new(loop_expr_to_ir(r)),
        ),
    }
}

/// A verified lift: the summary plus evidence of the verification effort.
#[derive(Clone, Debug)]
pub struct VerifiedLift {
    /// The accepted summary.
    pub summary: Summary,
    /// Candidates enumerated before acceptance.
    pub candidates_tried: usize,
    /// Number of test vectors the candidate survived.
    pub tests_passed: usize,
}

/// Grammar enumeration: small map expressions and guards.
fn candidate_exprs() -> Vec<LoopExpr> {
    use LoopExpr::*;
    let mut out = vec![X, Const(1)];
    for c in [2i64, 3, 10] {
        out.push(Mul(Box::new(X), Box::new(Const(c))));
        out.push(Add(Box::new(X), Box::new(Const(c))));
    }
    out.push(Mul(Box::new(X), Box::new(X)));
    out
}

fn candidate_guards() -> Vec<LoopGuard> {
    let mut out = vec![LoopGuard::True, LoopGuard::Even];
    for c in [-1i64, 0, 1, 10] {
        out.push(LoopGuard::Gt(c));
        out.push(LoopGuard::Lt(c));
    }
    out
}

/// Test vectors: boundary cases plus seeded random inputs.
fn test_vectors(seed: u64, count: usize) -> Vec<Vec<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vs: Vec<Vec<i64>> = vec![
        vec![],
        vec![0],
        vec![-1],
        vec![i32::MAX as i64],
        vec![1, 1, 1],
        (-5..5).collect(),
    ];
    for _ in 0..count {
        let len = rng.gen_range(0..20);
        vs.push((0..len).map(|_| rng.gen_range(-100..100)).collect());
    }
    vs
}

/// Lift an imperative loop to a declarative summary by search + testing
/// verification. Returns `None` when no candidate in the grammar matches
/// (the §1.1 fallback: "encapsulate what remains in UDFs").
pub fn lift_loop(imp: &dyn Fn(&[i64]) -> i64, seed: u64) -> Option<VerifiedLift> {
    let vectors = test_vectors(seed, 40);
    let expected: Vec<i64> = vectors.iter().map(|xs| imp(xs)).collect();
    let mut tried = 0;
    // Infer init from the empty input (a fold's init is its empty answer).
    let init = imp(&[]);
    for op in [FoldOp::Add, FoldOp::Count, FoldOp::Max, FoldOp::Min] {
        for filter in candidate_guards() {
            for map in candidate_exprs() {
                tried += 1;
                let candidate = Summary {
                    op,
                    init,
                    map: map.clone(),
                    filter: filter.clone(),
                };
                if vectors
                    .iter()
                    .zip(&expected)
                    .all(|(xs, want)| candidate.run(xs) == *want)
                {
                    return Some(VerifiedLift {
                        summary: candidate,
                        candidates_tried: tried,
                        tests_passed: vectors.len(),
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifts_sum_loop() {
        let imp = |xs: &[i64]| xs.iter().sum::<i64>();
        let lift = lift_loop(&imp, 1).expect("sum lifts");
        assert_eq!(lift.summary.op, FoldOp::Add);
        assert_eq!(lift.summary.map, LoopExpr::X);
        assert_eq!(lift.summary.filter, LoopGuard::True);
    }

    #[test]
    fn lifts_filtered_scaled_sum() {
        // sum of 2x for positive x — map and filter both inferred.
        let imp = |xs: &[i64]| {
            let mut acc = 0i64;
            for &x in xs {
                if x > 0 {
                    acc += 2 * x;
                }
            }
            acc
        };
        let lift = lift_loop(&imp, 2).expect("filtered sum lifts");
        // The search may land on Gt(0) or the equivalent Gt(-1) (x=0
        // contributes 0 to the sum either way) — both are verified lifts.
        assert!(matches!(lift.summary.filter, LoopGuard::Gt(0) | LoopGuard::Gt(-1)));
        assert_eq!(
            lift.summary.map,
            LoopExpr::Mul(Box::new(LoopExpr::X), Box::new(LoopExpr::Const(2)))
        );
        // Whatever form it found, it is observationally the same function.
        for xs in [vec![], vec![-3, 0, 3], vec![5, 5]] {
            assert_eq!(lift.summary.run(&xs), imp(&xs));
        }
    }

    #[test]
    fn lifts_count_of_evens() {
        let imp = |xs: &[i64]| xs.iter().filter(|x| *x % 2 == 0).count() as i64;
        let lift = lift_loop(&imp, 3).expect("count lifts");
        // count(evens) and sum(1 for evens) are the same fold; accept
        // either verified form.
        assert!(
            lift.summary.op == FoldOp::Count
                || (lift.summary.op == FoldOp::Add
                    && lift.summary.map == LoopExpr::Const(1))
        );
        assert_eq!(lift.summary.filter, LoopGuard::Even);
    }

    #[test]
    fn refuses_non_fold_program() {
        // Position-dependent (order-sensitive) computation: no commutative
        // fold in the grammar can match; must stay a UDF.
        let imp = |xs: &[i64]| {
            xs.iter()
                .enumerate()
                .map(|(i, x)| (i as i64) * x)
                .sum::<i64>()
        };
        assert!(lift_loop(&imp, 4).is_none());
    }

    #[test]
    fn lifted_rule_runs_in_hydrologic() {
        use hydro_core::builder::ProgramBuilder;
        use hydro_core::interp::Transducer;
        use hydro_core::Value;

        let imp = |xs: &[i64]| xs.iter().sum::<i64>();
        let lift = lift_loop(&imp, 5).unwrap();
        let rule = lift.summary.to_hydrologic();
        let program = ProgramBuilder::new()
            .mailbox("xs", 2)
            .agg_rule(&rule.head, rule.group_exprs, rule.agg, rule.over, rule.body)
            .on(
                "probe",
                &[],
                vec![ret(collect_set(select(
                    vec![scan("lifted", &["total"])],
                    vec![v("total")],
                )))],
            )
            .build();
        let mut t = Transducer::new(program).unwrap();
        // Duplicate elements on purpose: the index column keeps list (bag)
        // semantics through the set-based relation.
        for (ix, x) in [3i64, 4, 5, 4].into_iter().enumerate() {
            t.enqueue_ok("xs", vec![Value::Int(ix as i64), Value::Int(x)]);
        }
        t.enqueue_ok("probe", vec![]);
        let out = t.tick().unwrap();
        assert_eq!(
            out.responses[0].value,
            Value::set_of([Value::Int(16)]),
            "declarative aggregate equals the imperative loop, duplicates included"
        );
    }

    #[test]
    fn verification_evidence_reported() {
        let imp = |xs: &[i64]| xs.iter().copied().fold(0, i64::max).max(0);
        if let Some(lift) = lift_loop(&imp, 6) {
            assert!(lift.tests_passed >= 40);
            assert!(lift.candidates_tried >= 1);
        }
    }
}
