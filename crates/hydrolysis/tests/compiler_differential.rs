//! Differential testing: the compiled Hydroflow plans must agree with the
//! naive interpreter on every query, for every input.
//!
//! This is the classic compiler-correctness harness (the
//! "semi-naive ≡ naive evaluation" property): a family of query shapes —
//! joins, unions, guards, negation, recursion, let-bindings, aggregation —
//! is evaluated over random fact sets by both engines and the view
//! contents compared exactly.

use hydro_core::ast::AggFun;
use hydro_core::builder::dsl::*;
use hydro_core::builder::ProgramBuilder;
use hydro_core::eval::{evaluate_views, Database, Relation, UdfHost};
use hydro_core::{Program, Value};
use hydrolysis::compile_queries;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Evaluate `program`'s views with both engines over the same base facts
/// and compare every compiled view against the interpreter's relation.
fn engines_agree(program: &Program, base_facts: &BTreeMap<String, Vec<Vec<Value>>>) {
    // Interpreter.
    let mut db: Database = Database::default();
    for (rel, rows) in base_facts {
        db.insert(rel.clone(), Relation::from_rows(rows.iter().cloned()));
    }
    let interpreted =
        evaluate_views(program, &db, &Default::default(), &mut UdfHost::new()).expect("evaluates");

    // Compiler.
    let mut compiled = compile_queries(program).expect("compiles");
    let compiled_views = compiled.run(base_facts);

    for (view, rows) in &compiled_views {
        let interp_rows: BTreeSet<Vec<Value>> = interpreted
            .get(view)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default();
        assert_eq!(
            rows, &interp_rows,
            "view {view:?} disagrees between engines"
        );
    }
}

fn edge_facts(edges: &[(i64, i64)]) -> BTreeMap<String, Vec<Vec<Value>>> {
    BTreeMap::from([(
        "e".to_string(),
        edges
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect(),
    )])
}

fn two_rel_facts(
    es: &[(i64, i64)],
    fs: &[(i64, i64)],
) -> BTreeMap<String, Vec<Vec<Value>>> {
    let mut m = edge_facts(es);
    m.insert(
        "f".to_string(),
        fs.iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect(),
    );
    m
}

fn base_two() -> ProgramBuilder {
    ProgramBuilder::new().mailbox("e", 2).mailbox("f", 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn join_agrees(
        es in prop::collection::vec((0i64..6, 0i64..6), 0..18),
        fs in prop::collection::vec((0i64..6, 0i64..6), 0..18),
    ) {
        let program = base_two()
            .rule(
                "j",
                vec![v("a"), v("c")],
                vec![scan("e", &["a", "b"]), scan("f", &["b", "c"])],
            )
            .build();
        engines_agree(&program, &two_rel_facts(&es, &fs));
    }

    #[test]
    fn union_and_guard_agree(
        es in prop::collection::vec((0i64..6, 0i64..6), 0..18),
        fs in prop::collection::vec((0i64..6, 0i64..6), 0..18),
        bound in 0i64..6,
    ) {
        let program = base_two()
            .rule("u", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
            .rule("u", vec![v("a"), v("b")], vec![scan("f", &["a", "b"])])
            .rule(
                "big",
                vec![v("a")],
                vec![scan("u", &["a", "b"]), guard(ge(v("b"), i(bound)))],
            )
            .build();
        engines_agree(&program, &two_rel_facts(&es, &fs));
    }

    #[test]
    fn negation_agrees(
        es in prop::collection::vec((0i64..5, 0i64..5), 0..14),
        fs in prop::collection::vec((0i64..5, 0i64..5), 0..14),
    ) {
        // Stratified difference: pairs in e but not in f.
        let program = base_two()
            .rule(
                "only_e",
                vec![v("a"), v("b")],
                vec![scan("e", &["a", "b"]), neg("f", vec![v("a"), v("b")])],
            )
            .build();
        engines_agree(&program, &two_rel_facts(&es, &fs));
    }

    #[test]
    fn recursion_agrees(
        es in prop::collection::vec((0i64..7, 0i64..7), 0..20),
    ) {
        let program = ProgramBuilder::new()
            .mailbox("e", 2)
            .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
            .rule(
                "tc",
                vec![v("a"), v("c")],
                vec![scan("tc", &["a", "b"]), scan("e", &["b", "c"])],
            )
            .build();
        engines_agree(&program, &edge_facts(&es));
    }

    #[test]
    fn recursion_with_negation_head_start_agrees(
        es in prop::collection::vec((0i64..5, 0i64..5), 0..14),
        fs in prop::collection::vec((0i64..5, 0i64..5), 0..14),
    ) {
        // Negation feeding a recursive stratum: tc over (e − f).
        let program = base_two()
            .rule(
                "live",
                vec![v("a"), v("b")],
                vec![scan("e", &["a", "b"]), neg("f", vec![v("a"), v("b")])],
            )
            .rule("tc", vec![v("a"), v("b")], vec![scan("live", &["a", "b"])])
            .rule(
                "tc",
                vec![v("a"), v("c")],
                vec![scan("tc", &["a", "b"]), scan("live", &["b", "c"])],
            )
            .build();
        engines_agree(&program, &two_rel_facts(&es, &fs));
    }

    #[test]
    fn let_bindings_agree(
        es in prop::collection::vec((0i64..8, 0i64..8), 0..20),
    ) {
        let program = ProgramBuilder::new()
            .mailbox("e", 2)
            .rule(
                "sums",
                vec![v("a"), v("s")],
                vec![
                    scan("e", &["a", "b"]),
                    let_("s", add(v("a"), v("b"))),
                ],
            )
            .build();
        engines_agree(&program, &edge_facts(&es));
    }

    #[test]
    fn aggregation_agrees(
        es in prop::collection::vec((0i64..5, 0i64..20), 0..24),
    ) {
        for agg in [AggFun::Count, AggFun::Sum, AggFun::Min, AggFun::Max] {
            let program = ProgramBuilder::new()
                .mailbox("e", 2)
                .agg_rule(
                    "per_key",
                    vec![v("a")],
                    agg,
                    v("b"),
                    vec![scan("e", &["a", "b"])],
                )
                .build();
            engines_agree(&program, &edge_facts(&es));
        }
    }

    #[test]
    fn global_aggregation_over_repeated_values_agrees(
        es in prop::collection::vec((0i64..6, 0i64..4), 0..24),
    ) {
        // Distinct bindings projecting the SAME `over` value: (1, 3) and
        // (2, 3) both contribute 3 to the global sum. This is the case
        // that separates per-binding dedup (correct) from per-projection
        // dedup (drops one of them) and from no dedup (double-counts
        // duplicated base facts).
        let program = ProgramBuilder::new()
            .mailbox("e", 2)
            .agg_rule(
                "grand_total",
                vec![],
                AggFun::Sum,
                v("b"),
                vec![scan("e", &["a", "b"])],
            )
            .agg_rule(
                "row_count",
                vec![],
                AggFun::Count,
                v("a"),
                vec![scan("e", &["a", "b"])],
            )
            .build();
        engines_agree(&program, &edge_facts(&es));
    }

    #[test]
    fn wildcards_and_constants_agree(
        es in prop::collection::vec((0i64..6, 0i64..6), 0..18),
        k in 0i64..6,
    ) {
        let program = ProgramBuilder::new()
            .mailbox("e", 2)
            .rule(
                "from_k",
                vec![v("b")],
                vec![scan_terms(
                    "e",
                    vec![
                        hydro_core::ast::Term::Const(Value::Int(k)),
                        hydro_core::ast::Term::Var("b".into()),
                    ],
                )],
            )
            .rule(
                "all_sources",
                vec![v("a")],
                vec![scan("e", &["a", "_"])],
            )
            .build();
        engines_agree(&program, &edge_facts(&es));
    }
}
