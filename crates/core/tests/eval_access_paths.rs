//! Property test: the evaluator's access-path selection is invisible.
//!
//! `eval_select` chooses between a full relation scan and a hash-index
//! probe per scan atom, depending on which terms are already bound. Both
//! paths must produce exactly the same matches in exactly the same
//! (nested-loop, insertion) order — including duplicates. This suite
//! compares the evaluator against an independently-written brute-force
//! nested-loop reference over randomized relations and scan patterns.

use hydro_core::ast::{BodyAtom, Expr, Select, Term};
use hydro_core::builder::ProgramBuilder;
use hydro_core::eval::{eval_select, Bindings, Database, EvalCtx, Relation, Row, UdfHost};
use hydro_core::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Brute-force nested-loop evaluation of scan-only bodies: no indexes, no
/// cleverness — the semantic ground truth.
fn reference_eval(db: &BTreeMap<String, Vec<Row>>, body: &[(String, Vec<Term>)]) -> Vec<Row> {
    fn go(
        db: &BTreeMap<String, Vec<Row>>,
        body: &[(String, Vec<Term>)],
        bound: &mut BTreeMap<String, Value>,
        vars: &[String],
        out: &mut Vec<Row>,
    ) {
        let Some(((rel, terms), rest)) = body.split_first() else {
            out.push(vars.iter().map(|v| bound[v].clone()).collect());
            return;
        };
        'rows: for row in &db[rel] {
            let mut added: Vec<&String> = Vec::new();
            let mut ok = true;
            for (t, v) in terms.iter().zip(row.iter()) {
                match t {
                    Term::Wildcard => {}
                    Term::Const(c) => {
                        if c != v {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(name) => match bound.get(name) {
                        Some(b) => {
                            if b != v {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            bound.insert(name.clone(), v.clone());
                            added.push(name);
                        }
                    },
                }
            }
            if ok {
                go(db, rest, bound, vars, out);
            }
            for name in added {
                bound.remove(name);
            }
            if !ok {
                continue 'rows;
            }
        }
    }
    // Projection: every variable, in first-occurrence order.
    let mut vars: Vec<String> = Vec::new();
    for (_, terms) in body {
        for t in terms {
            if let Term::Var(v) = t {
                if !vars.contains(v) {
                    vars.push(v.clone());
                }
            }
        }
    }
    let mut out = Vec::new();
    go(db, body, &mut BTreeMap::new(), &vars, &mut out);
    out
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")]
            .prop_map(|v: &str| Term::Var(v.to_string())),
        1 => (0i64..4).prop_map(|x| Term::Const(Value::Int(x))),
        1 => Just(Term::Wildcard),
    ]
}

/// A relation: arity 1..=3, up to 8 rows of small ints (collision-heavy so
/// index buckets hold several rows).
fn relation_strategy() -> impl Strategy<Value = Vec<Row>> {
    (1usize..=3).prop_flat_map(|arity| {
        proptest::collection::vec(
            proptest::collection::vec((0i64..4).prop_map(Value::Int), arity),
            0..8,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_evaluation_equals_nested_loop_reference(
        rels in proptest::collection::vec(relation_strategy(), 1..=3),
        picks in proptest::collection::vec((0usize..3, proptest::collection::vec(term_strategy(), 3)), 1..=3),
    ) {
        // Name the relations and fix each body atom's terms to the
        // relation's arity.
        let names: Vec<String> = (0..rels.len()).map(|i| format!("r{i}")).collect();
        let mut ref_db: BTreeMap<String, Vec<Row>> = BTreeMap::new();
        let mut db = Database::default();
        for (name, rows) in names.iter().zip(&rels) {
            // The evaluator's Relation dedups; feed the reference the
            // deduped row list so both see identical inputs.
            let rel = Relation::from_rows(rows.clone());
            ref_db.insert(name.clone(), rel.iter().cloned().collect());
            db.insert(name.clone(), rel);
        }
        let body: Vec<(String, Vec<Term>)> = picks
            .into_iter()
            .map(|(i, terms)| {
                let i = i % rels.len();
                let arity = rels[i].first().map_or(1, Vec::len).max(1);
                (names[i].clone(), terms.into_iter().take(arity).collect::<Vec<Term>>())
            })
            .filter(|(name, terms)| {
                // Skip arity mismatches (the evaluator rejects them; the
                // reference has no error channel).
                ref_db[name].first().is_none_or(|r| r.len() == terms.len())
            })
            .collect();
        prop_assume!(!body.is_empty());

        let expect = reference_eval(&ref_db, &body);

        // Build the equivalent Select: projection = all vars in
        // first-occurrence order.
        let mut vars: Vec<String> = Vec::new();
        for (_, terms) in &body {
            for t in terms {
                if let Term::Var(v) = t {
                    if !vars.contains(v) {
                        vars.push(v.clone());
                    }
                }
            }
        }
        let select = Select {
            body: body
                .iter()
                .map(|(rel, terms)| BodyAtom::Scan { rel: rel.clone(), terms: terms.clone() })
                .collect(),
            projection: vars.iter().map(|v| Expr::Var(v.clone())).collect(),
        };
        let program = ProgramBuilder::new().build();
        let mut udfs = UdfHost::new();
        let mut ctx = EvalCtx {
            program: &program,
            db: &db,
            scalars: &Default::default(),
            key_index: &Default::default(),
            udfs: &mut udfs,
            scan_cache: &mut Default::default(),
        };
        let got = eval_select(&select, &Bindings::default(), &mut ctx).unwrap();
        prop_assert_eq!(got, expect);
    }
}
