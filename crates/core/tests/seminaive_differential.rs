//! Differential testing of the semi-naive evaluator against the retained
//! naive reference (`evaluate_views` vs [`evaluate_views_naive`]).
//!
//! The semi-naive rewrite changes the fixpoint algorithm (delta-driven
//! rounds, composite hash-index probes, greedy atom reordering) but must
//! not change a single derived row. Programs here cover the shapes the
//! interpreter supports — recursion (including mutual recursion and
//! multiple recursive atoms per body), stratified negation feeding and
//! following recursion, aggregation above recursion, guards, lets, and
//! wildcard/constant patterns — over random, collision-heavy fact sets.

use hydro_core::ast::{AggFun, Expr};
use hydro_core::builder::dsl::*;
use hydro_core::builder::ProgramBuilder;
use hydro_core::eval::{
    evaluate_views, evaluate_views_mapref, evaluate_views_naive, Database, Relation, UdfHost,
};
use hydro_core::facets::{ConsistencyReq, Invariant};
use hydro_core::interp::{EvalMode, Transducer};
use hydro_core::{Program, TickOutput, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn db_of(rels: &[(&str, &[(i64, i64)])]) -> Database {
    let mut db = Database::default();
    for (name, rows) in rels {
        db.insert(
            name.to_string(),
            Relation::from_rows(
                rows.iter()
                    .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]),
            ),
        );
    }
    db
}

/// Evaluate with both slot-compiled engines *and* the map-based binding
/// reference; every view (and only the views) must hold exactly the same
/// row set. The mapref leg pins the slot-resolution pass itself: same
/// naive algorithm, bindings through a string map instead of frames.
fn engines_agree(program: &Program, base: &Database) {
    let seminaive = evaluate_views(program, base, &Default::default(), &mut UdfHost::new())
        .expect("semi-naive evaluates");
    let naive = evaluate_views_naive(program, base, &Default::default(), &mut UdfHost::new())
        .expect("naive evaluates");
    let mapref = evaluate_views_mapref(program, base, &Default::default(), &mut UdfHost::new())
        .expect("map reference evaluates");
    let views: BTreeSet<&String> = seminaive
        .keys()
        .chain(naive.keys())
        .chain(mapref.keys())
        .collect();
    for view in views {
        let a = seminaive.get(view).map(Relation::to_set).unwrap_or_default();
        let b = naive.get(view).map(Relation::to_set).unwrap_or_default();
        let c = mapref.get(view).map(Relation::to_set).unwrap_or_default();
        assert_eq!(a, b, "view {view:?} disagrees between engines");
        assert_eq!(b, c, "view {view:?}: slot frames disagree with map bindings");
    }
}

fn base_two() -> ProgramBuilder {
    ProgramBuilder::new().mailbox("e", 2).mailbox("f", 2)
}

/// Error behavior must match too: a guard that would error (unknown
/// scalar) sitting after a scan is only reached when the scan yields
/// rows. The planner must not hoist it ahead of the scan — with an empty
/// relation both engines succeed, with a nonempty one both fail.
#[test]
fn erroring_guard_after_scan_matches_naive_reachability() {
    use hydro_core::ast::Expr;
    let program = ProgramBuilder::new()
        .mailbox("e", 2)
        .rule(
            "g",
            vec![v("a")],
            vec![
                scan("e", &["a", "b"]),
                guard(ge(Expr::Scalar("no_such_scalar".into()), i(0))),
            ],
        )
        .build();

    let empty = db_of(&[("e", &[])]);
    assert!(
        evaluate_views(&program, &empty, &Default::default(), &mut UdfHost::new()).is_ok(),
        "guard after an empty scan is never evaluated"
    );
    assert!(
        evaluate_views_naive(&program, &empty, &Default::default(), &mut UdfHost::new()).is_ok()
    );
    assert!(
        evaluate_views_mapref(&program, &empty, &Default::default(), &mut UdfHost::new()).is_ok()
    );

    let nonempty = db_of(&[("e", &[(1, 2)])]);
    assert!(
        evaluate_views(&program, &nonempty, &Default::default(), &mut UdfHost::new()).is_err(),
        "guard is reached once the scan yields a row"
    );
    assert!(
        evaluate_views_naive(&program, &nonempty, &Default::default(), &mut UdfHost::new())
            .is_err()
    );
    assert!(
        evaluate_views_mapref(&program, &nonempty, &Default::default(), &mut UdfHost::new())
            .is_err()
    );
}

/// A scan that would error (arity mismatch) behind an empty scan must
/// stay unreachable: the planner may not hoist the better-bound atom
/// ahead of the empty one.
#[test]
fn arity_error_behind_empty_scan_matches_naive_reachability() {
    let program = base_two()
        .rule(
            "j",
            vec![v("a")],
            vec![
                scan("e", &["a", "b"]),
                scan_terms(
                    "f",
                    vec![
                        hydro_core::ast::Term::Const(Value::Int(1)),
                        hydro_core::ast::Term::Const(Value::Int(2)),
                    ],
                ),
            ],
        )
        .build();
    // f holds arity-3 rows; the rule scans it with an arity-2 pattern.
    let mut db = db_of(&[("e", &[])]);
    db.insert(
        "f".to_string(),
        Relation::from_rows([vec![Value::Int(1), Value::Int(2), Value::Int(3)]]),
    );
    assert!(
        evaluate_views(&program, &db, &Default::default(), &mut UdfHost::new()).is_ok(),
        "empty e short-circuits before f's arity check, as in source order"
    );
    assert!(evaluate_views_naive(&program, &db, &Default::default(), &mut UdfHost::new()).is_ok());
    assert!(evaluate_views_mapref(&program, &db, &Default::default(), &mut UdfHost::new()).is_ok());

    let mut db2 = db_of(&[("e", &[(5, 6)])]);
    db2.insert(
        "f".to_string(),
        Relation::from_rows([vec![Value::Int(1), Value::Int(2), Value::Int(3)]]),
    );
    assert!(
        evaluate_views(&program, &db2, &Default::default(), &mut UdfHost::new()).is_err(),
        "a nonempty e reaches f and surfaces the mismatch"
    );
    assert!(
        evaluate_views_naive(&program, &db2, &Default::default(), &mut UdfHost::new()).is_err()
    );
    assert!(
        evaluate_views_mapref(&program, &db2, &Default::default(), &mut UdfHost::new()).is_err()
    );
}

/// The recursive variant of the same property: a same-stratum rule scans
/// the recursive head `tc` with the wrong arity behind an empty scan. A
/// delta *variant* of that rule must also evaluate in source order — if
/// the delta atom were hoisted to the front, a nonempty round-1 delta
/// would fire the arity check that source-order evaluation (and the
/// naive reference) never reaches.
#[test]
fn arity_error_in_delta_variant_matches_naive_reachability() {
    let program = base_two()
        .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
        .rule(
            "tc",
            vec![v("a"), v("c")],
            vec![scan("tc", &["a", "b"]), scan("e", &["b", "c"])],
        )
        .rule(
            "h2",
            vec![v("x")],
            vec![scan("f", &["x", "y"]), scan("tc", &["p", "q", "r"])],
        )
        .build();
    // e drives tc to a nonempty delta; f is empty, so h2's arity-3 scan
    // of the arity-2 tc must never be reached by either engine.
    let db = db_of(&[("e", &[(1, 2), (2, 3)]), ("f", &[])]);
    assert!(
        evaluate_views(&program, &db, &Default::default(), &mut UdfHost::new()).is_ok(),
        "delta variants evaluate in source order; empty f short-circuits"
    );
    assert!(evaluate_views_naive(&program, &db, &Default::default(), &mut UdfHost::new()).is_ok());
    assert!(evaluate_views_mapref(&program, &db, &Default::default(), &mut UdfHost::new()).is_ok());
}

// ---------------------------------------------------------------------
// Slot frames vs map bindings: the compiled resolver against the dynamic
// string-map reference.
// ---------------------------------------------------------------------

/// A projection variable no body atom ever binds must surface the same
/// `UnboundVar` error — with the same variable name — from the compiled
/// engines as from the map reference, and only when a body match actually
/// reaches the projection.
#[test]
fn unbound_head_var_error_matches_across_engines() {
    let program = ProgramBuilder::new()
        .mailbox("e", 2)
        .rule("g", vec![v("a"), v("nope")], vec![scan("e", &["a", "b"])])
        .build();

    let empty = db_of(&[("e", &[])]);
    for result in [
        evaluate_views(&program, &empty, &Default::default(), &mut UdfHost::new()),
        evaluate_views_naive(&program, &empty, &Default::default(), &mut UdfHost::new()),
        evaluate_views_mapref(&program, &empty, &Default::default(), &mut UdfHost::new()),
    ] {
        assert!(result.is_ok(), "no match, projection never evaluated");
    }

    let nonempty = db_of(&[("e", &[(1, 2)])]);
    let errs: Vec<_> = [
        evaluate_views(&program, &nonempty, &Default::default(), &mut UdfHost::new()),
        evaluate_views_naive(&program, &nonempty, &Default::default(), &mut UdfHost::new()),
        evaluate_views_mapref(&program, &nonempty, &Default::default(), &mut UdfHost::new()),
    ]
    .into_iter()
    .map(|r| r.unwrap_err())
    .collect();
    assert_eq!(errs[0], errs[1], "slot engines agree on the error");
    assert_eq!(
        errs[1],
        errs[2],
        "slot frames render the same UnboundVar as map bindings"
    );
    assert_eq!(
        errs[0],
        hydro_core::eval::EvalError::UnboundVar("nope".to_string())
    );
}

/// A stateful UDF reached three ways: through a recursive view (`tc`),
/// and through a let and a guard in a view (`scored`) that shares `tc`'s
/// stratum but not its strongly connected component.
fn udf_order_program() -> Program {
    ProgramBuilder::new()
        .mailbox("e", 2)
        .udf("f")
        .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
        .rule(
            "tc",
            vec![v("a"), v("c")],
            vec![
                scan("tc", &["a", "b"]),
                scan("e", &["b", "c"]),
                guard(ge(call("f", vec![v("a"), v("c")]), i(-100))),
            ],
        )
        .rule(
            "scored",
            vec![v("a"), v("r")],
            vec![
                scan("e", &["a", "b"]),
                let_("r", call("f", vec![v("b"), v("a")])),
                guard(ge(v("r"), i(-100))),
            ],
        )
        .build()
}

/// Stateful-UDF call order: the compiled naive engine and the map-based
/// naive reference run the *same algorithm*, so not just the derived rows
/// but the exact sequence of non-memoized UDF invocations must be
/// bit-identical — the slot pass may not reorder, duplicate, or skip a
/// call. Covers let-bound calls, guard calls, and calls reached through
/// recursion (multiple fixpoint rounds re-deriving rows under memoization).
#[test]
fn udf_call_order_identical_between_slot_and_map_binding() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let program = udf_order_program();
    let db = db_of(&[("e", &[(1, 2), (2, 3), (3, 1), (1, 3), (2, 2)])]);

    let run = |slot_based: bool| -> (Vec<Vec<Value>>, BTreeSet<Vec<Value>>) {
        let log: Rc<RefCell<Vec<Vec<Value>>>> = Rc::new(RefCell::new(Vec::new()));
        let mut udfs = UdfHost::new();
        let sink = Rc::clone(&log);
        udfs.register("f", move |args: &[Value]| {
            sink.borrow_mut().push(args.to_vec());
            let a = args[0].as_int().unwrap_or(0);
            let b = args[1].as_int().unwrap_or(0);
            Value::Int(a - b)
        });
        let views = if slot_based {
            evaluate_views_naive(&program, &db, &Default::default(), &mut udfs)
        } else {
            evaluate_views_mapref(&program, &db, &Default::default(), &mut udfs)
        }
        .expect("evaluates");
        let calls = log.borrow().clone();
        (calls, views["scored"].to_set())
    };

    let (slot_calls, slot_rows) = run(true);
    let (map_calls, map_rows) = run(false);
    assert_eq!(slot_rows, map_rows, "derived rows agree");
    assert_eq!(
        slot_calls, map_calls,
        "non-memoized UDF invocation sequences are bit-identical"
    );
    assert!(!slot_calls.is_empty(), "the program actually exercises the UDF");
}

/// The same program driven through transducers, its mailbox filling over
/// four ticks: every engine must make the same non-memoized UDF calls in
/// the same order, tick after tick. Fresh evaluation is the incremental
/// engine's rebuild, so it walks the same evaluation units in the same
/// order — and the naive fixpoint, run per unit, reaches each call in the
/// order the semi-naive one does.
#[test]
fn udf_call_order_identical_across_engines() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let ticks: [&[(i64, i64)]; 4] = [
        &[(1, 2), (2, 3), (3, 1)],
        &[(1, 3), (2, 2)],
        &[(3, 4), (4, 1)],
        &[(4, 4), (2, 5)],
    ];
    let run = |mode: EvalMode| -> Vec<Vec<Vec<Value>>> {
        let mut t = Transducer::new(udf_order_program()).expect("program validates");
        t.set_eval_mode(mode);
        let log: Rc<RefCell<Vec<Vec<Value>>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&log);
        t.register_udf("f", move |args: &[Value]| {
            sink.borrow_mut().push(args.to_vec());
            Value::Int(args[0].as_int().unwrap_or(0) - args[1].as_int().unwrap_or(0))
        });
        let mut per_tick = Vec::new();
        for rows in ticks {
            for &(a, b) in rows {
                t.enqueue_ok("e", vec![Value::Int(a), Value::Int(b)]);
            }
            t.tick().expect("tick");
            per_tick.push(std::mem::take(&mut *log.borrow_mut()));
        }
        per_tick
    };
    let incremental = run(EvalMode::Incremental);
    assert!(
        incremental.iter().all(|calls| !calls.is_empty()),
        "every tick calls the UDF"
    );
    for mode in [EvalMode::FreshSemiNaive, EvalMode::FreshNaive] {
        assert_eq!(
            run(mode),
            incremental,
            "{mode:?} calls the UDF in a different order from Incremental"
        );
    }
}

// ---------------------------------------------------------------------
// Multi-tick differential: the cross-tick incremental engine against a
// fresh-evaluation-per-tick reference.
// ---------------------------------------------------------------------

/// A graph program exercising every maintenance regime at once: a
/// negation stratum over two mutable tables (`live`), recursion above it
/// (`tc`), aggregation above that (`reach`), and negation over the
/// recursive view (`dead_end`). Handlers insert *and delete* base rows,
/// so ticks carry retractions, not just growth.
fn graph_program() -> Program {
    let pair = |a: &str, b: &str| Expr::Tuple(vec![v(a), v(b)]);
    ProgramBuilder::new()
        .table("edge", vec![("a", atom()), ("b", atom())], &["a", "b"], None)
        .table(
            "blocked",
            vec![("a", atom()), ("b", atom())],
            &["a", "b"],
            None,
        )
        .rule(
            "live",
            vec![v("a"), v("b")],
            vec![scan("edge", &["a", "b"]), neg("blocked", vec![v("a"), v("b")])],
        )
        .rule("tc", vec![v("a"), v("b")], vec![scan("live", &["a", "b"])])
        .rule(
            "tc",
            vec![v("a"), v("c")],
            vec![scan("tc", &["a", "b"]), scan("live", &["b", "c"])],
        )
        .agg_rule(
            "reach",
            vec![v("a")],
            AggFun::Count,
            v("b"),
            vec![scan("tc", &["a", "b"])],
        )
        .rule(
            "dead_end",
            vec![v("a"), v("b")],
            vec![scan("edge", &["a", "b"]), neg("tc", vec![v("b"), v("a")])],
        )
        .on("add", &["a", "b"], vec![insert("edge", vec![v("a"), v("b")])])
        .on("rm", &["a", "b"], vec![delete("edge", pair("a", "b"))])
        .on(
            "block",
            &["a", "b"],
            vec![insert("blocked", vec![v("a"), v("b")])],
        )
        .on("unblock", &["a", "b"], vec![delete("blocked", pair("a", "b"))])
        .on(
            "ask",
            &["a"],
            vec![
                ret(collect_set(select(
                    vec![scan_terms(
                        "tc",
                        vec![
                            hydro_core::ast::Term::Var("a".into()),
                            hydro_core::ast::Term::Var("x".into()),
                        ],
                    )],
                    vec![v("x")],
                ))),
                send(
                    "out",
                    select(vec![scan("reach", &["p", "n"])], vec![v("p"), v("n")]),
                ),
                send(
                    "out",
                    select(vec![scan("dead_end", &["p", "q"])], vec![v("p"), v("q")]),
                ),
            ],
        )
        .build()
}

/// One enqueued message in a differential scenario.
type Op = (&'static str, Vec<Value>);

/// Enqueue + tick the same batches on both transducers and compare every
/// observable: responses (exact — message order matches), sends as
/// sorted multisets (the engines may materialize view rows in different
/// orders, which is the one observable the set semantics does not fix),
/// warnings, messages processed, and the full end-of-tick state.
fn ticks_agree(program: &Program, batches: &[Vec<Op>], reference: EvalMode) {
    let mut incr = Transducer::new(program.clone()).unwrap();
    incr.set_eval_mode(EvalMode::Incremental);
    let mut fresh = Transducer::new(program.clone()).unwrap();
    fresh.set_eval_mode(reference);
    for (t, batch) in batches.iter().enumerate() {
        for (mailbox, row) in batch {
            incr.enqueue_ok(mailbox, row.clone());
            fresh.enqueue_ok(mailbox, row.clone());
        }
        let a = incr.tick().unwrap();
        let b = fresh.tick().unwrap();
        let canon = |out: &TickOutput| {
            let mut sends: Vec<(String, Vec<Value>)> = out
                .sends
                .iter()
                .map(|s| (s.mailbox.clone(), s.row.clone()))
                .collect();
            sends.sort();
            (
                out.responses.clone(),
                sends,
                out.warnings.clone(),
                out.messages_processed,
            )
        };
        assert_eq!(canon(&a), canon(&b), "tick {t} outputs disagree");
        assert_eq!(incr.state(), fresh.state(), "tick {t} states disagree");
    }
}

/// Three-way variant of [`ticks_agree`]: the counting/DRed engine (the
/// incremental default) against the unit-recompute incremental engine
/// (`set_counting(false)`, the pre-counting fallback every retraction
/// used to take) against a fresh-per-tick reference. Pinning all three
/// to the same observables means a counting bug cannot hide behind a
/// matching recompute bug or vice versa.
fn ticks_agree3(program: &Program, batches: &[Vec<Op>]) {
    let mut counting = Transducer::new(program.clone()).unwrap();
    counting.set_eval_mode(EvalMode::Incremental);
    let mut recompute = Transducer::new(program.clone()).unwrap();
    recompute.set_eval_mode(EvalMode::Incremental);
    recompute.set_counting(false);
    let mut fresh = Transducer::new(program.clone()).unwrap();
    fresh.set_eval_mode(EvalMode::FreshSemiNaive);
    for (t, batch) in batches.iter().enumerate() {
        for (mailbox, row) in batch {
            counting.enqueue_ok(mailbox, row.clone());
            recompute.enqueue_ok(mailbox, row.clone());
            fresh.enqueue_ok(mailbox, row.clone());
        }
        let a = counting.tick().unwrap();
        let b = recompute.tick().unwrap();
        let c = fresh.tick().unwrap();
        let canon = |out: &TickOutput| {
            let mut sends: Vec<(String, Vec<Value>)> = out
                .sends
                .iter()
                .map(|s| (s.mailbox.clone(), s.row.clone()))
                .collect();
            sends.sort();
            (
                out.responses.clone(),
                sends,
                out.warnings.clone(),
                out.messages_processed,
            )
        };
        assert_eq!(
            canon(&a),
            canon(&b),
            "tick {t}: counting vs recompute outputs disagree"
        );
        assert_eq!(
            canon(&a),
            canon(&c),
            "tick {t}: counting vs fresh outputs disagree"
        );
        assert_eq!(
            counting.state(),
            recompute.state(),
            "tick {t}: counting vs recompute states disagree"
        );
        assert_eq!(
            counting.state(),
            fresh.state(),
            "tick {t}: counting vs fresh states disagree"
        );
    }
}

/// Decode a proptest-generated op stream for [`graph_program`].
fn graph_ops(raw: &[(u8, i64, i64)]) -> Vec<Vec<Op>> {
    // Chunk into ticks of up to 3 ops; kind 6 is "end tick early", which
    // also yields fully empty (no-op) ticks.
    let mut batches: Vec<Vec<Op>> = vec![Vec::new()];
    for &(kind, a, b) in raw {
        let op: Option<Op> = match kind % 7 {
            0 | 1 => Some(("add", vec![Value::Int(a), Value::Int(b)])),
            2 => Some(("rm", vec![Value::Int(a), Value::Int(b)])),
            3 => Some(("block", vec![Value::Int(a), Value::Int(b)])),
            4 => Some(("unblock", vec![Value::Int(a), Value::Int(b)])),
            5 => Some(("ask", vec![Value::Int(a)])),
            _ => None,
        };
        match op {
            Some(op) if batches.last().unwrap().len() < 3 => {
                batches.last_mut().unwrap().push(op)
            }
            Some(op) => batches.push(vec![op]),
            None => batches.push(Vec::new()),
        }
    }
    // Always end with an ask plus a no-op tick so the final view state is
    // observed after the last mutation settled.
    batches.push(vec![("ask", vec![Value::Int(0)]), ("ask", vec![Value::Int(1)])]);
    batches.push(Vec::new());
    batches
}

/// A churn program with two aggregation heads over one keyed table, so
/// delta-keyed group maintenance must replace aggregate rows in place:
/// `Sum` folds retractions directly (invertible), `Min` has to recount
/// the group, and re-putting a live key retracts the old base row and
/// inserts the new one inside a single tick.
fn agg_churn_program() -> Program {
    ProgramBuilder::new()
        .table(
            "m",
            vec![("k", atom()), ("g", atom()), ("x", atom())],
            &["k"],
            None,
        )
        .agg_rule(
            "sums",
            vec![v("g")],
            AggFun::Sum,
            v("x"),
            vec![scan("m", &["_", "g", "x"])],
        )
        .agg_rule(
            "mins",
            vec![v("g")],
            AggFun::Min,
            v("x"),
            vec![scan("m", &["_", "g", "x"])],
        )
        .on(
            "put",
            &["k", "g", "x"],
            vec![insert("m", vec![v("k"), v("g"), v("x")])],
        )
        .on("rm", &["k"], vec![delete("m", v("k"))])
        .on(
            "ask",
            &[],
            vec![
                send(
                    "out",
                    select(vec![scan("sums", &["g", "s"])], vec![v("g"), v("s")]),
                ),
                send(
                    "out",
                    select(vec![scan("mins", &["g", "s"])], vec![v("g"), v("s")]),
                ),
            ],
        )
        .build()
}

/// Decode a proptest-generated op stream for [`agg_churn_program`]. Keys
/// collide on a small range so puts overwrite live rows and deletions
/// hit both live and absent keys; groups collide harder, so a retraction
/// usually leaves its group non-empty (a recount) but sometimes empties
/// it (the group's aggregate row itself must retract).
fn agg_ops(raw: &[(u8, i64, i64)]) -> Vec<Vec<Op>> {
    let mut batches: Vec<Vec<Op>> = vec![Vec::new()];
    for &(kind, a, b) in raw {
        let op: Option<Op> = match kind % 6 {
            0..=2 => Some(("put", vec![Value::Int(a), Value::Int(b % 3), Value::Int(b)])),
            3 => Some(("rm", vec![Value::Int(a)])),
            4 => Some(("ask", vec![])),
            _ => None,
        };
        match op {
            Some(op) if batches.last().unwrap().len() < 3 => {
                batches.last_mut().unwrap().push(op)
            }
            Some(op) => batches.push(vec![op]),
            None => batches.push(Vec::new()),
        }
    }
    batches.push(vec![("ask", vec![])]);
    batches.push(Vec::new());
    batches
}

/// Decode a proptest-generated op stream for [`bank_program`]. Withdrawals
/// dominate and the reserve starts at zero, so invariant violations (and
/// the rollbacks they force) are common; ids collide on a small range so
/// deletions and re-inserts hit rows that aborted groups touched.
fn bank_ops(raw: &[(u8, i64, i64)]) -> Vec<Vec<Op>> {
    let mut batches: Vec<Vec<Op>> = vec![Vec::new()];
    for &(kind, a, b) in raw {
        let op: Option<Op> = match kind % 8 {
            0 => Some(("put", vec![Value::Int(a), Value::Int(b + 3)])),
            1 => Some(("rm", vec![Value::Int(a)])),
            2 => Some(("dep", vec![Value::Int(b)])),
            3..=5 => Some(("wd", vec![Value::Int(a), Value::Int(b)])),
            6 => Some(("ask", vec![Value::Int(a)])),
            _ => None,
        };
        match op {
            Some(op) if batches.last().unwrap().len() < 3 => {
                batches.last_mut().unwrap().push(op)
            }
            Some(op) => batches.push(vec![op]),
            None => batches.push(Vec::new()),
        }
    }
    batches.push(vec![("ask", vec![Value::Int(0)])]);
    batches.push(Vec::new());
    batches
}

/// Deletions must retract derived rows across ticks: remove a chain edge
/// and the closure behind it disappears from the next tick's answers.
#[test]
fn deletion_retracts_derived_rows_across_ticks() {
    let program = graph_program();
    let mut app = Transducer::new(program.clone()).unwrap();
    for (a, b) in [(0i64, 1i64), (1, 2), (2, 3)] {
        app.enqueue_ok("add", vec![Value::Int(a), Value::Int(b)]);
    }
    app.tick().unwrap();
    app.enqueue_ok("ask", vec![Value::Int(0)]);
    let out = app.tick().unwrap();
    let set = out.responses[0].value.as_set().unwrap();
    assert_eq!(set.len(), 3, "0 reaches 1, 2, 3: {set:?}");

    app.enqueue_ok("rm", vec![Value::Int(1), Value::Int(2)]);
    app.tick().unwrap();
    app.enqueue_ok("ask", vec![Value::Int(0)]);
    let out = app.tick().unwrap();
    let set = out.responses[0].value.as_set().unwrap();
    assert_eq!(
        set.iter().collect::<Vec<_>>(),
        vec![&Value::Int(1)],
        "severing 1→2 retracts 0→2 and 0→3"
    );

    // Blocking an edge (a negation input) must retract the same way.
    app.enqueue_ok("block", vec![Value::Int(0), Value::Int(1)]);
    app.tick().unwrap();
    app.enqueue_ok("ask", vec![Value::Int(0)]);
    let out = app.tick().unwrap();
    assert!(
        out.responses[0].value.as_set().unwrap().is_empty(),
        "blocked edge leaves 0 isolated"
    );
}

/// DRed re-derivation: deleting one arm of a diamond over-deletes every
/// closure row derived through it, and the re-derivation phase must
/// resurrect exactly the rows that still have an alternative derivation.
/// `tc(1,4)` holds via both 1→2→4 and 1→3→4; removing edge 2→4 must keep
/// it while retracting `tc(2,4)`, whose only derivation died.
#[test]
fn dred_keeps_rows_with_alternative_derivations() {
    let program = graph_program();
    let mut app = Transducer::new(program.clone()).unwrap();
    app.set_eval_mode(EvalMode::Incremental);
    for (a, b) in [(1i64, 2i64), (1, 3), (2, 4), (3, 4)] {
        app.enqueue_ok("add", vec![Value::Int(a), Value::Int(b)]);
    }
    app.tick().unwrap();

    app.enqueue_ok("rm", vec![Value::Int(2), Value::Int(4)]);
    app.tick().unwrap();

    app.enqueue_ok("ask", vec![Value::Int(1)]);
    app.enqueue_ok("ask", vec![Value::Int(2)]);
    let out = app.tick().unwrap();
    let from_1: BTreeSet<Value> = out.responses[0]
        .value
        .as_set()
        .unwrap()
        .iter()
        .cloned()
        .collect();
    assert_eq!(
        from_1,
        [2i64, 3, 4].into_iter().map(Value::Int).collect(),
        "tc(1,4) survives the deletion via the 1→3→4 derivation"
    );
    assert!(
        out.responses[1].value.as_set().unwrap().is_empty(),
        "tc(2,4) had only the deleted derivation and must retract"
    );

    // The same scenario differentially, three ways, observing the
    // intermediate states too.
    let i = |x: i64| Value::Int(x);
    let batches: Vec<Vec<Op>> = vec![
        vec![("add", vec![i(1), i(2)]), ("add", vec![i(1), i(3)])],
        vec![("add", vec![i(2), i(4)]), ("add", vec![i(3), i(4)])],
        vec![("ask", vec![i(1)])],
        vec![("rm", vec![i(2), i(4)])],
        vec![("ask", vec![i(1)]), ("ask", vec![i(2)])],
        vec![],
    ];
    ticks_agree3(&program, &batches);
}

/// The same deterministic scenario, differentially against both fresh
/// engines (insert, delete, block, unblock, interleaved with no-op ticks).
#[test]
fn multi_tick_deterministic_scenario_agrees_with_both_references() {
    let i = |x: i64| Value::Int(x);
    let batches: Vec<Vec<Op>> = vec![
        vec![("add", vec![i(0), i(1)]), ("add", vec![i(1), i(2)])],
        vec![("ask", vec![i(0)])],
        vec![],
        vec![("add", vec![i(2), i(0)]), ("block", vec![i(1), i(2)])],
        vec![("ask", vec![i(0)]), ("ask", vec![i(2)])],
        vec![("rm", vec![i(0), i(1)]), ("unblock", vec![i(1), i(2)])],
        vec![("ask", vec![i(1)])],
        vec![],
        vec![("add", vec![i(0), i(0)]), ("ask", vec![i(0)])],
    ];
    let program = graph_program();
    ticks_agree(&program, &batches, EvalMode::FreshSemiNaive);
    ticks_agree(&program, &batches, EvalMode::FreshNaive);
}

/// Writing a key column in place would detach a row from its storage key
/// — the one state shape where the persistent key mirror and a freshly
/// re-derived `key_of(row)` index disagree, making keyed reads
/// engine-dependent. Every engine rejects it identically (delete and
/// re-insert is the supported way to re-key).
#[test]
fn key_column_writes_are_rejected_by_every_engine() {
    let i = |x: i64| Value::Int(x);
    for mode in [
        EvalMode::Incremental,
        EvalMode::FreshSemiNaive,
        EvalMode::FreshNaive,
    ] {
        let program = ProgramBuilder::new()
            .table("t", vec![("k", atom()), ("v", atom())], &["k"], None)
            .on("put", &["k", "v"], vec![insert("t", vec![v("k"), v("v")])])
            .on(
                "setk",
                &["k", "nk"],
                vec![assign_field("t", v("k"), "k", v("nk"))],
            )
            .build();
        let mut app = Transducer::new(program).unwrap();
        app.set_eval_mode(mode);
        app.enqueue_ok("put", vec![i(1), i(7)]);
        app.tick().unwrap();
        app.enqueue_ok("setk", vec![i(1), i(2)]);
        let err = app.tick().unwrap_err();
        assert!(
            matches!(
                err,
                hydro_core::interp::TransducerError::KeyColumn { .. }
            ),
            "{mode:?}: {err}"
        );
        // The failed tick leaves state untouched, and the offending
        // message stays queued: a retry reproduces the same error (the
        // shared behavior of every engine on evaluation failure).
        assert_eq!(app.row("t", &[i(1)]), Some(&vec![i(1), i(7)]));
        assert!(app.tick().is_err(), "{mode:?}: retry reproduces the error");
    }
}

/// An evaluation error first reachable *inside a delta variant* — `sum`
/// meets a non-integer that arrives in a later tick, when the aggregate
/// is already maintained by delta-keyed groups — must be the same error
/// the fresh naive engine reports, must reproduce on retry, and must not
/// outlive its cause: once the offending row is retracted the incremental
/// engine (which dropped its evaluation state on the error and rebuilds
/// it) answers like the fresh one again, on the recovery tick and on the
/// delta-maintained ticks after it. The row comes and goes as a foreign
/// exchange row because a failing tick runs no handler, so no handler
/// could delete it.
#[test]
fn error_inside_a_delta_variant_matches_fresh_and_recovers() {
    let int = Value::Int;
    let mut engines = [EvalMode::Incremental, EvalMode::FreshNaive].map(|mode| {
        let mut app = Transducer::new(agg_churn_program()).unwrap();
        app.set_eval_mode(mode);
        app
    });
    fn tick_both(engines: &mut [Transducer; 2], ctx: &str) -> Result<TickOutput, String> {
        let [a, b] = engines.each_mut().map(|app| app.tick());
        assert_eq!(a, b, "{ctx}: incremental vs fresh-naive");
        a.map_err(|e| e.to_string())
    }
    let send = |engines: &mut [Transducer; 2], mailbox: &str, row: Vec<Value>| {
        for app in engines.iter_mut() {
            app.enqueue_ok(mailbox, row.clone());
        }
    };
    let foreign = |engines: &mut [Transducer; 2], row: Option<Vec<Value>>| {
        for app in engines.iter_mut() {
            app.apply_exchange_delta(vec![("m".to_string(), vec![(vec![int(3)], row.clone())])]);
        }
    };

    send(&mut engines, "put", vec![int(1), int(7), int(10)]);
    tick_both(&mut engines, "first put").unwrap();
    send(&mut engines, "put", vec![int(2), int(7), int(5)]);
    tick_both(&mut engines, "second put (groups now delta-keyed)").unwrap();

    foreign(&mut engines, Some(vec![int(3), int(7), Value::Str("x".into())]));
    send(&mut engines, "ask", vec![]);
    let err = tick_both(&mut engines, "sum over a string").unwrap_err();
    assert!(err.contains("expected int"), "{err}");
    assert_eq!(tick_both(&mut engines, "retry").unwrap_err(), err);

    foreign(&mut engines, None);
    let out = tick_both(&mut engines, "offending row retracted").unwrap();
    assert_eq!(out.messages_processed, 1, "the queued `ask` is finally served");
    assert!(out.sends.iter().any(|s| s.row == vec![int(7), int(15)]), "{:?}", out.sends);

    send(&mut engines, "put", vec![int(4), int(7), int(1)]);
    tick_both(&mut engines, "put after recovery").unwrap();
    send(&mut engines, "rm", vec![int(1)]);
    send(&mut engines, "ask", vec![]);
    tick_both(&mut engines, "delta-maintained again").unwrap();
    send(&mut engines, "ask", vec![]);
    let out = tick_both(&mut engines, "final read").unwrap();
    assert!(out.sends.iter().any(|s| s.row == vec![int(7), int(6)]), "{:?}", out.sends);
}

/// A head fed by both an aggregation rule and a plain rule entangles two
/// maintenance regimes on one relation; it is rejected at validation.
#[test]
fn shared_agg_and_plain_head_is_rejected() {
    let program = ProgramBuilder::new()
        .mailbox("e", 2)
        .rule("h", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
        .agg_rule(
            "h",
            vec![v("a")],
            AggFun::Count,
            v("b"),
            vec![scan("e", &["a", "b"])],
        )
        .build();
    assert!(Transducer::new(program).is_err());
}

/// COVID end-to-end differential: lattice-column merges (row updates,
/// i.e. delete+insert deltas), flatten over set columns, a recursive
/// view over them, and the serialized `vaccinate` handler with rollback.
#[test]
fn covid_multi_tick_incremental_agrees_with_fresh() {
    use hydro_core::examples::covid_program_with_vaccines;
    let i = |x: i64| Value::Int(x);
    let batches: Vec<Vec<Op>> = vec![
        vec![
            ("add_person", vec![i(1)]),
            ("add_person", vec![i(2)]),
            ("add_person", vec![i(3)]),
        ],
        vec![("add_contact", vec![i(1), i(2)])],
        vec![("trace", vec![i(1)]), ("add_contact", vec![i(2), i(3)])],
        vec![],
        vec![("diagnosed", vec![i(1)]), ("vaccinate", vec![i(2)])],
        // Second vaccinate exhausts the single dose: rollback + ABORT.
        vec![("vaccinate", vec![i(3)]), ("trace", vec![i(3)])],
        vec![("trace", vec![i(2)])],
        vec![],
    ];
    ticks_agree(
        &covid_program_with_vaccines(1),
        &batches,
        EvalMode::FreshSemiNaive,
    );
}

// ---------------------------------------------------------------------
// Rollback under the partial (touched-keys-only) transactional snapshot.
// ---------------------------------------------------------------------

/// A bank with a serializable, invariant-guarded withdrawal: rollbacks
/// must restore exactly the touched rows (`acct` balance, the `audit`
/// entry) and the touched scalar (`reserve`) — in state *and* in the
/// serialized mid-tick mirror — while views over `acct` keep classifying
/// deltas correctly on later incremental ticks.
fn bank_program() -> Program {
    let bal = |id: Expr| field("acct", id, "bal");
    ProgramBuilder::new()
        .table("acct", vec![("id", atom()), ("bal", atom())], &["id"], None)
        .table(
            "audit",
            vec![("id", atom()), ("amt", atom())],
            &["id", "amt"],
            None,
        )
        .var("reserve", Value::Int(0))
        .rule(
            "rich",
            vec![v("id"), v("b")],
            vec![scan("acct", &["id", "b"]), guard(ge(v("b"), i(5)))],
        )
        .agg_rule(
            "total",
            vec![i(0)],
            AggFun::Sum,
            v("b"),
            vec![scan("acct", &["id", "b"])],
        )
        .on("put", &["id", "b"], vec![insert("acct", vec![v("id"), v("b")])])
        .on("rm", &["id"], vec![delete("acct", v("id"))])
        .on(
            "dep",
            &["amt"],
            vec![assign_scalar("reserve", add(scalar("reserve"), v("amt")))],
        )
        .on_with(
            "wd",
            &["id", "amt"],
            vec![if_(
                has_key("acct", v("id")),
                vec![
                    assign_scalar("reserve", sub(scalar("reserve"), v("amt"))),
                    assign_field("acct", v("id"), "bal", sub(bal(v("id")), v("amt"))),
                    insert("audit", vec![v("id"), v("amt")]),
                    ret(s("OK")),
                ],
                vec![ret(s("MISSING"))],
            )],
            Some(ConsistencyReq::serializable(vec![
                Invariant::NonNegative("reserve".to_string()),
                Invariant::HasKey {
                    table: "acct".to_string(),
                    key_param: "id".to_string(),
                },
            ])),
        )
        .on(
            "ask",
            &["x"],
            vec![
                ret(collect_set(select(
                    vec![scan("rich", &["a", "b"])],
                    vec![v("a"), v("b")],
                ))),
                send(
                    "out",
                    select(vec![scan("total", &["z", "t"])], vec![v("t")]),
                ),
            ],
        )
        .build()
}

/// Serialized messages *after* an aborted one must read the rolled-back
/// values through the mid-tick mirror: if the rollback restored the state
/// but not the mirror (or vice versa), the third withdrawal below would
/// see the aborted balance. Runs identically under every engine.
#[test]
fn partial_snapshot_rollback_preserves_serialized_mirror_reads() {
    let iv = |x: i64| Value::Int(x);
    for mode in [
        EvalMode::Incremental,
        EvalMode::FreshSemiNaive,
        EvalMode::FreshNaive,
    ] {
        let mut app = Transducer::new(bank_program()).unwrap();
        app.set_eval_mode(mode);
        app.enqueue_ok("put", vec![iv(1), iv(10)]);
        app.enqueue_ok("put", vec![iv(2), iv(77)]);
        app.enqueue_ok("dep", vec![iv(5)]);
        app.tick().unwrap();

        // One tick, three serialized withdrawals: commit, abort
        // (reserve would go negative), commit against restored state.
        app.enqueue_ok("wd", vec![iv(1), iv(3)]);
        app.enqueue_ok("wd", vec![iv(1), iv(4)]);
        app.enqueue_ok("wd", vec![iv(1), iv(2)]);
        let out = app.tick().unwrap();
        let replies: Vec<&Value> = out.responses.iter().map(|r| &r.value).collect();
        assert_eq!(
            replies,
            vec![
                &Value::Str("OK".into()),
                &Value::Str("ABORT".into()),
                &Value::Str("OK".into())
            ],
            "{mode:?}"
        );
        assert_eq!(out.warnings.len(), 1, "{mode:?}: exactly one rollback");

        // bal: 10 − 3 − 2; reserve: 5 − 3 − 2; the aborted audit entry
        // vanished; the untouched account is untouched.
        assert_eq!(app.row("acct", &[iv(1)]), Some(&vec![iv(1), iv(5)]), "{mode:?}");
        assert_eq!(app.row("acct", &[iv(2)]), Some(&vec![iv(2), iv(77)]), "{mode:?}");
        assert_eq!(app.scalar("reserve"), Some(&iv(0)), "{mode:?}");
        assert_eq!(app.table_len("audit"), 2, "{mode:?}");
        assert_eq!(app.row("audit", &[iv(1), iv(4)]), None, "{mode:?}");

        // The next tick's views must reflect the *committed* facts only
        // (for the incremental engine this pins the delta classification
        // after a rollback: the journal folds the aborted writes to
        // no-ops).
        app.enqueue_ok("ask", vec![iv(0)]);
        let out = app.tick().unwrap();
        let rich = out.responses[0].value.as_set().unwrap();
        assert_eq!(
            rich.iter().collect::<Vec<_>>(),
            vec![
                &Value::Tuple(vec![iv(1), iv(5)]),
                &Value::Tuple(vec![iv(2), iv(77)])
            ],
            "{mode:?}"
        );
        let totals: Vec<&Vec<Value>> = out
            .sends
            .iter()
            .filter(|sd| sd.mailbox == "out")
            .map(|sd| &sd.row)
            .collect();
        assert_eq!(totals, vec![&vec![iv(82)]], "{mode:?}");
    }
}

/// A precondition failure (missing key) rejects the group *before* any
/// effect applies; the optimistic reply — and only this group's reply —
/// flips to ABORT via the recorded response range.
#[test]
fn precondition_failure_aborts_without_touching_state() {
    let iv = |x: i64| Value::Int(x);
    let mut app = Transducer::new(bank_program()).unwrap();
    app.enqueue_ok("put", vec![iv(1), iv(10)]);
    app.enqueue_ok("dep", vec![iv(100)]);
    app.tick().unwrap();

    app.enqueue_ok("wd", vec![iv(9), iv(1)]); // no account 9
    app.enqueue_ok("wd", vec![iv(1), iv(1)]); // fine
    let out = app.tick().unwrap();
    let replies: Vec<&Value> = out.responses.iter().map(|r| &r.value).collect();
    assert_eq!(
        replies,
        vec![&Value::Str("ABORT".into()), &Value::Str("OK".into())]
    );
    assert_eq!(app.scalar("reserve"), Some(&iv(99)));
    assert_eq!(app.row("acct", &[iv(1)]), Some(&vec![iv(1), iv(9)]));
}

// ---------------------------------------------------------------------
// Steady state builds no index: handlers borrow the engine's scan cache,
// and a compaction renumbers the indexes it finds instead of dropping them.
// ---------------------------------------------------------------------

/// The contact-tracing shape every maintenance strategy has a view in
/// (counting `contact_pairs`, DRed `transitive`, counting-over-recursion
/// `exposed`, delta-keyed `reach`), each view with a keyed reader — plus
/// `notify`, which sends `transitive(pid, _)` twice: once through the
/// probed `(transitive, [0])` index and once as a full scan with a guard.
fn contacts_program() -> Program {
    use hydro_core::value::LatticeKind;
    let keyed_read = |view: &str, out: &str| {
        vec![ret(collect_set(select(
            vec![scan(view, &["pid", out])],
            vec![v(out)],
        )))]
    };
    let ok = || ret(Expr::Const(Value::ok()));
    ProgramBuilder::new()
        .table(
            "people",
            vec![
                ("pid", atom()),
                ("contacts", lat(LatticeKind::SetUnion)),
                ("covid", lat(LatticeKind::BoolOr)),
            ],
            &["pid"],
            None,
        )
        .rule(
            "contact_pairs",
            vec![v("p"), v("p1")],
            vec![scan("people", &["p", "cs", "_"]), flatten("p1", v("cs"))],
        )
        .rule(
            "transitive",
            vec![v("p"), v("p1")],
            vec![scan("contact_pairs", &["p", "p1"])],
        )
        .rule(
            "transitive",
            vec![v("p"), v("p2")],
            vec![
                scan("transitive", &["p", "p1"]),
                scan("contact_pairs", &["p1", "p2"]),
            ],
        )
        .rule(
            "exposed",
            vec![v("p"), v("p2")],
            vec![
                scan("transitive", &["p", "p2"]),
                scan("people", &["p2", "_", "sick"]),
                guard(v("sick")),
            ],
        )
        .agg_rule(
            "reach",
            vec![v("p")],
            AggFun::Count,
            v("p2"),
            vec![scan("transitive", &["p", "p2"])],
        )
        .on(
            "add_person",
            &["pid"],
            vec![
                insert(
                    "people",
                    vec![v("pid"), Expr::Const(Value::empty_set()), b(false)],
                ),
                ok(),
            ],
        )
        .on(
            "add_contact",
            &["a", "b"],
            vec![
                merge_field("people", v("a"), "contacts", v("b")),
                merge_field("people", v("b"), "contacts", v("a")),
                ok(),
            ],
        )
        .on(
            "remove_person",
            &["pid"],
            vec![delete("people", v("pid")), ok()],
        )
        .on(
            "diagnosed",
            &["pid"],
            vec![merge_field("people", v("pid"), "covid", b(true)), ok()],
        )
        .on("trace", &["pid"], keyed_read("transitive", "p2"))
        .on("exposed_q", &["pid"], keyed_read("exposed", "p2"))
        .on("reach_q", &["pid"], keyed_read("reach", "n"))
        .on(
            "notify",
            &["pid"],
            vec![
                send(
                    "probed",
                    select(vec![scan("transitive", &["pid", "p2"])], vec![v("p2")]),
                ),
                send(
                    "scanned",
                    select(
                        vec![
                            scan("transitive", &["p", "p2"]),
                            guard(eq(v("p"), v("pid"))),
                        ],
                        vec![v("p2")],
                    ),
                ),
            ],
        )
        .build()
}

/// Cluster churn on [`contacts_program`], the benchmark's `view_churn`
/// traffic in small: every tick the oldest cluster of four leaves whole, a
/// new one arrives, the one that arrived the tick before is chained up, two
/// settled clusters are read (`trace`, and `exposed_q` or `reach_q`), one is
/// `notify`-ed, and every 8th tick someone is diagnosed.
///
/// Work counts, not a clock. Once every access path has been probed once
/// (the warm-up), `Transducer::index_builds` must never move again — a
/// reader that indexed a view per request, or a compaction that dropped the
/// indexes it renumbered under, would show as growth.
///
/// And `Transducer::compactions` must follow the deletes. A relation's
/// tombstones are exactly the rows it lost, committed once a tick (view
/// maintenance reads a changed input's pre-tick state instead of removing
/// and re-appending its rows). Each relation holds under 4 × 65 rows here,
/// so `Relation::should_compact` fires at its floor of 65 tombstones, and a
/// relation losing `d` rows a tick compacts at most `(64 + 200·d) / 65`
/// times in the 200 measured ticks (64 for the tombstones it carries in).
/// The 13 relations that lose rows lose, per tick: `people` 8⅛ (4 leavers, 4
/// rewritten contact sets, a diagnosis every 8th tick), `contact_pairs` 6
/// (the leaving cluster's chain), `transitive` 16 (its closure), `reach` 4,
/// `exposed` ½, and the consumed messages of the eight mailboxes 14⅛ — in
/// all 48¾, so at most `(13·64 + 200·48¾) / 65` = 162 compactions. (Rolling
/// each changed input back and forward per consuming unit, as the engine
/// once did, re-appended rows at new slots and cost 412 here.)
///
/// Replies and state equal the fresh semi-naive engine's tick by tick;
/// sends equal them as multisets (the engines derive rows in different
/// orders), and within the incremental engine the rows sent through the
/// probed, repeatedly renumbered index equal the full scan's, *in order*.
#[test]
fn steady_state_churn_builds_no_index_and_keeps_scan_order() {
    const CLUSTER: i64 = 4;
    const RESIDENT: i64 = 16; // clusters
    const WARM_UP: i64 = 32;
    const MEASURED: i64 = 200;
    let program = contacts_program();
    let mut incr = Transducer::new(program.clone()).unwrap();
    let mut fresh = Transducer::new(program).unwrap();
    fresh.set_eval_mode(EvalMode::FreshSemiNaive);

    let member = |cluster: i64, i: i64| Value::Int(1 + cluster * CLUSTER + i);
    let mut settled_builds = 0;
    let mut settled_compactions = 0;
    let mut ordered_rows = 0;
    for t in 0..WARM_UP + MEASURED {
        let mut batch: Vec<Op> = Vec::new();
        if t >= RESIDENT {
            batch.extend((0..CLUSTER).map(|i| ("remove_person", vec![member(t - RESIDENT, i)])));
        }
        batch.extend((0..CLUSTER).map(|i| ("add_person", vec![member(t, i)])));
        if t >= 1 {
            batch.extend(
                (0..CLUSTER - 1)
                    .map(|i| ("add_contact", vec![member(t - 1, i), member(t - 1, i + 1)])),
            );
        }
        if t >= 8 {
            let who = t % CLUSTER;
            batch.push(("trace", vec![member(t - 3, who)]));
            batch.push((
                ["exposed_q", "reach_q"][(t % 2) as usize],
                vec![member(t - 6, who)],
            ));
            batch.push(("notify", vec![member(t - 8, who)]));
            if t % 8 == 0 {
                batch.push(("diagnosed", vec![member(t - 5, who)]));
            }
        }
        for (mailbox, row) in &batch {
            incr.enqueue_ok(mailbox, row.clone());
            fresh.enqueue_ok(mailbox, row.clone());
        }
        let a = incr.tick().unwrap();
        let b = fresh.tick().unwrap();
        assert_eq!(a.responses, b.responses, "tick {t}: replies disagree");
        assert_eq!(a.warnings, b.warnings, "tick {t}");
        assert_eq!(incr.state(), fresh.state(), "tick {t}: states disagree");
        let sent = |out: &TickOutput, mailbox: &str| -> Vec<Vec<Value>> {
            let rows = out.sends.iter().filter(|s| s.mailbox == mailbox);
            rows.map(|s| s.row.clone()).collect()
        };
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort();
            rows
        };
        assert_eq!(
            sent(&a, "probed"),
            sent(&a, "scanned"),
            "tick {t}: the index enumerates rows in another order than the relation"
        );
        assert_eq!(
            sorted(sent(&a, "probed")),
            sorted(sent(&b, "probed")),
            "tick {t}"
        );
        assert_eq!(
            sorted(sent(&a, "scanned")),
            sorted(sent(&b, "scanned")),
            "tick {t}"
        );
        if t >= WARM_UP {
            ordered_rows += sent(&a, "probed").len();
        }

        if t + 1 == WARM_UP {
            settled_builds = incr.index_builds();
            settled_compactions = incr.compactions();
        } else if t >= WARM_UP {
            assert_eq!(
                incr.index_builds(),
                settled_builds,
                "tick {t}: an index was built from scratch in the steady state"
            );
        }
    }
    // The program's seven access paths, each built once: `people[0]`,
    // `contact_pairs[0]` and `[0, 1]`, `transitive[0]` and `[1]` for the
    // rules (and `trace`), `exposed[0]` and `reach[0]` for readers alone.
    assert_eq!(settled_builds, 7);
    let compactions = incr.compactions() - settled_compactions;
    assert!(
        compactions <= 162,
        "{compactions} compactions in {MEASURED} ticks: tombstones outgrow the deletes"
    );
    assert_eq!(ordered_rows as i64, MEASURED * CLUSTER);
    assert_eq!(
        fresh.index_builds(),
        0,
        "fresh ticks keep no evaluation state"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Linear recursion: transitive closure.
    #[test]
    fn recursion_agrees(
        es in prop::collection::vec((0i64..7, 0i64..7), 0..22),
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
        engines_agree(&program, &db_of(&[("e", &es)]));
    }

    /// Non-linear recursion: two recursive atoms in one body, the case
    /// where a delta-join must still find (new, new) row pairs.
    #[test]
    fn nonlinear_recursion_agrees(
        es in prop::collection::vec((0i64..6, 0i64..6), 0..18),
    ) {
        let program = ProgramBuilder::new()
            .mailbox("e", 2)
            .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
            .rule(
                "tc",
                vec![v("a"), v("c")],
                vec![scan("tc", &["a", "b"]), scan("tc", &["b", "c"])],
            )
            .build();
        engines_agree(&program, &db_of(&[("e", &es)]));
    }

    /// Mutual recursion between two heads in one stratum.
    #[test]
    fn mutual_recursion_agrees(
        es in prop::collection::vec((0i64..5, 0i64..5), 0..16),
        fs in prop::collection::vec((0i64..5, 0i64..5), 0..16),
    ) {
        let program = base_two()
            .rule("p", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
            .rule(
                "p",
                vec![v("a"), v("c")],
                vec![scan("q", &["a", "b"]), scan("e", &["b", "c"])],
            )
            .rule("q", vec![v("a"), v("b")], vec![scan("f", &["a", "b"])])
            .rule(
                "q",
                vec![v("a"), v("c")],
                vec![scan("p", &["a", "b"]), scan("f", &["b", "c"])],
            )
            .build();
        engines_agree(&program, &db_of(&[("e", &es), ("f", &fs)]));
    }

    /// Negation below recursion: tc over (e − f).
    #[test]
    fn negation_feeding_recursion_agrees(
        es in prop::collection::vec((0i64..5, 0i64..5), 0..14),
        fs in prop::collection::vec((0i64..5, 0i64..5), 0..14),
    ) {
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
        engines_agree(&program, &db_of(&[("e", &es), ("f", &fs)]));
    }

    /// Negation above recursion: pairs not reachable.
    #[test]
    fn negation_over_recursion_agrees(
        es in prop::collection::vec((0i64..5, 0i64..5), 0..14),
        fs in prop::collection::vec((0i64..5, 0i64..5), 0..14),
    ) {
        let program = base_two()
            .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
            .rule(
                "tc",
                vec![v("a"), v("c")],
                vec![scan("tc", &["a", "b"]), scan("e", &["b", "c"])],
            )
            .rule(
                "unreachable",
                vec![v("a"), v("b")],
                vec![scan("f", &["a", "b"]), neg("tc", vec![v("a"), v("b")])],
            )
            .build();
        engines_agree(&program, &db_of(&[("e", &es), ("f", &fs)]));
    }

    /// Aggregation over a recursive view (count/sum/min/max), i.e. an agg
    /// stratum strictly above the fixpoint stratum.
    #[test]
    fn aggregation_over_recursion_agrees(
        es in prop::collection::vec((0i64..5, 0i64..5), 0..16),
    ) {
        for agg in [AggFun::Count, AggFun::Sum, AggFun::Min, AggFun::Max] {
            let program = ProgramBuilder::new()
                .mailbox("e", 2)
                .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
                .rule(
                    "tc",
                    vec![v("a"), v("c")],
                    vec![scan("tc", &["a", "b"]), scan("e", &["b", "c"])],
                )
                .agg_rule("reach", vec![v("a")], agg, v("b"), vec![scan("tc", &["a", "b"])])
                .build();
            engines_agree(&program, &db_of(&[("e", &es)]));
        }
    }

    /// Guards and let-bindings interleaved with a recursive scan, plus a
    /// bounded-recursion pattern (depth counter in the head).
    #[test]
    fn guards_and_lets_in_recursion_agree(
        es in prop::collection::vec((0i64..6, 0i64..6), 0..16),
        bound in 1i64..5,
    ) {
        let program = ProgramBuilder::new()
            .mailbox("e", 2)
            .rule(
                "walk",
                vec![v("a"), v("b"), i(1)],
                vec![scan("e", &["a", "b"])],
            )
            .rule(
                "walk",
                vec![v("a"), v("c"), v("n1")],
                vec![
                    scan("walk", &["a", "b", "n"]),
                    guard(lt(v("n"), i(bound))),
                    scan("e", &["b", "c"]),
                    let_("n1", add(v("n"), i(1))),
                ],
            )
            .build();
        engines_agree(&program, &db_of(&[("e", &es)]));
    }

    /// The multi-tick property: over randomized insert/delete/block/
    /// unblock/query sequences — covering negation and aggregation strata
    /// and retraction cascades — an incrementally maintained transducer
    /// produces the same tick outputs and final state as a transducer
    /// that re-evaluates every view from a fresh snapshot each tick.
    #[test]
    fn multi_tick_incremental_agrees_with_fresh(
        raw in prop::collection::vec((0u8..7, 0i64..5, 0i64..5), 0..28),
    ) {
        let program = graph_program();
        ticks_agree(&program, &graph_ops(&raw), EvalMode::FreshSemiNaive);
    }

    /// The counting/DRed engine against the unit-recompute fallback and
    /// the fresh reference at once, over the full graph workload:
    /// counting on the negation-fed `live` stratum, DRed on the recursive
    /// `tc` stratum, delta-keyed groups on the `reach` aggregate, and
    /// negation *over* the recursion in `dead_end` — all under randomized
    /// insert/delete/block/unblock churn.
    #[test]
    fn counting_dred_agree_with_recompute_and_fresh(
        raw in prop::collection::vec((0u8..7, 0i64..5, 0i64..5), 0..28),
    ) {
        let program = graph_program();
        ticks_agree3(&program, &graph_ops(&raw));
    }

    /// Delta-keyed aggregate-group maintenance under key churn: Sum
    /// (fold retractions directly) and Min (group recount) over an
    /// upserted keyed table, counting vs recompute vs fresh.
    #[test]
    fn counting_agg_groups_agree_with_recompute_and_fresh(
        raw in prop::collection::vec((0u8..6, 0i64..4, 0i64..7), 0..28),
    ) {
        let program = agg_churn_program();
        ticks_agree3(&program, &agg_ops(&raw));
    }

    /// The bank workload three ways: serialized-group rollbacks
    /// interleave with counting maintenance, so an aborted group must
    /// leave support counts exactly as if it never ran.
    #[test]
    fn bank_counting_agrees_with_recompute_and_fresh(
        raw in prop::collection::vec((0u8..8, 0i64..4, 0i64..6), 0..28),
    ) {
        let program = bank_program();
        ticks_agree3(&program, &bank_ops(&raw));
    }

    /// Rollback under the partial snapshot: randomized invariant-violating
    /// serialized groups (withdrawals against a zero-seeded reserve and a
    /// churning account table) interleaved with incremental ticks must
    /// leave every observable — responses incl. ABORT rewrites, rollback
    /// warnings, end-of-tick state, and the *next* ticks' view deltas —
    /// identical to a fresh-per-tick reference that never snapshots at
    /// all. Any key the touched-keys restore missed (or restored wrongly,
    /// in state or mirror) diverges here.
    #[test]
    fn rollback_under_partial_snapshot_agrees_with_fresh(
        raw in prop::collection::vec((0u8..8, 0i64..4, 0i64..6), 0..28),
    ) {
        let program = bank_program();
        ticks_agree(&program, &bank_ops(&raw), EvalMode::FreshSemiNaive);
    }

    /// Wildcards and constants inside a recursive stratum: projections of
    /// the delta must respect term matching on both paths.
    #[test]
    fn wildcards_and_constants_in_recursion_agree(
        es in prop::collection::vec((0i64..5, 0i64..5), 0..16),
        k in 0i64..5,
    ) {
        let program = ProgramBuilder::new()
            .mailbox("e", 2)
            .rule("tc", vec![v("a"), v("b")], vec![scan("e", &["a", "b"])])
            .rule(
                "tc",
                vec![v("a"), v("c")],
                vec![scan("tc", &["a", "b"]), scan("e", &["b", "c"])],
            )
            .rule(
                "from_k",
                vec![v("b")],
                vec![scan_terms(
                    "tc",
                    vec![
                        hydro_core::ast::Term::Const(Value::Int(k)),
                        hydro_core::ast::Term::Var("b".into()),
                    ],
                )],
            )
            .rule("sources", vec![v("a")], vec![scan("tc", &["a", "_"])])
            .build();
        engines_agree(&program, &db_of(&[("e", &es)]));
    }
}
