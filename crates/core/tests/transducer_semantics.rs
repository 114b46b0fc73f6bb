//! Dedicated tests for the §3.1 transducer semantics.
//!
//! The paper's event-loop contract, item by item: snapshot reads,
//! end-of-tick atomic mutation, fixpoint queries with statement-order
//! independence, stratified negation and aggregation, UDF memoization
//! ("once per input per tick"), asynchronous sends, condition triggers,
//! and the runtime's error surface.

use hydro_core::ast::{AggFun, Expr, Term};
use hydro_core::builder::dsl::*;
use hydro_core::builder::ProgramBuilder;
use hydro_core::interp::{Transducer, TransducerError};
use hydro_core::serve::ServeDriver;
use hydro_core::shard::{ParallelShardedTransducer, Route, RoutingSpec, ShardedTransducer};
use hydro_core::value::{LatticeKind, Value};

fn ints(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&x| Value::Int(x)).collect()
}

// ------------------------------------------------------------ tick atomicity

/// Mutations are invisible within their tick: a handler that assigns a
/// scalar and a handler that reads it in the same tick must read the
/// snapshot value.
#[test]
fn mutations_defer_to_end_of_tick() {
    let program = ProgramBuilder::new()
        .var("x", Value::Int(0))
        .mailbox("log", 1)
        .on("bump", &[], vec![assign_scalar("x", add(scalar("x"), i(1)))])
        .on("read", &[], vec![send_row("log", vec![scalar("x")])])
        .build();
    let mut app = Transducer::new(program).unwrap();
    app.enqueue_ok("bump", vec![]);
    app.enqueue_ok("read", vec![]);
    let out = app.tick().unwrap();
    let logged = out.sends.iter().find(|s| s.mailbox == "log").unwrap();
    assert_eq!(logged.row[0], Value::Int(0), "read sees the snapshot");
    assert_eq!(app.scalar("x"), Some(&Value::Int(1)), "bump applied after");
}

/// Two merges into the same lattice cell in one tick combine via join, not
/// last-write-wins.
#[test]
fn concurrent_merges_join() {
    let program = ProgramBuilder::new()
        .lattice_var("hi", LatticeKind::MaxInt)
        .on("offer", &["v"], vec![merge_scalar("hi", v("v"))])
        .build();
    let mut app = Transducer::new(program).unwrap();
    app.enqueue_ok("offer", ints(&[30]));
    app.enqueue_ok("offer", ints(&[70]));
    app.enqueue_ok("offer", ints(&[50]));
    app.tick().unwrap();
    assert_eq!(app.scalar("hi"), Some(&Value::Int(70)));
}

/// Bare assignment is the non-monotone escape hatch: its outcome *does*
/// depend on message arrival order (which is why the CALM typechecker
/// flags it), but is reproducible for a given order.
#[test]
fn assignment_outcome_is_order_dependent_but_reproducible() {
    let build = || {
        ProgramBuilder::new()
            .var("x", Value::Int(0))
            .on("set", &["v"], vec![assign_scalar("x", v("v"))])
            .build()
    };
    let run = |values: &[i64]| {
        let mut app = Transducer::new(build()).unwrap();
        for &v in values {
            app.enqueue_ok("set", ints(&[v]));
        }
        app.tick().unwrap();
        app.scalar("x").cloned()
    };
    assert_eq!(run(&[1, 2]), run(&[1, 2]), "same order, same outcome");
    assert_ne!(
        run(&[1, 2]),
        run(&[2, 1]),
        "reordering non-monotone updates changes the result — the CALM \
         theorem's 'only if' direction in miniature"
    );
}

// ------------------------------------------------------ queries & strata

/// Multiple rules with one head union their results (the Datalog reading
/// of same-named queries).
#[test]
fn same_head_rules_union() {
    let program = ProgramBuilder::new()
        .table("a", vec![("x", atom())], &["x"], None)
        .table("b", vec![("x", atom())], &["x"], None)
        .rule("both", vec![v("x")], vec![scan("a", &["x"])])
        .rule("both", vec![v("x")], vec![scan("b", &["x"])])
        .mailbox("out", 1)
        .on(
            "ask",
            &[],
            vec![send(
                "out",
                select(vec![scan("both", &["x"])], vec![v("x")]),
            )],
        )
        .on("puta", &["x"], vec![insert("a", vec![v("x")])])
        .on("putb", &["x"], vec![insert("b", vec![v("x")])])
        .build();
    let mut app = Transducer::new(program).unwrap();
    app.enqueue_ok("puta", ints(&[1]));
    app.enqueue_ok("putb", ints(&[2]));
    app.tick().unwrap();
    app.enqueue_ok("ask", vec![]);
    let out = app.tick().unwrap();
    let got: Vec<i64> = out
        .sends
        .iter()
        .filter(|s| s.mailbox == "out")
        .filter_map(|s| s.row[0].as_int())
        .collect();
    assert_eq!(got.len(), 2);
    assert!(got.contains(&1) && got.contains(&2));
}

/// Stratified negation: `only_a(x) :- a(x), not b(x)` reflects the
/// snapshot, including after deletes.
#[test]
fn stratified_negation_tracks_snapshot() {
    let program = ProgramBuilder::new()
        .table("a", vec![("x", atom())], &["x"], None)
        .table("b", vec![("x", atom())], &["x"], None)
        .rule(
            "only_a",
            vec![v("x")],
            vec![scan("a", &["x"]), neg("b", vec![v("x")])],
        )
        .mailbox("out", 1)
        .on("puta", &["x"], vec![insert("a", vec![v("x")])])
        .on("putb", &["x"], vec![insert("b", vec![v("x")])])
        .on("dropb", &["x"], vec![delete("b", v("x"))])
        .on(
            "ask",
            &[],
            vec![send(
                "out",
                select(vec![scan("only_a", &["x"])], vec![v("x")]),
            )],
        )
        .build();
    let mut app = Transducer::new(program).unwrap();
    app.enqueue_ok("puta", ints(&[1]));
    app.enqueue_ok("puta", ints(&[2]));
    app.enqueue_ok("putb", ints(&[2]));
    app.tick().unwrap();

    app.enqueue_ok("ask", vec![]);
    let out = app.tick().unwrap();
    let got: Vec<i64> = out.sends.iter().filter_map(|s| s.row[0].as_int()).collect();
    assert_eq!(got, vec![1], "2 is suppressed by b(2)");

    app.enqueue_ok("dropb", ints(&[2]));
    app.tick().unwrap();
    app.enqueue_ok("ask", vec![]);
    let out = app.tick().unwrap();
    let mut got: Vec<i64> = out.sends.iter().filter_map(|s| s.row[0].as_int()).collect();
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "delete re-admits 2 (non-monotone, visible next tick)");
}

/// Aggregation rules group and fold; count over an empty group is absent
/// (Datalog semantics), not zero.
#[test]
fn aggregation_groups_and_folds() {
    let program = ProgramBuilder::new()
        .table("edges", vec![("src", atom()), ("dst", atom())], &["src", "dst"], None)
        .agg_rule(
            "outdeg",
            vec![v("s")],
            AggFun::Count,
            v("d"),
            vec![scan("edges", &["s", "d"])],
        )
        .mailbox("out", 2)
        .on("put", &["s", "d"], vec![insert("edges", vec![v("s"), v("d")])])
        .on(
            "ask",
            &[],
            vec![send(
                "out",
                select(vec![scan("outdeg", &["s", "n"])], vec![v("s"), v("n")]),
            )],
        )
        .build();
    let mut app = Transducer::new(program).unwrap();
    for (s, d) in [(1, 2), (1, 3), (2, 3)] {
        app.enqueue_ok("put", ints(&[s, d]));
    }
    app.tick().unwrap();
    app.enqueue_ok("ask", vec![]);
    let out = app.tick().unwrap();
    let mut got: Vec<(i64, i64)> = out
        .sends
        .iter()
        .map(|s| (s.row[0].as_int().unwrap(), s.row[1].as_int().unwrap()))
        .collect();
    got.sort_unstable();
    assert_eq!(got, vec![(1, 2), (2, 1)], "no (3, 0) row");
}

// ------------------------------------------------------------------- UDFs

/// §3.1: "each UDF is invoked once per input per tick (memoized by the
/// runtime)".
#[test]
fn udfs_are_memoized_per_input_per_tick() {
    let program = ProgramBuilder::new()
        .on("score", &["x"], vec![ret(call("model", vec![v("x")]))])
        .udf("model")
        .build();
    let mut app = Transducer::new(program).unwrap();
    app.register_udf("model", |args| {
        Value::Int(args[0].as_int().unwrap() * 10)
    });
    // Three messages, two distinct inputs.
    app.enqueue_ok("score", ints(&[1]));
    app.enqueue_ok("score", ints(&[1]));
    app.enqueue_ok("score", ints(&[2]));
    let out = app.tick().unwrap();
    assert_eq!(out.responses.len(), 3);
    assert_eq!(app.udf_invocations("model"), 2, "memoized within the tick");

    // The memo resets across ticks (UDFs may be stateful).
    app.enqueue_ok("score", ints(&[1]));
    app.tick().unwrap();
    assert_eq!(app.udf_invocations("model"), 3);
}

// ------------------------------------------------------------------ sends

/// Sends are buffered in the tick output, never applied to local state —
/// "sends are not visible during the current tick".
#[test]
fn sends_are_asynchronous() {
    let program = ProgramBuilder::new()
        .mailbox("loopback", 1)
        .on("go", &[], vec![send_row("loopback", vec![i(7)])])
        .build();
    let mut app = Transducer::new(program).unwrap();
    app.enqueue_ok("go", vec![]);
    let out = app.tick().unwrap();
    assert_eq!(out.sends.len(), 1);
    assert_eq!(app.pending("loopback"), 0, "not self-delivered");
}

// ------------------------------------------------------- condition triggers

/// Condition handlers (Appendix A.2) fire when their guard holds over the
/// snapshot, once per tick, with no message consumed.
#[test]
fn condition_handlers_fire_on_snapshot() {
    let program = ProgramBuilder::new()
        .var("n", Value::Int(0))
        .mailbox("done", 1)
        .on("bump", &[], vec![assign_scalar("n", add(scalar("n"), i(1)))])
        .on_condition(
            "watch",
            ge(scalar("n"), i(2)),
            vec![send_row("done", vec![scalar("n")])],
        )
        .build();
    let mut app = Transducer::new(program).unwrap();
    app.enqueue_ok("bump", vec![]);
    let out = app.tick().unwrap();
    assert!(out.sends.is_empty(), "n=0 at snapshot time");
    app.enqueue_ok("bump", vec![]);
    let out = app.tick().unwrap();
    assert!(out.sends.is_empty(), "n=1 at snapshot time");
    let out = app.tick().unwrap();
    assert_eq!(out.sends.len(), 1, "n=2 now visible");
    assert_eq!(out.sends[0].row[0], Value::Int(2));
}

// ---------------------------------------------------------------- errors

#[test]
fn unknown_mailbox_enqueue_is_an_error() {
    let program = ProgramBuilder::new().build();
    let mut app = Transducer::new(program).unwrap();
    let err = app.enqueue("ghost", vec![]).unwrap_err();
    assert!(matches!(err, TransducerError::NoSuchMailbox(_)));
}

/// Regression (hostile input at the boundary): `enqueue` used to accept a
/// row whose length disagrees with its mailbox, and the *next tick
/// panicked* ("layout slots are statically bound") once a view scanned
/// the mailbox past a correctly sized row — a scan checks arity on the
/// relation's first row only. All three drivers now refuse such a row
/// where it enters, without consuming a message id, and keep serving.
fn wrong_arity_rows_are_refused<D: ServeDriver>(mut app: D) {
    app.enqueue("put", ints(&[2, 7])).unwrap();
    app.tick().unwrap();

    let first = app.enqueue("ping", ints(&[1, 2])).unwrap();
    for (mailbox, bad, expected) in [
        ("ping", ints(&[1]), 2),
        ("ping", ints(&[1, 2, 3]), 2),
        ("log", ints(&[1, 2]), 1),
    ] {
        let given = bad.len();
        assert_eq!(
            app.enqueue(mailbox, bad).unwrap_err(),
            TransducerError::MessageArity {
                mailbox: mailbox.to_string(),
                given,
                expected,
            }
        );
    }
    // Ids stay dense: a refused row consumed none.
    assert_eq!(app.enqueue("ping", ints(&[3, 2])).unwrap(), first + 1);

    let out = app.tick().unwrap();
    let replies: Vec<(u64, Value)> = out
        .responses
        .into_iter()
        .map(|r| (r.message_id, r.value))
        .collect();
    assert_eq!(replies, vec![(first, Value::Int(3)), (first + 1, Value::Int(5))]);
}

#[test]
fn wrong_arity_enqueue_is_an_error_on_every_driver() {
    let program = || {
        ProgramBuilder::new()
            .table("t", vec![("k", atom()), ("v", atom())], &["k"], None)
            .mailbox("log", 1)
            .rule(
                "joined",
                vec![v("x"), v("y")],
                vec![
                    scan("ping", &["x", "y"]),
                    scan_terms("t", vec![Term::Var("y".into()), Term::Wildcard]),
                ],
            )
            .on("put", &["k", "val"], vec![insert("t", vec![v("k"), v("val")])])
            .on("ping", &["x", "y"], vec![ret(add(v("x"), v("y")))])
            .build()
    };
    let routing = || {
        RoutingSpec::all_global()
            .with_route("put", Route::ByParam(0))
            .with_route("ping", Route::ByParam(0))
    };
    wrong_arity_rows_are_refused(Transducer::new(program()).unwrap());
    wrong_arity_rows_are_refused(ShardedTransducer::new(program(), routing(), 2).unwrap());
    wrong_arity_rows_are_refused(ParallelShardedTransducer::new(program(), routing(), 2).unwrap());
}

#[test]
fn division_by_zero_surfaces_as_eval_error() {
    let program = ProgramBuilder::new()
        .var("x", Value::Int(1))
        .on(
            "crash",
            &["d"],
            vec![assign_scalar("x", Expr::Arith(
                hydro_core::ast::ArithOp::Div,
                Box::new(scalar("x")),
                Box::new(v("d")),
            ))],
        )
        .build();
    let mut app = Transducer::new(program).unwrap();
    app.enqueue_ok("crash", ints(&[0]));
    let err = app.tick().unwrap_err();
    assert!(matches!(err, TransducerError::Eval(_)), "{err}");
}

#[test]
fn unstratifiable_programs_are_rejected_at_construction() {
    // p(x) :- q(x), not p(x): negation in a cycle.
    let program = ProgramBuilder::new()
        .table("q", vec![("x", atom())], &["x"], None)
        .rule(
            "p",
            vec![v("x")],
            vec![scan("q", &["x"]), neg("p", vec![v("x")])],
        )
        .build();
    assert!(Transducer::new(program).is_err());
}

// ----------------------------------------------------- order independence

/// The §3.1 headline: "the results of a tick are independent of the order
/// in which statements appear in the program". Two programs with reversed
/// statement lists compute identical state.
#[test]
fn statement_order_within_a_tick_is_irrelevant() {
    let forward = ProgramBuilder::new()
        .table("t", vec![("k", atom()), ("s", lat(LatticeKind::SetUnion))], &["k"], None)
        .on(
            "both",
            &["k", "a", "b"],
            vec![
                merge_field("t", v("k"), "s", v("a")),
                merge_field("t", v("k"), "s", v("b")),
            ],
        )
        .build();
    let backward = ProgramBuilder::new()
        .table("t", vec![("k", atom()), ("s", lat(LatticeKind::SetUnion))], &["k"], None)
        .on(
            "both",
            &["k", "a", "b"],
            vec![
                merge_field("t", v("k"), "s", v("b")),
                merge_field("t", v("k"), "s", v("a")),
            ],
        )
        .build();
    let mut f = Transducer::new(forward).unwrap();
    let mut g = Transducer::new(backward).unwrap();
    for app in [&mut f, &mut g] {
        app.enqueue_ok("both", ints(&[1, 10, 20]));
        app.tick().unwrap();
    }
    assert_eq!(f.row("t", &[Value::Int(1)]), g.row("t", &[Value::Int(1)]));
}

/// Recursive queries reach the same fixpoint regardless of how facts are
/// spread across ticks (growing input, growing output — monotonicity).
#[test]
fn fixpoint_is_batch_insensitive_for_monotone_queries() {
    let build = || {
        ProgramBuilder::new()
            .table("edge", vec![("a", atom()), ("b", atom())], &["a", "b"], None)
            .rule("tc", vec![v("a"), v("b")], vec![scan("edge", &["a", "b"])])
            .rule(
                "tc",
                vec![v("a"), v("c")],
                vec![scan("tc", &["a", "b"]), scan("edge", &["b", "c"])],
            )
            .mailbox("out", 2)
            .on("put", &["a", "b"], vec![insert("edge", vec![v("a"), v("b")])])
            .on(
                "ask",
                &[],
                vec![send(
                    "out",
                    select(vec![scan("tc", &["a", "b"])], vec![v("a"), v("b")]),
                )],
            )
            .build()
    };
    let edges = [(1i64, 2i64), (2, 3), (3, 4), (2, 5)];

    // All at once.
    let mut one = Transducer::new(build()).unwrap();
    for (a, b) in edges {
        one.enqueue_ok("put", ints(&[a, b]));
    }
    one.tick().unwrap();
    one.enqueue_ok("ask", vec![]);
    let out1 = one.tick().unwrap();

    // One edge per tick, reverse order.
    let mut two = Transducer::new(build()).unwrap();
    for (a, b) in edges.iter().rev() {
        two.enqueue_ok("put", ints(&[*a, *b]));
        two.tick().unwrap();
    }
    two.enqueue_ok("ask", vec![]);
    let out2 = two.tick().unwrap();

    let collect = |out: &hydro_core::TickOutput| {
        let mut v: Vec<(i64, i64)> = out
            .sends
            .iter()
            .map(|s| (s.row[0].as_int().unwrap(), s.row[1].as_int().unwrap()))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(collect(&out1), collect(&out2));
    assert!(collect(&out1).contains(&(1, 5)));
}
