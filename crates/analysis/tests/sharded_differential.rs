//! Differential testing of the key-partitioned shard drivers — the serial
//! [`ShardedTransducer`] *and* the worker-thread
//! [`ParallelShardedTransducer`] — against the single [`Transducer`].
//!
//! The sharding contract: under an analysis-produced routing spec, a
//! sharded run is indistinguishable from the single-node run — identical
//! responses (exact sequence after the deterministic merge), identical
//! sends and warnings as multisets, and a merged state equal to the
//! single transducer's, over randomized insert / delete / message / abort
//! sequences. Every property runs *three-way*: single vs serial driver vs
//! parallel driver, so thread scheduling can never reach an observable
//! output. With one shard the entire [`TickOutput`] must be
//! bit-identical. Four program shapes are covered:
//!
//! * a **partitionable KVS** — keyed puts/deletes/reads/updates, a
//!   transactional `reserve` with a `HasKey` invariant (exercising
//!   aligned abort/rollback under sharding), and a shard-local view;
//! * a **broadcast-requiring program** — a handler that scans the table
//!   whole *in emission order* plus an aggregation over it; the analysis
//!   must pin everything to shard 0
//!   ([`PartitionReport::requires_broadcast`] — the ordered scan blocks
//!   delta exchange) and the run still matches;
//! * a **mixed program** — partitioned KVS alongside global scalar
//!   handlers and a condition-triggered alert, proving local handlers
//!   stay local while global effects fire exactly once (not once per
//!   shard);
//! * an **exchange program** — partitioned KVS plus an aggregation read
//!   only through an order-insensitive `CollectSet`; the analysis must
//!   keep `kv` partitioned and plan a delta exchange (PR 4 demoted this
//!   shape), and the partitioned run must still match the single node
//!   exactly. It also runs with every shard in a fresh evaluation mode,
//!   whose per-tick rebuild must carry the exchanged foreign rows.

use hydro_analysis::partition::{
    partition, partition_with, ExchangePolicy, HandlerClass, RuleClass, TableClass,
};
use hydro_core::builder::dsl::*;
use hydro_core::builder::ProgramBuilder;
use hydro_core::facets::{ConsistencyReq, Invariant};
use hydro_core::interp::EvalMode;
use hydro_core::shard::{ParallelShardedTransducer, ShardedTransducer};
use hydro_core::{Program, TickOutput, Transducer, Value};
use proptest::prelude::*;

fn int(x: i64) -> Value {
    Value::Int(x)
}

/// A partitionable key-value program: every handler keys `kv` by its
/// first parameter, `reserve` is transactional with an aligned `HasKey`
/// invariant, and `big` is a shard-local view over `kv`.
fn kvs_program() -> Program {
    ProgramBuilder::new()
        .table(
            "kv",
            vec![("k", atom()), ("val", atom())],
            &["k"],
            Some("k"),
        )
        .rule(
            "big",
            vec![v("x")],
            vec![scan("kv", &["x", "y"]), guard(ge(v("y"), i(100)))],
        )
        .on("put", &["k", "v"], vec![insert("kv", vec![v("k"), v("v")])])
        .on("del", &["k"], vec![delete("kv", v("k"))])
        .on("get", &["k"], vec![ret(field("kv", v("k"), "val"))])
        .on(
            "bump",
            &["k", "d"],
            vec![if_(
                has_key("kv", v("k")),
                vec![
                    assign_field("kv", v("k"), "val", add(field("kv", v("k"), "val"), v("d"))),
                    ret(s("ok")),
                ],
                vec![ret(s("miss"))],
            )],
        )
        .on_with(
            "reserve",
            &["k", "d"],
            vec![
                // The body is total (no read of a missing row), so a
                // reserve against an absent key reaches the `HasKey`
                // precondition and aborts — the transactional path the
                // differential runs must cover under sharding.
                if_(
                    has_key("kv", v("k")),
                    vec![assign_field(
                        "kv",
                        v("k"),
                        "val",
                        sub(field("kv", v("k"), "val"), v("d")),
                    )],
                    vec![],
                ),
                ret(s("ok")),
            ],
            Some(ConsistencyReq::serializable(vec![Invariant::HasKey {
                table: "kv".to_string(),
                key_param: "k".to_string(),
            }])),
        )
        .build()
}

/// A program the analysis must classify as requiring broadcast: `dump`
/// scans the whole table, and `count_kv` aggregates over it.
fn broadcast_program() -> Program {
    ProgramBuilder::new()
        .table(
            "kv",
            vec![("k", atom()), ("val", atom())],
            &["k"],
            Some("k"),
        )
        .agg_rule(
            "count_kv",
            vec![i(0)],
            hydro_core::ast::AggFun::Count,
            v("x"),
            vec![scan("kv", &["x", "y"])],
        )
        .on("put", &["k", "v"], vec![insert("kv", vec![v("k"), v("v")])])
        .on("del", &["k"], vec![delete("kv", v("k"))])
        .on(
            "dump",
            &["lo"],
            vec![for_each(
                select(
                    vec![scan("kv", &["x", "y"]), guard(ge(v("y"), v("lo")))],
                    vec![v("x")],
                ),
                vec![send_row("found", vec![v("x"), v("y")])],
            )],
        )
        .on("get", &["k"], vec![ret(field("kv", v("k"), "val"))])
        .build()
}

/// Partitioned KVS plus global scalar handlers and a condition-triggered
/// alert over the scalar.
fn mixed_program() -> Program {
    ProgramBuilder::new()
        .table(
            "kv",
            vec![("k", atom()), ("val", atom())],
            &["k"],
            Some("k"),
        )
        .var("total", Value::Int(0))
        .on("put", &["k", "v"], vec![insert("kv", vec![v("k"), v("v")])])
        .on("del", &["k"], vec![delete("kv", v("k"))])
        .on("get", &["k"], vec![ret(field("kv", v("k"), "val"))])
        .on(
            "add_total",
            &["d"],
            vec![
                assign_scalar("total", add(scalar("total"), v("d"))),
                ret(scalar("total")),
            ],
        )
        .on_condition(
            "watch",
            ge(scalar("total"), i(25)),
            vec![send_row("alert", vec![scalar("total")])],
        )
        .build()
}

/// Partitioned KVS plus a count aggregate consumed only through an
/// order-insensitive `CollectSet`: the exchange-classified shape. `kv`
/// must stay [`TableClass::Partitioned`] with `count_kv` evaluated on the
/// gather shard over shipped deltas — under PR 4's analysis, `stats`'s
/// transitive read of `kv` demoted every handler to global.
fn exchange_program() -> Program {
    ProgramBuilder::new()
        .table(
            "kv",
            vec![("k", atom()), ("val", atom())],
            &["k"],
            Some("k"),
        )
        .agg_rule(
            "count_kv",
            vec![i(0)],
            hydro_core::ast::AggFun::Count,
            v("x"),
            vec![scan("kv", &["x", "y"])],
        )
        .on("put", &["k", "v"], vec![insert("kv", vec![v("k"), v("v")])])
        .on("del", &["k"], vec![delete("kv", v("k"))])
        .on("get", &["k"], vec![ret(field("kv", v("k"), "val"))])
        // Reads the aggregate as a *set* — content-based, no observable
        // row order — so the global observation is exchange-admissible.
        .on(
            "stats",
            &["q"],
            vec![ret(collect_set(select(
                vec![scan("count_kv", &["g", "c"])],
                vec![v("c")],
            )))],
        )
        .build()
}

/// One decoded client operation.
#[derive(Clone, Debug)]
enum Op {
    Put(i64, i64),
    Del(i64),
    Get(i64),
    Bump(i64, i64),
    Reserve(i64, i64),
    Dump(i64),
    AddTotal(i64),
    Stats(i64),
    /// Tick both sides and compare everything.
    Tick,
}

/// Decode the proptest tuple stream into ops valid for `program` (ops
/// whose mailbox the program lacks fall back to a Put).
fn decode(raw: &[(u8, i64, i64)], program: &Program) -> Vec<Op> {
    let has = |name: &str| program.handler(name).is_some();
    raw.iter()
        .map(|&(code, a, b)| match code {
            0 | 1 => Op::Put(a, b * 25),
            2 => Op::Del(a),
            3 => Op::Get(a),
            4 if has("bump") => Op::Bump(a, b),
            4 if has("add_total") => Op::AddTotal(b),
            4 if has("stats") => Op::Stats(a),
            5 if has("reserve") => Op::Reserve(a, b * 40),
            5 if has("dump") => Op::Dump(a * 30),
            5 if has("add_total") => Op::AddTotal(a),
            5 if has("stats") => Op::Stats(b),
            6 => Op::Tick,
            _ => Op::Put(a, b * 25),
        })
        .collect()
}

fn apply(op: &Op) -> Option<(&'static str, Vec<Value>)> {
    match op {
        Op::Put(k, v) => Some(("put", vec![int(*k), int(*v)])),
        Op::Del(k) => Some(("del", vec![int(*k)])),
        Op::Get(k) => Some(("get", vec![int(*k)])),
        Op::Bump(k, d) => Some(("bump", vec![int(*k), int(*d)])),
        Op::Reserve(k, d) => Some(("reserve", vec![int(*k), int(*d)])),
        Op::Dump(lo) => Some(("dump", vec![int(*lo)])),
        Op::AddTotal(d) => Some(("add_total", vec![int(*d)])),
        Op::Stats(q) => Some(("stats", vec![int(*q)])),
        Op::Tick => None,
    }
}

fn sorted<T: Ord + Clone>(xs: &[T]) -> Vec<T> {
    let mut v = xs.to_vec();
    v.sort();
    v
}

/// Compare one tick's outputs: responses and sends as exact sequences
/// (the merge reconstructs single-node emission order from send
/// provenance), warnings as multisets.
fn outputs_match(single: &TickOutput, shard: &TickOutput, ctx: &str) {
    assert_eq!(
        single.responses, shard.responses,
        "{ctx}: responses diverge"
    );
    assert_eq!(
        single.sends, shard.sends,
        "{ctx}: sends diverge from single-node emission order"
    );
    assert_eq!(
        sorted(&single.warnings),
        sorted(&shard.warnings),
        "{ctx}: warnings diverge as multisets"
    );
    assert_eq!(
        single.messages_processed, shard.messages_processed,
        "{ctx}: messages_processed diverges"
    );
}

/// Run the same op sequence through the single transducer, the serial
/// N-shard driver, and the parallel N-worker driver, comparing every
/// tick's outputs and the merged states three-way.
fn differential_run(program: &Program, raw: &[(u8, i64, i64)], shards: usize) {
    differential_run_in(program, raw, shards, EvalMode::Incremental);
}

/// [`differential_run`] with every shard of both drivers evaluating in
/// `mode`; the single transducer stays incremental.
fn differential_run_in(program: &Program, raw: &[(u8, i64, i64)], shards: usize, mode: EvalMode) {
    let report = partition(program);
    let routing = report.routing();
    let mut single = Transducer::new(program.clone()).expect("program validates");
    let mut sharded = ShardedTransducer::new(program.clone(), routing.clone(), shards)
        .expect("program validates");
    let mut parallel = ParallelShardedTransducer::new(program.clone(), routing, shards)
        .expect("program validates");
    // The per-shard setup hook reaches every shard instance.
    sharded.register_udfs(|t| t.set_eval_mode(mode));
    parallel.register_udfs(move |t| t.set_eval_mode(mode));

    let compare = |single: &mut Transducer,
                   sharded: &mut ShardedTransducer,
                   parallel: &mut ParallelShardedTransducer,
                   ctx: &str| {
        let a = single.tick().expect("single tick");
        let b = sharded.tick().expect("sharded tick");
        let c = parallel.tick().expect("parallel tick");
        if shards == 1 {
            assert_eq!(a, b, "{ctx}: one serial shard must be bit-identical");
            assert_eq!(a, c, "{ctx}: one parallel shard must be bit-identical");
        }
        outputs_match(&a, &b, &format!("{ctx} [serial]"));
        outputs_match(&a, &c, &format!("{ctx} [parallel]"));
        assert_eq!(
            single.state(),
            &sharded.merged_state(),
            "{ctx}: serial merged state diverges"
        );
        assert_eq!(
            single.state(),
            &parallel.merged_state(),
            "{ctx}: parallel merged state diverges"
        );
    };

    let ops = decode(raw, program);
    for (step, op) in ops.iter().enumerate() {
        match apply(op) {
            Some((mailbox, row)) => {
                let a = single.enqueue(mailbox, row.clone()).ok();
                let b = sharded.enqueue(mailbox, row.clone()).ok();
                let c = parallel.enqueue(mailbox, row).ok();
                assert_eq!(a, b, "step {step}: serial enqueue ids diverge for {op:?}");
                assert_eq!(a, c, "step {step}: parallel enqueue ids diverge for {op:?}");
            }
            None => compare(
                &mut single,
                &mut sharded,
                &mut parallel,
                &format!("step {step} ({op:?}, N={shards})"),
            ),
        }
    }
    // Drain whatever is still queued.
    compare(
        &mut single,
        &mut sharded,
        &mut parallel,
        &format!("final tick (N={shards})"),
    );
}

#[test]
fn kvs_analysis_classifies_as_partitionable() {
    let report = partition(&kvs_program());
    for h in ["put", "del", "get", "bump", "reserve"] {
        assert_eq!(
            report.handlers[h],
            HandlerClass::Local { param: 0 },
            "handler {h} should be shard-local on its key"
        );
    }
    assert_eq!(report.tables["kv"], TableClass::Partitioned);
    assert_eq!(report.rules["big"], RuleClass::ShardLocal);
    assert!(!report.requires_broadcast());
}

#[test]
fn broadcast_analysis_pins_everything_to_shard_zero() {
    let report = partition(&broadcast_program());
    assert!(
        report.requires_broadcast(),
        "whole-relation scan + aggregation must force the broadcast fallback: {report:?}"
    );
    assert!(matches!(
        report.handlers["dump"],
        HandlerClass::Global { .. }
    ));
    // `put` would be local on its own, but `dump`'s scan drags `kv` (and
    // so every `kv` handler) to the global shard.
    assert!(matches!(report.handlers["put"], HandlerClass::Global { .. }));
    assert_eq!(report.tables["kv"], TableClass::Global);
    assert_eq!(report.rules["count_kv"], RuleClass::GlobalOnly);
}

#[test]
fn mixed_analysis_keeps_kvs_local_and_scalars_global() {
    let report = partition(&mixed_program());
    assert_eq!(report.handlers["put"], HandlerClass::Local { param: 0 });
    assert_eq!(report.handlers["get"], HandlerClass::Local { param: 0 });
    assert!(matches!(
        report.handlers["add_total"],
        HandlerClass::Global { .. }
    ));
    assert!(matches!(
        report.handlers["watch"],
        HandlerClass::Global { .. }
    ));
    assert_eq!(report.tables["kv"], TableClass::Partitioned);
    assert!(!report.requires_broadcast());
}

#[test]
fn exchange_analysis_plans_delta_exchange_not_demotion() {
    let report = partition(&exchange_program());
    // PR 4 demoted this shape; the exchange plan must now keep the KVS
    // handlers local and the table partitioned.
    for h in ["put", "del", "get"] {
        assert_eq!(
            report.handlers[h],
            HandlerClass::Local { param: 0 },
            "handler {h} must stay shard-local under the exchange plan: {:?}",
            report.notes
        );
    }
    assert!(matches!(
        report.handlers["stats"],
        HandlerClass::Global { .. }
    ));
    assert_eq!(
        report.tables["kv"],
        TableClass::Partitioned,
        "kv must stay partitioned: {:?}",
        report.notes
    );
    assert_eq!(report.rules["count_kv"], RuleClass::NeedsExchange);
    assert!(!report.requires_broadcast());
    assert!(
        report.exchange.ship_tables.contains("kv"),
        "kv must ship tick-barrier deltas: {:?}",
        report.exchange
    );
    assert!(
        report.exchange.gather_views.contains("count_kv"),
        "count_kv must evaluate on the gather shard only: {:?}",
        report.exchange
    );
    assert!(
        report.notes.iter().any(|n| n.contains("delta exchange")),
        "the analysis notes must report exchange routing: {:?}",
        report.notes
    );
}

#[test]
fn demote_policy_restores_global_fallback() {
    let report = partition_with(&exchange_program(), ExchangePolicy::Demote);
    assert!(report.requires_broadcast(), "policy off ⇒ PR 4 demotion");
    assert_eq!(report.tables["kv"], TableClass::Global);
    assert!(report.exchange.is_empty());
}

#[test]
fn ordered_scan_still_blocks_exchange() {
    // `dump` iterates kv in emission order: exchange is inadmissible and
    // the broadcast program must demote exactly as before.
    let report = partition(&broadcast_program());
    assert!(report.exchange.is_empty(), "{:?}", report.exchange);
    assert!(report
        .notes
        .iter()
        .any(|n| n.contains("cannot exchange") && n.contains("emission order")));
}

/// The demotion-explanation diagnostics: the partition report's
/// structured findings carry full derivation chains, not one-line notes.
#[test]
fn partition_diagnostics_carry_derivation_chains() {
    use hydro_analysis::diag::{Loc, Severity};

    // Exchange-classified program: count_kv gets an HY402 "executes via
    // delta exchange" info naming its shipped input, and the lowered
    // plan appears as HY404.
    let report = partition(&exchange_program());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "HY402")
        .expect("exchange program must carry an HY402 info");
    assert_eq!(d.loc, Loc::View("count_kv".to_string()));
    assert!(d.message.contains("delta exchange"), "{}", d.message);
    assert!(
        d.why.iter().any(|w| w.contains("kv")),
        "the why-chain must name the shipped input: {:?}",
        d.why
    );
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == "HY404" && d.message.contains("kv")));

    // Broadcast-classified program: `put` is demoted through the
    // fixpoint, and its HY401 chain records the blocking table, the
    // blocker itself (the ordered scan), and the fixpoint round.
    let report = partition(&broadcast_program());
    let put = report
        .diagnostics
        .iter()
        .find(|d| {
            d.code == "HY401" && d.loc == Loc::Handler("put".to_string())
        })
        .expect("put must be demoted with an HY401 chain");
    assert_eq!(put.severity, Severity::Warning);
    assert!(put.message.starts_with("demoted to global:"), "{}", put.message);
    assert!(
        put.why.iter().any(|w| w.contains("kv")),
        "chain must name the shared table: {:?}",
        put.why
    );
    assert!(
        put.why.iter().any(|w| w.contains("emission order")),
        "chain must surface the exchange blocker: {:?}",
        put.why
    );
    assert!(
        put.why.iter().any(|w| w.contains("fixpoint round")),
        "chain must record the deciding fixpoint round: {:?}",
        put.why
    );
    // The legacy one-line notes are regenerated from the diagnostics and
    // stay in canonical sorted order.
    let mut sorted = report.notes.clone();
    sorted.sort();
    assert_eq!(report.notes, sorted, "notes must be deterministic");
}

/// ISSUE 8 acceptance: every rule the partition analysis classifies as
/// monotone shard-local across the differential fixtures is statically
/// proven reorder-safe, and the verdict rides on the compiled core —
/// the license the evaluator's join reordering / SIP consumes (see the
/// "Sideways information passing" section of `hydro_core::eval`'s module
/// docs).
#[test]
fn shard_local_rules_are_proven_reorder_safe() {
    for (name, program) in [
        ("kvs", kvs_program()),
        ("broadcast", broadcast_program()),
        ("mixed", mixed_program()),
        ("exchange", exchange_program()),
    ] {
        let report = partition(&program);
        let core = hydro_core::interp::ProgramCore::new(program.clone()).unwrap();
        for (i, rule) in program.rules.iter().enumerate() {
            if report.rules.get(&rule.head) == Some(&RuleClass::ShardLocal) {
                assert!(
                    core.rule_reorder_safe(i),
                    "[{name}] shard-local rule {:?}#{i} must be proven reorder-safe",
                    rule.head
                );
            }
        }
        // The fixtures are all well-formed: the proof must cover every
        // rule, aggregate, and handler outright.
        assert!(
            core.reorder().all_safe(),
            "[{name}] expected a fully reorder-safe program: {:?}",
            core.reorder()
        );
    }
}

#[test]
fn condition_handler_fires_once_not_once_per_shard() {
    let program = mixed_program();
    let routing = partition(&program).routing();
    let mut single = Transducer::new(program.clone()).unwrap();
    let mut sharded = ShardedTransducer::new(program.clone(), routing.clone(), 4).unwrap();
    let mut parallel = ParallelShardedTransducer::new(program, routing, 4).unwrap();
    single.enqueue_ok("add_total", vec![int(30)]);
    sharded.enqueue_ok("add_total", vec![int(30)]);
    parallel.enqueue_ok("add_total", vec![int(30)]);
    let a = single.tick().unwrap();
    let b = sharded.tick().unwrap();
    let c = parallel.tick().unwrap();
    outputs_match(&a, &b, "arming tick [serial]");
    outputs_match(&a, &c, "arming tick [parallel]");
    // total = 30 ≥ 25: the watch condition now holds; it must fire once.
    let a = single.tick().unwrap();
    let b = sharded.tick().unwrap();
    let c = parallel.tick().unwrap();
    outputs_match(&a, &b, "condition tick [serial]");
    outputs_match(&a, &c, "condition tick [parallel]");
    for (out, driver) in [(&b, "serial"), (&c, "parallel")] {
        assert_eq!(
            out.sends.iter().filter(|s| s.mailbox == "alert").count(),
            1,
            "condition handler must fire exactly once across 4 {driver} shards"
        );
    }
}

#[test]
fn aligned_invariant_aborts_identically_under_sharding() {
    let program = kvs_program();
    let routing = partition(&program).routing();
    let mut single = Transducer::new(program.clone()).unwrap();
    let mut sharded = ShardedTransducer::new(program.clone(), routing.clone(), 4).unwrap();
    let mut parallel = ParallelShardedTransducer::new(program, routing, 4).unwrap();
    for t in 0..2 {
        let (s, sh, p) = (&mut single, &mut sharded, &mut parallel);
        if t == 0 {
            // Seed two keys; key 7 is never inserted.
            for (k, v) in [(1, 50), (2, 80)] {
                s.enqueue_ok("put", vec![int(k), int(v)]);
                sh.enqueue_ok("put", vec![int(k), int(v)]);
                p.enqueue_ok("put", vec![int(k), int(v)]);
            }
        } else {
            // One valid reserve, one precondition abort (missing key 7).
            for (k, d) in [(1, 10), (7, 5)] {
                s.enqueue_ok("reserve", vec![int(k), int(d)]);
                sh.enqueue_ok("reserve", vec![int(k), int(d)]);
                p.enqueue_ok("reserve", vec![int(k), int(d)]);
            }
        }
        let a = s.tick().unwrap();
        let b = sh.tick().unwrap();
        let c = p.tick().unwrap();
        outputs_match(&a, &b, &format!("tick {t} [serial]"));
        outputs_match(&a, &c, &format!("tick {t} [parallel]"));
        assert_eq!(s.state(), &sh.merged_state());
        assert_eq!(s.state(), &p.merged_state());
        if t == 1 {
            assert!(
                a.responses
                    .iter()
                    .any(|r| r.value == Value::Str("ABORT".to_string())),
                "the missing-key reserve must abort"
            );
            assert_eq!(a.warnings.len(), 1, "one rollback warning");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partitionable KVS: N ∈ {1, 2, 4, 7} shards, randomized
    /// put/del/get/bump/reserve/tick sequences (reserve covers the
    /// transactional abort path; del covers retraction).
    #[test]
    fn sharded_kvs_matches_single(
        raw in prop::collection::vec((0u8..7, 0i64..9, -2i64..6), 0..40),
    ) {
        let program = kvs_program();
        for shards in [1usize, 2, 4, 7] {
            differential_run(&program, &raw, shards);
        }
    }

    /// The broadcast-requiring program: the analysis pins everything to
    /// shard 0 and the sharded run must still match exactly.
    #[test]
    fn sharded_broadcast_program_matches_single(
        raw in prop::collection::vec((0u8..7, 0i64..7, -2i64..6), 0..32),
    ) {
        let program = broadcast_program();
        for shards in [1usize, 4] {
            differential_run(&program, &raw, shards);
        }
    }

    /// Mixed partitioned + global state, including the condition handler.
    #[test]
    fn sharded_mixed_program_matches_single(
        raw in prop::collection::vec((0u8..7, 0i64..9, -2i64..8), 0..36),
    ) {
        let program = mixed_program();
        for shards in [1usize, 2, 4, 7] {
            differential_run(&program, &raw, shards);
        }
    }

    /// The exchange-classified program: `kv` stays partitioned, its
    /// deltas ship to the gather shard at tick barriers, and `stats`'s
    /// set-valued reads of the aggregate must match the single node
    /// exactly — on both drivers, with the shards in every evaluation
    /// mode. A fresh mode rebuilds the gather shard's evaluation state
    /// every tick, from its own rows *and* the foreign rows other shards
    /// shipped.
    #[test]
    fn sharded_exchange_program_matches_single(
        raw in prop::collection::vec((0u8..7, 0i64..9, -2i64..6), 0..40),
    ) {
        let program = exchange_program();
        for mode in [EvalMode::Incremental, EvalMode::FreshSemiNaive, EvalMode::FreshNaive] {
            for shards in [1usize, 2, 4, 7] {
                differential_run_in(&program, &raw, shards, mode);
            }
        }
    }

    /// Churn under sharding: a ~50/50 insert/delete steady state over
    /// the exchange-classified program at N ∈ {1, 2, 4}. Counting/DRed
    /// maintenance runs inside every shard (including the gather shard's
    /// exchanged aggregate) and the net signed rows flowing through
    /// `apply_exchange_delta` must keep all three drivers identical.
    #[test]
    fn sharded_churn_matches_single(
        raw in prop::collection::vec((0u8..10, 0i64..6, -2i64..6), 0..40),
    ) {
        // Reweight the op codes so deletions are as likely as inserts
        // and ticks are frequent (decode: 0=put, 2=del, 3=get,
        // 4=stats, 6=tick). Keys collide on 0..6 so deletions hit
        // resident rows, not misses.
        let churned: Vec<(u8, i64, i64)> = raw
            .iter()
            .map(|&(k, a, b)| {
                let code = match k {
                    0..=2 => 0,
                    3..=5 => 2,
                    6 => 3,
                    7 => 4,
                    _ => 6,
                };
                (code, a, b)
            })
            .collect();
        let program = exchange_program();
        for shards in [1usize, 2, 4] {
            differential_run(&program, &churned, shards);
        }
    }
}
