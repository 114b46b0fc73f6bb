//! The reproduction's experiments, as callable workloads.
//!
//! Each `eNN_*` function runs one experiment's sweep and returns rows of
//! `(label, columns…)` for the report binary to print. Workloads are
//! seeded and deterministic except where wall-clock timing is the measured
//! quantity (E4 store timings, E8/E9 throughput).

use hydro_analysis::{check_confluent, classify};
use hydro_core::examples::{
    cart_program, covid_churn_program, covid_program, covid_program_with_vaccines,
};
use hydro_core::interp::{EvalMode, Transducer};
use hydro_core::Value;
use hydro_deploy::deploy as deploy_program;
use hydro_deploy::DeployConfig;
use hydro_kvs::gossip::{GossipConfig, GossipKvs};
use hydro_kvs::sharded::{run_workload, ShardedKvs, WorkloadSpec};
use hydro_lift::mpi::{allreduce_schedule, rounds, Topology};
use hydro_lift::verified::lift_loop;
use hydro_net::{DomainPath, LinkModel, Sim};
use hydrolysis::chestnut::{synthesize, OpPattern, Store, Workload};
use hydrolysis::target::{demo_catalog, solve, HandlerLoad, ImplVariant};
use hydrolysis::LayoutPlan;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use std::time::Instant;

/// A printable experiment table.
pub struct Table {
    /// Experiment id and title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("## {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

fn ints(row: &[i64]) -> Vec<Value> {
    row.iter().map(|x| Value::Int(*x)).collect()
}

/// One E1 run: the COVID tracker's 3-tick diagnosed sequence over an
/// n-person contact chain. Returns (wall time, alerts emitted). Shared
/// by the E1 table and the `BENCH_interp.json` records.
fn covid_chain_run(n: i64, mode: EvalMode) -> (std::time::Duration, usize) {
    let mut app = Transducer::new(covid_program()).unwrap();
    app.set_eval_mode(mode);
    for p in 1..=n {
        app.enqueue_ok("add_person", ints(&[p]));
    }
    let t0 = Instant::now();
    app.tick().unwrap();
    for p in 1..n {
        app.enqueue_ok("add_contact", ints(&[p, p + 1]));
    }
    app.tick().unwrap();
    app.enqueue_ok("diagnosed", ints(&[1]));
    let out = app.tick().unwrap();
    let elapsed = t0.elapsed();
    let alerts = out.sends.iter().filter(|s| s.mailbox == "alert").count();
    (elapsed, alerts)
}

/// E1: COVID tracker end-to-end — Hydro vs the Fig.2 sequential baseline,
/// plus tick-throughput for growing populations.
pub fn e01_covid() -> Table {
    let mut rows = Vec::new();
    // Chain diameter used to drive the naive fixpoint cubically (~10 s at
    // n=100 in debug); the semi-naive evaluator holds this to tens of ms.
    for n in [25i64, 50, 100] {
        let (elapsed, alerts) = covid_chain_run(n, EvalMode::Incremental);
        // Sequential reference: everyone transitively reachable from 1.
        let expected = (n - 1) as usize;
        rows.push(vec![
            n.to_string(),
            alerts.to_string(),
            expected.to_string(),
            (alerts == expected || alerts == expected + 1).to_string(),
            format!("{elapsed:.2?}"),
        ]);
    }
    Table {
        title: "E1 COVID tracker end-to-end (alerts = sequential reference)".into(),
        headers: ["people", "alerts", "expected", "match", "3-tick time"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E2: coordination cost — eventual (monotone) vs serializable handlers on
/// the deployed simulator, median latency and messages per request. Two
/// network profiles: a same-metro link (where the 1 ms tick hides the
/// sequencer hop) and a WAN link (where coordination's extra round trip
/// is visible in the median).
pub fn e02_coordination() -> Table {
    let mut rows = Vec::new();
    let wan = LinkModel {
        base_us: 500,
        hierarchy_penalty_us: 20_000,
        jitter_us: 200,
        drop_prob: 0.0,
    };
    for (label, handler, payloads, link) in [
        ("metro eventual add_contact", "add_contact", true, LinkModel::default()),
        ("metro serializable vaccinate", "vaccinate", false, LinkModel::default()),
        ("wan   eventual add_contact", "add_contact", true, wan),
        ("wan   serializable vaccinate", "vaccinate", false, wan),
    ] {
        let program = covid_program_with_vaccines(1_000_000);
        // On the WAN profile, message latency (not the tick) dominates; a
        // coarser tick keeps the discrete-event count tractable.
        let wan_profile = link.hierarchy_penalty_us > 1_000;
        let config = DeployConfig {
            link,
            tick_every_us: if wan_profile { 5_000 } else { 1_000 },
            ..DeployConfig::default()
        };
        let mut d = deploy_program(&program, config, |_| {});
        for p in 1..=20i64 {
            d.client_request("add_person", ints(&[p]));
        }
        d.run_for(if wan_profile { 1_000_000 } else { 200_000 });
        let before = d.sim.stats().sent;
        let mut measured_ids = Vec::with_capacity(20);
        for k in 0..20i64 {
            let id = if payloads {
                d.client_request(handler, ints(&[(k % 20) + 1, ((k + 1) % 20) + 1]))
            } else {
                d.client_request(handler, ints(&[(k % 20) + 1]))
            };
            measured_ids.push(id);
        }
        d.run_for(if wan_profile { 3_000_000 } else { 500_000 });
        let msgs = (d.sim.stats().sent - before) as f64 / 20.0;
        // Median over the measured phase only — the warm-up add_person
        // calls would otherwise dilute both arms identically.
        let mut lats: Vec<u64> = measured_ids.iter().filter_map(|&id| d.latency_of(id)).collect();
        lats.sort_unstable();
        let median = lats.get(lats.len() / 2).copied().unwrap_or(0);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", msgs),
            format!("{median}"),
            d.replicas_converged().to_string(),
        ]);
    }
    Table {
        title: "E2 coordination-free vs coordinated handlers (3 replicas)".into(),
        headers: ["handler", "msgs/req", "median µs", "replicas converged"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E3: CALM — divergence rate under random delivery orders, monotone vs
/// non-monotone message mixes.
pub fn e03_calm() -> Table {
    let mut rng = StdRng::seed_from_u64(99);
    let trials = 20;
    let mut rows = Vec::new();
    for (label, vaccines, include_vaccinate) in [
        ("monotone only", 10, false),
        ("with vaccinate (1 dose)", 1, true),
    ] {
        let program = covid_program_with_vaccines(vaccines);
        let mut msgs: Vec<(String, Vec<Value>)> = vec![
            ("add_person".into(), ints(&[1])),
            ("add_person".into(), ints(&[2])),
            ("add_contact".into(), ints(&[1, 2])),
            ("diagnosed".into(), ints(&[1])),
        ];
        if include_vaccinate {
            msgs.push(("vaccinate".into(), ints(&[1])));
            msgs.push(("vaccinate".into(), ints(&[2])));
        }
        let mut diverged = 0;
        for _ in 0..trials {
            let mut order: Vec<usize> = (0..msgs.len()).collect();
            order.shuffle(&mut rng);
            let identity: Vec<usize> = (0..msgs.len()).collect();
            if !check_confluent(&program, &msgs, &[identity, order], |_| {}).unwrap() {
                diverged += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            trials.to_string(),
            diverged.to_string(),
            format!("{:.0}%", 100.0 * diverged as f64 / trials as f64),
        ]);
    }
    Table {
        title: "E3 CALM: divergence under random delivery orders".into(),
        headers: ["workload", "trials", "diverged", "rate"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E4: Chestnut data-layout synthesis — measured lookup speedup of the
/// synthesized layout vs the row-list scan baseline.
pub fn e04_chestnut() -> Table {
    let mut rows = Vec::new();
    for n in [1_000i64, 10_000, 100_000] {
        let workload = Workload {
            ops: vec![
                (OpPattern::LookupEq(0), 90.0),
                (OpPattern::Insert, 9.0),
                (OpPattern::FullScan, 1.0),
            ],
            expected_rows: n as u64,
        };
        let synthesis = synthesize(3, &workload, 2);
        let data: Vec<Vec<Value>> = (0..n)
            .map(|k| vec![Value::Int(k), Value::Int(k % 97), Value::Int(k * 3)])
            .collect();
        let mut fast = Store::new(synthesis.plan.clone());
        let mut slow = Store::new(LayoutPlan::row_list());
        for r in &data {
            fast.insert(r.clone());
            slow.insert(r.clone());
        }
        let probes: Vec<i64> = (0..200).map(|i| (i * 37) % n).collect();
        let t0 = Instant::now();
        for &p in &probes {
            std::hint::black_box(fast.lookup_eq(0, &Value::Int(p)));
        }
        let fast_t = t0.elapsed();
        let t1 = Instant::now();
        for &p in &probes {
            std::hint::black_box(slow.lookup_eq(0, &Value::Int(p)));
        }
        let slow_t = t1.elapsed();
        let speedup = slow_t.as_secs_f64() / fast_t.as_secs_f64().max(1e-12);
        rows.push(vec![
            n.to_string(),
            format!("{:?}", synthesis.plan.primary),
            format!("{:.1}", synthesis.modeled_speedup()),
            format!("{speedup:.1}"),
        ]);
    }
    Table {
        title: "E4 layout synthesis speedup (paper claim: up to 42x)".into(),
        headers: ["rows", "chosen layout", "modeled x", "measured x"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E5: availability — request success under f AZ failures, and the
/// latency overhead of replication.
pub fn e05_availability() -> Table {
    let mut rows = Vec::new();
    for f_kill in [0u32, 1, 2, 3] {
        let mut d = deploy_program(&covid_program(), DeployConfig::default(), |_| {});
        for az in 0..f_kill {
            d.sim.kill_az(az);
        }
        for p in 1..=10i64 {
            d.client_request("add_person", ints(&[p]));
        }
        d.run_for(300_000);
        let ok = d.answered();
        rows.push(vec![
            f_kill.to_string(),
            format!("{ok}/10"),
            d.median_latency_us()
                .map_or("-".into(), |l| l.to_string()),
            (ok == 10).to_string(),
        ]);
    }
    Table {
        title: "E5 availability: f AZ failures against f=2 spec (3 replicas)".into(),
        headers: ["AZs killed", "answered", "median µs", "available"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E6: the target-facet integer program on Fig. 3's targets.
pub fn e06_target() -> Table {
    let program = covid_program();
    let catalog = demo_catalog();
    let mk_loads = |rps: f64| -> Vec<HandlerLoad> {
        vec![
            HandlerLoad {
                handler: "add_person".into(),
                demand_rps: rps,
                variants: vec![ImplVariant {
                    name: "compiled".into(),
                    service_ms: 2.0,
                    needs_gpu: false,
                }],
            },
            HandlerLoad {
                handler: "diagnosed".into(),
                demand_rps: rps / 5.0,
                variants: vec![
                    ImplVariant {
                        name: "interpreted".into(),
                        service_ms: 300.0,
                        needs_gpu: false,
                    },
                    ImplVariant {
                        name: "compiled+seminaive".into(),
                        service_ms: 12.0,
                        needs_gpu: false,
                    },
                ],
            },
            HandlerLoad {
                handler: "likelihood".into(),
                demand_rps: rps / 10.0,
                variants: vec![ImplVariant {
                    name: "ml-model".into(),
                    service_ms: 60.0,
                    needs_gpu: true,
                }],
            },
        ]
    };
    let mut rows = Vec::new();
    for rps in [100.0, 1000.0] {
        match solve(&catalog, &mk_loads(rps), &program.targets, 256, None) {
            Ok(alloc) => {
                for h in &alloc.handlers {
                    rows.push(vec![
                        format!("{rps:.0}"),
                        h.handler.clone(),
                        h.machine.clone(),
                        h.instances.to_string(),
                        h.variant.clone(),
                        format!("{:.1}", h.est_latency_ms),
                        h.backtracks.to_string(),
                    ]);
                }
            }
            Err(e) => rows.push(vec![format!("{rps:.0}"), format!("INFEASIBLE: {e}")]),
        }
    }
    Table {
        title: "E6 target-facet ILP on Fig. 3 targets (GPU pinned, backtracking)".into(),
        headers: ["rps", "handler", "machine", "n", "variant", "lat ms", "backtracks"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E7: MPI collectives on the simulator — allreduce messages/rounds/latency
/// by topology.
pub fn e07_collectives() -> Table {
    struct Sink;
    impl hydro_net::NodeLogic<u64> for Sink {
        fn on_message(&mut self, _: &mut hydro_net::Ctx<u64>, _: usize, _: u64) {}
    }
    let mut rows = Vec::new();
    for p in [4usize, 8, 16, 32, 64] {
        for topo in [Topology::Flat, Topology::Tree, Topology::Ring] {
            let schedule = allreduce_schedule(topo, p);
            // Replay the schedule on the simulator round by round to get a
            // latency figure under the link model.
            let mut sim: Sim<u64> = Sim::new(LinkModel::default(), 3);
            for n in 0..p {
                sim.add_node(Sink, DomainPath::new(n as u32 % 4, (n / 4) as u32, 0));
            }
            let total_rounds = rounds(&schedule);
            let mut t_elapsed = 0u64;
            for r in 0..total_rounds {
                let start = sim.now();
                for &(round, src, dst) in &schedule {
                    if round == r {
                        sim.send_internal(src, dst, 1);
                    }
                }
                sim.run_to_quiescence(100_000);
                t_elapsed += sim.now() - start;
            }
            rows.push(vec![
                p.to_string(),
                format!("{topo:?}"),
                schedule.len().to_string(),
                total_rounds.to_string(),
                t_elapsed.to_string(),
            ]);
        }
    }
    Table {
        title: "E7 allreduce by topology (naive flat vs tree vs ring)".into(),
        headers: ["p", "topology", "msgs", "rounds", "sim latency µs"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// The chain-graph transitive-closure program E8 and the interp benchmark
/// records share.
fn tc_program() -> hydro_core::Program {
    use hydro_core::builder::dsl::*;
    use hydro_core::builder::ProgramBuilder;
    ProgramBuilder::new()
        .mailbox("edges", 2)
        .rule("tc", vec![v("a"), v("b")], vec![scan("edges", &["a", "b"])])
        .rule(
            "tc",
            vec![v("a"), v("c")],
            vec![scan("tc", &["a", "b"]), scan("edges", &["b", "c"])],
        )
        .build()
}

/// One E8 chain-TC measurement at size `n`: the compiled Hydroflow path,
/// the semi-naive interpreter, and the naive reference, all over the same
/// edge set, with row-count agreement asserted. Shared by the E8 table
/// and the `BENCH_interp.json` records.
struct TcRun {
    tc_rows: usize,
    compiled: std::time::Duration,
    compiled_items: u64,
    seminaive: std::time::Duration,
    naive: std::time::Duration,
}

fn tc_chain_run(n: i64) -> TcRun {
    let program = tc_program();
    // A chain graph: TC has n(n-1)/2 pairs, forcing deep recursion.
    let edges: Vec<Vec<Value>> = (1..n).map(|a| ints(&[a, a + 1])).collect();

    // Compiled (semi-naive Hydroflow).
    let mut compiled = hydrolysis::compile_queries(&program).unwrap();
    let mut base = std::collections::BTreeMap::new();
    base.insert("edges".to_string(), edges.clone());
    let t0 = Instant::now();
    let out = compiled.run(&base);
    let compiled_t = t0.elapsed();
    let tc_rows = out["tc"].len();

    let mut db = hydro_core::eval::Database::default();
    db.insert(
        "edges".to_string(),
        hydro_core::eval::Relation::from_rows(edges),
    );

    // Interpreter, semi-naive (the default evaluator).
    let t1 = Instant::now();
    let views = hydro_core::eval::evaluate_views(
        &program,
        &db,
        &Default::default(),
        &mut hydro_core::eval::UdfHost::new(),
    )
    .unwrap();
    let seminaive_t = t1.elapsed();
    assert_eq!(views["tc"].len(), tc_rows);

    // Interpreter, naive reference (full re-derivation per round).
    let t2 = Instant::now();
    let naive_views = hydro_core::eval::evaluate_views_naive(
        &program,
        &db,
        &Default::default(),
        &mut hydro_core::eval::UdfHost::new(),
    )
    .unwrap();
    let naive_t = t2.elapsed();
    assert_eq!(naive_views["tc"].len(), tc_rows);

    TcRun {
        tc_rows,
        compiled: compiled_t,
        compiled_items: compiled.items_processed().max(tc_rows as u64),
        seminaive: seminaive_t,
        naive: naive_t,
    }
}

/// E8: transitive closure three ways — compiled Hydroflow (semi-naive),
/// the interpreter's semi-naive fixpoint, and the retained naive
/// reference evaluator. Work and wall-clock.
pub fn e08_flow() -> Table {
    let mut rows = Vec::new();
    for n in [50i64, 100, 200] {
        let run = tc_chain_run(n);
        rows.push(vec![
            n.to_string(),
            run.tc_rows.to_string(),
            format!("{:.2?}", run.compiled),
            format!("{:.2?}", run.seminaive),
            format!("{:.2?}", run.naive),
            format!(
                "{:.1}",
                run.naive.as_secs_f64() / run.seminaive.as_secs_f64().max(1e-12)
            ),
        ]);
    }
    Table {
        title: "E8 transitive closure: compiled vs semi-naive interp vs naive interp".into(),
        headers: [
            "chain n",
            "|tc|",
            "compiled",
            "interp semi-naive",
            "interp naive",
            "semi-naive speedup x",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// Per-tick wall times of one steady-state COVID run (see
/// [`covid_steady_run`]).
struct SteadyRun {
    /// Ticks that extend the resident contact chain by one person.
    grow: Vec<std::time::Duration>,
    /// Ticks with no pending messages at all.
    noop: Vec<std::time::Duration>,
    /// Final resident population (sanity check across modes).
    people: usize,
}

/// The cross-tick steady-state workload: a resident population of `n`
/// people in a contact chain (large `transitive` view), then `grow` ticks
/// that each deliver a 2-message batch (one new person, one new contact —
/// a small delta against large resident state), then `noop` empty ticks.
/// The incremental engine should pay per-tick cost proportional to the
/// delta; the fresh engines re-derive the quadratic closure every tick.
fn covid_steady_run(n: i64, grow: usize, noop: usize, mode: EvalMode) -> SteadyRun {
    let mut app = Transducer::new(covid_program()).unwrap();
    app.set_eval_mode(mode);
    for p in 1..=n {
        app.enqueue_ok("add_person", ints(&[p]));
    }
    app.tick().unwrap();
    for p in 1..n {
        app.enqueue_ok("add_contact", ints(&[p, p + 1]));
    }
    app.tick().unwrap();
    // Settle tick: effects land at end-of-tick, so the *next* evaluation
    // absorbs the resident build. Run it unmeasured — the phases below
    // measure steady state, not setup.
    app.tick().unwrap();
    let mut run = SteadyRun {
        grow: Vec::with_capacity(grow),
        noop: Vec::with_capacity(noop),
        people: 0,
    };
    // One unmeasured warm batch first: a tick pays for the *previous*
    // batch's view maintenance (effects commit at end-of-tick), so
    // without it the first measured tick would ride for free and the
    // last batch's maintenance would fall off the end. With it, every
    // measured tick is one message batch plus one maintenance fold.
    for t in 0..=grow {
        let p = n + 1 + t as i64;
        app.enqueue_ok("add_person", ints(&[p]));
        app.enqueue_ok("add_contact", ints(&[p - 1, p]));
        let t0 = Instant::now();
        app.tick().unwrap();
        if t > 0 {
            run.grow.push(t0.elapsed());
        }
    }
    // One more settle tick so the no-op phase doesn't pay for the last
    // grow batch's effects.
    app.tick().unwrap();
    for _ in 0..noop {
        let t0 = Instant::now();
        app.tick().unwrap();
        run.noop.push(t0.elapsed());
    }
    run.people = app.table_len("people");
    run
}

fn avg_ms(ts: &[std::time::Duration]) -> f64 {
    if ts.is_empty() {
        return 0.0;
    }
    ts.iter().map(std::time::Duration::as_secs_f64).sum::<f64>() * 1e3 / ts.len() as f64
}

/// Median tick time: sub-0.1ms steady-state ticks on this shared host
/// see occasional multi-x scheduler/allocator spikes, which a mean over
/// a short run amplifies — the median is the honest steady-state cost.
fn median(ts: &[std::time::Duration]) -> std::time::Duration {
    let mut sorted = ts.to_vec();
    sorted.sort();
    sorted.get(sorted.len() / 2).copied().unwrap_or_default()
}

fn median_ms(ts: &[std::time::Duration]) -> f64 {
    median(ts).as_secs_f64() * 1e3
}

/// E15: cross-tick incremental view maintenance — per-tick cost of small
/// message batches (and of no-op ticks) against large resident state,
/// incremental engine vs fresh-per-tick re-derivation.
pub fn e15_steady() -> Table {
    let mut rows = Vec::new();
    for n in [100i64, 200] {
        let incr = covid_steady_run(n, 6, 4, EvalMode::Incremental);
        let fresh = covid_steady_run(n, 6, 4, EvalMode::FreshSemiNaive);
        assert_eq!(incr.people, fresh.people, "modes agree on final state size");
        rows.push(vec![
            n.to_string(),
            format!("{:.3}", avg_ms(&incr.grow)),
            format!("{:.3}", avg_ms(&fresh.grow)),
            format!("{:.1}", avg_ms(&fresh.grow) / avg_ms(&incr.grow).max(1e-9)),
            format!("{:.3}", avg_ms(&incr.noop)),
            format!("{:.3}", avg_ms(&fresh.noop)),
            format!("{:.1}", avg_ms(&fresh.noop) / avg_ms(&incr.noop).max(1e-9)),
        ]);
    }
    Table {
        title: "E15 steady-state ticks: incremental maintenance vs fresh re-derivation"
            .into(),
        headers: [
            "resident n",
            "incr grow ms",
            "fresh grow ms",
            "grow speedup x",
            "incr noop ms",
            "fresh noop ms",
            "noop speedup x",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// One measured churn run: per-tick wall times and the final population.
struct ChurnRun {
    ticks: Vec<std::time::Duration>,
    people: usize,
}

/// The E19 churn workload: the E15 resident state reshaped into contact
/// clusters of four (so the closure stays population-linear and every
/// delta is cluster-local), then steady-state ticks that each *delete* a
/// resident person and add a replacement — a 50/50 insert/delete mix
/// against large resident state. `counting = false` pins the
/// unit-recompute fallback ([`Transducer::set_counting`]); `deletes =
/// false` runs the matching insert-only ticks the deletion path is
/// measured against.
fn covid_churn_run(n: i64, churn: usize, counting: bool, deletes: bool) -> ChurnRun {
    // Four-person batches per tick (one whole contact cluster out, one
    // in) keep every measured tick well above the host's ~50us timer
    // noise floor while the per-tick work stays O(batch), not O(n).
    assert!((churn as i64 + 2) * 4 <= n, "victims must be resident");
    let mut app = Transducer::new(covid_churn_program()).unwrap();
    app.set_eval_mode(EvalMode::Incremental);
    app.set_counting(counting);
    for p in 1..=n {
        app.enqueue_ok("add_person", ints(&[p]));
    }
    app.tick().unwrap();
    // Clusters of four: link i→i+1 except across multiples of 4, so the
    // transitive closure is O(n) rows and a deletion's DRed wave stays
    // inside one cluster.
    for p in 1..n {
        if p % 4 != 0 {
            app.enqueue_ok("add_contact", ints(&[p, p + 1]));
        }
    }
    app.tick().unwrap();
    // Settle tick (effects land at end-of-tick; see covid_steady_run).
    app.tick().unwrap();
    let mut run = ChurnRun {
        ticks: Vec::with_capacity(churn),
        people: 0,
    };
    // Two unmeasured warm batches: a tick pays for the *previous*
    // batch's maintenance fold (see covid_steady_run), and the first
    // deletion's fold additionally builds the head-bound check-probe
    // indexes — one-off setup cost, not steady state.
    for t in 0..churn + 2 {
        for j in 1..=4i64 {
            if deletes {
                app.enqueue_ok("remove_person", ints(&[t as i64 * 4 + j]));
            }
            let fresh = n + t as i64 * 4 + j;
            app.enqueue_ok("add_person", ints(&[fresh]));
            if fresh % 4 != 1 {
                app.enqueue_ok("add_contact", ints(&[fresh - 1, fresh]));
            }
        }
        let t0 = Instant::now();
        app.tick().unwrap();
        if t > 1 {
            run.ticks.push(t0.elapsed());
        }
    }
    run.people = app.table_len("people");
    run
}

/// E19: steady-state churn — per-tick cost of a 50/50 insert/delete mix
/// against resident state, counting/DRed maintenance vs the
/// unit-recompute fallback vs matching insert-only ticks.
pub fn e19_churn() -> Table {
    let mut rows = Vec::new();
    for n in [200i64, 2000] {
        let counting = best_churn_run(n, 24, true, true);
        let recompute = best_churn_run(n, 24, false, true);
        let insert_only = best_churn_run(n, 24, true, false);
        rows.push(vec![
            n.to_string(),
            format!("{:.3}", median_ms(&counting.ticks)),
            format!("{:.3}", median_ms(&recompute.ticks)),
            format!(
                "{:.1}",
                median_ms(&recompute.ticks) / median_ms(&counting.ticks).max(1e-9)
            ),
            format!("{:.3}", median_ms(&insert_only.ticks)),
            format!(
                "{:.2}",
                median_ms(&counting.ticks) / median_ms(&insert_only.ticks).max(1e-9)
            ),
        ]);
    }
    Table {
        title: "E19 churn ticks: counting/DRed maintenance vs unit recompute vs insert-only"
            .into(),
        headers: [
            "resident n",
            "counting ms",
            "recompute ms",
            "speedup x",
            "insert-only ms",
            "delete/insert x",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// Best-of-three churn runs, keyed by median tick time. The E19
/// acceptance gate compares ratios across variants measured at
/// different moments; on a shared host a load burst hitting one
/// variant but not another skews the ratio even though each run's
/// median is internally robust. Taking the quietest of three repeats
/// per variant pairs the ratio on unloaded measurements.
fn best_churn_run(n: i64, churn: usize, counting: bool, deletes: bool) -> ChurnRun {
    (0..3)
        .map(|_| covid_churn_run(n, churn, counting, deletes))
        .min_by_key(|run| median(&run.ticks))
        .expect("at least one churn repeat")
}

/// The E16 scale-out program: a keyed account store whose every handler
/// is shard-local on its key, plus a non-monotone view (`overdrawn`) that
/// forces a per-tick recompute over the accounts relation — the
/// state-proportional cost that sharding isolates.
fn scaleout_program() -> hydro_core::Program {
    use hydro_core::builder::dsl::*;
    use hydro_core::builder::ProgramBuilder;
    ProgramBuilder::new()
        .table(
            "accounts",
            vec![("id", atom()), ("bal", atom())],
            &["id"],
            Some("id"),
        )
        .rule(
            "overdrawn",
            vec![v("k")],
            vec![scan("accounts", &["k", "b"]), guard(lt(v("b"), i(0)))],
        )
        .on("set", &["k", "v"], vec![insert("accounts", vec![v("k"), v("v")])])
        .on("close", &["k"], vec![delete("accounts", v("k"))])
        .on("bal", &["k"], vec![ret(field("accounts", v("k"), "bal"))])
        .build()
}

/// The E18 exchange-heavy variant: the E16 account store plus a count
/// aggregate consumed only through an order-insensitive `CollectSet` —
/// the shape the partition analysis classifies for *delta exchange*
/// (`accounts` stays partitioned; shards ship tick-barrier deltas to the
/// gather shard, which alone maintains the aggregate).
fn exchange_scale_program() -> hydro_core::Program {
    use hydro_core::builder::dsl::*;
    use hydro_core::builder::ProgramBuilder;
    ProgramBuilder::new()
        .table(
            "accounts",
            vec![("id", atom()), ("bal", atom())],
            &["id"],
            Some("id"),
        )
        .rule(
            "overdrawn",
            vec![v("k")],
            vec![scan("accounts", &["k", "b"]), guard(lt(v("b"), i(0)))],
        )
        .agg_rule(
            "n_accounts",
            vec![i(0)],
            hydro_core::ast::AggFun::Count,
            v("k"),
            vec![scan("accounts", &["k", "b"])],
        )
        .on("set", &["k", "v"], vec![insert("accounts", vec![v("k"), v("v")])])
        .on("close", &["k"], vec![delete("accounts", v("k"))])
        .on("bal", &["k"], vec![ret(field("accounts", v("k"), "bal"))])
        .on(
            "stats",
            &["q"],
            vec![ret(collect_set(select(
                vec![scan("n_accounts", &["g", "c"])],
                vec![v("c")],
            )))],
        )
        .build()
}

/// Which runtime executes a scale-out benchmark run.
enum ScaleDriver {
    /// The plain single transducer.
    Single,
    /// The serial in-process sharded driver (one thread, N shard states).
    Serial(usize),
    /// The worker-thread parallel driver (N OS threads + router).
    Parallel(usize),
}

/// One driver instance behind a uniform enqueue/tick/len surface, so the
/// scale-out runs measure identical op streams on every runtime.
enum ScaleArm {
    Single(Box<Transducer>),
    Sharded(hydro_core::ShardedTransducer),
    Parallel(hydro_core::shard::ParallelShardedTransducer),
}

impl ScaleArm {
    fn build(program: &hydro_core::Program, driver: &ScaleDriver) -> ScaleArm {
        match driver {
            ScaleDriver::Single => {
                ScaleArm::Single(Box::new(Transducer::new(program.clone()).unwrap()))
            }
            ScaleDriver::Serial(n) => {
                ScaleArm::Sharded(hydro_analysis::partition::sharded(program, *n).unwrap())
            }
            ScaleDriver::Parallel(n) => ScaleArm::Parallel(
                hydro_analysis::partition::parallel_sharded(program, *n).unwrap(),
            ),
        }
    }

    fn enqueue(&mut self, mailbox: &str, row: Vec<Value>) {
        match self {
            ScaleArm::Single(t) => {
                t.enqueue_ok(mailbox, row);
            }
            ScaleArm::Sharded(s) => {
                s.enqueue_ok(mailbox, row);
            }
            ScaleArm::Parallel(p) => {
                p.enqueue_ok(mailbox, row);
            }
        }
    }

    fn tick(&mut self) -> hydro_core::TickOutput {
        match self {
            ScaleArm::Single(t) => t.tick().unwrap(),
            ScaleArm::Sharded(s) => s.tick().unwrap(),
            ScaleArm::Parallel(p) => p.tick().unwrap(),
        }
    }

    fn table_len(&self, table: &str) -> usize {
        match self {
            ScaleArm::Single(t) => t.table_len(table),
            ScaleArm::Sharded(s) => s.table_len(table),
            ScaleArm::Parallel(p) => p
                .merged_state()
                .tables
                .get(table)
                .map_or(0, std::collections::BTreeMap::len),
        }
    }
}

/// One scale-out run: preload `resident` accounts, then `ticks` measured
/// ticks of `batch` keyed updates each, every tick's batch confined to
/// one hash region (mod 4 — temporal key locality, the access pattern
/// partitioning rewards). With `stats_probe`, each measured tick also
/// carries one `stats` message — the exchange-gathered aggregate read.
/// Returns (measured wall, messages processed, final account rows).
fn scaleout_run_on(
    program: &hydro_core::Program,
    resident: i64,
    ticks: usize,
    batch: usize,
    driver: ScaleDriver,
    stats_probe: bool,
) -> (std::time::Duration, u64, usize) {
    use hydro_core::shard::partition_hash;
    let mut arm = ScaleArm::build(program, &driver);
    // Region = hash bucket mod 4; consistent with shard assignment for
    // N ∈ {1, 2, 4} (hash % 4 determines hash % 2).
    let mut regions: Vec<Vec<i64>> = vec![Vec::new(); 4];
    for k in 0..resident {
        regions[(partition_hash(&Value::Int(k)) % 4) as usize].push(k);
    }
    for k in 0..resident {
        arm.enqueue("set", ints(&[k, k % 97]));
    }
    arm.tick();
    // The preload tick journals its 80k inserts; the *next* tick folds
    // them into the persistent views. Absorb that warm-up outside the
    // measurement so every arm starts from the same steady state.
    arm.tick();

    let t0 = Instant::now();
    let mut processed = 0u64;
    for t in 0..ticks {
        let keys = &regions[t % 4];
        for m in 0..batch {
            let k = keys[(t * batch + m) % keys.len()];
            arm.enqueue("set", ints(&[k, (t as i64) - 2]));
        }
        if stats_probe {
            arm.enqueue("stats", ints(&[t as i64]));
        }
        processed += arm.tick().messages_processed as u64;
    }
    let wall = t0.elapsed();
    let rows = arm.table_len("accounts");
    (wall, processed, rows)
}

/// The E16 run shape (kept for the existing callers): the plain
/// partitionable program, no stats probe.
fn scaleout_run(
    resident: i64,
    ticks: usize,
    batch: usize,
    shards: Option<usize>,
) -> (std::time::Duration, u64, usize) {
    let program = scaleout_program();
    let driver = match shards {
        None => ScaleDriver::Single,
        Some(n) => ScaleDriver::Serial(n),
    };
    scaleout_run_on(&program, resident, ticks, batch, driver, false)
}

/// E16: key-partitioned scale-out — tick throughput of the sharded
/// transducer vs the single one on a keyed workload with temporal
/// locality. The win is work isolation: only the shards a tick touches
/// pay its recompute/journal costs (untouched shards no-op in µs), so
/// the speedup survives even on a single core; a parallel driver stacks
/// on top where cores exist.
pub fn e16_scaleout() -> Table {
    let (resident, ticks, batch) = (80_000i64, 20usize, 48usize);
    let (base_wall, base_msgs, base_rows) = scaleout_run(resident, ticks, batch, None);
    let mut rows = vec![vec![
        "single".to_string(),
        format!("{:.3}", base_wall.as_secs_f64() * 1e3),
        format!("{:.0}", base_msgs as f64 / base_wall.as_secs_f64()),
        "1.00".to_string(),
        "true".to_string(),
    ]];
    for n in [1usize, 2, 4] {
        let (wall, msgs, shard_rows) = scaleout_run(resident, ticks, batch, Some(n));
        rows.push(vec![
            format!("shards={n}"),
            format!("{:.3}", wall.as_secs_f64() * 1e3),
            format!("{:.0}", msgs as f64 / wall.as_secs_f64()),
            format!("{:.2}", base_wall.as_secs_f64() / wall.as_secs_f64()),
            (msgs == base_msgs && shard_rows == base_rows).to_string(),
        ]);
    }
    Table {
        title: "E16 key-partitioned scale-out: sharded vs single transducer \
                (region-burst keyed workload)"
            .into(),
        headers: ["arm", "wall ms", "msgs/s", "speedup x", "work matches"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E18: parallel scale-up — the E16 keyed workload on the worker-thread
/// [`hydro_core::shard::ParallelShardedTransducer`] at 1/2/4 workers,
/// plus the exchange-heavy program (a gathered aggregate over shipped
/// deltas) at 4 workers. Where E16 measures *work isolation* on one
/// thread, E18 adds real concurrency: shards tick simultaneously on their
/// own cores, so multi-worker speedup reflects parallel wall-clock, not
/// just skipped work. On a noisy or core-starved host read the speedups
/// as trend-level; the "work matches" column is the hard invariant.
pub fn e18_parallel() -> Table {
    let (resident, ticks, batch) = (80_000i64, 20usize, 48usize);
    let plain = scaleout_program();
    let (base_wall, base_msgs, base_rows) =
        scaleout_run_on(&plain, resident, ticks, batch, ScaleDriver::Single, false);
    let mut rows = vec![vec![
        "single".to_string(),
        format!("{:.3}", base_wall.as_secs_f64() * 1e3),
        format!("{:.0}", base_msgs as f64 / base_wall.as_secs_f64()),
        "1.00".to_string(),
        "true".to_string(),
    ]];
    for n in [1usize, 2, 4] {
        let (wall, msgs, shard_rows) =
            scaleout_run_on(&plain, resident, ticks, batch, ScaleDriver::Parallel(n), false);
        rows.push(vec![
            format!("workers={n}"),
            format!("{:.3}", wall.as_secs_f64() * 1e3),
            format!("{:.0}", msgs as f64 / wall.as_secs_f64()),
            format!("{:.2}", base_wall.as_secs_f64() / wall.as_secs_f64()),
            (msgs == base_msgs && shard_rows == base_rows).to_string(),
        ]);
    }
    // The exchange-heavy arm: one gathered-aggregate probe per tick on
    // top of the keyed burst. Its single-transducer baseline is separate
    // (the probe adds work both sides).
    let exchange = exchange_scale_program();
    let (ex_base_wall, ex_base_msgs, ex_base_rows) =
        scaleout_run_on(&exchange, resident, ticks, batch, ScaleDriver::Single, true);
    rows.push(vec![
        "exchange single".to_string(),
        format!("{:.3}", ex_base_wall.as_secs_f64() * 1e3),
        format!("{:.0}", ex_base_msgs as f64 / ex_base_wall.as_secs_f64()),
        "1.00".to_string(),
        "true".to_string(),
    ]);
    for n in [2usize, 4] {
        let (wall, msgs, shard_rows) =
            scaleout_run_on(&exchange, resident, ticks, batch, ScaleDriver::Parallel(n), true);
        rows.push(vec![
            format!("exchange workers={n}"),
            format!("{:.3}", wall.as_secs_f64() * 1e3),
            format!("{:.0}", msgs as f64 / wall.as_secs_f64()),
            format!("{:.2}", ex_base_wall.as_secs_f64() / wall.as_secs_f64()),
            (msgs == ex_base_msgs && shard_rows == ex_base_rows).to_string(),
        ]);
    }
    Table {
        title: "E18 parallel scale-up: worker-thread shards vs single transducer \
                (region-burst keyed workload + delta-exchange aggregate)"
            .into(),
        headers: ["arm", "wall ms", "msgs/s", "speedup x", "work matches"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// The E20 serving program: the E16 account store behind a *single*
/// serialized `req(op, k, v)` multiplexer (op 0 = upsert, 1 = close,
/// else = balance read). One serialized entry handler is what makes
/// micro-batch boundaries provably unobservable — within a tick,
/// execution order equals arrival order and every message commits
/// against mid-tick state (see `hydro_core::serve`'s module docs and
/// the `serve_batching` differential suite) — so the serving layer may
/// batch as aggressively as it likes without changing semantics.
fn e20_serving_program() -> hydro_core::Program {
    use hydro_core::builder::dsl::*;
    use hydro_core::builder::ProgramBuilder;
    use hydro_core::facets::ConsistencyReq;
    ProgramBuilder::new()
        .table(
            "accounts",
            vec![("id", atom()), ("bal", atom())],
            &["id"],
            Some("id"),
        )
        .rule(
            "overdrawn",
            vec![v("x")],
            vec![scan("accounts", &["x", "b"]), guard(lt(v("b"), i(0)))],
        )
        .on_with(
            "req",
            &["op", "k", "v"],
            vec![if_(
                eq(v("op"), i(0)),
                vec![insert("accounts", vec![v("k"), v("v")])],
                vec![if_(
                    eq(v("op"), i(1)),
                    vec![delete("accounts", v("k"))],
                    vec![if_(
                        has_key("accounts", v("k")),
                        vec![ret(field("accounts", v("k"), "bal"))],
                        vec![ret(s("miss"))],
                    )],
                )],
            )],
            Some(ConsistencyReq::serializable(vec![])),
        )
        .build()
}

/// Measured outcomes of one E20 serving arm.
struct E20Arm {
    wall: std::time::Duration,
    completed: u64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

/// Drive `n_ops` requests through a fresh [`hydro_core::serve::ServeLoop`]
/// over `driver` and measure it. `open_rate` `Some(r)` draws open-loop
/// Poisson arrivals at `r` msgs/sec (inter-arrival gaps from the vendored
/// `rand_distr::Exp`); `None` offers the whole burst at one instant — the
/// saturation shape. The op mix is 70% keyed upserts / 30% balance reads
/// over the resident population (no closes, so the population is stable).
/// Returns the measurements plus the driver for the next arm.
fn e20_arm(
    driver: hydro_core::shard::ParallelShardedTransducer,
    routing: hydro_core::shard::RoutingSpec,
    batch: hydro_core::serve::BatchPolicy,
    resident: i64,
    n_ops: usize,
    open_rate: Option<f64>,
    seed: u64,
) -> (E20Arm, hydro_core::shard::ParallelShardedTransducer) {
    use hydro_core::serve::{OfferOutcome, ServeConfig, ServeLoop, ServiceModel};
    use rand::RngCore;
    use rand_distr::{Distribution, Exp};
    let cfg = ServeConfig {
        queue_cap: 1 << 17,
        batch,
        latency_target_ns: 10_000_000,
        service: ServiceModel::Measured,
        record_batches: false,
        ..ServeConfig::default()
    };
    let mut lp = ServeLoop::new(driver, routing, cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let gap = open_rate.map(|r| Exp::new(r / 1e9).expect("positive arrival rate"));
    let mut t_ns = 0u64;
    let t0 = Instant::now();
    for _ in 0..n_ops {
        if let Some(g) = &gap {
            t_ns += g.sample(&mut rng) as u64;
        }
        let k = (rng.next_u64() % resident as u64) as i64;
        let (op, val) = if rng.next_u64() % 10 < 7 { (0, k % 97) } else { (2, 0) };
        let outcome = lp
            .offer(
                t_ns,
                "req",
                vec![Value::Int(op), Value::Int(k), Value::Int(val)],
            )
            .expect("offer");
        assert_eq!(outcome, OfferOutcome::Accepted, "queue is sized above the burst");
    }
    lp.drain().expect("drain");
    let wall = t0.elapsed();
    let _ = lp.take_output();
    let stats = lp.stats();
    assert_eq!(stats.completed, n_ops as u64, "every accepted request served");
    let h = lp.histogram();
    let arm = E20Arm {
        wall,
        completed: stats.completed,
        p50_ns: h.percentile(0.5),
        p99_ns: h.percentile(0.99),
        p999_ns: h.percentile(0.999),
    };
    (arm, lp.into_inner())
}

/// One full E20 run at a worker count: preload the resident population,
/// then three arms over the *same* warm driver — saturation at batch=1,
/// saturation with adaptive batching (identical op stream), and an
/// open-loop Poisson arm at half the measured adaptive saturation rate
/// (the sustainable-rate latency measurement).
struct E20Run {
    batch1: E20Arm,
    adaptive: E20Arm,
    open: E20Arm,
    open_rate: f64,
    rows: usize,
    preload_wall: std::time::Duration,
}

fn e20_run(workers: usize, resident: i64, burst: usize) -> E20Run {
    use hydro_core::serve::BatchPolicy;
    let program = e20_serving_program();
    let routing = hydro_analysis::partition::partition(&program).routing();
    let mut driver =
        hydro_analysis::partition::parallel_sharded(&program, workers).expect("program validates");
    let t0 = Instant::now();
    let chunk = 250_000i64;
    let mut k = 0i64;
    while k < resident {
        let hi = (k + chunk).min(resident);
        for key in k..hi {
            driver.enqueue_ok("req", vec![Value::Int(0), Value::Int(key), Value::Int(key % 97)]);
        }
        driver.tick().expect("preload tick");
        k = hi;
    }
    // Absorb the deferred view fold outside the measurement, as E16 does.
    driver.tick().expect("warm-up tick");
    let preload_wall = t0.elapsed();

    let (batch1, driver) = e20_arm(
        driver,
        routing.clone(),
        BatchPolicy::Fixed(1),
        resident,
        burst,
        None,
        0xE20,
    );
    let (adaptive, driver) = e20_arm(
        driver,
        routing.clone(),
        BatchPolicy::Adaptive { cap: 512 },
        resident,
        burst,
        None,
        0xE20,
    );
    let sat_rate = adaptive.completed as f64 / adaptive.wall.as_secs_f64();
    let open_rate = sat_rate * 0.5;
    let (open, driver) = e20_arm(
        driver,
        routing,
        BatchPolicy::Adaptive { cap: 512 },
        resident,
        burst,
        Some(open_rate),
        0xE21,
    );
    let rows = driver
        .merged_state()
        .tables
        .get("accounts")
        .map_or(0, std::collections::BTreeMap::len);
    E20Run {
        batch1,
        adaptive,
        open,
        open_rate,
        rows,
        preload_wall,
    }
}

/// E20: the open-loop serving layer — event-loop ingress with adaptive
/// micro-batching over the worker-thread sharded runtime at 1M resident
/// keys. Saturation arms compare sustained msgs/sec at batch=1 vs the
/// adaptive controller (identical op streams); the open-loop arm measures
/// enqueue→reply latency percentiles (virtual clock over measured tick
/// service) under Poisson arrivals at half the measured saturation rate.
/// On a noisy host read absolute latencies as trend-level; the
/// batch1-vs-adaptive ratio is the headline.
pub fn e20_serving() -> Table {
    let (resident, burst) = (1_000_000i64, 6_000usize);
    let mut rows = Vec::new();
    for w in [1usize, 2, 4] {
        let run = e20_run(w, resident, burst);
        assert_eq!(run.rows as i64, resident, "resident population intact");
        let rate = |a: &E20Arm| a.completed as f64 / a.wall.as_secs_f64();
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        rows.push(vec![
            "sat batch=1".into(),
            format!("{w}"),
            format!("{:.0}", rate(&run.batch1)),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        rows.push(vec![
            "sat adaptive".into(),
            format!("{w}"),
            format!("{:.0}", rate(&run.adaptive)),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        rows.push(vec![
            format!("open-loop @{:.0}/s", run.open_rate),
            format!("{w}"),
            format!("{:.0}", rate(&run.open)),
            ms(run.open.p50_ns),
            ms(run.open.p99_ns),
            ms(run.open.p999_ns),
        ]);
    }
    Table {
        title: "E20 open-loop serving: adaptive micro-batching vs batch=1 \
                at 1M resident keys (event-loop ingress, Poisson arrivals)"
            .into(),
        headers: ["arm", "workers", "msgs/s", "p50 ms", "p99 ms", "p999 ms"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E17: fault-tolerant failover — seeded kill/isolate campaigns against
/// the replicated sharded deployment. Measures recovery time (virtual µs
/// from kill to the router promoting the backup) and verifies the
/// zero-loss / replay-fidelity / linearizability criteria end to end.
pub fn e17_failover() -> Table {
    use hydro_deploy::campaign::{run_campaign, CampaignConfig};
    let mut rows = Vec::new();
    for (shards, kills, isolations) in [(2usize, 1usize, 1usize), (4, 2, 1), (4, 1, 0)] {
        let start = Instant::now();
        let report = run_campaign(&CampaignConfig {
            seed: 17,
            shard_count: shards,
            kills,
            isolations,
            ..CampaignConfig::default()
        });
        let wall = start.elapsed();
        let mean_recovery = if report.recovery_us.is_empty() {
            0
        } else {
            report.recovery_us.iter().sum::<u64>() / report.recovery_us.len() as u64
        };
        rows.push(vec![
            format!("shards={shards} kills={kills} isolations={isolations}"),
            format!("{:.3}", wall.as_secs_f64() * 1e3),
            format!("{}/{}", report.answered, report.submitted),
            format!("{mean_recovery}"),
            format!("{}", report.retries),
            report.passed().to_string(),
        ]);
    }
    Table {
        title: "E17 fault-tolerant failover: seeded kill/isolate campaigns, \
                journal-replay promotion (zero acked-loss + linearizable)"
            .into(),
        headers: [
            "campaign",
            "wall ms",
            "answered",
            "recovery us",
            "retries",
            "all checks",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// One machine-readable benchmark datapoint (see `BENCH_interp.json`).
pub struct BenchRecord {
    /// Workload id, e.g. `e01_covid_seminaive`.
    pub workload: String,
    /// Problem size (population / chain length).
    pub n: i64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Work proxy: flow items moved, alerts emitted, or rows derived.
    pub items_processed: u64,
}

/// The E1/E8 sweeps as structured records, so `scripts/bench_smoke.sh`
/// can write `BENCH_interp.json` and future PRs have a perf trajectory to
/// compare against.
pub fn interp_bench_records() -> Vec<BenchRecord> {
    let mut records = Vec::new();
    let rec = |workload: &str, n: i64, wall: std::time::Duration, items: u64| BenchRecord {
        workload: workload.to_string(),
        n,
        wall_ms: wall.as_secs_f64() * 1e3,
        items_processed: items,
    };

    // E1: the COVID tracker's diagnosed-tick sequence across the three
    // engines. items = alerts emitted. (`e01_covid_seminaive` keeps its
    // PR 1 name but now measures the default incremental engine;
    // `e01_covid_fresh` is the retained fresh-per-tick semi-naive path.)
    for n in [25i64, 50, 100] {
        for (label, mode) in [
            ("e01_covid_seminaive", EvalMode::Incremental),
            ("e01_covid_fresh", EvalMode::FreshSemiNaive),
            ("e01_covid_naive", EvalMode::FreshNaive),
        ] {
            let (wall, alerts) = covid_chain_run(n, mode);
            records.push(rec(label, n, wall, alerts as u64));
        }
    }

    // E15: per-tick wall times of the steady-state workload — the
    // cross-tick incremental win, measured rather than asserted. n is
    // the tick index within each phase; items the resident population.
    let resident = 200i64;
    for (label, mode) in [
        ("e15_steady_incremental", EvalMode::Incremental),
        ("e15_steady_fresh", EvalMode::FreshSemiNaive),
    ] {
        let run = covid_steady_run(resident, 6, 4, mode);
        for (i, d) in run.grow.iter().enumerate() {
            records.push(rec(
                &format!("{label}_grow"),
                i as i64 + 1,
                *d,
                run.people as u64,
            ));
        }
        for (i, d) in run.noop.iter().enumerate() {
            records.push(rec(
                &format!("{label}_noop"),
                i as i64 + 1,
                *d,
                run.people as u64,
            ));
        }
    }

    // E19: steady-state churn — the E15 resident state under a 50/50
    // insert/delete mix. One record per (variant, n): wall is the *median
    // churn tick*, items the resident population, so bench_smoke can
    // hold the counting engine to its ratios (≥5× over unit recompute,
    // within ~2× of the matching insert-only tick).
    for n in [200i64, 2000] {
        for (label, counting, deletes) in [
            ("e19_churn_counting", true, true),
            ("e19_churn_recompute", false, true),
            ("e19_churn_insert_only", true, false),
        ] {
            let run = best_churn_run(n, 24, counting, deletes);
            records.push(rec(label, n, median(&run.ticks), run.people as u64));
        }
    }

    // E16: key-partitioned scale-out on the region-burst keyed workload.
    // n is the shard count (0 = the plain single transducer); items the
    // messages processed across measured ticks.
    {
        let (resident, ticks, batch) = (80_000i64, 20usize, 48usize);
        let (wall, msgs, _) = scaleout_run(resident, ticks, batch, None);
        records.push(rec("e16_scaleout_single", 0, wall, msgs));
        for n in [1usize, 2, 4] {
            let (wall, msgs, _) = scaleout_run(resident, ticks, batch, Some(n));
            records.push(rec("e16_scaleout_sharded", n as i64, wall, msgs));
        }
    }

    // E18: parallel scale-up on worker threads. n is the worker count
    // (0 = single-transducer baseline); items the messages processed.
    // `e18_exchange_*` is the delta-exchange workload (gathered aggregate
    // probed every tick); its baseline is separate since the probe adds
    // work to both sides.
    {
        let (resident, ticks, batch) = (80_000i64, 20usize, 48usize);
        let plain = scaleout_program();
        let (wall, msgs, _) =
            scaleout_run_on(&plain, resident, ticks, batch, ScaleDriver::Single, false);
        records.push(rec("e18_parallel_single", 0, wall, msgs));
        for n in [1usize, 2, 4] {
            let (wall, msgs, _) = scaleout_run_on(
                &plain,
                resident,
                ticks,
                batch,
                ScaleDriver::Parallel(n),
                false,
            );
            records.push(rec("e18_parallel_workers", n as i64, wall, msgs));
        }
        let exchange = exchange_scale_program();
        let (wall, msgs, _) =
            scaleout_run_on(&exchange, resident, ticks, batch, ScaleDriver::Single, true);
        records.push(rec("e18_exchange_single", 0, wall, msgs));
        for n in [2usize, 4] {
            let (wall, msgs, _) = scaleout_run_on(
                &exchange,
                resident,
                ticks,
                batch,
                ScaleDriver::Parallel(n),
                true,
            );
            records.push(rec("e18_exchange_workers", n as i64, wall, msgs));
        }
    }

    // E20: open-loop serving at 1M resident keys. n is the worker count.
    // `e20_sat_*` are the saturation arms (items = messages served; the
    // adaptive/batch1 msgs-per-sec ratio is bench_smoke's gate);
    // `e20_open_p*` records carry the open-loop latency percentile in
    // wall_ms (items = messages served at half the measured saturation
    // rate); `e20_resident_keys` pins the population (items = rows) and
    // carries the preload wall time.
    {
        let (resident, burst) = (1_000_000i64, 6_000usize);
        for w in [1usize, 2, 4] {
            let run = e20_run(w, resident, burst);
            assert_eq!(
                run.rows as i64, resident,
                "E20 resident population must survive the serving arms"
            );
            records.push(rec("e20_sat_batch1", w as i64, run.batch1.wall, run.batch1.completed));
            records.push(rec(
                "e20_sat_adaptive",
                w as i64,
                run.adaptive.wall,
                run.adaptive.completed,
            ));
            for (label, ns) in [
                ("e20_open_p50", run.open.p50_ns),
                ("e20_open_p99", run.open.p99_ns),
                ("e20_open_p999", run.open.p999_ns),
            ] {
                records.push(rec(
                    label,
                    w as i64,
                    std::time::Duration::from_nanos(ns),
                    run.open.completed,
                ));
            }
            records.push(rec(
                "e20_resident_keys",
                w as i64,
                run.preload_wall,
                run.rows as u64,
            ));
        }
    }

    // E17: seeded failover campaigns on the replicated sharded
    // deployment. n is the shard count; items the requests answered —
    // all of them, or the campaign itself fails the run.
    {
        use hydro_deploy::campaign::{run_campaign, CampaignConfig};
        for (n, kills, isolations) in [(2usize, 1usize, 1usize), (4, 2, 1)] {
            let start = Instant::now();
            let report = run_campaign(&CampaignConfig {
                seed: 17,
                shard_count: n,
                kills,
                isolations,
                ..CampaignConfig::default()
            });
            assert!(report.passed(), "E17 campaign failed: {report:?}");
            records.push(rec(
                "e17_failover_campaign",
                n as i64,
                start.elapsed(),
                report.answered as u64,
            ));
        }
    }

    // E8: chain transitive closure, three engines. items = |tc| for the
    // interpreters, operator items moved for the compiled flow.
    for n in [50i64, 100, 200] {
        let run = tc_chain_run(n);
        records.push(rec("e08_tc_compiled", n, run.compiled, run.compiled_items));
        records.push(rec(
            "e08_tc_interp_seminaive",
            n,
            run.seminaive,
            run.tc_rows as u64,
        ));
        records.push(rec("e08_tc_interp_naive", n, run.naive, run.tc_rows as u64));
    }

    // Preflight: full lint-driver cost (all passes, including the
    // reorder-safety proofs) over the E1/E8/E16 program shapes, so the
    // static-analysis budget has a perf trajectory too. n distinguishes
    // the program; items = diagnostics emitted. Warm once, best of 5.
    for (n, program) in [
        (1i64, hydro_core::examples::covid_program_with_vaccines(100)),
        (8, tc_program()),
        (16, scaleout_program()),
    ] {
        let _warm = hydro_analysis::preflight(&program);
        let mut best = std::time::Duration::MAX;
        let mut items = 0u64;
        for _ in 0..5 {
            let start = Instant::now();
            let report = hydro_analysis::preflight(&program);
            best = best.min(start.elapsed());
            items = report.diagnostics.len() as u64;
            assert!(report.passes(), "bench programs must lint clean");
        }
        records.push(rec("preflight_analysis", n, best, items));
    }
    records
}

/// E9: Anna-style KVS throughput scaling with shard threads.
pub fn e09_kvs() -> Table {
    let spec = WorkloadSpec {
        ops: 200_000,
        keys: 10_000,
        zipf_exponent: 0.9,
        write_fraction: 1.0,
        seed: 7,
    };
    let ops = spec.generate();
    let mut rows = Vec::new();
    let mut base_mops = 0.0;
    for shards in [1usize, 2, 4, 8] {
        let kvs = ShardedKvs::new(shards);
        let took = run_workload(&kvs, &ops, shards);
        kvs.shutdown();
        let mops = ops.len() as f64 / took.as_secs_f64() / 1e6;
        if shards == 1 {
            base_mops = mops;
        }
        rows.push(vec![
            shards.to_string(),
            format!("{took:.2?}"),
            format!("{mops:.2}"),
            format!("{:.2}", mops / base_mops),
        ]);
    }
    // Gossip convergence datapoint.
    let mut g = GossipKvs::new(4, GossipConfig::default());
    for k in 0..50 {
        g.put_at((k % 4) as usize, k, k, 0, k);
    }
    g.run_for(200_000);
    rows.push(vec![
        "4 (gossip)".into(),
        format!("{} digests", g.sim.stats().delivered),
        "-".into(),
        format!("converged={}", g.converged()),
    ]);
    Table {
        title: "E9 Anna-style KVS: put throughput vs shards (+gossip convergence)".into(),
        headers: ["shards", "duration", "Mops/s", "scale x"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E10: shopping-cart sealing vs 2PC-coordinated checkout — messages per
/// checkout.
pub fn e10_cart() -> Table {
    let mut rows = Vec::new();
    // Client-side sealing on the deployed cart.
    let mut d = deploy_program(&cart_program(), DeployConfig::default(), |_| {});
    let session = Value::from("s");
    d.client_request("add_item", vec![session.clone(), Value::from("a")]);
    d.client_request("add_item", vec![session.clone(), Value::from("b")]);
    d.run_for(60_000);
    let before = d.sim.stats().sent;
    let manifest = Value::set_of([Value::from("a"), Value::from("b")]);
    d.client_request("checkout", vec![session, manifest]);
    d.run_for(60_000);
    let seal_msgs = d.sim.stats().sent - before;
    let confirms = d
        .external_sends()
        .iter()
        .filter(|(m, _)| m == "checkout_ok")
        .count();
    rows.push(vec![
        "client-seal".into(),
        d.replicas.len().to_string(),
        seal_msgs.to_string(),
        "0".into(),
        format!("{confirms} replicas confirmed"),
    ]);

    // 2PC baseline for the same decision across 3 participants.
    use hydro_deploy::node::NetMsg;
    use hydro_deploy::twopc::{register_tx, Coordinator, Participant};
    let mut sim: Sim<NetMsg> = Sim::new(LinkModel::default(), 4);
    let mut participants = Vec::new();
    for az in 0..3 {
        participants.push(sim.add_node(
            Participant::new(|_, _| true, |_, _| {}),
            DomainPath::new(az, 0, 0),
        ));
    }
    let mut coord = Coordinator::new();
    register_tx(&mut coord, 1, participants.clone(), 0);
    let ledger = coord.ledger();
    let coord_id = sim.add_node(coord, DomainPath::new(9, 0, 0));
    let before = sim.stats().sent;
    sim.send_external(
        coord_id,
        NetMsg::Request {
            request_id: 1,
            mailbox: "checkout".into(),
            row: vec![Value::from("s")],
            reply_to: coord_id,
        },
    );
    sim.run_to_quiescence(10_000);
    let tpc_msgs = sim.stats().sent - before;
    rows.push(vec![
        "2PC".into(),
        "3".into(),
        tpc_msgs.to_string(),
        "2".into(),
        format!("committed={}", ledger.borrow()[&1].committed),
    ]);
    Table {
        title: "E10 checkout: client-side sealing vs 2PC coordination".into(),
        headers: ["design", "replicas", "msgs/checkout", "coord rounds", "outcome"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E11: the monotonicity typechecker over a labeled handler corpus
/// (including the Fig. 4 bug class).
pub fn e11_typecheck() -> Table {
    let mut rows = Vec::new();
    let programs: Vec<(&str, hydro_core::Program, Vec<(&str, bool)>)> = vec![
        (
            "covid (Fig. 3)",
            covid_program(),
            vec![
                ("add_person", true),
                ("add_contact", true),
                ("trace", true),
                ("diagnosed", true),
                ("likelihood", false), // black-box UDF output
                ("vaccinate", false),  // the `:=` of Fig. 3 line 34
            ],
        ),
        (
            "cart (§7.1)",
            cart_program(),
            vec![("add_item", true), ("checkout", false)],
        ),
        (
            "fig4-style buggy merge",
            fig4_program(),
            vec![("toggle", false)], // a "merge" of a negated flag
        ),
    ];
    let mut correct = 0;
    let mut total = 0;
    for (name, program, expectations) in programs {
        let report = classify(&program);
        for (handler, expect_free) in expectations {
            let got = report
                .for_handler(handler)
                .is_some_and(|c| c.coordination_free());
            total += 1;
            if got == expect_free {
                correct += 1;
            }
            rows.push(vec![
                name.to_string(),
                handler.to_string(),
                expect_free.to_string(),
                got.to_string(),
                (got == expect_free).to_string(),
            ]);
        }
    }
    rows.push(vec![
        "TOTAL".into(),
        format!("{total} handlers"),
        String::new(),
        String::new(),
        format!("{correct}/{total} correct"),
    ]);
    Table {
        title: "E11 monotonicity typechecker vs ground-truth labels (Fig. 4)".into(),
        headers: ["program", "handler", "expected free", "classified free", "ok"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// The Fig. 4 bug class: an update presented as a merge whose value is
/// non-monotone (a toggle) — manual reasoning often blesses this; the
/// typechecker must not.
fn fig4_program() -> hydro_core::Program {
    use hydro_core::builder::dsl::*;
    use hydro_core::builder::ProgramBuilder;
    use hydro_core::value::LatticeKind;
    ProgramBuilder::new()
        .table(
            "flags",
            vec![("id", atom()), ("set", lat(LatticeKind::BoolOr))],
            &["id"],
            None,
        )
        .on(
            "toggle",
            &["id"],
            vec![merge_field(
                "flags",
                v("id"),
                "set",
                hydro_core::ast::Expr::Not(Box::new(field("flags", v("id"), "set"))),
            )],
        )
        .build()
}

/// E12: lifting overhead & equivalence — lifted actors vs native runtime;
/// verified-lifting search effort.
pub fn e12_lifting() -> Table {
    use hydro_lift::actors::{bank_actor, lift_actor, ActorRuntime};
    let mut rows = Vec::new();

    // Actor equivalence + relative speed over a deposit storm.
    let class = bank_actor();
    let n_ops = 2_000i64;
    let t0 = Instant::now();
    let mut native = ActorRuntime::new(class.clone());
    native.spawn(1);
    for k in 0..n_ops {
        native.send(1, "deposit", vec![k]);
    }
    native.run(10 * n_ops as usize);
    let native_t = t0.elapsed();

    let t1 = Instant::now();
    let mut lifted = Transducer::new(lift_actor(&class)).unwrap();
    lifted.enqueue_ok("spawn", ints(&[1]));
    lifted.tick().unwrap();
    for k in 0..n_ops {
        lifted.enqueue_ok("Account::deposit", ints(&[1, k]));
        // One message per tick preserves the sequential assignment
        // semantics of the actor (deposits are `:=` reads of a snapshot).
        lifted.tick().unwrap();
    }
    let lifted_t = t1.elapsed();
    let native_balance = native.field(1, "balance").unwrap();
    let lifted_balance = lifted.row("Account_actors", &[Value::Int(1)]).unwrap()[1]
        .as_int()
        .unwrap();
    rows.push(vec![
        "actors: 2k deposits".into(),
        (native_balance == lifted_balance).to_string(),
        format!("{native_t:.2?}"),
        format!("{lifted_t:.2?}"),
        format!(
            "{:.0}x",
            lifted_t.as_secs_f64() / native_t.as_secs_f64().max(1e-12)
        ),
    ]);

    // Verified lifting effort.
    let cases: Vec<(&str, Box<dyn Fn(&[i64]) -> i64>)> = vec![
        ("sum", Box::new(|xs: &[i64]| xs.iter().sum())),
        (
            "filtered 2x sum",
            Box::new(|xs: &[i64]| xs.iter().filter(|x| **x > 0).map(|x| 2 * x).sum()),
        ),
        (
            "count evens",
            Box::new(|xs: &[i64]| xs.iter().filter(|x| *x % 2 == 0).count() as i64),
        ),
        (
            "order-sensitive (must refuse)",
            Box::new(|xs: &[i64]| xs.iter().enumerate().map(|(i, x)| i as i64 * x).sum()),
        ),
    ];
    for (name, f) in cases {
        let t = Instant::now();
        let lift = lift_loop(&*f, 42);
        let took = t.elapsed();
        rows.push(vec![
            format!("lift: {name}"),
            lift.is_some().to_string(),
            lift.as_ref()
                .map_or("-".into(), |l| l.candidates_tried.to_string()),
            lift.as_ref()
                .map_or("-".into(), |l| l.tests_passed.to_string()),
            format!("{took:.2?}"),
        ]);
    }
    Table {
        title: "E12 lifting: actor equivalence + verified-lifting search".into(),
        headers: ["case", "equivalent/lifted", "native t | cands", "lifted t | tests", "overhead/time"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E13: collaborative editing (§1.2/§7.1) — the Logoot CRDT cluster
/// preserves every concurrent keystroke without coordination; the
/// last-writer-wins baseline converges too, but by discarding work.
pub fn e13_collab() -> Table {
    use hydro_collab::baseline::LwwCluster;
    use hydro_collab::{Cluster, CollabConfig};

    let link = LinkModel {
        drop_prob: 0.0,
        ..LinkModel::default()
    };
    let mut rows = Vec::new();
    for editors in [2usize, 3, 5] {
        // Each editor types its own 8-char word concurrently.
        let words: Vec<String> = (0..editors)
            .map(|i| {
                let c = (b'a' + i as u8) as char;
                std::iter::repeat_n(c, 8).collect()
            })
            .collect();
        let typed: String = words.concat();

        let mut crdt = Cluster::new(
            editors,
            CollabConfig {
                link,
                seed: 42,
                gossip_period_us: Some(20_000),
            },
        );
        for (i, w) in words.iter().enumerate() {
            crdt.insert_str(i, 0, w);
        }
        crdt.run_for(5_000_000);
        let crdt_msgs = crdt.sim.stats().sent;
        let crdt_survive = crdt.text(0).len();

        let mut lww = LwwCluster::new(editors, link, 42);
        for (i, w) in words.iter().enumerate() {
            lww.insert_str(i, 0, w);
        }
        lww.run_for(5_000_000);
        let lww_survive = lww.surviving_chars(&typed);

        rows.push(vec![
            editors.to_string(),
            typed.len().to_string(),
            format!("{} ({})", crdt_survive, crdt.converged()),
            format!("{} ({})", lww_survive, lww.converged()),
            crdt_msgs.to_string(),
        ]);
    }

    // Partition tolerance: edits on both sides of a partition all survive
    // after healing — zero coordination messages, pure merges.
    let mut c = Cluster::new(
        4,
        CollabConfig {
            link,
            seed: 7,
            gossip_period_us: Some(20_000),
        },
    );
    c.insert_str(0, 0, "base");
    c.run_for(1_000_000);
    c.partition_at(2);
    c.insert_str(0, 4, "AAAA");
    c.insert_str(3, 4, "BBBB");
    c.run_for(1_000_000);
    let diverged = !c.converged();
    c.heal();
    c.run_for(8_000_000);
    rows.push(vec![
        "partition(4)".into(),
        "12".into(),
        format!("{} ({})", c.text(0).len(), c.converged()),
        "n/a".into(),
        format!("diverged during: {diverged}"),
    ]);

    Table {
        title: "E13 collaborative editing: CRDT (keeps all keystrokes) vs LWW (loses work)"
            .into(),
        headers: [
            "editors",
            "chars typed",
            "crdt survive (conv)",
            "lww survive (conv)",
            "crdt msgs",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E14: adaptive re-optimization (§9.2) — the autoscaler follows a diurnal
/// trace whose demand swings 100× plus a flash crowd, replanning only on
/// sustained drift; the no-hysteresis ablation flaps.
pub fn e14_adaptive() -> Table {
    use hydrolysis::adaptive::{diurnal_trace, AdaptiveConfig, Autoscaler};
    use std::collections::BTreeMap;

    let variants = BTreeMap::from([(
        "api".to_string(),
        vec![ImplVariant {
            name: "compiled".into(),
            service_ms: 8.0,
            needs_gpu: false,
        }],
    )]);
    let targets = hydro_core::facets::TargetSpec {
        default: hydro_core::facets::TargetReq {
            latency_ms: Some(40),
            cost_milli: None,
            processor: None,
        },
        per_handler: Default::default(),
    };

    // 48 half-hour windows over a day; 10 → 1000 rps with a 3× flash crowd
    // at window 30 ("workloads grow and shrink by orders of magnitude").
    let trace = diurnal_trace(48, 10.0, 1000.0, Some(30), 3.0);
    let window_s = 1800.0;

    let run = |config: AdaptiveConfig| -> (Autoscaler, usize, usize) {
        let mut scaler = Autoscaler::new(demo_catalog(), targets.clone(), variants.clone(), config);
        let mut slo_misses = 0;
        let mut checks = 0;
        for (i, &rps) in trace.iter().enumerate() {
            scaler.monitor.observe("api", (rps * window_s) as u64);
            scaler
                .step(i as f64 * window_s, window_s)
                .expect("diurnal trace stays feasible");
            checks += 1;
            match scaler.modeled_latency_ms("api", rps) {
                Some(l) if l <= 40.0 => {}
                _ => slo_misses += 1,
            }
        }
        (scaler, slo_misses, checks)
    };

    let (adaptive, misses, checks) = run(AdaptiveConfig {
        cooldown_s: 1800.0,
        drift_threshold: 0.3,
        ewma_alpha: 0.7,
        headroom: 2.0,
        ..AdaptiveConfig::default()
    });
    let (flappy, _, _) = run(AdaptiveConfig {
        cooldown_s: 0.0,
        drift_threshold: 0.0,
        ..AdaptiveConfig::default()
    });
    let (frozen, frozen_misses, _) = {
        // Ablation 2: plan once at the midnight trough, never adapt.
        let mut scaler = Autoscaler::new(
            demo_catalog(),
            targets.clone(),
            variants.clone(),
            AdaptiveConfig {
                drift_threshold: f64::INFINITY,
                ..AdaptiveConfig::default()
            },
        );
        let mut misses = 0;
        for (i, &rps) in trace.iter().enumerate() {
            scaler.monitor.observe("api", (rps * window_s) as u64);
            scaler.step(i as f64 * window_s, window_s).expect("feasible");
            match scaler.modeled_latency_ms("api", rps) {
                Some(l) if l <= 40.0 => {}
                _ => misses += 1,
            }
        }
        (scaler, misses, 0)
    };

    let mut rows = Vec::new();
    // A few representative windows from the adaptive run.
    for &i in &[0usize, 12, 24, 30, 47] {
        let machines_at = adaptive
            .replans
            .iter().rfind(|r| r.at_s <= i as f64 * window_s)
            .map_or(0, |r| r.machines.1);
        rows.push(vec![
            format!("hour {:>2}", i / 2),
            format!("{:.0} rps", trace[i]),
            machines_at.to_string(),
            String::new(),
            String::new(),
        ]);
    }
    rows.push(vec![
        "adaptive (drift 30%, 30min cooldown, 2x headroom)".into(),
        String::new(),
        String::new(),
        adaptive.replans.len().to_string(),
        format!("{misses}/{checks}"),
    ]);
    rows.push(vec![
        "ablation: no hysteresis".into(),
        String::new(),
        String::new(),
        flappy.replans.len().to_string(),
        "-".into(),
    ]);
    rows.push(vec![
        "ablation: plan once at trough".into(),
        String::new(),
        String::new(),
        frozen.replans.len().to_string(),
        format!("{frozen_misses}/{checks}"),
    ]);
    Table {
        title: "E14 adaptive reoptimization over a 100x diurnal trace (+3x flash crowd)".into(),
        headers: ["window/policy", "offered", "machines", "replans", "SLO misses"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Name → runner for every experiment, in id order.
///
/// The report binary iterates this so tables stream as they finish and
/// individual experiments can be re-run by id.
pub fn experiment_registry() -> Vec<(&'static str, fn() -> Table)> {
    vec![
        ("e01", e01_covid as fn() -> Table),
        ("e02", e02_coordination),
        ("e03", e03_calm),
        ("e04", e04_chestnut),
        ("e05", e05_availability),
        ("e06", e06_target),
        ("e07", e07_collectives),
        ("e08", e08_flow),
        ("e09", e09_kvs),
        ("e10", e10_cart),
        ("e11", e11_typecheck),
        ("e12", e12_lifting),
        ("e13", e13_collab),
        ("e14", e14_adaptive),
        ("e15", e15_steady),
        ("e16", e16_scaleout),
        ("e17", e17_failover),
        ("e18", e18_parallel),
        ("e19", e19_churn),
        ("e20", e20_serving),
    ]
}

/// Run every experiment and return the tables in order.
pub fn all_experiments() -> Vec<Table> {
    experiment_registry().into_iter().map(|(_, run)| run()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_rows() {
        // Smoke: the smaller experiments run inside the test budget.
        for table in [e03_calm(), e05_availability(), e06_target(), e10_cart(), e11_typecheck()] {
            assert!(!table.rows.is_empty(), "{} has rows", table.title);
            assert!(!table.render().is_empty());
        }
    }

    #[test]
    fn typechecker_scores_perfectly_on_the_corpus() {
        let t = e11_typecheck();
        let last = t.rows.last().unwrap();
        assert!(last[4].contains("9/9"), "got {:?}", last[4]);
    }

    #[test]
    fn calm_divergence_is_one_sided() {
        let t = e03_calm();
        assert_eq!(t.rows[0][3], "0%", "monotone workload never diverges");
        assert_ne!(t.rows[1][3], "0%", "non-monotone workload diverges");
    }

    #[test]
    fn standard_orders_helper_reexported() {
        assert!(hydro_analysis::standard_orders(3).len() >= 3);
    }
}
