//! The repository's benchmark: four workloads that take a `.hydro` text
//! to checked replies, with end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See README.md.

mod arms;
mod churn;
mod clock;
mod common;
mod failover;
mod gen;
mod kv;
mod metrics;
mod model;
mod stats;
mod sut;
mod trace;

use common::{Outcome, RunCfg};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_repeat: bool,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        check_repeat: false,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check-repeat" => a.check_repeat = true,
            "--emit-manifest" => a.emit_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn home() -> PathBuf {
    std::env::var_os("HYDRO_BENCHMARK_HOME")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Run one workload in this process and print its result; the last line
/// of standard output is the JSON object the driver reads.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        home: home(),
    };
    let mut tracer = trace::Tracer::new(cfg.trace);
    let mut outcome: Outcome = match workload {
        "kv_read" => kv::run(&kv::KV_READ, &cfg, &mut tracer),
        "kv_write" => kv::run(&kv::KV_WRITE, &cfg, &mut tracer),
        "view_churn" => churn::run(&cfg, &mut tracer),
        "sim_failover" => failover::run(&cfg, &mut tracer),
        other => {
            eprintln!(
                "unknown workload {other}; one of {:?}",
                WORKLOADS.map(|w| w.0)
            );
            return ExitCode::from(2);
        }
    };
    if cfg.trace {
        outcome.put("trace.spans", tracer.len() as f64);
        let path = cfg.home.join("out").join(format!("trace-{workload}.json"));
        match tracer.write_json(&path, workload, cfg.seed) {
            Ok(()) => println!("# trace: {} spans in {}", tracer.len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    // Every metric of the mode must be there; a per-layer metric whose
    // layer does no work on this workload reads 0.
    let defs: Vec<(&str, &str)> = if cfg.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let measured: BTreeMap<&str, f64> = outcome.metrics.iter().copied().collect();
    for (name, _) in &outcome.metrics {
        assert!(
            defs.iter().any(|(n, _)| n == name),
            "metric {name} is not in the list"
        );
    }
    let t = outcome.tally;
    let correct = t.failed() == 0 && outcome.violations.is_empty();
    println!(
        "# workload {workload} seed {} seconds {} trace {} nproc {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        nproc()
    );
    let walls: Vec<String> = outcome
        .walls
        .iter()
        .map(|(part, s)| format!("{part} {s:.2}"))
        .collect();
    println!("# wall seconds: {}", walls.join(", "));
    for note in &outcome.notes {
        println!("# {note}");
    }
    for v in &outcome.violations {
        println!("# VIOLATION {v}");
    }
    println!(
        "# failed_share {} attempted {} replied {} rejected {} wrong {} unanswered {}",
        t.failed_share(),
        t.attempted,
        t.replied,
        t.rejected,
        t.wrong,
        t.unanswered
    );
    let mut json = Vec::new();
    for (name, unit) in &defs {
        let value = match measured.get(name) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            None => panic!("workload {workload} did not report {name}"),
        };
        println!("metric {workload} {name} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed() + outcome.violations.len() as u64,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's metrics by name, and whether it exited cleanly.
struct Child {
    metrics: BTreeMap<String, f64>,
    failed_share: f64,
    ok: bool,
}

impl Child {
    /// A metric's value; not-a-number if the run did not print it.
    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Run one workload in a process of its own and echo what it prints.
fn spawn(workload: &str, args: &Args, trace: bool) -> Child {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .env("HYDRO_BENCHMARK_HOME", home())
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start the workload's process");
    let text = String::from_utf8_lossy(&output.stdout);
    let mut child = Child {
        metrics: BTreeMap::new(),
        failed_share: f64::NAN,
        ok: output.status.success(),
    };
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", _, name, value, _unit] => {
                println!("{line}");
                child
                    .metrics
                    .insert((*name).to_string(), value.parse().unwrap_or(f64::NAN));
            }
            ["#", "failed_share", share, ..] => {
                println!("{line}");
                child.failed_share = share.parse().unwrap_or(f64::NAN);
            }
            ["#", ..] => println!("{line}"),
            _ => {}
        }
    }
    child
}

/// Every workload, each in its own process: untraced, and traced too
/// when asked. Returns the results by (workload, traced).
fn run_set(args: &Args, traced: &[&str]) -> (BTreeMap<(String, bool), Child>, bool) {
    let mut all = BTreeMap::new();
    let mut ok = true;
    for (w, _) in WORKLOADS {
        let c = spawn(w, args, false);
        ok &= c.ok;
        all.insert((w.to_string(), false), c);
        if traced.contains(&w) {
            let c = spawn(w, args, true);
            ok &= c.ok;
            all.insert((w.to_string(), true), c);
        }
    }
    (all, ok)
}

/// Two sets of runs of the same build: every end-to-end pair must agree
/// within the metric's bound, and what runs on a virtual clock or counts
/// protocol events must repeat exactly.
fn check_repeat(args: &Args) -> ExitCode {
    const EXACT: [(&str, &str, bool); 6] = [
        ("sim_failover", "latency_p50_us", false),
        ("sim_failover", "latency_p99_us", false),
        ("sim_failover", "deploy.recovery_us", true),
        ("sim_failover", "deploy.msgs_per_op", true),
        ("sim_failover", "deploy.retries", true),
        ("sim_failover", "deploy.lost_acks", true),
    ];
    println!("# first set");
    let (first, ok1) = run_set(args, &["sim_failover"]);
    println!("# second set");
    let (second, ok2) = run_set(args, &["sim_failover"]);
    let mut bad = !(ok1 && ok2);
    println!("# repeat: workload metric first second relative-difference verdict");
    for (w, _) in WORKLOADS {
        let (a, b) = (
            &first[&(w.to_string(), false)],
            &second[&(w.to_string(), false)],
        );
        for m in END_TO_END {
            let (x, y) = (a.value(m.name), b.value(m.name));
            let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            // A run that printed no value gives not-a-number, which is
            // within no bound.
            let within = diff <= m.bound;
            let verdict = if within { "within" } else { "unresolved" };
            bad |= !within;
            println!("repeat {w} {} {x} {y} {diff:.4} {verdict}", m.name);
        }
        if a.failed_share != 0.0 || b.failed_share != 0.0 {
            println!(
                "repeat {w} failed_share {} {} not-zero",
                a.failed_share, b.failed_share
            );
            bad = true;
        }
    }
    for (w, name, traced) in EXACT {
        let x = first[&(w.to_string(), traced)].value(name);
        let y = second[&(w.to_string(), traced)].value(name);
        let verdict = if x == y { "equal" } else { "DIFFERENT" };
        bad |= x != y;
        println!("repeat-exact {w} {name} {x} {y} {verdict}");
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--check-repeat]"
            );
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some(w) = &args.workload {
        return run_one(w, &args);
    }
    if args.check_repeat {
        return check_repeat(&args);
    }
    let traced: Vec<&str> = if args.trace {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        Vec::new()
    };
    if run_set(&args, &traced).1 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
