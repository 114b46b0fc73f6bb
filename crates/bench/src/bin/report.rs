//! Regenerate every experiment table.
//!
//! Usage: `cargo run --release -p hydro-bench --bin report \
//!     [--json] [--bench-json[=PATH]] [e01 e07 ...]`
//!
//! Tables stream as each experiment finishes, with wall-clock time per
//! experiment. Passing experiment ids (e.g. `e04 e09`) runs only those.
//! With `--json`, a machine-readable dump follows the tables so
//! quoted numbers can be traced to a concrete run. With
//! `--bench-json[=PATH]`, the E1/E8 interpreter sweeps are re-run as
//! structured records and written to PATH (default `BENCH_interp.json`)
//! as `[{workload, n, wall_ms, items_processed}, ...]` — the perf
//! trajectory `scripts/bench_smoke.sh` tracks across PRs.

use hydro_bench::{experiment_registry, interp_bench_records, Table};
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut bench_json: Option<String> = None;
    let mut selected: Vec<&str> = Vec::new();
    let known: Vec<&str> = experiment_registry().iter().map(|(id, _)| *id).collect();
    for a in &args {
        if a == "--json" {
            json = true;
        } else if a == "--bench-json" {
            bench_json = Some("BENCH_interp.json".to_string());
        } else if let Some(path) = a.strip_prefix("--bench-json=") {
            bench_json = Some(path.to_string());
        } else if a.starts_with('-') {
            eprintln!("unknown flag {a:?} (expected --json or --bench-json[=PATH])");
            std::process::exit(2);
        } else if known.contains(&a.as_str()) {
            selected.push(a);
        } else {
            eprintln!("unknown experiment id {a:?} (known: {})", known.join(" "));
            std::process::exit(2);
        }
    }

    let mut dump = Vec::new();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (id, run) in experiment_registry() {
        if !selected.is_empty() && !selected.contains(&id) {
            continue;
        }
        let t0 = Instant::now();
        let table: Table = run();
        writeln!(out, "{}[{id} regenerated in {:.2?}]\n", table.render(), t0.elapsed())
            .expect("stdout writable");
        out.flush().expect("stdout flushable");
        if json {
            dump.push(serde_json::json!({
                "id": id,
                "title": table.title,
                "headers": table.headers,
                "rows": table.rows,
            }));
        }
    }
    if json {
        writeln!(out, "{}", serde_json::to_string_pretty(&dump).expect("serializable"))
            .expect("stdout writable");
    }

    if let Some(path) = bench_json {
        let t0 = Instant::now();
        let records: Vec<serde_json::Value> = interp_bench_records()
            .into_iter()
            .map(|r| {
                serde_json::json!({
                    "workload": r.workload,
                    "n": r.n,
                    "wall_ms": (r.wall_ms * 1000.0).round() / 1000.0,
                    "items_processed": r.items_processed,
                })
            })
            .collect();
        let body = serde_json::to_string_pretty(&records).expect("serializable");
        std::fs::write(&path, body + "\n").expect("bench json writable");
        writeln!(out, "[interp bench records written to {path} in {:.2?}]", t0.elapsed())
            .expect("stdout writable");
    }
}
