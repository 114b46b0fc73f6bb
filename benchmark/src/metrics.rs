//! The benchmark's contract: workloads, metrics, units, bounds. The root
//! `BENCHMARK.json` is this file printed (`run.sh --emit-manifest`), and
//! a test keeps the two equal.

/// `--seconds` the driver passes.
pub const RUN_SECONDS: u64 = 10;

/// Name and one-line reason.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "kv_read",
        "95% reads on Zipf(0.99) keys through serve loop + 2 serial shards: serve/interp/shard do the work, eval none; hot keys repeat",
    ),
    (
        "kv_write",
        "same stack, 65% writes on uniform keys: commit, journal and compaction stalls set the tail; a read-path gain that taxes writes shows here",
    ),
    (
        "view_churn",
        "one bare transducer, contact clusters come and go: incremental, counting, aggregate and DRed view maintenance dominate; serve/shard/deploy idle",
    ),
    (
        "sim_failover",
        "kv_write mix through the replicated sim deployment with a primary killed half way: the only workload where deploy and net run; latency is virtual",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, by layer. README.md says which end-to-end metric
/// each should move and on which workload.
pub const PER_LAYER: [PerLayer; 67] = [
    // hydro_lang / hydro_analysis -> setup_s, everywhere.
    m("lang.parse_us", "us", "lower"),
    m("lang.src_bytes", "count", "lower"),
    m("analysis.preflight_us", "us", "lower"),
    m("analysis.partition_us", "us", "lower"),
    m("analysis.diagnostics", "count", "lower"),
    // hydro_core::interp -> kv_* and sim_failover.
    m("interp.core_build_us", "us", "lower"),
    m("interp.instantiate_us", "us", "lower"),
    m("interp.preload_ops_s", "1/s", "higher"),
    m("interp.enqueue_ns_per_op", "ns", "lower"),
    m("interp.tick_us_b1", "us", "lower"),
    m("interp.us_per_msg_b256", "us", "lower"),
    m("interp.noop_tick_us", "us", "lower"),
    m("interp.slow_ticks", "count", "lower"),
    m("interp.tick_max_us", "us", "lower"),
    m("interp.journal_tick_share", "ratio", "lower"),
    m("interp.journal_delta_us", "us", "lower"),
    m("interp.journal_rows_per_tick", "count", "lower"),
    m("interp.checkpoint_us", "us", "lower"),
    m("interp.restore_us", "us", "lower"),
    m("interp.replies_per_op", "ratio", "higher"),
    // hydro_core::eval -> view_churn only.
    m("eval.insert_tick_us", "us", "lower"),
    m("eval.delete_tick_us", "us", "lower"),
    m("eval.read_tick_us", "us", "lower"),
    m("eval.noop_tick_us", "us", "lower"),
    m("eval.us_per_msg", "us", "lower"),
    m("eval.resident_scaling", "ratio", "lower"),
    m("eval.read_resident_scaling", "ratio", "lower"),
    m("eval.rows_out_per_tick", "count", "higher"),
    // hydro_core::shard -> throughput_ops_s on kv_*.
    m("shard.serial_tick_us_b1", "us", "lower"),
    m("shard.serial_us_per_msg_b256", "us", "lower"),
    m("shard.serial_overhead_share", "ratio", "lower"),
    m("shard.parallel_tick_us_b1", "us", "lower"),
    m("shard.parallel_us_per_msg_b256", "us", "lower"),
    m("shard.parallel_speedup_b256", "ratio", "higher"),
    m("shard.skew", "ratio", "lower"),
    // hydro_core::serve -> kv_* only.
    m("serve.self_ns_per_op", "ns", "lower"),
    m("serve.self_share", "ratio", "lower"),
    m("serve.queue_wait_mean_us", "us", "lower"),
    m("serve.ticks", "count", "lower"),
    m("serve.mean_batch", "count", "higher"),
    m("serve.paced_mean_batch", "count", "lower"),
    m("serve.max_batch", "count", "higher"),
    m("serve.budget_peak", "count", "higher"),
    m("serve.max_queue_depth", "count", "lower"),
    m("serve.rejected", "count", "lower"),
    m("serve.latency_p999_us", "us", "lower"),
    m("serve.latency_max_us", "us", "lower"),
    m("serve.latency_p99_us_2x", "us", "lower"),
    m("serve.rejected_2x", "count", "lower"),
    m("gen.ns_per_op", "ns", "lower"),
    // hydro_deploy / hydro_net -> sim_failover only.
    m("deploy.recovery_us", "us", "lower"),
    m("deploy.msgs_per_op", "count", "lower"),
    m("deploy.sim_events_per_op", "count", "lower"),
    m("deploy.repl_hold_us", "us", "lower"),
    m("deploy.repl_wall_share", "ratio", "lower"),
    m("deploy.retries", "count", "lower"),
    m("deploy.shed", "count", "lower"),
    m("deploy.gave_up", "count", "lower"),
    m("deploy.lost_acks", "count", "lower"),
    m("deploy.disrupted_ops", "count", "lower"),
    m("deploy.latency_max_us", "us", "lower"),
    m("net.step_ns", "ns", "lower"),
    m("net.delivered", "count", "lower"),
    m("net.timers_fired", "count", "lower"),
    m("net.dropped_by_dead", "count", "lower"),
    // The benchmark itself.
    m("trace.overhead_share", "ratio", "lower"),
    m("trace.spans", "count", "lower"),
];

/// The text of the root `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s += &format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n");
    }
    s += "  ],\n  \"end_to_end\": [\n";
    for (i, e) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        s += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            e.name, e.unit, e.better, e.bound
        );
    }
    s += "  ],\n  \"per_layer\": [\n";
    for (i, p) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            p.name, p.unit, p.better
        );
    }
    s += "  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(PER_LAYER.iter().map(|p| p.name))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower"));
    }

    #[test]
    fn root_manifest_is_this_file_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with: benchmark/run.sh --emit-manifest > BENCHMARK.json"
        );
    }
}
