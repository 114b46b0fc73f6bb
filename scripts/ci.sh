#!/usr/bin/env bash
# The full gate, one command: release build, full workspace test suite,
# the named differential suites, examples, lint wall, the benchmark's own
# tests and a short benchmark run, and the perf smoke with its regression
# diff against the committed BENCH_interp.json. (Tier-1, what the driver
# runs, is only `cargo build --release && cargo test -q`: the facade
# package's tests, of which `tests/workspace_smoke.rs` is the one that
# reaches the evaluator.)
#
# Usage: scripts/ci.sh [--no-bench]
#   --no-bench   skip the perf smoke (e.g. on noisy shared machines)

set -euo pipefail

cd "$(dirname "$0")/.."

run_bench=1
for arg in "$@"; do
  case "$arg" in
    --no-bench) run_bench=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release =="
cargo build --release --workspace

echo
echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo
echo "== seeded fault-injection campaigns =="
# The randomized failover campaigns are part of the workspace suite
# above; run them by name too so a campaign failure is unmissable in CI
# output rather than buried in the workspace wall.
cargo test -q -p hydro-deploy --test fault_campaigns
cargo test -q -p hydro-deploy campaign

echo
echo "== deletion-maintenance differential suites =="
# The counting/DRed engine's pinning tests, by name, so a maintenance
# divergence is unmissable in CI output: three-way (counting vs
# unit-recompute vs fresh) proptests over graph churn, aggregate-group
# churn, and rollback interleavings; the DRed alternative-derivation
# scenario; SIP gating on the static reorder proof (a unit test of
# `eval/plan.rs`, matched by name); the N∈{1,2,4} sharded churn runs; and
# the persistent-index pins — the steady-state work counts (no index built
# after warm-up across 200 churn ticks of reads and compactions, scan
# order through a renumbered index included, and compactions bounded by
# the deletes) and the renumbering compaction's unit and property tests in
# `eval/{relation,scan_cache}.rs`; the commit-watermark pins — the old /
# new / mid views and `commit` against a model, and probes through each
# view against a fresh index; the stateful-UDF call order, which every
# engine must share now that a fresh tick is the incremental tick over a
# rebuilt state; and the golden run digests, which pin every engine's and
# driver's replies, sends (in order), warnings and recovery journal on
# fixed scripts, a restore halfway through included.
cargo test -q -p hydro-core --test seminaive_differential -- \
  counting_dred_agree_with_recompute_and_fresh \
  counting_agg_groups_agree_with_recompute_and_fresh \
  bank_counting_agrees_with_recompute_and_fresh \
  dred_keeps_rows_with_alternative_derivations \
  steady_state_churn_builds_no_index_and_keeps_scan_order \
  udf_call_order_identical_across_engines
cargo test -q -p hydro-core --lib sip_and_check_queries_are_gated_on_reorder_safety
cargo test -q -p hydro-core --lib -- \
  compact_returns_the_old_to_new_position_table \
  compaction_preserves_rows_order_and_positions \
  compaction_remaps_posting_lists_without_rebuilding \
  remapped_indexes_equal_fresh_ones \
  views_read_the_old_the_new_and_the_surviving_state \
  views_and_commit_match_a_model \
  probes_read_every_view_and_commit_drops_exactly_the_tombstones
cargo test -q -p hydro --test golden_runs -- \
  contacts_runs_match_their_golden_digests \
  accounts_runs_match_their_golden_digests
cargo test -q -p hydro-analysis --test sharded_differential sharded_churn_matches_single

echo
echo "== simulated deployments: golden runs, event storage, promotion =="
# The simulated cluster's pins, by name: the golden deployment digests
# (replies with their virtual times, network and router counters of a
# replicated covid deployment and of a sharded failover); the simulator's
# storage staying flat while events run (live heap measured by a counting
# allocator); and promotion, which consumes the backup's recovery log into
# the replacement and answers a retry from the moved served cache.
cargo test -q -p hydro --test golden_deployments
cargo test -q -p hydro-net --test event_storage
cargo test -q -p hydro-core --test journal_replay \
  consuming_the_log_rebuilds_what_restore_and_the_reference_hold
cargo test -q -p hydro-deploy --lib \
  retry_after_promotion_gets_the_served_reply_without_reexecuting

echo
echo "== serving-layer differential suites =="
# The open-loop serving loop's pinning tests, by name, so a batching
# divergence is unmissable in CI output: the loop-vs-replay differential
# over the serial and parallel drivers at N∈{1,2,4}, the batch-split
# invariance proptest for the serialized single-entry shape, and the
# router-side bounded-ingress backpressure contract. Then the sharded
# driver's own suite: a panicking UDF fails a tick alike on inline and
# worker-thread shards (a watchdog turns a hang into a failure), and
# `run_to_quiescence` replays a cross-shard cascade like one node.
cargo test -q -p hydro-analysis --test serve_batching -- \
  serving_loop_matches_batch_replay \
  batch_splits_invisible_to_serialized_program \
  backpressure_rejects_at_queue_cap_with_distinct_counter
cargo test -q -p hydro-deploy --test ingress_backpressure
cargo test -q -p hydro --test shard_drivers

echo
echo "== parallel-driver determinism tripwire =="
# Run the sharded differential suite (single vs serial vs worker-thread
# driver) and the serving-layer suite (whose runs are fully determined
# by ServiceModel::Fixed) twice each, and diff the normalized outputs.
# The vendored proptest harness seeds each test's RNG from its name, so
# both runs generate IDENTICAL op sequences: any divergence between the
# two runs — one failing, or failing differently — is a
# thread-scheduling leak in the parallel driver (a race reaching an
# observable output), not a test-input difference. Wall-clock lines are
# stripped before the diff.
det_a="$(mktemp)"
det_b="$(mktemp)"
trap 'rm -f "$det_a" "$det_b"' EXIT
det_failed=0
for out in "$det_a" "$det_b"; do
  {
    cargo test -q -p hydro-analysis --test sharded_differential 2>&1 || det_failed=1
    cargo test -q -p hydro-analysis --test serve_batching 2>&1 || det_failed=1
  } | sed -E 's/finished in [0-9.]+s//; /^\s*(Compiling|Finished|Running)/d' \
    >"$out"
done
if ! diff -u "$det_a" "$det_b"; then
  echo "identically-seeded parallel differential runs diverged:" >&2
  echo "the worker-thread driver leaked scheduling nondeterminism" >&2
  exit 1
fi
if [[ "$det_failed" == 1 ]]; then
  cat "$det_a"
  echo "sharded differential suite failed under the determinism tripwire" >&2
  exit 1
fi
rm -f "$det_a" "$det_b"

echo
echo "== examples (catch example rot) =="
# Run the examples that exercise the public API end-to-end; each must
# exit 0. Output is captured and only shown on failure.
for ex in quickstart kvs_demo deployment_planner; do
  echo "-- example: $ex"
  if ! out="$(cargo run --release -p hydro --example "$ex" 2>&1)"; then
    echo "$out"
    echo "example $ex failed" >&2
    exit 1
  fi
done

echo
echo "== preflight lint over examples/*.hydro =="
# Lint every textual HydroLogic program; any error-severity diagnostic
# fails CI (warnings/infos are allowed). Run TWICE and diff the reports:
# analysis output is sorted canonically (diag::sort_diagnostics), so any
# divergence is nondeterminism in an analysis pass. Capture stdout only —
# cargo's stderr compile-progress lines differ between runs.
pre_a="$(mktemp)"
pre_b="$(mktemp)"
trap 'rm -f "$pre_a" "$pre_b"' EXIT
for out in "$pre_a" "$pre_b"; do
  if ! cargo run --release -p hydro --example preflight -- examples/*.hydro >"$out"; then
    cat "$out"
    echo "preflight found error-severity diagnostics (or failed to parse an example)" >&2
    exit 1
  fi
done
if ! diff -u "$pre_a" "$pre_b"; then
  echo "preflight reports diverged between identical runs:" >&2
  echo "an analysis pass leaked nondeterministic ordering" >&2
  exit 1
fi
rm -f "$pre_a" "$pre_b"
# JSON mode must stay parseable for machine consumers (spot-check shape).
if ! cargo run --release -p hydro --example preflight -- --json examples/*.hydro \
    | grep -q '^\[{"file":'; then
  echo "preflight --json did not produce the expected JSON array" >&2
  exit 1
fi

echo
echo "== benchmark package: its tests, and one short workload =="
# `benchmark/` is a workspace of its own that the commands above do not
# see. Its tests cover the generators, oracle and statistics; the short
# `view_churn` run compiles the adapter against the current crates and
# checks every reply (a signature change or a wrong reply fails it), and
# the short `sim_failover` run checks the replicated deployment's oracle:
# no acknowledged write lost, and the killed primary's backup promoted.
# Judged by exit code only — these runs are no timing gate.
(cd benchmark && cargo test --offline -q)
bash benchmark/run.sh --workload view_churn --seconds 2 >/dev/null
bash benchmark/run.sh --workload sim_failover --seconds 1 >/dev/null

echo
echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$run_bench" == 1 ]]; then
  echo
  echo "== perf smoke (diff vs committed BENCH_interp.json) =="
  # Bench into a scratch file so CI never dirties the committed baseline;
  # the smoke script prints per-workload speedup/REGRESSION lines.
  tmp="$(mktemp)"
  trap 'rm -f "$tmp"' EXIT
  cp BENCH_interp.json "$tmp"
  scripts/bench_smoke.sh "$tmp" | tee /tmp/bench_smoke_ci.txt
  if grep -q "REGRESSION" /tmp/bench_smoke_ci.txt; then
    echo
    echo "perf smoke found REGRESSION lines (see above)" >&2
    exit 1
  fi
fi

echo
echo "ci.sh: all green"
