#!/usr/bin/env bash
# Build the benchmark and run it. See README.md.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in this process; the last line of standard output
#       is the JSON result (the form the driver in BENCHMARK.json uses)
#   run.sh [--seed N] [--seconds S] [--trace]
#       every workload, each in a process of its own
#   run.sh --check-repeat
#       the whole set twice on one build, compared pair by pair
#   run.sh --emit-manifest
#       print the text of the root BENCHMARK.json
#
# Run it from anywhere; it does not change directory, so a relative
# CARGO_TARGET_DIR keeps meaning what the caller meant.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# By default share the repository's target directory, so the crates the
# root build already compiled are not compiled again.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
export HYDRO_BENCHMARK_HOME="$here"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/hydro-benchmark" "$@"
