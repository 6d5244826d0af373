#!/usr/bin/env bash
# The repository benchmark: builds the benchmark package offline, then runs it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke] [--out FILE]
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --print-manifest
#
# With `--workload NAME` the last line of standard output is the JSON result
# BENCHMARK.json describes. Build messages go to standard error.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the current directory;
# this script stays there, so the same path finds the binary.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# The header of every output: commit, compiler (cores and seed are added by
# the program).
export UNIZK_BENCH_COMMIT="${UNIZK_BENCH_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export UNIZK_BENCH_RUSTC="${UNIZK_BENCH_RUSTC:-$(rustc -V 2>/dev/null || echo unknown)}"
export UNIZK_BENCH_OUT_DIR="${UNIZK_BENCH_OUT_DIR:-$here/out}"
exec "$CARGO_TARGET_DIR/release/unizk-benchmark" "$@"
