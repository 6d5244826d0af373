#!/usr/bin/env bash
# Gate for the benchmark itself: lints and unit tests of the package, build
# profile parity with the repository, then two full sets of runs of the same
# code, which must agree within the benchmark's own bounds.
#
#   benchmark/check.sh [--seed N] [--quick]     (--quick stops before the sets)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
quick=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --quick) quick=1; shift ;;
        *) echo "usage: check.sh [--seed N] [--quick]" >&2; exit 2 ;;
    esac
done
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

echo "==> clippy -D warnings (benchmark package)"
cargo clippy --offline --all-targets --manifest-path "$here/Cargo.toml" -- -D warnings

echo "==> unit tests (benchmark package)"
cargo test --offline --quiet --manifest-path "$here/Cargo.toml"

echo "==> profile parity with the repository manifest"
# The benchmark must measure the code the way the repository builds it.
release_profile() {
    awk '/^\[profile\.release\]/ {on=1; next} /^\[/ {on=0} on' "$1" \
        | grep -E '^(lto|codegen-units|debug)[[:space:]]*=' | tr -d '[:space:]' | sort
}
if ! diff <(release_profile "$here/../Cargo.toml") <(release_profile "$here/Cargo.toml"); then
    echo "FAIL: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 1
fi

echo "==> smoke set (every code path, tiny sizes)"
mkdir -p "$here/out"
"$here/run.sh" --smoke --seed "$seed" --out "$here/out/set-smoke.json" > "$here/out/smoke.log" 2>&1 \
    || { cat "$here/out/smoke.log"; echo "FAIL: smoke set" >&2; exit 1; }

[ "$quick" = 1 ] && { echo "==> OK (quick)"; exit 0; }

echo "==> two full sets, seed $seed"
"$here/run.sh" --workload all --seed "$seed" --out "$here/out/set-a.json"
"$here/run.sh" --workload all --seed "$seed" --out "$here/out/set-b.json"

echo "==> compare"
"$here/run.sh" --compare "$here/out/set-a.json" "$here/out/set-b.json"
echo "==> OK: two sets of the same code agree within the bounds"
