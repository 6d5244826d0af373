#!/usr/bin/env bash
# Tier-1 verification gate for the UniZK reproduction.
#
# The workspace is hermetic (no registry dependencies — see DESIGN.md §6),
# so everything runs with --offline: if a build reaches for the network,
# that is itself a policy violation and the gate fails.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> vector-row codegen gate (no call inside the AVX-512 Poseidon and Poseidon2 kernels)"
# The vector rows of crates/hash/src/packed/avx512.rs (Goldilocks) and
# crates/hash/src/packed/avx512/koalabear.rs are fast only if every
# intrinsic is inlined into the #[target_feature] entry points, two per
# field. One helper left without the attribute turns each intrinsic into an
# out-of-line call through memory — six times slower than the array rows,
# with every test green — and a state that does not stay in registers or on
# the kernel's own stack shows up as a memcpy; the release binary is the
# only witness. The check reads the code, not the CPU: it holds on hosts
# without AVX-512 too.
if ! command -v objdump > /dev/null; then
    echo "skipped: objdump not found"
elif [ "$(uname -m)" != "x86_64" ]; then
    echo "skipped: not an x86-64 build, the vector rows are not compiled"
else
    kernels="$(objdump -d -C --no-show-raw-insn target/release/contract \
        | awk '/^[0-9a-f]+ <.*packed::avx512::(permute_soa|nonce_row|koalabear::permute_states|koalabear::squeeze_row)[^:]*>:$/ { show = 1 } /^$/ { show = 0 } show')"
    entries="$(grep -c '^[0-9a-f]* <' <<< "$kernels" || true)"
    if [ "$entries" -lt 4 ]; then
        echo "FAIL: expected packed::avx512::{permute_soa, nonce_row, koalabear::permute_states, koalabear::squeeze_row}" \
             "in target/release/contract, found $entries"
        exit 1
    fi
    if grep -E '[[:space:]]call' <<< "$kernels" | head -5 | grep .; then
        echo "FAIL: a call inside a vector kernel (first ones above): some function on the vector path lacks" \
             "#[target_feature(enable = \"avx512f\")] or is not #[inline(always)] glue, or a state is copied through memcpy"
        exit 1
    fi
    echo "ok: $entries kernels, $(grep -c 'zmm' <<< "$kernels") zmm instructions, no call"
fi

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo clippy --all-targets --offline (-D warnings + pedantic subset)"
cargo clippy --all-targets --offline -- -D warnings \
    -D clippy::needless_pass_by_value \
    -D clippy::cast_possible_truncation \
    -D clippy::redundant_clone \
    -D clippy::semicolon_if_nothing_returned

echo "==> cargo doc --workspace --no-deps --offline (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> schedule lint (all workloads + explore specs)"
./target/release/lint --quiet

echo "==> cost/protocol rule pass + static-bound check (C*/P* over every target)"
# Scope the gate to the C (cost-envelope) and P (protocol-soundness)
# families, then simulate every target and require its cycle count to
# land inside the static envelope — the release-mode version of the
# debug assertion in Simulator::run.
./target/release/lint --quiet --rules 'C*,P*' --check-bounds

echo "==> DRAM probe count (one replay per HBM config x access pattern per process)"
# A count gate, not a timing gate: eight threads missing the same patterns
# at once replay each once, and a cold sweep of the benchmark's 360-point
# grid records dram.probes == 2 configs x 5 patterns == 10, real ppm
# values, and the same artifact bytes at jobs = 1 and jobs = nproc. Each
# test is alone in its file because the memo and counters are per process.
cargo test -q --offline -p unizk-dram --test probe_once
cargo test -q --offline -p unizk-explore --test probe_count

echo "==> smoke sweep (cold, then fully cached)"
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
./target/release/sweep --spec crates/explore/specs/ci.json --jobs 4 \
    --cache-dir "$SWEEP_TMP/cache" --out "$SWEEP_TMP/cold.json" \
    | tee "$SWEEP_TMP/cold.log"
./target/release/sweep --spec crates/explore/specs/ci.json --jobs 4 \
    --cache-dir "$SWEEP_TMP/cache" --out "$SWEEP_TMP/warm.json" \
    | tee "$SWEEP_TMP/warm.log"
grep -q "cache hits: 0/4" "$SWEEP_TMP/cold.log" \
    || { echo "FAIL: cold sweep should have zero cache hits"; exit 1; }
grep -q "cache hits: 4/4" "$SWEEP_TMP/warm.log" \
    || { echo "FAIL: cached re-run should hit on every point"; exit 1; }
diff "$SWEEP_TMP/cold.json" "$SWEEP_TMP/warm.json" \
    || { echo "FAIL: cached sweep artifact differs from cold run"; exit 1; }

echo "==> fleet smoke sweep (cold, then fully cached)"
# Fleet points must honor the same caching/determinism contract as chip
# points: a cold run misses on all 8 points, the re-run hits on all 8,
# and the two artifacts are byte-identical.
./target/release/sweep --spec crates/explore/specs/fleet-ci.json --jobs 4 \
    --cache-dir "$SWEEP_TMP/fleet-cache" --out "$SWEEP_TMP/fleet-cold.json" \
    | tee "$SWEEP_TMP/fleet-cold.log"
./target/release/sweep --spec crates/explore/specs/fleet-ci.json --jobs 4 \
    --cache-dir "$SWEEP_TMP/fleet-cache" --out "$SWEEP_TMP/fleet-warm.json" \
    | tee "$SWEEP_TMP/fleet-warm.log"
grep -q "cache hits: 0/8" "$SWEEP_TMP/fleet-cold.log" \
    || { echo "FAIL: cold fleet sweep should have zero cache hits"; exit 1; }
grep -q "cache hits: 8/8" "$SWEEP_TMP/fleet-warm.log" \
    || { echo "FAIL: cached fleet re-run should hit on every point"; exit 1; }
diff "$SWEEP_TMP/fleet-cold.json" "$SWEEP_TMP/fleet-warm.json" \
    || { echo "FAIL: cached fleet sweep artifact differs from cold run"; exit 1; }

echo "==> determinism contract (contract | diff - CONTRACT.json)"
# Every exact number a PR is held to, from one writer in a fresh process:
# the prover's work counters and proof size over both fields, the four
# serve proof digests, the simulator anchors with their dram.*/sim.*
# counters, and the fleet surface after the static verifier (M-rules
# included) has passed every schedule of its grid.
./target/release/contract | diff - CONTRACT.json \
    || { echo "FAIL: contract drifted (lines above: '<' this tree, '>' committed);" \
              "regenerate with \`contract > CONTRACT.json\` only if the change is intended"; exit 1; }

echo "==> koalabear smoke (31-bit stack prove->verify + cross-field differential wall)"
# The cross-field NTT wall and the KoalaBear stark end-to-end tests run as
# named steps so a regression is attributed to this block, not buried in
# the workspace test pass.
cargo test -q --offline -p unizk-ntt --test ntt_kernel_equivalence
cargo test -q --offline -p unizk-stark --test stark_protocol koalabear_stack

echo "==> one benchmark system (no BENCH_*.json, no [[bench]] target, no crate-local example, no clock in the contract writer)"
# Timing lives in benchmark/, exact numbers in CONTRACT.json. A root-level
# BENCH_*.json or a Cargo bench target would be a second yardstick, and so
# would a timing loop under crates/*/examples/, which benchmark/ cannot
# see: runnable examples live in the root examples/.
if compgen -G 'BENCH_*.json' > /dev/null \
        || compgen -G 'crates/*/examples/*.rs' \
        || grep -n '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml \
        || grep -nE 'Instant|SystemTime' crates/bench/src/contract.rs crates/bench/src/bin/contract.rs; then
    echo "FAIL: timing artifacts belong to benchmark/; CONTRACT.json holds no clock"
    exit 1
fi

echo "==> unsafe fence (one module of unizk-hash; every other crate forbids unsafe_code)"
# The AVX-512 rows need #[target_feature] functions, which only `unsafe`
# can enter; all of it lives in the module crates/hash/src/packed/avx512.rs
# — the Goldilocks rows in the file itself, the KoalaBear rows in its child
# avx512/koalabear.rs, under the parent's one allow(unsafe_code). A second
# site, or a crate dropping its forbid, widens what has to be audited.
if grep -rnE '\bunsafe\b' crates/*/src --include='*.rs' \
        | grep -vE '^crates/hash/src/packed/avx512(\.rs|/koalabear\.rs):' \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "FAIL: unsafe outside the module crates/hash/src/packed/avx512.rs"
    exit 1
fi
for lib in crates/*/src/lib.rs; do
    want='#![forbid(unsafe_code)]'
    [ "$lib" = crates/hash/src/lib.rs ] && want='#![deny(unsafe_code)]'
    grep -qxF "$want" "$lib" || { echo "FAIL: $lib must carry $want"; exit 1; }
done
if [ "$(grep -rlE 'allow\(unsafe_code\)' crates/*/src --include='*.rs')" != crates/hash/src/packed/avx512.rs ]; then
    echo "FAIL: exactly one module may allow unsafe_code (crates/hash/src/packed/avx512.rs)"
    exit 1
fi
echo "lockstep rows on this host (not part of CONTRACT.json, which is host-independent):"
cargo test -q --offline -p unizk-hash --lib report_dispatched_rows -- --nocapture 2>&1 | grep 'dispatch'

echo "==> one process-global setting (set_parallelism), no environment reads"
# Routing is decided by private constants backed by measurements in
# EXPERIMENTS.md. A new `pub fn set_*` or `env::var` read in a prover crate
# would be a second independently settable value: fail here instead. The
# simulator crates are held to the same rule: the DRAM efficiency memo is a
# memo of a pure function, with no setter, reader or switch.
if grep -rnE 'pub fn set_|env::var' \
        crates/{field,ntt,hash,fri,stark,plonk,serve,dram,core,fleet,explore,analyze}/src \
        | grep -v 'pub fn set_parallelism('; then
    echo "FAIL: library crates may expose no setter but set_parallelism and read no env var"
    exit 1
fi

echo "==> one loop for closed batches (no queue in serve, one run_indexed, no prune flag)"
# Serve proves a batch on the loop explore sweeps a grid on
# (unizk_field::par::run_indexed). A Condvar or a poisoned-lock expect in
# crates/serve/src would be a second scheduler coming back, a second
# `fn run_indexed` a second copy of the loop, and `sweep --prune` exiting 0
# a second sweep path (measured and removed: EXPERIMENTS.md Part 2).
if grep -rnE 'Condvar|poisoned' crates/serve/src \
        || grep -rn 'fn run_indexed' crates benchmark/src examples tests --include='*.rs' \
            | grep -v '^crates/field/src/par.rs:' \
        || ./target/release/sweep --spec crates/explore/specs/ci.json --prune \
            --out "$SWEEP_TMP/prune.json" 2> /dev/null; then
    echo "FAIL: closed batches have one scheduler (field::par::run_indexed) and the sweep one path"
    exit 1
fi

echo "==> evaluation domains computed once (no per-position point derivation in the prover loops)"
# The provers read whole tables from unizk_fri::domain (one multiplication
# per entry). `domain_point` / `.point(` re-derive a root of unity and a
# log n-bit power per call: fine for the verifiers' handful of query
# positions and for tests, a several-hundred-multiplication tax per LDE row
# inside these three files (EXPERIMENTS.md, "Goldilocks prover operation
# table").
for f in crates/fri/src/prover.rs crates/stark/src/prover.rs crates/plonk/src/quotient.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'domain_point|\.point\('; then
        echo "FAIL: $f derives domain points one index at a time; read FoldDomain::points() instead"
        exit 1
    fi
done

echo "==> each product once in the polynomial layer (one inversion pass in the FRI combine, no per-position copies)"
# combine_initial evaluates Σ_t β^t·(S − Y_t)/(x − z_t) as one rational
# function (fri::prover::OpeningQuotient): one batch inversion of D(x) over
# the LDE where the sum needs one per opening point. The Plonk quotient
# borrows its wire, sigma and partial slices (a `.to_vec()` there is a copy
# per LDE position and round), and an AIR writes its transition constraints
# into the prover's buffer (a `Vec` return is an allocation per position).
# EXPERIMENTS.md, "The polynomial layer: products per LDE position".
combine="$(sed '/^#\[cfg(test)\]/,$d' crates/fri/src/prover.rs \
    | awk '/^fn combine_initial/ { show = 1 } show; show && /^}/ { show = 0 }')"
vec_transitions=""
for f in $(grep -rl 'fn eval_transition' crates tests examples --include='*.rs'); do
    if tr '\n' ' ' < "$f" | grep -oE 'fn eval_transition[^{;]*' | grep -qE -- '->[[:space:]]*Vec'; then
        vec_transitions="$vec_transitions $f"
    fi
done
if [ -z "$combine" ] || [ "$(grep -c 'batch_inverse' <<< "$combine")" -gt 1 ] \
        || sed '/^#\[cfg(test)\]/,$d' crates/plonk/src/quotient.rs | grep -n '\.to_vec()' \
        || [ -n "$vec_transitions" ]; then
    echo "FAIL: combine_initial must invert once (OpeningQuotient), crates/plonk/src/quotient.rs must borrow" \
         "instead of .to_vec(), and eval_transition must write into its out buffer${vec_transitions:+ (returns a Vec in:$vec_transitions)}"
    exit 1
fi

echo "==> each Merkle node hashed once (one batch check per tree in the FRI verifier)"
# fri_verify hands each tree's openings to GenericMerkleTree::verify_many,
# which hashes a node once per distinct input and eight at a time. A
# per-query `::verify(` or a `two_to_one` in the verifier is the
# path-by-path loop coming back: 2.4x the permutations on the contract
# shape (EXPERIMENTS.md, "Verifier: each node once").
if sed '/^#\[cfg(test)\]/,$d' crates/fri/src/verifier.rs | grep -nE '::verify\(|two_to_one'; then
    echo "FAIL: crates/fri/src/verifier.rs hashes path by path; collect the openings and call verify_many once per tree"
    exit 1
fi

echo "==> one leaf-digest rule (builder and verifier turn a leaf into a digest through one function)"
# merkle::leaf_digests_with decides, per leaf, between "the leaf is its
# digest" (at most Digest::LEN elements) and the batched absorb. If the
# builder and verify_many each spelled that rule, a change to one would
# split prover from verifier with every single-sided test green; so outside
# #[cfg(test)] the file reaches a sponge (hash_many_with, hash_no_pad*) only
# inside that function, and hash_leaves_into and verify_many both call it.
merkle="$(sed '/^#\[cfg(test)\]/,$d' crates/hash/src/merkle.rs | grep -vE '^[[:space:]]*//')"
sponge_call='hash_many_with::<|hash_no_pad'
body() { awk -v first="$1" -v last="$2" '$0 ~ first { show = 1 } show; show && $0 ~ last { show = 0 }' <<< "$merkle"; }
rule="$(body '^pub fn leaf_digests_with' '^}')"
if [ "$(grep -cE "$sponge_call" <<< "$rule")" -ne 1 ] \
        || [ "$(grep -cE "$sponge_call" <<< "$merkle")" -ne 1 ] \
        || ! body '^fn hash_leaves_into' '^}' | grep -q 'leaf_digests_with::<' \
        || ! body '^    pub fn verify_many' '^    }' | grep -q 'leaf_digests_with::<'; then
    echo "FAIL: crates/hash/src/merkle.rs must turn leaves into digests through leaf_digests_with only" \
         "(one sponge call, inside it; named by hash_leaves_into and by verify_many)"
    exit 1
fi
# The in-circuit twin (plonk::gadgets::leaf_digest_gadget) against a native
# tree of two-element leaves; the example is not a test, so it is run here.
cargo run --release --offline -q --example merkle_membership | tail -2

echo "==> one Poseidon schedule (the rounds are walked once, at every width)"
# packed::walk_rounds is the only shipped walk of the 4 / pre-partial / 22 /
# 4 sequence (poseidon_permute, permute_batch and the grind kernel are its
# callers); the second `0..PARTIAL_ROUNDS` loop is the #[cfg(test)] dense
# oracle. A third would be a copy that has to be moved in step again, and
# the three names below are the test-only speculative rungs that existed
# to be compared with each other.
walks="$(cat crates/hash/src/*.rs | grep -c 'in 0\.\.PARTIAL_ROUNDS' || true)"
if [ "$walks" -gt 2 ] \
        || grep -rnE 'fn (permute_with|speculative_one|speculative_challenge)\b' crates --include='*.rs'; then
    echo "FAIL: the Poseidon rounds are sequenced in packed::walk_rounds only ($walks walks found, 2 allowed)"
    exit 1
fi

echo "==> one Poseidon2-KoalaBear schedule (the rounds are walked once, on every row type)"
# poseidon2_kb::permute_lockstep is the only function that sequences the
# pre-mix / 4 external / 20 internal / constants / 4 external walk: the
# scalar permutation, the batch walk, the grind and both AVX-512 kernels
# are instantiations of it. A second loop over the internal round constants
# anywhere under crates/hash/src would be a second walk.
kb_walks="$(grep -rEc 'for .* in .*internal_constants' crates/hash/src --include='*.rs' | awk -F: '{ n += $2 } END { print n }')"
if [ "$kb_walks" -ne 1 ]; then
    echo "FAIL: the KoalaBear rounds are sequenced in poseidon2_kb::permute_lockstep only ($kb_walks loops over internal_constants found, 1 allowed)"
    exit 1
fi

echo "==> repository benchmark gate (benchmark/check.sh --quick)"
# Lints and unit tests of the benchmark package, [profile.release] parity
# with the root manifest, and the smoke set: every workload and every
# layer metric at tiny sizes, with the output checks on. Timing claims
# are made with benchmark/run.sh, not here.
benchmark/check.sh --quick

echo "==> OK: tier-1 gate passed"
