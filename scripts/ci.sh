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
# intrinsic is inlined into the #[target_feature] entry points. One helper
# left without the attribute turns each intrinsic into an out-of-line call
# through memory — six times slower than the array rows, with every test
# green — and a state that does not stay in registers or on the kernel's
# own stack shows up as a memcpy; the release binary is the only witness.
# The entry points: Goldilocks `permute_soa` on its two row types (32 lanes
# in four registers, 8 in one; generic instantiations share a demangled
# name) and `nonce_row` on the four-register row (the grind hands over 32
# candidates, so the one-register instantiation has no caller in the
# prover), and KoalaBear's `permute_states` and `squeeze_row`. Each
# kernel's stack operands (spills and reloads) are printed, not gated, so a
# register-allocation regression shows in the log. The check reads the
# code, not the CPU: it holds on hosts without AVX-512 too.
if ! command -v objdump > /dev/null; then
    echo "skipped: objdump not found"
elif [ "$(uname -m)" != "x86_64" ]; then
    echo "skipped: not an x86-64 build, the vector rows are not compiled"
else
    kernels="$(objdump -d -C --no-show-raw-insn target/release/contract \
        | awk '/^[0-9a-f]+ <.*packed::avx512::(permute_soa|nonce_row|koalabear::permute_states|koalabear::squeeze_row)(::<.*>)?>:$/ { show = 1 } /^$/ { show = 0 } show')"
    for expected in 'permute_soa 2' 'nonce_row 1' 'koalabear::permute_states 1' 'koalabear::squeeze_row 1'; do
        read -r name count <<< "$expected"
        found="$(grep -cE "^[0-9a-f]+ <.*packed::avx512::$name(::<.*>)?>:\$" <<< "$kernels" || true)"
        if [ "$found" -ne "$count" ]; then
            echo "FAIL: expected $count of packed::avx512::$name in target/release/contract, found $found"
            exit 1
        fi
    done
    if grep -E '[[:space:]]call' <<< "$kernels" | head -5 | grep .; then
        echo "FAIL: a call inside a vector kernel (first ones above): some function on the vector path lacks" \
             "#[target_feature(enable = \"avx512f\")] or is not #[inline(always)] glue, or a state is copied through memcpy"
        exit 1
    fi
    awk '/^[0-9a-f]+ </ { name = $2; sub(/^<.*packed::avx512::/, "", name); sub(/>:$/, "", name); name = name " at " $1 }
         /^ +[0-9a-f]+:/ { n[name]++; if (/\(%r[sb]p/) stack[name]++ }
         END { for (k in n) printf "  %-50s %5d instructions, %4d stack operands\n", k, n[k], stack[k] }' <<< "$kernels" | sort
    echo "ok: $(grep -c '^[0-9a-f]* <' <<< "$kernels") kernels, $(grep -c 'zmm' <<< "$kernels") zmm instructions, no call"
fi

echo "==> lane-kernel codegen gate (no call inside the Goldilocks and KoalaBear lane entry points of unizk_field::lanes)"
# Every kernel of the polynomial layer is a LaneKernel that
# PrimeField64::with_lanes hands to one #[target_feature] entry point per
# field, stamped out once per kernel type: crates/field/src/lanes/avx512.rs's
# run_on_lanes (eight Goldilocks lanes) and
# crates/field/src/lanes/avx512/koalabear.rs's run_on_lanes (sixteen
# KoalaBear lanes). The rule is the vector rows' rule above: the kernel
# body, its helpers and every lane operation must be inlined into the entry
# point (a helper left out of line runs its lanes through memory, and a
# slice index that the compiler cannot prove in range leaves a call to a
# panic handler). The kernels the contract binary reaches, per field: the
# NTT's DIF and DIT stage loops and the zero-tail LDE, lanes::mul_assign and
# lanes::scale (coset and n^-1 scaling), the FRI combine's leaf sums,
# witness rows and extension products, and the Stark quotient rows, one
# instantiation per AIR the binary proves (four over Goldilocks, one over
# KoalaBear); over Goldilocks also the straddling-stage windows of the NTT,
# the Plonk quotient rows and the permutation's denominators and chunk
# products. Each instantiation's instruction and stack-operand counts are
# printed, not gated.
if ! command -v objdump > /dev/null; then
    echo "skipped: objdump not found"
elif [ "$(uname -m)" != "x86_64" ]; then
    echo "skipped: not an x86-64 build, the vector lane rows are not compiled"
else
    disassembly="$(objdump -d -C --no-show-raw-insn target/release/contract)"
    entries=""
    for expected in 'Goldilocks avx512 16' 'KoalaBear avx512::koalabear 10'; do
        read -r field module count <<< "$expected"
        field_entries="$(awk -v m="$module" '$0 ~ "^[0-9a-f]+ <unizk_field::lanes::" m "::run_on_lanes(::<.*>)?>:$" { show = 1 } /^$/ { show = 0 } show' \
            <<< "$disassembly")"
        found="$(grep -cE '^[0-9a-f]+ <' <<< "$field_entries" || true)"
        if [ "$found" -ne "$count" ]; then
            echo "FAIL: expected $count instantiations of unizk_field::lanes::$module::run_on_lanes ($field) in target/release/contract, found $found"
            exit 1
        fi
        entries="$entries$field_entries"$'\n\n'
    done
    if grep -E '[[:space:]]call' <<< "$entries" | head -5 | grep .; then
        echo "FAIL: a call inside a lane kernel (first ones above): a helper of a LaneKernel is not #[inline(always)]," \
             "or a slice index or allocation inside LaneKernel::run left a call behind"
        exit 1
    fi
    awk '/^[0-9a-f]+ </ { name = $2; sub(/^<unizk_field::lanes::/, "", name); sub(/>:$/, "", name); name = name " at " $1 }
         /^ +[0-9a-f]+:/ { n[name]++; if (/\(%r[sb]p/) stack[name]++ }
         END { for (k in n) printf "  %-50s %5d instructions, %4d stack operands\n", k, n[k], stack[k] }' <<< "$entries" | sort
    echo "ok: 26 lane kernels, $(grep -c 'zmm' <<< "$entries") zmm instructions, no call"
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

echo "==> smoke sweeps (one path: the same artifact at one and four workers)"
# Every point simulates. A chip spec and a fleet spec each run at --jobs 1
# and --jobs 4, and the two artifacts must be byte-identical: worker count
# and completion order never reach the output.
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
for spec in ci fleet-ci; do
    for jobs in 1 4; do
        ./target/release/sweep --spec "crates/explore/specs/$spec.json" --jobs "$jobs" \
            --out "$SWEEP_TMP/$spec-$jobs.json"
    done
    diff "$SWEEP_TMP/$spec-1.json" "$SWEEP_TMP/$spec-4.json" \
        || { echo "FAIL: $spec sweep artifact differs between --jobs 1 and --jobs 4"; exit 1; }
done

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

echo "==> unsafe fence (one module each of unizk-field and unizk-hash; every other crate forbids unsafe_code; asm! in one file)"
# The AVX-512 rows need #[target_feature] functions, which only `unsafe`
# can enter. All of it lives in two modules: crates/field/src/lanes/avx512.rs
# (the eight Goldilocks lanes of the polynomial layer and the vector product
# every Goldilocks row uses, in the file itself; the sixteen KoalaBear lanes
# and the vector product every KoalaBear row uses, in its child
# avx512/koalabear.rs) and crates/hash/src/packed/avx512.rs (the Poseidon
# rows in the file itself, the Poseidon2 KoalaBear rows in its child
# avx512/koalabear.rs), each under its own allow(unsafe_code) in a crate
# that is deny(unsafe_code). A third site, a child module the fence does not
# name, or a crate dropping its forbid, widens what has to be audited.
if grep -rnE '\bunsafe\b' crates/*/src --include='*.rs' \
        | grep -vE '^crates/(field/src/lanes|hash/src/packed)/avx512(/koalabear)?\.rs:' \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "FAIL: unsafe outside the modules crates/field/src/lanes/avx512.rs and crates/hash/src/packed/avx512.rs" \
         "(each with its child avx512/koalabear.rs)"
    exit 1
fi
children="$(find crates/field/src/lanes/avx512 crates/hash/src/packed/avx512 -type f 2> /dev/null | sort | tr '\n' ' ')"
if [ "$children" != 'crates/field/src/lanes/avx512/koalabear.rs crates/hash/src/packed/avx512/koalabear.rs ' ]; then
    echo "FAIL: the unsafe modules have one child each, avx512/koalabear.rs (found: $children)"
    exit 1
fi
# Inline assembly is narrower still: the field module, where one `vpmuludq`
# keeps the product by 2^32 - 1 from being expanded (mul_epsilon).
if grep -rnE '\b(global_|naked_)?asm!' crates/*/src --include='*.rs' \
        | grep -vE '^crates/field/src/lanes/avx512\.rs:' \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "FAIL: asm! outside crates/field/src/lanes/avx512.rs"
    exit 1
fi
for lib in crates/*/src/lib.rs; do
    want='#![forbid(unsafe_code)]'
    case "$lib" in
        crates/field/src/lib.rs | crates/hash/src/lib.rs) want='#![deny(unsafe_code)]' ;;
    esac
    grep -qxF "$want" "$lib" || { echo "FAIL: $lib must carry $want"; exit 1; }
done
if [ "$(grep -rlE 'allow\(unsafe_code\)' crates/*/src --include='*.rs' | sort | tr '\n' ' ')" \
        != 'crates/field/src/lanes/avx512.rs crates/hash/src/packed/avx512.rs ' ]; then
    echo "FAIL: exactly two modules may allow unsafe_code (crates/field/src/lanes/avx512.rs, crates/hash/src/packed/avx512.rs)"
    exit 1
fi
# One vector product per field: lanes::avx512::mul (Goldilocks) and
# lanes::avx512::koalabear::mul (KoalaBear), which the lane types and the
# Poseidon and Poseidon2 rows import. A third `fn mul` over __m512i would be
# a second copy of a carry chain or a Montgomery reduction to keep in step.
vector_muls="$(grep -rnE 'fn mul\([^)]*__m512i' crates/*/src --include='*.rs' || true)"
if [ "$(grep -c . <<< "$vector_muls")" -ne 2 ] \
        || ! grep -q '^crates/field/src/lanes/avx512\.rs:' <<< "$vector_muls" \
        || ! grep -q '^crates/field/src/lanes/avx512/koalabear\.rs:' <<< "$vector_muls"; then
    printf '%s\n' "$vector_muls"
    echo "FAIL: the vector products are unizk_field::lanes::avx512::mul and unizk_field::lanes::avx512::koalabear::mul only"
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

echo "==> one allocation path per prover layer (no _in forks, no pool, workspace or cache module)"
# Each prover layer has one entry point that allocates its own buffers;
# the per-worker buffer pools and the on-disk sweep memo were measured and
# removed (EXPERIMENTS.md, "The pool decision" and Part 2). An `fn …_in(`
# is a second entry point coming back, a pool/workspace/cache module in
# field, hash or explore a second allocation or sweep path, and an item in
# HashField beside `type Sponge` the hooks such a path threads through.
hash_field="$(awk '/^pub trait HashField/ { show = 1; next } show && /^}/ { show = 0 } show' \
    crates/hash/src/sponge.rs | grep -vE '^[[:space:]]*(//|$)' || true)"
if grep -rnE 'fn [A-Za-z0-9_]*_in[<(]' crates/*/src \
        || find crates/{field,hash,explore}/src -maxdepth 1 -regextype posix-extended \
            -regex '.*/(pool|workspace|cache)(\.rs)?' | grep . \
        || grep -rnE '^[[:space:]]*(pub(\([a-z]+\))? )?mod (pool|workspace|cache)\b' \
            crates/{field,hash,explore}/src \
        || ! grep -qE '^[[:space:]]*type Sponge:' <<< "$hash_field" \
        || [ "$(wc -l <<< "$hash_field")" -ne 1 ]; then
    echo "FAIL: one allocation path per prover layer; HashField holds type Sponge and nothing else"
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

echo "==> each Merkle node hashed once (one walk over every tree in the FRI verifier)"
# fri_verify hands the openings of every batch tree and every fold tree to
# one GenericMerkleTree::verify_many, which hashes a node once per distinct
# input of its tree, all trees' inputs of a step in one dispatch. A
# per-query `::verify(` or a `two_to_one` in the verifier is the
# path-by-path loop coming back (2.4x the permutations on the contract
# shape: EXPERIMENTS.md, "Verifier: each node once"); a second
# `verify_many` call or a per-tree worker closure is the tree-by-tree walk
# coming back (dispatches of a few dozen inputs: "One walk per proof").
verifier="$(sed '/^#\[cfg(test)\]/,$d' crates/fri/src/verifier.rs | grep -vE '^[[:space:]]*//')"
if grep -nE '::verify\(|two_to_one' <<< "$verifier" \
        || [ "$(grep -c 'verify_many' <<< "$verifier")" -ne 1 ] \
        || grep -nE 'parallel_(map|groups)|run_indexed' <<< "$verifier"; then
    echo "FAIL: crates/fri/src/verifier.rs must check every tree in one verify_many call," \
         "with no path-by-path hashing and no per-tree worker closure"
    exit 1
fi

echo "==> one leaf-digest rule (builder and verifier turn a leaf into a digest through one function)"
# merkle::leaf_digests_with decides, per leaf, between "the leaf is its
# digest" (at most Digest::LEN elements) and the batched absorb. If the
# builder and the verifier's walk each spelled that rule, a change to one
# would split prover from verifier with every single-sided test green; so
# outside #[cfg(test)] the file reaches a sponge (hash_many_with,
# hash_no_pad*) only inside that function, hash_leaves_into and the walk
# (`fn climb`, behind verify_many) both call it, and the walk is the one
# place besides the builder's levels that compresses pairs.
merkle="$(sed '/^#\[cfg(test)\]/,$d' crates/hash/src/merkle.rs | grep -vE '^[[:space:]]*//')"
sponge_call='hash_many_with::<|hash_no_pad'
body() { awk -v first="$1" -v last="$2" '$0 ~ first { show = 1 } show; show && $0 ~ last { show = 0 }' <<< "$merkle"; }
rule="$(body '^pub fn leaf_digests_with' '^}')"
if [ "$(grep -cE "$sponge_call" <<< "$rule")" -ne 1 ] \
        || [ "$(grep -cE "$sponge_call" <<< "$merkle")" -ne 1 ] \
        || ! body '^fn hash_leaves_into' '^}' | grep -q 'leaf_digests_with::<' \
        || ! body '^fn climb' '^}' | grep -q 'leaf_digests_with::<' \
        || ! body '^    pub fn verify_many' '^    }' | grep -q 'climb::<' \
        || [ "$(grep -c 'compress_level_with::<' <<< "$merkle")" -ne 2 ] \
        || ! body '^fn climb' '^}' | grep -q 'compress_level_with::<'; then
    echo "FAIL: crates/hash/src/merkle.rs must turn leaves into digests through leaf_digests_with only" \
         "(one sponge call, inside it; named by hash_leaves_into and by climb, the walk verify_many runs)," \
         "and climb up the trees in one loop"
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

echo "==> one extension type (BinomialExtension<F, D>; Ext2 and KbExt4 are aliases; no sum-check module)"
# Every extension operation is written once, in crates/field/src/binomial.rs,
# for any base field that supplies W, φ and its product hooks
# (BinomiallyExtendable). A struct or an impl named Ext2 or KbExt4, or a
# second Mul impl for BinomialExtension in the field crate, would be a second
# copy of the arithmetic to keep in step. The sum-check module had no caller
# (no graph, app or spec) and was deleted.
ext_muls="$(grep -rhcE 'impl\b.*\bMul for BinomialExtension\b' crates/field/src --include='*.rs' \
    | awk '{ n += $1 } END { print n + 0 }')"
if grep -rnE 'struct (Ext2|KbExt4)\b|impl\b.*\bfor (Ext2|KbExt4)\b' crates --include='*.rs' \
        || [ -e crates/field/src/extension.rs ] || [ -e crates/field/src/ext4.rs ] \
        || [ -e crates/core/src/sumcheck.rs ] || [ "$ext_muls" -gt 1 ]; then
    echo "FAIL: extension arithmetic lives in crates/field/src/binomial.rs only" \
         "($ext_muls Mul impls for BinomialExtension found, 1 allowed; Ext2 and KbExt4 are type aliases)"
    exit 1
fi

echo "==> one worker loop (one spawn site, in field::par; the thread count read in par.rs and the NTT router)"
# Every parallel helper runs on par.rs's one split (pieces of whole grains)
# and one worker loop (on_workers: span hand-off, panic rule). A second
# spawn outside #[cfg(test)] would copy both, and a current_parallelism()
# call in a prover module is a caller cutting its own ranges again; radix2.rs
# reads it to route (EXPERIMENTS.md, "One worker loop").
spawns="$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -vE '^[[:space:]]*//' \
        | grep -E 'thread::(scope|spawn|Builder)|\.spawn\(' | sed "s|^|$f: |" || true
done)"
reads="$(grep -rn 'current_parallelism()' crates/*/src --include='*.rs' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    | grep -vE '^crates/(field/src/par|ntt/src/radix2)\.rs:' || true)"
if [ "$(grep -c '^crates/field/src/par.rs: .*thread::scope(' <<< "$spawns")" -ne 1 ] \
        || [ "$(grep -c '^crates/field/src/par.rs: .*\.spawn(' <<< "$spawns")" -ne 1 ] \
        || [ "$(grep -c . <<< "$spawns")" -ne 2 ] || [ -n "$reads" ]; then
    printf '%s\n' "$spawns" "$reads"
    echo "FAIL: threads are spawned in crates/field/src/par.rs (on_workers) only, and only par.rs and" \
         "crates/ntt/src/radix2.rs read current_parallelism(); pass a grain to a par helper instead"
    exit 1
fi

echo "==> one class table (a prover region's Table 1 class is decided by fri::timing::KernelClass::of_span only)"
# The provers open one span per region, named for what it does, and the
# table behind of_span says which class each name is charged to; the
# benchmark's trace.*_ms rows and the Table 1 runner read it through
# kernel_totals_from. A time_kernel wrapper or a "kernel:" span name would
# decide a class at the call site again, and a second of_span would be a
# second table (EXPERIMENTS.md, "One span per region").
classes="$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -vE '^[[:space:]]*//' \
        | grep -E '\btime_kernel\b|"kernel:|fn of_span\b' | sed "s|^|$f: |" || true
done)"
if grep -E '\btime_kernel\b|"kernel:' <<< "$classes" \
        || [ "$(grep -c 'fn of_span' <<< "$classes")" -ne 1 ] \
        || ! grep -q '^crates/fri/src/timing.rs: .*fn of_span' <<< "$classes"; then
    printf '%s\n' "$classes"
    echo "FAIL: name the region's span and list it in crates/fri/src/timing.rs (KernelClass::of_span);" \
         "no time_kernel call, no \"kernel:\" span, one of_span"
    exit 1
fi

echo "==> no capacity lost to vec! (vec![Vec::with_capacity(n); k] clones k - 1 empty vectors)"
# `vec![x; k]` clones `x`, and `Vec::clone` does not copy capacity: every
# vector but the last starts empty and regrows. Write
# `(0..k).map(|_| Vec::with_capacity(n)).collect()`.
if grep -rnE 'vec!\[[[:space:]]*Vec(::<[^>]*>)?::with_capacity\(' crates tests examples --include='*.rs'; then
    echo "FAIL: vec![Vec::with_capacity(..); k] gives k - 1 vectors without the capacity; build each one"
    exit 1
fi

echo "==> repository benchmark gate (benchmark/check.sh --quick)"
# Lints and unit tests of the benchmark package, [profile.release] parity
# with the root manifest, and the smoke set: every workload and every
# layer metric at tiny sizes, with the output checks on. Timing claims
# are made with benchmark/run.sh, not here.
benchmark/check.sh --quick

echo "==> OK: tier-1 gate passed"
