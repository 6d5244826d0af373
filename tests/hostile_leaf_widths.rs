//! The width of a leaf is fixed before the leaf is turned into a digest.
//!
//! A Merkle leaf of at most four elements is its own digest, elements then
//! zeros (`unizk_hash::merkle::leaf_digests_with`), so `[a, b]` and
//! `[a, b, 0]` open the same tree at the same place — as they do in Plonky2,
//! and as the unpadded absorb never separated `[a, …, e]` from
//! `[a, …, e, 0]`. What binds a proof is that the verifier knows every leaf
//! width from the instance and compares it first: a Starky proof over each
//! field and a Plonk proof whose narrow initial leaves gain a trailing zero
//! or lose their last element — in every query, so that the proof stays
//! consistent with itself — are `FriError::Malformed` with no leaf digested
//! and no Merkle node hashed. (`crates/fri/tests/hostile_shapes.rs` shows the
//! same for a bare FRI proof, at no permutation at all.)
//!
//! The trace store is per process: the tests serialise on one lock, in a
//! binary of their own.

use std::sync::Mutex;

use unizk_field::{Field, Goldilocks, ProtocolField};
use unizk_fri::{FriError, FriProof};
use unizk_hash::{HashField, SpongeBackend};
use unizk_plonk::{CircuitBuilder, CircuitConfig, PlonkError};
use unizk_stark::{prove, verify, FibonacciAir, KbStarkConfig, StarkConfig, StarkError};
use unizk_testkit::trace;

static TRACE_STORE: Mutex<()> = Mutex::new(());

const REFUSAL: FriError = FriError::Malformed("query leaf width mismatch");

/// Both ways of moving the width of every initial leaf of batch `batch`.
fn resized<F: ProtocolField>(proof: &FriProof<F>, batch: usize) -> [FriProof<F>; 2] {
    let (mut padded, mut cut) = (proof.clone(), proof.clone());
    for query in &mut padded.queries {
        query.initial[batch].leaf.push(F::ZERO);
    }
    for query in &mut cut.queries {
        query.initial[batch].leaf.pop();
    }
    [padded, cut]
}

/// The batches whose leaves fit in a digest (at least one, or the test is void).
fn narrow_batches<F: ProtocolField>(proof: &FriProof<F>) -> Vec<usize> {
    let widths = proof.queries[0].initial.iter().map(|o| o.leaf.len());
    let narrow: Vec<usize> = widths.enumerate().filter(|&(_, w)| w <= 4).map(|(b, _)| b).collect();
    assert!(!narrow.is_empty(), "no batch of this proof has leaves that fit in a digest");
    narrow
}

/// Runs one verification and returns its verdict with the Merkle work it did.
fn merkle_work<T>(verify: impl FnOnce() -> T) -> (T, u64, u64) {
    trace::reset();
    let verdict = verify();
    let spent = trace::snapshot();
    (verdict, spent.counter("merkle.verify.openings"), spent.counter("merkle.verify.nodes"))
}

fn stark_refuses_resized_narrow_leaves<F: HashField, H: SpongeBackend<F = F>>(config: &StarkConfig<F, H>) {
    let _serial = TRACE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    let air = FibonacciAir::new(256);
    let proof = prove(&air, config).expect("the Fibonacci trace satisfies its AIR");
    let (honest, openings, _) = merkle_work(|| verify(&air, &proof, config));
    assert_eq!(honest, Ok(()));
    assert!(openings > 0, "the honest proof's trees are opened");

    for batch in narrow_batches(&proof.fri) {
        for fri in resized(&proof.fri, batch) {
            let hostile = unizk_stark::StarkProof { fri, ..proof.clone() };
            let answer = merkle_work(|| verify(&air, &hostile, config));
            assert_eq!(answer, (Err(StarkError::Fri(REFUSAL)), 0, 0), "batch {batch}");
        }
    }
}

#[test]
fn goldilocks_stark_refuses_resized_narrow_leaves() {
    stark_refuses_resized_narrow_leaves(&StarkConfig::for_testing());
}

#[test]
fn koalabear_stark_refuses_resized_narrow_leaves() {
    stark_refuses_resized_narrow_leaves(&KbStarkConfig::for_testing_over());
}

#[test]
fn plonk_refuses_resized_narrow_leaves() {
    let _serial = TRACE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    let g = Goldilocks::from_u64;
    // The paper's running example: (x0 + x1) · (x2 · x3) = 99.
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let [x0, x1, x2, x3] = core::array::from_fn(|_| b.add_input());
    let sum = b.add(x0, x1);
    let prod = b.mul(x2, x3);
    let out = b.mul(sum, prod);
    b.assert_constant(out, g(99));
    let circuit = b.build();
    let proof = circuit.prove(&[g(4), g(5), g(1), g(11)]).expect("the witness satisfies the circuit");
    let (honest, openings, _) = merkle_work(|| circuit.verify(&proof));
    assert_eq!(honest, Ok(()));
    assert!(openings > 0, "the honest proof's trees are opened");

    for batch in narrow_batches(&proof.fri) {
        for fri in resized(&proof.fri, batch) {
            let hostile = unizk_plonk::Proof { fri, ..proof.clone() };
            let answer = merkle_work(|| circuit.verify(&hostile));
            assert_eq!(answer, (Err(PlonkError::Fri(REFUSAL)), 0, 0), "batch {batch}");
        }
    }
}
