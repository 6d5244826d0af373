//! Thread-count invariance for the prover hot paths and the verifier.
//!
//! The parallel NTT stage split, the chunked Merkle hashing, the
//! block-parallel grind and the verifier's one-tree-per-claim Merkle phase
//! are all *execution strategies*: they must produce bit-identical proofs,
//! identical verdicts (the same error for a bad proof) and identical
//! deterministic trace counters under every
//! [`unizk_field::set_parallelism`] setting. This suite pins the
//! invariant end-to-end (STARK prove → verify) and on a 2^16 coset LDE in
//! isolation — a size at which multi-threaded transforms take the
//! stage-split path, so the sweep compares it against the serial kernel
//! through the public API.
//!
//! These tests set the process-global parallelism override and reset the
//! trace store, so everything that touches them serializes on one lock and
//! restores the default before releasing it. They live in their own
//! integration-test binary for the same reason.

use std::sync::Mutex;

use unizk_field::{set_parallelism, Field, Goldilocks, KoalaBear, PrimeField64};
use unizk_fri::FriError;
use unizk_hash::{HashField, SpongeBackend};
use unizk_ntt::lde_of_values;
use unizk_stark::{prove, verify, FibonacciAir, KbStarkConfig, StarkConfig, StarkError};
use unizk_testkit::rng::SplitMix64;
use unizk_testkit::trace;

static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

/// Restores the parallelism override, even on assertion failure.
struct KnobGuard;

impl Drop for KnobGuard {
    fn drop(&mut self) {
        set_parallelism(0);
    }
}

fn counters() -> Vec<(String, u64)> {
    trace::snapshot().counters
}

/// One run's observable outcome: the value under test plus the counters.
type Observed<T> = Option<(T, Vec<(String, u64)>)>;

#[test]
fn stark_proof_identical_under_every_thread_count() {
    let _lock = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;

    let air = FibonacciAir::new(256);
    let config = StarkConfig::for_testing();

    let mut reference: Observed<Vec<u8>> = None;
    for threads in [1usize, 2, 3, 0] {
        set_parallelism(threads);
        trace::reset();
        let proof = prove(&air, &config).expect("trace satisfies the AIR");
        verify(&air, &proof, &config).expect("honest proof verifies");
        let got = (proof.to_bytes(), counters());
        match &reference {
            None => reference = Some(got),
            Some((bytes, counts)) => {
                assert_eq!(&got.0, bytes, "proof bytes differ at threads={threads}");
                assert_eq!(&got.1, counts, "trace counters differ at threads={threads}");
            }
        }
    }
}

#[test]
fn coset_lde_identical_under_every_thread_count() {
    let _lock = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;

    let mut rng = SplitMix64::seed_from_u64(0x1DE);
    let values: Vec<Goldilocks> = (0..1 << 14).map(|_| Goldilocks::random(&mut rng)).collect();
    let shift = Goldilocks::MULTIPLICATIVE_GENERATOR;

    let mut reference: Observed<Vec<Goldilocks>> = None;
    for threads in [1usize, 2, 5, 0] {
        set_parallelism(threads);
        trace::reset();
        let extended = lde_of_values(&values, 2, shift);
        assert_eq!(extended.len(), 1 << 16);
        let got = (extended, counters());
        match &reference {
            None => reference = Some(got),
            Some((vals, counts)) => {
                assert_eq!(&got.0, vals, "LDE values differ at threads={threads}");
                assert_eq!(&got.1, counts, "trace counters differ at threads={threads}");
            }
        }
    }
}

/// Proves and verifies `air` over KoalaBear under every thread count and
/// requires the proof bytes and the counters to repeat.
fn koalabear_proof_sweep(air: &FibonacciAir, config: &KbStarkConfig) {
    let _lock = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;

    let mut reference: Observed<Vec<u8>> = None;
    for threads in [1usize, 2, 3, 0] {
        set_parallelism(threads);
        trace::reset();
        let proof = prove(air, config).expect("trace satisfies the AIR");
        verify(air, &proof, config).expect("honest proof verifies");
        let got = (proof.to_bytes(), counters());
        match &reference {
            None => reference = Some(got),
            Some((bytes, counts)) => {
                assert_eq!(&got.0, bytes, "KB proof bytes differ at threads={threads}");
                assert_eq!(&got.1, counts, "KB trace counters differ at threads={threads}");
            }
        }
    }
}

/// The 31-bit stack obeys the same invariant: `(KoalaBear, Poseidon2)`
/// proofs are bit-identical under every thread count.
#[test]
fn koalabear_stark_proof_identical_under_every_thread_count() {
    koalabear_proof_sweep(&FibonacciAir::new(256), &KbStarkConfig::for_testing_over());
}

/// The same over real 16-lane groups: at 256 rows most Merkle levels are
/// narrower than one group. At 2^10 rows (2^11 leaves) the leaf and level
/// dispatches are whole groups split over the workers, the top levels are
/// padded remainders and one- and two-state scalar walks, and a 10-bit
/// grind scans a few hundred 16-candidate dispatches over more than one
/// block.
#[test]
fn koalabear_stark_proof_identical_over_whole_lane_groups() {
    let mut config = KbStarkConfig::for_testing_over();
    config.fri.proof_of_work_bits = 10;
    koalabear_proof_sweep(&FibonacciAir::new(1 << 10), &config);
}

/// KoalaBear coset LDE under the thread sweep — the transform that feeds
/// every 31-bit commitment must be an execution-strategy-only parallelism.
#[test]
fn koalabear_coset_lde_identical_under_every_thread_count() {
    let _lock = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;

    let mut rng = SplitMix64::seed_from_u64(0x1DE);
    let values: Vec<KoalaBear> = (0..1 << 14).map(|_| KoalaBear::random(&mut rng)).collect();
    let shift = KoalaBear::MULTIPLICATIVE_GENERATOR;

    let mut reference: Observed<Vec<KoalaBear>> = None;
    for threads in [1usize, 2, 5, 0] {
        set_parallelism(threads);
        trace::reset();
        let extended = lde_of_values(&values, 2, shift);
        assert_eq!(extended.len(), 1 << 16);
        let got = (extended, counters());
        match &reference {
            None => reference = Some(got),
            Some((vals, counts)) => {
                assert_eq!(&got.0, vals, "KB LDE values differ at threads={threads}");
                assert_eq!(&got.1, counts, "KB trace counters differ at threads={threads}");
            }
        }
    }
}

/// The verifier's answer and work do not depend on the thread count: the
/// honest proof is accepted with the same counters, and a proof with two
/// faults — a later query of an earlier tree, an earlier query of a later
/// tree — is refused with the same error, the earlier tree's.
fn verdicts_identical_under_every_thread_count<F: HashField, H: SpongeBackend<F = F>>(
    config: &StarkConfig<F, H>,
) {
    let air = FibonacciAir::new(256);
    set_parallelism(1);
    let proof = prove(&air, config).expect("trace satisfies the AIR");
    let mut tampered = proof.clone();
    tampered.fri.queries[3].initial[0].leaf[0] += F::ONE;
    tampered.fri.queries[1].folds[2].pair[0] += F::Ext::ONE;

    let mut reference = None;
    for threads in [1usize, 2, 4] {
        set_parallelism(threads);
        trace::reset();
        assert_eq!(verify(&air, &proof, config), Ok(()), "threads={threads}");
        assert_eq!(
            verify(&air, &tampered, config),
            Err(StarkError::Fri(FriError::BadMerkleProof {
                query: 3,
                what: "initial batch"
            })),
            "threads={threads}"
        );
        let counts = counters();
        assert_eq!(reference.get_or_insert(counts.clone()), &counts, "threads={threads}");
    }
}

#[test]
fn verification_identical_under_every_thread_count() {
    let _lock = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;
    verdicts_identical_under_every_thread_count(&StarkConfig::for_testing());
    verdicts_identical_under_every_thread_count(&KbStarkConfig::for_testing_over());
}
