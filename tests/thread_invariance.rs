//! Thread-count invariance for the prover hot paths and the verifier.
//!
//! The per-column and per-round NTTs, the subtree-parallel Merkle builds,
//! the block-parallel grind and the verifier's one Merkle walk per proof
//! are all *execution strategies*: they must produce bit-identical proofs,
//! identical verdicts (the same error for a bad proof) and identical
//! deterministic trace counters under every
//! [`unizk_field::set_parallelism`] setting. This suite pins the invariant
//! end-to-end (STARK and Plonk prove → verify) and on a batch commitment in
//! isolation: three columns at a 2^16-point coset LDE, one serial
//! transform per worker, gathered into one leaf matrix and hashed.
//!
//! These tests set the process-global parallelism override and reset the
//! trace store, so everything that touches them serializes on one lock and
//! restores the default before releasing it. They live in their own
//! integration-test binary for the same reason.

use std::sync::Mutex;

use unizk_field::{set_parallelism, Field, PrimeField64};
use unizk_fri::{FriConfig, FriError, GenericPolynomialBatch};
use unizk_hash::{HashField, Poseidon2KbSponge, PoseidonSponge, SpongeBackend};
use unizk_stark::{prove, verify, FibonacciAir, KbStarkConfig, StarkConfig, StarkError};
use unizk_testkit::rng::SplitMix64;
use unizk_testkit::trace;
use unizk_workloads::{App, Scale};

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

/// Runs `observe` once per thread count, each after a trace reset, and
/// requires its value and the trace counters to repeat at every count.
fn identical_under<T: PartialEq + std::fmt::Debug>(what: &str, observe: impl Fn() -> T) {
    let _lock = GLOBAL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;
    let mut reference = None;
    for threads in [1usize, 2, 3, 5, 0] {
        set_parallelism(threads);
        trace::reset();
        let got = (observe(), counters());
        match &reference {
            None => reference = Some(got),
            Some((value, counts)) => {
                assert_eq!(&got.0, value, "{what} differs at threads={threads}");
                assert_eq!(&got.1, counts, "{what}: trace counters differ at threads={threads}");
            }
        }
    }
}

/// Proves and verifies `air` under every thread count and requires the
/// proof bytes and the counters to repeat.
fn stark_proof_sweep<F: HashField, H: SpongeBackend<F = F>>(
    air: &FibonacciAir,
    config: &StarkConfig<F, H>,
) {
    identical_under("Stark proof bytes", || {
        let proof = prove(air, config).expect("trace satisfies the AIR");
        verify(air, &proof, config).expect("honest proof verifies");
        proof.to_bytes()
    });
}

#[test]
fn stark_proof_identical_under_every_thread_count() {
    stark_proof_sweep(&FibonacciAir::new(256), &StarkConfig::for_testing());
}

/// The Plonk prover splits its quotient and its commitments over threads
/// too: the benchmark's `plonk_fib_gl` circuit (2^10 rows, 135 wires)
/// builds and proves to the same bytes and counters under every thread
/// count.
#[test]
fn plonk_proof_identical_under_every_thread_count() {
    identical_under("Plonk proof bytes", || {
        let (circuit, inputs) = App::Fibonacci.build_circuit(Scale::Shrunk(6));
        let proof = circuit.prove(&inputs).expect("the witness satisfies the circuit");
        circuit.verify(&proof).expect("honest proof verifies");
        proof.to_bytes()
    });
}

/// Three columns of 2^14 random values committed from values at blowup
/// 4: three iNTTs and three 2^16-point coset LDEs, one column per worker,
/// then the leaf matrix and the tree. The root and every leaf repeat.
fn batch_commit_sweep<H: SpongeBackend>() {
    let mut rng = SplitMix64::seed_from_u64(0x1DE);
    let columns: Vec<Vec<H::F>> =
        (0..3).map(|_| (0..1 << 14).map(|_| H::F::random(&mut rng)).collect()).collect();
    let config = FriConfig { rate_bits: 2, ..FriConfig::for_testing() };
    identical_under("batch root and leaves", || {
        let batch = GenericPolynomialBatch::<H>::from_values(columns.clone(), &config);
        assert_eq!(batch.lde_size(), 1 << 16);
        (batch.root(), batch.leaves().clone())
    });
}

/// The Goldilocks batch, [`unizk_fri::PolynomialBatch`].
#[test]
fn coset_lde_identical_under_every_thread_count() {
    batch_commit_sweep::<PoseidonSponge>();
}

/// The 31-bit stack obeys the same invariant: `(KoalaBear, Poseidon2)`
/// proofs are bit-identical under every thread count.
#[test]
fn koalabear_stark_proof_identical_under_every_thread_count() {
    stark_proof_sweep(&FibonacciAir::new(256), &KbStarkConfig::for_testing_over());
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
    stark_proof_sweep(&FibonacciAir::new(1 << 10), &config);
}

/// The KoalaBear batch under the thread sweep: the commitment that every
/// 31-bit proof is built from does not depend on the thread count.
#[test]
fn koalabear_coset_lde_identical_under_every_thread_count() {
    batch_commit_sweep::<Poseidon2KbSponge>();
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
