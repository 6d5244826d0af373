//! End-to-end Stark protocol tests over the example AIRs, plus the
//! Starky→Plonky2 aggregation stage of Table 5.

use core::ops::{Add, Mul, Sub};
use std::sync::atomic::{AtomicUsize, Ordering};

use unizk_field::{Field, Goldilocks};
use unizk_plonk::CircuitConfig;
use unizk_stark::{
    aggregate, prove, verify, Air, Boundary, CountdownAir, FibonacciAir, RangeAccumulatorAir,
    StarkConfig, StarkError,
};

#[test]
fn fibonacci_proves_and_verifies() {
    let air = FibonacciAir::new(128);
    let config = StarkConfig::for_testing();
    let proof = prove(&air, &config).expect("satisfiable");
    verify(&air, &proof, &config).expect("verifies");
}

#[test]
fn fibonacci_expected_output_is_correct() {
    let air = FibonacciAir::new(8);
    // fib: 0 1 1 2 3 5 8 13 21 -> fib(8) = 21.
    assert_eq!(air.expected_output::<Goldilocks>(), Goldilocks::from_u64(21));
}

#[test]
fn insecure_parameters_are_refused_before_proving() {
    let air = FibonacciAir::new(128);

    // Security shortfall: 2 queries · 1 rate bit + 4 pow bits = 6 < 8.
    let mut starved = StarkConfig::for_testing();
    starved.fri.num_queries = 2;
    match prove(&air, &starved) {
        Err(StarkError::InsecureParameters(diags)) => {
            assert!(diags.contains("P01"), "{diags}");
        }
        other => panic!("expected InsecureParameters, got {other:?}"),
    }

    // Unsatisfiable grind: 64 leading zero bits of a 64-bit challenge.
    let mut grindy = StarkConfig::for_testing();
    grindy.fri.proof_of_work_bits = 64;
    match prove(&air, &grindy) {
        Err(StarkError::InsecureParameters(diags)) => {
            assert!(diags.contains("P04"), "{diags}");
        }
        other => panic!("expected InsecureParameters, got {other:?}"),
    }
}

#[test]
fn countdown_proves_and_verifies() {
    let air = CountdownAir::new(64);
    let config = StarkConfig::for_testing();
    let proof = prove(&air, &config).expect("satisfiable");
    verify(&air, &proof, &config).expect("verifies");
}

#[test]
fn quadratic_air_proves_and_verifies() {
    let air = RangeAccumulatorAir::new(256);
    let config = StarkConfig::for_testing();
    let proof = prove(&air, &config).expect("satisfiable");
    verify(&air, &proof, &config).expect("verifies");
}

/// The one fault a [`FaultyAir`] carries over an honest Fibonacci AIR.
enum Fault {
    /// One interior trace cell is off by one.
    CorruptCell,
    /// The claimed output (boundary 2) is off by one.
    WrongClaim,
    /// Constraint evaluation panics at its sixth call: one LDE position
    /// at one lane, one row of positions on lanes. Any lane width reaches
    /// it (64 rows at blowup 2 are 128 positions, eight rows of sixteen).
    PanicAtOnePosition,
}

struct FaultyAir {
    inner: FibonacciAir,
    fault: Fault,
    calls: AtomicUsize,
}

impl FaultyAir {
    fn new(rows: usize, fault: Fault) -> Self {
        Self { inner: FibonacciAir::new(rows), fault, calls: AtomicUsize::new(0) }
    }
}

impl Air for FaultyAir {
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn generate_trace(&self) -> Vec<Vec<Goldilocks>> {
        let mut t = self.inner.generate_trace();
        if let Fault::CorruptCell = self.fault {
            t[1][self.rows() / 2] += Goldilocks::ONE;
        }
        t
    }
    fn eval_transition<E>(&self, local: &[E], next: &[E], out: &mut [E])
    where
        E: Copy + Add<Output = E> + Sub<Output = E> + Mul<Output = E> + From<Goldilocks>,
    {
        if let Fault::PanicAtOnePosition = self.fault {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            assert!(call != 5, "FaultyAir refuses one LDE position");
        }
        self.inner.eval_transition(local, next, out);
    }
    fn num_transition_constraints(&self) -> usize {
        self.inner.num_transition_constraints()
    }
    fn boundaries(&self) -> Vec<Boundary> {
        let mut b = self.inner.boundaries();
        if let Fault::WrongClaim = self.fault {
            b[2].value += Goldilocks::ONE;
        }
        b
    }
}

#[test]
fn unsatisfied_trace_cannot_prove() {
    let air = FaultyAir::new(64, Fault::CorruptCell);
    let config = StarkConfig::for_testing();
    assert_eq!(prove(&air, &config).unwrap_err(), StarkError::UnsatisfiedConstraints);
}

#[test]
fn wrong_boundary_cannot_prove() {
    // Claim the wrong Fibonacci output: honest trace, wrong boundary.
    let air = FaultyAir::new(64, Fault::WrongClaim);
    let config = StarkConfig::for_testing();
    assert_eq!(prove(&air, &config).unwrap_err(), StarkError::UnsatisfiedConstraints);
}

/// The AIR's own panic reaches `prove`'s caller whether the quotient runs
/// on the calling thread or on workers.
#[test]
fn a_panicking_air_reaches_the_caller_with_its_own_message() {
    let config = StarkConfig::for_testing();
    for threads in [1, 4] {
        unizk_field::set_parallelism(threads);
        let air = FaultyAir::new(64, Fault::PanicAtOnePosition);
        let panic = std::panic::catch_unwind(|| prove(&air, &config))
            .expect_err("the AIR's panic reaches the caller");
        let message = panic.downcast_ref::<&str>().copied();
        assert_eq!(message, Some("FaultyAir refuses one LDE position"), "threads={threads}");
    }
    unizk_field::set_parallelism(0);
}

#[test]
fn tampered_proof_rejected() {
    let air = FibonacciAir::new(64);
    let config = StarkConfig::for_testing();
    let mut proof = prove(&air, &config).expect("ok");
    proof.fri.openings[0][0][0] += unizk_field::Ext2::ONE;
    assert!(verify(&air, &proof, &config).is_err());
}

#[test]
fn proof_for_wrong_air_rejected() {
    // A Fibonacci proof should not verify against a different instance
    // size (domain mismatch) or a different AIR.
    let air64 = FibonacciAir::new(64);
    let air128 = FibonacciAir::new(128);
    let config = StarkConfig::for_testing();
    let proof = prove(&air64, &config).expect("ok");
    assert!(verify(&air128, &proof, &config).is_err());

    let countdown = CountdownAir::new(64);
    // Different width -> malformed.
    assert!(verify(&countdown, &proof, &config).is_err());
}

#[test]
fn starky_proofs_are_larger_than_plonky2_style() {
    // Blowup 2 with many queries yields the "several MBs" effect the paper
    // mentions; at test scale we just confirm the monotonic direction:
    // starky-config proofs are larger than plonky2-config proofs of the
    // same trace once queries are accounted for.
    let air = FibonacciAir::new(256);
    let starky = StarkConfig::standard();
    let proof = prove(&air, &starky).expect("ok");
    verify(&air, &proof, &starky).expect("verifies");
    // 84 queries * (trace + quotient + fold paths); must be substantial.
    assert!(proof.size_bytes() > 100_000, "got {}", proof.size_bytes());
}

#[test]
fn aggregation_compresses_large_base_proofs() {
    let air = FibonacciAir::new(256);
    let starky = StarkConfig::standard();
    let base = prove(&air, &starky).expect("ok");

    // Recursive stage with reduced FRI queries for test speed (full config
    // in the Table 5 harness).
    let mut config = CircuitConfig::for_testing();
    config.num_wires = 12;
    let agg = aggregate(&base, config).expect("aggregates");
    agg.plonk_proof.size_bytes();
    assert!(agg.size_bytes() < base.size_bytes());
}

#[test]
fn aggregation_digest_binds_base_proof() {
    let air = FibonacciAir::new(64);
    let starky = StarkConfig::for_testing();
    let base1 = prove(&air, &starky).expect("ok");

    let air2 = FibonacciAir::new(128);
    let base2 = prove(&air2, &starky).expect("ok");

    let cfg = CircuitConfig::for_testing;
    let agg1 = aggregate(&base1, cfg()).expect("ok");
    let agg2 = aggregate(&base2, cfg()).expect("ok");
    assert_ne!(agg1.base_digest, agg2.base_digest);
}

#[test]
fn stark_proof_bytes_roundtrip() {
    let air = FibonacciAir::new(64);
    let config = StarkConfig::for_testing();
    let proof = prove(&air, &config).expect("ok");
    let bytes = proof.to_bytes();
    let back = unizk_stark::StarkProof::from_bytes(&bytes).expect("decodes");
    assert_eq!(back.to_bytes(), bytes);
    verify(&air, &back, &config).expect("verifies after roundtrip");
    assert!(unizk_stark::StarkProof::<Goldilocks>::from_bytes(&bytes[..10]).is_err());
}

#[test]
fn aggregate_many_amortizes_one_recursion() {
    // Two base proofs, one recursive proof — smaller on the wire than the
    // two bases combined (the Table 6 amortization).
    let config = StarkConfig::standard();
    let bases: Vec<_> = [256usize, 512]
        .iter()
        .map(|&n| prove(&FibonacciAir::new(n), &config).expect("ok"))
        .collect();
    let mut rec_config = CircuitConfig::for_testing();
    rec_config.num_wires = 12;
    let agg = unizk_stark::aggregate_many(&bases, rec_config).expect("aggregates");
    let bases_bytes: usize = bases.iter().map(|b| b.size_bytes()).sum();
    assert!(agg.size_bytes() < bases_bytes);
}

mod koalabear_stack {
    //! The 31-bit stack end-to-end: `StarkConfig<KoalaBear, Poseidon2>`
    //! proving and verifying the same AIRs as the Goldilocks tests above,
    //! with the degree-4 extension carrying the FRI openings.

    use unizk_field::{Field, KoalaBear};
    use unizk_stark::{
        prove, verify, FibonacciAir, KbStarkConfig, RangeAccumulatorAir, StarkError,
    };

    #[test]
    fn fibonacci_proves_and_verifies_over_koalabear() {
        let air = FibonacciAir::new(128);
        let config = KbStarkConfig::for_testing_over();
        let proof = prove(&air, &config).expect("satisfiable");
        verify(&air, &proof, &config).expect("verifies");
    }

    #[test]
    fn range_accumulator_proves_and_verifies_over_koalabear() {
        let air = RangeAccumulatorAir::new(256);
        let config = KbStarkConfig::for_testing_over();
        let proof = prove(&air, &config).expect("satisfiable");
        verify(&air, &proof, &config).expect("verifies");
    }

    #[test]
    fn standard_koalabear_config_proves_with_four_challenges() {
        let air = FibonacciAir::new(64);
        let config = KbStarkConfig::standard_over();
        assert_eq!(config.num_challenges, 4);
        let proof = prove(&air, &config).expect("satisfiable");
        verify(&air, &proof, &config).expect("verifies");
    }

    #[test]
    fn koalabear_proof_bytes_roundtrip_uses_narrow_widths() {
        let air = FibonacciAir::new(64);
        let config = KbStarkConfig::for_testing_over();
        let proof = prove(&air, &config).expect("ok");
        let bytes = proof.to_bytes();
        let back = unizk_stark::StarkProof::<KoalaBear>::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.to_bytes(), bytes);
        verify(&air, &back, &config).expect("verifies after roundtrip");
        // Narrow wire widths: digests are 16 bytes, base elements 4; the
        // wire adds a 4-byte length prefix per variable-length vector.
        let prefixes = proof.fri.num_length_prefixes() * 4;
        assert_eq!(proof.size_bytes() + prefixes, bytes.len());
    }

    #[test]
    fn koalabear_tampered_proof_rejected() {
        let air = FibonacciAir::new(64);
        let config = KbStarkConfig::for_testing_over();
        let mut proof = prove(&air, &config).expect("ok");
        proof.fri.openings[0][0][0] += unizk_field::KbExt4::ONE;
        assert!(verify(&air, &proof, &config).is_err());
    }

    #[test]
    fn insecure_koalabear_parameters_refused_with_extension_aware_p01() {
        // 2 challenge rounds of 31-bit challenges cap soundness at 62 bits,
        // short of the 100-bit target: the prover must refuse up front.
        let air = FibonacciAir::new(128);
        let mut config = KbStarkConfig::standard_over();
        config.num_challenges = 2;
        match prove(&air, &config) {
            Err(StarkError::InsecureParameters(diags)) => {
                assert!(diags.contains("P01"), "{diags}");
            }
            other => panic!("expected InsecureParameters, got {other:?}"),
        }
    }
}
