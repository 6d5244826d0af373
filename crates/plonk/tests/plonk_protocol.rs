//! End-to-end Plonk protocol tests: satisfiable circuits prove and verify,
//! unsatisfiable witnesses are caught, and tampered proofs are rejected.

use unizk_field::{Field, Goldilocks};
use unizk_fri::FriConfig;
use unizk_plonk::{CircuitBuilder, CircuitConfig, PlonkError};

fn g(n: u64) -> Goldilocks {
    Goldilocks::from_u64(n)
}

/// The paper's running example: (x0 + x1) · (x2 · x3) = 99.
fn paper_example() -> unizk_plonk::CircuitData {
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x0 = b.add_input();
    let x1 = b.add_input();
    let x2 = b.add_input();
    let x3 = b.add_input();
    let sum = b.add(x0, x1);
    let prod = b.mul(x2, x3);
    let out = b.mul(sum, prod);
    b.assert_constant(out, g(99));
    b.build()
}

#[test]
fn paper_example_proves_and_verifies() {
    let circuit = paper_example();
    let proof = circuit
        .prove(&[g(4), g(5), g(1), g(11)])
        .expect("witness satisfies");
    circuit.verify(&proof).expect("verifies");
}

#[test]
fn paper_example_rejects_bad_witness() {
    let circuit = paper_example();
    let err = circuit.prove(&[g(1), g(1), g(1), g(1)]).unwrap_err();
    assert!(matches!(err, PlonkError::CopyConflict { .. } | PlonkError::UnsatisfiedGate { .. }),
        "{err:?}");
}

#[test]
fn wrong_input_count_rejected() {
    let circuit = paper_example();
    assert_eq!(
        circuit.prove(&[g(1)]).unwrap_err(),
        PlonkError::WrongInputCount { expected: 4, got: 1 }
    );
}

#[test]
fn fibonacci_chain_proves() {
    // x_{n+1} = x_n + x_{n-1}, prove the 40th number from inputs 1, 1.
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let mut a = b.add_input();
    let mut c = b.add_input();
    for _ in 0..40 {
        let next = b.add(a, c);
        a = c;
        c = next;
    }
    // fib: 1,1,2,...  40 steps from (1,1) gives fib(42) = 267914296.
    b.assert_constant(c, g(267914296));
    let circuit = b.build();
    let proof = circuit.prove(&[g(1), g(1)]).expect("satisfiable");
    circuit.verify(&proof).expect("verifies");
}

#[test]
fn factorial_chain_proves() {
    // Running product 1*2*...*10 = 3628800, using mul_const gates.
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let mut acc = b.constant(g(1));
    for k in 2..=10u64 {
        acc = b.mul_const(acc, g(k));
    }
    b.assert_constant(acc, g(3_628_800));
    let circuit = b.build();
    let proof = circuit.prove(&[]).expect("satisfiable");
    circuit.verify(&proof).expect("verifies");
}

#[test]
fn copy_constraints_enforced_across_gates() {
    // assert_equal between two independent computations.
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x = b.add_input();
    let y = b.add_input();
    let x2 = b.mul(x, x);
    let y_plus = b.add_const(y, g(5));
    b.assert_equal(x2, y_plus);
    let circuit = b.build();
    // x=3 -> x2=9; y=4 -> y+5=9. Satisfiable.
    let proof = circuit.prove(&[g(3), g(4)]).expect("satisfiable");
    circuit.verify(&proof).expect("verifies");
    // x=3, y=5 -> 9 != 10.
    assert!(circuit.prove(&[g(3), g(5)]).is_err());
}

#[test]
fn wide_circuit_proves() {
    // More wires than one partial-product chunk (exercises partials).
    let mut config = CircuitConfig::for_testing();
    config.num_wires = 19; // 3 chunks of 7
    let mut b = CircuitBuilder::new(config);
    let x = b.add_input();
    let y = b.mul(x, x);
    b.assert_constant(y, g(49));
    let circuit = b.build();
    assert_eq!(circuit.config.num_chunks(), 3);
    let proof = circuit.prove(&[g(7)]).expect("satisfiable");
    circuit.verify(&proof).expect("verifies");
}

#[test]
fn sub_and_affine_helpers() {
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x = b.add_input();
    let y = b.add_input();
    let d = b.sub(x, y);
    let e = b.affine(d, g(3), g(1)); // 3(x-y) + 1
    b.assert_constant(e, g(16)); // x-y = 5
    let circuit = b.build();
    let proof = circuit.prove(&[g(12), g(7)]).expect("satisfiable");
    circuit.verify(&proof).expect("verifies");
}

#[test]
fn tampered_wires_root_rejected() {
    let circuit = paper_example();
    let mut proof = circuit.prove(&[g(4), g(5), g(1), g(11)]).expect("ok");
    proof.wires_root = unizk_hash::Digest::ZERO;
    assert!(circuit.verify(&proof).is_err());
}

#[test]
fn tampered_quotient_root_rejected() {
    let circuit = paper_example();
    let mut proof = circuit.prove(&[g(4), g(5), g(1), g(11)]).expect("ok");
    proof.quotient_root = proof.perm_root;
    assert!(circuit.verify(&proof).is_err());
}

#[test]
fn tampered_opening_rejected() {
    let circuit = paper_example();
    let mut proof = circuit.prove(&[g(4), g(5), g(1), g(11)]).expect("ok");
    proof.fri.openings[0][1][0] += unizk_field::Ext2::ONE;
    assert!(circuit.verify(&proof).is_err());
}

#[test]
fn proof_from_other_circuit_rejected() {
    let circuit99 = paper_example();
    // Same shape, different constant.
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x0 = b.add_input();
    let x1 = b.add_input();
    let x2 = b.add_input();
    let x3 = b.add_input();
    let sum = b.add(x0, x1);
    let prod = b.mul(x2, x3);
    let out = b.mul(sum, prod);
    b.assert_constant(out, g(100));
    let circuit100 = b.build();

    let proof = circuit99.prove(&[g(4), g(5), g(1), g(11)]).expect("ok");
    assert!(circuit100.verify(&proof).is_err());
}

#[test]
fn proof_size_reported() {
    let circuit = paper_example();
    let proof = circuit.prove(&[g(4), g(5), g(1), g(11)]).expect("ok");
    // A testing-config proof is small but nonzero; Plonky2-scale proofs are
    // in the 100s of kB (Table 5).
    assert!(proof.size_bytes() > 1000);
}

#[test]
fn standard_config_small_instance() {
    // The full 135-wire, 2-challenge configuration on a small circuit, with
    // reduced queries for test speed.
    let mut config = CircuitConfig::standard();
    config.fri = FriConfig {
        num_queries: 4,
        proof_of_work_bits: 4,
        ..FriConfig::plonky2()
    };
    let mut b = CircuitBuilder::new(config);
    let x = b.add_input();
    let mut acc = x;
    for _ in 0..5 {
        acc = b.mul(acc, x);
    }
    b.assert_constant(acc, g(64)); // 2^6
    let circuit = b.build();
    assert_eq!(circuit.config.num_chunks(), 20);
    let proof = circuit.prove(&[g(2)]).expect("satisfiable");
    circuit.verify(&proof).expect("verifies");
}

#[test]
fn deterministic_proofs() {
    let circuit = paper_example();
    let p1 = circuit.prove(&[g(4), g(5), g(1), g(11)]).expect("ok");
    let p2 = circuit.prove(&[g(4), g(5), g(1), g(11)]).expect("ok");
    assert_eq!(p1.wires_root, p2.wires_root);
    assert_eq!(p1.quotient_root, p2.quotient_root);
}

#[test]
fn public_inputs_prove_and_verify() {
    // x is private; y = x² + 5 is exposed as a public input.
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x = b.add_input();
    let x2 = b.mul(x, x);
    let y = b.add_const(x2, g(5));
    let idx = b.register_public_input(y);
    assert_eq!(idx, 0);
    let circuit = b.build();

    let proof = circuit.prove(&[g(6)]).expect("satisfiable");
    assert_eq!(proof.public_inputs, vec![g(41)]);
    circuit.verify(&proof).expect("verifies");
}

#[test]
fn tampered_public_input_rejected() {
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x = b.add_input();
    let x2 = b.mul(x, x);
    let _ = b.register_public_input(x2);
    let circuit = b.build();

    let mut proof = circuit.prove(&[g(3)]).expect("ok");
    assert_eq!(proof.public_inputs, vec![g(9)]);
    proof.public_inputs[0] = g(10); // claim a different output
    assert!(circuit.verify(&proof).is_err());
}

#[test]
fn wrong_public_input_count_rejected() {
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x = b.add_input();
    let _ = b.register_public_input(x);
    let circuit = b.build();
    let mut proof = circuit.prove(&[g(7)]).expect("ok");
    proof.public_inputs.clear();
    assert_eq!(
        circuit.verify(&proof).unwrap_err(),
        PlonkError::WrongInputCount { expected: 1, got: 0 }
    );
}

#[test]
fn multiple_public_inputs() {
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x = b.add_input();
    let y = b.add_input();
    let s = b.add(x, y);
    let p = b.mul(x, y);
    b.register_public_input(s);
    b.register_public_input(p);
    let circuit = b.build();
    let proof = circuit.prove(&[g(4), g(9)]).expect("ok");
    assert_eq!(proof.public_inputs, vec![g(13), g(36)]);
    circuit.verify(&proof).expect("verifies");
}

#[test]
fn proof_bytes_roundtrip() {
    let circuit = paper_example();
    let proof = circuit.prove(&[g(4), g(5), g(1), g(11)]).expect("ok");
    let bytes = proof.to_bytes();
    let back = unizk_plonk::Proof::from_bytes(&bytes).expect("decodes");
    assert_eq!(back.to_bytes(), bytes);
    // The decoded proof still verifies.
    circuit.verify(&back).expect("verifies after roundtrip");
    // Truncation is rejected.
    assert!(unizk_plonk::Proof::from_bytes(&bytes[..bytes.len() / 2]).is_err());
}

/// The decoder accepts exactly what the encoder writes: no trailing byte,
/// no second spelling of a field element, no length the bytes cannot back.
#[test]
fn only_the_encoding_decodes() {
    use unizk_fri::WireError;
    use unizk_plonk::Proof;

    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let x = b.add_input();
    let y = b.mul(x, x);
    b.register_public_input(y);
    let bytes = b.build().prove(&[g(7)]).expect("ok").to_bytes();

    let mut extended = bytes.clone();
    extended.push(0);
    assert_eq!(Proof::from_bytes(&extended).err(), Some(WireError::TrailingBytes(1)));

    // The public input sits behind the 4-byte count; `p` is `0` misspelt.
    const P: u64 = 0xffff_ffff_0000_0001;
    let mut aliased = bytes.clone();
    aliased[4..12].copy_from_slice(&P.to_le_bytes());
    assert_eq!(Proof::from_bytes(&aliased).err(), Some(WireError::NonCanonical(P)));

    // 2^30 stamped over every offset lands on every length prefix. The
    // public-input count is refused as a length, before anything is
    // reserved for it (the FRI part is the decoder `unizk-stark`'s
    // `hostile_lengths.rs` watches the allocator under); wherever a stamp
    // still decodes it hit payload, and the proof re-encodes to the same
    // bytes.
    let inflated = (1u32 << 30).to_le_bytes();
    for offset in 0..=bytes.len() - inflated.len() {
        let mut hostile = bytes.clone();
        hostile[offset..offset + inflated.len()].copy_from_slice(&inflated);
        match Proof::from_bytes(&hostile) {
            Ok(proof) => assert_eq!(proof.to_bytes(), hostile, "offset {offset}"),
            Err(e) if offset == 0 => assert_eq!(e, WireError::LengthOutOfRange(1 << 30)),
            Err(_) => {}
        }
    }
}
