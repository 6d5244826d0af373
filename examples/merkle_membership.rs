//! Zero-knowledge Merkle membership — the canonical blockchain workload
//! the paper's introduction motivates: prove a record is in a committed
//! Merkle tree without revealing which one (or its contents).
//!
//! Builds the statement with the in-circuit Poseidon gadgets, proves it
//! with the Plonk prover, and checks the verifier only learns the root.
//!
//! Run with: `cargo run --release --example merkle_membership`

use unizk_field::{Field, Goldilocks};
use unizk_hash::MerkleTree;
use unizk_plonk::gadgets::{leaf_digest_gadget, merkle_membership_gadget};
use unizk_plonk::{CircuitBuilder, CircuitConfig, Target};

fn main() {
    // A committed set of 8 records (say, account states).
    let leaves: Vec<Vec<Goldilocks>> = (0..8u64)
        .map(|i| vec![Goldilocks::from_u64(9_000 + i), Goldilocks::from_u64(31 * i)])
        .collect();
    let tree = MerkleTree::new(leaves.clone());
    println!("committed 8 records; root = {}", tree.root());

    // The prover privately knows record #5 and its path.
    let secret_index = 5usize;
    let opening = tree.prove(secret_index);
    let depth = opening.siblings.len();

    // Statement: "I know a record and a path to the public root".
    let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
    let leaf_targets: Vec<Target> = (0..2).map(|_| b.add_input()).collect();
    let leaf_digest = leaf_digest_gadget(&mut b, &leaf_targets);
    let bit_targets: Vec<Target> = (0..depth).map(|_| b.add_input()).collect();
    let sibling_targets: Vec<[Target; 4]> = (0..depth)
        .map(|_| core::array::from_fn(|_| b.add_input()))
        .collect();
    let root_targets: [Target; 4] = core::array::from_fn(|_| b.add_input());
    for &t in &root_targets {
        b.register_public_input(t);
    }
    merkle_membership_gadget(&mut b, leaf_digest, &bit_targets, &sibling_targets, root_targets);
    let circuit = b.build();
    println!(
        "membership circuit: {} rows x {} wires ({} Poseidon permutations in-circuit)",
        circuit.rows,
        circuit.config.num_wires,
        depth
    );

    // Witness: record, path bits, siblings, then the public root.
    let mut witness: Vec<Goldilocks> = leaves[secret_index].clone();
    for level in 0..depth {
        witness.push(Goldilocks::from_u64(((secret_index >> level) & 1) as u64));
    }
    for s in &opening.siblings {
        witness.extend(s.elements());
    }
    witness.extend(tree.root().elements());

    let start = std::time::Instant::now();
    let proof = circuit.prove(&witness).expect("the record is in the tree");
    println!(
        "proved membership in {:?} ({} kB proof)",
        start.elapsed(),
        proof.size_bytes() / 1000
    );
    assert_eq!(proof.public_inputs, tree.root().elements().to_vec());
    circuit.verify(&proof).expect("verifies");
    println!("verified ✓ — the verifier learned only the root");

    // A fabricated record cannot prove.
    let mut forged = witness.clone();
    forged[0] += Goldilocks::ONE;
    assert!(circuit.prove(&forged).is_err());
    println!("forged record rejected ✓");
}
