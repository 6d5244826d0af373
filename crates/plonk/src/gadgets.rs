//! In-circuit gadgets: Poseidon hashing and Merkle-path verification
//! inside a Plonk circuit.
//!
//! Hash-based ZKP protocols exist precisely because Poseidon is cheap *in
//! circuit* (paper §2.1) — proving statements about Merkle membership is
//! the canonical blockchain workload (§1). These gadgets build the
//! arithmetic-circuit form of `unizk-hash`'s Poseidon permutation and
//! Merkle verification, and the tests check the in-circuit computation
//! agrees with the native implementation bit for bit.

use unizk_field::{Field, Goldilocks};
use unizk_hash::poseidon::{constants, FULL_ROUNDS, PARTIAL_ROUNDS, WIDTH};

use crate::builder::{CircuitBuilder, Target};

/// `x^7` as four multiplication gates.
fn sbox_gadget(b: &mut CircuitBuilder, x: Target) -> Target {
    let x2 = b.mul(x, x);
    let x4 = b.mul(x2, x2);
    let x6 = b.mul(x4, x2);
    b.mul(x6, x)
}

/// Dense matrix–vector product: `out[i] = Σ_j m[i][j]·s[j]` via
/// `mul_const` + `add` chains.
fn mat_mul_gadget(
    b: &mut CircuitBuilder,
    m: &[[Goldilocks; WIDTH]; WIDTH],
    state: &[Target; WIDTH],
) -> [Target; WIDTH] {
    core::array::from_fn(|i| {
        let mut acc = b.mul_const(state[0], m[i][0]);
        for j in 1..WIDTH {
            let term = b.mul_const(state[j], m[i][j]);
            acc = b.add(acc, term);
        }
        acc
    })
}

/// The full Poseidon permutation as circuit gates, mirroring
/// [`unizk_hash::poseidon_permute`].
#[allow(clippy::needless_range_loop)]
pub fn poseidon_permutation_gadget(
    b: &mut CircuitBuilder,
    state: [Target; WIDTH],
) -> [Target; WIDTH] {
    let cs = constants();
    let mut s = state;

    let full_round = |b: &mut CircuitBuilder, s: [Target; WIDTH], r: usize| {
        let sboxed: [Target; WIDTH] = core::array::from_fn(|i| {
            let t = b.add_const(s[i], cs.round_constants[r][i]);
            sbox_gadget(b, t)
        });
        mat_mul_gadget(b, &cs.mds, &sboxed)
    };

    for r in 0..FULL_ROUNDS / 2 {
        s = full_round(b, s, r);
    }

    // Pre-partial round.
    let added: [Target; WIDTH] =
        core::array::from_fn(|i| b.add_const(s[i], cs.pre_partial_constants[i]));
    s = mat_mul_gadget(b, &cs.pre_mds, &added);

    // Partial rounds: sparse structure keeps these cheap in circuit too.
    for r in 0..PARTIAL_ROUNDS {
        let sboxed0 = sbox_gadget(b, s[0]);
        let s0 = b.add_const(sboxed0, cs.partial_round_constants[r]);
        // out[0] = u·state (with the updated s0).
        let mut dot = b.mul_const(s0, cs.sparse_u[r][0]);
        for j in 1..WIDTH {
            let term = b.mul_const(s[j], cs.sparse_u[r][j]);
            dot = b.add(dot, term);
        }
        let mut out = s;
        out[0] = dot;
        for j in 1..WIDTH {
            let vj = b.mul_const(s0, cs.sparse_v[r][j]);
            let ej = b.mul_const(s[j], cs.sparse_diag[r][j]);
            out[j] = b.add(vj, ej);
        }
        s = out;
    }

    for r in FULL_ROUNDS / 2..FULL_ROUNDS {
        s = full_round(b, s, r);
    }
    s
}

/// Hashes up to 8 elements to a 4-element digest in circuit (one absorb of
/// [`unizk_hash::hash_no_pad`]).
///
/// # Panics
///
/// Panics if `input` is empty or longer than the sponge rate (8).
pub fn hash_no_pad_gadget(b: &mut CircuitBuilder, input: &[Target]) -> [Target; 4] {
    assert!(
        !input.is_empty() && input.len() <= 8,
        "single-absorb gadget takes 1..=8 elements"
    );
    let zero = b.constant(Goldilocks::ZERO);
    let state: [Target; WIDTH] =
        core::array::from_fn(|i| if i < input.len() { input[i] } else { zero });
    let out = poseidon_permutation_gadget(b, state);
    [out[0], out[1], out[2], out[3]]
}

/// The digest of a Merkle leaf in circuit, the twin of
/// [`unizk_hash::merkle::leaf_digests_with`]: at most four targets are the
/// digest themselves — the targets in order, then the zero constant, no
/// permutation — and a longer leaf goes through [`hash_no_pad_gadget`].
/// As natively, the circuit fixes the leaf width: it is the number of targets.
///
/// # Panics
///
/// Panics if `input` is longer than the sponge rate (8).
pub fn leaf_digest_gadget(b: &mut CircuitBuilder, input: &[Target]) -> [Target; 4] {
    if input.len() > 4 {
        return hash_no_pad_gadget(b, input);
    }
    let zero = b.constant(Goldilocks::ZERO);
    core::array::from_fn(|i| input.get(i).copied().unwrap_or(zero))
}

/// Hashes two digests into their parent (the Merkle interior-node rule of
/// paper §5.3: 4 + 4 elements, zero padded).
pub fn two_to_one_gadget(
    b: &mut CircuitBuilder,
    left: [Target; 4],
    right: [Target; 4],
) -> [Target; 4] {
    let zero = b.constant(Goldilocks::ZERO);
    let state: [Target; WIDTH] = core::array::from_fn(|i| match i {
        0..=3 => left[i],
        4..=7 => right[i - 4],
        _ => zero,
    });
    let out = poseidon_permutation_gadget(b, state);
    [out[0], out[1], out[2], out[3]]
}

/// Constrains `bit` to be boolean (`b² = b`).
pub fn assert_boolean(b: &mut CircuitBuilder, bit: Target) {
    let sq = b.mul(bit, bit);
    b.assert_equal(sq, bit);
}

/// `if bit { x } else { y }` as `bit·(x − y) + y`.
pub fn select(b: &mut CircuitBuilder, bit: Target, x: Target, y: Target) -> Target {
    let diff = b.sub(x, y);
    let scaled = b.mul(bit, diff);
    b.add(scaled, y)
}

/// Recomputes a Merkle root from a leaf digest, the path bits (LSB first:
/// `1` = current node is the right child), and the sibling digests, then
/// constrains it to equal `expected_root`.
///
/// # Panics
///
/// Panics if `bits.len() != siblings.len()`.
pub fn merkle_membership_gadget(
    b: &mut CircuitBuilder,
    leaf_digest: [Target; 4],
    bits: &[Target],
    siblings: &[[Target; 4]],
    expected_root: [Target; 4],
) {
    assert_eq!(bits.len(), siblings.len(), "one bit per level");
    let mut current = leaf_digest;
    for (&bit, sibling) in bits.iter().zip(siblings) {
        assert_boolean(b, bit);
        // left = bit ? sibling : current; right = bit ? current : sibling.
        let left: [Target; 4] =
            core::array::from_fn(|i| select(b, bit, sibling[i], current[i]));
        let right: [Target; 4] =
            core::array::from_fn(|i| select(b, bit, current[i], sibling[i]));
        current = two_to_one_gadget(b, left, right);
    }
    for i in 0..4 {
        b.assert_equal(current[i], expected_root[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitConfig;
    use unizk_hash::{hash_no_pad, poseidon_permute, MerkleTree};

    fn g(n: u64) -> Goldilocks {
        Goldilocks::from_u64(n)
    }

    #[test]
    fn in_circuit_permutation_matches_native() {
        let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
        let inputs: [Target; WIDTH] = core::array::from_fn(|_| b.add_input());
        let out = poseidon_permutation_gadget(&mut b, inputs);
        // Pin the outputs to the native permutation of a known state.
        let mut native: [Goldilocks; WIDTH] = core::array::from_fn(|i| g(100 + i as u64));
        let witness: Vec<Goldilocks> = native.to_vec();
        poseidon_permute(&mut native);
        for (t, v) in out.iter().zip(native.iter()) {
            b.assert_constant(*t, *v);
        }
        let circuit = b.build();
        let proof = circuit.prove(&witness).expect("in-circuit == native");
        circuit.verify(&proof).expect("verifies");
    }

    #[test]
    fn in_circuit_permutation_rejects_wrong_output() {
        let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
        let inputs: [Target; WIDTH] = core::array::from_fn(|_| b.add_input());
        let out = poseidon_permutation_gadget(&mut b, inputs);
        let mut native: [Goldilocks; WIDTH] = core::array::from_fn(|i| g(100 + i as u64));
        let witness: Vec<Goldilocks> = native.to_vec();
        poseidon_permute(&mut native);
        // Claim a wrong first output element.
        b.assert_constant(out[0], native[0] + Goldilocks::ONE);
        let circuit = b.build();
        assert!(circuit.prove(&witness).is_err());
    }

    #[test]
    fn hash_gadget_matches_native() {
        let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
        let inputs: Vec<Target> = (0..5).map(|_| b.add_input()).collect();
        let digest = hash_no_pad_gadget(&mut b, &inputs);
        let values: Vec<Goldilocks> = (0..5u64).map(|i| g(7 * i + 1)).collect();
        let native = hash_no_pad(&values);
        for (t, v) in digest.iter().zip(native.elements()) {
            b.assert_constant(*t, v);
        }
        let circuit = b.build();
        let proof = circuit.prove(&values).expect("proves");
        circuit.verify(&proof).expect("verifies");
    }

    #[test]
    fn merkle_membership_proves_a_real_tree_opening() {
        // Both sides of the leaf-digest rule: a leaf that is its own digest
        // and one that is absorbed.
        membership_of_a_leaf_of(2);
        membership_of_a_leaf_of(5);
    }

    fn membership_of_a_leaf_of(width: u64) {
        // Build a native tree, open leaf 5, and prove membership in circuit.
        let leaves: Vec<Vec<Goldilocks>> =
            (0..8u64).map(|i| (1..=width).map(|j| g(1000 * j + i)).collect()).collect();
        let tree = MerkleTree::new(leaves.clone());
        let index = 5usize;
        let opening = tree.prove(index);

        let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
        // Private: the leaf contents and the path.
        let leaf_targets: Vec<Target> = (0..width).map(|_| b.add_input()).collect();
        let leaf_digest = leaf_digest_gadget(&mut b, &leaf_targets);
        let bit_targets: Vec<Target> = (0..3).map(|_| b.add_input()).collect();
        let sibling_targets: Vec<[Target; 4]> = (0..3)
            .map(|_| core::array::from_fn(|_| b.add_input()))
            .collect();
        // Public: the root.
        let root_targets: [Target; 4] = core::array::from_fn(|_| b.add_input());
        for &t in &root_targets {
            b.register_public_input(t);
        }
        merkle_membership_gadget(&mut b, leaf_digest, &bit_targets, &sibling_targets, root_targets);
        let circuit = b.build();

        // Witness: leaf, bits (LSB first), siblings, root.
        let mut witness: Vec<Goldilocks> = leaves[index].clone();
        for level in 0..3 {
            witness.push(g(((index >> level) & 1) as u64));
        }
        // placeholder: siblings follow bits in input order
        let mut sibs = Vec::new();
        for s in &opening.siblings {
            sibs.extend(s.elements());
        }
        witness.extend(sibs);
        witness.extend(tree.root().elements());

        let proof = circuit.prove(&witness).expect("membership holds");
        assert_eq!(proof.public_inputs, tree.root().elements().to_vec());
        circuit.verify(&proof).expect("verifies");

        // A wrong root must not prove.
        let mut bad = witness.clone();
        let n = bad.len();
        bad[n - 1] += Goldilocks::ONE;
        assert!(circuit.prove(&bad).is_err());
    }

    #[test]
    fn select_and_boolean_gadgets() {
        let mut b = CircuitBuilder::new(CircuitConfig::for_testing());
        let bit = b.add_input();
        assert_boolean(&mut b, bit);
        let x = b.constant(g(10));
        let y = b.constant(g(20));
        let sel = select(&mut b, bit, x, y);
        b.register_public_input(sel);
        let circuit = b.build();

        let p1 = circuit.prove(&[g(1)]).expect("bit = 1");
        assert_eq!(p1.public_inputs, vec![g(10)]);
        let p0 = circuit.prove(&[g(0)]).expect("bit = 0");
        assert_eq!(p0.public_inputs, vec![g(20)]);
        // Non-boolean selector rejected.
        assert!(circuit.prove(&[g(2)]).is_err());
    }
}
