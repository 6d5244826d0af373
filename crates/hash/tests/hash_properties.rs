//! Property-based tests for the hash layer: Merkle trees over arbitrary
//! shapes, challenger determinism, and sponge collision resistance
//! smoke checks.

use unizk_testkit::prop::prelude::*;
use unizk_field::{Field, Goldilocks};
use unizk_hash::{hash_no_pad, Challenger, MerkleTree};

fn arb_leaf() -> impl Strategy<Value = Vec<Goldilocks>> {
    prop::collection::vec(any::<u64>().prop_map(Goldilocks::from_u64), 1..20)
}

/// `n` leaves of `width` elements, consecutive runs of `words`. A tree binds
/// leaves of one width, so each tree draws one width from the range of
/// [`arb_leaf`]; 32 × 19 words cover every tree below.
fn leaf_table(words: &[u64], n: usize, width: usize) -> Vec<Vec<Goldilocks>> {
    let leaves: Vec<Vec<Goldilocks>> = words
        .chunks_exact(width)
        .take(n)
        .map(|leaf| leaf.iter().map(|&w| Goldilocks::from_u64(w)).collect())
        .collect();
    assert_eq!(leaves.len(), n, "too few words for {n} leaves of width {width}");
    leaves
}

prop! {
    #![cases(24)]

    fn merkle_all_openings_verify(
        log_leaves in 0usize..6,
        width in 1usize..20,
        words in prop::collection::vec(any::<u64>(), 32 * 19),
        query in any::<prop::sample::Index>(),
    ) {
        let n = 1 << log_leaves;
        let leaves = leaf_table(&words, n, width);
        let tree = MerkleTree::new(leaves.clone());
        let idx = query.index(n);
        let proof = tree.prove(idx);
        prop_assert!(MerkleTree::verify(tree.root(), idx, &leaves[idx], &proof));
        // Wrong index fails (when there is another index).
        if n > 1 {
            prop_assert!(!MerkleTree::verify(tree.root(), (idx + 1) % n, &leaves[idx], &proof));
        }
    }

    fn merkle_root_changes_with_any_leaf(
        log_leaves in 1usize..5,
        width in 1usize..20,
        words in prop::collection::vec(any::<u64>(), 32 * 19),
        victim in any::<prop::sample::Index>(),
    ) {
        let n = 1 << log_leaves;
        let leaves = leaf_table(&words, n, width);
        let tree = MerkleTree::new(leaves.clone());
        let mut tweaked = leaves;
        let i = victim.index(n);
        tweaked[i][0] += Goldilocks::ONE;
        prop_assert_ne!(MerkleTree::new(tweaked).root(), tree.root());
    }

    fn hash_distinguishes_inputs(a in arb_leaf(), b in arb_leaf()) {
        if a != b {
            prop_assert_ne!(hash_no_pad(&a), hash_no_pad(&b));
        }
    }

    fn challenger_transcript_determinism(
        observations in prop::collection::vec(any::<u64>(), 0..40),
        draws in 1usize..10,
    ) {
        let mut c1 = Challenger::new();
        let mut c2 = Challenger::new();
        for &o in &observations {
            c1.observe(Goldilocks::from_u64(o));
            c2.observe(Goldilocks::from_u64(o));
        }
        prop_assert_eq!(c1.challenges(draws), c2.challenges(draws));
    }

    fn challenger_sensitive_to_any_observation(
        observations in prop::collection::vec(any::<u64>(), 1..20),
        victim in any::<prop::sample::Index>(),
    ) {
        let mut honest = Challenger::new();
        let mut tampered = Challenger::new();
        let i = victim.index(observations.len());
        for (j, &o) in observations.iter().enumerate() {
            honest.observe(Goldilocks::from_u64(o));
            let v = if j == i { o.wrapping_add(1) } else { o };
            tampered.observe(Goldilocks::from_u64(v));
        }
        prop_assert_ne!(honest.challenge(), tampered.challenge());
    }
}
