//! Edge cases for the hash substrate: degenerate Merkle trees, openings at
//! the domain boundaries, chunked-vs-unchunked leaf hashing, leaf tables
//! that are no matrix, and duplex challenger absorb lengths crossing every
//! buffer boundary.
//!
//! The chunked hashing paths in `merkle` are execution strategies; this
//! suite pins the claim that chunk size and worker count are invisible in
//! every digest. Tests that flip the process-global parallelism override
//! serialize on a lock and restore the default before releasing it.

use std::sync::Mutex;

use unizk_field::{set_parallelism, Field, Goldilocks};
use unizk_hash::{hash_no_pad, two_to_one, Challenger, Digest, MerkleTree, SPONGE_RATE};

static PARALLELISM_KNOB: Mutex<()> = Mutex::new(());

/// Restores the parallelism override even on assertion failure.
struct KnobGuard;

impl Drop for KnobGuard {
    fn drop(&mut self) {
        set_parallelism(0);
    }
}

fn g(n: u64) -> Goldilocks {
    Goldilocks::from_u64(n)
}

/// `n` deterministic leaves of `width` elements: element `j` of leaf `i` is
/// `100·i + j`. The tests draw widths from 3–7, both sides of the
/// leaf-digest rule.
fn leaves(n: usize, width: usize) -> Vec<Vec<Goldilocks>> {
    (0..n)
        .map(|i| (0..width).map(|j| g((i * 100 + j) as u64)).collect())
        .collect()
}

/// The leaf-digest rule, spelled out here rather than taken from the crate:
/// a leaf that fits in a digest is the digest, a longer one is absorbed
/// (`tests/leaf_digests.rs` holds `leaf_digests_with` itself to this).
fn leaf_digest(leaf: &[Goldilocks]) -> Digest {
    if leaf.len() <= 4 {
        Digest::from_partial(leaf)
    } else {
        hash_no_pad(leaf)
    }
}

#[test]
fn single_leaf_tree_is_the_leaf_hash() {
    // A leaf of three or four elements is its own digest; one of five or
    // more is absorbed.
    for width in 3..=7 {
        let data = leaves(1, width);
        let tree = MerkleTree::new(data.clone());
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.num_leaves(), 1);
        // With no interior nodes the commitment is the leaf digest itself.
        assert_eq!(tree.root(), leaf_digest(&data[0]));
        let proof = tree.prove(0);
        assert!(proof.siblings.is_empty());
        assert_eq!(proof.size_bytes(), 0);
        assert!(MerkleTree::verify(tree.root(), 0, &data[0], &proof));
        // An out-of-range index must be rejected, not wrap around.
        assert!(!MerkleTree::verify(tree.root(), 1, &data[0], &proof));
    }
    assert_eq!(MerkleTree::new(leaves(1, 3)).root().0, [g(0), g(1), g(2), g(0)]);
}

#[test]
fn two_leaf_tree_is_one_compression() {
    // Widths 3 and 4, then 5 to 7: both sides of the leaf-digest rule.
    for width in 3..=7 {
        two_leaf_tree(&leaves(2, width));
    }
}

fn two_leaf_tree(data: &[Vec<Goldilocks>]) {
    let tree = MerkleTree::new(data.to_vec());
    assert_eq!(tree.height(), 1);
    let (h0, h1) = (leaf_digest(&data[0]), leaf_digest(&data[1]));
    assert_eq!(tree.root(), two_to_one(h0, h1));
    // Each opening is exactly the sibling digest.
    assert_eq!(tree.prove(0).siblings, vec![h1]);
    assert_eq!(tree.prove(1).siblings, vec![h0]);
    for i in [0, 1] {
        assert!(MerkleTree::verify(tree.root(), i, &data[i], &tree.prove(i)));
    }
    // The two openings are not interchangeable: position is authenticated.
    assert!(!MerkleTree::verify(tree.root(), 1, &data[0], &tree.prove(0)));
    assert!(!MerkleTree::verify(tree.root(), 0, &data[1], &tree.prove(1)));
}

#[test]
fn openings_at_first_and_last_leaf() {
    for (n, width) in [(2usize, 3), (4, 5), (32, 7), (128, 4)] {
        let data = leaves(n, width);
        let tree = MerkleTree::new(data.clone());
        for index in [0, n - 1] {
            let proof = tree.prove(index);
            assert_eq!(proof.siblings.len(), tree.height());
            assert!(
                MerkleTree::verify(tree.root(), index, &data[index], &proof),
                "opening at index {index} of {n} leaves"
            );
        }
        // A boundary proof replayed at the opposite boundary must fail.
        assert!(!MerkleTree::verify(tree.root(), n - 1, &data[0], &tree.prove(0)));
        assert!(!MerkleTree::verify(tree.root(), 0, &data[n - 1], &tree.prove(n - 1)));
    }
}

#[test]
fn hash_leaves_chunking_is_invisible() {
    let _lock = PARALLELISM_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;
    // Under more than one thread the builder hands each worker a piece of
    // whole 1024-leaf subtrees: up to 1024 leaves are one piece on the
    // calling thread, 4096 one or two subtrees per worker. The leaf level is
    // read back through the openings (leaf `i` is the first sibling of leaf
    // `i ^ 1`).
    for (n, width) in [(128usize, 4), (256, 7), (1024, 5), (4096, 5)] {
        let data = leaves(n, width);
        let reference: Vec<_> = data.iter().map(|l| leaf_digest(l)).collect();
        for threads in [1usize, 3, 8] {
            set_parallelism(threads);
            let tree = MerkleTree::new(data.clone());
            let level: Vec<_> = (0..n).map(|i| tree.prove(i ^ 1).siblings[0]).collect();
            assert_eq!(level, reference, "n={n} threads={threads}");
        }
    }
}

#[test]
fn merkle_root_invariant_under_parallelism() {
    let _lock = PARALLELISM_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;
    let data = leaves(256, 6);
    set_parallelism(1);
    let serial = MerkleTree::new(data.clone());
    for threads in [2usize, 4, 0] {
        set_parallelism(threads);
        let tree = MerkleTree::new(data.clone());
        assert_eq!(tree.root(), serial.root(), "root differs at threads={threads}");
        assert_eq!(
            tree.prove(255).siblings,
            serial.prove(255).siblings,
            "proof differs at threads={threads}"
        );
    }
}

/// A tree binds leaves of one width (`merkle::leaf_digests_with`), so the
/// `Vec<Vec<F>>` form of a leaf table is refused unless it is a matrix.
#[test]
#[should_panic(expected = "width of the first")]
fn a_tree_over_leaves_of_unequal_width_is_refused() {
    let mut data = leaves(4, 5);
    data[2].push(g(1));
    let _ = MerkleTree::new(data);
}

#[test]
#[should_panic(expected = "at least one element")]
fn a_tree_over_empty_leaves_is_refused() {
    let _ = MerkleTree::new(vec![Vec::<Goldilocks>::new(); 4]);
}

#[test]
fn challenger_absorb_lengths_match_unbatched_reference() {
    // Lengths 0..=24 cross the empty transcript, partial buffers, exact
    // rate multiples (8, 16, 24), and every off-by-one around them.
    for len in 0usize..=24 {
        let xs: Vec<Goldilocks> = (0..len).map(|i| g((i as u64 + 1) * 0x9E37)).collect();

        let mut batched = Challenger::new();
        batched.observe_slice(&xs);

        let mut unbatched = Challenger::new();
        for &x in &xs {
            unbatched.observe(x);
        }

        // The speculative (grind) kernel must agree with the plain
        // transcript at every pending-buffer depth (len % SPONGE_RATE).
        let probe = g(0xFEED);
        let speculative = batched.speculative_challenger().challenge_batch_uncounted(&[probe]);
        {
            let mut t = unbatched.clone();
            t.observe(probe);
            assert_eq!(speculative, [t.challenge()], "speculative at len={len}");
        }

        assert_eq!(
            batched.challenges(SPONGE_RATE + 2),
            unbatched.challenges(SPONGE_RATE + 2),
            "challenge stream diverges at absorb length {len}"
        );
    }
}

#[test]
fn challenger_digest_and_slice_observation_agree() {
    let d = hash_no_pad(&[g(7), g(8)]);
    let mut via_digest = Challenger::new();
    via_digest.observe_digest(d);
    let mut via_slice = Challenger::new();
    via_slice.observe_slice(&d.0);
    assert_eq!(via_digest.challenge(), via_slice.challenge());
}
