//! The wall around the one leaf-digest rule (`merkle::leaf_digests_with`,
//! Plonky2's `hash_or_noop`), over both sponge backends.
//!
//! A leaf of at most four elements is its own digest — the elements in
//! order, then zeros — and costs no permutation; a longer leaf is what
//! `hash_no_pad_with` makes of it. A tree therefore books one permutation
//! per interior node plus the absorbs of its long leaves, and nothing about
//! how the work is cut up — position in a mixed list, chunk, lane width,
//! thread count — shows in a digest or in `B::COUNTER`.
//!
//! The counter is per process: the tests serialise on one lock and restore
//! the parallelism override before releasing it.

use std::sync::Mutex;

use unizk_field::{set_parallelism, Field};
use unizk_hash::merkle::leaf_digests_with;
use unizk_hash::sponge::{hash_no_pad_with, two_to_one_with};
use unizk_hash::{Digest, GenericMerkleTree, Poseidon2KbSponge, PoseidonSponge, SpongeBackend};
use unizk_testkit::trace;

static TRACE_AND_THREADS: Mutex<()> = Mutex::new(());

/// Restores the parallelism override even on assertion failure.
struct KnobGuard;

impl Drop for KnobGuard {
    fn drop(&mut self) {
        set_parallelism(0);
    }
}

fn leaf<B: SpongeBackend>(index: usize, width: usize) -> Vec<B::F> {
    (0..width).map(|j| B::F::from_u64((1 + index * 100 + j) as u64)).collect()
}

/// The rule, written out: what the crate's function is held to.
fn expected<B: SpongeBackend>(leaf: &[B::F]) -> Digest<B::F> {
    if leaf.len() > 4 {
        return hash_no_pad_with::<B>(leaf);
    }
    let mut limbs = [B::F::ZERO; 4];
    limbs[..leaf.len()].copy_from_slice(leaf);
    Digest(limbs)
}

fn a_leaf_that_fits_is_its_digest<B: SpongeBackend>() {
    let _serial = TRACE_AND_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for width in 0..=9 {
        let data = leaf::<B>(7, width);
        trace::reset();
        let digests = leaf_digests_with::<B, _>(&[&data]);
        let spent = trace::snapshot().counter(B::COUNTER);
        assert_eq!(digests, [expected::<B>(&data)], "{} width {width}", B::NAME);
        assert_eq!(spent, u64::from(width > 4) * width.div_ceil(8) as u64, "{} width {width}", B::NAME);
    }
    // Elements then zeros, not zeros then elements, and no length tag.
    let [a, b] = [3, 5].map(B::F::from_u64);
    assert_eq!(leaf_digests_with::<B, _>(&[[a, b]])[0].0, [a, b, B::F::ZERO, B::F::ZERO]);
    assert_eq!(leaf_digests_with::<B, Vec<B::F>>(&[vec![]]), [Digest::ZERO]);

    // Decided per leaf: a hostile list of every width in no order, runs of
    // equal length broken up and restored by the leaves between them.
    let widths = [5, 5, 2, 5, 9, 0, 4, 4, 8, 1, 135, 3, 9, 9, 4, 5, 16, 17, 2, 2, 6, 7, 5, 5, 5, 5, 5, 5, 5, 1];
    let mixed: Vec<Vec<B::F>> = widths.iter().enumerate().map(|(i, &w)| leaf::<B>(i, w)).collect();
    let want: Vec<_> = mixed.iter().map(|l| expected::<B>(l)).collect();
    assert_eq!(leaf_digests_with::<B, _>(&mixed), want, "{}", B::NAME);
}

fn a_tree_books_its_interior_nodes_and_its_long_leaves<B: SpongeBackend>() {
    let _serial = TRACE_AND_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;
    for width in 1..=9usize {
        // 2^9 leaves: four of the builder's 128-leaf work items under threads.
        for k in [0usize, 1, 4, 9] {
            let n = 1usize << k;
            let data: Vec<Vec<B::F>> = (0..n).map(|i| leaf::<B>(i, width)).collect();
            let per_leaf = if width <= 4 { 0 } else { width.div_ceil(8) };
            let want = (n - 1 + n * per_leaf) as u64;
            assert_eq!(want, GenericMerkleTree::<B>::permutation_cost(&vec![width; n]) as u64);
            if width <= 4 {
                assert_eq!(want, (1 << k) - 1);
            } else if width == 5 {
                assert_eq!(want, (1 << (k + 1)) - 1);
            }

            // The tree, one compression at a time from the written-out rule.
            let mut level: Vec<_> = data.iter().map(|l| expected::<B>(l)).collect();
            while level.len() > 1 {
                level = level.chunks(2).map(|p| two_to_one_with::<B>(p[0], p[1])).collect();
            }
            for threads in [1usize, 2, 3] {
                set_parallelism(threads);
                trace::reset();
                let tree = GenericMerkleTree::<B>::new(data.clone());
                let spent = trace::snapshot().counter(B::COUNTER);
                let what = format!("{} width {width}, 2^{k} leaves, {threads} threads", B::NAME);
                assert_eq!(spent, want, "{what}");
                assert_eq!(tree.root(), level[0], "{what}");
            }
        }
    }
}

#[test]
fn goldilocks_leaf_that_fits_is_its_digest() {
    a_leaf_that_fits_is_its_digest::<PoseidonSponge>();
}

#[test]
fn koalabear_leaf_that_fits_is_its_digest() {
    a_leaf_that_fits_is_its_digest::<Poseidon2KbSponge>();
}

#[test]
fn goldilocks_tree_books_its_interior_nodes_and_its_long_leaves() {
    a_tree_books_its_interior_nodes_and_its_long_leaves::<PoseidonSponge>();
}

#[test]
fn koalabear_tree_books_its_interior_nodes_and_its_long_leaves() {
    a_tree_books_its_interior_nodes_and_its_long_leaves::<Poseidon2KbSponge>();
}
