//! The wall around the Merkle builder, over both sponge backends.
//!
//! `GenericMerkleTree::new` cuts a tree into pieces of whole subtrees, one
//! per worker, climbs each piece to its subtree roots on its worker and the
//! top levels on the caller. None of that may show: at every thread count,
//! every opening's siblings and the root are those of a tree built one
//! compression at a time from the written-out leaf rule, and the
//! `merkle.trees`, `merkle.leaves` and permutation counters are the same.
//! Heights 0–12 cover trees below, at and above one subtree; the 2^16 tree
//! is the shape of a `stark_narrow_gl` commitment.
//!
//! The counters and the parallelism override are per process: the tests
//! serialise on one lock and restore the override before releasing it.

use std::sync::Mutex;

use unizk_field::{set_parallelism, Field};
use unizk_hash::sponge::{hash_no_pad_with, two_to_one_with};
use unizk_hash::{Digest, GenericMerkleTree, Poseidon2KbSponge, PoseidonSponge, SpongeBackend};
use unizk_testkit::trace;

static TRACE_AND_THREADS: Mutex<()> = Mutex::new(());

const THREADS: [usize; 6] = [1, 2, 3, 4, 5, 8];

/// Restores the parallelism override even on assertion failure.
struct KnobGuard;

impl Drop for KnobGuard {
    fn drop(&mut self) {
        set_parallelism(0);
    }
}

fn leaves<B: SpongeBackend>(n: usize, width: usize) -> Vec<Vec<B::F>> {
    let element = |i: usize, j: usize| B::F::from_u64((i * 1_000_003 + j * 7 + 1) as u64);
    (0..n).map(|i| (0..width).map(|j| element(i, j)).collect()).collect()
}

/// Every level of the tree, leaf digests first, one leaf and one
/// compression at a time.
fn oracle<B: SpongeBackend>(data: &[Vec<B::F>]) -> Vec<Vec<Digest<B::F>>> {
    let leaf = |leaf: &[B::F]| {
        if leaf.len() > Digest::<B::F>::LEN {
            return hash_no_pad_with::<B>(leaf);
        }
        let mut limbs = [B::F::ZERO; 4];
        limbs[..leaf.len()].copy_from_slice(leaf);
        Digest(limbs)
    };
    let mut levels = vec![data.iter().map(|l| leaf(l)).collect::<Vec<_>>()];
    while let Some(level) = levels.last().filter(|level| level.len() > 1) {
        let next = level.chunks(2).map(|p| two_to_one_with::<B>(p[0], p[1])).collect();
        levels.push(next);
    }
    levels
}

fn every_tree_is_the_oracle<B: SpongeBackend>() {
    let _serial = TRACE_AND_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = KnobGuard;
    let shapes = (0..=12usize)
        .flat_map(|height| [1, 4, 5, 9, 135].map(|width| (height, width)))
        .chain([(16, 4)]);
    for (height, width) in shapes {
        let n = 1usize << height;
        let data = leaves::<B>(n, width);
        let levels = oracle::<B>(&data);
        let perms = GenericMerkleTree::<B>::permutation_cost(n, width) as u64;
        for threads in THREADS {
            let what = format!("{} 2^{height} leaves of width {width}, {threads} threads", B::NAME);
            set_parallelism(threads);
            trace::reset();
            let tree = GenericMerkleTree::<B>::new(data.clone());
            let report = trace::snapshot();
            let counters = ["merkle.trees", "merkle.leaves", B::COUNTER].map(|c| report.counter(c));
            assert_eq!(counters, [1, n as u64, perms], "{what}: trees, leaves, permutations");
            assert_eq!(tree.height(), height, "{what}");
            assert_eq!(tree.root(), levels[height][0], "{what}: root");
            for index in 0..n {
                let want: Vec<_> = (0..height).map(|l| levels[l][(index >> l) ^ 1]).collect();
                assert_eq!(tree.prove(index).siblings, want, "{what}: opening {index}");
            }
        }
    }
}

#[test]
fn goldilocks_trees_are_the_oracle_at_every_thread_count() {
    every_tree_is_the_oracle::<PoseidonSponge>();
}

#[test]
fn koalabear_trees_are_the_oracle_at_every_thread_count() {
    every_tree_is_the_oracle::<Poseidon2KbSponge>();
}
