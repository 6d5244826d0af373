//! The differential wall for the batch Merkle check:
//! `GenericMerkleTree::verify_many` answers `Ok` exactly when every opening
//! passes on its own, and otherwise names the first opening that does not
//! — over both sponge backends, for honest openings and for every way of
//! tampering that could make two openings disagree about a node they
//! share. "On its own" is judged twice: by `GenericMerkleTree::verify` (the
//! one-opening case of the same walker) and by [`path_reaches_root`], the
//! one-`two_to_one`-at-a-time loop the walker replaced, kept here as the
//! reference.
//!
//! The batch check hashes a node once per distinct compression *input*
//! `(parent index, left, right)`. Keying the memo on less (the parent
//! index alone) would let a tampered opening inherit an honest opening's
//! parent, or the reverse; the shared-sibling, swapped and
//! conflicting-duplicate cases below are the ones that catch it.

use unizk_field::Field;
use unizk_hash::merkle::leaf_digests_with;
use unizk_hash::sponge::two_to_one_with;
use unizk_hash::{
    Digest, GenericMerkleTree, MerkleProof, Poseidon2KbSponge, PoseidonSponge, SpongeBackend,
};
use unizk_testkit::prop::prelude::*;
use unizk_testkit::prop::CaseResult;
use unizk_testkit::rng::TestRng;

const WIDTHS: [usize; 4] = [1, 4, 9, 135];

/// One opening with its data owned, so a case can tamper with it.
struct Owned<B: SpongeBackend> {
    index: usize,
    leaf: Vec<B::F>,
    proof: MerkleProof<B::F>,
}

impl<B: SpongeBackend> Clone for Owned<B> {
    fn clone(&self) -> Self {
        Self {
            index: self.index,
            leaf: self.leaf.clone(),
            proof: self.proof.clone(),
        }
    }
}

/// The reference: one path, one compression at a time, from the leaf digest
/// the builder's own rule gives (`tests/leaf_digests.rs` holds that rule).
fn path_reaches_root<B: SpongeBackend>(root: Digest<B::F>, opening: &Owned<B>) -> bool {
    let mut digest = leaf_digests_with::<B, _>(&[&opening.leaf])[0];
    let mut index = opening.index;
    for &sibling in &opening.proof.siblings {
        digest = if index & 1 == 0 {
            two_to_one_with::<B>(digest, sibling)
        } else {
            two_to_one_with::<B>(sibling, digest)
        };
        index >>= 1;
    }
    index == 0 && digest == root
}

/// `verify_many` against the loop of single-path checks it stands for.
fn check<B: SpongeBackend>(
    what: &str,
    root: Digest<B::F>,
    height: usize,
    openings: &[Owned<B>],
) -> CaseResult {
    for o in openings {
        let alone = GenericMerkleTree::<B>::verify(root, o.index, &o.leaf, &o.proof);
        prop_assert!(alone == path_reaches_root(root, o), "{what}: verify says {alone}");
    }
    let one_by_one = openings.iter().position(|o| !path_reaches_root(root, o));
    let borrowed: Vec<_> = openings
        .iter()
        .map(|o| (o.index, &o.leaf[..], &o.proof))
        .collect();
    let batch = GenericMerkleTree::<B>::verify_many(root, height, &borrowed);
    let want = one_by_one.map_or(Ok(()), Err);
    prop_assert!(batch == want, "{what}: verify_many {batch:?}, one by one {want:?}");
    Ok(())
}

fn wall<B: SpongeBackend>(height: usize, width: usize, seed: u64) -> CaseResult {
    let mut rng = TestRng::seed_from_u64(seed);
    let n = 1usize << height;
    let leaves: Vec<Vec<B::F>> = (0..n)
        .map(|_| (0..width).map(|_| B::F::from_u64(rng.gen::<u64>())).collect())
        .collect();
    let tree = GenericMerkleTree::<B>::new(leaves);
    let root = tree.root();

    // An index multiset with duplicates forced: `count` draws from a pool
    // of at most half as many positions.
    let count = rng.gen_range(2..=24usize);
    let pool: Vec<usize> = (0..count / 2).map(|_| rng.gen_range(0..n)).collect();
    let honest: Vec<Owned<B>> = (0..count)
        .map(|_| {
            let index = pool[rng.gen_range(0..pool.len())];
            Owned {
                index,
                leaf: tree.leaf(index).to_vec(),
                proof: tree.prove(index),
            }
        })
        .collect();
    check("honest", root, height, &honest)?;
    check("wrong root", Digest::ZERO, height, &honest)?;

    // Two openings of one index, and the victim every case below tampers
    // with: the later copy, so that an honest copy precedes it.
    let victim = (0..count)
        .rev()
        .find(|&i| honest[..i].iter().any(|o| o.index == honest[i].index))
        .expect("more draws than pool positions");
    let bump = |x: &mut B::F| *x += B::F::ONE;

    let mut case = honest.clone();
    let element = rng.gen_range(0..width);
    bump(&mut case[victim].leaf[element]);
    check("conflicting leaf data under one index", root, height, &case)?;

    let mut case = honest.clone();
    let other = rng.gen_range(0..count);
    let (a, b) = (case[victim].clone(), case[other].clone());
    (case[victim].leaf, case[victim].proof) = (b.leaf, b.proof);
    (case[other].leaf, case[other].proof) = (a.leaf, a.proof);
    check("two openings swapped", root, height, &case)?;

    let mut case = honest.clone();
    case[victim].index += n;
    check("index beyond the tree", root, height, &case)?;

    let mut case = honest.clone();
    case[victim].proof.siblings.push(Digest::ZERO);
    check("path one sibling too long", root, height, &case)?;

    if height > 0 {
        // Every level of the victim's path is shared with its honest copy.
        let mut case = honest.clone();
        let level = rng.gen_range(0..height);
        bump(&mut case[victim].proof.siblings[level].0[0]);
        check("sibling on a shared level", root, height, &case)?;

        // An opening no other opening meets below the root: its leaf-level
        // sibling is its own.
        let mut case = honest.clone();
        let lone = (0..n)
            .find(|i| honest.iter().all(|o| o.index >> 1 != i >> 1))
            .unwrap_or(0);
        case.push(Owned {
            index: lone,
            leaf: tree.leaf(lone).to_vec(),
            proof: tree.prove(lone),
        });
        check("one more honest opening", root, height, &case)?;
        bump(&mut case[count].proof.siblings[0].0[3]);
        check("sibling on an unshared level", root, height, &case)?;

        let mut case = honest;
        case[victim].proof.siblings.pop();
        check("path one sibling too short", root, height, &case)?;
    }
    Ok(())
}

prop! {
    #![cases(48)]

    fn verify_many_is_every_verify_goldilocks(
        height in 0usize..11,
        width in 0usize..4,
        seed in any::<u64>(),
    ) {
        wall::<PoseidonSponge>(height, WIDTHS[width], seed)?;
    }

    fn verify_many_is_every_verify_koalabear(
        height in 0usize..11,
        width in 0usize..4,
        seed in any::<u64>(),
    ) {
        wall::<Poseidon2KbSponge>(height, WIDTHS[width], seed)?;
    }
}

/// A batch that fails names its first failing opening, whatever the reason
/// each one fails for; an empty batch and an impossible height are answered
/// without climbing.
#[test]
fn the_error_is_the_first_failing_opening() {
    type Tree = GenericMerkleTree<PoseidonSponge>;
    let leaves: Vec<Vec<_>> = (0..8u64)
        .map(|i| vec![unizk_field::Goldilocks::from_u64(i)])
        .collect();
    let tree = Tree::new(leaves);
    let proofs: Vec<_> = (0..8).map(|i| tree.prove(i)).collect();
    let mut openings: Vec<_> = (0..8).map(|i| (i, tree.leaf(i), &proofs[i])).collect();
    assert_eq!(Tree::verify_many(tree.root(), 3, &openings), Ok(()));
    assert_eq!(Tree::verify_many(tree.root(), 3, &[]), Ok(()));

    // Openings 5 and 2 fail for different reasons; 2 is reported.
    let mut long = proofs[5].clone();
    long.siblings.push(Digest::ZERO);
    openings[5].2 = &long;
    openings[2].1 = tree.leaf(3);
    assert_eq!(Tree::verify_many(tree.root(), 3, &openings), Err(2));
    openings[2].1 = tree.leaf(2);
    assert_eq!(Tree::verify_many(tree.root(), 3, &openings), Err(5));
    // A height no path has: every opening is refused, none is walked.
    assert_eq!(Tree::verify_many(tree.root(), usize::MAX, &openings), Err(0));
}
