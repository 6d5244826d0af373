//! The differential wall for the Merkle walk:
//! `GenericMerkleTree::verify_many` answers, tree by tree, `Ok` exactly
//! when every opening of the tree passes on its own, and otherwise names
//! the tree's first opening that does not — over both sponge backends, for
//! honest openings and for every way of tampering that could make two
//! openings disagree about a node they share. "On its own" is judged twice:
//! by `GenericMerkleTree::verify` (the one-opening case of the same walker)
//! and by [`path_reaches_root`], the one-`two_to_one`-at-a-time loop the
//! walker replaced, kept here as the reference.
//!
//! The walk hashes a node once per distinct compression *input*
//! `(parent index, left, right)` within a tree. Keying the memo on less
//! (the parent index alone) would let a tampered opening inherit an honest
//! opening's parent, or the reverse; the shared-sibling, swapped and
//! conflicting-duplicate cases below are the ones that catch it. Many trees
//! climb together, aligned at their leaves, and share each step's dispatch:
//! the joint walk is held to the loop of one-tree walks it replaced, at one
//! thread and at three, and on honest trees its node count is the sum of
//! theirs.
//!
//! The node count is read from the per-process trace store and the thread
//! count is process-wide, so every test here serialises on one lock.

use std::sync::{Mutex, MutexGuard};

use unizk_field::{set_parallelism, Field};
use unizk_hash::merkle::leaf_digests_with;
use unizk_hash::sponge::two_to_one_with;
use unizk_hash::{
    Digest, GenericMerkleTree, MerkleProof, Poseidon2KbSponge, PoseidonSponge, SpongeBackend,
    TreeOpenings,
};
use unizk_testkit::prop::prelude::*;
use unizk_testkit::prop::CaseResult;
use unizk_testkit::rng::TestRng;
use unizk_testkit::trace;

const WIDTHS: [usize; 4] = [1, 4, 9, 135];

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// One tree of a check as a case builds it: what was done to it, its root,
/// its height and the openings claimed against it.
struct Case<B: SpongeBackend> {
    what: &'static str,
    root: Digest<B::F>,
    height: usize,
    openings: Vec<Owned<B>>,
}

impl<B: SpongeBackend> Clone for Case<B> {
    fn clone(&self) -> Self {
        Self {
            what: self.what,
            root: self.root,
            height: self.height,
            openings: self.openings.clone(),
        }
    }
}

impl<B: SpongeBackend> Case<B> {
    fn borrowed(&self) -> TreeOpenings<'_, B::F> {
        let openings = self.openings.iter().map(|o| (o.index, [&o.leaf[..], &[]], &o.proof));
        (self.root, self.height, openings.collect())
    }

    /// The first opening whose path fails the reference, one by one.
    fn one_by_one(&self) -> Result<(), usize> {
        let failing = self.openings.iter().position(|o| !path_reaches_root(self.root, o));
        failing.map_or(Ok(()), Err)
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

/// The walk over `cases` and the `merkle.verify.nodes` it counted.
fn walk<B: SpongeBackend>(cases: &[Case<B>]) -> (Vec<Result<(), usize>>, u64) {
    let trees: Vec<_> = cases.iter().map(Case::borrowed).collect();
    trace::reset();
    let verdicts = GenericMerkleTree::<B>::verify_many(&trees);
    (verdicts, trace::snapshot().counter("merkle.verify.nodes"))
}

/// One tree alone against the loop of single-path checks it stands for.
fn check<B: SpongeBackend>(case: &Case<B>) -> CaseResult {
    let what = case.what;
    for o in &case.openings {
        let alone = GenericMerkleTree::<B>::verify(case.root, o.index, &o.leaf, &o.proof);
        prop_assert!(alone == path_reaches_root(case.root, o), "{what}: verify says {alone}");
    }
    let (walked, _) = walk(std::slice::from_ref(case));
    let want = case.one_by_one();
    prop_assert!(walked == [want], "{what}: verify_many {walked:?}, one by one {want:?}");
    Ok(())
}

/// A random tree and its openings: the honest case first, then one case
/// per way of tampering.
fn cases<B: SpongeBackend>(rng: &mut TestRng, height: usize, width: usize) -> Vec<Case<B>> {
    let n = 1usize << height;
    let leaves: Vec<Vec<B::F>> = (0..n)
        .map(|_| (0..width).map(|_| B::F::from_u64(rng.gen::<u64>())).collect())
        .collect();
    let tree = GenericMerkleTree::<B>::new(leaves);
    let open = |index: usize| Owned {
        index,
        leaf: tree.leaf(index).to_vec(),
        proof: tree.prove(index),
    };

    // An index multiset with duplicates forced: `count` draws from a pool
    // of at most half as many positions.
    let count = rng.gen_range(2..=24usize);
    let pool: Vec<usize> = (0..count / 2).map(|_| rng.gen_range(0..n)).collect();
    let honest: Vec<Owned<B>> = (0..count)
        .map(|_| open(pool[rng.gen_range(0..pool.len())]))
        .collect();
    let root = tree.root();
    let case = |what, openings| Case { what, root, height, openings };
    let mut out = vec![case("honest", honest.clone())];
    out.push(Case { root: Digest::ZERO, ..case("wrong root", honest.clone()) });

    // Two openings of one index, and the victim every case below tampers
    // with: the later copy, so that an honest copy precedes it.
    let victim = (0..count)
        .rev()
        .find(|&i| honest[..i].iter().any(|o| o.index == honest[i].index))
        .expect("more draws than pool positions");
    let bump = |x: &mut B::F| *x += B::F::ONE;

    let mut openings = honest.clone();
    bump(&mut openings[victim].leaf[rng.gen_range(0..width)]);
    out.push(case("conflicting leaf data under one index", openings));

    let mut openings = honest.clone();
    let other = rng.gen_range(0..count);
    let (a, b) = (openings[victim].clone(), openings[other].clone());
    (openings[victim].leaf, openings[victim].proof) = (b.leaf, b.proof);
    (openings[other].leaf, openings[other].proof) = (a.leaf, a.proof);
    out.push(case("two openings swapped", openings));

    let mut openings = honest.clone();
    openings[victim].index += n;
    out.push(case("index beyond the tree", openings));

    let mut openings = honest.clone();
    openings[victim].proof.siblings.push(Digest::ZERO);
    out.push(case("path one sibling too long", openings));

    if height > 0 {
        // Every level of the victim's path is shared with its honest copy.
        let mut openings = honest.clone();
        bump(&mut openings[victim].proof.siblings[rng.gen_range(0..height)].0[0]);
        out.push(case("sibling on a shared level", openings));

        // An opening no other opening meets below the root: its leaf-level
        // sibling is its own.
        let lone = (0..n)
            .find(|i| honest.iter().all(|o| o.index >> 1 != i >> 1))
            .unwrap_or(0);
        let mut openings = honest.clone();
        openings.push(open(lone));
        out.push(case("one more honest opening", openings.clone()));
        bump(&mut openings[count].proof.siblings[0].0[3]);
        out.push(case("sibling on an unshared level", openings));

        let mut openings = honest;
        openings[victim].proof.siblings.pop();
        out.push(case("path one sibling too short", openings));
    }
    out
}

fn wall<B: SpongeBackend>(height: usize, width: usize, seed: u64) -> CaseResult {
    let _serial = serial();
    let mut rng = TestRng::seed_from_u64(seed);
    for case in cases::<B>(&mut rng, height, width) {
        check(&case)?;
    }
    Ok(())
}

/// The joint walk over `trees` against one walk per tree and against the
/// reference, at one thread and at three.
fn joint<B: SpongeBackend>(trees: &[Case<B>]) -> CaseResult {
    let what: Vec<&str> = trees.iter().map(|t| t.what).collect();
    let alone: Vec<_> = trees.iter().map(|t| walk(std::slice::from_ref(t))).collect();
    let want: Vec<_> = trees.iter().map(Case::one_by_one).collect();
    let per_tree: Vec<_> = alone.iter().map(|(v, _)| v[0]).collect();
    prop_assert!(per_tree == want, "{what:?}: alone {per_tree:?}, one by one {want:?}");
    for threads in [1, 3] {
        set_parallelism(threads);
        let (verdicts, nodes) = walk(trees);
        set_parallelism(0);
        prop_assert!(verdicts == want, "{what:?}, {threads} threads: {verdicts:?}, want {want:?}");
        if trees.iter().all(|t| t.what == "honest") {
            let sum: u64 = alone.iter().map(|(_, n)| n).sum();
            prop_assert!(nodes == sum, "{what:?}: {nodes} nodes together, {sum} alone");
        }
    }
    Ok(())
}

/// 1–6 trees of mixed heights and widths: each honest, then each with one
/// of its tamperings drawn at random, then a shared sibling tampered in two
/// trees at once.
fn forest<B: SpongeBackend>(seed: u64) -> CaseResult {
    let _serial = serial();
    let mut rng = TestRng::seed_from_u64(seed);
    let count = rng.gen_range(1..=6usize);
    let all: Vec<Vec<Case<B>>> = (0..count)
        .map(|_| {
            let (height, width) = (rng.gen_range(0..11usize), WIDTHS[rng.gen_range(0..4usize)]);
            cases::<B>(&mut rng, height, width)
        })
        .collect();
    let honest: Vec<Case<B>> = all.iter().map(|c| c[0].clone()).collect();
    joint(&honest)?;
    let drawn: Vec<Case<B>> = all
        .iter()
        .map(|c| c[rng.gen_range(0..c.len())].clone())
        .collect();
    joint(&drawn)?;

    let shared = |c: &Vec<Case<B>>| c.iter().position(|t| t.what == "sibling on a shared level");
    let tall: Vec<usize> = (0..count).filter(|&t| shared(&all[t]).is_some()).collect();
    if let [a, .., b] = tall[..] {
        let mut twice = honest;
        for t in [a, b] {
            twice[t] = all[t][shared(&all[t]).expect("a tall tree")].clone();
        }
        joint(&twice)?;
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

prop! {
    #![cases(24)]

    fn one_walk_is_every_tree_walk_goldilocks(seed in any::<u64>()) {
        forest::<PoseidonSponge>(seed)?;
    }

    fn one_walk_is_every_tree_walk_koalabear(seed in any::<u64>()) {
        forest::<Poseidon2KbSponge>(seed)?;
    }
}

/// A tree that fails names its first failing opening, whatever the reason
/// each one fails for; a tree with no openings and an impossible height
/// are answered without climbing, beside trees that do climb.
#[test]
fn the_error_is_the_first_failing_opening() {
    let _serial = serial();
    type Tree = GenericMerkleTree<PoseidonSponge>;
    let leaves: Vec<Vec<_>> = (0..8u64)
        .map(|i| vec![unizk_field::Goldilocks::from_u64(i)])
        .collect();
    let tree = Tree::new(leaves);
    let root = tree.root();
    let proofs: Vec<_> = (0..8).map(|i| tree.prove(i)).collect();
    let mut openings: Vec<_> = (0..8).map(|i| (i, [tree.leaf(i), &[]], &proofs[i])).collect();
    assert_eq!(Tree::verify_many(&[(root, 3, openings.clone())]), [Ok(())]);
    assert_eq!(Tree::verify_many(&[(root, 3, vec![])]), [Ok(())]);
    assert_eq!(Tree::verify_many(&[]), []);

    // Openings 5 and 2 fail for different reasons; 2 is reported.
    let mut long = proofs[5].clone();
    long.siblings.push(Digest::ZERO);
    openings[5].2 = &long;
    openings[2].1 = [tree.leaf(3), &[]];
    assert_eq!(Tree::verify_many(&[(root, 3, openings.clone())]), [Err(2)]);
    // The same leaf in two parts is the same leaf.
    openings[2].1 = [&[], tree.leaf(2)];
    let cut = openings.clone();
    assert_eq!(Tree::verify_many(&[(root, 3, cut)]), [Err(5)]);
    // A height no path has: every opening is refused, none is walked, and
    // the trees beside it climb as they would alone.
    let trees = [
        (root, 3, openings[..5].to_vec()),
        (root, usize::MAX, openings.clone()),
        (root, 3, openings[6..].to_vec()),
    ];
    assert_eq!(Tree::verify_many(&trees), [Ok(()), Err(0), Ok(())]);
}
