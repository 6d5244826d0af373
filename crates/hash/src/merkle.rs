//! Merkle tree construction and opening proofs (paper §5.3).
//!
//! A tree's leaves are the rows of one [`RowMajorMatrix`] (in FRI, row `i`
//! holds the values of all polynomials at LDE point `i`), so every leaf of
//! a tree has one width. They become digests by one rule,
//! [`leaf_digests_with`]: a leaf that fits in a digest is its digest, a
//! longer one is hashed via the absorb method — binding among leaves of one
//! fixed width, which every caller checks before it opens a tree.
//! Interior nodes hash the concatenation of the two child digests (4 + 4
//! elements, zero padded). Nodes are stored in level order — the layout the
//! paper chooses so that tree construction streams sequentially through
//! memory and subtrees can be processed scratchpad-resident.
//!
//! A tree is built in one dispatch: the leaves are cut into pieces of whole
//! subtrees of `SUBTREE_LEAVES` (2^10) leaves, each worker turns its piece's
//! leaves into digests and climbs the piece level by level to its subtree
//! roots, and the caller joins the pieces and climbs the top levels. At one
//! thread the one piece is the whole tree, so each level is one batched
//! dispatch over all of its pairs.
//!
//! Openings are checked by one walker,
//! [`GenericMerkleTree::verify_many`]: the openings of many trees climb
//! them together, aligned at their leaves, so each step hashes the
//! distinct compression inputs of every tree still climbing in one
//! batched dispatch of the kind the builder uses, and
//! [`GenericMerkleTree::verify`] is its one-tree, one-opening case. The
//! wall in `tests/merkle_verify_many.rs` holds it to the path-by-path loop,
//! tree by tree.
//!
//! The tree is generic over the sponge backend (and hence the field):
//! [`MerkleTree`] is the Goldilocks/Poseidon alias of
//! [`GenericMerkleTree`], and the KoalaBear proof path instantiates the
//! same code with [`crate::poseidon2_kb::Poseidon2KbSponge`].

use std::ops::Range;

use unizk_field::{log2_strict, parallel_groups, parallel_ranges, Goldilocks, PrimeField64};

use crate::digest::Digest;
use crate::matrix::RowMajorMatrix;
use crate::sponge::{compress_level_with, hash_many_with, PoseidonSponge, SpongeBackend};

/// The grain of a tree build: a subtree of this many leaves. A tree is cut
/// into pieces of whole subtrees, one per worker, and each worker builds
/// its piece from the leaves up to the subtree roots (paper §5.3, Merkle
/// subtree scheduling); a tree of at most one subtree is built on the
/// calling thread. A throughput knob, not a correctness parameter (any
/// power of two yields identical digests and counters).
const SUBTREE_LEAVES: usize = 1 << 10;

/// The one rule by which a leaf becomes a digest, Plonky2's `hash_or_noop`,
/// decided per leaf: at most [`Digest::LEN`] elements (4 on both fields) are
/// the digest themselves ([`Digest::from_partial`]: elements then zeros, no
/// permutation, nothing on `B::COUNTER`); a longer leaf is absorbed as
/// [`crate::hash_no_pad_with`] absorbs it, runs of equal length in lockstep
/// ([`hash_many_with`]). The builder and [`GenericMerkleTree::verify_many`]
/// both come through here and nowhere else (`scripts/ci.sh` checks).
///
/// `[a]` and `[a, 0]` share a digest, as in Plonky2 (and the unpadded absorb
/// never told `[a, b, c, d, e]` from `[a, b, c, d, e, 0]`): a tree binds
/// leaves of one width, which whoever checks an opening fixes first —
/// `fri_verify` refuses a wrong leaf width before its first permutation.
pub fn leaf_digests_with<B: SpongeBackend, L: AsRef<[B::F]>>(leaves: &[L]) -> Vec<Digest<B::F>> {
    let fits = |leaf: &[B::F]| leaf.len() <= Digest::<B::F>::LEN;
    let long: Vec<&[B::F]> = leaves.iter().map(L::as_ref).filter(|leaf| !fits(leaf)).collect();
    let mut absorbed = hash_many_with::<B>(&long).into_iter();
    let digests = leaves.iter().map(L::as_ref).map(|leaf| {
        if fits(leaf) {
            Digest::from_partial(leaf)
        } else {
            absorbed.next().expect("one digest per absorbed leaf")
        }
    });
    digests.collect()
}

/// [`leaf_digests_with`] over the rows `rows` of `leaves`, as the first
/// level of a piece's `levels`.
fn hash_leaves_into<B: SpongeBackend>(
    leaves: &RowMajorMatrix<B::F>,
    rows: Range<usize>,
    levels: &mut Vec<Vec<Digest<B::F>>>,
) {
    let width = leaves.width();
    let values = &leaves.values()[rows.start * width..rows.end * width];
    levels.push(leaf_digests_with::<B, _>(&values.chunks_exact(width).collect::<Vec<_>>()));
}

/// Climbs `levels` one level at a time until the top one holds `roots`
/// digests: each new level is the adjacent pairs of the one below through
/// the batched dispatcher ([`compress_level_with`]). A worker climbs its
/// piece to its subtree roots, the caller the rest of the tree.
fn climb_levels<B: SpongeBackend>(levels: &mut Vec<Vec<Digest<B::F>>>, roots: usize) {
    while let Some(level) = levels.last().filter(|level| level.len() > roots) {
        let next = compress_level_with::<B>(level);
        levels.push(next);
    }
}

/// One worker's piece of a tree: the leaves `rows`, whole subtrees (or the
/// whole tree if it is smaller than one), from digests up to the subtree
/// roots. Returns the piece's levels, leaf digests first.
fn build_piece<B: SpongeBackend>(
    leaves: &RowMajorMatrix<B::F>,
    rows: Range<usize>,
) -> Vec<Vec<Digest<B::F>>> {
    let roots = rows.len().div_ceil(SUBTREE_LEAVES);
    let mut levels = Vec::with_capacity(log2_strict(SUBTREE_LEAVES) + 1);
    hash_leaves_into::<B>(leaves, rows, &mut levels);
    climb_levels::<B>(&mut levels, roots);
    levels
}

/// The pieces' levels joined in leaf order, level by level, each part
/// copied once and freed as soon as it is; a lone piece's levels are
/// moved. Every piece climbed as many levels.
fn join_pieces<F: PrimeField64>(pieces: Vec<Vec<Vec<Digest<F>>>>) -> Vec<Vec<Digest<F>>> {
    if pieces.len() == 1 {
        return pieces.into_iter().flatten().collect();
    }
    let height = pieces.first().map_or(0, Vec::len);
    let mut parts: Vec<_> = pieces.into_iter().map(Vec::into_iter).collect();
    (0..height)
        .map(|_| {
            let level: Vec<_> = parts.iter_mut().map(|p| p.next().expect("one part per level")).collect();
            let mut joined = Vec::with_capacity(level.iter().map(Vec::len).sum());
            for part in level {
                joined.extend(part);
            }
            joined
        })
        .collect()
}

/// A binary Merkle tree over the rows of a [`RowMajorMatrix`], generic over
/// the sponge backend.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
/// use unizk_hash::MerkleTree;
///
/// let leaves: Vec<Vec<Goldilocks>> = (0..8u64)
///     .map(|i| vec![Goldilocks::from_u64(i)])
///     .collect();
/// let tree = MerkleTree::new(leaves.clone());
/// let proof = tree.prove(3);
/// assert!(MerkleTree::verify(tree.root(), 3, &leaves[3], &proof));
/// ```
#[derive(Clone, Debug)]
pub struct GenericMerkleTree<B: SpongeBackend> {
    /// The leaf data, one row per leaf, kept so openings can return leaf
    /// contents.
    leaves: RowMajorMatrix<B::F>,
    /// `levels[0]` = leaf digests, `levels.last()` = `[root]`.
    levels: Vec<Vec<Digest<B::F>>>,
}

/// The default (Goldilocks, Poseidon) Merkle tree.
pub type MerkleTree = GenericMerkleTree<PoseidonSponge>;

/// An authentication path from a leaf to the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof<F: PrimeField64 = Goldilocks> {
    /// Sibling digests, leaf level first.
    pub siblings: Vec<Digest<F>>,
}

/// One opening of a tree ([`GenericMerkleTree::verify_many`]): the leaf
/// index, the claimed leaf contents, and the path. The leaf is the
/// concatenation of its two parts, so a leaf held in one slice has an empty
/// second part and a FRI fold leaf is borrowed as its pair's two extension
/// elements.
pub type Opening<'a, F> = (usize, [&'a [F]; 2], &'a MerkleProof<F>);

/// One tree of a check ([`GenericMerkleTree::verify_many`]): its root, its
/// height, and the openings claimed against it.
pub type TreeOpenings<'a, F> = (Digest<F>, usize, Vec<Opening<'a, F>>);

impl<F: PrimeField64> MerkleProof<F> {
    /// Serialized size in bytes (each digest is [`Digest::BYTES`] bytes:
    /// 32 over Goldilocks, 16 over KoalaBear).
    pub fn size_bytes(&self) -> usize {
        self.siblings.len() * Digest::<F>::BYTES
    }
}

impl<B: SpongeBackend> GenericMerkleTree<B> {
    /// Builds a tree over the rows of `leaves` (a `Vec<Vec<F>>` of rows of
    /// one width converts, see [`RowMajorMatrix`]'s `From`).
    ///
    /// # Panics
    ///
    /// Panics if the number of rows is not a power of two (the protocol
    /// always commits to power-of-two LDE domains).
    pub fn new(leaves: impl Into<RowMajorMatrix<B::F>>) -> Self {
        let leaves = leaves.into();
        let num_leaves = leaves.height();
        assert!(
            num_leaves.is_power_of_two(),
            "leaf count must be a power of two, got {num_leaves}"
        );
        let _build_span = unizk_testkit::trace::span("merkle.build");
        unizk_testkit::trace::counter("merkle.trees", 1);
        unizk_testkit::trace::counter("merkle.leaves", num_leaves as u64);
        // Hashes at one level are independent, and so are subtrees (paper
        // §5.3): one dispatch builds every subtree, one piece of whole
        // subtrees per worker, and the caller climbs the top levels.
        let pieces = parallel_ranges(num_leaves, SUBTREE_LEAVES, |rows| build_piece::<B>(&leaves, rows));
        let mut levels = join_pieces(pieces);
        climb_levels::<B>(&mut levels, 1);
        Self { leaves, levels }
    }

    /// The root digest (the commitment sent to the verifier).
    pub fn root(&self) -> Digest<B::F> {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.height()
    }

    /// Tree height (number of sibling digests in a proof).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// The raw contents of leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn leaf(&self, index: usize) -> &[B::F] {
        self.leaves.row(index)
    }

    /// Every leaf's contents, one row per leaf, in leaf order.
    pub fn leaves(&self) -> &RowMajorMatrix<B::F> {
        &self.leaves
    }

    /// Produces the authentication path for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> MerkleProof<B::F> {
        assert!(index < self.num_leaves(), "leaf index out of bounds");
        let mut siblings = Vec::with_capacity(self.height());
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            siblings.push(level[idx ^ 1]);
            idx >>= 1;
        }
        MerkleProof { siblings }
    }

    /// Verifies that `leaf_data` is the content of leaf `index` under
    /// `root`: [`verify_many`](Self::verify_many) of one tree, as high as
    /// the path is long, with one opening.
    pub fn verify(
        root: Digest<B::F>,
        index: usize,
        leaf_data: &[B::F],
        proof: &MerkleProof<B::F>,
    ) -> bool {
        let opening = (index, [leaf_data, &[]], proof);
        Self::verify_many(&[(root, proof.siblings.len(), vec![opening])])[0].is_ok()
    }

    /// Verifies the openings of many trees, hashing each distinct node of a
    /// tree once: one verdict per tree, in the order of `trees`.
    ///
    /// The trees climb together, aligned at their leaves. The distinct
    /// leaves of every tree become digests in one [`leaf_digests_with`]
    /// call, equal widths adjacent so that each width absorbs in one
    /// lockstep run. Then at step `s` each opening of every tree higher
    /// than `s` forms the full input of its next compression — `(parent
    /// index, left, right)` — and the distinct inputs of all those trees
    /// are compressed in one [`compress_level_with`] dispatch.
    ///
    /// Inputs are shared within a tree only, and only where the whole input
    /// is equal (likewise `(index, leaf)` at the leaves): each tree's
    /// openings are sorted by leaf index once, an order every parent index
    /// keeps, and an input is hashed once per run of equal neighbours. So
    /// the check is a loop of [`verify`](Self::verify) evaluated fewer
    /// times: a tree's verdict is `Ok` exactly when every one of its
    /// openings' own paths reaches its root, for hostile openings too. On
    /// honest openings the `merkle.verify.nodes` counter is the number of
    /// distinct nodes on the paths (a leaf counts whether or not it was
    /// hashed), summed over the trees; a hostile duplicate that sorts
    /// apart from its twin is hashed, and counted, again.
    ///
    /// Under more than one thread the trees are dealt by openings × height
    /// into one group per worker ([`parallel_groups`]), one walk per group;
    /// verdicts do not depend on the grouping.
    ///
    /// A tree's `Err` is the position in its openings of the first opening
    /// that fails: its path is not `height` siblings long, its `index >=
    /// 2^height`, or its path does not reach the root.
    pub fn verify_many(trees: &[TreeOpenings<'_, B::F>]) -> Vec<Result<(), usize>> {
        let weights: Vec<usize> = trees
            .iter()
            .map(|(_, height, openings)| openings.len().saturating_mul(*height))
            .collect();
        parallel_groups(&weights, |group| climb::<B>(trees, group))
    }

    /// Total sponge permutations needed to build a tree of `num_leaves`
    /// leaves of `leaf_len` elements — the simulator's hash-kernel work unit
    /// (§5.3). A leaf of at most [`Digest::LEN`] elements costs none
    /// ([`leaf_digests_with`]). Both shipped backends share `RATE = 8`, so
    /// the count is field-independent.
    pub fn permutation_cost(num_leaves: usize, leaf_len: usize) -> usize {
        let per_leaf = if leaf_len > Digest::<B::F>::LEN {
            crate::sponge::permutation_count(leaf_len)
        } else {
            0
        };
        // Interior nodes: one permutation each; a full binary tree with L
        // leaves has L - 1 interior nodes.
        num_leaves * per_leaf + num_leaves.saturating_sub(1)
    }
}

/// Where one walked opening stands in [`climb`].
struct Climber<'a, F: PrimeField64> {
    /// The opening's position in its tree's list.
    opening: usize,
    /// The node's index at the current level.
    index: usize,
    leaf: [&'a [F]; 2],
    siblings: &'a [Digest<F>],
    /// The node's digest at the current level.
    digest: Digest<F>,
    /// The slot of the climber's node among the step's distinct ones.
    slot: usize,
}

impl<F: PrimeField64> Climber<'_, F> {
    fn elements(&self) -> impl Iterator<Item = &F> {
        self.leaf[0].iter().chain(self.leaf[1])
    }

    fn width(&self) -> usize {
        self.leaf[0].len() + self.leaf[1].len()
    }
}

/// The walk of [`GenericMerkleTree::verify_many`] over the trees `group`
/// of `trees`: one verdict per tree of the group, in group order.
fn climb<B: SpongeBackend>(
    trees: &[TreeOpenings<'_, B::F>],
    group: &[usize],
) -> Vec<Result<(), usize>> {
    // Each tree's walked openings as one run of `climbers`, sorted by
    // (leaf index, leaf); and each tree's first refused opening.
    let mut climbers: Vec<Climber<'_, B::F>> = Vec::new();
    let mut runs = Vec::with_capacity(group.len());
    let mut refused = Vec::with_capacity(group.len());
    let mut opened = 0;
    for &(root, height, ref openings) in group.iter().map(|&t| &trees[t]) {
        opened += openings.len();
        let start = climbers.len();
        let mut first_refused = None;
        for (opening, &(index, leaf, proof)) in openings.iter().enumerate() {
            let above = u32::try_from(height).ok().and_then(|h| index.checked_shr(h));
            if proof.siblings.len() == height && above.unwrap_or(0) == 0 {
                let siblings = &proof.siblings[..];
                let (digest, slot) = (Digest::ZERO, 0);
                climbers.push(Climber { opening, index, leaf, siblings, digest, slot });
            } else {
                first_refused.get_or_insert(opening);
            }
        }
        climbers[start..].sort_by(|a, b| {
            (a.index.cmp(&b.index)).then_with(|| a.elements().cmp(b.elements()))
        });
        runs.push((start..climbers.len(), height, root));
        refused.push(first_refused);
    }

    // The distinct leaves, ordered by width, through the one leaf rule.
    let mut firsts = Vec::new();
    for (run, ..) in &runs {
        for c in run.clone() {
            let (prev, this) = (&climbers[c.saturating_sub(1)], &climbers[c]);
            if c == run.start || prev.index != this.index || !prev.elements().eq(this.elements()) {
                firsts.push(c);
            }
            climbers[c].slot = firsts.len() - 1;
        }
    }
    let mut by_width: Vec<usize> = (0..firsts.len()).collect();
    by_width.sort_by_key(|&k| climbers[firsts[k]].width());
    let flat: Vec<B::F> = by_width
        .iter()
        .flat_map(|&k| climbers[firsts[k]].elements().copied())
        .collect();
    let mut rest = &flat[..];
    let leaves: Vec<&[B::F]> = by_width
        .iter()
        .map(|&k| {
            let (leaf, tail) = rest.split_at(climbers[firsts[k]].width());
            rest = tail;
            leaf
        })
        .collect();
    let mut leaf_digests = vec![Digest::ZERO; firsts.len()];
    for (&k, digest) in by_width.iter().zip(leaf_digests_with::<B, _>(&leaves)) {
        leaf_digests[k] = digest;
    }
    for climber in &mut climbers {
        climber.digest = leaf_digests[climber.slot];
    }
    // Distinct nodes visited: a leaf counts whether or not it was hashed.
    let mut visited = firsts.len();

    // Some walked path is as long as the tallest walked tree, so the climb
    // is bounded by the size of the input, not by a claimed height.
    let walked = runs.iter().filter(|(run, ..)| !run.is_empty());
    let steps = walked.map(|&(_, height, _)| height).max().unwrap_or(0);
    let mut pairs = Vec::new();
    for step in 0..steps {
        let climbing = || runs.iter().filter(move |&&(_, height, _)| height > step);
        pairs.clear();
        for (run, ..) in climbing() {
            let mut last_parent = None;
            for climber in &mut climbers[run.clone()] {
                let (digest, sibling) = (climber.digest, climber.siblings[step]);
                let pair = if climber.index & 1 == 0 {
                    [digest, sibling]
                } else {
                    [sibling, digest]
                };
                climber.index >>= 1;
                if last_parent != Some(climber.index) || pairs[pairs.len() - 2..] != pair {
                    pairs.extend(pair);
                }
                climber.slot = pairs.len() / 2 - 1;
                last_parent = Some(climber.index);
            }
        }
        let parents = compress_level_with::<B>(&pairs);
        visited += parents.len();
        for (run, ..) in climbing() {
            for climber in &mut climbers[run.clone()] {
                climber.digest = parents[climber.slot];
            }
        }
    }
    unizk_testkit::trace::counter("merkle.verify.openings", opened as u64);
    unizk_testkit::trace::counter("merkle.verify.nodes", visited as u64);

    runs.iter()
        .zip(refused)
        .map(|((run, _, root), refused)| {
            let climbed = climbers[run.clone()].iter();
            let unreached = climbed.filter(|c| c.digest != *root).map(|c| c.opening);
            refused.into_iter().chain(unreached).min().map_or(Ok(()), Err)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::Field;

    fn leaves(n: usize, width: usize) -> Vec<Vec<Goldilocks>> {
        (0..n)
            .map(|i| {
                (0..width)
                    .map(|j| Goldilocks::from_u64((i * width + j) as u64))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_proofs_verify() {
        let data = leaves(16, 5);
        let tree = MerkleTree::new(data.clone());
        for (i, leaf) in data.iter().enumerate() {
            let proof = tree.prove(i);
            assert!(MerkleTree::verify(tree.root(), i, leaf, &proof), "leaf {i}");
            assert_eq!(proof.siblings.len(), 4);
        }
    }

    #[test]
    fn wrong_leaf_data_rejected() {
        let data = leaves(8, 3);
        let tree = MerkleTree::new(data.clone());
        let proof = tree.prove(2);
        let mut bad = data[2].clone();
        bad[0] += Goldilocks::ONE;
        assert!(!MerkleTree::verify(tree.root(), 2, &bad, &proof));
    }

    #[test]
    fn wrong_index_rejected() {
        let data = leaves(8, 3);
        let tree = MerkleTree::new(data.clone());
        let proof = tree.prove(2);
        assert!(!MerkleTree::verify(tree.root(), 3, &data[2], &proof));
        // Out-of-range index (beyond tree size) must also fail, not panic.
        assert!(!MerkleTree::verify(tree.root(), 8 + 2, &data[2], &proof));
    }

    #[test]
    fn tampered_sibling_rejected() {
        let data = leaves(8, 3);
        let tree = MerkleTree::new(data.clone());
        let mut proof = tree.prove(5);
        proof.siblings[1] = Digest::ZERO;
        assert!(!MerkleTree::verify(tree.root(), 5, &data[5], &proof));
    }

    #[test]
    fn wrong_root_rejected() {
        let data = leaves(8, 3);
        let tree = MerkleTree::new(data.clone());
        let proof = tree.prove(0);
        assert!(!MerkleTree::verify(Digest::ZERO, 0, &data[0], &proof));
    }

    #[test]
    fn single_leaf_tree() {
        let data = leaves(1, 4);
        let tree = MerkleTree::new(data.clone());
        assert_eq!(tree.height(), 0);
        let proof = tree.prove(0);
        assert!(proof.siblings.is_empty());
        assert!(MerkleTree::verify(tree.root(), 0, &data[0], &proof));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = MerkleTree::new(leaves(3, 2));
    }

    #[test]
    fn root_depends_on_every_leaf() {
        let data = leaves(16, 2);
        let tree = MerkleTree::new(data.clone());
        for i in 0..16 {
            let mut tweaked = data.clone();
            tweaked[i][0] += Goldilocks::ONE;
            let other = MerkleTree::new(tweaked);
            assert_ne!(other.root(), tree.root(), "leaf {i}");
        }
    }

    #[test]
    fn variable_length_leaves() {
        // The paper's leaf example: length-135 leaves (circuit width).
        let data: Vec<Vec<Goldilocks>> = (0..4u64)
            .map(|i| (0..135).map(|j| Goldilocks::from_u64(i * 1000 + j)).collect())
            .collect();
        let tree = MerkleTree::new(data.clone());
        let proof = tree.prove(1);
        assert!(MerkleTree::verify(tree.root(), 1, &data[1], &proof));
    }

    #[test]
    fn permutation_cost_formula() {
        // 4 leaves of length 135: 4*17 leaf perms + 3 interior = 71.
        assert_eq!(MerkleTree::permutation_cost(4, 135), 4 * 17 + 3);
        assert_eq!(MerkleTree::permutation_cost(1, 8), 1);
        // Leaves that fit in a digest are not hashed: interior nodes only.
        assert_eq!(MerkleTree::permutation_cost(8, 2), 7);
        assert_eq!(MerkleTree::permutation_cost(8, 4), 7);
        assert_eq!(MerkleTree::permutation_cost(8, 5), 8 + 7);
    }

    /// What `verify` alone does not separate, so that nobody relies on it: a
    /// leaf and the same leaf with a trailing zero — below the digest width
    /// by the leaf-digest rule, above it because the absorb pads a block
    /// with zeros and tags no length (it never did). The width is the
    /// caller's to fix: `fri_verify` answers "query leaf width mismatch"
    /// before any permutation.
    #[test]
    fn verify_alone_does_not_fix_the_width_of_a_leaf() {
        for width in [1, 5] {
            let data = leaves(8, width);
            let tree = MerkleTree::new(data.clone());
            let (root, proof) = (tree.root(), tree.prove(5));
            let padded = |last| [&data[5][..], &[last]].concat();
            assert!(MerkleTree::verify(root, 5, &data[5], &proof));
            assert!(MerkleTree::verify(root, 5, &padded(Goldilocks::ZERO), &proof));
            assert!(!MerkleTree::verify(root, 5, &padded(Goldilocks::ONE), &proof));
        }
    }

    #[test]
    fn proof_size_bytes() {
        let data = leaves(16, 1);
        let tree = MerkleTree::new(data);
        assert_eq!(tree.prove(0).size_bytes(), 4 * 32);
    }

    #[test]
    fn koalabear_tree_proves_and_verifies() {
        use crate::poseidon2_kb::Poseidon2KbSponge;
        use unizk_field::KoalaBear;

        type KbTree = GenericMerkleTree<Poseidon2KbSponge>;
        let data: Vec<Vec<KoalaBear>> = (0..16u64)
            .map(|i| (0..5u64).map(|j| KoalaBear::from_u64(i * 5 + j)).collect())
            .collect();
        let tree = KbTree::new(data.clone());
        for (i, leaf) in data.iter().enumerate() {
            let proof = tree.prove(i);
            assert!(KbTree::verify(tree.root(), i, leaf, &proof), "leaf {i}");
            assert_eq!(proof.size_bytes(), 4 * 16);
        }
        let mut bad = data[3].clone();
        bad[0] += KoalaBear::ONE;
        assert!(!KbTree::verify(tree.root(), 3, &bad, &tree.prove(3)));
    }
}
