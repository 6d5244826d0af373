//! Merkle tree construction and opening proofs (paper §5.3).
//!
//! Leaves hold element vectors (in FRI, the concatenated values of all
//! polynomials at one LDE point) and become digests by one rule,
//! [`leaf_digests_with`]: a leaf that fits in a digest is its digest, a
//! longer one is hashed via the absorb method — binding among leaves of one
//! fixed width, which every caller checks before it opens a tree.
//! Interior nodes hash the concatenation of the two child digests (4 + 4
//! elements, zero padded). Nodes are stored in level order — the layout the
//! paper chooses so that tree construction streams sequentially through
//! memory and subtrees can be processed scratchpad-resident.
//!
//! Openings are checked by one walker,
//! [`GenericMerkleTree::verify_many`]: all openings of a tree climb it
//! level by level together, each distinct compression input is hashed once
//! through the batched dispatchers the builder uses, and
//! [`GenericMerkleTree::verify`] is its one-opening case. The wall in
//! `tests/merkle_verify_many.rs` holds it to the path-by-path loop.
//!
//! The tree is generic over the sponge backend (and hence the field):
//! [`MerkleTree`] is the Goldilocks/Poseidon alias of
//! [`GenericMerkleTree`], and the KoalaBear proof path instantiates the
//! same code with [`crate::poseidon2_kb::Poseidon2KbSponge`].

use unizk_field::{log2_strict, Goldilocks, PrimeField64};

use crate::digest::Digest;
use crate::sponge::{
    compress_level_with, hash_many_with, HashField, PoseidonSponge, SpongeBackend,
};
use crate::workspace::Workspace;

/// Leaves (or interior pairs) hashed per parallel work item. Chunking
/// amortizes worker dispatch over many hashes instead of paying it per
/// leaf; the value is a throughput knob, not a correctness parameter
/// (any chunk size yields identical digests and counters).
const HASH_CHUNK: usize = 128;

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

/// [`leaf_digests_with`] over a whole level, into a caller-supplied
/// (typically pooled) buffer. Under multi-threading, workers take
/// `chunk_size` leaves at a time; chunk size, lane width and thread count
/// are invisible in digests and counters.
fn hash_leaves_into<B: SpongeBackend>(
    leaves: &[Vec<B::F>],
    chunk_size: usize,
    out: &mut Vec<Digest<B::F>>,
) {
    assert!(chunk_size > 0, "chunk size must be positive");
    if unizk_field::par::current_parallelism() == 1 || leaves.len() <= chunk_size {
        out.extend(leaf_digests_with::<B, _>(leaves));
        return;
    }
    let chunks: Vec<&[Vec<B::F>]> = leaves.chunks(chunk_size).collect();
    for c in unizk_field::parallel_map(chunks, leaf_digests_with::<B, _>) {
        out.extend(c);
    }
}

/// One interior Merkle level: compresses adjacent digest pairs of `prev`
/// into `out` through the batched dispatcher ([`compress_level_with`]),
/// chunked across workers exactly like the leaves.
fn hash_pairs_into<B: SpongeBackend>(
    prev: &[Digest<B::F>],
    chunk_size: usize,
    out: &mut Vec<Digest<B::F>>,
) {
    debug_assert!(prev.len().is_multiple_of(2));
    let n = prev.len() / 2;
    if unizk_field::par::current_parallelism() == 1 || n <= chunk_size {
        out.extend(compress_level_with::<B>(prev));
        return;
    }
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(chunk_size)
        .map(|s| (s, (s + chunk_size).min(n)))
        .collect();
    let chunks =
        unizk_field::parallel_map(ranges, |(s, e)| compress_level_with::<B>(&prev[2 * s..2 * e]));
    for c in chunks {
        out.extend(c);
    }
}

/// Groups equal keys: the slot of each key among the distinct ones, and one
/// position in `keys` per slot.
fn distinct<K: Ord>(keys: &[K]) -> (Vec<usize>, Vec<usize>) {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]));
    let mut slots = vec![0; keys.len()];
    let mut firsts = Vec::new();
    for (rank, &k) in order.iter().enumerate() {
        if rank == 0 || keys[order[rank - 1]] != keys[k] {
            firsts.push(k);
        }
        slots[k] = firsts.len() - 1;
    }
    (slots, firsts)
}

/// A binary Merkle tree over element-vector leaves, generic over the
/// sponge backend.
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
    /// The original leaf data, kept so openings can return leaf contents.
    leaves: Vec<Vec<B::F>>,
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

/// One entry of a batch check ([`GenericMerkleTree::verify_many`]): the
/// leaf index, the claimed leaf contents, and the path.
pub type Opening<'a, F> = (usize, &'a [F], &'a MerkleProof<F>);

impl<F: PrimeField64> MerkleProof<F> {
    /// Serialized size in bytes (each digest is [`Digest::BYTES`] bytes:
    /// 32 over Goldilocks, 16 over KoalaBear).
    pub fn size_bytes(&self) -> usize {
        self.siblings.len() * Digest::<F>::BYTES
    }
}

impl<B: SpongeBackend> GenericMerkleTree<B> {
    /// Builds a tree over `leaves`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len()` is not a power of two (the protocol always
    /// commits to power-of-two LDE domains).
    pub fn new(leaves: Vec<Vec<B::F>>) -> Self {
        Self::new_in(leaves, None)
    }

    /// Builds a tree over `leaves`, drawing each level's digest buffer from
    /// `ws` when one is supplied (the proof-serving path). Digests are
    /// bit-identical either way; only the provenance of the backing
    /// allocations differs. Give the buffers back with
    /// [`recycle`](GenericMerkleTree::recycle) once the tree is no longer
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len()` is not a power of two.
    pub fn new_in(leaves: Vec<Vec<B::F>>, ws: Option<&Workspace>) -> Self {
        assert!(
            leaves.len().is_power_of_two(),
            "leaf count must be a power of two, got {}",
            leaves.len()
        );
        let _build_span = unizk_testkit::trace::span("merkle.build");
        unizk_testkit::trace::counter("merkle.trees", 1);
        unizk_testkit::trace::counter("merkle.leaves", leaves.len() as u64);
        // Hashes at one level are independent (paper §5.3), so both the leaf
        // digests and each interior level parallelize trivially; work is
        // distributed in chunks of HASH_CHUNK hashes per worker item.
        let mut levels = Vec::with_capacity(log2_strict(leaves.len()) + 1);
        let mut first = B::F::take_digests(ws, leaves.len());
        hash_leaves_into::<B>(&leaves, HASH_CHUNK, &mut first);
        levels.push(first);
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = B::F::take_digests(ws, prev.len() / 2);
            hash_pairs_into::<B>(prev, HASH_CHUNK, &mut next);
            levels.push(next);
        }
        Self { leaves, levels }
    }

    /// Consumes the tree, shelving its leaf table and every level's digest
    /// buffer in `ws` for the next job on this worker. Call this instead of
    /// dropping when serving many proofs from one process.
    pub fn recycle(self, ws: &Workspace) {
        B::F::put_table(Some(ws), self.leaves);
        for level in self.levels {
            B::F::put_digests(Some(ws), level);
        }
    }

    /// The root digest (the commitment sent to the verifier).
    pub fn root(&self) -> Digest<B::F> {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
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
        &self.leaves[index]
    }

    /// Produces the authentication path for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> MerkleProof<B::F> {
        assert!(index < self.leaves.len(), "leaf index out of bounds");
        let mut siblings = Vec::with_capacity(self.height());
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            siblings.push(level[idx ^ 1]);
            idx >>= 1;
        }
        MerkleProof { siblings }
    }

    /// Verifies that `leaf_data` is the content of leaf `index` under
    /// `root`: the one-opening case of [`verify_many`](Self::verify_many),
    /// in a tree as high as the path is long.
    pub fn verify(
        root: Digest<B::F>,
        index: usize,
        leaf_data: &[B::F],
        proof: &MerkleProof<B::F>,
    ) -> bool {
        Self::verify_many(root, proof.siblings.len(), &[(index, leaf_data, proof)]).is_ok()
    }

    /// Verifies many openings of one tree of `height` levels under `root`,
    /// hashing each distinct node once.
    ///
    /// All leaves become digests in one [`leaf_digests_with`] call, then the
    /// openings climb together: per level, each forms the full input of its
    /// next compression — `(parent index, left, right)` — and the distinct
    /// inputs are compressed in one [`compress_level_with`] dispatch.
    /// Openings share a hash only where the whole input is equal (likewise
    /// `(index, leaf)` at the leaves), so this is a loop of
    /// [`verify`](Self::verify) evaluated fewer times: it returns `Ok`
    /// exactly when every opening's own path reaches `root`, for hostile
    /// openings too.
    ///
    /// # Errors
    ///
    /// The position in `openings` of the first opening that fails: its path
    /// is not `height` siblings long, `index >= 2^height`, or its path does
    /// not reach `root`.
    pub fn verify_many(
        root: Digest<B::F>,
        height: usize,
        openings: &[Opening<'_, B::F>],
    ) -> Result<(), usize> {
        let in_tree = |&(index, _, proof): &Opening<'_, B::F>| {
            let above = u32::try_from(height).ok().and_then(|h| index.checked_shr(h));
            proof.siblings.len() == height && above.unwrap_or(0) == 0
        };
        let (walked, refused): (Vec<usize>, Vec<usize>) =
            (0..openings.len()).partition(|&i| in_tree(&openings[i]));

        let leaves: Vec<(usize, &[B::F])> = walked
            .iter()
            .map(|&i| (openings[i].0, openings[i].1))
            .collect();
        let (slots, firsts) = distinct(&leaves);
        let inputs: Vec<&[B::F]> = firsts.iter().map(|&k| leaves[k].1).collect();
        let digests = leaf_digests_with::<B, _>(&inputs);
        // Distinct nodes visited: a leaf counts whether or not it was hashed.
        let mut visited = digests.len();
        // Where each walked opening stands: (node index at this level, digest).
        let mut at: Vec<(usize, Digest<B::F>)> = leaves
            .iter()
            .zip(slots)
            .map(|(&(index, _), slot)| (index, digests[slot]))
            .collect();

        // Some walked path is `height` long, or there is nothing to climb:
        // the loop is bounded by the size of the input, not by `height`.
        let levels = if walked.is_empty() { 0 } else { height };
        for level in 0..levels {
            // The whole input of each opening's next compression.
            let inputs: Vec<_> = at
                .iter()
                .zip(&walked)
                .map(|(&(index, digest), &i)| {
                    let sibling = openings[i].2.siblings[level];
                    let pair = if index & 1 == 0 { [digest, sibling] } else { [sibling, digest] };
                    (index >> 1, pair)
                })
                .collect();
            let (slots, firsts) = distinct(&inputs);
            let pairs: Vec<Digest<B::F>> = firsts.iter().flat_map(|&k| inputs[k].1).collect();
            let parents = compress_level_with::<B>(&pairs);
            visited += parents.len();
            for (node, (input, slot)) in at.iter_mut().zip(inputs.iter().zip(slots)) {
                *node = (input.0, parents[slot]);
            }
        }
        unizk_testkit::trace::counter("merkle.verify.openings", openings.len() as u64);
        unizk_testkit::trace::counter("merkle.verify.nodes", visited as u64);

        let unreached = walked
            .iter()
            .zip(&at)
            .find(|(_, node)| node.1 != root)
            .map(|(&i, _)| i);
        let failed = refused.first().copied().into_iter().chain(unreached).min();
        failed.map_or(Ok(()), Err)
    }

    /// Total sponge permutations needed to build a tree with these leaf
    /// lengths — the simulator's hash-kernel work unit (§5.3). A leaf of at
    /// most [`Digest::LEN`] elements costs none ([`leaf_digests_with`]). Both
    /// shipped backends share `RATE = 8`, so the count is field-independent.
    pub fn permutation_cost(leaf_lens: &[usize]) -> usize {
        let leaf_perms: usize = leaf_lens
            .iter()
            .filter(|&&l| l > Digest::<B::F>::LEN)
            .map(|&l| crate::sponge::permutation_count(l))
            .sum();
        // Interior nodes: one permutation each; a full binary tree with L
        // leaves has L - 1 interior nodes.
        leaf_perms + leaf_lens.len().saturating_sub(1)
    }
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
        assert_eq!(MerkleTree::permutation_cost(&[135; 4]), 4 * 17 + 3);
        assert_eq!(MerkleTree::permutation_cost(&[8]), 1);
        // Leaves that fit in a digest are not hashed: interior nodes only.
        assert_eq!(MerkleTree::permutation_cost(&[2; 8]), 7);
        assert_eq!(MerkleTree::permutation_cost(&[4; 8]), 7);
        assert_eq!(MerkleTree::permutation_cost(&[5; 8]), 8 + 7);
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
    fn pooled_tree_is_bit_identical_and_recycles() {
        let data = leaves(16, 5);
        let plain = MerkleTree::new(data.clone());
        let ws = Workspace::new();
        // Poison the pools: stale contents must never leak into digests.
        ws.put_digests(vec![Digest::ZERO; 64]);
        ws.put_gl_table(vec![vec![Goldilocks::from_u64(u64::MAX); 9]; 16]);

        let pooled = MerkleTree::new_in(data.clone(), Some(&ws));
        assert_eq!(pooled.root(), plain.root());
        for i in 0..16 {
            assert_eq!(pooled.prove(i), plain.prove(i), "leaf {i}");
        }
        pooled.recycle(&ws);
        // Second build reuses the recycled buffers.
        let before = ws.stats().total();
        let again = MerkleTree::new_in(data, Some(&ws));
        assert_eq!(again.root(), plain.root());
        let after = ws.stats().total();
        assert!(after.hits > before.hits, "recycled buffers should hit");
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
