//! Batched polynomial commitments — the "Wires Commitment"-style nodes in
//! the paper's computation graph (Fig. 7): `iNTT` → `LDE` → `NTT^NR` →
//! Merkle tree.
//!
//! The batch is generic over the sponge backend (and hence the base
//! field): [`PolynomialBatch`] is the Goldilocks/Poseidon alias of
//! [`GenericPolynomialBatch`]; the KoalaBear path instantiates the same
//! code over `Poseidon2KbSponge`.

use unizk_field::{Field, Polynomial, PrimeField64, ProtocolField};
use unizk_hash::sponge::HashField;
use unizk_hash::workspace::Workspace;
use unizk_hash::{Digest, GenericMerkleTree, PoseidonSponge, SpongeBackend};
use unizk_ntt::{coset_ntt_nr, intt_nn};

use crate::config::FriConfig;
use crate::domain::domain_point;
use crate::timing::KernelClass;

/// The coset shift `g` every LDE in the protocol uses: the field's
/// multiplicative generator.
pub fn coset_shift<F: PrimeField64>() -> F {
    F::MULTIPLICATIVE_GENERATOR
}

/// A batch of equal-length polynomials committed in one Merkle tree.
///
/// Leaf `i` of the tree concatenates the values of all polynomials at LDE
/// point `i` (bit-reversed order) — "taking values from the same position
/// of all the polynomials and concatenating them" (paper Fig. 1 step ③).
#[derive(Clone, Debug)]
pub struct GenericPolynomialBatch<B: SpongeBackend> {
    polys: Vec<Polynomial<B::F>>,
    tree: GenericMerkleTree<B>,
    degree: usize,
    rate_bits: usize,
}

/// The default (Goldilocks, Poseidon) batch.
pub type PolynomialBatch = GenericPolynomialBatch<PoseidonSponge>;

impl<B: SpongeBackend> GenericPolynomialBatch<B> {
    /// Commits to polynomials given in coefficient form.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or lengths differ / are not powers of
    /// two.
    pub fn from_coeffs(polys: Vec<Polynomial<B::F>>, config: &FriConfig) -> Self {
        Self::from_coeffs_in(polys, config, None)
    }

    /// [`GenericPolynomialBatch::from_coeffs`] with an optional
    /// [`Workspace`]: the LDE codewords, the Merkle leaf table, and the
    /// tree's digest levels are drawn from (and sized for return to) the
    /// workspace pools. The commitment is bit-identical with and without a
    /// workspace.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or lengths differ / are not powers of
    /// two.
    pub fn from_coeffs_in(
        polys: Vec<Polynomial<B::F>>,
        config: &FriConfig,
        ws: Option<&Workspace>,
    ) -> Self {
        assert!(!polys.is_empty(), "cannot commit to an empty batch");
        let degree = polys[0].len();
        assert!(degree.is_power_of_two(), "degree must be a power of two");
        for p in &polys {
            assert_eq!(p.len(), degree, "all polynomials must have equal length");
        }

        // LDE of every polynomial (NTT kernel), then gather the values at
        // each domain position into Merkle leaves (a layout transform — the
        // index-major view of §5.1), then hash the tree.
        let shift = coset_shift::<B::F>();
        let lde_size = degree << config.rate_bits;
        let ldes: Vec<Vec<B::F>> = crate::timing::time_kernel(KernelClass::Ntt, || {
            let coeff_refs: Vec<&[B::F]> = polys.iter().map(|p| p.coeffs()).collect();
            unizk_field::parallel_map(coeff_refs, |c| {
                // `lde_nr` on a pooled buffer: zero-pad, then NTT^NR on the
                // coset (identical values and transform counters).
                let mut padded = B::F::take_elems(ws, lde_size);
                padded.extend_from_slice(c);
                padded.resize(lde_size, B::F::ZERO);
                coset_ntt_nr(&mut padded, shift);
                padded
            })
        });

        let leaves: Vec<Vec<B::F>> =
            crate::timing::time_kernel(KernelClass::LayoutTransform, || {
                let mut table = B::F::take_table(ws, lde_size);
                let chunk = lde_size
                    .div_ceil(unizk_field::current_parallelism().max(1))
                    .max(1);
                unizk_field::parallel_chunks_mut(&mut table, chunk, |offset, rows| {
                    for (k, row) in rows.iter_mut().enumerate() {
                        row.extend(ldes.iter().map(|l| l[offset + k]));
                    }
                });
                table
            });
        // The codewords have been transposed into the leaf table; shelve
        // them for the next commitment.
        for lde in ldes {
            B::F::put_elems(ws, lde);
        }

        let tree = crate::timing::time_kernel(KernelClass::MerkleTree, || {
            GenericMerkleTree::<B>::new_in(leaves, ws)
        });
        Self {
            polys,
            tree,
            degree,
            rate_bits: config.rate_bits,
        }
    }

    /// Commits to polynomials given as values over the size-`N` subgroup
    /// (the trace representation): applies `iNTT^NN` first.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`GenericPolynomialBatch::from_coeffs`].
    pub fn from_values(columns: Vec<Vec<B::F>>, config: &FriConfig) -> Self {
        Self::from_values_in(columns, config, None)
    }

    /// [`GenericPolynomialBatch::from_values`] with an optional
    /// [`Workspace`] (see [`GenericPolynomialBatch::from_coeffs_in`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`GenericPolynomialBatch::from_coeffs`].
    pub fn from_values_in(
        columns: Vec<Vec<B::F>>,
        config: &FriConfig,
        ws: Option<&Workspace>,
    ) -> Self {
        let polys = crate::timing::time_kernel(KernelClass::Ntt, || {
            unizk_field::parallel_map(columns, |mut v| {
                intt_nn(&mut v);
                Polynomial::from_coeffs(v)
            })
        });
        Self::from_coeffs_in(polys, config, ws)
    }

    /// Consumes the batch, shelving its polynomial coefficient buffers and
    /// the Merkle tree's allocations in `ws` for the next job.
    pub fn recycle(self, ws: &Workspace) {
        for p in self.polys {
            B::F::put_elems(Some(ws), p.into_coeffs());
        }
        self.tree.recycle(ws);
    }

    /// The Merkle root (the commitment).
    pub fn root(&self) -> Digest<B::F> {
        self.tree.root()
    }

    /// Number of committed polynomials.
    pub fn num_polys(&self) -> usize {
        self.polys.len()
    }

    /// The degree bound `N` (coefficient count per polynomial).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The LDE domain size `N · 2^rate_bits`.
    pub fn lde_size(&self) -> usize {
        self.degree << self.rate_bits
    }

    /// The committed polynomials (coefficient form).
    pub fn polys(&self) -> &[Polynomial<B::F>] {
        &self.polys
    }

    /// The values of all polynomials at LDE position `index` (bit-reversed
    /// order), i.e. the contents of leaf `index`.
    pub fn leaf(&self, index: usize) -> &[B::F] {
        self.tree.leaf(index)
    }

    /// Merkle authentication path for leaf `index`.
    pub fn prove_leaf(&self, index: usize) -> unizk_hash::MerkleProof<B::F> {
        self.tree.prove(index)
    }

    /// Evaluates every polynomial at the out-of-domain extension point `ζ`
    /// whose first powers `1, ζ, …, ζ^B` are `zeta_powers` — one table per
    /// point, shared by every batch opened there
    /// ([`Polynomial::eval_at_powers`]).
    pub fn eval_all_ext(&self, zeta_powers: &[<B::F as ProtocolField>::Ext]) -> Vec<<B::F as ProtocolField>::Ext> {
        self.polys.iter().map(|p| p.eval_at_powers(zeta_powers)).collect()
    }

    /// The LDE domain point (in the base field) at bit-reversed position
    /// `index`: `g · ω^{rev(index)}`.
    pub fn domain_point(&self, index: usize) -> B::F {
        domain_point(self.lde_size(), index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::{Ext2, Goldilocks};
    use unizk_testkit::rng::TestRng as StdRng;

    fn random_polys(rng: &mut StdRng, count: usize, degree: usize) -> Vec<Polynomial<Goldilocks>> {
        (0..count)
            .map(|_| {
                Polynomial::from_coeffs((0..degree).map(|_| Goldilocks::random(rng)).collect())
            })
            .collect()
    }

    #[test]
    fn leaf_values_match_polynomial_evaluation() {
        let mut rng = StdRng::seed_from_u64(400);
        let config = FriConfig::for_testing();
        let polys = random_polys(&mut rng, 3, 8);
        let batch = PolynomialBatch::from_coeffs(polys.clone(), &config);

        for index in [0usize, 1, 17, 63] {
            let x = batch.domain_point(index);
            let leaf = batch.leaf(index);
            assert_eq!(leaf.len(), 3);
            for (j, p) in polys.iter().enumerate() {
                assert_eq!(leaf[j], p.eval(x), "poly {j} at index {index}");
            }
        }
    }

    #[test]
    fn from_values_interpolates() {
        let mut rng = StdRng::seed_from_u64(401);
        let config = FriConfig::for_testing();
        let polys = random_polys(&mut rng, 2, 16);
        // Evaluate on H, then recommit from values.
        let mut columns = Vec::new();
        for p in &polys {
            let mut v = p.coeffs().to_vec();
            unizk_ntt::ntt_nn(&mut v);
            columns.push(v);
        }
        let from_vals = PolynomialBatch::from_values(columns, &config);
        let from_coeffs = PolynomialBatch::from_coeffs(polys, &config);
        assert_eq!(from_vals.root(), from_coeffs.root());
    }

    #[test]
    fn commitment_binds_contents() {
        let mut rng = StdRng::seed_from_u64(402);
        let config = FriConfig::for_testing();
        let polys = random_polys(&mut rng, 2, 8);
        let mut tweaked = polys.clone();
        let mut coeffs = tweaked[1].coeffs().to_vec();
        coeffs[3] += Goldilocks::ONE;
        tweaked[1] = Polynomial::from_coeffs(coeffs);
        let a = PolynomialBatch::from_coeffs(polys, &config);
        let b = PolynomialBatch::from_coeffs(tweaked, &config);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn eval_all_ext_matches_base_eval_on_base_points() {
        let mut rng = StdRng::seed_from_u64(403);
        let config = FriConfig::for_testing();
        let polys = random_polys(&mut rng, 4, 8);
        let batch = PolynomialBatch::from_coeffs(polys.clone(), &config);
        let x = Goldilocks::from_u64(999);
        let powers: Vec<Ext2> = (0..=8).map(|i| Ext2::from(x.exp_u64(i))).collect();
        let evals = batch.eval_all_ext(&powers);
        for (e, p) in evals.iter().zip(&polys) {
            assert_eq!(*e, Ext2::from(p.eval(x)));
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let _ = PolynomialBatch::from_coeffs(vec![], &FriConfig::for_testing());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_rejected() {
        let p1 = Polynomial::from_coeffs(vec![Goldilocks::ONE; 8]);
        let p2 = Polynomial::from_coeffs(vec![Goldilocks::ONE; 16]);
        let _ = PolynomialBatch::from_coeffs(vec![p1, p2], &FriConfig::for_testing());
    }

    #[test]
    fn lde_size_accounts_for_blowup() {
        let config = FriConfig::plonky2();
        let polys = vec![Polynomial::from_coeffs(vec![Goldilocks::ONE; 16])];
        let batch = PolynomialBatch::from_coeffs(polys, &config);
        assert_eq!(batch.lde_size(), 16 * 8);
        assert_eq!(batch.degree(), 16);
    }

    #[test]
    fn koalabear_batch_commits_and_evaluates() {
        use unizk_field::{KbExt4, KoalaBear};
        use unizk_hash::Poseidon2KbSponge;

        type KbBatch = GenericPolynomialBatch<Poseidon2KbSponge>;
        let mut rng = StdRng::seed_from_u64(404);
        let config = FriConfig::for_testing();
        let polys: Vec<Polynomial<KoalaBear>> = (0..3)
            .map(|_| {
                Polynomial::from_coeffs((0..8).map(|_| KoalaBear::random(&mut rng)).collect())
            })
            .collect();
        let batch = KbBatch::from_coeffs(polys.clone(), &config);
        for index in [0usize, 1, 17, 63] {
            let x = batch.domain_point(index);
            let leaf = batch.leaf(index);
            for (j, p) in polys.iter().enumerate() {
                assert_eq!(leaf[j], p.eval(x), "poly {j} at index {index}");
            }
        }
        let z = KbExt4::new([31337, 1, 2, 3].map(KoalaBear::from_u64));
        let powers: Vec<KbExt4> = (0..=3).map(|i| z.exp_u64(i)).collect();
        let want: Vec<KbExt4> = polys.iter().map(|p| p.eval_ext(z)).collect();
        assert_eq!(batch.eval_all_ext(&powers), want);
    }
}
