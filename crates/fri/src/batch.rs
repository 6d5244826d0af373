//! Batched polynomial commitments — the "Wires Commitment"-style nodes in
//! the paper's computation graph (Fig. 7): `iNTT` → `LDE` → `NTT^NR` →
//! Merkle tree.
//!
//! The LDEs are computed column by column and gathered once into the
//! tree's one [`RowMajorMatrix`]: row `i` holds every polynomial's value at
//! LDE position `i`. The FRI combine and the quotients read those rows
//! ([`GenericPolynomialBatch::leaves`]).
//!
//! The batch is generic over the sponge backend (and hence the base
//! field): [`PolynomialBatch`] is the Goldilocks/Poseidon alias of
//! [`GenericPolynomialBatch`]; the KoalaBear path instantiates the same
//! code over `Poseidon2KbSponge`.

use unizk_field::{Field, Polynomial, PrimeField64, ProtocolField};
use unizk_hash::{Digest, GenericMerkleTree, PoseidonSponge, RowMajorMatrix, SpongeBackend};
use unizk_ntt::{intt_nn, lde_nr};
use unizk_testkit::trace;

use crate::config::FriConfig;
use crate::domain::domain_point;

/// The coset shift `g` every LDE in the protocol uses: the field's
/// multiplicative generator.
pub fn coset_shift<F: PrimeField64>() -> F {
    F::MULTIPLICATIVE_GENERATOR
}

/// A batch of equal-length polynomials committed in one Merkle tree.
///
/// Leaf `i` of the tree concatenates the values of all polynomials at LDE
/// point `i` (bit-reversed order) — "taking values from the same position
/// of all the polynomials and concatenating them" (paper Fig. 1 step ③):
/// row `i` of the tree's one [`RowMajorMatrix`], as wide as the batch.
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
        assert!(!polys.is_empty(), "cannot commit to an empty batch");
        let degree = polys[0].len();
        assert!(degree.is_power_of_two(), "degree must be a power of two");
        for p in &polys {
            assert_eq!(p.len(), degree, "all polynomials must have equal length");
        }

        // LDE of every polynomial (one serial NTT per column, the columns
        // on workers), then gather the values at each domain position into
        // one row of the leaf matrix (a layout transform — the index-major
        // view of §5.1), then hash the tree.
        let shift = coset_shift::<B::F>();
        let lde_size = degree << config.rate_bits;
        let ldes: Vec<Vec<B::F>> = trace::with_span("batch.lde", || {
            let coeff_refs: Vec<&[B::F]> = polys.iter().map(|p| p.coeffs()).collect();
            unizk_field::parallel_map(coeff_refs, |c| lde_nr(c, config.rate_bits, shift))
        });

        let width = ldes.len();
        let leaves = trace::with_span("batch.leaves", || {
            let mut values = vec![B::F::ZERO; lde_size * width];
            // Pieces of whole rows: `offset` is a multiple of `width`.
            unizk_field::parallel_chunks_mut(&mut values, width, |offset, rows| {
                for (position, row) in (offset / width..).zip(rows.chunks_exact_mut(width)) {
                    for (value, lde) in row.iter_mut().zip(&ldes) {
                        *value = lde[position];
                    }
                }
            });
            RowMajorMatrix::new(values, width)
        });
        // The codewords have been transposed into the leaf matrix; free them
        // before the tree is built, so they never coexist with its levels.
        drop(ldes);

        let tree = GenericMerkleTree::<B>::new(leaves);
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
        let polys = trace::with_span("batch.intt", || {
            unizk_field::parallel_map(columns, |mut v| {
                intt_nn(&mut v);
                Polynomial::from_coeffs(v)
            })
        });
        Self::from_coeffs(polys, config)
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

    /// Every leaf, one row per LDE position (bit-reversed order).
    pub fn leaves(&self) -> &RowMajorMatrix<B::F> {
        self.tree.leaves()
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

    /// Every row of the leaf matrix against the polynomials evaluated at its
    /// domain point, at widths that fill one, two and many lanes of a row and
    /// at one and three threads — pieces of the gather that cut a row apart
    /// put values in the wrong leaves.
    fn leaf_values_match<B: SpongeBackend>(seed: u64) {
        // The thread count is process-wide but invisible in every other
        // test's results; restore the default even if an assertion fails.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                unizk_field::set_parallelism(0);
            }
        }
        let _knob = crate::PARALLELISM_KNOB.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _restore = Restore;
        let mut rng = StdRng::seed_from_u64(seed);
        let config = FriConfig::for_testing();
        for width in [1usize, 2, 135] {
            let polys: Vec<Polynomial<B::F>> = (0..width)
                .map(|_| Polynomial::from_coeffs((0..8).map(|_| B::F::random(&mut rng)).collect()))
                .collect();
            for threads in [1usize, 3] {
                unizk_field::set_parallelism(threads);
                let batch = GenericPolynomialBatch::<B>::from_coeffs(polys.clone(), &config);
                assert_eq!((batch.leaves().height(), batch.leaves().width()), (batch.lde_size(), width));
                for index in 0..batch.lde_size() {
                    let x = batch.domain_point(index);
                    let want: Vec<B::F> = polys.iter().map(|p| p.eval(x)).collect();
                    assert_eq!(batch.leaf(index), want, "width {width}, {threads} threads, index {index}");
                }
            }
        }
    }

    #[test]
    fn leaf_values_match_polynomial_evaluation() {
        leaf_values_match::<PoseidonSponge>(400);
        leaf_values_match::<unizk_hash::Poseidon2KbSponge>(405);
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
