//! The FRI prover: batch combination, commit phase (folding), grinding, and
//! query phase.
//!
//! Every function is generic over the sponge backend `B` (and hence the
//! base field `B::F` and its extension `<B::F as ProtocolField>::Ext`);
//! the Goldilocks/Poseidon aliases make existing call sites infer
//! `B = PoseidonSponge` with no changes.

use unizk_field::lanes::{dot_rows, MAX_LANES};
use unizk_field::{
    batch_inverse, log2_strict, parallel_chunks_mut, parallel_first_block, powers, ExtensionOf, Field,
    LaneKernel, Lanes, Polynomial, PrimeField64, ProtocolField,
};
use unizk_hash::{
    GenericChallenger, GenericMerkleTree, GenericSpeculativeChallenger, RowMajorMatrix, SpongeBackend,
};
use unizk_ntt::coset_intt_rn_uncounted;
use unizk_testkit::trace;

use crate::batch::GenericPolynomialBatch;
use crate::config::FriConfig;
use crate::domain::FoldDomain;
use crate::proof::{FriFoldOpening, FriInitialOpening, FriProof, FriQueryRound};

/// Coefficients per block of `fri.open`'s table of powers `1, ζ, …, ζ^B`
/// ([`Polynomial::eval_at_powers`]). Building the table is the dependent
/// chain of the point, so it is kept short: against a table as long as the
/// polynomial, 0.53 ms for 0.88 per point at 2^15 × 4 polynomials over
/// `Ext2` and 0.23 for 0.44 at 2^13 × 6 over `KbExt4`, 1.45 for 1.40 at
/// 2^10 × 331 (EXPERIMENTS.md, "Leaves that are digests"). At this length
/// it lives on the stack (4 KB); on the heap, at either length, it moved the
/// peak RSS of `stark_narrow_gl` by +1.7 MB through allocation order alone.
const OPEN_BLOCK: usize = 256;

/// The grain of the combine and of every fold: workers take pieces of
/// whole runs of this many LDE positions (fold outputs), and a layer of at
/// most one grain stays on the calling thread, where a dispatch would cost
/// more than the piece it moves. The combine also walks its piece one grain
/// at a time (64 KB per buffer on both fields). Any grain yields identical
/// values.
const POSITION_GRAIN: usize = 1 << 12;

/// Produces a FRI opening proof for `batches`, all opened at every point in
/// `points`.
///
/// The caller must already have observed the batch commitments into
/// `challenger` (as the enclosing protocol dictates); this function then
/// owns the rest of the transcript: opened values, fold commitments, final
/// polynomial, grinding, and query sampling.
///
/// # Panics
///
/// Panics if the batches have differing degrees or LDE sizes, or if
/// `points` is empty.
pub fn fri_prove<B: SpongeBackend>(
    batches: &[&GenericPolynomialBatch<B>],
    points: &[<B::F as ProtocolField>::Ext],
    challenger: &mut GenericChallenger<B>,
    config: &FriConfig,
) -> FriProof<B::F> {
    assert!(!batches.is_empty(), "need at least one batch");
    assert!(!points.is_empty(), "need at least one opening point");
    let degree = batches[0].degree();
    let lde_size = batches[0].lde_size();
    for b in batches {
        assert_eq!(b.degree(), degree, "all batches must share a degree");
        assert_eq!(b.lde_size(), lde_size, "all batches must share an LDE size");
    }

    // 1. Open every polynomial at every point; observing the claimed values
    //    binds them into the transcript.
    let _fri_span = trace::span("fri.prove");
    let openings: Vec<Vec<Vec<<B::F as ProtocolField>::Ext>>> = trace::with_span("fri.open", || {
        points
            .iter()
            .map(|&z| {
                let mut powers = [<B::F as ProtocolField>::Ext::ONE; OPEN_BLOCK + 1];
                for i in 1..=OPEN_BLOCK {
                    powers[i] = powers[i - 1] * z;
                }
                batches.iter().map(|b| b.eval_all_ext(&powers)).collect()
            })
            .collect()
    });
    trace::with_span("fri.observe_openings", || {
        for per_point in &openings {
            for per_batch in per_point {
                for &y in per_batch {
                    challenger.observe_ext(y);
                }
            }
        }
    });

    // 2. Combination challenges: α across polynomials, β across points.
    let alpha = challenger.challenge_ext();
    let beta = challenger.challenge_ext();

    // 3. Build the combined low-degree witness over the LDE domain:
    //    v0(x) = Σ_t β^t · (S(x) − Y_t) / (x − z_t),
    //    with S(x) = Σ_j α^j p_j(x) over the global polynomial index.
    let mut values = trace::with_span("fri.combine", || {
        combine_initial(batches, points, &openings, alpha, beta, lde_size)
    });

    // 4. Commit phase: arity-2 folds, one Merkle tree per round. A layer is
    //    kept only as its tree's leaves: the queries read pairs back from
    //    them.
    let num_rounds = config.num_reduction_rounds(degree);
    trace::counter("fri.reduction_rounds", num_rounds as u64);
    let mut fold_trees: Vec<GenericMerkleTree<B>> = Vec::with_capacity(num_rounds);
    let mut commit_roots = Vec::with_capacity(num_rounds);
    let mut domain = FoldDomain::<B::F>::initial(lde_size);
    {
        let _commit_span = trace::span("fri.commit_fold");
        for _ in 0..num_rounds {
            let tree = trace::with_span("fri.fold_tree", || commit_fold_layer::<B>(&values));
            challenger.observe_digest(tree.root());
            commit_roots.push(tree.root());
            fold_trees.push(tree);

            let fold_beta = challenger.challenge_ext();
            values = trace::with_span("fri.fold", || fold_layer(&values, domain, fold_beta));
            domain = domain.fold();
        }
    }

    // 5. Final polynomial: interpolate the remaining layer and send the
    //    coefficients in the clear.
    let final_poly = trace::with_span("fri.final_poly", || {
        interpolate_final(&values, domain, config.final_poly_len)
    });
    for &c in &final_poly {
        challenger.observe_ext(c);
    }

    // 6. Proof-of-work grind.
    let pow_witness =
        trace::with_span("fri.grind", || grind(challenger, config.proof_of_work_bits));
    challenger.observe(pow_witness);
    let pow_response = challenger.challenge();
    debug_assert!(pow_ok(pow_response, config.proof_of_work_bits));

    // 7. Query phase: assembling the openings is data movement; sampling
    //    each index is one short duplex.
    let _query_span = trace::span("fri.query");
    trace::counter("fri.queries", config.num_queries as u64);
    let index_bits = log2_strict(lde_size);
    let mut queries = Vec::with_capacity(config.num_queries);
    for _ in 0..config.num_queries {
        let mut idx = challenger.challenge_bits(index_bits);
        let initial = batches
            .iter()
            .map(|b| FriInitialOpening {
                leaf: b.leaf(idx).to_vec(),
                proof: b.prove_leaf(idx),
            })
            .collect();
        let mut folds = Vec::with_capacity(num_rounds);
        for tree in &fold_trees {
            let pair_index = idx >> 1;
            let (even, odd) = tree.leaf(pair_index).split_at(tree.leaves().width() / 2);
            folds.push(FriFoldOpening {
                pair: [even, odd].map(<B::F as ProtocolField>::Ext::from_base_slice),
                proof: tree.prove(pair_index),
            });
            idx = pair_index;
        }
        queries.push(FriQueryRound { initial, folds });
    }
    drop(_query_span);

    FriProof {
        openings,
        commit_roots,
        final_poly,
        pow_witness,
        queries,
    }
}

/// The combined witness `Σ_t β^t·(S − Y_t)/(x − z_t)` over the opening
/// points `z_t`, as one rational function of the domain point `x`:
///
/// `(S·A(x) − B(x)) / D(x)`, with `D = Π_t (X − z_t)`,
/// `A = Σ_t β^t·D/(X − z_t)` and `B = Σ_t β^t·Y_t·D/(X − z_t)`.
///
/// The three polynomials are expanded once from the points; at a base-field
/// `x` each is a Horner walk of base × extension products
/// ([`ExtensionOf::scale`]), so a position pays `S·A` and, after one batch
/// inversion of every `D(x)`, `·D(x)⁻¹` — where the sum pays an inversion
/// and two extension products per point. Field arithmetic is exact, so the
/// value is the sum's. The prover ([`combine_initial`]) and the verifier
/// (`fri_verify`, at each query) both evaluate the witness through it.
pub(crate) struct OpeningQuotient<F: ProtocolField> {
    /// `D`, monic of degree `T`, lowest coefficient first (`T + 1` entries).
    d: Vec<F::Ext>,
    /// `A`, degree `< T` (`T` entries).
    a: Vec<F::Ext>,
    /// `B`, degree `< T` (`T` entries).
    b: Vec<F::Ext>,
}

impl<F: ProtocolField> OpeningQuotient<F> {
    /// Expands `D`, `A` and `B` for the points `z_t`, the combined openings
    /// `Y_t` and the point challenge `β`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or `ys` has another length.
    pub(crate) fn new(points: &[F::Ext], ys: &[F::Ext], beta: F::Ext) -> Self {
        assert!(!points.is_empty(), "need at least one opening point");
        assert_eq!(points.len(), ys.len(), "one combined opening per point");
        let d = points
            .iter()
            .fold(Polynomial::constant(F::Ext::ONE), |d, &z| {
                d.mul_naive(&Polynomial::x_minus(z))
            });
        let (mut a, mut b) = (Polynomial::zero(), Polynomial::zero());
        let mut beta_pow = F::Ext::ONE;
        for (&z, &y) in points.iter().zip(ys) {
            let others = d.divide_by_linear(z);
            a = &a + &others.scale(beta_pow);
            b = &b + &others.scale(beta_pow * y);
            beta_pow *= beta;
        }
        Self {
            d: d.into_coeffs(),
            a: a.into_coeffs(),
            b: b.into_coeffs(),
        }
    }

    /// Numerator `S·A(x) − B(x)` and denominator `D(x)` of the witness at
    /// the domain point `x`, given `S(x)`: `3(T − 1)` scales and one
    /// extension product.
    pub(crate) fn at(&self, x: F, s: F::Ext) -> (F::Ext, F::Ext) {
        let t = self.a.len();
        let horner = |top: F::Ext, below: &[F::Ext]| {
            below.iter().rev().fold(top, |acc, &c| acc.scale(x) + c)
        };
        // D is monic: its Horner walk starts at x + d_{T−1}.
        let d = horner(F::Ext::from(x) + self.d[t - 1], &self.d[..t - 1]);
        let a = horner(self.a[t - 1], &self.a[..t - 1]);
        let b = horner(self.b[t - 1], &self.b[..t - 1]);
        (s * a - b, d)
    }
}

/// Evaluates the combined witness over the whole LDE domain: the numerator
/// and denominator of [`OpeningQuotient`] per position, a batch inversion
/// of the denominators, one product per position — on pieces of positions,
/// one per worker, each walked one [`POSITION_GRAIN`] at a time (one
/// inversion pass per grain).
fn combine_initial<B: SpongeBackend>(
    batches: &[&GenericPolynomialBatch<B>],
    points: &[<B::F as ProtocolField>::Ext],
    openings: &[Vec<Vec<<B::F as ProtocolField>::Ext>>],
    alpha: <B::F as ProtocolField>::Ext,
    beta: <B::F as ProtocolField>::Ext,
    lde_size: usize,
) -> Vec<<B::F as ProtocolField>::Ext> {
    type E<B> = <<B as SpongeBackend>::F as ProtocolField>::Ext;
    // α^j over the global polynomial index j.
    let alpha_pows = powers(alpha, batches.iter().map(|b| b.num_polys()).sum());

    // Y_t = Σ_j α^j y_{j,t} with the same global α powers.
    let y_combined: Vec<E<B>> = openings
        .iter()
        .map(|per_point| {
            alpha_pows
                .iter()
                .zip(per_point.iter().flatten())
                .map(|(&a, &y)| a * y)
                .sum()
        })
        .collect();
    let quotient = OpeningQuotient::<B::F>::new(points, &y_combined, beta);

    // S(x_i) = Σ_j α^j p_j(x_i): limb d of S is the base-field dot product
    // of the leaf with limb d of the α powers, one table per limb.
    let limbs: Vec<Vec<B::F>> = (0..<E<B> as ExtensionOf<B::F>>::DEGREE)
        .map(|d| alpha_pows.iter().map(|a| a.as_base_slice()[d]).collect())
        .collect();
    let leaves: Vec<&RowMajorMatrix<B::F>> = batches.iter().map(|b| b.leaves()).collect();
    let xs = FoldDomain::<B::F>::initial(lde_size).points();
    let w = extension_w::<B::F>();
    let mut values = vec![E::<B>::ZERO; lde_size];
    // Each piece of positions runs all four steps one grain at a time: the
    // sums, into the numerator with D(x_i) beside it, one inversion of the
    // grain's denominators and one product per position. A grain's buffers
    // stay small enough to be reused from the heap, not fresh pages.
    parallel_chunks_mut(&mut values, POSITION_GRAIN, |from, piece| {
        let mut denoms = vec![E::<B>::ZERO; piece.len().min(POSITION_GRAIN)];
        for (from, values) in (from..).step_by(POSITION_GRAIN).zip(piece.chunks_mut(POSITION_GRAIN)) {
            B::F::with_lanes(LeafSums {
                leaves: &leaves,
                limbs: &limbs,
                from,
                sums: values,
            });
            let denoms = &mut denoms[..values.len()];
            B::F::with_lanes(WitnessRows {
                quotient: &quotient,
                xs: &xs[from..from + values.len()],
                w,
                values,
                denoms,
            });
            let inv = batch_inverse(denoms);
            B::F::with_lanes(ExtProducts::<B::F> {
                values,
                factors: &inv,
                w,
            });
        }
    });
    values
}

/// The kernel of [`combine_initial`]'s rational function: `values[i]`
/// holds `S(x_i)` and becomes the numerator `S·A(x_i) − B(x_i)`, and
/// `denoms[i]` becomes `D(x_i)` — [`OpeningQuotient::at`] on rows of
/// positions ([`ExtRows`]), whole rows of the widest lanes, then the rest
/// on one-lane rows.
struct WitnessRows<'a, F: ProtocolField> {
    quotient: &'a OpeningQuotient<F>,
    xs: &'a [F],
    /// The extension's `W` ([`extension_w`]).
    w: F,
    values: &'a mut [F::Ext],
    denoms: &'a mut [F::Ext],
}

impl<F: ProtocolField> LaneKernel<F> for WitnessRows<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(mut self) {
        match <F::Ext as ExtensionOf<F>>::DEGREE {
            2 => {
                let done = self.rows::<L, 2>(0);
                self.rows::<F, 2>(done);
            }
            4 => {
                let done = self.rows::<L, 4>(0);
                self.rows::<F, 4>(done);
            }
            d => unreachable!("no challenge extension of degree {d}"),
        }
    }
}

impl<F: ProtocolField> WitnessRows<'_, F> {
    /// The whole rows of `L` from position `from` on, extension elements
    /// of `D` limbs; returns the positions done.
    #[inline(always)]
    fn rows<L: Lanes<Scalar = F>, const D: usize>(&mut self, from: usize) -> usize {
        let q = self.quotient;
        let (Some((&d_lead, d_below)), Some((&a_lead, a_below)), Some((&b_lead, b_below))) =
            (q.d.split_last().and_then(|(_, d)| d.split_last()), q.a.split_last(), q.b.split_last())
        else {
            return from;
        };
        let (Some(values), Some(denoms), Some(xs)) = (self.values.get_mut(from..), self.denoms.get_mut(from..), self.xs.get(from..)) else {
            return from;
        };
        let w = L::splat(self.w);
        let mut scratch = [F::ZERO; 4 * MAX_LANES];
        let mut done = from;
        let rows = values.chunks_exact_mut(L::WIDTH).zip(denoms.chunks_exact_mut(L::WIDTH)).zip(xs.chunks_exact(L::WIDTH));
        for ((values, denoms), xs) in rows {
            let x = L::load(xs);
            // D is monic: its Horner walk starts at x + d_{T−1}.
            let d = (ExtRows::<L, D>::from_base(x) + ExtRows::splat(d_lead)).horner(x, d_below);
            let a = ExtRows::<L, D>::splat(a_lead).horner(x, a_below);
            let b = ExtRows::<L, D>::splat(b_lead).horner(x, b_below);
            let s = ExtRows::<L, D>::load(values, &mut scratch);
            (s.mul(a, w) - b).store(values, &mut scratch);
            d.store(denoms, &mut scratch);
            done += L::WIDTH;
        }
        done
    }
}

/// `values[i] ← values[i] · factors[i]` over the common length, in the
/// extension: the combine's final `·D(x)⁻¹`.
struct ExtProducts<'a, F: ProtocolField> {
    values: &'a mut [F::Ext],
    factors: &'a [F::Ext],
    /// The extension's `W` ([`extension_w`]).
    w: F,
}

impl<F: ProtocolField> LaneKernel<F> for ExtProducts<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(self) {
        let (values, factors, w) = (self.values, self.factors, self.w);
        match <F::Ext as ExtensionOf<F>>::DEGREE {
            2 => {
                let done = ext_products::<L, 2>(values, factors, w, 0);
                ext_products::<F, 2>(values, factors, w, done);
            }
            4 => {
                let done = ext_products::<L, 4>(values, factors, w, 0);
                ext_products::<F, 4>(values, factors, w, done);
            }
            d => unreachable!("no challenge extension of degree {d}"),
        }
    }
}

/// The whole rows of [`ExtProducts`] from position `from` on; returns the
/// positions done.
#[inline(always)]
fn ext_products<L: Lanes, const D: usize>(
    values: &mut [<L::Scalar as ProtocolField>::Ext],
    factors: &[<L::Scalar as ProtocolField>::Ext],
    w: L::Scalar,
    from: usize,
) -> usize
where
    L::Scalar: ProtocolField,
{
    let (Some(values), Some(factors)) = (values.get_mut(from..), factors.get(from..)) else {
        return from;
    };
    let w = L::splat(w);
    let mut scratch = [L::Scalar::ZERO; 4 * MAX_LANES];
    let mut done = from;
    for (values, factors) in values.chunks_exact_mut(L::WIDTH).zip(factors.chunks_exact(L::WIDTH)) {
        let product = ExtRows::<L, D>::load(values, &mut scratch).mul(ExtRows::load(factors, &mut scratch), w);
        product.store(values, &mut scratch);
        done += L::WIDTH;
    }
    done
}

/// Extension elements of `D` limbs on the lanes of `L`: limb `k` of lane
/// `l` is limb `k` of position `l`'s element of `Fp[X] / (X^D − W)` — the
/// arithmetic of [`unizk_field::BinomialExtension`] on rows of positions
/// (its tests hold the two to each other). `D` is at most 4, so a row's
/// limbs pass through a scratch buffer of `4·MAX_LANES` scalars.
#[derive(Clone, Copy)]
struct ExtRows<L, const D: usize>([L; D]);

/// The `W` of the challenge extension `Fp[X] / (X^D − W)`: limb 0 of
/// `X^D`.
fn extension_w<F: ProtocolField>() -> F {
    let x = F::Ext::from_base_fn(|k| if k == 1 { F::ONE } else { F::ZERO });
    x.exp_u64(<F::Ext as ExtensionOf<F>>::DEGREE as u64).as_base_slice()[0]
}

impl<L: Lanes, const D: usize> ExtRows<L, D>
where
    L::Scalar: PrimeField64,
{
    /// Every lane `e`.
    #[inline(always)]
    fn splat<E: ExtensionOf<L::Scalar>>(e: E) -> Self {
        let mut limbs = [L::splat(L::Scalar::ZERO); D];
        for (limb, &c) in limbs.iter_mut().zip(e.as_base_slice()) {
            *limb = L::splat(c);
        }
        Self(limbs)
    }

    /// The base-field row `x` embedded.
    #[inline(always)]
    fn from_base(x: L) -> Self {
        let mut limbs = [L::splat(L::Scalar::ZERO); D];
        if let Some(first) = limbs.first_mut() {
            *first = x;
        }
        Self(limbs)
    }

    /// The first `WIDTH` elements of `values`, limbs gathered through
    /// `scratch` (limb `k` of lane `l` at `k·WIDTH + l`).
    #[inline(always)]
    fn load<E: ExtensionOf<L::Scalar>>(values: &[E], scratch: &mut [L::Scalar; 4 * MAX_LANES]) -> Self {
        for (l, e) in values.iter().take(L::WIDTH).enumerate() {
            let slots = scratch.chunks_exact_mut(L::WIDTH).filter_map(|row| row.get_mut(l));
            for (slot, &c) in slots.zip(e.as_base_slice()) {
                *slot = c;
            }
        }
        let mut limbs = [L::splat(L::Scalar::ZERO); D];
        for (limb, row) in limbs.iter_mut().zip(scratch.chunks_exact(L::WIDTH)) {
            *limb = L::load(row);
        }
        Self(limbs)
    }

    /// Writes lane `l` to `values[l]` for the first `WIDTH` elements,
    /// through `scratch` as in [`ExtRows::load`].
    #[inline(always)]
    fn store<E: ExtensionOf<L::Scalar>>(self, values: &mut [E], scratch: &mut [L::Scalar; 4 * MAX_LANES]) {
        for (limb, row) in self.0.iter().zip(scratch.chunks_exact_mut(L::WIDTH)) {
            limb.store(row);
        }
        for (l, value) in values.iter_mut().take(L::WIDTH).enumerate() {
            *value = E::from_base_fn(|k| scratch.get(k * L::WIDTH + l).copied().unwrap_or(L::Scalar::ZERO));
        }
    }

    /// `(…(self·x + c_{k−1})·x + …)·x + c_0` for `below = [c_0, …, c_{k−1}]`:
    /// the Horner walk of [`OpeningQuotient::at`] from a leading term.
    #[inline(always)]
    fn horner<E: ExtensionOf<L::Scalar>>(mut self, x: L, below: &[E]) -> Self {
        for &c in below.iter().rev() {
            self = self.scale(x) + Self::splat(c);
        }
        self
    }

    /// Each limb times the base-field row `x`.
    #[inline(always)]
    fn scale(mut self, x: L) -> Self {
        for limb in &mut self.0 {
            *limb = *limb * x;
        }
        self
    }

    /// The product reduced by `X^D = w`: the schoolbook limbs at and above
    /// `X^D` summed apart and folded down with one product by `w` each.
    #[inline(always)]
    fn mul(self, rhs: Self, w: L) -> Self {
        let zero = L::splat(L::Scalar::ZERO);
        let (mut lo, mut hi) = ([zero; D], [zero; D]);
        for (i, &a) in self.0.iter().enumerate() {
            for (j, &b) in rhs.0.iter().enumerate() {
                let limb = if i + j < D { lo.get_mut(i + j) } else { hi.get_mut(i + j - D) };
                if let Some(limb) = limb {
                    *limb = *limb + a * b;
                }
            }
        }
        for (limb, &high) in lo.iter_mut().zip(&hi) {
            *limb = *limb + w * high;
        }
        Self(lo)
    }
}

impl<L: Lanes, const D: usize> core::ops::Add for ExtRows<L, D> {
    type Output = Self;

    #[inline(always)]
    fn add(mut self, rhs: Self) -> Self {
        for (a, &b) in self.0.iter_mut().zip(&rhs.0) {
            *a = *a + b;
        }
        self
    }
}

impl<L: Lanes, const D: usize> core::ops::Sub for ExtRows<L, D> {
    type Output = Self;

    #[inline(always)]
    fn sub(mut self, rhs: Self) -> Self {
        for (a, &b) in self.0.iter_mut().zip(&rhs.0) {
            *a = *a - b;
        }
        self
    }
}

/// The kernel of [`combine_initial`]'s sum: `sums[i] = Σ_j α^j p_j(x_i)`
/// over row `from + i` of every batch's leaf matrix, in global polynomial
/// order, each limb a [`dot_rows`] against its table in `limbs`.
struct LeafSums<'a, F, E> {
    leaves: &'a [&'a RowMajorMatrix<F>],
    limbs: &'a [Vec<F>],
    /// The leaf row of `sums[0]`.
    from: usize,
    sums: &'a mut [E],
}

impl<F: PrimeField64, E: ExtensionOf<F>> LaneKernel<F> for LeafSums<'_, F, E> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(self) {
        for (i, sum) in (self.from..).zip(self.sums.iter_mut()) {
            let mut offset = 0;
            for batch in self.leaves {
                let Some(leaf) = batch.get_row(i) else { continue };
                *sum += E::from_base_fn(|d| {
                    let limb = self.limbs.get(d).and_then(|t| t.get(offset..)).unwrap_or_default();
                    dot_rows::<L>(limb, leaf)
                });
                offset += leaf.len();
            }
        }
    }
}

/// Builds the Merkle tree over fold pairs of a layer: leaf `k` holds the
/// base limbs of `(v[2k], v[2k+1])`, one row of width `2·D` of a flat copy
/// of the layer's limbs.
fn commit_fold_layer<B: SpongeBackend>(
    values: &[<B::F as ProtocolField>::Ext],
) -> GenericMerkleTree<B> {
    let width = 2 * <<B::F as ProtocolField>::Ext as ExtensionOf<B::F>>::DEGREE;
    let mut limbs = Vec::with_capacity(values.len() / 2 * width);
    for v in values {
        limbs.extend_from_slice(v.as_base_slice());
    }
    GenericMerkleTree::<B>::new(RowMajorMatrix::new(limbs, width))
}

/// Performs one arity-2 fold of a bit-reversed layer over `domain`.
///
/// With `p(x) = p_e(x²) + x·p_o(x²)` and the sibling pair `(v(x), v(−x))`
/// adjacent in bit-reversed order, the folded value at `y = x²` is
/// `p_e(y) + β·p_o(y)`.
fn fold_layer<F: ProtocolField>(
    values: &[F::Ext],
    domain: FoldDomain<F>,
    fold_beta: F::Ext,
) -> Vec<F::Ext> {
    debug_assert_eq!(values.len(), domain.size);
    let two_inv = F::TWO.inverse();
    let x_invs = domain.pair_inverses();
    let mut out = vec![F::Ext::ZERO; domain.size / 2];
    parallel_chunks_mut(&mut out, POSITION_GRAIN, |from, out| {
        let pairs = values[2 * from..].chunks_exact(2).zip(&x_invs[from..]);
        for (folded, (pair, &x_inv)) in out.iter_mut().zip(pairs) {
            *folded = fold_pair::<F>([pair[0], pair[1]], x_inv, two_inv, fold_beta);
        }
    });
    out
}

/// The fold of one sibling pair `(v(x), v(−x))`, given `1/x` and `1/2`;
/// shared with [`crate::verifier`].
pub(crate) fn fold_pair<F: ProtocolField>(
    pair: [F::Ext; 2],
    x_inv: F,
    two_inv: F,
    fold_beta: F::Ext,
) -> F::Ext {
    let even = (pair[0] + pair[1]).scale(two_inv);
    let odd = (pair[0] - pair[1]).scale(two_inv * x_inv);
    even + fold_beta * odd
}

/// Interpolates the final layer (bit-reversed values over `domain`) into
/// exactly `max_len` coefficients.
///
/// # Panics
///
/// Panics if the layer does not actually have degree `< max_len` — an
/// honest prover never hits this.
fn interpolate_final<F: ProtocolField>(
    values: &[F::Ext],
    domain: FoldDomain<F>,
    max_len: usize,
) -> Vec<F::Ext> {
    let mut coeffs = final_layer_coeffs(values, domain);
    for (i, c) in coeffs.iter().enumerate() {
        assert!(
            i < max_len || c.is_zero(),
            "final polynomial exceeds the degree bound (prover bug)"
        );
    }
    coeffs.resize(max_len, F::Ext::ZERO);
    coeffs
}

/// All `domain.size` coefficients of the polynomial whose bit-reversed
/// values over `domain` are `values`: the inverse coset transform of each
/// base limb in turn (the transform is linear over the base field), so
/// `O(m log m)` base products per limb where Lagrange interpolation
/// (`Polynomial::interpolate`, the test oracle) pays `O(m³)` extension
/// products — ≈ 2 ms of every Plonk proof at `m = 64`.
fn final_layer_coeffs<F: ProtocolField>(values: &[F::Ext], domain: FoldDomain<F>) -> Vec<F::Ext> {
    let m = values.len();
    debug_assert_eq!(m, domain.size);
    let degree = <F::Ext as ExtensionOf<F>>::DEGREE;
    // Limb-major: limb l of coefficient k at limbs[l·m + k].
    let mut limbs = vec![F::ZERO; degree * m];
    for (l, column) in limbs.chunks_exact_mut(m).enumerate() {
        for (c, v) in column.iter_mut().zip(values) {
            *c = v.as_base_slice()[l];
        }
        coset_intt_rn_uncounted(column, domain.shift);
    }
    let mut element = Vec::with_capacity(degree);
    (0..m)
        .map(|k| {
            element.clear();
            element.extend((0..degree).map(|l| limbs[l * m + k]));
            F::Ext::from_base_slice(&element)
        })
        .collect()
}

/// Nonces scanned per grind block: a whole number of dispatches, and the
/// unit of the deterministic parallel search — see [`scan_block`].
const GRIND_BLOCK: u64 = 512;

/// Candidate nonces [`scan_block`] hands the backend per speculative
/// dispatch. How many of them walk the rounds in lockstep is the backend's
/// own business ([`SpongeBackend::speculative_rows`]): Poseidon takes them
/// 32 at a time on vector rows (four registers of eight) and eight at a time
/// on array rows, Poseidon2-KoalaBear sixteen at a time on vector rows and
/// eight on scalar rows, so 32 is the smallest dispatch that is whole groups
/// for all of them. Sixteen would put the Goldilocks vector rows on their
/// one-register path, two serial chains instead of four overlapped ones
/// (EXPERIMENTS.md, "Four chains per row"); on KoalaBear 16, 32 and 64 tie
/// ("Vector rows, KoalaBear").
const GRIND_LANES: usize = 32;

const _: () = assert!(GRIND_BLOCK.is_multiple_of(GRIND_LANES as u64));

/// Searches for a grinding witness: the **smallest** nonce whose
/// speculative challenge passes [`pow_ok`].
///
/// The scan is organised for two axes of parallelism while staying
/// bit-deterministic:
///
/// * **Lanes** — within a block, candidate nonces run through the
///   backend's lockstep engine (`GRIND_LANES` = 32 nonces per dispatch, in
///   groups of the backend's own width), evaluating only the challenge row
///   of the output state.
/// * **Threads** — blocks of `GRIND_BLOCK` (512) nonces are searched with
///   [`parallel_first_block`], which returns the lowest-indexed successful
///   block under every `set_parallelism` setting.
///
/// Both axes overshoot: lanes past the winner within a dispatch, blocks past
/// the winning block, at most one per worker. Nothing is counted per attempt;
/// instead the *logical* attempt count — `winner + 1`, exactly what a
/// serial one-bump-per-attempt scan totals — lands on the backend's
/// permutation counter once at the end, keeping the counter byte-identical
/// for every block size and thread count.
pub fn grind<B: SpongeBackend>(challenger: &GenericChallenger<B>, bits: usize) -> B::F {
    // Rule P04 upstream: a `BITS`-bit challenge cannot show `BITS` leading
    // zeros, so the scan below would walk the whole nonce space and never
    // return.
    assert!(
        bits < B::F::BITS,
        "grind demands {bits} leading zero bits of a {}-bit challenge",
        B::F::BITS
    );
    let speculative = challenger.speculative_challenger();
    let winner = parallel_first_block(|k| scan_block(&speculative, k as u64 * GRIND_BLOCK, bits));
    trace::counter(B::COUNTER, winner + 1);
    B::F::from_u64(winner)
}

/// Scans the block of nonces `[start, start + GRIND_BLOCK)` and returns the
/// lowest qualifying nonce in it, if any: [`GRIND_LANES`] consecutive
/// nonces per dispatch, dispatches walked in ascending order.
fn scan_block<B: SpongeBackend>(
    speculative: &GenericSpeculativeChallenger<B>,
    start: u64,
    bits: usize,
) -> Option<u64> {
    let mut nonce = start;
    while nonce < start + GRIND_BLOCK {
        let mut xs = [B::F::ZERO; GRIND_LANES];
        for (l, x) in xs.iter_mut().enumerate() {
            *x = B::F::from_u64(nonce + l as u64);
        }
        let responses = speculative.challenge_batch_uncounted(&xs);
        for (l, &r) in responses.iter().enumerate() {
            if pow_ok(r, bits) {
                return Some(nonce + l as u64);
            }
        }
        nonce += GRIND_LANES as u64;
    }
    None
}

/// The grinding condition: the response's low `bits` bits are zero.
pub fn pow_ok<F: PrimeField64>(response: F, bits: usize) -> bool {
    response.as_u64() & ((1u64 << bits) - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::{Ext2, Goldilocks};
    use unizk_hash::Challenger;
    use unizk_testkit::prop::prelude::*;
    use unizk_testkit::prop::CaseResult;

    #[test]
    fn fold_layer_preserves_low_degree() {
        use unizk_testkit::rng::TestRng as StdRng;
        // Take a random degree-<16 polynomial over a size-64 domain, fold,
        // and check the result matches p_e + β·p_o evaluated on the squared
        // domain.
        let mut rng = StdRng::seed_from_u64(500);
        let coeffs: Vec<Ext2> = (0..16)
            .map(|_| Ext2::from(Goldilocks::random(&mut rng)))
            .collect();
        let poly = Polynomial::from_coeffs(coeffs.clone());
        let domain = FoldDomain::<Goldilocks>::initial(64);
        let values: Vec<Ext2> = (0..64)
            .map(|i| poly.eval(Ext2::from(domain.point(i))))
            .collect();
        let beta = Ext2::new([3, 5].map(Goldilocks::from_u64));
        let folded = fold_layer(&values, domain, beta);

        let even = Polynomial::from_coeffs(coeffs.iter().copied().step_by(2).collect::<Vec<_>>());
        let odd = Polynomial::from_coeffs(coeffs.iter().copied().skip(1).step_by(2).collect::<Vec<_>>());
        let next = domain.fold();
        for (k, f) in folded.iter().enumerate().take(32) {
            let y = Ext2::from(next.point(k));
            assert_eq!(*f, even.eval(y) + beta * odd.eval(y), "k={k}");
        }
    }

    #[test]
    fn koalabear_fold_layer_preserves_low_degree() {
        use unizk_field::{KbExt4, KoalaBear};
        use unizk_testkit::rng::TestRng as StdRng;
        let mut rng = StdRng::seed_from_u64(501);
        let coeffs: Vec<KbExt4> = (0..16)
            .map(|_| KbExt4::from(KoalaBear::random(&mut rng)))
            .collect();
        let poly = Polynomial::from_coeffs(coeffs.clone());
        let domain = FoldDomain::<KoalaBear>::initial(64);
        let values: Vec<KbExt4> = (0..64)
            .map(|i| poly.eval(KbExt4::from(domain.point(i))))
            .collect();
        let beta = KbExt4::from(KoalaBear::from_u64(7)) + KbExt4::X;
        let folded = fold_layer(&values, domain, beta);

        let even = Polynomial::from_coeffs(coeffs.iter().copied().step_by(2).collect::<Vec<_>>());
        let odd =
            Polynomial::from_coeffs(coeffs.iter().copied().skip(1).step_by(2).collect::<Vec<_>>());
        let next = domain.fold();
        for (k, f) in folded.iter().enumerate().take(32) {
            let y = KbExt4::from(next.point(k));
            assert_eq!(*f, even.eval(y) + beta * odd.eval(y), "k={k}");
        }
    }

    /// The sum [`OpeningQuotient`] replaces: `Σ_t β^t·(S − Y_t)/(x − z_t)`,
    /// one inversion per point.
    fn combine_direct<F: ProtocolField>(
        points: &[F::Ext],
        ys: &[F::Ext],
        beta: F::Ext,
        s: F::Ext,
        x: F,
    ) -> F::Ext {
        let mut value = F::Ext::ZERO;
        let mut beta_pow = F::Ext::ONE;
        for (&z, &y) in points.iter().zip(ys) {
            value += beta_pow * (s - y) * (F::Ext::from(x) - z).inverse();
            beta_pow *= beta;
        }
        value
    }

    fn random_ext<F: ProtocolField>(rng: &mut unizk_testkit::rng::TestRng) -> F::Ext {
        let limbs: Vec<F> = (0..<F::Ext as ExtensionOf<F>>::DEGREE)
            .map(|_| F::random(rng))
            .collect();
        F::Ext::from_base_slice(&limbs)
    }

    fn rational_combine_is_the_direct_sum<F: ProtocolField>(seed: u64) {
        let mut rng = unizk_testkit::rng::TestRng::seed_from_u64(seed);
        let xs = FoldDomain::<F>::initial(64).points();
        for num_points in 1..=3 {
            let points: Vec<F::Ext> = (0..num_points).map(|_| random_ext::<F>(&mut rng)).collect();
            let ys: Vec<F::Ext> = (0..num_points).map(|_| random_ext::<F>(&mut rng)).collect();
            let beta = random_ext::<F>(&mut rng);
            let quotient = OpeningQuotient::<F>::new(&points, &ys, beta);
            for &x in &xs {
                let s = random_ext::<F>(&mut rng);
                let (numerator, denominator) = quotient.at(x, s);
                assert_eq!(
                    numerator * denominator.inverse(),
                    combine_direct::<F>(&points, &ys, beta, s, x),
                    "{num_points} points, x = {x}"
                );
            }
        }
    }

    #[test]
    fn goldilocks_rational_combine_is_the_direct_sum() {
        rational_combine_is_the_direct_sum::<Goldilocks>(502);
    }

    #[test]
    fn koalabear_rational_combine_is_the_direct_sum() {
        rational_combine_is_the_direct_sum::<unizk_field::KoalaBear>(503);
    }

    /// [`LeafSums`] against `Σ_j α^j·p_j(x)` scaled term by term, over
    /// batches whose widths leave every remainder of a lane row, one lane at
    /// a time and dispatched.
    fn leaf_sums_are_the_scaled_sum<F: ProtocolField>(seed: u64) {
        let mut rng = unizk_testkit::rng::TestRng::seed_from_u64(seed);
        let positions = 12;
        let widths = [1usize, 7, 8, 9, 17, 135];
        let batches: Vec<RowMajorMatrix<F>> = widths
            .iter()
            .map(|&w| RowMajorMatrix::new((0..positions * w).map(|_| F::random(&mut rng)).collect(), w))
            .collect();
        let alpha_pows = powers(random_ext::<F>(&mut rng), widths.iter().sum());
        let limbs: Vec<Vec<F>> = (0..<F::Ext as ExtensionOf<F>>::DEGREE)
            .map(|d| alpha_pows.iter().map(|a| a.as_base_slice()[d]).collect())
            .collect();
        let leaves: Vec<&RowMajorMatrix<F>> = batches.iter().collect();
        let want: Vec<F::Ext> = (0..positions)
            .map(|i| {
                let values = batches.iter().flat_map(|b| b.row(i));
                alpha_pows.iter().zip(values).map(|(a, &v)| a.scale(v)).sum()
            })
            .collect();
        let mut one = vec![F::Ext::ZERO; positions];
        LeafSums { leaves: &leaves, limbs: &limbs, from: 0, sums: &mut one }.run::<F>();
        let mut dispatched = vec![F::Ext::ZERO; positions];
        F::with_lanes(LeafSums { leaves: &leaves, limbs: &limbs, from: 0, sums: &mut dispatched });
        assert_eq!(one, want);
        assert_eq!(dispatched, want);
    }

    #[test]
    fn goldilocks_leaf_sums_are_the_scaled_sum() {
        leaf_sums_are_the_scaled_sum::<Goldilocks>(504);
    }

    #[test]
    fn koalabear_leaf_sums_are_the_scaled_sum() {
        leaf_sums_are_the_scaled_sum::<unizk_field::KoalaBear>(505);
    }

    /// `[a + b, a − b, a·b, a·x]` on [`ExtRows`] of `L` over whole rows.
    struct ExtOps<'a, F: ProtocolField> {
        a: &'a [F::Ext],
        b: &'a [F::Ext],
        xs: &'a [F],
        w: F,
    }

    impl<F: ProtocolField> ExtOps<'_, F> {
        fn rows<L: Lanes<Scalar = F>, const D: usize>(&self) -> Vec<[F::Ext; 4]> {
            let mut scratch = [F::ZERO; 4 * MAX_LANES];
            let mut out = Vec::new();
            let rows = self.a.chunks_exact(L::WIDTH).zip(self.b.chunks_exact(L::WIDTH)).zip(self.xs.chunks_exact(L::WIDTH));
            for ((a, b), xs) in rows {
                let (x, w) = (L::load(xs), L::splat(self.w));
                let (a, b) = (ExtRows::<L, D>::load(a, &mut scratch), ExtRows::<L, D>::load(b, &mut scratch));
                let mut results = vec![[F::Ext::ZERO; 4]; L::WIDTH];
                for (op, row) in [a + b, a - b, a.mul(b, w), a.scale(x)].into_iter().enumerate() {
                    let mut values = vec![F::Ext::ZERO; L::WIDTH];
                    row.store(&mut values, &mut scratch);
                    for (result, value) in results.iter_mut().zip(values) {
                        result[op] = value;
                    }
                }
                out.extend(results);
            }
            out
        }
    }

    impl<F: ProtocolField> LaneKernel<F> for ExtOps<'_, F> {
        type Output = Vec<[F::Ext; 4]>;

        fn run<L: Lanes<Scalar = F>>(self) -> Self::Output {
            match <F::Ext as ExtensionOf<F>>::DEGREE {
                2 => self.rows::<L, 2>(),
                4 => self.rows::<L, 4>(),
                d => unreachable!("no extension of degree {d}"),
            }
        }
    }

    /// [`ExtRows`] against [`unizk_field::BinomialExtension`], one lane and
    /// dispatched, on random elements and the extremes `0`, `1`, `−1`.
    fn ext_rows_are_the_extension<F: ProtocolField>(seed: u64) {
        let mut rng = unizk_testkit::rng::TestRng::seed_from_u64(seed);
        let extremes = [F::Ext::ZERO, F::Ext::ONE, -F::Ext::ONE];
        let mut element = |i: usize| extremes.get(i % 11).copied().unwrap_or_else(|| random_ext::<F>(&mut rng));
        let a: Vec<F::Ext> = (0..64).map(&mut element).collect();
        let b: Vec<F::Ext> = (0..64).map(|i| element(i / 3)).collect();
        let xs: Vec<F> = (0..64).map(|i| F::from_u64(i as u64) - F::ONE).collect();
        let w = extension_w::<F>();
        let x_to_d = F::Ext::from_base_fn(|k| if k == 1 { F::ONE } else { F::ZERO }).exp_u64(<F::Ext as ExtensionOf<F>>::DEGREE as u64);
        assert_eq!(x_to_d, F::Ext::from(w), "W is X^D");
        let want: Vec<[F::Ext; 4]> =
            a.iter().zip(&b).zip(&xs).map(|((&a, &b), &x)| [a + b, a - b, a * b, a.scale(x)]).collect();
        assert_eq!(ExtOps::<F> { a: &a, b: &b, xs: &xs, w }.run::<F>(), want, "one lane");
        assert_eq!(F::with_lanes(ExtOps::<F> { a: &a, b: &b, xs: &xs, w }), want, "dispatched");
    }

    #[test]
    fn goldilocks_ext_rows_are_the_extension() {
        ext_rows_are_the_extension::<Goldilocks>(506);
    }

    #[test]
    fn koalabear_ext_rows_are_the_extension() {
        ext_rows_are_the_extension::<unizk_field::KoalaBear>(507);
    }

    /// [`WitnessRows`] and [`ExtProducts`] at every length 0..=40 — so every
    /// remainder of a row — against [`OpeningQuotient::at`] and the
    /// extension product one position at a time.
    fn combine_rows_are_the_scalar_path<F: ProtocolField>(seed: u64) {
        let mut rng = unizk_testkit::rng::TestRng::seed_from_u64(seed);
        let w = extension_w::<F>();
        for num_points in 1..=3 {
            let points: Vec<F::Ext> = (0..num_points).map(|_| random_ext::<F>(&mut rng)).collect();
            let ys: Vec<F::Ext> = (0..num_points).map(|_| random_ext::<F>(&mut rng)).collect();
            let quotient = OpeningQuotient::<F>::new(&points, &ys, random_ext::<F>(&mut rng));
            for len in 0..=40 {
                let xs = FoldDomain::<F>::initial(64).points()[..len].to_vec();
                let sums: Vec<F::Ext> = (0..len).map(|_| random_ext::<F>(&mut rng)).collect();
                let factors: Vec<F::Ext> = (0..len).map(|_| random_ext::<F>(&mut rng)).collect();
                let (want_values, want_denoms): (Vec<F::Ext>, Vec<F::Ext>) = xs.iter().zip(&sums).map(|(&x, &s)| quotient.at(x, s)).unzip();
                let want_products: Vec<F::Ext> = sums.iter().zip(&factors).map(|(&s, &f)| s * f).collect();
                for one_lane in [true, false] {
                    let (mut values, mut denoms) = (sums.clone(), vec![F::Ext::ZERO; len]);
                    let kernel = WitnessRows { quotient: &quotient, xs: &xs, w, values: &mut values, denoms: &mut denoms };
                    let mut products = sums.clone();
                    let product_kernel = ExtProducts::<F> { values: &mut products, factors: &factors, w };
                    if one_lane {
                        kernel.run::<F>();
                        product_kernel.run::<F>();
                    } else {
                        F::with_lanes(kernel);
                        F::with_lanes(product_kernel);
                    }
                    let at = format!("{num_points} points, len {len}, one lane {one_lane}");
                    assert_eq!((values, denoms), (want_values.clone(), want_denoms.clone()), "{at}");
                    assert_eq!(products, want_products, "{at}");
                }
            }
        }
    }

    #[test]
    fn goldilocks_combine_rows_are_the_scalar_path() {
        combine_rows_are_the_scalar_path::<Goldilocks>(508);
    }

    #[test]
    fn koalabear_combine_rows_are_the_scalar_path() {
        combine_rows_are_the_scalar_path::<unizk_field::KoalaBear>(509);
    }

    /// [`combine_initial`] and a [`fold_layer`] of its result at threads 2,
    /// 3 and 5 against one thread (one piece, on the calling thread), at LDE
    /// sizes 2^3–2^14: below, at and above one [`POSITION_GRAIN`] of
    /// positions and of fold outputs.
    fn pieces_are_the_serial_result<B: SpongeBackend>(seed: u64) {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                unizk_field::set_parallelism(0);
            }
        }
        let _knob = crate::PARALLELISM_KNOB.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _restore = Restore;
        let mut rng = unizk_testkit::rng::TestRng::seed_from_u64(seed);
        let config = FriConfig { rate_bits: 1, ..FriConfig::for_testing() };
        for log_lde in 3..=14 {
            let (lde_size, degree) = (1usize << log_lde, 1usize << (log_lde - 1));
            let batches: Vec<GenericPolynomialBatch<B>> = [2usize, 5]
                .iter()
                .map(|&width| {
                    let polys = (0..width)
                        .map(|_| Polynomial::from_coeffs((0..degree).map(|_| B::F::random(&mut rng)).collect()))
                        .collect();
                    GenericPolynomialBatch::from_coeffs(polys, &config)
                })
                .collect();
            let batches: Vec<&GenericPolynomialBatch<B>> = batches.iter().collect();
            let points: Vec<_> = (0..2).map(|_| random_ext::<B::F>(&mut rng)).collect();
            let openings: Vec<Vec<Vec<_>>> = points
                .iter()
                .map(|_| batches.iter().map(|b| (0..b.num_polys()).map(|_| random_ext::<B::F>(&mut rng)).collect()).collect())
                .collect();
            let [alpha, beta, fold_beta] = [(); 3].map(|()| random_ext::<B::F>(&mut rng));
            let domain = FoldDomain::<B::F>::initial(lde_size);
            let run = |threads| {
                unizk_field::set_parallelism(threads);
                let combined = combine_initial(&batches, &points, &openings, alpha, beta, lde_size);
                let folded = fold_layer(&combined, domain, fold_beta);
                (combined, folded)
            };
            let serial = run(1);
            for threads in [2, 3, 5] {
                assert!(run(threads) == serial, "{} LDE 2^{log_lde}, {threads} threads", B::NAME);
            }
        }
    }

    #[test]
    fn goldilocks_combine_and_fold_pieces_are_the_serial_result() {
        pieces_are_the_serial_result::<unizk_hash::PoseidonSponge>(510);
    }

    #[test]
    fn koalabear_combine_and_fold_pieces_are_the_serial_result() {
        pieces_are_the_serial_result::<unizk_hash::Poseidon2KbSponge>(511);
    }

    /// The final layer's transform against the Lagrange interpolation it
    /// replaces, on a domain folded `folds` times from the LDE coset.
    fn final_layer_is_lagrange<F: ProtocolField>(
        words: &[u64],
        log_m: usize,
        folds: usize,
    ) -> CaseResult {
        let m = 1usize << log_m;
        let mut domain = FoldDomain::<F>::initial(m << folds);
        for _ in 0..folds {
            domain = domain.fold();
        }
        let degree = <F::Ext as ExtensionOf<F>>::DEGREE;
        let values: Vec<F::Ext> = words
            .chunks_exact(degree)
            .take(m)
            .map(|limbs| {
                F::Ext::from_base_slice(&limbs.iter().map(|&w| F::from_u64(w)).collect::<Vec<F>>())
            })
            .collect();
        let xs: Vec<F::Ext> = domain.points().into_iter().map(F::Ext::from).collect();
        let lagrange = Polynomial::interpolate(&xs, &values).into_coeffs();
        prop_assert_eq!(final_layer_coeffs(&values, domain), lagrange);
        Ok(())
    }

    prop! {
        #![cases(16)]
        fn final_layer_transform_is_lagrange_over_both_extensions(
            words in prop::collection::vec(any::<u64>(), 256),
            log_m in 0usize..7,
            folds in 0usize..4,
        ) {
            final_layer_is_lagrange::<Goldilocks>(&words, log_m, folds)?;
            final_layer_is_lagrange::<unizk_field::KoalaBear>(&words, log_m, folds)?;
        }
    }

    #[test]
    fn grinding_finds_valid_witness() {
        let challenger = Challenger::new();
        let w = grind(&challenger, 6);
        let mut c = challenger;
        c.observe(w);
        assert!(pow_ok(c.challenge(), 6));
    }

    #[test]
    fn koalabear_grinding_finds_valid_witness() {
        use unizk_hash::Poseidon2KbSponge;
        let challenger = GenericChallenger::<Poseidon2KbSponge>::new();
        let w = grind(&challenger, 6);
        let mut c = challenger;
        c.observe(w);
        assert!(pow_ok(c.challenge(), 6));
    }
}
