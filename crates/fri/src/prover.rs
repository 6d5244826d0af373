//! The FRI prover: batch combination, commit phase (folding), grinding, and
//! query phase.
//!
//! Every function is generic over the sponge backend `B` (and hence the
//! base field `B::F` and its extension `<B::F as ProtocolField>::Ext`);
//! the Goldilocks/Poseidon aliases make existing call sites infer
//! `B = PoseidonSponge` with no changes.

use unizk_field::{
    batch_inverse, log2_strict, parallel_first_block, powers, ExtensionOf, Field, Polynomial,
    PrimeField64, ProtocolField,
};
use unizk_hash::sponge::HashField;
use unizk_hash::workspace::Workspace;
use unizk_hash::{GenericChallenger, GenericMerkleTree, GenericSpeculativeChallenger, SpongeBackend};
use unizk_ntt::coset_intt_rn_uncounted;
use unizk_testkit::trace;

use crate::batch::GenericPolynomialBatch;
use crate::config::FriConfig;
use crate::domain::FoldDomain;
use crate::proof::{FriFoldOpening, FriInitialOpening, FriProof, FriQueryRound};
use crate::timing::{time_kernel, KernelClass};

/// Coefficients per block of `fri.open`'s table of powers `1, ζ, …, ζ^B`
/// ([`Polynomial::eval_at_powers`]). Building the table is the dependent
/// chain of the point, so it is kept short: against a table as long as the
/// polynomial, 0.53 ms for 0.88 per point at 2^15 × 4 polynomials over
/// `Ext2` and 0.23 for 0.44 at 2^13 × 6 over `KbExt4`, 1.45 for 1.40 at
/// 2^10 × 331 (EXPERIMENTS.md, "Leaves that are digests"). At this length
/// it lives on the stack (4 KB); on the heap, at either length, it moved the
/// peak RSS of `stark_narrow_gl` by +1.7 MB through allocation order alone.
const OPEN_BLOCK: usize = 256;

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
    fri_prove_in(batches, points, challenger, config, None)
}

/// [`fri_prove`] with an optional [`Workspace`]: the combined witness, the
/// fold layers, and every fold tree's leaf table and digest levels are
/// drawn from the workspace pools and shelved back before returning. The
/// proof is bit-identical with and without a workspace — pooling only
/// changes where the backing allocations come from.
///
/// # Panics
///
/// Panics under the same conditions as [`fri_prove`].
pub fn fri_prove_in<B: SpongeBackend>(
    batches: &[&GenericPolynomialBatch<B>],
    points: &[<B::F as ProtocolField>::Ext],
    challenger: &mut GenericChallenger<B>,
    config: &FriConfig,
    ws: Option<&Workspace>,
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
        time_kernel(KernelClass::Polynomial, || {
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
        })
    });
    time_kernel(KernelClass::OtherHash, || {
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
        time_kernel(KernelClass::Polynomial, || {
            combine_initial(batches, points, &openings, alpha, beta, lde_size, ws)
        })
    });

    // 4. Commit phase: arity-2 folds, one Merkle tree per round.
    let num_rounds = config.num_reduction_rounds(degree);
    trace::counter("fri.reduction_rounds", num_rounds as u64);
    let mut fold_trees: Vec<GenericMerkleTree<B>> = Vec::with_capacity(num_rounds);
    let mut commit_roots = Vec::with_capacity(num_rounds);
    let mut layers: Vec<Vec<<B::F as ProtocolField>::Ext>> = Vec::with_capacity(num_rounds);
    let mut domain = FoldDomain::<B::F>::initial(lde_size);
    {
        let _commit_span = trace::span("fri.commit_fold");
        for _ in 0..num_rounds {
            let tree = time_kernel(KernelClass::MerkleTree, || commit_fold_layer::<B>(&values, ws));
            challenger.observe_digest(tree.root());
            commit_roots.push(tree.root());
            fold_trees.push(tree);

            let fold_beta = challenger.challenge_ext();
            let folded = time_kernel(KernelClass::Polynomial, || {
                fold_layer(&values, domain, fold_beta, ws)
            });
            layers.push(std::mem::replace(&mut values, folded));
            domain = domain.fold();
        }
    }

    // 5. Final polynomial: interpolate the remaining layer and send the
    //    coefficients in the clear.
    let final_poly = trace::with_span("fri.final_poly", || {
        time_kernel(KernelClass::Polynomial, || {
            interpolate_final(&values, domain, config.final_poly_len)
        })
    });
    for &c in &final_poly {
        challenger.observe_ext(c);
    }

    // 6. Proof-of-work grind.
    let pow_witness = trace::with_span("fri.grind", || {
        time_kernel(KernelClass::OtherHash, || grind(challenger, config.proof_of_work_bits))
    });
    challenger.observe(pow_witness);
    let pow_response = challenger.challenge();
    debug_assert!(pow_ok(pow_response, config.proof_of_work_bits));

    // 7. Query phase: sampling indices hashes (Other Hash); assembling the
    //    openings is pure data movement (Layout Transform).
    let _query_span = trace::span("fri.query");
    trace::counter("fri.queries", config.num_queries as u64);
    let index_bits = log2_strict(lde_size);
    let mut queries = Vec::with_capacity(config.num_queries);
    for _ in 0..config.num_queries {
        let mut idx = time_kernel(KernelClass::OtherHash, || challenger.challenge_bits(index_bits));
        let round = time_kernel(KernelClass::LayoutTransform, || {
            let initial = batches
                .iter()
                .map(|b| FriInitialOpening {
                    leaf: b.leaf(idx).to_vec(),
                    proof: b.prove_leaf(idx),
                })
                .collect();
            let mut folds = Vec::with_capacity(num_rounds);
            for (round, tree) in fold_trees.iter().enumerate() {
                let pair_index = idx >> 1;
                let layer = &layers[round];
                folds.push(FriFoldOpening {
                    pair: [layer[pair_index * 2], layer[pair_index * 2 + 1]],
                    proof: tree.prove(pair_index),
                });
                idx = pair_index;
            }
            FriQueryRound { initial, folds }
        });
        queries.push(round);
    }
    drop(_query_span);

    // Everything the queries referenced has been copied into the proof;
    // hand the layer buffers and fold-tree allocations back for the next
    // job on this worker.
    if let Some(w) = ws {
        for layer in layers {
            B::F::put_ext_elems(Some(w), layer);
        }
        B::F::put_ext_elems(Some(w), values);
        for tree in fold_trees {
            tree.recycle(w);
        }
    }

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
/// and denominator of [`OpeningQuotient`] per position, one batch inversion
/// of the denominators, one product per position.
fn combine_initial<B: SpongeBackend>(
    batches: &[&GenericPolynomialBatch<B>],
    points: &[<B::F as ProtocolField>::Ext],
    openings: &[Vec<Vec<<B::F as ProtocolField>::Ext>>],
    alpha: <B::F as ProtocolField>::Ext,
    beta: <B::F as ProtocolField>::Ext,
    lde_size: usize,
    ws: Option<&Workspace>,
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

    // S(x_i) = Σ_j α^j p_j(x_i), walking each leaf once, into the numerator;
    // D(x_i) beside it.
    let xs = FoldDomain::<B::F>::initial(lde_size).points();
    let mut values = B::F::take_ext_elems(ws, lde_size);
    let mut denoms = B::F::take_ext_elems(ws, lde_size);
    for (i, &x) in xs.iter().enumerate() {
        let leaf_values = batches.iter().flat_map(|b| b.leaf(i));
        let s = alpha_pows
            .iter()
            .zip(leaf_values)
            .map(|(a, &v)| a.scale(v))
            .sum::<E<B>>();
        let (numerator, denominator) = quotient.at(x, s);
        values.push(numerator);
        denoms.push(denominator);
    }
    let inv = batch_inverse(&denoms);
    for (value, &inv) in values.iter_mut().zip(&inv) {
        *value *= inv;
    }
    B::F::put_ext_elems(ws, denoms);
    B::F::put_ext_elems(ws, inv);
    values
}

/// Builds the Merkle tree over fold pairs of a layer: leaf `k` holds the
/// base limbs of `(v[2k], v[2k+1])`, each leaf allocated once at its width.
fn commit_fold_layer<B: SpongeBackend>(
    values: &[<B::F as ProtocolField>::Ext],
    ws: Option<&Workspace>,
) -> GenericMerkleTree<B> {
    let width = 2 * <<B::F as ProtocolField>::Ext as ExtensionOf<B::F>>::DEGREE;
    let mut leaves = B::F::take_table(ws, values.len() / 2);
    for (pair, leaf) in values.chunks_exact(2).zip(leaves.iter_mut()) {
        leaf.reserve_exact(width);
        leaf.extend_from_slice(pair[0].as_base_slice());
        leaf.extend_from_slice(pair[1].as_base_slice());
    }
    GenericMerkleTree::<B>::new_in(leaves, ws)
}

/// Performs one arity-2 fold of a bit-reversed layer over `domain`, writing
/// into a workspace buffer.
///
/// With `p(x) = p_e(x²) + x·p_o(x²)` and the sibling pair `(v(x), v(−x))`
/// adjacent in bit-reversed order, the folded value at `y = x²` is
/// `p_e(y) + β·p_o(y)`.
fn fold_layer<F: ProtocolField + HashField>(
    values: &[F::Ext],
    domain: FoldDomain<F>,
    fold_beta: F::Ext,
    ws: Option<&Workspace>,
) -> Vec<F::Ext> {
    debug_assert_eq!(values.len(), domain.size);
    let two_inv = F::TWO.inverse();
    let mut out = F::take_ext_elems(ws, domain.size / 2);
    out.extend(
        values
            .chunks_exact(2)
            .zip(domain.pair_inverses())
            .map(|(pair, x_inv)| fold_pair::<F>([pair[0], pair[1]], x_inv, two_inv, fold_beta)),
    );
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
/// eight at a time, Poseidon2-KoalaBear sixteen at a time on vector rows and
/// eight on scalar rows, so 16 is the smallest dispatch that is whole groups
/// for all of them. 32 and 64 tie with it on KoalaBear and cost Goldilocks
/// 2–4 % (more overshoot past the winner; EXPERIMENTS.md, "Vector rows,
/// KoalaBear").
const GRIND_LANES: usize = 16;

const _: () = assert!(GRIND_BLOCK.is_multiple_of(GRIND_LANES as u64));

/// Searches for a grinding witness: the **smallest** nonce whose
/// speculative challenge passes [`pow_ok`].
///
/// The scan is organised for two axes of parallelism while staying
/// bit-deterministic:
///
/// * **Lanes** — within a block, candidate nonces run through the
///   backend's lockstep engine (`GRIND_LANES` = 16 nonces per dispatch, in
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
        let beta = Ext2::new(Goldilocks::from_u64(3), Goldilocks::from_u64(5));
        let folded = fold_layer(&values, domain, beta, None);

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
        let folded = fold_layer(&values, domain, beta, None);

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
