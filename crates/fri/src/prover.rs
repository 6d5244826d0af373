//! The FRI prover: batch combination, commit phase (folding), grinding, and
//! query phase.
//!
//! Every function is generic over the sponge backend `B` (and hence the
//! base field `B::F` and its extension `<B::F as ProtocolField>::Ext`);
//! the Goldilocks/Poseidon aliases make existing call sites infer
//! `B = PoseidonSponge` with no changes.

use unizk_field::{
    batch_inverse, log2_strict, parallel_first_block, ExtensionOf, Field, Polynomial, PrimeField64,
    ProtocolField,
};
use unizk_hash::sponge::HashField;
use unizk_hash::workspace::Workspace;
use unizk_hash::{GenericChallenger, GenericMerkleTree, GenericSpeculativeChallenger, SpongeBackend};
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

/// Evaluates the combined witness over the whole LDE domain.
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
    let num_polys: usize = batches.iter().map(|b| b.num_polys()).sum();
    let mut alpha_pows = Vec::with_capacity(num_polys);
    let mut alpha_pow = E::<B>::ONE;
    for _ in 0..num_polys {
        alpha_pows.push(alpha_pow);
        alpha_pow *= alpha;
    }

    // S(x_i) for every domain position i, walking each leaf once.
    let mut s_values = B::F::take_ext_elems(ws, lde_size);
    s_values.extend((0..lde_size).map(|i| {
        let leaf_values = batches.iter().flat_map(|b| b.leaf(i));
        alpha_pows
            .iter()
            .zip(leaf_values)
            .map(|(a, &v)| a.scale(v))
            .sum::<E<B>>()
    }));

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

    // Denominators (x_i − z_t), batch-inverted per point.
    let xs = FoldDomain::<B::F>::initial(lde_size).points();
    let mut values = B::F::take_ext_elems(ws, lde_size);
    values.resize(lde_size, E::<B>::ZERO);
    let mut beta_pow = E::<B>::ONE;
    for (&z, &y) in points.iter().zip(&y_combined) {
        let mut denoms = B::F::take_ext_elems(ws, lde_size);
        denoms.extend(xs.iter().map(|&x| E::<B>::from(x) - z));
        let inv = batch_inverse(&denoms);
        for ((value, &s), &inv) in values.iter_mut().zip(&s_values).zip(&inv) {
            *value += beta_pow * (s - y) * inv;
        }
        beta_pow *= beta;
        B::F::put_ext_elems(ws, denoms);
        B::F::put_ext_elems(ws, inv);
    }
    B::F::put_ext_elems(ws, s_values);
    values
}

/// Builds the Merkle tree over fold pairs of a layer: leaf `k` holds the
/// base limbs of `(v[2k], v[2k+1])`.
fn commit_fold_layer<B: SpongeBackend>(
    values: &[<B::F as ProtocolField>::Ext],
    ws: Option<&Workspace>,
) -> GenericMerkleTree<B> {
    let mut leaves = B::F::take_table(ws, values.len() / 2);
    for (pair, leaf) in values.chunks(2).zip(leaves.iter_mut()) {
        leaf.extend(pair[0].to_base_slice());
        leaf.extend(pair[1].to_base_slice());
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
    debug_assert_eq!(values.len(), domain.size);
    let xs: Vec<F::Ext> = domain.points().into_iter().map(F::Ext::from).collect();
    let poly = Polynomial::interpolate(&xs, values);
    let coeffs = poly.into_coeffs();
    for (i, c) in coeffs.iter().enumerate() {
        assert!(
            i < max_len || c.is_zero(),
            "final polynomial exceeds the degree bound (prover bug)"
        );
    }
    let mut out: Vec<F::Ext> = coeffs.into_iter().take(max_len).collect();
    out.resize(max_len, F::Ext::ZERO);
    out
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
