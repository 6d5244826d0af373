//! Quotient polynomial computation: evaluate the combined constraint
//! polynomial over the 8× coset LDE, divide by `Z_H`, and split into
//! degree-`n` chunks.
//!
//! This is the "general polynomial computation" kernel class of the paper:
//! large element-wise evaluations (mapped to the VSA vector mode) plus a
//! pair of NTTs per quotient chunk.

use unizk_field::{
    batch_inverse, bit_reverse, log2_strict, parallel_ranges, powers, reverse_index_bits, Field,
    Goldilocks, Polynomial,
};
use unizk_fri::domain::FoldDomain;
use unizk_fri::PolynomialBatch;
use unizk_ntt::coset_intt_nn;

use crate::circuit::{eval_constraints, CircuitData, ConstraintInputs, NUM_SELECTORS};

/// Computes the quotient chunk polynomials for every challenge round.
///
/// Returns `num_challenges · blowup` polynomials of length `n`, ordered
/// round-major.
#[allow(clippy::too_many_arguments)]
pub fn compute_quotients(
    data: &CircuitData,
    constants: &PolynomialBatch,
    wires: &PolynomialBatch,
    perm: &PolynomialBatch,
    pi_lde: &[Goldilocks],
    betas: &[Goldilocks],
    gammas: &[Goldilocks],
    alphas: &[Goldilocks],
) -> Vec<Polynomial<Goldilocks>> {
    let n = data.rows;
    let lde_size = wires.lde_size();
    let bits = log2_strict(lde_size);
    let blowup = lde_size / n;
    let w = data.config.num_wires;
    let num_chunks = data.config.num_chunks();
    let s_rounds = data.config.num_challenges;

    // Per-position domain point and L_1, and Z_H with its inverse (one
    // entry per coset of the trace domain, see `FoldDomain::vanishing`);
    // shared by all rounds.
    let domain = FoldDomain::<Goldilocks>::initial(lde_size);
    let xs = domain.points();
    let zh = domain.vanishing(n);
    let zh_inv = batch_inverse(&zh);
    let x_minus_one: Vec<Goldilocks> = xs.iter().map(|&x| x - Goldilocks::ONE).collect();
    let x_minus_one_inv = batch_inverse(&x_minus_one);
    let n_inv = Goldilocks::from_u64(n as u64).inverse();
    let l1: Vec<Goldilocks> = (0..lde_size)
        .map(|i| zh[i / n] * n_inv * x_minus_one_inv[i])
        .collect();

    // α_s^k for every round s and constraint k.
    let num_constraints = data.config.num_constraints();
    let alpha_pows: Vec<Vec<Goldilocks>> = alphas
        .iter()
        .map(|&alpha| powers(alpha, num_constraints))
        .collect();

    let partials_per_round = num_chunks; // z + (c-1) partials

    // Evaluate the combined constraints at every LDE position, in parallel
    // over position ranges.
    let per_range: Vec<Vec<Vec<Goldilocks>>> = parallel_ranges(lde_size, 1, |range| {
        let mut out = vec![Vec::with_capacity(range.len()); s_rounds];
        let mut constraints = vec![Goldilocks::ZERO; num_constraints];
        for i in range {
            let const_leaf = constants.leaf(i);
            let wire_leaf = wires.leaf(i);
            let perm_leaf = perm.leaf(i);
            // Position of Z(ω·x): shift by `blowup` in natural order.
            let t = bit_reverse(i, bits);
            let t_next = (t + blowup) % lde_size;
            let i_next = bit_reverse(t_next, bits);
            let perm_leaf_next = perm.leaf(i_next);

            for (s, round) in out.iter_mut().enumerate() {
                let base = s * partials_per_round;
                let inputs = ConstraintInputs {
                    selectors: [
                        const_leaf[0],
                        const_leaf[1],
                        const_leaf[2],
                        const_leaf[3],
                        const_leaf[4],
                    ],
                    wires: wire_leaf,
                    sigmas: &const_leaf[NUM_SELECTORS..NUM_SELECTORS + w],
                    z: perm_leaf[base],
                    z_next: perm_leaf_next[base],
                    partials: &perm_leaf[base + 1..base + partials_per_round],
                    x: xs[i],
                    l1: l1[i],
                    pi: pi_lde.get(i).copied().unwrap_or(Goldilocks::ZERO),
                    beta: betas[s],
                    gamma: gammas[s],
                };
                eval_constraints(&data.ks, &inputs, &mut constraints);
                let acc: Goldilocks = alpha_pows[s]
                    .iter()
                    .zip(&constraints)
                    .map(|(&a, &c)| a * c)
                    .sum();
                round.push(acc * zh_inv[i / n]);
            }
        }
        out
    });

    // Stitch ranges back together per round, then iNTT and split.
    let mut quotients = Vec::with_capacity(s_rounds * blowup);
    for s in 0..s_rounds {
        let mut values = Vec::with_capacity(lde_size);
        for range in &per_range {
            values.extend_from_slice(&range[s]);
        }
        reverse_index_bits(&mut values);
        coset_intt_nn(&mut values, unizk_fri::batch::coset_shift());
        quotients.extend(
            values
                .chunks_exact(n)
                .map(|chunk| Polynomial::from_coeffs(Vec::from(chunk))),
        );
    }
    quotients
}
