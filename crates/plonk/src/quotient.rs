//! Quotient polynomial computation: evaluate the combined constraint
//! polynomial over the 8× coset LDE, divide by `Z_H`, and split into
//! degree-`n` chunks.
//!
//! This is the "general polynomial computation" kernel class of the paper:
//! large element-wise evaluations (mapped to the VSA vector mode) plus a
//! pair of NTTs per quotient chunk.

use unizk_field::lanes::MAX_LANES;
use unizk_field::{
    batch_inverse, bit_reverse, log2_strict, parallel_columns_mut, powers, reverse_index_bits,
    Field, Goldilocks, LaneKernel, Lanes, Polynomial, PrimeField64,
};
use unizk_fri::domain::FoldDomain;
use unizk_fri::PolynomialBatch;
use unizk_hash::RowMajorMatrix;
use unizk_ntt::coset_intt_nn;
use unizk_testkit::trace;

use crate::circuit::{eval_constraints, CircuitData, ConstraintInputs, NUM_SELECTORS};

/// Computes the quotient chunk polynomials for every challenge round: the
/// combined constraints over the LDE (`plonk.quotient_eval`), then one
/// coset iNTT per round, split into chunks (`plonk.quotient_intt`).
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
    let values = trace::with_span("plonk.quotient_eval", || {
        quotient_values(data, constants, wires, perm, pi_lde, betas, gammas, alphas)
    });
    let n = data.rows;
    trace::with_span("plonk.quotient_intt", || {
        let mut quotients = Vec::with_capacity(values.len() * wires.lde_size() / n);
        for mut values in values {
            reverse_index_bits(&mut values);
            coset_intt_nn(&mut values, unizk_fri::batch::coset_shift());
            quotients.extend(
                values
                    .chunks_exact(n)
                    .map(|chunk| Polynomial::from_coeffs(Vec::from(chunk))),
            );
        }
        quotients
    })
}

/// The combined constraints of every round at every LDE position, in
/// parallel over position ranges, lane rows of positions at a time, each
/// round written in place.
#[allow(clippy::too_many_arguments)]
fn quotient_values(
    data: &CircuitData,
    constants: &PolynomialBatch,
    wires: &PolynomialBatch,
    perm: &PolynomialBatch,
    pi_lde: &[Goldilocks],
    betas: &[Goldilocks],
    gammas: &[Goldilocks],
    alphas: &[Goldilocks],
) -> Vec<Vec<Goldilocks>> {
    let n = data.rows;
    let lde_size = wires.lde_size();
    let bits = log2_strict(lde_size);
    let blowup = lde_size / n;
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
    // Z_H⁻¹ and the leaf of Z(ω·x) per position: ω·x is `blowup` further
    // on in natural order.
    let zh_inv: Vec<Goldilocks> = (0..lde_size).map(|i| zh_inv[i / n]).collect();
    let next: Vec<usize> = (0..lde_size)
        .map(|i| bit_reverse((bit_reverse(i, bits) + blowup) % lde_size, bits))
        .collect();

    // α_s^k for every round s and constraint k.
    let num_constraints = data.config.num_constraints();
    let alpha_pows: Vec<Vec<Goldilocks>> = alphas
        .iter()
        .map(|&alpha| powers(alpha, num_constraints))
        .collect();

    let table = PositionTable {
        constants: constants.leaves(),
        wires: wires.leaves(),
        perm: perm.leaves(),
        next: &next,
        xs: &xs,
        l1: &l1,
        zh_inv: &zh_inv,
        pi: pi_lde,
        ks: &data.ks,
        betas,
        gammas,
        alpha_pows: &alpha_pows,
        num_wires: data.config.num_wires,
        partials_per_round: data.config.num_chunks(),
    };

    let mut values: Vec<Vec<Goldilocks>> = (0..s_rounds).map(|_| vec![Goldilocks::ZERO; lde_size]).collect();
    parallel_columns_mut(&mut values, 1, |first, out| {
        let mut gathered = vec![Goldilocks::ZERO; table.columns() * MAX_LANES];
        let mut constraints = vec![Goldilocks::ZERO; num_constraints * MAX_LANES];
        Goldilocks::with_lanes(QuotientRows {
            table: &table,
            first,
            out,
            gathered: &mut gathered,
            constraints: &mut constraints,
        });
    });
    values
}

/// What the constraints read at each LDE position `i`: the three batches'
/// leaves, the leaf index of `ω·x`, and the per-position and per-round
/// scalars.
struct PositionTable<'a> {
    constants: &'a RowMajorMatrix<Goldilocks>,
    wires: &'a RowMajorMatrix<Goldilocks>,
    perm: &'a RowMajorMatrix<Goldilocks>,
    next: &'a [usize],
    xs: &'a [Goldilocks],
    l1: &'a [Goldilocks],
    zh_inv: &'a [Goldilocks],
    /// Empty when the circuit has no public inputs.
    pi: &'a [Goldilocks],
    ks: &'a [Goldilocks],
    betas: &'a [Goldilocks],
    gammas: &'a [Goldilocks],
    alpha_pows: &'a [Vec<Goldilocks>],
    num_wires: usize,
    partials_per_round: usize,
}

impl PositionTable<'_> {
    /// Gathered columns per position: the constants and wires leaves, the
    /// permutation leaf, `Z(ω·x)` of every round, and `Z_H⁻¹`.
    fn columns(&self) -> usize {
        let rounds = self.betas.len();
        NUM_SELECTORS + 2 * self.num_wires + rounds * self.partials_per_round + rounds + 1
    }
}

/// The kernel of [`compute_quotients`] over the positions
/// `first..first + out[s].len()`: whole lane rows of positions, then the
/// rest one lane at a time.
struct QuotientRows<'a, 'b> {
    table: &'a PositionTable<'a>,
    first: usize,
    out: &'a mut [&'b mut [Goldilocks]],
    gathered: &'a mut [Goldilocks],
    constraints: &'a mut [Goldilocks],
}

impl LaneKernel<Goldilocks> for QuotientRows<'_, '_> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = Goldilocks>>(self) {
        let len = self.out.first().map_or(0, |out| out.len());
        let whole = len / L::WIDTH * L::WIDTH;
        for start in (0..whole).step_by(L::WIDTH) {
            quotient_row::<L>(self.table, self.first, start, self.out, self.gathered, self.constraints);
        }
        for start in whole..len {
            quotient_row::<Goldilocks>(self.table, self.first, start, self.out, self.gathered, self.constraints);
        }
    }
}

/// The combined constraint `Σ_k α_s^k·C_k / Z_H` of every round at the
/// positions `first + start + l` for the lanes `l` of one row of `L`, into
/// `out[s][start + l]`. The positions' leaves are gathered column by column
/// into `gathered` (lane `l` of column `c` at `c·WIDTH + l`), which is then
/// read as rows of `L`.
#[inline(always)]
fn quotient_row<L: Lanes<Scalar = Goldilocks>>(
    t: &PositionTable<'_>,
    first: usize,
    start: usize,
    out: &mut [&mut [Goldilocks]],
    gathered: &mut [Goldilocks],
    constraints: &mut [Goldilocks],
) {
    let w = L::WIDTH;
    let i = first + start;
    for (l, lane) in (i..i + w).enumerate() {
        let (Some(consts), Some(wires), Some(perm), Some(&next)) =
            (t.constants.get_row(lane), t.wires.get_row(lane), t.perm.get_row(lane), t.next.get(lane))
        else {
            return;
        };
        let perm_next = t.perm.get_row(next).unwrap_or_default();
        let z_next = perm_next.iter().step_by(t.partials_per_round.max(1));
        let zh_inv = t.zh_inv.get(lane);
        // The source leads each zip, so an exhausted source leaves the
        // next slot for the next source.
        let mut slots = gathered.chunks_exact_mut(w).filter_map(|slot| slot.get_mut(l));
        for (&v, slot) in consts.iter().zip(slots.by_ref()) {
            *slot = v;
        }
        for (&v, slot) in wires.iter().zip(slots.by_ref()) {
            *slot = v;
        }
        for (&v, slot) in perm.iter().zip(slots.by_ref()) {
            *slot = v;
        }
        for (&v, slot) in z_next.chain(zh_inv).zip(slots) {
            *slot = v;
        }
    }
    let Some(columns) = gathered.get(..t.columns() * w) else { return };
    let columns = L::pack(columns);
    let Some((consts, rest)) = columns.split_at_checked(NUM_SELECTORS + t.num_wires) else { return };
    let Some((wires, rest)) = rest.split_at_checked(t.num_wires) else { return };
    let rounds = t.betas.len();
    let Some((perm, rest)) = rest.split_at_checked(rounds * t.partials_per_round) else { return };
    let Some((z_next, rest)) = rest.split_at_checked(rounds) else { return };
    let (Some(&zh_inv), Some(&[ql, qr, qm, qo, qc])) = (rest.first(), consts.first_chunk()) else { return };
    let (Some(x), Some(l1)) = (t.xs.get(i..i + w), t.l1.get(i..i + w)) else { return };
    let (x, l1) = (L::load(x), L::load(l1));
    let pi = t.pi.get(i..i + w).map_or(L::splat(Goldilocks::ZERO), L::load);
    let sigmas = consts.get(NUM_SELECTORS..).unwrap_or_default();
    let Some(constraints) = constraints.get_mut(..t.alpha_pows.first().map_or(0, Vec::len) * w) else { return };
    let constraints = L::pack_mut(constraints);

    let per_round = perm.chunks_exact(t.partials_per_round.max(1)).zip(z_next);
    let challenges = t.betas.iter().zip(t.gammas).zip(t.alpha_pows);
    for (((perm, &z_next), ((&beta, &gamma), alpha_pows)), out) in per_round.zip(challenges).zip(out.iter_mut()) {
        let (Some((&z, partials)), Some(out)) = (perm.split_first(), out.get_mut(start..start + w)) else {
            continue;
        };
        let inputs = ConstraintInputs {
            selectors: [ql, qr, qm, qo, qc],
            wires,
            sigmas,
            z,
            z_next,
            partials,
            x,
            l1,
            pi,
            beta: L::splat(beta),
            gamma: L::splat(gamma),
        };
        eval_constraints(t.ks, &inputs, constraints);
        let mut acc = L::splat(Goldilocks::ZERO);
        for (&a, &c) in alpha_pows.iter().zip(constraints.iter()) {
            acc = acc + L::splat(a) * c;
        }
        (acc * zh_inv).store(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_testkit::rng::TestRng;

    /// A table of random leaves and scalars in the shape of a 10-wire,
    /// two-round circuit over 64 LDE positions.
    struct Shape {
        constants: RowMajorMatrix<Goldilocks>,
        wires: RowMajorMatrix<Goldilocks>,
        perm: RowMajorMatrix<Goldilocks>,
        next: Vec<usize>,
        scalars: [Vec<Goldilocks>; 4],
        ks: Vec<Goldilocks>,
        challenges: [Vec<Goldilocks>; 2],
        alpha_pows: Vec<Vec<Goldilocks>>,
    }

    const WIRES: usize = 10;
    const CHUNKS: usize = 2;
    const ROUNDS: usize = 2;
    const POSITIONS: usize = 64;

    fn shape(rng: &mut TestRng) -> Shape {
        let mut column = |len: usize| (0..len).map(|_| Goldilocks::random(rng)).collect::<Vec<_>>();
        let leaves = |column: &mut dyn FnMut(usize) -> Vec<Goldilocks>, width| RowMajorMatrix::new(column(POSITIONS * width), width);
        Shape {
            constants: leaves(&mut column, NUM_SELECTORS + WIRES),
            wires: leaves(&mut column, WIRES),
            perm: leaves(&mut column, ROUNDS * CHUNKS),
            next: (0..POSITIONS).map(|i| (i * 37 + 5) % POSITIONS).collect(),
            scalars: [column(POSITIONS), column(POSITIONS), column(POSITIONS), column(POSITIONS)],
            ks: column(WIRES),
            challenges: [column(ROUNDS), column(ROUNDS)],
            alpha_pows: (0..ROUNDS).map(|_| column(CHUNKS + 2)).collect(),
        }
    }

    fn table(s: &Shape, with_pi: bool) -> PositionTable<'_> {
        PositionTable {
            constants: &s.constants,
            wires: &s.wires,
            perm: &s.perm,
            next: &s.next,
            xs: &s.scalars[0],
            l1: &s.scalars[1],
            zh_inv: &s.scalars[2],
            pi: if with_pi { &s.scalars[3] } else { &[] },
            ks: &s.ks,
            betas: &s.challenges[0],
            gammas: &s.challenges[1],
            alpha_pows: &s.alpha_pows,
            num_wires: WIRES,
            partials_per_round: CHUNKS,
        }
    }

    /// The combined constraint at one position, straight from the leaves.
    fn reference(t: &PositionTable<'_>, i: usize, s: usize) -> Goldilocks {
        let (consts, perm) = (t.constants.row(i), t.perm.row(i));
        let base = s * t.partials_per_round;
        let inputs = ConstraintInputs {
            selectors: [consts[0], consts[1], consts[2], consts[3], consts[4]],
            wires: t.wires.row(i),
            sigmas: &consts[NUM_SELECTORS..],
            z: perm[base],
            z_next: t.perm.row(t.next[i])[base],
            partials: &perm[base + 1..base + t.partials_per_round],
            x: t.xs[i],
            l1: t.l1[i],
            pi: t.pi.get(i).copied().unwrap_or(Goldilocks::ZERO),
            beta: t.betas[s],
            gamma: t.gammas[s],
        };
        let mut constraints = vec![Goldilocks::ZERO; t.alpha_pows[s].len()];
        eval_constraints(t.ks, &inputs, &mut constraints);
        let acc: Goldilocks = t.alpha_pows[s].iter().zip(&constraints).map(|(&a, &c)| a * c).sum();
        acc * t.zh_inv[i]
    }

    fn evaluate(t: &PositionTable<'_>, first: usize, len: usize, one_lane: bool) -> Vec<Vec<Goldilocks>> {
        let mut out = vec![vec![Goldilocks::ZERO; len]; ROUNDS];
        let mut rounds: Vec<&mut [Goldilocks]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        let mut gathered = vec![Goldilocks::ZERO; t.columns() * MAX_LANES];
        let mut constraints = vec![Goldilocks::ZERO; (CHUNKS + 2) * MAX_LANES];
        let kernel = QuotientRows { table: t, first, out: &mut rounds, gathered: &mut gathered, constraints: &mut constraints };
        if one_lane {
            kernel.run::<Goldilocks>();
        } else {
            Goldilocks::with_lanes(kernel);
        }
        out
    }

    /// Every range of positions — so every remainder of a lane row — on
    /// both lane types, against the per-position reference.
    #[test]
    fn quotient_rows_match_one_lane_and_the_reference() {
        let mut rng = TestRng::seed_from_u64(0x9007);
        let s = shape(&mut rng);
        for with_pi in [false, true] {
            let t = table(&s, with_pi);
            for (first, len) in [(0, 64), (0, 0), (3, 17), (8, 24), (40, 24), (1, 62)] {
                let want: Vec<Vec<Goldilocks>> =
                    (0..ROUNDS).map(|r| (first..first + len).map(|i| reference(&t, i, r)).collect()).collect();
                assert_eq!(evaluate(&t, first, len, true), want, "one lane {first}+{len} pi={with_pi}");
                assert_eq!(evaluate(&t, first, len, false), want, "dispatched {first}+{len} pi={with_pi}");
            }
        }
    }
}
