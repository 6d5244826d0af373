//! The Plonk constraints as the quotient engine (`unizk_fri::quotient`)
//! evaluates them over the 8× coset LDE: the gate constraint plus the
//! permutation argument's chunk and `L_1` constraints, combined with the
//! round's `α` powers and divided by `Z_H`.
//!
//! This is the "general polynomial computation" kernel class of the paper:
//! large element-wise evaluations (mapped to the VSA vector mode) plus a
//! pair of NTTs per quotient chunk.

use unizk_field::{batch_inverse, powers, Field, Goldilocks, Lanes};
use unizk_fri::quotient::{Constraint, LaneRow, QuotientDomain};
use unizk_fri::PolynomialBatch;
use unizk_hash::RowMajorMatrix;

use crate::circuit::{eval_constraints, CircuitData, ConstraintInputs, NUM_SELECTORS};

/// What the constraints read besides the engine's `x` and `Z_H⁻¹`: the
/// three batches' leaves (`Z(ω·x)` of every round from the permutation
/// leaf of `ω·x`), `L_1` and `PI` per position, and the per-round
/// challenges.
pub struct CircuitConstraints<'a> {
    constants: &'a RowMajorMatrix<Goldilocks>,
    wires: &'a RowMajorMatrix<Goldilocks>,
    perm: &'a RowMajorMatrix<Goldilocks>,
    l1: Vec<Goldilocks>,
    /// Empty when the circuit has no public inputs.
    pi: &'a [Goldilocks],
    ks: &'a [Goldilocks],
    betas: &'a [Goldilocks],
    gammas: &'a [Goldilocks],
    /// `α_s^k` for every round `s` and constraint `k`.
    alpha_pows: Vec<Vec<Goldilocks>>,
    num_wires: usize,
    partials_per_round: usize,
}

impl<'a> CircuitConstraints<'a> {
    /// The constraints of `data` over `domain`, given the wires and
    /// permutation batches, the LDE of the public-input polynomial (empty
    /// without public inputs) and the challenges `[β, γ, α]` of every
    /// round.
    pub fn new(
        data: &'a CircuitData,
        domain: &QuotientDomain<Goldilocks>,
        [wires, perm]: [&'a PolynomialBatch; 2],
        pi_lde: &'a [Goldilocks],
        [betas, gammas, alphas]: [&'a [Goldilocks]; 3],
    ) -> Self {
        // L_1(x) = Z_H(x) / (n·(x − 1)), Z_H read per coset of the trace
        // domain.
        let n = data.rows;
        let x_minus_one: Vec<Goldilocks> = domain.points().iter().map(|&x| x - Goldilocks::ONE).collect();
        let n_inv = Goldilocks::from_u64(n as u64).inverse();
        let zh = domain.vanishing();
        let l1 = batch_inverse(&x_minus_one)
            .into_iter()
            .enumerate()
            .map(|(i, x_minus_one_inv)| zh[i / n] * n_inv * x_minus_one_inv)
            .collect();
        let num_constraints = data.config.num_constraints();
        Self {
            constants: data.constants.leaves(),
            wires: wires.leaves(),
            perm: perm.leaves(),
            l1,
            pi: pi_lde,
            ks: &data.ks,
            betas,
            gammas,
            alpha_pows: alphas.iter().map(|&alpha| powers(alpha, num_constraints)).collect(),
            num_wires: data.config.num_wires,
            partials_per_round: data.config.num_chunks(),
        }
    }
}

impl Constraint<Goldilocks> for CircuitConstraints<'_> {
    #[inline(always)]
    fn rounds(&self) -> usize {
        self.betas.len()
    }

    /// The constants and wires leaves, the permutation leaf and `Z(ω·x)`
    /// of every round.
    #[inline(always)]
    fn columns(&self) -> usize {
        let rounds = self.betas.len();
        NUM_SELECTORS + 2 * self.num_wires + rounds * self.partials_per_round + rounds
    }

    #[inline(always)]
    fn scratch(&self) -> usize {
        self.alpha_pows.first().map_or(0, Vec::len)
    }

    #[inline(always)]
    fn gather<'s>(&self, position: usize, next: usize, mut slots: impl Iterator<Item = &'s mut Goldilocks>) {
        let (Some(consts), Some(wires), Some(perm)) =
            (self.constants.get_row(position), self.wires.get_row(position), self.perm.get_row(position))
        else {
            return;
        };
        let z_next = self.perm.get_row(next).unwrap_or_default().iter().step_by(self.partials_per_round.max(1));
        // The source leads each zip, so an exhausted source leaves the next
        // slot for the next source.
        for (&v, slot) in consts.iter().zip(slots.by_ref()) {
            *slot = v;
        }
        for (&v, slot) in wires.iter().zip(slots.by_ref()) {
            *slot = v;
        }
        for (&v, slot) in perm.iter().zip(slots.by_ref()) {
            *slot = v;
        }
        for (&v, slot) in z_next.zip(slots) {
            *slot = v;
        }
    }

    /// `Σ_k α_s^k·C_k / Z_H` of every round `s`.
    #[inline(always)]
    fn combine<'o, L: Lanes<Scalar = Goldilocks>>(
        &self,
        row: &LaneRow<'_, L>,
        constraints: &mut [L],
        out: impl Iterator<Item = &'o mut [Goldilocks]>,
    ) {
        let (w, i) = (L::WIDTH, row.position);
        let Some((consts, rest)) = row.columns.split_at_checked(NUM_SELECTORS + self.num_wires) else { return };
        let Some((wires, rest)) = rest.split_at_checked(self.num_wires) else { return };
        let Some((perm, z_next)) = rest.split_at_checked(self.betas.len() * self.partials_per_round) else { return };
        let (Some(&[ql, qr, qm, qo, qc]), Some(l1)) = (consts.first_chunk(), self.l1.get(i..i + w)) else { return };
        let l1 = L::load(l1);
        let pi = self.pi.get(i..i + w).map_or(L::splat(Goldilocks::ZERO), L::load);
        let sigmas = consts.get(NUM_SELECTORS..).unwrap_or_default();

        let per_round = perm.chunks_exact(self.partials_per_round.max(1)).zip(z_next);
        let challenges = self.betas.iter().zip(self.gammas).zip(&self.alpha_pows);
        for (((perm, &z_next), ((&beta, &gamma), alpha_pows)), out) in per_round.zip(challenges).zip(out) {
            let Some((&z, partials)) = perm.split_first() else { continue };
            let inputs = ConstraintInputs {
                selectors: [ql, qr, qm, qo, qc],
                wires,
                sigmas,
                z,
                z_next,
                partials,
                x: row.x,
                l1,
                pi,
                beta: L::splat(beta),
                gamma: L::splat(gamma),
            };
            eval_constraints(self.ks, &inputs, constraints);
            let mut acc = L::splat(Goldilocks::ZERO);
            for (&a, &c) in alpha_pows.iter().zip(constraints.iter()) {
                acc = acc + L::splat(a) * c;
            }
            (acc * row.zh_inv).store(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::{bit_reverse, log2_strict, PrimeField64};
    use unizk_fri::quotient;
    use unizk_testkit::rng::TestRng;

    const WIRES: usize = 10;
    const CHUNKS: usize = 2;
    const ROUNDS: usize = 2;
    const POSITIONS: usize = 64;
    /// Trace rows under the 64 positions (blowup 8).
    const N: usize = 8;

    /// Random leaves, `L_1`, `PI` and challenges in the shape of a 10-wire,
    /// two-round circuit over 64 LDE positions, storage kept alive for the
    /// borrowed fields.
    struct Shape {
        constants: RowMajorMatrix<Goldilocks>,
        wires: RowMajorMatrix<Goldilocks>,
        perm: RowMajorMatrix<Goldilocks>,
        l1: Vec<Goldilocks>,
        pi: Vec<Goldilocks>,
        ks: Vec<Goldilocks>,
        challenges: [Vec<Goldilocks>; 2],
        alpha_pows: Vec<Vec<Goldilocks>>,
    }

    fn shape(rng: &mut TestRng) -> Shape {
        let mut column = |len: usize| (0..len).map(|_| Goldilocks::random(rng)).collect::<Vec<_>>();
        let leaves = |column: &mut dyn FnMut(usize) -> Vec<Goldilocks>, width| RowMajorMatrix::new(column(POSITIONS * width), width);
        Shape {
            constants: leaves(&mut column, NUM_SELECTORS + WIRES),
            wires: leaves(&mut column, WIRES),
            perm: leaves(&mut column, ROUNDS * CHUNKS),
            l1: column(POSITIONS),
            pi: column(POSITIONS),
            ks: column(WIRES),
            challenges: [column(ROUNDS), column(ROUNDS)],
            alpha_pows: (0..ROUNDS).map(|_| column(CHUNKS + 2)).collect(),
        }
    }

    fn constraints(s: &Shape, with_pi: bool) -> CircuitConstraints<'_> {
        CircuitConstraints {
            constants: &s.constants,
            wires: &s.wires,
            perm: &s.perm,
            l1: s.l1.clone(),
            pi: if with_pi { &s.pi } else { &[] },
            ks: &s.ks,
            betas: &s.challenges[0],
            gammas: &s.challenges[1],
            alpha_pows: s.alpha_pows.clone(),
            num_wires: WIRES,
            partials_per_round: CHUNKS,
        }
    }

    /// The combined constraint at one position, straight from the leaves.
    fn reference(c: &CircuitConstraints<'_>, d: &QuotientDomain<Goldilocks>, i: usize, s: usize) -> Goldilocks {
        let (consts, perm) = (c.constants.row(i), c.perm.row(i));
        let bits = log2_strict(POSITIONS);
        let next = bit_reverse((bit_reverse(i, bits) + POSITIONS / N) % POSITIONS, bits);
        let base = s * c.partials_per_round;
        let inputs = ConstraintInputs {
            selectors: [consts[0], consts[1], consts[2], consts[3], consts[4]],
            wires: c.wires.row(i),
            sigmas: &consts[NUM_SELECTORS..],
            z: perm[base],
            z_next: c.perm.row(next)[base],
            partials: &perm[base + 1..base + c.partials_per_round],
            x: d.points()[i],
            l1: c.l1[i],
            pi: c.pi.get(i).copied().unwrap_or(Goldilocks::ZERO),
            beta: c.betas[s],
            gamma: c.gammas[s],
        };
        let mut constraints = vec![Goldilocks::ZERO; c.alpha_pows[s].len()];
        eval_constraints(c.ks, &inputs, &mut constraints);
        let acc: Goldilocks = c.alpha_pows[s].iter().zip(&constraints).map(|(&a, &c)| a * c).sum();
        acc * d.vanishing()[i / N].inverse()
    }

    /// Every range of positions — so every remainder of a lane row —
    /// through the quotient engine, against the per-position reference.
    #[test]
    fn quotient_rows_match_one_lane_and_the_reference() {
        let mut rng = TestRng::seed_from_u64(0x9007);
        let s = shape(&mut rng);
        let domain = QuotientDomain::new(N, POSITIONS);
        for with_pi in [false, true] {
            let c = constraints(&s, with_pi);
            for (first, len) in [(0, 64), (0, 0), (3, 17), (8, 24), (40, 24), (1, 62)] {
                let want: Vec<Vec<Goldilocks>> =
                    (0..ROUNDS).map(|r| (first..first + len).map(|i| reference(&c, &domain, i, r)).collect()).collect();
                let mut got = vec![vec![Goldilocks::ZERO; len]; ROUNDS];
                let mut rounds: Vec<&mut [Goldilocks]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                quotient::evaluate_range(&domain, &c, first, &mut rounds);
                assert_eq!(got, want, "{first}+{len} pi={with_pi}");
            }
        }
    }
}
