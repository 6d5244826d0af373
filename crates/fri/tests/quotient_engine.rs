//! The quotient engine against a one-position scalar evaluation.
//!
//! A toy constraint reads a position's `local` and `next` leaves and its
//! point `x`; every position the engine writes must equal the constraint
//! evaluated at that position alone, with `ω·x` found by searching the
//! domain's points and `Z_H(x)⁻¹` computed from `x`. LDE sizes 2^3–2^7 at
//! blowups 2 and 8, both fields, at one and three threads, and every range
//! of up to 40 positions — so every remainder of an 8- and a 16-lane row.
//! Three rounds of values come back to the polynomials they sample through
//! `coefficients`, at one and three threads.
//!
//! One test function: the thread count is process-global.

use unizk_field::{log2_strict, set_parallelism, Goldilocks, KoalaBear, Lanes, PrimeField64};
use unizk_fri::domain::FoldDomain;
use unizk_fri::quotient::{self, Constraint, LaneRow, QuotientDomain};
use unizk_hash::RowMajorMatrix;
use unizk_testkit::rng::TestRng;

const WIDTH: usize = 3;
const ROUNDS: usize = 2;

/// `(α_s·t + x·next₂)·Z_H⁻¹` for `t = local₀·next₁ − next₀ + x·local₂`,
/// with `t` kept in scratch across the rounds.
struct Toy<'a, F> {
    leaves: &'a RowMajorMatrix<F>,
    alphas: Vec<F>,
}

impl<F: PrimeField64> Constraint<F> for Toy<'_, F> {
    #[inline(always)]
    fn rounds(&self) -> usize {
        self.alphas.len()
    }

    #[inline(always)]
    fn columns(&self) -> usize {
        2 * WIDTH
    }

    #[inline(always)]
    fn scratch(&self) -> usize {
        1
    }

    #[inline(always)]
    fn gather<'s>(&self, position: usize, next: usize, slots: impl Iterator<Item = &'s mut F>)
    where
        F: 's,
    {
        let (Some(local), Some(next)) = (self.leaves.get_row(position), self.leaves.get_row(next)) else { return };
        for (&v, slot) in local.iter().chain(next).zip(slots) {
            *slot = v;
        }
    }

    #[inline(always)]
    fn combine<'o, L: Lanes<Scalar = F>>(
        &self,
        row: &LaneRow<'_, L>,
        scratch: &mut [L],
        out: impl Iterator<Item = &'o mut [F]>,
    ) where
        F: 'o,
    {
        let (Some(&[l0, _, l2, n0, n1, n2]), Some(t)) = (row.columns.first_chunk(), scratch.first_mut()) else { return };
        *t = l0 * n1 - n0 + row.x * l2;
        for (&alpha, out) in self.alphas.iter().zip(out) {
            ((L::splat(alpha) * *t + row.x * n2) * row.zh_inv).store(out);
        }
    }
}

/// Round `s` of the toy at position `i` alone.
fn scalar<F: PrimeField64>(toy: &Toy<'_, F>, n: usize, lde: usize, i: usize, s: usize) -> F {
    let domain = FoldDomain::<F>::initial(lde);
    let x = domain.point(i);
    let omega_x = x * F::primitive_root_of_unity(log2_strict(n));
    let next = (0..lde).find(|&j| domain.point(j) == omega_x).expect("ω·x is a point of the domain");
    let (local, next) = (toy.leaves.row(i), toy.leaves.row(next));
    let t = local[0] * next[1] - next[0] + x * local[2];
    (toy.alphas[s] * t + x * next[2]) * (x.exp_u64(n as u64) - F::ONE).inverse()
}

fn engine_matches_one_position<F: PrimeField64>(seed: u64) {
    let mut rng = TestRng::seed_from_u64(seed);
    for log_lde in 3..=7 {
        for blowup in [2, 8] {
            let (lde, n) = (1usize << log_lde, (1usize << log_lde) / blowup);
            let leaves = RowMajorMatrix::new((0..lde * WIDTH).map(|_| F::random(&mut rng)).collect(), WIDTH);
            let toy = Toy { leaves: &leaves, alphas: (0..ROUNDS).map(|_| F::random(&mut rng)).collect() };
            let domain = QuotientDomain::new(n, lde);
            let want: Vec<Vec<F>> =
                (0..ROUNDS).map(|s| (0..lde).map(|i| scalar(&toy, n, lde, i, s)).collect()).collect();

            for threads in [1, 3] {
                set_parallelism(threads);
                assert_eq!(quotient::evaluate(&domain, &toy), want, "lde {lde}, n {n}, {threads} threads");
            }
            set_parallelism(0);

            for len in 0..=lde.min(40) {
                for first in [0, lde - len, (7 * len) % (lde - len + 1)] {
                    let mut got = vec![vec![F::ZERO; len]; ROUNDS];
                    let mut rounds: Vec<&mut [F]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                    quotient::evaluate_range(&domain, &toy, first, &mut rounds);
                    let want: Vec<&[F]> = want.iter().map(|round| &round[first..first + len]).collect();
                    assert_eq!(got, want, "lde {lde}, n {n}, positions {first}+{len}");
                }
            }

            // The values of three polynomials of degree < lde at the
            // domain's points come back as their coefficients, one round
            // per worker.
            let coeffs: Vec<Vec<F>> = (0..3).map(|_| (0..lde).map(|_| F::random(&mut rng)).collect()).collect();
            let eval = |c: &[F], x: F| c.iter().rev().fold(F::ZERO, |acc, &c| acc * x + c);
            let values: Vec<Vec<F>> =
                coeffs.iter().map(|c| domain.points().iter().map(|&x| eval(c, x)).collect()).collect();
            for threads in [1, 3] {
                set_parallelism(threads);
                assert_eq!(quotient::coefficients(values.clone()), coeffs, "lde {lde}, {threads} threads");
            }
            set_parallelism(0);
        }
    }
}

#[test]
fn engine_matches_one_position_at_a_time_on_both_fields_and_thread_counts() {
    engine_matches_one_position::<Goldilocks>(0x0e61);
    engine_matches_one_position::<KoalaBear>(0x0e62);
}
