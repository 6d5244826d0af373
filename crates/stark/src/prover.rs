//! The Stark prover: trace commitment, quotient computation over the
//! blowup-2 LDE, and FRI openings. Generic over the `(field, hasher)`
//! pair; the `StarkConfig` argument pins both, so Goldilocks call sites
//! are unchanged and `KbStarkConfig` selects the KoalaBear stack.

use unizk_field::{batch_inverse, log2_strict, powers, Lanes, Polynomial, ProtocolField};
use unizk_fri::quotient::{self, Constraint, LaneRow, QuotientDomain};
use unizk_fri::{fri_prove, GenericPolynomialBatch};
use unizk_hash::sponge::HashField;
use unizk_hash::{GenericChallenger, RowMajorMatrix, SpongeBackend};
use unizk_testkit::trace;

use crate::air::{Air, Boundary};
use crate::config::StarkConfig;
use crate::proof::StarkProof;
use crate::verifier::StarkError;

/// Proves that the AIR's trace satisfies its constraints.
///
/// # Errors
///
/// Returns [`StarkError::UnsatisfiedConstraints`] if the generated trace
/// does not satisfy the AIR (the quotient fails its degree check), and
/// [`StarkError::InsecureParameters`] if the configuration fails the static
/// P-rule checker (conjectured security short of
/// `config.target_security_bits`, an LDE past the field's two-adicity, a
/// malformed final polynomial, or an unsatisfiable grind).
pub fn prove<F, H, A>(air: &A, config: &StarkConfig<F, H>) -> Result<StarkProof<F>, StarkError>
where
    F: HashField,
    H: SpongeBackend<F = F>,
    A: Air<F> + Sync,
{
    let _prove_span = trace::span("stark.prove");
    let n = air.rows();
    assert!(n.is_power_of_two(), "trace height must be a power of two");

    // P-rule gate: never burn cycles on — or hand out — a proof whose
    // parameters the static checker rejects.
    let param_diags = crate::config::check_protocol(n, config);
    if unizk_core::analyze::error_count(&param_diags) > 0 {
        return Err(StarkError::InsecureParameters(
            unizk_core::analyze::render_all(&param_diags),
        ));
    }
    trace::counter("stark.rows", n as u64);
    trace::counter("stark.columns", air.width() as u64);
    let mut challenger = GenericChallenger::<H>::new();

    // 1. Trace generation and commitment.
    let trace = trace::with_span("stark.trace_gen", || air.generate_trace());
    assert_eq!(trace.len(), air.width(), "trace width mismatch");
    let trace_batch = trace::with_span("stark.trace_commit", || {
        GenericPolynomialBatch::<H>::from_values(trace, &config.fri)
    });
    challenger.observe_digest(trace_batch.root());

    // 2. Constraint-combination challenges.
    let alphas: Vec<F> = challenger.challenges(config.num_challenges);

    // 3. Quotient per challenge round.
    let quotient_polys = trace::with_span("stark.quotient", || {
        let values = trace::with_span("stark.quotient_eval", || {
            let domain = QuotientDomain::new(n, trace_batch.lde_size());
            quotient::evaluate(&domain, &AirConstraints::new(air, trace_batch.leaves(), &domain, &alphas))
        });
        trace::with_span("stark.quotient_intt", || {
            quotient::coefficients(values)
                .into_iter()
                .map(|mut coeffs| {
                    // Degree check: a satisfying trace yields degree < n;
                    // the upper coefficients must vanish.
                    if coeffs[n..].iter().any(|c| !c.is_zero()) {
                        return Err(StarkError::UnsatisfiedConstraints);
                    }
                    // The coefficients outlive the proof's LDE buffers: keep
                    // `n` of them, not the evaluation's capacity (on
                    // `stark_narrow_gl` the retained capacity was 2 MB of
                    // peak RSS over repeated proves).
                    coeffs.truncate(n);
                    coeffs.shrink_to_fit();
                    Ok(Polynomial::from_coeffs(coeffs))
                })
                .collect::<Result<Vec<_>, _>>()
        })
    })?;
    let quotient_batch = trace::with_span("stark.quotient_commit", || {
        GenericPolynomialBatch::<H>::from_coeffs(quotient_polys, &config.fri)
    });
    challenger.observe_digest(quotient_batch.root());

    // 4. Openings.
    let zeta = challenger.challenge_ext();
    let omega = F::primitive_root_of_unity(log2_strict(n));
    let points = [zeta, zeta * F::Ext::from(omega)];
    let fri = trace::with_span("stark.fri", || {
        fri_prove(
            &[&trace_batch, &quotient_batch],
            &points,
            &mut challenger,
            &config.fri,
        )
    });

    Ok(StarkProof {
        trace_root: trace_batch.root(),
        quotient_root: quotient_batch.root(),
        fri,
        rows: n,
    })
}

/// The Stark constraints as the quotient engine evaluates them: per
/// position the `local` and `next` trace rows, combined into
/// `Σ_k α_s^k·C_k(x)·(x − ω^{n−1})/Z_H(x) + Σ_b α_s^b·(local_b − v_b)/(x − ω^{row_b})`
/// for every round `s`.
struct AirConstraints<'a, F: ProtocolField, A> {
    air: &'a A,
    leaves: &'a RowMajorMatrix<F>,
    /// `(x − ω^row)⁻¹` for each distinct boundary row, one table of the LDE
    /// per row — boundaries on one row (Fibonacci's two at row 0) share a
    /// denominator: distinct row `r` at position `i` is entry
    /// `r·lde_size + i`.
    row_inv: Vec<F>,
    boundaries: Vec<Boundary<F>>,
    /// The distinct row of each boundary.
    row_of: Vec<usize>,
    /// `α_s^k` for every round `s`: transition constraints first, then
    /// boundaries, in the order the verifier combines them.
    alpha_pows: Vec<Vec<F>>,
    /// `ω^{n−1}`, the row on which transitions need not vanish.
    last: F,
    /// The stride of `row_inv`.
    lde_size: usize,
}

impl<'a, F: ProtocolField, A: Air<F>> AirConstraints<'a, F, A> {
    fn new(air: &'a A, leaves: &'a RowMajorMatrix<F>, domain: &QuotientDomain<F>, alphas: &[F]) -> Self {
        let omega = F::primitive_root_of_unity(log2_strict(air.rows()));
        let boundaries = air.boundaries();
        let mut rows: Vec<usize> = boundaries.iter().map(|b| b.row).collect();
        rows.sort_unstable();
        rows.dedup();
        let row_of = boundaries.iter().map(|b| rows.partition_point(|&r| r < b.row)).collect();
        let mut row_denoms = Vec::with_capacity(domain.size() * rows.len());
        for &r in &rows {
            let point = omega.exp_u64(r as u64);
            row_denoms.extend(domain.points().iter().map(|&x| x - point));
        }
        let num_constraints = air.num_transition_constraints() + boundaries.len();
        Self {
            air,
            leaves,
            row_inv: batch_inverse(&row_denoms),
            boundaries,
            row_of,
            alpha_pows: alphas.iter().map(|&alpha| powers(alpha, num_constraints)).collect(),
            last: omega.exp_u64((air.rows() - 1) as u64),
            lde_size: domain.size(),
        }
    }
}

impl<F: ProtocolField, A: Air<F> + Sync> Constraint<F> for AirConstraints<'_, F, A> {
    #[inline(always)]
    fn rounds(&self) -> usize {
        self.alpha_pows.len()
    }

    #[inline(always)]
    fn columns(&self) -> usize {
        2 * self.air.width()
    }

    #[inline(always)]
    fn scratch(&self) -> usize {
        self.air.num_transition_constraints() + self.boundaries.len()
    }

    #[inline(always)]
    fn gather<'s>(&self, position: usize, next: usize, slots: impl Iterator<Item = &'s mut F>)
    where
        F: 's,
    {
        let width = self.air.width();
        let (Some(local), Some(next)) = (
            self.leaves.get_row(position).and_then(|leaf| leaf.get(..width)),
            self.leaves.get_row(next).and_then(|leaf| leaf.get(..width)),
        ) else {
            return;
        };
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
        let (w, i) = (L::WIDTH, row.position);
        let Some((local, next)) = row.columns.split_at_checked(self.air.width()) else { return };
        // Transition constraints vanish on all rows but the last: multiply by
        // (x − ω^{n−1}) and divide by Z_H.
        let trans_factor = (row.x - L::splat(self.last)) * row.zh_inv;
        let num_transitions = self.air.num_transition_constraints();
        let Some((transitions, terms)) = scratch.split_at_mut_checked(num_transitions) else { return };
        self.air.eval_transition(local, next, transitions);

        // (local[col] − value) / (x − ω^row), shared by every round.
        for ((term, b), &r) in terms.iter_mut().zip(&self.boundaries).zip(&self.row_of) {
            let at = r * self.lde_size + i;
            let (Some(&value), Some(inv)) = (local.get(b.col), self.row_inv.get(at..at + w)) else { return };
            *term = (value - L::splat(b.value)) * L::load(inv);
        }

        for (pows, out) in self.alpha_pows.iter().zip(out) {
            let Some((transition_pows, boundary_pows)) = pows.split_at_checked(num_transitions) else {
                continue;
            };
            let mut acc = L::splat(F::ZERO);
            for (&a, &c) in transition_pows.iter().zip(transitions.iter()) {
                acc = acc + L::splat(a) * c;
            }
            acc = acc * trans_factor;
            for (&a, &term) in boundary_pows.iter().zip(terms.iter()) {
                acc = acc + L::splat(a) * term;
            }
            acc.store(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airs::{CountdownAir, FibonacciAir, RangeAccumulatorAir};
    use unizk_field::{bit_reverse, Goldilocks, KoalaBear};
    use unizk_testkit::rng::TestRng;

    /// Trace rows and LDE positions of the random leaves (blowup 4).
    const N: usize = 16;
    const LDE: usize = 64;
    const ROUNDS: usize = 3;

    /// The combined constraint of round `s` at position `i`, one position
    /// at a time over the base field, straight from the leaves.
    fn reference<F: ProtocolField, A: Air<F>>(c: &AirConstraints<'_, F, A>, d: &QuotientDomain<F>, i: usize, s: usize) -> F {
        let bits = log2_strict(LDE);
        let next = bit_reverse((bit_reverse(i, bits) + LDE / N) % LDE, bits);
        let (local, next) = (c.leaves.row(i), c.leaves.row(next));
        let mut transitions = vec![F::ZERO; c.air.num_transition_constraints()];
        c.air.eval_transition(local, next, &mut transitions);
        let (transition_pows, boundary_pows) = c.alpha_pows[s].split_at(transitions.len());
        let trans_factor = (d.points()[i] - c.last) * d.vanishing()[i / N].inverse();
        let transition: F = transition_pows.iter().zip(&transitions).map(|(&a, &c)| a * c).sum();
        let boundary: F = boundary_pows
            .iter()
            .zip(c.boundaries.iter().zip(&c.row_of))
            .map(|(&a, (b, &r))| a * (local[b.col] - b.value) * c.row_inv[r * LDE + i])
            .sum();
        transition * trans_factor + boundary
    }

    /// Ranges of every length 0..=40 — so every remainder of a row of 8 or
    /// 16 lanes — at shifting offsets, through the quotient engine, against
    /// the per-position reference, over random leaves and challenges.
    fn quotient_rows_match<F: ProtocolField, A: Air<F> + Sync>(air: &A, seed: u64) {
        let mut rng = TestRng::seed_from_u64(seed);
        let leaves = RowMajorMatrix::new((0..LDE * air.width()).map(|_| F::random(&mut rng)).collect(), air.width());
        let alphas: Vec<F> = (0..ROUNDS).map(|_| F::random(&mut rng)).collect();
        let domain = QuotientDomain::new(N, LDE);
        let c = AirConstraints::new(air, &leaves, &domain, &alphas);
        for len in 0..=40 {
            let first = (7 * len) % (LDE - len + 1);
            let want: Vec<Vec<F>> =
                (0..ROUNDS).map(|s| (first..first + len).map(|i| reference(&c, &domain, i, s)).collect()).collect();
            let mut got = vec![vec![F::ZERO; len]; ROUNDS];
            let mut rounds: Vec<&mut [F]> = got.iter_mut().map(Vec::as_mut_slice).collect();
            quotient::evaluate_range(&domain, &c, first, &mut rounds);
            assert_eq!(got, want, "{first}+{len}");
        }
        let whole: Vec<Vec<F>> = (0..ROUNDS).map(|s| (0..LDE).map(|i| reference(&c, &domain, i, s)).collect()).collect();
        assert_eq!(quotient::evaluate(&domain, &c), whole);
    }

    fn every_air<F: ProtocolField>(seed: u64) {
        quotient_rows_match::<F, _>(&FibonacciAir::new(N), seed);
        quotient_rows_match::<F, _>(&CountdownAir::new(N), seed + 1);
        quotient_rows_match::<F, _>(&RangeAccumulatorAir::new(N), seed + 2);
    }

    #[test]
    fn quotient_rows_match_one_position_at_a_time_over_both_fields() {
        every_air::<Goldilocks>(0x5701);
        every_air::<KoalaBear>(0x5711);
    }
}
