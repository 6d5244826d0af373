//! The Stark prover: trace commitment, quotient computation over the
//! blowup-2 LDE, and FRI openings. Generic over the `(field, hasher)`
//! pair; the `StarkConfig` argument pins both, so Goldilocks call sites
//! are unchanged and `KbStarkConfig` selects the KoalaBear stack.

use unizk_field::lanes::MAX_LANES;
use unizk_field::{
    batch_inverse, bit_reverse, log2_strict, parallel_columns_mut, powers, reverse_index_bits,
    LaneKernel, Lanes, Polynomial, ProtocolField,
};
use unizk_fri::domain::FoldDomain;
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
        compute_quotients(air, &trace_batch, &alphas, n)
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

/// The quotient of every challenge round: the combined constraint over the
/// LDE (`stark.quotient_eval`, [`quotient_values`]), then one coset iNTT
/// per round and the degree check (`stark.quotient_intt`).
fn compute_quotients<F, H, A>(
    air: &A,
    trace: &GenericPolynomialBatch<H>,
    alphas: &[F],
    n: usize,
) -> Result<Vec<Polynomial<F>>, StarkError>
where
    F: HashField,
    H: SpongeBackend<F = F>,
    A: Air<F> + Sync,
{
    let values = trace::with_span("stark.quotient_eval", || quotient_values(air, trace, alphas, n));
    trace::with_span("stark.quotient_intt", || {
        values
            .into_iter()
            .map(|mut values| {
                reverse_index_bits(&mut values);
                unizk_ntt::coset_intt_nn(&mut values, unizk_fri::batch::coset_shift());
                // Degree check: a satisfying trace yields degree < n; the
                // upper coefficients must vanish.
                if values[n..].iter().any(|c| !c.is_zero()) {
                    return Err(StarkError::UnsatisfiedConstraints);
                }
                // The coefficients outlive the proof's LDE buffers: keep `n`
                // of them, not the evaluation's capacity (on
                // `stark_narrow_gl` the retained capacity was 2 MB of peak
                // RSS over repeated proves).
                values.truncate(n);
                values.shrink_to_fit();
                Ok(Polynomial::from_coeffs(values))
            })
            .collect()
    })
}

/// The combined constraint of every round at every LDE position, on lane
/// rows of positions, each round written in place.
fn quotient_values<F, H, A>(
    air: &A,
    trace: &GenericPolynomialBatch<H>,
    alphas: &[F],
    n: usize,
) -> Vec<Vec<F>>
where
    F: HashField,
    H: SpongeBackend<F = F>,
    A: Air<F> + Sync,
{
    let lde_size = trace.lde_size();
    let omega = F::primitive_root_of_unity(log2_strict(n));
    let boundaries = air.boundaries();
    let num_transitions = air.num_transition_constraints();

    // Shared per-position quantities: the domain points, Z_H⁻¹ (one entry
    // per coset of the trace domain, see `FoldDomain::vanishing`), and
    // (x − ω^row)⁻¹ for each distinct boundary row, one table of the LDE
    // per row — boundaries on one row (Fibonacci's two at row 0) share a
    // denominator.
    let domain = FoldDomain::<F>::initial(lde_size);
    let xs = domain.points();
    let zh_inv = batch_inverse(&domain.vanishing(n));
    let mut rows: Vec<usize> = boundaries.iter().map(|b| b.row).collect();
    rows.sort_unstable();
    rows.dedup();
    let row_of: Vec<usize> = boundaries
        .iter()
        .map(|b| rows.partition_point(|&r| r < b.row))
        .collect();
    let mut row_denoms = Vec::with_capacity(lde_size * rows.len());
    for &r in &rows {
        let point = omega.exp_u64(r as u64);
        row_denoms.extend(xs.iter().map(|&x| x - point));
    }
    let row_inv = batch_inverse(&row_denoms);

    // α_s^k for every round s: transition constraints first, then
    // boundaries, in the order the verifier combines them.
    let alpha_pows: Vec<Vec<F>> = alphas
        .iter()
        .map(|&alpha| powers(alpha, num_transitions + boundaries.len()))
        .collect();

    let table = QuotientTable {
        leaves: trace.leaves(),
        xs: &xs,
        zh_inv: &zh_inv,
        row_inv: &row_inv,
        boundaries: &boundaries,
        row_of: &row_of,
        alpha_pows: &alpha_pows,
        last: omega.exp_u64((n - 1) as u64),
        log_n: log2_strict(n),
        bits: log2_strict(lde_size),
        blowup: lde_size / n,
    };
    let mut values: Vec<Vec<F>> = (0..alphas.len()).map(|_| vec![F::ZERO; lde_size]).collect();
    parallel_columns_mut(&mut values, 1, |first, out| {
        let mut gathered = vec![F::ZERO; (2 * air.width() + 1) * MAX_LANES];
        let mut transitions = vec![F::ZERO; num_transitions * MAX_LANES];
        let mut terms = vec![F::ZERO; boundaries.len() * MAX_LANES];
        F::with_lanes(QuotientRows {
            air,
            table: &table,
            first,
            out,
            gathered: &mut gathered,
            transitions: &mut transitions,
            terms: &mut terms,
        });
    });
    values
}

/// What the constraints read at each LDE position `i`: the trace leaves
/// (the leaf of `ω·x` is `blowup` further on in natural order), the
/// per-position and per-round scalars.
struct QuotientTable<'a, F: ProtocolField> {
    leaves: &'a RowMajorMatrix<F>,
    xs: &'a [F],
    /// `Z_H(x)⁻¹` per coset of the trace domain: position `i` reads entry
    /// `i >> log_n`.
    zh_inv: &'a [F],
    /// `(x − ω^row)⁻¹`: distinct boundary row `r` at position `i` is entry
    /// `r·lde_size + i`.
    row_inv: &'a [F],
    boundaries: &'a [Boundary<F>],
    /// The distinct row of each boundary.
    row_of: &'a [usize],
    alpha_pows: &'a [Vec<F>],
    /// `ω^{n−1}`, the row on which transitions need not vanish.
    last: F,
    log_n: usize,
    bits: usize,
    blowup: usize,
}

/// The kernel of [`compute_quotients`] over the positions
/// `first..first + out[s].len()`: whole lane rows of positions, then the
/// rest one lane at a time. `gathered`, `transitions` and `terms` are
/// scratch of `MAX_LANES` scalars per gathered column, constraint and
/// boundary.
struct QuotientRows<'a, 'b, F: ProtocolField, A> {
    air: &'a A,
    table: &'a QuotientTable<'a, F>,
    first: usize,
    out: &'a mut [&'b mut [F]],
    gathered: &'a mut [F],
    transitions: &'a mut [F],
    terms: &'a mut [F],
}

impl<F: ProtocolField, A: Air<F>> LaneKernel<F> for QuotientRows<'_, '_, F, A> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(self) {
        let len = self.out.first().map_or(0, |out| out.len());
        let whole = len / L::WIDTH * L::WIDTH;
        for start in (0..whole).step_by(L::WIDTH) {
            quotient_row::<F, A, L>(self.air, self.table, self.first + start, start, self.out, self.gathered, self.transitions, self.terms);
        }
        for start in whole..len {
            quotient_row::<F, A, F>(self.air, self.table, self.first + start, start, self.out, self.gathered, self.transitions, self.terms);
        }
    }
}

/// `Σ_k α_s^k·C_k(x)·(x − ω^{n−1})/Z_H(x) + Σ_b α_s^b·(local_b − v_b)/(x − ω^{row_b})`
/// of every round `s` at the positions `i + l` for the lanes `l` of one
/// row of `L`, into `out[s][start + l]`. The positions' `local` and `next`
/// leaves and `Z_H⁻¹` are gathered column by column into `gathered` (lane
/// `l` of column `c` at `c·WIDTH + l`), which is then read as rows of `L`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn quotient_row<F: ProtocolField, A: Air<F>, L: Lanes<Scalar = F>>(
    air: &A,
    t: &QuotientTable<'_, F>,
    i: usize,
    start: usize,
    out: &mut [&mut [F]],
    gathered: &mut [F],
    transitions: &mut [F],
    terms: &mut [F],
) {
    let (w, width) = (L::WIDTH, air.width());
    let lde_size = 1usize << t.bits;
    for (l, position) in (i..i + w).enumerate() {
        let next = bit_reverse((bit_reverse(position, t.bits) + t.blowup) & (lde_size - 1), t.bits);
        let (Some(local), Some(next), Some(zh_inv)) = (
            t.leaves.get_row(position).and_then(|leaf| leaf.get(..width)),
            t.leaves.get_row(next).and_then(|leaf| leaf.get(..width)),
            t.zh_inv.get(position >> t.log_n),
        ) else {
            return;
        };
        let slots = gathered.chunks_exact_mut(w).filter_map(|slot| slot.get_mut(l));
        for (&v, slot) in local.iter().chain(next).chain(Some(zh_inv)).zip(slots) {
            *slot = v;
        }
    }
    let Some(columns) = gathered.get(..(2 * width + 1) * w) else { return };
    let columns = L::pack(columns);
    let Some((local, rest)) = columns.split_at_checked(width) else { return };
    let Some((next, rest)) = rest.split_at_checked(width) else { return };
    let (Some(&zh_inv), Some(x)) = (rest.first(), t.xs.get(i..i + w)) else { return };
    // Transition constraints vanish on all rows but the last: multiply by
    // (x − ω^{n−1}) and divide by Z_H.
    let trans_factor = (L::load(x) - L::splat(t.last)) * zh_inv;
    let num_transitions = air.num_transition_constraints();
    let Some(transitions) = transitions.get_mut(..num_transitions * w) else { return };
    let transitions = L::pack_mut(transitions);
    air.eval_transition(local, next, transitions);

    // (local[col] − value) / (x − ω^row), shared by every round.
    let Some(terms) = terms.get_mut(..t.boundaries.len() * w) else { return };
    let terms = L::pack_mut(terms);
    for ((term, b), &r) in terms.iter_mut().zip(t.boundaries).zip(t.row_of) {
        let at = r * lde_size + i;
        let (Some(&value), Some(inv)) = (local.get(b.col), t.row_inv.get(at..at + w)) else { return };
        *term = (value - L::splat(b.value)) * L::load(inv);
    }

    for (pows, out) in t.alpha_pows.iter().zip(out.iter_mut()) {
        let (Some((transition_pows, boundary_pows)), Some(out)) =
            (pows.split_at_checked(num_transitions), out.get_mut(start..start + w))
        else {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airs::{CountdownAir, FibonacciAir, RangeAccumulatorAir};
    use unizk_field::{Goldilocks, KoalaBear};
    use unizk_testkit::rng::TestRng;

    /// Trace rows and LDE positions of the random tables (blowup 4).
    const N: usize = 16;
    const LDE: usize = 64;
    const ROUNDS: usize = 3;

    /// Random leaves and scalars in the shape [`compute_quotients`] builds
    /// for `air`, with its real boundaries.
    struct Shape<F: ProtocolField> {
        leaves: RowMajorMatrix<F>,
        xs: Vec<F>,
        zh_inv: Vec<F>,
        row_inv: Vec<F>,
        boundaries: Vec<Boundary<F>>,
        row_of: Vec<usize>,
        alpha_pows: Vec<Vec<F>>,
        last: F,
    }

    fn shape<F: ProtocolField, A: Air<F>>(air: &A, rng: &mut TestRng) -> Shape<F> {
        let mut column = |len: usize| (0..len).map(|_| F::random(rng)).collect::<Vec<F>>();
        let boundaries = air.boundaries();
        let mut rows: Vec<usize> = boundaries.iter().map(|b| b.row).collect();
        rows.sort_unstable();
        rows.dedup();
        let row_of = boundaries.iter().map(|b| rows.partition_point(|&r| r < b.row)).collect();
        Shape {
            leaves: RowMajorMatrix::new(column(LDE * air.width()), air.width()),
            xs: column(LDE),
            zh_inv: column(LDE / N),
            row_inv: column(rows.len() * LDE),
            alpha_pows: (0..ROUNDS).map(|_| column(air.num_transition_constraints() + boundaries.len())).collect(),
            last: column(1)[0],
            boundaries,
            row_of,
        }
    }

    fn table<F: ProtocolField>(s: &Shape<F>) -> QuotientTable<'_, F> {
        QuotientTable {
            leaves: &s.leaves,
            xs: &s.xs,
            zh_inv: &s.zh_inv,
            row_inv: &s.row_inv,
            boundaries: &s.boundaries,
            row_of: &s.row_of,
            alpha_pows: &s.alpha_pows,
            last: s.last,
            log_n: log2_strict(N),
            bits: log2_strict(LDE),
            blowup: LDE / N,
        }
    }

    /// The combined constraint of round `s` at position `i`, one position
    /// at a time over the base field: the loop the kernel replaced.
    fn reference<F: ProtocolField, A: Air<F>>(air: &A, t: &QuotientTable<'_, F>, i: usize, s: usize) -> F {
        let next = bit_reverse((bit_reverse(i, t.bits) + t.blowup) % LDE, t.bits);
        let (local, next) = (t.leaves.row(i), t.leaves.row(next));
        let mut transitions = vec![F::ZERO; air.num_transition_constraints()];
        air.eval_transition(local, next, &mut transitions);
        let (transition_pows, boundary_pows) = t.alpha_pows[s].split_at(transitions.len());
        let trans_factor = (t.xs[i] - t.last) * t.zh_inv[i / N];
        let transition: F = transition_pows.iter().zip(&transitions).map(|(&a, &c)| a * c).sum();
        let boundary: F = boundary_pows
            .iter()
            .zip(t.boundaries.iter().zip(t.row_of))
            .map(|(&a, (b, &r))| a * (local[b.col] - b.value) * t.row_inv[r * LDE + i])
            .sum();
        transition * trans_factor + boundary
    }

    fn evaluate<F: ProtocolField, A: Air<F>>(air: &A, t: &QuotientTable<'_, F>, first: usize, len: usize, one_lane: bool) -> Vec<Vec<F>> {
        let mut out = vec![vec![F::ZERO; len]; ROUNDS];
        let mut rounds: Vec<&mut [F]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        let mut gathered = vec![F::ZERO; (2 * air.width() + 1) * MAX_LANES];
        let mut transitions = vec![F::ZERO; air.num_transition_constraints() * MAX_LANES];
        let mut terms = vec![F::ZERO; t.boundaries.len() * MAX_LANES];
        let kernel = QuotientRows {
            air,
            table: t,
            first,
            out: &mut rounds,
            gathered: &mut gathered,
            transitions: &mut transitions,
            terms: &mut terms,
        };
        if one_lane {
            kernel.run::<F>();
        } else {
            F::with_lanes(kernel);
        }
        out
    }

    /// Ranges of every length 0..=40 — so every remainder of a row of 8 or
    /// 16 lanes — at shifting offsets, one lane at a time and dispatched,
    /// against the per-position reference.
    fn quotient_rows_match<F: ProtocolField, A: Air<F>>(air: &A, seed: u64) {
        let mut rng = TestRng::seed_from_u64(seed);
        let s = shape(air, &mut rng);
        let t = table(&s);
        for len in 0..=40 {
            let first = (7 * len) % (LDE - len + 1);
            let want: Vec<Vec<F>> =
                (0..ROUNDS).map(|r| (first..first + len).map(|i| reference(air, &t, i, r)).collect()).collect();
            assert_eq!(evaluate(air, &t, first, len, true), want, "one lane {first}+{len}");
            assert_eq!(evaluate(air, &t, first, len, false), want, "dispatched {first}+{len}");
        }
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
