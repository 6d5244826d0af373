//! The Stark prover: trace commitment, quotient computation over the
//! blowup-2 LDE, and FRI openings. Generic over the `(field, hasher)`
//! pair; the `StarkConfig` argument pins both, so Goldilocks call sites
//! are unchanged and `KbStarkConfig` selects the KoalaBear stack.

use unizk_field::{
    batch_inverse, bit_reverse, log2_strict, powers, reverse_index_bits, Polynomial,
};
use unizk_fri::domain::FoldDomain;
use unizk_fri::{fri_prove, GenericPolynomialBatch};
use unizk_hash::sponge::HashField;
use unizk_hash::{GenericChallenger, SpongeBackend};
use unizk_testkit::trace;

use crate::air::Air;
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
    let lde_size = trace.lde_size();
    let bits = log2_strict(lde_size);
    let blowup = lde_size / n;
    let omega = F::primitive_root_of_unity(log2_strict(n));
    let last = omega.exp_u64((n - 1) as u64);
    let boundaries = air.boundaries();
    let num_transitions = air.num_transition_constraints();

    // Shared per-position quantities: the domain points, Z_H⁻¹ (one entry
    // per coset of the trace domain, see `FoldDomain::vanishing`), and
    // (x − ω^row)⁻¹ for each distinct boundary row, flattened — boundaries
    // on one row (Fibonacci's two at row 0) share a denominator.
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
    let row_points: Vec<F> = rows.iter().map(|&r| omega.exp_u64(r as u64)).collect();
    let mut row_denoms = Vec::with_capacity(lde_size * rows.len());
    for &x in &xs {
        row_denoms.extend(row_points.iter().map(|&p| x - p));
    }
    let row_inv = batch_inverse(&row_denoms);

    // α_s^k for every round s: transition constraints first, then
    // boundaries, in the order the verifier combines them.
    let alpha_pows: Vec<Vec<F>> = alphas
        .iter()
        .map(|&alpha| powers(alpha, num_transitions + boundaries.len()))
        .collect();

    let s_rounds = alphas.len();
    let dot = |pows: &[F], terms: &[F]| pows.iter().zip(terms).map(|(&a, &c)| a * c).sum::<F>();
    let per_range: Vec<Vec<Vec<F>>> = unizk_field::parallel_ranges(lde_size, 1, |range| {
        let mut out = vec![Vec::with_capacity(range.len()); s_rounds];
        let mut transitions = vec![F::ZERO; num_transitions];
        let mut boundary_terms = vec![F::ZERO; boundaries.len()];
        for i in range {
            let local = trace.leaf(i);
            let t = bit_reverse(i, bits);
            let i_next = bit_reverse((t + blowup) % lde_size, bits);
            let next = trace.leaf(i_next);

            air.eval_transition(local, next, &mut transitions);
            // Transition constraints vanish on all rows but the last:
            // multiply by (x − ω^{n−1}) and divide by Z_H.
            let trans_factor = (xs[i] - last) * zh_inv[i / n];
            // (local[col] − value) / (x − ω^row), shared by every round.
            let inv = &row_inv[i * rows.len()..(i + 1) * rows.len()];
            for ((term, b), &r) in boundary_terms.iter_mut().zip(&boundaries).zip(&row_of) {
                *term = (local[b.col] - b.value) * inv[r];
            }

            for (pows, round) in alpha_pows.iter().zip(&mut out) {
                let (transition_pows, boundary_pows) = pows.split_at(num_transitions);
                round.push(
                    dot(transition_pows, &transitions) * trans_factor
                        + dot(boundary_pows, &boundary_terms),
                );
            }
        }
        out
    });

    let mut quotients = Vec::with_capacity(s_rounds);
    for s in 0..s_rounds {
        let mut values = Vec::with_capacity(lde_size);
        for r in &per_range {
            values.extend_from_slice(&r[s]);
        }
        reverse_index_bits(&mut values);
        unizk_ntt::coset_intt_nn(&mut values, unizk_fri::batch::coset_shift());
        // Degree check: a satisfying trace yields degree < n; the upper
        // coefficients must vanish.
        if values[n..].iter().any(|c| !c.is_zero()) {
            return Err(StarkError::UnsatisfiedConstraints);
        }
        values.truncate(n);
        quotients.push(Polynomial::from_coeffs(values));
    }
    Ok(quotients)
}
