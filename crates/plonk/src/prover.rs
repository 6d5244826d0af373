//! The Plonk prover: witness generation, commitments, permutation argument,
//! quotient, and FRI openings — the full proof-generation flow of the
//! paper's Fig. 1 and Fig. 7, one trace span per phase (the Stark prover's
//! tree under `plonk.prove`; `unizk_fri::timing` maps spans to Table 1).

use unizk_field::{Ext2, Field, Goldilocks, Polynomial};
use unizk_fri::quotient::{self, QuotientDomain};
use unizk_fri::{fri_prove, PolynomialBatch};
use unizk_hash::Challenger;
use unizk_ntt::lde_nr;
use unizk_testkit::trace;

use crate::builder::Op;
use crate::circuit::CircuitData;
use crate::error::PlonkError;
use crate::permutation::compute_permutation;
use crate::proof::Proof;
use crate::quotient::CircuitConstraints;

/// Generates the wire matrix from the prover's inputs.
///
/// Copy-constrained slots share storage through their set representative,
/// so copy constraints hold by construction; conflicting assignments are
/// detected. Wire columns beyond those touched by gates are filled with
/// deterministic filler values (they are unconstrained but still committed,
/// matching the cost profile of wide Plonky2 circuits).
#[allow(clippy::needless_range_loop)]
pub fn generate_witness(
    data: &CircuitData,
    inputs: &[Goldilocks],
) -> Result<Vec<Vec<Goldilocks>>, PlonkError> {
    if inputs.len() != data.num_inputs {
        return Err(PlonkError::WrongInputCount {
            expected: data.num_inputs,
            got: inputs.len(),
        });
    }
    let n = data.rows;
    let w = data.config.num_wires;
    let slot = |row: usize, col: usize| col * n + row;

    // Values per representative slot.
    let mut rep_value: Vec<Option<Goldilocks>> = vec![None; n * w];
    let read = |rep_value: &Vec<Option<Goldilocks>>, row: usize, col: usize| {
        rep_value[data.slot_reps[slot(row, col)]].unwrap_or(Goldilocks::ZERO)
    };
    let write = |rep_value: &mut Vec<Option<Goldilocks>>,
                     row: usize,
                     col: usize,
                     v: Goldilocks|
     -> Result<(), PlonkError> {
        let rep = data.slot_reps[slot(row, col)];
        match rep_value[rep] {
            Some(existing) if existing != v => Err(PlonkError::CopyConflict { row, col }),
            _ => {
                rep_value[rep] = Some(v);
                Ok(())
            }
        }
    };

    for op in &data.ops {
        match *op {
            Op::Input { dst, index } => write(&mut rep_value, dst.row, dst.col, inputs[index])?,
            Op::Const { dst, value } => write(&mut rep_value, dst.row, dst.col, value)?,
            Op::Add { a, b, dst } => {
                let v = read(&rep_value, a.row, a.col) + read(&rep_value, b.row, b.col);
                write(&mut rep_value, dst.row, dst.col, v)?;
            }
            Op::Mul { a, b, dst } => {
                let v = read(&rep_value, a.row, a.col) * read(&rep_value, b.row, b.col);
                write(&mut rep_value, dst.row, dst.col, v)?;
            }
            Op::Affine { a, k, c, dst } => {
                let v = k * read(&rep_value, a.row, a.col) + c;
                write(&mut rep_value, dst.row, dst.col, v)?;
            }
        }
    }

    // Materialize columns; untouched slots default to their representative's
    // value (or a deterministic filler for completely free wide columns).
    let mut wires = vec![vec![Goldilocks::ZERO; n]; w];
    for (col, wire_col) in wires.iter_mut().enumerate() {
        for (row, cell) in wire_col.iter_mut().enumerate() {
            let rep = data.slot_reps[slot(row, col)];
            *cell = match rep_value[rep] {
                Some(v) => v,
                // Filler: pseudo-random but deterministic so proofs are
                // reproducible. Unconstrained slots with identity σ accept
                // any value.
                None if col >= 3 => {
                    Goldilocks::from_u64((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (col as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
                }
                None => Goldilocks::ZERO,
            };
        }
    }

    // Sanity: every gate constraint must hold (catches builder misuse with
    // unsatisfiable assertions). Public-input rows satisfy their gate via
    // the PI polynomial (a + PI = 0 with PI(row) = −a), so they are exempt.
    let pi_row_set: std::collections::HashSet<usize> = data.pi_rows.iter().copied().collect();
    for row in 0..n {
        if pi_row_set.contains(&row) {
            continue;
        }
        let a = wires[0][row];
        let b = wires[1][row];
        let c = wires[2][row];
        let v = data.selectors[0][row] * a
            + data.selectors[1][row] * b
            + data.selectors[2][row] * a * b
            + data.selectors[3][row] * c
            + data.selectors[4][row];
        if !v.is_zero() {
            return Err(PlonkError::UnsatisfiedGate { row });
        }
    }

    Ok(wires)
}

/// Runs the full proving flow.
///
/// # Errors
///
/// Returns [`PlonkError`] if witness generation fails; commitment and FRI
/// phases are infallible for a valid witness.
pub fn prove(data: &CircuitData, inputs: &[Goldilocks]) -> Result<Proof, PlonkError> {
    let _prove_span = trace::span("plonk.prove");
    let mut challenger = Challenger::new();

    let wires_cols = trace::with_span("plonk.witness", || generate_witness(data, inputs))?;

    // Public inputs are read out of the witness and bound into the
    // transcript before anything else derived from them.
    let public_inputs: Vec<Goldilocks> =
        data.pi_rows.iter().map(|&r| wires_cols[0][r]).collect();

    // Wires commitment (paper Fig. 7's first node): iNTT + LDE + Merkle.
    let wires_batch = trace::with_span("plonk.wires_commit", || {
        PolynomialBatch::from_values(wires_cols.clone(), &data.config.fri)
    });
    challenger.observe_digest(data.constants.root());
    challenger.observe_slice(&public_inputs);
    challenger.observe_digest(wires_batch.root());

    // The public-input polynomial PI(x): −v on each public-input row,
    // zero elsewhere; its LDE joins the gate constraint.
    let pi_lde: Vec<Goldilocks> = if data.pi_rows.is_empty() {
        Vec::new()
    } else {
        let mut col = vec![Goldilocks::ZERO; data.rows];
        for (&row, &v) in data.pi_rows.iter().zip(&public_inputs) {
            col[row] = -v;
        }
        unizk_ntt::intt_nn(&mut col);
        lde_nr(&col, data.config.fri.rate_bits, unizk_fri::batch::coset_shift())
    };

    // Copy-constraint challenges.
    let s_rounds = data.config.num_challenges;
    let mut betas = Vec::with_capacity(s_rounds);
    let mut gammas = Vec::with_capacity(s_rounds);
    for _ in 0..s_rounds {
        betas.push(challenger.challenge());
        gammas.push(challenger.challenge());
    }

    // Permutation columns (§5.4's partial products).
    let perm_cols = trace::with_span("plonk.permutation", || {
        let mut cols = Vec::new();
        for s in 0..s_rounds {
            cols.extend(compute_permutation(data, &wires_cols, betas[s], gammas[s]).columns);
        }
        cols
    });
    let perm_batch = trace::with_span("plonk.perm_commit", || {
        PolynomialBatch::from_values(perm_cols, &data.config.fri)
    });
    challenger.observe_digest(perm_batch.root());

    // Constraint-combination challenges.
    let alphas: Vec<Goldilocks> = challenger.challenges(s_rounds);

    // Quotient polynomials: the combined constraints over the LDE, then
    // one coset iNTT per round, split into `blowup` chunks of degree `n`,
    // round-major.
    let quotient_polys = trace::with_span("plonk.quotient", || {
        let lde_size = wires_batch.lde_size();
        let values = trace::with_span("plonk.quotient_eval", || {
            let domain = QuotientDomain::new(data.rows, lde_size);
            let constraints =
                CircuitConstraints::new(data, &domain, [&wires_batch, &perm_batch], &pi_lde, [&betas, &gammas, &alphas]);
            quotient::evaluate(&domain, &constraints)
        });
        trace::with_span("plonk.quotient_intt", || {
            quotient::coefficients(values)
                .iter()
                .flat_map(|coeffs| coeffs.chunks_exact(data.rows))
                .map(|chunk| Polynomial::from_coeffs(Vec::from(chunk)))
                .collect()
        })
    });
    let quotient_batch = trace::with_span("plonk.quotient_commit", || {
        PolynomialBatch::from_coeffs(quotient_polys, &data.config.fri)
    });
    challenger.observe_digest(quotient_batch.root());

    // Opening point and FRI proof.
    let zeta = challenger.challenge_ext();
    let omega = data.omega();
    let points = [zeta, zeta * Ext2::from(omega)];
    let fri = fri_prove(
        &[&data.constants, &wires_batch, &perm_batch, &quotient_batch],
        &points,
        &mut challenger,
        &data.config.fri,
    );

    Ok(Proof {
        public_inputs,
        wires_root: wires_batch.root(),
        perm_root: perm_batch.root(),
        quotient_root: quotient_batch.root(),
        fri,
    })
}
