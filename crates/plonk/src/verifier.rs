//! The Plonk verifier: transcript replay, FRI verification, and the
//! constraint identity check at `ζ`.

use unizk_field::{Ext2, Field, Goldilocks};
use unizk_fri::fri_verify;
use unizk_hash::Challenger;

use crate::circuit::{eval_constraints, CircuitData, ConstraintInputs, NUM_SELECTORS};
use crate::error::PlonkError;
use crate::proof::Proof;

/// Verifies a proof against the circuit.
///
/// # Errors
///
/// Returns [`PlonkError`] describing the first failed check.
pub fn verify(data: &CircuitData, proof: &Proof) -> Result<(), PlonkError> {
    if proof.public_inputs.len() != data.pi_rows.len() {
        return Err(PlonkError::WrongInputCount {
            expected: data.pi_rows.len(),
            got: proof.public_inputs.len(),
        });
    }
    let mut challenger = Challenger::new();
    challenger.observe_digest(data.constants.root());
    challenger.observe_slice(&proof.public_inputs);
    challenger.observe_digest(proof.wires_root);

    let s_rounds = data.config.num_challenges;
    let mut betas = Vec::with_capacity(s_rounds);
    let mut gammas = Vec::with_capacity(s_rounds);
    for _ in 0..s_rounds {
        betas.push(challenger.challenge());
        gammas.push(challenger.challenge());
    }
    challenger.observe_digest(proof.perm_root);
    let alphas: Vec<Goldilocks> = challenger.challenges(s_rounds);
    challenger.observe_digest(proof.quotient_root);
    let zeta = challenger.challenge_ext();
    let omega = data.omega();
    let points = [zeta, zeta * Ext2::from(omega)];

    // ζ must avoid the trace domain so Z_H(ζ) is invertible.
    let zh_zeta = data.eval_zh(zeta);
    if zh_zeta == Ext2::ZERO {
        return Err(PlonkError::DegenerateChallenge);
    }

    // FRI checks the commitments and binds the claimed openings.
    let widths = data.batch_widths();
    fri_verify(
        &[
            data.constants.root(),
            proof.wires_root,
            proof.perm_root,
            proof.quotient_root,
        ],
        &widths,
        data.rows,
        &points,
        &proof.fri,
        &mut challenger,
        &data.config.fri,
    )?;

    // Recombine the constraint identity at ζ from the opened values.
    let w = data.config.num_wires;
    let num_chunks = data.config.num_chunks();
    let at_zeta = &proof.fri.openings[0];
    let at_zeta_omega = &proof.fri.openings[1];
    let consts = &at_zeta[0];
    let wires = &at_zeta[1];
    let perm = &at_zeta[2];
    let quotient = &at_zeta[3];
    let perm_next = &at_zeta_omega[2];

    let l1 = data.eval_l1(zeta);
    let zeta_pow_n = zeta.exp_u64(data.rows as u64);

    // PI(ζ) = Σ_i (−v_i)·L_{row_i}(ζ), with
    // L_r(ζ) = ω^r·(ζ^n − 1) / (n·(ζ − ω^r)).
    let n_elem = Ext2::from(Goldilocks::from_u64(data.rows as u64));
    let zh_over_n = zh_zeta * n_elem.inverse();
    let mut pi_at_zeta = Ext2::ZERO;
    for (&row, &v) in data.pi_rows.iter().zip(&proof.public_inputs) {
        let omega_r = Ext2::from(omega.exp_u64(row as u64));
        let denom = (zeta - omega_r)
            .try_inverse()
            .ok_or(PlonkError::DegenerateChallenge)?;
        pi_at_zeta += Ext2::from(-v) * omega_r * zh_over_n * denom;
    }

    let mut constraints = vec![Ext2::ZERO; data.config.num_constraints()];
    for s in 0..s_rounds {
        let base = s * num_chunks;
        let inputs = ConstraintInputs {
            selectors: [consts[0], consts[1], consts[2], consts[3], consts[4]],
            wires,
            sigmas: &consts[NUM_SELECTORS..NUM_SELECTORS + w],
            z: perm[base],
            z_next: perm_next[base],
            partials: &perm[base + 1..base + num_chunks],
            x: zeta,
            l1,
            pi: pi_at_zeta,
            beta: Ext2::from(betas[s]),
            gamma: Ext2::from(gammas[s]),
        };
        eval_constraints(&data.ks, &inputs, &mut constraints);
        let mut combined = Ext2::ZERO;
        let mut alpha_pow = Ext2::ONE;
        for &c in &constraints {
            combined += alpha_pow * c;
            alpha_pow *= Ext2::from(alphas[s]);
        }

        // t_s(ζ) from the chunk openings.
        let blowup = data.config.quotient_chunks_per_challenge();
        let mut t = Ext2::ZERO;
        let mut zeta_chunk_pow = Ext2::ONE;
        for m in 0..blowup {
            t += zeta_chunk_pow * quotient[s * blowup + m];
            zeta_chunk_pow *= zeta_pow_n;
        }

        if combined != zh_zeta * t {
            return Err(PlonkError::QuotientMismatch { challenge_round: s });
        }
    }

    Ok(())
}
