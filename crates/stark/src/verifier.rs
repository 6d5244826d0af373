//! The Stark verifier.

use core::fmt;

use unizk_field::{log2_strict, Field, ProtocolField};
use unizk_fri::{fri_verify, FriError};
use unizk_hash::sponge::HashField;
use unizk_hash::{GenericChallenger, SpongeBackend};

use crate::air::Air;
use crate::config::StarkConfig;
use crate::proof::StarkProof;

/// Stark proving/verification failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StarkError {
    /// The trace does not satisfy the AIR (prover-side degree check).
    UnsatisfiedConstraints,
    /// Proof shape mismatch.
    Malformed(&'static str),
    /// The constraint identity failed at `ζ`.
    QuotientMismatch { challenge_round: usize },
    /// FRI rejected the openings.
    Fri(FriError),
    /// The configuration failed the static P-rule checker
    /// (`unizk_core::analyze::check_params`); the payload is the rendered
    /// diagnostic list. The prover refuses to run at all — an unsound
    /// proof is worse than no proof.
    InsecureParameters(String),
}

impl fmt::Display for StarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsatisfiedConstraints => write!(f, "trace does not satisfy the constraints"),
            Self::Malformed(what) => write!(f, "malformed proof: {what}"),
            Self::QuotientMismatch { challenge_round } => {
                write!(f, "quotient identity failed in round {challenge_round}")
            }
            Self::Fri(e) => write!(f, "fri: {e}"),
            Self::InsecureParameters(diags) => {
                write!(f, "insecure protocol parameters:\n{diags}")
            }
        }
    }
}

impl std::error::Error for StarkError {}

impl From<FriError> for StarkError {
    fn from(e: FriError) -> Self {
        Self::Fri(e)
    }
}

/// Verifies a Stark proof against its AIR.
///
/// # Errors
///
/// Returns [`StarkError`] describing the first failed check.
pub fn verify<F, H, A>(
    air: &A,
    proof: &StarkProof<F>,
    config: &StarkConfig<F, H>,
) -> Result<(), StarkError>
where
    F: HashField,
    H: SpongeBackend<F = F>,
    A: Air<F>,
{
    type E<F> = <F as ProtocolField>::Ext;
    let n = proof.rows;
    if n != air.rows() || !n.is_power_of_two() {
        return Err(StarkError::Malformed("row count mismatch"));
    }
    let mut challenger = GenericChallenger::<H>::new();
    challenger.observe_digest(proof.trace_root);
    let alphas: Vec<F> = challenger.challenges(config.num_challenges);
    challenger.observe_digest(proof.quotient_root);
    let zeta = challenger.challenge_ext();
    let omega = F::primitive_root_of_unity(log2_strict(n));
    let points = [zeta, zeta * E::<F>::from(omega)];

    fri_verify(
        &[proof.trace_root, proof.quotient_root],
        &[air.width(), config.num_challenges],
        n,
        &points,
        &proof.fri,
        &mut challenger,
        &config.fri,
    )?;

    // Recombine the identity at ζ.
    let local = &proof.fri.openings[0][0];
    let next = &proof.fri.openings[1][0];
    let quotient_at_zeta = &proof.fri.openings[0][1];
    if local.len() != air.width() || quotient_at_zeta.len() != config.num_challenges {
        return Err(StarkError::Malformed("opening widths"));
    }

    let zh = zeta.exp_u64(n as u64) - E::<F>::ONE;
    let zh_inv = zh
        .try_inverse()
        .ok_or(StarkError::Malformed("zeta on domain"))?;
    let last = omega.exp_u64((n - 1) as u64);
    let trans_factor = (zeta - E::<F>::from(last)) * zh_inv;
    let mut transitions = vec![E::<F>::ZERO; air.num_transition_constraints()];
    air.eval_transition(local, next, &mut transitions);
    // (local[col] − value) / (ζ − ω^row) per boundary, shared by all rounds.
    let mut boundary_terms = Vec::new();
    for b in air.boundaries() {
        let denom = zeta - E::<F>::from(omega.exp_u64(b.row as u64));
        let inv = denom
            .try_inverse()
            .ok_or(StarkError::Malformed("zeta hits a boundary row"))?;
        boundary_terms.push((local[b.col] - E::<F>::from(b.value)) * inv);
    }

    for (s, alpha) in alphas.iter().enumerate() {
        let alpha_e = E::<F>::from(*alpha);
        let mut acc = E::<F>::ZERO;
        let mut alpha_pow = E::<F>::ONE;
        for &c in &transitions {
            acc += alpha_pow * c * trans_factor;
            alpha_pow *= alpha_e;
        }
        for &term in &boundary_terms {
            acc += alpha_pow * term;
            alpha_pow *= alpha_e;
        }
        if acc != quotient_at_zeta[s] {
            return Err(StarkError::QuotientMismatch { challenge_round: s });
        }
    }
    Ok(())
}
