//! The FRI verifier: transcript replay, grinding check, and per-query
//! Merkle/fold consistency checks.

use core::fmt;

use unizk_field::{log2_strict, ExtensionOf, Field, Polynomial, ProtocolField};
use unizk_hash::{Digest, GenericChallenger, GenericMerkleTree, SpongeBackend};

use crate::config::FriConfig;
use crate::domain::domain_point;
use crate::proof::FriProof;
use crate::prover::{fold_pair, pow_ok};

/// Reasons a FRI proof can be rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FriError {
    /// Proof shape does not match the instance (counts, lengths).
    Malformed(&'static str),
    /// The grinding witness does not satisfy the proof-of-work condition.
    InvalidPow,
    /// A Merkle authentication path failed.
    BadMerkleProof { query: usize, what: &'static str },
    /// A fold step was inconsistent with the committed next layer.
    FoldMismatch { query: usize, round: usize },
    /// The last fold does not match the final polynomial.
    FinalPolyMismatch { query: usize },
}

impl fmt::Display for FriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Malformed(what) => write!(f, "malformed proof: {what}"),
            Self::InvalidPow => write!(f, "proof-of-work witness rejected"),
            Self::BadMerkleProof { query, what } => {
                write!(f, "bad merkle proof in query {query}: {what}")
            }
            Self::FoldMismatch { query, round } => {
                write!(f, "fold inconsistency in query {query}, round {round}")
            }
            Self::FinalPolyMismatch { query } => {
                write!(f, "final polynomial mismatch in query {query}")
            }
        }
    }
}

impl std::error::Error for FriError {}

/// Verifies a FRI opening proof.
///
/// `batch_roots` and `batch_num_polys` describe the committed batches (the
/// enclosing protocol has already checked/observed the roots), `degree` is
/// the common degree bound `N`, and `points` the out-of-domain opening
/// points. The `challenger` must be in the same state the prover's was when
/// [`crate::fri_prove`] was called.
///
/// # Errors
///
/// Returns a [`FriError`] describing the first check that failed.
pub fn fri_verify<B: SpongeBackend>(
    batch_roots: &[Digest<B::F>],
    batch_num_polys: &[usize],
    degree: usize,
    points: &[<B::F as ProtocolField>::Ext],
    proof: &FriProof<B::F>,
    challenger: &mut GenericChallenger<B>,
    config: &FriConfig,
) -> Result<(), FriError> {
    type E<B> = <<B as SpongeBackend>::F as ProtocolField>::Ext;
    if batch_roots.len() != batch_num_polys.len() {
        return Err(FriError::Malformed("batch descriptor length mismatch"));
    }
    if proof.openings.len() != points.len() {
        return Err(FriError::Malformed("openings/points mismatch"));
    }
    let lde_size = degree << config.rate_bits;
    let num_rounds = config.num_reduction_rounds(degree);
    if proof.commit_roots.len() != num_rounds {
        return Err(FriError::Malformed("wrong number of fold commitments"));
    }
    if proof.final_poly.len() != config.final_poly_len {
        return Err(FriError::Malformed("wrong final polynomial length"));
    }
    if proof.queries.len() != config.num_queries {
        return Err(FriError::Malformed("wrong number of queries"));
    }

    // Replay the transcript.
    for (t, per_point) in proof.openings.iter().enumerate() {
        if per_point.len() != batch_roots.len() {
            return Err(FriError::Malformed("openings/batches mismatch"));
        }
        for (b, per_batch) in per_point.iter().enumerate() {
            if per_batch.len() != batch_num_polys[b] {
                return Err(FriError::Malformed("openings/polys mismatch"));
            }
            let _ = t;
            for &y in per_batch {
                challenger.observe_ext(y);
            }
        }
    }
    let alpha = challenger.challenge_ext();
    let beta = challenger.challenge_ext();

    let mut fold_betas = Vec::with_capacity(num_rounds);
    for &root in &proof.commit_roots {
        challenger.observe_digest(root);
        fold_betas.push(challenger.challenge_ext());
    }

    for &c in &proof.final_poly {
        challenger.observe_ext(c);
    }

    challenger.observe(proof.pow_witness);
    if !pow_ok(challenger.challenge(), config.proof_of_work_bits) {
        return Err(FriError::InvalidPow);
    }

    // Precompute Y_t = Σ_j α^j y_{j,t}.
    let mut y_combined = vec![E::<B>::ZERO; points.len()];
    for (t, per_point) in proof.openings.iter().enumerate() {
        let mut alpha_pow = E::<B>::ONE;
        for per_batch in per_point {
            for &y in per_batch {
                y_combined[t] += alpha_pow * y;
                alpha_pow *= alpha;
            }
        }
    }

    let final_poly = Polynomial::from_coeffs(proof.final_poly.clone());
    let index_bits = log2_strict(lde_size);
    let two_inv = B::F::TWO.inverse();

    for (qi, query) in proof.queries.iter().enumerate() {
        let mut idx = challenger.challenge_bits(index_bits);
        if query.initial.len() != batch_roots.len() {
            return Err(FriError::Malformed("query initial openings mismatch"));
        }
        if query.folds.len() != num_rounds {
            return Err(FriError::Malformed("query fold openings mismatch"));
        }

        // Check batch openings and recompute S(x_idx). The query point is
        // derived once; each fold round squares it (and its inverse).
        let mut x = domain_point::<B::F>(lde_size, idx);
        let mut x_inv = x.inverse();
        let mut s_value = E::<B>::ZERO;
        let mut alpha_pow = E::<B>::ONE;
        for (b, opening) in query.initial.iter().enumerate() {
            if opening.leaf.len() != batch_num_polys[b] {
                return Err(FriError::Malformed("query leaf width mismatch"));
            }
            if !GenericMerkleTree::<B>::verify(batch_roots[b], idx, &opening.leaf, &opening.proof) {
                return Err(FriError::BadMerkleProof {
                    query: qi,
                    what: "initial batch",
                });
            }
            for &v in &opening.leaf {
                s_value += alpha_pow.scale(v);
                alpha_pow *= alpha;
            }
        }

        // Combined witness value at x.
        let mut value = E::<B>::ZERO;
        let mut beta_pow = E::<B>::ONE;
        for (t, &z) in points.iter().enumerate() {
            let denom = E::<B>::from(x) - z;
            let inv = denom
                .try_inverse()
                .ok_or(FriError::Malformed("opening point lies on the domain"))?;
            value += beta_pow * (s_value - y_combined[t]) * inv;
            beta_pow *= beta;
        }

        // Fold rounds.
        for (round, fold) in query.folds.iter().enumerate() {
            let pair_index = idx >> 1;
            let mut leaf = fold.pair[0].to_base_slice();
            leaf.extend(fold.pair[1].to_base_slice());
            if !GenericMerkleTree::<B>::verify(proof.commit_roots[round], pair_index, &leaf, &fold.proof) {
                return Err(FriError::BadMerkleProof {
                    query: qi,
                    what: "fold layer",
                });
            }
            if fold.pair[idx & 1] != value {
                return Err(FriError::FoldMismatch { query: qi, round });
            }
            // The pair sits at (x, −x) with x the even position's point.
            let pair_x_inv = if idx & 1 == 0 { x_inv } else { -x_inv };
            value = fold_pair::<B::F>(fold.pair, pair_x_inv, two_inv, fold_betas[round]);
            idx = pair_index;
            x = x.square();
            x_inv = x_inv.square();
        }

        // Final check against the in-the-clear polynomial.
        if final_poly.eval(E::<B>::from(x)) != value {
            return Err(FriError::FinalPolyMismatch { query: qi });
        }
    }

    Ok(())
}
