//! The FRI verifier, in four phases:
//!
//! 1. **Shape.** Every count, leaf width and path length of the proof is
//!    compared with the instance ([`FriError::Malformed`]) before the first
//!    permutation, so a malformed proof costs nothing wherever the fault
//!    sits, and the later phases index without checking. The leaf widths
//!    are what makes the trees binding: a tree tells leaves of one width
//!    apart, not `[a]` from `[a, 0]`
//!    ([`unizk_hash::merkle::leaf_digests_with`]).
//! 2. **Transcript** (`fri.verify.transcript`). Replay the prover's
//!    observations, check the grind, and draw all `num_queries` indices —
//!    nothing is observed between two draws, so drawing them together
//!    leaves the transcript as drawing them query by query did.
//! 3. **Merkle** (`fri.verify.merkle`). One
//!    [`GenericMerkleTree::verify_many`] over every committed batch and
//!    every fold round, with the heights the verifier derives from the
//!    instance (`index_bits`, then `index_bits - 1 - round`). The queries'
//!    paths meet below the root — on the Starky contract shape 59 % of the
//!    9 156 nodes on them are on an earlier query's path too — and the walk
//!    hashes each distinct node of a tree once (EXPERIMENTS.md, "Verifier:
//!    each node once"). The trees climb together, aligned at their leaves,
//!    so each step is one batched dispatch over all of them, hundreds of
//!    inputs at the lower levels where one tree alone gives a few dozen
//!    (EXPERIMENTS.md, "One walk per proof"). Fold leaves are borrowed as
//!    their pairs' two extension elements. Under more than one thread the
//!    trees are dealt into one group per worker; verdicts are read in tree
//!    order, so a failure names the first failing query of the first
//!    failing tree at every thread count.
//! 4. **Fold** (`fri.verify.fold`). Per query, the combined opening and the
//!    fold chain down to the final polynomial: field arithmetic only.
//!
//! `scripts/ci.sh` fails if this file goes back to checking one path, or
//! one tree, at a time.

use core::fmt;

use unizk_field::{log2_strict, ExtensionOf, Field, Polynomial, ProtocolField};
use unizk_hash::{Digest, GenericChallenger, GenericMerkleTree, SpongeBackend, TreeOpenings};
use unizk_testkit::trace;

use crate::config::FriConfig;
use crate::domain::domain_point;
use crate::proof::FriProof;
use crate::prover::{fold_pair, pow_ok, OpeningQuotient};

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
/// Returns a [`FriError`] describing the first check that failed, phases
/// in the order of the module documentation.
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
    let _verify_span = trace::span("fri.verify");
    let lde_size = degree << config.rate_bits;
    let index_bits = log2_strict(lde_size);
    let num_rounds = config.num_reduction_rounds(degree);
    check_shape(batch_roots, batch_num_polys, points.len(), index_bits, num_rounds, proof, config)?;

    let transcript_span = trace::span("fri.verify.transcript");
    for &y in proof.openings.iter().flatten().flatten() {
        challenger.observe_ext(y);
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
    // Nothing is observed between two index draws, so drawing them all here
    // leaves the transcript as the query-by-query order did.
    let indices: Vec<usize> = proof
        .queries
        .iter()
        .map(|_| challenger.challenge_bits(index_bits))
        .collect();
    drop(transcript_span);

    // One walk over every tree, each distinct node of a tree hashed once;
    // verdicts come back in tree order, batches first.
    let merkle_span = trace::span("fri.verify.merkle");
    let batches = batch_roots.iter().enumerate().map(|(batch, &root)| {
        let openings = proof.queries.iter().zip(&indices).map(|(query, &idx)| {
            let opening = &query.initial[batch];
            (idx, [&opening.leaf[..], &[]], &opening.proof)
        });
        (root, index_bits, openings.collect())
    });
    let folds = proof.commit_roots.iter().enumerate().map(|(round, &root)| {
        let openings = proof.queries.iter().zip(&indices).map(|(query, &idx)| {
            let fold = &query.folds[round];
            let leaf = [fold.pair[0].as_base_slice(), fold.pair[1].as_base_slice()];
            (idx >> (round + 1), leaf, &fold.proof)
        });
        (root, index_bits - 1 - round, openings.collect())
    });
    let trees: Vec<TreeOpenings<'_, B::F>> = batches.chain(folds).collect();
    let verdicts = GenericMerkleTree::<B>::verify_many(&trees);
    let failed = verdicts.iter().enumerate().find_map(|(tree, v)| Some(tree).zip(v.err()));
    if let Some((tree, query)) = failed {
        let what = if tree < batch_roots.len() { "initial batch" } else { "fold layer" };
        return Err(FriError::BadMerkleProof { query, what });
    }
    drop(merkle_span);

    let _fold_span = trace::span("fri.verify.fold");
    // Precompute Y_t = Σ_j α^j y_{j,t}.
    let mut y_combined = vec![E::<B>::ZERO; points.len()];
    for (t, per_point) in proof.openings.iter().enumerate() {
        let mut alpha_pow = E::<B>::ONE;
        for &y in per_point.iter().flatten() {
            y_combined[t] += alpha_pow * y;
            alpha_pow *= alpha;
        }
    }

    let quotient = OpeningQuotient::<B::F>::new(points, &y_combined, beta);
    let final_poly = Polynomial::from_coeffs(proof.final_poly.clone());
    let two_inv = B::F::TWO.inverse();

    for (qi, (query, &index)) in proof.queries.iter().zip(&indices).enumerate() {
        let mut idx = index;
        // Recompute S(x_idx). The query point is derived once; each fold
        // round squares it (and its inverse).
        let mut x = domain_point::<B::F>(lde_size, idx);
        let mut x_inv = x.inverse();
        let mut s_value = E::<B>::ZERO;
        let mut alpha_pow = E::<B>::ONE;
        for opening in &query.initial {
            for &v in &opening.leaf {
                s_value += alpha_pow.scale(v);
                alpha_pow *= alpha;
            }
        }

        // Combined witness value at x; D(x) = Π_t (x − z_t) is zero exactly
        // when an opening point lies on the domain.
        let (numerator, denominator) = quotient.at(x, s_value);
        let inv = denominator
            .try_inverse()
            .ok_or(FriError::Malformed("opening point lies on the domain"))?;
        let mut value = numerator * inv;

        // Fold rounds.
        for (round, fold) in query.folds.iter().enumerate() {
            if fold.pair[idx & 1] != value {
                return Err(FriError::FoldMismatch { query: qi, round });
            }
            // The pair sits at (x, −x) with x the even position's point.
            let pair_x_inv = if idx & 1 == 0 { x_inv } else { -x_inv };
            value = fold_pair::<B::F>(fold.pair, pair_x_inv, two_inv, fold_betas[round]);
            idx >>= 1;
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

/// Every count, width and path length of `proof` against the instance, so
/// that a malformed proof is refused before the first permutation and the
/// later phases index without checking.
fn check_shape<F: ProtocolField>(
    batch_roots: &[Digest<F>],
    batch_num_polys: &[usize],
    num_points: usize,
    index_bits: usize,
    num_rounds: usize,
    proof: &FriProof<F>,
    config: &FriConfig,
) -> Result<(), FriError> {
    let refuse_unless = |ok: bool, what| if ok { Ok(()) } else { Err(FriError::Malformed(what)) };
    refuse_unless(batch_roots.len() == batch_num_polys.len(), "batch descriptor length mismatch")?;
    refuse_unless(num_points > 0, "no opening points")?;
    refuse_unless(proof.openings.len() == num_points, "openings/points mismatch")?;
    refuse_unless(proof.commit_roots.len() == num_rounds, "wrong number of fold commitments")?;
    refuse_unless(proof.final_poly.len() == config.final_poly_len, "wrong final polynomial length")?;
    refuse_unless(proof.queries.len() == config.num_queries, "wrong number of queries")?;
    for per_point in &proof.openings {
        refuse_unless(per_point.len() == batch_roots.len(), "openings/batches mismatch")?;
        for (per_batch, &num_polys) in per_point.iter().zip(batch_num_polys) {
            refuse_unless(per_batch.len() == num_polys, "openings/polys mismatch")?;
        }
    }
    for query in &proof.queries {
        refuse_unless(query.initial.len() == batch_roots.len(), "query initial openings mismatch")?;
        refuse_unless(query.folds.len() == num_rounds, "query fold openings mismatch")?;
        for (opening, &num_polys) in query.initial.iter().zip(batch_num_polys) {
            refuse_unless(opening.leaf.len() == num_polys, "query leaf width mismatch")?;
            refuse_unless(opening.proof.siblings.len() == index_bits, "initial path length mismatch")?;
        }
        for (round, fold) in query.folds.iter().enumerate() {
            refuse_unless(
                fold.proof.siblings.len() + 1 + round == index_bits,
                "fold path length mismatch",
            )?;
        }
    }
    Ok(())
}
