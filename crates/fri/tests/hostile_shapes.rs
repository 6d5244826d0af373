//! A malformed proof costs the verifier nothing: every count, leaf width
//! and path length is compared with the instance before the first
//! permutation, wherever in the proof the fault sits.
//!
//! The verifier used to meet shape errors query by query, between hashes —
//! a proof malformed in its *last* query bought a full verification before
//! it was refused — and never compared a path's length with the height of
//! the tree it knows. Since a leaf of at most four elements is its own
//! digest the leaf-width check carries weight: `[a, b, c]` and
//! `[a, b, c, 0]` open a tree alike (`tests/hostile_leaf_widths.rs` has the
//! Stark and Plonk cases). Each case here damages the last query only and reads
//! the permutation counter, so the tests serialise on one lock (the trace
//! store is per process) and live in a file of their own.

use std::sync::Mutex;

use unizk_field::{set_parallelism, Field, Polynomial};
use unizk_fri::{fri_prove, fri_verify, FriConfig, FriError, FriProof, GenericPolynomialBatch};
use unizk_hash::{Digest, GenericChallenger, Poseidon2KbSponge, PoseidonSponge, SpongeBackend};
use unizk_testkit::trace;

static TRACE_STORE: Mutex<()> = Mutex::new(());

const DEGREE: usize = 32;

/// Proves one small instance, lets `damage` at the proof, and returns the
/// verifier's answer with the permutations it spent on it — the same at one
/// thread and at two.
fn verdict<B: SpongeBackend>(damage: impl FnOnce(&mut FriProof<B::F>)) -> (Result<(), FriError>, u64) {
    let _serial = TRACE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    let config = FriConfig::for_testing();
    let polys = (0..3u64)
        .map(|p| Polynomial::from_coeffs((0..DEGREE as u64).map(|i| B::F::from_u64(7 * p + i)).collect()))
        .collect();
    let batch = GenericPolynomialBatch::<B>::from_coeffs(polys, &config);
    let point = [B::F::from_u64(12_345).into()];
    let transcript = || {
        let mut challenger = GenericChallenger::<B>::new();
        challenger.observe_digest(batch.root());
        challenger
    };
    let mut proof = fri_prove(&[&batch], &point, &mut transcript(), &config);
    damage(&mut proof);

    let [one, two] = [1, 2].map(|threads| {
        set_parallelism(threads);
        trace::reset();
        let answer = fri_verify(
            &[batch.root()],
            &[batch.num_polys()],
            DEGREE,
            &point,
            &proof,
            &mut transcript(),
            &config,
        );
        set_parallelism(0);
        (answer, trace::snapshot().counter(B::COUNTER))
    });
    assert_eq!(one, two, "one thread, then two");
    one
}

fn refused_for_free<B: SpongeBackend>(why: &'static str, damage: impl FnOnce(&mut FriProof<B::F>)) {
    assert_eq!(verdict::<B>(damage), (Err(FriError::Malformed(why)), 0), "{why}");
}

fn malformed_last_query_costs_no_permutation<B: SpongeBackend>() {
    let (honest, spent) = verdict::<B>(|_| {});
    assert_eq!(honest, Ok(()));
    assert!(spent > 0, "the honest proof is hashed");

    refused_for_free::<B>("query fold openings mismatch", |p| {
        p.queries.last_mut().expect("queries").folds.pop();
    });
    refused_for_free::<B>("query initial openings mismatch", |p| {
        p.queries.last_mut().expect("queries").initial.clear();
    });
    refused_for_free::<B>("query leaf width mismatch", |p| {
        p.queries.last_mut().expect("queries").initial[0].leaf.push(B::F::ZERO);
    });
    // The three-element leaves of this batch are their own digests, elements
    // then zeros, and a trailing zero does not move such a digest: the tree
    // would open for the padded leaves of a proof padded in every query. The
    // width is compared with the instance first, so the tree is never asked.
    refused_for_free::<B>("query leaf width mismatch", |p| {
        for query in &mut p.queries {
            query.initial[0].leaf.push(B::F::ZERO);
        }
    });
    refused_for_free::<B>("query leaf width mismatch", |p| {
        for query in &mut p.queries {
            query.initial[0].leaf.pop();
        }
    });
}

fn path_lengths_are_the_tree_heights<B: SpongeBackend>() {
    // 2^8 positions: the batch tree is 8 levels high, fold tree `r` 7 - r.
    for longer in [false, true] {
        let resize = move |siblings: &mut Vec<Digest<B::F>>| {
            if longer {
                siblings.push(Digest::ZERO);
            } else {
                siblings.pop();
            }
        };
        refused_for_free::<B>("initial path length mismatch", |p| {
            resize(&mut p.queries.last_mut().expect("queries").initial[0].proof.siblings);
        });
        for round in 0..3 {
            refused_for_free::<B>("fold path length mismatch", |p| {
                resize(&mut p.queries.last_mut().expect("queries").folds[round].proof.siblings);
            });
        }
    }
    // A whole proof for a domain twice the size: consistent with itself,
    // not with the instance.
    refused_for_free::<B>("initial path length mismatch", |p| {
        for query in &mut p.queries {
            query.initial[0].proof.siblings.push(Digest::ZERO);
            for fold in &mut query.folds {
                fold.proof.siblings.push(Digest::ZERO);
            }
        }
    });
}

#[test]
fn goldilocks_malformed_last_query_costs_no_permutation() {
    malformed_last_query_costs_no_permutation::<PoseidonSponge>();
}

#[test]
fn koalabear_malformed_last_query_costs_no_permutation() {
    malformed_last_query_costs_no_permutation::<Poseidon2KbSponge>();
}

#[test]
fn goldilocks_path_lengths_are_the_tree_heights() {
    path_lengths_are_the_tree_heights::<PoseidonSponge>();
}

#[test]
fn koalabear_path_lengths_are_the_tree_heights() {
    path_lengths_are_the_tree_heights::<Poseidon2KbSponge>();
}
