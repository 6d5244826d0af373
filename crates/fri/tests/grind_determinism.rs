//! Determinism wall for the proof-of-work grind.
//!
//! [`unizk_fri::grind`] searches nonces with two overshooting parallel
//! axes — packed Poseidon lanes within a block, worker threads across
//! blocks — yet the protocol pins the witness to the **smallest**
//! qualifying nonce and charges `poseidon.permutations` exactly
//! `winner + 1`. This suite checks that contract against a transparent
//! serial scan for transcripts whose winning nonce lands at the very
//! first candidate, inside the first lane group, deep inside one block,
//! and across block boundaries (several parallel waves), under every
//! thread count.
//!
//! Like `tests/thread_invariance.rs`, everything here sets the
//! process-global parallelism override and therefore serializes on one
//! lock, restoring the default before releasing it.

use std::sync::{Mutex, PoisonError};

use unizk_field::{set_parallelism, Field, Goldilocks};
use unizk_fri::{grind, pow_ok};
use unizk_hash::Challenger;
use unizk_testkit::trace;

static PARALLELISM: Mutex<()> = Mutex::new(());

struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        set_parallelism(0);
    }
}

/// What the verifier computes for a witness: observe it, squeeze once.
fn response(challenger: &Challenger, nonce: Goldilocks) -> Goldilocks {
    let mut transcript = challenger.clone();
    transcript.observe(nonce);
    transcript.challenge()
}

/// Transparent reference: scan nonces 0, 1, 2, … one plain transcript at
/// a time and return the first that passes.
fn serial_scan(challenger: &Challenger, bits: usize) -> u64 {
    (0u64..)
        .find(|&nonce| pow_ok(response(challenger, Goldilocks::from_u64(nonce)), bits))
        .expect("some nonce qualifies")
}

/// A challenger whose transcript is derived from `seed`.
fn seeded_challenger(seed: u64) -> Challenger {
    let mut challenger = Challenger::new();
    for i in 0..7 {
        challenger.observe(Goldilocks::from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i));
    }
    challenger
}

/// For each difficulty, find transcripts whose reference winner falls in
/// the wanted region, then require `grind` to reproduce both the winner
/// and the counter under every thread count.
#[test]
fn grind_matches_serial_scan_under_every_knob() {
    let _lock = PARALLELISM.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore;

    // (difficulty bits, predicate the reference winner must satisfy,
    //  descriptive region). Regions chosen to cover: an instant hit
    //  (winner 0, "many qualifying nonces" in every block), a hit inside
    //  the first lane group, a hit deep inside the first 512-nonce block,
    //  and a hit past the first block (so several parallel waves run and
    //  early blocks find *no* qualifying nonce).
    type Region = (usize, fn(u64) -> bool, &'static str);
    let regions: [Region; 4] = [
        (0, |w| w == 0, "every nonce qualifies"),
        (2, |w| (1..8).contains(&w), "inside the first lane group"),
        (7, |w| (8..512).contains(&w), "inside the first block"),
        (11, |w| w >= 512, "past the first block"),
    ];

    for (bits, in_region, desc) in regions {
        // Deterministically hunt for a transcript in the region.
        let (seed, want) = (0u64..200)
            .find_map(|seed| {
                let winner = serial_scan(&seeded_challenger(seed), bits);
                in_region(winner).then_some((seed, winner))
            })
            .unwrap_or_else(|| panic!("no transcript found with a winner {desc}"));

        for threads in [1usize, 2, 3, 0] {
            set_parallelism(threads);
            trace::reset();
            let witness = grind(&seeded_challenger(seed), bits);
            assert_eq!(witness.as_u64(), want, "witness drift ({desc}) at threads={threads}");
            assert_eq!(
                trace::snapshot().counters,
                vec![("poseidon.permutations".to_string(), want + 1)],
                "counter drift ({desc}) at threads={threads}"
            );
        }
    }
}

/// The witness the grind returns must itself satisfy the condition it was
/// mined for — and difficulty 0 must accept nonce zero immediately.
#[test]
fn grind_witness_is_valid() {
    let _lock = PARALLELISM.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore;
    set_parallelism(1);

    for bits in [0usize, 3, 9] {
        let challenger = seeded_challenger(0xBEEF);
        let witness = grind(&challenger, bits);
        assert!(pow_ok(response(&challenger, witness), bits), "witness fails its own check at bits={bits}");
    }
    let zero = grind(&seeded_challenger(1), 0);
    assert_eq!(zero.as_u64(), 0, "difficulty 0 must accept the first nonce");
}
