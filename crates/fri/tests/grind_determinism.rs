//! Determinism wall for the proof-of-work grind.
//!
//! [`unizk_fri::grind`] searches nonces with two overshooting parallel
//! axes — lockstep lanes within a block (eight Poseidon states, sixteen
//! Poseidon2-KoalaBear states per walk), worker threads across blocks — yet
//! the protocol pins the witness to the **smallest** qualifying nonce and
//! charges the backend's permutation counter exactly `winner + 1`. This
//! suite checks that contract on both backends against a transparent serial
//! scan for transcripts whose winning nonce lands at the very first
//! candidate, in the first, a middle and the last lane of a 16-candidate
//! dispatch, deep inside one block, in the second block of a wave and past
//! it, under every thread count.
//!
//! Like `tests/thread_invariance.rs`, everything here sets the
//! process-global parallelism override and therefore serializes on one
//! lock, restoring the default before releasing it.

use std::sync::{Mutex, PoisonError};

use unizk_field::{set_parallelism, Field};
use unizk_fri::{grind, pow_ok};
use unizk_hash::{GenericChallenger, Poseidon2KbSponge, PoseidonSponge, SpongeBackend};
use unizk_testkit::trace;

static PARALLELISM: Mutex<()> = Mutex::new(());

struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        set_parallelism(0);
    }
}

/// What the verifier computes for a witness: observe it, squeeze once.
fn response<B: SpongeBackend + Clone>(challenger: &GenericChallenger<B>, nonce: B::F) -> B::F {
    let mut transcript = challenger.clone();
    transcript.observe(nonce);
    transcript.challenge()
}

/// Transparent reference: scan nonces 0, 1, 2, … one plain transcript at
/// a time and return the first that passes.
fn serial_scan<B: SpongeBackend + Clone>(challenger: &GenericChallenger<B>, bits: usize) -> u64 {
    (0u64..)
        .find(|&nonce| pow_ok(response(challenger, B::F::from_u64(nonce)), bits))
        .expect("some nonce qualifies")
}

/// A challenger whose transcript is derived from `seed`.
fn seeded_challenger<B: SpongeBackend>(seed: u64) -> GenericChallenger<B> {
    let mut challenger = GenericChallenger::<B>::new();
    for i in 0..7 {
        challenger.observe(B::F::from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i));
    }
    challenger
}

/// For each difficulty, find transcripts whose reference winner falls in
/// the wanted region, then require `grind` to reproduce both the winner
/// and the counter under every thread count.
fn grind_matches_serial_scan<B: SpongeBackend + Clone>() {
    let _lock = PARALLELISM.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore;

    // (difficulty bits, predicate the reference winner must satisfy,
    //  descriptive region). Regions chosen to cover: an instant hit
    //  (winner 0, "many qualifying nonces" in every dispatch, where a scan
    //  that returned the first lane *found* instead of the lowest would
    //  differ), a hit in the first, a middle and the last lane of a
    //  16-candidate dispatch (the first and last lanes of a vector group,
    //  and the seam between two 8-lane groups), a hit deep inside the first
    //  512-nonce block, a hit in the second block (found by the second
    //  worker of a two-thread wave while the first finds nothing) and one
    //  past it (several waves).
    type Region = (usize, fn(u64) -> bool, &'static str);
    let regions: [Region; 8] = [
        (0, |w| w == 0, "every nonce qualifies"),
        (2, |w| (1..8).contains(&w), "inside the first lane group"),
        (5, |w| w >= 16 && w % 16 == 0, "first lane of a 16-candidate dispatch"),
        (5, |w| w % 16 == 15, "last lane of a 16-candidate dispatch"),
        (5, |w| w >= 16 && (7..=8).contains(&(w % 16)), "a middle lane of a 16-candidate dispatch"),
        (7, |w| (8..512).contains(&w), "inside the first block"),
        (10, |w| (512..1024).contains(&w), "in the second block of a wave"),
        (11, |w| w >= 1024, "past the first wave"),
    ];

    for (bits, in_region, desc) in regions {
        // Deterministically hunt for a transcript in the region.
        let (seed, want) = (0u64..400)
            .find_map(|seed| {
                let winner = serial_scan(&seeded_challenger::<B>(seed), bits);
                in_region(winner).then_some((seed, winner))
            })
            .unwrap_or_else(|| panic!("{}: no transcript found with a winner {desc}", B::NAME));

        for threads in [1usize, 2, 3, 0] {
            set_parallelism(threads);
            trace::reset();
            let witness = grind(&seeded_challenger::<B>(seed), bits);
            assert_eq!(witness.as_u64(), want, "{}: witness drift ({desc}) at threads={threads}", B::NAME);
            assert_eq!(
                trace::snapshot().counters,
                vec![(B::COUNTER.to_string(), want + 1)],
                "{}: counter drift ({desc}) at threads={threads}",
                B::NAME
            );
        }
    }
}

#[test]
fn grind_matches_serial_scan_under_every_knob() {
    grind_matches_serial_scan::<PoseidonSponge>();
}

#[test]
fn koalabear_grind_matches_serial_scan_under_every_knob() {
    grind_matches_serial_scan::<Poseidon2KbSponge>();
}

/// The witness the grind returns must itself satisfy the condition it was
/// mined for — and difficulty 0 must accept nonce zero immediately.
fn grind_witness_is_valid_for<B: SpongeBackend + Clone>() {
    let _lock = PARALLELISM.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore;
    set_parallelism(1);

    for bits in [0usize, 3, 9] {
        let challenger = seeded_challenger::<B>(0xBEEF);
        let witness = grind(&challenger, bits);
        assert!(
            pow_ok(response(&challenger, witness), bits),
            "{}: witness fails its own check at bits={bits}",
            B::NAME
        );
    }
    let zero = grind(&seeded_challenger::<B>(1), 0);
    assert_eq!(zero.as_u64(), 0, "{}: difficulty 0 must accept the first nonce", B::NAME);
}

#[test]
fn grind_witness_is_valid() {
    grind_witness_is_valid_for::<PoseidonSponge>();
    grind_witness_is_valid_for::<Poseidon2KbSponge>();
}
