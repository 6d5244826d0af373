//! Differential wall, from outside the crate: every lane width and every
//! batched dispatcher against the KAT-pinned public entry.
//!
//! The lane count is an *execution strategy*, not a different hash: every
//! width (1, 2, 4, 8, and 32 for the grind kernel), partial final lane
//! groups, and every absorb length
//! 0..=24 must produce results bit-identical to `poseidon_permute` — the
//! one-lane case of the same kernels, which `poseidon_kat.rs` pins to
//! golden vectors. (Inside the crate, the unit tests of `packed` hold
//! every width to the dense oracle.) The kernels stay const-generic so
//! this suite can instantiate the widths directly, with no process-global
//! state to guard.

use unizk_testkit::prop::prelude::*;

use unizk_field::{Field, Goldilocks};
use unizk_hash::packed::permute_batch;
use unizk_hash::sponge::{compress_level_with, hash_many, hash_no_pad, two_to_one};
use unizk_hash::{
    poseidon_permute, Challenger, Digest, NoncePermutation, PackedPermutation, PoseidonSponge,
    SpongeBackend, SPONGE_RATE, WIDTH,
};

fn arb_elem() -> impl Strategy<Value = Goldilocks> {
    any::<u64>().prop_map(Goldilocks::from_u64)
}

fn arb_state() -> impl Strategy<Value = [Goldilocks; WIDTH]> {
    prop::collection::vec(arb_elem(), WIDTH)
        .prop_map(|v| std::array::from_fn(|i| v[i]))
}

/// Scalar reference for a batch: one `poseidon_permute` per state.
fn scalar_batch(states: &[[Goldilocks; WIDTH]]) -> Vec<[Goldilocks; WIDTH]> {
    let mut out = states.to_vec();
    for s in out.iter_mut() {
        poseidon_permute(s);
    }
    out
}

fn check_packed_width<const L: usize>(pool: &[[Goldilocks; WIDTH]]) {
    let mut lanes: [[Goldilocks; WIDTH]; L] = std::array::from_fn(|i| pool[i]);
    PackedPermutation::<L>::permute(&mut lanes);
    let want = scalar_batch(&pool[..L]);
    for (l, st) in lanes.iter().enumerate() {
        assert_eq!(*st, want[l], "lane {l} of {L} diverged from scalar");
    }
}

/// The hoisted nonce permutation at width `L`, through its own entry and
/// through the backend trait, against the full permutation of the state
/// with each nonce written into the lane.
fn check_nonce_width<const L: usize>(base: &[Goldilocks; WIDTH], lane: usize, nonces: &[Goldilocks]) {
    let hoisted = NoncePermutation::new(base, lane);
    let xs: [Goldilocks; L] = std::array::from_fn(|i| nonces[i]);
    let want = xs.map(|x| {
        let mut full = *base;
        full[lane] = x;
        poseidon_permute(&mut full);
        full[SPONGE_RATE - 1]
    });
    assert_eq!(hoisted.permute_many_row::<L>(&xs, SPONGE_RATE - 1), want, "row kernel at {L} lanes");
    let mut got = [Goldilocks::ZERO; L];
    PoseidonSponge::speculative_rows(&hoisted, &xs, &mut got);
    assert_eq!(got, want, "backend at {L} candidates");
}

prop! {
    #![cases(16)]

    /// Every lane of every packed width equals the scalar permutation of
    /// that lane's input.
    fn packed_permutation_matches_scalar(
        pool in prop::collection::vec(arb_state(), 8),
    ) {
        check_packed_width::<1>(&pool);
        check_packed_width::<2>(&pool);
        check_packed_width::<4>(&pool);
        check_packed_width::<8>(&pool);
    }

    /// The batched dispatcher is bit-identical to the scalar loop for
    /// every batch length — including lengths below one lane group and
    /// lengths that leave a partial final group behind the packed ones.
    fn permute_batch_matches_scalar_for_every_knob(
        states in prop::collection::vec(arb_state(), 0..20),
    ) {
        let mut got = states.clone();
        permute_batch(&mut got);
        assert_eq!(got, scalar_batch(&states), "len={}", states.len());
    }

    /// Leaf hashing through the grouped dispatcher matches per-leaf scalar
    /// absorbs for every mix of leaf lengths.
    fn hash_many_matches_scalar_for_every_knob(
        leaves in prop::collection::vec(prop::collection::vec(arb_elem(), 0..25), 1..13),
    ) {
        let refs: Vec<&[Goldilocks]> = leaves.iter().map(Vec::as_slice).collect();
        let want: Vec<Digest> = refs.iter().map(|leaf| hash_no_pad(leaf)).collect();
        assert_eq!(hash_many(&refs), want);
    }

    /// Interior-level compression matches pairwise scalar compression.
    fn compress_level_matches_scalar_for_every_knob(
        pool in prop::collection::vec(arb_state(), 2..14),
    ) {
        let digests: Vec<Digest> = pool
            .iter()
            .map(|st| Digest([st[0], st[1], st[2], st[3]]))
            .collect();
        let even = &digests[..digests.len() & !1];
        let want: Vec<Digest> = even.chunks_exact(2).map(|p| two_to_one(p[0], p[1])).collect();
        assert_eq!(compress_level_with::<PoseidonSponge>(even), want);
    }

    /// The hoisted nonce permutation (grind kernel) matches the full
    /// permutation on every lane of every width.
    fn nonce_permutation_matches_scalar(
        base in arb_state(),
        nonces in prop::collection::vec(arb_elem(), 32),
        lane_idx in 0usize..SPONGE_RATE,
    ) {
        check_nonce_width::<1>(&base, lane_idx, &nonces);
        check_nonce_width::<2>(&base, lane_idx, &nonces);
        check_nonce_width::<4>(&base, lane_idx, &nonces);
        check_nonce_width::<8>(&base, lane_idx, &nonces);
        check_nonce_width::<32>(&base, lane_idx, &nonces);
    }
}

/// Absorb lengths 0..=24 cover zero, sub-rate, exact-rate, and multi-chunk
/// inputs; eleven equal-length leaves per length put a full packed group
/// and a scalar tail through the lockstep absorb.
#[test]
fn absorb_lengths_zero_to_24_knob_invariant() {
    for len in 0..=24usize {
        let leaves: Vec<Vec<Goldilocks>> = (0..11u64)
            .map(|leaf| (0..len as u64).map(|i| Goldilocks::from_u64(leaf << 32 | i)).collect())
            .collect();
        let refs: Vec<&[Goldilocks]> = leaves.iter().map(Vec::as_slice).collect();
        let want: Vec<Digest> = refs.iter().map(|leaf| hash_no_pad(leaf)).collect();
        assert_eq!(hash_many(&refs), want, "absorb length {len}");
    }
}

/// `permute_batch` as this host dispatches it — vector rows where the CPU
/// has AVX-512, array rows elsewhere — against the one-lane entry, at every
/// length 0..=72: no group, remainders below and from the padding
/// threshold, whole 8-lane groups, and one and two whole 32-state groups,
/// each with the 8-lane groups, padded and one-lane remainders behind it.
#[test]
fn dispatched_permute_batch_lengths_0_to_72_match_one_lane() {
    let pool: Vec<[Goldilocks; WIDTH]> = (0..72u64)
        .map(|s| std::array::from_fn(|i| Goldilocks::from_u64((s << 40 | i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))))
        .collect();
    for len in 0..=72 {
        let mut got = pool[..len].to_vec();
        permute_batch(&mut got);
        assert_eq!(got, scalar_batch(&pool[..len]), "len={len}");
    }
}

/// The speculative challenger's uncounted lane batch against the plain
/// transcript: same observations, same nonce, same element.
#[test]
fn speculative_challenge_batch_matches_scalar() {
    let mut challenger = Challenger::new();
    for i in 0..13u64 {
        challenger.observe(Goldilocks::from_u64(i.wrapping_mul(0x9E37_79B9)));
    }
    let xs: [Goldilocks; 4] = std::array::from_fn(|i| Goldilocks::from_u64(1000 + i as u64));
    let want = xs.map(|x| {
        let mut t = challenger.clone();
        t.observe(x);
        t.challenge()
    });
    assert_eq!(challenger.speculative_challenger().challenge_batch_uncounted(&xs), want);
}
