//! Backend-generic conformance suite for [`SpongeBackend`].
//!
//! Both shipped backends — the Goldilocks Poseidon engine (scalar +
//! lane-packed batch dispatch) and the KoalaBear-field Poseidon2 engine —
//! must satisfy the same sponge contract: batch permutation bit-identical to the scalar loop,
//! absorb/compress dispatchers equivalent to their one-at-a-time forms,
//! and the usual hash hygiene (determinism, input sensitivity, order
//! sensitivity). Running the identical checks over two backends that
//! share neither field, width nor round structure is what makes
//! [`SpongeBackend`] a real seam rather than a single-implementation
//! indirection.

use unizk_field::{Field, Goldilocks, KoalaBear, PrimeField64};
use unizk_hash::sponge::{compress_level_with, hash_many_with, hash_no_pad_with, two_to_one_with};
use unizk_hash::{Digest, Poseidon2KbSponge, PoseidonSponge, SpongeBackend};
use unizk_testkit::rng::SplitMix64;

fn random_elems<B: SpongeBackend>(rng: &mut SplitMix64, n: usize) -> Vec<B::F> {
    (0..n).map(|_| B::F::random(rng)).collect()
}

fn random_state<B: SpongeBackend>(rng: &mut SplitMix64) -> B::State {
    let mut st = B::zeroed();
    for x in st.as_mut().iter_mut() {
        *x = B::F::random(rng);
    }
    st
}

/// Batch permutation must equal the scalar loop for every batch length,
/// including lengths that leave partial final lane groups.
fn batch_matches_scalar_loop<B: SpongeBackend>() {
    let mut rng = SplitMix64::seed_from_u64(0xC0F0);
    // Around one, two and three groups of 8 and of 16 lanes.
    for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49] {
        let states: Vec<B::State> = (0..len).map(|_| random_state::<B>(&mut rng)).collect();
        let mut batched = states.clone();
        B::permute_batch(&mut batched);
        let mut scalar = states;
        for s in scalar.iter_mut() {
            B::permute(s);
        }
        for (i, (b, s)) in batched.iter().zip(scalar.iter()).enumerate() {
            assert_eq!(
                b.as_ref(),
                s.as_ref(),
                "backend {} batch len {len} state {i}",
                B::NAME
            );
        }
    }
}

/// The grouped dispatcher must hash exactly like one absorb per input —
/// across equal-length runs (which it batches) and ragged lengths (which
/// it splits), covering absorb lengths 0..=24.
fn hash_many_matches_hash_no_pad<B: SpongeBackend>() {
    let mut rng = SplitMix64::seed_from_u64(0xC0F1);
    // Ragged lengths 0..=24 plus equal-length runs of each chunk shape.
    let mut lens: Vec<usize> = (0..=24).collect();
    lens.extend([8, 8, 8, 5, 5, 16, 16, 16, 16, 0, 0]);
    // Equal-length runs that end short of, on and past the edge of the
    // dispatcher's 64-state block, one and two chunks deep.
    // And runs around one, two and three 16-lane groups, which leave the
    // 16-lane backend a bare, a whole and a padded remainder.
    let group_edges = [15, 16, 17, 31, 32, 33, 47, 48, 49].map(|run| (run, 1 + run % 20));
    for (run, len) in [(63, 3), (64, 9), (65, 8), (131, 12)].into_iter().chain(group_edges) {
        lens.extend(std::iter::repeat_n(len, run));
    }
    let inputs: Vec<Vec<B::F>> = lens
        .iter()
        .map(|&n| random_elems::<B>(&mut rng, n))
        .collect();
    let refs: Vec<&[B::F]> = inputs.iter().map(Vec::as_slice).collect();
    let grouped = hash_many_with::<B>(&refs);
    for (input, digest) in inputs.iter().zip(grouped.iter()) {
        assert_eq!(
            *digest,
            hash_no_pad_with::<B>(input),
            "backend {} input length {}",
            B::NAME,
            input.len()
        );
    }
}

/// Level compression must equal pairwise two-to-one hashing.
fn compress_level_matches_two_to_one<B: SpongeBackend>() {
    let mut rng = SplitMix64::seed_from_u64(0xC0F2);
    // 63..=129: around one and two of the dispatcher's 64-state blocks.
    // 15..=49: around one, two and three 16-lane groups.
    for pairs in [1usize, 2, 3, 4, 8, 13, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 128, 129] {
        let digests: Vec<Digest<B::F>> = (0..2 * pairs)
            .map(|_| {
                let st = random_state::<B>(&mut rng);
                let s = st.as_ref();
                Digest([s[0], s[1], s[2], s[3]])
            })
            .collect();
        let level = compress_level_with::<B>(&digests);
        assert_eq!(level.len(), pairs);
        for (i, parent) in level.iter().enumerate() {
            assert_eq!(
                *parent,
                two_to_one_with::<B>(digests[2 * i], digests[2 * i + 1]),
                "backend {} pair {i}",
                B::NAME
            );
        }
    }
}

/// Determinism plus sensitivity to content, length, and child order.
fn hash_hygiene<B: SpongeBackend>() {
    let mut rng = SplitMix64::seed_from_u64(0xC0F3);
    let input = random_elems::<B>(&mut rng, 11);

    assert_eq!(
        hash_no_pad_with::<B>(&input),
        hash_no_pad_with::<B>(&input),
        "backend {} must be deterministic",
        B::NAME
    );

    let mut tweaked = input.clone();
    tweaked[3] += B::F::ONE;
    assert_ne!(
        hash_no_pad_with::<B>(&input),
        hash_no_pad_with::<B>(&tweaked),
        "backend {} must be content-sensitive",
        B::NAME
    );

    assert_ne!(
        hash_no_pad_with::<B>(&input),
        hash_no_pad_with::<B>(&input[..10]),
        "backend {} must be length-sensitive",
        B::NAME
    );

    let a = hash_no_pad_with::<B>(&input);
    let b = hash_no_pad_with::<B>(&tweaked);
    assert_ne!(
        two_to_one_with::<B>(a, b),
        two_to_one_with::<B>(b, a),
        "backend {} two-to-one must be order-sensitive",
        B::NAME
    );
}

/// Sanity on the geometry the dispatchers assume: the 4+4 digest packing
/// must fit inside the rate, and the rate inside the width.
fn geometry_sane<B: SpongeBackend>() {
    assert!(B::RATE >= 8, "backend {} rate too small for 4+4 packing", B::NAME);
    assert!(B::RATE < B::WIDTH, "backend {} needs nonzero capacity", B::NAME);
    assert_eq!(B::zeroed().as_ref().len(), B::WIDTH);
}

fn conformance<B: SpongeBackend>() {
    geometry_sane::<B>();
    batch_matches_scalar_loop::<B>();
    hash_many_matches_hash_no_pad::<B>();
    compress_level_matches_two_to_one::<B>();
    hash_hygiene::<B>();
}

#[test]
fn poseidon_backend_conforms() {
    conformance::<PoseidonSponge>();
}

#[test]
fn poseidon2_kb_backend_conforms() {
    conformance::<Poseidon2KbSponge>();
}

#[test]
fn backends_are_distinct_permutations() {
    // Different fields, so compare canonical integers: the same small
    // input must not hash to the same digest under both backends.
    let gl: Vec<Goldilocks> = (0..8u64).map(Goldilocks::from_u64).collect();
    let kb: Vec<KoalaBear> = (0..8u64).map(KoalaBear::from_u64).collect();
    assert_ne!(
        hash_no_pad_with::<PoseidonSponge>(&gl).0.map(|x| x.as_u64()),
        hash_no_pad_with::<Poseidon2KbSponge>(&kb).0.map(|x| x.as_u64()),
        "the two backends must not collide on trivial inputs"
    );
}

#[test]
fn backend_metadata_is_distinct() {
    assert_ne!(PoseidonSponge::NAME, Poseidon2KbSponge::NAME);
    assert_ne!(PoseidonSponge::COUNTER, Poseidon2KbSponge::COUNTER);
}
