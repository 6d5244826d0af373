//! Golden-vector regression tests for the size-2^10 NTT: forward transform
//! spot values, exact iNTT roundtrip, and the blowup-2 coset LDE.
//!
//! The input vector is reproduced deterministically from a SplitMix64
//! stream (seed `0xD1CE`), and the expected outputs were produced by this
//! repository's own transforms and committed as constants. They pin the
//! twiddle-factor schedule, the bit-reversal convention, and the coset
//! shift (the Goldilocks multiplicative generator, 7) against accidental
//! change.

use unizk_field::{Field, Goldilocks, PrimeField64};
use unizk_ntt::{intt_nn, lde_nr, ntt_nn};
use unizk_testkit::rng::SplitMix64;

const LOG_N: usize = 10;
const N: usize = 1 << LOG_N;
const SEED: u64 = 0xD1CE;

/// Spot values of `ntt_nn(input)` at fixed indices.
const NTT_SPOTS: [(usize, u64); 10] = [
    (0, 0x9b27d8f9c968accd),
    (1, 0x7524748c36149d3f),
    (2, 0xee7480dcf1e8a5ba),
    (31, 0xb0aac7c358543f68),
    (257, 0x3fd2b8638a68b912),
    (511, 0x8a989b5016e5e39a),
    (512, 0x1bc611adf5ed8ab4),
    (777, 0x9240906627769e92),
    (1022, 0x235aee8a24deef6b),
    (1023, 0x9b34839d2acd0736),
];

/// Field sum of all 2^10 forward-transform outputs.
const NTT_SUM: u64 = 0x0b41813f6247eb59;

/// Spot values of `lde_nr(input, 1, g)` (blowup 2, coset shift g = 7).
const LDE_SPOTS: [(usize, u64); 6] = [
    (0, 0x26976041ec44c9db),
    (1, 0xa2d7e0499476fa9d),
    (513, 0xb98f144b3fd619b6),
    (1024, 0x8e18dfc7dfbe012b),
    (1777, 0x2419f1e89337e0f1),
    (2047, 0x0f5043ea902607d6),
];

/// Field sum of all 2^11 LDE outputs.
const LDE_SUM: u64 = 0x1683027ec48fd6b2;

fn golden_input() -> Vec<Goldilocks> {
    let mut rng = SplitMix64::seed_from_u64(SEED);
    (0..N).map(|_| Goldilocks::random(&mut rng)).collect()
}

#[test]
fn forward_ntt_matches_golden_spots() {
    let mut v = golden_input();
    ntt_nn(&mut v);
    for (i, expected) in NTT_SPOTS {
        assert_eq!(v[i].as_u64(), expected, "ntt output at index {i}");
    }
    let sum: Goldilocks = v.iter().copied().sum();
    assert_eq!(sum.as_u64(), NTT_SUM, "ntt output checksum");
}

#[test]
fn intt_roundtrip_is_exact() {
    let input = golden_input();
    let mut v = input.clone();
    ntt_nn(&mut v);
    intt_nn(&mut v);
    assert_eq!(v, input, "iNTT(NTT(x)) must reproduce x bit-for-bit");
}

#[test]
fn coset_lde_matches_golden_spots() {
    let lde = lde_nr(&golden_input(), 1, Goldilocks::MULTIPLICATIVE_GENERATOR);
    assert_eq!(lde.len(), 2 * N);
    for (i, expected) in LDE_SPOTS {
        assert_eq!(lde[i].as_u64(), expected, "lde output at index {i}");
    }
    let sum: Goldilocks = lde.iter().copied().sum();
    assert_eq!(sum.as_u64(), LDE_SUM, "lde output checksum");
}

#[test]
fn golden_input_is_reproducible() {
    // The committed constants are only meaningful if the input derivation
    // never drifts: regenerate twice and compare, and pin the first value.
    let a = golden_input();
    assert_eq!(a, golden_input());
    let mut rng = SplitMix64::seed_from_u64(SEED);
    assert_eq!(a[0], Goldilocks::random(&mut rng));
}

// --------------------------------------------------------------------------
// Size-2^12 golden vectors, derived from the quadratic-time reference in
// `naive.rs` (NOT from the fast kernel, so a twiddle-schedule bug in the
// radix-2 path cannot re-certify itself). They lock the cached-twiddle
// serial kernel and the decomposed golden model to the same schedule.

const LOG_N_12: usize = 12;
const N_12: usize = 1 << LOG_N_12;
const SEED_12: u64 = 0xD1CE_2A12;

/// Spot values of `naive_dft(input_12)` at fixed indices.
const NTT12_SPOTS: [(usize, u64); 10] = [
    (0, 0xa7c5440fdaeb151c),
    (1, 0x32e58df317618d8c),
    (2, 0x11aad68c08e6948e),
    (63, 0x7baacb0f7e376adb),
    (1025, 0xc7bbbf96af79051d),
    (2047, 0xd7f8e773a965c0d9),
    (2048, 0xf55d9d93ff9bd36a),
    (3333, 0x2bf8e7c641b0f432),
    (4094, 0x53a14539beb9c23e),
    (4095, 0x62eea0f0e4748367),
];

/// Field sum of all 2^12 forward-transform outputs.
const NTT12_SUM: u64 = 0xee7f1c271a71485b;

fn golden_input_12() -> Vec<Goldilocks> {
    let mut rng = SplitMix64::seed_from_u64(SEED_12);
    (0..N_12).map(|_| Goldilocks::random(&mut rng)).collect()
}

fn check_against_golden_12(out: &[Goldilocks], what: &str) {
    for (i, expected) in NTT12_SPOTS {
        assert_eq!(out[i].as_u64(), expected, "{what} output at index {i}");
    }
    let sum: Goldilocks = out.iter().copied().sum();
    assert_eq!(sum.as_u64(), NTT12_SUM, "{what} output checksum");
}

#[test]
fn forward_ntt_2_12_matches_naive_derived_golden() {
    let mut v = golden_input_12();
    ntt_nn(&mut v);
    check_against_golden_12(&v, "radix-2 kernel");
}

#[test]
fn decomposed_2_12_matches_naive_derived_golden() {
    for dims in [[64usize, 64], [16, 256], [256, 16]] {
        let mut v = golden_input_12();
        unizk_ntt::decomposed_ntt_nn(&mut v, &dims);
        check_against_golden_12(&v, "decomposed golden model");
    }
}

#[test]
fn intt_roundtrip_2_12_is_exact() {
    let input = golden_input_12();
    let mut v = input.clone();
    ntt_nn(&mut v);
    intt_nn(&mut v);
    assert_eq!(v, input, "iNTT(NTT(x)) must reproduce x bit-for-bit at 2^12");
}
