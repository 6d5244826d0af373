//! Cross-field kernel-equivalence wall for the accelerated NTT paths.
//!
//! The cached-twiddle radix-2 kernel, the decomposed golden model, and
//! the order/coset/direction variants must all compute the same transform
//! — over **both** supported base fields. Every property draws one vector
//! of `u64` seeds and runs the identical check over 64-bit Goldilocks and
//! 31-bit KoalaBear, so a kernel bug that only manifests in one field's
//! reduction or twiddle table fails the same case.
//!
//! Sizes sweep `2^1..=2^14` over Goldilocks and `2^1..=2^12` over
//! KoalaBear — all below the size at which transforms split across worker
//! threads, which `tests/thread_invariance.rs` crosses; comparisons against
//! the quadratic-time reference are capped at `2^10` to keep the suite
//! fast, with the larger sizes covered by cross-kernel equality and exact
//! roundtrips.

use unizk_field::{bit_reverse, reverse_index_bits, Goldilocks, KoalaBear, PrimeField64};
use unizk_ntt::{
    coset_intt_nn, coset_ntt_nn, coset_ntt_nr, decomposed_ntt_nn, intt_nn, intt_rn, naive_dft,
    naive_idft, ntt_nn, ntt_nr, ntt_rn,
};
use unizk_testkit::prop::prelude::*;
use unizk_testkit::prop::CaseResult;

fn arb_seeds(n: usize) -> impl Strategy<Value = Vec<u64>> {
    collection::vec(any::<u64>(), n)
}

/// One seed vector rendered into field `F` (reduction differs per field —
/// that is the point of the differential).
fn to_field<F: PrimeField64>(seeds: &[u64]) -> Vec<F> {
    seeds.iter().map(|&s| F::from_u64(s)).collect()
}

/// A balanced-ish split of `2^log_n` into two power-of-two dimensions.
fn dims_for(log_n: usize, split: usize) -> [usize; 2] {
    let lo = split % (log_n + 1);
    [1 << lo, 1 << (log_n - lo)]
}

/// KoalaBear mirrors the Goldilocks sweep up to `2^12`.
const KB_MAX_LOG: usize = 12;

// ---- generic single-field checks, shared by both instantiations ----

fn check_forward_naive<F: PrimeField64>(seeds: &[u64]) -> CaseResult {
    let v = to_field::<F>(seeds);
    let mut fast = v.clone();
    ntt_nn(&mut fast);
    prop_assert_eq!(fast, naive_dft(&v));
    Ok(())
}

fn check_inverse_naive<F: PrimeField64>(seeds: &[u64]) -> CaseResult {
    let v = to_field::<F>(seeds);
    let mut fast = v.clone();
    intt_nn(&mut fast);
    prop_assert_eq!(fast, naive_idft(&v));
    Ok(())
}

fn check_nr_is_bit_reversed_nn<F: PrimeField64>(seeds: &[u64], log_n: usize) -> CaseResult {
    let v = to_field::<F>(&seeds[..1 << log_n]);
    let mut nn = v.clone();
    ntt_nn(&mut nn);
    let mut nr = v;
    ntt_nr(&mut nr);
    for (i, x) in nr.iter().enumerate() {
        prop_assert_eq!(*x, nn[bit_reverse(i, log_n)]);
    }
    Ok(())
}

fn check_rn_undoes_input_bit_reversal<F: PrimeField64>(seeds: &[u64]) -> CaseResult {
    let v = to_field::<F>(seeds);
    let mut nn = v.clone();
    ntt_nn(&mut nn);
    let mut rn = v;
    reverse_index_bits(&mut rn);
    ntt_rn(&mut rn);
    prop_assert_eq!(rn, nn);
    Ok(())
}

fn check_nn_roundtrip<F: PrimeField64>(seeds: &[u64]) -> CaseResult {
    let v = to_field::<F>(seeds);
    let mut x = v.clone();
    ntt_nn(&mut x);
    intt_nn(&mut x);
    prop_assert_eq!(x, v);
    Ok(())
}

fn check_nr_rn_roundtrip<F: PrimeField64>(seeds: &[u64]) -> CaseResult {
    let v = to_field::<F>(seeds);
    let mut x = v.clone();
    ntt_nr(&mut x);
    intt_rn(&mut x);
    prop_assert_eq!(x, v);
    Ok(())
}

fn check_coset_forward_naive<F: PrimeField64>(seeds: &[u64], s: u64) -> CaseResult {
    let shift = F::from_u64(s);
    prop_assume!(!shift.is_zero());
    let v = to_field::<F>(seeds);
    // coset-NTT(x) == NTT of coefficients pre-scaled by shift^i.
    let scaled: Vec<F> = v
        .iter()
        .enumerate()
        .map(|(i, &c)| c * shift.exp_u64(i as u64))
        .collect();
    let mut fast = v;
    coset_ntt_nn(&mut fast, shift);
    prop_assert_eq!(fast, naive_dft(&scaled));
    Ok(())
}

fn check_coset_roundtrip<F: PrimeField64>(seeds: &[u64]) -> CaseResult {
    let shift = F::MULTIPLICATIVE_GENERATOR;
    let v = to_field::<F>(seeds);
    let mut x = v.clone();
    coset_ntt_nn(&mut x, shift);
    coset_intt_nn(&mut x, shift);
    prop_assert_eq!(x, v);
    Ok(())
}

fn check_coset_nr_is_bit_reversed_coset_nn<F: PrimeField64>(seeds: &[u64]) -> CaseResult {
    let shift = F::MULTIPLICATIVE_GENERATOR;
    let v = to_field::<F>(seeds);
    let mut nn = v.clone();
    coset_ntt_nn(&mut nn, shift);
    let mut nr = v;
    coset_ntt_nr(&mut nr, shift);
    reverse_index_bits(&mut nr);
    prop_assert_eq!(nr, nn);
    Ok(())
}

fn check_decomposed_matches_kernel<F: PrimeField64>(seeds: &[u64], dims: &[usize]) -> CaseResult {
    let v = to_field::<F>(seeds);
    let mut mono = v.clone();
    ntt_nn(&mut mono);
    let mut dec = v;
    decomposed_ntt_nn(&mut dec, dims);
    prop_assert_eq!(dec, mono);
    Ok(())
}

prop! {
    #![cases(12)]

    // ---- cached-twiddle serial kernel vs the quadratic reference ----

    fn forward_matches_naive_small(log_n in 1usize..=10, seeds in arb_seeds(1 << 10)) {
        check_forward_naive::<Goldilocks>(&seeds[..1 << log_n])?;
        check_forward_naive::<KoalaBear>(&seeds[..1 << log_n])?;
    }

    fn inverse_matches_naive_small(log_n in 1usize..=10, seeds in arb_seeds(1 << 10)) {
        check_inverse_naive::<Goldilocks>(&seeds[..1 << log_n])?;
        check_inverse_naive::<KoalaBear>(&seeds[..1 << log_n])?;
    }

    // ---- order variants agree at every size up to 2^14 ----

    fn nr_is_bit_reversed_nn(log_n in 1usize..=14, seeds in arb_seeds(1 << 14)) {
        check_nr_is_bit_reversed_nn::<Goldilocks>(&seeds, log_n)?;
        check_nr_is_bit_reversed_nn::<KoalaBear>(&seeds, log_n.min(KB_MAX_LOG))?;
    }

    fn rn_undoes_input_bit_reversal(log_n in 1usize..=14, seeds in arb_seeds(1 << 14)) {
        check_rn_undoes_input_bit_reversal::<Goldilocks>(&seeds[..1 << log_n])?;
        check_rn_undoes_input_bit_reversal::<KoalaBear>(&seeds[..1 << log_n.min(KB_MAX_LOG)])?;
    }

    // ---- both directions roundtrip exactly at every size ----

    fn nn_roundtrip(log_n in 1usize..=14, seeds in arb_seeds(1 << 14)) {
        check_nn_roundtrip::<Goldilocks>(&seeds[..1 << log_n])?;
        check_nn_roundtrip::<KoalaBear>(&seeds[..1 << log_n.min(KB_MAX_LOG)])?;
    }

    fn nr_rn_roundtrip(log_n in 1usize..=14, seeds in arb_seeds(1 << 14)) {
        check_nr_rn_roundtrip::<Goldilocks>(&seeds[..1 << log_n])?;
        check_nr_rn_roundtrip::<KoalaBear>(&seeds[..1 << log_n.min(KB_MAX_LOG)])?;
    }

    // ---- coset variants, both shifts and directions ----

    fn coset_forward_matches_shifted_naive(
        log_n in 1usize..=8,
        seeds in arb_seeds(1 << 8),
        s in 1u64..10_000,
    ) {
        check_coset_forward_naive::<Goldilocks>(&seeds[..1 << log_n], s)?;
        check_coset_forward_naive::<KoalaBear>(&seeds[..1 << log_n], s)?;
    }

    fn coset_roundtrip_all_sizes(log_n in 1usize..=14, seeds in arb_seeds(1 << 14)) {
        check_coset_roundtrip::<Goldilocks>(&seeds[..1 << log_n])?;
        check_coset_roundtrip::<KoalaBear>(&seeds[..1 << log_n.min(KB_MAX_LOG)])?;
    }

    fn coset_nr_is_bit_reversed_coset_nn(log_n in 1usize..=12, seeds in arb_seeds(1 << 12)) {
        check_coset_nr_is_bit_reversed_coset_nn::<Goldilocks>(&seeds[..1 << log_n])?;
        check_coset_nr_is_bit_reversed_coset_nn::<KoalaBear>(&seeds[..1 << log_n])?;
    }

    // ---- the decomposed golden model, every two-dimensional split ----

    fn decomposed_model_matches_kernel(
        log_n in 1usize..=12,
        split in 0usize..13,
        seeds in arb_seeds(1 << 12),
    ) {
        let dims = dims_for(log_n, split);
        check_decomposed_matches_kernel::<Goldilocks>(&seeds[..1 << log_n], &dims)?;
        check_decomposed_matches_kernel::<KoalaBear>(&seeds[..1 << log_n], &dims)?;
    }
}
