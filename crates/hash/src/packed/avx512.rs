//! Eight lanes in one AVX-512 register: the vector [`Row`], and — with the
//! sixteen KoalaBear lanes of the child module [`koalabear`], built to the
//! same rules behind the same [`Detected`] — the only `unsafe` in the
//! workspace's library code.
//!
//! A residue row is a `__m512i` of eight `u64` lanes. AVX-512F has no
//! 64 × 64-bit multiply, so every product goes through `vpmuludq`
//! (32 × 32 → 64 per lane) on 32-bit halves: four of them and a carry chain
//! for a residue × residue product, two for a small constant × residue. The
//! Goldilocks folds are the scalar ones (`2^64 ≡ 2^32 − 1`, `2^96 ≡ −1`)
//! with the carries taken from unsigned compares into mask registers.
//!
//! # The fence
//!
//! * Every function that executes an intrinsic carries
//!   `#[target_feature(enable = "avx512f")]`, down to the one-line
//!   helpers. An intrinsic is only inlined into code compiled with the
//!   feature; a helper that is merely `#[inline(always)]` can be left
//!   behind as an out-of-line call per intrinsic, with every vector passed
//!   through memory — two to six times *slower* than the array rows
//!   (EXPERIMENTS.md, "Vector rows"), with every test green.
//!   `scripts/ci.sh` disassembles [`permute_soa`] and [`nonce_row`] in the
//!   release binary and fails on a `call`.
//! * The generic round kernels of the parent module cannot carry the
//!   attribute, so they are `#[inline(always)]` and reach the functions
//!   here through the [`Row`] implementation of [`V512`], whose methods are
//!   `#[inline(always)]` shims: instantiated over `V512` the whole walk
//!   dissolves into the two `#[target_feature]` entry points below.
//! * [`V512`] is private to this module, so nothing outside can name the
//!   instantiation; the entry points are reached only through
//!   [`Detected`], which exists only after `avx512f` was detected.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_cmplt_epu64_mask, _mm512_loadu_si512,
    _mm512_mask_add_epi64, _mm512_mask_shuffle_epi32, _mm512_mask_sub_epi64, _mm512_mul_epu32,
    _mm512_set1_epi32, _mm512_set1_epi64, _mm512_shuffle_epi32, _mm512_slli_epi64,
    _mm512_srli_epi64, _mm512_storeu_si512, _mm512_sub_epi64, _MM_PERM_ENUM,
};

use unizk_field::Goldilocks;

use super::{mat_rows, nonce_row as nonce_row_on, permute_rows, Row};
use crate::poseidon::{constants, NoncePermutation, WIDTH};

pub(crate) mod koalabear;

/// `2^32 − 1 ≡ 2^64 (mod p)`, and the mask of a low half.
const EPSILON: i64 = 0xFFFF_FFFF;

/// `vpshufd` pattern `[1, 1, 3, 3]`: the high half of every 64-bit lane
/// copied over its low half (what `vpmuludq` reads).
const HIGH_TO_LOW: _MM_PERM_ENUM = 0b11_11_01_01;
/// `vpshufd` pattern `[0, 0, 2, 2]`: the low half copied over the high half.
const LOW_TO_HIGH: _MM_PERM_ENUM = 0b10_10_00_00;
/// The odd 32-bit elements: the high halves of the eight lanes.
const HIGH_HALVES: u16 = 0xAAAA;

/// Proof that this CPU executes AVX-512F, from [`detect`].
#[derive(Clone, Copy)]
pub(crate) struct Detected(());

/// The vector rows, if the CPU has them (`std` caches the CPUID query; a
/// call is one relaxed load).
#[inline]
pub(crate) fn detect() -> Option<Detected> {
    std::arch::is_x86_feature_detected!("avx512f").then_some(Detected(()))
}

impl Detected {
    /// [`permute_rows`] on vector rows.
    pub(super) fn permute_soa(self, soa: &mut [[u64; 8]; WIDTH]) {
        // SAFETY: `self` exists, so `detect` saw avx512f on this CPU.
        unsafe { permute_soa(soa) }
    }

    /// [`nonce_row_on`] on vector rows.
    pub(super) fn nonce_row(
        self,
        nonce: &NoncePermutation,
        xs: &[u64; 8],
        mds_row: &[Goldilocks; WIDTH],
    ) -> [u64; 8] {
        // SAFETY: `self` exists, so `detect` saw avx512f on this CPU.
        unsafe { nonce_row(nonce, xs, mds_row) }
    }
}

/// The permutation of eight states. Out of line by construction: a caller
/// without the feature cannot inline it.
#[target_feature(enable = "avx512f")]
fn permute_soa(soa: &mut [[u64; 8]; WIDTH]) {
    permute_rows::<V512>(soa);
}

/// One output row of eight nonce candidates.
#[target_feature(enable = "avx512f")]
fn nonce_row(nonce: &NoncePermutation, xs: &[u64; 8], mds_row: &[Goldilocks; WIDTH]) -> [u64; 8] {
    nonce_row_on::<V512>(nonce, xs, mds_row)
}

/// Eight residues, one per 64-bit lane.
#[derive(Clone, Copy)]
struct V512(__m512i);

/// Eight unreduced sums `lo + 2^32 · hi`, both halves below 2^62.
#[derive(Clone, Copy)]
struct Acc512 {
    lo: __m512i,
    hi: __m512i,
}

// SAFETY (every `unsafe` block of this impl): `V512` is private to this
// module, and the only code instantiated over it is `permute_soa` and
// `nonce_row` above, which run only after avx512f was detected
// (`Detected`). Each method is an `#[inline(always)]` shim, so it has no
// body of its own outside those two functions.
impl Row for V512 {
    type Lanes = [u64; 8];
    type Acc = Acc512;

    #[inline(always)]
    fn load(lanes: &[u64; 8]) -> Self {
        // SAFETY: see the impl.
        Self(unsafe { load(lanes) })
    }

    #[inline(always)]
    fn store(self) -> [u64; 8] {
        // SAFETY: see the impl.
        unsafe { store(self.0) }
    }

    #[inline(always)]
    fn add_const(self, c: u64) -> Self {
        // SAFETY: see the impl.
        Self(unsafe { add_const(self.0, c) })
    }

    #[inline(always)]
    fn sbox(self) -> Self {
        // SAFETY: see the impl.
        Self(unsafe { sbox(self.0) })
    }

    #[inline(always)]
    fn acc(init: u128) -> Acc512 {
        // SAFETY: see the impl.
        unsafe { acc(init) }
    }

    #[inline(always)]
    fn mac(acc: Acc512, c: u64, x: Self) -> Acc512 {
        // SAFETY: see the impl.
        unsafe { mac(acc, c, x.0) }
    }

    #[inline(always)]
    fn reduce(acc: Acc512) -> Self {
        // SAFETY: see the impl.
        Self(unsafe { reduce(acc) })
    }

    /// The dense product: 144 constant × row accumulations. The frequency
    /// form of the array rows saves scalar multiplies by widening its
    /// operands past 32 bits, which is what `vpmuludq` cannot take.
    #[inline(always)]
    fn mds_layer(state: &mut [Self; WIDTH]) {
        mat_rows(&constants().mds, state);
    }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn load(lanes: &[u64; 8]) -> __m512i {
    // SAFETY: the reference covers the 64 bytes read; `loadu` takes any
    // alignment.
    unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store(x: __m512i) -> [u64; 8] {
    let mut lanes = [0u64; 8];
    // SAFETY: the array covers the 64 bytes written; `storeu` takes any
    // alignment.
    unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), x) };
    lanes
}

#[target_feature(enable = "avx512f")]
#[inline]
fn splat(x: u64) -> __m512i {
    _mm512_set1_epi64(x.cast_signed())
}

/// `a + b` where the true sum is below `2^64 + p`: a carry out of bit 64 is
/// folded back as `2^32 − 1`, which cannot carry again.
#[target_feature(enable = "avx512f")]
#[inline]
fn add_fold(a: __m512i, b: __m512i) -> __m512i {
    let sum = _mm512_add_epi64(a, b);
    let carry = _mm512_cmplt_epu64_mask(sum, b);
    _mm512_mask_add_epi64(sum, carry, sum, _mm512_set1_epi64(EPSILON))
}

/// [`Goldilocks::add_residue`] on eight lanes.
#[target_feature(enable = "avx512f")]
#[inline]
fn add_const(a: __m512i, c: u64) -> __m512i {
    add_fold(a, splat(c))
}

/// [`Goldilocks::mul_residue`] on eight lanes: the 128-bit product from
/// four half products, then [`Goldilocks::reduce128_residue`].
#[target_feature(enable = "avx512f")]
#[inline]
fn mul(a: __m512i, b: __m512i) -> __m512i {
    let epsilon = _mm512_set1_epi64(EPSILON);
    let a_hi = _mm512_shuffle_epi32::<HIGH_TO_LOW>(a);
    let b_hi = _mm512_shuffle_epi32::<HIGH_TO_LOW>(b);
    let ll = _mm512_mul_epu32(a, b);
    let lh = _mm512_mul_epu32(a, b_hi);
    let hl = _mm512_mul_epu32(a_hi, b);
    let hh = _mm512_mul_epu32(a_hi, b_hi);
    // ll + 2^32·(lh + hl) + 2^64·hh, column by column. A half product is at
    // most (2^32 − 1)^2 = 2^64 − 2^33 + 1, so it takes a 32-bit carry-in
    // without overflowing.
    let t0 = _mm512_add_epi64(hl, _mm512_srli_epi64::<32>(ll));
    let t1 = _mm512_add_epi64(lh, _mm512_and_si512(t0, epsilon));
    let lo = _mm512_mask_shuffle_epi32::<LOW_TO_HIGH>(ll, HIGH_HALVES, t1);
    let hi = _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64::<32>(t0)),
        _mm512_srli_epi64::<32>(t1),
    );
    // lo − (hi >> 32) + (hi mod 2^32)·(2^32 − 1): a borrow takes 2^32 − 1
    // back out (that is, adds p), a carry puts it back in.
    let hi_hi = _mm512_srli_epi64::<32>(hi);
    let diff = _mm512_sub_epi64(lo, hi_hi);
    let borrow = _mm512_cmplt_epu64_mask(lo, hi_hi);
    let diff = _mm512_mask_sub_epi64(diff, borrow, diff, epsilon);
    add_fold(diff, _mm512_mul_epu32(hi, epsilon))
}

/// `x^7`; the two squarings share a cross product, which the optimizer
/// finds.
#[target_feature(enable = "avx512f")]
#[inline]
fn sbox(x: __m512i) -> __m512i {
    let x2 = mul(x, x);
    let x4 = mul(x2, x2);
    mul(mul(x4, x2), x)
}

#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::cast_possible_truncation)] // word splitting; `init < 2^80` keeps `hi` below 2^48
fn acc(init: u128) -> Acc512 {
    Acc512 {
        lo: splat(init as u64 & 0xFFFF_FFFF),
        hi: splat((init >> 32) as u64),
    }
}

/// `c·x = c·x_lo + 2^32·c·x_hi`, each half product below 2^41 into its own
/// sum. The constant is broadcast as a 32-bit element — `vpmuludq` reads
/// nothing above that — which the compiler can take straight from memory;
/// a 64-bit broadcast of the same value goes through a general-purpose
/// register.
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)] // `c < 2^9`
fn mac(acc: Acc512, c: u64, x: __m512i) -> Acc512 {
    debug_assert!(c < 1 << 9, "mac constant out of contract");
    let c = _mm512_set1_epi32(c as i32);
    Acc512 {
        lo: _mm512_add_epi64(acc.lo, _mm512_mul_epu32(x, c)),
        hi: _mm512_add_epi64(acc.hi, _mm512_mul_epu32(_mm512_srli_epi64::<32>(x), c)),
    }
}

/// `lo + 2^32·hi` to a residue. With `hi = 2^32·h1 + h0` the value is
/// `lo + 2^32·h0 + 2^64·h1 ≡ (lo + h1·(2^32 − 1)) + 2^32·h0`; the bracket
/// stays below 2^63, so the one carry fold of the outer sum is final.
#[target_feature(enable = "avx512f")]
#[inline]
fn reduce(acc: Acc512) -> __m512i {
    let epsilon = _mm512_set1_epi64(EPSILON);
    let h1 = _mm512_srli_epi64::<32>(acc.hi);
    let small = _mm512_add_epi64(acc.lo, _mm512_mul_epu32(h1, epsilon));
    add_fold(_mm512_slli_epi64::<32>(acc.hi), small)
}

/// [`detect`] for the tests: a host without the vector rows says so once
/// instead of passing their tests silently.
#[cfg(test)]
pub(crate) fn detect_or_report() -> Option<Detected> {
    static REPORT: std::sync::Once = std::sync::Once::new();
    let detected = detect();
    if detected.is_none() {
        REPORT.call_once(|| eprintln!("skipped: no avx512f (vector-row tests did not run)"));
    }
    detected
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::goldilocks::P;
    use unizk_testkit::prop::prelude::*;

    /// Where the 32-bit split and the single carry folds can go wrong.
    const EDGES: [u64; 7] = [0, 1, 0xFFFF_FFFF, 1 << 32, P - 1, P, u64::MAX];

    /// Lanes 0..7 take the edges (lane `l` paired with edge `(l + shift) %
    /// 7` on the other operand by the callers), lane 7 stays random.
    fn with_edges(mut lanes: [u64; 8], shift: usize) -> [u64; 8] {
        for (l, x) in lanes.iter_mut().take(7).enumerate() {
            *x = EDGES[(l + shift) % 7];
        }
        lanes
    }

    fn lanes(v: &[u64]) -> [u64; 8] {
        core::array::from_fn(|l| v[l])
    }

    // The primitives on plain lanes, so the tests read like their scalar
    // counterparts.
    #[target_feature(enable = "avx512f")]
    fn add_const_lanes(a: &[u64; 8], c: u64) -> [u64; 8] {
        store(add_const(load(a), c))
    }

    #[target_feature(enable = "avx512f")]
    fn mul_lanes(a: &[u64; 8], b: &[u64; 8]) -> [u64; 8] {
        store(mul(load(a), load(b)))
    }

    #[target_feature(enable = "avx512f")]
    fn sbox_lanes(a: &[u64; 8]) -> [u64; 8] {
        store(sbox(load(a)))
    }

    #[target_feature(enable = "avx512f")]
    fn dot_lanes(init: u128, terms: &[(u64, [u64; 8])]) -> [u64; 8] {
        let mut sum = acc(init);
        for (c, x) in terms {
            sum = mac(sum, *c, load(x));
        }
        store(reduce(sum))
    }

    fn check_add_const(a: &[u64; 8], c: u64) {
        let Some(_detected) = detect_or_report() else { return };
        // SAFETY: avx512f was detected.
        let got = unsafe { add_const_lanes(a, c) };
        for (l, (&g, &x)) in got.iter().zip(a).enumerate() {
            assert_eq!(g % P, Goldilocks::add_residue(x, c) % P, "lane {l}: {x:#x} + {c:#x}");
        }
    }

    fn check_mul(a: &[u64; 8], b: &[u64; 8]) {
        let Some(_detected) = detect_or_report() else { return };
        // SAFETY: avx512f was detected.
        let (got, seventh) = unsafe { (mul_lanes(a, b), sbox_lanes(a)) };
        for l in 0..8 {
            let (x, y) = (a[l], b[l]);
            assert_eq!(got[l] % P, Goldilocks::mul_residue(x, y) % P, "lane {l}: {x:#x} * {y:#x}");
            assert_eq!(
                Goldilocks::from_residue(seventh[l]),
                Goldilocks::from_residue(crate::poseidon::sbox_residue(x)),
                "lane {l}: {x:#x}^7"
            );
        }
    }

    /// `init + Σ c·x` over `terms`, against the exact `u128` sum through
    /// [`Goldilocks::reduce96_residue`].
    fn check_dot(init: u128, terms: &[(u64, [u64; 8])]) {
        let Some(_detected) = detect_or_report() else { return };
        // SAFETY: avx512f was detected.
        let got = unsafe { dot_lanes(init, terms) };
        for (l, &g) in got.iter().enumerate() {
            let exact = terms.iter().fold(init, |sum, (c, x)| sum + u128::from(*c) * u128::from(x[l]));
            assert_eq!(g % P, Goldilocks::reduce96_residue(exact) % P, "lane {l}: {init:#x} + {terms:x?}");
        }
    }

    #[test]
    fn primitives_hold_at_every_pair_of_edges() {
        let edges = with_edges([0; 8], 0);
        for shift in 0..7 {
            let other = with_edges([0; 8], shift);
            check_mul(&edges, &other);
            for c in [0, 1, 0xFFFF_FFFF, 1 << 32, P - 1] {
                check_add_const(&other, c);
            }
            // The largest constants, the largest start value, and both
            // operands at an edge: the carry of the fold is taken and not
            // taken.
            for (c0, c1) in [(1, 1), (0x1FF, 0x1FF), (0x7F, 1)] {
                check_dot(0, &[(c0, edges), (c1, other)]);
                check_dot((1 << 80) - 1, &[(c0, edges), (c1, other)]);
            }
            check_dot(0, &[(0x1FF, other); 12]);
            check_dot((1 << 80) - 1, &[(0x1FF, other); 12]);
        }
    }

    prop! {
        #![cases(64)]

        fn add_const_matches_add_residue(
            a in prop::collection::vec(any::<u64>(), 8),
            c in 0..P,
            shift in 0usize..7,
        ) {
            check_add_const(&lanes(&a), c);
            check_add_const(&with_edges(lanes(&a), shift), c);
        }

        fn mul_matches_mul_residue(
            a in prop::collection::vec(any::<u64>(), 8),
            b in prop::collection::vec(any::<u64>(), 8),
            shift in 0usize..7,
        ) {
            check_mul(&lanes(&a), &lanes(&b));
            check_mul(&with_edges(lanes(&a), 0), &lanes(&b));
            check_mul(&lanes(&a), &with_edges(lanes(&b), shift));
        }

        fn mac_reduce_matches_reduce96_residue(
            xs in prop::collection::vec(prop::collection::vec(any::<u64>(), 8), 12),
            cs in prop::collection::vec(0u64..0x200, 12),
            init in any::<u64>(),
            shift in 0usize..7,
        ) {
            let terms: Vec<(u64, [u64; 8])> = cs.iter().zip(&xs).map(|(&c, x)| (c, lanes(x))).collect();
            check_dot(0, &terms);
            check_dot(u128::from(init) << 16, &terms);
            let edged: Vec<(u64, [u64; 8])> = terms.iter().map(|&(c, x)| (c, with_edges(x, shift))).collect();
            check_dot(u128::from(init) << 16, &edged);
            check_dot(0, &edged[..2]);
        }
    }
}
