//! Eight lanes per AVX-512 register, one or four registers per row: the
//! vector [`Row`]s, and — with the sixteen KoalaBear lanes of the child
//! module [`koalabear`], built to the same rules behind the same
//! [`Detected`] — the only `unsafe` of this crate. The workspace's one
//! other `unsafe` module is `unizk_field::lanes::avx512`.
//!
//! A residue register is a `__m512i` of eight `u64` lanes. AVX-512F has no
//! 64 × 64-bit multiply, so every product goes through `vpmuludq`
//! (32 × 32 → 64 per lane) on 32-bit halves: four of them and a carry chain
//! for a residue × residue product ([`mul`]), two for a small constant ×
//! residue ([`mac`]). The residue × residue product, its carry fold
//! ([`add_fold`]) and the product by `2^32 − 1` ([`mul_epsilon`], the
//! workspace's one `asm!`) are the ones the Goldilocks lanes of
//! `unizk_field::lanes::avx512` are built on, imported from there: the
//! workspace has one vector Goldilocks product (and, in the child module,
//! imports the one vector KoalaBear product).
//!
//! One register's walk is latency-bound: the 22 partial rounds are one
//! serial S-box chain. A row of K registers issues every operation once per
//! register, so each chain runs beside K − 1 independent ones. The rows are
//! stamped out by one macro ([`vector_rows!`]) at K = 4 ([`V512x4`]: whole
//! groups of 32 states, the grind's 32 candidates) and K = 1 ([`V512x1`]:
//! a batch's remainder); two registers trail four by 3 % end to end, eight
//! gain nothing (EXPERIMENTS.md, "Four chains per row").
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
//!   `scripts/ci.sh` disassembles the entry points ([`permute_soa`] and
//!   [`nonce_row`], one instantiation per row type) in the release binary
//!   and fails on a `call`.
//! * The generic round kernels of the parent module cannot carry the
//!   attribute, so they are `#[inline(always)]` and reach the functions
//!   here through the [`Row`] implementations of the vector rows, whose
//!   methods are `#[inline(always)]` shims: instantiated over a vector row
//!   the whole walk dissolves into the `#[target_feature]` entry points.
//! * The row types are private to this module, so nothing outside can name
//!   an instantiation; the entry points are reached only through
//!   [`Detected`]'s [`Kernels`], and a `Detected` exists only after
//!   `avx512f` was detected.
//! * There is no `asm!` here: the one in the workspace is `mul_epsilon` in
//!   `unizk_field::lanes::avx512`; `scripts/ci.sh` holds that too.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_loadu_si512, _mm512_mul_epu32, _mm512_set1_epi32,
    _mm512_set1_epi64, _mm512_slli_epi64, _mm512_srli_epi64, _mm512_storeu_si512,
};

use unizk_field::lanes::avx512::{add_fold, mul, mul_epsilon};
use unizk_field::Goldilocks;

use super::{nonce_row as nonce_row_on, permute_rows, Kernels, Row};
use crate::poseidon::{constants, NoncePermutation, WIDTH};

pub(crate) mod koalabear;

/// Proof that this CPU executes AVX-512F, from [`detect`].
#[derive(Clone, Copy)]
pub(crate) struct Detected(());

/// The vector rows, if the CPU has them (`std` caches the CPUID query; a
/// call is one relaxed load).
#[inline]
pub(crate) fn detect() -> Option<Detected> {
    std::arch::is_x86_feature_detected!("avx512f").then_some(Detected(()))
}

// The entry points, one instantiation per row type: out of line by
// construction, since a caller without the feature cannot inline them.

/// The permutations of one group of states, on rows of type `R`.
#[target_feature(enable = "avx512f")]
fn permute_soa<R: Row>(soa: &mut [R::Lanes; WIDTH]) {
    permute_rows::<R>(soa);
}

/// One output row of a group of nonce candidates, on rows of type `R`.
#[target_feature(enable = "avx512f")]
fn nonce_row<R: Row>(nonce: &NoncePermutation, xs: &R::Lanes, mds_row: &[Goldilocks; WIDTH]) -> R::Lanes {
    nonce_row_on::<R>(nonce, xs, mds_row)
}

/// Eight unreduced sums `lo + 2^32 · hi`, both halves below 2^62.
#[derive(Clone, Copy)]
struct Acc512 {
    lo: __m512i,
    hi: __m512i,
}

/// The tokens after `$k`, once per register index `$k` of a
/// [`vector_rows!`] repetition.
macro_rules! per_register {
    ($k:tt $($then:tt)+) => {
        $($then)+
    };
}

/// A vector row of `8·K` residues in `K` registers, one field per listed
/// index, with its accumulator, its [`Row`] implementation and
/// [`Detected`]'s [`Kernels`] at its lane count. Every operation is issued
/// once per register, so a round's `K` dependency chains overlap. The
/// registers are fields, not an array: looped over, a `[__m512i; K]` row
/// kept some of those loops rolled and ran 3–5 % slower at K = 2
/// (EXPERIMENTS.md, "Four chains per row").
macro_rules! vector_rows {
    ($(#[$doc:meta])* $row:ident, $acc:ident, $lanes:literal: $($k:tt)+) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        struct $row($(per_register!($k __m512i)),+);

        /// One [`Acc512`] per register of the row.
        #[derive(Clone, Copy)]
        struct $acc($(per_register!($k Acc512)),+);

        // SAFETY (every `unsafe` block of this impl): the row type is
        // private to this module, and the only code instantiated over it is
        // `permute_soa` and `nonce_row` above, which run only after avx512f
        // was detected (`Detected`). Each method is an `#[inline(always)]`
        // shim, so it has no body of its own outside those functions.
        impl Row for $row {
            type Lanes = [u64; $lanes];
            type Acc = $acc;

            #[inline(always)]
            fn load(lanes: &Self::Lanes) -> Self {
                let (registers, _) = lanes.as_chunks::<8>();
                // SAFETY: see the impl.
                Self($(unsafe { load(&registers[$k]) }),+)
            }

            #[inline(always)]
            fn store(self) -> Self::Lanes {
                let mut lanes = [0; $lanes];
                let (registers, _) = lanes.as_chunks_mut::<8>();
                // SAFETY: see the impl.
                $(registers[$k] = unsafe { store(self.$k) };)+
                lanes
            }

            #[inline(always)]
            fn add_const(self, c: u64) -> Self {
                // SAFETY: see the impl.
                Self($(unsafe { add_const(self.$k, c) }),+)
            }

            #[inline(always)]
            fn sbox(self) -> Self {
                // SAFETY: see the impl.
                Self($(unsafe { sbox(self.$k) }),+)
            }

            #[inline(always)]
            fn acc(init: u128) -> $acc {
                // SAFETY: see the impl.
                let acc = unsafe { acc(init) };
                $acc($(per_register!($k acc)),+)
            }

            #[inline(always)]
            fn mac(acc: $acc, c: u64, x: Self) -> $acc {
                // SAFETY: see the impl.
                $acc($(unsafe { mac(acc.$k, c, x.$k) }),+)
            }

            #[inline(always)]
            fn reduce(acc: $acc) -> Self {
                // SAFETY: see the impl.
                Self($(unsafe { reduce(acc.$k) }),+)
            }

            /// The dense product — 144 constant × register accumulations;
            /// the frequency form of the array rows widens its operands
            /// past the 32 bits `vpmuludq` takes — one register at a time:
            /// over four at once it would hold 48 state registers and their
            /// 48 high halves against 32 in the file. It is
            /// [`mat_rows`](super::mat_rows) per register, written straight
            /// into the state: through a gathered one-register state and
            /// back, the copy back was a `memcpy` at K = 1.
            #[inline(always)]
            fn mds_layer(state: &mut [Self; WIDTH]) {
                $(
                    let mut input = [V512x1(state[0].$k); WIDTH];
                    for (x, row) in input.iter_mut().zip(state.iter()) {
                        *x = V512x1(row.$k);
                    }
                    for (row, m) in state.iter_mut().zip(constants().mds.iter()) {
                        row.$k = V512x1::dot(m, &input).0;
                    }
                )+
            }
        }

        // SAFETY (both `unsafe` blocks): `self` exists, so `detect` saw
        // avx512f on this CPU.
        impl Kernels<$lanes> for Detected {
            fn permute_soa(self, soa: &mut [[u64; $lanes]; WIDTH]) {
                // SAFETY: see the impl.
                unsafe { permute_soa::<$row>(soa) }
            }

            fn nonce_row(
                self,
                nonce: &NoncePermutation,
                xs: &[u64; $lanes],
                mds_row: &[Goldilocks; WIDTH],
            ) -> [u64; $lanes] {
                // SAFETY: see the impl.
                unsafe { nonce_row::<$row>(nonce, xs, mds_row) }
            }
        }
    };
}

vector_rows!(
    /// Eight residues in one register: the groups of a batch's remainder.
    V512x1, Acc512x1, 8: 0
);

vector_rows!(
    /// Thirty-two residues in four registers: whole groups of 32 states and
    /// the grind's candidates.
    V512x4, Acc512x4, 32: 0 1 2 3
);

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

/// [`Goldilocks::add_residue`] on eight lanes.
#[target_feature(enable = "avx512f")]
#[inline]
fn add_const(a: __m512i, c: u64) -> __m512i {
    add_fold(a, splat(c))
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
    let h1 = _mm512_srli_epi64::<32>(acc.hi);
    let small = _mm512_add_epi64(acc.lo, mul_epsilon(h1));
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
