//! Eight Goldilocks lanes in one AVX-512 register: the vector [`Lanes`] of
//! [`Goldilocks`], the vector product the Poseidon rows of `unizk_hash`
//! import, and — with the sixteen KoalaBear lanes of the child module
//! [`koalabear`] and that crate's `packed::avx512` module — the only
//! `unsafe` in the workspace's library code.
//!
//! AVX-512F has no 64 × 64-bit multiply, so a product goes through
//! `vpmuludq` (32 × 32 → 64 per lane) on 32-bit halves: four of them and a
//! carry chain ([`mul`]), then the scalar folds `2^64 ≡ 2^32 − 1`,
//! `2^96 ≡ −1` with the carries taken from unsigned compares into mask
//! registers. The product by `2^32 − 1` is one `vpmuludq` written as `asm!`
//! ([`mul_epsilon`]), because the optimizer otherwise expands it. [`mul`]
//! returns a residue (below `2^64`, congruent, not necessarily canonical),
//! the currency of the hash rows; the lane type adds the one compare and
//! masked subtraction that make it canonical, so its lanes always agree
//! with [`Goldilocks`] bit for bit.
//!
//! The workspace has one vector product per field: this module's [`mul`]
//! and [`koalabear::mul`].
//!
//! # The fence
//!
//! * Every function that executes an intrinsic carries
//!   `#[target_feature(enable = "avx512f")]`. An intrinsic is only inlined
//!   into code compiled with the feature; a helper that is merely
//!   `#[inline(always)]` can be left behind as an out-of-line call per
//!   intrinsic, with every test green.
//! * The lane types `Gl8` (here) and `Kb16` ([`koalabear`]) are private,
//!   so nothing outside can name them. Each is instantiated in one place, a
//!   `run_on_lanes` of its module — the `#[target_feature]` entry point
//!   into which a [`LaneKernel`] is inlined — which `Detected::run` and
//!   `Detected::run_koalabear` enter only after `avx512f` was detected.
//!   Their operator methods are `#[inline(always)]` shims, so inside that
//!   entry point they dissolve into the register code. `scripts/ci.sh`
//!   disassembles every instantiation of both entry points and fails on a
//!   `call`.
//! * `koalabear` is the one child module; `scripts/ci.sh` names it in the
//!   unsafe fence and fails on any other.
//! * `asm!` appears once in the workspace, in [`mul_epsilon`].

#![allow(unsafe_code)]

use core::arch::asm;
use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpge_epu64_mask, _mm512_cmplt_epu64_mask,
    _mm512_loadu_si512, _mm512_mask_add_epi64, _mm512_mask_shuffle_epi32,
    _mm512_mask_sub_epi64, _mm512_mul_epu32, _mm512_permutex2var_epi64, _mm512_set1_epi64,
    _mm512_set_epi64, _mm512_shuffle_epi32,
    _mm512_srli_epi64, _mm512_storeu_si512, _mm512_sub_epi64, _MM_PERM_ENUM,
};
use core::ops::{Add, Mul, Sub};

use super::{LaneKernel, Lanes};
use crate::goldilocks::{Goldilocks, P};

pub mod koalabear;

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

/// The eight-lane rows, if the CPU has them (`std` caches the CPUID query;
/// a call is one relaxed load).
#[inline]
pub(crate) fn detect() -> Option<Detected> {
    std::arch::is_x86_feature_detected!("avx512f").then_some(Detected(()))
}

impl Detected {
    /// Runs `kernel` on eight Goldilocks lanes.
    #[inline]
    pub(crate) fn run<K: LaneKernel<Goldilocks>>(self, kernel: K) -> K::Output {
        // SAFETY: `self` exists, so `detect` saw avx512f on this CPU.
        unsafe { run_on_lanes(kernel) }
    }
}

/// The entry point: one instantiation per kernel type, out of line by
/// construction (a caller without the feature cannot inline it), with the
/// kernel's body and every lane operation inlined into it.
#[target_feature(enable = "avx512f")]
fn run_on_lanes<K: LaneKernel<Goldilocks>>(kernel: K) -> K::Output {
    kernel.run::<Gl8>()
}

/// Eight canonical Goldilocks elements, lane `l` in element `l`. Stored as
/// the elements themselves (eight-byte aligned), so a slice of scalars is a
/// slice of rows ([`Lanes::pack`]); an operation moves them through one
/// register.
#[derive(Clone, Copy)]
#[repr(transparent)]
struct Gl8([Goldilocks; 8]);

// SAFETY (every `unsafe` block of these impls that calls a
// `#[target_feature]` function): a `Gl8` value exists only inside
// `run_on_lanes`, which runs after avx512f was detected — the type is
// private to this module and named nowhere else — and CPU features do not
// change while a process runs. Each method is an `#[inline(always)]` shim.
impl Gl8 {
    #[inline(always)]
    fn vector(self) -> __m512i {
        // SAFETY: see above.
        unsafe { load(&self.0) }
    }

    #[inline(always)]
    fn from_vector(v: __m512i) -> Self {
        // SAFETY: see above.
        Self(unsafe { store(v) })
    }
}

impl From<Goldilocks> for Gl8 {
    #[inline(always)]
    fn from(x: Goldilocks) -> Self {
        Self([x; 8])
    }
}

impl Add for Gl8 {
    type Output = Self;

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: see above.
        Self::from_vector(unsafe { add_canonical(self.vector(), rhs.vector()) })
    }
}

impl Sub for Gl8 {
    type Output = Self;

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: see above.
        Self::from_vector(unsafe { sub_canonical(self.vector(), rhs.vector()) })
    }
}

impl Mul for Gl8 {
    type Output = Self;

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        // SAFETY: see above.
        Self::from_vector(unsafe { mul_canonical(self.vector(), rhs.vector()) })
    }
}

impl Lanes for Gl8 {
    type Scalar = Goldilocks;
    const WIDTH: usize = 8;

    #[inline(always)]
    fn splat(x: Goldilocks) -> Self {
        Self::from(x)
    }

    #[inline(always)]
    fn load(src: &[Goldilocks]) -> Self {
        let row: &[Goldilocks; 8] = src.first_chunk().expect("a row needs eight elements");
        Self(*row)
    }

    #[inline(always)]
    fn store(self, dst: &mut [Goldilocks]) {
        let row: &mut [Goldilocks; 8] = dst.first_chunk_mut().expect("a row needs eight elements");
        *row = self.0;
    }

    #[inline(always)]
    fn pack(src: &[Goldilocks]) -> &[Self] {
        let (rows, rest) = src.as_chunks::<8>();
        assert!(rest.is_empty(), "a slice of rows is a whole number of eight elements");
        // SAFETY: `Gl8` is `repr(transparent)` over `[Goldilocks; 8]`: same
        // size, alignment and validity; the length counts rows.
        unsafe { core::slice::from_raw_parts(rows.as_ptr().cast(), rows.len()) }
    }

    #[inline(always)]
    fn pack_mut(src: &mut [Goldilocks]) -> &mut [Self] {
        let (rows, rest) = src.as_chunks_mut::<8>();
        assert!(rest.is_empty(), "a slice of rows is a whole number of eight elements");
        // SAFETY: as in `pack`, and the borrow is unique.
        unsafe { core::slice::from_raw_parts_mut(rows.as_mut_ptr().cast(), rows.len()) }
    }

    #[inline(always)]
    fn interleave(self, other: Self, block_len: usize) -> (Self, Self) {
        // Lane indices into `self ++ other` (0–7 then 8–15) of the even and
        // the odd chunks.
        let (even, odd) = match block_len {
            1 => ([0, 8, 2, 10, 4, 12, 6, 14], [1, 9, 3, 11, 5, 13, 7, 15]),
            2 => ([0, 1, 8, 9, 4, 5, 12, 13], [2, 3, 10, 11, 6, 7, 14, 15]),
            4 => ([0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 12, 13, 14, 15]),
            _ => return (self, other),
        };
        let (a, b) = (self.vector(), other.vector());
        // SAFETY: see above.
        let (even, odd) = unsafe { (permute2(a, even, b), permute2(a, odd, b)) };
        (Self::from_vector(even), Self::from_vector(odd))
    }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn load(lanes: &[Goldilocks; 8]) -> __m512i {
    // SAFETY: the reference covers the 64 bytes read (`Goldilocks` is a
    // transparent `u64`); `loadu` takes any alignment.
    unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store(x: __m512i) -> [Goldilocks; 8] {
    let mut lanes = [Goldilocks::new(0); 8];
    // SAFETY: the array covers the 64 bytes written; every lane of `x` is
    // canonical (the callers' contract), so each `u64` is a valid element;
    // `storeu` takes any alignment.
    unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), x) };
    lanes
}

/// Lane `l` of the result is lane `index[l]` of `a ++ b` (`vpermt2q`).
#[target_feature(enable = "avx512f")]
#[inline]
fn permute2(a: __m512i, index: [u64; 8], b: __m512i) -> __m512i {
    let index = _mm512_set_epi64(
        index[7].cast_signed(),
        index[6].cast_signed(),
        index[5].cast_signed(),
        index[4].cast_signed(),
        index[3].cast_signed(),
        index[2].cast_signed(),
        index[1].cast_signed(),
        index[0].cast_signed(),
    );
    _mm512_permutex2var_epi64(a, index, b)
}

#[target_feature(enable = "avx512f")]
#[inline]
fn splat_p() -> __m512i {
    _mm512_set1_epi64(P.cast_signed())
}

/// `a + b` for canonical lanes, canonical. Without a carry the sum needs
/// `− p` once it reaches `p`; with one, the wrapped sum minus `p` modulo
/// `2^64` is `a + b − p`, which is below `p`. One masked subtraction does
/// both.
#[target_feature(enable = "avx512f")]
#[inline]
fn add_canonical(a: __m512i, b: __m512i) -> __m512i {
    let sum = _mm512_add_epi64(a, b);
    let carry = _mm512_cmplt_epu64_mask(sum, a);
    let reduce = carry | _mm512_cmpge_epu64_mask(sum, splat_p());
    _mm512_mask_sub_epi64(sum, reduce, sum, splat_p())
}

/// `a − b` for canonical lanes, canonical: a borrow adds `p` back.
#[target_feature(enable = "avx512f")]
#[inline]
fn sub_canonical(a: __m512i, b: __m512i) -> __m512i {
    let diff = _mm512_sub_epi64(a, b);
    let borrow = _mm512_cmplt_epu64_mask(a, b);
    _mm512_mask_add_epi64(diff, borrow, diff, splat_p())
}

/// [`mul`], then the one subtraction of `p` that makes the residue
/// canonical (a residue is below `2^64 < 2p`).
#[target_feature(enable = "avx512f")]
#[inline]
fn mul_canonical(a: __m512i, b: __m512i) -> __m512i {
    let r = mul(a, b);
    let over = _mm512_cmpge_epu64_mask(r, splat_p());
    _mm512_mask_sub_epi64(r, over, r, splat_p())
}

/// `a + b` where the true sum is below `2^64 + p`: a carry out of bit 64 is
/// folded back as `2^32 − 1`, which cannot carry again.
///
/// # Safety
///
/// Safe to call from a function compiled with avx512f; from anywhere
/// else, only on a CPU that executes it.
#[target_feature(enable = "avx512f")]
#[inline]
pub fn add_fold(a: __m512i, b: __m512i) -> __m512i {
    let sum = _mm512_add_epi64(a, b);
    let carry = _mm512_cmplt_epu64_mask(sum, b);
    _mm512_mask_add_epi64(sum, carry, sum, _mm512_set1_epi64(EPSILON))
}

/// [`Goldilocks::mul_residue`] on eight lanes: the 128-bit product from
/// four half products, then [`Goldilocks::reduce128_residue`]. Takes any
/// 64-bit lanes, returns residues.
///
/// # Safety
///
/// Safe to call from a function compiled with avx512f; from anywhere
/// else, only on a CPU that executes it.
#[target_feature(enable = "avx512f")]
#[inline]
pub fn mul(a: __m512i, b: __m512i) -> __m512i {
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
    add_fold(diff, mul_epsilon(hi))
}

/// `(x mod 2^32) · (2^32 − 1)` per lane, one `vpmuludq`. Spelled as an
/// intrinsic, the optimizer rewrites the product by this constant as
/// `(x << 32) − x` on the masked low half — three instructions, one of them
/// a port-0 shift — and no intrinsic-level spelling keeps it from doing so.
///
/// # Safety
///
/// Safe to call from a function compiled with avx512f; from anywhere
/// else, only on a CPU that executes it.
#[target_feature(enable = "avx512f")]
#[inline]
pub fn mul_epsilon(x: __m512i) -> __m512i {
    let epsilon = _mm512_set1_epi64(EPSILON);
    let product;
    // SAFETY: `vpmuludq` on registers only: no memory, stack or flags, and
    // the enclosing function requires avx512f, which zmm operands need.
    unsafe {
        asm!(
            "vpmuludq {product}, {x}, {epsilon}",
            product = lateout(zmm_reg) product,
            x = in(zmm_reg) x,
            epsilon = in(zmm_reg) epsilon,
            options(pure, nomem, nostack, preserves_flags),
        );
    }
    product
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::vector_lanes_or_report;
    use unizk_testkit::prop::prelude::*;

    /// Where the 32-bit split and the single carry folds can go wrong.
    const EDGES: [u64; 9] = [0, 1, 2, 0xFFFF_FFFF, 1 << 32, P - 2, P - 1, P, u64::MAX];

    #[target_feature(enable = "avx512f")]
    fn vector(x: &[u64; 8]) -> __m512i {
        // SAFETY: the array covers the 64 bytes read; `loadu` takes any
        // alignment.
        unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx512f")]
    fn lanes_of(x: __m512i) -> [u64; 8] {
        let mut out = [0u64; 8];
        // SAFETY: the array covers the 64 bytes written.
        unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), x) };
        out
    }

    /// `[mul, add_fold(a, mul_epsilon(b))]` on any lanes, then
    /// `[+, −, ×]` on the canonical lanes `ca`, `cb`.
    #[target_feature(enable = "avx512f")]
    fn every_op(a: &[u64; 8], b: &[u64; 8], ca: &[u64; 8], cb: &[u64; 8]) -> [[u64; 8]; 5] {
        let (a, b, ca, cb) = (vector(a), vector(b), vector(ca), vector(cb));
        [
            lanes_of(mul(a, b)),
            lanes_of(add_fold(a, mul_epsilon(b))),
            lanes_of(add_canonical(ca, cb)),
            lanes_of(sub_canonical(ca, cb)),
            lanes_of(mul_canonical(ca, cb)),
        ]
    }

    /// Each vector operation against its scalar counterpart, lane by lane:
    /// the residue primitives on any 64-bit lanes, the canonical ones on
    /// canonical lanes.
    fn check(a: &[u64; 8], b: &[u64; 8]) {
        if !vector_lanes_or_report() {
            return;
        }
        let canon = |x: &[u64; 8]| x.map(|v| Goldilocks::from_canonical(v).as_canonical_u64());
        let (ca, cb) = (canon(a), canon(b));
        // SAFETY: avx512f was detected.
        let [m, f, add, sub, prod] = unsafe { every_op(a, b, &ca, &cb) };
        for l in 0..8 {
            let (x, y) = (a[l], b[l]);
            assert_eq!(m[l] % P, Goldilocks::mul_residue(x, y) % P, "lane {l}: {x:#x} * {y:#x}");
            let folded = u128::from(x) + u128::from(y & 0xFFFF_FFFF) * 0xFFFF_FFFF;
            if folded < (1u128 << 64) + u128::from(P) {
                assert_eq!(u128::from(f[l]) % u128::from(P), folded % u128::from(P), "lane {l}: fold");
            }
            let (gx, gy) = (Goldilocks::new(ca[l]), Goldilocks::new(cb[l]));
            assert_eq!(add[l], (gx + gy).as_canonical_u64(), "lane {l}: {gx} + {gy}");
            assert_eq!(sub[l], (gx - gy).as_canonical_u64(), "lane {l}: {gx} - {gy}");
            assert_eq!(prod[l], (gx * gy).as_canonical_u64(), "lane {l}: {gx} * {gy}");
        }
    }

    fn lanes(v: &[u64]) -> [u64; 8] {
        core::array::from_fn(|l| v[l])
    }

    #[test]
    fn primitives_hold_at_every_pair_of_edges() {
        for i in 0..EDGES.len() {
            let a: [u64; 8] = core::array::from_fn(|l| EDGES[(l + i) % EDGES.len()]);
            for j in 0..EDGES.len() {
                let b: [u64; 8] = core::array::from_fn(|l| EDGES[(l + j) % EDGES.len()]);
                check(&a, &b);
            }
        }
    }

    prop! {
        #![cases(64)]

        fn primitives_match_scalar(
            a in prop::collection::vec(any::<u64>(), 8),
            b in prop::collection::vec(any::<u64>(), 8),
        ) {
            check(&lanes(&a), &lanes(&b));
        }
    }

    #[test]
    fn a_row_is_one_register() {
        assert_eq!(core::mem::size_of::<Gl8>(), core::mem::size_of::<__m512i>());
    }
}
