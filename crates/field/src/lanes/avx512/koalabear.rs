//! Sixteen KoalaBear lanes in one AVX-512 register: the vector [`Lanes`] of
//! [`KoalaBear`], and the vector Montgomery product ([`mul`]) and modular
//! sum ([`add`]) the Poseidon2 rows of `unizk_hash` import.
//!
//! A row is sixteen canonical Montgomery residues, one per 32-bit lane. The
//! Montgomery product needs only 32 × 32 → 64-bit multiplies, which
//! `vpmuludq` does eight at a time — the even lanes in one instruction, the
//! odd lanes, moved down, in another — so a row of sixteen products is six
//! `vpmuludq` where a row of eight Goldilocks products is five. A sum or a
//! difference is three instructions: `t = a ± b`, then the unsigned minimum
//! of `t` and `t ∓ p`.
//!
//! The fence of the parent module applies unchanged: every function that
//! executes an intrinsic carries `#[target_feature(enable = "avx512f")]`,
//! `Kb16` is private and instantiated in one place, this module's
//! `run_on_lanes`, which `Detected::run_koalabear` enters only after
//! `avx512f` was detected, and `scripts/ci.sh` disassembles every
//! instantiation of it and fails on a `call`.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_add_epi64, _mm512_loadu_si512, _mm512_mask_shuffle_epi32,
    _mm512_min_epu32, _mm512_mul_epu32, _mm512_permutex2var_epi32, _mm512_set1_epi32,
    _mm512_shuffle_epi32, _mm512_storeu_si512, _mm512_sub_epi32,
};
use core::ops::{Add, Mul, Sub};

use super::{Detected, HIGH_TO_LOW};
use crate::koalabear::{KoalaBear, MU, P};
use crate::lanes::{LaneKernel, Lanes};
use crate::traits::Field;

/// The even 32-bit elements: the low halves of the eight 64-bit lanes.
const EVEN_LANES: u16 = 0x5555;

impl Detected {
    /// Runs `kernel` on sixteen KoalaBear lanes.
    #[inline]
    pub(crate) fn run_koalabear<K: LaneKernel<KoalaBear>>(self, kernel: K) -> K::Output {
        // SAFETY: `self` exists, so `detect` saw avx512f on this CPU.
        unsafe { run_on_lanes(kernel) }
    }
}

/// The entry point: one instantiation per kernel type, with the kernel's
/// body and every lane operation inlined into it.
#[target_feature(enable = "avx512f")]
fn run_on_lanes<K: LaneKernel<KoalaBear>>(kernel: K) -> K::Output {
    kernel.run::<Kb16>()
}

/// Sixteen canonical KoalaBear elements, lane `l` in element `l`. Stored as
/// the elements themselves, so a slice of scalars is a slice of rows
/// ([`Lanes::pack`]); an operation moves them through one register.
#[derive(Clone, Copy)]
#[repr(transparent)]
struct Kb16([KoalaBear; 16]);

// SAFETY (every `unsafe` block of these impls that calls a
// `#[target_feature]` function): a `Kb16` value exists only inside
// `run_on_lanes`, which runs after avx512f was detected — the type is
// private to this module and named nowhere else — and CPU features do not
// change while a process runs. Each method is an `#[inline(always)]` shim.
impl Kb16 {
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

impl From<KoalaBear> for Kb16 {
    #[inline(always)]
    fn from(x: KoalaBear) -> Self {
        Self([x; 16])
    }
}

impl Add for Kb16 {
    type Output = Self;

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: see above.
        Self::from_vector(unsafe { add(self.vector(), rhs.vector()) })
    }
}

impl Sub for Kb16 {
    type Output = Self;

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: see above.
        Self::from_vector(unsafe { sub(self.vector(), rhs.vector()) })
    }
}

impl Mul for Kb16 {
    type Output = Self;

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        // SAFETY: see above.
        Self::from_vector(unsafe { mul(self.vector(), rhs.vector()) })
    }
}

/// Lane indices into `a ++ b` (0–15 then 16–31) of the even and the odd
/// chunks of `block_len` lanes: [`Lanes::interleave`] as one `vpermt2d`
/// per result.
const fn deal(block_len: u32) -> [[u32; 16]; 2] {
    let mut index = [[0u32; 16]; 2];
    let mut l: u32 = 0;
    while l < 32 {
        // Result `l / 16` (0 even, 1 odd), lane `l % 16`, in chunk k.
        let (parity, lane) = (l / 16, l % 16);
        let (k, offset) = (lane / block_len, lane % block_len);
        // Chunk k of the result: chunk 2·(k / 2) + parity of `a` for even
        // k, of `b` for odd k.
        let chunk = 2 * (k / 2) + parity;
        let source = if k % 2 == 0 { 0 } else { 16 };
        index[parity as usize][lane as usize] = source + chunk * block_len + offset;
        l += 1;
    }
    index
}

/// [`deal`] at the block lengths below a row: 1, 2, 4, 8.
const DEALS: [[[u32; 16]; 2]; 4] = [deal(1), deal(2), deal(4), deal(8)];

impl Lanes for Kb16 {
    type Scalar = KoalaBear;
    const WIDTH: usize = 16;

    #[inline(always)]
    fn splat(x: KoalaBear) -> Self {
        Self::from(x)
    }

    #[inline(always)]
    fn load(src: &[KoalaBear]) -> Self {
        let row: &[KoalaBear; 16] = src.first_chunk().expect("a row needs sixteen elements");
        Self(*row)
    }

    #[inline(always)]
    fn store(self, dst: &mut [KoalaBear]) {
        let row: &mut [KoalaBear; 16] = dst.first_chunk_mut().expect("a row needs sixteen elements");
        *row = self.0;
    }

    #[inline(always)]
    fn pack(src: &[KoalaBear]) -> &[Self] {
        let (rows, rest) = src.as_chunks::<16>();
        assert!(rest.is_empty(), "a slice of rows is a whole number of sixteen elements");
        // SAFETY: `Kb16` is `repr(transparent)` over `[KoalaBear; 16]`: same
        // size, alignment and validity; the length counts rows.
        unsafe { core::slice::from_raw_parts(rows.as_ptr().cast(), rows.len()) }
    }

    #[inline(always)]
    fn pack_mut(src: &mut [KoalaBear]) -> &mut [Self] {
        let (rows, rest) = src.as_chunks_mut::<16>();
        assert!(rest.is_empty(), "a slice of rows is a whole number of sixteen elements");
        // SAFETY: as in `pack`, and the borrow is unique.
        unsafe { core::slice::from_raw_parts_mut(rows.as_mut_ptr().cast(), rows.len()) }
    }

    #[inline(always)]
    fn interleave(self, other: Self, block_len: usize) -> (Self, Self) {
        let [even, odd] = match block_len {
            1 => &DEALS[0],
            2 => &DEALS[1],
            4 => &DEALS[2],
            8 => &DEALS[3],
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
fn load(lanes: &[KoalaBear; 16]) -> __m512i {
    // SAFETY: the reference covers the 64 bytes read (`KoalaBear` is a
    // transparent `u32`); `loadu` takes any alignment.
    unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store(x: __m512i) -> [KoalaBear; 16] {
    let mut lanes = [KoalaBear::ZERO; 16];
    // SAFETY: the array covers the 64 bytes written; every lane of `x` is a
    // canonical residue (the callers' contract), so each `u32` is a valid
    // element; `storeu` takes any alignment.
    unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), x) };
    lanes
}

/// Lane `l` of the result is lane `index[l]` of `a ++ b` (`vpermt2d`).
#[target_feature(enable = "avx512f")]
#[inline]
fn permute2(a: __m512i, index: &[u32; 16], b: __m512i) -> __m512i {
    // SAFETY: the array covers the 64 bytes read.
    let index = unsafe { _mm512_loadu_si512(index.as_ptr().cast()) };
    _mm512_permutex2var_epi32(a, index, b)
}

#[target_feature(enable = "avx512f")]
#[inline]
fn splat(x: u32) -> __m512i {
    _mm512_set1_epi32(x.cast_signed())
}

/// `KoalaBear + KoalaBear` on sixteen canonical residues. `a + b < 2p <
/// 2^32` does not wrap; `t − p` wraps to at least `2^32 − p > t` exactly
/// when `t < p`, so the unsigned minimum is the canonical sum.
///
/// # Safety
///
/// Safe to call from a function compiled with avx512f; from anywhere
/// else, only on a CPU that executes it.
#[target_feature(enable = "avx512f")]
#[inline]
pub fn add(a: __m512i, b: __m512i) -> __m512i {
    let t = _mm512_add_epi32(a, b);
    _mm512_min_epu32(t, _mm512_sub_epi32(t, splat(P)))
}

/// `KoalaBear − KoalaBear` on sixteen canonical residues: `t = a − b`
/// wraps to at least `2^32 − p > p` exactly when `a < b`, and then `t + p`
/// wraps to the canonical `a − b + p`; otherwise `t < p ≤ t + p`. The
/// unsigned minimum picks the right one.
#[target_feature(enable = "avx512f")]
#[inline]
fn sub(a: __m512i, b: __m512i) -> __m512i {
    let t = _mm512_sub_epi32(a, b);
    _mm512_min_epu32(t, _mm512_add_epi32(t, splat(P)))
}

/// The odd lanes moved down to where `vpmuludq` reads.
#[target_feature(enable = "avx512f")]
#[inline]
fn odd(a: __m512i) -> __m512i {
    _mm512_shuffle_epi32::<HIGH_TO_LOW>(a)
}

/// `KoalaBear * KoalaBear` on sixteen canonical residues: the 64-bit
/// products of the even and of the odd lanes, each through the scalar
/// Montgomery reduction. The one vector KoalaBear product of the
/// workspace.
///
/// # Safety
///
/// Safe to call from a function compiled with avx512f; from anywhere
/// else, only on a CPU that executes it.
#[target_feature(enable = "avx512f")]
#[inline]
pub fn mul(a: __m512i, b: __m512i) -> __m512i {
    mont_reduce(_mm512_mul_epu32(a, b), _mm512_mul_epu32(odd(a), odd(b)))
}

/// The scalar Montgomery reduction on eight even-lane and eight odd-lane
/// products `x < p·2^32`: `m = lo32(x)·MU`, `t = (x + m·p) >> 32 < 2p`, one
/// conditional subtraction — the same canonical residue, bit for bit.
/// Both `t` rows have their result in the high half of each 64-bit lane:
/// the odd row's is already in place, the even row's is shuffled down
/// beside it.
#[target_feature(enable = "avx512f")]
#[inline]
fn mont_reduce(even: __m512i, odd: __m512i) -> __m512i {
    let (mu, p) = (splat(MU), splat(P));
    // `vpmuludq` reads the low half of each 64-bit lane, so the `lo32` of
    // both steps is free.
    let t_even = _mm512_add_epi64(even, _mm512_mul_epu32(_mm512_mul_epu32(even, mu), p));
    let t_odd = _mm512_add_epi64(odd, _mm512_mul_epu32(_mm512_mul_epu32(odd, mu), p));
    let t = _mm512_mask_shuffle_epi32::<HIGH_TO_LOW>(t_odd, EVEN_LANES, t_even);
    _mm512_min_epu32(t, _mm512_sub_epi32(t, p))
}

#[cfg(test)]
mod tests {
    //! Each vector primitive against [`KoalaBear`]'s own operation, residue
    //! for residue. The lane type and the kernels over it are held to the
    //! one-lane instantiation in `crate::lanes`'s tests.

    use super::*;
    use crate::lanes::vector_lanes_or_report;
    use unizk_testkit::prop::prelude::*;

    /// `R = 2^32 mod p`, the residue of one.
    const R: u32 = KoalaBear::ONE.to_montgomery();

    /// Where the single conditional subtractions can go wrong: the ends of
    /// the range and, for the product, the residues around one.
    const EDGES: [u32; 6] = [0, 1, 2, P - 1, R, P - R];

    /// Lane `l` holds edge `(l + shift) % 6`, so two operands built with
    /// shifts `0` and `s` meet in every pairing as `s` runs over `0..6`.
    fn edges(shift: usize) -> [u32; 16] {
        core::array::from_fn(|l| EDGES[(l + shift) % 6])
    }

    fn lanes(v: &[u32]) -> [u32; 16] {
        core::array::from_fn(|l| v[l])
    }

    /// `[+, −, ×]` on raw residue lanes.
    #[target_feature(enable = "avx512f")]
    fn every_op(a: &[u32; 16], b: &[u32; 16]) -> [[u32; 16]; 3] {
        let vector = |x: &[u32; 16]| {
            // SAFETY: the array covers the 64 bytes read.
            unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
        };
        let lanes_of = |x: __m512i| {
            let mut out = [0u32; 16];
            // SAFETY: the array covers the 64 bytes written.
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), x) };
            out
        };
        let (a, b) = (vector(a), vector(b));
        [lanes_of(add(a, b)), lanes_of(sub(a, b)), lanes_of(mul(a, b))]
    }

    fn check(a: &[u32; 16], b: &[u32; 16]) {
        if !vector_lanes_or_report() {
            return;
        }
        // SAFETY: avx512f was detected.
        let [sum, diff, product] = unsafe { every_op(a, b) };
        for l in 0..16 {
            let (x, y) = (KoalaBear::from_montgomery(a[l]), KoalaBear::from_montgomery(b[l]));
            assert_eq!(sum[l], (x + y).to_montgomery(), "lane {l}: {:#x} + {:#x}", a[l], b[l]);
            assert_eq!(diff[l], (x - y).to_montgomery(), "lane {l}: {:#x} - {:#x}", a[l], b[l]);
            assert_eq!(product[l], (x * y).to_montgomery(), "lane {l}: {:#x} * {:#x}", a[l], b[l]);
        }
    }

    #[test]
    fn primitives_hold_at_every_pair_of_edges() {
        for shift in 0..6 {
            check(&edges(0), &edges(shift));
            check(&edges(shift), &edges(0));
        }
    }

    #[test]
    fn montgomery_constants_are_the_fields_own() {
        assert_eq!(P.wrapping_mul(MU), u32::MAX, "MU = -p^-1 mod 2^32");
        assert_eq!(u64::from(R), (1u64 << 32) % u64::from(P));
    }

    #[test]
    fn a_row_is_one_register() {
        assert_eq!(core::mem::size_of::<Kb16>(), core::mem::size_of::<__m512i>());
    }

    prop! {
        #![cases(64)]

        fn primitives_match_scalar(
            a in prop::collection::vec(0..P, 16),
            b in prop::collection::vec(0..P, 16),
            shift in 0usize..6,
        ) {
            check(&lanes(&a), &lanes(&b));
            check(&edges(shift), &lanes(&b));
            check(&lanes(&a), &edges(shift));
        }
    }
}
