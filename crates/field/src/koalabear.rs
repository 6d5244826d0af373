//! The KoalaBear field: `p = 2^31 - 2^24 + 1` in Montgomery form.
//!
//! KoalaBear is the 31-bit prime the Plonky3 zkVM stacks (SP1-class
//! provers, Ziren) run their chip inventories on: small enough that four
//! limbs fit a SIMD word where one Goldilocks limb does, yet with a
//! generous `2^24` two-adic subgroup for NTTs. `p - 1 = 2^24 · 127`, so
//! [`PrimeField64::TWO_ADICITY`] is 24 (versus 32 for Goldilocks) and the
//! analyzer's P02 rule must consult the *field's* two-adicity rather than
//! a baked-in 32 — see `unizk_core::analyze::ProtocolParams::two_adicity`.
//!
//! Unlike [`crate::Goldilocks`], which exploits its `2^64 - 2^32 + 1`
//! shape for reduction-by-folding, KoalaBear uses classic Montgomery
//! arithmetic with `R = 2^32`: elements are stored as `x·R mod p` in a
//! `u32`, multiplication is one 64-bit product plus a Montgomery
//! reduction, and the constants (`p^{-1} mod 2^32`, `R^2 mod p`) are
//! derived in `const fn`s rather than transcribed, so the compiler itself
//! checks the arithmetic identities at build time.
//!
//! # Example
//!
//! ```
//! use unizk_field::{Field, KoalaBear};
//!
//! let a = KoalaBear::from_u64(3);
//! let b = a.inverse();
//! assert_eq!(a * b, KoalaBear::ONE);
//! ```

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::binomial::{BinomialExtension, BinomiallyExtendable};
use crate::lanes::LaneKernel;
use crate::traits::{Field, PrimeField64, ProtocolField};

/// The KoalaBear prime `2^31 - 2^24 + 1`.
pub const P: u32 = 0x7f00_0001;

const P64: u64 = P as u64;

/// `-p^{-1} mod 2^32`, by Newton iteration (each step doubles the number
/// of correct low bits; five steps cover 32). Public for kernels that run
/// the Montgomery reduction themselves on raw residues
/// ([`KoalaBear::to_montgomery`]): `m = lo32(x)·MU`, `(x + m·p) >> 32`.
pub const MU: u32 = {
    let mut inv: u32 = P;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u32.wrapping_sub(P.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// `R = 2^32 mod p` — the Montgomery representation of one.
const R: u32 = ((1u64 << 32) % P64) as u32;

/// `R^2 mod p`, the conversion factor into Montgomery form.
const R2: u32 = (((R as u64) * (R as u64)) % P64) as u32;

/// Montgomery reduction: maps `x < p·2^32` to `x·R^{-1} mod p`, canonical.
// The `as u32` casts are the algorithm: `x as u32` *is* the low-word
// extraction REDC needs, and the final cast follows `>> 32` of a sum
// bounded below 2^64.
#[allow(clippy::cast_possible_truncation)]
#[inline(always)]
const fn mont_reduce(x: u64) -> u32 {
    let m = (x as u32).wrapping_mul(MU);
    // x + m·p < p·2^32 + 2^32·p < 2^64 (p < 2^31), so the sum cannot wrap.
    let t = ((x + (m as u64) * P64) >> 32) as u32;
    if t >= P {
        t - P
    } else {
        t
    }
}

/// Montgomery product of two canonical residues.
#[inline(always)]
const fn mont_mul(a: u32, b: u32) -> u32 {
    mont_reduce((a as u64) * (b as u64))
}

/// Products summed unreduced by KoalaBear's
/// [`BinomiallyExtendable::dot_product`] before its one Montgomery
/// reduction: four residue products stay below `4p² < 2^64`, and one
/// conditional subtraction of `p·2^32` brings any such sum under
/// [`mont_reduce`]'s input bound (both facts are checked at compile time
/// below). Four is the extension degree, so the length of every output limb
/// of the [`KbExt4`] product (`x⁴ = W` folded into the right operand), which
/// this reduction takes from 19 Montgomery reductions to 4:
/// `field.kbext4_mul_ns` 30.9 → 16.8 ns on an AVX-512 host (EXPERIMENTS.md,
/// "The polynomial layer: products per LDE position"). A fifth term could
/// pass `2^64`.
const DOT_TERMS: usize = 4;

/// `p·2^32`: what the one-reduction dot product subtracts once.
const P_SHIFTED: u64 = P64 << 32;

const _: () = {
    let bound = DOT_TERMS as u128 * (P64 as u128 - 1) * (P64 as u128 - 1);
    assert!(bound < 1u128 << 64, "the unreduced sum must fit a u64");
    assert!(
        bound < 2 * P_SHIFTED as u128,
        "one subtraction must reach REDC's bound"
    );
    assert!((DOT_TERMS as u128 + 1) * (P64 as u128 - 1) * (P64 as u128 - 1) >= 1u128 << 64);
};

/// `ROOTS_OF_UNITY[bits]` is the primitive `2^bits`-th root of unity every
/// transform and domain uses: `g^((p-1) / 2^24)`, of order exactly `2^24`,
/// squared down to the requested order.
const ROOTS_OF_UNITY: [KoalaBear; KoalaBear::TWO_ADICITY + 1] = {
    // Square-and-multiply (`Field::exp_u64` is not `const`).
    let mut root = KoalaBear::ONE.0;
    let mut base = KoalaBear::MULTIPLICATIVE_GENERATOR.0;
    let mut exp = (P64 - 1) >> KoalaBear::TWO_ADICITY;
    while exp != 0 {
        if exp & 1 == 1 {
            root = mont_mul(root, base);
        }
        base = mont_mul(base, base);
        exp >>= 1;
    }
    let mut table = [KoalaBear::ONE; KoalaBear::TWO_ADICITY + 1];
    let mut bits = KoalaBear::TWO_ADICITY;
    while bits > 0 {
        table[bits] = KoalaBear(root);
        root = mont_mul(root, root);
        bits -= 1;
    }
    table
};

/// An element of the KoalaBear field, stored as a Montgomery residue
/// `x·2^32 mod p` in `[0, p)`.
///
/// `Eq`/`Hash` derive on the residue: the Montgomery map is a bijection
/// on `[0, p)`, so residue equality is field equality. `Ord` compares
/// *canonical* values so that ordering matches [`Field::as_u64`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash)]
#[repr(transparent)] // a lane of `lanes::avx512::koalabear` is one `u32`
pub struct KoalaBear(u32);

impl KoalaBear {
    /// Builds an element from a canonical value.
    ///
    /// Usable in `const` contexts; the conversion into Montgomery form is
    /// a compile-time `mont_mul` by `R^2`.
    ///
    /// # Panics
    ///
    /// Panics (at compile time, for `const` uses) if `value >= P`.
    pub const fn new(value: u32) -> Self {
        assert!(value < P, "value out of range for KoalaBear");
        Self(mont_mul(value, R2))
    }

    /// The canonical value in `[0, p)`.
    #[inline]
    pub const fn as_canonical_u32(self) -> u32 {
        mont_reduce(self.0 as u64)
    }

    /// The raw Montgomery residue `x·2^32 mod p` (not the canonical value).
    ///
    /// Together with [`Self::from_montgomery`] and [`Self::reduce_u64`] this
    /// is the raw-residue surface delayed-reduction kernels use: residues
    /// are summed unreduced in a `u64` (Montgomery form is linear, so a sum
    /// of residues is a residue of the sum) and reduced once at the end.
    #[inline]
    pub const fn to_montgomery(self) -> u32 {
        self.0
    }

    /// Rebuilds an element from its raw Montgomery residue — the inverse of
    /// [`Self::to_montgomery`].
    ///
    /// # Panics
    ///
    /// Panics if `residue >= P`. After [`Self::reduce_u64`] the compiler
    /// proves the check away.
    #[inline]
    pub const fn from_montgomery(residue: u32) -> Self {
        assert!(residue < P, "residue out of range for KoalaBear");
        Self(residue)
    }

    /// Reduces any `u64` — typically an unreduced sum of Montgomery
    /// residues — to the residue in `[0, p)` it is congruent to.
    // The remainder is < p < 2^31, so the cast cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    pub const fn reduce_u64(x: u64) -> u32 {
        (x % P64) as u32
    }

    /// Whether the element is a square in the field, by Euler's criterion.
    pub fn is_quadratic_residue(self) -> bool {
        if self.is_zero() {
            return true;
        }
        self.exp_u64((P64 - 1) / 2) == Self::ONE
    }
}

impl Field for KoalaBear {
    const ZERO: Self = Self(0);
    const ONE: Self = Self(R);
    const TWO: Self = Self::new(2);

    #[inline]
    fn from_u64(n: u64) -> Self {
        Self(mont_mul((n % P64) as u32, R2))
    }

    #[inline]
    fn as_u64(&self) -> u64 {
        self.as_canonical_u32() as u64
    }

    fn try_inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // Fermat: x^(p-2).
        Some(self.exp_u64(P64 - 2))
    }
}

impl PrimeField64 for KoalaBear {
    const ORDER: u64 = P64;
    // p - 1 = 2^24 · 127.
    const TWO_ADICITY: usize = 24;
    /// `3` generates the full multiplicative group (pinned by a test
    /// checking `3^((p-1)/q) != 1` for both prime factors `q` of `p-1`).
    const MULTIPLICATIVE_GENERATOR: Self = Self::new(3);
    const BITS: usize = 31;
    const BYTES: usize = 4;

    fn primitive_root_of_unity(bits: usize) -> Self {
        assert!(
            bits <= Self::TWO_ADICITY,
            "no primitive 2^{bits}-th root of unity: exceeds two-adicity {}",
            Self::TWO_ADICITY
        );
        ROOTS_OF_UNITY[bits]
    }

    /// Sixteen lanes in one AVX-512 register when the CPU has `avx512f`,
    /// else one.
    #[inline]
    fn with_lanes<K: LaneKernel<Self>>(kernel: K) -> K::Output {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = crate::lanes::avx512::detect() {
            return detected.run_koalabear(kernel);
        }
        kernel.run::<Self>()
    }

    fn random<R: unizk_testkit::rng::Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling on the low 31 bits keeps the distribution
        // uniform (acceptance probability ≈ 0.992).
        loop {
            let v = rng.next_u64() & 0x7fff_ffff;
            if v < P64 {
                return Self::new(v as u32);
            }
        }
    }
}

/// The quartic challenge extension `x^4 = 3` (4 × 31 bits).
///
/// # Example
///
/// ```
/// use unizk_field::{Field, KbExt4, KoalaBear};
///
/// // x^4 = W = 3 in the base field.
/// assert_eq!(KbExt4::X.exp_u64(4), KbExt4::from(KoalaBear::from_u64(3)));
/// ```
pub type KbExt4 = BinomialExtension<KoalaBear, 4>;

impl ProtocolField for KoalaBear {
    type Ext = KbExt4;
}

impl BinomiallyExtendable<DOT_TERMS> for KoalaBear {
    /// `3`, the multiplicative generator, hence a non-square
    /// (`p ≡ 5 (mod 12)`).
    const W: Self = Self::MULTIPLICATIVE_GENERATOR;
    /// `3^((p-1)/4)`, the primitive 4th root of unity of the NTT table.
    const DTH_ROOT: Self = ROOTS_OF_UNITY[2];

    /// `3·b`: two modular adds, no product.
    #[inline(always)]
    fn mul_w(b: Self) -> Self {
        b + b + b
    }

    /// One Montgomery reduction for all four products: Montgomery form is
    /// linear, so the residue products are summed in a `u64` and reduced
    /// once instead of once each.
    #[inline(always)]
    fn dot_product(a: &[Self; DOT_TERMS], b: &[Self; DOT_TERMS]) -> Self {
        let mut sum = 0u64;
        for (x, y) in a.iter().zip(b) {
            sum += u64::from(x.0) * u64::from(y.0);
        }
        let sum = if sum >= P_SHIFTED {
            sum - P_SHIFTED
        } else {
            sum
        };
        Self(mont_reduce(sum))
    }
}

// `mul_w` spells `W·b` as two modular adds.
const _: () = assert!(<KoalaBear as BinomiallyExtendable<DOT_TERMS>>::W.as_canonical_u32() == 3);

impl Ord for KoalaBear {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.as_canonical_u32().cmp(&other.as_canonical_u32())
    }
}

impl PartialOrd for KoalaBear {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for KoalaBear {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        // Both residues are < p < 2^31, so the u32 sum cannot wrap.
        let s = self.0 + rhs.0;
        Self(if s >= P { s - P } else { s })
    }
}

impl Sub for KoalaBear {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Self(if borrow { d.wrapping_add(P) } else { d })
    }
}

impl Mul for KoalaBear {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(mont_mul(self.0, rhs.0))
    }
}

impl Neg for KoalaBear {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Self(P - self.0)
        }
    }
}

impl AddAssign for KoalaBear {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for KoalaBear {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for KoalaBear {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for KoalaBear {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl Product for KoalaBear {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl From<u32> for KoalaBear {
    fn from(n: u32) -> Self {
        Self::from_u64(n as u64)
    }
}

impl From<u64> for KoalaBear {
    fn from(n: u64) -> Self {
        Self::from_u64(n)
    }
}

impl From<KoalaBear> for u64 {
    fn from(x: KoalaBear) -> u64 {
        x.as_u64()
    }
}

impl fmt::Debug for KoalaBear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_canonical_u32())
    }
}

impl fmt::Display for KoalaBear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_canonical_u32())
    }
}

impl fmt::LowerHex for KoalaBear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.as_canonical_u32(), f)
    }
}

impl fmt::UpperHex for KoalaBear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.as_canonical_u32(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_testkit::rng::{Rng, SplitMix64, TestRng as StdRng};

    /// Reference arithmetic straight from the definition, via u64.
    fn ref_mul(a: u64, b: u64) -> u64 {
        (a * b) % P64
    }

    fn ref_add(a: u64, b: u64) -> u64 {
        (a + b) % P64
    }

    fn edge_values() -> Vec<u64> {
        vec![
            0,
            1,
            2,
            3,
            126,
            127,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            P64 / 2,
            P64 - 3,
            P64 - 2,
            P64 - 1,
        ]
    }

    #[test]
    fn montgomery_constants_are_consistent() {
        // MU · p ≡ -1 (mod 2^32).
        assert_eq!(MU.wrapping_mul(P), u32::MAX);
        assert_eq!(R as u64, (1u64 << 32) % P64);
        assert_eq!(R2 as u64, ((R as u64) * (R as u64)) % P64);
        // p - 1 = 2^24 · 127, so the two-adicity really is 24.
        assert_eq!(P64 - 1, (1 << 24) * 127);
    }

    #[test]
    fn roundtrip_through_montgomery_form() {
        for v in edge_values() {
            let x = KoalaBear::from_u64(v);
            assert_eq!(x.as_u64(), v % P64, "v={v}");
        }
        // from_u64 reduces values past p.
        assert_eq!(KoalaBear::from_u64(P64).as_u64(), 0);
        assert_eq!(KoalaBear::from_u64(P64 + 5).as_u64(), 5);
        assert_eq!(KoalaBear::from_u64(u64::MAX).as_u64(), u64::MAX % P64);
    }

    #[test]
    fn raw_residue_surface_roundtrips_and_reduces() {
        let mut rng = SplitMix64::seed_from_u64(0x4b42_2027);
        for v in edge_values().into_iter().chain((0..256).map(|_| rng.next_u64())) {
            let x = KoalaBear::from_u64(v);
            assert_eq!(KoalaBear::from_montgomery(x.to_montgomery()), x, "v={v}");
        }
        // 81·p is the largest value the Poseidon2 external layer plus a round
        // constant can reach; the reduce is total over u64 regardless.
        for x in [0, P64 - 1, P64, 81 * P64, 81 * P64 - 1, u64::MAX] {
            assert_eq!(u64::from(KoalaBear::reduce_u64(x)), x % P64, "x={x}");
        }
        // A sum of residues reduces to the residue of the sum.
        let (a, b) = (KoalaBear::from_u64(P64 - 1), KoalaBear::from_u64(P64 - 2));
        let wide = u64::from(a.to_montgomery()) + u64::from(b.to_montgomery());
        assert_eq!(KoalaBear::from_montgomery(KoalaBear::reduce_u64(wide)), a + b);
    }

    #[test]
    #[should_panic(expected = "residue out of range")]
    fn from_montgomery_rejects_unreduced_residue() {
        let _ = KoalaBear::from_montgomery(P);
    }

    #[test]
    fn add_sub_mul_match_reference() {
        for &a in &edge_values() {
            for &b in &edge_values() {
                let x = KoalaBear::from_u64(a);
                let y = KoalaBear::from_u64(b);
                assert_eq!((x + y).as_u64(), ref_add(a, b), "{a}+{b}");
                assert_eq!((x * y).as_u64(), ref_mul(a, b), "{a}*{b}");
                assert_eq!((x - y).as_u64(), (P64 + a - b) % P64, "{a}-{b}");
            }
        }
    }

    #[test]
    fn randomized_arithmetic_matches_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x4b42_2026);
        for _ in 0..4096 {
            let a = rng.next_u64() % P64;
            let b = rng.next_u64() % P64;
            let x = KoalaBear::from_u64(a);
            let y = KoalaBear::from_u64(b);
            assert_eq!((x + y).as_u64(), ref_add(a, b));
            assert_eq!((x * y).as_u64(), ref_mul(a, b));
            assert_eq!((-x).as_u64(), (P64 - a) % P64);
        }
    }

    #[test]
    fn neg_and_sub_agree() {
        for &a in &edge_values() {
            let x = KoalaBear::from_u64(a);
            assert_eq!(KoalaBear::ZERO - x, -x);
            assert_eq!(x + (-x), KoalaBear::ZERO);
        }
    }

    #[test]
    fn inverse_roundtrips() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(KoalaBear::ZERO.try_inverse().is_none());
        for _ in 0..256 {
            let x = KoalaBear::random(&mut rng);
            if x.is_zero() {
                continue;
            }
            assert_eq!(x * x.inverse(), KoalaBear::ONE);
        }
        assert_eq!(KoalaBear::ONE.inverse(), KoalaBear::ONE);
    }

    #[test]
    fn generator_has_full_order() {
        // ord(3) divides p-1 = 2^24 · 127; it is all of it iff
        // 3^((p-1)/2) != 1 and 3^((p-1)/127) != 1.
        let g = KoalaBear::MULTIPLICATIVE_GENERATOR;
        assert_eq!(g.as_u64(), 3);
        assert_ne!(g.exp_u64((P64 - 1) / 2), KoalaBear::ONE);
        assert_ne!(g.exp_u64((P64 - 1) / 127), KoalaBear::ONE);
        assert_eq!(g.exp_u64(P64 - 1), KoalaBear::ONE);
    }

    #[test]
    fn three_is_not_a_square() {
        // p ≡ 5 (mod 12), so 3 is a quadratic non-residue — the fact the
        // degree-4 extension x^4 - 3 is built on.
        assert_eq!(P64 % 12, 5);
        assert!(!KoalaBear::MULTIPLICATIVE_GENERATOR.is_quadratic_residue());
        assert!(KoalaBear::from_u64(4).is_quadratic_residue());
    }

    #[test]
    fn roots_of_unity_have_exact_order() {
        // Every table entry against the derivation it replaces:
        // g^((p-1) / 2^24), squared down to the requested order.
        let mut derived = KoalaBear::MULTIPLICATIVE_GENERATOR.exp_u64((P64 - 1) >> 24);
        for bits in (0..=24usize).rev() {
            let w = KoalaBear::primitive_root_of_unity(bits);
            assert_eq!(w, derived, "bits={bits}");
            assert_eq!(w.exp_u64(1 << bits), KoalaBear::ONE, "bits={bits}");
            if bits > 0 {
                assert_ne!(w.exp_u64(1 << (bits - 1)), KoalaBear::ONE, "bits={bits}");
            }
            derived = derived.square();
        }
    }

    #[test]
    #[should_panic(expected = "two-adicity")]
    fn root_of_unity_too_large_panics() {
        let _ = KoalaBear::primitive_root_of_unity(25);
    }

    #[test]
    fn random_is_canonical_and_varied() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..128 {
            let x = KoalaBear::random(&mut rng);
            assert!(x.as_u64() < P64);
            seen.insert(x);
        }
        assert!(seen.len() > 100, "suspiciously repetitive sampling");
    }

    #[test]
    fn ordering_is_canonical_not_montgomery() {
        let one = KoalaBear::ONE;
        let two = KoalaBear::TWO;
        assert!(one < two);
        let big = KoalaBear::from_u64(P64 - 1);
        assert!(two < big);
    }

    #[test]
    fn exp_and_square_consistency() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..64 {
            let x = KoalaBear::random(&mut rng);
            assert_eq!(x.square(), x * x);
            assert_eq!(x.double(), x + x);
            assert_eq!(x.exp_u64(5), x * x * x * x * x);
        }
    }
}
