//! The Goldilocks field `p = 2^64 - 2^32 + 1`.
//!
//! This is the base field of Plonky2 and Starky, and the word size of every
//! modular adder/multiplier in the UniZK processing elements (paper §4).
//! The special form of `p` makes reduction cheap: `2^64 ≡ 2^32 - 1 (mod p)`
//! and `2^96 ≡ -1 (mod p)`, so a 128-bit product reduces with a handful of
//! 64-bit adds — the same trick the paper's "simplified Goldilocks field
//! operations" exploit in hardware.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};


use crate::traits::{Field, PrimeField64};

/// The field order `p = 2^64 - 2^32 + 1`.
pub const P: u64 = 0xFFFF_FFFF_0000_0001;

/// `2^32 - 1`, i.e. `2^64 mod p`.
const EPSILON: u64 = 0xFFFF_FFFF;

/// `ROOTS_OF_UNITY[bits]` is the primitive `2^bits`-th root of unity every
/// transform and domain uses: `g^((p-1) / 2^32)`, of order exactly `2^32`,
/// squared down to the requested order.
const ROOTS_OF_UNITY: [Goldilocks; Goldilocks::TWO_ADICITY + 1] = {
    const fn mul(a: Goldilocks, b: Goldilocks) -> Goldilocks {
        Goldilocks::from_residue(Goldilocks::reduce128_residue((a.0 as u128) * (b.0 as u128)))
    }
    // Square-and-multiply (`Field::exp_u64` is not `const`).
    let mut root = Goldilocks::ONE;
    let mut base = Goldilocks::MULTIPLICATIVE_GENERATOR;
    let mut exp = (P - 1) >> Goldilocks::TWO_ADICITY;
    while exp != 0 {
        if exp & 1 == 1 {
            root = mul(root, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    let mut table = [Goldilocks::ONE; Goldilocks::TWO_ADICITY + 1];
    let mut bits = Goldilocks::TWO_ADICITY;
    while bits > 0 {
        table[bits] = root;
        root = mul(root, root);
        bits -= 1;
    }
    table
};

/// An element of the Goldilocks field, stored in canonical form `0 <= x < p`.
///
/// # Invariant
///
/// The inner `u64` is always reduced: constructors reduce on entry
/// ([`Field::from_u64`], [`Goldilocks::from_canonical`]) or
/// debug-assert canonicity ([`Goldilocks::new`]), and every arithmetic
/// result is reduced before it is stored. Because representatives are
/// unique, the derived `PartialEq`/`Ord`/`Hash` agree with field equality
/// and [`Field::as_u64`] round-trips losslessly.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
///
/// let x = Goldilocks::from_u64(u64::MAX); // reduced mod p on entry
/// assert!(x.as_u64() < 0xFFFF_FFFF_0000_0001);
/// assert_eq!(Goldilocks::from_u64(2) + Goldilocks::NEG_ONE + Goldilocks::ONE,
///            Goldilocks::from_u64(2));
/// ```
#[derive(Copy, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Goldilocks(u64);

impl Goldilocks {
    /// `p - 1`, i.e. `-1` in the field.
    pub const NEG_ONE: Self = Self(P - 1);

    /// Creates an element from a canonical value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value >= p`. Use [`Field::from_u64`] for
    /// values that may need reduction.
    #[inline]
    pub const fn new(value: u64) -> Self {
        debug_assert!(value < P);
        Self(value)
    }

    /// Creates an element, reducing `value` modulo `p`.
    #[inline]
    pub const fn from_canonical(value: u64) -> Self {
        if value >= P {
            Self(value - P)
        } else {
            Self(value)
        }
    }

    /// Reduces a 128-bit integer modulo `p`.
    ///
    /// Writes `n = lo + mid * 2^64 + hi * 2^96` with `mid` the bits 64..96
    /// and `hi` the bits 96..128; then `n ≡ lo + mid * (2^32 - 1) - hi`.
    #[inline]
    pub fn reduce128(n: u128) -> Self {
        Self::from_residue(Self::reduce128_residue(n))
    }

    /// Reduces a 128-bit integer to a *residue*: a value `< 2^64` congruent
    /// to `n` mod `p`, but not necessarily canonical (it may lie in
    /// `[p, 2^64)`).
    ///
    /// Residues are the lazy-reduction currency of the Poseidon hot path:
    /// chains of multiplies and small-constant dot products stay in residue
    /// form and pay the final `r >= p` correction once, via
    /// [`Goldilocks::from_residue`], when a canonical element is needed.
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // word splitting is the reduction
    pub const fn reduce128_residue(n: u128) -> u64 {
        let lo = n as u64;
        let high = (n >> 64) as u64;
        let mid = high & EPSILON; // bits 64..96
        let hi = high >> 32; // bits 96..128

        // t = lo - hi  (mod p)
        let (mut t, borrow) = lo.overflowing_sub(hi);
        if borrow {
            // lo < hi <= 2^32 - 1, so adding p back cannot overflow.
            t = t.wrapping_add(P);
        }
        // t += mid * (2^32 - 1) = (mid << 32) - mid; the addend is < 2^64 - 2^32
        // so a single conditional correction suffices after a wrapping add.
        let addend = (mid << 32) - mid;
        let (res, carry) = t.overflowing_add(addend);
        if carry {
            // 2^64 ≡ 2^32 - 1: fold the carry back in. Cannot carry again
            // because res < 2^64 - 2^32 after an overflowing add whose addend
            // is < 2^64 - 2^32.
            res.wrapping_add(EPSILON)
        } else {
            res
        }
    }

    /// Reduces an integer `n < 2^96` to a residue `< 2^64` (see
    /// [`Goldilocks::reduce128_residue`] for the residue contract).
    ///
    /// Skipping the `hi * 2^96` limb drops the borrow-correction step of the
    /// full reduction, which is what makes small-constant dot products (MDS
    /// rows, sparse partial-round updates) cheaper than generic products.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `n < 2^96`.
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // word splitting is the reduction
    pub fn reduce96_residue(n: u128) -> u64 {
        let lo = n as u64;
        let mid = (n >> 64) as u64; // bits 64..96
        debug_assert!(mid <= EPSILON, "reduce96_residue input has bits above 2^96");
        let addend = (mid << 32) - mid;
        let (res, carry) = lo.overflowing_add(addend);
        if carry {
            res.wrapping_add(EPSILON)
        } else {
            res
        }
    }

    /// Multiplies two residues (`< 2^64`, not necessarily canonical) into a
    /// residue `< 2^64`.
    #[inline]
    pub fn mul_residue(a: u64, b: u64) -> u64 {
        Self::reduce128_residue(u128::from(a) * u128::from(b))
    }

    /// Adds a **canonical** constant `c < p` to a residue `a < 2^64`,
    /// yielding a residue `< 2^64`.
    ///
    /// One overflow fold suffices: the wrapped sum is `< p < 2^64 - 2^32`,
    /// so folding `2^32 - 1` back in cannot overflow again. The bound does
    /// *not* hold for two arbitrary residues — that is why `c` must be
    /// canonical (debug-asserted).
    #[inline]
    pub fn add_residue(a: u64, c: u64) -> u64 {
        debug_assert!(c < P, "add_residue constant must be canonical");
        let (sum, over) = a.overflowing_add(c);
        if over {
            sum.wrapping_add(EPSILON)
        } else {
            sum
        }
    }

    /// Canonicalizes a residue `r < 2^64` into a field element.
    ///
    /// A single conditional subtraction suffices because `2^64 < 2p`.
    #[inline]
    pub const fn from_residue(r: u64) -> Self {
        Self(if r >= P { r - P } else { r })
    }

    /// The canonical representative in `[0, p)`.
    #[inline]
    pub const fn as_canonical_u64(&self) -> u64 {
        self.0
    }

    /// Interprets the low 32 bits of `value` as a field element.
    #[inline]
    pub const fn from_u32(value: u32) -> Self {
        Self(value as u64)
    }

    /// `x * 2^exp` without materialising the power of two.
    #[inline]
    pub fn mul_pow2(&self, exp: usize) -> Self {
        let mut r = *self;
        for _ in 0..exp {
            r = r.double();
        }
        r
    }

    /// Euler-criterion quadratic-residue test: `x^((p-1)/2) == 1`.
    pub fn is_quadratic_residue(&self) -> bool {
        if self.is_zero() {
            return true;
        }
        self.exp_u64((P - 1) / 2) == Self::ONE
    }
}

impl Field for Goldilocks {
    const ZERO: Self = Self(0);
    const ONE: Self = Self(1);
    const TWO: Self = Self(2);

    #[inline]
    fn from_u64(n: u64) -> Self {
        Self(n % P)
    }

    #[inline]
    fn as_u64(&self) -> u64 {
        self.0
    }

    fn try_inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // Fermat: x^(p-2). Fine for a simulator; hardware would use the same
        // multiplier datapath.
        Some(self.exp_u64(P - 2))
    }
}

impl PrimeField64 for Goldilocks {
    const ORDER: u64 = P;
    const TWO_ADICITY: usize = 32;
    const MULTIPLICATIVE_GENERATOR: Self = Self(7);
    const BITS: usize = 64;
    const BYTES: usize = 8;

    fn primitive_root_of_unity(bits: usize) -> Self {
        assert!(
            bits <= Self::TWO_ADICITY,
            "requested 2^{bits}-th root of unity but two-adicity is {}",
            Self::TWO_ADICITY
        );
        ROOTS_OF_UNITY[bits]
    }

    fn random<R: unizk_testkit::rng::Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling keeps the distribution uniform.
        loop {
            let v: u64 = rng.next_u64();
            if v < P {
                return Self(v);
            }
        }
    }
}

impl Add for Goldilocks {
    type Output = Self;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        let (sum, over) = self.0.overflowing_add(rhs.0);
        let mut r = sum;
        if over {
            // Both operands < p < 2^64, so the folded value is < p.
            r = r.wrapping_add(EPSILON);
        }
        if r >= P {
            r -= P;
        }
        Self(r)
    }
}

impl Sub for Goldilocks {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (diff, borrow) = self.0.overflowing_sub(rhs.0);
        Self(if borrow { diff.wrapping_add(P) } else { diff })
    }
}

impl Mul for Goldilocks {
    type Output = Self;

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::reduce128((self.0 as u128) * (rhs.0 as u128))
    }
}

impl Div for Goldilocks {
    type Output = Self;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inverse()
    }
}

impl Neg for Goldilocks {
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

impl AddAssign for Goldilocks {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Goldilocks {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Goldilocks {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Goldilocks {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl Product for Goldilocks {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl From<u32> for Goldilocks {
    fn from(value: u32) -> Self {
        Self(value as u64)
    }
}

impl From<u64> for Goldilocks {
    fn from(value: u64) -> Self {
        Self::from_u64(value)
    }
}

impl From<Goldilocks> for u64 {
    fn from(value: Goldilocks) -> Self {
        value.0
    }
}

impl fmt::Debug for Goldilocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Goldilocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::LowerHex for Goldilocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Goldilocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // reference results are < p, which fits u64
mod tests {
    use super::*;
    use unizk_testkit::rng::{Rng, TestRng as StdRng};

    fn ref_mul(a: u64, b: u64) -> u64 {
        (((a as u128) * (b as u128)) % (P as u128)) as u64
    }

    fn ref_add(a: u64, b: u64) -> u64 {
        (((a as u128) + (b as u128)) % (P as u128)) as u64
    }

    #[test]
    fn p_has_expected_form() {
        assert_eq!(P as u128, (1u128 << 64) - (1u128 << 32) + 1);
    }

    #[test]
    fn add_matches_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let a: u64 = rng.gen_range(0..P);
            let b: u64 = rng.gen_range(0..P);
            assert_eq!(
                (Goldilocks(a) + Goldilocks(b)).0,
                ref_add(a, b),
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn mul_matches_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let a: u64 = rng.gen_range(0..P);
            let b: u64 = rng.gen_range(0..P);
            assert_eq!(
                (Goldilocks(a) * Goldilocks(b)).0,
                ref_mul(a, b),
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn mul_edge_cases() {
        let edge = [0, 1, 2, EPSILON, EPSILON + 1, P - 2, P - 1];
        for &a in &edge {
            for &b in &edge {
                assert_eq!((Goldilocks(a) * Goldilocks(b)).0, ref_mul(a, b));
            }
        }
    }

    #[test]
    fn reduce128_edge_cases() {
        for n in [
            0u128,
            1,
            P as u128,
            (P as u128) + 1,
            u64::MAX as u128,
            (u64::MAX as u128) + 1,
            u128::MAX,
            (P as u128) * (P as u128), // largest product of canonical values
            ((P - 1) as u128) * ((P - 1) as u128),
        ] {
            assert_eq!(
                Goldilocks::reduce128(n).0,
                (n % (P as u128)) as u64,
                "n={n}"
            );
        }
    }

    #[test]
    fn residue_ops_match_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            // Residue inputs may be anywhere in [0, 2^64), not just [0, p).
            let a: u64 = rng.next_u64();
            let b: u64 = rng.next_u64();
            let want = ((a as u128) * (b as u128) % (P as u128)) as u64;
            let r = Goldilocks::mul_residue(a, b);
            assert_eq!(r % P, want, "a={a} b={b}");
            assert_eq!(Goldilocks::from_residue(r).0, want);

            let c: u64 = rng.gen_range(0..P);
            let s = Goldilocks::add_residue(a, c);
            assert_eq!(s % P, ((a as u128 + c as u128) % (P as u128)) as u64);
        }
    }

    #[test]
    fn reduce96_residue_matches_full_reduction() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10_000 {
            // Any value below 2^96 is in contract; bias toward the top.
            let n = (rng.next_u64() as u128) | ((rng.gen_range(0..=u32::MAX as u64) as u128) << 64);
            assert_eq!(
                Goldilocks::reduce96_residue(n) % P,
                (n % (P as u128)) as u64,
                "n={n}"
            );
        }
        for n in [0u128, 1, (1 << 96) - 1, P as u128, u64::MAX as u128 + 1] {
            assert_eq!(Goldilocks::reduce96_residue(n) % P, (n % (P as u128)) as u64);
        }
    }

    #[test]
    fn from_residue_canonicalizes() {
        assert_eq!(Goldilocks::from_residue(0).0, 0);
        assert_eq!(Goldilocks::from_residue(P - 1).0, P - 1);
        assert_eq!(Goldilocks::from_residue(P).0, 0);
        assert_eq!(Goldilocks::from_residue(u64::MAX).0, u64::MAX - P);
    }

    #[test]
    fn sub_and_neg() {
        let a = Goldilocks::from_u64(3);
        let b = Goldilocks::from_u64(10);
        assert_eq!(a - b, -(b - a));
        assert_eq!((a - b) + (b - a), Goldilocks::ZERO);
        assert_eq!(-Goldilocks::ZERO, Goldilocks::ZERO);
        assert_eq!(-Goldilocks::ONE, Goldilocks::NEG_ONE);
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let a = Goldilocks::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse(), Goldilocks::ONE);
        }
        assert!(Goldilocks::ZERO.try_inverse().is_none());
        assert_eq!(Goldilocks::ONE.inverse(), Goldilocks::ONE);
    }

    #[test]
    fn exponentiation() {
        let g = Goldilocks::from_u64(3);
        assert_eq!(g.exp_u64(0), Goldilocks::ONE);
        assert_eq!(g.exp_u64(1), g);
        assert_eq!(g.exp_u64(5), g * g * g * g * g);
        // Fermat's little theorem.
        assert_eq!(g.exp_u64(P - 1), Goldilocks::ONE);
    }

    #[test]
    fn roots_of_unity_have_exact_order() {
        // Every table entry against the derivation it replaces:
        // g^((p-1) / 2^32), squared down to the requested order.
        let mut derived = Goldilocks::MULTIPLICATIVE_GENERATOR.exp_u64((P - 1) >> 32);
        for bits in (0..=32usize).rev() {
            let w = Goldilocks::primitive_root_of_unity(bits);
            assert_eq!(w, derived, "bits={bits}");
            assert_eq!(w.exp_u64(1 << bits), Goldilocks::ONE, "bits={bits}");
            if bits > 0 {
                assert_ne!(w.exp_u64(1 << (bits - 1)), Goldilocks::ONE, "bits={bits}");
            }
            derived = derived.square();
        }
    }

    #[test]
    #[should_panic(expected = "two-adicity")]
    fn root_of_unity_too_large_panics() {
        let _ = Goldilocks::primitive_root_of_unity(33);
    }

    #[test]
    fn generator_is_not_a_residue() {
        // 7 generates the full group, so it cannot be a square.
        assert!(!Goldilocks::MULTIPLICATIVE_GENERATOR.is_quadratic_residue());
        assert!(Goldilocks::from_u64(4).is_quadratic_residue());
    }

    #[test]
    fn display_and_hex() {
        let x = Goldilocks::from_u64(255);
        assert_eq!(format!("{x}"), "255");
        assert_eq!(format!("{x:x}"), "ff");
        assert_eq!(format!("{x:X}"), "FF");
        assert_eq!(format!("{x:?}"), "255");
    }

    #[test]
    fn from_u64_reduces() {
        assert_eq!(Goldilocks::from_u64(P).0, 0);
        assert_eq!(Goldilocks::from_u64(P + 5).0, 5);
        assert_eq!(Goldilocks::from_u64(u64::MAX).0, u64::MAX - P);
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs: Vec<Goldilocks> = (1..=5u64).map(Goldilocks::from_u64).collect();
        assert_eq!(xs.iter().copied().sum::<Goldilocks>().0, 15);
        assert_eq!(xs.iter().copied().product::<Goldilocks>().0, 120);
    }

    #[test]
    fn random_is_canonical() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(Goldilocks::random(&mut rng).0 < P);
        }
    }

    #[test]
    fn mul_pow2_matches_shift() {
        let x = Goldilocks::from_u64(12345);
        for e in 0..80 {
            assert_eq!(x.mul_pow2(e), x * Goldilocks::TWO.exp_u64(e as u64));
        }
    }

    #[test]
    fn serde_roundtrip() {
        // serde is plumbed through harness output; check the transparent repr.
        let x = Goldilocks::from_u64(42);
        let v = serde_json_like(x);
        assert_eq!(v, 42);
    }

    fn serde_json_like(x: Goldilocks) -> u64 {
        // Avoid a serde_json dependency: the transparent newtype round-trips
        // through its inner u64.
        x.as_canonical_u64()
    }
}
