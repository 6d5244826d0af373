//! The quadratic extension field `Fp[x] / (x^2 - W)` over Goldilocks.
//!
//! Plonky2 draws its soundness-critical random challenges from this degree-2
//! extension (paper §4: "usually a quadratic extension with D=2 is
//! employed"). We use `W = 7`, which is a non-residue in Goldilocks (checked
//! by a unit test via Euler's criterion), so `x^2 - W` is irreducible.
//!
//! In the accelerator each extension element is processed as two 64-bit
//! limbs on the base-field datapath; this type mirrors that layout.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};


use crate::goldilocks::Goldilocks;
use crate::traits::{ExtensionOf, Field, PrimeField64, ProtocolField};

impl ProtocolField for Goldilocks {
    type Ext = Ext2;
}

/// The non-residue `W` defining the extension `x^2 = W`.
pub const W: Goldilocks = Goldilocks::new(7);

/// An element `a0 + a1·x` of the quadratic extension of Goldilocks.
///
/// # Example
///
/// ```
/// use unizk_field::{Ext2, Field, Goldilocks};
///
/// let x = Ext2::X;
/// // x^2 = W = 7 in the base field.
/// assert_eq!(x * x, Ext2::from(Goldilocks::from_u64(7)));
/// ```
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash)]
pub struct Ext2(pub [Goldilocks; 2]);

impl Ext2 {
    /// The generator `x` of the extension (a square root of `W`).
    pub const X: Self = Self([Goldilocks::new(0), Goldilocks::new(1)]);

    /// Builds an element from its two limbs `a0 + a1·x`.
    pub const fn new(a0: Goldilocks, a1: Goldilocks) -> Self {
        Self([a0, a1])
    }

    /// The degree-0 limb.
    pub const fn real(&self) -> Goldilocks {
        self.0[0]
    }

    /// The degree-1 limb.
    pub const fn imag(&self) -> Goldilocks {
        self.0[1]
    }

    /// The norm `a0^2 - W·a1^2`, an element of the base field.
    pub fn norm(&self) -> Goldilocks {
        self.0[0].square() - W * self.0[1].square()
    }

    /// Samples a uniform element.
    pub fn random<R: unizk_testkit::rng::Rng + ?Sized>(rng: &mut R) -> Self {
        Self([Goldilocks::random(rng), Goldilocks::random(rng)])
    }
}

impl Field for Ext2 {
    const ZERO: Self = Self([Goldilocks::new(0), Goldilocks::new(0)]);
    const ONE: Self = Self([Goldilocks::new(1), Goldilocks::new(0)]);
    const TWO: Self = Self([Goldilocks::new(2), Goldilocks::new(0)]);

    fn from_u64(n: u64) -> Self {
        Self([Goldilocks::from_u64(n), Goldilocks::ZERO])
    }

    fn as_u64(&self) -> u64 {
        self.0[0].as_u64()
    }

    fn try_inverse(&self) -> Option<Self> {
        // (a0 + a1 x)^-1 = (a0 - a1 x) / norm.
        let norm_inv = self.norm().try_inverse()?;
        Some(Self([self.0[0] * norm_inv, -self.0[1] * norm_inv]))
    }
}

impl ExtensionOf<Goldilocks> for Ext2 {
    const DEGREE: usize = 2;

    fn as_base_slice(&self) -> &[Goldilocks] {
        &self.0
    }

    fn from_base_slice(limbs: &[Goldilocks]) -> Self {
        assert_eq!(limbs.len(), 2, "Ext2 needs exactly 2 limbs");
        Self([limbs[0], limbs[1]])
    }

    fn scale(&self, s: Goldilocks) -> Self {
        Self([self.0[0] * s, self.0[1] * s])
    }
}

impl From<Goldilocks> for Ext2 {
    fn from(value: Goldilocks) -> Self {
        Self([value, Goldilocks::ZERO])
    }
}

impl Add for Ext2 {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self([self.0[0] + rhs.0[0], self.0[1] + rhs.0[1]])
    }
}

impl Sub for Ext2 {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self([self.0[0] - rhs.0[0], self.0[1] - rhs.0[1]])
    }
}

impl Mul for Ext2 {
    type Output = Self;

    fn mul(self, rhs: Self) -> Self {
        let [a0, a1] = self.0;
        let [b0, b1] = rhs.0;
        Self([a0 * b0 + W * a1 * b1, a0 * b1 + a1 * b0])
    }
}

impl Div for Ext2 {
    type Output = Self;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inverse()
    }
}

impl Neg for Ext2 {
    type Output = Self;

    fn neg(self) -> Self {
        Self([-self.0[0], -self.0[1]])
    }
}

impl AddAssign for Ext2 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Ext2 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Ext2 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Ext2 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl Product for Ext2 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl fmt::Debug for Ext2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} + {}·x)", self.0[0], self.0[1])
    }
}

impl fmt::Display for Ext2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_testkit::rng::TestRng as StdRng;

    #[test]
    fn w_is_a_non_residue() {
        // x^2 - W must be irreducible for Ext2 to be a field.
        assert!(!W.is_quadratic_residue());
    }

    #[test]
    fn x_squares_to_w() {
        assert_eq!(Ext2::X * Ext2::X, Ext2::from(W));
    }

    #[test]
    fn field_axioms_spot_checks() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let a = Ext2::random(&mut rng);
            let b = Ext2::random(&mut rng);
            let c = Ext2::random(&mut rng);
            assert_eq!(a + b, b + a);
            assert_eq!(a * b, b * a);
            assert_eq!((a + b) * c, a * c + b * c);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a + Ext2::ZERO, a);
            assert_eq!(a * Ext2::ONE, a);
            assert_eq!(a - a, Ext2::ZERO);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let a = Ext2::random(&mut rng);
            if a == Ext2::ZERO {
                continue;
            }
            assert_eq!(a * a.inverse(), Ext2::ONE);
        }
        assert!(Ext2::ZERO.try_inverse().is_none());
    }

    #[test]
    fn embedding_is_a_homomorphism() {
        let a = Goldilocks::from_u64(123);
        let b = Goldilocks::from_u64(456);
        assert_eq!(Ext2::from(a) * Ext2::from(b), Ext2::from(a * b));
        assert_eq!(Ext2::from(a) + Ext2::from(b), Ext2::from(a + b));
    }

    #[test]
    fn scale_matches_mul_by_embedded() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Ext2::random(&mut rng);
        let s = Goldilocks::from_u64(99);
        assert_eq!(a.scale(s), a * Ext2::from(s));
    }

    #[test]
    fn base_slice_roundtrip() {
        let a = Ext2::new(Goldilocks::from_u64(1), Goldilocks::from_u64(2));
        let limbs = a.as_base_slice();
        assert_eq!(limbs.len(), 2);
        assert_eq!(Ext2::from_base_slice(limbs), a);
    }

    #[test]
    fn norm_is_multiplicative() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            let a = Ext2::random(&mut rng);
            let b = Ext2::random(&mut rng);
            assert_eq!((a * b).norm(), a.norm() * b.norm());
        }
    }

    #[test]
    fn exp_in_extension() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Ext2::random(&mut rng);
        assert_eq!(a.exp_u64(3), a * a * a);
    }
}
