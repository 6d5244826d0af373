//! The quartic extension field `Fp[x] / (x^4 - W)` over KoalaBear.
//!
//! A 31-bit base field offers nowhere near enough challenge entropy for
//! FRI — a single KoalaBear element carries ~31 bits, so Schwartz–Zippel
//! over the base field caps soundness at 31 bits. The Plonky3 stacks
//! therefore draw challenges from a *degree-4* binomial extension
//! (4 × 31 = 124 bits), and this type mirrors that choice: `W = 3`, the
//! field's multiplicative generator, which is a quadratic non-residue
//! (`p ≡ 5 (mod 12)`). For `p ≡ 1 (mod 4)` and `W` a non-square, `x^4 - W`
//! is irreducible over `Fp`, so the quotient ring is a field — both facts
//! are pinned by unit tests below.
//!
//! Inversion uses the Frobenius-conjugate method: with `φ = W^((p-1)/4)` a
//! primitive 4th root of unity, the map `a_i·x^i ↦ a_i·φ^i·x^i` is the
//! Frobenius `a ↦ a^p`; the product of the three conjugates times `a`
//! lands in the base field (the norm), leaving one base-field inversion.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::koalabear::KoalaBear;
use crate::traits::{ExtensionOf, Field, PrimeField64, ProtocolField};

impl ProtocolField for KoalaBear {
    type Ext = KbExt4;
}

/// The non-residue `W = 3` defining the extension `x^4 = W`.
pub const W4: KoalaBear = KoalaBear::new(3);

/// An element `a0 + a1·x + a2·x^2 + a3·x^3` of the quartic extension of
/// KoalaBear.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, KbExt4, KoalaBear};
///
/// let x = KbExt4::X;
/// // x^4 = W = 3 in the base field.
/// assert_eq!(x * x * x * x, KbExt4::from(KoalaBear::from_u64(3)));
/// ```
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash)]
pub struct KbExt4(pub [KoalaBear; 4]);

impl KbExt4 {
    /// The generator `x` of the extension (a fourth root of `W`).
    pub const X: Self = Self([
        KoalaBear::new(0),
        KoalaBear::new(1),
        KoalaBear::new(0),
        KoalaBear::new(0),
    ]);

    /// Builds an element from its four limbs, lowest degree first.
    pub const fn new(limbs: [KoalaBear; 4]) -> Self {
        Self(limbs)
    }

    /// Samples a uniform element.
    pub fn random<R: unizk_testkit::rng::Rng + ?Sized>(rng: &mut R) -> Self {
        Self([
            KoalaBear::random(rng),
            KoalaBear::random(rng),
            KoalaBear::random(rng),
            KoalaBear::random(rng),
        ])
    }

    /// The Frobenius `a ↦ a^(p^count)`: multiplies limb `i` by `φ^(i·count)`
    /// where `φ = W^((p-1)/4)` (a primitive 4th root of unity, so `φ^2 = -1`).
    fn repeated_frobenius(&self, count: usize) -> Self {
        let phi = W4.exp_u64((KoalaBear::ORDER - 1) / 4);
        let step = phi.exp_u64(count as u64);
        let mut mult = KoalaBear::ONE;
        let mut out = [KoalaBear::ZERO; 4];
        for (o, a) in out.iter_mut().zip(self.0.iter()) {
            *o = *a * mult;
            mult *= step;
        }
        Self(out)
    }

    /// The norm `a · a^p · a^(p^2) · a^(p^3)`, an element of the base field.
    pub fn norm(&self) -> KoalaBear {
        let conj = self.repeated_frobenius(1) * self.repeated_frobenius(2) * self.repeated_frobenius(3);
        let n = *self * conj;
        debug_assert!(
            n.0[1].is_zero() && n.0[2].is_zero() && n.0[3].is_zero(),
            "norm must be a base-field element"
        );
        n.0[0]
    }
}

impl Field for KbExt4 {
    const ZERO: Self = Self([KoalaBear::new(0); 4]);
    const ONE: Self = Self([
        KoalaBear::new(1),
        KoalaBear::new(0),
        KoalaBear::new(0),
        KoalaBear::new(0),
    ]);
    const TWO: Self = Self([
        KoalaBear::new(2),
        KoalaBear::new(0),
        KoalaBear::new(0),
        KoalaBear::new(0),
    ]);

    fn from_u64(n: u64) -> Self {
        Self::from(KoalaBear::from_u64(n))
    }

    fn as_u64(&self) -> u64 {
        self.0[0].as_u64()
    }

    fn try_inverse(&self) -> Option<Self> {
        if *self == Self::ZERO {
            return None;
        }
        // a^-1 = (a^p · a^(p^2) · a^(p^3)) / N(a).
        let conj = self.repeated_frobenius(1) * self.repeated_frobenius(2) * self.repeated_frobenius(3);
        let n = *self * conj;
        let norm_inv = n.0[0].try_inverse()?;
        Some(conj.scale(norm_inv))
    }
}

impl ExtensionOf<KoalaBear> for KbExt4 {
    const DEGREE: usize = 4;

    fn as_base_slice(&self) -> &[KoalaBear] {
        &self.0
    }

    fn from_base_slice(limbs: &[KoalaBear]) -> Self {
        assert_eq!(limbs.len(), 4, "KbExt4 needs exactly 4 limbs");
        Self([limbs[0], limbs[1], limbs[2], limbs[3]])
    }

    fn scale(&self, s: KoalaBear) -> Self {
        Self([self.0[0] * s, self.0[1] * s, self.0[2] * s, self.0[3] * s])
    }
}

impl From<KoalaBear> for KbExt4 {
    fn from(value: KoalaBear) -> Self {
        Self([value, KoalaBear::ZERO, KoalaBear::ZERO, KoalaBear::ZERO])
    }
}

impl Add for KbExt4 {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
        ])
    }
}

impl Sub for KbExt4 {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
            self.0[3] - rhs.0[3],
        ])
    }
}

// `times_w` spells `W·b` as two modular adds.
const _: () = assert!(W4.as_canonical_u32() == 3);

/// `W·b` for `W = 3`: two modular adds, no product.
#[inline(always)]
fn times_w(b: KoalaBear) -> KoalaBear {
    b + b + b
}

impl Mul for KbExt4 {
    type Output = Self;

    /// The schoolbook product folded by `x⁴ = W`, with `W` moved onto the
    /// right operand (`w_j = W·b_j`, modular adds) so that every output limb
    /// is one four-term dot product of `a` with a rotation of `(b, w)`,
    /// reduced once (`KoalaBear::dot_product`): 16 products and 4
    /// Montgomery reductions where the term-by-term form pays 19 of each.
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let a = &self.0;
        let [b0, b1, b2, b3] = rhs.0;
        let (w1, w2, w3) = (times_w(b1), times_w(b2), times_w(b3));
        Self([
            KoalaBear::dot_product(a, &[b0, w3, w2, w1]),
            KoalaBear::dot_product(a, &[b1, b0, w3, w2]),
            KoalaBear::dot_product(a, &[b2, b1, b0, w3]),
            KoalaBear::dot_product(a, &[b3, b2, b1, b0]),
        ])
    }
}

impl Div for KbExt4 {
    type Output = Self;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inverse()
    }
}

impl Neg for KbExt4 {
    type Output = Self;

    fn neg(self) -> Self {
        Self([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }
}

impl AddAssign for KbExt4 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for KbExt4 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for KbExt4 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for KbExt4 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl Product for KbExt4 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl fmt::Debug for KbExt4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({} + {}·x + {}·x² + {}·x³)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for KbExt4 {
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
        // For p ≡ 1 (mod 4), x^4 - W is irreducible iff W is a non-square
        // (its square roots then live in the quadratic layer, not Fp).
        assert_eq!(KoalaBear::ORDER % 4, 1);
        assert!(!W4.is_quadratic_residue());
    }

    #[test]
    fn x_to_the_fourth_is_w() {
        let x = KbExt4::X;
        assert_eq!(x * x * x * x, KbExt4::from(W4));
    }

    #[test]
    fn phi_is_a_primitive_fourth_root() {
        let phi = W4.exp_u64((KoalaBear::ORDER - 1) / 4);
        assert_eq!(phi * phi, -KoalaBear::ONE);
        assert_ne!(phi, KoalaBear::ONE);
    }

    #[test]
    fn frobenius_is_the_p_power_map() {
        let mut rng = StdRng::seed_from_u64(40);
        for _ in 0..16 {
            let a = KbExt4::random(&mut rng);
            let frob = a.repeated_frobenius(1);
            // a^p via square-and-multiply in the extension.
            let mut pow = KbExt4::ONE;
            let mut base = a;
            let mut e = KoalaBear::ORDER;
            while e != 0 {
                if e & 1 == 1 {
                    pow *= base;
                }
                base = base.square();
                e >>= 1;
            }
            assert_eq!(frob, pow);
        }
    }

    #[test]
    fn field_axioms_spot_checks() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let a = KbExt4::random(&mut rng);
            let b = KbExt4::random(&mut rng);
            let c = KbExt4::random(&mut rng);
            assert_eq!(a + b, b + a);
            assert_eq!(a * b, b * a);
            assert_eq!((a + b) * c, a * c + b * c);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a + KbExt4::ZERO, a);
            assert_eq!(a * KbExt4::ONE, a);
            assert_eq!(a - a, KbExt4::ZERO);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let a = KbExt4::random(&mut rng);
            if a == KbExt4::ZERO {
                continue;
            }
            assert_eq!(a * a.inverse(), KbExt4::ONE);
        }
        assert!(KbExt4::ZERO.try_inverse().is_none());
        // Base-field embeddings invert to embedded base inverses.
        let s = KoalaBear::from_u64(1234);
        assert_eq!(KbExt4::from(s).inverse(), KbExt4::from(s.inverse()));
    }

    #[test]
    fn embedding_is_a_homomorphism() {
        let a = KoalaBear::from_u64(123);
        let b = KoalaBear::from_u64(456);
        assert_eq!(KbExt4::from(a) * KbExt4::from(b), KbExt4::from(a * b));
        assert_eq!(KbExt4::from(a) + KbExt4::from(b), KbExt4::from(a + b));
    }

    #[test]
    fn scale_matches_mul_by_embedded() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = KbExt4::random(&mut rng);
        let s = KoalaBear::from_u64(99);
        assert_eq!(a.scale(s), a * KbExt4::from(s));
    }

    #[test]
    fn base_slice_roundtrip() {
        let a = KbExt4::new([
            KoalaBear::from_u64(1),
            KoalaBear::from_u64(2),
            KoalaBear::from_u64(3),
            KoalaBear::from_u64(4),
        ]);
        let limbs = a.as_base_slice();
        assert_eq!(limbs.len(), 4);
        assert_eq!(KbExt4::from_base_slice(limbs), a);
    }

    /// The term-by-term product the shipped one replaces: 19 base products,
    /// each reduced, folded by `x⁴ = W`.
    fn mul_schoolbook(a: KbExt4, b: KbExt4) -> KbExt4 {
        let [a0, a1, a2, a3] = a.0;
        let [b0, b1, b2, b3] = b.0;
        KbExt4([
            a0 * b0 + W4 * (a1 * b3 + a2 * b2 + a3 * b1),
            a0 * b1 + a1 * b0 + W4 * (a2 * b3 + a3 * b2),
            a0 * b2 + a1 * b1 + a2 * b0 + W4 * (a3 * b3),
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        ])
    }

    #[test]
    fn times_w_is_w() {
        let p = KoalaBear::ORDER;
        for v in [0, 1, 2, p / 3, p / 2, p - 1] {
            let b = KoalaBear::from_u64(v);
            assert_eq!(times_w(b), W4 * b, "b={v}");
        }
    }

    #[test]
    fn mul_matches_schoolbook_on_random_limbs() {
        let mut rng = StdRng::seed_from_u64(46);
        for _ in 0..4096 {
            let a = KbExt4::random(&mut rng);
            let b = KbExt4::random(&mut rng);
            assert_eq!(a * b, mul_schoolbook(a, b), "{a:?} * {b:?}");
        }
    }

    #[test]
    fn mul_matches_schoolbook_on_extreme_limbs() {
        // What the one-reduction sum sees are Montgomery residues: all four
        // limbs at residue p − 1 make output limb 3 exactly 4(p − 1)², the
        // bound `DOT_TERMS` is sized by (the other limbs carry W·(p − 1),
        // residue p − 3). Canonical p − 1 and small limbs ride along.
        let top_residue = KoalaBear::from_montgomery(crate::koalabear::P - 1);
        let top = KoalaBear::from_u64(KoalaBear::ORDER - 1);
        let all = KbExt4([top_residue; 4]);
        assert_eq!(all * all, mul_schoolbook(all, all));
        let edges = [
            KoalaBear::ZERO,
            KoalaBear::ONE,
            KoalaBear::TWO,
            top,
            top_residue,
        ];
        let mut elements = Vec::new();
        for a in edges {
            for b in edges {
                for c in edges {
                    elements.extend(edges.map(|d| KbExt4([a, b, c, d])));
                }
            }
        }
        for &a in &elements {
            for &b in &elements {
                assert_eq!(a * b, mul_schoolbook(a, b), "{a:?} * {b:?}");
            }
        }
    }

    #[test]
    fn mul_folds_x_to_the_fourth_into_w() {
        // x^k = W^(k div 4) · x^(k mod 4), walked with the shipped product.
        let mut pow = KbExt4::ONE;
        for k in 0..12usize {
            let mut expect = KbExt4::ZERO;
            expect.0[k % 4] = W4.exp_u64((k / 4) as u64);
            assert_eq!(pow, expect, "x^{k}");
            pow *= KbExt4::X;
        }
    }

    #[test]
    fn norm_is_multiplicative_and_base_valued() {
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..100 {
            let a = KbExt4::random(&mut rng);
            let b = KbExt4::random(&mut rng);
            assert_eq!((a * b).norm(), a.norm() * b.norm());
        }
    }

    #[test]
    fn multiplicative_order_sanity() {
        // The unit group has order p^4 - 1; a random element to that power
        // is one (Lagrange), which exercises mul deeply.
        let mut rng = StdRng::seed_from_u64(45);
        let a = KbExt4::random(&mut rng);
        // a^(p^4) = a — equivalently frobenius^4 = id.
        assert_eq!(a.repeated_frobenius(4), a);
    }
}
