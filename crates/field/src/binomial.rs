//! Binomial extension fields `Fp[x] / (x^D - W)`.
//!
//! The protocol draws its soundness-critical random challenges from an
//! extension of the base field (paper §4: "usually a quadratic extension
//! with D=2 is employed"): Goldilocks takes `D = 2`, `W = 7`; KoalaBear,
//! whose single element carries only ~31 bits, takes `D = 4`, `W = 3`
//! (4 × 31 = 124 bits of Schwartz–Zippel room). Both are the same
//! construction, Plonky3's `BinomialExtensionField`: an element is `D`
//! base-field limbs, lowest degree first, which is also how the accelerator
//! streams it through the base-field datapath. Every operation is written
//! once here; a field opts in with [`BinomiallyExtendable`].
//!
//! `x^D - W` is irreducible when `D | p - 1`, `W` is not a square, and
//! `D ∈ {2, 4}` (for `D = 4` that needs `p ≡ 1 (mod 4)`, which `4 | p - 1`
//! gives) — pinned for both instantiations by the unit tests below.
//!
//! Inversion uses the Frobenius conjugates: with `φ = W^((p-1)/D)` a
//! primitive `D`-th root of unity, `a_i·x^i ↦ a_i·φ^i·x^i` is the Frobenius
//! `a ↦ a^p`; the product of the `D − 1` conjugates times `a` lands in the
//! base field (the norm), leaving one base-field inversion.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::traits::{ExtensionOf, Field, PrimeField64};

/// A prime field with a degree-`D` binomial extension `x^D = W`.
pub trait BinomiallyExtendable<const D: usize>: PrimeField64 {
    /// The non-residue `W` defining the extension `x^D = W`.
    const W: Self;

    /// `φ = W^((p-1)/D)`, a primitive `D`-th root of unity: the Frobenius
    /// multiplies limb `i` by `φ^i`.
    const DTH_ROOT: Self;

    /// `W·x`. A field whose `W` is small may spell it without a product.
    #[inline(always)]
    fn mul_w(x: Self) -> Self {
        Self::W * x
    }

    /// `Σ a_i·b_i`. A field may sum unreduced products and reduce once.
    #[inline(always)]
    fn dot_product(a: &[Self; D], b: &[Self; D]) -> Self {
        a.iter()
            .zip(b)
            .skip(1)
            .fold(a[0] * b[0], |acc, (&x, &y)| acc + x * y)
    }
}

/// An element `a_0 + a_1·x + … + a_{D-1}·x^{D-1}` of the degree-`D`
/// binomial extension of `F`. The shipped instantiations, [`Ext2`](crate::Ext2)
/// and [`KbExt4`](crate::KbExt4), each carry an example.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct BinomialExtension<F, const D: usize>(pub [F; D]);

impl<F: BinomiallyExtendable<D>, const D: usize> BinomialExtension<F, D> {
    /// The generator `x` of the extension (a `D`-th root of `W`).
    pub const X: Self = {
        let mut limbs = [F::ZERO; D];
        limbs[1] = F::ONE;
        Self(limbs)
    };

    /// Builds an element from its limbs, lowest degree first.
    pub const fn new(limbs: [F; D]) -> Self {
        Self(limbs)
    }

    /// The embedding of a base-field element (`const` for [`Field::ONE`]).
    const fn from_base(value: F) -> Self {
        let mut limbs = [F::ZERO; D];
        limbs[0] = value;
        Self(limbs)
    }

    /// Samples a uniform element.
    pub fn random<R: unizk_testkit::rng::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut limbs = [F::ZERO; D];
        for limb in &mut limbs {
            *limb = F::random(rng);
        }
        Self(limbs)
    }

    /// The Frobenius `a ↦ a^p`: limb `i` times `φ^i`.
    fn frobenius(&self) -> Self {
        let mut out = *self;
        let mut mult = F::ONE;
        for limb in &mut out.0[1..] {
            mult *= F::DTH_ROOT;
            *limb *= mult;
        }
        out
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Field for BinomialExtension<F, D> {
    const ZERO: Self = Self([F::ZERO; D]);
    const ONE: Self = Self::from_base(F::ONE);
    const TWO: Self = Self::from_base(F::TWO);

    fn from_u64(n: u64) -> Self {
        Self::from(F::from_u64(n))
    }

    fn as_u64(&self) -> u64 {
        self.0[0].as_u64()
    }

    fn try_inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // a^-1 = (a^p · … · a^(p^(D-1))) / N(a), N(a) = a · a^p · … in Fp.
        let mut conjugate = self.frobenius();
        let mut product = conjugate;
        for _ in 2..D {
            conjugate = conjugate.frobenius();
            product *= conjugate;
        }
        let norm = (*self * product).0[0];
        Some(product.scale(norm.try_inverse()?))
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> ExtensionOf<F> for BinomialExtension<F, D> {
    const DEGREE: usize = D;

    fn as_base_slice(&self) -> &[F] {
        &self.0
    }

    fn from_base_slice(limbs: &[F]) -> Self {
        Self(limbs.try_into().unwrap_or_else(|_| {
            panic!(
                "a degree-{D} extension element needs exactly {D} limbs, got {}",
                limbs.len()
            )
        }))
    }

    #[inline]
    fn from_base_fn(limb: impl FnMut(usize) -> F) -> Self {
        Self(core::array::from_fn(limb))
    }

    fn scale(&self, s: F) -> Self {
        let mut out = *self;
        for limb in &mut out.0 {
            *limb *= s;
        }
        out
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Default for BinomialExtension<F, D> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> From<F> for BinomialExtension<F, D> {
    fn from(value: F) -> Self {
        Self::from_base(value)
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Add for BinomialExtension<F, D> {
    type Output = Self;

    #[inline]
    fn add(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a += b;
        }
        self
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Sub for BinomialExtension<F, D> {
    type Output = Self;

    #[inline]
    fn sub(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a -= b;
        }
        self
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Neg for BinomialExtension<F, D> {
    type Output = Self;

    #[inline]
    fn neg(mut self) -> Self {
        for a in &mut self.0 {
            *a = -*a;
        }
        self
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Mul for BinomialExtension<F, D> {
    type Output = Self;

    /// The schoolbook product folded by `x^D = W`, with `W` moved onto the
    /// right operand (`w_j = W·b_j`) so that output limb `i` is one
    /// `D`-term dot product of `a` with a rotation of `(b, w)`:
    /// `(b_i, …, b_0, w_{D-1}, …, w_{i+1})`. `D − 1` products by `W` plus
    /// `D²` (Goldilocks: 5 products at `D = 2`; KoalaBear: `W` by two adds
    /// and 4 Montgomery reductions for the 16 products at `D = 4`).
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let b = rhs.0;
        // w[0] is never read: row i takes w_j only for j > i.
        let w = b.map(F::mul_w);
        Self(core::array::from_fn(|i| {
            let row = core::array::from_fn(|j| if j <= i { b[i - j] } else { w[D + i - j] });
            F::dot_product(&self.0, &row)
        }))
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Div for BinomialExtension<F, D> {
    type Output = Self;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inverse()
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> AddAssign for BinomialExtension<F, D> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> SubAssign for BinomialExtension<F, D> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> MulAssign for BinomialExtension<F, D> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Sum for BinomialExtension<F, D> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> Product for BinomialExtension<F, D> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> fmt::Debug for BinomialExtension<F, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.0[0])?;
        for (i, limb) in self.0.iter().enumerate().skip(1) {
            match i {
                1 => write!(f, " + {limb}·x")?,
                _ => write!(f, " + {limb}·x^{i}")?,
            }
        }
        write!(f, ")")
    }
}

impl<F: BinomiallyExtendable<D>, const D: usize> fmt::Display for BinomialExtension<F, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One `#[test]` per check of [`checks`] that takes no per-field input, at
/// the instantiation `BinomialExtension<$f, $d>`.
#[cfg(test)]
macro_rules! binomial_suite {
    ($f:ty, $d:literal) => {
        $crate::binomial::binomial_suite!(
            @each $f, $d;
            w_is_a_non_residue,
            dth_root_is_the_pinned_primitive_root,
            mul_w_is_w,
            frobenius_is_the_p_power_map,
            multiplicative_order_sanity,
            field_axioms_spot_checks,
            exp_in_extension,
            inverse_roundtrip,
            embedding_is_a_homomorphism,
            scale_matches_mul_by_embedded,
            base_slice_roundtrip,
            mul_matches_schoolbook_on_random_limbs,
        );
    };
    (@each $f:ty, $d:literal; $($check:ident),* $(,)?) => {$(
        #[test]
        fn $check() {
            $crate::binomial::checks::$check::<$f, $d>();
        }
    )*};
}
#[cfg(test)]
pub(crate) use binomial_suite;

/// The checks every instantiation is held to, written once over `(F, D)`.
/// The crate root runs them at `(Goldilocks, 2)` and `(KoalaBear, 4)`.
#[cfg(test)]
pub(crate) mod checks {
    use super::*;
    use unizk_testkit::rng::TestRng as StdRng;

    type E<F, const D: usize> = BinomialExtension<F, D>;

    fn rng<const D: usize>(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed + D as u64)
    }

    /// The term-by-term product the shipped one replaces: `D²` base
    /// products, each reduced, the wrapped ones times `W`.
    fn mul_schoolbook<F: BinomiallyExtendable<D>, const D: usize>(
        a: E<F, D>,
        b: E<F, D>,
    ) -> E<F, D> {
        let mut out = [F::ZERO; D];
        for (i, &x) in a.0.iter().enumerate() {
            for (j, &y) in b.0.iter().enumerate() {
                if i + j < D {
                    out[i + j] += x * y;
                } else {
                    out[i + j - D] += F::W * (x * y);
                }
            }
        }
        BinomialExtension(out)
    }

    pub fn w_is_a_non_residue<F: BinomiallyExtendable<D>, const D: usize>() {
        // For D ∈ {2, 4} and D | p − 1, x^D − W is irreducible iff W is
        // a non-square (its square roots then live in the quadratic
        // layer, not Fp).
        assert!(D == 2 || D == 4);
        assert_eq!((F::ORDER - 1) % D as u64, 0);
        assert_ne!(F::W.exp_u64((F::ORDER - 1) / 2), F::ONE);
    }

    pub fn dth_root_is_the_pinned_primitive_root<F: BinomiallyExtendable<D>, const D: usize>() {
        let phi = F::DTH_ROOT;
        assert_eq!(phi, F::W.exp_u64((F::ORDER - 1) / D as u64));
        assert_eq!(phi.exp_u64(D as u64), F::ONE);
        for k in 1..D as u64 {
            assert_ne!(phi.exp_u64(k), F::ONE, "φ^{k}");
        }
    }

    pub fn mul_w_is_w<F: BinomiallyExtendable<D>, const D: usize>() {
        let p = F::ORDER;
        let mut rng = rng::<D>(50);
        let edges = [0, 1, 2, p / 3, p / 2, p - 1].map(F::from_u64);
        for b in edges
            .into_iter()
            .chain((0..64).map(|_| F::random(&mut rng)))
        {
            assert_eq!(F::mul_w(b), F::W * b, "b={b}");
        }
    }

    pub fn x_to_the_d_is_w<F: BinomiallyExtendable<D>, const D: usize>() {
        let x_to_the_d = (1..D).fold(E::<F, D>::X, |pow, _| pow * E::X);
        assert_eq!(x_to_the_d, E::from(F::W));
    }

    pub fn mul_folds_x_to_the_d_into_w<F: BinomiallyExtendable<D>, const D: usize>() {
        // x^k = W^(k div D) · x^(k mod D), walked with the shipped product.
        let mut pow = E::<F, D>::ONE;
        for k in 0..3 * D {
            let mut expect = E::<F, D>::ZERO;
            expect.0[k % D] = F::W.exp_u64((k / D) as u64);
            assert_eq!(pow, expect, "x^{k}");
            pow *= E::X;
        }
    }

    pub fn frobenius_is_the_p_power_map<F: BinomiallyExtendable<D>, const D: usize>() {
        let mut rng = rng::<D>(40);
        for _ in 0..16 {
            let a = E::<F, D>::random(&mut rng);
            assert_eq!(a.frobenius(), a.exp_u64(F::ORDER));
        }
    }

    pub fn multiplicative_order_sanity<F: BinomiallyExtendable<D>, const D: usize>() {
        let mut rng = rng::<D>(45);
        for _ in 0..16 {
            let a = E::<F, D>::random(&mut rng);
            // a^(p^D) = a: the Frobenius has order D.
            let mut frob = a;
            for _ in 0..D {
                frob = frob.frobenius();
            }
            assert_eq!(frob, a);
        }
    }

    pub fn field_axioms_spot_checks<F: BinomiallyExtendable<D>, const D: usize>() {
        let mut rng = rng::<D>(41);
        for _ in 0..200 {
            let a = E::<F, D>::random(&mut rng);
            let b = E::random(&mut rng);
            let c = E::random(&mut rng);
            assert_eq!(a + b, b + a);
            assert_eq!(a * b, b * a);
            assert_eq!((a + b) * c, a * c + b * c);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a + E::ZERO, a);
            assert_eq!(a * E::ONE, a);
            assert_eq!((a + b) - b, a);
            assert_eq!(a + (-a), E::ZERO);
        }
    }

    pub fn exp_in_extension<F: BinomiallyExtendable<D>, const D: usize>() {
        let mut rng = rng::<D>(11);
        for _ in 0..16 {
            let a = E::<F, D>::random(&mut rng);
            assert_eq!(a.exp_u64(3), a * a * a);
        }
    }

    pub fn inverse_roundtrip<F: BinomiallyExtendable<D>, const D: usize>() {
        let mut rng = rng::<D>(42);
        for _ in 0..200 {
            let a = E::<F, D>::random(&mut rng);
            if a == E::ZERO {
                continue;
            }
            assert_eq!(a * a.inverse(), E::ONE);
        }
        assert!(E::<F, D>::ZERO.try_inverse().is_none());
        // Base-field embeddings invert to embedded base inverses.
        let s = F::from_u64(1234);
        assert_eq!(E::<F, D>::from(s).inverse(), E::from(s.inverse()));
    }

    pub fn embedding_is_a_homomorphism<F: BinomiallyExtendable<D>, const D: usize>() {
        let a = F::from_u64(123);
        let b = F::from_u64(456);
        assert_eq!(E::<F, D>::from(a) * E::from(b), E::from(a * b));
        assert_eq!(E::<F, D>::from(a) + E::from(b), E::from(a + b));
    }

    pub fn scale_matches_mul_by_embedded<F: BinomiallyExtendable<D>, const D: usize>() {
        let mut rng = rng::<D>(43);
        let a = E::<F, D>::random(&mut rng);
        let s = F::from_u64(99);
        assert_eq!(a.scale(s), a * E::from(s));
    }

    pub fn base_slice_roundtrip<F: BinomiallyExtendable<D>, const D: usize>() {
        let a = E::<F, D>::new(core::array::from_fn(|i| F::from_u64(i as u64 + 1)));
        let limbs = a.as_base_slice();
        assert_eq!(limbs.len(), D);
        assert_eq!(E::<F, D>::from_base_slice(limbs), a);
    }

    pub fn mul_matches_schoolbook_on_random_limbs<F: BinomiallyExtendable<D>, const D: usize>() {
        let mut rng = rng::<D>(46);
        for _ in 0..4096 {
            let a = E::<F, D>::random(&mut rng);
            let b = E::random(&mut rng);
            assert_eq!(a * b, mul_schoolbook(a, b), "{a:?} * {b:?}");
        }
    }

    /// Every element whose limbs are drawn from `edges`, times every
    /// other.
    pub fn mul_matches_schoolbook_on<F: BinomiallyExtendable<D>, const D: usize>(edges: &[F]) {
        let count = (0..D).fold(1, |n, _| n * edges.len());
        let elements: Vec<E<F, D>> = (0..count)
            .map(|mut n| {
                E::new(core::array::from_fn(|_| {
                    let limb = edges[n % edges.len()];
                    n /= edges.len();
                    limb
                }))
            })
            .collect();
        for &a in &elements {
            for &b in &elements {
                assert_eq!(a * b, mul_schoolbook(a, b), "{a:?} * {b:?}");
            }
        }
    }
}
