//! Dense univariate polynomials over a [`Field`].
//!
//! This is the coefficient-representation type flowing through the protocol:
//! witness columns after `iNTT^NN`, quotient chunks, FRI fold results, etc.
//! Heavy transforms (NTT-based multiplication, LDE) live in `unizk-ntt`;
//! this module provides the representation plus the schoolbook operations
//! the protocol needs at small sizes.

use core::ops::{Add, Mul, Sub};

use crate::traits::{ExtensionOf, Field, PrimeField64};

/// A dense polynomial `c[0] + c[1]·x + … + c[n-1]·x^(n-1)`.
///
/// Trailing zero coefficients are allowed (the protocol often keeps
/// power-of-two-length vectors); [`Polynomial::degree`] ignores them.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks, Polynomial};
///
/// // (x + 1)(x + 2) = x^2 + 3x + 2
/// let p = Polynomial::from_coeffs(vec![
///     Goldilocks::from_u64(1), Goldilocks::ONE,
/// ]);
/// let q = Polynomial::from_coeffs(vec![
///     Goldilocks::from_u64(2), Goldilocks::ONE,
/// ]);
/// let r = &p * &q;
/// assert_eq!(r.eval(Goldilocks::from_u64(10)), Goldilocks::from_u64(132));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Polynomial<F> {
    coeffs: Vec<F>,
}

impl<F: Field> Polynomial<F> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// Builds a polynomial from coefficients, lowest degree first.
    pub fn from_coeffs(coeffs: Vec<F>) -> Self {
        Self { coeffs }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: F) -> Self {
        Self { coeffs: vec![c] }
    }

    /// The monic linear polynomial `x - a`.
    pub fn x_minus(a: F) -> Self {
        Self {
            coeffs: vec![-a, F::ONE],
        }
    }

    /// The coefficients, lowest degree first (including trailing zeros).
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// Consumes the polynomial, returning its coefficient vector.
    pub fn into_coeffs(self) -> Vec<F> {
        self.coeffs
    }

    /// The number of stored coefficients (may exceed `degree + 1`).
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether no coefficients are stored.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The degree, treating the zero polynomial as degree 0.
    pub fn degree(&self) -> usize {
        self.coeffs
            .iter()
            .rposition(|c| !c.is_zero())
            .unwrap_or(0)
    }

    /// Whether every coefficient is zero.
    pub fn is_zero_poly(&self) -> bool {
        self.coeffs.iter().all(|c| c.is_zero())
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn eval(&self, x: F) -> F {
        self.coeffs
            .iter()
            .rev()
            .fold(F::ZERO, |acc, &c| acc * x + c)
    }

    /// Evaluates at a point of a (possibly) larger field `E ⊇ F`.
    pub fn eval_ext<E: Field + From<F>>(&self, x: E) -> E {
        self.coeffs
            .iter()
            .rev()
            .fold(E::ZERO, |acc, &c| acc * x + E::from(c))
    }

    /// [`eval_ext`](Self::eval_ext) at the point `ζ` whose first powers
    /// `1, ζ, …, ζ^B` are `powers`, for any block length `B ≥ 1`: each block
    /// of `B` coefficients is `Σ powers[i] · c_i`, independent
    /// base × extension products ([`ExtensionOf::scale`]), and the blocks are
    /// combined by Horner's rule in `ζ^B` — a dependent extension × extension
    /// chain of `len / B` steps where plain Horner runs `len`. The table is
    /// built once per point and shared by every polynomial opened there;
    /// field arithmetic is exact, so the value is `eval_ext`'s.
    ///
    /// # Panics
    ///
    /// Panics if `powers` holds fewer than two entries.
    pub fn eval_at_powers<E: ExtensionOf<F>>(&self, powers: &[E]) -> E
    where
        F: PrimeField64,
    {
        let (&stride, block) = powers.split_last().expect("powers 1 to ζ^B");
        assert!(!block.is_empty(), "a block of at least one coefficient");
        let dot = |coeffs: &[F]| coeffs.iter().zip(block).fold(E::ZERO, |acc, (&c, power)| acc + power.scale(c));
        self.coeffs.chunks(block.len()).rev().fold(E::ZERO, |acc, coeffs| acc * stride + dot(coeffs))
    }

    /// Pads (or truncates) the coefficient vector to exactly `n` entries.
    ///
    /// # Panics
    ///
    /// Panics if truncation would drop a nonzero coefficient.
    pub fn resize(&mut self, n: usize) {
        if n < self.coeffs.len() {
            assert!(
                self.coeffs[n..].iter().all(|c| c.is_zero()),
                "resize would truncate nonzero coefficients"
            );
        }
        self.coeffs.resize(n, F::ZERO);
    }

    /// Multiplies every coefficient by `s`.
    pub fn scale(&self, s: F) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(|&c| c * s).collect(),
        }
    }

    /// Substitutes `x → g·x`, i.e. returns `p(g·x)` — the coset shift used
    /// by coset-NTTs (coefficient `c_i` becomes `c_i · g^i`).
    pub fn coset_shift(&self, g: F) -> Self {
        let mut power = F::ONE;
        let coeffs = self
            .coeffs
            .iter()
            .map(|&c| {
                let r = c * power;
                power *= g;
                r
            })
            .collect();
        Self { coeffs }
    }

    /// Divides by the linear factor `(x - a)`, returning the quotient.
    ///
    /// Used for opening arguments: if `p(a) = y` then `(p - y)/(x - a)` is a
    /// polynomial.
    ///
    /// # Panics
    ///
    /// Panics if the remainder is nonzero, i.e. `p(a) != 0`.
    pub fn divide_by_linear(&self, a: F) -> Self {
        if self.coeffs.is_empty() {
            return Self::zero();
        }
        // Synthetic division from the top coefficient down.
        let mut quotient = vec![F::ZERO; self.coeffs.len().saturating_sub(1)];
        let mut carry = F::ZERO;
        for i in (0..self.coeffs.len()).rev() {
            let cur = self.coeffs[i] + carry * a;
            if i == 0 {
                assert!(cur.is_zero(), "divide_by_linear: nonzero remainder");
            } else {
                quotient[i - 1] = cur;
                carry = cur;
            }
        }
        Self { coeffs: quotient }
    }

    /// Schoolbook product; fine for the small fixed-size products in the
    /// protocol glue. Large products go through `unizk-ntt`.
    pub fn mul_naive(&self, other: &Self) -> Self {
        if self.is_zero_poly() || other.is_zero_poly() {
            return Self::zero();
        }
        let mut out = vec![F::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Self { coeffs: out }
    }

    /// Evaluates the vanishing polynomial `Z_H(x) = x^n - 1` of the size-`n`
    /// subgroup at `x`.
    pub fn eval_vanishing(n: usize, x: F) -> F {
        x.exp_u64(n as u64) - F::ONE
    }

    /// Lagrange interpolation through `(xs[i], ys[i])` — `O(n^3)` through
    /// [`Self::mul_naive`]. No protocol path calls it: it is the reference
    /// FRI's final-layer transform is held to in tests.
    ///
    /// # Panics
    ///
    /// Panics if `xs` contains duplicates or lengths differ.
    pub fn interpolate(xs: &[F], ys: &[F]) -> Self {
        assert_eq!(xs.len(), ys.len(), "point/value length mismatch");
        let mut acc = Self::zero();
        for (i, (&xi, &yi)) in xs.iter().zip(ys).enumerate() {
            // Basis polynomial l_i scaled by y_i.
            let mut num = Self::constant(F::ONE);
            let mut denom = F::ONE;
            for (j, &xj) in xs.iter().enumerate() {
                if i == j {
                    continue;
                }
                num = num.mul_naive(&Self::x_minus(xj));
                let d = xi - xj;
                assert!(!d.is_zero(), "interpolate: duplicate x values");
                denom *= d;
            }
            acc = &acc + &num.scale(yi * denom.inverse());
        }
        acc
    }
}

impl<F: Field> Add for &Polynomial<F> {
    type Output = Polynomial<F>;

    fn add(self, rhs: Self) -> Polynomial<F> {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![F::ZERO; n];
        for (o, &c) in out.iter_mut().zip(&self.coeffs) {
            *o = c;
        }
        for (o, &c) in out.iter_mut().zip(&rhs.coeffs) {
            *o += c;
        }
        Polynomial { coeffs: out }
    }
}

impl<F: Field> Sub for &Polynomial<F> {
    type Output = Polynomial<F>;

    fn sub(self, rhs: Self) -> Polynomial<F> {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![F::ZERO; n];
        for (o, &c) in out.iter_mut().zip(&self.coeffs) {
            *o = c;
        }
        for (o, &c) in out.iter_mut().zip(&rhs.coeffs) {
            *o -= c;
        }
        Polynomial { coeffs: out }
    }
}

impl<F: Field> Mul for &Polynomial<F> {
    type Output = Polynomial<F>;

    fn mul(self, rhs: Self) -> Polynomial<F> {
        self.mul_naive(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goldilocks::Goldilocks;
    use crate::traits::PrimeField64;
    use unizk_testkit::rng::TestRng as StdRng;

    type P = Polynomial<Goldilocks>;

    fn g(n: u64) -> Goldilocks {
        Goldilocks::from_u64(n)
    }

    fn random_poly(rng: &mut StdRng, len: usize) -> P {
        P::from_coeffs((0..len).map(|_| Goldilocks::random(rng)).collect())
    }

    #[test]
    fn eval_constant_and_linear() {
        assert_eq!(P::constant(g(5)).eval(g(100)), g(5));
        assert_eq!(P::x_minus(g(3)).eval(g(3)), Goldilocks::ZERO);
        assert_eq!(P::x_minus(g(3)).eval(g(10)), g(7));
        assert_eq!(P::zero().eval(g(42)), Goldilocks::ZERO);
    }

    #[test]
    fn degree_ignores_trailing_zeros() {
        let p = P::from_coeffs(vec![g(1), g(2), Goldilocks::ZERO, Goldilocks::ZERO]);
        assert_eq!(p.degree(), 1);
        assert_eq!(P::zero().degree(), 0);
    }

    #[test]
    fn add_sub_are_inverse() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = random_poly(&mut rng, 9);
        let b = random_poly(&mut rng, 5);
        let sum = &a + &b;
        let back = &sum - &b;
        // Compare by evaluation to ignore length differences.
        let x = g(12345);
        assert_eq!(back.eval(x), a.eval(x));
    }

    #[test]
    fn mul_matches_evaluation() {
        let mut rng = StdRng::seed_from_u64(32);
        let a = random_poly(&mut rng, 7);
        let b = random_poly(&mut rng, 6);
        let prod = a.mul_naive(&b);
        for i in 0..10u64 {
            let x = g(1000 + i);
            assert_eq!(prod.eval(x), a.eval(x) * b.eval(x));
        }
    }

    #[test]
    fn divide_by_linear_roundtrip() {
        let mut rng = StdRng::seed_from_u64(33);
        let q = random_poly(&mut rng, 8);
        let a = g(77);
        let p = q.mul_naive(&P::x_minus(a));
        let q2 = p.divide_by_linear(a);
        let x = g(5);
        assert_eq!(q2.eval(x), q.eval(x));
    }

    #[test]
    #[should_panic(expected = "nonzero remainder")]
    fn divide_by_linear_rejects_nonroot() {
        let p = P::from_coeffs(vec![g(1), g(1)]); // x + 1
        let _ = p.divide_by_linear(g(5)); // 5 is not a root
    }

    #[test]
    fn coset_shift_matches_substitution() {
        let mut rng = StdRng::seed_from_u64(34);
        let p = random_poly(&mut rng, 10);
        let gshift = Goldilocks::MULTIPLICATIVE_GENERATOR;
        let shifted = p.coset_shift(gshift);
        for i in 0..5u64 {
            let x = g(31 + i);
            assert_eq!(shifted.eval(x), p.eval(gshift * x));
        }
    }

    #[test]
    fn interpolate_recovers_poly() {
        let mut rng = StdRng::seed_from_u64(35);
        let p = random_poly(&mut rng, 6);
        let xs: Vec<Goldilocks> = (0..6).map(|i| g(i + 1)).collect();
        let ys: Vec<Goldilocks> = xs.iter().map(|&x| p.eval(x)).collect();
        let q = P::interpolate(&xs, &ys);
        for i in 0..10u64 {
            let x = g(100 + i);
            assert_eq!(q.eval(x), p.eval(x));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn interpolate_rejects_duplicates() {
        let xs = vec![g(1), g(1)];
        let ys = vec![g(2), g(3)];
        let _ = P::interpolate(&xs, &ys);
    }

    #[test]
    fn vanishing_polynomial_on_subgroup() {
        let n = 16usize;
        let w = Goldilocks::primitive_root_of_unity(4);
        for k in 0..n as u64 {
            let x = w.exp_u64(k);
            assert_eq!(P::eval_vanishing(n, x), Goldilocks::ZERO);
        }
        assert_ne!(
            P::eval_vanishing(n, Goldilocks::MULTIPLICATIVE_GENERATOR),
            Goldilocks::ZERO
        );
    }

    #[test]
    fn resize_pads_with_zeros() {
        let mut p = P::from_coeffs(vec![g(1)]);
        p.resize(4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.degree(), 0);
    }

    #[test]
    #[should_panic(expected = "truncate nonzero")]
    fn resize_rejects_lossy_truncation() {
        let mut p = P::from_coeffs(vec![g(1), g(2)]);
        p.resize(1);
    }

    #[test]
    fn eval_ext_agrees_with_base() {
        use crate::extension::Ext2;
        let p = P::from_coeffs(vec![g(3), g(5), g(7)]);
        let x = g(11);
        let ext = p.eval_ext(Ext2::from(x));
        assert_eq!(ext, Ext2::from(p.eval(x)));
    }
}
