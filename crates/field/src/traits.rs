//! Field abstractions shared by the base field and its extension.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::lanes::LaneKernel;

/// A finite field with the operations the protocol stack needs.
///
/// Implemented by both base fields ([`crate::Goldilocks`],
/// [`crate::KoalaBear`]) and by [`crate::BinomialExtension`]. The trait is
/// deliberately small: enough for polynomial arithmetic, NTT-independent
/// protocol math, and constraint evaluation, without pulling in a big
/// numeric-trait ecosystem.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
///
/// fn square_plus_one<F: Field>(x: F) -> F {
///     x * x + F::ONE
/// }
/// assert_eq!(square_plus_one(Goldilocks::from_u64(3)).as_u64(), 10);
/// ```
pub trait Field:
    'static
    + Copy
    + Clone
    + Debug
    + Display
    + Default
    + Eq
    + PartialEq
    + Hash
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// `2`, handy for halving in folding schemes.
    const TWO: Self;

    /// Returns `true` for the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Returns `true` for the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::ONE
    }

    /// The field element corresponding to a small integer.
    fn from_u64(n: u64) -> Self;

    /// The canonical `u64` representation of this element.
    ///
    /// For extension fields this is the representation of the degree-0 limb;
    /// callers that need the full element should use the concrete type.
    fn as_u64(&self) -> u64;

    /// Squares the element.
    fn square(&self) -> Self {
        *self * *self
    }

    /// Doubles the element.
    fn double(&self) -> Self {
        *self + *self
    }

    /// Raises the element to the power `exp` by square-and-multiply.
    fn exp_u64(&self, exp: u64) -> Self {
        let mut base = *self;
        let mut acc = Self::ONE;
        let mut e = exp;
        while e != 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base = base.square();
            e >>= 1;
        }
        acc
    }

    /// The multiplicative inverse, if it exists.
    fn try_inverse(&self) -> Option<Self>;

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the element is zero.
    fn inverse(&self) -> Self {
        self.try_inverse().expect("inverse of zero field element")
    }
}

/// A 64-bit prime field with two-adic structure, i.e. the base field that
/// NTTs and the accelerator's modular datapaths operate on.
pub trait PrimeField64: Field + Ord + PartialOrd {
    /// The field order `p`.
    const ORDER: u64;
    /// `v` in `p - 1 = 2^v * odd`; the maximum supported NTT size is `2^v`.
    const TWO_ADICITY: usize;
    /// A generator of the full multiplicative group.
    const MULTIPLICATIVE_GENERATOR: Self;
    /// Bits in `p - 1`: the entropy one uniformly random element carries.
    /// Drives challenge-bit budgeting (grind targets, the analyzer's
    /// extension-aware `P01` rule) — 64 for Goldilocks, 31 for KoalaBear.
    const BITS: usize;
    /// Bytes one canonical element occupies on the wire (8 for Goldilocks,
    /// 4 for KoalaBear). Proof serialization is sized by this.
    const BYTES: usize;

    /// A primitive `2^bits`-th root of unity.
    ///
    /// # Panics
    ///
    /// Panics if `bits > Self::TWO_ADICITY`.
    fn primitive_root_of_unity(bits: usize) -> Self;

    /// Runs `kernel` on this field's widest lane type the CPU executes —
    /// by default the field itself, one lane at a time. Nothing but CPU
    /// detection chooses (see [`crate::lanes`]).
    #[inline]
    fn with_lanes<K: LaneKernel<Self>>(kernel: K) -> K::Output {
        kernel.run::<Self>()
    }

    /// Samples a uniform field element.
    fn random<R: unizk_testkit::rng::Rng + ?Sized>(rng: &mut R) -> Self;
}

/// A base field paired with the extension its protocol challenges are
/// drawn from. This is the seam that lets the FRI and STARK layers stay
/// generic over the `(base, extension)` pair. Both fields carry a
/// [`crate::BinomialExtension`]: Goldilocks at `D = 2` ([`crate::Ext2`],
/// 2 × 64 bits), KoalaBear at `D = 4` ([`crate::KbExt4`], 4 × 31 bits) —
/// both clear the ~100-bit Schwartz–Zippel budget the analyzer's
/// extension-aware `P01` rule demands, where a degree-1 "extension" of a
/// 31-bit field would not.
pub trait ProtocolField: PrimeField64 {
    /// The challenge extension field.
    type Ext: ExtensionOf<Self>;
}

/// An extension field over a [`PrimeField64`] base.
pub trait ExtensionOf<F: PrimeField64>: Field + From<F> {
    /// Extension degree `D`.
    const DEGREE: usize;

    /// The base-field limbs, lowest degree first, borrowed from the element
    /// (an extension element stores an array of `DEGREE` limbs).
    fn as_base_slice(&self) -> &[F];

    /// Builds an element from base-field limbs, lowest degree first.
    ///
    /// # Panics
    ///
    /// Panics if `limbs.len() != Self::DEGREE`.
    fn from_base_slice(limbs: &[F]) -> Self;

    /// Builds an element whose limb `d` is `limb(d)`, lowest degree first.
    fn from_base_fn(limb: impl FnMut(usize) -> F) -> Self;

    /// Multiplies by a base-field scalar.
    fn scale(&self, s: F) -> Self;
}
