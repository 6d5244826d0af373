//! The 4-element hash digest type, generic over the base field.

use core::fmt;

use unizk_field::{Goldilocks, PrimeField64};

/// A hash output: four base-field elements, the digest width Plonky2 uses
/// for Merkle nodes and Fiat–Shamir observations.
///
/// The limb count is four for *every* field: the 4+4 `two_to_one` packing
/// then fits the rate of both the width-12 Goldilocks sponge and the
/// width-16 KoalaBear sponge, and the wire layout stays uniform. Over
/// Goldilocks that is ~256 bits; over KoalaBear it is 4 × 31 = 124 bits —
/// a deliberate modeling simplification (production small-field stacks
/// widen the digest to 8 limbs; see ARCHITECTURE.md §generic stack).
#[derive(Copy, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest<F: PrimeField64 = Goldilocks>(pub [F; 4]);

impl<F: PrimeField64> Digest<F> {
    /// The all-zero digest: padding, and the digest of an all-zero leaf that
    /// fits in one ([`Digest::from_partial`]); never a permutation's output.
    pub const ZERO: Self = Self([F::ZERO; 4]);

    /// Limbs in a digest, on every field: the widest leaf that is its own
    /// digest ([`crate::merkle::leaf_digests_with`]).
    pub const LEN: usize = 4;

    /// Serialized size in bytes (4 × the field's wire width: 32 over
    /// Goldilocks, 16 over KoalaBear).
    pub const BYTES: usize = Self::LEN * F::BYTES;

    /// The digest that *is* `elems`: the elements in order, then zeros
    /// (Plonky2's `HashOut::from_partial`).
    ///
    /// # Panics
    ///
    /// Panics if `elems.len() > 4`.
    pub fn from_partial(elems: &[F]) -> Self {
        let mut limbs = [F::ZERO; 4];
        limbs[..elems.len()].copy_from_slice(elems);
        Self(limbs)
    }

    /// Builds a digest from exactly four elements.
    ///
    /// # Panics
    ///
    /// Panics if `elems.len() != 4`.
    pub fn from_slice(elems: &[F]) -> Self {
        assert_eq!(elems.len(), 4, "digest needs exactly 4 elements");
        Self([elems[0], elems[1], elems[2], elems[3]])
    }

    /// The digest's elements.
    pub fn elements(&self) -> [F; 4] {
        self.0
    }
}

impl<F: PrimeField64> fmt::Debug for Digest<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Digest({:016x}{:016x}{:016x}{:016x})",
            self.0[0].as_u64(),
            self.0[1].as_u64(),
            self.0[2].as_u64(),
            self.0[3].as_u64()
        )
    }
}

impl<F: PrimeField64> fmt::Display for Digest<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::{Field, KoalaBear};

    #[test]
    fn from_slice_roundtrip() {
        let elems: Vec<Goldilocks> = (1..=4u64).map(Goldilocks::from_u64).collect();
        let d = Digest::from_slice(&elems);
        assert_eq!(d.elements().to_vec(), elems);
    }

    #[test]
    #[should_panic(expected = "exactly 4")]
    fn from_slice_wrong_len() {
        let _ = Digest::from_slice(&[Goldilocks::ZERO; 3]);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Digest::<Goldilocks>::ZERO).is_empty());
    }

    #[test]
    fn per_field_wire_widths() {
        assert_eq!(Digest::<Goldilocks>::BYTES, 32);
        assert_eq!(Digest::<KoalaBear>::BYTES, 16);
    }
}
