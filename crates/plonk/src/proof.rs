//! The proof object.

use unizk_field::Goldilocks;
use unizk_fri::FriProof;
use unizk_hash::Digest;

/// A complete Plonk proof: three commitments plus the FRI opening proof
/// (which carries the claimed evaluations at `ζ` and `ζ·ω`).
#[derive(Clone, Debug)]
pub struct Proof {
    /// The claimed public-input values, in registration order.
    pub public_inputs: Vec<Goldilocks>,
    /// Commitment to the wire columns.
    pub wires_root: Digest,
    /// Commitment to `Z` and the partial-product columns.
    pub perm_root: Digest,
    /// Commitment to the quotient chunks.
    pub quotient_root: Digest,
    /// The FRI opening proof.
    pub fri: FriProof,
}

impl Proof {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.public_inputs.len() * 8 + 3 * Digest::<Goldilocks>::BYTES + self.fri.size_bytes()
    }
}

impl Proof {
    /// Encodes the proof to bytes (public inputs, the three commitment
    /// roots, then the FRI proof).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = unizk_fri::Writer::new();
        w.len_prefix(self.public_inputs.len());
        for &v in &self.public_inputs {
            w.field(v);
        }
        w.digest(self.wires_root);
        w.digest(self.perm_root);
        w.digest(self.quotient_root);
        let mut bytes = w.into_bytes();
        bytes.extend(self.fri.to_bytes());
        bytes
    }

    /// Decodes a proof from bytes: exactly the strings [`Self::to_bytes`]
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns [`unizk_fri::WireError`] on truncation, corruption,
    /// non-canonical field limbs or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, unizk_fri::WireError> {
        let mut r = unizk_fri::Reader::new(bytes);
        let n = r.len_prefix(8)?;
        let mut public_inputs = Vec::with_capacity(n);
        for _ in 0..n {
            public_inputs.push(r.field()?);
        }
        let wires_root = r.digest()?;
        let perm_root = r.digest()?;
        let quotient_root = r.digest()?;
        let fri = FriProof::read(&mut r)?;
        r.finish()?;
        Ok(Self {
            public_inputs,
            wires_root,
            perm_root,
            quotient_root,
            fri,
        })
    }
}
