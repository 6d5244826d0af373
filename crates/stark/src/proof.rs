//! Stark proof object.

use unizk_field::{Goldilocks, ProtocolField};
use unizk_fri::{FriProof, WireError};
use unizk_hash::Digest;

/// A Starky-style proof: trace and quotient commitments plus the FRI
/// opening proof. Base proofs with blowup 2 are large — several hundred kB
/// at paper scale (Table 5) — which is why they get recursively compressed.
///
/// Generic over the base field, defaulting to Goldilocks; all wire widths
/// (digests, base and extension elements) follow `F::BYTES`.
#[derive(Clone, Debug)]
pub struct StarkProof<F: ProtocolField = Goldilocks> {
    /// Commitment to the execution trace columns.
    pub trace_root: Digest<F>,
    /// Commitment to the quotient polynomials.
    pub quotient_root: Digest<F>,
    /// FRI opening proof (carries openings at `ζ` and `ζ·ω`).
    pub fri: FriProof<F>,
    /// Trace height, needed by the verifier for domain sizing.
    pub rows: usize,
}

impl<F: ProtocolField> StarkProof<F> {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        2 * Digest::<F>::BYTES + 8 + self.fri.size_bytes()
    }

    /// Encodes the proof to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = unizk_fri::Writer::new();
        w.digest(self.trace_root);
        w.digest(self.quotient_root);
        w.u64(self.rows as u64);
        let mut bytes = w.into_bytes();
        bytes.extend(self.fri.to_bytes());
        bytes
    }

    /// Decodes a proof from bytes: exactly the strings [`Self::to_bytes`]
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, corruption, non-canonical field
    /// limbs or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = unizk_fri::Reader::new(bytes);
        let trace_root: Digest<F> = r.digest()?;
        let quotient_root: Digest<F> = r.digest()?;
        let rows = r.u64()?;
        let rows = usize::try_from(rows).map_err(|_| WireError::LengthOutOfRange(rows))?;
        let fri = FriProof::<F>::read(&mut r)?;
        r.finish()?;
        Ok(Self {
            trace_root,
            quotient_root,
            fri,
            rows,
        })
    }
}
