//! Byte-level proof serialization.
//!
//! Proof size is a first-class metric in the evaluation (Table 5 reports
//! kB; the artifact logs proof sizes in bytes), so proofs must actually
//! serialize. This module defines a simple self-describing little-endian
//! wire format for the FRI proof and its components, and guarantees that
//! [`crate::FriProof::size_bytes`] equals the encoded length exactly —
//! tested for every proof the test suite generates.

use unizk_field::{ExtensionOf, PrimeField64, ProtocolField};
use unizk_hash::{Digest, MerkleProof};

use crate::proof::{FriFoldOpening, FriInitialOpening, FriProof, FriQueryRound};

/// Serialization/deserialization failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-structure.
    Truncated,
    /// A length prefix claimed more elements than the remaining bytes hold.
    LengthOutOfRange(u64),
    /// A field limb at or above the modulus: the encoder writes canonical
    /// representatives only, so a second spelling of one element is refused
    /// rather than reduced.
    NonCanonical(u64),
    /// Bytes left over after the last field of the structure.
    TrailingBytes(usize),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated => write!(f, "unexpected end of proof bytes"),
            Self::LengthOutOfRange(n) => write!(f, "length prefix {n} out of range"),
            Self::NonCanonical(v) => write!(f, "field limb {v:#x} is not below the modulus"),
            Self::TrailingBytes(n) => write!(f, "{n} bytes after the end of the proof"),
        }
    }
}

impl std::error::Error for WireError {}

/// A little-endian byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a raw `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length prefix (stored as `u32`, counted separately from the
    /// payload in size accounting).
    pub fn len_prefix(&mut self, n: usize) {
        let n = u32::try_from(n).expect("length prefix fits u32");
        self.buf.extend_from_slice(&n.to_le_bytes());
    }

    /// Writes a field element: the canonical representative's low
    /// `F::BYTES` little-endian bytes (8 over Goldilocks, 4 over
    /// KoalaBear).
    pub fn field<F: PrimeField64>(&mut self, v: F) {
        self.buf
            .extend_from_slice(&v.as_u64().to_le_bytes()[..F::BYTES]);
    }

    /// Writes an extension element as its `DEGREE` base limbs, lowest
    /// degree first (16 bytes over either shipped field).
    pub fn ext<F: ProtocolField>(&mut self, v: F::Ext) {
        for &limb in v.as_base_slice() {
            self.field(limb);
        }
    }

    /// Writes a digest (`4 × F::BYTES` bytes).
    pub fn digest<F: PrimeField64>(&mut self, d: Digest<F>) {
        for e in d.elements() {
            self.field(e);
        }
    }
}

/// A little-endian byte reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Ends a decode: every byte must have been consumed, so that exactly
    /// one byte string decodes to a given value.
    pub fn finish(self) -> Result<(), WireError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            left => Err(WireError::TrailingBytes(left)),
        }
    }

    /// The next `n <= 8` bytes as a little-endian integer.
    fn le(&mut self, n: usize) -> Result<u64, WireError> {
        let bytes = self.buf[self.pos..].get(..n).ok_or(WireError::Truncated)?;
        self.pos += n;
        let mut wide = [0u8; 8];
        wide[..n].copy_from_slice(bytes);
        Ok(u64::from_le_bytes(wide))
    }

    /// Reads a raw `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.le(8)
    }

    /// Reads the length prefix of a sequence whose elements each occupy at
    /// least `min_elem_bytes` of the encoding.
    ///
    /// The length is attacker-controlled and callers allocate for it, so it
    /// is bounded by what the rest of the buffer could actually hold: a
    /// prefix the remaining bytes cannot back is rejected here, before any
    /// allocation, and a decode never reserves more than a small multiple
    /// of its input.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.le(4)?;
        let remaining = self.buf.len() - self.pos;
        match usize::try_from(n) {
            Ok(len) if len <= remaining / min_elem_bytes.max(1) => Ok(len),
            _ => Err(WireError::LengthOutOfRange(n)),
        }
    }

    /// Reads a field element: `F::BYTES` bytes holding the canonical
    /// representative, as [`Writer::field`] writes it.
    pub fn field<F: PrimeField64>(&mut self) -> Result<F, WireError> {
        let limb = self.le(F::BYTES)?;
        if limb >= F::ORDER {
            return Err(WireError::NonCanonical(limb));
        }
        Ok(F::from_u64(limb))
    }

    /// Reads an extension element (`DEGREE` base limbs).
    pub fn ext<F: ProtocolField>(&mut self) -> Result<F::Ext, WireError> {
        let mut limbs = Vec::with_capacity(<F::Ext as ExtensionOf<F>>::DEGREE);
        for _ in 0..<F::Ext as ExtensionOf<F>>::DEGREE {
            limbs.push(self.field::<F>()?);
        }
        Ok(F::Ext::from_base_slice(&limbs))
    }

    /// Reads a digest.
    pub fn digest<F: PrimeField64>(&mut self) -> Result<Digest<F>, WireError> {
        Ok(Digest([
            self.field()?,
            self.field()?,
            self.field()?,
            self.field()?,
        ]))
    }
}

fn write_merkle_proof<F: PrimeField64>(w: &mut Writer, p: &MerkleProof<F>) {
    w.len_prefix(p.siblings.len());
    for &s in &p.siblings {
        w.digest(s);
    }
}

fn read_merkle_proof<F: PrimeField64>(r: &mut Reader<'_>) -> Result<MerkleProof<F>, WireError> {
    let n = r.len_prefix(Digest::<F>::BYTES)?;
    let mut siblings = Vec::with_capacity(n);
    for _ in 0..n {
        siblings.push(r.digest()?);
    }
    Ok(MerkleProof { siblings })
}

impl<F: ProtocolField> FriProof<F> {
    /// Encodes the proof to bytes. The payload (excluding the 4-byte
    /// length prefixes, which a fixed-shape instance doesn't need) is
    /// exactly [`FriProof::size_bytes`] long.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.len_prefix(self.openings.len());
        for per_point in &self.openings {
            w.len_prefix(per_point.len());
            for per_batch in per_point {
                w.len_prefix(per_batch.len());
                for &y in per_batch {
                    w.ext::<F>(y);
                }
            }
        }
        w.len_prefix(self.commit_roots.len());
        for &root in &self.commit_roots {
            w.digest(root);
        }
        w.len_prefix(self.final_poly.len());
        for &c in &self.final_poly {
            w.ext::<F>(c);
        }
        w.field(self.pow_witness);
        w.len_prefix(self.queries.len());
        for q in &self.queries {
            w.len_prefix(q.initial.len());
            for init in &q.initial {
                w.len_prefix(init.leaf.len());
                for &v in &init.leaf {
                    w.field(v);
                }
                write_merkle_proof(&mut w, &init.proof);
            }
            w.len_prefix(q.folds.len());
            for fold in &q.folds {
                w.ext::<F>(fold.pair[0]);
                w.ext::<F>(fold.pair[1]);
                write_merkle_proof(&mut w, &fold.proof);
            }
        }
        w.into_bytes()
    }

    /// Decodes a proof from bytes: exactly the strings [`Self::to_bytes`]
    /// produces, so `from_bytes(b)?.to_bytes() == b`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, corrupt length prefixes,
    /// non-canonical field limbs or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let proof = Self::read(&mut r)?;
        r.finish()?;
        Ok(proof)
    }

    /// Decodes a proof from the reader's position and leaves the reader
    /// after it — the form an enclosing proof's decoder calls.
    ///
    /// # Errors
    ///
    /// As [`Self::from_bytes`], except that bytes after the proof are the
    /// caller's to judge.
    pub fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Minimum encoded size of each element kind; a nested sequence
        // costs at least its own 4-byte prefix.
        const PREFIX: usize = 4;
        let ext_bytes = <F::Ext as ExtensionOf<F>>::DEGREE * F::BYTES;
        let num_points = r.len_prefix(PREFIX)?;
        let mut openings = Vec::with_capacity(num_points);
        for _ in 0..num_points {
            let num_batches = r.len_prefix(PREFIX)?;
            let mut per_point = Vec::with_capacity(num_batches);
            for _ in 0..num_batches {
                let num_polys = r.len_prefix(ext_bytes)?;
                let mut per_batch = Vec::with_capacity(num_polys);
                for _ in 0..num_polys {
                    per_batch.push(r.ext::<F>()?);
                }
                per_point.push(per_batch);
            }
            openings.push(per_point);
        }
        let num_roots = r.len_prefix(Digest::<F>::BYTES)?;
        let mut commit_roots = Vec::with_capacity(num_roots);
        for _ in 0..num_roots {
            commit_roots.push(r.digest()?);
        }
        let final_len = r.len_prefix(ext_bytes)?;
        let mut final_poly = Vec::with_capacity(final_len);
        for _ in 0..final_len {
            final_poly.push(r.ext::<F>()?);
        }
        let pow_witness = r.field()?;
        let num_queries = r.len_prefix(2 * PREFIX)?;
        let mut queries = Vec::with_capacity(num_queries);
        for _ in 0..num_queries {
            let num_initial = r.len_prefix(2 * PREFIX)?;
            let mut initial = Vec::with_capacity(num_initial);
            for _ in 0..num_initial {
                let leaf_len = r.len_prefix(F::BYTES)?;
                let mut leaf = Vec::with_capacity(leaf_len);
                for _ in 0..leaf_len {
                    leaf.push(r.field()?);
                }
                let proof = read_merkle_proof(r)?;
                initial.push(FriInitialOpening { leaf, proof });
            }
            let num_folds = r.len_prefix(2 * ext_bytes + PREFIX)?;
            let mut folds = Vec::with_capacity(num_folds);
            for _ in 0..num_folds {
                let pair = [r.ext::<F>()?, r.ext::<F>()?];
                let proof = read_merkle_proof(r)?;
                folds.push(FriFoldOpening { pair, proof });
            }
            queries.push(FriQueryRound { initial, folds });
        }
        Ok(Self {
            openings,
            commit_roots,
            final_poly,
            pow_witness,
            queries,
        })
    }

    /// Count of 4-byte length prefixes the encoding adds on top of
    /// [`FriProof::size_bytes`] of payload.
    pub fn num_length_prefixes(&self) -> usize {
        let mut n = 4; // openings, commit_roots, final_poly, queries
        for per_point in &self.openings {
            n += 1 + per_point.len();
        }
        for q in &self.queries {
            n += 2; // initial, folds
            n += q.initial.len() * 2; // leaf len + merkle len
            n += q.folds.len(); // merkle len
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::{Ext2, Goldilocks, Polynomial};
    use unizk_hash::Challenger;

    fn sample_proof() -> FriProof {
        use unizk_testkit::rng::TestRng as StdRng;
        let mut rng = StdRng::seed_from_u64(1200);
        let config = crate::FriConfig::for_testing();
        let polys: Vec<Polynomial<Goldilocks>> = (0..3)
            .map(|_| {
                Polynomial::from_coeffs((0..32).map(|_| Goldilocks::random(&mut rng)).collect())
            })
            .collect();
        let batch = crate::PolynomialBatch::from_coeffs(polys, &config);
        let mut challenger = Challenger::new();
        challenger.observe_digest(batch.root());
        crate::fri_prove(
            &[&batch],
            &[Ext2::random(&mut rng)],
            &mut challenger,
            &config,
        )
    }

    #[test]
    fn roundtrip_preserves_the_proof() {
        let proof = sample_proof();
        let bytes = proof.to_bytes();
        let back = FriProof::<Goldilocks>::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.commit_roots, proof.commit_roots);
        assert_eq!(back.final_poly, proof.final_poly);
        assert_eq!(back.pow_witness, proof.pow_witness);
        assert_eq!(back.queries.len(), proof.queries.len());
    }

    #[test]
    fn size_bytes_matches_encoded_payload() {
        let proof = sample_proof();
        let encoded = proof.to_bytes().len();
        let payload = proof.size_bytes();
        let prefixes = proof.num_length_prefixes() * 4;
        assert_eq!(encoded, payload + prefixes, "payload {payload} prefixes {prefixes}");
    }

    #[test]
    fn truncated_bytes_rejected() {
        let bytes = sample_proof().to_bytes();
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(FriProof::<Goldilocks>::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        let mut bytes = sample_proof().to_bytes();
        bytes[0] = 0xFF;
        bytes[1] = 0xFF;
        bytes[2] = 0xFF;
        bytes[3] = 0x7F;
        assert!(matches!(
            FriProof::<Goldilocks>::from_bytes(&bytes),
            Err(WireError::LengthOutOfRange(_)) | Err(WireError::Truncated)
        ));
    }
}
