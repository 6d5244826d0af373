//! Cryptographic hashing for the UniZK reproduction.
//!
//! Implements the hash substrate of Plonky2/Starky that the paper's
//! accelerator spends most of its cycles on (Table 1: Merkle tree
//! construction alone is ~60% of CPU proving time):
//!
//! * [`poseidon`] — the Poseidon permutation over 12 Goldilocks elements,
//!   with the exact round structure of the paper's Algorithm 1 (4 full
//!   rounds, a pre-partial round, 22 partial rounds with a sparse MDS
//!   matrix, 4 full rounds; `x^7` S-box): constants, cost model, the
//!   grind's hoisted round 0 and the public one-state entry.
//! * [`packed`] — the round kernels and the one walk of the schedule,
//!   generic over the row type of a group of states permuted in lockstep
//!   (the paper's vector mode, §5): plain arrays at any width — one lane
//!   for [`poseidon_permute`] — and, for batches and the grind on CPUs
//!   that have it, AVX-512 rows of eight lanes per register: 32 lanes in
//!   four registers for whole groups, eight in one for a batch's remainder
//!   (the crate's one `unsafe` module).
//! * [`poseidon2_kb`] — Poseidon2 over 16 KoalaBear elements, the hash of
//!   the 31-bit proof path, built the same way: one walk of the rounds,
//!   generic over the row type — the field element itself for one state or
//!   a few in lockstep, and sixteen states in one AVX-512 register for
//!   batches and the grind on CPUs that have it (a child of the same
//!   `unsafe` module).
//! * [`sponge`] — sponge hashing (`rate = 8`) and the duplex
//!   [`sponge::Challenger`] used for Fiat–Shamir transforms.
//! * [`merkle`] — Merkle tree construction with the paper's leaf-absorb and
//!   4+4+zero-pad interior-node rule (§5.3) — a leaf that fits in a digest
//!   is its own digest, as in Plonky2 — plus opening proofs, over one
//!   [`matrix::RowMajorMatrix`] of leaves per tree.
//!
//! **Substitution note (see DESIGN.md):** round constants and matrix entries
//! are generated deterministically from a seed rather than copied from
//! Plonky2's Grain-LFSR output. The computational *structure* — what the
//! accelerator maps and what the simulator costs — is identical.
//!
//! # Example
//!
//! ```
//! use unizk_field::{Field, Goldilocks};
//! use unizk_hash::sponge::hash_no_pad;
//!
//! let input: Vec<Goldilocks> = (0..20u64).map(Goldilocks::from_u64).collect();
//! let digest = hash_no_pad(&input);
//! assert_ne!(digest.0[0], Goldilocks::ZERO);
//! ```

#![deny(unsafe_code)]

// The naive Poseidon2-KoalaBear reference of `tests/poseidon2_kb_kat.rs`,
// for the unit tests that reach the crate-private row types; it names this
// crate the way the integration test does.
#[cfg(test)]
extern crate self as unizk_hash;
#[cfg(test)]
#[path = "../tests/common/naive_poseidon2_kb.rs"]
mod naive_poseidon2_kb;

pub mod digest;
pub mod matrix;
pub mod merkle;
pub mod packed;
pub mod poseidon;
pub mod poseidon2_kb;
pub mod sponge;

pub use digest::Digest;
pub use matrix::RowMajorMatrix;
pub use merkle::{GenericMerkleTree, MerkleProof, MerkleTree, Opening, TreeOpenings};
pub use packed::PackedPermutation;
pub use poseidon::{
    poseidon_permute, NoncePermutation, PoseidonCost, SPONGE_CAPACITY, SPONGE_RATE, WIDTH,
};
pub use poseidon2_kb::{
    poseidon2_kb_permute, Poseidon2KbConstants, Poseidon2KbCost, Poseidon2KbSponge,
};
pub use sponge::{
    compress_level_with, hash_many, hash_many_with, hash_no_pad, hash_no_pad_with,
    two_to_one, two_to_one_with, Challenger, GenericChallenger, GenericSpeculativeChallenger,
    HashField, PoseidonSponge, SpongeBackend,
};
