//! Finite-field arithmetic for the UniZK reproduction.
//!
//! This crate implements the algebra that every other layer of the system is
//! built on:
//!
//! * [`Goldilocks`] — the 64-bit prime field `p = 2^64 - 2^32 + 1` used by
//!   Plonky2 and Starky. All accelerator datapaths in the paper operate on
//!   64-bit Goldilocks elements (§4 of the paper).
//! * [`Ext2`] — the quadratic extension field (`D = 2`) used for soundness
//!   in the protocol's random challenges.
//! * [`KoalaBear`] — the 31-bit prime field `p = 2^31 - 2^24 + 1` the
//!   Plonky3-style zkVM stacks run on, with [`KbExt4`] as its degree-4
//!   challenge extension (a 31-bit field needs `D = 4` for ~124 bits of
//!   Schwartz–Zippel room). [`ProtocolField`] is the seam that lets the
//!   FRI/STARK layers stay generic over the `(base, extension)` pair.
//! * [`Polynomial`] — a dense univariate polynomial over any [`Field`].
//! * [`batch_inverse`] — Montgomery's batch-inversion trick over four
//!   interleaved chains, used by the quotient computations and the FRI
//!   combination.
//! * [`bit_reverse`] / [`reverse_index_bits`] — the bit-reversal permutations
//!   that the NTT variants (`NN`, `NR`, …) are defined in terms of.
//! * [`parallel_map`] / [`parallel_ranges`] — the fork/join primitives the
//!   prover's hot loops run on, governed by the process-global
//!   [`set_parallelism`] override (`1` = single-threaded measurement mode).
//!   Workers inherit the caller's open `unizk_testkit::trace` span, so
//!   timings recorded inside parallel regions aggregate under the right
//!   parent instead of double-counting. [`run_indexed`] is the one loop
//!   for a closed batch of unequal items (sweep points, proving jobs):
//!   workers claim the next item, the worker count is an argument.
//! * [`Pool`] / [`TablePool`] — recyclable buffer free-lists. The
//!   proof-serving pipeline bundles them into a `unizk_hash::Workspace`
//!   and threads that through the prover so concurrent jobs reuse
//!   polynomial, codeword, and Merkle allocations instead of churning the
//!   allocator.
//!
//! # Invariants
//!
//! * Every [`Goldilocks`] value is kept in **canonical form** `0 <= x < p`
//!   at all times — constructors reduce on entry, and all arithmetic
//!   returns reduced results, so `==`/`Ord`/`Hash` agree with field
//!   equality and serialized bytes are unique per element.
//! * [`set_parallelism`] is a process-global override latched at the entry
//!   of each parallel call; it caps, never raises, the worker count.
//!
//! # Example
//!
//! ```
//! use unizk_field::{Field, Goldilocks};
//!
//! let a = Goldilocks::from_u64(5);
//! let b = Goldilocks::from_u64(7);
//! assert_eq!((a * b).as_u64(), 35);
//! let inv = b.inverse();
//! assert_eq!(b * inv, Goldilocks::ONE);
//! ```

#![forbid(unsafe_code)]

pub mod ext4;
pub mod extension;
pub mod goldilocks;
pub mod koalabear;
pub mod par;
pub mod poly;
pub mod pool;
pub mod traits;
pub mod util;

pub use ext4::KbExt4;
pub use extension::Ext2;
pub use goldilocks::Goldilocks;
pub use koalabear::KoalaBear;
pub use par::{
    current_parallelism, parallel_chunks_mut, parallel_first_block, parallel_map, parallel_ranges,
    parallel_zip_mut, run_indexed, set_parallelism,
};
pub use poly::Polynomial;
pub use pool::{Pool, PoolStats, TablePool};
pub use traits::{ExtensionOf, Field, PrimeField64, ProtocolField};
pub use util::{batch_inverse, bit_reverse, log2_strict, powers, reverse_index_bits};
