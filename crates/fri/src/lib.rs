//! FRI — the Fast Reed–Solomon IOP of Proximity — as the polynomial
//! commitment scheme of Plonky2 and Starky (paper Fig. 1, right).
//!
//! The flow matches the paper's three FRI steps:
//!
//! 1. **Commit** ([`PolynomialBatch`]): `iNTT^NN` to coefficients, low-degree
//!    extension with blowup `k` (8 for Plonky2, 2 for Starky), `NTT^NR` onto
//!    a multiplicative coset, then a Merkle tree whose leaf `i` concatenates
//!    the values of every polynomial at LDE point `i`.
//! 2. **Open** ([`prover::fri_prove`]): batch all committed polynomials and
//!    out-of-domain points into one low-degree claim, then run the FRI
//!    commit phase (arity-2 folds, one Merkle tree per round), a
//!    proof-of-work grind, and the query phase with authentication paths.
//! 3. **Verify** ([`verifier::fri_verify`]): replay the transcript, check
//!    the grind, and for each query check every Merkle opening and fold
//!    step down to the final polynomial.
//!
//! Both provers' quotients run on one engine, [`quotient`]: a constraint
//! evaluated over the LDE positions, then a coset iNTT per round.
//!
//! # Example
//!
//! ```
//! use unizk_field::{Ext2, Field, Goldilocks, Polynomial, PrimeField64};
//! use unizk_fri::{fri_prove, fri_verify, FriConfig, PolynomialBatch};
//! use unizk_hash::Challenger;
//!
//! let config = FriConfig::for_testing();
//! let polys: Vec<Polynomial<Goldilocks>> = (0..3u64)
//!     .map(|s| Polynomial::from_coeffs(
//!         (0..16).map(|i| Goldilocks::from_u64(s + i)).collect()))
//!     .collect();
//! let batch = PolynomialBatch::from_coeffs(polys, &config);
//!
//! let mut challenger = Challenger::new();
//! challenger.observe_digest(batch.root());
//! let zeta = Ext2::from(Goldilocks::from_u64(12345));
//! let proof = fri_prove(&[&batch], &[zeta], &mut challenger, &config);
//!
//! let mut v = Challenger::new();
//! v.observe_digest(batch.root());
//! fri_verify(&[batch.root()], &[batch.num_polys()], 16, &[zeta], &proof, &mut v, &config)
//!     .expect("honest proof verifies");
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod config;
pub mod domain;
pub mod proof;
pub mod prover;
pub mod quotient;
pub mod serialization;
pub mod timing;
pub mod verifier;

pub use batch::{GenericPolynomialBatch, PolynomialBatch};
pub use config::FriConfig;
pub use proof::{FriProof, FriQueryRound};
pub use prover::{fri_prove, grind, pow_ok};
pub use serialization::{Reader, WireError, Writer};
pub use timing::{kernel_totals_from, KernelClass};
pub use verifier::{fri_verify, FriError};

/// The unit tests that set the process-wide thread count hold this lock, so
/// that each runs at the thread counts it names.
#[cfg(test)]
pub(crate) static PARALLELISM_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());
