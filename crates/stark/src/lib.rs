//! A Starky-style STARK prover over algebraic execution traces.
//!
//! Starky (paper §2.2, Fig. 2) represents a computation as an Algebraic
//! Execution Trace (AET): a table whose rows are machine states and whose
//! adjacent rows satisfy *transition constraints*; *boundary constraints*
//! pin inputs and outputs. The FRI commitment uses a blowup of only 2, so
//! base proofs are cheap but large — the paper then compresses them with a
//! recursive Plonky2 proof ([`aggregate()`]).
//!
//! # Example
//!
//! ```
//! use unizk_field::{Field, Goldilocks};
//! use unizk_stark::{prove, verify, FibonacciAir, StarkConfig};
//!
//! // Paper Fig. 2: prove the n-th Fibonacci number.
//! let air = FibonacciAir::new(64);
//! let config = StarkConfig::for_testing();
//! let proof = prove(&air, &config).expect("trace satisfies the AIR");
//! verify(&air, &proof, &config).expect("proof verifies");
//! ```

#![forbid(unsafe_code)]

pub mod air;
pub mod aggregate;
pub mod airs;
pub mod config;
pub mod proof;
pub mod prover;
pub mod verifier;

pub use air::{Air, Boundary};
pub use aggregate::{aggregate, aggregate_many, recursive_circuit, AggregatedProof};
pub use airs::{CountdownAir, FibonacciAir, RangeAccumulatorAir};
pub use config::{check_protocol, KbStarkConfig, StarkConfig};
pub use proof::StarkProof;
pub use prover::prove;
pub use verifier::{verify, StarkError};
