//! # unizk-testkit — hermetic test & report infrastructure
//!
//! The UniZK reproduction builds in environments with **no network and no
//! registry access**, so every crate that used to pull `rand`, `proptest`,
//! `serde`, or `criterion` from crates.io depends on this kit instead. It
//! is a leaf crate (no dependencies whatsoever) providing:
//!
//! * [`args`] — the strict command-line parser every binary of the
//!   workspace shares: an unknown or repeated flag, a missing or
//!   unparseable value is reason + usage on stderr and exit status 2.
//! * [`rng`] — seedable SplitMix64 / xoshiro256** PRNGs with `rand`-style
//!   `gen` / `gen_range` methods and a [`rng::Sample`] trait the field
//!   crates implement for Goldilocks and extension elements.
//! * [`mod@prop`] — a proptest-like property harness: the
//!   [`prop!`](crate::prop!) macro, strategies (`any`, ranges, tuples,
//!   `prop_map`, `collection::vec`, [`prop_oneof!`](crate::prop_oneof!)),
//!   bisection shrinking, and failure-seed reporting (reproduce any
//!   failure with `UNIZK_PROP_SEED=<seed> cargo test <name>`).
//! * [`json`] — a minimal ordered JSON writer **and parser** for the
//!   `results/` / `CONTRACT.json` / `SWEEP.json` emitters and the tests
//!   that read them back.
//! * [`render`] — aligned text/markdown table rendering shared by the
//!   bench binaries and the explore crate's sweep reports.
//! * [`stats`] — the shared nearest-rank percentile and utilization
//!   math behind every throughput report (serving pipeline, fleet
//!   simulator), so software and hardware reports compute latency
//!   figures identically.
//! * [`trace`] — the hierarchical span/counter tracing layer behind the
//!   prover and simulator perf breakdowns: scoped [`trace::Span`] guards,
//!   per-thread collectors merged monotonically across fork/join workers,
//!   named `u64` counters, and JSON / folded-flamegraph export.
//!
//! Determinism is the design constraint throughout: all randomness flows
//! from explicit `u64` seeds through portable integer-only generators, so
//! any test failure reproduces bit-for-bit on any machine.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod args;
pub mod json;
pub mod prop;
pub mod render;
pub mod rng;
pub mod stats;
pub mod trace;

pub use args::Args;
pub use json::{Json, ToJson};
pub use rng::{Rng, Sample, TestRng};
pub use trace::{Span, SpanHandle, TraceNode, TraceReport};
