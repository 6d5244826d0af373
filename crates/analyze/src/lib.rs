//! # unizk-analyze — static schedule verification tooling
//!
//! The rule engine itself lives in [`unizk_core::analyze`] so the
//! simulator can verify every graph it runs under `debug_assertions`.
//! This crate is the tooling built on top of it:
//!
//! * [`corpus`] — a mutation corpus: known-good compiled graphs corrupted
//!   in named ways (cycle insertion, dependency deletion, reuse
//!   inflation, …), each tagged with the exact rule id the analyzer must
//!   report. The corpus is both a test fixture and living documentation
//!   of what each rule catches.
//! * [`lint`] — target enumeration and summary types for the `lint` CLI:
//!   every built-in workload (Plonky2 apps at CI and paper scale, plus
//!   the Starky pipeline) and every sweep point of every spec file under
//!   `crates/explore/specs/`.
//! * the `lint` binary (`src/bin/lint.rs`) — checks all of the above and
//!   exits nonzero on any error-severity diagnostic. `scripts/ci.sh` runs
//!   it as part of the tier-1 gate, before it checks `CONTRACT.json`.
//!
//! The analyzer API re-exported here:
//!
//! ```
//! use unizk_analyze::{check, error_count};
//! use unizk_core::compiler::{compile_plonky2, Plonky2Instance};
//! use unizk_core::ChipConfig;
//!
//! let graph = compile_plonky2(&Plonky2Instance::new(1 << 10, 135));
//! let diags = check(&graph, &ChipConfig::default_chip());
//! assert_eq!(error_count(&diags), 0);
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod lint;

pub use unizk_core::analyze::{
    check, check_multi, check_params, cost_envelope, error_count, render_all, CostEnvelope,
    Diagnostic, MultiChipSchedule, ProtocolParams, Rule, Severity, CLASS_ORDER, LIVENESS_WINDOW,
    MAX_NTT_LOG2,
};
