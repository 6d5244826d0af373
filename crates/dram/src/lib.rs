//! An HBM2e timing model in the spirit of Ramulator2 / the paper's RamSim.
//!
//! The paper equips UniZK with two HBM2e PHYs for ~1 TB/s of peak bandwidth
//! and drives them from a trace-driven simulator (§6, artifact appendix).
//! This crate reproduces that memory substrate:
//!
//! * [`HbmConfig`] — channel/bank/row geometry and timing parameters, with
//!   the paper's two-stack configuration as [`HbmConfig::hbm2e_two_stacks`]
//!   and bandwidth-scaled variants for the Fig. 10 sweep.
//! * [`MemorySystem`] — a transaction-level simulator with per-bank
//!   row-buffer state and per-channel data-bus occupancy.
//! * [`MemoryModel`] — the fast per-kernel interface the accelerator
//!   simulator uses: cycles for a given number of bytes under a given
//!   [`AccessPattern`], with pattern efficiencies *measured* on the
//!   transaction simulator, once per process for each configuration.
//!
//! # Example
//!
//! ```
//! use unizk_dram::{AccessPattern, HbmConfig, MemoryModel};
//!
//! let model = MemoryModel::new(HbmConfig::hbm2e_two_stacks());
//! let seq = model.stream_cycles(1 << 20, AccessPattern::Sequential);
//! let rnd = model.stream_cycles(1 << 20, AccessPattern::random_blocks());
//! assert!(rnd > seq, "random access must cost more cycles");
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod model;
pub mod system;

pub use config::HbmConfig;
pub use model::{AccessPattern, MemoryModel};
pub use system::{MemStats, MemorySystem, Transaction};
