//! Parallel design-space exploration over the UniZK cycle-level simulator.
//!
//! The paper evaluates one chip (Table 2). This crate asks the question
//! behind that table: across the chip's configuration axes, which designs
//! are actually worth building? It does so with four pieces:
//!
//! - [`spec`] — a declarative grid: chip axes ([`unizk_core::ChipConfig`]
//!   knobs), a DRAM bandwidth axis, and a workload list, built fluently
//!   or parsed from a JSON file.
//! - [`engine`] — enumerates the grid, executes every point on the
//!   workspace's one closed-batch loop (`unizk_field::par::run_indexed`,
//!   shared with the serving pipeline), memoizes finished points in an
//!   on-disk [`cache`] when given a directory, keyed by a stable FNV-1a
//!   [`hash`] of the (config, workload, schema version) triple, and
//!   extracts the [`pareto`] frontier over (cycles, area, power).
//! - [`point`] — the unit of work: one (chip, workload) pair — optionally
//!   lifted to a multi-chip fleet point via `unizk-fleet` — its cache
//!   key, its simulation, and its GPU/PipeZK speedup columns.
//! - The `sweep` binary — `cargo run -p unizk-explore --bin sweep --
//!   --spec specs/smoke.json --jobs 4` — which writes the JSON artifact
//!   and a markdown report.
//!
//! Everything is deterministic: the artifact depends only on the spec,
//! never on worker count, cache state, or timing. `tests/determinism.rs`
//! pins this down byte-for-byte, and the smoke sweep in `scripts/ci.sh`
//! exercises the cache end to end.
//!
//! ```
//! use unizk_explore::{run_sweep, SweepOptions, SweepSpec};
//! use unizk_workloads::{App, Scale};
//!
//! let spec = SweepSpec::new("doc")
//!     .num_vsas([16, 32])
//!     .workload(App::Fibonacci, Scale::Shrunk(8));
//! let result = run_sweep(&spec, &SweepOptions::default()).unwrap();
//! assert_eq!(result.points.len(), 2);
//! assert!(!result.pareto.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod hash;
pub mod pareto;
pub mod point;
pub mod spec;

pub use cache::Cache;
pub use engine::{run_sweep, SweepOptions, SweepResult, SWEEP_SCHEMA};
pub use pareto::{dominates, frontier};
pub use point::{FleetParams, FleetRow, PointResult, SweepPoint, POINT_SCHEMA};
pub use spec::{FleetAxes, SweepSpec, WorkloadSpec, SPEC_SCHEMA};
