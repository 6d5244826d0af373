//! Proof-serving pipeline for the UniZK reproduction.
//!
//! The paper evaluates UniZK as a proof *server*: a stream of proving jobs
//! arriving at a fixed hardware budget. This crate reproduces that setting
//! in software — the systems layer above `unizk_stark::prove`:
//!
//! * [`Pipeline`] — proves a closed batch of jobs on the workspace's one
//!   claim-the-next-item loop (`unizk_field::par::run_indexed`, the loop
//!   `unizk-explore` sweeps a grid on); each worker proves jobs with an
//!   optional per-worker [`Workspace`](unizk_hash::Workspace) so one job's
//!   large allocations (LDE codewords, Merkle leaf tables and digest
//!   levels, FRI fold layers) are recycled into the next. A job the prover
//!   refuses or panics on fails alone ([`JobError`]), and the whole run is
//!   one `serve.run` trace span with a `serve.job` child per proof.
//! * [`TrafficSpec`] — deterministic synthetic workloads over a weighted
//!   mix of the demo AIRs, shared by the throughput benchmark and the CI
//!   smoke gate.
//!
//! # Determinism contract
//!
//! Every proof produced by the pipeline is **byte-identical** to the
//! one-shot `unizk_stark::prove` output for the same
//! [`JobSpec`] — for every worker count (including `workers: 0`, the
//! calling thread), every [`PoolMode`], and every arrival order.
//! Scheduling only moves *when* a proof is computed, never *what* it is;
//! the differential test suite in `tests/` pins this.
//!
//! # Example
//!
//! ```
//! use unizk_serve::{Pipeline, PipelineConfig, TrafficSpec};
//!
//! let jobs = TrafficSpec::smoke(4).generate();
//! let report = Pipeline::run(jobs.clone(), &PipelineConfig::with_workers(2));
//! // Deterministic id → proof mapping, regardless of completion order:
//! assert_eq!(report.results.len(), 4);
//! for (i, r) in report.results.iter().enumerate() {
//!     assert_eq!(r.id, i as u64);
//!     assert_eq!(
//!         r.proof_bytes().unwrap(),
//!         jobs[i].spec.prove(None).unwrap().to_bytes(),
//!     );
//! }
//! ```

#![forbid(unsafe_code)]

pub mod job;
pub mod pipeline;
pub mod traffic;

pub use job::{AppKind, Job, JobSpec};
pub use pipeline::{
    JobError, Pipeline, PipelineConfig, PipelineReport, PoolMode, WorkerReport,
};
pub use traffic::{MixEntry, TrafficSpec};
