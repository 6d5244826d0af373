//! The proof-serving pipeline: a closed batch of jobs proved by a set of
//! workers.
//!
//! Every caller hands over the complete job list up front, so the batch
//! runs on the workspace's one closed-batch loop
//! ([`unizk_field::par::run_indexed`], the loop `unizk-explore` sweeps a
//! grid on): workers claim the next job in slice order until none is left.
//!
//! # Determinism contract
//!
//! Scheduling is free-running — which worker proves which job, and in what
//! order jobs complete, varies run to run. The *outputs* do not: each
//! proof depends only on its [`JobSpec`], so the report's
//! id → proof mapping is byte-identical across worker counts and arrival
//! orders. Latency and utilization figures are measurements,
//! not deterministic quantities; everything a correctness gate should pin
//! lives in the proofs.
//!
//! # Failure containment
//!
//! A job fails alone. A spec the prover refuses (`Err`) or panics on
//! becomes that job's failed [`JobResult`] with the reason in its
//! [`JobError`]; the worker claims the next job and the run returns.
//!
//! # Trace
//!
//! The batch runs inside a `serve.run` span and every prove inside a
//! `serve.job` span under it, on whichever thread proves it, so the
//! prover's `stark.prove` trees, every region span included, nest under
//! `serve.run/serve.job`. Each run publishes the counters `serve.jobs` and
//! `serve.jobs_failed`. Everything is merged into the trace store by the
//! time [`Pipeline::run`] returns.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use unizk_field::par::run_indexed;
use unizk_stark::{StarkError, StarkProof};
use unizk_testkit::{stats, trace};

use crate::job::{Job, JobSpec};

/// Accepted and ignored: every job allocates its own buffers; `benchmark/`
/// still names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolMode {
    /// Ignored.
    Off,
    /// Ignored.
    #[default]
    PerWorker,
}

/// The item type of [`PipelineReport::pool_stats`]: uninhabited, so the
/// accessor is always `None`; `benchmark/` still names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoPool {}

impl NoPool {
    /// Unreachable: there is no value to ask.
    pub fn hit_rate(&self) -> Option<f64> {
        match *self {}
    }
}

/// Pipeline shape: the worker count.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Prover threads. `0` and `1` prove every job on the calling thread
    /// (the single-lane pipeline, useful as a reference).
    pub workers: usize,
    /// Accepted and ignored; `benchmark/` still sets it.
    pub pool: PoolMode,
}

impl PipelineConfig {
    /// `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            pool: PoolMode::PerWorker,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::with_workers(1)
    }
}

/// Why a job produced no proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The prover returned an error for the spec (for the stock AIRs:
    /// parameters the static P-rule checker refuses).
    Prover(StarkError),
    /// The prover panicked on the spec (a trace height no AIR accepts);
    /// the payload is the panic message.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Prover(e) => write!(f, "{e}"),
            Self::Panicked(message) => write!(f, "prover panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The outcome of one job, with its timeline inside the batch.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's caller-assigned id.
    pub id: u64,
    /// The proof, or why there is none.
    pub outcome: Result<StarkProof, JobError>,
    /// Index of the worker that proved it (`0` on the calling thread).
    pub worker: usize,
    /// Batch start → completion (wait for a free worker + proving), in
    /// nanoseconds: every job of a closed batch is submitted when the
    /// batch is, at every worker count.
    pub sojourn_ns: u64,
    /// Claim → completion (proving only), in nanoseconds.
    pub service_ns: u64,
}

impl JobResult {
    /// Serialized proof bytes, if the job succeeded.
    pub fn proof_bytes(&self) -> Option<Vec<u8>> {
        self.outcome.as_ref().ok().map(StarkProof::to_bytes)
    }
}

/// Per-worker accounting for one pipeline run.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index in `0..workers`.
    pub worker: usize,
    /// Jobs this worker proved.
    pub jobs: usize,
    /// Time spent proving: the summed service time of this worker's jobs.
    pub busy_ns: u64,
}

/// Everything one [`Pipeline::run`] produced.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// One entry per submitted job, **sorted by job id** — the
    /// deterministic id → proof mapping.
    pub results: Vec<JobResult>,
    /// One entry per worker (a single entry for `workers: 0`).
    pub workers: Vec<WorkerReport>,
    /// Wall-clock time of the whole run (batch start → last completion).
    pub wall_ns: u64,
}

impl PipelineReport {
    /// Completed proofs per second of wall-clock time.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.results.len() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Nearest-rank percentile (`p` in 1..=100) of sojourn latency.
    ///
    /// Delegates to [`unizk_testkit::stats::percentile`] so the serving
    /// pipeline, the bench binaries, and the fleet simulator all report
    /// identically-computed figures.
    pub fn sojourn_percentile_ns(&self, p: u32) -> u64 {
        stats::percentile(self.results.iter().map(|r| r.sojourn_ns), p)
    }

    /// Nearest-rank percentile (`p` in 1..=100) of service latency.
    pub fn service_percentile_ns(&self, p: u32) -> u64 {
        stats::percentile(self.results.iter().map(|r| r.service_ns), p)
    }

    /// Per-worker busy fraction of the run's wall-clock time.
    pub fn utilization(&self) -> Vec<f64> {
        let busy: Vec<u64> = self.workers.iter().map(|w| w.busy_ns).collect();
        stats::utilizations(&busy, self.wall_ns)
    }

    /// Always `None`; `benchmark/` still calls it.
    pub fn pool_stats(&self) -> Option<NoPool> {
        None
    }
}

/// The multi-worker proof server. See the module docs for the determinism
/// contract.
pub struct Pipeline;

impl Pipeline {
    /// Proves every job in `jobs` under `config` and returns the report.
    ///
    /// Workers claim jobs in slice order. The returned results are sorted
    /// by job id, so `report.results[i]` is job `jobs[i]` whenever ids are
    /// `0..n` in order. A job whose spec the prover refuses or panics on is
    /// reported as a failed [`JobResult`]; the others are unaffected.
    ///
    /// `config.workers` counts jobs in flight, not threads: each prove
    /// still splits its NTTs, Merkle levels and grind across
    /// [`unizk_field::par::current_parallelism`] threads, so up to
    /// `workers × current_parallelism()` threads run at once (`workers ×
    /// cores` by default). A caller that wants one thread per worker calls
    /// `unizk_field::set_parallelism(1)` first — the repository benchmark's
    /// `serve_mix_gl` does, with one worker per core.
    ///
    /// # Panics
    ///
    /// Panics if two jobs share an id.
    pub fn run(jobs: Vec<Job>, config: &PipelineConfig) -> PipelineReport {
        {
            let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), jobs.len(), "job ids must be unique");
        }
        let _run_span = trace::span("serve.run");

        let epoch = Instant::now();
        let mut results = run_indexed(config.workers, jobs, |worker, _, job| {
            let start = elapsed_ns(epoch);
            let outcome = trace::with_span("serve.job", || prove_contained(&job.spec));
            let done = elapsed_ns(epoch);
            JobResult {
                id: job.id,
                outcome,
                worker,
                sojourn_ns: done,
                service_ns: done - start,
            }
        });
        let wall_ns = elapsed_ns(epoch);
        results.sort_by_key(|r| r.id);

        let workers = (0..config.workers.max(1))
            .map(|worker| {
                let proved = results.iter().filter(|r| r.worker == worker);
                WorkerReport {
                    worker,
                    jobs: proved.clone().count(),
                    busy_ns: proved.map(|r| r.service_ns).sum(),
                }
            })
            .collect();
        let report = PipelineReport {
            results,
            workers,
            wall_ns,
        };

        let failed = report.results.iter().filter(|r| r.outcome.is_err()).count();
        trace::counter("serve.jobs", report.results.len() as u64);
        trace::counter("serve.jobs_failed", failed as u64);
        report
    }
}

/// [`JobSpec::prove`] with the failure kept inside the job: a prover error
/// or a panic comes back as this job's [`JobError`].
fn prove_contained(spec: &JobSpec) -> Result<StarkProof, JobError> {
    // A job shares no state with the next one on its worker, so a prove
    // abandoned half-way leaves nothing a later job can observe.
    match catch_unwind(AssertUnwindSafe(|| spec.prove(None))) {
        Ok(outcome) => outcome.map_err(JobError::Prover),
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            Err(JobError::Panicked(message.to_string()))
        }
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AppKind, JobSpec};
    use unizk_stark::StarkConfig;

    fn tiny_jobs(n: usize) -> Vec<Job> {
        (0..n as u64)
            .map(|id| Job {
                id,
                spec: JobSpec {
                    app: AppKind::Fibonacci,
                    rows: 64,
                    config: StarkConfig::for_testing(),
                },
            })
            .collect()
    }

    #[test]
    fn report_is_sorted_and_complete() {
        let report = Pipeline::run(tiny_jobs(5), &PipelineConfig::with_workers(2));
        assert_eq!(report.results.len(), 5);
        let ids: Vec<u64> = report.results.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(report.results.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.workers.iter().map(|w| w.jobs).sum::<usize>(), 5);
    }

    #[test]
    fn inline_mode_matches_threaded() {
        let threaded = Pipeline::run(tiny_jobs(3), &PipelineConfig::with_workers(2));
        let inline = Pipeline::run(tiny_jobs(3), &PipelineConfig::with_workers(0));
        for (a, b) in threaded.results.iter().zip(&inline.results) {
            assert_eq!(a.proof_bytes(), b.proof_bytes());
        }
    }

    #[test]
    fn percentiles_use_the_shared_nearest_rank_helper() {
        // The report's accessors must agree with the testkit definition
        // on a concrete population (4 jobs → p50 is the 2nd sample).
        let report = Pipeline::run(tiny_jobs(4), &PipelineConfig::with_workers(2));
        let expected = stats::percentile(report.results.iter().map(|r| r.sojourn_ns), 50);
        assert_eq!(report.sojourn_percentile_ns(50), expected);
        assert_eq!(
            report.service_percentile_ns(99),
            stats::percentile(report.results.iter().map(|r| r.service_ns), 99)
        );
    }

    #[test]
    fn insecure_job_parameters_fail_that_job_alone() {
        let mut jobs = tiny_jobs(3);
        // 1 query · 1 rate bit + 4 pow bits = 5 < the 8-bit test target.
        jobs[1].spec.config.fri.num_queries = 1;
        let report = Pipeline::run(jobs, &PipelineConfig::default());
        let Err(JobError::Prover(StarkError::InsecureParameters(why))) = &report.results[1].outcome
        else {
            panic!("job 1 must be refused: {:?}", report.results[1].outcome);
        };
        assert!(why.contains("P01"), "{why}");
        assert!(report.results[0].outcome.is_ok() && report.results[2].outcome.is_ok());
    }

    #[test]
    #[should_panic(expected = "job ids must be unique")]
    fn duplicate_ids_rejected() {
        let mut jobs = tiny_jobs(2);
        jobs[1].id = 0;
        let _ = Pipeline::run(jobs, &PipelineConfig::default());
    }
}
