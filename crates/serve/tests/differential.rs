//! Differential wall: the proof-serving pipeline against the one-shot
//! prover.
//!
//! The pipeline's whole value rests on one claim — scheduling moves *when*
//! a proof is computed, never *what* it is. This suite pins the claim
//! exhaustively over the axes a deployment can vary:
//!
//! * worker count: inline (`0`), single (`1`), and oversubscribed (`2`,
//!   `4` — the host may have fewer cores, which is exactly the contended
//!   case worth testing);
//! * arrival order: in-order, reversed, and interleaved submissions.
//!
//! Every cell of that grid must reproduce the one-shot proof bytes for
//! every job id.

use std::collections::HashMap;

use unizk_serve::{AppKind, Job, JobSpec, Pipeline, PipelineConfig, PoolMode, TrafficSpec};

/// One-shot reference bytes per distinct spec key in `jobs`.
fn references(jobs: &[Job]) -> HashMap<String, Vec<u8>> {
    let mut refs = HashMap::new();
    for job in jobs {
        refs.entry(job.spec.key())
            .or_insert_with(|| job.spec.prove(None).expect("one-shot proves").to_bytes());
    }
    refs
}

/// Asserts every pipeline proof equals its spec's one-shot reference.
fn assert_identical(jobs: &[Job], config: &PipelineConfig, refs: &HashMap<String, Vec<u8>>) {
    let report = Pipeline::run(jobs.to_vec(), config);
    assert_eq!(report.results.len(), jobs.len());
    let by_id: HashMap<u64, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
    for result in &report.results {
        let job = by_id[&result.id];
        let bytes = result.proof_bytes().expect("pipeline job proves");
        assert_eq!(
            &bytes,
            &refs[&job.spec.key()],
            "job {} ({}) diverged under workers={}",
            result.id,
            job.spec.key(),
            config.workers,
        );
    }
}

#[test]
fn every_worker_count_matches_one_shot() {
    let jobs = TrafficSpec::smoke(8).generate();
    let refs = references(&jobs);
    for workers in [0usize, 1, 2, 4] {
        assert_identical(&jobs, &PipelineConfig::with_workers(workers), &refs);
    }
}

/// `PoolMode` and `pool_stats` survive only as names `benchmark/` still
/// uses: either mode proves the same bytes, and there are never stats.
#[test]
fn pool_names_are_inert() {
    let jobs = TrafficSpec::smoke(4).generate();
    let refs = references(&jobs);
    for pool in [PoolMode::Off, PoolMode::PerWorker] {
        let config = PipelineConfig { workers: 2, pool };
        assert_identical(&jobs, &config, &refs);
        assert!(Pipeline::run(jobs.clone(), &config).pool_stats().is_none());
    }
}

#[test]
fn arrival_order_does_not_change_any_proof() {
    let in_order = TrafficSpec::smoke(8).generate();
    let refs = references(&in_order);

    let mut reversed = in_order.clone();
    reversed.reverse();

    // Interleave: evens first, then odds — adjacent submissions land on
    // different workers than in-order submission would produce.
    let mut interleaved: Vec<Job> = in_order.iter().step_by(2).cloned().collect();
    interleaved.extend(in_order.iter().skip(1).step_by(2).cloned());

    let config = PipelineConfig::with_workers(2);
    for jobs in [&in_order, &reversed, &interleaved] {
        assert_identical(jobs, &config, &refs);
    }
}

#[test]
fn report_invariants_hold() {
    for workers in [0usize, 1, 2, 4] {
        let jobs = TrafficSpec::smoke(8).generate();
        let n = jobs.len();
        let report = Pipeline::run(jobs, &PipelineConfig::with_workers(workers));
        let lanes = workers.max(1);

        // Conservation: every job proved exactly once, by exactly one
        // worker, and a worker's busy time is its jobs' service time.
        assert_eq!(report.results.len(), n);
        assert_eq!(report.workers.len(), lanes);
        assert_eq!(report.workers.iter().map(|w| w.jobs).sum::<usize>(), n);
        assert!(report.results.iter().all(|r| r.worker < lanes));
        for w in &report.workers {
            let mut mine: Vec<_> = report
                .results
                .iter()
                .filter(|r| r.worker == w.worker)
                .collect();
            assert_eq!(w.jobs, mine.len());
            assert_eq!(w.busy_ns, mine.iter().map(|r| r.service_ns).sum::<u64>());

            // One sojourn definition at every worker count: completion
            // time on the batch's clock. A worker proves one job at a
            // time, so each of its completions lies at least that job's
            // service time after the previous one — in particular sojourn
            // >= service, and a job that waited behind another says so.
            mine.sort_by_key(|r| r.sojourn_ns);
            let mut previous_completion = 0;
            for r in mine {
                assert!(
                    r.sojourn_ns >= previous_completion + r.service_ns,
                    "workers={workers} job {}: completed at {} ns after {} ns of proving, \
                     but its worker was busy until {previous_completion} ns",
                    r.id,
                    r.sojourn_ns,
                    r.service_ns,
                );
                previous_completion = r.sojourn_ns;
            }
        }

        // Percentiles are monotone in p, and wall time bounds every sojourn.
        let p50 = report.sojourn_percentile_ns(50);
        let p95 = report.sojourn_percentile_ns(95);
        let p99 = report.sojourn_percentile_ns(99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(report
            .results
            .iter()
            .all(|r| r.sojourn_ns <= report.wall_ns));

        // Utilization is a fraction of wall time per worker.
        let util = report.utilization();
        assert_eq!(util.len(), lanes);
        assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));

        // Throughput is consistent with the wall clock.
        let tput = report.throughput_per_sec();
        let expect = n as f64 / (report.wall_ns as f64 / 1e9);
        assert!((tput - expect).abs() < 1e-9);
    }
}

/// Fault injection: three specs the prover cannot prove, mixed into a
/// smoke batch. Each fails alone, with the reason in its message; every
/// other job's proof is the one-shot prover's, and the run returns.
#[test]
fn a_failing_job_fails_alone() {
    let mut jobs = TrafficSpec::smoke(6).generate();
    let refs = references(&jobs);
    let config = jobs[0].spec.config.clone();
    // (where in the batch, spec, what the failure says)
    let faults = [
        // `FibonacciAir::new` panics below two rows.
        (0, AppKind::Fibonacci, 1, "power of two >= 2"),
        // No AIR accepts a trace height that is not a power of two.
        (3, AppKind::Countdown, 96, "power of two"),
        // Provable shape, refused parameters: the prover returns
        // `Err(InsecureParameters)` for a 4-row trace under this config.
        (7, AppKind::RangeAccumulator, 4, "P03"),
    ];
    for (at, app, rows, _) in &faults {
        let spec = JobSpec {
            app: *app,
            rows: *rows,
            config: config.clone(),
        };
        jobs.insert(*at, Job { id: 0, spec });
    }
    for (id, job) in jobs.iter_mut().enumerate() {
        job.id = id as u64;
    }

    for workers in [0usize, 1, 2, 4] {
        let report = Pipeline::run(jobs.clone(), &PipelineConfig::with_workers(workers));
        assert_eq!(report.results.len(), jobs.len());
        for (result, job) in report.results.iter().zip(&jobs) {
            let fault = faults.iter().find(|(at, ..)| *at as u64 == result.id);
            match (&result.outcome, fault) {
                (Ok(proof), None) => assert_eq!(
                    proof.to_bytes(),
                    refs[&job.spec.key()],
                    "job {} diverged beside failing jobs, workers={workers}",
                    result.id,
                ),
                (Err(e), Some((.., reason))) => assert!(
                    e.to_string().contains(reason),
                    "job {}: {e:?} does not mention {reason:?}",
                    result.id,
                ),
                (outcome, _) => panic!(
                    "job {} ({}): unexpected {outcome:?}, workers={workers}",
                    result.id,
                    job.spec.key(),
                ),
            }
        }
    }
}
