//! A served batch is one trace tree, complete when `Pipeline::run` returns.
//!
//! One test in a file of its own: the trace store and `set_parallelism` are
//! process-wide, so the counts are exact only where nothing else proves
//! beside this test.

use unizk_serve::{Pipeline, PipelineConfig, TrafficSpec};
use unizk_testkit::trace;

const PERMUTATIONS: &str = "poseidon.permutations";

#[test]
fn served_spans_nest_under_the_run_and_are_merged_on_return() {
    // One prover thread per proof, as a server runs it.
    unizk_field::set_parallelism(1);
    let jobs = TrafficSpec::smoke(6).generate();
    let one_shot_total: u64 = jobs
        .iter()
        .map(|job| {
            trace::reset();
            job.spec.prove(None).expect("one-shot proves");
            trace::snapshot().counter(PERMUTATIONS)
        })
        .sum();
    assert!(one_shot_total > 0);

    for workers in [2usize, 4] {
        for repetition in 0..50 {
            trace::reset();
            let report = Pipeline::run(jobs.clone(), &PipelineConfig::with_workers(workers));
            // No sleep, no flush: the workers merged before they were joined.
            let snapshot = trace::snapshot();
            let at = format!("workers={workers} repetition={repetition}");

            assert!(report.results.iter().all(|r| r.outcome.is_ok()), "{at}");
            assert_eq!(snapshot.counter(PERMUTATIONS), one_shot_total, "{at}");
            assert_eq!(snapshot.counter("serve.jobs"), jobs.len() as u64, "{at}");
            assert_eq!(snapshot.counter("serve.jobs_failed"), 0, "{at}");

            let mut proves = 0;
            snapshot.walk(&mut |path, node| {
                if node.name == "stark.prove" {
                    assert_eq!(path, ["serve.run", "serve.job", "stark.prove"], "{at}");
                    proves += node.count;
                }
            });
            assert_eq!(proves, jobs.len() as u64, "{at}");
            let job_spans = snapshot
                .node(&["serve.run", "serve.job"])
                .expect("serve.job");
            assert_eq!(job_spans.count, jobs.len() as u64, "{at}");
        }
    }
}
