//! Every `(HbmConfig, AccessPattern)` pair is replayed once per process,
//! however many threads ask for it at the same moment.
//!
//! One test in a file of its own: `dram.probes` is a process-wide counter,
//! so the count is only exact where no other test measures beside it.

use std::sync::Barrier;

use unizk_dram::{AccessPattern, HbmConfig, MemoryModel};
use unizk_testkit::trace;

#[test]
fn eight_threads_measure_each_pattern_once() {
    const THREADS: usize = 8;
    let patterns = [
        AccessPattern::Sequential,
        AccessPattern::Strided { bursts: 33 },
        AccessPattern::Random { log2_working_set: 24 },
        AccessPattern::ShortRuns { run: 2 },
    ];
    let config = HbmConfig::hbm2e_two_stacks();

    trace::reset();
    // All eight miss the same pattern at once, pattern after pattern.
    let barrier = Barrier::new(THREADS);
    let seen: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let model = MemoryModel::new(config.clone());
                    let seen = patterns
                        .iter()
                        .map(|&pattern| {
                            barrier.wait();
                            model.efficiency(pattern).to_bits()
                        })
                        .collect();
                    trace::flush();
                    seen
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });

    assert!(seen.iter().all(|s| *s == seen[0]), "threads disagree: {seen:?}");
    let report = trace::snapshot();
    assert_eq!(report.counter("dram.probes"), patterns.len() as u64);
    assert_eq!(report.counter("dram.probe_bursts"), 50_000 * patterns.len() as u64);
}
