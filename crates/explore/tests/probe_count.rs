//! A sweep measures each `(HbmConfig, AccessPattern)` pair its points use
//! once, however many points and workers share it, and what it computes
//! from the shared measurements does not depend on who measured first.
//!
//! One test in a file of its own: the memo and the `dram.*` counters are
//! process-wide, so "cold" and the probe count are only exact where no
//! other test simulates beside this one.

use std::collections::HashSet;

use unizk_core::compiler::compile_plonky2;
use unizk_core::mapping::map_kernel;
use unizk_dram::{AccessPattern, HbmConfig};
use unizk_explore::{run_sweep, SweepOptions, SweepSpec};
use unizk_testkit::trace;
use unizk_workloads::{App, Scale};

/// The repository benchmark's `chip_sweep` grid: 60 chips, two of them
/// HBM configurations, for each of the six apps.
fn benchmark_grid() -> SweepSpec {
    let mut spec = SweepSpec::new("probe-count")
        .num_vsas([4, 8, 16, 32, 64])
        .scratchpad_mb([4, 8, 16])
        .ntt_pipeline_log2([5, 6])
        .bandwidth_scales([(1, 2), (1, 1)]);
    for app in App::ALL {
        spec = spec.workload(app, Scale::Shrunk(4));
    }
    spec
}

#[test]
fn a_cold_sweep_probes_each_config_and_pattern_once() {
    let spec = benchmark_grid();
    let points = spec.enumerate().unwrap();
    assert_eq!(points.len(), 360);

    // What the grid asks the memory model, derived without simulating.
    let mut pairs: HashSet<(HbmConfig, AccessPattern)> = HashSet::new();
    for point in &points {
        for node in compile_plonky2(&point.instance()).nodes() {
            let cost = map_kernel(&node.kernel, &point.chip);
            if cost.total_bytes() > 0 {
                pairs.insert((point.chip.hbm.clone(), cost.pattern));
            }
        }
    }
    let configs: HashSet<&HbmConfig> = pairs.iter().map(|(config, _)| config).collect();
    let patterns: HashSet<AccessPattern> = pairs.iter().map(|&(_, pattern)| pattern).collect();
    // Every pattern occurs on both configurations: configs × patterns.
    assert_eq!((configs.len(), patterns.len(), pairs.len()), (2, 5, 10));
    let expected = pairs.len() as u64;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = |jobs| {
        let options = SweepOptions { jobs, ..SweepOptions::default() };
        run_sweep(&spec, &options).unwrap().to_json().to_string()
    };

    // Cold, with every worker missing the same pairs at the start.
    trace::reset();
    let parallel = sweep(nproc);
    let cold = trace::snapshot();
    assert_eq!(cold.counter("dram.probes"), expected);
    assert_eq!(cold.counter("dram.probe_bursts"), 50_000 * expected);

    // Each published `*_ppm.*` value is one measurement, not a sum over
    // points or over the two configurations.
    let ppm: Vec<_> = cold.counters.iter().filter(|(name, _)| name.contains("_ppm.")).collect();
    assert_eq!(ppm.len() as u64, 2 * expected, "{ppm:?}");
    for (name, value) in ppm {
        assert!(*value <= 1_000_000, "{name} = {value} is not a ppm");
    }

    // Answered from the memo on one worker: no new probe, the same bytes.
    let serial = sweep(1);
    assert_eq!(trace::snapshot().counter("dram.probes"), expected);
    assert_eq!(serial, parallel, "artifact differs between jobs = 1 and jobs = {nproc}");
}
