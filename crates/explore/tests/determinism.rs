//! The engine's central guarantee: the artifact depends only on the spec.
//!
//! Worker count and scheduling order must never change a byte of the
//! output, and the engine's default-chip numbers must agree
//! exactly with the committed simulator contract (`CONTRACT.json`).

use std::path::PathBuf;

use unizk_explore::{run_sweep, SweepOptions, SweepSpec};
use unizk_testkit::json::{parse, Json};
use unizk_workloads::{App, Scale};

fn grid_spec() -> SweepSpec {
    SweepSpec::new("determinism")
        .num_vsas([8, 16, 32])
        .scratchpad_mb([4, 8])
        .bandwidth_scales([(1, 2), (1, 1)])
        .workload(App::Fibonacci, Scale::Shrunk(6))
        .workload_with_chunk(App::Fibonacci, Scale::Shrunk(6), 3)
}

fn fleet_spec() -> SweepSpec {
    SweepSpec::new("fleet-determinism")
        .bandwidth_scales([(1, 2), (1, 1)])
        .fleet_axes([1, 2], [1, 2], [1, 2])
        .workload(App::Fibonacci, Scale::Shrunk(6))
}

#[test]
fn artifact_is_independent_of_worker_count() {
    let spec = grid_spec();
    let serial = run_sweep(&spec, &SweepOptions { jobs: 1, ..Default::default() }).unwrap();
    let parallel = run_sweep(&spec, &SweepOptions { jobs: 8, ..Default::default() }).unwrap();
    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty(),
        "1-thread and 8-thread sweeps must emit byte-identical artifacts"
    );
}

/// Fleet points inherit the same contract: the queueing simulation is a
/// pure function of the spec, so worker count must not change a byte of a
/// fleet sweep's artifact either.
#[test]
fn fleet_artifact_is_independent_of_worker_count() {
    let spec = fleet_spec();
    let serial = run_sweep(&spec, &SweepOptions { jobs: 1, ..Default::default() }).unwrap();
    let parallel = run_sweep(&spec, &SweepOptions { jobs: 8, ..Default::default() }).unwrap();
    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty(),
        "1-thread and 8-thread fleet sweeps must emit byte-identical artifacts"
    );
}

/// The sweep engine is only trustworthy if its per-point numbers are the
/// simulator's numbers. Sweep the default chip on the contract's
/// `plonky2_4096x135` workload (Fibonacci shrunk to 2^12 rows × 135
/// wires) and require exact equality with the committed `CONTRACT.json`.
#[test]
fn default_chip_point_matches_the_committed_baseline() {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../CONTRACT.json"),
    )
    .expect("CONTRACT.json at the repo root");
    let contract = parse(&text).expect("CONTRACT.json parses");
    let reference = contract
        .get("sim")
        .and_then(|sim| sim.get("plonky2_4096x135"))
        .expect("sim.plonky2_4096x135 entry");

    let spec = SweepSpec::new("baseline-check").workload(App::Fibonacci, Scale::Shrunk(4));
    let result = run_sweep(&spec, &SweepOptions::default()).unwrap();
    assert_eq!(result.points.len(), 1, "default axes give a single point");
    let point = &result.points[0];
    assert_eq!(point.workload.log_rows, 12);
    assert_eq!(point.workload.width, 135);

    let want = |key: &str| reference.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(point.total_cycles, want("total_cycles"));
    assert_eq!(point.read_requests, want("read_requests"));
    assert_eq!(point.write_requests, want("write_requests"));

    let classes = reference.get("classes").expect("baseline classes");
    for row in &point.classes {
        let cycles = classes
            .get(&row.name)
            .and_then(|c| c.get("cycles"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(row.cycles, cycles, "class {} cycles", row.name);
    }

    // And the single point trivially forms the frontier.
    assert_eq!(result.pareto, vec![0]);
}
