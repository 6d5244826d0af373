//! Queueing invariants of the fleet simulator, plus the degenerate-case
//! pin: a 1-chip/1-shard fleet is exactly the single-chip simulator, and
//! must agree with the committed `CONTRACT.json`.

use std::path::PathBuf;

use unizk_core::Plonky2Instance;
use unizk_fleet::{FleetConfig, FleetSim, ShardPlan, StreamSpec};
use unizk_testkit::json::{parse, Json};
use unizk_testkit::prop::prelude::*;

/// The per-proof workload every property case shards: small enough that a
/// case is milliseconds, big enough to shard four ways.
fn instance() -> Plonky2Instance {
    Plonky2Instance::new(1 << 10, 135)
}

prop! {
    #![cases(24)]
    fn queueing_invariants_hold(
        chips in 1usize..5,
        shards_log2 in 0u32..3,
        batch in 1usize..4,
        bursts in 1usize..4,
        interarrival in 0u64..2_000_000,
        seed in any::<u64>(),
    ) {
        let shards = 1usize << shards_log2;
        let plan = ShardPlan::new(instance(), shards).expect("plan");
        let config = FleetConfig::with_chips(chips);
        let queue_depth = config.queue_depth;
        let stream = StreamSpec {
            jobs: batch * bursts,
            batch,
            interarrival_cycles: interarrival,
            seed,
        };
        let report = FleetSim::new(config).run(&plan, &stream);

        // Job conservation: every job arrives, runs, and completes once.
        prop_assert_eq!(report.jobs, stream.jobs);
        prop_assert_eq!(report.job_arrival_cycles.len(), stream.jobs);
        prop_assert_eq!(report.job_sojourn_cycles.len(), stream.jobs);
        prop_assert_eq!(report.job_service_cycles.len(), stream.jobs);

        // Completion times: service never exceeds sojourn (a job cannot
        // start before it arrives), and the makespan is the last
        // completion (first arrival is pinned at cycle 0).
        let mut last_completion = 0u64;
        for i in 0..stream.jobs {
            let sojourn = report.job_sojourn_cycles[i];
            let service = report.job_service_cycles[i];
            prop_assert!(service <= sojourn, "job {} served before arrival", i);
            last_completion = last_completion.max(report.job_arrival_cycles[i] + sojourn);
        }
        prop_assert_eq!(report.makespan_cycles, last_completion);

        // Work conservation: chip busy-cycles account for exactly the
        // dispatched tasks (`shards` shard proofs per job, plus the
        // aggregation proof when sharded).
        let agg = if shards > 1 { report.agg_cycles } else { 0 };
        let per_job = shards as u64 * report.shard_cycles + agg;
        prop_assert_eq!(
            report.chip_busy_cycles.iter().sum::<u64>(),
            stream.jobs as u64 * per_job
        );

        // Utilization is a fraction of the makespan on every chip.
        prop_assert_eq!(report.chip_busy_cycles.len(), chips);
        for u in report.utilization() {
            prop_assert!((0.0..=1.0).contains(&u), "utilization {} out of range", u);
        }

        // The bounded queue is respected.
        prop_assert!(report.queue_peak <= queue_depth);
        prop_assert!(report.queue_mean >= 0.0);

        // Percentiles come from the shared estimator and are monotone.
        let sojourn = report.sojourn();
        let service = report.service();
        prop_assert!(sojourn.is_monotone());
        prop_assert!(service.is_monotone());
    }
}

prop! {
    #![cases(12)]
    fn reports_are_a_pure_function_of_their_inputs(
        chips in 1usize..4,
        batch in 1usize..3,
        seed in any::<u64>(),
    ) {
        let plan = ShardPlan::new(instance(), 2).expect("plan");
        let stream = StreamSpec { jobs: 2 * batch, batch, interarrival_cycles: 250_000, seed };
        let a = FleetSim::new(FleetConfig::with_chips(chips)).run(&plan, &stream);
        let b = FleetSim::new(FleetConfig::with_chips(chips)).run(&plan, &stream);
        prop_assert_eq!(a.makespan_cycles, b.makespan_cycles);
        prop_assert_eq!(a.chip_busy_cycles, b.chip_busy_cycles);
        prop_assert_eq!(a.job_sojourn_cycles, b.job_sojourn_cycles);
        prop_assert_eq!(a.queue_peak, b.queue_peak);
    }
}

/// The degenerate fleet reproduces the committed single-chip numbers:
/// one chip, one shard, one job on the `plonky2_4096x135` reference
/// workload must take exactly the cycles `CONTRACT.json` pins.
#[test]
fn one_chip_one_shard_matches_the_committed_baseline() {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../CONTRACT.json"),
    )
    .expect("CONTRACT.json at the repo root");
    let contract = parse(&text).expect("CONTRACT.json parses");
    let want = contract
        .get("sim")
        .and_then(|sim| sim.get("plonky2_4096x135"))
        .and_then(|reference| reference.get("total_cycles"))
        .and_then(Json::as_u64)
        .expect("sim.plonky2_4096x135.total_cycles");

    let plan = ShardPlan::new(Plonky2Instance::new(1 << 12, 135), 1).unwrap();
    let stream = StreamSpec { jobs: 1, batch: 1, interarrival_cycles: 0, seed: 0 };
    let report = FleetSim::new(FleetConfig::with_chips(1)).run(&plan, &stream);

    assert_eq!(report.shard_cycles, want, "shard proof is the whole proof");
    assert_eq!(report.makespan_cycles, want, "no queueing, no transfer, no aggregation");
    assert_eq!(report.agg_cycles, 0);
    assert_eq!(report.transfer_cycles, 0);
}
