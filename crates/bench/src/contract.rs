//! The determinism contract: every exact number this repository holds a
//! PR to, as one JSON value with no clock in it.
//!
//! [`contract`] is the only writer of the committed `CONTRACT.json`.
//! Regenerate with `contract > CONTRACT.json`, check with
//! `contract | diff - CONTRACT.json`; EXPERIMENTS.md "The contract" says
//! which question each field answers. Timing claims are made on
//! `benchmark/`, never here.

use unizk_core::analyze::{check, check_multi, error_count, render_all};
use unizk_core::compiler::{compile_plonky2, compile_starky, Plonky2Instance, StarkyInstance};
use unizk_core::{ChipConfig, Simulator};
use unizk_explore::hash::fnv1a64;
use unizk_explore::{run_sweep, SweepOptions, SweepSpec};
use unizk_field::ExtensionOf;
use unizk_fleet::{FleetConfig, FleetSim, ShardPlan, StreamSpec};
use unizk_hash::sponge::HashField;
use unizk_hash::{Digest, SpongeBackend};
use unizk_serve::{JobSpec, TrafficSpec};
use unizk_stark::{prove, verify, FibonacciAir, KbStarkConfig, StarkConfig, StarkProof};
use unizk_testkit::json::{Json, ToJson};
use unizk_testkit::trace;
use unizk_workloads::{App, Scale};

/// The prover and simulator reference size: 2^12 rows.
const LOG_ROWS: usize = 12;

/// Builds the contract. Call it at most once per process, before any other
/// simulation: the DRAM model publishes its `dram.*` counters only with
/// the process's first simulation on an HBM configuration.
pub fn contract() -> Json {
    let sim = sim();
    // One thread, as in the paper's Table 1 methodology; the proofs and
    // counters do not depend on it (tests/thread_invariance.rs).
    unizk_field::set_parallelism(1);
    let prover = Json::obj([
        ("goldilocks", prover(&StarkConfig::standard())),
        ("koalabear", prover(&KbStarkConfig::standard_over())),
    ]);
    let serve = serve();
    unizk_field::set_parallelism(0);
    Json::obj([
        ("prover", prover),
        ("serve", serve),
        ("sim", sim),
        ("fleet", fleet()),
    ])
}

fn counters(counters: Vec<(String, u64)>) -> Json {
    Json::obj(counters.into_iter().map(|(k, v)| (k, Json::from(v))))
}

/// Fibonacci Starky at 2^12 rows × 2 columns over one `(field, hasher)`
/// stack: the work counters of one prove, the size of its proof and where
/// those bytes sit, and the verifier's side of the same proof.
fn prover<F: HashField, H: SpongeBackend<F = F>>(config: &StarkConfig<F, H>) -> Json {
    let air = FibonacciAir::new(1 << LOG_ROWS);
    trace::reset();
    let proof = prove(&air, config).expect("the Fibonacci trace satisfies its AIR");
    let work = trace::snapshot().counters;
    trace::reset();
    verify(&air, &proof, config).expect("the proof verifies");
    let checked = trace::snapshot();
    Json::obj([
        ("proof_bytes", Json::from(proof.size_bytes())),
        ("proof_bytes_by_part", proof_bytes_by_part(&proof)),
        (
            "verify",
            Json::obj([
                ("permutations", Json::from(checked.counter(H::COUNTER))),
                ("openings", Json::from(checked.counter("merkle.verify.openings"))),
                ("distinct_nodes", Json::from(checked.counter("merkle.verify.nodes"))),
            ]),
        ),
        ("counters", counters(work)),
    ])
}

/// `StarkProof::size_bytes` term by term. `paths` is what a format that
/// sends no node twice would shrink, to at most `verify.distinct_nodes`
/// digests (one sibling per hashed interior node).
fn proof_bytes_by_part<F: HashField>(proof: &StarkProof<F>) -> Json {
    let ext = <F::Ext as ExtensionOf<F>>::DEGREE * F::BYTES;
    let fri = &proof.fri;
    let paths: usize = fri
        .queries
        .iter()
        .flat_map(|q| {
            let initial = q.initial.iter().map(|o| o.proof.size_bytes());
            initial.chain(q.folds.iter().map(|f| f.proof.size_bytes()))
        })
        .sum();
    let leaf_values: usize = fri
        .queries
        .iter()
        .map(|q| {
            let initial: usize = q.initial.iter().map(|o| o.leaf.len() * F::BYTES).sum();
            initial + q.folds.len() * 2 * ext
        })
        .sum();
    let openings = fri.openings.iter().flatten().flatten().count() * ext;
    let final_poly = fri.final_poly.len() * ext;
    // Trace and quotient roots, the row count, the fold roots, the nonce.
    let roots_and_witness = (2 + fri.commit_roots.len()) * Digest::<F>::BYTES + 8 + F::BYTES;
    assert_eq!(
        paths + leaf_values + openings + final_poly + roots_and_witness,
        proof.size_bytes(),
        "the parts are the whole proof"
    );
    Json::obj([
        ("paths", Json::from(paths)),
        ("leaf_values", Json::from(leaf_values)),
        ("openings", Json::from(openings)),
        ("final_poly", Json::from(final_poly)),
        ("roots_and_witness", Json::from(roots_and_witness)),
    ])
}

/// The one-shot proof of each entry of the serving baseline mix. The
/// pipeline must reproduce these bytes under every worker count and pool
/// mode (`serve/tests/differential.rs`).
fn serve() -> Json {
    let traffic = TrafficSpec::baseline(0);
    Json::obj(traffic.mix.iter().map(|entry| {
        let spec = JobSpec {
            app: entry.app,
            rows: entry.rows,
            config: traffic.config.clone(),
        };
        let bytes = spec.prove(None).expect("one-shot proves").to_bytes();
        let digest = Json::obj([
            ("bytes", Json::from(bytes.len())),
            ("fnv1a64", Json::str(format!("{:#018x}", fnv1a64(&bytes)))),
        ]);
        (spec.key(), digest)
    }))
}

/// The default chip on the two reference graphs, and the `dram.*` / `sim.*`
/// counters of exactly those two runs.
fn sim() -> Json {
    let starky = compile_starky(&StarkyInstance::new(1 << LOG_ROWS, 2, 2));
    let plonky2 = compile_plonky2(&Plonky2Instance::new(1 << LOG_ROWS, 135));
    trace::reset();
    let sim = Simulator::new(ChipConfig::default_chip());
    let starky = sim.run(&starky).to_json();
    let plonky2 = sim.run(&plonky2).to_json();
    Json::obj([
        ("starky_fib_4096", starky),
        ("plonky2_4096x135", plonky2),
        ("counters", counters(trace::snapshot().counters)),
    ])
}

/// The fleet surface: {1,2,4,8} chips × two HBM bandwidths × two batch
/// sizes × two shard counts over Fibonacci at 2^12 rows, each point's
/// makespan under its sweep key, after the static verifier has passed every
/// schedule of the grid. The anchor is the 1-chip/1-shard/1-job fleet on
/// `sim.plonky2_4096x135`, which must take exactly that run's cycles.
fn fleet() -> Json {
    let spec = SweepSpec::new("contract-fleet")
        .bandwidth_scales([(1, 2), (1, 1)])
        .fleet_axes([1, 2, 4, 8], [1, 4], [1, 4])
        .workload(App::Fibonacci, Scale::Shrunk(4));

    let mut verified = 0usize;
    for point in spec.enumerate().expect("the grid enumerates") {
        let f = point.fleet.as_ref().expect("fleet axes are set");
        let plan = ShardPlan::new(point.instance(), f.shards).expect("shard plan");
        let mut diags = check(plan.shard_graph(), &point.chip);
        verified += 1;
        if let Some(agg) = plan.aggregation_graph() {
            diags.extend(check(agg, &point.chip));
            verified += 1;
        }
        diags.extend(check_multi(&plan.multi_schedule(), &point.chip));
        assert_eq!(
            error_count(&diags),
            0,
            "schedule errors at {} chips x {} shards:\n{}",
            f.chips,
            f.shards,
            render_all(&diags)
        );
    }

    let plan = ShardPlan::new(Plonky2Instance::new(1 << LOG_ROWS, 135), 1).expect("anchor plan");
    let one_job = StreamSpec {
        jobs: 1,
        batch: 1,
        interarrival_cycles: 0,
        seed: 0,
    };
    let anchor = FleetSim::new(FleetConfig::with_chips(1)).run(&plan, &one_job);

    let surface = run_sweep(&spec, &SweepOptions::default()).expect("the fleet sweep runs");
    Json::obj([
        ("anchor_makespan_cycles", Json::from(anchor.makespan_cycles)),
        ("verified_schedules", Json::from(verified)),
        (
            "makespan_cycles",
            Json::obj(
                surface
                    .points
                    .into_iter()
                    .map(|p| (p.key, Json::from(p.total_cycles))),
            ),
        ),
    ])
}
