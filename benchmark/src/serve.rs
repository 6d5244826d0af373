//! `serve_mix_gl`: many proofs at once. Closed loop: every batch of the
//! baseline job mix goes through `serve::Pipeline` with one worker per
//! core, and the next batch starts when the last proof of this one is out.
//!
//! The multiset of jobs in a batch is fixed (the mix weights times a
//! constant), so the work and the output are the same for every seed; the
//! seed shuffles the order in which the jobs are served.

use std::time::Duration;

use unizk_core::compiler::{compile_starky, StarkyInstance};
use unizk_core::{ChipConfig, Simulator};
use unizk_serve::{
    AppKind, Job, JobSpec, Pipeline, PipelineConfig, PipelineReport, PoolMode, TrafficSpec,
};
use unizk_stark::{CountdownAir, FibonacciAir, RangeAccumulatorAir, StarkProof};
use unizk_testkit::trace;
use unizk_testkit::TestRng;

use crate::chip::simulate_in_envelope;
use crate::clock::Clock;
use crate::ctx::{fatal, repeat_for, Ctx, Series};
use crate::stats::{median, peak_rss_mb, time_ns};
use crate::tracerows;

/// The job kinds of the mix, what each one's proof must be, and how many
/// of each a batch holds.
struct Mix {
    specs: Vec<JobSpec>,
    counts: Vec<usize>,
    /// `JobSpec::prove(None)` of each kind: the one-shot prover's bytes.
    references: Vec<Vec<u8>>,
}

impl Mix {
    fn batch_len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// One batch in seed-shuffled order: `(kind, job)` with ids `0..n`.
    fn batch(&self, ctx: &mut Ctx, rng: &mut TestRng) -> (Vec<usize>, Vec<Job>) {
        let mut kinds: Vec<usize> = self
            .counts
            .iter()
            .enumerate()
            .flat_map(|(kind, &n)| vec![kind; n])
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.gen_range(0..=i));
        }
        let jobs = kinds
            .iter()
            .enumerate()
            .map(|(id, &kind)| {
                ctx.inputs.bytes(self.specs[kind].key().as_bytes());
                Job {
                    id: id as u64,
                    spec: self.specs[kind].clone(),
                }
            })
            .collect();
        (kinds, jobs)
    }
}

/// `(width, transition constraints)` of a job's AIR, for its chip graph.
fn air_shape(spec: &JobSpec) -> (usize, usize) {
    match spec.app {
        AppKind::Fibonacci => {
            let air = FibonacciAir::new(spec.rows);
            (air.width(), air.num_transition_constraints())
        }
        AppKind::Countdown => {
            let air = CountdownAir::new(spec.rows);
            (air.width(), air.num_transition_constraints())
        }
        AppKind::RangeAccumulator => {
            let air = RangeAccumulatorAir::new(spec.rows);
            (air.width(), air.num_transition_constraints())
        }
    }
}

fn verify_job(spec: &JobSpec, proof: &StarkProof) -> Result<(), String> {
    match spec.app {
        AppKind::Fibonacci => {
            unizk_stark::verify(&FibonacciAir::new(spec.rows), proof, &spec.config)
        }
        AppKind::Countdown => {
            unizk_stark::verify(&CountdownAir::new(spec.rows), proof, &spec.config)
        }
        AppKind::RangeAccumulator => {
            unizk_stark::verify(&RangeAccumulatorAir::new(spec.rows), proof, &spec.config)
        }
    }
    .map_err(|e| e.to_string())
}

/// Checks every served proof against the one-shot prover's bytes and
/// returns the proofs that came out.
fn check_batch<'a>(
    ctx: &mut Ctx,
    mix: &Mix,
    kinds: &[usize],
    report: &'a PipelineReport,
) -> Vec<(usize, &'a StarkProof)> {
    ctx.out.check(report.results.len() == kinds.len(), || {
        format!(
            "{} jobs went in, {} results came out",
            kinds.len(),
            report.results.len()
        )
    });
    let mut proofs = Vec::new();
    for (result, &kind) in report.results.iter().zip(kinds) {
        match &result.outcome {
            Ok(proof) => {
                ctx.out.check(proof.to_bytes() == mix.references[kind], || {
                    format!(
                        "job {}: served proof differs from JobSpec::prove(None)",
                        result.id
                    )
                });
                proofs.push((kind, proof));
            }
            Err(e) => ctx
                .out
                .check(false, || format!("job {}: no proof: {e}", result.id)),
        }
    }
    proofs
}

pub fn run(ctx: &mut Ctx) {
    // One prover thread per proof; the parallelism is across jobs.
    unizk_field::set_parallelism(1);
    let traffic = if ctx.smoke {
        TrafficSpec::smoke(0)
    } else {
        TrafficSpec::baseline(0)
    };
    let config = PipelineConfig::with_workers(ctx.nproc);
    let mut rng = TestRng::seed_from_u64(ctx.seed);

    let (mix, sim_cycles) = ctx.scope("setup", |ctx| {
        let specs: Vec<JobSpec> = traffic
            .mix
            .iter()
            .map(|m| JobSpec {
                app: m.app,
                rows: m.rows,
                config: traffic.config.clone(),
            })
            .collect();
        let counts: Vec<usize> = traffic
            .mix
            .iter()
            .map(|m| usize::try_from(m.weight).expect("weight"))
            .collect();
        let sim = Simulator::new(ChipConfig::default_chip());
        let mut sim_cycles = 0;
        let mut references = Vec::new();
        for (spec, &count) in specs.iter().zip(&counts) {
            let proof = ctx
                .scope("reference.prove", |_| spec.prove(None))
                .unwrap_or_else(|e| fatal(&format!("{}: one-shot prove failed: {e}", spec.key())));
            let verified = ctx.scope("reference.verify", |_| verify_job(spec, &proof));
            ctx.out.check_ok("reference verify", verified);
            references.push(proof.to_bytes());
            let (width, constraints) = air_shape(spec);
            let graph = compile_starky(&StarkyInstance::new(spec.rows, width, constraints));
            sim_cycles += simulate_in_envelope(ctx, &sim, &graph) * count as u64;
        }
        let mix = Mix {
            specs,
            counts,
            references,
        };
        // Warm the pipeline path itself: threads, queue, pools.
        let (kinds, mut jobs) = mix.batch(ctx, &mut rng);
        jobs.truncate(4);
        let report = ctx.scope("warmup.pipeline_run", |_| Pipeline::run(jobs, &config));
        check_batch(
            ctx,
            &mix,
            &kinds[..report.results.len().min(kinds.len())],
            &report,
        );
        (mix, sim_cycles)
    });
    println!(
        "{:<20} {} jobs per batch, {} workers, pooled workspaces",
        ctx.workload,
        mix.batch_len(),
        config.workers
    );

    if ctx.trace {
        per_layer(ctx, &mix, &config, &mut rng);
        return;
    }

    ctx.end_setup();
    let (mut service_ms, mut verify_ms) = (Series::default(), Series::default());
    // Jobs served, and the wall time of serving them at the reference clock.
    let (mut served, mut serving_s) = (0, 0.0);
    let mut clock = Clock::start();
    repeat_for(ctx.seconds, 1, || {
        let (kinds, jobs) = mix.batch(ctx, &mut rng);
        let report = Pipeline::run(jobs, &config);
        // Latency samples come from the anchor kind only (the mix's first
        // entry, the job `stark_small_gl` proves alone): one population,
        // comparable with that workload's numbers.
        let anchor = |id: u64| kinds[id as usize] == 0;
        for result in report.results.iter().filter(|r| anchor(r.id)) {
            service_ms.push(result.service_ns as f64 / 1e6);
        }
        // A lap after each phase: every worker proves at once, then one
        // thread verifies.
        let serving = clock.lap();
        service_ms.settle(serving);
        served += report.results.len();
        serving_s += report.wall_ns as f64 / 1e9 * serving;
        for (kind, proof) in check_batch(ctx, &mix, &kinds, &report) {
            let (verified, t) = time_ns(|| verify_job(&mix.specs[kind], proof));
            if ctx.out.check_ok("verify", verified).is_some() && kind == 0 {
                verify_ms.push(t / 1e6);
            }
        }
        verify_ms.settle(clock.lap());
    });
    if verify_ms.at_reference.is_empty() {
        fatal("no served proof verified in the timed pass");
    }
    let output_bytes: usize = mix
        .references
        .iter()
        .zip(&mix.counts)
        .map(|(bytes, &n)| bytes.len() * n)
        .sum();
    ctx.timing("op_ms_p50", "ms", &service_ms);
    ctx.timing("verify_ms_p50", "ms", &verify_ms);
    // Over all batches of the pass, not a median of a handful of batch
    // rates: how long the queue takes to drain behind the last job depends
    // on the order, and summing evens that out.
    ctx.metric_n("ops_per_s", "1/s", served as f64 / serving_s, served);
    ctx.metric("output_bytes", "bytes", output_bytes as f64);
    ctx.metric(
        "peak_rss_mb",
        "MB",
        peak_rss_mb().unwrap_or_else(|| fatal("no VmHWM")),
    );
    ctx.metric("sim_cycles_total", "cycles", sim_cycles as f64);
}

fn per_layer(ctx: &mut Ctx, mix: &Mix, config: &PipelineConfig, rng: &mut TestRng) {
    let (kinds, jobs) = mix.batch(ctx, rng);
    let proofs_per_s =
        |report: &PipelineReport| report.results.len() as f64 / (report.wall_ns as f64 / 1e9);

    ctx.rec.set_enabled(false);
    let plain = Pipeline::run(jobs.clone(), config);
    check_batch(ctx, mix, &kinds, &plain);
    ctx.rec.set_enabled(true);

    ctx.rec.set_rep(1);
    trace::reset();
    let traced = ctx.scope("serve.pipeline_run", |_| {
        Pipeline::run(jobs.clone(), config)
    });
    // A worker's spans reach the shared store when its thread-local
    // collector is dropped, which can be just after `Pipeline::run` has
    // joined the thread.
    std::thread::sleep(Duration::from_millis(20));
    let report = trace::snapshot();
    ctx.rec.set_rep(0);
    check_batch(ctx, mix, &kinds, &traced);
    let service_ns: u64 = traced.results.iter().map(|r| r.service_ns).sum();
    tracerows::record(ctx, &report, service_ns as f64);

    let inline = ctx.scope("serve.pipeline_run.inline", |_| {
        Pipeline::run(
            jobs.clone(),
            &PipelineConfig {
                workers: 0,
                ..config.clone()
            },
        )
    });
    check_batch(ctx, mix, &kinds, &inline);
    let pool_off = ctx.scope("serve.pipeline_run.pool_off", |_| {
        Pipeline::run(
            jobs,
            &PipelineConfig {
                pool: PoolMode::Off,
                ..config.clone()
            },
        )
    });
    check_batch(ctx, mix, &kinds, &pool_off);

    ctx.metric("serve.inline_proofs_per_s", "1/s", proofs_per_s(&inline));
    ctx.metric(
        "serve.scaling_efficiency",
        "ratio",
        proofs_per_s(&plain) / (config.workers as f64 * proofs_per_s(&inline)),
    );
    ctx.metric(
        "serve.pool_off_proofs_per_s",
        "1/s",
        proofs_per_s(&pool_off),
    );
    let hit_rate = plain.pool_stats().and_then(|s| s.hit_rate()).unwrap_or(0.0);
    ctx.metric("serve.pool_hit_rate", "ratio", hit_rate);
    let utilization = plain
        .utilization()
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    ctx.metric("serve.worker_utilization_min", "ratio", utilization);
    let waits: Vec<f64> = plain
        .results
        .iter()
        .map(|r| (r.sojourn_ns - r.service_ns) as f64 / 1e6)
        .collect();
    ctx.metric_n("serve.queue_wait_ms_p50", "ms", median(&waits), waits.len());
    println!(
        "{:<20} untraced batch {:.3} proofs/s",
        ctx.workload,
        proofs_per_s(&plain)
    );
    ctx.metric(
        "bench.trace_overhead_pct",
        "%",
        (traced.wall_ns as f64 - plain.wall_ns as f64) / plain.wall_ns as f64 * 100.0,
    );
}
