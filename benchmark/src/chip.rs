//! `chip_sweep`: the paper's primary artifact. The six evaluation apps at
//! full scale on the default chip (simulated cycles, which repeat
//! exactly), then a design-space sweep without disk cache (host points per
//! second). No prover code runs here.

use std::time::Instant;

use unizk_core::compiler::{compile_plonky2, compile_starky, Plonky2Instance, StarkyInstance};
use unizk_core::{ChipConfig, Graph, KernelClassTag, Simulator};
use unizk_dram::{AccessPattern, MemoryModel};
use unizk_explore::{run_sweep, SweepOptions, SweepSpec};
use unizk_fleet::{FleetConfig, FleetSim, ShardPlan, StreamSpec};
use unizk_testkit::trace;
use unizk_workloads::{App, Scale};

use crate::clock::Clock;
use crate::ctx::{fatal, repeat_for, Ctx, Series};
use crate::stats::{median, peak_rss_mb, time_ns};

/// Simulates `graph` and checks that the run lies inside the static
/// envelope `analyze::cost_envelope` derives for it. Returns the cycles.
pub fn simulate_in_envelope(ctx: &mut Ctx, sim: &Simulator, graph: &Graph) -> u64 {
    let cycles = sim.run(graph).total_cycles;
    let envelope = unizk_analyze::cost_envelope(graph, sim.chip());
    let (lower, upper) = (envelope.total_lower(), envelope.total_upper());
    ctx.out.check((lower..=upper).contains(&cycles), || {
        format!("simulated {cycles} cycles outside the static envelope [{lower}, {upper}]")
    });
    cycles
}

/// The apps simulated at full scale (two of them, shrunk, under `--smoke`).
fn apps(ctx: &Ctx) -> Vec<(App, Scale)> {
    if ctx.smoke {
        vec![
            (App::Fibonacci, Scale::Shrunk(6)),
            (App::Mvm, Scale::Shrunk(8)),
        ]
    } else {
        App::ALL.iter().map(|&app| (app, Scale::Full)).collect()
    }
}

/// The fixed design grid: 60 chip points for each of the six apps.
fn sweep_spec(ctx: &Ctx) -> SweepSpec {
    let mut spec = SweepSpec::new("benchmark");
    if ctx.smoke {
        return spec
            .num_vsas([16, 32])
            .workload(App::Fibonacci, Scale::Shrunk(8));
    }
    spec = spec
        .num_vsas([4, 8, 16, 32, 64])
        .scratchpad_mb([4, 8, 16])
        .ntt_pipeline_log2([5, 6])
        .bandwidth_scales([(1, 2), (1, 1)]);
    for app in App::ALL {
        spec = spec.workload(app, Scale::Shrunk(4));
    }
    spec
}

/// The per-layer row holding `app`'s simulated cycles.
fn sim_cycles_row(app: App) -> &'static str {
    match app {
        App::Factorial => "core.sim_cycles.factorial",
        App::Fibonacci => "core.sim_cycles.fibonacci",
        App::Ecdsa => "core.sim_cycles.ecdsa",
        App::Sha256 => "core.sim_cycles.sha256",
        App::ImageCrop => "core.sim_cycles.image_crop",
        App::Mvm => "core.sim_cycles.mvm",
    }
}

/// One sweep over `spec` on all cores; returns points per second of host
/// time and the artifact text.
fn sweep(spec: &SweepSpec, options: &SweepOptions) -> (f64, String) {
    let start = Instant::now();
    let result = run_sweep(spec, options).unwrap_or_else(|e| fatal(&format!("sweep failed: {e}")));
    let seconds = start.elapsed().as_secs_f64();
    (
        result.points.len() as f64 / seconds,
        result.to_json().to_string(),
    )
}

/// Compiles and simulates every app on a fresh default chip; returns the
/// cycles per app and the host time split (compile ns per graph, simulate
/// ns, nodes).
fn simulate_apps(ctx: &mut Ctx, apps: &[(App, Scale)]) -> (Vec<u64>, Vec<f64>, f64, usize) {
    let chip = ChipConfig::default_chip();
    let (mut cycles, mut compile_ns, mut sim_ns, mut nodes) = (Vec::new(), Vec::new(), 0.0, 0);
    for &(app, scale) in apps {
        let (graph, t) = ctx.scope("core.compile", |_| {
            time_ns(|| compile_plonky2(&app.plonky2_instance(scale)))
        });
        compile_ns.push(t);
        let (report, t) = ctx.scope("core.simulate", |_| {
            time_ns(|| Simulator::new(chip.clone()).run(&graph))
        });
        sim_ns += t;
        nodes += graph.len();
        cycles.push(report.total_cycles);
    }
    (cycles, compile_ns, sim_ns, nodes)
}

pub fn run(ctx: &mut Ctx) {
    let apps = apps(ctx);
    let spec = sweep_spec(ctx);
    let options = SweepOptions {
        jobs: ctx.nproc,
        ..SweepOptions::default()
    };
    let chip = ChipConfig::default_chip();

    // Set-up: the legacy anchors, one simulation of every app, one sweep.
    let (graphs, reference_cycles, reference_artifact) = ctx.scope("setup", |ctx| {
        let sim = Simulator::new(chip.clone());
        if !ctx.smoke {
            // BENCH_SIM.json's two rows must still come out of the simulator.
            let starky = compile_starky(&StarkyInstance::new(1 << 12, 2, 2));
            let plonky2 = compile_plonky2(&Plonky2Instance::new(1 << 12, 135));
            for (name, graph, expected) in [
                ("starky_fib_4096", &starky, 62304),
                ("plonky2_4096x135", &plonky2, 1_165_910),
            ] {
                let cycles = simulate_in_envelope(ctx, &sim, graph);
                ctx.out.check(cycles == expected, || {
                    format!("{name}: {cycles} cycles, BENCH_SIM.json has {expected}")
                });
            }
        }
        let graphs: Vec<Graph> = apps
            .iter()
            .map(|&(app, scale)| compile_plonky2(&app.plonky2_instance(scale)))
            .collect();
        let cycles: Vec<u64> = graphs
            .iter()
            .map(|graph| simulate_in_envelope(ctx, &sim, graph))
            .collect();
        let (_, artifact) = ctx.scope("explore.run_sweep", |_| sweep(&spec, &options));
        (graphs, cycles, artifact)
    });
    println!(
        "{:<20} {} apps, {} sweep points, {} workers",
        ctx.workload,
        apps.len(),
        spec.num_points(),
        ctx.nproc
    );

    if ctx.trace {
        per_layer(
            ctx,
            &apps,
            &graphs,
            &reference_cycles,
            &spec,
            &options,
            &reference_artifact,
        );
        return;
    }

    ctx.end_setup();
    let (mut apps_ms, mut check_ms, mut points_per_s) =
        (Series::default(), Series::default(), Series::default());
    let mut clock = Clock::start();
    repeat_for(ctx.seconds, 3, || {
        let ((cycles, ..), t) = time_ns(|| simulate_apps(ctx, &apps));
        apps_ms.push(t / 1e6);
        ctx.out.check(cycles == reference_cycles, || {
            format!("simulated cycles changed between passes: {cycles:?}")
        });
        // The static verifier over each schedule: rule pass plus envelope.
        for (graph, &cycles) in graphs.iter().zip(&reference_cycles) {
            let (ok, t) = time_ns(|| {
                let diagnostics = unizk_analyze::check(graph, &chip);
                let envelope = unizk_analyze::cost_envelope(graph, &chip);
                unizk_analyze::error_count(&diagnostics) == 0
                    && (envelope.total_lower()..=envelope.total_upper()).contains(&cycles)
            });
            check_ms.push(t / 1e6);
            ctx.out
                .check(ok, || "schedule fails the static verifier".to_string());
        }
        // A lap after each phase: one thread simulates and verifies, then
        // the sweep runs on all cores.
        let factor = clock.lap();
        apps_ms.settle(factor);
        check_ms.settle(factor);
        let (rate, artifact) = sweep(&spec, &options);
        points_per_s.push(rate);
        ctx.out.check(artifact == reference_artifact, || {
            "sweep artifact differs from the first pass's".to_string()
        });
        points_per_s.settle_rate(clock.lap());
    });
    ctx.timing("op_ms_p50", "ms", &apps_ms);
    ctx.timing("verify_ms_p50", "ms", &check_ms);
    ctx.timing("ops_per_s", "1/s", &points_per_s);
    ctx.metric("output_bytes", "bytes", reference_artifact.len() as f64);
    ctx.metric(
        "peak_rss_mb",
        "MB",
        peak_rss_mb().unwrap_or_else(|| fatal("no VmHWM")),
    );
    ctx.metric(
        "sim_cycles_total",
        "cycles",
        reference_cycles.iter().sum::<u64>() as f64,
    );
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    ctx: &mut Ctx,
    apps: &[(App, Scale)],
    graphs: &[Graph],
    reference_cycles: &[u64],
    spec: &SweepSpec,
    options: &SweepOptions,
    reference_artifact: &str,
) {
    let chip = ChipConfig::default_chip();
    let share = ctx.seconds / 4.0;

    ctx.rec.set_enabled(false);
    let mut plain_ms = Vec::new();
    repeat_for(share, 2, || {
        plain_ms.push(time_ns(|| simulate_apps(ctx, apps)).1 / 1e6)
    });
    ctx.rec.set_enabled(true);

    let (mut traced_ms, mut compile_us, mut sim_us_per_node) = (Vec::new(), Vec::new(), Vec::new());
    let mut rep = 0;
    repeat_for(share, 2, || {
        rep += 1;
        ctx.rec.set_rep(rep);
        ctx.scope("repetition", |ctx| {
            let start = Instant::now();
            trace::reset();
            let (cycles, compile_ns, sim_ns, nodes) = simulate_apps(ctx, apps);
            let report = trace::snapshot();
            traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
            compile_us.extend(compile_ns.iter().map(|ns| ns / 1e3));
            sim_us_per_node.push(sim_ns / 1e3 / nodes as f64);
            ctx.out.check(cycles == reference_cycles, || {
                format!("simulated cycles changed in the traced pass: {cycles:?}")
            });
            // The simulator's own counter must agree with its reports.
            ctx.out.check(
                report.counter("sim.cycles") == cycles.iter().sum::<u64>(),
                || "the sim.cycles counter disagrees with the reports".to_string(),
            );
        });
    });
    ctx.rec.set_rep(0);

    for (&(app, _), &cycles) in apps.iter().zip(reference_cycles) {
        let name = sim_cycles_row(app);
        ctx.metric(name, "cycles", cycles as f64);
    }
    // Chip-side kernel shares of the shape `plonk_fib_gl` proves on the CPU.
    let plonky2 =
        Simulator::new(chip.clone()).run(&compile_plonky2(&Plonky2Instance::new(1 << 12, 135)));
    ctx.metric(
        "core.hash_cycle_share",
        "ratio",
        plonky2.cycle_fraction(KernelClassTag::Hash),
    );
    ctx.metric(
        "core.ntt_cycle_share",
        "ratio",
        plonky2.cycle_fraction(KernelClassTag::Ntt),
    );
    ctx.metric(
        "core.poly_cycle_share",
        "ratio",
        plonky2.cycle_fraction(KernelClassTag::Poly),
    );
    ctx.metric_n(
        "core.compile_us_per_graph",
        "us",
        median(&compile_us),
        compile_us.len(),
    );
    ctx.metric_n(
        "core.sim_us_per_node",
        "us",
        median(&sim_us_per_node),
        sim_us_per_node.len(),
    );

    let probe_us: Vec<f64> = (0..5)
        .map(|_| {
            ctx.scope("dram.probe", |_| {
                time_ns(|| MemoryModel::new(chip.hbm.clone()).efficiency(AccessPattern::Sequential))
            })
            .1 / 1e3
        })
        .collect();
    ctx.metric_n("dram.probe_us", "us", median(&probe_us), probe_us.len());

    let mut envelope_us = Vec::new();
    let mut lower_total = 0;
    for graph in graphs {
        let (envelope, t) = ctx.scope("analyze.cost_envelope", |_| {
            time_ns(|| unizk_analyze::cost_envelope(graph, &chip))
        });
        envelope_us.push(t / 1e3);
        lower_total += envelope.total_lower();
    }
    ctx.metric_n(
        "analyze.envelope_us_per_graph",
        "us",
        median(&envelope_us),
        envelope_us.len(),
    );
    ctx.metric(
        "analyze.envelope_slack",
        "ratio",
        reference_cycles.iter().sum::<u64>() as f64 / lower_total as f64,
    );

    let cold: Vec<f64> = (0..3)
        .map(|_| ctx.scope("explore.run_sweep", |_| sweep(spec, options)).0)
        .collect();
    ctx.metric_n(
        "explore.points_per_s_cold",
        "1/s",
        median(&cold),
        cold.len(),
    );
    let cache_dir = ctx
        .out_dir
        .join(format!("sweep-cache-{}", std::process::id()));
    let cached_options = SweepOptions {
        cache_dir: Some(cache_dir.clone()),
        ..options.clone()
    };
    sweep(spec, &cached_options); // fills the cache
    let (cached_rate, cached_artifact) =
        ctx.scope("explore.run_sweep.cached", |_| sweep(spec, &cached_options));
    // Scratch only; a leftover directory is harmless and is ignored by git.
    let _ = std::fs::remove_dir_all(&cache_dir);
    ctx.metric("explore.points_per_s_cached", "1/s", cached_rate);
    ctx.out.check(cached_artifact == reference_artifact, || {
        "cached sweep artifact differs from the cold one".to_string()
    });

    fleet_rows(ctx, &chip);

    let (plain, traced) = (median(&plain_ms), median(&traced_ms));
    println!(
        "{:<20} untraced six-app pass p50 {plain:.3} ms (n={})",
        ctx.workload,
        plain_ms.len()
    );
    ctx.metric(
        "bench.trace_overhead_pct",
        "%",
        (traced - plain) / plain * 100.0,
    );
}

/// A burst stream of sharded Fibonacci proofs over four chips.
fn fleet_rows(ctx: &mut Ctx, chip: &ChipConfig) {
    let jobs = ctx.size(16, 4);
    let instance = App::Fibonacci.plonky2_instance(Scale::Shrunk(4));
    let plan = ShardPlan::new(instance, 2).unwrap_or_else(|e| fatal(&format!("shard plan: {e}")));
    let per_job = 2 * Simulator::new(chip.clone())
        .run(plan.shard_graph())
        .total_cycles;
    let stream = StreamSpec {
        jobs,
        batch: 4,
        interarrival_cycles: per_job,
        seed: ctx.seed,
    };
    ctx.inputs.word(ctx.seed);
    let mut config = FleetConfig::with_chips(4);
    config.chip = chip.clone();
    let sim = FleetSim::new(config);
    let mut makespan = 0;
    let us: Vec<f64> = (0..5)
        .map(|_| {
            let (report, t) = ctx.scope("fleet.run", |_| time_ns(|| sim.run(&plan, &stream)));
            makespan = report.makespan_cycles;
            t / 1e3 / jobs as f64
        })
        .collect();
    ctx.metric_n("fleet.sim_us_per_job", "us", median(&us), us.len());
    ctx.metric("fleet.makespan_cycles", "cycles", makespan as f64);
}
