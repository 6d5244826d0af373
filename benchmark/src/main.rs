//! The repository benchmark. See `benchmark/README.md`.
//!
//! `--workload NAME` runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. `--workload all`
//! runs each workload in a process of its own, both ways, and writes the
//! set to `--out`. `--compare A B` applies the bounds to two sets.

// Counts and nanoseconds are reported as f64; none is near 2^53.
#![allow(clippy::cast_precision_loss)]

mod catalog;
mod chip;
mod clock;
mod compare;
mod ctx;
mod layers;
mod outcome;
mod prover;
mod serve;
mod spans;
mod stats;
mod tracerows;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use unizk_testkit::json::{parse, Json};

use crate::clock::Clock;
use crate::ctx::{Ctx, Series};
use crate::outcome::Outcome;
use crate::prover::{Params, PlonkCase};
use crate::spans::Recorder;
use crate::stats::Fnv1a64;

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out FILE]
       run.sh --compare A.json B.json
       run.sh --print-manifest";

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    setup_only: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        setup_only: false,
        out: None,
        // Set by run.sh to the `out` directory beside it.
        out_dir: std::env::var_os("UNIZK_BENCH_OUT_DIR")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value().clone(),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes a whole number"));
            }
            "--seconds" => {
                let seconds: f64 = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seconds takes a number"));
                if !(seconds.is_finite() && seconds > 0.0) {
                    usage_error("--seconds must be positive");
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                });
            }
            "--smoke" => args.smoke = true,
            // Internal: a fresh process that sets the workload up and stops.
            "--setup-only" => args.setup_only = true,
            "--out" => args.out = Some(PathBuf::from(value())),
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    args
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Commit, compiler, cores and seed: the header of every output.
fn header(args: &Args, seconds: f64) -> Json {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        ("commit", Json::str(env("UNIZK_BENCH_COMMIT"))),
        ("rustc", Json::str(env("UNIZK_BENCH_RUSTC"))),
        ("nproc", Json::from(nproc())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(seconds)),
        ("smoke", Json::from(args.smoke)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--print-manifest") => {
            println!("{}", catalog::manifest().to_string_pretty());
            ExitCode::SUCCESS
        }
        Some("--compare") => {
            let [_, old, new] = argv.as_slice() else {
                usage_error("--compare takes two set files")
            };
            let load = |path: &String| {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
                parse(&text).unwrap_or_else(|e| usage_error(&format!("{path}: {e}")))
            };
            ExitCode::from(u8::from(compare::report(&load(old), &load(new)) > 0))
        }
        _ => {
            let args = parse_args(&argv);
            let seconds = args.seconds.unwrap_or(if args.smoke {
                0.3
            } else {
                catalog::RUN_SECONDS as f64
            });
            if args.workload == "all" {
                run_all(&args, seconds)
            } else {
                run_one(&args, seconds)
            }
        }
    }
}

/// Fresh processes that only set the workload up; each reports how long
/// that took.
const SETUP_ONLY_RUNS: usize = 2;

/// Set-up time of a fresh process, as measured and at the reference clock.
fn setup_only_run(args: &Args) -> (f64, f64) {
    let exe = std::env::current_exe().unwrap_or_else(|e| ctx::fatal(&format!("current_exe: {e}")));
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
        "--setup-only",
    ]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| ctx::fatal(&format!("spawn: {e}")));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(|line| {
        let mut fields = line.strip_prefix("setup_s ")?.split(' ').map(str::parse);
        Some((fields.next()?.ok()?, fields.next()?.ok()?))
    });
    parsed
        .filter(|_| output.status.success())
        .unwrap_or_else(|| ctx::fatal(&format!("set-up-only run failed: {}", output.status)))
}

/// Runs one workload in this process.
fn run_one(args: &Args, seconds: f64) -> ExitCode {
    let Some(workload) = catalog::workload(&args.workload) else {
        usage_error(&format!("unknown workload {}", args.workload));
    };
    let trace = args.trace.unwrap_or(false);
    let mut setup_samples = Series::default();
    if !trace && !args.setup_only {
        for _ in 0..SETUP_ONLY_RUNS {
            let (wall, at_reference) = setup_only_run(args);
            setup_samples.wall.push(wall);
            setup_samples.at_reference.push(at_reference);
        }
    }
    // Set-up starts here: everything above is the benchmark's own.
    let clock = Clock::start();
    let started = Instant::now();
    let mut ctx = Ctx {
        workload: workload.name,
        seed: args.seed,
        seconds,
        trace,
        smoke: args.smoke,
        nproc: nproc(),
        started,
        clock,
        setup_only: args.setup_only,
        setup_samples,
        out_dir: args.out_dir.clone(),
        rec: Recorder::new(trace),
        out: Outcome::default(),
        inputs: Fnv1a64::default(),
    };
    if !ctx.setup_only {
        println!(
            "# {} trace={} {}",
            workload.name,
            u8::from(trace),
            header(args, seconds)
        );
    }

    if trace {
        layers::twiddle_cold(&mut ctx);
    }
    let nproc = ctx.nproc;
    let single = |verifies_per_proof| Params {
        threads: 1,
        verifies_per_proof,
        expect_size_bytes: None,
    };
    match workload.name {
        "stark_small_gl" => {
            // `proof_bytes` of BENCH_PROVER.json.
            let expect_size_bytes = (!ctx.smoke).then_some(290_928);
            let log_rows = ctx.size(12, 8);
            prover::stark_gl(
                &mut ctx,
                log_rows,
                &Params {
                    expect_size_bytes,
                    ..single(1)
                },
            );
        }
        "stark_narrow_gl" => {
            let log_rows = ctx.size(15, 9);
            prover::stark_gl(&mut ctx, log_rows, &single(2));
        }
        "stark_narrow_gl_mt" => {
            let log_rows = ctx.size(15, 9);
            prover::stark_gl(
                &mut ctx,
                log_rows,
                &Params {
                    threads: nproc,
                    ..single(2)
                },
            );
        }
        "plonk_fib_gl" => {
            // 2^16 rows in the paper; 2^10 here, the smallest `App` builds.
            prover::run(&mut ctx, &single(2), |ctx| PlonkCase::build(ctx, 6));
        }
        "stark_narrow_kb" => {
            let log_rows = ctx.size(13, 8);
            prover::stark_kb(&mut ctx, log_rows, &single(2));
        }
        "serve_mix_gl" => serve::run(&mut ctx),
        "chip_sweep" => chip::run(&mut ctx),
        other => unreachable!("workload {other} is in the catalog but has no runner"),
    }
    if trace {
        layers::run(&mut ctx);
        write_trace_file(&ctx, args, seconds);
    }
    println!(
        "{:<20} {:<34} {:016x}",
        ctx.workload,
        "inputs_fnv1a64",
        ctx.inputs.finish()
    );
    println!("{}", ctx.out.result(trace));
    ExitCode::from(u8::from(ctx.out.failed() > 0))
}

/// Writes the benchmark's spans to `<out-dir>/trace-<workload>.json`.
fn write_trace_file(ctx: &Ctx, args: &Args, seconds: f64) {
    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
    let json = ctx.rec.to_json(vec![
        ("workload".to_string(), Json::str(ctx.workload)),
        ("header".to_string(), header(args, seconds)),
    ]);
    let written = std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::write(&path, json.to_string_pretty() + "\n"));
    match written {
        Ok(()) => println!(
            "{:<20} {} spans written to {}",
            ctx.workload,
            ctx.rec.spans().len(),
            path.display()
        ),
        Err(e) => ctx::fatal(&format!("cannot write {}: {e}", path.display())),
    }
}

/// Runs the chosen passes of every workload, each in its own process (so
/// that `set_parallelism` and peak RSS are per workload), and collects the
/// result lines into one set.
fn run_all(args: &Args, seconds: f64) -> ExitCode {
    let exe = std::env::current_exe().unwrap_or_else(|e| ctx::fatal(&format!("current_exe: {e}")));
    let passes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut failed_runs = 0;
    let mut workloads = Vec::new();
    for w in &catalog::WORKLOADS {
        let mut results = Vec::new();
        for &trace in &passes {
            let mut command = Command::new(&exe);
            command
                .args([
                    "--workload",
                    w.name,
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stdout(Stdio::piped());
            if args.smoke {
                command.arg("--smoke");
            }
            let output = command
                .output()
                .unwrap_or_else(|e| ctx::fatal(&format!("spawn: {e}")));
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (body, last) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{body}");
            // A run that failed a check still printed its result: keep it,
            // so that the set shows what went wrong.
            let result = parse(last);
            if !(output.status.success() && result.is_ok()) {
                failed_runs += 1;
                eprintln!(
                    "RUN FAILED: {} --trace {}: {}",
                    w.name,
                    u8::from(trace),
                    output.status
                );
            }
            if let Ok(result) = result {
                results.push((if trace { "per_layer" } else { "end_to_end" }, result));
            }
        }
        workloads.push((w.name, Json::obj(results)));
    }
    let set = Json::obj([
        ("schema", Json::str("unizk-benchmark-set/1")),
        ("header", header(args, seconds)),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, set.to_string_pretty() + "\n") {
            ctx::fatal(&format!("cannot write {}: {e}", path.display()));
        }
        println!("set written to {}", path.display());
    }
    println!(
        "{} workloads, {failed_runs} failed runs",
        catalog::WORKLOADS.len()
    );
    ExitCode::from(u8::from(failed_runs > 0))
}
