//! Design-space sweep driver.
//!
//! ```text
//! cargo run --release -p unizk-explore --bin sweep -- \
//!     --spec crates/explore/specs/smoke.json --jobs 4
//! ```
//!
//! Flags (parsed strictly by [`unizk_testkit::Args`]: anything else is a
//! usage error, exit status 2):
//!
//! - `--spec FILE` (required) — JSON sweep specification (format in
//!   EXPERIMENTS.md).
//! - `--jobs N` — worker threads; `0` (default) uses all cores.
//! - `--out FILE` — JSON artifact path (default `SWEEP.json`).
//! - `--markdown FILE` — also write the markdown report here.

use std::path::PathBuf;
use std::process::ExitCode;

use unizk_explore::{run_sweep, SweepOptions, SweepSpec};
use unizk_testkit::Args;

fn run() -> Result<(), String> {
    let mut args = Args::from_env("--spec FILE [--jobs N] [--out FILE] [--markdown FILE]");
    let spec_path: Option<PathBuf> = args.value("--spec");
    let opts = SweepOptions {
        jobs: args.value("--jobs").unwrap_or(0),
        ..SweepOptions::default()
    };
    let out: PathBuf = args.value("--out").unwrap_or_else(|| "SWEEP.json".into());
    let markdown: Option<PathBuf> = args.value("--markdown");
    let Some(spec_path) = spec_path else {
        args.fail("--spec FILE is required")
    };
    args.finish();

    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let spec = SweepSpec::from_json_text(&text)?;

    eprintln!(
        "sweep {:?}: {} points, jobs={}",
        spec.name,
        spec.num_points(),
        if opts.jobs == 0 { "auto".to_string() } else { opts.jobs.to_string() }
    );
    let result = run_sweep(&spec, &opts)?;

    let artifact = result.to_json().to_string_pretty() + "\n";
    std::fs::write(&out, &artifact)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    if let Some(md_path) = &markdown {
        std::fs::write(md_path, result.markdown())
            .map_err(|e| format!("cannot write {}: {e}", md_path.display()))?;
    }

    println!(
        "pareto frontier: {} of {} points -> {}",
        result.pareto.len(),
        result.points.len(),
        out.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}
