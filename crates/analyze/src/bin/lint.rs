//! Static schedule verifier CLI.
//!
//! ```text
//! cargo run --release -p unizk-analyze --bin lint
//! ```
//!
//! Checks every built-in workload (all six Table 3 applications at CI and
//! paper scale, plus the Starky pipeline) and every enumerated point of
//! every spec file under the specs directory, then exits nonzero if any
//! target produced an error-severity diagnostic. Warnings are reported
//! but do not fail the run.
//!
//! Flags (parsed strictly by [`unizk_testkit::Args`]: anything else is a
//! usage error, exit status 2):
//!
//! - `--specs-dir DIR` — sweep-spec directory (default
//!   `crates/explore/specs`; pass an empty string to skip specs).
//! - `--json FILE` — also write the machine-readable summary here
//!   (schema [`unizk_analyze::lint::LINT_SCHEMA`], including each
//!   target's static cost envelope).
//! - `--rules LIST` — only report rules matching the comma-separated
//!   glob list (`C*,P*`, `M01`, ...); the exit code follows the
//!   retained set.
//! - `--check-bounds` — additionally simulate every target and verify
//!   that its static cost envelope brackets the exact cycle counts.
//! - `--quiet` — print nothing on success; findings still print (and
//!   the exit code is still nonzero) when errors are found.
//! - `--list-rules` — print the rule catalog and exit.

use std::path::PathBuf;
use std::process::ExitCode;

use unizk_analyze::lint::{check_bounds, lint_all, spec_targets, workload_targets, LintTarget};
use unizk_analyze::Rule;
use unizk_testkit::Args;

struct Options {
    specs_dir: Option<PathBuf>,
    json: Option<PathBuf>,
    quiet: bool,
    rules: Option<String>,
    bounds: bool,
    list_rules: bool,
}

fn parse_args() -> Options {
    let mut args = Args::from_env(
        "[--specs-dir DIR] [--json FILE] [--rules LIST] [--check-bounds] [--quiet] [--list-rules]",
    );
    let specs_dir: String = args
        .value("--specs-dir")
        .unwrap_or_else(|| "crates/explore/specs".into());
    let options = Options {
        specs_dir: (!specs_dir.is_empty()).then(|| PathBuf::from(specs_dir)),
        json: args.value("--json"),
        quiet: args.flag("--quiet"),
        rules: args.value("--rules"),
        bounds: args.flag("--check-bounds"),
        list_rules: args.flag("--list-rules"),
    };
    args.finish();
    options
}

fn print_rule_catalog() {
    for rule in Rule::ALL {
        println!(
            "{} {:28} {:8} {}",
            rule.id(),
            rule.name(),
            format!("{:?}", rule.severity()).to_lowercase(),
            rule.description()
        );
    }
}

fn collect_targets(args: &Options) -> Result<Vec<LintTarget>, String> {
    let mut targets = workload_targets();
    if let Some(dir) = &args.specs_dir {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let mut spec_files: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        spec_files.sort();
        if spec_files.is_empty() {
            return Err(format!("no spec files in {}", dir.display()));
        }
        for path in spec_files {
            targets.extend(spec_targets(&path)?);
        }
    }
    Ok(targets)
}

fn run() -> Result<bool, String> {
    let args = parse_args();
    if args.list_rules {
        print_rule_catalog();
        return Ok(true);
    }

    let targets = collect_targets(&args)?;
    let mut summary = lint_all(&targets);
    if let Some(patterns) = &args.rules {
        summary.retain_rules(patterns);
    }
    let clean = summary.is_clean();
    if !args.quiet || !clean {
        print!("{}", summary.render(!args.quiet));
    }

    if args.bounds {
        let checked = check_bounds(&targets)?;
        if !args.quiet {
            println!("bounds: {checked} targets inside their static envelope");
        }
    }

    if let Some(path) = &args.json {
        let text = summary.to_json().to_string_pretty() + "\n";
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(clean)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("lint: error-severity diagnostics found");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lint: {e}");
            ExitCode::FAILURE
        }
    }
}
