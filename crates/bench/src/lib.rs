//! Benchmark harness for the UniZK reproduction.
//!
//! Every table and figure of the paper's evaluation (§7) has a generator
//! here, exposed both as a library function (so integration tests can
//! assert the qualitative claims) and as a binary that prints the same
//! rows/series the paper reports:
//!
//! | Paper artifact | Generator | Binary |
//! |---|---|---|
//! | Table 1 (CPU breakdown) | [`experiments::table1`] | `table1` |
//! | Table 2 (area/power) | [`experiments::table2`] | `table2` |
//! | Table 3 (CPU/GPU/UniZK) | [`experiments::table3`] | `table3` |
//! | Table 4 (utilization) | [`experiments::table4`] | `table4` |
//! | Table 5 (Starky + recursion) | [`experiments::table5`] | `table5` |
//! | Table 6 (PipeZK comparison) | [`experiments::table6`] | `table6` |
//! | Fig. 8 (UniZK breakdown) | [`experiments::fig8`] | `fig8` |
//! | Fig. 9 (per-kernel speedups) | [`experiments::fig9`] | `fig9` |
//! | Fig. 10 (design-space sweep) | [`experiments::fig10`] | `fig10` |
//!
//! Binaries accept `--shrink N` (default 8) to scale `log2(rows)` down
//! from the paper's dimensions, or `--full` for paper scale (slow; see
//! DESIGN.md §2.7). Every binary parses its command line with
//! [`unizk_testkit::Args`], as `sweep` and `lint` do: an unknown flag or a
//! bad value is a usage error, exit status 2.
//!
//! The `contract` binary prints [`contract()`], the exact numbers the
//! committed `CONTRACT.json` holds every PR to. Nothing in this crate
//! reads a clock for an artifact: timing claims are made on `benchmark/`.

#![forbid(unsafe_code)]

pub mod contract;
pub mod experiments;
pub mod render;

pub use contract::contract;
pub use experiments::*;

use unizk_testkit::Args;
use unizk_workloads::Scale;

/// Consumes `--shrink N` / `--full`, the workload scale every table and
/// figure binary accepts.
pub fn scale_arg(args: &mut Args, default: Scale) -> Scale {
    let full = args.flag("--full");
    match args.value("--shrink") {
        Some(_) if full => args.fail("--full and --shrink exclude each other"),
        Some(n) => Scale::Shrunk(n),
        None if full => Scale::Full,
        None => default,
    }
}

/// The whole command line of a table or figure binary:
/// `[--shrink N | --full]`.
pub fn scale_from_args() -> Scale {
    let mut args = Args::from_env("[--shrink N | --full]");
    let scale = scale_arg(&mut args, Scale::default());
    args.finish();
    scale
}

/// The whole command line of a binary that takes no arguments.
pub fn no_args() {
    Args::from_env("(takes no arguments)").finish();
}
