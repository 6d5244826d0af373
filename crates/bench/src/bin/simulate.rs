//! Artifact-style simulation driver, mirroring the published artifact's
//! command line (paper appendix §A.7):
//!
//! ```text
//! cargo run --release -p unizk-bench --bin simulate -- --app ecdsa -r 8 -t 32 -e 0
//! ```
//!
//! * `--app NAME` — factorial | fibonacci | ecdsa | sha256 | imagecrop | mvm
//! * `-r MB` — scratchpad capacity in MB (default 8)
//! * `-t N` — number of VSAs (default 32)
//! * `-e K` — target kernel: 0 = NTTs only, 1 = hash only; omit for the
//!   entire proof generation
//! * `--shrink N` / `--full` — workload scale (default shrink 6)
//! * `--trace` — also print the per-node schedule (paper §5.5)
//! * `--json [PATH]` — also emit the report as JSON: pretty-printed to
//!   `PATH` if given (e.g. `results/ecdsa.json`), compact to stdout
//!   otherwise
//!
//! Anything else — an unknown flag, a value that does not parse — is a
//! usage error (exit status 2), never a silent default run.
//!
//! Output follows the artifact's log format (`total_num_write_requests`,
//! `total_num_read_requests`, `memory_system_cycles`).

use unizk_bench::scale_arg;
use unizk_core::compiler::compile_plonky2;
use unizk_core::{ChipConfig, Graph, KernelClassTag, Simulator};
use unizk_testkit::json::{Json, ToJson};
use unizk_testkit::Args;
use unizk_workloads::{App, Scale};

fn main() {
    let mut args = Args::from_env(
        "[--app NAME] [-r MB] [-t VSAS] [-e 0|1] [--shrink N | --full] [--trace] [--json [PATH]]",
    );
    let app = match args.value::<String>("--app").as_deref() {
        Some("factorial") | None => App::Factorial,
        Some("fibonacci") => App::Fibonacci,
        Some("ecdsa") => App::Ecdsa,
        Some("sha256") => App::Sha256,
        Some("imagecrop") => App::ImageCrop,
        Some("mvm") => App::Mvm,
        Some(other) => {
            eprintln!("unknown app: {other}");
            std::process::exit(2);
        }
    };
    let scratchpad_mb: usize = args.value("-r").unwrap_or(8);
    let vsas: usize = args.value("-t").unwrap_or(32);
    let kernel_filter: Option<u32> = args.value("-e");
    let scale = scale_arg(&mut args, Scale::Shrunk(6));
    let print_trace = args.flag("--trace");
    let json = args.optional_value("--json");
    args.finish();

    let chip = ChipConfig::default_chip()
        .with_vsas(vsas)
        .with_scratchpad_mb(scratchpad_mb);
    let full_graph = compile_plonky2(&app.plonky2_instance(scale));

    // -e 0: NTTs only; -e 1: hash computations only (artifact semantics).
    let graph = match kernel_filter {
        None => full_graph,
        Some(code) => {
            let keep = match code {
                0 => KernelClassTag::Ntt,
                1 => KernelClassTag::Hash,
                other => {
                    eprintln!("unknown -e value: {other} (0 = NTT, 1 = hash)");
                    std::process::exit(2);
                }
            };
            let mut g = Graph::new();
            for node in full_graph.nodes() {
                if node.kernel.class() == keep {
                    g.push_seq(node.kernel.clone(), node.label.clone());
                }
            }
            g
        }
    };

    let (report, trace) = Simulator::new(chip.clone()).run_with_trace(&graph);
    println!(
        "app: {} | scale: {scale:?} | {} kernel nodes | scratchpad {scratchpad_mb} MB | {vsas} VSAs",
        app.name(),
        graph.len()
    );
    if print_trace {
        println!("\nper-node schedule (paper §5.5):");
        for t in &trace {
            println!(
                "  [{:>12} .. {:>12}] {:<40} {:>5?} {} ({} B, {})",
                t.start_cycle,
                t.end_cycle,
                t.label,
                t.class,
                if t.memory_bound() { "mem-bound" } else { "compute-bound" },
                t.bytes,
                if t.vsas_used > 0 { format!("{} VSAs", t.vsas_used) } else { "overlapped".into() },
            );
        }
        println!();
    }
    print!("{}", report.artifact_log());
    println!(
        "=> {:.3} ms at {} GHz",
        report.seconds(&chip) * 1e3,
        chip.freq_ghz
    );

    if let Some(path) = json {
        let doc = Json::obj([
            ("app", Json::str(app.name())),
            ("scale", Json::str(format!("{scale:?}"))),
            ("scratchpad_mb", Json::from(scratchpad_mb)),
            ("vsas", Json::from(vsas)),
            ("milliseconds", Json::from(report.seconds(&chip) * 1e3)),
            ("report", report.to_json()),
        ]);
        // A bare `--json` (or one followed by another flag) prints to stdout;
        // `--json PATH` writes a pretty-printed file.
        match path {
            Some(path) => {
                if let Some(dir) = std::path::Path::new(&path).parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                std::fs::write(&path, doc.to_string_pretty() + "\n")
                    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!("wrote {path}");
            }
            None => println!("{doc}"),
        }
    }
}
