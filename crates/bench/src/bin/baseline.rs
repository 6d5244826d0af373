//! The perf-trajectory baseline: a fixed prover workload and a fixed
//! simulator configuration, exported as machine-readable JSON.
//!
//! Every future PR is compared against the `BENCH_PROVER.json` /
//! `BENCH_SIM.json` this binary emits (see EXPERIMENTS.md for the schema
//! and `scripts/bench.sh` for the canonical invocation). Two self-checks
//! gate the artifacts:
//!
//! * the five Table 1 kernel classes must sum to within 5% of the total
//!   measured prove time (the trace layer covers the prover), and
//! * two back-to-back simulator runs must be cycle-identical (the
//!   simulator is deterministic).
//!
//! `baseline --compare OLD NEW` diffs two artifacts of the same schema.

// Wall-clock nanoseconds fit u64 for any realistic run length.
#![allow(clippy::cast_possible_truncation)]

use std::time::Instant;

use unizk_core::compiler::{compile_plonky2, compile_starky, Plonky2Instance, StarkyInstance};
use unizk_core::kernels::KernelClassTag;
use unizk_core::sim::SimReport;
use unizk_core::{ChipConfig, Simulator};
use unizk_fri::{kernel_totals_from, KernelClass};
use unizk_hash::sponge::HashField;
use unizk_hash::SpongeBackend;
use unizk_stark::{prove, verify, FibonacciAir, KbStarkConfig, StarkConfig};
use unizk_testkit::json::access::{arr_field, obj_field, str_field, u64_field};
use unizk_testkit::json::{parse, Json, ToJson};
use unizk_testkit::trace;

/// Schema identifiers embedded in (and required of) the artifacts.
const PROVER_SCHEMA: &str = "unizk-bench-prover/1";
const SIM_SCHEMA: &str = "unizk-bench-sim/1";

/// The fixed prover workload: Fibonacci Starky, 2^12 rows, single thread
/// (the paper's Table 1 breakdown methodology).
const LOG_ROWS: usize = 12;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        if args.len() != 3 {
            eprintln!("usage: baseline --compare OLD.json NEW.json");
            std::process::exit(2);
        }
        compare(&args[1], &args[2]);
        return;
    }

    let usage = || -> ! {
        eprintln!(
            "usage: baseline [--out-dir DIR] [--field goldilocks|koalabear] \
             | baseline --compare OLD.json NEW.json"
        );
        std::process::exit(2);
    };
    let mut out_dir = ".".to_string();
    let mut field = "goldilocks".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--out-dir" => out_dir = value.clone(),
            "--field" => field = value.clone(),
            _ => usage(),
        }
    }

    match field.as_str() {
        "goldilocks" => {
            let prover = bench_prover();
            let prover_path = format!("{out_dir}/BENCH_PROVER.json");
            std::fs::write(&prover_path, prover.to_string_pretty() + "\n")
                .unwrap_or_else(|e| panic!("writing {prover_path}: {e}"));
            println!("wrote {prover_path}");

            let sim = bench_sim();
            let sim_path = format!("{out_dir}/BENCH_SIM.json");
            std::fs::write(&sim_path, sim.to_string_pretty() + "\n")
                .unwrap_or_else(|e| panic!("writing {sim_path}: {e}"));
            println!("wrote {sim_path}");
        }
        // KoalaBear runs the same prover workload over the 31-bit stack.
        // Its artifact is a *separate* trajectory (BENCH_PROVER_KB.json),
        // never compared against the Goldilocks baseline: counters differ
        // by design (4 challenge rounds, degree-4 openings, Poseidon2).
        // The chip simulator models the Goldilocks datapath, so no
        // BENCH_SIM.json is written in this mode.
        "koalabear" => {
            let prover = bench_prover_kb();
            let prover_path = format!("{out_dir}/BENCH_PROVER_KB.json");
            std::fs::write(&prover_path, prover.to_string_pretty() + "\n")
                .unwrap_or_else(|e| panic!("writing {prover_path}: {e}"));
            println!("wrote {prover_path}");
        }
        _ => usage(),
    }
}

/// Proves the fixed Starky instance single-threaded over Goldilocks and
/// reports the Table 1 kernel breakdown plus the full span tree.
fn bench_prover() -> Json {
    bench_prover_over("fibonacci_starky", "goldilocks", &StarkConfig::standard())
}

/// The same workload over the 31-bit KoalaBear stack (Poseidon2 sponge,
/// degree-4 extension openings).
fn bench_prover_kb() -> Json {
    bench_prover_over(
        "fibonacci_starky",
        "koalabear",
        &KbStarkConfig::standard_over(),
    )
}

/// Proves the fixed Starky instance single-threaded over the given
/// `(field, hasher)` stack and reports the Table 1 kernel breakdown plus
/// the full span tree.
fn bench_prover_over<F: HashField, H: SpongeBackend<F = F>>(
    app: &str,
    field: &str,
    config: &StarkConfig<F, H>,
) -> Json {
    let rows = 1 << LOG_ROWS;
    let air = FibonacciAir::new(rows);

    unizk_field::set_parallelism(1);
    trace::reset();
    let start = Instant::now();
    let proof = prove(&air, config).expect("baseline trace satisfies the AIR");
    let total_ns = start.elapsed().as_nanos() as u64;
    let report = trace::snapshot();
    unizk_field::set_parallelism(0);
    verify(&air, &proof, config).expect("baseline proof verifies");

    let totals = kernel_totals_from(&report);
    let covered_ns: u64 = totals.iter().map(|(_, d)| d.as_nanos() as u64).sum();
    let coverage = covered_ns as f64 / total_ns as f64;
    println!(
        "prover: {} rows in {:.1} ms, proof {} bytes, kernel coverage {:.1}%",
        rows,
        total_ns as f64 / 1e6,
        proof.size_bytes(),
        coverage * 100.0
    );
    for (class, d) in &totals {
        println!(
            "  {:<16} {:>10.2} ms  ({:>5.1}%)",
            class.name(),
            d.as_secs_f64() * 1e3,
            d.as_nanos() as f64 / total_ns as f64 * 100.0
        );
    }
    assert!(
        (0.95..=1.05).contains(&coverage),
        "kernel classes must sum to within 5% of total prove time, got {coverage:.3}"
    );

    let classes = totals.iter().map(|(class, d)| {
        let ns = d.as_nanos() as u64;
        (
            class.name(),
            Json::obj([
                ("ns", Json::from(ns)),
                ("fraction", Json::from(ns as f64 / total_ns as f64)),
            ]),
        )
    });
    Json::obj([
        ("schema", Json::str(PROVER_SCHEMA)),
        (
            "workload",
            Json::obj([
                ("app", Json::str(app)),
                ("field", Json::str(field)),
                ("rows", Json::from(rows)),
                ("width", Json::from(air.width())),
                ("threads", Json::from(1u64)),
                (
                    "fri",
                    Json::obj([
                        ("rate_bits", Json::from(config.fri.rate_bits)),
                        ("num_queries", Json::from(config.fri.num_queries)),
                        ("proof_of_work_bits", Json::from(config.fri.proof_of_work_bits)),
                        ("final_poly_len", Json::from(config.fri.final_poly_len)),
                    ]),
                ),
            ]),
        ),
        ("total_ns", Json::from(total_ns)),
        ("proof_bytes", Json::from(proof.size_bytes())),
        ("coverage", Json::from(coverage)),
        ("kernel_classes", Json::obj(classes)),
        ("trace", report.to_json()),
    ])
}

/// Runs the fixed simulator config on two fixed workloads, twice, and
/// reports the (verified cycle-identical) statistics.
fn bench_sim() -> Json {
    let chip = ChipConfig::default_chip();
    let starky = compile_starky(&StarkyInstance::new(1 << LOG_ROWS, 2, 2));
    let plonky2 = compile_plonky2(&Plonky2Instance::new(1 << LOG_ROWS, 135));
    let workloads = [("starky_fib_4096", &starky), ("plonky2_4096x135", &plonky2)];

    // The measured pass must hold this process's first simulation: the
    // DRAM model probes each (HBM config, pattern) pair once per process
    // and publishes its `dram.*` counters then, so a simulation before the
    // reset would leave `trace_counters` without them.
    trace::reset();
    let sim = Simulator::new(chip.clone());
    let reports: Vec<SimReport> = workloads.iter().map(|(_, g)| sim.run(g)).collect();
    let counters = trace::snapshot().counters;

    // Determinism gate: a fresh simulator must reproduce every statistic.
    let sim2 = Simulator::new(chip.clone());
    for ((name, graph), first) in workloads.iter().zip(&reports) {
        let second = sim2.run(graph);
        assert_eq!(
            (first.total_cycles, first.read_requests, first.write_requests),
            (second.total_cycles, second.read_requests, second.write_requests),
            "simulator must be cycle-identical across runs ({name})"
        );
        for tag in CLASS_TAGS {
            assert_eq!(first.class(tag), second.class(tag), "{name}/{}", tag.name());
        }
        println!(
            "sim: {name}: {} cycles ({:.3} ms at 1 GHz), deterministic",
            first.total_cycles,
            first.seconds(&chip) * 1e3
        );
    }

    let workloads_json = workloads.iter().zip(&reports).map(|((name, _), r)| {
        let utilization = CLASS_TAGS.into_iter().map(|tag| {
            (
                tag.name(),
                Json::obj([
                    ("vsa", Json::from(r.vsa_utilization(tag))),
                    ("memory", Json::from(r.memory_utilization(tag))),
                    ("cycle_fraction", Json::from(r.cycle_fraction(tag))),
                ]),
            )
        });
        let mut obj = vec![("name".to_string(), Json::str(*name))];
        if let Json::Obj(fields) = r.to_json() {
            obj.extend(fields);
        }
        obj.push(("utilization".to_string(), Json::obj(utilization)));
        Json::Obj(obj)
    });

    Json::obj([
        ("schema", Json::str(SIM_SCHEMA)),
        (
            "chip",
            Json::obj([
                ("num_vsas", Json::from(chip.num_vsas)),
                ("peak_bytes_per_cycle", Json::from(chip.hbm.peak_bytes_per_cycle())),
            ]),
        ),
        ("deterministic", Json::from(true)),
        ("workloads", Json::arr(workloads_json)),
        (
            "trace_counters",
            Json::obj(counters.into_iter().map(|(k, v)| (k, Json::from(v)))),
        ),
    ])
}

const CLASS_TAGS: [KernelClassTag; 4] = [
    KernelClassTag::Ntt,
    KernelClassTag::Hash,
    KernelClassTag::Poly,
    KernelClassTag::Transpose,
];

/// Diffs two artifacts of the same schema, printing the headline total and
/// per-class changes.
fn compare(old_path: &str, new_path: &str) {
    let old = load(old_path);
    let new = load(new_path);
    let old_schema = str_field(&old, "schema", old_path);
    let new_schema = str_field(&new, "schema", new_path);
    assert_eq!(
        old_schema, new_schema,
        "cannot compare different schemas ({old_schema} vs {new_schema})"
    );

    match old_schema.as_str() {
        PROVER_SCHEMA => {
            let t_old = u64_field(&old, "total_ns", old_path);
            let t_new = u64_field(&new, "total_ns", new_path);
            println!(
                "total: {:.1} ms -> {:.1} ms ({})",
                t_old as f64 / 1e6,
                t_new as f64 / 1e6,
                delta(t_old, t_new)
            );
            let classes_old = obj_field(&old, "kernel_classes", old_path);
            let classes_new = obj_field(&new, "kernel_classes", new_path);
            // Kernel-class *coverage* is part of the artifact contract: a
            // class that appears on one side but not the other — or loses
            // its `ns`/`fraction` fields — means the instrumentation
            // stopped covering that kernel. That must fail the gate with a
            // readable diff, not panic halfway through printing it. Diff
            // the union of class keys (the known classes plus anything
            // either artifact carries), so vanished *and* newly appeared
            // classes both surface.
            let mut names: Vec<&str> = KernelClass::ALL.iter().map(KernelClass::name).collect();
            for (k, _) in classes_old.iter().chain(classes_new.iter()) {
                if !names.contains(&k.as_str()) {
                    names.push(k);
                }
            }
            let mut coverage_drift = false;
            for name in names {
                let entry = |classes: &[(String, Json)]| {
                    classes.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
                };
                match (entry(&classes_old), entry(&classes_new)) {
                    // Known class measured by neither artifact: coverage
                    // agrees, nothing to diff.
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        let fields = |v: &Json| {
                            match (v.get("ns"), v.get("fraction")) {
                                (Some(&Json::UInt(ns)), Some(f)) if f.as_f64().is_some() => {
                                    Some(ns)
                                }
                                _ => None,
                            }
                        };
                        match (fields(&a), fields(&b)) {
                            (Some(a_ns), Some(b_ns)) => println!(
                                "  {:<16} {:>10.2} ms -> {:>10.2} ms ({})",
                                name,
                                a_ns as f64 / 1e6,
                                b_ns as f64 / 1e6,
                                delta(a_ns, b_ns)
                            ),
                            (a_ok, b_ok) => {
                                let show = |ok: Option<u64>| {
                                    if ok.is_some() { "ns+fraction" } else { "malformed" }
                                };
                                println!(
                                    "coverage drift: {name} {} -> {}",
                                    show(a_ok),
                                    show(b_ok)
                                );
                                coverage_drift = true;
                            }
                        }
                    }
                    (Some(_), None) => {
                        println!("coverage drift: {name} present -> MISSING (class vanished)");
                        coverage_drift = true;
                    }
                    (None, Some(_)) => {
                        println!("coverage drift: {name} MISSING -> present (class appeared)");
                        coverage_drift = true;
                    }
                }
            }
            if coverage_drift {
                eprintln!("error: kernel-class coverage drifted (see above)");
                std::process::exit(1);
            }
            // Deterministic work counters are an *invariant*, not a metric:
            // the time deltas above are informational, counter drift is an
            // error. Report the two separately and fail on any drift.
            let counters_old = trace_counters(&old, old_path);
            let counters_new = trace_counters(&new, new_path);
            let mut drift = false;
            let mut names: Vec<&String> =
                counters_old.keys().chain(counters_new.keys()).collect();
            names.sort();
            names.dedup();
            for name in names {
                match (counters_old.get(name), counters_new.get(name)) {
                    (Some(a), Some(b)) if a == b => {}
                    (a, b) => {
                        let show = |v: Option<&u64>| {
                            v.map_or_else(|| "absent".to_string(), u64::to_string)
                        };
                        println!("counter drift: {name} {} -> {}", show(a), show(b));
                        drift = true;
                    }
                }
            }
            let p_old = u64_field(&old, "proof_bytes", old_path);
            let p_new = u64_field(&new, "proof_bytes", new_path);
            if p_old != p_new {
                println!("counter drift: proof_bytes {p_old} -> {p_new}");
                drift = true;
            }
            if drift {
                eprintln!("error: deterministic counters drifted (see above)");
                std::process::exit(1);
            }
            println!(
                "counters: identical ({} tracked, proof {p_new} bytes)",
                counters_old.len()
            );
        }
        SIM_SCHEMA => {
            let olds = arr_field(&old, "workloads", old_path);
            let news = arr_field(&new, "workloads", new_path);
            for w_old in &olds {
                let name = str_field(w_old, "name", old_path);
                let Some(w_new) = news
                    .iter()
                    .find(|w| str_field(w, "name", new_path) == name)
                else {
                    println!("{name}: removed");
                    continue;
                };
                let a = u64_field(w_old, "total_cycles", old_path);
                let b = u64_field(w_new, "total_cycles", new_path);
                println!("{name}: {a} -> {b} cycles ({})", delta(a, b));
            }
        }
        other => panic!("unknown schema {other:?}"),
    }
}

/// Extracts the deterministic work counters (`trace.counters`) from a
/// prover artifact as a name → value map.
fn trace_counters(artifact: &Json, path: &str) -> std::collections::BTreeMap<String, u64> {
    let trace = obj_field(artifact, "trace", path);
    let (_, counters) = trace
        .iter()
        .find(|(k, _)| k == "counters")
        .unwrap_or_else(|| panic!("{path}: missing trace.counters"));
    match counters {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(name, v)| match v {
                Json::UInt(n) => (name.clone(), *n),
                other => panic!("{path}: counter {name:?} is not a u64: {other}"),
            })
            .collect(),
        other => panic!("{path}: trace.counters is not an object: {other}"),
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn delta(old: u64, new: u64) -> String {
    if old == 0 {
        return "n/a".to_string();
    }
    let pct = (new as f64 - old as f64) / old as f64 * 100.0;
    format!("{pct:+.1}%")
}
