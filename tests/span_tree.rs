//! The provers' span trees, read against the one class table
//! (`unizk_fri::KernelClass::of_span`).
//!
//! Each prover opens one span per region, named for what the region does;
//! which Table 1 class a region belongs to is decided by the table alone.
//! So the tree has the same shape whatever the query count, every region a
//! prove leaves as a leaf is classified, and the classified spans cover
//! nearly all of a prove's time — over a Goldilocks Stark, a KoalaBear
//! Stark and a Plonk prove, at one thread.
//!
//! The trace store and the parallelism override are per process: the tests
//! serialise on one lock, in a binary of their own.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use unizk_fri::{kernel_totals_from, KernelClass};
use unizk_stark::{prove, FibonacciAir, KbStarkConfig, StarkConfig};
use unizk_testkit::trace::{self, TraceReport};
use unizk_workloads::{App, Scale};

static TRACE_STORE: Mutex<()> = Mutex::new(());

/// The shape of the benchmark's `stark_small_gl`: Fibonacci, 2^12 rows × 2.
const STARK_ROWS: usize = 1 << 12;

fn serial() -> MutexGuard<'static, ()> {
    let guard = TRACE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    unizk_field::set_parallelism(1);
    guard
}

/// Runs `prove` on an empty trace store and returns what it recorded, which
/// is one tree under the span `root`.
fn traced<T>(root: &str, prove: impl FnOnce() -> T) -> TraceReport {
    trace::reset();
    prove();
    let report = trace::snapshot();
    assert_eq!(report.roots.len(), 1, "one root span per prove");
    assert_eq!(report.roots[0].name, root);
    report
}

fn stark_gl(num_queries: usize) -> TraceReport {
    let mut config = StarkConfig::standard();
    config.fri.num_queries = num_queries;
    // Fewer queries buy fewer bits; the static check is not what is tested.
    config.target_security_bits =
        num_queries * config.fri.rate_bits + config.fri.proof_of_work_bits;
    traced("stark.prove", || {
        prove(&FibonacciAir::new(STARK_ROWS), &config).expect("Fibonacci proves")
    })
}

fn stark_kb() -> TraceReport {
    let config = KbStarkConfig::standard_over();
    traced("stark.prove", || {
        prove(&FibonacciAir::new(1 << 10), &config).expect("Fibonacci proves")
    })
}

/// The benchmark's `plonk_fib_gl` circuit: 2^10 rows × 135 wires.
fn plonk() -> TraceReport {
    let (circuit, inputs) = App::Fibonacci.build_circuit(Scale::Shrunk(6));
    traced("plonk.prove", || {
        circuit
            .prove(&inputs)
            .expect("the witness satisfies the circuit")
    })
}

/// Every span closed in `report`.
fn closes(report: &TraceReport) -> u64 {
    let mut total = 0;
    report.walk(&mut |_, node| total += node.count);
    total
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The span names listed in `of_span`'s table, read from its source.
fn table_names() -> Vec<String> {
    let source =
        std::fs::read_to_string(repo_root().join("crates/fri/src/timing.rs")).expect("timing.rs");
    let start = source.find("const SPAN_CLASSES").expect("the class table");
    let table = &source[start..start + source[start..].find("];").expect("end of the table")];
    let names: Vec<String> = table
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect();
    for name in &names {
        assert!(
            KernelClass::of_span(name).is_some(),
            "{name} is in the table but of_span misses it"
        );
    }
    assert!(!names.is_empty());
    names
}

/// The spans a Goldilocks Stark prove closes once, by path.
const STARK_PHASE_SPANS: [&str; 23] = [
    "stark.prove",
    "stark.prove/stark.trace_gen",
    "stark.prove/stark.trace_commit",
    "stark.prove/stark.trace_commit/batch.intt",
    "stark.prove/stark.trace_commit/batch.lde",
    "stark.prove/stark.trace_commit/batch.leaves",
    "stark.prove/stark.trace_commit/merkle.build",
    "stark.prove/stark.quotient",
    "stark.prove/stark.quotient/stark.quotient_eval",
    "stark.prove/stark.quotient/stark.quotient_intt",
    "stark.prove/stark.quotient_commit",
    "stark.prove/stark.quotient_commit/batch.lde",
    "stark.prove/stark.quotient_commit/batch.leaves",
    "stark.prove/stark.quotient_commit/merkle.build",
    "stark.prove/stark.fri",
    "stark.prove/stark.fri/fri.prove",
    "stark.prove/stark.fri/fri.prove/fri.observe_openings",
    "stark.prove/stark.fri/fri.prove/fri.combine",
    "stark.prove/stark.fri/fri.prove/fri.commit_fold",
    "stark.prove/stark.fri/fri.prove/fri.final_poly",
    "stark.prove/stark.fri/fri.prove/fri.grind",
    "stark.prove/stark.fri/fri.prove/fri.query",
    "stark.prove/stark.fri/fri.prove/fri.open",
];

/// The spans a Goldilocks Stark prove closes once per FRI reduction round.
const STARK_ROUND_SPANS: [&str; 3] = [
    "stark.prove/stark.fri/fri.prove/fri.commit_fold/fri.fold",
    "stark.prove/stark.fri/fri.prove/fri.commit_fold/fri.fold_tree",
    "stark.prove/stark.fri/fri.prove/fri.commit_fold/fri.fold_tree/merkle.build",
];

/// Every span of a Stark prove is one of the listed phases or rounds, closed
/// as often as that says — whatever the query count. A new span states
/// itself here.
#[test]
fn span_count_does_not_depend_on_num_queries() {
    let _serial = serial();
    for num_queries in [28, 84] {
        let report = stark_gl(num_queries);
        let rounds = report.counter("fri.reduction_rounds");
        assert!(rounds > 0, "a Stark prove at 2^12 rows folds");
        let mut closed = BTreeMap::new();
        report.walk(&mut |path, node| {
            closed.insert(path.join("/"), node.count);
        });
        let phases = STARK_PHASE_SPANS.iter().map(|&path| (path.to_owned(), 1));
        let per_round = STARK_ROUND_SPANS.iter().map(|&path| (path.to_owned(), rounds));
        let want: BTreeMap<String, u64> = phases.chain(per_round).collect();
        assert_eq!(closed, want, "{num_queries} queries");
        let exact = STARK_PHASE_SPANS.len() as u64 + STARK_ROUND_SPANS.len() as u64 * rounds;
        assert_eq!(closes(&report), exact, "{num_queries} queries");
    }
}

#[test]
fn every_table_span_is_opened_and_every_leaf_is_classified() {
    let _serial = serial();
    let mut opened = BTreeSet::new();
    for report in [stark_gl(84), stark_kb(), plonk()] {
        report.walk(&mut |path, node| {
            opened.insert(node.name.clone());
            assert!(
                !node.children.is_empty() || KernelClass::of_span(&node.name).is_some(),
                "unclassified leaf span {}",
                path.join("/")
            );
        });
    }
    for name in table_names() {
        assert!(
            opened.contains(&name),
            "{name} is in the class table but no prove opens it"
        );
    }
}

#[test]
fn classified_spans_cover_each_prove() {
    let _serial = serial();
    for report in [stark_gl(84), stark_kb(), plonk()] {
        let root = &report.roots[0];
        let covered: f64 = kernel_totals_from(&report)
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .sum();
        let share = covered / root.total().as_secs_f64();
        assert!(
            share >= 0.95,
            "{}: classified spans cover {share:.4} of the prove",
            root.name
        );
        assert!(
            share <= 1.0 + 1e-9,
            "{}: classes sum past the root: {share}",
            root.name
        );
    }
}

#[test]
fn no_kernel_prefixed_span_name_in_crate_sources() {
    let mut stack = vec![repo_root().join("crates")];
    let mut offenders = Vec::new();
    let mut files = 0;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            let in_src = path.components().any(|c| c.as_os_str() == "src");
            if path.is_dir() {
                stack.push(path);
            } else if in_src && path.extension().is_some_and(|e| e == "rs") {
                files += 1;
                let text = std::fs::read_to_string(&path).expect("readable source");
                if text.contains("\"kernel:") {
                    offenders.push(path.display().to_string());
                }
            }
        }
    }
    assert!(files > 100, "walked only {files} source files");
    assert!(offenders.is_empty(), "kernel:* span names in {offenders:?}");
}
