//! The instrumented CPU baseline runner.
//!
//! Runs the real software prover on this machine, with the Table 1 kernel
//! timers. Single-threaded mode reproduces the paper's breakdown
//! methodology ("we use a single thread to simplify time breakdown"); the
//! multi-threaded mode is the Table 3 baseline.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use unizk_fri::{kernel_totals_from, KernelClass};
use unizk_plonk::Proof;
use unizk_testkit::trace;

use crate::apps::{App, Scale};

/// Kernel timers and the parallelism override are process-global, so two
/// concurrent instrumented runs would corrupt each other's measurements
/// (a real hazard under `cargo test`'s default parallelism). Every
/// [`run_circuit`] serializes on this lock.
static MEASUREMENT: Mutex<()> = Mutex::new(());

/// Root span of the measured `prove` call in [`run_circuit`].
const PROVE_SPAN: &str = "cpu.prove";

/// Takes the process-wide measurement lock (recovering from a poisoned
/// lock — a panicked run leaves no state worth protecting).
pub fn measurement_lock() -> MutexGuard<'static, ()> {
    MEASUREMENT.lock().unwrap_or_else(|e| e.into_inner())
}

/// The result of one instrumented CPU proving run.
#[derive(Clone, Debug)]
pub struct CpuRun {
    /// End-to-end proving wall time.
    pub total: Duration,
    /// Per-kernel-class times (Table 1 columns).
    pub breakdown: [(KernelClass, Duration); 5],
    /// Proof size in bytes.
    pub proof_bytes: usize,
    /// Rows actually proven.
    pub rows: usize,
}

impl CpuRun {
    /// The fraction of total time in one class.
    pub fn fraction(&self, class: KernelClass) -> f64 {
        let t = self
            .breakdown
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, d)| d.as_secs_f64())
            .unwrap_or(0.0);
        if self.total.as_secs_f64() == 0.0 {
            0.0
        } else {
            t / self.total.as_secs_f64()
        }
    }
}

/// Proves `app` at `scale` on the CPU with the given thread count
/// (`1` for Table 1 breakdowns, `0` = all cores for Table 3).
///
/// # Panics
///
/// Panics if the generated circuit fails to prove or verify — that would
/// be a bug, not a measurement.
pub fn run_cpu(app: App, scale: Scale, threads: usize) -> CpuRun {
    let (circuit, inputs) = app.build_circuit(scale);
    run_circuit(&circuit, &inputs, threads)
}

/// Proves a prebuilt circuit with kernel instrumentation.
///
/// # Panics
///
/// Panics if proving or verification fails.
pub fn run_circuit(
    circuit: &unizk_plonk::CircuitData,
    inputs: &[unizk_field::Goldilocks],
    threads: usize,
) -> CpuRun {
    let _measurement = measurement_lock();
    unizk_field::set_parallelism(threads);
    trace::reset();
    let start = Instant::now();
    let proof: Proof = trace::with_span(PROVE_SPAN, || circuit.prove(inputs))
        .expect("workload circuit must prove");
    let total = start.elapsed();
    unizk_field::set_parallelism(0);

    circuit.verify(&proof).expect("workload proof must verify");
    // Only this run's own subtree: code elsewhere in the process may prove
    // without the measurement lock, and its kernel spans merge into the
    // same trace store.
    let report = trace::snapshot();
    let measured = report.node(&[PROVE_SPAN]).expect("the prove span was just closed");
    CpuRun {
        total,
        breakdown: kernel_totals_from(&trace::TraceReport {
            roots: measured.children.clone(),
            counters: Vec::new(),
        }),
        proof_bytes: proof.size_bytes(),
        rows: circuit.rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accounts_for_most_of_the_time() {
        // Small instance; single thread, as in Table 1.
        let run = run_cpu(App::Fibonacci, Scale::Shrunk(60), 1);
        assert!(run.total > Duration::ZERO);
        let covered: f64 = KernelClass::ALL.iter().map(|&c| run.fraction(c)).sum();
        assert!(covered > 0.80, "timers cover {covered}");
        assert!(covered <= 1.05);
    }

    #[test]
    fn merkle_dominates_like_table1() {
        let run = run_cpu(App::Fibonacci, Scale::Shrunk(60), 1);
        let merkle = run.fraction(KernelClass::MerkleTree);
        let ntt = run.fraction(KernelClass::Ntt);
        // Table 1: Merkle ≈ 60–70%, NTT ≈ 15–22%.
        assert!(merkle > 0.3, "merkle fraction {merkle}");
        assert!(merkle > ntt, "merkle {merkle} vs ntt {ntt}");
    }
}
