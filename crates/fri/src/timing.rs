//! Per-kernel wall-clock accounting for the CPU baseline — a thin shim
//! over [`unizk_testkit::trace`].
//!
//! Table 1 of the paper breaks single-threaded Plonky2 proving time into
//! five kernel classes; the prover stack wraps each code region in a
//! [`time_kernel`] guard so the same breakdown can be reproduced here.
//!
//! Historically this module kept its own process-global `Mutex<[Duration;
//! 5]>`, which double-counted when a `time_kernel` region ran *inside*
//! another one on a `parallel_map` worker (both the outer region and each
//! worker's inner region charged the globals). It is now a façade over the
//! testkit's span tracing: `time_kernel(class, f)` opens a span named
//! `kernel:<class>`, and [`kernel_totals_from`] sums, for each class, only
//! the **outermost** `kernel:*` spans — a kernel span nested under another
//! kernel span (e.g. per-worker NTTs inside a committed batch's
//! `Polynomial` region) is already included in its ancestor's total and is
//! not counted again.

use std::time::Duration;

use unizk_testkit::trace;

/// The kernel classes of Table 1 (and Figs. 8–9).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Element-wise and miscellaneous polynomial computation.
    Polynomial,
    /// Forward/inverse NTTs, including LDE transforms.
    Ntt,
    /// Merkle tree construction (leaf + interior hashing).
    MerkleTree,
    /// Hashing outside Merkle trees: Fiat–Shamir duplexing, grinding.
    OtherHash,
    /// Data layout transformations (transposes, leaf gathering).
    LayoutTransform,
}

impl KernelClass {
    /// All classes, in Table 1's column order.
    pub const ALL: [KernelClass; 5] = [
        KernelClass::Polynomial,
        KernelClass::Ntt,
        KernelClass::MerkleTree,
        KernelClass::OtherHash,
        KernelClass::LayoutTransform,
    ];

    /// The Table 1 column header.
    pub fn name(&self) -> &'static str {
        match self {
            KernelClass::Polynomial => "Polynomial",
            KernelClass::Ntt => "NTT",
            KernelClass::MerkleTree => "Merkle Tree",
            KernelClass::OtherHash => "Other Hash",
            KernelClass::LayoutTransform => "Layout Transform",
        }
    }

    /// The span name this class records under in the trace tree
    /// (`"kernel:<Table-1 name>"`).
    pub fn span_name(&self) -> &'static str {
        match self {
            KernelClass::Polynomial => "kernel:Polynomial",
            KernelClass::Ntt => "kernel:NTT",
            KernelClass::MerkleTree => "kernel:Merkle Tree",
            KernelClass::OtherHash => "kernel:Other Hash",
            KernelClass::LayoutTransform => "kernel:Layout Transform",
        }
    }

    /// The inverse of [`span_name`](Self::span_name).
    pub fn from_span_name(name: &str) -> Option<KernelClass> {
        KernelClass::ALL.into_iter().find(|c| c.span_name() == name)
    }
}

/// Accumulated time per kernel class in `report`, in Table 1 order.
///
/// Sums only *outermost* `kernel:*` spans: a kernel region nested inside
/// another kernel region (however deep, and across `parallel_map` worker
/// threads) is part of its ancestor's wall time and is not double-counted.
pub fn kernel_totals_from(report: &trace::TraceReport) -> [(KernelClass, Duration); 5] {
    let mut ns = [0u64; 5];
    report.walk(&mut |path, node| {
        let Some(class) = KernelClass::from_span_name(&node.name) else {
            return;
        };
        let nested = path[..path.len() - 1]
            .iter()
            .any(|p| KernelClass::from_span_name(p).is_some());
        if !nested {
            let index = KernelClass::ALL
                .iter()
                .position(|c| *c == class)
                .expect("class in ALL");
            ns[index] += node.ns;
        }
    });
    let mut out = [(KernelClass::Polynomial, Duration::ZERO); 5];
    for (i, (slot, class)) in out.iter_mut().zip(KernelClass::ALL).enumerate() {
        *slot = (class, Duration::from_nanos(ns[i]));
    }
    out
}

/// Times `f`, charging its wall-clock duration to `class`.
///
/// Safe to nest (inner kernel regions are absorbed into the outermost
/// one's total) and safe to call from `parallel_map` workers (per-thread
/// collectors merge on worker exit — see `unizk_testkit::trace`).
pub fn time_kernel<T>(class: KernelClass, f: impl FnOnce() -> T) -> T {
    trace::with_span(class.span_name(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `accumulates_and_resets` resets the global trace store, which would
    /// discard a sibling test's in-flight spans — so the trace-sensitive
    /// tests serialize on this lock.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Other tests in this binary open `kernel:*` spans concurrently
    /// (batch commits, prover tests), so these tests never assert on the
    /// *global* totals. Each wraps its work in a uniquely-named span and
    /// computes totals from that subtree only.
    fn subtree_totals(root: &'static str) -> [(KernelClass, Duration); 5] {
        let report = trace::snapshot();
        let node = report.node(&[root]).expect("test root span recorded");
        kernel_totals_from(&trace::TraceReport {
            roots: node.children.clone(),
            counters: Vec::new(),
        })
    }

    fn get(totals: &[(KernelClass, Duration); 5], class: KernelClass) -> Duration {
        totals.iter().find(|(c, _)| *c == class).expect("class row").1
    }

    #[test]
    fn accumulates_and_resets() {
        let _x = exclusive();
        trace::with_span("test.timing_acc", || {
            time_kernel(KernelClass::Ntt, || std::thread::sleep(Duration::from_millis(2)));
            time_kernel(KernelClass::Ntt, || std::thread::sleep(Duration::from_millis(2)));
        });
        let totals = subtree_totals("test.timing_acc");
        assert!(get(&totals, KernelClass::Ntt) >= Duration::from_millis(4));
        trace::reset();
        // Nothing else in this binary uses this span name, so after reset
        // it must be gone from the global store.
        assert!(trace::snapshot().node(&["test.timing_acc"]).is_none());
    }

    #[test]
    fn returns_closure_value() {
        assert_eq!(time_kernel(KernelClass::Polynomial, || 7), 7);
    }

    #[test]
    fn class_names_match_table1() {
        assert_eq!(KernelClass::ALL.len(), 5);
        assert_eq!(KernelClass::MerkleTree.name(), "Merkle Tree");
        for class in KernelClass::ALL {
            assert_eq!(KernelClass::from_span_name(class.span_name()), Some(class));
            assert_eq!(class.span_name(), format!("kernel:{}", class.name()));
        }
        assert_eq!(KernelClass::from_span_name("stark.prove"), None);
    }

    #[test]
    fn nested_kernel_regions_do_not_double_count() {
        let _x = exclusive();
        // The old Mutex timers charged 2 ms to MerkleTree *and* 2 ms to the
        // nested OtherHash region, so the per-class sum exceeded wall time.
        trace::with_span("test.timing_nested", || {
            time_kernel(KernelClass::MerkleTree, || {
                time_kernel(KernelClass::OtherHash, || {
                    std::thread::sleep(Duration::from_millis(2));
                });
            });
        });
        let totals = subtree_totals("test.timing_nested");
        assert!(get(&totals, KernelClass::MerkleTree) >= Duration::from_millis(2));
        assert_eq!(
            get(&totals, KernelClass::OtherHash),
            Duration::ZERO,
            "nested kernel span must fold into its ancestor"
        );
    }

    #[test]
    fn worker_thread_regions_merge_without_double_count() {
        let _x = exclusive();
        // An outer kernel region fans out to workers that open their own
        // kernel regions — the paper's commit path shape. With handle
        // attachment the workers' spans nest under the outer one.
        trace::with_span("test.timing_workers", || {
            time_kernel(KernelClass::Ntt, || {
                let handle = trace::SpanHandle::current();
                std::thread::scope(|scope| {
                    for _ in 0..4 {
                        let handle = handle.clone();
                        scope.spawn(move || {
                            let _ctx = handle.attach();
                            time_kernel(KernelClass::Ntt, || {
                                std::thread::sleep(Duration::from_millis(2));
                            });
                        });
                    }
                });
            });
        });
        let totals = subtree_totals("test.timing_workers");
        let ntt = get(&totals, KernelClass::Ntt);
        // Outermost span's wall time only: ~2 ms (workers run in parallel),
        // never the old behavior's outer + 4 × inner ≈ 10 ms.
        assert!(ntt >= Duration::from_millis(2));
        assert!(ntt < Duration::from_millis(9), "workers double-counted: {ntt:?}");

        // The workers' spans are recorded, nested under the outer one.
        let report = trace::snapshot();
        let inner = report
            .node(&["test.timing_workers", "kernel:NTT", "kernel:NTT"])
            .expect("worker spans nest under the outer kernel span");
        assert_eq!(inner.count, 4);
    }
}
