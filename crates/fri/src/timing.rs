//! Per-kernel wall-clock accounting for the CPU baseline, read from the
//! span tree of [`unizk_testkit::trace`].
//!
//! Table 1 of the paper breaks single-threaded Plonky2 proving time into
//! five kernel classes. The provers open one span per region and name it
//! for what it does (`batch.lde`, `merkle.build`, `fri.grind`, …); which
//! class a region belongs to is decided here only, by [`KernelClass::of_span`].
//! [`kernel_totals_from`] sums, for each class, only the **outermost**
//! classified spans: a classified span nested under another one (the
//! `merkle.build` inside a fold layer's `fri.fold_tree`, a worker's span
//! under its caller's) is already included in its ancestor's total and is
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

/// Every span a prover opens for a region of one Table 1 class. Phase
/// spans that hold regions of several classes (`stark.trace_commit`,
/// `stark.quotient`, `fri.prove`, …) are not listed: their classified
/// children are. A quotient is its evaluation over the LDE (Polynomial)
/// and one coset iNTT per round (NTT).
const SPAN_CLASSES: [(&str, KernelClass); 19] = [
    ("stark.trace_gen", KernelClass::Polynomial),
    ("stark.quotient_eval", KernelClass::Polynomial),
    ("stark.quotient_intt", KernelClass::Ntt),
    ("plonk.witness", KernelClass::Polynomial),
    ("plonk.permutation", KernelClass::Polynomial),
    ("plonk.quotient_eval", KernelClass::Polynomial),
    ("plonk.quotient_intt", KernelClass::Ntt),
    ("batch.intt", KernelClass::Ntt),
    ("batch.lde", KernelClass::Ntt),
    ("batch.leaves", KernelClass::LayoutTransform),
    ("merkle.build", KernelClass::MerkleTree),
    ("fri.open", KernelClass::Polynomial),
    ("fri.observe_openings", KernelClass::OtherHash),
    ("fri.combine", KernelClass::Polynomial),
    ("fri.fold_tree", KernelClass::MerkleTree),
    ("fri.fold", KernelClass::Polynomial),
    ("fri.final_poly", KernelClass::Polynomial),
    ("fri.grind", KernelClass::OtherHash),
    ("fri.query", KernelClass::LayoutTransform),
];

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

    /// The class of the region a span named `name` covers, or `None` for a
    /// span that is not one class's region (a root or phase span).
    pub fn of_span(name: &str) -> Option<KernelClass> {
        SPAN_CLASSES
            .iter()
            .find(|(span, _)| *span == name)
            .map(|&(_, class)| class)
    }
}

/// Accumulated time per kernel class in `report`, in Table 1 order.
///
/// Sums only *outermost* classified spans: a classified region nested
/// inside another one (however deep, and across `parallel_map` worker
/// threads) is part of its ancestor's wall time and is not double-counted.
pub fn kernel_totals_from(report: &trace::TraceReport) -> [(KernelClass, Duration); 5] {
    let mut ns = [0u64; 5];
    report.walk(&mut |path, node| {
        let Some(class) = KernelClass::of_span(&node.name) else {
            return;
        };
        let nested = path[..path.len() - 1]
            .iter()
            .any(|p| KernelClass::of_span(p).is_some());
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

    /// Other tests in this binary open classified spans concurrently
    /// (batch commits, prover tests), so these tests never assert on the
    /// *global* totals. Each wraps its work in a uniquely-named span and
    /// computes totals from that subtree only.
    fn subtree(root: &'static str) -> trace::TraceReport {
        let report = trace::snapshot();
        let node = report.node(&[root]).expect("test root span recorded");
        trace::TraceReport {
            roots: node.children.clone(),
            counters: Vec::new(),
        }
    }

    fn get(totals: &[(KernelClass, Duration); 5], class: KernelClass) -> Duration {
        totals
            .iter()
            .find(|(c, _)| *c == class)
            .expect("class row")
            .1
    }

    #[test]
    fn accumulates_and_resets() {
        let _x = exclusive();
        trace::with_span("test.timing_acc", || {
            trace::with_span("batch.lde", || std::thread::sleep(Duration::from_millis(2)));
            trace::with_span("batch.lde", || std::thread::sleep(Duration::from_millis(2)));
        });
        let totals = kernel_totals_from(&subtree("test.timing_acc"));
        assert!(get(&totals, KernelClass::Ntt) >= Duration::from_millis(4));
        trace::reset();
        // Nothing else in this binary uses this span name, so after reset
        // it must be gone from the global store.
        assert!(trace::snapshot().node(&["test.timing_acc"]).is_none());
    }

    #[test]
    fn class_names_match_table1() {
        assert_eq!(KernelClass::MerkleTree.name(), "Merkle Tree");
        for (i, (span, class)) in SPAN_CLASSES.iter().enumerate() {
            assert_eq!(KernelClass::of_span(span), Some(*class));
            assert!(
                SPAN_CLASSES[..i].iter().all(|(s, _)| s != span),
                "{span} listed twice"
            );
        }
        for class in KernelClass::ALL {
            assert!(
                SPAN_CLASSES.iter().any(|&(_, c)| c == class),
                "no span charged to {}",
                class.name()
            );
        }
        for phase in [
            "stark.prove",
            "stark.trace_commit",
            "plonk.prove",
            "fri.prove",
        ] {
            assert_eq!(KernelClass::of_span(phase), None);
        }
    }

    #[test]
    fn nested_kernel_regions_do_not_double_count() {
        let _x = exclusive();
        // A fold layer's tree: `fri.fold_tree` gathers the leaves and calls
        // the builder, which opens `merkle.build`. Both are Merkle Tree;
        // the class total is the outer span's time, not the sum of both.
        // A region of another class inside it folds into the outer one.
        trace::with_span("test.timing_nested", || {
            trace::with_span("fri.fold_tree", || {
                trace::with_span("merkle.build", || {
                    trace::with_span("fri.observe_openings", || {
                        std::thread::sleep(Duration::from_millis(2));
                    });
                });
            });
        });
        let report = subtree("test.timing_nested");
        let totals = kernel_totals_from(&report);
        let outer = report
            .node(&["fri.fold_tree"])
            .expect("outer span recorded");
        assert!(get(&totals, KernelClass::MerkleTree) >= Duration::from_millis(2));
        assert_eq!(get(&totals, KernelClass::MerkleTree), outer.total());
        assert_eq!(
            get(&totals, KernelClass::OtherHash),
            Duration::ZERO,
            "nested classified span must fold into its ancestor"
        );
    }

    #[test]
    fn worker_thread_regions_merge_without_double_count() {
        let _x = exclusive();
        // A batch's LDE fans its columns out with `parallel_map`, and each
        // worker opens a span of its own: the commit path's shape. The
        // workers' spans nest under the caller's, whatever the thread count.
        trace::with_span("test.timing_workers", || {
            trace::with_span("batch.lde", || {
                unizk_field::parallel_map(vec![(); 4], |()| {
                    trace::with_span("batch.lde", || std::thread::sleep(Duration::from_millis(2)));
                });
            });
        });
        let report = subtree("test.timing_workers");
        let outer = report.node(&["batch.lde"]).expect("outer span recorded");
        let inner = outer
            .child("batch.lde")
            .expect("worker spans nest under the caller's");
        assert_eq!(inner.count, 4);
        // Only the outermost span's wall time is charged, never outer +
        // 4 × inner.
        let totals = kernel_totals_from(&report);
        assert_eq!(get(&totals, KernelClass::Ntt), outer.total());
    }
}
