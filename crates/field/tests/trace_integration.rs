//! Trace-layer integration with the fork/join primitives: spans opened by
//! the workers of every helper must aggregate under the caller's open span,
//! and counters must merge deterministically regardless of thread count.

use std::sync::{Mutex, PoisonError};

use unizk_field::{
    parallel_chunks_mut, parallel_first_block, parallel_map, parallel_ranges, run_indexed,
    set_parallelism,
};
use unizk_testkit::trace;

/// Runs `f` under a uniquely-named wrapper span and returns that span's
/// subtree from a fresh snapshot. Assertions go through the subtree so
/// concurrently-running tests (which share the process-global trace store)
/// cannot interfere.
fn under_span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, trace::TraceNode) {
    let out = {
        let _s = trace::span(name);
        f()
    };
    trace::flush();
    let report = trace::snapshot();
    let node = report
        .node(&[name])
        .unwrap_or_else(|| panic!("wrapper span {name} missing from snapshot"))
        .clone();
    (out, node)
}

#[test]
fn worker_spans_nest_under_caller() {
    let items: Vec<u64> = (0..64).collect();
    let (_, node) = under_span("field_test.nest", || {
        parallel_map(items.clone(), |x| {
            let _inner = trace::span("field_test.worker");
            x * 2
        })
    });
    let worker = node
        .child("field_test.worker")
        .expect("worker spans must merge under the caller's span");
    assert_eq!(worker.count, 64, "one span entry per item");
    assert!(worker.ns <= node.ns, "children cannot exceed the parent");
}

#[test]
fn counters_merge_deterministically_across_thread_counts() {
    let items: Vec<u64> = (0..97).collect();
    let count_under = |threads: usize, tag: &'static str| {
        set_parallelism(threads);
        let ((), _node) = under_span(tag, || {
            parallel_map(items.clone(), |x| {
                trace::counter("field_test.items", 1);
                trace::counter("field_test.sum", x);
            });
        });
        set_parallelism(0);
    };
    let baseline = trace::snapshot();
    count_under(1, "field_test.counters_seq");
    count_under(4, "field_test.counters_par");
    let after = trace::snapshot();
    // Counters are global and monotonic; the two runs added identical
    // amounts, so the delta is exactly twice one run's contribution.
    let delta = |name: &str| after.counter(name) - baseline.counter(name);
    assert_eq!(delta("field_test.items"), 2 * 97);
    assert_eq!(delta("field_test.sum"), 2 * (0..97).sum::<u64>());
}

/// One item of a 64-item batch: a `field_test.item` span and one
/// `field_test.helper_items` count.
fn item(_: usize) {
    let _item = trace::span("field_test.item");
    trace::counter("field_test.helper_items", 1);
}

fn items(offset: usize, len: usize) {
    (offset..offset + len).for_each(item);
}

/// Runs `helper` at four threads under the wrapper span `name` and
/// requires one [`item`] span under it, and one count, per item. Callers
/// take turns: the count is a process-global counter.
fn reports_every_item(name: &'static str, helper: impl FnOnce()) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    set_parallelism(4);
    let before = trace::snapshot().counter("field_test.helper_items");
    let ((), node) = under_span(name, helper);
    set_parallelism(0);
    let spans = node.child("field_test.item").map(|item| item.count);
    assert_eq!(spans, Some(64), "{name}: worker spans under the caller");
    let counted = trace::snapshot().counter("field_test.helper_items") - before;
    assert_eq!(counted, 64, "{name}: worker counters");
}

#[test]
fn parallel_ranges_inherits_span_context() {
    reports_every_item("field_test.ranges", || {
        parallel_ranges(64, 1, |r| items(r.start, r.len()));
    });
}

#[test]
fn every_helpers_workers_report_under_the_caller() {
    let mut a = [0u8; 64];
    reports_every_item("field_test.every.map", || {
        parallel_map((0..64).collect(), item);
    });
    reports_every_item("field_test.every.chunks", || {
        parallel_chunks_mut(&mut a, 1, |o, p| items(o, p.len()));
    });
    reports_every_item("field_test.every.indexed", || {
        run_indexed(4, (0..64).collect(), |_, _, i| item(i));
    });
    reports_every_item("field_test.every.first_block", || {
        parallel_first_block(|k| {
            if k < 64 {
                item(k);
            }
            (k >= 63).then_some(k)
        });
    });
}
