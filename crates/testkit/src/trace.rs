//! Hierarchical span/counter tracing — the observability layer behind the
//! benchmark's per-layer rows and `CONTRACT.json`'s work counters.
//!
//! The paper's whole evaluation is a set of measured breakdowns (Table 1's
//! five kernel classes, Figs. 8–10's per-phase cycles). This module is the
//! instrument those numbers flow through: code regions open nested
//! [`Span`]s, hot loops bump named [`counter`]s, and a measurement harness
//! takes a [`snapshot`] and exports it as JSON or a flamegraph-style folded
//! text.
//!
//! # Design
//!
//! * **Scoped spans.** [`span`] returns an RAII guard; dropping it charges
//!   the elapsed wall time to the *path* of currently-open span names on
//!   this thread (`["stark.prove", "fri.commit", ...]`). Parent totals
//!   therefore include their children's time; a node's *self* time is
//!   `total − Σ children`.
//! * **Per-thread collectors.** Every thread accumulates into a
//!   thread-local store with no locking on the hot path. A collector merges
//!   into the process-global store when its thread exits (worker threads
//!   from `parallel_map`-style helpers) or when [`flush`]/[`snapshot`] run
//!   on that thread. Merging is monotonic — totals and counts only add —
//!   so concurrent workers aggregate correctly instead of racing on one
//!   global slot.
//! * **Cross-thread nesting.** A worker thread starts with an empty span
//!   stack. To attribute its spans under the spawning thread's open spans,
//!   capture a [`SpanHandle`] before spawning and [`SpanHandle::attach`] it
//!   inside the worker. Every `unizk_field::par` helper does this
//!   automatically (their one spawn site, `on_workers`).
//! * **Epoch-guarded reset.** [`reset`] starts a new measurement epoch:
//!   the global store is cleared and data from spans that were opened under
//!   an older epoch is discarded at merge time, so a stale worker can never
//!   leak pre-reset time into a fresh measurement.
//!
//! Snapshots only contain *closed* spans: take them after the measured
//! region has fully unwound.
//!
//! # Examples
//!
//! ```
//! use unizk_testkit::trace;
//!
//! trace::reset();
//! {
//!     let _prove = trace::span("prove");
//!     {
//!         let _ntt = trace::span("ntt");
//!         trace::counter("ntt.elements", 1024);
//!     }
//!     trace::with_span("hash", || {
//!         trace::counter("poseidon.permutations", 96);
//!     });
//! }
//! let report = trace::snapshot();
//! let prove = report.node(&["prove"]).expect("span recorded");
//! assert_eq!(prove.count, 1);
//! // Children's totals can never exceed the parent's.
//! assert!(prove.children.iter().map(|c| c.ns).sum::<u64>() <= prove.ns);
//! assert_eq!(report.counter("ntt.elements"), 1024);
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::json::{Json, ToJson};

/// A stack of span names, root first.
type Path = Vec<&'static str>;

/// Accumulated time and invocation count for one span path.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Total wall time in nanoseconds across all invocations.
    pub ns: u64,
    /// Number of times a span closed at this path.
    pub count: u64,
}

/// One collector's worth of measurements (per-thread or global).
#[derive(Debug, Default)]
struct Store {
    spans: BTreeMap<Path, SpanStat>,
    counters: BTreeMap<Cow<'static, str>, u64>,
}

impl Store {
    const fn new() -> Self {
        Self {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn add_span(&mut self, path: Path, ns: u64) {
        let stat = self.spans.entry(path).or_default();
        stat.ns += ns;
        stat.count += 1;
    }

    fn add_counter(&mut self, name: Cow<'static, str>, delta: u64) {
        if let Some(v) = self.counters.get_mut(name.as_ref()) {
            *v += delta;
        } else {
            self.counters.insert(name, delta);
        }
    }

    fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Monotonic merge: every total and count only grows.
    fn absorb(&mut self, other: Store) {
        for (path, stat) in other.spans {
            let slot = self.spans.entry(path).or_default();
            slot.ns += stat.ns;
            slot.count += stat.count;
        }
        for (name, delta) in other.counters {
            self.add_counter(name, delta);
        }
    }
}

/// The measurement epoch. [`reset`] bumps it; collectors stamped with an
/// older epoch discard their data instead of merging it.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static GLOBAL: Mutex<Store> = Mutex::new(Store::new());

fn global() -> MutexGuard<'static, Store> {
    GLOBAL.lock().expect("trace store mutex")
}

struct Local {
    epoch: u64,
    stack: Path,
    store: Store,
}

impl Local {
    /// Discards stale state if a [`reset`] happened since the last use.
    fn sync_epoch(&mut self) {
        let now = EPOCH.load(Ordering::SeqCst);
        if self.epoch != now {
            self.epoch = now;
            self.stack.clear();
            self.store = Store::default();
        }
    }

    fn flush_into_global(&mut self) {
        if self.store.is_empty() {
            return;
        }
        let store = std::mem::take(&mut self.store);
        // Epoch check under the global lock: `reset` also holds it while
        // bumping the epoch, so a stale collector can never slip pre-reset
        // data into a fresh epoch's store.
        let mut g = global();
        if self.epoch == EPOCH.load(Ordering::SeqCst) {
            g.absorb(store);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush_into_global();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        epoch: EPOCH.load(Ordering::SeqCst),
        stack: Vec::new(),
        store: Store::default(),
    });
}

fn with_local<T>(f: impl FnOnce(&mut Local) -> T) -> T {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.sync_epoch();
        f(&mut l)
    })
}

// ------------------------------------------------------------------ spans

/// An RAII guard for one timed region. Created by [`span`]; dropping it
/// charges the elapsed wall time to the current span path.
///
/// Spans are thread-bound (`!Send`): they must be dropped on the thread
/// that opened them, in LIFO order. Dropping a parent before its children
/// closes the forgotten children without charging them.
#[must_use = "a span measures nothing unless it is held for the region's duration"]
#[derive(Debug)]
pub struct Span {
    start: Instant,
    depth: usize,
    epoch: u64,
    _not_send: PhantomData<*const ()>,
}

/// Opens a named span on this thread and returns its guard.
///
/// # Examples
///
/// ```
/// use unizk_testkit::trace;
///
/// trace::reset();
/// {
///     let _guard = trace::span("outer");
///     let _inner = trace::span("inner"); // nests under "outer"
/// }
/// let report = trace::snapshot();
/// assert!(report.node(&["outer", "inner"]).is_some());
/// ```
pub fn span(name: &'static str) -> Span {
    let (depth, epoch) = with_local(|l| {
        l.stack.push(name);
        (l.stack.len() - 1, l.epoch)
    });
    Span {
        start: Instant::now(),
        depth,
        epoch,
        _not_send: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        with_local(|l| {
            // A reset between open and close discards the measurement.
            if self.epoch != l.epoch || l.stack.len() <= self.depth {
                return;
            }
            // Close any children the caller leaked, then charge this span.
            l.stack.truncate(self.depth + 1);
            let path = l.stack.clone();
            l.store.add_span(path, ns);
            l.stack.pop();
        });
    }
}

/// Runs `f` inside a span named `name` and returns its result.
pub fn with_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

// ---------------------------------------------------------------- counters

/// Adds `delta` to the named monotonic counter.
///
/// Counters are path-independent totals (e.g. `"poseidon.permutations"`),
/// merged by summation across threads — deterministic whenever the work
/// distribution is.
pub fn counter(name: &'static str, delta: u64) {
    with_local(|l| l.store.add_counter(Cow::Borrowed(name), delta));
}

/// [`counter`] for dynamically-built names (allocates; keep off hot paths).
pub fn counter_string(name: String, delta: u64) {
    with_local(|l| l.store.add_counter(Cow::Owned(name), delta));
}

// ------------------------------------------------------- handle / attach

/// A snapshot of one thread's open-span path, used to parent spans opened
/// on *other* threads (fork/join workers) under the capturing thread's
/// spans.
///
/// ```
/// use unizk_testkit::trace;
///
/// trace::reset();
/// {
///     let _outer = trace::span("commit");
///     let handle = trace::SpanHandle::current();
///     std::thread::scope(|s| {
///         s.spawn(move || {
///             let _ctx = handle.attach();
///             let _leaf = trace::span("hash_leaves"); // lands under "commit"
///         });
///     });
/// }
/// let report = trace::snapshot();
/// assert!(report.node(&["commit", "hash_leaves"]).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct SpanHandle {
    path: Path,
    epoch: u64,
}

impl SpanHandle {
    /// Captures the calling thread's current span path.
    pub fn current() -> Self {
        with_local(|l| SpanHandle {
            path: l.stack.clone(),
            epoch: l.epoch,
        })
    }

    /// Installs the captured path as this thread's span-stack prefix until
    /// the returned guard drops. A handle from a pre-[`reset`] epoch
    /// attaches nothing.
    pub fn attach(&self) -> AttachGuard {
        let (restore, epoch) = with_local(|l| {
            let restore = l.stack.len();
            if self.epoch == l.epoch {
                l.stack.extend_from_slice(&self.path);
            }
            (restore, l.epoch)
        });
        AttachGuard {
            restore,
            epoch,
            _not_send: PhantomData,
        }
    }
}

/// Guard returned by [`SpanHandle::attach`]; restores the thread's span
/// stack on drop.
#[must_use = "the inherited span path detaches as soon as this guard drops"]
#[derive(Debug)]
pub struct AttachGuard {
    restore: usize,
    epoch: u64,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        with_local(|l| {
            if self.epoch == l.epoch && l.stack.len() >= self.restore {
                l.stack.truncate(self.restore);
            }
            // Merge eagerly: a joiner (e.g. `thread::scope`) can observe the
            // worker as finished before its thread-local destructors run, so
            // waiting for the TLS flush would race a subsequent `snapshot`.
            l.flush_into_global();
        });
    }
}

// ------------------------------------------------------ reset / snapshot

/// Starts a fresh measurement epoch: clears all merged data and marks every
/// per-thread collector's pending data as stale (it is discarded rather
/// than merged). Call before a measured run.
pub fn reset() {
    {
        let mut g = global();
        EPOCH.fetch_add(1, Ordering::SeqCst);
        *g = Store::default();
    }
    with_local(|_| {}); // re-sync the calling thread immediately
}

/// Merges the calling thread's collector into the global store. Exited
/// threads flush automatically; call this on long-lived threads before a
/// [`snapshot`] taken elsewhere.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.sync_epoch();
        l.flush_into_global();
    });
}

/// Flushes the calling thread and returns the merged report of every span
/// closed and counter bumped since the last [`reset`].
pub fn snapshot() -> TraceReport {
    flush();
    let g = global();
    TraceReport::from_store(&g)
}

// ---------------------------------------------------------------- report

/// One node of the merged span tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceNode {
    /// Span name (one path component).
    pub name: String,
    /// Total nanoseconds across invocations, children included.
    pub ns: u64,
    /// Number of invocations. Zero for nodes that only exist as parents of
    /// recorded children (e.g. still open at snapshot time).
    pub count: u64,
    /// Child spans, sorted by name.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.ns)
    }

    /// Time spent in this span but not in any recorded child.
    pub fn self_ns(&self) -> u64 {
        self.ns
            .saturating_sub(self.children.iter().map(|c| c.ns).sum())
    }

    /// The child named `name`, if recorded.
    pub fn child(&self, name: &str) -> Option<&TraceNode> {
        self.children.iter().find(|c| c.name == name)
    }

    fn find_or_insert(&mut self, name: &str) -> &mut TraceNode {
        // Children stay sorted by name so exports are deterministic.
        match self.children.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => &mut self.children[i],
            Err(i) => {
                self.children.insert(
                    i,
                    TraceNode {
                        name: name.to_string(),
                        ..TraceNode::default()
                    },
                );
                &mut self.children[i]
            }
        }
    }
}

/// The merged, deterministic view of everything recorded since [`reset`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Top-level spans, sorted by name.
    pub roots: Vec<TraceNode>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl TraceReport {
    fn from_store(store: &Store) -> Self {
        // A dummy root makes insertion uniform; paths arrive sorted from
        // the BTreeMap, so parents are created before (or alongside) their
        // children.
        let mut root = TraceNode::default();
        for (path, stat) in &store.spans {
            let mut node = &mut root;
            for name in path {
                node = node.find_or_insert(name);
            }
            node.ns += stat.ns;
            node.count += stat.count;
        }
        TraceReport {
            roots: root.children,
            counters: store
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty() && self.counters.is_empty()
    }

    /// The node at `path` (root name first).
    pub fn node(&self, path: &[&str]) -> Option<&TraceNode> {
        let (first, rest) = path.split_first()?;
        let mut node = self.roots.iter().find(|n| n.name == *first)?;
        for name in rest {
            node = node.child(name)?;
        }
        Some(node)
    }

    /// Total nanoseconds recorded at `path` (zero when absent).
    pub fn total_ns(&self, path: &[&str]) -> u64 {
        self.node(path).map_or(0, |n| n.ns)
    }

    /// The value of a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Depth-first walk over every node; `f` receives the full path
    /// (ancestors first, the node's own name last) and the node.
    pub fn walk(&self, f: &mut impl FnMut(&[&str], &TraceNode)) {
        fn rec<'a>(
            node: &'a TraceNode,
            path: &mut Vec<&'a str>,
            f: &mut impl FnMut(&[&str], &TraceNode),
        ) {
            path.push(&node.name);
            f(path, node);
            for child in &node.children {
                rec(child, path, f);
            }
            path.pop();
        }
        let mut path = Vec::new();
        for root in &self.roots {
            rec(root, &mut path, f);
        }
    }

    /// Folded-stack flamegraph text: one `a;b;c <self_ns>` line per span
    /// with nonzero self time (the format `flamegraph.pl` and speedscope
    /// consume).
    pub fn flame_text(&self) -> String {
        let mut out = String::new();
        self.walk(&mut |path, node| {
            let self_ns = node.self_ns();
            if self_ns > 0 || (node.count > 0 && node.children.is_empty()) {
                out.push_str(&path.join(";"));
                out.push(' ');
                out.push_str(&self_ns.to_string());
                out.push('\n');
            }
        });
        out
    }

    /// Reconstructs a report from the JSON produced by
    /// [`ToJson::to_json`] — the round-trip used to diff two bench runs.
    pub fn from_json(json: &Json) -> Result<TraceReport, String> {
        let Json::Obj(pairs) = json else {
            return Err("trace report must be a JSON object".into());
        };
        let mut report = TraceReport::default();
        for (key, value) in pairs {
            match key.as_str() {
                "spans" => {
                    let Json::Arr(items) = value else {
                        return Err("\"spans\" must be an array".into());
                    };
                    report.roots = items
                        .iter()
                        .map(node_from_json)
                        .collect::<Result<_, _>>()?;
                }
                "counters" => {
                    let Json::Obj(entries) = value else {
                        return Err("\"counters\" must be an object".into());
                    };
                    report.counters = entries
                        .iter()
                        .map(|(name, v)| match v {
                            Json::UInt(n) => Ok((name.clone(), *n)),
                            other => Err(format!("counter {name:?} is not a u64: {other}")),
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown trace report key {other:?}")),
            }
        }
        Ok(report)
    }
}

fn node_from_json(json: &Json) -> Result<TraceNode, String> {
    let Json::Obj(pairs) = json else {
        return Err("span node must be a JSON object".into());
    };
    let mut node = TraceNode::default();
    for (key, value) in pairs {
        match (key.as_str(), value) {
            ("name", Json::Str(s)) => node.name = s.clone(),
            ("ns", Json::UInt(n)) => node.ns = *n,
            ("count", Json::UInt(n)) => node.count = *n,
            ("children", Json::Arr(items)) => {
                node.children = items
                    .iter()
                    .map(node_from_json)
                    .collect::<Result<_, _>>()?;
            }
            (other, v) => return Err(format!("unexpected span field {other:?}: {v}")),
        }
    }
    Ok(node)
}

impl ToJson for TraceNode {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("ns", Json::from(self.ns)),
            ("count", Json::from(self.count)),
            (
                "children",
                Json::arr(self.children.iter().map(ToJson::to_json)),
            ),
        ])
    }
}

impl ToJson for TraceReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("spans", Json::arr(self.roots.iter().map(ToJson::to_json))),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v))),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace store is process-global; tests that reset it must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn nested_spans_sum_to_parent_totals() {
        let _x = exclusive();
        reset();
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
                std::thread::sleep(Duration::from_millis(1));
            }
            let _other = span("other");
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = snapshot();
        let outer = report.node(&["outer"]).expect("outer recorded");
        assert_eq!(outer.count, 1);
        let inner = outer.child("inner").expect("inner recorded");
        assert_eq!(inner.count, 3);
        let children_ns: u64 = outer.children.iter().map(|c| c.ns).sum();
        assert!(
            children_ns <= outer.ns,
            "children {children_ns} exceed parent {}",
            outer.ns
        );
        assert!(outer.self_ns() <= outer.ns);
        assert!(inner.ns >= 3_000_000, "three 1 ms sleeps, got {} ns", inner.ns);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _x = exclusive();
        reset();
        counter("widgets", 2);
        counter("widgets", 3);
        counter_string("dyn.name".to_string(), 7);
        let report = snapshot();
        assert_eq!(report.counter("widgets"), 5);
        assert_eq!(report.counter("dyn.name"), 7);
        assert_eq!(report.counter("absent"), 0);
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn worker_threads_merge_under_attached_parent() {
        let _x = exclusive();
        reset();
        {
            let _outer = span("fanout");
            let handle = SpanHandle::current();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let handle = handle.clone();
                    scope.spawn(move || {
                        let _ctx = handle.attach();
                        let _leaf = span("work");
                        counter("work.items", 10);
                    });
                }
            });
        }
        let report = snapshot();
        let work = report.node(&["fanout", "work"]).expect("worker spans nested");
        assert_eq!(work.count, 4, "one span per worker");
        assert_eq!(report.counter("work.items"), 40, "counters sum across workers");
        assert!(report.node(&["work"]).is_none(), "no orphaned top-level span");
    }

    #[test]
    fn reset_discards_stale_spans_and_collectors() {
        let _x = exclusive();
        reset();
        {
            let _stale = span("stale");
            counter("stale.counter", 1);
            reset(); // mid-span reset: the open span must not record
        }
        counter("fresh", 1);
        let report = snapshot();
        assert!(report.node(&["stale"]).is_none());
        assert_eq!(report.counter("stale.counter"), 0);
        assert_eq!(report.counter("fresh"), 1);

        // A worker whose handle predates the reset attaches nothing but
        // still records (top-level) under the new epoch.
        reset();
        let old = {
            let _s = span("pre");
            SpanHandle::current()
        };
        reset();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ctx = old.attach();
                let _w = span("post");
            });
        });
        let report = snapshot();
        assert!(report.node(&["pre", "post"]).is_none());
        assert!(report.node(&["post"]).is_some());
    }

    #[test]
    fn leaked_children_are_closed_by_parent_drop() {
        let _x = exclusive();
        reset();
        {
            let outer = span("outer");
            let inner = span("inner");
            // Wrong drop order: parent first. The child must not corrupt
            // the stack or charge itself to a sibling path.
            drop(outer);
            drop(inner);
            let _next = span("next");
        }
        let report = snapshot();
        assert_eq!(report.node(&["outer"]).expect("outer").count, 1);
        assert!(report.node(&["next"]).is_some());
        assert!(report.node(&["outer", "next"]).is_none());
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let _x = exclusive();
        reset();
        {
            let _a = span("alpha");
            let _b = span("beta");
            counter("gamma", 123);
        }
        let report = snapshot();
        let text = report.to_json().to_string();
        let parsed = crate::json::parse(&text).expect("export parses");
        let back = TraceReport::from_json(&parsed).expect("report reconstructs");
        assert_eq!(back, report);

        // Pretty output parses to the same value too.
        let pretty = crate::json::parse(&report.to_json().to_string_pretty())
            .expect("pretty export parses");
        assert_eq!(TraceReport::from_json(&pretty).expect("reconstructs"), report);
    }

    #[test]
    fn flame_text_contains_folded_stacks() {
        let _x = exclusive();
        reset();
        {
            let _a = span("root");
            let _b = span("leaf");
        }
        let flame = snapshot().flame_text();
        assert!(flame.contains("root;leaf "), "{flame}");
        for line in flame.lines() {
            let (_, ns) = line.rsplit_split_once_helper();
            assert!(ns.parse::<u64>().is_ok(), "{line}");
        }
    }

    trait RSplitHelper {
        fn rsplit_split_once_helper(&self) -> (&str, &str);
    }

    impl RSplitHelper for str {
        fn rsplit_split_once_helper(&self) -> (&str, &str) {
            self.rsplit_once(' ').expect("line has a sample count")
        }
    }

    #[test]
    fn total_ns_and_walk_agree() {
        let _x = exclusive();
        reset();
        {
            let _a = span("w");
            let _b = span("x");
        }
        let report = snapshot();
        let mut walked = 0u64;
        report.walk(&mut |path, node| {
            if path == ["w", "x"] {
                walked = node.ns;
            }
        });
        assert_eq!(walked, report.total_ns(&["w", "x"]));
    }
}
