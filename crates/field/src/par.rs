//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! The CPU-baseline prover uses these to mirror the paper's multi-threaded
//! Plonky2 baseline (§6 uses 80 threads). A process-wide override supports
//! the single-threaded runs Table 1's breakdown methodology requires.
//!
//! The `parallel_*` helpers cut their input into one static chunk per
//! thread, which suits uniform work (field elements, butterflies, leaves).
//! [`run_indexed`] is the loop for a closed batch of *unequal* items — sweep
//! points, proving jobs: every worker claims the next unclaimed item, so
//! load balances at item granularity.
//!
//! Every helper is **trace-aware**: it captures the calling thread's
//! open [`unizk_testkit::trace`] span path and re-attaches it inside each
//! worker, so spans and counters recorded by workers aggregate under the
//! caller's spans (one merged total, no double counting) instead of
//! appearing as orphaned top-level entries.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use unizk_testkit::trace::SpanHandle;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces all [`parallel_map`] calls to use exactly `n` threads
/// (`0` restores the default of one thread per available core).
///
/// # Semantics
///
/// * The override is **process-global** and takes effect for calls that
///   *start* after the store; helpers already running keep the thread
///   count they latched at entry.
/// * `set_parallelism(1)` is the measurement mode: helpers run their
///   closure serially on the calling thread, so wall time equals CPU time
///   and kernel spans nest exactly as the call tree does. The Table 1
///   harness and `bench/baseline` both use it, matching the paper's
///   single-threaded breakdown methodology.
/// * The value is a worker-thread *cap*, not a floor — small inputs use
///   fewer threads (at most one item per worker).
///
/// # Examples
///
/// ```
/// use unizk_field::par::{current_parallelism, set_parallelism};
///
/// set_parallelism(2);
/// assert_eq!(current_parallelism(), 2);
/// set_parallelism(0); // back to one thread per available core
/// assert!(current_parallelism() >= 1);
/// ```
pub fn set_parallelism(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of worker threads [`parallel_map`] will use.
pub fn current_parallelism() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        forced
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Falls back to a plain serial map when one thread is configured or the
/// input is small. Worker threads inherit the caller's open trace-span
/// path (see the module docs), and their collectors merge into the global
/// trace store when the scope joins — so a snapshot taken after
/// `parallel_map` returns always includes the workers' spans and counters.
///
/// # Examples
///
/// ```
/// use unizk_field::par::parallel_map;
///
/// let squares = parallel_map((0u64..100).collect(), |x| x * x);
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 100);
/// ```
///
/// Trace counters bumped inside workers sum deterministically:
///
/// ```
/// use unizk_field::par::parallel_map;
/// use unizk_testkit::trace;
///
/// trace::reset();
/// let _ = parallel_map((0..32).collect::<Vec<u32>>(), |x| {
///     trace::counter("items", 1);
///     x
/// });
/// assert_eq!(trace::snapshot().counter("items"), 32);
/// ```
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = current_parallelism().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Split into owned chunks, one per worker, preserving order.
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }

    let span = SpanHandle::current();
    std::thread::scope(|scope| {
        let f = &f;
        let span = &span;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    let _trace_ctx = span.attach();
                    c.into_iter().map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    })
}

/// Runs `f(worker, index, item)` over a closed batch on up to `workers`
/// threads and returns the results in input order.
///
/// Every worker claims the next unclaimed item until none is left, so a
/// batch of unequal items (a 2^10-row point beside a 2^16-row one) keeps
/// all workers busy where the static chunks of [`parallel_map`] would
/// leave them idle behind the one that drew the expensive chunk. `worker`
/// is the claiming thread's index in `0..workers`, for per-worker state
/// the caller built up front; results are slotted by `index`, so the
/// output is the same whatever order items are claimed in.
///
/// The worker count is the argument, not [`current_parallelism`]: the
/// callers run one single-threaded unit of work per worker. With
/// `workers <= 1` (or at most one item) everything runs on the calling
/// thread as worker `0`. Workers inherit the caller's trace-span path,
/// exactly as in [`parallel_map`].
///
/// # Panics
///
/// A panic in `f` ends that worker; the others keep claiming until the
/// batch is drained, and the first panic propagates once all have joined.
/// On the calling thread it propagates at once.
///
/// # Examples
///
/// ```
/// use unizk_field::par::run_indexed;
///
/// let out = run_indexed(3, vec![10u64, 20, 30, 40], |worker, index, x| {
///     assert!(worker < 3);
///     x + index as u64
/// });
/// assert_eq!(out, vec![10, 21, 32, 43]);
/// ```
pub fn run_indexed<T, U, F>(workers: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(0, i, item))
            .collect();
    }

    let unclaimed = Mutex::new(items.into_iter().enumerate());
    // The lock is held for one `next()` only, never across `f`: a panicking
    // item cannot leave the iterator half-advanced.
    let claim = || {
        unclaimed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next()
    };
    // Each result is written once, in place, by the worker that claimed it;
    // like the claim, the store cannot panic with the lock held.
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let span = SpanHandle::current();
    let first_panic = std::thread::scope(|scope| {
        let (claim, slots, f, span) = (&claim, &slots, &f, &span);
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let _trace_ctx = span.attach();
                    while let Some((i, item)) = claim() {
                        let out = f(worker, i, item);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                    }
                })
            })
            .collect();
        // Join all before reporting: the other workers drain the batch.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined.into_iter().find_map(Result::err)
    });
    if let Some(panic) = first_panic {
        std::panic::resume_unwind(panic);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every item is claimed exactly once")
        })
        .collect()
}

/// Applies `f` to disjoint consecutive chunks of `values` in parallel.
///
/// `values` is cut into `chunk`-sized pieces (the last may be shorter); each
/// invocation receives the chunk's starting offset within `values` and a
/// mutable view of the chunk. Chunks are distributed contiguously over the
/// configured worker threads, and workers inherit the caller's trace-span
/// path exactly as in [`parallel_map`]. With one thread configured the
/// chunks are processed in order on the calling thread with zero dispatch
/// overhead — the property the in-place parallel NTT stages rely on to make
/// `set_parallelism(1)` a true serial-measurement mode.
///
/// # Panics
///
/// Panics if `chunk` is zero.
///
/// # Examples
///
/// ```
/// use unizk_field::par::parallel_chunks_mut;
///
/// let mut v: Vec<u64> = (0..100).collect();
/// parallel_chunks_mut(&mut v, 16, |offset, chunk| {
///     for (i, x) in chunk.iter_mut().enumerate() {
///         *x += (offset + i) as u64; // every element doubled
///     }
/// });
/// assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
/// ```
pub fn parallel_chunks_mut<T, F>(values: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let threads = current_parallelism();
    if threads <= 1 || values.len() <= chunk {
        let mut start = 0;
        for c in values.chunks_mut(chunk) {
            let len = c.len();
            f(start, c);
            start += len;
        }
        return;
    }

    let mut chunks: Vec<(usize, &mut [T])> = Vec::new();
    let mut start = 0;
    for c in values.chunks_mut(chunk) {
        let len = c.len();
        chunks.push((start, c));
        start += len;
    }
    let per_worker = chunks.len().div_ceil(threads);
    let span = SpanHandle::current();
    std::thread::scope(|scope| {
        let f = &f;
        let span = &span;
        let mut it = chunks.into_iter();
        loop {
            let group: Vec<(usize, &mut [T])> = it.by_ref().take(per_worker).collect();
            if group.is_empty() {
                break;
            }
            scope.spawn(move || {
                let _trace_ctx = span.attach();
                for (offset, c) in group {
                    f(offset, c);
                }
            });
        }
    });
}

/// Processes two equal-length slices as aligned chunk pairs in parallel:
/// `f(offset, a_chunk, b_chunk)` where both chunks cover
/// `offset..offset + chunk` of their slice.
///
/// This is the safe decomposition of a butterfly stage whose blocks straddle
/// worker segments: the caller splits the block into its low and high
/// halves, and each worker owns one aligned window of both halves. Same
/// dispatch, trace-propagation, and serial-fallback behavior as
/// [`parallel_chunks_mut`].
///
/// # Panics
///
/// Panics if the slices differ in length or `chunk` is zero.
pub fn parallel_zip_mut<T, F>(a: &mut [T], b: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T]) + Sync,
{
    assert_eq!(a.len(), b.len(), "parallel_zip_mut slices must match");
    assert!(chunk > 0, "chunk size must be positive");
    let threads = current_parallelism();
    if threads <= 1 || a.len() <= chunk {
        f(0, a, b);
        return;
    }

    let pairs: Vec<(usize, &mut [T], &mut [T])> = a
        .chunks_mut(chunk)
        .zip(b.chunks_mut(chunk))
        .scan(0, |start, (ca, cb)| {
            let offset = *start;
            *start += ca.len();
            Some((offset, ca, cb))
        })
        .collect();
    let per_worker = pairs.len().div_ceil(threads);
    let span = SpanHandle::current();
    std::thread::scope(|scope| {
        let f = &f;
        let span = &span;
        let mut it = pairs.into_iter();
        loop {
            let group: Vec<(usize, &mut [T], &mut [T])> = it.by_ref().take(per_worker).collect();
            if group.is_empty() {
                break;
            }
            scope.spawn(move || {
                let _trace_ctx = span.attach();
                for (offset, ca, cb) in group {
                    f(offset, ca, cb);
                }
            });
        }
    });
}

/// Finds the first block index `k` (in ascending order) for which
/// `f(k)` returns `Some`, and returns that `Some`.
///
/// This is the deterministic search primitive behind the FRI grind: the
/// result is the answer of the **lowest-indexed** successful block, no
/// matter how many threads raced. The workers are spawned once; each
/// claims the next unclaimed block index from a shared counter, stops at
/// its first hit (its later claims would only be higher), and stops
/// claiming once a block below its next claim has hit. Every block below
/// the lowest successful one is therefore evaluated, that one is too, and
/// the lowest hit among the workers is the answer — so every parallelism
/// setting (including the serial fallback) agrees bit-for-bit. Blocks past
/// the first success may still be *evaluated* (speculative overshoot, at
/// most one block per worker); callers whose `f` has side effects must
/// make them idempotent or account for the overshoot themselves.
///
/// `f` must return `Some` for some `k` — the search runs unboundedly
/// upward, mirroring a `loop` over a serial scan.
///
/// Workers inherit the caller's trace-span path, exactly as in
/// [`parallel_map`].
///
/// # Examples
///
/// ```
/// use unizk_field::par::parallel_first_block;
///
/// // First block whose index squares past 50, regardless of thread count.
/// let hit = parallel_first_block(|k| if k * k >= 50 { Some(k) } else { None });
/// assert_eq!(hit, 8);
/// ```
pub fn parallel_first_block<U, F>(f: F) -> U
where
    U: Send,
    F: Fn(usize) -> Option<U> + Sync,
{
    let threads = current_parallelism();
    if threads <= 1 {
        return (0..)
            .find_map(f)
            .expect("unbounded search cannot exhaust usize");
    }
    let next_block = AtomicUsize::new(0);
    let lowest_hit = AtomicUsize::new(usize::MAX);
    let span = SpanHandle::current();
    let worker = || {
        let _trace_ctx = span.attach();
        loop {
            let k = next_block.fetch_add(1, Ordering::SeqCst);
            if k > lowest_hit.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(hit) = f(k) {
                lowest_hit.fetch_min(k, Ordering::SeqCst);
                return Some((k, hit));
            }
        }
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        workers
            .into_iter()
            .filter_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .min_by_key(|&(k, _)| k)
            .map(|(_, hit)| hit)
            .expect("the lowest successful block is always claimed and evaluated")
    })
}

/// Runs `f(start, end)` over disjoint subranges of `0..n` in parallel.
///
/// Workers inherit the caller's trace-span path, exactly as in
/// [`parallel_map`].
pub fn parallel_ranges<F>(n: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = current_parallelism();
    if threads <= 1 || n < 2 {
        f(0, n);
        return;
    }
    let chunk = n.div_ceil(threads);
    let span = SpanHandle::current();
    std::thread::scope(|scope| {
        let f = &f;
        let span = &span;
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            scope.spawn(move || {
                let _trace_ctx = span.attach();
                f(start, end);
            });
            start = end;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(items, |x| x * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 2);
        }
    }

    #[test]
    fn parallel_map_with_allocations() {
        // Non-Copy payloads exercise the move-out path.
        let items: Vec<Vec<u64>> = (0..64).map(|i| vec![i; 10]).collect();
        let out = parallel_map(items, |v| v.iter().sum::<u64>());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 10);
        }
    }

    #[test]
    fn serial_override() {
        set_parallelism(1);
        assert_eq!(current_parallelism(), 1);
        let out = parallel_map(vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        set_parallelism(0);
    }

    #[test]
    fn parallel_ranges_covers_everything() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits = AtomicU64::new(0);
        parallel_ranges(1001, |s, e| {
            hits.fetch_add((e - s) as u64, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1001);
    }

    #[test]
    fn first_block_deterministic_across_parallelism() {
        // The qualifying predicate has many hits; the lowest block must win
        // under every thread count.
        for threads in [1usize, 2, 3, 5, 8] {
            set_parallelism(threads);
            let hit = parallel_first_block(|k| if k >= 13 { Some(k) } else { None });
            assert_eq!(hit, 13, "threads={threads}");
        }
        set_parallelism(0);
        let hit = parallel_first_block(|k| if k >= 13 { Some(k) } else { None });
        assert_eq!(hit, 13, "default parallelism");
    }

    #[test]
    fn first_block_is_the_lowest_of_two_concurrent_hits() {
        // Blocks 5 and 6 both hit, and neither returns before the other is
        // being evaluated: two workers hold a hit at once, and the higher
        // one may well report first. The answer is block 5 regardless.
        for threads in [2usize, 3, 8] {
            set_parallelism(threads);
            let both_running = std::sync::Barrier::new(2);
            let hit = parallel_first_block(|k| {
                (k == 5 || k == 6).then(|| {
                    both_running.wait();
                    k * 100
                })
            });
            assert_eq!(hit, 500, "threads={threads}");
        }
        set_parallelism(0);
    }

    #[test]
    fn first_block_immediate_hit() {
        set_parallelism(4);
        let hit = parallel_first_block(|k| Some(k * 10));
        assert_eq!(hit, 0);
        set_parallelism(0);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_mut_covers_all_offsets() {
        for n in [0usize, 1, 7, 64, 1000] {
            let mut v = vec![0u64; n];
            parallel_chunks_mut(&mut v, 13, |offset, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = (offset + i) as u64;
                }
            });
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, i as u64, "n={n}");
            }
        }
    }

    #[test]
    fn zip_mut_windows_stay_aligned() {
        let mut a: Vec<u64> = (0..500).collect();
        let mut b: Vec<u64> = (1000..1500).collect();
        parallel_zip_mut(&mut a, &mut b, 37, |offset, ca, cb| {
            assert_eq!(ca.len(), cb.len());
            for (i, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                assert_eq!(*y - *x, 1000, "offset={offset} i={i}");
                core::mem::swap(x, y);
            }
        });
        assert_eq!(a[0], 1000);
        assert_eq!(b[499], 499);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn zip_mut_rejects_length_mismatch() {
        let mut a = [0u8; 3];
        let mut b = [0u8; 4];
        parallel_zip_mut(&mut a, &mut b, 1, |_, _, _| {});
    }

    #[test]
    fn run_indexed_preserves_order_under_parallelism() {
        let items: Vec<u64> = (0..257).collect();
        let out = run_indexed(8, items, |_, i, x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 3);
        }
    }

    #[test]
    fn run_indexed_serial_and_parallel_agree() {
        let serial = run_indexed(1, (0u64..64).collect(), |_, _, x| x * x);
        let parallel = run_indexed(6, (0u64..64).collect(), |_, _, x| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_indexed_unbalanced_work_completes() {
        // One expensive item plus many cheap ones: all must finish, each
        // claimed exactly once, by a worker inside the requested range.
        let claims: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        let out = run_indexed(4, (0u64..32).collect(), |worker, i, x| {
            assert!(worker < 4, "worker {worker} of 4");
            claims[i].fetch_add(1, Ordering::SeqCst);
            if x == 0 {
                (0..200_000u64).sum::<u64>() + x
            } else {
                x
            }
        });
        assert_eq!(out[0], (0..200_000u64).sum::<u64>());
        assert_eq!(out[31], 31);
        assert!(claims.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn run_indexed_empty_input() {
        let out: Vec<u32> = run_indexed(4, Vec::<u32>::new(), |_, _, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn run_indexed_trace_counters_flow_through_workers() {
        use unizk_testkit::trace;
        trace::reset();
        let _ = run_indexed(4, (0..16).collect::<Vec<u32>>(), |_, _, x| {
            trace::counter("run_indexed.test_items", 1);
            x
        });
        assert_eq!(trace::snapshot().counter("run_indexed.test_items"), 16);
    }

    #[test]
    fn run_indexed_panic_propagates_after_the_batch_is_drained() {
        // Item 0 panics on whichever worker claims it; the other three
        // workers must still finish all 63 remaining items before the
        // panic (with its own message) reaches the caller.
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(4, (0u32..64).collect(), |_, _, x| {
                assert!(x != 0, "item {x} fails");
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let message = caught.expect_err("the item's panic propagates");
        assert!(message
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("item 0 fails")));
        assert_eq!(finished.load(Ordering::SeqCst), 63);
    }

    #[test]
    fn run_indexed_zero_or_one_worker_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for workers in [0, 1] {
            let out = run_indexed(workers, vec![(); 5], |worker, _, ()| {
                assert_eq!(worker, 0);
                std::thread::current().id()
            });
            assert_eq!(out, vec![caller; 5], "workers={workers}");
        }
    }
}
