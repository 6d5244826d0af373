//! Data-parallel helpers: one static split and one worker loop.
//!
//! The CPU-baseline prover uses these to mirror the paper's multi-threaded
//! Plonky2 baseline (§6 uses 80 threads). A process-wide override supports
//! the single-threaded runs Table 1's breakdown methodology requires.
//!
//! Every helper is built on two private functions:
//!
//! * **Pieces**, the one static split, for index spaces. A caller names
//!   its work as a length and a *grain*: the run of positions no piece may
//!   cut (1 for independent positions, 128 leaves for a Merkle level, one
//!   segment for an NTT). Of the `ceil(len / grain)` grains, each piece
//!   takes `ceil(grains / threads)` in order, so there are at most
//!   [`current_parallelism`] pieces, and one when there is one thread or
//!   one grain. [`parallel_ranges`], [`parallel_chunks_mut`],
//!   [`parallel_zip_mut`] and [`parallel_columns_mut`] hand their closure
//!   one piece per call.
//! * **Workers**, the one spawn site. A single input runs on the calling
//!   thread with no dispatch, so `set_parallelism(1)` is a true serial
//!   mode. Otherwise each input gets a scoped thread: a piece, or for item
//!   lists a claim loop that takes the next unclaimed item until none is
//!   left ([`run_indexed`], and [`parallel_map`] on it), so items of
//!   unequal cost keep every worker busy; or one group of items per worker,
//!   dealt by weight up front ([`parallel_groups`]), for items that run
//!   faster together than one by one. [`parallel_first_block`] claims
//!   blocks of an unbounded search the same way.
//!
//! Every worker re-attaches the caller's open [`unizk_testkit::trace`] span
//! path, so spans and counters recorded by workers aggregate under the
//! caller's spans (one merged total, no double counting) instead of
//! appearing as orphaned top-level entries. Their collectors merge when the
//! workers join, so a snapshot taken after a helper returns is complete.
//!
//! # Panics
//!
//! A panic in a closure reaches the caller with its own payload, at every
//! thread count: all workers are joined first, then the payload of the
//! first panicking piece (or claim loop) is re-raised unchanged.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use unizk_testkit::trace::SpanHandle;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every helper but [`run_indexed`] (whose worker count is an
/// argument) to use at most `n` threads (`0` restores the default of one
/// thread per available core).
///
/// # Semantics
///
/// * The override is **process-global** and takes effect for calls that
///   *start* after the store; helpers already running keep the thread
///   count they latched at entry.
/// * `set_parallelism(1)` is the measurement mode: helpers run their
///   closure serially on the calling thread, so wall time equals CPU time
///   and kernel spans nest exactly as the call tree does. The Table 1
///   harness and the benchmark's single-threaded rows use it, matching the
///   paper's single-threaded breakdown methodology.
/// * The value is a worker-thread *cap*, not a floor: work of fewer grains
///   uses fewer threads.
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

/// The number of worker threads the helpers cut their work for.
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

/// The one static split: `0..len` in runs of `ceil(grains / threads)`
/// whole grains, the last run cut at `len`. Empty for `len == 0`.
fn pieces(len: usize, grain: usize, threads: usize) -> Vec<Range<usize>> {
    assert!(grain > 0, "grain must be positive");
    let step = len.div_ceil(grain).div_ceil(threads.max(1)).max(1) * grain;
    (0..len)
        .step_by(step)
        .map(|start| start..len.min(start + step))
        .collect()
}

/// `values` cut at the boundaries of `pieces`, each slice with its offset.
fn cut<'a, T>(mut values: &'a mut [T], pieces: &[Range<usize>]) -> Vec<(usize, &'a mut [T])> {
    pieces
        .iter()
        .map(|piece| {
            let (head, tail) = std::mem::take(&mut values).split_at_mut(piece.len());
            values = tail;
            (piece.start, head)
        })
        .collect()
}

/// The one worker loop: `f` over `inputs`, results in input order. One
/// input runs on the calling thread; more get one scoped thread each, in
/// the caller's trace-span path. All are joined before the first panic
/// payload, in input order, is re-raised unchanged.
fn on_workers<I: Send, R: Send>(inputs: Vec<I>, f: impl Fn(I) -> R + Sync) -> Vec<R> {
    if inputs.len() <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let (f, span) = (&f, &SpanHandle::current());
    let joined: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = inputs
            .into_iter()
            .map(|input| {
                scope.spawn(move || {
                    let _trace_ctx = span.attach();
                    f(input)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        .collect()
}

/// Maps `f` over `items` on [`current_parallelism`] threads, preserving
/// order: [`run_indexed`]'s claim loop, one item per claim, so a list of
/// unequal items balances.
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
    run_indexed(current_parallelism(), items, |_, _, item| f(item))
}

/// Runs `f` once per group of the items `0..weights.len()`, one group per
/// worker of [`current_parallelism`], and returns one result per item, in
/// item order.
///
/// Items are dealt heaviest first (equal weights in index order) to the
/// group of least total weight so far, so unequal items balance with one
/// call of `f` per worker where [`parallel_map`] would make one per item.
/// `f` gets its group's item indices in ascending order and must return
/// one result per index, in that order. One thread, or one item, makes one
/// group on the calling thread.
///
/// # Panics
///
/// Panics if `f` returns a different number of results than it was given
/// items.
///
/// # Examples
///
/// ```
/// use unizk_field::par::parallel_groups;
///
/// let weights = [5, 1, 3, 3];
/// let doubled = parallel_groups(&weights, |items| {
///     items.iter().map(|&i| 2 * weights[i]).collect()
/// });
/// assert_eq!(doubled, vec![10, 2, 6, 6]);
/// ```
pub fn parallel_groups<U, F>(weights: &[usize], f: F) -> Vec<U>
where
    U: Send,
    F: Fn(&[usize]) -> Vec<U> + Sync,
{
    let groups = deal(weights, current_parallelism());
    let results = on_workers(groups.iter().map(Vec::as_slice).collect(), |items| {
        let out = f(items);
        assert_eq!(out.len(), items.len(), "one result per item of the group");
        out
    });
    let mut slots: Vec<Option<U>> = weights.iter().map(|_| None).collect();
    for (items, out) in groups.iter().zip(results) {
        for (&i, u) in items.iter().zip(out) {
            slots[i] = Some(u);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item is in one group"))
        .collect()
}

/// [`parallel_groups`]' deal: at most `groups` nonempty groups of the
/// items `0..weights.len()`, each in ascending order.
fn deal(weights: &[usize], groups: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut dealt = vec![(0usize, Vec::new()); groups.clamp(1, weights.len().max(1))];
    for i in order {
        let lightest = dealt.iter_mut().min_by_key(|(load, _)| *load).expect("one group at least");
        lightest.0 = lightest.0.saturating_add(weights[i]);
        lightest.1.push(i);
    }
    dealt
        .into_iter()
        .filter(|(_, items)| !items.is_empty())
        .map(|(_, mut items)| {
            items.sort_unstable();
            items
        })
        .collect()
}

/// Runs `f` once per piece of `0..n` (see the module docs: runs of whole
/// `grain`s) and returns the results in order. `n == 0` makes no call.
///
/// # Panics
///
/// Panics if `grain` is zero.
pub fn parallel_ranges<U, F>(n: usize, grain: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    on_workers(pieces(n, grain, current_parallelism()), f)
}

/// Runs `f(worker, index, item)` over a closed batch on up to `workers`
/// threads and returns the results in input order.
///
/// Every worker claims the next unclaimed item until none is left, so a
/// batch of unequal items (a 2^10-row point beside a 2^16-row one) keeps
/// all workers busy where static pieces would leave them idle behind the
/// one that drew the expensive piece. `worker` is the claiming thread's
/// index in `0..workers`, for per-worker state the caller built up front;
/// results are placed by `index`, so the output is the same whatever order
/// items are claimed in.
///
/// The worker count is the argument: [`parallel_map`] passes
/// [`current_parallelism`], the proof server and the sweep one
/// single-threaded unit of work per worker. With `workers <= 1` (or at
/// most one item) everything runs on the calling thread as worker `0`.
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
    on_workers((0..workers.min(n).max(1)).collect(), |worker| {
        while let Some((i, item)) = claim() {
            let out = f(worker, i, item);
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every item is claimed exactly once")
        })
        .collect()
}

/// Calls `f(offset, piece)` once per piece of `values` (runs of whole
/// `grain`s, see the module docs); `offset` is the piece's start within
/// `values`.
///
/// # Panics
///
/// Panics if `grain` is zero.
///
/// # Examples
///
/// ```
/// use unizk_field::par::parallel_chunks_mut;
///
/// let mut v: Vec<u64> = (0..100).collect();
/// parallel_chunks_mut(&mut v, 16, |offset, piece| {
///     assert_eq!(offset % 16, 0);
///     for (i, x) in piece.iter_mut().enumerate() {
///         *x += (offset + i) as u64; // every element doubled
///     }
/// });
/// assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
/// ```
pub fn parallel_chunks_mut<T, F>(values: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let pieces = pieces(values.len(), grain, current_parallelism());
    on_workers(cut(values, &pieces), |(offset, piece)| f(offset, piece));
}

/// [`parallel_chunks_mut`] over two equal-length slices cut at the same
/// boundaries: `f(offset, a_piece, b_piece)`, both pieces covering
/// `offset..offset + len` of their slice.
///
/// This is the safe decomposition of a butterfly stage whose blocks straddle
/// worker segments: the caller splits the block into its low and high
/// halves, and each worker owns one aligned window of both halves.
///
/// # Panics
///
/// Panics if the slices differ in length or `grain` is zero.
pub fn parallel_zip_mut<T, F>(a: &mut [T], b: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T]) + Sync,
{
    assert_eq!(a.len(), b.len(), "parallel_zip_mut slices must match");
    let pieces = pieces(a.len(), grain, current_parallelism());
    let pairs: Vec<_> = cut(a, &pieces).into_iter().zip(cut(b, &pieces)).collect();
    on_workers(pairs, |((offset, a), (_, b))| f(offset, a, b));
}

/// [`parallel_chunks_mut`] over several equal-length columns cut at the
/// same boundaries: `f(offset, pieces)`, piece `c` covering
/// `offset..offset + len` of column `c`. A kernel that writes one output
/// per column at each position (a quotient per challenge round) writes
/// them in place.
///
/// # Panics
///
/// Panics if the columns differ in length or `grain` is zero.
pub fn parallel_columns_mut<T, F>(columns: &mut [Vec<T>], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [&mut [T]]) + Sync,
{
    let len = columns.first().map_or(0, Vec::len);
    assert!(columns.iter().all(|c| c.len() == len), "parallel_columns_mut columns must match");
    let pieces = pieces(len, grain, current_parallelism());
    let mut cuts: Vec<(usize, Vec<&mut [T]>)> = pieces
        .iter()
        .map(|piece| (piece.start, Vec::with_capacity(columns.len())))
        .collect();
    for column in columns {
        for ((_, slices), (_, piece)) in cuts.iter_mut().zip(cut(column, &pieces)) {
            slices.push(piece);
        }
    }
    on_workers(cuts, |(offset, mut slices)| f(offset, &mut slices));
}

/// Finds the first block index `k` (in ascending order) for which
/// `f(k)` returns `Some`, and returns that `Some`.
///
/// This is the deterministic search primitive behind the FRI grind: the
/// result is the answer of the **lowest-indexed** successful block, no
/// matter how many threads raced. One claim loop runs per thread; each
/// claims the next unclaimed block index from a shared counter, stops at
/// its first hit (its later claims would only be higher), and stops
/// claiming once a block below its next claim has hit. Every block below
/// the lowest successful one is therefore evaluated, that one is too, and
/// the lowest hit among the loops is the answer — so every parallelism
/// setting (one loop on the calling thread included) agrees bit-for-bit.
/// Blocks past the first success may still be *evaluated* (speculative
/// overshoot, at most one block per worker); callers whose `f` has side
/// effects must make them idempotent or account for the overshoot
/// themselves.
///
/// `f` must return `Some` for some `k` — the search runs unboundedly
/// upward, mirroring a `loop` over a serial scan.
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
    let next_block = AtomicUsize::new(0);
    let lowest_hit = AtomicUsize::new(usize::MAX);
    let search = |()| loop {
        let k = next_block.fetch_add(1, Ordering::SeqCst);
        if k > lowest_hit.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(hit) = f(k) {
            lowest_hit.fetch_min(k, Ordering::SeqCst);
            return Some((k, hit));
        }
    };
    on_workers(vec![(); current_parallelism()], search)
        .into_iter()
        .flatten()
        .min_by_key(|&(k, _)| k)
        .map(|(_, hit)| hit)
        .expect("the lowest successful block is always claimed and evaluated")
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
    fn groups_are_dealt_heaviest_first_to_the_lightest() {
        let weights = [1, 9, 4, 4, 1, 7];
        assert_eq!(deal(&weights, 1), vec![vec![0, 1, 2, 3, 4, 5]]);
        assert_eq!(deal(&weights, 2), vec![vec![1, 3], vec![0, 2, 4, 5]]);
        assert_eq!(deal(&weights, 3), vec![vec![1], vec![0, 4, 5], vec![2, 3]]);
        assert_eq!(deal(&weights, 100).len(), 6);
        // Weightless items all join the first group; no group is empty.
        assert_eq!(deal(&[0, 0, 0], 2), vec![vec![0, 1, 2]]);
        assert!(deal(&[], 4).is_empty());
    }

    #[test]
    fn parallel_groups_returns_results_in_item_order() {
        let weights: Vec<usize> = (0..37).map(|i| (i * 7) % 11).collect();
        let pairs = |items: &[usize]| items.iter().map(|&i| (i, weights[i])).collect();
        let out = parallel_groups(&weights, pairs);
        assert_eq!(out, weights.iter().copied().enumerate().collect::<Vec<_>>());
        assert!(parallel_groups(&[], |items: &[usize]| items.to_vec()).is_empty());
    }

    #[test]
    fn parallel_ranges_covers_everything() {
        let covered = parallel_ranges(1001, 7, Iterator::collect::<Vec<usize>>).concat();
        assert_eq!(covered, (0..1001).collect::<Vec<_>>());
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
    fn columns_mut_pieces_stay_aligned() {
        for (n, columns) in [(0usize, 3usize), (1, 1), (64, 4), (1000, 3), (7, 0)] {
            let mut cols: Vec<Vec<u64>> = (0..columns).map(|_| vec![0; n]).collect();
            parallel_columns_mut(&mut cols, 1, |offset, pieces| {
                assert_eq!(pieces.len(), columns);
                for (c, piece) in pieces.iter_mut().enumerate() {
                    for (i, x) in piece.iter_mut().enumerate() {
                        *x = (c * n + offset + i) as u64;
                    }
                }
            });
            for (c, col) in cols.iter().enumerate() {
                assert!(col.iter().enumerate().all(|(i, &x)| x == (c * n + i) as u64), "n={n} column {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn columns_mut_rejects_length_mismatch() {
        let mut cols = vec![vec![0u8; 3], vec![0u8; 4]];
        parallel_columns_mut(&mut cols, 1, |_, _| {});
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

    /// The payload a helper's caller catches when the closure panics.
    fn caught(run: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the closure's panic reaches the caller");
        *err.downcast::<String>()
            .expect("the closure's own payload, not a wrapper")
    }

    #[test]
    fn every_helper_raises_the_closures_own_panic() {
        let boom = |i: usize| assert!(i != 5, "boom at {i}");
        let each = |o: usize, p: &mut [u8]| (o..o + p.len()).for_each(boom);
        for threads in [1, 4] {
            set_parallelism(threads);
            let (mut a, mut b) = ([0u8; 64], [0u8; 64]);
            let payloads = [
                caught(|| drop(parallel_map((0..64).collect(), boom))),
                caught(|| drop(parallel_ranges(64, 1, |r| r.for_each(boom)))),
                caught(|| parallel_chunks_mut(&mut a, 1, each)),
                caught(|| parallel_zip_mut(&mut a, &mut b, 1, |o, p, _| each(o, p))),
                caught(|| drop(run_indexed(threads, (0..64).collect(), |_, _, i| boom(i)))),
                caught(|| {
                    parallel_first_block(|k| {
                        boom(k);
                        (k > 5).then_some(k)
                    });
                }),
            ];
            for (helper, payload) in payloads.iter().enumerate() {
                assert_eq!(payload, "boom at 5", "helper {helper} at threads={threads}");
            }
        }
        set_parallelism(0);
    }

    /// `0..len` in runs of `step`, the way the call sites cut their own
    /// ranges before they named a grain.
    fn runs(len: usize, step: usize) -> Vec<Range<usize>> {
        let starts = (0..len).step_by(step);
        starts.map(|s| s..len.min(s + step)).collect()
    }

    #[test]
    fn pieces_reproduce_every_call_sites_own_split() {
        let lens = (0..=4096).chain((13..=20).map(|bits| 1 << bits));
        for threads in [1, 2, 3, 4, 5, 6, 8, 16] {
            for len in lens.clone() {
                let at = format!("len={len} threads={threads}");
                // Quotients, leaf-table fill, coset powers, butterflies:
                // `ceil(len / threads)` positions per worker.
                let even = runs(len, len.div_ceil(threads).max(1));
                assert_eq!(pieces(len, 1, threads), even, "{at}");
                // Merkle levels: 128-leaf chunks, `ceil(chunks / threads)`
                // per worker, serial up to one chunk.
                let chunks = len.div_ceil(128);
                let merkle = if threads == 1 || len <= 128 {
                    runs(len, len.max(1))
                } else {
                    runs(len, chunks.div_ceil(threads.min(chunks)) * 128)
                };
                assert_eq!(pieces(len, 128, threads), merkle, "{at}");
                // NTT segments: `n / segs` elements, `ceil(segs / threads)`
                // segments per worker.
                if len >= 2 && len.is_power_of_two() {
                    let log_segs = threads
                        .next_power_of_two()
                        .trailing_zeros()
                        .min(len.trailing_zeros() - 1);
                    let (segs, seg) = (1usize << log_segs, len >> log_segs);
                    let ntt = runs(len, segs.div_ceil(threads) * seg);
                    assert_eq!(pieces(len, seg, threads), ntt, "{at}");
                }
            }
        }
    }
}
