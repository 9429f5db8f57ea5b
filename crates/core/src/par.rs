//! Minimal deterministic fork/join parallelism over index ranges.
//!
//! The prediction engine fans work out across candidate plans and across
//! Monte-Carlo samples. This repo builds with **no external crates**, so
//! instead of rayon we provide one tiny primitive on top of
//! [`std::thread::scope`]: split `0..n` into contiguous chunks
//! ([`plan_chunks`]), let a pool of scoped worker threads *steal* chunks
//! off a shared atomic cursor, and re-assemble the chunk outputs in index
//! order. Because chunk boundaries depend only on `(n, threads)` and
//! outputs are re-assembled in index order, the result vector is identical
//! for every thread count and every steal interleaving — determinism is
//! pushed down to the work function, which must derive any randomness from
//! the item index alone (see [`crate::rng::mix_seed`]).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads to use when the caller asks for "auto" (0):
/// the host's available parallelism, or 1 if that cannot be determined.
/// Cached after the first query — `available_parallelism` is a syscall,
/// and this sits on the per-prediction hot path.
pub fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// How a parallel job over `0..n` is cut into chunks: contiguous,
/// deterministic (a pure function of `(n, threads)`), and — when several
/// workers run — smaller than an even `n / threads` split, so a fast
/// worker can steal the tail of a slow worker's share instead of idling
/// at the join barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Resolved worker count (`0` → [`auto_threads`], then clamped to the
    /// item count).
    pub threads: usize,
    /// Items per chunk; the last chunk may be short.
    pub chunk_size: usize,
    /// Total chunks (`ceil(n / chunk_size)`; 0 when `n == 0`).
    pub num_chunks: usize,
}

/// Chunks per worker when there is enough work to over-partition. More
/// chunks mean finer stealing granularity when item costs are skewed
/// (cache hits vs misses, small vs large plans); fewer mean better
/// scratch reuse inside `work`. Four per worker is the conventional
/// balance.
const OVERPARTITION: usize = 4;

/// Picks the chunking for `n` items on `threads` workers. With one worker
/// (or `n <= 1`) everything is a single chunk; otherwise chunks are sized
/// from the batch itself — `ceil(n / (threads × 4))`, at least one item —
/// rather than a fixed per-thread divisor, so small batches still split
/// finely enough for stealing to even out skewed item costs.
pub fn plan_chunks(n: usize, threads: usize) -> ChunkPlan {
    let threads = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    let threads = threads.min(n.max(1));
    if threads <= 1 {
        return ChunkPlan {
            threads: 1,
            chunk_size: n.max(1),
            num_chunks: usize::from(n > 0),
        };
    }
    let chunk_size = n.div_ceil(threads * OVERPARTITION).max(1);
    ChunkPlan {
        threads,
        chunk_size,
        num_chunks: n.div_ceil(chunk_size),
    }
}

/// Runs `work` over the index range `0..n` split into chunks (sized by
/// [`plan_chunks`]) and returns the concatenated per-chunk outputs, in
/// index order.
///
/// `work` receives a whole sub-range rather than a single index so that a
/// chunk can reuse scratch buffers across its items; it must return one
/// output per index in the range, in order. `threads == 0` means "auto"
/// ([`auto_threads`]). With one thread (or `n <= 1`) no threads are
/// spawned and `work` runs on the caller's stack.
///
/// Workers claim chunks off a shared atomic cursor (work stealing), so a
/// thread stuck on an expensive chunk does not strand the cheap chunks
/// behind it. Outputs are tagged with their chunk index and sorted before
/// concatenation, so the output is bit-identical for every `threads`
/// value and steal order as long as `work(range)` equals the
/// corresponding slice of `work(0..n)` — i.e. each item's output depends
/// only on its index.
///
/// # Panics
///
/// Propagates panics from `work`.
///
/// # Examples
///
/// ```
/// use rb_core::par::run_chunked;
/// let f = |r: std::ops::Range<usize>| r.map(|i| i * i).collect::<Vec<_>>();
/// assert_eq!(run_chunked(5, 1, &f), run_chunked(5, 4, &f));
/// ```
pub fn run_chunked<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let plan = plan_chunks(n, threads);
    if plan.threads <= 1 {
        let out = work(0..n);
        debug_assert_eq!(out.len(), n, "work must yield one output per index");
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(plan.num_chunks));
    std::thread::scope(|scope| {
        let work = &work;
        let cursor = &cursor;
        let done = &done;
        let handles: Vec<_> = (0..plan.threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, Vec<T>)> = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= plan.num_chunks {
                            break;
                        }
                        let lo = c * plan.chunk_size;
                        let hi = (lo + plan.chunk_size).min(n);
                        local.push((c, work(lo..hi)));
                    }
                    done.lock().expect("chunk results poisoned").extend(local);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
    });
    let mut chunks = done.into_inner().expect("chunk results poisoned");
    chunks.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(n);
    for (_, part) in chunks {
        out.extend(part);
    }
    debug_assert_eq!(out.len(), n, "work must yield one output per index");
    out
}

/// Maps `work` over `0..n` item-by-item (no scratch reuse), in parallel.
/// Convenience wrapper over [`run_chunked`] for jobs whose items are
/// self-contained, e.g. planning independent Hyperband brackets.
pub fn map_indexed<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked(n, threads, |range| range.map(&work).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_preserves_index_order() {
        let square = |r: Range<usize>| r.map(|i| i * i).collect::<Vec<_>>();
        let reference: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            assert_eq!(
                run_chunked(37, threads, square),
                reference,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_tiny_ranges_work() {
        let id = |r: Range<usize>| r.collect::<Vec<_>>();
        assert!(run_chunked(0, 4, id).is_empty());
        assert_eq!(run_chunked(1, 4, id), vec![0]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(map_indexed(3, 100, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn one_resolved_worker_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ids = |r: Range<usize>| r.map(|_| std::thread::current().id()).collect::<Vec<_>>();
        // One worker asked for, or one item whatever the request.
        for (n, threads) in [(5, 1), (1, 4), (1, 0)] {
            let ran_on = run_chunked(n, threads, ids);
            assert_eq!(ran_on.len(), n);
            assert!(
                ran_on.iter().all(|&id| id == caller),
                "n={n} threads={threads} left the caller's thread"
            );
        }
    }

    #[test]
    fn auto_threads_is_positive() {
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn map_indexed_matches_sequential() {
        let reference: Vec<u64> = (0..100).map(|i| crate::rng::mix_seed(9, i)).collect();
        assert_eq!(
            map_indexed(100, 7, |i| crate::rng::mix_seed(9, i as u64)),
            reference
        );
    }

    #[test]
    fn plan_chunks_is_deterministic_and_covers_n() {
        for n in [0usize, 1, 2, 7, 16, 37, 100, 1000] {
            for threads in [0usize, 1, 2, 3, 8, 64] {
                let a = plan_chunks(n, threads);
                let b = plan_chunks(n, threads);
                assert_eq!(a, b, "pure function of (n, threads)");
                assert_eq!(
                    a.num_chunks,
                    n.div_ceil(a.chunk_size.max(1)).max(usize::from(n > 0)) * usize::from(n > 0),
                    "n={n} threads={threads}: {a:?}"
                );
                // Chunks tile 0..n exactly.
                let covered: usize = (0..a.num_chunks)
                    .map(|c| (c * a.chunk_size + a.chunk_size).min(n) - c * a.chunk_size)
                    .sum();
                assert_eq!(covered, n, "n={n} threads={threads}: {a:?}");
            }
        }
    }

    #[test]
    fn plan_chunks_over_partitions_for_stealing() {
        // A multi-threaded batch must split into more chunks than workers
        // (when there is enough work), so a straggler chunk can be routed
        // around.
        let plan = plan_chunks(64, 4);
        assert!(plan.num_chunks > plan.threads, "{plan:?}");
        // Tiny batches still give every worker something when possible.
        let tiny = plan_chunks(3, 8);
        assert_eq!(tiny.chunk_size, 1);
        assert_eq!(tiny.num_chunks, 3);
    }

    #[test]
    fn stealing_matches_sequential_under_skewed_costs() {
        // Items with wildly different costs: stealing changes which worker
        // runs which chunk, never the output.
        let work = |r: Range<usize>| {
            r.map(|i| {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i * 3 + 1
            })
            .collect::<Vec<_>>()
        };
        let reference: Vec<usize> = (0..50).map(|i| i * 3 + 1).collect();
        for threads in [2, 3, 8] {
            assert_eq!(run_chunked(50, threads, work), reference);
        }
    }
}
