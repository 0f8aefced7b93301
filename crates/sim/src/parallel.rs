//! Order-preserving parallel map over independent work items.
//!
//! Replication batches and figure sweeps are embarrassingly parallel —
//! every item runs its own simulations on a shared, immutable setup — so
//! callers fan items out over scoped worker threads. Results come back in
//! input order regardless of completion order, which is what makes the
//! batch layer's sequential reduction deterministic under any thread count.
//!
//! This lives in `evcap-sim` (the bottom of the simulation stack) so the
//! batch engine can use it; the figure runners, `solve-fleet` and the
//! serving load generator call it from here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item on up to `threads` worker threads (capped at
/// the item count), returning results in the input order.
///
/// The thread count defaults to the machine's available parallelism; the
/// `EVCAP_THREADS` environment variable overrides it in either direction,
/// so CI can pin worker counts deterministically. Callers that need a
/// fixed count pass it to [`parallel_map_with`] instead.
///
/// Workers claim *chunks* of contiguous indices rather than single items,
/// so cheap per-item closures amortize the claim over several items while
/// expensive stragglers still rebalance across threads.
///
/// # Panics
///
/// Propagates a panic from any worker with the worker's own payload (the
/// whole map panics, matching the behavior of a sequential loop).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, None, f)
}

/// Resolves an optional explicit thread count to the effective worker
/// count: the explicit value when given, else the `EVCAP_THREADS`
/// environment override, else the machine's available parallelism. Always
/// at least 1. This is the resolution rule [`parallel_map_with`] applies,
/// exposed so callers can report how many workers a map would use.
pub fn resolved_threads(threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| {
            std::env::var("EVCAP_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&t| t > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                })
        })
        .max(1)
}

/// [`parallel_map`] with an explicit thread count.
///
/// `threads: Some(n)` bypasses both the machine default and the
/// `EVCAP_THREADS` override — callers that must pin parallelism without
/// touching process-global environment (e.g. thread-invariance tests, the
/// `bench-sim` sweep, `evcap loadgen`) pass it directly. `None` behaves like
/// [`parallel_map`].
///
/// # Panics
///
/// As [`parallel_map`].
pub fn parallel_map_with<T, R, F>(items: Vec<T>, threads: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = resolved_threads(threads).min(n).max(1);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }

    // Chunked claiming: aim for ~8 claims per thread so the atomic traffic
    // is negligible for tiny closures, while chunks stay small enough that
    // an uneven workload still rebalances.
    let chunk = (n / (threads * 8)).max(1);

    // Items move into Option slots; workers claim chunk-aligned index
    // ranges via an atomic cursor and deposit results into matching slots.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    let item = work[i]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        // deepcheck:allow(panic-path): the atomic cursor hands each index to exactly one worker, so the slot is always full here
                        .expect("each index is claimed once");
                    let value = f(item);
                    *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
                }
            }));
        }
        // Joining by hand keeps each worker's own panic payload: left to
        // the scope, any worker panic resurfaces as a generic "a scoped
        // thread panicked" message instead of the one a sequential loop
        // would have raised.
        let mut first_panic = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // deepcheck:allow(panic-path): the scope joins every worker and the cursor covers every index, so each slot was filled
                .expect("every index was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |i: i32| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![7], |i: i32| i + 1), vec![8]);
    }

    #[test]
    fn work_actually_runs_concurrently_or_not_but_is_correct() {
        // Heavier closure exercising the claim/deposit paths.
        let out = parallel_map((0..32).collect(), |i: u64| {
            let mut acc = 0u64;
            for k in 0..10_000 {
                acc = acc.wrapping_add(k * i);
            }
            acc
        });
        assert_eq!(out.len(), 32);
        assert_eq!(out[0], 0);
    }

    #[test]
    fn evcap_threads_override_is_honored() {
        // Set the override for this process; the map below must still be
        // correct (and exercise the multi-thread claim/deposit path even on
        // a single-core machine). The variable is cleared afterwards so
        // other tests see the default behavior.
        std::env::set_var("EVCAP_THREADS", "4");
        let out = parallel_map((0..64).collect(), |i: i32| i * 2);
        std::env::remove_var("EVCAP_THREADS");
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());

        // Garbage values fall back to the default.
        std::env::set_var("EVCAP_THREADS", "zero");
        let out = parallel_map(vec![1, 2, 3], |i: i32| i);
        std::env::remove_var("EVCAP_THREADS");
        assert_eq!(out, vec![1, 2, 3]);

        // The shared resolution rule: explicit beats the env override,
        // which beats the machine default; never below 1.
        std::env::set_var("EVCAP_THREADS", "5");
        assert_eq!(resolved_threads(Some(3)), 3);
        assert_eq!(resolved_threads(None), 5);
        std::env::remove_var("EVCAP_THREADS");
        assert_eq!(resolved_threads(Some(0)), 1);
        assert!(resolved_threads(None) >= 1);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let expected: Vec<i64> = (0..203).map(|i| i * 3 - 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = parallel_map_with((0..203).collect(), Some(threads), |i: i64| i * 3 - 1);
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn chunking_covers_every_index_when_n_is_not_a_multiple() {
        // 1000 items over 3 threads → chunk ≈ 41; the tail chunk is short.
        let out = parallel_map_with((0..1000).collect(), Some(3), |i: u32| i + 1);
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map_with(vec![1, 2, 3], Some(100), |i: i32| i * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        parallel_map(vec![1, 2, 3], |i: i32| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
