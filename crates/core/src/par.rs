//! Bounded parallelism over indexed work items: one-shot scoped
//! fan-out ([`parallel_map`]).
//!
//! The workspace's parallel sections (rollout workers, evaluation
//! queues, placement-training rollouts) all share the same shape: a
//! fixed list of independent items, a worker function producing one
//! output per item, and a cap on simultaneous threads. [`parallel_map`]
//! implements that shape with `std::thread::scope` and an atomic work
//! queue — no thread pool, no external dependency, and a serial fast
//! path when one thread (or one item) makes spawning pointless.
//!
//! Results are returned **in item order** regardless of which worker
//! claimed which item, so callers stay deterministic for a fixed input
//! regardless of the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use when the caller passes `0`
/// ("auto"): the machine's available parallelism.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Apply `f` to every index in `0..n`, using at most `threads` worker
/// threads (`0` = available parallelism), and collect the outputs in
/// index order.
///
/// `f` runs concurrently on distinct indices; each output lands in its
/// index's slot, so the result is independent of scheduling order:
///
/// ```
/// use hrp_core::par::parallel_map;
///
/// let serial = parallel_map(8, 1, |i| i * i);
/// let fanned = parallel_map(8, 4, |i| i * i);
/// assert_eq!(serial, fanned);
/// assert_eq!(fanned, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
///
/// # Panics
/// Re-raises the first panicking worker's original payload, so the
/// caller sees the worker's own message.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, T)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        got.push((i, f(i)));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(got) => per_worker.push(got),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in per_worker.into_iter().flatten() {
        debug_assert!(out[i].is_none(), "index {i} claimed twice");
        out[i] = Some(v);
    }
    out.into_iter()
        .map(|v| v.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order() {
        for threads in [1, 2, 4, 0] {
            let got = parallel_map(17, threads, |i| i * i);
            let want: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(parallel_map(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn resolve_threads_auto_is_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let expensive = |i: usize| -> u64 {
            let mut acc = i as u64;
            for k in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let serial = parallel_map(32, 1, expensive);
        let parallel = parallel_map(32, 4, expensive);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_map_propagates_the_original_panic_payload() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(8, 2, |i| {
                assert!(i != 5, "boom at item 5");
                i
            })
        });
        // The worker's own message reaches the caller: diagnostics like
        // the node simulator's deadlock panic must not be replaced by a
        // generic one.
        let payload = result.expect_err("the panic must surface to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("boom at item 5"), "payload lost: {msg:?}");
    }
}
