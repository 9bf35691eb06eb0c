//! A tiny work-stealing index pool.
//!
//! [`run_with_worker`] fans the indexes `0..count` across worker threads
//! that steal from a shared atomic cursor and merges the per-index results
//! back **in index order**, so the returned vector is independent of the
//! thread count and of which worker ran which index. Each worker carries
//! one piece of reusable state (`S`), created once per worker — the sweep
//! engine recycles a whole [`crate::Machine`] there, `wo-serve`'s batch
//! phases need none.
//!
//! This is the scheduling core [`crate::sweep::sweep`] always had,
//! extracted so other batch consumers (`wo-serve`'s parallel batch
//! phases) reuse the same pool instead of growing a parallel one.
//!
//! # Examples
//!
//! ```
//! use memsim::pool::run_with_worker;
//!
//! let squares = run_with_worker(5, 2, || (), |(), i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work` for every index in `0..count` and returns the results in
/// index order.
///
/// `threads == 0` uses the machine's available parallelism; `threads == 1`
/// runs serially on the calling thread. In both cases `init` is called
/// once per worker to build its reusable state. Workers steal indexes
/// from a shared cursor, so load imbalance between cheap and expensive
/// indexes self-corrects.
///
/// # Panics
///
/// Panics if `work` panics on any index (the panic is propagated after
/// the other workers drain).
pub fn run_with_worker<S, T, I, F>(count: usize, threads: usize, init: I, work: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        let mut state = init();
        return (0..count).map(|i| work(&mut state, i)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        mine.push((i, work(&mut state, i)));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("pool worker thread panicked") {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index was assigned to exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_at_any_thread_count() {
        let serial = run_with_worker(17, 1, || (), |(), i| i * 3);
        for threads in [0, 2, 5, 32] {
            assert_eq!(run_with_worker(17, threads, || (), |(), i| i * 3), serial);
        }
    }

    #[test]
    fn worker_state_is_reused_across_stolen_indexes() {
        // Serial: one worker sees every index, so its counter reaches 10.
        let counts = run_with_worker(
            10,
            1,
            || 0u32,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts.last(), Some(&10));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = run_with_worker(0, 4, || (), |(), i| i);
        assert!(out.is_empty());
    }
}
