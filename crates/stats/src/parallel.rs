//! Deterministic fork-join parallelism over index ranges.
//!
//! A tiny structured-concurrency helper in the spirit of rayon's
//! `par_chunks` (the build environment is offline, so the dependency is
//! not available): the index range `0..n` is split into at most `threads`
//! contiguous segments, one scoped thread maps each segment, and the
//! per-segment results are returned **in segment order** — callers that
//! concatenate them obtain exactly the sequential output, regardless of
//! thread scheduling.
//!
//! Only a width of `0` ("one per core") consults the OS, and only once per
//! process: on Linux `available_parallelism` reads cgroup files, which
//! costs tens of microseconds — more than a selective scan. An explicit
//! width never asks the host, so the same width splits the same way on
//! every machine.

use std::sync::OnceLock;

/// Resolves a thread-count knob: `0` means "one per available core",
/// anything else is taken literally; the result never exceeds `n` work
/// items and is at least 1.
pub fn effective_threads(requested: usize, n: usize) -> usize {
    let t = if requested == 0 {
        available_cores()
    } else {
        requested
    };
    t.clamp(1, n.max(1))
}

/// The host's core count, asked of the OS on first use only.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Splits `0..n` into `threads` contiguous near-equal segments and maps
/// each with `f` on its own scoped thread, returning the per-segment
/// results in segment order.
///
/// With `threads <= 1` the single segment is mapped on the calling thread
/// (no spawn), so sequential and parallel execution run identical code.
pub fn map_segments<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    F: Fn(std::ops::Range<usize>) -> R + Sync,
    R: Send,
{
    let threads = effective_threads(threads, n);
    if threads <= 1 || n == 0 {
        return vec![f(0..n)];
    }
    // Segment sizes differ by at most one: the first `rem` segments get
    // `base + 1` items.
    let base = n / threads;
    let rem = n % threads;
    let mut bounds = Vec::with_capacity(threads);
    let mut start = 0usize;
    for i in 0..threads {
        let len = base + usize::from(i < rem);
        bounds.push(start..start + len);
        start += len;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|range| scope.spawn(|| f(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel segment worker panicked"))
            .collect()
    })
}

/// [`map_segments`] for fallible segment work: the first error (in segment
/// order) wins, mirroring what a sequential loop would have returned.
pub fn try_map_segments<R, E, F>(n: usize, threads: usize, f: F) -> Result<Vec<R>, E>
where
    F: Fn(std::ops::Range<usize>) -> Result<R, E> + Sync,
    R: Send,
    E: Send,
{
    map_segments(n, threads, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn segment_results_preserve_order() {
        for threads in [1, 2, 3, 8, 64] {
            let segments = map_segments(100, threads, |r| r.collect::<Vec<_>>());
            let flat: Vec<usize> = segments.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn all_segments_actually_run() {
        let count = AtomicUsize::new(0);
        let segments = map_segments(17, 4, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
            r.len()
        });
        assert_eq!(segments.iter().sum::<usize>(), 17);
        assert_eq!(count.load(Ordering::Relaxed), 17);
        assert_eq!(segments.len(), 4);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(map_segments(0, 8, |r| r.len()), vec![0]);
        // More threads than items: one item per segment.
        let segs = map_segments(3, 8, |r| r.len());
        assert_eq!(segs, vec![1, 1, 1]);
    }

    #[test]
    fn first_error_in_segment_order_wins() {
        let res: Result<Vec<usize>, usize> = try_map_segments(10, 4, |r| {
            if r.contains(&2) || r.contains(&7) {
                Err(r.start)
            } else {
                Ok(r.len())
            }
        });
        // Segments are [0..3), [3..6), [6..8), [8..10): errors in the first
        // and third; the first (start 0) wins.
        assert_eq!(res.unwrap_err(), 0);
    }

    #[test]
    fn effective_threads_resolution() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(3, 0), 1);
    }

    #[test]
    fn an_explicit_width_is_clamped_and_never_asks_the_host() {
        // Only the items bound the answer: the same on a 1-core and a
        // 64-core host.
        for k in 1..=70 {
            for n in 1..=70 {
                assert_eq!(effective_threads(k, n), k.clamp(1, n), "k = {k}, n = {n}");
            }
        }
        assert_eq!(effective_threads(0, 1), 1);
        assert_eq!(effective_threads(0, usize::MAX), available_cores());
    }
}
