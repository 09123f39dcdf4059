//! Scoped worker-thread pool with deterministic work partitioning.
//!
//! The simulator is single-threaded and deterministic; what runs in
//! parallel is the *grid around it* — experiment cells, fleet devices,
//! batch hashing — which is embarrassingly parallel. This module gives
//! that fan-out one scheduler, [`map_ordered`], with a fixed contract:
//!
//! * **Deterministic partitioning** — the input is split into chunks of
//!   `chunk` items whose boundaries ([`chunk_bounds`]) are computed
//!   purely from the input length and chunk size, never from the worker
//!   count or scheduler state.
//! * **Dynamic claiming** — workers claim the next unclaimed chunk from a
//!   shared atomic cursor as they finish previous ones. This is greedy
//!   list scheduling, so makespan ≤ (total work)/workers + max single
//!   chunk: a worker that drew a cheap chunk immediately takes the next
//!   one, and one expensive region of the input no longer strands every
//!   other core.
//! * **Ordered collection** — results come back in input order no matter
//!   how the OS schedules the threads.
//!
//! *Which* worker computes an item is scheduler-dependent; *what* is
//! computed and *where the result lands* are not. So `map_ordered(items,
//! 1, c, f)` and `map_ordered(items, n, c, f)` produce *identical* output
//! vectors whenever `f` is a pure function of its item, which is exactly
//! the property the reproducibility tests assert (see
//! `tests/hermetic_determinism.rs` at the workspace root and
//! `tests/dynamic_pool.rs` in this crate).
//!
//! Chunk size is the only knob. Chunk 1 suits expensive, skewed items
//! (a whole experiment cell or device replay), where one relaxed
//! `fetch_add` per item is noise. A contiguous split with one block per
//! worker is the same scheduler at chunk = ⌈n/w⌉; larger chunks amortize
//! the claim when items are cheap and uniform.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a requested worker count: `0` means "size to the machine",
/// and the result is clamped to `[1, items]` so no thread sits idle.
pub fn effective_workers(requested: usize, items: usize) -> usize {
    let hw = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    let w = if requested == 0 { hw() } else { requested };
    w.max(1).min(items.max(1))
}

/// The fixed chunk bounds `[start, end)` of chunk `index` when `items`
/// items are split into chunks of `chunk` items each (the last chunk may
/// be short; indices past the end give an empty range at `items`).
/// Purely arithmetic in `(items, chunk, index)` — the worker count never
/// moves a boundary, which keeps [`map_ordered`]'s output
/// worker-count-independent even for impure cell functions that observe
/// their chunk-mates.
pub fn chunk_bounds(items: usize, chunk: usize, index: usize) -> (usize, usize) {
    let chunk = chunk.max(1);
    let start = (index * chunk).min(items);
    (start, (start + chunk).min(items))
}

/// Apply `f` to every item on up to `workers` scoped OS threads
/// (`0` ⇒ machine parallelism) and return results in input order.
///
/// The input is split into fixed-boundary chunks of `chunk` items (see
/// [`chunk_bounds`]; `0` is treated as 1), workers claim the next
/// unclaimed chunk from a shared atomic cursor, and each chunk's results
/// land in its own slot. For a pure `f`, any worker count and any chunk
/// size produce the same vector, byte for byte. One worker (or one
/// chunk) runs serially on the calling thread.
///
/// A panic in `f` propagates to the caller once the other workers have
/// drained the remaining chunks.
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunk = chunk.max(1);
    let workers = effective_workers(workers, items.len().div_ceil(chunk));
    if items.is_empty() {
        return Vec::new();
    }
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let n_chunks = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<R>>> = (0..n_chunks).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let f = &f;
            let cursor = &cursor;
            handles.push(s.spawn(move || {
                let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let (start, end) = chunk_bounds(items.len(), chunk, c);
                    mine.push((c, items[start..end].iter().map(f).collect()));
                }
                mine
            }));
        }
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (c, v) in done {
                        debug_assert!(slots[c].is_none(), "chunk {c} claimed twice");
                        slots[c] = Some(v);
                    }
                }
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    slots
        .into_iter()
        .flat_map(|c| c.expect("every chunk claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for items in [0usize, 1, 2, 7, 64, 101] {
            for chunk in [1usize, 2, 3, 16, 200] {
                let n_chunks = items.div_ceil(chunk);
                let mut expect_start = 0usize;
                for c in 0..n_chunks {
                    let (s, e) = chunk_bounds(items, chunk, c);
                    assert_eq!(s, expect_start, "gap at chunk {c}");
                    assert!(e > s, "empty chunk {c} for items={items} chunk={chunk}");
                    expect_start = e;
                }
                assert_eq!(expect_start, items, "items={items} chunk={chunk}");
                // Out-of-range indices collapse to empty tail chunks.
                let (s, e) = chunk_bounds(items, chunk, n_chunks + 3);
                assert_eq!((s, e), (items, items));
            }
        }
    }

    #[test]
    fn map_ordered_matches_serial_for_any_worker_count_and_chunk() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 300] {
            // 1 and 7 are per-item claiming; ⌈257/workers⌉ is one block per worker.
            for chunk in [0, 1, 7, items.len().div_ceil(workers), 500] {
                let out = map_ordered(&items, workers, chunk, |&x| x * 3 + 1);
                assert_eq!(out, serial, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn zero_workers_means_machine_sized() {
        let out: Vec<u32> = map_ordered(&[] as &[u32], 4, 1, |&x| x);
        assert!(out.is_empty());
        let items = [1u32, 2, 3];
        assert_eq!(map_ordered(&items, 0, 1, |&x| x + 1), vec![2, 3, 4]);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert_eq!(effective_workers(4, 0), 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        map_ordered(&[1u32, 2, 3, 4], 2, 1, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
