//! Scoped-thread parallel primitives shared by the GD kernels and the
//! streaming layer.
//!
//! Everything in the workspace that goes multi-threaded follows the same
//! pattern: split an index range into a few contiguous chunks, hand each
//! chunk to a `std::thread::scope` worker that owns a **disjoint** slice of
//! the output, and join. This module extracts that pattern (it originated
//! in the [`crate::matvec`] kernel) so the mat-vec, the refinement gather
//! and pairwise refinement scheduler, and the speculative placement chunks
//! of `mdbgp-stream` all share one implementation:
//!
//! * [`even_boundaries`] / [`prefix_boundaries`] — chunking policies
//!   (equal index counts vs. equal *work* measured by a monotone prefix
//!   array such as CSR offsets);
//! * [`for_each_chunk_mut`] — chunked for-each over disjoint `&mut` slices
//!   of one output buffer (the mat-vec shape);
//! * [`par_map`] — work-stealing map over a slice of independent items with
//!   uneven costs (the refine-a-set-of-part-pairs shape).
//!
//! All helpers degrade to the obvious sequential loop when `threads <= 1`
//! or the input is too small to amortize a spawn, so callers never need a
//! separate serial code path. The thread count is plumbed from
//! configuration ([`crate::GdConfig::threads`],
//! `mdbgp_stream::StreamConfig::threads`) — there is no global pool;
//! scoped threads are spawned per call, which keeps the crate
//! dependency-free. That costs a scope per call, and the cost depends on
//! the host: on a 2-vCPU virtual machine a `std::thread::scope` with two
//! spawns measured 240–300 µs, where dispatching work to an already
//! parked helper thread took 28–47 µs.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Splits `0..n` into at most `threads` contiguous chunks of near-equal
/// length. Returns chunk boundaries `b_0 = 0 < b_1 < … < b_c = n`
/// (so `c <= threads`, and `c < threads` when `n < threads`). `n = 0`
/// yields `[0]` — no chunks.
pub fn even_boundaries(n: usize, threads: usize) -> Vec<usize> {
    let t = threads.max(1).min(n.max(1));
    let mut b: Vec<usize> = (0..=t).map(|i| i * n / t).collect();
    b.dedup();
    if n == 0 {
        b = vec![0];
    }
    b
}

/// Splits `0..n` into fixed-size chunks of `chunk` items (the last chunk
/// may be short). Unlike [`even_boundaries`], the split depends only on
/// `n` and `chunk` — never on the thread count — so a speculative stage
/// that assigns work chunk-locally (e.g. the streaming layer's parallel
/// placement, where each chunk holds its own capacity reservations) makes
/// bitwise-identical decisions whether one worker processes every chunk or
/// sixteen workers steal them. `n = 0` yields `[0]` — no chunks.
///
/// # Panics
/// Panics if `chunk` is zero. A zero chunk size is always a caller bug (a
/// miscomputed constant or an uninitialized config), and silently clamping
/// it to 1 would turn a batch-sized stage into n single-item chunks — the
/// determinism contract would hold, but the fan-out would quietly become
/// pathological.
pub fn fixed_boundaries(n: usize, chunk: usize) -> Vec<usize> {
    assert!(chunk > 0, "fixed_boundaries: chunk size must be positive");
    let mut b: Vec<usize> = (0..n).step_by(chunk).collect();
    b.push(n);
    b
}

/// Splits `0..prefix.len()-1` rows into at most `threads` chunks of
/// near-equal *work*, where the work of rows `a..b` is
/// `prefix[b] - prefix[a]` for a monotone `prefix` array (e.g. CSR row
/// offsets: equal edge counts per chunk, so a few hub rows don't serialize
/// the pass). Rows with zero work are distributed with their neighbours.
pub fn prefix_boundaries(prefix: &[usize], threads: usize) -> Vec<usize> {
    assert!(!prefix.is_empty(), "prefix array needs at least one entry");
    let n = prefix.len() - 1;
    let total = prefix[n] - prefix[0];
    let t = threads.max(1);
    if t == 1 || n == 0 || total == 0 {
        return even_boundaries(n, t);
    }
    let per_chunk = (total / t).max(1);
    let mut boundaries = Vec::with_capacity(t + 1);
    boundaries.push(0usize);
    let mut next_quota = prefix[0] + per_chunk;
    for v in 0..n {
        if prefix[v + 1] >= next_quota && boundaries.len() < t {
            boundaries.push(v + 1);
            next_quota = prefix[v + 1] + per_chunk;
        }
    }
    boundaries.push(n);
    boundaries.dedup();
    boundaries
}

/// Runs `f(chunk_range, out_chunk)` over disjoint `&mut` slices of `out`,
/// one scoped thread per chunk. `boundaries` must start at 0, end at
/// `out.len()`, and be strictly increasing (as produced by
/// [`even_boundaries`] / [`prefix_boundaries`]). With a single chunk the
/// call runs inline on the current thread.
pub fn for_each_chunk_mut<T, F>(out: &mut [T], boundaries: &[usize], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(boundaries.first() == Some(&0) && boundaries.last() == Some(&out.len()));
    if boundaries.len() <= 2 {
        return f(0..out.len(), out);
    }
    let mut chunks: Vec<&mut [T]> = Vec::with_capacity(boundaries.len() - 1);
    let mut rest = out;
    for w in boundaries.windows(2) {
        let (head, tail) = rest.split_at_mut(w[1] - w[0]);
        chunks.push(head);
        rest = tail;
    }
    std::thread::scope(|scope| {
        for (i, chunk) in chunks.into_iter().enumerate() {
            let f = &f;
            let range = boundaries[i]..boundaries[i + 1];
            scope.spawn(move || f(range, chunk));
        }
    });
}

/// Work-stealing map: applies `f` to every item and returns the results in
/// input order. Items are claimed one at a time off a shared atomic
/// counter, so a few expensive items (e.g. large part pairs) don't
/// serialize behind a static split. Sequential for `threads <= 1` or fewer
/// than two items.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let workers = threads.min(items.len());
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return local;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// [`par_map`] with per-worker mutable state: `states` supplies one `&mut S`
/// per worker (e.g. a reusable [`crate::gd::GdWorkspace`]), and `f` receives
/// the claiming worker's state alongside the item. Results come back in
/// input order regardless of which worker produced them, and `f` must not
/// let the state influence its output (scratch only) — which worker claims
/// which item is scheduling-dependent. Sequential with `states[0]` when only
/// one state is supplied or there are fewer than two items; at most
/// `states.len()` workers run.
///
/// # Panics
/// Panics if `states` is empty.
pub fn par_map_with<T, R, S, F>(items: &[T], states: &mut [S], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    S: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    assert!(!states.is_empty(), "par_map_with needs at least one state");
    if states.len() == 1 || items.len() < 2 {
        let state = &mut states[0];
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| f(state, i, x))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let workers = states.len().min(items.len());
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states[..workers]
            .iter_mut()
            .map(|state| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return local;
                        }
                        local.push((i, f(state, i, &items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_boundaries_cover_and_balance() {
        assert_eq!(even_boundaries(10, 1), vec![0, 10]);
        assert_eq!(even_boundaries(10, 2), vec![0, 5, 10]);
        assert_eq!(even_boundaries(0, 4), vec![0]);
        let b = even_boundaries(7, 3);
        assert_eq!((b[0], *b.last().unwrap()), (0, 7));
        for w in b.windows(2) {
            assert!(w[1] - w[0] >= 2 && w[1] - w[0] <= 3);
        }
        // More threads than items: one item per chunk, no empty chunks.
        let b = even_boundaries(3, 8);
        assert_eq!(b, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fixed_boundaries_depend_only_on_chunk_size() {
        assert_eq!(fixed_boundaries(10, 4), vec![0, 4, 8, 10]);
        assert_eq!(fixed_boundaries(8, 4), vec![0, 4, 8]);
        assert_eq!(fixed_boundaries(3, 4), vec![0, 3]);
        assert_eq!(fixed_boundaries(0, 4), vec![0]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn fixed_boundaries_rejects_zero_chunk() {
        fixed_boundaries(5, 0);
    }

    #[test]
    fn prefix_boundaries_balance_work_not_rows() {
        // One hub row with 90 units then 9 rows of 1 unit: 2 chunks must
        // isolate the hub.
        let mut prefix = vec![0usize, 90];
        for i in 0..9 {
            prefix.push(91 + i);
        }
        let b = prefix_boundaries(&prefix, 2);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&10));
        assert!(b.contains(&1), "hub row must end the first chunk: {b:?}");
        // Degenerate shapes fall back cleanly.
        assert_eq!(prefix_boundaries(&[0, 0, 0], 4), vec![0, 1, 2]);
        assert_eq!(prefix_boundaries(&[5], 4), vec![0]);
    }

    #[test]
    fn for_each_chunk_mut_writes_disjointly() {
        let mut out = vec![0usize; 100];
        let b = even_boundaries(100, 4);
        for_each_chunk_mut(&mut out, &b, |range, chunk| {
            for (i, slot) in range.clone().zip(chunk.iter_mut()) {
                *slot = i * i;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
        // Single chunk runs inline.
        let mut tiny = vec![0usize; 3];
        for_each_chunk_mut(&mut tiny, &[0, 3], |_, chunk| chunk.fill(7));
        assert_eq!(tiny, vec![7, 7, 7]);
    }

    #[test]
    fn par_map_preserves_order_under_uneven_cost() {
        let items: Vec<usize> = (0..50).collect();
        let out = par_map(&items, 4, |i, &x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            (i, x * 2)
        });
        for (i, &(j, doubled)) in out.iter().enumerate() {
            assert_eq!(i, j);
            assert_eq!(doubled, i * 2);
        }
        assert_eq!(par_map(&items, 1, |_, &x| x), items);
        let one = [41usize];
        assert_eq!(par_map(&one, 8, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_with_threads_state_and_preserves_order() {
        let items: Vec<usize> = (0..64).collect();
        // Each worker counts its claims into its own state; results must
        // still come back in input order and every item is claimed once.
        let mut states = vec![0usize; 4];
        let out = par_map_with(&items, &mut states, |claims, i, &x| {
            *claims += 1;
            if x % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            (i, x * 3)
        });
        for (i, &(j, tripled)) in out.iter().enumerate() {
            assert_eq!(i, j);
            assert_eq!(tripled, i * 3);
        }
        assert_eq!(states.iter().sum::<usize>(), items.len());

        // Single state: sequential, all claims land on states[0].
        let mut solo = vec![0usize];
        let out = par_map_with(&items, &mut solo, |claims, _, &x| {
            *claims += 1;
            x
        });
        assert_eq!(out, items);
        assert_eq!(solo[0], items.len());
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn par_map_with_rejects_empty_states() {
        let mut states: Vec<usize> = Vec::new();
        par_map_with(&[1, 2, 3], &mut states, |_, _, &x: &i32| x);
    }
}
