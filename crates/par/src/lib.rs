//! Scoped-thread parallel-chunks utilities for the NELA hot paths.
//!
//! The workspace builds offline from vendored stubs, so no rayon: this crate
//! hand-rolls the small slice-parallelism surface the pipeline needs on top
//! of `std::thread::scope`. Every helper is **deterministic by
//! construction** — work is split into contiguous index ranges, each range
//! is processed independently, and results are reassembled in range order —
//! so a parallel run is bit-identical to the serial one regardless of
//! scheduling. `threads == 1` never spawns and runs the exact serial loop,
//! which is the fallback the CLI exposes.
//!
//! The one piece of `unsafe` lives in [`ScatterWriter`]: a shared write-only
//! view of a slice for counting-sort-style scatter phases where each index
//! is provably written by exactly one thread (the WPG's CSR fill,
//! `Wpg::from_edges_threads`).

use std::marker::PhantomData;
use std::ops::Range;

/// Clamps a requested thread count to at least one worker over `n` items
/// (no point spawning more threads than items).
#[inline]
pub fn effective_threads(requested: usize, n: usize) -> usize {
    requested.max(1).min(n.max(1))
}

/// Splits `0..n` into at most `threads` contiguous, near-equal ranges
/// covering every index exactly once, in ascending order. Returns fewer
/// ranges when `n < threads`; returns no ranges when `n == 0`.
pub fn chunk_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = effective_threads(threads, n);
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(threads);
    (0..n)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(n))
        .collect()
}

/// Runs `f` over each chunk of `0..n` on its own scoped thread and returns
/// the per-chunk results in chunk (ascending index) order. With
/// `threads <= 1` the chunks run serially on the caller's thread.
pub fn map_chunks<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(n, threads);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(ranges.len());
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        for (slot, range) in slots.iter_mut().zip(ranges) {
            let f = &f;
            scope.spawn(move || *slot = Some(f(range)));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("chunk thread completed"))
        .collect()
}

/// Splits `data` into contiguous chunks and mutates each on its own scoped
/// thread. `f` receives the chunk's starting index and the chunk slice.
pub fn for_each_chunk_mut<T, F>(threads: usize, data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let ranges = chunk_ranges(n, threads);
    if ranges.len() <= 1 {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut start = 0usize;
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let f = &f;
            let lo = start;
            scope.spawn(move || f(lo, chunk));
            start += range.len();
        }
    });
}

/// A shared write-only view of a slice for scatter phases where the caller
/// guarantees every index is written by at most one thread (e.g. a
/// counting-sort fill whose per-thread cursor ranges are disjoint).
pub struct ScatterWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: concurrent `write` calls touch disjoint indices (the caller's
// contract, see `write`), so sharing the raw pointer across threads is safe
// for `T: Send`.
unsafe impl<T: Send> Sync for ScatterWriter<'_, T> {}

impl<'a, T> ScatterWriter<'a, T> {
    /// Wraps an exclusive slice borrow for disjoint scatter writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        ScatterWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// Each index must be written by at most one thread over the writer's
    /// lifetime, and `index` must be in bounds (checked in debug builds).
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len, "scatter write out of bounds");
        // SAFETY: in-bounds per the caller contract; no concurrent access to
        // this index per the caller contract.
        unsafe { self.ptr.add(index).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 100, 101] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(n, threads);
                let mut covered = Vec::new();
                for r in &ranges {
                    covered.extend(r.clone());
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} t={threads}");
                assert!(ranges.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let chunks = map_chunks(4, 10, |r| (r.start, r.end));
        let flat: Vec<usize> = chunks.iter().flat_map(|&(a, b)| [a, b]).collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]), "{chunks:?}");
    }

    #[test]
    fn for_each_chunk_mut_touches_every_element_once() {
        let mut data = vec![0u32; 97];
        for_each_chunk_mut(5, &mut data, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (start + i) as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn scatter_writer_fills_disjoint_indices() {
        let n = 64usize;
        let mut out = vec![0usize; n];
        let writer = ScatterWriter::new(&mut out);
        std::thread::scope(|scope| {
            let writer = &writer;
            for t in 0..4usize {
                scope.spawn(move || {
                    for i in (t..n).step_by(4) {
                        // SAFETY: each index is owned by exactly one thread
                        // (stride-4 partition) and is in bounds.
                        unsafe { writer.write(i, i * 2) };
                    }
                });
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn zero_items_spawn_nothing() {
        let out: Vec<u8> = map_chunks(8, 0, |_| 0);
        assert!(out.is_empty());
        let mut empty: [u8; 0] = [];
        for_each_chunk_mut(8, &mut empty, |_, _| panic!("no chunks expected"));
    }
}
