//! A chunked-array deque: the storage substrate shared by DABA and
//! SlickDeque (Non-Inv).
//!
//! The paper's space analysis (§4.2) models both algorithms on top of a
//! doubly linked list of fixed-size chunks: with a window of `n` nodes split
//! into `k` chunks the space cost is `2n + 4k + 4n/k`, minimised at
//! `k = √n`. [`ChunkedDeque`] reproduces that design: elements live in
//! fixed-capacity chunks that are allocated and retired as the window slides
//! across them, wasting at most two chunks' worth of slack (one at each
//! end), with O(1) `push_back` / `pop_front` / `pop_back` and O(1) random
//! access by index.
//!
//! Only the front chunk can contain already-consumed slots (a "dead prefix"
//! of at most one chunk). Dead elements are dropped when the chunk retires —
//! a bounded delay identical to the paper's two-chunk overallocation.

use crate::aggregator::MemoryFootprint;
use crate::invariants::{ensure, InvariantViolation};
use std::collections::VecDeque;

/// Default chunk capacity used when none is specified.
pub const DEFAULT_CHUNK_CAPACITY: usize = 256;

/// Lower bound on the chunk capacity picked by
/// [`ChunkedDeque::for_window`].
///
/// The paper's space model alone would pick `√n` slots per chunk, which for
/// small windows yields chunks much smaller than a cache line's worth of
/// elements and makes the chunk-boundary branch (and per-chunk bookkeeping)
/// dominate. The `chunk_tune` microbench (`swag-bench`
/// `benches/chunk_tune.rs`) sweeps capacities over FIFO window cycling and
/// contiguous-run scans; throughput climbs steeply up to 64-slot chunks
/// (512 B of `u64`s — several cache lines per boundary branch) and
/// plateaus after, so 64 is the smallest capacity on the plateau.
pub const MIN_CHUNK_CAPACITY: usize = 64;

/// Upper bound on the chunk capacity picked by
/// [`ChunkedDeque::for_window`]: the deque's slack is two chunks (one dead
/// prefix, one partially filled back), so unbounded `√n` chunks would make
/// that slack hundreds of KiB for very large windows. Past this size the
/// boundary branch is already amortised to noise.
pub const MAX_CHUNK_CAPACITY: usize = 4096;

/// A deque of `T` stored in fixed-capacity chunks.
#[derive(Debug, Clone)]
pub struct ChunkedDeque<T> {
    chunks: VecDeque<Vec<T>>,
    /// Cached live-element count (kept in sync by every mutation so the
    /// hot paths never recompute it from chunk lengths).
    len: usize,
    /// Consumed (dead) slots at the start of the front chunk.
    front_offset: usize,
    /// Capacity of every chunk (always a power of two, so index
    /// arithmetic is shift/mask instead of division).
    chunk_cap: usize,
    /// `log2(chunk_cap)`.
    chunk_shift: u32,
    /// One retired chunk kept for reuse: trending inputs make the deque
    /// oscillate across chunk boundaries, and recycling avoids an
    /// allocator round-trip per crossing (within the paper's two-chunk
    /// slack allowance).
    spare: Option<Vec<T>>,
}

impl<T> ChunkedDeque<T> {
    /// Create an empty deque with the default chunk capacity.
    pub fn new() -> Self {
        Self::with_chunk_capacity(DEFAULT_CHUNK_CAPACITY)
    }

    /// Create an empty deque with the given chunk capacity (≥ 1; rounded
    /// up to the next power of two so per-access index arithmetic stays a
    /// shift and a mask).
    pub fn with_chunk_capacity(chunk_cap: usize) -> Self {
        assert!(chunk_cap >= 1, "chunk capacity must be at least 1");
        let chunk_cap = chunk_cap.next_power_of_two();
        ChunkedDeque {
            chunks: VecDeque::new(),
            len: 0,
            front_offset: 0,
            chunk_cap,
            chunk_shift: chunk_cap.trailing_zeros(),
            spare: None,
        }
    }

    /// Create an empty deque with the chunk capacity that minimises the
    /// paper's space bound `2n + 4k + 4n/k` for a window of `n` elements —
    /// `k = √n` chunks of `√n` elements — clamped to
    /// [`MIN_CHUNK_CAPACITY`]`..=`[`MAX_CHUNK_CAPACITY`], the plateau the
    /// `chunk_tune` microbench measures for cache-friendly kernel runs.
    /// For windows smaller than `4 × MIN_CHUNK_CAPACITY` the floor is
    /// capped at `n/4` so the slack stays proportional to the window.
    pub fn for_window(n: usize) -> Self {
        let n = n.max(1);
        let root = (n as f64).sqrt().ceil() as usize;
        // The cache-friendly floor only applies once the window can afford
        // it: the deque's slack is two chunks, so a floor above `n/4` would
        // blow the paper's `O(√n)` slack bound for small windows.
        let floor = MIN_CHUNK_CAPACITY.min(n / 4).max(1);
        let cap = root.clamp(floor, MAX_CHUNK_CAPACITY);
        Self::with_chunk_capacity(cap)
    }

    /// The configured chunk capacity.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_cap
    }

    /// The number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no live elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of chunks currently allocated.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Append an element at the back.
    #[inline]
    pub fn push_back(&mut self, value: T) {
        self.len += 1;
        if let Some(chunk) = self.chunks.back_mut() {
            if chunk.len() < self.chunk_cap {
                chunk.push(value);
                return;
            }
        }
        let mut chunk = match self.spare.take() {
            Some(spare) => spare,
            None => Vec::with_capacity(self.chunk_cap),
        };
        chunk.push(value);
        self.chunks.push_back(chunk);
    }

    /// Ensure one run of `n` `push_back`s performs at most one chunk
    /// allocation up front instead of allocating at each chunk crossing:
    /// pre-fill the spare slot if the appends will outgrow the back
    /// chunk's remaining capacity. The bulk-insert fast paths call this
    /// once per batch.
    pub fn reserve_back(&mut self, n: usize) {
        let room = self
            .chunks
            .back()
            .map_or(0, |chunk| self.chunk_cap - chunk.len());
        if n > room && self.spare.is_none() {
            self.spare = Some(Vec::with_capacity(self.chunk_cap));
        }
    }

    /// Remove and drop the front element. Returns `false` if empty.
    ///
    /// The slot is logically removed immediately; its value is dropped when
    /// the front chunk retires (bounded by one chunk, as in the paper's
    /// space model).
    #[inline]
    pub fn pop_front(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        self.len -= 1;
        self.front_offset += 1;
        if self.front_offset == self.chunks[0].len() {
            if self.chunks.len() == 1 {
                self.chunks[0].clear();
            } else {
                // check:allow guarded by chunks.len() > 1 on the previous branch
                let mut retired = self.chunks.pop_front().expect("non-empty");
                retired.clear();
                self.spare = Some(retired);
            }
            self.front_offset = 0;
        }
        true
    }

    /// Remove and return the back element.
    #[inline]
    pub fn pop_back(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // check:allow len > 0 guarantees a chunk exists (checked above)
        let back = self.chunks.back_mut().expect("non-empty deque");
        // check:allow the back chunk is never left empty while len > 0
        let value = back.pop().expect("back chunk holds the back element");
        if back.is_empty() {
            if self.chunks.len() > 1 {
                // Retire the emptied back chunk, keeping it for reuse.
                self.spare = self.chunks.pop_back();
            } else if self.len == 0 {
                // Lone chunk reduced to its dead prefix: reset for reuse.
                self.chunks[0].clear();
                self.front_offset = 0;
            }
        } else if self.len == 0 {
            self.chunks[0].clear();
            self.front_offset = 0;
        }
        Some(value)
    }

    #[inline]
    fn locate(&self, index: usize) -> (usize, usize) {
        debug_assert!(index < self.len);
        let first_live = self.chunks[0].len() - self.front_offset;
        if index < first_live {
            (0, self.front_offset + index)
        } else {
            let rest = index - first_live;
            (1 + (rest >> self.chunk_shift), rest & (self.chunk_cap - 1))
        }
    }

    /// The element at `index` (0 = front), or `None` if out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        let (chunk, slot) = self.locate(index);
        Some(&self.chunks[chunk][slot]) // check:allow index kept in-bounds by the ring/stack invariant
    }

    /// Mutable access to the element at `index` (0 = front).
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        let (chunk, slot) = self.locate(index);
        Some(&mut self.chunks[chunk][slot]) // check:allow index kept in-bounds by the ring/stack invariant
    }

    /// The front (oldest) element.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.chunks.front()?.get(self.front_offset)
    }

    /// The back (newest) element.
    #[inline]
    pub fn back(&self) -> Option<&T> {
        // The only live-empty case is a lone chunk fully consumed by its
        // dead prefix, which pop_front/pop_back reset eagerly.
        self.chunks.back()?.last()
    }

    /// Mutable access to the back element.
    #[inline]
    pub fn back_mut(&mut self) -> Option<&mut T> {
        self.chunks.back_mut()?.last_mut()
    }

    /// Iterate over the live elements front-to-back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().enumerate().flat_map(move |(i, c)| {
            let start = if i == 0 { self.front_offset } else { 0 };
            c[start..].iter() // check:allow index kept in-bounds by the ring/stack invariant
        })
    }

    /// Iterate over the live elements as contiguous slices, front-to-back.
    ///
    /// The `VecDeque::as_slices` analogue for the chunked layout: batch
    /// kernels run over each returned run without taking the chunk-boundary
    /// branch per element. Empty runs are skipped, so every yielded slice is
    /// non-empty and the slices concatenate to exactly
    /// [`iter`](Self::iter)'s sequence.
    pub fn slices(&self) -> impl DoubleEndedIterator<Item = &[T]> {
        self.chunks.iter().enumerate().filter_map(move |(i, c)| {
            let start = if i == 0 { self.front_offset } else { 0 };
            let run = &c[start..]; // check:allow index kept in-bounds by the ring/stack invariant
            (!run.is_empty()).then_some(run)
        })
    }

    /// Remove the `n` newest elements from the back (all of them if the
    /// deque holds fewer).
    ///
    /// Bulk counterpart of repeated [`pop_back`](Self::pop_back): each fully
    /// covered trailing chunk retires with one `truncate` instead of one
    /// `pop` per element, and the last retired chunk is kept for reuse.
    pub fn truncate_back(&mut self, n: usize) {
        let mut remaining = n.min(self.len);
        self.len -= remaining;
        while remaining > 0 {
            let last = self.chunks.len() - 1;
            let dead = if last == 0 { self.front_offset } else { 0 };
            let live = self.chunks[last].len() - dead;
            if remaining < live {
                let keep = self.chunks[last].len() - remaining;
                self.chunks[last].truncate(keep);
                remaining = 0;
            } else {
                remaining -= live;
                if last == 0 {
                    // Lone chunk reduced to its dead prefix: reset for reuse.
                    self.chunks[0].clear();
                    self.front_offset = 0;
                } else if let Some(mut retired) = self.chunks.pop_back() {
                    retired.clear();
                    self.spare = Some(retired);
                }
            }
        }
    }

    /// Append every element of `iter` at the back.
    ///
    /// Bulk counterpart of repeated [`push_back`](Self::push_back): each
    /// chunk is filled with one `Vec::extend` run (a straight memcpy for
    /// trivial payloads) instead of taking the boundary branch per element.
    /// The iterator must report its length exactly (the
    /// `ExactSizeIterator` contract); the cached length is credited up
    /// front from it.
    pub fn extend_back<I>(&mut self, mut iter: I)
    where
        I: ExactSizeIterator<Item = T>,
    {
        let mut n = iter.len();
        self.len += n;
        while n > 0 {
            let room = match self.chunks.back() {
                Some(chunk) if chunk.len() < self.chunk_cap => self.chunk_cap - chunk.len(),
                _ => {
                    let chunk = match self.spare.take() {
                        Some(spare) => spare,
                        None => Vec::with_capacity(self.chunk_cap),
                    };
                    self.chunks.push_back(chunk);
                    self.chunk_cap
                }
            };
            let take = room.min(n);
            if let Some(back) = self.chunks.back_mut() {
                back.extend(iter.by_ref().take(take));
            }
            n -= take;
        }
    }

    /// Drop all elements, retaining nothing.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.spare = None;
        self.len = 0;
        self.front_offset = 0;
    }

    /// Verify the chunk-accounting invariants of the paper's §4.2 chunked
    /// array: cached length vs. chunk contents, the dead prefix confined to
    /// the front chunk, all interior chunks full, and the recycled spare
    /// chunk empty. `O(chunks)`.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        const NAME: &str = "chunked-deque";
        ensure!(
            NAME,
            "chunk-cap-pow2",
            self.chunk_cap.is_power_of_two() && self.chunk_shift == self.chunk_cap.trailing_zeros(),
            "chunk_cap {} / chunk_shift {}",
            self.chunk_cap,
            self.chunk_shift
        );
        let total: usize = self.chunks.iter().map(|c| c.len()).sum();
        ensure!(
            NAME,
            "length-accounting",
            self.len + self.front_offset == total,
            "len {} + front_offset {} != stored slots {}",
            self.len,
            self.front_offset,
            total
        );
        if self.chunks.is_empty() {
            ensure!(
                NAME,
                "empty-state",
                self.len == 0 && self.front_offset == 0,
                "no chunks but len {} / front_offset {}",
                self.len,
                self.front_offset
            );
        } else {
            ensure!(
                NAME,
                "dead-prefix-bounded",
                self.front_offset < self.chunks[0].len() || self.len == 0,
                "front_offset {} not inside front chunk of {} slots",
                self.front_offset,
                self.chunks[0].len()
            );
        }
        for (i, chunk) in self.chunks.iter().enumerate() {
            ensure!(
                NAME,
                "chunk-capacity",
                chunk.len() <= self.chunk_cap,
                "chunk {i} holds {} > cap {}",
                chunk.len(),
                self.chunk_cap
            );
            if i + 1 < self.chunks.len() {
                ensure!(
                    NAME,
                    "interior-chunks-full",
                    chunk.len() == self.chunk_cap,
                    "interior chunk {i} holds {} of {}",
                    chunk.len(),
                    self.chunk_cap
                );
            }
        }
        if self.len > 0 {
            ensure!(
                NAME,
                "back-chunk-live",
                self.chunks.back().is_some_and(|c| !c.is_empty()),
                "len {} but back chunk is empty",
                self.len
            );
        }
        if let Some(spare) = &self.spare {
            ensure!(
                NAME,
                "spare-empty",
                spare.is_empty(),
                "spare chunk holds {} elements",
                spare.len()
            );
        }
        Ok(())
    }
}

impl<T> Default for ChunkedDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MemoryFootprint for ChunkedDeque<T> {
    fn heap_bytes(&self) -> usize {
        let slots: usize = self.chunks.iter().map(|c| c.capacity()).sum();
        let spare = self.spare.as_ref().map_or(0, |c| c.capacity());
        (slots + spare) * core::mem::size_of::<T>()
            + self.chunks.capacity() * core::mem::size_of::<Vec<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_front_fifo() {
        let mut d = ChunkedDeque::with_chunk_capacity(4);
        for i in 0..10 {
            d.push_back(i);
        }
        assert_eq!(d.len(), 10);
        for i in 0..10 {
            assert_eq!(d.front(), Some(&i));
            assert!(d.pop_front());
        }
        assert!(d.is_empty());
        assert!(!d.pop_front());
    }

    #[test]
    fn pop_back_lifo() {
        let mut d = ChunkedDeque::with_chunk_capacity(3);
        for i in 0..7 {
            d.push_back(i);
        }
        for i in (0..7).rev() {
            assert_eq!(d.pop_back(), Some(i));
        }
        assert_eq!(d.pop_back(), None);
    }

    #[test]
    fn mixed_front_back_operations() {
        let mut d = ChunkedDeque::with_chunk_capacity(2);
        d.push_back(1);
        d.push_back(2);
        d.push_back(3);
        assert!(d.pop_front()); // drops 1
        assert_eq!(d.pop_back(), Some(3));
        assert_eq!(d.front(), Some(&2));
        assert_eq!(d.back(), Some(&2));
        assert_eq!(d.len(), 1);
        assert!(d.pop_front());
        assert!(d.is_empty());
    }

    #[test]
    fn indexed_access_across_chunks() {
        let mut d = ChunkedDeque::with_chunk_capacity(3);
        for i in 0..10 {
            d.push_back(i * 10);
        }
        // Consume part of the front chunk so front_offset is non-zero.
        d.pop_front();
        d.pop_front();
        assert_eq!(d.len(), 8);
        for i in 0..8 {
            assert_eq!(d.get(i), Some(&((i + 2) * 10)));
        }
        assert_eq!(d.get(8), None);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut d = ChunkedDeque::with_chunk_capacity(2);
        for i in 0..5 {
            d.push_back(i);
        }
        d.pop_front();
        *d.get_mut(1).unwrap() = 99;
        assert_eq!(d.get(1), Some(&99));
        *d.back_mut().unwrap() = -1;
        assert_eq!(d.back(), Some(&-1));
    }

    #[test]
    fn iter_yields_live_elements_in_order() {
        let mut d = ChunkedDeque::with_chunk_capacity(3);
        for i in 0..8 {
            d.push_back(i);
        }
        d.pop_front();
        d.pop_back();
        let collected: Vec<i32> = d.iter().copied().collect();
        assert_eq!(collected, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn chunks_are_retired_as_window_slides() {
        let mut d = ChunkedDeque::with_chunk_capacity(4);
        for i in 0..100 {
            d.push_back(i);
            if i >= 8 {
                d.pop_front();
            }
        }
        // A 9-element window over 4-slot chunks needs at most 4 chunks
        // (ceil(9/4) = 3 live, plus up to one dead-prefix chunk boundary).
        assert!(d.chunk_count() <= 4, "chunks: {}", d.chunk_count());
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn for_window_picks_sqrt_chunks_within_cache_bounds() {
        let d = ChunkedDeque::<u64>::for_window(1 << 16);
        assert_eq!(d.chunk_capacity(), 256);
        // Mid-size windows are floored at the cache-friendly minimum …
        let mid = ChunkedDeque::<u64>::for_window(1024);
        assert_eq!(mid.chunk_capacity(), MIN_CHUNK_CAPACITY);
        // … but small windows cap the floor at n/4 so the two-chunk slack
        // stays within the paper's space bound …
        let small = ChunkedDeque::<u64>::for_window(64);
        assert_eq!(small.chunk_capacity(), 16);
        let tiny = ChunkedDeque::<u64>::for_window(4);
        assert_eq!(tiny.chunk_capacity(), 2);
        // … and huge windows are capped so the slack stays sane.
        let huge = ChunkedDeque::<u64>::for_window(1 << 26);
        assert_eq!(huge.chunk_capacity(), MAX_CHUNK_CAPACITY);
    }

    #[test]
    fn slices_concatenate_to_iter() {
        let mut d = ChunkedDeque::with_chunk_capacity(4);
        for i in 0..19 {
            d.push_back(i);
        }
        for _ in 0..6 {
            d.pop_front();
        }
        let from_slices: Vec<i32> = d.slices().flat_map(|s| s.iter().copied()).collect();
        let from_iter: Vec<i32> = d.iter().copied().collect();
        assert_eq!(from_slices, from_iter);
        assert!(d.slices().all(|s| !s.is_empty()));
        // Reverse iteration sees the same runs back-to-front (runs are
        // reversed; elements within a run are not).
        let reversed: Vec<i32> = d.slices().rev().flat_map(|s| s.iter().copied()).collect();
        let forward_runs: Vec<Vec<i32>> = d.slices().map(|s| s.to_vec()).collect();
        let mut expect = Vec::new();
        for run in forward_runs.iter().rev() {
            expect.extend(run.iter().copied());
        }
        assert_eq!(reversed, expect);
    }

    #[test]
    fn truncate_back_matches_pop_back_loop() {
        for trunc in [0usize, 1, 3, 4, 7, 11, 19, 25] {
            let mut fast = ChunkedDeque::with_chunk_capacity(4);
            let mut slow = ChunkedDeque::with_chunk_capacity(4);
            for i in 0..19 {
                fast.push_back(i);
                slow.push_back(i);
            }
            for _ in 0..3 {
                fast.pop_front();
                slow.pop_front();
            }
            fast.truncate_back(trunc);
            for _ in 0..trunc {
                slow.pop_back();
            }
            fast.check_invariants().unwrap();
            let f: Vec<i32> = fast.iter().copied().collect();
            let s: Vec<i32> = slow.iter().copied().collect();
            assert_eq!(f, s, "truncate_back({trunc})");
            assert_eq!(fast.len(), slow.len());
            // The deque stays usable afterwards.
            fast.push_back(99);
            assert_eq!(fast.back(), Some(&99));
            fast.check_invariants().unwrap();
        }
    }

    #[test]
    fn extend_back_matches_push_back_loop() {
        for extra in [0usize, 1, 3, 4, 9, 17] {
            let mut fast = ChunkedDeque::with_chunk_capacity(4);
            let mut slow = ChunkedDeque::with_chunk_capacity(4);
            for i in 0..7 {
                fast.push_back(i);
                slow.push_back(i);
            }
            fast.pop_front();
            slow.pop_front();
            fast.extend_back(100..100 + extra as i32);
            for v in 100..100 + extra as i32 {
                slow.push_back(v);
            }
            fast.check_invariants().unwrap();
            let f: Vec<i32> = fast.iter().copied().collect();
            let s: Vec<i32> = slow.iter().copied().collect();
            assert_eq!(f, s, "extend_back({extra})");
        }
    }

    #[test]
    fn heap_bytes_tracks_allocation() {
        let mut d = ChunkedDeque::<u64>::with_chunk_capacity(8);
        assert_eq!(d.heap_bytes(), 0);
        d.push_back(1);
        assert!(d.heap_bytes() >= 8 * 8);
    }

    #[test]
    fn clear_empties() {
        let mut d = ChunkedDeque::with_chunk_capacity(2);
        for i in 0..5 {
            d.push_back(i);
        }
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.chunk_count(), 0);
        d.push_back(42);
        assert_eq!(d.front(), Some(&42));
    }

    #[test]
    fn single_chunk_dead_prefix_reset() {
        let mut d = ChunkedDeque::with_chunk_capacity(8);
        d.push_back(1);
        d.push_back(2);
        d.pop_front();
        d.pop_front();
        assert!(d.is_empty());
        // After full consumption the chunk is reset for reuse.
        d.push_back(3);
        assert_eq!(d.front(), Some(&3));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn pop_back_to_dead_prefix_only() {
        let mut d = ChunkedDeque::with_chunk_capacity(8);
        d.push_back(1);
        d.push_back(2);
        d.pop_front(); // dead prefix = 1
        assert_eq!(d.pop_back(), Some(2));
        assert!(d.is_empty());
        d.push_back(9);
        assert_eq!(d.front(), Some(&9));
    }

    #[test]
    fn invariants_hold_through_mixed_ops() {
        let mut d = ChunkedDeque::with_chunk_capacity(4);
        d.check_invariants().unwrap();
        for i in 0..50 {
            d.push_back(i);
            d.check_invariants().unwrap();
            if i % 3 == 0 {
                d.pop_front();
                d.check_invariants().unwrap();
            }
            if i % 7 == 0 {
                d.pop_back();
                d.check_invariants().unwrap();
            }
        }
        while d.pop_front() {
            d.check_invariants().unwrap();
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn invariant_checker_reports_corruption() {
        let mut d = ChunkedDeque::with_chunk_capacity(4);
        for i in 0..6 {
            d.push_back(i);
        }
        // Corrupt the cached length and expect the accounting check to trip.
        d.len = 3;
        let violation = d.check_invariants().unwrap_err();
        assert_eq!(violation.invariant, "length-accounting");
    }
}
