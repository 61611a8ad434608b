//! B-Int — Base Intervals (paper §2.2, Fig. 5).
//!
//! A multi-level structure of dyadic intervals: level 0 holds the partials
//! themselves, level ℓ holds aggregates of aligned blocks of `2^ℓ`
//! partials, organised circularly. Updates recompute the changed interval
//! on every level bottom-up (`log₂ m` combines); look-ups decompose the
//! requested range into the minimum number of base intervals and aggregate
//! them left-to-right.
//!
//! As the paper notes, B-Int has the same asymptotic complexity as FlatFAT
//! but is slower by a constant factor — here because a full-window look-up
//! still pays the dyadic decomposition, where FlatFAT reads its root.

use crate::aggregator::{FinalAggregator, MemoryFootprint};
use crate::invariants::{ensure, partials_agree, strict_check, InvariantViolation};
use crate::ops::AggregateOp;

/// Dyadic base-interval aggregator.
#[derive(Debug, Clone)]
pub struct BInt<O: AggregateOp> {
    op: O,
    /// `levels[l][i]` aggregates slots `[i·2^l, (i+1)·2^l)`.
    levels: Vec<Vec<O::Partial>>,
    /// Slot count (window rounded up to a power of two).
    m: usize,
    window: usize,
    curr: usize,
    len: usize,
}

impl<O: AggregateOp> BInt<O> {
    /// Create a B-Int over a window of `window` partials.
    pub fn new(op: O, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one partial");
        let m = window.next_power_of_two();
        let level_count = m.trailing_zeros() as usize + 1;
        let levels = (0..level_count)
            .map(|l| (0..(m >> l)).map(|_| op.identity()).collect())
            .collect();
        BInt {
            op,
            levels,
            m,
            window,
            curr: 0,
            len: 0,
        }
    }

    /// The operation driving this aggregator.
    pub fn op(&self) -> &O {
        &self.op
    }

    /// Overwrite slot `pos` and rebuild the covering interval at every
    /// level — `log₂(m)` combines.
    pub fn update_slot(&mut self, pos: usize, value: O::Partial) {
        debug_assert!(pos < self.m);
        self.levels[0][pos] = value;
        for l in 1..self.levels.len() {
            let idx = pos >> l;
            let (lower, upper) = self.levels.split_at_mut(l);
            let children = &lower[l - 1];
            upper[0][idx] = self.op.combine(&children[2 * idx], &children[2 * idx + 1]);
        }
    }

    /// Aggregate the `count` slots starting at `start`, wrapping
    /// circularly, decomposed into the minimal set of base intervals.
    pub fn query_range(&self, start: usize, count: usize) -> O::Partial {
        debug_assert!(count <= self.window);
        if count == 0 {
            return self.op.identity();
        }
        let end = start + count;
        if end <= self.window {
            self.range_non_wrapping(start, end)
        } else {
            let head = self.range_non_wrapping(start, self.window);
            let tail = self.range_non_wrapping(0, end - self.window);
            self.op.combine(&head, &tail)
        }
    }

    /// Greedy left-to-right dyadic decomposition of `[lo, hi)`: at each
    /// step take the largest base interval aligned at `lo` that fits.
    fn range_non_wrapping(&self, mut lo: usize, hi: usize) -> O::Partial {
        debug_assert!(lo < hi && hi <= self.m);
        let mut acc: Option<O::Partial> = None;
        while lo < hi {
            let align = if lo == 0 {
                self.levels.len() - 1
            } else {
                (lo.trailing_zeros() as usize).min(self.levels.len() - 1)
            };
            let mut l = align;
            while (1usize << l) > hi - lo {
                l -= 1;
            }
            let interval = &self.levels[l][lo >> l];
            acc = Some(match acc {
                None => interval.clone(),
                Some(a) => self.op.combine(&a, interval),
            });
            lo += 1 << l;
        }
        acc.unwrap_or_else(|| self.op.identity())
    }

    /// Window aggregate in window order (oldest→newest).
    pub fn query(&self) -> O::Partial {
        if self.len == 0 {
            return self.op.identity();
        }
        let start = (self.curr + self.window - self.len) % self.window;
        self.query_range(start, self.len)
    }

    /// Slot count (window rounded up to a power of two).
    pub fn slot_count(&self) -> usize {
        self.m
    }
}

impl<O: AggregateOp> FinalAggregator<O> for BInt<O> {
    const NAME: &'static str = "bint";

    fn with_capacity(op: O, window: usize) -> Self {
        BInt::new(op, window)
    }

    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        self.update_slot(self.curr, partial);
        self.curr = (self.curr + 1) % self.window;
        self.len = (self.len + 1).min(self.window);
        strict_check!(self);
        self.query()
    }

    fn window(&self) -> usize {
        self.window
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Write the identity into the expiring slot so every covering dyadic
    /// interval keeps aggregating live partials only — `log₂(m)` combines.
    fn evict(&mut self) {
        assert!(self.len > 0, "evict from an empty B-Int window"); // check:allow precondition assert documenting the caller contract
        let oldest = (self.curr + self.window - self.len) % self.window;
        let identity = self.op.identity();
        self.update_slot(oldest, identity);
        self.len -= 1;
        strict_check!(self);
    }

    /// Batch fill skipping the per-slide dyadic look-up: each partial pays
    /// its `log₂(m)` interval rebuild but no query decomposition.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        for p in batch {
            self.update_slot(self.curr, p.clone());
            self.curr = (self.curr + 1) % self.window;
            self.len = (self.len + 1).min(self.window);
        }
        strict_check!(self);
    }

    /// B-Int invariants (paper §2.2, Fig. 5): the dyadic levels halve in
    /// size and tile the slot ring, every interval at level ℓ ≥ 1 equals
    /// `combine` of its two level-(ℓ−1) halves (refolded in exactly
    /// `update_slot`'s order, so bitwise even for floats), and every
    /// non-live base slot holds the identity. `O(m)` combines.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure!(
            Self::NAME,
            "level-shape",
            self.m == self.window.next_power_of_two()
                && self.levels.len() == self.m.trailing_zeros() as usize + 1
                && self
                    .levels
                    .iter()
                    .enumerate()
                    .all(|(l, lv)| lv.len() == self.m >> l),
            "levels {:?} for m {}",
            self.levels.iter().map(|l| l.len()).collect::<Vec<_>>(),
            self.m
        );
        ensure!(
            Self::NAME,
            "cursor-in-window",
            self.curr < self.window && self.len <= self.window,
            "curr {} / len {} for window {}",
            self.curr,
            self.len,
            self.window
        );
        for l in 1..self.levels.len() {
            for i in 0..self.levels[l].len() {
                let expect = self
                    .op
                    .combine(&self.levels[l - 1][2 * i], &self.levels[l - 1][2 * i + 1]);
                ensure!(
                    Self::NAME,
                    "interval-combine",
                    partials_agree(&self.levels[l][i], &expect),
                    "level {l} interval {i} holds {:?}, halves combine to {:?}",
                    self.levels[l][i],
                    expect
                );
            }
        }
        let identity = self.op.identity();
        for j in 0..self.window - self.len {
            let slot = (self.curr + j) % self.window;
            ensure!(
                Self::NAME,
                "dead-slot-identity",
                self.levels[0][slot] == identity,
                "non-live slot {slot} holds {:?}",
                self.levels[0][slot]
            );
        }
        for slot in self.window..self.m {
            ensure!(
                Self::NAME,
                "pad-slot-identity",
                self.levels[0][slot] == identity,
                "padding slot {slot} holds {:?}",
                self.levels[0][slot]
            );
        }
        Ok(())
    }
}

impl<O: AggregateOp> MemoryFootprint for BInt<O> {
    fn heap_bytes(&self) -> usize {
        let slots: usize = self.levels.iter().map(|l| l.capacity()).sum();
        slots * core::mem::size_of::<O::Partial>()
            + self.levels.capacity() * core::mem::size_of::<Vec<O::Partial>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Naive;
    use crate::ops::{Max, Sum};

    #[test]
    fn matches_naive_on_sum() {
        let mut bint = BInt::new(Sum::<i64>::new(), 5);
        let mut naive = Naive::new(Sum::<i64>::new(), 5);
        for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9] {
            assert_eq!(bint.slide(v), naive.slide(v));
        }
    }

    #[test]
    fn matches_naive_on_max() {
        let op = Max::<i64>::new();
        let mut bint = BInt::new(op, 8);
        let mut naive = Naive::new(op, 8);
        for v in [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5, 9, 1, 3, 3, 7, 2, 2] {
            assert_eq!(bint.slide(op.lift(&v)), naive.slide(op.lift(&v)));
        }
    }

    #[test]
    fn dyadic_decomposition_is_minimal_for_aligned_ranges() {
        let mut bint = BInt::new(Sum::<i64>::new(), 8);
        for v in 1..=8 {
            bint.slide(v);
        }
        // Aligned block [0,8) is one interval at the top level.
        assert_eq!(bint.query_range(0, 8), 36);
        // [2,6) decomposes into [2,4) + [4,6).
        assert_eq!(bint.query_range(2, 4), 3 + 4 + 5 + 6);
    }

    #[test]
    fn non_power_of_two_window_matches_naive() {
        let mut bint = BInt::new(Sum::<i64>::new(), 11);
        let mut naive = Naive::new(Sum::<i64>::new(), 11);
        for v in 0..60 {
            assert_eq!(bint.slide(v), naive.slide(v));
        }
    }

    #[test]
    fn window_one() {
        let mut bint = BInt::new(Sum::<i64>::new(), 1);
        assert_eq!(bint.slide(3), 3);
        assert_eq!(bint.slide(4), 4);
    }

    #[test]
    fn levels_have_halving_sizes() {
        let bint = BInt::new(Sum::<i64>::new(), 16);
        assert_eq!(bint.levels.len(), 5);
        assert_eq!(bint.levels[0].len(), 16);
        assert_eq!(bint.levels[4].len(), 1);
    }
}
