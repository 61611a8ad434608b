//! Naive final aggregation (the Panes technique of §2.1/§2.2): keep the
//! window's partials in a circular array and re-aggregate the whole window
//! on every slide.
//!
//! Complexity (Table 1): exactly `n − 1` operations per slide for a window
//! of `n` partials; space `n`. The implementation folds left-to-right in
//! window order, so non-commutative operations are handled correctly.

use crate::aggregator::{FinalAggregator, MemoryFootprint, SlotRanges};
use crate::invariants::{ensure, strict_check, InvariantViolation};
use crate::ops::AggregateOp;

/// Circular-buffer re-evaluating aggregator (the paper's *Naive* baseline).
#[derive(Debug, Clone)]
pub struct Naive<O: AggregateOp> {
    op: O,
    partials: Vec<O::Partial>,
    window: usize,
    /// Next slot to overwrite (the oldest once the window is full).
    curr: usize,
    len: usize,
}

impl<O: AggregateOp> Naive<O> {
    /// Create a naive aggregator over a window of `window` partials.
    pub fn new(op: O, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one partial");
        let partials = (0..window).map(|_| op.identity()).collect();
        Naive {
            op,
            partials,
            window,
            curr: 0,
            len: 0,
        }
    }

    /// The operation driving this aggregator.
    pub fn op(&self) -> &O {
        &self.op
    }

    /// Aggregate of the current window contents, folding in window order.
    pub fn query(&self) -> O::Partial {
        // Oldest live slot.
        let start = (self.curr + self.window - self.len) % self.window;
        self.query_range(start, self.len)
    }
}

impl<O: AggregateOp> FinalAggregator<O> for Naive<O> {
    const NAME: &'static str = "naive";

    fn with_capacity(op: O, window: usize) -> Self {
        Naive::new(op, window)
    }

    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        self.partials[self.curr] = partial; // check:allow index kept in-bounds by the ring/stack invariant
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

    /// Direct ring fill: sliding would cost O(len) per partial for the
    /// query, making large-window warm-up quadratic.
    fn warm(&mut self, partials: &mut dyn Iterator<Item = O::Partial>) {
        for p in partials {
            self.partials[self.curr] = p;
            self.curr = (self.curr + 1) % self.window;
            self.len = (self.len + 1).min(self.window);
        }
        strict_check!(self);
    }

    /// O(1): the expired slot is simply excluded from the live range.
    fn evict(&mut self) {
        assert!(self.len > 0, "evict from an empty naive window"); // check:allow precondition assert documenting the caller contract
        self.len -= 1;
        strict_check!(self);
    }

    /// O(1) for any `n`: pure length arithmetic on the ring.
    fn bulk_evict(&mut self, n: usize) {
        assert!(n <= self.len, "evicting {n} of {} partials", self.len); // check:allow precondition assert documenting the caller contract
        self.len -= n;
        strict_check!(self);
    }

    /// Direct ring fill, zero combines — the per-slide O(n) re-aggregation
    /// only happens on `slide`/`query`, never on insertion.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        for p in batch {
            self.partials[self.curr] = p.clone(); // check:allow index kept in-bounds by the ring/stack invariant
            self.curr = (self.curr + 1) % self.window;
            self.len = (self.len + 1).min(self.window);
        }
        strict_check!(self);
    }

    /// Ring-accounting invariants: the backing array never resizes, the
    /// write cursor stays inside it, and the live count never exceeds the
    /// window. Naive holds no derived aggregate state (every query refolds
    /// the ring), so the structural checks are the whole story.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure!(
            Self::NAME,
            "ring-size",
            self.partials.len() == self.window,
            "ring holds {} slots for window {}",
            self.partials.len(),
            self.window
        );
        ensure!(
            Self::NAME,
            "cursor-in-ring",
            self.curr < self.window,
            "curr {} outside window {}",
            self.curr,
            self.window
        );
        ensure!(
            Self::NAME,
            "len-bounded",
            self.len <= self.window,
            "len {} exceeds window {}",
            self.len,
            self.window
        );
        Ok(())
    }
}

impl<O: AggregateOp> SlotRanges<O> for Naive<O> {
    fn set_slot(&mut self, pos: usize, p: O::Partial) {
        self.partials[pos] = p; // check:allow index kept in-bounds by the ring/stack invariant
    }

    /// The ring fold: exactly `count − 1` combines, oldest first. Slots
    /// not yet written hold the identity, so a multi-query range during
    /// warm-up still pays its full `r − 1` (the paper's Example 2
    /// accounting).
    fn query_range(&self, start: usize, count: usize) -> O::Partial {
        if count == 0 {
            return self.op.identity();
        }
        let mut acc = self.partials[start].clone(); // check:allow index kept in-bounds by the ring/stack invariant
        for i in 1..count {
            let idx = (start + i) % self.window;
            acc = self.op.combine(&acc, &self.partials[idx]); // check:allow index kept in-bounds by the ring/stack invariant
        }
        acc
    }
}

impl<O: AggregateOp> MemoryFootprint for Naive<O> {
    fn heap_bytes(&self) -> usize {
        self.partials.capacity() * core::mem::size_of::<O::Partial>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Max, Sum};

    #[test]
    fn sum_window_three() {
        let mut agg = Naive::new(Sum::<i64>::new(), 3);
        assert_eq!(agg.slide(1), 1);
        assert_eq!(agg.slide(2), 3);
        assert_eq!(agg.slide(3), 6);
        assert_eq!(agg.slide(4), 9); // 2 + 3 + 4
        assert_eq!(agg.slide(5), 12); // 3 + 4 + 5
    }

    #[test]
    fn max_window_two() {
        let op = Max::<i64>::new();
        let mut agg = Naive::new(op, 2);
        assert_eq!(agg.slide(op.lift(&5)), Some(5));
        assert_eq!(agg.slide(op.lift(&1)), Some(5));
        assert_eq!(agg.slide(op.lift(&2)), Some(2)); // 5 expired
    }

    #[test]
    fn window_one_tracks_latest() {
        let mut agg = Naive::new(Sum::<i64>::new(), 1);
        assert_eq!(agg.slide(7), 7);
        assert_eq!(agg.slide(9), 9);
    }

    #[test]
    fn empty_query_is_identity() {
        let agg = Naive::new(Sum::<i64>::new(), 4);
        assert_eq!(agg.query(), 0);
        assert!(agg.is_empty());
    }

    #[test]
    fn warmup_covers_partial_window() {
        let mut agg = Naive::new(Sum::<i64>::new(), 10);
        assert_eq!(agg.slide(1), 1);
        assert_eq!(agg.slide(2), 3);
        assert_eq!(agg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = Naive::new(Sum::<i64>::new(), 0);
    }
}
