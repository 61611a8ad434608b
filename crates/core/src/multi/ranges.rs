//! The multi-query baselines as single-query structures plus an answers
//! loop (paper §2.3, Alg. 1/2): one window of `max(range)` slots shared by
//! every query, each slide writing the arrival into one slot and answering
//! each registered range with one [`SlotRanges::query_range`].
//!
//! The structure fixes the cost: [`MultiNaive`] refolds every range —
//! `Σ (r−1) = n²/2 − n/2` operations per slide in the max-multi-query
//! environment, space `n`; [`MultiFlatFat`] aggregates a minimal O(log n)
//! node cover per range ("aggregating a minimum set of internal nodes that
//! covers the required range of leaves", §2.2); [`MultiBInt`] decomposes
//! each range into dyadic base intervals (Fig. 5) — both `n·log n` per
//! slide, B-Int slower by a constant.

use crate::aggregator::{normalize_ranges, MemoryFootprint, MultiFinalAggregator, SlotRanges};
use crate::algorithms::{BInt, FlatFat, Naive};
use crate::ops::AggregateOp;

/// Multi-query aggregator over a shared ring of slots `S`.
#[derive(Debug, Clone)]
pub struct MultiRanges<S> {
    slots: S,
    ranges: Vec<usize>,
    wsize: usize,
    curr: usize,
}

/// Shared-window re-evaluating multi-query aggregator.
pub type MultiNaive<O> = MultiRanges<Naive<O>>;

/// Tree-based multi-query aggregator.
pub type MultiFlatFat<O> = MultiRanges<FlatFat<O>>;

/// Base-interval multi-query aggregator.
pub type MultiBInt<O> = MultiRanges<BInt<O>>;

impl<S> MultiRanges<S> {
    /// Create a multi-query aggregator for the given ranges.
    pub fn new<O: AggregateOp>(op: O, ranges: &[usize]) -> Self
    where
        S: SlotRanges<O>,
    {
        let ranges = normalize_ranges(ranges);
        let wsize = ranges[0];
        MultiRanges {
            slots: S::with_capacity(op, wsize),
            ranges,
            wsize,
            curr: 0,
        }
    }
}

impl<O: AggregateOp, S: SlotRanges<O>> MultiFinalAggregator<O> for MultiRanges<S> {
    const NAME: &'static str = S::NAME;

    fn with_ranges(op: O, ranges: &[usize]) -> Self {
        MultiRanges::new(op, ranges)
    }

    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        out.clear();
        self.slots.set_slot(self.curr, partial);
        for &r in &self.ranges {
            let start = (self.curr + self.wsize + 1 - r) % self.wsize;
            out.push(self.slots.query_range(start, r)); // alloc:amortized window buffer growth is amortized O(1) doubling
        }
        self.curr = (self.curr + 1) % self.wsize;
    }

    fn ranges(&self) -> &[usize] {
        &self.ranges
    }
}

impl<S: MemoryFootprint> MemoryFootprint for MultiRanges<S> {
    fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes() + self.ranges.capacity() * core::mem::size_of::<usize>()
    }
}
