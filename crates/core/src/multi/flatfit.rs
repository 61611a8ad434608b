//! Multi-query FlatFIT (paper §2.2, §4.1).
//!
//! When queries over many ranges run every slide, FlatFIT's lazily-widened
//! pointers stay maximally updated: after the initial window reset, every
//! stored partial is a suffix aggregate reaching the newest slot, so each
//! slide extends the `n − 1` live suffixes by one combine each and answers
//! every registered range with zero additional operations — the paper's
//! non-amortized `n − 1` operations per slide. Both the `partials` and
//! `pointers` arrays are kept (space `2n`), with the pointers degenerate
//! (all reaching the newest slot) exactly as the maximally-updated state
//! implies.

use crate::aggregator::{normalize_ranges, MemoryFootprint, MultiFinalAggregator};
use crate::ops::AggregateOp;

/// Index-traverser multi-query aggregator in its maximally-updated regime.
#[derive(Debug, Clone)]
pub struct MultiFlatFit<O: AggregateOp> {
    op: O,
    /// `partials[i]` = suffix aggregate of slots `i..=newest`.
    partials: Vec<O::Partial>,
    /// Skip pointers (maximally updated: one past the newest slot).
    pointers: Vec<usize>,
    ranges: Vec<usize>,
    wsize: usize,
    curr: usize,
    len: usize,
}

impl<O: AggregateOp> MultiFlatFit<O> {
    /// Create a multi-query FlatFIT for the given ranges.
    pub fn new(op: O, ranges: &[usize]) -> Self {
        let ranges = normalize_ranges(ranges);
        let wsize = ranges[0];
        let partials = (0..wsize).map(|_| op.identity()).collect();
        let pointers = (0..wsize).map(|i| (i + 1) % wsize).collect();
        MultiFlatFit {
            op,
            partials,
            pointers,
            ranges,
            wsize,
            curr: 0,
            len: 0,
        }
    }
}

impl<O: AggregateOp> MultiFinalAggregator<O> for MultiFlatFit<O> {
    const NAME: &'static str = "flatfit";

    fn with_ranges(op: O, ranges: &[usize]) -> Self {
        MultiFlatFit::new(op, ranges)
    }

    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        out.clear();
        let newest = self.curr;
        let after_newest = (newest + 1) % self.wsize;
        self.partials[newest] = partial; // check:allow index kept in-bounds by the ring/stack invariant
        self.pointers[newest] = after_newest; // check:allow index kept in-bounds by the ring/stack invariant
        self.len = (self.len + 1).min(self.wsize);
        // Extend every other live suffix by the new value: n − 1 combines.
        for k in 1..self.len {
            let i = (newest + self.wsize - k) % self.wsize;
            self.partials[i] = self.op.combine(&self.partials[i], &self.partials[newest]); // check:allow index kept in-bounds by the ring/stack invariant
            self.pointers[i] = after_newest; // check:allow index kept in-bounds by the ring/stack invariant
        }
        for &r in &self.ranges {
            let start = (newest + self.wsize + 1 - r) % self.wsize;
            let idx = if r > self.len {
                // Warm-up: the full range is not populated yet; the oldest
                // live slot holds the widest suffix.
                (newest + self.wsize + 1 - self.len) % self.wsize
            } else {
                start
            };
            out.push(self.partials[idx].clone()); // alloc:amortized window buffer growth is amortized O(1) doubling; check:allow index kept in-bounds by the ring/stack invariant
        }
        self.curr = after_newest;
    }

    fn ranges(&self) -> &[usize] {
        &self.ranges
    }
}

impl<O: AggregateOp> MemoryFootprint for MultiFlatFit<O> {
    fn heap_bytes(&self) -> usize {
        self.partials.capacity() * core::mem::size_of::<O::Partial>()
            + self.pointers.capacity() * core::mem::size_of::<usize>()
            + self.ranges.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CountingOp, Max, OpCounter, Sum};

    #[test]
    fn answers_match_hand_computation() {
        let mut agg = MultiFlatFit::new(Sum::<i64>::new(), &[4, 2]);
        let mut out = Vec::new();
        for (v, expect) in [
            (1, vec![1, 1]),
            (2, vec![3, 3]),
            (3, vec![6, 5]),
            (4, vec![10, 7]),
            (5, vec![14, 9]),
        ] {
            agg.slide_multi(v, &mut out);
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn max_multi_costs_n_minus_one_per_slide() {
        let n = 16usize;
        let ranges: Vec<usize> = (1..=n).collect();
        let counter = OpCounter::new();
        let op = CountingOp::new(Sum::<i64>::new(), counter.clone());
        let mut agg = MultiFlatFit::new(op, &ranges);
        let mut out = Vec::new();
        for v in 0..(2 * n as i64) {
            agg.slide_multi(v, &mut out);
        }
        counter.reset();
        let slides = 100u64;
        for v in 0..slides as i64 {
            agg.slide_multi(v, &mut out);
        }
        assert_eq!(counter.get(), slides * (n as u64 - 1));
    }

    #[test]
    fn max_answers() {
        let op = Max::<i64>::new();
        let mut agg = MultiFlatFit::new(op, &[3, 2]);
        let mut out = Vec::new();
        agg.slide_multi(op.lift(&5), &mut out);
        agg.slide_multi(op.lift(&9), &mut out);
        agg.slide_multi(op.lift(&1), &mut out);
        assert_eq!(out, vec![Some(9), Some(9)]);
        agg.slide_multi(op.lift(&2), &mut out);
        assert_eq!(out, vec![Some(9), Some(2)]);
        agg.slide_multi(op.lift(&0), &mut out);
        assert_eq!(out, vec![Some(2), Some(2)]);
    }
}
