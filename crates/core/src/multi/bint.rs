//! Multi-query B-Int: every registered range is decomposed into the
//! minimum number of dyadic base intervals and aggregated (paper §2.2,
//! Fig. 5). Same asymptotics as multi-query FlatFAT, slower by a constant.

use crate::aggregator::{normalize_ranges, MemoryFootprint, MultiFinalAggregator};
use crate::algorithms::BInt;
use crate::ops::AggregateOp;

/// Base-interval multi-query aggregator.
#[derive(Debug, Clone)]
pub struct MultiBInt<O: AggregateOp> {
    intervals: BInt<O>,
    ranges: Vec<usize>,
    wsize: usize,
    curr: usize,
}

impl<O: AggregateOp> MultiBInt<O> {
    /// Create a multi-query B-Int for the given ranges.
    pub fn new(op: O, ranges: &[usize]) -> Self {
        let ranges = normalize_ranges(ranges);
        let wsize = ranges[0];
        MultiBInt {
            intervals: BInt::new(op, wsize),
            ranges,
            wsize,
            curr: 0,
        }
    }
}

impl<O: AggregateOp> MultiFinalAggregator<O> for MultiBInt<O> {
    const NAME: &'static str = "bint";

    fn with_ranges(op: O, ranges: &[usize]) -> Self {
        MultiBInt::new(op, ranges)
    }

    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        out.clear();
        self.intervals.update_slot(self.curr, partial);
        for &r in &self.ranges {
            let start = (self.curr + self.wsize + 1 - r) % self.wsize;
            out.push(self.intervals.query_range(start, r)); // alloc:amortized window buffer growth is amortized O(1) doubling
        }
        self.curr = (self.curr + 1) % self.wsize;
    }

    fn ranges(&self) -> &[usize] {
        &self.ranges
    }
}

impl<O: AggregateOp> MemoryFootprint for MultiBInt<O> {
    fn heap_bytes(&self) -> usize {
        self.intervals.heap_bytes() + self.ranges.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Sum;

    #[test]
    fn answers_match_hand_computation() {
        let mut agg = MultiBInt::new(Sum::<i64>::new(), &[4, 2, 1]);
        let mut out = Vec::new();
        agg.slide_multi(10, &mut out);
        assert_eq!(out, vec![10, 10, 10]);
        agg.slide_multi(20, &mut out);
        assert_eq!(out, vec![30, 30, 20]);
        agg.slide_multi(30, &mut out);
        assert_eq!(out, vec![60, 50, 30]);
        agg.slide_multi(40, &mut out);
        assert_eq!(out, vec![100, 70, 40]);
        agg.slide_multi(50, &mut out);
        assert_eq!(out, vec![140, 90, 50]);
    }
}
