//! Multi-query FlatFAT: the circular binary tree answers each registered
//! range with an O(log n) minimal node cover (paper §2.2: "aggregating a
//! minimum set of internal nodes that covers the required range of
//! leaves"), giving `n·log n` operations per slide in the max-multi-query
//! environment.

use crate::aggregator::{normalize_ranges, MemoryFootprint, MultiFinalAggregator};
use crate::algorithms::FlatFat;
use crate::ops::AggregateOp;

/// Tree-based multi-query aggregator.
#[derive(Debug, Clone)]
pub struct MultiFlatFat<O: AggregateOp> {
    tree: FlatFat<O>,
    ranges: Vec<usize>,
    wsize: usize,
    curr: usize,
}

impl<O: AggregateOp> MultiFlatFat<O> {
    /// Create a multi-query FlatFAT for the given ranges.
    pub fn new(op: O, ranges: &[usize]) -> Self {
        let ranges = normalize_ranges(ranges);
        let wsize = ranges[0];
        MultiFlatFat {
            tree: FlatFat::new(op, wsize),
            ranges,
            wsize,
            curr: 0,
        }
    }
}

impl<O: AggregateOp> MultiFinalAggregator<O> for MultiFlatFat<O> {
    const NAME: &'static str = "flatfat";

    fn with_ranges(op: O, ranges: &[usize]) -> Self {
        MultiFlatFat::new(op, ranges)
    }

    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        out.clear();
        self.tree.update_leaf(self.curr, partial);
        for &r in &self.ranges {
            let start = (self.curr + self.wsize + 1 - r) % self.wsize;
            out.push(self.tree.query_range(start, r)); // alloc:amortized window buffer growth is amortized O(1) doubling
        }
        self.curr = (self.curr + 1) % self.wsize;
    }

    fn ranges(&self) -> &[usize] {
        &self.ranges
    }
}

impl<O: AggregateOp> MemoryFootprint for MultiFlatFat<O> {
    fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes() + self.ranges.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Max, Sum};

    #[test]
    fn answers_match_hand_computation() {
        let mut agg = MultiFlatFat::new(Sum::<i64>::new(), &[4, 2]);
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
    fn max_over_multiple_ranges() {
        let op = Max::<i64>::new();
        let mut agg = MultiFlatFat::new(op, &[3, 1]);
        let mut out = Vec::new();
        agg.slide_multi(op.lift(&9), &mut out);
        agg.slide_multi(op.lift(&2), &mut out);
        agg.slide_multi(op.lift(&5), &mut out);
        assert_eq!(out, vec![Some(9), Some(5)]);
        agg.slide_multi(op.lift(&1), &mut out);
        assert_eq!(out, vec![Some(5), Some(1)]);
    }
}
