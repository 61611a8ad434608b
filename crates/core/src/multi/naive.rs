//! Multi-query Naive: one circular partials array shared by all queries,
//! each answered by re-aggregating its full range every slide — the
//! paper's multi-query baseline with `Σ (r−1) = n²/2 − n/2` operations per
//! slide in the max-multi-query environment, and space `n` ("additional
//! queries do not require any additional structures", §4.2).

use crate::aggregator::{normalize_ranges, MemoryFootprint, MultiFinalAggregator};
use crate::ops::AggregateOp;

/// Shared-window re-evaluating multi-query aggregator.
#[derive(Debug, Clone)]
pub struct MultiNaive<O: AggregateOp> {
    op: O,
    partials: Vec<O::Partial>,
    ranges: Vec<usize>,
    wsize: usize,
    curr: usize,
}

impl<O: AggregateOp> MultiNaive<O> {
    /// Create a multi-query Naive for the given ranges.
    pub fn new(op: O, ranges: &[usize]) -> Self {
        let ranges = normalize_ranges(ranges);
        let wsize = ranges[0];
        let partials = (0..wsize).map(|_| op.identity()).collect();
        MultiNaive {
            op,
            partials,
            ranges,
            wsize,
            curr: 0,
        }
    }
}

impl<O: AggregateOp> MultiFinalAggregator<O> for MultiNaive<O> {
    const NAME: &'static str = "naive";

    fn with_ranges(op: O, ranges: &[usize]) -> Self {
        MultiNaive::new(op, ranges)
    }

    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        out.clear();
        self.partials[self.curr] = partial; // check:allow index kept in-bounds by the ring/stack invariant
        for &r in &self.ranges {
            // Fold the r slots ending at curr, oldest first. Identity
            // padding during warm-up keeps this exactly r−1 combines, as
            // in the paper's Example 2 accounting.
            let start = (self.curr + self.wsize + 1 - r) % self.wsize;
            let mut acc = self.partials[start].clone(); // check:allow index kept in-bounds by the ring/stack invariant
            for k in 1..r {
                let idx = (start + k) % self.wsize;
                acc = self.op.combine(&acc, &self.partials[idx]); // check:allow index kept in-bounds by the ring/stack invariant
            }
            out.push(acc); // alloc:amortized window buffer growth is amortized O(1) doubling
        }
        self.curr = (self.curr + 1) % self.wsize;
    }

    fn ranges(&self) -> &[usize] {
        &self.ranges
    }
}

impl<O: AggregateOp> MemoryFootprint for MultiNaive<O> {
    fn heap_bytes(&self) -> usize {
        self.partials.capacity() * core::mem::size_of::<O::Partial>()
            + self.ranges.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Sum;

    #[test]
    fn answers_descending_ranges() {
        let mut agg = MultiNaive::new(Sum::<i64>::new(), &[2, 4]);
        let mut out = Vec::new();
        agg.slide_multi(1, &mut out);
        assert_eq!(out, vec![1, 1]);
        agg.slide_multi(2, &mut out);
        assert_eq!(out, vec![3, 3]);
        agg.slide_multi(3, &mut out);
        assert_eq!(out, vec![6, 5]);
        agg.slide_multi(4, &mut out);
        assert_eq!(out, vec![10, 7]);
        agg.slide_multi(5, &mut out);
        assert_eq!(out, vec![14, 9]);
    }

    #[test]
    fn single_range_degenerates_to_single_query() {
        let mut agg = MultiNaive::new(Sum::<i64>::new(), &[3]);
        let mut out = Vec::new();
        for (v, expect) in [(1, 1), (2, 3), (3, 6), (4, 9)] {
            agg.slide_multi(v, &mut out);
            assert_eq!(out, vec![expect]);
        }
    }

    #[test]
    fn range_one_is_latest_value() {
        let mut agg = MultiNaive::new(Sum::<i64>::new(), &[1, 3]);
        let mut out = Vec::new();
        agg.slide_multi(10, &mut out);
        agg.slide_multi(20, &mut out);
        assert_eq!(out, vec![30, 20]);
    }
}
