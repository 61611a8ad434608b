//! Sparse multi-query FlatFIT: the index-traverser mechanism itself
//! (paper §2.2) serving an arbitrary registered range set.
//!
//! Where [`MultiFlatFit`](crate::multi::MultiFlatFit) implements the
//! *maximally-updated* regime the paper analyses for the max-multi-query
//! environment (every range 1..=n queried each slide → dense suffix
//! updates, exactly n−1 combines), this variant keeps the lazy skip
//! pointers and the `positions` stack: each query's answer walks the
//! pointer chain from its own range start, and the unwind widens every
//! visited entry into a suffix reaching the newest slot. Later (smaller)
//! ranges in the same slide reuse the entries just widened — the paper's
//! "additional partial result reuse between all ACQs on the stream".
//!
//! For sparse range sets this does far fewer combines than the dense
//! variant; in the max-multi limit the two coincide.

use crate::aggregator::{normalize_ranges, MemoryFootprint, MultiFinalAggregator};
use crate::ops::AggregateOp;

/// Lazy index-traverser multi-query aggregator.
#[derive(Debug, Clone)]
pub struct MultiFlatFitSparse<O: AggregateOp> {
    op: O,
    /// `partials[i]` aggregates slots `[i, pointers[i])` (circular, never
    /// crossing the newest slot).
    partials: Vec<O::Partial>,
    /// Skip pointers: one past the last slot covered by `partials[i]`.
    pointers: Vec<usize>,
    /// Scratch stack of visited indices (the paper's `positions`).
    positions: Vec<usize>,
    ranges: Vec<usize>,
    wsize: usize,
    curr: usize,
    len: usize,
}

impl<O: AggregateOp> MultiFlatFitSparse<O> {
    /// Create a sparse multi-query FlatFIT for the given ranges.
    pub fn new(op: O, ranges: &[usize]) -> Self {
        let ranges = normalize_ranges(ranges);
        let wsize = ranges[0];
        let partials = (0..wsize).map(|_| op.identity()).collect();
        let pointers = (0..wsize).map(|i| (i + 1) % wsize).collect();
        MultiFlatFitSparse {
            op,
            partials,
            pointers,
            positions: Vec::new(),
            ranges,
            wsize,
            curr: 0,
            len: 0,
        }
    }

    /// Walk the pointer chain from `start` to `newest`, returning
    /// Σ `[start..=newest]` and widening every visited entry.
    ///
    /// An entry widened *earlier in the same slide* (by a larger range's
    /// traversal) already points one past `newest`; such a segment covers
    /// everything remaining and terminates the walk — without this check
    /// the chain would jump over `newest` and never land on it.
    fn traverse_and_update(&mut self, start: usize, newest: usize) -> O::Partial {
        debug_assert!(self.positions.is_empty());
        let after_newest = (newest + 1) % self.wsize;
        let mut i = start;
        while i != newest && self.pointers[i] != after_newest {
            self.positions.push(i); // alloc:amortized window buffer growth is amortized O(1) doubling
            i = self.pointers[i];
        }
        // `i` begins the final segment, which covers [i ..= newest].
        let mut acc = self.partials[i].clone();
        while let Some(j) = self.positions.pop() {
            acc = self.op.combine(&self.partials[j], &acc);
            self.partials[j] = acc.clone();
            self.pointers[j] = after_newest;
        }
        acc
    }
}

impl<O: AggregateOp> MultiFinalAggregator<O> for MultiFlatFitSparse<O> {
    const NAME: &'static str = "flatfit_sparse";

    fn with_ranges(op: O, ranges: &[usize]) -> Self {
        MultiFlatFitSparse::new(op, ranges)
    }

    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        out.clear();
        let newest = self.curr;
        self.partials[newest] = partial;
        self.pointers[newest] = (newest + 1) % self.wsize;
        self.len = (self.len + 1).min(self.wsize);
        for k in 0..self.ranges.len() {
            let r = self.ranges[k];
            let answer = if self.wsize == 1 || r == 1 {
                self.partials[newest].clone()
            } else {
                // During warm-up a range larger than the fill starts at
                // slot 0 (the oldest live slot).
                let start = if r > self.len {
                    (newest + self.wsize + 1 - self.len) % self.wsize
                } else {
                    (newest + self.wsize + 1 - r) % self.wsize
                };
                if start == newest {
                    self.partials[newest].clone()
                } else {
                    self.traverse_and_update(start, newest)
                }
            };
            out.push(answer); // alloc:amortized window buffer growth is amortized O(1) doubling
        }
        self.curr = (self.curr + 1) % self.wsize;
    }

    fn ranges(&self) -> &[usize] {
        &self.ranges
    }
}

impl<O: AggregateOp> MemoryFootprint for MultiFlatFitSparse<O> {
    fn heap_bytes(&self) -> usize {
        self.partials.capacity() * core::mem::size_of::<O::Partial>()
            + self.pointers.capacity() * core::mem::size_of::<usize>()
            + self.positions.capacity() * core::mem::size_of::<usize>()
            + self.ranges.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiNaive;
    use crate::ops::{CountingOp, Max, OpCounter, Sum};

    fn pseudo_random(len: usize) -> Vec<i64> {
        let mut x = 0x12345678u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 1000) as i64
            })
            .collect()
    }

    #[test]
    fn matches_multi_naive_on_sparse_ranges() {
        let ranges = [37usize, 12, 5];
        let stream = pseudo_random(500);
        let op = Sum::<i64>::new();
        let mut sparse = MultiFlatFitSparse::with_ranges(op, &ranges);
        let mut naive = MultiNaive::with_ranges(op, &ranges);
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for (i, &v) in stream.iter().enumerate() {
            sparse.slide_multi(v, &mut o1);
            naive.slide_multi(v, &mut o2);
            assert_eq!(o1, o2, "slide {i}");
        }
    }

    #[test]
    fn matches_multi_naive_on_max() {
        let ranges = [29usize, 16, 9, 2, 1];
        let stream = pseudo_random(400);
        let op = Max::<i64>::new();
        let mut sparse = MultiFlatFitSparse::with_ranges(op, &ranges);
        let mut naive = MultiNaive::with_ranges(op, &ranges);
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for (i, &v) in stream.iter().enumerate() {
            sparse.slide_multi(op.lift(&v), &mut o1);
            naive.slide_multi(op.lift(&v), &mut o2);
            assert_eq!(o1, o2, "slide {i}");
        }
    }

    #[test]
    fn max_multi_limit_matches_dense_variant() {
        use crate::multi::MultiFlatFit;
        let n = 24usize;
        let ranges: Vec<usize> = (1..=n).collect();
        let stream = pseudo_random(5 * n);
        let op = Sum::<i64>::new();
        let mut sparse = MultiFlatFitSparse::with_ranges(op, &ranges);
        let mut dense = MultiFlatFit::with_ranges(op, &ranges);
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for &v in &stream {
            sparse.slide_multi(v, &mut o1);
            dense.slide_multi(v, &mut o2);
            assert_eq!(o1, o2);
        }
    }

    #[test]
    fn sparse_ranges_cost_less_than_dense_updates() {
        // Three registered ranges on a 256-slot window: the lazy pointers
        // should do far fewer combines per slide than the dense n−1.
        let n = 256usize;
        let ranges = [n, 17, 3];
        let counter = OpCounter::new();
        let op = CountingOp::new(Sum::<i64>::new(), counter.clone());
        let mut sparse = MultiFlatFitSparse::with_ranges(op, &ranges);
        let mut out = Vec::new();
        let stream = pseudo_random(4 * n);
        for &v in &stream[..2 * n] {
            sparse.slide_multi(v, &mut out);
        }
        counter.reset();
        for &v in &stream[2 * n..] {
            sparse.slide_multi(v, &mut out);
        }
        let per_slide = counter.get() as f64 / (2 * n) as f64;
        assert!(
            per_slide < 12.0,
            "sparse FlatFIT should amortize to a handful of combines, got {per_slide}"
        );
    }

    #[test]
    fn single_range_degenerates_to_flatfit() {
        use crate::aggregator::FinalAggregator;
        use crate::algorithms::FlatFit;
        let stream = pseudo_random(300);
        let op = Sum::<i64>::new();
        let mut sparse = MultiFlatFitSparse::with_ranges(op, &[19]);
        let mut single = FlatFit::new(op, 19);
        let mut out = Vec::new();
        for &v in &stream {
            sparse.slide_multi(v, &mut out);
            assert_eq!(out[0], single.slide(v));
        }
    }

    #[test]
    fn window_one() {
        let op = Sum::<i64>::new();
        let mut sparse = MultiFlatFitSparse::with_ranges(op, &[1]);
        let mut out = Vec::new();
        sparse.slide_multi(5, &mut out);
        assert_eq!(out, vec![5]);
        sparse.slide_multi(7, &mut out);
        assert_eq!(out, vec![7]);
    }
}
