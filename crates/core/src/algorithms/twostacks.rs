//! TwoStacks (paper §2.2): a FIFO window built from two stacks, the classic
//! functional-programming queue trick applied to aggregation.
//!
//! Inserts push `(val, agg)` onto the back stack `B`, where `agg`
//! aggregates everything below (older) plus the new value — one combine.
//! Evicts pop the front stack `F` for free; when `F` is empty the whole of
//! `B` is flipped onto `F`, computing suffix aggregates on the way — an
//! `n`-combine step that produces the latency spikes the paper measures in
//! Exp 3. Queries combine the tops of both stacks.
//!
//! Complexity (Table 1): amortized 3 operations per slide, worst case `n`;
//! space `2n` (every node carries a value and an aggregate). TwoStacks does
//! not support multi-query execution (paper §2.2).

use crate::aggregator::{FinalAggregator, MemoryFootprint};
use crate::invariants::{ensure, partials_agree, strict_check, InvariantViolation};
use crate::ops::AggregateOp;

#[derive(Debug, Clone)]
struct Node<P> {
    val: P,
    agg: P,
}

/// Two-stack FIFO aggregator.
#[derive(Debug, Clone)]
pub struct TwoStacks<O: AggregateOp> {
    op: O,
    /// Front stack: top = oldest element; `agg` = aggregate of this element
    /// and everything above it in window order (suffix of the front part).
    front: Vec<Node<O::Partial>>,
    /// Back stack: top = newest element; `agg` = aggregate of everything
    /// below it plus itself (prefix of the back part).
    back: Vec<Node<O::Partial>>,
    window: usize,
    /// Scratch for the flip/bulk-insert scan kernels (values in, scans
    /// out). Retained across `bulk_insert` calls (batch-sized), but
    /// released after each flip (window-sized) to keep the steady-state
    /// footprint at Table 1's `2n`.
    scan_vals: Vec<O::Partial>,
    scan_aggs: Vec<O::Partial>,
}

impl<O: AggregateOp> TwoStacks<O> {
    /// Create a TwoStacks aggregator; `window` bounds the capacity used by
    /// [`FinalAggregator::slide`], but `insert`/`evict` work for any FIFO
    /// pattern.
    pub fn new(op: O, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one partial");
        TwoStacks {
            op,
            front: Vec::new(),
            back: Vec::new(),
            window,
            scan_vals: Vec::new(),
            scan_aggs: Vec::new(),
        }
    }

    /// The operation driving this aggregator.
    pub fn op(&self) -> &O {
        &self.op
    }

    /// Number of elements currently held.
    pub fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    /// True if the window holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a new (newest) partial: one combine to extend the back
    /// prefix aggregate.
    pub fn insert(&mut self, val: O::Partial) {
        let agg = match self.back.last() {
            Some(top) => self.op.combine(&top.agg, &val),
            None => val.clone(),
        };
        self.back.push(Node { val, agg }); // alloc:amortized window buffer growth is amortized O(1) doubling
    }

    /// Remove the oldest partial. When the front stack is empty this flips
    /// the back stack — the `n`-combine worst-case step.
    ///
    /// Panics if the window is empty.
    pub fn evict(&mut self) {
        if self.front.is_empty() {
            self.flip();
        }
        // check:allow empty-window eviction is a caller bug worth aborting on
        self.front
            .pop()
            .expect("evict from an empty TwoStacks window");
    }

    /// Move every element of `B` onto `F`, building suffix aggregates with
    /// one slice-kernel scan over the stack instead of a pop/push loop with
    /// an `Option` branch per node. The scan's combine order is identical
    /// to the old loop's, so the cached aggregates stay bitwise equal.
    fn flip(&mut self) {
        debug_assert!(self.front.is_empty());
        self.scan_vals.clear();
        self.scan_vals
            .extend(self.back.iter().map(|n| n.val.clone()));
        self.op
            .suffix_scan_into(&self.scan_vals, &mut self.scan_aggs);
        self.front.reserve(self.back.len());
        self.front.extend(
            self.back
                .drain(..)
                .zip(self.scan_aggs.drain(..))
                .rev()
                .map(|(node, agg)| Node { val: node.val, agg }),
        );
        // The flip scratch is window-sized; retaining it would push the
        // steady-state footprint past Table 1's `2n`, so release it here —
        // the flip is already an `O(n)` event, one allocator round-trip is
        // amortized noise. Batch-sized `bulk_insert` scratch stays retained.
        self.scan_vals.clear();
        self.scan_vals.shrink_to_fit();
        self.scan_aggs.shrink_to_fit();
    }

    /// Aggregate of the whole window: tops of both stacks combined.
    pub fn query(&self) -> O::Partial {
        match (self.front.last(), self.back.last()) {
            (Some(f), Some(b)) => self.op.combine(&f.agg, &b.agg),
            (Some(f), None) => f.agg.clone(),
            (None, Some(b)) => b.agg.clone(),
            (None, None) => self.op.identity(),
        }
    }
}

impl<O: AggregateOp> FinalAggregator<O> for TwoStacks<O> {
    const NAME: &'static str = "twostacks";

    fn with_capacity(op: O, window: usize) -> Self {
        TwoStacks::new(op, window)
    }

    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        if self.len() == self.window {
            self.evict();
        }
        self.insert(partial); // alloc:amortized window buffer growth is amortized O(1) doubling
        strict_check!(self);
        self.query()
    }

    fn window(&self) -> usize {
        self.window
    }

    fn len(&self) -> usize {
        TwoStacks::len(self)
    }

    fn evict(&mut self) {
        TwoStacks::evict(self);
        strict_check!(self);
    }

    /// One flip-check for the whole range: truncate the front stack, and
    /// only if it runs out flip the back once and truncate the rest —
    /// instead of `n` flip checks.
    fn bulk_evict(&mut self, n: usize) {
        assert!(n <= self.len(), "evicting {n} of {} partials", self.len()); // check:allow precondition assert documenting the caller contract
        let from_front = n.min(self.front.len());
        self.front.truncate(self.front.len() - from_front);
        let rest = n - from_front;
        if rest > 0 {
            self.flip();
            self.front.truncate(self.front.len() - rest);
        }
        strict_check!(self);
    }

    /// Evict the overflow up front (at most one flip), then extend the back
    /// stack with one seeded prefix scan over the batch: seeding the scan
    /// with the current top prefix aggregate makes `scan[k]` exactly the
    /// aggregate `insert` would have cached, in the same combine order —
    /// bitwise identical, minus the per-element `Option` branch.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        let skip = batch.len().saturating_sub(self.window);
        let tail = &batch[skip..];
        let evictions = (self.len() + tail.len()).saturating_sub(self.window);
        self.bulk_evict(evictions);
        self.scan_vals.clear();
        let seeded = match self.back.last() {
            Some(top) => {
                self.scan_vals.push(top.agg.clone());
                1
            }
            None => 0,
        };
        self.scan_vals.extend_from_slice(tail);
        self.op
            .prefix_scan_into(&self.scan_vals, &mut self.scan_aggs);
        self.back.reserve(tail.len());
        self.back
            .extend(
                tail.iter()
                    .zip(self.scan_aggs.drain(..).skip(seeded))
                    .map(|(val, agg)| Node {
                        val: val.clone(),
                        agg,
                    }),
            );
        strict_check!(self);
    }

    /// TwoStacks invariants (paper §2.2): every node's cached `agg` equals
    /// the fold of its stack region — back nodes carry prefix aggregates
    /// (`agg[k] = combine(agg[k−1], val[k])`, built by `insert`), front
    /// nodes carry suffix aggregates toward the top
    /// (`agg[k] = combine(val[k], agg[k−1])`, built by `flip`). The checker
    /// refolds in exactly those orders, so comparisons are bitwise even for
    /// floats. `top(F) ⊕ top(B)` being the window answer follows directly.
    /// `O(len)` combines.
    ///
    /// The inherent `insert`/`evict` API deliberately allows more than
    /// `window` elements (any FIFO pattern), so no `len ≤ window` check.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        for (k, node) in self.back.iter().enumerate() {
            let expect = if k == 0 {
                node.val.clone()
            } else {
                self.op.combine(&self.back[k - 1].agg, &node.val)
            };
            ensure!(
                Self::NAME,
                "back-prefix-agg",
                partials_agree(&node.agg, &expect),
                "back node {k} caches {:?}, prefix folds to {:?}",
                node.agg,
                expect
            );
        }
        for (k, node) in self.front.iter().enumerate() {
            let expect = if k == 0 {
                node.val.clone()
            } else {
                self.op.combine(&node.val, &self.front[k - 1].agg)
            };
            ensure!(
                Self::NAME,
                "front-suffix-agg",
                partials_agree(&node.agg, &expect),
                "front node {k} caches {:?}, suffix folds to {:?}",
                node.agg,
                expect
            );
        }
        Ok(())
    }
}

impl<O: AggregateOp> MemoryFootprint for TwoStacks<O> {
    fn heap_bytes(&self) -> usize {
        (self.front.capacity() + self.back.capacity()) * core::mem::size_of::<Node<O::Partial>>()
            + (self.scan_vals.capacity() + self.scan_aggs.capacity())
                * core::mem::size_of::<O::Partial>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Naive;
    use crate::ops::{Max, Sum};

    #[test]
    fn matches_naive_on_sum() {
        let mut ts = TwoStacks::new(Sum::<i64>::new(), 4);
        let mut naive = Naive::new(Sum::<i64>::new(), 4);
        for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5] {
            assert_eq!(ts.slide(v), naive.slide(v));
        }
    }

    #[test]
    fn matches_naive_on_max_across_flips() {
        let op = Max::<i64>::new();
        let mut ts = TwoStacks::new(op, 3);
        let mut naive = Naive::new(op, 3);
        for v in [9, 1, 1, 1, 1, 8, 1, 1, 1, 7, 1] {
            assert_eq!(ts.slide(op.lift(&v)), naive.slide(op.lift(&v)));
        }
    }

    #[test]
    fn explicit_insert_evict_query() {
        let mut ts = TwoStacks::new(Sum::<i64>::new(), 10);
        ts.insert(1);
        ts.insert(2);
        ts.insert(3);
        assert_eq!(ts.query(), 6);
        ts.evict();
        assert_eq!(ts.query(), 5);
        ts.evict();
        ts.evict();
        assert_eq!(ts.query(), 0);
        assert!(ts.is_empty());
    }

    #[test]
    fn evict_after_flip_continues_correctly() {
        let mut ts = TwoStacks::new(Sum::<i64>::new(), 10);
        for v in 1..=5 {
            ts.insert(v);
        }
        ts.evict(); // flips 5 elements onto front
        ts.insert(6);
        assert_eq!(ts.query(), 2 + 3 + 4 + 5 + 6);
        ts.evict();
        assert_eq!(ts.query(), 3 + 4 + 5 + 6);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn evict_empty_panics() {
        let mut ts = TwoStacks::new(Sum::<i64>::new(), 2);
        ts.evict();
    }

    #[test]
    fn window_one() {
        let mut ts = TwoStacks::new(Sum::<i64>::new(), 1);
        assert_eq!(ts.slide(5), 5);
        assert_eq!(ts.slide(7), 7);
    }
}
