//! FlatFAT — the Flat Fixed-sized Aggregator (paper §2.2, Fig. 4).
//!
//! Partials live in the leaves of a pre-allocated, pointer-less binary tree
//! stored as a flat array (node `i` has children `2i` and `2i+1`). The
//! leaves form a circular array; every insert overwrites a leaf and walks
//! its root path bottom-up, costing exactly `log₂(m)` combines for `m`
//! leaves. Whole-window look-ups read the root; arbitrary ranges are
//! answered by aggregating a minimal O(log n) cover of internal nodes
//! ([`FlatFat::query_range`]).
//!
//! Complexity (Table 1): `log₂(n)` per slide single-query, `n·log(n)`
//! max-multi-query; space `2·2^⌈log n⌉` (i.e. `2n` at powers of two, up to
//! `3n`... strictly `4n` counting both leaf and internal levels after
//! rounding — the paper's `2^⌈log(n)⌉·2` formulation).

use crate::aggregator::{FinalAggregator, MemoryFootprint};
use crate::invariants::{ensure, partials_agree, strict_check, InvariantViolation};
use crate::ops::AggregateOp;

/// Pointer-less circular binary tree aggregator.
#[derive(Debug, Clone)]
pub struct FlatFat<O: AggregateOp> {
    op: O,
    /// Heap-layout tree; `tree[1]` is the root, leaves at `m..2m`.
    tree: Vec<O::Partial>,
    /// Leaf count (window rounded up to a power of two).
    m: usize,
    window: usize,
    /// Next window slot (0..window) to overwrite.
    curr: usize,
    len: usize,
}

impl<O: AggregateOp> FlatFat<O> {
    /// Create a FlatFAT over a window of `window` partials. The leaf level
    /// is rounded up to the next power of two; the unused leaves stay at
    /// the identity so the root always equals the window aggregate.
    pub fn new(op: O, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one partial");
        let m = window.next_power_of_two();
        let tree = (0..2 * m).map(|_| op.identity()).collect();
        FlatFat {
            op,
            tree,
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

    /// Overwrite leaf `pos` (a window slot) and update its root path —
    /// exactly `log₂(m)` combines.
    pub fn update_leaf(&mut self, pos: usize, value: O::Partial) {
        debug_assert!(pos < self.m);
        let mut i = self.m + pos;
        self.tree[i] = value;
        i >>= 1;
        while i >= 1 {
            self.tree[i] = self.op.combine(&self.tree[2 * i], &self.tree[2 * i + 1]);
            i >>= 1;
        }
    }

    /// The root value: the aggregate of every leaf.
    ///
    /// Because evicted/unused leaves hold the identity this equals the
    /// window aggregate, in *leaf* order. Leaf order coincides with window
    /// order up to rotation, so this is the window aggregate for
    /// commutative operations (all operations in the paper's evaluation);
    /// for non-commutative operations use [`query_in_order`].
    ///
    /// [`query_in_order`]: FlatFat::query_in_order
    pub fn query_root(&self) -> O::Partial {
        self.tree[1].clone()
    }

    /// Window aggregate folding the live leaves in true window order
    /// (oldest→newest), correct for non-commutative operations. Costs up to
    /// `2·log₂(m)` combines.
    pub fn query_in_order(&self) -> O::Partial {
        if self.len == 0 {
            return self.op.identity();
        }
        let start = (self.curr + self.window - self.len) % self.window;
        self.query_range(start, self.len)
    }

    /// Aggregate the `count` leaves starting at window slot `start`,
    /// wrapping circularly, in window order.
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

    /// Standard iterative segment-tree range query over leaves
    /// `[lo, hi)`, preserving left-to-right order for non-commutative ops.
    fn range_non_wrapping(&self, lo: usize, hi: usize) -> O::Partial {
        debug_assert!(lo < hi && hi <= self.m);
        let mut res_left: Option<O::Partial> = None;
        let mut res_right: Option<O::Partial> = None;
        let mut l = self.m + lo;
        let mut r = self.m + hi;
        while l < r {
            if l & 1 == 1 {
                res_left = Some(match res_left {
                    None => self.tree[l].clone(),
                    Some(acc) => self.op.combine(&acc, &self.tree[l]),
                });
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                res_right = Some(match res_right {
                    None => self.tree[r].clone(),
                    Some(acc) => self.op.combine(&self.tree[r], &acc),
                });
            }
            l >>= 1;
            r >>= 1;
        }
        match (res_left, res_right) {
            (Some(a), Some(b)) => self.op.combine(&a, &b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => self.op.identity(),
        }
    }

    /// Recompute the ancestors of leaf slots `[lo, hi)` level by level —
    /// `O((hi − lo) + log m)` combines, one contiguous sweep per level.
    /// Every parent is recomputed from its *current* children in exactly
    /// [`update_leaf`](Self::update_leaf)'s combine order, so the cached
    /// internal nodes end up bitwise identical to per-leaf root walks.
    fn rebuild_leaves(&mut self, lo: usize, hi: usize) {
        debug_assert!(lo < hi && hi <= self.m);
        let mut lo = self.m + lo;
        let mut hi = self.m + hi;
        while lo > 1 {
            lo >>= 1;
            hi = (hi + 1) >> 1;
            for i in lo..hi {
                self.tree[i] = self.op.combine(&self.tree[2 * i], &self.tree[2 * i + 1]);
            }
        }
    }

    /// Leaf count (the window rounded up to a power of two).
    pub fn leaf_count(&self) -> usize {
        self.m
    }

    /// The window slot the next arrival will occupy.
    pub fn current_slot(&self) -> usize {
        self.curr
    }
}

impl<O: AggregateOp> FinalAggregator<O> for FlatFat<O> {
    const NAME: &'static str = "flatfat";

    fn with_capacity(op: O, window: usize) -> Self {
        FlatFat::new(op, window)
    }

    /// One slide = overwrite the oldest leaf and read the root: exactly
    /// `log₂(m)` combines, matching Table 1.
    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        self.update_leaf(self.curr, partial);
        self.curr = (self.curr + 1) % self.window;
        self.len = (self.len + 1).min(self.window);
        strict_check!(self);
        self.query_root()
    }

    fn window(&self) -> usize {
        self.window
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Write the identity into the oldest leaf (so the root keeps covering
    /// only live partials) — `log₂(m)` combines, same as an insert.
    fn evict(&mut self) {
        assert!(self.len > 0, "evict from an empty FlatFAT window"); // check:allow precondition assert documenting the caller contract
        let oldest = (self.curr + self.window - self.len) % self.window;
        let identity = self.op.identity();
        self.update_leaf(oldest, identity);
        self.len -= 1;
        strict_check!(self);
    }

    /// Batch fill with dirty-range rebuilds: write the batch's leaves with
    /// ≤ 2 slice copies (a circular batch covers at most two contiguous
    /// leaf runs) and recompute only those runs' ancestors level by level —
    /// `O(b + log m)` combines for a batch of `b`, replacing both the old
    /// full-window `m − 1` rebuild (the O(n)-per-batch latency spike) and
    /// the `b·log m` per-leaf root walks.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        let b = batch.len();
        if b == 0 {
            return;
        }
        if b >= self.window {
            // The batch replaces every window slot and the write cursor
            // ends where it started: copy in window order from `curr`.
            let tail = &batch[b - self.window..];
            let first = self.window - self.curr;
            self.tree[self.m + self.curr..self.m + self.window].clone_from_slice(&tail[..first]);
            self.tree[self.m..self.m + self.curr].clone_from_slice(&tail[first..]);
            self.len = self.window;
            self.rebuild_leaves(0, self.window);
        } else {
            let first = b.min(self.window - self.curr);
            self.tree[self.m + self.curr..self.m + self.curr + first]
                .clone_from_slice(&batch[..first]);
            self.rebuild_leaves(self.curr, self.curr + first);
            if first < b {
                self.tree[self.m..self.m + b - first].clone_from_slice(&batch[first..]);
                self.rebuild_leaves(0, b - first);
            }
            self.curr = (self.curr + b) % self.window;
            self.len = (self.len + b).min(self.window);
        }
        strict_check!(self);
    }

    /// FlatFAT invariants (paper §2.2, Fig. 4): every internal node equals
    /// `combine` of its children — the checker refolds in exactly the order
    /// `update_leaf` used, so the comparison is bitwise even for floats —
    /// and every non-live leaf holds the identity, which is what makes the
    /// root the window aggregate. `O(m)` combines.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure!(
            Self::NAME,
            "tree-shape",
            self.m == self.window.next_power_of_two() && self.tree.len() == 2 * self.m,
            "m {} / tree {} for window {}",
            self.m,
            self.tree.len(),
            self.window
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
        for i in 1..self.m {
            let expect = self.op.combine(&self.tree[2 * i], &self.tree[2 * i + 1]);
            ensure!(
                Self::NAME,
                "parent-combine",
                partials_agree(&self.tree[i], &expect),
                "node {i} holds {:?}, children combine to {:?}",
                self.tree[i],
                expect
            );
        }
        let identity = self.op.identity();
        // Window slots not currently live, plus the rounding pad window..m.
        for j in 0..self.window - self.len {
            let slot = (self.curr + j) % self.window;
            ensure!(
                Self::NAME,
                "dead-leaf-identity",
                self.tree[self.m + slot] == identity,
                "non-live leaf {slot} holds {:?}",
                self.tree[self.m + slot]
            );
        }
        for slot in self.window..self.m {
            ensure!(
                Self::NAME,
                "pad-leaf-identity",
                self.tree[self.m + slot] == identity,
                "padding leaf {slot} holds {:?}",
                self.tree[self.m + slot]
            );
        }
        Ok(())
    }
}

impl<O: AggregateOp> MemoryFootprint for FlatFat<O> {
    fn heap_bytes(&self) -> usize {
        self.tree.capacity() * core::mem::size_of::<O::Partial>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Naive;
    use crate::ops::{Max, Sum};

    #[test]
    fn matches_naive_on_sum() {
        let mut fat = FlatFat::new(Sum::<i64>::new(), 5);
        let mut naive = Naive::new(Sum::<i64>::new(), 5);
        for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5] {
            assert_eq!(fat.slide(v), naive.slide(v));
        }
    }

    #[test]
    fn matches_naive_on_max_with_wrap() {
        let op = Max::<i64>::new();
        let mut fat = FlatFat::new(op, 4);
        let mut naive = Naive::new(op, 4);
        for v in [9, 8, 7, 6, 5, 4, 3, 2, 1, 2, 3, 9, 1] {
            assert_eq!(fat.slide(op.lift(&v)), naive.slide(op.lift(&v)));
        }
    }

    #[test]
    fn non_power_of_two_window() {
        let mut fat = FlatFat::new(Sum::<i64>::new(), 6);
        assert_eq!(fat.leaf_count(), 8);
        let mut naive = Naive::new(Sum::<i64>::new(), 6);
        for v in 0..40 {
            assert_eq!(fat.slide(v), naive.slide(v));
        }
    }

    #[test]
    fn range_query_in_window_order() {
        let mut fat = FlatFat::new(Sum::<i64>::new(), 8);
        for v in 1..=8 {
            fat.slide(v);
        }
        // Window slots now hold 1..=8 in insertion order; range over the
        // last 3 = slots 5,6,7 → 6+7+8.
        assert_eq!(fat.query_range(5, 3), 21);
        // Wrapping range: slots 6,7,0,1 → 7+8+1+2.
        assert_eq!(fat.query_range(6, 4), 18);
    }

    #[test]
    fn query_in_order_equals_root_for_commutative() {
        let mut fat = FlatFat::new(Sum::<i64>::new(), 7);
        for v in 0..25 {
            fat.slide(v);
            assert_eq!(fat.query_in_order(), fat.query_root());
        }
    }

    #[test]
    fn window_one() {
        let mut fat = FlatFat::new(Sum::<i64>::new(), 1);
        assert_eq!(fat.slide(5), 5);
        assert_eq!(fat.slide(6), 6);
    }

    // Exact operation counts are meaningless when the strict-invariants
    // self-checks run their own combines inside every mutation.
    #[cfg(not(feature = "strict-invariants"))]
    #[test]
    fn bulk_insert_rebuilds_only_dirty_subtree_ranges() {
        use crate::ops::{CountingOp, OpCounter};
        let counter = OpCounter::new();
        let op = CountingOp::new(Sum::<i64>::new(), counter.clone());
        let mut fat = FlatFat::new(op, 1024);
        let warm: Vec<i64> = (0..1024).collect();
        fat.bulk_insert(&warm);
        // Steady state: batches of 64 wrapping through the circular leaf
        // array. The dirty-range rebuild costs O(b + log m) combines; the
        // old full-window rebuild cost m − 1 = 1023 per batch.
        for round in 0..32u64 {
            counter.reset();
            let batch: Vec<i64> = (0..64).map(|i| round as i64 * 64 + i).collect();
            fat.bulk_insert(&batch);
            let combines = counter.get();
            // b + 2·log₂(m) with slack for the two wrap runs: ≪ 1023.
            assert!(
                combines <= 64 + 4 * 10,
                "round {round}: {combines} combines for a 64-batch — rebuild spike is back"
            );
        }
        // And the result is still right: the window holds the last 1024
        // batch values, same as a scalar reference fed only the batches.
        let mut naive = Naive::new(Sum::<i64>::new(), 1024);
        let mut last = 0;
        for round in 0..32 {
            for i in 0..64 {
                last = naive.slide(round * 64 + i);
            }
        }
        assert_eq!(fat.query_root(), last);
    }

    #[test]
    fn warmup_root_covers_arrived_only() {
        let mut fat = FlatFat::new(Sum::<i64>::new(), 8);
        assert_eq!(fat.slide(10), 10);
        assert_eq!(fat.slide(20), 30);
        assert_eq!(fat.len(), 2);
    }
}
