//! SlickDeque (Non-Inv) — the paper's novel deque-based algorithm for
//! non-invertible aggregates (§3.2, Algorithm 2), here in its single-query
//! form; the multi-query form lives in
//! [`crate::multi::MultiSlickDequeNonInv`].
//!
//! A deque of `(position, value)` nodes is kept such that node values are
//! strictly "decreasing" in the operation's dominance order from head to
//! tail. An arriving partial pops every tail node it dominates (those can
//! never be a query answer again — the selection property of
//! [`SelectiveOp`]), then joins as the new tail; the head expires by
//! position. The window aggregate is simply the head's value.
//!
//! Complexity (Table 1): amortized < 2 operations per slide (each partial
//! is involved in at most two comparisons over its lifetime), worst case
//! `n` with probability 1/n! on exchangeable inputs; space between 2 and
//! `2n` on the deque, input-dependent; its buffer gives its slack back as
//! the deque drains.

use crate::aggregator::{FinalAggregator, MemoryFootprint};
use crate::invariants::{ensure, strict_check, InvariantViolation};
use crate::monodeque::{MonoDeque, MIN_FRAME};
use crate::ops::SelectiveOp;

/// Monotone-deque sliding window for selective (non-invertible) operations.
///
/// ```
/// use swag_core::aggregator::FinalAggregator;
/// use swag_core::algorithms::SlickDequeNonInv;
/// use swag_core::ops::{AggregateOp, Max};
///
/// let op = Max::<i64>::new();
/// let mut window = SlickDequeNonInv::new(op, 3);
/// assert_eq!(window.slide(op.lift(&9)), Some(9));
/// assert_eq!(window.slide(op.lift(&5)), Some(9));
/// assert_eq!(window.slide(op.lift(&1)), Some(9));
/// assert_eq!(window.slide(op.lift(&2)), Some(5)); // 9 expired
/// ```
#[derive(Debug, Clone)]
pub struct SlickDequeNonInv<O: SelectiveOp> {
    /// Nodes are stamped with their absolute arrival index.
    deque: MonoDeque<O>,
    /// Absolute index the next arrival will receive.
    next_pos: u64,
    window: usize,
    len: usize,
}

impl<O: SelectiveOp> SlickDequeNonInv<O> {
    /// Create a SlickDeque (Non-Inv) over a window of `window` partials.
    pub fn new(op: O, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one partial");
        SlickDequeNonInv {
            deque: MonoDeque::new(op),
            next_pos: 0,
            window,
            len: 0,
        }
    }

    /// The operation driving this aggregator.
    pub fn op(&self) -> &O {
        self.deque.op()
    }

    /// The current window aggregate: the head node's value.
    pub fn query(&self) -> O::Partial {
        self.deque.head()
    }

    /// Number of nodes currently on the deque (≤ window; this is the
    /// input-dependent quantity behind the paper's space results).
    pub fn deque_len(&self) -> usize {
        self.deque.len()
    }

    /// Remove every head that has fallen out of the window — one head scan
    /// for a whole range of expired positions.
    fn expire_heads(&mut self) {
        self.deque.expire(self.next_pos - self.len as u64);
    }

    /// Dynamically resize the window (paper §3.1: all compared approaches
    /// "handle such cases by performing dynamic resize operations").
    ///
    /// Shrinking expires the oldest partials immediately; growing takes
    /// effect as new partials arrive (partials older than the previous
    /// window are gone and cannot be resurrected). O(expired nodes).
    pub fn resize(&mut self, window: usize) {
        assert!(window >= 1, "window must hold at least one partial"); // check:allow precondition assert documenting the caller contract
        self.window = window;
        if self.len > window {
            self.len = window;
            self.expire_heads();
        }
    }
}

impl<O: SelectiveOp> FinalAggregator<O> for SlickDequeNonInv<O> {
    const NAME: &'static str = "slickdeque_noninv";

    fn with_capacity(op: O, window: usize) -> Self {
        SlickDequeNonInv::new(op, window)
    }

    /// The tail scan runs before the head expires, so its `defeats` tests
    /// are Algorithm 2's; the arrival joins after, so a full window never
    /// holds window + 1 nodes.
    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        self.len = (self.len + 1).min(self.window);
        self.deque.drop_defeated(&partial);
        let stamp = self.next_pos;
        self.next_pos += 1;
        self.expire_heads();
        self.deque.join_tail(stamp, partial);
        strict_check!(self);
        self.query()
    }

    fn window(&self) -> usize {
        self.window
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Drop the oldest live position; at most one head node can expire
    /// (nodes hold strictly increasing positions).
    fn evict(&mut self) {
        assert!(self.len > 0, "evict from an empty SlickDeque window"); // check:allow precondition assert documenting the caller contract
        self.len -= 1;
        self.expire_heads();
        strict_check!(self);
    }

    /// One head scan for the whole range of expired positions instead of
    /// `n` separate head checks.
    fn bulk_evict(&mut self, n: usize) {
        assert!(n <= self.len, "evicting {n} of {} partials", self.len); // check:allow precondition assert documenting the caller contract
        self.len -= n;
        self.expire_heads();
        strict_check!(self);
    }

    /// Algorithm 2's dominance popping, batched: one call into the
    /// dominated-suffix scan (`MonoDeque::append_frame`) — each batch
    /// partial costs one comparison instead of a full push/pop cycle.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        let b = batch.len();
        // Only the last `window` arrivals can be live once the batch is in.
        let skip = b.saturating_sub(self.window);
        let first_pos = self.next_pos + skip as u64;
        self.next_pos += b as u64;
        self.len = (self.len + b).min(self.window);
        // Heads the batch pushes out — every node, if it covers the window
        // — go first, so the tail count below never tests a node that is
        // leaving anyway.
        self.expire_heads();
        self.deque.append_frame(first_pos, &batch[skip..]);
        strict_check!(self);
    }

    /// Frame-wise answers (`MonoDeque::answer_frame`): per frame of at
    /// most `window` partials, every answer is the pre-frame deque node
    /// still in the window ⊕ the frame's prefix scan, and the deque is
    /// updated once by `bulk_insert`. Bitwise the answers of `slide` —
    /// selection returns one of the window's own partials — without its
    /// data-dependent pop branch; frames under `MIN_FRAME` partials keep
    /// the per-slide loop.
    fn bulk_slide(&mut self, batch: &[O::Partial], out: &mut Vec<O::Partial>) {
        out.clear();
        out.reserve(batch.len());
        for run in batch.chunks(self.window) {
            if run.len() < MIN_FRAME {
                for p in run {
                    out.push(self.slide(p.clone()));
                }
                continue;
            }
            self.deque
                .answer_frame(self.next_pos, &[self.window], run, out);
            self.bulk_insert(run);
        }
    }

    /// SlickDeque (Non-Inv) invariants (paper §3.2, Algorithm 2): the
    /// shared `MonoDeque::check_invariants` with strictly increasing
    /// positions inside `[next_pos − len, next_pos)` — so the deque never
    /// holds more nodes than live window slots — and a non-empty window has
    /// a head to answer from. `O(deque_len)` combines.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure!(
            Self::NAME,
            "len-bounded",
            self.len <= self.window && self.len as u64 <= self.next_pos,
            "len {} at position {} for window {}",
            self.len,
            self.next_pos,
            self.window
        );
        ensure!(
            Self::NAME,
            "head-answers",
            (self.len == 0) == (self.deque.len() == 0),
            "len {} but deque holds {} nodes",
            self.len,
            self.deque.len()
        );
        let live = self.next_pos - self.len as u64..self.next_pos;
        self.deque.check_invariants(Self::NAME, live, true)
    }
}

impl<O: SelectiveOp> MemoryFootprint for SlickDequeNonInv<O> {
    fn heap_bytes(&self) -> usize {
        self.deque.heap_bytes()
    }
}

/// Windowed Range (max − min) for SlickDeque: two monotone deques, one per
/// extremum, exactly as the paper treats algebraic aggregations ("Range
/// (Max and Min)", §3.1).
#[derive(Debug, Clone)]
pub struct SlickDequeRange {
    max: SlickDequeNonInv<crate::ops::Max<f64>>,
    min: SlickDequeNonInv<crate::ops::Min<f64>>,
}

impl SlickDequeRange {
    /// Create a Range aggregator over a window of `window` partials.
    pub fn new(window: usize) -> Self {
        SlickDequeRange {
            max: SlickDequeNonInv::new(crate::ops::Max::new(), window),
            min: SlickDequeNonInv::new(crate::ops::Min::new(), window),
        }
    }

    /// Advance by one value; returns `max − min` of the window, or `None`
    /// before the first value.
    pub fn slide(&mut self, value: f64) -> Option<f64> {
        let max = self.max.slide(Some(value));
        let min = self.min.slide(Some(value));
        match (max, min) {
            (Some(hi), Some(lo)) => Some(hi - lo),
            _ => None,
        }
    }
}

impl MemoryFootprint for SlickDequeRange {
    fn heap_bytes(&self) -> usize {
        self.max.heap_bytes() + self.min.heap_bytes()
    }
}

impl<O: SelectiveOp> crate::state::StatefulAggregator<O> for SlickDequeNonInv<O> {
    /// Capture `[len, next_pos]`, then the deque
    /// (`MonoDeque::save_nodes`: node count, each node's absolute
    /// position, each node's value head→tail). The monotone deque is the
    /// whole derived state.
    fn save_state(&self, w: &mut crate::state::StateWriter<O::Partial>) {
        w.usize_word(self.len);
        w.word(self.next_pos);
        self.deque.save_nodes(w);
    }

    fn load_state(
        op: O,
        window: usize,
        r: &mut crate::state::StateReader<'_, O::Partial>,
    ) -> Result<Self, crate::state::StateError> {
        if window == 0 {
            return Err(crate::state::corrupt("slickdeque_noninv: zero window"));
        }
        let len = r.usize_word("slickdeque_noninv len")?;
        let next_pos = r.word("slickdeque_noninv next_pos")?;
        let agg = SlickDequeNonInv {
            deque: MonoDeque::load_nodes(op, window, r)?,
            next_pos,
            window,
            len,
        };
        // The checker is structural and comparison-based (no arithmetic
        // refolds), so it is exact for any partial type.
        agg.check_invariants()?;
        Ok(agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Naive;
    use crate::ops::{AggregateOp, ArgMax, CountingOp, Max, Min, OpCounter};

    #[test]
    fn matches_naive_on_max() {
        let op = Max::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, 5);
        let mut naive = Naive::new(op, 5);
        for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 1] {
            assert_eq!(sd.slide(op.lift(&v)), naive.slide(op.lift(&v)));
            sd.check_invariants().unwrap();
        }
    }

    #[test]
    fn matches_naive_on_min() {
        let op = Min::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, 4);
        let mut naive = Naive::new(op, 4);
        for v in [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5, 9, 1, 3, 3, 7, 2, 2] {
            assert_eq!(sd.slide(op.lift(&v)), naive.slide(op.lift(&v)));
            sd.check_invariants().unwrap();
        }
    }

    #[test]
    fn descending_input_fills_deque() {
        // Descending values are the paper's worst case: nothing dominates,
        // every node survives until expiry.
        let op = Max::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, 8);
        for v in (0..8).rev() {
            sd.slide(op.lift(&v));
        }
        assert_eq!(sd.deque_len(), 8);
        // A new maximum clears the whole deque in one slide (the n-op step).
        sd.slide(op.lift(&100));
        assert_eq!(sd.deque_len(), 1);
        assert_eq!(sd.query(), Some(100));
    }

    #[test]
    fn ascending_input_keeps_singleton_deque() {
        let op = Max::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, 8);
        for v in 0..100 {
            sd.slide(op.lift(&v));
            assert_eq!(sd.deque_len(), 1);
        }
        assert_eq!(sd.query(), Some(99));
    }

    // Exact operation counts are meaningless when the strict-invariants
    // self-checks run their own combines inside every mutation.
    #[cfg(not(feature = "strict-invariants"))]
    #[test]
    fn amortized_under_two_ops() {
        let counter = OpCounter::new();
        let op = CountingOp::new(Max::<i64>::new(), counter.clone());
        let mut sd = SlickDequeNonInv::new(op, 64);
        let mut x = 7u32;
        let slides = 10_000u64;
        for _ in 0..slides {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            sd.slide(Some((x >> 16) as i64));
        }
        let per_slide = counter.get() as f64 / slides as f64;
        assert!(per_slide < 2.0, "amortized {per_slide} ops/slide");
    }

    #[test]
    fn expiry_promotes_second_node() {
        let op = Max::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, 3);
        sd.slide(op.lift(&9)); // window: 9
        sd.slide(op.lift(&5)); // window: 9 5
        sd.slide(op.lift(&1)); // window: 9 5 1
        assert_eq!(sd.query(), Some(9));
        assert_eq!(sd.slide(op.lift(&2)), Some(5)); // 9 expired: window 5,1,2
        assert_eq!(sd.slide(op.lift(&0)), Some(2)); // 5 expired: window 1,2,0
        assert_eq!(sd.slide(op.lift(&0)), Some(2)); // window 2,0,0
    }

    #[test]
    fn argmax_window() {
        let op = ArgMax::<i64, &'static str>::new();
        let mut sd = SlickDequeNonInv::new(op, 2);
        sd.slide(op.lift(&(10, "a")));
        sd.slide(op.lift(&(5, "b")));
        assert_eq!(op.lower(&sd.query()), Some("a"));
        sd.slide(op.lift(&(7, "c"))); // "a" expired; 7 dominates 5
        assert_eq!(op.lower(&sd.query()), Some("c"));
    }

    #[test]
    fn range_from_two_deques() {
        let mut r = SlickDequeRange::new(3);
        assert_eq!(r.slide(5.0), Some(0.0));
        assert_eq!(r.slide(2.0), Some(3.0));
        assert_eq!(r.slide(8.0), Some(6.0));
        assert_eq!(r.slide(8.0), Some(6.0)); // 5 expired: window 2,8,8
        assert_eq!(r.slide(8.0), Some(0.0)); // 2 expired: window 8,8,8
    }

    #[test]
    fn window_one() {
        let op = Max::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, 1);
        assert_eq!(sd.slide(op.lift(&5)), Some(5));
        assert_eq!(sd.slide(op.lift(&2)), Some(2));
        assert_eq!(sd.deque_len(), 1);
    }
}
