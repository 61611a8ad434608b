//! SlickDeque (Inv) — the paper's processing scheme for invertible
//! aggregates (§3.2, Algorithm 1), here in its single-query form.
//!
//! A running answer is kept per query: each arriving partial is combined in
//! with ⊕ and the expiring partial (read from a circular history array) is
//! removed with the inverse operation ⊖ — exactly 2 operations per slide,
//! the best possible for exact answers over arbitrary invertible
//! aggregates. The ring and both slide paths are shared with the
//! multi-query form, [`crate::multi::MultiSlickDequeInv`]; this shell adds
//! what only a single window has: eviction, `bulk_insert`'s fold, resizing
//! and a snapshot codec.
//!
//! Complexity (Table 1): exactly 2 operations per slide; space `n + 1`.

use core::slice;

use crate::aggregator::{FinalAggregator, MemoryFootprint};
use crate::answer_ring::AnswerRing;
use crate::invariants::{ensure, strict_check, InvariantViolation};
use crate::ops::InvertibleOp;

/// Running-aggregate sliding window for invertible operations.
///
/// ```
/// use swag_core::aggregator::FinalAggregator;
/// use swag_core::algorithms::SlickDequeInv;
/// use swag_core::ops::Sum;
///
/// let mut window = SlickDequeInv::new(Sum::<i64>::new(), 3);
/// assert_eq!(window.slide(1), 1);
/// assert_eq!(window.slide(2), 3);
/// assert_eq!(window.slide(3), 6);
/// assert_eq!(window.slide(4), 9); // 1 expired: 2 + 3 + 4
/// ```
#[derive(Debug, Clone)]
pub struct SlickDequeInv<O: InvertibleOp> {
    /// Circular history of the window's partials (the expiring value is
    /// read from here before being overwritten).
    ring: AnswerRing<O>,
    /// The running window aggregate (the paper's `answers` entry).
    answer: O::Partial,
    /// The one range, always the ring's size.
    window: usize,
}

impl<O: InvertibleOp> SlickDequeInv<O> {
    /// Create a SlickDeque (Inv) over a window of `window` partials.
    pub fn new(op: O, window: usize) -> Self {
        let answer = op.identity();
        SlickDequeInv {
            ring: AnswerRing::new(op, window),
            answer,
            window,
        }
    }

    /// The operation driving this aggregator.
    pub fn op(&self) -> &O {
        self.ring.op()
    }

    /// The current window aggregate, free of charge.
    pub fn query(&self) -> O::Partial {
        self.answer.clone()
    }

    /// Dynamically resize the window (paper §3.1: all compared approaches
    /// "handle such cases by performing dynamic resize operations").
    ///
    /// Shrinking removes the oldest partials from the running answer with
    /// the inverse operation; growing keeps the current contents and lets
    /// new arrivals fill the extra capacity. O(window) for the ring
    /// re-layout.
    pub fn resize(&mut self, window: usize) {
        assert!(window >= 1, "window must hold at least one partial"); // check:allow precondition assert documenting the caller contract
        while self.len() > window {
            self.evict();
        }
        self.ring.relayout(window);
        self.window = window;
    }
}

impl<O: InvertibleOp> FinalAggregator<O> for SlickDequeInv<O> {
    const NAME: &'static str = "slickdeque_inv";

    fn with_capacity(op: O, window: usize) -> Self {
        SlickDequeInv::new(op, window)
    }

    /// `answer ← (answer ⊕ new) ⊖ expiring` — exactly two operations.
    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        let answer = slice::from_mut(&mut self.answer);
        self.ring
            .advance_answers(slice::from_ref(&self.window), answer, partial);
        strict_check!(self);
        self.answer.clone()
    }

    fn window(&self) -> usize {
        self.window
    }

    fn len(&self) -> usize {
        self.ring.live_len()
    }

    /// One ⊖: remove the oldest partial from the running answer and reset
    /// its ring slot to the identity (so a later `slide` over the
    /// not-yet-full window expires a no-op value).
    fn evict(&mut self) {
        assert!(self.len() > 0, "evict from an empty SlickDeque window"); // check:allow precondition assert documenting the caller contract
        let expired = self.ring.take_oldest();
        self.answer = self.ring.op().inverse_combine(&self.answer, &expired);
        strict_check!(self);
    }

    /// The paper's running-answer trick, batched: fold the whole batch
    /// with ⊕, fold the expiring history with ⊖, and touch the answer a
    /// constant number of times — `b + e` combines instead of `2b`, and a
    /// batch covering the full window rebuilds the answer with zero ⊖.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        let b = batch.len();
        if b == 0 {
            return;
        }
        let op = self.ring.op();
        if b >= self.window {
            // The batch replaces the whole window: one slice copy into the
            // ring and one slice-kernel fold for the answer — no ⊖ at all.
            // `fold_slice` may reassociate here; `bulk_insert`'s contract
            // permits it (unlike `bulk_slide`'s bitwise contract).
            let tail = &batch[b - self.window..];
            self.answer = op.fold_slice(&tail[0], &tail[1..]);
            self.ring.replace_history(tail);
            strict_check!(self);
            return;
        }
        // answer ← (answer ⊕ fold(batch)) ⊖ fold(expiring history), with
        // each fold a slice kernel over the ≤ 2 contiguous ring runs.
        let added = op.fold_slice(&batch[0], &batch[1..]);
        let mut answer = op.combine(&self.answer, &added);
        let expirations = (self.len() + b).saturating_sub(self.window);
        if expirations > 0 {
            let (run, wrapped) = self.ring.oldest_runs(expirations);
            let expired = op.fold_slice(&run[0], &run[1..]);
            let expired = op.fold_slice(&expired, wrapped);
            answer = op.inverse_combine(&answer, &expired);
        }
        self.answer = answer;
        self.ring.store_tail(batch);
        strict_check!(self);
    }

    /// The ring's batched path: `slide`'s combine order over ring runs, so
    /// bitwise its answers.
    fn bulk_slide(&mut self, batch: &[O::Partial], out: &mut Vec<O::Partial>) {
        let answer = slice::from_mut(&mut self.answer);
        self.ring
            .advance_answers_bulk(slice::from_ref(&self.window), answer, batch, out);
        strict_check!(self);
    }

    /// The ring is window-sized and passes its Algorithm 1 checks with the
    /// window as its one range. `O(window)` combines.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure!(
            Self::NAME,
            "ring-shape",
            self.ring.wsize() == self.window,
            "ring holds {} slots for window {}",
            self.ring.wsize(),
            self.window
        );
        let answer = slice::from_ref(&self.answer);
        self.ring
            .check_ring(Self::NAME, slice::from_ref(&self.window), answer)
    }
}

impl<O: InvertibleOp> MemoryFootprint for SlickDequeInv<O> {
    fn heap_bytes(&self) -> usize {
        self.ring.heap_bytes()
    }
}

impl<O: InvertibleOp> crate::state::StatefulAggregator<O> for SlickDequeInv<O> {
    /// Verbatim capture of `[curr, len]`, the history ring in storage
    /// order, and the **running answer**. The answer must be saved, not
    /// refolded at load: it carries the accumulated ⊕/⊖ rounding of the
    /// whole stream history, which a fresh fold over the live window
    /// cannot reproduce bitwise.
    fn save_state(&self, w: &mut crate::state::StateWriter<O::Partial>) {
        self.ring.save_ring(w);
        w.partial(self.answer.clone());
    }

    fn load_state(
        op: O,
        window: usize,
        r: &mut crate::state::StateReader<'_, O::Partial>,
    ) -> Result<Self, crate::state::StateError> {
        if window == 0 {
            return Err(crate::state::corrupt("slickdeque_inv: zero window"));
        }
        let ring = AnswerRing::load_ring(op, window, r)?;
        let answer = r.partial("slickdeque_inv answer")?;
        Ok(SlickDequeInv {
            ring,
            answer,
            window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Naive;
    use crate::ops::{AggregateOp, Count, CountingOp, Mean, OpCounter, Product, Sum, Variance};

    #[test]
    fn matches_naive_on_sum() {
        let mut sd = SlickDequeInv::new(Sum::<i64>::new(), 5);
        let mut naive = Naive::new(Sum::<i64>::new(), 5);
        for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3] {
            assert_eq!(sd.slide(v), naive.slide(v));
        }
    }

    // Exact operation counts are meaningless when the strict-invariants
    // self-checks run their own combines inside every mutation.
    #[cfg(not(feature = "strict-invariants"))]
    #[test]
    fn exactly_two_ops_per_slide() {
        let counter = OpCounter::new();
        let op = CountingOp::new(Sum::<i64>::new(), counter.clone());
        let mut sd = SlickDequeInv::new(op, 16);
        for v in 0..100 {
            sd.slide(v);
        }
        assert_eq!(counter.get(), 200);
    }

    #[test]
    fn product_with_zeros_stays_exact() {
        let op = Product::new();
        let mut sd = SlickDequeInv::new(op, 3);
        let vals = [2.0, 0.0, 5.0, 3.0, 0.0, 0.0, 4.0, 1.0, 2.0];
        let mut naive = Naive::new(op, 3);
        for v in vals {
            let got = op.lower(&sd.slide(op.lift(&v)));
            let expect = op.lower(&naive.slide(op.lift(&v)));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn mean_and_variance_window() {
        let mean = Mean::new();
        let mut sd = SlickDequeInv::new(mean, 4);
        for v in [1.0, 2.0, 3.0, 4.0] {
            sd.slide(mean.lift(&v));
        }
        assert_eq!(mean.lower(&sd.query()), 2.5);
        sd.slide(mean.lift(&9.0)); // window 2,3,4,9
        assert_eq!(mean.lower(&sd.query()), 4.5);

        let var = Variance::new();
        let mut sv = SlickDequeInv::new(var, 2);
        sv.slide(var.lift(&1.0));
        sv.slide(var.lift(&3.0));
        assert!((var.lower(&sv.query()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn count_window() {
        let op = Count::<i64>::new();
        let mut sd = SlickDequeInv::new(op, 3);
        assert_eq!(sd.slide(op.lift(&10)), 1);
        assert_eq!(sd.slide(op.lift(&10)), 2);
        assert_eq!(sd.slide(op.lift(&10)), 3);
        assert_eq!(sd.slide(op.lift(&10)), 3);
    }

    #[test]
    fn window_one_tracks_latest() {
        let mut sd = SlickDequeInv::new(Sum::<i64>::new(), 1);
        assert_eq!(sd.slide(5), 5);
        assert_eq!(sd.slide(9), 9);
    }

    /// A capture whose `curr` or `len` leaves a live partial outside the
    /// live window is refused at load, not restored to fail later.
    #[test]
    fn restore_refuses_a_live_partial_outside_the_window() {
        use crate::state::{StateReader, StateWriter, StatefulAggregator};
        let mut sd = SlickDequeInv::new(Sum::<i64>::new(), 5);
        for v in [4, -2, 7] {
            sd.slide(v);
        }
        let mut w = StateWriter::new();
        sd.save_state(&mut w);
        let (words, partials) = w.into_parts();
        let load = |words: &[u64]| {
            let mut r = StateReader::new(words, &partials);
            SlickDequeInv::load_state(Sum::<i64>::new(), 5, &mut r)
        };
        assert!(load(&words).is_ok());
        // `[curr, len]` = `[3, 3]`: one slot fewer, or the cursor moved on.
        for edited in [[3, 2], [0, 3]] {
            let err = load(&edited)
                .map(drop)
                .expect_err("a live slot counted dead");
            assert!(err.to_string().contains("dead-slot-identity"), "{err}");
        }
    }
}
