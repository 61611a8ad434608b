//! SlickDeque (Inv) — the paper's processing scheme for invertible
//! aggregates (§3.2, Algorithm 1), here in its single-query form.
//!
//! A running answer is kept per query: each arriving partial is combined in
//! with ⊕ and the expiring partial (read from a circular history array) is
//! removed with the inverse operation ⊖ — exactly 2 operations per slide,
//! the best possible for exact answers over arbitrary invertible
//! aggregates. The multi-query form (Algorithm 1 in full) lives in
//! [`crate::multi::MultiSlickDequeInv`].
//!
//! Complexity (Table 1): exactly 2 operations per slide; space `n + 1`.

use crate::aggregator::{FinalAggregator, MemoryFootprint};
use crate::invariants::{ensure, partials_agree, strict_check, InvariantViolation};
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
    op: O,
    /// Circular history of the window's partials (the expiring value is
    /// read from here before being overwritten).
    partials: Vec<O::Partial>,
    /// The running window aggregate (the paper's `answers` entry).
    answer: O::Partial,
    window: usize,
    curr: usize,
    len: usize,
}

impl<O: InvertibleOp> SlickDequeInv<O> {
    /// Create a SlickDeque (Inv) over a window of `window` partials.
    pub fn new(op: O, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one partial");
        let partials = (0..window).map(|_| op.identity()).collect();
        let answer = op.identity();
        SlickDequeInv {
            op,
            partials,
            answer,
            window,
            curr: 0,
            len: 0,
        }
    }

    /// The operation driving this aggregator.
    pub fn op(&self) -> &O {
        &self.op
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
        let start = (self.curr + self.window - self.len) % self.window;
        // Live partials oldest→newest.
        let live: Vec<O::Partial> = (0..self.len)
            .map(|i| self.partials[(start + i) % self.window].clone())
            .collect(); // alloc:amortized window buffer growth is amortized O(1) doubling
        let keep = self.len.min(window);
        // Remove the partials that no longer fit, oldest first.
        for expired in &live[..self.len - keep] {
            self.answer = self.op.inverse_combine(&self.answer, expired);
        }
        let mut ring: Vec<O::Partial> = (0..window).map(|_| self.op.identity()).collect(); // alloc:amortized window buffer growth is amortized O(1) doubling
        for (i, p) in live[self.len - keep..].iter().enumerate() {
            ring[i] = p.clone();
        }
        self.partials = ring;
        self.window = window;
        self.len = keep;
        self.curr = keep % window;
    }
}

impl<O: InvertibleOp> FinalAggregator<O> for SlickDequeInv<O> {
    const NAME: &'static str = "slickdeque_inv";

    fn with_capacity(op: O, window: usize) -> Self {
        SlickDequeInv::new(op, window)
    }

    /// `answer ← (answer ⊕ new) ⊖ expiring` — exactly two operations.
    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        let expiring = std::mem::replace(&mut self.partials[self.curr], partial.clone()); // check:allow index kept in-bounds by the ring/stack invariant
        let with_new = self.op.combine(&self.answer, &partial);
        self.answer = self.op.inverse_combine(&with_new, &expiring);
        self.curr = (self.curr + 1) % self.window;
        self.len = (self.len + 1).min(self.window);
        strict_check!(self);
        self.answer.clone()
    }

    fn window(&self) -> usize {
        self.window
    }

    fn len(&self) -> usize {
        self.len
    }

    /// One ⊖: remove the oldest partial from the running answer and reset
    /// its ring slot to the identity (so a later `slide` over the
    /// not-yet-full window expires a no-op value).
    fn evict(&mut self) {
        assert!(self.len > 0, "evict from an empty SlickDeque window"); // check:allow precondition assert documenting the caller contract
        let oldest = (self.curr + self.window - self.len) % self.window;
        let identity = self.op.identity();
        let expired = std::mem::replace(&mut self.partials[oldest], identity);
        self.answer = self.op.inverse_combine(&self.answer, &expired);
        self.len -= 1;
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
        if b >= self.window {
            // The batch replaces the whole window: one slice copy into the
            // ring and one slice-kernel fold for the answer — no ⊖ at all.
            // `fold_slice` may reassociate here; `bulk_insert`'s contract
            // permits it (unlike `bulk_slide`'s bitwise contract).
            let tail = &batch[b - self.window..];
            self.partials.clone_from_slice(tail);
            self.answer = self.op.fold_slice(&tail[0], &tail[1..]);
            self.curr = 0;
            self.len = self.window;
            strict_check!(self);
            return;
        }
        // answer ← (answer ⊕ fold(batch)) ⊖ fold(expiring history), with
        // each fold a slice kernel over the ≤ 2 contiguous ring runs and
        // the ring store ≤ 2 slice copies.
        let added = self.op.fold_slice(&batch[0], &batch[1..]);
        let expirations = (self.len + b).saturating_sub(self.window);
        let mut answer = self.op.combine(&self.answer, &added);
        if expirations > 0 {
            let start = (self.curr + self.window - self.len) % self.window;
            let first = expirations.min(self.window - start);
            let run = &self.partials[start..start + first];
            let mut expired = self.op.fold_slice(&run[0], &run[1..]);
            expired = self
                .op
                .fold_slice(&expired, &self.partials[..expirations - first]);
            answer = self.op.inverse_combine(&answer, &expired);
        }
        self.answer = answer;
        let first = b.min(self.window - self.curr);
        self.partials[self.curr..self.curr + first].clone_from_slice(&batch[..first]);
        self.partials[..b - first].clone_from_slice(&batch[first..]);
        self.curr = (self.curr + b) % self.window;
        self.len = (self.len + b).min(self.window);
        strict_check!(self);
    }

    /// The 2-ops-per-slide loop with the ring cursor and running answer
    /// hoisted into locals — identical combine order to `slide`, so the
    /// answer stream is bitwise equal to per-partial ingestion.
    fn bulk_slide(&mut self, batch: &[O::Partial], out: &mut Vec<O::Partial>) {
        out.clear();
        out.reserve(batch.len());
        let mut curr = self.curr;
        let mut answer = self.answer.clone();
        for p in batch {
            let expiring = std::mem::replace(&mut self.partials[curr], p.clone());
            let with_new = self.op.combine(&answer, p);
            answer = self.op.inverse_combine(&with_new, &expiring);
            curr += 1;
            if curr == self.window {
                curr = 0;
            }
            out.push(answer.clone());
        }
        self.curr = curr;
        self.answer = answer;
        self.len = (self.len + batch.len()).min(self.window);
        strict_check!(self);
    }

    /// SlickDeque (Inv) invariants (paper §3.2, Algorithm 1): the ring
    /// stays window-sized with every non-live slot at the identity, and the
    /// running `answer` equals the fold of the live history oldest→newest —
    /// ⊕ and ⊖ must cancel exactly or answers drift forever.
    ///
    /// The refold is order-sensitive: the running answer was built
    /// incrementally (`(answer ⊕ new) ⊖ expiring`), so the comparison is
    /// exact for integer partials (and integer-valued floats) but can
    /// differ in low bits for general floating-point streams where ⊖ is
    /// not a perfect inverse. `O(window)` combines.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure!(
            Self::NAME,
            "ring-shape",
            self.partials.len() == self.window,
            "ring holds {} slots for window {}",
            self.partials.len(),
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
        let identity = self.op.identity();
        for j in 0..self.window - self.len {
            let slot = (self.curr + j) % self.window;
            ensure!(
                Self::NAME,
                "dead-slot-identity",
                self.partials[slot] == identity,
                "non-live slot {slot} holds {:?}",
                self.partials[slot]
            );
        }
        let start = (self.curr + self.window - self.len) % self.window;
        let mut expect = identity;
        for k in 0..self.len {
            expect = self
                .op
                .combine(&expect, &self.partials[(start + k) % self.window]);
        }
        ensure!(
            Self::NAME,
            "answer-refold",
            partials_agree(&self.answer, &expect),
            "running answer {:?}, live history folds to {:?}",
            self.answer,
            expect
        );
        Ok(())
    }
}

impl<O: InvertibleOp> MemoryFootprint for SlickDequeInv<O> {
    fn heap_bytes(&self) -> usize {
        self.partials.capacity() * core::mem::size_of::<O::Partial>()
    }
}

impl<O: InvertibleOp> crate::state::StatefulAggregator<O> for SlickDequeInv<O> {
    /// Verbatim capture of `[curr, len]`, the history ring in storage
    /// order, and the **running answer**. The answer must be saved, not
    /// refolded at load: it carries the accumulated ⊕/⊖ rounding of the
    /// whole stream history, which a fresh fold over the live window
    /// cannot reproduce bitwise.
    fn save_state(&self, w: &mut crate::state::StateWriter<O::Partial>) {
        w.usize_word(self.curr);
        w.usize_word(self.len);
        for p in &self.partials {
            w.partial(p.clone());
        }
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
        let curr = r.usize_word("slickdeque_inv curr")?;
        let len = r.usize_word("slickdeque_inv len")?;
        let partials = r.partial_vec(window, "slickdeque_inv ring")?;
        let answer = r.partial("slickdeque_inv answer")?;
        // Structural validation only: the full `check_invariants` refolds
        // the ring and compares bitwise with the running answer, which is
        // exact only for streams where ⊖ is a perfect inverse — a
        // legitimate floating-point state would be wrongly rejected.
        if curr >= window || len > window {
            return Err(crate::state::corrupt(format!(
                "slickdeque_inv: curr {curr} / len {len} impossible for window {window}"
            )));
        }
        Ok(SlickDequeInv {
            op,
            partials,
            answer,
            window,
            curr,
            len,
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
}
