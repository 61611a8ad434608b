//! The one history ring under both count-window SlickDeque (Inv) forms:
//! [`SlickDequeInv`](crate::algorithms::SlickDequeInv) and
//! [`MultiSlickDequeInv`](crate::multi::MultiSlickDequeInv) own their
//! ranges and running answers and pass them in as parallel slices, the
//! single-query form as one-element slices — Algorithm 1's one-range case
//! (paper §3.2).
//!
//! Slots no live partial fills hold the identity, so the window of range
//! `r` is always the ring's last `r` slots and each answer follows
//! `answer ← (answer ⊕ new) ⊖ the slot r arrivals back`: two operations
//! per range per arrival, one arrival at a time or a batch at a time, in
//! the same order and so with the same bits.

use crate::aggregator::MemoryFootprint;
use crate::invariants::{ensure, partials_agree, InvariantViolation};
use crate::ops::InvertibleOp;
use crate::state::{StateError, StateReader, StateWriter};

/// An identity-padded history ring; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct AnswerRing<O: InvertibleOp> {
    op: O,
    /// Circular history, `wsize` slots.
    slots: Vec<O::Partial>,
    /// The slot the next arrival overwrites.
    curr: usize,
    /// Live partials, at most `wsize`: the last `len` slots before `curr`.
    len: usize,
}

impl<O: InvertibleOp> AnswerRing<O> {
    /// An empty ring of `wsize` identity slots.
    pub(crate) fn new(op: O, wsize: usize) -> Self {
        assert!(wsize >= 1, "window must hold at least one partial");
        let slots = (0..wsize).map(|_| op.identity()).collect();
        AnswerRing {
            op,
            slots,
            curr: 0,
            len: 0,
        }
    }

    pub(crate) fn op(&self) -> &O {
        &self.op
    }

    /// The ring size: the largest range it can answer.
    pub(crate) fn wsize(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn live_len(&self) -> usize {
        self.len
    }

    /// The slot `r ≤ wsize` arrivals back from the cursor: the oldest of
    /// range `r`'s window, the one its next arrival expires.
    fn back_slot(&self, r: usize) -> usize {
        let at = self.curr + self.slots.len() - r;
        if at >= self.slots.len() {
            at - self.slots.len()
        } else {
            at
        }
    }

    /// One arrival (Algorithm 1, lines 19-25). Each range's expiring slot
    /// is read before the arrival overwrites the cursor slot, which is the
    /// one a range of `wsize` expires.
    pub(crate) fn advance_answers(
        &mut self,
        ranges: &[usize],
        answers: &mut [O::Partial],
        partial: O::Partial,
    ) {
        for (&r, ans) in ranges.iter().zip(answers.iter_mut()) {
            let with_new = self.op.combine(ans, &partial);
            *ans = self
                .op
                .inverse_combine(&with_new, &self.slots[self.back_slot(r)]);
        }
        self.slots[self.curr] = partial;
        self.curr += 1;
        if self.curr == self.slots.len() {
            self.curr = 0;
        }
        self.len = (self.len + 1).min(self.slots.len());
    }

    /// A batch of arrivals, range-major, answered into `out` as one row of
    /// `ranges.len()` per arrival. Each answer is loaded once, run over the
    /// whole batch in a register, and stored once. The partials leaving
    /// range `r` meanwhile are its last `r` slots — at most two ring runs —
    /// then the batch's own head, so the inner loop reads slices and takes
    /// no `%`. Per range the combine order is
    /// [`advance_answers`](Self::advance_answers)'s.
    pub(crate) fn advance_answers_bulk(
        &mut self,
        ranges: &[usize],
        answers: &mut [O::Partial],
        batch: &[O::Partial],
        out: &mut Vec<O::Partial>,
    ) {
        let (b, q) = (batch.len(), ranges.len());
        // Every cell is written below, so only growth needs a value.
        out.truncate(b * q);
        out.resize(b * q, self.op.identity());
        for (slot, (&r, ans)) in ranges.iter().zip(answers.iter_mut()).enumerate() {
            let from_ring = b.min(r);
            let (wrapped, straight) = self.slots.split_at(self.back_slot(r));
            let straight = &straight[..from_ring.min(straight.len())];
            let wrapped = &wrapped[..from_ring - straight.len()];
            let mut a = ans.clone();
            let mut arrivals = batch.iter();
            let mut rows = out.chunks_exact_mut(q);
            for expiring in [straight, wrapped, &batch[..b - from_ring]] {
                for ((old, p), row) in expiring.iter().zip(arrivals.by_ref()).zip(rows.by_ref()) {
                    let with_new = self.op.combine(&a, p);
                    a = self.op.inverse_combine(&with_new, old);
                    row[slot] = a.clone();
                }
            }
            *ans = a;
        }
        self.store_tail(batch);
    }

    /// Store `batch` as the newest arrivals — only its last `wsize` stay
    /// history — as at most two ring runs. A batch no longer than the ring,
    /// the per-key case in the engine, takes no `%`.
    pub(crate) fn store_tail(&mut self, batch: &[O::Partial]) {
        let (b, wsize) = (batch.len(), self.slots.len());
        let tail = &batch[b.saturating_sub(wsize)..];
        let at = if b > wsize {
            (self.curr + b - wsize) % wsize
        } else {
            self.curr
        };
        let (straight, wrapped) = tail.split_at(tail.len().min(wsize - at));
        let (front, back) = self.slots.split_at_mut(at);
        // Element loops, not slice copies: a per-key batch in the engine is
        // a few partials, for which a `memcpy` call costs more than the copy.
        for (slot, p) in back.iter_mut().zip(straight) {
            *slot = p.clone();
        }
        for (slot, p) in front.iter_mut().zip(wrapped) {
            *slot = p.clone();
        }
        self.curr = at + tail.len();
        if self.curr >= wsize {
            self.curr -= wsize;
        }
        self.len = (self.len + b).min(wsize);
    }

    /// Replace the whole history with `window` (`wsize` partials), laid
    /// out from slot 0.
    pub(crate) fn replace_history(&mut self, window: &[O::Partial]) {
        self.slots.clone_from_slice(window);
        self.curr = 0;
        self.len = self.slots.len();
    }

    /// The `e ≤ len` oldest live partials, oldest first, as two ring runs.
    pub(crate) fn oldest_runs(&self, e: usize) -> (&[O::Partial], &[O::Partial]) {
        let start = self.back_slot(self.len);
        let first = e.min(self.slots.len() - start);
        (&self.slots[start..start + first], &self.slots[..e - first])
    }

    /// Reset the oldest live slot to the identity and return its partial.
    pub(crate) fn take_oldest(&mut self) -> O::Partial {
        let oldest = self.back_slot(self.len);
        self.len -= 1;
        std::mem::replace(&mut self.slots[oldest], self.op.identity()) // check:allow index kept in-bounds by the ring/stack invariant
    }

    /// Re-lay the ring at `wsize ≥ len` slots with the live partials oldest
    /// first from slot 0 — a shrinking caller evicts down to `wsize` first.
    /// O(wsize).
    pub(crate) fn relayout(&mut self, wsize: usize) {
        debug_assert!(self.len <= wsize, "relayout would drop live partials");
        let oldest = self.back_slot(self.len);
        let mut slots: Vec<O::Partial> = (0..wsize).map(|_| self.op.identity()).collect(); // alloc:amortized window buffer growth is amortized O(1) doubling
        for (k, slot) in slots.iter_mut().take(self.len).enumerate() {
            *slot = self.slots[(oldest + k) % self.slots.len()].clone();
        }
        self.slots = slots;
        self.curr = self.len % wsize;
    }

    /// The identity-padded fold of the last `r ≤ wsize` slots, oldest
    /// first: range `r`'s answer, refolded. O(r).
    pub(crate) fn fold_last(&self, r: usize) -> O::Partial {
        let start = self.back_slot(r);
        (0..r).fold(self.op.identity(), |acc, k| {
            let slot = (start + k) % self.slots.len();
            self.op.combine(&acc, &self.slots[slot])
        })
    }

    /// Algorithm 1's invariants, under the shell's `name`: the cursor and
    /// live count fit the ring, the ranges descend inside it with one
    /// answer each, non-live slots hold the identity, and each answer is
    /// its range's [`fold_last`](Self::fold_last) — ⊕ and ⊖ must cancel
    /// exactly or answers drift forever. The refold is order-sensitive:
    /// exact for integer partials (and integer-valued floats), possibly off
    /// in low bits for general floats. `O(wsize + Σ ranges)` combines.
    pub(crate) fn check_ring(
        &self,
        name: &'static str,
        ranges: &[usize],
        answers: &[O::Partial],
    ) -> Result<(), InvariantViolation> {
        self.check_layout(name)?;
        let wsize = self.slots.len();
        ensure!(
            name,
            "ranges-normalized",
            ranges.first().is_some_and(|&r| r <= wsize)
                && ranges.windows(2).all(|w| w[0] > w[1])
                && answers.len() == ranges.len(),
            "ranges {ranges:?} with {} answers for a ring of {wsize}",
            answers.len()
        );
        for (r, ans) in ranges.iter().zip(answers) {
            let expect = self.fold_last(*r);
            ensure!(
                name,
                "answer-refold",
                partials_agree(ans, &expect),
                "range {r} answer {ans:?}, its last slots fold to {expect:?}"
            );
        }
        Ok(())
    }

    /// The exact part of [`check_ring`](Self::check_ring): the cursor and
    /// live count fit the ring, and every non-live slot holds the
    /// identity.
    fn check_layout(&self, name: &'static str) -> Result<(), InvariantViolation> {
        let wsize = self.slots.len();
        ensure!(
            name,
            "ring-shape",
            self.curr < wsize && self.len <= wsize,
            "curr {} / len {} for a ring of {wsize}",
            self.curr,
            self.len
        );
        let identity = self.op.identity();
        for slot in (0..wsize - self.len).map(|j| (self.curr + j) % wsize) {
            let held = &self.slots[slot];
            ensure!(
                name,
                "dead-slot-identity",
                *held == identity,
                "non-live slot {slot} holds {held:?}"
            );
        }
        Ok(())
    }

    /// Capture `[curr, len]` and the slots in storage order.
    pub(crate) fn save_ring(&self, w: &mut StateWriter<O::Partial>) {
        w.usize_word(self.curr);
        w.usize_word(self.len);
        for p in &self.slots {
            w.partial(p.clone());
        }
    }

    /// Rebuild a ring of `wsize ≥ 1` slots written by
    /// [`save_ring`](Self::save_ring). Structural validation only
    /// ([`check_layout`](Self::check_layout)): the refold in
    /// [`check_ring`](Self::check_ring) is exact only for streams where ⊖
    /// is a perfect inverse, so a legitimate floating-point state would be
    /// wrongly rejected. A live partial in a non-live slot means `curr` or
    /// `len` is off.
    pub(crate) fn load_ring(
        op: O,
        wsize: usize,
        r: &mut StateReader<'_, O::Partial>,
    ) -> Result<Self, StateError> {
        let curr = r.usize_word("slickdeque_inv curr")?;
        let len = r.usize_word("slickdeque_inv len")?;
        let slots = r.partial_vec(wsize, "slickdeque_inv ring")?;
        let ring = AnswerRing {
            op,
            slots,
            curr,
            len,
        };
        ring.check_layout("slickdeque_inv")?;
        Ok(ring)
    }
}

impl<O: InvertibleOp> MemoryFootprint for AnswerRing<O> {
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * core::mem::size_of::<O::Partial>()
    }
}
