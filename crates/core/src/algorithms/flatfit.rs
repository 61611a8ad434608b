//! FlatFIT — the Flat and Fast Index Traverser (paper §2.2).
//!
//! FlatFIT stores intermediate results (`partials`) together with pointers
//! that record how far ahead each stored result already covers, plus a
//! `positions` stack of indices visited during the current look-up. Each
//! query walks the pointer chain from the oldest position to the newest,
//! then unwinds the stack, widening every visited entry into a suffix
//! aggregate that future queries can reuse — so steady-state slides cost
//! one or two combines, with a periodic longer "window reset" walk that
//! produces FlatFIT's latency spikes.
//!
//! Complexity (Table 1): amortized 3 operations per slide, worst case `n`
//! (the reset); space `2n` (two `n`-slot arrays; the stack reaches 2
//! entries in the single-query steady state).

use crate::aggregator::{FinalAggregator, MemoryFootprint};
use crate::invariants::{ensure, strict_check, InvariantViolation};
use crate::ops::AggregateOp;

/// Index-traverser aggregator with result reuse.
#[derive(Debug, Clone)]
pub struct FlatFit<O: AggregateOp> {
    op: O,
    /// `partials[i]` aggregates window slots `[i, pointers[i])` (circular,
    /// never crossing the newest slot).
    partials: Vec<O::Partial>,
    /// Skip pointers: one past the last slot covered by `partials[i]`.
    pointers: Vec<usize>,
    /// Scratch stack of visited indices (the paper's `positions`).
    positions: Vec<usize>,
    window: usize,
    /// Slot the next arrival will overwrite (the oldest once full).
    curr: usize,
    len: usize,
}

impl<O: AggregateOp> FlatFit<O> {
    /// Create a FlatFIT over a window of `window` partials.
    pub fn new(op: O, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one partial");
        let partials = (0..window).map(|_| op.identity()).collect();
        let pointers = (0..window).map(|i| (i + 1) % window).collect();
        FlatFit {
            op,
            partials,
            pointers,
            positions: Vec::new(),
            window,
            curr: 0,
            len: 0,
        }
    }

    /// The operation driving this aggregator.
    pub fn op(&self) -> &O {
        &self.op
    }

    /// Walk the pointer chain from `start` to the newest slot `newest`,
    /// answer the query, and widen every visited entry into a suffix
    /// aggregate reaching `newest` so later queries can skip.
    fn traverse_and_update(&mut self, start: usize, newest: usize) -> O::Partial {
        debug_assert!(self.positions.is_empty());
        let mut i = start;
        while i != newest {
            self.positions.push(i); // alloc:amortized window buffer growth is amortized O(1) doubling
            i = self.pointers[i];
        }
        // `acc` is the suffix aggregate from the unwound position through
        // `newest`; seed it with the newest slot itself.
        let mut acc = self.partials[newest].clone();
        let after_newest = (newest + 1) % self.window;
        while let Some(j) = self.positions.pop() {
            acc = self.op.combine(&self.partials[j], &acc);
            self.partials[j] = acc.clone();
            self.pointers[j] = after_newest;
        }
        acc
    }
}

impl<O: AggregateOp> FinalAggregator<O> for FlatFit<O> {
    const NAME: &'static str = "flatfit";

    fn with_capacity(op: O, window: usize) -> Self {
        FlatFit::new(op, window)
    }

    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        let newest = self.curr;
        self.partials[newest] = partial; // check:allow index kept in-bounds by the ring/stack invariant
        self.pointers[newest] = (newest + 1) % self.window; // check:allow index kept in-bounds by the ring/stack invariant
        self.curr = (self.curr + 1) % self.window;
        self.len = (self.len + 1).min(self.window);
        if self.len == 1 || self.window == 1 {
            strict_check!(self);
            return self.partials[newest].clone(); // check:allow index kept in-bounds by the ring/stack invariant
        }
        // Oldest live slot: the slot `len − 1` positions behind `newest`.
        // With a full window this is the slot after `newest`; during
        // warm-up (no evictions) it is slot 0.
        let start = (self.curr + self.window - self.len) % self.window;
        let answer = self.traverse_and_update(start, newest);
        strict_check!(self);
        answer
    }

    fn window(&self) -> usize {
        self.window
    }

    fn len(&self) -> usize {
        self.len
    }

    /// O(1): the expired slot drops out of the live range; stale skip
    /// pointers stay valid because they only ever cover slots between the
    /// (new) oldest live slot and a past newest.
    fn evict(&mut self) {
        assert!(self.len > 0, "evict from an empty FlatFIT window"); // check:allow precondition assert documenting the caller contract
        self.len -= 1;
        strict_check!(self);
    }

    /// O(1) for any `n`: pure length arithmetic.
    fn bulk_evict(&mut self, n: usize) {
        assert!(n <= self.len, "evicting {n} of {} partials", self.len); // check:allow precondition assert documenting the caller contract
        self.len -= n;
        strict_check!(self);
    }

    /// Plain ring writes with fresh skip pointers, zero combines: the
    /// pointer chain degrades to single steps over the batch and is
    /// re-widened by the next query's traversal.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        for p in batch {
            self.partials[self.curr] = p.clone(); // check:allow index kept in-bounds by the ring/stack invariant
            self.pointers[self.curr] = (self.curr + 1) % self.window; // check:allow index kept in-bounds by the ring/stack invariant
            self.curr = (self.curr + 1) % self.window;
            self.len = (self.len + 1).min(self.window);
        }
        strict_check!(self);
    }

    /// FlatFIT invariants (paper §2.2): the PartialInts and Pointers arrays
    /// stay window-sized with every skip pointer inside the ring, the
    /// Positions scratch stack is fully unwound between operations (each
    /// traversal pushes and pops it to empty), and the pointer chain from
    /// the oldest live slot reaches the newest slot without revisiting a
    /// slot — stale widened pointers must never skip past the newest
    /// element, or a future query would loop or cover expired slots.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure!(
            Self::NAME,
            "array-shape",
            self.partials.len() == self.window && self.pointers.len() == self.window,
            "partials {} / pointers {} for window {}",
            self.partials.len(),
            self.pointers.len(),
            self.window
        );
        ensure!(
            Self::NAME,
            "positions-unwound",
            self.positions.is_empty(),
            "positions stack holds {} entries between operations",
            self.positions.len()
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
        for (i, &p) in self.pointers.iter().enumerate() {
            ensure!(
                Self::NAME,
                "pointer-in-ring",
                p < self.window,
                "pointer {i} targets {p} outside window {}",
                self.window
            );
        }
        // Simulate the next slide's traversal: it will write slot `curr`
        // (making it the newest), re-point that slot, and walk the chain
        // from the then-oldest live slot. Stale widened pointers always
        // target a *past* `after_newest`, so the walk must land exactly on
        // `curr` within `window` hops — a pointer skipping past it would
        // make the next query loop forever over expired slots.
        if self.window > 1 && self.len >= 1 {
            let next_len = (self.len + 1).min(self.window);
            let newest = self.curr;
            let start = (self.curr + 1 + self.window - next_len) % self.window;
            let mut i = start;
            let mut hops = 0usize;
            while i != newest {
                i = self.pointers[i];
                hops += 1;
                ensure!(
                    Self::NAME,
                    "chain-termination",
                    hops <= self.window,
                    "pointer chain from {start} fails to reach the next \
                     newest slot {newest} within {} hops",
                    self.window
                );
            }
        }
        Ok(())
    }
}

impl<O: AggregateOp> MemoryFootprint for FlatFit<O> {
    fn heap_bytes(&self) -> usize {
        self.partials.capacity() * core::mem::size_of::<O::Partial>()
            + self.pointers.capacity() * core::mem::size_of::<usize>()
            + self.positions.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Naive;
    use crate::ops::{CountingOp, Max, OpCounter, Sum};

    #[test]
    fn matches_naive_on_sum() {
        let mut fit = FlatFit::new(Sum::<i64>::new(), 4);
        let mut naive = Naive::new(Sum::<i64>::new(), 4);
        for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9] {
            assert_eq!(fit.slide(v), naive.slide(v));
        }
    }

    #[test]
    fn matches_naive_on_max() {
        let op = Max::<i64>::new();
        let mut fit = FlatFit::new(op, 6);
        let mut naive = Naive::new(op, 6);
        for v in [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5, 9, 1, 3, 3, 7, 2, 2] {
            assert_eq!(fit.slide(op.lift(&v)), naive.slide(op.lift(&v)));
        }
    }

    #[test]
    fn long_run_against_naive() {
        let mut fit = FlatFit::new(Sum::<i64>::new(), 17);
        let mut naive = Naive::new(Sum::<i64>::new(), 17);
        let mut x = 42u32;
        for _ in 0..3000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let v = (x >> 20) as i64;
            assert_eq!(fit.slide(v), naive.slide(v));
        }
    }

    #[test]
    fn window_one() {
        let mut fit = FlatFit::new(Sum::<i64>::new(), 1);
        assert_eq!(fit.slide(5), 5);
        assert_eq!(fit.slide(7), 7);
    }

    #[test]
    fn steady_state_costs_one_or_two_combines() {
        // After warm-up, the pointer reuse keeps per-slide combines low —
        // the behaviour behind FlatFIT's amortized-constant throughput.
        let counter = OpCounter::new();
        let op = CountingOp::new(Sum::<i64>::new(), counter.clone());
        let n = 32;
        let mut fit = FlatFit::new(op, n);
        for v in 0..(3 * n as i64) {
            fit.slide(v);
        }
        counter.reset();
        let slides = 10 * n as u64;
        for v in 0..slides as i64 {
            fit.slide(v);
        }
        let per_slide = counter.get() as f64 / slides as f64;
        assert!(
            per_slide <= 3.0,
            "FlatFIT amortized cost too high: {per_slide}"
        );
    }

    #[test]
    fn warmup_answers_cover_arrived_only() {
        let mut fit = FlatFit::new(Sum::<i64>::new(), 8);
        assert_eq!(fit.slide(10), 10);
        assert_eq!(fit.slide(20), 30);
        assert_eq!(fit.slide(5), 35);
    }
}
