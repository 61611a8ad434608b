//! Multi-query SlickDeque — the paper's Algorithms 1 and 2 in full.
//!
//! [`MultiSlickDequeInv`] keeps one running answer per distinct range in an
//! answers map and updates each with one ⊕ (the arrival) and one ⊖ (the
//! partial expiring from that range) — `2q` operations per slide for `q`
//! distinct ranges — on the history ring it shares with
//! [`SlickDequeInv`](crate::algorithms::SlickDequeInv).
//!
//! [`MultiSlickDequeNonInv`] keeps one monotone deque of nodes stamped with
//! their arrival index and answers all ranges in a single head-to-tail
//! pass, largest range first: range `r` resolves at the first node fewer
//! than `r` arrivals old (Algorithm 2's answer loop; DESIGN.md §2 on why
//! its wrapped positions are not reproduced).

use crate::aggregator::{normalize_ranges, MemoryFootprint, MultiFinalAggregator};
use crate::answer_ring::AnswerRing;
use crate::invariants::{ensure, strict_check, InvariantViolation};
use crate::monodeque::{MonoDeque, MIN_FRAME};
use crate::ops::{InvertibleOp, SelectiveOp};

/// Algorithm 1: multi-ACQ processing of invertible aggregates.
///
/// ```
/// use swag_core::aggregator::MultiFinalAggregator;
/// use swag_core::multi::MultiSlickDequeInv;
/// use swag_core::ops::Sum;
///
/// let mut acqs = MultiSlickDequeInv::with_ranges(Sum::<i64>::new(), &[5, 3]);
/// let mut out = Vec::new();
/// for v in [6, 5, 0, 1] {
///     acqs.slide_multi(v, &mut out);
/// }
/// assert_eq!(out, vec![12, 6]); // ranges [5, 3], the paper's Example 2 step 4
/// ```
#[derive(Debug, Clone)]
pub struct MultiSlickDequeInv<O: InvertibleOp> {
    /// Circular history of `wSize` slots: the largest range ever
    /// registered.
    ring: AnswerRing<O>,
    /// Distinct ranges, descending.
    ranges: Vec<usize>,
    /// The answers map: `answers[i]` is the running aggregate of
    /// `ranges[i]`.
    answers: Vec<O::Partial>,
}

impl<O: InvertibleOp> MultiSlickDequeInv<O> {
    /// Create a SlickDeque (Inv) for the given ranges.
    pub fn new(op: O, ranges: &[usize]) -> Self {
        let ranges = normalize_ranges(ranges);
        let answers = ranges.iter().map(|_| op.identity()).collect();
        MultiSlickDequeInv {
            ring: AnswerRing::new(op, ranges[0]),
            ranges,
            answers,
        }
    }

    /// Register a new ACQ range at runtime (the paper's §6 "dynamic
    /// environments" direction). Idempotent for ranges already served.
    ///
    /// The initial answer is computed from the retained history: if the
    /// new range exceeds the current window, the window grows and the
    /// answer covers what history exists (older tuples are gone — the
    /// query warms up going forward). O(window).
    pub fn add_query(&mut self, range: usize) {
        assert!(range >= 1, "query ranges must be positive");
        if self.ranges.contains(&range) {
            return;
        }
        if range > self.ring.wsize() {
            self.ring.relayout(range);
        }
        let at = self.ranges.partition_point(|&x| x > range);
        self.ranges.insert(at, range);
        self.answers.insert(at, self.ring.fold_last(range));
    }

    /// Deregister an ACQ range at runtime. Returns `true` if it was
    /// present. The window capacity stays at its high-water mark.
    ///
    /// Panics when removing the last registered range (an aggregator
    /// without queries has no meaning).
    pub fn remove_query(&mut self, range: usize) -> bool {
        match self.ranges.iter().position(|&x| x == range) {
            Some(at) => {
                assert!(self.ranges.len() > 1, "cannot remove the last query");
                self.ranges.remove(at);
                self.answers.remove(at);
                true
            }
            None => false,
        }
    }
}

impl<O: InvertibleOp> MultiFinalAggregator<O> for MultiSlickDequeInv<O> {
    const NAME: &'static str = "slickdeque_inv";

    fn with_ranges(op: O, ranges: &[usize]) -> Self {
        MultiSlickDequeInv::new(op, ranges)
    }

    /// Algorithm 1 lines 19-25: `ans ← ans ⊕ newPartial ⊖ partials[startPos]`.
    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        self.ring
            .advance_answers(&self.ranges, &mut self.answers, partial);
        out.clear();
        out.extend_from_slice(&self.answers);
        strict_check!(self);
    }

    /// Range-major over ring runs, in `slide_multi`'s per-range combine
    /// order: bitwise its answers.
    fn bulk_slide_multi(&mut self, batch: &[O::Partial], out: &mut Vec<O::Partial>) {
        self.ring
            .advance_answers_bulk(&self.ranges, &mut self.answers, batch, out);
        strict_check!(self);
    }

    fn ranges(&self) -> &[usize] {
        &self.ranges
    }

    /// The ring size: the largest range ever registered, which
    /// `remove_query` leaves at its high-water mark.
    fn window(&self) -> usize {
        self.ring.wsize()
    }

    /// The ring's Algorithm 1 invariants over every registered range: each
    /// running answer is the fold of its last `r` history slots.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.ring
            .check_ring(Self::NAME, &self.ranges, &self.answers)
    }
}

impl<O: InvertibleOp> MemoryFootprint for MultiSlickDequeInv<O> {
    fn heap_bytes(&self) -> usize {
        self.ring.heap_bytes()
            + self.answers.capacity() * core::mem::size_of::<O::Partial>()
            + self.ranges.capacity() * core::mem::size_of::<usize>()
    }
}

/// Algorithm 2: multi-ACQ processing of non-invertible (selective)
/// aggregates on one shared monotone deque.
///
/// ```
/// use swag_core::aggregator::MultiFinalAggregator;
/// use swag_core::multi::MultiSlickDequeNonInv;
/// use swag_core::ops::{AggregateOp, Max};
///
/// let op = Max::<i64>::new();
/// let mut acqs = MultiSlickDequeNonInv::with_ranges(op, &[5, 3]);
/// let mut out = Vec::new();
/// for v in [6, 5, 0, 1] {
///     acqs.slide_multi(op.lift(&v), &mut out);
/// }
/// assert_eq!(out, vec![Some(6), Some(5)]); // the paper's Example 3 step 4
/// ```
#[derive(Debug, Clone)]
pub struct MultiSlickDequeNonInv<O: SelectiveOp> {
    /// Nodes are stamped with their absolute arrival index.
    deque: MonoDeque<O>,
    ranges: Vec<usize>,
    wsize: usize,
    /// Absolute index the next arrival will receive.
    next_pos: u64,
}

impl<O: SelectiveOp> MultiSlickDequeNonInv<O> {
    /// Create a SlickDeque (Non-Inv) for the given ranges.
    pub fn new(op: O, ranges: &[usize]) -> Self {
        let ranges = normalize_ranges(ranges);
        let wsize = ranges[0];
        MultiSlickDequeNonInv {
            deque: MonoDeque::new(op, Some(wsize)),
            ranges,
            wsize,
            next_pos: 0,
        }
    }

    /// Number of nodes currently on the deque.
    pub fn deque_len(&self) -> usize {
        self.deque.len()
    }

    /// Register a new ACQ range at runtime (the paper's §6 "dynamic
    /// environments" direction). Idempotent for ranges already served.
    ///
    /// Ranges within the current window are answerable immediately — the
    /// monotone deque already retains every candidate for every sub-range.
    /// A larger range grows the window and the query warms up going forward
    /// (expired history cannot be resurrected).
    pub fn add_query(&mut self, range: usize) {
        assert!(range >= 1, "query ranges must be positive");
        if self.ranges.contains(&range) {
            return;
        }
        self.wsize = self.wsize.max(range);
        let at = self.ranges.partition_point(|&x| x > range);
        self.ranges.insert(at, range);
    }

    /// Deregister an ACQ range at runtime. Returns `true` if it was
    /// present. The window capacity stays at its high-water mark. Panics
    /// when removing the last registered range.
    pub fn remove_query(&mut self, range: usize) -> bool {
        match self.ranges.iter().position(|&x| x == range) {
            Some(at) => {
                assert!(self.ranges.len() > 1, "cannot remove the last query");
                self.ranges.remove(at);
                true
            }
            None => false,
        }
    }

    /// The oldest arrival index still inside the window.
    fn oldest_live(&self) -> u64 {
        self.next_pos.saturating_sub(self.wsize as u64)
    }

    /// One slide of Algorithm 2, its answers appended to `out`: the head
    /// leaves when the arrival pushes it out of the window (line 13), the
    /// arrival pops the tails it defeats (lines 15-18), and every range is
    /// answered in one pass from the head (lines 20-40).
    fn slide_into(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        let now = self.next_pos;
        self.next_pos += 1;
        self.deque.expire(self.oldest_live());
        self.deque.arrive(now, partial);
        let ranges = self.ranges.iter().map(|&r| r as u64);
        self.deque.answers_into(now, ranges, out);
        strict_check!(self);
    }
}

impl<O: SelectiveOp> MultiFinalAggregator<O> for MultiSlickDequeNonInv<O> {
    const NAME: &'static str = "slickdeque_noninv";

    fn with_ranges(op: O, ranges: &[usize]) -> Self {
        MultiSlickDequeNonInv::new(op, ranges)
    }

    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>) {
        out.clear();
        self.slide_into(partial, out);
    }

    /// Frame-wise answers (`MonoDeque::answer_frame`): the batch is cut
    /// into frames no longer than the smallest range; per frame, every
    /// answer is the pre-frame deque node still inside that range's window
    /// ⊕ the frame's prefix scan, and the shared deque is updated once.
    /// Bitwise the answers of `slide_multi` — selection returns one of the
    /// window's own partials — without its data-dependent pop branch;
    /// frames under `MIN_FRAME` partials keep the per-slide loop. Expiry
    /// is by `wsize`, which can exceed `ranges[0]` after `remove_query`.
    fn bulk_slide_multi(&mut self, batch: &[O::Partial], out: &mut Vec<O::Partial>) {
        out.clear();
        let Some(&shortest) = self.ranges.last() else {
            return;
        };
        out.reserve(batch.len() * self.ranges.len());
        for run in batch.chunks(shortest) {
            if run.len() < MIN_FRAME {
                for p in run {
                    self.slide_into(p.clone(), out);
                }
                continue;
            }
            let first = self.next_pos;
            self.deque.answer_frame(first, &self.ranges, run, out);
            self.next_pos += run.len() as u64;
            // Heads the frame pushes out go first, so the tail count never
            // tests a node that is leaving anyway.
            self.deque.expire(self.oldest_live());
            self.deque.append_frame(first, run);
            strict_check!(self);
        }
    }

    fn ranges(&self) -> &[usize] {
        &self.ranges
    }

    /// The window size nodes expire by: the largest range ever registered,
    /// which `remove_query` leaves at its high-water mark.
    fn window(&self) -> usize {
        self.wsize
    }

    /// Multi-query SlickDeque (Non-Inv) invariants (paper Algorithm 2): the
    /// ranges list is descending with the largest range inside the window,
    /// and the shared `MonoDeque::check_invariants` with strictly
    /// increasing positions among the last `wsize` arrivals — so the deque
    /// never holds more nodes than window slots. `O(deque_len)` combines.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure!(
            Self::NAME,
            "ranges-normalized",
            !self.ranges.is_empty()
                && self.ranges[0] <= self.wsize
                && self.ranges.windows(2).all(|w| w[0] > w[1]),
            "ranges {:?} for wsize {}",
            self.ranges,
            self.wsize
        );
        let live = self.oldest_live()..self.next_pos;
        self.deque.check_invariants(Self::NAME, live, true)
    }
}

impl<O: SelectiveOp> MemoryFootprint for MultiSlickDequeNonInv<O> {
    fn heap_bytes(&self) -> usize {
        self.deque.heap_bytes() + self.ranges.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AggregateOp, Max, Min, Sum};

    #[test]
    fn inv_two_ranges_hand_computed() {
        let mut agg = MultiSlickDequeInv::new(Sum::<i64>::new(), &[2, 4]);
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
    fn noninv_two_ranges_hand_computed() {
        let op = Max::<i64>::new();
        let mut agg = MultiSlickDequeNonInv::new(op, &[3, 2]);
        let mut out = Vec::new();
        agg.slide_multi(op.lift(&5), &mut out);
        assert_eq!(out, vec![Some(5), Some(5)]);
        agg.slide_multi(op.lift(&9), &mut out);
        assert_eq!(out, vec![Some(9), Some(9)]);
        agg.slide_multi(op.lift(&1), &mut out);
        assert_eq!(out, vec![Some(9), Some(9)]);
        agg.slide_multi(op.lift(&2), &mut out);
        assert_eq!(out, vec![Some(9), Some(2)]);
        agg.slide_multi(op.lift(&0), &mut out);
        assert_eq!(out, vec![Some(2), Some(2)]);
    }

    #[test]
    fn noninv_min_ranges() {
        let op = Min::<i64>::new();
        let mut agg = MultiSlickDequeNonInv::new(op, &[4, 1]);
        let mut out = Vec::new();
        for v in [5, 3, 8, 1, 9, 2] {
            agg.slide_multi(op.lift(&v), &mut out);
            assert_eq!(out[1], Some(v), "range-1 answer is the arrival");
        }
        assert_eq!(out[0], Some(1)); // window 8,1,9,2
    }

    #[test]
    fn inv_range_equal_to_wsize_reads_expiring_slot() {
        // range == wSize makes startPos == curr: the expiring value is the
        // one about to be overwritten, which must be read pre-overwrite.
        let mut agg = MultiSlickDequeInv::new(Sum::<i64>::new(), &[3]);
        let mut out = Vec::new();
        for (v, expect) in [(1, 1), (2, 3), (3, 6), (10, 15), (20, 33)] {
            agg.slide_multi(v, &mut out);
            assert_eq!(out, vec![expect]);
        }
    }

    /// The frame path's exact cost in aggregate operations, pinned.
    ///
    /// `bulk_slide_multi` trades the per-slide path's data-dependent pop
    /// branch for about one extra ⊕ per partial: per frame of `b` partials
    /// it spends `b − 1` on the prefix scan, one per answer that still has
    /// a live pre-frame node, `b − 1` `defeats` in the survivor scan (a
    /// survivor becomes the running winner by `clone`, not by a further
    /// `combine`) and one `defeats` per deque tail node examined. On this
    /// stream that is 3.01 per partial against 1.96 for `slide_multi` —
    /// whose count, like `slide`'s, is untouched: the paper's "< 2
    /// operations per slide" (Table 1, `amortized_under_two_ops`,
    /// `baselines/tails.json`) is a statement about the per-slide path.
    /// The ledger's traced pass therefore reads
    /// `core.ops.combines_per_tuple.max_single` ≈ 3.02, and
    /// `stream.executor.self_ns_per_tuple`, a difference of two probes
    /// (executor minus a bare `bulk_slide`), can read ≈ 0 or slightly
    /// negative.
    // Exact operation counts are meaningless when the strict-invariants
    // self-checks run their own combines inside every mutation.
    #[cfg(not(feature = "strict-invariants"))]
    #[test]
    fn frame_path_operation_count_is_pinned() {
        use crate::aggregator::FinalAggregator;
        use crate::algorithms::SlickDequeNonInv;
        use crate::ops::{CountingOp, MaxF64, OpCounter};

        const RANGE: usize = 1024;
        const FRAME: usize = 512;
        const FRAMES: usize = 64;
        const PINNED_PER_SLIDE: u64 = 64_386;
        const PINNED_FRAMED: u64 = 98_682;
        // A bounded random walk on a 1/64 grid: short monotone runs and
        // ties, the shape of a sensor channel.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut level = 0i64;
        let stream: Vec<f64> = (0..FRAME * FRAMES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                level = (level + (x % 33) as i64 - 16).clamp(-4096, 4096);
                level as f64 / 64.0
            })
            .collect();
        let counter = OpCounter::new();
        let op = CountingOp::new(MaxF64::new(), counter.clone());
        let mut out = Vec::new();

        let mut scalar = MultiSlickDequeNonInv::with_ranges(op.clone(), &[RANGE]);
        let mut expected = Vec::with_capacity(stream.len());
        for v in &stream {
            scalar.slide_multi(*v, &mut out);
            expected.push(out[0].to_bits());
        }
        let per_slide = counter.take();

        let mut bulk = MultiSlickDequeNonInv::with_ranges(op.clone(), &[RANGE]);
        let mut got = Vec::with_capacity(stream.len());
        for frame in stream.chunks(FRAME) {
            bulk.bulk_slide_multi(frame, &mut out);
            got.extend(out.iter().map(|p| p.to_bits()));
        }
        let framed = counter.take();
        assert_eq!(got, expected);

        let mut single = SlickDequeNonInv::with_capacity(op, RANGE);
        for frame in stream.chunks(FRAME) {
            single.bulk_slide(frame, &mut out);
        }
        let framed_single = counter.take();

        assert_eq!(per_slide, PINNED_PER_SLIDE, "slide_multi's count moved");
        assert_eq!(framed, PINNED_FRAMED, "the frame path's count moved");
        assert_eq!(framed_single, framed, "one kernel, one count");
        assert!(per_slide < 2 * stream.len() as u64);
    }

    #[test]
    fn noninv_deque_stays_small_on_ascending_input() {
        let op = Max::<i64>::new();
        let mut agg = MultiSlickDequeNonInv::new(op, &[8, 4, 2, 1]);
        let mut out = Vec::new();
        for v in 0..100 {
            agg.slide_multi(op.lift(&v), &mut out);
            assert_eq!(agg.deque_len(), 1);
            assert_eq!(out, vec![Some(v); 4]);
        }
    }
}

#[cfg(test)]
mod dynamic_tests {
    //! Runtime ACQ registration — the paper's §6 "dynamic environments"
    //! direction, validated against freshly-built aggregators.
    use super::*;
    use crate::aggregator::MultiFinalAggregator;
    use crate::ops::{AggregateOp, Max, Sum};

    #[test]
    fn inv_add_smaller_range_is_immediately_exact() {
        let mut agg = MultiSlickDequeInv::new(Sum::<i64>::new(), &[6]);
        let mut out = Vec::new();
        for v in 1..=6 {
            agg.slide_multi(v, &mut out);
        }
        agg.add_query(3);
        assert_eq!(agg.ranges(), &[6, 3]);
        agg.slide_multi(7, &mut out);
        // Range 6: 2+…+7 = 27; range 3: 5+6+7 = 18.
        assert_eq!(out, vec![27, 18]);
    }

    #[test]
    fn inv_add_larger_range_grows_window() {
        let mut agg = MultiSlickDequeInv::new(Sum::<i64>::new(), &[3]);
        let mut out = Vec::new();
        for v in 1..=5 {
            agg.slide_multi(v, &mut out);
        }
        // History retained: 3,4,5. Register range 5 — it can only see the
        // retained window, so it warms up from there.
        agg.add_query(5);
        agg.slide_multi(6, &mut out);
        // Range 5 covers (retained 3,4,5) + 6 = 18; range 3: 4+5+6 = 15.
        assert_eq!(out, vec![18, 15]);
        agg.slide_multi(7, &mut out);
        assert_eq!(out, vec![25, 18]); // 3+4+5+6+7, 5+6+7
        agg.slide_multi(8, &mut out);
        assert_eq!(out, vec![30, 21]); // 4+…+8 now a true 5-window
    }

    #[test]
    fn inv_remove_query() {
        let mut agg = MultiSlickDequeInv::new(Sum::<i64>::new(), &[5, 2]);
        assert!(agg.remove_query(2));
        assert!(!agg.remove_query(2));
        assert_eq!(agg.ranges(), &[5]);
        let mut out = Vec::new();
        agg.slide_multi(10, &mut out);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn noninv_add_smaller_range_is_immediately_exact() {
        let op = Max::<i64>::new();
        let mut agg = MultiSlickDequeNonInv::new(op, &[6]);
        let mut out = Vec::new();
        for v in [9, 8, 7, 3, 2, 1] {
            agg.slide_multi(op.lift(&v), &mut out);
        }
        agg.add_query(2);
        agg.slide_multi(op.lift(&0), &mut out);
        // Range 6: max(8,7,3,2,1,0) = 8; range 2: max(1,0) = 1.
        assert_eq!(out, vec![Some(8), Some(1)]);
    }

    #[test]
    fn noninv_add_larger_range_grows_window() {
        let op = Max::<i64>::new();
        let mut agg = MultiSlickDequeNonInv::new(op, &[2]);
        let mut out = Vec::new();
        for v in [9, 5, 4] {
            agg.slide_multi(op.lift(&v), &mut out);
        }
        // Window-2 state: candidates among (5, 4) → deque holds 5, 4.
        agg.add_query(4);
        // The 4-range can only see retained candidates going forward.
        agg.slide_multi(op.lift(&3), &mut out);
        assert_eq!(out, vec![Some(5), Some(4)]); // ranges [4, 2]: last-2 = (4,3)
        agg.slide_multi(op.lift(&2), &mut out);
        assert_eq!(out, vec![Some(5), Some(3)]);
        agg.slide_multi(op.lift(&1), &mut out);
        // 5 expired from the grown window: (4,3,2,1).
        assert_eq!(out, vec![Some(4), Some(2)]);
    }

    #[test]
    fn noninv_dynamic_matches_fresh_aggregator_long_run() {
        let op = Max::<i64>::new();
        let stream: Vec<i64> = (0..400).map(|i| (i * 61) % 127).collect();
        let mut dynamic = MultiSlickDequeNonInv::new(op, &[8]);
        let mut out = Vec::new();
        for &v in &stream[..50] {
            dynamic.slide_multi(op.lift(&v), &mut out);
        }
        dynamic.add_query(20);
        dynamic.add_query(3);
        // After 20 more slides every range has warmed up; compare with a
        // fresh aggregator over the same suffix state.
        let mut fresh = MultiSlickDequeNonInv::new(op, &[20, 8, 3]);
        let mut fout = Vec::new();
        // Feed the fresh aggregator the last 20 tuples of the prefix so
        // its window matches.
        for &v in &stream[30..50] {
            fresh.slide_multi(op.lift(&v), &mut fout);
        }
        for (i, &v) in stream[50..].iter().enumerate() {
            dynamic.slide_multi(op.lift(&v), &mut out);
            fresh.slide_multi(op.lift(&v), &mut fout);
            if i >= 20 {
                assert_eq!(out, fout, "slide {i}");
            }
        }
    }

    /// `remove_query` keeps the window at its high-water mark, so after
    /// the largest range goes `ranges[0] < wsize`: the checkers must accept
    /// it, `window()` must keep reporting the size the ring wraps and the
    /// deque expires by, and both bulk paths must keep taking it from
    /// `wsize`.
    #[test]
    fn removing_the_largest_range_keeps_window_and_invariants() {
        let sum = Sum::<i64>::new();
        let mut inv = MultiSlickDequeInv::with_ranges(sum, &[8, 4]);
        let max = Max::<i64>::new();
        let mut noninv = MultiSlickDequeNonInv::with_ranges(max, &[8, 4]);
        let (mut iout, mut nout) = (Vec::new(), Vec::new());
        for v in 0..20 {
            inv.slide_multi(v, &mut iout);
            noninv.slide_multi(max.lift(&(v % 7)), &mut nout);
        }
        assert!(inv.remove_query(8));
        assert!(noninv.remove_query(8));
        inv.slide_multi(20, &mut iout);
        noninv.slide_multi(max.lift(&6), &mut nout);
        assert_eq!(iout, vec![17 + 18 + 19 + 20]);
        assert_eq!(nout, vec![Some(6)]); // 17 % 7, 18 % 7, 19 % 7, 6
        inv.check_invariants().unwrap();
        noninv.check_invariants().unwrap();
        assert_eq!((inv.ranges(), inv.window()), (&[4][..], 8));
        assert_eq!((noninv.ranges(), noninv.window()), (&[4][..], 8));
        // A batch long enough for the frame path and for a ring wrap.
        let batch: Vec<i64> = (21..50).collect();
        inv.bulk_slide_multi(&batch, &mut iout);
        assert_eq!(iout.last(), Some(&(46 + 47 + 48 + 49)));
        inv.check_invariants().unwrap();
        let lifted: Vec<_> = batch.iter().map(|v| max.lift(&(v % 7))).collect();
        noninv.bulk_slide_multi(&lifted, &mut nout);
        assert_eq!(nout.last(), Some(&Some(6))); // 46 % 7 .. 49 % 7 = 4, 5, 6, 0
        noninv.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "last query")]
    fn removing_last_query_panics() {
        let mut agg = MultiSlickDequeInv::new(Sum::<i64>::new(), &[4]);
        agg.remove_query(4);
    }

    #[test]
    fn add_existing_range_is_idempotent() {
        let mut agg = MultiSlickDequeInv::new(Sum::<i64>::new(), &[4, 2]);
        agg.add_query(4);
        assert_eq!(agg.ranges(), &[4, 2]);
    }
}
