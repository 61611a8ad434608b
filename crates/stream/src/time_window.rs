//! Event-time windows with watermark-driven emission.
//!
//! The count-based executors in this crate answer "the last `n` tuples"
//! on every slide; [`TimeWindowExec`] instead answers aligned **time**
//! windows `[k·slide, k·slide + range)` over event timestamps, emitting a
//! window's answer exactly once — when the watermark passes its end, i.e.
//! when no in-flight tuple can still land inside it. Tuples may arrive in
//! any order; the [`FingerBTree`] underneath absorbs the disorder, and a
//! tuple older than the current watermark is refused (the caller counts
//! it as late).
//!
//! Emission is **watermark-deterministic**: which answers come out of
//! which `advance_watermark` call depends on the watermark values fed in,
//! but the full answer *sequence* — `(query, window end, value)` triples
//! in window order — depends only on the accepted tuple set. Feeding the
//! same tuples through different batchings or shardings yields the same
//! answers.

use swag_core::ops::AggregateOp;
use swag_ooo::{FingerBTree, Timestamp};

/// One aligned time window: `range` wide, advancing by `slide`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindowSpec {
    /// Window width in event-time units.
    pub range: u64,
    /// Distance between consecutive window starts.
    pub slide: u64,
}

impl TimeWindowSpec {
    /// A `range`-wide window sliding by `slide`; both must be ≥ 1.
    pub fn new(range: u64, slide: u64) -> Self {
        assert!(range >= 1, "window range must be at least 1");
        assert!(slide >= 1, "window slide must be at least 1");
        TimeWindowSpec { range, slide }
    }

    /// A tumbling window: slide = range.
    pub fn tumbling(range: u64) -> Self {
        Self::new(range, range)
    }
}

/// One emitted answer: `(query index, window end, lowered value)`.
pub type TimeAnswer<T> = (usize, Timestamp, T);

/// Shared-tree executor for one or more time windows over a single
/// out-of-order stream (the event-time sibling of the shared-plan
/// multi-query executors).
#[derive(Debug)]
pub struct TimeWindowExec<O: AggregateOp> {
    tree: FingerBTree<O>,
    specs: Vec<TimeWindowSpec>,
    /// Per-spec end of the next window to emit; `None` until the first
    /// tuple fixes where emission starts (windows from before a stream's
    /// first event are skipped rather than emitted empty).
    next_end: Vec<Option<Timestamp>>,
    watermark: Timestamp,
    /// Saturates rather than overflows: a restored count is untrusted.
    accepted: u64,
}

impl<O: AggregateOp> TimeWindowExec<O> {
    /// An executor answering `specs` with `op` over a shared tree.
    pub fn new(op: O, specs: Vec<TimeWindowSpec>) -> Self {
        assert!(!specs.is_empty(), "need at least one time window");
        let next_end = vec![None; specs.len()];
        TimeWindowExec {
            tree: FingerBTree::new(op),
            specs,
            next_end,
            watermark: 0,
            accepted: 0,
        }
    }

    /// The window specs being answered, in query order.
    pub fn specs(&self) -> &[TimeWindowSpec] {
        &self.specs
    }

    /// The watermark last passed to
    /// [`advance_watermark`](Self::advance_watermark).
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Tuples accepted so far (late refusals excluded).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Live tuples currently held in the tree.
    pub fn live(&self) -> usize {
        self.tree.len()
    }

    /// Largest live event timestamp, or `None` when the tree is empty.
    /// (Accepted-then-evicted tuples no longer count — this is the live
    /// window's frontier, which is what watermark-lag reporting needs.)
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.tree.max_ts()
    }

    /// Offer one tuple at event time `ts`. Returns `false` — and leaves
    /// all state untouched — when `ts` is below the watermark: the
    /// windows it belongs to may already be emitted. Callers count those
    /// as late drops.
    pub fn insert(&mut self, ts: Timestamp, value: &O::Input) -> bool {
        if ts < self.watermark {
            return false;
        }
        self.prime_next_end(ts);
        self.tree.insert_value(ts, value);
        self.accepted = self.accepted.saturating_add(1);
        true
    }

    /// Offer a batch; returns how many were accepted (the rest were
    /// late). Rides the tree's bulk path when the batch is in order. A
    /// batch with a late tuple hands the tree only its on-time entries,
    /// without copying them.
    pub fn bulk_insert(&mut self, batch: &[(Timestamp, O::Partial)]) -> usize {
        let wm = self.watermark;
        let on_time = batch.iter().map(|&(ts, _)| ts).filter(|&ts| ts >= wm);
        let Some(earliest) = on_time.min() else {
            return 0;
        };
        self.prime_next_end(earliest);
        let accepted = self.tree.bulk_insert_from(batch, wm);
        self.accepted = self.accepted.saturating_add(accepted as u64);
        accepted
    }

    /// Start (or pull back) every query at the earliest aligned window
    /// that can still receive this tuple: the smallest end
    /// `k·slide + range > ts`. Taking the minimum over accepted tuples —
    /// not just the first arrival — keeps the emitted window set
    /// order-insensitive: the candidate end is always above the
    /// watermark, so an already-emitted window can never be re-opened,
    /// and after any emission the candidate is at or past the frontier
    /// (both live on the same aligned progression).
    fn prime_next_end(&mut self, ts: Timestamp) {
        for (spec, next) in self.specs.iter().zip(self.next_end.iter_mut()) {
            let k = if ts < spec.range {
                0
            } else {
                (ts - spec.range) / spec.slide + 1
            };
            let candidate = k * spec.slide + spec.range;
            *next = Some(next.map_or(candidate, |e| e.min(candidate)));
        }
    }

    /// Raise the watermark to `wm` and emit every window whose end it
    /// passed, oldest first (queries interleaved in window-end order,
    /// ties by query index). Entries no longer reachable by any future
    /// window are evicted. A watermark below the current one is a no-op
    /// — watermarks only move forward.
    pub fn advance_watermark(&mut self, wm: Timestamp) -> Vec<TimeAnswer<O::Output>> {
        let mut out = Vec::new();
        // alloc:amortized a by-name link from `ShardProcessor::advance_latest`; processors call the sink forms
        self.advance_into(wm, |answer| out.push(answer));
        out
    }

    /// [`advance_watermark`](Self::advance_watermark), handing each
    /// answer to `sink` in emission order instead of collecting them.
    pub fn advance_into(&mut self, wm: Timestamp, sink: impl FnMut(TimeAnswer<O::Output>)) {
        self.raise_watermark(wm, false, sink);
    }

    /// Raise the watermark to `wm` as [`advance_into`](Self::advance_into)
    /// does, but hand `sink` only each query's **last** window the advance
    /// closes, and return how many windows it closed in all — the number
    /// of answers `advance_into` would have emitted. A run of due windows
    /// costs one answer (at most one tree query), however long it is. The
    /// executor is left exactly as `advance_into` leaves it.
    pub fn advance_last_into(
        &mut self,
        wm: Timestamp,
        sink: impl FnMut(TimeAnswer<O::Output>),
    ) -> u64 {
        self.raise_watermark(wm, true, sink)
    }

    fn raise_watermark(
        &mut self,
        wm: Timestamp,
        last_only: bool,
        mut sink: impl FnMut(TimeAnswer<O::Output>),
    ) -> u64 {
        if wm <= self.watermark {
            return 0;
        }
        self.watermark = wm;
        let closed = self.emit_due(|_| wm, last_only, &mut sink);
        self.evict_unreachable();
        closed
    }

    /// Close the stream: emit every remaining window up to (and
    /// including) the last one containing a live tuple — per query, so a
    /// short-range query next to a long-range one does not trail off into
    /// empty windows. Returns nothing if no tuple arrived since the last
    /// emission.
    pub fn finish(&mut self) -> Vec<TimeAnswer<O::Output>> {
        let mut out = Vec::new();
        self.finish_into(|answer| out.push(answer));
        out
    }

    /// [`finish`](Self::finish), handing each answer to `sink`.
    pub fn finish_into(&mut self, mut sink: impl FnMut(TimeAnswer<O::Output>)) {
        let Some(max) = self.tree.max_ts() else {
            return;
        };
        // Per query: the end of the last aligned window containing `max`.
        let last_end: Vec<Timestamp> = self
            .specs
            .iter()
            .map(|s| (max / s.slide) * s.slide + s.range)
            .collect();
        self.emit_due(|q| last_end[q], false, &mut sink);
        for &le in &last_end {
            self.watermark = self.watermark.max(le);
        }
        self.evict_unreachable();
    }

    /// Close every due window, oldest end first (ties by query index),
    /// where query `q` is due while its next end ≤ `bound(q)`, and return
    /// how many closed. Each closed window is answered, or with
    /// `last_only` only the last of each query's run: the cursor jumps
    /// to the last aligned end ≤ the bound and the windows it skips are
    /// counted. A window outside the live span `[min_ts, max_ts]` holds
    /// no tuple: it is answered with the lowered identity, the value a
    /// tree query over it returns, without the query.
    fn emit_due(
        &mut self,
        bound: impl Fn(usize) -> Timestamp,
        last_only: bool,
        sink: &mut impl FnMut(TimeAnswer<O::Output>),
    ) -> u64 {
        let live = self.tree.min_ts().zip(self.tree.max_ts());
        let mut closed = 0;
        loop {
            let due = self
                .next_end
                .iter()
                .enumerate()
                .filter_map(|(q, e)| e.map(|end| (end, q)))
                .filter(|&(end, q)| end <= bound(q))
                .min();
            let Some((next, q)) = due else { break };
            let spec = self.specs[q]; // check:allow q enumerates next_end, which holds one cursor per spec
            let end = match last_only {
                // `next` is on its spec's progression (`load_state` checks
                // a restored one), so this is the last window end ≤ the bound.
                true => next + (bound(q) - next) / spec.slide * spec.slide,
                false => next,
            };
            closed += (end - next) / spec.slide + 1;
            let start = end - spec.range;
            let part = match live {
                Some((min, max)) if start <= max && end > min => self.tree.query_range(start, end),
                _ => self.tree.op().identity(),
            };
            sink((q, end, self.tree.op().lower(&part)));
            self.next_end[q] = Some(end + spec.slide); // check:allow q enumerates next_end itself
        }
        closed
    }

    /// Validate the underlying tree's structural invariants (see
    /// [`FingerBTree::check_invariants`]).
    pub fn check_invariants(&mut self) -> Result<(), swag_core::InvariantViolation> {
        self.tree.check_invariants()
    }

    /// Drop entries below every query's next window start — no future
    /// window `[next_end - range + j·slide, …)` can reach them.
    fn evict_unreachable(&mut self) {
        if self.tree.is_empty() {
            return;
        }
        let cutoff = self
            .next_end
            .iter()
            .zip(self.specs.iter())
            .filter_map(|(e, s)| e.map(|end| end - s.range))
            .min();
        if let Some(cutoff) = cutoff {
            self.tree.evict_older_than(cutoff);
        }
    }
}

impl<O: AggregateOp> TimeWindowExec<O> {
    /// Capture the executor's full state: watermark, accepted count, the
    /// window specs with their per-spec emission cursors, and the tree's
    /// live entries in timestamp order.
    pub fn save_state(&self, w: &mut swag_core::state::StateWriter<O::Partial>) {
        w.word(self.watermark);
        w.word(self.accepted);
        w.usize_word(self.specs.len());
        for s in &self.specs {
            w.word(s.range);
            w.word(s.slide);
        }
        for ne in &self.next_end {
            match ne {
                Some(end) => {
                    w.word(1);
                    w.word(*end);
                }
                None => {
                    w.word(0);
                    w.word(0);
                }
            }
        }
        let entries = self.tree.entries();
        w.usize_word(entries.len());
        for (ts, p) in entries {
            w.word(ts);
            w.partial(p);
        }
    }

    /// Rebuild an executor from a capture. The specs come from the
    /// capture itself (the creation-time list is part of the state), and
    /// the tree is rebuilt from its entries via the bulk in-order path —
    /// see [`FingerBTree::from_entries`] for the bitwise caveat on
    /// non-exact floating-point streams.
    pub fn load_state(
        op: O,
        r: &mut swag_core::state::StateReader<'_, O::Partial>,
    ) -> Result<Self, swag_core::state::StateError> {
        use swag_core::state::corrupt;
        let watermark = r.word("time-window watermark")?;
        let accepted = r.word("time-window accepted")?;
        let nspecs = r.usize_word("time-window spec count")?;
        if nspecs == 0 {
            return Err(corrupt("time-window: no specs"));
        }
        // Grown as read, never sized by a count word: a corrupt count
        // then ends in a truncation error, not a huge allocation.
        let mut specs = Vec::new();
        for _ in 0..nspecs {
            let range = r.word("time-window spec range")?;
            let slide = r.word("time-window spec slide")?;
            if range == 0 || slide == 0 {
                return Err(corrupt(format!(
                    "time-window: spec {range}x{slide} has a zero dimension"
                )));
            }
            specs.push(TimeWindowSpec { range, slide });
        }
        let mut next_end = Vec::with_capacity(nspecs);
        for spec in &specs {
            let flag = r.word("time-window next_end flag")?;
            let end = r.word("time-window next_end value")?;
            next_end.push(match flag {
                0 => None,
                // Every window end is `range + k·slide`; `emit_due` and
                // `evict_unreachable` subtract `range` from it and step
                // by whole slides.
                1 if end < spec.range || (end - spec.range) % spec.slide != 0 => {
                    return Err(corrupt(format!(
                        "time-window: next_end {end} is not a window end of spec {}x{}",
                        spec.range, spec.slide
                    )))
                }
                1 => Some(end),
                other => {
                    return Err(corrupt(format!(
                        "time-window: next_end flag {other} is not 0/1"
                    )))
                }
            });
        }
        let nentries = r.usize_word("time-window entry count")?;
        let mut entries = Vec::new();
        let mut prev: Option<Timestamp> = None;
        for _ in 0..nentries {
            let ts = r.word("time-window entry ts")?;
            let p = r.partial("time-window entry value")?;
            if prev.is_some_and(|t| ts < t) {
                return Err(corrupt(format!(
                    "time-window: entry timestamp {ts} out of order"
                )));
            }
            prev = Some(ts);
            entries.push((ts, p));
        }
        Ok(TimeWindowExec {
            tree: FingerBTree::from_entries(op, &entries),
            specs,
            next_end,
            watermark,
            accepted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::ops::{Max, Sum};

    #[test]
    fn tumbling_sum_emits_on_watermark() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(10)]);
        for ts in 0..25u64 {
            assert!(exec.insert(ts, &1.0));
        }
        // Nothing due yet.
        assert!(exec.advance_watermark(9).is_empty());
        // Watermark 10 closes [0, 10).
        assert_eq!(exec.advance_watermark(10), vec![(0, 10, 10.0)]);
        // 25 closes [10, 20) only; [20, 30) stays open.
        assert_eq!(exec.advance_watermark(25), vec![(0, 20, 10.0)]);
        assert_eq!(exec.finish(), vec![(0, 30, 5.0)]);
    }

    #[test]
    fn sliding_window_overlaps() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::new(10, 5)]);
        for ts in 0..20u64 {
            exec.insert(ts, &1.0);
        }
        let got = exec.finish();
        // Windows: [0,10), [5,15), [10,20), [15,25) — the last holds 5.
        assert_eq!(
            got,
            vec![(0, 10, 10.0), (0, 15, 10.0), (0, 20, 10.0), (0, 25, 5.0)]
        );
    }

    #[test]
    fn multiple_queries_share_the_tree() {
        let mut exec = TimeWindowExec::new(
            Sum::<f64>::new(),
            vec![TimeWindowSpec::tumbling(4), TimeWindowSpec::tumbling(8)],
        );
        for ts in 0..8u64 {
            exec.insert(ts, &(ts as f64));
        }
        let got = exec.finish();
        // Oldest window end first; ties in query order.
        assert_eq!(got, vec![(0, 4, 6.0), (0, 8, 22.0), (1, 8, 28.0)]);
    }

    #[test]
    fn late_tuple_is_refused_and_state_untouched() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(10)]);
        exec.insert(5, &1.0);
        exec.advance_watermark(10);
        assert!(!exec.insert(9, &100.0), "ts 9 < watermark 10 is late");
        assert_eq!(exec.accepted(), 1);
        exec.insert(10, &2.0);
        assert_eq!(exec.finish(), vec![(0, 20, 2.0)]);
    }

    #[test]
    fn disorder_below_watermark_lag_changes_nothing() {
        // In-order run.
        let tuples: Vec<(u64, f64)> = (0..200u64).map(|t| (t, ((t * 7) % 23) as f64)).collect();
        let spec = vec![TimeWindowSpec::new(16, 8)];
        let mut in_order = TimeWindowExec::new(Max::<f64>::new(), spec.clone());
        let mut expect = Vec::new();
        for &(ts, v) in &tuples {
            in_order.insert(ts, &v);
        }
        expect.extend(in_order.finish());

        // Same tuples, displaced by up to 31 positions, watermark trailing
        // by 32: every emission happens after all its tuples arrived.
        let mut shuffled = tuples.clone();
        for block in shuffled.chunks_mut(32) {
            block.reverse();
        }
        let mut ooo = TimeWindowExec::new(Max::<f64>::new(), spec);
        let mut got = Vec::new();
        for (i, &(ts, v)) in shuffled.iter().enumerate() {
            assert!(ooo.insert(ts, &v), "tuple {i} wrongly late");
            let arrived = shuffled[..=i].iter().map(|&(t, _)| t).max().unwrap_or(0);
            got.extend(ooo.advance_watermark(arrived.saturating_sub(32)));
        }
        got.extend(ooo.finish());
        assert_eq!(got, expect);
    }

    #[test]
    fn windows_before_first_event_are_skipped() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(10)]);
        exec.insert(1000, &1.0);
        // No flood of empty [0,10), [10,20)… answers.
        assert_eq!(exec.advance_watermark(1005), vec![]);
        assert_eq!(exec.finish(), vec![(0, 1010, 1.0)]);
    }

    /// A one-spec (range 10, slide 4) capture whose cursor is `next_end`.
    fn load_with_next_end(next_end: u64) -> Result<(), swag_core::state::StateError> {
        let words = [0, 0, 1, 10, 4, 1, next_end, 0];
        let mut r = swag_core::state::StateReader::<f64>::new(&words, &[]);
        TimeWindowExec::load_state(Sum::<f64>::new(), &mut r).map(drop)
    }

    #[test]
    fn restore_rejects_a_cursor_below_the_range() {
        let err = load_with_next_end(6).expect_err("end 6 < range 10");
        assert!(err.to_string().contains("not a window end"), "{err}");
        assert!(load_with_next_end(10).is_ok());
    }

    #[test]
    fn restore_rejects_a_cursor_off_the_slide_progression() {
        let err = load_with_next_end(12).expect_err("12 is not 10 + k·4");
        assert!(err.to_string().contains("not a window end"), "{err}");
        assert!(load_with_next_end(14).is_ok());
    }

    /// A spec or entry count larger than the capture ends in a truncation
    /// error, never in an allocation sized by the count; a restored
    /// accepted count at its ceiling saturates rather than overflows.
    #[test]
    fn restore_survives_untrusted_counts() {
        let load = |words: &[u64]| {
            let mut r = swag_core::state::StateReader::<f64>::new(words, &[]);
            TimeWindowExec::load_state(Sum::<f64>::new(), &mut r)
        };
        assert!(load(&[0, 0, u64::MAX, 10, 4, 1, 10, 0]).is_err());
        assert!(load(&[0, 0, 1, 10, 4, 1, 10, u64::MAX]).is_err());
        let mut exec = load(&[0, u64::MAX, 1, 10, 4, 1, 10, 0]).expect("a valid capture");
        assert!(exec.insert(12, &1.0));
        assert_eq!(exec.bulk_insert(&[(13, 1.0), (14, 1.0)]), 2);
        assert_eq!(exec.accepted(), u64::MAX);
    }

    /// The executor's capture, partials as bits.
    fn capture(exec: &TimeWindowExec<Sum<f64>>) -> (Vec<u64>, Vec<u64>) {
        let mut w = swag_core::state::StateWriter::new();
        exec.save_state(&mut w);
        let (words, partials) = w.into_parts();
        (words, partials.iter().map(|p| p.to_bits()).collect())
    }

    /// `advance_last_into` against `advance_into` on twin executors fed
    /// the same sparse stream: gaps many slides wide, stragglers stamped
    /// on window ends, watermark steps of zero, about one and many
    /// slides. After every advance the count is `advance_into`'s answer
    /// count, each query's answer is `advance_into`'s last one for it,
    /// bitwise, and the two captures are identical.
    #[test]
    fn last_only_advance_counts_runs_and_keeps_the_last_answer() {
        use swag_data::prng::Xoshiro256StarStar;
        // Range not a multiple of the slide, and range below the slide.
        let specs = vec![TimeWindowSpec::new(10, 4), TimeWindowSpec::new(3, 7)];
        for seed in 0..40 {
            let mut rng = Xoshiro256StarStar::new(seed);
            let mut every = TimeWindowExec::new(Sum::<f64>::new(), specs.clone());
            let mut last = TimeWindowExec::new(Sum::<f64>::new(), specs.clone());
            let (mut ts, mut wm) = (rng.gen_below(3), 0u64);
            for step in 0..400 {
                let value = rng.gen_below(16) as f64;
                let spec = specs[rng.gen_below(2) as usize];
                let at = if rng.gen_bool(0.2) && ts >= spec.range {
                    (ts - spec.range) / spec.slide * spec.slide + spec.range
                } else {
                    ts
                };
                assert_eq!(every.insert(at, &value), last.insert(at, &value));
                ts += match rng.gen_below(10) {
                    0 => 40 + rng.gen_below(400),
                    1..=3 => 0,
                    _ => 1 + rng.gen_below(5),
                };
                wm = ts.min(
                    wm + match rng.gen_below(4) {
                        0 => 0,
                        1 => 4 + rng.gen_below(4),
                        _ => 28 * (1 + rng.gen_below(20)),
                    },
                );
                let what = format!("seed {seed} step {step} watermark {wm}");
                let mut all = Vec::new();
                every.advance_into(wm, |a| all.push(a));
                let mut lasts = Vec::new();
                let closed = last.advance_last_into(wm, |a| lasts.push(a));
                assert_eq!(closed, all.len() as u64, "{what}: count");
                for q in 0..specs.len() {
                    let bits = |a: &TimeAnswer<f64>| (a.0, a.1, a.2.to_bits());
                    let want: Vec<_> = all
                        .iter()
                        .rev()
                        .find(|a| a.0 == q)
                        .map(bits)
                        .into_iter()
                        .collect();
                    let got: Vec<_> = lasts.iter().filter(|a| a.0 == q).map(bits).collect();
                    assert_eq!(got, want, "{what}: query {q}");
                }
                assert_eq!(capture(&every), capture(&last), "{what}: state");
            }
        }
    }

    #[test]
    fn eviction_keeps_live_set_bounded() {
        let mut exec = TimeWindowExec::new(Sum::<f64>::new(), vec![TimeWindowSpec::new(10, 5)]);
        for ts in 0..10_000u64 {
            exec.insert(ts, &1.0);
            if ts % 100 == 0 {
                exec.advance_watermark(ts.saturating_sub(20));
            }
        }
        assert!(
            exec.live() <= 200,
            "live set {} should track range + lag, not the stream",
            exec.live()
        );
    }
}
