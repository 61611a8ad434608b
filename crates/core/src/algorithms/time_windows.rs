//! Time-based sliding windows over irregularly-timestamped streams.
//!
//! The paper's ACQs may be count- or time-based (§1). For streams with a
//! fixed sample rate, `swag_plan::TimeQuery` converts time bounds to
//! counts; these aggregators handle the general case — arbitrary
//! timestamps, where a time window holds a *varying* number of tuples.
//! Both SlickDeque disciplines carry over directly, with timestamps where
//! the count windows have arrival indices: a tuple stamped `ts` is inside
//! the range-`r` window at time `now` iff `now − ts < r`, i.e. the window
//! is `(now − r, now]`.
//!
//! [`MultiTimeSlickDequeInv`] (Algorithm 1) keeps one running answer per
//! registered range; each range owns a cursor into the shared FIFO of
//! timestamped partials and subtracts tuples as they age past *its*
//! horizon — one ⊕ per arrival plus one ⊖ per expiry per range.
//! [`MultiTimeSlickDequeNonInv`] (Algorithm 2) is a shell over the same
//! monotone deque as the count windows ([`crate::monodeque`]), so it keeps
//! the < 2 combines amortized. [`TimeSlickDequeInv`] and
//! [`TimeSlickDequeNonInv`] are their one-range cases, which can also
//! advance time without an arrival.
//!
//! All paper complexity results hold with `n` = tuples currently in the
//! window.

use std::collections::VecDeque;

use crate::aggregator::MemoryFootprint;
use crate::invariants::InvariantViolation;
use crate::monodeque::{live_from, trim_slack, MonoDeque};
use crate::ops::{InvertibleOp, SelectiveOp};

/// Milliseconds since stream start.
pub type Timestamp = u64;

fn normalize_ranges_ms(ranges_ms: &[u64]) -> Vec<u64> {
    assert!(!ranges_ms.is_empty(), "at least one range is required");
    assert!(
        ranges_ms.iter().all(|&r| r > 0),
        "ranges must be positive milliseconds"
    );
    let mut out = ranges_ms.to_vec();
    out.sort_unstable_by(|a, b| b.cmp(a));
    out.dedup();
    out
}

/// Move a window's clock to `ts`: stream time never runs backwards.
fn advance_clock(clock: &mut Timestamp, ts: Timestamp) {
    assert!(ts >= *clock, "timestamps must be non-decreasing"); // check:allow precondition assert documenting the caller contract
    *clock = ts;
}

/// Time-domain Algorithm 1: running answers with per-range expiry cursors.
#[derive(Debug, Clone)]
pub struct MultiTimeSlickDequeInv<O: InvertibleOp> {
    op: O,
    /// Distinct ranges in milliseconds, descending.
    ranges_ms: Vec<u64>,
    /// Timestamped partials young enough for the largest range.
    window: VecDeque<(Timestamp, O::Partial)>,
    /// Absolute index of `window`'s front (count of pop_fronts ever).
    popped: u64,
    /// Per range: (first absolute index still included, running answer).
    cursors: Vec<(u64, O::Partial)>,
    last_ts: Timestamp,
}

impl<O: InvertibleOp> MultiTimeSlickDequeInv<O> {
    /// Create an aggregator answering each of `ranges_ms` (milliseconds).
    pub fn new(op: O, ranges_ms: &[u64]) -> Self {
        let ranges_ms = normalize_ranges_ms(ranges_ms);
        let cursors = ranges_ms.iter().map(|_| (0, op.identity())).collect();
        MultiTimeSlickDequeInv {
            op,
            ranges_ms,
            window: VecDeque::new(),
            popped: 0,
            cursors,
            last_ts: 0,
        }
    }

    /// The registered ranges in milliseconds, descending.
    pub fn ranges_ms(&self) -> &[u64] {
        &self.ranges_ms
    }

    /// Insert a tuple at `ts` (non-decreasing); push one answer per range
    /// (descending) into `out`. Answers cover `(ts − range, ts]`.
    pub fn insert(&mut self, ts: Timestamp, value: O::Partial, out: &mut Vec<O::Partial>) {
        self.arrive(ts, value);
        out.clear();
        // alloc:amortized the caller's answer buffer grows to its high-water mark once
        out.extend(self.cursors.iter().map(|(_, answer)| answer.clone()));
    }

    fn arrive(&mut self, ts: Timestamp, value: O::Partial) {
        advance_clock(&mut self.last_ts, ts);
        for (_, answer) in &mut self.cursors {
            *answer = self.op.combine(answer, &value);
        }
        self.window.push_back((ts, value)); // alloc:amortized window buffer growth is amortized O(1) doubling
        self.expire();
    }

    /// Move time to `ts` without an arrival.
    fn advance_time(&mut self, ts: Timestamp) {
        advance_clock(&mut self.last_ts, ts);
        self.expire();
    }

    /// Each range's answer gives up the tuples that have aged past its
    /// horizon as of `last_ts`, and those older than every range (the
    /// largest, `cursors[0]`) leave the shared FIFO, which then gives back
    /// any slack their departure leaves.
    fn expire(&mut self) {
        for ((cursor, answer), &r) in self.cursors.iter_mut().zip(&self.ranges_ms) {
            let oldest = live_from(self.last_ts, r);
            while let Some((_, expired)) = self
                .window
                .get((*cursor - self.popped) as usize)
                .filter(|(t, _)| *t < oldest)
            {
                *answer = self.op.inverse_combine(answer, expired);
                *cursor += 1;
            }
        }
        while self.popped < self.cursors[0].0 {
            self.window.pop_front();
            self.popped += 1;
        }
        trim_slack(&mut self.window);
    }

    /// Tuples currently retained for the largest range.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True if no tuples are retained.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

impl<O: InvertibleOp> MemoryFootprint for MultiTimeSlickDequeInv<O> {
    fn heap_bytes(&self) -> usize {
        self.window.capacity() * core::mem::size_of::<(Timestamp, O::Partial)>()
            + self.cursors.capacity() * core::mem::size_of::<(u64, O::Partial)>()
            + self.ranges_ms.capacity() * core::mem::size_of::<u64>()
    }
}

/// Time-based SlickDeque (Inv): a running aggregate with
/// subtract-on-expiry, over a FIFO of timestamped partials — the one-range
/// [`MultiTimeSlickDequeInv`].
#[derive(Debug, Clone)]
pub struct TimeSlickDequeInv<O: InvertibleOp>(MultiTimeSlickDequeInv<O>);

impl<O: InvertibleOp> TimeSlickDequeInv<O> {
    /// Create a time-windowed aggregator covering the last `range_ms`
    /// milliseconds.
    pub fn new(op: O, range_ms: u64) -> Self {
        TimeSlickDequeInv(MultiTimeSlickDequeInv::new(op, &[range_ms]))
    }

    /// Insert a tuple observed at `ts` (non-decreasing) and return the
    /// aggregate over `(ts − range_ms, ts]`.
    pub fn insert(&mut self, ts: Timestamp, value: O::Partial) -> O::Partial {
        self.0.arrive(ts, value);
        self.query()
    }

    /// Advance time without inserting (e.g. on a punctuation), expiring
    /// old tuples; returns the refreshed aggregate.
    pub fn advance_to(&mut self, ts: Timestamp) -> O::Partial {
        self.0.advance_time(ts);
        self.query()
    }

    /// Tuples currently inside the window.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The current aggregate without advancing time.
    pub fn query(&self) -> O::Partial {
        self.0.cursors[0].1.clone()
    }
}

impl<O: InvertibleOp> MemoryFootprint for TimeSlickDequeInv<O> {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// Time-domain Algorithm 2: one monotone deque, all ranges answered in a
/// single pass.
#[derive(Debug, Clone)]
pub struct MultiTimeSlickDequeNonInv<O: SelectiveOp> {
    /// Nodes are stamped with their timestamp.
    deque: MonoDeque<O>,
    /// Distinct ranges in milliseconds, descending.
    ranges_ms: Vec<u64>,
    last_ts: Timestamp,
}

impl<O: SelectiveOp> MultiTimeSlickDequeNonInv<O> {
    /// Create an aggregator answering each of `ranges_ms` (milliseconds).
    pub fn new(op: O, ranges_ms: &[u64]) -> Self {
        MultiTimeSlickDequeNonInv {
            deque: MonoDeque::new(op),
            ranges_ms: normalize_ranges_ms(ranges_ms),
            last_ts: 0,
        }
    }

    /// The registered ranges in milliseconds, descending.
    pub fn ranges_ms(&self) -> &[u64] {
        &self.ranges_ms
    }

    /// Nodes currently on the deque.
    pub fn deque_len(&self) -> usize {
        self.deque.len()
    }

    /// Insert a tuple at `ts` (non-decreasing); push one answer per range
    /// (descending) into `out`. Answers cover `(ts − range, ts]`.
    pub fn insert(&mut self, ts: Timestamp, value: O::Partial, out: &mut Vec<O::Partial>) {
        self.arrive(ts, value);
        out.clear();
        let ranges = self.ranges_ms.iter().copied();
        self.deque.answers_into(ts, ranges, out);
    }

    fn arrive(&mut self, ts: Timestamp, value: O::Partial) {
        self.advance_time(ts);
        self.deque.arrive(ts, value);
    }

    /// Move time to `ts`, expiring nodes outside the largest range.
    fn advance_time(&mut self, ts: Timestamp) {
        advance_clock(&mut self.last_ts, ts);
        self.deque.expire(live_from(ts, self.ranges_ms[0]));
    }

    /// The monotone-deque invariants
    /// ([`FinalAggregator::check_invariants`](crate::FinalAggregator::check_invariants)
    /// has the scope and caveats): every node is inside the largest range
    /// as of the last timestamp seen, timestamps do not decrease head→tail
    /// — equal ones are legal — and no node is defeated by its successor.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let live = live_from(self.last_ts, self.ranges_ms[0])..=self.last_ts;
        self.deque
            .check_invariants("time_slickdeque_noninv", live, false)
    }
}

impl<O: SelectiveOp> MemoryFootprint for MultiTimeSlickDequeNonInv<O> {
    fn heap_bytes(&self) -> usize {
        self.deque.heap_bytes() + self.ranges_ms.capacity() * core::mem::size_of::<u64>()
    }
}

/// Time-based SlickDeque (Non-Inv): a monotone deque with timestamp
/// expiry — the one-range [`MultiTimeSlickDequeNonInv`].
#[derive(Debug, Clone)]
pub struct TimeSlickDequeNonInv<O: SelectiveOp>(MultiTimeSlickDequeNonInv<O>);

impl<O: SelectiveOp> TimeSlickDequeNonInv<O> {
    /// Create a time-windowed aggregator covering the last `range_ms`
    /// milliseconds.
    pub fn new(op: O, range_ms: u64) -> Self {
        TimeSlickDequeNonInv(MultiTimeSlickDequeNonInv::new(op, &[range_ms]))
    }

    /// Insert a tuple observed at `ts` (non-decreasing) and return the
    /// aggregate over `(ts − range_ms, ts]`.
    pub fn insert(&mut self, ts: Timestamp, value: O::Partial) -> O::Partial {
        self.0.arrive(ts, value);
        self.query()
    }

    /// Advance time without inserting, expiring old tuples; returns the
    /// refreshed aggregate.
    pub fn advance_to(&mut self, ts: Timestamp) -> O::Partial {
        self.0.advance_time(ts);
        self.query()
    }

    /// Nodes currently on the deque.
    pub fn deque_len(&self) -> usize {
        self.0.deque_len()
    }

    /// The current aggregate without advancing time.
    pub fn query(&self) -> O::Partial {
        self.0.deque.head()
    }

    /// See [`MultiTimeSlickDequeNonInv::check_invariants`].
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.0.check_invariants()
    }
}

impl<O: SelectiveOp> MemoryFootprint for TimeSlickDequeNonInv<O> {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ops::{AggregateOp, Max, MaxF64, MinF64, Sum};

    /// Brute-force time window over `(ts − range, ts]`.
    fn brute_sum(history: &[(u64, i64)], now: u64, range: u64) -> i64 {
        history
            .iter()
            .filter(|(ts, _)| (*ts as i128) > now as i128 - range as i128 && *ts <= now)
            .map(|(_, v)| v)
            .sum()
    }

    fn brute_max(history: &[(u64, i64)], now: u64, range: u64) -> Option<i64> {
        history
            .iter()
            .filter(|(ts, _)| (*ts as i128) > now as i128 - range as i128 && *ts <= now)
            .map(|(_, v)| *v)
            .max()
    }

    /// Irregular timestamps: bursts, gaps, duplicates.
    pub(crate) fn irregular_stream() -> Vec<(u64, i64)> {
        let mut ts = 0u64;
        let mut x = 7u64;
        (0..400)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let gap = match (x >> 33) % 10 {
                    0..=5 => 1,  // burst
                    6..=8 => 17, // normal
                    _ => 400,    // long gap
                };
                ts += if i == 0 { 0 } else { gap };
                (ts, ((x >> 40) % 1000) as i64)
            })
            .collect()
    }

    #[test]
    fn inv_matches_brute_force_on_irregular_stream() {
        let stream = irregular_stream();
        let op = Sum::<i64>::new();
        let mut win = TimeSlickDequeInv::new(op, 100);
        for (i, &(ts, v)) in stream.iter().enumerate() {
            let got = win.insert(ts, v);
            assert_eq!(got, brute_sum(&stream[..=i], ts, 100), "tuple {i} at {ts}");
        }
    }

    #[test]
    fn noninv_matches_brute_force_on_irregular_stream() {
        let stream = irregular_stream();
        let op = Max::<i64>::new();
        let mut win = TimeSlickDequeNonInv::new(op, 100);
        for (i, &(ts, v)) in stream.iter().enumerate() {
            let got = win.insert(ts, op.lift(&v));
            assert_eq!(got, brute_max(&stream[..=i], ts, 100), "tuple {i} at {ts}");
            win.check_invariants().unwrap();
        }

        nan_case(MaxF64::new());
        nan_case(MinF64::new());
    }

    /// A NaN among the values: `MaxF64`/`MinF64` order partials by
    /// `total_cmp`, so a live NaN is an extremum like any other — not
    /// something the dominance test can never pop, nor one it pops early.
    fn nan_case<O: SelectiveOp<Input = f64, Partial = f64> + Clone>(op: O) {
        let tail = irregular_stream().into_iter().enumerate();
        let stream: Vec<(u64, f64)> = [(0, 5.0), (1, f64::NAN), (2, 1.0)]
            .into_iter()
            .chain(tail.map(|(k, (ts, v))| (ts + 3, if k % 7 == 3 { f64::NAN } else { v as f64 })))
            .collect();
        let mut win = TimeSlickDequeNonInv::new(op.clone(), 3);
        for (i, &(ts, v)) in stream.iter().enumerate() {
            let live = stream[..=i].iter().filter(|(t, _)| t + 3 > ts);
            let expect = live.fold(op.identity(), |acc, (_, v)| op.combine(&acc, &op.lift(v)));
            let got = win.insert(ts, op.lift(&v));
            assert_eq!(got.to_bits(), expect.to_bits(), "{} tuple {i}", op.name());
            win.check_invariants().unwrap();
        }
    }

    #[test]
    fn advance_to_expires_without_inserting() {
        let op = Sum::<i64>::new();
        let mut win = TimeSlickDequeInv::new(op, 50);
        win.insert(0, 10);
        win.insert(20, 20);
        assert_eq!(win.query(), 30);
        assert_eq!(win.advance_to(60), 20); // ts 0 expired (cutoff 10)
        assert_eq!(win.advance_to(200), 0);
        assert!(win.is_empty());
    }

    #[test]
    fn noninv_advance_to_promotes_younger_max() {
        let op = Max::<i64>::new();
        let mut win = TimeSlickDequeNonInv::new(op, 100);
        win.insert(0, op.lift(&9));
        win.insert(50, op.lift(&5));
        assert_eq!(win.query(), Some(9));
        assert_eq!(win.advance_to(120), Some(5)); // 9 expired
        assert_eq!(win.advance_to(200), None);
        win.check_invariants().unwrap();
    }

    #[test]
    fn burst_of_equal_timestamps_all_count() {
        let op = Sum::<i64>::new();
        let mut win = TimeSlickDequeInv::new(op, 10);
        for _ in 0..5 {
            win.insert(100, 2);
        }
        assert_eq!(win.query(), 10);
        assert_eq!(win.len(), 5);
        assert_eq!(win.advance_to(111), 0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_timestamp_rejected() {
        let op = Sum::<i64>::new();
        let mut win = TimeSlickDequeInv::new(op, 10);
        win.insert(100, 1);
        win.insert(99, 1);
    }

    #[test]
    fn memory_tracks_window_population() {
        let op = Sum::<i64>::new();
        let mut win = TimeSlickDequeInv::new(op, 3000);
        for ts in 0..3000u64 {
            win.insert(ts, 1);
        }
        let full = win.heap_bytes();
        win.advance_to(100_000);
        // The FIFO gives its slack back as the window drains.
        assert!(
            win.heap_bytes() < full / 2,
            "{} vs {full}",
            win.heap_bytes()
        );
    }
}
