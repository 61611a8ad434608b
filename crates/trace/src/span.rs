//! Sampled tuple-lifecycle spans.
//!
//! A [`SpanSampler`] picks 1-in-N tuples at the ingest boundary and hands
//! each one a nonzero trace id. The id rides on the tuple through the
//! pipeline; every stage boundary it crosses records one
//! [`EventKind::SpanStage`] event into a shared [`FlightRecorder`] ring.
//! Consecutive stage timestamps for a trace id decompose the answer's
//! end-to-end latency into named spans:
//!
//! ```text
//! Ingest ──queue-wait──▶ Dequeue ──batching──▶ AggStart
//!        ──aggregation──▶ AggEnd ──emission──▶ Emit
//! ```
//!
//! The sampling fast path — [`SpanSampler::sample`] on every tuple, and
//! [`SpanSampler::stage`] only on the sampled ones — is alloc-, panic-
//! and blocking-free and is proved so by `swag-check`'s hot-path
//! analysis (HP01–HP03). Export to Chrome trace-event JSON lives in
//! [`chrome`](crate::chrome) and runs on the cold dump path only.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::recorder::{Event, EventKind, FlightRecorder};

/// A tuple-lifecycle stage boundary. The code is stored in the low byte
/// of the `SpanStage` event's `b` payload; bits 8.. carry a
/// stage-specific extra (frame sequence number for [`Stage::Ingest`],
/// the tuple count of its message for [`Stage::AggStart`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Decoded off the wire; the trace id was just assigned.
    Ingest,
    /// The pipeline worker pulled the tuple's message off its queue.
    Dequeue,
    /// The worker routed the tuple's message into the engine's shards.
    AggStart,
    /// The cycle's barrier returned: the engine has processed the tuple.
    AggEnd,
    /// The answer table was updated; the answer is observable.
    Emit,
}

impl Stage {
    /// Stable name used in dumps and trace exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Dequeue => "dequeue",
            Stage::AggStart => "agg_start",
            Stage::AggEnd => "agg_end",
            Stage::Emit => "emit",
        }
    }

    /// The stage code (low byte of the event's `b` payload).
    pub fn code(self) -> u64 {
        match self {
            Stage::Ingest => 0,
            Stage::Dequeue => 1,
            Stage::AggStart => 2,
            Stage::AggEnd => 3,
            Stage::Emit => 4,
        }
    }

    /// Decode a stage code; `None` for unknown codes (future formats).
    pub fn from_code(code: u64) -> Option<Stage> {
        match code {
            0 => Some(Stage::Ingest),
            1 => Some(Stage::Dequeue),
            2 => Some(Stage::AggStart),
            3 => Some(Stage::AggEnd),
            4 => Some(Stage::Emit),
            _ => None,
        }
    }

    /// The span *ending* at this stage boundary, if any: the name Chrome
    /// shows for the interval from the previous stage to this one.
    pub fn span_ending_here(self) -> Option<&'static str> {
        match self {
            Stage::Ingest => None,
            Stage::Dequeue => Some("queue-wait"),
            Stage::AggStart => Some("batching"),
            Stage::AggEnd => Some("aggregation"),
            Stage::Emit => Some("emission"),
        }
    }
}

/// A decoded `SpanStage` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEvent {
    /// The trace id (nonzero).
    pub trace: u64,
    /// Which boundary was crossed.
    pub stage: Stage,
    /// Stage-specific extra payload (bits 8.. of `b`).
    pub extra: u64,
    /// Nanoseconds since the ring's epoch.
    pub ts_ns: u64,
    /// Process-wide sequence number of the underlying ring event.
    pub gseq: u64,
}

/// Decode the `SpanStage` events out of a ring snapshot, in ring order.
pub fn stage_events(events: &[Event]) -> Vec<StageEvent> {
    events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStage)
        .filter_map(|e| {
            Stage::from_code(e.b & 0xff).map(|stage| StageEvent {
                trace: e.a,
                stage,
                extra: e.b >> 8,
                ts_ns: e.ts_ns,
                gseq: e.gseq,
            })
        })
        .collect()
}

/// Samples 1-in-N tuples at an ingest boundary and records their stage
/// boundaries into a shared ring.
///
/// Cloning shares the counters and the ring, so every ingest connection
/// of a pipeline draws from one sample stream and one trace-id space.
/// The per-tuple cost when a tuple is *not* sampled is one `fetch_add`
/// and one branch; a sampled tuple additionally pays one ring record per
/// stage boundary (~5 relaxed stores each).
#[derive(Debug, Clone)]
pub struct SpanSampler {
    inner: std::sync::Arc<SamplerInner>,
}

#[derive(Debug)]
struct SamplerInner {
    /// Sample every `every`-th tuple; 0 disables sampling entirely.
    every: u64,
    /// Tuples seen so far (sampled or not).
    seen: AtomicU64,
    /// Trace ids handed out (ids are `1..`; 0 means "not sampled").
    issued: AtomicU64,
    ring: FlightRecorder,
}

impl SpanSampler {
    /// A sampler recording every `every`-th tuple into `ring`
    /// (`every == 0` disables sampling: [`sample`](Self::sample) always
    /// returns `None`).
    pub fn new(every: u64, ring: FlightRecorder) -> Self {
        SpanSampler {
            inner: std::sync::Arc::new(SamplerInner {
                every,
                seen: AtomicU64::new(0),
                issued: AtomicU64::new(0),
                ring,
            }),
        }
    }

    /// The sampling interval (0 = disabled).
    pub fn every(&self) -> u64 {
        self.inner.every
    }

    /// The ring stage events are recorded into.
    pub fn ring(&self) -> &FlightRecorder {
        &self.inner.ring
    }

    /// Count one tuple; returns a fresh nonzero trace id for every
    /// `every`-th one. Wait-free, no allocation.
    #[inline]
    pub fn sample(&self) -> Option<u64> {
        let inner = &*self.inner;
        if inner.every == 0 {
            return None;
        }
        let n = inner.seen.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(inner.every) {
            Some(inner.issued.fetch_add(1, Ordering::Relaxed) + 1)
        } else {
            None
        }
    }

    /// Count a whole block of `n` tuples with **two** atomic adds (one
    /// on the seen counter, one reserving every hit's trace id) and
    /// iterate only the sampled offsets. This is the batch fast path:
    /// where [`sample`](Self::sample) pays a `fetch_add` per tuple, a
    /// block draw amortises to constant cost per frame plus pure local
    /// arithmetic per hit, which is what keeps default-on sampling
    /// inside the ingest loop's overhead budget.
    ///
    /// Yields `(offset, trace_id)` pairs, offsets ascending in
    /// `0..n`. Sampling decisions and id assignment are shared with
    /// [`sample`](Self::sample) (same counters), so the two can be
    /// mixed. Wait-free, no allocation.
    #[inline]
    pub fn sample_block(&self, n: u64) -> SampleBlock {
        let inner = &*self.inner;
        if inner.every == 0 || n == 0 {
            return SampleBlock {
                every: 1,
                next: 0,
                end: 0,
                next_id: 0,
            };
        }
        let first = inner.seen.fetch_add(n, Ordering::Relaxed);
        // Smallest offset k in 0..n with (first + k) divisible by the
        // interval — the block's first hit, if it has one.
        let rem = first % inner.every;
        let start = if rem == 0 { 0 } else { inner.every - rem };
        // Reserve every hit's id up front so iteration touches no shared
        // counter at all — the whole draw is two atomic adds total.
        let hits = if start >= n {
            0
        } else {
            (n - start - 1) / inner.every + 1
        };
        let next_id = if hits == 0 {
            0
        } else {
            inner.issued.fetch_add(hits, Ordering::Relaxed) + 1
        };
        SampleBlock {
            every: inner.every,
            next: start,
            end: n,
            next_id,
        }
    }

    /// Record that trace `id` crossed `stage`, with a stage-specific
    /// `extra` payload (stored in bits 8.. of the event). Wait-free, no
    /// allocation — safe on the ingest and worker hot paths.
    #[inline]
    pub fn stage(&self, id: u64, stage: Stage, extra: u64) {
        self.inner
            .ring
            .record(EventKind::SpanStage, id, stage.code() | (extra << 8));
    }

    /// Like [`stage`](Self::stage) but with a caller-supplied timestamp
    /// (from `self.ring().now_ns()`), skipping the per-event clock read.
    /// The ingest path stamps every sampled tuple of a frame with one
    /// shared reading: the tuples genuinely arrived together, and the
    /// saved clock reads keep default-on sampling within the ingest
    /// loop's overhead budget.
    #[inline]
    pub fn stage_at(&self, ts_ns: u64, id: u64, stage: Stage, extra: u64) {
        self.inner
            .ring
            .record_at(ts_ns, EventKind::SpanStage, id, stage.code() | (extra << 8));
    }
}

/// Iterator over the sampled offsets of one
/// [`SpanSampler::sample_block`] draw: `(offset, trace_id)` pairs.
/// All the draw's trace ids were reserved when the block was taken, so
/// iteration is pure local arithmetic.
#[derive(Debug)]
pub struct SampleBlock {
    every: u64,
    next: u64,
    end: u64,
    next_id: u64,
}

impl Iterator for SampleBlock {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        if self.next >= self.end {
            return None;
        }
        let offset = self.next;
        self.next += self.every;
        let id = self.next_id;
        self.next_id += 1;
        Some((offset as usize, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_codes_round_trip() {
        for stage in [
            Stage::Ingest,
            Stage::Dequeue,
            Stage::AggStart,
            Stage::AggEnd,
            Stage::Emit,
        ] {
            assert_eq!(Stage::from_code(stage.code()), Some(stage));
        }
        assert_eq!(Stage::from_code(99), None);
    }

    #[test]
    fn one_in_n_sampling_issues_sequential_ids() {
        let sampler = SpanSampler::new(4, FlightRecorder::new(16));
        let mut ids = Vec::new();
        for _ in 0..12 {
            if let Some(id) = sampler.sample() {
                ids.push(id);
            }
        }
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn zero_interval_disables_sampling() {
        let sampler = SpanSampler::new(0, FlightRecorder::new(4));
        assert!((0..100).all(|_| sampler.sample().is_none()));
    }

    #[test]
    fn stage_events_decode_with_extras() {
        let sampler = SpanSampler::new(1, FlightRecorder::new(16));
        let id = sampler.sample().unwrap();
        sampler.stage(id, Stage::Ingest, 7); // frame 7
        sampler.stage(id, Stage::Dequeue, 0);
        sampler.stage(id, Stage::AggStart, 32); // 32-tuple cycle
        sampler.stage(id, Stage::AggEnd, 0);
        sampler.stage(id, Stage::Emit, 0);
        let stages = stage_events(&sampler.ring().snapshot());
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[0].stage, Stage::Ingest);
        assert_eq!(stages[0].extra, 7);
        assert_eq!(stages[2].extra, 32);
        assert!(stages.iter().all(|s| s.trace == id));
        assert!(stages.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn block_sampling_matches_scalar_sampling() {
        // Same decisions and ids as per-tuple sample() over 1000 tuples,
        // regardless of how the stream is chopped into blocks; staging
        // each hit writes one record per sampled tuple, ⌈1000/7⌉ in all.
        let scalar = SpanSampler::new(7, FlightRecorder::new(16));
        let expected: Vec<(usize, u64)> = (0..1000)
            .filter_map(|i| scalar.sample().map(|id| (i, id)))
            .collect();
        let blocked = SpanSampler::new(7, FlightRecorder::new(16));
        let mut got = Vec::new();
        let mut base = 0usize;
        for n in [1usize, 3, 64, 7, 500, 425] {
            let ts = blocked.ring().now_ns();
            for (off, id) in blocked.sample_block(n as u64) {
                blocked.stage_at(ts, id, Stage::Ingest, 0);
                got.push((base + off, id));
            }
            base += n;
        }
        assert_eq!(base, 1000);
        assert_eq!(got, expected);
        assert_eq!(blocked.ring().recorded(), 1000u64.div_ceil(7));
    }

    #[test]
    fn block_sampling_disabled_and_empty_blocks_yield_nothing() {
        let off = SpanSampler::new(0, FlightRecorder::new(4));
        assert_eq!(off.sample_block(100).count(), 0);
        let on = SpanSampler::new(4, FlightRecorder::new(4));
        assert_eq!(on.sample_block(0).count(), 0);
    }

    #[test]
    fn clones_share_the_sample_stream() {
        let a = SpanSampler::new(2, FlightRecorder::new(4));
        let b = a.clone();
        // Alternating across the clones: exactly every 2nd tuple sampled.
        let hits: Vec<bool> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    a.sample().is_some()
                } else {
                    b.sample().is_some()
                }
            })
            .collect();
        assert_eq!(hits.iter().filter(|h| **h).count(), 4);
    }
}
