//! The event-time path: out-of-order keyed streams, watermarks, and a
//! router-side late-tuple policy.
//!
//! Event time runs on the same data plane as arrival order — one router,
//! one shard worker ([`crate::resident`]). What this module adds is the
//! router's **late-drop rule** for sources whose tuples carry an event
//! timestamp and may arrive out of order ([`ShardedEngine::run_events`]),
//! checked once per pulled tuple before the tuple is steered to its
//! shard, and the per-key processor that turns watermarks into window
//! answers ([`KeyedEventWindows`]):
//!
//! * Every routed batch carries the router's current **watermark** — a
//!   promise that no tuple below it will follow. With an explicit
//!   `lateness` bound the watermark is `max routed timestamp − lateness`;
//!   without one the router trusts the source's own
//!   [`low_watermark`](swag_data::event::KeyedEventSource::low_watermark).
//!   (An arrival-order run is the degenerate case: the watermark is 0
//!   forever and nothing is ever late.)
//! * Tuples below the watermark are **dropped at the router** — counted
//!   into [`EngineStats::late_tuples`], recorded as
//!   [`EventKind::LateDrop`], and never sent. Dropping before the
//!   hash-partition is what makes the answer stream deterministic: the
//!   drop decision depends only on the (single, ordered) source stream,
//!   never on shard count or batch boundaries.
//!
//! Workers apply each batch one key-run at a time through
//! [`ShardProcessor::process_slot`] and then advance every key to the
//! batch's watermark, emitting the time windows it closed (a worker that
//! keeps only the latest answers gets each query's last closed window
//! and a count, and skips keys with no data until they need it). Per-key
//! answer sequences are therefore identical
//! for any shard count: a key's accepted tuples and its window boundaries
//! fully determine its `(query, window end, value)` stream.
//!
//! The engine-level watermark is the **minimum across shards** of the
//! per-shard watermarks ([`EngineStats::watermark`]) — the frontier every
//! shard has durably passed.
//!
//! [`ShardedEngine::run_events`]: crate::ShardedEngine::run_events
//! [`EngineStats::late_tuples`]: crate::EngineStats::late_tuples
//! [`EngineStats::watermark`]: crate::EngineStats::watermark

use std::path::PathBuf;

use swag_core::ops::AggregateOp;
use swag_data::event::KeyedEventSource;
use swag_data::keyed::Key;
use swag_metrics::registry::Counter;
use swag_stream::{TimeWindowExec, TimeWindowSpec};
use swag_trace::{EventKind, FlightRecorder};

use crate::keyed::ShardProcessor;
use crate::obs::ObservabilityConfig;
use crate::slots::SlotTable;

/// One [`TimeWindowExec`] (a FiBA finger B-tree plus window bookkeeping)
/// per key. Tuples are `(event timestamp, value)`; answers are
/// `(query index, window end, lowered value)`.
///
/// [`advance_watermark`](ShardProcessor::advance_watermark) visits keys
/// in slot order — the order the processor first saw them — so a shard's
/// full answer stream (`Retain::Every` in the worker) is deterministic
/// for a given input, not hash-order dependent.
///
/// [`advance_latest`](ShardProcessor::advance_latest) answers each
/// query's run of closed windows with its last window and a count, and
/// visits only **active** keys: a key whose tree is empty after an
/// advance is parked — taken out of the scan — until its next tuple.
/// A parked key's executor keeps the state of the advance that parked
/// it. Its next run of tuples first catches it up to the last watermark
/// (every window in the gap is empty: no tuple below a watermark reaches
/// a shard), so the executor then holds exactly what the skipped
/// advances would have left; [`settle`](ShardProcessor::settle) does the
/// same for every key still parked.
#[derive(Debug)]
pub struct KeyedEventWindows<O>
where
    O: AggregateOp<Input = f64>,
{
    op: O,
    specs: Vec<TimeWindowSpec>,
    states: SlotTable<KeyWindows<O>>,
    /// The slots `advance_latest` visits; each has `listed` set.
    active: Vec<usize>,
    /// The largest watermark `advance_latest` was given: where parked
    /// keys are caught up to.
    watermark: u64,
    /// Answers closed while catching up a returning key but not
    /// appended, for the next `advance_latest` or `settle` to count.
    unreported: u64,
    max_ts: Option<u64>,
    /// Reusable lifted-batch buffer for [`ShardProcessor::process_slot`].
    lift_scratch: Vec<(u64, O::Partial)>,
}

/// One key's executor, and whether its slot is in the active list.
#[derive(Debug)]
struct KeyWindows<O: AggregateOp> {
    exec: TimeWindowExec<O>,
    listed: bool,
}

impl<O> KeyedEventWindows<O>
where
    O: AggregateOp<Input = f64> + Clone,
{
    /// The given time windows for every key, aggregated by `op`.
    pub fn new(op: O, specs: Vec<TimeWindowSpec>) -> Self {
        Self::from_states(op, specs, [])
    }

    /// The per-key executor, for inspection.
    pub fn state(&self, key: Key) -> Option<&TimeWindowExec<O>> {
        self.states.state_of(key).map(|entry| &entry.exec)
    }

    /// Every key's executor, for snapshotting, in the order the processor
    /// first saw the keys.
    pub fn states(&self) -> impl Iterator<Item = (Key, &TimeWindowExec<O>)> {
        self.states.by_slot().map(|(key, entry)| (key, &entry.exec))
    }

    /// Rebuild a processor from restored per-key executors — the restore
    /// counterpart of [`states`](Self::states). `max_ts` is recovered
    /// from the executors' trees; keys absent from `states` start fresh
    /// on their first tuple; a key listed twice keeps its last executor.
    /// Every restored key starts active.
    pub fn from_states(
        op: O,
        specs: Vec<TimeWindowSpec>,
        states: impl IntoIterator<Item = (Key, TimeWindowExec<O>)>,
    ) -> Self {
        assert!(!specs.is_empty(), "need at least one time window");
        let states: SlotTable<KeyWindows<O>> = (states.into_iter())
            .map(|(key, exec)| (key, KeyWindows { exec, listed: true }))
            .collect();
        let max_ts = states
            .by_slot()
            .filter_map(|(_, entry)| entry.exec.max_ts())
            .max();
        KeyedEventWindows {
            op,
            specs,
            active: (0..states.len()).collect(),
            states,
            watermark: 0,
            unreported: 0,
            max_ts,
            lift_scratch: Vec::new(),
        }
    }
}

impl<O> ShardProcessor for KeyedEventWindows<O>
where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send,
    O::Partial: Send,
{
    type Value = (u64, f64);
    type Answer = (usize, u64, f64);

    /// A new key starts active, as a fresh executor: it has no advance
    /// to catch up on.
    fn open_slot(&mut self, key: Key) -> usize {
        let keys = self.states.len();
        let slot = self.states.open_slot(key, || KeyWindows {
            exec: TimeWindowExec::new(self.op.clone(), self.specs.clone()),
            listed: true,
        });
        if slot == keys {
            self.active.push(slot); // alloc:amortized one entry per key at most; grows to the key count once
        }
        slot
    }

    /// One FiBA bulk insert for the whole run. A parked key is caught
    /// up to the last watermark first and made active again; apart from
    /// that, inserts never answer: windows close on watermark advances
    /// only.
    fn process_slot(
        &mut self,
        slot: usize,
        tuples: &[(u64, f64)],
        out: &mut Vec<(Key, Self::Answer)>,
    ) {
        let KeyedEventWindows {
            op,
            states,
            active,
            watermark,
            unreported,
            max_ts,
            lift_scratch,
            ..
        } = self;
        // check:allow a slot open_slot never returned is a caller bug
        let (key, entry) = states.slot_entry(slot).expect("a slot from open_slot");
        if !entry.listed {
            entry.listed = true;
            active.push(slot); // alloc:amortized one entry per key at most; grows to the key count once
            let before = out.len();
            // alloc:amortized the worker's reused answer scratch; grows to keys × queries once
            let closed = entry
                .exec
                .advance_last_into(*watermark, |answer| out.push((key, answer)));
            *unreported += closed - (out.len() - before) as u64;
        }
        lift_scratch.clear();
        // alloc:amortized reused scratch; grows to the largest run once
        lift_scratch.extend(tuples.iter().map(|&(ts, v)| (ts, op.lift(&v))));
        entry.exec.bulk_insert(lift_scratch);
        for &(ts, _) in tuples {
            *max_ts = Some(max_ts.map_or(ts, |m| m.max(ts)));
        }
    }

    /// Every key's closed windows, straight into the worker's scratch.
    fn advance_watermark(&mut self, watermark: u64, out: &mut Vec<(Key, Self::Answer)>) {
        for (key, entry) in self.states.by_slot_mut() {
            // alloc:amortized the worker's reused answer scratch; grows to the largest advance once
            entry
                .exec
                .advance_into(watermark, |answer| out.push((key, answer)));
        }
    }

    /// Each active key's last window per query, counted with the run it
    /// ends; a key left with an empty tree is parked.
    fn advance_latest(&mut self, watermark: u64, out: &mut Vec<(Key, Self::Answer)>) -> u64 {
        let KeyedEventWindows {
            states,
            active,
            watermark: last,
            unreported,
            ..
        } = self;
        *last = (*last).max(watermark);
        let mut closed = std::mem::take(unreported);
        let mut i = 0;
        while let Some(&slot) = active.get(i) {
            // check:allow the active list holds only slots open_slot returned
            let (key, entry) = states.slot_entry(slot).expect("an active slot");
            // alloc:amortized the worker's reused answer scratch; grows to keys × queries once
            closed += entry
                .exec
                .advance_last_into(watermark, |answer| out.push((key, answer)));
            if entry.exec.live() == 0 {
                entry.listed = false;
                active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        closed
    }

    /// Every parked key's last window per query up to the last watermark
    /// (the lowered identity: a parked key holds no tuple), counted.
    fn settle(&mut self, out: &mut Vec<(Key, Self::Answer)>) -> u64 {
        let watermark = self.watermark;
        let mut closed = std::mem::take(&mut self.unreported);
        for (key, entry) in self.states.by_slot_mut() {
            if !entry.listed {
                // alloc:amortized the worker's reused answer scratch; grows to keys × queries once
                closed += entry
                    .exec
                    .advance_last_into(watermark, |answer| out.push((key, answer)));
            }
        }
        closed
    }

    fn finish(&mut self, out: &mut Vec<(Key, Self::Answer)>) {
        for (key, entry) in self.states.by_slot_mut() {
            entry.exec.finish_into(|answer| out.push((key, answer)));
        }
    }

    /// One entry per query.
    fn same_entry(a: &(usize, u64, f64), b: &(usize, u64, f64)) -> bool {
        a.0 == b.0
    }

    fn keys(&self) -> usize {
        self.states.len()
    }

    fn max_ts(&self) -> Option<u64> {
        self.max_ts
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        for (key, entry) in self.states.by_slot_mut() {
            entry
                .exec
                .check_invariants()
                .map_err(|violation| format!("key {key}: {violation}"))?;
        }
        Ok(())
    }
}

/// The event-time late-drop rule's state, kept for a resident engine's
/// life. The watermark is derived from the stream routed *so far* and only
/// ever rises; a tuple is judged against the watermark before it
/// contributes to it, so a tuple can never be late relative to itself.
pub(crate) struct OnTime {
    lateness: Option<u64>,
    max_ts: Option<u64>,
    pub(crate) watermark: u64,
    /// Tuples dropped as late so far.
    pub(crate) late: u64,
    /// `swag_engine_late_tuples_total`, labelled `shard="router"` — drops
    /// happen before partitioning.
    late_counter: Option<Counter>,
    /// The router's own flight recorder, narrating drops and watermark
    /// advances.
    recorder: Option<FlightRecorder>,
    trace_out: Option<PathBuf>,
}

impl OnTime {
    pub(crate) fn new(obs: &ObservabilityConfig, lateness: Option<u64>) -> Self {
        OnTime {
            lateness,
            max_ts: None,
            watermark: 0,
            late: 0,
            late_counter: obs.registry.as_ref().map(|reg| {
                reg.counter(
                    "swag_engine_late_tuples_total",
                    "Tuples dropped at the router for arriving below the watermark",
                    &obs.series_labels("router"),
                )
            }),
            recorder: (obs.trace_capacity > 0).then(|| FlightRecorder::new(obs.trace_capacity)),
            trace_out: obs.trace_out.clone(),
        }
    }

    /// Raise the watermark to the frontier's current reading: the largest
    /// routed timestamp less the lateness bound, or without one, the
    /// source's own watermark.
    pub(crate) fn read_frontier<S: KeyedEventSource + ?Sized>(&mut self, source: &S) {
        self.watermark = self.watermark.max(match self.lateness {
            Some(l) => self.max_ts.map_or(0, |m| m.saturating_sub(l)),
            None => source.low_watermark(),
        });
    }

    /// Judge a tuple stamped `ts` just pulled from `source`: drop (and
    /// count) it if it is below the watermark, else let it raise the
    /// frontier and admit it.
    #[inline]
    pub(crate) fn judge<S: KeyedEventSource + ?Sized>(&mut self, ts: u64, source: &S) -> bool {
        self.read_frontier(source);
        if ts < self.watermark {
            self.late += 1;
            if let Some(c) = &self.late_counter {
                c.inc();
            }
            if let Some(rec) = &self.recorder {
                rec.record(EventKind::LateDrop, ts, self.watermark);
            }
            return false;
        }
        self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
        true
    }

    /// The watermark to stamp on a batch of `tuples` tuples being flushed.
    pub(crate) fn stamp(&mut self, tuples: usize) -> u64 {
        if let Some(rec) = &self.recorder {
            rec.record(EventKind::WatermarkAdvance, self.watermark, tuples as u64);
        }
        self.watermark
    }

    /// Write the router's ring next to the shards' (the router is not a
    /// shard; its ring gets its own file).
    pub(crate) fn dump_router_ring(&self) {
        if let (Some(rec), Some(dir)) = (&self.recorder, &self.trace_out) {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| {
                std::fs::write(
                    dir.join("flightrec-router.json"),
                    rec.dump_json(usize::MAX).pretty(),
                )
            }) {
                eprintln!("swag-engine: router flight-recorder dump failed: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resident::ResidentEngine;
    use crate::shard::{EngineConfig, ShardedEngine};
    use crate::stats::EngineStats;
    use std::collections::HashMap;
    use swag_core::ops::Sum;
    use swag_data::event::{DisorderedKeyedSource, KeyedVecEventSource};
    use swag_data::keyed::KeyedVecSource;

    type Answer = (usize, u64, f64);

    fn run_with(
        shards: usize,
        source: &mut dyn KeyedEventSource,
        lateness: Option<u64>,
    ) -> (EngineStats, Vec<(Key, Answer)>) {
        let engine = ShardedEngine::new(EngineConfig {
            shards,
            queue_capacity: 4,
            batch: 16,
            retain_answers: true,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let run = engine.run_events(source, u64::MAX, lateness, |_| {
            KeyedEventWindows::new(
                Sum::<f64>::new(),
                vec![TimeWindowSpec::tumbling(32), TimeWindowSpec::new(64, 16)],
            )
        });
        (run.stats, run.answers.into_iter().flatten().collect())
    }

    fn per_key(answers: &[(Key, Answer)]) -> HashMap<Key, Vec<Answer>> {
        let mut by_key: HashMap<Key, Vec<Answer>> = HashMap::new();
        for &(k, a) in answers {
            by_key.entry(k).or_default().push(a);
        }
        by_key
    }

    fn keyed_tuples(n: usize, keys: u64) -> Vec<(Key, f64)> {
        (0..n)
            .map(|i| ((i as u64 % keys), ((i * 37) % 101) as f64))
            .collect()
    }

    #[test]
    fn per_key_answers_are_window_ordered_and_complete() {
        let mut source =
            DisorderedKeyedSource::new(KeyedVecSource::new(keyed_tuples(2000, 5)), 64, 7);
        let (_, answers) = run_with(2, &mut source, None);
        for (key, seq) in per_key(&answers) {
            for q in 0..2usize {
                let ends: Vec<u64> = seq.iter().filter(|a| a.0 == q).map(|a| a.1).collect();
                assert!(!ends.is_empty(), "key {key} query {q} emitted nothing");
                assert!(
                    ends.windows(2).all(|w| w[0] < w[1]),
                    "key {key} query {q}: window ends not strictly increasing"
                );
            }
        }
        // Tumbling sums over a complete 0..2000 stamp range reconstruct
        // the whole stream's sum.
        let total: f64 = keyed_tuples(2000, 5).iter().map(|&(_, v)| v).sum();
        let tumbling_sum: f64 = answers
            .iter()
            .filter(|&&(_, (q, _, _))| q == 0)
            .map(|&(_, (_, _, v))| v)
            .sum();
        assert_eq!(tumbling_sum, total);
    }

    #[test]
    fn explicit_lateness_drops_and_counts() {
        // Two tuples arrive 100 behind the frontier; lateness 10 must
        // drop them at the router.
        let events = vec![
            (1, 0, 1.0),
            (1, 50, 2.0),
            (1, 200, 4.0),
            (2, 100, 8.0), // 100 < 200 - 10: late
            (1, 90, 16.0), // late
            (2, 205, 32.0),
        ];
        let mut source = KeyedVecEventSource::new(events, u64::MAX);
        let (stats, answers) = run_with(1, &mut source, Some(10));
        assert_eq!(stats.late_tuples, 2);
        assert_eq!(stats.tuples, 4);
        let accepted_sum: f64 = answers
            .iter()
            .filter(|&&(_, (q, _, _))| q == 0)
            .map(|&(_, (_, _, v))| v)
            .sum();
        assert_eq!(accepted_sum, 1.0 + 2.0 + 4.0 + 32.0);
    }

    /// The watermark catches up with the frontier once the routing loop
    /// ends, not only when the next tuple is pulled: a source's last
    /// tuple still closes the windows it makes due at the next barrier.
    #[test]
    fn the_watermark_rises_after_the_last_routed_tuple() {
        let config = EngineConfig {
            shards: 2,
            retain_answers: true,
            ..EngineConfig::default()
        };
        std::thread::scope(|scope| {
            let mut engine = ResidentEngine::start_events(scope, &config, Some(10), |_| {
                KeyedEventWindows::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(16)])
            });
            let events = vec![(1, 0, 1.0), (2, 5, 2.0), (1, 100, 4.0)];
            let mut source = KeyedVecEventSource::new(events, u64::MAX);
            assert_eq!(engine.route_events(&mut source, u64::MAX), 3);
            let cut = engine.barrier();
            assert_eq!(cut.stats.watermark(), 90);
            let mut first: Vec<(Key, Answer)> = cut
                .answers
                .iter()
                .flatten()
                .filter(|&&(_, (_, end, _))| end == 16)
                .copied()
                .collect();
            first.sort_by_key(|&(key, _)| key);
            assert_eq!(first, vec![(1, (0, 16, 1.0)), (2, (0, 16, 2.0))]);
            engine.stop(false);
        });
    }

    #[test]
    fn engine_watermark_is_min_across_shards() {
        let mut source =
            DisorderedKeyedSource::new(KeyedVecSource::new(keyed_tuples(1000, 9)), 16, 3);
        let (stats, _) = run_with(4, &mut source, None);
        let min = stats.shards.iter().map(|s| s.watermark).min().unwrap_or(0);
        assert_eq!(stats.watermark(), min);
        assert!(min >= 1000 - 16, "final watermark {min} never caught up");
    }
}
