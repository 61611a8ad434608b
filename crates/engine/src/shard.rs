//! The sharded engine: hash-partitioned, multi-threaded keyed execution.
//!
//! One router (the calling thread) pulls tuples from a source, lets the
//! path's [`Admit`] rule refuse some (arrival order refuses none; event
//! time refuses the late — `crate::event`), and hash-partitions the rest
//! across `shards` worker threads over bounded batch queues
//! (`crate::queue`). Tuples are batched to amortise the hand-off; a full
//! queue blocks the router (backpressure), so a slow shard slows
//! admission instead of growing memory without bound. Each worker owns
//! one [`ShardProcessor`] holding the per-key window state for every key
//! routed to it. There is one router loop and one worker loop, whatever
//! the path.
//!
//! Shutdown is graceful by construction: when the source runs dry (or the
//! tuple limit is reached) the router flushes its partial batches and drops
//! the senders; each worker drains its queue to completion and returns its
//! [`ShardStats`]. A worker that panics fails the run with its own panic:
//! the router stops at its next hand-off, closes every queue, joins the
//! workers and resumes the first worker panic.
//!
//! Because a single router preserves source order and a key maps to exactly
//! one shard, every key's tuples are processed in stream order — per-key
//! answers are identical for any shard count.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use swag_data::keyed::{Key, KeyedSource};
use swag_data::prng::mix64;
use swag_metrics::clock::Stopwatch;
use swag_metrics::QueueDepthGauge;
use swag_trace::EventKind;

use crate::keyed::ShardProcessor;
use crate::obs::{sampler_loop, EngineSample, ObservabilityConfig, ShardObs, StopGuard};
use crate::queue::{batch_queue, Batch, BatchReceiver, BatchSender};
use crate::slots::SlotGroups;
use crate::stats::{EngineStats, ShardStats};

/// Tuning knobs for a sharded run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker thread count (≥ 1). Keys are assigned by `mix64(key) % shards`.
    pub shards: usize,
    /// Bounded queue capacity per shard, in batches. The router blocks
    /// when a shard's queue is full — this is the backpressure bound —
    /// until the worker has drained it to half.
    pub queue_capacity: usize,
    /// Tuples per queued batch. Larger batches amortise queue
    /// synchronisation; smaller ones tighten the backpressure loop.
    pub batch: usize,
    /// Keep every `(key, answer)` pair a shard produces (for tests and
    /// result inspection). Leave off for throughput runs: answers are
    /// counted but not stored.
    pub retain_answers: bool,
    /// Run [`ShardProcessor::check_invariants`] on every shard after its
    /// graceful drain, panicking the worker on a violation. O(total window
    /// state) at shutdown; leave off for throughput runs.
    pub check_invariants: bool,
    /// Live observability: metric registry, per-shard flight recorders,
    /// and the queue-depth sampler. Default: all off, zero hot-path cost.
    pub obs: ObservabilityConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 2,
            queue_capacity: 64,
            batch: 256,
            retain_answers: false,
            check_invariants: false,
            obs: ObservabilityConfig::default(),
        }
    }
}

impl EngineConfig {
    /// A config with the given shard count and default queue/batch sizes.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig {
            shards,
            ..EngineConfig::default()
        }
    }

    /// Check every knob is usable, with a message naming the bad field.
    pub fn validate(&self) -> Result<(), String> {
        for (field, value, unit) in [
            ("shards", self.shards, ""),
            ("queue_capacity", self.queue_capacity, " batch"),
            ("batch", self.batch, " tuple"),
        ] {
            if value < 1 {
                return Err(format!(
                    "engine config: `{field}` must be at least 1{unit} (got {value})"
                ));
            }
        }
        Ok(())
    }
}

/// The outcome of [`ShardedEngine::run`].
#[derive(Debug)]
pub struct EngineRun<A> {
    /// Merged run statistics.
    pub stats: EngineStats,
    /// Retained answers, one `Vec` per shard in that shard's processing
    /// order (per-key order equals stream order). Empty unless
    /// [`EngineConfig::retain_answers`] was set.
    pub answers: Vec<Vec<(Key, A)>>,
    /// Periodic queue-depth/throughput observations, in time order. Empty
    /// unless [`ObservabilityConfig::sample_interval`] and a registry were
    /// both set.
    pub samples: Vec<EngineSample>,
}

/// The sharded keyed execution engine.
///
/// Construct with a config, then [`run`](Self::run) it over a keyed source
/// with a factory producing one [`ShardProcessor`] per shard.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    config: EngineConfig,
}

/// The shard a key is routed to under `shards` workers: stable for a given
/// key and shard count, scrambled by [`mix64`] so sequential keys spread.
pub fn shard_of(key: Key, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    (mix64(key) % shards as u64) as usize
}

impl ShardedEngine {
    /// An engine with the given configuration. Panics on zero shards,
    /// queue capacity, or batch size; use [`try_new`](Self::try_new) to
    /// handle bad configs without panicking.
    pub fn new(config: EngineConfig) -> Self {
        match Self::try_new(config) {
            Ok(engine) => engine,
            // check:allow documented panicking constructor; try_new is the fallible form
            Err(msg) => panic!("{msg}"),
        }
    }

    /// An engine with the given configuration, or the
    /// [`EngineConfig::validate`] error naming the bad knob.
    pub fn try_new(config: EngineConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(ShardedEngine { config })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Route up to `limit` tuples from `source` across the shards, running
    /// `make_processor(shard)` on each worker. Returns when the source is
    /// exhausted (or the limit reached) and every worker has drained.
    pub fn run<S, P, F>(
        &self,
        source: &mut S,
        limit: u64,
        make_processor: F,
    ) -> EngineRun<P::Answer>
    where
        S: KeyedSource + ?Sized,
        P: ShardProcessor<Value = f64>,
        F: Fn(usize) -> P + Send + Sync,
    {
        self.route(&mut AdmitAll(source), limit, true, make_processor)
            .0
    }

    /// [`run`](Self::run), but additionally hands back each shard's
    /// drained processor (in shard order) instead of dropping it.
    ///
    /// This is the resident-service hook: after a graceful drain every
    /// queue is empty and each processor sits at a batch boundary, so the
    /// returned states are a **drain-consistent** cut of the whole engine
    /// — the snapshot layer serializes them, and the next cycle feeds
    /// them back through `make_processor`.
    pub fn run_collecting<S, P, F>(
        &self,
        source: &mut S,
        limit: u64,
        make_processor: F,
    ) -> (EngineRun<P::Answer>, Vec<P>)
    where
        S: KeyedSource + ?Sized,
        P: ShardProcessor<Value = f64>,
        F: Fn(usize) -> P + Send + Sync,
    {
        self.route(&mut AdmitAll(source), limit, false, make_processor)
    }

    /// The one data plane behind every public entry point: spawn a
    /// [`shard_worker`] per shard, route what `admit` lets through, drain,
    /// join. `finish` ends the stream (workers flush open windows);
    /// without it the stream only pauses and open windows survive in the
    /// returned processors.
    pub(crate) fn route<A, P, F>(
        &self,
        admit: &mut A,
        limit: u64,
        finish: bool,
        make_processor: F,
    ) -> (EngineRun<P::Answer>, Vec<P>)
    where
        A: Admit,
        P: ShardProcessor<Value = A::Value>,
        F: Fn(usize) -> P + Send + Sync,
    {
        let config = &self.config;
        let shards = config.shards;
        let clock = Stopwatch::start();

        let mut senders: Vec<BatchSender<(Key, A::Value)>> = Vec::with_capacity(shards);
        let mut inboxes: Vec<BatchReceiver<(Key, A::Value)>> = Vec::with_capacity(shards);
        let mut gauges: Vec<QueueDepthGauge> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = batch_queue(config.queue_capacity);
            senders.push(tx);
            inboxes.push(rx);
            gauges.push(QueueDepthGauge::new());
        }
        // Instrument bundles are built here (registry registration is
        // locked) and moved onto the workers; `None` when obs is off.
        let mut shard_obs: Vec<Option<ShardObs>> = (0..shards)
            .map(|shard| config.obs.shard_obs(shard, &gauges[shard], A::TIMED))
            .collect();

        let samples: Mutex<Vec<EngineSample>> = Mutex::new(Vec::new());
        let make_processor = &make_processor;
        let (shard_stats, answers, processors) = std::thread::scope(|scope| {
            let handles: Vec<_> = inboxes
                .into_iter()
                .enumerate()
                .map(|(shard, inbox)| {
                    let gauge = gauges[shard].clone();
                    let obs = shard_obs[shard].take();
                    scope.spawn(move || {
                        let processor = make_processor(shard);
                        shard_worker(shard, inbox, gauge, processor, config, finish, obs)
                    })
                })
                .collect();

            // The sampler rides in the same scope; its StopGuard stops it
            // even when a worker panic unwinds past the joins below, so
            // the scope's implicit join can never deadlock on it.
            let sampler_stop = Arc::new(AtomicBool::new(false));
            let _sampler_guard = StopGuard(sampler_stop.clone());
            if let (Some(interval), Some(registry)) =
                (config.obs.sample_interval, config.obs.registry.as_ref())
            {
                let stop = sampler_stop.clone();
                let registry = registry.clone();
                let samples = &samples;
                scope.spawn(move || sampler_loop(&stop, interval, clock, &registry, samples));
            }

            // The router: batch admitted tuples per shard, block on full
            // queues. Every batch carries the watermark as of its flush.
            // The worker hands drained buffers back through the queue;
            // `Err` means it is gone (it panicked), and the join below
            // surfaces why.
            let send = |shard: usize, watermark: u64, tuples: Vec<(Key, A::Value)>| {
                gauges[shard].enqueued_n(tuples.len() as u64);
                senders[shard]
                    .hand_off(Batch { watermark, tuples })
                    .map_err(drop)
            };
            let mut batches: Vec<Vec<(Key, A::Value)>> = (0..shards)
                .map(|_| Vec::with_capacity(config.batch))
                .collect();
            let mut routed = 0u64;
            while routed < limit {
                let Some(pulled) = admit.pull() else { break };
                let Some((key, value)) = pulled else { continue };
                let shard = shard_of(key, shards);
                batches[shard].push((key, value));
                routed += 1;
                if batches[shard].len() == config.batch {
                    let full = std::mem::take(&mut batches[shard]);
                    let Ok(spare) = send(shard, admit.flush_watermark(full.len()), full) else {
                        // A dead worker: stop routing. Its hand-offs below
                        // fail at once; the live workers drain and exit.
                        break;
                    };
                    batches[shard] = spare.unwrap_or_else(|| Vec::with_capacity(config.batch));
                }
            }
            // The stream is drained: the partial batches carry the
            // frontier's final reading.
            let closing = admit.close();
            for (shard, partial) in batches.into_iter().enumerate() {
                if !partial.is_empty() {
                    send(shard, admit.flush_watermark(partial.len()), partial).ok();
                }
            }
            if A::TIMED {
                // Broadcast the final watermark to every shard — including
                // shards no key hashed to — so each one's reported
                // watermark reflects the frontier it durably covers, not
                // merely the tuples it happened to receive.
                for shard in 0..shards {
                    send(shard, closing, Vec::new()).ok();
                }
            }
            // Dropping the senders signals end-of-stream; workers drain
            // their queues and return.
            drop(senders);

            let mut shard_stats = Vec::with_capacity(shards);
            let mut answers = Vec::with_capacity(shards);
            let mut processors = Vec::with_capacity(shards);
            let mut crashed = None;
            for handle in handles {
                match handle.join() {
                    Ok((stats, shard_answers, processor)) => {
                        shard_stats.push(stats);
                        answers.push(shard_answers);
                        processors.push(processor);
                    }
                    Err(panic) => {
                        crashed.get_or_insert(panic);
                    }
                }
            }
            if let Some(panic) = crashed {
                // The run fails with the worker's own panic.
                std::panic::resume_unwind(panic);
            }
            (shard_stats, answers, processors)
        });

        (
            EngineRun {
                stats: EngineStats::merge(shard_stats, clock.elapsed()),
                answers,
                samples: samples.into_inner().unwrap_or_else(|e| e.into_inner()),
            },
            processors,
        )
    }
}

/// The router's only per-path part: where tuples come from and which of
/// them are admitted. The arrival-order path admits everything
/// ([`AdmitAll`]); the event-time path applies the late-drop/watermark
/// rule (`event::AdmitOnTime`).
pub(crate) trait Admit {
    /// The tuple payload this path routes.
    type Value: Copy + Send;

    /// Whether time is carried by the tuples (a moving watermark, shard
    /// lag gauges, a closing watermark broadcast) rather than positional.
    const TIMED: bool;

    /// Pull the next tuple: `None` once the source is dry, `Some(None)`
    /// for a tuple pulled but refused.
    fn pull(&mut self) -> Option<Option<(Key, Self::Value)>>;

    /// The watermark to stamp on a batch of `tuples` tuples being flushed.
    fn flush_watermark(&mut self, _tuples: usize) -> u64 {
        0
    }

    /// The source is drained: take the watermark's final reading.
    fn close(&mut self) -> u64 {
        0
    }
}

/// Arrival order: time is positional, every tuple is admitted.
struct AdmitAll<'a, S: ?Sized>(&'a mut S);

impl<S: KeyedSource + ?Sized> Admit for AdmitAll<'_, S> {
    type Value = f64;
    const TIMED: bool = false;

    fn pull(&mut self) -> Option<Option<(Key, f64)>> {
        self.0.next_tuple().map(Some)
    }
}

/// One worker's loop: drain batches until the queue closes.
///
/// Each received batch is grouped into per-key runs by a counting sort on
/// the processor's slots ([`SlotGroups`]: one slot look-up per tuple, no
/// comparisons; stable, so tuples of one key keep their stream order), so
/// a key pays one [`ShardProcessor::process_slot`] call — the
/// aggregator's bulk path over a slice of the grouped values — per batch
/// instead of one call per tuple. Keys run in the order of their first
/// tuple in the batch. Then every key is advanced to the batch's
/// watermark if it rose, collecting the windows that closes. Per-key
/// answer sequences are unchanged; only the interleaving of different
/// keys inside a batch may differ. The batch's buffer goes back to the
/// router with the next receive.
///
/// With an instrument bundle, the worker additionally maintains its
/// registry series, times each slide into the latency histogram, and
/// narrates its life into the flight recorder — batch received, per-key
/// slide (plus a bulk-path marker for multi-tuple runs), watermark
/// advance, the post-drain invariant check, and the final drain event. A
/// panic anywhere in the loop dumps the ring via `swag-trace`'s hook (the
/// registration guard lives for the whole function).
fn shard_worker<P: ShardProcessor>(
    shard: usize,
    inbox: BatchReceiver<(Key, P::Value)>,
    gauge: QueueDepthGauge,
    mut processor: P,
    config: &EngineConfig,
    finish: bool,
    obs: Option<ShardObs>,
) -> (ShardStats, Vec<(Key, P::Answer)>, P) {
    let started = Stopwatch::start();
    let _trace_guard = obs.as_ref().and_then(ShardObs::install_trace);
    let recorder = obs.as_ref().and_then(|o| o.recorder.as_ref());
    let mut tuples = 0u64;
    let mut answers = 0u64;
    let mut batches = 0u64;
    let mut watermark = 0u64;
    let mut retained = Vec::new();
    // Reused across batches: the grouping buffers and per-batch answers.
    let mut groups = SlotGroups::new();
    let mut scratch = Vec::new();
    // Count answers as produced, before the retain decision — the tally
    // is the same whether or not answers are kept.
    let mut deliver = |scratch: &mut Vec<(Key, P::Answer)>| {
        answers += scratch.len() as u64;
        if let Some(o) = &obs {
            o.answers.add(scratch.len() as u64);
        }
        if config.retain_answers {
            retained.append(scratch);
        } else {
            scratch.clear();
        }
    };
    // Phase occupancy: one clock read before and after each receive
    // splits the worker's wall time into blocked-on-queue vs. processing.
    let mut phase = obs.as_ref().map(|_| Stopwatch::start());
    let mut spent = None;
    loop {
        let received = inbox.next_batch(spent.take());
        if let (Some(o), Some(p)) = (&obs, &mut phase) {
            o.blocked_ns.add(p.elapsed_ns());
            *p = Stopwatch::start();
        }
        let Some(Batch {
            watermark: wm,
            tuples: batch,
        }) = received
        else {
            break;
        };
        gauge.dequeued_n(batch.len() as u64);
        batches += 1;
        if let Some(o) = &obs {
            o.batches.inc();
            o.tuples.add(batch.len() as u64);
            if let Some(rec) = recorder {
                rec.record(EventKind::BatchReceived, batch.len() as u64, gauge.depth());
            }
        }
        groups.group_batch(&mut processor, &batch);
        spent = Some(batch);
        for (slot, key, values) in groups.runs() {
            let run_len = values.len() as u64;
            // Two clock reads per slide, only when someone is scraping
            // the histogram.
            let timer = obs
                .as_ref()
                .and_then(|o| o.slide_latency.as_ref())
                .map(|_| Stopwatch::start());
            processor.process_slot(slot, values, &mut scratch);
            if let Some(o) = &obs {
                if let (Some(hist), Some(timer)) = (&o.slide_latency, timer) {
                    hist.record(timer.elapsed_ns());
                }
                if let Some(rec) = recorder {
                    rec.record(EventKind::Slide, key, run_len);
                    if run_len > 1 {
                        // The run took the aggregator's bulk
                        // insert/evict fast path.
                        rec.record(EventKind::BulkEvict, key, run_len);
                    }
                }
            }
            tuples += run_len;
        }
        // The watermark closes windows across every key on this shard,
        // including keys untouched by this batch.
        if wm > watermark {
            watermark = wm;
            processor.advance_watermark(wm, &mut scratch);
            if let Some(rec) = recorder {
                rec.record(EventKind::WatermarkAdvance, wm, scratch.len() as u64);
            }
        }
        if let Some(lag) = obs.as_ref().and_then(|o| o.watermark_lag.as_ref()) {
            // Refreshed every batch — not only on watermark advance — so
            // the gauge (and the sampler series built from it) tracks lag
            // even while the watermark is stalled behind late data.
            lag.set(
                processor
                    .max_ts()
                    .map_or(0, |m| m.saturating_sub(watermark)),
            );
        }
        deliver(&mut scratch);
        if let (Some(o), Some(p)) = (&obs, &mut phase) {
            o.busy_ns.add(p.elapsed_ns());
            *p = Stopwatch::start();
        }
    }
    // End of stream: close out every window still holding data. The
    // shard's final watermark durably covers everything it accepted. A
    // resident run skips this — the stream is pausing, not ending — and
    // reports the watermark it actually reached, so open windows survive
    // into the next cycle.
    if finish {
        processor.finish(&mut scratch);
        if let Some(max) = processor.max_ts() {
            watermark = watermark.max(max.saturating_add(1));
        }
        deliver(&mut scratch);
    }
    if let Some(lag) = obs.as_ref().and_then(|o| o.watermark_lag.as_ref()) {
        lag.set(0);
    }
    if config.check_invariants {
        let result = processor.check_invariants();
        if let Some(rec) = recorder {
            rec.record(EventKind::InvariantCheck, result.is_ok() as u64, 0);
        }
        if let Err(violation) = result {
            // check:allow a corrupted shard must fail the run loudly, not return bad stats
            panic!("shard {shard}: post-drain invariant check failed: {violation}");
        }
    }
    if let Some(o) = &obs {
        o.keys.set(processor.keys() as u64);
        if let Some(rec) = recorder {
            rec.record(EventKind::Drain, tuples, answers);
        }
        o.dump_on_drain();
    }
    let stats = ShardStats {
        shard,
        tuples,
        answers,
        batches,
        keys: processor.keys(),
        max_queue_depth: gauge.max_depth(),
        watermark,
        elapsed: started.elapsed(),
    };
    (stats, retained, processor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::KeyedEventWindows;
    use crate::keyed::KeyedWindows;
    use swag_core::algorithms::SlickDequeInv;
    use swag_core::ops::Sum;
    use swag_data::event::DisorderedKeyedSource;
    use swag_data::keyed::KeyedVecSource;
    use swag_stream::TimeWindowSpec;

    fn tuples(n: u64, keys: u64) -> Vec<(Key, f64)> {
        (0..n).map(|i| (i % keys, (i % 13) as f64)).collect()
    }

    #[test]
    fn keys_never_span_shards() {
        let input = tuples(2000, 10);
        let engine = ShardedEngine::new(EngineConfig {
            shards: 4,
            queue_capacity: 2,
            batch: 16,
            retain_answers: true,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let mut source = KeyedVecSource::new(input);
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 4)
        });
        for (shard, answers) in run.answers.iter().enumerate() {
            for &(key, _) in answers {
                assert_eq!(shard_of(key, 4), shard);
            }
        }
        assert_eq!(run.stats.keys(), 10);
    }

    #[test]
    fn invalid_configs_are_rejected_with_field_names() {
        let mut bad = [(); 3].map(|()| EngineConfig::default());
        bad[0].shards = 0;
        bad[1].queue_capacity = 0;
        bad[2].batch = 0;
        for (field, bad) in ["`shards`", "`queue_capacity`", "`batch`"].iter().zip(bad) {
            let err = ShardedEngine::try_new(bad).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn answers_counted_without_retention_and_batches_tracked() {
        let input = tuples(1000, 7);
        let engine = ShardedEngine::new(EngineConfig {
            shards: 2,
            queue_capacity: 4,
            batch: 50,
            retain_answers: false,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let mut source = KeyedVecSource::new(input);
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 16)
        });
        // Slide-1 windows answer once per tuple even when nothing is kept.
        assert_eq!(run.stats.answers, 1000);
        // 1000 tuples over 50-tuple batches: 20 full messages plus at most
        // one partial flush per shard.
        assert!(
            (20..=22).contains(&run.stats.batches),
            "batches = {}",
            run.stats.batches
        );
        let per_batch = run.stats.tuples_per_batch();
        assert!(per_batch > 40.0 && per_batch <= 50.0, "{per_batch}");
    }

    /// The limit counts admitted tuples, whichever path admits them.
    #[test]
    fn limit_caps_routed_tuples() {
        let engine = ShardedEngine::new(EngineConfig::with_shards(2));
        let count = engine.run(&mut KeyedVecSource::new(tuples(1000, 5)), 300, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 8)
        });
        assert!(
            count.answers.iter().all(|a| a.is_empty()),
            "answers not retained"
        );
        let mut events = DisorderedKeyedSource::new(KeyedVecSource::new(tuples(1000, 3)), 8, 1);
        let event = engine.run_events(&mut events, 300, None, |_| {
            KeyedEventWindows::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(16)])
        });
        assert_eq!((count.stats.tuples, event.stats.tuples), (300, 300));
    }

    /// Forwards to `inner` until it has been handed `fault_at − 1` tuples,
    /// then panics on the next one.
    struct PanicsAt<P> {
        inner: P,
        fault_at: u64,
    }

    impl<P: ShardProcessor> ShardProcessor for PanicsAt<P> {
        type Value = P::Value;
        type Answer = P::Answer;

        fn open_slot(&mut self, key: Key) -> usize {
            self.inner.open_slot(key)
        }

        fn process_slot(
            &mut self,
            slot: usize,
            values: &[P::Value],
            out: &mut Vec<(Key, P::Answer)>,
        ) {
            assert!(
                (values.len() as u64) < self.fault_at,
                "injected fault: this shard dies on tuple {}",
                self.fault_at
            );
            self.fault_at -= values.len() as u64;
            self.inner.process_slot(slot, values, out);
        }

        fn advance_watermark(&mut self, watermark: u64, out: &mut Vec<(Key, P::Answer)>) {
            self.inner.advance_watermark(watermark, out);
        }

        fn keys(&self) -> usize {
            self.inner.keys()
        }
    }

    /// A worker that dies while the router is parked on its full
    /// one-batch queue fails the run with the worker's own panic, down
    /// both paths; a watchdog fails the test if the run hangs instead.
    #[test]
    fn a_dead_worker_behind_a_full_queue_fails_the_run() {
        type Drive = fn(&ShardedEngine);
        let count: Drive = |engine| {
            engine.run(&mut KeyedVecSource::new(tuples(5000, 3)), u64::MAX, |_| {
                PanicsAt {
                    inner: KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 4),
                    fault_at: 3,
                }
            });
        };
        let event: Drive = |engine| {
            let mut source = DisorderedKeyedSource::new(KeyedVecSource::new(tuples(5000, 3)), 8, 1);
            engine.run_events(&mut source, u64::MAX, None, |_| PanicsAt {
                inner: KeyedEventWindows::new(
                    Sum::<f64>::new(),
                    vec![TimeWindowSpec::tumbling(16)],
                ),
                fault_at: 3,
            });
        };
        for (path, drive) in [("count", count), ("event", event)] {
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let engine = ShardedEngine::new(EngineConfig {
                    shards: 2,
                    queue_capacity: 1,
                    batch: 1,
                    ..EngineConfig::default()
                });
                let run = std::panic::catch_unwind(|| drive(&engine));
                let message = run.err().map(|panic| match panic.downcast::<String>() {
                    Ok(message) => *message,
                    Err(_) => "a panic without a message".to_string(),
                });
                done.send(message).ok();
            });
            let message = outcome
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{path}: the run hung behind a dead worker"));
            let message = message.unwrap_or_else(|| panic!("{path}: the run succeeded"));
            assert!(message.contains("injected fault"), "{path}: {message}");
        }
    }

    #[test]
    fn queue_depth_watermark_is_observed() {
        let input = tuples(4096, 3);
        let engine = ShardedEngine::new(EngineConfig {
            shards: 1,
            queue_capacity: 2,
            batch: 32,
            retain_answers: false,
            check_invariants: true,
            ..EngineConfig::default()
        });
        let mut source = KeyedVecSource::new(input);
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 64)
        });
        let depth = run.stats.max_queue_depth();
        assert!(
            depth >= 32,
            "at least one full batch was queued, saw {depth}"
        );
    }
}
