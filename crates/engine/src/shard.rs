//! The sharded engine: hash-partitioned, multi-threaded keyed execution.
//!
//! One router (the calling thread) pulls tuples from a source, drops the
//! late ones on the event-time path (`crate::event`; arrival order drops
//! none), and hash-partitions the rest across `shards` worker threads
//! over bounded batch queues (`crate::queue`). Tuples are batched to
//! amortise the hand-off; a full queue blocks the router (backpressure),
//! so a slow shard slows admission instead of growing memory without
//! bound. Each worker owns one [`ShardProcessor`] holding the per-key
//! window state for every key routed to it.
//!
//! The router and the workers are a [`ResidentEngine`]; each of the four
//! `run*` methods is that engine started, fed the whole source, and
//! stopped. Stopping is graceful: the router flushes its partial batches
//! and closes the queues; each worker drains its queue to completion and
//! returns its [`ShardStats`](crate::ShardStats). A worker that panics
//! fails the run with its own panic.
//!
//! Because a single router preserves source order and a key maps to exactly
//! one shard, every key's tuples are processed in stream order — per-key
//! answers are identical for any shard count.

use swag_data::event::KeyedEventSource;
use swag_data::keyed::{Key, KeyedSource};
use swag_data::prng::mix64;

use crate::keyed::ShardProcessor;
use crate::obs::{EngineSample, ObservabilityConfig};
use crate::resident::ResidentEngine;
use crate::stats::EngineStats;

/// Tuning knobs for a sharded run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker thread count (≥ 1). Keys are assigned by `mix64(key) % shards`.
    pub shards: usize,
    /// Bounded queue capacity per shard, in batches, counting the ones
    /// its worker holds. The router blocks when a shard's queue is full —
    /// this is the backpressure bound — until the worker has drained it
    /// to half.
    pub queue_capacity: usize,
    /// Tuples per queued batch. Larger batches amortise queue
    /// synchronisation; smaller ones tighten the backpressure loop.
    pub batch: usize,
    /// Keep every `(key, answer)` pair a shard produces (for tests and
    /// result inspection). Leave off for throughput runs: answers are
    /// counted but not stored.
    pub retain_answers: bool,
    /// With [`retain_answers`](Self::retain_answers), keep only each
    /// entry's last answer per key per drain (the one or more batches a
    /// worker takes at once), entries as
    /// [`ShardProcessor::same_entry`] groups them: for a caller that
    /// keeps a table of latest answers. Every answer is still counted.
    pub latest_only: bool,
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
            latest_only: false,
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

/// The outcome of [`ShardedEngine::run`], or of the stretch between two
/// [`ResidentEngine::barrier`]s.
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
        std::thread::scope(|scope| {
            let mut engine = ResidentEngine::start(scope, &self.config, make_processor);
            engine.route_keyed(source, limit);
            engine.stop(true).0
        })
    }

    /// [`run`](Self::run), but the stream pauses rather than ends: open
    /// windows are not flushed ([`ShardProcessor::finish`]), and each
    /// shard's drained processor — at a batch boundary, so together a
    /// **drain-consistent** cut — is handed back in shard order.
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
        std::thread::scope(|scope| {
            let mut engine = ResidentEngine::start(scope, &self.config, make_processor);
            engine.route_keyed(source, limit);
            engine.stop(false)
        })
    }

    /// Route up to `limit` timestamped tuples from `source` across the
    /// shards, running `make_processor(shard)` on each worker.
    ///
    /// `lateness`: with `Some(l)`, the router's watermark trails the
    /// largest routed timestamp by `l` and anything below it is dropped
    /// (and counted); with `None` the router trusts the source's own
    /// watermark, which for well-behaved sources drops nothing.
    pub fn run_events<S, P, F>(
        &self,
        source: &mut S,
        limit: u64,
        lateness: Option<u64>,
        make_processor: F,
    ) -> EngineRun<P::Answer>
    where
        S: KeyedEventSource + ?Sized,
        P: ShardProcessor<Value = (u64, f64)>,
        F: Fn(usize) -> P + Send + Sync,
    {
        std::thread::scope(|scope| {
            let mut engine =
                ResidentEngine::start_events(scope, &self.config, lateness, make_processor);
            engine.route_events(source, limit);
            engine.stop(true).0
        })
    }

    /// [`run_events`](Self::run_events), but pausing the stream as
    /// [`run_collecting`](Self::run_collecting) does.
    pub fn run_events_collecting<S, P, F>(
        &self,
        source: &mut S,
        limit: u64,
        lateness: Option<u64>,
        make_processor: F,
    ) -> (EngineRun<P::Answer>, Vec<P>)
    where
        S: KeyedEventSource + ?Sized,
        P: ShardProcessor<Value = (u64, f64)>,
        F: Fn(usize) -> P + Send + Sync,
    {
        std::thread::scope(|scope| {
            let mut engine =
                ResidentEngine::start_events(scope, &self.config, lateness, make_processor);
            engine.route_events(source, limit);
            engine.stop(false)
        })
    }
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
