//! The resident engine against one run: a stream cut into random cycles,
//! with barriers, snapshot barriers and restores into a fresh engine
//! sprinkled in, must give every key the answers and the final window
//! state that a single `run_collecting` / `run_events_collecting` over the
//! whole stream gives, bitwise. Both paths (arrival order and event time
//! at disorder 0/16/256) over 1, 2 and 8 shards — in-order input is the
//! distance-0 case of the out-of-order one, as in arXiv 2307.11210.
//!
//! Values are integers, so every sum is exact however a bulk path or a
//! batch boundary associates it: bitwise equality is the guarantee.

use std::collections::BTreeMap;
use std::thread::Scope;

use swag_core::algorithms::SlickDequeInv;
use swag_core::ops::Sum;
use swag_core::state::{StateReader, StateWriter, StatefulAggregator};
use swag_data::event::DisorderedKeyedSource;
use swag_data::keyed::{Key, KeyedVecSource};
use swag_data::prng::SplitMix64;
use swag_engine::{
    EngineConfig, EngineRun, KeyedEventWindows, KeyedWindows, ResidentEngine, ShardProcessor,
    ShardedEngine,
};
use swag_stream::{TimeWindowExec, TimeWindowSpec};

const TUPLES: u64 = 3000;
const KEYS: u64 = 23;
const WINDOW: usize = 16;

fn stream() -> Vec<(Key, f64)> {
    let mut rng = SplitMix64::new(0x5EED);
    (0..TUPLES)
        .map(|_| (rng.next_u64() % KEYS, (rng.next_u64() % 201) as f64 - 100.0))
        .collect()
}

/// One shard's state as a snapshot holds it: per key, in key order, the
/// state words and the partials' bits.
type Saved = Vec<(Key, Vec<u64>, Vec<u64>)>;

fn saved(key: Key, w: StateWriter<f64>) -> (Key, Vec<u64>, Vec<u64>) {
    let (words, partials) = w.into_parts();
    (key, words, partials.iter().map(|p| p.to_bits()).collect())
}

fn reader_parts(partials: &[u64]) -> Vec<f64> {
    partials.iter().map(|&b| f64::from_bits(b)).collect()
}

/// What differs between the two paths.
trait Path: Sync {
    type Proc: ShardProcessor<Answer = Self::Answer> + 'static;
    type Answer: Copy + std::fmt::Debug + Send + 'static;
    type Source;

    fn source(&self) -> Self::Source;
    fn fresh(&self) -> Self::Proc;
    fn save(&self, processor: &Self::Proc) -> Saved;
    fn restore(&self, saved: &Saved) -> Self::Proc;
    /// The reference: the whole stream in one run that leaves windows open.
    fn single(&self, engine: &ShardedEngine) -> (EngineRun<Self::Answer>, Vec<Self::Proc>);
    fn start<'s>(
        &self,
        scope: &'s Scope<'s, '_>,
        config: &EngineConfig,
        processors: Vec<Self::Proc>,
    ) -> ResidentEngine<'s, Self::Proc>;
    fn route(
        &self,
        engine: &mut ResidentEngine<'_, Self::Proc>,
        source: &mut Self::Source,
        n: u64,
    ) -> u64;
}

struct Count;

impl Path for Count {
    type Proc = KeyedWindows<Sum<f64>, SlickDequeInv<Sum<f64>>>;
    type Answer = f64;
    type Source = KeyedVecSource;

    fn source(&self) -> KeyedVecSource {
        KeyedVecSource::new(stream())
    }

    fn fresh(&self) -> Self::Proc {
        KeyedWindows::new(Sum::<f64>::new(), WINDOW)
    }

    fn save(&self, processor: &Self::Proc) -> Saved {
        let mut keys: Saved = processor
            .states()
            .map(|(key, agg)| {
                let mut w = StateWriter::new();
                agg.save_state(&mut w);
                saved(key, w)
            })
            .collect();
        keys.sort();
        keys
    }

    fn restore(&self, saved: &Saved) -> Self::Proc {
        let states = saved.iter().map(|(key, words, partials)| {
            let partials = reader_parts(partials);
            let mut r = StateReader::new(words, &partials);
            let agg = SlickDequeInv::load_state(Sum::<f64>::new(), WINDOW, &mut r);
            (*key, agg.expect("a saved state loads"))
        });
        KeyedWindows::from_states(Sum::<f64>::new(), WINDOW, states.collect::<Vec<_>>())
    }

    fn single(&self, engine: &ShardedEngine) -> (EngineRun<f64>, Vec<Self::Proc>) {
        engine.run_collecting(&mut self.source(), u64::MAX, |_| self.fresh())
    }

    fn start<'s>(
        &self,
        scope: &'s Scope<'s, '_>,
        config: &EngineConfig,
        processors: Vec<Self::Proc>,
    ) -> ResidentEngine<'s, Self::Proc> {
        let mut processors = processors.into_iter();
        ResidentEngine::start(scope, config, |_| processors.next().unwrap())
    }

    fn route(
        &self,
        engine: &mut ResidentEngine<'_, Self::Proc>,
        source: &mut KeyedVecSource,
        n: u64,
    ) -> u64 {
        engine.route_keyed(source, n)
    }
}

struct Events {
    disorder: u64,
}

fn specs() -> Vec<TimeWindowSpec> {
    vec![TimeWindowSpec::tumbling(32), TimeWindowSpec::new(64, 16)]
}

impl Path for Events {
    type Proc = KeyedEventWindows<Sum<f64>>;
    type Answer = (usize, u64, f64);
    type Source = DisorderedKeyedSource<KeyedVecSource>;

    fn source(&self) -> Self::Source {
        DisorderedKeyedSource::new(Count.source(), self.disorder, 7)
    }

    fn fresh(&self) -> Self::Proc {
        KeyedEventWindows::new(Sum::<f64>::new(), specs())
    }

    fn save(&self, processor: &Self::Proc) -> Saved {
        let mut keys: Saved = processor
            .states()
            .map(|(key, exec)| {
                let mut w = StateWriter::new();
                exec.save_state(&mut w);
                saved(key, w)
            })
            .collect();
        keys.sort();
        keys
    }

    fn restore(&self, saved: &Saved) -> Self::Proc {
        let states = saved.iter().map(|(key, words, partials)| {
            let partials = reader_parts(partials);
            let mut r = StateReader::new(words, &partials);
            let exec = TimeWindowExec::load_state(Sum::<f64>::new(), &mut r);
            (*key, exec.expect("a saved state loads"))
        });
        KeyedEventWindows::from_states(Sum::<f64>::new(), specs(), states.collect::<Vec<_>>())
    }

    fn single(&self, engine: &ShardedEngine) -> (EngineRun<Self::Answer>, Vec<Self::Proc>) {
        engine.run_events_collecting(&mut self.source(), u64::MAX, None, |_| self.fresh())
    }

    fn start<'s>(
        &self,
        scope: &'s Scope<'s, '_>,
        config: &EngineConfig,
        processors: Vec<Self::Proc>,
    ) -> ResidentEngine<'s, Self::Proc> {
        let mut processors = processors.into_iter();
        ResidentEngine::start_events(scope, config, None, |_| processors.next().unwrap())
    }

    fn route(
        &self,
        engine: &mut ResidentEngine<'_, Self::Proc>,
        source: &mut Self::Source,
        n: u64,
    ) -> u64 {
        engine.route_events(source, n)
    }
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        queue_capacity: 4,
        batch: 16,
        retain_answers: true,
        check_invariants: true,
        ..EngineConfig::default()
    }
}

/// Per key, its answers in order, printed (`{:?}` on `f64` round-trips,
/// so equal text is equal bits) — and its final state.
type Outcome = (BTreeMap<Key, String>, Vec<Saved>);

fn outcome<Pa: Path>(
    path: &Pa,
    answers: Vec<(Key, Pa::Answer)>,
    processors: &[Pa::Proc],
) -> Outcome {
    let mut by_key: BTreeMap<Key, Vec<Pa::Answer>> = BTreeMap::new();
    for (key, answer) in answers {
        by_key.entry(key).or_default().push(answer);
    }
    let printed = by_key
        .into_iter()
        .map(|(k, a)| (k, format!("{a:?}")))
        .collect();
    (printed, processors.iter().map(|p| path.save(p)).collect())
}

/// The stream through one resident engine at a time, in random cycles:
/// after each cycle a barrier, a snapshot barrier, a restore into a fresh
/// engine, or nothing (the open batches carry into the next cycle).
fn resident<Pa: Path>(path: &Pa, shards: usize, seed: u64) -> Outcome {
    let config = config(shards);
    let mut rng = SplitMix64::new(seed);
    let mut source = path.source();
    let mut answers: Vec<(Key, Pa::Answer)> = Vec::new();
    let mut processors: Vec<Pa::Proc> = (0..shards).map(|_| path.fresh()).collect();
    let (mut restores, mut snapshots) = (0, 0);
    loop {
        let start_with = std::mem::take(&mut processors);
        let done = std::thread::scope(|scope| {
            let mut engine = path.start(scope, &config, start_with);
            loop {
                let want = 1 + rng.next_u64() % 400;
                if path.route(&mut engine, &mut source, want) < want {
                    let cut = engine.barrier();
                    answers.extend(cut.answers.iter().flatten().copied());
                    let (run, drained) = engine.stop(false);
                    assert!(
                        run.answers.iter().all(Vec::is_empty),
                        "all answers were cut"
                    );
                    processors = drained;
                    return true;
                }
                match rng.next_u64() % 6 {
                    0..=2 => {
                        let cut = engine.barrier();
                        answers.extend(cut.answers.iter().flatten().copied());
                    }
                    3 => {
                        let (cut, keys) = engine.barrier_with(ShardProcessor::keys);
                        assert_eq!(keys.iter().sum::<usize>(), cut.stats.keys());
                        answers.extend(cut.answers.iter().flatten().copied());
                        snapshots += 1;
                    }
                    4 => {
                        // Snapshot at a barrier, then carry on in a fresh
                        // engine rebuilt from the snapshot alone.
                        let (cut, saved) = engine.barrier_with(|p| path.save(p));
                        answers.extend(cut.answers.iter().flatten().copied());
                        engine.stop(false);
                        processors = saved.iter().map(|s| path.restore(s)).collect();
                        restores += 1;
                        return false;
                    }
                    _ => {}
                }
            }
        });
        if done {
            break;
        }
    }
    assert!(
        restores + snapshots > 0,
        "seed {seed} exercised no snapshot"
    );
    outcome(path, answers, &processors)
}

fn check<Pa: Path>(path: &Pa, label: &str) {
    for shards in [1, 2, 8] {
        let engine = ShardedEngine::new(config(shards));
        let (run, processors) = path.single(&engine);
        let reference = outcome(
            path,
            run.answers.into_iter().flatten().collect(),
            &processors,
        );
        assert!(
            !reference.0.is_empty(),
            "{label}: the reference answered nothing"
        );
        for seed in 1..=4 {
            let got = resident(path, shards, seed);
            assert!(
                got.0 == reference.0,
                "{label} shards {shards} seed {seed}: answers differ"
            );
            assert!(
                got.1 == reference.1,
                "{label} shards {shards} seed {seed}: final states differ"
            );
        }
    }
}

#[test]
fn resident_count_cycles_match_one_run() {
    check(&Count, "count");
}

#[test]
fn resident_event_cycles_match_one_run() {
    for disorder in [0, 16, 256] {
        check(&Events { disorder }, &format!("event disorder {disorder}"));
    }
}

/// Statistics at a barrier cover exactly the stretch since the previous
/// one, and the stop's totals cover the engine's life.
#[test]
fn barrier_stats_cover_each_stretch() {
    let config = config(3);
    let mut source = Count.source();
    std::thread::scope(|scope| {
        let mut engine = Count.start(scope, &config, (0..3).map(|_| Count.fresh()).collect());
        let mut total = 0;
        for n in [1, 700, 0, 1299] {
            assert_eq!(engine.route_keyed(&mut source, n), n);
            let cut = engine.barrier();
            // Window slide 1: one answer per tuple.
            assert_eq!((cut.stats.tuples, cut.stats.answers), (n, n));
            assert_eq!(cut.answers.iter().map(Vec::len).sum::<usize>() as u64, n);
            total += n;
        }
        let (run, _) = engine.stop(false);
        assert_eq!((run.stats.tuples, run.stats.answers), (total, total));
        assert!(run.answers.iter().all(Vec::is_empty));
    });
}
