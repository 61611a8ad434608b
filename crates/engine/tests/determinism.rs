//! Sharding must not change answers: for every supported operator, the
//! per-key answer sequences of a sharded run are bit-identical to a
//! single-threaded (1-shard) reference, for any shard count.
//!
//! This is the engine's core correctness claim (see `shard.rs`): one
//! router preserves source order, and a key maps to exactly one shard, so
//! each key's window state sees its tuples in stream order no matter how
//! many workers exist. Both ways into the one data plane are driven —
//! arrival order (`run`) and event time (`run_events`, where the router
//! also drops late tuples and stamps watermarks before partitioning). Floating-point answers are compared exactly — the
//! per-key operation sequence is identical, so even non-associative
//! rounding must reproduce.

use std::collections::BTreeMap;
use swag_core::aggregator::FinalAggregator;
use swag_core::algorithms::{SlickDequeInv, SlickDequeNonInv};
use swag_core::ops::{AggregateOp, MaxF64, Mean, MinF64, StdDev, Sum};
use swag_data::event::DisorderedKeyedSource;
use swag_data::keyed::{Key, KeyedVecSource};
use swag_data::prng::Xoshiro256StarStar;
use swag_engine::{EngineConfig, EngineRun, KeyedEventWindows, KeyedWindows, ShardedEngine};
use swag_stream::TimeWindowSpec;

const WINDOW: usize = 32;
const TUPLES: u64 = 6000;
const KEYS: u64 = 41;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// A keyed stream with skewed key frequencies and varied values, so shards
/// receive unequal load and windows cross many expiry boundaries.
fn keyed_stream() -> Vec<(Key, f64)> {
    let mut rng = Xoshiro256StarStar::new(0xD15C0);
    (0..TUPLES)
        .map(|_| {
            // Quadratic skew: low keys appear far more often.
            let r = rng.next_f64();
            let key = ((r * r) * KEYS as f64) as Key;
            (key.min(KEYS - 1), rng.gen_range_f64(-100.0, 100.0))
        })
        .collect()
}

/// Exact answer comparison (NaN equals itself: the operation sequence is
/// the same, so a NaN must reproduce too).
trait Answer: Copy + std::fmt::Debug {
    fn same(&self, other: &Self) -> bool;
}

impl Answer for f64 {
    fn same(&self, other: &f64) -> bool {
        self == other || (self.is_nan() && other.is_nan())
    }
}

/// Event-time answers: `(query, window end, value)`.
impl Answer for (usize, u64, f64) {
    fn same(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1) && self.2.same(&other.2)
    }
}

/// The arrival-order path: one slide-1 count window per key, one answer
/// per tuple.
fn count_path<O, A>(op: O) -> impl Fn(&ShardedEngine) -> EngineRun<f64>
where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send + Sync,
    O::Partial: Send,
    A: FinalAggregator<O> + Send,
{
    move |engine| {
        let mut source = KeyedVecSource::new(keyed_stream());
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<O, A>::new(op.clone(), WINDOW)
        });
        assert_eq!(run.stats.answers, TUPLES);
        run
    }
}

/// The event-time path over the same stream, stamped with its positions
/// and shuffled within a bound: a tumbling and a sliding time window per
/// key on FiBA trees, answers driven by the router's watermark. Values
/// are rounded to integers: a tree's combine association follows its
/// shape, which follows batch boundaries, so bitwise equality is the
/// exact-stream guarantee (as for snapshot restore).
fn event_path<O>(op: O, disorder: u64) -> impl Fn(&ShardedEngine) -> EngineRun<(usize, u64, f64)>
where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send + Sync,
    O::Partial: Send,
{
    move |engine| {
        let exact = keyed_stream().into_iter().map(|(k, v)| (k, v.round()));
        let mut source =
            DisorderedKeyedSource::new(KeyedVecSource::new(exact.collect()), disorder, 7);
        let run = engine.run_events(&mut source, u64::MAX, None, |_| {
            KeyedEventWindows::new(
                op.clone(),
                vec![TimeWindowSpec::tumbling(64), TimeWindowSpec::new(128, 32)],
            )
        });
        assert_eq!(run.stats.late_tuples, 0, "the source's promise is trusted");
        run
    }
}

/// Per-key answer sequences from one sharded run down `path`.
fn per_key_answers<A: Answer>(
    shards: usize,
    path: &impl Fn(&ShardedEngine) -> EngineRun<A>,
) -> BTreeMap<Key, Vec<A>> {
    let engine = ShardedEngine::new(EngineConfig {
        shards,
        queue_capacity: 4,
        batch: 64,
        retain_answers: true,
        check_invariants: false,
        ..EngineConfig::default()
    });
    let run = path(&engine);
    assert_eq!(run.stats.tuples, TUPLES, "{shards} shards");
    let mut by_key: BTreeMap<Key, Vec<A>> = BTreeMap::new();
    for (key, answer) in run.answers.into_iter().flatten() {
        by_key.entry(key).or_default().push(answer);
    }
    by_key
}

fn assert_shard_count_invariant<A: Answer>(
    path: impl Fn(&ShardedEngine) -> EngineRun<A>,
    name: &str,
) {
    let reference = per_key_answers(SHARD_COUNTS[0], &path);
    assert_eq!(reference.len() as u64, KEYS, "{name}: all keys observed");
    for &shards in &SHARD_COUNTS[1..] {
        let got = per_key_answers(shards, &path);
        assert_eq!(got.len(), reference.len(), "{name} @ {shards} shards");
        for (key, expect) in &reference {
            let answers = &got[key];
            assert_eq!(
                answers.len(),
                expect.len(),
                "{name} key {key} @ {shards} shards"
            );
            for (i, (a, e)) in answers.iter().zip(expect).enumerate() {
                assert!(
                    a.same(e),
                    "{name} key {key} answer {i} @ {shards} shards: {a:?} vs {e:?}"
                );
            }
        }
    }
}

#[test]
fn sum_is_shard_count_invariant() {
    assert_shard_count_invariant(count_path::<_, SlickDequeInv<_>>(Sum::<f64>::new()), "sum");
}

#[test]
fn mean_is_shard_count_invariant() {
    assert_shard_count_invariant(count_path::<_, SlickDequeInv<_>>(Mean::new()), "mean");
}

#[test]
fn stddev_is_shard_count_invariant() {
    assert_shard_count_invariant(count_path::<_, SlickDequeInv<_>>(StdDev::new()), "stddev");
}

#[test]
fn max_is_shard_count_invariant() {
    assert_shard_count_invariant(count_path::<_, SlickDequeNonInv<_>>(MaxF64::new()), "max");
}

#[test]
fn min_is_shard_count_invariant() {
    assert_shard_count_invariant(count_path::<_, SlickDequeNonInv<_>>(MinF64::new()), "min");
}

/// Event time: in order, mildly shuffled, and shuffled across several
/// batches.
fn assert_event_time_invariant<O>(op: O, name: &str)
where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send + Sync,
    O::Partial: Send,
{
    for disorder in [0, 16, 256] {
        assert_shard_count_invariant(event_path(op.clone(), disorder), name);
    }
}

#[test]
fn event_time_sum_is_shard_count_invariant() {
    assert_event_time_invariant(Sum::<f64>::new(), "event sum");
}

#[test]
fn event_time_mean_is_shard_count_invariant() {
    assert_event_time_invariant(Mean::new(), "event mean");
}

#[test]
fn event_time_max_is_shard_count_invariant() {
    assert_event_time_invariant(MaxF64::new(), "event max");
}
