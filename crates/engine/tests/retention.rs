//! Latest-only retention ([`EngineConfig::latest_only`]) keeps what a
//! table of latest answers needs and nothing else.
//!
//! For every shard count and batch size, on the count path (one window
//! per key) and on a two-spec event path, a latest-only run must:
//!
//! * leave the same table of each entry's latest answer as a run that
//!   retains every answer, each run's answers inserted in order;
//! * count every answer, exactly as the full run does;
//! * retain at most keys × queries answers per batch per shard.

use std::collections::HashMap;
use swag_core::algorithms::SlickDequeInv;
use swag_core::ops::Sum;
use swag_data::event::DisorderedKeyedSource;
use swag_data::keyed::{Key, KeyedVecSource};
use swag_data::prng::Xoshiro256StarStar;
use swag_engine::{EngineConfig, EngineRun, KeyedEventWindows, KeyedWindows, ShardedEngine};
use swag_stream::TimeWindowSpec;

const TUPLES: u64 = 5000;
const KEYS: u64 = 23;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const BATCHES: [usize; 3] = [1, 16, 256];

/// Skewed keys, small integer values.
fn keyed_stream() -> Vec<(Key, f64)> {
    let mut rng = Xoshiro256StarStar::new(0x1A7E57);
    (0..TUPLES)
        .map(|_| {
            let r = rng.next_f64();
            let key = ((r * r * KEYS as f64) as Key).min(KEYS - 1);
            (key, rng.gen_below(100) as f64)
        })
        .collect()
}

fn config(shards: usize, batch: usize, latest_only: bool) -> EngineConfig {
    EngineConfig {
        shards,
        batch,
        queue_capacity: 4,
        retain_answers: true,
        latest_only,
        ..EngineConfig::default()
    }
}

/// The checks, given a run of each kind, how an answer updates the
/// table (the entry, and its window end and value bits), and the number
/// of queries per key.
fn compare<A, E: Eq + std::hash::Hash + std::fmt::Debug>(
    full: EngineRun<A>,
    latest: EngineRun<A>,
    entry: impl Fn(&(Key, A)) -> (E, (u64, u64)),
    queries: usize,
    what: &str,
) {
    let table = |run: &EngineRun<A>| {
        let mut table = HashMap::new();
        for answer in run.answers.iter().flatten() {
            let (e, v) = entry(answer);
            table.insert(e, v);
        }
        table
    };
    assert_eq!(table(&full), table(&latest), "{what}: tables differ");
    assert_eq!(full.stats.answers, latest.stats.answers, "{what}: answers");
    let mut retained = 0;
    for (shard, answers) in latest.answers.iter().enumerate() {
        let stats = &latest.stats.shards[shard];
        // One more round of answers when the stream ends: `finish`.
        let bound = (stats.batches as usize + 1) * stats.keys * queries;
        assert!(
            answers.len() <= bound,
            "{what}: shard {shard} retained {} answers, bound {bound}",
            answers.len()
        );
        retained += answers.len() as u64;
    }
    assert!(retained <= latest.stats.answers, "{what}: retained more");
}

#[test]
fn latest_only_runs_publish_the_same_table() {
    for shards in SHARD_COUNTS {
        for batch in BATCHES {
            let what = format!("count, {shards} shards, batch {batch}");
            let count = |latest_only| {
                let engine = ShardedEngine::new(config(shards, batch, latest_only));
                let mut source = KeyedVecSource::new(keyed_stream());
                engine.run(&mut source, u64::MAX, |_| {
                    KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 8)
                })
            };
            let (full, latest) = (count(false), count(true));
            assert_eq!(full.stats.answers, TUPLES, "{what}");
            compare(full, latest, |&(k, v)| (k, (0, v.to_bits())), 1, &what);

            let what = format!("event, {shards} shards, batch {batch}");
            let event = |latest_only| {
                let engine = ShardedEngine::new(config(shards, batch, latest_only));
                let mut source =
                    DisorderedKeyedSource::new(KeyedVecSource::new(keyed_stream()), 48, 5);
                engine.run_events(&mut source, u64::MAX, Some(32), |_| {
                    KeyedEventWindows::new(
                        Sum::<f64>::new(),
                        vec![TimeWindowSpec::tumbling(32), TimeWindowSpec::new(64, 16)],
                    )
                })
            };
            let (full, latest) = (event(false), event(true));
            assert!(full.stats.late_tuples > 0, "{what}: nothing was late");
            let entry = |&(k, (q, end, v)): &(Key, (usize, u64, f64))| ((k, q), (end, v.to_bits()));
            compare(full, latest, entry, 2, &what);
        }
    }
}
