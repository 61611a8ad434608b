//! Parked keys and counted runs against full retention.
//!
//! A worker that keeps only each entry's latest answer (or none) closes
//! a key's run of windows with one answer and a count, and parks a key
//! whose tree is empty until its next tuple. Parked keys are caught up
//! at every barrier, at the end of the stream and when the queue
//! closes. So at every barrier a latest-only run, a run that retains
//! nothing and a run that retains every answer must agree on:
//!
//! * the answers counted;
//! * the table of each `(key, query)`'s latest answer, bitwise (the
//!   first two against each other);
//! * every key's saved executor state, bitwise.
//!
//! Keys here are awake one phase in five and quiet for the other four —
//! some 1500 slides — so most keys are parked at any time. Tuples come
//! slightly out of order, some stamped on window ends, some late.

use std::collections::{BTreeMap, HashMap};

use swag_core::ops::Sum;
use swag_core::state::StateWriter;
use swag_data::event::KeyedVecEventSource;
use swag_data::keyed::Key;
use swag_data::prng::Xoshiro256StarStar;
use swag_engine::{EngineConfig, EngineRun, KeyedEventWindows, ResidentEngine, ShardedEngine};
use swag_stream::TimeWindowSpec;

type Proc = KeyedEventWindows<Sum<f64>>;
type Answer = (usize, u64, f64);

const TUPLES: usize = 3000;
const KEYS: u64 = 25;
/// Keys `k` with `k % 5 == (ts / PHASE) % 5` are awake.
const PHASE: u64 = 1500;
const LATENESS: u64 = 12;
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const BATCHES: [usize; 3] = [1, 16, 256];
const BARRIER_EVERY: [usize; 3] = [1, 3, 17];

/// Range 10 over slide 4, and range 3 over slide 7.
fn specs() -> Vec<TimeWindowSpec> {
    vec![TimeWindowSpec::new(10, 4), TimeWindowSpec::new(3, 7)]
}

fn fresh() -> Proc {
    KeyedEventWindows::new(Sum::<f64>::new(), specs())
}

fn events() -> Vec<(Key, u64, f64)> {
    let specs = specs();
    let mut rng = Xoshiro256StarStar::new(0x9A4_4ED);
    let mut ts = 0u64;
    let mut out = Vec::with_capacity(TUPLES);
    while out.len() < TUPLES {
        let key = (ts / PHASE) % 5 + 5 * rng.gen_below(KEYS / 5);
        let at = match rng.gen_below(10) {
            // A straggler on a window end at or below the frontier.
            0 => {
                let s = specs[rng.gen_below(2) as usize];
                ts.checked_sub(s.range)
                    .map_or(ts, |t| t / s.slide * s.slide + s.range)
            }
            // Displaced, late past the lateness bound now and then.
            1 => ts.saturating_sub(rng.gen_below(30)),
            _ => ts,
        };
        out.push((key, at, rng.gen_below(16) as f64));
        ts += match rng.gen_below(10) {
            0 => 20 + rng.gen_below(200),
            1..=3 => 0,
            _ => 1 + rng.gen_below(4),
        };
    }
    out
}

fn config(shards: usize, batch: usize, retain_answers: bool, latest_only: bool) -> EngineConfig {
    EngineConfig {
        shards,
        batch,
        queue_capacity: 4,
        retain_answers,
        latest_only,
        check_invariants: true,
        ..EngineConfig::default()
    }
}

/// Every key's saved executor, by key: state words and partial bits.
type Saved = BTreeMap<Key, (Vec<u64>, Vec<u64>)>;

fn saved(processors: &[Proc]) -> Saved {
    let mut keys = Saved::new();
    for (key, exec) in processors.iter().flat_map(|p| p.states()) {
        let mut w = StateWriter::new();
        exec.save_state(&mut w);
        let (words, partials) = w.into_parts();
        keys.insert(key, (words, partials.iter().map(|p| p.to_bits()).collect()));
    }
    keys
}

/// Each `(key, query)`'s latest `(window end, value bits)`.
type Table = HashMap<(Key, usize), (u64, u64)>;

fn publish(table: &mut Table, run: &EngineRun<Answer>) {
    for &(key, (q, end, value)) in run.answers.iter().flatten() {
        table.insert((key, q), (end, value.to_bits()));
    }
}

/// One engine under test, its source and what it has published.
struct Side<'s> {
    engine: ResidentEngine<'s, Proc>,
    source: KeyedVecEventSource,
    table: Table,
}

#[test]
fn every_barrier_agrees_with_full_retention() {
    let events = events();
    for shards in SHARD_COUNTS {
        for batch in BATCHES {
            for every in BARRIER_EVERY {
                let what = format!("{shards} shards, batch {batch}, barrier every {every}");
                let late = std::thread::scope(|scope| {
                    let mut sides: Vec<Side> = [(true, false), (true, true), (false, false)]
                        .into_iter()
                        .map(|(retain, latest)| Side {
                            engine: ResidentEngine::start_events(
                                scope,
                                &config(shards, batch, retain, latest),
                                Some(LATENESS),
                                |_| fresh(),
                            ),
                            source: KeyedVecEventSource::new(events.clone(), u64::MAX),
                            table: Table::new(),
                        })
                        .collect();
                    let mut cycle = 0;
                    loop {
                        let want = (every * batch) as u64;
                        let mut cut = Vec::new();
                        for side in &mut sides {
                            let routed = side.engine.route_events(&mut side.source, want);
                            let (run, state) =
                                side.engine.barrier_with(|p| saved(std::slice::from_ref(p)));
                            publish(&mut side.table, run);
                            cut.push((routed, run.stats.answers, state));
                        }
                        let at = format!("{what}, cycle {cycle}");
                        let (full, latest, nothing) = (&cut[0], &cut[1], &cut[2]);
                        assert_eq!(full.1, latest.1, "{at}: latest-only answers");
                        assert_eq!(full.1, nothing.1, "{at}: retain-nothing answers");
                        assert!(full.2 == latest.2, "{at}: latest-only state");
                        assert!(full.2 == nothing.2, "{at}: retain-nothing state");
                        assert_eq!(sides[0].table, sides[1].table, "{at}: tables");
                        if full.0 < want {
                            break;
                        }
                        cycle += 1;
                    }
                    let mut late = 0;
                    for side in sides {
                        let (run, _) = side.engine.stop(true);
                        late = run.stats.late_tuples;
                    }
                    late
                });
                assert!(late > 0, "{what}: nothing was late");
            }
        }
    }
}

/// A paused run hands its processors back caught up: a restart from
/// them counts and ends exactly as one from fully retained processors.
#[test]
fn a_paused_run_hands_back_settled_processors() {
    let events = events();
    for shards in SHARD_COUNTS {
        for batch in BATCHES {
            let what = format!("{shards} shards, batch {batch}");
            let run = |retain, latest| {
                let config = config(shards, batch, retain, latest);
                let mut source = KeyedVecEventSource::new(events.clone(), u64::MAX);
                let (first, processors) = ShardedEngine::new(config.clone()).run_events_collecting(
                    &mut source,
                    TUPLES as u64 / 2,
                    Some(LATENESS),
                    |_| fresh(),
                );
                let paused = saved(&processors);
                let (rest, ended) = std::thread::scope(|scope| {
                    let mut processors = processors.into_iter();
                    let mut engine =
                        ResidentEngine::start_events(scope, &config, Some(LATENESS), |_| {
                            processors.next().expect("one processor per shard")
                        });
                    engine.route_events(&mut source, u64::MAX);
                    engine.stop(true)
                });
                let mut table = Table::new();
                publish(&mut table, &first);
                publish(&mut table, &rest);
                let counts = (first.stats.answers, rest.stats.answers);
                (counts, paused, saved(&ended), table)
            };
            let full = run(true, false);
            for (retain, latest) in [(true, true), (false, false)] {
                let other = run(retain, latest);
                let kind = format!("{what}, retain {retain}, latest {latest}");
                assert_eq!(
                    full.0, other.0,
                    "{kind}: answers before and after the pause"
                );
                assert!(full.1 == other.1, "{kind}: paused state");
                assert!(full.2 == other.2, "{kind}: final state");
                if retain {
                    assert_eq!(full.3, other.3, "{kind}: tables");
                }
            }
        }
    }
}
