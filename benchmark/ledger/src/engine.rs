//! `engine_keyed`: the sharded engine driven in finite jobs by a resident
//! caller — 2 shards, `KeyedWindows<Sum, SlickDequeInv>`, 64 keys × window
//! 1024, a replayed DEBS-shaped block.
//!
//! Per-key state is carried from job to job through
//! `ShardedEngine::run_collecting` (the body of `run`, which additionally
//! hands the drained processors back — the hook the resident service
//! uses), so every job runs on full windows.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use swag_core::algorithms::SlickDequeInv;
use swag_core::ops::Sum;
use swag_data::Key;
use swag_engine::{EngineConfig, EngineStats, KeyedWindows, ShardedEngine};

use crate::common::{self, HeapMark, Pass};
use crate::replay::{self, ReplayKeyed};
use crate::span::Tracer;
use crate::spec::{ENGINE_BLOCK, ENGINE_JOB, ENGINE_KEYS, ENGINE_SHARDS, ENGINE_WINDOW};
use crate::stats;

/// The per-key aggregation the workload runs.
pub type Windows = KeyedWindows<Sum<f64>, SlickDequeInv<Sum<f64>>>;

/// A fresh processor for one shard.
pub fn fresh_windows() -> Windows {
    KeyedWindows::new(Sum::<f64>::new(), ENGINE_WINDOW)
}

/// The engine plus the per-shard processors parked between jobs.
pub struct Resident {
    engine: ShardedEngine,
    slots: Vec<Option<Windows>>,
    /// Tuples pushed through so far.
    pub tuples: u64,
    /// Answers the engine reported so far.
    pub answers: u64,
}

impl Resident {
    /// An engine of `shards` workers with empty windows.
    pub fn new(shards: usize) -> Self {
        Resident {
            engine: ShardedEngine::new(EngineConfig::with_shards(shards)),
            slots: (0..shards).map(|_| Some(fresh_windows())).collect(),
            tuples: 0,
            answers: 0,
        }
    }

    /// Run one job of `n` tuples to completion; returns its duration and
    /// the engine's statistics for it.
    pub fn job(&mut self, source: &mut ReplayKeyed<'_>, n: u64) -> (Duration, EngineStats) {
        let cell = Mutex::new(std::mem::take(&mut self.slots));
        let started = Instant::now();
        let (run, processors) = self.engine.run_collecting(source.take(n), n, |shard| {
            cell.lock().expect("no worker panicked")[shard]
                .take()
                .expect("one parked processor per shard")
        });
        let took = started.elapsed();
        self.slots = processors.into_iter().map(Some).collect();
        self.tuples += run.stats.tuples;
        self.answers += run.stats.answers;
        (took, run.stats)
    }

    /// The parked processors, in shard order.
    fn processors(&self) -> impl Iterator<Item = &Windows> {
        self.slots.iter().flatten()
    }
}

struct Ready {
    block: Vec<(Key, f64)>,
    resident: Resident,
    /// Job durations, ns; sized before the heap mark.
    jobs: Vec<u64>,
    heap: HeapMark,
}

fn setup(seed: u64, seconds: f64) -> Ready {
    let block = replay::keyed_debs_block(seed, ENGINE_KEYS, ENGINE_BLOCK);
    let jobs = Vec::with_capacity((seconds * 100.0) as usize + 1024);
    let heap = HeapMark::start();
    let mut resident = Resident::new(ENGINE_SHARDS);
    // Warm-up: twice the window for every key, so the timed jobs run in
    // the steady state the paper measures.
    let mut source = ReplayKeyed::new(&block);
    resident.job(&mut source, (2 * ENGINE_WINDOW * ENGINE_KEYS) as u64);
    Ready {
        block,
        resident,
        jobs,
        heap,
    }
}

/// What the engine must hold after `fed` tuples of the endless replay of
/// `block`: per key, how many tuples are in its window and their exact sum
/// (values sit on a dyadic grid, so any association gives the same bits).
fn oracle(block: &[(Key, f64)], fed: u64, window: usize) -> Vec<(Key, usize, f64)> {
    let mut tails: std::collections::BTreeMap<Key, VecDeque<f64>> = Default::default();
    let keys: std::collections::BTreeSet<Key> = block.iter().map(|t| t.0).collect();
    let mut full = 0usize;
    // Walk the stream backwards until every key's window is full (or the
    // stream's start is reached).
    let mut i = fed;
    while i > 0 && full < keys.len() {
        i -= 1;
        let (key, value) = block[(i % block.len() as u64) as usize];
        let tail = tails.entry(key).or_default();
        if tail.len() < window {
            tail.push_front(value);
            if tail.len() == window {
                full += 1;
            }
        }
    }
    tails
        .into_iter()
        .map(|(key, tail)| (key, tail.len(), tail.iter().sum()))
        .collect()
}

/// Compare the parked processors with the oracle; returns the number of
/// keys that differ.
fn check(resident: &Resident, block: &[(Key, f64)]) -> (u64, Vec<String>) {
    use swag_core::aggregator::FinalAggregator;
    let mut wrong = 0u64;
    let mut notes = Vec::new();
    let expect = oracle(block, resident.tuples, ENGINE_WINDOW);
    let held: usize = resident
        .processors()
        .map(|p| {
            use swag_engine::ShardProcessor;
            p.keys()
        })
        .sum();
    if held != expect.len() {
        wrong += 1;
        notes.push(format!("engine holds {held} keys, oracle {}", expect.len()));
    }
    for (key, len, sum) in expect {
        let state = resident.processors().find_map(|p| p.state(key));
        let ok =
            state.is_some_and(|agg| agg.len() == len && agg.query().to_bits() == sum.to_bits());
        if !ok {
            wrong += 1;
            notes.push(format!("key {key}: final window differs from the oracle"));
        }
    }
    if resident.answers != resident.tuples {
        wrong += 1;
        notes.push(format!(
            "{} answers for {} tuples",
            resident.answers, resident.tuples
        ));
    }
    (wrong, notes)
}

/// Run the workload: `setups` set-ups (the last one is measured), then
/// jobs of [`ENGINE_JOB`] tuples for `seconds`. A job's duration is both
/// readings: its rate (the median job's is `tuples_per_s`) and, as the
/// time from submitting a finite keyed job to its answers being final,
/// its answer latency.
pub fn run(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> Pass {
    let (mut ready, setup_s) = common::timed_setups(setups, || setup(seed, seconds));
    let Ready {
        block,
        resident,
        jobs,
        heap,
    } = &mut ready;
    // The warm-up consumed the head of the stream; continue after it.
    let mut source = ReplayKeyed::starting_at(block, resident.tuples);

    let root = tracer.open("engine_keyed", None);
    let cpu_before = common::cpu_ns();
    let warm = resident.tuples;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let last = loop {
        let start_ns = tracer.now_ns();
        let (took, stats) = resident.job(&mut source, ENGINE_JOB);
        tracer.record_elapsed("engine.shard.run", root, start_ns, took);
        if jobs.len() < jobs.capacity() {
            jobs.push(took.as_nanos() as u64);
        }
        if Instant::now() >= deadline {
            break stats;
        }
    };
    let extra = std::collections::BTreeMap::from([
        ("engine.shard.tuples_per_batch", last.tuples_per_batch()),
        (
            "engine.shard.max_queue_depth",
            last.max_queue_depth() as f64,
        ),
        ("engine.shard.skew", last.skew()),
    ]);
    let cpu_ns = common::cpu_ns() - cpu_before;
    let peak_heap_mb = heap.peak_mb();
    tracer.close(root);

    let attempted = resident.tuples - warm;
    let (failed, notes) = check(resident, block);
    jobs.sort_unstable();
    let median_job_ns = stats::percentile_sorted(jobs, 0.5) as f64;
    Pass {
        setup_s,
        tuples_per_s: ENGINE_JOB as f64 * 1e9 / median_job_ns,
        latency: stats::summarize(jobs),
        peak_heap_mb,
        attempted,
        failed,
        correct: failed == 0,
        cpu_ns_per_tuple: cpu_ns as f64 / attempted as f64,
        extra,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_sums_the_last_window_per_key() {
        let block = vec![(1, 1.0), (2, 10.0), (1, 2.0), (1, 4.0)];
        // Two passes over the block, window 3: key 1 saw 1,2,4,1,2,4.
        let got = oracle(&block, 8, 3);
        assert_eq!(got, vec![(1, 3, 7.0), (2, 2, 20.0)]);
        // Mid-pass: after 5 tuples key 1 saw 1,2,4,1 and key 2 one tuple.
        assert_eq!(oracle(&block, 5, 3), vec![(1, 3, 7.0), (2, 1, 10.0)]);
    }

    #[test]
    fn resident_jobs_match_the_oracle_across_job_boundaries() {
        let block = replay::keyed_debs_block(5, 8, 4096);
        let mut resident = Resident::new(2);
        let mut source = ReplayKeyed::new(&block);
        for n in [1000, 37, 5000, 1] {
            resident.job(&mut source, n);
        }
        assert_eq!(resident.tuples, 6038);
        let (wrong, notes) = check(&resident, &block);
        assert_eq!(wrong, 0, "{notes:?}");
    }
}
