//! Event-time windows against a brute-force oracle.
//!
//! Every answer a [`TimeWindowExec`] emits — from `advance_watermark`,
//! from `finish`, and through [`KeyedEventWindows`] — must equal,
//! bitwise, a direct fold over the accepted tuples in `[end − range,
//! end)`, with the lowered identity for an empty window. And per query
//! the emitted window ends must be every aligned end from the first
//! window a tuple reaches to the last one the watermark passed or the
//! largest tuple lies in, whichever is later.
//!
//! The streams are sparse on purpose: most windows are empty, which is
//! the case the executor answers without a tree query. They start near
//! 0, leave gaps many windows wide, arrive out of order (stragglers
//! stamped exactly on a window end included), and some tuples arrive
//! late and are refused. Two specs with different slides run together:
//! one whose range is not a multiple of its slide, one whose range is
//! shorter than its slide. Values are small integers (or selections), so
//! the tree's reassociated folds are exact.

use std::collections::BTreeMap;
use swag_core::ops::{AggregateOp, MaxF64, Mean, Sum};
use swag_data::keyed::Key;
use swag_data::prng::Xoshiro256StarStar;
use swag_engine::{KeyedEventWindows, ShardProcessor};
use swag_stream::{TimeAnswer, TimeWindowExec, TimeWindowSpec};

/// Range 10 over slide 4, and range 3 over slide 7.
fn specs() -> Vec<TimeWindowSpec> {
    vec![TimeWindowSpec::new(10, 4), TimeWindowSpec::new(3, 7)]
}

/// How far the watermark trails the largest timestamp seen.
const LATENESS: u64 = 12;
const SEEDS: u64 = 40;
const TUPLES: usize = 300;

/// One key's stream in arrival order.
fn sparse_stream(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<(u64, f64)> {
    let specs = specs();
    let mut ts = rng.gen_below(3);
    let mut out: Vec<(u64, f64)> = Vec::with_capacity(n);
    while out.len() < n {
        let value = rng.gen_below(16) as f64;
        if rng.gen_bool(0.15) {
            // A straggler on the last window end at or below the
            // frontier: out of order, on a boundary, and late if the
            // end is below the watermark by the time it arrives.
            let s = specs[rng.gen_below(specs.len() as u64) as usize];
            if ts >= s.range {
                out.push(((ts - s.range) / s.slide * s.slide + s.range, value));
                continue;
            }
        }
        out.push((ts, value));
        ts += match rng.gen_below(10) {
            0 => 40 + rng.gen_below(400),
            1..=3 => 0,
            _ => 1 + rng.gen_below(5),
        };
    }
    // Local disorder: swap neighbours up to 6 apart.
    for i in 0..n {
        let j = (i + rng.gen_below(7) as usize).min(n - 1);
        out.swap(i, j);
    }
    out
}

/// The direct fold over `accepted` in `[end − range, end)`, lowered.
fn fold<O>(op: &O, accepted: &[(u64, f64)], spec: TimeWindowSpec, end: u64) -> f64
where
    O: AggregateOp<Input = f64, Output = f64>,
{
    let start = end - spec.range;
    let part = accepted
        .iter()
        .filter(|&&(ts, _)| start <= ts && ts < end)
        .fold(op.identity(), |acc, (_, v)| op.combine(&acc, &op.lift(v)));
    op.lower(&part)
}

/// Check one stream's answers (emission order, `finish` last) against
/// the oracle; `wm` is the last watermark advanced to.
fn check<O>(op: &O, accepted: &[(u64, f64)], answers: &[TimeAnswer<f64>], wm: u64, what: &str)
where
    O: AggregateOp<Input = f64, Output = f64>,
{
    let specs = specs();
    for &(q, end, got) in answers {
        let want = fold(op, accepted, specs[q], end);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: query {q} window ending {end}: got {got}, oracle {want}"
        );
    }
    let (Some(min), Some(max)) = (
        accepted.iter().map(|a| a.0).min(),
        accepted.iter().map(|a| a.0).max(),
    ) else {
        assert!(answers.is_empty(), "{what}: answers without a tuple");
        return;
    };
    for (q, s) in specs.iter().enumerate() {
        let ends: Vec<u64> = answers.iter().filter(|a| a.0 == q).map(|a| a.1).collect();
        // The first aligned end above the smallest tuple, through the
        // last aligned window holding the largest or, if later, the last
        // end the watermark passed.
        let first = if min < s.range {
            s.range
        } else {
            ((min - s.range) / s.slide + 1) * s.slide + s.range
        };
        let passed = wm
            .checked_sub(s.range)
            .map_or(0, |w| w / s.slide * s.slide + s.range);
        let last = (max / s.slide * s.slide + s.range).max(passed);
        let want: Vec<u64> = (first..=last).step_by(s.slide as usize).collect();
        assert_eq!(ends, want, "{what}: query {q} window ends");
    }
}

/// One executor over one stream: odd chunks through `insert`, even ones
/// through `bulk_insert`, the watermark raised after most chunks.
fn drive_exec<O>(op: O, seed: u64)
where
    O: AggregateOp<Input = f64, Output = f64> + Clone,
{
    let mut rng = Xoshiro256StarStar::new(seed);
    let stream = sparse_stream(&mut rng, TUPLES);
    let mut exec = TimeWindowExec::new(op.clone(), specs());
    let (mut accepted, mut answers) = (Vec::new(), Vec::new());
    let (mut frontier, mut at, mut chunk) = (0u64, 0usize, 0usize);
    while at < stream.len() {
        let len = 1 + rng.gen_below(8) as usize;
        let part = &stream[at..(at + len).min(stream.len())];
        at += part.len();
        chunk += 1;
        let wm = exec.watermark();
        accepted.extend(part.iter().filter(|&&(ts, _)| ts >= wm));
        if chunk % 2 == 1 {
            for (ts, v) in part {
                assert_eq!(exec.insert(*ts, v), *ts >= wm);
            }
        } else {
            let lifted: Vec<_> = part.iter().map(|(ts, v)| (*ts, op.lift(v))).collect();
            let late = part.iter().filter(|&&(ts, _)| ts < wm).count();
            assert_eq!(exec.bulk_insert(&lifted), part.len() - late);
        }
        frontier = part.iter().map(|p| p.0).fold(frontier, u64::max);
        if rng.gen_bool(0.8) {
            answers.extend(exec.advance_watermark(frontier.saturating_sub(LATENESS)));
        }
    }
    let wm = exec.watermark();
    answers.extend(exec.finish());
    assert_eq!(exec.accepted(), accepted.len() as u64);
    check(&op, &accepted, &answers, wm, &format!("seed {seed}"));
}

#[test]
fn executor_answers_equal_a_direct_fold() {
    for seed in 0..SEEDS {
        drive_exec(Sum::<f64>::new(), seed);
        drive_exec(MaxF64::new(), seed);
        drive_exec(Mean::new(), seed);
    }
}

/// Several keys' streams through one processor the way a shard worker
/// drives it: late tuples dropped first, each batch applied one key run
/// at a time, then every key advanced to the batch's watermark.
fn drive_keyed<O>(op: O, seed: u64)
where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send,
    O::Partial: Send,
{
    const KEYS: u64 = 5;
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x5EED);
    let mut streams: Vec<_> = (0..KEYS)
        .map(|_| sparse_stream(&mut rng, TUPLES / 3).into_iter())
        .collect();
    let mut processor = KeyedEventWindows::new(op.clone(), specs());
    let mut accepted: BTreeMap<Key, Vec<(u64, f64)>> = BTreeMap::new();
    let mut out = Vec::new();
    let (mut frontier, mut wm) = (0u64, 0u64);
    loop {
        let mut batch: BTreeMap<Key, Vec<(u64, f64)>> = BTreeMap::new();
        for _ in 0..1 + rng.gen_below(12) {
            let key = rng.gen_below(KEYS);
            let Some((ts, v)) = streams[key as usize].next() else {
                continue;
            };
            if ts >= wm {
                batch.entry(key).or_default().push((ts, v));
                frontier = frontier.max(ts);
            }
        }
        if batch.is_empty() && streams.iter().all(|s| s.len() == 0) {
            break;
        }
        for (&key, run) in &batch {
            processor.process_run(key, run, &mut out);
            accepted.entry(key).or_default().extend(run);
        }
        wm = wm.max(frontier.saturating_sub(LATENESS));
        processor.advance_watermark(wm, &mut out);
    }
    processor.finish(&mut out);
    for (key, tuples) in &accepted {
        let answers: Vec<TimeAnswer<f64>> = out
            .iter()
            .filter(|&&(k, _)| k == *key)
            .map(|&(_, a)| a)
            .collect();
        check(&op, tuples, &answers, wm, &format!("seed {seed} key {key}"));
    }
}

#[test]
fn keyed_event_windows_answers_equal_a_direct_fold() {
    for seed in 0..SEEDS {
        drive_keyed(Sum::<f64>::new(), seed);
        drive_keyed(MaxF64::new(), seed);
        drive_keyed(Mean::new(), seed);
    }
}
