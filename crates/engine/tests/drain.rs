//! Several batches per drain: a worker takes queued batches four at a
//! time (fewer only ahead of a barrier or the end), groups them once and
//! applies their highest watermark once — and that changes no answer.
//!
//! The test processor wraps a real one and, in its first `process_slot`,
//! waits until the router has pulled enough tuples to queue at least
//! four more batches behind the drain in hand, as they pile up behind a
//! worker that is behind. The stretches end in barriers that cut a drain
//! short. Against an oracle that runs the same processor a batch at a
//! time, on one shard:
//!
//! * count path: every key's answers, bitwise and in order, and the
//!   answer count;
//! * event path, latest-only: the table of each entry's latest answer,
//!   the closed-window count and the late drops;
//! * every watermark advance comes after all the tuples of the batches
//!   it was stamped on, with the stamp of the last of them;
//! * a barrier queued behind the batches reports exactly the batches
//!   and tuples routed before it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use swag_core::algorithms::SlickDequeInv;
use swag_core::ops::Sum;
use swag_data::event::KeyedEventSource;
use swag_data::keyed::{Key, KeyedSource};
use swag_data::prng::Xoshiro256StarStar;
use swag_engine::{
    EngineConfig, EngineRun, KeyedEventWindows, KeyedWindows, ResidentEngine, ShardProcessor,
};
use swag_stream::TimeWindowSpec;

const BATCH: usize = 6;
const KEYS: u64 = 3;
/// Batches in the first stretch, before the first barrier.
const FIRST: usize = 10;
const TUPLES: usize = 40 * BATCH;
/// The stalled first slide waits for this many pulled tuples: five full
/// batches routed, so four are queued behind the one in hand.
const STALL_UNTIL: u64 = 6 * BATCH as u64;
const LATENESS: u64 = 24;

fn config(latest_only: bool) -> EngineConfig {
    EngineConfig {
        shards: 1,
        batch: BATCH,
        queue_capacity: 16,
        retain_answers: true,
        latest_only,
        ..EngineConfig::default()
    }
}

/// A processor that stalls in its first slide until the router has
/// pulled `until` tuples, and records what it is handed.
struct Stall<'a, P> {
    inner: P,
    pulled: &'a AtomicU64,
    until: u64,
    /// Tuples processed so far.
    processed: u64,
    /// The longest run one `process_slot` was handed.
    longest_run: usize,
    /// `(tuples processed, watermark)` at every advance.
    advances: Vec<(u64, u64)>,
}

impl<'a, P> Stall<'a, P> {
    fn new(inner: P, pulled: &'a AtomicU64) -> Self {
        Stall {
            inner,
            pulled,
            until: STALL_UNTIL,
            processed: 0,
            longest_run: 0,
            advances: Vec::new(),
        }
    }
}

impl<P: ShardProcessor> ShardProcessor for Stall<'_, P> {
    type Value = P::Value;
    type Answer = P::Answer;

    fn open_slot(&mut self, key: Key) -> usize {
        self.inner.open_slot(key)
    }

    fn process_slot(&mut self, slot: usize, values: &[P::Value], out: &mut Vec<(Key, P::Answer)>) {
        if self.until > 0 {
            let deadline = Instant::now() + Duration::from_secs(30);
            while self.pulled.load(Ordering::SeqCst) < self.until {
                assert!(
                    Instant::now() < deadline,
                    "the router never queued the batches"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            self.until = 0;
        }
        self.processed += values.len() as u64;
        self.longest_run = self.longest_run.max(values.len());
        self.inner.process_slot(slot, values, out);
    }

    fn advance_watermark(&mut self, watermark: u64, out: &mut Vec<(Key, P::Answer)>) {
        self.advances.push((self.processed, watermark));
        self.inner.advance_watermark(watermark, out);
    }

    fn advance_latest(&mut self, watermark: u64, out: &mut Vec<(Key, P::Answer)>) -> u64 {
        self.advances.push((self.processed, watermark));
        self.inner.advance_latest(watermark, out)
    }

    fn settle(&mut self, out: &mut Vec<(Key, P::Answer)>) -> u64 {
        self.inner.settle(out)
    }

    fn finish(&mut self, out: &mut Vec<(Key, P::Answer)>) {
        self.inner.finish(out);
    }

    fn same_entry(a: &P::Answer, b: &P::Answer) -> bool {
        P::same_entry(a, b)
    }

    fn max_ts(&self) -> Option<u64> {
        self.inner.max_ts()
    }

    fn keys(&self) -> usize {
        self.inner.keys()
    }
}

/// A replayed stream that counts the tuples the router pulls from it.
struct Counted<'a, T> {
    tuples: std::slice::Iter<'a, T>,
    pulled: &'a AtomicU64,
}

impl<T: Copy> Counted<'_, T> {
    fn pull(&mut self) -> Option<T> {
        let next = self.tuples.next().copied();
        self.pulled
            .fetch_add(next.is_some() as u64, Ordering::SeqCst);
        next
    }
}

impl KeyedSource for Counted<'_, (Key, f64)> {
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        self.pull()
    }
}

impl KeyedEventSource for Counted<'_, (Key, u64, f64)> {
    fn next_event(&mut self) -> Option<(Key, u64, f64)> {
        self.pull()
    }

    fn low_watermark(&self) -> u64 {
        0
    }
}

/// Run `batch` through `processor` as the worker did before drains: one
/// run per key, keys in the order of their first tuple.
fn process_batch<P: ShardProcessor>(
    processor: &mut P,
    batch: &[(Key, P::Value)],
    out: &mut Vec<(Key, P::Answer)>,
) {
    let mut keys: Vec<Key> = Vec::new();
    for &(key, _) in batch {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for key in keys {
        let run: Vec<P::Value> = (batch.iter())
            .filter(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .collect();
        processor.process_run(key, &run, out);
    }
}

/// Each key's answers, in order.
fn per_key<A: Copy>(answers: impl IntoIterator<Item = (Key, A)>) -> HashMap<Key, Vec<A>> {
    let mut keys: HashMap<Key, Vec<A>> = HashMap::new();
    for (key, answer) in answers {
        keys.entry(key).or_default().push(answer);
    }
    keys
}

/// Take a stretch's retained answers out of `cut`.
fn take_answers<A>(cut: &mut EngineRun<A>, into: &mut Vec<(Key, A)>) {
    for shard in &mut cut.answers {
        into.append(shard);
    }
}

#[test]
fn a_drain_answers_as_batch_at_a_time_on_the_count_path() {
    let stream: Vec<(Key, f64)> = (0..TUPLES as u64)
        .map(|i| (i % KEYS, ((i * 7) % 13) as f64))
        .collect();
    let windows = || KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 8);
    let pulled = AtomicU64::new(0);
    let mut answers = Vec::new();
    let (run, mut processors) = std::thread::scope(|scope| {
        let mut engine =
            ResidentEngine::start(scope, &config(false), |_| Stall::new(windows(), &pulled));
        let (head, tail) = stream.split_at(FIRST * BATCH);
        for (stretch, batches) in [(head, FIRST), (tail, (TUPLES - FIRST * BATCH) / BATCH)] {
            let mut source = Counted {
                tuples: stretch.iter(),
                pulled: &pulled,
            };
            engine.route_keyed(&mut source, u64::MAX);
            let cut = engine.barrier();
            assert_eq!(
                cut.stats.batches, batches as u64,
                "batches before the barrier"
            );
            assert_eq!(cut.stats.tuples, stretch.len() as u64);
            take_answers(cut, &mut answers);
        }
        engine.stop(true)
    });
    answers.extend(run.answers.into_iter().flatten());
    let stall = processors.pop().expect("one shard");
    assert!(
        stall.longest_run > BATCH / KEYS as usize,
        "no drain took several batches: longest run {}",
        stall.longest_run
    );

    let mut oracle = windows();
    let mut want = Vec::new();
    for batch in stream.chunks(BATCH) {
        process_batch(&mut oracle, batch, &mut want);
    }
    assert_eq!(run.stats.answers, want.len() as u64, "answers counted");
    let bits =
        |answers: Vec<(Key, f64)>| per_key(answers.into_iter().map(|(k, v)| (k, v.to_bits())));
    assert_eq!(bits(answers), bits(want), "per-key answers");
}

/// One stretch's batches: each one's watermark stamp and tuples.
type Stretch = Vec<(u64, Vec<(Key, (u64, f64))>)>;

/// What the router does with `events`: admit or drop each under the
/// lateness rule, batch the admitted ones and stamp each batch with the
/// watermark at its flush; a barrier or the end flushes the partial batch
/// and broadcasts the watermark in an empty one. Returns the batches of
/// each stretch cut at `cuts`, and the late drops.
fn route_like_the_router(events: &[(Key, u64, f64)], cuts: &[usize]) -> (Vec<Stretch>, u64) {
    let (mut watermark, mut max_ts, mut late) = (0u64, None::<u64>, 0);
    let mut stretches = Vec::new();
    let mut start = 0;
    for &end in cuts {
        let mut batches = Vec::new();
        let mut open = Vec::new();
        for &(key, ts, value) in &events[start..end] {
            watermark = watermark.max(max_ts.map_or(0, |m| m.saturating_sub(LATENESS)));
            if ts < watermark {
                late += 1;
                continue;
            }
            max_ts = Some(max_ts.map_or(ts, |m| m.max(ts)));
            open.push((key, (ts, value)));
            if open.len() == BATCH {
                batches.push((watermark, std::mem::take(&mut open)));
            }
        }
        watermark = watermark.max(max_ts.map_or(0, |m| m.saturating_sub(LATENESS)));
        if !open.is_empty() {
            batches.push((watermark, open));
        }
        batches.push((watermark, Vec::new()));
        stretches.push(batches);
        start = end;
    }
    (stretches, late)
}

#[test]
fn a_drain_applies_its_watermark_once_after_its_tuples_on_the_event_path() {
    // Timestamps rising by 2 on average, some displaced far enough back
    // to be late.
    let mut rng = Xoshiro256StarStar::new(0xD2A1);
    let events: Vec<(Key, u64, f64)> = (0..TUPLES as u64)
        .map(|i| {
            let back = if rng.gen_below(8) == 0 {
                40
            } else {
                rng.gen_below(6)
            };
            (
                i % KEYS,
                (2 * i + 40).saturating_sub(back),
                rng.gen_below(50) as f64,
            )
        })
        .collect();
    let specs = vec![TimeWindowSpec::tumbling(16), TimeWindowSpec::new(32, 8)];
    let windows = || KeyedEventWindows::new(Sum::<f64>::new(), specs.clone());
    let cut = FIRST * BATCH;
    let (stretches, late) = route_like_the_router(&events, &[cut, TUPLES]);

    let pulled = AtomicU64::new(0);
    let mut answers = Vec::new();
    let (run, mut processors) = std::thread::scope(|scope| {
        let mut engine = ResidentEngine::start_events(scope, &config(true), Some(LATENESS), |_| {
            Stall::new(windows(), &pulled)
        });
        for (stretch, batches) in [&events[..cut], &events[cut..]].into_iter().zip(&stretches) {
            let mut source = Counted {
                tuples: stretch.iter(),
                pulled: &pulled,
            };
            engine.route_events(&mut source, u64::MAX);
            let cut = engine.barrier();
            assert_eq!(
                cut.stats.batches,
                batches.len() as u64,
                "batches before the barrier"
            );
            let admitted: usize = batches.iter().map(|(_, b)| b.len()).sum();
            assert_eq!(cut.stats.tuples, admitted as u64);
            take_answers(cut, &mut answers);
        }
        engine.stop(true)
    });
    let stall = processors.pop().expect("one shard");

    // The oracle: each batch's tuples, then its watermark, then the end.
    let mut oracle = windows();
    let mut want = Vec::new();
    let mut boundaries = Vec::new();
    let mut processed = 0u64;
    for (watermark, batch) in stretches.iter().flatten() {
        process_batch(&mut oracle, batch, &mut want);
        processed += batch.len() as u64;
        oracle.advance_watermark(*watermark, &mut want);
        boundaries.push((processed, *watermark));
    }
    oracle.finish(&mut want);

    assert_eq!(run.stats.late_tuples, late, "late drops");
    assert!(late > 0, "nothing was late");
    assert_eq!(
        run.stats.answers,
        want.len() as u64,
        "closed windows counted"
    );
    let table = |answers: &[(Key, (usize, u64, f64))]| {
        let entries = answers
            .iter()
            .map(|&(k, (q, end, v))| ((k, q), (end, v.to_bits())));
        entries.collect::<HashMap<_, _>>()
    };
    answers.extend(run.answers.into_iter().flatten());
    assert_eq!(table(&answers), table(&want), "latest answers");

    // Every advance sits on a batch boundary with that batch's stamp: it
    // came after all the tuples of the batches it closes, and at least
    // one came after several batches' tuples at once.
    let mut since = 0;
    let mut widest = 0;
    for &(processed, watermark) in &stall.advances {
        assert!(
            boundaries.contains(&(processed, watermark)),
            "advance to {watermark} after {processed} tuples is off every batch boundary"
        );
        widest = widest.max(processed - since);
        since = processed;
    }
    assert!(
        widest > BATCH as u64,
        "no advance followed more than one batch: widest {widest}"
    );
    assert!(stall.advances.len() < boundaries.len());
    assert_eq!(stall.inner.keys(), KEYS as usize);
}
