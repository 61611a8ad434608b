//! Out-of-order ingestion experiment (extension beyond the paper).
//!
//! Sweeps disorder bound × channel batch size over keyed streams for the
//! two ways the workspace can absorb out-of-order input:
//!
//! * **`fiba`** — the engine's event-time path: tuples flow disordered
//!   straight into a [`FingerBTree`]-backed [`KeyedEventWindows`], and
//!   watermarks drive emission ([`ShardedEngine::run_events`]).
//! * **`reorder-slickdeque`** — the classic recipe: a reorder stage
//!   buffers `disorder + 1` tuples and releases them fully sorted, then
//!   the paper's in-order SlickDeque (Inv) aggregates count windows on
//!   the arrival-order path ([`ShardedEngine::run`]).
//!
//! The two front-ends answer on different cadences (time-window slides
//! vs. per-tuple), so the comparison is of *ingestion throughput* — how
//! fast each front-end can absorb the same disordered stream — not of
//! answer-for-answer cost. Disorder 0 isolates the data-structure
//! overhead: both paths then see a fully ordered stream.

use crate::report::save_json;
use crate::Config;
use slickdeque::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use swag_metrics::{Json, ToJson};

/// Event-time window range, in timestamps (= stream positions here).
pub const OOO_RANGE: u64 = 128;

/// Event-time window slide; the count-window baseline answers per tuple.
pub const OOO_SLIDE: u64 = 32;

/// Distinct keys.
pub const OOO_KEYS: usize = 8;

/// The disorder bounds swept: in-order, mild, and heavy displacement.
pub const OOO_DISORDERS: &[u64] = &[0, 16, 256];

/// The channel batch sizes swept, scalar baseline first.
pub const OOO_BATCHES: &[usize] = &[1, 64, 512];

/// The front-ends compared.
pub const OOO_FRONTENDS: &[&str] = &["fiba", "reorder-slickdeque"];

/// One (front-end, disorder, batch) measurement.
#[derive(Debug, Clone)]
pub struct OooRow {
    /// Front-end name (`fiba` or `reorder-slickdeque`).
    pub frontend: String,
    /// Maximum tuple displacement in the input stream.
    pub disorder: u64,
    /// Tuples per channel message.
    pub batch: usize,
    /// End-to-end keyed tuples per second.
    pub tuples_per_sec: f64,
}

/// The out-of-order sweep: throughput per front-end × disorder × batch.
#[derive(Debug, Clone)]
pub struct OooTable {
    /// Experiment identifier.
    pub id: String,
    /// Tuples routed per measurement.
    pub tuples: u64,
    /// Distinct keys in the stream.
    pub keys: usize,
    /// Event-time window range.
    pub range: u64,
    /// Event-time window slide.
    pub slide: u64,
    /// One row per (front-end, disorder, batch).
    pub rows: Vec<OooRow>,
}

impl OooTable {
    /// Print as an aligned console table.
    pub fn print(&self) {
        println!(
            "\n== Out-of-order ingestion — {} tuples, {} keys, range {} slide {} ==",
            self.tuples, self.keys, self.range, self.slide
        );
        println!(
            "{:>20} {:>9} {:>7} {:>14}",
            "frontend", "disorder", "batch", "tuples/s"
        );
        for r in &self.rows {
            println!(
                "{:>20} {:>9} {:>7} {:>14.3e}",
                r.frontend, r.disorder, r.batch, r.tuples_per_sec
            );
        }
    }

    /// Write as JSON to `dir/ooo.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        save_json(dir, &self.id, &self.to_json())
    }

    /// The row for one (front-end, disorder, batch) point.
    pub fn get(&self, frontend: &str, disorder: u64, batch: usize) -> Option<&OooRow> {
        self.rows
            .iter()
            .find(|r| r.frontend == frontend && r.disorder == disorder && r.batch == batch)
    }
}

impl ToJson for OooTable {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(self.id.as_str())),
            ("tuples", Json::UInt(self.tuples)),
            ("keys", Json::UInt(self.keys as u64)),
            ("range", Json::UInt(self.range)),
            ("slide", Json::UInt(self.slide)),
            (
                "rows",
                Json::arr(&self.rows, |r| {
                    Json::obj(vec![
                        ("frontend", Json::str(r.frontend.as_str())),
                        ("disorder", Json::UInt(r.disorder)),
                        ("batch", Json::UInt(r.batch as u64)),
                        ("tuples_per_sec", Json::Num(r.tuples_per_sec)),
                    ])
                }),
            ),
        ])
    }
}

/// Restores timestamp order in front of the arrival-order engine: holds
/// `disorder + 1` pending tuples in a min-heap by timestamp and releases
/// the minimum once full. Because the disordered stream displaces each
/// tuple by at most `disorder` positions, the true next timestamp is
/// always within the buffer, so the release order is an exact sort —
/// the keyed sibling of the executor's `ReorderBuffer`.
struct ReorderFrontEnd<S> {
    inner: DisorderedKeyedSource<S>,
    /// Pending `(ts, key, value bits)`; timestamps are unique positions.
    pending: BinaryHeap<Reverse<(u64, Key, u64)>>,
}

impl<S: KeyedSource> ReorderFrontEnd<S> {
    fn new(inner: DisorderedKeyedSource<S>) -> Self {
        ReorderFrontEnd {
            inner,
            pending: BinaryHeap::new(),
        }
    }
}

impl<S: KeyedSource> KeyedSource for ReorderFrontEnd<S> {
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        let depth = self.inner.disorder() as usize;
        while self.pending.len() <= depth {
            match self.inner.next_event() {
                Some((key, ts, v)) => self.pending.push(Reverse((ts, key, v.to_bits()))),
                None => break,
            }
        }
        let Reverse((_, key, bits)) = self.pending.pop()?;
        Some((key, f64::from_bits(bits)))
    }
}

fn engine(batch: usize) -> ShardedEngine {
    ShardedEngine::new(EngineConfig {
        shards: 1,
        queue_capacity: 64,
        batch,
        retain_answers: false,
        check_invariants: false,
        ..EngineConfig::default()
    })
}

/// One event-path run: the disordered stream feeds FiBA-backed time
/// windows directly; the source's watermark promise means nothing drops.
fn measure_fiba(disorder: u64, batch: usize, tuples: u64, seed: u64) -> f64 {
    let mut source =
        DisorderedKeyedSource::new(KeyedDebsSource::new(seed, OOO_KEYS, 0), disorder, seed);
    let run = engine(batch).run_events(&mut source, tuples, None, |_shard| {
        KeyedEventWindows::new(
            Sum::<f64>::new(),
            vec![TimeWindowSpec::new(OOO_RANGE, OOO_SLIDE)],
        )
    });
    run.stats.tuples_per_sec()
}

/// One baseline run: the same disordered stream, sorted back into
/// timestamp order by the reorder stage, feeding the paper's in-order
/// SlickDeque (Inv) on the arrival-order engine path.
fn measure_reorder(disorder: u64, batch: usize, tuples: u64, seed: u64) -> f64 {
    let mut source = ReorderFrontEnd::new(DisorderedKeyedSource::new(
        KeyedDebsSource::new(seed, OOO_KEYS, 0),
        disorder,
        seed,
    ));
    let run = engine(batch).run(&mut source, tuples, |_shard| {
        KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), OOO_RANGE as usize)
    });
    run.stats.tuples_per_sec()
}

fn throughput(frontend: &str, disorder: u64, batch: usize, tuples: u64, seed: u64) -> f64 {
    match frontend {
        "fiba" => measure_fiba(disorder, batch, tuples, seed),
        "reorder-slickdeque" => measure_reorder(disorder, batch, tuples, seed),
        other => unreachable!("unknown ooo frontend {other:?}"),
    }
}

/// Run the sweep: front-end × disorder {0, 16, 256} × batch {1, 64, 512}.
pub fn run(cfg: &Config) -> OooTable {
    let tuples = cfg.latency_tuples as u64;
    let mut rows = Vec::new();
    for frontend in OOO_FRONTENDS {
        for &disorder in OOO_DISORDERS {
            for &batch in OOO_BATCHES {
                rows.push(OooRow {
                    frontend: frontend.to_string(),
                    disorder,
                    batch,
                    tuples_per_sec: throughput(frontend, disorder, batch, tuples, cfg.seed),
                });
            }
        }
    }
    OooTable {
        id: "ooo".to_string(),
        tuples,
        keys: OOO_KEYS,
        range: OOO_RANGE,
        slide: OOO_SLIDE,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_frontend_disorder_and_batch() {
        let mut cfg = Config::quick();
        cfg.latency_tuples = 5_000;
        let t = run(&cfg);
        assert_eq!(
            t.rows.len(),
            OOO_FRONTENDS.len() * OOO_DISORDERS.len() * OOO_BATCHES.len()
        );
        for frontend in OOO_FRONTENDS {
            for &disorder in OOO_DISORDERS {
                for &batch in OOO_BATCHES {
                    let row = t.get(frontend, disorder, batch).expect("row present");
                    assert!(
                        row.tuples_per_sec > 0.0,
                        "{frontend} disorder {disorder} batch {batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn reorder_front_end_restores_timestamp_order() {
        let inner = DisorderedKeyedSource::new(KeyedDebsSource::new(3, OOO_KEYS, 0), 64, 3);
        let mut src = ReorderFrontEnd::new(inner);
        // DisorderedKeyedSource stamps the stream position as the value's
        // timestamp; once re-sorted, the positions come back 0, 1, 2, …
        // which we can observe through the key cycle repeating exactly.
        let mut reference = KeyedDebsSource::new(3, OOO_KEYS, 0);
        for i in 0..2_000 {
            let (key, v) = src.next_tuple().expect("tuple");
            let (rkey, rv) = reference.next_tuple().expect("tuple");
            assert_eq!((key, v.to_bits()), (rkey, rv.to_bits()), "position {i}");
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut cfg = Config::quick();
        cfg.latency_tuples = 2_000;
        let text = run(&cfg).to_json().pretty();
        assert!(text.contains("\"id\": \"ooo\""));
        assert!(text.contains("\"disorder\""));
        assert!(text.contains("\"fiba\""));
        assert!(text.contains("\"reorder-slickdeque\""));
    }
}
