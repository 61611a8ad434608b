//! End-to-end observability: registry series vs. engine stats, the
//! queue-depth sampler, flight-recorder dumps on graceful drain, and —
//! the reason the recorder exists — a parseable post-mortem when a shard
//! worker panics mid-run. Every test runs down both ways into the data
//! plane: arrival order and event time.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use swag_core::algorithms::SlickDequeInv;
use swag_core::ops::Sum;
use swag_data::event::DisorderedKeyedSource;
use swag_data::keyed::{Key, KeyedSource, KeyedVecSource};
use swag_engine::{
    EngineConfig, EngineSample, EngineStats, KeyedEventWindows, KeyedWindows, ObservabilityConfig,
    ShardProcessor, ShardedEngine,
};
use swag_metrics::registry::MetricRegistry;
use swag_metrics::Json;
use swag_stream::TimeWindowSpec;

fn tuples(n: u64, keys: u64) -> Vec<(Key, f64)> {
    (0..n).map(|i| (i % keys, (i % 13) as f64)).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swag-engine-obs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn read_flightrec(dir: &std::path::Path, shard: usize) -> Json {
    let path = dir.join(format!("flightrec-{shard}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

fn event_kinds(doc: &Json) -> Vec<String> {
    doc.get("events")
        .and_then(Json::as_array)
        .expect("dump has an events array")
        .iter()
        .map(|e| {
            e.get("kind")
                .and_then(Json::as_str)
                .expect("event has a kind")
                .to_string()
        })
        .collect()
}

/// A source that trickles tuples out slowly enough for the sampler to
/// observe the run in flight.
struct ThrottledSource {
    inner: KeyedVecSource,
    yielded: u64,
}

impl KeyedSource for ThrottledSource {
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        self.yielded += 1;
        if self.yielded.is_multiple_of(64) {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.inner.next_tuple()
    }
}

/// A processor that works normally, then panics after a set number of
/// tuples — the injected fault for the post-mortem test (`u64::MAX`:
/// never).
struct Faulty<P> {
    inner: P,
    processed: u64,
    fault_after: u64,
}

impl<P: ShardProcessor> ShardProcessor for Faulty<P> {
    type Value = P::Value;
    type Answer = P::Answer;

    fn open_slot(&mut self, key: Key) -> usize {
        self.inner.open_slot(key)
    }

    fn process_slot(&mut self, slot: usize, values: &[P::Value], out: &mut Vec<(Key, P::Answer)>) {
        self.processed += values.len() as u64;
        assert!(
            self.processed <= self.fault_after,
            "injected fault: shard crashed after {} tuples",
            self.fault_after
        );
        self.inner.process_slot(slot, values, out);
    }

    fn advance_watermark(&mut self, watermark: u64, out: &mut Vec<(Key, P::Answer)>) {
        self.inner.advance_watermark(watermark, out);
    }

    fn finish(&mut self, out: &mut Vec<(Key, P::Answer)>) {
        self.inner.finish(out);
    }

    fn max_ts(&self) -> Option<u64> {
        self.inner.max_ts()
    }

    fn keys(&self) -> usize {
        self.inner.keys()
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

/// One way into the data plane: run `n` throttled tuples over `keys` keys
/// through `engine`, crashing each shard after `fault_after` tuples.
type Path = fn(&ShardedEngine, u64, u64, u64) -> (EngineStats, Vec<EngineSample>);

fn throttled(n: u64, keys: u64) -> ThrottledSource {
    ThrottledSource {
        inner: KeyedVecSource::new(tuples(n, keys)),
        yielded: 0,
    }
}

/// Arrival order: a count window per key.
fn count_path(
    engine: &ShardedEngine,
    n: u64,
    keys: u64,
    fault_after: u64,
) -> (EngineStats, Vec<EngineSample>) {
    let run = engine.run(&mut throttled(n, keys), u64::MAX, |_| Faulty {
        inner: KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), 16),
        processed: 0,
        fault_after,
    });
    (run.stats, run.samples)
}

/// Event time: the same stream stamped with its positions and shuffled
/// within a bound, a tumbling time window per key.
fn event_path(
    engine: &ShardedEngine,
    n: u64,
    keys: u64,
    fault_after: u64,
) -> (EngineStats, Vec<EngineSample>) {
    let mut source = DisorderedKeyedSource::new(throttled(n, keys), 24, 3);
    let run = engine.run_events(&mut source, u64::MAX, None, |_| Faulty {
        inner: KeyedEventWindows::new(Sum::<f64>::new(), vec![TimeWindowSpec::tumbling(64)]),
        processed: 0,
        fault_after,
    });
    (run.stats, run.samples)
}

/// What only the event-time path adds: registry series, and
/// flight-recorder event kinds.
const EVENT_SERIES: [&str; 2] = ["swag_engine_watermark_lag", "swag_engine_late_tuples_total"];
const EVENT_KINDS: [&str; 1] = ["watermark_advance"];

#[test]
fn registry_series_match_stats_and_drain_dumps_parse() {
    series_match_stats_and_drain_dumps_parse("count", count_path, &[], &[]);
}

#[test]
fn event_time_registry_series_match_stats_and_drain_dumps_parse() {
    series_match_stats_and_drain_dumps_parse("event", event_path, &EVENT_SERIES, &EVENT_KINDS);
}

fn series_match_stats_and_drain_dumps_parse(
    path: &str,
    drive: Path,
    path_series: &[&str],
    path_kinds: &[&str],
) {
    let dir = temp_dir(&format!("drain-{path}"));
    let registry = Arc::new(MetricRegistry::new());
    let engine = ShardedEngine::new(EngineConfig {
        shards: 2,
        queue_capacity: 4,
        batch: 32,
        retain_answers: false,
        latest_only: false,
        check_invariants: true,
        obs: ObservabilityConfig {
            registry: Some(registry.clone()),
            trace_capacity: 64,
            trace_out: Some(dir.clone()),
            sample_interval: Some(Duration::from_millis(2)),
            labels: Vec::new(),
        },
    });
    let (stats, samples) = drive(&engine, 20_000, 11, u64::MAX);
    assert_eq!(stats.tuples, 20_000, "{path}");

    // Registry counters agree with the per-run stats (fresh registry,
    // so cumulative == this run).
    let snap = registry.snapshot();
    assert_eq!(snap.sum("swag_engine_tuples_total"), stats.tuples, "{path}");
    assert_eq!(
        snap.sum("swag_engine_answers_total"),
        stats.answers,
        "{path}"
    );
    assert_eq!(
        snap.sum("swag_engine_batches_total"),
        stats.batches,
        "{path}"
    );
    assert_eq!(snap.sum("swag_engine_keys"), stats.keys() as u64, "{path}");

    // Slide latencies were recorded and quantiles are coherent.
    let latency = snap
        .merged_histogram("swag_slide_latency_ns")
        .expect("slide latency histogram registered");
    assert!(latency.count > 0, "{path}: slides were timed");
    let (p50, p99, p999) = (
        latency.quantile(0.50),
        latency.quantile(0.99),
        latency.quantile(0.999),
    );
    assert!(p50 <= p99 && p99 <= p999 && p999 <= latency.max);

    // The Prometheus rendering carries every engine series.
    let text = snap.to_prometheus_text();
    let common = [
        "swag_engine_tuples_total",
        "swag_engine_answers_total",
        "swag_engine_batches_total",
        "swag_engine_keys",
        "swag_engine_queue_depth",
        "swag_engine_queue_depth_peak",
        "swag_engine_busy_ns_total",
        "swag_engine_blocked_ns_total",
        "swag_slide_latency_ns_bucket",
    ];
    for name in common.iter().chain(path_series) {
        assert!(
            text.contains(name),
            "{path}: missing `{name}` in exposition"
        );
    }

    // Phase occupancy: a 20k-tuple run must have spent measurable
    // time in both phases (the throttled source forces recv() waits).
    assert!(
        snap.sum("swag_engine_busy_ns_total") > 0,
        "{path}: workers recorded busy time"
    );
    assert!(
        snap.sum("swag_engine_blocked_ns_total") > 0,
        "{path}: workers recorded blocked-on-channel time"
    );

    // The sampler produced a monotone time series while the run was
    // live.
    assert!(
        !samples.is_empty(),
        "{path}: a throttled 20k-tuple run spans several 2ms sample intervals"
    );
    for pair in samples.windows(2) {
        assert!(pair[0].t_ns <= pair[1].t_ns, "sample times are ordered");
        assert!(pair[0].tuples <= pair[1].tuples, "tuple counts only grow");
    }

    // Both shards dumped their rings on graceful drain, ending in a
    // drain event (invariant check precedes it; checking was on).
    // 32-tuple batches over 11 keys always hold multi-tuple runs, so
    // the bulk-path marker shows on either path.
    for shard in 0..2 {
        let doc = read_flightrec(&dir, shard);
        let kinds = event_kinds(&doc);
        assert_eq!(kinds.last().map(String::as_str), Some("drain"), "{path}");
        let common = ["invariant_check", "batch_received", "slide", "bulk_evict"];
        for kind in common.iter().chain(path_kinds) {
            assert!(
                kinds.iter().any(|k| k == kind),
                "{path} shard {shard}: no `{kind}` in {kinds:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_panic_leaves_a_parseable_post_mortem() {
    panic_leaves_a_parseable_post_mortem("count", count_path);
}

#[test]
fn event_time_worker_panic_leaves_a_parseable_post_mortem() {
    panic_leaves_a_parseable_post_mortem("event", event_path);
}

fn panic_leaves_a_parseable_post_mortem(path: &str, drive: Path) {
    let dir = temp_dir(&format!("panic-{path}"));
    let engine = ShardedEngine::new(EngineConfig {
        shards: 1,
        queue_capacity: 4,
        batch: 64,
        retain_answers: false,
        latest_only: false,
        check_invariants: false,
        obs: ObservabilityConfig {
            registry: None,
            trace_capacity: 32,
            trace_out: Some(dir.clone()),
            sample_interval: None,
            labels: Vec::new(),
        },
    });
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drive(&engine, 5_000, 7, 1_000)
    }));
    assert!(
        outcome.is_err(),
        "{path}: the injected fault must fail the run"
    );

    // The dump exists, parses, and its tail explains what the shard
    // was doing: working through batches/slides right up to the panic.
    let doc = read_flightrec(&dir, 0);
    let kinds = event_kinds(&doc);
    assert_eq!(
        kinds.last().map(String::as_str),
        Some("panic"),
        "{path}: panic is the final recorded event, got {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| k == "batch_received") && kinds.iter().any(|k| k == "slide"),
        "{path}: events before the panic show normal processing, got {kinds:?}"
    );
    assert!(
        !kinds.iter().any(|k| k == "drain"),
        "{path}: a crashed shard never drained"
    );
    // The ring holds the *last* events: more happened than the ring
    // kept.
    let recorded = doc.get("recorded").and_then(Json::as_u64).unwrap();
    let capacity = doc.get("capacity").and_then(Json::as_u64).unwrap();
    assert!(
        recorded >= capacity,
        "{path}: the ring wrapped before the crash"
    );
    std::fs::remove_dir_all(&dir).ok();
}
