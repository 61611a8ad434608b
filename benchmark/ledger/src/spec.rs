//! The benchmark's fixed vocabulary: workload and metric names, units,
//! regression bounds, and the sizes and rates frozen at the seed commit.
//! `BENCHMARK.json` at the repository root repeats the names and bounds;
//! a unit test keeps the two in step.

use std::collections::BTreeMap;

/// One workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
    /// Share of `--seconds` the workload gets in another workload's traced
    /// pass (every layer is read whichever workload is named).
    pub trace_share: f64,
}

/// The four workloads, kernel to wire.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc_count",
        why: "closed loop, one thread, no engine or sockets: only core.ops, core.algorithms, plan and stream.executor work, so a kernel or aggregator change shows here and nowhere else",
        trace_share: 0.05,
    },
    Workload {
        name: "engine_keyed",
        why: "sharded engine, 64 keys x window 1024: routing, channel hand-off and worker batching are >95% of the time, so a data-plane change shows here and an aggregator change does not",
        trace_share: 0.05,
    },
    Workload {
        name: "svc_count",
        why: "TCP service, in-order count pipeline at a fixed rate then flooded: frame decode, per-cycle engine set-up and the cycle loop dominate; the engine's steady state is a small share",
        trace_share: 0.1,
    },
    Workload {
        name: "svc_event_mixed",
        why: "same service used differently: out-of-order event-time ingest with late drops while answers are read and snapshots taken, so a gain bought with slower reads or snapshot stalls shows",
        trace_share: 0.15,
    },
];

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: measured with tracing off, reported by every
/// workload, each with its regression bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("tuples_per_s", "1/s", "higher", 0.25),
    e2e("answer_p50_us", "us", "lower", 0.25),
    e2e("peak_heap_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics: the traced pass, reported by every workload, never
/// gated. Layers are this repository's modules.
pub const PER_LAYER: &[MetricDef] = &[
    // core.ops
    layer("core.ops.sum_fold.ns_per_tuple", "ns", "lower"),
    layer("core.ops.max_fold.ns_per_tuple", "ns", "lower"),
    layer("core.ops.combines_per_tuple.sum_single", "count", "lower"),
    layer("core.ops.combines_per_tuple.max_single", "count", "lower"),
    layer("core.ops.combines_per_tuple.sum_plan", "count", "lower"),
    layer("core.ops.combines_per_tuple.max_plan", "count", "lower"),
    // core.algorithms
    layer("core.algorithms.naive.sum.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.naive.max.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.flatfat.sum.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.flatfat.max.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.bint.sum.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.bint.max.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.flatfit.sum.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.flatfit.max.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.twostacks.sum.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.twostacks.max.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.daba.sum.ns_per_slide", "ns", "lower"),
    layer("core.algorithms.daba.max.ns_per_slide", "ns", "lower"),
    layer(
        "core.algorithms.slickdeque_inv.sum.ns_per_slide",
        "ns",
        "lower",
    ),
    layer(
        "core.algorithms.slickdeque_noninv.max.ns_per_slide",
        "ns",
        "lower",
    ),
    layer("core.algorithms.state_bytes", "bytes", "lower"),
    // plan
    layer("plan.build_us", "us", "lower"),
    // stream.executor
    layer("stream.executor.sum_single.ns_per_tuple", "ns", "lower"),
    layer("stream.executor.max_single.ns_per_tuple", "ns", "lower"),
    layer("stream.executor.sum_plan.ns_per_tuple", "ns", "lower"),
    layer("stream.executor.max_plan.ns_per_tuple", "ns", "lower"),
    layer("stream.executor.self_ns_per_tuple", "ns", "lower"),
    // engine.keyed
    layer("engine.keyed.ns_per_tuple", "ns", "lower"),
    layer("engine.keyed.self_ns_per_tuple", "ns", "lower"),
    // engine.shard
    layer("engine.shard.s1.ns_per_tuple", "ns", "lower"),
    layer("engine.shard.s2.ns_per_tuple", "ns", "lower"),
    layer("engine.shard.handoff_ns_per_tuple", "ns", "lower"),
    layer("engine.shard.s2_over_s1", "ratio", "lower"),
    layer("engine.shard.run_fixed_us", "us", "lower"),
    layer("engine.shard.tuples_per_batch", "count", "higher"),
    layer("engine.shard.max_queue_depth", "count", "lower"),
    layer("engine.shard.skew", "ratio", "lower"),
    // engine.event
    layer("engine.event.ns_per_tuple", "ns", "lower"),
    layer("engine.event.late_share", "share", "lower"),
    // stream.time_window
    layer("stream.time_window.ns_per_tuple", "ns", "lower"),
    layer("stream.time_window.answers_per_tuple", "count", "lower"),
    // ooo
    layer("ooo.tree.inorder_insert_ns", "ns", "lower"),
    layer("ooo.tree.displaced_insert_ns", "ns", "lower"),
    layer("ooo.tree.evict_ns", "ns", "lower"),
    // server.proto
    layer("server.proto.encode_ns_per_tuple", "ns", "lower"),
    layer("server.proto.decode_ns_per_tuple", "ns", "lower"),
    layer("server.proto.bytes_per_tuple", "bytes", "lower"),
    // server.pipeline and server.ingest
    layer("server.pipeline.ns_per_tuple", "ns", "lower"),
    layer("server.pipeline.tuples_per_cycle", "count", "higher"),
    layer("server.pipeline.cycle_us", "us", "lower"),
    layer("server.pipeline.busy_share", "share", "lower"),
    layer("server.pipeline.blocked_share", "share", "higher"),
    layer("server.pipeline.queue_depth_peak", "count", "lower"),
    layer("server.pipeline.over_engine_ratio", "ratio", "lower"),
    layer("server.pipeline.unattributed_share", "share", "lower"),
    layer("server.ingest.send_blocked_share", "share", "higher"),
    layer("server.ingest.ack_us", "us", "lower"),
    // server.snapshot
    layer("server.snapshot.write_ms", "ms", "lower"),
    layer("server.snapshot.bytes", "bytes", "lower"),
    layer("server.snapshot.restore_ms", "ms", "lower"),
    layer("server.snapshot.stall_p99_us", "us", "lower"),
    // server.control
    layer("server.control.get_answers_ms", "ms", "lower"),
    layer("server.control.get_status_ms", "ms", "lower"),
    layer("server.control.get_metrics_ms", "ms", "lower"),
    // trace / metrics
    layer("trace.sampling_overhead_share", "share", "lower"),
    // generator, watcher, process, harness
    layer("gen.late_p99_us", "us", "lower"),
    layer("gen.backlog_slope_tuples_per_s", "1/s", "lower"),
    layer("watch.poll_gap_p99_us", "us", "lower"),
    layer("proc.cpu_ns_per_tuple", "ns", "lower"),
    // the named workload's latency tail: too unsteady on the sandbox to gate
    layer("answer_p99_us", "us", "lower"),
    layer("ledger.tracing_overhead_share", "share", "lower"),
];

// ---- Frozen sizes and rates (calibrated once at the seed commit on the
// 2-core sandbox; benchmark/README.md records the measurements they were
// derived from). Changing any of them is a benchmark change, not a tuning
// knob: none is reachable from the command line.

/// Tuples per in-process frame (`push_batch` call).
pub const INPROC_FRAME: usize = 512;
/// Frames a configuration runs before the next one takes its turn.
pub const INPROC_CHUNK_FRAMES: usize = 128;
/// Values in the in-process input block.
pub const INPROC_BLOCK: usize = 1 << 20;
/// The single-ACQ condition (paper Exp 1/3): range 1024, slide 1.
pub const SINGLE_ACQ: (u64, u64) = (1024, 1);
/// The shared plan: partial aggregation and fold kernels dominate.
pub const PLAN_ACQS: [(u64, u64); 4] = [(64, 16), (256, 16), (1024, 16), (4096, 64)];

/// Distinct keys in the engine workload (the `scaling` shape).
pub const ENGINE_KEYS: usize = 64;
/// Per-key window of the engine workload.
pub const ENGINE_WINDOW: usize = 1024;
/// Shard workers.
pub const ENGINE_SHARDS: usize = 2;
/// Tuples in the engine input block.
pub const ENGINE_BLOCK: usize = 1 << 20;
/// Tuples per job (about a tenth of a second of work).
pub const ENGINE_JOB: u64 = 1 << 22;

/// Tuples per binary ingest frame.
pub const SVC_FRAME: usize = 256;
/// Bids in a service input block.
pub const SVC_BLOCK: usize = 1 << 18;
/// Bids streamed before timing starts.
pub const SVC_WARM: u64 = 1 << 16;
/// Count window of the `svc_count` pipeline.
pub const SVC_WINDOW: usize = 1024;
/// Event-time range of the `svc_event_mixed` pipeline, ns.
pub const EVENT_RANGE: u64 = 64_000;
/// Event-time slide, ns.
pub const EVENT_SLIDE: u64 = 16_000;
/// Allowed lateness and the generator's disorder bound, ns.
pub const EVENT_LATENESS: u64 = 50_000;
/// Fixed ingest rate of `svc_count`'s rate segment, tuples/s: half the
/// seed commit's own flood rate, two significant digits.
pub const R_COUNT: f64 = 800_000.0;
/// Fixed ingest rate of `svc_event_mixed`'s rate segment, tuples/s.
pub const R_EVENT: f64 = 60_000.0;
/// Share of a service run's measured time the rate segment gets.
pub const SVC_RATE_SHARE: f64 = 0.5;
/// In a rate segment the backlog may grow by at most this share of the
/// rate per second before the run is `unsustained`.
pub const BACKLOG_GROWTH_LIMIT: f64 = 0.01;
/// Watcher: `GET /pipelines/{name}/answers` period.
pub const WATCH_ANSWERS_EVERY_MS: u64 = 100;
/// Watcher: `GET /pipelines/{name}` and `GET /metrics` period.
pub const WATCH_STATUS_EVERY_MS: u64 = 1_000;
/// Watcher: `POST /pipelines/{name}/snapshot` period.
pub const WATCH_SNAPSHOT_EVERY_MS: u64 = 2_000;
/// Watcher sleep between polls of the processed-tuple count.
pub const WATCH_POLL_SLEEP_US: u64 = 100;

/// Times each workload sets up in one run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One run's result, as printed on the last line of standard output.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every oracle check passed and no rate segment was unsustained.
    pub correct: bool,
    /// Tuples attempted in the timed sections.
    pub attempted: u64,
    /// Tuples refused, `ERR`-acked, dropped beyond the expected late set,
    /// or whose final answer differs bitwise from the oracle.
    pub failed: u64,
    /// `name → value`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable remarks (stderr only).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report that is correct until a pass says otherwise.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being exactly
    /// those of `defs`. Errors name a missing or non-finite metric.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = *self
                .metrics
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_metrics::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "unit {:?} of {}", d.unit, d.name);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    /// `BENCHMARK.json` parses with the workspace's own JSON reader and
    /// names exactly the workloads and metrics the binary prints.
    #[test]
    fn benchmark_json_names_every_metric_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &json {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| json.get(key).and_then(Json::as_array).expect(key).to_vec();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(field(j, "name"), d.name);
                assert_eq!(field(j, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(j, "better"), d.better, "{}", d.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        let seconds = json.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
        let paths = list("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        for arg in list("command") {
            let arg = arg.as_str().expect("command is a list of strings");
            assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_asked_metrics() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            ..Report::default()
        };
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        r.set("plan.build_us", 3.0); // not asked for: left out
        let line = r.result_line(END_TO_END).unwrap();
        let json = Json::parse(&line).expect("result line is JSON");
        let metrics = match json.get("metrics") {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => panic!("metrics object"),
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
        assert!(!line.contains('\n'));
        r.metrics.remove("setup_s");
        assert!(r.result_line(END_TO_END).unwrap_err().contains("setup_s"));
    }
}
