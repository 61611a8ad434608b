//! Instrumentation-overhead microbench (the `obs` feature).
//!
//! Observability must be close to free on the hot path or nobody leaves
//! it on. This module times the shared-plan executor with and without a
//! flight recorder attached (scalar pushes and the bulk `push_batch`
//! fast path) and a tight increment loop against a plain `u64` field vs
//! a registry [`Counter`], writes the best-of-runs numbers to
//! `results/obs_overhead.json`, and — with a gate — fails when the bulk
//! path slows down by more than the allowed percentage. Every run's
//! bulk readings are kept too, and the report prints the spread of the
//! per-run paired overheads beside each gated figure, so a failing gate
//! shows whether it sits inside the host's run-to-run noise.
//!
//! The gate is on the *bulk* paths: that is how the sharded engine feeds
//! tuples, and one ring event per batch amortises to well under a
//! nanosecond per tuple. Two bulk scenarios are gated: the flight
//! recorder alone, and the recorder plus the resident service's
//! **default lifecycle sampling** (a [`SpanSampler`] draw per tuple,
//! stage records for the 1-in-128 hits — the extra work `swag-server`
//! ingest does with tracing on, which it is by default). Scalar-push and
//! raw-counter numbers are reported but not gated — a per-event clock
//! read can never hide inside a per-tuple budget of a few dozen
//! nanoseconds, and that is fine because no shipped path records per
//! tuple unsampled.
//!
//! [`Counter`]: swag_metrics::Counter

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use swag_core::multi::MultiSlickDequeInv;
use swag_core::ops::Sum;
use swag_metrics::{Json, MetricRegistry, ToJson};
use swag_plan::{Pat, Query, SharedPlan};
use swag_stream::{CountSink, ExecObs, SharedPlanExecutor};
use swag_trace::{FlightRecorder, SpanSampler, Stage};

use crate::report::save_json;

/// Overhead-run configuration.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Tuples pushed per timed run.
    pub tuples: u64,
    /// Timed runs per scenario (the minimum is reported; see [`best`]).
    pub runs: usize,
    /// Batch size for the bulk scenarios.
    pub batch: usize,
    /// Flight-recorder ring capacity for the instrumented scenarios.
    pub trace_capacity: usize,
    /// Lifecycle sampling rate for the sampled scenario (1-in-N; the
    /// server default).
    pub sample_every: u64,
    /// Maximum allowed bulk-path overhead in percent (none = report only).
    pub gate_pct: Option<f64>,
    /// Directory for the JSON dump (none = don't write).
    pub out_dir: Option<PathBuf>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tuples: 2_000_000,
            runs: 15,
            batch: 512,
            trace_capacity: 4096,
            sample_every: 128,
            gate_pct: None,
            out_dir: Some(PathBuf::from("results")),
        }
    }
}

impl ObsConfig {
    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        ObsConfig {
            tuples: 100_000,
            runs: 3,
            out_dir: None,
            ..ObsConfig::default()
        }
    }
}

/// One measured scenario: best-of-runs nanoseconds per tuple (or per op).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (`scalar/off`, `bulk/recorder`, …).
    pub name: String,
    /// Minimum over the configured runs.
    pub ns_per_op: f64,
}

/// One run's bulk-path readings, ns per tuple. The three were timed back
/// to back, so their ratios are paired.
#[derive(Debug, Clone, Copy)]
pub struct BulkRun {
    /// `bulk/off`.
    pub off: f64,
    /// `bulk/recorder`.
    pub recorder: f64,
    /// `bulk/sampled(1-in-N)`.
    pub sampled: f64,
}

/// The full overhead report.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// All measured scenarios.
    pub scenarios: Vec<Scenario>,
    /// Every run's bulk readings, in run order.
    pub bulk_runs: Vec<BulkRun>,
    /// Bulk-path overhead, percent (recorder vs off) — gated.
    pub bulk_overhead_pct: f64,
    /// Bulk-path overhead with recorder plus default lifecycle sampling,
    /// percent (vs off) — gated.
    pub sampled_overhead_pct: f64,
    /// Scalar-push overhead, percent (recorder vs off) — informational.
    pub scalar_overhead_pct: f64,
    /// Registry counter minus plain field, ns per increment.
    pub counter_delta_ns: f64,
    /// The configured gate, if any.
    pub gate_pct: Option<f64>,
    /// Whether the bulk overhead passed the gate (vacuously true without
    /// one).
    pub pass: bool,
}

/// Minimum over samples: for a CPU-bound loop every disturbance (clock
/// drift, preemption, cache pollution from a neighbour) only ever adds
/// time, so the minimum is the estimator closest to the true cost — and
/// the samples are collected interleaved (off, on, off, on, …) so slow
/// drift cannot bias one side of a comparison.
fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn overhead_pct(off: f64, on: f64) -> f64 {
    (on - off) / off * 100.0
}

/// `[min, median, max]` of `xs` (the upper median for an even count);
/// NaNs when empty.
fn spread(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    match (xs.first(), xs.get(xs.len() / 2), xs.last()) {
        (Some(&lo), Some(&mid), Some(&hi)) => [lo, mid, hi],
        _ => [f64::NAN; 3],
    }
}

/// Deterministic tuple values; cheap enough to not dominate the loop.
fn value(i: u64) -> f64 {
    ((i * 37) % 101) as f64
}

fn fresh_exec(obs: Option<ExecObs>) -> SharedPlanExecutor<Sum<f64>, MultiSlickDequeInv<Sum<f64>>> {
    // Two per-tuple queries: every push slides, every batch takes the
    // uniform-fragment bulk fast path — the engine's steady state.
    let plan = SharedPlan::build(&[Query::per_tuple(64), Query::per_tuple(16)], Pat::Pairs);
    let mut exec = SharedPlanExecutor::new(Sum::<f64>::new(), plan);
    if let Some(obs) = obs {
        exec.attach_obs(obs);
    }
    exec
}

/// Time scalar pushes; ns per tuple.
fn scalar_run(obs: Option<ExecObs>, tuples: u64) -> f64 {
    let mut exec = fresh_exec(obs);
    let mut sink = CountSink::default();
    let start = Instant::now();
    for i in 0..tuples {
        exec.push(black_box(value(i)), &mut sink);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(sink.count);
    ns / tuples as f64
}

/// Time `push_batch` over `batch`-tuple chunks; ns per tuple.
fn bulk_run(obs: Option<ExecObs>, tuples: u64, batch: usize) -> f64 {
    let mut exec = fresh_exec(obs);
    let mut sink = CountSink::default();
    let values: Vec<f64> = (0..batch as u64).map(value).collect();
    let batches = tuples / batch as u64;
    let start = Instant::now();
    for _ in 0..batches {
        exec.push_batch(black_box(&values), &mut sink);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(sink.count);
    ns / (batches * batch as u64) as f64
}

/// Time the bulk path with the recorder AND the resident service's
/// lifecycle sampling: one `SpanSampler::sample_block` draw per batch
/// plus a stage record for each 1-in-`every` hit — exactly the work the
/// server's ingest readers add per frame when tracing is on (its
/// default). Ns per tuple.
fn sampled_bulk_run(tuples: u64, batch: usize, every: u64, capacity: usize) -> f64 {
    let mut exec = fresh_exec(Some(ExecObs::new(FlightRecorder::new(capacity))));
    let sampler = SpanSampler::new(every, FlightRecorder::new(capacity));
    let mut sink = CountSink::default();
    let values: Vec<f64> = (0..batch as u64).map(value).collect();
    let batches = tuples / batch as u64;
    let start = Instant::now();
    for frame in 0..batches {
        // Mirror the server's forward(): the frame's decode timestamp is
        // read once and shared by every hit's Ingest record, and each
        // hit stamps its trace id into the tuple it rode in on.
        let ts = sampler.ring().now_ns();
        for (offset, id) in sampler.sample_block(values.len() as u64) {
            black_box((offset, id));
            sampler.stage_at(ts, id, Stage::Ingest, frame);
        }
        exec.push_batch(black_box(&values), &mut sink);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(sink.count);
    ns / (batches * batch as u64) as f64
}

/// Time a tight increment loop on a plain local field; ns per op.
fn plain_field_run(n: u64) -> f64 {
    let mut field = 0u64;
    let start = Instant::now();
    for i in 0..n {
        field = field.wrapping_add(black_box(i) & 1);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(field);
    ns / n as f64
}

/// Time the same loop through a registry [`swag_metrics::Counter`];
/// ns per op.
fn registry_counter_run(n: u64) -> f64 {
    let registry = MetricRegistry::new();
    let counter = registry.counter("bench_ops_total", "overhead probe", &[]);
    let start = Instant::now();
    for i in 0..n {
        counter.add(black_box(i) & 1);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(counter.get());
    ns / n as f64
}

/// Run every scenario and assemble the report.
pub fn run(cfg: &ObsConfig) -> ObsReport {
    let recorder = || ExecObs::new(FlightRecorder::new(cfg.trace_capacity));
    let mut samples: [Vec<f64>; 7] = Default::default();
    for _ in 0..cfg.runs {
        samples[0].push(scalar_run(None, cfg.tuples));
        samples[1].push(scalar_run(Some(recorder()), cfg.tuples));
        samples[2].push(bulk_run(None, cfg.tuples, cfg.batch));
        samples[3].push(bulk_run(Some(recorder()), cfg.tuples, cfg.batch));
        samples[4].push(sampled_bulk_run(
            cfg.tuples,
            cfg.batch,
            cfg.sample_every,
            cfg.trace_capacity,
        ));
        samples[5].push(plain_field_run(cfg.tuples));
        samples[6].push(registry_counter_run(cfg.tuples));
    }
    let [scalar_off, scalar_on, bulk_off, bulk_on, bulk_sampled, plain, counter] =
        [0, 1, 2, 3, 4, 5, 6].map(|i| best(&samples[i]));

    let scenarios = vec![
        Scenario {
            name: "scalar/off".into(),
            ns_per_op: scalar_off,
        },
        Scenario {
            name: "scalar/recorder".into(),
            ns_per_op: scalar_on,
        },
        Scenario {
            name: "bulk/off".into(),
            ns_per_op: bulk_off,
        },
        Scenario {
            name: "bulk/recorder".into(),
            ns_per_op: bulk_on,
        },
        Scenario {
            name: format!("bulk/sampled(1-in-{})", cfg.sample_every),
            ns_per_op: bulk_sampled,
        },
        Scenario {
            name: "counter/plain-field".into(),
            ns_per_op: plain,
        },
        Scenario {
            name: "counter/registry".into(),
            ns_per_op: counter,
        },
    ];
    let bulk_overhead_pct = overhead_pct(bulk_off, bulk_on);
    let sampled_overhead_pct = overhead_pct(bulk_off, bulk_sampled);
    let bulk_runs = (0..cfg.runs)
        .map(|r| BulkRun {
            off: samples[2][r],
            recorder: samples[3][r],
            sampled: samples[4][r],
        })
        .collect();
    ObsReport {
        bulk_runs,
        bulk_overhead_pct,
        sampled_overhead_pct,
        scalar_overhead_pct: overhead_pct(scalar_off, scalar_on),
        counter_delta_ns: counter - plain,
        gate_pct: cfg.gate_pct,
        pass: cfg
            .gate_pct
            .is_none_or(|g| bulk_overhead_pct <= g && sampled_overhead_pct <= g),
        scenarios,
    }
}

impl ObsReport {
    /// `[min, median, max]` over runs of each run's paired overhead, in
    /// percent: `(recorder, sampled)` against that run's `bulk/off`.
    pub fn paired_spread(&self) -> ([f64; 3], [f64; 3]) {
        let paired = |on: fn(&BulkRun) -> f64| {
            spread(
                self.bulk_runs
                    .iter()
                    .map(|r| overhead_pct(r.off, on(r)))
                    .collect(),
            )
        };
        (paired(|r| r.recorder), paired(|r| r.sampled))
    }

    /// Print the report as an aligned console table.
    pub fn print(&self) {
        println!("\n== observability overhead ==");
        for s in &self.scenarios {
            println!("{:<24} {:>10.2} ns/op", s.name, s.ns_per_op);
        }
        let (bulk, sampled) = self.paired_spread();
        let runs = self.bulk_runs.len();
        println!(
            "bulk overhead    {:+.2}%  (gated; {runs} paired runs min/median/max {:+.2}/{:+.2}/{:+.2}%)\n\
             sampled overhead {:+.2}%  (gated; {runs} paired runs min/median/max {:+.2}/{:+.2}/{:+.2}%)\n\
             scalar overhead  {:+.2}%\ncounter delta    {:+.2} ns/op",
            self.bulk_overhead_pct,
            bulk[0],
            bulk[1],
            bulk[2],
            self.sampled_overhead_pct,
            sampled[0],
            sampled[1],
            sampled[2],
            self.scalar_overhead_pct,
            self.counter_delta_ns
        );
        match self.gate_pct {
            Some(g) if self.pass => {
                println!("gate: bulk + sampled overhead within {g:.1}% — PASS")
            }
            Some(g) => println!("gate: bulk or sampled overhead exceeds {g:.1}% — FAIL"),
            None => println!("gate: none (report only)"),
        }
    }

    /// Write the report to `dir/obs_overhead.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        save_json(dir, "obs_overhead", &self.to_json())
    }
}

impl ToJson for ObsReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "scenarios",
                Json::arr(&self.scenarios, |s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name.as_str())),
                        ("ns_per_op", Json::Num(s.ns_per_op)),
                    ])
                }),
            ),
            (
                "bulk_runs",
                Json::arr(&self.bulk_runs, |r| {
                    Json::obj(vec![
                        ("off", Json::Num(r.off)),
                        ("recorder", Json::Num(r.recorder)),
                        ("sampled", Json::Num(r.sampled)),
                    ])
                }),
            ),
            ("bulk_overhead_pct", Json::Num(self.bulk_overhead_pct)),
            ("sampled_overhead_pct", Json::Num(self.sampled_overhead_pct)),
            ("scalar_overhead_pct", Json::Num(self.scalar_overhead_pct)),
            ("counter_delta_ns", Json::Num(self.counter_delta_ns)),
            ("gate_pct", self.gate_pct.map_or(Json::Null, Json::Num)),
            ("pass", Json::Bool(self.pass)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_coherent_and_serialises() {
        let mut cfg = ObsConfig::quick();
        cfg.tuples = 20_000;
        cfg.runs = 2;
        cfg.gate_pct = Some(1_000.0); // sanity only; not a perf assertion
        let report = run(&cfg);
        assert_eq!(report.scenarios.len(), 7);
        assert!(report.scenarios.iter().all(|s| s.ns_per_op > 0.0));
        assert!(report.pass, "absurdly wide gate must pass");
        let json = report.to_json();
        assert!(json.get("pass").is_some());
        assert!(json.get("sampled_overhead_pct").is_some());
        assert_eq!(
            json.get("scenarios")
                .and_then(|s| s.as_array())
                .map(<[_]>::len),
            Some(7)
        );
        assert_eq!(
            json.get("bulk_runs")
                .and_then(|s| s.as_array())
                .map(<[_]>::len),
            Some(2)
        );
        let (bulk, sampled) = report.paired_spread();
        assert!(bulk[0] <= bulk[1] && bulk[1] <= bulk[2], "{bulk:?}");
        assert!(
            sampled[0] <= sampled[1] && sampled[1] <= sampled[2],
            "{sampled:?}"
        );
    }
}
