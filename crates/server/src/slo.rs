//! Per-pipeline SLO evaluation: burn rates over windowed metrics.
//!
//! A dedicated `swag-slo` thread wakes every [`ServerConfig::slo_interval`]
//! and checks each pipeline's [`SloSpec`] objectives against that
//! window's metrics:
//!
//! - `p999_ingest_ns` / `p999_slide_ns` are **windowed** quantiles — the
//!   delta of the cumulative latency histogram against the previous tick
//!   ([`HistogramSnapshot::delta`]), so one slow epoch cannot hide behind
//!   a fast history (or poison the estimate forever after).
//! - `max_watermark_lag` / `max_queue_depth` gate the live gauges the
//!   pipeline worker and ingest readers maintain.
//!
//! A window with any objective over target is a **breached window**. The
//! burn rate is the breached fraction of the last [`BURN_WINDOWS`]
//! windows divided by the spec's error budget: burn ≤ 1 means the
//! pipeline is inside budget, burn > 1 means the budget is being spent
//! faster than it accrues. Every objective breach also lands in the
//! pipeline's lifecycle trace ring as an [`EventKind::SloBreach`] event
//! (payload: objective code, observed value) and bumps
//! `swag_pipeline_slo_breaches_total`, so a breach is visible in the
//! same flight-recorder timeline as the tuple spans around it.
//!
//! [`ServerConfig::slo_interval`]: crate::ServerConfig::slo_interval
//! [`SloSpec`]: crate::spec::SloSpec

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use swag_metrics::json::Json;
use swag_metrics::registry::{Counter, HistogramSnapshot, RegistrySnapshot};
use swag_trace::{EventKind, SpanSampler};

use crate::server::ServerState;
use crate::spec::SloSpec;

/// Breach-bit history length for the burn rate. At the default 250ms
/// interval this is a one-minute rolling window.
const BURN_WINDOWS: usize = 240;

/// Objective codes: the `a` payload of `SloBreach` ring events.
const OBJECTIVES: [&str; 4] = [
    "p999_ingest_ns",
    "p999_slide_ns",
    "max_watermark_lag",
    "max_queue_depth",
];

/// One objective's evaluation this window.
struct Check {
    /// Index into [`OBJECTIVES`].
    code: usize,
    target: u64,
    /// `None` when the window had no data to judge (e.g. no tuples
    /// flowed, so the latency delta is empty) — not a breach.
    observed: Option<u64>,
}

impl Check {
    fn breached(&self) -> bool {
        self.observed.is_some_and(|v| v > self.target)
    }
}

/// Rolling evaluation state for one pipeline.
struct Track {
    prev_ingest: HistogramSnapshot,
    prev_slide: HistogramSnapshot,
    windows: u64,
    breached_windows: u64,
    recent: VecDeque<bool>,
    breaches: [u64; 4],
    breach_counter: Counter,
}

impl Track {
    fn new(state: &ServerState, pipeline: &str) -> Track {
        Track {
            prev_ingest: HistogramSnapshot::default(),
            prev_slide: HistogramSnapshot::default(),
            windows: 0,
            breached_windows: 0,
            recent: VecDeque::with_capacity(BURN_WINDOWS),
            breaches: [0; 4],
            breach_counter: state.registry.counter(
                "swag_pipeline_slo_breaches_total",
                "SLO objective breaches observed",
                &[("pipeline", pipeline)],
            ),
        }
    }

    /// Evaluate one window against `slice` (the pipeline's slice of the
    /// registry snapshot) and return the report served at `GET /slo`.
    fn evaluate(
        &mut self,
        pipeline: &str,
        slo: &SloSpec,
        slice: &RegistrySnapshot,
        trace: Option<&SpanSampler>,
    ) -> Json {
        let mut checks: Vec<Check> = Vec::new();
        let ingest = slice
            .merged_histogram("swag_pipeline_ingest_latency_ns")
            .unwrap_or_default();
        let ingest_delta = ingest.delta(&self.prev_ingest);
        self.prev_ingest = ingest;
        if let Some(target) = slo.p999_ingest_ns {
            checks.push(Check {
                code: 0,
                target,
                observed: (ingest_delta.count > 0).then(|| ingest_delta.quantile(0.999)),
            });
        }
        let slide = slice
            .merged_histogram("swag_slide_latency_ns")
            .unwrap_or_default();
        let slide_delta = slide.delta(&self.prev_slide);
        self.prev_slide = slide;
        if let Some(target) = slo.p999_slide_ns {
            checks.push(Check {
                code: 1,
                target,
                observed: (slide_delta.count > 0).then(|| slide_delta.quantile(0.999)),
            });
        }
        if let Some(target) = slo.max_watermark_lag {
            checks.push(Check {
                code: 2,
                target,
                observed: Some(slice.max("swag_pipeline_watermark_lag")),
            });
        }
        if let Some(target) = slo.max_queue_depth {
            checks.push(Check {
                code: 3,
                target,
                observed: Some(slice.max("swag_pipeline_queue_depth")),
            });
        }

        let mut breached_any = false;
        for check in &checks {
            if check.breached() {
                breached_any = true;
                self.breaches[check.code] += 1;
                self.breach_counter.inc();
                if let Some(trace) = trace {
                    trace.ring().record(
                        EventKind::SloBreach,
                        check.code as u64,
                        check.observed.unwrap_or(0),
                    );
                }
            }
        }
        self.windows += 1;
        if breached_any {
            self.breached_windows += 1;
        }
        if self.recent.len() == BURN_WINDOWS {
            self.recent.pop_front();
        }
        self.recent.push_back(breached_any);
        let burned = self.recent.iter().filter(|b| **b).count() as f64;
        let burn_rate = burned / self.recent.len() as f64 / slo.error_budget;

        Json::obj(vec![
            ("pipeline", Json::Str(pipeline.to_string())),
            ("windows", Json::UInt(self.windows)),
            ("breached_windows", Json::UInt(self.breached_windows)),
            ("error_budget", Json::Num(slo.error_budget)),
            ("burn_rate", Json::Num(burn_rate)),
            ("ok", Json::Bool(burn_rate <= 1.0)),
            (
                "objectives",
                Json::arr(checks, |check| {
                    Json::obj(vec![
                        ("objective", Json::Str(OBJECTIVES[check.code].to_string())),
                        ("target", Json::UInt(check.target)),
                        (
                            "observed",
                            match check.observed {
                                Some(v) => Json::UInt(v),
                                None => Json::Null,
                            },
                        ),
                        ("breached", Json::Bool(check.breached())),
                        ("breaches_total", Json::UInt(self.breaches[check.code])),
                    ])
                }),
            ),
        ])
    }
}

/// One evaluator tick over every pipeline with an SLO spec.
fn tick(state: &ServerState, tracks: &mut HashMap<String, Track>) {
    // Gather targets under the pipelines lock, evaluate outside it so a
    // slow histogram walk never delays pipeline creation or ingest.
    let targets: Vec<(String, SloSpec, Option<SpanSampler>)> = {
        let map = state.pipelines.lock().unwrap();
        map.iter()
            .filter_map(|(name, h)| {
                h.spec
                    .slo
                    .map(|slo| (name.clone(), slo, h.ingest.trace.clone()))
            })
            .collect()
    };
    tracks.retain(|name, _| targets.iter().any(|(t, _, _)| t == name));
    if targets.is_empty() {
        state.slo_reports.lock().unwrap().clear();
        return;
    }
    let snap = state.registry.snapshot();
    let mut reports = HashMap::with_capacity(targets.len());
    for (name, slo, trace) in targets {
        let track = tracks
            .entry(name.clone())
            .or_insert_with(|| Track::new(state, &name));
        let report = track.evaluate(
            &name,
            &slo,
            &snap.labelled("pipeline", &name),
            trace.as_ref(),
        );
        reports.insert(name, report);
    }
    *state.slo_reports.lock().unwrap() = reports;
}

/// The `swag-slo` thread body: evaluate every `interval` until the
/// server's stop flag is set, sleeping in short slices so shutdown never
/// waits a full interval.
pub(crate) fn evaluator_loop(state: &Arc<ServerState>, interval: Duration) {
    let slice = interval
        .min(Duration::from_millis(5))
        .max(Duration::from_micros(100));
    let clock = state.epoch;
    let mut tracks: HashMap<String, Track> = HashMap::new();
    let mut next = clock.elapsed() + interval;
    while !state.stop.load(Ordering::Acquire) {
        if clock.elapsed() < next {
            std::thread::sleep(slice);
            continue;
        }
        tick(state, &mut tracks);
        next = clock.elapsed() + interval;
    }
}
