//! Live observability for the sharded engine: metric registry wiring,
//! per-shard flight recorders, and the queue-depth/throughput sampler.
//!
//! Everything here is opt-in via [`ObservabilityConfig`] (default: all
//! off, zero hot-path cost — the worker's instrument handle is an
//! `Option` checked once per batch). When a registry is attached the
//! engine maintains these series:
//!
//! | series                          | kind      | labels  |
//! |---------------------------------|-----------|---------|
//! | `swag_engine_tuples_total`      | counter   | `shard` |
//! | `swag_engine_answers_total`     | counter   | `shard` |
//! | `swag_engine_batches_total`     | counter   | `shard` |
//! | `swag_engine_keys`              | gauge     | `shard` |
//! | `swag_engine_queue_depth`       | gauge     | `shard` |
//! | `swag_engine_queue_depth_peak`  | gauge     | `shard` |
//! | `swag_engine_busy_ns_total`     | counter   | `shard` |
//! | `swag_engine_blocked_ns_total`  | counter   | `shard` |
//! | `swag_slide_latency_ns`         | histogram | `shard` |
//!
//! The busy/blocked pair is the worker's phase occupancy: nanoseconds
//! spent processing batches vs. parked waiting on the shard's batch
//! queue. Two clock reads per *batch* (not per tuple) keep it cheap
//! enough to stay on whenever observability is enabled; the ratio says
//! immediately whether a slow pipeline is compute-bound (busy ≫ blocked)
//! or starved/backpressured (blocked ≫ busy).
//!
//! Counters are cumulative across runs sharing one registry (Prometheus
//! semantics); per-run exact numbers stay in [`EngineStats`]. The slide
//! latency histogram times each [`ShardProcessor::process_slot`] call —
//! the paper's per-slide latency, measured where the slide happens.
//!
//! With a trace capacity set, each worker keeps a [`FlightRecorder`] ring
//! of its recent events (batch received, slide, bulk-path taken,
//! invariant check, drain) and dumps it to
//! `<trace_out>/flightrec-<shard>.json` on graceful drain *and* — via
//! `swag-trace`'s panic hook — when the worker panics, so a crashed
//! shard's last moments are always on disk.
//!
//! [`EngineStats`]: crate::EngineStats
//! [`ShardProcessor::process_slot`]: crate::ShardProcessor::process_slot

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swag_metrics::clock::Stopwatch;
use swag_metrics::registry::{Counter, Gauge, Histogram, MetricRegistry};
use swag_metrics::{Json, QueueDepthGauge, ToJson};
use swag_trace::hook::TraceGuard;
use swag_trace::FlightRecorder;

/// What the engine should observe about itself during a run.
#[derive(Debug, Clone, Default)]
pub struct ObservabilityConfig {
    /// Registry to maintain the engine's metric series in. Share one
    /// registry between the engine and a
    /// [`HttpServer::metrics`](crate::HttpServer::metrics) to expose a live run.
    pub registry: Option<Arc<MetricRegistry>>,
    /// Flight-recorder ring capacity per shard, in events; 0 disables
    /// tracing.
    pub trace_capacity: usize,
    /// Directory to dump `flightrec-<shard>.json` files into, on graceful
    /// drain and on worker panic. With `None` the rings stay in memory:
    /// events (including the panic event) are recorded but never written
    /// out.
    pub trace_out: Option<PathBuf>,
    /// When set (and a registry is attached), a sampler thread snapshots
    /// queue depths and tuple throughput at this interval into
    /// [`EngineRun::samples`](crate::EngineRun::samples).
    pub sample_interval: Option<Duration>,
    /// Extra labels prepended to every engine series, before the `shard`
    /// label. Lets an embedder attribute series to a scope of its own —
    /// the resident service runs one engine per pipeline against one
    /// shared registry and sets `[("pipeline", name)]` here, so slide
    /// latency and phase occupancy stay separable per pipeline.
    pub labels: Vec<(String, String)>,
}

impl ObservabilityConfig {
    /// True when any instrumentation is switched on.
    pub fn enabled(&self) -> bool {
        self.registry.is_some() || self.trace_capacity > 0
    }

    /// The full label set for a series scoped to `shard` (which may also
    /// be a role like `"router"`): the embedder's extra labels, then
    /// `shard`.
    pub(crate) fn series_labels<'a>(&'a self, shard: &'a str) -> Vec<(&'a str, &'a str)> {
        let mut labels: Vec<(&str, &str)> = self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        labels.push(("shard", shard));
        labels
    }

    /// Build shard `shard`'s instrument bundle, or `None` when everything
    /// is off. Called by the engine once per worker at spawn time; also
    /// registers the shard's queue-depth gauge facets and, on a `timed`
    /// (event-time) run, its watermark-lag gauge.
    pub(crate) fn shard_obs(
        &self,
        shard: usize,
        gauge: &QueueDepthGauge,
        timed: bool,
    ) -> Option<ShardObs> {
        if !self.enabled() {
            return None;
        }
        let label = shard.to_string();
        let labels = self.series_labels(&label);
        let labels = labels.as_slice();
        let reg = self.registry.as_deref();
        if let Some(reg) = reg {
            reg.queue_depth(
                "swag_engine_queue_depth",
                "swag_engine_queue_depth_peak",
                "Inbound queue occupancy in tuples",
                labels,
                gauge,
            );
        }
        // Trace-only runs still tally into free-standing instruments; the
        // atomics are the cheapest uniform representation.
        let counter =
            |name, help| reg.map_or_else(Counter::new, |reg| reg.counter(name, help, labels));
        let level = |name, help| reg.map(|reg| reg.gauge(name, help, labels));
        Some(ShardObs {
            shard,
            tuples: counter("swag_engine_tuples_total", "Keyed tuples processed"),
            answers: counter("swag_engine_answers_total", "Window answers produced"),
            batches: counter("swag_engine_batches_total", "Channel batches received"),
            keys: level("swag_engine_keys", "Distinct keys resident").unwrap_or_else(Gauge::new),
            busy_ns: counter(
                "swag_engine_busy_ns_total",
                "Nanoseconds the worker spent processing batches",
            ),
            blocked_ns: counter(
                "swag_engine_blocked_ns_total",
                "Nanoseconds the worker spent blocked on its queue",
            ),
            slide_latency: reg.map(|reg| {
                reg.histogram(
                    "swag_slide_latency_ns",
                    "Latency of one per-key slide (process_slot call) in nanoseconds",
                    labels,
                )
            }),
            watermark_lag: timed
                .then(|| {
                    level(
                        "swag_engine_watermark_lag",
                        "Largest accepted event timestamp minus the shard's watermark",
                    )
                })
                .flatten(),
            recorder: (self.trace_capacity > 0).then(|| FlightRecorder::new(self.trace_capacity)),
            dump_dir: self.trace_out.clone(),
        })
    }
}

/// One worker's instrument bundle (built on the spawning thread, used on
/// the worker thread).
pub(crate) struct ShardObs {
    pub(crate) shard: usize,
    pub(crate) tuples: Counter,
    pub(crate) answers: Counter,
    pub(crate) batches: Counter,
    pub(crate) keys: Gauge,
    /// Phase occupancy: nanoseconds processing batches. Timed once per
    /// batch, so always on when any observability is.
    pub(crate) busy_ns: Counter,
    /// Phase occupancy: nanoseconds blocked waiting for a batch.
    pub(crate) blocked_ns: Counter,
    /// Present only with a registry: per-slide timing costs two clock
    /// reads per `process_slot`, so it is tied to someone scraping.
    pub(crate) slide_latency: Option<Histogram>,
    /// Event-time runs only: `swag_engine_watermark_lag` (largest
    /// accepted timestamp minus the shard watermark); `None` on the
    /// arrival-order path.
    pub(crate) watermark_lag: Option<Gauge>,
    pub(crate) recorder: Option<FlightRecorder>,
    pub(crate) dump_dir: Option<PathBuf>,
}

impl ShardObs {
    /// Register the calling (worker) thread with the panic hook so a
    /// crash dumps this shard's ring. Hold the guard for the worker's
    /// lifetime.
    pub(crate) fn install_trace(&self) -> Option<TraceGuard> {
        self.recorder.as_ref().map(|rec| {
            swag_trace::hook::register_shard(self.shard, rec.clone(), self.dump_dir.clone())
        })
    }

    /// Write this shard's ring to `dump_dir` after a graceful drain.
    pub(crate) fn dump_on_drain(&self) {
        if let (Some(rec), Some(dir)) = (&self.recorder, &self.dump_dir) {
            if let Err(e) = rec.dump_to_dir(self.shard, dir) {
                eprintln!(
                    "swag-engine: shard {} flight-recorder dump failed: {e}",
                    self.shard
                );
            }
        }
    }
}

/// One sampler observation of the whole engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSample {
    /// Nanoseconds since the run started.
    pub t_ns: u64,
    /// Summed live queue occupancy across shards, in tuples.
    pub queue_depth: u64,
    /// Cumulative tuples processed (`swag_engine_tuples_total` summed
    /// across shards) at sample time.
    pub tuples: u64,
    /// Worst-shard watermark lag (`swag_engine_watermark_lag` max across
    /// shards) at sample time; 0 on arrival-order runs. Sampled every
    /// interval — not only when a batch advances a watermark — so an
    /// idle or stalled pipeline's lag is still visible in the series.
    pub watermark_lag: u64,
}

impl ToJson for EngineSample {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("t_ns", Json::UInt(self.t_ns)),
            ("queue_depth", Json::UInt(self.queue_depth)),
            ("tuples", Json::UInt(self.tuples)),
            ("watermark_lag", Json::UInt(self.watermark_lag)),
        ])
    }
}

/// Sets the sampler's stop flag when dropped — including during an
/// unwind, so a panicking worker cannot leave the sampler thread spinning
/// and deadlock the engine's `thread::scope` join.
pub(crate) struct StopGuard(pub(crate) Arc<AtomicBool>);

impl Drop for StopGuard {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The sampler loop: runs on its own scoped thread, appending one
/// [`EngineSample`] per interval until the stop flag is set.
pub(crate) fn sampler_loop(
    stop: &AtomicBool,
    interval: Duration,
    clock: Stopwatch,
    registry: &MetricRegistry,
    out: &Mutex<Vec<EngineSample>>,
) {
    // Sleep in short slices so a finished run never waits a full
    // interval for the sampler to notice the stop flag.
    let slice = interval
        .min(Duration::from_millis(5))
        .max(Duration::from_micros(100));
    let mut next = interval;
    while !stop.load(Ordering::Acquire) {
        if clock.elapsed() < next {
            std::thread::sleep(slice);
            continue;
        }
        next += interval;
        let snap = registry.snapshot();
        let sample = EngineSample {
            t_ns: clock.elapsed_ns(),
            queue_depth: snap.sum("swag_engine_queue_depth"),
            tuples: snap.sum("swag_engine_tuples_total"),
            watermark_lag: snap.max("swag_engine_watermark_lag"),
        };
        if let Ok(mut samples) = out.lock() {
            samples.push(sample);
        }
    }
}
