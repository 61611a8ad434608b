//! Executor instrumentation (the `obs` feature): flight-recorder events
//! and optional slide-latency timing for [`SharedPlanExecutor`].
//!
//! The uninstrumented build (default) compiles the executor without the
//! observation field or any branches; with `--features obs` an
//! [`ExecObs`] can be attached to narrate the executor's life into a
//! `swag-trace` ring — one [`EventKind::Slide`] per shared-window slide
//! (annotated with the plan edge and answers delivered) and one
//! [`EventKind::BulkEvict`] per `push_batch` fast-path invocation — and,
//! when a histogram is supplied, to time each slide through the
//! sanctioned clock facade.
//!
//! [`SharedPlanExecutor`]: crate::SharedPlanExecutor
//! [`EventKind::Slide`]: swag_trace::EventKind::Slide
//! [`EventKind::BulkEvict`]: swag_trace::EventKind::BulkEvict

use swag_metrics::clock::Stopwatch;
use swag_metrics::registry::Histogram;
use swag_trace::{EventKind, FlightRecorder};

/// Instrumentation attached to one executor.
#[derive(Debug, Clone)]
pub struct ExecObs {
    recorder: FlightRecorder,
    latency: Option<Histogram>,
}

impl ExecObs {
    /// Record events into `recorder`; no latency timing.
    pub fn new(recorder: FlightRecorder) -> Self {
        ExecObs {
            recorder,
            latency: None,
        }
    }

    /// Record events and time every slide into `latency` (two clock
    /// reads per slide).
    pub fn with_latency(recorder: FlightRecorder, latency: Histogram) -> Self {
        ExecObs {
            recorder,
            latency: Some(latency),
        }
    }

    /// The ring events are recorded into.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Start a slide timer when latency timing is on.
    #[inline]
    pub(crate) fn slide_timer(&self) -> Option<Stopwatch> {
        self.latency.as_ref().map(|_| Stopwatch::start())
    }

    /// Finish a slide: record its latency sample (when timed) and its
    /// trace event.
    #[inline]
    pub(crate) fn slide_done(&self, timer: Option<Stopwatch>, edge: u64, answers: u64) {
        if let (Some(hist), Some(timer)) = (&self.latency, timer) {
            hist.record(timer.elapsed_ns());
        }
        self.recorder.record(EventKind::Slide, edge, answers);
    }

    /// Record one `push_batch` bulk fast-path invocation.
    #[inline]
    pub(crate) fn bulk_batch(&self, values: u64, answers: u64) {
        self.recorder.record(EventKind::BulkEvict, values, answers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountSink;
    use crate::source::VecSource;
    use crate::SharedPlanExecutor;
    use swag_core::multi::MultiSlickDequeInv;
    use swag_core::ops::Sum;
    use swag_plan::{Pat, Query, SharedPlan};

    #[test]
    fn executor_narrates_slides_and_bulk_batches() {
        let plan = SharedPlan::build(&[Query::per_tuple(4), Query::per_tuple(2)], Pat::Pairs);
        let op = Sum::<f64>::new();
        let mut exec = SharedPlanExecutor::<_, MultiSlickDequeInv<_>>::new(op, plan);
        let recorder = FlightRecorder::new(64);
        let latency = Histogram::new();
        exec.attach_obs(ExecObs::with_latency(recorder.clone(), latency.clone()));
        let mut sink = CountSink::default();

        // Per-tuple pushes each slide once (one edge, length 1).
        for v in [1.0, 2.0, 3.0] {
            exec.push(v, &mut sink);
        }
        // A batch takes the single bulk fast path instead.
        exec.push_batch(&[4.0, 5.0, 6.0, 7.0], &mut sink);

        let events = recorder.snapshot();
        let slides = events.iter().filter(|e| e.kind == EventKind::Slide).count();
        let bulks: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::BulkEvict)
            .collect();
        assert_eq!(slides, 3, "one slide event per push");
        assert_eq!(bulks.len(), 1, "one bulk event per fast-path batch");
        assert_eq!(bulks[0].a, 4, "bulk event carries the batch length");
        assert_eq!(bulks[0].b, 8, "4 tuples × 2 due queries");
        assert_eq!(latency.count(), 3, "each pushed slide was timed");
        assert_eq!(sink.count, 14, "2 answers per tuple, 7 tuples");

        // The bulk path `obs_overhead --gate` times, in recorder writes:
        // one ring event per fast-path batch, never a write per tuple.
        // (Its sampled half writes one stage record per sampler hit,
        // pinned in `swag_trace::span`'s block-sampling test.)
        const FRAMES: u64 = 5;
        for batch in [64u64, 512, 4096] {
            let values: Vec<f64> = (0..batch).map(|i| i as f64).collect();
            let plan = SharedPlan::build(&[Query::per_tuple(64), Query::per_tuple(16)], Pat::Pairs);
            let recorder = FlightRecorder::new(64);
            let mut exec = SharedPlanExecutor::<_, MultiSlickDequeInv<_>>::new(op, plan);
            exec.attach_obs(ExecObs::new(recorder.clone()));
            for _ in 0..FRAMES {
                exec.push_batch(&values, &mut sink);
            }
            assert_eq!(
                recorder.recorded(),
                FRAMES,
                "batch {batch}: one event per batch"
            );
        }
    }

    #[test]
    fn pull_run_records_slides_without_latency() {
        let plan = SharedPlan::build(&[Query::new(6, 2)], Pat::Pairs);
        let op = Sum::<f64>::new();
        let mut exec = SharedPlanExecutor::<_, MultiSlickDequeInv<_>>::new(op, plan);
        let recorder = FlightRecorder::new(64);
        exec.attach_obs(ExecObs::new(recorder.clone()));
        let mut src = VecSource::new((0..20).map(f64::from).collect());
        let mut sink = CountSink::default();
        exec.run(&mut src, 5, &mut sink);
        let events = recorder.snapshot();
        assert_eq!(
            events.iter().filter(|e| e.kind == EventKind::Slide).count(),
            5,
            "one event per plan-edge slide"
        );
    }
}
