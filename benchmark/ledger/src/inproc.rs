//! `inproc_count`: DEBS-shaped values through
//! `SharedPlanExecutor::push_batch` in frames of 512, closed loop, one
//! thread. Four configurations take turns in equal-tuple chunks:
//! {`Sum` on SlickDeque (Inv), `MaxF64` on SlickDeque (Non-Inv)} ×
//! {single ACQ 1024:1, shared plan 64:16 / 256:16 / 1024:16 / 4096:64}.

use std::time::{Duration, Instant};

use swag_core::aggregator::MultiFinalAggregator;
use swag_core::multi::{MultiSlickDequeInv, MultiSlickDequeNonInv};
use swag_core::ops::{AggregateOp, MaxF64, Sum};
use swag_plan::{Pat, Query, SharedPlan};
use swag_stream::{SharedPlanExecutor, Sink};

use crate::common::{self, HeapMark, Pass};
use crate::replay;
use crate::span::Tracer;
use crate::spec::{INPROC_BLOCK, INPROC_CHUNK_FRAMES, INPROC_FRAME, PLAN_ACQS, SINGLE_ACQ};
use crate::stats;

/// Configurations taking turns.
const CONFIGS: usize = 4;

/// Most queries a configuration answers.
const MAX_QUERIES: usize = 4;

/// Oracle samples kept per configuration (one per chunk until full).
const SAMPLE_CAP: usize = 1 << 15;

/// The harness's own per-configuration buffers, allocated before the heap
/// mark so the timed section never grows them.
struct Buffers {
    latencies: Vec<u64>,
    samples: Vec<(u64, [f64; MAX_QUERIES])>,
}

impl Buffers {
    fn with_capacity(latency_cap: usize) -> Self {
        Buffers {
            latencies: Vec::with_capacity(latency_cap),
            samples: Vec::with_capacity(SAMPLE_CAP),
        }
    }
}

/// Keeps the latest answer per query and counts deliveries: the cheapest
/// sink that still lets the oracle check what the executor produced.
struct LastSink {
    last: [f64; MAX_QUERIES],
    count: u64,
}

impl Sink<f64> for LastSink {
    #[inline]
    fn deliver(&mut self, query_idx: usize, answer: f64) {
        self.last[query_idx] = answer;
        self.count += 1;
    }
}

/// The plan of one configuration.
pub fn build_plan(acqs: &[(u64, u64)]) -> SharedPlan {
    let queries: Vec<Query> = acqs.iter().map(|&(r, s)| Query::new(r, s)).collect();
    SharedPlan::build(&queries, Pat::Pairs)
}

/// One configuration's turn-taking interface (the four differ in type).
trait Segment {
    /// Span name.
    fn name(&self) -> &'static str;
    /// The per-layer metric its cost per tuple is reported under.
    fn metric(&self) -> &'static str;
    /// Push `frames` frames, timing each; returns the chunk's duration.
    fn run_chunk(&mut self, values: &[f64], frames: usize) -> Duration;
    fn fed(&self) -> u64;
    fn latencies(&mut self) -> &mut Vec<u64>;
    /// `(answers checked, mismatches)` against a direct recompute.
    fn check(&self, values: &[f64]) -> (u64, u64);
}

struct ExecSegment<O, M>
where
    O: AggregateOp<Input = f64, Partial = f64> + Clone,
    M: MultiFinalAggregator<O>,
{
    name: &'static str,
    metric: &'static str,
    acqs: Vec<(u64, u64)>,
    exec: SharedPlanExecutor<O, M>,
    sink: LastSink,
    /// Reference fold of a window's values, oldest first.
    fold: fn(&[f64]) -> f64,
    fed: u64,
    pos: usize,
    latencies: Vec<u64>,
    samples: Vec<(u64, [f64; MAX_QUERIES])>,
}

impl<O, M> ExecSegment<O, M>
where
    O: AggregateOp<Input = f64, Partial = f64> + Clone,
    M: MultiFinalAggregator<O>,
{
    fn new(
        name: &'static str,
        metric: &'static str,
        op: O,
        acqs: &[(u64, u64)],
        fold: fn(&[f64]) -> f64,
        buffers: Buffers,
    ) -> Self {
        ExecSegment {
            name,
            metric,
            acqs: acqs.to_vec(),
            exec: SharedPlanExecutor::new(op, build_plan(acqs)),
            sink: LastSink {
                last: [0.0; MAX_QUERIES],
                count: 0,
            },
            fold,
            fed: 0,
            pos: 0,
            latencies: buffers.latencies,
            samples: buffers.samples,
        }
    }
}

impl<O, M> Segment for ExecSegment<O, M>
where
    O: AggregateOp<Input = f64, Partial = f64> + Clone,
    M: MultiFinalAggregator<O>,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn metric(&self) -> &'static str {
        self.metric
    }

    fn run_chunk(&mut self, values: &[f64], frames: usize) -> Duration {
        let started = Instant::now();
        let mut prev = started;
        for _ in 0..frames {
            let frame = &values[self.pos..self.pos + INPROC_FRAME];
            self.exec.push_batch(frame, &mut self.sink);
            // One clock read per frame: a frame's time-to-answer runs from
            // the previous frame's return (closed loop) to its own.
            let now = Instant::now();
            if self.latencies.len() < self.latencies.capacity() {
                self.latencies.push((now - prev).as_nanos() as u64);
            }
            prev = now;
            self.pos += INPROC_FRAME;
            if self.pos == values.len() {
                self.pos = 0;
            }
        }
        self.fed += (frames * INPROC_FRAME) as u64;
        let elapsed = prev - started;
        if self.samples.len() < self.samples.capacity() {
            self.samples.push((self.fed, self.sink.last));
        }
        elapsed
    }

    fn fed(&self) -> u64 {
        self.fed
    }

    fn latencies(&mut self) -> &mut Vec<u64> {
        &mut self.latencies
    }

    fn check(&self, values: &[f64]) -> (u64, u64) {
        let mut checked = 0u64;
        let mut wrong = 0u64;
        let mut window = Vec::new();
        for &(fed, last) in &self.samples {
            for (qi, &(range, slide)) in self.acqs.iter().enumerate() {
                // Samples sit on chunk boundaries, which every slide divides.
                debug_assert_eq!(fed % slide, 0);
                window.clear();
                window.extend(
                    (fed.saturating_sub(range)..fed).map(|i| values[i as usize % values.len()]),
                );
                checked += 1;
                if (self.fold)(&window).to_bits() != last[qi].to_bits() {
                    wrong += 1;
                }
            }
        }
        // Every due answer was delivered, warm-up included.
        let due: u64 = self.acqs.iter().map(|&(_, slide)| self.fed / slide).sum();
        checked += 1;
        if self.sink.count != due {
            wrong += 1;
        }
        (checked, wrong)
    }
}

fn sum_fold(window: &[f64]) -> f64 {
    window.iter().sum()
}

fn max_fold(window: &[f64]) -> f64 {
    window.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The four configurations, in turn order. Names match the
/// `stream.executor.*` per-layer metrics.
fn segments(mut buffers: Vec<Buffers>) -> Vec<Box<dyn Segment>> {
    let single = [SINGLE_ACQ];
    let mut next = || buffers.pop().expect("one buffer set per configuration");
    vec![
        Box::new(ExecSegment::<_, MultiSlickDequeInv<_>>::new(
            "stream.executor.sum_single",
            "stream.executor.sum_single.ns_per_tuple",
            Sum::<f64>::new(),
            &single,
            sum_fold,
            next(),
        )),
        Box::new(ExecSegment::<_, MultiSlickDequeNonInv<_>>::new(
            "stream.executor.max_single",
            "stream.executor.max_single.ns_per_tuple",
            MaxF64::new(),
            &single,
            max_fold,
            next(),
        )),
        Box::new(ExecSegment::<_, MultiSlickDequeInv<_>>::new(
            "stream.executor.sum_plan",
            "stream.executor.sum_plan.ns_per_tuple",
            Sum::<f64>::new(),
            &PLAN_ACQS,
            sum_fold,
            next(),
        )),
        Box::new(ExecSegment::<_, MultiSlickDequeNonInv<_>>::new(
            "stream.executor.max_plan",
            "stream.executor.max_plan.ns_per_tuple",
            MaxF64::new(),
            &PLAN_ACQS,
            max_fold,
            next(),
        )),
    ]
}

struct Ready {
    values: Vec<f64>,
    segments: Vec<Box<dyn Segment>>,
    /// Round durations, seconds; sized before the heap mark.
    rounds: Vec<f64>,
    heap: HeapMark,
}

fn setup(seed: u64, seconds: f64) -> Ready {
    let values = replay::debs_values(seed, INPROC_BLOCK);
    // Room for every frame of a run four times faster than any seen, so
    // the timed section never grows a harness buffer.
    let latency_cap = (seconds * 2e5) as usize + 4096;
    let buffers = (0..CONFIGS)
        .map(|_| Buffers::with_capacity(latency_cap))
        .collect();
    let rounds = Vec::with_capacity((seconds * 2e3) as usize + 1024);
    let heap = HeapMark::start();
    let mut segments = segments(buffers);
    for seg in &mut segments {
        // One chunk is 16 times the largest window: timing starts in the
        // steady state, and on a slide boundary of every query.
        seg.run_chunk(&values, INPROC_CHUNK_FRAMES);
        seg.latencies().clear();
    }
    Ready {
        values,
        segments,
        rounds,
        heap,
    }
}

/// Run the workload: `setups` set-ups (the last one is measured), then
/// `seconds` of rounds.
pub fn run(seed: u64, seconds: f64, setups: usize, tracer: &mut Tracer) -> Pass {
    let (mut ready, setup_s) = common::timed_setups(setups, || setup(seed, seconds));
    let root = tracer.open("inproc_count", None);
    let cpu_before = common::cpu_ns();
    let warm_fed: u64 = ready.segments.iter().map(|s| s.fed()).sum();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut per_segment = vec![Duration::ZERO; ready.segments.len()];
    while Instant::now() < deadline {
        let round = tracer.open("inproc.round", root);
        let mut busy = Duration::ZERO;
        for (i, seg) in ready.segments.iter_mut().enumerate() {
            let start_ns = tracer.now_ns();
            let took = seg.run_chunk(&ready.values, INPROC_CHUNK_FRAMES);
            tracer.record_elapsed(seg.name(), round, start_ns, took);
            busy += took;
            per_segment[i] += took;
        }
        if ready.rounds.len() < ready.rounds.capacity() {
            ready.rounds.push(busy.as_secs_f64());
        }
        tracer.close(round);
    }
    let cpu_ns = common::cpu_ns() - cpu_before;
    let peak_heap_mb = ready.heap.peak_mb();
    tracer.close(root);

    let fed: u64 = ready.segments.iter().map(|s| s.fed()).sum();
    let attempted = fed - warm_fed;
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut summaries = Vec::new();
    let mut extra = std::collections::BTreeMap::new();
    for (seg, took) in ready.segments.iter_mut().zip(&per_segment) {
        let (checked, wrong) = seg.check(&ready.values);
        if wrong > 0 {
            notes.push(format!(
                "{}: {wrong} of {checked} sampled answers differ from the oracle",
                seg.name()
            ));
        }
        failed += wrong;
        let timed = attempted / CONFIGS as u64;
        extra.insert(seg.metric(), took.as_nanos() as f64 / timed as f64);
        let name = seg.name();
        match stats::summarize(seg.latencies()) {
            Some(s) => summaries.push(s),
            None => notes.push(format!("{name}: too few frames for a latency tail")),
        }
    }
    let complete = summaries.len() == ready.segments.len();
    // One round pushes a chunk through each configuration; the median
    // round's rate is reported, so a preempted round does not set it.
    let round_tuples = (CONFIGS * INPROC_CHUNK_FRAMES * INPROC_FRAME) as f64;
    Pass {
        setup_s,
        tuples_per_s: round_tuples / stats::median(&ready.rounds),
        latency: complete.then(|| common::mean_summary(&summaries)),
        peak_heap_mb,
        attempted,
        failed,
        correct: failed == 0 && complete,
        cpu_ns_per_tuple: cpu_ns as f64 / attempted as f64,
        extra,
        notes,
    }
}
