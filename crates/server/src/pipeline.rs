//! Resident pipeline workers: the cycle loop that turns a socket's tuple
//! stream into engine work, answers, metrics, and snapshots.
//!
//! A pipeline owns one worker thread, and that thread holds one
//! [`ResidentEngine`] — its shard threads and their processors — for the
//! pipeline's whole life. The worker blocks on its message queue, then
//! gathers a **cycle** (everything queued, bounded), routing each tuple
//! message straight into the shards as it is taken off the queue. The
//! cycle ends with a barrier: once every shard has processed everything
//! routed to it, the cycle's answers are published, and only then are
//! the pipeline's counters raised, so a reader that sees the count cover
//! n tuples finds their answers in the table. At a barrier every
//! processor is at a batch boundary, so that instant is a
//! drain-consistent cut: snapshot requests (and the snapshot a graceful
//! stop takes) are answered there: each shard saves its own keys on its
//! own thread and carries on, the pipeline thread writes the one file, and
//! restored answers are bitwise-identical — the snapshot never splits a batch.
//!
//! Backpressure: the message queue is a bounded [`sync_channel`]. When
//! cycles fall behind, the queue fills, ingest readers block on `send`,
//! the kernel socket buffers fill, and remote writers stall — the
//! engine's bounded-queue discipline propagated to the wire.
//!
//! A panic in the worker or in one of its shards stops the pipeline: its
//! status reads `stopped`, with the panic message as the error.
//!
//! [`sync_channel`]: std::sync::mpsc::sync_channel

use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Scope};

use swag_core::aggregator::FinalAggregator;
use swag_core::algorithms::{SlickDequeInv, SlickDequeNonInv};
use swag_core::ops::AggregateOp;
use swag_core::ops::{MaxF64, Mean, MinF64, StdDev, Sum, Variance};
use swag_core::state::{PartialCodec, StateError, StateReader, StateWriter, StatefulAggregator};
use swag_data::{Key, KeyedEventSource, KeyedSource};
use swag_engine::{
    shard_of, EngineConfig, EngineStats, KeyedEventWindows, KeyedWindows, ObservabilityConfig,
    ResidentEngine, ShardProcessor,
};
use swag_metrics::clock::Stopwatch;
use swag_metrics::json::Json;
use swag_metrics::registry::{Counter, Gauge, Histogram, MetricRegistry};
use swag_metrics::QueueDepthGauge;
use swag_stream::{TimeWindowExec, TimeWindowSpec};
use swag_trace::{SpanSampler, Stage};

use crate::snapshot::{write_snapshot, KeyState, Snapshot};
use crate::spec::{OpKind, PipelineSpec, PlanKind};

/// Bounded depth of a pipeline's message queue, in messages.
pub(crate) const MSG_QUEUE_CAP: usize = 16;

/// Most messages gathered into one engine cycle.
const MAX_CYCLE_MSGS: usize = 32;

/// A message on a pipeline's queue.
pub(crate) enum Msg {
    /// Tuples from an ingest connection, decoded off the wire at one
    /// service-epoch nanosecond (for ingest-to-answer latency).
    Tuples {
        ingest_ns: u64,
        tuples: Vec<(Key, u64, f64)>,
        /// Lifecycle trace ids the ingest [`SpanSampler`] drew for these
        /// tuples: one block draw reserves consecutive ids.
        traces: Range<u64>,
    },
    /// Snapshot now (between cycles) and reply with the path.
    Snapshot(SyncSender<Result<PathBuf, String>>),
    /// Stop the worker, optionally snapshotting first.
    Stop { snapshot: bool },
}

/// Live pipeline counters, readable from the control plane.
#[derive(Debug, Default, Clone)]
pub struct PipelineStatus {
    /// Tuples processed (after late drops).
    pub tuples: u64,
    /// Answers produced.
    pub answers: u64,
    /// Engine cycles run.
    pub cycles: u64,
    /// Tuples dropped as late (event pipelines).
    pub late: u64,
    /// Distinct keys currently held.
    pub keys: usize,
    /// Event-time watermark (0 on count pipelines).
    pub watermark: u64,
    /// Whether the worker has exited.
    pub stopped: bool,
    /// Fatal worker error, if any.
    pub error: Option<String>,
}

impl PipelineStatus {
    /// The status as control-plane JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tuples", Json::UInt(self.tuples)),
            ("answers", Json::UInt(self.answers)),
            ("cycles", Json::UInt(self.cycles)),
            ("late_tuples", Json::UInt(self.late)),
            ("keys", Json::UInt(self.keys as u64)),
            ("watermark", Json::UInt(self.watermark)),
            ("stopped", Json::Bool(self.stopped)),
            ("error", self.error.clone().map_or(Json::Null, Json::Str)),
        ])
    }
}

/// The latest answer per key (count pipelines) or per `(key, query)`
/// (event pipelines), maintained from each cycle's retained answers and
/// served at `GET /pipelines/{name}/answers`.
#[derive(Debug)]
pub enum AnswerTable {
    /// `key → latest answer`.
    Count(HashMap<Key, f64>),
    /// `(key, query index) → (window end, answer)`.
    Event(HashMap<(Key, usize), (u64, f64)>),
}

impl AnswerTable {
    /// The table as control-plane JSON (sorted, so output is stable).
    pub fn to_json(&self) -> Json {
        match self {
            AnswerTable::Count(map) => {
                let mut rows: Vec<_> = map.iter().map(|(&k, &v)| (k, v)).collect();
                rows.sort_by_key(|&(k, _)| k);
                Json::arr(rows, |(k, v)| {
                    Json::obj(vec![("key", Json::UInt(k)), ("value", Json::Num(v))])
                })
            }
            AnswerTable::Event(map) => {
                let mut rows: Vec<_> = map
                    .iter()
                    .map(|(&(k, q), &(end, v))| (k, q, end, v))
                    .collect();
                rows.sort_by_key(|&(k, q, _, _)| (k, q));
                Json::arr(rows, |(k, q, end, v)| {
                    Json::obj(vec![
                        ("key", Json::UInt(k)),
                        ("query", Json::UInt(q as u64)),
                        ("window_end", Json::UInt(end)),
                        ("value", Json::Num(v)),
                    ])
                })
            }
        }
    }
}

/// Per-pipeline metric handles, all labelled `pipeline=<name>`.
pub(crate) struct PipelineObs {
    tuples: Counter,
    answers: Counter,
    cycles: Counter,
    late: Counter,
    latency: Histogram,
    keys: Gauge,
    watermark: Gauge,
    /// Event-time frontier minus watermark; refreshed every cycle, so an
    /// idle pipeline keeps reporting its last true lag rather than 0.
    lag: Gauge,
    /// Live occupancy of the pipeline's ingest message queue, in tuples
    /// (`swag_pipeline_queue_depth` / `_peak`). Ingest readers increment,
    /// the worker decrements as it absorbs messages into a cycle.
    pub(crate) queue: QueueDepthGauge,
    /// Worker phase occupancy: nanoseconds running cycles.
    busy_ns: Counter,
    /// Worker phase occupancy: nanoseconds blocked on the message queue.
    blocked_ns: Counter,
}

impl PipelineObs {
    pub(crate) fn new(registry: &MetricRegistry, pipeline: &str) -> Self {
        let l = &[("pipeline", pipeline)][..];
        let queue = QueueDepthGauge::new();
        registry.queue_depth(
            "swag_pipeline_queue_depth",
            "swag_pipeline_queue_depth_peak",
            "Ingest message-queue occupancy in tuples",
            l,
            &queue,
        );
        PipelineObs {
            tuples: registry.counter("swag_pipeline_tuples_total", "Tuples processed", l),
            answers: registry.counter("swag_pipeline_answers_total", "Answers produced", l),
            cycles: registry.counter("swag_pipeline_cycles_total", "Engine cycles run", l),
            late: registry.counter("swag_pipeline_late_tuples_total", "Tuples dropped late", l),
            latency: registry.histogram(
                "swag_pipeline_ingest_latency_ns",
                "Ingest-to-answer latency (wire decode to cycle completion)",
                l,
            ),
            keys: registry.gauge("swag_pipeline_keys", "Distinct keys held", l),
            watermark: registry.gauge("swag_pipeline_watermark", "Event-time watermark", l),
            lag: registry.gauge(
                "swag_pipeline_watermark_lag",
                "Event-time frontier minus watermark",
                l,
            ),
            queue,
            busy_ns: registry.counter(
                "swag_pipeline_busy_ns_total",
                "Nanoseconds the pipeline worker spent running cycles",
                l,
            ),
            blocked_ns: registry.counter(
                "swag_pipeline_blocked_ns_total",
                "Nanoseconds the pipeline worker spent blocked on its queue",
                l,
            ),
        }
    }
}

/// Everything a worker thread owns besides its aggregation state.
pub(crate) struct PipelineCtx {
    pub spec: PipelineSpec,
    pub rx: Receiver<Msg>,
    pub status: Arc<Mutex<PipelineStatus>>,
    pub answers: Arc<Mutex<AnswerTable>>,
    pub obs: PipelineObs,
    pub epoch: Stopwatch,
    pub snapshot_dir: PathBuf,
    /// Shared server registry; the engine attaches to it with a
    /// `pipeline=<name>` label so per-shard slide latency and phase
    /// occupancy stay separable per pipeline.
    pub registry: Arc<MetricRegistry>,
    /// Lifecycle trace sampler shared with the pipeline's ingest
    /// readers; `None` when tracing is disabled.
    pub trace: Option<SpanSampler>,
}

impl PipelineCtx {
    /// Record `Dequeue` and `AggStart` for every sampled tuple of a
    /// `tuples`-tuple message entering the engine, keeping their trace
    /// ids in `sampled` for the cycle's later stages.
    fn enter_stages(&self, traces: Range<u64>, tuples: usize, sampled: &mut Vec<u64>) {
        if let Some(trace) = &self.trace {
            for id in traces {
                trace.stage(id, Stage::Dequeue, 0);
                trace.stage(id, Stage::AggStart, tuples as u64);
                sampled.push(id);
            }
        }
    }

    /// Record stage `stage` for every sampled tuple of a cycle.
    fn record_stage(&self, sampled: &[u64], stage: Stage, extra: u64) {
        if let Some(trace) = &self.trace {
            for &id in sampled {
                trace.stage(id, stage, extra);
            }
        }
    }
}

/// A running pipeline as the server sees it.
pub(crate) struct PipelineHandle {
    pub spec: PipelineSpec,
    pub join: Option<JoinHandle<()>>,
    pub status: Arc<Mutex<PipelineStatus>>,
    pub answers: Arc<Mutex<AnswerTable>>,
    /// The way in; cloned per ingest connection.
    pub ingest: IngestTarget,
}

/// Everything an ingest reader needs about its target pipeline.
#[derive(Clone)]
pub(crate) struct IngestTarget {
    pub tx: SyncSender<Msg>,
    /// Clone of the worker's sampler, also read by the control plane's
    /// trace export.
    pub trace: Option<SpanSampler>,
    /// Clone of the worker's ingest-queue gauge, incremented by ingest
    /// readers as they enqueue tuple messages.
    pub queue: QueueDepthGauge,
}

impl PipelineHandle {
    /// The pipeline's spec and live status, as control-plane JSON.
    pub fn describe(&self) -> Json {
        Json::obj(vec![
            ("spec", self.spec.to_json()),
            ("status", self.status.lock().unwrap().to_json()),
        ])
    }
}

/// Update shared status + metrics after a cycle's barrier. Ingest
/// latency is recorded once per message: `stamps` holds each tuple
/// message's `(ingest_ns, tuples)`, a message carrying one decode stamp.
fn record_run(ctx: &PipelineCtx, stats: &EngineStats, stamps: &[(u64, u64)]) {
    let end_ns = ctx.epoch.elapsed_ns();
    for &(ingest_ns, tuples) in stamps {
        ctx.obs
            .latency
            .record_n(end_ns.saturating_sub(ingest_ns), tuples);
    }
    ctx.obs.tuples.add(stats.tuples);
    ctx.obs.answers.add(stats.answers);
    ctx.obs.cycles.inc();
    ctx.obs.late.add(stats.late_tuples);
    ctx.obs.keys.set(stats.keys() as u64);
    ctx.obs.watermark.set(stats.watermark());
    let mut st = ctx.status.lock().unwrap();
    st.tuples += stats.tuples;
    st.answers += stats.answers;
    st.cycles += 1;
    st.late += stats.late_tuples;
    st.keys = stats.keys();
    st.watermark = st.watermark.max(stats.watermark());
}

fn mark_stopped(ctx: &PipelineCtx, error: Option<String>) {
    let mut st = ctx.status.lock().unwrap_or_else(|e| e.into_inner());
    st.stopped = true;
    if st.error.is_none() {
        st.error = error;
    }
}

/// What a plan kind brings to the one pipeline loop: how a shard's
/// processor is rebuilt from and saved into snapshot key blocks, how the
/// engine starts and a message's tuples enter it, and where its answers
/// land.
trait Plan: Send + Sync + 'static {
    /// The per-shard processor the engine runs.
    type Proc: ShardProcessor + 'static;

    /// Rebuild one shard's processor from its share of a snapshot's key
    /// blocks (none for a fresh pipeline).
    fn rebuild(&self, keys: &[&KeyState]) -> Result<Self::Proc, String>;

    /// Capture every key of one shard's processor, in any order
    /// ([`shard_keys`] puts them in key order). Runs on the shard's own
    /// thread, at a snapshot barrier.
    fn save(&self, processor: &Self::Proc) -> Vec<KeyState>;

    /// Start the pipeline's resident engine on `processors`, one per
    /// shard.
    fn start<'scope>(
        &self,
        scope: &'scope Scope<'scope, '_>,
        config: &EngineConfig,
        processors: Vec<Self::Proc>,
    ) -> ResidentEngine<'scope, Self::Proc>;

    /// Route one message's tuples into the engine's shards, raising
    /// `frontier` (the largest timestamp routed) on the event-time path.
    fn route(&self, engine: &mut Engine<'_, Self>, tuples: &[(Key, u64, f64)], frontier: &mut u64);

    /// Where the event-time frontier starts; 0 where time is positional.
    fn frontier(&self) -> u64 {
        0
    }

    /// Fold a cycle's retained answers into the answer table, in order:
    /// each shard retains only each entry's latest answers
    /// ([`EngineConfig::latest_only`]), and a later one comes later.
    fn publish(table: &mut AnswerTable, answers: &[Vec<(Key, Answer<Self>)>]);
}

type Answer<Pl> = <<Pl as Plan>::Proc as ShardProcessor>::Answer;
type Engine<'scope, Pl> = ResidentEngine<'scope, <Pl as Plan>::Proc>;

/// Hands the engine each shard's processor in shard order.
fn in_order<P>(processors: Vec<P>) -> impl FnMut(usize) -> P {
    let mut processors = processors.into_iter();
    move |_| processors.next().expect("one rebuilt processor per shard")
}

/// One message's tuples as a count path source.
struct MessageTuples<'a>(std::slice::Iter<'a, (Key, u64, f64)>);

impl KeyedSource for MessageTuples<'_> {
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        self.0.next().map(|&(key, _, value)| (key, value))
    }
}

/// One shard's key blocks for a snapshot, in key order: canonical bytes
/// whatever order the processor first saw its keys in.
fn shard_keys<Pl: Plan>(plan: &Pl, processor: &Pl::Proc) -> Vec<KeyState> {
    let mut keys = plan.save(processor);
    keys.sort_by_key(|k| k.key);
    keys
}

/// Encode what `save` writes about one key with `op`'s codec.
fn encode_key<O: AggregateOp + PartialCodec>(
    op: &O,
    key: Key,
    save: impl FnOnce(&mut StateWriter<O::Partial>),
) -> KeyState {
    let mut w = StateWriter::new();
    save(&mut w);
    let (words, partials) = w.into_parts();
    KeyState::encode(key, words, &partials, op)
}

/// Decode one key block and `load` live state from all of it.
fn decode_key<O: AggregateOp + PartialCodec, T>(
    op: &O,
    ks: &KeyState,
    load: impl FnOnce(&mut StateReader<'_, O::Partial>) -> Result<T, StateError>,
) -> Result<(Key, T), String> {
    let labelled = |e: StateError| format!("key {}: {e}", ks.key);
    let partials = ks.decode_partials(op).map_err(labelled)?;
    let mut r = StateReader::new(&ks.words, &partials);
    let state = load(&mut r)
        .and_then(|state| r.finish().map(|()| state))
        .map_err(labelled)?;
    Ok((ks.key, state))
}

/// An arrival-order (count-window) plan: one `A` aggregator per key, the
/// SlickDeque flavour for `O`.
struct CountPlan<O, A> {
    op: O,
    window: usize,
    algo: PhantomData<fn() -> A>,
}

impl<O, A> Plan for CountPlan<O, A>
where
    O: AggregateOp<Input = f64, Output = f64> + PartialCodec + Clone + Send + Sync + 'static,
    O::Partial: Send,
    A: FinalAggregator<O> + StatefulAggregator<O> + Send + 'static,
{
    type Proc = KeyedWindows<O, A>;

    fn rebuild(&self, keys: &[&KeyState]) -> Result<Self::Proc, String> {
        let states = keys
            .iter()
            .map(|ks| {
                decode_key(&self.op, ks, |r| {
                    A::load_state(self.op.clone(), self.window, r)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(KeyedWindows::from_states(
            self.op.clone(),
            self.window,
            states,
        ))
    }

    fn save(&self, processor: &Self::Proc) -> Vec<KeyState> {
        processor
            .states()
            .map(|(k, agg)| encode_key(&self.op, k, |w| agg.save_state(w)))
            .collect()
    }

    fn start<'scope>(
        &self,
        scope: &'scope Scope<'scope, '_>,
        config: &EngineConfig,
        processors: Vec<Self::Proc>,
    ) -> ResidentEngine<'scope, Self::Proc> {
        ResidentEngine::start(scope, config, in_order(processors))
    }

    fn route(&self, engine: &mut Engine<'_, Self>, tuples: &[(Key, u64, f64)], _: &mut u64) {
        engine.route_keyed(&mut MessageTuples(tuples.iter()), u64::MAX);
    }

    fn publish(table: &mut AnswerTable, answers: &[Vec<(Key, f64)>]) {
        if let AnswerTable::Count(map) = table {
            for &(k, v) in answers.iter().flatten() {
                map.insert(k, v);
            }
        }
    }
}

/// An event-time plan: one FiBA-backed [`TimeWindowExec`] per key. Each
/// message is a watermarked event source: the frontier persists across
/// messages, so the watermark never regresses when the stream pauses; the
/// low watermark trails it by the spec's allowed lateness and the engine
/// router drops (and counts) anything below it.
struct EventPlan<O> {
    op: O,
    specs: Vec<TimeWindowSpec>,
    lateness: u64,
    frontier: u64,
}

/// One message of an [`EventPlan`] as the engine's event source.
struct CycleEvents<'a> {
    tuples: std::slice::Iter<'a, (Key, u64, f64)>,
    frontier: &'a mut u64,
    lateness: u64,
}

impl KeyedEventSource for CycleEvents<'_> {
    fn next_event(&mut self) -> Option<(Key, u64, f64)> {
        let &(key, ts, value) = self.tuples.next()?;
        *self.frontier = (*self.frontier).max(ts);
        Some((key, ts, value))
    }

    fn low_watermark(&self) -> u64 {
        self.frontier.saturating_sub(self.lateness)
    }
}

impl<O> Plan for EventPlan<O>
where
    O: AggregateOp<Input = f64, Output = f64> + PartialCodec + Clone + Send + Sync + 'static,
    O::Partial: Send + Clone,
{
    type Proc = KeyedEventWindows<O>;

    fn rebuild(&self, keys: &[&KeyState]) -> Result<Self::Proc, String> {
        let states = keys
            .iter()
            .map(|ks| {
                decode_key(&self.op, ks, |r| {
                    let exec = TimeWindowExec::load_state(self.op.clone(), r)?;
                    (exec.specs() == self.specs)
                        .then_some(exec)
                        .ok_or_else(|| StateError::Corrupt("windows differ from the spec's".into()))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(KeyedEventWindows::from_states(
            self.op.clone(),
            self.specs.clone(),
            states,
        ))
    }

    fn save(&self, processor: &Self::Proc) -> Vec<KeyState> {
        processor
            .states()
            .map(|(k, exec)| encode_key(&self.op, k, |w| exec.save_state(w)))
            .collect()
    }

    fn start<'scope>(
        &self,
        scope: &'scope Scope<'scope, '_>,
        config: &EngineConfig,
        processors: Vec<Self::Proc>,
    ) -> ResidentEngine<'scope, Self::Proc> {
        ResidentEngine::start_events(scope, config, None, in_order(processors))
    }

    fn route(&self, engine: &mut Engine<'_, Self>, tuples: &[(Key, u64, f64)], frontier: &mut u64) {
        let mut source = CycleEvents {
            tuples: tuples.iter(),
            frontier,
            lateness: self.lateness,
        };
        engine.route_events(&mut source, u64::MAX);
    }

    fn frontier(&self) -> u64 {
        self.frontier
    }

    fn publish(table: &mut AnswerTable, answers: &[Vec<(Key, (usize, u64, f64))>]) {
        if let AnswerTable::Event(map) = table {
            for &(k, (q, end, v)) in answers.iter().flatten() {
                map.insert((k, q), (end, v));
            }
        }
    }
}

/// The pipeline worker thread: serve until stopped, then record how the
/// pipeline ended — a panic in the worker or in one of its shards leaves
/// it stopped with the panic message as its error.
fn pipeline_worker<Pl: Plan>(
    ctx: PipelineCtx,
    plan: Pl,
    processors: Vec<Pl::Proc>,
    watermark: u64,
) {
    let served = std::panic::catch_unwind(AssertUnwindSafe(|| {
        serve(&ctx, plan, processors, watermark)
    }));
    let error = served.unwrap_or_else(|panic| {
        Some(format!(
            "pipeline worker panicked: {}",
            panic_message(&*panic)
        ))
    });
    mark_stopped(&ctx, error);
}

/// The text a panic was raised with.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    match panic.downcast_ref::<String>() {
        Some(message) => message,
        None => panic
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("no message"),
    }
}

/// The pipeline loop, for every plan: gather a cycle, routing each tuple
/// message into the resident engine as it is taken off the queue; end it
/// with a barrier, publish, then count; answer snapshot requests at a
/// barrier; stop when told. Returns the error a final snapshot met.
fn serve<Pl: Plan>(
    ctx: &PipelineCtx,
    plan: Pl,
    processors: Vec<Pl::Proc>,
    mut watermark: u64,
) -> Option<String> {
    let config = EngineConfig {
        shards: ctx.spec.shards,
        batch: ctx.spec.batch,
        retain_answers: true,
        // The table keeps each entry's latest answer: the shards hand
        // over only those.
        latest_only: true,
        // The shared server registry with a `pipeline=<name>` label (so
        // engine series — slide latency, shard phase occupancy, queue
        // depth — stay separable per pipeline), no rings or samplers.
        obs: ObservabilityConfig {
            registry: Some(Arc::clone(&ctx.registry)),
            labels: vec![("pipeline".to_string(), ctx.spec.name.clone())],
            ..ObservabilityConfig::default()
        },
        ..EngineConfig::default()
    };
    // Resume the watermark where the snapshot cut it (0 for a fresh or an
    // arrival-order pipeline, whose watermark never moves).
    ctx.status.lock().unwrap().watermark = watermark;
    let mut frontier = plan.frontier();
    // Reused from cycle to cycle: each tuple message's `(ingest_ns,
    // tuples)`, the cycle's sampled trace ids, its snapshot requests.
    let mut stamps: Vec<(u64, u64)> = Vec::new();
    let mut sampled: Vec<u64> = Vec::new();
    let mut replies = Vec::new();
    std::thread::scope(|scope| {
        let mut engine = plan.start(scope, &config, processors);
        let mut phase = Stopwatch::start();
        loop {
            // Block for the next message, then take whatever else is
            // queued, up to MAX_CYCLE_MSGS. Every sender gone (the server
            // dropped the handle) means exit without a snapshot: graceful
            // paths always send an explicit `Stop`.
            let mut next = ctx.rx.recv().ok();
            let mut stop = next.is_none().then_some(false);
            ctx.obs.blocked_ns.add(phase.elapsed_ns());
            phase = Stopwatch::start();
            let mut msgs = 0;
            while let Some(msg) = next.take() {
                msgs += 1;
                match msg {
                    Msg::Tuples {
                        ingest_ns,
                        tuples,
                        traces,
                    } => {
                        ctx.obs.queue.dequeued_n(tuples.len() as u64);
                        ctx.enter_stages(traces, tuples.len(), &mut sampled);
                        stamps.push((ingest_ns, tuples.len() as u64));
                        plan.route(&mut engine, &tuples, &mut frontier);
                    }
                    Msg::Snapshot(reply) => replies.push(reply),
                    Msg::Stop { snapshot } => stop = Some(snapshot),
                }
                if stop.is_some() || msgs == MAX_CYCLE_MSGS {
                    break;
                }
                next = match ctx.rx.try_recv() {
                    Ok(m) => Some(m),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => {
                        stop = Some(false);
                        None
                    }
                };
            }
            if !stamps.is_empty() {
                let cut = engine.barrier();
                watermark = watermark.max(cut.stats.watermark());
                ctx.record_stage(&sampled, Stage::AggEnd, cut.stats.answers);
                // Publish first, then count: a reader that sees the
                // counters cover n tuples finds their answers published.
                Pl::publish(&mut ctx.answers.lock().unwrap(), &cut.answers);
                // Published answers are not kept: a burst's buffers are
                // freed rather than held for the pipeline's life.
                for answers in &mut cut.answers {
                    *answers = Vec::new();
                }
                ctx.record_stage(&sampled, Stage::Emit, 0);
                record_run(ctx, &cut.stats, &stamps);
                ctx.obs.lag.set(frontier.saturating_sub(watermark));
                stamps.clear();
                sampled.clear();
            }
            // One snapshot serves the cycle's requests and a graceful stop:
            // the shards save their own keys at a barrier, and here one file.
            let written = (!replies.is_empty() || stop == Some(true)).then(|| {
                let (_, keys) = engine.barrier_with(|processor| shard_keys(&plan, processor));
                let snap = Snapshot {
                    spec: ctx.spec.clone(),
                    watermark,
                    keys: keys.into_iter().flatten().collect(),
                };
                let written = write_snapshot(&ctx.snapshot_dir, &snap);
                for reply in replies.drain(..) {
                    let _ = reply.send(written.clone());
                }
                written
            });
            ctx.obs.busy_ns.add(phase.elapsed_ns());
            phase = Stopwatch::start();
            if let Some(snapshot_first) = stop {
                engine.stop(false);
                return written.filter(|_| snapshot_first).and_then(Result::err);
            }
        }
    })
}

/// Rebuild `plan`'s per-shard processors from `restore` (re-partitioning
/// its keys by [`shard_of`]) and start the pipeline's worker thread.
fn launch<Pl: Plan>(
    plan: Pl,
    ctx: PipelineCtx,
    restore: Option<&Snapshot>,
) -> Result<JoinHandle<()>, String> {
    let shards = ctx.spec.shards;
    let mut groups: Vec<Vec<&KeyState>> = vec![Vec::new(); shards];
    for ks in restore.iter().flat_map(|snap| &snap.keys) {
        groups[shard_of(ks.key, shards)].push(ks);
    }
    let processors = groups
        .iter()
        .map(|group| plan.rebuild(group))
        .collect::<Result<Vec<_>, _>>()?;
    let restored_watermark = restore.map_or(0, |snap| snap.watermark);
    std::thread::Builder::new()
        .name(format!("swag-pipe-{}", ctx.spec.name))
        .spawn(move || pipeline_worker(ctx, plan, processors, restored_watermark))
        .map_err(|e| format!("spawn pipeline thread: {e}"))
}

/// Spawn a pipeline worker for `spec`, optionally seeding it from a
/// snapshot captured under it. Dispatches the plan × op pair to a
/// concrete monomorphised worker.
pub(crate) fn spawn_pipeline(
    spec: PipelineSpec,
    restore: Option<&Snapshot>,
    registry: &Arc<MetricRegistry>,
    epoch: Stopwatch,
    snapshot_dir: PathBuf,
    trace: Option<SpanSampler>,
) -> Result<PipelineHandle, String> {
    spec.validate()?;
    let (tx, rx) = std::sync::mpsc::sync_channel::<Msg>(MSG_QUEUE_CAP);
    let status = Arc::new(Mutex::new(PipelineStatus::default()));
    let answers = Arc::new(Mutex::new(match spec.plan {
        PlanKind::Count { .. } => AnswerTable::Count(HashMap::new()),
        PlanKind::Event { .. } => AnswerTable::Event(HashMap::new()),
    }));
    let obs = PipelineObs::new(registry, &spec.name);
    let queue = obs.queue.clone();
    let ctx = PipelineCtx {
        spec: spec.clone(),
        rx,
        status: Arc::clone(&status),
        answers: Arc::clone(&answers),
        obs,
        epoch,
        snapshot_dir,
        registry: Arc::clone(registry),
        trace: trace.clone(),
    };

    // One monomorphised worker per plan × op. Count plans run `$slick`,
    // the SlickDeque flavour matching the op class: Inv for invertible
    // ops, Non-Inv for selective ones. Event plans run FiBA.
    macro_rules! pipe {
        ($op:expr, $slick:ident) => {
            match spec.plan {
                PlanKind::Count { window } => {
                    let algo = PhantomData::<fn() -> $slick<_>>;
                    let op = $op;
                    launch(CountPlan { op, window, algo }, ctx, restore)?
                }
                PlanKind::Event {
                    range,
                    slide,
                    lateness,
                } => {
                    let plan = EventPlan {
                        op: $op,
                        specs: vec![TimeWindowSpec::new(range, slide)],
                        lateness,
                        // Placed so the first cycle's low watermark
                        // starts at exactly the restored value; every
                        // restored executor already sits at or above it.
                        frontier: restore.map_or(0, |s| s.watermark).saturating_add(lateness),
                    };
                    launch(plan, ctx, restore)?
                }
            }
        };
    }
    let join = match spec.op {
        OpKind::Sum => pipe!(Sum::<f64>::new(), SlickDequeInv),
        OpKind::Mean => pipe!(Mean::new(), SlickDequeInv),
        OpKind::Variance => pipe!(Variance::new(), SlickDequeInv),
        OpKind::StdDev => pipe!(StdDev::new(), SlickDequeInv),
        OpKind::Max => pipe!(MaxF64::new(), SlickDequeNonInv),
        OpKind::Min => pipe!(MinF64::new(), SlickDequeNonInv),
    };
    Ok(PipelineHandle {
        spec,
        join: Some(join),
        status,
        answers,
        ingest: IngestTarget { tx, trace, queue },
    })
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::RecvTimeoutError;

    use swag_core::aggregator::MemoryFootprint;

    use swag_data::SplitMix64;

    use super::*;
    use crate::server::SNAPSHOT_TIMEOUT;

    const KEYS: [Key; 4] = [9, 2, 40, 17];

    /// A count window that panics as it slides or, with `AT_SAVE`, as a
    /// snapshot barrier saves it.
    struct Faulty<const AT_SAVE: bool>(usize);

    impl<const AT_SAVE: bool> MemoryFootprint for Faulty<AT_SAVE> {
        fn heap_bytes(&self) -> usize {
            0
        }
    }

    impl<const AT_SAVE: bool> FinalAggregator<Sum<f64>> for Faulty<AT_SAVE> {
        const NAME: &'static str = "faulty";

        fn with_capacity(_: Sum<f64>, window: usize) -> Self {
            Faulty(window)
        }

        fn slide(&mut self, partial: f64) -> f64 {
            if !AT_SAVE {
                panic!("injected shard fault");
            }
            partial
        }

        fn window(&self) -> usize {
            self.0
        }

        fn len(&self) -> usize {
            0
        }

        fn evict(&mut self) {}
    }

    impl<const AT_SAVE: bool> StatefulAggregator<Sum<f64>> for Faulty<AT_SAVE> {
        fn save_state(&self, _: &mut StateWriter<f64>) {
            panic!("injected save fault");
        }

        fn load_state(
            _: Sum<f64>,
            window: usize,
            _: &mut StateReader<'_, f64>,
        ) -> Result<Self, StateError> {
            Ok(Faulty(window))
        }
    }

    /// A shard that panics — as it slides, or as it saves its keys at a
    /// snapshot barrier — stops its pipeline loudly: `stopped`, with the
    /// shard's panic message as the error. A snapshot request waiting on
    /// that pipeline gets an error at once, not a timeout.
    #[test]
    fn a_shard_panic_stops_the_pipeline_with_its_message() {
        fail_a_pipeline::<false>("injected shard fault");
        fail_a_pipeline::<true>("injected save fault");
    }

    fn fail_a_pipeline<const AT_SAVE: bool>(message: &str) {
        let spec = PipelineSpec {
            name: "doomed".into(),
            op: OpKind::Sum,
            plan: PlanKind::Count { window: 8 },
            shards: 2,
            batch: 4,
            slo: None,
        };
        let registry = Arc::new(MetricRegistry::new());
        let (tx, rx) = std::sync::mpsc::sync_channel(MSG_QUEUE_CAP);
        let status = Arc::new(Mutex::new(PipelineStatus::default()));
        let ctx = PipelineCtx {
            spec: spec.clone(),
            rx,
            status: Arc::clone(&status),
            answers: Arc::new(Mutex::new(AnswerTable::Count(HashMap::new()))),
            obs: PipelineObs::new(&registry, &spec.name),
            epoch: Stopwatch::start(),
            snapshot_dir: std::env::temp_dir().join("swag-doomed-never-written"),
            registry,
            trace: None,
        };
        let plan = CountPlan {
            op: Sum::<f64>::new(),
            window: 8,
            algo: PhantomData::<fn() -> Faulty<AT_SAVE>>,
        };
        let worker = launch(plan, ctx, None).expect("the pipeline starts");
        tx.send(Msg::Tuples {
            ingest_ns: 0,
            tuples: (0..64).map(|key| (key, 0, 1.0)).collect(),
            traces: 0..0,
        })
        .unwrap();
        // A pipeline already stopped drops the request, and with it the
        // reply channel, just as a failed barrier does.
        let (reply, replied) = std::sync::mpsc::sync_channel(1);
        let _ = tx.send(Msg::Snapshot(reply));
        let replied = replied.recv_timeout(SNAPSHOT_TIMEOUT);
        assert!(
            matches!(replied, Err(RecvTimeoutError::Disconnected)),
            "{message}: snapshot reply {replied:?}"
        );
        worker
            .join()
            .expect("the pipeline thread catches the panic");
        let status = status.lock().unwrap();
        assert!(status.stopped);
        let error = status.error.as_deref().unwrap_or("");
        assert!(error.contains(message), "error: {error:?}");
    }

    /// A shard's snapshot bytes after feeding every key the same stream,
    /// `step` tuples per key, the keys interleaved in `order`. Each
    /// processor first sees its keys in that order.
    fn snapshot_after<Pl: Plan>(
        plan: &Pl,
        plan_kind: PlanKind,
        order: &[Key],
        tuple: impl Fn(Key, u64) -> <Pl::Proc as ShardProcessor>::Value,
    ) -> Vec<u8> {
        let mut processor = plan.rebuild(&[]).expect("a fresh processor");
        let mut out = Vec::new();
        for step in 0..24 {
            for &key in order {
                processor.process(key, tuple(key, step), &mut out);
            }
        }
        processor.advance_watermark(12, &mut out);
        Snapshot {
            spec: PipelineSpec {
                name: "canonical".into(),
                op: OpKind::Sum,
                plan: plan_kind,
                shards: 1,
                batch: 256,
                slo: None,
            },
            watermark: 12,
            keys: shard_keys(plan, &processor),
        }
        .encode()
    }

    /// A valid snapshot of `plan` (captured under `op` and `kind`) after
    /// a seeded stream, `tuple(step, draw)` building each tuple; then every
    /// state word and the partial count of every key set to 0, 1, one
    /// below or above its own value, and `u64::MAX`, the checksum
    /// re-sealed. Each edit must be refused, or rebuild a processor that
    /// passes its invariant checks, takes more of the stream and a
    /// watermark advance, and passes them again; a panic fails the caller.
    /// Returns how many edits were refused and how many rebuilt.
    fn edit_every_word<Pl: Plan>(
        plan: &Pl,
        op: OpKind,
        kind: PlanKind,
        tuple: impl Fn(u64, u64) -> <Pl::Proc as ShardProcessor>::Value,
    ) -> (usize, usize) {
        let mut rng = SplitMix64::new(0x5eed_0043);
        let mut processor = plan.rebuild(&[]).expect("a fresh processor");
        let mut out = Vec::new();
        for step in 0..24 {
            for key in 0..6 {
                let draw = rng.next_u64();
                // Some keys stay short of a full window.
                if draw % 4 < key % 4 {
                    processor.process(key, tuple(step, draw >> 8), &mut out);
                }
            }
        }
        processor.advance_watermark(40, &mut out);
        let spec = PipelineSpec {
            name: "edited".into(),
            op,
            plan: kind,
            shards: 1,
            batch: 256,
            slo: None,
        };
        let snap = Snapshot {
            spec,
            watermark: 40,
            keys: shard_keys(plan, &processor),
        };
        let (mut refused, mut rebuilt) = (0, 0);
        for (k, ks) in snap.keys.iter().enumerate() {
            // Each state word, then (at `w` = the word count) the partial
            // count.
            for w in 0..=ks.words.len() {
                let own = ks.words.get(w).copied().unwrap_or(ks.partial_count);
                for value in [0, 1, own.wrapping_sub(1), own.wrapping_add(1), u64::MAX] {
                    let mut edited = snap.clone();
                    let field = &mut edited.keys[k];
                    *field.words.get_mut(w).unwrap_or(&mut field.partial_count) = value;
                    let what = format!("key {} word {w}: {own} -> {value}", ks.key);
                    let restored = Snapshot::decode(&edited.encode());
                    let rebuild = |s: Snapshot| plan.rebuild(&s.keys.iter().collect::<Vec<_>>());
                    let Ok(mut processor) = restored.and_then(rebuild) else {
                        refused += 1;
                        continue;
                    };
                    if let Err(violation) = processor.check_invariants() {
                        panic!("{what}: restored, yet {violation}");
                    }
                    for step in 24..32 {
                        for key in 0..6 {
                            processor.process(key, tuple(step, rng.next_u64() >> 8), &mut out);
                        }
                    }
                    processor.advance_watermark(80, &mut out);
                    if let Err(violation) = processor.check_invariants() {
                        panic!("{what}: restored and fed, yet {violation}");
                    }
                    rebuilt += 1;
                }
            }
        }
        (refused, rebuilt)
    }

    /// Restore treats a snapshot's key blocks as untrusted input, for
    /// each state layout: SlickDeque Inv (count Sum), SlickDeque Non-Inv
    /// (count Max) and FiBA (event Max).
    #[test]
    fn an_edited_state_word_is_refused_or_restores_sound_state() {
        // Integer values keep the Inv running-answer refold exact.
        let value = |draw: u64| (draw % 16) as f64 - 8.0;
        let inv = CountPlan {
            op: Sum::<f64>::new(),
            window: 8,
            algo: PhantomData::<fn() -> SlickDequeInv<Sum<f64>>>,
        };
        let kind = PlanKind::Count { window: 8 };
        let tally = edit_every_word(&inv, OpKind::Sum, kind, |_, draw| value(draw));
        assert!(tally.0 > 0 && tally.1 > 0, "inv: {tally:?}");
        let non_inv = CountPlan {
            op: MaxF64::new(),
            window: 8,
            algo: PhantomData::<fn() -> SlickDequeNonInv<MaxF64>>,
        };
        let tally = edit_every_word(&non_inv, OpKind::Max, kind, |_, draw| value(draw));
        assert!(tally.0 > 0 && tally.1 > 0, "non-inv: {tally:?}");
        let fiba = EventPlan {
            op: MaxF64::new(),
            specs: vec![TimeWindowSpec::new(8, 4)],
            lateness: 0,
            frontier: 0,
        };
        let kind = PlanKind::Event {
            range: 8,
            slide: 4,
            lateness: 0,
        };
        let stamped = |step, draw| (step * 3 + draw % 5, value(draw >> 3));
        let tally = edit_every_word(&fiba, OpKind::Max, kind, stamped);
        assert!(tally.0 > 0 && tally.1 > 0, "fiba: {tally:?}");
    }

    /// A restored executor whose own windows differ from the spec's is
    /// refused: it would answer for windows the pipeline never asked for.
    #[test]
    fn a_restored_executor_must_carry_the_spec_windows() {
        let plan = |range| EventPlan {
            op: Sum::<f64>::new(),
            specs: vec![TimeWindowSpec::new(range, 4)],
            lateness: 0,
            frontier: 0,
        };
        let mut processor = plan(8).rebuild(&[]).expect("a fresh processor");
        processor.process(3, (5, 1.0), &mut Vec::new());
        let keys = shard_keys(&plan(8), &processor);
        let keys: Vec<&KeyState> = keys.iter().collect();
        assert!(plan(8).rebuild(&keys).is_ok());
        let err = plan(12)
            .rebuild(&keys)
            .map(drop)
            .expect_err("range 12 saved as 8");
        assert!(err.contains("windows differ"), "{err}");
    }

    /// Snapshot bytes do not depend on the order keys first arrived in,
    /// for either plan kind.
    #[test]
    fn snapshots_are_canonical_across_key_arrival_orders() {
        let reversed: Vec<Key> = KEYS.iter().rev().copied().collect();
        let rotated: Vec<Key> = KEYS[1..].iter().chain(&KEYS[..1]).copied().collect();

        let count = CountPlan {
            op: Sum::<f64>::new(),
            window: 8,
            algo: PhantomData::<fn() -> SlickDequeInv<Sum<f64>>>,
        };
        let kind = PlanKind::Count { window: 8 };
        let value = |key: Key, step: u64| (key * 3 + step % 5) as f64;
        let reference = snapshot_after(&count, kind, &KEYS, value);
        for order in [&reversed, &rotated] {
            assert_eq!(snapshot_after(&count, kind, order, value), reference);
        }

        let event = EventPlan {
            op: Sum::<f64>::new(),
            specs: vec![TimeWindowSpec::new(8, 4)],
            lateness: 0,
            frontier: 0,
        };
        let kind = PlanKind::Event {
            range: 8,
            slide: 4,
            lateness: 0,
        };
        let stamped = |key: Key, step: u64| (step, value(key, step));
        let reference = snapshot_after(&event, kind, &KEYS, stamped);
        for order in [&reversed, &rotated] {
            assert_eq!(snapshot_after(&event, kind, order, stamped), reference);
        }
    }
}
