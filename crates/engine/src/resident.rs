//! The resident engine: shard workers spawned once, fed across many runs.
//!
//! [`ResidentEngine::start`] spawns one worker per shard on the caller's
//! [`std::thread::scope`] and hands each its [`ShardProcessor`]; the
//! workers live until [`stop`](ResidentEngine::stop). In between, the
//! caller routes tuples ([`route_keyed`](ResidentEngine::route_keyed),
//! [`route_events`](ResidentEngine::route_events)) and ends any stretch of
//! them with a **barrier** ([`barrier`](ResidentEngine::barrier)).
//!
//! A barrier is a real queue item. The router first flushes its partial
//! batches (and, on the event-time path, broadcasts the watermark to every
//! shard, as a run's end does), then queues a barrier behind them on each
//! shard. A worker answers it only after everything routed before it, with
//! the answers, tuple/answer/batch counts and key count since the previous
//! barrier: an [`EngineRun`] of that stretch. Every processor then sits at
//! a batch boundary, so [`barrier_with`](ResidentEngine::barrier_with)
//! can also have each worker run a save step on its own drain-consistent
//! processor (for a snapshot) and carry on: a processor crosses a thread
//! only at [`start`](ResidentEngine::start) and [`stop`](ResidentEngine::stop).
//!
//! A worker takes batches in **drains** of four (fewer only ahead of a
//! control item or the end of the stream). It groups their tuples by key
//! once, runs each key once, and raises its watermark once, to the
//! highest the drained batches carry, after all their tuples. Which
//! batches share a drain depends on the stream alone, so every run makes
//! the same processor calls. A barrier is taken alone and cuts the drain
//! before it short, so it still reports exactly the batches routed before
//! it, and no stretch waits on a drain that will not fill.
//!
//! [`ShardedEngine::run`](crate::ShardedEngine::run) and its siblings are
//! this engine started, fed one source, and stopped: there is one
//! per-tuple router step and one worker loop.
//!
//! A worker that panics fails the engine with its own panic: the router
//! notices at its next hand-off or barrier, closes every queue, joins the
//! workers and resumes the first worker panic on the calling thread.

use std::any::Any;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

use swag_data::event::KeyedEventSource;
use swag_data::keyed::{Key, KeyedSource};
use swag_metrics::clock::Stopwatch;
use swag_metrics::QueueDepthGauge;
use swag_trace::EventKind;

use crate::event::OnTime;
use crate::keyed::ShardProcessor;
use crate::obs::{sampler_loop, EngineSample, ShardObs, StopGuard};
use crate::queue::{batch_queue, Batch, BatchReceiver, BatchSender, Item, Taken};
use crate::shard::{shard_of, EngineConfig, EngineRun};
use crate::slots::SlotGroups;
use crate::stats::{EngineStats, ShardStats};

/// Long-lived shard workers behind one router. See the [module
/// docs](self).
pub struct ResidentEngine<'scope, P: ShardProcessor> {
    lanes: Vec<Lane<'scope, P>>,
    batch: usize,
    workers: Vec<ScopedJoinHandle<'scope, (Report<P>, P)>>,
    /// The event-time late-drop rule, persistent across routed sources;
    /// `None` on the arrival-order path.
    time: Option<OnTime>,
    /// The stretch up to the last barrier.
    cut: EngineRun<P::Answer>,
    /// Late drops counted up to the previous barrier.
    late_mark: u64,
    started: Stopwatch,
    since_cut: Stopwatch,
    sampler: Option<ScopedJoinHandle<'scope, ()>>,
    sampler_stop: StopGuard,
    samples: Arc<Mutex<Vec<EngineSample>>>,
}

/// The router's end of one shard.
struct Lane<'scope, P: ShardProcessor> {
    tx: BatchSender<(Key, P::Value), Control<'scope, P>>,
    reports: Receiver<Report<P>>,
    gauge: QueueDepthGauge,
    /// The batch being filled.
    open: Vec<(Key, P::Value)>,
}

/// The worker's end of one shard.
struct WorkerEnd<'scope, P: ShardProcessor> {
    shard: usize,
    inbox: BatchReceiver<(Key, P::Value), Control<'scope, P>>,
    reports: SyncSender<Report<P>>,
    gauge: QueueDepthGauge,
    /// Tuples per routed batch, at most.
    batch: usize,
    retain: Retain,
    check_invariants: bool,
}

/// Which of its answers a worker keeps for the next barrier. Only
/// `Every` needs every window answer: the others advance the processor
/// with [`ShardProcessor::advance_latest`] and catch it up with
/// [`ShardProcessor::settle`] before anyone reads it.
#[derive(Clone, Copy)]
enum Retain {
    Nothing,
    Every,
    /// Each entry's last answer per key per drain
    /// ([`ShardProcessor::same_entry`]).
    Latest,
}

impl Retain {
    /// Raise `processor`'s watermark to `watermark`, appending the
    /// answers this retention needs to `scratch`; returns how many more
    /// answers the advance produced than it appended.
    fn close_due<P: ShardProcessor>(
        self,
        processor: &mut P,
        watermark: u64,
        scratch: &mut Vec<(Key, P::Answer)>,
    ) -> u64 {
        if let Retain::Every = self {
            processor.advance_watermark(watermark, scratch);
            return 0;
        }
        let before = scratch.len();
        processor.advance_latest(watermark, scratch) - (scratch.len() - before) as u64
    }
}

/// Catch `processor` up with [`ShardProcessor::settle`], appending to
/// `scratch`; returns how many more answers that produced than it
/// appended.
fn catch_up<P: ShardProcessor>(processor: &mut P, scratch: &mut Vec<(Key, P::Answer)>) -> u64 {
    let before = scratch.len();
    processor.settle(scratch) - (scratch.len() - before) as u64
}

/// What a save step read from one shard's processor.
type Saved = Box<dyn Any + Send>;

/// A barrier's save step, run by every worker on its own processor.
type SaveStep<'scope, P> = Arc<dyn Fn(&P) -> Saved + Send + Sync + 'scope>;

/// Control items, queued in order with the batches.
pub(crate) enum Control<'scope, P: ShardProcessor> {
    /// Report the stretch since the previous barrier, retained answers
    /// swapped for `spare` (an emptied buffer to fill next), and what
    /// `save`, if given, reads from the processor.
    Barrier {
        spare: Vec<(Key, P::Answer)>,
        save: Option<SaveStep<'scope, P>>,
    },
    /// End of stream: close every window still holding data.
    Finish,
}

/// A worker's report, with the answers retained since the last barrier:
/// at a barrier, the stretch since the previous one (and what a save step
/// read); when its queue closes, its totals, returned with its processor.
struct Report<P: ShardProcessor> {
    stats: ShardStats,
    retained: Vec<(Key, P::Answer)>,
    saved: Option<Saved>,
}

impl<'scope, P: ShardProcessor + 'scope> ResidentEngine<'scope, P> {
    /// Spawn one worker per shard on `scope`, shard `i` running
    /// `make_processor(i)`, for an arrival-order stream.
    pub fn start<'env>(
        scope: &'scope Scope<'scope, 'env>,
        config: &EngineConfig,
        make_processor: impl FnMut(usize) -> P,
    ) -> Self
    where
        P: ShardProcessor<Value = f64>,
    {
        Self::open_lanes(scope, config, None, make_processor)
    }

    /// [`start`](Self::start) for an event-time stream. `lateness`: with
    /// `Some(l)` the router's watermark trails the largest routed
    /// timestamp by `l`; with `None` it trusts each source's own
    /// watermark. Anything below the watermark is dropped and counted.
    pub fn start_events<'env>(
        scope: &'scope Scope<'scope, 'env>,
        config: &EngineConfig,
        lateness: Option<u64>,
        make_processor: impl FnMut(usize) -> P,
    ) -> Self
    where
        P: ShardProcessor<Value = (u64, f64)>,
    {
        let time = OnTime::new(&config.obs, lateness);
        Self::open_lanes(scope, config, Some(time), make_processor)
    }

    fn open_lanes<'env>(
        scope: &'scope Scope<'scope, 'env>,
        config: &EngineConfig,
        time: Option<OnTime>,
        mut make_processor: impl FnMut(usize) -> P,
    ) -> Self {
        let started = Stopwatch::start();
        let shards = config.shards;
        let mut lanes = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, inbox) = batch_queue(config.queue_capacity, DRAIN);
            let (report_tx, reports) = sync_channel(1);
            let gauge = QueueDepthGauge::new();
            // Instrument bundles (registry registration is locked) are
            // built once here; `None` when obs is off.
            let obs = config.obs.shard_obs(shard, &gauge, time.is_some());
            let end = WorkerEnd {
                shard,
                inbox,
                reports: report_tx,
                gauge: gauge.clone(),
                batch: config.batch,
                retain: match (config.retain_answers, config.latest_only) {
                    (false, _) => Retain::Nothing,
                    (true, false) => Retain::Every,
                    (true, true) => Retain::Latest,
                },
                check_invariants: config.check_invariants,
            };
            let processor = make_processor(shard);
            let worker = std::thread::Builder::new()
                .name(format!("swag-shard-{shard}"))
                .spawn_scoped(scope, move || shard_worker(end, processor, obs))
                // check:allow out of threads at start-up: fail as `thread::scope`'s own spawn does
                .expect("spawn a shard worker");
            workers.push(worker);
            lanes.push(Lane {
                tx,
                reports,
                gauge,
                open: Vec::with_capacity(config.batch),
            });
        }
        // The sampler rides in the same scope; its stop flag is set by
        // `stop`, or by the guard when the engine is dropped during an
        // unwind, so the scope's join can never wait on it forever.
        let sampler_stop = StopGuard(Arc::new(AtomicBool::new(false)));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let sampler = match (config.obs.sample_interval, config.obs.registry.as_ref()) {
            (Some(interval), Some(registry)) => {
                let (stop, registry, out) = (
                    Arc::clone(&sampler_stop.0),
                    Arc::clone(registry),
                    Arc::clone(&samples),
                );
                Some(scope.spawn(move || sampler_loop(&stop, interval, started, &registry, &out)))
            }
            _ => None,
        };
        ResidentEngine {
            lanes,
            batch: config.batch,
            workers,
            time,
            cut: EngineRun {
                stats: EngineStats::merge(Vec::new(), started.elapsed()),
                answers: (0..shards).map(|_| Vec::new()).collect(),
                samples: Vec::new(),
            },
            late_mark: 0,
            started,
            since_cut: Stopwatch::start(),
            sampler,
            sampler_stop,
            samples,
        }
    }

    /// Route up to `limit` tuples from `source` into the shards; returns
    /// how many were routed. Tuples may wait in a partial batch until the
    /// next barrier.
    pub fn route_keyed<S>(&mut self, source: &mut S, limit: u64) -> u64
    where
        S: KeyedSource + ?Sized,
        P: ShardProcessor<Value = f64>,
    {
        let mut routed = 0u64;
        while routed < limit {
            let Some((key, value)) = source.next_tuple() else {
                break;
            };
            routed += 1;
            self.steer(key, value).unwrap_or_else(|()| self.fail());
        }
        routed
    }

    /// Route up to `limit` admitted timestamped tuples from `source` under
    /// the engine's late-drop rule; returns how many were routed (late
    /// drops are not counted). The watermark persists across sources: it
    /// only ever rises.
    pub fn route_events<S>(&mut self, source: &mut S, limit: u64) -> u64
    where
        S: KeyedEventSource + ?Sized,
        P: ShardProcessor<Value = (u64, f64)>,
    {
        let mut routed = 0u64;
        while routed < limit {
            let Some((key, ts, value)) = source.next_event() else {
                break;
            };
            if self.time.as_mut().is_some_and(|t| t.judge(ts, source)) {
                routed += 1;
                self.steer(key, (ts, value))
                    .unwrap_or_else(|()| self.fail());
            }
        }
        // Raise the watermark however the loop ended, the limit included.
        if let Some(time) = &mut self.time {
            time.read_frontier(source);
        }
        routed
    }

    /// Add one tuple to its shard's open batch, handing the batch off —
    /// stamped with the watermark as of its flush — once full. `Err`
    /// means the shard's worker is gone.
    #[inline]
    fn steer(&mut self, key: Key, value: P::Value) -> Result<(), ()> {
        let shards = self.lanes.len();
        let lane = &mut self.lanes[shard_of(key, shards)];
        lane.open.push((key, value)); // alloc:amortized the open batch is allocated with the batch capacity and flushed when full
        if lane.open.len() == self.batch {
            let watermark = self.time.as_mut().map_or(0, |t| t.stamp(self.batch));
            lane.flush(watermark, self.batch)?;
        }
        Ok(())
    }

    /// Flush every partial batch and, on the event-time path, broadcast
    /// the watermark to every shard — including shards no key hashed to —
    /// so each one's watermark reflects the frontier it durably covers.
    fn close_batches(&mut self) -> Result<(), ()> {
        let batch = self.batch;
        for lane in &mut self.lanes {
            if !lane.open.is_empty() {
                let watermark = self.time.as_mut().map_or(0, |t| t.stamp(lane.open.len()));
                lane.flush(watermark, batch)?;
            }
        }
        if let Some(time) = &self.time {
            for lane in &mut self.lanes {
                // An empty batch in the lane's own buffer, so the buffer
                // comes back as a spare like any other.
                lane.flush(time.watermark, batch)?;
            }
        }
        Ok(())
    }

    /// End the stretch since the previous barrier, blocking until every
    /// shard has processed every tuple routed so far. Returns the
    /// stretch's statistics — tuples, answers, batches and late drops
    /// since the previous barrier; each shard's keys, watermark and queue
    /// peak as of now — and each shard's retained answers. A caller may
    /// take the answer buffers; those it leaves are emptied and refilled
    /// by the next barrier, so a warm engine allocates nothing for them.
    pub fn barrier(&mut self) -> &mut EngineRun<P::Answer> {
        self.cut_stretch(None);
        &mut self.cut
    }

    /// [`barrier`](Self::barrier), and at it every worker runs `save` on
    /// its own drain-consistent processor, on its own thread, then
    /// carries on. Returns the stretch and what `save` returned for each
    /// shard, in shard order. A `save` that panics fails the engine with
    /// its panic, as any worker panic does.
    pub fn barrier_with<R: Send + 'static>(
        &mut self,
        save: impl Fn(&P) -> R + Send + Sync + 'scope,
    ) -> (&mut EngineRun<P::Answer>, Vec<R>) {
        let step: SaveStep<'scope, P> = Arc::new(move |processor: &P| Box::new(save(processor)));
        let saved = (self.cut_stretch(Some(step)).into_iter())
            // check:allow every shard's result came from `step`, which boxes an `R`
            .map(|s| *s.downcast::<R>().expect("a save step returns an R"))
            .collect();
        (&mut self.cut, saved)
    }

    /// Queue a barrier on every shard and collect the reports; returns
    /// what `save` read on each shard (nothing without one).
    fn cut_stretch(&mut self, save: Option<SaveStep<'scope, P>>) -> Vec<Saved> {
        self.close_batches().unwrap_or_else(|()| self.fail());
        for shard in 0..self.lanes.len() {
            let mut spare = std::mem::take(&mut self.cut.answers[shard]);
            spare.clear();
            let save = save.clone();
            let barrier = Item::Control(Control::Barrier { spare, save });
            if self.lanes[shard].tx.hand_off(barrier).is_err() {
                self.fail();
            }
        }
        let elapsed = self.since_cut.elapsed();
        self.since_cut = Stopwatch::start();
        self.cut.stats.shards.clear();
        let mut saved = Vec::new();
        for shard in 0..self.lanes.len() {
            let Ok(mut report) = self.lanes[shard].reports.recv() else {
                self.fail();
            };
            report.stats.elapsed = elapsed;
            // alloc:amortized cleared and refilled to the shard count at every barrier; grows once
            self.cut.stats.shards.push(report.stats);
            self.cut.answers[shard] = report.retained;
            saved.extend(report.saved); // alloc:amortized only a save step's barrier fills it, once per snapshot
        }
        let late = self.time.as_ref().map_or(0, |t| t.late);
        self.cut.stats.total(late - self.late_mark, elapsed);
        self.late_mark = late;
        saved
    }

    /// Close every queue, join the workers and resume the first worker
    /// panic: a worker is gone, so the engine cannot go on.
    fn fail(&mut self) -> ! {
        self.lanes.clear();
        self.join_workers();
        // check:allow unreachable: a worker leaves its loop early only by panicking
        panic!("a shard worker exited before its queue closed");
    }

    /// Join every worker and collect what each returned, in shard order;
    /// resume the first worker panic, once all are joined.
    fn join_workers(&mut self) -> Vec<(Report<P>, P)> {
        let mut crashed = None;
        let mut drained = Vec::with_capacity(self.workers.len());
        for worker in self.workers.drain(..) {
            match worker.join() {
                Ok(returned) => drained.push(returned),
                Err(panic) => {
                    crashed.get_or_insert(panic);
                }
            }
        }
        if let Some(panic) = crashed {
            std::panic::resume_unwind(panic);
        }
        drained
    }

    /// Flush what is routed, let every worker drain, and join them. With
    /// `finish` the stream ends — every window still holding data closes
    /// — otherwise open windows survive in the returned processors (in
    /// shard order). The run's answers are those since the last barrier;
    /// its statistics cover the engine's whole life.
    pub fn stop(mut self, finish: bool) -> (EngineRun<P::Answer>, Vec<P>) {
        let finished =
            |lane: &Lane<'_, P>| lane.tx.hand_off(Item::Control(Control::Finish)).is_ok();
        if self.close_batches().is_err() || (finish && !self.lanes.iter().all(finished)) {
            self.fail();
        }
        // Dropping the senders closes every queue; workers drain and return.
        self.lanes.clear();
        let (reports, processors): (Vec<_>, _) = self.join_workers().into_iter().unzip();
        let (shard_stats, answers) = reports.into_iter().map(|r| (r.stats, r.retained)).unzip();
        drop(self.sampler_stop);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        let mut stats = EngineStats::merge(shard_stats, self.started.elapsed());
        if let Some(time) = &self.time {
            stats.late_tuples = time.late;
            time.dump_router_ring();
        }
        let samples = std::mem::take(&mut *self.samples.lock().unwrap_or_else(|e| e.into_inner()));
        (
            EngineRun {
                stats,
                answers,
                samples,
            },
            processors,
        )
    }
}

impl<P: ShardProcessor> Lane<'_, P> {
    /// Hand the open batch off and start a fresh one in a buffer the
    /// worker handed back, if one is waiting.
    fn flush(&mut self, watermark: u64, batch: usize) -> Result<(), ()> {
        let tuples = std::mem::take(&mut self.open);
        self.gauge.enqueued_n(tuples.len() as u64);
        let spare = self
            .tx
            .hand_off(Item::Batch(Batch { watermark, tuples }))
            .map_err(drop)?;
        self.open = spare.unwrap_or_else(|| Vec::with_capacity(batch));
        Ok(())
    }
}

impl<P: ShardProcessor> Report<P> {
    /// Take the answers a worker has just produced out of `scratch`, plus
    /// `unappended` more it produced without appending: counted as
    /// produced, before the retain decision, so the tally is the same
    /// whatever is kept.
    fn tally_answers(
        &mut self,
        scratch: &mut Vec<(Key, P::Answer)>,
        unappended: u64,
        retain: Retain,
        obs: Option<&ShardObs>,
    ) {
        let produced = scratch.len() as u64 + unappended;
        self.stats.answers += produced;
        if let Some(o) = obs {
            o.answers.add(produced);
        }
        match retain {
            Retain::Nothing => scratch.clear(),
            Retain::Every => self.retained.append(scratch),
            Retain::Latest => {
                keep_latest::<P>(scratch);
                self.retained.append(scratch);
            }
        }
    }
}

/// Compact `answers` in place to each entry's last answer within every
/// stretch of one key's answers. A key's answers from one drain form one
/// stretch (one `process_slot` run, or one watermark advance), so the
/// entries kept so far in a stretch number at most the processor's
/// queries, and the look-back for a matching entry is that short. A kept
/// answer stays where its entry first appeared, holding the entry's
/// latest value: inserting the kept answers in order into a latest-answer
/// table leaves the table that inserting every answer would.
fn keep_latest<P: ShardProcessor>(answers: &mut Vec<(Key, P::Answer)>) {
    let mut kept = 0;
    let mut stretch = 0;
    for i in 0..answers.len() {
        let (key, answer) = &answers[i];
        if kept > 0 && answers[kept - 1].0 != *key {
            stretch = kept;
        }
        // An answer outside every entry is never merged, so a processor
        // that does not opt in pays no look-back.
        let entry = P::same_entry(answer, answer)
            .then(|| {
                (stretch..kept)
                    .rev()
                    .find(|&j| P::same_entry(&answers[j].1, answer))
            })
            .flatten();
        let at = entry.unwrap_or_else(|| {
            kept += 1;
            kept - 1
        });
        answers.swap(at, i);
    }
    answers.truncate(kept);
}

/// Answers a worker's scratch keeps room for across a barrier.
const SCRATCH_KEPT: usize = 4096;

/// Batches in a whole drain (fewer on a queue of capacity under 6, so a
/// drain never waits on a router parked for the low-water mark). Each
/// key's window state holds up to a drain's span of tuples before the
/// watermark evicts them, so a larger bound buys longer runs with memory
/// on the event-time path.
const DRAIN: usize = 4;

/// One worker's loop: take drains and control items until the queue
/// closes.
///
/// The worker takes a **drain**: [`DRAIN`] batches, or the fewer queued
/// ahead of a control item or the end, waiting until one of those is
/// queued. The drain's tuples are grouped into per-key runs by
/// a counting sort on the processor's slots ([`SlotGroups`]: one slot
/// look-up per tuple, no comparisons; stable, so tuples of one key keep
/// their stream order across the batches), so a key pays one
/// [`ShardProcessor::process_slot`] call — the aggregator's bulk path
/// over a slice of the grouped values — per drain instead of one call
/// per tuple. Keys run in the order of their first tuple in the drain.
/// Then every key is advanced once to the drain's highest watermark if it
/// rose, collecting the windows that closes: every tuple is at or above
/// the watermark it was admitted under, so no window it belongs to closed
/// earlier. Per-key answer sequences are unchanged; only the interleaving
/// of different keys inside a drain may differ. The drain's buffers go
/// back to the router with the next take. Control items, always taken
/// alone, answer barriers (running a barrier's save step on the
/// processor) and end the stream.
///
/// With an instrument bundle, the worker additionally maintains its
/// registry series, times each slide into the latency histogram, and
/// narrates its life into the flight recorder — batch received, per-key
/// slide (plus a bulk-path marker for multi-tuple runs), watermark
/// advance, the post-drain invariant check, and the final drain event. A
/// panic anywhere in the loop dumps the ring via `swag-trace`'s hook (the
/// registration guard lives for the whole function).
fn shard_worker<P: ShardProcessor>(
    end: WorkerEnd<'_, P>,
    mut processor: P,
    obs: Option<ShardObs>,
) -> (Report<P>, P) {
    let WorkerEnd {
        shard,
        inbox,
        reports,
        gauge,
        batch,
        retain,
        check_invariants,
    } = end;
    let started = Stopwatch::start();
    let _trace_guard = obs.as_ref().and_then(ShardObs::install_trace);
    let recorder = obs.as_ref().and_then(|o| o.recorder.as_ref());
    // The running totals and retained answers, and the totals as of the
    // previous barrier.
    let mut run = Report {
        stats: ShardStats {
            shard,
            tuples: 0,
            answers: 0,
            batches: 0,
            keys: 0,
            max_queue_depth: 0,
            watermark: 0,
            elapsed: Duration::ZERO,
        },
        retained: Vec::new(),
        saved: None,
    };
    let mut mark = run.stats.clone();
    // Reused across drains: the batches taken, the grouping buffers and
    // the drain's answers.
    let mut drain = Vec::with_capacity(DRAIN);
    let mut groups = SlotGroups::with_capacity(DRAIN * batch);
    let mut scratch = Vec::new();
    // Phase occupancy: one clock read before and after each take splits
    // the worker's wall time into blocked-on-queue vs. processing.
    let mut phase = obs.as_ref().map(|_| Stopwatch::start());
    loop {
        let taken = inbox.take_drain(&mut drain);
        if let (Some(o), Some(p)) = (&obs, &mut phase) {
            o.blocked_ns.add(p.elapsed_ns());
            *p = Stopwatch::start();
        }
        match taken {
            Taken::End => {
                // The processor is handed back as it stands: caught up.
                let unappended = catch_up(&mut processor, &mut scratch);
                run.tally_answers(&mut scratch, unappended, retain, obs.as_ref());
                break;
            }
            Taken::Batches => {
                let mut wm = 0;
                for Batch { watermark, tuples } in &drain {
                    wm = wm.max(*watermark);
                    gauge.dequeued_n(tuples.len() as u64);
                    run.stats.batches += 1;
                    if let Some(o) = &obs {
                        o.batches.inc();
                        o.tuples.add(tuples.len() as u64);
                        if let Some(rec) = recorder {
                            rec.record(
                                EventKind::BatchReceived,
                                tuples.len() as u64,
                                gauge.depth(),
                            );
                        }
                    }
                }
                groups.group_drain(&mut processor, &drain);
                for (slot, key, values) in groups.runs() {
                    let run_len = values.len() as u64;
                    // Two clock reads per slide, only when someone is
                    // scraping the histogram.
                    let timer = obs
                        .as_ref()
                        .and_then(|o| o.slide_latency.as_ref())
                        .map(|_| Stopwatch::start());
                    processor.process_slot(slot, values, &mut scratch);
                    if let Some(o) = &obs {
                        if let (Some(hist), Some(timer)) = (&o.slide_latency, timer) {
                            hist.record(timer.elapsed_ns());
                        }
                        if let Some(rec) = recorder {
                            rec.record(EventKind::Slide, key, run_len);
                            if run_len > 1 {
                                // The run took the aggregator's bulk
                                // insert/evict fast path.
                                rec.record(EventKind::BulkEvict, key, run_len);
                            }
                        }
                    }
                    run.stats.tuples += run_len;
                }
                // The watermark closes windows across every key on this
                // shard, including keys untouched by this drain.
                let mut unappended = 0;
                if wm > run.stats.watermark {
                    run.stats.watermark = wm;
                    unappended = retain.close_due(&mut processor, wm, &mut scratch);
                    if let Some(rec) = recorder {
                        let closed = scratch.len() as u64 + unappended;
                        rec.record(EventKind::WatermarkAdvance, wm, closed);
                    }
                }
                if let Some(lag) = obs.as_ref().and_then(|o| o.watermark_lag.as_ref()) {
                    // Refreshed every drain — not only on watermark
                    // advance — so the gauge (and the sampler series built
                    // from it) tracks lag even while the watermark is
                    // stalled behind late data.
                    lag.set(
                        processor
                            .max_ts()
                            .map_or(0, |m| m.saturating_sub(run.stats.watermark)),
                    );
                }
                run.tally_answers(&mut scratch, unappended, retain, obs.as_ref());
            }
            Taken::Control(Control::Barrier { spare, save }) => {
                // Counters, retained answers and what `save` reads all
                // cover every key up to the watermark.
                let unappended = catch_up(&mut processor, &mut scratch);
                run.tally_answers(&mut scratch, unappended, retain, obs.as_ref());
                // One event-time advance can fill the scratch with far more
                // answers than a drain holds; do not keep that between
                // stretches.
                scratch.shrink_to(SCRATCH_KEPT);
                if let Some(o) = &obs {
                    o.keys.set(processor.keys() as u64);
                }
                run.stats.keys = processor.keys();
                run.stats.max_queue_depth = gauge.max_depth();
                let report = Report {
                    stats: ShardStats {
                        tuples: run.stats.tuples - mark.tuples,
                        answers: run.stats.answers - mark.answers,
                        batches: run.stats.batches - mark.batches,
                        ..run.stats.clone()
                    },
                    retained: std::mem::replace(&mut run.retained, spare),
                    // check:allow runs once per snapshot request, not per tuple or batch
                    saved: save.map(|save| save(&processor)),
                };
                mark = run.stats.clone();
                // A send fails only once the router is gone; the queue
                // then closes and the loop ends.
                let _ = reports.send(report);
            }
            Taken::Control(Control::Finish) => {
                // End of stream: close out every window still holding
                // data. The shard's final watermark durably covers
                // everything it accepted.
                let unappended = catch_up(&mut processor, &mut scratch);
                processor.finish(&mut scratch);
                if let Some(max) = processor.max_ts() {
                    run.stats.watermark = run.stats.watermark.max(max.saturating_add(1));
                }
                run.tally_answers(&mut scratch, unappended, retain, obs.as_ref());
            }
        }
        if let (Some(o), Some(p)) = (&obs, &mut phase) {
            o.busy_ns.add(p.elapsed_ns());
            *p = Stopwatch::start();
        }
    }
    if let Some(lag) = obs.as_ref().and_then(|o| o.watermark_lag.as_ref()) {
        lag.set(0);
    }
    if check_invariants {
        let result = processor.check_invariants();
        if let Some(rec) = recorder {
            rec.record(EventKind::InvariantCheck, result.is_ok() as u64, 0);
        }
        if let Err(violation) = result {
            // check:allow a corrupted shard must fail the run loudly, not return bad stats
            panic!("shard {shard}: post-drain invariant check failed: {violation}");
        }
    }
    if let Some(o) = &obs {
        o.keys.set(processor.keys() as u64);
        if let Some(rec) = recorder {
            rec.record(EventKind::Drain, run.stats.tuples, run.stats.answers);
        }
        o.dump_on_drain();
    }
    run.stats.keys = processor.keys();
    run.stats.max_queue_depth = gauge.max_depth();
    run.stats.elapsed = started.elapsed();
    (run, processor)
}
