//! Per-layer probes: each times calls into one layer's public functions
//! from outside, on the same seeded blocks the workloads replay. The
//! count-path waterfall pushes the `engine_keyed` block through nested
//! entry points — bare kernel, bare aggregator, keyed processor in-thread,
//! one shard, two shards — so each difference is one layer's cost.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use swag_core::aggregator::{FinalAggregator, MemoryFootprint, MultiFinalAggregator};
use swag_core::algorithms::{
    BInt, Daba, FlatFat, FlatFit, Naive, SlickDequeInv, SlickDequeNonInv, TwoStacks,
};
use swag_core::multi::{MultiSlickDequeInv, MultiSlickDequeNonInv};
use swag_core::ops::{AggregateOp, CountingOp, MaxF64, OpCounter, Sum};
use swag_data::Key;
use swag_engine::{EngineConfig, KeyedEventWindows, ShardProcessor, ShardedEngine};
use swag_ooo::FingerBTree;
use swag_server::proto::{encode_frame, read_frame};
use swag_stream::{SharedPlanExecutor, Sink, TimeWindowExec, TimeWindowSpec};

use crate::engine::{self, Resident};
use crate::inproc::build_plan;
use crate::replay::{self, ReplayEvents, ReplayKeyed};
use crate::span::{SpanId, Tracer};
use crate::spec::{
    Report, ENGINE_BLOCK, ENGINE_KEYS, ENGINE_WINDOW, EVENT_LATENESS, EVENT_RANGE, EVENT_SLIDE,
    INPROC_FRAME, PLAN_ACQS, SINGLE_ACQ, SVC_FRAME,
};
use crate::stats;
use crate::svc;

/// Window every single-query algorithm is probed at.
const ALGO_WINDOW: usize = 1024;

/// Run `rep` (which does `units` units of work) until `budget` is spent,
/// at least three times, inside a span; median nanoseconds per unit.
fn timed(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    name: &'static str,
    budget: Duration,
    units: u64,
    mut rep: impl FnMut(),
) -> f64 {
    let span = tracer.open(name, parent);
    let deadline = Instant::now() + budget;
    let mut per_unit = Vec::new();
    while per_unit.len() < 3 || Instant::now() < deadline {
        let start_ns = tracer.now_ns();
        let started = Instant::now();
        rep();
        let took = started.elapsed();
        tracer.record_elapsed("probe.rep", span, start_ns, took);
        per_unit.push(took.as_nanos() as f64 / units as f64);
    }
    tracer.close(span);
    stats::median(&per_unit)
}

/// `fold_slice` over 512-frames of the block.
fn fold_probe<O: AggregateOp<Input = f64, Partial = f64>>(
    op: &O,
    values: &[f64],
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    budget: Duration,
) -> f64 {
    timed(
        tracer,
        parent,
        "core.ops.fold_slice",
        budget,
        values.len() as u64,
        || {
            for frame in values.chunks_exact(INPROC_FRAME) {
                black_box(op.fold_slice(&frame[0], &frame[1..]));
            }
        },
    )
}

/// Per-tuple `slide` of one algorithm at window 1024, steady state.
fn slide_probe<O, A>(
    op: O,
    values: &[f64],
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    budget: Duration,
) -> f64
where
    O: AggregateOp<Input = f64, Partial = f64> + Clone,
    A: FinalAggregator<O>,
{
    let mut agg = A::with_capacity(op.clone(), ALGO_WINDOW);
    let mut pos = 0usize;
    let next = |pos: &mut usize| {
        let v = values[*pos];
        *pos = (*pos + 1) % values.len();
        v
    };
    for _ in 0..2 * ALGO_WINDOW {
        agg.slide(op.lift(&next(&mut pos)));
    }
    const SLIDES: u64 = 4096;
    timed(
        tracer,
        parent,
        "core.algorithms.slide",
        budget,
        SLIDES,
        || {
            for _ in 0..SLIDES {
                black_box(agg.slide(op.lift(&next(&mut pos))));
            }
        },
    )
}

struct CountSink(u64);

impl<T> Sink<T> for CountSink {
    #[inline]
    fn deliver(&mut self, _query_idx: usize, _answer: T) {
        self.0 += 1;
    }
}

/// Exact ⊕/⊖ applications per tuple of one executor configuration.
fn combines_per_tuple<O, M>(op: O, acqs: &[(u64, u64)], values: &[f64]) -> f64
where
    O: AggregateOp<Input = f64> + Clone,
    M: MultiFinalAggregator<CountingOp<O>>,
{
    let counter = OpCounter::new();
    let mut exec: SharedPlanExecutor<CountingOp<O>, M> =
        SharedPlanExecutor::new(CountingOp::new(op, counter.clone()), build_plan(acqs));
    let mut sink = CountSink(0);
    let (warm, measured) = values.split_at(values.len() / 4);
    for frame in warm.chunks_exact(INPROC_FRAME) {
        exec.push_batch(frame, &mut sink);
    }
    counter.reset();
    let mut tuples = 0u64;
    for frame in measured.chunks_exact(INPROC_FRAME) {
        exec.push_batch(frame, &mut sink);
        tuples += frame.len() as u64;
    }
    counter.get() as f64 / tuples as f64
}

/// The engine block as the shard worker sees it: batches of 256 grouped
/// into per-key runs (stable by key), flattened to `(key, range)` over one
/// value array.
struct KeyRuns {
    values: Vec<f64>,
    runs: Vec<(Key, usize, usize)>,
}

fn key_runs(block: &[(Key, f64)]) -> KeyRuns {
    let mut values = Vec::with_capacity(block.len());
    let mut runs = Vec::new();
    for batch in block.chunks(EngineConfig::default().batch) {
        let mut batch = batch.to_vec();
        batch.sort_by_key(|&(key, _)| key);
        let mut i = 0;
        while i < batch.len() {
            let key = batch[i].0;
            let start = values.len();
            while i < batch.len() && batch[i].0 == key {
                values.push(batch[i].1);
                i += 1;
            }
            runs.push((key, start, values.len()));
        }
    }
    KeyRuns { values, runs }
}

fn event_processor() -> KeyedEventWindows<MaxF64> {
    KeyedEventWindows::new(
        MaxF64::new(),
        vec![TimeWindowSpec::new(EVENT_RANGE, EVENT_SLIDE)],
    )
}

/// Run every micro-probe within about `budget`, writing their metrics
/// into `report`. Workload passes (which supply the remaining per-layer
/// metrics) are run by the caller.
pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer, report: &mut Report) {
    let root = tracer.open("probes", None);
    let slice = |share: f64| budget.mul_f64(share);
    let values = replay::debs_values(seed, 1 << 18);
    let sum = Sum::<f64>::new();
    let max = MaxF64::new();

    // core.ops
    report.set(
        "core.ops.sum_fold.ns_per_tuple",
        fold_probe(&sum, &values, tracer, root, slice(0.01)),
    );
    report.set(
        "core.ops.max_fold.ns_per_tuple",
        fold_probe(&max, &values, tracer, root, slice(0.01)),
    );
    let single = [SINGLE_ACQ];
    report.set(
        "core.ops.combines_per_tuple.sum_single",
        combines_per_tuple::<_, MultiSlickDequeInv<_>>(sum, &single, &values),
    );
    report.set(
        "core.ops.combines_per_tuple.max_single",
        combines_per_tuple::<_, MultiSlickDequeNonInv<_>>(max, &single, &values),
    );
    report.set(
        "core.ops.combines_per_tuple.sum_plan",
        combines_per_tuple::<_, MultiSlickDequeInv<_>>(sum, &PLAN_ACQS, &values),
    );
    report.set(
        "core.ops.combines_per_tuple.max_plan",
        combines_per_tuple::<_, MultiSlickDequeNonInv<_>>(max, &PLAN_ACQS, &values),
    );

    // core.algorithms: what an item that deletes copies must hold.
    let algo = slice(0.025);
    macro_rules! slide_pair {
        ($name:literal, $A:ident) => {
            report.set(
                concat!("core.algorithms.", $name, ".sum.ns_per_slide"),
                slide_probe::<_, $A<_>>(sum, &values, tracer, root, algo),
            );
            report.set(
                concat!("core.algorithms.", $name, ".max.ns_per_slide"),
                slide_probe::<_, $A<_>>(max, &values, tracer, root, algo),
            );
        };
    }
    slide_pair!("naive", Naive);
    slide_pair!("flatfat", FlatFat);
    slide_pair!("bint", BInt);
    slide_pair!("flatfit", FlatFit);
    slide_pair!("twostacks", TwoStacks);
    slide_pair!("daba", Daba);
    report.set(
        "core.algorithms.slickdeque_inv.sum.ns_per_slide",
        slide_probe::<_, SlickDequeInv<_>>(sum, &values, tracer, root, algo),
    );
    report.set(
        "core.algorithms.slickdeque_noninv.max.ns_per_slide",
        slide_probe::<_, SlickDequeNonInv<_>>(max, &values, tracer, root, algo),
    );
    {
        let mut agg = SlickDequeInv::with_capacity(sum, ENGINE_WINDOW);
        for v in &values[..2 * ENGINE_WINDOW] {
            agg.slide(*v);
        }
        report.set("core.algorithms.state_bytes", agg.heap_bytes() as f64);
    }

    // plan
    report.set(
        "plan.build_us",
        timed(tracer, root, "plan.build", slice(0.005), 1, || {
            black_box(build_plan(&PLAN_ACQS));
        }) / 1e3,
    );

    // stream.executor self time: the single-ACQ executor minus the bare
    // aggregator's bulk_slide over the same partials.
    {
        let mut exec: SharedPlanExecutor<_, MultiSlickDequeInv<_>> =
            SharedPlanExecutor::new(sum, build_plan(&single));
        let mut sink = CountSink(0);
        let with_executor = timed(
            tracer,
            root,
            "stream.executor.push_batch",
            slice(0.02),
            values.len() as u64,
            || {
                for frame in values.chunks_exact(INPROC_FRAME) {
                    exec.push_batch(frame, &mut sink);
                }
            },
        );
        let mut agg = SlickDequeInv::with_capacity(sum, SINGLE_ACQ.0 as usize);
        let mut out = Vec::new();
        let bare = timed(
            tracer,
            root,
            "core.algorithms.bulk_slide",
            slice(0.02),
            values.len() as u64,
            || {
                for frame in values.chunks_exact(INPROC_FRAME) {
                    agg.bulk_slide(frame, &mut out);
                    black_box(&out);
                }
            },
        );
        report.set("stream.executor.self_ns_per_tuple", with_executor - bare);
    }

    // engine.keyed, in-thread, and its self time over the bare aggregators.
    let block = replay::keyed_debs_block(seed, ENGINE_KEYS, ENGINE_BLOCK / 4);
    let runs = key_runs(&block);
    let keyed = {
        let mut windows = engine::fresh_windows();
        let mut out = Vec::new();
        timed(
            tracer,
            root,
            "engine.keyed.process_run",
            slice(0.04),
            runs.values.len() as u64,
            || {
                for &(key, start, end) in &runs.runs {
                    windows.process_run(key, &runs.values[start..end], &mut out);
                    if out.len() >= 4096 {
                        black_box(&out);
                        out.clear();
                    }
                }
            },
        )
    };
    let bare_keyed = {
        let mut aggs: Vec<SlickDequeInv<Sum<f64>>> = (0..ENGINE_KEYS)
            .map(|_| SlickDequeInv::with_capacity(sum, ENGINE_WINDOW))
            .collect();
        let mut out = Vec::new();
        timed(
            tracer,
            root,
            "core.algorithms.bulk_slide",
            slice(0.04),
            runs.values.len() as u64,
            || {
                for &(key, start, end) in &runs.runs {
                    aggs[key as usize].bulk_slide(&runs.values[start..end], &mut out);
                    black_box(&out);
                }
            },
        )
    };
    report.set("engine.keyed.ns_per_tuple", keyed);
    report.set("engine.keyed.self_ns_per_tuple", keyed - bare_keyed);

    // engine.shard: one shard, and the fixed cost of a run.
    let s1 = {
        let mut resident = Resident::new(1);
        let mut source = ReplayKeyed::new(&block);
        resident.job(&mut source, (2 * ENGINE_WINDOW * ENGINE_KEYS) as u64);
        const JOB: u64 = 1 << 20;
        timed(tracer, root, "engine.shard.run", slice(0.08), JOB, || {
            resident.job(&mut source, JOB);
        })
    };
    report.set("engine.shard.s1.ns_per_tuple", s1);
    report.set("engine.shard.handoff_ns_per_tuple", s1 - keyed);
    {
        let mut resident = Resident::new(crate::spec::ENGINE_SHARDS);
        let mut source = ReplayKeyed::new(&block);
        resident.job(&mut source, (2 * ENGINE_WINDOW * ENGINE_KEYS) as u64);
        let batch = EngineConfig::default().batch as u64;
        let fixed = timed(tracer, root, "engine.shard.run", slice(0.03), 1, || {
            resident.job(&mut source, batch);
        });
        report.set("engine.shard.run_fixed_us", fixed / 1e3);
    }

    // engine.event and stream.time_window on the event block.
    let events = replay::event_bid_block(seed, 1 << 15, EVENT_LATENESS);
    {
        let engine = ShardedEngine::new(EngineConfig::with_shards(1));
        let n = events.len() as u64;
        let mut late = 0u64;
        let per_tuple = timed(
            tracer,
            root,
            "engine.event.run_events",
            slice(0.08),
            n,
            || {
                let mut source = ReplayEvents::new(&events);
                let run = engine.run_events(source.take(n), n, Some(EVENT_LATENESS), |_| {
                    event_processor()
                });
                late = run.stats.late_tuples;
            },
        );
        report.set("engine.event.ns_per_tuple", per_tuple);
        report.set("engine.event.late_share", late as f64 / n as f64);
    }
    {
        let n = events.len() as u64;
        let mut answers_per_tuple = 0.0;
        let per_tuple = timed(
            tracer,
            root,
            "stream.time_window.insert_advance",
            slice(0.08),
            n,
            || {
                let mut execs: std::collections::BTreeMap<Key, TimeWindowExec<MaxF64>> =
                    Default::default();
                let (mut frontier, mut accepted, mut answers) = (0u64, 0u64, 0u64);
                for frame in events.chunks(SVC_FRAME) {
                    for &(key, ts, value) in frame {
                        frontier = frontier.max(ts);
                        let exec = execs.entry(key).or_insert_with(|| {
                            TimeWindowExec::new(
                                max,
                                vec![TimeWindowSpec::new(EVENT_RANGE, EVENT_SLIDE)],
                            )
                        });
                        if exec.insert(ts, &value) {
                            accepted += 1;
                        }
                    }
                    let watermark = frontier.saturating_sub(EVENT_LATENESS);
                    for exec in execs.values_mut() {
                        answers += exec.advance_watermark(watermark).len() as u64;
                    }
                }
                answers_per_tuple = answers as f64 / accepted as f64;
            },
        );
        report.set("stream.time_window.ns_per_tuple", per_tuple);
        report.set("stream.time_window.answers_per_tuple", answers_per_tuple);
    }

    // ooo: the FiBA tree's three moves.
    {
        const LIVE: u64 = 1 << 14;
        let mut tree = FingerBTree::new(max);
        let mut ts = 0u64;
        let inorder = timed(tracer, root, "ooo.tree.insert", slice(0.02), LIVE, || {
            for _ in 0..LIVE {
                ts += replay::INTER_EVENT_NS;
                tree.insert(ts, ts as f64);
            }
        });
        report.set("ooo.tree.inorder_insert_ns", inorder);
        let mut step = 0u64;
        let displaced = timed(tracer, root, "ooo.tree.insert", slice(0.02), LIVE, || {
            for _ in 0..LIVE {
                step += 1;
                let back = 1 + (step * 7919) % EVENT_LATENESS;
                tree.insert(ts - back, back as f64);
            }
        });
        report.set("ooo.tree.displaced_insert_ns", displaced);
        let mut cutoff = 0u64;
        let mut evicted = 0u64;
        let started = Instant::now();
        let span = tracer.open("ooo.tree.evict_older_than", root);
        while !tree.is_empty() {
            cutoff += EVENT_SLIDE;
            evicted += tree.evict_older_than(cutoff) as u64;
        }
        tracer.close(span);
        report.set(
            "ooo.tree.evict_ns",
            started.elapsed().as_nanos() as f64 / evicted.max(1) as f64,
        );
    }

    // server.proto over a memory buffer.
    {
        let bids = replay::bid_block(seed, 1 << 16);
        let mut wire = Vec::new();
        let encode = timed(
            tracer,
            root,
            "server.proto.encode_frame",
            slice(0.01),
            bids.len() as u64,
            || {
                wire.clear();
                for frame in bids.chunks(SVC_FRAME) {
                    encode_frame(frame, &mut wire);
                }
            },
        );
        let mut tuples = Vec::new();
        let decode = timed(
            tracer,
            root,
            "server.proto.read_frame",
            slice(0.01),
            bids.len() as u64,
            || {
                let mut reader = Cursor::new(&wire[..]);
                while read_frame(&mut reader, &mut tuples).expect("frames decode") {
                    black_box(&tuples);
                }
            },
        );
        report.set("server.proto.encode_ns_per_tuple", encode);
        report.set("server.proto.decode_ns_per_tuple", decode);
        report.set(
            "server.proto.bytes_per_tuple",
            wire.len() as f64 / bids.len() as f64,
        );
    }

    // server.snapshot restore.
    let span = tracer.open("server.snapshot.restore", root);
    match svc::restore_probe(seed) {
        Ok((restore_ms, bytes)) => {
            report.set("server.snapshot.restore_ms", restore_ms);
            report
                .metrics
                .entry("server.snapshot.bytes")
                .or_insert(bytes);
        }
        Err(e) => report.notes.push(format!("restore probe failed: {e}")),
    }
    tracer.close(span);
    tracer.close(root);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_runs_keep_every_value_in_per_key_stream_order() {
        let block: Vec<(Key, f64)> = (0..1000u64).map(|i| (i % 7, i as f64)).collect();
        let runs = key_runs(&block);
        assert_eq!(runs.values.len(), block.len());
        let mut per_key: std::collections::BTreeMap<Key, Vec<f64>> = Default::default();
        for &(key, start, end) in &runs.runs {
            per_key
                .entry(key)
                .or_default()
                .extend(&runs.values[start..end]);
        }
        for (key, values) in per_key {
            let want: Vec<f64> = block.iter().filter(|t| t.0 == key).map(|t| t.1).collect();
            assert_eq!(values, want, "key {key}");
        }
    }

    #[test]
    fn single_acq_sum_costs_two_combines_per_tuple() {
        let values = replay::debs_values(1, 1 << 14);
        let per_tuple = combines_per_tuple::<_, MultiSlickDequeInv<_>>(
            Sum::<f64>::new(),
            &[SINGLE_ACQ],
            &values,
        );
        // SlickDeque (Inv): one ⊕ and one ⊖ per slide (paper Table 1).
        assert_eq!(per_tuple, 2.0);
    }
}
