//! Per-key window state: the processors a shard runs.
//!
//! A shard owns one [`ShardProcessor`]; the engine routes every tuple of a
//! key to the same shard, so a processor sees each key's tuples in stream
//! order and keeps one window (or one multi-ACQ plan executor) per key.
//!
//! * [`KeyedWindows`] — one [`FinalAggregator`] per key (any algorithm:
//!   SlickDeque Inv/Non-Inv, TwoStacks, DABA, …), single query, slide 1.
//! * [`KeyedPlans`] — one [`SharedPlanExecutor`] per key for multi-ACQ
//!   shared plans; answers are tagged with the plan's query index.
//!
//! Each processor keeps its keys in one key → dense-slot table (hashed
//! with the router's `mix64`) with the per-key state in a slab indexed by
//! slot. The table lives as long as the processor, across engine runs and
//! service cycles; the shard worker looks each tuple's slot up once and
//! groups its batch by slot with a counting sort.

use swag_core::aggregator::{FinalAggregator, MultiFinalAggregator};
use swag_core::ops::AggregateOp;
use swag_data::keyed::Key;
use swag_stream::{SharedPlanExecutor, Sink};

use crate::slots::SlotTable;

/// Per-key stream processing logic run inside one shard.
///
/// A processor numbers its keys with dense **slots**: 0, 1, 2, … in the
/// order it first sees them, stable for the processor's life. The worker
/// looks up each tuple's slot ([`open_slot`](Self::open_slot)), groups
/// what it took from its queue — a drain of several batches, fewer ahead
/// of a barrier or the end — by slot, and hands the processor each key's tuples in
/// arrival order (which, for any single key, is the key's stream order),
/// one run per key per drain ([`process_slot`](Self::process_slot)); the
/// processor appends produced answers to `out`. Keys within a drain are
/// run in the order of their first tuple in it, so the interleaving of
/// different keys' answers is unspecified; each key's own answer order
/// is its stream order.
///
/// A tuple's payload is [`Value`](Self::Value): the bare `f64` on the
/// arrival-order path, `(event timestamp, value)` on the event-time path.
/// Event-time processors additionally emit from
/// [`advance_watermark`](Self::advance_watermark) and
/// [`finish`](Self::finish); for arrival-order processors time is
/// positional, the watermark never moves, and the defaults are no-ops.
pub trait ShardProcessor: Send {
    /// What one tuple carries besides its key.
    type Value: Copy + Send;

    /// The answer type delivered per key.
    type Answer: Send;

    /// The slot holding `key`'s state, opening one with fresh state the
    /// first time `key` is seen.
    fn open_slot(&mut self, key: Key) -> usize;

    /// Process a run of consecutive tuples of the key in `slot` (a slot
    /// [`open_slot`](Self::open_slot) returned), in stream order,
    /// appending `(key, answer)` pairs to `out`. Answers do not depend on
    /// how a key's stream is cut into runs; a run takes the aggregator's
    /// bulk fast paths. On the event-time path every tuple is at or above
    /// each watermark previously passed to
    /// [`advance_watermark`](Self::advance_watermark).
    fn process_slot(
        &mut self,
        slot: usize,
        values: &[Self::Value],
        out: &mut Vec<(Key, Self::Answer)>,
    );

    /// Process a run of consecutive tuples that all belong to `key`: one
    /// slot look-up, then [`process_slot`](Self::process_slot).
    fn process_run(
        &mut self,
        key: Key,
        values: &[Self::Value],
        out: &mut Vec<(Key, Self::Answer)>,
    ) {
        let slot = self.open_slot(key);
        self.process_slot(slot, values, out);
    }

    /// Process one keyed tuple: a run of one.
    fn process(&mut self, key: Key, value: Self::Value, out: &mut Vec<(Key, Self::Answer)>) {
        self.process_run(key, &[value], out);
    }

    /// Raise the watermark for **every** key, appending each window
    /// answer the advance closes. Watermarks arrive monotone
    /// non-decreasing.
    fn advance_watermark(&mut self, _watermark: u64, _out: &mut Vec<(Key, Self::Answer)>) {}

    /// [`advance_watermark`](Self::advance_watermark) for a caller that
    /// keeps only each entry's latest answer
    /// ([`same_entry`](Self::same_entry)): close the same windows, but
    /// append at least each entry's last answer, and return how many
    /// answers the advance produced in all, appended or not — plus any
    /// that [`process_slot`](Self::process_slot) produced without
    /// appending since the last count. A processor may leave keys behind
    /// here as long as [`settle`](Self::settle) catches them up. The
    /// default appends every answer.
    fn advance_latest(&mut self, watermark: u64, out: &mut Vec<(Key, Self::Answer)>) -> u64 {
        let before = out.len();
        self.advance_watermark(watermark, out);
        (out.len() - before) as u64
    }

    /// Catch every key [`advance_latest`](Self::advance_latest) left
    /// behind up to the last watermark, appending each entry's last
    /// answer and returning how many answers that produced in all,
    /// counted as `advance_latest` counts them. Once it returns, every
    /// key's state is what [`advance_watermark`](Self::advance_watermark)
    /// would have left. The default has no key left behind.
    fn settle(&mut self, _out: &mut Vec<(Key, Self::Answer)>) -> u64 {
        0
    }

    /// End of stream: emit every remaining window holding data.
    fn finish(&mut self, _out: &mut Vec<(Key, Self::Answer)>) {}

    /// Whether answers `a` and `b` of one key update the same entry of a
    /// table that keeps each entry's latest answer. With
    /// [`EngineConfig::latest_only`] a worker retains only the last
    /// answer of each entry per key per drain. An equivalence for a
    /// processor that opts in; the default, `false` even for `a` with
    /// itself, shares no entries, so every answer is retained.
    ///
    /// [`EngineConfig::latest_only`]: crate::EngineConfig::latest_only
    fn same_entry(_a: &Self::Answer, _b: &Self::Answer) -> bool
    where
        Self: Sized,
    {
        false
    }

    /// Largest event timestamp accepted so far (for watermark-lag
    /// reporting), or `None` before the first tuple and on the
    /// arrival-order path.
    fn max_ts(&self) -> Option<u64> {
        None
    }

    /// Number of distinct keys this processor has seen.
    fn keys(&self) -> usize;

    /// Validate the structural invariants of every key's window state
    /// (paper-level checks via
    /// [`FinalAggregator::check_invariants`]), naming the offending key in
    /// the error. Run by the engine after a graceful drain when
    /// [`EngineConfig::check_invariants`] is set; the default has no state
    /// to check. Takes `&mut self` because the FiBA checker repairs lazy
    /// aggregate caches as it folds.
    ///
    /// [`EngineConfig::check_invariants`]: crate::EngineConfig::check_invariants
    fn check_invariants(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// One single-query sliding window per key, slide 1: every tuple produces
/// one lowered answer for its key.
#[derive(Debug)]
pub struct KeyedWindows<O, A>
where
    O: AggregateOp<Input = f64>,
{
    op: O,
    window: usize,
    states: SlotTable<A>,
    /// Reusable lifted-batch buffer for [`ShardProcessor::process_slot`].
    lift_scratch: Vec<O::Partial>,
    /// Reusable bulk-answer buffer for [`ShardProcessor::process_slot`].
    answer_scratch: Vec<O::Partial>,
}

impl<O, A> KeyedWindows<O, A>
where
    O: AggregateOp<Input = f64> + Clone,
    A: FinalAggregator<O>,
{
    /// Windows of `window` tuples for every key, aggregated by `op`.
    pub fn new(op: O, window: usize) -> Self {
        Self::from_states(op, window, [])
    }

    /// The per-key window state, for inspection.
    pub fn state(&self, key: Key) -> Option<&A> {
        self.states.state_of(key)
    }

    /// Every key's window state, for snapshotting, in the order the
    /// processor first saw the keys.
    pub fn states(&self) -> impl Iterator<Item = (Key, &A)> {
        self.states.by_slot()
    }

    /// Rebuild a processor from restored per-key states — the restore
    /// counterpart of [`states`](Self::states). Keys absent from `states`
    /// start fresh on their first tuple, exactly as in a new processor; a
    /// key listed twice keeps its last state.
    pub fn from_states(op: O, window: usize, states: impl IntoIterator<Item = (Key, A)>) -> Self {
        assert!(window >= 1, "window must be positive");
        KeyedWindows {
            op,
            window,
            states: states.into_iter().collect(),
            lift_scratch: Vec::new(),
            answer_scratch: Vec::new(),
        }
    }
}

impl<O, A> ShardProcessor for KeyedWindows<O, A>
where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send,
    O::Partial: Send,
    A: FinalAggregator<O> + Send,
{
    type Value = f64;
    type Answer = f64;

    fn open_slot(&mut self, key: Key) -> usize {
        self.states
            .open_slot(key, || A::with_capacity(self.op.clone(), self.window))
    }

    /// The aggregator's [`FinalAggregator::bulk_slide`] fast path over the
    /// whole run — answers stay bitwise identical to per-tuple processing.
    fn process_slot(&mut self, slot: usize, values: &[f64], out: &mut Vec<(Key, f64)>) {
        let KeyedWindows {
            op,
            states,
            lift_scratch,
            answer_scratch,
            ..
        } = self;
        // check:allow a slot open_slot never returned is a caller bug
        let (key, agg) = states.slot_entry(slot).expect("a slot from open_slot");
        op.lift_slice_into(values, lift_scratch);
        agg.bulk_slide(lift_scratch, answer_scratch);
        // alloc:amortized the worker's reused answer scratch; grows to the largest batch once
        out.extend(answer_scratch.drain(..).map(|p| (key, op.lower(&p))));
    }

    /// One window per key: every answer updates the key's one entry.
    fn same_entry(_: &f64, _: &f64) -> bool {
        true
    }

    fn keys(&self) -> usize {
        self.states.len()
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        for (key, agg) in self.states.by_slot() {
            agg.check_invariants()
                .map_err(|violation| format!("key {key}: {violation}"))?;
        }
        Ok(())
    }
}

/// Buffers `(query_idx, partial)` deliveries from a plan executor.
struct VecSink<P>(Vec<(usize, P)>);

impl<P> Sink<P> for VecSink<P> {
    fn deliver(&mut self, query_idx: usize, answer: P) {
        self.0.push((query_idx, answer)); // alloc:amortized per-key state warms up once then stabilizes
    }
}

/// One multi-ACQ [`SharedPlanExecutor`] per key.
///
/// Answers are `(query_idx, lowered_answer)` pairs: each key runs the full
/// shared plan, reporting per registered query at that query's slide.
pub struct KeyedPlans<O, M>
where
    O: AggregateOp<Input = f64> + Clone,
    M: MultiFinalAggregator<O>,
{
    op: O,
    plan: swag_plan::SharedPlan,
    states: SlotTable<SharedPlanExecutor<O, M>>,
    /// Reusable per-run delivery buffer for [`ShardProcessor::process_slot`].
    sink_scratch: VecSink<O::Partial>,
}

impl<O, M> KeyedPlans<O, M>
where
    O: AggregateOp<Input = f64> + Clone,
    M: MultiFinalAggregator<O>,
{
    /// The given uniform shared plan for every key. Panics (as
    /// [`SharedPlanExecutor::new`] does) if the plan has punctuation edges
    /// or non-uniform partial counts.
    pub fn new(op: O, plan: swag_plan::SharedPlan) -> Self {
        // Validate the plan once, eagerly, instead of on first tuple.
        let _ = SharedPlanExecutor::<O, M>::new(op.clone(), plan.clone());
        KeyedPlans {
            op,
            plan,
            states: SlotTable::default(),
            sink_scratch: VecSink(Vec::new()),
        }
    }
}

impl<O, M> ShardProcessor for KeyedPlans<O, M>
where
    O: AggregateOp<Input = f64, Output = f64> + Clone + Send,
    O::Partial: Send,
    M: MultiFinalAggregator<O> + Send,
{
    type Value = f64;
    type Answer = (usize, f64);

    fn open_slot(&mut self, key: Key) -> usize {
        self.states.open_slot(key, || {
            SharedPlanExecutor::new(self.op.clone(), self.plan.clone())
        })
    }

    /// The whole run through [`SharedPlanExecutor::push_batch`] into a
    /// reused delivery buffer.
    fn process_slot(&mut self, slot: usize, values: &[f64], out: &mut Vec<(Key, (usize, f64))>) {
        let KeyedPlans {
            op,
            states,
            sink_scratch,
            ..
        } = self;
        // check:allow a slot open_slot never returned is a caller bug
        let (key, exec) = states.slot_entry(slot).expect("a slot from open_slot");
        sink_scratch.0.clear();
        exec.push_batch(values, sink_scratch);
        for (qi, partial) in sink_scratch.0.drain(..) {
            out.push((key, (qi, op.lower(&partial)))); // alloc:amortized per-key state warms up once then stabilizes
        }
    }

    /// One entry per query.
    fn same_entry(a: &(usize, f64), b: &(usize, f64)) -> bool {
        a.0 == b.0
    }

    fn keys(&self) -> usize {
        self.states.len()
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        for (key, exec) in self.states.by_slot() {
            exec.aggregator()
                .check_invariants()
                .map_err(|violation| format!("key {key}: {violation}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::algorithms::{SlickDequeInv, SlickDequeNonInv};
    use swag_core::multi::MultiSlickDequeInv;
    use swag_core::ops::{MaxF64, Sum};
    use swag_plan::{Pat, Query, SharedPlan};

    #[test]
    fn keyed_windows_isolate_keys() {
        let mut kw: KeyedWindows<_, SlickDequeInv<_>> = KeyedWindows::new(Sum::<f64>::new(), 2);
        let mut out = Vec::new();
        kw.process(1, 10.0, &mut out);
        kw.process(2, 100.0, &mut out);
        kw.process(1, 1.0, &mut out);
        kw.process(1, 2.0, &mut out); // 10.0 expires from key 1's window
        assert_eq!(out, vec![(1, 10.0), (2, 100.0), (1, 11.0), (1, 3.0)]);
        assert_eq!(kw.keys(), 2);
    }

    #[test]
    fn keyed_windows_max_uses_monotone_deque() {
        let mut kw: KeyedWindows<_, SlickDequeNonInv<_>> = KeyedWindows::new(MaxF64::new(), 3);
        let mut out = Vec::new();
        for (k, v) in [(5, 1.0), (5, 9.0), (5, 2.0), (5, 0.5)] {
            kw.process(k, v, &mut out);
        }
        let answers: Vec<f64> = out.iter().map(|&(_, a)| a).collect();
        assert_eq!(answers, vec![1.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn process_run_matches_per_tuple_process() {
        let values: Vec<f64> = (0..50).map(|i| ((i * 31) % 19) as f64).collect();

        let mut scalar: KeyedWindows<_, SlickDequeNonInv<_>> = KeyedWindows::new(MaxF64::new(), 5);
        let mut expected = Vec::new();
        for &v in &values {
            scalar.process(3, v, &mut expected);
        }

        let mut bulk: KeyedWindows<_, SlickDequeNonInv<_>> = KeyedWindows::new(MaxF64::new(), 5);
        let mut got = Vec::new();
        for chunk in values.chunks(7) {
            bulk.process_run(3, chunk, &mut got);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn keyed_plans_process_run_matches_process() {
        let plan = SharedPlan::build(&[Query::new(6, 2), Query::new(8, 4)], Pat::Pairs);
        let op = Sum::<f64>::new();
        let values: Vec<f64> = (0..40).map(|i| ((i * 11) % 13) as f64).collect();

        let mut scalar: KeyedPlans<_, MultiSlickDequeInv<_>> = KeyedPlans::new(op, plan.clone());
        let mut expected = Vec::new();
        for &v in &values {
            scalar.process(9, v, &mut expected);
        }

        let mut bulk: KeyedPlans<_, MultiSlickDequeInv<_>> = KeyedPlans::new(op, plan);
        let mut got = Vec::new();
        for chunk in values.chunks(9) {
            bulk.process_run(9, chunk, &mut got);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn keyed_plans_match_unkeyed_executor_per_key() {
        let plan = SharedPlan::build(&[Query::new(6, 2), Query::new(8, 4)], Pat::Pairs);
        let op = Sum::<f64>::new();
        let mut kp: KeyedPlans<_, MultiSlickDequeInv<_>> = KeyedPlans::new(op, plan.clone());

        let stream: Vec<f64> = (0..32).map(|i| ((i * 13) % 17) as f64).collect();
        // Interleave two keys with the same per-key values.
        let mut out = Vec::new();
        for &v in &stream {
            kp.process(7, v, &mut out);
            kp.process(8, v, &mut out);
        }

        // Reference: one unkeyed executor over the same values.
        let mut reference = SharedPlanExecutor::<_, MultiSlickDequeInv<_>>::new(op, plan);
        let mut expected = VecSink(Vec::new());
        for &v in &stream {
            reference.push(v, &mut expected);
        }
        for key in [7u64, 8] {
            let got: Vec<(usize, f64)> = out
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, a)| a)
                .collect();
            assert_eq!(got, expected.0, "key {key}");
        }
    }
}
