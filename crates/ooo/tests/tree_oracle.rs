//! The finger B-tree against a sorted-`Vec` oracle through the paths
//! that recycle node storage: drain-to-empty and refill cycles, splits
//! right after whole leaves were freed, displaced inserts, sorted and
//! unsorted `bulk_insert`, and evictions (by cutoff and by count) down
//! to empty.
//!
//! Every step is followed by `query` and a few `query_range`s compared
//! bitwise against a refold of the oracle (queries run before any
//! invariant check, so they meet the lazily repaired caches as a caller
//! does), and every mutation by `check_invariants`. Each phase ends by
//! comparing `entries()` — what a snapshot writes — with the oracle.
//! `Last` is non-commutative, which pins tie order and combine order.

use swag_core::ops::{AggregateOp, Last, Sum};
use swag_ooo::FingerBTree;

/// Width of the band of timestamps new entries land in.
const BAND: u64 = 200;

/// xorshift64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n.max(1)
    }

    fn value(&mut self) -> i64 {
        self.below(1000) as i64 - 500
    }
}

/// A tree and its oracle: live `(ts, value)` in timestamp order, ties in
/// arrival order.
struct Pair<O: AggregateOp<Input = i64>> {
    label: &'static str,
    op: O,
    tree: FingerBTree<O>,
    oracle: Vec<(u64, i64)>,
    /// The eviction frontier: nothing below it is live.
    low: u64,
    step: u64,
}

impl<O: AggregateOp<Input = i64> + Clone> Pair<O> {
    fn new(label: &'static str, op: O) -> Self {
        Pair {
            label,
            tree: FingerBTree::new(op.clone()),
            op,
            oracle: Vec::new(),
            low: 0,
            step: 0,
        }
    }

    fn fold(&self, lo: u64, hi: u64) -> O::Partial {
        let mut acc = self.op.identity();
        for &(t, v) in &self.oracle {
            if t >= lo && t < hi {
                acc = self.op.combine(&acc, &self.op.lift(&v));
            }
        }
        acc
    }

    /// Answers and bounds against the oracle, then the invariants.
    fn settle(&mut self, rng: &mut Rng) {
        self.step += 1;
        let (label, step) = (self.label, self.step);
        assert_eq!(
            self.tree.query(),
            self.fold(0, u64::MAX),
            "{label}: query at step {step}"
        );
        for _ in 0..3 {
            let lo = self.low.saturating_sub(8) + rng.below(BAND + 16);
            let hi = lo + rng.below(BAND / 2);
            assert_eq!(
                self.tree.query_range(lo, hi),
                self.fold(lo, hi),
                "{label}: query_range({lo}, {hi}) at step {step}"
            );
        }
        assert_eq!(
            self.tree.len(),
            self.oracle.len(),
            "{label}: len at step {step}"
        );
        assert_eq!(
            self.tree.min_ts(),
            self.oracle.first().map(|e| e.0),
            "{label}: min_ts at step {step}"
        );
        assert_eq!(
            self.tree.max_ts(),
            self.oracle.last().map(|e| e.0),
            "{label}: max_ts at step {step}"
        );
        if let Err(violation) = self.tree.check_invariants() {
            panic!("{label}: step {step}: {violation}");
        }
    }

    /// The snapshot view: `entries()` is exactly the oracle, lifted.
    fn pin_entries(&self) {
        let want: Vec<(u64, O::Partial)> = (self.oracle.iter())
            .map(|&(t, v)| (t, self.op.lift(&v)))
            .collect();
        assert_eq!(self.tree.entries(), want, "{}: entries()", self.label);
    }

    fn insert(&mut self, ts: u64, v: i64, rng: &mut Rng) {
        self.tree.insert(ts, self.op.lift(&v));
        let pos = self.oracle.partition_point(|&(t, _)| t <= ts);
        self.oracle.insert(pos, (ts, v));
        self.settle(rng);
    }

    /// The newest live timestamp (the in-order frontier), or `low`.
    fn front(&self) -> u64 {
        self.oracle.last().map_or(self.low, |e| e.0)
    }

    /// `n` in-order appends, a few of them tied with the previous one.
    fn append_run(&mut self, n: usize, rng: &mut Rng) {
        for _ in 0..n {
            let ts = self.front() + rng.below(3);
            let v = rng.value();
            self.insert(ts, v, rng);
        }
    }

    /// `n` inserts anywhere in the band above `low`.
    fn displaced_run(&mut self, n: usize, rng: &mut Rng) {
        for _ in 0..n {
            let span = self.front().saturating_sub(self.low) + 1;
            let ts = self.low + rng.below(span);
            let v = rng.value();
            self.insert(ts, v, rng);
        }
    }

    /// One `bulk_insert` of `n` entries, pre-sorted or shuffled.
    fn bulk(&mut self, n: usize, sorted: bool, rng: &mut Rng) {
        let base = if sorted { self.front() } else { self.low };
        let mut batch: Vec<(u64, i64)> = (0..n)
            .map(|_| (base + rng.below(BAND), rng.value()))
            .collect();
        if sorted {
            batch.sort_by_key(|e| e.0);
        }
        let lifted: Vec<(u64, O::Partial)> =
            batch.iter().map(|&(t, v)| (t, self.op.lift(&v))).collect();
        self.tree.bulk_insert(&lifted);
        // The tree takes a batch in stable timestamp order.
        batch.sort_by_key(|e| e.0);
        for (t, v) in batch {
            let pos = self.oracle.partition_point(|&(o, _)| o <= t);
            self.oracle.insert(pos, (t, v));
        }
        self.settle(rng);
    }

    fn evict_below(&mut self, cutoff: u64, rng: &mut Rng) {
        let gone = self.tree.evict_older_than(cutoff);
        let keep = self.oracle.partition_point(|&(t, _)| t < cutoff);
        assert_eq!(gone, keep, "{}: evict_older_than({cutoff})", self.label);
        self.oracle.drain(..keep);
        self.low = self.low.max(cutoff);
        self.settle(rng);
    }

    fn evict_count(&mut self, n: usize, rng: &mut Rng) {
        let want = n.min(self.oracle.len());
        assert_eq!(
            self.tree.bulk_evict(n),
            want,
            "{}: bulk_evict({n})",
            self.label
        );
        self.oracle.drain(..want);
        if let Some(&(t, _)) = self.oracle.first() {
            self.low = self.low.max(t);
        }
        self.settle(rng);
    }

    /// Empty the tree in a few evictions, by cutoff or by count.
    fn drain(&mut self, rng: &mut Rng) {
        while !self.oracle.is_empty() {
            if rng.below(2) == 0 {
                let cutoff = self.low + 1 + rng.below(BAND);
                self.evict_below(cutoff, rng);
            } else {
                let n = 1 + rng.below(self.oracle.len() as u64 + 8) as usize;
                self.evict_count(n, rng);
            }
        }
        self.low = self.front().max(self.low);
        assert!(
            self.tree.is_empty(),
            "{}: drained tree is empty",
            self.label
        );
    }
}

fn drive<O: AggregateOp<Input = i64> + Clone>(label: &'static str, op: O, seed: u64) {
    let mut rng = Rng(seed);
    let mut pair = Pair::new(label, op);

    // Empty-and-refill cycles, growing from a lone leaf to three levels
    // and back, alternating how the tree is filled.
    for cycle in 0..8usize {
        let n = [1, 17, 40, 300, 5, 600, 16, 90][cycle];
        match cycle % 3 {
            0 => pair.append_run(n, &mut rng),
            1 => pair.displaced_run(n, &mut rng),
            _ => pair.bulk(n, cycle % 2 == 0, &mut rng),
        }
        pair.pin_entries();
        pair.drain(&mut rng);
        pair.pin_entries();
    }

    // Splits right after frees: drop whole head leaves, then append
    // until the tail splits (and the root grows) again.
    pair.append_run(400, &mut rng);
    for _ in 0..12 {
        let cutoff = pair.oracle[pair.oracle.len() / 3].0;
        pair.evict_below(cutoff, &mut rng);
        pair.append_run(20 + rng.below(60) as usize, &mut rng);
        let n = rng.below(40) as usize;
        pair.evict_count(n, &mut rng);
        pair.bulk(18 + rng.below(20) as usize, true, &mut rng);
    }
    pair.pin_entries();

    // Displaced inserts and both bulk forms over a sliding band.
    for _ in 0..40 {
        match rng.below(4) {
            0 => pair.displaced_run(1 + rng.below(30) as usize, &mut rng),
            1 => pair.bulk(rng.below(40) as usize, false, &mut rng),
            2 => pair.bulk(rng.below(40) as usize, true, &mut rng),
            _ => {
                let cutoff = pair.low + rng.below(BAND / 3);
                pair.evict_below(cutoff, &mut rng);
            }
        }
    }
    pair.pin_entries();

    // Down to empty by cutoff, then by count, refilling in between.
    let past = pair.front() + 1;
    pair.evict_below(past, &mut rng);
    pair.bulk(250, false, &mut rng);
    let all = pair.oracle.len() + 5;
    pair.evict_count(all, &mut rng);
    assert!(pair.tree.is_empty(), "{label}: empty at the end");
    pair.displaced_run(3, &mut rng);
    pair.pin_entries();
}

#[test]
fn recycling_paths_match_the_sorted_vec_oracle() {
    for seed in [0x5EED_0001u64, 0xF1BA_2307, 0x1810_1130] {
        drive("sum", Sum::<i64>::new(), seed);
        drive("last", Last::<i64>::new(), seed);
    }
}
