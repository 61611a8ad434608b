//! DABA — the De-Amortized Bankers Algorithm (paper §2.2, Fig. 6).
//!
//! DABA de-amortizes TwoStacks: instead of an `n`-combine flip when the
//! front empties, it keeps `vals` and `aggs` in one FIFO queue
//! partitioned by six ordered pointers `f ≤ l ≤ r ≤ a ≤ b ≤ e` and performs
//! a constant amount of "fix-up" work after every insert and evict, so the
//! worst-case step cost is bounded (8 combines: evict + flip + shrink +
//! insert + shrink + query, per the paper's §4.1 accounting).
//!
//! Region invariants maintained between operations (window positions are
//! absolute indices; `Σ vals[i..j)` is the in-order aggregate):
//!
//! * `F = [f, l)`: `aggs[i] = Σ vals[i..b)` — fully fixed front suffixes;
//!   queries read `aggs[f]`.
//! * `L = [l, r)`: `aggs[i] = Σ vals[i..r)` — leftovers of the previous
//!   front, still missing the `Σ vals[r..b)` tail.
//! * `R = [r, a)`: `aggs[i] = Σ vals[r..i]` — prefix aggregates inherited
//!   from the previous back, awaiting right-to-left conversion.
//! * `A = [a, b)`: `aggs[i] = Σ vals[i..b)` — converted suffixes.
//! * `B = [b, e)`: `aggs[i] = Σ vals[b..i]` — the growing back prefix.
//!
//! Each fix-up step converts one `R` slot into `A` form (1 combine) and
//! promotes one `L` slot into `F` form (2 combines) — the paper's 3-combine
//! *shrink* — or performs a free *shift* when `L` and `R` are empty. When
//! the conversion frontier `l` reaches `b`, a free pointer *flip* starts
//! the next epoch. The balance `|L| = |R|` holds at every flip for any
//! FIFO insert/evict sequence (inserts during an epoch equal the back
//! size, and the epoch length equals the old front size), which is what
//! keeps every step constant-time.
//!
//! Complexity (Table 1): amortized 5 operations per slide, worst case 8;
//! space `2n` — a `vals` and an `aggs` slot per partial, in one ring buffer
//! sized to the window up front. DABA does not support
//! multi-query execution (paper §2.2).

use std::collections::VecDeque;

use crate::aggregator::{FinalAggregator, MemoryFootprint};
use crate::invariants::{ensure, partials_agree, strict_check, InvariantViolation};
use crate::ops::AggregateOp;

/// One checker region: name, bounds, and the refold each position inside
/// it must equal (see `Daba::check_invariants`).
type Region<'a, P> = (&'a str, u64, u64, &'a dyn Fn(u64) -> P);

#[derive(Debug, Clone)]
struct Slot<P> {
    val: P,
    agg: P,
}

/// De-amortized two-stacks FIFO aggregator with worst-case constant-time
/// operations.
///
/// ```
/// use swag_core::algorithms::Daba;
/// use swag_core::ops::Sum;
///
/// let mut window = Daba::new(Sum::<i64>::new(), 8);
/// window.insert(10);
/// window.insert(20);
/// assert_eq!(window.query(), 30);
/// window.evict();
/// assert_eq!(window.query(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct Daba<O: AggregateOp> {
    op: O,
    q: VecDeque<Slot<O::Partial>>,
    /// Number of `pop_front`s ever performed = absolute index of the front.
    popped: u64,
    l: u64,
    r: u64,
    a: u64,
    b: u64,
    window: usize,
}

impl<O: AggregateOp> Daba<O> {
    /// Create a DABA aggregator for windows up to `window` partials, its
    /// queue allocated for the whole window up front.
    pub fn new(op: O, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one partial");
        Daba {
            op,
            q: VecDeque::with_capacity(window),
            popped: 0,
            l: 0,
            r: 0,
            a: 0,
            b: 0,
            window,
        }
    }

    /// The operation driving this aggregator.
    pub fn op(&self) -> &O {
        &self.op
    }

    /// Number of elements currently in the window.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if the window holds no elements.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    #[inline]
    fn front_abs(&self) -> u64 {
        self.popped
    }

    #[inline]
    fn end_abs(&self) -> u64 {
        self.popped + self.q.len() as u64
    }

    #[inline]
    fn agg_at(&self, abs: u64) -> &O::Partial {
        &self
            .q
            .get((abs - self.popped) as usize)
            // check:allow callers index via the f≤l≤r≤a≤b≤e pointers, all in range
            .expect("DABA pointer within live range")
            .agg
    }

    #[inline]
    fn val_at(&self, abs: u64) -> &O::Partial {
        &self
            .q
            .get((abs - self.popped) as usize)
            // check:allow callers index via the f≤l≤r≤a≤b≤e pointers, all in range
            .expect("DABA pointer within live range")
            .val
    }

    #[inline]
    fn set_agg(&mut self, abs: u64, agg: O::Partial) {
        self.q
            .get_mut((abs - self.popped) as usize)
            // check:allow callers index via the f≤l≤r≤a≤b≤e pointers, all in range
            .expect("DABA pointer within live range")
            .agg = agg;
    }

    /// Append a new (newest) partial — one combine to extend the back
    /// prefix, plus one fix-up step.
    pub fn insert(&mut self, val: O::Partial) {
        let e = self.end_abs();
        let agg = if self.b == e {
            val.clone()
        } else {
            self.op.combine(self.agg_at(e - 1), &val)
        };
        self.q.push_back(Slot { val, agg }); // alloc:amortized window buffer growth is amortized O(1) doubling
        self.step();
        strict_check!(self);
    }

    /// Remove the oldest partial — a free pop plus one fix-up step.
    ///
    /// Panics if the window is empty.
    pub fn evict(&mut self) {
        assert!(!self.q.is_empty(), "evict from an empty DABA window"); // check:allow precondition assert documenting the caller contract
        self.q.pop_front();
        self.popped += 1;
        // Pointers never lag behind the front: they were ≥ old front + 1
        // (invariant: l > f or front empty), but clamp defensively so a
        // logic error surfaces as a wrong answer in tests, not UB.
        debug_assert!(self.l >= self.popped || self.l == self.b);
        self.step();
        strict_check!(self);
    }

    /// Aggregate of the whole window: front suffix ⊕ back prefix.
    pub fn query(&self) -> O::Partial {
        let f = self.front_abs();
        let e = self.end_abs();
        let alpha = if f == self.b {
            None
        } else {
            Some(self.agg_at(f).clone())
        };
        let back = if self.b == e {
            None
        } else {
            Some(self.agg_at(e - 1).clone())
        };
        match (alpha, back) {
            (Some(x), Some(y)) => self.op.combine(&x, &y),
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => self.op.identity(),
        }
    }

    /// One fix-up step: flip if the epoch ended, then shrink `R` and
    /// promote one `L` slot (or shift when both are empty).
    fn step(&mut self) {
        let f = self.front_abs();
        let e = self.end_abs();
        if self.l == self.b {
            // Flip: old front leftovers become L, the old back becomes R,
            // and a fresh empty back starts at e. Pure pointer moves.
            self.l = f;
            self.r = self.b;
            self.a = e;
            self.b = e;
        }
        if f == self.b {
            // Front part empty (only possible when the queue is empty or
            // everything is in the new back); nothing to fix.
            return;
        }
        if self.a != self.r {
            // Shrink R: convert its rightmost slot to an A-form suffix.
            let delta = if self.a == self.b {
                None
            } else {
                Some(self.agg_at(self.a).clone())
            };
            self.a -= 1;
            let new_agg = match delta {
                Some(d) => self.op.combine(self.val_at(self.a), &d),
                None => self.val_at(self.a).clone(),
            };
            self.set_agg(self.a, new_agg);
        }
        if self.l != self.r {
            // Promote one L slot to F form: append Σ vals[r..b) =
            // (R prefix up to a) ⊕ (A suffix from a).
            let gamma = if self.a == self.r {
                None
            } else {
                Some(self.agg_at(self.a - 1).clone())
            };
            let delta = if self.a == self.b {
                None
            } else {
                Some(self.agg_at(self.a).clone())
            };
            let rest = match (gamma, delta) {
                (Some(g), Some(d)) => Some(self.op.combine(&g, &d)),
                (Some(g), None) => Some(g),
                (None, Some(d)) => Some(d),
                (None, None) => None,
            };
            if let Some(rest) = rest {
                let promoted = self.op.combine(self.agg_at(self.l), &rest);
                self.set_agg(self.l, promoted);
            }
            self.l += 1;
        } else {
            // Shift: L is empty; |L| = |R| guarantees R is empty too, so
            // the slot at l is already in A ≡ F form and joins F for free.
            debug_assert_eq!(self.r, self.a, "DABA balance invariant |L| = |R| violated");
            self.l += 1;
            self.r += 1;
            self.a += 1;
        }
    }
}

impl<O: AggregateOp> FinalAggregator<O> for Daba<O> {
    const NAME: &'static str = "daba";

    fn with_capacity(op: O, window: usize) -> Self {
        Daba::new(op, window)
    }

    fn slide(&mut self, partial: O::Partial) -> O::Partial {
        if self.q.len() == self.window {
            self.evict();
        }
        self.insert(partial); // alloc:amortized window buffer growth is amortized O(1) doubling
        self.query()
    }

    fn window(&self) -> usize {
        self.window
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn evict(&mut self) {
        Daba::evict(self);
    }

    /// DABA's fix-up steps cannot be batched (each insert/evict must run
    /// its constant-time repair to keep the six pointers balanced), but a
    /// bulk insert still skips the per-slide `query` combine and reserves
    /// queue storage once for the whole run.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        let skip = batch.len().saturating_sub(self.window);
        let tail = &batch[skip..];
        let evictions = (self.q.len() + tail.len()).saturating_sub(self.window);
        for _ in 0..evictions {
            self.evict();
        }
        self.q.reserve(tail.len());
        for p in tail {
            self.insert(p.clone()); // alloc:amortized window buffer growth is amortized O(1) doubling
        }
    }

    /// DABA invariants (paper §2.2, Fig. 6): pointer ordering
    /// `f ≤ l ≤ r ≤ a ≤ b ≤ e`, the bankers balance `|L| = |R|`, and
    /// every region's cached aggregate against a brute-force refold
    /// (`F`/`A` suffixes toward `b`, `L` suffixes toward `r`, `R`/`B`
    /// prefixes). The refolds are left-associated, which matches the fix-up
    /// construction for exact operations (integers, selection) but can
    /// differ in rounding on arbitrary float streams — see
    /// [`FinalAggregator::check_invariants`]'s caveat. `O(n²)`.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let f = self.front_abs();
        let e = self.end_abs();
        ensure!(
            Self::NAME,
            "pointer-order",
            f <= self.l && self.l <= self.r && self.r <= self.a && self.a <= self.b && self.b <= e,
            "f {} l {} r {} a {} b {} e {}",
            f,
            self.l,
            self.r,
            self.a,
            self.b,
            e
        );
        ensure!(
            Self::NAME,
            "banker-balance",
            self.r - self.l == self.a - self.r,
            "|L| {} != |R| {}",
            self.r - self.l,
            self.a - self.r
        );
        let agg_range = |lo: u64, hi: u64| -> O::Partial {
            let mut acc = self.op.identity();
            for i in lo..hi {
                acc = self.op.combine(&acc, self.val_at(i));
            }
            acc
        };
        let regions: [Region<'_, O::Partial>; 5] = [
            ("F-form", f, self.l, &|i| agg_range(i, self.b)),
            ("L-form", self.l, self.r, &|i| agg_range(i, self.r)),
            ("R-form", self.r, self.a, &|i| agg_range(self.r, i + 1)),
            ("A-form", self.a, self.b, &|i| agg_range(i, self.b)),
            ("B-form", self.b, e, &|i| agg_range(self.b, i + 1)),
        ];
        for (label, lo, hi, expect) in regions {
            for i in lo..hi {
                let want = expect(i);
                ensure!(
                    Self::NAME,
                    "region-agg",
                    partials_agree(self.agg_at(i), &want),
                    "{label} at {i}: cached {:?}, refold {:?}",
                    self.agg_at(i),
                    want
                );
            }
        }
        Ok(())
    }
}

impl<O: AggregateOp> MemoryFootprint for Daba<O> {
    fn heap_bytes(&self) -> usize {
        self.q.capacity() * core::mem::size_of::<Slot<O::Partial>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Naive;
    use crate::ops::{Max, Sum};

    #[test]
    fn matches_naive_on_sum() {
        let mut daba = Daba::new(Sum::<i64>::new(), 4);
        let mut naive = Naive::new(Sum::<i64>::new(), 4);
        for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7] {
            assert_eq!(daba.slide(v), naive.slide(v));
            daba.check_invariants().unwrap();
        }
    }

    #[test]
    fn matches_naive_on_max() {
        let op = Max::<i64>::new();
        let mut daba = Daba::new(op, 7);
        let mut naive = Naive::new(op, 7);
        for v in [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5, 9, 1, 3, 3, 7, 2, 2, 11, 1] {
            assert_eq!(daba.slide(op.lift(&v)), naive.slide(op.lift(&v)));
            daba.check_invariants().unwrap();
        }
    }

    #[test]
    fn arbitrary_insert_evict_pattern() {
        // Exercise non-alternating FIFO patterns: bursts of inserts, then
        // bursts of evicts, with invariants checked after every operation.
        let op = Sum::<i64>::new();
        let mut daba = Daba::new(op, 64);
        let mut model: std::collections::VecDeque<i64> = Default::default();
        let mut v = 0i64;
        let pattern = [5usize, 2, 9, 9, 1, 0, 3, 7]; // inserts per round
        let drains = [2usize, 4, 1, 9, 3, 2, 8, 0]; // evicts per round
        for round in 0..pattern.len() {
            for _ in 0..pattern[round] {
                v += 1;
                daba.insert(v);
                model.push_back(v);
                daba.check_invariants().unwrap();
            }
            for _ in 0..drains[round].min(model.len()) {
                daba.evict();
                model.pop_front();
                daba.check_invariants().unwrap();
            }
            let expect: i64 = model.iter().sum();
            assert_eq!(daba.query(), expect, "round {round}");
        }
    }

    #[test]
    fn window_one() {
        let mut daba = Daba::new(Sum::<i64>::new(), 1);
        assert_eq!(daba.slide(5), 5);
        assert_eq!(daba.slide(7), 7);
        daba.check_invariants().unwrap();
    }

    #[test]
    fn drain_to_empty_and_reuse() {
        let mut daba = Daba::new(Sum::<i64>::new(), 8);
        for v in 1..=8 {
            daba.insert(v);
        }
        for _ in 0..8 {
            daba.evict();
            daba.check_invariants().unwrap();
        }
        assert!(daba.is_empty());
        assert_eq!(daba.query(), 0);
        daba.insert(100);
        assert_eq!(daba.query(), 100);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn evict_empty_panics() {
        let mut daba = Daba::new(Sum::<i64>::new(), 2);
        daba.evict();
    }

    #[test]
    fn long_run_against_naive() {
        let op = Max::<i32>::new();
        let mut daba = Daba::new(op, 33);
        let mut naive = Naive::new(op, 33);
        // Deterministic pseudo-random stream.
        let mut x = 123456789u32;
        for _ in 0..5000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let v = (x >> 16) as i32;
            assert_eq!(daba.slide(op.lift(&v)), naive.slide(op.lift(&v)));
        }
    }
}
