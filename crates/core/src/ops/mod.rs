//! The aggregate-operation framework (paper §3.1).
//!
//! Every sliding-window algorithm in this crate is generic over an
//! [`AggregateOp`]: an associative binary operation ⊕ together with the
//! *lift*/*lower* adapters that map stream inputs into partial aggregates and
//! partial aggregates into user-visible answers. This is the standard
//! formulation used throughout the sliding-window aggregation literature
//! (Panes, FlatFAT, TwoStacks/DABA, FlatFIT, SlickDeque).
//!
//! Three refinements of [`AggregateOp`] encode the algebraic properties the
//! paper's classification (§3.1) relies on:
//!
//! * [`InvertibleOp`] — ⊕ has a feasibly inexpensive inverse ⊖ with
//!   `(a ⊕ b) ⊖ b = a`. Sum, Count, Product, Mean, Variance, … SlickDeque
//!   (Inv) and all subtract-on-evict style algorithms require this.
//! * [`SelectiveOp`] — `combine(a, b) ∈ {a, b}` (the paper's note on
//!   non-invertible, non-holistic operations). Max, Min, ArgMax, ArgMin,
//!   alphabetical Max, … SlickDeque (Non-Inv)'s monotone deque requires this.
//! * [`CommutativeOp`] — marker for `a ⊕ b = b ⊕ a`. The algorithms fold
//!   in window order, with one exception: FlatFAT's whole-window slide
//!   answer reads the cached root, which folds leaves in slot order —
//!   correct only up to rotation, i.e. for commutative operations
//!   (`FlatFat::query_in_order` covers the rest). The marker also lets
//!   property tests check the law where it is claimed.
//!
//! The selective operations come in mirrored pairs — Max/Min,
//! MaxF64/MinF64, ArgMax/ArgMin, BoolAny/BoolAll, Last/First — that differ
//! only in which way a comparison points. Each pair is one generic type
//! over a zero-sized [`Direction`] ([`Greatest`] or [`Least`]) with one
//! `AggregateOp` impl, and the familiar names are type aliases of it;
//! Variance/StdDev is likewise one [`Dispersion`] generic over its
//! lowering.
//!
//! Holistic aggregations (Median, Top-K, …) are out of scope, exactly as in
//! the paper.

mod counting;
mod invertible;
mod noninvertible;
mod pair;

pub use counting::{CountingOp, OpCounter};
pub use invertible::{
    Additive, Count, Dispersion, GeometricMean, Mean, MeanPartial, Product, ProductPartial, StdDev,
    Sum, SumSquares, Variance, VariancePartial,
};
pub use noninvertible::{
    AlphaMax, ArgExtreme, ArgMax, ArgMin, BoolAll, BoolAny, BoolExtreme, Direction, Extreme,
    ExtremeF64, First, Greatest, Last, Least, Max, MaxF64, Min, MinF64, MinMax, Range, WindowEnd,
};
pub use pair::PairOp;

/// An associative aggregate operation in lift/combine/lower form.
///
/// * [`lift`](Self::lift) turns one stream input into a partial aggregate;
/// * [`combine`](Self::combine) is the associative operation ⊕ on partials;
/// * [`lower`](Self::lower) turns a partial aggregate into the answer
///   reported to the client;
/// * [`identity`](Self::identity) is the neutral element of ⊕ (the paper's
///   `initVal`, e.g. `0` for Sum, −∞/`None` for Max).
///
/// Implementations must satisfy, for all partials `a`, `b`, `c`:
///
/// ```text
/// combine(a, combine(b, c)) == combine(combine(a, b), c)     (associativity)
/// combine(identity(), a) == a == combine(a, identity())      (identity)
/// ```
///
/// Operations are **not** required to be commutative or invertible.
/// Implementations are typically zero-sized so that the window algorithms
/// monomorphise to tight loops.
pub trait AggregateOp {
    /// The type of raw stream inputs accepted by [`lift`](Self::lift).
    type Input;
    /// The type of partial aggregates flowing through the window algorithms.
    type Partial: Clone + PartialEq + core::fmt::Debug;
    /// The type of the final, user-visible answer.
    type Output;

    /// The neutral element of [`combine`](Self::combine).
    fn identity(&self) -> Self::Partial;

    /// Map one stream input to a singleton partial aggregate.
    fn lift(&self, input: &Self::Input) -> Self::Partial;

    /// The associative operation ⊕. `a` precedes `b` in window order, which
    /// matters for non-commutative operations.
    fn combine(&self, a: &Self::Partial, b: &Self::Partial) -> Self::Partial;

    /// Map a partial aggregate to the final answer.
    fn lower(&self, agg: &Self::Partial) -> Self::Output;

    /// A short human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str {
        "op"
    }

    // ---- Slice kernels -------------------------------------------------
    //
    // Batch counterparts of `lift`/`combine` used by the `bulk_*` hot
    // paths. The defaults are plain sequential loops — bitwise identical
    // to calling the scalar methods element by element — so every
    // operation gets them for free. Specialized overrides (the invertible
    // arithmetic ops, `MaxF64`/`MinF64`) replace them with branchless,
    // autovectorizable kernels; the `slice-kernel-coverage` lint in
    // `swag-check` enforces that a specialized `fold_slice` is accompanied
    // by matching scan overrides.

    /// Fold a whole slice into `init`:
    /// `init ⊕ slice[0] ⊕ slice[1] ⊕ … ⊕ slice[n−1]`.
    ///
    /// The default is the exact sequential left fold. Overrides may
    /// *regroup* the ⊕ applications (associativity is a trait law), and
    /// [`CommutativeOp`]s may additionally *reorder* them — the lane
    /// kernels fold [`FOLD_LANES`] interleaved accumulators so the loop
    /// autovectorizes. Callers that need the exact sequential association
    /// (the bitwise `bulk_slide` contract) must not use `fold_slice` on
    /// reassociation-sensitive carriers; the algorithm hot paths only call
    /// it where the surrounding contract already permits reassociation
    /// (`bulk_insert` batch prefolds, executor fragment folding).
    fn fold_slice(&self, init: &Self::Partial, slice: &[Self::Partial]) -> Self::Partial {
        let mut acc = init.clone();
        for p in slice {
            acc = self.combine(&acc, p);
        }
        acc
    }

    /// Inclusive left-to-right scan: `out[k] = slice[0] ⊕ … ⊕ slice[k]`.
    /// `out` is cleared first; an empty slice leaves it empty.
    ///
    /// Unlike [`fold_slice`](Self::fold_slice), scans must stay **bitwise
    /// identical** to the sequential combine loop in every override: their
    /// results are stored as cached per-node aggregates (TwoStacks stack
    /// entries, FlatFAT internal nodes) that the `strict-invariants`
    /// checkers re-derive sequentially and compare exactly. Overrides may
    /// only remove branches and memory traffic, never reassociate.
    fn prefix_scan_into(&self, slice: &[Self::Partial], out: &mut Vec<Self::Partial>) {
        out.clear();
        out.extend_from_slice(slice);
        for k in 1..out.len() {
            let acc = self.combine(&out[k - 1], &out[k]);
            out[k] = acc;
        }
    }

    /// Inclusive right-to-left scan: `out[k] = slice[k] ⊕ … ⊕ slice[n−1]`.
    /// `out` is cleared first; an empty slice leaves it empty.
    ///
    /// Same bitwise contract as [`prefix_scan_into`](Self::prefix_scan_into).
    fn suffix_scan_into(&self, slice: &[Self::Partial], out: &mut Vec<Self::Partial>) {
        out.clear();
        out.extend_from_slice(slice);
        let n = out.len();
        for k in (0..n.saturating_sub(1)).rev() {
            let acc = self.combine(&out[k], &out[k + 1]);
            out[k] = acc;
        }
    }

    /// Lift a whole slice of inputs into `out` (cleared first).
    ///
    /// The default maps [`lift`](Self::lift) per element. Operations whose
    /// lift is the identity on the carrier ([`Sum`]) override it with a
    /// straight `extend_from_slice` memcpy; [`Count`] overrides it with a
    /// `resize` memset.
    fn lift_slice_into(&self, inputs: &[Self::Input], out: &mut Vec<Self::Partial>) {
        out.clear();
        out.reserve(inputs.len());
        out.extend(inputs.iter().map(|i| self.lift(i)));
    }
}

/// Number of interleaved accumulators used by [`lane_fold`]: eight 64-bit
/// lanes fill one 512-bit vector register and still buy instruction-level
/// parallelism on narrower hardware.
pub const FOLD_LANES: usize = 8;

/// Fold `slice` into `init` with [`FOLD_LANES`] interleaved accumulators.
///
/// Lane `j` accumulates elements `j, j + FOLD_LANES, j + 2·FOLD_LANES, …`,
/// and the lanes are reduced pairwise at the end — this **reorders** the ⊕
/// applications, so it is only sound for [`CommutativeOp`]s. With a
/// primitive `combine` the inner loop compiles to straight-line vector code.
///
/// Slices shorter than one lane block fall back to the sequential fold, so
/// short batches stay bitwise identical to the default kernel.
pub fn lane_fold<P: Clone>(init: &P, slice: &[P], combine: impl Fn(&P, &P) -> P) -> P {
    if slice.len() < FOLD_LANES {
        let mut acc = init.clone();
        for p in slice {
            acc = combine(&acc, p);
        }
        return acc;
    }
    let mut lanes: [P; FOLD_LANES] = core::array::from_fn(|j| slice[j].clone());
    let mut blocks = slice[FOLD_LANES..].chunks_exact(FOLD_LANES);
    for block in blocks.by_ref() {
        for j in 0..FOLD_LANES {
            lanes[j] = combine(&lanes[j], &block[j]);
        }
    }
    // Pairwise tree reduction keeps the final dependency chain short.
    let mut width = FOLD_LANES;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            lanes[j] = combine(&lanes[j], &lanes[j + width]);
        }
    }
    let mut acc = combine(init, &lanes[0]);
    for p in blocks.remainder() {
        acc = combine(&acc, p);
    }
    acc
}

/// Sequential inclusive prefix scan through an accumulator register.
///
/// Bitwise identical to the default [`AggregateOp::prefix_scan_into`] (same
/// combine order), but keeps the running value in a register instead of
/// re-reading `out[k − 1]` and lets the iterator elide bounds checks.
pub(crate) fn scan_prefix_with<P: Clone>(
    slice: &[P],
    out: &mut Vec<P>,
    combine: impl Fn(&P, &P) -> P,
) {
    out.clear();
    let mut acc = match slice.first() {
        Some(x) => x.clone(),
        None => return,
    };
    out.reserve(slice.len());
    out.push(acc.clone());
    for x in &slice[1..] {
        acc = combine(&acc, x);
        out.push(acc.clone());
    }
}

/// Sequential inclusive suffix scan through an accumulator register.
///
/// Bitwise identical to the default [`AggregateOp::suffix_scan_into`].
pub(crate) fn scan_suffix_with<P: Clone>(
    slice: &[P],
    out: &mut Vec<P>,
    combine: impl Fn(&P, &P) -> P,
) {
    out.clear();
    out.extend_from_slice(slice);
    let mut it = out.iter_mut().rev();
    let mut acc = match it.next() {
        Some(x) => x.clone(),
        None => return,
    };
    for x in it {
        acc = combine(x, &acc);
        *x = acc.clone();
    }
}

/// An [`AggregateOp`] with a feasibly inexpensive inverse ⊖ such that
/// `inverse_combine(combine(a, b), b) == a`.
///
/// This is the paper's *invertible* class (Sum, Product, Count, Average,
/// Standard Deviation, …) processed by SlickDeque (Inv) / Panes (Inv) /
/// Subtract-on-Evict.
pub trait InvertibleOp: AggregateOp {
    /// Remove `b`'s contribution from `a`, i.e. `a ⊖ b`.
    fn inverse_combine(&self, a: &Self::Partial, b: &Self::Partial) -> Self::Partial;
}

/// Marker for operations where `combine(a, b)` always equals one of its two
/// arguments (selection semantics).
///
/// The paper (§3.1) observes that every non-invertible, non-holistic
/// operation has this property; it is what makes SlickDeque (Non-Inv)'s
/// monotone deque sound: a partial dominated by a newer arrival can never be
/// a query answer again and may be discarded.
pub trait SelectiveOp: AggregateOp {
    /// True iff the newer partial `new` dominates the older partial `old`:
    /// `combine(old, new) == new`, i.e. once `new` is in the window, `old`
    /// can never again be a query answer and may be discarded.
    ///
    /// The default decides via `combine` + `PartialEq`, which is correct for
    /// every carrier whose equality is reflexive. Float-carrying operations
    /// ([`MaxF64`], [`MinF64`]) override it with a `f64::total_cmp`-based
    /// test so that NaN partials (where `NaN != NaN` would wrongly report
    /// "not dominated" forever) still follow the documented total order.
    fn defeats(&self, new: &Self::Partial, old: &Self::Partial) -> bool {
        self.combine(old, new) == *new
    }
}

/// Marker for commutative operations (`a ⊕ b == b ⊕ a`).
pub trait CommutativeOp: AggregateOp {}

#[cfg(test)]
mod law_tests {
    //! Algebraic-law checks shared by all concrete operations, on exact
    //! integer carriers so the laws hold bitwise.
    use super::*;

    /// Assert the monoid laws for `op` over the given sample inputs.
    pub(crate) fn check_monoid_laws<O>(op: &O, inputs: &[O::Input])
    where
        O: AggregateOp,
    {
        let partials: Vec<O::Partial> = inputs.iter().map(|i| op.lift(i)).collect();
        for a in &partials {
            let id = op.identity();
            assert_eq!(&op.combine(&id, a), a, "left identity violated");
            assert_eq!(&op.combine(a, &id), a, "right identity violated");
            for b in &partials {
                for c in &partials {
                    let left = op.combine(&op.combine(a, b), c);
                    let right = op.combine(a, &op.combine(b, c));
                    assert_eq!(left, right, "associativity violated");
                }
            }
        }
    }

    /// Assert `inverse_combine(combine(a, b), b) == a` over sample inputs.
    pub(crate) fn check_inverse_law<O>(op: &O, inputs: &[O::Input])
    where
        O: InvertibleOp,
    {
        let partials: Vec<O::Partial> = inputs.iter().map(|i| op.lift(i)).collect();
        for a in &partials {
            for b in &partials {
                let ab = op.combine(a, b);
                assert_eq!(&op.inverse_combine(&ab, b), a, "inverse law violated");
            }
        }
    }

    /// Assert `combine(a, b) ∈ {a, b}` over sample inputs.
    pub(crate) fn check_selective_law<O>(op: &O, inputs: &[O::Input])
    where
        O: SelectiveOp,
    {
        let partials: Vec<O::Partial> = inputs.iter().map(|i| op.lift(i)).collect();
        for a in &partials {
            for b in &partials {
                let ab = op.combine(a, b);
                assert!(
                    &ab == a || &ab == b,
                    "selective law violated: {:?} ⊕ {:?} = {:?}",
                    a,
                    b,
                    ab
                );
            }
        }
    }

    /// Assert the slice kernels agree with the scalar loops.
    ///
    /// `fold_slice` is checked on a slice long enough to engage the lane
    /// path; these tests feed exact carriers, so even reordering overrides
    /// must agree bitwise. The scans and `lift_slice_into` must agree for
    /// every operation by contract.
    pub(crate) fn check_kernel_laws<O>(op: &O, inputs: &[O::Input])
    where
        O: AggregateOp,
    {
        let partials: Vec<O::Partial> = (0..3 * FOLD_LANES + 5)
            .map(|k| op.lift(&inputs[k % inputs.len()]))
            .collect();
        for n in 0..partials.len() {
            let slice = &partials[..n];
            let mut acc = op.identity();
            for p in slice {
                acc = op.combine(&acc, p);
            }
            assert_eq!(op.fold_slice(&op.identity(), slice), acc, "fold_slice");

            let mut fast = Vec::new();
            let mut slow: Vec<O::Partial> = Vec::new();
            op.prefix_scan_into(slice, &mut fast);
            for p in slice {
                let next = match slow.last() {
                    Some(prev) => op.combine(prev, p),
                    None => p.clone(),
                };
                slow.push(next);
            }
            assert_eq!(fast, slow, "prefix_scan_into");

            op.suffix_scan_into(slice, &mut fast);
            slow.clear();
            for p in slice.iter().rev() {
                let next = match slow.last() {
                    Some(prev) => op.combine(p, prev),
                    None => p.clone(),
                };
                slow.push(next);
            }
            slow.reverse();
            assert_eq!(fast, slow, "suffix_scan_into");
        }
        let mut lifted = Vec::new();
        op.lift_slice_into(inputs, &mut lifted);
        let scalar: Vec<O::Partial> = inputs.iter().map(|i| op.lift(i)).collect();
        assert_eq!(lifted, scalar, "lift_slice_into");
    }

    #[test]
    fn sum_i64_laws() {
        let op = Sum::<i64>::default();
        check_monoid_laws(&op, &[-5, -1, 0, 1, 3, 100]);
        check_inverse_law(&op, &[-5, -1, 0, 1, 3, 100]);
        check_kernel_laws(&op, &[-5, -1, 0, 1, 3, 100]);
    }

    #[test]
    fn count_laws() {
        let op = Count::<i64>::default();
        check_monoid_laws(&op, &[1, 2, 3]);
        check_inverse_law(&op, &[1, 2, 3]);
        check_kernel_laws(&op, &[1, 2, 3]);
    }

    #[test]
    fn max_i64_laws() {
        let op = Max::<i64>::default();
        check_monoid_laws(&op, &[-5, -1, 0, 1, 3, 100]);
        check_selective_law(&op, &[-5, -1, 0, 1, 3, 100]);
        check_kernel_laws(&op, &[-5, -1, 0, 1, 3, 100]);
    }

    #[test]
    fn min_i64_laws() {
        let op = Min::<i64>::default();
        check_monoid_laws(&op, &[-5, -1, 0, 1, 3, 100]);
        check_selective_law(&op, &[-5, -1, 0, 1, 3, 100]);
        check_kernel_laws(&op, &[-5, -1, 0, 1, 3, 100]);
    }

    #[test]
    fn alpha_max_laws() {
        let op = AlphaMax::default();
        let words: Vec<String> = ["apple", "pear", "zebra", "aardvark"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        check_monoid_laws(&op, &words);
        check_selective_law(&op, &words);
        check_kernel_laws(&op, &words);
    }

    #[test]
    fn argmax_laws() {
        let op = ArgMax::<i64, u32>::default();
        let inputs = [(3, 10), (5, 20), (5, 30), (-1, 40)];
        check_monoid_laws(&op, &inputs);
        check_selective_law(&op, &inputs);
        check_kernel_laws(&op, &inputs);
    }
}
