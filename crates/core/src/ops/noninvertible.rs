//! Non-invertible aggregate operations: Max, Min, Range, alphabetical Max,
//! ArgMax / ArgMin, First / Last, and boolean All/Any.
//!
//! These are the operations the paper's SlickDeque (Non-Inv) targets. All of
//! them except [`MinMax`]/[`Range`] have *selection* semantics
//! ([`SelectiveOp`]): `combine(a, b)` returns one of its arguments. The
//! selective operations come in mirrored pairs that differ only in which
//! way a comparison points, so each pair is one generic type over a
//! [`Direction`] — [`Greatest`] or [`Least`] — and the familiar names are
//! aliases of it: [`Max`]/[`Min`] of [`Extreme`], [`MaxF64`]/[`MinF64`] of
//! [`ExtremeF64`], [`ArgMax`]/[`ArgMin`] of [`ArgExtreme`],
//! [`BoolAny`]/[`BoolAll`] of [`BoolExtreme`] and [`Last`]/[`First`] of
//! [`WindowEnd`]. Range is algebraic (Max and Min combined) and is
//! therefore processed either by the general algorithms directly or by
//! SlickDeque as two deques (see
//! `algorithms::slickdeque_noninv::SlickDequeRange`).

use super::{AggregateOp, CommutativeOp, SelectiveOp};
use core::cmp::Ordering;
use core::fmt::Debug;
use core::marker::PhantomData;

/// Which end of an order a selective operation keeps: [`Greatest`] (Max,
/// MaxF64, ArgMax, BoolAny, Last) or [`Least`] (their mirrors).
///
/// Everything a mirrored pair does differently follows from one ordering,
/// [`KEEPS_OLDER`](Self::KEEPS_OLDER): the strict comparison under which ⊕
/// keeps its older (left) argument ([`outranks`](Self::outranks), or a
/// direct test against an [`Ordering`] such as `f64::total_cmp`'s) and,
/// through [`pick_end`](Self::pick_end), the identity, the canonical NaN,
/// the kernel seed and the name. Ties keep the newer (right) argument in
/// both directions, so the monotone deque discards the older duplicate.
pub trait Direction {
    /// How the older argument must compare with the newer one for ⊕ to
    /// keep it: `Greater` for [`Greatest`], `Less` for [`Least`].
    const KEEPS_OLDER: Ordering;

    /// `old` strictly beats `new`: `old > new` for [`Greatest`], `old < new`
    /// for [`Least`].
    #[inline]
    fn outranks<T: PartialOrd + ?Sized>(old: &T, new: &T) -> bool {
        old.partial_cmp(new) == Some(Self::KEEPS_OLDER)
    }

    /// `greatest` under [`Greatest`], `least` under [`Least`]. The choice
    /// is a compile-time constant, so the unused argument is dropped from
    /// every monomorphised kernel.
    #[inline]
    fn pick_end<X>(greatest: X, least: X) -> X {
        if Self::KEEPS_OLDER == Ordering::Greater {
            greatest
        } else {
            least
        }
    }
}

/// Keep the greatest element: Max, MaxF64, ArgMax, BoolAny, Last.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Greatest;

/// Keep the least element: Min, MinF64, ArgMin, BoolAll, First.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Least;

impl Direction for Greatest {
    const KEEPS_OLDER: Ordering = Ordering::Greater;
}

impl Direction for Least {
    const KEEPS_OLDER: Ordering = Ordering::Less;
}

/// ⊕ on `Option` partials with `None` as the identity: of two values the
/// older is kept only if `older_wins` says so, otherwise the newer.
#[inline]
fn select<P: Clone>(
    a: &Option<P>,
    b: &Option<P>,
    older_wins: impl FnOnce(&P, &P) -> bool,
) -> Option<P> {
    match (a, b) {
        (Some(x), Some(y)) => {
            if older_wins(x, y) {
                Some(x.clone())
            } else {
                Some(y.clone())
            }
        }
        (Some(x), None) => Some(x.clone()),
        (None, y) => y.clone(),
    }
}

/// Windowed maximum ([`Max`]) or minimum ([`Min`]) over any [`PartialOrd`]
/// carrier (numbers, strings, …).
///
/// The partial aggregate is `Option<T>` with `None` as the identity (the
/// paper's ∓∞ `initVal`), which keeps the operation total and generic without
/// requiring a least or greatest element for every carrier type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extreme<T, D>(PhantomData<(T, D)>);

/// Windowed maximum (see [`Extreme`]).
pub type Max<T> = Extreme<T, Greatest>;

/// Windowed minimum (see [`Extreme`]).
pub type Min<T> = Extreme<T, Least>;

/// Alphabetical maximum over strings — one of the paper's motivating
/// non-invertible operations. Identical to [`Max<String>`].
pub type AlphaMax = Max<String>;

impl<T, D> Extreme<T, D> {
    /// Create the operation.
    pub fn new() -> Self {
        Extreme(PhantomData)
    }
}

impl<T: PartialOrd + Clone + PartialEq + Debug, D: Direction> AggregateOp for Extreme<T, D> {
    type Input = T;
    type Partial = Option<T>;
    type Output = Option<T>;

    #[inline]
    fn identity(&self) -> Option<T> {
        None
    }

    #[inline]
    fn lift(&self, input: &T) -> Option<T> {
        Some(input.clone())
    }

    #[inline]
    fn combine(&self, a: &Option<T>, b: &Option<T>) -> Option<T> {
        select(a, b, D::outranks)
    }

    #[inline]
    fn lower(&self, agg: &Option<T>) -> Option<T> {
        agg.clone()
    }

    fn name(&self) -> &'static str {
        D::pick_end("max", "min")
    }
}

impl<T: PartialOrd + Clone + PartialEq + Debug, D: Direction> SelectiveOp for Extreme<T, D> {}
impl<T: PartialOrd + Clone + PartialEq + Debug, D: Direction> CommutativeOp for Extreme<T, D> {}

/// Map an `f64` to an `i64` whose natural integer order matches
/// [`f64::total_cmp`]: flip the sign bit for non-negative values, flip all
/// the ordering bits for negative ones (the same transform `total_cmp` uses
/// internally). The map is an involution — applying it twice returns the
/// original bits — so it is its own inverse.
///
/// [`ExtremeF64`] uses it to turn its slice kernels into branchless
/// integer `max`/`min` reductions: the map is a monotone bijection, so an
/// integer extreme of keys is the `total_cmp` extreme of values, and ties
/// are unobservable (total_cmp-equal floats have identical bits).
#[inline]
fn total_cmp_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Inverse of [`total_cmp_key`] (the same bit transform, then `from_bits`).
#[inline]
fn from_total_cmp_key(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

/// The integer `max` ([`Greatest`]) or `min` ([`Least`]) of two keys: the
/// one step of every branchless [`ExtremeF64`] kernel.
#[inline]
fn key_extreme<D: Direction>(a: i64, b: i64) -> i64 {
    D::pick_end(a.max(b), a.min(b))
}

/// Windowed maximum ([`MaxF64`], −∞ identity) or minimum ([`MinF64`], +∞
/// identity) over `f64` — the unboxed representation the paper's C++
/// platform uses for its `initVal`.
///
/// Halves the partial size relative to [`Max<f64>`]'s `Option<f64>`;
/// prefer it in throughput-critical paths.
///
/// # NaN policy
///
/// Values are ordered by [`f64::total_cmp`], which is a *total* order:
/// `NaN(neg) < −∞ < finite < +∞ < NaN`. `lift` canonicalises every NaN
/// input to the quiet NaN at the winning end of that order — positive for
/// Max, negative for Min — so a NaN in the window is "the maximum" (or
/// "the minimum") until it expires, and the window never silently drops or
/// misorders it. This keeps the selection property (`combine` returns one
/// of its arguments) and the identity law (the identity never beats a
/// canonical partial) intact even on hostile streams. Ties prefer the
/// newer (right) argument, matching [`Extreme`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtremeF64<D>(PhantomData<D>);

/// Windowed maximum over `f64` (see [`ExtremeF64`]).
pub type MaxF64 = ExtremeF64<Greatest>;

/// Windowed minimum over `f64` (see [`ExtremeF64`]).
pub type MinF64 = ExtremeF64<Least>;

impl<D> ExtremeF64<D> {
    /// Create the operation.
    pub fn new() -> Self {
        ExtremeF64(PhantomData)
    }
}

impl<D: Direction> AggregateOp for ExtremeF64<D> {
    type Input = f64;
    type Partial = f64;
    type Output = f64;

    #[inline]
    fn identity(&self) -> f64 {
        D::pick_end(f64::NEG_INFINITY, f64::INFINITY)
    }
    #[inline]
    fn lift(&self, input: &f64) -> f64 {
        // One bit pattern represents "NaN dominates" regardless of the
        // input's sign and payload bits.
        if input.is_nan() {
            D::pick_end(f64::NAN, -f64::NAN)
        } else {
            *input
        }
    }
    #[inline]
    fn combine(&self, a: &f64, b: &f64) -> f64 {
        if a.total_cmp(b) == D::KEEPS_OLDER {
            *a
        } else {
            *b
        }
    }
    #[inline]
    fn lower(&self, agg: &f64) -> f64 {
        *agg
    }
    fn name(&self) -> &'static str {
        D::pick_end("max_f64", "min_f64")
    }
    fn fold_slice(&self, init: &f64, slice: &[f64]) -> f64 {
        // Branchless reduction in total_cmp key space (see total_cmp_key).
        let mut best = total_cmp_key(*init);
        for &x in slice {
            best = key_extreme::<D>(best, total_cmp_key(x));
        }
        from_total_cmp_key(best)
    }
    fn prefix_scan_into(&self, slice: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(slice.len());
        // The key map is a bijection, so seeding past every key is safe:
        // the seed either loses immediately or *is* the first element's key.
        let mut best = D::pick_end(i64::MIN, i64::MAX);
        for &x in slice {
            best = key_extreme::<D>(best, total_cmp_key(x));
            out.push(from_total_cmp_key(best));
        }
    }
    fn suffix_scan_into(&self, slice: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(slice);
        let mut best = D::pick_end(i64::MIN, i64::MAX);
        for x in out.iter_mut().rev() {
            best = key_extreme::<D>(best, total_cmp_key(*x));
            *x = from_total_cmp_key(best);
        }
    }
}

impl<D: Direction> SelectiveOp for ExtremeF64<D> {
    /// `total_cmp`-based dominance: unlike the `PartialEq` default, a NaN
    /// arrival correctly defeats older partials (and an older NaN is only
    /// defeated by another NaN).
    #[inline]
    fn defeats(&self, new: &f64, old: &f64) -> bool {
        old.total_cmp(new) != D::KEEPS_OLDER
    }
}
impl<D: Direction> CommutativeOp for ExtremeF64<D> {}

/// Windowed ArgMax ([`ArgMax`]) or ArgMin ([`ArgMin`]): returns the payload
/// whose key is largest (smallest).
///
/// Inputs are `(key, payload)` pairs; `combine` selects the pair with the
/// larger (smaller) key, preferring the *newer* (right) argument on ties so
/// the answer is deterministic. Covers the paper's "ArgMax of Cosine" and
/// "ArgMin of x²" style operations by lifting `x` to `(cos(x), x)` or
/// `(x², x)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArgExtreme<K, V, D>(PhantomData<(K, V, D)>);

/// Windowed ArgMax (see [`ArgExtreme`]).
pub type ArgMax<K, V> = ArgExtreme<K, V, Greatest>;

/// Windowed ArgMin (see [`ArgExtreme`]).
pub type ArgMin<K, V> = ArgExtreme<K, V, Least>;

impl<K, V, D> ArgExtreme<K, V, D> {
    /// Create the operation.
    pub fn new() -> Self {
        ArgExtreme(PhantomData)
    }
}

impl<K, V, D> AggregateOp for ArgExtreme<K, V, D>
where
    K: PartialOrd + Clone + PartialEq + Debug,
    V: Clone + PartialEq + Debug,
    D: Direction,
{
    type Input = (K, V);
    type Partial = Option<(K, V)>;
    type Output = Option<V>;

    #[inline]
    fn identity(&self) -> Option<(K, V)> {
        None
    }

    #[inline]
    fn lift(&self, input: &(K, V)) -> Option<(K, V)> {
        Some(input.clone())
    }

    #[inline]
    fn combine(&self, a: &Option<(K, V)>, b: &Option<(K, V)>) -> Option<(K, V)> {
        select(a, b, |x, y| D::outranks(&x.0, &y.0))
    }

    #[inline]
    fn lower(&self, agg: &Option<(K, V)>) -> Option<V> {
        agg.as_ref().map(|(_, v)| v.clone())
    }

    fn name(&self) -> &'static str {
        D::pick_end("arg_max", "arg_min")
    }
}

impl<K, V, D> SelectiveOp for ArgExtreme<K, V, D>
where
    K: PartialOrd + Clone + PartialEq + Debug,
    V: Clone + PartialEq + Debug,
    D: Direction,
{
}

/// The newest ([`Last`]) or oldest ([`First`]) value in the window: the
/// greatest or least by arrival, so `combine` always selects its right
/// (newer) or left (older) argument. Selective, so SlickDeque (Non-Inv)
/// serves Last with a singleton deque (every arrival dominates everything)
/// and First with a deque that never pops (every node survives until
/// expiry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowEnd<T, D>(PhantomData<(T, D)>);

/// The oldest value in the window (see [`WindowEnd`]).
pub type First<T> = WindowEnd<T, Least>;

/// The newest value in the window (see [`WindowEnd`]).
pub type Last<T> = WindowEnd<T, Greatest>;

impl<T, D> WindowEnd<T, D> {
    /// Create the operation.
    pub fn new() -> Self {
        WindowEnd(PhantomData)
    }
}

impl<T: Clone + PartialEq + Debug, D: Direction> AggregateOp for WindowEnd<T, D> {
    type Input = T;
    type Partial = Option<T>;
    type Output = Option<T>;

    #[inline]
    fn identity(&self) -> Option<T> {
        None
    }
    #[inline]
    fn lift(&self, input: &T) -> Option<T> {
        Some(input.clone())
    }
    #[inline]
    fn combine(&self, a: &Option<T>, b: &Option<T>) -> Option<T> {
        // The older argument arrived first: it is the least by arrival.
        select(a, b, |_, _| D::pick_end(false, true))
    }
    #[inline]
    fn lower(&self, agg: &Option<T>) -> Option<T> {
        agg.clone()
    }
    fn name(&self) -> &'static str {
        D::pick_end("last", "first")
    }
}

impl<T: Clone + PartialEq + Debug, D: Direction> SelectiveOp for WindowEnd<T, D> {}

/// Windowed logical OR ([`BoolAny`]: true iff any tuple in the window is
/// true) or AND ([`BoolAll`]: true iff every tuple is) — the maximum or
/// minimum over `bool`, with the end that never wins as the identity.
///
/// Non-invertible (knowing `a AND b` and `b` does not recover `a` when
/// `b = false`) and selective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoolExtreme<D>(PhantomData<D>);

/// Windowed logical AND (see [`BoolExtreme`]).
pub type BoolAll = BoolExtreme<Least>;

/// Windowed logical OR (see [`BoolExtreme`]).
pub type BoolAny = BoolExtreme<Greatest>;

impl<D> BoolExtreme<D> {
    /// Create the operation.
    pub fn new() -> Self {
        BoolExtreme(PhantomData)
    }
}

impl<D: Direction> AggregateOp for BoolExtreme<D> {
    type Input = bool;
    type Partial = bool;
    type Output = bool;

    #[inline]
    fn identity(&self) -> bool {
        D::pick_end(false, true)
    }
    #[inline]
    fn lift(&self, input: &bool) -> bool {
        *input
    }
    #[inline]
    fn combine(&self, a: &bool, b: &bool) -> bool {
        D::pick_end(*a || *b, *a && *b)
    }
    #[inline]
    fn lower(&self, agg: &bool) -> bool {
        *agg
    }
    fn name(&self) -> &'static str {
        D::pick_end("any", "all")
    }
}

impl<D: Direction> SelectiveOp for BoolExtreme<D> {}
impl<D: Direction> CommutativeOp for BoolExtreme<D> {}

/// Windowed Range = Max − Min, the paper's canonical *algebraic*
/// non-invertible aggregation.
///
/// The partial carries both extrema, so `combine` merges rather than selects:
/// [`MinMax`] is **not** a [`SelectiveOp`] and cannot ride a single monotone
/// deque. General algorithms (Naive, FlatFAT, B-Int, FlatFIT, TwoStacks,
/// DABA) process it directly; SlickDeque processes it as two deques (see
/// `SlickDequeRange`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinMax<T>(PhantomData<T>);

/// [`MinMax`] specialised to `f64` with `Output = max − min`.
pub type Range = MinMax<f64>;

impl<T> MinMax<T> {
    /// Create the MinMax operation.
    pub fn new() -> Self {
        MinMax(PhantomData)
    }
}

impl<T: PartialOrd + Clone + PartialEq + Debug> AggregateOp for MinMax<T> {
    type Input = T;
    /// `(min, max)` of the covered tuples, or `None` for the empty window.
    type Partial = Option<(T, T)>;
    type Output = Option<(T, T)>;

    #[inline]
    fn identity(&self) -> Option<(T, T)> {
        None
    }

    #[inline]
    fn lift(&self, input: &T) -> Option<(T, T)> {
        Some((input.clone(), input.clone()))
    }

    #[inline]
    fn combine(&self, a: &Option<(T, T)>, b: &Option<(T, T)>) -> Option<(T, T)> {
        match (a, b) {
            (Some((amin, amax)), Some((bmin, bmax))) => {
                let min = if amin < bmin { amin } else { bmin };
                let max = if amax > bmax { amax } else { bmax };
                Some((min.clone(), max.clone()))
            }
            (Some(x), None) => Some(x.clone()),
            (None, y) => y.clone(),
        }
    }

    #[inline]
    fn lower(&self, agg: &Option<(T, T)>) -> Option<(T, T)> {
        agg.clone()
    }

    fn name(&self) -> &'static str {
        "min_max"
    }
}

impl<T: PartialOrd + Clone + PartialEq + Debug> CommutativeOp for MinMax<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cmp_key_is_a_monotone_involution() {
        let samples = [
            f64::NEG_INFINITY,
            -f64::NAN,
            -1.5,
            -0.0,
            0.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        for &a in &samples {
            assert_eq!(
                from_total_cmp_key(total_cmp_key(a)).to_bits(),
                a.to_bits(),
                "involution violated for {a:?}"
            );
            for &b in &samples {
                assert_eq!(
                    total_cmp_key(a).cmp(&total_cmp_key(b)),
                    a.total_cmp(&b),
                    "key order diverges from total_cmp for ({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn f64_extreme_kernels_match_scalar_loops_bitwise_with_nan() {
        // NaN-bearing stream: the canonicalised NaN dominates both orders
        // (positive NaN for MaxF64, negative NaN for MinF64), and the
        // kernels must reproduce the scalar combine loop bit for bit.
        let raw = [
            3.0,
            f64::NAN,
            -0.0,
            0.0,
            f64::NEG_INFINITY,
            7.5,
            f64::INFINITY,
            -2.0,
            f64::NAN,
            1.0,
        ];
        let max = MaxF64::new();
        let min = MinF64::new();
        for n in 0..raw.len() {
            let maxs: Vec<f64> = raw[..n].iter().map(|v| max.lift(v)).collect();
            let mins: Vec<f64> = raw[..n].iter().map(|v| min.lift(v)).collect();
            let mut acc_max = max.identity();
            let mut acc_min = min.identity();
            for (a, b) in maxs.iter().zip(&mins) {
                acc_max = max.combine(&acc_max, a);
                acc_min = min.combine(&acc_min, b);
            }
            assert_eq!(
                max.fold_slice(&max.identity(), &maxs).to_bits(),
                acc_max.to_bits()
            );
            assert_eq!(
                min.fold_slice(&min.identity(), &mins).to_bits(),
                acc_min.to_bits()
            );

            let mut fast = Vec::new();
            let mut slow: Vec<f64> = Vec::new();
            max.prefix_scan_into(&maxs, &mut fast);
            for p in &maxs {
                let next = match slow.last() {
                    Some(prev) => max.combine(prev, p),
                    None => *p,
                };
                slow.push(next);
            }
            let fast_bits: Vec<u64> = fast.iter().map(|x| x.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.iter().map(|x| x.to_bits()).collect();
            assert_eq!(fast_bits, slow_bits, "MaxF64 prefix scan");

            min.suffix_scan_into(&mins, &mut fast);
            slow.clear();
            for p in mins.iter().rev() {
                let next = match slow.last() {
                    Some(prev) => min.combine(p, prev),
                    None => *p,
                };
                slow.push(next);
            }
            slow.reverse();
            let fast_bits: Vec<u64> = fast.iter().map(|x| x.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.iter().map(|x| x.to_bits()).collect();
            assert_eq!(fast_bits, slow_bits, "MinF64 suffix scan");
        }
    }

    #[test]
    fn max_prefers_larger() {
        let op = Max::<i64>::new();
        assert_eq!(op.combine(&Some(3), &Some(5)), Some(5));
        assert_eq!(op.combine(&Some(5), &Some(3)), Some(5));
        assert_eq!(op.combine(&None, &Some(3)), Some(3));
        assert_eq!(op.combine(&Some(3), &None), Some(3));
        assert_eq!(op.combine(&None, &None), None);
    }

    #[test]
    fn max_tie_selects_right() {
        // On ties the newer (right) value wins, so the monotone deque in
        // SlickDeque (Non-Inv) discards the older duplicate.
        let op = Max::<i64>::new();
        let a = Some(5);
        let b = Some(5);
        assert_eq!(op.combine(&a, &b), b);
    }

    #[test]
    fn min_prefers_smaller() {
        let op = Min::<i64>::new();
        assert_eq!(op.combine(&Some(3), &Some(5)), Some(3));
        assert_eq!(op.combine(&Some(-1), &None), Some(-1));
    }

    #[test]
    fn alpha_max_orders_strings() {
        let op = AlphaMax::new();
        let a = op.lift(&"apple".to_string());
        let z = op.lift(&"zebra".to_string());
        assert_eq!(op.combine(&a, &z), Some("zebra".to_string()));
    }

    #[test]
    fn argmax_returns_payload() {
        let op = ArgMax::<f64, &'static str>::new();
        let a = op.lift(&(0.5, "half"));
        let b = op.lift(&(0.9, "most"));
        let c = op.combine(&a, &b);
        assert_eq!(op.lower(&c), Some("most"));
    }

    #[test]
    fn argmin_of_square_finds_smallest_magnitude() {
        // The paper's "ArgMin of x²": lift x to (x², x).
        let op = ArgMin::<i64, i64>::new();
        let xs = [-7, 3, -2, 9];
        let mut acc = op.identity();
        for x in xs {
            acc = op.combine(&acc, &op.lift(&(x * x, x)));
        }
        assert_eq!(op.lower(&acc), Some(-2));
    }

    #[test]
    fn minmax_tracks_both_extrema() {
        let op = MinMax::<i64>::new();
        let mut acc = op.identity();
        for v in [4, -2, 9, 0] {
            acc = op.combine(&acc, &op.lift(&v));
        }
        assert_eq!(acc, Some((-2, 9)));
    }

    #[test]
    fn bool_ops() {
        let all = BoolAll::new();
        let any = BoolAny::new();
        assert!(!all.combine(&true, &false));
        assert!(any.combine(&true, &false));
        assert!(all.identity());
        assert!(!any.identity());
    }

    #[test]
    fn max_f64_nan_dominates_and_expires() {
        use crate::aggregator::FinalAggregator;
        use crate::algorithms::SlickDequeNonInv;
        let op = MaxF64::new();
        let mut sd = SlickDequeNonInv::new(op, 3);
        assert_eq!(sd.slide(op.lift(&1.0)), 1.0);
        assert!(sd.slide(op.lift(&f64::NAN)).is_nan());
        assert!(sd.slide(op.lift(&9.0)).is_nan());
        sd.check_invariants().unwrap();
        // NaN stays the answer while live, then expires normally.
        assert!(sd.slide(op.lift(&2.0)).is_nan());
        assert_eq!(sd.slide(op.lift(&0.5)), 9.0);
        sd.check_invariants().unwrap();
    }

    #[test]
    fn min_f64_nan_dominates_and_expires() {
        use crate::aggregator::FinalAggregator;
        use crate::algorithms::SlickDequeNonInv;
        let op = MinF64::new();
        let mut sd = SlickDequeNonInv::new(op, 3);
        assert_eq!(sd.slide(op.lift(&5.0)), 5.0);
        assert!(sd.slide(op.lift(&f64::NAN)).is_nan());
        assert!(sd.slide(op.lift(&-3.0)).is_nan());
        sd.check_invariants().unwrap();
        assert!(sd.slide(op.lift(&7.0)).is_nan());
        assert_eq!(sd.slide(op.lift(&8.0)), -3.0);
        sd.check_invariants().unwrap();
    }

    #[test]
    fn f64_extrema_total_order_laws_with_nan() {
        // total_cmp gives a genuine total order, so the monoid and
        // selection laws hold bitwise even with NaN and signed zeros —
        // compare by to_bits since NaN != NaN under PartialEq.
        let max = MaxF64::new();
        let min = MinF64::new();
        let samples = [
            max.lift(&f64::NAN),
            min.lift(&f64::NAN),
            f64::NEG_INFINITY,
            f64::INFINITY,
            -0.0,
            0.0,
            -3.5,
            7.25,
        ];
        for a in samples {
            for b in samples {
                for c in samples {
                    for opc in [
                        |x: &f64, y: &f64| MaxF64::new().combine(x, y),
                        |x: &f64, y: &f64| MinF64::new().combine(x, y),
                    ] {
                        let left = opc(&opc(&a, &b), &c);
                        let right = opc(&a, &opc(&b, &c));
                        assert_eq!(left.to_bits(), right.to_bits(), "assoc {a} {b} {c}");
                        let ab = opc(&a, &b);
                        assert!(
                            ab.to_bits() == a.to_bits() || ab.to_bits() == b.to_bits(),
                            "selection {a} {b}"
                        );
                    }
                }
            }
        }
        // Identity absorption: canonical NaNs sit strictly inside the
        // identity bounds of the total order.
        let nan_hi = max.lift(&f64::NAN);
        assert_eq!(
            max.combine(&max.identity(), &nan_hi).to_bits(),
            nan_hi.to_bits()
        );
        let nan_lo = min.lift(&f64::NAN);
        assert_eq!(
            min.combine(&min.identity(), &nan_lo).to_bits(),
            nan_lo.to_bits()
        );
    }

    #[test]
    fn f64_defeats_matches_combine_for_non_nan() {
        use super::SelectiveOp;
        let max = MaxF64::new();
        let min = MinF64::new();
        let samples = [-1.0, 0.0, 2.5, f64::INFINITY, f64::NEG_INFINITY];
        for old in samples {
            for new in samples {
                assert_eq!(max.defeats(&new, &old), max.combine(&old, &new) == new);
                assert_eq!(min.defeats(&new, &old), min.combine(&old, &new) == new);
            }
        }
        // And the NaN cases the PartialEq default cannot decide:
        assert!(max.defeats(&max.lift(&f64::NAN), &5.0));
        assert!(max.defeats(&max.lift(&f64::NAN), &max.lift(&f64::NAN)));
        assert!(!max.defeats(&5.0, &max.lift(&f64::NAN)));
        assert!(min.defeats(&min.lift(&f64::NAN), &5.0));
        assert!(!min.defeats(&5.0, &min.lift(&f64::NAN)));
    }
}

#[cfg(test)]
mod first_last_tests {
    use super::*;
    use crate::aggregator::FinalAggregator;
    use crate::algorithms::{Naive, SlickDequeNonInv};

    #[test]
    fn first_selects_oldest() {
        let op = First::<i64>::new();
        let mut acc = op.identity();
        for v in [5, 3, 9] {
            acc = op.combine(&acc, &op.lift(&v));
        }
        assert_eq!(acc, Some(5));
    }

    #[test]
    fn last_selects_newest() {
        let op = Last::<i64>::new();
        let mut acc = op.identity();
        for v in [5, 3, 9] {
            acc = op.combine(&acc, &op.lift(&v));
        }
        assert_eq!(acc, Some(9));
    }

    #[test]
    fn first_through_deque_keeps_full_window() {
        let op = First::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, 3);
        let mut naive = Naive::new(op, 3);
        for v in [1, 2, 3, 4, 5, 6] {
            assert_eq!(sd.slide(op.lift(&v)), naive.slide(op.lift(&v)));
            sd.check_invariants().unwrap();
        }
        // First never pops by dominance: the deque holds the full window.
        assert_eq!(sd.deque_len(), 3);
    }

    #[test]
    fn last_through_deque_keeps_singleton() {
        let op = Last::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, 5);
        for v in [1, 2, 3, 4, 5, 6] {
            assert_eq!(sd.slide(op.lift(&v)), Some(v));
            assert_eq!(sd.deque_len(), 1);
        }
    }

    #[test]
    fn first_last_associativity() {
        let f = First::<i64>::new();
        let l = Last::<i64>::new();
        for a in [None, Some(1)] {
            for b in [None, Some(2)] {
                for c in [None, Some(3)] {
                    assert_eq!(
                        f.combine(&f.combine(&a, &b), &c),
                        f.combine(&a, &f.combine(&b, &c))
                    );
                    assert_eq!(
                        l.combine(&l.combine(&a, &b), &c),
                        l.combine(&a, &l.combine(&b, &c))
                    );
                }
            }
        }
    }
}
