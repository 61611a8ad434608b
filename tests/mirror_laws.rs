//! Mirror laws for the paired selective operations, and the names and
//! heap figures that reports key on.
//!
//! Max/Min, MaxF64/MinF64, ArgMax/ArgMin and BoolAll/BoolAny each differ
//! only in which way a comparison points, so every answer of one half is
//! fixed by the other:
//!
//! * `Min` over `x` ≡ −(`Max` over −`x`), bitwise: for `i64` within ±2^62
//!   and for `f64` on streams with ±0, ±∞, NaNs of both signs and several
//!   payloads, and exact ties (the `total_cmp` order is reversed exactly
//!   by a sign flip, and the canonical NaN lifts are each other's
//!   negation);
//! * `ArgMin` over `(k, v)` ≡ `ArgMax` over `(−k, v)`, and a tie on the
//!   key answers the newest payload;
//! * `BoolAll` over `x` ≡ ¬`BoolAny` over ¬`x` (De Morgan).
//!
//! Each law is checked on every sliding window (SlickDeque Non-Inv), on
//! the whole-slice kernels (`fold_slice`, both scans) and on `defeats`,
//! each of which must also agree with the scalar `combine` loop. The
//! `name()` strings, the multi-query `NAME`s and the `heap_bytes` of the
//! re-evaluating multi-query baselines are pinned as literals: snapshots,
//! the CLI and the benchmark ledger all key on them.

use slickdeque::prelude::*;
use std::fmt::Debug;
use swag_core::ops::{BoolAll, BoolAny};
use swag_data::prng::Xoshiro256StarStar;

const WINDOWS: [usize; 5] = [1, 2, 5, 16, 61];
const STREAM_LEN: usize = 400;

/// Every window answer of `op` over `inputs` in a window of `window`.
fn windowed<O: SelectiveOp + Clone>(op: &O, inputs: &[O::Input], window: usize) -> Vec<O::Output> {
    let mut agg = SlickDequeNonInv::new(op.clone(), window);
    inputs
        .iter()
        .map(|x| op.lower(&agg.slide(op.lift(x))))
        .collect()
}

/// The whole-slice results of `op` over `inputs`: the fold from the
/// identity, then the prefix scan, then the suffix scan.
fn kernels<O: AggregateOp>(op: &O, inputs: &[O::Input]) -> Vec<O::Partial> {
    let parts: Vec<O::Partial> = inputs.iter().map(|x| op.lift(x)).collect();
    let mut out = vec![op.fold_slice(&op.identity(), &parts)];
    let mut scan = Vec::new();
    op.prefix_scan_into(&parts, &mut scan);
    out.extend(scan.iter().cloned());
    op.suffix_scan_into(&parts, &mut scan);
    out.extend(scan);
    out
}

/// The kernels and `defeats` of `op` against its scalar `combine` loop,
/// compared through `key` (the bit pattern for floats).
fn check_scalar<O, K>(op: &O, inputs: &[O::Input], key: impl Fn(&O::Partial) -> K, label: &str)
where
    O: SelectiveOp,
    K: PartialEq + Debug,
{
    let parts: Vec<O::Partial> = inputs.iter().map(|x| op.lift(x)).collect();
    let mut want = Vec::new();
    let mut acc = op.identity();
    for p in &parts {
        acc = op.combine(&acc, p);
        want.push(key(&acc));
    }
    let fold = key(&acc);
    let mut back = Vec::new();
    let mut acc = op.identity();
    for p in parts.iter().rev() {
        acc = op.combine(p, &acc);
        back.push(key(&acc));
    }
    back.reverse();
    let fold_got = key(&op.fold_slice(&op.identity(), &parts));
    assert!(
        fold_got == fold,
        "{label}: fold_slice {fold_got:?} vs {fold:?}"
    );
    let mut scan = Vec::new();
    op.prefix_scan_into(&parts, &mut scan);
    let got: Vec<K> = scan.iter().map(&key).collect();
    assert!(got == want, "{label}: prefix_scan_into");
    op.suffix_scan_into(&parts, &mut scan);
    let got: Vec<K> = scan.iter().map(&key).collect();
    assert!(got == back, "{label}: suffix_scan_into");
    for old in parts.iter().take(24) {
        for new in parts.iter().take(24) {
            let by_combine = key(&op.combine(old, new)) == key(new);
            assert_eq!(
                op.defeats(new, old),
                by_combine,
                "{label}: defeats({new:?}, {old:?})"
            );
        }
    }
}

/// `i64`s within ±2^62, half of them from a small range so ties are common.
fn i64_stream(seed: u64) -> Vec<i64> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let bound = 1u64 << 62;
    (0..STREAM_LEN)
        .map(|_| {
            let r = rng.next_u64();
            if r.is_multiple_of(2) {
                (r >> 8) as i64 % 7 - 3
            } else {
                ((r >> 1) % (2 * bound + 1)) as i64 - bound as i64
            }
        })
        .collect()
}

/// Floats with ±0, ±∞, NaNs of both signs and several payloads, and a
/// small palette of finite values so exact ties are common.
fn f64_stream(seed: u64) -> Vec<f64> {
    let nans = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff0_0000_0000_0123),
        f64::from_bits(0x7fff_ffff_ffff_ffff),
        f64::from_bits(0xfff8_0000_dead_beef),
    ];
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..STREAM_LEN)
        .map(|_| {
            let r = rng.next_u64();
            match r % 10 {
                0 => nans[(r >> 8) as usize % nans.len()],
                1 => 0.0,
                2 => -0.0,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                _ => ((r >> 8) % 9) as f64 / 2.0 - 2.0,
            }
        })
        .collect()
}

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn negated_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| (-x).to_bits()).collect()
}

#[test]
fn min_is_negated_max_of_negated_i64() {
    let (max, min) = (Max::<i64>::new(), Min::<i64>::new());
    for seed in 1..=4 {
        let xs = i64_stream(seed);
        let neg: Vec<i64> = xs.iter().map(|x| -x).collect();
        let flip = |p: &Option<i64>| p.map(|v| -v);
        for w in WINDOWS {
            let mirrored: Vec<Option<i64>> = windowed(&max, &neg, w).iter().map(flip).collect();
            assert_eq!(windowed(&min, &xs, w), mirrored, "seed {seed} window {w}");
        }
        let mirrored: Vec<Option<i64>> = kernels(&max, &neg).iter().map(flip).collect();
        assert_eq!(kernels(&min, &xs), mirrored, "seed {seed} kernels");
        check_scalar(&max, &xs, |p| *p, "max");
        check_scalar(&min, &xs, |p| *p, "min");
    }
}

#[test]
fn min_f64_is_negated_max_f64_of_negated_bitwise() {
    let (max, min) = (MaxF64::new(), MinF64::new());
    for seed in 1..=4 {
        let xs = f64_stream(seed);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        for w in WINDOWS {
            assert_eq!(
                f64_bits(&windowed(&min, &xs, w)),
                negated_bits(&windowed(&max, &neg, w)),
                "seed {seed} window {w}"
            );
        }
        assert_eq!(
            f64_bits(&kernels(&min, &xs)),
            negated_bits(&kernels(&max, &neg)),
            "seed {seed} kernels"
        );
        check_scalar(&max, &xs, |p| p.to_bits(), "max_f64");
        check_scalar(&min, &xs, |p| p.to_bits(), "min_f64");
    }
    // The identities and the canonical NaN lifts mirror each other too.
    assert_eq!(min.identity().to_bits(), (-max.identity()).to_bits());
    for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)] {
        assert_eq!(min.lift(&nan).to_bits(), (-max.lift(&-nan)).to_bits());
    }
}

#[test]
fn argmin_is_argmax_of_negated_key_and_ties_answer_newest() {
    let (amax, amin) = (ArgMax::<i64, usize>::new(), ArgMin::<i64, usize>::new());
    for seed in 1..=4 {
        let mut rng = Xoshiro256StarStar::new(seed);
        let xs: Vec<(i64, usize)> = (0..STREAM_LEN)
            .map(|i| ((rng.next_u64() % 5) as i64 - 2, i))
            .collect();
        let neg: Vec<(i64, usize)> = xs.iter().map(|&(k, v)| (-k, v)).collect();
        for w in WINDOWS {
            let got = windowed(&amin, &xs, w);
            assert_eq!(got, windowed(&amax, &neg, w), "seed {seed} window {w}");
            for (end, answer) in got.iter().enumerate() {
                let live = &xs[(end + 1).saturating_sub(w)..=end];
                let best = live.iter().map(|&(k, _)| k).min();
                let newest = live.iter().rev().find(|&&(k, _)| Some(k) == best);
                assert_eq!(*answer, newest.map(|&(_, v)| v), "window {w} end {end}");
            }
        }
        let flip = |p: &Option<(i64, usize)>| p.map(|(k, v)| (-k, v));
        let mirrored: Vec<Option<(i64, usize)>> = kernels(&amax, &neg).iter().map(flip).collect();
        assert_eq!(kernels(&amin, &xs), mirrored, "seed {seed} kernels");
        check_scalar(&amax, &xs, |p| *p, "arg_max");
        check_scalar(&amin, &xs, |p| *p, "arg_min");
    }
}

#[test]
fn bool_all_and_any_are_de_morgan_duals() {
    let (all, any): (BoolAll, BoolAny) = Default::default();
    assert!(all.identity() && !any.identity());
    for seed in 1..=4 {
        let mut rng = Xoshiro256StarStar::new(seed);
        // Skewed towards true so `all` windows are not always false.
        let xs: Vec<bool> = (0..STREAM_LEN)
            .map(|_| !rng.next_u64().is_multiple_of(6))
            .collect();
        let not: Vec<bool> = xs.iter().map(|x| !x).collect();
        for w in WINDOWS {
            let got = windowed(&all, &xs, w);
            let dual: Vec<bool> = windowed(&any, &not, w).iter().map(|b| !b).collect();
            assert_eq!(got, dual, "seed {seed} window {w}");
            for (end, answer) in got.iter().enumerate() {
                let live = &xs[(end + 1).saturating_sub(w)..=end];
                assert_eq!(*answer, live.iter().all(|&b| b), "window {w} end {end}");
            }
        }
        let dual: Vec<bool> = kernels(&any, &not).iter().map(|b| !b).collect();
        assert_eq!(kernels(&all, &xs), dual, "seed {seed} kernels");
        check_scalar(&all, &xs, |p| *p, "all");
        check_scalar(&any, &xs, |p| *p, "any");
    }
}

#[test]
fn first_and_last_answer_the_window_ends() {
    let (first, last) = (First::<i64>::new(), Last::<i64>::new());
    let xs = i64_stream(9);
    for w in WINDOWS {
        let (got_first, got_last) = (windowed(&first, &xs, w), windowed(&last, &xs, w));
        for end in 0..xs.len() {
            assert_eq!(got_first[end], Some(xs[(end + 1).saturating_sub(w)]));
            assert_eq!(got_last[end], Some(xs[end]));
        }
    }
    check_scalar(&first, &xs, |p| *p, "first");
    check_scalar(&last, &xs, |p| *p, "last");
}

#[test]
fn std_dev_is_the_root_of_variance_bitwise() {
    let (var, sd) = (Variance::new(), StdDev::new());
    let mut rng = Xoshiro256StarStar::new(5);
    let xs: Vec<f64> = (0..STREAM_LEN)
        .map(|_| (rng.next_u64() % 10_000) as f64 / 37.0 - 100.0)
        .collect();
    for w in WINDOWS {
        let mut a = SlickDequeInv::new(var, w);
        let mut b = SlickDequeInv::new(sd, w);
        for x in &xs {
            let (pa, pb) = (a.slide(var.lift(x)), b.slide(sd.lift(x)));
            assert_eq!(pa, pb, "window {w}");
            assert_eq!(var.lower(&pa).sqrt().to_bits(), sd.lower(&pb).to_bits());
        }
    }
}

#[test]
fn op_names_are_pinned() {
    let (all, any): (BoolAll, BoolAny) = Default::default();
    let names = [
        (Max::<i64>::new().name(), "max"),
        (Min::<i64>::new().name(), "min"),
        (AlphaMax::new().name(), "max"),
        (MaxF64::new().name(), "max_f64"),
        (MinF64::new().name(), "min_f64"),
        (ArgMax::<i64, u8>::new().name(), "arg_max"),
        (ArgMin::<i64, u8>::new().name(), "arg_min"),
        (First::<i64>::new().name(), "first"),
        (Last::<i64>::new().name(), "last"),
        (all.name(), "all"),
        (any.name(), "any"),
        (MinMax::<i64>::new().name(), "min_max"),
        (Range::new().name(), "min_max"),
        (Sum::<i64>::new().name(), "sum"),
        (SumSquares::<i64>::new().name(), "sum_squares"),
        (Count::<u8>::new().name(), "count"),
        (Product::new().name(), "product"),
        (Mean::new().name(), "mean"),
        (Variance::new().name(), "variance"),
        (StdDev::new().name(), "std_dev"),
        (GeometricMean::new().name(), "geometric_mean"),
        (PairOp::new(Sum::<f64>::new(), MaxF64::new()).name(), "pair"),
    ];
    for (got, want) in names {
        assert_eq!(got, want);
    }
}

#[test]
fn multi_names_are_pinned() {
    type S = Sum<i64>;
    type M = Max<i64>;
    let names = [
        (<MultiNaive<S> as MultiFinalAggregator<S>>::NAME, "naive"),
        (
            <MultiFlatFat<S> as MultiFinalAggregator<S>>::NAME,
            "flatfat",
        ),
        (<MultiBInt<S> as MultiFinalAggregator<S>>::NAME, "bint"),
        (
            <MultiFlatFit<S> as MultiFinalAggregator<S>>::NAME,
            "flatfit",
        ),
        (
            <MultiFlatFitSparse<S> as MultiFinalAggregator<S>>::NAME,
            "flatfit_sparse",
        ),
        (
            <MultiSlickDequeInv<S> as MultiFinalAggregator<S>>::NAME,
            "slickdeque_inv",
        ),
        (
            <MultiSlickDequeNonInv<M> as MultiFinalAggregator<M>>::NAME,
            "slickdeque_noninv",
        ),
    ];
    for (got, want) in names {
        assert_eq!(got, want);
    }
}

/// `heap_bytes` for each window, with the ranges `{w, ⌈w/2⌉, 1}`.
fn multi_heap<O, A>(op: O) -> Vec<usize>
where
    O: AggregateOp + Clone,
    A: MultiFinalAggregator<O>,
{
    [1usize, 7, 1024]
        .iter()
        .map(|&w| A::with_ranges(op.clone(), &[w, w.div_ceil(2), 1]).heap_bytes())
        .collect()
}

#[test]
fn multi_baseline_heap_bytes_are_pinned() {
    let (sum, max) = (Sum::<i64>::new(), Max::<i64>::new());
    assert_eq!(multi_heap::<_, MultiNaive<_>>(sum), [32, 80, 8216]);
    assert_eq!(multi_heap::<_, MultiFlatFat<_>>(sum), [40, 152, 16408]);
    assert_eq!(multi_heap::<_, MultiBInt<_>>(sum), [56, 240, 16664]);
    assert_eq!(multi_heap::<_, MultiNaive<_>>(max), [40, 136, 16408]);
    assert_eq!(multi_heap::<_, MultiFlatFat<_>>(max), [56, 280, 32792]);
    assert_eq!(multi_heap::<_, MultiBInt<_>>(max), [64, 360, 33040]);
}
