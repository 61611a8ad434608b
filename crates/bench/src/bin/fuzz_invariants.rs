//! Differential invariant fuzzer: replay seeded random window programs
//! against a `VecDeque` oracle, validating every algorithm's
//! `check_invariants` after every mutation.
//!
//! Each program drives one `(algorithm, operation)` pair through a random
//! mix of `slide` / `evict` / `bulk_evict` / `bulk_insert` / `bulk_slide`
//! actions, comparing answers and lengths against an oracle that refolds
//! the live window from scratch, and running the paper-derived structural
//! checkers after each step. Inputs are `i64`, so every comparison —
//! including SlickDeque (Inv)'s `answer-refold` — is exact.
//!
//! Build with `--features strict-invariants` to additionally run the
//! aggregators' internal `strict_check!` self-checks on the hot path.
//!
//! Usage: `fuzz_invariants [--ops N] [--seed S] [--quick]`
//! Exits non-zero (panics) on the first violation; prints a mutation
//! tally on success.

use std::collections::VecDeque;

use swag_core::aggregator::{FinalAggregator, MultiFinalAggregator};
use swag_core::algorithms::{
    BInt, Daba, FlatFat, FlatFit, Naive, SlickDequeInv, SlickDequeNonInv, TwoStacks,
};
use swag_core::multi::{MultiSlickDequeInv, MultiSlickDequeNonInv};
use swag_core::ops::{AggregateOp, Count, Last, Max, Min, Sum};
use swag_data::prng::Xoshiro256StarStar;

/// Refold the oracle's live window oldest→newest, identity-seeded — the
/// ground truth every aggregator answer must match.
fn fold_oracle<O: AggregateOp<Input = i64>>(op: &O, oracle: &VecDeque<i64>) -> O::Partial {
    let mut acc = op.identity();
    for v in oracle {
        acc = op.combine(&acc, &op.lift(v));
    }
    acc
}

/// One fuzz program over a single-query aggregator: `steps` random
/// actions, invariants checked and state cross-checked after every one.
/// Returns the number of window mutations (tuples inserted or evicted).
fn fuzz_final<O, A>(
    label: &str,
    op: O,
    window: usize,
    steps: u64,
    rng: &mut Xoshiro256StarStar,
) -> u64
where
    O: AggregateOp<Input = i64> + Clone,
    O::Partial: PartialEq + std::fmt::Debug,
    A: FinalAggregator<O>,
{
    let mut agg = A::with_capacity(op.clone(), window);
    let mut oracle: VecDeque<i64> = VecDeque::new();
    let mut out = Vec::new();
    let mut mutations = 0u64;
    let value = |rng: &mut Xoshiro256StarStar| rng.gen_below(1000) as i64 - 500;
    for step in 0..steps {
        match rng.gen_below(100) {
            0..=49 => {
                let v = value(rng);
                let answer = agg.slide(op.lift(&v));
                oracle.push_back(v);
                if oracle.len() > window {
                    oracle.pop_front();
                }
                let expect = fold_oracle(&op, &oracle);
                assert_eq!(
                    answer, expect,
                    "{label}: slide answer diverged at step {step}"
                );
                mutations += 1;
            }
            50..=64 => {
                if !oracle.is_empty() {
                    agg.evict();
                    oracle.pop_front();
                    mutations += 1;
                }
            }
            65..=74 => {
                let n = rng.gen_below(oracle.len() as u64 + 1) as usize;
                agg.bulk_evict(n);
                oracle.drain(..n);
                mutations += n as u64;
            }
            75..=89 => {
                let b = rng.gen_below(2 * window as u64 + 1) as usize;
                let vals: Vec<i64> = (0..b).map(|_| value(rng)).collect();
                let lifted: Vec<O::Partial> = vals.iter().map(|v| op.lift(v)).collect();
                agg.bulk_insert(&lifted);
                for v in vals {
                    oracle.push_back(v);
                    if oracle.len() > window {
                        oracle.pop_front();
                    }
                }
                mutations += b as u64;
            }
            _ => {
                let b = rng.gen_below(2 * window as u64 + 1) as usize;
                let vals: Vec<i64> = (0..b).map(|_| value(rng)).collect();
                let lifted: Vec<O::Partial> = vals.iter().map(|v| op.lift(v)).collect();
                agg.bulk_slide(&lifted, &mut out);
                assert_eq!(
                    out.len(),
                    b,
                    "{label}: bulk_slide answer count at step {step}"
                );
                for (k, v) in vals.into_iter().enumerate() {
                    oracle.push_back(v);
                    if oracle.len() > window {
                        oracle.pop_front();
                    }
                    let expect = fold_oracle(&op, &oracle);
                    assert_eq!(
                        out[k], expect,
                        "{label}: bulk_slide answer {k} diverged at step {step}"
                    );
                }
                mutations += b as u64;
            }
        }
        if let Err(violation) = agg.check_invariants() {
            panic!("{label}: window {window}, step {step}: {violation}");
        }
        assert_eq!(
            agg.len(),
            oracle.len(),
            "{label}: len diverged at step {step}"
        );
    }
    mutations
}

/// Fuzz the multi-query invertible SlickDeque (Algorithm 1) against a
/// per-range refolding oracle, through both the scalar and bulk paths.
fn fuzz_multi_inv(label: &str, ranges: &[usize], steps: u64, rng: &mut Xoshiro256StarStar) -> u64 {
    let op = Sum::<i64>::new();
    let mut agg = MultiSlickDequeInv::with_ranges(op, ranges);
    let rs = agg.ranges().to_vec();
    let wsize = rs[0];
    let mut oracle: VecDeque<i64> = VecDeque::new();
    let mut out = Vec::new();
    let mut mutations = 0u64;
    let expect_for =
        |oracle: &VecDeque<i64>, r: usize| -> i64 { oracle.iter().rev().take(r).sum() };
    for step in 0..steps {
        if rng.gen_below(100) < 70 {
            let v = rng.gen_below(1000) as i64 - 500;
            agg.slide_multi(v, &mut out);
            oracle.push_back(v);
            if oracle.len() > wsize {
                oracle.pop_front();
            }
            for (i, &r) in rs.iter().enumerate() {
                assert_eq!(
                    out[i],
                    expect_for(&oracle, r),
                    "{label}: range {r} diverged at step {step}"
                );
            }
            mutations += 1;
        } else {
            let b = rng.gen_below(2 * wsize as u64 + 1) as usize;
            let vals: Vec<i64> = (0..b).map(|_| rng.gen_below(1000) as i64 - 500).collect();
            agg.bulk_slide_multi(&vals, &mut out);
            assert_eq!(out.len(), b * rs.len(), "{label}: bulk answer count");
            for (k, v) in vals.into_iter().enumerate() {
                oracle.push_back(v);
                if oracle.len() > wsize {
                    oracle.pop_front();
                }
                for (i, &r) in rs.iter().enumerate() {
                    assert_eq!(
                        out[k * rs.len() + i],
                        expect_for(&oracle, r),
                        "{label}: bulk range {r}, element {k} diverged at step {step}"
                    );
                }
            }
            mutations += b as u64;
        }
        if let Err(violation) = agg.check_invariants() {
            panic!("{label}: step {step}: {violation}");
        }
    }
    mutations
}

/// Fuzz the multi-query non-invertible SlickDeque (Algorithm 2) against a
/// per-range max-refolding oracle, through both the per-slide path and the
/// frame-wise bulk path (batches up to twice the window, so short runs,
/// whole frames and multi-frame batches all occur).
fn fuzz_multi_noninv(
    label: &str,
    ranges: &[usize],
    steps: u64,
    rng: &mut Xoshiro256StarStar,
) -> u64 {
    let op = Max::<i64>::new();
    let mut agg = MultiSlickDequeNonInv::with_ranges(op, ranges);
    let rs = agg.ranges().to_vec();
    let wsize = rs[0];
    let mut oracle: VecDeque<i64> = VecDeque::new();
    let mut out = Vec::new();
    let mut mutations = 0u64;
    for step in 0..steps {
        let b = if rng.gen_below(100) < 70 {
            1
        } else {
            rng.gen_below(2 * wsize as u64 + 1) as usize
        };
        let vals: Vec<i64> = (0..b).map(|_| rng.gen_below(1000) as i64 - 500).collect();
        if b == 1 {
            agg.slide_multi(op.lift(&vals[0]), &mut out);
        } else {
            let lifted: Vec<_> = vals.iter().map(|v| op.lift(v)).collect();
            agg.bulk_slide_multi(&lifted, &mut out);
        }
        assert_eq!(out.len(), b * rs.len(), "{label}: answer count");
        for (k, v) in vals.into_iter().enumerate() {
            oracle.push_back(v);
            if oracle.len() > wsize {
                oracle.pop_front();
            }
            for (i, &r) in rs.iter().enumerate() {
                let expect = oracle.iter().rev().take(r).max().copied();
                assert_eq!(
                    out[k * rs.len() + i],
                    expect,
                    "{label}: range {r}, element {k} diverged at step {step}"
                );
            }
        }
        mutations += b as u64;
        if let Err(violation) = agg.check_invariants() {
            panic!("{label}: step {step}: {violation}");
        }
    }
    mutations
}

/// Run the order-preserving general algorithms over one operation with
/// fresh random windows. DABA's region checker is `O(len²)`, so its
/// windows stay small.
macro_rules! order_preserving_algorithms {
    ($total:ident, $rng:ident, $steps:expr, $op_label:expr, $op:expr) => {{
        let w = $rng.gen_range_usize(1, 65);
        $total +=
            fuzz_final::<_, Naive<_>>(concat!("naive/", $op_label), $op, w, $steps, &mut $rng);
        let w = $rng.gen_range_usize(1, 65);
        $total += fuzz_final::<_, BInt<_>>(concat!("bint/", $op_label), $op, w, $steps, &mut $rng);
        let w = $rng.gen_range_usize(1, 65);
        $total +=
            fuzz_final::<_, FlatFit<_>>(concat!("flatfit/", $op_label), $op, w, $steps, &mut $rng);
        let w = $rng.gen_range_usize(1, 65);
        $total += fuzz_final::<_, TwoStacks<_>>(
            concat!("twostacks/", $op_label),
            $op,
            w,
            $steps,
            &mut $rng,
        );
        let w = $rng.gen_range_usize(1, 33);
        $total += fuzz_final::<_, Daba<_>>(concat!("daba/", $op_label), $op, w, $steps, &mut $rng);
    }};
}

/// As above plus FlatFAT, whose whole-window slide answer reads the
/// cached root — order-correct only up to rotation, i.e. for commutative
/// operations (see `FlatFat::query_root`). The non-commutative `Last`
/// program therefore runs `order_preserving_algorithms!` only.
macro_rules! all_algorithms {
    ($total:ident, $rng:ident, $steps:expr, $op_label:expr, $op:expr) => {{
        order_preserving_algorithms!($total, $rng, $steps, $op_label, $op);
        let w = $rng.gen_range_usize(1, 65);
        $total +=
            fuzz_final::<_, FlatFat<_>>(concat!("flatfat/", $op_label), $op, w, $steps, &mut $rng);
    }};
}

fn main() {
    let mut target: u64 = 120_000;
    let mut seed: u64 = 0x51_1C_DE_00;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => {
                target = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--ops needs an integer"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--quick" => target = 20_000,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut rng = Xoshiro256StarStar::new(seed);
    let mut total = 0u64;
    let mut rounds = 0u64;
    // Each step mutates ~10 tuples on average across the 36 programs, so
    // scale the per-program step count to land one round near the target.
    let steps = (target / 360).clamp(50, 400);
    while total < target {
        rounds += 1;
        all_algorithms!(total, rng, steps, "sum", Sum::<i64>::new());
        all_algorithms!(total, rng, steps, "count", Count::<i64>::new());
        all_algorithms!(total, rng, steps, "max", Max::<i64>::new());
        all_algorithms!(total, rng, steps, "min", Min::<i64>::new());
        // Last is non-commutative: FlatFAT's root answer is excluded.
        order_preserving_algorithms!(total, rng, steps, "last", Last::<i64>::new());

        let w = rng.gen_range_usize(1, 65);
        total += fuzz_final::<_, SlickDequeInv<_>>(
            "slickdeque_inv/sum",
            Sum::<i64>::new(),
            w,
            steps,
            &mut rng,
        );
        let w = rng.gen_range_usize(1, 65);
        total += fuzz_final::<_, SlickDequeInv<_>>(
            "slickdeque_inv/count",
            Count::<i64>::new(),
            w,
            steps,
            &mut rng,
        );
        let w = rng.gen_range_usize(1, 65);
        total += fuzz_final::<_, SlickDequeNonInv<_>>(
            "slickdeque_noninv/max",
            Max::<i64>::new(),
            w,
            steps,
            &mut rng,
        );
        let w = rng.gen_range_usize(1, 65);
        total += fuzz_final::<_, SlickDequeNonInv<_>>(
            "slickdeque_noninv/min",
            Min::<i64>::new(),
            w,
            steps,
            &mut rng,
        );
        let w = rng.gen_range_usize(1, 65);
        total += fuzz_final::<_, SlickDequeNonInv<_>>(
            "slickdeque_noninv/last",
            Last::<i64>::new(),
            w,
            steps,
            &mut rng,
        );

        let mut ranges: Vec<usize> = (0..rng.gen_range_usize(1, 5))
            .map(|_| rng.gen_range_usize(1, 33))
            .collect();
        ranges.sort_unstable();
        ranges.dedup();
        total += fuzz_multi_inv("multi_slickdeque_inv/sum", &ranges, steps, &mut rng);
        total += fuzz_multi_noninv("multi_slickdeque_noninv/max", &ranges, steps, &mut rng);
    }
    println!(
        "fuzz_invariants: {total} window mutations over {rounds} round(s) of 36 programs, \
         zero invariant violations (seed {seed})"
    );
}

fn usage(problem: &str) -> ! {
    eprintln!("fuzz_invariants: {problem}");
    eprintln!("usage: fuzz_invariants [--ops N] [--seed S] [--quick]");
    std::process::exit(2);
}
