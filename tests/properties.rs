//! Randomized property tests on the core data structures and invariants:
//! algebraic op laws, DABA's region invariants under arbitrary FIFO
//! schedules, the monotone deque's dominance invariant, and shared-plan
//! structural properties.
//!
//! Driven by the vendored [`Xoshiro256StarStar`] PRNG instead of proptest
//! so the suite builds without crates.io access. Every case derives from a
//! fixed base seed plus the case index, so failures reproduce exactly;
//! a failing assertion names its case seed.

use slickdeque::data::Xoshiro256StarStar as Rng;
use slickdeque::prelude::*;
use std::collections::VecDeque;

/// Run `body` for `cases` deterministic seeds. The closure receives the
/// per-case RNG; assertion messages should include `rng`'s seed via the
/// `case` argument for reproduction.
fn check(cases: u64, mut body: impl FnMut(&mut Rng, u64)) {
    const BASE: u64 = 0x5EED_CA5E_0000_0000;
    for case in 0..cases {
        let mut rng = Rng::new(BASE ^ case);
        body(&mut rng, case);
    }
}

fn vec_i64(rng: &mut Rng, lo: i64, hi: i64, min_len: usize, max_len: usize) -> Vec<i64> {
    let len = rng.gen_range_usize(min_len, max_len);
    (0..len).map(|_| rng.gen_range_i64(lo, hi)).collect()
}

fn vec_usize(rng: &mut Rng, lo: usize, hi: usize, min_len: usize, max_len: usize) -> Vec<usize> {
    let len = rng.gen_range_usize(min_len, max_len);
    (0..len).map(|_| rng.gen_range_usize(lo, hi)).collect()
}

// ----- algebraic laws on exact carriers --------------------------------

#[test]
fn sum_monoid_laws() {
    check(128, |rng, case| {
        let (a, b, c) = (
            rng.gen_range_i64(-1000, 1000),
            rng.gen_range_i64(-1000, 1000),
            rng.gen_range_i64(-1000, 1000),
        );
        let op = Sum::<i64>::new();
        assert_eq!(
            op.combine(&op.combine(&a, &b), &c),
            op.combine(&a, &op.combine(&b, &c)),
            "case {case}"
        );
        assert_eq!(op.combine(&op.identity(), &a), a, "case {case}");
        assert_eq!(
            op.inverse_combine(&op.combine(&a, &b), &b),
            a,
            "case {case}"
        );
    });
}

#[test]
fn max_selective_and_associative() {
    check(128, |rng, case| {
        let (a, b, c) = (
            rng.next_u64() as i64,
            rng.next_u64() as i64,
            rng.next_u64() as i64,
        );
        let op = Max::<i64>::new();
        let (pa, pb, pc) = (op.lift(&a), op.lift(&b), op.lift(&c));
        let assoc_l = op.combine(&op.combine(&pa, &pb), &pc);
        let assoc_r = op.combine(&pa, &op.combine(&pb, &pc));
        assert_eq!(assoc_l, assoc_r, "case {case}");
        let ab = op.combine(&pa, &pb);
        assert!(ab == pa || ab == pb, "case {case}: not selective");
    });
}

#[test]
fn variance_inverse_roundtrip() {
    check(128, |rng, case| {
        let len = rng.gen_range_usize(1, 20);
        let xs: Vec<f64> = (0..len).map(|_| rng.gen_range_f64(-100.0, 100.0)).collect();
        let y = rng.gen_range_f64(-100.0, 100.0);
        let op = Variance::new();
        let mut acc = op.identity();
        for x in &xs {
            acc = op.combine(&acc, &op.lift(x));
        }
        let with = op.combine(&acc, &op.lift(&y));
        let back = op.inverse_combine(&with, &op.lift(&y));
        assert!((back.sum - acc.sum).abs() < 1e-9, "case {case}");
        assert!(
            (back.sum_squares - acc.sum_squares).abs() < 1e-6,
            "case {case}"
        );
        assert_eq!(back.count, acc.count, "case {case}");
    });
}

#[test]
fn minmax_combine_is_commutative_and_associative() {
    check(128, |rng, case| {
        let len = rng.gen_range_usize(1, 12);
        let xs: Vec<i32> = (0..len).map(|_| rng.next_u64() as i32).collect();
        let op = MinMax::<i32>::new();
        // Fold left and fold right must agree.
        let partials: Vec<_> = xs.iter().map(|x| op.lift(x)).collect();
        let left = partials
            .iter()
            .fold(op.identity(), |a, p| op.combine(&a, p));
        let right = partials
            .iter()
            .rev()
            .fold(op.identity(), |a, p| op.combine(p, &a));
        assert_eq!(left, right, "case {case}");
    });
}

// ----- DABA under arbitrary FIFO schedules ------------------------------

#[test]
fn daba_invariants_under_arbitrary_fifo() {
    check(128, |rng, case| {
        let steps = rng.gen_range_usize(1, 80);
        let schedule: Vec<(u8, u8)> = (0..steps)
            .map(|_| (rng.gen_below(2) as u8, rng.gen_range_u64(1, 6) as u8))
            .collect();
        let op = Sum::<i64>::new();
        let mut daba = Daba::new(op, 512);
        let mut model: VecDeque<i64> = VecDeque::new();
        let mut v = 0i64;
        for (kind, count) in schedule {
            for _ in 0..count {
                if kind == 0 {
                    v += 1;
                    daba.insert(v);
                    model.push_back(v);
                } else if !model.is_empty() {
                    daba.evict();
                    model.pop_front();
                }
                daba.check_invariants().unwrap();
                let expect: i64 = model.iter().sum();
                assert_eq!(daba.query(), expect, "case {case}");
            }
        }
    });
}

#[test]
fn daba_matches_naive_on_random_streams() {
    check(128, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 1, 300);
        let window = rng.gen_range_usize(1, 40);
        let op = Sum::<i64>::new();
        let mut daba = Daba::new(op, window);
        let mut naive = Naive::new(op, window);
        for &x in &stream {
            assert_eq!(daba.slide(x), naive.slide(x), "case {case}");
        }
    });
}

// ----- monotone deque invariants ----------------------------------------

#[test]
fn slickdeque_dominance_invariant() {
    check(128, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 1, 300);
        let window = rng.gen_range_usize(1, 40);
        let op = Max::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, window);
        let mut naive = Naive::new(op, window);
        for x in &stream {
            let got = sd.slide(op.lift(x));
            assert_eq!(got, naive.slide(op.lift(x)), "case {case}");
            sd.check_invariants().unwrap();
            assert!(sd.deque_len() <= window.min(stream.len()), "case {case}");
        }
    });
}

#[test]
fn multi_slickdeque_matches_multi_naive() {
    check(128, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 1, 200);
        let ranges = vec_usize(rng, 1, 30, 1, 6);
        let op = Max::<i64>::new();
        let mut deque = MultiSlickDequeNonInv::with_ranges(op, &ranges);
        let mut naive = MultiNaive::with_ranges(op, &ranges);
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for x in &stream {
            deque.slide_multi(op.lift(x), &mut o1);
            naive.slide_multi(op.lift(x), &mut o2);
            assert_eq!(o1, o2, "case {case}");
        }
    });
}

#[test]
fn multi_slickdeque_inv_matches_multi_naive() {
    check(128, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 1, 200);
        let ranges = vec_usize(rng, 1, 30, 1, 6);
        let op = Sum::<i64>::new();
        let mut inv = MultiSlickDequeInv::with_ranges(op, &ranges);
        let mut naive = MultiNaive::with_ranges(op, &ranges);
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for x in &stream {
            inv.slide_multi(*x, &mut o1);
            naive.slide_multi(*x, &mut o2);
            assert_eq!(o1, o2, "case {case}");
        }
    });
}

// ----- FlatFIT / FlatFAT / B-Int against the reference ------------------

#[test]
fn flatfit_matches_naive() {
    check(128, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 1, 300);
        let window = rng.gen_range_usize(1, 50);
        let op = Sum::<i64>::new();
        let mut fit = FlatFit::new(op, window);
        let mut naive = Naive::new(op, window);
        for &x in &stream {
            assert_eq!(fit.slide(x), naive.slide(x), "case {case}");
        }
    });
}

#[test]
fn tree_algorithms_match_naive() {
    check(128, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 1, 200);
        let window = rng.gen_range_usize(1, 50);
        let op = Sum::<i64>::new();
        let mut fat = FlatFat::new(op, window);
        let mut bint = BInt::new(op, window);
        let mut naive = Naive::new(op, window);
        for &x in &stream {
            let expect = naive.slide(x);
            assert_eq!(fat.slide(x), expect, "case {case}");
            assert_eq!(bint.slide(x), expect, "case {case}");
        }
    });
}

// ----- shared-plan structural properties ---------------------------------

fn random_queries(rng: &mut Rng, max_extra: u64, max_slide: u64, max_n: usize) -> Vec<Query> {
    let n = rng.gen_range_usize(1, max_n);
    (0..n)
        .map(|_| {
            let extra = rng.gen_range_u64(1, max_extra);
            let s = rng.gen_range_u64(1, max_slide);
            Query::new(s + extra, s)
        })
        .collect()
}

#[test]
fn plan_edges_tile_the_composite_slide() {
    check(128, |rng, case| {
        let queries = random_queries(rng, 30, 10, 4);
        for pat in [Pat::Panes, Pat::Pairs, Pat::Cutty] {
            let plan = SharedPlan::build(&queries, pat);
            // Edge lengths sum to the composite slide.
            let total: u64 = plan.edges().iter().map(|e| e.length).sum();
            assert_eq!(total, plan.composite_slide(), "case {case} {pat:?}");
            // Positions are strictly increasing and end at the composite.
            let positions: Vec<u64> = plan.edges().iter().map(|e| e.position).collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "case {case} {pat:?}"
            );
            assert_eq!(
                *positions.last().unwrap(),
                plan.composite_slide(),
                "case {case} {pat:?}"
            );
            // Every query reports exactly composite/slide times per cycle.
            for (qi, q) in queries.iter().enumerate() {
                let reports: usize = plan
                    .edges()
                    .iter()
                    .filter(|e| e.queries.contains(&qi))
                    .count();
                assert_eq!(
                    reports as u64,
                    plan.composite_slide() / q.slide,
                    "case {case} {pat:?} q{qi}"
                );
            }
            // wSize is positive and bounded by the largest range (a
            // partial spans at least one tuple).
            let max_range = queries.iter().map(|q| q.range).max().unwrap();
            assert!(plan.wsize() >= 1, "case {case} {pat:?}");
            assert!(plan.wsize() as u64 <= max_range, "case {case} {pat:?}");
        }
    });
}

#[test]
fn plan_execution_equals_brute_force() {
    check(96, |rng, case| {
        let queries = random_queries(rng, 12, 6, 3);
        let seed = rng.gen_range_u64(0, 1000);
        let stream = Workload::Uniform.generate(200, seed);
        let int_stream: Vec<f64> = stream.iter().map(|v| (v * 50.0).round()).collect();
        for pat in [Pat::Panes, Pat::Pairs, Pat::Cutty] {
            let plan = SharedPlan::build(&queries, pat);
            let op = Sum::<f64>::new();
            let mut exec = GeneralPlanExecutor::new(op, plan);
            let mut sink = CollectSink::new();
            exec.run(&mut VecSource::new(int_stream.clone()), 500, &mut sink);
            for (qi, q) in queries.iter().enumerate() {
                let answers: Vec<f64> = sink.for_query(qi).into_iter().cloned().collect();
                for (k, got) in answers.iter().enumerate() {
                    let p = (k + 1) * q.slide as usize;
                    let lo = p.saturating_sub(q.range as usize);
                    let expect: f64 = int_stream[lo..p].iter().sum();
                    assert!(
                        (got - expect).abs() < 1e-9,
                        "case {case} pat={pat:?} q={q} k={k}: {got} vs {expect}"
                    );
                }
            }
        }
    });
}

// ----- latency statistics ------------------------------------------------

#[test]
fn latency_summary_orders_percentiles() {
    check(128, |rng, case| {
        let len = rng.gen_range_usize(1, 500);
        let samples: Vec<u64> = (0..len).map(|_| rng.gen_below(1_000_000)).collect();
        let mut rec = LatencyRecorder::new();
        for s in &samples {
            rec.record_ns(*s);
        }
        let summary = rec.summarize_dropping(0.0);
        assert!(summary.min <= summary.p25, "case {case}");
        assert!(summary.p25 <= summary.median, "case {case}");
        assert!(summary.median <= summary.p75, "case {case}");
        assert!(summary.p75 <= summary.max, "case {case}");
        assert!(summary.mean >= summary.min as f64, "case {case}");
        assert!(summary.mean <= summary.max as f64, "case {case}");
    });
}

// ----- extensions: sparse FlatFIT, resize, reorder buffer ----------------

#[test]
fn sparse_flatfit_matches_multi_naive() {
    check(96, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 1, 250);
        let ranges = vec_usize(rng, 1, 40, 1, 6);
        let op = Sum::<i64>::new();
        let mut sparse = MultiFlatFitSparse::with_ranges(op, &ranges);
        let mut naive = MultiNaive::with_ranges(op, &ranges);
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for x in &stream {
            sparse.slide_multi(*x, &mut o1);
            naive.slide_multi(*x, &mut o2);
            assert_eq!(o1, o2, "case {case}");
        }
    });
}

#[test]
fn slickdeque_inv_resize_stays_consistent() {
    check(96, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 20, 200);
        let w1 = rng.gen_range_usize(1, 30);
        let w2 = rng.gen_range_usize(1, 30);
        let at_frac = rng.gen_range_f64(0.1, 0.9);
        let split = ((stream.len() as f64) * at_frac) as usize;
        let op = Sum::<i64>::new();
        let mut sd = SlickDequeInv::new(op, w1);
        for &v in &stream[..split] {
            sd.slide(v);
        }
        sd.resize(w2);
        // After w2 further slides the resize history has fully cycled out;
        // compare against a fresh window-w2 reference over the suffix.
        let mut reference = Naive::new(op, w2);
        for (i, &v) in stream[split..].iter().enumerate() {
            let got = sd.slide(v);
            let expect = reference.slide(v);
            if i + 1 >= w2 {
                assert_eq!(got, expect, "case {case} suffix slide {i}");
            }
        }
    });
}

#[test]
fn slickdeque_noninv_resize_stays_consistent() {
    check(96, |rng, case| {
        let stream = vec_i64(rng, -1000, 1000, 20, 200);
        let w1 = rng.gen_range_usize(1, 30);
        let w2 = rng.gen_range_usize(1, 30);
        let at_frac = rng.gen_range_f64(0.1, 0.9);
        let split = ((stream.len() as f64) * at_frac) as usize;
        let op = Max::<i64>::new();
        let mut sd = SlickDequeNonInv::new(op, w1);
        for &v in &stream[..split] {
            sd.slide(op.lift(&v));
        }
        sd.resize(w2);
        sd.check_invariants().unwrap();
        let mut reference = Naive::new(op, w2);
        for (i, &v) in stream[split..].iter().enumerate() {
            let got = sd.slide(op.lift(&v));
            let expect = reference.slide(op.lift(&v));
            sd.check_invariants().unwrap();
            if i + 1 >= w2 {
                assert_eq!(got, expect, "case {case} suffix slide {i}");
            }
        }
    });
}

#[test]
fn reorder_buffer_repairs_bounded_displacement() {
    check(96, |rng, case| {
        use slickdeque::stream::reorder::ReorderBuffer;
        let values = vec_i64(rng, -1000, 1000, 1, 150);
        let depth = rng.gen_range_usize(1, 8);
        // Shuffle locally: swap disjoint adjacent pairs (displacement 1).
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut i = 0;
        while i + 1 < n {
            if rng.gen_bool(0.5) {
                order.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        let mut buf = ReorderBuffer::new(depth.max(2));
        let mut out = Vec::new();
        for &idx in &order {
            buf.push(idx as u64, values[idx] as f64).unwrap();
            while let Some(v) = buf.pop_ready() {
                out.push(v as i64);
            }
        }
        buf.flush();
        while let Some(v) = buf.pop_ready() {
            out.push(v as i64);
        }
        assert_eq!(out, values, "case {case}");
    });
}

// ----- time-based windows and CLI parsing --------------------------------

/// A random timestamped stream: 120 tuples with non-decreasing timestamps
/// separated by gaps in `[0, 50)`, plus 1–3 time ranges in `[1, 300)` ms.
fn random_time_stream(rng: &mut Rng) -> (Vec<(u64, i64)>, Vec<u64>) {
    let n = rng.gen_range_usize(1, 121);
    let mut ts = 0u64;
    let stream: Vec<(u64, i64)> = (0..n)
        .map(|_| {
            ts += rng.gen_below(50);
            (ts, rng.gen_range_i64(-500, 500))
        })
        .collect();
    let ranges: Vec<u64> = (0..rng.gen_range_usize(1, 4))
        .map(|_| rng.gen_range_u64(1, 300))
        .collect();
    (stream, ranges)
}

/// Stream shapes for the count-vs-time differential: random, strictly
/// descending (no arrival defeats another: the deque fills), plateaus
/// (ties, which the newer partial wins) and random with NaNs.
fn differential_streams(rng: &mut Rng, n: usize) -> [Vec<f64>; 4] {
    let random: Vec<f64> = (0..n)
        .map(|_| rng.gen_range_i64(-4000, 4000) as f64 / 7.0)
        .collect();
    let descending = (0..n).map(|k| (n - k) as f64 * 0.1).collect();
    let plateaus = random.iter().map(|v| (v / 100.0).round()).collect();
    let mut with_nans = random.clone();
    for v in with_nans.iter_mut().step_by(5) {
        *v = f64::NAN;
    }
    [random, descending, plateaus, with_nans]
}

/// The ranges the differential serves for a window of `w`: `[w]` alone and
/// `[w, w/3, 1]` (positive ones; the aggregators deduplicate).
fn differential_ranges(w: usize) -> [Vec<usize>; 2] {
    [vec![w], vec![w, (w / 3).max(1), 1]]
}

fn bits(answers: &[f64]) -> Vec<u64> {
    answers.iter().map(|a| a.to_bits()).collect()
}

/// A count window is the time window whose timestamps are arrival indices:
/// the time-based Inv pair must answer bitwise like the count-based pair.
fn inv_count_vs_time(stream: &[f64], ranges: &[usize], case: u64) {
    let op = Sum::<f64>::new();
    let ranges_ms: Vec<u64> = ranges.iter().map(|&r| r as u64).collect();
    let mut count_multi = MultiSlickDequeInv::with_ranges(op, ranges);
    let mut time_multi = MultiTimeSlickDequeInv::new(op, &ranges_ms);
    let mut count_single = SlickDequeInv::new(op, ranges[0]);
    let mut time_single = TimeSlickDequeInv::new(op, ranges_ms[0]);
    let (mut o1, mut o2) = (Vec::new(), Vec::new());
    for (i, v) in stream.iter().enumerate() {
        count_multi.slide_multi(*v, &mut o1);
        time_multi.insert(i as u64, *v, &mut o2);
        assert_eq!(bits(&o1), bits(&o2), "case {case} tuple {i} {ranges:?}");
        let single = [count_single.slide(*v), time_single.insert(i as u64, *v)];
        assert_eq!(bits(&single), [o1[0].to_bits(); 2], "case {case} tuple {i}");
    }
}

/// The same for the four SlickDeque (Non-Inv) shells over the one monotone
/// deque, every structure checking its invariants at every step.
fn noninv_count_vs_time<O>(op: O, stream: &[f64], ranges: &[usize], case: u64)
where
    O: SelectiveOp<Input = f64, Partial = f64> + Copy,
{
    let ranges_ms: Vec<u64> = ranges.iter().map(|&r| r as u64).collect();
    let mut count_multi = MultiSlickDequeNonInv::with_ranges(op, ranges);
    let mut time_multi = MultiTimeSlickDequeNonInv::new(op, &ranges_ms);
    let mut count_single = SlickDequeNonInv::new(op, ranges[0]);
    let mut time_single = TimeSlickDequeNonInv::new(op, ranges_ms[0]);
    let (mut o1, mut o2) = (Vec::new(), Vec::new());
    for (i, v) in stream.iter().enumerate() {
        let p = op.lift(v);
        count_multi.slide_multi(p, &mut o1);
        time_multi.insert(i as u64, p, &mut o2);
        assert_eq!(bits(&o1), bits(&o2), "case {case} tuple {i} {ranges:?}");
        let single = [count_single.slide(p), time_single.insert(i as u64, p)];
        assert_eq!(bits(&single), [o1[0].to_bits(); 2], "case {case} tuple {i}");
        assert_eq!(
            count_multi.check_invariants(),
            Ok(()),
            "case {case} tuple {i}"
        );
        assert_eq!(
            time_multi.check_invariants(),
            Ok(()),
            "case {case} tuple {i}"
        );
        assert_eq!(
            count_single.check_invariants(),
            Ok(()),
            "case {case} tuple {i}"
        );
        assert_eq!(
            time_single.check_invariants(),
            Ok(()),
            "case {case} tuple {i}"
        );
    }
}

#[test]
fn time_multi_inv_matches_brute_force() {
    check(64, |rng, case| {
        let (stream, ranges) = random_time_stream(rng);
        let op = Sum::<i64>::new();
        let mut agg = MultiTimeSlickDequeInv::new(op, &ranges);
        let mut out = Vec::new();
        for (i, &(ts, v)) in stream.iter().enumerate() {
            agg.insert(ts, v, &mut out);
            for (k, &r) in agg.ranges_ms().iter().enumerate() {
                let expect: i64 = stream[..=i]
                    .iter()
                    .filter(|(t, _)| (*t as i128) > ts as i128 - r as i128)
                    .map(|(_, v)| v)
                    .sum();
                assert_eq!(out[k], expect, "case {case} tuple {i} range {r}");
            }
        }

        let w = rng.gen_range_usize(1, 40);
        for stream in differential_streams(rng, 3 * w + 5) {
            for ranges in differential_ranges(w) {
                inv_count_vs_time(&stream, &ranges, case);
            }
        }
    });
}

#[test]
fn time_multi_noninv_matches_brute_force() {
    check(64, |rng, case| {
        let (stream, ranges) = random_time_stream(rng);
        let op = Max::<i64>::new();
        let mut agg = MultiTimeSlickDequeNonInv::new(op, &ranges);
        let mut out = Vec::new();
        for (i, &(ts, v)) in stream.iter().enumerate() {
            agg.insert(ts, op.lift(&v), &mut out);
            for (k, &r) in agg.ranges_ms().iter().enumerate() {
                let expect = stream[..=i]
                    .iter()
                    .filter(|(t, _)| (*t as i128) > ts as i128 - r as i128)
                    .map(|(_, v)| *v)
                    .max();
                assert_eq!(out[k], expect, "case {case} tuple {i} range {r}");
            }
            agg.check_invariants().unwrap();
        }

        // The same stream with NaNs in it, through the `total_cmp` order of
        // `MaxF64`: a live NaN is the maximum until it expires.
        let fop = MaxF64::new();
        let mut fagg = MultiTimeSlickDequeNonInv::new(fop, &ranges);
        let mut fout = Vec::new();
        let fstream: Vec<(u64, f64)> = [(0, 5.0), (0, f64::NAN), (0, 1.0)]
            .into_iter()
            .chain(stream.iter().map(|&(ts, v)| {
                let v = if v % 5 == 0 { f64::NAN } else { v as f64 };
                (ts, v)
            }))
            .collect();
        for (i, &(ts, v)) in fstream.iter().enumerate() {
            fagg.insert(ts, fop.lift(&v), &mut fout);
            for (k, &r) in fagg.ranges_ms().iter().enumerate() {
                let expect = fstream[..=i]
                    .iter()
                    .filter(|(t, _)| (*t as i128) > ts as i128 - r as i128)
                    .fold(fop.identity(), |acc, (_, v)| {
                        fop.combine(&acc, &fop.lift(v))
                    });
                assert_eq!(
                    fout[k].to_bits(),
                    expect.to_bits(),
                    "case {case} tuple {i} range {r}"
                );
            }
            fagg.check_invariants().unwrap();
        }

        let w = rng.gen_range_usize(1, 40);
        for stream in differential_streams(rng, 3 * w + 5) {
            for ranges in differential_ranges(w) {
                noninv_count_vs_time(MaxF64::new(), &stream, &ranges, case);
                noninv_count_vs_time(MinF64::new(), &stream, &ranges, case);
            }
        }
    });
}

#[test]
fn cli_query_specs_round_trip() {
    check(64, |rng, case| {
        use slickdeque::cli::CliConfig;
        let n = rng.gen_range_usize(1, 6);
        let valid: Vec<(u64, u64)> = (0..n)
            .map(|_| {
                let r = rng.gen_range_u64(1, 10_000);
                let s = rng.gen_range_u64(1, 100);
                (r.max(s), s)
            })
            .collect();
        let spec_str = valid
            .iter()
            .map(|(r, s)| format!("{r}:{s}"))
            .collect::<Vec<_>>()
            .join(",");
        let args = format!("--op sum --queries {spec_str} --source stdin");
        let cfg = CliConfig::parse(args.split_whitespace().map(str::to_string)).unwrap();
        assert_eq!(cfg.queries.len(), valid.len(), "case {case}");
        for (q, (r, s)) in cfg.queries.iter().zip(&valid) {
            assert_eq!(q.range, *r, "case {case}");
            assert_eq!(q.slide, *s, "case {case}");
        }
    });
}
