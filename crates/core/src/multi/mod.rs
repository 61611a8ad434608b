//! Multi-query final aggregation (paper §2.3, §3.2, Exp 2).
//!
//! In a multi-query environment many ACQs with different ranges share one
//! stream and one window of `max(range)` partials; every slide produces one
//! answer per registered range. The paper evaluates the *max-multi-query*
//! environment (ranges 1..=n) as the upper bound of sharing.
//!
//! TwoStacks and DABA are absent by design: "neither TwoStacks nor DABA
//! are known to support multi-query execution" (paper §2.2).
//!
//! Naive, FlatFAT and B-Int answer many ranges with the structure they
//! use for one, so their multi-query forms are one wrapper,
//! [`MultiRanges`], over the single-query structure's
//! [`SlotRanges`](crate::aggregator::SlotRanges) surface: write the
//! arrival's slot, then fold each registered range. FlatFIT (dense and
//! sparse) and SlickDeque change their algorithm for many ranges and keep
//! their own types.
//!
//! | Algorithm | Ops/slide (max-multi) | Space |
//! |---|---|---|
//! | [`MultiNaive`] | n²/2 − n/2 | n |
//! | [`MultiFlatFat`] | n·log n | 2·2^⌈log n⌉ |
//! | [`MultiBInt`] | n·log n | 2·2^⌈log n⌉ |
//! | [`MultiFlatFit`] (dense, max-multi regime) | n − 1 | 2n |
//! | [`MultiFlatFitSparse`] (lazy pointers, sparse range sets) | amortized O(q) | 2n |
//! | [`MultiSlickDequeInv`] | 2n | 2n |
//! | [`MultiSlickDequeNonInv`] | 2…2n (input-dependent) | ≤ 2n + 4√n |

mod flatfit;
mod flatfit_sparse;
mod ranges;
mod slickdeque;
#[cfg(test)]
mod time_multi;

pub use crate::algorithms::time_windows::{MultiTimeSlickDequeInv, MultiTimeSlickDequeNonInv};
pub use flatfit::MultiFlatFit;
pub use flatfit_sparse::MultiFlatFitSparse;
pub use ranges::{MultiBInt, MultiFlatFat, MultiNaive, MultiRanges};
pub use slickdeque::{MultiSlickDequeInv, MultiSlickDequeNonInv};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::MultiFinalAggregator;
    use crate::ops::{AggregateOp, Max, Sum};

    /// Brute-force multi-query reference: answers each range directly from
    /// the stream history.
    fn brute_force<O: AggregateOp>(
        op: &O,
        history: &[O::Partial],
        ranges: &[usize],
    ) -> Vec<O::Partial> {
        ranges
            .iter()
            .map(|&r| {
                let lo = history.len().saturating_sub(r);
                let mut acc = op.identity();
                for p in &history[lo..] {
                    acc = op.combine(&acc, p);
                }
                acc
            })
            .collect()
    }

    fn check_against_brute_force<O, M>(op: O, ranges: &[usize], stream: &[O::Input])
    where
        O: AggregateOp + Clone,
        M: MultiFinalAggregator<O>,
    {
        let mut agg = M::with_ranges(op.clone(), ranges);
        let sorted = agg.ranges().to_vec();
        let mut history = Vec::new();
        let mut out = Vec::new();
        for input in stream {
            let p = op.lift(input);
            history.push(p.clone());
            agg.slide_multi(p, &mut out);
            let expect = brute_force(&op, &history, &sorted);
            assert_eq!(out, expect, "after {} slides", history.len());
        }
    }

    fn pseudo_random_stream(len: usize, modulo: i64) -> Vec<i64> {
        let mut x = 0xDEADBEEFu64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as i64) % modulo
            })
            .collect()
    }

    #[test]
    fn multi_naive_matches_brute_force() {
        let stream = pseudo_random_stream(200, 1000);
        check_against_brute_force::<_, MultiNaive<_>>(Sum::<i64>::new(), &[7, 3, 1], &stream);
    }

    #[test]
    fn multi_flatfat_matches_brute_force() {
        let stream = pseudo_random_stream(300, 1000);
        check_against_brute_force::<_, MultiFlatFat<_>>(Sum::<i64>::new(), &[13, 8, 5, 2], &stream);
    }

    #[test]
    fn multi_bint_matches_brute_force() {
        let stream = pseudo_random_stream(300, 1000);
        check_against_brute_force::<_, MultiBInt<_>>(Sum::<i64>::new(), &[13, 8, 5, 2], &stream);
    }

    #[test]
    fn multi_flatfit_matches_brute_force() {
        let stream = pseudo_random_stream(300, 1000);
        check_against_brute_force::<_, MultiFlatFit<_>>(
            Sum::<i64>::new(),
            &[13, 8, 5, 2, 1],
            &stream,
        );
    }

    #[test]
    fn multi_slickdeque_inv_matches_brute_force() {
        let stream = pseudo_random_stream(300, 1000);
        check_against_brute_force::<_, MultiSlickDequeInv<_>>(
            Sum::<i64>::new(),
            &[16, 9, 4, 1],
            &stream,
        );
    }

    #[test]
    fn multi_slickdeque_noninv_matches_brute_force() {
        let stream = pseudo_random_stream(400, 50);
        let op = Max::<i64>::new();
        check_against_brute_force::<_, MultiSlickDequeNonInv<_>>(op, &[16, 9, 4, 1], &stream);
    }

    #[test]
    fn max_multi_query_environment_all_algorithms_agree() {
        // The paper's Exp 2 setting: ranges 1..=n.
        let n = 32usize;
        let ranges: Vec<usize> = (1..=n).collect();
        let stream = pseudo_random_stream(3 * n, 100);

        let op = Sum::<i64>::new();
        let mut naive = MultiNaive::with_ranges(op, &ranges);
        let mut fat = MultiFlatFat::with_ranges(op, &ranges);
        let mut bint = MultiBInt::with_ranges(op, &ranges);
        let mut fit = MultiFlatFit::with_ranges(op, &ranges);
        let mut inv = MultiSlickDequeInv::with_ranges(op, &ranges);

        let mop = Max::<i64>::new();
        let mut mnaive = MultiNaive::with_ranges(mop, &ranges);
        let mut mdeque = MultiSlickDequeNonInv::with_ranges(mop, &ranges);

        let (mut o1, mut o2, mut o3, mut o4, mut o5) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut m1, mut m2) = (Vec::new(), Vec::new());
        for v in &stream {
            naive.slide_multi(*v, &mut o1);
            fat.slide_multi(*v, &mut o2);
            bint.slide_multi(*v, &mut o3);
            fit.slide_multi(*v, &mut o4);
            inv.slide_multi(*v, &mut o5);
            assert_eq!(o1, o2);
            assert_eq!(o1, o3);
            assert_eq!(o1, o4);
            assert_eq!(o1, o5);

            mnaive.slide_multi(mop.lift(v), &mut m1);
            mdeque.slide_multi(mop.lift(v), &mut m2);
            assert_eq!(m1, m2);
        }
    }
}

/// Hand-computed answers for [`MultiNaive`].
#[cfg(test)]
mod naive {
    mod tests {
        use crate::aggregator::MultiFinalAggregator;
        use crate::multi::*;
        use crate::ops::Sum;

        #[test]
        fn answers_descending_ranges() {
            let mut agg = MultiNaive::new(Sum::<i64>::new(), &[2, 4]);
            let mut out = Vec::new();
            agg.slide_multi(1, &mut out);
            assert_eq!(out, vec![1, 1]);
            agg.slide_multi(2, &mut out);
            assert_eq!(out, vec![3, 3]);
            agg.slide_multi(3, &mut out);
            assert_eq!(out, vec![6, 5]);
            agg.slide_multi(4, &mut out);
            assert_eq!(out, vec![10, 7]);
            agg.slide_multi(5, &mut out);
            assert_eq!(out, vec![14, 9]);
        }

        #[test]
        fn single_range_degenerates_to_single_query() {
            let mut agg = MultiNaive::new(Sum::<i64>::new(), &[3]);
            let mut out = Vec::new();
            for (v, expect) in [(1, 1), (2, 3), (3, 6), (4, 9)] {
                agg.slide_multi(v, &mut out);
                assert_eq!(out, vec![expect]);
            }
        }

        #[test]
        fn range_one_is_latest_value() {
            let mut agg = MultiNaive::new(Sum::<i64>::new(), &[1, 3]);
            let mut out = Vec::new();
            agg.slide_multi(10, &mut out);
            agg.slide_multi(20, &mut out);
            assert_eq!(out, vec![30, 20]);
        }
    }
}

/// Hand-computed answers for [`MultiFlatFat`].
#[cfg(test)]
mod flatfat {
    mod tests {
        use crate::aggregator::MultiFinalAggregator;
        use crate::multi::*;
        use crate::ops::{AggregateOp, Max, Sum};

        #[test]
        fn answers_match_hand_computation() {
            let mut agg = MultiFlatFat::new(Sum::<i64>::new(), &[4, 2]);
            let mut out = Vec::new();
            for (v, expect) in [
                (1, vec![1, 1]),
                (2, vec![3, 3]),
                (3, vec![6, 5]),
                (4, vec![10, 7]),
                (5, vec![14, 9]),
            ] {
                agg.slide_multi(v, &mut out);
                assert_eq!(out, expect);
            }
        }

        #[test]
        fn max_over_multiple_ranges() {
            let op = Max::<i64>::new();
            let mut agg = MultiFlatFat::new(op, &[3, 1]);
            let mut out = Vec::new();
            agg.slide_multi(op.lift(&9), &mut out);
            agg.slide_multi(op.lift(&2), &mut out);
            agg.slide_multi(op.lift(&5), &mut out);
            assert_eq!(out, vec![Some(9), Some(5)]);
            agg.slide_multi(op.lift(&1), &mut out);
            assert_eq!(out, vec![Some(5), Some(1)]);
        }
    }
}

/// Hand-computed answers for [`MultiBInt`].
#[cfg(test)]
mod bint {
    mod tests {
        use crate::aggregator::MultiFinalAggregator;
        use crate::multi::*;
        use crate::ops::Sum;

        #[test]
        fn answers_match_hand_computation() {
            let mut agg = MultiBInt::new(Sum::<i64>::new(), &[4, 2, 1]);
            let mut out = Vec::new();
            agg.slide_multi(10, &mut out);
            assert_eq!(out, vec![10, 10, 10]);
            agg.slide_multi(20, &mut out);
            assert_eq!(out, vec![30, 30, 20]);
            agg.slide_multi(30, &mut out);
            assert_eq!(out, vec![60, 50, 30]);
            agg.slide_multi(40, &mut out);
            assert_eq!(out, vec![100, 70, 40]);
            agg.slide_multi(50, &mut out);
            assert_eq!(out, vec![140, 90, 50]);
        }
    }
}
