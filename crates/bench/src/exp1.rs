//! Exp 1: single-query throughput vs window size (Figs. 10 and 11).
//!
//! One query computing Sum (invertible, Fig. 10) or Max (non-invertible,
//! Fig. 11) over the entire window, answered after every tuple arrival;
//! window sizes are powers of two. Throughput is query results per
//! second. Each point runs until the configured wall-clock budget is
//! spent, so the O(n)-per-slide baselines scale their slide counts down
//! automatically instead of exploding the total runtime.

use crate::registry::{
    single_max_runner, single_sum_runner, CyclicStream, SlideRunner, SINGLE_MAX_ALGOS,
    SINGLE_SUM_ALGOS,
};
use crate::report::SeriesTable;
use crate::Config;
use std::time::Instant;

/// Stream buffer length: large enough to decorrelate, small enough to
/// stay in cache like the paper's replayed dataset pages.
const STREAM_BUF: usize = 1 << 17;

/// Warm a runner with `window` tuples drawn cyclically from the buffer.
pub(crate) fn warm_window(runner: &mut dyn SlideRunner, stream: &CyclicStream, window: usize) {
    let buf = stream.prefix(STREAM_BUF);
    let mut remaining = window;
    while remaining > 0 {
        let chunk = remaining.min(buf.len());
        runner.warm_values(&buf[..chunk]);
        remaining -= chunk;
    }
}

/// Measure steady-state slides per second under the point budget.
pub(crate) fn measure_throughput(
    runner: &mut dyn SlideRunner,
    stream: &mut CyclicStream,
    budget: std::time::Duration,
) -> f64 {
    let mut checksum = 0.0f64;
    let mut slides = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..1024 {
            let v = stream.next_value();
            checksum += runner.slide_value(v);
        }
        slides += 1024;
        if start.elapsed() >= budget {
            break;
        }
    }
    std::hint::black_box(checksum);
    slides as f64 / start.elapsed().as_secs_f64()
}

/// Run Exp 1(a) (Sum) or Exp 1(b) (Max).
pub fn run(cfg: &Config, invertible: bool) -> SeriesTable {
    type Factory = fn(&str, usize) -> Box<dyn SlideRunner>;
    let (id, title, algos, make): (_, _, _, Factory) = if invertible {
        (
            "exp1a",
            "Single-query throughput, invertible (Sum) — Fig. 10",
            SINGLE_SUM_ALGOS,
            single_sum_runner,
        )
    } else {
        (
            "exp1b",
            "Single-query throughput, non-invertible (Max) — Fig. 11",
            SINGLE_MAX_ALGOS,
            single_max_runner,
        )
    };
    let mut table = SeriesTable::new(id, title, "window", "results/s", algos);
    let mut stream = CyclicStream::debs(STREAM_BUF, cfg.seed);
    for window in cfg.window_sweep() {
        let mut row = Vec::with_capacity(algos.len());
        for algo in algos {
            let mut runner = make(algo, window);
            warm_window(runner.as_mut(), &stream, window);
            row.push(measure_throughput(
                runner.as_mut(),
                &mut stream,
                cfg.point_budget,
            ));
        }
        table.push_row(window as u64, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_full_table() {
        let mut cfg = Config::quick();
        cfg.max_exp = 6;
        cfg.point_budget = std::time::Duration::from_millis(2);
        let t = run(&cfg, true);
        assert_eq!(t.rows.len(), 7);
        assert!(t.rows.iter().all(|(_, v)| v.iter().all(|&x| x > 0.0)));
        let t = run(&cfg, false);
        assert_eq!(t.rows.len(), 7);
    }

    /// Naive's slide rate falls by orders of magnitude from window 16 to
    /// 4096 while SlickDeque's barely moves, on the clock. The four points
    /// the verdict needs are measured in `REPS` interleaved repetitions
    /// (Naive at 16 and 4096, then SlickDeque at 16 and 4096, again and
    /// again), and each bound is checked on the median of the
    /// per-repetition ratios, so one point disturbed by the host cannot
    /// decide it. The first repetition's ratios are what a single sweep
    /// reads; both are printed.
    #[test]
    fn constant_time_algorithms_stay_flat_while_naive_degrades() {
        const REPS: usize = 5;
        let mut cfg = Config::quick();
        cfg.point_budget = std::time::Duration::from_millis(10);
        let mut stream = CyclicStream::debs(STREAM_BUF, cfg.seed);
        let mut rate = |algo: &str, window: usize| {
            let mut runner = single_sum_runner(algo, window);
            warm_window(runner.as_mut(), &stream, window);
            measure_throughput(runner.as_mut(), &mut stream, cfg.point_budget)
        };
        let (mut naive, mut slick) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            naive.push(rate("naive", 16) / rate("naive", 4096));
            slick.push(rate("slickdeque", 16) / rate("slickdeque", 4096));
        }
        let median = |ratios: &[f64]| {
            let mut sorted = ratios.to_vec();
            sorted.sort_by(f64::total_cmp);
            sorted[REPS / 2]
        };
        let (naive_median, slick_median) = (median(&naive), median(&slick));
        eprintln!(
            "16/4096 rate ratios: naive first {:.2} median {naive_median:.2} {naive:.2?}; \
             slickdeque first {:.3} median {slick_median:.3} {slick:.3?}",
            naive[0], slick[0]
        );
        // Naive collapses by orders of magnitude; SlickDeque barely moves.
        assert!(naive_median > 20.0, "naive 16/4096 ratio {naive_median}");
        assert!(
            slick_median < 3.0,
            "slickdeque 16/4096 ratio {slick_median}"
        );
    }

    /// The same claim in aggregate operations instead of wall-clock: at
    /// every window of the sweep above, a slide over a full window costs
    /// Naive exactly `n − 1` ⊕ (it refolds the window) and SlickDeque (Inv)
    /// exactly 2 (one ⊕ in, one ⊖ out).
    #[test]
    fn ops_per_slide_are_exact_across_the_window_sweep() {
        use swag_core::algorithms::{Naive, SlickDequeInv};
        use swag_core::ops::{CountingOp, OpCounter, Sum};
        use swag_core::FinalAggregator;

        let mut cfg = Config::quick();
        cfg.max_exp = 12;
        let stream = CyclicStream::debs(STREAM_BUF, cfg.seed);
        for window in cfg.window_sweep().into_iter().filter(|&w| w >= 16) {
            let counter = OpCounter::new();
            let op = CountingOp::new(Sum::<f64>::new(), counter.clone());
            let mut naive = Naive::with_capacity(op.clone(), window);
            let mut slick = SlickDequeInv::with_capacity(op, window);
            for (k, &v) in stream.prefix(window + 64).iter().enumerate() {
                counter.reset();
                naive.slide(v);
                let naive_ops = counter.take();
                slick.slide(v);
                let slick_ops = counter.take();
                if k >= window {
                    assert_eq!(naive_ops, window as u64 - 1, "naive, n = {window}");
                    assert_eq!(slick_ops, 2, "slickdeque, n = {window}");
                }
            }
        }
    }
}
