//! Exp 4: memory requirement vs window size (Fig. 15).
//!
//! The paper measures each process's maximum resident set size. Here the
//! same quantity is captured two ways (see DESIGN.md §3): *measured* peak
//! live heap bytes from the counting global allocator (installed by the
//! `experiments` binary), and *analytic* bytes from each structure's
//! [`MemoryFootprint`](slickdeque::prelude::MemoryFootprint) accounting.
//! Window sizes include non-powers of two, which exposes the
//! FlatFAT/B-Int `2^⌈log n⌉` rounding step. Sum and Max runs are
//! reported separately only for SlickDeque, as in Fig. 15.

use crate::registry::{single_max_runner, single_sum_runner, CyclicStream, SlideRunner};
use crate::report::SeriesTable;
use crate::Config;
use swag_metrics::alloc::measure_peak;

/// The series of Fig. 15: baselines plus both SlickDeque variants.
pub const MEMORY_SERIES: &[&str] = &[
    "naive",
    "flatfat",
    "bint",
    "flatfit",
    "twostacks",
    "daba",
    "slickdeque(inv)",
    "slickdeque(non)",
];

fn build_and_run(series: &str, window: usize, stream: &CyclicStream) -> Box<dyn SlideRunner> {
    let mut runner = match series {
        "slickdeque(inv)" => single_sum_runner("slickdeque", window),
        "slickdeque(non)" => single_max_runner("slickdeque", window),
        // Baselines have identical footprints for Sum and Max partials
        // (both are 8-to-16-byte payloads); run them on Sum.
        algo => single_sum_runner(algo, window),
    };
    crate::exp1::warm_window(runner.as_mut(), stream, window);
    // Slide through one extra window so FIFO structures reach their
    // steady-state occupancy.
    let buf = stream.prefix(window.min(1 << 15));
    let mut checksum = 0.0;
    for &v in buf {
        checksum += runner.slide_value(v);
    }
    std::hint::black_box(checksum);
    runner
}

/// Run Exp 4; returns `(measured_peak_bytes, analytic_bytes)` tables.
///
/// The measured table is all zeros unless the calling binary installs
/// [`swag_metrics::alloc::CountingAllocator`] as its global allocator.
pub fn run(cfg: &Config) -> (SeriesTable, SeriesTable) {
    let mut measured = SeriesTable::new(
        "exp4_peak",
        "Memory requirement, measured peak heap — Fig. 15",
        "window",
        "bytes",
        MEMORY_SERIES,
    );
    let mut analytic = SeriesTable::new(
        "exp4_analytic",
        "Memory requirement, analytic structure bytes — Fig. 15",
        "window",
        "bytes",
        MEMORY_SERIES,
    );
    let stream = CyclicStream::debs(1 << 15, cfg.seed);
    for window in cfg.window_sweep_with_offsets() {
        let mut peak_row = Vec::with_capacity(MEMORY_SERIES.len());
        let mut analytic_row = Vec::with_capacity(MEMORY_SERIES.len());
        for series in MEMORY_SERIES {
            let (runner, peak) = measure_peak(|| build_and_run(series, window, &stream));
            peak_row.push(peak as f64);
            analytic_row.push(runner.heap_bytes() as f64);
        }
        measured.push_row(window as u64, peak_row);
        analytic.push_row(window as u64, analytic_row);
    }
    (measured, analytic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_footprints_follow_table1_space_ratios() {
        let mut cfg = Config::quick();
        cfg.max_exp = 14;
        let (_, analytic) = run(&cfg);
        let idx = |name: &str| {
            analytic
                .series
                .iter()
                .position(|s| s == name)
                .unwrap_or_else(|| panic!("{name}"))
        };
        // Pick the largest power-of-two window row.
        let (w, row) = analytic
            .rows
            .iter()
            .rfind(|(w, _)| w.is_power_of_two())
            .unwrap();
        let n = *w as f64 * 8.0; // bytes of n f64 partials
        let naive = row[idx("naive")];
        let inv = row[idx("slickdeque(inv)")];
        let fat = row[idx("flatfat")];
        let ts = row[idx("twostacks")];
        let noninv = row[idx("slickdeque(non)")];
        // Naive and SlickDeque (Inv) ≈ n.
        assert!((naive / n - 1.0).abs() < 0.2, "naive {naive} vs n {n}");
        assert!((inv / n - 1.0).abs() < 0.2, "inv {inv}");
        // FlatFAT ≈ 4n at powers of two (2m nodes of Option<f64>-sized
        // partials ≈ 2× the payload) — at least 2× Naive.
        assert!(fat >= 2.0 * naive, "flatfat {fat}");
        // TwoStacks ≈ 2n (val + agg per node).
        assert!(ts >= 1.5 * naive && ts <= 4.0 * naive, "twostacks {ts}");
        // SlickDeque (Non-Inv) on DEBS-like input: far below 2n.
        assert!(noninv < ts, "noninv {noninv} vs twostacks {ts}");
    }

    #[test]
    fn non_power_of_two_windows_step_tree_algorithms() {
        let mut cfg = Config::quick();
        cfg.max_exp = 10;
        let (_, analytic) = run(&cfg);
        let fat = analytic.series.iter().position(|s| s == "flatfat").unwrap();
        // 1024 and 1536 round to different tree sizes: 1536 pays 2048
        // leaves.
        let v1024 = analytic.rows.iter().find(|(w, _)| *w == 1024).unwrap().1[fat];
        let v1536 = analytic.rows.iter().find(|(w, _)| *w == 1536).unwrap().1[fat];
        assert!(v1536 > 1.8 * v1024, "{v1024} vs {v1536}");
    }
}
