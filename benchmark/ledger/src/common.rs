//! What every workload shares: the result of one pass, heap and CPU
//! accounting, and the repeated set-up timer.

use std::collections::BTreeMap;
use std::time::Instant;

use swag_metrics::alloc;

use crate::stats::{self, LatencySummary};

/// One pass of one workload (set-up, timed section, oracle check).
#[derive(Debug, Clone)]
pub struct Pass {
    /// Median set-up time over the pass's set-ups, seconds.
    pub setup_s: f64,
    /// Tuples whose answers were produced per second of the flood segment.
    pub tuples_per_s: f64,
    /// Answer latency over the latency segment; `None` when a pass was
    /// run without one.
    pub latency: Option<LatencySummary>,
    /// Peak live heap the system under test held above what was live
    /// before it was constructed, MB (10^6 bytes).
    pub peak_heap_mb: f64,
    /// Tuples attempted in the timed section.
    pub attempted: u64,
    /// Tuples that failed (see [`crate::spec::Report::failed`]).
    pub failed: u64,
    /// No oracle mismatch and no unsustained rate segment.
    pub correct: bool,
    /// Process CPU time (user + system) per attempted tuple, ns.
    pub cpu_ns_per_tuple: f64,
    /// Workload-specific per-layer readings.
    pub extra: BTreeMap<&'static str, f64>,
    /// Remarks for stderr.
    pub notes: Vec<String>,
}

/// Live-heap accounting around the system under test. Started after the
/// harness's own buffers exist and before the system is constructed, so
/// the reading is the system's peak contribution, set-up included.
#[derive(Debug, Clone, Copy)]
pub struct HeapMark {
    base: usize,
}

impl HeapMark {
    /// Mark now.
    pub fn start() -> Self {
        alloc::reset_peak();
        HeapMark {
            base: alloc::current_bytes(),
        }
    }

    /// Peak live bytes above the mark, in MB.
    pub fn peak_mb(&self) -> f64 {
        alloc::peak_bytes().saturating_sub(self.base) as f64 / 1e6
    }
}

/// Process CPU time so far (user + system, all threads), ns. Read from
/// `/proc/self/stat`; ticks are 10 ms on every Linux this runs on, which
/// is fine over the seconds a pass lasts. 0 where `/proc` is absent.
pub fn cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * 10_000_000
}

/// Run `setup` `repeats` times, dropping every result but the last (so
/// each set-up starts from nothing), and return the last result with the
/// median set-up time in seconds.
pub fn timed_setups<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    assert!(repeats >= 1);
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Mean of per-configuration latency summaries: each configuration's
/// median and tail weigh equally. (Pooling the samples instead would put
/// the median on the boundary between a fast and a slow configuration,
/// where it jumps between them from run to run.)
pub fn mean_summary(parts: &[LatencySummary]) -> LatencySummary {
    let n = parts.len() as f64;
    LatencySummary {
        count: parts.iter().map(|p| p.count).sum(),
        p50_ns: parts.iter().map(|p| p.p50_ns).sum::<f64>() / n,
        tail_ns: parts.iter().map(|p| p.tail_ns).sum::<f64>() / n,
        tail_p: parts.iter().map(|p| p.tail_p).fold(f64::INFINITY, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_report_the_median_and_keep_the_last() {
        let mut n = 0;
        let (last, median) = timed_setups(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(median >= 0.0);
    }

    #[test]
    fn cpu_time_is_monotone() {
        let a = cpu_ns();
        let b = cpu_ns();
        assert!(b >= a);
    }
}
