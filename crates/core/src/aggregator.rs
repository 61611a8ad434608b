//! Common interfaces implemented by every final-aggregation algorithm.
//!
//! The paper's experimental platform drives all algorithms through the same
//! slide loop: one new partial aggregate arrives, the oldest one expires,
//! and the window aggregate (or, in multi-query mode, one answer per
//! registered range) is produced. [`FinalAggregator`] and
//! [`MultiFinalAggregator`] capture exactly that loop; richer inherent APIs
//! (`insert`/`evict`/`query` for the FIFO algorithms) are exposed on the
//! individual structs.

use crate::invariants::InvariantViolation;
use crate::ops::AggregateOp;

/// A single-query final aggregator over a FIFO sliding window (paper §2.2).
///
/// `slide` processes one arriving partial: when the window is full the
/// oldest partial expires, the new one is appended, and the aggregate of the
/// current window contents is returned. During warm-up (fewer than
/// [`window`](Self::window) partials seen) the aggregate covers only the
/// partials seen so far.
pub trait FinalAggregator<O: AggregateOp>: MemoryFootprint {
    /// Short algorithm name used in reports ("naive", "flatfat", …).
    const NAME: &'static str;

    /// Construct an aggregator for a window of `window` partials (≥ 1).
    fn with_capacity(op: O, window: usize) -> Self
    where
        Self: Sized;

    /// Advance the window by one partial and return the window aggregate.
    fn slide(&mut self, partial: O::Partial) -> O::Partial;

    /// The configured window capacity in partials.
    fn window(&self) -> usize;

    /// The number of partials currently in the window (≤ `window`).
    fn len(&self) -> usize;

    /// True if no partials have been inserted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill the window with `partials` without producing answers — a
    /// warm-up hook for benchmarks on very large windows. The default
    /// simply slides each partial in; algorithms whose `slide` cost grows
    /// with the window (Naive) override it with a direct fill.
    fn warm(&mut self, partials: &mut dyn Iterator<Item = O::Partial>) {
        for p in partials {
            self.slide(p);
        }
    }

    /// Remove the oldest partial from the window without producing an
    /// answer. Panics if the window is empty.
    fn evict(&mut self);

    /// Remove the `n` oldest partials. Panics if fewer than `n` partials
    /// are held. The default loops [`evict`](Self::evict); algorithms with
    /// cheap range expiry (ring arithmetic, one monotone-deque scan, one
    /// TwoStacks flip-check) override it.
    fn bulk_evict(&mut self, n: usize) {
        for _ in 0..n {
            self.evict();
        }
    }

    /// Append every partial of `batch` with slide semantics — the oldest
    /// partials expire as the window overflows — without producing answers.
    ///
    /// Unlike [`bulk_slide`](Self::bulk_slide), implementations may
    /// reassociate combines (allowed by associativity), so floating-point
    /// results can round differently from a per-partial slide loop; exact
    /// operations (integers, Max/Min selection) are unaffected. The default
    /// loops [`slide`](Self::slide), discarding the answers.
    fn bulk_insert(&mut self, batch: &[O::Partial]) {
        for p in batch {
            self.slide(p.clone());
        }
    }

    /// Combined step: evict the `evictions` oldest partials, then
    /// bulk-insert `batch` (further evicting on overflow). Panics if fewer
    /// than `evictions` partials are held.
    fn advance(&mut self, batch: &[O::Partial], evictions: usize) {
        self.bulk_evict(evictions);
        self.bulk_insert(batch);
    }

    /// Slide every partial of `batch` in order, appending each window
    /// answer to `out` (cleared first). Answers are bitwise identical to
    /// calling [`slide`](Self::slide) per partial — overrides must keep
    /// the exact combine order — so this is the batched ingestion path the
    /// engine and executor use. The default loops `slide` with the output
    /// pre-reserved.
    fn bulk_slide(&mut self, batch: &[O::Partial], out: &mut Vec<O::Partial>) {
        out.clear();
        out.reserve(batch.len());
        for p in batch {
            out.push(self.slide(p.clone()));
        }
    }

    /// Verify the algorithm's paper-level structural invariants, returning
    /// the first violation found.
    ///
    /// Checkers are `O(window)` or worse and re-derive the facts each
    /// algorithm's correctness proof rests on (monotone-deque dominance,
    /// DABA pointer ordering, FlatFAT parent = combine(children), …). They
    /// are meant for tests, the `fuzz_invariants` differential driver, and
    /// post-drain engine audits — not for per-tuple production paths.
    ///
    /// Value-level checks that refold window contents reproduce the exact
    /// combine order the algorithm used wherever possible; the remaining
    /// order-sensitive refolds (DABA region aggregates, SlickDeque Inv's
    /// running answer) are exact for integer ops and integer-valued floats
    /// but can report spurious rounding deltas on arbitrary `f64` streams —
    /// callers feeding such streams should treat those labels accordingly.
    ///
    /// The default implementation checks nothing and returns `Ok(())`.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        Ok(())
    }
}

/// A multi-query final aggregator answering several ACQs with distinct
/// ranges over the same stream (paper §2.3, §3.2).
///
/// All registered ranges share one window of `max(range)` partials; each
/// slide produces one answer per registered range, covering the most recent
/// `range` partials (including the one that just arrived).
pub trait MultiFinalAggregator<O: AggregateOp>: MemoryFootprint {
    /// Short algorithm name used in reports.
    const NAME: &'static str;

    /// Construct an aggregator answering the given ranges (deduplicated and
    /// served in descending order, as in the paper's shared plans).
    fn with_ranges(op: O, ranges: &[usize]) -> Self
    where
        Self: Sized;

    /// Advance the window by one partial; push one answer per registered
    /// range into `out`, in the same (descending) order as
    /// [`ranges`](Self::ranges). `out` is cleared first.
    fn slide_multi(&mut self, partial: O::Partial, out: &mut Vec<O::Partial>);

    /// Slide every partial of `batch` in order, appending
    /// `ranges().len()` answers per partial to `out` (cleared first), each
    /// group in the same descending range order as
    /// [`slide_multi`](Self::slide_multi). Answers are bitwise identical
    /// to a per-partial `slide_multi` loop; overrides must keep each
    /// range's exact combine order (reordering *across* independent ranges
    /// is fine). The default loops `slide_multi` through a scratch buffer.
    fn bulk_slide_multi(&mut self, batch: &[O::Partial], out: &mut Vec<O::Partial>) {
        out.clear();
        out.reserve(batch.len() * self.ranges().len());
        let mut scratch = Vec::new();
        for p in batch {
            self.slide_multi(p.clone(), &mut scratch);
            out.append(&mut scratch);
        }
    }

    /// The registered ranges, descending.
    fn ranges(&self) -> &[usize];

    /// The shared window size (the largest registered range).
    fn window(&self) -> usize {
        self.ranges().first().copied().unwrap_or(0)
    }

    /// Verify the multi-query variant's structural invariants — see
    /// [`FinalAggregator::check_invariants`] for scope and caveats. The
    /// default checks nothing and returns `Ok(())`.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        Ok(())
    }
}

/// A single-query structure over a fixed ring of window slots that can
/// overwrite any one slot and fold any circular run of slots — all a
/// multi-query baseline needs from it ("additional queries do not require
/// any additional structures", paper §4.2). Naive, FlatFAT and B-Int
/// implement it; `multi::MultiRanges` turns each into its multi-query form.
pub trait SlotRanges<O: AggregateOp>: FinalAggregator<O> {
    /// Overwrite window slot `pos` (< window) with `p` and refresh whatever
    /// the structure derives from it.
    fn set_slot(&mut self, pos: usize, p: O::Partial);

    /// Aggregate the `count` (≤ window) slots starting at slot `start`,
    /// wrapping circularly, in window order.
    fn query_range(&self, start: usize, count: usize) -> O::Partial;
}

/// Analytic heap-usage accounting, used by the memory experiment (Exp 4 /
/// Fig. 15) alongside the counting global allocator.
///
/// Implementations report the bytes of heap they currently hold (buffer
/// capacities), which is the quantity the paper's §4.2 space analysis
/// predicts.
pub trait MemoryFootprint {
    /// Heap bytes currently held by this structure.
    fn heap_bytes(&self) -> usize;
}

/// Helper: deduplicate and sort query ranges descending, validating them.
///
/// Panics if `ranges` is empty or contains a zero range, mirroring the
/// paper's assumption that every ACQ has a positive range.
pub fn normalize_ranges(ranges: &[usize]) -> Vec<usize> {
    assert!(!ranges.is_empty(), "at least one query range is required");
    let mut out: Vec<usize> = ranges.to_vec();
    assert!(
        out.iter().all(|&r| r > 0),
        "query ranges must be positive, got {:?}",
        out
    );
    out.sort_unstable_by(|a, b| b.cmp(a));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_sorts_descending_and_dedups() {
        assert_eq!(normalize_ranges(&[3, 1, 5, 3, 2]), vec![5, 3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn normalize_rejects_zero() {
        normalize_ranges(&[3, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn normalize_rejects_empty() {
        normalize_ranges(&[]);
    }
}
