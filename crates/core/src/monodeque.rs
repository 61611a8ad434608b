//! The one monotone deque under every SlickDeque (Non-Inv) form:
//! [`SlickDequeNonInv`](crate::algorithms::SlickDequeNonInv),
//! [`MultiSlickDequeNonInv`](crate::multi::MultiSlickDequeNonInv),
//! [`TimeSlickDequeNonInv`](crate::algorithms::TimeSlickDequeNonInv) and
//! [`MultiTimeSlickDequeNonInv`](crate::multi::MultiTimeSlickDequeNonInv)
//! are shells over it that own only their window, ranges and clock.
//!
//! A node records *when* its partial arrived as an absolute `u64` stamp —
//! an arrival index for count windows, a timestamp for time windows — and
//! a node is inside the window of range `r` ending at `now` iff
//! `now − stamp < r`. Count windows are the case where stamps are spaced
//! one apart. Values strictly "decrease" in the operation's dominance order
//! head→tail: an arrival pops every tail node it defeats
//! ([`SelectiveOp::defeats`]) before joining as the new tail, so the fold
//! of any suffix of the stream still in the deque is the value of its first
//! node.
//!
//! # Frames
//!
//! For unit-spaced stamps a batch of arrivals can be answered and absorbed
//! a *frame* at a time instead of a slide at a time. A frame is a run of
//! arrivals no longer than the smallest registered range, so every window
//! that ends inside the frame reaches back to the frame's first arrival.
//! The window of range `r` ending at the frame's `k`-th arrival is then the
//! last `r − k − 1` pre-frame partials followed by `frame[..=k]`, and its
//! aggregate is the windowed recurrence
//!
//! ```text
//! answer(r, k) = head(r, k) ⊕ prefix[k]
//! ```
//!
//! where `prefix` is the frame's inclusive scan and `head(r, k)` is the
//! first node of the *pre-frame* deque still inside that window — the fold
//! of the pre-frame part, by the monotone-deque invariant. Selection makes
//! the result one of the window's own partials, cloned, so it is bitwise
//! the partial the per-slide deque would have at its head: there is no
//! association to get wrong.
//!
//! [`MonoDeque::answer_frame`] computes the answers without touching the
//! deque, and its inner loops branch on stamps only: a node of age `a`
//! serves range `r` for exactly the arrivals `k < r − a`.
//! [`MonoDeque::append_frame`] then updates the deque once — the
//! right-to-left dominated-suffix scan Algorithm 2's tail-popping collapses
//! to when a whole run of arrivals is known.
//!
//! The price of removing the per-slide pop branch is about one extra ⊕ per
//! partial: one for the prefix, one against the pre-frame head and one
//! `defeats` in the survivor scan, against the per-slide path's amortized
//! "< 2". The paper's bound is a statement about `slide`, which is
//! unchanged.

use core::fmt::Debug;
use core::ops::RangeBounds;
use std::collections::VecDeque;

use crate::aggregator::MemoryFootprint;
use crate::invariants::{ensure, InvariantViolation};
use crate::ops::SelectiveOp;
use crate::state::{corrupt, StateError, StateReader, StateWriter};

/// Frames shorter than this keep the per-slide loop. The frame path's
/// fixed work (bitset reset, head walk, tail count, append) is spread
/// over the frame. Measured with the cut-over disabled, on a strictly
/// descending stream — the per-slide loop's best case: its pop branch is
/// never taken — the frame path costs 17 / 13 / 11.6 / 10.9 ns per partial
/// at frames of 4 / 8 / 16 / 24 against the loop's 10.9; on a random stream
/// it is ahead from 4 up (10 ns against 27 at 16). 16 is the shortest frame
/// that loses on neither shape; `kernel_bench`'s `bulk_slide` rows sit
/// either side of it.
pub(crate) const MIN_FRAME: usize = 16;

/// The oldest stamp inside the window of `range` (≥ 1) ending at `now`:
/// `stamp` is in that window iff `live_from(now, range) <= stamp <= now`.
/// Saturating, so nothing is too old before `range` has elapsed.
pub(crate) fn live_from(now: u64, range: u64) -> u64 {
    now.saturating_sub(range - 1)
}

/// Capacity a FIFO may keep however few elements it holds.
const SLACK_FLOOR: usize = 64;

/// Give back a FIFO's slack once it has drained to a quarter of its
/// capacity, so its memory follows the window's occupancy, not its
/// high-water mark. Shrinking to twice the live length leaves the next
/// shrink at least that many pops away, so the copy is amortized O(1) per
/// pop. Called after expiry, never between an arrival and its answer.
pub(crate) fn trim_slack<T>(fifo: &mut VecDeque<T>) {
    if fifo.capacity() > SLACK_FLOOR && fifo.len() <= fifo.capacity() / 4 {
        fifo.shrink_to((2 * fifo.len()).max(SLACK_FLOOR));
    }
}

#[derive(Debug, Clone)]
struct Node<P> {
    stamp: u64,
    val: P,
}

/// A monotone deque of stamped partials; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct MonoDeque<O: SelectiveOp> {
    op: O,
    nodes: VecDeque<Node<O::Partial>>,
    /// Survivor bitset of [`append_frame`](Self::append_frame), one bit per
    /// frame slot; kept across calls so bulk ingestion allocates only at
    /// its high-water mark. Scratch, not state: never serialized.
    marks: Vec<u64>,
}

impl<O: SelectiveOp> MonoDeque<O> {
    /// An empty deque.
    pub(crate) fn new(op: O) -> Self {
        MonoDeque {
            op,
            nodes: VecDeque::new(),
            marks: Vec::new(),
        }
    }

    pub(crate) fn op(&self) -> &O {
        &self.op
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The fold of everything on the deque: the head's value.
    pub(crate) fn head(&self) -> O::Partial {
        match self.nodes.front() {
            Some(node) => node.val.clone(),
            None => self.op.identity(),
        }
    }

    /// Pop every tail node `partial` defeats — it can never be a query
    /// answer again (paper Algorithm 2, lines 15-18) — then append
    /// `partial` at `stamp`, which must not precede the tail's stamp.
    pub(crate) fn arrive(&mut self, stamp: u64, partial: O::Partial) {
        while let Some(back) = self.nodes.back() {
            if self.op.defeats(&partial, &back.val) {
                self.nodes.pop_back();
            } else {
                break;
            }
        }
        // alloc:amortized the buffer doubles when full and shrinks only on expiry
        self.nodes.push_back(Node {
            stamp,
            val: partial,
        });
    }

    /// Drop every head node stamped before `cutoff`, then any slack the
    /// drop leaves ([`trim_slack`]).
    pub(crate) fn expire(&mut self, cutoff: u64) {
        while self.nodes.front().is_some_and(|n| n.stamp < cutoff) {
            self.nodes.pop_front();
        }
        trim_slack(&mut self.nodes);
    }

    /// Append to `out` the answer of each range in `ranges` (descending)
    /// for the window ending at `now`: the first node with
    /// `now − stamp < range`, or the identity if none is that young. One
    /// pass from the head — a larger range always resolves at a node closer
    /// to the head, so a single forward cursor serves them all (Algorithm
    /// 2, lines 20-40).
    pub(crate) fn answers_into(
        &self,
        now: u64,
        ranges: impl IntoIterator<Item = u64>,
        out: &mut Vec<O::Partial>,
    ) {
        let mut nodes = self.nodes.iter();
        let mut node = nodes.next();
        for r in ranges {
            let oldest = live_from(now, r);
            while node.is_some_and(|n| n.stamp < oldest) {
                node = nodes.next();
            }
            // alloc:amortized the caller's answer buffer grows to its high-water mark once
            out.push(match node {
                Some(n) => n.val.clone(),
                None => self.op.identity(),
            });
        }
    }

    /// Append the answers of every range in `ranges` (descending, at least
    /// one) at every arrival of `frame` to `out`, one row of `ranges.len()`
    /// answers per arrival, leaving the deque as it was before the frame.
    ///
    /// Stamps are arrival indices and `next` is the one the frame's first
    /// arrival will receive, so a node's age as of the frame start — the
    /// arrivals since it, itself included — is `next − stamp`, and it is
    /// inside the window of range `r` at the frame's `k`-th arrival iff
    /// `age + k < r`. `frame` must be non-empty and no longer than the
    /// smallest range.
    pub(crate) fn answer_frame(
        &self,
        next: u64,
        ranges: &[usize],
        frame: &[O::Partial],
        out: &mut Vec<O::Partial>,
    ) {
        let op = &self.op;
        let age = |node: &Node<O::Partial>| (next - node.stamp) as usize;
        let b = frame.len();
        let q = ranges.len();
        let base = out.len();
        // The frame's inclusive scan goes into the column of the smallest
        // range — the one answered last, in place — so no frame-sized scratch
        // is held.
        if q == 1 && base == 0 {
            // One range, first frame: the column is all of `out`, which is what
            // the op's own scan kernel writes (branchless for MaxF64/MinF64).
            op.prefix_scan_into(frame, out);
        } else {
            out.resize(base + b * q, op.identity()); // alloc:amortized the caller's answer buffer grows to its high-water mark once
            let mut scan = frame.iter().zip(out[base..].chunks_exact_mut(q));
            let Some((oldest, row)) = scan.next() else {
                return;
            };
            let mut acc = oldest.clone();
            row[q - 1] = acc.clone();
            for (p, row) in scan {
                acc = op.combine(&acc, p);
                row[q - 1] = acc.clone();
            }
        }
        let rows = &mut out[base..];
        // Largest range first: the first node live at arrival 0 only moves
        // tailwards as the range shrinks, so its index carries over.
        let mut first = 0;
        for (slot, &r) in ranges.iter().enumerate() {
            while self.nodes.get(first).is_some_and(|n| age(n) >= r) {
                first += 1;
            }
            let mut rows = rows.chunks_exact_mut(q);
            let mut at = first;
            let mut k = 0;
            while k < b {
                let Some(node) = self.nodes.get(at) else {
                    break;
                };
                // Ages strictly decrease tailwards, so `node` takes over from
                // its predecessor at arrival `k` and serves up to `r − age`.
                let until = (r - age(node)).min(b);
                for row in rows.by_ref().take(until - k) {
                    row[slot] = op.combine(&node.val, &row[q - 1]);
                }
                k = until;
                at += 1;
            }
            // Every pre-frame node has left the window: the prefix alone.
            if slot + 1 < q {
                for row in rows {
                    row[slot] = row[q - 1].clone();
                }
            }
        }
    }

    /// Append `frame`, stamped `first, first + 1, …`, with slide semantics
    /// in one pass: mark the frame's survivors — the partials no later
    /// arrival defeats — in `marks` by a single right-to-left scan, drop
    /// the tail nodes the frame winner (the oldest survivor) defeats with
    /// one `truncate`, and `extend` the survivors. Same deque as
    /// `frame.len()` [`arrive`](Self::arrive)s; head expiry is the caller's.
    pub(crate) fn append_frame(&mut self, first: u64, frame: &[O::Partial]) {
        let Some((newest, older)) = frame.split_last() else {
            return;
        };
        let (op, marks) = (&self.op, &mut self.marks);
        marks.clear();
        marks.resize(frame.len().div_ceil(64), 0); // alloc:amortized one word per 64 frame slots, kept at its high-water mark
        if let Some(word) = marks.last_mut() {
            *word = 1 << (older.len() % 64);
        }
        // A partial survives iff the fold of everything after it does not
        // defeat it — the outcome of sequential tail-popping, where later
        // arrivals cascade through the deque. Seeding the winner from the
        // newest partial keeps the scan to one dominance test per element; a
        // survivor is the new fold, so it is cloned, not combined.
        let mut winner = newest.clone();
        for (word, run) in marks.iter_mut().zip(older.chunks(64)).rev() {
            for (bit, p) in run.iter().enumerate().rev() {
                if !op.defeats(&winner, p) {
                    *word |= 1 << bit;
                    winner = p.clone();
                }
            }
        }
        // Defeated nodes form a contiguous tail: count them over the buffer's
        // two contiguous runs newest-to-oldest — no wrap-around branch per
        // node — and drop them with one truncate.
        let (older_run, newer_run) = self.nodes.as_slices();
        let mut defeated = 0;
        for run in [newer_run, older_run] {
            let beaten = run
                .iter()
                .rev()
                .take_while(|n| op.defeats(&winner, &n.val))
                .count();
            defeated += beaten;
            if beaten < run.len() {
                break;
            }
        }
        self.nodes.truncate(self.nodes.len() - defeated);
        // alloc:amortized the buffer doubles when full and shrinks only on expiry
        self.nodes.extend(SetBits::new(marks).map(|i| Node {
            stamp: first + i as u64,
            val: frame[i].clone(),
        }));
    }

    /// The monotone-deque invariants (paper §3.2, Algorithm 2), reported
    /// under the shell's `name`: every stamp is inside `live`, stamps
    /// increase head→tail — strictly when `distinct`, as arrival indices
    /// must; equal timestamps are legal — and no node is defeated by its
    /// successor, or the successor's arrival would have popped it. The head
    /// being the fold of the window then follows by construction.
    /// `O(len)` `defeats`, comparisons only, so exact for any partial type.
    pub(crate) fn check_invariants(
        &self,
        name: &'static str,
        live: impl RangeBounds<u64> + Debug,
        distinct: bool,
    ) -> Result<(), InvariantViolation> {
        let mut prev: Option<&Node<O::Partial>> = None;
        for (k, node) in self.nodes.iter().enumerate() {
            ensure!(
                name,
                "position-live",
                live.contains(&node.stamp),
                "node {k} holds stamp {} outside the live range {live:?}",
                node.stamp
            );
            if let Some(older) = prev {
                ensure!(
                    name,
                    "position-order",
                    older.stamp < node.stamp || (!distinct && older.stamp == node.stamp),
                    "node {k} stamp {} does not follow its predecessor's {}",
                    node.stamp,
                    older.stamp
                );
                ensure!(
                    name,
                    "dominance-order",
                    !self.op.defeats(&node.val, &older.val),
                    "node {k} value {:?} defeats its older neighbour {:?}",
                    node.val,
                    older.val
                );
            }
            prev = Some(node);
        }
        Ok(())
    }

    /// Capture the node count and each node's stamp (words) and value
    /// (partials), head→tail. The buffer layout carries no answer-visible
    /// information, so rebuilding the nodes verbatim restores every future
    /// answer bitwise.
    pub(crate) fn save_nodes(&self, w: &mut StateWriter<O::Partial>) {
        w.usize_word(self.nodes.len());
        for node in self.nodes.iter() {
            w.word(node.stamp);
            w.partial(node.val.clone());
        }
    }

    /// Rebuild a deque captured by [`save_nodes`](Self::save_nodes) for a
    /// window of `window` partials. Only the node count is bounded here;
    /// the caller re-checks the invariants against its own live range.
    pub(crate) fn load_nodes(
        op: O,
        window: usize,
        r: &mut StateReader<'_, O::Partial>,
    ) -> Result<Self, StateError> {
        let count = r.usize_word("monotone deque node count")?;
        if count > window {
            return Err(corrupt(format!(
                "monotone deque: {count} nodes impossible for window {window}"
            )));
        }
        let mut deque = Self::new(op);
        for _ in 0..count {
            let stamp = r.word("monotone deque node stamp")?;
            let val = r.partial("monotone deque node value")?;
            deque.nodes.push_back(Node { stamp, val });
        }
        Ok(deque)
    }
}

impl<O: SelectiveOp> MemoryFootprint for MonoDeque<O> {
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * core::mem::size_of::<Node<O::Partial>>()
            + self.marks.capacity() * core::mem::size_of::<u64>()
    }
}

/// The indices of the set bits of a word slice, ascending, with their
/// exact count known up front (`extend` reserves it in one step).
struct SetBits<'a> {
    words: core::slice::Iter<'a, u64>,
    word: u64,
    base: usize,
    left: usize,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64]) -> Self {
        let left = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut words = words.iter();
        SetBits {
            word: words.next().copied().unwrap_or(0),
            words,
            base: 0,
            left,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.words.next()?;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        self.left -= 1;
        Some(self.base + bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_slack_shrinks_only_a_quarter_full_buffer_above_its_floor() {
        let mut fifo: VecDeque<u64> = (0..1000).collect();
        let full = fifo.capacity();
        fifo.drain(..fifo.len() - (full / 4 + 1));
        trim_slack(&mut fifo);
        assert_eq!(fifo.capacity(), full, "more than a quarter full: kept");

        fifo.pop_front();
        trim_slack(&mut fifo);
        let len = fifo.len();
        assert!(
            (2 * len..full).contains(&fifo.capacity()),
            "a quarter full: {} slots for {len}",
            fifo.capacity()
        );

        fifo.drain(..len - 1);
        trim_slack(&mut fifo);
        assert!(fifo.capacity() >= SLACK_FLOOR);
        assert!(fifo.capacity() < 2 * len);
        assert_eq!(fifo.iter().copied().collect::<Vec<_>>(), [999]);

        let mut small: VecDeque<u64> = VecDeque::with_capacity(SLACK_FLOOR);
        small.push_back(1);
        trim_slack(&mut small);
        assert!(small.capacity() >= SLACK_FLOOR, "the floor is kept");
    }
}
