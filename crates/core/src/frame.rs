//! SlickDeque (Non-Inv)'s frame kernel: a batch of arrivals answered and
//! absorbed a *frame* at a time instead of a slide at a time. Shared by
//! [`SlickDequeNonInv`](crate::algorithms::SlickDequeNonInv) (`bulk_insert`,
//! `bulk_slide`) and
//! [`MultiSlickDequeNonInv`](crate::multi::MultiSlickDequeNonInv)
//! (`bulk_slide_multi`).
//!
//! A frame is a run of arrivals no longer than the smallest registered
//! range, so every window that ends inside the frame reaches back to the
//! frame's first arrival. The window of range `r` ending at the frame's
//! `k`-th arrival is then the last `r − k − 1` pre-frame partials followed
//! by `frame[..=k]`, and its aggregate is the windowed recurrence
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
//! [`answer_frame`] computes the answers without touching the deque, and
//! its inner loops branch on positions only: a node of age `a` serves range
//! `r` for exactly the arrivals `k < r − a`. [`append_frame`] then updates
//! the deque once — the right-to-left dominated-suffix scan Algorithm 2's
//! tail-popping collapses to when a whole run of arrivals is known.
//!
//! The price of removing the per-slide pop branch is about one extra ⊕ per
//! partial: one for the prefix, one against the pre-frame head and one
//! `defeats` in the survivor scan, against the per-slide path's amortized
//! "< 2". The paper's bound is a statement about `slide`, which is
//! unchanged.

use crate::chunked::ChunkedDeque;
use crate::ops::SelectiveOp;

/// Frames shorter than this keep the per-slide loop. The frame path's
/// fixed work (bitset reset, head walk, tail count, chunk append) is spread
/// over the frame. Measured with the cut-over disabled, on a strictly
/// descending stream — the per-slide loop's best case: its pop branch is
/// never taken — the frame path costs 17 / 13 / 11.6 / 10.9 ns per partial
/// at frames of 4 / 8 / 16 / 24 against the loop's 10.9; on a random stream
/// it is ahead from 4 up (10 ns against 27 at 16). 16 is the shortest frame
/// that loses on neither shape; `kernel_bench`'s `bulk_slide` rows sit
/// either side of it.
pub(crate) const MIN_FRAME: usize = 16;

/// One monotone-deque node: a partial and where it arrived. `Pos` is an
/// absolute arrival index in the single-query form and a position wrapped
/// into `[0, wSize)` in the multi-query form.
#[derive(Debug, Clone)]
pub(crate) struct Node<Pos, P> {
    pub(crate) pos: Pos,
    pub(crate) val: P,
}

/// Append the answers of every range in `ranges` (descending, at least
/// one) at every arrival of `frame` to `out`, one row of `ranges.len()` answers per
/// arrival, leaving the deque as it was before the frame.
///
/// `age` maps a node position to the number of arrivals since it, itself
/// included, as of the frame start (the newest pre-frame node has age 1);
/// a node is inside the window of range `r` at the frame's `k`-th arrival
/// iff `age + k < r`. `frame` must be non-empty and no longer than the
/// smallest range.
pub(crate) fn answer_frame<O: SelectiveOp, Pos>(
    op: &O,
    deque: &ChunkedDeque<Node<Pos, O::Partial>>,
    age: impl Fn(&Pos) -> usize,
    ranges: &[usize],
    frame: &[O::Partial],
    out: &mut Vec<O::Partial>,
) {
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
        while deque.get(first).is_some_and(|n| age(&n.pos) >= r) {
            first += 1;
        }
        let mut rows = rows.chunks_exact_mut(q);
        let mut at = first;
        let mut k = 0;
        while k < b {
            let Some(node) = deque.get(at) else {
                break;
            };
            // Ages strictly decrease tailwards, so `node` takes over from
            // its predecessor at arrival `k` and serves up to `r − age`.
            let until = (r - age(&node.pos)).min(b);
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

/// Append `frame` to the monotone deque with slide semantics, in one pass:
/// mark the frame's survivors — the partials no later arrival defeats — in
/// `marks` by a single right-to-left scan, drop the deque's tail nodes the
/// frame winner (the oldest survivor) defeats with one `truncate_back`, and
/// `extend_back` the survivors at `pos_at(offset in frame)`. Same deque as
/// `frame.len()` per-slide tail-popping pushes; head expiry is the
/// caller's.
pub(crate) fn append_frame<O: SelectiveOp, Pos>(
    op: &O,
    deque: &mut ChunkedDeque<Node<Pos, O::Partial>>,
    marks: &mut Vec<u64>,
    frame: &[O::Partial],
    pos_at: impl Fn(usize) -> Pos,
) {
    let Some((newest, older)) = frame.split_last() else {
        return;
    };
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
    // Defeated nodes form a contiguous tail: count them over the
    // contiguous chunk runs newest-to-oldest — no chunk-boundary branch
    // per node — and drop them with one truncate.
    let mut defeated = 0;
    'runs: for run in deque.slices().rev() {
        for node in run.iter().rev() {
            if op.defeats(&winner, &node.val) {
                defeated += 1;
            } else {
                break 'runs;
            }
        }
    }
    deque.truncate_back(defeated);
    // alloc:amortized chunk growth is amortized O(1) and recycled through the spare slot
    deque.extend_back(SetBits::new(marks).map(|i| Node {
        pos: pos_at(i),
        val: frame[i].clone(),
    }));
}

/// The indices of the set bits of a word slice, ascending, with their
/// exact count known up front (`extend_back` credits the length first).
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

impl ExactSizeIterator for SetBits<'_> {}
