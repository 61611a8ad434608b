//! The monotone deque's storage, seen from the four SlickDeque (Non-Inv)
//! shells: memory follows the deque's occupancy rather than its high-water
//! mark, and the frame path stays bitwise the per-slide loop while the live
//! nodes wrap around the end of the backing buffer.

use slickdeque::data::Xoshiro256StarStar as Rng;
use slickdeque::prelude::*;

/// Nodes the descending run puts on each deque.
const N: usize = 8192;

/// A descending run fills the deque to one node per tuple; the ascending
/// run after it defeats them all. Returns `(deque length, heap bytes)` at
/// the peak and after the collapse.
fn fill_then_collapse<A>(
    agg: &mut A,
    mut feed: impl FnMut(&mut A, u64, i64),
    probe: impl Fn(&A) -> (usize, usize),
) -> ((usize, usize), (usize, usize)) {
    for i in 0..N {
        feed(agg, i as u64, (N - i) as i64);
    }
    let peak = probe(agg);
    for i in N..N + 64 {
        feed(agg, i as u64, i as i64);
    }
    (peak, probe(agg))
}

fn assert_memory_falls(name: &str, (peak, after): ((usize, usize), (usize, usize))) {
    assert_eq!(peak.0, N, "{name}: a descending run keeps every node");
    assert_eq!(
        after.0, 1,
        "{name}: an ascending run leaves only its newest"
    );
    assert!(
        after.1 * 8 < peak.1,
        "{name}: {} heap bytes after the collapse against {} at the peak",
        after.1,
        peak.1
    );
}

#[test]
fn noninv_memory_falls_when_the_deque_collapses() {
    let op = Max::<i64>::new();

    let run = fill_then_collapse(
        &mut SlickDequeNonInv::new(op, N),
        |s, _, v| {
            s.slide(op.lift(&v));
        },
        |s| (s.deque_len(), s.heap_bytes()),
    );
    assert_memory_falls("single", run);

    let mut out = Vec::new();
    let run = fill_then_collapse(
        &mut MultiSlickDequeNonInv::new(op, &[N, N / 2]),
        |m, _, v| m.slide_multi(op.lift(&v), &mut out),
        |m| (m.deque_len(), m.heap_bytes()),
    );
    assert_memory_falls("multi", run);

    let run = fill_then_collapse(
        &mut TimeSlickDequeNonInv::new(op, N as u64),
        |t, ts, v| {
            t.insert(ts, op.lift(&v));
        },
        |t| (t.deque_len(), t.heap_bytes()),
    );
    assert_memory_falls("time", run);
}

/// A falling trend with noise and occasional spikes: the deque holds most
/// of the window, so its live nodes keep crossing the end of the buffer,
/// and each spike defeats a long tail that straddles it.
fn spiky_descent(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed);
    (0..n as i64)
        .map(|i| {
            let v = -4 * i + rng.gen_range_i64(0, 6);
            if rng.gen_below(90) == 0 {
                v + rng.gen_range_i64(100, 800)
            } else {
                v
            }
        })
        .collect()
}

/// Batches of 16 to 64 partials: each one frame on the windows below.
fn frames(len: usize, rng: &mut Rng) -> Vec<std::ops::Range<usize>> {
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < len {
        let end = (at + rng.gen_range_usize(16, 65)).min(len);
        cuts.push(at..end);
        at = end;
    }
    cuts
}

/// The bits an answer is compared by.
type Bits<P> = fn(&P) -> i128;

fn max_bits(p: &Option<i64>) -> i128 {
    p.map_or(i128::MIN, i128::from)
}

fn f64_bits(p: &f64) -> i128 {
    i128::from(p.to_bits())
}

fn all_bits<P>(bits: Bits<P>, answers: &[P]) -> Vec<i128> {
    answers.iter().map(bits).collect()
}

fn single_frames_match_slides<O: SelectiveOp + Clone>(
    op: O,
    window: usize,
    partials: &[O::Partial],
    bits: Bits<O::Partial>,
    seed: u64,
) {
    let mut rng = Rng::new(seed);
    let mut per_slide = SlickDequeNonInv::new(op.clone(), window);
    let expect: Vec<i128> = partials
        .iter()
        .map(|p| bits(&per_slide.slide(p.clone())))
        .collect();

    let mut sliding = SlickDequeNonInv::new(op.clone(), window);
    let mut inserting = SlickDequeNonInv::new(op, window);
    let mut out = Vec::new();
    for range in frames(partials.len(), &mut rng) {
        let batch = &partials[range.clone()];
        sliding.bulk_slide(batch, &mut out);
        assert_eq!(
            all_bits(bits, &out),
            expect[range.clone()],
            "w={window}: bulk_slide over {range:?} differs from slide"
        );
        inserting.bulk_insert(batch);
        assert_eq!(
            bits(&inserting.query()),
            expect[range.end - 1],
            "w={window}: bulk_insert of {range:?} differs from slide"
        );
        assert_eq!(sliding.check_invariants(), Ok(()));
        assert_eq!(inserting.check_invariants(), Ok(()));
    }
    assert_eq!(sliding.deque_len(), per_slide.deque_len());
    assert_eq!(inserting.deque_len(), per_slide.deque_len());
}

fn multi_frames_match_slides<O: SelectiveOp + Clone>(
    op: O,
    ranges: &[usize],
    partials: &[O::Partial],
    bits: Bits<O::Partial>,
    seed: u64,
) {
    let mut rng = Rng::new(seed);
    let mut per_slide = MultiSlickDequeNonInv::new(op.clone(), ranges);
    let mut expect = Vec::new();
    let mut row = Vec::new();
    for p in partials {
        per_slide.slide_multi(p.clone(), &mut row);
        expect.extend(row.iter().map(bits));
    }

    let mut framed = MultiSlickDequeNonInv::new(op, ranges);
    let q = ranges.len();
    let mut out = Vec::new();
    for range in frames(partials.len(), &mut rng) {
        framed.bulk_slide_multi(&partials[range.clone()], &mut out);
        assert_eq!(
            all_bits(bits, &out),
            expect[range.start * q..range.end * q],
            "ranges {ranges:?}: bulk_slide_multi over {range:?} differs from slide_multi"
        );
        assert_eq!(framed.check_invariants(), Ok(()));
    }
    assert_eq!(framed.deque_len(), per_slide.deque_len());
}

#[test]
fn noninv_frames_match_slides_across_the_buffer_end() {
    for (seed, window) in [(1, 100), (2, 200), (3, 1000)] {
        let values = spiky_descent(8 * window + 500, seed);
        let ranges = [window, window / 2, 64];
        let op = Max::<i64>::new();
        let partials: Vec<_> = values.iter().map(|v| op.lift(v)).collect();
        single_frames_match_slides(op, window, &partials, max_bits, seed);
        multi_frames_match_slides(op, &ranges, &partials, max_bits, seed);

        let op = MaxF64::new();
        let partials: Vec<_> = values.iter().map(|&v| op.lift(&(v as f64 / 7.0))).collect();
        single_frames_match_slides(op, window, &partials, f64_bits, seed);
        multi_frames_match_slides(op, &ranges, &partials, f64_bits, seed);
    }
}
