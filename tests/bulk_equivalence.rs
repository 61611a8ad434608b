//! Bulk-vs-scalar equivalence: the batched fast paths added to every
//! aggregator must be indistinguishable from per-tuple processing.
//!
//! Two contracts are checked:
//!
//! * `bulk_slide` (the engine/executor ingestion path) must be **bitwise**
//!   identical to calling `slide` per element, for every algorithm ×
//!   operation × window — floating point included.
//! * `bulk_insert` / `bulk_evict` / `advance` may reassociate combines, so
//!   they are checked against a sequential reference model under exact
//!   (integer) operations, through seeded randomized FIFO programs that
//!   include evict-more-than-batch and empty-window edges.

use slickdeque::prelude::*;
use std::collections::VecDeque;
use swag_data::prng::Xoshiro256StarStar;

/// Windows from the issue spec: degenerate, small odd, chunk-sized, large.
const WINDOWS: &[usize] = &[1, 7, 64, 1000];

fn stream(n: usize, seed: u64) -> Vec<f64> {
    Workload::Uniform.generate(n, seed)
}

/// Feed the same stream through `slide` and through chunked `bulk_slide`
/// and require bitwise-identical lowered answers.
fn check_bulk_slide<O, A>(op: O, window: usize, values: &[f64], chunk: usize)
where
    O: AggregateOp<Input = f64, Output = f64> + Clone,
    A: FinalAggregator<O>,
{
    let mut scalar = A::with_capacity(op.clone(), window);
    let expected: Vec<u64> = values
        .iter()
        .map(|v| op.lower(&scalar.slide(op.lift(v))).to_bits())
        .collect();

    let mut bulk = A::with_capacity(op.clone(), window);
    let mut got = Vec::with_capacity(values.len());
    let mut lifted = Vec::new();
    let mut out = Vec::new();
    for ch in values.chunks(chunk) {
        lifted.clear();
        lifted.extend(ch.iter().map(|v| op.lift(v)));
        bulk.bulk_slide(&lifted, &mut out);
        got.extend(out.drain(..).map(|p| op.lower(&p).to_bits()));
    }
    assert_eq!(
        got,
        expected,
        "{} w={window} chunk={chunk}: bulk_slide diverged from slide",
        A::NAME
    );
}

/// Chunk sizes straddle the window and the stream length; the large window
/// skips tiny chunks to keep the O(n)-per-slide baselines fast.
fn chunks_for(window: usize) -> &'static [usize] {
    if window >= 1000 {
        &[64, 513]
    } else {
        &[1, 7, 64, 513]
    }
}

macro_rules! check_all_invertible {
    ($op:expr, $w:expr, $vals:expr, $chunk:expr) => {{
        check_bulk_slide::<_, Naive<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, FlatFat<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, BInt<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, FlatFit<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, TwoStacks<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, Daba<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, SlickDequeInv<_>>($op, $w, $vals, $chunk);
    }};
}

macro_rules! check_all_selective {
    ($op:expr, $w:expr, $vals:expr, $chunk:expr) => {{
        check_bulk_slide::<_, Naive<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, FlatFat<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, BInt<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, FlatFit<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, TwoStacks<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, Daba<_>>($op, $w, $vals, $chunk);
        check_bulk_slide::<_, SlickDequeNonInv<_>>($op, $w, $vals, $chunk);
    }};
}

#[test]
fn bulk_slide_is_bitwise_identical_invertible_ops() {
    for &w in WINDOWS {
        let n = (3 * w).clamp(64, 2100);
        let values = stream(n, w as u64);
        for &chunk in chunks_for(w) {
            check_all_invertible!(Sum::<f64>::new(), w, &values, chunk);
            check_all_invertible!(Mean::new(), w, &values, chunk);
            check_all_invertible!(StdDev::new(), w, &values, chunk);
        }
    }
}

#[test]
fn bulk_slide_is_bitwise_identical_selective_ops() {
    for &w in WINDOWS {
        let n = (3 * w).clamp(64, 2100);
        let values = stream(n, 1000 + w as u64);
        for &chunk in chunks_for(w) {
            check_all_selective!(MaxF64::new(), w, &values, chunk);
            check_all_selective!(MinF64::new(), w, &values, chunk);
        }
    }
}

/// Drive an aggregator and a `VecDeque` reference model through the same
/// seeded random FIFO program — slides, bulk inserts past the window,
/// bulk evicts, and `advance` calls whose evictions exceed the incoming
/// batch — checking lengths each step and answers at every slide.
///
/// Integer ops only: `bulk_insert`/`advance` may reassociate combines,
/// which is invisible under exact arithmetic.
fn check_fifo_program<O, A>(op: O, window: usize, seed: u64, steps: usize)
where
    O: AggregateOp<Input = i64> + Clone,
    O::Partial: Copy + PartialEq + std::fmt::Debug,
    A: FinalAggregator<O>,
{
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut agg = A::with_capacity(op.clone(), window);
    let mut model: VecDeque<O::Partial> = VecDeque::new();
    let fold = |op: &O, m: &VecDeque<O::Partial>| {
        let mut it = m.iter();
        let first = *it.next().expect("fold of a non-empty window"); // check:allow test helper aborts the run on malformed input
        it.fold(first, |a, b| op.combine(&a, b))
    };
    let value = |rng: &mut Xoshiro256StarStar| rng.gen_range_u64(0, 1000) as i64 - 500;
    for step in 0..steps {
        let ctx = || format!("{} w={window} seed={seed} step={step}", A::NAME);
        match rng.gen_below(4) {
            0 => {
                let p = op.lift(&value(&mut rng));
                let got = agg.slide(p);
                if model.len() == window {
                    model.pop_front();
                }
                model.push_back(p);
                assert_eq!(got, fold(&op, &model), "{}", ctx());
            }
            1 => {
                // Batches up to twice the window exercise the replace-all
                // fast paths; size 0 exercises the no-op edge.
                let b = rng.gen_below(2 * window as u64 + 2) as usize;
                let batch: Vec<O::Partial> = (0..b).map(|_| op.lift(&value(&mut rng))).collect();
                agg.bulk_insert(&batch);
                for &p in &batch {
                    if model.len() == window {
                        model.pop_front();
                    }
                    model.push_back(p);
                }
            }
            2 => {
                let n = rng.gen_below(model.len() as u64 + 1) as usize;
                agg.bulk_evict(n);
                for _ in 0..n {
                    model.pop_front();
                }
            }
            _ => {
                // Evictions drawn independently of the batch size, so
                // evicting more than the batch brings in is routine here.
                let evictions = rng.gen_below(model.len() as u64 + 1) as usize;
                let b = rng.gen_below(window as u64 + 1) as usize;
                let batch: Vec<O::Partial> = (0..b).map(|_| op.lift(&value(&mut rng))).collect();
                agg.advance(&batch, evictions);
                for _ in 0..evictions {
                    model.pop_front();
                }
                for &p in &batch {
                    if model.len() == window {
                        model.pop_front();
                    }
                    model.push_back(p);
                }
            }
        }
        assert_eq!(agg.len(), model.len(), "{}", ctx());
    }
}

macro_rules! fifo_program_all {
    ($op:expr, $w:expr, $seed:expr) => {{
        check_fifo_program::<_, Naive<_>>($op, $w, $seed, 400);
        check_fifo_program::<_, FlatFat<_>>($op, $w, $seed, 400);
        check_fifo_program::<_, BInt<_>>($op, $w, $seed, 400);
        check_fifo_program::<_, FlatFit<_>>($op, $w, $seed, 400);
        check_fifo_program::<_, TwoStacks<_>>($op, $w, $seed, 400);
        check_fifo_program::<_, Daba<_>>($op, $w, $seed, 400);
    }};
}

#[test]
fn randomized_fifo_programs_match_reference_model_sum() {
    for (i, &w) in [1usize, 7, 64, 300].iter().enumerate() {
        fifo_program_all!(Sum::<i64>::new(), w, 0xB17_5EED + i as u64);
        check_fifo_program::<_, SlickDequeInv<_>>(Sum::<i64>::new(), w, 77 + i as u64, 400);
    }
}

#[test]
fn randomized_fifo_programs_match_reference_model_max() {
    for (i, &w) in [1usize, 7, 64, 300].iter().enumerate() {
        fifo_program_all!(Max::<i64>::new(), w, 0xFACE + i as u64);
        check_fifo_program::<_, SlickDequeNonInv<_>>(Max::<i64>::new(), w, 31 + i as u64, 400);
    }
}

/// The deterministic edges the issue calls out, on every algorithm.
fn check_edges<A: FinalAggregator<Sum<i64>>>() {
    let op = Sum::<i64>::new();
    let mut agg = A::with_capacity(op, 8);
    // Empty-window no-ops.
    agg.bulk_insert(&[]);
    agg.bulk_evict(0);
    agg.advance(&[], 0);
    assert_eq!(agg.len(), 0, "{}", A::NAME);
    assert_eq!(agg.slide(5), 5, "{}", A::NAME);
    // Evict back down to empty, then refill.
    agg.bulk_evict(1);
    assert_eq!(agg.len(), 0, "{}", A::NAME);
    assert_eq!(agg.slide(7), 7, "{}", A::NAME);
    // Evict-more-than-batch: 6 held, advance evicts 5 while adding 2.
    agg.bulk_insert(&[1, 2, 3, 4, 5]);
    assert_eq!(agg.len(), 6, "{}", A::NAME);
    agg.advance(&[10, 20], 5);
    assert_eq!(agg.len(), 3, "{}", A::NAME);
    assert_eq!(agg.slide(100), 5 + 10 + 20 + 100, "{}", A::NAME);
    // Batch twice the window: only the last 8 partials survive.
    let big: Vec<i64> = (1..=16).collect();
    agg.bulk_insert(&big);
    assert_eq!(agg.len(), 8, "{}", A::NAME);
    agg.bulk_evict(8);
    assert_eq!(agg.len(), 0, "{}", A::NAME);
    assert_eq!(agg.slide(9), 9, "{}", A::NAME);
}

#[test]
fn bulk_edges_on_every_algorithm() {
    check_edges::<Naive<_>>();
    check_edges::<FlatFat<_>>();
    check_edges::<BInt<_>>();
    check_edges::<FlatFit<_>>();
    check_edges::<TwoStacks<_>>();
    check_edges::<Daba<_>>();
    check_edges::<SlickDequeInv<_>>();
}

/// Same edges for the selective deque, which cannot run an invertible op.
#[test]
fn bulk_edges_on_selective_deque() {
    let op = Max::<i64>::new();
    let mut agg = SlickDequeNonInv::with_capacity(op, 8);
    agg.bulk_insert(&[]);
    agg.bulk_evict(0);
    agg.advance(&[], 0);
    assert_eq!(agg.len(), 0);
    assert_eq!(agg.slide(op.lift(&5)), op.lift(&5));
    agg.bulk_evict(1);
    assert_eq!(agg.len(), 0);
    // Evict-more-than-batch: 5 held, advance evicts 4 while adding 2.
    let batch: Vec<_> = [1i64, 9, 2, 3, 4].iter().map(|v| op.lift(v)).collect();
    agg.bulk_insert(&batch);
    assert_eq!(agg.len(), 5);
    agg.advance(&[op.lift(&7), op.lift(&6)], 4);
    assert_eq!(agg.len(), 3); // window is now [4, 7, 6]
    assert_eq!(agg.slide(op.lift(&0)), op.lift(&7));
    // Batch twice the window: only the last 8 partials survive.
    let big: Vec<_> = (1i64..=16).map(|v| op.lift(&v)).collect();
    agg.bulk_insert(&big);
    assert_eq!(agg.len(), 8);
    assert_eq!(agg.slide(op.lift(&0)), op.lift(&16));
}

/// `MultiSlickDequeInv::bulk_slide_multi` (range-major batching) must be
/// **bitwise** identical to per-tuple `slide_multi`, for every range and
/// any chunking of the stream — its per-range combine order is documented
/// to match the scalar path exactly.
#[test]
fn bulk_slide_multi_matches_scalar_on_multi_slickdeque_inv() {
    let ranges = [32usize, 17, 8, 1];
    let values = stream(4000, 0xB11D);
    let op = Sum::<f64>::new();

    let mut scalar = MultiSlickDequeInv::with_ranges(op, &ranges);
    let mut out = Vec::new();
    let mut expected = Vec::new();
    for v in &values {
        scalar.slide_multi(op.lift(v), &mut out);
        expected.extend(out.iter().map(|p| p.to_bits()));
    }

    // 7 and 20 wrap the 32-slot ring in the middle of a batch; 20 also sits
    // between ranges (17 < b < wsize: range 17 reads its own batch head
    // back while range 32 is still on the ring); 45 and 513 overrun the
    // ring, so only a batch's tail is stored.
    for &chunk in &[1usize, 7, 20, 32, 45, 513] {
        let mut bulk = MultiSlickDequeInv::with_ranges(op, &ranges);
        let mut got = Vec::with_capacity(expected.len());
        let mut lifted = Vec::new();
        for ch in values.chunks(chunk) {
            lifted.clear();
            lifted.extend(ch.iter().map(|v| op.lift(v)));
            bulk.bulk_slide_multi(&lifted, &mut out);
            got.extend(out.drain(..).map(|p| p.to_bits()));
        }
        assert_eq!(
            got, expected,
            "chunk {chunk}: bulk_slide_multi diverged from slide_multi"
        );
    }
}

/// Stream shapes for the selective frame kernel, as integers on a grid:
/// random, strictly descending (nothing dominates: a full deque, the
/// paper's worst case), ascending (a singleton deque), and four-valued
/// plateaus (runs of ties).
fn selective_shapes(n: usize) -> Vec<(&'static str, Vec<i64>)> {
    let mut rng = Xoshiro256StarStar::new(0x5E1EC7);
    vec![
        (
            "random",
            (0..n).map(|_| rng.gen_below(4096) as i64 - 2048).collect(),
        ),
        ("descending", (0..n as i64).rev().collect()),
        ("ascending", (0..n as i64).collect()),
        (
            "plateaus",
            (0..n).map(|i| ((i / 5) * 7 % 4) as i64).collect(),
        ),
    ]
}

/// Feed `partials` through per-tuple `slide_multi` and through chunked
/// `bulk_slide_multi` (and, for the largest range, through `slide` and
/// `SlickDequeNonInv::bulk_slide`), requiring identical answers under
/// `bits` and clean invariants after every call.
fn check_selective_frames<O, K>(
    label: &str,
    op: O,
    ranges: &[usize],
    partials: &[O::Partial],
    bits: impl Fn(&O::Partial) -> K,
) where
    O: SelectiveOp + Clone,
    K: PartialEq + std::fmt::Debug,
{
    let window = *ranges.iter().max().expect("ranges"); // check:allow test helper aborts the run on malformed input
    let mut out = Vec::new();
    let mut scalar = MultiSlickDequeNonInv::with_ranges(op.clone(), ranges);
    let mut expected = Vec::with_capacity(partials.len() * ranges.len());
    let mut single = SlickDequeNonInv::with_capacity(op.clone(), window);
    let mut expected_single = Vec::with_capacity(partials.len());
    for p in partials {
        scalar.slide_multi(p.clone(), &mut out);
        expected.extend(out.iter().map(&bits));
        expected_single.push(bits(&single.slide(p.clone())));
    }
    // Below, at, and above the frame kernel's cut-over; 513 straddles most
    // windows; the last is longer than the window. Per-tuple chunks walk
    // the whole deque per slide, so the 4096 window skips them.
    let mut chunkings = vec![7usize, 32, 513, window + 37];
    if window < 4096 {
        chunkings.push(1);
    }
    for chunk in chunkings {
        let ctx = format!("{label} ranges {ranges:?} chunk {chunk}");
        let mut bulk = MultiSlickDequeNonInv::with_ranges(op.clone(), ranges);
        let mut got = Vec::with_capacity(expected.len());
        let mut single = SlickDequeNonInv::with_capacity(op.clone(), window);
        let mut got_single = Vec::with_capacity(expected_single.len());
        for ch in partials.chunks(chunk) {
            bulk.bulk_slide_multi(ch, &mut out);
            assert_eq!(out.len(), ch.len() * bulk.ranges().len(), "{ctx}");
            got.extend(out.iter().map(&bits));
            bulk.check_invariants().expect(&ctx); // check:allow test assertion
            single.bulk_slide(ch, &mut out);
            got_single.extend(out.iter().map(&bits));
            single.check_invariants().expect(&ctx); // check:allow test assertion
        }
        assert!(got == expected, "{ctx}: bulk_slide_multi diverged");
        assert!(got_single == expected_single, "{ctx}: bulk_slide diverged");
    }
}

/// `MultiSlickDequeNonInv::bulk_slide_multi` and
/// `SlickDequeNonInv::bulk_slide` (the frame kernel) must be **bitwise**
/// identical to per-tuple `slide_multi` / `slide`: for single and shared
/// ranges on both sides of the frame cut-over, any chunking, every stream
/// shape, NaNs, and ties that only a payload can tell apart.
#[test]
fn bulk_slide_multi_matches_scalar_on_multi_slickdeque_noninv() {
    let range_sets: [&[usize]; 7] = [
        &[1024],
        &[4096, 1024, 256, 64],
        &[64, 32, 17],
        &[100, 16],
        &[20, 3],
        &[33],
        &[1],
    ];
    for ranges in range_sets {
        let n = 2 * ranges[0] + 600;
        for (shape, grid) in selective_shapes(n) {
            let floats: Vec<f64> = grid.iter().map(|&v| v as f64 / 64.0).collect();
            let f64_bits = |p: &f64| p.to_bits();
            check_selective_frames(shape, MaxF64::new(), ranges, &floats, f64_bits);
            check_selective_frames(shape, MinF64::new(), ranges, &floats, f64_bits);
            let op = Max::<i64>::new();
            let ints: Vec<_> = grid.iter().map(|v| op.lift(v)).collect();
            check_selective_frames(shape, op, ranges, &ints, |p| *p);
            // Keys collide eight to a bucket; the payload is the arrival
            // index, so an equal key must resolve to the newer arrival.
            let op = ArgMax::<i64, u32>::new();
            let pairs: Vec<_> = grid
                .iter()
                .enumerate()
                .map(|(i, &v)| op.lift(&(v.div_euclid(8), i as u32)))
                .collect();
            check_selective_frames(shape, op, ranges, &pairs, |p| *p);
        }
        // A NaN run entering, dominating (Max) or not (Min is mirrored),
        // and expiring, inside and across frames.
        let mut rng = Xoshiro256StarStar::new(0x0A4);
        let nan_run: Vec<f64> = (0..n)
            .map(|i| {
                if i % 700 >= 640 {
                    f64::NAN
                } else {
                    rng.gen_range_f64(-50.0, 50.0)
                }
            })
            .collect();
        let max = MaxF64::new();
        let lifted: Vec<f64> = nan_run.iter().map(|v| max.lift(v)).collect();
        check_selective_frames("nan", max, ranges, &lifted, |p| p.to_bits());
        let min = MinF64::new();
        let lifted: Vec<f64> = nan_run.iter().map(|v| min.lift(v)).collect();
        check_selective_frames("nan", min, ranges, &lifted, |p| p.to_bits());
    }
}

/// Ranges registered and deregistered between batches — growing the window,
/// then removing the largest range so that `ranges[0] < wsize` — must leave
/// the frame path in step with a per-tuple twin given the same calls.
#[test]
fn bulk_slide_multi_noninv_follows_add_and_remove_query() {
    let op = MaxF64::new();
    let values = stream(3000, 0xD1A1);
    let mut scalar = MultiSlickDequeNonInv::with_ranges(op, &[64, 16]);
    let mut bulk = MultiSlickDequeNonInv::with_ranges(op, &[64, 16]);
    let (mut sout, mut bout) = (Vec::new(), Vec::new());
    type Edit = fn(&mut MultiSlickDequeNonInv<MaxF64>);
    let edits: [Edit; 6] = [
        |a| a.add_query(32),
        |a| a.add_query(128),
        |a| assert!(a.remove_query(128)),
        |a| assert!(a.remove_query(16)),
        |a| a.add_query(200),
        |a| assert!(a.remove_query(200)),
    ];
    let mut batches = values.chunks(417);
    for edit in edits {
        let batch = batches.next().expect("enough batches"); // check:allow test helper aborts the run on malformed input
        let mut expected = Vec::new();
        for v in batch {
            scalar.slide_multi(op.lift(v), &mut sout);
            expected.extend(sout.iter().map(|p| p.to_bits()));
        }
        bulk.bulk_slide_multi(batch, &mut bout);
        let got: Vec<u64> = bout.iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, expected, "ranges {:?}", bulk.ranges());
        bulk.check_invariants().unwrap(); // check:allow test assertion
        edit(&mut scalar);
        edit(&mut bulk);
        assert_eq!(scalar.ranges(), bulk.ranges());
        assert_eq!(scalar.window(), bulk.window());
        bulk.check_invariants().unwrap(); // check:allow test assertion
    }
}

/// The Inv twin of the test above, through both forms of the one history
/// ring: ranges registered and deregistered (`add_query` re-lays the ring)
/// and windows resized and evicted (`resize` re-lays it too) between
/// batches must leave `bulk_slide_multi` / `bulk_slide` in step with a
/// per-tuple twin given the same calls. Batch sizes straddle every ring
/// size so runs wrap mid-batch and overrun the ring. Values sit on a 1/64
/// grid, so `Sum<f64>` is exact and the checkers' refold holds.
#[test]
fn bulk_slide_multi_inv_follows_add_and_remove_query() {
    const SIZES: [usize; 4] = [417, 29, 7, 130];
    let op = Sum::<f64>::new();
    let values: Vec<f64> = stream(14_000, 0xD1A2)
        .iter()
        .map(|v| (v * 4096.0).floor() / 64.0)
        .collect();
    let mut batches = SIZES.iter().cycle().scan(0, |at, &n| {
        *at += n;
        values.get(*at - n..*at)
    });

    let mut scalar = MultiSlickDequeInv::with_ranges(op, &[64, 16]);
    let mut bulk = MultiSlickDequeInv::with_ranges(op, &[64, 16]);
    let (mut sout, mut bout) = (Vec::new(), Vec::new());
    type Edit = fn(&mut MultiSlickDequeInv<Sum<f64>>);
    let edits: [Edit; 6] = [
        |a| a.add_query(32),
        |a| a.add_query(128),
        |a| assert!(a.remove_query(128)),
        |a| assert!(a.remove_query(16)),
        |a| a.add_query(200),
        |a| assert!(a.remove_query(200)),
    ];
    for edit in edits {
        for batch in batches.by_ref().take(SIZES.len()) {
            let mut expected = Vec::new();
            for v in batch {
                scalar.slide_multi(op.lift(v), &mut sout);
                expected.extend(sout.iter().map(|p| p.to_bits()));
            }
            bulk.bulk_slide_multi(batch, &mut bout);
            let got: Vec<u64> = bout.iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, expected, "ranges {:?}", bulk.ranges());
            scalar.check_invariants().unwrap(); // check:allow test assertion
            bulk.check_invariants().unwrap(); // check:allow test assertion
        }
        edit(&mut scalar);
        edit(&mut bulk);
        assert_eq!(scalar.ranges(), bulk.ranges());
        assert_eq!(scalar.window(), bulk.window());
        scalar.check_invariants().unwrap(); // check:allow test assertion
        bulk.check_invariants().unwrap(); // check:allow test assertion
    }

    let mut scalar = SlickDequeInv::with_capacity(op, 64);
    let mut bulk = SlickDequeInv::with_capacity(op, 64);
    type SingleEdit = fn(&mut SlickDequeInv<Sum<f64>>);
    let edits: [SingleEdit; 6] = [
        |a| a.resize(128),
        |a| a.evict(),
        |a| a.resize(40),
        |a| a.resize(200),
        |a| a.bulk_evict(a.len() / 2),
        |a| a.resize(7),
    ];
    for edit in edits {
        for batch in batches.by_ref().take(SIZES.len()) {
            let expected: Vec<u64> = batch.iter().map(|v| scalar.slide(*v).to_bits()).collect();
            bulk.bulk_slide(batch, &mut bout);
            let got: Vec<u64> = bout.iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, expected, "window {}", bulk.window());
            scalar.check_invariants().unwrap(); // check:allow test assertion
            bulk.check_invariants().unwrap(); // check:allow test assertion
        }
        edit(&mut scalar);
        edit(&mut bulk);
        assert_eq!((scalar.window(), scalar.len()), (bulk.window(), bulk.len()));
        assert_eq!(scalar.query().to_bits(), bulk.query().to_bits());
        scalar.check_invariants().unwrap(); // check:allow test assertion
        bulk.check_invariants().unwrap(); // check:allow test assertion
    }
}

/// The sharded engine's per-key answer streams must not depend on the
/// channel batch size, which controls how tuples group into bulk calls.
#[test]
fn engine_answers_invariant_across_channel_batch_sizes() {
    let tuples: Vec<(Key, f64)> = {
        let mut rng = Xoshiro256StarStar::new(0xBA7C4);
        (0..6000)
            .map(|_| (rng.gen_below(23), rng.gen_range_f64(-100.0, 100.0)))
            .collect()
    };
    let run_with = |batch: usize| -> Vec<Vec<u64>> {
        let engine = ShardedEngine::new(EngineConfig {
            shards: 3,
            queue_capacity: 4,
            batch,
            retain_answers: true,
            // Real-float StdDev data: the Inv answer-refold is not exact.
            check_invariants: false,
            ..EngineConfig::default()
        });
        let mut source = KeyedVecSource::new(tuples.clone());
        let run = engine.run(&mut source, u64::MAX, |_| {
            KeyedWindows::<_, SlickDequeInv<_>>::new(StdDev::new(), 32)
        });
        let mut per_key: Vec<Vec<u64>> = vec![Vec::new(); 23];
        for (key, answer) in run.answers.into_iter().flatten() {
            per_key[key as usize].push(answer.to_bits());
        }
        per_key
    };
    let reference = run_with(1);
    assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), 6000);
    for batch in [8usize, 64, 512] {
        assert_eq!(run_with(batch), reference, "channel batch {batch}");
    }
}
