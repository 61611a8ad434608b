//! Snapshot round-trip property: for the SlickDeque form the service runs
//! per op × every servable op × window size, capturing mid-stream through
//! the server's codec layer ([`KeyState`] bytes) and restoring yields an
//! aggregator whose every subsequent answer is bitwise identical to the
//! uninterrupted one.

use swag_core::aggregator::FinalAggregator;
use swag_core::algorithms::{SlickDequeInv, SlickDequeNonInv};
use swag_core::ops::{AggregateOp, MaxF64, Mean, MinF64, StdDev, Sum};
use swag_core::state::{PartialCodec, StateReader, StateWriter, StatefulAggregator};
use swag_data::prng::SplitMix64;
use swag_server::snapshot::KeyState;
use swag_stream::{TimeWindowExec, TimeWindowSpec};

const WINDOWS: [usize; 4] = [1, 7, 64, 1000];

fn values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            // Uniform in [-4, 4): inexact decimals, sign changes, and
            // magnitudes that make float summation order-sensitive.
            (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
        })
        .collect()
}

/// Feed half the stream, snapshot through the byte codec, restore, and
/// check the second half answers bitwise against the uninterrupted run.
fn roundtrip<O, A>(op: O, window: usize, seed: u64)
where
    O: AggregateOp<Input = f64, Output = f64> + PartialCodec + Clone,
    A: FinalAggregator<O> + StatefulAggregator<O>,
{
    let n = (window * 5 / 2).max(50);
    let vals = values(n, seed);
    let (first, second) = vals.split_at(n / 2);
    let mut live = A::with_capacity(op.clone(), window);
    for v in first {
        live.slide(op.lift(v));
    }

    let mut w = StateWriter::new();
    live.save_state(&mut w);
    let (words, partials) = w.into_parts();
    let ks = KeyState::encode(0, words, &partials, &op);

    let decoded = ks.decode_partials(&op).expect("partials decode");
    let mut r = StateReader::new(&ks.words, &decoded);
    let mut restored = A::load_state(op.clone(), window, &mut r)
        .unwrap_or_else(|e| panic!("{} w={window}: load failed: {e:?}", A::NAME));
    r.finish().expect("no trailing state");

    for (i, v) in second.iter().enumerate() {
        let a = op.lower(&live.slide(op.lift(v)));
        let b = op.lower(&restored.slide(op.lift(v)));
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} w={window}: answer {i} diverged after restore ({a} vs {b})",
            A::NAME
        );
    }
}

macro_rules! matrix {
    ($name:ident, $op:expr, [$($A:ident),+]) => {
        #[test]
        fn $name() {
            for (i, &window) in WINDOWS.iter().enumerate() {
                $(roundtrip::<_, $A<_>>($op, window, 0x5EED + i as u64);)+
            }
        }
    };
}

matrix!(
    sum_all_invertible_algorithms,
    Sum::<f64>::new(),
    [SlickDequeInv]
);
matrix!(mean_all_invertible_algorithms, Mean::new(), [SlickDequeInv]);
matrix!(
    stddev_all_invertible_algorithms,
    StdDev::new(),
    [SlickDequeInv]
);
matrix!(
    max_all_selective_algorithms,
    MaxF64::new(),
    [SlickDequeNonInv]
);
matrix!(
    min_all_selective_algorithms,
    MinF64::new(),
    [SlickDequeNonInv]
);

/// The event-time executor round-trips through the same codec layer.
///
/// Values are integer-valued `f64` (exact under any combine order):
/// restore rebuilds the FiBA tree from its entries, so the combine
/// *association* may differ from the live tree — bitwise answer
/// equality is guaranteed on exact streams (see
/// `FingerBTree::from_entries`), which is what the service's event
/// pipelines (counts, max/min) stream. Arrival-order algorithms above
/// restore their state verbatim and are bitwise on any floats.
#[test]
fn time_window_exec_roundtrips_mid_stream() {
    let op = Sum::<f64>::new();
    let specs = vec![TimeWindowSpec::new(100, 10)];
    let vals: Vec<f64> = {
        let mut rng = SplitMix64::new(0xE7E27);
        (0..500)
            .map(|_| (rng.next_u64() % 2048) as f64 - 1024.0)
            .collect()
    };
    let mut live = TimeWindowExec::new(op, specs.clone());
    for (i, v) in vals[..250].iter().enumerate() {
        live.insert(i as u64 * 3, v);
    }
    let _ = live.advance_watermark(400);

    let mut w = StateWriter::new();
    live.save_state(&mut w);
    let (words, partials) = w.into_parts();
    let ks = KeyState::encode(9, words, &partials, &op);
    let decoded = ks.decode_partials(&op).unwrap();
    let mut r = StateReader::new(&ks.words, &decoded);
    let mut restored = TimeWindowExec::load_state(op, &mut r).expect("load");
    r.finish().unwrap();

    for (i, v) in vals[250..].iter().enumerate() {
        let ts = 750 + i as u64 * 3;
        live.insert(ts, v);
        restored.insert(ts, v);
    }
    let out_live = live.advance_watermark(2000);
    let out_restored = restored.advance_watermark(2000);
    assert_eq!(out_live.len(), out_restored.len());
    for ((qa, ea, va), (qb, eb, vb)) in out_live.iter().zip(&out_restored) {
        assert_eq!((qa, ea), (qb, eb));
        assert_eq!(va.to_bits(), vb.to_bits(), "event answers bitwise equal");
    }
}

/// A corrupted capture must be rejected at load, not produce a silently
/// wrong aggregator: on both SlickDeque captures — `[curr, len]` + ring +
/// answer for Inv, `[len, next_pos, count, stamps…]` + node values for
/// Non-Inv — every word set out of range, dropped words and dropped
/// partials all fail, never panic.
#[test]
fn corrupted_words_are_rejected() {
    fn check<O, A>(op: O)
    where
        O: AggregateOp<Input = f64, Output = f64> + Clone,
        A: FinalAggregator<O> + StatefulAggregator<O>,
    {
        let window = 16;
        let mut live = A::with_capacity(op.clone(), window);
        for v in values(40, 7) {
            live.slide(op.lift(&v));
        }
        let mut w = StateWriter::new();
        live.save_state(&mut w);
        let (words, partials) = w.into_parts();
        let loads = |words: &[u64], partials: &[O::Partial]| {
            let mut r = StateReader::new(words, partials);
            A::load_state(op.clone(), window, &mut r).is_ok()
        };
        assert!(loads(&words, &partials), "{} capture loads", A::NAME);
        for i in 0..words.len() {
            let mut bad = words.clone();
            bad[i] = u64::MAX - 7;
            assert!(!loads(&bad, &partials), "{} word {i} corrupted", A::NAME);
        }
        let short = &words[..words.len() - 1];
        assert!(!loads(short, &partials), "{} words truncated", A::NAME);
        let short = &partials[..partials.len() - 1];
        assert!(!loads(&words, short), "{} partials truncated", A::NAME);
    }
    check::<_, SlickDequeInv<_>>(Sum::<f64>::new());
    check::<_, SlickDequeNonInv<_>>(MaxF64::new());
}

/// Snapshots written by earlier builds must keep restoring: the capture
/// layout of the two SlickDeque forms, pinned for a fixed stream — words
/// `[len, next_pos, node count, node positions…]` + node values for
/// Non-Inv, `[curr, len]` + the ring and the running answer for Inv. The
/// pinned capture, not the one just written, is what gets restored.
#[test]
fn slickdeque_snapshot_layout_is_pinned() {
    const WINDOW: usize = 4;
    const STREAM: [f64; 10] = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];

    fn pinned<O, A>(op: O, words: &[u64], partials: &[f64])
    where
        O: AggregateOp<Input = f64, Partial = f64, Output = f64> + Clone,
        A: FinalAggregator<O> + StatefulAggregator<O>,
    {
        let bits = |ps: &[f64]| ps.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let mut live = A::with_capacity(op.clone(), WINDOW);
        for v in &STREAM {
            live.slide(op.lift(v));
        }
        let mut w = StateWriter::new();
        live.save_state(&mut w);
        assert_eq!(w.words(), words, "{} words", A::NAME);
        assert_eq!(bits(w.partials()), bits(partials), "{} partials", A::NAME);

        let mut r = StateReader::new(words, partials);
        let mut restored = A::load_state(op.clone(), WINDOW, &mut r).expect("pinned capture loads");
        r.finish().expect("no trailing state");
        for v in [7.0, 0.5, 8.0, 2.0, 2.0] {
            let (a, b) = (live.slide(op.lift(&v)), restored.slide(op.lift(&v)));
            assert_eq!(a.to_bits(), b.to_bits(), "{} after restore", A::NAME);
        }
    }

    pinned::<_, SlickDequeNonInv<_>>(MaxF64::new(), &[4, 10, 3, 7, 8, 9], &[6.0, 5.0, 3.0]);
    pinned::<_, SlickDequeInv<_>>(Sum::<f64>::new(), &[2, 4], &[5.0, 3.0, 2.0, 6.0, 16.0]);
}
