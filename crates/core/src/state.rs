//! Aggregator window-state serialization: save a final aggregator's
//! complete internal state and rebuild it **bitwise-identically** later.
//!
//! The resident service (swag-server) snapshots live pipelines to disk and
//! restores them after a restart; the contract is that a restored
//! aggregator answers every future slide with exactly the bits the
//! uninterrupted aggregator would have produced. Replaying window
//! *contents* through a fresh aggregator cannot honour that for
//! running-aggregate algorithms (SlickDeque Inv's answer accumulates
//! floating-point rounding from the whole history, not just the live
//! window), so [`StatefulAggregator`] serializes each algorithm's internal
//! state **verbatim** — every ring slot, deque node and running answer —
//! rather than reconstructing any of it. Only the two aggregators the
//! service runs per count-window key implement it, `SlickDequeInv` and
//! `SlickDequeNonInv`; the paper's baselines are measured in-process and
//! never snapshotted.
//!
//! State is captured into two typed streams:
//!
//! * **words** (`u64`) — cursors, lengths, absolute positions, flags;
//! * **partials** (`O::Partial`) — the aggregate payloads, in a
//!   deterministic order fixed by each algorithm.
//!
//! Keeping partials typed (not raw bytes) makes save/load lossless by
//! construction; the binary on-disk encoding is layered on top via
//! [`PartialCodec`], implemented per operation. Loading is defensive:
//! every read is bounds-checked ([`StateError`]) and each algorithm
//! re-validates its structural invariants before trusting the result, so
//! a truncated or bit-flipped snapshot is rejected instead of resurrected
//! into a corrupt window.

use crate::aggregator::FinalAggregator;
use crate::invariants::InvariantViolation;
use crate::ops::AggregateOp;

/// Why a serialized aggregator state could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The state ran out of words or partials mid-read.
    Truncated {
        /// What the reader was trying to read.
        what: &'static str,
    },
    /// The state decoded but describes an impossible aggregator (bad
    /// cursor, length out of range, failed invariant re-check, …).
    Corrupt(String),
}

impl core::fmt::Display for StateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StateError::Truncated { what } => {
                write!(f, "state truncated while reading {what}")
            }
            StateError::Corrupt(msg) => write!(f, "corrupt state: {msg}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<InvariantViolation> for StateError {
    fn from(v: InvariantViolation) -> Self {
        StateError::Corrupt(format!("restored state fails invariants: {v}"))
    }
}

/// Shorthand for `Err(StateError::Corrupt(...))` construction.
pub fn corrupt(msg: impl Into<String>) -> StateError {
    StateError::Corrupt(msg.into())
}

/// Collects an aggregator's state as a word stream plus a partial stream.
#[derive(Debug, Clone)]
pub struct StateWriter<P> {
    words: Vec<u64>,
    partials: Vec<P>,
}

impl<P> Default for StateWriter<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> StateWriter<P> {
    /// An empty writer.
    pub fn new() -> Self {
        StateWriter {
            words: Vec::new(),
            partials: Vec::new(),
        }
    }

    /// Append one bookkeeping word.
    pub fn word(&mut self, w: u64) {
        self.words.push(w);
    }

    /// Append one bookkeeping word from a `usize`.
    pub fn usize_word(&mut self, w: usize) {
        self.words.push(w as u64);
    }

    /// Append one partial aggregate.
    pub fn partial(&mut self, p: P) {
        self.partials.push(p);
    }

    /// The words written so far.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The partials written so far.
    pub fn partials(&self) -> &[P] {
        &self.partials
    }

    /// Consume the writer, yielding `(words, partials)`.
    pub fn into_parts(self) -> (Vec<u64>, Vec<P>) {
        (self.words, self.partials)
    }
}

/// Checked sequential reader over a `(words, partials)` state capture.
#[derive(Debug)]
pub struct StateReader<'a, P> {
    words: &'a [u64],
    partials: &'a [P],
    w: usize,
    p: usize,
}

impl<'a, P: Clone> StateReader<'a, P> {
    /// A reader positioned at the start of both streams.
    pub fn new(words: &'a [u64], partials: &'a [P]) -> Self {
        StateReader {
            words,
            partials,
            w: 0,
            p: 0,
        }
    }

    /// Read the next bookkeeping word.
    pub fn word(&mut self, what: &'static str) -> Result<u64, StateError> {
        let w = self
            .words
            .get(self.w)
            .copied()
            .ok_or(StateError::Truncated { what })?;
        self.w += 1;
        Ok(w)
    }

    /// Read the next bookkeeping word as a `usize`.
    pub fn usize_word(&mut self, what: &'static str) -> Result<usize, StateError> {
        let w = self.word(what)?;
        usize::try_from(w).map_err(|_| corrupt(format!("{what} = {w} exceeds usize")))
    }

    /// Read the next partial aggregate.
    pub fn partial(&mut self, what: &'static str) -> Result<P, StateError> {
        let p = self
            .partials
            .get(self.p)
            .cloned()
            .ok_or(StateError::Truncated { what })?;
        self.p += 1;
        Ok(p)
    }

    /// Read the next `n` partials into a fresh vector.
    pub fn partial_vec(&mut self, n: usize, what: &'static str) -> Result<Vec<P>, StateError> {
        if self.partials.len() - self.p < n {
            return Err(StateError::Truncated { what });
        }
        let out = self.partials[self.p..self.p + n].to_vec();
        self.p += n;
        Ok(out)
    }

    /// Assert both streams were consumed exactly — trailing garbage means
    /// the capture does not describe what the loader thinks it does.
    pub fn finish(self) -> Result<(), StateError> {
        if self.w != self.words.len() {
            return Err(corrupt(format!(
                "{} unread trailing words",
                self.words.len() - self.w
            )));
        }
        if self.p != self.partials.len() {
            return Err(corrupt(format!(
                "{} unread trailing partials",
                self.partials.len() - self.p
            )));
        }
        Ok(())
    }
}

/// A [`FinalAggregator`] whose complete window state can be captured and
/// restored bitwise.
///
/// Contract: for any reachable aggregator state `a`,
/// `load_state(op, a.window(), save(a))` yields an aggregator whose every
/// future answer (`slide`, `bulk_slide`, `query`, eviction behaviour, …)
/// is **bitwise identical** to `a`'s, on any input stream — the restored
/// state is the state, not a recomputation of it.
pub trait StatefulAggregator<O: AggregateOp>: FinalAggregator<O> {
    /// Capture the full internal state.
    fn save_state(&self, w: &mut StateWriter<O::Partial>);

    /// Rebuild an aggregator from a state captured at the same `window`.
    /// Rejects truncated or structurally impossible captures.
    fn load_state(
        op: O,
        window: usize,
        r: &mut StateReader<'_, O::Partial>,
    ) -> Result<Self, StateError>
    where
        Self: Sized;
}

/// Binary encoding of an operation's partial aggregates, for the on-disk
/// snapshot layer. Little-endian, fixed width per op, no padding.
pub trait PartialCodec: AggregateOp {
    /// Append the encoding of `p` to `out`.
    fn encode_partial(&self, p: &Self::Partial, out: &mut Vec<u8>);

    /// Decode one partial starting at `*pos`, advancing it past the bytes
    /// consumed.
    fn decode_partial(&self, bytes: &[u8], pos: &mut usize) -> Result<Self::Partial, StateError>;
}

/// Read `N` bytes at `*pos`, advancing it.
fn take_bytes<const N: usize>(
    bytes: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<[u8; N], StateError> {
    let end = pos
        .checked_add(N)
        .filter(|&e| e <= bytes.len())
        .ok_or(StateError::Truncated { what })?;
    let mut buf = [0u8; N];
    buf.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(buf)
}

/// Decode one little-endian `u64` at `*pos`.
pub fn decode_u64(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, StateError> {
    Ok(u64::from_le_bytes(take_bytes::<8>(bytes, pos, what)?))
}

/// Decode one little-endian `f64` (bit pattern preserved) at `*pos`.
pub fn decode_f64(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<f64, StateError> {
    Ok(f64::from_le_bytes(take_bytes::<8>(bytes, pos, what)?))
}

impl PartialCodec for crate::ops::Sum<f64> {
    fn encode_partial(&self, p: &f64, out: &mut Vec<u8>) {
        out.extend_from_slice(&p.to_le_bytes());
    }
    fn decode_partial(&self, bytes: &[u8], pos: &mut usize) -> Result<f64, StateError> {
        decode_f64(bytes, pos, "Sum<f64> partial")
    }
}

impl<D: crate::ops::Direction> PartialCodec for crate::ops::ExtremeF64<D> {
    fn encode_partial(&self, p: &f64, out: &mut Vec<u8>) {
        out.extend_from_slice(&p.to_le_bytes());
    }
    fn decode_partial(&self, bytes: &[u8], pos: &mut usize) -> Result<f64, StateError> {
        decode_f64(bytes, pos, D::pick_end("MaxF64 partial", "MinF64 partial"))
    }
}

impl PartialCodec for crate::ops::Mean {
    fn encode_partial(&self, p: &crate::ops::MeanPartial, out: &mut Vec<u8>) {
        out.extend_from_slice(&p.sum.to_le_bytes());
        out.extend_from_slice(&p.count.to_le_bytes());
    }
    fn decode_partial(
        &self,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<crate::ops::MeanPartial, StateError> {
        let sum = decode_f64(bytes, pos, "Mean partial sum")?;
        let count = decode_u64(bytes, pos, "Mean partial count")?;
        Ok(crate::ops::MeanPartial { sum, count })
    }
}

impl<const ROOT: bool> PartialCodec for crate::ops::Dispersion<ROOT> {
    fn encode_partial(&self, p: &crate::ops::VariancePartial, out: &mut Vec<u8>) {
        out.extend_from_slice(&p.sum.to_le_bytes());
        out.extend_from_slice(&p.sum_squares.to_le_bytes());
        out.extend_from_slice(&p.count.to_le_bytes());
    }
    fn decode_partial(
        &self,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<crate::ops::VariancePartial, StateError> {
        let sum = decode_f64(bytes, pos, "Variance partial sum")?;
        let sum_squares = decode_f64(bytes, pos, "Variance partial sum_squares")?;
        let count = decode_u64(bytes, pos, "Variance partial count")?;
        Ok(crate::ops::VariancePartial {
            sum,
            sum_squares,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Mean, MeanPartial, StdDev, Sum, VariancePartial};

    #[test]
    fn writer_reader_round_trip() {
        let mut w: StateWriter<f64> = StateWriter::new();
        w.word(7);
        w.usize_word(3);
        w.partial(1.5);
        w.partial(-0.0);
        let (words, partials) = w.into_parts();
        let mut r = StateReader::new(&words, &partials);
        assert_eq!(r.word("a").unwrap(), 7);
        assert_eq!(r.usize_word("b").unwrap(), 3);
        assert_eq!(r.partial("p").unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(r.partial("p").unwrap().to_bits(), (-0.0f64).to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_rejected() {
        let words = [1u64];
        let partials: [f64; 0] = [];
        let mut r = StateReader::new(&words, &partials);
        r.word("first").unwrap();
        assert!(matches!(
            r.word("second"),
            Err(StateError::Truncated { what: "second" })
        ));
        let mut r = StateReader::new(&words, &partials);
        assert!(r.partial("missing").is_err());
    }

    #[test]
    fn unread_trailing_state_is_rejected() {
        let words = [1u64, 2];
        let partials = [0.0f64];
        let mut r = StateReader::new(&words, &partials);
        r.word("only").unwrap();
        assert!(matches!(r.finish(), Err(StateError::Corrupt(_))));
    }

    #[test]
    fn partial_codecs_preserve_bits() {
        let sum = Sum::<f64>::new();
        let mut buf = Vec::new();
        for v in [0.1f64, -0.0, f64::NAN, f64::INFINITY, 1e-308] {
            buf.clear();
            sum.encode_partial(&v, &mut buf);
            let mut pos = 0;
            let back = sum.decode_partial(&buf, &mut pos).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
            assert_eq!(pos, buf.len());
        }

        let mean = Mean::new();
        let p = MeanPartial {
            sum: 0.1 + 0.2,
            count: 41,
        };
        buf.clear();
        mean.encode_partial(&p, &mut buf);
        let mut pos = 0;
        let back = mean.decode_partial(&buf, &mut pos).unwrap();
        assert_eq!(back.sum.to_bits(), p.sum.to_bits());
        assert_eq!(back.count, p.count);

        let sd = StdDev::new();
        let p = VariancePartial {
            sum: 1.25,
            sum_squares: 9.5,
            count: 3,
        };
        buf.clear();
        sd.encode_partial(&p, &mut buf);
        let mut pos = 0;
        let back = sd.decode_partial(&buf, &mut pos).unwrap();
        assert_eq!(back, p);

        // Truncated partial bytes are a decode error, not a panic.
        let mut pos = 0;
        assert!(sd.decode_partial(&buf[..10], &mut pos).is_err());
    }
}
