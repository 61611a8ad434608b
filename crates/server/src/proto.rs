//! The ingest wire protocol: length-prefixed binary frames with a
//! line-delimited text fallback.
//!
//! A connection opens, names the pipeline it feeds, streams tuples, and
//! closes. Mode is chosen by the first four bytes:
//!
//! * **Binary** — magic `SWG1`, then `[u16 name_len][name bytes]`, then
//!   frames of `[u32 count][count × 24-byte tuple]` where a tuple is
//!   `(key: u64, ts: u64, value: f64)`, all little-endian. A zero-count
//!   frame (or EOF at a frame boundary) ends the stream cleanly.
//! * **Text** — anything else. The first line is the pipeline name; each
//!   following line is `key,value` (arrival-order pipelines) or
//!   `key,ts,value` (event-time pipelines). EOF ends the stream.
//!
//! Values must be finite. A binary frame or a text line carrying a NaN or
//! an infinity is refused whole — none of its tuples is admitted — and the
//! connection ends with `ERR … non-finite value …`; tuples already handed
//! to the pipeline's queue stay admitted (in text mode the server queues
//! lines in blocks, and earlier lines of a refused line's block are
//! dropped with it). One NaN or infinity would otherwise poison its key's
//! sum for the pipeline's whole life: the invertible slide
//! `answer ⊕ new ⊖ expiring` never heals from `NaN − NaN` or `inf − inf`,
//! and a snapshot carries the NaN across restarts.
//!
//! Either way the server replies with one line on completion: `OK <n>\n`
//! after a clean end (n = tuples accepted onto the pipeline's queue — an
//! enqueue ack, not a processing ack) or `ERR <reason>\n`. Backpressure
//! is the transport itself: a full pipeline queue blocks the reader
//! thread, the kernel socket buffer fills, and the client's `write`
//! blocks — the engine's bounded-channel semantics extended to the wire.

use std::io::{self, Read, Write};

/// Binary-mode magic.
pub const MAGIC: &[u8; 4] = b"SWG1";

/// One wire tuple: key, event timestamp (0 on arrival-order pipelines),
/// value.
pub const TUPLE_BYTES: usize = 24;

/// Largest accepted binary frame, in tuples. Bounds per-connection
/// buffering; senders chunk larger batches into multiple frames.
pub const MAX_FRAME_TUPLES: u32 = 1 << 20;

/// Largest accepted pipeline-name length on the wire.
pub const MAX_NAME_BYTES: u16 = 64;

/// Encode one binary frame of `(key, ts, value)` tuples into `out`.
pub fn encode_frame(tuples: &[(u64, u64, f64)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for &(key, ts, value) in tuples {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&ts.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
}

/// Encode the binary stream header (magic + pipeline name) into `out`.
pub fn encode_header(pipeline: &str, out: &mut Vec<u8>) {
    debug_assert!(pipeline.len() <= MAX_NAME_BYTES as usize);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(pipeline.len() as u16).to_le_bytes());
    out.extend_from_slice(pipeline.as_bytes());
}

/// Read the binary header that follows the magic: the pipeline name.
pub fn read_name(r: &mut impl Read) -> io::Result<String> {
    let mut len = [0u8; 2];
    r.read_exact(&mut len)?;
    let len = u16::from_le_bytes(len);
    if len == 0 || len > MAX_NAME_BYTES {
        // alloc:amortized error path only — runs once, on a rejected handshake
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("pipeline name length {len} out of range 1..={MAX_NAME_BYTES}"),
        ));
    }
    // alloc:amortized one bounded (<= MAX_NAME_BYTES) buffer per connection handshake
    let mut name = vec![0u8; len as usize];
    r.read_exact(&mut name)?;
    String::from_utf8(name)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "pipeline name is not UTF-8"))
}

/// Read one binary frame into `tuples` (cleared first).
///
/// Returns `Ok(false)` on a clean end of stream: EOF at the frame
/// boundary, or an explicit zero-count frame. A frame holding a
/// non-finite value is read to its end and refused whole: `tuples` is
/// left empty and the error names the value.
pub fn read_frame(r: &mut impl Read, tuples: &mut Vec<(u64, u64, f64)>) -> io::Result<bool> {
    tuples.clear();
    let mut count = [0u8; 4];
    // EOF before any length byte is a clean close; EOF inside is not.
    // check:allow constant-bound ranges on a fixed [u8; 4] array
    match r.read(&mut count[..1])? {
        0 => return Ok(false),
        _ => r.read_exact(&mut count[1..])?,
    }
    let count = u32::from_le_bytes(count);
    if count == 0 {
        return Ok(false);
    }
    if count > MAX_FRAME_TUPLES {
        // alloc:amortized error path only — runs once, on an oversized frame
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {count} tuples exceeds the {MAX_FRAME_TUPLES} cap"),
        ));
    }
    let mut buf = [0u8; TUPLE_BYTES];
    tuples.reserve(count as usize);
    let mut finite = true;
    for _ in 0..count {
        r.read_exact(&mut buf)?;
        // check:allow try_into on constant-width subslices of a fixed array cannot fail
        let key = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let ts = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let value = f64::from_le_bytes(buf[16..24].try_into().unwrap());
        finite &= value.is_finite();
        tuples.push((key, ts, value));
    }
    if !finite {
        let value = tuples.iter().map(|t| t.2).find(|v| !v.is_finite());
        let value = value.unwrap_or(f64::NAN);
        tuples.clear();
        // alloc:amortized error path only — runs once, on a refused frame
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("non-finite value {value} refused with its frame of {count} tuples"),
        ));
    }
    Ok(true)
}

/// Parse one text-mode line: `key,value` or `key,ts,value`. A NaN or an
/// infinite value is refused like a malformed one.
pub fn parse_text_line(line: &str) -> Result<(u64, u64, f64), String> {
    let mut parts = line.split(',');
    let key = parts
        .next()
        .ok_or("empty line")?
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("bad key: {e}"))?;
    let second = parts.next().ok_or("want key,value or key,ts,value")?.trim();
    let (ts, value) = match parts.next() {
        None => (0, second),
        Some(third) => {
            if parts.next().is_some() {
                return Err("too many fields (want key,value or key,ts,value)".into());
            }
            let ts = second.parse::<u64>().map_err(|e| format!("bad ts: {e}"))?;
            (ts, third.trim())
        }
    };
    let value = value
        .parse::<f64>()
        .map_err(|e| format!("bad value: {e}"))?;
    if !value.is_finite() {
        // alloc:amortized error path only — runs once, on a refused line
        return Err(format!("non-finite value {value} refused with its line"));
    }
    Ok((key, ts, value))
}

/// A blocking ingest client for the binary protocol — used by the
/// service tests, the examples and the benchmark's service workloads.
#[derive(Debug)]
pub struct IngestClient<W: Write> {
    w: W,
    buf: Vec<u8>,
    sent: u64,
}

impl<W: Write> IngestClient<W> {
    /// Open a binary stream to `pipeline` over `w` (writes the header).
    pub fn new(pipeline: &str, mut w: W) -> io::Result<Self> {
        let mut buf = Vec::with_capacity(4096);
        encode_header(pipeline, &mut buf);
        w.write_all(&buf)?;
        buf.clear();
        Ok(IngestClient { w, buf, sent: 0 })
    }

    /// Send one frame of tuples.
    pub fn send(&mut self, tuples: &[(u64, u64, f64)]) -> io::Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        encode_frame(tuples, &mut self.buf);
        self.w.write_all(&self.buf)?;
        self.sent += tuples.len() as u64;
        Ok(())
    }

    /// Tuples sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Send the end-of-stream frame and flush, returning the writer so
    /// the caller can read the server's `OK`/`ERR` ack line.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.write_all(&0u32.to_le_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let tuples = vec![
            (1u64, 10u64, 2.5f64),
            (2, 11, -0.0),
            (u64::MAX, 0, f64::MIN_POSITIVE / 2.0),
        ];
        let mut wire = Vec::new();
        encode_frame(&tuples, &mut wire);
        encode_frame(&[], &mut wire);
        let mut r = Cursor::new(wire);
        let mut got = Vec::new();
        assert!(read_frame(&mut r, &mut got).unwrap());
        assert_eq!(got.len(), 3);
        for ((k, t, v), (gk, gt, gv)) in tuples.iter().zip(&got) {
            assert_eq!((k, t), (gk, gt));
            assert_eq!(v.to_bits(), gv.to_bits(), "values survive bitwise");
        }
        assert!(!read_frame(&mut r, &mut got).unwrap(), "zero frame ends");

        // A non-finite value refuses its whole frame, which is still read
        // to its end, so the next frame decodes.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut wire = Vec::new();
            encode_frame(&[(1, 0, 1.0), (2, 0, bad), (3, 0, 3.0)], &mut wire);
            encode_frame(&[(4, 0, 4.0)], &mut wire);
            let mut r = Cursor::new(wire);
            let err = read_frame(&mut r, &mut got).unwrap_err();
            assert!(err.to_string().contains("non-finite value"), "{err}");
            assert!(got.is_empty(), "no tuple of the frame is admitted");
            assert!(read_frame(&mut r, &mut got).unwrap());
            assert_eq!(got, vec![(4, 0, 4.0)]);
        }
    }

    #[test]
    fn eof_at_boundary_is_clean() {
        let mut r = Cursor::new(Vec::new());
        let mut got = Vec::new();
        assert!(!read_frame(&mut r, &mut got).unwrap());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut wire = Vec::new();
        encode_frame(&[(1, 2, 3.0)], &mut wire);
        wire.truncate(wire.len() - 1);
        let mut got = Vec::new();
        assert!(read_frame(&mut Cursor::new(wire), &mut got).is_err());
    }

    #[test]
    fn header_round_trip() {
        let mut wire = Vec::new();
        encode_header("bids", &mut wire);
        assert_eq!(&wire[..4], MAGIC);
        let mut r = Cursor::new(&wire[4..]);
        assert_eq!(read_name(&mut r).unwrap(), "bids");
    }

    #[test]
    fn text_lines_parse() {
        assert_eq!(parse_text_line("7,1.5").unwrap(), (7, 0, 1.5));
        assert_eq!(parse_text_line("7, 42, -1.5").unwrap(), (7, 42, -1.5));
        assert!(parse_text_line("x,1").is_err());
        assert!(parse_text_line("1").is_err());
        assert!(parse_text_line("1,2,3,4").is_err());
        // Rust's float parser accepts these; the wire does not.
        for line in ["7,NaN", "7,inf", "7,-inf", "7,42,infinity", "7,42,nan"] {
            let err = parse_text_line(line).unwrap_err();
            assert!(err.starts_with("non-finite value"), "{line}: {err}");
        }
    }

    #[test]
    fn client_emits_header_frames_and_eos() {
        let mut wire = Vec::new();
        {
            let mut c = IngestClient::new("p", &mut wire).unwrap();
            c.send(&[(1, 0, 1.0), (2, 0, 2.0)]).unwrap();
            assert_eq!(c.sent(), 2);
            c.finish().unwrap();
        }
        let mut r = Cursor::new(&wire[..]);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).unwrap();
        assert_eq!(&magic, MAGIC);
        assert_eq!(read_name(&mut r).unwrap(), "p");
        let mut got = Vec::new();
        assert!(read_frame(&mut r, &mut got).unwrap());
        assert_eq!(got.len(), 2);
        assert!(!read_frame(&mut r, &mut got).unwrap());
    }
}
