//! The on-disk snapshot format: a pipeline's spec plus every key's
//! aggregator state, versioned and checksummed.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "SWAG"                      magic
//! u8   version     (= 1)
//! u8   kind        (0 = count plan, 1 = event plan)
//! u8   op tag      (OpKind::tag)
//! u8   algo tag    (0 = slickdeque, count; 7 = fiba, event; 1–6 reserved)
//! u16  name_len    + name bytes
//! [kind 0] u64 window
//! [kind 1] u64 range, u64 slide, u64 lateness
//! u64  shards      (advisory: the count at capture; restore re-shards)
//! u64  watermark   (event pipelines; 0 for count)
//! u64  key count
//! per key (each key at most once):
//!   u64 key
//!   u64 word count,    word count × u64     (typed state words)
//!   u64 partial count, u64 byte length, partials via PartialCodec
//! u64  FNV-1a 64 of everything above
//! ```
//!
//! The spec lives *inside* the file, so `restore` needs only the name:
//! the pipeline is re-created exactly as captured. Key blocks are
//! written in shard order then key order within a shard — a
//! drain-consistent cut taken at an engine barrier — and restore
//! re-partitions keys by [`shard_of`], so the shard count may change
//! between save and load without touching answers.
//!
//! [`shard_of`]: swag_engine::shard_of

use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use swag_core::state::{PartialCodec, StateError};

use crate::spec::{check_name, OpKind, PipelineSpec, PlanKind, ALGORITHMS};

/// Snapshot file magic.
pub const SNAP_MAGIC: &[u8; 4] = b"SWAG";

/// Current snapshot format version.
pub const SNAP_VERSION: u8 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One key's captured aggregator state, codec-encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyState {
    /// The key.
    pub key: u64,
    /// Typed state words from [`StateWriter::into_parts`].
    ///
    /// [`StateWriter::into_parts`]: swag_core::state::StateWriter::into_parts
    pub words: Vec<u64>,
    /// Partial count (the byte blob is decoded with the op's codec).
    pub partial_count: u64,
    /// Codec-encoded partials.
    pub partial_bytes: Vec<u8>,
}

impl KeyState {
    /// Encode a key's `(words, partials)` capture with `op`'s codec.
    pub fn encode<O: PartialCodec>(
        key: u64,
        words: Vec<u64>,
        partials: &[O::Partial],
        op: &O,
    ) -> Self {
        let mut partial_bytes = Vec::new();
        for p in partials {
            op.encode_partial(p, &mut partial_bytes);
        }
        KeyState {
            key,
            words,
            partial_count: partials.len() as u64,
            partial_bytes,
        }
    }

    /// Decode the partials blob back into typed partials.
    pub fn decode_partials<O: PartialCodec>(&self, op: &O) -> Result<Vec<O::Partial>, StateError> {
        let mut pos = 0usize;
        // Grown as decoded: a corrupt count must not size an allocation.
        let mut partials = Vec::new();
        for _ in 0..self.partial_count {
            partials.push(op.decode_partial(&self.partial_bytes, &mut pos)?);
        }
        if pos != self.partial_bytes.len() {
            return Err(swag_core::state::corrupt(format!(
                "snapshot key {}: {} trailing partial bytes",
                self.key,
                self.partial_bytes.len() - pos
            )));
        }
        Ok(partials)
    }
}

/// A decoded snapshot: the spec it was captured under plus per-key state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The pipeline spec at capture time.
    pub spec: PipelineSpec,
    /// Engine watermark at capture (event pipelines; 0 for count).
    pub watermark: u64,
    /// Every key's state, in shard-then-key capture order.
    pub keys: Vec<KeyState>,
}

impl Snapshot {
    /// Serialize to the versioned byte format (checksum appended).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.keys.len() * 64);
        out.extend_from_slice(SNAP_MAGIC);
        out.push(SNAP_VERSION);
        match self.spec.plan {
            PlanKind::Count { .. } => out.push(0),
            PlanKind::Event { .. } => out.push(1),
        }
        out.push(self.spec.op.tag());
        out.push(self.spec.plan.algo_tag());
        let name = self.spec.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        match self.spec.plan {
            PlanKind::Count { window } => out.extend_from_slice(&(window as u64).to_le_bytes()),
            PlanKind::Event {
                range,
                slide,
                lateness,
            } => {
                out.extend_from_slice(&range.to_le_bytes());
                out.extend_from_slice(&slide.to_le_bytes());
                out.extend_from_slice(&lateness.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.spec.shards as u64).to_le_bytes());
        out.extend_from_slice(&self.watermark.to_le_bytes());
        out.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
        for k in &self.keys {
            out.extend_from_slice(&k.key.to_le_bytes());
            out.extend_from_slice(&(k.words.len() as u64).to_le_bytes());
            for w in &k.words {
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.extend_from_slice(&k.partial_count.to_le_bytes());
            out.extend_from_slice(&(k.partial_bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&k.partial_bytes);
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and validate the byte format (checksum, magic, version,
    /// tags, structural bounds). `batch` on the returned spec is the
    /// format's default; the live server keeps its own.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < SNAP_MAGIC.len() + 8 {
            return Err("snapshot truncated: shorter than magic + checksum".into());
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        let computed = fnv1a(body);
        if stored != computed {
            return Err(format!(
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ));
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize, what: &str| -> Result<&[u8], String> {
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= body.len())
                .ok_or_else(|| format!("snapshot truncated reading {what}"))?;
            let s = &body[*pos..end];
            *pos = end;
            Ok(s)
        };
        let take_u64 = |pos: &mut usize, what: &str| -> Result<u64, String> {
            Ok(u64::from_le_bytes(take(pos, 8, what)?.try_into().unwrap()))
        };
        if take(&mut pos, 4, "magic")? != SNAP_MAGIC {
            return Err("not a snapshot file (bad magic)".into());
        }
        let version = take(&mut pos, 1, "version")?[0];
        if version != SNAP_VERSION {
            return Err(format!(
                "snapshot version {version} unsupported (this build reads {SNAP_VERSION})"
            ));
        }
        let kind = take(&mut pos, 1, "kind")?[0];
        let op = OpKind::from_tag(take(&mut pos, 1, "op tag")?[0])?;
        let algo_tag = take(&mut pos, 1, "algo tag")?[0];
        let name_len = u16::from_le_bytes(take(&mut pos, 2, "name length")?.try_into().unwrap());
        let name = String::from_utf8(take(&mut pos, name_len as usize, "name")?.to_vec())
            .map_err(|_| "snapshot pipeline name is not UTF-8".to_string())?;
        let plan = match kind {
            0 => PlanKind::Count {
                window: take_u64(&mut pos, "window")? as usize,
            },
            1 => PlanKind::Event {
                range: take_u64(&mut pos, "range")?,
                slide: take_u64(&mut pos, "slide")?,
                lateness: take_u64(&mut pos, "lateness")?,
            },
            other => return Err(format!("unknown snapshot kind {other}")),
        };
        match ALGORITHMS.get(algo_tag as usize) {
            Some(algo) => plan.check_algorithm(algo)?,
            None => return Err(format!("unknown algorithm tag {algo_tag}")),
        }
        let shards = take_u64(&mut pos, "shards")? as usize;
        let watermark = take_u64(&mut pos, "watermark")?;
        let nkeys = take_u64(&mut pos, "key count")?;
        // A key block is at least 32 bytes; reject impossible counts
        // before reserving anything.
        if nkeys > (body.len() as u64) / 32 + 1 {
            return Err(format!(
                "snapshot claims {nkeys} keys in {} bytes",
                body.len()
            ));
        }
        let mut keys = Vec::with_capacity(nkeys as usize);
        let mut seen = HashSet::with_capacity(nkeys as usize);
        for i in 0..nkeys {
            let key = take_u64(&mut pos, "key")?;
            // Restore keeps one state per key: a second block for the
            // same key would silently replace the first.
            if !seen.insert(key) {
                return Err(format!("snapshot names key {key} twice"));
            }
            let nwords = take_u64(&mut pos, "word count")?;
            if nwords > (body.len() as u64) / 8 {
                return Err(format!("snapshot key {i}: impossible word count {nwords}"));
            }
            let mut words = Vec::with_capacity(nwords as usize);
            for _ in 0..nwords {
                words.push(take_u64(&mut pos, "state word")?);
            }
            let partial_count = take_u64(&mut pos, "partial count")?;
            let blob_len = take_u64(&mut pos, "partial byte length")? as usize;
            let partial_bytes = take(&mut pos, blob_len, "partial bytes")?.to_vec();
            keys.push(KeyState {
                key,
                words,
                partial_count,
                partial_bytes,
            });
        }
        if pos != body.len() {
            return Err(format!(
                "snapshot has {} trailing bytes after the last key block",
                body.len() - pos
            ));
        }
        let spec = PipelineSpec {
            name,
            op,
            plan,
            shards: shards.max(1),
            batch: 256,
            // SLOs are control-plane state and deliberately not part of
            // the snapshot format; a restored pipeline starts without one.
            slo: None,
        };
        spec.validate()
            .map_err(|e| format!("snapshot spec invalid: {e}"))?;
        Ok(Snapshot {
            spec,
            watermark,
            keys,
        })
    }
}

/// The snapshot path for a pipeline name under `dir`.
pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.swag"))
}

/// Write `snap` to `dir/<name>.swag` atomically and durably: a synced
/// temp file, a rename, then a synced directory.
pub fn write_snapshot(dir: &Path, snap: &Snapshot) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = snapshot_path(dir, &snap.spec.name);
    let tmp = dir.join(format!(".{}.swag.tmp", snap.spec.name));
    let bytes = snap.encode();
    let mut f = fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    f.write_all(&bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| format!("rename to {}: {e}", path.display()))?;
    // The rename is durable only once the directory entry is.
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("sync {}: {e}", dir.display()))?;
    Ok(path)
}

/// Read and decode `dir/<name>.swag`. An invalid pipeline name is refused
/// before the filesystem is touched, so no name reaches outside `dir`.
pub fn read_snapshot(dir: &Path, name: &str) -> Result<Snapshot, String> {
    check_name(name)?;
    let path = snapshot_path(dir, name);
    let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Snapshot::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::ops::{MaxF64, Sum};

    /// Full `encode` bytes of a small count and a small event snapshot as
    /// written by earlier builds, where the algorithm was a spec field.
    const COUNT_GOLDEN: &str = "\
        53574147010000000400626964730400000000000000020000000000000000000000000000000100\
        00000000000007000000000000000200000000000000010000000000000002000000000000000100\
        0000000000000800000000000000000000000000f83f53c54d9ccdc18dd0";
    const EVENT_GOLDEN: &str = "\
        5357414701010407040068696768640000000000000032000000000000000a000000000000000200\
        000000000000d2040000000000000100000000000000030000000000000001000000000000000500\
        0000000000000100000000000000080000000000000000000000000000c0570382a76c1a989b";

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn sample() -> Snapshot {
        let op = Sum::<f64>::new();
        Snapshot {
            spec: PipelineSpec {
                name: "bids".into(),
                op: OpKind::Sum,
                plan: PlanKind::Count { window: 4 },
                shards: 2,
                batch: 256,
                slo: None,
            },
            watermark: 0,
            keys: vec![
                KeyState::encode(7, vec![1, 2], &[1.5, -0.0, f64::NAN], &op),
                KeyState::encode(u64::MAX, vec![], &[], &op),
            ],
        }
    }

    #[test]
    fn byte_round_trip() {
        let snap = sample();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.spec.name, "bids");
        assert_eq!(back.spec.plan, PlanKind::Count { window: 4 });
        assert_eq!(back.keys, snap.keys);
        let vals = back.keys[0].decode_partials(&Sum::<f64>::new()).unwrap();
        assert_eq!(vals[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(vals[1].to_bits(), (-0.0f64).to_bits());
        assert!(vals[2].is_nan());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "flipping byte {i} must fail the checksum"
            );
        }
    }

    /// Snapshots written by earlier builds must keep restoring: with the
    /// algorithm byte derived from the plan kind, the same snapshots still
    /// encode and decode byte for byte.
    #[test]
    fn header_goldens_encode_and_decode() {
        let mut count = sample();
        count.keys = vec![KeyState::encode(7, vec![1, 2], &[1.5], &Sum::<f64>::new())];
        let mut event = sample();
        event.spec.name = "high".into();
        event.spec.op = OpKind::Max;
        event.spec.plan = PlanKind::Event {
            range: 100,
            slide: 50,
            lateness: 10,
        };
        event.watermark = 1234;
        event.keys = vec![KeyState::encode(3, vec![5], &[-2.0], &MaxF64::new())];
        for (snap, golden) in [(count, COUNT_GOLDEN), (event, EVENT_GOLDEN)] {
            assert_eq!(snap.encode(), unhex(golden), "{} encodes", snap.spec.name);
            let back = Snapshot::decode(&unhex(golden)).unwrap();
            assert_eq!(back.spec, snap.spec);
            assert_eq!((back.watermark, back.keys), (snap.watermark, snap.keys));
        }
    }

    #[test]
    fn reserved_algorithm_tags_are_refused() {
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 8);
        bytes[7] = 3; // the algo byte, after magic, version, kind and op
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(err.contains("\"bint\""), "{err}");
        assert!(err.contains("serves only slickdeque"), "{err}");
    }

    /// Restore validates the spec a snapshot carries as create does: a
    /// count window past the bound is refused before any state is built.
    #[test]
    fn an_oversized_count_window_is_refused() {
        let mut snap = sample();
        snap.spec.plan = PlanKind::Count {
            window: PlanKind::MAX_COUNT_WINDOW + 1,
        };
        let err = Snapshot::decode(&snap.encode()).unwrap_err();
        assert!(err.contains("exceeds the largest count window"), "{err}");
        snap.spec.plan = PlanKind::Count {
            window: PlanKind::MAX_COUNT_WINDOW,
        };
        assert!(Snapshot::decode(&snap.encode()).is_ok());
    }

    /// A snapshot that repeats a key block is refused by name: restore
    /// keeps one state per key, so one of the two would be lost.
    #[test]
    fn a_key_named_twice_is_refused() {
        let mut snap = sample();
        snap.keys.truncate(1);
        let captured = snap.encode();
        snap.keys.clear();
        let header_len = snap.encode().len() - 8;
        let block = &captured[header_len..captured.len() - 8];
        // The captured snapshot with its one key block repeated, the key
        // count raised to match and the checksum recomputed.
        let mut bytes = captured[..header_len].to_vec();
        bytes[header_len - 8..].copy_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(block);
        bytes.extend_from_slice(block);
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(err.contains("key 7 twice"), "{err}");
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("swag-snap-test-{}", std::process::id()));
        let snap = sample();
        let path = write_snapshot(&dir, &snap).unwrap();
        assert_eq!(path, snapshot_path(&dir, "bids"));
        let back = read_snapshot(&dir, "bids").unwrap();
        assert_eq!(back.keys, snap.keys);
        assert!(
            !dir.join(".bids.swag.tmp").exists(),
            "temp file renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
