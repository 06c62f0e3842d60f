//! The append-only log: length-prefixed, checksummed record frames.
//!
//! The framing follows the serve protocol's discipline (magic,
//! big-endian version/kind/length header, length checked before the
//! body is touched) and adds what a file needs that a socket does not:
//! a body checksum, because a crash mid-append leaves a torn tail
//! behind instead of a broken connection.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "RDSA"
//! 4       2     version (u16, big-endian) = 2
//! 6       2     record kind (u16, big-endian) = 1 (result)
//! 8       4     body length (u32, big-endian)
//! 12      8     body checksum (XXH64 of the body, seed 0, big-endian)
//! 20      n     body: one UTF-8 JSON record
//! ```
//!
//! Version 1 frames differ only in the checksum: FNV-1a 64 of the body
//! ([`fnv1a64`]), one serial multiply per byte. Every writer emits
//! version 2 ([`xxh64`], four independent lanes over 32-byte stripes),
//! but replay still reads version 1 frames, so an older log (or one
//! mixing both versions) opens with no migration step, and
//! [`ResultStore::compact`](crate::ResultStore::compact) rewrites it as
//! version 2 only.
//!
//! [`scan`] replays a log byte slice and **never panics**. A frame that
//! cannot be replayed — short header, bad magic, short body, checksum
//! mismatch, malformed JSON — is handled by what follows it:
//!
//! - **Mid-log damage.** Replay resyncs to the next `RDSA` magic whose
//!   frame checksums and decodes, and reports the bytes it passed over
//!   as a [`SkippedSpan`] (offset, length, cause). No intact record
//!   after the damage is lost.
//! - **Damaged tail.** When no intact frame follows — typically a torn
//!   final frame left by a crash mid-append — replay ends at the last
//!   intact record and reports a [`TailIssue`]. That is the only part of
//!   a log [`ResultStore::open`](crate::ResultStore::open) truncates.
//!
//! Bodies are decoded by [`ArchivedRecord::from_body`] in one pass that
//! builds no `Value` tree: head fields go straight into the record, and
//! the mapping stays the text it was written as.

use crate::record::{ArchivedRecord, StoreRecord};
use serde::Serialize;

/// The log's magic bytes ("RDSE Archive").
pub const MAGIC: [u8; 4] = *b"RDSA";
/// Current log format version: the one every writer emits and the
/// newest replay reads.
pub const LOG_VERSION: u16 = 2;
/// The first log format version, whose bodies are checksummed with
/// [`fnv1a64`]. No writer emits it any more; replay still reads it.
pub const FNV_LOG_VERSION: u16 = 1;
/// Record kind: a completed exploration result.
pub const KIND_RESULT: u16 = 1;
/// Bytes before each record body.
pub const RECORD_HEADER_LEN: usize = 20;

/// FNV-1a 64 over `bytes` — the body checksum of version 1 frames,
/// which replay still reads.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    #[cfg(rdse_fault = "store_checksum_skips_last")]
    let bytes = &bytes[..bytes.len().saturating_sub(1)];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// XXH64 with seed 0 over `bytes` — the body checksum of version 2
/// frames. Bodies of 32 bytes or more run four independent
/// multiply-rotate lanes over 32-byte stripes, so the CPU overlaps them
/// instead of waiting on one multiply per byte as [`fnv1a64`] does.
pub fn xxh64(bytes: &[u8]) -> u64 {
    #[cfg(rdse_fault = "store_xxh64_skips_last")]
    let bytes = &bytes[..bytes.len().saturating_sub(1)];
    let (stripes, mut rest) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        XXH_P5
    } else {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in stripes {
            v[0] = xxh_round(v[0], le64(&stripe[0..]));
            v[1] = xxh_round(v[1], le64(&stripe[8..]));
            v[2] = xxh_round(v[2], le64(&stripe[16..]));
            v[3] = xxh_round(v[3], le64(&stripe[24..]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    };
    h = h.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        h ^= xxh_round(0, le64(rest));
        h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h ^= u64::from(word).wrapping_mul(XXH_P1);
        h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(XXH_P5);
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// Encodes one record as a complete frame (header + JSON body).
pub fn encode_record(record: &StoreRecord) -> Vec<u8> {
    let body =
        serde_json::to_string(&record.to_value()).expect("Value serialization is infallible");
    frame(&body)
}

/// Encodes one archived record as a complete frame, byte-identical to
/// [`encode_record`] of its [`to_record`](ArchivedRecord::to_record)
/// but without parsing the mapping text.
pub fn encode_archived(record: &ArchivedRecord) -> Vec<u8> {
    frame(&record.body())
}

fn frame(body: &str) -> Vec<u8> {
    let body = body.as_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&LOG_VERSION.to_be_bytes());
    out.extend_from_slice(&KIND_RESULT.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&xxh64(body).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// Why a replay stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailIssue {
    /// Byte offset of the first record that could not be replayed.
    pub offset: u64,
    /// Human-readable cause (truncated header, checksum mismatch, …).
    pub reason: String,
}

impl std::fmt::Display for TailIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.reason)
    }
}

/// Damaged bytes between two replayable frames, passed over by a resync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedSpan {
    /// Byte offset of the first frame that could not be replayed.
    pub offset: u64,
    /// Bytes skipped, up to the frame the replay resumed at.
    pub len: u64,
    /// Why the frame at `offset` could not be replayed.
    pub reason: String,
}

impl std::fmt::Display for SkippedSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bytes {}..{} ({} bytes): {}",
            self.offset,
            self.offset + self.len,
            self.len,
            self.reason
        )
    }
}

/// The outcome of replaying a log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records replayed successfully.
    pub records: usize,
    /// How many of those came from version 1 ([`FNV_LOG_VERSION`])
    /// frames; the rest are current. Compaction rewrites them all as
    /// version 2.
    pub v1_records: usize,
    /// End of the last intact record: the point a damaged tail is
    /// truncated back to.
    pub bytes: u64,
    /// Damaged spans between intact records, in log order.
    pub skipped: Vec<SkippedSpan>,
    /// The damaged tail after the last intact record, if any.
    pub tail: Option<TailIssue>,
    /// Offset and version of the first record written by a newer log
    /// format. Such a record is not damage: a log holding one must not
    /// be truncated or compacted by this writer.
    pub newer_version: Option<(u64, u16)>,
}

impl ReplayReport {
    /// `true` when every byte replayed: no skipped span, no tail.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty() && self.tail.is_none()
    }
}

/// Why one frame could not be replayed.
struct BadFrame {
    reason: String,
    /// The frame's version, when it is newer than [`LOG_VERSION`].
    newer_version: Option<u16>,
}

impl From<String> for BadFrame {
    fn from(reason: String) -> Self {
        BadFrame {
            reason,
            newer_version: None,
        }
    }
}

/// Decodes the frame at the start of `rest` into its record, the
/// frame's length in bytes and its format version.
fn read_frame(rest: &[u8]) -> Result<(ArchivedRecord, usize, u16), BadFrame> {
    if rest.len() < RECORD_HEADER_LEN {
        return Err(format!(
            "truncated header ({} of {RECORD_HEADER_LEN} bytes)",
            rest.len()
        )
        .into());
    }
    if rest[0..4] != MAGIC {
        return Err(String::from("bad record magic").into());
    }
    let version = u16::from_be_bytes([rest[4], rest[5]]);
    if version != LOG_VERSION && version != FNV_LOG_VERSION {
        return Err(BadFrame {
            reason: format!(
                "unsupported log version {version} (expected {FNV_LOG_VERSION} or {LOG_VERSION})"
            ),
            newer_version: (version > LOG_VERSION).then_some(version),
        });
    }
    let kind = u16::from_be_bytes([rest[6], rest[7]]);
    if kind != KIND_RESULT {
        return Err(format!("unknown record kind {kind}").into());
    }
    let body_len = u32::from_be_bytes([rest[8], rest[9], rest[10], rest[11]]) as usize;
    let checksum = u64::from_be_bytes(rest[12..20].try_into().expect("8 header bytes"));
    let Some(body) = rest.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + body_len) else {
        return Err(format!(
            "truncated body ({} of {body_len} bytes)",
            rest.len() - RECORD_HEADER_LEN
        )
        .into());
    };
    let actual = if version == LOG_VERSION {
        xxh64(body)
    } else {
        fnv1a64(body)
    };
    if actual != checksum {
        return Err(format!(
            "body checksum mismatch (stored {checksum:016x}, computed {actual:016x})"
        )
        .into());
    }
    let record = std::str::from_utf8(body)
        .ok()
        .and_then(|text| ArchivedRecord::from_body(text).ok())
        .ok_or_else(|| String::from("checksummed body is not a valid record"))?;
    Ok((record, RECORD_HEADER_LEN + body_len, version))
}

/// The offset of the first frame after `from` that replay can resume
/// at: one that decodes, or one from a newer format (which must be
/// seen, not skipped). `None` when the damage runs to the end.
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    let resumable = |at: &usize| match read_frame(&bytes[*at..]) {
        Ok(_) => true,
        Err(bad) => bad.newer_version.is_some(),
    };
    let mut candidates = (from + 1..bytes.len().saturating_sub(3))
        .filter(|&at| bytes[at..at + 4] == MAGIC)
        .filter(resumable);
    #[cfg(rdse_fault = "store_resync_skips_one")]
    candidates.next();
    candidates.next()
}

/// Replays every intact record in `bytes`, invoking `on_record` per
/// record in append order, and reports what it could not replay:
/// damaged spans it resynced past and a damaged tail. Never panics.
pub fn scan(bytes: &[u8], mut on_record: impl FnMut(ArchivedRecord)) -> ReplayReport {
    let mut report = ReplayReport::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let bad = match read_frame(&bytes[pos..]) {
            Ok((record, len, version)) => {
                on_record(record);
                report.records += 1;
                report.v1_records += usize::from(version == FNV_LOG_VERSION);
                pos += len;
                report.bytes = pos as u64;
                continue;
            }
            Err(bad) => bad,
        };
        if let Some(version) = bad.newer_version {
            report.newer_version.get_or_insert((pos as u64, version));
        }
        let Some(next) = resync(bytes, pos) else {
            report.tail = Some(TailIssue {
                offset: pos as u64,
                reason: bad.reason,
            });
            break;
        };
        report.skipped.push(SkippedSpan {
            offset: pos as u64,
            len: (next - pos) as u64,
            reason: bad.reason,
        });
        pos = next;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{PairKey, StoreKey};
    use crate::record::CostBits;
    use serde::Value;

    #[test]
    fn checksum_and_frame_bytes_are_pinned() {
        // FNV-1a 64 reference vectors (version 1 frames).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // XXH64 reference vectors (version 2 frames). The 100-byte input
        // takes the four-lane stripe path; its low 32 bits are the
        // content checksum `zstd --check` writes for the same bytes.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        let counting: Vec<u8> = (0..100).collect();
        assert_eq!(xxh64(&counting), 0x6ac1_e580_3216_6597);

        let record = StoreRecord {
            key: StoreKey([0x11; 16]),
            pair: PairKey([0x22; 16]),
            objective: "makespan".into(),
            seed: 7,
            chains: 2,
            iters: 100,
            warmup: 20,
            exchange_every: 50,
            winner: 1,
            iterations: 100,
            contexts: 1,
            hw_tasks: 2,
            clb_area: 300,
            makespan_bits: 12.5f64.to_bits(),
            best: CostBits::from_values(12.5, 300.0, 4.0, 1.0),
            front: vec![],
            mapping: Value::Seq(vec![Value::I64(0), Value::I64(1)]),
        };
        let body = concat!(
            r#"{"key":"11111111111111111111111111111111","#,
            r#""pair":"22222222222222222222222222222222","objective":"makespan","#,
            r#""seed":7,"chains":2,"iters":100,"warmup":20,"exchange_every":50,"#,
            r#""winner":1,"iterations":100,"contexts":1,"hw_tasks":2,"clb_area":300,"#,
            r#""makespan_bits":4623226492472524800,"best":{"makespan":4623226492472524800,"#,
            r#""clb_area":4643985272004935680,"reconfig":4616189618054758400,"#,
            r#""contexts":4607182418800017408},"front":[],"mapping":[0,1]}"#
        );
        let pinned = |version: &[u8; 2], checksum: u64| {
            let mut frame = b"RDSA".to_vec();
            frame.extend_from_slice(version);
            frame.extend_from_slice(b"\x00\x01");
            frame.extend_from_slice(&436u32.to_be_bytes());
            frame.extend_from_slice(&checksum.to_be_bytes());
            frame.extend_from_slice(body.as_bytes());
            frame
        };
        // Writers emit version 2 only.
        let v2 = pinned(b"\x00\x02", 0x620d_a0f0_2679_36d3);
        let frame = encode_record(&record);
        assert!(frame == v2, "{:?}", String::from_utf8_lossy(&frame));
        // A version 1 frame, as every writer emitted before version 2,
        // still replays to the same record.
        let v1 = pinned(b"\x00\x01", 0x1a84_f1f3_ebc3_0809);
        for (frame, v1_records) in [(v2, 0), (v1, 1)] {
            let mut replayed = Vec::new();
            let report = scan(&frame, |r| replayed.push(r));
            assert!(report.is_clean(), "{report:?}");
            assert_eq!((report.records, report.v1_records), (1, v1_records));
            assert_eq!(replayed, vec![ArchivedRecord::from(record.clone())]);
        }
    }
}
