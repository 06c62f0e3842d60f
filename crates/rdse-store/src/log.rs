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
//! 4       2     version (u16, big-endian) = 1
//! 6       2     record kind (u16, big-endian) = 1 (result)
//! 8       4     body length (u32, big-endian)
//! 12      8     body checksum (FNV-1a 64 of the body, big-endian)
//! 20      n     body: one UTF-8 JSON record
//! ```
//!
//! [`scan`] replays a log byte slice and **never panics**: a truncated
//! or corrupt tail — short header, bad magic, short body, checksum
//! mismatch, malformed JSON — ends the replay at the last good record
//! and is reported as a [`TailIssue`] naming the offset and cause.

use crate::record::{ArchivedRecord, StoreRecord};
use serde::{Deserialize, Serialize};

/// The log's magic bytes ("RDSE Archive").
pub const MAGIC: [u8; 4] = *b"RDSA";
/// Current log format version.
pub const LOG_VERSION: u16 = 1;
/// Record kind: a completed exploration result.
pub const KIND_RESULT: u16 = 1;
/// Bytes before each record body.
pub const RECORD_HEADER_LEN: usize = 20;

/// FNV-1a 64 over `bytes` — the body checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    out.extend_from_slice(&fnv1a64(body).to_be_bytes());
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

/// The outcome of replaying a log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records replayed successfully.
    pub records: usize,
    /// Bytes of intact log consumed (the safe truncation point).
    pub bytes: u64,
    /// The torn/corrupt tail that ended the replay early, if any.
    pub tail: Option<TailIssue>,
    /// Set when the replay stopped on a record written by a newer log
    /// format: the bytes from `tail.offset` on are not damage, and
    /// must not be truncated away.
    pub newer_version: Option<u16>,
}

/// Replays every intact record in `bytes`, invoking `on_record` per
/// record in append order. Replay tolerates a damaged tail (reported,
/// never a panic): whatever follows the last intact record is skipped.
pub fn scan(bytes: &[u8], mut on_record: impl FnMut(StoreRecord)) -> ReplayReport {
    let mut report = ReplayReport::default();
    let mut pos = 0usize;
    let stop = |pos: usize, reason: String| TailIssue {
        offset: pos as u64,
        reason,
    };
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < RECORD_HEADER_LEN {
            report.tail = Some(stop(
                pos,
                format!(
                    "truncated header ({} of {RECORD_HEADER_LEN} bytes)",
                    rest.len()
                ),
            ));
            break;
        }
        if rest[0..4] != MAGIC {
            report.tail = Some(stop(pos, "bad record magic".into()));
            break;
        }
        let version = u16::from_be_bytes([rest[4], rest[5]]);
        if version != LOG_VERSION {
            if version > LOG_VERSION {
                report.newer_version = Some(version);
            }
            report.tail = Some(stop(
                pos,
                format!("unsupported log version {version} (expected {LOG_VERSION})"),
            ));
            break;
        }
        let kind = u16::from_be_bytes([rest[6], rest[7]]);
        if kind != KIND_RESULT {
            report.tail = Some(stop(pos, format!("unknown record kind {kind}")));
            break;
        }
        let body_len = u32::from_be_bytes([rest[8], rest[9], rest[10], rest[11]]) as usize;
        let checksum = u64::from_be_bytes(rest[12..20].try_into().expect("8 header bytes"));
        let Some(body) = rest.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + body_len) else {
            report.tail = Some(stop(
                pos,
                format!(
                    "truncated body ({} of {body_len} bytes)",
                    rest.len() - RECORD_HEADER_LEN
                ),
            ));
            break;
        };
        let actual = fnv1a64(body);
        if actual != checksum {
            report.tail = Some(stop(
                pos,
                format!("body checksum mismatch (stored {checksum:016x}, computed {actual:016x})"),
            ));
            break;
        }
        let record = std::str::from_utf8(body)
            .ok()
            .and_then(|text| serde_json::from_str::<serde::Value>(text).ok())
            .and_then(|value| StoreRecord::from_value(&value).ok());
        let Some(record) = record else {
            report.tail = Some(stop(pos, "checksummed body is not a valid record".into()));
            break;
        };
        on_record(record);
        report.records += 1;
        pos += RECORD_HEADER_LEN + body_len;
        report.bytes = pos as u64;
    }
    report
}
