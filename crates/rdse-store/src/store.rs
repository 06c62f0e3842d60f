//! The store itself: an AOF on disk plus the replayed [`Archive`].
//!
//! [`ResultStore::open`] replays the log (resyncing past mid-log damage,
//! tolerating a torn tail), rebuilds the archive and positions the file
//! at the end of the last intact record, so the next append overwrites
//! any damaged tail instead of burying it. Damaged spans between intact
//! records stay in the file until compaction drops them.
//! [`append`](ResultStore::append) writes one frame and applies the
//! [`SyncPolicy`]; [`compact`](ResultStore::compact) rewrites the log
//! keeping only the latest record per key, atomically (temp file +
//! rename).

use crate::archive::Archive;
use crate::log::{encode_archived, scan, ReplayReport, LOG_VERSION};
use crate::record::ArchivedRecord;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// When appended records are forced to stable storage.
///
/// | policy | fsync cadence | survives |
/// |--------|---------------|----------|
/// | `Always` | every append | power loss up to the last append |
/// | `Interval(n)` | every `n` appends (and on drop) | power loss up to the last sync; process crash up to the last append |
/// | `Never` | only on drop | process crash up to the last append |
///
/// All policies *write* on every append — they differ only in when
/// `fsync` is paid, which the `ratios` bench's `store_sync` rows
/// measure. Torn-write recovery makes the relaxed policies safe: a
/// partial tail is skipped on replay, never fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append.
    Always,
    /// `fsync` after every `n` appends (`Interval(1)` ≡ `Always`).
    Interval(u32),
    /// Leave syncing to the OS (and the final flush on drop).
    Never,
}

impl SyncPolicy {
    /// Parses the CLI form: `always`, `interval:N` (N ≥ 1) or `never`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(SyncPolicy::Always),
            "never" => Some(SyncPolicy::Never),
            other => {
                let n: u32 = other.strip_prefix("interval:")?.parse().ok()?;
                (n >= 1).then_some(SyncPolicy::Interval(n))
            }
        }
    }

    /// The canonical CLI form.
    pub fn describe(&self) -> String {
        match self {
            SyncPolicy::Always => "always".into(),
            SyncPolicy::Interval(n) => format!("interval:{n}"),
            SyncPolicy::Never => "never".into(),
        }
    }
}

/// Outcome of one [`ResultStore::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Records in the log before compaction (including superseded
    /// duplicates; damaged spans and a damaged tail count zero).
    pub records_before: usize,
    /// Records after (one per unique key).
    pub records_after: usize,
    /// Log bytes before.
    pub bytes_before: u64,
    /// Log bytes after.
    pub bytes_after: u64,
    /// Damaged spans between intact records that the old log still
    /// carried (see [`ReplayReport::skipped`]) and the rewrite dropped.
    pub spans_dropped: usize,
}

/// A result store: the replayed in-memory [`Archive`] plus (unless
/// in-memory only) the append-only log backing it.
#[derive(Debug)]
pub struct ResultStore {
    path: Option<PathBuf>,
    file: Option<File>,
    sync: SyncPolicy,
    unsynced: u32,
    archive: Archive,
    replay: ReplayReport,
    /// Records in the log file, duplicates included: those replayed
    /// (or rewritten by the last compaction) plus those appended since.
    logged: usize,
    /// Damaged spans still in the log file: those replay skipped, until
    /// a compaction drops them.
    spans: usize,
}

impl ResultStore {
    /// Opens (creating if absent) the log at `path`, replays it and
    /// rebuilds the archive. Damage is skipped and reported via
    /// [`replay_report`](Self::replay_report): spans between intact
    /// records are left in place (never an intact record truncated
    /// away), and the file is cut back to the end of the last intact
    /// record so the next append reclaims a damaged tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of opening, reading or seeking the log.
    /// A log holding a record from a newer format version fails with
    /// [`io::ErrorKind::InvalidData`] and is left untouched.
    pub fn open(path: impl Into<PathBuf>, sync: SyncPolicy) -> io::Result<Self> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let bytes = {
            let mut buf = Vec::new();
            io::Read::read_to_end(&mut file, &mut buf)?;
            buf
        };
        let mut archive = Archive::new();
        let replay = scan(&bytes, |record| archive.insert(record));
        if let Some((offset, version)) = replay.newer_version {
            // A downgrade, not damage: truncating would delete every
            // record from the newer writer onwards.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record at byte {offset} has log version {version}, newer than the \
                     supported {LOG_VERSION}; refusing to open"
                ),
            ));
        }
        file.seek(SeekFrom::Start(replay.bytes))?;
        file.set_len(replay.bytes)?;
        Ok(ResultStore {
            path: Some(path),
            file: Some(file),
            sync,
            unsynced: 0,
            archive,
            logged: replay.records,
            spans: replay.skipped.len(),
            replay,
        })
    }

    /// A store with no backing file — archive-only mode, for tests and
    /// benches.
    pub fn in_memory(sync: SyncPolicy) -> Self {
        ResultStore {
            path: None,
            file: None,
            sync,
            unsynced: 0,
            archive: Archive::new(),
            replay: ReplayReport::default(),
            logged: 0,
            spans: 0,
        }
    }

    /// The backing log path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The replayed archive.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// What [`open`](Self::open) found (record count, intact bytes,
    /// skipped spans, damaged tail).
    pub fn replay_report(&self) -> &ReplayReport {
        &self.replay
    }

    /// Appends one record to the log (honoring the sync policy) and
    /// inserts it into the archive. The frame is byte-identical to
    /// [`encode_record`](crate::log::encode_record) of the
    /// [`StoreRecord`](crate::StoreRecord) it came from.
    ///
    /// # Errors
    ///
    /// Propagates write/sync errors; the archive is only updated after
    /// the frame is written.
    pub fn append(&mut self, record: impl Into<ArchivedRecord>) -> io::Result<()> {
        let record = record.into();
        if let Some(file) = &mut self.file {
            file.write_all(&encode_archived(&record))?;
            self.logged += 1;
            match self.sync {
                SyncPolicy::Always => file.sync_data()?,
                SyncPolicy::Interval(n) => {
                    self.unsynced += 1;
                    if self.unsynced >= n {
                        file.sync_data()?;
                        self.unsynced = 0;
                    }
                }
                SyncPolicy::Never => {}
            }
        }
        self.archive.insert(record);
        Ok(())
    }

    /// Forces any unsynced appends to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the `fsync` error.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(file) = &mut self.file {
            file.sync_data()?;
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Rewrites the log keeping exactly one (the latest) record per
    /// key, in ascending key order, via a temp file renamed over the
    /// original — a crash mid-compaction leaves either the old or the
    /// new log, never a mix. Every record is written in the current
    /// format, so compaction upgrades version 1 frames to version 2.
    /// Damaged spans replay skipped are not rewritten; the report
    /// counts them.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the original log is untouched on error.
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        let Some(path) = self.path.clone() else {
            let n = self.archive.len();
            return Ok(CompactReport {
                records_before: n,
                records_after: n,
                bytes_before: 0,
                bytes_after: 0,
                spans_dropped: 0,
            });
        };
        let bytes_before = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

        let tmp = path.with_extension("compact.tmp");
        let mut out = File::create(&tmp)?;
        for record in self.archive.records() {
            out.write_all(&encode_archived(record))?;
        }
        out.sync_data()?;
        let bytes_after = out.metadata()?.len();
        drop(out);
        std::fs::rename(&tmp, &path)?;

        // Reopen the handle on the new inode, positioned at the end.
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = Some(file);
        self.unsynced = 0;
        let records_before = std::mem::replace(&mut self.logged, self.archive.len());
        Ok(CompactReport {
            records_before,
            records_after: self.archive.len(),
            bytes_before,
            bytes_after,
            spans_dropped: std::mem::take(&mut self.spans),
        })
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        if let Some(file) = &mut self.file {
            let _ = file.sync_data();
        }
    }
}

/// Read-only integrity scan of a log file: replays without building an
/// archive and reports `(replay, file_len)` — a clean log has
/// `replay.bytes == file_len`, no skipped span and no tail issue.
///
/// # Errors
///
/// Propagates the error of reading the file.
pub fn verify(path: impl AsRef<Path>) -> io::Result<(ReplayReport, u64)> {
    let bytes = std::fs::read(path)?;
    let report = scan(&bytes, |_| {});
    Ok((report, bytes.len() as u64))
}
