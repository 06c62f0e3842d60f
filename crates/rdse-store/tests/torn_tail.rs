//! Torn-write recovery: a log truncated at **every** byte offset of
//! its last record — header, checksum, body — replays the intact
//! prefix, reports the tail, and never panics. Same for a checksum
//! flip at every byte of the last record. Damage to the *first* record
//! loses nothing after it: replay resyncs to the next intact frame,
//! reports the skipped span, and opening the log truncates nothing. A
//! record from a newer log version is not a tear: opening such a log
//! fails and truncates nothing.

use rdse_store::log::{encode_record, scan, LOG_VERSION, RECORD_HEADER_LEN};
use rdse_store::{CostBits, KeySpec, ResultStore, StoreRecord, SyncPolicy};
use serde::Value;

fn record(seed: u64) -> StoreRecord {
    let app = format!(r#"{{"tasks":[{seed}]}}"#);
    let spec = KeySpec {
        app_json: &app,
        arch_json: r#"{"clbs":2000}"#,
        objective: "makespan",
        seed,
        iters: 3000,
        warmup: 600,
        chains: 4,
        exchange_every: 250,
    };
    StoreRecord {
        key: spec.key(),
        pair: spec.pair(),
        objective: "makespan".into(),
        seed,
        chains: 4,
        iters: 3000,
        warmup: 600,
        exchange_every: 250,
        winner: 1,
        iterations: 3000,
        contexts: 3,
        hw_tasks: 7,
        clb_area: 950,
        makespan_bits: (100.0 + seed as f64 / 3.0).to_bits(),
        best: CostBits::from_values(100.0 + seed as f64 / 3.0, 950.0, 12.5, 3.0),
        front: vec![
            CostBits::from_values(100.0 + seed as f64 / 3.0, 950.0, 12.5, 3.0),
            CostBits::from_values(130.0, 600.0, 8.0, 2.0),
        ],
        mapping: Value::Map(vec![("placement".into(), Value::Seq(vec![Value::I64(0)]))]),
    }
}

/// A healthy two-record log plus the byte span of the second record.
fn two_record_log() -> (Vec<u8>, usize) {
    let mut log = encode_record(&record(1));
    let first_len = log.len();
    log.extend_from_slice(&encode_record(&record(2)));
    (log, first_len)
}

#[test]
fn truncation_at_every_byte_of_the_last_record_replays_the_prefix() {
    let (log, first_len) = two_record_log();
    // Sanity: the intact log replays both records cleanly.
    let clean = scan(&log, |_| {});
    assert_eq!(clean.records, 2);
    assert_eq!(clean.bytes, log.len() as u64);
    assert!(clean.tail.is_none());

    // Truncating exactly at the record boundary is not a tear: the
    // prefix is simply a shorter, clean log.
    let boundary = scan(&log[..first_len], |_| {});
    assert_eq!(boundary.records, 1);
    assert!(boundary.tail.is_none());

    for cut in first_len + 1..log.len() {
        let mut replayed = Vec::new();
        let report = scan(&log[..cut], |r| replayed.push(r.seed));
        assert_eq!(replayed, vec![1], "cut at {cut}: prefix record lost");
        assert_eq!(report.records, 1, "cut at {cut}");
        assert_eq!(
            report.bytes, first_len as u64,
            "cut at {cut}: wrong truncation point"
        );
        let tail = report.tail.expect("torn tail must be reported");
        assert_eq!(tail.offset, first_len as u64, "cut at {cut}");
        assert!(
            tail.reason.contains("truncated"),
            "cut at {cut}: unexpected reason '{}'",
            tail.reason
        );
    }
}

#[test]
fn corruption_at_every_byte_of_the_last_record_replays_the_prefix() {
    let (log, first_len) = two_record_log();
    for flip in first_len..log.len() {
        let mut corrupt = log.clone();
        corrupt[flip] ^= 0x5a;
        let mut replayed = Vec::new();
        let report = scan(&corrupt, |r| replayed.push(r.seed));
        // Whatever byte was damaged — magic, version, kind, length,
        // checksum or body — the first record survives and the tail is
        // reported, not panicked on. (A corrupted length field may
        // also legitimately surface as a truncated body.)
        assert_eq!(replayed, vec![1], "flip at {flip}");
        assert_eq!(report.records, 1, "flip at {flip}");
        assert!(report.tail.is_some(), "flip at {flip}: tail not reported");
    }
}

#[test]
fn corruption_at_every_byte_of_the_first_record_keeps_every_later_record() {
    let mut log = encode_record(&record(1));
    let first_len = log.len();
    log.extend_from_slice(&encode_record(&record(2)));
    log.extend_from_slice(&encode_record(&record(3)));

    let dir = std::env::temp_dir().join(format!("rdse_store_resync_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("results.aof");

    for flip in 0..first_len {
        let mut corrupt = log.clone();
        corrupt[flip] ^= 0x5a;
        let mut replayed = Vec::new();
        let report = scan(&corrupt, |r| replayed.push(r.seed));
        assert_eq!(replayed, vec![2, 3], "flip at {flip}: intact records lost");
        assert_eq!(report.records, 2, "flip at {flip}");
        assert_eq!(report.bytes, log.len() as u64, "flip at {flip}");
        assert!(report.tail.is_none(), "flip at {flip}: {:?}", report.tail);
        let [span] = report.skipped.as_slice() else {
            panic!("flip at {flip}: expected one skipped span, got {report:?}");
        };
        assert_eq!(
            (span.offset, span.len),
            (0, first_len as u64),
            "flip at {flip}: wrong span {span}"
        );
        assert!(
            !span.reason.is_empty(),
            "flip at {flip}: span without a cause"
        );

        // Opening the damaged log keeps both intact records and cuts no
        // byte. A flipped version field reads as a newer format, which
        // `open` refuses without touching the file.
        std::fs::write(&path, &corrupt).expect("write damaged log");
        match ResultStore::open(&path, SyncPolicy::Never) {
            Ok(store) => {
                assert_eq!(store.archive().len(), 2, "flip at {flip}");
                assert_eq!(store.replay_report(), &report, "flip at {flip}");
            }
            Err(e) => {
                assert!(report.newer_version.is_some(), "flip at {flip}: {e}");
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "flip at {flip}");
            }
        }
        let after = std::fs::read(&path).expect("read log");
        assert!(after == corrupt, "flip at {flip}: open modified the log");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_recovers_a_torn_file_and_reclaims_the_tail() {
    let dir = std::env::temp_dir().join(format!("rdse_store_torn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("results.aof");

    let (log, first_len) = two_record_log();
    // Simulate a crash mid-append: half the second record.
    let cut = first_len + (log.len() - first_len) / 2;
    std::fs::write(&path, &log[..cut]).expect("write torn log");

    let mut store = ResultStore::open(&path, SyncPolicy::Always).expect("open tolerates the tear");
    assert_eq!(store.archive().len(), 1);
    let report = store.replay_report().clone();
    assert_eq!(report.records, 1);
    assert!(report.tail.is_some());

    // The next append lands where the torn bytes were; a fresh replay
    // then sees two intact records and no tail.
    store.append(record(3)).expect("append after recovery");
    drop(store);
    let reopened = ResultStore::open(&path, SyncPolicy::Always).expect("reopen");
    assert_eq!(reopened.archive().len(), 2);
    assert!(reopened.replay_report().tail.is_none());
    assert!(reopened.archive().exact(&record(3).key).is_some());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_refuses_a_newer_version_record_and_leaves_the_file_alone() {
    let dir = std::env::temp_dir().join(format!("rdse_store_newer_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("results.aof");

    // Three records; the second claims the next, newer format.
    let newer = LOG_VERSION + 1;
    let mut log = encode_record(&record(1));
    let second = log.len();
    log.extend_from_slice(&encode_record(&record(2)));
    log.extend_from_slice(&encode_record(&record(3)));
    log[second + 4..second + 6].copy_from_slice(&newer.to_be_bytes());
    std::fs::write(&path, &log).expect("write log");

    let err = ResultStore::open(&path, SyncPolicy::Always).expect_err("newer version must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains(&format!("version {newer}")),
        "error must name the version: {err}"
    );
    let after = std::fs::read(&path).expect("read log");
    assert!(after == log, "open must not modify a newer-version log");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn header_sanity_constants_hold() {
    // The framing contract documented in the crate: header length and
    // a frame's total size.
    let frame = encode_record(&record(1));
    assert!(frame.len() > RECORD_HEADER_LEN);
    assert_eq!(&frame[0..4], b"RDSA");
}
