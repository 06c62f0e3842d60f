//! Store-level compaction: the report counts every logged record
//! (replayed and appended) without re-reading the log, the rewritten
//! file is exactly one `encode_record` frame per surviving original
//! record in key order, and reopening it rebuilds the same archive.
//! Damaged spans replay skipped are dropped by the rewrite and counted.

use rdse_store::log::encode_record;
use rdse_store::{ArchivedRecord, CostBits, KeySpec, ResultStore, StoreRecord, SyncPolicy};
use serde::Value;
use std::path::Path;

/// A record whose mapping has the shape of a real one (nested maps and
/// sequences of indices) plus a string needing escapes, so re-encoding
/// the archived text is exercised beyond plain digits.
fn record(seed: u64, makespan: f64) -> StoreRecord {
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
    let placement = (0..20)
        .map(|t| match (t + seed) % 3 {
            0 => Value::Map(vec![(
                "Software".into(),
                Value::Map(vec![("processor".into(), Value::I64(0))]),
            )]),
            1 => Value::Map(vec![(
                "Hardware".into(),
                Value::Map(vec![
                    ("drlc".into(), Value::I64(0)),
                    ("context".into(), Value::I64((t % 4) as i64)),
                    ("impl_idx".into(), Value::I64(1)),
                ]),
            )]),
            _ => Value::Str("Asic \"0\"\té".into()),
        })
        .collect();
    StoreRecord {
        key: spec.key(),
        pair: spec.pair(),
        objective: "makespan".into(),
        seed,
        chains: 4,
        iters: 3000,
        warmup: 600,
        exchange_every: 250,
        winner: seed % 4,
        iterations: 3000,
        contexts: 3,
        hw_tasks: 7,
        clb_area: 950,
        makespan_bits: makespan.to_bits(),
        best: CostBits::from_values(makespan, 950.0, 12.5, 3.0),
        front: vec![
            CostBits::from_values(makespan, 950.0, 12.5, 3.0),
            CostBits::from_values(makespan + 0.1, 600.0, 8.0, 2.0),
        ],
        mapping: Value::Map(vec![
            ("placement".into(), Value::Seq(placement)),
            (
                "proc_orders".into(),
                Value::Seq(vec![Value::Seq((0..7).map(Value::I64).collect())]),
            ),
        ]),
    }
}

fn archived(store: &ResultStore) -> Vec<ArchivedRecord> {
    store.archive().records().cloned().collect()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("log exists").len()
}

#[test]
fn compaction_counts_logged_records_and_rewrites_the_originals_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("rdse_store_compact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("results.aof");
    std::fs::remove_file(&path).ok();

    // Five appends over three keys; seeds 1 and 2 are superseded.
    let appended = [
        record(1, 101.5),
        record(2, 102.25),
        record(1, 99.75),
        record(3, 103.125),
        record(2, 98.0),
    ];
    let mut store = ResultStore::open(&path, SyncPolicy::Never).expect("open");
    for r in &appended {
        store.append(r.clone()).expect("append");
    }
    drop(store);

    // Reopen: five replayed records, then one more append.
    let mut store = ResultStore::open(&path, SyncPolicy::Never).expect("reopen");
    assert_eq!(store.replay_report().records, 5);
    let late = record(4, 104.0);
    store.append(late.clone()).expect("append after reopen");
    let bytes_before = file_len(&path);

    let report = store.compact().expect("compact");
    assert_eq!(report.records_before, 6);
    assert_eq!(report.records_after, 4);
    assert_eq!(report.bytes_before, bytes_before);
    assert_eq!(report.bytes_after, file_len(&path));
    assert!(report.bytes_after < report.bytes_before);

    // The latest original per key, in key order, encoded by the plain
    // `StoreRecord` path: the text-held mappings must re-encode to
    // exactly those bytes.
    let mut survivors = [
        appended[2].clone(),
        appended[4].clone(),
        appended[3].clone(),
        late,
    ];
    survivors.sort_by_key(|r| r.key);
    let expected: Vec<u8> = survivors.iter().flat_map(encode_record).collect();
    let on_disk = std::fs::read(&path).expect("read compacted log");
    assert!(
        on_disk == expected,
        "compacted log differs from the originals' frames"
    );

    // Appends after a compaction are counted from the compacted size.
    store
        .append(record(3, 97.5))
        .expect("append after compaction");
    let before = archived(&store);
    let again = store.compact().expect("second compaction");
    assert_eq!((again.records_before, again.records_after), (5, 4));
    drop(store);

    // Reopening the compacted log rebuilds the same archive.
    let reopened = ResultStore::open(&path, SyncPolicy::Never).expect("open compacted");
    assert_eq!(reopened.replay_report().records, 4);
    assert!(reopened.replay_report().tail.is_none());
    assert_eq!(archived(&reopened), before);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compacting_right_after_open_counts_the_replayed_records() {
    let dir = std::env::temp_dir().join(format!("rdse_store_recount_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("results.aof");
    let log: Vec<u8> = [record(1, 90.0), record(1, 80.0), record(2, 85.0)]
        .iter()
        .flat_map(encode_record)
        .collect();
    std::fs::write(&path, &log).expect("write log");

    let mut store = ResultStore::open(&path, SyncPolicy::Never).expect("open");
    let before = archived(&store);
    let report = store.compact().expect("compact");
    assert_eq!((report.records_before, report.records_after), (3, 2));
    assert_eq!(report.bytes_before, log.len() as u64);
    drop(store);

    let reopened = ResultStore::open(&path, SyncPolicy::Never).expect("reopen");
    assert_eq!(archived(&reopened), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_drops_a_damaged_span_and_counts_it() {
    let dir = std::env::temp_dir().join(format!("rdse_store_span_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("results.aof");
    let records = [record(1, 90.0), record(2, 85.0), record(3, 80.0)];
    let mut log: Vec<u8> = records.iter().flat_map(encode_record).collect();
    // Damage the middle record's body: records 1 and 3 stay intact.
    let first_len = encode_record(&records[0]).len();
    log[first_len + 40] ^= 0x5a;
    std::fs::write(&path, &log).expect("write log");

    let mut store = ResultStore::open(&path, SyncPolicy::Never).expect("open");
    assert_eq!(store.archive().len(), 2);
    assert_eq!(store.replay_report().skipped.len(), 1);
    assert_eq!(store.replay_report().skipped[0].offset, first_len as u64);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), log.len() as u64);
    let report = store.compact().expect("compact");
    assert_eq!(report.spans_dropped, 1);
    assert_eq!((report.records_before, report.records_after), (2, 2));
    // A second pass has nothing left to drop.
    assert_eq!(store.compact().expect("compact again").spans_dropped, 0);
    drop(store);

    let reopened = ResultStore::open(&path, SyncPolicy::Never).expect("reopen");
    assert!(reopened.replay_report().is_clean());
    let expected: Vec<u8> = {
        let mut kept = [&records[0], &records[2]];
        kept.sort_by_key(|r| r.key);
        kept.into_iter().flat_map(encode_record).collect()
    };
    assert!(std::fs::read(&path).unwrap() == expected);
    std::fs::remove_dir_all(&dir).ok();
}
