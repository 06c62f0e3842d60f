//! CLI smoke tests for the multi-objective flags: malformed
//! `--objective` specs are rejected with exit code 2 and an actionable
//! message; well-formed specs run and report a Pareto front. Also covers
//! `rdse space`, the serve/submit surface, the store subcommands, a
//! stdout that closes early, and models and numeric flags that must be
//! rejected by name rather than panic or fall back to defaults. Every
//! command line is checked against its command's flag table: unknown,
//! repeated and value-less flags exit 2 before any work starts, every
//! `--help` exits 0, and README's synopsis block is `rdse --help`.

use rdse::model::{Bytes, Micros, TaskGraph};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

fn rdse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rdse"))
        .args(args)
        .output()
        .expect("rdse binary runs")
}

/// Generates the motion benchmark models once per test binary.
fn models() -> &'static (String, String) {
    static MODELS: OnceLock<(String, String)> = OnceLock::new();
    MODELS.get_or_init(|| {
        let dir: PathBuf = std::env::temp_dir().join("rdse_cli_smoke");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = rdse(&[
            "generate",
            "motion",
            "--clbs",
            "2000",
            "--dir",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "generate failed: {out:?}");
        (
            dir.join("motion-app.json").to_str().unwrap().to_owned(),
            dir.join("motion-arch.json").to_str().unwrap().to_owned(),
        )
    })
}

fn explore_with_objective(objective: &str) -> Output {
    let (app, arch) = models();
    rdse(&[
        "explore",
        "--app",
        app,
        "--arch",
        arch,
        "--iters",
        "300",
        "--warmup",
        "60",
        "--seed",
        "1",
        "--objective",
        objective,
    ])
}

#[test]
fn closed_stdout_ends_explore_quietly() {
    // `rdse explore ... | head -1` with the reader already gone: the
    // first result line hits a closed pipe.
    let (app, arch) = models();
    let mut child = Command::new(env!("CARGO_BIN_EXE_rdse"))
        .args([
            "explore", "--app", app, "--arch", arch, "--iters", "500", "--seed", "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rdse binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("rdse exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "panic on closed stdout: {stderr}"
    );
    assert_ne!(out.status.code(), Some(101), "exit status {:?}", out.status);
}

#[test]
fn malformed_objective_specs_exit_with_code_2() {
    for (spec, expect) in [
        ("bogus:1", "unknown --objective scheme"),
        ("weighted:1,2", "exactly 3 weights"),
        ("weighted:1,2,3,4", "exactly 3 weights"),
        ("weighted:1,abc,0", "is not a number"),
        ("weighted:-1,2,0", "finite non-negative"),
        ("weighted:0,0,0", "at least one positive weight"),
        ("lexi:makespan,energy", "unknown axis 'energy'"),
        ("lexi:makespan,makespan", "listed twice"),
        ("lexi:", "unknown axis"),
    ] {
        let out = explore_with_objective(spec);
        assert_eq!(
            out.status.code(),
            Some(2),
            "spec '{spec}' should exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expect),
            "spec '{spec}': stderr missing '{expect}':\n{stderr}"
        );
    }
}

#[test]
fn valid_objective_specs_run_and_report_a_front() {
    for spec in ["makespan", "weighted:1,5,0.5", "lexi:makespan,area"] {
        let out = explore_with_objective(spec);
        assert!(
            out.status.success(),
            "spec '{spec}' failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("pareto front  :"),
            "spec '{spec}': no front report:\n{stdout}"
        );
        assert!(stdout.contains("objective     :"), "{stdout}");
    }
    // The lexicographic run also names its front-selected winner.
    let out = explore_with_objective("lexi:makespan,area");
    assert!(String::from_utf8_lossy(&out.stdout).contains("lexi winner"));
}

#[test]
fn serve_and_submit_help_exit_zero() {
    for (sub, expect) in [
        ("serve", "usage: rdse serve"),
        ("submit", "usage: rdse submit"),
        ("store", "usage: rdse store"),
    ] {
        let out = rdse(&[sub, "--help"]);
        assert!(out.status.success(), "{sub} --help failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(expect), "{sub} --help:\n{stdout}");
    }
}

#[test]
fn store_usage_errors_exit_with_code_2_and_a_named_cause() {
    let cases: &[(&[&str], &str)] = &[
        (&["store"], "missing store subcommand"),
        (&["store", "prune"], "unknown store subcommand 'prune'"),
        (&["store", "stats"], "missing --path"),
        (&["store", "compact"], "missing --path"),
        (&["store", "verify"], "missing --path"),
    ];
    for (args, expect) in cases {
        let out = rdse(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{args:?}:\n{stderr}");
    }
    // A bad --store-sync spec is a serve usage error too.
    let out = rdse(&["serve", "--port", "0", "--store-sync", "sometimes"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--store-sync takes"),
        "{out:?}"
    );
}

#[test]
fn store_stats_compact_and_verify_roundtrip_on_a_real_log() {
    let dir: PathBuf = std::env::temp_dir().join(format!("rdse_cli_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cli.aof");
    let path_s = path.to_str().unwrap();

    // An empty (freshly created) log: stats and verify are clean noops.
    std::fs::write(&path, b"").expect("create empty log");
    let stats = rdse(&["store", "stats", "--path", path_s]);
    assert!(stats.status.success(), "{stats:?}");
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("raw records   : 0"), "{stdout}");
    assert!(stdout.contains("tail          : clean"), "{stdout}");

    let verify = rdse(&["store", "verify", "--path", path_s]);
    assert!(verify.status.success(), "{verify:?}");

    let compact = rdse(&["store", "compact", "--path", path_s]);
    assert!(compact.status.success(), "{compact:?}");

    // Garbage is not a panic: verify exits 1 naming the byte offset.
    std::fs::write(&path, b"not a store log at all").expect("write garbage");
    let verify = rdse(&["store", "verify", "--path", path_s]);
    assert_eq!(verify.status.code(), Some(1), "{verify:?}");
    assert!(
        String::from_utf8_lossy(&verify.stderr).contains("at byte 0"),
        "{verify:?}"
    );

    // A missing file is a runtime failure (1), not a usage error.
    let missing = dir.join("nope.aof");
    let verify = rdse(&["store", "verify", "--path", missing.to_str().unwrap()]);
    assert_eq!(verify.status.code(), Some(1), "{verify:?}");
}

#[test]
fn store_verify_names_a_damaged_span_and_stats_keeps_every_intact_record() {
    use rdse::store::{ResultStore, StoreKey, SyncPolicy};

    let dir: PathBuf = std::env::temp_dir().join(format!("rdse_cli_span_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("span.aof");
    let path_s = path.to_str().unwrap();

    // A copy of a server-written log, grown to three records by
    // re-archiving its record under two more keys.
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/rdse-serve/tests/fixtures/forkjoin_dualfpga_s3.aof");
    std::fs::copy(&fixture, &path).expect("copy fixture log");
    let first_len = std::fs::metadata(&path).expect("fixture").len();
    {
        let mut store = ResultStore::open(&path, SyncPolicy::Never).expect("open copy");
        let record = store
            .archive()
            .records()
            .next()
            .expect("one record")
            .to_record();
        for tag in [1u8, 2] {
            let mut copy = record.clone();
            copy.key = StoreKey([tag; 16]);
            store.append(copy).expect("append");
        }
    }

    // One flipped byte in the first record's body.
    let mut bytes = std::fs::read(&path).expect("read log");
    bytes[40] ^= 0x5a;
    std::fs::write(&path, &bytes).expect("write damaged log");

    let verify = rdse(&["store", "verify", "--path", path_s]);
    assert_eq!(verify.status.code(), Some(1), "{verify:?}");
    let stderr = String::from_utf8_lossy(&verify.stderr);
    assert!(
        stderr.contains(&format!("damaged span bytes 0..{first_len}")),
        "{stderr}"
    );
    assert!(stderr.contains("2 intact record(s)"), "{stderr}");

    let stats = rdse(&["store", "stats", "--path", path_s]);
    assert!(stats.status.success(), "{stats:?}");
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("raw records   : 2"), "{stdout}");
    assert!(stdout.contains("live records  : 2"), "{stdout}");
    assert!(
        stdout.contains(&format!("skipped       : bytes 0..{first_len}")),
        "{stdout}"
    );
    assert!(stdout.contains("tail          : clean"), "{stdout}");

    // Compaction drops the span and keeps both intact records.
    let compact = rdse(&["store", "compact", "--path", path_s]);
    assert!(compact.status.success(), "{compact:?}");
    assert!(
        String::from_utf8_lossy(&compact.stderr).contains("damaged span skipped"),
        "{compact:?}"
    );
    assert!(
        String::from_utf8_lossy(&compact.stdout).contains("2 -> 2 record(s)"),
        "{compact:?}"
    );
    let verify = rdse(&["store", "verify", "--path", path_s]);
    assert!(verify.status.success(), "{verify:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_mixed_v1_and_v2_log_replays_verifies_and_compacts_to_v2_only() {
    use rdse::store::log::{encode_archived, scan, FNV_LOG_VERSION, LOG_VERSION};
    use rdse::store::{ResultStore, StoreKey, SyncPolicy};

    let dir: PathBuf = std::env::temp_dir().join(format!("rdse_cli_mixed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mixed.aof");
    let path_s = path.to_str().unwrap();
    let version = |frame: &[u8]| u16::from_be_bytes([frame[4], frame[5]]);

    // The committed fixture is one version 1 frame; a store opened on
    // it appends version 2 frames after it.
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/rdse-serve/tests/fixtures/forkjoin_dualfpga_s3.aof");
    std::fs::copy(&fixture, &path).expect("copy fixture log");
    let v1_len = std::fs::metadata(&path).expect("fixture").len() as usize;
    let mut frame_ends = vec![v1_len];
    {
        let mut store = ResultStore::open(&path, SyncPolicy::Never).expect("open copy");
        let record = store
            .archive()
            .records()
            .next()
            .expect("one record")
            .clone();
        for tag in [1u8, 2] {
            let mut copy = record.to_record();
            copy.key = StoreKey([tag; 16]);
            store.append(copy).expect("append");
            frame_ends.push(frame_ends.last().unwrap() + encode_archived(&record).len());
        }
    }
    let bytes = std::fs::read(&path).expect("read log");
    assert_eq!(bytes.len(), frame_ends[2]);
    assert_eq!(version(&bytes), FNV_LOG_VERSION);
    assert_eq!(version(&bytes[v1_len..]), LOG_VERSION);
    assert_eq!(version(&bytes[frame_ends[1]..]), LOG_VERSION);

    // Every record replays, and the report tells the versions apart.
    let mut replayed = Vec::new();
    let report = scan(&bytes, |r| replayed.push(r));
    assert!(report.is_clean(), "{report:?}");
    assert_eq!((report.records, report.v1_records), (3, 1));
    let verify = rdse(&["store", "verify", "--path", path_s]);
    assert!(verify.status.success(), "{verify:?}");
    let stats = rdse(&["store", "stats", "--path", path_s]);
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("raw records   : 3"), "{stdout}");
    assert!(
        stdout.contains("v1 records    : 1 (compact to upgrade)"),
        "{stdout}"
    );

    // One flipped body byte is a damaged span in either version.
    let damaged = dir.join("damaged.aof");
    for (start, end) in [(0, v1_len), (v1_len, frame_ends[1])] {
        let mut copy = bytes.clone();
        copy[start + 40] ^= 0x5a;
        std::fs::write(&damaged, &copy).expect("write damaged log");
        let verify = rdse(&["store", "verify", "--path", damaged.to_str().unwrap()]);
        assert_eq!(verify.status.code(), Some(1), "{verify:?}");
        let stderr = String::from_utf8_lossy(&verify.stderr);
        assert!(
            stderr.contains(&format!("damaged span bytes {start}..{end}")),
            "{stderr}"
        );
        assert!(stderr.contains("2 intact record(s)"), "{stderr}");
    }

    // Compaction rewrites every record as a version 2 frame, byte for
    // byte what `encode_archived` writes for the replayed record.
    let compact = rdse(&["store", "compact", "--path", path_s]);
    assert!(compact.status.success(), "{compact:?}");
    let mut archive = rdse::store::Archive::new();
    replayed.into_iter().for_each(|r| archive.insert(r));
    let expected: Vec<u8> = archive.records().flat_map(encode_archived).collect();
    let compacted = std::fs::read(&path).expect("read compacted log");
    assert!(compacted == expected, "compacted frames differ");
    let report = scan(&compacted, |_| {});
    assert!(report.is_clean(), "{report:?}");
    assert_eq!((report.records, report.v1_records), (3, 0));
    let stats = rdse(&["store", "stats", "--path", path_s]);
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("v1 records    : 0\n"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_usage_errors_exit_with_code_2_and_a_named_cause() {
    // None of these reach the network: the address below never
    // answers, and every case is rejected client-side first.
    let base = [
        "submit",
        "--addr",
        "127.0.0.1:9",
        "--builtin",
        "motion",
        "--clbs",
        "2000",
    ];
    let cases: &[(&[&str], &str)] = &[
        (
            &["submit", "--builtin", "motion", "--clbs", "2000"],
            "missing --addr",
        ),
        (
            &["submit", "--addr", "127.0.0.1:9", "--clbs", "2000"],
            "missing application",
        ),
        (
            &["submit", "--addr", "127.0.0.1:9", "--builtin", "motion"],
            "missing architecture",
        ),
    ];
    for (args, expect) in cases {
        let out = rdse(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{args:?}:\n{stderr}");
    }
    // Malformed --objective: same grammar, same messages, same exit
    // code as the offline explore path.
    for (spec, expect) in [
        ("bogus:1", "unknown --objective scheme"),
        ("weighted:1,2", "exactly 3 weights"),
        ("lexi:makespan,energy", "unknown axis 'energy'"),
    ] {
        let mut args = base.to_vec();
        args.extend(["--objective", spec]);
        let out = rdse(&args);
        assert_eq!(out.status.code(), Some(2), "spec '{spec}': {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "spec '{spec}':\n{stderr}");
    }
    // A job whose encoded body exceeds the frame limit is refused
    // before connecting, with the client-side code as the cause.
    let mut args = base.to_vec();
    args.extend(["--max-frame-len", "32"]);
    let out = rdse(&args);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("job-too-large"),
        "{out:?}"
    );
}

#[test]
fn served_job_matches_offline_explore_bit_for_bit() {
    use std::io::BufRead;

    // The same end-to-end contract the CI smoke job enforces: a job
    // served over TCP reports the same `makespan bits` line as the
    // offline explorer on the same models, seed and chains.
    let mut server = Command::new(env!("CARGO_BIN_EXE_rdse"))
        .args(["serve", "--port", "0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    let stdout = server.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server prints its address")
        .expect("readable line");
    let addr = banner
        .strip_prefix("rdse serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    let knobs = [
        "--iters",
        "300",
        "--warmup",
        "60",
        "--seed",
        "1",
        "--chains",
        "2",
        "--exchange-every",
        "100",
    ];
    let mut submit_args = vec![
        "submit",
        "--addr",
        &addr,
        "--builtin",
        "motion",
        "--clbs",
        "2000",
        "--quiet",
    ];
    submit_args.extend(knobs);
    let served = rdse(&submit_args);
    let (app, arch) = models();
    let mut explore_args = vec!["explore", "--app", app, "--arch", arch];
    explore_args.extend(knobs);
    let offline = rdse(&explore_args);

    let shutdown = rdse(&["submit", "--addr", &addr, "--shutdown"]);
    assert!(shutdown.status.success(), "{shutdown:?}");
    assert!(server.wait().expect("server exits").success());

    assert!(served.status.success(), "{served:?}");
    assert!(offline.status.success(), "{offline:?}");
    let bits_line = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("makespan bits :"))
            .map(str::to_owned)
    };
    let served_bits = bits_line(&served).expect("served bits line");
    let offline_bits = bits_line(&offline).expect("offline bits line");
    assert_eq!(served_bits, offline_bits, "served ≠ offline");
}

#[test]
fn space_counts_motion_and_names_a_count_too_large_to_compute() {
    let (app, _) = models();
    let out = rdse(&["space", "--app", app]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("348840 total orders"),
        "{out:?}"
    );

    // Five parallel chains of 13, 13, 13, 13 and 12 tasks: few enough
    // order ideals to enumerate, but about 1.76e41 orders, more than a
    // u128 holds.
    let mut wide = TaskGraph::new("five-chains");
    for len in [13, 13, 13, 13, 12] {
        let mut prev = None;
        for _ in 0..len {
            let t = wide
                .add_task(
                    format!("t{}", wide.n_tasks()),
                    "f",
                    Micros::new(1.0),
                    vec![],
                )
                .expect("valid task");
            if let Some(p) = prev {
                wide.add_data_edge(p, t, Bytes::new(1)).expect("valid edge");
            }
            prev = Some(t);
        }
    }
    let path = std::env::temp_dir().join("rdse_cli_space_five_chains.json");
    wide.save(&path).expect("saves");
    let out = rdse(&["space", "--app", path.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("64 tasks, total-order count too large to compute exactly"),
        "{stderr}"
    );
}

/// The motion models with one top-level field of one of them replaced
/// by `value` (JSON text), written next to the originals as `name`.
fn edited_model(app_side: bool, field: &str, value: &str, name: &str) -> String {
    let (app, arch) = models();
    let source = if app_side { app } else { arch };
    let text = std::fs::read_to_string(source).expect("generated model");
    let serde_json::Value::Map(mut entries) = serde_json::from_str(&text).expect("model JSON")
    else {
        panic!("a model is a JSON object");
    };
    let slot = entries
        .iter_mut()
        .find(|(k, _)| k == field)
        .expect("field present");
    slot.1 = serde_json::from_str(value).expect("replacement JSON");
    let path = std::path::Path::new(source).with_file_name(name);
    let edited = serde_json::to_string(&serde_json::Value::Map(entries)).unwrap();
    std::fs::write(&path, edited).expect("write edited model");
    path.to_str().unwrap().to_owned()
}

/// Writes a copy of a generated model with its first `"key": <number>`
/// set to the JSON text `value`, and returns its path.
fn with_first_number(app_side: bool, key: &str, value: &str) -> String {
    let (app, arch) = models();
    let source = if app_side { app } else { arch };
    let text = std::fs::read_to_string(source).expect("generated model");
    let at = text.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    let end = at + text[at..].find([',', '\n']).expect("number ends");
    let path = std::path::Path::new(source).with_file_name(format!("{key}={value}.json"));
    std::fs::write(&path, format!("{}{value}{}", &text[..at], &text[end..])).unwrap();
    path.to_str().unwrap().to_owned()
}

/// Asserts a run failed without a panic and named `cause` on stderr.
fn assert_named_failure(out: &Output, cause: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{out:?}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(cause), "{stderr}");
}

#[test]
fn an_architecture_without_a_processor_fails_with_a_named_cause() {
    let (app, _) = models();
    let arch = edited_model(false, "processors", "[]", "no-processor-arch.json");
    let explore = ["explore", "--app", app, "--arch", &arch, "--iters", "100"];
    assert_named_failure(&rdse(&explore), "no processor");
    let portfolio = [&explore[..], &["--chains", "2"]].concat();
    assert_named_failure(&rdse(&portfolio), "no processor");
    let ga = ["ga", "--app", app, "--arch", &arch, "--generations", "2"];
    assert_named_failure(&rdse(&ga), "no processor");
}

#[test]
fn an_app_whose_edges_name_missing_tasks_fails_with_a_named_cause() {
    let (_, arch) = models();
    let app = edited_model(true, "tasks", "[]", "no-tasks-app.json");
    let explore = ["explore", "--app", &app, "--arch", arch, "--iters", "100"];
    assert_named_failure(&rdse(&explore), "unknown task");
    // The submit client loads the model before it connects.
    let submit = [
        "submit",
        "--addr",
        "127.0.0.1:9",
        "--app",
        &app,
        "--clbs",
        "2000",
    ];
    assert_named_failure(&rdse(&submit), "unknown task");
}

#[test]
fn models_with_out_of_range_numbers_fail_with_a_named_cause() {
    let (app, arch) = models();
    for (app_side, key, value, cause) in [
        (false, "n_clbs", "0", "zero CLB capacity"),
        (false, "bytes_per_micro", "0", "bus rate 0 is not"),
        (false, "bytes_per_micro", "-3", "bus rate -3 is not"),
        (
            false,
            "reconfig_time_per_clb",
            "-22.5",
            "reconfiguration time",
        ),
        (true, "sw_time", "-1.0", "invalid software time"),
        (true, "sw_time", "1e400", "invalid software time"),
        (true, "time", "-1.0", "invalid hardware time"),
    ] {
        let edited = with_first_number(app_side, key, value);
        let (app, arch) = if app_side {
            (&edited, arch)
        } else {
            (app, &edited)
        };
        let explore = ["explore", "--app", app, "--arch", arch, "--iters", "100"];
        assert_named_failure(&rdse(&explore), cause);
    }
}

#[test]
fn malformed_numeric_flags_exit_with_code_2() {
    let (app, arch) = models();
    for (flag, value) in [("--iters", "abc"), ("--seed", "-1"), ("--lambda", "x")] {
        let out = rdse(&["explore", "--app", app, "--arch", arch, flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{flag} {value}:\n{stderr}"
        );
    }
}

/// Runs `rdse` in a fresh, empty working directory and returns its
/// output and the names of the files it left there.
fn rdse_in_empty_dir(tag: &str, args: &[&str]) -> (Output, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("rdse_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_rdse"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("rdse binary runs");
    let left = std::fs::read_dir(&dir)
        .expect("temp dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    (out, left)
}

/// Asserts a rejected command line: exit 2, nothing on stdout (no
/// search started), one `error:` line naming `names`, and a pointer to
/// the command's `--help`.
fn assert_rejected(out: &Output, names: &str, help: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(errors[0].contains(names), "{stderr}");
    assert!(stderr.contains(&format!("see `{help} --help`")), "{stderr}");
}

#[test]
fn unknown_repeated_and_valueless_flags_exit_with_code_2() {
    let (app, arch) = models();
    let explore = ["explore", "--app", app, "--arch", arch, "--warmup", "10"];
    let cases: &[(&[&str], &str)] = &[
        (&["--iter", "5"], "unknown flag '--iter'"),
        (&["--sed", "3"], "unknown flag '--sed'"),
        (&["--bogus"], "unknown flag '--bogus'"),
        (&["--iters"], "--iters needs a value"),
        (
            &["--save-mapping", "--gantt"],
            "--save-mapping needs a value",
        ),
        (
            &["--seed", "1", "--seed", "2"],
            "--seed given more than once",
        ),
        (&["5"], "unexpected argument '5'"),
    ];
    for (extra, names) in cases {
        let (out, left) = rdse_in_empty_dir("flags", &[&explore[..], extra].concat());
        assert_rejected(&out, names, "rdse explore");
        assert!(left.is_empty(), "{extra:?} wrote {left:?}");
    }
    let (out, left) = rdse_in_empty_dir("sweep", &["sweep", "--iters", "10", "--bogus"]);
    assert_rejected(&out, "unknown flag '--bogus'", "rdse sweep");
    assert!(left.is_empty(), "sweep wrote {left:?}");
}

#[test]
fn command_line_errors_exit_2_with_one_error_line() {
    let (app, arch) = models();
    let cases: &[(&[&str], &str, &str)] = &[
        (&[], "missing command", "rdse"),
        (&["bogus"], "unknown command 'bogus'", "rdse"),
        (
            &["explore", "--arch", arch],
            "missing --app",
            "rdse explore",
        ),
        (&["ga", "--app", app], "missing --arch", "rdse ga"),
        (
            &["simulate", "--app", app, "--arch", arch],
            "missing --mapping",
            "rdse simulate",
        ),
        (&["space"], "missing --app", "rdse space"),
        (&["corpus"], "missing corpus subcommand", "rdse corpus"),
        (
            &["corpus", "run", "--smoke", "--iters", "5"],
            "--iters conflicts with --smoke",
            "rdse corpus",
        ),
        (
            &["sweep", "--clbs", "800,x"],
            "invalid --clbs entry 'x'",
            "rdse sweep",
        ),
        (
            &["generate", "--clbs", "many"],
            "--clbs expects a number, got 'many'",
            "rdse generate",
        ),
        (
            &["generate", "nope"],
            "unknown workload 'nope'",
            "rdse generate",
        ),
    ];
    for (args, names, help) in cases {
        let (out, left) = rdse_in_empty_dir("usage", args);
        assert_rejected(&out, names, help);
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
}

#[test]
fn generate_without_a_kind_writes_the_motion_models() {
    let (out, mut left) = rdse_in_empty_dir("generate", &["generate", "--clbs", "100"]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("(28 tasks)"),
        "{out:?}"
    );
    left.sort();
    assert_eq!(left, ["motion-app.json", "motion-arch.json"]);
}

#[test]
fn every_help_exits_zero_with_its_synopsis() {
    // serve, submit and store: serve_and_submit_help_exit_zero.
    for cmd in ["generate", "explore", "ga", "sweep", "simulate", "space"] {
        let out = rdse(&[cmd, "--help"]);
        assert!(out.status.success(), "{cmd} --help: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("usage: rdse {cmd} ")),
            "{stdout}"
        );
    }
    for args in [&["corpus", "--help"][..], &["corpus", "run", "--help"]] {
        let out = rdse(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: rdse corpus "));
    }
}

#[test]
fn readme_synopsis_is_rdse_help() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let section = &readme[readme.find("\n## `rdse` CLI\n").expect("CLI section")..];
    let block = &section[section.find("```text\n").expect("synopsis block") + 8..];
    let block = &block[..block.find("```").expect("block end")];
    let out = rdse(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        block,
        String::from_utf8_lossy(&out.stdout),
        "README's `rdse` CLI synopsis differs from `rdse --help`; paste the output in"
    );
}
