//! Abuse-resistance tests: every malformed, oversized, truncated or
//! over-limit input must come back as a typed error frame — the server
//! never panics, never hangs, never silently drops a connection.

use rdse_serve::client::{self, ClientOptions};
use rdse_serve::protocol::{
    encode_frame, read_frame, AppSpec, ArchSpec, FrameType, JobSpec, MAGIC, VERSION,
};
use rdse_serve::{Limits, ServeConfig, Server, ServerHandle};
use serde::{Serialize, Value};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn spawn_with(limits: Limits) -> ServerHandle {
    Server::bind(ServeConfig {
        host: "127.0.0.1".into(),
        port: 0,
        workers: 2,
        limits,
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn")
}

/// A raw test socket with timeouts so no assertion can hang the suite.
fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads one frame and asserts it is a typed error with `code`.
fn expect_error_code(stream: &mut TcpStream, code: &str) -> String {
    let (frame_type, body) = read_frame(stream, 1 << 20).expect("a reply frame, not a hang/drop");
    assert_eq!(frame_type, FrameType::Error, "body: {body:?}");
    let Some(Value::Str(got)) = body.get("code") else {
        panic!("error frame without a code: {body:?}");
    };
    assert_eq!(got, code, "body: {body:?}");
    let Some(Value::Str(message)) = body.get("message") else {
        panic!("error frame without a message: {body:?}");
    };
    assert!(!message.is_empty());
    message.clone()
}

fn shut_down(handle: ServerHandle) {
    let addr = handle.addr().to_string();
    client::shutdown(&addr, &ClientOptions::default()).expect("shutdown ack");
    handle.join().expect("clean server exit");
}

fn motion_spec() -> JobSpec {
    JobSpec {
        app: AppSpec::Builtin("motion".into()),
        arch: ArchSpec::Clbs(2000),
        objective: "makespan".into(),
        iters: 200,
        warmup: 50,
        seed: 1,
        chains: 1,
        exchange_every: 100,
    }
}

fn header(frame_type: FrameType, len: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(12);
    h.extend_from_slice(&MAGIC);
    h.extend_from_slice(&VERSION.to_be_bytes());
    h.extend_from_slice(&frame_type.code().to_be_bytes());
    h.extend_from_slice(&len.to_be_bytes());
    h
}

#[test]
fn oversized_frame_is_rejected_with_a_typed_error() {
    let handle = spawn_with(Limits {
        max_frame_len: 1024,
        ..Limits::default()
    });
    let mut stream = raw_connect(&handle);
    // Header declares a body far beyond the limit; the server must
    // refuse before reading (or allocating) any of it.
    stream.write_all(&header(FrameType::Job, 1 << 30)).unwrap();
    let message = expect_error_code(&mut stream, "frame-too-large");
    assert!(message.contains("1024"), "message: {message}");
    drop(stream);
    shut_down(handle);
}

#[test]
fn truncated_frame_is_rejected_with_a_typed_error() {
    let handle = spawn_with(Limits::default());
    let mut stream = raw_connect(&handle);
    // Promise 100 body bytes, deliver 10, then close the write side.
    stream.write_all(&header(FrameType::Job, 100)).unwrap();
    stream.write_all(b"0123456789").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    expect_error_code(&mut stream, "truncated-frame");
    drop(stream);
    shut_down(handle);
}

#[test]
fn garbage_bytes_get_a_bad_magic_error() {
    let handle = spawn_with(Limits::default());
    let mut stream = raw_connect(&handle);
    stream
        .write_all(&[0x00, 0xFF, 0x13, 0x37, 0xDE, 0xAD])
        .unwrap();
    expect_error_code(&mut stream, "bad-magic");
    drop(stream);
    shut_down(handle);
}

#[test]
fn wrong_protocol_version_gets_a_typed_error() {
    let handle = spawn_with(Limits::default());
    let mut stream = raw_connect(&handle);
    let mut h = Vec::new();
    h.extend_from_slice(&MAGIC);
    h.extend_from_slice(&99u16.to_be_bytes());
    h.extend_from_slice(&FrameType::Health.code().to_be_bytes());
    h.extend_from_slice(&0u32.to_be_bytes());
    stream.write_all(&h).unwrap();
    expect_error_code(&mut stream, "bad-version");
    drop(stream);
    shut_down(handle);
}

#[test]
fn response_frame_type_as_request_gets_a_typed_error() {
    let handle = spawn_with(Limits::default());
    let mut stream = raw_connect(&handle);
    stream
        .write_all(&encode_frame(FrameType::Result, &Value::Map(vec![])))
        .unwrap();
    expect_error_code(&mut stream, "unknown-type");
    drop(stream);
    shut_down(handle);
}

#[test]
fn malformed_json_body_gets_a_typed_error() {
    let handle = spawn_with(Limits::default());
    let mut stream = raw_connect(&handle);
    let body = b"{\"app\": oops";
    stream
        .write_all(&header(FrameType::Job, body.len() as u32))
        .unwrap();
    stream.write_all(body).unwrap();
    expect_error_code(&mut stream, "bad-json");
    drop(stream);
    shut_down(handle);
}

#[test]
fn raw_control_character_in_a_string_gets_bad_json_and_serving_continues() {
    let handle = spawn_with(Limits::default());
    let mut stream = raw_connect(&handle);
    // A well-formed job except for one unescaped U+0001 inside a string.
    let json = serde_json::to_string(&motion_spec().to_value()).unwrap();
    let body = json.replacen("\"makespan\"", "\"make\u{1}span\"", 1);
    assert_ne!(body, json, "the objective string must be in the body");
    stream
        .write_all(&header(FrameType::Job, body.len() as u32))
        .unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let message = expect_error_code(&mut stream, "bad-json");
    assert!(message.contains("control character"), "message: {message}");
    drop(stream);

    // The server keeps serving: the same job, properly escaped, runs.
    let addr = handle.addr().to_string();
    let result = client::submit(&addr, &motion_spec(), &ClientOptions::default(), |_| {})
        .expect("a valid job after the rejected one");
    assert!(result.get("makespan_bits").is_some(), "result: {result:?}");
    shut_down(handle);
}

#[test]
fn over_limit_jobs_are_rejected_with_specific_codes() {
    let handle = spawn_with(Limits {
        max_iters: 1_000,
        max_chains: 4,
        max_tasks: 12,
        ..Limits::default()
    });
    let addr = handle.addr().to_string();
    let opts = ClientOptions::default();

    let cases: Vec<(JobSpec, &str)> = vec![
        (
            JobSpec {
                iters: 1_001,
                ..motion_spec()
            },
            "over-budget",
        ),
        (
            JobSpec {
                chains: 5,
                ..motion_spec()
            },
            "too-many-chains",
        ),
        (
            JobSpec {
                chains: 0,
                ..motion_spec()
            },
            "bad-job",
        ),
        (
            JobSpec {
                objective: "weighted:1,2".into(),
                ..motion_spec()
            },
            "bad-objective",
        ),
        (
            JobSpec {
                app: AppSpec::Builtin("no-such-app".into()),
                ..motion_spec()
            },
            "unknown-app",
        ),
        (
            JobSpec {
                // figure1's 10 tasks pass the cap, so resolution
                // reaches the architecture and fails there.
                app: AppSpec::Builtin("figure1".into()),
                arch: ArchSpec::Family {
                    family: "no-such-arch".into(),
                    seed: 1,
                },
                ..motion_spec()
            },
            "unknown-arch",
        ),
        // motion has 28 tasks; the server caps at 12.
        (motion_spec(), "too-many-tasks"),
    ];
    for (spec, want) in cases {
        let err = client::submit(&addr, &spec, &opts, |_| {})
            .expect_err(&format!("{want} job must be rejected"));
        assert_eq!(err.code.as_deref(), Some(want), "message: {}", err.message);
        assert!(err.is_usage(), "{want} should map to a usage error");
    }
    shut_down(handle);
}

/// `model` with its top-level `field` replaced by `value`.
fn with_field(model: Value, field: &str, value: Value) -> Value {
    let Value::Map(mut entries) = model else {
        panic!("a model is a JSON object");
    };
    entries
        .iter_mut()
        .find(|(k, _)| k == field)
        .expect("field")
        .1 = value;
    Value::Map(entries)
}

/// Submits a figure1 job with `app` or `arch` swapped for an inline
/// model the search cannot run on, and asserts a typed `bad-model` error
/// naming `cause` (never a worker panic answered as `internal`), after
/// which the same lane still serves.
fn assert_bad_inline_model(app: Option<Value>, arch: Option<Value>, cause: &str) {
    let handle = spawn_with(Limits::default());
    let addr = handle.addr().to_string();
    let opts = ClientOptions::default();
    let figure1 = JobSpec {
        app: AppSpec::Builtin("figure1".into()),
        ..motion_spec()
    };
    let spec = JobSpec {
        app: app.map_or(figure1.app.clone(), AppSpec::Inline),
        arch: arch.map_or(figure1.arch.clone(), ArchSpec::Inline),
        ..figure1.clone()
    };
    let err = client::submit(&addr, &spec, &opts, |_| {}).expect_err(cause);
    assert_eq!(err.code.as_deref(), Some("bad-model"), "{}", err.message);
    assert!(err.is_usage(), "bad-model should map to a usage error");
    assert!(err.message.contains(cause), "{}", err.message);
    client::submit(&addr, &figure1, &opts, |_| {}).expect("a valid job runs");
    shut_down(handle);
}

#[test]
fn an_inline_architecture_without_a_processor_gets_bad_model() {
    let arch = rdse_workloads::epicure_architecture(2000).to_value();
    let arch = with_field(arch, "processors", Value::Seq(vec![]));
    assert_bad_inline_model(None, Some(arch), "no processor");
}

#[test]
fn an_inline_app_whose_edges_name_missing_tasks_gets_bad_model() {
    let app = rdse_workloads::figure1_app().to_value();
    let app = with_field(app, "tasks", Value::Seq(vec![]));
    assert_bad_inline_model(Some(app), None, "unknown task");
}

/// `model` with its first `"key": <number>` set to the JSON text `value`.
fn with_first_number(model: Value, key: &str, value: &str) -> Value {
    let text = serde_json::to_string(&model).unwrap();
    let at = text.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let end = at + text[at..].find([',', '}']).expect("number ends");
    serde_json::from_str(&format!("{}{value}{}", &text[..at], &text[end..])).unwrap()
}

#[test]
fn inline_models_with_out_of_range_numbers_get_bad_model() {
    let arch = || rdse_workloads::epicure_architecture(2000).to_value();
    for (key, value, cause) in [
        ("n_clbs", "0", "zero CLB capacity"),
        ("bytes_per_micro", "0", "bus rate 0 is not"),
        ("bytes_per_micro", "-3", "bus rate -3 is not"),
        ("reconfig_time_per_clb", "-22.5", "reconfiguration time"),
    ] {
        let arch = with_first_number(arch(), key, value);
        assert_bad_inline_model(None, Some(arch), cause);
    }
    let app = || rdse_workloads::figure1_app().to_value();
    for (key, value, cause) in [
        ("sw_time", "-1.0", "invalid software time"),
        // Parsed as infinity, sent as `null`, read back as NaN.
        ("sw_time", "1e400", "invalid software time"),
        ("time", "-1.0", "invalid hardware time"),
    ] {
        let app = with_first_number(app(), key, value);
        assert_bad_inline_model(Some(app), None, cause);
    }
}

#[test]
fn client_refuses_to_send_an_oversized_job() {
    // No server needed: the pre-check fires before connecting.
    let opts = ClientOptions {
        max_frame_len: 64,
        ..ClientOptions::default()
    };
    let err = client::submit("127.0.0.1:9", &motion_spec(), &opts, |_| {})
        .expect_err("oversized job must be refused locally");
    assert_eq!(err.code.as_deref(), Some("job-too-large"));
    assert!(err.is_usage());
}

#[test]
fn session_limit_answers_busy_and_recovers() {
    let handle = spawn_with(Limits {
        max_sessions: 1,
        read_timeout: Duration::from_secs(3),
        ..Limits::default()
    });
    let addr = handle.addr().to_string();
    // Hold the only session slot with an idle connection.
    let hog = raw_connect(&handle);
    std::thread::sleep(Duration::from_millis(200));
    let mut second = raw_connect(&handle);
    second
        .write_all(&encode_frame(FrameType::Health, &Value::Map(vec![])))
        .unwrap();
    expect_error_code(&mut second, "busy");
    drop(second);
    // Releasing the hog frees the slot; health succeeds again.
    drop(hog);
    let opts = ClientOptions::default();
    let mut healthy = false;
    for _ in 0..50 {
        if client::health(&addr, &opts).is_ok() {
            healthy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(healthy, "session slot was never released");
    // The health probe's session may still hold the only slot for a
    // moment after its reply, so retry the shutdown while it answers
    // busy, bounded like the health loop.
    let mut ack = client::shutdown(&addr, &opts);
    for _ in 0..50 {
        if !matches!(&ack, Err(e) if e.code.as_deref() == Some("busy")) {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
        ack = client::shutdown(&addr, &opts);
    }
    ack.expect("shutdown ack");
    handle.join().expect("clean server exit");
}

#[test]
fn slow_loris_sender_times_out_with_a_typed_error() {
    let handle = spawn_with(Limits {
        read_timeout: Duration::from_millis(300),
        ..Limits::default()
    });
    // Complete magic, then stall mid-header: the frame read must time
    // out and answer rather than hold the session forever.
    let mut stream = raw_connect(&handle);
    stream.write_all(&MAGIC).unwrap();
    stream.write_all(&VERSION.to_be_bytes()).unwrap();
    expect_error_code(&mut stream, "timeout");
    drop(stream);

    // Stall before even four bytes arrive: transport sniffing itself
    // must give up with the same typed error.
    let mut stream = raw_connect(&handle);
    stream.write_all(&MAGIC[..2]).unwrap();
    expect_error_code(&mut stream, "timeout");
    drop(stream);
    shut_down(handle);
}

#[test]
fn http_oversized_body_and_unknown_route_get_typed_replies() {
    let handle = spawn_with(Limits {
        max_frame_len: 512,
        ..Limits::default()
    });
    // Declared Content-Length beyond the frame limit → 413 + typed body.
    let mut stream = raw_connect(&handle);
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\n")
        .unwrap();
    let reply = read_to_string(&mut stream);
    assert!(reply.starts_with("HTTP/1.1 413"), "reply: {reply}");
    assert!(reply.contains("frame-too-large"), "reply: {reply}");

    // Unknown route → 404 + typed body.
    let mut stream = raw_connect(&handle);
    stream
        .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let reply = read_to_string(&mut stream);
    assert!(reply.starts_with("HTTP/1.1 404"), "reply: {reply}");
    assert!(reply.contains("bad-request"), "reply: {reply}");
    shut_down(handle);
}

fn read_to_string(stream: &mut TcpStream) -> String {
    use std::io::Read;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read HTTP reply");
    String::from_utf8_lossy(&buf).into_owned()
}
