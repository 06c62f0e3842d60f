//! Keep-alive sessions of the raw RPC transport:
//!
//! 1. One connection carries any number of exchanges, answered in
//!    order.
//! 2. A session idle for the read timeout closes without writing a
//!    frame.
//! 3. The client reuses its connection, and resends a request once
//!    when the server closed the kept connection first; nothing runs
//!    twice.
//! 4. A stopped server leaves no session behind for a kept
//!    connection to reach.

use rdse_serve::client::{self, ClientOptions};
use rdse_serve::protocol::{encode_frame, read_frame, AppSpec, ArchSpec, FrameType, JobSpec};
use rdse_serve::{Limits, ServeConfig, Server, ServerHandle};
use rdse_store::SyncPolicy;
use serde::{Serialize, Value};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn spawn(limits: Limits, store: Option<PathBuf>) -> ServerHandle {
    Server::bind(ServeConfig {
        workers: 2,
        limits,
        store,
        store_sync: SyncPolicy::Never,
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

fn send(stream: &mut TcpStream, frame_type: FrameType, body: &Value) {
    stream.write_all(&encode_frame(frame_type, body)).unwrap();
}

fn recv(stream: &mut TcpStream) -> (FrameType, Value) {
    read_frame(stream, 1 << 20).expect("a reply frame")
}

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    v.get(name)
        .unwrap_or_else(|| panic!("no '{name}' in {v:?}"))
}

fn as_u64(v: &Value, name: &str) -> u64 {
    match field(v, name) {
        Value::U64(n) => *n,
        Value::I64(n) if *n >= 0 => *n as u64,
        other => panic!("'{name}' is not an integer: {other:?}"),
    }
}

/// A search small enough to run many times: the figure-1 app on an
/// EPICURE device of `clbs` CLBs.
fn tiny_spec(clbs: u32) -> JobSpec {
    JobSpec {
        app: AppSpec::Builtin("figure1".into()),
        arch: ArchSpec::Clbs(clbs),
        objective: "makespan".into(),
        iters: 20,
        warmup: 5,
        seed: 3,
        chains: 1,
        exchange_every: 20,
    }
}

fn shut_down(handle: ServerHandle) {
    let addr = handle.addr().to_string();
    client::shutdown(&addr, &ClientOptions::default()).expect("shutdown ack");
    handle.join().expect("clean server exit");
}

#[test]
fn one_connection_carries_sequential_exchanges_in_order() {
    let dir = std::env::temp_dir().join(format!("rdse_session_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sequential.aof");
    let _ = std::fs::remove_file(&path);
    let handle = spawn(Limits::default(), Some(path));
    let mut stream = raw_connect(&handle);

    send(&mut stream, FrameType::Health, &Value::Map(vec![]));
    let (frame_type, health) = recv(&mut stream);
    assert_eq!(frame_type, FrameType::HealthReply);
    assert_eq!(as_u64(&health, "jobs_served"), 0);

    // The same job twice: a search, then an exact hit with the same bits.
    let job = tiny_spec(2000).to_value();
    let mut results = Vec::new();
    for _ in 0..2 {
        send(&mut stream, FrameType::Job, &job);
        let result = loop {
            match recv(&mut stream) {
                (FrameType::Update, _) => {}
                (FrameType::Result, result) => break result,
                other => panic!("unexpected frame in a job stream: {other:?}"),
            }
        };
        results.push(result);
    }
    assert_eq!(field(&results[0], "store"), &Value::Str("miss".into()));
    assert_eq!(field(&results[1], "store"), &Value::Str("exact".into()));
    assert_eq!(
        field(&results[0], "makespan_bits"),
        field(&results[1], "makespan_bits")
    );

    let first = as_u64(&results[0], "job");
    send(
        &mut stream,
        FrameType::GetJob,
        &rdse_serve::protocol::obj(vec![("job", first.to_value())]),
    );
    let (frame_type, record) = recv(&mut stream);
    assert_eq!(frame_type, FrameType::JobRecord);
    assert_eq!(as_u64(&record, "job"), first);
    assert_eq!(field(&record, "state"), &Value::Str("done".into()));

    drop(stream);
    shut_down(handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_idle_session_closes_without_writing_a_frame() {
    let handle = spawn(
        Limits {
            read_timeout: Duration::from_millis(300),
            ..Limits::default()
        },
        None,
    );
    let mut stream = raw_connect(&handle);
    send(&mut stream, FrameType::Health, &Value::Map(vec![]));
    assert_eq!(recv(&mut stream).0, FrameType::HealthReply);
    // No further request: the session ends at its read timeout, and the
    // socket reads end-of-stream with no frame before it.
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("end of stream, not a hang");
    assert!(rest.is_empty(), "an idle close wrote {} bytes", rest.len());
    shut_down(handle);
}

#[test]
fn a_kept_connection_the_server_closed_is_resent_once() {
    let handle = spawn(
        Limits {
            read_timeout: Duration::from_millis(300),
            ..Limits::default()
        },
        None,
    );
    let addr = handle.addr().to_string();
    let opts = ClientOptions::default();
    let submissions = [1000, 2000, 3000];
    for (i, clbs) in submissions.into_iter().enumerate() {
        if i > 0 {
            // Outlive the session's read timeout: the server closes the
            // connection this thread keeps.
            std::thread::sleep(Duration::from_millis(700));
        }
        client::submit(&addr, &tiny_spec(clbs), &opts, |_| {}).expect("job after an idle close");
    }
    let health = client::health(&addr, &opts).expect("health");
    assert_eq!(
        as_u64(&health, "jobs_served"),
        submissions.len() as u64,
        "a resent job ran twice"
    );
    assert_eq!(as_u64(&health, "jobs_failed"), 0);
    shut_down(handle);
}

#[test]
fn the_client_reuses_its_connection() {
    // A stand-in server that accepts one connection only and answers
    // every health request on it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut answered = 0u64;
        while let Ok((FrameType::Health, _)) = read_frame(&mut stream, 1 << 20) {
            answered += 1;
            let reply = rdse_serve::protocol::obj(vec![("answered", answered.to_value())]);
            stream
                .write_all(&encode_frame(FrameType::HealthReply, &reply))
                .unwrap();
        }
        answered
    });
    // A second connection would never be accepted, so its request
    // would time out.
    let opts = ClientOptions {
        read_timeout: Duration::from_secs(2),
        ..ClientOptions::default()
    };
    // The client's thread ends after three requests, closing the
    // connection it kept, which ends the stand-in's session.
    std::thread::spawn(move || {
        for n in 1..=3 {
            let reply = client::health(&addr, &opts).expect("an answer on the kept connection");
            assert_eq!(as_u64(&reply, "answered"), n);
        }
    })
    .join()
    .unwrap();
    assert_eq!(server.join().unwrap(), 3);
}

#[test]
fn a_stopped_server_leaves_no_session_for_a_kept_connection() {
    let handle = spawn(Limits::default(), None);
    let addr = handle.addr().to_string();
    let opts = ClientOptions::default();
    // This thread now keeps an idle connection to the server.
    client::submit(&addr, &tiny_spec(2000), &opts, |_| {}).expect("job");
    // Stop the server from another connection.
    let stopper = addr.clone();
    std::thread::spawn(move || client::shutdown(&stopper, &ClientOptions::default()))
        .join()
        .unwrap()
        .expect("shutdown ack");
    handle.join().expect("clean server exit");

    let err = client::submit(&addr, &tiny_spec(2000), &opts, |_| {})
        .expect_err("a stopped server answers nothing");
    assert_eq!(err.code, None, "not a transport error: {err}");
}
