//! Blocking client for the raw RPC transport — what `rdse submit`
//! uses, and the reference implementation of the frame protocol's
//! client side.
//!
//! Each thread keeps its last connection open and reuses it for its
//! next request to the same address, much as an HTTP client pools
//! keep-alive connections: a server session carries any number of
//! exchanges in sequence.

use crate::protocol::{encode_frame, read_frame, FrameError, FrameType, JobSpec, HEADER_LEN};
use serde::{Serialize, Value};
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side socket and framing limits.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read timeout; updates arrive at least once per exchange
    /// segment, so this bounds how long a wedged server can stall us.
    pub read_timeout: Duration,
    /// Per-write timeout.
    pub write_timeout: Duration,
    /// Maximum frame body we send or accept. The client refuses to
    /// send an oversized job instead of letting the server cut the
    /// connection mid-write.
    pub max_frame_len: u32,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            max_frame_len: 1 << 20,
        }
    }
}

/// A client-visible failure: either a typed error frame from the
/// server (`code` is its wire name) or a local transport problem
/// (`code` is `None`).
#[derive(Debug, Clone)]
pub struct ClientError {
    /// The server's [`crate::protocol::ErrorCode`] wire name, or a
    /// client-side code like `job-too-large`; `None` for plain
    /// transport failures.
    pub code: Option<String>,
    /// Human-readable detail.
    pub message: String,
}

impl ClientError {
    fn transport(message: impl std::fmt::Display) -> Self {
        ClientError {
            code: None,
            message: message.to_string(),
        }
    }

    fn coded(code: &str, message: impl std::fmt::Display) -> Self {
        ClientError {
            code: Some(code.to_string()),
            message: message.to_string(),
        }
    }

    fn from_error_body(v: &Value) -> Self {
        let code = match v.get("code") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let message = match v.get("message") {
            Some(Value::Str(s)) => s.clone(),
            _ => "server error".into(),
        };
        ClientError { code, message }
    }

    /// Whether this is the caller's fault (malformed or over-limit
    /// input) rather than a server/transport problem — the CLI maps
    /// these to exit code 2.
    pub fn is_usage(&self) -> bool {
        matches!(
            self.code.as_deref(),
            Some(
                "bad-job"
                    | "bad-model"
                    | "bad-objective"
                    | "bad-json"
                    | "unknown-app"
                    | "unknown-arch"
                    | "too-many-tasks"
                    | "too-many-devices"
                    | "over-budget"
                    | "too-many-chains"
                    | "frame-too-large"
                    | "job-too-large"
            )
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.code {
            Some(code) => write!(f, "{code}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

thread_local! {
    /// This thread's idle connection and the address it leads to.
    static IDLE: RefCell<Option<(String, TcpStream)>> = const { RefCell::new(None) };
}

fn configure(stream: &TcpStream, opts: &ClientOptions) {
    let _ = stream.set_read_timeout(Some(opts.read_timeout));
    let _ = stream.set_write_timeout(Some(opts.write_timeout));
}

fn connect(addr: &str, opts: &ClientOptions) -> Result<TcpStream, ClientError> {
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| ClientError::transport(format!("cannot resolve '{addr}': {e}")))?
        .next()
        .ok_or_else(|| ClientError::transport(format!("'{addr}' resolves to no address")))?;
    let stream = TcpStream::connect_timeout(&sock_addr, opts.connect_timeout)
        .map_err(|e| ClientError::transport(format!("cannot connect to {addr}: {e}")))?;
    configure(&stream, opts);
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// A reader that remembers whether any byte arrived.
struct Heard<'a> {
    stream: &'a mut TcpStream,
    any: bool,
}

impl Read for Heard<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.any |= n > 0;
        Ok(n)
    }
}

/// An exchange that broke below the protocol. `resend` is set when no
/// reply byte had arrived and the read did not time out, so the server
/// cannot have started answering.
struct Broken {
    error: ClientError,
    resend: bool,
}

/// Sends `frame` and reads reply frames until one of type `expect` or
/// an `Error` frame; a job's stream (`expect` is `Result`) may send
/// `Update` frames before it, each passed to `on_update`. The inner
/// result is the server's answer.
fn round_trip(
    stream: &mut TcpStream,
    frame: &[u8],
    expect: FrameType,
    on_update: &mut dyn FnMut(&Value),
    max_frame_len: u32,
) -> Result<Result<Value, ClientError>, Broken> {
    stream
        .write_all(frame)
        .and_then(|()| stream.flush())
        .map_err(|e| Broken {
            error: ClientError::transport(e),
            resend: true,
        })?;
    let mut reader = Heard { stream, any: false };
    loop {
        let (frame_type, body) = read_frame(&mut reader, max_frame_len).map_err(|e| Broken {
            resend: !reader.any && !matches!(e, FrameError::TimedOut),
            error: ClientError::transport(e),
        })?;
        match frame_type {
            t if t == expect => return Ok(Ok(body)),
            FrameType::Error => return Ok(Err(ClientError::from_error_body(&body))),
            FrameType::Update if expect == FrameType::Result => on_update(&body),
            other => {
                return Err(Broken {
                    error: ClientError::transport(format!(
                        "expected a {expect:?} frame, got {other:?}"
                    )),
                    resend: false,
                })
            }
        }
    }
}

/// The one request/reply path. It uses this thread's idle connection
/// if that leads to `addr` (and drops it otherwise), and keeps the
/// connection idle afterwards unless the request was a shutdown. A
/// kept connection the server has since closed (idle timeout, restart)
/// fails before any reply byte arrives; only then is the frame sent
/// once more, on a new connection.
fn exchange(
    addr: &str,
    opts: &ClientOptions,
    frame: &[u8],
    expect: FrameType,
    on_update: &mut dyn FnMut(&Value),
) -> Result<Value, ClientError> {
    let idle = IDLE
        .with(|idle| idle.borrow_mut().take())
        .filter(|(to, _)| to == addr);
    let reused = idle.is_some();
    let mut stream = match idle {
        Some((_, stream)) => {
            configure(&stream, opts);
            stream
        }
        None => connect(addr, opts)?,
    };
    let mut outcome = round_trip(&mut stream, frame, expect, on_update, opts.max_frame_len);
    if reused && matches!(&outcome, Err(broken) if broken.resend) {
        stream = connect(addr, opts)?;
        outcome = round_trip(&mut stream, frame, expect, on_update, opts.max_frame_len);
    }
    let answer = outcome.map_err(|broken| broken.error)?;
    if expect != FrameType::Bye {
        IDLE.with(|idle| *idle.borrow_mut() = Some((addr.to_string(), stream)));
    }
    answer
}

fn request(
    addr: &str,
    opts: &ClientOptions,
    frame_type: FrameType,
    body: &Value,
    expect: FrameType,
) -> Result<Value, ClientError> {
    exchange(
        addr,
        opts,
        &encode_frame(frame_type, body),
        expect,
        &mut |_| {},
    )
}

/// Submits a job and blocks until the final result, invoking
/// `on_update` for every streamed update frame.
///
/// # Errors
///
/// A typed [`ClientError`] for server-side rejections (including the
/// client-side `job-too-large` pre-check) or transport failures.
pub fn submit(
    addr: &str,
    spec: &JobSpec,
    opts: &ClientOptions,
    mut on_update: impl FnMut(&Value),
) -> Result<Value, ClientError> {
    let encoded = encode_frame(FrameType::Job, &spec.to_value());
    let body_len = encoded.len() - HEADER_LEN;
    if body_len > opts.max_frame_len as usize {
        return Err(ClientError::coded(
            "job-too-large",
            format!(
                "encoded job body is {body_len} bytes; the frame limit is {} — shrink the inline models",
                opts.max_frame_len
            ),
        ));
    }
    exchange(addr, opts, &encoded, FrameType::Result, &mut on_update)
}

/// Fetches the server's health/stats report.
///
/// # Errors
///
/// A typed [`ClientError`] on rejection or transport failure.
pub fn health(addr: &str, opts: &ClientOptions) -> Result<Value, ClientError> {
    request(
        addr,
        opts,
        FrameType::Health,
        &Value::Map(vec![]),
        FrameType::HealthReply,
    )
}

/// Asks the server to shut down after in-flight jobs finish.
///
/// # Errors
///
/// A typed [`ClientError`] on rejection or transport failure.
pub fn shutdown(addr: &str, opts: &ClientOptions) -> Result<Value, ClientError> {
    request(
        addr,
        opts,
        FrameType::Shutdown,
        &Value::Map(vec![]),
        FrameType::Bye,
    )
}

/// Looks up a job registry record by id.
///
/// # Errors
///
/// A typed [`ClientError`] (`unknown-job` when the record has been
/// evicted or never existed) or transport failure.
pub fn get_job(addr: &str, id: u64, opts: &ClientOptions) -> Result<Value, ClientError> {
    request(
        addr,
        opts,
        FrameType::GetJob,
        &crate::protocol::obj(vec![("job", id.to_value())]),
        FrameType::JobRecord,
    )
}
