//! Blocking client for the raw RPC transport — what `rdse submit`
//! uses, and the reference implementation of the frame protocol's
//! client side.

use crate::protocol::{encode_frame, read_frame, write_frame, FrameType, JobSpec, HEADER_LEN};
use serde::{Serialize, Value};
use std::io::Write;
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

fn connect(addr: &str, opts: &ClientOptions) -> Result<TcpStream, ClientError> {
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| ClientError::transport(format!("cannot resolve '{addr}': {e}")))?
        .next()
        .ok_or_else(|| ClientError::transport(format!("'{addr}' resolves to no address")))?;
    let stream = TcpStream::connect_timeout(&sock_addr, opts.connect_timeout)
        .map_err(|e| ClientError::transport(format!("cannot connect to {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(opts.read_timeout));
    let _ = stream.set_write_timeout(Some(opts.write_timeout));
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn request(
    addr: &str,
    opts: &ClientOptions,
    frame_type: FrameType,
    body: &Value,
    expect: FrameType,
) -> Result<Value, ClientError> {
    let mut stream = connect(addr, opts)?;
    write_frame(&mut stream, frame_type, body).map_err(ClientError::transport)?;
    let (reply_type, reply) =
        read_frame(&mut stream, opts.max_frame_len).map_err(ClientError::transport)?;
    match reply_type {
        t if t == expect => Ok(reply),
        FrameType::Error => Err(ClientError::from_error_body(&reply)),
        other => Err(ClientError::transport(format!(
            "expected a {expect:?} frame, got {other:?}"
        ))),
    }
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
    let mut stream = connect(addr, opts)?;
    stream
        .write_all(&encoded)
        .and_then(|()| stream.flush())
        .map_err(ClientError::transport)?;
    loop {
        let (frame_type, body) =
            read_frame(&mut stream, opts.max_frame_len).map_err(ClientError::transport)?;
        match frame_type {
            FrameType::Update => on_update(&body),
            FrameType::Result => return Ok(body),
            FrameType::Error => return Err(ClientError::from_error_body(&body)),
            other => {
                return Err(ClientError::transport(format!(
                    "unexpected {other:?} frame in a job stream"
                )))
            }
        }
    }
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
