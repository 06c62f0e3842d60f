//! Minimal HTTP/1.1 adapter over the same handler as the raw RPC
//! transport. Routes:
//!
//! - `POST /jobs` — submit a [`crate::protocol::JobSpec`] body;
//!   the response streams NDJSON (update lines, then the result
//!   line), delimited by connection close.
//! - `GET /jobs/<id>` — fetch a job registry record.
//! - `GET /healthz` — server stats (including the evaluator-cache
//!   counters).
//! - `POST /shutdown` — graceful shutdown.
//!
//! Errors carry the same typed body as RPC error frames, with
//! [`crate::protocol::ErrorCode::http_status`] as the status code.

use super::{admit_job, FrameSink};
use crate::protocol::{obj, ErrorCode, ServeError};
use crate::server::{Ctx, JobState, SessionPermit};
use crate::worker::JobRequest;
use serde::Value;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn map_io(e: std::io::Error) -> ServeError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ServeError::new(ErrorCode::Timeout, "read timed out")
        }
        _ => ServeError::new(ErrorCode::Truncated, format!("i/o error: {e}")),
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

fn read_request(stream: &mut TcpStream, max_body: u32) -> Result<HttpRequest, ServeError> {
    const MAX_HEAD: usize = 16 * 1024;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > MAX_HEAD {
            return Err(ServeError::new(
                ErrorCode::BadRequest,
                "request head exceeds 16 KiB",
            ));
        }
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return Err(ServeError::new(
                ErrorCode::Truncated,
                "connection closed before the request head completed",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ServeError::new(ErrorCode::BadRequest, "request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(ServeError::new(
            ErrorCode::BadRequest,
            "malformed request line",
        ));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((key, value)) = line.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    ServeError::new(ErrorCode::BadRequest, "invalid Content-Length")
                })?;
            }
        }
    }
    if content_length > max_body as usize {
        return Err(ServeError::new(
            ErrorCode::FrameTooLarge,
            format!("request body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return Err(ServeError::new(
                ErrorCode::Truncated,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(HttpRequest { method, path, body })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

fn respond(mut stream: TcpStream, status: u16, body: &Value) {
    let json = serde_json::to_string(body).expect("Value serialization is infallible");
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        json.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(json.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);
}

/// Answers with the error's mapped status and its typed JSON body.
pub(crate) fn respond_error(stream: TcpStream, err: &ServeError) {
    respond(stream, err.code.http_status(), &err.to_value());
}

/// Streams a job's output as close-delimited NDJSON. The status line
/// and headers go out with the first update (or the result); an error
/// before any output becomes a plain HTTP error response instead. The
/// sink holds the connection's session permit until the job is done.
struct HttpSink {
    stream: TcpStream,
    started: bool,
    dead: bool,
    _permit: SessionPermit,
}

impl HttpSink {
    fn write_line(&mut self, body: &Value) {
        if self.dead {
            return;
        }
        if !self.started {
            self.started = true;
            let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n";
            if self.stream.write_all(head.as_bytes()).is_err() {
                self.dead = true;
                return;
            }
        }
        let mut json = serde_json::to_string(body).expect("Value serialization is infallible");
        json.push('\n');
        if self.stream.write_all(json.as_bytes()).is_err() || self.stream.flush().is_err() {
            self.dead = true;
        }
    }
}

impl FrameSink for HttpSink {
    fn send_update(&mut self, body: &Value) -> bool {
        self.write_line(body);
        !self.dead
    }

    fn send_result(&mut self, body: &Value) {
        self.write_line(body);
    }

    fn send_error(&mut self, err: &ServeError) {
        if self.dead {
            return;
        }
        if self.started {
            self.write_line(&err.to_value());
        } else if let Ok(stream) = self.stream.try_clone() {
            self.dead = true;
            respond_error(stream, err);
        }
    }

    fn finish(&mut self) {
        let _ = self.stream.flush();
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

pub(crate) fn handle(mut stream: TcpStream, ctx: &Arc<Ctx>, permit: SessionPermit) {
    let request = match read_request(&mut stream, ctx.core.limits.max_frame_len) {
        Ok(r) => r,
        Err(e) => {
            respond_error(stream, &e);
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => respond(stream, 200, &ctx.health_value()),
        ("POST", "/shutdown") => {
            let bye = obj(vec![
                ("type", Value::Str("bye".into())),
                ("status", Value::Str("shutting-down".into())),
            ]);
            respond(stream, 200, &bye);
            ctx.request_shutdown();
        }
        ("POST", "/jobs") => {
            let body = match std::str::from_utf8(&request.body)
                .map_err(|_| ServeError::new(ErrorCode::BadJson, "body is not UTF-8"))
                .and_then(|text| {
                    serde_json::from_str::<Value>(text)
                        .map_err(|e| ServeError::new(ErrorCode::BadJson, e))
                }) {
                Ok(v) => v,
                Err(e) => {
                    respond_error(stream, &e);
                    return;
                }
            };
            match admit_job(ctx, body) {
                Ok((id, spec, objective, key)) => {
                    let req = Box::new(JobRequest {
                        id,
                        spec,
                        objective,
                        key,
                        sink: Box::new(HttpSink {
                            stream,
                            started: false,
                            dead: false,
                            _permit: permit,
                        }),
                    });
                    if let Err((mut req, err)) = ctx.dispatch(req) {
                        ctx.core
                            .registry
                            .set_state(req.id, JobState::Failed(err.clone()));
                        ctx.core.stats.jobs_failed.fetch_add(1, Relaxed);
                        req.sink.send_error(&err);
                        req.sink.finish();
                    }
                }
                Err(err) => {
                    ctx.core.stats.jobs_failed.fetch_add(1, Relaxed);
                    respond_error(stream, &err);
                }
            }
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            match path["/jobs/".len()..].parse::<u64>() {
                Ok(id) => match ctx.core.registry.record_value(id) {
                    Some(record) => respond(stream, 200, &record),
                    None => respond_error(
                        stream,
                        &ServeError::new(ErrorCode::UnknownJob, format!("no record of job {id}")),
                    ),
                },
                Err(_) => respond_error(
                    stream,
                    &ServeError::new(ErrorCode::BadRequest, "job id must be an integer"),
                ),
            }
        }
        (method, path) => respond(
            stream,
            404,
            &ServeError::new(ErrorCode::BadRequest, format!("no route {method} {path}")).to_value(),
        ),
    }
}
