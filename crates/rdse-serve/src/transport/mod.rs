//! Transport plumbing shared by the raw RPC and HTTP adapters:
//! protocol sniffing on a fresh connection and the [`FrameSink`]
//! abstraction workers stream results through.

pub(crate) mod http;
pub(crate) mod rpc;

use crate::handler;
use crate::protocol::{write_frame, ErrorCode, FrameType, JobSpec, ServeError, MAGIC};
use crate::server::{Ctx, SessionPermit};
use rdse_mapping::Objective;
use serde::Value;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a worker sends a job's streamed output. One sink per job,
/// owned by the worker; both transports implement it so the worker
/// never knows how the client connected.
pub trait FrameSink: Send {
    /// Streams one incremental update. Returning `false` tells the
    /// worker the client is gone and the job should stop.
    fn send_update(&mut self, body: &Value) -> bool;
    /// Sends the final result.
    fn send_result(&mut self, body: &Value);
    /// Sends a typed error.
    fn send_error(&mut self, err: &ServeError);
    /// Ends the job's response: an HTTP sink closes its connection, an
    /// RPC sink hands the connection back to its session for the next
    /// request.
    fn finish(&mut self);
}

enum Sniff {
    Rpc,
    Http,
    Garbage,
    TimedOut,
    Closed,
}

/// Classifies a fresh connection by peeking (not consuming) its first
/// four bytes: the protocol magic means raw RPC, an ASCII method means
/// HTTP, anything else is garbage. A sender that stalls before
/// completing four bytes runs into `deadline`.
fn sniff(stream: &TcpStream, deadline: Duration) -> Sniff {
    let started = Instant::now();
    let mut buf = [0u8; 4];
    loop {
        match stream.peek(&mut buf) {
            Ok(0) => return Sniff::Closed,
            Ok(n) if n >= 4 => {
                return if buf == MAGIC {
                    Sniff::Rpc
                } else if buf.iter().all(|b| b.is_ascii_uppercase() || *b == b' ') {
                    Sniff::Http
                } else {
                    Sniff::Garbage
                };
            }
            Ok(_) => {
                if started.elapsed() >= deadline {
                    return Sniff::TimedOut;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Sniff::TimedOut;
            }
            Err(_) => return Sniff::Closed,
        }
    }
}

/// Entry point for every accepted connection (own thread): set the
/// socket limits, sniff the protocol and hand off.
pub(crate) fn handle_connection(stream: TcpStream, ctx: &Arc<Ctx>, permit: SessionPermit) {
    let limits = &ctx.core.limits;
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let _ = stream.set_nodelay(true);
    match sniff(&stream, limits.read_timeout) {
        Sniff::Rpc => rpc::handle(stream, ctx, permit),
        Sniff::Http => http::handle(stream, ctx, permit),
        Sniff::Garbage => {
            let err = ServeError::new(
                ErrorCode::BadMagic,
                "first bytes are neither the RDSE magic nor an HTTP method",
            );
            let mut stream = stream;
            let _ = write_frame(&mut stream, FrameType::Error, &err.to_value());
        }
        Sniff::TimedOut => {
            let err = ServeError::new(
                ErrorCode::Timeout,
                "no complete request within the read timeout",
            );
            let mut stream = stream;
            let _ = write_frame(&mut stream, FrameType::Error, &err.to_value());
        }
        Sniff::Closed => {}
    }
}

/// Over-capacity path: no session permit, so answer with a typed
/// `busy` error on whichever protocol the client speaks and hang up.
pub(crate) fn reply_busy(stream: TcpStream, ctx: &Arc<Ctx>) {
    let err = ServeError::new(
        ErrorCode::Busy,
        format!(
            "session limit of {} reached; retry later",
            ctx.core.limits.max_sessions
        ),
    );
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(ctx.core.limits.write_timeout));
    match sniff(&stream, Duration::from_millis(500)) {
        Sniff::Http => http::respond_error(stream, &err),
        Sniff::Closed => {}
        _ => {
            let mut stream = stream;
            let _ = write_frame(&mut stream, FrameType::Error, &err.to_value());
        }
    }
}

/// Validates a job body and registers it, common to both transports.
/// Returns everything a [`crate::worker::JobRequest`] needs besides
/// the sink.
pub(crate) fn admit_job(
    ctx: &Ctx,
    body: Value,
) -> Result<(u64, JobSpec, Objective, String), ServeError> {
    let spec = JobSpec::from_value(body).map_err(|e| ServeError::new(ErrorCode::BadJob, e))?;
    let objective = handler::validate_spec(&spec, &ctx.core.limits)?;
    let key = handler::cache_key(&spec);
    let id = ctx.core.registry.register();
    Ok((id, spec, objective, key))
}
