//! The raw RPC transport. A connection is a session that carries any
//! number of request/reply exchanges in sequence: each request frame
//! is answered by one reply frame, except a job, which streams
//! `Update` frames until its final `Result` (or `Error`). While a job
//! runs, its sink owns the socket; finishing hands it back to the
//! session, which then waits for the next request.
//!
//! A session ends when the peer closes, on a frame error, after a
//! `Shutdown`, when the server drains, or when no request starts
//! within the read timeout. An idle session closes without writing a
//! frame, so a client never reads a reply it did not ask for.

use super::{admit_job, FrameSink};
use crate::protocol::{
    obj, read_frame, require_u64, write_frame, ErrorCode, FrameType, ServeError,
};
use crate::server::{Ctx, JobState, SessionPermit};
use crate::worker::JobRequest;
use serde::Value;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;

pub(crate) struct RpcSink {
    /// `None` once a write failed: the client is gone, and the session
    /// ends when the sink drops without handing a socket back.
    stream: Option<TcpStream>,
    session: SyncSender<TcpStream>,
}

impl RpcSink {
    fn send(&mut self, frame_type: FrameType, body: &Value) {
        if let Some(stream) = &mut self.stream {
            if write_frame(stream, frame_type, body).is_err() {
                self.stream = None;
            }
        }
    }
}

impl FrameSink for RpcSink {
    fn send_update(&mut self, body: &Value) -> bool {
        self.send(FrameType::Update, body);
        self.stream.is_some()
    }

    fn send_result(&mut self, body: &Value) {
        self.send(FrameType::Result, body);
    }

    fn send_error(&mut self, err: &ServeError) {
        self.send(FrameType::Error, &err.to_value());
    }

    fn finish(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = self.session.send(stream);
        }
    }
}

fn reply_error(stream: &mut TcpStream, err: &ServeError) -> io::Result<()> {
    write_frame(stream, FrameType::Error, &err.to_value())
}

/// Serves one session. The permit is held until the session ends, idle
/// waits included.
pub(crate) fn handle(mut stream: TcpStream, ctx: &Arc<Ctx>, _permit: SessionPermit) {
    let tracked = ctx.sessions.track(&stream);
    loop {
        match exchange(stream, ctx) {
            Some(back) => stream = back,
            None => return,
        }
        if tracked.is_none() || !await_request(&mut stream) {
            return;
        }
    }
}

/// Waits for the first byte of the next request; `false` when the peer
/// closed, the socket failed or no byte came within the read timeout.
fn await_request(stream: &mut TcpStream) -> bool {
    match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n > 0,
        Err(_) => {
            #[cfg(rdse_fault = "rpc_idle_close_writes_timeout")]
            let _ = reply_error(
                stream,
                &ServeError::new(ErrorCode::Timeout, "session idle past the read timeout"),
            );
            false
        }
    }
}

/// Answers one request. Returns the socket if the session goes on.
fn exchange(mut stream: TcpStream, ctx: &Arc<Ctx>) -> Option<TcpStream> {
    let (frame_type, body) = match read_frame(&mut stream, ctx.core.limits.max_frame_len) {
        Ok(x) => x,
        Err(e) => {
            let _ = reply_error(&mut stream, &ServeError::from_frame_error(e));
            return None;
        }
    };
    let sent = match frame_type {
        FrameType::Health => write_frame(&mut stream, FrameType::HealthReply, &ctx.health_value()),
        FrameType::Shutdown => {
            let bye = obj(vec![
                ("type", Value::Str("bye".into())),
                ("status", Value::Str("shutting-down".into())),
            ]);
            let _ = write_frame(&mut stream, FrameType::Bye, &bye);
            ctx.request_shutdown();
            return None;
        }
        FrameType::GetJob => match require_u64(&body, "job") {
            Ok(id) => match ctx.core.registry.record_value(id) {
                Some(record) => write_frame(&mut stream, FrameType::JobRecord, &record),
                None => reply_error(
                    &mut stream,
                    &ServeError::new(ErrorCode::UnknownJob, format!("no record of job {id}")),
                ),
            },
            Err(e) => reply_error(&mut stream, &ServeError::new(ErrorCode::BadRequest, e)),
        },
        FrameType::Job => match admit_job(ctx, body) {
            Ok((id, spec, objective, key)) => {
                let (session, back) = mpsc::sync_channel(1);
                let req = Box::new(JobRequest {
                    id,
                    spec,
                    objective,
                    key,
                    sink: Box::new(RpcSink {
                        stream: Some(stream),
                        session,
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
                return back.recv().ok();
            }
            Err(err) => {
                ctx.core.stats.jobs_failed.fetch_add(1, Relaxed);
                reply_error(&mut stream, &err)
            }
        },
        _ => reply_error(
            &mut stream,
            &ServeError::new(
                ErrorCode::UnknownType,
                format!("{frame_type:?} is a response type, not a request"),
            ),
        ),
    };
    sent.is_ok().then_some(stream)
}
