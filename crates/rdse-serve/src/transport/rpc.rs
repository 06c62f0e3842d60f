//! The raw RPC transport: one request frame per connection, answered
//! by one reply frame — except jobs, which stream `Update` frames
//! until the final `Result` (or `Error`).

use super::{admit_job, FrameSink};
use crate::protocol::{
    obj, read_frame, require_u64, write_frame, ErrorCode, FrameType, ServeError,
};
use crate::server::{Ctx, JobState, SessionPermit};
use crate::worker::JobRequest;
use serde::Value;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

pub(crate) struct RpcSink {
    stream: TcpStream,
    dead: bool,
}

impl RpcSink {
    fn send(&mut self, frame_type: FrameType, body: &Value) {
        if !self.dead && write_frame(&mut self.stream, frame_type, body).is_err() {
            self.dead = true;
        }
    }
}

impl FrameSink for RpcSink {
    fn send_update(&mut self, body: &Value) -> bool {
        self.send(FrameType::Update, body);
        !self.dead
    }

    fn send_result(&mut self, body: &Value) {
        self.send(FrameType::Result, body);
    }

    fn send_error(&mut self, err: &ServeError) {
        self.send(FrameType::Error, &err.to_value());
    }

    fn finish(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

fn reply_error(stream: &mut TcpStream, err: &ServeError) {
    let _ = write_frame(stream, FrameType::Error, &err.to_value());
}

pub(crate) fn handle(mut stream: TcpStream, ctx: &Arc<Ctx>, permit: SessionPermit) {
    let (frame_type, body) = match read_frame(&mut stream, ctx.core.limits.max_frame_len) {
        Ok(x) => x,
        Err(e) => {
            reply_error(&mut stream, &ServeError::from_frame_error(e));
            return;
        }
    };
    match frame_type {
        FrameType::Health => {
            let _ = write_frame(&mut stream, FrameType::HealthReply, &ctx.health_value());
        }
        FrameType::Shutdown => {
            let bye = obj(vec![
                ("type", Value::Str("bye".into())),
                ("status", Value::Str("shutting-down".into())),
            ]);
            let _ = write_frame(&mut stream, FrameType::Bye, &bye);
            ctx.request_shutdown();
        }
        FrameType::GetJob => match require_u64(&body, "job") {
            Ok(id) => match ctx.core.registry.record_value(id) {
                Some(record) => {
                    let _ = write_frame(&mut stream, FrameType::JobRecord, &record);
                }
                None => reply_error(
                    &mut stream,
                    &ServeError::new(ErrorCode::UnknownJob, format!("no record of job {id}")),
                ),
            },
            Err(e) => reply_error(&mut stream, &ServeError::new(ErrorCode::BadRequest, e)),
        },
        FrameType::Job => match admit_job(ctx, body) {
            Ok((id, spec, objective, key)) => {
                let req = Box::new(JobRequest {
                    id,
                    spec,
                    objective,
                    key,
                    sink: Box::new(RpcSink {
                        stream,
                        dead: false,
                    }),
                    permit: Some(permit),
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
                reply_error(&mut stream, &err);
            }
        },
        _ => reply_error(
            &mut stream,
            &ServeError::new(
                ErrorCode::UnknownType,
                format!("{frame_type:?} is a response type, not a request"),
            ),
        ),
    }
}
