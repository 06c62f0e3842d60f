//! The wire protocol: length-prefixed frames with a versioned header
//! and a JSON body.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "RDSE"
//! 4       2     protocol version, big-endian (currently 1)
//! 6       2     frame type, big-endian (see [`FrameType`])
//! 8       4     body length in bytes, big-endian
//! 12      len   body: UTF-8 JSON
//! ```
//!
//! Every malformed input decodes to a precise [`FrameError`] so the
//! server can answer with a typed error frame instead of dropping the
//! connection: wrong magic, unsupported version, unknown frame type,
//! a body longer than the receiver's limit, or a body that is not
//! valid JSON. A connection that dies mid-frame surfaces as
//! [`FrameError::Truncated`].

use serde::{Serialize, Value};
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"RDSE";
/// Protocol version carried in every header.
pub const VERSION: u16 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Frame discriminator. Requests are < 16, responses ≥ 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Request: submit a job ([`JobSpec`] body). Answered by a stream
    /// of `Update` frames followed by one `Result` or `Error` frame.
    Job,
    /// Request: health/stats probe (empty body).
    Health,
    /// Request: stop the server after in-flight jobs finish.
    Shutdown,
    /// Request: look up a job record (`{"job": <id>}` body).
    GetJob,
    /// Response: an incremental progress snapshot (streamed).
    Update,
    /// Response: the final job result.
    Result,
    /// Response: a typed error (`{"code": ..., "message": ...}`).
    Error,
    /// Response: health/stats report.
    HealthReply,
    /// Response: shutdown acknowledged.
    Bye,
    /// Response: a job registry record.
    JobRecord,
}

impl FrameType {
    /// Wire code of this frame type.
    pub fn code(self) -> u16 {
        match self {
            FrameType::Job => 1,
            FrameType::Health => 2,
            FrameType::Shutdown => 3,
            FrameType::GetJob => 4,
            FrameType::Update => 16,
            FrameType::Result => 17,
            FrameType::Error => 18,
            FrameType::HealthReply => 19,
            FrameType::Bye => 20,
            FrameType::JobRecord => 21,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u16) -> Option<FrameType> {
        Some(match code {
            1 => FrameType::Job,
            2 => FrameType::Health,
            3 => FrameType::Shutdown,
            4 => FrameType::GetJob,
            16 => FrameType::Update,
            17 => FrameType::Result,
            18 => FrameType::Error,
            19 => FrameType::HealthReply,
            20 => FrameType::Bye,
            21 => FrameType::JobRecord,
            _ => return None,
        })
    }
}

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic,
    /// The header carried an unsupported protocol version.
    BadVersion(u16),
    /// The header carried an unknown frame-type code.
    UnknownType(u16),
    /// The declared body length exceeds the receiver's limit.
    TooLarge {
        /// Declared body length.
        len: u32,
        /// The receiver's limit.
        max: u32,
    },
    /// The connection ended mid-header or mid-body.
    Truncated,
    /// The body was not valid UTF-8 JSON.
    BadJson(String),
    /// The read timed out (slow sender).
    TimedOut,
    /// Any other transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic (expected \"RDSE\")"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownType(c) => write!(f, "unknown frame type {c}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::BadJson(e) => write!(f, "frame body is not valid JSON: {e}"),
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Serializes `body` into a complete frame (header + JSON payload).
pub fn encode_frame(frame_type: FrameType, body: &Value) -> Vec<u8> {
    let json = serde_json::to_string(body).expect("Value serialization is infallible");
    let payload = json.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.extend_from_slice(&frame_type.code().to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame to `w`.
pub fn write_frame(w: &mut impl Write, frame_type: FrameType, body: &Value) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame_type, body))?;
    w.flush()
}

fn read_exact_frame(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(e),
    })
}

/// Reads one frame from `r`, rejecting bodies longer than `max_len`
/// bytes *before* reading them (so an attacker cannot make the
/// receiver allocate or read an arbitrary amount).
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<(FrameType, Value), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_frame(r, &mut header)?;
    if header[0..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let code = u16::from_be_bytes([header[6], header[7]]);
    let frame_type = FrameType::from_code(code).ok_or(FrameError::UnknownType(code))?;
    let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let mut body = vec![0u8; len as usize];
    read_exact_frame(r, &mut body)?;
    let text =
        std::str::from_utf8(&body).map_err(|_| FrameError::BadJson("body is not UTF-8".into()))?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| FrameError::BadJson(e.to_string()))?;
    Ok((frame_type, value))
}

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

/// Machine-readable cause carried by every error frame, stable across
/// both transports (the HTTP adapter maps these onto status codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame did not start with the protocol magic.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion,
    /// Unknown frame-type code, or a response type sent as a request.
    UnknownType,
    /// Declared body length exceeds the server's frame limit.
    FrameTooLarge,
    /// Connection closed mid-frame.
    Truncated,
    /// Body was not valid JSON.
    BadJson,
    /// Job spec was structurally invalid.
    BadJob,
    /// An inline model failed to decode or validate, or no search can
    /// start on it (an architecture without a processor).
    BadModel,
    /// `objective` spec failed to parse.
    BadObjective,
    /// Unknown builtin app or workload family.
    UnknownApp,
    /// Unknown architecture family.
    UnknownArch,
    /// Application exceeds the server's task limit.
    TooManyTasks,
    /// Architecture exceeds the server's device limit.
    TooManyDevices,
    /// Iteration budget exceeds the server's limit.
    OverBudget,
    /// Chain count is zero or exceeds the server's limit.
    TooManyChains,
    /// Concurrent-session limit reached.
    Busy,
    /// Read timed out (slow or stalled sender).
    Timeout,
    /// No job registry record with the requested id.
    UnknownJob,
    /// Malformed HTTP request (method/route/body framing).
    BadRequest,
    /// Client disconnected mid-stream; the job was aborted.
    Aborted,
    /// The exploration itself failed (infeasible models).
    Internal,
}

impl ErrorCode {
    /// Stable wire name, e.g. `over-budget`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::UnknownType => "unknown-type",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::Truncated => "truncated-frame",
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadJob => "bad-job",
            ErrorCode::BadModel => "bad-model",
            ErrorCode::BadObjective => "bad-objective",
            ErrorCode::UnknownApp => "unknown-app",
            ErrorCode::UnknownArch => "unknown-arch",
            ErrorCode::TooManyTasks => "too-many-tasks",
            ErrorCode::TooManyDevices => "too-many-devices",
            ErrorCode::OverBudget => "over-budget",
            ErrorCode::TooManyChains => "too-many-chains",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Aborted => "aborted",
            ErrorCode::Internal => "internal",
        }
    }

    /// HTTP status the adapter answers with for this code.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::Busy => 503,
            ErrorCode::Timeout => 408,
            ErrorCode::UnknownJob => 404,
            ErrorCode::FrameTooLarge => 413,
            ErrorCode::Internal | ErrorCode::Aborted => 500,
            _ => 400,
        }
    }
}

/// A typed failure: the body of every `Error` frame.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// Machine-readable cause.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// Builds an error from anything displayable.
    pub fn new(code: ErrorCode, message: impl std::fmt::Display) -> Self {
        ServeError {
            code,
            message: message.to_string(),
        }
    }

    /// The error-frame body: `{"type":"error","code":...,"message":...}`.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("type", Value::Str("error".into())),
            ("code", Value::Str(self.code.as_str().into())),
            ("message", Value::Str(self.message.clone())),
        ])
    }

    /// Maps a decode failure onto the matching typed error.
    pub fn from_frame_error(e: FrameError) -> ServeError {
        let code = match &e {
            FrameError::BadMagic => ErrorCode::BadMagic,
            FrameError::BadVersion(_) => ErrorCode::BadVersion,
            FrameError::UnknownType(_) => ErrorCode::UnknownType,
            FrameError::TooLarge { .. } => ErrorCode::FrameTooLarge,
            FrameError::Truncated => ErrorCode::Truncated,
            FrameError::BadJson(_) => ErrorCode::BadJson,
            FrameError::TimedOut => ErrorCode::Timeout,
            FrameError::Io(_) => ErrorCode::Truncated,
        };
        ServeError::new(code, e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

// ---------------------------------------------------------------------------
// Job specs
// ---------------------------------------------------------------------------

/// How a job names its application.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// A named builtin: `motion` or `figure1`.
    Builtin(String),
    /// A corpus workload family generated from a seed.
    Workload {
        /// Family name (see `rdse corpus list`), e.g. `layered-5x4`.
        family: String,
        /// Generation seed.
        seed: u64,
    },
    /// A full inline task-graph model (the `TaskGraph` JSON shape).
    Inline(Value),
}

/// How a job names its architecture.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchSpec {
    /// The paper's Epicure platform with this many CLBs.
    Clbs(u32),
    /// A corpus platform template drawn from a seed.
    Family {
        /// Template name, e.g. `epicure` or `dual-fpga`.
        family: String,
        /// Parameter-draw seed.
        seed: u64,
    },
    /// A full inline architecture model (the `Architecture` JSON shape).
    Inline(Value),
}

/// A complete exploration job: what to explore and with what budget.
/// The canonical JSON shape (produced by [`JobSpec::to_value`] and
/// accepted by [`JobSpec::from_value`]) is:
///
/// ```json
/// {"app": {"builtin": "motion"},
///  "arch": {"clbs": 2000},
///  "objective": "makespan",
///  "iters": 3000, "warmup": 600, "seed": 1,
///  "chains": 4, "exchange_every": 250}
/// ```
///
/// `app` alternatives: `{"workload": "layered-5x4", "seed": 3}` or
/// `{"inline": {...}}`; `arch` alternatives:
/// `{"family": "dual-fpga", "seed": 3}` or `{"inline": {...}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The application to map.
    pub app: AppSpec,
    /// The platform to map onto.
    pub arch: ArchSpec,
    /// Objective spec string (the `--objective` grammar).
    pub objective: String,
    /// Total iteration budget across all chains.
    pub iters: u64,
    /// Warm-up iterations (scaled per chain like the CLI).
    pub warmup: u64,
    /// Master RNG seed.
    pub seed: u64,
    /// Portfolio chain count (≥ 1; results depend on it).
    pub chains: usize,
    /// Per-chain iterations between exchanges (0 = independent).
    pub exchange_every: u64,
}

impl JobSpec {
    /// Renders the canonical JSON body of a `Job` frame.
    pub fn to_value(&self) -> Value {
        let app = match &self.app {
            AppSpec::Builtin(name) => obj(vec![("builtin", Value::Str(name.clone()))]),
            AppSpec::Workload { family, seed } => obj(vec![
                ("workload", Value::Str(family.clone())),
                ("seed", seed.to_value()),
            ]),
            AppSpec::Inline(model) => obj(vec![("inline", model.clone())]),
        };
        let arch = match &self.arch {
            ArchSpec::Clbs(n) => obj(vec![("clbs", n.to_value())]),
            ArchSpec::Family { family, seed } => obj(vec![
                ("family", Value::Str(family.clone())),
                ("seed", seed.to_value()),
            ]),
            ArchSpec::Inline(model) => obj(vec![("inline", model.clone())]),
        };
        obj(vec![
            ("app", app),
            ("arch", arch),
            ("objective", Value::Str(self.objective.clone())),
            ("iters", self.iters.to_value()),
            ("warmup", self.warmup.to_value()),
            ("seed", self.seed.to_value()),
            ("chains", self.chains.to_value()),
            ("exchange_every", self.exchange_every.to_value()),
        ])
    }

    /// Parses a `Job` frame body. Structural validation only — family
    /// names, objective grammar and limits are checked by the server's
    /// job validation, which produces more specific error codes.
    ///
    /// Takes the body by value so an inline model is moved out of it,
    /// not copied.
    pub fn from_value(mut v: Value) -> Result<JobSpec, String> {
        let mut app_v = take(&mut v, "app").ok_or("missing field 'app'")?;
        let app = if let Some(name) = app_v.get("builtin") {
            AppSpec::Builtin(as_str(name, "app.builtin")?)
        } else if let Some(family) = app_v.get("workload") {
            AppSpec::Workload {
                family: as_str(family, "app.workload")?,
                seed: get_u64(&app_v, "seed", 1)?,
            }
        } else if let Some(model) = take(&mut app_v, "inline") {
            AppSpec::Inline(model)
        } else {
            return Err("'app' must carry 'builtin', 'workload' or 'inline'".into());
        };
        let mut arch_v = take(&mut v, "arch").ok_or("missing field 'arch'")?;
        let arch = if let Some(clbs) = arch_v.get("clbs") {
            ArchSpec::Clbs(
                u32::try_from(as_u64(clbs, "arch.clbs")?)
                    .map_err(|_| "'arch.clbs' out of range".to_string())?,
            )
        } else if let Some(family) = arch_v.get("family") {
            ArchSpec::Family {
                family: as_str(family, "arch.family")?,
                seed: get_u64(&arch_v, "seed", 1)?,
            }
        } else if let Some(model) = take(&mut arch_v, "inline") {
            ArchSpec::Inline(model)
        } else {
            return Err("'arch' must carry 'clbs', 'family' or 'inline'".into());
        };
        let objective = match v.get("objective") {
            None => "makespan".to_string(),
            Some(o) => as_str(o, "objective")?,
        };
        Ok(JobSpec {
            app,
            arch,
            objective,
            iters: get_u64(&v, "iters", 5_000)?,
            warmup: get_u64(&v, "warmup", 1_200)?,
            seed: get_u64(&v, "seed", 1)?,
            chains: usize::try_from(get_u64(&v, "chains", 1)?)
                .map_err(|_| "'chains' out of range".to_string())?,
            exchange_every: get_u64(&v, "exchange_every", 500)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Value helpers
// ---------------------------------------------------------------------------

/// Builds a JSON object from `(key, value)` pairs (insertion order is
/// preserved on the wire).
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Moves the value of `key` out of the object `v`, leaving `null`: the
/// first occurrence, the one [`Value::get`] reads.
fn take(v: &mut Value, key: &str) -> Option<Value> {
    match v {
        Value::Map(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, value)| std::mem::replace(value, Value::Null)),
        _ => None,
    }
}

fn as_str(v: &Value, field: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("'{field}' must be a string, got {other:?}")),
    }
}

fn as_u64(v: &Value, field: &str) -> Result<u64, String> {
    match v {
        Value::I64(n) if *n >= 0 => Ok(*n as u64),
        Value::U64(n) => Ok(*n),
        other => Err(format!(
            "'{field}' must be a non-negative integer, got {other:?}"
        )),
    }
}

fn get_u64(v: &Value, field: &str, default: u64) -> Result<u64, String> {
    match v.get(field) {
        None => Ok(default),
        Some(n) => as_u64(n, field),
    }
}

/// Reads `field` from an object as `u64`, erroring when absent.
pub fn require_u64(v: &Value, field: &str) -> Result<u64, String> {
    v.get(field)
        .ok_or_else(|| format!("missing field '{field}'"))
        .and_then(|n| as_u64(n, field))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let body = obj(vec![("x", Value::I64(7))]);
        let bytes = encode_frame(FrameType::Job, &body);
        let (t, v) = read_frame(&mut &bytes[..], 1024).unwrap();
        assert_eq!(t, FrameType::Job);
        assert_eq!(v, body);
    }

    #[test]
    fn oversized_frame_is_rejected_before_body_read() {
        let body = obj(vec![("pad", Value::Str("x".repeat(100)))]);
        let bytes = encode_frame(FrameType::Job, &body);
        // Limit below the declared length: only the header is consumed.
        let mut reader = &bytes[..];
        match read_frame(&mut reader, 10) {
            Err(FrameError::TooLarge { len, max: 10 }) => assert!(len > 10),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(reader.len(), bytes.len() - HEADER_LEN);
    }

    #[test]
    fn bad_magic_and_truncation_are_distinguished() {
        assert!(matches!(
            read_frame(&mut &b"XXXXXXXXXXXX"[..], 1024),
            Err(FrameError::BadMagic)
        ));
        let bytes = encode_frame(FrameType::Health, &Value::Map(vec![]));
        assert!(matches!(
            read_frame(&mut &bytes[..HEADER_LEN + 1], 1024),
            Err(FrameError::Truncated)
        ));
        assert!(matches!(
            read_frame(&mut &bytes[..5], 1024),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn jobspec_roundtrips_through_value() {
        let spec = JobSpec {
            app: AppSpec::Workload {
                family: "layered-5x4".into(),
                seed: 3,
            },
            arch: ArchSpec::Family {
                family: "dual-fpga".into(),
                seed: 3,
            },
            objective: "lexi:makespan,area".into(),
            iters: 1234,
            warmup: 99,
            seed: 42,
            chains: 4,
            exchange_every: 250,
        };
        let v = spec.to_value();
        assert_eq!(JobSpec::from_value(v.clone()).unwrap(), spec);
        // And through the actual wire bytes.
        let bytes = encode_frame(FrameType::Job, &v);
        let (_, back) = read_frame(&mut &bytes[..], 1 << 20).unwrap();
        assert_eq!(back, v);
    }
}
