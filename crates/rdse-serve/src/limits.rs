//! Per-request and per-server resource limits.

use std::time::Duration;

/// Everything the server refuses to exceed. Every violation is
/// answered with a typed error frame (see
/// [`ErrorCode`](crate::protocol::ErrorCode)) — never a panic, a hang
/// or a silent connection drop.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum frame body length in bytes (checked against the header
    /// *before* the body is read).
    pub max_frame_len: u32,
    /// Maximum tasks in a job's application.
    pub max_tasks: usize,
    /// Maximum devices (processors + DRLCs + ASICs) in a job's
    /// architecture.
    pub max_devices: usize,
    /// Maximum total iteration budget per job.
    pub max_iters: u64,
    /// Maximum portfolio chains per job.
    pub max_chains: usize,
    /// Maximum concurrent sessions: open connections, including RPC
    /// connections idle between requests, and HTTP connections whose
    /// job is queued or running.
    pub max_sessions: usize,
    /// Socket read timeout — a sender that stalls mid-frame (slow
    /// loris) is cut off with a `timeout` error frame, and an RPC
    /// connection that starts no request within it is closed without
    /// one.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_frame_len: 1 << 20, // 1 MiB
            max_tasks: 512,
            max_devices: 16,
            max_iters: 1_000_000,
            max_chains: 64,
            max_sessions: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
        }
    }
}
