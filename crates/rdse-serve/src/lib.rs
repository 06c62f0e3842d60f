//! Long-running exploration service for the design-space explorer.
//!
//! `rdse-serve` turns the offline `explore` pipeline into a server:
//! clients submit exploration jobs over TCP and stream back
//! incremental Pareto-front updates followed by the final result.
//! Everything is built on `std::net` — no async runtime, no external
//! HTTP stack.
//!
//! # Architecture
//!
//! - [`protocol`] — the framed wire protocol: a 12-byte versioned
//!   header (`"RDSE"` magic, version, frame type, body length) and a
//!   UTF-8 JSON body. [`protocol::JobSpec`] is the job description.
//! - Two transports share one handler. Raw RPC speaks frames in both
//!   directions, and a connection carries any number of exchanges in
//!   sequence until the peer closes it or it idles for the read
//!   timeout; the [`client`] keeps each thread's connection open for
//!   its next request. The HTTP/1.1 adapter maps `POST /jobs`,
//!   `GET /jobs/<id>`, `GET /healthz` and `POST /shutdown` onto the
//!   same code paths, one request per connection, streaming job output
//!   as NDJSON. A fresh connection is classified by peeking its first
//!   four bytes.
//! - [`Server`] shards jobs across a fixed set of shard threads by
//!   hashing the job's `(app, arch)` content key. Each shard thread
//!   owns its state and drains its own job queue in submission order.
//!   It keeps those models cached, so repeat submissions skip model
//!   building — observable as `evaluator_cache_hits` in the health
//!   report. Every chain of every job builds its own evaluator. A
//!   panicking job is answered as `internal` and the shard keeps
//!   serving; shutdown closes the queues and joins the shards, so
//!   every admitted job replies first.
//! - With a result store, a job's read path is memo → exact →
//!   dominated → resolve → warm or miss. Each shard memoises the
//!   store-key [`rdse_store::PairPrefix`] of every `(app, arch)` spec
//!   it resolved (keyed by a 128-bit digest of the cache key, at most
//!   4 096 entries, cleared when full). A memoised job's exact and
//!   dominated lookups need neither its models nor their JSON; a hit
//!   returns at once and never touches the model cache, so it cannot
//!   evict a warm entry. Its `cache` field still reports whether the
//!   shard holds the models, counted once in `evaluator_cache_*`.
//!   Every other job resolves its models, hashes them once, and goes
//!   on to the exact, dominated and warm-start lookups.
//! - [`Limits`] bounds every request (frame size, tasks, devices,
//!   iteration budget, chains, concurrent sessions, socket timeouts);
//!   every violation is answered with a typed
//!   [`protocol::ServeError`] frame, never a panic or a silent drop.
//!
//! Results are **bit-identical** to the offline `rdse explore` for
//! the same `(seed, chains)`: jobs run the same deterministic
//! portfolio with in-job `threads: 1`.
//!
//! # Example
//!
//! ```
//! use rdse_serve::{client, protocol, ServeConfig, Server};
//!
//! let handle = Server::bind(ServeConfig::default()).unwrap().spawn().unwrap();
//! let addr = handle.addr().to_string();
//!
//! let spec = protocol::JobSpec {
//!     app: protocol::AppSpec::Builtin("motion".into()),
//!     arch: protocol::ArchSpec::Clbs(2000),
//!     objective: "makespan".into(),
//!     iters: 400,
//!     warmup: 100,
//!     seed: 1,
//!     chains: 1,
//!     exchange_every: 200,
//! };
//! let opts = client::ClientOptions::default();
//! let result = client::submit(&addr, &spec, &opts, |_update| {}).unwrap();
//! assert!(matches!(result.get("makespan_bits"), Some(serde::Value::Str(_))));
//!
//! client::shutdown(&addr, &opts).unwrap();
//! handle.join().unwrap();
//! ```

pub mod client;
pub mod handler;
pub mod limits;
pub mod protocol;
mod server;
mod transport;
mod worker;

pub use client::{ClientError, ClientOptions};
pub use limits::Limits;
pub use protocol::{
    AppSpec, ArchSpec, ErrorCode, FrameError, FrameType, JobSpec, ServeError, HEADER_LEN, MAGIC,
    VERSION,
};
pub use server::{ServeConfig, ServeStats, Server, ServerHandle};
pub use transport::FrameSink;
