//! Persistent result store: a content-addressed, append-only archive
//! of completed explorations.
//!
//! The serving layer recomputes every job from a cold initial solution
//! even when an identical or near-identical job was already explored.
//! This crate removes that waste with one file and three read paths:
//!
//! 1. **Exact hit** — a job whose resolved content hashes to an
//!    archived [`StoreKey`] is answered from the archive with its
//!    original `f64` bit patterns, no search at all.
//! 2. **Dominated hit** — a job over an archived `(app, arch)` pair and
//!    objective whose budget is ≤ an archived run's is answered by that
//!    run's Pareto front in O(lookup).
//! 3. **Warm start** — everything else over a known pair seeds chain 0
//!    of the new exploration with the best archived winner, converging
//!    to the cold run's quality in far fewer iterations.
//!
//! # Layout
//!
//! - [`key`] — 128-bit FNV-1a content hashes ([`StoreKey`], [`PairKey`])
//!   over the *resolved* job, tagged and length-prefixed per field. A
//!   [`PairPrefix`] is the hash state after the models, so one pass over
//!   their JSON yields both keys.
//! - [`record`] — the persisted form of one run ([`StoreRecord`]): every
//!   `f64` as raw bits, the winning mapping as index-only JSON. The
//!   archive keeps each one as an [`ArchivedRecord`], the mapping held as
//!   JSON text (about an eighth of its `Value` tree's heap) and parsed
//!   only when a warm start seeds from it.
//! - [`log`] — the append-only file format: length-prefixed frames in
//!   the serve protocol's framing discipline, each body checksummed
//!   with XXH64 (format version 2; version 1 frames, checksummed with
//!   FNV-1a 64, still replay, and compaction rewrites them as
//!   version 2). [`log::scan`] replays them, slices each mapping's text
//!   out of its body as written, resyncs past mid-log damage and
//!   tolerates a torn tail.
//! - [`archive`] — the in-memory [`Archive`] replay rebuilds, with the
//!   three deterministic queries above.
//! - [`store`] — [`ResultStore`]: open/replay, append under a
//!   [`SyncPolicy`], atomic [`compaction`](ResultStore::compact) and
//!   read-only [`verification`](store::verify).
//!
//! # Durability
//!
//! Appends are length-prefixed and checksummed, so a crash mid-write
//! leaves a tail that replay detects, reports and skips — never a
//! panic, never a poisoned archive. Damage in the middle of a log costs
//! only the damaged bytes: replay resyncs to the next intact frame,
//! reports the skipped span, and no intact record is truncated away
//! (compaction drops the span). The [`SyncPolicy`] knob trades
//! fsync cost for the window of appends an OS crash could lose; the
//! `store_sync` rows of `rdse-bench`'s `ratios` bench measure the
//! trade.
//!
//! # Example
//!
//! ```
//! use rdse_store::{KeySpec, ResultStore, StoreRecord, CostBits, SyncPolicy};
//! use serde::Value;
//!
//! let spec = KeySpec {
//!     app_json: r#"{"tasks":[]}"#,
//!     arch_json: r#"{"clbs":2000}"#,
//!     objective: "makespan",
//!     seed: 1, iters: 3000, warmup: 600, chains: 4, exchange_every: 250,
//! };
//! let mut store = ResultStore::in_memory(SyncPolicy::Never);
//! store.append(StoreRecord {
//!     key: spec.key(), pair: spec.pair(), objective: "makespan".into(),
//!     seed: 1, chains: 4, iters: 3000, warmup: 600, exchange_every: 250,
//!     winner: 0, iterations: 3000, contexts: 2, hw_tasks: 5, clb_area: 800,
//!     makespan_bits: 123.5f64.to_bits(),
//!     best: CostBits::from_values(123.5, 800.0, 10.0, 2.0),
//!     front: vec![CostBits::from_values(123.5, 800.0, 10.0, 2.0)],
//!     mapping: Value::Map(vec![]),
//! })?;
//! let hit = store.archive().exact(&spec.key()).expect("archived");
//! assert_eq!(hit.makespan().to_bits(), 123.5f64.to_bits());
//! // The mapping is held as text; a warm start parses it on demand.
//! assert_eq!(hit.mapping_json(), "{}");
//! assert_eq!(hit.mapping(), Value::Map(vec![]));
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod archive;
pub mod key;
pub mod log;
pub mod record;
pub mod store;

pub use archive::Archive;
pub use key::{fnv1a128, KeySpec, PairKey, PairPrefix, SearchKnobs, StoreKey};
pub use log::{ReplayReport, SkippedSpan, TailIssue};
pub use record::{ArchivedRecord, CostBits, StoreRecord};
pub use store::{verify, CompactReport, ResultStore, SyncPolicy};
