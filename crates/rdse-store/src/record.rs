//! The archived form of one completed exploration.
//!
//! A [`StoreRecord`] captures everything needed to (a) answer the same
//! query again **bit-identically** and (b) seed a new exploration's
//! chain 0 with the archived winner. Every `f64` is persisted as its
//! raw IEEE-754 bit pattern (a `u64`), never as decimal text, so a
//! record survives any number of serialize → replay round trips with
//! its original bits; the winning mapping itself contains only indices
//! and is stored as its plain JSON value.
//!
//! The archive holds each record as an [`ArchivedRecord`]: the same
//! fields, but the mapping kept as JSON text. A mapping's `Value` tree
//! costs about 8x its text in heap (7.4 KB against 879 B for a 20-task
//! layered mapping, 62 KB against 7.7 KB for 200 tasks, counting
//! allocator chunk overhead), and only a warm start ever reads it, so
//! the tree is built on demand by [`ArchivedRecord::mapping`]. Replay
//! never builds it at all: [`ArchivedRecord::from_body`] slices the
//! mapping's text out of the log body as written.

use crate::key::{PairKey, StoreKey};
use serde::{Deserialize, Serialize, Value};

/// One cost vector with every axis as raw `f64` bits — the lossless
/// persisted form of a Pareto-front member or a winner's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostBits {
    /// Bits of the makespan (µs).
    pub makespan: u64,
    /// Bits of the peak context CLB occupancy.
    pub clb_area: u64,
    /// Bits of the reconfiguration overhead (µs).
    pub reconfig: u64,
    /// Bits of the context count.
    pub contexts: u64,
}

impl CostBits {
    /// Packs four axis values into their bit patterns.
    pub fn from_values(makespan: f64, clb_area: f64, reconfig: f64, contexts: f64) -> Self {
        CostBits {
            makespan: makespan.to_bits(),
            clb_area: clb_area.to_bits(),
            reconfig: reconfig.to_bits(),
            contexts: contexts.to_bits(),
        }
    }

    /// The makespan axis, reconstructed bit-exactly.
    pub fn makespan_f64(&self) -> f64 {
        f64::from_bits(self.makespan)
    }

    /// The CLB-area axis, reconstructed bit-exactly.
    pub fn clb_area_f64(&self) -> f64 {
        f64::from_bits(self.clb_area)
    }

    /// The reconfiguration-overhead axis, reconstructed bit-exactly.
    pub fn reconfig_f64(&self) -> f64 {
        f64::from_bits(self.reconfig)
    }

    /// The context-count axis, reconstructed bit-exactly.
    pub fn contexts_f64(&self) -> f64 {
        f64::from_bits(self.contexts)
    }
}

/// One completed exploration: identity, knobs, summary, Pareto front
/// and the winning mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreRecord {
    /// Full content key (see [`crate::KeySpec::key`]).
    pub key: StoreKey,
    /// `(app, arch)` grouping key (see [`crate::KeySpec::pair`]).
    pub pair: PairKey,
    /// Canonical objective description.
    pub objective: String,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Portfolio chain count.
    pub chains: u64,
    /// Total iteration budget.
    pub iters: u64,
    /// Warm-up iterations.
    pub warmup: u64,
    /// Per-chain iterations between exchanges.
    pub exchange_every: u64,
    /// Index of the winning chain.
    pub winner: u64,
    /// Iterations actually executed, summed across chains.
    pub iterations: u64,
    /// Context count of the winning mapping.
    pub contexts: u64,
    /// Hardware-task count of the winning mapping.
    pub hw_tasks: u64,
    /// Peak context CLB occupancy of the winning mapping.
    pub clb_area: u64,
    /// Raw bits of the winning makespan (µs).
    pub makespan_bits: u64,
    /// Full cost vector of the winner, as bits.
    pub best: CostBits,
    /// The portfolio Pareto front, sorted by ascending makespan bits'
    /// numeric value, each member as bits.
    pub front: Vec<CostBits>,
    /// The winning mapping's JSON value (indices only — lossless).
    pub mapping: Value,
}

impl StoreRecord {
    /// The winning makespan, reconstructed bit-exactly.
    pub fn makespan(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }
}

/// The archive's form of a [`StoreRecord`]: identical fields, with the
/// winning mapping held as JSON text instead of a `Value` tree.
///
/// Built from a [`StoreRecord`] (the text is what `serde_json::to_string`
/// writes for its mapping) or replayed from a log body by
/// [`from_body`](Self::from_body) (the text is the body's mapping bytes
/// as written). For logs this crate wrote, the two are the same bytes.
/// Either way [`to_record`](Self::to_record) gives the record back.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchivedRecord {
    /// Full content key (see [`crate::KeySpec::key`]).
    pub key: StoreKey,
    /// `(app, arch)` grouping key (see [`crate::KeySpec::pair`]).
    pub pair: PairKey,
    /// Canonical objective description.
    pub objective: String,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Portfolio chain count.
    pub chains: u64,
    /// Total iteration budget.
    pub iters: u64,
    /// Warm-up iterations.
    pub warmup: u64,
    /// Per-chain iterations between exchanges.
    pub exchange_every: u64,
    /// Index of the winning chain.
    pub winner: u64,
    /// Iterations actually executed, summed across chains.
    pub iterations: u64,
    /// Context count of the winning mapping.
    pub contexts: u64,
    /// Hardware-task count of the winning mapping.
    pub hw_tasks: u64,
    /// Peak context CLB occupancy of the winning mapping.
    pub clb_area: u64,
    /// Raw bits of the winning makespan (µs).
    pub makespan_bits: u64,
    /// Full cost vector of the winner, as bits.
    pub best: CostBits,
    /// The portfolio Pareto front, as in [`StoreRecord::front`].
    pub front: Vec<CostBits>,
    mapping_json: Box<str>,
}

impl ArchivedRecord {
    /// The winning makespan, reconstructed bit-exactly.
    pub fn makespan(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }

    /// The winning mapping's compact JSON text.
    pub fn mapping_json(&self) -> &str {
        &self.mapping_json
    }

    /// Parses the winning mapping's JSON value.
    pub fn mapping(&self) -> Value {
        serde_json::from_str(&self.mapping_json).expect("archived mapping text is checked JSON")
    }

    /// The full record, mapping parsed back into its `Value` tree.
    pub fn to_record(&self) -> StoreRecord {
        self.record_with(self.mapping())
    }

    /// The log body for this record: byte-identical to the one
    /// [`crate::log::encode_record`] writes for [`to_record`](Self::to_record),
    /// without building the mapping tree.
    pub(crate) fn body(&self) -> String {
        let text = serde_json::to_string(&self.record_with(Value::Null).to_value())
            .expect("Value serialization is infallible");
        // `mapping` is the record's last field: swap its `null` for the
        // archived text.
        let head = text
            .strip_suffix("null}")
            .expect("the mapping field renders last");
        [head, &self.mapping_json, "}"].concat()
    }

    fn record_with(&self, mapping: Value) -> StoreRecord {
        StoreRecord {
            key: self.key,
            pair: self.pair,
            objective: self.objective.clone(),
            seed: self.seed,
            chains: self.chains,
            iters: self.iters,
            warmup: self.warmup,
            exchange_every: self.exchange_every,
            winner: self.winner,
            iterations: self.iterations,
            contexts: self.contexts,
            hw_tasks: self.hw_tasks,
            clb_area: self.clb_area,
            makespan_bits: self.makespan_bits,
            best: self.best,
            front: self.front.clone(),
            mapping,
        }
    }
}

impl From<StoreRecord> for ArchivedRecord {
    fn from(r: StoreRecord) -> Self {
        let mapping_json = serde_json::to_string(&r.mapping)
            .expect("Value serialization is infallible")
            .into_boxed_str();
        ArchivedRecord::with_mapping_text(r, mapping_json)
    }
}

impl ArchivedRecord {
    /// Decodes one log body (a JSON record as [`crate::log`] frames it)
    /// without building the mapping's `Value` tree: every other field is
    /// decoded as usual, and the mapping's text is checked by the JSON
    /// parser's rules and kept as the body's exact bytes.
    ///
    /// # Errors
    ///
    /// Whatever decoding the body as a [`StoreRecord`] rejects: malformed
    /// JSON anywhere in it (the mapping included), a missing or
    /// ill-typed field.
    pub fn from_body(body: &str) -> Result<Self, serde_json::Error> {
        let (head, mapping_json) = serde_json::from_str_raw_field::<StoreRecord>(body, "mapping")?;
        #[cfg(rdse_fault = "store_raw_span_short")]
        let mapping_json = &mapping_json[..mapping_json.len() - 1];
        Ok(ArchivedRecord::with_mapping_text(head, mapping_json.into()))
    }

    /// `r`'s fields with `mapping_json` for its mapping (`r.mapping` is
    /// dropped unread).
    fn with_mapping_text(r: StoreRecord, mapping_json: Box<str>) -> Self {
        ArchivedRecord {
            key: r.key,
            pair: r.pair,
            objective: r.objective,
            seed: r.seed,
            chains: r.chains,
            iters: r.iters,
            warmup: r.warmup,
            exchange_every: r.exchange_every,
            winner: r.winner,
            iterations: r.iterations,
            contexts: r.contexts,
            hw_tasks: r.hw_tasks,
            clb_area: r.clb_area,
            makespan_bits: r.makespan_bits,
            best: r.best,
            front: r.front,
            mapping_json,
        }
    }
}
