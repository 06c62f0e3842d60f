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
//! the tree is built on demand by [`ArchivedRecord::mapping`].
//!
//! Replay builds no tree at all: [`ArchivedRecord::from_body`] walks a
//! log body once with a [`serde_json::Reader`], decodes each head field
//! (keys, knobs, winner, `best` and the Pareto `front`) straight into
//! its slot and slices the mapping's text out of the body as written.

use crate::key::{PairKey, StoreKey};
use serde::{Deserialize, Serialize, Value};
use serde_json::{Error as JsonError, Reader};

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
        ArchivedRecord {
            mapping_json: serde_json::to_string(&r.mapping)
                .expect("Value serialization is infallible")
                .into_boxed_str(),
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
        }
    }
}

impl ArchivedRecord {
    /// Decodes one log body (a JSON record as [`crate::log`] frames it)
    /// in one pass, straight into the record's fields: no `Value` tree
    /// is built for any part of it. Scalars decode through their
    /// [`Deserialize`] impls as [`StoreRecord`]'s would, and the
    /// mapping's text is checked by the JSON parser's rules and kept as
    /// the body's exact bytes.
    ///
    /// Fields follow [`Value::get`]'s rules: the first occurrence of a
    /// key counts, and repeated and unknown keys are checked, then
    /// ignored.
    ///
    /// # Errors
    ///
    /// Whatever decoding the body as a [`StoreRecord`] rejects: malformed
    /// JSON anywhere in it (the mapping included), a missing or
    /// ill-typed field.
    pub fn from_body(body: &str) -> Result<Self, serde_json::Error> {
        let mut r = Reader::new(body);
        let mut head = Head::default();
        r.object(|r, field| head.read(r, field))?;
        r.end()?;
        head.finish()
    }
}

/// One slot per field of a log body, filled by the field's first
/// occurrence.
#[derive(Default)]
struct Head<'b> {
    key: Option<StoreKey>,
    pair: Option<PairKey>,
    objective: Option<String>,
    seed: Option<u64>,
    chains: Option<u64>,
    iters: Option<u64>,
    warmup: Option<u64>,
    exchange_every: Option<u64>,
    winner: Option<u64>,
    iterations: Option<u64>,
    contexts: Option<u64>,
    hw_tasks: Option<u64>,
    clb_area: Option<u64>,
    makespan_bits: Option<u64>,
    best: Option<CostBits>,
    front: Option<Vec<CostBits>>,
    mapping: Option<&'b str>,
}

impl<'b> Head<'b> {
    fn read(&mut self, r: &mut Reader<'b>, field: &str) -> Result<(), JsonError> {
        match field {
            "key" => fill(&mut self.key, r, Reader::leaf),
            "pair" => fill(&mut self.pair, r, Reader::leaf),
            "objective" => fill(&mut self.objective, r, Reader::leaf),
            "seed" => fill(&mut self.seed, r, Reader::leaf),
            "chains" => fill(&mut self.chains, r, Reader::leaf),
            "iters" => fill(&mut self.iters, r, Reader::leaf),
            "warmup" => fill(&mut self.warmup, r, Reader::leaf),
            "exchange_every" => fill(&mut self.exchange_every, r, Reader::leaf),
            "winner" => fill(&mut self.winner, r, Reader::leaf),
            "iterations" => fill(&mut self.iterations, r, Reader::leaf),
            "contexts" => fill(&mut self.contexts, r, Reader::leaf),
            "hw_tasks" => fill(&mut self.hw_tasks, r, Reader::leaf),
            "clb_area" => fill(&mut self.clb_area, r, Reader::leaf),
            "makespan_bits" => fill(&mut self.makespan_bits, r, Reader::leaf),
            "best" => fill(&mut self.best, r, cost_bits),
            "front" => fill(&mut self.front, r, |r| {
                let mut front = Vec::new();
                r.array(|r| {
                    front.push(cost_bits(r)?);
                    Ok(())
                })?;
                Ok(front)
            }),
            "mapping" => fill(&mut self.mapping, r, Reader::raw),
            _ => r.skip(),
        }
    }

    fn finish(self) -> Result<ArchivedRecord, JsonError> {
        let mapping = required(self.mapping, "mapping")?;
        #[cfg(rdse_fault = "store_raw_span_short")]
        let mapping = &mapping[..mapping.len() - 1];
        Ok(ArchivedRecord {
            key: required(self.key, "key")?,
            pair: required(self.pair, "pair")?,
            objective: required(self.objective, "objective")?,
            seed: required(self.seed, "seed")?,
            chains: required(self.chains, "chains")?,
            iters: required(self.iters, "iters")?,
            warmup: required(self.warmup, "warmup")?,
            exchange_every: required(self.exchange_every, "exchange_every")?,
            winner: required(self.winner, "winner")?,
            iterations: required(self.iterations, "iterations")?,
            contexts: required(self.contexts, "contexts")?,
            hw_tasks: required(self.hw_tasks, "hw_tasks")?,
            clb_area: required(self.clb_area, "clb_area")?,
            makespan_bits: required(self.makespan_bits, "makespan_bits")?,
            best: required(self.best, "best")?,
            front: required(self.front, "front")?,
            mapping_json: mapping.into(),
        })
    }
}

/// Decodes a [`CostBits`] object by the same rules as a record's head.
fn cost_bits(r: &mut Reader<'_>) -> Result<CostBits, JsonError> {
    let [mut makespan, mut clb_area, mut reconfig, mut contexts] = [None; 4];
    r.object(|r, field| match field {
        "makespan" => fill(&mut makespan, r, Reader::leaf),
        "clb_area" => fill(&mut clb_area, r, Reader::leaf),
        "reconfig" => fill(&mut reconfig, r, Reader::leaf),
        "contexts" => fill(&mut contexts, r, Reader::leaf),
        _ => r.skip(),
    })?;
    Ok(CostBits {
        makespan: required(makespan, "makespan")?,
        clb_area: required(clb_area, "clb_area")?,
        reconfig: required(reconfig, "reconfig")?,
        contexts: required(contexts, "contexts")?,
    })
}

/// Decodes a field's value into an empty `slot`; a repeat of a filled
/// one is only checked.
fn fill<'b, T>(
    slot: &mut Option<T>,
    r: &mut Reader<'b>,
    decode: impl FnOnce(&mut Reader<'b>) -> Result<T, JsonError>,
) -> Result<(), JsonError> {
    if slot.is_some() && !cfg!(rdse_fault = "store_head_last_dup_wins") {
        return r.skip();
    }
    *slot = Some(decode(r)?);
    Ok(())
}

fn required<T>(slot: Option<T>, field: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| JsonError::custom(format!("missing field `{field}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree decode: the body as a `Value`, then a [`StoreRecord`].
    fn tree(body: &str) -> Option<StoreRecord> {
        StoreRecord::from_value(&serde_json::from_str(body).ok()?).ok()
    }

    #[test]
    fn repeated_and_unknown_head_keys_follow_value_get() {
        let record = StoreRecord {
            key: StoreKey([0xab; 16]),
            pair: PairKey([0xcd; 16]),
            objective: "makespan".into(),
            seed: 7,
            chains: 2,
            iters: 100,
            warmup: 20,
            exchange_every: 50,
            winner: 1,
            iterations: 100,
            contexts: 1,
            hw_tasks: 2,
            clb_area: 300,
            makespan_bits: 12.5f64.to_bits(),
            best: CostBits::from_values(12.5, 300.0, 4.0, 1.0),
            front: vec![CostBits::from_values(12.5, 300.0, 4.0, 1.0)],
            mapping: Value::Seq(vec![Value::I64(0)]),
        };
        let body = serde_json::to_string(&record.to_value()).unwrap();
        let edited = [
            // A repeat after the first occurrence, valid or not, is
            // ignored; so is an unknown field.
            body.replacen(r#""seed":7,"#, r#""seed":7,"seed":8,"zz":[1,{}],"#, 1),
            body.replacen(r#""seed":7,"#, r#""seed":7,"seed":"x","#, 1),
            body.replacen(r#""best":{"#, r#""best":{"makespan":1,"#, 1),
            body.replacen(r#","mapping""#, r#","mapping":[9],"mapping""#, 1),
            // An escaped key names the same field.
            body.replacen(r#""seed":7,"#, r#""seed":7,"s\u0065ed":9,"#, 1),
            // A repeat before it takes its place, or fails the body.
            body.replacen(r#""seed":7,"#, r#""seed":9,"seed":7,"#, 1),
            body.replacen(r#""seed":7,"#, r#""seed":-1,"seed":7,"#, 1),
            // Unchecked text is rejected wherever it sits.
            body.replacen(r#""seed":7,"#, r#""seed":7,"seed":[1,],"#, 1),
        ];
        for text in &edited {
            let decoded = ArchivedRecord::from_body(text).ok();
            assert_eq!(
                decoded.as_ref().map(ArchivedRecord::to_record),
                tree(text),
                "{text}"
            );
        }
        let first = ArchivedRecord::from_body(&edited[0]).unwrap();
        assert_eq!((first.seed, first.to_record()), (7, record.clone()));
        assert_eq!(ArchivedRecord::from_body(&edited[5]).unwrap().seed, 9);
        assert!(ArchivedRecord::from_body(&edited[6]).is_err());
        // Every field is required.
        for field in ["\"key\"", "\"best\"", "\"front\"", "\"mapping\""] {
            let renamed = body.replacen(field, "\"other\"", 1);
            assert!(ArchivedRecord::from_body(&renamed).is_err(), "{renamed}");
            assert!(tree(&renamed).is_none());
        }
    }
}
