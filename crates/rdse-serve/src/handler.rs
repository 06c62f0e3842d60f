//! Transport-independent job handling: spec validation, model
//! resolution, cache keying and job execution. Both transports (raw
//! RPC and the HTTP/1.1 adapter) funnel into these functions, so a
//! job behaves identically however it arrives.

use crate::limits::Limits;
use crate::protocol::{obj, AppSpec, ArchSpec, ErrorCode, JobSpec, ServeError};
use crate::transport::FrameSink;
use rdse_corpus::{ArchFamily, WorkloadFamily};
use rdse_mapping::{
    explore_parallel_observed, CostVector, ExploreOptions, MappingError, Objective,
    ParallelOptions, ParallelOutcome, SegmentUpdate, WarmStart,
};
use rdse_model::{Architecture, TaskGraph};
use rdse_store::{
    fnv1a128, ArchivedRecord, CostBits, PairKey, PairPrefix, SearchKnobs, StoreKey, StoreRecord,
};
use rdse_workloads::{epicure_architecture, figure1_app, motion_detection_app};
use serde::{Serialize, Value};

/// Checks everything that can be checked without building models:
/// the objective grammar, the iteration budget and the chain count.
/// Returns the parsed [`Objective`] on success.
pub fn validate_spec(spec: &JobSpec, limits: &Limits) -> Result<Objective, ServeError> {
    let objective = Objective::parse_spec(&spec.objective)
        .map_err(|e| ServeError::new(ErrorCode::BadObjective, e))?;
    if spec.iters > limits.max_iters {
        return Err(ServeError::new(
            ErrorCode::OverBudget,
            format!(
                "iteration budget {} exceeds the server limit {}",
                spec.iters, limits.max_iters
            ),
        ));
    }
    if spec.chains == 0 {
        return Err(ServeError::new(
            ErrorCode::BadJob,
            "'chains' must be at least 1",
        ));
    }
    if spec.chains > limits.max_chains {
        return Err(ServeError::new(
            ErrorCode::TooManyChains,
            format!(
                "{} chains exceed the server limit {}",
                spec.chains, limits.max_chains
            ),
        ));
    }
    Ok(objective)
}

/// Builds the job's models and enforces the size caps. Inline models
/// are decoded from their JSON shape; named specs are generated.
pub fn resolve_models(
    spec: &JobSpec,
    limits: &Limits,
) -> Result<(TaskGraph, Architecture), ServeError> {
    let app = match &spec.app {
        AppSpec::Builtin(name) => match name.as_str() {
            "motion" => motion_detection_app(),
            "figure1" => figure1_app(),
            other => {
                return Err(ServeError::new(
                    ErrorCode::UnknownApp,
                    format!("unknown builtin app '{other}' (expected motion or figure1)"),
                ))
            }
        },
        AppSpec::Workload { family, seed } => WorkloadFamily::parse(family)
            .ok_or_else(|| {
                ServeError::new(
                    ErrorCode::UnknownApp,
                    format!("unknown workload family '{family}' (see `rdse corpus list`)"),
                )
            })?
            .generate(*seed),
        AppSpec::Inline(model) => TaskGraph::from_json_value(model)
            .map_err(|e| ServeError::new(ErrorCode::BadModel, format!("inline app: {e}")))?,
    };
    if app.n_tasks() == 0 {
        return Err(ServeError::new(
            ErrorCode::BadJob,
            "application has no tasks",
        ));
    }
    if app.n_tasks() > limits.max_tasks
        || (cfg!(rdse_fault = "serve_max_tasks_inclusive") && app.n_tasks() == limits.max_tasks)
    {
        return Err(ServeError::new(
            ErrorCode::TooManyTasks,
            format!(
                "{} tasks exceed the server limit {}",
                app.n_tasks(),
                limits.max_tasks
            ),
        ));
    }
    let arch = match &spec.arch {
        ArchSpec::Clbs(n) => epicure_architecture(*n),
        ArchSpec::Family { family, seed } => ArchFamily::parse(family)
            .ok_or_else(|| {
                ServeError::new(
                    ErrorCode::UnknownArch,
                    format!("unknown architecture family '{family}'"),
                )
            })?
            .build(*seed),
        ArchSpec::Inline(model) => Architecture::from_json_value(model)
            .map_err(|e| ServeError::new(ErrorCode::BadModel, format!("inline arch: {e}")))?,
    };
    let devices = arch.processors().len() + arch.drlcs().len() + arch.asics().len();
    if devices > limits.max_devices {
        return Err(ServeError::new(
            ErrorCode::TooManyDevices,
            format!(
                "{devices} devices exceed the server limit {}",
                limits.max_devices
            ),
        ));
    }
    Ok((app, arch))
}

/// Content key of a job's `(app, arch)` pair: two jobs share a warm
/// cache entry iff their keys are byte-equal. Named specs key on name
/// and seed; an inline model keys on the 128-bit FNV-1a digest of its
/// canonical JSON (the trust the store's content keys already rely
/// on), so identical inline submissions hit the same entry, any model
/// difference misses, and the key is short whatever the model's size.
pub fn cache_key(spec: &JobSpec) -> String {
    let inline = |model: &Value| {
        let json = serde_json::to_string(model).expect("Value serialization is infallible");
        format!("inline:{:032x}", fnv1a128(json.as_bytes()))
    };
    let app = match &spec.app {
        AppSpec::Builtin(name) => format!("builtin:{name}"),
        AppSpec::Workload { family, seed } => format!("workload:{family}:s{seed}"),
        AppSpec::Inline(model) => inline(model),
    };
    let arch = match &spec.arch {
        ArchSpec::Clbs(n) => format!("clbs:{n}"),
        ArchSpec::Family { family, seed } => format!("family:{family}:s{seed}"),
        ArchSpec::Inline(model) => inline(model),
    };
    format!("{app}|{arch}")
}

/// FNV-1a over the cache key — the worker-shard selector. Jobs over
/// the same `(app, arch)` land on the same worker, maximizing model
/// cache reuse.
pub fn shard_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bits_hex(f: f64) -> Value {
    Value::Str(format!("{:016x}", f.to_bits()))
}

/// Content keys of a job for the result store, hashed over the
/// **resolved** models' canonical JSON — two specs that build the same
/// models (however they were spelled) share a key, while any model,
/// objective or knob difference separates them.
pub fn store_keys(
    app: &TaskGraph,
    arch: &Architecture,
    spec: &JobSpec,
    objective: &Objective,
) -> (StoreKey, PairKey) {
    prefixed_store_keys(pair_prefix(app, arch), spec, objective)
}

/// The store-key hash state over the resolved models: the one pass
/// over their canonical JSON that [`store_keys`] makes.
pub fn pair_prefix(app: &TaskGraph, arch: &Architecture) -> PairPrefix {
    let app_json = serde_json::to_string(&app.to_value()).expect("Value serialization");
    let arch_json = serde_json::to_string(&arch.to_value()).expect("Value serialization");
    PairPrefix::new(&app_json, &arch_json)
}

/// [`store_keys`] continued from a job's [`pair_prefix`], without the
/// models.
pub fn prefixed_store_keys(
    prefix: PairPrefix,
    spec: &JobSpec,
    objective: &Objective,
) -> (StoreKey, PairKey) {
    let knobs = SearchKnobs {
        objective: &objective.describe(),
        seed: spec.seed,
        iters: spec.iters,
        warmup: spec.warmup,
        chains: spec.chains as u64,
        exchange_every: spec.exchange_every,
    };
    (prefix.key(&knobs), prefix.pair())
}

/// Packs a finished exploration into its archived form under `key`.
pub fn store_record(
    key: StoreKey,
    pair: PairKey,
    spec: &JobSpec,
    objective: &Objective,
    outcome: &ParallelOutcome,
) -> StoreRecord {
    let summary = outcome.evaluation.summary();
    let best = CostVector::from_summary(&summary);
    let front = outcome
        .front
        .sorted_members(|a: &CostVector, b: &CostVector| a.makespan.total_cmp(&b.makespan))
        .into_iter()
        .map(|m| CostBits::from_values(m.makespan, m.clb_area, m.reconfig_overhead, m.contexts))
        .collect();
    StoreRecord {
        key,
        pair,
        objective: objective.describe(),
        seed: spec.seed,
        chains: spec.chains as u64,
        iters: spec.iters,
        warmup: spec.warmup,
        exchange_every: spec.exchange_every,
        winner: outcome.winner as u64,
        iterations: outcome.chains.iter().map(|c| c.run.iterations).sum(),
        contexts: summary.n_contexts as u64,
        hw_tasks: summary.n_hw_tasks as u64,
        clb_area: u64::from(summary.clb_area.value()),
        makespan_bits: summary.makespan.value().to_bits(),
        best: CostBits::from_values(
            best.makespan,
            best.clb_area,
            best.reconfig_overhead,
            best.contexts,
        ),
        front,
        mapping: outcome.mapping.to_value(),
    }
}

/// The body of one streamed `Update` frame.
pub fn update_value(job: u64, u: &SegmentUpdate<'_>) -> Value {
    obj(vec![
        ("type", Value::Str("update".into())),
        ("job", job.to_value()),
        ("segment", u.segment.to_value()),
        ("iterations", u.iterations.to_value()),
        ("best_makespan", u.best.makespan.to_value()),
        ("best_makespan_bits", bits_hex(u.best.makespan)),
        ("best_cost", u.best_cost.to_value()),
        ("front_size", u.front.len().to_value()),
        ("finished", Value::Bool(u.finished)),
    ])
}

fn front_value(outcome: &ParallelOutcome) -> Value {
    let members: Vec<Value> = outcome
        .front
        .sorted_members(|a: &CostVector, b: &CostVector| a.makespan.total_cmp(&b.makespan))
        .into_iter()
        .map(|m| {
            obj(vec![
                ("makespan", m.makespan.to_value()),
                ("makespan_bits", bits_hex(m.makespan)),
                ("clb_area", (m.clb_area as u32).to_value()),
                ("reconfig", m.reconfig_overhead.to_value()),
                ("reconfig_bits", bits_hex(m.reconfig_overhead)),
                ("contexts", (m.contexts as u32).to_value()),
            ])
        })
        .collect();
    Value::Seq(members)
}

/// The body of the final `Result` frame. `store` names how the result
/// store participated: `"off"`, `"miss"`, `"warm"`, `"exact"` or
/// `"dominated"`.
pub fn result_value(
    job: u64,
    spec: &JobSpec,
    outcome: &ParallelOutcome,
    objective: &Objective,
    cache_hit: bool,
    store: &str,
) -> Value {
    let summary = outcome.evaluation.summary();
    let makespan = summary.makespan.value();
    let iterations: u64 = outcome.chains.iter().map(|c| c.run.iterations).sum();
    obj(vec![
        ("type", Value::Str("result".into())),
        ("job", job.to_value()),
        ("makespan", makespan.to_value()),
        ("makespan_bits", bits_hex(makespan)),
        ("contexts", summary.n_contexts.to_value()),
        ("hw_tasks", summary.n_hw_tasks.to_value()),
        ("clb_area", summary.clb_area.value().to_value()),
        ("objective", Value::Str(objective.describe())),
        ("seed", spec.seed.to_value()),
        ("chains", spec.chains.to_value()),
        ("winner", outcome.winner.to_value()),
        ("iterations", iterations.to_value()),
        ("front", front_value(outcome)),
        (
            "cache",
            Value::Str(if cache_hit { "hit" } else { "miss" }.into()),
        ),
        ("store", Value::Str(store.into())),
    ])
}

/// The body of a `Result` frame answered straight from the archive —
/// every float re-emitted from its stored bit pattern, so the frame is
/// bit-identical to the one the original run produced.
pub fn stored_result_value(
    job: u64,
    record: &ArchivedRecord,
    cache_hit: bool,
    store: &str,
) -> Value {
    let members: Vec<Value> = record
        .front
        .iter()
        .map(|m| {
            obj(vec![
                ("makespan", m.makespan_f64().to_value()),
                ("makespan_bits", bits_hex(m.makespan_f64())),
                ("clb_area", (m.clb_area_f64() as u32).to_value()),
                ("reconfig", m.reconfig_f64().to_value()),
                ("reconfig_bits", bits_hex(m.reconfig_f64())),
                ("contexts", (m.contexts_f64() as u32).to_value()),
            ])
        })
        .collect();
    obj(vec![
        ("type", Value::Str("result".into())),
        ("job", job.to_value()),
        ("makespan", record.makespan().to_value()),
        ("makespan_bits", bits_hex(record.makespan())),
        ("contexts", record.contexts.to_value()),
        ("hw_tasks", record.hw_tasks.to_value()),
        ("clb_area", record.clb_area.to_value()),
        ("objective", Value::Str(record.objective.clone())),
        ("seed", record.seed.to_value()),
        ("chains", record.chains.to_value()),
        ("winner", record.winner.to_value()),
        ("iterations", record.iterations.to_value()),
        ("front", Value::Seq(members)),
        (
            "cache",
            Value::Str(if cache_hit { "hit" } else { "miss" }.into()),
        ),
        ("store", Value::Str(store.into())),
    ])
}

/// Runs a validated job to completion, streaming a
/// [`SegmentUpdate`] through `sink` at every exchange barrier. Results
/// are bit-identical to the offline `explore`/`explore_parallel` path
/// for the same `(seed, chains)`. A `warm` mapping (from the result
/// store) seeds chain 0; `None` is the bit-identical cold path. Returns
/// the result frame alongside the raw outcome so the caller can archive
/// it.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    job: u64,
    spec: &JobSpec,
    objective: Objective,
    app: &TaskGraph,
    arch: &Architecture,
    cache_hit: bool,
    warm: Option<WarmStart>,
    store: &str,
    sink: &mut dyn FrameSink,
) -> Result<(Value, ParallelOutcome), ServeError> {
    let popts = ParallelOptions {
        base: ExploreOptions {
            max_iterations: spec.iters,
            warmup_iterations: spec.warmup,
            seed: spec.seed,
            objective,
            ..ExploreOptions::default()
        },
        chains: spec.chains,
        // Parallelism comes from the shard threads: one job, one core.
        // Never affects results.
        threads: 1,
        exchange_every: spec.exchange_every,
        warm_start: warm,
        front_exchange: false,
    };
    let mut aborted = false;
    let outcome = explore_parallel_observed(app, arch, &popts, |u| {
        let keep = sink.send_update(&update_value(job, u));
        if !keep {
            aborted = true;
        }
        keep
    })
    .map_err(|e| match e {
        // A model no search can start on is the job's fault.
        MappingError::NoProcessor => ServeError::new(ErrorCode::BadModel, e),
        e => ServeError::new(ErrorCode::Internal, format!("exploration failed: {e}")),
    })?;
    if aborted {
        return Err(ServeError::new(
            ErrorCode::Aborted,
            "client disconnected mid-stream; job aborted",
        ));
    }
    let value = result_value(job, spec, &outcome, &objective, cache_hit, store);
    Ok((value, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_workloads::{layered_dag, LayeredDagConfig};

    fn inline_spec(model: Value) -> JobSpec {
        JobSpec {
            app: AppSpec::Inline(model),
            arch: ArchSpec::Clbs(2000),
            objective: "makespan".into(),
            iters: 100,
            warmup: 20,
            seed: 1,
            chains: 1,
            exchange_every: 50,
        }
    }

    fn layered(layers: usize, seed: u64) -> Value {
        let config = LayeredDagConfig {
            layers,
            width: 10,
            edge_percent: 30,
            hw_percent: 60,
        };
        layered_dag(&config, seed).to_value()
    }

    #[test]
    fn an_app_of_exactly_max_tasks_is_accepted() {
        let spec = inline_spec(layered(2, 1));
        let n = resolve_models(&spec, &Limits::default())
            .unwrap()
            .0
            .n_tasks();
        let at = |max_tasks| Limits {
            max_tasks,
            ..Limits::default()
        };
        let (app, _) = resolve_models(&spec, &at(n)).expect("n tasks under a limit of n");
        assert_eq!(app.n_tasks(), n);
        let err = resolve_models(&spec, &at(n - 1)).unwrap_err();
        assert_eq!(err.code, ErrorCode::TooManyTasks, "{err:?}");
    }

    #[test]
    fn identical_inline_specs_share_a_key_and_a_shard() {
        // Two submissions of the same bytes, parsed apart.
        let text = serde_json::to_string(&layered(4, 1)).unwrap();
        let a = cache_key(&inline_spec(serde_json::from_str(&text).unwrap()));
        let b = cache_key(&inline_spec(serde_json::from_str(&text).unwrap()));
        assert_eq!(a, b);
        assert_eq!(shard_hash(&a), shard_hash(&b));
    }

    #[test]
    fn a_one_byte_model_change_changes_the_key() {
        let text = serde_json::to_string(&layered(4, 1)).unwrap();
        let at = text.find("\"name\":\"").expect("a named model") + 8;
        let mut edited = text.clone().into_bytes();
        edited[at] ^= 1;
        let edited = String::from_utf8(edited).unwrap();
        assert_ne!(
            cache_key(&inline_spec(serde_json::from_str(&text).unwrap())),
            cache_key(&inline_spec(serde_json::from_str(&edited).unwrap()))
        );
    }

    #[test]
    fn an_inline_key_is_as_long_whatever_the_model_size() {
        let small = cache_key(&inline_spec(layered(2, 1)));
        let large = cache_key(&inline_spec(layered(40, 1)));
        assert_ne!(small, large);
        assert_eq!(small.len(), large.len());
        assert_eq!(small.len(), "inline:".len() + 32 + "|clbs:2000".len());
    }
}
