//! The sharded worker layer: one thread per shard.
//!
//! Each shard thread owns a private cache of resolved `(app, arch)`
//! models and drains its own job queue, one job at a time in
//! submission order. Jobs are routed to a shard by hashing the cache
//! key, so repeat submissions of the same pair always land where their
//! models are cached, and the shard's state needs no lock.
//!
//! With a result store, each shard also memoises the store-key
//! [`PairPrefix`] of every cache key it resolved. A job is a pure
//! function of its spec, so a memoised prefix is all an exact or
//! dominated hit needs: such a job is answered without resolving or
//! serializing its models, and without touching the model cache.

use crate::handler;
use crate::protocol::{ErrorCode, JobSpec, ServeError};
use crate::server::{Core, JobState, ServeStats};
use crate::transport::FrameSink;
use rdse_mapping::{CostVector, Mapping, Objective, Scalarizer, WarmStart};
use rdse_model::{Architecture, TaskGraph};
use rdse_store::{fnv1a128, ArchivedRecord, PairKey, PairPrefix, ResultStore, StoreKey};
use serde::{Deserialize, Value};
use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

/// Warm entries kept per shard before least-recently-used eviction.
const MAX_CACHE_ENTRIES: usize = 8;

/// Memoised pair prefixes kept per shard; a full memo is cleared. An
/// entry is 32 bytes however large the job's inline models are.
const MAX_MEMO_ENTRIES: usize = 4096;

/// A fully validated job, ready to run. The sink is the live client
/// connection.
pub(crate) struct JobRequest {
    pub id: u64,
    pub spec: JobSpec,
    pub objective: Objective,
    pub key: String,
    pub sink: Box<dyn FrameSink>,
}

struct CacheEntry {
    app: TaskGraph,
    arch: Architecture,
    last_used: u64,
}

/// One shard's warm state: the model cache and its LRU clock,
/// and the pair-prefix memo.
#[derive(Default)]
struct ShardState {
    cache: HashMap<String, CacheEntry>,
    tick: u64,
    /// Store-key prefix of each resolved cache key, keyed by the cache
    /// key's 128-bit FNV-1a digest.
    memo: HashMap<u128, PairPrefix>,
}

/// Spawns shard `index`'s thread. It owns its [`ShardState`] and runs
/// the jobs sent to the returned queue in order, until every sender is
/// dropped. `run_job` contains a panicking search; the catch here also
/// contains one in the sink, so no panic ends the shard.
pub(crate) fn spawn_shard(
    index: usize,
    core: Arc<Core>,
) -> io::Result<(mpsc::Sender<Box<JobRequest>>, JoinHandle<()>)> {
    let (queue, jobs) = mpsc::channel::<Box<JobRequest>>();
    let handle = thread::Builder::new()
        .name(format!("rdse-shard-{index}"))
        .spawn(move || {
            let mut state = ShardState::default();
            for req in jobs {
                let _ = catch_unwind(AssertUnwindSafe(|| run_job(&mut state, &core, req)));
            }
        })?;
    Ok((queue, handle))
}

/// Runs one job against its shard. A panicking job is answered as
/// `internal`, and its cache entry and memoised prefix are evicted.
fn run_job(state: &mut ShardState, core: &Core, mut req: Box<JobRequest>) {
    core.registry.set_state(req.id, JobState::Running);
    // Only store hits read the memo.
    let memo_key = core.store.as_ref().map(|_| fnv1a128(req.key.as_bytes()));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_one(state, memo_key, &mut req, core)
    }));
    match outcome {
        Ok(Ok(v)) => {
            core.registry.set_state(req.id, JobState::Done(v.clone()));
            core.stats.jobs_served.fetch_add(1, Relaxed);
            req.sink.send_result(&v);
        }
        Ok(Err(e)) => {
            core.registry.set_state(req.id, JobState::Failed(e.clone()));
            core.stats.jobs_failed.fetch_add(1, Relaxed);
            req.sink.send_error(&e);
        }
        Err(_) => {
            // A panicking job must not take the shard (or the server)
            // down, and its cache entry can no longer be trusted.
            state.cache.remove(&req.key);
            if let Some(k) = memo_key {
                state.memo.remove(&k);
            }
            let e = ServeError::new(
                ErrorCode::Internal,
                "job panicked; its model cache entry was dropped",
            );
            core.registry.set_state(req.id, JobState::Failed(e.clone()));
            core.stats.jobs_failed.fetch_add(1, Relaxed);
            req.sink.send_error(&e);
        }
    }
    req.sink.finish();
}

fn count_cache(stats: &ServeStats, hit: bool) {
    if hit {
        stats.cache_hits.fetch_add(1, Relaxed);
    } else {
        stats.cache_misses.fetch_add(1, Relaxed);
    }
}

/// The result store's zero-search answers, cheapest first: an exact
/// hit, then a dominated one. Counts the hit it returns.
fn archived_answer<'s>(
    store: &'s ResultStore,
    (skey, pkey): (StoreKey, PairKey),
    req: &JobRequest,
    stats: &ServeStats,
) -> Option<(&'s ArchivedRecord, &'static str)> {
    if let Some(record) = store.archive().exact(&skey) {
        stats.store_exact_hits.fetch_add(1, Relaxed);
        return Some((record, "exact"));
    }
    let record = store
        .archive()
        .dominating(&pkey, &req.objective.describe(), req.spec.iters)?;
    stats.store_dominated_hits.fetch_add(1, Relaxed);
    Some((record, "dominated"))
}

/// Runs one job. `memo_key` is the digest of `req.key` when the store
/// is on.
fn run_one(
    state: &mut ShardState,
    memo_key: Option<u128>,
    req: &mut JobRequest,
    core: &Core,
) -> Result<Value, ServeError> {
    // Memo path: a pair this shard resolved before is answered from the
    // archive by its memoised prefix alone. The model cache is only
    // asked whether it holds the models, for the `cache` label.
    let memoised = memo_key.and_then(|k| state.memo.get(&k).copied());
    if let (Some(store), Some(prefix)) = (&core.store, memoised) {
        let keys = handler::prefixed_store_keys(prefix, &req.spec, &req.objective);
        let store = store.lock().expect("store lock");
        if let Some((record, label)) = archived_answer(&store, keys, req, &core.stats) {
            let hit = state.cache.contains_key(&req.key);
            count_cache(&core.stats, hit);
            return Ok(handler::stored_result_value(req.id, record, hit, label));
        }
    }

    let cache = &mut state.cache;
    let hit = cache.contains_key(&req.key);
    count_cache(&core.stats, hit);
    if !hit {
        let (app, arch) = handler::resolve_models(&req.spec, &core.limits)?;
        if cache.len() >= MAX_CACHE_ENTRIES {
            let oldest = cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(k) = oldest {
                cache.remove(&k);
            }
        }
        cache.insert(
            req.key.clone(),
            CacheEntry {
                app,
                arch,
                last_used: 0,
            },
        );
    }
    state.tick += 1;
    let entry = cache.get_mut(&req.key).expect("entry ensured above");
    entry.last_used = state.tick;

    // The result store's three read paths, cheapest first: exact hit
    // (no search), dominated hit (no search), warm start (search from
    // an archived incumbent). All lookups happen under one short lock;
    // the search itself never holds it. The models are hashed at most
    // once, and only for a pair the memo does not know yet.
    let mut store_label = if core.store.is_some() { "miss" } else { "off" };
    let mut warm: Option<WarmStart> = None;
    let mut keys: Option<(StoreKey, PairKey)> = None;
    if let (Some(store), Some(memo_key)) = (&core.store, memo_key) {
        let prefix = memoised.unwrap_or_else(|| {
            let prefix = handler::pair_prefix(&entry.app, &entry.arch);
            if state.memo.len() >= MAX_MEMO_ENTRIES {
                state.memo.clear();
            }
            state.memo.insert(memo_key, prefix);
            prefix
        });
        let objective = req.objective;
        let (skey, pkey) = handler::prefixed_store_keys(prefix, &req.spec, &objective);
        let store = store.lock().expect("store lock");
        if let Some((record, label)) = archived_answer(&store, (skey, pkey), req, &core.stats) {
            return Ok(handler::stored_result_value(req.id, record, hit, label));
        }
        let candidate = store.archive().warm_candidate(&pkey, |b| {
            objective.scalarize(&CostVector {
                makespan: b.makespan_f64(),
                clb_area: b.clb_area_f64(),
                reconfig_overhead: b.reconfig_f64(),
                contexts: b.contexts_f64(),
            })
        });
        if let Some(record) = candidate {
            // The archive holds mappings as JSON text; this is the one
            // read path that parses it. An archived mapping that no
            // longer fits the models (it shouldn't — the pair key covers
            // them) falls back to cold.
            if let Ok(mapping) = Mapping::from_value(&record.mapping()) {
                core.stats.store_warm_starts.fetch_add(1, Relaxed);
                store_label = "warm";
                warm = Some(WarmStart { mapping });
            }
        }
        keys = Some((skey, pkey));
    }

    let (value, outcome) = handler::execute(
        req.id,
        &req.spec,
        req.objective,
        &entry.app,
        &entry.arch,
        hit,
        warm,
        store_label,
        req.sink.as_mut(),
    )?;

    // Archive the finished run. A failed append costs persistence of
    // this one result, never the job.
    if let (Some(store), Some((skey, pkey))) = (&core.store, keys) {
        let record = handler::store_record(skey, pkey, &req.spec, &req.objective, &outcome);
        if let Err(e) = store.lock().expect("store lock").append(record) {
            eprintln!("rdse serve: store append failed: {e}");
        }
    }
    Ok(value)
}
