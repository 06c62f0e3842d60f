//! End-to-end guarantees of the persistent result store:
//!
//! 1. **Exact hit** — resubmitting an identical job against a server
//!    that was restarted on the same store file returns the archived
//!    result with the original `f64` bit patterns and zero search,
//!    observable via `"store": "exact"` and the healthz counter.
//! 2. **Dominated hit** — a smaller-budget job over an archived
//!    `(app, arch)` and objective is answered by the bigger archived
//!    run in O(lookup).
//! 3. **Warm start** — a different-seed job over a known pair explores
//!    with chain 0 seeded from the archive (`"store": "warm"`), and the
//!    store-off path stays bit-identical to the store-on cold miss.
//! 4. **Memo path** — hits answered from a shard's memoised pair prefix
//!    match the resolve path bit for bit, never confuse two pairs, never
//!    touch the model cache, and survive a restart and a full memo.
//! 5. **Stable keys** — store keys are pinned to their historical
//!    digests, and a log written before the memo existed still answers.

use rdse_mapping::Objective;
use rdse_serve::client::{self, ClientOptions};
use rdse_serve::handler::{cache_key, resolve_models, shard_hash, store_keys};
use rdse_serve::protocol::{AppSpec, ArchSpec, JobSpec};
use rdse_serve::{Limits, ServeConfig, Server, ServerHandle};
use rdse_store::SyncPolicy;
use serde::Value;
use std::path::{Path, PathBuf};

fn spawn_with_store(path: &Path) -> ServerHandle {
    Server::bind(ServeConfig {
        store: Some(path.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn")
}

/// Workers of the memo-path servers.
const MEMO_WORKERS: usize = 2;

/// A two-worker server over `path`, without fsyncs (these tests
/// restart servers cleanly, never crash them).
fn spawn_memo_server(path: &Path) -> ServerHandle {
    Server::bind(ServeConfig {
        workers: MEMO_WORKERS,
        store: Some(path.to_path_buf()),
        store_sync: SyncPolicy::Never,
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn")
}

/// The worker shard a spec is routed to.
fn shard(spec: &JobSpec) -> u64 {
    shard_hash(&cache_key(spec)) % MEMO_WORKERS as u64
}

fn stop(handle: ServerHandle) {
    let addr = handle.addr().to_string();
    client::shutdown(&addr, &ClientOptions::default()).expect("shutdown");
    handle.join().expect("clean exit");
}

fn as_str(v: &Value, field: &str) -> String {
    match v.get(field) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("field '{field}' missing or not a string: {other:?}"),
    }
}

fn as_u64(v: &Value, field: &str) -> u64 {
    match v.get(field) {
        Some(Value::U64(n)) => *n,
        Some(Value::I64(n)) if *n >= 0 => *n as u64,
        other => panic!("field '{field}' missing or not an integer: {other:?}"),
    }
}

/// `(makespan_bits, per-front-member (makespan_bits, reconfig_bits, contexts))`
/// of a served result body.
fn served_bits(result: &Value) -> (String, Vec<(String, String, u64)>) {
    let Some(Value::Seq(front)) = result.get("front") else {
        panic!("result without a front: {result:?}");
    };
    let members = front
        .iter()
        .map(|m| {
            (
                as_str(m, "makespan_bits"),
                as_str(m, "reconfig_bits"),
                as_u64(m, "contexts"),
            )
        })
        .collect();
    (as_str(result, "makespan_bits"), members)
}

fn motion_spec() -> JobSpec {
    JobSpec {
        app: AppSpec::Builtin("motion".into()),
        arch: ArchSpec::Clbs(2000),
        objective: "makespan".into(),
        iters: 600,
        warmup: 150,
        seed: 1,
        chains: 2,
        exchange_every: 150,
    }
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdse_store_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn exact_hit_is_bit_identical_across_a_server_restart() {
    let path = temp_store("exact.aof");
    let _ = std::fs::remove_file(&path);
    let opts = ClientOptions::default();
    let spec = motion_spec();

    // First life: a cold miss that lands in the archive.
    let handle = spawn_with_store(&path);
    let addr = handle.addr().to_string();
    let first = client::submit(&addr, &spec, &opts, |_| {}).expect("first run");
    assert_eq!(as_str(&first, "store"), "miss");
    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");

    // Second life: replay rebuilds the archive from disk; the same job
    // must come back bit-identical with no search at all.
    let handle = spawn_with_store(&path);
    let addr = handle.addr().to_string();
    let mut updates = 0usize;
    let second = client::submit(&addr, &spec, &opts, |_| updates += 1).expect("replayed run");
    assert_eq!(as_str(&second, "store"), "exact");
    assert_eq!(updates, 0, "an exact hit must not stream search updates");
    assert_eq!(
        served_bits(&first),
        served_bits(&second),
        "archived result lost bits across the restart"
    );
    assert_eq!(as_u64(&first, "iterations"), as_u64(&second, "iterations"));

    let health = client::health(&addr, &opts).expect("health");
    assert_eq!(as_u64(&health, "store_exact_hits"), 1);
    assert_eq!(as_u64(&health, "store_records"), 1);

    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");
}

#[test]
fn dominated_and_warm_paths_answer_from_the_archive() {
    let path = temp_store("paths.aof");
    let _ = std::fs::remove_file(&path);
    let opts = ClientOptions::default();
    let handle = spawn_with_store(&path);
    let addr = handle.addr().to_string();

    let big = motion_spec();
    let first = client::submit(&addr, &big, &opts, |_| {}).expect("archive run");
    assert_eq!(as_str(&first, "store"), "miss");

    // Same pair, same objective, smaller budget: the archived bigger
    // run dominates and answers without searching.
    let small = JobSpec {
        iters: 300,
        warmup: 75,
        ..motion_spec()
    };
    let dominated = client::submit(&addr, &small, &opts, |_| {}).expect("dominated run");
    assert_eq!(as_str(&dominated, "store"), "dominated");
    assert_eq!(
        served_bits(&dominated),
        served_bits(&first),
        "dominated hit must return the archived front"
    );

    // Same pair but a bigger budget: nothing dominates, so the job
    // explores — warm-started from the archived winner.
    let bigger = JobSpec {
        iters: 900,
        warmup: 225,
        seed: 17,
        ..motion_spec()
    };
    let warm = client::submit(&addr, &bigger, &opts, |_| {}).expect("warm run");
    assert_eq!(as_str(&warm, "store"), "warm");

    let health = client::health(&addr, &opts).expect("health");
    assert_eq!(as_u64(&health, "store_dominated_hits"), 1);
    assert_eq!(as_u64(&health, "store_warm_starts"), 1);
    assert_eq!(as_u64(&health, "store_exact_hits"), 0);

    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");
}

#[test]
fn store_off_and_store_miss_results_are_bit_identical() {
    let opts = ClientOptions::default();
    let spec = motion_spec();

    // Store off: today's path, "store": "off".
    let handle = Server::bind(ServeConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr().to_string();
    let off = client::submit(&addr, &spec, &opts, |_| {}).expect("store-off run");
    assert_eq!(as_str(&off, "store"), "off");
    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");

    // Store on, empty archive: the cold miss must not perturb a bit.
    let path = temp_store("identity.aof");
    let _ = std::fs::remove_file(&path);
    let handle = spawn_with_store(&path);
    let addr = handle.addr().to_string();
    let miss = client::submit(&addr, &spec, &opts, |_| {}).expect("store-miss run");
    assert_eq!(as_str(&miss, "store"), "miss");
    assert_eq!(
        served_bits(&off),
        served_bits(&miss),
        "an empty store changed the cold path"
    );
    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");
}

/// A search small enough to run thousands of times: the figure-1 app on
/// an EPICURE device of `clbs` CLBs.
fn tiny_spec(clbs: u32) -> JobSpec {
    JobSpec {
        app: AppSpec::Builtin("figure1".into()),
        arch: ArchSpec::Clbs(clbs),
        objective: "makespan".into(),
        iters: 20,
        warmup: 5,
        seed: 3,
        chains: 1,
        exchange_every: 20,
    }
}

fn submit(addr: &str, spec: &JobSpec) -> Value {
    client::submit(addr, spec, &ClientOptions::default(), |_| {}).expect("job")
}

#[test]
fn memo_answered_hits_match_the_resolve_path() {
    let path = temp_store("memo.aof");
    let _ = std::fs::remove_file(&path);
    let exact = motion_spec();
    let dominated = JobSpec {
        iters: 300,
        warmup: 75,
        seed: 9,
        ..motion_spec()
    };

    // The first job resolves the pair and fills the memo; the next two
    // are answered from the memo.
    let handle = spawn_memo_server(&path);
    let addr = handle.addr().to_string();
    let first = submit(&addr, &exact);
    assert_eq!(as_str(&first, "store"), "miss");
    let memo_exact = submit(&addr, &exact);
    let memo_dominated = submit(&addr, &dominated);
    let health = client::health(&addr, &ClientOptions::default()).expect("health");
    assert_eq!(as_u64(&health, "store_exact_hits"), 1);
    assert_eq!(as_u64(&health, "store_dominated_hits"), 1);
    assert_eq!(
        as_u64(&health, "evaluator_cache_hits") + as_u64(&health, "evaluator_cache_misses"),
        as_u64(&health, "jobs_served"),
        "every job is counted once in the evaluator cache"
    );
    assert_eq!(as_u64(&health, "jobs_served"), 3);
    // The models stayed cached from the first job.
    assert_eq!(as_str(&memo_exact, "cache"), "hit");
    stop(handle);

    // A fresh server's memo is empty: each job below takes the resolve
    // path, and must answer exactly as the memo did.
    for (spec, memo) in [(&exact, &memo_exact), (&dominated, &memo_dominated)] {
        let handle = spawn_memo_server(&path);
        let resolved = submit(&handle.addr().to_string(), spec);
        stop(handle);
        assert_eq!(as_str(memo, "store"), as_str(&resolved, "store"));
        assert_eq!(served_bits(memo), served_bits(&resolved));
        assert_eq!(served_bits(memo), served_bits(&first));
        assert_eq!(as_u64(memo, "iterations"), as_u64(&resolved, "iterations"));
    }
    assert_eq!(as_str(&memo_exact, "store"), "exact");
    assert_eq!(as_str(&memo_dominated, "store"), "dominated");
}

#[test]
fn memo_never_answers_for_another_pair() {
    let path = temp_store("memo_pairs.aof");
    let _ = std::fs::remove_file(&path);
    let handle = spawn_memo_server(&path);
    let addr = handle.addr().to_string();

    // A different architecture for an archived app, on the same shard as
    // the archived job (the memo is per shard), must search.
    let corpus = JobSpec {
        app: AppSpec::Workload {
            family: "fork-join".into(),
            seed: 3,
        },
        arch: ArchSpec::Family {
            family: "epicure".into(),
            seed: 3,
        },
        ..motion_spec()
    };
    let other_arch = ["dual-fpga", "small-fpga", "slow-bus", "asic-assisted"]
        .into_iter()
        .map(|family| JobSpec {
            arch: ArchSpec::Family {
                family: family.into(),
                seed: 3,
            },
            ..corpus.clone()
        })
        .find(|s| shard(s) == shard(&corpus))
        .expect("some family shares the shard");
    let motion = motion_spec();
    let other_clbs = [4000, 3000, 2500, 1500, 1200]
        .into_iter()
        .map(|clbs| JobSpec {
            arch: ArchSpec::Clbs(clbs),
            ..motion_spec()
        })
        .find(|s| shard(s) == shard(&motion))
        .expect("some size shares the shard");

    for (archived, other) in [(&corpus, &other_arch), (&motion, &other_clbs)] {
        assert_eq!(as_str(&submit(&addr, archived), "store"), "miss");
        assert_eq!(as_str(&submit(&addr, archived), "store"), "exact");
        let result = submit(&addr, other);
        assert_eq!(
            as_str(&result, "store"),
            "miss",
            "{:?} was answered from {:?}",
            other.arch,
            archived.arch
        );
    }
    let health = client::health(&addr, &ClientOptions::default()).expect("health");
    assert_eq!(as_u64(&health, "store_exact_hits"), 2);
    assert_eq!(as_u64(&health, "store_dominated_hits"), 0);
    stop(handle);
}

#[test]
fn memo_hits_never_touch_the_model_cache() {
    let path = temp_store("memo_lru.aof");
    let _ = std::fs::remove_file(&path);
    let handle = spawn_memo_server(&path);
    let addr = handle.addr().to_string();

    // Nine pairs on shard 0: one more than its model cache holds.
    let pairs: Vec<JobSpec> = (1000..)
        .map(tiny_spec)
        .filter(|s| shard(s) == 0)
        .take(9)
        .collect();
    for spec in &pairs[..8] {
        assert_eq!(as_str(&submit(&addr, spec), "store"), "miss");
    }
    // A memo hit on the least recently used pair must not refresh it…
    let hit = submit(&addr, &pairs[0]);
    assert_eq!(as_str(&hit, "store"), "exact");
    assert_eq!(as_str(&hit, "cache"), "hit");
    // …so the ninth pair evicts it, not the second-oldest.
    assert_eq!(as_str(&submit(&addr, &pairs[8]), "store"), "miss");
    let second = submit(&addr, &pairs[1]);
    assert_eq!(as_str(&second, "store"), "exact");
    assert_eq!(
        as_str(&second, "cache"),
        "hit",
        "a memo hit evicted a warm entry"
    );
    let evicted = submit(&addr, &pairs[0]);
    assert_eq!(as_str(&evicted, "store"), "exact");
    assert_eq!(as_str(&evicted, "cache"), "miss");
    stop(handle);
}

#[test]
fn a_restarted_server_answers_exact_hits_with_an_empty_memo() {
    let path = temp_store("memo_restart.aof");
    let _ = std::fs::remove_file(&path);
    let spec = motion_spec();
    let handle = spawn_memo_server(&path);
    let first = submit(&handle.addr().to_string(), &spec);
    stop(handle);

    let handle = spawn_memo_server(&path);
    let addr = handle.addr().to_string();
    // The first resubmission resolves and refills the memo; the second
    // is answered from it. Both are the archived run.
    for _ in 0..2 {
        let again = submit(&addr, &spec);
        assert_eq!(as_str(&again, "store"), "exact");
        assert_eq!(served_bits(&again), served_bits(&first));
    }
    let health = client::health(&addr, &ClientOptions::default()).expect("health");
    assert_eq!(as_u64(&health, "store_exact_hits"), 2);
    stop(handle);
}

#[test]
fn more_pairs_than_the_memo_bound_still_answer_correctly() {
    /// The per-shard memo bound of the worker layer.
    const MEMO_BOUND: usize = 4096;
    let path = temp_store("memo_bound.aof");
    let _ = std::fs::remove_file(&path);
    let handle = spawn_memo_server(&path);
    let addr = handle.addr().to_string();

    // Enough distinct pairs on one shard to fill its memo and wrap.
    let pairs: Vec<JobSpec> = (1000..)
        .map(tiny_spec)
        .filter(|s| shard(s) == 1)
        .take(MEMO_BOUND + 10)
        .collect();
    let firsts: Vec<Value> = pairs
        .iter()
        .map(|spec| {
            let v = submit(&addr, spec);
            assert_eq!(as_str(&v, "store"), "miss");
            v
        })
        .collect();
    // Pairs from before and after the memo was cleared, and the ones
    // around the wrap, all come back as the archived run.
    let probe = [
        0,
        1,
        MEMO_BOUND - 1,
        MEMO_BOUND,
        MEMO_BOUND + 1,
        MEMO_BOUND + 9,
    ];
    for _ in 0..2 {
        for &i in &probe {
            let again = submit(&addr, &pairs[i]);
            assert_eq!(as_str(&again, "store"), "exact", "pair {i}");
            assert_eq!(served_bits(&again), served_bits(&firsts[i]), "pair {i}");
        }
    }
    stop(handle);
}

/// A corpus job whose models are the same in every build profile.
fn corpus_spec() -> JobSpec {
    JobSpec {
        app: AppSpec::Workload {
            family: "fork-join".into(),
            seed: 3,
        },
        arch: ArchSpec::Family {
            family: "dual-fpga".into(),
            seed: 3,
        },
        objective: "weighted:1,5,0.5".into(),
        iters: 800,
        warmup: 200,
        seed: 7,
        chains: 2,
        exchange_every: 200,
    }
}

#[test]
fn store_keys_are_pinned_to_their_historical_digests() {
    // The motion app's implementation times come from `f64::powi`,
    // whose rounding Rust does not pin down: optimized and debug builds
    // differ in the last bit of one task's time, so the motion digests
    // depend on the build profile.
    let motion = if cfg!(debug_assertions) {
        (
            "90456ff8c95fb7ae9e885382676c6f24",
            "25041aebdc23e786a2bc34bf84c064d5",
        )
    } else {
        (
            "1c0cb4dac807e0d5ecb247b68df2af1d",
            "2373d5a1fbc05b6aadf4898ffaca1782",
        )
    };
    let pinned = [
        (motion_spec(), motion),
        (
            corpus_spec(),
            (
                "5fad3aad487909faeec32e320be18efc",
                "89efa8c05b59bb07c3b560c03171494f",
            ),
        ),
    ];
    for (spec, (key, pair)) in pinned {
        let (app, arch) = resolve_models(&spec, &Limits::default()).expect("resolves");
        let objective = Objective::parse_spec(&spec.objective).expect("objective");
        let (k, p) = store_keys(&app, &arch, &spec, &objective);
        assert_eq!(
            (k.hex().as_str(), p.hex().as_str()),
            (key, pair),
            "{spec:?}"
        );
    }
}

#[test]
fn a_log_written_before_the_memo_still_answers_exact_hits() {
    // The fixture holds the `corpus_spec` run, archived by a server that
    // predates the memo and the lending JSON writer.
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/forkjoin_dualfpga_s3.aof");
    let path = temp_store("historical.aof");
    std::fs::copy(&fixture, &path).expect("copy fixture");
    let handle = spawn_memo_server(&path);
    let addr = handle.addr().to_string();
    // Once through the resolve path, once through the memo.
    for _ in 0..2 {
        let hit = submit(&addr, &corpus_spec());
        assert_eq!(as_str(&hit, "store"), "exact");
        assert_eq!(as_str(&hit, "makespan_bits"), "40c737a982601618");
    }
    stop(handle);
}
