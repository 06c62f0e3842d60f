//! End-to-end guarantees of the serving path:
//!
//! 1. A served job's result is **bit-identical** to the offline
//!    `explore_parallel` for the same `(seed, chains)` — makespan and
//!    every Pareto-front member, compared via `f64::to_bits`.
//! 2. Submitting the same job twice (model-cache path) and against a
//!    restarted server changes nothing.
//! 3. Model-cache reuse is observable: the health report's
//!    `evaluator_cache_hits` goes above zero on the second submission.

use rdse_corpus::{ArchFamily, WorkloadFamily};
use rdse_mapping::{explore_parallel, CostVector, ExploreOptions, ParallelOptions};
use rdse_model::{Architecture, TaskGraph};
use rdse_serve::client::{self, ClientOptions};
use rdse_serve::protocol::{AppSpec, ArchSpec, JobSpec};
use rdse_serve::{ServeConfig, Server, ServerHandle};
use rdse_workloads::{epicure_architecture, motion_detection_app};
use serde::Value;

fn spawn_server() -> ServerHandle {
    Server::bind(ServeConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn")
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

/// The same fingerprint computed by the **offline** engine. Threads
/// are deliberately left at "all cores": thread count must not change
/// the result, so this also cross-checks the served single-threaded
/// runs against a multi-threaded offline portfolio.
fn offline_bits(
    app: &TaskGraph,
    arch: &Architecture,
    spec: &JobSpec,
) -> (String, Vec<(String, String, u64)>) {
    let outcome = explore_parallel(
        app,
        arch,
        &ParallelOptions {
            base: ExploreOptions {
                max_iterations: spec.iters,
                warmup_iterations: spec.warmup,
                seed: spec.seed,
                ..ExploreOptions::default()
            },
            chains: spec.chains,
            threads: 0,
            exchange_every: spec.exchange_every,
            warm_start: None,
            front_exchange: false,
        },
    )
    .expect("offline exploration succeeds");
    let makespan = outcome.evaluation.summary().makespan.value();
    let members = outcome
        .front
        .sorted_members(|a: &CostVector, b: &CostVector| a.makespan.total_cmp(&b.makespan))
        .into_iter()
        .map(|m| {
            (
                format!("{:016x}", m.makespan.to_bits()),
                format!("{:016x}", m.reconfig_overhead.to_bits()),
                m.contexts as u64,
            )
        })
        .collect();
    (format!("{:016x}", makespan.to_bits()), members)
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

#[test]
fn served_motion_job_is_bit_identical_to_offline_explore() {
    let handle = spawn_server();
    let addr = handle.addr().to_string();
    let opts = ClientOptions::default();

    let spec = motion_spec();
    let mut updates = 0usize;
    let result = client::submit(&addr, &spec, &opts, |_| updates += 1).expect("job succeeds");
    assert!(updates > 0, "no incremental updates were streamed");

    let offline = offline_bits(&motion_detection_app(), &epicure_architecture(2000), &spec);
    assert_eq!(served_bits(&result), offline, "served ≠ offline");
    assert!(!offline.1.is_empty(), "empty Pareto front");

    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");
}

#[test]
fn corpus_scenario_job_is_bit_identical_to_offline_explore() {
    let handle = spawn_server();
    let addr = handle.addr().to_string();
    let opts = ClientOptions::default();

    let spec = JobSpec {
        app: AppSpec::Workload {
            family: "pipeline".into(),
            seed: 3,
        },
        arch: ArchSpec::Family {
            family: "dual-fpga".into(),
            seed: 3,
        },
        objective: "makespan".into(),
        iters: 500,
        warmup: 120,
        seed: 7,
        chains: 2,
        exchange_every: 125,
    };
    let result = client::submit(&addr, &spec, &opts, |_| {}).expect("job succeeds");

    let app = WorkloadFamily::parse("pipeline")
        .expect("family")
        .generate(3);
    let arch = ArchFamily::parse("dual-fpga").expect("family").build(3);
    assert_eq!(
        served_bits(&result),
        offline_bits(&app, &arch, &spec),
        "served scenario ≠ offline"
    );

    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");
}

#[test]
fn resubmission_and_restart_are_deterministic_and_hit_the_warm_cache() {
    let handle = spawn_server();
    let addr = handle.addr().to_string();
    let opts = ClientOptions::default();
    let spec = motion_spec();

    let first = client::submit(&addr, &spec, &opts, |_| {}).expect("first run");
    assert_eq!(as_str(&first, "cache"), "miss");

    // Same (app, arch) again: lands on the same worker shard, reuses
    // its cached models, and must not perturb a single bit.
    let second = client::submit(&addr, &spec, &opts, |_| {}).expect("second run");
    assert_eq!(as_str(&second, "cache"), "hit");
    assert_eq!(served_bits(&first), served_bits(&second));

    let health = client::health(&addr, &opts).expect("health");
    assert!(
        as_u64(&health, "evaluator_cache_hits") > 0,
        "model-cache reuse not observable in healthz: {health:?}"
    );
    assert_eq!(as_u64(&health, "jobs_served"), 2);

    // The registry remembers both runs.
    let record = client::get_job(&addr, as_u64(&first, "job"), &opts).expect("record");
    assert_eq!(as_str(&record, "state"), "done");

    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");

    // A cold restart reproduces the identical result.
    let handle = spawn_server();
    let addr = handle.addr().to_string();
    let third = client::submit(&addr, &spec, &opts, |_| {}).expect("post-restart run");
    assert_eq!(
        served_bits(&first),
        served_bits(&third),
        "restart changed bits"
    );

    client::shutdown(&addr, &opts).expect("shutdown");
    handle.join().expect("clean exit");
}
