//! Microbench of the incremental delta path against the full
//! re-evaluation it replaces.
//!
//! Walks two workloads — fig3 (motion detection × EPICURE at 2 000
//! CLBs, 29 tasks: the repair cone is almost the whole graph) and a
//! 200-task layered DAG (cones are a small fraction of a full pass) —
//! with the production move proposers, each twice over the *identical*
//! RNG/move sequence (bit-identical feasibility guarantees the walks
//! coincide):
//!
//! * **delta** — [`Evaluator::evaluate_delta`] + coin-flip
//!   [`Evaluator::revert_delta`], the annealer's actual hot shape:
//!   a window re-sort of the maintained topological order when the
//!   move broke it, then a certified sweep over the order suffix;
//! * **full** — [`Evaluator::evaluate`] of every post-move mapping,
//!   the arena-backed full pass (rejection is a plain mapping undo).
//!
//! A parity prefix asserts the two are bit-identical before anything is
//! timed, so the ratio is a pure repair-machinery measurement. Results
//! append to `RDSE_BENCH_JSON` (NDJSON) with explicit `steps_per_sec`
//! fields (gated by `bench_compare`) plus a stats record carrying the
//! sweep, window re-sort and cone counters (`fallbacks` counts window
//! re-sorts).
//!
//! Knobs: `RDSE_BENCH_STEPS` overrides the measured step count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse_mapping::moves::{propose_impl_move, propose_pair_move, MoveScratch};
use rdse_mapping::{random_initial, Evaluator, Mapping};
use rdse_model::{Architecture, TaskGraph};
use rdse_workloads::{epicure_architecture, layered_dag, motion_detection_app, LayeredDagConfig};
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

fn append_record(record: &str) {
    let Ok(path) = std::env::var("RDSE_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| writeln!(file, "{record}"));
    if let Err(e) = written {
        eprintln!("warning: cannot append bench record: {e}");
    }
}

/// Drives `steps` proposals through the delta path, coin-flip
/// reverting, optionally checking every summary against a from-scratch
/// evaluator. Returns the number of applied (scored) moves.
fn delta_walk(
    app: &TaskGraph,
    arch: &Architecture,
    evaluator: &mut Evaluator,
    mapping: &mut Mapping,
    rng: &mut StdRng,
    steps: u64,
    check: Option<&mut Evaluator>,
) -> u64 {
    let mut scratch = MoveScratch::default();
    let mut reference = check;
    let mut applied = 0u64;
    for i in 0..steps {
        let outcome = if i % 2 == 0 {
            propose_pair_move(app, arch, mapping, rng, &mut scratch)
        } else {
            propose_impl_move(app, arch, mapping, rng, &mut scratch)
        };
        let Some(o) = outcome else { continue };
        applied += 1;
        match black_box(evaluator.evaluate_delta(mapping, o.delta.task())) {
            Ok(summary) => {
                if let Some(full) = reference.as_deref_mut() {
                    let fresh = full.evaluate(mapping).expect("delta accepted => feasible");
                    assert_eq!(
                        summary, fresh,
                        "delta and full evaluation diverged at step {i}"
                    );
                }
                if rng.random::<bool>() {
                    evaluator.revert_delta();
                    o.delta.undo(mapping);
                }
            }
            Err(_) => o.delta.undo(mapping),
        }
    }
    applied
}

/// Drives the same walk shape as [`delta_walk`] but scores every move
/// with the arena-backed *full* pass (rejection = plain mapping undo).
/// Feasibility and coin flips are bit-identical to the delta walk, so
/// both walks traverse the same mapping sequence.
fn full_walk(
    app: &TaskGraph,
    arch: &Architecture,
    evaluator: &mut Evaluator,
    mapping: &mut Mapping,
    rng: &mut StdRng,
    steps: u64,
) -> u64 {
    let mut scratch = MoveScratch::default();
    let mut applied = 0u64;
    for i in 0..steps {
        let outcome = if i % 2 == 0 {
            propose_pair_move(app, arch, mapping, rng, &mut scratch)
        } else {
            propose_impl_move(app, arch, mapping, rng, &mut scratch)
        };
        let Some(o) = outcome else { continue };
        applied += 1;
        match black_box(evaluator.evaluate(mapping)) {
            Ok(_) => {
                if rng.random::<bool>() {
                    o.delta.undo(mapping);
                }
            }
            Err(_) => o.delta.undo(mapping),
        }
    }
    applied
}

fn run_workload(label: &str, app: &TaskGraph, arch: &Architecture, seed: u64, steps: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mapping = random_initial(app, arch, &mut rng);
    let mut evaluator = Evaluator::new(app, arch);
    evaluator.evaluate(&mapping).expect("feasible initial");

    // Parity prefix: every delta summary must equal the from-scratch
    // summary, bit for bit, before we time anything.
    let mut reference = Evaluator::new(app, arch);
    delta_walk(
        app,
        arch,
        &mut evaluator,
        &mut mapping,
        &mut rng,
        2_000,
        Some(&mut reference),
    );

    // Warm-up, then snapshot (mapping + RNG) so both timed walks take
    // the identical move sequence.
    delta_walk(
        app,
        arch,
        &mut evaluator,
        &mut mapping,
        &mut rng,
        steps.min(20_000),
        None,
    );
    let mapping_snap = mapping.clone();
    let rng_snap = rng.clone();

    let stats_before = evaluator.stats();
    let start = Instant::now();
    let applied = delta_walk(
        app,
        arch,
        &mut evaluator,
        &mut mapping,
        &mut rng,
        steps,
        None,
    );
    let delta_time = start.elapsed();

    // The identical walk, scored by the arena-backed full pass. Warm
    // the arenas on clones so the timed walk starts from the snapshot.
    let mut full_mapping = mapping_snap;
    let mut full_rng = rng_snap;
    let mut full_eval = Evaluator::new(app, arch);
    {
        let mut warm_mapping = full_mapping.clone();
        let mut warm_rng = full_rng.clone();
        full_walk(
            app,
            arch,
            &mut full_eval,
            &mut warm_mapping,
            &mut warm_rng,
            steps.min(20_000),
        );
    }
    let start = Instant::now();
    let full_applied = full_walk(
        app,
        arch,
        &mut full_eval,
        &mut full_mapping,
        &mut full_rng,
        steps,
    );
    let full_time = start.elapsed();

    assert_eq!(full_mapping, mapping, "delta and full walks diverged");

    let delta_rate = applied as f64 / delta_time.as_secs_f64();
    let full_rate = full_applied as f64 / full_time.as_secs_f64();
    let speedup = delta_rate / full_rate;

    let stats = evaluator.stats();
    let repairs = stats.repairs - stats_before.repairs;
    let resorts = stats.fallbacks - stats_before.fallbacks;
    let cone_nodes = stats.cone_nodes - stats_before.cone_nodes;
    let mean_cone = cone_nodes as f64 / (repairs.max(1)) as f64;

    println!("bench eval_repair/delta_{label}  {delta_rate:>12.0} steps/s ({applied} scored moves in {delta_time:?})");
    println!("bench eval_repair/full_{label}   {full_rate:>12.0} steps/s ({full_applied} scored moves in {full_time:?})");
    println!("bench eval_repair/speedup_{label} {speedup:>11.2}x");
    println!(
        "bench eval_repair/stats_{label}  repairs {repairs}, window re-sorts {resorts}, \
         mean cone {mean_cone:.1}, max cone {}",
        stats.max_cone
    );

    append_record(&format!(
        "{{\"name\":\"eval_repair/delta_{label}\",\"steps_per_sec\":{delta_rate:.0},\
         \"steps\":{applied},\"seconds\":{:.6}}}",
        delta_time.as_secs_f64()
    ));
    append_record(&format!(
        "{{\"name\":\"eval_repair/full_{label}\",\"steps_per_sec\":{full_rate:.0},\
         \"steps\":{full_applied},\"seconds\":{:.6}}}",
        full_time.as_secs_f64()
    ));
    append_record(&format!(
        "{{\"name\":\"eval_repair/stats_{label}\",\"repairs\":{repairs},\
         \"fallbacks\":{resorts},\"mean_cone\":{mean_cone:.2},\
         \"max_cone\":{}}}",
        stats.max_cone
    ));
}

fn main() {
    let steps: u64 = std::env::var("RDSE_BENCH_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);

    let fig3_app = motion_detection_app();
    let fig3_arch = epicure_architecture(2000);
    run_workload("fig3", &fig3_app, &fig3_arch, 7, steps);

    // A graph large enough that a repair cone is a small fraction of a
    // full pass (same shape as batch_vs_single's large workload).
    let layered = layered_dag(
        &LayeredDagConfig {
            layers: 20,
            width: 10,
            edge_percent: 30,
            hw_percent: 60,
        },
        42,
    );
    let layered_arch = epicure_architecture(4000);
    run_workload("layered200", &layered, &layered_arch, 9, steps);
}
