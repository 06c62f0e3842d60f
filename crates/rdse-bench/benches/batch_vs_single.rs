//! Throughput of [`Evaluator::evaluate_batch`] against one-at-a-time
//! evaluation of the same candidate set.
//!
//! The batch API amortizes one full synchronization of the base
//! mapping across every candidate: each candidate is applied as a
//! diff, scored through the incremental delta path, and rolled back. The
//! single-evaluator baseline pays a full arena-backed pass per
//! candidate. Both sides are asserted bit-identical per candidate
//! before anything is timed.
//!
//! Candidates are 1–3-move perturbations of a common base — the shape
//! a portfolio or tournament step hands the evaluator. Two workloads
//! are measured: the paper's fig3 motion-detection graph (29 tasks)
//! and a 200-task layered DAG. A `profile_*` line reports the split
//! that decides each outcome: how many candidates were relabeled by a
//! plain sweep over the maintained topological order versus how many
//! first had to re-sort the window of the order their moves broke
//! (cyclic candidates stop after that re-sort).
//!
//! That split is the story of the mixed-move ceiling. Multi-move
//! candidates with pair moves reorder schedules and contexts, so many
//! of them pay the diff scan, the undo-log writes and a window
//! re-sort before a sweep over a long order suffix, then a rollback,
//! where the single evaluator pays one clean full pass. On the
//! 29-task fig3 graph the full pass is so cheap that this bookkeeping
//! is the same order of magnitude; on 200 tasks the sweep relabels a
//! fraction of the graph, and single-impl-move batches never re-sort
//! at all. Results append to `RDSE_BENCH_JSON` (NDJSON) with
//! explicit `steps_per_sec` fields (candidates scored per second,
//! gated by `bench_compare`).
//!
//! Knobs: `RDSE_BENCH_STEPS` overrides the per-workload candidate count.

use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// Candidate-set shapes: mixed multi-move perturbations (the general
/// case, re-sort heavy) or single re-implementation moves (the
/// tournament/packing case the sweep absorbs without a re-sort).
#[derive(Clone, Copy)]
enum Moves {
    Mixed,
    ImplOnly,
}

/// Builds `count` candidates near `base`: 1–3 random moves each
/// (`Mixed`) or exactly one re-implementation move (`ImplOnly`).
fn make_candidates(
    app: &TaskGraph,
    arch: &Architecture,
    base: &Mapping,
    rng: &mut StdRng,
    count: usize,
    moves: Moves,
) -> Vec<Mapping> {
    let mut scratch = MoveScratch::default();
    (0..count)
        .map(|c| {
            let mut cand = base.clone();
            match moves {
                Moves::Mixed => {
                    for step in 0..=(c % 3) {
                        let _ = if (c + step) % 2 == 0 {
                            propose_pair_move(app, arch, &mut cand, rng, &mut scratch)
                        } else {
                            propose_impl_move(app, arch, &mut cand, rng, &mut scratch)
                        };
                    }
                }
                Moves::ImplOnly => {
                    let _ = propose_impl_move(app, arch, &mut cand, rng, &mut scratch);
                }
            }
            cand
        })
        .collect()
}

fn run_workload(
    label: &str,
    app: &TaskGraph,
    arch: &Architecture,
    seed: u64,
    total: u64,
    moves: Moves,
) {
    let batch_size = 256usize;
    let rounds = (total as usize / batch_size).max(4);

    let mut rng = StdRng::seed_from_u64(seed);
    let base = random_initial(app, arch, &mut rng);
    let candidates = make_candidates(app, arch, &base, &mut rng, batch_size, moves);

    // Parity: batch results equal one-at-a-time results, bit for bit
    // (summaries for feasible candidates, error classes otherwise).
    let mut batch_eval = Evaluator::new(app, arch);
    let mut single_eval = Evaluator::new(app, arch);
    let results = batch_eval
        .evaluate_batch(&base, &candidates)
        .expect("base is feasible")
        .to_vec();
    for (i, (cand, got)) in candidates.iter().zip(&results).enumerate() {
        let fresh = single_eval.evaluate(cand);
        match (got, fresh) {
            (Ok(b), Ok(f)) => assert_eq!(*b, f, "batch diverged on candidate {i}"),
            (Err(b), Err(f)) => assert_eq!(*b, f, "error class diverged on candidate {i}"),
            (b, f) => panic!("feasibility diverged on candidate {i}: {b:?} vs {f:?}"),
        }
    }

    // Warm-up one round each, then the timed rounds.
    black_box(batch_eval.evaluate_batch(&base, &candidates).unwrap());
    let stats_before = batch_eval.stats();
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(batch_eval.evaluate_batch(&base, &candidates).unwrap());
    }
    let batch_time = start.elapsed();
    let stats = batch_eval.stats();
    // Where the batch path spends its time: candidates relabeled by a
    // plain sweep vs. candidates that first re-sorted the window of
    // the order their moves broke (the mixed-move ceiling, see the
    // module docs).
    let repairs = stats.repairs - stats_before.repairs;
    let resorts = stats.fallbacks - stats_before.fallbacks;
    let cone = stats.cone_nodes - stats_before.cone_nodes;
    let scored = rounds as u64 * candidates.len() as u64;
    println!(
        "bench batch_vs_single/profile_{label}: {repairs} swept (mean cone {:.1}), \
         {resorts} window re-sorts ({:.0}% of candidates)",
        cone as f64 / (repairs as f64).max(1.0),
        100.0 * resorts as f64 / (scored as f64).max(1.0)
    );

    for cand in &candidates {
        let _ = black_box(single_eval.evaluate(black_box(cand)));
    }
    let start = Instant::now();
    for _ in 0..rounds {
        for cand in &candidates {
            let _ = black_box(single_eval.evaluate(black_box(cand)));
        }
    }
    let single_time = start.elapsed();

    let scored = (rounds * batch_size) as f64;
    let batch_rate = scored / batch_time.as_secs_f64();
    let single_rate = scored / single_time.as_secs_f64();
    let speedup = batch_rate / single_rate;

    println!(
        "bench batch_vs_single/batch_{label}  {batch_rate:>12.0} cands/s \
         ({rounds} rounds x {batch_size} in {batch_time:?})"
    );
    println!(
        "bench batch_vs_single/single_{label} {single_rate:>12.0} cands/s \
         ({rounds} rounds x {batch_size} in {single_time:?})"
    );
    println!("bench batch_vs_single/speedup_{label} {speedup:>10.2}x");

    append_record(&format!(
        "{{\"name\":\"batch_vs_single/batch_{label}\",\"steps_per_sec\":{batch_rate:.0},\
         \"steps\":{},\"seconds\":{:.6}}}",
        scored as u64,
        batch_time.as_secs_f64()
    ));
    append_record(&format!(
        "{{\"name\":\"batch_vs_single/single_{label}\",\"steps_per_sec\":{single_rate:.0},\
         \"steps\":{},\"seconds\":{:.6}}}",
        scored as u64,
        single_time.as_secs_f64()
    ));
    append_record(&format!(
        "{{\"name\":\"batch_vs_single/speedup_{label}\",\"ratio\":{speedup:.3}}}"
    ));
}

fn main() {
    let total: u64 = std::env::var("RDSE_BENCH_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);

    let fig3_app = motion_detection_app();
    let fig3_arch = epicure_architecture(2000);
    run_workload("fig3", &fig3_app, &fig3_arch, 11, total, Moves::Mixed);

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
    run_workload(
        "layered200",
        &layered,
        &layered_arch,
        13,
        total,
        Moves::Mixed,
    );
    run_workload(
        "layered200_impl",
        &layered,
        &layered_arch,
        17,
        total,
        Moves::ImplOnly,
    );
}
