//! Step-throughput microbench of the incremental evaluation engine.
//!
//! Measures annealing steps/second of the production
//! [`Explorer`] (in-place moves, arena-backed [`Evaluator`] scoring,
//! O(touched) delta undo) on the fig3 workload (motion detection ×
//! EPICURE at 2 000 CLBs). The result appends to `RDSE_BENCH_JSON`
//! (NDJSON) next to the criterion records, with an explicit
//! `steps_per_sec` field that CI surfaces in the job log and
//! `bench_compare` gates.
//!
//! Parity with the from-scratch `evaluate()` is checked by tests, not
//! here: `incremental_evaluation_matches_from_scratch` in
//! `rdse-mapping`'s property tests compares move and undo costs bit
//! for bit along random walks.
//!
//! Knobs: `RDSE_BENCH_STEPS` overrides the measured step count.
//!
//! [`Evaluator`]: rdse_mapping::Evaluator

use rdse_mapping::{ExploreOptions, Explorer, Objective};
use rdse_workloads::{epicure_architecture, motion_detection_app};
use std::io::Write as _;
use std::time::Instant;

fn opts(steps: u64) -> ExploreOptions {
    ExploreOptions {
        max_iterations: steps,
        warmup_iterations: steps / 20,
        seed: 1,
        objective: Objective::MinimizeMakespan,
        ..ExploreOptions::default()
    }
}

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

fn main() {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let steps: u64 = std::env::var("RDSE_BENCH_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);

    // One warm-up run, then one timed run.
    let run = |steps: u64| {
        let mut chain = Explorer::new(&app, &arch, &opts(steps)).expect("explores");
        let start = Instant::now();
        chain.run_segment(u64::MAX);
        (chain.iterations(), start.elapsed())
    };
    run(steps.min(20_000));
    let (done, elapsed) = run(steps);
    let rate = done as f64 / elapsed.as_secs_f64();

    println!("bench anneal_steps/incremental  {rate:>12.0} steps/s ({done} steps in {elapsed:?})");
    append_record(&format!(
        "{{\"name\":\"anneal_steps/incremental\",\"steps_per_sec\":{rate:.0},\
         \"steps\":{done},\"seconds\":{:.6}}}",
        elapsed.as_secs_f64()
    ));
}
