//! Ablations of the annealer's design choices:
//!
//! * **A2 — schedules**: Lam adaptive cooling vs geometric cooling vs
//!   pure random walk, at an equal iteration budget, on the motion
//!   benchmark (the paper's claim is that the adaptive schedule needs
//!   no per-problem tuning yet converges at least as well);
//! * **move controller**: adaptive move-class weighting vs uniform
//!   class selection.
//!
//! (A1, the §4.4 Woodbury-type incremental longest path, was measured
//! and dropped; the README's "Deviations from the paper" section gives
//! its numbers.)
//!
//! Run with `--help` for the flags.

use rdse_anneal::{anneal, GeometricSchedule, InfiniteTemperature, LamSchedule, RunOptions};
use rdse_bench::{exit_code, mean, std_dev, CsvOut};
use rdse_cli::{flag, Command};
use rdse_mapping::{random_initial, MappingProblem};
use rdse_workloads::{epicure_architecture, motion_detection_app};
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

static ABLATION: Command = Command {
    name: "ablation",
    operands: "",
    flags: &[
        flag("--runs", "N"),
        flag("--iters", "N"),
        flag("--clbs", "N"),
        flag("--out", "F.csv"),
    ],
    about: "",
};

fn main() -> ExitCode {
    let args = ABLATION.parse(std::env::args().skip(1));
    let runs: u64 = args.num("--runs", 20);
    let iters: u64 = args.num("--iters", 5_000);
    let clbs: u32 = args.num("--clbs", 2_000);
    let out = match CsvOut::create(args.value("--out").unwrap_or("results/ablation.csv")) {
        Ok(out) => out,
        Err(e) => return exit_code(Err(e)),
    };

    let app = motion_detection_app();
    let arch = epicure_architecture(clbs);

    let run_one = |schedule_name: &str, seed: u64, adaptive_moves: bool| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let initial = random_initial(&app, &arch, &mut rng);
        let mut problem =
            MappingProblem::new(&app, &arch, initial).expect("initial solution feasible");
        let opts = RunOptions {
            max_iterations: iters,
            warmup_iterations: iters / 5,
            seed: seed ^ 0xDEAD_BEEF,
            adaptive_moves,
            ..RunOptions::default()
        };
        let best = match schedule_name {
            "lam" => anneal(&mut problem, &mut LamSchedule::new(0.5), &opts).best_cost,
            "geometric" => {
                anneal(
                    &mut problem,
                    &mut GeometricSchedule::new(5_000.0, 0.999, 10),
                    &opts,
                )
                .best_cost
            }
            "random-walk" => anneal(&mut problem, &mut InfiniteTemperature::new(), &opts).best_cost,
            other => unreachable!("unknown schedule {other}"),
        };
        best / 1000.0
    };

    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, schedule, adaptive) in [
        ("lam + adaptive moves", "lam", true),
        ("lam + uniform moves", "lam", false),
        ("geometric + adaptive moves", "geometric", true),
        ("random walk", "random-walk", true),
    ] {
        let results: Vec<f64> = (0..runs)
            .map(|r| run_one(schedule, 31 + r, adaptive))
            .collect();
        table.push((label.to_string(), results));
    }

    println!(
        "configuration                best(ms)  mean(ms)  sd(ms)   ({} runs × {} iters)",
        runs, iters
    );
    for (label, results) in &table {
        println!(
            "{label:<28} {:>8.1}  {:>8.1}  {:>6.2}",
            results.iter().copied().fold(f64::INFINITY, f64::min),
            mean(results),
            std_dev(results)
        );
    }

    let n = table[0].1.len();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut row = vec![i as f64];
            row.extend(table.iter().map(|(_, v)| v[i]));
            row
        })
        .collect();
    exit_code(out.write(
        &[
            "run",
            "lam_adaptive",
            "lam_uniform",
            "geometric",
            "random_walk",
        ],
        &rows,
    ))
}
