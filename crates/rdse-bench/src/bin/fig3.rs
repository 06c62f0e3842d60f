//! Reproduction of **Fig. 3**: average execution time, initial and
//! dynamic reconfiguration times, and number of contexts versus FPGA
//! size (100 → 10 000 CLBs), each point averaged over many runs.
//!
//! Paper reference shape: execution time is high for tiny devices,
//! drops quickly once a context can hold more than one task, reaches a
//! minimum around 800 CLBs, grows slowly and plateaus around 5 000
//! CLBs (from which size on a single context suffices); small devices
//! (400–1 500 CLBs) use up to ~10 contexts, the count dropping steadily
//! with size; total reconfiguration time stays roughly constant because
//! context count and context size compensate.
//!
//! The many runs per size are the independent chains of one
//! [`explore_parallel`] portfolio (exchange disabled, so the chains are
//! statistically independent samples), which also parallelizes the
//! sweep across cores deterministically.
//!
//! Run with `--help` for the flags.

use rdse_bench::{ascii_plot, exit_code, mean, CsvOut};
use rdse_cli::{flag, Command};
use rdse_mapping::{explore_parallel, ExploreOptions, ParallelOptions};
use rdse_workloads::{epicure_architecture, motion_detection_app};
use std::process::ExitCode;

/// Device sizes swept (CLBs), as in the paper's 100..10000 range.
const SIZES: [u32; 16] = [
    100, 200, 300, 400, 600, 800, 1000, 1250, 1500, 2000, 3000, 4000, 5000, 6000, 8000, 10000,
];

/// One averaged sweep point: (size, exec, initial reconfig, dynamic
/// reconfig, contexts).
type SweepRow = (u32, f64, f64, f64, f64);

#[rustfmt::skip]
static FIG3: Command = Command {
    name: "fig3",
    operands: "",
    flags: &[
        flag("--runs", "N"), flag("--iters", "N"), flag("--seed", "N"), flag("--lambda", "X"),
        flag("--threads", "T"), flag("--out", "F.csv"),
    ],
    about: "",
};

fn main() -> ExitCode {
    let args = FIG3.parse(std::env::args().skip(1));
    let runs: u64 = args.num("--runs", 100);
    let iters: u64 = args.num("--iters", 5_000);
    let seed0: u64 = args.num("--seed", 1);
    let lambda: f64 = args.num("--lambda", 0.5);
    let threads: usize = args.num("--threads", 0);
    let out = match CsvOut::create(args.value("--out").unwrap_or("results/fig3.csv")) {
        Ok(out) => out,
        Err(e) => return exit_code(Err(e)),
    };

    let app = motion_detection_app();
    let mut rows: Vec<SweepRow> = Vec::with_capacity(SIZES.len());
    for size in SIZES {
        let arch = epicure_architecture(size);
        // `runs` independent annealing chains: the total budget is
        // `iters` per chain, exchange disabled so each chain is one
        // Fig. 3 sample.
        let portfolio = explore_parallel(
            &app,
            &arch,
            &ParallelOptions {
                base: ExploreOptions {
                    max_iterations: iters * runs,
                    warmup_iterations: (iters / 5) * runs,
                    seed: seed0 + size as u64,
                    lambda,
                    ..ExploreOptions::default()
                },
                chains: runs as usize,
                threads,
                exchange_every: 0,
                warm_start: None,
                front_exchange: false,
            },
        )
        .expect("motion benchmark explores cleanly");
        let exec: Vec<f64> = portfolio
            .chains
            .iter()
            .map(|c| c.evaluation.makespan.as_millis())
            .collect();
        let init_r: Vec<f64> = portfolio
            .chains
            .iter()
            .map(|c| c.evaluation.breakdown.initial_reconfig.as_millis())
            .collect();
        let dyn_r: Vec<f64> = portfolio
            .chains
            .iter()
            .map(|c| c.evaluation.breakdown.dynamic_reconfig.as_millis())
            .collect();
        let ctxs: Vec<f64> = portfolio
            .chains
            .iter()
            .map(|c| c.evaluation.n_contexts as f64)
            .collect();
        rows.push((size, mean(&exec), mean(&init_r), mean(&dyn_r), mean(&ctxs)));
        eprintln!(
            "size {size:>5}: exec {:.1} ms, reconfig {:.1}+{:.1} ms, contexts {:.1} ({:?})",
            mean(&exec),
            mean(&init_r),
            mean(&dyn_r),
            mean(&ctxs),
            portfolio.elapsed,
        );
    }

    let exec_pts: Vec<(f64, f64)> = rows.iter().map(|r| (r.0 as f64, r.1)).collect();
    let init_pts: Vec<(f64, f64)> = rows.iter().map(|r| (r.0 as f64, r.2)).collect();
    let dyn_pts: Vec<(f64, f64)> = rows.iter().map(|r| (r.0 as f64, r.3)).collect();
    let ctx_pts: Vec<(f64, f64)> = rows.iter().map(|r| (r.0 as f64, r.4)).collect();

    println!(
        "{}",
        ascii_plot(
            "Fig. 3a — times (ms) vs FPGA size (CLBs)",
            &[
                ("execution time", &exec_pts),
                ("initial reconfiguration", &init_pts),
                ("dynamic reconfiguration", &dyn_pts),
            ],
            78,
            20
        )
    );
    println!(
        "{}",
        ascii_plot(
            "Fig. 3b — number of contexts vs FPGA size",
            &[("contexts", &ctx_pts)],
            78,
            10
        )
    );

    println!("size_clbs  exec_ms  init_reconfig_ms  dyn_reconfig_ms  contexts");
    for r in &rows {
        println!(
            "{:>8}  {:>7.1}  {:>16.1}  {:>15.1}  {:>8.1}",
            r.0, r.1, r.2, r.3, r.4
        );
    }
    let best = rows
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite means"))
        .expect("at least one size");
    println!(
        "\nminimum average execution time: {:.1} ms at {} CLBs (paper: minimum near 800 CLBs)",
        best.1, best.0
    );

    let csv_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| vec![r.0 as f64, r.1, r.2, r.3, r.4])
        .collect();
    exit_code(out.write(
        &[
            "size_clbs",
            "exec_ms",
            "initial_reconfig_ms",
            "dynamic_reconfig_ms",
            "n_contexts",
        ],
        &csv_rows,
    ))
}
