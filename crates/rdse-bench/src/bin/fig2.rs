//! Reproduction of **Fig. 2**: evolution of execution time and number
//! of contexts during a typical exploration of the motion-detection
//! application on a 2 000-CLB device.
//!
//! Paper reference points: initial random solution ≈ 67.9 ms with one
//! context; 1 200 iterations at infinite temperature with no average
//! improvement (execution time swinging between ~35 and ~70 ms,
//! contexts between 1 and 8); adaptive cooling then drives the
//! execution time under the 40 ms constraint, finishing at 18.1 ms with
//! 3 contexts after 5 000 iterations.
//!
//! Run with `--help` for the flags.

use rdse_bench::{ascii_plot, exit_code, CsvOut};
use rdse_cli::{flag, Command};
use rdse_mapping::{explore, ExploreOptions};
use rdse_workloads::{epicure_architecture, motion_detection_app, MOTION_DEADLINE};
use std::process::ExitCode;

#[rustfmt::skip]
static FIG2: Command = Command {
    name: "fig2",
    operands: "",
    flags: &[
        flag("--iters", "N"), flag("--warmup", "N"), flag("--clbs", "N"), flag("--seed", "N"),
        flag("--lambda", "X"), flag("--out", "F.csv"),
    ],
    about: "",
};

fn main() -> ExitCode {
    let args = FIG2.parse(std::env::args().skip(1));
    let iters: u64 = args.num("--iters", 5_000);
    let warmup: u64 = args.num("--warmup", 1_200);
    let clbs: u32 = args.num("--clbs", 2_000);
    let seed: u64 = args.num("--seed", 1);
    let lambda: f64 = args.num("--lambda", 0.5);
    let out = match CsvOut::create(args.value("--out").unwrap_or("results/fig2.csv")) {
        Ok(out) => out,
        Err(e) => return exit_code(Err(e)),
    };

    let app = motion_detection_app();
    let arch = epicure_architecture(clbs);

    let outcome = explore(
        &app,
        &arch,
        &ExploreOptions {
            max_iterations: iters,
            warmup_iterations: warmup,
            seed,
            trace_every: 10,
            lambda,
            ..ExploreOptions::default()
        },
    )
    .expect("motion benchmark explores cleanly");

    let trace = &outcome.run.trace;
    let find = |names: &[(&'static str, f64)], key: &str| {
        names
            .iter()
            .find(|(n, _)| *n == key)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    };

    let exec: Vec<(f64, f64)> = trace
        .iter()
        .map(|t| (t.iteration as f64, find(&t.observables, "makespan_ms")))
        .collect();
    let ctxs: Vec<(f64, f64)> = trace
        .iter()
        .map(|t| (t.iteration as f64, find(&t.observables, "n_contexts")))
        .collect();

    println!(
        "{}",
        ascii_plot(
            "Fig. 2a — execution time (ms) vs iteration",
            &[("exec ms", &exec)],
            78,
            18
        )
    );
    println!(
        "{}",
        ascii_plot(
            "Fig. 2b — number of contexts vs iteration",
            &[("contexts", &ctxs)],
            78,
            10
        )
    );

    let initial_ms = outcome.run.initial_cost / 1000.0;
    let best_ms = outcome.run.best_cost / 1000.0;
    println!("device size            : {clbs} CLBs");
    println!("iterations             : {iters} ({warmup} at infinite temperature)");
    println!("initial execution time : {initial_ms:.1} ms (paper: 67.9 ms)");
    println!(
        "warm-up range          : {:.1} .. {:.1} ms (paper: ~35 .. ~70 ms)",
        outcome.run.warmup.min() / 1000.0,
        outcome.run.warmup.max() / 1000.0
    );
    println!(
        "final execution time   : {best_ms:.1} ms with {} contexts (paper: 18.1 ms, 3 contexts)",
        outcome.evaluation.n_contexts
    );
    println!(
        "constraint             : {} -> {}",
        MOTION_DEADLINE,
        if outcome.evaluation.makespan <= MOTION_DEADLINE {
            "MET"
        } else {
            "MISSED"
        }
    );
    println!(
        "moves                  : {} accepted / {} rejected / {} infeasible, wall {:?}",
        outcome.run.accepted, outcome.run.rejected, outcome.run.infeasible, outcome.run.elapsed
    );
    println!(
        "final breakdown        : initial reconfig {:.1} ms + dynamic reconfig {:.1} ms + comp/comm {:.1} ms",
        outcome.evaluation.breakdown.initial_reconfig.as_millis(),
        outcome.evaluation.breakdown.dynamic_reconfig.as_millis(),
        outcome.evaluation.breakdown.computation_communication.as_millis()
    );
    println!(
        "final partition        : {} of {} tasks in hardware, {} configured",
        outcome.evaluation.n_hw_tasks,
        app.n_tasks(),
        outcome.mapping.total_configured_clbs(&app)
    );

    let rows: Vec<Vec<f64>> = trace
        .iter()
        .map(|t| {
            vec![
                t.iteration as f64,
                find(&t.observables, "makespan_ms"),
                t.best_cost / 1000.0,
                find(&t.observables, "n_contexts"),
                find(&t.observables, "initial_reconfig_ms"),
                find(&t.observables, "dynamic_reconfig_ms"),
                t.inverse_temperature,
            ]
        })
        .collect();
    exit_code(out.write(
        &[
            "iteration",
            "exec_ms",
            "best_ms",
            "n_contexts",
            "initial_reconfig_ms",
            "dynamic_reconfig_ms",
            "inverse_temperature",
        ],
        &rows,
    ))
}
