//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore_fig3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`).

use rdse_perfbench::{run, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: rdse-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        rdse_perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = value("--workload") else {
        return usage("missing --workload");
    };
    if !rdse_perfbench::WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload '{workload}'"));
    }
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or malformed --seed");
    };
    let Some(seconds) = value("--seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("missing or malformed --seconds");
    };
    let trace = match value("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return usage("--trace must be 0 or 1"),
    };

    // Store logs live under the current directory (the checkout) and
    // are removed when the run ends.
    let work_dir = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        threads: 1,
        tiny: false,
        work_dir: work_dir.clone(),
    };
    let result = run(&workload, &cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    // Leave the parent only if other runs still use it.
    let _ = std::fs::remove_dir(".perfbench-tmp");
    match result {
        Ok(outcome) => {
            eprint!(
                "{workload} (seed {seed}, trace {})\n{}",
                u8::from(trace),
                outcome.human_report(trace)
            );
            if let Some(p) = outcome.values.get("host.parallelism") {
                eprintln!("host parallelism (two-worker spin): {p:?}");
            }
            println!("{}", outcome.json_line(trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
