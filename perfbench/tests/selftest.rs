//! Self-test of the benchmark: a tiny run of every workload, traced and
//! untraced, must report every named metric as a finite number, and
//! the deterministic metrics must repeat exactly across two runs and
//! across one and two worker threads.

use rdse_perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use rdse_perfbench::{run, Outcome, RunConfig, WORKLOADS};
use std::path::PathBuf;

fn tiny_run(workload: &str, trace: bool, threads: usize, tag: &str) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{workload}-{}-{threads}-{tag}",
        u8::from(trace)
    ));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    let cfg = RunConfig {
        seed: 7,
        seconds: 0.0,
        trace,
        threads,
        tiny: true,
        work_dir: work_dir.clone(),
    };
    let out = run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let _ = std::fs::remove_dir_all(&work_dir);
    out
}

fn deterministic(table: &[MetricDef], out: &Outcome) -> Vec<(&'static str, u64)> {
    table
        .iter()
        .filter(|d| d.deterministic)
        .map(|d| {
            (
                d.name,
                out.values.get(d.name).copied().unwrap_or(0.0).to_bits(),
            )
        })
        .collect()
}

fn check_workload(workload: &str, trace: bool) {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let first = tiny_run(workload, trace, 1, "a");
    assert!(
        first.correct(trace),
        "{workload} (trace {trace}) is not correct:\n{}",
        first.human_report(trace)
    );
    assert!(first.attempted > 0, "{workload}: nothing was checked");
    let (rows, missing) = first.rows(trace);
    assert!(missing.is_empty(), "{workload}: missing {missing:?}");
    assert_eq!(rows.len(), table.len());
    for (d, v) in &rows {
        assert!(v.is_finite(), "{workload}: {} = {v}", d.name);
    }
    if !trace {
        for (d, v) in &rows {
            assert!(*v > 0.0, "{workload}: end-to-end {} reads {v}", d.name);
        }
    }
    let line = first.json_line(trace);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for d in table {
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", d.name)),
            "{}",
            d.name
        );
    }

    let want = deterministic(table, &first);
    let again = tiny_run(workload, trace, 1, "b");
    assert_eq!(want, deterministic(table, &again), "{workload}: run to run");
    let two = tiny_run(workload, trace, 2, "c");
    assert!(
        two.correct(trace),
        "{workload} at two threads:\n{}",
        two.human_report(trace)
    );
    assert_eq!(
        want,
        deterministic(table, &two),
        "{workload}: one vs two threads"
    );
}

#[test]
fn explore_fig3_is_complete_and_deterministic() {
    check_workload("explore_fig3", false);
    check_workload("explore_fig3", true);
}

#[test]
fn explore_layered200_is_complete_and_deterministic() {
    check_workload("explore_layered200", false);
    check_workload("explore_layered200", true);
}

#[test]
fn serve_mixed_is_complete_and_deterministic() {
    check_workload("serve_mixed", false);
    check_workload("serve_mixed", true);
}

#[test]
fn corpus_oracle_is_complete_and_deterministic() {
    check_workload("corpus_oracle", false);
    check_workload("corpus_oracle", true);
}

/// `BENCHMARK.json` declares exactly the workloads and metrics the
/// benchmark reports, with the same units.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(json.contains(&entry), "metric {} ({})", d.name, d.unit);
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
