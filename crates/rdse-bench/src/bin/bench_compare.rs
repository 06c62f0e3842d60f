//! Compares a bench NDJSON run against the committed baseline and
//! gates CI on throughput regressions.
//!
//! Usage: `bench_compare <baseline.json> <current.json> [--max-regression PCT]`
//! (`--help` prints the same).
//!
//! Both files are newline-delimited JSON records as written by the
//! bench harness (`RDSE_BENCH_JSON`). Records are matched by `name`;
//! for every pair carrying a `steps_per_sec` field the relative change
//! is printed, and the process exits non-zero when any drops by more
//! than the allowed regression (default 25%). A passing run ends with
//! a one-line summary (rows compared / improved / regressed) so the
//! tail of a green CI log still says what was checked. Rows present in only one
//! of the files are listed by name on both sides — a bench that
//! silently stopped running (or a baseline row nothing produces
//! anymore) is drift worth seeing, even though only regressions fail
//! the gate.
//!
//! CI runners and developer machines differ in absolute speed, so the
//! generous default only catches step-cost blowups, not noise; the
//! baseline (`BENCH_main.json` at the repo root) is refreshed
//! deliberately whenever the engine's cost per step changes on
//! purpose.

use rdse_cli::{flag, Command};
use serde_json::Value;

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::I64(n) => Some(n as f64),
        Value::U64(n) => Some(n as f64),
        _ => None,
    }
}

/// Renders a rate with four significant digits below 100 (so a
/// dimensionless row such as 1.1564 reads `1.156`, not `1`) and as a
/// whole number above.
fn fmt_rate(v: f64) -> String {
    if v == 0.0 || !v.is_finite() || v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 8) as usize;
        format!("{v:.decimals$}")
    }
}

fn steps_per_sec(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench file '{path}': {e}"));
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            eprintln!("warning: skipping malformed bench line in {path}: {line}");
            continue;
        };
        let name = match v.get("name") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let rate = v.get("steps_per_sec").and_then(as_f64);
        let (Some(name), Some(rate)) = (name, rate) else {
            continue;
        };
        // Keep the newest record per name (reruns append).
        if let Some(slot) = out
            .iter_mut()
            .find(|(n, _): &&mut (String, f64)| *n == name)
        {
            slot.1 = rate;
        } else {
            out.push((name, rate));
        }
    }
    out
}

static BENCH_COMPARE: Command = Command {
    name: "bench_compare",
    operands: "<baseline.json> <current.json>",
    flags: &[flag("--max-regression", "PCT")],
    about: "",
};

fn main() {
    let args = BENCH_COMPARE.parse(std::env::args().skip(1));
    let [baseline_path, current_path] = args.operands() else {
        args.fail("missing <baseline.json> <current.json>");
    };
    let max_regression: f64 = args.num("--max-regression", 25.0);

    let baseline = steps_per_sec(baseline_path);
    let current = steps_per_sec(current_path);

    println!("bench comparison vs {baseline_path} (fail below -{max_regression:.0}%):");
    let mut compared = 0;
    let mut baseline_only: Vec<&String> = Vec::new();
    let mut failures: Vec<(&String, f64, f64, f64)> = Vec::new();
    for (name, base_rate) in &baseline {
        let Some((_, cur_rate)) = current.iter().find(|(n, _)| n == name) else {
            baseline_only.push(name);
            println!("  {name:<34} missing from {current_path} (skipped)");
            continue;
        };
        compared += 1;
        let change = (cur_rate - base_rate) / base_rate * 100.0;
        let verdict = if change < -max_regression {
            failures.push((name, *base_rate, *cur_rate, change));
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  {name:<34} {:>12} -> {:>12} steps/s ({change:>+6.1}%)  {verdict}",
            fmt_rate(*base_rate),
            fmt_rate(*cur_rate)
        );
    }
    // One-sided rows, both directions, as a summary block: names in
    // the baseline nothing produced, and names the current run emitted
    // that the baseline has never seen (a new bench whose row should
    // be committed).
    let current_only: Vec<&String> = current
        .iter()
        .map(|(n, _)| n)
        .filter(|n| !baseline.iter().any(|(b, _)| b == *n))
        .collect();
    if !baseline_only.is_empty() {
        println!(
            "  {} baseline row(s) not produced by {current_path}: {}",
            baseline_only.len(),
            baseline_only
                .iter()
                .map(|n| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if !current_only.is_empty() {
        println!(
            "  {} new row(s) absent from {baseline_path}: {}",
            current_only.len(),
            current_only
                .iter()
                .map(|n| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if compared == 0 {
        eprintln!("error: no comparable steps_per_sec records between the two files");
        std::process::exit(2);
    }
    if !failures.is_empty() {
        // Every failing row again, in one block, so the cause is
        // readable from the tail of the CI log without scrolling
        // through the passing rows.
        eprintln!(
            "error: {} of {compared} benchmark(s) regressed more than {max_regression:.0}%:",
            failures.len()
        );
        for (name, base_rate, cur_rate, change) in &failures {
            eprintln!(
                "  {name:<34} {:>12} -> {:>12} steps/s ({change:>+6.1}%)",
                fmt_rate(*base_rate),
                fmt_rate(*cur_rate)
            );
        }
        eprintln!("refresh BENCH_main.json deliberately if the step-cost change is intentional");
        std::process::exit(1);
    }
    let improved = baseline
        .iter()
        .filter(|(name, base_rate)| {
            current
                .iter()
                .any(|(n, cur_rate)| n == name && cur_rate > base_rate)
        })
        .count();
    println!(
        "bench_compare: {compared} row(s) compared, {improved} improved, 0 regressed \
         beyond -{max_regression:.0}%"
    );
}

#[cfg(test)]
mod tests {
    use super::fmt_rate;

    #[test]
    fn small_rates_keep_four_significant_digits() {
        assert_eq!(fmt_rate(1.1564), "1.156");
        assert_eq!(fmt_rate(2.421), "2.421");
        assert_eq!(fmt_rate(45.0), "45.00");
        assert_eq!(fmt_rate(0.0123), "0.01230");
        assert_eq!(fmt_rate(0.0), "0");
        assert_eq!(fmt_rate(1_144_547.0), "1144547");
    }
}
