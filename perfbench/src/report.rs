//! Metric tables, summary statistics and the result line.
//!
//! Every run prints every metric of its kind: the end-to-end table
//! when tracing is off, the per-layer table when it is on. A workload
//! fills the values it measures; an end-to-end metric a workload left
//! unset is a bug in the benchmark, while a per-layer metric left unset
//! names a layer that workload does not exercise and reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One row of a metric table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `true` when the value is a pure function of the seed: it must
    /// repeat bit for bit across runs and thread counts.
    pub deterministic: bool,
}

const fn def(name: &'static str, unit: &'static str, deterministic: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        deterministic,
    }
}

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", false),
    def("jobs_per_s", "1/s", false),
    def("steps_per_s", "1/s", false),
    def("latency_p50_ms", "ms", false),
    def("search_latency_p50_ms", "ms", false),
    def("latency_p99_ms", "ms", false),
    def("best_makespan_us", "us", true),
    def("front_hypervolume", "ratio", true),
    def("peak_rss_mb", "MB", false),
];

/// Metrics of single layers, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("anneal.self_ns_per_step", "ns", false),
    def("anneal.accept_ratio", "ratio", true),
    def("anneal.infeasible_ratio", "ratio", true),
    def("moves.propose_ns", "ns", false),
    def("moves.undo_ns", "ns", false),
    def("evaluator.delta_ns", "ns", false),
    def("evaluator.revert_ns", "ns", false),
    def("evaluator.repair_ratio", "ratio", true),
    def("evaluator.mean_cone", "nodes", true),
    def("evaluator.full_ns", "ns", false),
    def("evaluator.batch_ns_per_candidate", "ns", false),
    def("explorer.barrier_share", "ratio", false),
    def("explorer.snapshot_ns", "ns", false),
    def("explorer.restore_ns", "ns", false),
    def("serve.first_update_ms", "ms", false),
    def("serve.cache_hit_ratio", "ratio", true),
    def("protocol.encode_us", "us", false),
    def("protocol.decode_us", "us", false),
    def("store.open_ms", "ms", false),
    def("store.append_ms", "ms", false),
    def("store.lookup_us", "us", false),
    def("store.exact", "count", true),
    def("store.dominated", "count", true),
    def("store.warm", "count", true),
    def("store.miss", "count", true),
    def("oracle.check_ms", "ms", false),
    def("sim.des_us", "us", false),
    def("corpus.explore_ms", "ms", false),
    def("pool.speedup_2t", "ratio", false),
    def("host.parallelism", "ratio", false),
    def("trace.overhead", "ratio", false),
    def("trace.makespan_match", "ratio", true),
    def("error_rate", "ratio", true),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// A description of every failure, for the human report.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The table this run reports.
    pub fn table(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The reported rows, in table order. Returns the names of
    /// end-to-end metrics the workload failed to set.
    pub fn rows(&self, trace: bool) -> (Vec<(MetricDef, f64)>, Vec<&'static str>) {
        let mut missing = Vec::new();
        let rows = Self::table(trace)
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(&v) => (*d, v),
                None => {
                    if !trace {
                        missing.push(d.name);
                    }
                    (*d, 0.0)
                }
            })
            .collect();
        (rows, missing)
    }

    /// `true` when every operation checked out and every reported value
    /// is a finite number.
    pub fn correct(&self, trace: bool) -> bool {
        let (rows, missing) = self.rows(trace);
        self.failed == 0 && missing.is_empty() && rows.iter().all(|(_, v)| v.is_finite())
    }

    /// The machine-readable result line.
    pub fn json_line(&self, trace: bool) -> String {
        let (rows, _) = self.rows(trace);
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(trace),
            self.attempted.max(1),
            self.failed
        );
        for (i, (d, v)) in rows.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest text that reads back to the
            // same f64, always with a decimal point.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// One line per metric for a human reader, deterministic metrics
    /// marked, followed by any failures.
    pub fn human_report(&self, trace: bool) -> String {
        let (rows, missing) = self.rows(trace);
        let mut out = String::new();
        for (d, v) in rows {
            let mark = if d.deterministic {
                "  [deterministic]"
            } else {
                ""
            };
            let _ = writeln!(out, "{:<34} {v:>24?} {:<6}{mark}", d.name, d.unit);
        }
        let _ = writeln!(
            out,
            "checked {} operation(s), {} failed",
            self.attempted, self.failed
        );
        for name in missing {
            let _ = writeln!(out, "missing end-to-end metric: {name}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "failure: {f}");
        }
        out
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated
/// between the closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The geometric mean of positive `values`; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Normalized two-axis hypervolume of a front of `(makespan, clb_area)`
/// points: the share of the box `[0, ref_makespan] × [0, ref_clbs]`
/// that the front dominates. Points outside the box are clamped to it.
/// The reference is fixed by the models (see `quality_reference`), so
/// the value is comparable across commits.
pub fn hypervolume_2d(points: &[(f64, f64)], ref_makespan: f64, ref_clbs: f64) -> f64 {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .map(|&(m, c)| (m.min(ref_makespan), c.min(ref_clbs)))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut area = 0.0;
    let mut best_c = ref_clbs;
    for (i, &(m, c)) in pts.iter().enumerate() {
        if c < best_c {
            best_c = c;
        }
        let next_m = pts.get(i + 1).map_or(ref_makespan, |p| p.0);
        area += (next_m - m) * (ref_clbs - best_c);
    }
    area / (ref_makespan * ref_clbs)
}

/// The fixed hypervolume reference of a model pair: twice the serial
/// all-software makespan (every task back to back on one processor),
/// which leaves room for the bus and reconfiguration delays of early
/// solutions, and the largest reconfigurable device's CLB count.
pub fn quality_reference(
    app: &rdse::model::TaskGraph,
    arch: &rdse::model::Architecture,
) -> (f64, f64) {
    let clbs = arch
        .drlcs()
        .iter()
        .map(|d| f64::from(d.n_clbs().value()))
        .fold(1.0, f64::max);
    (2.0 * app.total_sw_time().value(), clbs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn hypervolume_of_a_single_point_is_its_box() {
        let hv = hypervolume_2d(&[(50.0, 25.0)], 100.0, 100.0);
        assert!((hv - 0.375).abs() < 1e-12);
        // A dominated point adds nothing.
        let hv2 = hypervolume_2d(&[(50.0, 25.0), (60.0, 30.0)], 100.0, 100.0);
        assert_eq!(hv, hv2);
        // A trade-off point adds its own slab.
        let hv3 = hypervolume_2d(&[(50.0, 25.0), (20.0, 80.0)], 100.0, 100.0);
        assert!((hv3 - (0.375 + 0.3 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn json_line_reports_every_metric_of_the_table() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        for d in END_TO_END {
            o.set(d.name, 1.25);
        }
        let line = o.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.25", d.name)));
        }
        // Per-layer rows default to 0 for layers a workload skips.
        assert!(o
            .json_line(true)
            .contains("\"store.open_ms\": {\"value\": 0.0"));
    }
}
