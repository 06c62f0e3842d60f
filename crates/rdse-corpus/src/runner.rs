//! The batch runner: fans scenarios across scoped worker threads,
//! explores each with the portfolio engine, gates every result behind
//! the four-way differential oracle and emits an NDJSON result matrix.
//!
//! Determinism: each scenario's exploration is a pure function of its
//! spec (the portfolio engine is thread-count invariant), scenarios are
//! indexed up front and records are sorted back into corpus order, so
//! the deterministic projection of the matrix ([`CorpusReport::golden_text`])
//! is **bit-identical regardless of the worker-thread count**. Only
//! `steps_per_sec` is wall-clock dependent, and it is excluded from the
//! golden projection.

use crate::oracle::{differential_check, front_check};
use crate::scenario::ScenarioSpec;
use rdse_mapping::{
    explore_parallel, hypervolume, Cost, CostVector, ExploreOptions, ParallelOptions,
};
use rdse_model::units::Micros;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Salt decorrelating the oracle's walk RNG from the exploration seed.
const ORACLE_WALK_SALT: u64 = 0x0AC1_E5EE_D000_0001;

/// Batch-run options.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Total annealing iterations per scenario (split across chains).
    pub iters: u64,
    /// Warm-up iterations per scenario.
    pub warmup: u64,
    /// Portfolio chains per scenario.
    pub chains: usize,
    /// Per-chain iterations between best-solution exchanges.
    pub exchange_every: u64,
    /// Worker threads fanning scenarios out (`0` = available
    /// parallelism). Never affects results, only wall-clock time.
    pub threads: usize,
    /// Length of the oracle's delta-undo walk per scenario.
    pub walk_steps: u32,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            iters: 600,
            warmup: 120,
            chains: 2,
            exchange_every: 150,
            threads: 0,
            walk_steps: 32,
        }
    }
}

/// One scenario's row of the result matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Position in the corpus (records are emitted in this order).
    pub index: usize,
    /// Scenario identifier (see [`ScenarioSpec::id`]).
    pub id: String,
    /// Workload family name.
    pub workload: String,
    /// Workload parameter label.
    pub params: String,
    /// Architecture family name.
    pub arch: String,
    /// Scenario seed.
    pub seed: u64,
    /// Task count of the generated DAG.
    pub n_tasks: usize,
    /// Edge count of the generated DAG.
    pub n_edges: usize,
    /// Best makespan found (µs), agreed bit-for-bit by all three
    /// engines.
    pub makespan: Micros,
    /// Contexts of the best mapping.
    pub n_contexts: usize,
    /// Hardware tasks of the best mapping.
    pub n_hw_tasks: usize,
    /// Peak context CLB occupancy of the best mapping (the clb_area
    /// objective).
    pub clb_area: u32,
    /// Reconfiguration overhead of the best mapping (µs; the reconfig
    /// objective: initial + dynamic).
    pub reconfig_us: f64,
    /// Members of the portfolio Pareto front (makespan × area ×
    /// reconfig × contexts), invariant-checked by the oracle.
    pub front_size: usize,
    /// Exact hypervolume of that front against the deterministic
    /// reference point "per-axis max over the members, + 1" (NDJSON
    /// only; the golden projection predates the front metrics and
    /// stays byte-stable).
    pub front_hypervolume: f64,
    /// Annealing iterations executed (all chains).
    pub iterations: u64,
    /// Accepted moves (all chains).
    pub accepted: u64,
    /// Rejected moves (all chains).
    pub rejected: u64,
    /// Infeasible proposals (all chains).
    pub infeasible: u64,
    /// Makespan under an exclusive FIFO bus (µs).
    pub contention_makespan: Micros,
    /// Move proposals whose delta-undo round trip was verified.
    pub oracle_moves_checked: u32,
    /// Walk states re-verified three ways.
    pub oracle_moves_applied: u32,
    /// Walk moves verified through the bounded-repair leg (NDJSON
    /// only; the golden projection predates the fourth leg and stays
    /// byte-stable).
    pub oracle_repair_checked: u32,
    /// Accepted states re-verified through `evaluate_batch` (NDJSON
    /// only, like `oracle_repair_checked`).
    pub oracle_batch_checked: u32,
    /// Annealing steps per second (wall-clock; **not** part of the
    /// golden projection).
    pub steps_per_sec: f64,
}

impl ScenarioRecord {
    /// The deterministic projection of this record: everything except
    /// wall-clock throughput. This is the line format of the golden
    /// snapshot.
    pub fn golden_line(&self) -> String {
        format!(
            "{{\"index\":{},\"id\":\"{}\",\"workload\":\"{}\",\"params\":\"{}\",\
             \"arch\":\"{}\",\"seed\":{},\"n_tasks\":{},\"n_edges\":{},\
             \"makespan_us\":{},\"makespan_bits\":\"{:#018x}\",\"n_contexts\":{},\
             \"n_hw_tasks\":{},\"clb_area\":{},\"reconfig_us\":{},\"front_size\":{},\
             \"iterations\":{},\"accepted\":{},\"rejected\":{},\
             \"infeasible\":{},\"contention_makespan_us\":{},\"oracle_moves_checked\":{},\
             \"oracle_moves_applied\":{},\"oracle\":\"pass\"}}",
            self.index,
            self.id,
            self.workload,
            self.params,
            self.arch,
            self.seed,
            self.n_tasks,
            self.n_edges,
            self.makespan.value(),
            self.makespan.value().to_bits(),
            self.n_contexts,
            self.n_hw_tasks,
            self.clb_area,
            self.reconfig_us,
            self.front_size,
            self.iterations,
            self.accepted,
            self.rejected,
            self.infeasible,
            self.contention_makespan.value(),
            self.oracle_moves_checked,
            self.oracle_moves_applied,
        )
    }

    /// The full NDJSON line: the golden projection plus wall-clock
    /// throughput and the fourth-leg oracle counters (suffix-only
    /// additions, so the golden snapshot stays byte-identical).
    pub fn ndjson_line(&self) -> String {
        let mut line = self.golden_line();
        line.truncate(line.len() - 1); // strip the closing brace
        line.push_str(&format!(
            ",\"steps_per_sec\":{:.0},\"oracle_repair_checked\":{},\
             \"oracle_batch_checked\":{},\"front_hypervolume\":{:.3}}}",
            self.steps_per_sec,
            self.oracle_repair_checked,
            self.oracle_batch_checked,
            self.front_hypervolume
        ));
        line
    }
}

/// The full batch result, in corpus order.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// One record per scenario, sorted by corpus index.
    pub records: Vec<ScenarioRecord>,
    /// Wall-clock duration of the whole batch.
    pub elapsed: Duration,
}

impl CorpusReport {
    /// The full NDJSON matrix (one record per line, trailing newline).
    pub fn ndjson(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.ndjson_line());
            out.push('\n');
        }
        out
    }

    /// The deterministic golden projection (one line per record).
    pub fn golden_text(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.golden_line());
            out.push('\n');
        }
        out
    }

    /// Diffs the golden projection against `expected`, reporting the
    /// first divergence (line number plus both lines) — the corpus
    /// equivalent of a snapshot-test failure message.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatching
    /// line (or a length mismatch).
    pub fn diff_golden(&self, expected: &str) -> Result<(), String> {
        let actual = self.golden_text();
        let a_lines: Vec<&str> = actual.lines().collect();
        let e_lines: Vec<&str> = expected.lines().collect();
        for (i, (a, e)) in a_lines.iter().zip(&e_lines).enumerate() {
            if a != e {
                return Err(format!(
                    "golden mismatch at line {}:\n  expected: {}\n  actual:   {}",
                    i + 1,
                    e,
                    a
                ));
            }
        }
        if a_lines.len() != e_lines.len() {
            return Err(format!(
                "golden length mismatch: expected {} records, got {}",
                e_lines.len(),
                a_lines.len()
            ));
        }
        Ok(())
    }
}

/// A scenario that failed to explore or failed its oracle.
#[derive(Debug, Clone)]
pub struct CorpusError {
    /// Identifier of the failing scenario.
    pub scenario: String,
    /// What went wrong (exploration error or oracle divergence).
    pub message: String,
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario {}: {}", self.scenario, self.message)
    }
}

impl std::error::Error for CorpusError {}

/// Explores one scenario and gates it behind the oracle.
fn run_scenario(
    index: usize,
    spec: &ScenarioSpec,
    opts: &CorpusOptions,
) -> Result<ScenarioRecord, CorpusError> {
    let fail = |message: String| CorpusError {
        scenario: spec.id(),
        message,
    };
    let (app, arch) = spec.build();
    let popts = ParallelOptions {
        base: ExploreOptions {
            max_iterations: opts.iters,
            warmup_iterations: opts.warmup,
            seed: spec.seed,
            ..ExploreOptions::default()
        },
        chains: opts.chains,
        // Scenarios are the unit of parallelism; one thread per
        // portfolio keeps workers independent (and the portfolio is
        // thread-count invariant anyway).
        threads: 1,
        exchange_every: opts.exchange_every,
        warm_start: None,
        front_exchange: false,
    };
    let portfolio =
        explore_parallel(&app, &arch, &popts).map_err(|e| fail(format!("exploration: {e}")))?;

    let oracle = differential_check(
        &app,
        &arch,
        &portfolio.mapping,
        spec.seed ^ ORACLE_WALK_SALT,
        opts.walk_steps,
    )
    .map_err(|e| fail(format!("oracle: {e}")))?;

    // Front invariants ride along with the four-way check: the merged
    // portfolio archive must be mutually non-dominated and must carry
    // the scalar winner.
    let best_vector = CostVector::from_summary(&portfolio.evaluation.summary());
    front_check(&portfolio.front, &best_vector).map_err(|e| fail(format!("oracle: {e}")))?;

    let iterations: u64 = portfolio.chains.iter().map(|c| c.run.iterations).sum();
    let accepted: u64 = portfolio.chains.iter().map(|c| c.run.accepted).sum();
    let rejected: u64 = portfolio.chains.iter().map(|c| c.run.rejected).sum();
    let infeasible: u64 = portfolio.chains.iter().map(|c| c.run.infeasible).sum();
    let secs = portfolio.elapsed.as_secs_f64();

    Ok(ScenarioRecord {
        index,
        id: spec.id(),
        workload: spec.workload.name().to_owned(),
        params: spec.workload.params_label(),
        arch: spec.arch.name().to_owned(),
        seed: spec.seed,
        n_tasks: app.n_tasks(),
        n_edges: app.edges().len(),
        makespan: oracle.makespan,
        n_contexts: portfolio.evaluation.n_contexts,
        n_hw_tasks: portfolio.evaluation.n_hw_tasks,
        clb_area: portfolio.evaluation.clb_area.value(),
        reconfig_us: best_vector.reconfig_overhead,
        front_size: portfolio.front.len(),
        front_hypervolume: {
            let members = portfolio.front.members();
            let reference: Vec<f64> = (0..best_vector.n_objectives())
                .map(|m| {
                    members
                        .iter()
                        .map(|c| c.objective(m))
                        .fold(f64::NEG_INFINITY, f64::max)
                        + 1.0
                })
                .collect();
            hypervolume(members, &reference)
        },
        iterations,
        accepted,
        rejected,
        infeasible,
        contention_makespan: oracle.contention_makespan,
        oracle_moves_checked: oracle.moves_checked,
        oracle_moves_applied: oracle.moves_applied,
        oracle_repair_checked: oracle.repair_checked,
        oracle_batch_checked: oracle.batch_checked,
        steps_per_sec: if secs > 0.0 {
            iterations as f64 / secs
        } else {
            0.0
        },
    })
}

/// Runs the corpus: every scenario explored by the portfolio engine and
/// gated behind the four-way differential oracle, fanned across
/// `opts.threads` workers.
///
/// # Errors
///
/// Returns the first scenario whose exploration failed or whose oracle
/// found a divergence; a batch that returns `Ok` passed every check on
/// every scenario.
pub fn run_corpus(
    specs: &[ScenarioSpec],
    opts: &CorpusOptions,
) -> Result<CorpusReport, CorpusError> {
    let start = Instant::now();
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        opts.threads
    }
    .clamp(1, specs.len().max(1));

    let work: Mutex<Vec<(usize, ScenarioSpec)>> =
        Mutex::new(specs.iter().copied().enumerate().collect());
    let results: Mutex<Vec<ScenarioRecord>> = Mutex::new(Vec::with_capacity(specs.len()));
    let failure: Mutex<Option<CorpusError>> = Mutex::new(None);

    // Each worker drains the shared queue; the sort below keeps the
    // report thread-count invariant.
    let drainer = || loop {
        // A failure anywhere aborts the remaining corpus: a
        // matrix with a diverging scenario is worthless.
        if failure.lock().expect("failure lock").is_some() {
            break;
        }
        let Some((index, spec)) = work.lock().expect("work queue lock").pop() else {
            break;
        };
        match run_scenario(index, &spec, opts) {
            Ok(record) => results.lock().expect("results lock").push(record),
            Err(e) => {
                *failure.lock().expect("failure lock") = Some(e);
                break;
            }
        }
    };
    if threads == 1 {
        drainer();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(drainer);
            }
        });
    }

    if let Some(e) = failure.into_inner().expect("failure lock") {
        return Err(e);
    }
    let mut records = results.into_inner().expect("results lock");
    records.sort_by_key(|r| r.index);
    Ok(CorpusReport {
        records,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{ArchFamily, WorkloadFamily};

    fn tiny_opts() -> CorpusOptions {
        CorpusOptions {
            iters: 200,
            warmup: 40,
            chains: 2,
            exchange_every: 50,
            threads: 2,
            walk_steps: 12,
        }
    }

    fn tiny_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec {
                workload: WorkloadFamily::Chain { length: 6 },
                arch: ArchFamily::Epicure,
                seed: 1,
            },
            ScenarioSpec {
                workload: WorkloadFamily::WideFanout { fanout: 5 },
                arch: ArchFamily::SmallFpga,
                seed: 2,
            },
            ScenarioSpec {
                workload: WorkloadFamily::ForkJoin { width: 3, depth: 2 },
                arch: ArchFamily::DualFpga,
                seed: 3,
            },
        ]
    }

    #[test]
    fn batch_runs_and_orders_records() {
        let report = run_corpus(&tiny_specs(), &tiny_opts()).expect("tiny corpus passes");
        assert_eq!(report.records.len(), 3);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.makespan.value() > 0.0);
            assert!(r.contention_makespan >= report.records[i].makespan);
            assert!(r.iterations >= 200);
        }
    }

    #[test]
    fn golden_projection_is_thread_count_invariant() {
        let specs = tiny_specs();
        let golden: Vec<String> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                run_corpus(
                    &specs,
                    &CorpusOptions {
                        threads,
                        ..tiny_opts()
                    },
                )
                .expect("tiny corpus passes")
                .golden_text()
            })
            .collect();
        assert_eq!(golden[0], golden[1]);
        assert_eq!(golden[1], golden[2]);
    }

    #[test]
    fn ndjson_adds_only_throughput() {
        // The extra NDJSON columns (throughput, fourth-leg counters)
        // are strictly a suffix of the golden projection: the golden
        // snapshot's bytes never move when NDJSON-only columns land.
        let report = run_corpus(&tiny_specs()[..1], &tiny_opts()).expect("runs");
        let golden = report.records[0].golden_line();
        let full = report.records[0].ndjson_line();
        assert!(full.starts_with(golden.trim_end_matches('}')));
        assert!(full.contains("\"steps_per_sec\":"));
        assert!(full.contains("\"oracle_repair_checked\":"));
        assert!(full.contains("\"oracle_batch_checked\":"));
        assert!(full.contains("\"front_hypervolume\":"));
        assert!(!golden.contains("steps_per_sec"));
        assert!(!golden.contains("oracle_repair_checked"));
        assert!(!golden.contains("oracle_batch_checked"));
        assert!(!golden.contains("front_hypervolume"));
        // Front hypervolume is deterministic (unlike throughput): every
        // member weakly dominates the reference, so volume is positive.
        assert!(report.records[0].front_hypervolume > 0.0);
    }

    #[test]
    fn oracle_fourth_leg_runs_on_the_tiny_corpus() {
        let report = run_corpus(&tiny_specs(), &tiny_opts()).expect("tiny corpus passes");
        for r in &report.records {
            // Every accepted walk state went through the repair leg,
            // and the batch leg re-scored a (capped) prefix of them.
            assert_eq!(r.oracle_repair_checked, r.oracle_moves_applied);
            assert_eq!(
                r.oracle_batch_checked,
                (r.oracle_moves_applied as usize).min(8) as u32
            );
        }
    }

    #[test]
    fn diff_golden_reports_first_divergence() {
        let report = run_corpus(&tiny_specs()[..1], &tiny_opts()).expect("runs");
        report
            .diff_golden(&report.golden_text())
            .expect("self-diff passes");
        let err = report.diff_golden("{\"index\":99}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = report.diff_golden("").unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
    }
}
