//! The `corpus_oracle` workload.
//!
//! Each job is one scenario run through `run_corpus` on one thread:
//! exploration by a small 2-chain portfolio, then the four-way
//! differential oracle over a long move walk. The scenario stream
//! covers every workload family × every platform family in blocks of
//! 36, each block with its own generation seed derived from the run's
//! seed. This is the workload that exercises the evaluator's full and
//! batch paths, the discrete-event simulator and the oracle.
//!
//! The traced run times the same layers one by one — scenario build,
//! `explore_parallel`, `differential_check`, `simulate`,
//! `Evaluator::evaluate` and `Evaluator::evaluate_batch` — on each
//! scenario, next to an untraced `run_corpus` of the same scenario.

use crate::report::{hypervolume_2d, quality_reference, ratio};
use crate::{mix, run_for, JobLog, Outcome, Quality, RunConfig, SetupTimes};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdse::corpus::{
    cross_corpus, differential_check, front_check, run_corpus, ArchFamily, CorpusOptions,
    ScenarioSpec, WorkloadFamily,
};
use rdse::mapping::moves::{propose_impl_move, propose_pair_move};
use rdse::mapping::{
    explore_parallel, CostVector, Evaluator, ExploreOptions, Mapping, MoveScratch, ParallelOptions,
    ParallelOutcome,
};
use rdse::sim::{simulate, SimConfig};
use std::time::Instant;

/// Scenarios per block: every workload family × every platform family.
const BLOCK: usize = 36;

/// Salt the corpus runner applies to the oracle's walk seed.
const ORACLE_WALK_SALT: u64 = 0x0AC1_E5EE_D000_0001;

/// Jobs between two set-up samples.
const SETUP_EVERY: usize = 50;

/// Candidates per `evaluate_batch` call of the traced run.
const BATCH: usize = 8;

fn options(tiny: bool) -> CorpusOptions {
    CorpusOptions {
        iters: if tiny { 200 } else { 600 },
        warmup: if tiny { 40 } else { 120 },
        chains: 2,
        exchange_every: if tiny { 50 } else { 150 },
        threads: 1,
        walk_steps: if tiny { 16 } else { 128 },
    }
}

/// The scenario stream: block `b` is the full family cross product
/// under one derived generation seed.
fn block(seed: u64, b: usize) -> Vec<ScenarioSpec> {
    // Scenario seeds stay small: they also name generated models.
    let s = mix(seed, 0xC0_0000 + b as u64) % 1_000_000 + 1;
    cross_corpus(&WorkloadFamily::defaults(), &ArchFamily::all(), &[s])
}

/// The portfolio `run_corpus` explores a scenario with.
fn popts(spec: &ScenarioSpec, opts: &CorpusOptions) -> ParallelOptions {
    // Results do not depend on the thread count: `opts.threads` only
    // changes how the offline re-exploration is scheduled.
    ParallelOptions {
        base: ExploreOptions {
            max_iterations: opts.iters,
            warmup_iterations: opts.warmup,
            seed: spec.seed,
            ..ExploreOptions::default()
        },
        chains: opts.chains,
        threads: opts.threads,
        exchange_every: opts.exchange_every,
        warm_start: None,
        front_exchange: false,
    }
}

fn front_points(outcome: &ParallelOutcome) -> Vec<(f64, f64)> {
    outcome
        .front
        .members()
        .iter()
        .map(|c| (c.makespan, c.clb_area))
        .collect()
}

/// Runs the corpus workload.
///
/// # Errors
///
/// Never in practice: failed scenarios are counted, not returned.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let opts = CorpusOptions {
        threads: cfg.threads,
        ..options(cfg.tiny)
    };
    let quality_jobs = if cfg.tiny { 6 } else { 36 * BLOCK };
    let mut setup = SetupTimes::default();
    let first = setup.sample(|| block(cfg.seed, 0));
    let mut out = Outcome::default();
    let mut blocks = vec![first];
    let mut spec_of = |i: usize| {
        while blocks.len() <= i / BLOCK {
            blocks.push(block(cfg.seed, blocks.len()));
        }
        blocks[i / BLOCK][i % BLOCK]
    };
    if cfg.trace {
        traced(cfg, &opts, quality_jobs, &mut spec_of, &mut out);
        return Ok(out);
    }

    // Blocks of whole scenario cycles, so every block holds the same mix.
    let mut log = JobLog::new(3 * BLOCK, 3 * BLOCK);
    let mut quality_specs = Vec::new();
    let mut reported = Vec::new();
    run_for(cfg.seconds, quality_jobs, |i| {
        if i % SETUP_EVERY == SETUP_EVERY - 1 {
            setup.sample(|| block(cfg.seed, 0));
        }
        let spec = spec_of(i);
        let t = Instant::now();
        let result = run_corpus(std::slice::from_ref(&spec), &opts);
        let secs = t.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                let iterations = report.records.iter().map(|r| r.iterations).sum();
                log.record(secs, true, iterations);
                out.check(Ok(()));
                if i < quality_jobs {
                    quality_specs.push(spec);
                    reported.push(report.records[0].makespan.value());
                }
            }
            Err(e) => out.check(Err(format!("scenario {}: {e}", spec.id()))),
        }
    });
    out.set("setup_s", setup.median());
    log.report(&mut out);

    // Quality needs each search's front, which the corpus report does
    // not carry: re-explore the quality scenarios offline, after the
    // timed window. The offline winner must reproduce the corpus
    // makespan bits.
    let mut quality = Quality::default();
    for (spec, makespan) in quality_specs.iter().zip(reported) {
        let (app, arch) = spec.build();
        match explore_parallel(&app, &arch, &popts(spec, &opts)) {
            Ok(outcome) => {
                let offline = outcome.evaluation.makespan.value();
                out.check(if offline.to_bits() == makespan.to_bits() {
                    Ok(())
                } else {
                    Err(format!(
                        "scenario {}: corpus makespan {makespan} differs from offline {offline}",
                        spec.id()
                    ))
                });
                let (rm, rc) = quality_reference(&app, &arch);
                quality.record(offline, hypervolume_2d(&front_points(&outcome), rm, rc));
            }
            Err(e) => out.check(Err(format!("scenario {}: offline explore: {e}", spec.id()))),
        }
    }
    quality.report(&mut out);
    Ok(out)
}

/// Per-layer sums of the traced corpus run.
#[derive(Debug, Default)]
struct LayerTimes {
    explore_s: Vec<f64>,
    oracle_s: Vec<f64>,
    des_s: Vec<f64>,
    full_s: Vec<f64>,
    batch_s_per_candidate: Vec<f64>,
}

/// Up to `n` feasible mappings one move away from `base`, for the
/// batch-evaluation probe.
fn neighbours(
    app: &rdse::model::TaskGraph,
    arch: &rdse::model::Architecture,
    base: &Mapping,
    seed: u64,
    n: usize,
) -> Vec<Mapping> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = MoveScratch::default();
    let mut out = Vec::with_capacity(n);
    for step in 0..4 * n {
        if out.len() == n {
            break;
        }
        let mut m = base.clone();
        let proposal = if step % 2 == 0 {
            propose_pair_move(app, arch, &mut m, &mut rng, &mut scratch)
        } else {
            propose_impl_move(app, arch, &mut m, &mut rng, &mut scratch)
        };
        if proposal.is_some() && rdse::mapping::evaluate(app, arch, &m).is_ok() {
            out.push(m);
        }
    }
    out
}

fn traced(
    cfg: &RunConfig,
    opts: &CorpusOptions,
    quality_jobs: usize,
    spec_of: &mut impl FnMut(usize) -> ScenarioSpec,
    out: &mut Outcome,
) {
    let mut layers = LayerTimes::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut matched = 0u64;
    let (mut iterations, mut accepted, mut infeasible) = (0u64, 0u64, 0u64);
    let (mut repairs, mut fallbacks, mut cone_nodes) = (0u64, 0u64, 0u64);
    let jobs = run_for(cfg.seconds, quality_jobs, |i| {
        let spec = spec_of(i);
        let t = Instant::now();
        let corpus = run_corpus(std::slice::from_ref(&spec), opts);
        untraced_s += t.elapsed().as_secs_f64();
        let corpus = match corpus {
            Ok(report) => report.records[0].makespan.value(),
            Err(e) => return out.check(Err(format!("scenario {}: {e}", spec.id()))),
        };

        // The runner's per-scenario path, one layer at a time.
        let t = Instant::now();
        let (app, arch) = spec.build();
        let t_explore = Instant::now();
        let outcome = match explore_parallel(&app, &arch, &popts(&spec, opts)) {
            Ok(o) => o,
            Err(e) => return out.check(Err(format!("scenario {}: {e}", spec.id()))),
        };
        layers.explore_s.push(t_explore.elapsed().as_secs_f64());
        let t_oracle = Instant::now();
        let oracle = differential_check(
            &app,
            &arch,
            &outcome.mapping,
            spec.seed ^ ORACLE_WALK_SALT,
            opts.walk_steps,
        );
        let best = CostVector::from_summary(&outcome.evaluation.summary());
        let fronts = front_check(&outcome.front, &best);
        layers.oracle_s.push(t_oracle.elapsed().as_secs_f64());
        traced_s += t.elapsed().as_secs_f64();
        let check = match (oracle, fronts) {
            (Ok(report), Ok(())) if report.makespan.value().to_bits() == corpus.to_bits() => {
                matched += 1;
                Ok(())
            }
            (Ok(report), Ok(())) => Err(format!(
                "scenario {}: traced makespan {} differs from corpus {corpus}",
                spec.id(),
                report.makespan.value()
            )),
            (Err(e), _) | (_, Err(e)) => Err(format!("scenario {}: oracle: {e}", spec.id())),
        };
        out.check(check);

        if i < quality_jobs {
            for c in &outcome.chains {
                iterations += c.run.iterations;
                accepted += c.run.accepted;
                infeasible += c.run.infeasible;
                repairs += c.eval_stats.repairs;
                fallbacks += c.eval_stats.fallbacks;
                cone_nodes += c.eval_stats.cone_nodes;
            }
        }

        // Single-layer probes on the winning mapping.
        let t = Instant::now();
        let des = simulate(&app, &arch, &outcome.mapping, &SimConfig::contention_free());
        layers.des_s.push(t.elapsed().as_secs_f64());
        let mut evaluator = Evaluator::new(&app, &arch);
        let t = Instant::now();
        let full = evaluator.evaluate(&outcome.mapping);
        layers.full_s.push(t.elapsed().as_secs_f64());
        out.check(match (des, full) {
            (Ok(d), Ok(f)) if d.makespan.value().to_bits() == f.makespan.value().to_bits() => {
                Ok(())
            }
            _ => Err(format!(
                "scenario {}: simulator and evaluator disagree",
                spec.id()
            )),
        });
        let candidates = neighbours(&app, &arch, &outcome.mapping, spec.seed, BATCH);
        if !candidates.is_empty() {
            let t = Instant::now();
            let batch = evaluator
                .evaluate_batch(&outcome.mapping, &candidates)
                .map(|r| r.iter().all(Result::is_ok));
            layers
                .batch_s_per_candidate
                .push(t.elapsed().as_secs_f64() / candidates.len() as f64);
            out.check(match batch {
                Ok(true) => Ok(()),
                _ => Err(format!("scenario {}: batch evaluation failed", spec.id())),
            });
        }
    });

    use crate::report::median;
    out.set("corpus.explore_ms", median(&layers.explore_s) * 1e3);
    out.set("oracle.check_ms", median(&layers.oracle_s) * 1e3);
    out.set("sim.des_us", median(&layers.des_s) * 1e6);
    out.set("evaluator.full_ns", median(&layers.full_s) * 1e9);
    out.set(
        "evaluator.batch_ns_per_candidate",
        median(&layers.batch_s_per_candidate) * 1e9,
    );
    out.set(
        "anneal.accept_ratio",
        ratio(accepted as f64, iterations as f64),
    );
    out.set(
        "anneal.infeasible_ratio",
        ratio(infeasible as f64, iterations as f64),
    );
    out.set(
        "evaluator.repair_ratio",
        ratio(repairs as f64, (repairs + fallbacks) as f64),
    );
    out.set(
        "evaluator.mean_cone",
        ratio(cone_nodes as f64, repairs as f64),
    );
    out.set("trace.overhead", ratio(traced_s, untraced_s) - 1.0);
    out.set("trace.makespan_match", ratio(matched as f64, jobs as f64));
}
