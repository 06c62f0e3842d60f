//! The two exploration workloads.
//!
//! `explore_fig3` runs the paper's motion-detection application through
//! a 4-chain `explore_parallel` portfolio; `explore_layered200` runs a
//! 200-task layered DAG through single-chain `explore`. Each job is one
//! search at a fixed budget with its own seed, derived from the run's
//! seed.
//!
//! The traced run re-drives the same searches through the public
//! `Annealer` over [`TracedProblem`], a benchmark-side copy of the
//! program's mapping problem whose every call into the move proposers,
//! the incremental evaluator and the snapshot path is wrapped in a
//! span. A traced search must end on the untraced search's makespan
//! bits and front, which shows it walked the same path.

use crate::report::{hypervolume_2d, quality_reference, ratio};
use crate::trace::{Span, Tracer};
use crate::{host, mix, run_for, JobLog, Outcome, Quality, RunConfig, SetupTimes};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rdse::anneal::{Annealer, LamSchedule, Problem, RunOptions};
use rdse::mapping::moves::{propose_impl_move, propose_pair_move};
use rdse::mapping::{
    chain_seed, evaluate, explore, explore_parallel, random_initial, CostVector, EvalSummary,
    Evaluator, EvaluatorStats, ExploreOptions, Mapping, MappingError, MappingMove, MoveScratch,
    Objective, ParallelOptions, ParetoFront,
};
use rdse::model::{Architecture, TaskGraph};
use rdse::workloads::{epicure_architecture, layered_dag, motion_detection_app, LayeredDagConfig};
use std::cell::RefCell;
use std::time::Instant;

/// Which exploration workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Motion detection × EPICURE 2 000 CLBs, 4-chain portfolio.
    Fig3,
    /// 200-task layered DAG × EPICURE 4 000 CLBs, one chain.
    Layered200,
}

/// Search budget and job counts of a case.
#[derive(Debug, Clone, Copy)]
struct Params {
    /// Total iterations per search (split across chains).
    iters: u64,
    /// Infinite-temperature warm-up per search (split likewise).
    warmup: u64,
    /// Portfolio chains (1 = plain `explore`).
    chains: usize,
    /// Per-chain iterations between exchanges (0 = none).
    exchange_every: u64,
    /// The first searches of a run, which the quality metrics and the
    /// deterministic layer counters cover.
    quality_jobs: usize,
}

/// Jobs between two set-up samples.
const SETUP_EVERY: usize = 20;

impl Case {
    fn params(self, tiny: bool) -> Params {
        match (self, tiny) {
            (Case::Fig3, false) => Params {
                iters: 8_000,
                warmup: 1_600,
                chains: 4,
                exchange_every: 250,
                quality_jobs: 48,
            },
            (Case::Fig3, true) => Params {
                iters: 1_200,
                warmup: 240,
                chains: 4,
                exchange_every: 75,
                quality_jobs: 2,
            },
            (Case::Layered200, false) => Params {
                iters: 1_500,
                warmup: 300,
                chains: 1,
                exchange_every: 0,
                quality_jobs: 48,
            },
            (Case::Layered200, true) => Params {
                iters: 600,
                warmup: 120,
                chains: 1,
                exchange_every: 0,
                quality_jobs: 2,
            },
        }
    }

    /// Builds the case's models (the set-up being timed).
    fn models(self) -> (TaskGraph, Architecture) {
        match self {
            Case::Fig3 => (motion_detection_app(), epicure_architecture(2000)),
            Case::Layered200 => (
                layered_dag(
                    &LayeredDagConfig {
                        layers: 20,
                        width: 10,
                        edge_percent: 30,
                        hw_percent: 60,
                    },
                    42,
                ),
                epicure_architecture(4000),
            ),
        }
    }
}

/// What one search produced.
struct Search {
    mapping: Mapping,
    makespan: f64,
    front: Vec<CostVector>,
    iterations: u64,
    secs: f64,
}

impl Search {
    fn hypervolume(&self, reference: (f64, f64)) -> f64 {
        let points: Vec<(f64, f64)> = self
            .front
            .iter()
            .map(|c| (c.makespan, c.clb_area))
            .collect();
        hypervolume_2d(&points, reference.0, reference.1)
    }

    /// Makespan and front as raw bits, for exact comparisons.
    fn fingerprint(&self) -> (u64, Vec<[u64; 4]>) {
        let front = self
            .front
            .iter()
            .map(|c| {
                [
                    c.makespan.to_bits(),
                    c.clb_area.to_bits(),
                    c.reconfig_overhead.to_bits(),
                    c.contexts.to_bits(),
                ]
            })
            .collect();
        (self.makespan.to_bits(), front)
    }
}

/// One search through the program's top-level entry point.
fn search(
    case: Case,
    app: &TaskGraph,
    arch: &Architecture,
    p: &Params,
    seed: u64,
    threads: usize,
) -> Result<Search, MappingError> {
    let base = ExploreOptions {
        max_iterations: p.iters,
        warmup_iterations: p.warmup,
        seed,
        ..ExploreOptions::default()
    };
    let t = Instant::now();
    match case {
        Case::Fig3 => {
            let out = explore_parallel(
                app,
                arch,
                &ParallelOptions {
                    base,
                    chains: p.chains,
                    threads,
                    exchange_every: p.exchange_every,
                    warm_start: None,
                    front_exchange: false,
                },
            )?;
            let secs = t.elapsed().as_secs_f64();
            Ok(Search {
                makespan: out.evaluation.makespan.value(),
                front: out.front.members().to_vec(),
                iterations: out.chains.iter().map(|c| c.run.iterations).sum(),
                mapping: out.mapping,
                secs,
            })
        }
        Case::Layered200 => {
            let out = explore(app, arch, &base)?;
            let secs = t.elapsed().as_secs_f64();
            Ok(Search {
                makespan: out.evaluation.makespan.value(),
                front: out.front().members().to_vec(),
                iterations: out.run.iterations,
                mapping: out.mapping,
                secs,
            })
        }
    }
}

/// The winning mapping, re-scored from scratch, must reproduce the
/// reported makespan bits.
fn verify(app: &TaskGraph, arch: &Architecture, s: &Search) -> Result<(), String> {
    let rescored = evaluate(app, arch, &s.mapping)
        .map_err(|e| format!("winning mapping does not evaluate: {e}"))?
        .makespan
        .value();
    if rescored.to_bits() == s.makespan.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "re-scored makespan {rescored} differs from reported {}",
            s.makespan
        ))
    }
}

/// Runs an exploration workload.
///
/// # Errors
///
/// Never in practice: failed searches are counted, not returned.
pub fn run(case: Case, cfg: &RunConfig) -> Result<Outcome, String> {
    let p = case.params(cfg.tiny);
    let mut setup = SetupTimes::default();
    let (app, arch) = setup.sample(|| case.models());
    let reference = quality_reference(&app, &arch);
    let mut out = Outcome::default();
    if cfg.trace {
        traced(case, cfg, &p, &app, &arch, &mut out);
        return Ok(out);
    }

    let mut log = JobLog::new(100, 100);
    let mut quality = Quality::default();
    run_for(cfg.seconds, p.quality_jobs, |i| {
        if i % SETUP_EVERY == SETUP_EVERY - 1 {
            setup.sample(|| case.models());
        }
        match search(case, &app, &arch, &p, mix(cfg.seed, i as u64), cfg.threads) {
            Ok(s) => {
                log.record(s.secs, true, s.iterations);
                out.check(verify(&app, &arch, &s));
                if i < p.quality_jobs {
                    quality.record(s.makespan, s.hypervolume(reference));
                }
            }
            Err(e) => out.check(Err(format!("search {i}: {e}"))),
        }
    });
    out.set("setup_s", setup.median());
    log.report(&mut out);
    quality.report(&mut out);
    Ok(out)
}

/// Counters of the traced searches that are pure functions of the
/// walk, summed over the first `quality_jobs` searches.
#[derive(Debug, Default)]
struct WalkCounters {
    iterations: u64,
    accepted: u64,
    infeasible: u64,
    repairs: u64,
    fallbacks: u64,
    cone_nodes: u64,
}

/// The traced run: each job searches untraced at one thread, untraced
/// at two threads (portfolio only), and traced, and the three must
/// agree bit for bit.
fn traced(
    case: Case,
    cfg: &RunConfig,
    p: &Params,
    app: &TaskGraph,
    arch: &Architecture,
    out: &mut Outcome,
) {
    let mut tracer = Tracer::default();
    let mut counters = WalkCounters::default();
    let (mut untraced_s, mut traced_s, mut two_thread_s) = (0.0, 0.0, 0.0);
    let (mut segment_ns, mut traced_iters) = (0u64, 0u64);
    let mut matched = 0u64;
    let jobs = run_for(cfg.seconds, p.quality_jobs, |i| {
        let seed = mix(cfg.seed, i as u64);
        let one = match search(case, app, arch, p, seed, 1) {
            Ok(s) => s,
            Err(e) => return out.check(Err(format!("search {i}: {e}"))),
        };
        out.check(verify(app, arch, &one));
        untraced_s += one.secs;
        if case == Case::Fig3 {
            // The two-thread portfolio needs both CPUs; its pool's
            // threads are spawned on first use and keep this mask.
            host::unpin();
            let two = search(case, app, arch, p, seed, 2);
            host::pin_to_one_cpu();
            match two {
                Ok(two) => {
                    two_thread_s += two.secs;
                    out.check(if two.fingerprint() == one.fingerprint() {
                        Ok(())
                    } else {
                        Err(format!("search {i}: two threads diverged from one"))
                    });
                }
                Err(e) => out.check(Err(format!("search {i} at two threads: {e}"))),
            }
        }
        match traced_search(app, arch, p, seed) {
            Ok(t) => {
                traced_s += t.search.secs;
                segment_ns += t.tracer.stats(Span::Segment).total_ns;
                traced_iters += t.search.iterations;
                tracer.merge(&t.tracer);
                if i < p.quality_jobs {
                    counters.iterations += t.search.iterations;
                    counters.accepted += t.accepted;
                    counters.infeasible += t.infeasible;
                    counters.repairs += t.eval.repairs;
                    counters.fallbacks += t.eval.fallbacks;
                    counters.cone_nodes += t.eval.cone_nodes;
                }
                let same = t.search.fingerprint() == one.fingerprint();
                matched += u64::from(same);
                out.check(if same {
                    Ok(())
                } else {
                    Err(format!(
                        "search {i}: traced walk ended on {} instead of {}",
                        t.search.makespan, one.makespan
                    ))
                });
            }
            Err(e) => out.check(Err(format!("traced search {i}: {e}"))),
        }
    });

    let c = counters;
    out.set(
        "anneal.self_ns_per_step",
        ratio(
            tracer.stats(Span::Segment).self_ns() as f64,
            traced_iters as f64,
        ),
    );
    out.set(
        "anneal.accept_ratio",
        ratio(c.accepted as f64, c.iterations as f64),
    );
    out.set(
        "anneal.infeasible_ratio",
        ratio(c.infeasible as f64, c.iterations as f64),
    );
    out.set("moves.propose_ns", tracer.stats(Span::Propose).mean_ns());
    out.set("moves.undo_ns", tracer.stats(Span::Undo).mean_ns());
    out.set("evaluator.delta_ns", tracer.stats(Span::Delta).mean_ns());
    out.set("evaluator.revert_ns", tracer.stats(Span::Revert).mean_ns());
    out.set(
        "evaluator.repair_ratio",
        ratio(c.repairs as f64, (c.repairs + c.fallbacks) as f64),
    );
    out.set(
        "evaluator.mean_cone",
        ratio(c.cone_nodes as f64, c.repairs as f64),
    );
    out.set(
        "explorer.barrier_share",
        1.0 - ratio(segment_ns as f64 * 1e-9, traced_s),
    );
    out.set(
        "explorer.snapshot_ns",
        tracer.stats(Span::Snapshot).mean_ns(),
    );
    out.set("explorer.restore_ns", tracer.stats(Span::Restore).mean_ns());
    if case == Case::Fig3 {
        out.set("pool.speedup_2t", ratio(untraced_s, two_thread_s));
    }
    out.set("trace.overhead", ratio(traced_s, untraced_s) - 1.0);
    out.set("trace.makespan_match", ratio(matched as f64, jobs as f64));
}

/// A benchmark-side copy of the program's `MappingProblem`: the same
/// proposals, delta evaluation, undo and snapshots in the same order,
/// each call wrapped in a span.
struct TracedProblem<'a> {
    app: &'a TaskGraph,
    arch: &'a Architecture,
    mapping: Mapping,
    evaluator: Evaluator<'a>,
    scratch: MoveScratch,
    current: EvalSummary,
    /// In a cell because `Problem::snapshot` takes `&self`.
    tracer: RefCell<Tracer>,
}

impl<'a> TracedProblem<'a> {
    fn new(
        app: &'a TaskGraph,
        arch: &'a Architecture,
        mapping: Mapping,
    ) -> Result<Self, MappingError> {
        mapping.validate(app, arch)?;
        let mut evaluator = Evaluator::new(app, arch);
        let current = evaluator.evaluate(&mapping)?;
        Ok(TracedProblem {
            app,
            arch,
            mapping,
            evaluator,
            scratch: MoveScratch::default(),
            current,
            tracer: RefCell::new(Tracer::default()),
        })
    }

    fn enter(&self, kind: Span) {
        self.tracer.borrow_mut().enter(kind);
    }

    fn exit(&self) {
        self.tracer.borrow_mut().exit();
    }

    /// Full re-synchronization after the mapping was replaced.
    fn resync(&mut self, summary: EvalSummary) {
        self.evaluator
            .evaluate(&self.mapping)
            .expect("restored snapshot is feasible");
        self.current = summary;
    }
}

impl Problem for TracedProblem<'_> {
    type Move = MappingMove;
    type Snapshot = (Mapping, EvalSummary);
    type Cost = CostVector;

    fn cost(&self) -> CostVector {
        CostVector::from_summary(&self.current)
    }

    fn n_move_classes(&self) -> usize {
        2
    }

    fn try_move(
        &mut self,
        rng: &mut dyn RngCore,
        class: usize,
    ) -> Option<(MappingMove, CostVector)> {
        let (app, arch) = (self.app, self.arch);
        self.enter(Span::Propose);
        let proposal = match class {
            0 => propose_pair_move(app, arch, &mut self.mapping, rng, &mut self.scratch),
            _ => propose_impl_move(app, arch, &mut self.mapping, rng, &mut self.scratch),
        };
        self.exit();
        let outcome = proposal?;
        self.enter(Span::Delta);
        let scored = self
            .evaluator
            .evaluate_delta(&self.mapping, outcome.delta.task());
        self.exit();
        match scored {
            Ok(summary) => {
                let prev = self.current;
                self.current = summary;
                Some((
                    MappingMove {
                        delta: outcome.delta,
                        prev,
                    },
                    CostVector::from_summary(&summary),
                ))
            }
            Err(_) => {
                self.enter(Span::Undo);
                outcome.delta.undo(&mut self.mapping);
                self.exit();
                None
            }
        }
    }

    fn undo(&mut self, mv: MappingMove) {
        self.enter(Span::Revert);
        self.evaluator.revert_delta();
        self.exit();
        self.enter(Span::Undo);
        mv.delta.undo(&mut self.mapping);
        self.exit();
        self.current = mv.prev;
    }

    fn snapshot(&self) -> Self::Snapshot {
        self.enter(Span::Snapshot);
        let snapshot = (self.mapping.clone(), self.current);
        self.exit();
        snapshot
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.enter(Span::Restore);
        self.mapping.clone_from(&snapshot.0);
        self.resync(snapshot.1);
        self.exit();
    }

    fn restore_owned(&mut self, snapshot: Self::Snapshot) {
        self.enter(Span::Restore);
        self.mapping = snapshot.0;
        self.resync(snapshot.1);
        self.exit();
    }
}

/// A traced search and its walk counters.
struct TracedSearch {
    search: Search,
    tracer: Tracer,
    accepted: u64,
    infeasible: u64,
    eval: EvaluatorStats,
}

type Chain<'a> = Annealer<TracedProblem<'a>, LamSchedule, Objective>;

/// Index of the chain with the lowest best cost, lowest id on ties.
fn portfolio_winner(chains: &[Chain<'_>]) -> usize {
    chains
        .iter()
        .enumerate()
        .min_by(|(ia, a), (ib, b)| a.best_cost().total_cmp(&b.best_cost()).then(ia.cmp(ib)))
        .map(|(i, _)| i)
        .expect("at least one chain")
}

/// The search of [`search`], re-driven through the public `Annealer`
/// with the portfolio's budget split, chain seeds, lock-step segments
/// and incumbent exchange.
fn traced_search(
    app: &TaskGraph,
    arch: &Architecture,
    p: &Params,
    seed: u64,
) -> Result<TracedSearch, MappingError> {
    let start = Instant::now();
    let defaults = ExploreOptions::default();
    let n = p.chains.max(1);
    let total = p.iters;
    let mut chains: Vec<Chain<'_>> = Vec::with_capacity(n);
    for c in 0..n {
        let per_chain = total / n as u64 + u64::from((c as u64) < total % n as u64);
        let warmup = if total == 0 {
            0
        } else {
            ((p.warmup as u128 * per_chain as u128) / total as u128) as u64
        };
        let cseed = chain_seed(seed, c);
        let initial = random_initial(app, arch, &mut StdRng::seed_from_u64(cseed));
        let mut chain = Annealer::with_scalarizer(
            TracedProblem::new(app, arch, initial)?,
            LamSchedule::new(defaults.lambda),
            RunOptions {
                max_iterations: per_chain,
                warmup_iterations: warmup,
                seed: cseed.wrapping_add(0x9E37_79B9_7F4A_7C15),
                adaptive_moves: defaults.adaptive_moves,
                bandit_moves: defaults.bandit_moves,
                ..RunOptions::default()
            },
            defaults.objective,
        );
        chain.track_front();
        chains.push(chain);
    }

    let segment = if p.exchange_every == 0 {
        u64::MAX
    } else {
        p.exchange_every
    };
    loop {
        for chain in &mut chains {
            chain.problem().enter(Span::Segment);
            chain.run_segment(segment);
            chain.problem().exit();
        }
        if chains.iter().all(Chain::is_finished) {
            break;
        }
        let winner = portfolio_winner(&chains);
        let winner_cost = chains[winner].best_cost();
        let (mapping, summary) = chains[winner].best_snapshot().clone();
        for (i, chain) in chains.iter_mut().enumerate() {
            if i != winner && chain.best_cost() > winner_cost && !chain.is_finished() {
                chain.adopt(
                    (mapping.clone(), summary),
                    CostVector::from_summary(&summary),
                );
            }
        }
    }

    let winner = portfolio_winner(&chains);
    let mut tracer = Tracer::default();
    let mut front = ParetoFront::new();
    let (mut iterations, mut accepted, mut infeasible) = (0, 0, 0);
    let mut eval = EvaluatorStats::default();
    let mut best = None;
    for (i, chain) in chains.into_iter().enumerate() {
        let (problem, _, run) = chain.finish();
        // Each chain's full evaluation, as the portfolio reports it.
        let evaluation = evaluate(app, arch, &problem.mapping)?;
        front.merge(run.front.as_ref().expect("chains track their front"));
        iterations += run.iterations;
        accepted += run.accepted;
        infeasible += run.infeasible;
        let stats = problem.evaluator.stats();
        eval.repairs += stats.repairs;
        eval.fallbacks += stats.fallbacks;
        eval.cone_nodes += stats.cone_nodes;
        tracer.merge(&problem.tracer.borrow());
        if i == winner {
            best = Some((problem.mapping, evaluation.makespan.value()));
        }
    }
    let (mapping, makespan) = best.expect("winner chain exists");
    Ok(TracedSearch {
        search: Search {
            mapping,
            makespan,
            front: front.members().to_vec(),
            iterations,
            secs: start.elapsed().as_secs_f64(),
        },
        tracer,
        accepted,
        infeasible,
        eval,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hypervolume reference points are fixed by the models, so the
    /// metric stays comparable across commits.
    #[test]
    fn hypervolume_references_are_fixed_by_the_models() {
        let (app, arch) = Case::Fig3.models();
        let (makespan, clbs) = quality_reference(&app, &arch);
        assert_eq!((makespan.round(), clbs), (152_800.0, 2000.0));
        let (app, arch) = Case::Layered200.models();
        let (makespan, clbs) = quality_reference(&app, &arch);
        assert_eq!((makespan.round(), clbs), (442_690.0, 4000.0));
    }
}
