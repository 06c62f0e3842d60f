//! The annealing loop.
//!
//! Mirrors the structure visible in Fig. 2 of the paper: an optional
//! warm-up phase at infinite temperature (broad exploration, no average
//! improvement), then adaptive cooling until the iteration budget is
//! exhausted, the run freezes, or the caller's deadline passes. The
//! method is iterative and interruptible — it always returns the best
//! solution seen so far.
//!
//! Two entry points are provided. [`anneal`] drives a run to completion
//! in one call. [`Annealer`] exposes the same loop as a resumable state
//! machine — construct it, advance it in segments with
//! [`Annealer::run_segment`], inspect or replace the incumbent between
//! segments with [`Annealer::adopt`], and extract the final
//! [`RunResult`] with [`Annealer::finish`]. Pausing at a segment
//! boundary and resuming is bit-identical to an uninterrupted run: the
//! RNG, the schedule (including the Lam statistics), the move-class
//! controller and the warm-up accumulator all live inside the
//! `Annealer`. Multi-chain portfolio searches are built on exactly this
//! property.

use crate::controller::MoveClassController;
use crate::cost::{DefaultScalar, Scalarizer};
use crate::pareto::ParetoFront;
use crate::problem::Problem;
use crate::schedule::{IterationOutcome, Schedule};
use crate::stats::OnlineStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Options controlling an annealing run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Total iteration budget (warm-up included).
    pub max_iterations: u64,
    /// Iterations spent at infinite temperature before cooling starts
    /// (1 200 in the paper's Fig. 2 run).
    pub warmup_iterations: u64,
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Optional wall-clock budget; checked every 256 iterations.
    pub time_budget: Option<Duration>,
    /// Stop early once the best cost is at or below this target.
    pub target_cost: Option<f64>,
    /// Freeze detection: stop after this many consecutive iterations
    /// without improvement of the best cost *and* acceptance below 1%.
    /// `0` disables freeze detection.
    pub freeze_window: u64,
    /// Record a trace point every `trace_every` iterations (`0` = no
    /// trace). Traces feed the Fig. 2 reproduction.
    pub trace_every: u64,
    /// Use the adaptive move-class controller; when `false` classes are
    /// drawn uniformly.
    pub adaptive_moves: bool,
    /// Select move classes with a deterministic UCB bandit credited by
    /// realized improvement instead of the acceptance-rate roulette.
    /// Takes precedence over `adaptive_moves`; the bandit consumes no
    /// randomness, so runs stay deterministic per seed.
    pub bandit_moves: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_iterations: 10_000,
            warmup_iterations: 0,
            seed: 0,
            time_budget: None,
            target_cost: None,
            freeze_window: 0,
            trace_every: 0,
            adaptive_moves: true,
            bandit_moves: false,
        }
    }
}

/// One sampled point of a run trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// Iteration index (0-based).
    pub iteration: u64,
    /// Cost of the current solution.
    pub cost: f64,
    /// Best cost seen so far.
    pub best_cost: f64,
    /// Inverse temperature at this iteration.
    pub inverse_temperature: f64,
    /// Problem observables, in the order reported by
    /// [`Problem::observables`].
    pub observables: Vec<(&'static str, f64)>,
}

/// Why the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The iteration budget was exhausted.
    IterationBudget,
    /// The wall-clock budget was exhausted.
    TimeBudget,
    /// The target cost was reached.
    TargetReached,
    /// No improvement within the freeze window at near-zero acceptance.
    Frozen,
    /// The caller ended the run ([`Annealer::finish`]) before the
    /// budget was exhausted or any stop condition fired — e.g. a
    /// portfolio aborting its remaining chains once one chain reached
    /// the target.
    Interrupted,
}

impl StopReason {
    /// Short human-readable description.
    pub fn describe(self) -> &'static str {
        match self {
            StopReason::IterationBudget => "iteration budget exhausted",
            StopReason::TimeBudget => "time budget exhausted",
            StopReason::TargetReached => "target cost reached",
            StopReason::Frozen => "frozen",
            StopReason::Interrupted => "interrupted by caller",
        }
    }
}

/// Outcome of an annealing run.
///
/// Generic over the problem's [`Cost`](crate::Cost) type, defaulting to the
/// single-objective `f64` case. The scalar statistics (`best_cost`,
/// `initial_cost`, trace costs) are always the **scalarized** view the
/// acceptance rule walked on; `best_objectives` carries the full cost
/// vector of the best solution, and `front` the Pareto archive of
/// accepted solutions when the run recorded one
/// ([`Annealer::track_front`]).
#[derive(Debug, Clone)]
pub struct RunResult<C = f64> {
    /// Best scalarized cost encountered (the problem is restored to
    /// this solution).
    pub best_cost: f64,
    /// Full cost vector of the best solution.
    pub best_objectives: C,
    /// Pareto archive over the costs of the initial and every accepted
    /// solution; `None` unless [`Annealer::track_front`] enabled it.
    pub front: Option<ParetoFront<C>>,
    /// Cost of the initial solution.
    pub initial_cost: f64,
    /// Iterations actually executed.
    pub iterations: u64,
    /// Accepted moves.
    pub accepted: u64,
    /// Rejected (feasible) moves.
    pub rejected: u64,
    /// Infeasible proposals (e.g. cyclic search graphs).
    pub infeasible: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Sampled trace (empty unless `trace_every > 0`).
    pub trace: Vec<TracePoint>,
    /// Statistics of the warm-up phase (empty if no warm-up ran).
    pub warmup: OnlineStats,
}

impl<C> RunResult<C> {
    /// Short description of why the run stopped.
    pub fn stop_description(&self) -> &'static str {
        self.stop.describe()
    }
}

/// Runs simulated annealing on `problem` under `schedule`.
///
/// On return the problem is restored to the best solution found.
///
/// # Examples
///
/// ```
/// use rdse_anneal::{anneal, LamSchedule, RunOptions};
/// use rdse_anneal::problems::bipartition::Bipartition;
///
/// let mut p = Bipartition::two_cliques(6, 42);
/// let mut s = LamSchedule::new(1.0);
/// let result = anneal(&mut p, &mut s, &RunOptions {
///     max_iterations: 20_000,
///     warmup_iterations: 500,
///     seed: 1,
///     ..RunOptions::default()
/// });
/// assert_eq!(result.best_cost, 1.0); // single bridge edge cut
/// ```
pub fn anneal<P: Problem, S: Schedule>(
    problem: &mut P,
    schedule: &mut S,
    opts: &RunOptions,
) -> RunResult<P::Cost> {
    let mut annealer = Annealer::new(&mut *problem, &mut *schedule, opts.clone());
    annealer.run_segment(u64::MAX);
    annealer.finish().2
}

/// The annealing loop as a resumable state machine.
///
/// An `Annealer` owns the problem, the schedule, the RNG, the
/// move-class controller, the warm-up statistics and the best-so-far
/// snapshot, so a run can be paused at any iteration boundary and
/// resumed later — by the same thread or another — without perturbing
/// the random walk. [`anneal`] is a thin wrapper that constructs one
/// and drives it to completion, so segmented execution is bit-identical
/// to a monolithic run for equal options.
///
/// Between segments the caller may inspect [`best_cost`] /
/// [`best_snapshot`] and replace the incumbent with [`adopt`]; this is
/// the exchange primitive of multi-chain portfolio annealing.
///
/// # Examples
///
/// ```
/// use rdse_anneal::{Annealer, LamSchedule, RunOptions};
/// use rdse_anneal::problems::bipartition::Bipartition;
///
/// let opts = RunOptions { max_iterations: 20_000, warmup_iterations: 500, seed: 1,
///                         ..RunOptions::default() };
/// let mut a = Annealer::new(Bipartition::two_cliques(6, 42), LamSchedule::new(1.0), opts);
/// while a.run_segment(1_000) {
///     // exchange point: inspect a.best_cost(), adopt a better incumbent, ...
/// }
/// let (_problem, _schedule, result) = a.finish();
/// assert_eq!(result.best_cost, 1.0); // single bridge edge cut
/// ```
///
/// Scalar acceptance walks on a scalarized view of the problem's
/// [`Cost`](crate::Cost) — [`DefaultScalar`] (the cost's own scalar, the historical
/// behaviour) unless [`Annealer::with_scalarizer`] installs another
/// projection (the mapping layer installs its `Objective`) — while the full
/// cost vectors of the current and best solutions are recorded
/// verbatim, optionally into a [`ParetoFront`] archive
/// ([`Annealer::track_front`]).
///
/// [`best_cost`]: Annealer::best_cost
/// [`best_snapshot`]: Annealer::best_snapshot
/// [`adopt`]: Annealer::adopt
#[derive(Debug)]
pub struct Annealer<P: Problem, S: Schedule, Z: Scalarizer<P::Cost> = DefaultScalar> {
    problem: P,
    schedule: S,
    opts: RunOptions,
    rng: StdRng,
    controller: MoveClassController,
    scalarizer: Z,
    initial_cost: f64,
    /// Scalarized cost of the current solution.
    cost: f64,
    /// Full cost vector of the current solution.
    cost_objectives: P::Cost,
    /// Scalarized cost of the best solution.
    best_cost: f64,
    /// Full cost vector of the best solution.
    best_objectives: P::Cost,
    best_snapshot: P::Snapshot,
    /// Pareto archive over accepted solutions (off by default).
    front: Option<ParetoFront<P::Cost>>,
    last_improvement: u64,
    accepted: u64,
    rejected: u64,
    infeasible: u64,
    warmup: OnlineStats,
    trace: Vec<TracePoint>,
    stop: Option<StopReason>,
    /// Inverse temperature; 0 during warm-up.
    s: f64,
    iter: u64,
    /// Wall-clock time accumulated over completed segments.
    elapsed: Duration,
}

impl<P: Problem, S: Schedule> Annealer<P, S> {
    /// Prepares a run over `problem` under `schedule` with the default
    /// scalarization ([`Cost::scalar`](crate::Cost::scalar)): resets the schedule, builds
    /// the move-class controller and snapshots the initial solution as
    /// the incumbent best.
    pub fn new(problem: P, schedule: S, opts: RunOptions) -> Self {
        Annealer::with_scalarizer(problem, schedule, opts, DefaultScalar)
    }
}

impl<P: Problem, S: Schedule, Z: Scalarizer<P::Cost>> Annealer<P, S, Z> {
    /// Prepares a run whose acceptance decisions walk on
    /// `scalarizer`'s view of the problem's cost vectors.
    pub fn with_scalarizer(problem: P, mut schedule: S, opts: RunOptions, scalarizer: Z) -> Self {
        let rng = StdRng::seed_from_u64(opts.seed);
        schedule.reset();
        let n_classes = problem.n_move_classes().max(1);
        let controller = if opts.bandit_moves {
            MoveClassController::bandit(n_classes)
        } else if opts.adaptive_moves {
            MoveClassController::new(n_classes)
        } else {
            MoveClassController::uniform(n_classes)
        };
        let initial_objectives = problem.cost();
        let initial_cost = scalarizer.scalarize(&initial_objectives);
        let best_snapshot = problem.snapshot();
        Annealer {
            problem,
            schedule,
            opts,
            rng,
            controller,
            scalarizer,
            initial_cost,
            cost: initial_cost,
            cost_objectives: initial_objectives.clone(),
            best_cost: initial_cost,
            best_objectives: initial_objectives,
            best_snapshot,
            front: None,
            last_improvement: 0,
            accepted: 0,
            rejected: 0,
            infeasible: 0,
            warmup: OnlineStats::new(),
            trace: Vec::new(),
            stop: None,
            s: 0.0,
            iter: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Starts recording the Pareto archive: the cost vectors of the
    /// initial solution and of every subsequently accepted solution
    /// feed a [`ParetoFront`] returned in [`RunResult::front`].
    /// Recording is observational — it never touches the RNG stream or
    /// the acceptance arithmetic, so a tracked run walks bit-identically
    /// to an untracked one.
    pub fn track_front(&mut self) {
        if self.front.is_none() {
            let mut front = ParetoFront::new();
            front.insert(self.cost_objectives.clone());
            self.front = Some(front);
        }
    }

    /// Whether the run has ended (budget exhausted or a stop condition
    /// fired). A finished annealer ignores further `run_segment` calls.
    pub fn is_finished(&self) -> bool {
        self.stop.is_some() || self.iter >= self.opts.max_iterations
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    /// Cost of the current (not necessarily best) solution.
    pub fn current_cost(&self) -> f64 {
        self.cost
    }

    /// Best scalarized cost seen so far.
    pub fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// Full cost vector of the best solution seen so far.
    pub fn best_objectives(&self) -> &P::Cost {
        &self.best_objectives
    }

    /// Full cost vector of the current solution.
    pub fn current_objectives(&self) -> &P::Cost {
        &self.cost_objectives
    }

    /// The Pareto archive recorded so far, if [`track_front`] enabled
    /// it.
    ///
    /// [`track_front`]: Annealer::track_front
    pub fn front(&self) -> Option<&ParetoFront<P::Cost>> {
        self.front.as_ref()
    }

    /// Snapshot of the best solution seen so far.
    pub fn best_snapshot(&self) -> &P::Snapshot {
        &self.best_snapshot
    }

    /// The problem in its *current* state (walk position, not the best).
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Why the run stopped, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if let Some(stop) = self.stop {
            Some(stop)
        } else if self.iter >= self.opts.max_iterations {
            Some(StopReason::IterationBudget)
        } else {
            None
        }
    }

    /// Replaces the current solution with an externally supplied
    /// incumbent of the given cost — the best-solution exchange of a
    /// portfolio run. Updates the best-so-far if the incumbent improves
    /// on it (on the scalarized view) and records the incumbent's cost
    /// vector in the Pareto archive when one is tracked. Schedule
    /// statistics and the RNG stream are untouched, so the subsequent
    /// walk stays deterministic.
    pub fn adopt(&mut self, snapshot: P::Snapshot, cost: P::Cost) {
        let scalar = self.scalarizer.scalarize(&cost);
        if let Some(front) = &mut self.front {
            front.insert(cost.clone());
        }
        let improved = self
            .scalarizer
            .delta(&cost, &self.best_objectives, scalar - self.best_cost)
            < 0.0;
        if improved {
            // The snapshot doubles as the new best: borrow it for the
            // restore, then retain it.
            self.problem.restore(&snapshot);
            self.best_cost = scalar;
            self.best_objectives = cost.clone();
            self.best_snapshot = snapshot;
            self.last_improvement = self.iter;
        } else {
            // Not retained — hand it to the problem by value so the
            // restore can move the state in without cloning.
            self.problem.restore_owned(snapshot);
        }
        self.cost = scalar;
        self.cost_objectives = cost;
    }

    /// Runs up to `steps` iterations (fewer if the run ends first) and
    /// returns `true` while the run can continue.
    pub fn run_segment(&mut self, steps: u64) -> bool {
        let segment_start = Instant::now();
        let mut n = 0u64;
        while n < steps && !self.is_finished() {
            self.step_inner(segment_start);
            n += 1;
        }
        self.elapsed += segment_start.elapsed();
        !self.is_finished()
    }

    /// Runs a single iteration; returns `true` while the run can
    /// continue.
    pub fn step(&mut self) -> bool {
        self.run_segment(1)
    }

    /// Ends the run: restores the problem to the best solution found
    /// and returns problem, schedule and the [`RunResult`]. A run
    /// finished before its budget was exhausted (and before any stop
    /// condition fired) reports [`StopReason::Interrupted`].
    ///
    /// The best snapshot is consumed here, so the restore moves the
    /// solution back into the problem without a final clone
    /// ([`Problem::restore_owned`]).
    pub fn finish(self) -> (P, S, RunResult<P::Cost>) {
        let stop = self.stop_reason().unwrap_or(StopReason::Interrupted);
        let mut problem = self.problem;
        problem.restore_owned(self.best_snapshot);
        let result = RunResult {
            best_cost: self.best_cost,
            best_objectives: self.best_objectives,
            front: self.front,
            initial_cost: self.initial_cost,
            iterations: self.iter,
            accepted: self.accepted,
            rejected: self.rejected,
            infeasible: self.infeasible,
            stop,
            elapsed: self.elapsed,
            trace: self.trace,
            warmup: self.warmup,
        };
        (problem, self.schedule, result)
    }

    /// One iteration of the loop; mirrors the paper's Fig. 2 structure.
    fn step_inner(&mut self, segment_start: Instant) {
        let iter = self.iter;
        if iter == self.opts.warmup_iterations && iter > 0 {
            self.schedule
                .begin(self.warmup.mean(), self.warmup.std_dev());
        }
        let in_warmup = iter < self.opts.warmup_iterations;

        let class = self.controller.pick(&mut self.rng);
        let outcome = match self.problem.try_move(&mut self.rng, class) {
            None => {
                self.infeasible += 1;
                self.controller.record(class, false, false);
                IterationOutcome {
                    cost: self.cost,
                    accepted: false,
                    feasible: false,
                }
            }
            Some((mv, new_objectives)) => {
                // Scalarize once; the acceptance delta is the stored
                // scalar difference unless the scalarizer overrides it
                // (lexicographic tier comparison). On the default
                // scalar path this is exactly the historical
                // `new_cost - self.cost`.
                let new_cost = self.scalarizer.scalarize(&new_objectives);
                let delta = self.scalarizer.delta(
                    &new_objectives,
                    &self.cost_objectives,
                    new_cost - self.cost,
                );
                let accept = delta <= 0.0 || {
                    let s_eff = if in_warmup { 0.0 } else { self.s };
                    // s_eff == 0 means infinite temperature: accept all.
                    s_eff == 0.0 || self.rng.random::<f64>() < (-delta * s_eff).exp()
                };
                if accept {
                    // Plateau moves (identical cost vector) are common
                    // and already represented in the archive — skip the
                    // O(front) insert scan for them.
                    let vector_changed = new_objectives != self.cost_objectives;
                    self.cost = new_cost;
                    self.cost_objectives = new_objectives;
                    self.accepted += 1;
                    if vector_changed {
                        if let Some(front) = &mut self.front {
                            front.insert(self.cost_objectives.clone());
                        }
                    }
                    // Best tracking goes through the scalarizer's delta
                    // too, so a lexicographic run's best snapshot is the
                    // *tiered* best (primary ties broken by lower
                    // tiers) and the reported winner always has a
                    // retrievable solution. On the default path
                    // `delta = cost - best_cost`, and `a - b < 0` is
                    // decision-identical to `a < b` for every f64 pair
                    // (IEEE-754 subtraction of distinct finite values
                    // never rounds to zero), so the walk is unchanged.
                    let improved = self.scalarizer.delta(
                        &self.cost_objectives,
                        &self.best_objectives,
                        self.cost - self.best_cost,
                    ) < 0.0;
                    if improved {
                        self.best_cost = self.cost;
                        self.best_objectives = self.cost_objectives.clone();
                        self.best_snapshot = self.problem.snapshot();
                        self.last_improvement = iter;
                    }
                } else {
                    // Rejection stays vector-free: the proposed cost is
                    // dropped and only the compact move delta is undone.
                    self.problem.undo(mv);
                    self.rejected += 1;
                }
                // The realized scalarized delta credits the class in
                // bandit mode; acceptance-rate controllers ignore it.
                self.controller.record_delta(class, true, accept, delta);
                IterationOutcome {
                    cost: self.cost,
                    accepted: accept,
                    feasible: true,
                }
            }
        };

        if in_warmup {
            self.warmup.update(self.cost);
        } else {
            self.s = self.schedule.update(outcome);
        }

        if self.opts.trace_every > 0 && iter.is_multiple_of(self.opts.trace_every) {
            self.trace.push(TracePoint {
                iteration: iter,
                cost: self.cost,
                best_cost: self.best_cost,
                inverse_temperature: if in_warmup { 0.0 } else { self.s },
                observables: self.problem.observables(),
            });
        }

        self.iter += 1;

        if let Some(target) = self.opts.target_cost {
            if self.best_cost <= target {
                self.stop = Some(StopReason::TargetReached);
                return;
            }
        }
        if self.opts.freeze_window > 0
            && !in_warmup
            && self.iter - self.last_improvement > self.opts.freeze_window
            && self.schedule.acceptance().is_some_and(|a| a < 0.01)
        {
            self.stop = Some(StopReason::Frozen);
            return;
        }
        if self.iter.is_multiple_of(256) {
            if let Some(budget) = self.opts.time_budget {
                if self.elapsed + segment_start.elapsed() >= budget {
                    self.stop = Some(StopReason::TimeBudget);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::bipartition::Bipartition;
    use crate::problems::continuous::Sphere;
    use crate::schedule::{GeometricSchedule, InfiniteTemperature, LamSchedule};

    fn quick_opts(iters: u64, seed: u64) -> RunOptions {
        RunOptions {
            max_iterations: iters,
            warmup_iterations: iters / 10,
            seed,
            ..RunOptions::default()
        }
    }

    #[test]
    fn respects_iteration_budget() {
        let mut p = Sphere::new(3, 1.0, 0);
        let mut s = LamSchedule::new(1.0);
        let r = anneal(&mut p, &mut s, &quick_opts(100, 0));
        assert_eq!(r.iterations, 100);
        assert_eq!(r.stop, StopReason::IterationBudget);
        assert_eq!(r.accepted + r.rejected + r.infeasible, 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut p = Sphere::new(5, 3.0, 7);
            let mut s = LamSchedule::new(1.0);
            anneal(&mut p, &mut s, &quick_opts(5000, seed)).best_cost
        };
        assert_eq!(run(11), run(11));
        // Different seeds should (almost surely) differ.
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn best_cost_never_worse_than_initial() {
        let mut p = Bipartition::two_cliques(8, 3);
        let mut s = GeometricSchedule::new(10.0, 0.95, 20);
        let r = anneal(&mut p, &mut s, &quick_opts(2000, 5));
        assert!(r.best_cost <= r.initial_cost);
        // The problem was restored to the best solution.
        assert_eq!(p.cost(), r.best_cost);
    }

    #[test]
    fn infinite_temperature_does_not_converge() {
        // A random walk should end (on average) far from optimal; we
        // only check the engine runs and records a full trace.
        let mut p = Sphere::new(4, 10.0, 1);
        let mut s = InfiniteTemperature::new();
        let r = anneal(
            &mut p,
            &mut s,
            &RunOptions {
                max_iterations: 1000,
                trace_every: 100,
                seed: 2,
                ..RunOptions::default()
            },
        );
        assert_eq!(r.trace.len(), 10);
        assert!(r.trace.iter().all(|t| t.inverse_temperature == 0.0));
    }

    #[test]
    fn target_cost_stops_early() {
        let mut p = Bipartition::two_cliques(6, 1);
        let mut s = LamSchedule::new(1.0);
        let r = anneal(
            &mut p,
            &mut s,
            &RunOptions {
                max_iterations: 200_000,
                warmup_iterations: 100,
                target_cost: Some(1.0),
                seed: 4,
                ..RunOptions::default()
            },
        );
        assert_eq!(r.stop, StopReason::TargetReached);
        assert!(r.iterations < 200_000);
        assert_eq!(r.best_cost, 1.0);
    }

    #[test]
    fn warmup_statistics_are_collected() {
        let mut p = Sphere::new(3, 2.0, 9);
        let mut s = LamSchedule::new(1.0);
        let r = anneal(&mut p, &mut s, &quick_opts(1000, 3));
        assert_eq!(r.warmup.count(), 100);
        assert!(r.warmup.std_dev() >= 0.0);
    }

    #[test]
    fn segmented_run_is_bit_identical_to_monolithic() {
        let opts = quick_opts(4000, 13);
        let mut p1 = Bipartition::two_cliques(8, 9);
        let mut s1 = LamSchedule::new(0.7);
        let whole = anneal(&mut p1, &mut s1, &opts);

        let mut a = Annealer::new(Bipartition::two_cliques(8, 9), LamSchedule::new(0.7), opts);
        // Ragged segment sizes: pausing must not perturb the walk.
        for seg in [1u64, 7, 100, 250, 999, 10_000] {
            if !a.run_segment(seg) {
                break;
            }
        }
        let (p2, _, segmented) = a.finish();
        assert_eq!(whole.best_cost.to_bits(), segmented.best_cost.to_bits());
        assert_eq!(whole.iterations, segmented.iterations);
        assert_eq!(whole.accepted, segmented.accepted);
        assert_eq!(whole.rejected, segmented.rejected);
        assert_eq!(p1.cost().to_bits(), p2.cost().to_bits());
    }

    #[test]
    fn adopt_installs_a_better_incumbent() {
        let mut a = Annealer::new(
            Sphere::new(4, 5.0, 3),
            InfiniteTemperature::new(),
            RunOptions {
                max_iterations: 100,
                seed: 5,
                ..RunOptions::default()
            },
        );
        a.run_segment(10);
        // A Sphere snapshot is the coordinate vector; the origin costs 0.
        a.adopt(vec![0.0; 4], 0.0);
        assert_eq!(a.best_cost(), 0.0);
        assert_eq!(a.current_cost(), 0.0);
        a.run_segment(u64::MAX);
        let (_, _, r) = a.finish();
        assert_eq!(r.best_cost, 0.0);
        assert_eq!(r.iterations, 100);
    }

    #[test]
    fn annealer_reports_stop_reason_progressively() {
        let mut a = Annealer::new(
            Sphere::new(3, 1.0, 0),
            LamSchedule::new(1.0),
            RunOptions {
                max_iterations: 50,
                seed: 0,
                ..RunOptions::default()
            },
        );
        assert_eq!(a.stop_reason(), None);
        assert!(!a.is_finished());
        let more = a.run_segment(50);
        assert!(!more);
        assert!(a.is_finished());
        assert_eq!(a.stop_reason(), Some(StopReason::IterationBudget));
        assert_eq!(a.iterations(), 50);
    }

    #[test]
    fn bandit_moves_are_deterministic_per_seed() {
        let run = |seed| {
            let mut p = Sphere::new(5, 3.0, 7);
            let mut s = LamSchedule::new(1.0);
            let r = anneal(
                &mut p,
                &mut s,
                &RunOptions {
                    bandit_moves: true,
                    ..quick_opts(5000, seed)
                },
            );
            r.best_cost
        };
        assert_eq!(run(11).to_bits(), run(11).to_bits());
        // The bandit still anneals: the walk improves on the start.
        let mut p = Sphere::new(5, 3.0, 7);
        let mut s = LamSchedule::new(1.0);
        let r = anneal(
            &mut p,
            &mut s,
            &RunOptions {
                bandit_moves: true,
                ..quick_opts(5000, 11)
            },
        );
        assert!(r.best_cost < r.initial_cost);
    }

    #[test]
    fn trace_monotone_best() {
        let mut p = Bipartition::two_cliques(10, 2);
        let mut s = LamSchedule::new(0.5);
        let r = anneal(
            &mut p,
            &mut s,
            &RunOptions {
                max_iterations: 20_000,
                warmup_iterations: 1000,
                trace_every: 50,
                seed: 8,
                ..RunOptions::default()
            },
        );
        for w in r.trace.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost);
        }
    }
}
