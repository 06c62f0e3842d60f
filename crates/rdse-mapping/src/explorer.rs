//! The design-space explorer: the paper's tool, end to end.
//!
//! [`MappingProblem`] adapts the mapping problem to the
//! [`rdse_anneal::Problem`] contract (move classes: the §4.2 pair moves
//! and the §5 implementation-selection moves); [`explore`] wires it to
//! the Lam adaptive schedule with the warm-up phase of Fig. 2 and
//! returns the best mapping found together with run statistics.
//!
//! Three granularities are exposed:
//!
//! * [`explore`] — one annealing chain, driven to completion;
//! * [`Explorer`] — the same chain as a resumable state machine
//!   ([`Explorer::new`] / [`Explorer::step`] /
//!   [`Explorer::run_segment`] / [`Explorer::best`]), pausable at any
//!   iteration boundary with bit-identical resumption;
//! * [`explore_parallel`] — a portfolio of K chains on independent
//!   per-chain RNG streams, run across threads in lock-step segments
//!   with periodic best-solution exchange. Results are a pure function
//!   of `(seed, chains)` — the worker-thread count only changes
//!   wall-clock time, never the answer.

use crate::cost::{CostVector, ObjectiveKey};
use crate::error::MappingError;
use crate::eval::{EvalSummary, Evaluation};
use crate::evaluator::{Evaluator, EvaluatorStats};
use crate::init::{random_initial, require_processor};
use crate::moves::{propose_impl_move, propose_pair_move, MoveDelta, MoveScratch};
use crate::solution::Mapping;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rdse_anneal::{
    crowding_distance, Annealer, Dominance, LamSchedule, ParetoFront, Problem, RunOptions,
    RunResult, Scalarizer,
};
use rdse_model::units::Micros;
use rdse_model::{Architecture, TaskGraph};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the annealer minimizes — a [`Scalarizer`] over the mapping
/// [`CostVector`].
///
/// The problem itself always reports the full cost vector; the
/// objective only decides how acceptance projects it onto a scalar.
/// Whatever the objective, every run also records the Pareto archive
/// over all four axes, so the trade-off surface is never lost to the
/// scalarization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize the execution time (the paper's experiments: the
    /// architecture is fixed, "the criterion to be optimized becomes
    /// here the execution time").
    MinimizeMakespan,
    /// Penalized makespan: minimize
    /// `max(0, makespan − deadline) · penalty + makespan_weight · makespan`.
    /// With a large penalty this searches for any solution meeting the
    /// real-time constraint, then keeps improving below it.
    DeadlinePenalty {
        /// The real-time constraint (40 ms per image in the benchmark).
        deadline: Micros,
        /// Cost per microsecond of deadline violation.
        penalty: f64,
        /// Weight of the makespan below the deadline.
        makespan_weight: f64,
    },
    /// Weighted sum over (makespan, CLB area, reconfiguration
    /// overhead): minimize
    /// `w_makespan · makespan + w_area · clb_area + w_reconfig · reconfig`.
    /// Build with [`Objective::weighted`], which validates the weights.
    Weighted {
        /// Weight of the makespan (µs scale).
        w_makespan: f64,
        /// Weight of the peak context CLB occupancy.
        w_area: f64,
        /// Weight of the reconfiguration overhead (µs scale).
        w_reconfig: f64,
    },
    /// Lexicographic priority over up to four axes: acceptance and
    /// best-so-far tracking are driven by the first axis (in priority
    /// order) on which two solutions differ, at that axis's native
    /// scale, so the returned mapping is the tiered winner; scalar run
    /// statistics track the primary axis. The recorded Pareto front
    /// exposes the full trade-off surface (see [`lexi_min`]). Build
    /// with [`Objective::lexicographic`].
    Lexicographic {
        /// Priority order, highest first; `None` slots are unused.
        order: [Option<ObjectiveKey>; 4],
    },
}

impl Objective {
    /// Builds a weighted-sum objective.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite weights and the all-zero
    /// combination.
    pub fn weighted(w_makespan: f64, w_area: f64, w_reconfig: f64) -> Result<Self, String> {
        let weights = [w_makespan, w_area, w_reconfig];
        if let Some(w) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(format!("weight {w} is not a finite non-negative number"));
        }
        if weights.iter().all(|&w| w == 0.0) {
            return Err("weighted objective needs at least one positive weight".into());
        }
        Ok(Objective::Weighted {
            w_makespan,
            w_area,
            w_reconfig,
        })
    }

    /// Builds a lexicographic objective minimizing the given axes in
    /// priority order (highest first).
    ///
    /// # Errors
    ///
    /// Rejects an empty order, more than four axes and duplicates.
    pub fn lexicographic(keys: &[ObjectiveKey]) -> Result<Self, String> {
        if keys.len() > 4 {
            return Err(format!(
                "lexicographic objective takes at most 4 axes, got {}",
                keys.len()
            ));
        }
        if keys.is_empty() {
            return Err("lexicographic objective needs at least one axis".into());
        }
        for (i, key) in keys.iter().enumerate() {
            if keys[..i].contains(key) {
                return Err(format!("axis '{}' listed twice", key.name()));
            }
        }
        let mut order = [None; 4];
        for (i, key) in keys.iter().enumerate() {
            order[i] = Some(*key);
        }
        Ok(Objective::Lexicographic { order })
    }

    /// Scalar cost of a full evaluation summary under this objective —
    /// the convenience form of [`Scalarizer::scalarize`] for report
    /// paths that hold summaries.
    pub fn cost_of(&self, summary: &EvalSummary) -> f64 {
        self.scalarize(&CostVector::from_summary(summary))
    }

    /// Parses an objective spec string — the format shared by the
    /// CLI's `--objective` flag and the serving layer's job specs:
    ///
    /// * `makespan`,
    /// * `weighted:<w_makespan>,<w_area>,<w_reconfig>`,
    /// * `lexi:<axis>[,<axis>...]` with axes `makespan`, `area`,
    ///   `reconfig`, `contexts`.
    ///
    /// # Errors
    ///
    /// Names the offending part: unknown scheme, wrong weight arity,
    /// negative/non-finite weights, unknown or duplicate axes.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        if spec == "makespan" {
            return Ok(Objective::MinimizeMakespan);
        }
        if let Some(weights) = spec.strip_prefix("weighted:") {
            let parts: Vec<&str> = weights.split(',').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "objective weighted takes exactly 3 weights \
                     (w_makespan,w_area,w_reconfig), got {}",
                    parts.len()
                ));
            }
            let mut w = [0.0f64; 3];
            for (slot, part) in w.iter_mut().zip(&parts) {
                *slot = part
                    .trim()
                    .parse()
                    .map_err(|_| format!("objective weighted: '{part}' is not a number"))?;
            }
            return Objective::weighted(w[0], w[1], w[2])
                .map_err(|e| format!("objective weighted: {e}"));
        }
        if let Some(order) = spec.strip_prefix("lexi:") {
            let keys: Result<Vec<ObjectiveKey>, String> = order
                .split(',')
                .map(|name| {
                    let name = name.trim();
                    ObjectiveKey::parse(name).ok_or_else(|| {
                        format!(
                            "objective lexi: unknown axis '{name}' \
                             (expected makespan, area, reconfig or contexts)"
                        )
                    })
                })
                .collect();
            return Objective::lexicographic(&keys?).map_err(|e| format!("objective lexi: {e}"));
        }
        Err(format!(
            "unknown objective scheme '{spec}' \
             (expected makespan, weighted:<w_mk>,<w_area>,<w_rc> or lexi:<order>)"
        ))
    }

    /// Human-readable description, used by report headers everywhere
    /// an objective is echoed back (CLI reports, serve results).
    pub fn describe(&self) -> String {
        match self {
            Objective::MinimizeMakespan => "minimize makespan".into(),
            Objective::DeadlinePenalty { deadline, .. } => {
                format!("deadline-penalized makespan (deadline {deadline})")
            }
            Objective::Weighted {
                w_makespan,
                w_area,
                w_reconfig,
            } => format!(
                "weighted sum {w_makespan}*makespan + {w_area}*area + {w_reconfig}*reconfig"
            ),
            Objective::Lexicographic { order } => {
                let names: Vec<&str> = order.iter().flatten().map(|k| k.name()).collect();
                format!("lexicographic {}", names.join(" > "))
            }
        }
    }
}

impl Scalarizer<CostVector> for Objective {
    fn scalarize(&self, v: &CostVector) -> f64 {
        match *self {
            Objective::MinimizeMakespan => v.makespan,
            Objective::DeadlinePenalty {
                deadline,
                penalty,
                makespan_weight,
            } => {
                let excess = (v.makespan - deadline.value()).max(0.0);
                excess * penalty + v.makespan * makespan_weight
            }
            Objective::Weighted {
                w_makespan,
                w_area,
                w_reconfig,
            } => w_makespan * v.makespan + w_area * v.clb_area + w_reconfig * v.reconfig_overhead,
            Objective::Lexicographic { order } => {
                let key = order[0].expect("lexicographic order is non-empty by construction");
                v.get(key)
            }
        }
    }

    fn delta(&self, new: &CostVector, cur: &CostVector, scalar_delta: f64) -> f64 {
        match self {
            Objective::Lexicographic { order } => {
                for key in order.iter().flatten() {
                    let (a, b) = (new.get(*key), cur.get(*key));
                    if a != b {
                        return a - b;
                    }
                }
                0.0
            }
            _ => scalar_delta,
        }
    }
}

/// The lexicographic minimum of a front under a priority order — how a
/// [`Objective::Lexicographic`] run selects its winner from the
/// recorded Pareto archive (lower tiers break ties the scalar
/// best-so-far cannot see).
pub fn lexi_min<'a>(
    front: &'a ParetoFront<CostVector>,
    order: &[Option<ObjectiveKey>; 4],
) -> Option<&'a CostVector> {
    front.iter().min_by(|a, b| {
        for key in order.iter().flatten() {
            let ord = a.get(*key).total_cmp(&b.get(*key));
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    })
}

/// The reversible move token of [`MappingProblem`]: the compact
/// [`MoveDelta`] plus the pre-move scalar summary. `Copy` — an
/// annealing step never clones the solution.
#[derive(Debug, Clone, Copy)]
pub struct MappingMove {
    /// Reverse record of the touched assignment.
    pub delta: MoveDelta,
    /// Summary of the solution before the move.
    pub prev: EvalSummary,
}

/// The mapping problem in [`rdse_anneal::Problem`] form.
///
/// Move class 0 draws the paper's `(vs, vd)` pair moves (m1/m2); class
/// 1 draws implementation-selection moves (m5).
///
/// This is the incremental engine: proposals mutate the one resident
/// [`Mapping`] in place, scoring reuses the arena-backed [`Evaluator`],
/// rejected moves are reversed by their [`MoveDelta`] in O(touched),
/// and the only remaining full-solution clones are best-so-far
/// snapshots (taken when the incumbent improves) and their restores.
#[derive(Debug, Clone)]
pub struct MappingProblem<'a> {
    app: &'a TaskGraph,
    arch: &'a Architecture,
    mapping: Mapping,
    evaluator: Evaluator<'a>,
    scratch: MoveScratch,
    current: EvalSummary,
}

impl<'a> MappingProblem<'a> {
    /// Wraps an existing feasible mapping.
    ///
    /// The problem is objective-free: it reports the full
    /// [`CostVector`] of every candidate, and the engine's
    /// [`Scalarizer`] (an [`Objective`]) decides what acceptance
    /// minimizes.
    ///
    /// # Errors
    ///
    /// Returns the evaluation error if `mapping` is infeasible.
    pub fn new(
        app: &'a TaskGraph,
        arch: &'a Architecture,
        mapping: Mapping,
    ) -> Result<Self, MappingError> {
        mapping.validate(app, arch)?;
        let mut evaluator = Evaluator::new(app, arch);
        let current = evaluator.evaluate(&mapping)?;
        Ok(MappingProblem {
            app,
            arch,
            mapping,
            evaluator,
            scratch: MoveScratch::default(),
            current,
        })
    }

    /// The current mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Scalar summary of the current solution.
    pub fn summary(&self) -> EvalSummary {
        self.current
    }

    /// Arena counters of the internal [`Evaluator`].
    pub fn evaluator_stats(&self) -> EvaluatorStats {
        self.evaluator.stats()
    }

    /// Re-synchronizes the incremental evaluator after the resident
    /// mapping was replaced wholesale (snapshot restore): one full
    /// evaluation, after which delta scoring resumes. The summary is
    /// taken from the snapshot (it is bit-identical by the evaluator's
    /// determinism contract).
    fn resync(&mut self, summary: EvalSummary) {
        self.evaluator
            .evaluate(&self.mapping)
            .expect("restored snapshot is feasible by invariant");
        self.current = summary;
    }

    /// Consumes the problem, returning the mapping and its full
    /// evaluation (per-task trace included), computed once on the cold
    /// path.
    pub fn into_parts(self) -> (Mapping, Evaluation) {
        let evaluation = self
            .evaluator
            .evaluate_full(&self.mapping)
            .expect("resident mapping is feasible by invariant");
        (self.mapping, evaluation)
    }
}

impl Problem for MappingProblem<'_> {
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
    ) -> Option<(Self::Move, CostVector)> {
        // Proposal functions leave the mapping unchanged on None, so
        // the rejection path allocates and clones nothing.
        let outcome = match class {
            0 => propose_pair_move(
                self.app,
                self.arch,
                &mut self.mapping,
                rng,
                &mut self.scratch,
            ),
            _ => propose_impl_move(
                self.app,
                self.arch,
                &mut self.mapping,
                rng,
                &mut self.scratch,
            ),
        }?;
        // Delta evaluation: only the move's repair cone is relabeled,
        // bit-identical to a full re-evaluation. The evaluator keeps
        // the pre-move state recoverable until the annealer decides.
        match self
            .evaluator
            .evaluate_delta(&self.mapping, outcome.delta.task())
        {
            Ok(summary) => {
                let prev = self.current;
                self.current = summary;
                Some((
                    MappingMove {
                        delta: outcome.delta,
                        prev,
                    },
                    CostVector::from_summary(&self.current),
                ))
            }
            Err(_) => {
                // Cycle or capacity: infeasible move, reverse the
                // touched assignment (§4.3). The evaluator has already
                // reverted itself.
                outcome.delta.undo(&mut self.mapping);
                None
            }
        }
    }

    fn undo(&mut self, mv: Self::Move) {
        self.evaluator.revert_delta();
        mv.delta.undo(&mut self.mapping);
        self.current = mv.prev;
    }

    fn snapshot(&self) -> Self::Snapshot {
        (self.mapping.clone(), self.current)
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        // The one remaining full-solution clone: the borrowed snapshot
        // must stay usable (it is the engine's retained best), so the
        // mapping is copied back into the resident buffers.
        self.mapping.clone_from(&snapshot.0);
        self.resync(snapshot.1);
    }

    fn restore_owned(&mut self, snapshot: Self::Snapshot) {
        self.mapping = snapshot.0;
        self.resync(snapshot.1);
    }

    fn observables(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("makespan_ms", self.current.makespan.as_millis()),
            ("clb_area", f64::from(self.current.clb_area.value())),
            ("n_contexts", self.current.n_contexts as f64),
            (
                "initial_reconfig_ms",
                self.current.breakdown.initial_reconfig.as_millis(),
            ),
            (
                "dynamic_reconfig_ms",
                self.current.breakdown.dynamic_reconfig.as_millis(),
            ),
            ("n_hw_tasks", self.current.n_hw_tasks as f64),
        ]
    }
}

/// Options of a full exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Total iteration budget (the paper's Fig. 2 run uses 5 000).
    pub max_iterations: u64,
    /// Infinite-temperature warm-up iterations (1 200 in Fig. 2).
    pub warmup_iterations: u64,
    /// Lam quality factor λ (smaller = slower cooling = better result).
    pub lambda: f64,
    /// RNG seed (controls both the initial solution and the walk).
    pub seed: u64,
    /// Trace sampling period (0 = no trace).
    pub trace_every: u64,
    /// Objective to minimize.
    pub objective: Objective,
    /// Use the adaptive move-class controller.
    pub adaptive_moves: bool,
    /// Select move kinds with the deterministic UCB bandit credited by
    /// realized improvement instead of the acceptance-rate roulette
    /// (takes precedence over `adaptive_moves`). The bandit consumes
    /// no randomness, so runs stay deterministic per seed; `false`
    /// (the default) keeps the engine bit-identical to previous
    /// releases.
    pub bandit_moves: bool,
    /// Stop early at this makespan-cost (µs), if given.
    pub target_cost: Option<f64>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_iterations: 5_000,
            warmup_iterations: 1_200,
            lambda: 0.5,
            seed: 0,
            trace_every: 0,
            objective: Objective::MinimizeMakespan,
            adaptive_moves: true,
            bandit_moves: false,
            target_cost: None,
        }
    }
}

/// Result of [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Best mapping found.
    pub mapping: Mapping,
    /// Its evaluation.
    pub evaluation: Evaluation,
    /// Annealer statistics and trace; carries the best cost vector and
    /// the chain's Pareto archive ([`RunResult::front`]).
    pub run: RunResult<CostVector>,
    /// Arena counters of the chain's incremental evaluator.
    pub eval_stats: EvaluatorStats,
}

impl ExploreOutcome {
    /// The chain's Pareto archive over every accepted solution.
    pub fn front(&self) -> &ParetoFront<CostVector> {
        self.run
            .front
            .as_ref()
            .expect("explorer chains always track their front")
    }
}

/// Runs the complete tool of the paper on `app` × `arch`: random
/// initial solution, warm-up, Lam-adaptive annealing over the m1/m2/m5
/// moves, best solution returned.
///
/// # Errors
///
/// Returns [`MappingError`] if no feasible initial solution can be
/// constructed (e.g. the models are inconsistent).
///
/// See the [crate-level example](crate) for usage.
pub fn explore(
    app: &TaskGraph,
    arch: &Architecture,
    opts: &ExploreOptions,
) -> Result<ExploreOutcome, MappingError> {
    let mut explorer = Explorer::new(app, arch, opts)?;
    explorer.run_segment(u64::MAX);
    Ok(explorer.into_outcome())
}

/// A single annealing chain as a resumable state machine.
///
/// Construction performs the full setup of [`explore`] (random initial
/// solution, warm-up configuration, Lam schedule); the chain then
/// advances one iteration at a time ([`step`]) or in segments
/// ([`run_segment`]). Pausing at a segment boundary is invisible to the
/// walk: driving an `Explorer` to completion is bit-identical to
/// [`explore`] with equal options. Between segments the incumbent best
/// is readable via [`best`] and replaceable via [`adopt_best`] — the
/// exchange primitive used by [`explore_parallel`].
///
/// [`step`]: Explorer::step
/// [`run_segment`]: Explorer::run_segment
/// [`best`]: Explorer::best
/// [`adopt_best`]: Explorer::adopt_best
///
/// # Examples
///
/// ```
/// use rdse_mapping::{Explorer, ExploreOptions};
/// use rdse_workloads::{epicure_architecture, motion_detection_app};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = motion_detection_app();
/// let arch = epicure_architecture(2000);
/// let mut chain = Explorer::new(&app, &arch, &ExploreOptions {
///     max_iterations: 2_000,
///     warmup_iterations: 400,
///     seed: 1,
///     ..ExploreOptions::default()
/// })?;
/// while chain.run_segment(500) {
///     // exchange point: inspect chain.best(), adopt an incumbent, ...
/// }
/// let outcome = chain.into_outcome();
/// assert!(outcome.evaluation.makespan.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Explorer<'a> {
    annealer: Annealer<MappingProblem<'a>, LamSchedule, Objective>,
    objective: Objective,
    seed: u64,
}

impl<'a> Explorer<'a> {
    /// Sets up a chain: draws the random initial solution from
    /// `opts.seed` and prepares the annealer exactly as [`explore`]
    /// does.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError`] if no feasible initial solution can be
    /// constructed (e.g. the models are inconsistent).
    pub fn new(
        app: &'a TaskGraph,
        arch: &'a Architecture,
        opts: &ExploreOptions,
    ) -> Result<Self, MappingError> {
        Self::with_initial(app, arch, opts, None)
    }

    /// Like [`Explorer::new`], but an explicit `initial` mapping
    /// replaces the seed-drawn random initial solution — the warm-start
    /// primitive used by [`explore_parallel`] (see [`WarmStart`]).
    ///
    /// Only the starting point changes: the annealer's walk RNG stream
    /// (seeded independently of the initial-solution draw) is identical
    /// to the cold chain's, so a warm chain is a pure function of
    /// `(options, initial)`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::NoProcessor`] if `arch` has no processor,
    /// and [`MappingError`] if the initial solution (provided or drawn)
    /// is infeasible for `app` × `arch`.
    pub fn with_initial(
        app: &'a TaskGraph,
        arch: &'a Architecture,
        opts: &ExploreOptions,
        initial: Option<Mapping>,
    ) -> Result<Self, MappingError> {
        require_processor(arch)?;
        #[cfg(rdse_fault = "warm_start_draws_rng")]
        let opts = &ExploreOptions {
            seed: opts.seed.wrapping_add(u64::from(initial.is_some())),
            ..opts.clone()
        };
        // `MappingProblem::new` validates a provided mapping.
        let initial = initial
            .unwrap_or_else(|| random_initial(app, arch, &mut StdRng::seed_from_u64(opts.seed)));
        let problem = MappingProblem::new(app, arch, initial)?;
        let schedule = LamSchedule::new(opts.lambda);
        let mut annealer = Annealer::with_scalarizer(
            problem,
            schedule,
            RunOptions {
                max_iterations: opts.max_iterations,
                warmup_iterations: opts.warmup_iterations,
                seed: opts.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
                trace_every: opts.trace_every,
                adaptive_moves: opts.adaptive_moves,
                bandit_moves: opts.bandit_moves,
                target_cost: opts.target_cost,
                ..RunOptions::default()
            },
            opts.objective,
        );
        // Every chain archives its trade-off front; recording is
        // observational, so the walk is unchanged.
        annealer.track_front();
        Ok(Explorer {
            annealer,
            objective: opts.objective,
            seed: opts.seed,
        })
    }

    /// Runs one annealing iteration; returns `true` while the chain can
    /// continue.
    pub fn step(&mut self) -> bool {
        self.annealer.step()
    }

    /// Runs up to `steps` iterations (fewer if the chain ends first);
    /// returns `true` while the chain can continue.
    pub fn run_segment(&mut self, steps: u64) -> bool {
        self.annealer.run_segment(steps)
    }

    /// Whether the chain has exhausted its budget or hit a stop
    /// condition.
    pub fn is_finished(&self) -> bool {
        self.annealer.is_finished()
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.annealer.iterations()
    }

    /// Scalarized objective cost of the best solution seen so far.
    pub fn best_cost(&self) -> f64 {
        self.annealer.best_cost()
    }

    /// Full cost vector of the best solution seen so far.
    pub fn best_objectives(&self) -> &CostVector {
        self.annealer.best_objectives()
    }

    /// The chain's Pareto archive over accepted solutions so far.
    pub fn front(&self) -> &ParetoFront<CostVector> {
        self.annealer
            .front()
            .expect("explorer chains always track their front")
    }

    /// The best mapping and its scalar summary seen so far.
    pub fn best(&self) -> (&Mapping, EvalSummary) {
        let snapshot = self.annealer.best_snapshot();
        (&snapshot.0, snapshot.1)
    }

    /// Arena counters of the chain's incremental evaluator.
    pub fn eval_stats(&self) -> EvaluatorStats {
        self.annealer.problem().evaluator_stats()
    }

    /// The RNG seed this chain was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The objective this chain minimizes.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Replaces the chain's current solution with an external incumbent
    /// (portfolio exchange). The chain's RNG stream and schedule state
    /// are untouched, so determinism is preserved.
    pub fn adopt_best(&mut self, mapping: Mapping, summary: EvalSummary) {
        let cost = CostVector::from_summary(&summary);
        self.annealer.adopt((mapping, summary), cost);
    }

    /// Ends the chain: the problem is restored to the best solution and
    /// packed into an [`ExploreOutcome`] (the full per-task evaluation
    /// is computed once here, on the cold path).
    pub fn into_outcome(self) -> ExploreOutcome {
        let (problem, _schedule, run) = self.annealer.finish();
        let eval_stats = problem.evaluator_stats();
        let (mapping, evaluation) = problem.into_parts();
        ExploreOutcome {
            mapping,
            evaluation,
            run,
            eval_stats,
        }
    }
}

/// SplitMix64 finalizer — decorrelates per-chain RNG streams derived
/// from one master seed (Steele, Lea & Flood, OOPSLA'14).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of chain `chain` in a portfolio run with master seed
/// `seed`. Chain 0 uses the master seed unchanged, so a 1-chain
/// portfolio reproduces [`explore`] exactly; later chains draw
/// decorrelated streams via SplitMix64 on `seed ^ chain`.
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    if chain == 0 {
        seed
    } else {
        splitmix64(seed ^ chain as u64)
    }
}

/// Opt-in warm-start seeding for [`explore_parallel`]: chain 0 starts
/// from this mapping instead of its seed-drawn random initial
/// solution.
///
/// # Determinism
///
/// Warm-starting changes **only** chain 0's starting point. The
/// initial-solution RNG and the annealing-walk RNG are independently
/// seeded streams, and the warm path simply skips the former — every
/// chain's walk stream, the exchange schedule and the other chains'
/// initial draws are untouched. A warm-started run is therefore a pure
/// function of `(options, warm mapping)`: reproducible given the
/// archive state that supplied the mapping, and with `warm_start:
/// None` (the default) the engine is bit-identical to previous
/// releases.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Chain 0's initial mapping. Must be feasible for the run's
    /// `app` × `arch` (checked at chain construction).
    pub mapping: Mapping,
}

/// Options of a parallel portfolio exploration.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Per-chain options. `base.max_iterations` is the **total**
    /// iteration budget of the portfolio — it is divided evenly across
    /// chains (remainder to the lowest chain ids) so that
    /// [`explore_parallel`] and [`explore`] are comparable at equal
    /// budget; `base.warmup_iterations` scales down proportionally.
    /// `base.seed` is the master seed — see [`chain_seed`].
    pub base: ExploreOptions,
    /// Number of annealing chains (≥ 1). Results depend on this value.
    pub chains: usize,
    /// Worker threads; `0` uses the machine's available parallelism.
    /// Never affects results, only wall-clock time.
    pub threads: usize,
    /// Per-chain iterations between best-solution exchanges (`0` = the
    /// chains run fully independently).
    pub exchange_every: u64,
    /// Opt-in warm start: chain 0 begins from this mapping instead of
    /// its random initial solution. `None` (the default) keeps the
    /// engine bit-identical to a cold run — see [`WarmStart`].
    pub warm_start: Option<WarmStart>,
    /// Opt-in front-aware exchange: at each barrier the chains adopt
    /// *distinct members of the portfolio front* (ordered by crowding
    /// distance, least crowded first) instead of all converging on the
    /// single scalar incumbent — diversity injection across the
    /// trade-off surface. The assignment is a deterministic function
    /// of the chain states (ties broken by objective axes, then by
    /// lowest contributing chain id), so the run stays bit-identical
    /// at any thread count. `false` (the default) keeps the historical
    /// incumbent-only exchange bit for bit.
    pub front_exchange: bool,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            base: ExploreOptions::default(),
            chains: 8,
            threads: 0,
            exchange_every: 500,
            warm_start: None,
            front_exchange: false,
        }
    }
}

/// Per-chain statistics of a portfolio run.
#[derive(Debug, Clone)]
pub struct ChainStats {
    /// Chain index (0-based).
    pub chain: usize,
    /// The chain's RNG seed (see [`chain_seed`]).
    pub seed: u64,
    /// Evaluation of the chain's best solution.
    pub evaluation: Evaluation,
    /// The chain's annealer statistics, including its own Pareto
    /// archive ([`RunResult::front`]).
    pub run: RunResult<CostVector>,
    /// Arena counters of the chain's incremental evaluator.
    pub eval_stats: EvaluatorStats,
}

/// Result of [`explore_parallel`].
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Best mapping across all chains.
    pub mapping: Mapping,
    /// Its evaluation.
    pub evaluation: Evaluation,
    /// Index of the winning chain.
    pub winner: usize,
    /// Per-chain statistics, indexed by chain id.
    pub chains: Vec<ChainStats>,
    /// The portfolio Pareto front: the per-chain archives merged in
    /// chain order — deterministic for a given `(seed, chains)`
    /// regardless of thread count, like everything else here.
    pub front: ParetoFront<CostVector>,
    /// Wall-clock duration of the whole portfolio run.
    pub elapsed: Duration,
}

/// Runs a portfolio of `opts.chains` annealing chains over `app` ×
/// `arch`, splitting `opts.base.max_iterations` evenly across chains
/// and exchanging the incumbent best every `opts.exchange_every`
/// per-chain iterations.
///
/// Chains advance in lock-step segments: all chains complete a segment
/// (in parallel across up to `opts.threads` workers), then the
/// portfolio winner — lowest objective cost, ties broken by lowest
/// chain id — is adopted by every strictly worse chain, and the next
/// segment starts. Because each chain walks its own RNG stream and
/// exchanges happen only at these deterministic barriers, the outcome
/// is **bit-identical for a given `(seed, chains)` regardless of the
/// thread count**.
///
/// # Errors
///
/// Returns [`MappingError`] if any chain fails to construct a feasible
/// initial solution.
///
/// # Examples
///
/// ```
/// use rdse_mapping::{explore, explore_parallel, ExploreOptions, ParallelOptions};
/// use rdse_workloads::{epicure_architecture, motion_detection_app};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = motion_detection_app();
/// let arch = epicure_architecture(2000);
/// let opts = ParallelOptions {
///     base: ExploreOptions { max_iterations: 2_000, warmup_iterations: 400, seed: 1,
///                            ..ExploreOptions::default() },
///     chains: 4,
///     threads: 2,
///     exchange_every: 250,
///     warm_start: None,
///     front_exchange: false,
/// };
/// let portfolio = explore_parallel(&app, &arch, &opts)?;
/// assert_eq!(portfolio.chains.len(), 4);
/// // The winner is the best of all chains.
/// assert!(portfolio.chains.iter().all(|c| portfolio.evaluation.makespan.value()
///     <= c.evaluation.makespan.value() + 1e-9));
/// # Ok(())
/// # }
/// ```
pub fn explore_parallel(
    app: &TaskGraph,
    arch: &Architecture,
    opts: &ParallelOptions,
) -> Result<ParallelOutcome, MappingError> {
    explore_parallel_observed(app, arch, opts, |_| true)
}

/// A progress snapshot delivered to the observer of
/// [`explore_parallel_observed`] at each lock-step segment barrier
/// (and once more when the portfolio finishes).
#[derive(Debug)]
pub struct SegmentUpdate<'u> {
    /// Lock-step segments completed so far (1-based).
    pub segment: u64,
    /// Iterations executed so far, summed across all chains.
    pub iterations: u64,
    /// Scalarized objective cost of the current portfolio incumbent.
    pub best_cost: f64,
    /// Full cost vector of the current portfolio incumbent.
    pub best: CostVector,
    /// The portfolio Pareto front so far (per-chain archives merged in
    /// chain order).
    pub front: &'u ParetoFront<CostVector>,
    /// `true` on the final update (budget exhausted or target hit).
    pub finished: bool,
}

/// [`explore_parallel`] for long-lived callers (the serving layer): an
/// `observer` is called at every exchange barrier with a
/// [`SegmentUpdate`] so progress can be streamed while the portfolio
/// converges.
///
/// Observation is read-only, so for any observer that keeps returning
/// `true` the outcome is **bit-identical to [`explore_parallel`]** with
/// equal options. An observer returning `false` aborts the portfolio at
/// the barrier: the outcome then reflects the best solutions found so
/// far (and is naturally *not* comparable to a full run).
///
/// # Errors
///
/// Returns [`MappingError`] if any chain fails to construct a feasible
/// initial solution.
pub fn explore_parallel_observed(
    app: &TaskGraph,
    arch: &Architecture,
    opts: &ParallelOptions,
    mut observer: impl FnMut(&SegmentUpdate<'_>) -> bool,
) -> Result<ParallelOutcome, MappingError> {
    let start = Instant::now();
    let chains = opts.chains.max(1);
    let total = opts.base.max_iterations;

    let mut explorers = Vec::with_capacity(chains);
    for c in 0..chains {
        let per_chain = total / chains as u64 + u64::from((c as u64) < total % chains as u64);
        // Scale the warm-up with the chain's share of the budget (u128
        // so huge budgets cannot overflow the product).
        let warmup = if total == 0 {
            0
        } else {
            ((opts.base.warmup_iterations as u128 * per_chain as u128) / total as u128) as u64
        };
        let chain_opts = ExploreOptions {
            max_iterations: per_chain,
            warmup_iterations: warmup,
            seed: chain_seed(opts.base.seed, c),
            ..opts.base.clone()
        };
        // Warm start replaces chain 0's random initial; other chains
        // always draw their own.
        let initial = if c == 0 {
            opts.warm_start.as_ref().map(|w| w.mapping.clone())
        } else {
            None
        };
        explorers.push(Explorer::with_initial(app, arch, &chain_opts, initial)?);
    }

    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        opts.threads
    }
    .clamp(1, chains);
    let segment = if opts.exchange_every == 0 {
        u64::MAX
    } else {
        opts.exchange_every
    };

    // Chains are data-parallel within a segment; splitting them into
    // contiguous per-worker chunks (a pure function of chains and
    // threads) keeps the result independent of the thread count.
    let mut segments = 0u64;
    fan_out(
        &mut explorers,
        threads,
        |chain| {
            chain.run_segment(segment);
        },
        |explorers| {
            segments += 1;
            let target_hit = opts
                .base
                .target_cost
                .is_some_and(|t| explorers.iter().any(|c| c.best_cost() <= t));
            let done = target_hit || explorers.iter().all(Explorer::is_finished);

            // Observe at the barrier: a read-only snapshot of the
            // portfolio state, never part of the walk.
            let keep_going = {
                let incumbent = portfolio_winner(explorers);
                let mut snapshot = ParetoFront::new();
                for chain in explorers.iter() {
                    snapshot.merge(chain.front());
                }
                observer(&SegmentUpdate {
                    segment: segments,
                    iterations: explorers.iter().map(Explorer::iterations).sum(),
                    best_cost: explorers[incumbent].best_cost(),
                    best: *explorers[incumbent].best_objectives(),
                    front: &snapshot,
                    finished: done,
                })
            };
            if done || !keep_going {
                return false;
            }

            if opts.front_exchange {
                exchange_front_members(explorers);
            } else {
                // Exchange at the barrier: strictly worse chains adopt
                // the portfolio winner (ties keep their own solution —
                // and the winner is picked by lowest chain id, so the
                // exchange is a deterministic function of the chain
                // states).
                let winner = portfolio_winner(explorers);
                let winner_cost = explorers[winner].best_cost();
                let (best_mapping, best_summary) = {
                    let (m, s) = explorers[winner].best();
                    (m.clone(), s)
                };
                for (i, chain) in explorers.iter_mut().enumerate() {
                    if i != winner && chain.best_cost() > winner_cost && !chain.is_finished() {
                        chain.adopt_best(best_mapping.clone(), best_summary);
                    }
                }
            }
            true
        },
    );

    let winner = portfolio_winner(&explorers);
    let mut chain_stats = Vec::with_capacity(chains);
    let mut winner_solution = None;
    let mut front = ParetoFront::new();
    for (i, chain) in explorers.into_iter().enumerate() {
        let seed = chain.seed();
        let outcome = chain.into_outcome();
        if i == winner {
            winner_solution = Some((outcome.mapping.clone(), outcome.evaluation.clone()));
        }
        // Merging the final archives in chain order is equivalent to
        // merging at every exchange barrier: archives only ever evict a
        // member for a dominating one, so the union front is the same.
        front.merge(outcome.front());
        chain_stats.push(ChainStats {
            chain: i,
            seed,
            evaluation: outcome.evaluation,
            run: outcome.run,
            eval_stats: outcome.eval_stats,
        });
    }
    let (mapping, evaluation) = winner_solution.expect("portfolio has at least one chain");
    Ok(ParallelOutcome {
        mapping,
        evaluation,
        winner,
        chains: chain_stats,
        front,
        elapsed: start.elapsed(),
    })
}

/// Runs rounds of `work` over every item until `barrier` returns
/// `false`. Each round splits `items` into contiguous `div_ceil`
/// chunks, one per thread (`threads` in `1..=items.len()`): the calling
/// thread takes chunk 0, and each later chunk travels over `mpsc` to a
/// worker spawned once for all rounds and back. `barrier` then sees
/// the items in their original order on the calling thread, so it
/// need not be `Send`. A panicking worker closes its return channel,
/// so the caller panics instead of waiting.
fn fan_out<T: Send>(
    items: &mut Vec<T>,
    threads: usize,
    work: impl Fn(&mut T) + Sync,
    mut barrier: impl FnMut(&mut [T]) -> bool,
) {
    let chunk = items.len().div_ceil(threads);
    let work = &work;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..items.len().div_ceil(chunk))
            .map(|_| {
                let (to_worker, inbox) = mpsc::channel::<Vec<T>>();
                let (outbox, from_worker) = mpsc::channel();
                scope.spawn(move || {
                    for mut part in inbox {
                        part.iter_mut().for_each(work);
                        if outbox.send(part).is_err() {
                            break;
                        }
                    }
                });
                (to_worker, from_worker)
            })
            .collect();
        loop {
            let mut rest = items.split_off(chunk).into_iter();
            for (to_worker, _) in &workers {
                let part = rest.by_ref().take(chunk).collect();
                to_worker.send(part).expect("a fan-out worker panicked");
            }
            items.iter_mut().for_each(work);
            let parts = workers.iter().map(|(_, from_worker)| from_worker.recv());
            #[cfg(rdse_fault = "fanout_chunks_reversed")]
            let parts = parts.collect::<Vec<_>>().into_iter().rev();
            for part in parts {
                items.extend(part.expect("a fan-out worker panicked"));
            }
            if !barrier(items) {
                break;
            }
        }
    });
}

/// A retrievable solution in the front-exchange pool: the cost vector
/// the front reasons about plus the mapping and summary a chain needs
/// to adopt it. Equality and dominance delegate to the cost vector
/// alone, so two chains whose bests coincide on every axis dedupe to
/// one pool entry — and insertion in chain order makes the *lowest
/// contributing chain id* the survivor of such ties.
#[derive(Debug, Clone)]
struct FrontSolution {
    cost: CostVector,
    mapping: Mapping,
    summary: EvalSummary,
}

impl PartialEq for FrontSolution {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost
    }
}

impl Dominance for FrontSolution {
    fn dominates(&self, other: &Self) -> bool {
        self.cost.dominates(&other.cost)
    }
}

/// Exact per-axis lexicographic order on cost vectors — the
/// deterministic tie-break of the front-exchange assignment.
fn cmp_axes(a: &CostVector, b: &CostVector) -> std::cmp::Ordering {
    a.makespan
        .total_cmp(&b.makespan)
        .then(a.clb_area.total_cmp(&b.clb_area))
        .then(a.reconfig_overhead.total_cmp(&b.reconfig_overhead))
        .then(a.contexts.total_cmp(&b.contexts))
}

/// Front-aware exchange: pools the chains' best solutions, reduces
/// them to the non-dominated set, orders the members by crowding
/// distance (descending — boundary and sparse members first, the
/// diversity NSGA-II's crowded comparison protects) and hands member
/// `order[i mod len]` to chain `i`. Chains whose best vector already
/// equals their assigned member keep their position.
///
/// Runs entirely at the lock-step barrier and consumes no randomness,
/// so the portfolio stays bit-identical at any thread count.
fn exchange_front_members(explorers: &mut [Explorer<'_>]) {
    let mut pool: ParetoFront<FrontSolution> = ParetoFront::new();
    for chain in explorers.iter() {
        let (mapping, summary) = chain.best();
        pool.insert(FrontSolution {
            cost: CostVector::from_summary(&summary),
            mapping: mapping.clone(),
            summary,
        });
    }
    let members = pool.members();
    let costs: Vec<CostVector> = members.iter().map(|m| m.cost).collect();
    let crowding = crowding_distance(&costs);
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by(|&a, &b| {
        crowding[b]
            .total_cmp(&crowding[a])
            .then_with(|| cmp_axes(&costs[a], &costs[b]))
            .then(a.cmp(&b))
    });
    for (i, chain) in explorers.iter_mut().enumerate() {
        if chain.is_finished() {
            continue;
        }
        let member = &members[order[i % order.len()]];
        if *chain.best_objectives() != member.cost {
            chain.adopt_best(member.mapping.clone(), member.summary);
        }
    }
}

/// Index of the chain with the lowest best cost, ties to the lowest id.
fn portfolio_winner(explorers: &[Explorer<'_>]) -> usize {
    explorers
        .iter()
        .enumerate()
        // The explicit id tie-break makes "lowest chain id wins" part
        // of the comparison itself rather than a side effect of
        // min_by's first-of-equals behavior.
        .min_by(|(ia, a), (ib, b)| a.best_cost().total_cmp(&b.best_cost()).then(ia.cmp(ib)))
        .map(|(i, _)| i)
        .expect("portfolio has at least one chain")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use rand::Rng;
    use rdse_anneal::Dominance;
    use rdse_model::units::{Bytes, Clbs};
    use rdse_model::HwImpl;

    fn us(v: f64) -> Micros {
        Micros::new(v)
    }

    /// A pipeline where hardware acceleration pays off massively.
    fn fixture() -> (TaskGraph, Architecture) {
        let mut app = TaskGraph::new("pipe");
        let mut prev = None;
        for i in 0..8 {
            let t = app
                .add_task(
                    format!("t{i}"),
                    "F",
                    us(1000.0),
                    vec![
                        HwImpl::new(Clbs::new(80), us(50.0)),
                        HwImpl::new(Clbs::new(160), us(25.0)),
                    ],
                )
                .unwrap();
            if let Some(p) = prev {
                app.add_data_edge(p, t, Bytes::new(500)).unwrap();
            }
            prev = Some(t);
        }
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(400), us(0.5), 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        (app, arch)
    }

    #[test]
    fn explore_beats_all_software() {
        let (app, arch) = fixture();
        let all_sw = app.total_sw_time();
        let out = explore(
            &app,
            &arch,
            &ExploreOptions {
                max_iterations: 6_000,
                warmup_iterations: 1_000,
                seed: 42,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(
            out.evaluation.makespan < all_sw * 0.5,
            "no speedup: {} vs {}",
            out.evaluation.makespan,
            all_sw
        );
        out.mapping.validate(&app, &arch).unwrap();
        // Returned evaluation matches a fresh evaluation of the mapping.
        let fresh = evaluate(&app, &arch, &out.mapping).unwrap();
        assert_eq!(fresh.makespan, out.evaluation.makespan);
    }

    #[test]
    fn explore_is_deterministic_per_seed() {
        let (app, arch) = fixture();
        let opts = ExploreOptions {
            max_iterations: 2_000,
            warmup_iterations: 400,
            seed: 7,
            ..ExploreOptions::default()
        };
        let a = explore(&app, &arch, &opts).unwrap();
        let b = explore(&app, &arch, &opts).unwrap();
        assert_eq!(a.evaluation.makespan, b.evaluation.makespan);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn trace_records_observables() {
        let (app, arch) = fixture();
        let out = explore(
            &app,
            &arch,
            &ExploreOptions {
                max_iterations: 1_000,
                warmup_iterations: 200,
                trace_every: 100,
                seed: 3,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.run.trace.len(), 10);
        let names: Vec<&str> = out.run.trace[0]
            .observables
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert!(names.contains(&"makespan_ms"));
        assert!(names.contains(&"n_contexts"));
    }

    #[test]
    fn undo_restores_cost_exactly() {
        let (app, arch) = fixture();
        let mut rng = StdRng::seed_from_u64(5);
        let initial = random_initial(&app, &arch, &mut rng);
        let mut p = MappingProblem::new(&app, &arch, initial).unwrap();
        for _ in 0..300 {
            let before_cost = p.cost();
            let before_map = p.mapping().clone();
            let class = rng.random_range(0..2);
            if let Some((mv, _)) = p.try_move(&mut rng, class) {
                p.undo(mv);
                assert_eq!(p.cost(), before_cost);
                assert_eq!(p.mapping(), &before_map);
            }
        }
    }

    #[test]
    fn explorer_segments_match_one_shot_explore() {
        let (app, arch) = fixture();
        let opts = ExploreOptions {
            max_iterations: 2_000,
            warmup_iterations: 400,
            seed: 11,
            ..ExploreOptions::default()
        };
        let whole = explore(&app, &arch, &opts).unwrap();
        let mut chain = Explorer::new(&app, &arch, &opts).unwrap();
        for seg in [1u64, 13, 200, 700, 5_000] {
            if !chain.run_segment(seg) {
                break;
            }
        }
        let segmented = chain.into_outcome();
        assert_eq!(
            whole.evaluation.makespan.value().to_bits(),
            segmented.evaluation.makespan.value().to_bits()
        );
        assert_eq!(whole.mapping, segmented.mapping);
        assert_eq!(whole.run.accepted, segmented.run.accepted);
    }

    #[test]
    fn single_chain_portfolio_reproduces_explore() {
        let (app, arch) = fixture();
        let base = ExploreOptions {
            max_iterations: 2_000,
            warmup_iterations: 400,
            seed: 21,
            ..ExploreOptions::default()
        };
        let single = explore(&app, &arch, &base).unwrap();
        let portfolio = explore_parallel(
            &app,
            &arch,
            &ParallelOptions {
                base,
                chains: 1,
                threads: 4,
                exchange_every: 300,
                warm_start: None,
                front_exchange: false,
            },
        )
        .unwrap();
        assert_eq!(portfolio.winner, 0);
        assert_eq!(portfolio.mapping, single.mapping);
        assert_eq!(
            portfolio.evaluation.makespan.value().to_bits(),
            single.evaluation.makespan.value().to_bits()
        );
        assert_eq!(portfolio.chains[0].seed, 21);
    }

    #[test]
    fn portfolio_is_thread_count_invariant() {
        let (app, arch) = fixture();
        let run = |threads: usize| {
            explore_parallel(
                &app,
                &arch,
                &ParallelOptions {
                    base: ExploreOptions {
                        max_iterations: 3_000,
                        warmup_iterations: 600,
                        seed: 5,
                        ..ExploreOptions::default()
                    },
                    chains: 5,
                    threads,
                    exchange_every: 200,
                    warm_start: None,
                    front_exchange: false,
                },
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(b.mapping, c.mapping);
        assert_eq!(a.winner, c.winner);
        assert_eq!(
            a.evaluation.makespan.value().to_bits(),
            c.evaluation.makespan.value().to_bits()
        );
        for (x, y) in a.chains.iter().zip(&c.chains) {
            assert_eq!(x.run.best_cost.to_bits(), y.run.best_cost.to_bits());
            assert_eq!(x.run.accepted, y.run.accepted);
        }
    }

    #[test]
    fn front_exchange_is_thread_count_invariant() {
        let (app, arch) = fixture();
        let run = |threads: usize| {
            explore_parallel(
                &app,
                &arch,
                &ParallelOptions {
                    base: ExploreOptions {
                        max_iterations: 3_000,
                        warmup_iterations: 600,
                        seed: 5,
                        ..ExploreOptions::default()
                    },
                    chains: 5,
                    threads,
                    exchange_every: 200,
                    warm_start: None,
                    front_exchange: true,
                },
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(b.mapping, c.mapping);
        assert_eq!(a.winner, c.winner);
        assert_eq!(
            a.evaluation.makespan.value().to_bits(),
            c.evaluation.makespan.value().to_bits()
        );
        assert_eq!(a.front.len(), c.front.len());
        for (x, y) in a.chains.iter().zip(&c.chains) {
            assert_eq!(x.run.best_cost.to_bits(), y.run.best_cost.to_bits());
            assert_eq!(x.run.accepted, y.run.accepted);
        }
    }

    #[test]
    fn fan_out_panics_its_caller_when_a_chunk_panics() {
        // Item 0 is in the calling thread's chunk, item 7 in the last
        // worker's: either way the caller must panic, not wait.
        for (planted, threads) in [(0, 2), (7, 2), (7, 4)] {
            let outcome = std::panic::catch_unwind(|| {
                let mut items: Vec<u32> = (0..8).collect();
                fan_out(&mut items, threads, |x| assert_ne!(*x, planted), |_| false);
            });
            assert!(outcome.is_err(), "item {planted}, threads = {threads}");
        }
    }

    #[test]
    fn front_exchange_off_is_bit_identical_to_the_default_path() {
        // The flag must be a pure opt-in: an explicit `false` and the
        // historical engine walk the same walk.
        let (app, arch) = fixture();
        let opts = |front_exchange: bool| ParallelOptions {
            base: ExploreOptions {
                max_iterations: 2_000,
                warmup_iterations: 400,
                seed: 9,
                ..ExploreOptions::default()
            },
            chains: 4,
            threads: 2,
            exchange_every: 250,
            warm_start: None,
            front_exchange,
        };
        let off = explore_parallel(&app, &arch, &opts(false)).unwrap();
        let on = explore_parallel(&app, &arch, &opts(true)).unwrap();
        // Off matches itself across repeats (sanity), and the on-path
        // at least converges to a valid solution.
        let off2 = explore_parallel(&app, &arch, &opts(false)).unwrap();
        assert_eq!(off.mapping, off2.mapping);
        assert_eq!(
            off.evaluation.makespan.value().to_bits(),
            off2.evaluation.makespan.value().to_bits()
        );
        on.mapping.validate(&app, &arch).unwrap();
        // The front-aware portfolio never loses the scalar race to a
        // degenerate degree: its winner is still a finite solution at
        // most as bad as any single chain's own best.
        assert!(on
            .chains
            .iter()
            .all(|c| on.evaluation.makespan.value() <= c.evaluation.makespan.value()));
    }

    #[test]
    fn front_exchange_spreads_distinct_members() {
        // With diverse chain bests the assignment hands out *different*
        // front members, not one incumbent: after one exchange the
        // chains' current positions should not all coincide.
        let (app, arch) = fixture();
        let portfolio = explore_parallel(
            &app,
            &arch,
            &ParallelOptions {
                base: ExploreOptions {
                    max_iterations: 4_000,
                    warmup_iterations: 800,
                    seed: 3,
                    ..ExploreOptions::default()
                },
                chains: 4,
                threads: 1,
                exchange_every: 250,
                warm_start: None,
                front_exchange: true,
            },
        )
        .unwrap();
        // The portfolio front survives the member hand-outs and stays
        // mutually non-dominated (ParetoFront invariant), with the
        // winner's vector covered by it.
        let best = CostVector::from_summary(&portfolio.evaluation.summary());
        assert!(portfolio
            .front
            .iter()
            .any(|m| *m == best || m.dominates(&best)));
    }

    #[test]
    fn portfolio_budget_is_split_across_chains() {
        let (app, arch) = fixture();
        let portfolio = explore_parallel(
            &app,
            &arch,
            &ParallelOptions {
                base: ExploreOptions {
                    max_iterations: 1_001,
                    warmup_iterations: 200,
                    seed: 2,
                    ..ExploreOptions::default()
                },
                chains: 4,
                threads: 2,
                exchange_every: 0,
                warm_start: None,
                front_exchange: false,
            },
        )
        .unwrap();
        let iters: u64 = portfolio.chains.iter().map(|c| c.run.iterations).sum();
        assert_eq!(iters, 1_001); // 251 + 250 + 250 + 250
        assert_eq!(portfolio.chains[0].run.iterations, 251);
    }

    #[test]
    fn exchange_spreads_the_incumbent() {
        // With an aggressive exchange period every chain should end at
        // least as good as the worst independent chain would.
        let (app, arch) = fixture();
        let base = ExploreOptions {
            max_iterations: 4_000,
            warmup_iterations: 400,
            seed: 33,
            ..ExploreOptions::default()
        };
        let exchanged = explore_parallel(
            &app,
            &arch,
            &ParallelOptions {
                base: base.clone(),
                chains: 4,
                threads: 2,
                exchange_every: 100,
                warm_start: None,
                front_exchange: false,
            },
        )
        .unwrap();
        let independent = explore_parallel(
            &app,
            &arch,
            &ParallelOptions {
                base,
                chains: 4,
                threads: 2,
                exchange_every: 0,
                warm_start: None,
                front_exchange: false,
            },
        )
        .unwrap();
        exchanged.mapping.validate(&app, &arch).unwrap();
        independent.mapping.validate(&app, &arch).unwrap();
        // Adoption pulls every laggard to the incumbent: no exchanged
        // chain may end worse than the worst independent chain, and at
        // least one must end strictly better (the chain that would
        // have stayed stuck on its own stream).
        let worst = |p: &ParallelOutcome| {
            p.chains
                .iter()
                .map(|c| c.run.best_cost)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        assert!(worst(&exchanged) <= worst(&independent));
        assert!(
            exchanged
                .chains
                .iter()
                .zip(&independent.chains)
                .any(|(e, i)| e.run.best_cost < i.run.best_cost),
            "exchange never improved any chain: {:?} vs {:?}",
            exchanged
                .chains
                .iter()
                .map(|c| c.run.best_cost)
                .collect::<Vec<_>>(),
            independent
                .chains
                .iter()
                .map(|c| c.run.best_cost)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn warm_start_is_deterministic_and_thread_invariant() {
        let (app, arch) = fixture();
        // Any feasible mapping works as a warm seed; use a short cold
        // run's winner like the store's warm path does.
        let donor = explore(
            &app,
            &arch,
            &ExploreOptions {
                max_iterations: 500,
                warmup_iterations: 100,
                seed: 7,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let run = |threads: usize| {
            explore_parallel(
                &app,
                &arch,
                &ParallelOptions {
                    base: ExploreOptions {
                        max_iterations: 2_000,
                        warmup_iterations: 400,
                        seed: 42,
                        ..ExploreOptions::default()
                    },
                    chains: 4,
                    threads,
                    exchange_every: 200,
                    warm_start: Some(WarmStart {
                        mapping: donor.mapping.clone(),
                    }),
                    front_exchange: false,
                },
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.winner, b.winner);
        assert_eq!(
            a.evaluation.makespan.value().to_bits(),
            b.evaluation.makespan.value().to_bits()
        );
        a.mapping.validate(&app, &arch).unwrap();
    }

    #[test]
    fn warm_start_seeds_only_chain_zero() {
        let (app, arch) = fixture();
        let donor = explore(
            &app,
            &arch,
            &ExploreOptions {
                max_iterations: 500,
                warmup_iterations: 100,
                seed: 7,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let run = |warm: Option<WarmStart>| {
            explore_parallel(
                &app,
                &arch,
                &ParallelOptions {
                    base: ExploreOptions {
                        max_iterations: 2_000,
                        warmup_iterations: 400,
                        seed: 42,
                        ..ExploreOptions::default()
                    },
                    chains: 3,
                    threads: 2,
                    // Independent chains: the warm seed must not leak
                    // past chain 0 through exchanges.
                    exchange_every: 0,
                    warm_start: warm,
                    front_exchange: false,
                },
            )
            .unwrap()
        };
        let cold = run(None);
        let warm = run(Some(WarmStart {
            mapping: donor.mapping.clone(),
        }));
        // Chains 1.. are bit-identical to the cold run; only chain 0's
        // trajectory may move.
        for (c, w) in cold.chains.iter().zip(&warm.chains).skip(1) {
            assert_eq!(c.run.best_cost.to_bits(), w.run.best_cost.to_bits());
            assert_eq!(c.run.accepted, w.run.accepted);
            assert_eq!(
                c.evaluation.makespan.value().to_bits(),
                w.evaluation.makespan.value().to_bits()
            );
        }
        warm.mapping.validate(&app, &arch).unwrap();
    }

    #[test]
    fn warm_start_rejects_an_infeasible_mapping() {
        let (app, arch) = fixture();
        let donor = explore(
            &app,
            &arch,
            &ExploreOptions {
                max_iterations: 200,
                warmup_iterations: 50,
                seed: 1,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        // A mapping for a *different* application shape must be turned
        // away at chain construction, not crash mid-search.
        let mut small = TaskGraph::new("tiny");
        small
            .add_task(
                "only",
                "F",
                us(100.0),
                vec![HwImpl::new(Clbs::new(40), us(10.0))],
            )
            .unwrap();
        let err = explore_parallel(
            &small,
            &arch,
            &ParallelOptions {
                base: ExploreOptions::default(),
                chains: 2,
                threads: 1,
                exchange_every: 0,
                warm_start: Some(WarmStart {
                    mapping: donor.mapping,
                }),
                front_exchange: false,
            },
        );
        assert!(err.is_err(), "8-task mapping accepted for a 1-task app");
    }

    #[test]
    fn chain_seed_is_master_for_chain_zero_and_decorrelated_after() {
        assert_eq!(chain_seed(99, 0), 99);
        assert_ne!(chain_seed(99, 1), chain_seed(99, 2));
        assert_ne!(chain_seed(99, 1), 99);
        // Different masters give different streams for the same chain.
        assert_ne!(chain_seed(1, 3), chain_seed(2, 3));
    }

    #[test]
    fn deadline_penalty_objective_orders_solutions() {
        let (app, arch) = fixture();
        let mut rng = StdRng::seed_from_u64(9);
        let m = random_initial(&app, &arch, &mut rng);
        let eval = evaluate(&app, &arch, &m).unwrap();
        let obj = Objective::DeadlinePenalty {
            deadline: Micros::new(1.0), // everything violates
            penalty: 100.0,
            makespan_weight: 1.0,
        };
        let strict = obj.cost_of(&eval.summary());
        let plain = Objective::MinimizeMakespan.cost_of(&eval.summary());
        assert!(strict > plain);
    }

    #[test]
    fn weighted_and_lexicographic_objectives_validate() {
        assert!(Objective::weighted(1.0, 0.0, 0.0).is_ok());
        assert!(Objective::weighted(0.0, 0.0, 0.0).is_err());
        assert!(Objective::weighted(-1.0, 1.0, 0.0).is_err());
        assert!(Objective::weighted(f64::NAN, 1.0, 0.0).is_err());
        assert!(Objective::lexicographic(&[ObjectiveKey::Makespan]).is_ok());
        assert!(Objective::lexicographic(&[]).is_err());
        assert!(Objective::lexicographic(&[ObjectiveKey::ClbArea, ObjectiveKey::ClbArea]).is_err());
    }

    #[test]
    fn explorer_records_a_front_and_its_best_is_represented() {
        let (app, arch) = fixture();
        let out = explore(
            &app,
            &arch,
            &ExploreOptions {
                max_iterations: 2_000,
                warmup_iterations: 400,
                seed: 7,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let front = out.front();
        assert!(!front.is_empty());
        // No member dominates another.
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "front member {a:?} dominates {b:?}");
                }
            }
        }
        // The best (minimum-makespan) solution is on the front.
        let best_mk = out.run.best_objectives.makespan;
        let front_min = front
            .iter()
            .map(|v| v.makespan)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(front_min.to_bits(), best_mk.to_bits());
    }

    #[test]
    fn weighted_objective_changes_the_walk_but_keeps_the_front_valid() {
        let (app, arch) = fixture();
        let base = ExploreOptions {
            max_iterations: 2_000,
            warmup_iterations: 400,
            seed: 13,
            ..ExploreOptions::default()
        };
        let area_heavy = ExploreOptions {
            objective: Objective::weighted(1.0, 50.0, 1.0).unwrap(),
            ..base.clone()
        };
        let plain = explore(&app, &arch, &base).unwrap();
        let weighted = explore(&app, &arch, &area_heavy).unwrap();
        // The weighted run minimizes its own scalarization at least as
        // well as the makespan-only run's solution scores on it.
        let z = area_heavy.objective;
        let weighted_score = z.cost_of(&weighted.evaluation.summary());
        assert!(weighted_score.is_finite());
        // Both runs produce valid mappings.
        plain.mapping.validate(&app, &arch).unwrap();
        weighted.mapping.validate(&app, &arch).unwrap();
    }

    #[test]
    fn lexicographic_objective_walks_on_the_primary_axis() {
        let (app, arch) = fixture();
        let opts = ExploreOptions {
            max_iterations: 1_500,
            warmup_iterations: 300,
            seed: 5,
            objective: Objective::lexicographic(&[ObjectiveKey::Makespan, ObjectiveKey::ClbArea])
                .unwrap(),
            ..ExploreOptions::default()
        };
        let out = explore(&app, &arch, &opts).unwrap();
        out.mapping.validate(&app, &arch).unwrap();
        // The scalar statistics track the primary axis (makespan).
        assert_eq!(
            out.run.best_cost.to_bits(),
            out.run.best_objectives.makespan.to_bits()
        );
        // The front's lexicographic minimum is well-defined.
        let Objective::Lexicographic { order } = opts.objective else {
            unreachable!()
        };
        let min = lexi_min(out.front(), &order).expect("non-empty front");
        assert!(min.makespan <= out.run.best_objectives.makespan);
    }
}
