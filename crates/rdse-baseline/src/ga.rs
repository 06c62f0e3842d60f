//! The genetic-algorithm baseline of Ben Chehida & Auguin \[6\].
//!
//! Chromosome: one gene per task — software, or hardware with an
//! implementation index. Fitness: the deterministic realization (list
//! scheduling + greedy clustering, see [`realize_partition`])
//! projected onto the shared [`CostVector`] axes. Selection is
//! tournament-based with elitism, single-point crossover, per-gene
//! mutation. The published configuration uses a population of 300.
//!
//! Two search modes share the variation operators:
//!
//! * **Scalar** ([`GeneticExplorer::run`] with `nsga2: false`, the
//!   historical default): ranks by makespan alone, bit-identical to
//!   the original single-objective GA. The full cost vectors are still
//!   archived observationally in [`GaOutcome::front`].
//! * **NSGA-II** ([`GeneticExplorer::run_nsga2`], or `run` with
//!   `nsga2: true`): non-dominated sorting + crowding distance over
//!   [`CostVector`], crowded tournament selection and (μ+λ) elitist
//!   environmental selection — the same [`Dominance`] machinery every
//!   other exploration surface uses, so "front" means the same thing
//!   here as in the annealing portfolio.
//!
//! [`Dominance`]: rdse_anneal::Dominance

use crate::list_sched::{realize_partition, SpatialPartition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse_anneal::{crowding_distance, non_dominated_rank, ParetoFront};
use rdse_mapping::{
    evaluate, require_processor, CostVector, Evaluation, Evaluator, Mapping, MappingError,
};
use rdse_model::{Architecture, TaskGraph};
use std::time::{Duration, Instant};

/// GA parameters (defaults follow \[6\] where published).
#[derive(Debug, Clone)]
pub struct GaOptions {
    /// Population size (300 in \[6\]).
    pub population: usize,
    /// Maximum generations.
    pub generations: usize,
    /// Stop early after this many generations without improvement.
    pub stall_generations: usize,
    /// Crossover probability.
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Tournament size.
    pub tournament: usize,
    /// Elite individuals copied unchanged each generation (scalar mode
    /// only — NSGA-II's (μ+λ) environmental selection is already
    /// elitist over the whole parent population).
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
    /// Rank by non-dominated sorting + crowding distance (NSGA-II)
    /// instead of makespan alone. `false` preserves the historical
    /// scalar GA bit for bit.
    pub nsga2: bool,
}

impl Default for GaOptions {
    fn default() -> Self {
        GaOptions {
            population: 300,
            generations: 200,
            stall_generations: 40,
            crossover_rate: 0.9,
            mutation_rate: 0.02,
            tournament: 3,
            elitism: 2,
            seed: 0,
            nsga2: false,
        }
    }
}

/// Result of a GA run.
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// Best mapping found (in NSGA-II mode: the minimum-makespan
    /// member of the final front, for comparability with the scalar
    /// GA).
    pub mapping: Mapping,
    /// Its evaluation.
    pub evaluation: Evaluation,
    /// Generations actually executed.
    pub generations: usize,
    /// Total fitness evaluations.
    pub evaluations: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Best-so-far makespan after each generation (µs) — monotone
    /// non-increasing by construction, for convergence plots. Entry 0
    /// is the initial population's best.
    pub history: Vec<f64>,
    /// Best makespan *within* each generation's population (µs) — the
    /// true per-generation series; unlike [`history`](GaOutcome::history)
    /// it can regress when the population drifts.
    pub generation_best: Vec<f64>,
    /// Pareto archive over the cost vectors of every individual
    /// evaluated during the run. In scalar mode this is observational
    /// (the search still ranks by makespan alone); in NSGA-II mode it
    /// is the front the search itself converged to.
    pub front: ParetoFront<CostVector>,
}

/// The cost vector scored for an individual whose realization fails
/// evaluation: worst on every axis, so it loses every comparison —
/// scalar or dominance — without crashing the run.
fn infeasible_cost() -> CostVector {
    CostVector {
        makespan: f64::INFINITY,
        clb_area: f64::INFINITY,
        reconfig_overhead: f64::INFINITY,
        contexts: f64::INFINITY,
    }
}

/// The GA explorer.
#[derive(Debug, Clone)]
pub struct GeneticExplorer<'a> {
    app: &'a TaskGraph,
    arch: &'a Architecture,
    opts: GaOptions,
}

impl<'a> GeneticExplorer<'a> {
    /// Creates an explorer over the given models.
    pub fn new(app: &'a TaskGraph, arch: &'a Architecture, opts: GaOptions) -> Self {
        GeneticExplorer { app, arch, opts }
    }

    fn random_individual(&self, rng: &mut StdRng) -> SpatialPartition {
        self.app
            .task_ids()
            .map(|t| {
                let task = self.app.task(t).expect("task id in range");
                if task.hw_impls().is_empty() || rng.random::<bool>() {
                    None
                } else {
                    Some(rng.random_range(0..task.hw_impls().len()))
                }
            })
            .collect()
    }

    fn mutate(&self, ind: &mut SpatialPartition, rng: &mut StdRng) {
        for t in self.app.task_ids() {
            if rng.random::<f64>() >= self.opts.mutation_rate {
                continue;
            }
            let task = self.app.task(t).expect("task id in range");
            let gene = &mut ind[t.index()];
            if task.hw_impls().is_empty() {
                *gene = None;
            } else if gene.is_none() {
                *gene = Some(rng.random_range(0..task.hw_impls().len()));
            } else if rng.random::<bool>() {
                *gene = None;
            } else {
                *gene = Some(rng.random_range(0..task.hw_impls().len()));
            }
        }
    }

    fn crossover(
        &self,
        a: &SpatialPartition,
        b: &SpatialPartition,
        rng: &mut StdRng,
    ) -> SpatialPartition {
        if rng.random::<f64>() >= self.opts.crossover_rate || a.len() < 2 {
            return a.clone();
        }
        let cut = rng.random_range(1..a.len());
        a[..cut].iter().chain(&b[cut..]).copied().collect()
    }

    /// Scores one individual through the shared arena-backed evaluator
    /// (summary only — the GA never needs the per-task trace while
    /// evolving). An evaluation error — impossible for realized
    /// partitions on a well-formed architecture, but a degenerate
    /// platform must not crash the search — scores as
    /// [`infeasible_cost`]: worst on every axis instead of a panic.
    fn score(&self, ind: &SpatialPartition, evaluator: &mut Evaluator<'_>) -> CostVector {
        let mapping = realize_partition(self.app, self.arch, ind);
        match evaluator.evaluate(&mapping) {
            Ok(summary) => CostVector::from_summary(&summary),
            Err(_) => infeasible_cost(),
        }
    }

    /// Runs the GA to completion — the scalar makespan walk by
    /// default, NSGA-II when [`GaOptions::nsga2`] is set.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::NoProcessor`] if the architecture has no
    /// processor, and otherwise a [`MappingError`] only if the final best
    /// mapping fails re-evaluation, which would indicate an internal
    /// inconsistency.
    pub fn run(&self) -> Result<GaOutcome, MappingError> {
        require_processor(self.arch)?;
        if self.opts.nsga2 {
            return self.run_nsga2();
        }
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let mut evaluator = Evaluator::new(self.app, self.arch);
        let mut front = ParetoFront::new();
        let mut population: Vec<SpatialPartition> = (0..self.opts.population)
            .map(|_| self.random_individual(&mut rng))
            .collect();
        let mut evaluations = 0u64;
        let score = |ind: SpatialPartition,
                     evaluations: &mut u64,
                     evaluator: &mut Evaluator<'_>,
                     front: &mut ParetoFront<CostVector>| {
            *evaluations += 1;
            let cost = self.score(&ind, evaluator);
            // Observational archive: never touches the RNG stream or
            // the makespan ranking, so the walk stays bit-identical to
            // the historical scalar GA.
            front.insert(cost);
            (cost.makespan, ind)
        };
        let mut scored: Vec<(f64, SpatialPartition)> = population
            .drain(..)
            .map(|ind| score(ind, &mut evaluations, &mut evaluator, &mut front))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut best = scored[0].clone();
        let mut history = vec![best.0];
        let mut generation_best = vec![scored[0].0];
        let mut stall = 0usize;
        let mut generation = 0usize;

        while generation < self.opts.generations && stall < self.opts.stall_generations {
            generation += 1;
            let mut next: Vec<SpatialPartition> = scored
                .iter()
                .take(self.opts.elitism)
                .map(|(_, ind)| ind.clone())
                .collect();
            while next.len() < self.opts.population {
                let pick = |rng: &mut StdRng| {
                    let mut champion = rng.random_range(0..scored.len());
                    for _ in 1..self.opts.tournament {
                        let c = rng.random_range(0..scored.len());
                        if scored[c].0 < scored[champion].0 {
                            champion = c;
                        }
                    }
                    champion
                };
                let a = pick(&mut rng);
                let b = pick(&mut rng);
                let mut child = self.crossover(&scored[a].1, &scored[b].1, &mut rng);
                self.mutate(&mut child, &mut rng);
                next.push(child);
            }
            scored = next
                .drain(..)
                .map(|ind| score(ind, &mut evaluations, &mut evaluator, &mut front))
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Exact comparison: any bitwise improvement counts.
            // An absolute epsilon would be scale-dependent on µs-sized
            // makespans and is at odds with the repo-wide bit-identity
            // discipline.
            if scored[0].0 < best.0 {
                best = scored[0].clone();
                stall = 0;
            } else {
                stall += 1;
            }
            generation_best.push(scored[0].0);
            history.push(best.0);
        }

        let mapping = realize_partition(self.app, self.arch, &best.1);
        let evaluation = evaluate(self.app, self.arch, &mapping)?;
        Ok(GaOutcome {
            mapping,
            evaluation,
            generations: generation,
            evaluations,
            elapsed: start.elapsed(),
            history,
            generation_best,
            front,
        })
    }

    /// Runs the NSGA-II variant: non-dominated sorting + crowding
    /// distance over the full [`CostVector`], crowded tournament
    /// selection ((rank asc, crowding desc), champion kept on ties)
    /// and (μ+λ) elitist environmental selection over parents and
    /// offspring combined.
    ///
    /// The run is deterministic per seed: sorting keys are exact
    /// (`total_cmp` with index tie-breaks) and the only randomness is
    /// the same `StdRng` stream the scalar GA draws from.
    /// [`GaOutcome::mapping`] is the minimum-makespan member of the
    /// final population's first front, so scalar-vs-NSGA-II
    /// comparisons stay apples to apples; the trade-off surface itself
    /// is in [`GaOutcome::front`].
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_nsga2(&self) -> Result<GaOutcome, MappingError> {
        require_processor(self.arch)?;
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let mut evaluator = Evaluator::new(self.app, self.arch);
        let mut front = ParetoFront::new();
        let mut evaluations = 0u64;

        let mut pop: Vec<(CostVector, SpatialPartition)> = (0..self.opts.population)
            .map(|_| {
                let ind = self.random_individual(&mut rng);
                evaluations += 1;
                let cost = self.score(&ind, &mut evaluator);
                front.insert(cost);
                (cost, ind)
            })
            .collect();
        let (mut ranks, mut crowding) = rank_and_crowd(&pop);

        let gen_best = |pop: &[(CostVector, SpatialPartition)]| {
            pop.iter()
                .map(|(c, _)| c.makespan)
                .fold(f64::INFINITY, f64::min)
        };
        let mut best_makespan = gen_best(&pop);
        let mut history = vec![best_makespan];
        let mut generation_best = vec![best_makespan];
        let mut stall = 0usize;
        let mut generation = 0usize;

        while generation < self.opts.generations && stall < self.opts.stall_generations {
            generation += 1;
            // Crowded tournament: lower rank wins, ties go to the less
            // crowded (larger distance); full ties keep the champion.
            let pick = |rng: &mut StdRng, ranks: &[usize], crowding: &[f64]| {
                #[cfg(rdse_fault = "nsga2_tournament_ignores_crowding")]
                let crowding = &vec![0.0; crowding.len()];
                let mut champion = rng.random_range(0..ranks.len());
                for _ in 1..self.opts.tournament {
                    let c = rng.random_range(0..ranks.len());
                    if ranks[c] < ranks[champion]
                        || (ranks[c] == ranks[champion] && crowding[c] > crowding[champion])
                    {
                        champion = c;
                    }
                }
                champion
            };
            let mut offspring: Vec<(CostVector, SpatialPartition)> =
                Vec::with_capacity(self.opts.population);
            while offspring.len() < self.opts.population {
                let a = pick(&mut rng, &ranks, &crowding);
                let b = pick(&mut rng, &ranks, &crowding);
                let mut child = self.crossover(&pop[a].1, &pop[b].1, &mut rng);
                self.mutate(&mut child, &mut rng);
                evaluations += 1;
                let cost = self.score(&child, &mut evaluator);
                front.insert(cost);
                offspring.push((cost, child));
            }

            // (μ+λ) environmental selection over parents ∪ offspring:
            // fill by rank, break the boundary rank by crowding
            // (descending, index ascending) — all exact comparisons.
            let mut combined = pop;
            combined.append(&mut offspring);
            let (c_ranks, c_crowd) = rank_and_crowd(&combined);
            let mut order: Vec<usize> = (0..combined.len()).collect();
            order.sort_by(|&a, &b| {
                c_ranks[a]
                    .cmp(&c_ranks[b])
                    .then(c_crowd[b].total_cmp(&c_crowd[a]))
                    .then(a.cmp(&b))
            });
            order.truncate(self.opts.population);
            // Drain by marking: move selected individuals out in order.
            let mut selected: Vec<Option<(CostVector, SpatialPartition)>> =
                combined.into_iter().map(Some).collect();
            pop = order
                .iter()
                .map(|&i| selected[i].take().expect("selection indices are unique"))
                .collect();
            (ranks, crowding) = rank_and_crowd(&pop);

            let current = gen_best(&pop);
            generation_best.push(current);
            if current < best_makespan {
                best_makespan = current;
                stall = 0;
            } else {
                stall += 1;
            }
            history.push(best_makespan);
        }

        // Winner: the minimum-makespan member of the final first front
        // (ties broken by population index, which is deterministic).
        let winner = pop
            .iter()
            .enumerate()
            .filter(|&(i, _)| ranks[i] == 0)
            .min_by(|(ia, a), (ib, b)| a.0.makespan.total_cmp(&b.0.makespan).then(ia.cmp(ib)))
            .map(|(_, entry)| entry.1.clone())
            .expect("population is non-empty");
        let mapping = realize_partition(self.app, self.arch, &winner);
        let evaluation = evaluate(self.app, self.arch, &mapping)?;
        Ok(GaOutcome {
            mapping,
            evaluation,
            generations: generation,
            evaluations,
            elapsed: start.elapsed(),
            history,
            generation_best,
            front,
        })
    }
}

/// Non-dominated ranks and within-rank crowding distances for a
/// scored population.
fn rank_and_crowd(pop: &[(CostVector, SpatialPartition)]) -> (Vec<usize>, Vec<f64>) {
    let costs: Vec<CostVector> = pop.iter().map(|(c, _)| *c).collect();
    let ranks = non_dominated_rank(&costs);
    let mut crowd = vec![0.0f64; pop.len()];
    let n_ranks = ranks.iter().copied().max().map_or(0, |r| r + 1);
    for r in 0..n_ranks {
        let indices: Vec<usize> = (0..pop.len()).filter(|&i| ranks[i] == r).collect();
        let class: Vec<CostVector> = indices.iter().map(|&i| costs[i]).collect();
        for (k, d) in crowding_distance(&class).into_iter().enumerate() {
            crowd[indices[k]] = d;
        }
    }
    (ranks, crowd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_anneal::Dominance;
    use rdse_workloads::{epicure_architecture, motion_detection_app};

    fn quick_opts(seed: u64) -> GaOptions {
        GaOptions {
            population: 60,
            generations: 40,
            stall_generations: 15,
            seed,
            ..GaOptions::default()
        }
    }

    #[test]
    fn ga_meets_the_constraint_on_motion() {
        let app = motion_detection_app();
        let arch = epicure_architecture(2000);
        let out = GeneticExplorer::new(&app, &arch, quick_opts(1))
            .run()
            .unwrap();
        assert!(
            out.evaluation.makespan.value() < 40_000.0,
            "GA best {} ms",
            out.evaluation.makespan.as_millis()
        );
        out.mapping.validate(&app, &arch).unwrap();
    }

    #[test]
    fn ga_history_is_monotone() {
        let app = motion_detection_app();
        let arch = epicure_architecture(1500);
        let out = GeneticExplorer::new(&app, &arch, quick_opts(3))
            .run()
            .unwrap();
        // Best-so-far is exactly non-increasing — no epsilon slack.
        for w in out.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(out.history.len(), out.generation_best.len());
        // history[g] is the running minimum of generation_best[..=g].
        let mut running = f64::INFINITY;
        for (h, g) in out.history.iter().zip(&out.generation_best) {
            running = running.min(*g);
            assert_eq!(h.to_bits(), running.to_bits());
        }
        assert!(out.evaluations >= 60);
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let app = motion_detection_app();
        let arch = epicure_architecture(1000);
        let a = GeneticExplorer::new(&app, &arch, quick_opts(7))
            .run()
            .unwrap();
        let b = GeneticExplorer::new(&app, &arch, quick_opts(7))
            .run()
            .unwrap();
        assert_eq!(a.evaluation.makespan, b.evaluation.makespan);
        // Bit-level identity of the whole run, not just the final
        // scalar: the winning mapping and every history entry.
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.generations, b.generations);
        assert_eq!(a.evaluations, b.evaluations);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.history), bits(&b.history));
        assert_eq!(bits(&a.generation_best), bits(&b.generation_best));
        assert_eq!(a.front.len(), b.front.len());
    }

    #[test]
    fn ga_survives_a_degenerate_architecture() {
        // Regression for the old `expect("realized partitions are
        // feasible by construction")` panic path: evaluation failures
        // now score as infeasible instead of crashing. A 0-CLB device
        // is rejected by the Architecture builder itself, so the
        // closest constructible edge case is a 1-CLB device where
        // every hardware implementation is oversized and the whole
        // population degenerates to software.
        let app = motion_detection_app();
        let arch = epicure_architecture(1);
        let out = GeneticExplorer::new(&app, &arch, quick_opts(2))
            .run()
            .expect("degenerate architecture must not crash the GA");
        assert!(out.evaluation.makespan.value().is_finite());
        assert_eq!(out.evaluation.n_hw_tasks, 0, "1 CLB fits no impl");
        out.mapping.validate(&app, &arch).unwrap();
        // NSGA-II survives the same degenerate platform.
        let opts = GaOptions {
            nsga2: true,
            ..quick_opts(2)
        };
        let nsga = GeneticExplorer::new(&app, &arch, opts)
            .run()
            .expect("degenerate architecture must not crash NSGA-II");
        assert!(nsga.evaluation.makespan.value().is_finite());
    }

    #[test]
    fn infeasible_scores_lose_every_comparison() {
        let inf = infeasible_cost();
        let app = motion_detection_app();
        let arch = epicure_architecture(1000);
        let mut evaluator = Evaluator::new(&app, &arch);
        let explorer = GeneticExplorer::new(&app, &arch, quick_opts(0));
        let mut rng = StdRng::seed_from_u64(0);
        let ind = explorer.random_individual(&mut rng);
        let feasible = explorer.score(&ind, &mut evaluator);
        assert!(feasible.makespan.is_finite());
        assert!(feasible.dominates(&inf));
        assert!(!inf.dominates(&feasible));
        assert!(feasible.makespan < inf.makespan);
    }

    #[test]
    fn nsga2_is_deterministic_per_seed() {
        let app = motion_detection_app();
        let arch = epicure_architecture(1000);
        let opts = GaOptions {
            nsga2: true,
            ..quick_opts(7)
        };
        let a = GeneticExplorer::new(&app, &arch, opts.clone())
            .run()
            .unwrap();
        let b = GeneticExplorer::new(&app, &arch, opts).run().unwrap();
        assert_eq!(a.evaluation.makespan, b.evaluation.makespan);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.front.members().len(), b.front.members().len());
        for (x, y) in a.front.iter().zip(b.front.iter()) {
            assert_eq!(x.makespan.to_bits(), y.makespan.to_bits());
            assert_eq!(x.clb_area.to_bits(), y.clb_area.to_bits());
        }
    }

    #[test]
    fn nsga2_front_weakly_dominates_the_scalar_point() {
        // The acceptance bar of the NSGA-II port: on the paper's
        // workload the evolved front must cover the scalar GA's single
        // point — some front member at least as good on *every* axis.
        let app = motion_detection_app();
        let arch = epicure_architecture(2000);
        for seed in [1u64, 7, 42] {
            let scalar = GeneticExplorer::new(&app, &arch, quick_opts(seed))
                .run()
                .unwrap();
            let scalar_point = CostVector::from_summary(&scalar.evaluation.summary());
            // Covering a 4-axis front *and* matching the scalar
            // specialist on its own axis takes a bigger evolution
            // budget than the quick scalar run.
            let nsga = GeneticExplorer::new(
                &app,
                &arch,
                GaOptions {
                    nsga2: true,
                    generations: 120,
                    stall_generations: 60,
                    ..quick_opts(seed)
                },
            )
            .run()
            .unwrap();
            assert!(
                nsga.front
                    .iter()
                    .any(|m| m.dominates(&scalar_point) || *m == scalar_point),
                "seed {seed}: no front member covers the scalar point {scalar_point:?}"
            );
        }
    }

    #[test]
    fn nsga2_front_is_spread_across_objectives() {
        // A front, not a point: the motion workload trades makespan
        // against area, so NSGA-II should retain more than one
        // non-dominated solution.
        let app = motion_detection_app();
        let arch = epicure_architecture(2000);
        let out = GeneticExplorer::new(
            &app,
            &arch,
            GaOptions {
                nsga2: true,
                ..quick_opts(5)
            },
        )
        .run()
        .unwrap();
        assert!(
            out.front.len() > 1,
            "front collapsed to {} member(s)",
            out.front.len()
        );
    }
}
