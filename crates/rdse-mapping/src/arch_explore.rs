//! Architecture exploration — the m3/m4 moves of §4.2.
//!
//! "Moves m3 and m4 would allow the exploration of the system
//! architecture if it were not fixed a priori": drawing the sentinel
//! index 0 for the source requests *resource removal* (m3 — a resource
//! hosting a single task is deleted and its task reassigned), drawing 0
//! for the destination requests *resource creation* (m4 — a new
//! processor, ASIC or DRLC is added and the source task assigned to
//! it). The paper's experiments set the probability of 0 to zero; this
//! module implements the general method of \[11\], where the objective is
//! the system **cost** under a performance constraint.
//!
//! New resources are drawn from a [`ResourceCatalog`] (the component
//! library a system architect would select from); each catalog entry
//! carries the cost used by the objective.

use crate::error::MappingError;
use crate::eval::{evaluate, Evaluation};
use crate::init::{random_initial, require_processor};
use crate::moves::{propose_impl_move, propose_pair_move, MoveScratch};
use crate::placement::Placement;
use crate::solution::Mapping;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rdse_anneal::{Annealer, Cost, LamSchedule, ParetoFront, Problem, RunOptions};
use rdse_model::units::Micros;
use rdse_model::{Architecture, AsicSpec, DrlcSpec, ProcessorSpec, TaskGraph};

/// The cost vector of an architecture × mapping pair: system cost
/// (component prices) against schedule latency — the trade-off the
/// general method of \[11\] explores.
///
/// The third, hidden component is the deadline-penalized scalar the
/// annealer walks on ([`Cost::scalar`]); the Pareto axes are the two
/// visible objectives only, so the recorded front is the cost/
/// performance curve a system architect actually reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchCost {
    /// Total component cost of the architecture.
    pub system_cost: f64,
    /// Makespan of the mapping on it (µs).
    pub makespan: f64,
    /// The penalized scalar objective (cost + deadline penalty +
    /// makespan tie-breaker) — what acceptance minimizes.
    penalized: f64,
}

impl ArchCost {
    /// The penalized scalar the annealer minimizes.
    pub fn penalized(&self) -> f64 {
        self.penalized
    }
}

impl Cost for ArchCost {
    fn n_objectives(&self) -> usize {
        2
    }

    fn objective(&self, i: usize) -> f64 {
        match i {
            0 => self.system_cost,
            1 => self.makespan,
            _ => panic!("ArchCost has 2 objectives, asked for {i}"),
        }
    }

    fn scalar(&self) -> f64 {
        self.penalized
    }
}

/// The component library available to m4 resource-creation moves.
#[derive(Debug, Clone, Default)]
pub struct ResourceCatalog {
    /// Processors that may be instantiated.
    pub processors: Vec<ProcessorSpec>,
    /// Reconfigurable devices that may be instantiated.
    pub drlcs: Vec<DrlcSpec>,
    /// Dedicated circuits that may be instantiated.
    pub asics: Vec<AsicSpec>,
}

impl ResourceCatalog {
    fn n_kinds(&self) -> usize {
        usize::from(!self.processors.is_empty())
            + usize::from(!self.drlcs.is_empty())
            + usize::from(!self.asics.is_empty())
    }
}

/// Options for a cost-driven architecture exploration.
#[derive(Debug, Clone)]
pub struct ArchExploreOptions {
    /// Iteration budget.
    pub max_iterations: u64,
    /// Warm-up iterations at infinite temperature.
    pub warmup_iterations: u64,
    /// Lam quality factor.
    pub lambda: f64,
    /// RNG seed.
    pub seed: u64,
    /// The performance constraint.
    pub deadline: Micros,
    /// Cost units charged per microsecond of deadline violation (keep
    /// large: feasibility first).
    pub penalty_per_micro: f64,
    /// Weight of the raw makespan in the cost (small tie-breaker so
    /// faster solutions win among equal-cost architectures).
    pub makespan_weight: f64,
}

impl Default for ArchExploreOptions {
    fn default() -> Self {
        ArchExploreOptions {
            max_iterations: 20_000,
            warmup_iterations: 2_000,
            lambda: 0.5,
            seed: 0,
            deadline: Micros::new(f64::INFINITY),
            penalty_per_micro: 10.0,
            makespan_weight: 1e-6,
        }
    }
}

/// Outcome of an architecture exploration.
#[derive(Debug, Clone)]
pub struct ArchExploreOutcome {
    /// The selected architecture.
    pub architecture: Architecture,
    /// The mapping on that architecture.
    pub mapping: Mapping,
    /// Its evaluation.
    pub evaluation: Evaluation,
    /// Final objective value.
    pub cost: f64,
    /// Pareto front over (system cost, makespan) of every architecture
    /// × mapping state the walk accepted — the cost/performance curve
    /// of the co-exploration.
    pub front: ParetoFront<ArchCost>,
}

/// The co-exploration problem: architecture × mapping.
#[derive(Debug, Clone)]
pub struct ArchProblem<'a> {
    app: &'a TaskGraph,
    catalog: &'a ResourceCatalog,
    arch: Architecture,
    mapping: Mapping,
    current: Evaluation,
    scratch: MoveScratch,
    opts: ArchExploreOptions,
}

impl<'a> ArchProblem<'a> {
    /// Starts from a given architecture and a random mapping on it.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if no feasible initial mapping exists.
    pub fn new(
        app: &'a TaskGraph,
        initial_arch: Architecture,
        catalog: &'a ResourceCatalog,
        opts: ArchExploreOptions,
    ) -> Result<Self, MappingError> {
        require_processor(&initial_arch)?;
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xA5C4);
        let mapping = random_initial(app, &initial_arch, &mut rng);
        let current = evaluate(app, &initial_arch, &mapping)?;
        Ok(ArchProblem {
            app,
            catalog,
            arch: initial_arch,
            mapping,
            current,
            scratch: MoveScratch::default(),
            opts,
        })
    }

    fn objective(&self, eval: &Evaluation) -> f64 {
        let excess = (eval.makespan.value() - self.opts.deadline.value()).max(0.0);
        self.arch.total_cost()
            + excess * self.opts.penalty_per_micro
            + eval.makespan.value() * self.opts.makespan_weight
    }

    /// The current architecture.
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// Consumes the problem into its outcome parts, attaching the
    /// cost/performance front recorded by the annealer.
    pub fn into_outcome(self, front: ParetoFront<ArchCost>) -> ArchExploreOutcome {
        let cost = self.objective(&self.current);
        ArchExploreOutcome {
            architecture: self.arch,
            mapping: self.mapping,
            evaluation: self.current,
            cost,
            front,
        }
    }

    /// m4: instantiate a random catalog component and move one task
    /// onto it. Returns `false` if nothing could be created.
    fn create_resource(&mut self, rng: &mut dyn RngCore) -> bool {
        if self.catalog.n_kinds() == 0 || self.app.n_tasks() == 0 {
            return false;
        }
        // Rebuild the architecture with one extra component.
        let kind = rng.random_range(0..3usize);
        let mut b = Architecture::builder(self.arch.name().to_owned());
        for p in self.arch.processors() {
            b = b.processor(p.name().to_owned(), p.cost());
        }
        for d in self.arch.drlcs() {
            b = b.drlc(
                d.name().to_owned(),
                d.n_clbs(),
                d.reconfig_time_per_clb(),
                d.cost(),
            );
        }
        for a in self.arch.asics() {
            b = b.asic(a.name().to_owned(), a.cost());
        }
        b = b.bus_rate(self.arch.bus().bytes_per_micro());
        match kind {
            0 if !self.catalog.processors.is_empty() => {
                let spec =
                    &self.catalog.processors[rng.random_range(0..self.catalog.processors.len())];
                b = b.processor(spec.name().to_owned(), spec.cost());
                self.arch = b.build().expect("extended architecture stays valid");
                let p = self.mapping.add_processor_slot();
                // Assign a random task to the new processor.
                let t = rdse_model::TaskId(rng.random_range(0..self.app.n_tasks() as u32));
                self.mapping.detach(t);
                self.mapping.insert_software(t, p, 0);
                true
            }
            1 if !self.catalog.drlcs.is_empty() => {
                let spec = &self.catalog.drlcs[rng.random_range(0..self.catalog.drlcs.len())];
                b = b.drlc(
                    spec.name().to_owned(),
                    spec.n_clbs(),
                    spec.reconfig_time_per_clb(),
                    spec.cost(),
                );
                self.arch = b.build().expect("extended architecture stays valid");
                let d = self.mapping.add_drlc_slot();
                // Assign a random hardware-capable, fitting task.
                let cap = spec.n_clbs();
                let candidates: Vec<rdse_model::TaskId> = self
                    .app
                    .tasks()
                    .filter(|(_, t)| t.hw_impls().iter().any(|i| i.clbs() <= cap))
                    .map(|(id, _)| id)
                    .collect();
                if candidates.is_empty() {
                    return true; // architecture changed; empty device is legal
                }
                let t = candidates[rng.random_range(0..candidates.len())];
                let impls = self.app.task(t).expect("task id in range").hw_impls();
                let fitting: Vec<usize> = (0..impls.len())
                    .filter(|&i| impls[i].clbs() <= cap)
                    .collect();
                let choice = fitting[rng.random_range(0..fitting.len())];
                self.mapping.detach(t);
                self.mapping.insert_new_context(t, d, 0, choice);
                true
            }
            _ if !self.catalog.asics.is_empty() => {
                let spec = &self.catalog.asics[rng.random_range(0..self.catalog.asics.len())];
                b = b.asic(spec.name().to_owned(), spec.cost());
                self.arch = b.build().expect("extended architecture stays valid");
                let a = self.arch.asics().len() - 1;
                let candidates: Vec<rdse_model::TaskId> = self
                    .app
                    .tasks()
                    .filter(|(_, t)| !t.hw_impls().is_empty())
                    .map(|(id, _)| id)
                    .collect();
                if let Some(&t) = candidates.first() {
                    self.mapping.detach(t);
                    self.mapping.insert_asic(t, a);
                }
                true
            }
            _ => false,
        }
    }

    /// m3: remove a resource hosting at most one task, reassigning that
    /// task to processor 0. Returns `false` when no resource can go.
    fn remove_resource(&mut self, rng: &mut dyn RngCore) -> bool {
        // Candidate kinds: extra processors (never processor 0 — the
        // fallback host), DRLCs with ≤ 1 hardware task, ASICs with ≤ 1.
        let mut options: Vec<(usize, usize)> = Vec::new(); // (kind, index)
        for p in 1..self.arch.processors().len() {
            if self.mapping.proc_order(p).len() <= 1 {
                options.push((0, p));
            }
        }
        for d in 0..self.arch.drlcs().len() {
            let n_tasks: usize = self.mapping.contexts(d).iter().map(|c| c.len()).sum();
            if n_tasks <= 1 {
                options.push((1, d));
            }
        }
        for a in 0..self.arch.asics().len() {
            let n_tasks = self
                .app
                .task_ids()
                .filter(|&t| self.mapping.placement(t) == Placement::Asic { asic: a })
                .count();
            if n_tasks <= 1 {
                options.push((2, a));
            }
        }
        let Some(&(kind, idx)) = options.get(rng.random_range(0..options.len().max(1))) else {
            return false;
        };

        // Move the (single) hosted task to processor 0's end.
        let hosted: Vec<rdse_model::TaskId> = self
            .app
            .task_ids()
            .filter(|&t| match (kind, self.mapping.placement(t)) {
                (0, Placement::Software { processor }) => processor == idx,
                (1, Placement::Hardware { drlc, .. }) => drlc == idx,
                (2, Placement::Asic { asic }) => asic == idx,
                _ => false,
            })
            .collect();
        for t in hosted {
            self.mapping.detach(t);
            let end = self.mapping.proc_order(0).len();
            self.mapping.insert_software(t, 0, end);
        }

        // Rebuild the architecture without the component and renumber.
        let mut b = Architecture::builder(self.arch.name().to_owned());
        for (i, p) in self.arch.processors().iter().enumerate() {
            if !(kind == 0 && i == idx) {
                b = b.processor(p.name().to_owned(), p.cost());
            }
        }
        for (i, d) in self.arch.drlcs().iter().enumerate() {
            if !(kind == 1 && i == idx) {
                b = b.drlc(
                    d.name().to_owned(),
                    d.n_clbs(),
                    d.reconfig_time_per_clb(),
                    d.cost(),
                );
            }
        }
        for (i, a) in self.arch.asics().iter().enumerate() {
            if !(kind == 2 && i == idx) {
                b = b.asic(a.name().to_owned(), a.cost());
            }
        }
        b = b.bus_rate(self.arch.bus().bytes_per_micro());
        self.arch = b.build().expect("reduced architecture keeps processor 0");
        match kind {
            0 => self.mapping.remove_processor_slot(idx),
            1 => self.mapping.remove_drlc_slot(idx),
            _ => self.mapping.remove_asic_slot(idx),
        }
        true
    }
}

impl Problem for ArchProblem<'_> {
    type Move = (Architecture, Mapping, Evaluation);
    type Snapshot = (Architecture, Mapping, Evaluation);
    type Cost = ArchCost;

    fn cost(&self) -> ArchCost {
        ArchCost {
            system_cost: self.arch.total_cost(),
            makespan: self.current.makespan.value(),
            penalized: self.objective(&self.current),
        }
    }

    fn n_move_classes(&self) -> usize {
        3
    }

    fn try_move(&mut self, rng: &mut dyn RngCore, class: usize) -> Option<(Self::Move, ArchCost)> {
        let prev = (
            self.arch.clone(),
            self.mapping.clone(),
            self.current.clone(),
        );
        let changed = match class {
            0 => propose_pair_move(
                self.app,
                &self.arch,
                &mut self.mapping,
                rng,
                &mut self.scratch,
            )
            .is_some(),
            1 => propose_impl_move(
                self.app,
                &self.arch,
                &mut self.mapping,
                rng,
                &mut self.scratch,
            )
            .is_some(),
            _ => {
                // m3/m4, drawn with equal probability.
                if rng.random::<bool>() {
                    self.create_resource(rng)
                } else {
                    self.remove_resource(rng)
                }
            }
        };
        if !changed {
            self.arch = prev.0;
            self.mapping = prev.1;
            self.current = prev.2;
            return None;
        }
        match evaluate(self.app, &self.arch, &self.mapping) {
            Ok(eval) => {
                self.current = eval;
                let cost = self.cost();
                Some((prev, cost))
            }
            Err(_) => {
                self.arch = prev.0;
                self.mapping = prev.1;
                self.current = prev.2;
                None
            }
        }
    }

    fn undo(&mut self, mv: Self::Move) {
        self.arch = mv.0;
        self.mapping = mv.1;
        self.current = mv.2;
    }

    fn snapshot(&self) -> Self::Snapshot {
        (
            self.arch.clone(),
            self.mapping.clone(),
            self.current.clone(),
        )
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.arch = snapshot.0.clone();
        self.mapping = snapshot.1.clone();
        self.current = snapshot.2.clone();
    }

    fn observables(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("arch_cost", self.arch.total_cost()),
            ("makespan_ms", self.current.makespan.as_millis()),
            ("n_drlcs", self.arch.drlcs().len() as f64),
            ("n_processors", self.arch.processors().len() as f64),
        ]
    }
}

/// Runs a full cost-driven architecture exploration.
///
/// # Errors
///
/// Returns a [`MappingError`] if the initial architecture admits no
/// feasible mapping.
pub fn explore_architecture(
    app: &TaskGraph,
    initial_arch: Architecture,
    catalog: &ResourceCatalog,
    opts: &ArchExploreOptions,
) -> Result<ArchExploreOutcome, MappingError> {
    let problem = ArchProblem::new(app, initial_arch, catalog, opts.clone())?;
    let schedule = LamSchedule::new(opts.lambda);
    let mut annealer = Annealer::new(
        problem,
        schedule,
        RunOptions {
            max_iterations: opts.max_iterations,
            warmup_iterations: opts.warmup_iterations,
            seed: opts.seed,
            ..RunOptions::default()
        },
    );
    annealer.track_front();
    annealer.run_segment(u64::MAX);
    let (problem, _schedule, run) = annealer.finish();
    let front = run.front.expect("front tracking was enabled above");
    Ok(problem.into_outcome(front))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_model::units::{Bytes, Clbs};
    use rdse_model::HwImpl;

    fn us(v: f64) -> Micros {
        Micros::new(v)
    }

    /// A chain where hardware is the only way to meet a tight deadline.
    fn app() -> TaskGraph {
        let mut app = TaskGraph::new("arch-explore");
        let mut prev = None;
        for i in 0..6 {
            let t = app
                .add_task(
                    format!("t{i}"),
                    "F",
                    us(1_000.0),
                    vec![HwImpl::new(Clbs::new(80), us(50.0))],
                )
                .unwrap();
            if let Some(p) = prev {
                app.add_data_edge(p, t, Bytes::new(64)).unwrap();
            }
            prev = Some(t);
        }
        app
    }

    fn catalog() -> ResourceCatalog {
        ResourceCatalog {
            processors: vec![ProcessorSpec::new("cpu", 10.0)],
            drlcs: vec![DrlcSpec::new("fpga", Clbs::new(600), us(0.5), 40.0)],
            asics: vec![AsicSpec::new("asic", 25.0)],
        }
    }

    fn cpu_fpga() -> Architecture {
        Architecture::builder("start")
            .processor("cpu", 10.0)
            .drlc("fpga", Clbs::new(600), us(0.5), 40.0)
            .bus_rate(64.0)
            .build()
            .unwrap()
    }

    #[test]
    fn loose_deadline_drops_the_expensive_fpga() {
        let app = app();
        let out = explore_architecture(
            &app,
            cpu_fpga(),
            &catalog(),
            &ArchExploreOptions {
                max_iterations: 15_000,
                warmup_iterations: 1_500,
                deadline: Micros::new(100_000.0), // software alone is fine
                seed: 3,
                ..ArchExploreOptions::default()
            },
        )
        .unwrap();
        assert!(out.architecture.drlcs().is_empty(), "kept an unneeded FPGA");
        // The initial system cost 50 (cpu 10 + fpga 40); dropping the
        // FPGA is the big win. The annealer may briefly instantiate an
        // ASIC and freeze before dismantling it, so only require a
        // strict improvement over the start.
        assert!(out.architecture.total_cost() < 50.0);
        out.mapping.validate(&app, &out.architecture).unwrap();
    }

    #[test]
    fn tight_deadline_keeps_hardware() {
        let app = app();
        let out = explore_architecture(
            &app,
            cpu_fpga(),
            &catalog(),
            &ArchExploreOptions {
                max_iterations: 15_000,
                warmup_iterations: 1_500,
                deadline: Micros::new(2_000.0), // impossible in software (6 ms)
                seed: 3,
                ..ArchExploreOptions::default()
            },
        )
        .unwrap();
        assert!(
            !out.architecture.drlcs().is_empty() || !out.architecture.asics().is_empty(),
            "dropped all acceleration under a tight deadline"
        );
        assert!(out.evaluation.makespan <= Micros::new(2_000.0));
    }

    #[test]
    fn moves_keep_architecture_and_mapping_consistent() {
        let app = app();
        let catalog = catalog();
        let mut problem = ArchProblem::new(
            &app,
            cpu_fpga(),
            &catalog,
            ArchExploreOptions {
                deadline: Micros::new(3_000.0),
                seed: 9,
                ..ArchExploreOptions::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..600u32 {
            let class = (step % 3) as usize;
            if let Some((mv, _)) = problem.try_move(&mut rng, class) {
                problem
                    .mapping
                    .validate(&app, &problem.arch)
                    .expect("valid after arch move");
                if step % 4 == 0 {
                    problem.undo(mv);
                    problem
                        .mapping
                        .validate(&app, &problem.arch)
                        .expect("valid after undo");
                }
            }
        }
    }
}
