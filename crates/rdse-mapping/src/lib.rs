//! Spatio-temporal mapping of task graphs onto dynamically
//! reconfigurable architectures — the core contribution of the DATE'05
//! paper (Miramond & Delosme).
//!
//! A [`Mapping`] simultaneously fixes the four coupled decisions of
//! §3.3:
//!
//! 1. **spatial partitioning** — every task is placed on a processor,
//!    in an FPGA context, or on an ASIC ([`Placement`]);
//! 2. **temporal partitioning** — hardware tasks are grouped into
//!    run-time [`Context`]s bounded by the device CLB capacity;
//! 3. **scheduling** — a total order per processor and a globally
//!    total, locally partial (GTLP) order on each reconfigurable
//!    device;
//! 4. **implementation selection** — each hardware task uses one of its
//!    area–time Pareto implementations.
//!
//! [`evaluate`] scores a mapping by building the search graph *G′* =
//! base precedence ∪ `Esw` ∪ `Ehw` (§3.3/§4.3) and taking its longest
//! path (§4.4); [`MappingProblem`] exposes the moves of §4.2 to the
//! adaptive simulated annealing engine of [`rdse_anneal`]; and
//! [`explore`] runs the whole tool: random initial solution, warm-up at
//! infinite temperature, adaptive cooling, best solution returned.
//!
//! The annealing hot path runs on the **incremental evaluation
//! engine**: the arena-backed [`Evaluator`] re-scores candidates
//! without allocating (returning the `Copy` scalar [`EvalSummary`];
//! the heavyweight per-task [`Evaluation`] trace is computed on demand
//! for reports), and each move carries a compact reverse
//! [`MoveDelta`] so rejection undoes only the touched assignment. The
//! engine is bit-identical to the from-scratch [`evaluate`] — same
//! makespans, same walks, same golden-seed mappings (see
//! [`evaluator`] for the determinism argument).
//!
//! Costs are **multi-objective**: every candidate's [`CostVector`]
//! (makespan, peak CLB area, reconfiguration overhead, context count)
//! is derived from the summary the evaluator already computes, the
//! [`Objective`] scalarizes it for acceptance (makespan-only by
//! default; weighted and lexicographic variants for trade-off
//! studies), and each chain archives its accepted vectors in the
//! shared [`ParetoFront`] — returned per chain and merged across the
//! portfolio by [`explore_parallel`]. See [`cost`] for the axis
//! definitions.
//!
//! # Examples
//!
//! ```
//! use rdse_mapping::{explore, ExploreOptions};
//! use rdse_model::{Architecture, TaskGraph, HwImpl};
//! use rdse_model::units::{Bytes, Clbs, Micros};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut app = TaskGraph::new("tiny");
//! let a = app.add_task("a", "FIR", Micros::new(800.0), vec![
//!     HwImpl::new(Clbs::new(100), Micros::new(40.0)),
//! ])?;
//! let b = app.add_task("b", "DCT", Micros::new(900.0), vec![
//!     HwImpl::new(Clbs::new(150), Micros::new(50.0)),
//! ])?;
//! app.add_data_edge(a, b, Bytes::new(1024))?;
//!
//! let arch = Architecture::builder("soc")
//!     .processor("cpu", 1.0)
//!     .drlc("fpga", Clbs::new(400), Micros::new(2.0), 1.0)
//!     .bus_rate(100.0)
//!     .build()?;
//!
//! let outcome = explore(&app, &arch, &ExploreOptions {
//!     max_iterations: 3_000,
//!     seed: 1,
//!     ..ExploreOptions::default()
//! })?;
//! assert!(outcome.evaluation.makespan.value() <= 1700.0);
//! # Ok(())
//! # }
//! ```

pub mod arch_explore;
pub mod cost;
pub mod error;
pub mod eval;
pub mod evaluator;
pub mod explorer;
pub mod init;
pub mod moves;
pub mod placement;
pub mod schedule;
pub mod searchgraph;
pub mod solution;

pub use arch_explore::{
    explore_architecture, ArchCost, ArchExploreOptions, ArchExploreOutcome, ArchProblem,
    ResourceCatalog,
};
pub use cost::{CostVector, ObjectiveKey};
pub use error::MappingError;
pub use eval::{evaluate, EvalBreakdown, EvalSummary, Evaluation};
pub use evaluator::{Evaluator, EvaluatorStats};
pub use explorer::{
    chain_seed, explore, explore_parallel, explore_parallel_observed, lexi_min, ChainStats,
    ExploreOptions, ExploreOutcome, Explorer, MappingMove, MappingProblem, Objective,
    ParallelOptions, ParallelOutcome, SegmentUpdate, WarmStart,
};
pub use init::{random_initial, require_processor};
pub use moves::{MoveDelta, MoveKind, MoveOutcome, MoveScratch};
pub use placement::{Placement, ResourceRef};
// The shared multi-objective vocabulary, re-exported so downstream
// layers (corpus, CLI, examples) speak one Pareto language.
pub use rdse_anneal::{
    crowding_distance, hypervolume, non_dominated_rank, Cost, Dominance, ParetoFront, Scalarizer,
};
pub use schedule::{BusTransfer, GanttChart, ReconfigSlot, TaskSlot};
pub use searchgraph::SearchGraph;
pub use solution::{Context, Mapping};
