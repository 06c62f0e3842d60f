//! # rdse — design-space exploration for dynamically reconfigurable architectures
//!
//! A production-quality reproduction of *Miramond & Delosme, "Design
//! space exploration for dynamically reconfigurable architectures",
//! DATE 2005*: a tool that maps task-graph applications onto
//! processor + FPGA systems by **simultaneously** exploring HW/SW
//! spatial partitioning, temporal partitioning into run-time contexts,
//! scheduling, and per-task implementation selection, with an adaptive
//! (Lam-schedule) simulated annealing engine.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | DAG substrate: precedence `Digraph`, CSR `DenseDag` with an incrementally maintained longest path and topological order, linear-extension counting |
//! | [`anneal`] | adaptive simulated annealing (Lam schedule), move-class controller with an optional deterministic UCB operator bandit, Pareto utilities (non-dominated rank, crowding distance, hypervolume), test problems |
//! | [`model`] | task graphs with area–time Pareto implementations; architectures (processor / DRLC / ASIC / bus) |
//! | [`mapping`] | the paper's core: solutions, search graph, moves m1–m5, evaluation, Gantt schedules, the resumable explorer and the parallel portfolio engine (`Explorer`, `explore_parallel`) |
//! | [`sim`] | discrete-event executor validating the analytic cost model |
//! | [`baseline`] | GA (Ben Chehida & Auguin style; scalar or NSGA-II selection), random search, hill climbing |
//! | [`workloads`] | the 28-task motion-detection benchmark, Fig. 1 example, random DAG generators |
//! | [`corpus`] | scenario families (workload × architecture), batch runner, four-way differential verification oracle |
//! | [`serve`] | long-running exploration service: framed RPC + HTTP transports, one thread per shard with its own job queue and model cache, streaming Pareto-front updates |
//! | [`store`] | persistent result store: content-addressed append-only archive with exact/dominated O(lookup) answers and warm-start seeding |
//!
//! ## Quickstart
//!
//! ```
//! use rdse::mapping::{explore, ExploreOptions};
//! use rdse::workloads::{epicure_architecture, motion_detection_app, MOTION_DEADLINE};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = motion_detection_app();          // 28 tasks, 76.4 ms in software
//! let arch = epicure_architecture(2000);     // ARM922 + 2000-CLB Virtex-E
//!
//! let outcome = explore(&app, &arch, &ExploreOptions {
//!     max_iterations: 5_000,
//!     warmup_iterations: 1_200,              // the Fig. 2 protocol
//!     seed: 1,
//!     ..ExploreOptions::default()
//! })?;
//!
//! assert!(outcome.evaluation.makespan <= MOTION_DEADLINE);
//! println!(
//!     "{} in {} contexts",
//!     outcome.evaluation.makespan,
//!     outcome.evaluation.n_contexts
//! );
//! # Ok(())
//! # }
//! ```
//!
//! ## Parallel portfolio exploration
//!
//! [`mapping::explore_parallel`] runs K annealing chains across worker
//! threads with per-chain RNG streams (SplitMix64 on `seed ^ chain`)
//! and periodic best-solution exchange at deterministic segment
//! barriers. For a fixed `(seed, chains)` the result is bit-identical
//! regardless of the thread count; the total iteration budget is split
//! evenly across chains so portfolio and single-chain runs compare at
//! equal cost:
//!
//! ```
//! use rdse::mapping::{explore_parallel, ExploreOptions, ParallelOptions};
//! use rdse::workloads::{epicure_architecture, motion_detection_app};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = motion_detection_app();
//! let arch = epicure_architecture(2000);
//! let portfolio = explore_parallel(&app, &arch, &ParallelOptions {
//!     base: ExploreOptions { max_iterations: 2_000, warmup_iterations: 400,
//!                            seed: 1, ..ExploreOptions::default() },
//!     chains: 4,
//!     threads: 0, // all cores; never changes the result
//!     exchange_every: 250,
//!     warm_start: None, // opt-in archive seeding; None = bit-identical cold run
//!     front_exchange: false, // opt-in diversity injection from the portfolio front
//! })?;
//! assert_eq!(portfolio.chains.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `rdse-bench` for the
//! binaries regenerating every figure and table of the paper.

pub use rdse_anneal as anneal;
pub use rdse_baseline as baseline;
pub use rdse_corpus as corpus;
pub use rdse_graph as graph;
pub use rdse_mapping as mapping;
pub use rdse_model as model;
pub use rdse_serve as serve;
pub use rdse_sim as sim;
pub use rdse_store as store;
pub use rdse_workloads as workloads;
