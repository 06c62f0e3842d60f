//! Adaptive simulated annealing with the Lam cooling schedule.
//!
//! This crate implements the search engine of the DATE'05 paper
//! (Miramond & Delosme, §4.1): a local-search method based on simulated
//! annealing whose cooling schedule is *adaptive* in the sense of Lam —
//! the inverse temperature is raised at the fastest rate compatible with
//! keeping the system in quasi-equilibrium, driven by running statistics
//! (mean, variance, acceptance ratio) of the cost function. The engine
//! is problem-agnostic: anything implementing [`Problem`] can be
//! annealed, mirroring the paper's object-oriented tool design.
//!
//! Three schedules are provided:
//!
//! * [`LamSchedule`] — the adaptive schedule (the paper's method);
//! * [`GeometricSchedule`] — classic fixed-rate cooling, for ablations;
//! * [`InfiniteTemperature`] — pure random walk, used both for the
//!   warm-up phase visible in Fig. 2 of the paper and as a baseline.
//!
//! # Multi-objective costs
//!
//! A problem's cost is an associated [`Cost`] type — plain `f64` for
//! single-objective problems, a compact vector of minimized axes for
//! multi-objective ones. Acceptance always walks on a scalarized view
//! ([`Scalarizer`]: [`DefaultScalar`] or a problem's own projection)
//! while the engine records the full vectors, and
//! [`Annealer::track_front`] archives every accepted vector in a
//! shared [`ParetoFront`] — the trade-off surface survives whatever
//! the scalarization collapses. The default configuration (`f64` cost,
//! [`DefaultScalar`]) is bit-identical to the historical scalar
//! engine.
//!
//! # Examples
//!
//! ```
//! use rdse_anneal::{anneal, LamSchedule, Problem, RunOptions};
//! use rdse_anneal::problems::continuous::Sphere;
//!
//! let mut problem = Sphere::new(4, 5.0, 42);
//! let mut schedule = LamSchedule::new(1.0);
//! let result = anneal(
//!     &mut problem,
//!     &mut schedule,
//!     &RunOptions { max_iterations: 20_000, seed: 7, ..RunOptions::default() },
//! );
//! assert!(result.best_cost < 1.0);
//! ```

pub mod controller;
pub mod cost;
pub mod pareto;
pub mod problem;
pub mod problems;
pub mod runner;
pub mod schedule;
pub mod stats;

pub use controller::MoveClassController;
pub use cost::{Cost, DefaultScalar, Scalarizer};
pub use pareto::{crowding_distance, hypervolume, non_dominated_rank, Dominance, ParetoFront};
pub use problem::Problem;
pub use runner::{anneal, Annealer, RunOptions, RunResult, StopReason, TracePoint};
pub use schedule::{GeometricSchedule, InfiniteTemperature, LamSchedule, Schedule};
pub use stats::{Ewma, EwmaMoments, OnlineStats};
