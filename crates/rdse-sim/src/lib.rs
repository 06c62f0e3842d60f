//! Discrete-event execution of mapped solutions.
//!
//! The paper evaluates candidate solutions *statically* (longest path
//! of the search graph with communication latencies "statically
//! evaluated as ordered transactions", §3.2). This crate provides the
//! dynamic counterpart the original authors ran on their testbed: an
//! event-driven simulator that executes a [`Mapping`](rdse_mapping::Mapping) cycle-accurately
//! at the task level —
//!
//! * each processor runs its tasks sequentially in the imposed total
//!   order, a task starting only when its input data has arrived;
//! * each reconfigurable device runs its contexts in order, paying
//!   `tR·nCLB` of reconfiguration between contexts (and before the
//!   first), tasks inside a context executing with maximal parallelism;
//! * cross-device data transfers occupy the shared bus, which can be
//!   simulated as an exclusive FIFO resource (contention modelled) or
//!   as contention-free (the paper's static assumption).
//!
//! In contention-free mode the simulated makespan provably equals the
//! analytic longest path; with an exclusive bus it can only be larger.
//! Both properties are exercised by this crate's tests, which is the
//! point: the simulator validates the evaluator. It therefore shares no
//! code with the analytic model on a successful run: structure and
//! capacity are checked with [`Mapping::validate`](rdse_mapping::Mapping::validate),
//! and [`rdse_mapping::evaluate`] is consulted only after a deadlock, to
//! report it as the same [`MappingError`](rdse_mapping::MappingError)
//! the analytic model gives. Per-task adjacency replaces edge-list
//! scans, so a run costs O((n + E) log(n + E)) for n tasks and E edges,
//! the log factor being the event heap's.
//!
//! # Examples
//!
//! ```
//! use rdse_sim::{simulate, SimConfig};
//! use rdse_mapping::{evaluate, random_initial};
//! use rdse_workloads::{epicure_architecture, motion_detection_app};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = motion_detection_app();
//! let arch = epicure_architecture(2000);
//! let mut rng = StdRng::seed_from_u64(1);
//! let mapping = random_initial(&app, &arch, &mut rng);
//!
//! let analytic = evaluate(&app, &arch, &mapping)?;
//! let report = simulate(&app, &arch, &mapping, &SimConfig::contention_free())?;
//! assert!((report.makespan.value() - analytic.makespan.value()).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod des;
pub mod event;

pub use des::{simulate, SimConfig, SimReport};
pub use event::{SimEvent, SimEventKind};
