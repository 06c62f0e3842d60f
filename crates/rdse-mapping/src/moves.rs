//! The annealing moves of §4.2.
//!
//! A move is defined by randomly selecting a source task `vs` and a
//! destination task `vd`:
//!
//! * **m1** — same resource, processor type: modify the total execution
//!   order (move `vs` immediately before `vd`). On an ASIC or a context
//!   no move is performed (their orders are partial, not total).
//! * **m2** — different resources: reassign `vs` to the resource of
//!   `vd`. When the destination is a context and the capacity `NCLB`
//!   would be exceeded, a new context is spawned right after it. A
//!   resource that hosts no task is never a destination (only the
//!   first DRLC is re-seeded, by [`propose_impl_move`]), and
//!   [`random_initial`](crate::init::random_initial) seeds only
//!   processor 0 and the first DRLC, so a search started there never
//!   uses a second processor, a second DRLC or an ASIC.
//! * **m3/m4** — resource removal/creation for architecture
//!   exploration, selected by drawing the sentinel index 0; the paper's
//!   experiments set the probability of 0 to zero (fixed architecture).
//!   The explorer never draws them; they live in
//!   [`crate::arch_explore`], which anneals the architecture jointly
//!   with the mapping and scores every step from scratch.
//! * **m5** — implementation selection: §5 notes that "during
//!   exploration, SA chooses for each node implemented in hardware one
//!   of its implementations"; this is exposed as a second move class.
//!
//! All functions mutate the mapping in place and return a description
//! of what changed — including a compact reverse [`MoveDelta`] that
//! undoes the move in O(touched) — or `None` (leaving the mapping
//! untouched) when the sampled move is structurally impossible.
//! Precedence feasibility of the result is judged afterwards by the
//! evaluator's cycle check, as in §4.3.

use crate::placement::{Placement, ResourceRef};
use crate::solution::Mapping;
use rand::{Rng, RngCore};
use rdse_model::{Architecture, TaskGraph, TaskId};

/// A record of an applied move (for statistics and debugging; undo is
/// delta-based via [`MoveOutcome::delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// m1 — `task` re-inserted immediately before `before` in its
    /// processor's total order.
    ReorderSoftware {
        /// The moved task.
        task: TaskId,
        /// The task it was re-inserted before.
        before: TaskId,
    },
    /// m2 — `task` reassigned to `dest`.
    Reassign {
        /// The moved task.
        task: TaskId,
        /// The resource it now occupies.
        dest: ResourceRef,
        /// Whether a fresh context had to be spawned for it.
        spawned_context: bool,
    },
    /// m5 — hardware implementation of `task` switched.
    SelectImplementation {
        /// The re-implemented task.
        task: TaskId,
        /// Previous implementation index.
        from: usize,
        /// New implementation index.
        to: usize,
    },
}

/// Outcome of a proposal: what was done and how to reverse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveOutcome {
    /// The applied move.
    pub kind: MoveKind,
    /// Compact reverse record; [`MoveDelta::undo`] restores the mapping
    /// bit-identically to its pre-move state in O(touched).
    pub delta: MoveDelta,
}

/// The compact reverse record of one applied move: only the touched
/// task→slot (or task→implementation) assignment, not a clone of the
/// whole [`Mapping`].
///
/// The contract mirrors the snapshot-based undo it replaces, exactly:
/// applying a proposal and then [`MoveDelta::undo`] leaves the mapping
/// **bit-identical** (including processor-order positions and the slot
/// of the task inside its context's task list) to a clone taken before
/// the proposal. Property tests in `tests/proptests.rs` enforce this
/// for random move sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveDelta(DeltaKind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeltaKind {
    /// The task was detached from `prev` and re-inserted elsewhere
    /// (m1/m2 and the hardware-seed move).
    Relocate { task: TaskId, prev: PrevSlot },
    /// The task switched hardware implementation (m5).
    Reimplement { task: TaskId, prev_impl: usize },
}

impl MoveDelta {
    /// Reverses the move this delta was returned with. Cost is
    /// O(touched): one detach plus one positional re-insert (or one
    /// implementation write), never a full-mapping restore.
    ///
    /// Only valid on the mapping state the move produced — deltas do
    /// not compose out of order.
    pub fn undo(self, mapping: &mut Mapping) {
        match self.0 {
            DeltaKind::Relocate { task, prev } => {
                mapping.detach(task);
                prev.reinstate(mapping, task);
            }
            DeltaKind::Reimplement { task, prev_impl } => {
                if !cfg!(rdse_fault = "undo_wrong_impl") {
                    mapping.select_impl(task, prev_impl);
                }
            }
        }
    }

    /// The task the move touched.
    pub fn task(self) -> TaskId {
        match self.0 {
            DeltaKind::Relocate { task, .. } | DeltaKind::Reimplement { task, .. } => task,
        }
    }
}

/// Reusable scratch buffers for the proposal functions, so steady-state
/// move generation performs no heap allocation. One instance lives in
/// the explorer's problem state and is threaded through every proposal.
#[derive(Debug, Clone, Default)]
pub struct MoveScratch {
    /// Candidate task ids (hardware tasks, seedable tasks, ...).
    tasks: Vec<TaskId>,
    /// Candidate implementation indices.
    impls: Vec<usize>,
}

/// Draws `(vs, vd)` and applies the corresponding m1/m2 move.
///
/// Returns `None` (mapping unchanged) when the draw is a no-op: equal
/// tasks, same-context/ASIC pairs (m1 is processor-only), or a
/// hardware destination for a task with no hardware implementation.
pub fn propose_pair_move(
    app: &TaskGraph,
    arch: &Architecture,
    mapping: &mut Mapping,
    rng: &mut dyn RngCore,
    scratch: &mut MoveScratch,
) -> Option<MoveOutcome> {
    let n = app.n_tasks();
    if n < 2 {
        return None;
    }
    let vs = TaskId(rng.random_range(0..n as u32));
    let vd = TaskId(rng.random_range(0..n as u32));
    if vs == vd {
        return None;
    }
    let rs = mapping.resource(vs);
    let rd = mapping.resource(vd);

    if rs == rd {
        // m1: only processors have a total order to permute.
        let ResourceRef::Processor(p) = rs else {
            return None;
        };
        let prev = PrevSlot::capture(mapping, vs);
        mapping.detach(vs);
        let pos = mapping
            .proc_order(p)
            .iter()
            .position(|&t| t == vd)
            .expect("vd still on processor after detaching vs");
        mapping.insert_software(vs, p, pos);
        return Some(MoveOutcome {
            kind: MoveKind::ReorderSoftware {
                task: vs,
                before: vd,
            },
            delta: MoveDelta(DeltaKind::Relocate { task: vs, prev }),
        });
    }

    // m2: reassign vs to vd's resource. Detach first; vd's placement is
    // re-read afterwards because context indices may shift when vs's
    // old context becomes empty and disappears.
    match rd {
        ResourceRef::Processor(_) => {
            let prev = PrevSlot::capture(mapping, vs);
            mapping.detach(vs);
            let ResourceRef::Processor(p) = mapping.resource(vd) else {
                unreachable!("vd's resource kind cannot change on detach of vs")
            };
            let pos = mapping
                .proc_order(p)
                .iter()
                .position(|&t| t == vd)
                .expect("vd present in its processor order");
            // Insert before or after vd with equal probability; the
            // paper's examples insert before, the coin improves mixing.
            let pos = if rng.random::<bool>() { pos } else { pos + 1 };
            mapping.insert_software(vs, p, pos);
            Some(MoveOutcome {
                kind: MoveKind::Reassign {
                    task: vs,
                    dest: ResourceRef::Processor(p),
                    spawned_context: false,
                },
                delta: MoveDelta(DeltaKind::Relocate { task: vs, prev }),
            })
        }
        ResourceRef::Context { .. } => {
            let impls = app.task(vs).expect("task id in range").hw_impls();
            if impls.is_empty() {
                return None;
            }
            // Record vs's exact slot: the delta needs it, and the rare
            // bail-out path below restores it to honour the "None
            // leaves the mapping unchanged" contract.
            let prev = PrevSlot::capture(mapping, vs);
            mapping.detach(vs);
            let ResourceRef::Context { drlc, context } = mapping.resource(vd) else {
                unreachable!("vd's resource kind cannot change on detach of vs")
            };
            let capacity = arch.drlcs()[drlc].n_clbs();
            let used = mapping.context_clbs(app, drlc, context);
            let headroom = capacity.saturating_sub(used);
            // Join vd's context with an implementation that fits the
            // residual capacity; spawn a new context right after it on
            // overflow (§4.3's rule). A new context is also spawned
            // with probability 1/4 even when the task would fit —
            // contexts are resources (§3.3), and Fig. 2 shows the
            // context count *growing* during refinement at 2 000 CLBs,
            // which requires context creation without capacity
            // pressure (temporal partitioning exploration).
            let spawn_anyway = rng.random::<f64>() < 0.25;
            scratch.impls.clear();
            scratch
                .impls
                .extend((0..impls.len()).filter(|&i| impls[i].clbs() <= headroom));
            if !scratch.impls.is_empty() && !spawn_anyway {
                let choice = scratch.impls[rng.random_range(0..scratch.impls.len())];
                mapping.insert_hardware(vs, drlc, context, choice);
                Some(MoveOutcome {
                    kind: MoveKind::Reassign {
                        task: vs,
                        dest: ResourceRef::Context { drlc, context },
                        spawned_context: false,
                    },
                    delta: MoveDelta(DeltaKind::Relocate { task: vs, prev }),
                })
            } else {
                scratch.impls.clear();
                scratch
                    .impls
                    .extend((0..impls.len()).filter(|&i| impls[i].clbs() <= capacity));
                if scratch.impls.is_empty() {
                    // Task does not fit the device at all: restore.
                    prev.reinstate(mapping, vs);
                    return None;
                }
                let choice = scratch.impls[rng.random_range(0..scratch.impls.len())];
                mapping.insert_new_context(vs, drlc, context + 1, choice);
                Some(MoveOutcome {
                    kind: MoveKind::Reassign {
                        task: vs,
                        dest: ResourceRef::Context {
                            drlc,
                            context: context + 1,
                        },
                        spawned_context: true,
                    },
                    delta: MoveDelta(DeltaKind::Relocate { task: vs, prev }),
                })
            }
        }
        ResourceRef::Asic(a) => {
            if app
                .task(vs)
                .expect("task id in range")
                .hw_impls()
                .is_empty()
            {
                return None;
            }
            let prev = PrevSlot::capture(mapping, vs);
            mapping.detach(vs);
            mapping.insert_asic(vs, a);
            Some(MoveOutcome {
                kind: MoveKind::Reassign {
                    task: vs,
                    dest: ResourceRef::Asic(a),
                    spawned_context: false,
                },
                delta: MoveDelta(DeltaKind::Relocate { task: vs, prev }),
            })
        }
    }
}

/// Applies an m5 implementation-selection move to a random hardware
/// task.
///
/// When *no* task is in hardware the move class instead proposes
/// seeding the first DRLC with a random hardware-capable task in a
/// fresh context — without this, a solution that drifts to all-software
/// could never rediscover the FPGA, since m2 needs a destination task
/// that already occupies a context (the resource-creation role of the
/// paper's m4, restricted to contexts).
///
/// Returns `None` when no hardware task has an alternative
/// implementation that fits its context's residual capacity (or, in
/// the seeding case, when nothing fits the device).
pub fn propose_impl_move(
    app: &TaskGraph,
    arch: &Architecture,
    mapping: &mut Mapping,
    rng: &mut dyn RngCore,
    scratch: &mut MoveScratch,
) -> Option<MoveOutcome> {
    scratch.tasks.clear();
    scratch.tasks.extend(mapping.hw_tasks());
    if scratch.tasks.is_empty() {
        return propose_hw_seed(app, arch, mapping, rng, scratch);
    }
    let task = scratch.tasks[rng.random_range(0..scratch.tasks.len())];
    let Placement::Hardware {
        drlc,
        context,
        hw_impl,
    } = mapping.placement(task)
    else {
        unreachable!("hw_tasks yields hardware placements")
    };
    let impls = app.task(task).expect("task id in range").hw_impls();
    if impls.len() < 2 {
        return None;
    }
    let capacity = arch.drlcs()[drlc].n_clbs();
    let used_without = mapping
        .context_clbs(app, drlc, context)
        .saturating_sub(impls[hw_impl].clbs());
    scratch.impls.clear();
    scratch.impls.extend(
        (0..impls.len()).filter(|&i| i != hw_impl && used_without + impls[i].clbs() <= capacity),
    );
    if scratch.impls.is_empty() {
        return None;
    }
    let to = scratch.impls[rng.random_range(0..scratch.impls.len())];
    mapping.select_impl(task, to);
    Some(MoveOutcome {
        kind: MoveKind::SelectImplementation {
            task,
            from: hw_impl,
            to,
        },
        delta: MoveDelta(DeltaKind::Reimplement {
            task,
            prev_impl: hw_impl,
        }),
    })
}

/// Seeds the first DRLC with one random hardware-capable task (see
/// [`propose_impl_move`]).
fn propose_hw_seed(
    app: &TaskGraph,
    arch: &Architecture,
    mapping: &mut Mapping,
    rng: &mut dyn RngCore,
    scratch: &mut MoveScratch,
) -> Option<MoveOutcome> {
    let drlc = 0;
    let capacity = arch.drlcs().first()?.n_clbs();
    scratch.tasks.clear();
    scratch.tasks.extend(
        app.tasks()
            .filter(|(_, t)| t.hw_impls().iter().any(|i| i.clbs() <= capacity))
            .map(|(id, _)| id),
    );
    if scratch.tasks.is_empty() {
        return None;
    }
    let task = scratch.tasks[rng.random_range(0..scratch.tasks.len())];
    let impls = app.task(task).expect("task id in range").hw_impls();
    scratch.impls.clear();
    scratch
        .impls
        .extend((0..impls.len()).filter(|&i| impls[i].clbs() <= capacity));
    let choice = scratch.impls[rng.random_range(0..scratch.impls.len())];
    let prev = PrevSlot::capture(mapping, task);
    mapping.detach(task);
    mapping.insert_new_context(task, drlc, 0, choice);
    Some(MoveOutcome {
        kind: MoveKind::Reassign {
            task,
            dest: ResourceRef::Context { drlc, context: 0 },
            spawned_context: true,
        },
        delta: MoveDelta(DeltaKind::Relocate { task, prev }),
    })
}

/// The exact slot a task occupied before a detach, sufficient to put it
/// back verbatim — the payload of a [`MoveDelta`] relocation and the
/// restore record of a proposal that must bail out after detaching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrevSlot {
    Software {
        processor: usize,
        position: usize,
    },
    /// The task shared its context with others; `slot` is its exact
    /// index in the context's task list, so re-insertion keeps the list
    /// bit-identical to the pre-move state.
    HardwareShared {
        drlc: usize,
        context: usize,
        hw_impl: usize,
        slot: usize,
    },
    /// The task was alone: detaching deleted the context, so undo
    /// re-creates it at the original index (renumbering is exactly
    /// inverse to the deletion's).
    HardwareAlone {
        drlc: usize,
        context: usize,
        hw_impl: usize,
    },
    Asic {
        asic: usize,
    },
}

impl PrevSlot {
    fn capture(mapping: &Mapping, task: TaskId) -> Self {
        match mapping.placement(task) {
            Placement::Software { processor } => PrevSlot::Software {
                processor,
                position: mapping
                    .proc_order(processor)
                    .iter()
                    .position(|&t| t == task)
                    .expect("software task present in its order"),
            },
            Placement::Hardware {
                drlc,
                context,
                hw_impl,
            } => {
                let ctx = &mapping.contexts(drlc)[context];
                if ctx.len() == 1 {
                    PrevSlot::HardwareAlone {
                        drlc,
                        context,
                        hw_impl,
                    }
                } else {
                    PrevSlot::HardwareShared {
                        drlc,
                        context,
                        hw_impl,
                        slot: ctx
                            .tasks()
                            .iter()
                            .position(|&t| t == task)
                            .expect("hardware task present in its context"),
                    }
                }
            }
            Placement::Asic { asic } => PrevSlot::Asic { asic },
        }
    }

    /// Puts `task` back where [`capture`](Self::capture) found it; only
    /// valid immediately after the corresponding `detach`.
    fn reinstate(self, mapping: &mut Mapping, task: TaskId) {
        match self {
            PrevSlot::Software {
                processor,
                position,
            } => mapping.insert_software(task, processor, position),
            PrevSlot::HardwareShared {
                drlc,
                context,
                hw_impl,
                slot,
            } => mapping.insert_hardware_at(task, drlc, context, hw_impl, slot),
            PrevSlot::HardwareAlone {
                drlc,
                context,
                hw_impl,
            } => mapping.insert_new_context(task, drlc, context, hw_impl),
            PrevSlot::Asic { asic } => mapping.insert_asic(task, asic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdse_model::units::{Bytes, Clbs, Micros};
    use rdse_model::HwImpl;

    fn us(v: f64) -> Micros {
        Micros::new(v)
    }

    fn fixture() -> (TaskGraph, Architecture) {
        let mut app = TaskGraph::new("fx");
        let mut prev = None;
        for i in 0..6 {
            let t = app
                .add_task(
                    format!("t{i}"),
                    "F",
                    us(10.0 + i as f64),
                    vec![
                        HwImpl::new(Clbs::new(60), us(2.0)),
                        HwImpl::new(Clbs::new(120), us(1.0)),
                    ],
                )
                .unwrap();
            if let Some(p) = prev {
                app.add_data_edge(p, t, Bytes::new(100)).unwrap();
            }
            prev = Some(t);
        }
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(150), us(0.5), 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        (app, arch)
    }

    fn initial(app: &TaskGraph, arch: &Architecture) -> Mapping {
        let order: Vec<TaskId> = rdse_graph::topo_sort(&app.precedence_graph())
            .unwrap()
            .into_iter()
            .map(TaskId::from)
            .collect();
        Mapping::all_software(app, arch, order)
    }

    #[test]
    fn proposals_keep_mapping_structurally_valid() {
        let (app, arch) = fixture();
        let mut m = initial(&app, &arch);
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = MoveScratch::default();
        let mut applied = 0;
        for i in 0..3000 {
            let before = m.clone();
            let res = if i % 3 == 0 {
                propose_impl_move(&app, &arch, &mut m, &mut rng, &mut scratch)
            } else {
                propose_pair_move(&app, &arch, &mut m, &mut rng, &mut scratch)
            };
            match res {
                None => assert_eq!(m, before, "None must leave mapping unchanged"),
                Some(out) => {
                    applied += 1;
                    m.validate(&app, &arch).unwrap();
                    let mut undone = m.clone();
                    out.delta.undo(&mut undone);
                    assert_eq!(undone, before, "undo of {:?} must restore it", out.kind);
                    // Infeasible orders are allowed here (cycle check is
                    // the evaluator's job); roll back if cyclic so the
                    // walk continues from a feasible point.
                    if evaluate(&app, &arch, &m).is_err() {
                        m = before;
                    }
                }
            }
        }
        assert!(applied > 500, "only {applied} proposals applied");
    }

    #[test]
    fn capacity_overflow_spawns_new_context() {
        let (app, arch) = fixture();
        let mut m = initial(&app, &arch);
        // Fill a context with a 120-CLB implementation of t0.
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 1);
        // Force-move t1 onto t0's context resource: only the 60-CLB
        // implementation leaves headroom 150-120=30 -> nothing fits, a
        // new context must be spawned.
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = MoveScratch::default();
        let mut saw_spawn = false;
        for _ in 0..500 {
            let before = m.clone();
            if let Some(out) = propose_pair_move(&app, &arch, &mut m, &mut rng, &mut scratch) {
                if let MoveKind::Reassign {
                    spawned_context: true,
                    dest: ResourceRef::Context { .. },
                    ..
                } = out.kind
                {
                    saw_spawn = true;
                    m.validate(&app, &arch).unwrap();
                    break;
                }
            }
            m = before;
        }
        assert!(saw_spawn, "never observed a context spawn");
    }

    #[test]
    fn reorder_moves_task_before_destination() {
        let (app, arch) = fixture();
        let mut m = initial(&app, &arch);
        // Deterministically emulate m1: last task before first task.
        let last = TaskId(5);
        m.detach(last);
        m.insert_software(last, 0, 0);
        // t5 before t0 contradicts the chain precedence: must be cyclic.
        assert_eq!(
            evaluate(&app, &arch, &m),
            Err(crate::MappingError::CyclicSchedule)
        );
    }

    #[test]
    fn impl_move_seeds_hardware_when_empty() {
        let (app, arch) = fixture();
        let mut m = initial(&app, &arch);
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = MoveScratch::default();
        // With no hardware task, the class bootstraps a context.
        let out = propose_impl_move(&app, &arch, &mut m, &mut rng, &mut scratch).unwrap();
        assert!(matches!(
            out.kind,
            MoveKind::Reassign {
                spawned_context: true,
                ..
            }
        ));
        m.validate(&app, &arch).unwrap();
        assert_eq!(m.hw_tasks().count(), 1);
        // Reset to a known single hardware task; impl moves now apply.
        let mut m = initial(&app, &arch);
        m.detach(TaskId(2));
        m.insert_new_context(TaskId(2), 0, 0, 0);
        let out = propose_impl_move(&app, &arch, &mut m, &mut rng, &mut scratch).unwrap();
        match out.kind {
            MoveKind::SelectImplementation { task, from, to } => {
                assert_eq!(task, TaskId(2));
                assert_ne!(from, to);
            }
            other => panic!("unexpected move {other:?}"),
        }
        m.validate(&app, &arch).unwrap();
    }

    #[test]
    fn sw_only_task_never_lands_in_hardware() {
        let mut app = TaskGraph::new("x");
        let a = app.add_task("a", "F", us(5.0), vec![]).unwrap();
        let b = app
            .add_task("b", "G", us(5.0), vec![HwImpl::new(Clbs::new(10), us(1.0))])
            .unwrap();
        app.add_data_edge(a, b, Bytes::new(10)).unwrap();
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(100), us(1.0), 1.0)
            .build()
            .unwrap();
        let mut m = Mapping::all_software(&app, &arch, vec![a, b]);
        m.detach(b);
        m.insert_new_context(b, 0, 0, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = MoveScratch::default();
        for _ in 0..2000 {
            let before = m.clone();
            if propose_pair_move(&app, &arch, &mut m, &mut rng, &mut scratch).is_some() {
                m.validate(&app, &arch).unwrap();
                assert!(
                    !m.placement(a).is_hardware(),
                    "software-only task placed in hardware"
                );
            } else {
                assert_eq!(m, before);
            }
        }
    }
}
