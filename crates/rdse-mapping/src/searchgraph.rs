//! Construction of the search graph *G′* (§3.3, §4.3).
//!
//! `G′ = <V ∪ {source}, E ∪ Esw ∪ Ehw>` where
//!
//! * `E` are the application's precedence edges, weighted by the bus
//!   transfer time `qij / D` when the edge crosses device boundaries
//!   and 0 when producer and consumer share a device;
//! * `Esw` are zero-weight sequentialization edges enforcing the total
//!   execution order on each processor (consecutive tasks in the
//!   order);
//! * `Ehw` are context sequentialization edges from every *terminal*
//!   node of context `k` to every *initial* node of context `k+1`,
//!   weighted `tR × nCLB(k+1)` — the partial reconfiguration time of
//!   the incoming context. The initial configuration of the first
//!   context is modelled the same way with edges from the virtual
//!   source (so Fig. 3's "initial reconfiguration time" is part of the
//!   makespan).
//!
//! Node weights are the task execution times under the mapping's
//! placements and implementation choices. A cycle in *G′* means the
//! candidate schedule is infeasible and the move that produced it is
//! discarded (§4.3).

use crate::error::MappingError;
use crate::placement::ResourceRef;
use crate::solution::Mapping;
use rdse_graph::{DenseDag, LongestPath, NodeId};
use rdse_model::{Architecture, TaskGraph};

/// `ctx_of` marker for tasks outside every context.
const NO_CONTEXT: u32 = u32::MAX;

/// The materialized search graph of one candidate mapping, in CSR form
/// ([`DenseDag`]): flat `u32` edge slabs and structure-of-arrays
/// weights, built once per evaluation and read-only afterwards.
#[derive(Debug, Clone)]
pub struct SearchGraph {
    graph: DenseDag,
    node_weights: Vec<f64>,
    n_tasks: usize,
}

/// `true` if two placements share a physical device, in which case
/// communication between them does not use the shared bus.
pub fn same_device(a: ResourceRef, b: ResourceRef) -> bool {
    match (a, b) {
        (ResourceRef::Processor(x), ResourceRef::Processor(y)) => x == y,
        (ResourceRef::Context { drlc: x, .. }, ResourceRef::Context { drlc: y, .. }) => x == y,
        (ResourceRef::Asic(x), ResourceRef::Asic(y)) => x == y,
        _ => false,
    }
}

impl SearchGraph {
    /// Index of the virtual source node (used for the initial
    /// reconfiguration edges).
    pub fn source(&self) -> NodeId {
        NodeId(self.n_tasks as u32)
    }

    /// Builds *G′* for `mapping`.
    ///
    /// The construction itself cannot fail (any index inconsistency is
    /// a programming error and panics); feasibility is determined later
    /// by [`SearchGraph::longest_path`]. It runs in time linear in the
    /// size of *G′*.
    pub fn build(app: &TaskGraph, arch: &Architecture, mapping: &Mapping) -> Self {
        let n = app.n_tasks();
        let source = n as u32;
        let mut node_weights = vec![0.0; n + 1];
        for t in app.task_ids() {
            node_weights[t.index()] = mapping.exec_time(app, t).value();
        }

        // Collect the edge list in the canonical insertion order (data,
        // Esw, Ehw), then freeze it into CSR in one pass.
        let mut edges: Vec<(u32, u32, f64)> = Vec::with_capacity(app.edges().len() + n);

        // Context of every hardware task, numbered across devices, as
        // listed by the mapping's contexts.
        let mut ctx_of = vec![NO_CONTEXT; n];
        let mut next_ctx = 0;
        for d in 0..arch.drlcs().len() {
            for ctx in mapping.contexts(d) {
                for &t in ctx.tasks() {
                    ctx_of[t.index()] = next_ctx;
                }
                next_ctx += 1;
            }
        }

        // Base precedence edges with communication weights. The same
        // pass marks the tasks with an immediate predecessor (successor)
        // inside their own context: exactly the non-initial
        // (non-terminal) context members of §3.3.
        let mut pred_inside = vec![false; n];
        let mut succ_inside = vec![false; n];
        let bus = arch.bus();
        for e in app.edges() {
            let (ra, rb) = (mapping.resource(e.from), mapping.resource(e.to));
            let w = if same_device(ra, rb) {
                0.0
            } else {
                bus.transfer_time(e.bytes).value()
            };
            edges.push((e.from.0, e.to.0, w));
            let ctx = ctx_of[e.from.index()];
            if ctx != NO_CONTEXT && ctx == ctx_of[e.to.index()] {
                succ_inside[e.from.index()] = true;
                pred_inside[e.to.index()] = true;
            }
        }

        // Esw: processor total orders.
        for p in 0..arch.processors().len() {
            let order = mapping.proc_order(p);
            for pair in order.windows(2) {
                edges.push((pair[0].0, pair[1].0, 0.0));
            }
        }

        // Ehw: context sequentialization with reconfiguration weights,
        // from the previous context's terminals (or the source) to each
        // context's initials, both in context-list order.
        let mut initials: Vec<u32> = Vec::new();
        let mut terminals: Vec<u32> = Vec::new();
        for (d, spec) in arch.drlcs().iter().enumerate() {
            for (k, ctx) in mapping.contexts(d).iter().enumerate() {
                let reconfig = spec
                    .reconfiguration_time(mapping.context_clbs(app, d, k))
                    .value();
                initials.clear();
                initials.extend(
                    ctx.tasks()
                        .iter()
                        .filter(|t| !pred_inside[t.index()])
                        .map(|t| t.0),
                );
                if k == 0 {
                    for &t in &initials {
                        edges.push((source, t, reconfig));
                    }
                } else {
                    for &from in &terminals {
                        for &to in &initials {
                            edges.push((from, to, reconfig));
                        }
                    }
                }
                terminals.clear();
                terminals.extend(
                    ctx.tasks()
                        .iter()
                        .filter(|t| !succ_inside[t.index()])
                        .map(|t| t.0),
                );
            }
        }

        let graph = DenseDag::from_edges(n + 1, &edges, &node_weights)
            .expect("search-graph nodes exist and tasks never self-depend");

        SearchGraph {
            graph,
            node_weights,
            n_tasks: n,
        }
    }

    /// The underlying CSR graph (tasks `0..n` plus the source).
    pub fn graph(&self) -> &DenseDag {
        &self.graph
    }

    /// Node weights (execution times in µs; source weight 0).
    pub fn node_weights(&self) -> &[f64] {
        &self.node_weights
    }

    /// Number of task nodes (excluding the virtual source).
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Longest path of *G′* (the §4.4 evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::CyclicSchedule`] if the sequentialization
    /// edges close a cycle (an infeasible order).
    pub fn longest_path(&self) -> Result<LongestPath, MappingError> {
        self.graph
            .longest_path()
            .map_err(|_| MappingError::CyclicSchedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_initial;
    use crate::moves::{propose_impl_move, propose_pair_move, MoveScratch};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdse_model::units::{Bytes, Clbs, Micros};
    use rdse_model::{HwImpl, TaskId};
    use rdse_workloads::{layered_dag, LayeredDagConfig};

    /// Initial nodes of a context: tasks whose immediate predecessors
    /// are all outside the context (§3.3), straight from the definition.
    fn context_initials(app: &TaskGraph, tasks: &[TaskId]) -> Vec<TaskId> {
        let inside = |t: TaskId| tasks.contains(&t);
        tasks
            .iter()
            .copied()
            .filter(|&t| !app.edges().iter().any(|e| e.to == t && inside(e.from)))
            .collect()
    }

    /// Terminal nodes of a context: tasks whose immediate successors
    /// are all outside the context (§3.3), straight from the definition.
    fn context_terminals(app: &TaskGraph, tasks: &[TaskId]) -> Vec<TaskId> {
        let inside = |t: TaskId| tasks.contains(&t);
        tasks
            .iter()
            .copied()
            .filter(|&t| !app.edges().iter().any(|e| e.from == t && inside(e.to)))
            .collect()
    }

    /// [`SearchGraph::build`] straight from the §3.3 definitions: the
    /// initials and terminals of every context recomputed against the
    /// whole edge list.
    fn reference_build(app: &TaskGraph, arch: &Architecture, mapping: &Mapping) -> SearchGraph {
        let n = app.n_tasks();
        let source = n as u32;
        let mut node_weights = vec![0.0; n + 1];
        for t in app.task_ids() {
            node_weights[t.index()] = mapping.exec_time(app, t).value();
        }
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        for e in app.edges() {
            let w = if same_device(mapping.resource(e.from), mapping.resource(e.to)) {
                0.0
            } else {
                arch.bus().transfer_time(e.bytes).value()
            };
            edges.push((e.from.0, e.to.0, w));
        }
        for p in 0..arch.processors().len() {
            for pair in mapping.proc_order(p).windows(2) {
                edges.push((pair[0].0, pair[1].0, 0.0));
            }
        }
        for (d, spec) in arch.drlcs().iter().enumerate() {
            let ctxs = mapping.contexts(d);
            for (k, ctx) in ctxs.iter().enumerate() {
                let reconfig = spec
                    .reconfiguration_time(mapping.context_clbs(app, d, k))
                    .value();
                let initials = context_initials(app, ctx.tasks());
                if k == 0 {
                    for &t in &initials {
                        edges.push((source, t.0, reconfig));
                    }
                } else {
                    for &from in &context_terminals(app, ctxs[k - 1].tasks()) {
                        for &to in &initials {
                            edges.push((from.0, to.0, reconfig));
                        }
                    }
                }
            }
        }
        SearchGraph {
            graph: DenseDag::from_edges(n + 1, &edges, &node_weights).unwrap(),
            node_weights,
            n_tasks: n,
        }
    }

    fn us(v: f64) -> Micros {
        Micros::new(v)
    }

    /// Chain a(10) -> b(20) -> c(5); a and b have hardware impls.
    fn fixture() -> (TaskGraph, Architecture) {
        let mut app = TaskGraph::new("fx");
        let a = app
            .add_task(
                "a",
                "F",
                us(10.0),
                vec![HwImpl::new(Clbs::new(100), us(2.0))],
            )
            .unwrap();
        let b = app
            .add_task(
                "b",
                "G",
                us(20.0),
                vec![HwImpl::new(Clbs::new(150), us(3.0))],
            )
            .unwrap();
        let c = app.add_task("c", "H", us(5.0), vec![]).unwrap();
        app.add_data_edge(a, b, Bytes::new(1000)).unwrap();
        app.add_data_edge(b, c, Bytes::new(2000)).unwrap();
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(200), us(0.1), 1.0)
            .bus_rate(100.0) // 1000 bytes -> 10 µs
            .build()
            .unwrap();
        (app, arch)
    }

    fn topo(app: &TaskGraph) -> Vec<TaskId> {
        rdse_graph::topo_sort(&app.precedence_graph())
            .unwrap()
            .into_iter()
            .map(TaskId::from)
            .collect()
    }

    #[test]
    fn all_software_makespan_is_sum_of_sw_times() {
        let (app, arch) = fixture();
        let m = Mapping::all_software(&app, &arch, topo(&app));
        let sg = SearchGraph::build(&app, &arch, &m);
        let lp = sg.longest_path().unwrap();
        // Same device: zero comm. 10 + 20 + 5.
        assert_eq!(lp.makespan(), 35.0);
    }

    #[test]
    fn hw_placement_adds_comm_and_reconfig() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo(&app));
        // Move b to hardware, context 0 (150 CLBs -> reconfig 15 µs).
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 0, 0);
        let sg = SearchGraph::build(&app, &arch, &m);
        let lp = sg.longest_path().unwrap();
        // Path: max( reconfig 15, a(10) + comm 10 ) + b_hw(3) + comm 20 + c(5)
        // = max(15, 20) + 3 + 20 + 5 = 48.
        assert_eq!(lp.makespan(), 48.0);
    }

    #[test]
    fn initial_reconfig_floors_start_time() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo(&app));
        // Move a (a source task) to hardware: its start must wait for
        // the initial configuration (100 CLBs × 0.1 = 10 µs).
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0);
        let sg = SearchGraph::build(&app, &arch, &m);
        let lp = sg.longest_path().unwrap();
        // a: starts at 10 (reconfig), runs 2 -> 12; comm 10 -> b starts 22,
        // ends 42; comm 20 (cross: b sw? no b is sw, same cpu as c -> 0).
        // Wait: a(hw) -> b(sw): comm 10. b(20) -> c same device comm 0, c 5.
        // makespan = 10 + 2 + 10 + 20 + 5 = 47.
        assert_eq!(lp.makespan(), 47.0);
        assert_eq!(lp.completion(TaskId(0).node()), 12.0);
    }

    #[test]
    fn two_contexts_sequentialize_with_reconfig() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0); // ctx0: a, 100 CLBs
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 1, 0); // ctx1: b, 150 CLBs
        let sg = SearchGraph::build(&app, &arch, &m);
        let lp = sg.longest_path().unwrap();
        // a: reconfig 10 + 2 = 12. b: max(data: 12 + 0 (same device),
        // ctx handover: 12 + 15) = 27 + 3 = 30. c: 30 + comm 20 + 5 = 55.
        assert_eq!(lp.makespan(), 55.0);
    }

    #[test]
    fn infeasible_order_detected_as_cycle() {
        let (app, arch) = fixture();
        // Order c before a on the processor although a ⇝ c.
        let m = Mapping::all_software(&app, &arch, vec![TaskId(2), TaskId(0), TaskId(1)]);
        let sg = SearchGraph::build(&app, &arch, &m);
        assert_eq!(sg.longest_path(), Err(MappingError::CyclicSchedule));
    }

    #[test]
    fn backwards_context_order_is_cyclic() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo(&app));
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 0, 0); // ctx0: b
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 1, 0); // ctx1: a, but a ⇝ b!
        let sg = SearchGraph::build(&app, &arch, &m);
        assert_eq!(sg.longest_path(), Err(MappingError::CyclicSchedule));
    }

    #[test]
    fn initials_and_terminals() {
        let (app, _) = fixture();
        // Context holding a and b (a -> b inside).
        let tasks = vec![TaskId(0), TaskId(1)];
        assert_eq!(context_initials(&app, &tasks), vec![TaskId(0)]);
        assert_eq!(context_terminals(&app, &tasks), vec![TaskId(1)]);
        // Independent tasks are both initial and terminal.
        let only_c = vec![TaskId(2)];
        assert_eq!(context_initials(&app, &only_c), vec![TaskId(2)]);
        assert_eq!(context_terminals(&app, &only_c), vec![TaskId(2)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn build_matches_the_definition_edge_for_edge(
            layers in 2usize..6,
            width in 1usize..6,
            edge_percent in 20u8..90,
            clbs in 150u32..2000,
            two_fpgas in proptest::bool::weighted(0.5),
            seed in 0u64..1_000_000,
        ) {
            // Unchecked random walks reach multi-task contexts with
            // internal edges, overflowing contexts and cyclic orders:
            // the edge list, and so the CSR, must match on every state.
            let app = layered_dag(
                &LayeredDagConfig { layers, width, edge_percent, hw_percent: 80 },
                seed,
            );
            let mut builder = Architecture::builder("prop")
                .processor("cpu", 1.0)
                .drlc("fpga0", Clbs::new(clbs), us(0.5), 1.0);
            if two_fpgas {
                builder = builder.drlc("fpga1", Clbs::new(clbs / 2 + 100), us(0.25), 1.0);
            }
            let arch = builder.bus_rate(20.0).build().unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC5);
            let mut scratch = MoveScratch::default();
            let mut mapping = random_initial(&app, &arch, &mut rng);
            for step in 0..120u32 {
                let built = SearchGraph::build(&app, &arch, &mapping);
                let reference = reference_build(&app, &arch, &mapping);
                let (g, r) = (built.graph(), reference.graph());
                prop_assert_eq!(g.n_edges(), r.n_edges(), "edge count at step {}", step);
                for eid in 0..g.n_edges() as u32 {
                    prop_assert_eq!(g.edge_endpoints(eid), r.edge_endpoints(eid));
                    prop_assert_eq!(g.edge_weight(eid).to_bits(), r.edge_weight(eid).to_bits());
                }
                for v in 0..g.n_nodes() as u32 {
                    prop_assert_eq!(g.node_weight(v).to_bits(), r.node_weight(v).to_bits());
                }
                if step % 2 == 0 {
                    propose_pair_move(&app, &arch, &mut mapping, &mut rng, &mut scratch);
                } else {
                    propose_impl_move(&app, &arch, &mut mapping, &mut rng, &mut scratch);
                }
            }
        }
    }

    #[test]
    fn same_device_rules() {
        use ResourceRef::*;
        assert!(same_device(Processor(0), Processor(0)));
        assert!(!same_device(Processor(0), Processor(1)));
        assert!(same_device(
            Context {
                drlc: 0,
                context: 1
            },
            Context {
                drlc: 0,
                context: 5
            }
        ));
        assert!(!same_device(
            Context {
                drlc: 0,
                context: 1
            },
            Context {
                drlc: 1,
                context: 1
            }
        ));
        assert!(!same_device(Processor(0), Asic(0)));
        assert!(same_device(Asic(1), Asic(1)));
    }
}
