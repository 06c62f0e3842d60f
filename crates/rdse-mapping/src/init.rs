//! Random initial solutions (§5).
//!
//! "The initial solution is generated with a random hardware/software
//! partition. A random number of tasks are moved, one by one, to the
//! reconfigurable circuit. A new context is created when the capacity
//! of the last context is exceeded."
//!
//! Feasibility by construction: a random *topological* order is drawn
//! first (randomized Kahn), the software order is that order restricted
//! to software tasks, and hardware tasks are packed into contexts in
//! the same order — every sequentialization edge then points forward in
//! one linear order, so the initial search graph is acyclic.

use crate::error::MappingError;
use crate::solution::Mapping;
use rand::{Rng, RngCore};
use rdse_model::{Architecture, TaskGraph, TaskId};

/// Draws a uniform random topological order via randomized Kahn.
pub fn random_topo_order(app: &TaskGraph, rng: &mut dyn RngCore) -> Vec<TaskId> {
    let g = app.precedence_graph();
    let n = g.n_nodes();
    let mut in_deg: Vec<usize> = (0..n)
        .map(|i| g.in_degree(rdse_graph::NodeId(i as u32)))
        .collect();
    let mut frontier: Vec<TaskId> = (0..n)
        .filter(|&i| in_deg[i] == 0)
        .map(|i| TaskId(i as u32))
        .collect();
    let mut order = Vec::with_capacity(n);
    while !frontier.is_empty() {
        let pick = rng.random_range(0..frontier.len());
        let v = frontier.swap_remove(pick);
        order.push(v);
        for (s, _) in g.successors(v.node()) {
            in_deg[s.index()] -= 1;
            if in_deg[s.index()] == 0 {
                frontier.push(TaskId::from(s));
            }
        }
    }
    assert_eq!(order.len(), n, "precedence graph must be acyclic");
    order
}

/// Checks that a search can start on `arch`: the random initial
/// solution, the all-software mapping and every list-scheduled
/// individual run software tasks on processor 0.
///
/// # Errors
///
/// [`MappingError::NoProcessor`] when `arch` has none.
pub fn require_processor(arch: &Architecture) -> Result<(), MappingError> {
    if arch.processors().is_empty() {
        Err(MappingError::NoProcessor)
    } else {
        Ok(())
    }
}

/// Generates the paper's random initial solution.
///
/// A random subset of the hardware-capable tasks (uniform size between
/// 0 and all of them) is moved to the first DRLC, packed greedily into
/// contexts; everything else runs on processor 0 in a random
/// topological order. Implementations are drawn uniformly among those
/// fitting the device.
///
/// # Panics
///
/// Panics if the architecture has no processor (the paper's target
/// always has one); search entry points check [`require_processor`]
/// first.
pub fn random_initial(app: &TaskGraph, arch: &Architecture, rng: &mut dyn RngCore) -> Mapping {
    let order = random_topo_order(app, rng);
    let mut mapping = Mapping::all_software(app, arch, order.clone());
    if arch.drlcs().is_empty() || app.n_tasks() == 0 {
        return mapping;
    }
    let drlc = 0;
    let capacity = arch.drlcs()[drlc].n_clbs();

    // Candidate tasks that can fit the device at all.
    let candidates: Vec<TaskId> = order
        .iter()
        .copied()
        .filter(|&t| {
            app.task(t)
                .expect("task id in range")
                .hw_impls()
                .iter()
                .any(|i| i.clbs() <= capacity)
        })
        .collect();
    if candidates.is_empty() {
        return mapping;
    }
    let n_hw = rng.random_range(0..=candidates.len());
    // Random subset of size n_hw, then processed in topological order
    // (candidates is already topologically sorted).
    let mut selected = candidates;
    for i in (1..selected.len()).rev() {
        let j = rng.random_range(0..=i);
        selected.swap(i, j);
    }
    selected.truncate(n_hw);
    let mut rank = vec![0usize; app.n_tasks()];
    for (i, &t) in order.iter().enumerate() {
        rank[t.index()] = i;
    }
    selected.sort_by_key(|t| rank[t.index()]);

    for t in selected {
        let impls = app.task(t).expect("task id in range").hw_impls();
        let n_ctx = mapping.contexts(drlc).len();
        if n_ctx == 0 {
            let fitting: Vec<usize> = (0..impls.len())
                .filter(|&i| impls[i].clbs() <= capacity)
                .collect();
            let choice = fitting[rng.random_range(0..fitting.len())];
            mapping.detach(t);
            mapping.insert_new_context(t, drlc, 0, choice);
            continue;
        }
        let last = n_ctx - 1;
        let headroom = capacity.saturating_sub(mapping.context_clbs(app, drlc, last));
        let fitting: Vec<usize> = (0..impls.len())
            .filter(|&i| impls[i].clbs() <= headroom)
            .collect();
        mapping.detach(t);
        if fitting.is_empty() {
            // Capacity of the last context exceeded: open a new one.
            let alone: Vec<usize> = (0..impls.len())
                .filter(|&i| impls[i].clbs() <= capacity)
                .collect();
            let choice = alone[rng.random_range(0..alone.len())];
            let n_ctx = mapping.contexts(drlc).len();
            mapping.insert_new_context(t, drlc, n_ctx, choice);
        } else {
            let choice = fitting[rng.random_range(0..fitting.len())];
            // Contexts may have shifted if t's detach emptied one; the
            // last context index is re-read.
            let last = mapping.contexts(drlc).len() - 1;
            mapping.insert_hardware(t, drlc, last, choice);
        }
    }
    mapping
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
        let mut ids = Vec::new();
        for i in 0..10 {
            let hw = if i % 3 == 0 {
                vec![]
            } else {
                vec![
                    HwImpl::new(Clbs::new(40 + 10 * (i as u32 % 4)), us(1.0)),
                    HwImpl::new(Clbs::new(90), us(0.5)),
                ]
            };
            ids.push(app.add_task(format!("t{i}"), "F", us(10.0), hw).unwrap());
        }
        // Diamond-ish precedence.
        for i in 1..10 {
            app.add_data_edge(ids[(i - 1) / 2], ids[i], Bytes::new(64))
                .unwrap();
        }
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(120), us(1.0), 1.0)
            .build()
            .unwrap();
        (app, arch)
    }

    #[test]
    fn random_topo_order_is_topological() {
        let (app, _) = fixture();
        let g = app.precedence_graph();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let order = random_topo_order(&app, &mut rng);
            let mut pos = vec![0usize; order.len()];
            for (i, t) in order.iter().enumerate() {
                pos[t.index()] = i;
            }
            for e in g.edges() {
                assert!(pos[e.from.index()] < pos[e.to.index()]);
            }
        }
    }

    #[test]
    fn random_topo_orders_vary() {
        let (app, _) = fixture();
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_topo_order(&app, &mut rng);
        let b = random_topo_order(&app, &mut rng);
        let c = random_topo_order(&app, &mut rng);
        assert!(a != b || b != c, "three identical random topo orders");
    }

    #[test]
    fn initial_solutions_are_valid_and_feasible() {
        let (app, arch) = fixture();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let m = random_initial(&app, &arch, &mut rng);
            m.validate(&app, &arch).unwrap();
            evaluate(&app, &arch, &m).expect("initial solution must be feasible");
        }
    }

    #[test]
    fn initial_solutions_explore_hw_fraction() {
        let (app, arch) = fixture();
        let mut rng = StdRng::seed_from_u64(12);
        let mut saw_zero = false;
        let mut saw_some = false;
        for _ in 0..100 {
            let m = random_initial(&app, &arch, &mut rng);
            let k = m.hw_tasks().count();
            if k == 0 {
                saw_zero = true;
            }
            if k >= 3 {
                saw_some = true;
            }
        }
        assert!(saw_zero && saw_some, "hw fraction not explored");
    }

    #[test]
    fn no_drlc_architecture_stays_software() {
        let (app, _) = fixture();
        let arch = Architecture::builder("cpu-only")
            .processor("cpu", 1.0)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let m = random_initial(&app, &arch, &mut rng);
        assert_eq!(m.hw_tasks().count(), 0);
        m.validate(&app, &arch).unwrap();
    }
}
