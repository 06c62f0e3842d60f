//! The application model of §3.1: an acyclic precedence graph of
//! coarse-grain tasks with per-resource execution estimates.

use crate::error::ModelError;
use crate::units::{Bytes, Clbs, Micros};
use rdse_graph::{Digraph, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a task inside a [`TaskGraph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task index as `usize`, for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The corresponding node in the underlying precedence graph.
    pub fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<NodeId> for TaskId {
    fn from(value: NodeId) -> Self {
        TaskId(value.0)
    }
}

/// One synthesized hardware implementation of a task: an (area, time)
/// point of the function's Pareto front (§5 mentions 5–6 per function).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HwImpl {
    clbs: Clbs,
    time: Micros,
}

impl HwImpl {
    /// Creates an implementation occupying `clbs` and executing in
    /// `time`.
    pub fn new(clbs: Clbs, time: Micros) -> Self {
        HwImpl { clbs, time }
    }

    /// Area occupied on the reconfigurable device.
    pub fn clbs(&self) -> Clbs {
        self.clbs
    }

    /// Hardware execution time.
    pub fn time(&self) -> Micros {
        self.time
    }

    /// `true` if `self` is dominated by `other` (other is no worse in
    /// both dimensions and strictly better in one).
    pub fn is_dominated_by(&self, other: &HwImpl) -> bool {
        let no_worse = other.clbs <= self.clbs && other.time <= self.time;
        let better = other.clbs < self.clbs || other.time < self.time;
        no_worse && better
    }
}

/// A coarse-grain task (node of the precedence graph).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    name: String,
    functionality: String,
    sw_time: Micros,
    hw_impls: Vec<HwImpl>,
}

impl Task {
    /// Task name (unique within a graph by convention, not enforced).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Functionality label (FFT, DCT, FIR filter, ...).
    pub fn functionality(&self) -> &str {
        &self.functionality
    }

    /// Estimated execution time on the programmable processor.
    pub fn sw_time(&self) -> Micros {
        self.sw_time
    }

    /// The available hardware implementations (possibly empty for
    /// software-only tasks).
    pub fn hw_impls(&self) -> &[HwImpl] {
        &self.hw_impls
    }

    /// `true` if the task can be mapped to reconfigurable hardware.
    pub fn is_hw_capable(&self) -> bool {
        !self.hw_impls.is_empty()
    }

    /// The fastest hardware implementation, if any.
    pub fn fastest_hw(&self) -> Option<&HwImpl> {
        self.hw_impls
            .iter()
            .min_by(|a, b| a.time.partial_cmp(&b.time).expect("times are finite"))
    }

    /// The smallest hardware implementation, if any.
    pub fn smallest_hw(&self) -> Option<&HwImpl> {
        self.hw_impls.iter().min_by_key(|i| i.clbs)
    }
}

/// A data edge of the precedence graph: `from` produces `bytes`
/// consumed by `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataEdge {
    /// Producer task.
    pub from: TaskId,
    /// Consumer task.
    pub to: TaskId,
    /// Amount of data transferred.
    pub bytes: Bytes,
}

/// The application: an acyclic precedence graph of [`Task`]s.
///
/// See the [crate-level example](crate) for typical construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<DataEdge>,
}

impl TaskGraph {
    /// Creates an empty application named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a task and returns its id.
    ///
    /// Dominated hardware implementations are dropped so the stored set
    /// is a Pareto front, matching the EPICURE estimate sets.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyName`] for an empty name,
    /// [`ModelError::InvalidTime`] for a negative/NaN estimate, or
    /// [`ModelError::EmptyImplementation`] for a zero-CLB
    /// implementation.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        functionality: impl Into<String>,
        sw_time: Micros,
        hw_impls: Vec<HwImpl>,
    ) -> Result<TaskId, ModelError> {
        let id = TaskId(self.tasks.len() as u32);
        let name = name.into();
        if name.is_empty() {
            return Err(ModelError::EmptyName);
        }
        check_estimates(id, sw_time, &hw_impls)?;
        let mut front: Vec<HwImpl> = Vec::with_capacity(hw_impls.len());
        for imp in hw_impls {
            if front.iter().any(|f| imp.is_dominated_by(f)) {
                continue;
            }
            front.retain(|f| !f.is_dominated_by(&imp));
            front.push(imp);
        }
        front.sort_by_key(|i| i.clbs());
        self.tasks.push(Task {
            name,
            functionality: functionality.into(),
            sw_time,
            hw_impls: front,
        });
        Ok(id)
    }

    /// Adds a precedence/data edge.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownTask`] for invalid endpoints,
    /// [`ModelError::SelfEdge`] when `from == to`, and
    /// [`ModelError::DuplicateEdge`] if the pair is already connected.
    pub fn add_data_edge(
        &mut self,
        from: TaskId,
        to: TaskId,
        bytes: Bytes,
    ) -> Result<(), ModelError> {
        for t in [from, to] {
            if t.index() >= self.tasks.len() {
                return Err(ModelError::UnknownTask(t));
            }
        }
        if from == to {
            return Err(ModelError::SelfEdge(from));
        }
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return Err(ModelError::DuplicateEdge(from, to));
        }
        self.edges.push(DataEdge { from, to, bytes });
        Ok(())
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Accesses a task.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index())
    }

    /// Iterates over `(id, task)` pairs.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// The data edges.
    pub fn edges(&self) -> &[DataEdge] {
        &self.edges
    }

    /// All task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Builds the underlying precedence [`Digraph`] (edge weights are
    /// the transferred byte counts as `f64`).
    ///
    /// # Panics
    ///
    /// Panics on an edge [`validate`](Self::validate) rejects, which
    /// only a deserialized graph can hold.
    pub fn precedence_graph(&self) -> Digraph {
        let mut g = Digraph::new(self.tasks.len());
        for e in &self.edges {
            g.add_edge(e.from.node(), e.to.node(), e.bytes.value() as f64)
                .expect("edges are checked on insertion and by `validate`");
        }
        g
    }

    /// Checks global invariants: every task's estimates pass
    /// [`add_task`]'s checks, every edge joins two distinct existing
    /// tasks and no pair is joined twice (a deserialized graph skips
    /// [`add_task`] and [`add_data_edge`]), and the precedence graph is
    /// acyclic.
    ///
    /// [`add_task`]: TaskGraph::add_task
    /// [`add_data_edge`]: TaskGraph::add_data_edge
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTime`] or
    /// [`ModelError::EmptyImplementation`] for a task `add_task` would
    /// refuse, [`ModelError::UnknownTask`] for an edge endpoint that
    /// names no task, [`ModelError::SelfEdge`] for an edge from a task to
    /// itself, [`ModelError::DuplicateEdge`] for a pair joined twice, and
    /// [`ModelError::CyclicPrecedence`] when a cycle exists.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (id, t) in self.tasks() {
            check_estimates(id, t.sw_time, &t.hw_impls)?;
        }
        for e in &self.edges {
            if let Some(t) = [e.from, e.to]
                .into_iter()
                .find(|t| t.index() >= self.tasks.len())
            {
                return Err(ModelError::UnknownTask(t));
            }
            if e.from == e.to {
                return Err(ModelError::SelfEdge(e.from));
            }
        }
        let mut pairs: Vec<(TaskId, TaskId)> = self.edges.iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_unstable();
        #[cfg(not(rdse_fault = "validate_accepts_duplicate_edges"))]
        if let Some(w) = pairs.windows(2).find(|w| w[0] == w[1]) {
            return Err(ModelError::DuplicateEdge(w[0].0, w[0].1));
        }
        match rdse_graph::topo_sort(&self.precedence_graph()) {
            Ok(_) => Ok(()),
            Err(rdse_graph::GraphError::Cycle { on_cycle }) => Err(ModelError::CyclicPrecedence {
                on_cycle: on_cycle.into(),
            }),
            Err(_) => unreachable!("topo_sort only fails with Cycle"),
        }
    }

    /// Sum of software times over all tasks — the all-software makespan
    /// on a single processor (76.4 ms for the paper's benchmark).
    pub fn total_sw_time(&self) -> Micros {
        self.tasks.iter().map(|t| t.sw_time).sum()
    }
}

/// The per-task estimate checks of [`TaskGraph::add_task`], shared
/// with [`TaskGraph::validate`]: every time is finite and non-negative,
/// and no implementation has zero CLBs.
fn check_estimates(id: TaskId, sw_time: Micros, hw_impls: &[HwImpl]) -> Result<(), ModelError> {
    let invalid = |what| ModelError::InvalidTime { task: id, what };
    if !sw_time.is_valid() {
        return Err(invalid("software time"));
    }
    for imp in hw_impls {
        if !imp.time().is_valid() {
            return Err(invalid("hardware time"));
        }
        if imp.clbs() == Clbs::ZERO {
            return Err(ModelError::EmptyImplementation(id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> Micros {
        Micros::new(v)
    }

    #[test]
    fn build_simple_graph() {
        let mut g = TaskGraph::new("app");
        let a = g
            .add_task(
                "a",
                "FFT",
                us(10.0),
                vec![HwImpl::new(Clbs::new(50), us(2.0))],
            )
            .unwrap();
        let b = g.add_task("b", "DCT", us(20.0), vec![]).unwrap();
        g.add_data_edge(a, b, Bytes::new(128)).unwrap();
        assert_eq!(g.n_tasks(), 2);
        assert!(g.task(a).unwrap().is_hw_capable());
        assert!(!g.task(b).unwrap().is_hw_capable());
        assert_eq!(g.total_sw_time(), us(30.0));
        g.validate().unwrap();
    }

    #[test]
    fn pareto_filtering_drops_dominated_points() {
        let mut g = TaskGraph::new("app");
        let a = g
            .add_task(
                "a",
                "FIR",
                us(100.0),
                vec![
                    HwImpl::new(Clbs::new(100), us(10.0)),
                    HwImpl::new(Clbs::new(200), us(10.0)), // dominated: same time, more area
                    HwImpl::new(Clbs::new(200), us(5.0)),
                    HwImpl::new(Clbs::new(50), us(20.0)),
                ],
            )
            .unwrap();
        let impls = g.task(a).unwrap().hw_impls();
        assert_eq!(impls.len(), 3);
        // Sorted by area, dominated point gone.
        assert_eq!(impls[0].clbs(), Clbs::new(50));
        assert_eq!(impls[2].clbs(), Clbs::new(200));
        assert_eq!(impls[2].time(), us(5.0));
    }

    #[test]
    fn fastest_and_smallest() {
        let mut g = TaskGraph::new("app");
        let a = g
            .add_task(
                "a",
                "DCT",
                us(100.0),
                vec![
                    HwImpl::new(Clbs::new(100), us(10.0)),
                    HwImpl::new(Clbs::new(300), us(3.0)),
                ],
            )
            .unwrap();
        let t = g.task(a).unwrap();
        assert_eq!(t.fastest_hw().unwrap().time(), us(3.0));
        assert_eq!(t.smallest_hw().unwrap().clbs(), Clbs::new(100));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut g = TaskGraph::new("app");
        assert_eq!(
            g.add_task("", "F", us(1.0), vec![]),
            Err(ModelError::EmptyName)
        );
        assert!(matches!(
            g.add_task("x", "F", us(-1.0), vec![]),
            Err(ModelError::InvalidTime { .. })
        ));
        assert!(matches!(
            g.add_task("x", "F", us(1.0), vec![HwImpl::new(Clbs::ZERO, us(1.0))]),
            Err(ModelError::EmptyImplementation(_))
        ));
        let a = g.add_task("a", "F", us(1.0), vec![]).unwrap();
        assert_eq!(
            g.add_data_edge(a, a, Bytes::ZERO),
            Err(ModelError::SelfEdge(a))
        );
        assert_eq!(
            g.add_data_edge(a, TaskId(9), Bytes::ZERO),
            Err(ModelError::UnknownTask(TaskId(9)))
        );
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = TaskGraph::new("app");
        let a = g.add_task("a", "F", us(1.0), vec![]).unwrap();
        let b = g.add_task("b", "F", us(1.0), vec![]).unwrap();
        g.add_data_edge(a, b, Bytes::new(1)).unwrap();
        assert_eq!(
            g.add_data_edge(a, b, Bytes::new(2)),
            Err(ModelError::DuplicateEdge(a, b))
        );
        // The reverse direction creates a cycle, caught by validate.
        g.add_data_edge(b, a, Bytes::new(1)).unwrap();
        assert!(matches!(
            g.validate(),
            Err(ModelError::CyclicPrecedence { .. })
        ));
    }

    #[test]
    fn validate_rejects_deserialized_edges_the_builder_would_refuse() {
        let mut g = TaskGraph::new("app");
        let a = g.add_task("a", "F", us(1.0), vec![]).unwrap();
        let b = g.add_task("b", "F", us(1.0), vec![]).unwrap();
        g.add_data_edge(a, b, Bytes::new(1)).unwrap();
        let json = g.to_json().unwrap();
        // The edge outlives its tasks, or loops on one task.
        let no_tasks = json.replacen(r#""tasks": ["#, r#""tasks": [], "old": ["#, 1);
        assert_eq!(
            TaskGraph::from_json(&no_tasks).unwrap_err(),
            ModelError::UnknownTask(a)
        );
        let self_edge = json.replacen(r#""to": 1"#, r#""to": 0"#, 1);
        assert_eq!(
            TaskGraph::from_json(&self_edge).unwrap_err(),
            ModelError::SelfEdge(a)
        );
        // The edge written twice (with another byte count).
        let start = json.find(r#""edges": ["#).unwrap() + r#""edges": ["#.len();
        let end = start + json[start..].find(']').unwrap();
        let edge = json[start..end].trim();
        let doubled = format!(
            "{}{edge}, {}{}",
            &json[..start],
            edge.replacen(r#""bytes": 1"#, r#""bytes": 2"#, 1),
            &json[end..]
        );
        assert_eq!(
            TaskGraph::from_json(&doubled).unwrap_err(),
            ModelError::DuplicateEdge(a, b)
        );
    }

    #[test]
    fn validate_rejects_deserialized_estimates_the_builder_would_refuse() {
        let mut g = TaskGraph::new("app");
        let imp = HwImpl::new(Clbs::new(8), us(2.0));
        let a = g.add_task("a", "F", us(4.0), vec![imp]).unwrap();
        let json = g.to_json().unwrap();
        for (from, to, what) in [
            (r#""sw_time": 4.0"#, r#""sw_time": -4.0"#, "software time"),
            (r#""sw_time": 4.0"#, r#""sw_time": 1e400"#, "software time"),
            (r#""time": 2.0"#, r#""time": -2.0"#, "hardware time"),
        ] {
            let err = TaskGraph::from_json(&json.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err, ModelError::InvalidTime { task: a, what }, "{to}");
        }
        let zero = json.replacen(r#""clbs": 8"#, r#""clbs": 0"#, 1);
        assert_eq!(
            TaskGraph::from_json(&zero).unwrap_err(),
            ModelError::EmptyImplementation(a)
        );
    }

    #[test]
    fn precedence_graph_mirrors_edges() {
        let mut g = TaskGraph::new("app");
        let a = g.add_task("a", "F", us(1.0), vec![]).unwrap();
        let b = g.add_task("b", "F", us(1.0), vec![]).unwrap();
        g.add_data_edge(a, b, Bytes::new(77)).unwrap();
        let pg = g.precedence_graph();
        assert_eq!(pg.n_edges(), 1);
        assert_eq!(pg.edge_weight(a.node(), b.node()), Some(77.0));
    }
}
