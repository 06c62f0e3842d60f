//! An adjacency-list directed graph with weighted edges.
//!
//! [`Digraph`] is built once by [`Digraph::add_edge`] calls and then only
//! read. It holds an application's precedence graph (the task graph of
//! the paper), feeds [`crate::topo`], [`crate::longest_path`] and
//! [`crate::linext`], and serves as the from-scratch reference the dense
//! engine is tested against. The search graph *G′* that annealing edits
//! on every move is not a `Digraph`: it lives in
//! [`crate::dense::DenseDag`], with labels and order maintained by
//! [`crate::dense::IncrementalLongestPath`].
//!
//! Parallel edges are allowed: the task graph may impose a precedence
//! between two tasks *and* a scheduling edge may join the same pair;
//! longest-path queries see the maximum weight among parallel edges.

use crate::GraphError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node in a [`Digraph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

/// A borrowed view of one edge, as yielded by [`Digraph::edges`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Tail (source) node.
    pub from: NodeId,
    /// Head (target) node.
    pub to: NodeId,
    /// Edge weight.
    pub weight: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct HalfEdge {
    to: NodeId,
    weight: f64,
}

/// Directed graph over nodes `0..n` with weighted edges.
///
/// # Examples
///
/// ```
/// use rdse_graph::{Digraph, NodeId};
///
/// # fn main() -> Result<(), rdse_graph::GraphError> {
/// let mut g = Digraph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), 1.5)?;
/// g.add_edge(NodeId(0), NodeId(2), 0.0)?;
/// assert_eq!(g.n_edges(), 2);
/// assert!(g.has_edge(NodeId(0), NodeId(1)));
/// assert!(!g.has_edge(NodeId(1), NodeId(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Digraph {
    succ: Vec<Vec<HalfEdge>>,
    pred: Vec<Vec<NodeId>>,
    n_edges: usize,
}

impl Digraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Digraph {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
            n_edges: 0,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.succ.len()
    }

    /// Number of edges (parallel edges counted individually).
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    fn check(&self, node: NodeId) -> Result<(), GraphError> {
        if node.index() >= self.n_nodes() {
            Err(GraphError::NodeOutOfBounds {
                node,
                n_nodes: self.n_nodes(),
            })
        } else {
            Ok(())
        }
    }

    /// Adds a directed edge `from → to` with the given weight.
    ///
    /// Parallel edges are allowed and are kept as distinct edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] for invalid endpoints and
    /// [`GraphError::SelfLoop`] if `from == to`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<(), GraphError> {
        self.check(from)?;
        self.check(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        self.succ[from.index()].push(HalfEdge { to, weight });
        self.pred[to.index()].push(from);
        self.n_edges += 1;
        Ok(())
    }

    /// Returns `true` if at least one edge `from → to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succ
            .get(from.index())
            .is_some_and(|s| s.iter().any(|e| e.to == to))
    }

    /// Maximum weight among parallel edges `from → to`, if any exist.
    pub fn edge_weight(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.succ
            .get(from.index())?
            .iter()
            .filter(|e| e.to == to)
            .map(|e| e.weight)
            .fold(None, |acc, w| match acc {
                None => Some(w),
                Some(a) => Some(a.max(w)),
            })
    }

    /// Iterates over the out-edges of `node` as `(target, weight)`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.succ[node.index()].iter().map(|e| (e.to, e.weight))
    }

    /// Iterates over the predecessor nodes of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.pred[node.index()].iter().copied()
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.succ[node.index()].len()
    }

    /// In-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.pred[node.index()].len()
    }

    /// Iterates over every edge in the graph.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.succ.iter().enumerate().flat_map(|(i, edges)| {
            edges.iter().map(move |e| EdgeRef {
                from: NodeId(i as u32),
                to: e.to,
                weight: e.weight,
            })
        })
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n_nodes() as u32).map(NodeId)
    }

    /// Nodes with no incoming edges.
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.in_degree(n) == 0)
    }

    /// Nodes with no outgoing edges.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.out_degree(n) == 0)
    }
}

impl fmt::Debug for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Digraph({} nodes, {} edges)",
            self.n_nodes(),
            self.n_edges()
        )?;
        for e in self.edges() {
            writeln!(f, "  {} -> {} [{}]", e.from, e.to, e.weight)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Digraph::new(4);
        g.add_edge(n(0), n(1), 1.0).unwrap();
        g.add_edge(n(1), n(2), 2.0).unwrap();
        g.add_edge(n(1), n(3), 3.0).unwrap();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.out_degree(n(1)), 2);
        assert_eq!(g.in_degree(n(1)), 1);
        assert_eq!(g.edge_weight(n(1), n(2)), Some(2.0));
        assert_eq!(g.edge_weight(n(2), n(1)), None);
        let preds: Vec<NodeId> = g.predecessors(n(3)).collect();
        assert_eq!(preds, vec![n(1)]);
    }

    #[test]
    fn parallel_edges_max_weight() {
        let mut g = Digraph::new(2);
        g.add_edge(n(0), n(1), 1.0).unwrap();
        g.add_edge(n(0), n(1), 5.0).unwrap();
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.edge_weight(n(0), n(1)), Some(5.0));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Digraph::new(2);
        assert_eq!(g.add_edge(n(1), n(1), 0.0), Err(GraphError::SelfLoop(n(1))));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut g = Digraph::new(2);
        assert!(matches!(
            g.add_edge(n(0), n(7), 0.0),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn sources_and_sinks() {
        let mut g = Digraph::new(3);
        g.add_edge(n(0), n(1), 0.0).unwrap();
        let sources: Vec<NodeId> = g.sources().collect();
        let sinks: Vec<NodeId> = g.sinks().collect();
        assert_eq!(sources, vec![n(0), n(2)]);
        assert_eq!(sinks, vec![n(1), n(2)]);
    }

    #[test]
    fn edges_iterator_counts() {
        let mut g = Digraph::new(3);
        g.add_edge(n(0), n(1), 1.0).unwrap();
        g.add_edge(n(0), n(2), 2.0).unwrap();
        g.add_edge(n(1), n(2), 3.0).unwrap();
        assert_eq!(g.edges().count(), 3);
        let total: f64 = g.edges().map(|e| e.weight).sum();
        assert_eq!(total, 6.0);
    }
}
