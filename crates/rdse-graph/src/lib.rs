//! Directed-graph substrate for design-space exploration.
//!
//! This crate provides the graph machinery that the DATE'05 exploration
//! tool of Miramond & Delosme is built on:
//!
//! * [`Digraph`] — an adjacency-list directed graph with weighted
//!   edges, the representation of an application's precedence graph
//!   and the from-scratch reference for the dense engine;
//! * [`dense::DenseDag`] — the search graph *G′* in CSR form (flat `u32`
//!   edge slabs, structure-of-arrays attributes) for read-mostly hot
//!   paths, plus [`dense::IncrementalLongestPath`], which keeps
//!   longest-path labels and a topological order up to date across
//!   deltas: only the span of the order a delta breaks is re-sorted, and
//!   only the order suffix from the first changed node is relabeled.
//!   Labels stay bit-identical to a from-scratch recompute (see the
//!   [`dense`] module docs for the determinism argument);
//! * [`topo`] — topological ordering and reachability;
//! * [`longest_path`] — DAG longest path (the solution cost of §4.4);
//! * [`linext`] — linear-extension counting, used to regenerate the
//!   solution-space sizes quoted in §5.
//!
//! # Examples
//!
//! ```
//! use rdse_graph::{Digraph, NodeId, longest_path::dag_longest_path};
//!
//! # fn main() -> Result<(), rdse_graph::GraphError> {
//! let mut g = Digraph::new(3);
//! g.add_edge(NodeId(0), NodeId(1), 2.0)?;
//! g.add_edge(NodeId(1), NodeId(2), 3.0)?;
//! let node_weights = [1.0, 1.0, 1.0];
//! let lp = dag_longest_path(&g, &node_weights)?;
//! assert_eq!(lp.makespan(), 8.0); // 1 + 2 + 1 + 3 + 1
//! # Ok(())
//! # }
//! ```

pub mod dense;
pub mod digraph;
pub mod linext;
pub mod longest_path;
pub mod topo;

pub use dense::{DenseDag, IncrementalLongestPath, RepairGraph, RepairStats};
pub use digraph::{Digraph, EdgeRef, NodeId};
pub use linext::{binomial, count_linear_extensions, parallel_chain_orders};
pub use longest_path::{dag_longest_path, LongestPath};
pub use topo::topo_sort;

use std::error::Error;
use std::fmt;

/// Errors produced by graph operations.
///
/// The `Display` form is lowercase without trailing punctuation per the
/// Rust API guidelines (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node index was outside `0..n_nodes()`.
    NodeOutOfBounds {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the graph.
        n_nodes: usize,
    },
    /// An edge would connect a node to itself.
    SelfLoop(NodeId),
    /// The graph contains a cycle where a DAG was required.
    Cycle {
        /// A node known to lie on the cycle.
        on_cycle: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, n_nodes } => {
                write!(
                    f,
                    "node {node} out of bounds for graph with {n_nodes} nodes"
                )
            }
            GraphError::SelfLoop(n) => write!(f, "self-loop on node {n} is not allowed"),
            GraphError::Cycle { on_cycle } => {
                write!(f, "graph contains a cycle through node {on_cycle}")
            }
        }
    }
}

impl Error for GraphError {}
