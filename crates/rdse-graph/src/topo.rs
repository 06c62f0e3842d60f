//! Topological ordering and reachability.

use crate::{Digraph, GraphError, NodeId};

/// Computes a topological order of `g` with Kahn's algorithm.
///
/// Ties are broken by node index so the order is deterministic.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if the graph is not acyclic.
///
/// # Examples
///
/// ```
/// use rdse_graph::{Digraph, NodeId, topo_sort};
///
/// # fn main() -> Result<(), rdse_graph::GraphError> {
/// let mut g = Digraph::new(3);
/// g.add_edge(NodeId(2), NodeId(0), 0.0)?;
/// g.add_edge(NodeId(0), NodeId(1), 0.0)?;
/// assert_eq!(topo_sort(&g)?, vec![NodeId(2), NodeId(0), NodeId(1)]);
/// # Ok(())
/// # }
/// ```
pub fn topo_sort(g: &Digraph) -> Result<Vec<NodeId>, GraphError> {
    let n = g.n_nodes();
    let mut in_deg: Vec<usize> = (0..n).map(|i| g.in_degree(NodeId(i as u32))).collect();
    // Min-index-first queue for determinism: a simple binary heap over
    // Reverse(ids) would do, but a sorted frontier vector is fine at the
    // graph sizes involved (tens to hundreds of tasks).
    let mut frontier: Vec<NodeId> = g.sources().collect();
    frontier.sort_unstable_by_key(|n| std::cmp::Reverse(*n));
    let mut order = Vec::with_capacity(n);
    while let Some(v) = frontier.pop() {
        order.push(v);
        for (s, _) in g.successors(v) {
            in_deg[s.index()] -= 1;
            if in_deg[s.index()] == 0 {
                let pos =
                    frontier.binary_search_by_key(&std::cmp::Reverse(s), |n| std::cmp::Reverse(*n));
                let pos = pos.unwrap_or_else(|p| p);
                frontier.insert(pos, s);
            }
        }
    }
    if order.len() != n {
        let on_cycle = (0..n)
            .map(|i| NodeId(i as u32))
            .find(|v| in_deg[v.index()] > 0)
            .expect("cycle implies a node with nonzero residual in-degree");
        return Err(GraphError::Cycle { on_cycle });
    }
    Ok(order)
}

/// Depth-first reachability: is there a directed path `from → … → to`?
///
/// `from == to` counts as reachable (the empty path). Inserting an edge
/// `u → v` into a DAG closes a cycle exactly when `reaches(g, v, u)`.
pub fn reaches(g: &Digraph, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![false; g.n_nodes()];
    let mut stack = vec![from];
    seen[from.index()] = true;
    while let Some(v) = stack.pop() {
        for (s, _) in g.successors(v) {
            if s == to {
                return true;
            }
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn topo_sort_chain() {
        let mut g = Digraph::new(4);
        g.add_edge(n(3), n(2), 0.0).unwrap();
        g.add_edge(n(2), n(1), 0.0).unwrap();
        g.add_edge(n(1), n(0), 0.0).unwrap();
        assert_eq!(topo_sort(&g).unwrap(), vec![n(3), n(2), n(1), n(0)]);
    }

    #[test]
    fn topo_sort_deterministic_ties() {
        let mut g = Digraph::new(4);
        g.add_edge(n(1), n(3), 0.0).unwrap();
        g.add_edge(n(2), n(3), 0.0).unwrap();
        // 0, 1, 2 are all sources: expect index order.
        assert_eq!(topo_sort(&g).unwrap(), vec![n(0), n(1), n(2), n(3)]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = Digraph::new(3);
        g.add_edge(n(0), n(1), 0.0).unwrap();
        g.add_edge(n(1), n(2), 0.0).unwrap();
        g.add_edge(n(2), n(0), 0.0).unwrap();
        assert!(matches!(topo_sort(&g), Err(GraphError::Cycle { .. })));
    }

    #[test]
    fn empty_graph_sorts_to_empty_order() {
        let g = Digraph::new(0);
        assert!(topo_sort(&g).unwrap().is_empty());
    }

    #[test]
    fn reaches_basic() {
        let mut g = Digraph::new(4);
        g.add_edge(n(0), n(1), 0.0).unwrap();
        g.add_edge(n(1), n(2), 0.0).unwrap();
        assert!(reaches(&g, n(0), n(2)));
        assert!(reaches(&g, n(2), n(2)));
        assert!(!reaches(&g, n(2), n(0)));
        assert!(!reaches(&g, n(0), n(3)));
    }
}
