//! Data-oriented DAG storage and an incrementally repaired longest path.
//!
//! [`Digraph`] keeps one heap-allocated adjacency list per node; the
//! annealing hot path wants a fixed edge structure scanned millions of
//! times with mutable *weights*. [`DenseDag`] stores the graph in CSR
//! form — flat `u32` slabs for both edge directions, structure-of-arrays
//! node and edge attributes, each in-edge's weight inline next to its
//! source — so a longest-path relaxation touches contiguous memory and
//! no per-node `Vec` headers.
//!
//! On top of it, [`IncrementalLongestPath`] maintains completion labels
//! across deltas that change the weights or local edge structure
//! around a few nodes. It keeps a topological order alive next to the
//! labels and repairs both in two steps:
//!
//! * [`IncrementalLongestPath::resort_window`] — when a delta added
//!   edges that point backwards in the order, a Kahn pass over just
//!   the span of positions those edges break re-sorts it (Pearce and
//!   Kelly's dynamic topological order); a cycle closed by the delta
//!   lies inside that span, so the pass starves and reports it;
//! * [`IncrementalLongestPath::sweep_certified`] — a check-free
//!   relaxation sweep over the order suffix from the first changed
//!   node: one branch-light pass, no per-node bookkeeping.
//!
//! All label changes are journaled, so a rejected move rolls back to
//! bit-identical labels — including the maintained order, which is
//! snapshotted once per journal window.
//!
//! # Determinism
//!
//! Every completion label is `w(v) + max(0, max over in-edges (u,v):
//! comp(u) + w(u,v))` — a maximum over a finite candidate set. IEEE-754
//! `max` is order-independent in *value* for finite inputs, so the
//! label fixpoint on a DAG is unique: any relaxation schedule that
//! processes every node whose candidate set changed after all of its
//! predecessors (suffix sweep or full pass, over any topological
//! order) lands on the same bits. A sweep may also re-relax
//! *unchanged* nodes; that rewrites their labels with identical bits.
//!
//! No critical predecessor is stored:
//! [`IncrementalLongestPath::critical_path`] derives the path on demand
//! from the fixpoint labels. Each node's predecessor is chosen by a
//! strict `>` scan over its in-edges in storage order, which depends
//! only on the node's own candidate sequence, so the path is the same
//! whichever schedule produced the labels.

use crate::longest_path::LongestPath;
use crate::{Digraph, GraphError, NodeId};

/// A directed graph in CSR (compressed sparse row) form with mutable
/// node and edge weights but a fixed edge structure.
///
/// Edges keep their insertion index (*edge id*); both the out- and the
/// in-adjacency slabs preserve insertion order, so traversals enumerate
/// neighbours exactly as [`Digraph`] would after the same `add_edge`
/// sequence. Parallel edges and cycles are representable (cycles are
/// rejected by [`DenseDag::longest_path`], not by construction).
///
/// # Examples
///
/// ```
/// use rdse_graph::DenseDag;
///
/// # fn main() -> Result<(), rdse_graph::GraphError> {
/// let g = DenseDag::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)], &[1.0, 1.0, 1.0])?;
/// assert_eq!(g.longest_path()?.makespan(), 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseDag {
    n: usize,
    out_start: Vec<u32>,
    out_target: Vec<u32>,
    out_eid: Vec<u32>,
    in_start: Vec<u32>,
    in_source: Vec<u32>,
    in_eid: Vec<u32>,
    /// Weight of each in-slot's edge, parallel to `in_source`: a copy of
    /// `edge_w` laid out for the relaxation's in-edge scan.
    in_w: Vec<f64>,
    /// In-slot of each edge id (inverse of `in_eid`).
    in_slot: Vec<u32>,
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    edge_w: Vec<f64>,
    node_w: Vec<f64>,
}

impl DenseDag {
    /// Builds a dense graph over nodes `0..n` from an edge list.
    ///
    /// The edge id of `edges[i]` is `i`; adjacency slabs preserve the
    /// relative order of `edges` per source and per target.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] for invalid endpoints and
    /// [`GraphError::SelfLoop`] if any edge has equal endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `node_weights.len() != n`.
    pub fn from_edges(
        n: usize,
        edges: &[(u32, u32, f64)],
        node_weights: &[f64],
    ) -> Result<Self, GraphError> {
        assert_eq!(
            node_weights.len(),
            n,
            "node weight slice must match node count"
        );
        for &(u, v, _) in edges {
            for node in [u, v] {
                if node as usize >= n {
                    return Err(GraphError::NodeOutOfBounds {
                        node: NodeId(node),
                        n_nodes: n,
                    });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop(NodeId(u)));
            }
        }
        let m = edges.len();
        let mut out_start = vec![0u32; n + 1];
        let mut in_start = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            out_start[u as usize + 1] += 1;
            in_start[v as usize + 1] += 1;
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
            in_start[i + 1] += in_start[i];
        }
        let mut out_cursor: Vec<u32> = out_start[..n].to_vec();
        let mut in_cursor: Vec<u32> = in_start[..n].to_vec();
        let mut out_target = vec![0u32; m];
        let mut out_eid = vec![0u32; m];
        let mut in_source = vec![0u32; m];
        let mut in_eid = vec![0u32; m];
        let mut in_w = vec![0.0; m];
        let mut in_slot = vec![0u32; m];
        for (eid, &(u, v, w)) in edges.iter().enumerate() {
            let oc = &mut out_cursor[u as usize];
            out_target[*oc as usize] = v;
            out_eid[*oc as usize] = eid as u32;
            *oc += 1;
            let ic = &mut in_cursor[v as usize];
            in_source[*ic as usize] = u;
            in_eid[*ic as usize] = eid as u32;
            in_w[*ic as usize] = w;
            in_slot[eid] = *ic;
            *ic += 1;
        }
        Ok(DenseDag {
            n,
            out_start,
            out_target,
            out_eid,
            in_start,
            in_source,
            in_eid,
            in_w,
            in_slot,
            edge_from: edges.iter().map(|e| e.0).collect(),
            edge_to: edges.iter().map(|e| e.1).collect(),
            edge_w: edges.iter().map(|e| e.2).collect(),
            node_w: node_weights.to_vec(),
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges (parallel edges counted individually).
    pub fn n_edges(&self) -> usize {
        self.edge_w.len()
    }

    /// Weight of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn node_weight(&self, v: u32) -> f64 {
        self.node_w[v as usize]
    }

    /// Sets the weight of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn set_node_weight(&mut self, v: u32, weight: f64) {
        self.node_w[v as usize] = weight;
    }

    /// Weight of edge `eid`.
    ///
    /// # Panics
    ///
    /// Panics if `eid` is out of bounds.
    #[inline]
    pub fn edge_weight(&self, eid: u32) -> f64 {
        self.edge_w[eid as usize]
    }

    /// Sets the weight of edge `eid`.
    ///
    /// # Panics
    ///
    /// Panics if `eid` is out of bounds.
    #[inline]
    pub fn set_edge_weight(&mut self, eid: u32, weight: f64) {
        self.edge_w[eid as usize] = weight;
        if !cfg!(rdse_fault = "dense_in_w_stale") {
            self.in_w[self.in_slot[eid as usize] as usize] = weight;
        }
    }

    /// Endpoints `(from, to)` of edge `eid`.
    ///
    /// # Panics
    ///
    /// Panics if `eid` is out of bounds.
    #[inline]
    pub fn edge_endpoints(&self, eid: u32) -> (u32, u32) {
        (self.edge_from[eid as usize], self.edge_to[eid as usize])
    }

    /// Out-edges of `v` as `(target, edge id)`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn out_edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.out_start[v as usize] as usize;
        let hi = self.out_start[v as usize + 1] as usize;
        self.out_target[lo..hi]
            .iter()
            .copied()
            .zip(self.out_eid[lo..hi].iter().copied())
    }

    /// In-edges of `v` as `(source, edge id)`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn in_edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.in_start[v as usize] as usize;
        let hi = self.in_start[v as usize + 1] as usize;
        self.in_source[lo..hi]
            .iter()
            .copied()
            .zip(self.in_eid[lo..hi].iter().copied())
    }

    /// Converts back to an edit-friendly [`Digraph`] with the same edge
    /// insertion order (edge ids become insertion ranks).
    pub fn to_digraph(&self) -> Digraph {
        let mut g = Digraph::new(self.n);
        for eid in 0..self.edge_w.len() {
            g.add_edge(
                NodeId(self.edge_from[eid]),
                NodeId(self.edge_to[eid]),
                self.edge_w[eid],
            )
            .expect("DenseDag edges are valid by construction");
        }
        g
    }

    /// Topological order with ties broken by node index, mirroring
    /// [`crate::topo::topo_sort`] exactly.
    fn topo_order(&self) -> Result<Vec<u32>, GraphError> {
        let n = self.n;
        let mut in_deg: Vec<u32> = (0..n)
            .map(|v| self.in_start[v + 1] - self.in_start[v])
            .collect();
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&v| in_deg[v as usize] == 0).collect();
        frontier.sort_unstable_by_key(|&v| std::cmp::Reverse(v));
        let mut order = Vec::with_capacity(n);
        while let Some(v) = frontier.pop() {
            order.push(v);
            for (s, _) in self.out_edges(v) {
                let d = &mut in_deg[s as usize];
                *d -= 1;
                if *d == 0 {
                    let pos = frontier
                        .binary_search_by_key(&std::cmp::Reverse(s), |&x| std::cmp::Reverse(x));
                    let pos = pos.unwrap_or_else(|p| p);
                    frontier.insert(pos, s);
                }
            }
        }
        if order.len() != n {
            let on_cycle = (0..n)
                .find(|&v| in_deg[v] > 0)
                .expect("cycle implies a node with nonzero residual in-degree");
            return Err(GraphError::Cycle {
                on_cycle: NodeId(on_cycle as u32),
            });
        }
        Ok(order)
    }

    /// Longest path of the DAG, bit-identical to
    /// [`crate::longest_path::dag_longest_path`] on a [`Digraph`] built
    /// with the same edge insertion sequence (same labels, same
    /// critical predecessors, same terminal tie-breaks).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is not acyclic.
    pub fn longest_path(&self) -> Result<LongestPath, GraphError> {
        let order = self.topo_order()?;
        let n = self.n;
        let mut completion = vec![0.0_f64; n];
        let mut critical_pred: Vec<Option<NodeId>> = vec![None; n];
        let mut makespan = 0.0_f64;
        let mut terminal = None;
        for &v in &order {
            let mut best = 0.0_f64;
            let mut best_pred = None;
            // Mirror the reference enumeration: per predecessor *entry*,
            // scan all of that predecessor's out-edges towards `v`, so
            // parallel-edge tie-breaks agree with `dag_longest_path`.
            for (p, _) in self.in_edges(v) {
                for (s, eid) in self.out_edges(p) {
                    if s == v {
                        let cand = completion[p as usize] + self.edge_w[eid as usize];
                        if cand > best || (cfg!(rdse_fault = "dense_pred_tie_ge") && cand == best) {
                            best = cand;
                            best_pred = Some(NodeId(p));
                        }
                    }
                }
            }
            completion[v as usize] = best + self.node_w[v as usize];
            critical_pred[v as usize] = best_pred;
            if completion[v as usize] > makespan {
                makespan = completion[v as usize];
                terminal = Some(NodeId(v));
            }
        }
        Ok(LongestPath::from_parts(
            completion,
            critical_pred,
            makespan,
            terminal,
        ))
    }
}

/// A graph view the incremental longest path can relax over.
///
/// The two traversal methods take generic closures (monomorphized, no
/// virtual dispatch on the hot path) and must enumerate each edge
/// exactly once per direction, in a deterministic order. `for_each_in`
/// also yields the edge weight, since the pull-style relaxation only
/// ever needs weights on incoming edges. The relaxation itself asks
/// [`max_in`](Self::max_in), which a graph may answer without visiting
/// every in-edge.
pub trait RepairGraph {
    /// Number of nodes (labels are indexed `0..n_nodes()`).
    fn n_nodes(&self) -> usize;
    /// Weight of node `v`.
    fn node_weight(&self, v: u32) -> f64;
    /// Calls `f(target)` for every out-edge of `v`.
    fn for_each_out<F: FnMut(u32)>(&self, v: u32, f: F);
    /// Calls `f(source, weight)` for every in-edge of `v`.
    fn for_each_in<F: FnMut(u32, f64)>(&self, v: u32, f: F);
    /// Number of in-edges of `v`. The default counts via
    /// [`for_each_in`](Self::for_each_in); implementations with a
    /// closed form (e.g. CSR extents plus marker bits) should override
    /// it — [`IncrementalLongestPath`]'s full pass derives its Kahn
    /// in-degrees from this, skipping a whole edge enumeration.
    #[inline]
    fn in_degree(&self, v: u32) -> u32 {
        let mut d = 0u32;
        self.for_each_in(v, |_, _| d += 1);
        d
    }
    /// `max(0, max over in-edges (u, v): labels[u] + w(u, v))`, the part
    /// of `v`'s completion label its predecessors contribute. The
    /// default scans [`for_each_in`](Self::for_each_in); an override
    /// must return the same bits. It is called while `labels` is being
    /// relaxed in a topological order, so it may cache a value derived
    /// from labels that order has already finalized.
    #[inline]
    fn max_in(&self, v: u32, labels: &[f64]) -> f64 {
        let mut best = 0.0_f64;
        self.for_each_in(v, |u, w| {
            let cand = labels[u as usize] + w;
            if cand > best {
                best = cand;
            }
        });
        best
    }
}

impl RepairGraph for DenseDag {
    #[inline]
    fn n_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn node_weight(&self, v: u32) -> f64 {
        self.node_w[v as usize]
    }

    #[inline]
    fn for_each_out<F: FnMut(u32)>(&self, v: u32, mut f: F) {
        let lo = self.out_start[v as usize] as usize;
        let hi = self.out_start[v as usize + 1] as usize;
        for &t in &self.out_target[lo..hi] {
            f(t);
        }
    }

    #[inline]
    fn for_each_in<F: FnMut(u32, f64)>(&self, v: u32, mut f: F) {
        let lo = self.in_start[v as usize] as usize;
        let hi = self.in_start[v as usize + 1] as usize;
        for (&u, &w) in self.in_source[lo..hi].iter().zip(&self.in_w[lo..hi]) {
            f(u, w);
        }
    }

    #[inline]
    fn in_degree(&self, v: u32) -> u32 {
        self.in_start[v as usize + 1] - self.in_start[v as usize]
    }
}

/// Counters describing how the incremental longest path ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Certified suffix sweeps
    /// ([`IncrementalLongestPath::sweep_certified`] calls).
    pub repairs: u64,
    /// Full Kahn passes ([`IncrementalLongestPath::full`] calls).
    pub full_passes: u64,
    /// Window re-sorts ([`IncrementalLongestPath::resort_window`]
    /// calls), including those that found a cycle.
    pub fallbacks: u64,
    /// Most nodes relabeled by one sweep.
    pub max_cone: u64,
    /// Total nodes relabeled across all sweeps (for the mean).
    pub cone_nodes: u64,
}

impl RepairStats {
    /// Mean nodes relabeled per sweep (0 when no sweep ran).
    pub fn mean_cone(&self) -> f64 {
        if self.repairs == 0 {
            0.0
        } else {
            self.cone_nodes as f64 / self.repairs as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct JournalEntry {
    node: u32,
    comp: f64,
}

/// Longest-path labels kept up to date across deltas over a maintained
/// topological order.
///
/// The structure owns one completion label per node, plus a topological
/// order, kept consistent with some [`RepairGraph`] by the caller:
///
/// 1. [`full`](Self::full) computes labels and the order from scratch
///    (Kahn);
/// 2. after a delta, [`resort_window`](Self::resort_window) re-sorts
///    the span of the order the delta's added edges broke (or reports
///    the cycle they closed), and
///    [`sweep_certified`](Self::sweep_certified) relabels the order
///    suffix from the first changed node;
/// 3. [`rollback`](Self::rollback) undoes the label and order changes
///    made since the last [`discard_journal`](Self::discard_journal),
///    so a rejected annealing move costs one replay instead of a
///    recompute.
///
/// Labels after a sweep are bit-identical to a full recompute; see the
/// [module docs](self) for the argument.
///
/// # Examples
///
/// ```
/// use rdse_graph::{DenseDag, IncrementalLongestPath};
///
/// # fn main() -> Result<(), rdse_graph::GraphError> {
/// let mut g = DenseDag::from_edges(3, &[(0, 1, 0.0), (1, 2, 0.0)], &[1.0, 1.0, 1.0])?;
/// let mut lp = IncrementalLongestPath::new(3);
/// lp.full(&g)?;
/// lp.discard_journal();
/// assert_eq!(lp.makespan(), 3.0);
/// g.set_node_weight(1, 5.0);
/// // A weight-only delta keeps the order valid: relabel from node 1.
/// lp.sweep_certified(&g, lp.order_pos(1) as usize);
/// assert_eq!(lp.makespan(), 7.0);
/// lp.rollback();
/// assert_eq!(lp.makespan(), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalLongestPath {
    comp: Vec<f64>,
    indeg: Vec<u32>,
    /// Kahn scratch: a stack for the full pass, a FIFO queue (and the
    /// new order) for the window re-sort.
    frontier: Vec<u32>,
    journal: Vec<JournalEntry>,
    /// Maintained topological order (`ord[i]` is the node at position
    /// `i`; `pos` is its inverse): recorded by the full pass, patched by
    /// window re-sorts, and the relaxation schedule of the sweep.
    ord: Vec<u32>,
    pos: Vec<u32>,
    /// Pre-delta backup of `ord`/`pos`, snapshotted once per journal
    /// window by the first pass that overwrites them, so
    /// [`rollback`](Self::rollback) can restore the order along with
    /// the labels.
    ord_backup: Vec<u32>,
    pos_backup: Vec<u32>,
    ord_swapped: bool,
    stats: RepairStats,
}

impl IncrementalLongestPath {
    /// Creates label storage for `n` nodes.
    pub fn new(n: usize) -> Self {
        IncrementalLongestPath {
            comp: vec![0.0; n],
            indeg: vec![0; n],
            frontier: Vec::new(),
            journal: Vec::new(),
            ord: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
            ord_backup: vec![0; n],
            pos_backup: vec![0; n],
            ord_swapped: false,
            stats: RepairStats::default(),
        }
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// All completion labels, indexed by node.
    pub fn labels(&self) -> &[f64] {
        &self.comp
    }

    /// Completion label of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn label(&self, v: u32) -> f64 {
        self.comp[v as usize]
    }

    /// The longest-path value: the maximum completion label (0 for an
    /// empty graph).
    ///
    /// Scans four lanes at a time. Labels are never NaN or negative, so
    /// the maximum of the lane maxima is the maximum, bit for bit.
    pub fn makespan(&self) -> f64 {
        let max = |m: f64, x: f64| if x > m { x } else { m };
        let mut lanes = [0.0_f64; 4];
        let chunks = self.comp.chunks_exact(4);
        for &x in chunks.remainder() {
            lanes[0] = max(lanes[0], x);
        }
        for c in chunks {
            for (m, &x) in lanes.iter_mut().zip(c) {
                *m = max(*m, x);
            }
        }
        lanes.into_iter().fold(0.0, max)
    }

    /// One critical path of `g`, from a source to the lowest-indexed
    /// node achieving the makespan, in execution order. Empty if every
    /// label is zero or the graph has no nodes.
    ///
    /// Derived from the labels, which must be the fixpoint for `g` (as
    /// after [`full`](Self::full) or a certified sweep): each node's
    /// predecessor is the source of its largest in-edge candidate
    /// `label(u) + w(u, v)`, the earliest in [`RepairGraph::for_each_in`]
    /// order on a tie, and none if no candidate exceeds 0.
    pub fn critical_path<G: RepairGraph>(&self, g: &G) -> Vec<u32> {
        debug_assert_eq!(g.n_nodes(), self.comp.len(), "graph/label size mismatch");
        let mut best = 0.0_f64;
        let mut terminal = None;
        for (i, &c) in self.comp.iter().enumerate() {
            if c > best {
                best = c;
                terminal = Some(i as u32);
            }
        }
        let mut path = Vec::new();
        let mut cur = terminal;
        while let Some(v) = cur {
            path.push(v);
            let mut best = 0.0_f64;
            cur = None;
            g.for_each_in(v, |u, w| {
                let cand = self.comp[u as usize] + w;
                if cand > best {
                    best = cand;
                    cur = Some(u);
                }
            });
        }
        path.reverse();
        path
    }

    /// Number of label changes journaled by the most recent
    /// `full`/`sweep_certified` call.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Combined capacity of the reusable scratch vectors, for arena
    /// warmness accounting.
    pub fn scratch_capacity(&self) -> usize {
        self.frontier.capacity() + self.journal.capacity()
    }

    /// Recomputes every label with a full Kahn pass over `g`, relaxing
    /// each node as it is popped.
    ///
    /// Also records the pop order as the maintained order (any Kahn pop
    /// order is a topological order). Old labels are journaled and the
    /// previous order is backed up, so [`rollback`](Self::rollback)
    /// undoes this call. On a cycle the partially updated labels and
    /// order are left in place for the caller to roll back.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if `g` is not acyclic.
    pub fn full<G: RepairGraph>(&mut self, g: &G) -> Result<(), GraphError> {
        debug_assert_eq!(g.n_nodes(), self.comp.len(), "graph/label size mismatch");
        self.journal.clear();
        self.stats.full_passes += 1;
        let n = self.comp.len();
        self.backup_order();
        self.frontier.clear();
        for v in 0..n {
            let d = g.in_degree(v as u32);
            self.indeg[v] = d;
            if d == 0 {
                self.frontier.push(v as u32);
            }
        }
        let mut processed = 0usize;
        while let Some(v) = self.frontier.pop() {
            self.ord[processed] = v;
            self.pos[v as usize] = processed as u32;
            processed += 1;
            self.relax(g, v);
            let (indeg, frontier) = (&mut self.indeg, &mut self.frontier);
            g.for_each_out(v, |t| {
                let d = &mut indeg[t as usize];
                *d -= 1;
                if *d == 0 {
                    frontier.push(t);
                }
            });
        }
        if processed != n {
            let on_cycle = (0..n)
                .find(|&v| self.indeg[v] > 0)
                .expect("cycle implies a node with nonzero residual in-degree");
            return Err(GraphError::Cycle {
                on_cycle: NodeId(on_cycle as u32),
            });
        }
        Ok(())
    }

    /// Position of `v` in the maintained topological order (see
    /// [`resort_window`](Self::resort_window) and
    /// [`sweep_certified`](Self::sweep_certified)).
    #[inline]
    pub fn order_pos(&self, v: u32) -> u32 {
        self.pos[v as usize]
    }

    /// Re-sorts the nodes at order positions `lo..=hi` with a Kahn pass
    /// restricted to them (in-degrees count only in-window sources) and
    /// writes the new order back into those positions; every node
    /// outside the window keeps its position.
    ///
    /// This is the dynamic topological order update of Pearce and Kelly
    /// (ACM JEA 11, 2006): after a delta, take `lo` as the smallest
    /// head position and `hi` as the largest tail position over the
    /// edges that now point backwards in the order. No edge then enters
    /// the window from behind `hi` or leaves it towards before `lo`, so
    /// every cycle lies inside the window, and a topological order of
    /// the window's nodes makes the whole order topological again.
    ///
    /// The pass changes no label. The order change participates in the
    /// journal window: [`rollback`](Self::rollback) restores it. Counts
    /// a `fallbacks` tick.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the pass starves, i.e. the
    /// window's nodes contain a cycle; the order is then unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` is not a valid position.
    pub fn resort_window<G: RepairGraph>(
        &mut self,
        g: &G,
        lo: usize,
        hi: usize,
    ) -> Result<(), GraphError> {
        debug_assert_eq!(g.n_nodes(), self.comp.len(), "graph/label size mismatch");
        assert!(lo <= hi, "empty re-sort window {lo}..={hi}");
        self.stats.fallbacks += 1;
        let (lo32, span) = (lo as u32, (hi - lo) as u32);
        let in_window = |p: u32| p.wrapping_sub(lo32) <= span;
        self.frontier.clear();
        for &v in &self.ord[lo..=hi] {
            let pos = &self.pos;
            let mut d = 0u32;
            g.for_each_in(v, |u, _| d += in_window(pos[u as usize]) as u32);
            self.indeg[v as usize] = d;
            if d == 0 {
                self.frontier.push(v);
            }
        }
        // FIFO Kahn seeded in position order: `frontier` doubles as the
        // queue and the new order.
        let mut head = 0;
        while head < self.frontier.len() {
            let v = self.frontier[head];
            head += 1;
            let (pos, indeg, frontier) = (&self.pos, &mut self.indeg, &mut self.frontier);
            g.for_each_out(v, |t| {
                if in_window(pos[t as usize]) {
                    let d = &mut indeg[t as usize];
                    *d -= 1;
                    if *d == 0 {
                        frontier.push(t);
                    }
                }
            });
        }
        if self.frontier.len() != hi - lo + 1 {
            let on_cycle = self.ord[lo..=hi]
                .iter()
                .copied()
                .find(|&v| self.indeg[v as usize] > 0)
                .expect("starved window implies a node with nonzero residual in-degree");
            return Err(GraphError::Cycle {
                on_cycle: NodeId(on_cycle),
            });
        }
        self.backup_order();
        for (i, &v) in (lo..).zip(&self.frontier) {
            self.ord[i] = v;
            self.pos[v as usize] = i as u32;
        }
        Ok(())
    }

    /// Relaxes every node at order positions `start..n` in one plain
    /// forward pass, with **no** safety net: the caller must have
    /// certified that the maintained order is a valid topological order
    /// of the current graph (no edge points backwards, e.g. after
    /// [`resort_window`](Self::resort_window) over the span any added
    /// edge broke). A valid order proves the graph acyclic, so this
    /// cannot fail; labels reach the unique fixpoint because each node
    /// is relaxed after all its predecessors. `start` must be at or
    /// before the first position whose node's weight or in-edge
    /// candidate set changed. Old labels are journaled, so
    /// [`rollback`](Self::rollback) undoes this call.
    pub fn sweep_certified<G: RepairGraph>(&mut self, g: &G, start: usize) {
        debug_assert_eq!(g.n_nodes(), self.comp.len(), "graph/label size mismatch");
        self.journal.clear();
        let n = self.comp.len();
        let start = start.min(n);
        for i in start..n {
            let v = self.ord[i];
            self.relax(g, v);
        }
        let processed = n - start;
        self.stats.repairs += 1;
        self.stats.max_cone = self.stats.max_cone.max(processed as u64);
        self.stats.cone_nodes += processed as u64;
    }

    /// Undoes the label changes of the most recent `full`/
    /// `sweep_certified` call. Idempotent once drained; statistics are
    /// not rewound.
    ///
    /// If a full pass or a window re-sort overwrote the maintained
    /// order within this journal window, the pre-delta order is
    /// restored too, so the order stays valid for the graph the caller
    /// is rolling back to.
    pub fn rollback(&mut self) {
        while let Some(e) = self.journal.pop() {
            self.comp[e.node as usize] = e.comp;
        }
        if self.ord_swapped {
            std::mem::swap(&mut self.ord, &mut self.ord_backup);
            std::mem::swap(&mut self.pos, &mut self.pos_backup);
            self.ord_swapped = false;
        }
    }

    /// Drops the undo journal without applying it, committing the label
    /// and order changes made since the last call. After this,
    /// [`rollback`](Self::rollback) is a no-op until the next change.
    /// Callers that interleave label updates with other revertible
    /// state use this to mark a delta boundary: a later abort that
    /// never re-ran a sweep must not roll labels back across it.
    pub fn discard_journal(&mut self) {
        self.journal.clear();
        self.ord_swapped = false;
    }

    /// Snapshots `ord`/`pos` before their first overwrite in this
    /// journal window.
    fn backup_order(&mut self) {
        if !self.ord_swapped {
            self.ord_backup.copy_from_slice(&self.ord);
            self.pos_backup.copy_from_slice(&self.pos);
            self.ord_swapped = true;
        }
    }

    /// Recomputes the label of `v` from its in-edges, journaling the old
    /// value if it changed.
    #[inline]
    fn relax<G: RepairGraph>(&mut self, g: &G, v: u32) {
        let label = g.max_in(v, &self.comp) + g.node_weight(v);
        let old = &mut self.comp[v as usize];
        if label.to_bits() != old.to_bits() {
            self.journal.push(JournalEntry {
                node: v,
                comp: *old,
            });
            *old = label;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longest_path::dag_longest_path;

    fn chain3() -> DenseDag {
        DenseDag::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)], &[1.0, 1.0, 1.0]).unwrap()
    }

    #[test]
    fn from_edges_validates() {
        assert!(matches!(
            DenseDag::from_edges(2, &[(0, 5, 1.0)], &[0.0, 0.0]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            DenseDag::from_edges(2, &[(1, 1, 1.0)], &[0.0, 0.0]),
            Err(GraphError::SelfLoop(_))
        ));
    }

    #[test]
    fn adjacency_preserves_insertion_order() {
        let g = DenseDag::from_edges(
            4,
            &[(0, 2, 1.0), (0, 1, 2.0), (3, 2, 3.0), (0, 2, 4.0)],
            &[0.0; 4],
        )
        .unwrap();
        let out0: Vec<(u32, u32)> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(2, 0), (1, 1), (2, 3)]);
        let in2: Vec<(u32, u32)> = g.in_edges(2).collect();
        assert_eq!(in2, vec![(0, 0), (3, 2), (0, 3)]);
        assert_eq!(g.edge_endpoints(2), (3, 2));
        assert_eq!(g.n_edges(), 4);
    }

    #[test]
    fn longest_path_matches_digraph_reference() {
        // Same graph as the brute-force test in longest_path.rs, plus a
        // parallel edge to exercise the tie-break mirroring.
        let edges = [
            (0, 1, 2.0),
            (0, 2, 1.0),
            (1, 3, 0.5),
            (2, 3, 4.0),
            (3, 4, 0.0),
            (2, 5, 1.0),
            (4, 5, 2.5),
            (2, 3, 4.0),
        ];
        let w = [1.0, 2.0, 3.0, 1.0, 2.0, 1.0];
        let dense = DenseDag::from_edges(6, &edges, &w).unwrap();
        let sparse = dense.to_digraph();
        let a = dense.longest_path().unwrap();
        let b = dag_longest_path(&sparse, &w).unwrap();
        assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
        for v in 0..6u32 {
            assert_eq!(
                a.completion(NodeId(v)).to_bits(),
                b.completion(NodeId(v)).to_bits()
            );
        }
        assert_eq!(a.critical_path(), b.critical_path());
    }

    #[test]
    fn tied_candidates_keep_the_first_predecessor() {
        // Node 2's two in-edges offer the same candidate 3.0: the
        // reference keeps the first (strict `>`), so the path runs
        // through 0, not 1.
        let w = [2.0, 2.0, 1.0];
        let dense = DenseDag::from_edges(3, &[(0, 2, 1.0), (1, 2, 1.0)], &w).unwrap();
        let reference = dag_longest_path(&dense.to_digraph(), &w).unwrap();
        assert_eq!(reference.critical_path(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(
            dense.longest_path().unwrap().critical_path(),
            reference.critical_path()
        );
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&dense).unwrap();
        assert_eq!(lp.critical_path(&dense), vec![0, 2]);
    }

    #[test]
    fn edge_weight_updates_reach_the_in_edge_scan() {
        let mut g = chain3();
        g.set_edge_weight(1, 7.0);
        assert_eq!(g.edge_weight(1), 7.0);
        let mut seen = Vec::new();
        g.for_each_in(2, |u, w| seen.push((u, w)));
        assert_eq!(seen, vec![(1, 7.0)]);
    }

    #[test]
    fn makespan_scans_every_lane_and_the_remainder() {
        // Nine isolated nodes: the maximum sits in each lane and in the
        // remainder in turn.
        for hot in 0..9 {
            let w: Vec<f64> = (0..9).map(|i| if i == hot { 5.0 } else { 1.0 }).collect();
            let g = DenseDag::from_edges(9, &[], &w).unwrap();
            let mut lp = IncrementalLongestPath::new(9);
            lp.full(&g).unwrap();
            assert_eq!(lp.makespan(), 5.0, "maximum at node {hot}");
            assert_eq!(lp.critical_path(&g), vec![hot as u32]);
        }
        assert_eq!(IncrementalLongestPath::new(0).makespan(), 0.0);
    }

    #[test]
    fn cycle_rejected_with_same_witness() {
        let dense = DenseDag::from_edges(3, &[(1, 2, 0.0), (2, 1, 0.0)], &[0.0; 3]).unwrap();
        assert_eq!(
            dense.longest_path(),
            Err(GraphError::Cycle {
                on_cycle: NodeId(1)
            })
        );
        let mut lp = IncrementalLongestPath::new(3);
        assert_eq!(
            lp.full(&dense),
            Err(GraphError::Cycle {
                on_cycle: NodeId(1)
            })
        );
    }

    /// Edge-list graph whose structure a test can edit between passes.
    struct EdgeList {
        w: Vec<f64>,
        edges: Vec<(u32, u32, f64)>,
    }

    impl RepairGraph for EdgeList {
        fn n_nodes(&self) -> usize {
            self.w.len()
        }

        fn node_weight(&self, v: u32) -> f64 {
            self.w[v as usize]
        }

        fn for_each_out<F: FnMut(u32)>(&self, v: u32, mut f: F) {
            for &(a, b, _) in &self.edges {
                if a == v {
                    f(b);
                }
            }
        }

        fn for_each_in<F: FnMut(u32, f64)>(&self, v: u32, mut f: F) {
            for &(a, b, w) in &self.edges {
                if b == v {
                    f(a, w);
                }
            }
        }
    }

    /// Two disjoint chains `0 -> 1` and `2 -> 3`; the full pass records
    /// the order `[2, 3, 0, 1]`.
    fn two_chains() -> (EdgeList, IncrementalLongestPath) {
        let g = EdgeList {
            w: vec![1.0, 2.0, 3.0, 4.0],
            edges: vec![(0, 1, 0.5), (2, 3, 0.5)],
        };
        let mut lp = IncrementalLongestPath::new(4);
        lp.full(&g).unwrap();
        lp.discard_journal();
        assert_eq!(order(&lp), vec![2, 3, 0, 1]);
        (g, lp)
    }

    fn order(lp: &IncrementalLongestPath) -> Vec<u32> {
        let mut ord = vec![0; lp.labels().len()];
        for v in 0..ord.len() as u32 {
            ord[lp.order_pos(v) as usize] = v;
        }
        ord
    }

    fn label_bits(lp: &IncrementalLongestPath) -> Vec<u64> {
        lp.labels().iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn sweep_relabels_the_suffix_from_the_first_seed() {
        let mut g = chain3();
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&g).unwrap();
        lp.discard_journal();
        assert_eq!(lp.makespan(), 8.0);
        assert_eq!(lp.labels(), &[1.0, 4.0, 8.0]);
        g.set_node_weight(1, 3.0);
        lp.sweep_certified(&g, lp.order_pos(1) as usize);
        assert_eq!(lp.labels(), &[1.0, 6.0, 10.0]);
        assert_eq!(lp.critical_path(&g), vec![0, 1, 2]);
        let stats = lp.stats();
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.full_passes, 1);
        assert_eq!(stats.max_cone, 2);
        assert_eq!(stats.mean_cone(), 2.0);
    }

    #[test]
    fn rollback_restores_previous_labels() {
        let mut g = chain3();
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&g).unwrap();
        lp.discard_journal();
        let before = label_bits(&lp);
        g.set_node_weight(0, 9.0);
        g.set_edge_weight(1, 7.0);
        let start = lp.order_pos(0).min(lp.order_pos(2));
        lp.sweep_certified(&g, start as usize);
        assert_eq!(lp.makespan(), 20.0);
        lp.rollback();
        assert_eq!(before, label_bits(&lp));
        assert_eq!(lp.makespan(), 8.0);
    }

    #[test]
    fn resort_window_restores_a_topological_order() {
        let (mut g, mut lp) = two_chains();
        // `1 -> 2` points backwards: head 2 at position 0, tail 1 at 3.
        g.edges.push((1, 2, 0.25));
        lp.resort_window(&g, 0, 3).unwrap();
        assert_eq!(order(&lp), vec![0, 1, 2, 3]);
        lp.sweep_certified(&g, lp.order_pos(2) as usize);
        let mut fresh = IncrementalLongestPath::new(4);
        fresh.full(&g).unwrap();
        assert_eq!(label_bits(&lp), label_bits(&fresh));
        assert_eq!(lp.critical_path(&g), vec![0, 1, 2, 3]);
        let stats = lp.stats();
        assert_eq!(
            (stats.fallbacks, stats.repairs, stats.full_passes),
            (1, 1, 1)
        );
    }

    #[test]
    fn sweep_matches_full_and_journals_only_changed_labels() {
        // Diamond where only one branch matters: bumping the slack
        // branch below the critical one must not change the join.
        let mut g = DenseDag::from_edges(
            4,
            &[(0, 1, 0.0), (0, 2, 0.0), (1, 3, 0.0), (2, 3, 0.0)],
            &[1.0, 10.0, 2.0, 1.0],
        )
        .unwrap();
        let mut lp = IncrementalLongestPath::new(4);
        lp.full(&g).unwrap();
        lp.discard_journal();
        assert_eq!(lp.labels(), &[1.0, 11.0, 3.0, 12.0]);
        g.set_node_weight(2, 4.0);
        lp.sweep_certified(&g, lp.order_pos(2) as usize);
        assert_eq!(lp.labels(), &[1.0, 11.0, 5.0, 12.0]);
        // 5 < 11, so the join keeps its label and only node 2 is
        // journaled.
        assert_eq!(lp.journal_len(), 1);
        // A change that does move the join propagates and matches a
        // from-scratch pass bit for bit.
        lp.discard_journal();
        g.set_node_weight(2, 20.0);
        lp.sweep_certified(&g, lp.order_pos(2) as usize);
        let mut fresh = IncrementalLongestPath::new(4);
        fresh.full(&g).unwrap();
        assert_eq!(label_bits(&lp), label_bits(&fresh));
        assert_eq!(lp.critical_path(&g), fresh.critical_path(&g));
    }

    #[test]
    fn rollback_after_a_window_resort_restores_order_and_labels() {
        let (mut g, mut lp) = two_chains();
        let before = label_bits(&lp);
        g.edges.push((1, 2, 0.25));
        g.w[0] = 9.0;
        lp.resort_window(&g, 0, 3).unwrap();
        lp.sweep_certified(&g, lp.order_pos(0) as usize);
        assert_eq!(lp.makespan(), 19.25);
        lp.rollback();
        assert_eq!(order(&lp), vec![2, 3, 0, 1]);
        assert_eq!(before, label_bits(&lp));
    }

    #[test]
    fn resort_window_reports_a_cycle_and_keeps_the_order() {
        let (mut g, mut lp) = two_chains();
        // `1 -> 2` and `3 -> 0` close the cycle 0 -> 1 -> 2 -> 3 -> 0.
        g.edges.push((1, 2, 0.0));
        g.edges.push((3, 0, 0.0));
        assert!(matches!(
            lp.resort_window(&g, 0, 3),
            Err(GraphError::Cycle { .. })
        ));
        assert_eq!(order(&lp), vec![2, 3, 0, 1]);
        assert_eq!(lp.journal_len(), 0);
        assert_eq!(lp.stats().fallbacks, 1);
        lp.rollback();
        assert_eq!(order(&lp), vec![2, 3, 0, 1]);
    }

    #[test]
    fn empty_sweep_is_a_cheap_no_op() {
        let g = chain3();
        let mut lp = IncrementalLongestPath::new(3);
        lp.full(&g).unwrap();
        lp.sweep_certified(&g, 3);
        assert_eq!(lp.makespan(), 8.0);
        assert_eq!(lp.journal_len(), 0);
        assert_eq!(lp.stats().repairs, 1);
        assert_eq!(lp.stats().cone_nodes, 0);
    }
}
