//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rdse_graph::{
    count_linear_extensions, dag_longest_path, topo_sort, DenseDag, Digraph, GraphError,
    IncrementalLongestPath, NodeId, RepairGraph,
};

/// Strategy: a random DAG over `n` nodes. Edges only go from lower to
/// higher index, which guarantees acyclicity by construction.
fn arb_dag(max_nodes: usize, edge_prob: f64) -> impl Strategy<Value = Digraph> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                .collect();
            let n_pairs = pairs.len();
            (
                Just(n),
                Just(pairs),
                proptest::collection::vec(any::<f64>(), n_pairs),
                proptest::collection::vec(proptest::bool::weighted(edge_prob), n_pairs),
            )
        })
        .prop_map(|(n, pairs, weights, mask)| {
            let mut g = Digraph::new(n);
            for ((&(u, v), w), &keep) in pairs.iter().zip(&weights).zip(&mask) {
                if keep {
                    let w = (w.abs() % 100.0).max(0.0);
                    let w = if w.is_finite() { w } else { 1.0 };
                    g.add_edge(NodeId(u as u32), NodeId(v as u32), w).unwrap();
                }
            }
            g
        })
}

/// Strategy: node count plus an acyclic edge list (low → high index) in
/// a fixed insertion order, for building [`DenseDag`]s and reference
/// [`Digraph`]s from identical input.
fn arb_dense_edges(
    max_nodes: usize,
    edge_prob: f64,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            let pairs: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
                .collect();
            let n_pairs = pairs.len();
            (
                Just(n),
                Just(pairs),
                proptest::collection::vec(0.0f64..100.0, n_pairs),
                proptest::collection::vec(proptest::bool::weighted(edge_prob), n_pairs),
            )
        })
        .prop_map(|(n, pairs, weights, mask)| {
            let edges = pairs
                .iter()
                .zip(&weights)
                .zip(&mask)
                .filter(|&(_, &keep)| keep)
                .map(|((&(u, v), &w), _)| (u, v, w))
                .collect();
            (n, edges)
        })
}

/// One weight delta: on-node flag, position selector (reduced modulo
/// the node/edge count at use site), new weight.
type WeightDelta = (bool, usize, f64);

/// Strategy: a walk of 1–9 weight deltas.
fn arb_delta_walk() -> impl Strategy<Value = Vec<WeightDelta>> {
    proptest::collection::vec((any::<bool>(), 0usize..1 << 20, 0.0f64..100.0), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topo_sort_respects_edges(g in arb_dag(24, 0.3)) {
        let order = topo_sort(&g).unwrap();
        prop_assert_eq!(order.len(), g.n_nodes());
        let mut pos = vec![0usize; g.n_nodes()];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for e in g.edges() {
            prop_assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn longest_path_dominates_node_weights(g in arb_dag(20, 0.3)) {
        let w: Vec<f64> = (0..g.n_nodes()).map(|i| (i % 7) as f64 + 1.0).collect();
        let lp = dag_longest_path(&g, &w).unwrap();
        for v in g.nodes() {
            prop_assert!(lp.completion(v) >= w[v.index()]);
        }
        let max_w = w.iter().cloned().fold(0.0, f64::max);
        prop_assert!(lp.makespan() >= max_w);
        // Critical path weights (plus edge weights) sum to the makespan.
        let path = lp.critical_path();
        let mut total = 0.0;
        for (i, v) in path.iter().enumerate() {
            total += w[v.index()];
            if i + 1 < path.len() {
                total += g.edge_weight(*v, path[i + 1]).unwrap_or(0.0);
            }
        }
        prop_assert!((total - lp.makespan()).abs() < 1e-9);
    }

    #[test]
    fn longest_path_monotone_under_edge_insertion(g in arb_dag(16, 0.25)) {
        let w: Vec<f64> = vec![1.0; g.n_nodes()];
        let lp0 = dag_longest_path(&g, &w).unwrap().makespan();
        let mut g2 = g.clone();
        // Insert the first safe edge we find: `u → v` closes a cycle
        // exactly when `v` already reaches `u`.
        'outer: for u in g.nodes() {
            for v in g.nodes() {
                if u != v && !rdse_graph::topo::reaches(&g, v, u) && !g.has_edge(u, v) {
                    g2.add_edge(u, v, 2.0).unwrap();
                    break 'outer;
                }
            }
        }
        let lp1 = dag_longest_path(&g2, &w).unwrap().makespan();
        prop_assert!(lp1 >= lp0);
    }

    #[test]
    fn linext_positive_and_bounded_by_factorial(g in arb_dag(8, 0.3)) {
        let count = count_linear_extensions(&g, None).unwrap();
        prop_assert!(count >= 1);
        let fact: u128 = (1..=g.n_nodes() as u128).product();
        prop_assert!(count <= fact);
        // A graph with no edges must reach the factorial exactly.
        if g.n_edges() == 0 {
            prop_assert_eq!(count, fact);
        }
    }
}

/// One structural edit: insert (`true`) or delete, plus two selectors
/// reduced modulo the node/edge count at use site.
type EdgeEdit = (bool, usize, usize);

/// Strategy: 1–7 structural edits.
fn arb_edge_edits() -> impl Strategy<Value = Vec<EdgeEdit>> {
    proptest::collection::vec((any::<bool>(), 0usize..1 << 20, 0usize..1 << 20), 1..8)
}

/// Edge-list graph whose structure can change between passes (a
/// [`DenseDag`] fixes its edges at construction).
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

// Note: the proptest macro takes plain identifiers on the left of
// `in`, so composite values are destructured inside the body.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_longest_path_matches_digraph(input in arb_dense_edges(20, 0.3)) {
        let (n, edges) = input;
        let node_w: Vec<f64> = (0..n).map(|i| (i % 7) as f64 + 0.5).collect();
        let dense = DenseDag::from_edges(n, &edges, &node_w).unwrap();
        let mut sparse = Digraph::new(n);
        for &(u, v, w) in &edges {
            sparse.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        let a = dense.longest_path().unwrap();
        let b = dag_longest_path(&sparse, &node_w).unwrap();
        prop_assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
        for v in 0..n as u32 {
            prop_assert_eq!(
                a.completion(NodeId(v)).to_bits(),
                b.completion(NodeId(v)).to_bits()
            );
        }
        prop_assert_eq!(a.critical_path(), b.critical_path());
        // The incremental structure's full pass lands on the same labels.
        let mut lp = IncrementalLongestPath::new(n);
        lp.full(&dense).unwrap();
        for v in 0..n as u32 {
            prop_assert_eq!(lp.label(v).to_bits(), a.completion(NodeId(v)).to_bits());
        }
    }

    #[test]
    fn bounded_repair_equals_full_recompute(
        input in arb_dense_edges(18, 0.3),
        deltas in arb_delta_walk()
    ) {
        // Weight-only deltas keep the maintained order valid, so a
        // sweep from the first seed's position is a complete repair.
        let (n, edges) = input;
        let node_w: Vec<f64> = (0..n).map(|i| (i % 5) as f64 + 0.5).collect();
        let mut g = DenseDag::from_edges(n, &edges, &node_w).unwrap();
        let mut lp = IncrementalLongestPath::new(n);
        lp.full(&g).unwrap();
        for (on_node, idx, w) in deltas {
            lp.discard_journal();
            let seed = if on_node || g.n_edges() == 0 {
                let v = (idx % n) as u32;
                g.set_node_weight(v, w);
                v
            } else {
                let eid = (idx % g.n_edges()) as u32;
                g.set_edge_weight(eid, w);
                g.edge_endpoints(eid).1
            };
            lp.sweep_certified(&g, lp.order_pos(seed) as usize);
            let mut fresh = IncrementalLongestPath::new(n);
            fresh.full(&g).unwrap();
            let got: Vec<u64> = lp.labels().iter().map(|c| c.to_bits()).collect();
            let want: Vec<u64> = fresh.labels().iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(lp.makespan().to_bits(), fresh.makespan().to_bits());
            prop_assert_eq!(lp.critical_path(&g), fresh.critical_path(&g));
        }
        prop_assert_eq!(lp.stats().full_passes, 1);
    }

    #[test]
    fn tied_weights_keep_critical_paths_agreeing(
        input in arb_dense_edges(18, 0.35),
        deltas in arb_delta_walk()
    ) {
        // Weights in {0, 1, 2, 3} make equal candidates common, so the
        // strict `>` tie-breaks decide the critical paths.
        let (n, edges) = input;
        let edges: Vec<(u32, u32, f64)> =
            edges.into_iter().map(|(u, v, w)| (u, v, (w as u32 % 4) as f64)).collect();
        let node_w: Vec<f64> = (0..n).map(|i| (i % 3) as f64 + 1.0).collect();
        let mut g = DenseDag::from_edges(n, &edges, &node_w).unwrap();
        let a = g.longest_path().unwrap();
        let b = dag_longest_path(&g.to_digraph(), &node_w).unwrap();
        prop_assert_eq!(a.critical_path(), b.critical_path());
        let mut lp = IncrementalLongestPath::new(n);
        lp.full(&g).unwrap();
        for (on_node, idx, w) in deltas {
            lp.discard_journal();
            let w = (w as u32 % 4) as f64;
            let seed = if on_node || g.n_edges() == 0 {
                let v = (idx % n) as u32;
                g.set_node_weight(v, w);
                v
            } else {
                let eid = (idx % g.n_edges()) as u32;
                g.set_edge_weight(eid, w);
                g.edge_endpoints(eid).1
            };
            lp.sweep_certified(&g, lp.order_pos(seed) as usize);
            let mut fresh = IncrementalLongestPath::new(n);
            fresh.full(&g).unwrap();
            prop_assert_eq!(lp.labels(), fresh.labels());
            let reference = g.longest_path().unwrap();
            prop_assert_eq!(lp.labels(), reference.completions());
            prop_assert_eq!(lp.critical_path(&g), fresh.critical_path(&g));
        }
    }

    #[test]
    fn repair_rollback_restores_labels(
        input in arb_dense_edges(16, 0.3),
        delta in arb_delta_walk()
    ) {
        let (n, edges) = input;
        let (on_node, idx, w) = delta[0];
        let node_w: Vec<f64> = (0..n).map(|i| (i % 4) as f64 + 1.0).collect();
        let mut g = DenseDag::from_edges(n, &edges, &node_w).unwrap();
        let mut lp = IncrementalLongestPath::new(n);
        lp.full(&g).unwrap();
        lp.discard_journal();
        let before: Vec<u64> = lp.labels().iter().map(|c| c.to_bits()).collect();
        let before_path = lp.critical_path(&g);
        let original = g.clone();
        let seed = if on_node || g.n_edges() == 0 {
            let v = (idx % n) as u32;
            g.set_node_weight(v, w);
            v
        } else {
            let eid = (idx % g.n_edges()) as u32;
            g.set_edge_weight(eid, w);
            g.edge_endpoints(eid).1
        };
        lp.sweep_certified(&g, lp.order_pos(seed) as usize);
        lp.rollback();
        let after: Vec<u64> = lp.labels().iter().map(|c| c.to_bits()).collect();
        prop_assert_eq!(before, after);
        // The path is derived from the labels and the graph they belong
        // to: the graph the labels rolled back to.
        prop_assert_eq!(before_path, lp.critical_path(&original));
    }

    #[test]
    fn resort_window_errs_exactly_on_cycles_and_keeps_the_outside(
        input in arb_dense_edges(16, 0.3),
        edits in arb_edge_edits()
    ) {
        let (n, edges) = input;
        let w: Vec<f64> = (0..n).map(|i| (i % 3) as f64 + 1.0).collect();
        let mut g = EdgeList { w, edges };
        let mut lp = IncrementalLongestPath::new(n);
        lp.full(&g).unwrap();
        lp.discard_journal();
        let order_before: Vec<u32> = (0..n as u32).map(|v| lp.order_pos(v)).collect();
        // Structural seeds: the head of every inserted or deleted edge.
        let mut seeds = Vec::new();
        for (insert, a, b) in edits {
            if insert {
                let (u, v) = ((a % n) as u32, (b % n) as u32);
                if u != v {
                    g.edges.push((u, v, (a % 7) as f64));
                    seeds.push(v);
                }
            } else if !g.edges.is_empty() {
                let (_, v, _) = g.edges.remove(a % g.edges.len());
                seeds.push(v);
            }
        }
        // The evaluator's window: smallest head and largest tail
        // position over the edges that now point backwards.
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &v in &seeds {
            let pv = lp.order_pos(v) as usize;
            g.for_each_in(v, |u, _| {
                let pu = lp.order_pos(u) as usize;
                if pu > pv {
                    lo = lo.min(pv);
                    hi = hi.max(pu);
                }
            });
        }
        let mut reference = Digraph::new(n);
        for &(u, v, w) in &g.edges {
            reference.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        let acyclic = topo_sort(&reference).is_ok();
        if lo == usize::MAX {
            // Nothing points backwards: the order still certifies the
            // graph as acyclic.
            prop_assert!(acyclic);
        } else {
            let resorted = lp.resort_window(&g, lo, hi);
            prop_assert_eq!(resorted.is_ok(), acyclic);
            prop_assert!(matches!(resorted, Ok(()) | Err(GraphError::Cycle { .. })));
            for v in 0..n as u32 {
                let (old, new) = (order_before[v as usize] as usize, lp.order_pos(v) as usize);
                if !(lo..=hi).contains(&old) {
                    prop_assert_eq!(old, new);
                }
            }
        }
        if acyclic {
            for &(u, v, _) in &g.edges {
                prop_assert!(lp.order_pos(u) < lp.order_pos(v));
            }
            // The sweep from the first seed lands on the full pass's
            // labels.
            let start = seeds.iter().map(|&v| lp.order_pos(v) as usize).min();
            lp.sweep_certified(&g, start.unwrap_or(n));
            let mut fresh = IncrementalLongestPath::new(n);
            fresh.full(&g).unwrap();
            let got: Vec<u64> = lp.labels().iter().map(|c| c.to_bits()).collect();
            let want: Vec<u64> = fresh.labels().iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
        lp.rollback();
        let order_after: Vec<u32> = (0..n as u32).map(|v| lp.order_pos(v)).collect();
        prop_assert_eq!(order_before, order_after);
    }
}
