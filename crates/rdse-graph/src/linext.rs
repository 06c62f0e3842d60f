//! Counting linear extensions — the solution-space sizes of §5.
//!
//! The paper sizes the search space of the 28-task motion-detection
//! benchmark by counting the total orders (linear extensions) of its
//! precedence graph: 1 716 for the first 20 nodes and
//! 3·C(21,7) = 348 840 overall, then multiplies by the number of ways
//! to place context changes. [`count_linear_extensions`] reproduces the
//! counts exactly with a dynamic program over the lattice of order
//! ideals; [`binomial`] and [`parallel_chain_orders`] provide the
//! closed forms used for the combination counts.

use crate::{Digraph, NodeId};
use std::collections::HashMap;

/// Default cap on the number of order ideals the DP may visit.
pub const DEFAULT_IDEAL_CAP: usize = 20_000_000;

/// Counts the linear extensions (topological orders) of a DAG.
///
/// Uses a dynamic program over order ideals represented as `u64`
/// bitmasks, so it supports at most 64 nodes. Returns `None` when the
/// graph has more than 64 nodes, contains a cycle, the ideal lattice
/// exceeds `ideal_cap` states (the count would be astronomically large
/// anyway), or the count exceeds `u128::MAX`. For the chain-parallel
/// graphs of the paper the lattice is tiny (hundreds of states).
///
/// # Examples
///
/// ```
/// use rdse_graph::{Digraph, NodeId, count_linear_extensions};
///
/// # fn main() -> Result<(), rdse_graph::GraphError> {
/// // Two parallel 2-chains: C(4,2) = 6 interleavings.
/// let mut g = Digraph::new(4);
/// g.add_edge(NodeId(0), NodeId(1), 0.0)?;
/// g.add_edge(NodeId(2), NodeId(3), 0.0)?;
/// assert_eq!(count_linear_extensions(&g, None), Some(6));
/// # Ok(())
/// # }
/// ```
#[allow(clippy::needless_range_loop)] // v is both a bit index and a mask index
pub fn count_linear_extensions(g: &Digraph, ideal_cap: Option<usize>) -> Option<u128> {
    let n = g.n_nodes();
    if n > 64 {
        return None;
    }
    if n == 0 {
        return Some(1);
    }
    if crate::topo::topo_sort(g).is_err() {
        return None;
    }
    let cap = ideal_cap.unwrap_or(DEFAULT_IDEAL_CAP);
    // Predecessor masks.
    let pred_mask: Vec<u64> = (0..n)
        .map(|v| {
            g.predecessors(NodeId(v as u32))
                .fold(0u64, |m, p| m | (1 << p.index()))
        })
        .collect();
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    // BFS over ideals by popcount level; ways[S] = number of topological
    // prefixes realizing the downset S.
    let mut ways: HashMap<u64, u128> = HashMap::new();
    ways.insert(0, 1);
    let mut level: Vec<u64> = vec![0];
    let mut visited = 1usize;
    for _ in 0..n {
        let mut next: HashMap<u64, u128> = HashMap::new();
        for s in &level {
            let count = ways[s];
            for v in 0..n {
                let bit = 1u64 << v;
                if s & bit == 0 && pred_mask[v] & !s == 0 {
                    let ways_to = next.entry(s | bit).or_insert(0);
                    *ways_to = ways_to.checked_add(count)?;
                }
            }
        }
        visited += next.len();
        if visited > cap {
            return None;
        }
        level = next.keys().copied().collect();
        for (k, v) in next {
            ways.insert(k, v);
        }
    }
    ways.get(&full).copied()
}

/// Binomial coefficient C(n, k) as a `u128`.
///
/// Saturates on overflow (returns `u128::MAX`); with the operand sizes
/// in this crate's experiments that never happens.
///
/// # Examples
///
/// ```
/// use rdse_graph::binomial;
/// assert_eq!(binomial(28, 2), 378);
/// assert_eq!(binomial(28, 6), 376_740);
/// assert_eq!(binomial(21, 7), 116_280);
/// ```
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // Multiply first, divide after: the running value is always an
        // exact binomial so the division is exact.
        acc = match acc.checked_mul((n - i) as u128) {
            Some(v) => v / (i as u128 + 1),
            None => return u128::MAX,
        };
    }
    acc
}

/// Number of interleavings (linear extensions) of disjoint parallel
/// chains with the given lengths: the multinomial
/// `(Σlᵢ)! / Πlᵢ!`, computed as a product of binomials.
///
/// # Examples
///
/// ```
/// use rdse_graph::parallel_chain_orders;
/// // A 7-chain in parallel with a 6-chain: C(13,6) = 1716.
/// assert_eq!(parallel_chain_orders(&[7, 6]), 1716);
/// // A 7-chain in parallel with a 14-chain: C(21,7) = 116280.
/// assert_eq!(parallel_chain_orders(&[7, 14]), 116_280);
/// ```
pub fn parallel_chain_orders(lengths: &[u64]) -> u128 {
    let mut total = 0u64;
    let mut acc: u128 = 1;
    for &l in lengths {
        total += l;
        acc = acc.saturating_mul(binomial(total, l));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn chain(len: usize) -> Digraph {
        let mut g = Digraph::new(len);
        for i in 1..len {
            g.add_edge(n(i as u32 - 1), n(i as u32), 0.0).unwrap();
        }
        g
    }

    #[test]
    fn chain_has_one_extension() {
        assert_eq!(count_linear_extensions(&chain(10), None), Some(1));
    }

    #[test]
    fn antichain_is_factorial() {
        let g = Digraph::new(5);
        assert_eq!(count_linear_extensions(&g, None), Some(120));
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::new(0);
        assert_eq!(count_linear_extensions(&g, None), Some(1));
    }

    #[test]
    fn two_parallel_chains_match_binomial() {
        // chains of length 3 and 4 → C(7,3) = 35
        let mut g = Digraph::new(7);
        for i in 1..3 {
            g.add_edge(n(i - 1), n(i), 0.0).unwrap();
        }
        for i in 4..7 {
            g.add_edge(n(i - 1), n(i), 0.0).unwrap();
        }
        assert_eq!(count_linear_extensions(&g, None), Some(35));
        assert_eq!(parallel_chain_orders(&[3, 4]), 35);
    }

    #[test]
    fn cyclic_graph_returns_none() {
        let mut g = Digraph::new(2);
        g.add_edge(n(0), n(1), 0.0).unwrap();
        g.add_edge(n(1), n(0), 0.0).unwrap();
        assert_eq!(count_linear_extensions(&g, None), None);
    }

    #[test]
    fn cap_respected() {
        // 20-element antichain has 2^20 ideals; cap below that.
        let g = Digraph::new(20);
        assert_eq!(count_linear_extensions(&g, Some(1000)), None);
    }

    #[test]
    fn count_beyond_u128_returns_none() {
        // Five parallel chains of 13, 13, 13, 13 and 12 nodes: 14⁴·13 ≈ 500k
        // ideals, well under the cap, but 64!/(13!⁴·12!) ≈ 1.76e41 orders,
        // more than `u128::MAX` ≈ 3.4e38.
        let mut g = Digraph::new(64);
        let mut first = 0;
        for len in [13u32, 13, 13, 13, 12] {
            for i in first + 1..first + len {
                g.add_edge(n(i - 1), n(i), 0.0).unwrap();
            }
            first += len;
        }
        assert_eq!(first, 64);
        assert_eq!(count_linear_extensions(&g, None), None);
    }

    #[test]
    fn binomial_edge_cases() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(52, 26), 495_918_532_948_104);
    }

    #[test]
    fn paper_chain_counts() {
        // §5: a 28-node chain with k context changes gives C(28,k).
        assert_eq!(binomial(28, 2), 378);
        assert_eq!(binomial(28, 6), 376_740);
        assert_eq!(binomial(28, 4), 20_475);
    }

    #[test]
    fn multichain_matches_dp() {
        let mut g = Digraph::new(9);
        // chains 2, 3, 4
        g.add_edge(n(0), n(1), 0.0).unwrap();
        g.add_edge(n(2), n(3), 0.0).unwrap();
        g.add_edge(n(3), n(4), 0.0).unwrap();
        g.add_edge(n(5), n(6), 0.0).unwrap();
        g.add_edge(n(6), n(7), 0.0).unwrap();
        g.add_edge(n(7), n(8), 0.0).unwrap();
        assert_eq!(
            count_linear_extensions(&g, None),
            Some(parallel_chain_orders(&[2, 3, 4]))
        );
    }
}
