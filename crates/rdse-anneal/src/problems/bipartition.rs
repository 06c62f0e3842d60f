//! Balanced graph bipartition — one of the validation problems of §4.1.
//!
//! Cost = (weight of edges crossing the cut) + `penalty · imbalance²`,
//! where imbalance is the difference between the two side sizes. Two
//! move classes are exposed: single-node flips and balanced pair swaps.

use crate::problem::Problem;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A reversible bipartition move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BipartitionMove {
    /// Flip one node to the other side.
    Flip(usize),
    /// Swap the sides of two nodes currently on opposite sides.
    Swap(usize, usize),
}

/// Balanced min-cut bipartition instance and current solution.
#[derive(Debug, Clone)]
pub struct Bipartition {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
    adj: Vec<Vec<(usize, f64)>>,
    side: Vec<bool>,
    penalty: f64,
    cut: f64,
    imbalance: i64,
}

impl Bipartition {
    /// Builds an instance from an edge list with a random initial
    /// partition drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n`.
    pub fn new(n: usize, edges: Vec<(usize, usize, f64)>, penalty: f64, seed: u64) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v, w) in &edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let side: Vec<bool> = (0..n).map(|_| rng.random()).collect();
        let mut p = Bipartition {
            n,
            edges,
            adj,
            side,
            penalty,
            cut: 0.0,
            imbalance: 0,
        };
        p.recompute();
        p
    }

    /// Classic sanity instance: two `k`-cliques joined by one bridge
    /// edge. The optimal balanced cut has cost 1.
    pub fn two_cliques(k: usize, seed: u64) -> Self {
        let mut edges = Vec::new();
        for a in 0..k {
            for b in (a + 1)..k {
                edges.push((a, b, 1.0));
                edges.push((k + a, k + b, 1.0));
            }
        }
        edges.push((0, k, 1.0));
        Bipartition::new(2 * k, edges, 1.0, seed)
    }

    fn recompute(&mut self) {
        self.cut = self
            .edges
            .iter()
            .filter(|&&(u, v, _)| self.side[u] != self.side[v])
            .map(|&(_, _, w)| w)
            .sum();
        let ones = self.side.iter().filter(|&&s| s).count() as i64;
        self.imbalance = 2 * ones - self.n as i64;
    }

    /// Cut weight of the current partition (without balance penalty).
    pub fn cut_weight(&self) -> f64 {
        self.cut
    }

    /// Signed size imbalance (`|side1| − |side0|`).
    pub fn imbalance(&self) -> i64 {
        self.imbalance
    }

    /// Change in cut weight if `v` flipped sides.
    fn flip_delta(&self, v: usize) -> f64 {
        let mut delta = 0.0;
        for &(u, w) in &self.adj[v] {
            if self.side[u] == self.side[v] {
                delta += w; // becomes cut
            } else {
                delta -= w; // becomes internal
            }
        }
        delta
    }

    fn do_flip(&mut self, v: usize) {
        self.cut += self.flip_delta(v);
        self.imbalance += if self.side[v] { -2 } else { 2 };
        self.side[v] = !self.side[v];
    }
}

impl Problem for Bipartition {
    type Move = BipartitionMove;
    type Snapshot = Vec<bool>;
    type Cost = f64;

    fn cost(&self) -> f64 {
        self.cut + self.penalty * (self.imbalance * self.imbalance) as f64
    }

    fn n_move_classes(&self) -> usize {
        2
    }

    fn try_move(&mut self, rng: &mut dyn RngCore, class: usize) -> Option<(Self::Move, f64)> {
        match class {
            0 => {
                let v = rng.random_range(0..self.n);
                self.do_flip(v);
                Some((BipartitionMove::Flip(v), self.cost()))
            }
            _ => {
                let a = rng.random_range(0..self.n);
                let b = rng.random_range(0..self.n);
                if self.side[a] == self.side[b] {
                    return None; // swap requires opposite sides
                }
                self.do_flip(a);
                self.do_flip(b);
                Some((BipartitionMove::Swap(a, b), self.cost()))
            }
        }
    }

    fn undo(&mut self, mv: Self::Move) {
        match mv {
            BipartitionMove::Flip(v) => self.do_flip(v),
            BipartitionMove::Swap(a, b) => {
                self.do_flip(a);
                self.do_flip(b);
            }
        }
    }

    fn snapshot(&self) -> Self::Snapshot {
        self.side.clone()
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.side.clone_from(snapshot);
        self.recompute();
    }

    fn observables(&self) -> Vec<(&'static str, f64)> {
        vec![("cut", self.cut), ("imbalance", self.imbalance as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{anneal, RunOptions};
    use crate::schedule::LamSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn incremental_cut_matches_recompute() {
        let mut p = Bipartition::two_cliques(5, 0);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..500 {
            if let Some((mv, _)) = p.try_move(&mut rng, i % 2) {
                if i % 3 == 0 {
                    p.undo(mv);
                }
            }
            let mut fresh = p.clone();
            fresh.recompute();
            assert!((fresh.cut_weight() - p.cut_weight()).abs() < 1e-9);
            assert_eq!(fresh.imbalance(), p.imbalance());
        }
    }

    #[test]
    fn undo_restores_cost() {
        let mut p = Bipartition::two_cliques(4, 2);
        let before = p.cost();
        let mut rng = StdRng::seed_from_u64(5);
        let (mv, after) = loop {
            if let Some(x) = p.try_move(&mut rng, 0) {
                break x;
            }
        };
        assert_ne!(before, after);
        p.undo(mv);
        assert_eq!(p.cost(), before);
    }

    #[test]
    fn annealing_finds_the_bridge_cut() {
        let mut p = Bipartition::two_cliques(8, 1);
        let mut s = LamSchedule::new(1.0);
        let r = anneal(
            &mut p,
            &mut s,
            &RunOptions {
                max_iterations: 40_000,
                warmup_iterations: 1000,
                seed: 3,
                ..RunOptions::default()
            },
        );
        assert_eq!(r.best_cost, 1.0, "expected the single bridge edge cut");
        assert_eq!(p.imbalance(), 0);
    }
}
