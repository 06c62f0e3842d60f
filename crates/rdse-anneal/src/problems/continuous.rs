//! Continuous function minimization — the second validation problem
//! family of §4.1.
//!
//! Moves perturb one coordinate with Gaussian noise; three move classes
//! with different step sizes give the adaptive move-class controller
//! something to exploit (large steps dominate early, small steps late —
//! a discrete analogue of the classic annealing range limiter).

use crate::problem::Problem;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Relative step sizes of the three move classes.
const STEP_SCALES: [f64; 3] = [1.0, 0.1, 0.01];

/// A reversible coordinate perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinateMove {
    index: usize,
    previous: f64,
}

/// Sphere function `Σ xᵢ²` with coordinate-perturbation moves.
#[derive(Debug, Clone)]
pub struct Sphere {
    x: Vec<f64>,
    base_step: f64,
}

impl Sphere {
    /// Creates an instance of dimension `dim` with coordinates drawn
    /// uniformly from `[-radius, radius]` using `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `radius <= 0`.
    pub fn new(dim: usize, radius: f64, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(radius > 0.0, "radius must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        Sphere {
            x: (0..dim)
                .map(|_| rng.random_range(-radius..radius))
                .collect(),
            base_step: radius,
        }
    }

    /// Current coordinate vector.
    pub fn coordinates(&self) -> &[f64] {
        &self.x
    }
}

/// Standard normal sample via Box–Muller (avoids a distribution dep).
fn gaussian(rng: &mut dyn RngCore) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl Problem for Sphere {
    type Move = CoordinateMove;
    type Snapshot = Vec<f64>;
    type Cost = f64;

    fn cost(&self) -> f64 {
        self.x.iter().map(|v| v * v).sum()
    }

    fn n_move_classes(&self) -> usize {
        STEP_SCALES.len()
    }

    fn try_move(&mut self, rng: &mut dyn RngCore, class: usize) -> Option<(Self::Move, f64)> {
        let index = rng.random_range(0..self.x.len());
        let previous = self.x[index];
        let scale = STEP_SCALES[class.min(STEP_SCALES.len() - 1)];
        self.x[index] += gaussian(rng) * self.base_step * scale;
        Some((CoordinateMove { index, previous }, self.cost()))
    }

    fn undo(&mut self, mv: Self::Move) {
        self.x[mv.index] = mv.previous;
    }

    fn snapshot(&self) -> Self::Snapshot {
        self.x.clone()
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.x.clone_from(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{anneal, RunOptions};
    use crate::schedule::LamSchedule;

    #[test]
    fn sphere_cost_at_origin_is_zero() {
        let mut p = Sphere::new(3, 1.0, 0);
        p.restore(&vec![0.0; 3]);
        assert_eq!(p.cost(), 0.0);
    }

    #[test]
    fn sphere_anneals_to_near_zero() {
        let mut p = Sphere::new(6, 5.0, 11);
        let mut s = LamSchedule::new(1.0);
        let r = anneal(
            &mut p,
            &mut s,
            &RunOptions {
                max_iterations: 60_000,
                warmup_iterations: 2_000,
                seed: 13,
                ..RunOptions::default()
            },
        );
        assert!(r.best_cost < 0.5, "best cost {}", r.best_cost);
    }

    #[test]
    fn undo_is_exact() {
        let mut p = Sphere::new(5, 2.0, 9);
        let before = p.coordinates().to_vec();
        let cost_before = p.cost();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (mv, _) = p.try_move(&mut rng, 0).unwrap();
        p.undo(mv);
        assert_eq!(p.coordinates(), &before[..]);
        assert_eq!(p.cost(), cost_before);
    }

    #[test]
    fn adaptive_controller_not_worse_than_uniform_on_sphere() {
        let run = |adaptive| {
            let mut p = Sphere::new(8, 10.0, 21);
            let mut s = LamSchedule::new(0.5);
            anneal(
                &mut p,
                &mut s,
                &RunOptions {
                    max_iterations: 40_000,
                    warmup_iterations: 1_000,
                    seed: 23,
                    adaptive_moves: adaptive,
                    ..RunOptions::default()
                },
            )
            .best_cost
        };
        // Both should reach a decent solution; this guards the plumbing
        // rather than asserting superiority on one seed.
        assert!(run(true) < 5.0);
        assert!(run(false) < 5.0);
    }
}
