//! Multi-objective cost values and the scalarizers that project them
//! onto the annealer's acceptance axis.
//!
//! The paper's design-space exploration is fundamentally
//! multi-objective: FPGA area (CLBs), reconfiguration overhead and
//! schedule latency trade off against each other (§5, Fig. 3). The
//! engine, however, is a scalar optimizer — Metropolis acceptance needs
//! a single energy difference. This module separates the two concerns:
//!
//! * a [`Cost`] is the *full* cost of a solution — one or more
//!   objectives, all minimized — recorded verbatim in run results and
//!   [`ParetoFront`](crate::ParetoFront) archives;
//! * a [`Scalarizer`] projects a cost onto the scalar view the
//!   acceptance rule walks on: the cost's own default via
//!   [`DefaultScalar`], or a problem's own objective (the mapping
//!   layer's `Objective` is its weighted and lexicographic views).
//!
//! `f64` implements [`Cost`] as the single-objective case, and
//! [`DefaultScalar`] is the identity on it — so a scalar problem under
//! the default configuration runs *bit-identically* to the historical
//! `cost() -> f64` engine: same deltas, same RNG draws, same walk.

/// The cost of a candidate solution: a point in objective space, every
/// component minimized.
///
/// Implementations are typically small `Copy` structs (the engine
/// clones one per accepted move). The single-objective case is plain
/// `f64`; multi-objective problems expose each axis through
/// [`objective`](Cost::objective) so generic scalarizers and the
/// [`ParetoFront`](crate::ParetoFront) dominance test work without
/// knowing the concrete type.
pub trait Cost: Clone + PartialEq + std::fmt::Debug {
    /// Number of objectives (≥ 1).
    fn n_objectives(&self) -> usize {
        1
    }

    /// Value of objective `i` (lower is better). `i` is in
    /// `0..n_objectives()`.
    fn objective(&self, i: usize) -> f64;

    /// The cost's own scalar view — what the engine minimizes when no
    /// explicit [`Scalarizer`] is supplied. Defaults to the first
    /// objective.
    fn scalar(&self) -> f64 {
        self.objective(0)
    }
}

/// The single-objective cost: the value is the objective.
impl Cost for f64 {
    fn objective(&self, i: usize) -> f64 {
        debug_assert_eq!(i, 0, "f64 cost has exactly one objective");
        *self
    }

    fn scalar(&self) -> f64 {
        *self
    }
}

/// Projects a [`Cost`] onto the scalar axis driving Metropolis
/// acceptance.
///
/// The engine keeps the full cost vector of the current and best
/// solutions (and archives accepted vectors in an optional Pareto
/// front); only the *acceptance decision* goes through the scalarizer.
pub trait Scalarizer<C: Cost> {
    /// The scalar view of `cost` (lower is better).
    fn scalarize(&self, cost: &C) -> f64;

    /// The energy difference driving Metropolis acceptance when moving
    /// from `cur` to `new`. `scalar_delta` is
    /// `scalarize(new) - scalarize(cur)` as computed by the engine from
    /// its stored scalars; the default returns it unchanged. A
    /// lexicographic objective overrides this with a tiered comparison.
    fn delta(&self, new: &C, cur: &C, scalar_delta: f64) -> f64 {
        let _ = (new, cur);
        scalar_delta
    }
}

/// The identity scalarizer: minimizes [`Cost::scalar`]. For `f64` costs
/// this reproduces the historical scalar engine bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DefaultScalar;

impl<C: Cost> Scalarizer<C> for DefaultScalar {
    fn scalarize(&self, cost: &C) -> f64 {
        cost.scalar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_is_the_identity_cost() {
        let c = 3.5f64;
        assert_eq!(c.n_objectives(), 1);
        assert_eq!(c.objective(0), 3.5);
        assert_eq!(DefaultScalar.scalarize(&c).to_bits(), 3.5f64.to_bits());
        assert_eq!(DefaultScalar.delta(&2.0, &3.5, 2.0 - 3.5), -1.5);
    }
}
