//! First-improvement hill climbing over the annealer's own move set —
//! the "greedy" ablation point between random search and simulated
//! annealing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse_anneal::{Cost, Problem};
use rdse_mapping::{
    random_initial, require_processor, Evaluation, Mapping, MappingError, MappingProblem,
};
use rdse_model::{Architecture, TaskGraph};

/// Hill-climbing parameters.
#[derive(Debug, Clone, Copy)]
pub struct HillClimbOptions {
    /// Move proposals per restart.
    pub moves_per_restart: u64,
    /// Number of random restarts.
    pub restarts: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HillClimbOptions {
    fn default() -> Self {
        HillClimbOptions {
            moves_per_restart: 5_000,
            restarts: 3,
            seed: 0,
        }
    }
}

/// Runs first-improvement hill climbing: random initial solution, then
/// accept a proposed move only if it strictly improves the makespan.
///
/// # Errors
///
/// Returns a [`MappingError`] if no feasible initial solution exists
/// ([`MappingError::NoProcessor`] when `arch` has no processor).
pub fn hill_climb(
    app: &TaskGraph,
    arch: &Architecture,
    opts: &HillClimbOptions,
) -> Result<(Mapping, Evaluation), MappingError> {
    require_processor(arch)?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut best: Option<(Mapping, Evaluation)> = None;
    for _ in 0..opts.restarts.max(1) {
        let initial = random_initial(app, arch, &mut rng);
        let mut problem = MappingProblem::new(app, arch, initial)?;
        for _ in 0..opts.moves_per_restart {
            let class = rng.random_range(0..problem.n_move_classes());
            let before = problem.cost().scalar();
            if let Some((mv, after)) = problem.try_move(&mut rng, class) {
                if after.scalar() >= before {
                    problem.undo(mv);
                }
            }
        }
        let (mapping, eval) = problem.into_parts();
        if best
            .as_ref()
            .is_none_or(|(_, be)| eval.makespan < be.makespan)
        {
            best = Some((mapping, eval));
        }
    }
    Ok(best.expect("at least one restart ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_mapping::evaluate;
    use rdse_workloads::{epicure_architecture, motion_detection_app};

    #[test]
    fn hill_climbing_improves_over_random() {
        let app = motion_detection_app();
        let arch = epicure_architecture(2000);
        let (_, random) = crate::random_search(&app, &arch, 1, 11).unwrap();
        let (m, climbed) = hill_climb(
            &app,
            &arch,
            &HillClimbOptions {
                moves_per_restart: 3_000,
                restarts: 1,
                seed: 11,
            },
        )
        .unwrap();
        assert!(climbed.makespan <= random.makespan);
        m.validate(&app, &arch).unwrap();
        let fresh = evaluate(&app, &arch, &m).unwrap();
        assert_eq!(fresh.makespan, climbed.makespan);
    }

    #[test]
    fn restarts_keep_the_best() {
        let app = motion_detection_app();
        let arch = epicure_architecture(1000);
        let one = hill_climb(
            &app,
            &arch,
            &HillClimbOptions {
                moves_per_restart: 500,
                restarts: 1,
                seed: 5,
            },
        )
        .unwrap()
        .1;
        let five = hill_climb(
            &app,
            &arch,
            &HillClimbOptions {
                moves_per_restart: 500,
                restarts: 5,
                seed: 5,
            },
        )
        .unwrap()
        .1;
        assert!(five.makespan <= one.makespan);
    }
}
