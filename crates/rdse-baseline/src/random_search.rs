//! Pure random sampling — the weakest baseline, calibrating how much
//! structure the annealer and the GA actually exploit.

use rdse_mapping::{
    random_initial, require_processor, Evaluation, Evaluator, Mapping, MappingError,
};
use rdse_model::{Architecture, TaskGraph};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Draws `samples` random solutions (the §5 initial-solution generator)
/// and returns the best.
///
/// Sampling is scored through the arena-backed [`Evaluator`] (cheap
/// scalar summaries, no per-sample trace allocation); the winner's full
/// [`Evaluation`] is computed once at the end.
///
/// # Errors
///
/// Returns [`MappingError::NoProcessor`] if `arch` has no processor,
/// and otherwise a [`MappingError`] only if a generated solution fails
/// evaluation, which the generator's feasibility-by-construction should
/// prevent.
pub fn random_search(
    app: &TaskGraph,
    arch: &Architecture,
    samples: u64,
    seed: u64,
) -> Result<(Mapping, Evaluation), MappingError> {
    require_processor(arch)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evaluator = Evaluator::new(app, arch);
    let mut best: Option<(Mapping, rdse_mapping::EvalSummary)> = None;
    for _ in 0..samples.max(1) {
        let m = random_initial(app, arch, &mut rng);
        let s = evaluator.evaluate(&m)?;
        if best.as_ref().is_none_or(|(_, bs)| s.makespan < bs.makespan) {
            best = Some((m, s));
        }
    }
    let (mapping, _) = best.expect("at least one sample was drawn");
    let evaluation = evaluator.evaluate_full(&mapping)?;
    Ok((mapping, evaluation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_workloads::{epicure_architecture, motion_detection_app};

    #[test]
    fn more_samples_do_not_hurt() {
        let app = motion_detection_app();
        let arch = epicure_architecture(2000);
        let (_, few) = random_search(&app, &arch, 5, 1).unwrap();
        let (_, many) = random_search(&app, &arch, 200, 1).unwrap();
        assert!(many.makespan <= few.makespan);
    }

    #[test]
    fn result_is_valid() {
        let app = motion_detection_app();
        let arch = epicure_architecture(800);
        let (m, e) = random_search(&app, &arch, 50, 3).unwrap();
        m.validate(&app, &arch).unwrap();
        assert!(e.makespan.value() > 0.0);
    }
}
