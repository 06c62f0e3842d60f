//! The fixed evaluator walks shared by the `ratios` bench (which times
//! them) and the `quality` tests (which count what they do).
//!
//! A walk alternates the production pair and implementation move
//! proposers and keeps each scored move on a coin flip, so two walks
//! from the same mapping and RNG state take the identical move sequence
//! whichever way they score it: feasibility is bit-identical between
//! the delta path and the full pass.

use rand::rngs::StdRng;
use rand::Rng;
use rdse_mapping::moves::{propose_impl_move, propose_pair_move, MoveScratch};
use rdse_mapping::{Evaluator, Mapping};
use rdse_model::{Architecture, TaskGraph};
use rdse_workloads::{epicure_architecture, layered_dag, motion_detection_app, LayeredDagConfig};
use std::hint::black_box;

/// The paper's Fig. 3 setting: motion detection on EPICURE at 2 000
/// CLBs. With 29 tasks, a repair cone is almost the whole graph.
pub fn fig3() -> (TaskGraph, Architecture) {
    (motion_detection_app(), epicure_architecture(2000))
}

/// A 200-task layered DAG on EPICURE at 4 000 CLBs, large enough that
/// a repair cone is a fraction of a full pass.
pub fn layered200() -> (TaskGraph, Architecture) {
    let app = layered_dag(
        &LayeredDagConfig {
            layers: 20,
            width: 10,
            edge_percent: 30,
            hw_percent: 60,
        },
        42,
    );
    (app, epicure_architecture(4000))
}

/// Drives `steps` proposals through [`Evaluator::evaluate_delta`],
/// reverting on a coin flip (the annealer's hot shape). With `check`,
/// every delta summary is compared bit for bit with a from-scratch
/// evaluation by that evaluator. Returns the number of scored moves.
///
/// # Panics
///
/// Panics if a checked delta summary differs from the full pass.
pub fn delta_walk(
    app: &TaskGraph,
    arch: &Architecture,
    evaluator: &mut Evaluator,
    mapping: &mut Mapping,
    rng: &mut StdRng,
    steps: u64,
    mut check: Option<&mut Evaluator>,
) -> u64 {
    let mut scratch = MoveScratch::default();
    let mut scored = 0u64;
    for i in 0..steps {
        let outcome = if i % 2 == 0 {
            propose_pair_move(app, arch, mapping, rng, &mut scratch)
        } else {
            propose_impl_move(app, arch, mapping, rng, &mut scratch)
        };
        let Some(o) = outcome else { continue };
        scored += 1;
        match black_box(evaluator.evaluate_delta(mapping, o.delta.task())) {
            Ok(summary) => {
                if let Some(full) = check.as_deref_mut() {
                    let fresh = full.evaluate(mapping).expect("delta accepted => feasible");
                    assert_eq!(
                        summary, fresh,
                        "delta and full evaluation diverged at step {i}"
                    );
                }
                if rng.random::<bool>() {
                    evaluator.revert_delta();
                    o.delta.undo(mapping);
                }
            }
            Err(_) => o.delta.undo(mapping),
        }
    }
    scored
}

/// The walk of [`delta_walk`], scoring every move with the full pass
/// ([`Evaluator::evaluate`]); a rejected move is a plain mapping undo.
/// Returns the number of scored moves.
pub fn full_walk(
    app: &TaskGraph,
    arch: &Architecture,
    evaluator: &mut Evaluator,
    mapping: &mut Mapping,
    rng: &mut StdRng,
    steps: u64,
) -> u64 {
    let mut scratch = MoveScratch::default();
    let mut scored = 0u64;
    for i in 0..steps {
        let outcome = if i % 2 == 0 {
            propose_pair_move(app, arch, mapping, rng, &mut scratch)
        } else {
            propose_impl_move(app, arch, mapping, rng, &mut scratch)
        };
        let Some(o) = outcome else { continue };
        scored += 1;
        match black_box(evaluator.evaluate(mapping)) {
            Ok(_) => {
                if rng.random::<bool>() {
                    o.delta.undo(mapping);
                }
            }
            Err(_) => o.delta.undo(mapping),
        }
    }
    scored
}
