//! The four-way differential oracle.
//!
//! For a scenario's mapping, four independent engines must agree on
//! the makespan **bit for bit**:
//!
//! 1. the incremental, arena-backed [`Evaluator`] (the annealing hot
//!    path);
//! 2. the from-scratch [`evaluate`] (the paper's reference
//!    longest-path scoring);
//! 3. the discrete-event simulator in contention-free mode, where the
//!    simulated makespan provably equals the analytic longest path;
//! 4. the bounded-repair delta path
//!    ([`Evaluator::evaluate_delta`]) driven along the walk move by
//!    move, and [`Evaluator::evaluate_batch`] re-scoring the accepted
//!    walk states as multi-move diffs against the initial mapping.
//!
//! Two invariants ride along: simulating with an exclusive bus can
//! never beat the contention-free run, and every move proposal's
//! [`MoveDelta`](rdse_mapping::MoveDelta) must undo to a bit-identical
//! mapping. The check then repeats the comparison along a
//! deterministic random walk, so divergence hiding behind the initial
//! solution is also caught.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdse_mapping::moves::{propose_impl_move, propose_pair_move};
use rdse_mapping::{
    evaluate, CostVector, Dominance, EvalSummary, Evaluator, Mapping, MoveScratch, ParetoFront,
};
use rdse_model::units::Micros;
use rdse_model::{Architecture, TaskGraph};
use rdse_sim::{simulate, SimConfig};

/// Absolute slack allowed on the *inequality* invariant (the equality
/// legs are bit-exact; only with-contention ≥ contention-free keeps the
/// simulator tests' epsilon).
const CONTENTION_EPS: f64 = 1e-6;

/// What the oracle measured on a passing scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleReport {
    /// The agreed contention-free makespan.
    pub makespan: Micros,
    /// Makespan under an exclusive FIFO bus (≥ `makespan`).
    pub contention_makespan: Micros,
    /// Move proposals whose delta-undo round-trip was verified.
    pub moves_checked: u32,
    /// Walk states (accepted moves) re-verified three ways.
    pub moves_applied: u32,
    /// Walk moves whose bounded-repair delta summary was verified
    /// against the full evaluation (the fourth leg).
    pub repair_checked: u32,
    /// Accepted walk states re-scored through `evaluate_batch` and
    /// verified bit-for-bit against their sequential summaries.
    pub batch_checked: u32,
}

/// Why the oracle rejected a scenario. The variants name the diverging
/// leg so a corpus failure is actionable without a debugger.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleFailure {
    /// The mapping (or a walk state) failed evaluation or simulation
    /// outright.
    Engine(String),
    /// Incremental evaluator summary differs from from-scratch.
    IncrementalVsScratch {
        /// Incremental makespan bits.
        incremental: u64,
        /// From-scratch makespan bits.
        scratch: u64,
        /// Walk step (0 = the initial mapping).
        step: u32,
    },
    /// Contention-free DES makespan differs from the analytic one.
    DesVsAnalytic {
        /// DES makespan bits.
        des: u64,
        /// Analytic makespan bits.
        analytic: u64,
        /// Walk step (0 = the initial mapping).
        step: u32,
    },
    /// An exclusive bus produced a *smaller* makespan.
    ContentionBeatsContentionFree {
        /// With-contention makespan (µs).
        contended: f64,
        /// Contention-free makespan (µs).
        free: f64,
    },
    /// Incremental and from-scratch disagree on feasibility.
    FeasibilityDisagreement {
        /// Walk step at which they disagreed.
        step: u32,
    },
    /// A move delta's undo did not restore the pre-move mapping.
    UndoDiverged {
        /// Walk step of the diverging proposal.
        step: u32,
    },
    /// A `None` proposal mutated the mapping.
    ProposalMutatedOnNone {
        /// Walk step of the mutating proposal.
        step: u32,
    },
    /// The exploration returned an empty Pareto front.
    FrontEmpty,
    /// Two front members violate mutual non-domination.
    FrontDominatedMember {
        /// Index of the dominating member.
        dominator: usize,
        /// Index of the dominated member.
        dominated: usize,
    },
    /// The front's best makespan disagrees with the exploration winner.
    FrontBestDiverged {
        /// Winner makespan bits.
        best: u64,
        /// Minimum makespan bits over the front.
        front_min: u64,
    },
    /// Bounded-repair delta summary differs from the full evaluation.
    RepairVsFull {
        /// Repair-path makespan bits.
        repair: u64,
        /// Full-evaluation makespan bits.
        full: u64,
        /// Walk step of the diverging move.
        step: u32,
    },
    /// The repair path and the full evaluation disagree on
    /// feasibility.
    RepairFeasibilityDiverged {
        /// Walk step at which they disagreed.
        step: u32,
    },
    /// `evaluate_batch` summary differs from the sequential summary of
    /// the same candidate.
    BatchVsSequential {
        /// Batch makespan bits.
        batch: u64,
        /// Sequential makespan bits.
        sequential: u64,
        /// Candidate index within the batch.
        index: usize,
    },
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleFailure::Engine(e) => write!(f, "engine error: {e}"),
            OracleFailure::IncrementalVsScratch {
                incremental,
                scratch,
                step,
            } => write!(
                f,
                "incremental evaluator diverged from from-scratch at step {step}: \
                 {incremental:#x} vs {scratch:#x}"
            ),
            OracleFailure::DesVsAnalytic {
                des,
                analytic,
                step,
            } => write!(
                f,
                "contention-free DES diverged from analytic longest path at step {step}: \
                 {des:#x} vs {analytic:#x}"
            ),
            OracleFailure::ContentionBeatsContentionFree { contended, free } => write!(
                f,
                "exclusive-bus makespan {contended} beat contention-free {free}"
            ),
            OracleFailure::FeasibilityDisagreement { step } => write!(
                f,
                "incremental and from-scratch evaluation disagree on feasibility at step {step}"
            ),
            OracleFailure::UndoDiverged { step } => {
                write!(
                    f,
                    "MoveDelta undo did not round-trip the mapping at step {step}"
                )
            }
            OracleFailure::ProposalMutatedOnNone { step } => {
                write!(
                    f,
                    "rejected proposal (None) mutated the mapping at step {step}"
                )
            }
            OracleFailure::FrontEmpty => write!(f, "exploration returned an empty Pareto front"),
            OracleFailure::FrontDominatedMember {
                dominator,
                dominated,
            } => write!(
                f,
                "front member {dominator} dominates member {dominated} (archive invariant broken)"
            ),
            OracleFailure::FrontBestDiverged { best, front_min } => write!(
                f,
                "front minimum makespan {front_min:#x} disagrees with winner {best:#x}"
            ),
            OracleFailure::RepairVsFull { repair, full, step } => write!(
                f,
                "bounded-repair delta diverged from full evaluation at step {step}: \
                 {repair:#x} vs {full:#x}"
            ),
            OracleFailure::RepairFeasibilityDiverged { step } => write!(
                f,
                "repair path and full evaluation disagree on feasibility at step {step}"
            ),
            OracleFailure::BatchVsSequential {
                batch,
                sequential,
                index,
            } => write!(
                f,
                "evaluate_batch diverged from sequential evaluation on candidate {index}: \
                 {batch:#x} vs {sequential:#x}"
            ),
        }
    }
}

impl std::error::Error for OracleFailure {}

/// Checks the Pareto-front invariants of an exploration result:
///
/// 1. the front is non-empty (the initial solution always enters);
/// 2. no member dominates another (the archive's defining property);
/// 3. the minimum makespan over the front equals the winner's makespan
///    bit for bit — the scalar optimum is never lost to the archive.
///
/// # Errors
///
/// Returns the first violated invariant as an [`OracleFailure`].
pub fn front_check(
    front: &ParetoFront<CostVector>,
    best: &CostVector,
) -> Result<(), OracleFailure> {
    if front.is_empty() {
        return Err(OracleFailure::FrontEmpty);
    }
    for (i, a) in front.iter().enumerate() {
        for (j, b) in front.iter().enumerate() {
            if i != j && a.dominates(b) {
                return Err(OracleFailure::FrontDominatedMember {
                    dominator: i,
                    dominated: j,
                });
            }
        }
    }
    let front_min = front
        .iter()
        .map(|v| v.makespan)
        .fold(f64::INFINITY, f64::min);
    if front_min.to_bits() != best.makespan.to_bits() {
        return Err(OracleFailure::FrontBestDiverged {
            best: best.makespan.to_bits(),
            front_min: front_min.to_bits(),
        });
    }
    Ok(())
}

/// Three-way agreement at one mapping, given the incremental
/// evaluator's full-evaluation summary of it; returns the agreed
/// makespan and the with-contention makespan.
fn check_state(
    app: &TaskGraph,
    arch: &Architecture,
    incremental: EvalSummary,
    mapping: &Mapping,
    step: u32,
) -> Result<(Micros, Micros), OracleFailure> {
    let scratch = match evaluate(app, arch, mapping) {
        Ok(e) => e,
        Err(_) => return Err(OracleFailure::FeasibilityDisagreement { step }),
    };
    if incremental != scratch.summary() && !cfg!(rdse_fault = "oracle_skips_incremental_leg") {
        return Err(OracleFailure::IncrementalVsScratch {
            incremental: incremental.makespan.value().to_bits(),
            scratch: scratch.makespan.value().to_bits(),
            step,
        });
    }
    let des = simulate(app, arch, mapping, &SimConfig::contention_free())
        .map_err(|e| OracleFailure::Engine(format!("contention-free simulation: {e}")))?;
    if des.makespan.value().to_bits() != scratch.makespan.value().to_bits() {
        return Err(OracleFailure::DesVsAnalytic {
            des: des.makespan.value().to_bits(),
            analytic: scratch.makespan.value().to_bits(),
            step,
        });
    }
    let exclusive_bus = SimConfig {
        exclusive_bus: true,
        record_events: false,
    };
    let contended = simulate(app, arch, mapping, &exclusive_bus)
        .map_err(|e| OracleFailure::Engine(format!("exclusive-bus simulation: {e}")))?;
    if contended.makespan.value() < des.makespan.value() - CONTENTION_EPS {
        return Err(OracleFailure::ContentionBeatsContentionFree {
            contended: contended.makespan.value(),
            free: des.makespan.value(),
        });
    }
    Ok((des.makespan, contended.makespan))
}

/// Runs the full differential check on `mapping`, then walks
/// `walk_steps` deterministic move proposals (seeded by `walk_seed`),
/// verifying the delta-undo round trip on every proposal and the
/// four-way agreement on every feasible walk state.
///
/// # Errors
///
/// Returns the first [`OracleFailure`] encountered; a pass means every
/// leg agreed bit-for-bit on every checked state.
pub fn differential_check(
    app: &TaskGraph,
    arch: &Architecture,
    mapping: &Mapping,
    walk_seed: u64,
    walk_steps: u32,
) -> Result<OracleReport, OracleFailure> {
    let mut evaluator = Evaluator::new(app, arch);
    let initial = evaluator
        .evaluate(mapping)
        .map_err(|e| OracleFailure::Engine(format!("incremental evaluation: {e}")))?;
    let (makespan, contention_makespan) = check_state(app, arch, initial, mapping, 0)?;

    // The fourth leg's evaluator advances move by move through
    // evaluate_delta (the window re-sort / certified sweep
    // machinery), never through a fresh full synchronization, so a
    // repair bug cannot hide behind the full passes the other legs do.
    let mut repair_eval = Evaluator::new(app, arch);
    repair_eval
        .evaluate(mapping)
        .map_err(|e| OracleFailure::Engine(format!("repair-leg synchronization: {e}")))?;
    let mut repair_checked = 0;
    // Accepted walk states (capped) re-scored through evaluate_batch
    // as multi-move diffs against the initial mapping.
    const BATCH_CAP: usize = 8;
    let mut batch_states: Vec<(Mapping, u64)> = Vec::new();

    let mut walk = mapping.clone();
    let mut rng = StdRng::seed_from_u64(walk_seed);
    let mut scratch = MoveScratch::default();
    let mut moves_checked = 0;
    let mut moves_applied = 0;
    for step in 1..=walk_steps {
        let before = walk.clone();
        let outcome = if step % 2 == 0 {
            propose_pair_move(app, arch, &mut walk, &mut rng, &mut scratch)
        } else {
            propose_impl_move(app, arch, &mut walk, &mut rng, &mut scratch)
        };
        let Some(outcome) = outcome else {
            if walk != before {
                return Err(OracleFailure::ProposalMutatedOnNone { step });
            }
            continue;
        };
        moves_checked += 1;
        // Undo round-trip on a copy: the delta must restore the exact
        // pre-move mapping (slot positions included).
        let mut undone = walk.clone();
        outcome.delta.undo(&mut undone);
        if undone != before {
            return Err(OracleFailure::UndoDiverged { step });
        }
        // Gate on the cheap incremental leg (exactly what the
        // annealer's hot path does), then cross-check feasibility in
        // BOTH directions: an incremental engine that wrongly accepts
        // what from-scratch rejects — or vice versa — is a divergence,
        // not a rejection. Feasible states are kept and re-verified
        // three ways (check_state runs from-scratch once and catches
        // the accepts-but-scratch-rejects direction); infeasible ones
        // are reversed exactly as the annealer's rejection path does.
        let repair = repair_eval.evaluate_delta(&walk, outcome.delta.task());
        match evaluator.evaluate(&walk) {
            Ok(full) => {
                // Fourth leg: the bounded-repair summary of this move
                // must equal the full evaluation bit for bit.
                match repair {
                    Ok(summary) if summary == full => repair_checked += 1,
                    Ok(summary) => {
                        return Err(OracleFailure::RepairVsFull {
                            repair: summary.makespan.value().to_bits(),
                            full: full.makespan.value().to_bits(),
                            step,
                        });
                    }
                    Err(_) => return Err(OracleFailure::RepairFeasibilityDiverged { step }),
                }
                check_state(app, arch, full, &walk, step)?;
                moves_applied += 1;
                if batch_states.len() < BATCH_CAP {
                    batch_states.push((walk.clone(), full.makespan.value().to_bits()));
                }
            }
            Err(_) => {
                // The repair leg must reject too (its error path
                // self-reverts, keeping it synced to the last accepted
                // state).
                if repair.is_ok() {
                    return Err(OracleFailure::RepairFeasibilityDiverged { step });
                }
                if evaluate(app, arch, &walk).is_ok() {
                    return Err(OracleFailure::FeasibilityDisagreement { step });
                }
                outcome.delta.undo(&mut walk);
                if walk != before {
                    return Err(OracleFailure::UndoDiverged { step });
                }
            }
        }
    }

    // Batch leg: one evaluate_batch call re-scores the accepted walk
    // states as arbitrary multi-move diffs against the initial
    // mapping; every summary must reproduce the sequential result.
    let mut batch_checked = 0;
    if !batch_states.is_empty() {
        let mut batch_eval = Evaluator::new(app, arch);
        let candidates: Vec<Mapping> = batch_states.iter().map(|(m, _)| m.clone()).collect();
        let results = batch_eval
            .evaluate_batch(mapping, &candidates)
            .map_err(|e| OracleFailure::Engine(format!("batch evaluation: {e}")))?;
        for (index, (result, (_, expected))) in results.iter().zip(&batch_states).enumerate() {
            match result {
                Ok(summary) if summary.makespan.value().to_bits() == *expected => {
                    batch_checked += 1;
                }
                Ok(summary) => {
                    return Err(OracleFailure::BatchVsSequential {
                        batch: summary.makespan.value().to_bits(),
                        sequential: *expected,
                        index,
                    });
                }
                Err(e) => {
                    return Err(OracleFailure::Engine(format!(
                        "batch evaluation of accepted state {index}: {e}"
                    )));
                }
            }
        }
    }

    Ok(OracleReport {
        makespan,
        contention_makespan,
        moves_checked,
        moves_applied,
        repair_checked,
        batch_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::smoke_corpus;
    use rdse_mapping::random_initial;

    #[test]
    fn oracle_passes_on_random_initial_solutions() {
        // A slice of the smoke corpus, checked at the initial solution
        // (the full corpus is exercised by the batch runner's tests).
        for spec in smoke_corpus().into_iter().take(6) {
            let (app, arch) = spec.build();
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let mapping = random_initial(&app, &arch, &mut rng);
            let report = differential_check(&app, &arch, &mapping, spec.seed ^ 0x0DD5, 24)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.id()));
            assert!(report.makespan.value() > 0.0);
            assert!(report.contention_makespan >= report.makespan);
        }
    }

    #[test]
    fn front_check_enforces_the_invariants() {
        let v = |mk: f64, area: f64| CostVector {
            makespan: mk,
            clb_area: area,
            reconfig_overhead: 1.0,
            contexts: 1.0,
        };
        // Empty front.
        let empty: ParetoFront<CostVector> = ParetoFront::new();
        assert_eq!(
            front_check(&empty, &v(1.0, 1.0)),
            Err(OracleFailure::FrontEmpty)
        );
        // A healthy front containing the winner passes.
        let mut front = ParetoFront::new();
        front.insert(v(10.0, 50.0));
        front.insert(v(20.0, 20.0));
        front_check(&front, &v(10.0, 50.0)).expect("valid front passes");
        // Winner missing from the front (smaller makespan than any
        // member) is a divergence.
        let err = front_check(&front, &v(5.0, 50.0)).unwrap_err();
        assert!(
            matches!(err, OracleFailure::FrontBestDiverged { .. }),
            "{err}"
        );
    }

    #[test]
    fn an_incremental_summary_off_by_one_micro_is_a_divergence() {
        let spec = &smoke_corpus()[0];
        let (app, arch) = spec.build();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mapping = random_initial(&app, &arch, &mut rng);
        let summary = Evaluator::new(&app, &arch).evaluate(&mapping).unwrap();
        check_state(&app, &arch, summary, &mapping, 3).expect("the true summary agrees");
        let off = EvalSummary {
            makespan: Micros::new(summary.makespan.value() + 1.0),
            ..summary
        };
        let err = check_state(&app, &arch, off, &mapping, 3).unwrap_err();
        assert!(
            matches!(err, OracleFailure::IncrementalVsScratch { step: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn oracle_detects_a_broken_contention_free_equality() {
        // Sanity: the failure enum formats actionably.
        let f = OracleFailure::DesVsAnalytic {
            des: 1,
            analytic: 2,
            step: 7,
        };
        assert!(f.to_string().contains("step 7"));
    }
}
