//! Property-based tests: the move engine must preserve every invariant
//! under arbitrary random walks, and the cached evaluation must always
//! agree with a from-scratch evaluation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse_anneal::Problem;
use rdse_mapping::moves::{propose_impl_move, propose_pair_move};
use rdse_mapping::{evaluate, random_initial, Cost, Evaluator, MappingProblem, MoveScratch};
use rdse_model::units::{Bytes, Clbs, Micros};
use rdse_model::{Architecture, HwImpl, TaskGraph};

/// Builds a random layered application from a compact recipe.
fn build_app(n_tasks: usize, edge_density: u8, hw_seed: u64) -> TaskGraph {
    let mut app = TaskGraph::new("prop");
    let mut rng = StdRng::seed_from_u64(hw_seed);
    for i in 0..n_tasks {
        let n_impls = rng.random_range(0..4usize);
        let impls = (0..n_impls)
            .map(|_| {
                HwImpl::new(
                    Clbs::new(rng.random_range(20..200)),
                    Micros::new(rng.random_range(1.0..50.0)),
                )
            })
            .collect();
        app.add_task(
            format!("t{i}"),
            "F",
            Micros::new(rng.random_range(10.0..500.0)),
            impls,
        )
        .expect("valid task");
    }
    for a in 0..n_tasks {
        for b in (a + 1)..n_tasks {
            if rng.random_range(0..100) < edge_density as u32 {
                app.add_data_edge(
                    rdse_model::TaskId(a as u32),
                    rdse_model::TaskId(b as u32),
                    Bytes::new(rng.random_range(1..5000)),
                )
                .expect("valid edge");
            }
        }
    }
    app
}

fn arch(clbs: u32) -> Architecture {
    Architecture::builder("soc")
        .processor("cpu", 1.0)
        .drlc("fpga", Clbs::new(clbs), Micros::new(5.0), 1.0)
        .bus_rate(50.0)
        .build()
        .expect("valid architecture")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_walks_preserve_all_invariants(
        n_tasks in 3usize..16,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        let app = build_app(n_tasks, density, seed);
        let arch = arch(clbs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let initial = random_initial(&app, &arch, &mut rng);
        let mut problem = MappingProblem::new(&app, &arch, initial)
            .expect("initial solution feasible");
        for step in 0..200u32 {
            let class = (step % 2) as usize;
            if let Some((mv, new_cost)) = problem.try_move(&mut rng, class) {
                // Cached cost equals a fresh evaluation.
                let fresh = evaluate(&app, &arch, problem.mapping()).expect("feasible");
                prop_assert!((fresh.makespan.value() - new_cost.scalar()).abs() < 1e-9);
                problem.mapping().validate(&app, &arch).expect("valid after move");
                if step % 3 == 0 {
                    let cost_before = problem.cost();
                    problem.undo(mv);
                    prop_assert!(problem.cost().scalar() <= cost_before.scalar() + 1e9); // sanity
                    let fresh = evaluate(&app, &arch, problem.mapping()).expect("feasible");
                    prop_assert!((fresh.makespan.value() - problem.cost().scalar()).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn makespan_never_below_critical_path_lower_bound(
        n_tasks in 3usize..12,
        density in 5u8..40,
        seed in 0u64..1_000_000,
    ) {
        let app = build_app(n_tasks, density, seed);
        let arch = arch(400);
        let mut rng = StdRng::seed_from_u64(seed);
        // Lower bound: every task needs at least its fastest execution.
        let fastest: f64 = app
            .tasks()
            .map(|(_, t)| {
                t.fastest_hw()
                    .map(|i| i.time().value().min(t.sw_time().value()))
                    .unwrap_or(t.sw_time().value())
            })
            .fold(0.0, f64::max);
        for _ in 0..10 {
            let m = random_initial(&app, &arch, &mut rng);
            let eval = evaluate(&app, &arch, &m).expect("feasible");
            prop_assert!(eval.makespan.value() + 1e-9 >= fastest);
        }
    }

    #[test]
    fn move_delta_undo_is_bit_identical(
        n_tasks in 3usize..16,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        // For random move sequences, applying a MoveDelta's undo must
        // leave the mapping bit-identical (full structural equality,
        // including processor-order positions and context task slots)
        // to a clone taken before the move.
        let app = build_app(n_tasks, density, seed);
        let arch = arch(clbs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut scratch = MoveScratch::default();
        let mut mapping = random_initial(&app, &arch, &mut rng);
        for step in 0..300u32 {
            let before = mapping.clone();
            let outcome = if step % 2 == 0 {
                propose_pair_move(&app, &arch, &mut mapping, &mut rng, &mut scratch)
            } else {
                propose_impl_move(&app, &arch, &mut mapping, &mut rng, &mut scratch)
            };
            match outcome {
                None => prop_assert_eq!(&mapping, &before, "None must leave mapping unchanged"),
                Some(out) => {
                    // Undo on a scratch copy restores bit-identity...
                    let mut undone = mapping.clone();
                    out.delta.undo(&mut undone);
                    prop_assert_eq!(&undone, &before, "delta undo diverged at step {}", step);
                    // ...and the walk continues from the applied state
                    // (undoing every other move to cover redo-after-undo).
                    if step % 3 == 0 {
                        out.delta.undo(&mut mapping);
                        prop_assert_eq!(&mapping, &before);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_evaluation_matches_from_scratch(
        n_tasks in 3usize..16,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        // On every accepted state of a random walk, the arena-backed
        // Evaluator must return the same summary — makespan to the bit
        // — as a from-scratch evaluate() of the same mapping.
        let app = build_app(n_tasks, density, seed);
        let arch = arch(clbs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let initial = random_initial(&app, &arch, &mut rng);
        let mut evaluator = Evaluator::new(&app, &arch);
        let mut problem = MappingProblem::new(&app, &arch, initial)
            .expect("initial solution feasible");
        for step in 0..200u32 {
            let class = (step % 2) as usize;
            if let Some((mv, new_cost)) = problem.try_move(&mut rng, class) {
                let summary = evaluator.evaluate(problem.mapping()).expect("feasible");
                let fresh = evaluate(&app, &arch, problem.mapping()).expect("feasible");
                prop_assert_eq!(
                    summary.makespan.value().to_bits(),
                    fresh.makespan.value().to_bits()
                );
                prop_assert_eq!(summary, fresh.summary());
                prop_assert_eq!(new_cost.scalar().to_bits(), fresh.makespan.value().to_bits());
                if step % 3 == 0 {
                    problem.undo(mv);
                    let fresh = evaluate(&app, &arch, problem.mapping()).expect("feasible");
                    prop_assert_eq!(problem.cost().scalar().to_bits(), fresh.makespan.value().to_bits());
                }
            }
        }
        // The walk warmed the arenas: steady state is allocation-free.
        prop_assert!(evaluator.stats().arenas_warm() || evaluator.stats().evaluations == 0);
    }

    #[test]
    fn batch_evaluation_matches_sequential(
        n_tasks in 3usize..14,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        // evaluate_batch must be indistinguishable, bit for bit, from
        // evaluating each candidate one at a time: same summaries for
        // feasible candidates, same error classification for
        // infeasible ones, and the evaluator must land back on the
        // base afterwards. Candidates are arbitrary multi-move
        // perturbations of the base, not just single moves.
        let app = build_app(n_tasks, density, seed);
        let arch = arch(clbs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let mut scratch = MoveScratch::default();
        let base = random_initial(&app, &arch, &mut rng);
        let mut batch_eval = Evaluator::new(&app, &arch);
        let mut seq_eval = Evaluator::new(&app, &arch);
        for _round in 0..4u32 {
            let mut candidates = Vec::new();
            for c in 0..6u32 {
                let mut cand = base.clone();
                for step in 0..=(c % 3) {
                    let _ = if (c + step) % 2 == 0 {
                        propose_pair_move(&app, &arch, &mut cand, &mut rng, &mut scratch)
                    } else {
                        propose_impl_move(&app, &arch, &mut cand, &mut rng, &mut scratch)
                    };
                }
                candidates.push(cand);
            }
            let results = batch_eval
                .evaluate_batch(&base, &candidates)
                .expect("base is feasible")
                .to_vec();
            prop_assert_eq!(results.len(), candidates.len());
            for (cand, got) in candidates.iter().zip(&results) {
                let fresh = evaluate(&app, &arch, cand);
                let seq = seq_eval.evaluate(cand);
                match (got, fresh, seq) {
                    (Ok(b), Ok(f), Ok(s)) => {
                        prop_assert_eq!(
                            b.makespan.value().to_bits(),
                            f.makespan.value().to_bits()
                        );
                        prop_assert_eq!(*b, f.summary());
                        prop_assert_eq!(*b, s);
                    }
                    (Err(be), Err(fe), Err(se)) => {
                        prop_assert_eq!(be, &fe);
                        prop_assert_eq!(be, &se);
                    }
                    (b, f, _) => prop_assert!(
                        false,
                        "batch/sequential disagree on feasibility: {:?} vs {:?}",
                        b,
                        f
                    ),
                }
            }
            // The batch left the evaluator synchronized to the base: a
            // no-op delta walk from here must agree with a fresh eval.
            let back = batch_eval.evaluate(&base).expect("base still feasible");
            let fresh = evaluate(&app, &arch, &base).expect("base feasible");
            prop_assert_eq!(back, fresh.summary());
        }
        // Repeated batches over the same shapes run in warm arenas.
        prop_assert!(batch_eval.stats().arenas_warm());
    }

    #[test]
    fn snapshot_restore_roundtrip(
        n_tasks in 3usize..10,
        seed in 0u64..1_000_000,
    ) {
        let app = build_app(n_tasks, 20, seed);
        let arch = arch(300);
        let mut rng = StdRng::seed_from_u64(seed);
        let initial = random_initial(&app, &arch, &mut rng);
        let mut problem = MappingProblem::new(&app, &arch, initial)
            .expect("feasible");
        let snap = problem.snapshot();
        let cost0 = problem.cost();
        for step in 0..50u32 {
            let _ = problem.try_move(&mut rng, (step % 2) as usize);
        }
        problem.restore(&snap);
        prop_assert_eq!(problem.cost(), cost0);
        problem.mapping().validate(&app, &arch).expect("valid after restore");
    }
}
