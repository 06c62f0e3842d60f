//! Exact quality rows: deterministic numbers of fixed-seed runs on the
//! paper's motion-detection workload and a 200-task layered DAG.
//! Nothing here reads a clock, so every value is compared exactly
//! (floats through `to_bits`), not against a tolerance. A change to
//! one of them is a change in search or evaluator behaviour.
//!
//! CI runs this file in both the debug and the release profile: the
//! motion model's `1.28_f64.powi(j)` implementation times can round
//! differently between the two.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdse_anneal::StopReason;
use rdse_baseline::{GaOptions, GeneticExplorer};
use rdse_bench::walk::{delta_walk, fig3, layered200};
use rdse_mapping::{
    explore, explore_parallel, hypervolume, random_initial, Cost, CostVector, Dominance, Evaluator,
    EvaluatorStats, ExploreOptions, Mapping, ParallelOptions, WarmStart,
};
use rdse_model::{Architecture, TaskGraph};

/// NSGA-II against the scalar GA on motion at 2 000 CLBs (population
/// 60, 40 generations, seed 1). Both hypervolumes use one reference
/// point: the per-axis maximum over front and point, plus 1.
#[test]
fn nsga2_front_against_the_scalar_point_is_exact() {
    let (app, arch) = fig3();
    let ga = |nsga2| {
        let opts = GaOptions {
            population: 60,
            generations: 40,
            stall_generations: 40,
            nsga2,
            seed: 1,
            ..GaOptions::default()
        };
        GeneticExplorer::new(&app, &arch, opts)
            .run()
            .expect("GA runs cleanly")
    };
    let scalar = ga(false);
    let nsga2 = ga(true);

    let point = CostVector::from_summary(&scalar.evaluation.summary());
    let members = nsga2.front.members();
    assert!(
        members.iter().any(|m| m.dominates(&point) || *m == point),
        "the NSGA-II front must weakly dominate the scalar GA's point"
    );
    let reference: Vec<f64> = (0..point.n_objectives())
        .map(|m| {
            members
                .iter()
                .map(|c| c.objective(m))
                .fold(point.objective(m), f64::max)
                + 1.0
        })
        .collect();
    let hv_over_point = hypervolume(members, &reference) / hypervolume(&[point], &reference);

    assert_eq!(members.len(), 45, "front size");
    assert_eq!(hv_over_point.to_bits(), 5_725_766.407_484_671_f64.to_bits());
    assert_eq!(
        point.makespan.to_bits(),
        31_048.786_373_179_59_f64.to_bits()
    );
    assert_eq!(
        nsga2.evaluation.makespan.value().to_bits(),
        30_968.175_308_711_51_f64.to_bits()
    );
}

/// The same 5 000-step annealing walk with and without the UCB
/// operator bandit: only the choice of move kind differs.
#[test]
fn bandit_over_default_is_exact() {
    let (app, arch) = fig3();
    let makespan = |bandit_moves| {
        let opts = ExploreOptions {
            max_iterations: 5_000,
            warmup_iterations: 1_200,
            seed: 1,
            bandit_moves,
            ..ExploreOptions::default()
        };
        let run = explore(&app, &arch, &opts).expect("explores cleanly");
        run.evaluation.makespan.value()
    };
    let default_us = makespan(false);
    let bandit_us = makespan(true);

    assert_eq!(default_us.to_bits(), 28_959.720_912_110_257_f64.to_bits());
    assert_eq!(bandit_us.to_bits(), 25_043.854_943_311_333_f64.to_bits());
    assert_eq!(
        (default_us / bandit_us).to_bits(),
        1.156_360_351_777_423_5_f64.to_bits()
    );
}

/// One chain of `budget` iterations, optionally stopping at `target`
/// and optionally warm-started.
fn one_chain(
    seed: u64,
    budget: u64,
    target: Option<f64>,
    warm: Option<Mapping>,
) -> ParallelOptions {
    ParallelOptions {
        base: ExploreOptions {
            max_iterations: budget,
            warmup_iterations: budget / 5,
            seed,
            target_cost: target,
            ..ExploreOptions::default()
        },
        chains: 1,
        threads: 1,
        exchange_every: 0,
        warm_start: warm.map(|mapping| WarmStart { mapping }),
        front_exchange: false,
    }
}

/// Iterations a run needs to reach the makespan its cold run ends at,
/// cold and warm-started from an archived donor (seed 7, twice the
/// budget): the value of the store's warm start.
#[test]
fn warm_start_iterations_to_the_cold_target_are_exact() {
    let (app, arch) = fig3();
    let run = |opts: &ParallelOptions| explore_parallel(&app, &arch, opts).expect("explores");
    let donor = run(&one_chain(7, 6_000, None, None));
    let target = run(&one_chain(1, 3_000, None, None)).chains[0]
        .run
        .best_cost;

    let cold = run(&one_chain(1, 3_000, Some(target), None));
    assert_eq!(
        cold.chains[0].run.stop,
        StopReason::TargetReached,
        "a run must reach its own final cost"
    );
    let warm = run(&one_chain(1, 3_000, Some(target), Some(donor.mapping)));
    assert_eq!(warm.chains[0].run.stop, StopReason::TargetReached);

    assert_eq!(target.to_bits(), 29_606.888_717_698_333_f64.to_bits());
    assert_eq!(cold.chains[0].run.iterations, 2_696, "cold iterations");
    assert_eq!(warm.chains[0].run.iterations, 1, "warm iterations");
}

/// A warm start changes only where the chain starts, never its walk:
/// warm-started from the very mapping the cold chain draws, a run is
/// the cold run, bit for bit.
#[test]
fn a_warm_start_from_the_cold_initial_repeats_the_cold_run() {
    let (app, arch) = fig3();
    let run = |warm| explore_parallel(&app, &arch, &one_chain(3, 2_000, None, warm)).unwrap();
    let initial = random_initial(&app, &arch, &mut StdRng::seed_from_u64(3));
    let cold = run(None);
    let warm = run(Some(initial));

    assert_eq!(warm.mapping, cold.mapping);
    assert_eq!(
        warm.chains[0].run.best_cost.to_bits(),
        cold.chains[0].run.best_cost.to_bits()
    );
    assert_eq!(warm.chains[0].run.accepted, cold.chains[0].run.accepted);
}

/// The evaluator's counters after a fixed walk: 2 000 proposals checked
/// bit for bit against a from-scratch evaluator, then 20 000 more.
fn walk_stats(app: &TaskGraph, arch: &Architecture, seed: u64) -> EvaluatorStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mapping = random_initial(app, arch, &mut rng);
    let mut evaluator = Evaluator::new(app, arch);
    evaluator.evaluate(&mapping).expect("feasible initial");
    let mut reference = Evaluator::new(app, arch);
    let (eval, mapping, rng) = (&mut evaluator, &mut mapping, &mut rng);
    delta_walk(app, arch, eval, mapping, rng, 2_000, Some(&mut reference));
    delta_walk(app, arch, eval, mapping, rng, 20_000, None);
    evaluator.stats()
}

/// Compares the walk's sweeps, window re-sorts, direct cycles,
/// in-place resizes, mean cone (as bits) and max cone.
fn assert_counts(s: &EvaluatorStats, expected: (u64, u64, u64, u64, f64, u64)) {
    let got = (
        s.repairs,
        s.fallbacks,
        s.direct_cycles,
        s.contexts_resized,
        s.mean_cone().to_bits(),
        s.max_cone,
    );
    let (sweeps, resorts, direct, resized, mean_cone, max_cone) = expected;
    let want = (
        sweeps,
        resorts,
        direct,
        resized,
        mean_cone.to_bits(),
        max_cone,
    );
    assert_eq!(got, want);
}

#[test]
fn delta_walk_counts_are_exact_on_fig3() {
    let (app, arch) = fig3();
    let stats = walk_stats(&app, &arch, 7);
    assert_counts(
        &stats,
        (11_834, 2_343, 2_664, 10_778, 27.261_788_068_277_845, 28),
    );
}

#[test]
fn delta_walk_counts_are_exact_on_layered200() {
    let (app, arch) = layered200();
    let stats = walk_stats(&app, &arch, 9);
    assert_counts(
        &stats,
        (11_716, 1_936, 6_561, 10_889, 125.953_397_063_844_32, 200),
    );
}
