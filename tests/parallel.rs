//! Cross-crate tests of the parallel portfolio explorer: determinism
//! across thread counts, exact single-chain equivalence, and the
//! equal-budget quality/wall-clock smoke of the Fig. 2/3 protocol.

use rdse::mapping::{
    explore, explore_parallel, ExploreOptions, Explorer, ParallelOptions, ParallelOutcome,
};
use rdse::workloads::{epicure_architecture, motion_detection_app};

fn motion_portfolio(threads: usize, chains: usize, total_iters: u64, seed: u64) -> ParallelOutcome {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    explore_parallel(
        &app,
        &arch,
        &ParallelOptions {
            base: ExploreOptions {
                max_iterations: total_iters,
                warmup_iterations: total_iters / 5,
                seed,
                ..ExploreOptions::default()
            },
            chains,
            threads,
            exchange_every: 250,
            warm_start: None,
            front_exchange: false,
        },
    )
    .expect("motion benchmark explores cleanly")
}

#[test]
fn portfolio_is_bit_identical_across_thread_counts() {
    // The tentpole guarantee: (seed, chains) fully determines the
    // result; the worker count only changes wall-clock time.
    let a = motion_portfolio(1, 4, 3_000, 41);
    let b = motion_portfolio(2, 4, 3_000, 41);
    let c = motion_portfolio(8, 4, 3_000, 41);
    assert_eq!(
        a.evaluation.makespan.value().to_bits(),
        b.evaluation.makespan.value().to_bits()
    );
    assert_eq!(
        b.evaluation.makespan.value().to_bits(),
        c.evaluation.makespan.value().to_bits()
    );
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(b.mapping, c.mapping);
    assert_eq!(a.winner, c.winner);
    for (x, y) in a.chains.iter().zip(&c.chains) {
        assert_eq!(x.run.best_cost.to_bits(), y.run.best_cost.to_bits());
        assert_eq!(x.run.iterations, y.run.iterations);
        assert_eq!(x.run.accepted, y.run.accepted);
        assert_eq!(x.run.infeasible, y.run.infeasible);
        // The evaluator's repair behaviour (full passes, sweeps,
        // window re-sorts, cone sizes) is part of the deterministic
        // contract too: a chain must take the *same* code paths no
        // matter how many workers host it.
        assert_eq!(x.eval_stats, y.eval_stats);
    }
    // So are the context-mirror counters: the same deltas re-derive
    // (and keep) the same contexts at every worker count.
    for ((x, y), z) in a.chains.iter().zip(&b.chains).zip(&c.chains) {
        let counts =
            |s: &rdse::mapping::EvaluatorStats| (s.contexts_recomputed, s.contexts_untouched);
        assert_eq!(counts(&x.eval_stats), counts(&y.eval_stats));
        assert_eq!(counts(&y.eval_stats), counts(&z.eval_stats));
        assert!(x.eval_stats.contexts_recomputed > 0, "{:?}", x.eval_stats);
    }
}

#[test]
fn one_chain_portfolio_equals_single_chain_explore() {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let opts = ExploreOptions {
        max_iterations: 2_500,
        warmup_iterations: 500,
        seed: 23,
        ..ExploreOptions::default()
    };
    let single = explore(&app, &arch, &opts).expect("explores cleanly");
    let portfolio = explore_parallel(
        &app,
        &arch,
        &ParallelOptions {
            base: opts,
            chains: 1,
            threads: 8,
            exchange_every: 250,
            warm_start: None,
            front_exchange: false,
        },
    )
    .expect("explores cleanly");
    assert_eq!(portfolio.winner, 0);
    assert_eq!(portfolio.mapping, single.mapping);
    assert_eq!(
        portfolio.evaluation.makespan.value().to_bits(),
        single.evaluation.makespan.value().to_bits()
    );
    assert_eq!(portfolio.chains[0].run.accepted, single.run.accepted);
}

#[test]
fn segmented_explorer_matches_explore_on_motion() {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let opts = ExploreOptions {
        max_iterations: 2_000,
        warmup_iterations: 400,
        seed: 3,
        ..ExploreOptions::default()
    };
    let whole = explore(&app, &arch, &opts).expect("explores cleanly");
    let mut chain = Explorer::new(&app, &arch, &opts).expect("initial solution exists");
    while chain.run_segment(333) {}
    let segmented = chain.into_outcome();
    assert_eq!(whole.mapping, segmented.mapping);
    assert_eq!(
        whole.evaluation.makespan.value().to_bits(),
        segmented.evaluation.makespan.value().to_bits()
    );
}

#[test]
fn eight_chains_match_single_chain_quality_at_equal_budget() {
    // The §5-style smoke: at an equal *total* iteration budget the
    // 8-chain portfolio lands in the same quality band as the
    // single-chain tool. Chain results fluctuate a few percent around
    // parity, so the bound is deliberately generous; the wall-clock
    // bound only asserts that threading never regresses badly (on a
    // multi-core box it improves, on a single-core runner it is a
    // small constant overhead).
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let base = ExploreOptions {
        max_iterations: 6_000,
        warmup_iterations: 1_200,
        seed: 17,
        ..ExploreOptions::default()
    };
    let single = explore(&app, &arch, &base).expect("explores cleanly");

    let serial = motion_portfolio(1, 8, 6_000, 17);
    let threaded = motion_portfolio(0, 8, 6_000, 17); // 0 = all cores

    // Thread count must not change the answer...
    assert_eq!(serial.mapping, threaded.mapping);
    // ...the portfolio winner must be in the single-chain quality band...
    assert!(
        threaded.evaluation.makespan.value() <= single.evaluation.makespan.value() * 1.15,
        "portfolio {} far worse than single-chain {}",
        threaded.evaluation.makespan,
        single.evaluation.makespan
    );
    // ...every chain ran, splitting the budget...
    assert_eq!(threaded.chains.len(), 8);
    let total: u64 = threaded.chains.iter().map(|c| c.run.iterations).sum();
    assert_eq!(total, 6_000);
    // ...and threads do not blow up wall-clock (they improve it when
    // cores are available). The margin is deliberately wide: CI
    // runners are noisy, and the determinism assertions above are the
    // load-bearing ones.
    assert!(
        threaded.elapsed.as_secs_f64() <= serial.elapsed.as_secs_f64() * 2.0 + 0.25,
        "threaded portfolio far slower than serial: {:?} vs {:?}",
        threaded.elapsed,
        serial.elapsed
    );
}

#[test]
fn portfolio_chains_explore_distinct_streams() {
    let portfolio = motion_portfolio(2, 4, 4_000, 11);
    // All chains derive different seeds from the master (chain 0 keeps
    // the master itself)...
    let mut seeds: Vec<u64> = portfolio.chains.iter().map(|c| c.seed).collect();
    assert_eq!(seeds[0], 11);
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 4);
    // ...and the winner is the argmin over per-chain bests.
    let best = portfolio
        .chains
        .iter()
        .map(|c| c.run.best_cost)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(
        portfolio.chains[portfolio.winner].run.best_cost.to_bits(),
        best.to_bits()
    );
}
