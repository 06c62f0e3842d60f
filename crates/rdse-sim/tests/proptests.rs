//! Property tests over *random scenarios*: strategies generate random
//! heterogeneous architectures and random feasible mappings, and the
//! simulator's two bus models must order themselves correctly on every
//! one — an exclusive FIFO bus can only delay transfers, so
//! `simulate(with_contention).makespan >= simulate(contention_free).makespan`,
//! while the contention-free run must coincide with the analytic
//! longest path bit for bit. Along unchecked random walks, which also
//! reach infeasible mappings, `simulate` must fail exactly when
//! `evaluate` does, with the same error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse_mapping::moves::{propose_impl_move, propose_pair_move};
use rdse_mapping::{evaluate, random_initial, Mapping, MoveScratch};
use rdse_model::units::{Bytes, Clbs, Micros};
use rdse_model::{Architecture, HwImpl, TaskGraph, TaskId};
use rdse_sim::{simulate, SimConfig};

/// Strategy for random heterogeneous architectures: 1–2 processors,
/// 1–2 reconfigurable devices with independent capacities and `tR`,
/// an optional ASIC, and a bus rate spanning starved to ample.
fn arch_strategy() -> impl Strategy<Value = Architecture> {
    (
        1usize..=2,    // processors
        1usize..=2,    // DRLCs
        150u32..900,   // CLB capacity of the first device
        0.5f64..30.0,  // tR (µs per CLB)
        5.0f64..100.0, // bus rate (bytes/µs)
        proptest::bool::weighted(0.3),
    )
        .prop_map(|(procs, drlcs, clbs, tr, bus, asic)| {
            let mut b = Architecture::builder("prop-arch");
            for p in 0..procs {
                b = b.processor(format!("cpu{p}"), 1.0);
            }
            for d in 0..drlcs {
                // The second device is smaller and reconfigures faster.
                let scale = (d as u32) + 1;
                b = b.drlc(
                    format!("fpga{d}"),
                    Clbs::new((clbs / scale).max(100)),
                    Micros::new(tr / scale as f64),
                    1.0,
                );
            }
            if asic {
                b = b.asic("accel", 1.0);
            }
            b.bus_rate(bus).build().expect("recipe is always valid")
        })
}

/// `arch` with every reconfigurable device at half its CLB capacity,
/// so mappings built for `arch` overflow some of their contexts.
fn halved(arch: &Architecture) -> Architecture {
    let mut b = Architecture::builder("halved");
    for p in arch.processors() {
        b = b.processor(p.name(), p.cost());
    }
    for d in arch.drlcs() {
        b = b.drlc(
            d.name(),
            Clbs::new(d.n_clbs().value() / 2),
            d.reconfig_time_per_clb(),
            d.cost(),
        );
    }
    for a in arch.asics() {
        b = b.asic(a.name(), a.cost());
    }
    b.bus_rate(arch.bus().bytes_per_micro())
        .build()
        .expect("same recipe, smaller devices")
}

/// Builds a random DAG application from a compact recipe.
fn build_app(n_tasks: usize, density: u8, seed: u64) -> TaskGraph {
    let mut app = TaskGraph::new("prop-app");
    let mut rng = StdRng::seed_from_u64(seed);
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
            if rng.random_range(0..100) < density as u32 {
                app.add_data_edge(
                    TaskId(a as u32),
                    TaskId(b as u32),
                    Bytes::new(rng.random_range(1..5000)),
                )
                .expect("valid edge");
            }
        }
    }
    app
}

/// Strategy for complete random scenarios: application × architecture
/// × a feasible random mapping (the paper's random initial solution).
fn scenario_strategy() -> impl Strategy<Value = (TaskGraph, Architecture, Mapping)> {
    (3usize..14, 5u8..40, 0u64..1_000_000, arch_strategy()).prop_map(
        |(n_tasks, density, seed, arch)| {
            let app = build_app(n_tasks, density, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51u64);
            let mapping = random_initial(&app, &arch, &mut rng);
            (app, arch, mapping)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn contention_never_beats_contention_free(
        scenario in scenario_strategy(),
    ) {
        let (app, arch, mapping) = scenario;
        let free = simulate(&app, &arch, &mapping, &SimConfig::contention_free())
            .expect("random initial solutions are feasible");
        let contended = simulate(&app, &arch, &mapping, &SimConfig::with_contention())
            .expect("random initial solutions are feasible");
        prop_assert!(
            contended.makespan.value() >= free.makespan.value() - 1e-6,
            "exclusive bus beat contention-free: {} < {}",
            contended.makespan,
            free.makespan
        );
        // Same transfers happen either way; contention only reorders them.
        prop_assert_eq!(contended.n_transfers, free.n_transfers);
        prop_assert!(contended.bus_busy.value() >= free.bus_busy.value() - 1e-6);
    }

    #[test]
    fn contention_free_makespan_is_the_analytic_longest_path(
        scenario in scenario_strategy(),
    ) {
        let (app, arch, mapping) = scenario;
        let analytic = evaluate(&app, &arch, &mapping).expect("feasible");
        let des = simulate(&app, &arch, &mapping, &SimConfig::contention_free())
            .expect("feasible");
        prop_assert_eq!(
            des.makespan.value().to_bits(),
            analytic.makespan.value().to_bits(),
            "DES {} vs analytic {}",
            des.makespan,
            analytic.makespan
        );
    }

    #[test]
    fn several_mappings_per_architecture_keep_the_ordering(
        n_tasks in 4usize..12,
        density in 5u8..35,
        seed in 0u64..1_000_000,
        arch in arch_strategy(),
    ) {
        // Re-draws multiple mappings on one platform: the bus-model
        // ordering is a property of the simulator, not of one lucky
        // initial solution.
        let app = build_app(n_tasks, density, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB05);
        for _ in 0..6 {
            let m = random_initial(&app, &arch, &mut rng);
            let free = simulate(&app, &arch, &m, &SimConfig::contention_free())
                .expect("feasible");
            let contended = simulate(&app, &arch, &m, &SimConfig::with_contention())
                .expect("feasible");
            prop_assert!(contended.makespan.value() >= free.makespan.value() - 1e-6);
        }
    }

    #[test]
    fn simulate_fails_exactly_when_evaluate_does(
        scenario in scenario_strategy(),
        walk_seed in 0u64..1_000_000,
    ) {
        // Moves are applied without a feasibility check, so the walk
        // crosses cyclic orders; on the halved platform its contexts
        // also overflow. The DES must classify each state the way the
        // analytic model does.
        let (app, arch, mut mapping) = scenario;
        let small = halved(&arch);
        let mut rng = StdRng::seed_from_u64(walk_seed);
        let mut scratch = MoveScratch::default();
        for step in 0..60u32 {
            for platform in [&arch, &small] {
                let analytic = evaluate(&app, platform, &mapping);
                for cfg in [SimConfig::contention_free(), SimConfig::with_contention()] {
                    let des = simulate(&app, platform, &mapping, &cfg);
                    prop_assert_eq!(
                        des.as_ref().err(),
                        analytic.as_ref().err(),
                        "step {} ({:?})",
                        step,
                        cfg
                    );
                }
            }
            if step % 2 == 0 {
                propose_pair_move(&app, &arch, &mut mapping, &mut rng, &mut scratch);
            } else {
                propose_impl_move(&app, &arch, &mut mapping, &mut rng, &mut scratch);
            }
        }
    }
}
