//! The `rdse` command-line tool: generate benchmark models, explore
//! mappings (single-chain or parallel portfolio), sweep architecture
//! grids, render schedules, and validate them by simulation.
//!
//! ```text
//! rdse generate <motion|figure1|layered|series-parallel|scenario> [--clbs N] [--seed N]
//!               [--sections N] [--branches N] [--workload FAM] [--arch-family FAM] [--dir D]
//! rdse explore  --app F.json --arch F.json [--iters N] [--warmup N]
//!               [--seed N] [--lambda X] [--chains K] [--threads T]
//!               [--exchange-every E] [--bandit] [--front-exchange]
//!               [--gantt] [--profile] [--save-mapping F]
//!               [--objective makespan|weighted:<w_mk>,<w_area>,<w_rc>|lexi:<order>]
//! rdse ga       --app F.json --arch F.json [--population N] [--generations N]
//!               [--seed N] [--nsga2]
//! rdse sweep    [--app F.json] [--clbs A,B,...] [--bus A,B,...]
//!               [--iters N] [--seed N] [--chains K] [--threads T]
//!               [--out F.json] [--csv F.csv]
//! rdse simulate --app F.json --arch F.json --mapping F.json [--contention]
//! rdse space    --app F.json
//! rdse corpus   list
//! rdse corpus   run [--smoke] [--families a,b] [--arches a,b] [--seeds 1,2]
//!               [--iters N] [--warmup N] [--chains K] [--threads T]
//!               [--exchange-every E] [--walk-steps W] [--out F.ndjson]
//!               [--golden F] [--write-golden F]
//! rdse serve    [--host H] [--port P] [--workers N] [--max-frame-len B]
//!               [--max-tasks N] [--max-iters N] [--max-chains N]
//!               [--max-sessions N] [--read-timeout-ms N]
//!               [--store F.aof] [--store-sync always|interval:N|never]
//! rdse store    <stats|compact|verify> --path F.aof
//! rdse submit   --addr HOST:PORT (--app F.json | --builtin NAME | --workload FAM)
//!               (--arch F.json | --clbs N | --arch-family FAM)
//!               [--app-seed N] [--arch-seed N] [--objective SPEC] [--iters N]
//!               [--warmup N] [--seed N] [--chains K] [--exchange-every E]
//!               [--quiet]
//! rdse submit   --addr HOST:PORT (--health | --shutdown | --get-job ID)
//! ```

use rdse::baseline::{GaOptions, GeneticExplorer};
use rdse::corpus::{
    cross_corpus, run_corpus, smoke_corpus, ArchFamily, CorpusOptions, WorkloadFamily,
};
use rdse::mapping::{
    chain_seed, evaluate, explore, explore_parallel, lexi_min, CostVector, Dominance,
    ExploreOptions, GanttChart, Mapping, Objective, ParallelOptions, ParetoFront,
};
use rdse::model::units::{Clbs, Micros};
use rdse::model::{Architecture, TaskGraph};
use rdse::serve::{
    client as serve_client,
    protocol::{AppSpec, ArchSpec, JobSpec},
    ClientOptions, Limits, ServeConfig, Server,
};
use rdse::sim::{simulate, SimConfig};
use rdse::store::{log::scan, Archive, ResultStore, SyncPolicy};
use rdse::workloads::{
    epicure_architecture, figure1_app, layered_dag, motion_detection_app, series_parallel_dag,
    LayeredDagConfig,
};
use serde::Serialize;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Mutex;

/// Shadows `std::println!` in this binary: once stdout is closed
/// (`rdse explore ... | head -1`), the command ends quietly with exit
/// code 0 instead of panicking on the failed write.
macro_rules! println {
    ($($arg:tt)*) => {
        print_line(format_args!($($arg)*))
    };
}

fn print_line(args: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout(), "{args}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of `flag` parsed as a `T`, or `default` when the flag is
/// absent. A value that does not parse ends the command with
/// [`EXIT_USAGE`], naming the flag and the value: running on the default
/// instead would hide the mistake.
fn arg_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    let Some(value) = arg_value(args, flag) else {
        return default;
    };
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects a number, got '{value}'");
        std::process::exit(i32::from(EXIT_USAGE))
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         rdse generate <motion|figure1|layered|series-parallel> [--clbs N] [--seed N]\n                [--sections N] [--branches N] [--dir D]\n  \
         rdse explore  --app F.json --arch F.json [--iters N] [--warmup N] [--seed N] [--lambda X]\n                [--chains K] [--threads T] [--exchange-every E] [--bandit] [--front-exchange]\n                [--gantt] [--profile] [--save-mapping F]\n                [--objective makespan|weighted:<w_mk>,<w_area>,<w_rc>|lexi:<order>]\n  \
         rdse ga       --app F.json --arch F.json [--population N] [--generations N] [--seed N] [--nsga2]\n  \
         rdse sweep    [--app F.json] [--clbs A,B,...] [--bus A,B,...] [--iters N] [--seed N]\n                [--chains K] [--threads T] [--exchange-every E] [--out F.json] [--csv F.csv]\n  \
         rdse simulate --app F.json --arch F.json --mapping F.json [--contention]\n  \
         rdse space    --app F.json\n  \
         rdse corpus   list\n  \
         rdse corpus   run [--smoke] [--families a,b] [--arches a,b] [--seeds 1,2] [--iters N]\n                [--warmup N] [--chains K] [--threads T] [--exchange-every E] [--walk-steps W]\n                [--out F.ndjson] [--golden F] [--write-golden F]\n  \
         rdse serve    [--host H] [--port P] [--workers N] [--max-frame-len B] [--max-tasks N]\n                [--max-iters N] [--max-chains N] [--max-sessions N] [--read-timeout-ms N]\n                [--store F.aof] [--store-sync always|interval:N|never]\n  \
         rdse store    <stats|compact|verify> --path F.aof\n  \
         rdse submit   --addr HOST:PORT (--app F.json | --builtin NAME | --workload FAM)\n                (--arch F.json | --clbs N | --arch-family FAM) [--objective SPEC] [--iters N]\n                [--seed N] [--chains K] [--quiet] | (--health | --shutdown | --get-job ID)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "generate" => generate(&args),
        "explore" => run_explore(&args),
        "ga" => run_ga(&args),
        "sweep" => run_sweep(&args),
        "simulate" => run_simulate(&args),
        "space" => run_space(&args),
        "corpus" => run_corpus_cmd(&args),
        "serve" => run_serve(&args),
        "submit" => run_submit(&args),
        "store" => run_store(&args),
        _ => usage(),
    }
}

/// Exit code for a malformed command line that was understood but
/// rejected (e.g. a bad `--objective` spec), distinct from runtime
/// failures (1).
const EXIT_USAGE: u8 = 2;

/// Parses `--objective makespan | weighted:<w_mk>,<w_area>,<w_rc> |
/// lexi:<axis>[,<axis>...]` into an [`Objective`]. `None` when the
/// flag is absent (default: minimize makespan).
///
/// Errors name the offending part, and callers exit with code 2:
/// unknown scheme, wrong weight arity, negative/non-finite weights,
/// unknown or duplicate lexicographic axes.
fn parse_objective(args: &[String]) -> Result<Option<Objective>, String> {
    let Some(spec) = arg_value(args, "--objective") else {
        return Ok(None);
    };
    // The shared grammar lives on Objective so the server validates
    // submissions identically; its messages say "objective ...", which
    // becomes "--objective ..." here to name the offending flag.
    Objective::parse_spec(&spec)
        .map(Some)
        .map_err(|e| e.replacen("objective", "--objective", 1))
}

/// Prints the Pareto front of an exploration in canonical
/// (makespan-ascending) order.
fn print_front(front: &ParetoFront<CostVector>) {
    println!(
        "pareto front  : {} non-dominated point(s) (makespan_us, clb_area, reconfig_us, contexts)",
        front.len()
    );
    for v in front.sorted_members(|a, b| a.makespan.total_cmp(&b.makespan)) {
        println!(
            "  ({:.1}, {}, {:.1}, {})",
            v.makespan, v.clb_area as u32, v.reconfig_overhead, v.contexts as u32
        );
    }
}

fn load_models(args: &[String]) -> Result<(TaskGraph, Architecture), String> {
    let app_path = arg_value(args, "--app").ok_or("missing --app")?;
    let arch_path = arg_value(args, "--arch").ok_or("missing --arch")?;
    let app = TaskGraph::load(&app_path).map_err(|e| format!("{app_path}: {e}"))?;
    let arch = Architecture::load(&arch_path).map_err(|e| format!("{arch_path}: {e}"))?;
    Ok((app, arch))
}

fn generate(args: &[String]) -> ExitCode {
    let kind = args.get(1).map(String::as_str).unwrap_or("motion");
    let clbs: u32 = arg_num(args, "--clbs", 2000);
    let seed: u64 = arg_num(args, "--seed", 1);
    let dir = arg_value(args, "--dir").unwrap_or_else(|| ".".into());
    let (app, arch, name) = match kind {
        "motion" => (motion_detection_app(), epicure_architecture(clbs), "motion"),
        "figure1" => (figure1_app(), epicure_architecture(clbs), "figure1"),
        "layered" => (
            layered_dag(&LayeredDagConfig::default(), seed),
            epicure_architecture(clbs),
            "layered",
        ),
        "series-parallel" => {
            let sections: usize = arg_num(args, "--sections", 4);
            let branches: usize = arg_num(args, "--branches", 3);
            (
                series_parallel_dag(sections, branches, seed),
                epicure_architecture(clbs),
                "series-parallel",
            )
        }
        // A corpus scenario (workload family × platform template ×
        // seed), saved as files so the offline explore path can be
        // compared bit-for-bit against a served job naming the same
        // scenario.
        "scenario" => {
            let workload = arg_value(args, "--workload").unwrap_or_else(|| "layered".into());
            let arch_family = arg_value(args, "--arch-family").unwrap_or_else(|| "epicure".into());
            let Some(wf) = WorkloadFamily::parse(&workload) else {
                eprintln!("error: unknown --workload family '{workload}' (see `rdse corpus list`)");
                return ExitCode::from(EXIT_USAGE);
            };
            let Some(af) = ArchFamily::parse(&arch_family) else {
                eprintln!("error: unknown --arch-family '{arch_family}' (see `rdse corpus list`)");
                return ExitCode::from(EXIT_USAGE);
            };
            (wf.generate(seed), af.build(seed), "scenario")
        }
        other => {
            eprintln!("unknown workload '{other}'");
            return usage();
        }
    };
    let app_path = format!("{dir}/{name}-app.json");
    let arch_path = format!("{dir}/{name}-arch.json");
    if let Err(e) = app.save(&app_path).and_then(|()| arch.save(&arch_path)) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {app_path} ({} tasks) and {arch_path} ({clbs} CLBs)",
        app.n_tasks()
    );
    ExitCode::SUCCESS
}

fn run_explore(args: &[String]) -> ExitCode {
    let (app, arch) = match load_models(args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let objective = match parse_objective(args) {
        Ok(o) => o.unwrap_or(Objective::MinimizeMakespan),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let opts = ExploreOptions {
        max_iterations: arg_num(args, "--iters", 5_000),
        warmup_iterations: arg_num(args, "--warmup", 1_200),
        seed: arg_num(args, "--seed", 1),
        lambda: arg_num(args, "--lambda", 0.5),
        objective,
        bandit_moves: args.iter().any(|a| a == "--bandit"),
        ..ExploreOptions::default()
    };
    let chains: usize = arg_num(args, "--chains", 1);

    let (outcome, portfolio) = if chains > 1 {
        let popts = ParallelOptions {
            base: opts.clone(),
            chains,
            threads: arg_num(args, "--threads", 0),
            exchange_every: arg_num(args, "--exchange-every", 500),
            warm_start: None,
            front_exchange: args.iter().any(|a| a == "--front-exchange"),
        };
        match explore_parallel(&app, &arch, &popts) {
            Ok(p) => {
                let mapping = p.mapping.clone();
                let evaluation = p.evaluation.clone();
                let run = p.chains[p.winner].run.clone();
                let eval_stats = p.chains[p.winner].eval_stats;
                (
                    rdse::mapping::ExploreOutcome {
                        mapping,
                        evaluation,
                        run,
                        eval_stats,
                    },
                    Some(p),
                )
            }
            Err(e) => {
                eprintln!("exploration failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match explore(&app, &arch, &opts) {
            Ok(o) => (o, None),
            Err(e) => {
                eprintln!("exploration failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    println!(
        "best makespan : {} ({} -> {:.1}% of initial)",
        outcome.evaluation.makespan,
        outcome.run.stop_description(),
        100.0 * outcome.run.best_cost / outcome.run.initial_cost
    );
    // Exact bit pattern for cross-process identity checks (the serve
    // path asserts its results against this line).
    println!(
        "makespan bits : {:016x}",
        outcome.evaluation.makespan.value().to_bits()
    );
    println!(
        "contexts      : {} | hardware tasks: {}/{}",
        outcome.evaluation.n_contexts,
        outcome.evaluation.n_hw_tasks,
        app.n_tasks()
    );
    println!(
        "breakdown     : reconfig {} + {} | comp/comm {}",
        outcome.evaluation.breakdown.initial_reconfig,
        outcome.evaluation.breakdown.dynamic_reconfig,
        outcome.evaluation.breakdown.computation_communication
    );
    println!("objective     : {}", opts.objective.describe());
    let front = match &portfolio {
        Some(p) => &p.front,
        None => outcome.front(),
    };
    print_front(front);
    if let Objective::Lexicographic { order } = &opts.objective {
        // The engine's best snapshot is the tiered winner (ties on the
        // primary axis are broken by lower tiers), so this vector is
        // exactly the solution reported above and saved by
        // --save-mapping. lexi_min over the merged front can only tie
        // it on the ordered axes.
        let win = &outcome.run.best_objectives;
        debug_assert!(lexi_min(front, order).is_some());
        println!(
            "lexi winner   : ({:.1}, {}, {:.1}, {})",
            win.makespan, win.clb_area as u32, win.reconfig_overhead, win.contexts as u32
        );
    }
    if let Some(p) = &portfolio {
        println!(
            "portfolio     : {} chains, winner {} | wall time {:?}",
            p.chains.len(),
            p.winner,
            p.elapsed
        );
        for c in &p.chains {
            println!(
                "  chain {:>2} (seed {:>20}): {} after {} iters, {} accepted",
                c.chain, c.seed, c.evaluation.makespan, c.run.iterations, c.run.accepted
            );
        }
    } else {
        println!("wall time     : {:?}", outcome.run.elapsed);
    }
    if args.iter().any(|a| a == "--profile") {
        match &portfolio {
            Some(p) => {
                for c in &p.chains {
                    print_profile(&format!("chain {:>2}", c.chain), &c.run, c.eval_stats);
                }
            }
            None => print_profile("chain  0", &outcome.run, outcome.eval_stats),
        }
    }
    if args.iter().any(|a| a == "--gantt") {
        let chart = GanttChart::extract(&app, &arch, &outcome.mapping, &outcome.evaluation);
        println!("{}", chart.render_ascii(&app, &arch, 100));
    }
    if let Some(path) = arg_value(args, "--save-mapping") {
        match save_json(&path, &outcome.mapping) {
            Ok(()) => println!("mapping saved : {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The §5 baseline as a first-class command: the Ben Chehida & Auguin
/// style genetic algorithm over spatial partitions, scalar
/// (makespan-only) by default, NSGA-II over the full cost vector with
/// `--nsga2`. Deterministic per seed, like `explore`.
fn run_ga(args: &[String]) -> ExitCode {
    let (app, arch) = match load_models(args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let nsga2 = args.iter().any(|a| a == "--nsga2");
    let opts = GaOptions {
        population: arg_num(args, "--population", 300),
        generations: arg_num(args, "--generations", 200),
        seed: arg_num(args, "--seed", 1),
        nsga2,
        ..GaOptions::default()
    };
    let outcome = match GeneticExplorer::new(&app, &arch, opts).run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("GA failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "best makespan : {} ({} generations, {} evaluations)",
        outcome.evaluation.makespan, outcome.generations, outcome.evaluations
    );
    println!(
        "makespan bits : {:016x}",
        outcome.evaluation.makespan.value().to_bits()
    );
    println!(
        "contexts      : {} | hardware tasks: {}/{}",
        outcome.evaluation.n_contexts,
        outcome.evaluation.n_hw_tasks,
        app.n_tasks()
    );
    println!(
        "selection     : {}",
        if nsga2 {
            "NSGA-II (non-dominated rank + crowding distance)"
        } else {
            "scalar tournament (makespan)"
        }
    );
    print_front(&outcome.front);
    println!("wall time     : {:?}", outcome.elapsed);
    ExitCode::SUCCESS
}

/// One `--profile` line: step throughput, move statistics and the
/// evaluator's allocation-free-step confirmation for one chain.
fn print_profile<C>(
    label: &str,
    run: &rdse::anneal::RunResult<C>,
    stats: rdse::mapping::EvaluatorStats,
) {
    let secs = run.elapsed.as_secs_f64();
    let steps_per_sec = if secs > 0.0 {
        run.iterations as f64 / secs
    } else {
        0.0
    };
    let alloc_free = if stats.arenas_warm() {
        format!(
            "yes (arenas stable since eval {} of {})",
            stats.last_growth_eval, stats.evaluations
        )
    } else {
        "no (arenas still growing)".to_string()
    };
    let mean_cone = if stats.repairs > 0 {
        stats.cone_nodes as f64 / stats.repairs as f64
    } else {
        0.0
    };
    println!(
        "profile {label}: {:.0} steps/s ({} steps in {:?}) | accepted {} rejected {} infeasible {} | allocation-free steps: {}",
        steps_per_sec, run.iterations, run.elapsed, run.accepted, run.rejected, run.infeasible, alloc_free
    );
    println!(
        "profile {label}: repairs {} (mean cone {:.1}, max cone {}) | full passes {} | window re-sorts {} | direct cycles {} | contexts re-derived {} resized {} kept {}",
        stats.repairs,
        mean_cone,
        stats.max_cone,
        stats.full_passes,
        stats.fallbacks,
        stats.direct_cycles,
        stats.contexts_recomputed,
        stats.contexts_resized,
        stats.contexts_untouched
    );
}

/// Serializes `value` to `path`, with an actionable message when the
/// target directory is missing or not writable.
fn save_json<T: Serialize>(path: &str, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("cannot serialize: {e}"))?;
    let parent = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = parent {
        if !dir.is_dir() {
            return Err(format!(
                "cannot write '{path}': directory '{}' does not exist",
                dir.display()
            ));
        }
    }
    std::fs::write(path, json)
        .map_err(|e| format!("cannot write '{path}': {e} (is the directory writable?)"))
}

/// One grid point of a sweep report.
#[derive(Debug, Clone, Serialize)]
struct SweepPoint {
    clbs: u32,
    bus_bytes_per_micro: f64,
    makespan_ms: f64,
    n_contexts: usize,
    n_hw_tasks: usize,
    /// Peak context CLB occupancy of the best mapping (the clb_area
    /// objective — how much of the device the winner actually uses).
    clb_area: u32,
    initial_reconfig_ms: f64,
    dynamic_reconfig_ms: f64,
    winner_chain: usize,
    iterations: u64,
    /// `true` when no other grid point has ≤ CLBs, ≤ bus rate *and*
    /// ≤ makespan with at least one strict inequality — i.e. the point
    /// is a member of the shared [`ParetoFront`] over the grid.
    pareto: bool,
}

impl SweepPoint {
    /// The point's coordinates in the sweep's objective space
    /// (device CLBs, bus rate, makespan — all minimized).
    fn objectives(&self) -> SweepObjectives {
        SweepObjectives {
            clbs: self.clbs,
            bus_bytes_per_micro: self.bus_bytes_per_micro,
            makespan_ms: self.makespan_ms,
        }
    }
}

/// The sweep's objective space: provisioned area × bus rate ×
/// achieved makespan, all minimized. A report-layer point, so it
/// implements [`Dominance`] directly rather than through a scalarizable
/// [`rdse::mapping::Cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct SweepObjectives {
    clbs: u32,
    bus_bytes_per_micro: f64,
    makespan_ms: f64,
}

impl Dominance for SweepObjectives {
    fn dominates(&self, other: &Self) -> bool {
        self.clbs <= other.clbs
            && self.bus_bytes_per_micro <= other.bus_bytes_per_micro
            && self.makespan_ms <= other.makespan_ms
            && (self.clbs < other.clbs
                || self.bus_bytes_per_micro < other.bus_bytes_per_micro
                || self.makespan_ms < other.makespan_ms)
    }
}

/// The full sweep report serialized to `--out`.
#[derive(Debug, Clone, Serialize)]
struct SweepReport {
    workload: String,
    seed: u64,
    chains: usize,
    iterations_per_point: u64,
    /// Members of the (clbs, bus, makespan) Pareto front over the grid.
    front_size: usize,
    points: Vec<SweepPoint>,
}

/// Parses a comma-separated `--flag a,b,c` list. As with [`arg_num`], a
/// malformed entry is an error — silently dropping it would shrink the
/// sweep grid behind the user's back.
fn parse_list<T: std::str::FromStr + Copy>(
    args: &[String],
    flag: &str,
    default: &[T],
) -> Result<Vec<T>, String> {
    match arg_value(args, flag) {
        None => Ok(default.to_vec()),
        Some(v) => v
            .split(',')
            .map(|s| {
                let s = s.trim();
                s.parse().map_err(|_| format!("invalid {flag} entry '{s}'"))
            })
            .collect(),
    }
}

/// Creates `path`'s parent directory (and ancestors) if missing, so
/// report flags like `--out results/sweep.json` work from a fresh
/// checkout.
fn ensure_parent_dir(path: &str) -> Result<(), String> {
    match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create '{}': {e}", dir.display())),
        _ => Ok(()),
    }
}

/// Fans the workload out over a CLB-count × bus-width grid, exploring
/// every point in parallel, and reports the Pareto-optimal
/// (area, bus, makespan) corners.
fn run_sweep(args: &[String]) -> ExitCode {
    let app = match arg_value(args, "--app") {
        Some(path) => match TaskGraph::load(&path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => motion_detection_app(),
    };
    let grids = parse_list(args, "--clbs", &[400u32, 800, 1500, 2000, 3000, 5000])
        .and_then(|c| parse_list(args, "--bus", &[25.0f64, 50.0, 100.0]).map(|b| (c, b)));
    let (clbs_grid, bus_grid) = match grids {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if clbs_grid.is_empty() || bus_grid.is_empty() {
        eprintln!("error: empty --clbs or --bus grid");
        return ExitCode::FAILURE;
    }
    let iters: u64 = arg_num(args, "--iters", 5_000);
    let warmup: u64 = arg_num(args, "--warmup", iters / 5);
    let seed: u64 = arg_num(args, "--seed", 1);
    let lambda: f64 = arg_num(args, "--lambda", 0.5);
    let chains: usize = arg_num(args, "--chains", 1);
    let exchange_every: u64 = arg_num(args, "--exchange-every", 500);
    let threads: usize = arg_num(args, "--threads", 0);
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };

    // The grid, in deterministic order; each point gets its own master
    // seed so results do not depend on which worker picks it up.
    let mut grid: Vec<(usize, u32, f64)> = Vec::new();
    for &c in &clbs_grid {
        for &b in &bus_grid {
            grid.push((grid.len(), c, b));
        }
    }
    let n_points = grid.len();
    // Grid points are the primary unit of parallelism; threads left
    // over by a small grid go to each point's chains (harmless for
    // determinism — explore_parallel is thread-count invariant).
    let pool = threads.min(n_points).max(1);
    let inner_threads = (threads / pool).max(1);
    let work: Mutex<Vec<(usize, u32, f64)>> = Mutex::new(grid);
    let results: Mutex<Vec<(usize, SweepPoint)>> = Mutex::new(Vec::with_capacity(n_points));
    let failure: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..pool {
            scope.spawn(|| loop {
                // A failure anywhere aborts the remaining grid instead
                // of burning cores on a report that will be discarded.
                if failure.lock().expect("failure lock").is_some() {
                    break;
                }
                let Some((idx, clbs, bus)) = work.lock().expect("work queue lock").pop() else {
                    break;
                };
                let arch = match Architecture::builder("epicure-sweep")
                    .processor("arm922", 10.0)
                    .drlc("virtex-e", Clbs::new(clbs), Micros::new(22.5), 25.0)
                    .bus_rate(bus)
                    .build()
                {
                    Ok(a) => a,
                    Err(e) => {
                        *failure.lock().expect("failure lock") = Some(format!(
                            "invalid architecture ({clbs} CLBs, bus {bus}): {e}"
                        ));
                        break;
                    }
                };
                let popts = ParallelOptions {
                    base: ExploreOptions {
                        max_iterations: iters,
                        warmup_iterations: warmup,
                        seed: chain_seed(seed, idx + 1),
                        lambda,
                        ..ExploreOptions::default()
                    },
                    chains,
                    threads: inner_threads,
                    exchange_every,
                    warm_start: None,
                    front_exchange: false,
                };
                match explore_parallel(&app, &arch, &popts) {
                    Ok(p) => {
                        let point = SweepPoint {
                            clbs,
                            bus_bytes_per_micro: bus,
                            makespan_ms: p.evaluation.makespan.as_millis(),
                            n_contexts: p.evaluation.n_contexts,
                            n_hw_tasks: p.evaluation.n_hw_tasks,
                            clb_area: p.evaluation.clb_area.value(),
                            initial_reconfig_ms: p
                                .evaluation
                                .breakdown
                                .initial_reconfig
                                .as_millis(),
                            dynamic_reconfig_ms: p
                                .evaluation
                                .breakdown
                                .dynamic_reconfig
                                .as_millis(),
                            winner_chain: p.winner,
                            iterations: p.chains.iter().map(|c| c.run.iterations).sum(),
                            pareto: false,
                        };
                        results.lock().expect("results lock").push((idx, point));
                        eprintln!(
                            "point {clbs:>5} CLBs x bus {bus:>6.1}: {:.1} ms",
                            p.evaluation.makespan.as_millis()
                        );
                    }
                    Err(e) => {
                        *failure.lock().expect("failure lock") =
                            Some(format!("exploration failed at {clbs} CLBs, bus {bus}: {e}"));
                        break;
                    }
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().expect("failure lock") {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut rows = results.into_inner().expect("results lock");
    rows.sort_by_key(|(idx, _)| *idx);
    let mut points: Vec<SweepPoint> = rows.into_iter().map(|(_, p)| p).collect();

    // Pareto front over minimized (clbs, bus, makespan), via the shared
    // archive: a point is on the front iff its objective triple
    // survives in the ParetoFront of the whole grid. (Duplicate
    // triples share one archive slot, so equal corners are all
    // flagged — exactly the old hand-rolled semantics.)
    let mut grid_front = ParetoFront::new();
    for p in &points {
        grid_front.insert(p.objectives());
    }
    for p in &mut points {
        p.pareto = grid_front.contains(&p.objectives());
    }

    println!("clbs   bus_B_per_us  makespan_ms  contexts  hw_tasks  clb_area  pareto");
    for p in &points {
        println!(
            "{:>5}  {:>12.1}  {:>11.2}  {:>8}  {:>8}  {:>8}  {}",
            p.clbs,
            p.bus_bytes_per_micro,
            p.makespan_ms,
            p.n_contexts,
            p.n_hw_tasks,
            p.clb_area,
            if p.pareto { "*" } else { "" }
        );
    }
    let front: Vec<String> = points
        .iter()
        .filter(|p| p.pareto)
        .map(|p| {
            format!(
                "({} CLBs, {} B/us, {:.1} ms)",
                p.clbs, p.bus_bytes_per_micro, p.makespan_ms
            )
        })
        .collect();
    println!("pareto front : {}", front.join(" "));

    let report = SweepReport {
        workload: app.name().to_owned(),
        seed,
        chains,
        iterations_per_point: iters,
        front_size: grid_front.len(),
        points,
    };
    let out = arg_value(args, "--out").unwrap_or_else(|| "results/sweep.json".into());
    if let Err(e) = ensure_parent_dir(&out) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = save_json(&out, &report) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("report saved : {out}");
    if let Some(csv) = arg_value(args, "--csv") {
        let mut text = String::from(
            "clbs,bus_bytes_per_micro,makespan_ms,n_contexts,n_hw_tasks,clb_area,\
             initial_reconfig_ms,dynamic_reconfig_ms,winner_chain,iterations,pareto\n",
        );
        for p in &report.points {
            text.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                p.clbs,
                p.bus_bytes_per_micro,
                p.makespan_ms,
                p.n_contexts,
                p.n_hw_tasks,
                p.clb_area,
                p.initial_reconfig_ms,
                p.dynamic_reconfig_ms,
                p.winner_chain,
                p.iterations,
                p.pareto
            ));
        }
        if let Err(e) = ensure_parent_dir(&csv).and_then(|()| {
            std::fs::write(&csv, text).map_err(|e| format!("cannot write '{csv}': {e}"))
        }) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("csv saved    : {csv}");
    }
    ExitCode::SUCCESS
}

fn run_simulate(args: &[String]) -> ExitCode {
    let (app, arch) = match load_models(args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let Some(mapping_path) = arg_value(args, "--mapping") else {
        eprintln!("missing --mapping");
        return usage();
    };
    let mapping: Mapping = match std::fs::read_to_string(&mapping_path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error reading {mapping_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = if args.iter().any(|a| a == "--contention") {
        SimConfig::with_contention()
    } else {
        SimConfig::contention_free()
    };
    match (
        evaluate(&app, &arch, &mapping),
        simulate(&app, &arch, &mapping, &cfg),
    ) {
        (Ok(analytic), Ok(report)) => {
            println!("analytic makespan : {}", analytic.makespan);
            println!("simulated makespan: {}", report.makespan);
            println!(
                "bus               : {} transfers, busy {}",
                report.n_transfers, report.bus_busy
            );
            println!("reconfiguration   : {}", report.reconfig_total);
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("simulation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--families`/`--arches` comma lists into registry entries,
/// erroring on unknown names (silently dropping one would shrink the
/// corpus behind the user's back).
fn parse_family_list<T, F: Fn(&str) -> Option<T>>(
    args: &[String],
    flag: &str,
    parse: F,
    default: Vec<T>,
) -> Result<Vec<T>, String> {
    match arg_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .split(',')
            .map(|s| {
                let s = s.trim();
                parse(s).ok_or_else(|| format!("unknown {flag} entry '{s}'"))
            })
            .collect(),
    }
}

/// `rdse corpus list|run` — the scenario-corpus batch runner with the
/// four-way differential oracle (see the `rdse-corpus` crate docs).
fn run_corpus_cmd(args: &[String]) -> ExitCode {
    match args.get(1).map(String::as_str) {
        Some("list") => {
            println!(
                "workload families : {}",
                family_names(&WorkloadFamily::defaults(), WorkloadFamily::name)
            );
            println!(
                "arch families     : {}",
                family_names(&ArchFamily::all(), ArchFamily::name)
            );
            println!("smoke corpus      :");
            for spec in smoke_corpus() {
                println!("  {}", spec.id());
            }
            ExitCode::SUCCESS
        }
        Some("run") => run_corpus_run(args),
        _ => usage(),
    }
}

fn family_names<T>(families: &[T], name: impl Fn(&T) -> &'static str) -> String {
    families.iter().map(name).collect::<Vec<_>>().join(", ")
}

fn run_corpus_run(args: &[String]) -> ExitCode {
    let smoke = args.iter().any(|a| a == "--smoke");
    // --smoke pins the scenario list AND the exploration knobs: the
    // checked-in golden snapshot is only reproducible at the pinned
    // configuration. Only --threads stays free (it never affects
    // results) — combining --smoke with a pinned knob is an error, not
    // a silent ignore.
    if smoke {
        const PINNED: [&str; 8] = [
            "--families",
            "--arches",
            "--seeds",
            "--iters",
            "--warmup",
            "--chains",
            "--exchange-every",
            "--walk-steps",
        ];
        if let Some(flag) = PINNED.iter().find(|f| args.iter().any(|a| &a == f)) {
            eprintln!(
                "error: {flag} conflicts with --smoke (the smoke subset and its \
                 exploration knobs are pinned to the golden snapshot; drop --smoke \
                 to customize the corpus)"
            );
            return ExitCode::FAILURE;
        }
    }
    let (specs, opts) = if smoke {
        (
            smoke_corpus(),
            CorpusOptions {
                threads: arg_num(args, "--threads", 0),
                ..CorpusOptions::default()
            },
        )
    } else {
        let lists = parse_family_list(
            args,
            "--families",
            WorkloadFamily::parse,
            WorkloadFamily::defaults(),
        )
        .and_then(|w| {
            parse_family_list(
                args,
                "--arches",
                ArchFamily::parse,
                ArchFamily::all().to_vec(),
            )
            .map(|a| (w, a))
        })
        .and_then(|(w, a)| parse_list(args, "--seeds", &[1u64, 2, 3]).map(|s| (w, a, s)));
        let (workloads, arches, seeds) = match lists {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let defaults = CorpusOptions::default();
        (
            cross_corpus(&workloads, &arches, &seeds),
            CorpusOptions {
                iters: arg_num(args, "--iters", defaults.iters),
                warmup: arg_num(args, "--warmup", defaults.warmup),
                chains: arg_num(args, "--chains", defaults.chains),
                exchange_every: arg_num(args, "--exchange-every", defaults.exchange_every),
                threads: arg_num(args, "--threads", 0),
                walk_steps: arg_num(args, "--walk-steps", defaults.walk_steps),
            },
        )
    };
    if specs.is_empty() {
        eprintln!("error: empty corpus");
        return ExitCode::FAILURE;
    }

    let report = match run_corpus(&specs, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("corpus FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    for r in &report.records {
        println!(
            "{:<40} {:>12.1} us  {:>2} ctx  {:>2} hw  oracle pass ({} moves)",
            r.id,
            r.makespan.value(),
            r.n_contexts,
            r.n_hw_tasks,
            r.oracle_moves_checked
        );
    }
    println!(
        "corpus: {} scenarios, all four-way oracles passed in {:?}",
        report.records.len(),
        report.elapsed
    );

    if let Some(out) = arg_value(args, "--out") {
        if let Err(e) = ensure_parent_dir(&out)
            .and_then(|()| std::fs::write(&out, report.ndjson()).map_err(|e| e.to_string()))
        {
            eprintln!("error: cannot write '{out}': {e}");
            return ExitCode::FAILURE;
        }
        println!("matrix saved : {out}");
    }
    if let Some(path) = arg_value(args, "--write-golden") {
        if let Err(e) = ensure_parent_dir(&path)
            .and_then(|()| std::fs::write(&path, report.golden_text()).map_err(|e| e.to_string()))
        {
            eprintln!("error: cannot write '{path}': {e}");
            return ExitCode::FAILURE;
        }
        println!("golden saved : {path}");
    }
    if let Some(path) = arg_value(args, "--golden") {
        let expected = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read golden '{path}': {e}");
                return ExitCode::FAILURE;
            }
        };
        match report.diff_golden(&expected) {
            Ok(()) => println!("golden check : {} matches", path),
            Err(e) => {
                eprintln!("golden check FAILED against {path}:\n{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `rdse serve` — stand up the long-running exploration service (see
/// the `rdse-serve` crate docs for the protocol and limits).
fn run_serve(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help") {
        println!(
            "usage: rdse serve [--host H] [--port P] [--workers N] [--max-frame-len B]\n\
             \x20                 [--max-tasks N] [--max-iters N] [--max-chains N]\n\
             \x20                 [--max-sessions N] [--read-timeout-ms N]\n\
             \x20                 [--store F.aof] [--store-sync always|interval:N|never]\n\
             \n\
             Serves exploration jobs over TCP (framed RPC and HTTP/1.1 on the same\n\
             port). --port 0 picks a free port; the bound address is printed on\n\
             stdout as 'rdse serve listening on HOST:PORT'. Stop it with\n\
             `rdse submit --addr HOST:PORT --shutdown`.\n\
             \n\
             --store persists every finished exploration to an append-only log and\n\
             answers repeat submissions from it: identical jobs return the archived\n\
             result bit-identically with no search, and new jobs over a known\n\
             (app, arch) pair warm-start from the best archived mapping.\n\
             --store-sync sets the fsync cadence (default: always)."
        );
        return ExitCode::SUCCESS;
    }
    let host = arg_value(args, "--host").unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = arg_num(args, "--port", 0);
    let workers: usize = arg_num(args, "--workers", 4);
    let defaults = Limits::default();
    let limits = Limits {
        max_frame_len: arg_num(args, "--max-frame-len", defaults.max_frame_len),
        max_tasks: arg_num(args, "--max-tasks", defaults.max_tasks),
        max_devices: arg_num(args, "--max-devices", defaults.max_devices),
        max_iters: arg_num(args, "--max-iters", defaults.max_iters),
        max_chains: arg_num(args, "--max-chains", defaults.max_chains),
        max_sessions: arg_num(args, "--max-sessions", defaults.max_sessions),
        read_timeout: std::time::Duration::from_millis(arg_num(
            args,
            "--read-timeout-ms",
            defaults.read_timeout.as_millis() as u64,
        )),
        write_timeout: defaults.write_timeout,
    };
    let store = arg_value(args, "--store").map(std::path::PathBuf::from);
    let store_sync = match arg_value(args, "--store-sync") {
        Some(spec) => match SyncPolicy::parse(&spec) {
            Some(p) => p,
            None => {
                eprintln!(
                    "error: --store-sync takes always, interval:N (N >= 1) or never, got '{spec}'"
                );
                return ExitCode::from(EXIT_USAGE);
            }
        },
        None => SyncPolicy::Always,
    };
    let server = match Server::bind(ServeConfig {
        host: host.clone(),
        port,
        workers,
        limits,
        store,
        store_sync,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {host}:{port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // CI and scripts parse this line for the bound port, so it
            // must reach the pipe before the accept loop blocks.
            println!("rdse serve listening on {addr} ({workers} workers)");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("error: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            println!("rdse serve: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `rdse store` — inspect and maintain a persistent result store
/// off-line (the serving path opens the same file via `--store`).
fn run_store(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help") {
        println!(
            "usage: rdse store <stats|compact|verify> --path F.aof\n\
             \n\
             stats    replay the log read-only and report record, pair and byte\n\
             \x20        counts (damaged spans and a torn tail are reported, not\n\
             \x20        repaired)\n\
             compact  atomically rewrite the log keeping the latest record per\n\
             \x20        key (temp file + rename; drops damaged spans and a torn tail)\n\
             verify   replay the log read-only; exit 0 if every byte is intact,\n\
             \x20        1 naming every damaged span and the damaged tail"
        );
        return ExitCode::SUCCESS;
    }
    let sub = match args.get(1).map(String::as_str) {
        Some(s @ ("stats" | "compact" | "verify")) => s,
        Some(other) => {
            eprintln!(
                "error: unknown store subcommand '{other}' (expected stats, compact or verify)"
            );
            return ExitCode::from(EXIT_USAGE);
        }
        None => {
            eprintln!("error: missing store subcommand (expected stats, compact or verify)");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let Some(path) = arg_value(args, "--path") else {
        eprintln!("error: missing --path F.aof");
        return ExitCode::from(EXIT_USAGE);
    };
    match sub {
        "stats" => {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut archive = Archive::new();
            let report = scan(&bytes, |r| archive.insert(r));
            println!("store         : {path}");
            println!("file bytes    : {}", bytes.len());
            println!("raw records   : {}", report.records);
            match report.v1_records {
                0 => println!("v1 records    : 0"),
                n => println!("v1 records    : {n} (compact to upgrade)"),
            }
            println!(
                "live records  : {} ({} pair(s))",
                archive.len(),
                archive.pairs()
            );
            for span in &report.skipped {
                println!("skipped       : {span}");
            }
            match &report.tail {
                Some(tail) => println!("tail          : torn ({tail})"),
                None => println!("tail          : clean"),
            }
            ExitCode::SUCCESS
        }
        "compact" => {
            let mut store = match ResultStore::open(&path, SyncPolicy::Always) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for span in &store.replay_report().skipped {
                eprintln!("warning: damaged span skipped ({span}); compaction drops it");
            }
            if let Some(tail) = &store.replay_report().tail {
                eprintln!("warning: torn tail skipped ({tail})");
            }
            match store.compact() {
                Ok(report) => {
                    println!(
                        "compacted     : {} -> {} record(s), {} -> {} bytes, {} damaged span(s) dropped",
                        report.records_before,
                        report.records_after,
                        report.bytes_before,
                        report.bytes_after,
                        report.spans_dropped
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: compaction failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => match rdse::store::verify(&path) {
            Ok((report, file_len)) => {
                if report.is_clean() {
                    println!(
                        "verified      : {} record(s), {} bytes, all checksums intact",
                        report.records, report.bytes
                    );
                    return ExitCode::SUCCESS;
                }
                for span in &report.skipped {
                    eprintln!("error: {path}: damaged span {span}");
                }
                if let Some(tail) = &report.tail {
                    eprintln!("error: {path}: damaged record {tail}");
                }
                let damaged: u64 = report.skipped.iter().map(|s| s.len).sum::<u64>()
                    + report.tail.as_ref().map_or(0, |t| file_len - t.offset);
                eprintln!(
                    "error: {path}: {} intact record(s); {damaged} of {file_len} bytes damaged",
                    report.records
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn value_f64(v: &serde::Value, field: &str) -> Option<f64> {
    match v.get(field) {
        Some(serde::Value::F64(x)) => Some(*x),
        Some(serde::Value::I64(x)) => Some(*x as f64),
        Some(serde::Value::U64(x)) => Some(*x as f64),
        _ => None,
    }
}

fn value_u64(v: &serde::Value, field: &str) -> Option<u64> {
    match v.get(field) {
        Some(serde::Value::I64(x)) if *x >= 0 => Some(*x as u64),
        Some(serde::Value::U64(x)) => Some(*x),
        _ => None,
    }
}

fn value_str<'v>(v: &'v serde::Value, field: &str) -> Option<&'v str> {
    match v.get(field) {
        Some(serde::Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Prints a served job result in the offline `explore` report shape,
/// including the bit-exact makespan line the CI identity check diffs.
fn print_submit_result(v: &serde::Value) {
    if let Some(job) = value_u64(v, "job") {
        println!("job           : {job}");
    }
    if let Some(mk) = value_f64(v, "makespan") {
        println!("best makespan : {mk:.1} us");
    }
    if let Some(bits) = value_str(v, "makespan_bits") {
        println!("makespan bits : {bits}");
    }
    if let (Some(ctx), Some(hw)) = (value_u64(v, "contexts"), value_u64(v, "hw_tasks")) {
        println!("contexts      : {ctx} | hardware tasks: {hw}");
    }
    if let Some(objective) = value_str(v, "objective") {
        println!("objective     : {objective}");
    }
    if let Some(serde::Value::Seq(front)) = v.get("front") {
        println!(
            "pareto front  : {} non-dominated point(s) (makespan_us, clb_area, reconfig_us, contexts)",
            front.len()
        );
        for m in front {
            println!(
                "  ({:.1}, {}, {:.1}, {})",
                value_f64(m, "makespan").unwrap_or(f64::NAN),
                value_u64(m, "clb_area").unwrap_or(0),
                value_f64(m, "reconfig").unwrap_or(f64::NAN),
                value_u64(m, "contexts").unwrap_or(0),
            );
        }
    }
    if let (Some(chains), Some(winner)) = (value_u64(v, "chains"), value_u64(v, "winner")) {
        println!("portfolio     : {chains} chains, winner {winner}");
    }
    if let Some(cache) = value_str(v, "cache") {
        println!("model cache   : {cache}");
    }
    if let Some(store) = value_str(v, "store") {
        if store != "off" {
            println!("result store  : {store}");
        }
    }
}

/// `rdse submit` — submit a job to (or probe / stop) a running
/// `rdse serve` instance.
fn run_submit(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help") {
        println!(
            "usage: rdse submit --addr HOST:PORT (--app F.json | --builtin NAME | --workload FAM)\n\
             \x20                  (--arch F.json | --clbs N | --arch-family FAM)\n\
             \x20                  [--app-seed N] [--arch-seed N] [--objective SPEC] [--iters N]\n\
             \x20                  [--warmup N] [--seed N] [--chains K] [--exchange-every E] [--quiet]\n\
             \x20      rdse submit --addr HOST:PORT (--health | --shutdown | --get-job ID)\n\
             \n\
             Submits one exploration job over the framed RPC transport and streams\n\
             progress updates to stderr until the final result. Results are\n\
             bit-identical to `rdse explore` for the same models, seed and chains.\n\
             Malformed input (bad --objective, over-limit job) exits with code 2\n\
             and a named cause; transport and server failures exit with code 1."
        );
        return ExitCode::SUCCESS;
    }
    let Some(addr) = arg_value(args, "--addr") else {
        eprintln!("error: missing --addr HOST:PORT");
        return ExitCode::from(EXIT_USAGE);
    };
    let mut opts = ClientOptions::default();
    opts.max_frame_len = arg_num(args, "--max-frame-len", opts.max_frame_len);
    if args.iter().any(|a| a == "--health") {
        return match serve_client::health(&addr, &opts) {
            Ok(v) => {
                println!("{}", serde_json::to_string_pretty(&v).unwrap_or_default());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.iter().any(|a| a == "--shutdown") {
        return match serve_client::shutdown(&addr, &opts) {
            Ok(_) => {
                println!("server at {addr} acknowledged shutdown");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(id) = arg_value(args, "--get-job") {
        let Ok(id) = id.parse::<u64>() else {
            eprintln!("error: --get-job takes a numeric job id, got '{id}'");
            return ExitCode::from(EXIT_USAGE);
        };
        return match serve_client::get_job(&addr, id, &opts) {
            Ok(v) => {
                println!("{}", serde_json::to_string_pretty(&v).unwrap_or_default());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                if e.code.as_deref() == Some("unknown-job") {
                    ExitCode::from(EXIT_USAGE)
                } else {
                    ExitCode::FAILURE
                }
            }
        };
    }

    // Job submission. Inline models are validated locally (so a bad
    // file is a usage error here, not a server round-trip), and the
    // objective grammar is checked before connecting.
    let app = if let Some(path) = arg_value(args, "--app") {
        match TaskGraph::load(&path) {
            Ok(g) => AppSpec::Inline(g.to_value()),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    } else if let Some(name) = arg_value(args, "--builtin") {
        AppSpec::Builtin(name)
    } else if let Some(family) = arg_value(args, "--workload") {
        AppSpec::Workload {
            family,
            seed: arg_num(args, "--app-seed", 1),
        }
    } else {
        eprintln!("error: missing application (--app F.json, --builtin NAME or --workload FAM)");
        return ExitCode::from(EXIT_USAGE);
    };
    let arch = if let Some(path) = arg_value(args, "--arch") {
        match Architecture::load(&path) {
            Ok(a) => ArchSpec::Inline(a.to_value()),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    } else if let Some(clbs) = arg_value(args, "--clbs") {
        match clbs.parse::<u32>() {
            Ok(n) => ArchSpec::Clbs(n),
            Err(_) => {
                eprintln!("error: --clbs takes a CLB count, got '{clbs}'");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    } else if let Some(family) = arg_value(args, "--arch-family") {
        ArchSpec::Family {
            family,
            seed: arg_num(args, "--arch-seed", 1),
        }
    } else {
        eprintln!("error: missing architecture (--arch F.json, --clbs N or --arch-family FAM)");
        return ExitCode::from(EXIT_USAGE);
    };
    let objective = arg_value(args, "--objective").unwrap_or_else(|| "makespan".into());
    if let Err(e) = Objective::parse_spec(&objective) {
        eprintln!("error: {}", e.replacen("objective", "--objective", 1));
        return ExitCode::from(EXIT_USAGE);
    }
    let spec = JobSpec {
        app,
        arch,
        objective,
        iters: arg_num(args, "--iters", 5_000),
        warmup: arg_num(args, "--warmup", 1_200),
        seed: arg_num(args, "--seed", 1),
        chains: arg_num(args, "--chains", 1),
        exchange_every: arg_num(args, "--exchange-every", 500),
    };
    let quiet = args.iter().any(|a| a == "--quiet");
    match serve_client::submit(&addr, &spec, &opts, |u| {
        if !quiet {
            if let (Some(seg), Some(best)) =
                (value_u64(u, "segment"), value_f64(u, "best_makespan"))
            {
                eprintln!(
                    "segment {seg:>4}: best {best:.1} us, front {}",
                    value_u64(u, "front_size").unwrap_or(0)
                );
            }
        }
    }) {
        Ok(result) => {
            print_submit_result(&result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if e.is_usage() {
                ExitCode::from(EXIT_USAGE)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn run_space(args: &[String]) -> ExitCode {
    let Some(app_path) = arg_value(args, "--app") else {
        eprintln!("missing --app");
        return usage();
    };
    let app = match TaskGraph::load(&app_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let g = app.precedence_graph();
    match rdse::graph::count_linear_extensions(&g, None) {
        Some(count) => {
            println!(
                "{}: {} tasks, {} total orders",
                app.name(),
                app.n_tasks(),
                count
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "{}: {} tasks, total-order count too large to compute exactly",
                app.name(),
                app.n_tasks()
            );
            ExitCode::FAILURE
        }
    }
}
