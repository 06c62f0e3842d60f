//! The `rdse` command-line tool: generate benchmark models, explore
//! mappings (single-chain or parallel portfolio), sweep architecture
//! grids, render schedules, and validate them by simulation.
//!
//! Every command's flags are declared once, in the tables below;
//! `rdse --help` and `rdse <command> --help` print usage generated
//! from them.

use rdse::baseline::{GaOptions, GeneticExplorer};
use rdse::corpus::{
    cross_corpus, run_corpus, smoke_corpus, ArchFamily, CorpusOptions, WorkloadFamily,
};
use rdse::mapping::{
    chain_seed, evaluate, explore, explore_parallel, lexi_min, CostVector, Dominance,
    ExploreOptions, ExploreOutcome, GanttChart, Mapping, Objective, ParallelOptions, ParetoFront,
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
use rdse_cli::{self as cli, flag, required, switch, Args, Command};
use serde::Serialize;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Mutex;

#[rustfmt::skip]
static GENERATE: Command = Command {
    name: "rdse generate",
    operands: "[<motion|figure1|layered|series-parallel|scenario>]",
    flags: &[
        flag("--clbs", "N"), flag("--seed", "N"), flag("--sections", "N"), flag("--branches", "N"),
        flag("--workload", "FAM"), flag("--arch-family", "FAM"), flag("--dir", "D"),
    ],
    about: "",
};

#[rustfmt::skip]
static EXPLORE: Command = Command {
    name: "rdse explore",
    operands: "",
    flags: &[
        required("--app", "F.json"), required("--arch", "F.json"), flag("--iters", "N"),
        flag("--warmup", "N"), flag("--seed", "N"), flag("--lambda", "X"), flag("--chains", "K"),
        flag("--threads", "T"), flag("--exchange-every", "E"), switch("--bandit"),
        switch("--front-exchange"), switch("--gantt"), switch("--profile"),
        flag("--save-mapping", "F"),
        flag("--objective", "makespan|weighted:<w_mk>,<w_area>,<w_rc>|lexi:<order>"),
    ],
    about: "",
};

#[rustfmt::skip]
static GA: Command = Command {
    name: "rdse ga",
    operands: "",
    flags: &[
        required("--app", "F.json"), required("--arch", "F.json"), flag("--population", "N"),
        flag("--generations", "N"), flag("--seed", "N"), switch("--nsga2"),
    ],
    about: "",
};

#[rustfmt::skip]
static SWEEP: Command = Command {
    name: "rdse sweep",
    operands: "",
    flags: &[
        flag("--app", "F.json"), flag("--clbs", "A,B,..."), flag("--bus", "A,B,..."),
        flag("--iters", "N"), flag("--warmup", "N"), flag("--seed", "N"), flag("--lambda", "X"),
        flag("--chains", "K"), flag("--threads", "T"), flag("--exchange-every", "E"),
        flag("--out", "F.json"), flag("--csv", "F.csv"),
    ],
    about: "",
};

#[rustfmt::skip]
static SIMULATE: Command = Command {
    name: "rdse simulate",
    operands: "",
    flags: &[
        required("--app", "F.json"), required("--arch", "F.json"), required("--mapping", "F.json"),
        switch("--contention"),
    ],
    about: "",
};

static SPACE: Command = Command {
    name: "rdse space",
    operands: "",
    flags: &[required("--app", "F.json")],
    about: "",
};

static CORPUS_LIST: Command = Command {
    name: "rdse corpus",
    operands: "list",
    flags: &[],
    about: "",
};

#[rustfmt::skip]
static CORPUS_RUN: Command = Command {
    name: "rdse corpus",
    operands: "run",
    flags: &[
        switch("--smoke"), flag("--families", "a,b"), flag("--arches", "a,b"),
        flag("--seeds", "1,2"), flag("--iters", "N"), flag("--warmup", "N"), flag("--chains", "K"),
        flag("--threads", "T"), flag("--exchange-every", "E"), flag("--walk-steps", "W"),
        flag("--out", "F.ndjson"), flag("--golden", "F"), flag("--write-golden", "F"),
    ],
    about: "",
};

#[rustfmt::skip]
static SERVE: Command = Command {
    name: "rdse serve",
    operands: "",
    flags: &[
        flag("--host", "H"), flag("--port", "P"), flag("--workers", "N"),
        flag("--max-frame-len", "B"), flag("--max-tasks", "N"), flag("--max-devices", "N"),
        flag("--max-iters", "N"), flag("--max-chains", "N"), flag("--max-sessions", "N"),
        flag("--read-timeout-ms", "N"), flag("--store", "F.aof"),
        flag("--store-sync", "always|interval:N|never"),
    ],
    about: "Serves exploration jobs over TCP (framed RPC and HTTP/1.1 on the same\n\
            port). --port 0 picks a free port; the bound address is printed on\n\
            stdout as 'rdse serve listening on HOST:PORT'. Stop it with\n\
            `rdse submit --addr HOST:PORT --shutdown`.\n\
            \n\
            --store persists every finished exploration to an append-only log and\n\
            answers repeat submissions from it: identical jobs return the archived\n\
            result bit-identically with no search, and new jobs over a known\n\
            (app, arch) pair warm-start from the best archived mapping.\n\
            --store-sync sets the fsync cadence (default: always).",
};

static STORE: Command = Command {
    name: "rdse store",
    operands: "<stats|compact|verify>",
    flags: &[required("--path", "F.aof")],
    about: "stats    replay the log read-only and report record, pair and byte\n\
            \x20        counts (damaged spans and a torn tail are reported, not\n\
            \x20        repaired)\n\
            compact  atomically rewrite the log keeping the latest record per\n\
            \x20        key (temp file + rename; drops damaged spans and a torn tail)\n\
            verify   replay the log read-only; exit 0 if every byte is intact,\n\
            \x20        1 naming every damaged span and the damaged tail",
};

#[rustfmt::skip]
static SUBMIT: Command = Command {
    name: "rdse submit",
    operands: "",
    flags: &[
        required("--addr", "HOST:PORT"), flag("--app", "F.json"), flag("--builtin", "NAME"),
        flag("--workload", "FAM"), flag("--app-seed", "N"), flag("--arch", "F.json"),
        flag("--clbs", "N"), flag("--arch-family", "FAM"), flag("--arch-seed", "N"),
        flag("--objective", "SPEC"), flag("--iters", "N"), flag("--warmup", "N"),
        flag("--seed", "N"), flag("--chains", "K"), flag("--exchange-every", "E"),
        switch("--quiet"), flag("--max-frame-len", "B"), switch("--health"), switch("--shutdown"),
        flag("--get-job", "ID"),
    ],
    about: "Submits one exploration job over the framed RPC transport and streams\n\
            progress updates to stderr until the final result. Results are\n\
            bit-identical to `rdse explore` for the same models, seed and chains.\n\
            Malformed input (bad --objective, over-limit job) exits with code 2\n\
            and a named cause; transport and server failures exit with code 1.\n\
            \n\
            A job names its application with one of --app, --builtin or\n\
            --workload (seeded by --app-seed), and its architecture with one of\n\
            --arch, --clbs or --arch-family (seeded by --arch-seed). --health,\n\
            --shutdown and --get-job ID probe or stop the server instead.",
};

/// Every command, in the order `rdse --help` lists them.
#[rustfmt::skip]
static COMMANDS: [&Command; 11] = [
    &GENERATE, &EXPLORE, &GA, &SWEEP, &SIMULATE, &SPACE, &CORPUS_LIST, &CORPUS_RUN, &SERVE, &STORE,
    &SUBMIT,
];

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

/// A command's result: `Err` holds the runtime failure to print on
/// stderr, after which `rdse` exits 1. A rejected command line exits 2
/// from [`Args`] instead.
type Outcome = Result<(), String>;

/// The common shape of a runtime failure message.
fn err(e: impl std::fmt::Display) -> String {
    format!("error: {e}")
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let Some(cmd) = args.next() else {
        cli::fail("rdse", "missing command");
    };
    let outcome = match cmd.as_str() {
        "--help" => {
            println!("{}", cli::synopsis(&COMMANDS, ""));
            Ok(())
        }
        "generate" => generate(&GENERATE.parse(args)),
        "explore" => run_explore(&EXPLORE.parse(args)),
        "ga" => run_ga(&GA.parse(args)),
        "sweep" => run_sweep(&SWEEP.parse(args)),
        "simulate" => run_simulate(&SIMULATE.parse(args)),
        "space" => run_space(&SPACE.parse(args)),
        "corpus" => match args.peek().cloned().as_deref() {
            Some("list") => corpus_list(&CORPUS_LIST.parse(args)),
            Some("run") => run_corpus_run(&CORPUS_RUN.parse(args)),
            Some("--help") => cli::help(&[&CORPUS_LIST, &CORPUS_RUN], "usage: "),
            Some(other) => cli::fail(
                "rdse corpus",
                format_args!("unknown corpus subcommand '{other}' (expected list or run)"),
            ),
            None => cli::fail(
                "rdse corpus",
                "missing corpus subcommand (expected list or run)",
            ),
        },
        "serve" => run_serve(&SERVE.parse(args)),
        "store" => run_store(&STORE.parse(args)),
        "submit" => run_submit(&SUBMIT.parse(args)),
        other => cli::fail("rdse", format_args!("unknown command '{other}'")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--objective makespan | weighted:<w_mk>,<w_area>,<w_rc> |
/// lexi:<axis>[,<axis>...]` into an [`Objective`] (default: minimize
/// makespan). A malformed spec rejects the command line, naming the
/// offending part: unknown scheme, wrong weight arity,
/// negative/non-finite weights, unknown or duplicate lexicographic axes.
fn parse_objective(args: &Args) -> Objective {
    // The shared grammar lives on Objective so the server validates
    // submissions identically; its messages say "objective ...", which
    // becomes "--objective ..." here to name the offending flag.
    Objective::parse_spec(args.value("--objective").unwrap_or("makespan"))
        .unwrap_or_else(|e| args.fail(e.replacen("objective", "--objective", 1)))
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

fn load_models(args: &Args) -> Result<(TaskGraph, Architecture), String> {
    let (app_path, arch_path) = (args.required("--app"), args.required("--arch"));
    let app = TaskGraph::load(app_path).map_err(|e| err(format_args!("{app_path}: {e}")))?;
    let arch = Architecture::load(arch_path).map_err(|e| err(format_args!("{arch_path}: {e}")))?;
    Ok((app, arch))
}

fn generate(args: &Args) -> Outcome {
    let kind = args.operands().first().map_or("motion", String::as_str);
    let clbs: u32 = args.num("--clbs", 2000);
    let seed: u64 = args.num("--seed", 1);
    let sections: usize = args.num("--sections", 4);
    let branches: usize = args.num("--branches", 3);
    let dir = args.value("--dir").unwrap_or(".");
    let (app, arch, name) = match kind {
        "motion" => (motion_detection_app(), epicure_architecture(clbs), "motion"),
        "figure1" => (figure1_app(), epicure_architecture(clbs), "figure1"),
        "layered" => (
            layered_dag(&LayeredDagConfig::default(), seed),
            epicure_architecture(clbs),
            "layered",
        ),
        "series-parallel" => (
            series_parallel_dag(sections, branches, seed),
            epicure_architecture(clbs),
            "series-parallel",
        ),
        // A corpus scenario (workload family × platform template ×
        // seed), saved as files so the offline explore path can be
        // compared bit-for-bit against a served job naming the same
        // scenario.
        "scenario" => {
            let workload = args.value("--workload").unwrap_or("layered");
            let arch_family = args.value("--arch-family").unwrap_or("epicure");
            let Some(wf) = WorkloadFamily::parse(workload) else {
                args.fail(format_args!(
                    "unknown --workload family '{workload}' (see `rdse corpus list`)"
                ));
            };
            let Some(af) = ArchFamily::parse(arch_family) else {
                args.fail(format_args!(
                    "unknown --arch-family '{arch_family}' (see `rdse corpus list`)"
                ));
            };
            (wf.generate(seed), af.build(seed), "scenario")
        }
        other => args.fail(format_args!("unknown workload '{other}'")),
    };
    let app_path = format!("{dir}/{name}-app.json");
    let arch_path = format!("{dir}/{name}-arch.json");
    app.save(&app_path)
        .and_then(|()| arch.save(&arch_path))
        .map_err(err)?;
    println!(
        "wrote {app_path} ({} tasks) and {arch_path} ({clbs} CLBs)",
        app.n_tasks()
    );
    Ok(())
}

fn run_explore(args: &Args) -> Outcome {
    let opts = ExploreOptions {
        max_iterations: args.num("--iters", 5_000),
        warmup_iterations: args.num("--warmup", 1_200),
        seed: args.num("--seed", 1),
        lambda: args.num("--lambda", 0.5),
        objective: parse_objective(args),
        bandit_moves: args.has("--bandit"),
        ..ExploreOptions::default()
    };
    let chains: usize = args.num("--chains", 1);
    let threads: usize = args.num("--threads", 0);
    let exchange_every: u64 = args.num("--exchange-every", 500);
    let (app, arch) = load_models(args)?;

    let failed = |e| format!("exploration failed: {e}");
    let (outcome, portfolio) = if chains > 1 {
        let popts = ParallelOptions {
            base: opts.clone(),
            chains,
            threads,
            exchange_every,
            warm_start: None,
            front_exchange: args.has("--front-exchange"),
        };
        let p = explore_parallel(&app, &arch, &popts).map_err(failed)?;
        let winner = &p.chains[p.winner];
        let outcome = ExploreOutcome {
            mapping: p.mapping.clone(),
            evaluation: p.evaluation.clone(),
            run: winner.run.clone(),
            eval_stats: winner.eval_stats,
        };
        (outcome, Some(p))
    } else {
        (explore(&app, &arch, &opts).map_err(failed)?, None)
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
    if args.has("--profile") {
        match &portfolio {
            Some(p) => {
                for c in &p.chains {
                    print_profile(&format!("chain {:>2}", c.chain), &c.run, c.eval_stats);
                }
            }
            None => print_profile("chain  0", &outcome.run, outcome.eval_stats),
        }
    }
    if args.has("--gantt") {
        let chart = GanttChart::extract(&app, &arch, &outcome.mapping, &outcome.evaluation);
        println!("{}", chart.render_ascii(&app, &arch, 100));
    }
    if let Some(path) = args.value("--save-mapping") {
        save_json(path, &outcome.mapping).map_err(err)?;
        println!("mapping saved : {path}");
    }
    Ok(())
}

/// The §5 baseline as a first-class command: the Ben Chehida & Auguin
/// style genetic algorithm over spatial partitions, scalar
/// (makespan-only) by default, NSGA-II over the full cost vector with
/// `--nsga2`. Deterministic per seed, like `explore`.
fn run_ga(args: &Args) -> Outcome {
    let nsga2 = args.has("--nsga2");
    let opts = GaOptions {
        population: args.num("--population", 300),
        generations: args.num("--generations", 200),
        seed: args.num("--seed", 1),
        nsga2,
        ..GaOptions::default()
    };
    let (app, arch) = load_models(args)?;
    let outcome = GeneticExplorer::new(&app, &arch, opts)
        .run()
        .map_err(|e| format!("GA failed: {e}"))?;
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
    Ok(())
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
fn run_sweep(args: &Args) -> Outcome {
    let clbs_grid = args
        .list("--clbs", |s| s.parse().ok())
        .unwrap_or_else(|| vec![400u32, 800, 1500, 2000, 3000, 5000]);
    let bus_grid = args
        .list("--bus", |s| s.parse().ok())
        .unwrap_or_else(|| vec![25.0f64, 50.0, 100.0]);
    let iters: u64 = args.num("--iters", 5_000);
    let warmup: u64 = args.num("--warmup", iters / 5);
    let seed: u64 = args.num("--seed", 1);
    let lambda: f64 = args.num("--lambda", 0.5);
    let chains: usize = args.num("--chains", 1);
    let exchange_every: u64 = args.num("--exchange-every", 500);
    let threads = match args.num("--threads", 0) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        t => t,
    };
    let out = args.value("--out").unwrap_or("results/sweep.json");
    let app = match args.value("--app") {
        Some(path) => TaskGraph::load(path).map_err(|e| err(format_args!("{path}: {e}")))?,
        None => motion_detection_app(),
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
        return Err(err(e));
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
    ensure_parent_dir(out)
        .and_then(|()| save_json(out, &report))
        .map_err(err)?;
    println!("report saved : {out}");
    if let Some(csv) = args.value("--csv") {
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
        ensure_parent_dir(csv)
            .and_then(|()| {
                std::fs::write(csv, text).map_err(|e| format!("cannot write '{csv}': {e}"))
            })
            .map_err(err)?;
        println!("csv saved    : {csv}");
    }
    Ok(())
}

fn run_simulate(args: &Args) -> Outcome {
    let mapping_path = args.required("--mapping");
    let (app, arch) = load_models(args)?;
    let mapping: Mapping = std::fs::read_to_string(mapping_path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        .map_err(|e| format!("error reading {mapping_path}: {e}"))?;
    let cfg = if args.has("--contention") {
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
            Ok(())
        }
        (Err(e), _) | (_, Err(e)) => Err(format!("simulation failed: {e}")),
    }
}

/// `rdse corpus list` — the registered workload and platform families
/// and the pinned smoke subset.
fn corpus_list(_: &Args) -> Outcome {
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
    Ok(())
}

fn family_names<T>(families: &[T], name: impl Fn(&T) -> &'static str) -> String {
    families.iter().map(name).collect::<Vec<_>>().join(", ")
}

/// `rdse corpus run` — the scenario-corpus batch runner with the
/// four-way differential oracle (see the `rdse-corpus` crate docs).
fn run_corpus_run(args: &Args) -> Outcome {
    let smoke = args.has("--smoke");
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
        if let Some(flag) = PINNED.iter().find(|f| args.has(f)) {
            args.fail(format_args!(
                "{flag} conflicts with --smoke (the smoke subset and its \
                 exploration knobs are pinned to the golden snapshot; drop --smoke \
                 to customize the corpus)"
            ));
        }
    }
    let threads = args.num("--threads", 0);
    let defaults = CorpusOptions::default();
    let (specs, opts) = if smoke {
        (
            smoke_corpus(),
            CorpusOptions {
                threads,
                ..defaults
            },
        )
    } else {
        let workloads = args
            .list("--families", WorkloadFamily::parse)
            .unwrap_or_else(WorkloadFamily::defaults);
        let arches = args
            .list("--arches", ArchFamily::parse)
            .unwrap_or_else(|| ArchFamily::all().to_vec());
        let seeds = args
            .list("--seeds", |s| s.parse().ok())
            .unwrap_or_else(|| vec![1u64, 2, 3]);
        (
            cross_corpus(&workloads, &arches, &seeds),
            CorpusOptions {
                iters: args.num("--iters", defaults.iters),
                warmup: args.num("--warmup", defaults.warmup),
                chains: args.num("--chains", defaults.chains),
                exchange_every: args.num("--exchange-every", defaults.exchange_every),
                threads,
                walk_steps: args.num("--walk-steps", defaults.walk_steps),
            },
        )
    };

    let report = run_corpus(&specs, &opts).map_err(|e| format!("corpus FAILED: {e}"))?;
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

    let write = |path: &str, text: String| {
        ensure_parent_dir(path)
            .and_then(|()| std::fs::write(path, text).map_err(|e| e.to_string()))
            .map_err(|e| err(format_args!("cannot write '{path}': {e}")))
    };
    if let Some(out) = args.value("--out") {
        write(out, report.ndjson())?;
        println!("matrix saved : {out}");
    }
    if let Some(path) = args.value("--write-golden") {
        write(path, report.golden_text())?;
        println!("golden saved : {path}");
    }
    if let Some(path) = args.value("--golden") {
        let expected = std::fs::read_to_string(path)
            .map_err(|e| err(format_args!("cannot read golden '{path}': {e}")))?;
        report
            .diff_golden(&expected)
            .map_err(|e| format!("golden check FAILED against {path}:\n{e}"))?;
        println!("golden check : {} matches", path);
    }
    Ok(())
}

/// `rdse serve` — stand up the long-running exploration service (see
/// the `rdse-serve` crate docs for the protocol and limits).
fn run_serve(args: &Args) -> Outcome {
    let host = args.value("--host").unwrap_or("127.0.0.1");
    let port: u16 = args.num("--port", 0);
    let workers: usize = args.num("--workers", 4);
    let defaults = Limits::default();
    let limits = Limits {
        max_frame_len: args.num("--max-frame-len", defaults.max_frame_len),
        max_tasks: args.num("--max-tasks", defaults.max_tasks),
        max_devices: args.num("--max-devices", defaults.max_devices),
        max_iters: args.num("--max-iters", defaults.max_iters),
        max_chains: args.num("--max-chains", defaults.max_chains),
        max_sessions: args.num("--max-sessions", defaults.max_sessions),
        read_timeout: std::time::Duration::from_millis(args.num(
            "--read-timeout-ms",
            defaults.read_timeout.as_millis() as u64,
        )),
        write_timeout: defaults.write_timeout,
    };
    let store = args.value("--store").map(std::path::PathBuf::from);
    let store_sync = match args.value("--store-sync") {
        Some(spec) => SyncPolicy::parse(spec).unwrap_or_else(|| {
            args.fail(format_args!(
                "--store-sync takes always, interval:N (N >= 1) or never, got '{spec}'"
            ))
        }),
        None => SyncPolicy::Always,
    };
    let server = Server::bind(ServeConfig {
        host: host.to_owned(),
        port,
        workers,
        limits,
        store,
        store_sync,
    })
    .map_err(|e| err(format_args!("cannot bind {host}:{port}: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| err(format_args!("cannot read bound address: {e}")))?;
    // CI and scripts parse this line for the bound port, so it must
    // reach the pipe before the accept loop blocks.
    println!("rdse serve listening on {addr} ({workers} workers)");
    let _ = std::io::stdout().flush();
    server
        .run()
        .map_err(|e| err(format_args!("server failed: {e}")))?;
    println!("rdse serve: shut down cleanly");
    Ok(())
}

/// `rdse store` — inspect and maintain a persistent result store
/// off-line (the serving path opens the same file via `--store`).
fn run_store(args: &Args) -> Outcome {
    let sub = match args.operands().first().map(String::as_str) {
        Some(s @ ("stats" | "compact" | "verify")) => s,
        Some(other) => args.fail(format_args!(
            "unknown store subcommand '{other}' (expected stats, compact or verify)"
        )),
        None => args.fail("missing store subcommand (expected stats, compact or verify)"),
    };
    let path = args.required("--path");
    let failed = |e| err(format_args!("{path}: {e}"));
    match sub {
        "stats" => {
            let bytes = std::fs::read(path).map_err(failed)?;
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
            Ok(())
        }
        "compact" => {
            let mut store = ResultStore::open(path, SyncPolicy::Always).map_err(failed)?;
            for span in &store.replay_report().skipped {
                eprintln!("warning: damaged span skipped ({span}); compaction drops it");
            }
            if let Some(tail) = &store.replay_report().tail {
                eprintln!("warning: torn tail skipped ({tail})");
            }
            let report = store
                .compact()
                .map_err(|e| err(format_args!("compaction failed: {e}")))?;
            println!(
                "compacted     : {} -> {} record(s), {} -> {} bytes, {} damaged span(s) dropped",
                report.records_before,
                report.records_after,
                report.bytes_before,
                report.bytes_after,
                report.spans_dropped
            );
            Ok(())
        }
        _ => {
            let (report, file_len) = rdse::store::verify(path).map_err(failed)?;
            if report.is_clean() {
                println!(
                    "verified      : {} record(s), {} bytes, all checksums intact",
                    report.records, report.bytes
                );
                return Ok(());
            }
            for span in &report.skipped {
                eprintln!("error: {path}: damaged span {span}");
            }
            if let Some(tail) = &report.tail {
                eprintln!("error: {path}: damaged record {tail}");
            }
            let damaged: u64 = report.skipped.iter().map(|s| s.len).sum::<u64>()
                + report.tail.as_ref().map_or(0, |t| file_len - t.offset);
            Err(err(format_args!(
                "{path}: {} intact record(s); {damaged} of {file_len} bytes damaged",
                report.records
            )))
        }
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
fn run_submit(args: &Args) -> Outcome {
    let addr = args.required("--addr");
    let mut opts = ClientOptions::default();
    opts.max_frame_len = args.num("--max-frame-len", opts.max_frame_len);
    if args.has("--health") {
        let v = serve_client::health(addr, &opts).map_err(err)?;
        println!("{}", serde_json::to_string_pretty(&v).unwrap_or_default());
        return Ok(());
    }
    if args.has("--shutdown") {
        serve_client::shutdown(addr, &opts).map_err(err)?;
        println!("server at {addr} acknowledged shutdown");
        return Ok(());
    }
    if args.has("--get-job") {
        let v =
            serve_client::get_job(addr, args.num("--get-job", 0), &opts).map_err(|e| {
                match e.code.as_deref() {
                    Some("unknown-job") => args.fail(e),
                    _ => err(e),
                }
            })?;
        println!("{}", serde_json::to_string_pretty(&v).unwrap_or_default());
        return Ok(());
    }

    // Job submission. Inline models are validated locally (so a bad
    // file is a usage error here, not a server round-trip), and the
    // objective grammar is checked before connecting.
    let objective = args.value("--objective").unwrap_or("makespan");
    parse_objective(args);
    let app = if let Some(path) = args.value("--app") {
        let g = TaskGraph::load(path).unwrap_or_else(|e| args.fail(format_args!("{path}: {e}")));
        AppSpec::Inline(g.to_value())
    } else if let Some(name) = args.value("--builtin") {
        AppSpec::Builtin(name.to_owned())
    } else if let Some(family) = args.value("--workload") {
        let (family, seed) = (family.to_owned(), args.num("--app-seed", 1));
        AppSpec::Workload { family, seed }
    } else {
        args.fail("missing application (--app F.json, --builtin NAME or --workload FAM)")
    };
    let arch = if let Some(path) = args.value("--arch") {
        let a = Architecture::load(path).unwrap_or_else(|e| args.fail(format_args!("{path}: {e}")));
        ArchSpec::Inline(a.to_value())
    } else if args.has("--clbs") {
        ArchSpec::Clbs(args.num("--clbs", 0))
    } else if let Some(family) = args.value("--arch-family") {
        let (family, seed) = (family.to_owned(), args.num("--arch-seed", 1));
        ArchSpec::Family { family, seed }
    } else {
        args.fail("missing architecture (--arch F.json, --clbs N or --arch-family FAM)")
    };
    let spec = JobSpec {
        app,
        arch,
        objective: objective.to_owned(),
        iters: args.num("--iters", 5_000),
        warmup: args.num("--warmup", 1_200),
        seed: args.num("--seed", 1),
        chains: args.num("--chains", 1),
        exchange_every: args.num("--exchange-every", 500),
    };
    let quiet = args.has("--quiet");
    let result = serve_client::submit(addr, &spec, &opts, |u| {
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
    })
    .map_err(|e| if e.is_usage() { args.fail(e) } else { err(e) })?;
    print_submit_result(&result);
    Ok(())
}

fn run_space(args: &Args) -> Outcome {
    let app = TaskGraph::load(args.required("--app")).map_err(err)?;
    let g = app.precedence_graph();
    match rdse::graph::count_linear_extensions(&g, None) {
        Some(count) => {
            println!(
                "{}: {} tasks, {} total orders",
                app.name(),
                app.n_tasks(),
                count
            );
            Ok(())
        }
        None => Err(format!(
            "{}: {} tasks, total-order count too large to compute exactly",
            app.name(),
            app.n_tasks()
        )),
    }
}
