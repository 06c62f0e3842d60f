//! End-to-end and per-layer benchmark of the rdse design-space
//! explorer, its job server and its differential oracle.
//!
//! Four workloads, each built from the run's seed (the program sees
//! only the generated inputs):
//!
//! * `explore_fig3` — the paper's 28-task motion-detection application
//!   on EPICURE (2 000 CLBs), a 4-chain `explore_parallel` portfolio
//!   exchanging every 250 iterations: annealer, moves and barriers
//!   dominate, evaluator repair barely matters.
//! * `explore_layered200` — a 200-task layered DAG on EPICURE (4 000
//!   CLBs), one chain through `explore`: the incremental longest path
//!   dominates.
//! * `serve_mixed` — an in-process `Server` over a pre-filled result
//!   store, driven by one closed-loop client with a seeded trace of
//!   cold searches, exact hits, dominated hits and warm starts.
//! * `corpus_oracle` — `run_corpus` over every workload family × every
//!   platform family, with a long oracle walk per scenario.
//!
//! Gated runs keep one busy thread at a time: on a shared two-core host
//! two-thread wall time does not repeat within the bounds. Parallel
//! speed-up is recorded per layer (`pool.speedup_2t`) next to the
//! measured host parallelism.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions; the program itself carries no tracing.

pub mod corpus;
pub mod explore;
pub mod host;
pub mod report;
pub mod serve;
pub mod trace;

pub use report::Outcome;

use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "explore_fig3",
    "explore_layered200",
    "serve_mixed",
    "corpus_oracle",
];

/// How one run is carried out.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the measuring window, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Worker threads of portfolios and the corpus fan-out; gated runs
    /// use 1.
    pub threads: usize,
    /// Scaled-down budgets and operation counts (the self-test).
    pub tiny: bool,
    /// Directory for the run's files; must exist.
    pub work_dir: PathBuf,
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a failure that prevents measuring at
/// all (e.g. the server cannot bind). Failed or wrong operations do not
/// error: they are counted in the outcome.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    // One busy thread at a time, on one CPU: hand-offs between the
    // client, server and worker threads then stay on that CPU instead
    // of waking the other one, which on a virtual machine varies from
    // run to run far more than the work itself.
    host::pin_to_one_cpu();
    let out = match workload {
        "explore_fig3" => explore::run(explore::Case::Fig3, cfg),
        "explore_layered200" => explore::run(explore::Case::Layered200, cfg),
        "serve_mixed" => serve::run(cfg),
        "corpus_oracle" => corpus::run(cfg),
        other => Err(format!("unknown workload '{other}'")),
    };
    host::unpin();
    let mut out = out?;
    out.set("host.parallelism", host::parallelism());
    out.set(
        "error_rate",
        report::ratio(out.failed as f64, out.attempted as f64),
    );
    out.set("peak_rss_mb", host::peak_rss_mb());
    Ok(out)
}

/// SplitMix64 of `seed ^ salt`: derives independent sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `op(0)`, `op(1)`, … until at least `min_ops` ran and the
/// window of `seconds` has passed. Returns the number of operations.
pub fn run_for(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
    i
}

/// Set-up timings of a run. The set-up runs once before the first
/// job; workloads whose set-up is cheap time it again between jobs
/// throughout the window, so that its median spans the same host speed
/// regimes as the job metrics (see [`JobLog`]).
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times one set-up and returns its product. A set-up shorter than
    /// a millisecond is repeated back to back within the sample so that
    /// timer resolution does not dominate it.
    pub fn sample<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let t = Instant::now();
        let mut product = setup();
        let once = t.elapsed().as_secs_f64();
        let reps = (1e-3 / once.max(1e-9)).clamp(1.0, 10_000.0) as usize;
        if reps == 1 {
            self.0.push(once);
            return product;
        }
        let t = Instant::now();
        for _ in 0..reps {
            product = setup();
        }
        self.0.push(t.elapsed().as_secs_f64() / reps as f64);
        product
    }

    /// Records a set-up timed by the caller, in seconds.
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    /// The median set-up time, in seconds.
    pub fn median(&self) -> f64 {
        report::median(&self.0)
    }
}

/// Per-job timings of a run, reduced to the latency and throughput
/// metrics.
///
/// The host's speed drifts between regimes several seconds long (on a
/// shared two-core machine, the same fixed-work job rate swings by a
/// third within one run). A plain median over a mixture of two regimes
/// jumps between them as their shares cross one half, so the median is
/// taken over each run of consecutive jobs (`block` jobs, a few hundred
/// milliseconds) and averaged over the blocks: the result is the median
/// when the host is steady and moves smoothly with the regime shares
/// when it is not. The 99th percentile is taken over each run of
/// [`P99_BLOCK`] consecutive jobs (ten beyond it per block), and the
/// median over the blocks is reported, so one burst of co-tenant load
/// does not set the whole run's tail.
#[derive(Debug)]
pub struct JobLog {
    all_ms: Vec<f64>,
    search_ms: Vec<f64>,
    block: usize,
    search_block: usize,
    busy_s: f64,
    iterations: u64,
}

impl JobLog {
    /// A log whose medians are taken over blocks of `block` consecutive
    /// jobs and `search_block` consecutive searches.
    pub fn new(block: usize, search_block: usize) -> Self {
        JobLog {
            all_ms: Vec::new(),
            search_ms: Vec::new(),
            block: block.max(1),
            search_block: search_block.max(1),
            busy_s: 0.0,
            iterations: 0,
        }
    }

    /// Records one job: its latency, whether it searched, and the
    /// annealing iterations it ran.
    pub fn record(&mut self, secs: f64, search: bool, iterations: u64) {
        self.all_ms.push(secs * 1e3);
        if search {
            self.search_ms.push(secs * 1e3);
        }
        self.busy_s += secs;
        self.iterations += iterations;
    }

    /// Summed job latency, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Sets the throughput and latency metrics. Throughput divides by
    /// the summed job latency, so checks made between jobs do not
    /// count against it.
    pub fn report(&self, out: &mut Outcome) {
        out.set(
            "jobs_per_s",
            report::ratio(self.all_ms.len() as f64, self.busy_s),
        );
        out.set(
            "steps_per_s",
            report::ratio(self.iterations as f64, self.busy_s),
        );
        out.set("latency_p50_ms", block_median(&self.all_ms, self.block));
        out.set(
            "search_latency_p50_ms",
            block_median(&self.search_ms, self.search_block),
        );
        let p99s: Vec<f64> = self
            .all_ms
            .chunks_exact(P99_BLOCK)
            .map(|b| report::quantile(b, 0.99))
            .collect();
        out.set(
            "latency_p99_ms",
            if p99s.is_empty() {
                report::quantile(&self.all_ms, 0.99)
            } else {
                report::median(&p99s)
            },
        );
    }
}

/// Jobs per block of the 99th-percentile latency.
const P99_BLOCK: usize = 1_000;

/// The median of each full block of `block` consecutive values,
/// averaged over the blocks (the plain median when there is no full
/// block).
fn block_median(values: &[f64], block: usize) -> f64 {
    let medians: Vec<f64> = values.chunks_exact(block).map(report::median).collect();
    if medians.is_empty() {
        report::median(values)
    } else {
        report::mean(&medians)
    }
}

/// Solution quality over a fixed, seed-determined set of searches.
#[derive(Debug, Default)]
pub struct Quality {
    makespans: Vec<f64>,
    hypervolumes: Vec<f64>,
}

impl Quality {
    /// Records one search's winning makespan and its front's normalized
    /// hypervolume.
    pub fn record(&mut self, makespan_us: f64, hypervolume: f64) {
        self.makespans.push(makespan_us);
        self.hypervolumes.push(hypervolume);
    }

    /// Sets `best_makespan_us` (geometric mean) and `front_hypervolume`
    /// (arithmetic mean).
    pub fn report(&self, out: &mut Outcome) {
        out.set("best_makespan_us", report::geomean(&self.makespans));
        out.set("front_hypervolume", report::mean(&self.hypervolumes));
    }
}
