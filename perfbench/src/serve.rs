//! The `serve_mixed` workload.
//!
//! An in-process `Server` (two workers, result store with the default
//! `always` sync) is opened over a log pre-filled with records of pairs
//! the trace never uses. One client runs a closed loop over loopback:
//! it submits the next job of a seeded trace only after the previous
//! result arrived. The trace mixes four job classes in fixed shares per
//! block of 20 jobs:
//!
//! | class     | per block | what the store does                         |
//! |-----------|-----------|---------------------------------------------|
//! | miss      | 4         | first sight of a pair: cold search, append  |
//! | warm      | 2         | larger budget than any archived: warm start |
//! | exact     | 8         | identical resubmission: exact hit           |
//! | dominated | 6         | same pair, smaller budget: dominated hit    |
//!
//! Hits are 70 % of the jobs, so the all-jobs median is a hit latency
//! and the 99th percentile a search latency; neither falls on the
//! boundary between them. A changed seed alone never forces a search —
//! the archive answers any same-pair job within an archived budget — so
//! the trace varies pairs and budgets on purpose. Pairs are corpus
//! (workload family, platform family, seed) triples; every fourth new
//! pair instead carries an inline 200-task model, so transport and JSON
//! weigh on hits.
//!
//! Checks: every result carries the predicted store label; exact and
//! dominated hits reproduce the bits of the archived run they answer
//! from; every cold search reproduces an offline `explore_parallel`
//! with the same spec (run after the timed window); and the server's
//! `healthz` store counters equal the class counts of the trace.

use crate::report::{hypervolume_2d, median, quality_reference, ratio};
use crate::{mix, run_for, JobLog, Outcome, Quality, RunConfig, SetupTimes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse::corpus::{ArchFamily, WorkloadFamily};
use rdse::mapping::{explore_parallel, random_initial, ExploreOptions, Objective, ParallelOptions};
use rdse::serve::handler::{resolve_models, store_keys};
use rdse::serve::protocol::{encode_frame, read_frame, FrameType};
use rdse::serve::{
    client, AppSpec, ArchSpec, ClientOptions, JobSpec, Limits, ServeConfig, Server, ServerHandle,
};
use rdse::store::{CostBits, KeySpec, ResultStore, StoreRecord, SyncPolicy};
use rdse::workloads::{epicure_architecture, layered_dag, motion_detection_app, LayeredDagConfig};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Server worker lanes.
const WORKERS: usize = 2;
/// Server set-ups timed per run (the median is `setup_s`).
const SETUP_REPS: usize = 5;
/// The corpus-pair jobs of every block of 20, by class. The block's
/// twentieth job runs on an inline-model pair, its class cycling
/// through [`INLINE_CYCLE`] with the block index, so every block costs
/// about the same.
const CORPUS_BLOCK: [Class; 19] = {
    use Class::{Dominated as D, Exact as E, Miss as M, Warm as W};
    [M, M, M, M, W, W, E, E, E, E, E, E, E, E, D, D, D, D, D]
};
const INLINE_CYCLE: [Class; 4] = [Class::Miss, Class::Exact, Class::Dominated, Class::Warm];
/// Warm starts per pair before the trace prefers other pairs (bounds
/// budget growth).
const MAX_WARM_PER_PAIR: u32 = 3;

/// A job class of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Miss,
    Warm,
    Exact,
    Dominated,
}

impl Class {
    /// The `store` label the server reports for this class.
    fn label(self) -> &'static str {
        match self {
            Class::Miss => "miss",
            Class::Warm => "warm",
            Class::Exact => "exact",
            Class::Dominated => "dominated",
        }
    }

    fn searches(self) -> bool {
        matches!(self, Class::Miss | Class::Warm)
    }
}

/// Budgets of the trace.
#[derive(Debug, Clone, Copy)]
struct Budgets {
    /// Iterations of a pair's first (cold) search.
    base_iters: u64,
    /// Iterations a warm start adds over the pair's archived maximum.
    warm_step: u64,
    chains: usize,
    exchange_every: u64,
    /// Jobs always run, and the prefix the deterministic counters and
    /// quality metrics cover.
    min_jobs: usize,
    /// Records in the pre-filled log.
    prefill: usize,
}

fn budgets(tiny: bool) -> Budgets {
    if tiny {
        Budgets {
            base_iters: 200,
            warm_step: 100,
            chains: 2,
            exchange_every: 50,
            min_jobs: 40,
            prefill: 100,
        }
    } else {
        Budgets {
            base_iters: 800,
            warm_step: 400,
            chains: 2,
            exchange_every: 200,
            min_jobs: 1_000,
            prefill: 2_000,
        }
    }
}

/// The models of a pair, as the client names them.
#[derive(Debug, Clone, Copy)]
enum Models {
    /// A corpus workload family on a corpus platform family.
    Corpus {
        family: WorkloadFamily,
        arch: ArchFamily,
        seed: u64,
    },
    /// An inline 200-task layered model on EPICURE with 4 000 CLBs.
    Inline { seed: u64 },
}

/// A pair the trace has archived.
#[derive(Debug)]
struct Pair {
    models: Models,
    /// Largest archived budget and the job that archived it.
    max_iters: u64,
    max_job: usize,
    warm_starts: u32,
}

/// One job of the trace and what the server must answer.
#[derive(Debug, Clone, Copy)]
struct Job {
    class: Class,
    pair: usize,
    iters: u64,
    seed: u64,
    /// For hits: the job whose archived result answers this one.
    answered_by: Option<usize>,
}

/// The seeded trace, generated job by job in a fixed order.
struct Trace {
    seed: u64,
    budgets: Budgets,
    rng: StdRng,
    jobs: Vec<Job>,
    pairs: Vec<Pair>,
    /// Pairs and archived jobs (misses and warm starts), by kind:
    /// index 0 corpus, 1 inline.
    pairs_of: [Vec<usize>; 2],
    archived: [Vec<usize>; 2],
    /// Remaining `(class, inline)` slots of the current block.
    block: Vec<(Class, bool)>,
    blocks: usize,
    corpus_pairs: u64,
}

impl Trace {
    fn new(seed: u64, budgets: Budgets) -> Self {
        Trace {
            seed,
            budgets,
            rng: StdRng::seed_from_u64(mix(seed, 0x5E_57E0)),
            jobs: Vec::new(),
            pairs: Vec::new(),
            pairs_of: [Vec::new(), Vec::new()],
            archived: [Vec::new(), Vec::new()],
            block: Vec::new(),
            blocks: 0,
            corpus_pairs: 0,
        }
    }

    /// The wire spec of a job. Inline models are generated afresh for
    /// every submission, so the trace holds no model copies.
    fn spec(&self, job: &Job) -> JobSpec {
        let (app, arch) = match self.pairs[job.pair].models {
            Models::Corpus { family, arch, seed } => (
                AppSpec::Workload {
                    family: family.name().into(),
                    seed,
                },
                ArchSpec::Family {
                    family: arch.name().into(),
                    seed,
                },
            ),
            Models::Inline { seed } => (
                AppSpec::Inline(
                    layered_dag(
                        &LayeredDagConfig {
                            layers: 20,
                            width: 10,
                            edge_percent: 30,
                            hw_percent: 60,
                        },
                        seed,
                    )
                    .to_value(),
                ),
                ArchSpec::Clbs(4000),
            ),
        };
        JobSpec {
            app,
            arch,
            objective: "makespan".into(),
            iters: job.iters,
            warmup: job.iters / 5,
            seed: job.seed,
            chains: self.budgets.chains,
            exchange_every: self.budgets.exchange_every,
        }
    }

    /// Models no earlier pair used. Corpus pairs cycle through every
    /// workload family × platform family. Model seeds are a per-run
    /// offset plus the pair index, so no two pairs share one: a repeat
    /// would turn a predicted miss into a store hit.
    fn new_models(&mut self, inline: bool) -> Models {
        let seed = mix(self.seed, 0xA11_0000) % 1_000_000 + 1 + self.pairs.len() as u64;
        if inline {
            return Models::Inline { seed };
        }
        let n = self.corpus_pairs;
        self.corpus_pairs += 1;
        let families = WorkloadFamily::defaults();
        let arches = ArchFamily::all();
        Models::Corpus {
            family: families[(n % families.len() as u64) as usize],
            arch: arches[((n / families.len() as u64) % arches.len() as u64) as usize],
            seed,
        }
    }

    /// The `i`-th job, generating the trace up to it.
    fn job(&mut self, i: usize) -> Job {
        while self.jobs.len() <= i {
            self.push_next();
        }
        self.jobs[i]
    }

    fn push_next(&mut self) {
        if self.block.is_empty() {
            self.block = CORPUS_BLOCK.iter().map(|&c| (c, false)).collect();
            self.block
                .push((INLINE_CYCLE[self.blocks % INLINE_CYCLE.len()], true));
            self.blocks += 1;
            // Fisher–Yates with the trace's own stream.
            for k in (1..self.block.len()).rev() {
                let j = self.rng.random_range(0..=k);
                self.block.swap(k, j);
            }
        }
        let (mut class, inline) = self.block.pop().expect("block refilled above");
        let kind = usize::from(inline);
        if self.pairs_of[kind].is_empty() && class != Class::Miss {
            // Nothing of this kind archived yet: only a miss is
            // possible. (The inline cycle opens with a miss.)
            let m = self
                .block
                .iter()
                .position(|&slot| slot == (Class::Miss, inline))
                .expect("the first block holds corpus misses");
            self.block[m] = (class, inline);
            class = Class::Miss;
        }
        let index = self.jobs.len();
        let fresh_seed = mix(self.seed, 0x5EED_0000 + index as u64);
        let pick = |rng: &mut StdRng, from: &[usize]| from[rng.random_range(0..from.len())];
        let job = match class {
            Class::Miss => {
                let models = self.new_models(inline);
                self.pairs_of[kind].push(self.pairs.len());
                self.pairs.push(Pair {
                    models,
                    max_iters: self.budgets.base_iters,
                    max_job: index,
                    warm_starts: 0,
                });
                self.archived[kind].push(index);
                Job {
                    class,
                    pair: self.pairs.len() - 1,
                    iters: self.budgets.base_iters,
                    seed: fresh_seed,
                    answered_by: None,
                }
            }
            Class::Warm => {
                let open: Vec<usize> = self.pairs_of[kind]
                    .iter()
                    .copied()
                    .filter(|&p| self.pairs[p].warm_starts < MAX_WARM_PER_PAIR)
                    .collect();
                let p = if open.is_empty() {
                    pick(&mut self.rng, &self.pairs_of[kind])
                } else {
                    pick(&mut self.rng, &open)
                };
                let pair = &mut self.pairs[p];
                pair.max_iters += self.budgets.warm_step;
                pair.max_job = index;
                pair.warm_starts += 1;
                self.archived[kind].push(index);
                Job {
                    class,
                    pair: p,
                    iters: pair.max_iters,
                    seed: fresh_seed,
                    answered_by: None,
                }
            }
            Class::Exact => {
                let j = pick(&mut self.rng, &self.archived[kind]);
                Job {
                    class,
                    answered_by: Some(j),
                    ..self.jobs[j]
                }
            }
            Class::Dominated => {
                let p = pick(&mut self.rng, &self.pairs_of[kind]);
                let pair = &self.pairs[p];
                Job {
                    class,
                    pair: p,
                    iters: (pair.max_iters / 2).max(1),
                    seed: fresh_seed,
                    answered_by: Some(pair.max_job),
                }
            }
        };
        self.jobs.push(job);
    }
}

/// Writes the pre-filled log: `records` records over pairs keyed on
/// placeholder models no job resolves to, each carrying a real mapping
/// and front so records have realistic sizes.
fn prefill(path: &Path, seed: u64, records: usize) -> std::io::Result<()> {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xF111));
    let mappings: Vec<Value> = (0..8)
        .map(|_| random_initial(&app, &arch, &mut rng).to_value())
        .collect();
    let mut store = ResultStore::open(path, SyncPolicy::Never)?;
    for i in 0..records {
        let app_json = format!("{{\"prefill\":{i}}}");
        let spec = KeySpec {
            app_json: &app_json,
            arch_json: "{\"prefill\":\"arch\"}",
            objective: "makespan",
            seed: i as u64,
            iters: 1_000,
            warmup: 200,
            chains: 2,
            exchange_every: 250,
        };
        let makespan = 20_000.0 + rng.random_range(0.0..10_000.0);
        let front: Vec<CostBits> = (0..4)
            .map(|k| {
                CostBits::from_values(
                    makespan + 1_000.0 * k as f64,
                    1_500.0 - 200.0 * k as f64,
                    50.0,
                    2.0,
                )
            })
            .collect();
        store.append(StoreRecord {
            key: spec.key(),
            pair: spec.pair(),
            objective: "makespan".into(),
            seed: i as u64,
            chains: 2,
            iters: 1_000,
            warmup: 200,
            exchange_every: 250,
            winner: 0,
            iterations: 1_000,
            contexts: 2,
            hw_tasks: 6,
            clb_area: 1_500,
            makespan_bits: makespan.to_bits(),
            best: front[0],
            front,
            mapping: mappings[i % mappings.len()].clone(),
        })?;
    }
    store.sync()
}

fn start(log: &Path) -> std::io::Result<ServerHandle> {
    Server::bind(ServeConfig {
        workers: WORKERS,
        store: Some(log.to_path_buf()),
        store_sync: SyncPolicy::Always,
        ..ServeConfig::default()
    })?
    .spawn()
}

fn stop(server: ServerHandle) -> Result<(), String> {
    client::shutdown(&server.addr().to_string(), &ClientOptions::default())
        .map_err(|e| format!("shutdown: {e}"))?;
    server.join().map_err(|e| format!("server: {e}"))
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::F64(x)) => *x,
        Some(Value::I64(x)) => *x as f64,
        Some(Value::U64(x)) => *x as f64,
        _ => f64::NAN,
    }
}

fn text(v: Option<&Value>) -> &str {
    match v {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

/// The winning makespan of a result frame, from its exact bits.
fn makespan(result: &Value) -> f64 {
    u64::from_str_radix(text(result.get("makespan_bits")), 16).map_or(f64::NAN, f64::from_bits)
}

/// `(makespan, clb_area)` of every front member of a result frame.
fn front(result: &Value) -> Vec<(f64, f64)> {
    match result.get("front") {
        Some(Value::Seq(members)) => members
            .iter()
            .map(|m| {
                let mk = u64::from_str_radix(text(m.get("makespan_bits")), 16)
                    .map_or(f64::NAN, f64::from_bits);
                (mk, num(m.get("clb_area")))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// What the checks need of one result frame.
#[derive(Debug)]
struct Served {
    makespan: f64,
    /// `(makespan, clb_area)` of the front; kept for the cold searches
    /// the quality metrics cover.
    front: Vec<(f64, f64)>,
}

/// What one server session measured.
#[derive(Debug)]
struct Session {
    log: JobLog,
    results: Vec<Option<Served>>,
    /// `healthz` after the first `min_jobs` jobs and at the end.
    health_prefix: Option<Value>,
    health_end: Option<Value>,
    first_update_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

/// Stands up a server over a fresh copy of the pre-filled log and runs
/// the trace's jobs through it, for `seconds` (at least `min_jobs`
/// jobs) or exactly `jobs` jobs. Checks each result against the trace.
fn session(
    log_path: &Path,
    trace: &mut Trace,
    seconds: f64,
    jobs: Option<usize>,
    traced: bool,
    out: &mut Outcome,
) -> Result<(Session, f64), String> {
    let mut setups = SetupTimes::default();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let s = start(log_path).map_err(|e| format!("server set-up: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            stop(s)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("last set-up keeps its server");
    let addr = server.addr().to_string();
    let opts = ClientOptions::default();
    let min_jobs = trace.budgets.min_jobs;
    // Blocks of whole trace blocks: 5 × 20 jobs, 15 × 6 searches.
    let mut s = Session {
        log: JobLog::new(100, 90),
        results: Vec::new(),
        health_prefix: None,
        health_end: None,
        first_update_ms: Vec::new(),
        encode_us: Vec::new(),
        decode_us: Vec::new(),
    };

    let mut step = |i: usize, s: &mut Session, out: &mut Outcome| {
        let job = trace.job(i);
        let spec = trace.spec(&job);
        if traced {
            let t = Instant::now();
            let frame = encode_frame(FrameType::Job, &spec.to_value());
            s.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(frame);
        }
        let t = Instant::now();
        let mut first_update = None;
        let result = client::submit(&addr, &spec, &opts, |_| {
            first_update.get_or_insert_with(|| t.elapsed().as_secs_f64());
        });
        let secs = t.elapsed().as_secs_f64();
        let value = match result {
            Ok(v) => v,
            Err(e) => {
                s.results.push(None);
                return out.check(Err(format!("job {i}: {e}")));
            }
        };
        let iterations = if job.class.searches() {
            num(value.get("iterations")) as u64
        } else {
            0
        };
        s.log.record(secs, job.class.searches(), iterations);
        if let Some(u) = first_update {
            s.first_update_ms.push(u * 1e3);
        }
        if traced {
            let bytes = encode_frame(FrameType::Result, &value);
            let t = Instant::now();
            let decoded = read_frame(&mut &bytes[..], bytes.len() as u32);
            s.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.check(match decoded {
                Ok((FrameType::Result, v)) if v == value => Ok(()),
                _ => Err(format!("job {i}: result frame does not decode to itself")),
            });
        }
        let served = Served {
            makespan: makespan(&value),
            front: if job.class == Class::Miss && i < min_jobs {
                front(&value)
            } else {
                Vec::new()
            },
        };
        let label = text(value.get("store"));
        let check = if label != job.class.label() {
            Err(format!(
                "job {i}: store answered '{label}', trace predicts '{}'",
                job.class.label()
            ))
        } else if let Some(j) = job.answered_by {
            match s.results.get(j).and_then(Option::as_ref) {
                Some(orig) if orig.makespan.to_bits() == served.makespan.to_bits() => Ok(()),
                Some(orig) => Err(format!(
                    "job {i}: {label} hit returned {} instead of job {j}'s {}",
                    served.makespan, orig.makespan
                )),
                None => Err(format!("job {i}: answering job {j} has no result")),
            }
        } else {
            Ok(())
        };
        out.check(check);
        s.results.push(Some(served));
    };

    let n = match jobs {
        Some(n) => {
            for i in 0..n {
                step(i, &mut s, out);
                if i + 1 == min_jobs {
                    s.health_prefix = client::health(&addr, &opts).ok();
                }
            }
            n
        }
        None => run_for(seconds, min_jobs, |i| {
            step(i, &mut s, out);
            if i + 1 == min_jobs {
                s.health_prefix = client::health(&addr, &opts).ok();
            }
        }),
    };
    s.health_end = client::health(&addr, &opts).ok();
    stop(server)?;

    // The healthz store counters must equal the trace's class counts.
    let count =
        |c: Class, upto: usize| trace.jobs[..upto].iter().filter(|j| j.class == c).count() as f64;
    for (health, upto) in [(&s.health_prefix, min_jobs.min(n)), (&s.health_end, n)] {
        let Some(h) = health else {
            out.check(Err("healthz unreachable".into()));
            continue;
        };
        let expect = [
            ("store_exact_hits", count(Class::Exact, upto)),
            ("store_dominated_hits", count(Class::Dominated, upto)),
            ("store_warm_starts", count(Class::Warm, upto)),
            (
                "store_records",
                (trace.budgets.prefill as f64)
                    + count(Class::Miss, upto)
                    + count(Class::Warm, upto),
            ),
            ("jobs_failed", 0.0),
        ];
        for (field, want) in expect {
            let got = num(h.get(field));
            out.check(if got == want {
                Ok(())
            } else {
                Err(format!(
                    "healthz {field} = {got} after {upto} jobs, trace predicts {want}"
                ))
            });
        }
    }
    Ok((s, setups.median()))
}

/// Re-runs every cold search of the session offline with the same spec:
/// the served bits must match. Returns the quality of the cold searches
/// within the first `min_jobs` jobs.
fn offline_checks(trace: &Trace, s: &Session, threads: usize, out: &mut Outcome) -> Quality {
    let limits = Limits::default();
    let mut quality = Quality::default();
    for (i, (job, result)) in trace.jobs.iter().zip(&s.results).enumerate() {
        let (Class::Miss, Some(result)) = (job.class, result) else {
            continue;
        };
        let spec = &trace.spec(job);
        let check = resolve_models(spec, &limits)
            .map_err(|e| format!("job {i}: {e}"))
            .and_then(|(app, arch)| {
                let objective = Objective::parse_spec(&spec.objective)?;
                let offline = explore_parallel(
                    &app,
                    &arch,
                    &ParallelOptions {
                        base: ExploreOptions {
                            max_iterations: spec.iters,
                            warmup_iterations: spec.warmup,
                            seed: spec.seed,
                            objective,
                            ..ExploreOptions::default()
                        },
                        chains: spec.chains,
                        threads,
                        exchange_every: spec.exchange_every,
                        warm_start: None,
                        front_exchange: false,
                    },
                )
                .map_err(|e| format!("job {i}: offline explore: {e}"))?;
                let served = result.makespan;
                let want = offline.evaluation.makespan.value();
                if served.to_bits() != want.to_bits() {
                    return Err(format!("job {i}: served {served}, offline {want}"));
                }
                if i < trace.budgets.min_jobs {
                    let (rm, rc) = quality_reference(&app, &arch);
                    quality.record(served, hypervolume_2d(&result.front, rm, rc));
                }
                Ok(())
            });
        out.check(check);
    }
    quality
}

/// Runs the serving workload.
///
/// # Errors
///
/// When the log cannot be written or the server cannot be stood up.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let budgets = budgets(cfg.tiny);
    let mut out = Outcome::default();
    let log_path = |name: &str| -> Result<PathBuf, String> {
        let path = cfg.work_dir.join(name);
        prefill(&path, cfg.seed, budgets.prefill)
            .map_err(|e| format!("pre-filling {}: {e}", path.display()))?;
        Ok(path)
    };

    if !cfg.trace {
        let mut trace = Trace::new(cfg.seed, budgets);
        let (s, setup_s) = session(
            &log_path("store.aof")?,
            &mut trace,
            cfg.seconds,
            None,
            false,
            &mut out,
        )?;
        out.set("setup_s", setup_s);
        s.log.report(&mut out);
        offline_checks(&trace, &s, cfg.threads, &mut out).report(&mut out);
        return Ok(out);
    }

    // Traced: half the window untraced, then the same jobs traced on a
    // fresh server and log; the latency difference is the overhead.
    let mut trace = Trace::new(cfg.seed, budgets);
    let (plain, _) = session(
        &log_path("plain.aof")?,
        &mut trace,
        cfg.seconds / 2.0,
        None,
        false,
        &mut out,
    )?;
    let n = plain.results.len();
    let log = log_path("traced.aof")?;
    let (s, _) = session(&log, &mut trace, 0.0, Some(n), true, &mut out)?;
    // Both sessions start from the same log and run the same jobs, so
    // every result must carry the same bits.
    let matched = plain
        .results
        .iter()
        .zip(&s.results)
        .filter(|(a, b)| match (a, b) {
            (Some(a), Some(b)) => a.makespan.to_bits() == b.makespan.to_bits(),
            _ => false,
        })
        .count();
    out.check(if matched == n {
        Ok(())
    } else {
        Err(format!(
            "{} of {n} traced results differ from the untraced session",
            n - matched
        ))
    });
    out.set("trace.makespan_match", ratio(matched as f64, n as f64));
    out.set(
        "trace.overhead",
        ratio(s.log.busy_s(), plain.log.busy_s()) - 1.0,
    );
    out.set("serve.first_update_ms", median(&s.first_update_ms));
    out.set("protocol.encode_us", median(&s.encode_us));
    out.set("protocol.decode_us", median(&s.decode_us));
    if let Some(h) = &s.health_prefix {
        let exact = num(h.get("store_exact_hits"));
        let dominated = num(h.get("store_dominated_hits"));
        let warm = num(h.get("store_warm_starts"));
        let served = num(h.get("jobs_served"));
        out.set("store.exact", exact);
        out.set("store.dominated", dominated);
        out.set("store.warm", warm);
        out.set("store.miss", served - exact - dominated - warm);
        let hits = num(h.get("evaluator_cache_hits"));
        let misses = num(h.get("evaluator_cache_misses"));
        out.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
    }
    store_layer(&log, &trace, n, cfg, &mut out)?;
    Ok(out)
}

/// Times the store's public functions on the traced session's log:
/// replay on open, the three lookups of every executed job, and
/// `always`-synced appends of the session's records into a fresh log.
fn store_layer(
    log: &Path,
    trace: &Trace,
    n: usize,
    cfg: &RunConfig,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut opens = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        let t = Instant::now();
        let s = ResultStore::open(log, SyncPolicy::Always)
            .map_err(|e| format!("reopening the log: {e}"))?;
        opens.push(t.elapsed().as_secs_f64() * 1e3);
        store = Some(s);
    }
    let store = store.expect("opened above");
    out.set("store.open_ms", median(&opens));

    let limits = Limits::default();
    let mut lookups = Vec::with_capacity(n);
    let mut records = Vec::new();
    for job in &trace.jobs[..n] {
        let spec = trace.spec(job);
        let Ok((app, arch)) = resolve_models(&spec, &limits) else {
            out.check(Err("trace job does not resolve".into()));
            continue;
        };
        let objective = Objective::parse_spec(&spec.objective)?;
        let (key, pair) = store_keys(&app, &arch, &spec, &objective);
        let archive = store.archive();
        let t = Instant::now();
        let exact = archive.exact(&key);
        let dominating = archive.dominating(&pair, &objective.describe(), spec.iters);
        let warm = archive.warm_candidate(&pair, CostBits::makespan_f64);
        lookups.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box((dominating, warm));
        if job.class.searches() {
            if let Some(r) = exact {
                records.push(r.clone());
            }
        }
    }
    out.set("store.lookup_us", median(&lookups));

    let fresh = cfg.work_dir.join("append.aof");
    let mut target =
        ResultStore::open(&fresh, SyncPolicy::Always).map_err(|e| format!("append log: {e}"))?;
    let mut appends = Vec::new();
    for record in records.into_iter().take(50) {
        let t = Instant::now();
        target.append(record).map_err(|e| format!("append: {e}"))?;
        appends.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("store.append_ms", median(&appends));
    Ok(())
}
