//! The incremental evaluation engine: a data-oriented, delta-repairing
//! re-implementation of [`evaluate`] for the annealing hot path.
//!
//! Simulated annealing scores thousands of candidate mappings per run
//! (§4.3–4.4), and a portfolio run multiplies that by the chain count.
//! The from-scratch [`evaluate`] allocates a fresh search graph,
//! topological order and label vectors on every call; [`Evaluator`]
//! instead mirrors the mapping in flat structure-of-arrays form and
//! keeps longest-path labels alive across moves:
//!
//! * the application's data edges live in a CSR [`DenseDag`] whose edge
//!   weights are the current communication latencies (`0` on-device,
//!   the bus transfer time otherwise);
//! * the processor total orders (*Esw*) are doubly linked
//!   `prev_sw`/`next_sw` arrays, spliced in O(1) per move;
//! * the context sequentialization edges (*Ehw*) are *virtual*: each
//!   task carries at most one in-bundle and one out-bundle marker
//!   `(device, context)`, and the [`RepairGraph`] overlay expands a
//!   marker into the terminals×initials biclique on the fly — a move
//!   never materializes those edges;
//! * [`Evaluator::evaluate_delta`] re-derives only the state a single
//!   move can touch, seeds the nodes whose in-edge candidate sets
//!   changed, and relabels over a maintained topological order
//!   ([`IncrementalLongestPath::order_pos`]). Every edge the move
//!   added has its head among the seeds, so the evaluator finds the
//!   edges that now point backwards by scanning the seeds' in-edges,
//!   and re-sorts only the span of the order between the first such
//!   head and the last such tail
//!   ([`IncrementalLongestPath::resort_window`]); if that span holds a
//!   cycle the move is rejected as cyclic without touching a label.
//!   A single check-free relaxation pass over the order suffix from
//!   the first seed then relabels the cone
//!   ([`IncrementalLongestPath::sweep_certified`]). Order and labels
//!   are journaled, so rejection stays a cheap rollback.
//!
//! Batches of sibling candidates amortize the one full synchronization
//! through [`Evaluator::evaluate_batch`].
//!
//! # Determinism contract
//!
//! `Evaluator::evaluate`, `evaluate_delta` and `evaluate_batch` return
//! *bit-identical* makespans and breakdowns to the from-scratch
//! [`evaluate`]:
//!
//! * every completion label is `w(v) + max(0, max over in-edges
//!   (completion(u) + w(u,v)))` — a max over a finite candidate set,
//!   and IEEE-754 `max` is order-independent in value, so the labels
//!   have a unique fixpoint on a DAG and *no relaxation order*
//!   (suffix sweep over any topological order, or full Kahn pass) can
//!   change label bits;
//! * a sweep relabels a superset of the nodes whose candidate sets
//!   changed (every directly changed node is seeded, the suffix from
//!   the minimum seed position covers all their descendants in a valid
//!   topological order), and re-relaxing an unchanged node rewrites
//!   its label with the identical bits;
//! * the reconfiguration breakdown is summed in the same
//!   `(device, context)` order as the reference, from `f64` values
//!   produced by the same pure function.
//!
//! Property tests (`tests/proptests.rs`), the unit walk tests below and
//! the golden-seed end-to-end tests enforce this.

use crate::error::MappingError;
use crate::eval::{evaluate, EvalBreakdown, EvalSummary, Evaluation};
use crate::placement::Placement;
use crate::searchgraph::same_device;
use crate::solution::Mapping;
use rdse_graph::{DenseDag, IncrementalLongestPath, RepairGraph};
use rdse_model::units::{Clbs, Micros};
use rdse_model::{Architecture, TaskGraph, TaskId};

/// Sentinel for "no link / no marker" in the flat `u32` arrays.
const NONE: u32 = u32::MAX;
/// Placement kind codes (branch-free comparisons on the hot path).
const K_SW: u8 = 0;
const K_HW: u8 = 1;
const K_ASIC: u8 = 2;

/// Packs a `(device, context)` bundle marker into one `u32`.
#[inline]
fn enc_bundle(d: usize, k: usize) -> u32 {
    debug_assert!(d < 0x1_0000 && k < 0x1_0000, "bundle marker overflow");
    ((d as u32) << 16) | k as u32
}

/// Unpacks a bundle marker produced by [`enc_bundle`].
#[inline]
fn dec_bundle(b: u32) -> (usize, usize) {
    ((b >> 16) as usize, (b & 0xFFFF) as usize)
}

/// Logs `arr[i] = v` into `log` and reports whether anything changed.
#[inline]
fn log_set_u32(log: &mut Vec<(u32, u32)>, arr: &mut [u32], i: u32, v: u32) -> bool {
    let old = arr[i as usize];
    if old == v {
        return false;
    }
    log.push((i, old));
    arr[i as usize] = v;
    true
}

/// Counters describing an [`Evaluator`]'s arena and repair behaviour,
/// used by the CLI's `--profile` report to confirm steady-state
/// evaluations are allocation-free and to size the repair cones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvaluatorStats {
    /// Evaluations performed (full, delta and batch-member alike).
    pub evaluations: u64,
    /// Evaluations during which at least one scratch arena grew (i.e.
    /// went through the allocator).
    pub arena_growths: u64,
    /// 1-based index of the last evaluation that grew an arena (0 if
    /// none ever did). Once `evaluations` is well past this, every
    /// subsequent step runs entirely in the warm arenas.
    pub last_growth_eval: u64,
    /// Deltas relabeled by a certified sweep over the order suffix.
    pub repairs: u64,
    /// Full longest-path passes (full synchronizations only; deltas
    /// never run one).
    pub full_passes: u64,
    /// Window re-sorts: deltas whose added edges pointed backwards in
    /// the maintained order, so the span they broke was re-sorted
    /// (including deltas whose re-sort found a cycle).
    pub fallbacks: u64,
    /// Most nodes relabeled by one delta's sweep.
    pub max_cone: u64,
    /// Total nodes relabeled across all sweeps (for the mean cone
    /// size).
    pub cone_nodes: u64,
}

impl EvaluatorStats {
    /// `true` once the arenas have stopped growing: every evaluation
    /// after `last_growth_eval` ran without touching the allocator.
    pub fn arenas_warm(&self) -> bool {
        self.evaluations > self.last_growth_eval
    }

    /// Mean nodes relabeled per sweep (0.0 if none ran).
    pub fn mean_cone(&self) -> f64 {
        if self.repairs == 0 {
            0.0
        } else {
            self.cone_nodes as f64 / self.repairs as f64
        }
    }
}

/// Mirror of one context's evaluation-relevant state.
#[derive(Debug, Clone, Default)]
struct CtxState {
    /// CLBs occupied by the context's tasks (u32 sum — order-free).
    clbs: u32,
    /// Reconfiguration latency for this context, in microseconds.
    reconfig: f64,
    /// Initial tasks (no data predecessor inside the context), in
    /// context order.
    initials: Vec<u32>,
    /// Terminal tasks (no data successor inside the context), in
    /// context order.
    terminals: Vec<u32>,
}

/// Mirror of one DRLC's context list, double-buffered so a delta can
/// rebuild into `alt` and diff against `cur` before committing.
///
/// Buffers only grow: `cur`/`alt` keep `CtxState` slots (and their
/// inner vectors) alive past the current length, so steady-state
/// rebuilds recycle capacity instead of allocating.
#[derive(Debug, Clone, Default)]
struct DrlcState {
    cur: Vec<CtxState>,
    cur_len: usize,
    alt: Vec<CtxState>,
    alt_len: usize,
}

/// Typed undo log for one delta evaluation. Each vector records
/// `(index, previous value)` pairs; replaying them in reverse restores
/// the mirrored state bit-identically.
#[derive(Debug, Clone, Default)]
struct DeltaLog {
    node_w: Vec<(u32, f64)>,
    edge_w: Vec<(u32, f64)>,
    prev_sw: Vec<(u32, u32)>,
    next_sw: Vec<(u32, u32)>,
    in_bundle: Vec<(u32, u32)>,
    out_bundle: Vec<(u32, u32)>,
    kind: Vec<(u32, u8)>,
    drlc_of: Vec<(u32, u32)>,
    /// DRLCs whose `cur`/`alt` buffers were swapped.
    swapped: Vec<u32>,
    /// `hw_count` before the delta.
    hw_count: u32,
}

impl DeltaLog {
    fn clear(&mut self) {
        self.node_w.clear();
        self.edge_w.clear();
        self.prev_sw.clear();
        self.next_sw.clear();
        self.in_bundle.clear();
        self.out_bundle.clear();
        self.kind.clear();
        self.drlc_of.clear();
        self.swapped.clear();
    }

    fn capacity(&self) -> usize {
        self.node_w.capacity()
            + self.edge_w.capacity()
            + self.prev_sw.capacity()
            + self.next_sw.capacity()
            + self.in_bundle.capacity()
            + self.out_bundle.capacity()
            + self.kind.capacity()
            + self.drlc_of.capacity()
            + self.swapped.capacity()
    }
}

/// Read-only view of the search graph *G′* assembled from the
/// evaluator's mirrors: CSR data edges, linked-list processor chains
/// and virtual context-sequentialization bicliques. Implements
/// [`RepairGraph`] so the incremental longest path can traverse *G′*
/// without the edges ever being materialized.
struct Overlay<'e> {
    dag: &'e DenseDag,
    prev_sw: &'e [u32],
    next_sw: &'e [u32],
    in_bundle: &'e [u32],
    out_bundle: &'e [u32],
    drlcs: &'e [DrlcState],
    /// Task count; node `n` is the virtual source.
    n: usize,
}

impl RepairGraph for Overlay<'_> {
    #[inline]
    fn n_nodes(&self) -> usize {
        self.n + 1
    }

    #[inline]
    fn node_weight(&self, v: u32) -> f64 {
        self.dag.node_weight(v)
    }

    #[inline]
    fn for_each_out<F: FnMut(u32)>(&self, v: u32, mut f: F) {
        if v as usize == self.n {
            // Virtual source: one edge per device to each initial task
            // of the device's first context.
            for st in self.drlcs {
                if st.cur_len > 0 {
                    for &t in &st.cur[0].initials {
                        f(t);
                    }
                }
            }
            return;
        }
        self.dag.for_each_out(v, &mut f);
        let nx = self.next_sw[v as usize];
        if nx != NONE {
            f(nx);
        }
        let b = self.out_bundle[v as usize];
        if b != NONE {
            let (d, k) = dec_bundle(b);
            for &t in &self.drlcs[d].cur[k].initials {
                f(t);
            }
        }
    }

    /// Closed-form in-degree: static data edges from the CSR extents,
    /// plus one software-chain edge if `prev_sw` is set, plus the
    /// bundle contribution (one virtual-source edge for context 0,
    /// otherwise one edge per terminal of the previous context). The
    /// default enumeration-based count would walk every in-edge; this
    /// makes the full pass's Kahn seeding O(n) instead of O(n + m).
    #[inline]
    fn in_degree(&self, v: u32) -> u32 {
        if v as usize == self.n {
            return 0;
        }
        let mut d = self.dag.in_degree(v);
        if self.prev_sw[v as usize] != NONE {
            d += 1;
        }
        let b = self.in_bundle[v as usize];
        if b != NONE {
            let (dev, k) = dec_bundle(b);
            if k == 0 {
                d += 1;
            } else {
                d += self.drlcs[dev].cur[k - 1].terminals.len() as u32;
            }
        }
        d
    }

    #[inline]
    fn for_each_in<F: FnMut(u32, f64)>(&self, v: u32, mut f: F) {
        if v as usize == self.n {
            return;
        }
        self.dag.for_each_in(v, &mut f);
        let pv = self.prev_sw[v as usize];
        if pv != NONE {
            f(pv, 0.0);
        }
        let b = self.in_bundle[v as usize];
        if b != NONE {
            let (d, k) = dec_bundle(b);
            let w = self.drlcs[d].cur[k].reconfig;
            if k == 0 {
                f(self.n as u32, w);
            } else {
                for &t in &self.drlcs[d].cur[k - 1].terminals {
                    f(t, w);
                }
            }
        }
    }
}

/// Reusable evaluation engine bound to one `app` × `arch` pair.
///
/// Construct once per search (or per chain), synchronize with a full
/// [`evaluate`](Evaluator::evaluate), then score single-move neighbours
/// with [`evaluate_delta`](Evaluator::evaluate_delta) (revertible via
/// [`revert_delta`](Evaluator::revert_delta)) or whole candidate sets
/// with [`evaluate_batch`](Evaluator::evaluate_batch). The heavyweight
/// per-task trace is available on demand via
/// [`evaluate_full`](Evaluator::evaluate_full).
///
/// # Examples
///
/// ```
/// use rdse_mapping::{random_initial, evaluate, Evaluator};
/// use rdse_workloads::{epicure_architecture, motion_detection_app};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = motion_detection_app();
/// let arch = epicure_architecture(2000);
/// let mut rng = StdRng::seed_from_u64(7);
/// let mapping = random_initial(&app, &arch, &mut rng);
///
/// let mut evaluator = Evaluator::new(&app, &arch);
/// let summary = evaluator.evaluate(&mapping)?;
/// // Bit-identical to the from-scratch reference evaluation.
/// let reference = evaluate(&app, &arch, &mapping)?;
/// assert_eq!(summary.makespan, reference.makespan);
/// assert_eq!(summary, reference.summary());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    app: &'a TaskGraph,
    arch: &'a Architecture,
    n: usize,
    /// The application's data edges in CSR form over `n + 1` nodes
    /// (node `n` is the virtual source; it carries no data edges).
    /// Edge `eid` is `app.edges()[eid]`; edge weights are the current
    /// communication latencies, node weights the current exec times.
    dag: DenseDag,
    /// Static bus transfer time per data edge (the weight when the
    /// endpoints sit on different devices).
    xfer: Vec<f64>,
    /// Processor chains (*Esw*) as doubly linked lists over tasks.
    prev_sw: Vec<u32>,
    next_sw: Vec<u32>,
    /// Virtual *Ehw* markers: `in_bundle[t]` is set iff `t` is an
    /// initial of context `(d, k)`; `out_bundle[t]` iff `t` is a
    /// terminal of context `(d, k-1)` and context `k` exists (the
    /// marker encodes the *target* context).
    in_bundle: Vec<u32>,
    out_bundle: Vec<u32>,
    /// Placement kind per task ([`K_SW`]/[`K_HW`]/[`K_ASIC`]).
    kind: Vec<u8>,
    /// Home DRLC per task ([`NONE`] unless hardware-placed).
    drlc_of: Vec<u32>,
    /// Number of hardware-placed tasks.
    hw_count: u32,
    /// Double-buffered per-DRLC context mirrors.
    drlcs: Vec<DrlcState>,
    /// Generation-stamped context membership (avoids clearing).
    membership: Vec<u64>,
    generation: u64,
    /// Longest-path labels, kept alive and repaired across moves.
    lp: IncrementalLongestPath,
    /// Seed nodes whose in-edge candidate sets changed this delta.
    seeds: Vec<u32>,
    /// The subset of seeds whose *edge structure* changed (heads of
    /// every edge the delta added or removed) — the nodes whose
    /// in-edges the scan for backward edges covers.
    struct_seeds: Vec<u32>,
    /// Scratch for incident `(endpoint, edge id)` pairs (collected
    /// before mutating the CSR weights).
    eid_scratch: Vec<(u32, u32)>,
    log: DeltaLog,
    /// `true` while an un-reverted successful delta is outstanding.
    delta_active: bool,
    /// `true` once the mirrors reflect some mapping (set by a
    /// successful full evaluation, kept by deltas and reverts).
    synced: bool,
    /// Per-candidate results of the last [`evaluate_batch`] call.
    batch_out: Vec<Result<EvalSummary, MappingError>>,
    /// Scratch for batch diffs: tasks / processors / DRLCs that differ
    /// between the base and the candidate.
    diff_tasks: Vec<u32>,
    diff_procs: Vec<u32>,
    diff_drlcs: Vec<u32>,
    stats: EvaluatorStats,
}

/// A lifetime-free bundle of every arena an [`Evaluator`] owns,
/// detached from the `app`/`arch` borrows so it can be cached across
/// jobs (the serving layer keeps one per warm (app, arch) entry).
///
/// Produced by [`Evaluator::into_arenas`] and revived by
/// [`Evaluator::with_arenas`]. Reviving performs a full shape check
/// (task count, edge count *and endpoints*, device count) and falls
/// back to a fresh build on any mismatch, and always recomputes the
/// bus-rate-dependent transfer table and resets the delta machinery,
/// so a revived evaluator is observationally identical to a freshly
/// constructed one: the first full `evaluate` resynchronizes every
/// mapping-dependent mirror. Only allocation capacities (and the
/// lifetime stats counters) survive the round trip.
#[derive(Debug, Clone)]
pub struct EvaluatorArenas {
    n: usize,
    dag: DenseDag,
    xfer: Vec<f64>,
    prev_sw: Vec<u32>,
    next_sw: Vec<u32>,
    in_bundle: Vec<u32>,
    out_bundle: Vec<u32>,
    kind: Vec<u8>,
    drlc_of: Vec<u32>,
    drlcs: Vec<DrlcState>,
    membership: Vec<u64>,
    generation: u64,
    lp: IncrementalLongestPath,
    seeds: Vec<u32>,
    struct_seeds: Vec<u32>,
    eid_scratch: Vec<(u32, u32)>,
    log: DeltaLog,
    batch_out: Vec<Result<EvalSummary, MappingError>>,
    diff_tasks: Vec<u32>,
    diff_procs: Vec<u32>,
    diff_drlcs: Vec<u32>,
    stats: EvaluatorStats,
}

impl EvaluatorArenas {
    /// `true` if these arenas were sized for exactly this `app` ×
    /// `arch` pair: same task count, same data edges (count and
    /// endpoints) and same device count. Weight-like content (exec
    /// times, bus rate) is *not* checked — it is rewritten wholesale
    /// on revival.
    pub fn fits(&self, app: &TaskGraph, arch: &Architecture) -> bool {
        let n = app.n_tasks();
        let m = app.edges().len();
        self.n == n
            && self.xfer.len() == m
            && self.dag.n_nodes() == n + 1
            && self.dag.n_edges() == m
            && self.drlcs.len() == arch.drlcs().len()
            && app
                .edges()
                .iter()
                .enumerate()
                .all(|(eid, e)| self.dag.edge_endpoints(eid as u32) == (e.from.0, e.to.0))
    }

    /// Lifetime evaluation counters carried inside the arenas (they
    /// survive [`Evaluator::into_arenas`] round trips).
    pub fn stats(&self) -> EvaluatorStats {
        let r = self.lp.stats();
        EvaluatorStats {
            repairs: r.repairs,
            full_passes: r.full_passes,
            fallbacks: r.fallbacks,
            max_cone: r.max_cone,
            cone_nodes: r.cone_nodes,
            ..self.stats
        }
    }
}

impl<'a> Evaluator<'a> {
    /// Prepares mirrors and arenas for `app` × `arch`. All per-task
    /// buffers are pre-sized; list capacities warm up over the first
    /// few evaluations.
    pub fn new(app: &'a TaskGraph, arch: &'a Architecture) -> Self {
        let n = app.n_tasks();
        let bus = arch.bus();
        let edges: Vec<(u32, u32, f64)> = app
            .edges()
            .iter()
            .map(|e| (e.from.0, e.to.0, 0.0))
            .collect();
        let dag = DenseDag::from_edges(n + 1, &edges, &vec![0.0; n + 1])
            .expect("application data edges form a valid graph");
        let xfer = app
            .edges()
            .iter()
            .map(|e| bus.transfer_time(e.bytes).value())
            .collect();
        Evaluator {
            app,
            arch,
            n,
            dag,
            xfer,
            prev_sw: vec![NONE; n],
            next_sw: vec![NONE; n],
            in_bundle: vec![NONE; n],
            out_bundle: vec![NONE; n],
            kind: vec![K_SW; n],
            drlc_of: vec![NONE; n],
            hw_count: 0,
            drlcs: vec![DrlcState::default(); arch.drlcs().len()],
            membership: vec![0; n],
            generation: 0,
            lp: IncrementalLongestPath::new(n + 1),
            seeds: Vec::with_capacity(16),
            struct_seeds: Vec::with_capacity(16),
            eid_scratch: Vec::with_capacity(8),
            log: DeltaLog::default(),
            delta_active: false,
            synced: false,
            batch_out: Vec::new(),
            diff_tasks: Vec::new(),
            diff_procs: Vec::new(),
            diff_drlcs: Vec::new(),
            stats: EvaluatorStats::default(),
        }
    }

    /// Revives a cached [`EvaluatorArenas`] bundle for `app` × `arch`,
    /// recycling every allocation instead of going through the
    /// allocator again. Falls back to [`Evaluator::new`] when the
    /// arenas do not [fit](EvaluatorArenas::fits) this pair.
    ///
    /// The revived evaluator starts unsynchronized (like a fresh one):
    /// the first full [`evaluate`](Evaluator::evaluate) rewrites every
    /// mapping-dependent mirror and the transfer table is recomputed
    /// here from `arch`'s bus, so results are bit-identical to a
    /// cold-started evaluator regardless of what the arenas last held.
    pub fn with_arenas(
        app: &'a TaskGraph,
        arch: &'a Architecture,
        arenas: EvaluatorArenas,
    ) -> Self {
        if !arenas.fits(app, arch) {
            return Evaluator::new(app, arch);
        }
        let EvaluatorArenas {
            n,
            dag,
            mut xfer,
            prev_sw,
            next_sw,
            in_bundle,
            out_bundle,
            kind,
            drlc_of,
            drlcs,
            membership,
            generation,
            lp,
            mut seeds,
            mut struct_seeds,
            mut eid_scratch,
            mut log,
            mut batch_out,
            diff_tasks,
            diff_procs,
            diff_drlcs,
            stats,
        } = arenas;
        let bus = arch.bus();
        for (slot, e) in xfer.iter_mut().zip(app.edges()) {
            *slot = bus.transfer_time(e.bytes).value();
        }
        log.clear();
        seeds.clear();
        struct_seeds.clear();
        eid_scratch.clear();
        batch_out.clear();
        Evaluator {
            app,
            arch,
            n,
            dag,
            xfer,
            prev_sw,
            next_sw,
            in_bundle,
            out_bundle,
            kind,
            drlc_of,
            hw_count: 0,
            drlcs,
            membership,
            generation,
            lp,
            seeds,
            struct_seeds,
            eid_scratch,
            log,
            delta_active: false,
            synced: false,
            batch_out,
            diff_tasks,
            diff_procs,
            diff_drlcs,
            stats,
        }
    }

    /// Detaches the arenas from the `app`/`arch` borrows so they can
    /// outlive the models (e.g. in a warm-evaluator cache). The
    /// exhaustive destructuring here is deliberate: adding a field to
    /// [`Evaluator`] will not compile until a decision is made about
    /// whether it rides along.
    pub fn into_arenas(self) -> EvaluatorArenas {
        let Evaluator {
            app: _,
            arch: _,
            n,
            dag,
            xfer,
            prev_sw,
            next_sw,
            in_bundle,
            out_bundle,
            kind,
            drlc_of,
            hw_count: _,
            drlcs,
            membership,
            generation,
            lp,
            seeds,
            struct_seeds,
            eid_scratch,
            log,
            delta_active: _,
            synced: _,
            batch_out,
            diff_tasks,
            diff_procs,
            diff_drlcs,
            stats,
        } = self;
        EvaluatorArenas {
            n,
            dag,
            xfer,
            prev_sw,
            next_sw,
            in_bundle,
            out_bundle,
            kind,
            drlc_of,
            drlcs,
            membership,
            generation,
            lp,
            seeds,
            struct_seeds,
            eid_scratch,
            log,
            batch_out,
            diff_tasks,
            diff_procs,
            diff_drlcs,
            stats,
        }
    }

    /// The application this evaluator is bound to.
    pub fn app(&self) -> &'a TaskGraph {
        self.app
    }

    /// The architecture this evaluator is bound to.
    pub fn arch(&self) -> &'a Architecture {
        self.arch
    }

    /// Arena and repair counters (see [`EvaluatorStats`]).
    pub fn stats(&self) -> EvaluatorStats {
        let r = self.lp.stats();
        EvaluatorStats {
            repairs: r.repairs,
            full_passes: r.full_passes,
            fallbacks: r.fallbacks,
            max_cone: r.max_cone,
            cone_nodes: r.cone_nodes,
            ..self.stats
        }
    }

    /// `true` once the mirrors reflect a mapping (after a successful
    /// full [`evaluate`](Evaluator::evaluate)); required by
    /// [`evaluate_delta`](Evaluator::evaluate_delta)'s fast path.
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// Scores `mapping` from scratch and synchronizes every mirror
    /// with it: CSR weights, processor chains, context states, bundle
    /// markers and longest-path labels. Steady-state calls do not
    /// allocate.
    ///
    /// # Errors
    ///
    /// Exactly as [`evaluate`]:
    /// [`MappingError::CapacityExceeded`] when a context overflows its
    /// device, [`MappingError::CyclicSchedule`] when the imposed orders
    /// contradict the precedence graph.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not belong to this evaluator's `app` ×
    /// `arch` (index out of range).
    pub fn evaluate(&mut self, mapping: &Mapping) -> Result<EvalSummary, MappingError> {
        let (app, arch) = (self.app, self.arch);
        self.stats.evaluations += 1;
        self.synced = false;
        self.delta_active = false;
        self.log.clear();
        self.lp.discard_journal();

        // Capacity check first: a context overflow is infeasible
        // regardless of ordering (same order as `evaluate`). The same
        // pass records the peak context occupancy — the clb_area
        // objective, a `u32` max, so both engines agree exactly.
        let mut clb_area = Clbs::new(0);
        for (d, spec) in arch.drlcs().iter().enumerate() {
            for c in 0..mapping.contexts(d).len() {
                let used = mapping.context_clbs(app, d, c);
                if used > spec.n_clbs() {
                    return Err(MappingError::CapacityExceeded {
                        drlc: d,
                        context: c,
                    });
                }
                clb_area = clb_area.max(used);
            }
        }

        let capacity_before = self.arena_capacity();

        // Node weights under the mapping's placements/implementations
        // (the virtual source keeps weight 0 from construction).
        for t in app.task_ids() {
            let w = mapping.exec_time(app, t).value();
            self.dag.set_node_weight(t.0, w);
        }

        // Data-edge weights: zero on-device, bus latency across.
        for (eid, e) in app.edges().iter().enumerate() {
            let w = if same_device(mapping.resource(e.from), mapping.resource(e.to)) {
                0.0
            } else {
                self.xfer[eid]
            };
            self.dag.set_edge_weight(eid as u32, w);
        }

        // Placement kinds and hardware census.
        self.hw_count = 0;
        for t in app.task_ids() {
            let (k, d) = match mapping.placement(t) {
                Placement::Software { .. } => (K_SW, NONE),
                Placement::Hardware { drlc, .. } => (K_HW, drlc as u32),
                Placement::Asic { .. } => (K_ASIC, NONE),
            };
            self.kind[t.index()] = k;
            self.drlc_of[t.index()] = d;
            if k == K_HW {
                self.hw_count += 1;
            }
        }

        // Processor chains (Esw).
        self.prev_sw.fill(NONE);
        self.next_sw.fill(NONE);
        for p in 0..arch.processors().len() {
            for pair in mapping.proc_order(p).windows(2) {
                self.next_sw[pair[0].index()] = pair[1].0;
                self.prev_sw[pair[1].index()] = pair[0].0;
            }
        }

        // Context mirrors and bundle markers (Ehw).
        for d in 0..arch.drlcs().len() {
            self.rebuild_drlc_into_alt(mapping, d);
            let st = &mut self.drlcs[d];
            std::mem::swap(&mut st.cur, &mut st.alt);
            std::mem::swap(&mut st.cur_len, &mut st.alt_len);
        }
        self.in_bundle.fill(NONE);
        self.out_bundle.fill(NONE);
        for d in 0..self.drlcs.len() {
            let st = &self.drlcs[d];
            for k in 0..st.cur_len {
                for &t in &st.cur[k].initials {
                    self.in_bundle[t as usize] = enc_bundle(d, k);
                }
                if k + 1 < st.cur_len {
                    for &t in &st.cur[k].terminals {
                        self.out_bundle[t as usize] = enc_bundle(d, k + 1);
                    }
                }
            }
        }

        // Full longest-path pass over the overlay.
        let full = {
            let overlay = Overlay {
                dag: &self.dag,
                prev_sw: &self.prev_sw,
                next_sw: &self.next_sw,
                in_bundle: &self.in_bundle,
                out_bundle: &self.out_bundle,
                drlcs: &self.drlcs,
                n: self.n,
            };
            self.lp.full(&overlay)
        };
        if full.is_err() {
            return Err(MappingError::CyclicSchedule);
        }
        self.lp.discard_journal();
        self.synced = true;

        if self.arena_capacity() != capacity_before {
            self.stats.arena_growths += 1;
            self.stats.last_growth_eval = self.stats.evaluations;
        }

        Ok(self.summarize(clb_area))
    }

    /// Scores the mapping that results from applying one move (of task
    /// `moved`) to the last-synchronized state, in time proportional to
    /// the move's repair cone rather than the graph size.
    ///
    /// `mapping` must be the *post-move* state and must differ from the
    /// synchronized state only by a single-task relocation or
    /// re-implementation (the shapes produced by
    /// [`MoveDelta`](crate::moves::MoveDelta); context renumbering on
    /// the touched device is part of that shape). On success the
    /// mirrors track `mapping` and the previous state stays recoverable
    /// via [`revert_delta`](Evaluator::revert_delta) until the next
    /// evaluation. On error the evaluator has already reverted itself —
    /// do **not** call `revert_delta` then.
    ///
    /// If the evaluator is not yet synchronized this falls back to a
    /// full [`evaluate`](Evaluator::evaluate), after which there is no
    /// delta to revert.
    ///
    /// # Errors
    ///
    /// As [`evaluate`], with the same error priority (capacity before
    /// cycles).
    pub fn evaluate_delta(
        &mut self,
        mapping: &Mapping,
        moved: TaskId,
    ) -> Result<EvalSummary, MappingError> {
        if !self.synced {
            return self.evaluate(mapping);
        }
        self.stats.evaluations += 1;
        let capacity_before = self.arena_capacity();
        self.log.clear();
        self.seeds.clear();
        self.struct_seeds.clear();
        self.lp.discard_journal();
        self.log.hw_count = self.hw_count;
        self.delta_active = true;

        let ti = moved.index();
        let old_kind = self.kind[ti];
        let old_drlc = self.drlc_of[ti];

        // 1. Unsplice from the old processor chain (O(1)).
        if old_kind == K_SW {
            self.unsplice_sw(moved.0);
        }
        // 2. Task-local updates: node weight, incident data-edge
        //    weights, kind, home device, hardware census.
        self.update_task(mapping, moved);
        // 3. Splice into the new processor chain.
        if self.kind[ti] == K_SW {
            self.splice_sw(mapping, moved);
        }
        // 4. Rebuild the touched devices (old home, new home) and seed
        //    the difference: diff against the old state, clear old
        //    markers, commit, set new markers.
        let mut touched = [usize::MAX; 2];
        let mut nt = 0usize;
        if old_kind == K_HW {
            touched[nt] = old_drlc as usize;
            nt += 1;
        }
        if self.kind[ti] == K_HW {
            let nd = self.drlc_of[ti] as usize;
            if nt == 0 || touched[0] != nd {
                touched[nt] = nd;
                nt += 1;
            }
        }
        for &d in &touched[..nt] {
            self.rebuild_drlc_into_alt(mapping, d);
        }
        for &d in &touched[..nt] {
            self.diff_seed_drlc(d);
        }
        for &d in &touched[..nt] {
            self.clear_bundles_logged(d);
        }
        for &d in &touched[..nt] {
            let st = &mut self.drlcs[d];
            std::mem::swap(&mut st.cur, &mut st.alt);
            std::mem::swap(&mut st.cur_len, &mut st.alt_len);
            self.log.swapped.push(d as u32);
        }
        for &d in &touched[..nt] {
            self.set_bundles_logged(d);
        }

        let result = self.finish_delta();
        if result.is_ok() && self.arena_capacity() != capacity_before {
            self.stats.arena_growths += 1;
            self.stats.last_growth_eval = self.stats.evaluations;
        }
        result
    }

    /// Restores the mirrors and longest-path labels to the state before
    /// the last successful [`evaluate_delta`](Evaluator::evaluate_delta)
    /// (the annealer's move rejection). Bit-identical restoration: the
    /// undo log replays previous values verbatim and the label journal
    /// rolls back verbatim.
    ///
    /// # Panics
    ///
    /// Panics if no un-reverted successful delta is outstanding.
    pub fn revert_delta(&mut self) {
        assert!(
            self.delta_active,
            "revert_delta without a preceding successful evaluate_delta"
        );
        self.rollback_delta_state();
        self.delta_active = false;
    }

    /// Scores `candidates` against a common `base` mapping, amortizing
    /// the single full synchronization: the base is evaluated once,
    /// then each candidate is applied as a delta (diffed directly
    /// against the base — candidates may differ from it by *any*
    /// number of moves) and reverted. Results are returned per
    /// candidate, in order; the slice stays valid until the next call.
    /// After the call the evaluator is synchronized to `base`.
    ///
    /// # Errors
    ///
    /// The outer error reports an infeasible `base`. Per-candidate
    /// errors (capacity, cycles) land in the corresponding slot and
    /// are exactly those [`evaluate`] would report.
    pub fn evaluate_batch(
        &mut self,
        base: &Mapping,
        candidates: &[Mapping],
    ) -> Result<&[Result<EvalSummary, MappingError>], MappingError> {
        self.evaluate(base)?;
        self.batch_out.clear();
        for cand in candidates {
            self.stats.evaluations += 1;
            self.log.clear();
            self.seeds.clear();
            self.struct_seeds.clear();
            self.lp.discard_journal();
            self.log.hw_count = self.hw_count;
            self.delta_active = true;
            self.apply_diff(base, cand);
            let r = self.finish_delta();
            let ok = r.is_ok();
            self.batch_out.push(r);
            if ok {
                // Back to the base for the next candidate.
                self.rollback_delta_state();
                self.delta_active = false;
            }
        }
        Ok(&self.batch_out)
    }

    /// Full evaluation with the per-task trace (starts, completions,
    /// critical path) — the report path. Allocates; use
    /// [`evaluate`](Evaluator::evaluate) or
    /// [`evaluate_delta`](Evaluator::evaluate_delta) on the hot path.
    ///
    /// # Errors
    ///
    /// As [`evaluate`].
    pub fn evaluate_full(&self, mapping: &Mapping) -> Result<Evaluation, MappingError> {
        evaluate(self.app, self.arch, mapping)
    }

    // --- delta machinery -------------------------------------------------

    /// Removes `t` from its processor chain, relinking its neighbours.
    fn unsplice_sw(&mut self, t: u32) {
        let p = self.prev_sw[t as usize];
        let nx = self.next_sw[t as usize];
        let Self {
            prev_sw,
            next_sw,
            log,
            seeds,
            struct_seeds,
            ..
        } = self;
        if p != NONE {
            log_set_u32(&mut log.next_sw, next_sw, p, nx);
        }
        if nx != NONE && log_set_u32(&mut log.prev_sw, prev_sw, nx, p) {
            seeds.push(nx);
            struct_seeds.push(nx);
        }
        if log_set_u32(&mut log.prev_sw, prev_sw, t, NONE) {
            seeds.push(t);
            struct_seeds.push(t);
        }
        log_set_u32(&mut log.next_sw, next_sw, t, NONE);
    }

    /// Inserts `moved` into its (new) processor chain at the position
    /// the mapping's order dictates.
    fn splice_sw(&mut self, mapping: &Mapping, moved: TaskId) {
        let processor = match mapping.placement(moved) {
            Placement::Software { processor } => processor,
            _ => unreachable!("splice_sw on a non-software placement"),
        };
        let order = mapping.proc_order(processor);
        let pos = order
            .iter()
            .position(|&x| x == moved)
            .expect("software task present in its processor order");
        let a = if pos > 0 { order[pos - 1].0 } else { NONE };
        let b = if pos + 1 < order.len() {
            order[pos + 1].0
        } else {
            NONE
        };
        let Self {
            prev_sw,
            next_sw,
            log,
            seeds,
            struct_seeds,
            ..
        } = self;
        if a != NONE {
            log_set_u32(&mut log.next_sw, next_sw, a, moved.0);
        }
        if log_set_u32(&mut log.prev_sw, prev_sw, moved.0, a) {
            seeds.push(moved.0);
            struct_seeds.push(moved.0);
        }
        log_set_u32(&mut log.next_sw, next_sw, moved.0, b);
        if b != NONE && log_set_u32(&mut log.prev_sw, prev_sw, b, moved.0) {
            seeds.push(b);
            struct_seeds.push(b);
        }
    }

    /// Syncs `t`'s node weight, incident data-edge weights, placement
    /// kind and home device with `mapping`, logging and seeding every
    /// change.
    fn update_task(&mut self, mapping: &Mapping, t: TaskId) {
        let app = self.app;
        let ti = t.index();

        let w = mapping.exec_time(app, t).value();
        let old = self.dag.node_weight(t.0);
        if old.to_bits() != w.to_bits() {
            self.log.node_w.push((t.0, old));
            self.dag.set_node_weight(t.0, w);
            self.seeds.push(t.0);
        }

        let rt = mapping.resource(t);
        self.eid_scratch.clear();
        self.eid_scratch.extend(self.dag.out_edges(t.0));
        for i in 0..self.eid_scratch.len() {
            let (v, eid) = self.eid_scratch[i];
            let w = if same_device(rt, mapping.resource(TaskId(v))) {
                0.0
            } else {
                self.xfer[eid as usize]
            };
            let old = self.dag.edge_weight(eid);
            if old.to_bits() != w.to_bits() {
                self.log.edge_w.push((eid, old));
                self.dag.set_edge_weight(eid, w);
                self.seeds.push(v);
            }
        }
        self.eid_scratch.clear();
        self.eid_scratch.extend(self.dag.in_edges(t.0));
        for i in 0..self.eid_scratch.len() {
            let (u, eid) = self.eid_scratch[i];
            let w = if same_device(mapping.resource(TaskId(u)), rt) {
                0.0
            } else {
                self.xfer[eid as usize]
            };
            let old = self.dag.edge_weight(eid);
            if old.to_bits() != w.to_bits() {
                self.log.edge_w.push((eid, old));
                self.dag.set_edge_weight(eid, w);
                self.seeds.push(t.0);
            }
        }

        let (nk, nd) = match mapping.placement(t) {
            Placement::Software { .. } => (K_SW, NONE),
            Placement::Hardware { drlc, .. } => (K_HW, drlc as u32),
            Placement::Asic { .. } => (K_ASIC, NONE),
        };
        let ok = self.kind[ti];
        if ok != nk {
            self.log.kind.push((t.0, ok));
            self.kind[ti] = nk;
            if ok == K_HW {
                self.hw_count -= 1;
            }
            if nk == K_HW {
                self.hw_count += 1;
            }
        }
        let od = self.drlc_of[ti];
        if od != nd {
            self.log.drlc_of.push((t.0, od));
            self.drlc_of[ti] = nd;
        }
    }

    /// Rebuilds device `d`'s context mirror from `mapping` into the
    /// `alt` buffer (occupancy, reconfiguration latency, initials,
    /// terminals), recycling capacity.
    fn rebuild_drlc_into_alt(&mut self, mapping: &Mapping, d: usize) {
        let app = self.app;
        let arch = self.arch;
        let spec = &arch.drlcs()[d];
        let n_ctxs = mapping.contexts(d).len();
        let Self {
            dag,
            drlcs,
            membership,
            generation,
            ..
        } = self;
        let st = &mut drlcs[d];
        st.alt_len = n_ctxs;
        while st.alt.len() < n_ctxs {
            st.alt.push(CtxState::default());
        }
        for k in 0..n_ctxs {
            let ctx_tasks = mapping.contexts(d)[k].tasks();
            let used = mapping.context_clbs(app, d, k);
            let slot = &mut st.alt[k];
            slot.clbs = used.value();
            slot.reconfig = spec.reconfiguration_time(used).value();
            *generation += 1;
            let g = *generation;
            for &t in ctx_tasks {
                membership[t.index()] = g;
            }
            slot.initials.clear();
            slot.terminals.clear();
            for &t in ctx_tasks {
                if dag.in_edges(t.0).all(|(u, _)| membership[u as usize] != g) {
                    slot.initials.push(t.0);
                }
                if dag.out_edges(t.0).all(|(v, _)| membership[v as usize] != g) {
                    slot.terminals.push(t.0);
                }
            }
        }
    }

    /// Seeds every node whose virtual *Ehw* in-edges differ between
    /// device `d`'s old (`cur`) and new (`alt`) context mirror. Context
    /// `k`'s initials gain their in-edges from context `k-1`'s
    /// terminals (or the source, for `k == 0`) at the reconfiguration
    /// weight, so a context is "changed" when any of those moved.
    fn diff_seed_drlc(&mut self, d: usize) {
        let Self {
            drlcs,
            seeds,
            struct_seeds,
            ..
        } = self;
        let st = &drlcs[d];
        let kmax = st.cur_len.max(st.alt_len);
        for k in 0..kmax {
            let changed = if k >= st.cur_len || k >= st.alt_len {
                true
            } else {
                let o = &st.cur[k];
                let nw = &st.alt[k];
                o.reconfig.to_bits() != nw.reconfig.to_bits()
                    || o.initials != nw.initials
                    || (k > 0 && st.cur[k - 1].terminals != st.alt[k - 1].terminals)
            };
            if changed {
                if k < st.cur_len {
                    seeds.extend_from_slice(&st.cur[k].initials);
                    struct_seeds.extend_from_slice(&st.cur[k].initials);
                }
                if k < st.alt_len {
                    seeds.extend_from_slice(&st.alt[k].initials);
                    struct_seeds.extend_from_slice(&st.alt[k].initials);
                }
            }
        }
    }

    /// Clears the bundle markers of device `d`'s *old* (`cur`) mirror,
    /// logged (called before the `cur`/`alt` swap).
    fn clear_bundles_logged(&mut self, d: usize) {
        let Self {
            drlcs,
            in_bundle,
            out_bundle,
            log,
            ..
        } = self;
        let st = &drlcs[d];
        for k in 0..st.cur_len {
            for &t in &st.cur[k].initials {
                log_set_u32(&mut log.in_bundle, in_bundle, t, NONE);
            }
            if k + 1 < st.cur_len {
                for &t in &st.cur[k].terminals {
                    log_set_u32(&mut log.out_bundle, out_bundle, t, NONE);
                }
            }
        }
    }

    /// Sets the bundle markers of device `d`'s *new* (`cur`) mirror,
    /// logged (called after the `cur`/`alt` swap).
    fn set_bundles_logged(&mut self, d: usize) {
        let Self {
            drlcs,
            in_bundle,
            out_bundle,
            log,
            ..
        } = self;
        let st = &drlcs[d];
        for k in 0..st.cur_len {
            for &t in &st.cur[k].initials {
                log_set_u32(&mut log.in_bundle, in_bundle, t, enc_bundle(d, k));
            }
            if k + 1 < st.cur_len {
                for &t in &st.cur[k].terminals {
                    log_set_u32(&mut log.out_bundle, out_bundle, t, enc_bundle(d, k + 1));
                }
            }
        }
    }

    /// Diffs `cand` against `base` (the synchronized state) and applies
    /// every difference to the mirrors, logged and seeded. Used by the
    /// batch path, where a candidate may differ by many moves.
    fn apply_diff(&mut self, base: &Mapping, cand: &Mapping) {
        let app = self.app;
        let arch = self.arch;
        self.diff_tasks.clear();
        self.diff_procs.clear();
        self.diff_drlcs.clear();
        for t in app.task_ids() {
            if base.placement(t) != cand.placement(t) {
                self.diff_tasks.push(t.0);
                // A hardware placement that changed on either side can
                // alter its device's context areas and reconfiguration
                // weights even when the context *membership* lists
                // compare equal (a pure re-implementation), so those
                // devices must be rebuilt too.
                if let Placement::Hardware { drlc, .. } = base.placement(t) {
                    self.diff_drlcs.push(drlc as u32);
                }
                if let Placement::Hardware { drlc, .. } = cand.placement(t) {
                    self.diff_drlcs.push(drlc as u32);
                }
            }
        }
        for p in 0..arch.processors().len() {
            if base.proc_order(p) != cand.proc_order(p) {
                self.diff_procs.push(p as u32);
            }
        }
        for d in 0..arch.drlcs().len() {
            if base.contexts(d) != cand.contexts(d) {
                self.diff_drlcs.push(d as u32);
            }
        }
        self.diff_drlcs.sort_unstable();
        self.diff_drlcs.dedup();

        // Tasks that left software lose their chain links up front so
        // the per-processor walks below see a consistent membership.
        for i in 0..self.diff_tasks.len() {
            let t = self.diff_tasks[i];
            if self.kind[t as usize] == K_SW
                && !matches!(cand.placement(TaskId(t)), Placement::Software { .. })
            {
                self.unsplice_sw(t);
            }
        }
        for i in 0..self.diff_tasks.len() {
            let t = TaskId(self.diff_tasks[i]);
            self.update_task(cand, t);
        }
        // Walk each differing processor order and re-link it; every
        // changed predecessor seeds its task.
        for i in 0..self.diff_procs.len() {
            let p = self.diff_procs[i] as usize;
            let order = cand.proc_order(p);
            for pos in 0..order.len() {
                let t = order[pos].0;
                let want_prev = if pos > 0 { order[pos - 1].0 } else { NONE };
                let want_next = if pos + 1 < order.len() {
                    order[pos + 1].0
                } else {
                    NONE
                };
                let Self {
                    prev_sw,
                    next_sw,
                    log,
                    seeds,
                    struct_seeds,
                    ..
                } = self;
                if log_set_u32(&mut log.prev_sw, prev_sw, t, want_prev) {
                    seeds.push(t);
                    struct_seeds.push(t);
                }
                log_set_u32(&mut log.next_sw, next_sw, t, want_next);
            }
        }
        // Rebuild the differing devices: diff, clear old markers,
        // commit, set new markers (same order as the single-move path).
        for i in 0..self.diff_drlcs.len() {
            let d = self.diff_drlcs[i] as usize;
            self.rebuild_drlc_into_alt(cand, d);
        }
        for i in 0..self.diff_drlcs.len() {
            let d = self.diff_drlcs[i] as usize;
            self.diff_seed_drlc(d);
        }
        for i in 0..self.diff_drlcs.len() {
            let d = self.diff_drlcs[i] as usize;
            self.clear_bundles_logged(d);
        }
        for i in 0..self.diff_drlcs.len() {
            let d = self.diff_drlcs[i] as usize;
            let st = &mut self.drlcs[d];
            std::mem::swap(&mut st.cur, &mut st.alt);
            std::mem::swap(&mut st.cur_len, &mut st.alt_len);
            self.log.swapped.push(d as u32);
        }
        for i in 0..self.diff_drlcs.len() {
            let d = self.diff_drlcs[i] as usize;
            self.set_bundles_logged(d);
        }
    }

    /// Shared tail of every delta: capacity check from the mirrors (in
    /// `(device, context)` order, same error priority as the
    /// reference), order and label repair, summary. Reverts the delta
    /// on error.
    fn finish_delta(&mut self) -> Result<EvalSummary, MappingError> {
        let mut clb_area = Clbs::new(0);
        for d in 0..self.drlcs.len() {
            let cap = self.arch.drlcs()[d].n_clbs();
            let st = &self.drlcs[d];
            for c in 0..st.cur_len {
                let used = Clbs::new(st.cur[c].clbs);
                if used > cap {
                    self.rollback_delta_state();
                    self.delta_active = false;
                    return Err(MappingError::CapacityExceeded {
                        drlc: d,
                        context: c,
                    });
                }
                clb_area = clb_area.max(used);
            }
        }
        let repaired = {
            let overlay = Overlay {
                dag: &self.dag,
                prev_sw: &self.prev_sw,
                next_sw: &self.next_sw,
                in_bundle: &self.in_bundle,
                out_bundle: &self.out_bundle,
                drlcs: &self.drlcs,
                n: self.n,
            };
            // Every edge the delta added or removed has its head in
            // `struct_seeds`, and the order was topological before the
            // delta, so every edge that now points backwards is an
            // in-edge of a structural seed. Re-sorting the span from
            // the first such head to the last such tail restores a
            // topological order, or finds the cycle the delta closed
            // (every cycle lies inside that span). The relax sweep over
            // a valid order then lands on the unique label fixpoint,
            // bit for bit.
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for &v in &self.struct_seeds {
                let lp = &self.lp;
                let pv = lp.order_pos(v);
                overlay.for_each_in(v, |u, _| {
                    let pu = lp.order_pos(u);
                    if pu > pv {
                        lo = lo.min(pv);
                        hi = hi.max(pu);
                    }
                });
            }
            let acyclic = lo == u32::MAX
                || self
                    .lp
                    .resort_window(&overlay, lo as usize, hi as usize)
                    .is_ok();
            if acyclic {
                let mut start = usize::MAX;
                for &v in &self.seeds {
                    start = start.min(self.lp.order_pos(v) as usize);
                }
                self.lp.sweep_certified(&overlay, start);
            }
            acyclic
        };
        if !repaired {
            self.rollback_delta_state();
            self.delta_active = false;
            return Err(MappingError::CyclicSchedule);
        }
        Ok(self.summarize(clb_area))
    }

    /// Replays the undo log in reverse and rolls back the label
    /// journal, restoring the pre-delta state bit-identically.
    fn rollback_delta_state(&mut self) {
        self.lp.rollback();
        let Self {
            dag,
            log,
            prev_sw,
            next_sw,
            in_bundle,
            out_bundle,
            kind,
            drlc_of,
            drlcs,
            ..
        } = self;
        for &(i, w) in log.node_w.iter().rev() {
            dag.set_node_weight(i, w);
        }
        for &(e, w) in log.edge_w.iter().rev() {
            dag.set_edge_weight(e, w);
        }
        for &(i, v) in log.prev_sw.iter().rev() {
            prev_sw[i as usize] = v;
        }
        for &(i, v) in log.next_sw.iter().rev() {
            next_sw[i as usize] = v;
        }
        for &(i, v) in log.in_bundle.iter().rev() {
            in_bundle[i as usize] = v;
        }
        for &(i, v) in log.out_bundle.iter().rev() {
            out_bundle[i as usize] = v;
        }
        for &(i, v) in log.kind.iter().rev() {
            kind[i as usize] = v;
        }
        for &(i, v) in log.drlc_of.iter().rev() {
            drlc_of[i as usize] = v;
        }
        for &d in log.swapped.iter().rev() {
            let st = &mut drlcs[d as usize];
            std::mem::swap(&mut st.cur, &mut st.alt);
            std::mem::swap(&mut st.cur_len, &mut st.alt_len);
        }
        self.hw_count = self.log.hw_count;
        self.log.clear();
    }

    /// Assembles the summary from the mirrors and the live labels.
    /// Value-identical to the reference: the breakdown sums the same
    /// `f64` reconfiguration latencies in the same `(device, context)`
    /// order, and the makespan is the label max (order-free).
    fn summarize(&self, clb_area: Clbs) -> EvalSummary {
        let makespan = self.lp.makespan();
        let mut initial_reconfig = Micros::ZERO;
        let mut dynamic_reconfig = Micros::ZERO;
        let mut n_contexts = 0usize;
        for st in &self.drlcs {
            n_contexts += st.cur_len;
            for k in 0..st.cur_len {
                let r = Micros::new(st.cur[k].reconfig);
                if k == 0 {
                    initial_reconfig += r;
                } else {
                    dynamic_reconfig += r;
                }
            }
        }
        let comp_comm =
            Micros::new((makespan - initial_reconfig.value() - dynamic_reconfig.value()).max(0.0));
        EvalSummary {
            makespan: Micros::new(makespan),
            n_contexts,
            n_hw_tasks: self.hw_count as usize,
            clb_area,
            breakdown: EvalBreakdown {
                initial_reconfig,
                dynamic_reconfig,
                computation_communication: comp_comm,
            },
        }
    }

    /// Total capacity across growable arenas, compared before/after an
    /// evaluation to detect allocator traffic.
    fn arena_capacity(&self) -> usize {
        let mut cap = self.seeds.capacity()
            + self.eid_scratch.capacity()
            + self.batch_out.capacity()
            + self.diff_tasks.capacity()
            + self.diff_procs.capacity()
            + self.diff_drlcs.capacity()
            + self.lp.scratch_capacity()
            + self.log.capacity();
        for st in &self.drlcs {
            cap += st.cur.capacity() + st.alt.capacity();
            for c in st.cur.iter().chain(&st.alt) {
                cap += c.initials.capacity() + c.terminals.capacity();
            }
        }
        cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_initial;
    use crate::moves::{propose_impl_move, propose_pair_move, MoveScratch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rdse_model::units::{Bytes, Clbs};
    use rdse_model::HwImpl;

    fn us(v: f64) -> Micros {
        Micros::new(v)
    }

    fn fixture() -> (TaskGraph, Architecture) {
        let mut app = TaskGraph::new("fx");
        let a = app
            .add_task(
                "a",
                "F",
                us(10.0),
                vec![HwImpl::new(Clbs::new(100), us(2.0))],
            )
            .unwrap();
        let b = app
            .add_task(
                "b",
                "G",
                us(20.0),
                vec![HwImpl::new(Clbs::new(150), us(3.0))],
            )
            .unwrap();
        let c = app.add_task("c", "H", us(5.0), vec![]).unwrap();
        app.add_data_edge(a, b, Bytes::new(1000)).unwrap();
        app.add_data_edge(b, c, Bytes::new(2000)).unwrap();
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(200), us(0.1), 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        (app, arch)
    }

    fn topo(app: &TaskGraph) -> Vec<TaskId> {
        rdse_graph::topo_sort(&app.precedence_graph())
            .unwrap()
            .into_iter()
            .map(TaskId::from)
            .collect()
    }

    #[test]
    fn matches_reference_on_random_mappings() {
        let (app, arch) = fixture();
        let mut evaluator = Evaluator::new(&app, &arch);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let m = random_initial(&app, &arch, &mut rng);
            let summary = evaluator.evaluate(&m).unwrap();
            let reference = evaluate(&app, &arch, &m).unwrap();
            assert_eq!(
                summary.makespan.value().to_bits(),
                reference.makespan.value().to_bits()
            );
            assert_eq!(summary, reference.summary());
        }
    }

    #[test]
    fn reports_same_errors_as_reference() {
        let (app, arch) = fixture();
        let mut evaluator = Evaluator::new(&app, &arch);
        // Capacity overflow.
        let mut m = Mapping::all_software(&app, &arch, topo(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0);
        m.detach(TaskId(1));
        m.insert_hardware(TaskId(1), 0, 0, 0); // 250 > 200 CLBs
        assert_eq!(
            evaluator.evaluate(&m),
            Err(MappingError::CapacityExceeded {
                drlc: 0,
                context: 0
            })
        );
        // Cyclic order.
        let m = Mapping::all_software(&app, &arch, vec![TaskId(2), TaskId(0), TaskId(1)]);
        assert_eq!(evaluator.evaluate(&m), Err(MappingError::CyclicSchedule));
        // Backwards context order is cyclic too.
        let mut m = Mapping::all_software(&app, &arch, topo(&app));
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 0, 0);
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 1, 0);
        assert_eq!(evaluator.evaluate(&m), Err(MappingError::CyclicSchedule));
    }

    #[test]
    fn arenas_stop_growing() {
        let (app, arch) = fixture();
        let mut evaluator = Evaluator::new(&app, &arch);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let m = random_initial(&app, &arch, &mut rng);
            let _ = evaluator.evaluate(&m).unwrap();
        }
        let stats = evaluator.stats();
        assert_eq!(stats.evaluations, 100);
        assert!(
            stats.arenas_warm(),
            "arenas still growing after 100 evals: {stats:?}"
        );
        // Growths can only happen early, while capacity warms up.
        assert!(stats.last_growth_eval < 50, "{stats:?}");
    }

    #[test]
    fn full_evaluation_agrees_with_summary() {
        let (app, arch) = fixture();
        let mut evaluator = Evaluator::new(&app, &arch);
        let m = Mapping::all_software(&app, &arch, topo(&app));
        let summary = evaluator.evaluate(&m).unwrap();
        let full = evaluator.evaluate_full(&m).unwrap();
        assert_eq!(full.summary(), summary);
        assert_eq!(full.makespan, us(35.0));
    }

    /// Window re-sorts seen by one [`delta_walk`].
    #[derive(Debug)]
    struct Resorts {
        acyclic: u64,
        cyclic: u64,
    }

    /// Drives the delta path with the real move proposals and checks
    /// every answer (and every revert) against the from-scratch
    /// reference, bit for bit.
    fn delta_walk(app: &TaskGraph, arch: &Architecture, seed: u64, steps: usize) -> Resorts {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mapping = random_initial(app, arch, &mut rng);
        let mut evaluator = Evaluator::new(app, arch);
        // Feasible start (random_initial is all-feasible by design,
        // but keep the walk robust).
        if evaluator.evaluate(&mapping).is_err() {
            mapping = Mapping::all_software(app, arch, topo(app));
            evaluator.evaluate(&mapping).unwrap();
        }
        let mut scratch = MoveScratch::default();
        let mut applied = 0usize;
        let mut cyclic = 0u64;
        let before = evaluator.stats();
        for step in 0..steps {
            let outcome = if step % 3 == 0 {
                propose_impl_move(app, arch, &mut mapping, &mut rng, &mut scratch)
            } else {
                propose_pair_move(app, arch, &mut mapping, &mut rng, &mut scratch)
            };
            let Some(outcome) = outcome else { continue };
            applied += 1;
            let delta = evaluator.evaluate_delta(&mapping, outcome.delta.task());
            let reference = evaluate(app, arch, &mapping);
            match (&delta, &reference) {
                (Ok(s), Ok(r)) => {
                    assert_eq!(
                        s.makespan.value().to_bits(),
                        r.makespan.value().to_bits(),
                        "makespan bits diverged at step {step}"
                    );
                    assert_eq!(*s, r.summary(), "summary diverged at step {step}");
                }
                (Err(e), Err(re)) => assert_eq!(e, re, "error diverged at step {step}"),
                _ => panic!("feasibility diverged at step {step}: {delta:?} vs {reference:?}"),
            }
            cyclic += u64::from(delta == Err(MappingError::CyclicSchedule));
            match delta {
                Ok(_) => {
                    // Coin-flip rejection, like the annealer.
                    if rng.random::<bool>() {
                        evaluator.revert_delta();
                        outcome.delta.undo(&mut mapping);
                    }
                }
                Err(_) => {
                    // The evaluator reverted itself; undo the mapping.
                    outcome.delta.undo(&mut mapping);
                }
            }
        }
        assert!(applied > steps / 10, "walk exercised too few moves");
        let after = evaluator.stats();
        // Deltas re-sort windows; they never run a full pass.
        assert_eq!(after.full_passes, before.full_passes, "{after:?}");
        let resorts = after.fallbacks - before.fallbacks;
        // The mirrors must still be exact: one more fresh comparison.
        let summary = evaluator.evaluate(&mapping).unwrap();
        assert_eq!(summary, evaluate(app, arch, &mapping).unwrap().summary());
        Resorts {
            acyclic: resorts - cyclic,
            cyclic,
        }
    }

    #[test]
    fn delta_walk_matches_reference() {
        let (app, arch) = fixture();
        for seed in [1, 17, 42] {
            delta_walk(&app, &arch, seed, 400);
        }
    }

    #[test]
    fn delta_walk_matches_reference_on_paper_workload() {
        let app = rdse_workloads::motion_detection_app();
        let arch = rdse_workloads::epicure_architecture(2000);
        for seed in [1, 17] {
            delta_walk(&app, &arch, seed, 300);
        }
    }

    #[test]
    fn delta_walk_matches_reference_on_layered_200() {
        // 200 tasks give the re-sort windows room to be long, unlike
        // the 3-task fixture and the 28-task paper workload.
        let app = rdse_workloads::layered_dag(
            &rdse_workloads::LayeredDagConfig {
                layers: 20,
                width: 10,
                edge_percent: 30,
                hw_percent: 60,
            },
            42,
        );
        let arch = rdse_workloads::epicure_architecture(4000);
        let resorts = delta_walk(&app, &arch, 5, 300);
        assert!(resorts.acyclic > 0, "{resorts:?}");
        assert!(resorts.cyclic > 0, "{resorts:?}");
    }

    #[test]
    fn delta_stats_count_sweeps_and_window_resorts() {
        let (app, arch) = fixture();
        let topo = topo(&app);
        // a -> b -> c on one processor: the data edges fix the order.
        let base = Mapping::all_software(&app, &arch, topo.clone());
        let mut evaluator = Evaluator::new(&app, &arch);
        evaluator.evaluate(&base).unwrap();
        let synced = evaluator.stats();
        assert_eq!(synced.full_passes, 1, "{synced:?}");
        // An order-preserving delta (b to the fabric) is one sweep.
        let mut m = base.clone();
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 0, 0);
        evaluator.evaluate_delta(&m, TaskId(1)).unwrap();
        evaluator.revert_delta();
        let swept = evaluator.stats();
        assert_eq!(swept.repairs, synced.repairs + 1, "{swept:?}");
        assert_eq!(swept.fallbacks, synced.fallbacks, "{swept:?}");
        // Moving c ahead of a on the processor chains c -> a against the
        // data path a -> b -> c: the re-sort finds the cycle.
        let mut m = base.clone();
        m.detach(TaskId(2));
        m.insert_software(TaskId(2), 0, 0);
        assert_eq!(
            evaluator.evaluate_delta(&m, TaskId(2)),
            Err(MappingError::CyclicSchedule)
        );
        let cyclic = evaluator.stats();
        assert_eq!(cyclic.fallbacks, swept.fallbacks + 1, "{cyclic:?}");
        assert_eq!(cyclic.repairs, swept.repairs, "{cyclic:?}");
        // Deltas never run a full pass, and the evaluator is back on
        // the base.
        assert_eq!(cyclic.full_passes, 1, "{cyclic:?}");
        let again = evaluator.evaluate_delta(&base, TaskId(2)).unwrap();
        assert_eq!(again, evaluate(&app, &arch, &base).unwrap().summary());
    }

    #[test]
    fn batch_matches_sequential_evaluation() {
        let (app, arch) = fixture();
        let mut rng = StdRng::seed_from_u64(23);
        let base = random_initial(&app, &arch, &mut rng);
        let mut scratch = MoveScratch::default();
        let mut candidates = Vec::new();
        for _ in 0..24 {
            let mut cand = base.clone();
            // Candidates may be several moves away from the base.
            let hops = 1 + (rng.random::<u32>() % 3) as usize;
            for h in 0..hops {
                let _ = if h % 2 == 0 {
                    propose_pair_move(&app, &arch, &mut cand, &mut rng, &mut scratch)
                } else {
                    propose_impl_move(&app, &arch, &mut cand, &mut rng, &mut scratch)
                };
            }
            candidates.push(cand);
        }
        let mut evaluator = Evaluator::new(&app, &arch);
        let results: Vec<_> = evaluator
            .evaluate_batch(&base, &candidates)
            .unwrap()
            .to_vec();
        assert_eq!(results.len(), candidates.len());
        for (cand, got) in candidates.iter().zip(&results) {
            let reference = evaluate(&app, &arch, cand);
            match (got, &reference) {
                (Ok(s), Ok(r)) => {
                    assert_eq!(s.makespan.value().to_bits(), r.makespan.value().to_bits());
                    assert_eq!(*s, r.summary());
                }
                (Err(e), Err(re)) => assert_eq!(e, re),
                _ => panic!("feasibility diverged: {got:?} vs {reference:?}"),
            }
        }
        // The evaluator is back on the base afterwards.
        assert!(evaluator.is_synced());
        let base_again = evaluator.evaluate(&base).unwrap();
        assert_eq!(base_again, evaluate(&app, &arch, &base).unwrap().summary());
    }

    #[test]
    fn batch_arenas_warm_across_calls() {
        let (app, arch) = fixture();
        let mut rng = StdRng::seed_from_u64(31);
        let mut evaluator = Evaluator::new(&app, &arch);
        let mut scratch = MoveScratch::default();
        for _ in 0..20 {
            let base = random_initial(&app, &arch, &mut rng);
            let mut candidates = Vec::new();
            for _ in 0..8 {
                let mut cand = base.clone();
                let _ = propose_pair_move(&app, &arch, &mut cand, &mut rng, &mut scratch);
                candidates.push(cand);
            }
            let _ = evaluator.evaluate_batch(&base, &candidates);
        }
        let stats = evaluator.stats();
        assert!(stats.arenas_warm(), "batch arenas still growing: {stats:?}");
    }
}
