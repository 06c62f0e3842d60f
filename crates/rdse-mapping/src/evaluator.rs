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
//! * the contexts live in a slab of context mirrors (member list, area,
//!   reconfiguration weight, initials, terminals) under stable slot
//!   ids, linked per device in context order;
//! * the context sequentialization edges (*Ehw*) are *virtual*: each
//!   task carries at most one in-bundle and one out-bundle marker
//!   naming a context slot, and the [`RepairGraph`] overlay expands a
//!   marker into the terminals×initials biclique on the fly — a move
//!   never materializes those edges;
//! * the relaxation does not walk a biclique edge by edge either: it
//!   asks the overlay for [`RepairGraph::max_in`], which folds an
//!   initial's bundle into a *star* — the previous context's largest
//!   terminal label, computed once per relaxation pass and cached per
//!   slot, plus the one reconfiguration weight every bundle edge
//!   carries — so T terminals and I initials cost T + I label reads
//!   instead of T×I. Every terminal precedes every initial of the next
//!   context in any topological order, so the cached maximum is final
//!   when an initial reads it;
//! * [`Evaluator::evaluate_delta`] re-derives only what one move can
//!   touch. A move changes the task's node and incident edge weights,
//!   at most two processor chains, and the one or two contexts the
//!   task left and joined. Only those contexts' mirrors are recomputed
//!   and re-marked. A context whose index shifts (because one before
//!   it was inserted or removed) keeps its slot, content and markers;
//!   only its neighbours' links and the terminals' markers before an
//!   inserted or removed context are rewritten. The delta seeds the
//!   nodes whose in-edge candidate sets changed and relabels over a
//!   maintained topological order
//!   ([`IncrementalLongestPath::order_pos`]). Every edge the move
//!   added has its head among the seeds, so the evaluator finds the
//!   edges that now point backwards by scanning the seeds' in-edges,
//!   and re-sorts only the span of the order between the first such
//!   head and the last such tail
//!   ([`IncrementalLongestPath::resort_window`]); if that span holds a
//!   cycle the move is rejected as cyclic without touching a label.
//!   A single check-free relaxation pass over the order suffix from
//!   the first seed then relabels the cone
//!   ([`IncrementalLongestPath::sweep_certified`]). Mirror writes,
//!   replaced context mirrors, order and labels are journaled, so
//!   rejection stays a cheap rollback.
//!
//! Two move outcomes skip most of that general path:
//!
//! * **Implementation change in place.** When the moved task stays
//!   hardware-placed in the same slot, the slot's member list equals
//!   its new context's and its neighbours in the device's context
//!   order are unchanged, only the task's node weight and the
//!   context's area and reconfiguration weight can differ (its data
//!   edges stay on one device). Those two fields are updated in place
//!   and journaled; the initials are seeded when the reconfiguration
//!   bits changed, because their in-edges carry that weight. No edge
//!   is added or removed, so there is no backward edge to look for
//!   and no window to re-sort.
//! * **Direct cycles.** Every other move is first checked against the
//!   post-move [`Mapping`] and the CSR adjacency alone: a task that now
//!   sits after one of its data successors, or before one of its data
//!   predecessors, in its processor's order or its device's context
//!   order (every task of context k precedes every task of context
//!   k + 1) closes a cycle whatever else the move changed, and is
//!   rejected before any mirror write, so nothing is rolled back. The
//!   destination context's capacity is checked first, so an overflow
//!   is still the error reported (capacity before cycles). Indirect
//!   cycles still reach the window re-sort.
//!
//! Both produce the general path's answer bit for bit: the in-place
//! path writes the same area and weight bits, seeds the same nodes and
//! runs the same sweep, and a direct cycle is a cycle of *G′*, which
//! the general path would have reported as the same error.
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
//! * a bundle star is exact: rounding is monotone, so
//!   `max_t fl(comp_t + w) == fl(max_t comp_t + w)` for the bundle's
//!   one weight `w`;
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
use std::cell::Cell;

/// Sentinel for "no link / no marker" in the flat `u32` arrays.
const NONE: u32 = u32::MAX;
/// Placement kind codes (branch-free comparisons on the hot path).
const K_SW: u8 = 0;
const K_HW: u8 = 1;
const K_ASIC: u8 = 2;

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

/// Sets `arr[i] = v`, logging it into `log` only when `journal` is
/// set, and reports whether anything changed.
#[inline]
fn set_u32(journal: bool, log: &mut Vec<(u32, u32)>, arr: &mut [u32], i: u32, v: u32) -> bool {
    if journal {
        return log_set_u32(log, arr, i, v);
    }
    let changed = arr[i as usize] != v;
    arr[i as usize] = v;
    changed
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
    /// (including deltas whose re-sort found a cycle). Only the general
    /// delta path re-sorts: neither an in-place implementation change
    /// nor a rejected direct cycle ever counts here.
    pub fallbacks: u64,
    /// Most nodes relabeled by one delta's sweep.
    pub max_cone: u64,
    /// Total nodes relabeled across all sweeps (for the mean cone
    /// size).
    pub cone_nodes: u64,
    /// Contexts whose mirror a delta or batch candidate re-derived
    /// (area, reconfiguration weight, initials, terminals): the
    /// contexts a moved task left or joined.
    pub contexts_recomputed: u64,
    /// Contexts on the devices a delta or batch candidate touched whose
    /// mirror it kept as it was.
    pub contexts_untouched: u64,
    /// Deltas that only re-implemented a task inside its unchanged
    /// context: the context's area and reconfiguration weight were
    /// updated in place, with no context re-derived.
    pub contexts_resized: u64,
    /// Deltas rejected as cyclic before any mirror write, because the
    /// moved task landed after one of its data successors (or before
    /// one of its data predecessors) in its new processor's or
    /// device's total order.
    pub direct_cycles: u64,
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
    /// Device the context lives on.
    dev: u32,
    /// Member tasks, in the mapping's context order.
    tasks: Vec<u32>,
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

impl CtxState {
    fn capacity(&self) -> usize {
        self.tasks.capacity() + self.initials.capacity() + self.terminals.capacity()
    }
}

/// The context mirror (*Ehw*): every live context of every device sits
/// in one slab under a stable slot id, and each device's contexts form
/// a doubly linked list in context order. Bundle markers name slots,
/// not positions, so a context whose index shifts keeps its slot, its
/// content and its markers; a sync pass re-derives only the contexts a
/// dirty task left or joined and relinks their neighbours.
///
/// A pass is journaled: a recomputed slot's old content moves into
/// `saved` (its replacement comes from the `spare` pool), released
/// slots wait in `released` and new ones are listed in `allocated`, so
/// [`rollback`](Self::rollback) restores the slab by moving values
/// back and [`commit`](Self::commit) recycles them. Buffers only grow.
#[derive(Debug, Clone, Default)]
struct CtxMirror {
    /// Context slab and per-slot links, indexed by slot id.
    slots: Vec<CtxState>,
    meta: Vec<SlotMeta>,
    /// Slot ids holding no live context.
    free: Vec<u32>,
    /// Recycled context buffers.
    spare: Vec<CtxState>,
    /// Per device: first context's slot ([`NONE`] if none).
    head: Vec<u32>,
    /// Per device: stamp of the last pass that touched it.
    dev_mark: Vec<u64>,
    /// Per task: slot of its context ([`NONE`] unless hardware-placed).
    of: Vec<u32>,
    /// Per task: `dirty_mark` stamps the pass's dirty tasks;
    /// `first_mark` stamps the first task of each context queued for
    /// recomputation, then the terminals of the recomputed contexts.
    dirty_mark: Vec<u64>,
    first_mark: Vec<u64>,
    /// Pass inputs and scratch: the dirty tasks, the old slots they
    /// left, the contexts to recompute, and the slots to relink.
    dirty: Vec<u32>,
    left: Vec<u32>,
    fresh: Vec<Recompute>,
    links: Vec<u32>,
    /// Journal of the outstanding pass.
    saved: Vec<(u32, CtxState)>,
    allocated: Vec<u32>,
    released: Vec<u32>,
    /// `true` once a context buffer grew during the current evaluation.
    grew: bool,
    /// Per slot: the largest terminal label and the relaxation pass
    /// that computed it (see [`CtxMirror::terminal_max`]).
    term_max: Vec<Cell<(u64, f64)>>,
    /// Stamp of the current relaxation pass; 0 stamps no pass.
    pass: u64,
}

/// A slot's place in its device's context order, and its stamps for
/// the current sync pass.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    /// Neighbours in the device's context order ([`NONE`] at either
    /// end).
    prev: u32,
    next: u32,
    /// A dirty task left this (old) slot.
    left_mark: u64,
    /// Queued for relinking (or released: never relinked).
    link: u64,
}

impl CtxMirror {
    fn new(n_tasks: usize, n_devices: usize) -> Self {
        CtxMirror {
            head: vec![NONE; n_devices],
            dev_mark: vec![0; n_devices],
            of: vec![NONE; n_tasks],
            dirty_mark: vec![0; n_tasks],
            first_mark: vec![0; n_tasks],
            ..CtxMirror::default()
        }
    }

    /// Takes a free slot (or grows the slab) for a new context.
    fn alloc(&mut self) -> u32 {
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(CtxState::default());
                self.meta.push(SlotMeta {
                    prev: NONE,
                    next: NONE,
                    left_mark: 0,
                    link: 0,
                });
                self.term_max.push(Cell::new((0, 0.0)));
                self.grew = true;
                (self.slots.len() - 1) as u32
            }
        };
        self.allocated.push(s);
        s
    }

    /// Moves slot `s`'s content into the journal and hands the slot an
    /// empty (recycled) buffer set.
    fn save(&mut self, s: u32) {
        let fresh = self.spare.pop().unwrap_or_default();
        let old = std::mem::replace(&mut self.slots[s as usize], fresh);
        self.saved.push((s, old));
    }

    /// Accepts the outstanding pass: replaced content and released
    /// slots become reusable.
    fn commit(&mut self) {
        self.spare.extend(self.saved.drain(..).map(|(_, c)| c));
        self.free.append(&mut self.released);
        self.allocated.clear();
    }

    /// Undoes the outstanding pass's slab changes (links, heads and
    /// task slots are restored from the [`DeltaLog`]).
    fn rollback(&mut self) {
        while let Some((s, old)) = self.saved.pop() {
            let new = std::mem::replace(&mut self.slots[s as usize], old);
            self.spare.push(new);
        }
        while let Some(s) = self.allocated.pop() {
            self.free.push(s);
        }
        self.released.clear();
    }

    /// Forgets every context: all slots free, no device has one, and
    /// room for `n_contexts` of them.
    fn reset(&mut self, n_contexts: usize) {
        self.commit();
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        let more = n_contexts.saturating_sub(self.slots.len());
        self.slots.reserve(more);
        self.meta.reserve(more);
        self.term_max.reserve(more);
        self.fresh.reserve(n_contexts);
        self.allocated.reserve(n_contexts);
        self.head.fill(NONE);
        self.of.fill(NONE);
    }

    /// Capacity of the growable slab-level vectors (context buffers
    /// report their own growth through `grew`).
    fn capacity(&self) -> usize {
        self.slots.capacity()
            + self.meta.capacity()
            + self.term_max.capacity()
            + self.free.capacity()
            + self.spare.capacity()
            + self.dirty.capacity()
            + self.left.capacity()
            + self.fresh.capacity()
            + self.links.capacity()
            + self.saved.capacity()
            + self.allocated.capacity()
            + self.released.capacity()
    }

    /// Slot of context `k` of device `d` in `mapping` (valid once every
    /// task's slot is synced).
    #[inline]
    fn slot_at(&self, mapping: &Mapping, d: usize, k: usize) -> u32 {
        self.of[mapping.contexts(d)[k].tasks()[0].index()]
    }

    /// Starts a relaxation pass: every cached terminal maximum goes
    /// stale.
    fn begin_pass(&mut self) {
        self.pass += 1;
    }

    /// The largest of `labels` over slot `s`'s terminals, scanned once
    /// per relaxation pass. An initial of the next context asks for it,
    /// and every terminal of `s` precedes that initial in the pass's
    /// topological order, so the labels read are final.
    #[inline]
    fn terminal_max(&self, s: u32, labels: &[f64]) -> f64 {
        let cell = &self.term_max[s as usize];
        let (stamp, max) = cell.get();
        if stamp == self.pass {
            return max;
        }
        let mut max = 0.0_f64;
        for &t in &self.slots[s as usize].terminals {
            let c = labels[t as usize];
            if c > max {
                max = c;
            }
        }
        cell.set((self.pass, max));
        max
    }
}

/// Queues context `k` of device `d` for recomputation once per pass
/// (deduplicated on its first task).
fn queue_ctx(ctx: &mut CtxMirror, mapping: &Mapping, g: u64, d: usize, k: usize) {
    let first = mapping.contexts(d)[k].tasks()[0].index();
    if ctx.first_mark[first] != g {
        ctx.first_mark[first] = g;
        ctx.fresh.push(Recompute::at(d, k));
    }
}

/// A context a sync pass recomputes: its position in the new mapping,
/// its slot, and what changed against the slot's old content.
#[derive(Debug, Clone, Copy)]
struct Recompute {
    dev: u32,
    k: u32,
    slot: u32,
    /// Index of the slot's old content in the journal ([`NONE`] for a
    /// new slot).
    saved: u32,
    /// The initials or the reconfiguration weight changed: the
    /// initials' in-edges did.
    heads: bool,
    /// The initials list changed (their markers need rewriting).
    inits: bool,
    /// The terminals list changed (their markers, and the next
    /// context's initials' in-edges, need rewriting).
    terms: bool,
    /// A released slot taken back for the same member list: relinked
    /// like a new slot, and its old neighbours too.
    revived: bool,
}

impl Recompute {
    fn at(d: usize, k: usize) -> Self {
        Recompute {
            dev: d as u32,
            k: k as u32,
            slot: NONE,
            saved: NONE,
            heads: true,
            inits: true,
            terms: true,
            revived: false,
        }
    }
}

/// Queues slot `s` for relinking once per pass.
fn queue_link(ctx: &mut CtxMirror, g: u64, s: u32) {
    if ctx.meta[s as usize].link != g {
        ctx.meta[s as usize].link = g;
        ctx.links.push(s);
    }
}

/// Peak occupancy, context count and reconfiguration sums of the
/// context mirror, accumulated in `(device, context)` order.
struct CtxTotals {
    clb_area: Clbs,
    n_contexts: usize,
    initial_reconfig: Micros,
    dynamic_reconfig: Micros,
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
    /// Context mirror links: per-slot neighbours, per-device head,
    /// per-task slot.
    ctx_prev: Vec<(u32, u32)>,
    ctx_next: Vec<(u32, u32)>,
    ctx_head: Vec<(u32, u32)>,
    ctx_of: Vec<(u32, u32)>,
    /// A context resized in place: its slot, area and reconfiguration
    /// weight.
    ctx_area: Vec<(u32, u32, f64)>,
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
        self.ctx_prev.clear();
        self.ctx_next.clear();
        self.ctx_head.clear();
        self.ctx_of.clear();
        self.ctx_area.clear();
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
            + self.ctx_prev.capacity()
            + self.ctx_next.capacity()
            + self.ctx_head.capacity()
            + self.ctx_of.capacity()
            + self.ctx_area.capacity()
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
    ctx: &'e CtxMirror,
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
            for &h in &self.ctx.head {
                if h != NONE {
                    for &t in &self.ctx.slots[h as usize].initials {
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
            for &t in &self.ctx.slots[b as usize].initials {
                f(t);
            }
        }
    }

    /// Closed-form in-degree: static data edges from the CSR extents,
    /// plus one software-chain edge if `prev_sw` is set, plus the
    /// bundle contribution (one virtual-source edge for a device's
    /// first context, otherwise one edge per terminal of the previous
    /// context). The default enumeration-based count would walk every
    /// in-edge; this makes the full pass's Kahn seeding O(n) instead of
    /// O(n + m).
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
            let p = self.ctx.meta[b as usize].prev;
            if p == NONE {
                d += 1;
            } else {
                d += self.ctx.slots[p as usize].terminals.len() as u32;
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
            let w = self.ctx.slots[b as usize].reconfig;
            let p = self.ctx.meta[b as usize].prev;
            if p == NONE {
                f(self.n as u32, w);
            } else {
                #[cfg(rdse_fault = "ctx_edge_no_reconfig")]
                let w = 0.0;
                for &t in &self.ctx.slots[p as usize].terminals {
                    f(t, w);
                }
            }
        }
    }

    /// [`for_each_in`](Self::for_each_in)'s candidates, with the bundle
    /// relaxed as a star: the previous context's largest terminal label
    /// (cached per pass) plus the bundle's one reconfiguration weight.
    #[inline]
    fn max_in(&self, v: u32, labels: &[f64]) -> f64 {
        if v as usize == self.n {
            return 0.0;
        }
        let mut best = self.dag.max_in(v, labels);
        let pv = self.prev_sw[v as usize];
        if pv != NONE && labels[pv as usize] > best {
            best = labels[pv as usize];
        }
        let b = self.in_bundle[v as usize];
        if b != NONE {
            let w = self.ctx.slots[b as usize].reconfig;
            let p = self.ctx.meta[b as usize].prev;
            let cand = if p == NONE {
                labels[self.n] + w
            } else {
                #[cfg(rdse_fault = "ctx_edge_no_reconfig")]
                let w = 0.0;
                self.ctx.terminal_max(p, labels) + w
            };
            if cand > best {
                best = cand;
            }
        }
        best
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
    /// Virtual *Ehw* markers, naming context slots: `in_bundle[t]` is
    /// the slot of the context `t` is an initial of; `out_bundle[t]`,
    /// for a terminal `t`, the slot of the next context on its device
    /// (the marker names the *target* context; [`NONE`] if `t`'s
    /// context is the device's last).
    in_bundle: Vec<u32>,
    out_bundle: Vec<u32>,
    /// Placement kind per task ([`K_SW`]/[`K_HW`]/[`K_ASIC`]).
    kind: Vec<u8>,
    /// Home DRLC per task ([`NONE`] unless hardware-placed).
    drlc_of: Vec<u32>,
    /// Number of hardware-placed tasks.
    hw_count: u32,
    /// Per-device context mirrors.
    ctx: CtxMirror,
    /// Generation-stamped context membership (avoids clearing); a sync
    /// pass also stamps the recomputed contexts' initials in it. The
    /// generation stamps every sync pass too.
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
    /// Scratch for batch diffs: tasks / processors that differ between
    /// the base and the candidate.
    diff_tasks: Vec<u32>,
    diff_procs: Vec<u32>,
    stats: EvaluatorStats,
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
            ctx: CtxMirror::new(n, arch.drlcs().len()),
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
            stats: EvaluatorStats::default(),
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
        self.commit_log();
        self.lp.discard_journal();
        let capacity_before = self.arena_capacity();
        self.ctx.grew = false;

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

        // Context mirror and bundle markers (Ehw): the same sync pass
        // as a delta, with every task dirty and no context to keep.
        self.in_bundle.fill(NONE);
        self.out_bundle.fill(NONE);
        self.ctx.reset(mapping.n_contexts());
        self.sync_contexts(mapping);
        self.commit_log();

        // Capacity check before the longest path: a context overflow
        // is infeasible regardless of ordering (same priority as
        // `evaluate`).
        let totals = match self.context_totals() {
            Ok(t) => t,
            Err(e) => {
                self.note_growth(capacity_before);
                return Err(e);
            }
        };

        // Full longest-path pass over the overlay.
        self.ctx.begin_pass();
        let full = {
            let overlay = Overlay {
                dag: &self.dag,
                prev_sw: &self.prev_sw,
                next_sw: &self.next_sw,
                in_bundle: &self.in_bundle,
                out_bundle: &self.out_bundle,
                ctx: &self.ctx,
                n: self.n,
            };
            self.lp.full(&overlay)
        };
        self.lp.discard_journal();
        self.note_growth(capacity_before);
        if full.is_err() {
            return Err(MappingError::CyclicSchedule);
        }
        self.synced = true;
        Ok(self.summarize(&totals))
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
        self.begin_delta();
        let capacity_before = self.arena_capacity();

        if let Some(s) = self.resized_slot(mapping, moved) {
            // An implementation change inside an unchanged context.
            self.update_task(mapping, moved);
            self.resize_context(mapping, s);
        } else if self.closes_direct_cycle(mapping, moved) {
            // Nothing was written: nothing to roll back.
            self.stats.direct_cycles += 1;
            self.delta_active = false;
            return Err(MappingError::CyclicSchedule);
        } else {
            let ti = moved.index();
            // 1. Unsplice from the old processor chain (O(1)).
            if self.kind[ti] == K_SW {
                self.unsplice_sw(moved.0);
            }
            // 2. Task-local updates: node weight, incident data-edge
            //    weights, kind, home device, hardware census.
            self.update_task(mapping, moved);
            // 3. Splice into the new processor chain.
            if self.kind[ti] == K_SW {
                self.splice_sw(mapping, moved);
            }
            // 4. Re-derive the contexts the task left or joined.
            self.ctx.dirty.clear();
            self.ctx.dirty.push(moved.0);
            self.sync_contexts(mapping);
        }

        let result = self.finish_delta();
        self.note_growth(capacity_before);
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
            self.begin_delta();
            let capacity_before = self.arena_capacity();
            self.apply_diff(base, cand);
            let r = self.finish_delta();
            self.note_growth(capacity_before);
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

    /// Opens a delta: commits the previous one and starts a fresh undo
    /// log and seed set.
    fn begin_delta(&mut self) {
        self.stats.evaluations += 1;
        self.commit_log();
        self.seeds.clear();
        self.struct_seeds.clear();
        self.lp.discard_journal();
        self.log.hw_count = self.hw_count;
        self.delta_active = true;
        self.ctx.grew = false;
    }

    /// Accepts the outstanding undo log (the delta it records can no
    /// longer be reverted).
    fn commit_log(&mut self) {
        self.log.clear();
        self.ctx.commit();
    }

    /// Records an arena growth against the current evaluation if a
    /// context buffer grew or the other arenas' total capacity moved
    /// from `capacity_before`.
    fn note_growth(&mut self, capacity_before: usize) {
        if self.ctx.grew || self.arena_capacity() != capacity_before {
            self.stats.arena_growths += 1;
            self.stats.last_growth_eval = self.stats.evaluations;
        }
    }

    /// The slot of `moved`'s context when the move only re-implemented
    /// `moved` in place: hardware-placed before and after, in the same
    /// slot, whose member list equals its new context's and whose
    /// neighbours in the device's context order are unchanged. Every
    /// other context, marker and chain then stays as it is.
    fn resized_slot(&self, mapping: &Mapping, moved: TaskId) -> Option<u32> {
        let ti = moved.index();
        let Placement::Hardware {
            drlc: d,
            context: k,
            ..
        } = mapping.placement(moved)
        else {
            return None;
        };
        if self.kind[ti] != K_HW || self.drlc_of[ti] != d as u32 {
            return None;
        }
        let s = self.ctx.of[ti];
        let contexts = mapping.contexts(d);
        let tasks = contexts[k].tasks();
        let old = &self.ctx.slots[s as usize].tasks;
        if old.len() != tasks.len() || old.iter().zip(tasks).any(|(&a, b)| a != b.0) {
            return None;
        }
        let prev = match k {
            0 => NONE,
            _ => self.ctx.slot_at(mapping, d, k - 1),
        };
        let next = match k + 1 < contexts.len() {
            true => self.ctx.slot_at(mapping, d, k + 1),
            false => NONE,
        };
        let m = self.ctx.meta[s as usize];
        (m.prev == prev && m.next == next).then_some(s)
    }

    /// Updates slot `s`'s area and reconfiguration weight to its
    /// context's in `mapping`, logged. Its members, initials, terminals
    /// and links stay, so no edge is added or removed: only the
    /// initials' in-edge weights change, and only with the
    /// reconfiguration bits.
    fn resize_context(&mut self, mapping: &Mapping, s: u32) {
        let st = &mut self.ctx.slots[s as usize];
        let d = st.dev as usize;
        let mut used = Clbs::ZERO;
        for &t in &st.tasks {
            used += mapping.task_clbs(self.app, TaskId(t));
        }
        let reconfig = self.arch.drlcs()[d].reconfiguration_time(used).value();
        #[cfg(rdse_fault = "resize_stale_area")]
        let (used, reconfig) = (Clbs::new(st.clbs), st.reconfig);
        if st.clbs != used.value() || st.reconfig.to_bits() != reconfig.to_bits() {
            self.log.ctx_area.push((s, st.clbs, st.reconfig));
        }
        if st.reconfig.to_bits() != reconfig.to_bits()
            && !cfg!(rdse_fault = "resize_skips_initials_seed")
        {
            self.seeds.extend_from_slice(&st.initials);
        }
        (st.clbs, st.reconfig) = (used.value(), reconfig);
        self.stats.contexts_resized += 1;
        self.stats.contexts_untouched += mapping.contexts(d).len() as u64 - 1;
    }

    /// `true` when `moved` now sits after one of its data successors, or
    /// before one of its data predecessors, in one total order: its
    /// processor's order, or its device's context order (every task of
    /// context k precedes every task of context k + 1). Such a move
    /// closes a cycle whatever else it changed. Reads only `mapping` and
    /// the CSR adjacency: O(degree) for a context, O(degree + order
    /// length) for a processor.
    ///
    /// A destination context over its device's capacity reports no
    /// cycle, so the general path reports the overflow: capacity comes
    /// before cycles. The move touches no other context's capacity but
    /// to shrink it, so the synchronized (feasible) state has none over.
    fn closes_direct_cycle(&mut self, mapping: &Mapping, moved: TaskId) -> bool {
        let t = moved.0;
        match mapping.placement(moved) {
            Placement::Software { processor } => {
                // Stamp the tasks ahead of `moved` in its order.
                self.generation += 1;
                let g = self.generation;
                for &u in mapping.proc_order(processor) {
                    if u == moved {
                        break;
                    }
                    self.membership[u.index()] = g;
                }
                let here = Placement::Software { processor };
                let ahead = &self.membership;
                self.dag
                    .in_edges(t)
                    .any(|(u, _)| ahead[u as usize] != g && mapping.placement(TaskId(u)) == here)
                    || self.dag.out_edges(t).any(|(v, _)| ahead[v as usize] == g)
            }
            Placement::Hardware { drlc, context, .. } => {
                let mut used = Clbs::ZERO;
                for &u in mapping.contexts(drlc)[context].tasks() {
                    used += mapping.task_clbs(self.app, u);
                }
                if used > self.arch.drlcs()[drlc].n_clbs() {
                    return false;
                }
                let context_of = |u: u32| match mapping.placement(TaskId(u)) {
                    Placement::Hardware {
                        drlc: d, context, ..
                    } if d == drlc => Some(context),
                    _ => None,
                };
                let later = |k: usize| {
                    k > context || (cfg!(rdse_fault = "direct_cycle_same_context") && k == context)
                };
                self.dag
                    .in_edges(t)
                    .any(|(u, _)| context_of(u).is_some_and(later))
                    || self
                        .dag
                        .out_edges(t)
                        .any(|(v, _)| context_of(v).is_some_and(|k| k < context))
            }
            Placement::Asic { .. } => false,
        }
    }

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

    /// Re-derives the context mirror for the tasks in `ctx.dirty` (the
    /// tasks whose placement changed since the last sync), logged and
    /// seeded, when a delta is open.
    ///
    /// Only the contexts a dirty task left or joined are recomputed
    /// (member list, area, reconfiguration weight, initials, terminals)
    /// and re-marked; a context keeping a clean task keeps its slot.
    /// Every other context keeps its mirror: its neighbours get at most
    /// plain link and marker writes (a terminal's marker names the next
    /// context's slot) and, where their in-edges changed, a seed on
    /// their initials. The seeds are exactly the initials (old and new)
    /// of the contexts whose in-bundle changed.
    ///
    /// A full synchronization is the same pass with every task dirty:
    /// after [`CtxMirror::reset`] no context is kept, so the pass
    /// recomputes them all, journaling and seeding nothing (`ctx.dirty`
    /// is ignored).
    fn sync_contexts(&mut self, mapping: &Mapping) {
        let app = self.app;
        let specs = self.arch.drlcs();
        let Self {
            dag,
            in_bundle,
            out_bundle,
            membership,
            generation,
            seeds,
            struct_seeds,
            log,
            ctx,
            stats,
            delta_active,
            ..
        } = self;
        // A full synchronization never rolls back: it journals nothing
        // and seeds nothing (its longest-path pass relabels everything).
        let journal = *delta_active;
        *generation += 1;
        let g = *generation;
        ctx.left.clear();
        ctx.fresh.clear();
        if journal {
            for &t in &ctx.dirty {
                ctx.dirty_mark[t as usize] = g;
            }
            // Old slots a dirty task left, and the contexts it joined.
            for i in 0..ctx.dirty.len() {
                let t = ctx.dirty[i];
                let s = ctx.of[t as usize];
                if s != NONE && ctx.meta[s as usize].left_mark != g {
                    ctx.meta[s as usize].left_mark = g;
                    ctx.left.push(s);
                }
                if let Placement::Hardware { drlc, context, .. } = mapping.placement(TaskId(t)) {
                    queue_ctx(ctx, mapping, g, drlc, context);
                }
            }
            // A left slot is recomputed where its clean tasks now sit,
            // or released if it has none.
            for i in 0..ctx.left.len() {
                let s = ctx.left[i];
                let keeper = ctx.slots[s as usize]
                    .tasks
                    .iter()
                    .find(|&&u| ctx.dirty_mark[u as usize] != g);
                match keeper.map(|&u| mapping.placement(TaskId(u))) {
                    Some(Placement::Hardware { drlc, context, .. }) => {
                        queue_ctx(ctx, mapping, g, drlc, context);
                    }
                    Some(_) => unreachable!("a clean task keeps its hardware placement"),
                    None => {
                        // Stamped as if queued: a released slot is
                        // never relinked.
                        ctx.meta[s as usize].link = g;
                        ctx.dev_mark[ctx.slots[s as usize].dev as usize] = g;
                        ctx.released.push(s);
                    }
                }
            }
        } else {
            // Every task is dirty and the mirror is empty: every
            // context is new.
            for d in 0..specs.len() {
                for k in 0..mapping.contexts(d).len() {
                    ctx.fresh.push(Recompute::at(d, k));
                }
            }
        }
        // Recompute every queued context into its kept (or a new) slot.
        for i in 0..ctx.fresh.len() {
            let Recompute { dev: d, k, .. } = ctx.fresh[i];
            let tasks = mapping.contexts(d as usize)[k as usize].tasks();
            let mut kept = match journal {
                true => tasks.iter().find(|u| ctx.dirty_mark[u.index()] != g),
                false => None,
            }
            .map(|u| ctx.of[u.index()]);
            if kept.is_none() && journal {
                // Dirty tasks only: a released slot that held exactly
                // these tasks (a singleton re-implemented, or removed and
                // spawned again) takes them back and is relinked.
                let same = |r: &u32| {
                    let old = &ctx.slots[*r as usize].tasks;
                    old.len() == tasks.len() && old.iter().zip(tasks).all(|(&a, b)| a == b.0)
                };
                if let Some(j) = ctx.released.iter().position(same) {
                    let r = ctx.released.swap_remove(j);
                    ctx.meta[r as usize].link = 0;
                    ctx.fresh[i].revived = true;
                    kept = Some(r);
                }
            }
            let s = match kept {
                Some(s) => {
                    ctx.save(s);
                    ctx.fresh[i].saved = (ctx.saved.len() - 1) as u32;
                    s
                }
                None => ctx.alloc(),
            };
            ctx.dev_mark[d as usize] = g;
            ctx.fresh[i].slot = s;
            let st = &mut ctx.slots[s as usize];
            let capacity_before = st.capacity();
            *generation += 1;
            let gm = *generation;
            let mut used = Clbs::ZERO;
            for &t in tasks {
                membership[t.index()] = gm;
                used += mapping.task_clbs(app, t);
            }
            st.dev = d;
            st.clbs = used.value();
            st.reconfig = specs[d as usize].reconfiguration_time(used).value();
            #[cfg(rdse_fault = "ctx_stale_area")]
            if kept.is_some() {
                let old = &ctx.saved.last().expect("kept slot was saved").1;
                st.clbs = old.clbs;
                st.reconfig = old.reconfig;
            }
            st.tasks.clear();
            st.tasks.extend(tasks.iter().map(|t| t.0));
            st.initials.clear();
            st.initials.reserve(tasks.len());
            st.terminals.clear();
            st.terminals.reserve(tasks.len());
            for &t in tasks {
                if dag.in_edges(t.0).all(|(u, _)| membership[u as usize] != gm) {
                    st.initials.push(t.0);
                }
                if dag
                    .out_edges(t.0)
                    .all(|(v, _)| membership[v as usize] != gm)
                {
                    st.terminals.push(t.0);
                }
            }
            ctx.grew |= st.capacity() != capacity_before;
            if kept.is_some() {
                let old = &ctx.saved.last().expect("kept slot was saved").1;
                let e = &mut ctx.fresh[i];
                e.inits = old.initials != st.initials;
                e.terms = old.terminals != st.terminals;
                e.heads = e.inits || old.reconfig.to_bits() != st.reconfig.to_bits();
            }
            for &t in tasks {
                if kept.is_none() || ctx.dirty_mark[t.index()] == g {
                    set_u32(journal, &mut log.ctx_of, &mut ctx.of, t.0, s);
                }
            }
        }
        if journal {
            for &t in &ctx.dirty {
                if !matches!(mapping.placement(TaskId(t)), Placement::Hardware { .. }) {
                    log_set_u32(&mut log.ctx_of, &mut ctx.of, t, NONE);
                }
            }
            // Stamp the new owners of changed marker lists (`membership`
            // for initials, `first_mark` for terminals), then clear the
            // replaced and released lists' markers that no recomputed
            // context takes over. A replaced or released initial had its
            // in-edges changed: seed those no recomputed context seeds
            // as its own.
            *generation += 1;
            let go = *generation;
            for e in &ctx.fresh {
                let st = &ctx.slots[e.slot as usize];
                if e.inits {
                    for &t in &st.initials {
                        membership[t as usize] = go;
                    }
                }
                if e.terms {
                    for &t in &st.terminals {
                        ctx.first_mark[t as usize] = go;
                    }
                }
            }
            let replaced = ctx
                .fresh
                .iter()
                .filter(|e| e.saved != NONE)
                .map(|e| (e.inits, e.terms, &ctx.saved[e.saved as usize].1));
            let released = ctx
                .released
                .iter()
                .map(|&s| (true, true, &ctx.slots[s as usize]));
            for (inits, terms, old) in replaced.chain(released) {
                if inits {
                    for &t in &old.initials {
                        if membership[t as usize] != go {
                            log_set_u32(&mut log.in_bundle, in_bundle, t, NONE);
                            seeds.push(t);
                            struct_seeds.push(t);
                        }
                    }
                }
                if terms {
                    for &t in &old.terminals {
                        if ctx.first_mark[t as usize] != go {
                            log_set_u32(&mut log.out_bundle, out_bundle, t, NONE);
                        }
                    }
                }
            }
        }
        if journal {
            // Relink around every inserted, revived and released
            // context: a new or revived slot and its neighbours, the old
            // neighbours of a revived slot, and the surviving neighbours
            // of a released one. Contexts kept in place keep their
            // links.
            ctx.links.clear();
            for i in 0..ctx.fresh.len() {
                let e = ctx.fresh[i];
                if e.saved != NONE && !e.revived {
                    continue;
                }
                let (d, k) = (e.dev as usize, e.k as usize);
                if e.revived {
                    let m = ctx.meta[e.slot as usize];
                    for nb in [m.prev, m.next] {
                        if nb != NONE {
                            queue_link(ctx, g, nb);
                        }
                    }
                }
                if k > 0 {
                    let p = ctx.slot_at(mapping, d, k - 1);
                    queue_link(ctx, g, p);
                }
                queue_link(ctx, g, e.slot);
                if k + 1 < mapping.contexts(d).len() {
                    let x = ctx.slot_at(mapping, d, k + 1);
                    queue_link(ctx, g, x);
                }
            }
            for i in 0..ctx.released.len() {
                let r = ctx.released[i] as usize;
                let m = ctx.meta[r];
                for nb in [m.prev, m.next] {
                    if nb != NONE {
                        queue_link(ctx, g, nb);
                    }
                }
            }
            for i in 0..ctx.links.len() {
                let s = ctx.links[i];
                let st = &ctx.slots[s as usize];
                let d = st.dev as usize;
                let Placement::Hardware { context: k, .. } = mapping.placement(TaskId(st.tasks[0]))
                else {
                    unreachable!("a live context holds hardware tasks")
                };
                let p = if k > 0 {
                    ctx.slot_at(mapping, d, k - 1)
                } else {
                    NONE
                };
                let x = if k + 1 < mapping.contexts(d).len() {
                    ctx.slot_at(mapping, d, k + 1)
                } else {
                    NONE
                };
                let m = &mut ctx.meta[s as usize];
                let (old_prev, old_next) = (m.prev, m.next);
                (m.prev, m.next) = (p, x);
                let prev_changed = old_prev != p;
                let next_changed = old_next != x;
                if prev_changed {
                    log.ctx_prev.push((s, old_prev));
                }
                if next_changed {
                    log.ctx_next.push((s, old_next));
                }
                if k == 0 {
                    log_set_u32(&mut log.ctx_head, &mut ctx.head, d as u32, s);
                }
                // The terminals follow the next context's slot: plain
                // marker writes.
                let tail = x == NONE || old_next == NONE;
                if next_changed && !(cfg!(rdse_fault = "ctx_tail_marker") && tail) {
                    for &t in &st.terminals {
                        log_set_u32(&mut log.out_bundle, out_bundle, t, x);
                    }
                }
                // Another context now precedes this one: its initials'
                // in-edges changed.
                if prev_changed {
                    seeds.extend_from_slice(&st.initials);
                    struct_seeds.extend_from_slice(&st.initials);
                }
            }
        } else {
            // A full pass queued every context in order: chain each
            // device's run.
            for i in 0..ctx.fresh.len() {
                let e = ctx.fresh[i];
                let neighbour = |j: usize| match ctx.fresh.get(j) {
                    Some(n) if n.dev == e.dev => n.slot,
                    _ => NONE,
                };
                let p = if i > 0 { neighbour(i - 1) } else { NONE };
                let x = neighbour(i + 1);
                let m = &mut ctx.meta[e.slot as usize];
                (m.prev, m.next) = (p, x);
                if p == NONE {
                    ctx.head[e.dev as usize] = e.slot;
                }
            }
        }
        // Mark the recomputed contexts' changed lists, and seed the
        // initials whose in-edges changed with them: a context's own
        // when its in-bundle changed, the next context's when its
        // terminals did.
        for e in &ctx.fresh {
            let s = e.slot;
            let st = &ctx.slots[s as usize];
            let x = ctx.meta[s as usize].next;
            if e.inits {
                for &t in &st.initials {
                    set_u32(journal, &mut log.in_bundle, in_bundle, t, s);
                }
            }
            if e.terms {
                for &t in &st.terminals {
                    set_u32(journal, &mut log.out_bundle, out_bundle, t, x);
                }
            }
            if journal && e.heads {
                seeds.extend_from_slice(&st.initials);
                struct_seeds.extend_from_slice(&st.initials);
            }
            if journal && e.terms && x != NONE {
                let next = &ctx.slots[x as usize];
                seeds.extend_from_slice(&next.initials);
                struct_seeds.extend_from_slice(&next.initials);
            }
        }
        if journal {
            // A device whose last context went has no head; the
            // contexts of the devices this pass touched feed the
            // kept-context count.
            let mut on_touched = 0u64;
            for d in 0..specs.len() {
                let len = mapping.contexts(d).len();
                if len == 0 {
                    log_set_u32(&mut log.ctx_head, &mut ctx.head, d as u32, NONE);
                }
                if ctx.dev_mark[d] == g {
                    on_touched += len as u64;
                }
            }
            let recomputed = ctx.fresh.len() as u64;
            stats.contexts_recomputed += recomputed;
            stats.contexts_untouched += on_touched - recomputed;
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
        for t in app.task_ids() {
            if base.placement(t) != cand.placement(t) {
                self.diff_tasks.push(t.0);
            }
        }
        for p in 0..arch.processors().len() {
            if base.proc_order(p) != cand.proc_order(p) {
                self.diff_procs.push(p as u32);
            }
        }

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
        // Re-derive the contexts the differing tasks left or joined
        // (a task whose context index merely shifted counts as dirty).
        self.ctx.dirty.clear();
        self.ctx.dirty.extend_from_slice(&self.diff_tasks);
        self.sync_contexts(cand);
    }

    /// Shared tail of every delta: capacity check from the mirrors (in
    /// `(device, context)` order, same error priority as the
    /// reference), order and label repair, summary. Reverts the delta
    /// on error.
    fn finish_delta(&mut self) -> Result<EvalSummary, MappingError> {
        let totals = match self.context_totals() {
            Ok(t) => t,
            Err(e) => {
                self.rollback_delta_state();
                self.delta_active = false;
                return Err(e);
            }
        };
        if !cfg!(rdse_fault = "bundle_max_stale_stamp") {
            self.ctx.begin_pass();
        }
        let repaired = {
            let overlay = Overlay {
                dag: &self.dag,
                prev_sw: &self.prev_sw,
                next_sw: &self.next_sw,
                in_bundle: &self.in_bundle,
                out_bundle: &self.out_bundle,
                ctx: &self.ctx,
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
        Ok(self.summarize(&totals))
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
            ctx,
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
        for &(i, v) in log.ctx_prev.iter().rev() {
            ctx.meta[i as usize].prev = v;
        }
        for &(i, v) in log.ctx_next.iter().rev() {
            ctx.meta[i as usize].next = v;
        }
        for &(i, v) in log.ctx_head.iter().rev() {
            ctx.head[i as usize] = v;
        }
        for &(i, v) in log.ctx_of.iter().rev() {
            ctx.of[i as usize] = v;
        }
        for &(s, clbs, reconfig) in log.ctx_area.iter().rev() {
            let st = &mut ctx.slots[s as usize];
            (st.clbs, st.reconfig) = (clbs, reconfig);
        }
        ctx.rollback();
        self.hw_count = self.log.hw_count;
        self.log.clear();
    }

    /// Walks the context mirror in `(device, context)` order: the
    /// first context over its device's capacity is the reference's
    /// [`MappingError::CapacityExceeded`]; otherwise the peak
    /// occupancy, the context count and the reconfiguration sums (added
    /// in the reference's order, so the `f64` sums are bit-identical).
    fn context_totals(&self) -> Result<CtxTotals, MappingError> {
        let mut totals = CtxTotals {
            clb_area: Clbs::new(0),
            n_contexts: 0,
            initial_reconfig: Micros::ZERO,
            dynamic_reconfig: Micros::ZERO,
        };
        for (d, spec) in self.arch.drlcs().iter().enumerate() {
            let cap = spec.n_clbs();
            // `used > cap - 1` is `used >= cap`: a full context overflows.
            #[cfg(rdse_fault = "ctx_capacity_off_by_one")]
            let cap = Clbs::new(cap.value().saturating_sub(1));
            let mut s = self.ctx.head[d];
            let mut k = 0usize;
            while s != NONE {
                let st = &self.ctx.slots[s as usize];
                let used = Clbs::new(st.clbs);
                if used > cap {
                    return Err(MappingError::CapacityExceeded {
                        drlc: d,
                        context: k,
                    });
                }
                totals.clb_area = totals.clb_area.max(used);
                let r = Micros::new(st.reconfig);
                if k == 0 {
                    totals.initial_reconfig += r;
                } else {
                    totals.dynamic_reconfig += r;
                }
                k += 1;
                s = self.ctx.meta[s as usize].next;
            }
            totals.n_contexts += k;
        }
        Ok(totals)
    }

    /// Assembles the summary from the context totals and the live
    /// labels. Value-identical to the reference: the makespan is the
    /// label max (order-free).
    fn summarize(&self, totals: &CtxTotals) -> EvalSummary {
        let makespan = self.lp.makespan();
        let initial_reconfig = totals.initial_reconfig;
        let dynamic_reconfig = totals.dynamic_reconfig;
        let comp_comm =
            Micros::new((makespan - initial_reconfig.value() - dynamic_reconfig.value()).max(0.0));
        EvalSummary {
            makespan: Micros::new(makespan),
            n_contexts: totals.n_contexts,
            n_hw_tasks: self.hw_count as usize,
            clb_area: totals.clb_area,
            breakdown: EvalBreakdown {
                initial_reconfig,
                dynamic_reconfig,
                computation_communication: comp_comm,
            },
        }
    }

    /// Total capacity across the growable arenas, compared before and
    /// after an evaluation to detect allocator traffic. O(1): context
    /// buffers report their own growth through `CtxMirror::grew`.
    fn arena_capacity(&self) -> usize {
        self.seeds.capacity()
            + self.struct_seeds.capacity()
            + self.eid_scratch.capacity()
            + self.batch_out.capacity()
            + self.diff_tasks.capacity()
            + self.diff_procs.capacity()
            + self.lp.scratch_capacity()
            + self.log.capacity()
            + self.ctx.capacity()
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
    fn a_context_filled_exactly_to_capacity_is_feasible() {
        // a (100 CLBs) and b (150) share one context of a device with
        // `cap` CLBs: feasible at 250, one CLB short at 249.
        let (app, _) = fixture();
        for (cap, feasible) in [(250, true), (249, false)] {
            let arch = Architecture::builder("soc")
                .processor("cpu", 1.0)
                .drlc("fpga", Clbs::new(cap), us(0.1), 1.0)
                .bus_rate(100.0)
                .build()
                .unwrap();
            let base = Mapping::all_software(&app, &arch, topo(&app));
            let mut half = base.clone();
            half.detach(TaskId(0));
            half.insert_new_context(TaskId(0), 0, 0, 0);
            let mut full = half.clone();
            full.detach(TaskId(1));
            full.insert_hardware(TaskId(1), 0, 0, 0);

            let reference = evaluate(&app, &arch, &full).map(|e| e.summary());
            match &reference {
                Ok(summary) => {
                    assert!(feasible, "cap {cap}: {summary:?}");
                    assert_eq!(summary.clb_area, Clbs::new(250));
                }
                Err(e) => {
                    assert!(!feasible, "cap {cap}: {e}");
                    let overflow = MappingError::CapacityExceeded {
                        drlc: 0,
                        context: 0,
                    };
                    assert_eq!(e, &overflow);
                }
            }
            // From scratch.
            let mut evaluator = Evaluator::new(&app, &arch);
            assert_eq!(evaluator.evaluate(&full), reference, "cap {cap}: full");
            // Incrementally, one move at a time from all-software.
            let mut evaluator = Evaluator::new(&app, &arch);
            evaluator.evaluate(&base).unwrap();
            evaluator.evaluate_delta(&half, TaskId(0)).unwrap();
            assert_eq!(
                evaluator.evaluate_delta(&full, TaskId(1)),
                reference,
                "cap {cap}: delta"
            );
            // As a batch candidate two moves from the base.
            let mut evaluator = Evaluator::new(&app, &arch);
            let batch = evaluator.evaluate_batch(&base, &[full]).unwrap();
            assert_eq!(batch, [reference], "cap {cap}: batch");
        }
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

    /// Window re-sorts seen by one [`delta_walk`], and the cycles
    /// rejected before any re-sort.
    #[derive(Debug)]
    struct Resorts {
        acyclic: u64,
        cyclic: u64,
        direct: u64,
    }

    /// Drives the delta path with the real move proposals and checks
    /// every answer (and every revert) against the from-scratch
    /// reference, bit for bit.
    fn delta_walk(app: &TaskGraph, arch: &Architecture, seed: u64, steps: usize) -> Resorts {
        let mut rng = StdRng::seed_from_u64(seed);
        let mapping = random_initial(app, arch, &mut rng);
        delta_walk_from(app, arch, mapping, rng, steps)
    }

    /// [`delta_walk`] from a given start mapping.
    fn delta_walk_from(
        app: &TaskGraph,
        arch: &Architecture,
        mut mapping: Mapping,
        mut rng: StdRng,
        steps: usize,
    ) -> Resorts {
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
        // A direct cycle is rejected without a re-sort.
        let direct = after.direct_cycles - before.direct_cycles;
        let cyclic = cyclic - direct;
        // The mirrors must still be exact: one more fresh comparison.
        let summary = evaluator.evaluate(&mapping).unwrap();
        assert_eq!(summary, evaluate(app, arch, &mapping).unwrap().summary());
        Resorts {
            acyclic: resorts - cyclic,
            cyclic,
            direct,
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
        assert!(resorts.direct > 0, "{resorts:?}");
    }

    #[test]
    fn wide_bundles_relax_like_the_reference() {
        // Contexts of 4, 3 and 2 tasks with no data edge inside any of
        // them: every member is an initial and a terminal, so the
        // bundles are full 4×3 and 3×2 bicliques. Context 0's terminals
        // a1 and a3 tie for the largest label; a0 and a2 differ.
        let mut app = TaskGraph::new("wide");
        let hw = |t: f64| {
            vec![
                HwImpl::new(Clbs::new(100), us(t)),
                HwImpl::new(Clbs::new(50), us(2.0 * t)),
            ]
        };
        let src = app.add_task("s", "S", us(1.0), vec![]).unwrap();
        let mut add = |name: &str, t: f64| app.add_task(name, "F", us(40.0), hw(t)).unwrap();
        let a: Vec<TaskId> = [3.0, 7.0, 5.0, 7.0]
            .iter()
            .enumerate()
            .map(|(i, &t)| add(&format!("a{i}"), t))
            .collect();
        let b: Vec<TaskId> = [4.0, 6.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, &t)| add(&format!("b{i}"), t))
            .collect();
        let c: Vec<TaskId> = [2.0, 9.0]
            .iter()
            .enumerate()
            .map(|(i, &t)| add(&format!("c{i}"), t))
            .collect();
        let sink = app.add_task("z", "S", us(1.0), vec![]).unwrap();
        for (from, to) in [
            (src, a[0]),
            (a[2], b[1]),
            (b[0], c[0]),
            (c[0], sink),
            (c[1], sink),
        ] {
            app.add_data_edge(from, to, Bytes::new(500)).unwrap();
        }
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(2000), us(0.1), 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        // Implementation 1 is the fast one (the front sorts by area).
        let mut base = Mapping::all_software(&app, &arch, topo(&app));
        for (k, group) in [&a, &b, &c].into_iter().enumerate() {
            for (i, &t) in group.iter().enumerate() {
                base.detach(t);
                match i {
                    0 => base.insert_new_context(t, 0, k, 1),
                    _ => base.insert_hardware(t, 0, k, 1),
                }
            }
        }
        let reference = |m: &Mapping| evaluate(&app, &arch, m).map(|e| e.summary());
        let bits = |r: &Result<EvalSummary, MappingError>| {
            r.as_ref().map(|s| s.makespan.value().to_bits()).ok()
        };
        let mut evaluator = Evaluator::new(&app, &arch);
        let full = evaluator.evaluate(&base);
        assert_eq!(full, reference(&base));
        assert_eq!(bits(&full), bits(&reference(&base)));
        let label = |t: TaskId| evaluator.lp.label(t.0);
        assert_eq!(label(a[1]), label(a[3]));
        assert!(label(a[1]) > label(a[2]) && label(a[2]) > label(a[0]));

        // Re-implementations (the in-place path), relocations within
        // and across contexts, a new context and a move to software.
        let mut candidates = Vec::new();
        for &t in a.iter().chain(&b).chain(&c) {
            let mut m = base.clone();
            m.select_impl(t, 0);
            candidates.push(m);
        }
        let moves: [(TaskId, Option<(usize, bool)>); 5] = [
            (a[3], Some((1, false))),
            (b[0], Some((0, false))),
            (c[1], Some((3, true))),
            (a[1], None),
            (b[2], Some((2, false))),
        ];
        for (t, to) in moves {
            let mut m = base.clone();
            m.detach(t);
            match to {
                Some((k, false)) => m.insert_hardware(t, 0, k, 1),
                Some((k, true)) => m.insert_new_context(t, 0, k, 1),
                None => m.insert_software(t, 0, 1),
            }
            candidates.push(m);
        }
        for (i, cand) in candidates.iter().enumerate() {
            let moved = app
                .task_ids()
                .find(|&t| cand.placement(t) != base.placement(t))
                .expect("each candidate moves one task");
            let want = reference(cand);
            let got = evaluator.evaluate_delta(cand, moved);
            assert_eq!(got, want, "candidate {i}");
            assert_eq!(bits(&got), bits(&want), "candidate {i}");
            if got.is_ok() {
                evaluator.revert_delta();
            }
        }
        let batch = evaluator
            .evaluate_batch(&base, &candidates)
            .unwrap()
            .to_vec();
        for (i, (got, cand)) in batch.iter().zip(&candidates).enumerate() {
            let want = reference(cand);
            assert_eq!(got, &want, "batch candidate {i}");
            assert_eq!(bits(got), bits(&want), "batch candidate {i}");
        }
        // A random walk from the wide start.
        delta_walk_from(&app, &arch, base, StdRng::seed_from_u64(13), 300);
    }

    /// One context as a mirror holds it: member tasks, initials,
    /// terminals, CLBs and reconfiguration-weight bits.
    type CtxView = (Vec<u32>, Vec<u32>, Vec<u32>, u32, u64);

    /// Where a task's `in_bundle`, `out_bundle` and context-slot
    /// entries point, as `(device, context)` positions.
    type TaskView = [Option<(usize, usize)>; 3];

    /// The evaluator's context mirror in positional form, so two
    /// evaluators compare regardless of which slot ids they use: every
    /// device's contexts in order, and per task the positions its
    /// markers and its slot name. Panics on a broken link or a marker
    /// naming a slot that holds no live context.
    fn mirror_view(e: &Evaluator) -> (Vec<Vec<CtxView>>, Vec<TaskView>) {
        let mut pos = std::collections::HashMap::new();
        let mut devices = Vec::new();
        for d in 0..e.ctx.head.len() {
            let mut ctxs = Vec::new();
            let (mut s, mut prev) = (e.ctx.head[d], NONE);
            while s != NONE {
                assert_eq!(
                    e.ctx.meta[s as usize].prev, prev,
                    "broken back link at slot {s}"
                );
                let st = &e.ctx.slots[s as usize];
                assert_eq!(st.dev as usize, d, "slot {s} on the wrong device");
                pos.insert(s, (d, ctxs.len()));
                ctxs.push((
                    st.tasks.clone(),
                    st.initials.clone(),
                    st.terminals.clone(),
                    st.clbs,
                    st.reconfig.to_bits(),
                ));
                (prev, s) = (s, e.ctx.meta[s as usize].next);
            }
            devices.push(ctxs);
        }
        let at = |s: u32| {
            (s != NONE).then(|| {
                *pos.get(&s)
                    .unwrap_or_else(|| panic!("marker names dead slot {s}"))
            })
        };
        let tasks = (0..e.n)
            .map(|t| [at(e.in_bundle[t]), at(e.out_bundle[t]), at(e.ctx.of[t])])
            .collect();
        (devices, tasks)
    }

    /// Asserts `e`'s context mirror equals the one a fresh evaluator
    /// synchronizes from `mapping`.
    fn assert_mirror_fresh(e: &Evaluator, mapping: &Mapping, what: &str) {
        let mut fresh = Evaluator::new(e.app, e.arch);
        let _ = fresh.evaluate(mapping);
        let (got, want) = (mirror_view(e), mirror_view(&fresh));
        assert_eq!(got.0, want.0, "context mirror diverged after {what}");
        assert_eq!(got.1, want.1, "bundle markers diverged after {what}");
    }

    /// Drives deltas with the real move mix and compares the context
    /// mirror structurally with a fresh synchronization after every
    /// successful delta, every revert and every failed delta. Returns
    /// how many accepted deltas changed the context count and how many
    /// deltas moved a task between two devices.
    fn mirror_walk(app: &TaskGraph, arch: &Architecture, seed: u64, steps: usize) -> (u32, u32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mapping = random_initial(app, arch, &mut rng);
        // `random_initial` fills only the first device and the moves
        // only join occupied devices: seed the second one with every
        // other software task that fits it, in processor order (one
        // context each, so every order agrees with the processor's).
        if let Some(spec) = arch.drlcs().get(1) {
            let order = mapping.proc_order(0).to_vec();
            for t in order.into_iter().step_by(2) {
                let impls = app.task(t).unwrap().hw_impls();
                if let Some(j) = impls.iter().position(|h| h.clbs() <= spec.n_clbs()) {
                    mapping.detach(t);
                    let k = mapping.contexts(1).len();
                    mapping.insert_new_context(t, 1, k, j);
                }
            }
        }
        let mut evaluator = Evaluator::new(app, arch);
        evaluator.evaluate(&mapping).unwrap();
        let mut scratch = MoveScratch::default();
        let (mut resized, mut crossed) = (0, 0);
        for step in 0..steps {
            let before = mapping.clone();
            let outcome = if step % 3 == 0 {
                propose_impl_move(app, arch, &mut mapping, &mut rng, &mut scratch)
            } else {
                propose_pair_move(app, arch, &mut mapping, &mut rng, &mut scratch)
            };
            let Some(outcome) = outcome else { continue };
            let task = outcome.delta.task();
            let stats = evaluator.stats();
            let delta = evaluator.evaluate_delta(&mapping, task);
            let after = evaluator.stats();
            // A move leaves one context and joins one: at most two are
            // ever re-derived.
            assert!(
                after.contexts_recomputed - stats.contexts_recomputed <= 2,
                "step {step}: {after:?}"
            );
            if let (Placement::Hardware { drlc: a, .. }, Placement::Hardware { drlc: b, .. }) =
                (before.placement(task), mapping.placement(task))
            {
                crossed += u32::from(a != b);
            }
            match delta {
                Ok(_) => {
                    assert_mirror_fresh(&evaluator, &mapping, &format!("delta at step {step}"));
                    resized += u32::from(mapping.n_contexts() != before.n_contexts());
                    if rng.random::<bool>() {
                        evaluator.revert_delta();
                        outcome.delta.undo(&mut mapping);
                        assert_mirror_fresh(
                            &evaluator,
                            &mapping,
                            &format!("revert at step {step}"),
                        );
                    }
                }
                Err(_) => {
                    outcome.delta.undo(&mut mapping);
                    assert_mirror_fresh(
                        &evaluator,
                        &mapping,
                        &format!("failed delta at step {step}"),
                    );
                }
            }
        }
        (resized, crossed)
    }

    #[test]
    fn context_mirror_matches_fresh_sync_after_every_delta() {
        let layered = rdse_workloads::layered_dag(
            &rdse_workloads::LayeredDagConfig {
                layers: 6,
                width: 5,
                edge_percent: 40,
                hw_percent: 80,
            },
            7,
        );
        // The corpus's `small-fpga` and `dual-fpga` platform templates:
        // a tiny device forces new contexts and removes emptied ones,
        // two devices let tasks cross between them.
        let small_fpga = Architecture::builder("small-fpga")
            .processor("cpu", 5.0)
            .drlc("tiny", Clbs::new(350), us(5.0), 8.0)
            .bus_rate(25.0)
            .build()
            .unwrap();
        let dual_fpga = Architecture::builder("dual-fpga")
            .processor("cpu", 10.0)
            .drlc("big", Clbs::new(800), us(10.0), 20.0)
            .drlc("small", Clbs::new(300), us(2.0), 8.0)
            .bus_rate(50.0)
            .build()
            .unwrap();
        let (resized, _) = mirror_walk(&layered, &small_fpga, 3, 400);
        assert!(resized > 0, "no delta changed the context count");
        let (resized, crossed) = mirror_walk(&layered, &dual_fpga, 5, 400);
        assert!(
            resized > 0 && crossed > 0,
            "resized {resized}, crossed {crossed}"
        );
        let motion = rdse_workloads::motion_detection_app();
        let epicure = rdse_workloads::epicure_architecture(2000);
        let (resized, _) = mirror_walk(&motion, &epicure, 11, 300);
        assert!(resized > 0, "no delta changed the context count");
    }

    #[test]
    fn delta_growing_a_context_buffer_counts_as_arena_growth() {
        let mut app = TaskGraph::new("grow");
        let a = app
            .add_task(
                "a",
                "F",
                us(10.0),
                vec![
                    HwImpl::new(Clbs::new(100), us(2.0)),
                    HwImpl::new(Clbs::new(60), us(4.0)),
                ],
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
            .drlc("fpga", Clbs::new(1000), us(0.1), 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        let mut base = Mapping::all_software(&app, &arch, topo(&app));
        base.detach(a);
        base.insert_new_context(a, 0, 0, 0);
        let mut evaluator = Evaluator::new(&app, &arch);
        evaluator.evaluate(&base).unwrap();
        let mut reimpl = base.clone();
        reimpl.select_impl(a, 1);
        // Warm the recycled one-task context buffers: the second
        // re-implementation of `a` must not grow anything.
        for _ in 0..2 {
            evaluator.evaluate_delta(&reimpl, a).unwrap();
            evaluator.revert_delta();
        }
        let warm = evaluator.stats();
        evaluator.evaluate_delta(&reimpl, a).unwrap();
        evaluator.revert_delta();
        assert_eq!(evaluator.stats().arena_growths, warm.arena_growths);
        // `b` joining `a`'s context needs a two-task member list.
        let mut joined = base.clone();
        joined.detach(b);
        joined.insert_hardware(b, 0, 0, 0);
        evaluator.evaluate_delta(&joined, b).unwrap();
        let grown = evaluator.stats();
        assert_eq!(grown.arena_growths, warm.arena_growths + 1, "{grown:?}");
        assert_eq!(grown.last_growth_eval, grown.evaluations, "{grown:?}");
        assert!(!grown.arenas_warm());
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
        // Moving c ahead of a puts c before its own data predecessor b
        // on one processor: a direct cycle, rejected before any mirror
        // write, with no re-sort.
        let mut m = base.clone();
        m.detach(TaskId(2));
        m.insert_software(TaskId(2), 0, 0);
        assert_eq!(
            evaluator.evaluate_delta(&m, TaskId(2)),
            Err(MappingError::CyclicSchedule)
        );
        let cyclic = evaluator.stats();
        assert_eq!(cyclic.direct_cycles, swept.direct_cycles + 1, "{cyclic:?}");
        assert_eq!(cyclic.fallbacks, swept.fallbacks, "{cyclic:?}");
        assert_eq!(cyclic.repairs, swept.repairs, "{cyclic:?}");
        // Deltas never run a full pass, and the evaluator is back on
        // the base.
        assert_eq!(cyclic.full_passes, 1, "{cyclic:?}");
        let again = evaluator.evaluate_delta(&base, TaskId(2)).unwrap();
        assert_eq!(again, evaluate(&app, &arch, &base).unwrap().summary());
    }

    #[test]
    fn an_indirect_cycle_is_found_by_the_window_resort() {
        let (app, arch) = fixture();
        // a and c on the processor, b in a context: a -> b -> c only
        // through the fabric.
        let mut base = Mapping::all_software(&app, &arch, topo(&app));
        base.detach(TaskId(1));
        base.insert_new_context(TaskId(1), 0, 0, 0);
        let mut evaluator = Evaluator::new(&app, &arch);
        evaluator.evaluate(&base).unwrap();
        let before = evaluator.stats();
        // c ahead of a closes a -> b -> c -> a. c's one data neighbour
        // (b) is in a context, so no single order holds both ends: the
        // re-sort finds the cycle.
        let mut m = base.clone();
        m.detach(TaskId(2));
        m.insert_software(TaskId(2), 0, 0);
        let reference = evaluate(&app, &arch, &m).map(|e| e.summary());
        assert_eq!(reference, Err(MappingError::CyclicSchedule));
        assert_eq!(evaluator.evaluate_delta(&m, TaskId(2)), reference);
        let after = evaluator.stats();
        assert_eq!(after.fallbacks, before.fallbacks + 1, "{after:?}");
        assert_eq!(after.direct_cycles, before.direct_cycles, "{after:?}");
        assert_mirror_fresh(&evaluator, &base, "an indirect cycle");
    }

    #[test]
    fn an_overflow_that_also_closes_a_direct_cycle_reports_the_overflow() {
        let (mut app, arch) = fixture();
        // d (150 CLBs) shares no edge with anyone.
        let d = app
            .add_task(
                "d",
                "K",
                us(8.0),
                vec![HwImpl::new(Clbs::new(150), us(1.0))],
            )
            .unwrap();
        let (a, b) = (TaskId(0), TaskId(1));
        // b in context 0, d in context 1 of the 200-CLB device.
        let mut base = Mapping::all_software(&app, &arch, topo(&app));
        base.detach(b);
        base.insert_new_context(b, 0, 0, 0);
        base.detach(d);
        base.insert_new_context(d, 0, 1, 0);
        let mut evaluator = Evaluator::new(&app, &arch);
        evaluator.evaluate(&base).unwrap();
        // a (100 CLBs) joins d's context: 250 CLBs, and a now runs
        // after its data successor b.
        let mut m = base.clone();
        m.detach(a);
        m.insert_hardware(a, 0, 1, 0);
        let overflow = Err(MappingError::CapacityExceeded {
            drlc: 0,
            context: 1,
        });
        assert_eq!(evaluate(&app, &arch, &m).map(|e| e.summary()), overflow);
        assert_eq!(evaluator.evaluate_delta(&m, a), overflow);
        assert_eq!(evaluator.stats().direct_cycles, 0);
        assert_mirror_fresh(&evaluator, &base, "an overflow");
        // With room for both, the same move is the direct cycle.
        let mut m = base.clone();
        m.detach(d);
        m.insert_software(d, 0, 0);
        evaluator.evaluate(&m).unwrap();
        m.detach(a);
        m.insert_new_context(a, 0, 1, 0);
        assert_eq!(
            evaluator.evaluate_delta(&m, a),
            Err(MappingError::CyclicSchedule)
        );
        assert_eq!(evaluator.stats().direct_cycles, 1);
    }

    #[test]
    fn implementation_changes_resize_their_context_in_place() {
        let app = rdse_workloads::motion_detection_app();
        let arch = rdse_workloads::epicure_architecture(2000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut mapping = random_initial(&app, &arch, &mut rng);
        let mut evaluator = Evaluator::new(&app, &arch);
        evaluator.evaluate(&mapping).unwrap();
        let mut scratch = MoveScratch::default();
        let mut resized = 0;
        for step in 0..200 {
            let before = evaluator.stats();
            let Some(outcome) =
                propose_impl_move(&app, &arch, &mut mapping, &mut rng, &mut scratch)
            else {
                continue;
            };
            let delta = evaluator.evaluate_delta(&mapping, outcome.delta.task());
            let after = evaluator.stats();
            let reference = evaluate(&app, &arch, &mapping).map(|e| e.summary());
            assert_eq!(delta, reference, "step {step}");
            if matches!(
                outcome.kind,
                crate::moves::MoveKind::SelectImplementation { .. }
            ) {
                // No context re-derived, no edge added: no re-sort.
                assert_eq!(after.contexts_resized, before.contexts_resized + 1);
                assert_eq!(after.contexts_recomputed, before.contexts_recomputed);
                assert_eq!(after.fallbacks, before.fallbacks);
                resized += 1;
            }
            assert_mirror_fresh(&evaluator, &mapping, &format!("step {step}"));
            if rng.random::<bool>() {
                evaluator.revert_delta();
                outcome.delta.undo(&mut mapping);
                assert_mirror_fresh(&evaluator, &mapping, &format!("revert at {step}"));
            }
        }
        assert!(resized > 50, "{resized}");
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
    fn batch_rescans_a_context_whose_clean_members_changed_order() {
        // A batch candidate may take a task out of its context and put
        // it back at another slot: its placement compares equal (it is
        // clean) but the context's member order changed. A dirty task
        // joining the same context must still yield exactly the
        // reference's initials.
        let mut app = TaskGraph::new("reorder");
        let hw = || vec![HwImpl::new(Clbs::new(50), us(2.0))];
        let p = app.add_task("p", "F", us(10.0), hw()).unwrap();
        let q = app.add_task("q", "F", us(10.0), hw()).unwrap();
        // r is the critical task: a lost initial marker on it shows.
        let r = app
            .add_task(
                "r",
                "F",
                us(90.0),
                vec![HwImpl::new(Clbs::new(50), us(20.0))],
            )
            .unwrap();
        let s = app.add_task("s", "F", us(10.0), hw()).unwrap();
        app.add_data_edge(p, q, Bytes::new(1000)).unwrap();
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(1000), us(0.1), 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        let mut base = Mapping::all_software(&app, &arch, topo(&app));
        for (slot, t) in [p, q, r].into_iter().enumerate() {
            base.detach(t);
            if slot == 0 {
                base.insert_new_context(t, 0, 0, 0);
            } else {
                base.insert_hardware(t, 0, 0, 0);
            }
        }
        // [p, q, r] becomes [q, r, p, s]: p moved behind r (still clean),
        // s joined (dirty). The initials go from [p, r] to [r, p, s].
        let mut cand = base.clone();
        cand.detach(p);
        cand.insert_hardware_at(p, 0, 0, 0, 2);
        cand.detach(s);
        cand.insert_hardware(s, 0, 0, 0);
        assert_eq!(base.placement(p), cand.placement(p));
        let mut evaluator = Evaluator::new(&app, &arch);
        let want = evaluate(&app, &arch, &cand).unwrap().summary();
        let got = evaluator.evaluate_batch(&base, &[cand]).unwrap();
        assert_eq!(got, [Ok(want)]);
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
