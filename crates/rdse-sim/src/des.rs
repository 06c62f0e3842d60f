//! The event-driven simulator core.

use crate::event::{SimEvent, SimEventKind};
use rdse_mapping::{Mapping, MappingError, Placement};
use rdse_model::units::Micros;
use rdse_model::{Architecture, TaskGraph, TaskId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Model the shared bus as an exclusive FIFO resource. When
    /// `false`, transfers proceed in parallel — the paper's static
    /// ordered-transaction assumption — and the simulated makespan
    /// equals the analytic longest path.
    pub exclusive_bus: bool,
    /// Record the full event log in the report.
    pub record_events: bool,
}

impl SimConfig {
    /// Contention-free bus, no event log (fast validation mode).
    pub fn contention_free() -> Self {
        SimConfig {
            exclusive_bus: false,
            record_events: false,
        }
    }

    /// Exclusive FIFO bus with event log.
    pub fn with_contention() -> Self {
        SimConfig {
            exclusive_bus: true,
            record_events: true,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::contention_free()
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of the last task.
    pub makespan: Micros,
    /// Start time per task.
    pub starts: Vec<Micros>,
    /// End time per task.
    pub ends: Vec<Micros>,
    /// Total time the bus spent transferring.
    pub bus_busy: Micros,
    /// Number of bus transactions.
    pub n_transfers: usize,
    /// Total reconfiguration time across devices.
    pub reconfig_total: Micros,
    /// Event log (empty unless requested).
    pub events: Vec<SimEvent>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(clippy::enum_variant_names)] // the Done suffix is the point: completions wake the engine
enum Wake {
    TaskDone(TaskId),
    ReconfigDone { drlc: usize, context: usize },
    TransferDone { edge: usize },
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: f64,
    seq: u64,
    wake: Wake,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison: earliest time first, then
        // insertion order for determinism.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

struct ProcState<'a> {
    order: &'a [TaskId],
    next: usize,
    executing: bool,
}

#[derive(PartialEq)]
enum DrlcPhase {
    Reconfiguring,
    Executing,
    Done,
}

struct DrlcState {
    phase: DrlcPhase,
    current: usize,
    remaining_in_current: usize,
}

struct Engine<'a> {
    app: &'a TaskGraph,
    arch: &'a Architecture,
    mapping: &'a Mapping,
    cfg: SimConfig,
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
    now: f64,
    missing_inputs: Vec<usize>,
    /// `out_edges[out_start[t]..out_start[t + 1]]` are the indices of
    /// task `t`'s outgoing application edges, in edge-index order (the
    /// exclusive bus queues requests in that order).
    out_start: Vec<usize>,
    out_edges: Vec<usize>,
    started: Vec<bool>,
    starts: Vec<f64>,
    ends: Vec<f64>,
    procs: Vec<ProcState<'a>>,
    drlcs: Vec<DrlcState>,
    bus_pending: VecDeque<usize>,
    bus_active: Option<usize>,
    bus_busy: f64,
    n_transfers: usize,
    reconfig_total: f64,
    n_done: usize,
    events: Vec<SimEvent>,
}

impl Engine<'_> {
    fn push(&mut self, time: f64, wake: Wake) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            wake,
        });
    }

    fn log(&mut self, time: f64, kind: SimEventKind) {
        if self.cfg.record_events {
            self.events.push(SimEvent::new(Micros::new(time), kind));
        }
    }

    fn cross_device(&self, from: TaskId, to: TaskId) -> bool {
        match (self.mapping.placement(from), self.mapping.placement(to)) {
            (Placement::Software { processor: a }, Placement::Software { processor: b }) => a != b,
            (Placement::Hardware { drlc: a, .. }, Placement::Hardware { drlc: b, .. }) => a != b,
            (Placement::Asic { asic: a }, Placement::Asic { asic: b }) => {
                a != b || cfg!(rdse_fault = "sim_asic_edge_on_bus")
            }
            _ => true,
        }
    }

    fn try_start(&mut self, task: TaskId) {
        if self.started[task.index()] || self.missing_inputs[task.index()] > 0 {
            return;
        }
        let can_start = match self.mapping.placement(task) {
            Placement::Software { processor } => {
                let p = &self.procs[processor];
                !p.executing && p.next < p.order.len() && p.order[p.next] == task
            }
            Placement::Hardware { drlc, context, .. } => {
                let d = &self.drlcs[drlc];
                d.phase == DrlcPhase::Executing && d.current == context
            }
            Placement::Asic { .. } => true,
        };
        if !can_start {
            return;
        }
        self.started[task.index()] = true;
        self.starts[task.index()] = self.now;
        if let Placement::Software { processor } = self.mapping.placement(task) {
            self.procs[processor].executing = true;
        }
        let exec = self.mapping.exec_time(self.app, task).value();
        self.log(self.now, SimEventKind::TaskStart(task));
        self.push(self.now + exec, Wake::TaskDone(task));
    }

    fn start_bus_transfer_if_idle(&mut self) {
        if self.bus_active.is_some() {
            return;
        }
        let Some(edge) = self.bus_pending.pop_front() else {
            return;
        };
        self.bus_active = Some(edge);
        let e = &self.app.edges()[edge];
        let dur = self.arch.bus().transfer_time(e.bytes).value();
        self.bus_busy += dur;
        self.n_transfers += 1;
        self.log(
            self.now,
            SimEventKind::TransferStart {
                from: e.from,
                to: e.to,
            },
        );
        self.push(self.now + dur, Wake::TransferDone { edge });
    }

    fn request_transfer(&mut self, edge: usize) {
        if self.cfg.exclusive_bus {
            self.bus_pending.push_back(edge);
            self.start_bus_transfer_if_idle();
        } else {
            let e = &self.app.edges()[edge];
            let dur = self.arch.bus().transfer_time(e.bytes).value();
            self.bus_busy += dur;
            self.n_transfers += 1;
            self.log(
                self.now,
                SimEventKind::TransferStart {
                    from: e.from,
                    to: e.to,
                },
            );
            self.push(self.now + dur, Wake::TransferDone { edge });
        }
    }

    fn deliver(&mut self, to: TaskId) {
        self.missing_inputs[to.index()] -= 1;
        self.try_start(to);
    }

    fn start_reconfig(&mut self, drlc: usize, context: usize) {
        let clbs = self.mapping.context_clbs(self.app, drlc, context);
        let dur = self.arch.drlcs()[drlc].reconfiguration_time(clbs).value();
        self.reconfig_total += dur;
        self.drlcs[drlc].phase = DrlcPhase::Reconfiguring;
        self.drlcs[drlc].current = context;
        self.log(self.now, SimEventKind::ReconfigStart { drlc, context });
        self.push(self.now + dur, Wake::ReconfigDone { drlc, context });
    }

    fn on_task_done(&mut self, task: TaskId) {
        self.ends[task.index()] = self.now;
        self.n_done += 1;
        self.log(self.now, SimEventKind::TaskEnd(task));

        match self.mapping.placement(task) {
            Placement::Software { processor } => {
                self.procs[processor].executing = false;
                self.procs[processor].next += 1;
                if let Some(&next) = {
                    let p = &self.procs[processor];
                    p.order.get(p.next)
                } {
                    self.try_start(next);
                }
            }
            Placement::Hardware { drlc, .. } => {
                self.drlcs[drlc].remaining_in_current -= 1;
                if self.drlcs[drlc].remaining_in_current == 0 {
                    let next_ctx = self.drlcs[drlc].current + 1;
                    if next_ctx < self.mapping.contexts(drlc).len() {
                        self.drlcs[drlc].remaining_in_current =
                            self.mapping.contexts(drlc)[next_ctx].len();
                        self.start_reconfig(drlc, next_ctx);
                    } else {
                        self.drlcs[drlc].phase = DrlcPhase::Done;
                    }
                }
            }
            Placement::Asic { .. } => {}
        }

        // Deliver outputs: intra-device immediately, cross-device via
        // the bus.
        for j in self.out_start[task.index()]..self.out_start[task.index() + 1] {
            let edge = self.out_edges[j];
            let to = self.app.edges()[edge].to;
            if self.cross_device(task, to) {
                self.request_transfer(edge);
            } else {
                self.deliver(to);
            }
        }
    }

    fn on_reconfig_done(&mut self, drlc: usize, context: usize) {
        self.drlcs[drlc].phase = DrlcPhase::Executing;
        self.log(self.now, SimEventKind::ReconfigEnd { drlc, context });
        let mapping = self.mapping;
        for &t in mapping.contexts(drlc)[context].tasks() {
            self.try_start(t);
        }
    }

    fn on_transfer_done(&mut self, edge: usize) {
        let e = self.app.edges()[edge];
        self.log(
            self.now,
            SimEventKind::TransferEnd {
                from: e.from,
                to: e.to,
            },
        );
        if self.cfg.exclusive_bus {
            self.bus_active = None;
            self.start_bus_transfer_if_idle();
        }
        self.deliver(e.to);
    }
}

/// Executes `mapping` on `arch` and reports the observed schedule.
///
/// The simulation is independent of the analytic model: structure and
/// capacity are checked up front with [`Mapping::validate`], and
/// [`rdse_mapping::evaluate`] runs only to classify a deadlock.
///
/// # Errors
///
/// Returns the structural error [`Mapping::validate`] finds, which
/// names the first overflowing context in the same order as
/// [`rdse_mapping::evaluate`], and [`MappingError::CyclicSchedule`]
/// when the imposed orders deadlock the execution: on every infeasible
/// mapping, the error `evaluate` returns. A deadlock on a mapping that
/// `evaluate` accepts is a simulator bug and returns
/// [`MappingError::Inconsistent`].
pub fn simulate(
    app: &TaskGraph,
    arch: &Architecture,
    mapping: &Mapping,
    cfg: &SimConfig,
) -> Result<SimReport, MappingError> {
    mapping.validate(app, arch)?;

    let n = app.n_tasks();
    let mut missing = vec![0usize; n];
    let mut out_start = vec![0usize; n + 1];
    for e in app.edges() {
        missing[e.to.index()] += 1;
        out_start[e.from.index() + 1] += 1;
    }
    for t in 0..n {
        out_start[t + 1] += out_start[t];
    }
    let mut fill = out_start[..n].to_vec();
    let mut out_edges = vec![0usize; app.edges().len()];
    for (i, e) in app.edges().iter().enumerate() {
        out_edges[fill[e.from.index()]] = i;
        fill[e.from.index()] += 1;
    }
    let procs: Vec<ProcState> = (0..arch.processors().len())
        .map(|p| ProcState {
            order: mapping.proc_order(p),
            next: 0,
            executing: false,
        })
        .collect();
    let drlcs: Vec<DrlcState> = (0..arch.drlcs().len())
        .map(|_| DrlcState {
            phase: DrlcPhase::Done,
            current: 0,
            remaining_in_current: 0,
        })
        .collect();

    let mut engine = Engine {
        app,
        arch,
        mapping,
        cfg: *cfg,
        heap: BinaryHeap::new(),
        seq: 0,
        now: 0.0,
        missing_inputs: missing,
        out_start,
        out_edges,
        started: vec![false; n],
        starts: vec![0.0; n],
        ends: vec![0.0; n],
        procs,
        drlcs,
        bus_pending: VecDeque::new(),
        bus_active: None,
        bus_busy: 0.0,
        n_transfers: 0,
        reconfig_total: 0.0,
        n_done: 0,
        events: Vec::new(),
    };

    // Kick-off: first context of each device starts configuring at t=0;
    // ASIC and eligible software tasks may start immediately.
    for d in 0..arch.drlcs().len() {
        if !mapping.contexts(d).is_empty() {
            engine.drlcs[d].remaining_in_current = mapping.contexts(d)[0].len();
            engine.start_reconfig(d, 0);
        }
    }
    for p in 0..engine.procs.len() {
        if let Some(&first) = engine.procs[p].order.first() {
            engine.try_start(first);
        }
    }
    for t in app.task_ids() {
        if matches!(mapping.placement(t), Placement::Asic { .. }) {
            engine.try_start(t);
        }
    }

    while let Some(entry) = engine.heap.pop() {
        engine.now = entry.time;
        match entry.wake {
            Wake::TaskDone(t) => engine.on_task_done(t),
            Wake::ReconfigDone { drlc, context } => engine.on_reconfig_done(drlc, context),
            Wake::TransferDone { edge } => engine.on_transfer_done(edge),
        }
    }

    if engine.n_done != n {
        // Only a cyclic order deadlocks a valid mapping; the analytic
        // model classifies it.
        rdse_mapping::evaluate(app, arch, mapping)?;
        return Err(MappingError::Inconsistent(format!(
            "simulation deadlock: {} of {} tasks completed",
            engine.n_done, n
        )));
    }

    let makespan = engine.ends.iter().copied().fold(0.0, f64::max);
    Ok(SimReport {
        makespan: Micros::new(makespan),
        starts: engine.starts.into_iter().map(Micros::new).collect(),
        ends: engine.ends.into_iter().map(Micros::new).collect(),
        bus_busy: Micros::new(engine.bus_busy),
        n_transfers: engine.n_transfers,
        reconfig_total: Micros::new(engine.reconfig_total),
        events: engine.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdse_mapping::{evaluate, explore, random_initial, ExploreOptions};
    use rdse_model::units::{Bytes, Clbs};
    use rdse_model::HwImpl;
    use rdse_workloads::{epicure_architecture, motion_detection_app};

    /// Chain a -> b -> c, every task hardware-capable; one processor
    /// and two 200-CLB devices.
    fn chain_fixture() -> (TaskGraph, Architecture) {
        let mut app = TaskGraph::new("chain");
        let mut ids = Vec::new();
        for (name, clbs) in [("a", 100), ("b", 150), ("c", 120)] {
            let hw = vec![HwImpl::new(Clbs::new(clbs), Micros::new(2.0))];
            ids.push(app.add_task(name, "F", Micros::new(10.0), hw).unwrap());
        }
        app.add_data_edge(ids[0], ids[1], Bytes::new(1000)).unwrap();
        app.add_data_edge(ids[1], ids[2], Bytes::new(1000)).unwrap();
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga0", Clbs::new(200), Micros::new(0.1), 1.0)
            .drlc("fpga1", Clbs::new(200), Micros::new(0.1), 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        (app, arch)
    }

    #[test]
    fn cyclic_processor_order_is_a_cyclic_schedule() {
        let (app, arch) = chain_fixture();
        // c runs first on the processor although a ⇝ c: the DES
        // deadlocks, and the deadlock is classified, not a bug.
        let m = Mapping::all_software(&app, &arch, vec![TaskId(2), TaskId(0), TaskId(1)]);
        for cfg in [SimConfig::contention_free(), SimConfig::with_contention()] {
            assert_eq!(
                simulate(&app, &arch, &m, &cfg).unwrap_err(),
                MappingError::CyclicSchedule
            );
        }
    }

    #[test]
    fn backwards_context_order_is_a_cyclic_schedule() {
        let (app, arch) = chain_fixture();
        let order = vec![TaskId(0), TaskId(1), TaskId(2)];
        let mut m = Mapping::all_software(&app, &arch, order);
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 0, 0);
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 1, 0); // a after b, but a ⇝ b
        assert_eq!(
            simulate(&app, &arch, &m, &SimConfig::contention_free()).unwrap_err(),
            MappingError::CyclicSchedule
        );
    }

    #[test]
    fn context_overflow_names_the_same_context_as_evaluate() {
        let (app, arch) = chain_fixture();
        let order = vec![TaskId(0), TaskId(1), TaskId(2)];
        let mut m = Mapping::all_software(&app, &arch, order);
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0);
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 1, 0, 0);
        m.detach(TaskId(2));
        m.insert_hardware(TaskId(2), 1, 0, 0); // 150 + 120 > 200 CLBs
        let expected = MappingError::CapacityExceeded {
            drlc: 1,
            context: 0,
        };
        assert_eq!(evaluate(&app, &arch, &m).unwrap_err(), expected);
        assert_eq!(
            simulate(&app, &arch, &m, &SimConfig::contention_free()).unwrap_err(),
            expected
        );
    }

    #[test]
    fn a_context_filled_exactly_to_capacity_is_feasible() {
        // a (100 CLBs) and b (150) share one context of a device with
        // `cap` CLBs: feasible at 250, one CLB short at 249.
        let (app, _) = chain_fixture();
        for (cap, feasible) in [(250, true), (249, false)] {
            let arch = Architecture::builder("soc")
                .processor("cpu", 1.0)
                .drlc("fpga", Clbs::new(cap), Micros::new(0.1), 1.0)
                .bus_rate(100.0)
                .build()
                .unwrap();
            let mut m = Mapping::all_software(&app, &arch, vec![TaskId(0), TaskId(1), TaskId(2)]);
            m.detach(TaskId(0));
            m.insert_new_context(TaskId(0), 0, 0, 0);
            m.detach(TaskId(1));
            m.insert_hardware(TaskId(1), 0, 0, 0);
            let analytic = evaluate(&app, &arch, &m);
            assert_eq!(analytic.is_ok(), feasible, "cap {cap}: {analytic:?}");
            for cfg in [SimConfig::contention_free(), SimConfig::with_contention()] {
                match (simulate(&app, &arch, &m, &cfg), &analytic) {
                    (Ok(sim), Ok(a)) => assert!(
                        cfg.exclusive_bus
                            || (sim.makespan.value() - a.makespan.value()).abs() < 1e-6,
                        "cap {cap}: sim {} vs analytic {}",
                        sim.makespan,
                        a.makespan
                    ),
                    (Err(e), Err(expected)) => assert_eq!(&e, expected, "cap {cap}"),
                    (sim, _) => panic!("cap {cap}: feasibility diverged: {sim:?} vs {analytic:?}"),
                }
            }
        }
    }

    #[test]
    fn an_edge_inside_one_asic_never_uses_the_bus() {
        // a -> b, both on one ASIC: the analytic model (`same_device`)
        // charges no transfer, so neither may the DES, in either bus
        // mode. c on the processor keeps the bus in the picture.
        let mut app = TaskGraph::new("asic");
        let hw = || vec![HwImpl::new(Clbs::new(100), Micros::new(2.0))];
        let a = app.add_task("a", "F", Micros::new(10.0), hw()).unwrap();
        let b = app.add_task("b", "G", Micros::new(10.0), hw()).unwrap();
        let c = app.add_task("c", "H", Micros::new(4.0), vec![]).unwrap();
        app.add_data_edge(a, b, Bytes::new(1000)).unwrap();
        app.add_data_edge(a, c, Bytes::new(500)).unwrap();
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .asic("asic", 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        let mut m = Mapping::all_software(&app, &arch, vec![a, b, c]);
        m.detach(a);
        m.insert_asic(a, 0);
        m.detach(b);
        m.insert_asic(b, 0);
        let analytic = evaluate(&app, &arch, &m).unwrap();
        for cfg in [SimConfig::contention_free(), SimConfig::with_contention()] {
            let sim = simulate(&app, &arch, &m, &cfg).unwrap();
            assert_eq!(sim.n_transfers, 1, "{cfg:?}");
            for t in app.task_ids() {
                let (got, want) = (sim.ends[t.index()], analytic.completions[t.index()]);
                assert!(
                    (got.value() - want.value()).abs() < 1e-6,
                    "{cfg:?} {t}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn contention_free_matches_analytic_on_random_mappings() {
        let app = motion_detection_app();
        let arch = epicure_architecture(1500);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let m = random_initial(&app, &arch, &mut rng);
            let analytic = evaluate(&app, &arch, &m).unwrap();
            let sim = simulate(&app, &arch, &m, &SimConfig::contention_free()).unwrap();
            assert!(
                (sim.makespan.value() - analytic.makespan.value()).abs() < 1e-6,
                "sim {} vs analytic {}",
                sim.makespan,
                analytic.makespan
            );
        }
    }

    #[test]
    fn per_task_times_match_analytic() {
        let app = motion_detection_app();
        let arch = epicure_architecture(2000);
        let mut rng = StdRng::seed_from_u64(7);
        let m = random_initial(&app, &arch, &mut rng);
        let analytic = evaluate(&app, &arch, &m).unwrap();
        let sim = simulate(&app, &arch, &m, &SimConfig::contention_free()).unwrap();
        for t in app.task_ids() {
            assert!(
                (sim.ends[t.index()].value() - analytic.completions[t.index()].value()).abs()
                    < 1e-6,
                "task {t}: sim end {} vs analytic {}",
                sim.ends[t.index()],
                analytic.completions[t.index()]
            );
        }
    }

    #[test]
    fn exclusive_bus_never_beats_contention_free() {
        let app = motion_detection_app();
        let arch = epicure_architecture(1000);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let m = random_initial(&app, &arch, &mut rng);
            let free = simulate(&app, &arch, &m, &SimConfig::contention_free()).unwrap();
            let excl = simulate(&app, &arch, &m, &SimConfig::with_contention()).unwrap();
            assert!(
                excl.makespan.value() >= free.makespan.value() - 1e-6,
                "contention made things faster?!"
            );
            assert_eq!(excl.n_transfers, free.n_transfers);
        }
    }

    #[test]
    fn optimized_solution_validates_under_contention() {
        let app = motion_detection_app();
        let arch = epicure_architecture(2000);
        let out = explore(
            &app,
            &arch,
            &ExploreOptions {
                max_iterations: 3000,
                warmup_iterations: 600,
                seed: 1,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let excl = simulate(&app, &arch, &out.mapping, &SimConfig::with_contention()).unwrap();
        // The static estimate ignores contention; the dynamic check
        // should stay close (ordered transactions rarely collide on
        // this workload).
        let slack = excl.makespan.value() / out.evaluation.makespan.value();
        assert!(
            (1.0..1.25).contains(&slack),
            "contention inflated makespan by {slack}"
        );
    }

    #[test]
    fn event_log_is_causally_ordered() {
        let app = motion_detection_app();
        let arch = epicure_architecture(1500);
        let mut rng = StdRng::seed_from_u64(11);
        let m = random_initial(&app, &arch, &mut rng);
        let sim = simulate(&app, &arch, &m, &SimConfig::with_contention()).unwrap();
        assert!(!sim.events.is_empty());
        for w in sim.events.windows(2) {
            assert!(w[0].time <= w[1].time, "events out of order");
        }
        // Every task start has a matching end at a later-or-equal time.
        for t in app.task_ids() {
            assert!(sim.starts[t.index()] <= sim.ends[t.index()]);
        }
    }

    #[test]
    fn reconfig_total_matches_mapping() {
        let app = motion_detection_app();
        let arch = epicure_architecture(1500);
        let mut rng = StdRng::seed_from_u64(5);
        let m = random_initial(&app, &arch, &mut rng);
        let sim = simulate(&app, &arch, &m, &SimConfig::contention_free()).unwrap();
        let expected = arch.drlcs()[0]
            .reconfiguration_time(m.total_configured_clbs(&app))
            .value();
        assert!((sim.reconfig_total.value() - expected).abs() < 1e-6);
    }

    #[test]
    fn simulation_is_deterministic() {
        let app = motion_detection_app();
        let arch = epicure_architecture(800);
        let mut rng = StdRng::seed_from_u64(9);
        let m = random_initial(&app, &arch, &mut rng);
        let a = simulate(&app, &arch, &m, &SimConfig::with_contention()).unwrap();
        let b = simulate(&app, &arch, &m, &SimConfig::with_contention()).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
    }
}
