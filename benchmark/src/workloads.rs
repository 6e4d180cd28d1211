//! The seven workloads.
//!
//! Each workload is a sequence of *slices*: short (0.1–0.4 s), timed
//! pieces of simulated work. Slice `i` belongs to class `i % classes`
//! (see [`crate::inputs`]); slices with the same [`SliceOut::key`] do
//! identical simulated work, so their digests must agree — a free
//! determinism check. Every slice also checks the model's outputs
//! (guarantee bounds held, budgets returned, streams in order).
//!
//! Every call into a layer's public function goes through a
//! [`Tracer::span`], so the traced pass sees where the harness spent
//! the time; with the tracer off the span is a plain call.

use crate::inputs::{self, PlannerArrival, PLACER, PLANNER_HOLD};
use crate::span::Tracer;
use crate::stats::{debug_digest, fnv32};
use mango::apps::{PlacerKind, ServingMetrics, ServingSpec, TaskGraph};
use mango::core::RouterConfig;
use mango::net::{Grid, NaConfig, PreparedScenario, ScenarioMetrics, ScenarioSpec};
use mango::qos::{
    Admission, AdmissionController, ChurnMetrics, ChurnSpec, ConnRequest, RecoveryMetrics,
    RecoverySpec,
};
use mango::sim::{KernelProfile, RunOutcome, SimDuration};
use mango_sweep::{run_sweep, SweepRecord, SweepSpec};
use std::collections::VecDeque;

/// Share of link capacity GS may reserve in every workload (the
/// architectural maximum the repo's grids use).
pub const MAX_GS_FRAC: f64 = 0.875;
/// Instances offered in `serving_vopd`'s drain run: arrivals stop after
/// ~7 µs.
const DRAIN_APPS: u64 = 48;
/// Its window: twelve mean holding times after the last arrival, so an
/// instance still open at the end is a one-in-10⁴ event.
const DRAIN_HORIZON: SimDuration = SimDuration::from_us(150);

/// What one slice did and whether its outputs were right.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceOut {
    /// Slices with equal keys did identical simulated work.
    pub key: u64,
    /// Work units the cost is normalised by: kernel events, or arrivals
    /// for the kernel-free `planner_vopd`.
    pub work: u64,
    /// Kernel events simulated.
    pub events: u64,
    /// Requests / instances / connections offered.
    pub offered: u64,
    /// … of which admitted (healthy or healed for recovery).
    pub admitted: u64,
    /// Digest of the returned metrics.
    pub digest: u32,
    /// Worst observed ÷ bound latency ratio.
    pub bound_ratio_worst: f64,
    /// Streams whose observation exceeded their bound.
    pub bound_violations: u64,
    /// Failed output checks (empty = the slice is correct).
    pub failures: Vec<String>,
}

impl SliceOut {
    fn new(key: u64, events: u64) -> Self {
        SliceOut {
            key,
            work: events,
            events,
            offered: 0,
            admitted: 0,
            digest: 0,
            bound_ratio_worst: 0.0,
            bound_violations: 0,
            failures: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The checks every simulated workload shares: the guarantee held
    /// and no GS stream was reordered.
    fn check_guarantees(&mut self, violations: u64, worst_ratio: f64, scenario: &ScenarioMetrics) {
        self.bound_violations = violations;
        self.bound_ratio_worst = worst_ratio;
        self.check(violations == 0, || {
            format!("{violations} streams exceeded their latency bound")
        });
        self.check(worst_ratio <= 1.0, || {
            format!("worst observed/bound ratio {worst_ratio} > 1")
        });
        let seq = gs_sequence_errors(scenario);
        self.check(seq == 0, || format!("{seq} GS sequence errors"));
        self.check(scenario.outcome.is_ok(), || {
            format!("run ended {:?}", scenario.outcome)
        });
    }
}

fn gs_sequence_errors(m: &ScenarioMetrics) -> u64 {
    m.gs_flows.iter().map(|&i| m.flows[i].sequence_errors).sum()
}

/// Workload-specific state the traced pass reads after the last slice.
#[derive(Debug, Default)]
pub struct LayerSample {
    /// Kernel self-profile and how many slices it covers.
    pub profile: Option<(KernelProfile, u64)>,
    /// Class 0's churn metrics (for the admission replay).
    pub churn: Option<ChurnMetrics>,
    /// Class 0's serving metrics.
    pub serving: Option<ServingMetrics>,
    /// Class 0's recovery metrics.
    pub recovery: Option<RecoveryMetrics>,
}

/// One workload, constructed and ready to run slices.
pub trait Workload {
    /// Runs slice `i` and checks its outputs.
    fn slice(&mut self, i: usize, tr: &mut Tracer) -> SliceOut;

    /// Tears the workload down after the last slice; returns failed
    /// checks.
    fn finish(&mut self, _tr: &mut Tracer) -> Vec<String> {
        Vec::new()
    }

    /// What the traced pass needs beyond the slice outcomes.
    fn layer_sample(&mut self) -> LayerSample {
        LayerSample::default()
    }
}

/// A fresh controller over `grid` with the paper's router and NA.
pub fn controller(grid: Grid) -> AdmissionController {
    AdmissionController::new(
        grid,
        &RouterConfig::paper(),
        &NaConfig::paper(),
        MAX_GS_FRAC,
    )
}

/// The workload's construction path, once, for `class` — what
/// `setup_s` times: build the spec, `ScenarioSpec::prepare()` (static
/// connections opened and settled), and the admission controller / task
/// graphs where the workload uses them. The result is dropped.
pub fn setup_once(name: &str, seed: u64, class: usize, tr: &mut Tracer) {
    let s = inputs::derive(seed, name, class);
    let prepare =
        |spec: &ScenarioSpec, tr: &mut Tracer| tr.span("net.prepare", |_| (spec.prepare(), 1));
    let with_controller = |base: &ScenarioSpec, tr: &mut Tracer| {
        let prepared = prepare(base, tr);
        let grid = prepared.sim().network().grid().clone();
        let ctl = tr.span("qos.controller_new", |_| (controller(grid), 1));
        std::hint::black_box((&prepared, &ctl));
    };
    match name {
        "fabric_4x4" | "fabric_16x16" => {
            let n = if name == "fabric_4x4" { 4 } else { 16 };
            let mut prepared = prepare(&inputs::fabric_spec(n, s), tr);
            prepared.start_measurement();
            std::hint::black_box(&prepared);
        }
        "churn_8x8" => with_controller(&inputs::churn_spec(s).base, tr),
        "serving_vopd" => with_controller(&inputs::serving_spec(s).base, tr),
        "recovery_8x8" => with_controller(&inputs::recovery_spec(s).base, tr),
        "planner_vopd" => {
            std::hint::black_box(Planner::new(seed, tr));
        }
        "sweep_short" => {
            let spec = inputs::sweep_spec(s);
            for job in spec.expand() {
                std::hint::black_box(prepare(&spec.scenario(&job), tr));
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// Constructs `name` under benchmark seed `seed`. `profile` turns on
/// kernel self-profiling where the harness owns the simulation.
pub fn construct(name: &str, seed: u64, profile: bool, tr: &mut Tracer) -> Box<dyn Workload> {
    let class_seeds = || (0..inputs::classes(name)).map(|c| inputs::derive(seed, name, c));
    match name {
        "fabric_4x4" => Box::new(Fabric::new(4, inputs::derive(seed, name, 0), profile, tr)),
        "fabric_16x16" => Box::new(Fabric::new(16, inputs::derive(seed, name, 0), profile, tr)),
        "churn_8x8" => Box::new(Engine::new(class_seeds().map(inputs::churn_spec))),
        "serving_vopd" => Box::new(Engine::new(class_seeds().map(inputs::serving_spec))),
        "recovery_8x8" => Box::new(Engine::new(class_seeds().map(inputs::recovery_spec))),
        "planner_vopd" => Box::new(Planner::new(seed, tr)),
        "sweep_short" => Box::new(Sweep {
            specs: class_seeds().map(inputs::sweep_spec).collect(),
        }),
        other => panic!("unknown workload {other:?}"),
    }
}

// ------------------------------------------------------------------
// fabric_4x4 / fabric_16x16
// ------------------------------------------------------------------

/// The data plane alone: two identical simulations advanced in turn,
/// one slice = the next span of one of them. Slices `2j` and `2j + 1`
/// simulate the same window of the same scenario, so they must agree;
/// in the traced pass the second simulation runs with kernel profiling
/// on, which also yields the profiling overhead.
struct Fabric {
    n: u8,
    sims: [Option<PreparedScenario>; 2],
    /// Slices run so far on each simulation.
    windows: [u64; 2],
    /// The second simulation's kernel profile, kept when `finish`
    /// consumes the simulations.
    profile: Option<(KernelProfile, u64)>,
}

impl Fabric {
    fn new(n: u8, scenario_seed: u64, profile: bool, tr: &mut Tracer) -> Self {
        let spec = inputs::fabric_spec(n, scenario_seed);
        let sims = [false, profile].map(|profiled| {
            let mut p = tr.span("net.prepare", |_| (spec.prepare(), 1));
            p.start_measurement();
            // One warm-up slice: queues, slabs and caches reach steady
            // state before anything is timed.
            p.sim_mut().run_for(inputs::fabric_slice_span(n));
            if profiled {
                p.sim_mut().enable_kernel_profiling();
            }
            Some(p)
        });
        Fabric {
            n,
            sims,
            windows: [0; 2],
            profile: None,
        }
    }

    fn advance(&mut self, which: usize, tr: &mut Tracer) -> (u64, RunOutcome, u32) {
        let span = inputs::fabric_slice_span(self.n);
        let sim = self.sims[which]
            .as_mut()
            .expect("finish comes last")
            .sim_mut();
        let before = sim.events_processed();
        let (outcome, events) = tr.span("net.run", |_| {
            let outcome = sim.run_for(span);
            let events = sim.events_processed() - before;
            ((outcome, events), events)
        });
        let digest = debug_digest(&(events, sim.now(), sim.events_pending()));
        self.windows[which] += 1;
        (events, outcome, digest)
    }
}

impl Workload for Fabric {
    fn slice(&mut self, i: usize, tr: &mut Tracer) -> SliceOut {
        let (events, outcome, digest) = self.advance(i % 2, tr);
        let mut out = SliceOut::new(i as u64 / 2, events);
        // Static GS connections opened ÷ requested: `prepare()` panics
        // unless all four opened.
        (out.offered, out.admitted) = (4, 4);
        out.digest = digest;
        out.check(outcome.is_ok(), || format!("run ended {outcome:?}"));
        out
    }

    fn finish(&mut self, tr: &mut Tracer) -> Vec<String> {
        // Bring both simulations to the same window, then their final
        // metrics must be equal, in order, and never stalled.
        while self.windows[1] < self.windows[0] {
            self.advance(1, tr);
        }
        self.profile = self.sims[1]
            .as_ref()
            .and_then(|p| p.sim().kernel_profile())
            .map(|p| (p.clone(), self.windows[1]));
        let [a, b] = [0, 1].map(|i| {
            let p = self.sims[i].take().expect("finish runs once");
            tr.span("net.finish", |_| (p.finish(RunOutcome::HorizonReached), 1))
        });
        let mut failures = Vec::new();
        if a != b {
            failures.push("the two identical simulations diverged".to_string());
        }
        let seq = gs_sequence_errors(&a);
        if seq != 0 {
            failures.push(format!("{seq} GS sequence errors"));
        }
        if a.gs_flows.iter().any(|&i| a.flows[i].delivered == 0) {
            failures.push("a GS stream delivered nothing".to_string());
        }
        failures
    }

    fn layer_sample(&mut self) -> LayerSample {
        LayerSample {
            profile: self.profile.take(),
            ..Default::default()
        }
    }
}

// ------------------------------------------------------------------
// churn_8x8 / serving_vopd / recovery_8x8: one engine run per slice
// ------------------------------------------------------------------

/// What the three engine workloads differ in.
trait EngineSpec {
    /// The engine's metrics struct.
    type Metrics: std::fmt::Debug;
    /// Name of the span around one run.
    const SPAN: &'static str;
    fn run(&self) -> Self::Metrics;
    fn scenario(m: &Self::Metrics) -> &ScenarioMetrics;
    /// Fills offered/admitted and checks the engine's own outputs.
    fn check(m: &Self::Metrics, out: &mut SliceOut);
    /// Hands class 0's metrics to the traced pass.
    fn keep(m: Self::Metrics, sample: &mut LayerSample);
    /// Checks that need a run of their own, made once after the last
    /// slice on class 0's spec; returns the failed ones.
    fn teardown_checks(&self, _tr: &mut Tracer) -> Vec<String> {
        Vec::new()
    }
}

/// One engine run per slice, cycling through the classes' specs.
struct Engine<S: EngineSpec> {
    specs: Vec<S>,
    /// Class 0's first metrics.
    sample: Option<S::Metrics>,
}

impl<S: EngineSpec> Engine<S> {
    fn new(specs: impl Iterator<Item = S>) -> Self {
        Engine {
            specs: specs.collect(),
            sample: None,
        }
    }
}

impl<S: EngineSpec> Workload for Engine<S> {
    fn slice(&mut self, i: usize, tr: &mut Tracer) -> SliceOut {
        let class = i % self.specs.len();
        let spec = &self.specs[class];
        let m = tr.span(S::SPAN, |_| {
            let m = spec.run();
            let events = S::scenario(&m).events;
            (m, events)
        });
        let mut out = SliceOut::new(class as u64, S::scenario(&m).events);
        out.digest = debug_digest(&m);
        S::check(&m, &mut out);
        if class == 0 && self.sample.is_none() {
            self.sample = Some(m);
        }
        out
    }

    fn finish(&mut self, tr: &mut Tracer) -> Vec<String> {
        self.specs[0].teardown_checks(tr)
    }

    fn layer_sample(&mut self) -> LayerSample {
        let mut sample = LayerSample::default();
        if let Some(m) = self.sample.take() {
            S::keep(m, &mut sample);
        }
        sample
    }
}

impl EngineSpec for ChurnSpec {
    type Metrics = ChurnMetrics;
    const SPAN: &'static str = "qos.churn_run";

    fn run(&self) -> ChurnMetrics {
        ChurnSpec::run(self)
    }

    fn scenario(m: &ChurnMetrics) -> &ScenarioMetrics {
        &m.scenario
    }

    fn check(m: &ChurnMetrics, out: &mut SliceOut) {
        (out.offered, out.admitted) = (m.requests, m.admitted);
        out.check_guarantees(m.bound_violations(), m.worst_bound_ratio(), &m.scenario);
        out.check(m.requests > 0 && m.admitted > 0, || {
            "churn admitted nothing".to_string()
        });
        out.check(m.requests == m.admitted + m.rejected(), || {
            "admitted + rejected != requests".to_string()
        });
    }

    fn keep(m: ChurnMetrics, sample: &mut LayerSample) {
        sample.churn = Some(m);
    }
}

impl EngineSpec for ServingSpec {
    type Metrics = ServingMetrics;
    const SPAN: &'static str = "apps.serving_run";

    fn run(&self) -> ServingMetrics {
        ServingSpec::run(self)
    }

    fn scenario(m: &ServingMetrics) -> &ScenarioMetrics {
        &m.scenario
    }

    fn check(m: &ServingMetrics, out: &mut SliceOut) {
        (out.offered, out.admitted) = (m.offered, m.admitted);
        out.check_guarantees(m.bound_violations(), m.worst_bound_ratio(), &m.scenario);
        out.check(m.offered > 0 && m.admitted > 0, || {
            "serving admitted nothing".to_string()
        });
    }

    /// The budget-return check. In a timed slice arrivals last to the
    /// end of the window, so some instance is always still open and
    /// `budgets_clean` says nothing; this run stops arrivals after
    /// [`DRAIN_APPS`] and lasts until every admitted instance has closed.
    fn teardown_checks(&self, tr: &mut Tracer) -> Vec<String> {
        let mut spec = self.clone();
        spec.max_apps = DRAIN_APPS;
        spec.base = spec.base.measure_for(DRAIN_HORIZON);
        let m = tr.span("apps.serving_drain", |_| {
            let m = spec.run();
            let events = m.scenario.events;
            (m, events)
        });
        let mut failures = Vec::new();
        if m.admitted == 0 || m.admitted != m.closed {
            failures.push(format!(
                "the drain run admitted {} and closed {}: budgets unchecked",
                m.admitted, m.closed
            ));
        } else if !m.budgets_clean {
            failures.push("admission budgets leaked after full teardown".to_string());
        }
        failures
    }

    fn keep(m: ServingMetrics, sample: &mut LayerSample) {
        sample.serving = Some(m);
    }
}

impl EngineSpec for RecoverySpec {
    type Metrics = RecoveryMetrics;
    const SPAN: &'static str = "qos.recovery_run";

    fn run(&self) -> RecoveryMetrics {
        RecoverySpec::run(self)
    }

    fn scenario(m: &RecoveryMetrics) -> &ScenarioMetrics {
        &m.scenario
    }

    fn check(m: &RecoveryMetrics, out: &mut SliceOut) {
        // Managed connections that are healthy or were healed.
        out.offered = m.records.len() as u64;
        out.admitted = out.offered - m.rejected - m.degraded;
        // Broken streams lose flits (`flits_lost`), so in-order delivery
        // is not the check here; the recomputed bound of every healed
        // stream is.
        let violations = m.post_bound_violations();
        let worst = m
            .records
            .iter()
            .filter_map(|r| Some(r.post_observed_max_ns? / r.post_bound_ns?))
            .fold(0.0, f64::max);
        out.bound_violations = violations;
        out.bound_ratio_worst = worst;
        out.check(violations == 0, || {
            format!("{violations} healed streams exceeded their recomputed bound")
        });
        out.check(worst <= 1.0, || {
            format!("worst post-recovery observed/bound ratio {worst} > 1")
        });
        out.check(m.scenario.outcome.is_ok(), || {
            format!("run ended {:?}", m.scenario.outcome)
        });
    }

    fn keep(m: RecoveryMetrics, sample: &mut LayerSample) {
        sample.recovery = Some(m);
    }
}

// ------------------------------------------------------------------
// planner_vopd
// ------------------------------------------------------------------

/// Control plane only — no simulation. Per arrival: place the
/// application, request every edge (release all on any failure), and
/// release the instance admitted [`PLANNER_HOLD`] arrivals earlier.
pub struct Planner {
    ctl: AdmissionController,
    graphs: [TaskGraph; 2],
    arrivals: Vec<Vec<PlannerArrival>>,
}

/// What one planner loop did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerTally {
    /// Placements the dry run called admissible.
    pub admissible: u64,
    /// Instances whose every edge was then admitted.
    pub admitted: u64,
    /// `request` calls made.
    pub requests: u64,
    /// Digest of every admitted placement.
    pub digest: u32,
}

impl Planner {
    /// Compiles the chiplet topology, the controller, both task graphs
    /// and the arrival lists of every class.
    pub fn new(seed: u64, tr: &mut Tracer) -> Self {
        let grid = tr.span("net.topology_compile", |_| {
            (Grid::from_spec(&inputs::planner_topology()), 1)
        });
        Planner {
            ctl: tr.span("qos.controller_new", |_| (controller(grid), 1)),
            graphs: tr.span("apps.graph_build", |_| (inputs::planner_graphs(), 2)),
            arrivals: (0..inputs::classes("planner_vopd"))
                .map(|c| inputs::planner_arrivals(inputs::derive(seed, "planner_vopd", c)))
                .collect(),
        }
    }

    /// One full loop over `class`'s arrivals with `placer`. Leaves the
    /// controller with nothing reserved.
    pub fn run_loop(&mut self, class: usize, placer: PlacerKind, tr: &mut Tracer) -> PlannerTally {
        let Planner {
            ctl,
            graphs,
            arrivals,
        } = self;
        let mut tally = PlannerTally::default();
        let mut live: VecDeque<Vec<Admission>> = VecDeque::with_capacity(PLANNER_HOLD + 1);
        let mut placed: Vec<u8> = Vec::new();
        for arrival in &arrivals[class] {
            let graph = &graphs[arrival.graph];
            let placement = tr.span("apps.place", |_| {
                (placer.place(graph, ctl, arrival.placer_seed), 1)
            });
            let mut held = Vec::new();
            if placement.admissible() {
                tally.admissible += 1;
                let mut ok = true;
                for e in &graph.edges {
                    let (src, dst) = (placement.assign[e.from], placement.assign[e.to]);
                    if src == dst {
                        continue;
                    }
                    let req = ConnRequest {
                        src,
                        dst,
                        period: TaskGraph::period(e.rate_fps),
                    };
                    tally.requests += 1;
                    match tr.span("qos.request", |_| (ctl.request(&req), 1)) {
                        Ok(adm) => held.push(adm),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    tally.admitted += 1;
                    placed.extend(placement.assign.iter().flat_map(|r| [r.x, r.y]));
                } else {
                    release_all(ctl, &mut held, tr);
                }
            }
            live.push_back(held);
            if live.len() > PLANNER_HOLD {
                let mut oldest = live.pop_front().expect("just checked");
                release_all(ctl, &mut oldest, tr);
            }
        }
        for mut held in live {
            release_all(ctl, &mut held, tr);
        }
        tally.digest = fnv32(&placed);
        tally
    }
}

fn release_all(ctl: &mut AdmissionController, held: &mut Vec<Admission>, tr: &mut Tracer) {
    for adm in held.drain(..) {
        tr.span("qos.release", |_| (ctl.release(&adm), 1));
    }
}

impl Workload for Planner {
    fn slice(&mut self, i: usize, tr: &mut Tracer) -> SliceOut {
        let class = i % self.arrivals.len();
        let tally = tr.span("apps.planner_loop", |tr| {
            let t = self.run_loop(class, PLACER, tr);
            (t, inputs::PLANNER_ARRIVALS as u64)
        });
        let mut out = SliceOut::new(class as u64, 0);
        out.work = inputs::PLANNER_ARRIVALS as u64;
        (out.offered, out.admitted) = (inputs::PLANNER_ARRIVALS as u64, tally.admitted);
        out.digest = debug_digest(&tally);
        out.check(self.ctl.nothing_reserved(), || {
            "budgets not returned after releasing every instance".to_string()
        });
        // A zero-failure dry run is an admission proof.
        out.check(tally.admitted == tally.admissible, || {
            format!(
                "{} admissible placements but {} admitted",
                tally.admissible, tally.admitted
            )
        });
        out.check(tally.admitted > 0, || "nothing was admitted".to_string());
        out
    }
}

// ------------------------------------------------------------------
// sweep_short
// ------------------------------------------------------------------

/// Many short jobs: the whole smoke sweep plus its CSV rows per slice,
/// so set-up, topology compile and record rendering are a visible share.
struct Sweep {
    specs: Vec<SweepSpec>,
}

/// Runs `spec` on `threads` workers and renders its CSV.
pub fn sweep_once(spec: &SweepSpec, threads: usize, tr: &mut Tracer) -> (Vec<SweepRecord>, String) {
    let records = tr.span("sweep.run", |_| {
        let r = run_sweep(spec, threads);
        let n = r.len() as u64;
        (r, n)
    });
    let csv = tr.span("sweep.csv", |_| {
        let mut csv = String::from(SweepRecord::csv_header());
        for r in &records {
            csv.push('\n');
            csv.push_str(&r.csv_row());
        }
        (csv, records.len() as u64)
    });
    (records, csv)
}

impl Workload for Sweep {
    fn slice(&mut self, i: usize, tr: &mut Tracer) -> SliceOut {
        let class = i % self.specs.len();
        let (records, csv) = sweep_once(&self.specs[class], 1, tr);
        let events = records.iter().map(|r| r.events).sum();
        let mut out = SliceOut::new(class as u64, events);
        // Static GS connections opened ÷ requested: a job panics unless
        // all of its connections opened.
        out.offered = records.iter().map(|r| u64::from(r.job.gs_conns)).sum();
        out.admitted = out.offered;
        out.digest = fnv32(csv.as_bytes());
        out.check(records.len() == self.specs[class].len(), || {
            format!(
                "{} records for {} jobs",
                records.len(),
                self.specs[class].len()
            )
        });
        out.check(
            records
                .iter()
                .all(|r| (r.job.gs_conns == 0) == (r.gs_delivered == 0)),
            || "a job's GS streams delivered nothing".to_string(),
        );
        out
    }
}
