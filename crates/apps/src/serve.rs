//! The app-serving workload: whole application instances arriving,
//! placing, opening their full GS connection set, streaming, and
//! departing — the workload behind the capacity curves.
//!
//! An instance is one connection group per [`TaskGraph`] on the shared
//! control-plane [`driver`](mango_qos::driver), which owns the action
//! heap, the run loop, the arrival process and the **all-or-nothing**
//! open/close lifecycle with its exact budget return (see its module
//! docs for the state machine). What is serving's own:
//!
//! * **what arrives** — the instance is placed by the spec's
//!   [`PlacerKind`] (seeded from fork 2 of the engine seed,
//!   `base.seed ^ 0x5E41_11CE`), then every
//!   inter-node edge is admitted in declaration order; an edge failing
//!   admission or its required latency bound rejects the whole instance
//!   (typed by [`AppRejectReason`]) and returns the admissions made so
//!   far;
//! * **when streams attach** — one CBR stream per edge at the edge's
//!   rate once every connection is open, if any stream window remains;
//! * **what is recorded** — per instance, setup latency (arrival → last
//!   open-ack) and delivered flits; per run, the [`GuaranteeAudit`] of
//!   every edge stream against its admitted bound.
//!
//! A [`ServingSpec`] run is a pure function of the spec and the placers
//! are deterministic, so sweep CSVs are byte-identical at any worker
//! count.

use crate::graph::TaskGraph;
use crate::place::PlacerKind;
use mango_core::RouterId;
use mango_net::{PreparedScenario, ScenarioMetrics, ScenarioSpec, TelemetryConfig};
use mango_qos::driver::{max_ns, mean_ns, Arrival, ArrivalSpec, ControlPlane, Event, Lifecycle};
use mango_qos::{Admission, ConnRequest, GuaranteeAudit, RejectReason};
use mango_sim::{RunOutcome, SimDuration, SimRng, SimTime};
use mango_telemetry::TelemetryReport;

/// Why a whole app instance was refused service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppRejectReason {
    /// An edge failed admission (the controller's reason).
    Admission(RejectReason),
    /// Every edge admitted, but one's analytical worst case exceeded
    /// its required latency bound.
    BoundExceeded,
    /// Admission succeeded but an in-band open failed; everything was
    /// rolled back.
    OpenFailed,
}

impl AppRejectReason {
    /// Stable short name for CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            AppRejectReason::Admission(_) => "admission",
            AppRejectReason::BoundExceeded => "bound-exceeded",
            AppRejectReason::OpenFailed => "open-failed",
        }
    }
}

/// A complete serving experiment: a base scenario plus the app-instance
/// workload layered on it.
#[derive(Debug, Clone)]
pub struct ServingSpec {
    /// The base scenario. `measure` must be [`mango_net::MeasureBound::For`].
    /// Its seed also seeds the engine's streams (arrivals, holdings,
    /// placer), salted so they do not repeat the base's.
    pub base: ScenarioSpec,
    /// The application every instance runs.
    pub graph: TaskGraph,
    /// Placement strategy for each arriving instance.
    pub placer: PlacerKind,
    /// Mean gap between instance arrivals (Poisson).
    pub arrival_gap: SimDuration,
    /// Mean instance lifetime (exponential), arrival → teardown.
    pub holding_mean: SimDuration,
    /// Floor on lifetimes (must exceed `2 × drain_margin`).
    pub holding_min: SimDuration,
    /// How long before teardown the streams stop (teardown requires
    /// quiet circuits).
    pub drain_margin: SimDuration,
    /// Hard cap on offered instances.
    pub max_apps: u64,
}

impl ServingSpec {
    /// A serving skeleton: `graph` instances arriving on a base
    /// scenario, moderate rates, 30 µs mean lifetime.
    pub fn new(base: ScenarioSpec, graph: TaskGraph, placer: PlacerKind) -> Self {
        ServingSpec {
            base,
            graph,
            placer,
            arrival_gap: SimDuration::from_us(5),
            holding_mean: SimDuration::from_us(30),
            holding_min: SimDuration::from_us(8),
            drain_margin: SimDuration::from_us(1),
            max_apps: u64::MAX,
        }
    }

    /// The seed of the engine's random streams.
    fn serve_seed(&self) -> u64 {
        self.base.seed ^ 0x5E41_11CE
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if `base.measure` is not [`mango_net::MeasureBound::For`], if the
    /// margins are inconsistent, or if the graph fails
    /// [`TaskGraph::validate`].
    pub fn run(&self) -> ServingMetrics {
        let (metrics, _) = self.run_inner(None);
        metrics
    }

    /// Like [`ServingSpec::run`], with the telemetry sink active: the
    /// report carries the `admission.*` residual gauges, refreshed on
    /// every app open and close.
    pub fn run_with_telemetry(&self, cfg: TelemetryConfig) -> (ServingMetrics, TelemetryReport) {
        let (metrics, report) = self.run_inner(Some(cfg));
        (metrics, report.expect("telemetry was enabled"))
    }

    fn run_inner(&self, cfg: Option<TelemetryConfig>) -> (ServingMetrics, Option<TelemetryReport>) {
        self.graph.validate().expect("serving graph is well-formed");
        let (prepared, lc) = self.start(cfg);
        Engine::new(self, lc).run(prepared)
    }

    /// Prepares the base scenario and starts the window and the arrivals.
    fn start(&self, cfg: Option<TelemetryConfig>) -> (PreparedScenario, Lifecycle) {
        let (mut prepared, cp) = ControlPlane::prepare(&self.base, cfg);
        let arrivals = ArrivalSpec {
            seed: self.serve_seed(),
            gap: self.arrival_gap,
            holding_mean: self.holding_mean,
            holding_min: self.holding_min,
            drain_margin: self.drain_margin,
            max: self.max_apps,
        };
        let lc = Lifecycle::start(cp, &mut prepared, arrivals);
        (prepared, lc)
    }
}

/// The fate of one offered app instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutcome {
    /// Instance ordinal (arrival order).
    pub app: u64,
    /// When the instance arrived.
    pub requested_at: SimTime,
    /// `None` = served; `Some` = why the whole instance was refused.
    pub rejected: Option<AppRejectReason>,
    /// Inter-node GS connections the instance opened (co-located edges
    /// need none).
    pub conns: usize,
    /// Total path links over the instance's admitted connections.
    pub hops: usize,
    /// Lifetime drawn for the instance.
    pub holding: SimDuration,
    /// Arrival → last connection open-acked.
    pub setup: Option<SimDuration>,
    /// Flits injected across the instance's streams.
    pub injected: u64,
    /// Flits delivered across the instance's streams.
    pub delivered: u64,
    /// Teardown of every connection completed inside the window.
    pub closed: bool,
}

/// Everything a serving run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingMetrics {
    /// The base scenario's metrics (per-edge serving streams included).
    pub scenario: ScenarioMetrics,
    /// Per-instance outcomes, in arrival order.
    pub apps: Vec<AppOutcome>,
    /// Instances offered.
    pub offered: u64,
    /// Instances fully admitted and opened.
    pub admitted: u64,
    /// Instances refused at admission, by controller reason
    /// (indexed as [`RejectReason::ALL`]).
    pub rejected_admission: [u64; RejectReason::ALL.len()],
    /// Instances refused because an edge broke its latency bound.
    pub rejected_bound: u64,
    /// Instances rolled back because an in-band open failed.
    pub rejected_open: u64,
    /// Instances whose teardown completed inside the window.
    pub closed: u64,
    /// Most instances simultaneously live.
    pub peak_live: u64,
    /// Programming packets processed by all routers.
    pub prog_packets: u64,
    /// The admission budgets returned exactly to their post-static
    /// state once every served instance closed (leak detection; only
    /// meaningful when `admitted == closed`).
    pub budgets_clean: bool,
    /// Every edge stream's observed worst latency against its admitted
    /// bound, in stream-attach order.
    pub audit: GuaranteeAudit,
}

impl ServingMetrics {
    /// Total refused instances.
    pub fn rejected(&self) -> u64 {
        self.rejected_admission.iter().sum::<u64>() + self.rejected_bound + self.rejected_open
    }

    /// [`GuaranteeAudit::violations`] (must be zero).
    pub fn bound_violations(&self) -> u64 {
        self.audit.violations()
    }

    /// [`GuaranteeAudit::worst_bound_ratio`] over every streamed edge.
    pub fn worst_bound_ratio(&self) -> f64 {
        self.audit.worst_bound_ratio()
    }

    /// Mean setup latency over served instances, ns.
    pub fn setup_mean_ns(&self) -> f64 {
        mean_ns(self.apps.iter().filter_map(|a| a.setup))
    }

    /// Worst setup latency, ns.
    pub fn setup_max_ns(&self) -> f64 {
        max_ns(self.apps.iter().filter_map(|a| a.setup))
    }
}

/// The `admission.*` gauge counting instances currently served.
const LIVE_GAUGE: &str = "admission.apps_live";

struct Engine<'a> {
    spec: &'a ServingSpec,
    lc: Lifecycle,
    placements: SimRng,
    outcomes: Vec<AppOutcome>,
}

impl<'a> Engine<'a> {
    fn new(spec: &'a ServingSpec, lc: Lifecycle) -> Self {
        Engine {
            spec,
            placements: SimRng::new(spec.serve_seed()).fork(2),
            outcomes: Vec::with_capacity(lc.expected_requests()),
            lc,
        }
    }

    fn run(mut self, mut prepared: PreparedScenario) -> (ServingMetrics, Option<TelemetryReport>) {
        self.lc.record_live_gauges(&mut prepared, LIVE_GAUGE);
        while let Some(event) = self.lc.next_event(&mut prepared) {
            match event {
                Event::Arrive(arrival) => self.on_arrive(&mut prepared, arrival),
                Event::Opened(i) => self.on_opened(&mut prepared, i),
                Event::Closed(i) => {
                    self.outcomes[self.lc.group(i).ordinal].closed = true;
                    self.lc.record_live_gauges(&mut prepared, LIVE_GAUGE);
                }
            }
        }
        self.collect(prepared)
    }

    /// Requests every inter-node edge of a placed instance in
    /// declaration order; on the first failure the admissions made so
    /// far are returned exactly.
    fn admit(&mut self, assign: &[RouterId]) -> Result<Vec<Admission>, AppRejectReason> {
        let controller = &mut self.lc.cp.admission;
        let mut admissions: Vec<Admission> = Vec::with_capacity(self.spec.graph.edges.len());
        for e in &self.spec.graph.edges {
            let (src, dst) = (assign[e.from], assign[e.to]);
            if src == dst {
                continue;
            }
            let req = ConnRequest {
                src,
                dst,
                period: TaskGraph::period(e.rate_fps),
            };
            let reject = match controller.request(&req) {
                Ok(adm) => {
                    let within = e.admits(adm.report.worst_latency);
                    admissions.push(adm);
                    (!within).then_some(AppRejectReason::BoundExceeded)
                }
                Err(reason) => Some(AppRejectReason::Admission(reason)),
            };
            if let Some(reason) = reject {
                for adm in &admissions {
                    controller.release(adm);
                }
                return Err(reason);
            }
        }
        Ok(admissions)
    }

    fn on_arrive(&mut self, prepared: &mut PreparedScenario, arrival: Arrival) {
        let now = prepared.sim().now();
        let mut outcome = AppOutcome {
            app: arrival.ordinal as u64,
            requested_at: now,
            rejected: None,
            conns: 0,
            hops: 0,
            holding: arrival.holding,
            setup: None,
            injected: 0,
            delivered: 0,
            closed: false,
        };

        let placement = self.spec.placer.place(
            &self.spec.graph,
            &mut self.lc.cp.admission,
            self.placements.next_u64(),
        );
        match self.admit(&placement.assign) {
            Ok(admissions) => match self.lc.open_group(prepared, admissions, &arrival) {
                Some(i) => {
                    let conns = &self.lc.group(i).conns;
                    outcome.conns = conns.len();
                    outcome.hops = conns.iter().map(|c| c.admission.hops()).sum();
                    self.lc.record_live_gauges(prepared, LIVE_GAUGE);
                }
                None => outcome.rejected = Some(AppRejectReason::OpenFailed),
            },
            Err(reason) => outcome.rejected = Some(reason),
        }
        self.outcomes.push(outcome);
        self.lc.schedule_arrival(now);
    }

    fn on_opened(&mut self, prepared: &mut PreparedScenario, i: usize) {
        let group = self.lc.group(i);
        let (stream_stop, edges) = (group.stream_stop, group.conns.len());
        let outcome = &mut self.outcomes[group.ordinal];
        let now = prepared.sim().now();
        outcome.setup = Some(now.since(outcome.requested_at));
        if now + SimDuration::from_ns(1) >= stream_stop {
            return;
        }
        for k in 0..edges {
            let period = TaskGraph::period(self.lc.group(i).conns[k].admission.rate_fps);
            let name = format!("app{}-e{k}", outcome.app);
            self.lc.attach_stream(prepared, i, k, period, name);
        }
    }

    fn collect(
        mut self,
        mut prepared: PreparedScenario,
    ) -> (ServingMetrics, Option<TelemetryReport>) {
        let end = self.lc.finish(&mut prepared);
        let scenario = prepared.finish(RunOutcome::HorizonReached);
        for group in &end.groups {
            let outcome = &mut self.outcomes[group.ordinal];
            for e in &group.conns {
                let Some(idx) = e.metric else { continue };
                let f = &scenario.flows[idx];
                outcome.injected += f.injected;
                outcome.delivered += f.delivered;
            }
        }
        let rejected = |why| {
            let refused = self.outcomes.iter().filter(|a| a.rejected == Some(why));
            refused.count() as u64
        };
        let metrics = ServingMetrics {
            offered: end.requests,
            admitted: end.groups.len() as u64,
            rejected_admission: RejectReason::ALL.map(|r| rejected(AppRejectReason::Admission(r))),
            rejected_bound: rejected(AppRejectReason::BoundExceeded),
            rejected_open: rejected(AppRejectReason::OpenFailed),
            closed: end.closed,
            peak_live: end.peak_live,
            prog_packets: end.run.prog_packets,
            budgets_clean: end.run.budgets_clean,
            audit: end.run.audit,
            scenario,
            apps: self.outcomes,
        };
        (metrics, end.run.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    fn small_spec(seed: u64) -> ServingSpec {
        let base = ScenarioSpec::mesh(4, 4, seed).measure_for(SimDuration::from_us(60));
        let mut spec = ServingSpec::new(base, graph::pipeline(4, 10_000_000), PlacerKind::Greedy);
        spec.arrival_gap = SimDuration::from_us(3);
        spec.holding_mean = SimDuration::from_us(10);
        spec.holding_min = SimDuration::from_us(4);
        spec.max_apps = 20;
        spec
    }

    #[test]
    fn serving_opens_streams_and_closes_cleanly() {
        let m = small_spec(3).run();
        assert!(m.offered >= 10, "expected a busy window: {}", m.offered);
        assert!(m.admitted > 0);
        assert!(m.closed > 0, "teardowns must complete inside the window");
        assert!(m.prog_packets > 0, "programming traffic is real packets");
        assert_eq!(m.bound_violations(), 0);
        let streamed: Vec<_> = m.apps.iter().filter(|a| a.delivered > 0).collect();
        assert!(!streamed.is_empty(), "some instances must stream");
        for a in streamed {
            assert_eq!(a.injected, a.delivered, "GS delivery is lossless");
        }
        if m.admitted == m.closed {
            assert!(m.budgets_clean, "all instances closed yet budgets leaked");
        }
    }

    #[test]
    fn serving_is_deterministic() {
        let a = small_spec(7).run();
        let b = small_spec(7).run();
        assert_eq!(a.apps, b.apps);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.prog_packets, b.prog_packets);
    }

    #[test]
    fn saturating_arrivals_reject_whole_instances() {
        let base = ScenarioSpec::mesh(3, 3, 11).measure_for(SimDuration::from_us(60));
        let mut spec = ServingSpec::new(base, graph::vopd(), PlacerKind::Greedy);
        spec.arrival_gap = SimDuration::from_us(1);
        spec.holding_mean = SimDuration::from_us(60);
        spec.holding_min = SimDuration::from_us(25);
        spec.max_apps = 30;
        let m = spec.run();
        assert!(m.admitted > 0, "the first instances fit: {m:?}");
        assert!(
            m.rejected() > 0,
            "a 3x3 mesh cannot hold 30 concurrent VOPDs: {:?}",
            (m.offered, m.admitted)
        );
        assert_eq!(m.bound_violations(), 0);
        // All-or-nothing: a rejected instance opened no connections.
        for a in &m.apps {
            if a.rejected.is_some() {
                assert_eq!(a.conns, 0, "app {} leaked connections", a.app);
                assert_eq!(a.delivered, 0);
            }
        }
    }

    #[test]
    fn annealing_serves_at_least_as_many_as_greedy() {
        let build = |placer| {
            let base = ScenarioSpec::mesh(4, 4, 19).measure_for(SimDuration::from_us(70));
            let mut spec = ServingSpec::new(base, graph::mwd(), placer);
            spec.arrival_gap = SimDuration::from_us(2);
            spec.holding_mean = SimDuration::from_us(50);
            spec.holding_min = SimDuration::from_us(15);
            spec.max_apps = 12;
            spec
        };
        let g = build(PlacerKind::Greedy).run();
        let a = build(PlacerKind::Anneal { iters: 24 }).run();
        assert!(
            a.admitted >= g.admitted,
            "annealing admitted {} < greedy {}",
            a.admitted,
            g.admitted
        );
        assert_eq!(a.bound_violations() + g.bound_violations(), 0);
    }

    #[test]
    fn open_failure_releases_every_admission() {
        // Quarantine every GS VC in the fabric after the base scenario
        // prepares. The admission controller cannot see quarantine, so
        // each arriving instance admits its full edge set and then fails
        // the very first in-band open — the OpenFailed rollback path with
        // a non-empty tail of never-opened admissions. Those tail budgets
        // must be returned exactly (this leaked before: the drain's
        // unvisited remainder was dropped without release).
        let spec = small_spec(5);
        let (mut prepared, lc) = spec.start(None);
        {
            let sim = prepared.sim_mut();
            let grid = sim.network().grid().clone();
            let gs_vcs = sim.network().router_cfg().gs_vcs();
            let conns = sim.network_mut().connections_mut();
            for idx in 0..grid.len() {
                let from = grid.id_at(idx);
                for dir in mango_core::Direction::ALL {
                    if grid.neighbor(from, dir).is_some() {
                        for vc in 0..gs_vcs {
                            conns.quarantine_vc(&grid, from, dir, mango_core::VcId(vc as u8));
                        }
                    }
                }
            }
        }
        let (m, _) = Engine::new(&spec, lc).run(prepared);
        assert!(m.rejected_open > 0, "opens must fail: {m:?}");
        assert_eq!(m.admitted, 0, "nothing can open on a quarantined mesh");
        assert!(
            m.budgets_clean,
            "OpenFailed rollback must return every admission, including \
             the never-opened tail"
        );
        for a in &m.apps {
            assert_eq!(a.conns, 0, "app {} leaked connections", a.app);
        }
    }

    #[test]
    fn gauges_exported_when_telemetry_active() {
        let mut spec = small_spec(5);
        spec.max_apps = 6;
        let (m, report) = spec.run_with_telemetry(TelemetryConfig::default());
        assert!(m.admitted > 0);
        let names = report.metrics.gauge_names();
        assert!(
            names.contains(&"admission.free_vcs"),
            "admission gauges missing from {names:?}"
        );
        assert!(names.contains(&"admission.apps_live"));
    }
}
