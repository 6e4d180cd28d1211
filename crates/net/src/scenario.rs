//! Declarative experiment scenarios.
//!
//! A [`ScenarioSpec`] is a complete, self-contained description of one
//! simulation run: mesh geometry, GS connections with their sources, and
//! a list of composable [`TrafficSpec`] traffic models (spatial ×
//! temporal — see [`crate::traffic`]), plus warmup and measurement
//! phases. [`ScenarioSpec::run`] builds a fresh [`NocSim`], executes the
//! scenario and returns typed [`ScenarioMetrics`] — so a scenario can be
//! shipped to a worker thread and run with **zero shared state**, which
//! is what makes parameter sweeps embarrassingly parallel.
//!
//! Specs compose fluently:
//!
//! ```
//! use mango_net::{ScenarioSpec, SpatialPattern, TemporalSpec, TrafficSpec};
//! use mango_core::RouterId;
//! use mango_sim::SimDuration;
//!
//! let spec = ScenarioSpec::mesh(4, 4, 7)
//!     .warmup(SimDuration::from_us(5))
//!     .measure_for(SimDuration::from_us(20))
//!     .gs(RouterId::new(0, 0), RouterId::new(3, 3), TemporalSpec::cbr(SimDuration::from_ns(12)))
//!     .traffic(TrafficSpec::new(
//!         SpatialPattern::Transpose,
//!         TemporalSpec::poisson(SimDuration::from_ns(300)),
//!     ));
//! let metrics = spec.run();
//! assert!(metrics.gs(0).delivered > 0);
//! ```
//!
//! # Determinism contract
//!
//! Two runs of an identical `ScenarioSpec` produce bit-identical
//! [`ScenarioMetrics`], on any thread, regardless of what other scenarios
//! run concurrently. This holds because the construction sequence is
//! fixed and documented (below), every traffic source draws from an RNG
//! stream forked deterministically from the scenario seed in attachment
//! order, and the simulation kernel itself is sequential and
//! deterministic.
//!
//! Construction order (the RNG stream a source receives is its position
//! in this sequence):
//!
//! 1. build the network of paper routers ([`RouterConfig::paper`]) from
//!    `(topology or width × height, seed)`;
//! 2. open every GS connection in `gs` order, then settle programming
//!    traffic (skipped when there are no connections);
//! 3. attach [`Phase::Setup`] sources: GS flows in `gs` order, then
//!    [`TrafficSpec`]s in `traffic` order (a distributed spec attaches
//!    one source per node in grid-id order);
//! 4. run for `warmup` (skipped when zero);
//! 5. begin the measurement window;
//! 6. attach [`Phase::Measure`] sources in the same within-phase order;
//! 7. run to the `measure` bound (fixed span or quiescence).
//!
//! This sequence reproduces, step for step, what the original repro
//! binaries did imperatively — their outputs are bit-identical to a
//! hand-rolled [`NocSim`] driven the same way. In particular a
//! [`SpatialPattern::UniformRandom`] traffic spec draws the **exact RNG
//! sequence** of the historical materialized-pool background, so
//! recorded goldens survive the traffic-model redesign byte for byte
//! (pinned by this module's tests).

use crate::conn::ConnState;
use crate::na::NaConfig;
use crate::network::Network;
use crate::sim::{EmitWindow, NocSim};
use crate::topology::{Grid, TopologySpec};
use crate::traffic::{SpatialPattern, TemporalSpec};
use mango_core::{RouterConfig, RouterId};
use mango_sim::{RunOutcome, SimDuration};

/// When a source is attached: before warmup or at measurement start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Attached before the warmup run (traffic present during warmup).
    Setup,
    /// Attached immediately after the measurement window opens.
    Measure,
}

/// How the measurement run terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureBound {
    /// Run for a fixed span of simulated time.
    For(SimDuration),
    /// Run until the event queue drains (bounded sources required).
    ToQuiescence,
}

/// A GS connection with an attached CBR/Poisson flit source.
#[derive(Debug, Clone)]
pub struct GsFlowSpec {
    /// Connection source router.
    pub src: RouterId,
    /// Connection destination router.
    pub dst: RouterId,
    /// Emission pattern.
    pub pattern: TemporalSpec,
    /// Flow name in the statistics registry.
    pub name: String,
    /// Emission bounds.
    pub window: EmitWindow,
    /// Attachment phase.
    pub phase: Phase,
}

/// One composable traffic model: a [`SpatialPattern`] (where packets go)
/// × a [`TemporalSpec`] (when they are emitted).
///
/// With `src: None` the spec is **distributed**: one source per mesh
/// node (in grid-id order), each named `{name_prefix}{node}` — the shape
/// of background interference. With `src: Some(node)` it is a single
/// point source named `name_prefix` verbatim — the shape of an explicit
/// probe flow.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// `None` = one source per node; `Some` = a single point source.
    pub src: Option<RouterId>,
    /// Destination model (computed per emission).
    pub spatial: SpatialPattern,
    /// Emission timing.
    pub temporal: TemporalSpec,
    /// Payload words per packet (flits = payload + header).
    pub payload_words: usize,
    /// Attachment phase.
    pub phase: Phase,
    /// Emission bounds.
    pub window: EmitWindow,
    /// Flow-name prefix; distributed specs append the node id
    /// (e.g. `"bg-"` → `"bg-(1,2)"`), point sources use it verbatim.
    pub name_prefix: String,
}

impl TrafficSpec {
    /// A distributed `spatial × temporal` traffic model with the
    /// conventional defaults: 4 payload words, [`Phase::Setup`],
    /// unbounded emission window, `"bg-"` name prefix.
    pub fn new(spatial: SpatialPattern, temporal: TemporalSpec) -> Self {
        TrafficSpec {
            src: None,
            spatial,
            temporal,
            payload_words: 4,
            phase: Phase::Setup,
            window: EmitWindow::default(),
            name_prefix: "bg-".into(),
        }
    }

    /// Uniform-random background at the given mean Poisson gap — the
    /// classic interference workload, one call.
    pub fn uniform_poisson(mean_gap: SimDuration) -> Self {
        TrafficSpec::new(
            SpatialPattern::UniformRandom,
            TemporalSpec::poisson(mean_gap),
        )
    }

    /// Turns the spec into a single point source at `src` (named by the
    /// prefix verbatim).
    pub fn from_node(mut self, src: RouterId) -> Self {
        self.src = Some(src);
        self
    }

    /// Sets the payload words per packet.
    pub fn payload(mut self, words: usize) -> Self {
        self.payload_words = words;
        self
    }

    /// Sets the attachment phase.
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phase = phase;
        self
    }

    /// Sets the emission window.
    pub fn window(mut self, window: EmitWindow) -> Self {
        self.window = window;
        self
    }

    /// Sets the flow-name prefix.
    pub fn named(mut self, prefix: impl Into<String>) -> Self {
        self.name_prefix = prefix.into();
        self
    }
}

/// A complete, runnable experiment description.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Mesh width.
    pub width: u8,
    /// Mesh height.
    pub height: u8,
    /// Topology override: `None` compiles a plain `width × height` mesh
    /// (the historical behavior); `Some` compiles the spec (torus,
    /// chiplet mesh-of-meshes) and `width`/`height` mirror its dims.
    pub topology: Option<TopologySpec>,
    /// Simulation seed (every source stream forks from it).
    pub seed: u64,
    /// Warmup span before the measurement window (zero = none).
    pub warmup: SimDuration,
    /// Measurement termination.
    pub measure: MeasureBound,
    /// GS connections with sources.
    pub gs: Vec<GsFlowSpec>,
    /// Composable traffic models, attached in order.
    pub traffic: Vec<TrafficSpec>,
}

impl ScenarioSpec {
    /// A scenario skeleton on a `width × height` paper mesh: no traffic,
    /// no warmup, fixed measurement span.
    pub fn mesh(width: u8, height: u8, seed: u64) -> Self {
        ScenarioSpec {
            width,
            height,
            topology: None,
            seed,
            warmup: SimDuration::ZERO,
            measure: MeasureBound::For(SimDuration::from_us(100)),
            gs: Vec::new(),
            traffic: Vec::new(),
        }
    }

    /// A scenario skeleton on an arbitrary topology (torus, chiplet
    /// mesh-of-meshes): [`ScenarioSpec::mesh`] generalized through
    /// [`TopologySpec`]. `width`/`height` mirror the compiled dims so
    /// existing coordinate-based traffic specs keep working.
    pub fn on_topology(spec: TopologySpec, seed: u64) -> Self {
        let (width, height) = spec.dims();
        ScenarioSpec {
            topology: Some(spec),
            ..Self::mesh(width, height, seed)
        }
    }

    /// The topology this scenario compiles: the explicit spec, or the
    /// default `width × height` mesh.
    pub fn topology_spec(&self) -> TopologySpec {
        self.topology.unwrap_or(TopologySpec::Mesh {
            width: self.width,
            height: self.height,
        })
    }

    // --------------------------------------------------------------
    // Fluent builder surface
    // --------------------------------------------------------------

    /// Sets the warmup span.
    pub fn warmup(mut self, span: SimDuration) -> Self {
        self.warmup = span;
        self
    }

    /// Measures for a fixed span.
    pub fn measure_for(mut self, span: SimDuration) -> Self {
        self.measure = MeasureBound::For(span);
        self
    }

    /// Measures until the event queue drains (bounded sources required).
    pub fn measure_to_quiescence(mut self) -> Self {
        self.measure = MeasureBound::ToQuiescence;
        self
    }

    /// Adds a GS connection `src → dst` with a source following
    /// `temporal`, auto-named `gs-N`, attached at measurement start.
    /// Use [`ScenarioSpec::gs_flow`] for full control.
    pub fn gs(mut self, src: RouterId, dst: RouterId, temporal: TemporalSpec) -> Self {
        let name = format!("gs-{}", self.gs.len());
        self.gs.push(GsFlowSpec {
            src,
            dst,
            pattern: temporal,
            name,
            window: EmitWindow::default(),
            phase: Phase::Measure,
        });
        self
    }

    /// Adds a fully specified GS flow.
    pub fn gs_flow(mut self, flow: GsFlowSpec) -> Self {
        self.gs.push(flow);
        self
    }

    /// Adds a composable traffic model.
    pub fn traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic.push(spec);
        self
    }

    /// Builds the simulation, executes every phase and collects metrics.
    ///
    /// # Panics
    ///
    /// Panics if a GS connection cannot be opened or programming traffic
    /// fails to settle — a sweep point with an infeasible configuration
    /// is a spec bug, not a measurement.
    pub fn run(&self) -> ScenarioMetrics {
        let mut prepared = self.prepare();
        prepared.start_measurement();
        let outcome = prepared.run_to_bound();
        prepared.finish(outcome)
    }

    /// Executes construction steps 1–3 (mesh, static connections, `Setup`
    /// sources) and hands back the mid-flight scenario, so a driver can
    /// interleave its own activity — the QoS churn engine opens and
    /// closes further connections between run segments — while keeping
    /// the documented construction order (and therefore bit-identical
    /// results for an untouched scenario).
    ///
    /// # Panics
    ///
    /// As [`ScenarioSpec::run`].
    pub fn prepare(&self) -> PreparedScenario {
        let mut sim = NocSim::new(
            Network::new(
                Grid::from_spec(&self.topology_spec()),
                RouterConfig::paper(),
                NaConfig::paper(),
            ),
            self.seed,
        );

        // Open connections up front; sources attach later by phase.
        let conns: Vec<_> = self
            .gs
            .iter()
            .map(|g| {
                sim.open_connection(g.src, g.dst).unwrap_or_else(|e| {
                    panic!("scenario GS connection {}->{} failed: {e}", g.src, g.dst)
                })
            })
            .collect();
        if !conns.is_empty() {
            sim.wait_connections_settled()
                .expect("scenario programming traffic settles");
            for (g, c) in self.gs.iter().zip(&conns) {
                assert_eq!(
                    sim.connection_state(*c),
                    Some(ConnState::Open),
                    "scenario connection {}->{} did not open",
                    g.src,
                    g.dst
                );
            }
        }

        let mut prepared = PreparedScenario {
            spec: self.clone(),
            sim,
            conns,
            flows: Vec::new(),
            gs_flows: Vec::new(),
            be_flows: Vec::new(),
            background_flows: Vec::new(),
        };
        prepared.attach_phase(Phase::Setup);
        prepared
    }
}

/// A scenario mid-flight: simulation built, static connections open,
/// [`Phase::Setup`] sources attached. Produced by
/// [`ScenarioSpec::prepare`]; the canonical sequence is
/// [`PreparedScenario::start_measurement`], then either
/// [`PreparedScenario::run_to_bound`] or caller-driven run segments via
/// [`PreparedScenario::sim_mut`], then [`PreparedScenario::finish`].
#[derive(Debug)]
pub struct PreparedScenario {
    spec: ScenarioSpec,
    sim: NocSim,
    conns: Vec<mango_core::ConnectionId>,
    flows: Vec<(u32, FlowKind)>,
    gs_flows: Vec<usize>,
    be_flows: Vec<usize>,
    background_flows: Vec<usize>,
}

impl PreparedScenario {
    /// The spec this scenario was prepared from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The running simulation.
    pub fn sim(&self) -> &NocSim {
        &self.sim
    }

    /// Mutable simulation access for caller-driven run segments.
    pub fn sim_mut(&mut self) -> &mut NocSim {
        &mut self.sim
    }

    /// Ids of the static GS connections, in spec order.
    pub fn connections(&self) -> &[mango_core::ConnectionId] {
        &self.conns
    }

    /// The simulation's flow id of the spec's `i`-th static GS flow.
    ///
    /// # Panics
    ///
    /// Panics if its phase has not attached it yet.
    pub fn gs_flow(&self, i: usize) -> u32 {
        self.flows[self.gs_flows[i]].0
    }

    /// Construction steps 4–6: run warmup, open the measurement window
    /// and attach the [`Phase::Measure`] sources.
    pub fn start_measurement(&mut self) {
        if !self.spec.warmup.is_zero() {
            self.sim.run_for(self.spec.warmup);
        }
        self.sim.begin_measurement();
        self.attach_phase(Phase::Measure);
    }

    /// Runs the measurement phase to the spec's [`MeasureBound`].
    pub fn run_to_bound(&mut self) -> RunOutcome {
        match self.spec.measure {
            MeasureBound::For(span) => self.sim.run_for(span),
            MeasureBound::ToQuiescence => self.sim.run_to_quiescence(),
        }
    }

    /// Registers a flow the caller attached itself (e.g. a churn-engine
    /// GS stream) so it appears in the final metrics; returns its index
    /// in [`ScenarioMetrics::flows`].
    pub fn track_flow(&mut self, flow: u32, kind: FlowKind) -> usize {
        let idx = self.flows.len();
        self.flows.push((flow, kind));
        match kind {
            FlowKind::Gs => self.gs_flows.push(idx),
            FlowKind::Be => self.be_flows.push(idx),
        }
        idx
    }

    /// Collects the final metrics.
    pub fn finish(self, outcome: RunOutcome) -> ScenarioMetrics {
        // Every instrumentation record must belong to a flit still
        // buffered or in flight — none leaked, none released early
        // (debug builds only: release builds do not count flits on wires).
        self.sim.network().debug_check_conservation();
        let window = self.sim.measured_window();
        let flow_metrics = self
            .flows
            .iter()
            .map(|&(id, kind)| {
                let s = self.sim.flow(id);
                FlowMetric {
                    name: s.name.clone(),
                    kind,
                    injected: s.injected,
                    delivered: s.delivered,
                    sequence_errors: s.sequence_errors,
                    latency_count: s.latency.count(),
                    throughput_m: s.throughput_mfps(window),
                    mean_ns: s.latency.mean().map(|d| d.as_ns_f64()),
                    p50_ns: s.latency.quantile(0.5).map(|d| d.as_ns_f64()),
                    p95_ns: s.latency.quantile(0.95).map(|d| d.as_ns_f64()),
                    p99_ns: s.latency.quantile(0.99).map(|d| d.as_ns_f64()),
                    max_ns: s.latency.max().map(|d| d.as_ns_f64()),
                    jitter_ns: s.latency.jitter().map(|d| d.as_ns_f64()),
                }
            })
            .collect();
        ScenarioMetrics {
            flows: flow_metrics,
            gs_flows: self.gs_flows,
            be_flows: self.be_flows,
            background_flows: self.background_flows,
            events: self.sim.events_processed(),
            outcome,
            window,
        }
    }

    /// Attaches one [`TrafficSpec`]: a point source, or one source per
    /// node in grid-id order for distributed specs. An associated
    /// function over the destructured fields so [`attach_phase`]:
    /// [`Self::attach_phase`] can iterate the spec it borrows from
    /// without cloning it.
    fn attach_traffic(
        sim: &mut NocSim,
        flows: &mut Vec<(u32, FlowKind)>,
        be_flows: &mut Vec<usize>,
        background_flows: &mut Vec<usize>,
        t: &TrafficSpec,
    ) {
        match t.src {
            Some(src) => {
                let f = sim.add_traffic_source(
                    src,
                    t.spatial.clone(),
                    t.payload_words,
                    t.temporal,
                    t.name_prefix.clone(),
                    t.window,
                );
                be_flows.push(flows.len());
                flows.push((f, FlowKind::Be));
            }
            None => {
                for i in 0..sim.network().grid().len() {
                    let node = sim.network().grid().id_at(i);
                    let f = sim.add_traffic_source(
                        node,
                        t.spatial.clone(),
                        t.payload_words,
                        t.temporal,
                        format!("{}{node}", t.name_prefix),
                        t.window,
                    );
                    background_flows.push(flows.len());
                    flows.push((f, FlowKind::Be));
                }
            }
        }
    }

    fn attach_phase(&mut self, phase: Phase) {
        let PreparedScenario {
            spec,
            sim,
            conns,
            flows,
            gs_flows,
            be_flows,
            background_flows,
        } = self;
        for (g, c) in spec.gs.iter().zip(conns.iter()) {
            if g.phase == phase {
                let f = sim.add_gs_source(*c, g.pattern, g.name.clone(), g.window);
                gs_flows.push(flows.len());
                flows.push((f, FlowKind::Gs));
            }
        }
        for t in &spec.traffic {
            if t.phase == phase {
                Self::attach_traffic(sim, flows, be_flows, background_flows, t);
            }
        }
    }
}

/// The service class a measured flow belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Guaranteed-service flit stream on a connection.
    Gs,
    /// Best-effort packet flow.
    Be,
}

/// Measured statistics for one flow, in attachment order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMetric {
    /// Flow name.
    pub name: String,
    /// Service class.
    pub kind: FlowKind,
    /// Flits/packets injected (including warmup).
    pub injected: u64,
    /// Flits/packets delivered (including warmup).
    pub delivered: u64,
    /// Sequence-order violations observed.
    pub sequence_errors: u64,
    /// Latency samples recorded in the measurement window.
    pub latency_count: u64,
    /// Delivered throughput over the window, Mflit/s (GS) or Mpkt/s (BE).
    pub throughput_m: f64,
    /// Mean in-window latency, ns.
    pub mean_ns: Option<f64>,
    /// Median in-window latency, ns: a bucket bound, at most the
    /// max ([`crate::LatencyRecorder::quantile`]).
    pub p50_ns: Option<f64>,
    /// 95th-percentile in-window latency, ns: a bucket bound, at most the
    /// max ([`crate::LatencyRecorder::quantile`]).
    pub p95_ns: Option<f64>,
    /// 99th-percentile in-window latency, ns: a bucket bound, at most the
    /// max ([`crate::LatencyRecorder::quantile`]).
    pub p99_ns: Option<f64>,
    /// Worst in-window latency, ns.
    pub max_ns: Option<f64>,
    /// Jitter (max − min), ns.
    pub jitter_ns: Option<f64>,
}

/// Everything measured by one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMetrics {
    /// Per-flow metrics, in attachment order.
    pub flows: Vec<FlowMetric>,
    /// Indices into `flows` for GS sources, in spec order.
    pub gs_flows: Vec<usize>,
    /// Indices into `flows` for point-source BE flows (single-source
    /// [`TrafficSpec`]s), in spec order.
    pub be_flows: Vec<usize>,
    /// Indices into `flows` for distributed traffic sources, in
    /// attachment (spec, then grid-id) order.
    pub background_flows: Vec<usize>,
    /// Total kernel events processed (simulator effort).
    pub events: u64,
    /// How the measurement run terminated.
    pub outcome: RunOutcome,
    /// Elapsed measurement window.
    pub window: SimDuration,
}

impl ScenarioMetrics {
    /// Metrics for the `i`-th GS flow of the spec.
    ///
    /// # Panics
    ///
    /// Panics if the scenario had fewer GS flows.
    pub fn gs(&self, i: usize) -> &FlowMetric {
        &self.flows[self.gs_flows[i]]
    }

    /// Metrics for the `i`-th point-source BE flow of the spec.
    ///
    /// # Panics
    ///
    /// Panics if the scenario had fewer BE flows.
    pub fn be(&self, i: usize) -> &FlowMetric {
        &self.flows[self.be_flows[i]]
    }

    /// Every BE-class flow (point and distributed), in attachment order.
    pub fn be_all(&self) -> impl Iterator<Item = &FlowMetric> {
        self.flows.iter().filter(|f| f.kind == FlowKind::Be)
    }

    /// Aggregate delivered GS throughput, Mflit/s.
    pub fn gs_throughput_m(&self) -> f64 {
        // fold, not sum: f64's Sum identity is -0.0, which would leak
        // "-0" into the CSV of GS-free jobs.
        self.gs_flows
            .iter()
            .map(|&i| self.flows[i].throughput_m)
            .fold(0.0, |a, b| a + b)
    }

    /// Aggregate delivered BE throughput, Mpkt/s.
    pub fn be_throughput_m(&self) -> f64 {
        self.be_all()
            .map(|f| f.throughput_m)
            .fold(0.0, |a, b| a + b)
    }

    /// Sample-weighted mean BE latency over all BE flows, ns (the
    /// saturation-curve aggregation: each latency sample counts once).
    pub fn be_weighted_mean_ns(&self) -> f64 {
        let (sum, n) = self
            .be_all()
            .filter_map(|f| f.mean_ns.map(|m| (m, f.latency_count)))
            .fold((0.0, 0u64), |(s, n), (m, c)| (s + m * c as f64, n + c));
        if n > 0 {
            sum / n as f64
        } else {
            0.0
        }
    }

    /// Unweighted mean of per-flow mean BE latencies, ns (the Fig. 8
    /// aggregation: each *flow* counts once).
    pub fn be_mean_of_means_ns(&self) -> f64 {
        let (sum, n) = self
            .be_all()
            .filter_map(|f| f.mean_ns)
            .fold((0.0, 0u32), |(s, n), m| (s + m, n + 1));
        if n > 0 {
            sum / n as f64
        } else {
            0.0
        }
    }

    /// Worst per-flow p99 BE latency, ns.
    pub fn be_p99_worst_ns(&self) -> f64 {
        self.be_all().filter_map(|f| f.p99_ns).fold(0.0, f64::max)
    }

    /// Worst per-flow median BE latency, ns.
    pub fn be_p50_worst_ns(&self) -> f64 {
        self.be_all().filter_map(|f| f.p50_ns).fold(0.0, f64::max)
    }

    /// Worst per-flow p95 BE latency, ns.
    pub fn be_p95_worst_ns(&self) -> f64 {
        self.be_all().filter_map(|f| f.p95_ns).fold(0.0, f64::max)
    }

    /// Total BE packets injected (including warmup).
    pub fn be_injected(&self) -> u64 {
        self.be_all().map(|f| f.injected).sum()
    }

    /// Total BE packets delivered (including warmup).
    pub fn be_delivered(&self) -> u64 {
        self.be_all().map(|f| f.delivered).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::PatternKind;

    /// `ScenarioSpec` and every type a sweep worker moves across threads
    /// must stay `Send` — this is the compile-time contract the parallel
    /// sweep runner relies on.
    #[test]
    fn scenario_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ScenarioSpec>();
        assert_send::<TrafficSpec>();
        assert_send::<ScenarioMetrics>();
        assert_send::<NocSim>();
    }

    fn fig8_like(seed: u64) -> ScenarioSpec {
        ScenarioSpec::mesh(4, 4, seed)
            .warmup(SimDuration::from_us(5))
            .measure_for(SimDuration::from_us(30))
            .gs_flow(GsFlowSpec {
                src: RouterId::new(0, 0),
                dst: RouterId::new(3, 3),
                pattern: TemporalSpec::cbr(SimDuration::from_ns(12)),
                name: "gs".into(),
                window: EmitWindow::default(),
                phase: Phase::Measure,
            })
            .traffic(
                TrafficSpec::uniform_poisson(SimDuration::from_ns(300))
                    .payload(4)
                    .named("be-"),
            )
    }

    #[test]
    fn scenario_matches_imperative_construction() {
        // The scenario runner must reproduce a hand-driven NocSim
        // bit-for-bit — and the computed UniformRandom pattern must draw
        // the exact RNG sequence of the legacy materialized pools. This
        // is the golden test behind "rewritten binaries emit identical
        // output through the traffic-model redesign".
        let spec = fig8_like(55);
        let m = spec.run();

        let mut sim = NocSim::paper_mesh(4, 4, 55);
        let conn = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(3, 3))
            .unwrap();
        sim.wait_connections_settled().unwrap();
        let all: Vec<RouterId> = sim.network().grid().ids().collect();
        let mut be = Vec::new();
        for node in all.clone() {
            // The legacy path: materialize all-but-self, pick via
            // `choose` — byte-compatible with the computed pattern.
            let dests: Vec<_> = all.iter().copied().filter(|d| *d != node).collect();
            be.push(sim.add_be_source(
                node,
                dests,
                4,
                TemporalSpec::poisson(SimDuration::from_ns(300)),
                format!("be-{node}"),
                EmitWindow::default(),
            ));
        }
        sim.run_for(SimDuration::from_us(5));
        sim.begin_measurement();
        let gs = sim.add_gs_source(
            conn,
            TemporalSpec::cbr(SimDuration::from_ns(12)),
            "gs",
            EmitWindow::default(),
        );
        sim.run_for(SimDuration::from_us(30));

        assert_eq!(m.events, sim.events_processed());
        let g = sim.flow(gs);
        assert_eq!(m.gs(0).injected, g.injected);
        assert_eq!(m.gs(0).delivered, g.delivered);
        assert_eq!(m.gs(0).throughput_m, sim.flow_throughput_m(gs));
        assert_eq!(m.gs(0).mean_ns, g.latency.mean().map(|d| d.as_ns_f64()));
        for (i, f) in be.iter().enumerate() {
            let s = sim.flow(*f);
            let fm = &m.flows[m.background_flows[i]];
            assert_eq!(fm.injected, s.injected);
            assert_eq!(fm.delivered, s.delivered);
            assert_eq!(fm.mean_ns, s.latency.mean().map(|d| d.as_ns_f64()));
        }
    }

    #[test]
    fn prepare_leaves_no_settle_notice_unread() {
        let mut prepared = fig8_like(3)
            .gs(
                RouterId::new(3, 0),
                RouterId::new(0, 3),
                TemporalSpec::cbr(SimDuration::from_ns(20)),
            )
            .prepare();
        assert_eq!(prepared.connections().len(), 2);
        assert_eq!(prepared.sim_mut().network_mut().pop_notice(), None);
    }

    #[test]
    fn identical_specs_produce_identical_metrics() {
        let a = fig8_like(7).run();
        let b = fig8_like(7).run();
        assert_eq!(a, b);
    }

    #[test]
    fn builder_composes_gs_and_patterned_traffic() {
        let spec = ScenarioSpec::mesh(4, 4, 3)
            .warmup(SimDuration::from_us(2))
            .measure_for(SimDuration::from_us(10))
            .gs(
                RouterId::new(0, 0),
                RouterId::new(3, 3),
                TemporalSpec::cbr(SimDuration::from_ns(12)),
            )
            .traffic(TrafficSpec::new(
                SpatialPattern::Transpose,
                TemporalSpec::poisson(SimDuration::from_ns(500)),
            ));
        assert_eq!(spec.gs[0].name, "gs-0");
        let m = spec.run();
        assert!(m.gs(0).delivered > 0, "GS stream flows");
        for f in m.flows.iter().filter(|f| f.latency_count > 0) {
            assert!(
                f.p99_ns <= f.max_ns,
                "{}: p99 {:?} > max {:?}",
                f.name,
                f.p99_ns,
                f.max_ns
            );
        }
        // Transpose background: 12 of 16 nodes are off-diagonal senders.
        assert_eq!(m.background_flows.len(), 16);
        let active = m
            .background_flows
            .iter()
            .filter(|&&i| m.flows[i].injected > 0)
            .count();
        assert_eq!(active, 12, "diagonal transpose sources skip themselves");
    }

    #[test]
    fn every_pattern_kind_runs_on_a_mesh() {
        for kind in PatternKind::ALL {
            let m = ScenarioSpec::mesh(4, 4, 9)
                .measure_for(SimDuration::from_us(5))
                .traffic(TrafficSpec::new(
                    kind.spatial(4, 4),
                    TemporalSpec::poisson(SimDuration::from_ns(500)),
                ))
                .run();
            assert!(
                m.be_delivered() > 0,
                "pattern {kind} delivered nothing on 4x4"
            );
        }
    }

    #[test]
    fn quiescence_scenario_with_bounded_source_drains() {
        let spec = ScenarioSpec::mesh(4, 1, 21)
            .measure_to_quiescence()
            .traffic(
                TrafficSpec::new(
                    SpatialPattern::FixedPool(vec![RouterId::new(3, 0)]),
                    TemporalSpec::cbr(SimDuration::from_ns(100)),
                )
                .from_node(RouterId::new(0, 0))
                .payload(3)
                .named("hops")
                .phase(Phase::Measure)
                .window(EmitWindow {
                    limit: Some(20),
                    ..Default::default()
                }),
            );
        let m = spec.run();
        assert_eq!(m.outcome, RunOutcome::Quiescent);
        assert_eq!(m.be(0).injected, 20);
        assert_eq!(m.be(0).delivered, 20);
        assert_eq!(m.be(0).name, "hops");
    }
}
