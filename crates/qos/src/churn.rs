//! The connection-churn workload: Poisson arrivals of
//! open→stream→close connection requests, each a connection group of
//! one on the shared control-plane [`driver`](crate::driver).
//!
//! The driver owns the action heap, the run loop, the arrival process
//! and the open/close lifecycle with its exact budget return (see its
//! module docs for the state machine). What is churn's own:
//!
//! * **what arrives** — one request between two distinct uniformly drawn
//!   routers, admitted by the [`AdmissionController`](crate::AdmissionController)
//!   or rejected with a typed [`RejectReason`];
//! * **when streams attach** — a CBR stream of `gs_period` once the
//!   connection is open, if at least one period of stream window remains;
//! * **what is recorded** — per request, **setup latency** (request →
//!   last ack) and the rejection reason; per run, the
//!   [`GuaranteeAudit`] of every stream against its admitted bound, the
//!   **programming-traffic overhead** and whether the budgets returned
//!   clean.
//!
//! A [`ChurnSpec`] run is a pure function of the spec (the endpoint
//! picks are fork 2 of the engine seed, `base.seed ^ 0xC0DE_C0DE`), so
//! sweeping churn points in
//! parallel produces byte-identical CSVs for any worker count. The
//! outcome table is pre-sized from the expected offered load, like the
//! driver's heap, so a point offering thousands of requests never
//! regrows a container mid-run.
//! [`ChurnSpec::run_with_telemetry`] additionally exports the
//! `admission.*` residual-budget gauges, refreshed on every budget
//! movement — commit, open-failure rollback, and teardown release.

use crate::admission::{ConnRequest, RejectReason};
use crate::bound::GuaranteeAudit;
use crate::driver::{
    max_ns, mean_ns, quantile_ns, Arrival, ArrivalSpec, ControlPlane, Event, Lifecycle,
};
use mango_core::RouterId;
use mango_net::{MeasureBound, PreparedScenario, ScenarioMetrics, ScenarioSpec, TelemetryConfig};
use mango_sim::{RunOutcome, SimDuration, SimRng, SimTime};
use mango_telemetry::TelemetryReport;

/// A complete churn experiment: a base scenario (mesh, static flows,
/// background load) plus the dynamic connection workload layered on it.
/// This is the churn variant of [`ScenarioSpec`] — construction and
/// measurement of the base follow the scenario contract exactly; the
/// engine adds open/stream/close traffic inside the measurement window.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// The base scenario. `measure` must be [`MeasureBound::For`] (the
    /// churn window); static GS/BE flows and background run unchanged.
    /// Its seed also seeds the engine's streams (arrivals, holding
    /// times, endpoint picks), salted so they do not repeat the base's.
    pub base: ScenarioSpec,
    /// Mean gap between connection requests (Poisson arrivals).
    pub arrival_gap: SimDuration,
    /// Mean connection holding time (exponential), request → teardown.
    pub holding_mean: SimDuration,
    /// Floor on holding times (must exceed `2 × drain_margin` so every
    /// connection streams for a while).
    pub holding_min: SimDuration,
    /// CBR emission period of each dynamic connection's stream.
    pub gs_period: SimDuration,
    /// How long before teardown the stream stops, letting in-flight
    /// flits drain (teardown requires a quiet circuit).
    pub drain_margin: SimDuration,
    /// Hard cap on issued requests.
    pub max_requests: u64,
}

impl ChurnSpec {
    /// A churn skeleton on a `width × height` paper mesh: moderate
    /// arrival rate, 20 µs mean holding, conforming 15 ns streams.
    pub fn mesh(width: u8, height: u8, seed: u64) -> Self {
        let mut base = ScenarioSpec::mesh(width, height, seed);
        base.measure = MeasureBound::For(SimDuration::from_us(200));
        ChurnSpec {
            base,
            arrival_gap: SimDuration::from_us(2),
            holding_mean: SimDuration::from_us(20),
            holding_min: SimDuration::from_us(5),
            gs_period: SimDuration::from_ns(15),
            drain_margin: SimDuration::from_us(1),
            max_requests: u64::MAX,
        }
    }

    /// The seed of the engine's random streams.
    fn churn_seed(&self) -> u64 {
        self.base.seed ^ 0xC0DE_C0DE
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if `base.measure` is not [`MeasureBound::For`], if the
    /// margins are inconsistent (`holding_min ≤ 2 × drain_margin`), or
    /// if the base scenario itself is infeasible.
    pub fn run(&self) -> ChurnMetrics {
        self.run_inner(None).0
    }

    /// Runs the experiment with telemetry capture: the scenario's usual
    /// instrumentation plus `admission.*` residual-budget gauges,
    /// refreshed on every commit, rollback and release.
    ///
    /// # Panics
    ///
    /// As [`ChurnSpec::run`].
    pub fn run_with_telemetry(&self, cfg: TelemetryConfig) -> (ChurnMetrics, TelemetryReport) {
        let (metrics, report) = self.run_inner(Some(cfg));
        (metrics, report.expect("telemetry was enabled"))
    }

    fn run_inner(&self, cfg: Option<TelemetryConfig>) -> (ChurnMetrics, Option<TelemetryReport>) {
        let (mut prepared, cp) = ControlPlane::prepare(&self.base, cfg);
        let arrivals = ArrivalSpec {
            seed: self.churn_seed(),
            gap: self.arrival_gap,
            holding_mean: self.holding_mean,
            holding_min: self.holding_min,
            drain_margin: self.drain_margin,
            max: self.max_requests,
        };
        let lc = Lifecycle::start(cp, &mut prepared, arrivals);
        Engine::new(self, lc).run(prepared)
    }
}

/// The fate of one connection request.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnOutcome {
    /// Request ordinal (issue order).
    pub req: u64,
    /// When the request was issued.
    pub requested_at: SimTime,
    /// Requested source router.
    pub src: RouterId,
    /// Requested destination router.
    pub dst: RouterId,
    /// `None` = admitted; `Some` = why it was refused.
    pub rejected: Option<RejectReason>,
    /// Links of the admitted path.
    pub hops: usize,
    /// Whether the admitted path was plain XY.
    pub xy: bool,
    /// Request → all-acks-returned (open) latency.
    pub setup: Option<SimDuration>,
    /// Holding time drawn for the connection (request → teardown).
    pub holding: SimDuration,
    /// Flits injected by the stream.
    pub injected: u64,
    /// Flits delivered by the stream.
    pub delivered: u64,
    /// Teardown completed (all teardown acks returned) inside the window.
    pub closed: bool,
}

/// Everything a churn run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnMetrics {
    /// The base scenario's metrics (dynamic streams included in
    /// `flows`, static flows at their usual indices).
    pub scenario: ScenarioMetrics,
    /// Per-request outcomes, in issue order.
    pub conns: Vec<ConnOutcome>,
    /// Requests issued.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected, by reason (indexed as [`RejectReason::ALL`]).
    pub rejected_by: [u64; RejectReason::ALL.len()],
    /// Connections whose teardown completed inside the window.
    pub closed: u64,
    /// Programming packets processed by all routers (opens + teardowns,
    /// the in-band signalling overhead).
    pub prog_packets: u64,
    /// The admission budgets returned exactly to their post-static
    /// state (leak detection; only meaningful when `admitted == closed`).
    pub budgets_clean: bool,
    /// Every stream's observed worst latency against its admitted bound,
    /// in stream-attach order.
    pub audit: GuaranteeAudit,
}

impl ChurnMetrics {
    /// Total rejections.
    pub fn rejected(&self) -> u64 {
        self.rejected_by.iter().sum()
    }

    /// Setup latencies of opened connections, in issue order.
    pub fn setups(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.conns.iter().filter_map(|c| c.setup)
    }

    /// Mean setup latency, ns (0 when nothing opened).
    pub fn setup_mean_ns(&self) -> f64 {
        mean_ns(self.setups())
    }

    /// `q`-quantile of setup latency, ns (nearest-rank over the sorted
    /// samples; 0 when nothing opened).
    pub fn setup_quantile_ns(&self, q: f64) -> f64 {
        quantile_ns(self.setups(), q)
    }

    /// Worst setup latency, ns.
    pub fn setup_max_ns(&self) -> f64 {
        max_ns(self.setups())
    }

    /// [`GuaranteeAudit::violations`] (must be zero).
    pub fn bound_violations(&self) -> u64 {
        self.audit.violations()
    }

    /// [`GuaranteeAudit::worst_bound_ratio`]: the headroom the conservative
    /// bound leaves.
    pub fn worst_bound_ratio(&self) -> f64 {
        self.audit.worst_bound_ratio()
    }
}

/// The `admission.*` gauge counting connections currently open.
const LIVE_GAUGE: &str = "admission.conns_live";

struct Engine<'a> {
    spec: &'a ChurnSpec,
    lc: Lifecycle,
    places: SimRng,
    outcomes: Vec<ConnOutcome>,
}

impl<'a> Engine<'a> {
    fn new(spec: &'a ChurnSpec, lc: Lifecycle) -> Self {
        Engine {
            spec,
            places: SimRng::new(spec.churn_seed()).fork(2),
            outcomes: Vec::with_capacity(lc.expected_requests()),
            lc,
        }
    }

    /// Two distinct routers, uniformly.
    fn draw_endpoints(&mut self) -> (RouterId, RouterId) {
        let grid = self.lc.cp.admission.grid();
        let mut pick = || grid.id_at(self.places.gen_range(grid.len() as u64) as usize);
        let src = pick();
        let mut dst = pick();
        while dst == src {
            dst = pick();
        }
        (src, dst)
    }

    fn run(mut self, mut prepared: PreparedScenario) -> (ChurnMetrics, Option<TelemetryReport>) {
        // Baseline budgets (static reservations already debited).
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

    fn on_arrive(&mut self, prepared: &mut PreparedScenario, arrival: Arrival) {
        let now = prepared.sim().now();
        let (src, dst) = self.draw_endpoints();
        let req = ConnRequest {
            src,
            dst,
            period: self.spec.gs_period,
        };
        let mut outcome = ConnOutcome {
            req: arrival.ordinal as u64,
            requested_at: now,
            src,
            dst,
            rejected: None,
            hops: 0,
            xy: false,
            setup: None,
            holding: arrival.holding,
            injected: 0,
            delivered: 0,
            closed: false,
        };
        match self.lc.cp.admission.request(&req) {
            Ok(admission) => {
                match self.lc.open_group(prepared, vec![admission], &arrival) {
                    Some(i) => {
                        let admission = &self.lc.group(i).conns[0].admission;
                        outcome.hops = admission.hops();
                        outcome.xy = admission.xy;
                    }
                    // Rolled back by the driver: a typed rejection
                    // instead of tearing the whole run down.
                    None => outcome.rejected = Some(RejectReason::OpenFailed),
                }
                self.lc.record_live_gauges(prepared, LIVE_GAUGE);
            }
            Err(reason) => outcome.rejected = Some(reason),
        }
        self.outcomes.push(outcome);
        self.lc.schedule_arrival(now);
    }

    fn on_opened(&mut self, prepared: &mut PreparedScenario, i: usize) {
        let group = self.lc.group(i);
        let stream_stop = group.stream_stop;
        let outcome = &mut self.outcomes[group.ordinal];
        let now = prepared.sim().now();
        outcome.setup = Some(now.since(outcome.requested_at));
        // Stream only while a meaningful window remains.
        if now + self.spec.gs_period < stream_stop {
            let name = format!("churn-{}", outcome.req);
            self.lc
                .attach_stream(prepared, i, 0, self.spec.gs_period, name);
        }
    }

    fn collect(
        mut self,
        mut prepared: PreparedScenario,
    ) -> (ChurnMetrics, Option<TelemetryReport>) {
        let end = self.lc.finish(&mut prepared);
        let scenario = prepared.finish(RunOutcome::HorizonReached);
        for group in &end.groups {
            let outcome = &mut self.outcomes[group.ordinal];
            if let Some(idx) = group.conns[0].metric {
                let f = &scenario.flows[idx];
                outcome.injected = f.injected;
                outcome.delivered = f.delivered;
            }
        }
        let mut rejected_by = [0; RejectReason::ALL.len()];
        for reason in self.outcomes.iter().filter_map(|c| c.rejected) {
            rejected_by[reason.index()] += 1;
        }
        let metrics = ChurnMetrics {
            scenario,
            rejected_by,
            conns: self.outcomes,
            requests: end.requests,
            admitted: end.groups.len() as u64,
            closed: end.closed,
            prog_packets: end.run.prog_packets,
            budgets_clean: end.run.budgets_clean,
            audit: end.run.audit,
        };
        (metrics, end.run.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mango_net::{EmitWindow, TemporalSpec};

    fn small_spec(seed: u64) -> ChurnSpec {
        let mut spec = ChurnSpec::mesh(4, 4, seed);
        spec.base.measure = MeasureBound::For(SimDuration::from_us(120));
        spec.arrival_gap = SimDuration::from_us(1);
        spec.holding_mean = SimDuration::from_us(10);
        spec.holding_min = SimDuration::from_us(4);
        spec.max_requests = 60;
        spec
    }

    #[test]
    fn churn_opens_streams_and_closes() {
        let m = small_spec(11).run();
        assert!(
            m.requests >= 40,
            "expected a busy window, got {}",
            m.requests
        );
        assert!(m.admitted > 0);
        assert!(m.closed > 0, "teardowns must complete inside the window");
        assert!(m.prog_packets > 0, "programming traffic is real packets");
        let streamed: Vec<_> = m.conns.iter().filter(|c| c.delivered > 0).collect();
        assert!(!streamed.is_empty(), "some connections must stream");
        for c in &streamed {
            assert_eq!(c.injected, c.delivered, "GS delivery is lossless");
        }
        assert!(m.audit.holds(), "witness: {:?}", m.audit.worst());
        assert_eq!(
            m.audit.entries().len(),
            streamed.len(),
            "one entry per stream"
        );
    }

    #[test]
    fn zero_max_requests_issues_no_request() {
        // The cap applies to the first arrival too (it used not to: a
        // capped-at-zero run still issued one request).
        let mut spec = small_spec(11);
        spec.max_requests = 0;
        let m = spec.run();
        assert_eq!(m.requests, 0);
        assert!(m.conns.is_empty());
        assert_eq!(m.prog_packets, 0, "nothing was opened");
        assert!(m.budgets_clean);
    }

    #[test]
    fn drained_churn_returns_every_budget() {
        // Few requests and a window long enough for every teardown to
        // complete: the budgets must equal the post-static snapshot.
        let mut spec = small_spec(11);
        spec.base.measure = MeasureBound::For(SimDuration::from_us(400));
        spec.max_requests = 10;
        let m = spec.run();
        assert_eq!(m.requests, 10);
        assert!(m.admitted > 0);
        assert_eq!(m.admitted, m.closed, "the window drains fully: {m:?}");
        assert!(
            m.budgets_clean,
            "every closed connection returns its budgets"
        );
    }

    #[test]
    fn churn_is_deterministic() {
        let a = small_spec(3).run();
        let b = small_spec(3).run();
        assert_eq!(a.conns, b.conns);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.prog_packets, b.prog_packets);
    }

    #[test]
    fn saturating_churn_rejects_without_panicking() {
        let mut spec = small_spec(7);
        // 2×2 mesh, rapid arrivals, long holding: 4 TX interfaces per
        // node and 7 VCs per link exhaust quickly.
        spec.base = ScenarioSpec::mesh(2, 2, 7);
        spec.base.measure = MeasureBound::For(SimDuration::from_us(150));
        spec.arrival_gap = SimDuration::from_ns(500);
        spec.holding_mean = SimDuration::from_us(60);
        spec.holding_min = SimDuration::from_us(10);
        spec.max_requests = 80;
        let m = spec.run();
        assert!(m.rejected() > 0, "budget exhaustion must reject: {m:?}");
        assert!(m.admitted > 0, "but not everything is rejected");
        assert_eq!(m.bound_violations(), 0);
    }

    #[test]
    fn static_base_connections_are_pre_reserved() {
        // The base scenario's 4 static GS connections occupy every TX
        // interface at (0,0) and every RX interface at (1,1); admission
        // must see those debits and answer with rejections instead of
        // accepting paths the connection manager cannot allocate (which
        // would panic the engine).
        let mut spec = ChurnSpec::mesh(2, 2, 13);
        for i in 0..4 {
            spec.base.gs.push(mango_net::GsFlowSpec {
                src: RouterId::new(0, 0),
                dst: RouterId::new(1, 1),
                pattern: TemporalSpec::cbr(SimDuration::from_us(1)),
                name: format!("static-{i}"),
                window: EmitWindow::default(),
                phase: mango_net::Phase::Setup,
            });
        }
        spec.base.measure = MeasureBound::For(SimDuration::from_us(100));
        spec.arrival_gap = SimDuration::from_us(1);
        spec.max_requests = 40;
        let m = spec.run();
        // On a 2×2 mesh every request touches (0,0) or (1,1) as an
        // endpoint with probability well above zero; the busy node must
        // produce interface rejections.
        let iface_rejects: u64 = m
            .conns
            .iter()
            .filter(|c| {
                matches!(
                    c.rejected,
                    Some(RejectReason::NoTxIface) | Some(RejectReason::NoRxIface)
                )
            })
            .count() as u64;
        assert!(
            iface_rejects > 0,
            "static reservations must surface as rejections: {m:?}"
        );
        assert_eq!(m.bound_violations(), 0);
    }

    #[test]
    fn close_racing_slow_setup_is_tolerated() {
        // Saturating BE background slows the BE programming packets
        // until setup outlives the (tiny) holding time: the Close then
        // falls due while the connection is still Opening, and the
        // driver holds it until Opened has been handled. The engine
        // must record setup latency, attach no stream to a circuit with
        // no window left, and tear down cleanly.
        let mut spec = ChurnSpec::mesh(4, 4, 17);
        spec.base.measure = MeasureBound::For(SimDuration::from_us(80));
        spec.arrival_gap = SimDuration::from_us(2);
        // Setup over 1–5 hops takes ~10–65 ns; holding times of the
        // same magnitude make roughly half the teardowns race it.
        spec.holding_mean = SimDuration::from_ns(60);
        spec.holding_min = SimDuration::from_ns(25);
        spec.drain_margin = SimDuration::from_ns(10);
        spec.max_requests = 30;
        let m = spec.run();
        assert!(m.admitted > 0);
        let outlived: Vec<_> = m
            .conns
            .iter()
            .filter(|c| c.setup.is_some_and(|s| s > c.holding))
            .collect();
        assert!(
            !outlived.is_empty(),
            "the race needs setups outliving holding; tune the load: {m:?}"
        );
        // Setup is recorded for every admitted connection, the ones
        // whose Close was held included.
        for c in &m.conns {
            if c.rejected.is_none() && c.closed {
                assert!(c.setup.is_some(), "req {} lost its setup sample", c.req);
            }
        }
        assert_eq!(m.bound_violations(), 0);
    }

    #[test]
    fn churn_gauges_track_budget_movement() {
        let mut spec = small_spec(9);
        spec.max_requests = 12;
        let (m, report) = spec.run_with_telemetry(TelemetryConfig {
            trace_flits: false,
            ..Default::default()
        });
        assert!(m.admitted > 0);
        let names = report.metrics.gauge_names();
        let get = |n: &str| {
            let i = names
                .iter()
                .position(|&g| g == n)
                .unwrap_or_else(|| panic!("gauge {n} missing from {names:?}"));
            report.metrics.gauge_values()[i]
        };
        assert!(get("admission.free_vcs") > 0);
        assert!(get("admission.residual_fps_min") > 0);
        // 4×4 mesh: 48 directed links, none failed under churn.
        assert_eq!(get("admission.up_links"), 48);
        assert_eq!(get("admission.conns_live"), (m.admitted - m.closed) as i64);
        // The telemetry path cannot perturb the workload itself.
        let plain = {
            let mut p = small_spec(9);
            p.max_requests = 12;
            p.run()
        };
        assert_eq!(plain.conns, m.conns);
        assert_eq!(plain.prog_packets, m.prog_packets);
    }

    #[test]
    fn setup_latency_is_measured_and_positive() {
        let m = small_spec(5).run();
        let setups: Vec<_> = m.setups().collect();
        assert!(!setups.is_empty());
        for s in &setups {
            assert!(!s.is_zero(), "programming round-trips take time");
        }
        assert!(m.setup_mean_ns() > 0.0);
        assert!(m.setup_max_ns() >= m.setup_quantile_ns(0.99));
        assert!(m.setup_quantile_ns(0.99) >= m.setup_quantile_ns(0.5));
    }

    #[test]
    fn churn_runs_over_patterned_backgrounds() {
        // The base scenario accepts any composable TrafficSpec — churn
        // under hotspot interference (BE fan-in converging on the mesh
        // centre, where many programming packets also cross) must still
        // admit, stream within bounds, and tear down cleanly.
        use mango_net::{SpatialPattern, TemporalSpec, TrafficSpec};
        for spatial in [
            SpatialPattern::hotspot(vec![mango_core::RouterId::new(2, 2)], 0.7),
            SpatialPattern::Transpose,
        ] {
            let mut spec = small_spec(23);
            spec.base = spec.base.traffic(TrafficSpec::new(
                spatial,
                TemporalSpec::poisson(SimDuration::from_ns(400)),
            ));
            let m = spec.run();
            assert!(m.admitted > 0);
            assert!(m.closed > 0);
            assert_eq!(m.bound_violations(), 0, "guarantees hold under hotspot");
        }
    }
}
