//! The simulation harness: a [`Kernel`] wrapping a [`Network`] with
//! convenience operations for experiments — opening connections, attaching
//! traffic, running warmup/measurement phases and reading statistics.

use crate::conn::{ConnError, ConnState};
use crate::fault::FaultSchedule;
use crate::na::NaConfig;
use crate::network::{NetEvent, Network};
use crate::stats::FlowStats;
use crate::telemetry::TelemetryConfig;
use crate::topology::Grid;
use crate::traffic::{Source, SourceKind, SpatialPattern, TemporalSpec};
use mango_core::{ConnectionId, RouterConfig, RouterId};
use mango_sim::{Kernel, KernelProfile, RunOutcome, SimDuration, SimRng, SimTime, WheelGeometry};
use mango_telemetry::TelemetryReport;

/// Emission bounds for a traffic source; both offsets count from the
/// instant the source is attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmitWindow {
    /// Delay to the source's start, where its process begins
    /// ([`TemporalSpec::first_gap`]).
    pub start_after: SimDuration,
    /// Stop emitting this long after the attach instant.
    pub stop_after: Option<SimDuration>,
    /// Emit at most this many flits/packets.
    pub limit: Option<u64>,
}

/// A ready-to-run NoC simulation.
#[derive(Debug)]
pub struct NocSim {
    kernel: Kernel<Network>,
    rng: SimRng,
    next_stream: u64,
}

impl NocSim {
    /// Builds a simulation over `network` with the given random seed.
    ///
    /// The event wheel is [`WheelGeometry::for_mesh`]'s: the tuned 2048
    /// buckets on every mesh, the window width from the router timing.
    /// Geometry never affects results (event order is a pure function of
    /// `(time, seq)`), only events/second.
    pub fn new(network: Network, seed: u64) -> Self {
        let geometry = WheelGeometry::for_mesh(
            network.grid().len(),
            network.router_timing().min_event_delay().as_ps(),
        );
        NocSim {
            kernel: Kernel::with_geometry(network, geometry),
            rng: SimRng::new(seed),
            next_stream: 0,
        }
    }

    /// The event-wheel geometry the kernel runs on.
    pub fn wheel_geometry(&self) -> WheelGeometry {
        self.kernel.queue_geometry()
    }

    /// A `width × height` mesh of the paper's routers with default NAs.
    pub fn paper_mesh(width: u8, height: u8, seed: u64) -> Self {
        NocSim::new(
            Network::new(
                Grid::new(width, height),
                RouterConfig::paper(),
                NaConfig::paper(),
            ),
            seed,
        )
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// The network model.
    pub fn network(&self) -> &Network {
        self.kernel.model()
    }

    /// Mutable network access.
    pub fn network_mut(&mut self) -> &mut Network {
        self.kernel.model_mut()
    }

    /// Events processed so far (simulator effort metric).
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed()
    }

    /// Events currently pending in the queue (concurrency probe).
    pub fn events_pending(&self) -> usize {
        self.kernel.events_pending()
    }

    /// Handshakes (link-free ticks, unlock toggles, credits) whose slot
    /// was reserved but never queued: the events a run that queued every
    /// one of them would have dispatched on top of
    /// [`events_processed`](Self::events_processed).
    pub fn handshakes_never_queued(&self) -> u64 {
        self.kernel.slots_never_queued()
    }

    /// Runs for `span` of simulated time.
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        self.rearm_telemetry_sampler();
        self.kernel.run_for(span)
    }

    /// Runs until `horizon`, or to the end of the first instant the
    /// network posts a notice in ([`Network::pop_notice`]): the run of a
    /// control plane, which wakes at the acks and breaks it waits for.
    pub fn run_until_notice(&mut self, horizon: SimTime) -> RunOutcome {
        self.rearm_telemetry_sampler();
        self.kernel.model_mut().halt_on_notice = true;
        let outcome = self.kernel.run_until(horizon);
        self.kernel.model_mut().halt_on_notice = false;
        outcome
    }

    /// Runs until the event queue drains; reports stall (deadlock) if
    /// flits remain stuck.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.rearm_telemetry_sampler();
        self.kernel.run_to_quiescence()
    }

    /// Revives the epoch sampler if telemetry is active and the previous
    /// sampler let an empty queue drain (it refuses to keep an otherwise
    /// idle simulation alive). Called at every run-segment start so epoch
    /// coverage never depends on which phase carries traffic.
    fn rearm_telemetry_sampler(&mut self) {
        if let Some((cadence, generation)) = self.kernel.model_mut().telemetry_sampler_rearm() {
            self.kernel
                .schedule(cadence, NetEvent::TelemetrySample { generation });
        }
    }

    /// Schedules a raw network event — a hook for tests that drive the
    /// model below the public traffic API (e.g. hand-built BE routes).
    pub fn schedule_raw(&mut self, delay: SimDuration, event: NetEvent) {
        self.kernel.schedule(delay, event);
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Turns on telemetry collection and arms the epoch sampler (one
    /// [`NetEvent::TelemetrySample`] per `cfg.sample_every`, riding the
    /// ordinary event wheel so output is deterministic at any thread
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if telemetry is already enabled.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.kernel.model_mut().enable_telemetry(cfg);
        self.rearm_telemetry_sampler();
    }

    /// Detaches the collected telemetry as a finalized report, folding
    /// in end-of-run counters. Returns an empty report if telemetry was
    /// never enabled.
    pub fn take_telemetry(&mut self) -> TelemetryReport {
        self.kernel.model_mut().take_telemetry().unwrap_or_default()
    }

    /// Turns on kernel self-profiling (per-event-type dispatch counts and
    /// wheel-occupancy stats; see [`KernelProfile`]).
    pub fn enable_kernel_profiling(&mut self) {
        self.kernel.enable_profiling();
    }

    /// The kernel self-profile, if profiling was enabled.
    pub fn kernel_profile(&self) -> Option<&KernelProfile> {
        self.kernel.profile()
    }

    // ------------------------------------------------------------------
    // Faults and detection
    // ------------------------------------------------------------------

    /// Installs a deterministic fault schedule: each event is applied at
    /// its simulated time via a kernel event, so fault runs preserve the
    /// 1-vs-N-thread byte-identity contract. One schedule per simulation.
    ///
    /// # Panics
    ///
    /// Panics if a schedule is already installed, the schedule references
    /// off-grid elements, or an event time is already in the past.
    pub fn install_faults(&mut self, schedule: FaultSchedule) {
        let now = self.kernel.now();
        let times = self.kernel.model_mut().install_faults(schedule);
        for (idx, at) in times.into_iter().enumerate() {
            assert!(at >= now, "fault event {idx} at {at} is in the past");
            self.kernel.schedule(at.since(now), NetEvent::Fault { idx });
        }
    }

    /// Arms a stream watchdog on `conn`'s traffic `flow`: if a whole
    /// `timeout` passes without the flow's delivered count advancing, the
    /// connection is declared broken in a [`crate::NoticeKind::Broken`] notice
    /// ([`Network::pop_notice`]). A sound timeout for a CBR stream of
    /// period `p` with worst-case latency bound `b` is `p + 2b` — a
    /// healthy stream's inter-delivery gap never exceeds `p + b`.
    pub fn arm_watchdog(
        &mut self,
        conn: mango_core::ConnectionId,
        flow: u32,
        timeout: SimDuration,
    ) {
        let idx = self.kernel.model_mut().add_watchdog(conn, flow, timeout);
        self.kernel.schedule(timeout, NetEvent::Watchdog { idx });
    }

    /// Silences every traffic source feeding `flow` (first step of
    /// tearing down a broken connection).
    pub fn stop_flow(&mut self, flow: u32) {
        self.kernel.model_mut().stop_sources_of_flow(flow);
    }

    // ------------------------------------------------------------------
    // Connections
    // ------------------------------------------------------------------

    /// Opens a GS connection from `src` to `dst`: reserves the VC
    /// sequence, programs the source router directly, and launches config
    /// packets to the remaining routers. The connection is `Open` at the
    /// instant its last programming ack arrives, which is where
    /// [`NocSim::wait_connections_settled`] returns.
    ///
    /// # Errors
    ///
    /// Propagates allocation/routing failures; nothing is reserved then.
    pub fn open_connection(
        &mut self,
        src: RouterId,
        dst: RouterId,
    ) -> Result<ConnectionId, ConnError> {
        let plan = self.kernel.model_mut().plan_open(src, dst)?;
        Ok(self.issue_open_plan(src, plan))
    }

    /// Opens a GS connection along an explicit link path (not necessarily
    /// XY — the QoS admission controller routes around congested links).
    /// Programming proceeds exactly as for [`NocSim::open_connection`];
    /// the config packets themselves are BE traffic and travel XY, or
    /// around failed links when XY is cut.
    ///
    /// # Errors
    ///
    /// Propagates allocation/path-validation failures; nothing is
    /// reserved then.
    pub fn open_connection_along(
        &mut self,
        src: RouterId,
        dst: RouterId,
        dirs: &[mango_core::Direction],
    ) -> Result<ConnectionId, ConnError> {
        let plan = self.kernel.model_mut().plan_open_along(src, dst, dirs)?;
        Ok(self.issue_open_plan(src, plan))
    }

    /// Applies an [`crate::conn::OpenPlan`]: program the source router,
    /// bind the NA interface, launch the config packets.
    fn issue_open_plan(&mut self, src: RouterId, plan: crate::conn::OpenPlan) -> ConnectionId {
        let net = self.kernel.model_mut();
        let idx = net.grid().index(src);
        net.na_mut().bind_tx(idx, plan.tx_iface, plan.tx_steer);
        self.program_and_launch(src, &plan.local_writes, plan.config_packets);
        plan.id
    }

    /// The step opening and closing share: applies `local_writes` at
    /// `src`'s router directly and launches the config packets for the
    /// other routers from its NA.
    fn program_and_launch(
        &mut self,
        src: RouterId,
        local_writes: &[mango_core::ProgWrite],
        config_packets: Vec<Vec<mango_core::Flit>>,
    ) {
        let net = self.kernel.model_mut();
        let idx = net.grid().index(src);
        net.router_mut(src).program(local_writes);
        let delay = net.inject_delay();
        let mut need_kick = false;
        for packet in config_packets {
            need_kick |= net.na_mut().enqueue_be(idx, packet);
        }
        if need_kick {
            self.kernel
                .schedule(delay, NetEvent::NaBeInject { id: src });
        }
    }

    /// Closes an open connection (traffic must be drained).
    ///
    /// # Errors
    ///
    /// Fails if the connection is not open.
    pub fn close_connection(&mut self, id: ConnectionId) -> Result<(), ConnError> {
        let net = self.kernel.model_mut();
        let plan = net.plan_close(id)?;
        let src = net.connections().get(id).expect("connection exists").src;
        let idx = net.grid().index(src);
        net.na_mut().unbind_tx(idx, plan.tx_iface);
        self.program_and_launch(src, &plan.local_writes, plan.config_packets);
        Ok(())
    }

    /// Forcibly tears down a connection without in-band traffic — the
    /// recovery path when a fault leaves part of the route unreachable
    /// or an in-band close times out. Applies the source-router clears,
    /// force-unbinds the NA interface (discarding stranded flits) and
    /// returns the plan describing what was released vs quarantined.
    ///
    /// # Errors
    ///
    /// Fails only if the connection is unknown.
    pub fn force_close_connection(
        &mut self,
        id: ConnectionId,
    ) -> Result<crate::conn::ForceClosePlan, ConnError> {
        let now = self.kernel.now();
        let net = self.kernel.model_mut();
        let plan = net.plan_force_close(id, now)?;
        let src = net.connections().get(id).expect("planned above").src;
        let idx = net.grid().index(src);
        if !plan.local_writes.is_empty() {
            net.router_mut(src).program(&plan.local_writes);
        }
        if let Some(iface) = plan.tx_iface {
            // Flits still queued on the interface are discarded and their
            // instrumentation records released.
            net.force_unbind_tx(idx, iface);
        }
        Ok(plan)
    }

    /// The lifecycle state of a connection.
    pub fn connection_state(&self, id: ConnectionId) -> Option<ConnState> {
        self.network().connections().state(id)
    }

    /// Runs until every connection is `Open`/`Closed`, halting on each
    /// ack's notice ([`NocSim::run_until_notice`]), so it returns at the
    /// instant of the last programming ack. The wait is the reader of
    /// the `Opened`/`Closed` notices: once everything has settled it
    /// drops them, and only a watchdog's `Broken` stays queued.
    ///
    /// # Errors
    ///
    /// Fails if programming traffic stalls, if the queue drains with a
    /// connection unsettled, or at a 10 ms deadline: a programming packet
    /// lost to a fault posts no ack, and a running source keeps the
    /// queue alive.
    pub fn wait_connections_settled(&mut self) -> Result<(), String> {
        let deadline = self.now() + SimDuration::from_us(10_000);
        while !self.network().connections().all_settled() {
            let err = match self.run_until_notice(deadline) {
                RunOutcome::Stalled => "programming traffic stalled (deadlock?)",
                _ if self.network().connections().all_settled() => break,
                RunOutcome::Quiescent => "simulation drained but connections never settled",
                _ if self.now() < deadline => continue,
                RunOutcome::HorizonReached => "connections did not settle within 10 ms",
            };
            return Err(err.into());
        }
        self.network_mut().drop_settle_notices();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Traffic
    // ------------------------------------------------------------------

    fn fork_rng(&mut self) -> SimRng {
        let stream = self.next_stream;
        self.next_stream += 1;
        self.rng.fork(stream)
    }

    /// Attaches a GS flit source to an **open** connection; returns its
    /// flow id.
    ///
    /// # Panics
    ///
    /// Panics if the connection is not open.
    pub fn add_gs_source(
        &mut self,
        conn: ConnectionId,
        pattern: TemporalSpec,
        name: impl Into<String>,
        window: EmitWindow,
    ) -> u32 {
        let state = self.connection_state(conn);
        assert_eq!(
            state,
            Some(ConnState::Open),
            "GS source needs an open connection, {conn} is {state:?}"
        );
        let record = self
            .network()
            .connections()
            .get(conn)
            .expect("state checked");
        let kind = SourceKind::Gs {
            router: record.src,
            iface: record.tx_iface,
        };
        self.attach_source(kind, pattern, name, window)
    }

    /// Attaches a BE packet source with an explicit destination pool
    /// (picked uniformly per emission; repeat an entry to weight it) —
    /// the legacy surface, equivalent to [`SpatialPattern::FixedPool`]
    /// via [`NocSim::add_traffic_source`].
    pub fn add_be_source(
        &mut self,
        src: RouterId,
        dests: Vec<RouterId>,
        payload_words: usize,
        pattern: TemporalSpec,
        name: impl Into<String>,
        window: EmitWindow,
    ) -> u32 {
        self.add_traffic_source(
            src,
            SpatialPattern::FixedPool(dests),
            payload_words,
            pattern,
            name,
            window,
        )
    }

    /// Attaches a BE packet source whose destinations `spatial` computes
    /// per emission; returns its flow id.
    ///
    /// # Panics
    ///
    /// Panics if the pattern fails [`SpatialPattern::validate`] for this
    /// mesh (empty pool, off-mesh targets, transpose on a non-square
    /// mesh, ...).
    pub fn add_traffic_source(
        &mut self,
        src: RouterId,
        spatial: SpatialPattern,
        payload_words: usize,
        pattern: TemporalSpec,
        name: impl Into<String>,
        window: EmitWindow,
    ) -> u32 {
        spatial
            .validate(self.network().grid())
            .unwrap_or_else(|e| panic!("BE source at {src}: {e}"));
        let kind = SourceKind::Be {
            router: src,
            spatial,
            payload_words,
        };
        self.attach_source(kind, pattern, name, window)
    }

    /// Registers a source emitting `kind` under a fresh flow and RNG
    /// stream, and schedules its first emission; returns the flow id.
    fn attach_source(
        &mut self,
        kind: SourceKind,
        pattern: TemporalSpec,
        name: impl Into<String>,
        window: EmitWindow,
    ) -> u32 {
        let mut rng = self.fork_rng();
        let first = window.start_after + pattern.first_gap(&mut rng);
        let stop = window.stop_after.map(|span| self.now() + span);
        let net = self.kernel.model_mut();
        let flow = net.stats_mut().register_flow(name);
        let idx = net.sources.len();
        net.sources.push(Source {
            kind,
            pattern,
            flow,
            stop,
            limit: window.limit,
            emitted: 0,
            rng,
            done: false,
        });
        self.kernel.schedule(first, NetEvent::SourceTick { idx });
        flow
    }

    /// Sends one BE packet immediately (outside any source).
    pub fn send_be(&mut self, src: RouterId, dst: RouterId, payload: &[u32], flow: Option<u32>) {
        let now = self.kernel.now();
        let net = self.kernel.model_mut();
        if net.enqueue_be_packet(src, dst, payload, flow, now) {
            let delay = net.inject_delay();
            self.kernel
                .schedule(delay, NetEvent::NaBeInject { id: src });
        }
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// Starts the measurement window now.
    pub fn begin_measurement(&mut self) {
        let now = self.kernel.now();
        self.kernel.model_mut().stats_mut().begin_measurement(now);
    }

    /// Elapsed measurement window.
    ///
    /// # Panics
    ///
    /// Panics if measurement was never begun.
    pub fn measured_window(&self) -> SimDuration {
        let start = self
            .network()
            .stats()
            .measure_start()
            .expect("begin_measurement not called");
        self.now().since(start)
    }

    /// Statistics for a flow (owned snapshot).
    pub fn flow(&self, flow: u32) -> FlowStats {
        self.network().stats().flow(flow)
    }

    /// Delivered throughput of a flow over the measurement window, in
    /// Mflit/s (GS) or Mpackets/s (BE).
    pub fn flow_throughput_m(&self, flow: u32) -> f64 {
        self.flow(flow).throughput_mfps(self.measured_window())
    }

    /// The link capacity implied by the router timing, in Mflit/s —
    /// the paper's "port speed".
    pub fn link_capacity_m(&self) -> f64 {
        self.network().router_cfg().timing.link_cycle.as_rate_mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_construction_and_time_flow() {
        let mut sim = NocSim::paper_mesh(2, 2, 42);
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.run_for(SimDuration::from_ns(100));
        assert_eq!(sim.now(), SimTime::from_ns(100));
    }

    #[test]
    fn open_connection_settles_via_programming_traffic() {
        let mut sim = NocSim::paper_mesh(3, 3, 1);
        let id = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(2, 1))
            .unwrap();
        assert_eq!(sim.connection_state(id), Some(ConnState::Opening));
        sim.wait_connections_settled().unwrap();
        assert_eq!(sim.connection_state(id), Some(ConnState::Open));
        // Each of the three remote routers consumed one config packet.
        let hops = sim.network().connections().get(id).unwrap().hops();
        assert_eq!(hops, 3);
        let programmed: u64 = sim
            .network()
            .routers()
            .iter()
            .map(|r| r.stats().prog_packets)
            .sum();
        assert_eq!(programmed, 3);
        let errors: u64 = sim
            .network()
            .routers()
            .iter()
            .map(|r| r.stats().prog_errors)
            .sum();
        assert_eq!(errors, 0);
    }

    /// Set-up ends at the last programming ack, not on a step boundary.
    #[test]
    fn settling_returns_at_the_last_ack() {
        let mut sim = NocSim::paper_mesh(4, 4, 1);
        let ids = [
            sim.open_connection(RouterId::new(0, 0), RouterId::new(3, 3)),
            sim.open_connection(RouterId::new(3, 0), RouterId::new(0, 2)),
        ]
        .map(Result::unwrap);
        sim.wait_connections_settled().unwrap();
        let last_ack = ids
            .iter()
            .filter_map(|&id| sim.network().connections().get(id)?.opened_at)
            .max();
        assert_eq!(Some(sim.now()), last_ack);
        let grid = SimDuration::from_us(1).as_ps();
        assert_ne!(sim.now().as_ps() % grid, 0, "on the 1 µs grid");
    }

    /// A programming packet lost to a fault posts no ack, and a running
    /// source keeps the queue from draining: the deadline ends the wait.
    #[test]
    fn a_lost_programming_packet_ends_the_wait_at_its_deadline() {
        let mut sim = NocSim::paper_mesh(4, 3, 1);
        let id = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(3, 0))
            .unwrap();
        // A remote hop dies before its config packet reaches it.
        let hop = RouterId::new(2, 0);
        sim.install_faults(
            FaultSchedule::new(1).with(SimTime::ZERO, crate::FaultKind::RouterDown { id: hop }),
        );
        sim.add_be_source(
            RouterId::new(0, 2),
            vec![RouterId::new(1, 2)],
            1,
            TemporalSpec::cbr(SimDuration::from_us(1)),
            "keep-alive",
            EmitWindow::default(),
        );
        let deadline = sim.now() + SimDuration::from_us(10_000);
        let err = sim.wait_connections_settled().unwrap_err();
        assert!(err.contains("10 ms"), "{err}");
        assert_eq!(sim.now(), deadline);
        assert_eq!(sim.connection_state(id), Some(ConnState::Opening));
    }

    /// A Poisson source's first emission is its process's first arrival,
    /// one drawn gap after its start; a CBR source emits at its start.
    #[test]
    fn a_poisson_source_starts_one_drawn_gap_after_its_start() {
        let mut sim = NocSim::paper_mesh(8, 8, 3);
        sim.run_for(SimDuration::from_ns(250));
        let start = sim.now();
        let mean = SimDuration::from_us(1);
        let once = EmitWindow {
            limit: Some(1),
            ..Default::default()
        };
        let nodes: Vec<RouterId> = sim.network().grid().ids().collect();
        for &src in &nodes {
            let poisson = TemporalSpec::poisson(mean);
            sim.add_traffic_source(src, SpatialPattern::UniformRandom, 1, poisson, "p", once);
        }
        let cbr = TemporalSpec::cbr(mean);
        let cbr = sim.add_be_source(nodes[0], vec![nodes[1]], 1, cbr, "cbr", once);
        sim.run_for(SimDuration::ZERO);
        assert_eq!(sim.flow(cbr).injected, 1, "CBR emits at its start");

        // Each Poisson source's first emission, to the nanosecond.
        let mut first = vec![None; nodes.len()];
        for _ in 0..100_000 {
            for (f, s) in first.iter_mut().zip(&sim.network().sources) {
                if f.is_none() && s.emitted == 1 {
                    *f = Some(sim.now().since(start).as_ps() as f64);
                }
            }
            if first.iter().all(Option::is_some) {
                break;
            }
            sim.run_for(SimDuration::from_ns(1));
        }
        let first: Vec<f64> = first.into_iter().map(Option::unwrap).collect();
        assert!(
            first.iter().all(|&t| t > 0.0),
            "emitted at start: {first:?}"
        );
        // The mean of 64 exponential gaps has a standard error of mean/8;
        // allow three of them.
        let observed = first.iter().sum::<f64>() / first.len() as f64;
        let mean = mean.as_ps() as f64;
        assert!(
            (observed - mean).abs() < 3.0 * mean / 8.0,
            "mean first gap {observed} ps, process mean {mean} ps"
        );
    }

    #[test]
    fn gs_traffic_flows_end_to_end() {
        let mut sim = NocSim::paper_mesh(3, 3, 7);
        let id = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(2, 2))
            .unwrap();
        sim.wait_connections_settled().unwrap();
        sim.begin_measurement();
        let flow = sim.add_gs_source(
            id,
            TemporalSpec::cbr(SimDuration::from_ns(10)),
            "test-gs",
            EmitWindow {
                limit: Some(100),
                ..Default::default()
            },
        );
        let outcome = sim.run_to_quiescence();
        assert_eq!(outcome, RunOutcome::Quiescent, "traffic must drain");
        let stats = sim.flow(flow);
        assert_eq!(stats.injected, 100);
        assert_eq!(stats.delivered, 100, "GS delivery is lossless");
        assert_eq!(stats.sequence_errors, 0, "GS delivery is in-order");
        assert!(stats.latency.count() > 0);
    }

    #[test]
    fn be_traffic_flows_end_to_end() {
        let mut sim = NocSim::paper_mesh(3, 3, 9);
        let flow = sim.add_be_source(
            RouterId::new(0, 0),
            vec![RouterId::new(2, 2)],
            4,
            TemporalSpec::cbr(SimDuration::from_ns(50)),
            "test-be",
            EmitWindow {
                limit: Some(50),
                ..Default::default()
            },
        );
        sim.begin_measurement();
        let outcome = sim.run_to_quiescence();
        assert_eq!(outcome, RunOutcome::Quiescent);
        let stats = sim.flow(flow);
        assert_eq!(stats.injected, 50);
        assert_eq!(stats.delivered, 50, "BE packets are lossless");
        assert_eq!(stats.sequence_errors, 0);
    }

    #[test]
    fn close_connection_releases_resources() {
        let mut sim = NocSim::paper_mesh(2, 2, 3);
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(1, 1);
        let id = sim.open_connection(src, dst).unwrap();
        sim.wait_connections_settled().unwrap();
        sim.close_connection(id).unwrap();
        sim.wait_connections_settled().unwrap();
        assert_eq!(sim.connection_state(id), Some(ConnState::Closed));
        // The VCs can be reused.
        let id2 = sim.open_connection(src, dst).unwrap();
        sim.wait_connections_settled().unwrap();
        assert_eq!(sim.connection_state(id2), Some(ConnState::Open));
    }

    /// Re-enabling telemetry after `take_telemetry` must not leave the
    /// previous activation's sampler chain running: a stale
    /// `TelemetrySample` still pending in the queue carries the old
    /// generation and must neither snapshot nor re-arm. Before the
    /// generation tag, the second activation sampled at double cadence
    /// (two chains) and the kernel profile double-counted sampler
    /// dispatches.
    #[test]
    fn telemetry_reenable_does_not_double_sample() {
        let mut sim = NocSim::paper_mesh(3, 3, 5);
        sim.add_be_source(
            RouterId::new(0, 0),
            vec![RouterId::new(2, 2)],
            4,
            TemporalSpec::cbr(SimDuration::from_ns(100)),
            "bg",
            EmitWindow::default(),
        );
        sim.enable_telemetry(TelemetryConfig {
            trace_flits: false,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_us(10));
        let first = sim.take_telemetry();
        assert!(!first.epochs.is_empty(), "first activation must sample");

        // The first activation's next sampler event is still pending.
        sim.enable_telemetry(TelemetryConfig {
            trace_flits: false,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_us(10));
        let second = sim.take_telemetry();
        assert_eq!(
            second.epochs.len(),
            first.epochs.len(),
            "re-enabled telemetry must sample at single cadence (no stale chain)"
        );
    }

    /// A 16×16 mesh runs on the same tuned wheel as the 4×4 probe.
    #[test]
    fn large_mesh_runs_on_the_default_wheel() {
        let sim = NocSim::paper_mesh(16, 16, 1);
        assert_eq!(sim.wheel_geometry().num_buckets, 2048);
        assert_eq!(sim.wheel_geometry().width_ps(), 32);
    }
}
