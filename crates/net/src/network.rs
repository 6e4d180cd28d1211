//! The network model: routers, links and NAs assembled on the simulation
//! kernel.
//!
//! The whole mesh is one [`mango_sim::Model`]: each event names its target
//! node and the handler translates [`RouterAction`]s into further events
//! (link traversals, unlock toggles, credits, NA activity). Cross-node
//! interaction happens exclusively through events, which keeps the model
//! single-borrow and the simulation deterministic.

use crate::conn::{ConnectionManager, OpenPlan};
use crate::fault::{FaultCounters, FaultKind, FaultSchedule, FaultState};
use crate::meta::MetaSlab;
use crate::na::NaConfig;
use crate::na_arena::NaArena;
use crate::relay::{self, RelayTable, RelayTicket};
use crate::stats::NetStats;
use crate::telemetry::{
    TelemetryConfig, TelemetrySink, TelemetryState, TRACE_PID_FLITS, TRACE_PID_RECOVERY,
};
use crate::topology::Grid;
use crate::traffic::{Source, SourceKind};
use mango_core::{
    prog, BeArena, ConnectionId, Direction, Flit, FlitMeta, GsArena, GsBufferRef, InternalEvent,
    LinkFlit, Router, RouterAction, RouterConfig, RouterId, Steer, UpstreamRef, VcId,
};
use mango_sim::{Ctx, Model, SimDuration, SimTime};
use mango_telemetry::{EvName, Sample, TelemetryReport};

/// An event in the network simulation.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// Deferred router-internal event.
    Router {
        /// Target router.
        id: RouterId,
        /// The event.
        ev: InternalEvent,
    },
    /// A flit arrives at a router's input port.
    LinkFlit {
        /// Receiving router.
        to: RouterId,
        /// Input port it arrives on.
        from: Direction,
        /// The flit and its steering.
        lf: LinkFlit,
    },
    /// An unlock toggle arrives at a router's output port.
    Unlock {
        /// Receiving router.
        to: RouterId,
        /// Output port.
        dir: Direction,
        /// VC wire index.
        wire: VcId,
    },
    /// A BE credit arrives at a router's output port.
    Credit {
        /// Receiving router.
        to: RouterId,
        /// Output port.
        dir: Direction,
    },
    /// The NA injects the next GS flit on an interface.
    NaGsInject {
        /// The node.
        id: RouterId,
        /// TX interface.
        iface: u8,
    },
    /// The NA injects the next BE flit.
    NaBeInject {
        /// The node.
        id: RouterId,
    },
    /// The core finished consuming a delivered GS flit.
    NaGsConsumed {
        /// The node.
        id: RouterId,
        /// Local GS interface.
        iface: u8,
    },
    /// A traffic source emits.
    SourceTick {
        /// Index into the source table.
        idx: usize,
    },
    /// A scheduled fault strikes (index into the installed schedule's
    /// application order).
    Fault {
        /// Fault event index.
        idx: usize,
    },
    /// A connection watchdog fires (index into the watchdog table).
    Watchdog {
        /// Watchdog index.
        idx: usize,
    },
    /// The telemetry epoch sampler fires: snapshot one time-series row
    /// and re-arm (self-rescheduling while other events remain).
    TelemetrySample {
        /// Which telemetry activation this sampler belongs to. A stale
        /// sampler event left in the queue by [`Network::take_telemetry`]
        /// carries the old generation and is ignored (and not re-armed)
        /// instead of starting a second sampler chain that would
        /// double-count epochs and profiled dispatches.
        generation: u32,
    },
}

/// A node: one router. The network adapter's hot state lives in the
/// network-owned [`NaArena`]; address it through [`Network::na`].
#[derive(Debug)]
pub struct Node {
    /// The router.
    pub router: Router,
}

/// An application packet produced by an [`NaApp`].
#[derive(Debug, Clone)]
pub struct AppPacket {
    /// Destination router.
    pub dest: RouterId,
    /// Payload words.
    pub payload: Vec<u32>,
    /// Flow to account the packet under, if any.
    pub flow: Option<u32>,
}

/// Application logic attached to an NA: reacts to delivered BE packets
/// (e.g. an OCP slave turning requests into responses).
///
/// `Send` is a supertrait so a whole [`Network`] can move to a worker
/// thread — parameter sweeps run one independent network per thread.
pub trait NaApp: std::fmt::Debug + Send {
    /// Handles a delivered packet (header flit first); returns packets to
    /// send in response.
    fn on_packet(&mut self, now: SimTime, packet: &[Flit]) -> Vec<AppPacket>;
}

/// The complete network state.
#[derive(Debug)]
pub struct Network {
    grid: Grid,
    nodes: Vec<Node>,
    /// Flat storage for every router's GS buffers (one slab for the
    /// mesh; routers address it via their [`mango_core::RouterSlots`]).
    arena: GsArena,
    be_arena: BeArena,
    na: NaArena,
    /// The instrumentation record of every instrumented flit in the
    /// system, addressed by [`Flit::tag`].
    meta: MetaSlab,
    /// Live relay tickets for BE packets beyond the 15-hop header.
    relays: RelayTable,
    sources: Vec<Source>,
    stats: NetStats,
    conn: ConnectionManager,
    /// Application logic per node, indexed densely like `nodes`.
    apps: Vec<Option<Box<dyn NaApp>>>,
    scratch: Vec<RouterAction>,
    /// Reusable BE payload buffer for source ticks.
    payload_scratch: Vec<u32>,
    /// Reusable buffer for assembled BE packets at delivery.
    packet_scratch: Vec<Flit>,
    /// Reusable buffer for building BE packets at injection.
    flit_scratch: Vec<Flit>,
    router_cfg: RouterConfig,
    na_cfg: NaConfig,
    /// Live fault state; `None` (the default) is the healthy fast path —
    /// no schedule installed means bit-identical behavior to a build
    /// without the fault subsystem.
    faults: Option<Box<FaultState>>,
    /// Drop/spoof counters (also counts route-failure drops, which can
    /// only occur once links are masked out).
    counters: FaultCounters,
    /// Stream watchdogs for broken-connection detection.
    watchdogs: Vec<Watchdog>,
    /// Connections declared broken by a watchdog, awaiting collection by
    /// the recovery controller.
    broken: Vec<BrokenConn>,
    /// Telemetry sink; `Off` (the default) keeps every hook to a single
    /// branch so untelemetered runs stay byte- and perf-identical.
    telemetry: TelemetrySink,
    /// Bumped on every [`Network::enable_telemetry`]; sampler events
    /// tagged with older generations are stale chains and are dropped.
    telemetry_generation: u32,
    /// Debug-build half of the flit-conservation ledger: instrumented
    /// flits inside scheduled events (`LinkFlit`, router-internal
    /// `BeMoved`). Every other instrumented flit sits in a buffer found
    /// by walking arena/router/NA state, so at any event boundary
    /// `meta.live() == buffered + wire`.
    #[cfg(debug_assertions)]
    wire: i64,
}

/// A stream watchdog: declares its connection broken when the flow's
/// delivered count stops advancing between firings.
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    conn: ConnectionId,
    flow: u32,
    timeout: SimDuration,
    last_delivered: u64,
    armed: bool,
}

/// A watchdog verdict: which connection broke, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokenConn {
    /// The broken connection.
    pub conn: ConnectionId,
    /// The flow its watchdog monitored.
    pub flow: u32,
    /// When the watchdog declared it broken.
    pub detected_at: SimTime,
}

impl Network {
    /// Builds a homogeneous mesh of the paper's routers over one flat
    /// buffer arena.
    pub fn new(grid: Grid, router_cfg: RouterConfig, na_cfg: NaConfig) -> Self {
        router_cfg
            .validate()
            .unwrap_or_else(|e| panic!("invalid router config: {e}"));
        let mut arena = GsArena::with_capacity(
            router_cfg.gs_vcs(),
            router_cfg.local_gs_ifaces(),
            router_cfg.buffer_depth(),
            router_cfg.na_rx_depth,
            grid.len(),
        );
        let mut be_arena = BeArena::with_capacity(
            router_cfg.be_input_depth,
            router_cfg.be_output_depth,
            router_cfg.be_link_credits,
            grid.len(),
        );
        let na = NaArena::new(router_cfg.local_gs_ifaces(), na_cfg.clone(), grid.len());
        // One shared config allocation for the whole mesh: every router's
        // per-event timing reads hit the same cache lines.
        let shared_cfg = std::sync::Arc::new(router_cfg.clone());
        let nodes: Vec<Node> = grid
            .ids()
            .map(|id| Node {
                router: Router::new_in(id, shared_cfg.clone(), &mut arena, &mut be_arena),
            })
            .collect();
        let apps = (0..nodes.len()).map(|_| None).collect();
        Network {
            conn: ConnectionManager::new(router_cfg.gs_vcs(), router_cfg.local_gs_ifaces()),
            grid,
            nodes,
            arena,
            be_arena,
            na,
            meta: MetaSlab::new(),
            relays: RelayTable::new(),
            sources: Vec::new(),
            stats: NetStats::new(),
            apps,
            scratch: Vec::new(),
            payload_scratch: Vec::new(),
            packet_scratch: Vec::new(),
            flit_scratch: Vec::new(),
            router_cfg,
            na_cfg,
            faults: None,
            counters: FaultCounters::default(),
            watchdogs: Vec::new(),
            broken: Vec::new(),
            telemetry: TelemetrySink::Off,
            telemetry_generation: 0,
            #[cfg(debug_assertions)]
            wire: 0,
        }
    }

    /// The topology.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The router configuration shared by all nodes.
    pub fn router_cfg(&self) -> &RouterConfig {
        &self.router_cfg
    }

    /// The NA configuration shared by all nodes.
    pub fn na_cfg(&self) -> &NaConfig {
        &self.na_cfg
    }

    /// Statistics registry.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable statistics registry (for measurement-window control).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// The connection manager.
    pub fn connections(&self) -> &ConnectionManager {
        &self.conn
    }

    /// Mutable connection manager (used by the harness to plan opens).
    pub fn connections_mut(&mut self) -> &mut ConnectionManager {
        &mut self.conn
    }

    /// The shared GS buffer arena.
    pub fn arena(&self) -> &GsArena {
        &self.arena
    }

    /// The shared BE latch/steering arena.
    pub fn be_arena(&self) -> &BeArena {
        &self.be_arena
    }

    /// The shared NA state arena (indexed by row-major node).
    pub fn na(&self) -> &NaArena {
        &self.na
    }

    /// Mutable NA arena access (harness: binding, raw injection).
    pub fn na_mut(&mut self) -> &mut NaArena {
        &mut self.na
    }

    /// The instrumentation-record slab.
    pub fn meta(&self) -> &MetaSlab {
        &self.meta
    }

    /// Plans a connection open along the default XY route (see
    /// [`ConnectionManager::open`]); the network lends its relay table so
    /// config packets can cross meshes wider than the BE header radius.
    ///
    /// # Errors
    ///
    /// Propagates allocation/routing failures; nothing is reserved then.
    pub fn plan_open(
        &mut self,
        src: RouterId,
        dst: RouterId,
    ) -> Result<OpenPlan, crate::conn::ConnError> {
        self.conn.open(&self.grid, &mut self.relays, src, dst)
    }

    /// Plans a connection open along an explicit path (see
    /// [`ConnectionManager::open_along`]).
    ///
    /// # Errors
    ///
    /// Propagates allocation/path-validation failures.
    pub fn plan_open_along(
        &mut self,
        src: RouterId,
        dst: RouterId,
        dirs: &[Direction],
    ) -> Result<OpenPlan, crate::conn::ConnError> {
        self.conn
            .open_along(&self.grid, &mut self.relays, src, dst, dirs)
    }

    /// Plans a connection close (see [`ConnectionManager::close`]).
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown or not open.
    pub fn plan_close(
        &mut self,
        id: mango_core::ConnectionId,
    ) -> Result<crate::conn::ClosePlan, crate::conn::ConnError> {
        self.conn.close(&self.grid, &mut self.relays, id)
    }

    /// Plans a forced, out-of-band teardown (see
    /// [`ConnectionManager::force_close`]); the caller applies the local
    /// writes and unbinds the NA interface.
    ///
    /// # Errors
    ///
    /// Fails only if the connection is unknown.
    pub fn plan_force_close(
        &mut self,
        id: mango_core::ConnectionId,
        now: mango_sim::SimTime,
    ) -> Result<crate::conn::ForceClosePlan, crate::conn::ConnError> {
        self.conn.force_close(&self.grid, id, now)
    }

    /// The node at `id`.
    pub fn node(&self, id: RouterId) -> &Node {
        &self.nodes[self.grid.index(id)]
    }

    /// Mutable node access (harness: programming, NA binding).
    pub fn node_mut(&mut self, id: RouterId) -> &mut Node {
        let idx = self.grid.index(id);
        &mut self.nodes[idx]
    }

    /// All nodes, row-major.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Attaches application logic to a node's NA.
    pub fn set_app(&mut self, id: RouterId, app: Box<dyn NaApp>) {
        let idx = self.grid.index(id);
        self.apps[idx] = Some(app);
    }

    /// Registers a traffic source; returns its index for `SourceTick`.
    pub fn add_source(&mut self, source: Source) -> usize {
        self.sources.push(source);
        self.sources.len() - 1
    }

    /// The source table.
    pub fn sources(&self) -> &[Source] {
        &self.sources
    }

    /// Silences every traffic source feeding `flow` (recovery: stop
    /// streaming into a broken connection before tearing it down).
    pub fn stop_sources_of_flow(&mut self, flow: u32) {
        for s in &mut self.sources {
            if s.flow == flow {
                s.done = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and detection
    // ------------------------------------------------------------------

    /// Installs a fault schedule and returns the application times, in
    /// event-index order; the caller must schedule a
    /// [`NetEvent::Fault`]`{ idx }` at each (see
    /// `NocSim::install_faults`). Only one schedule per network.
    ///
    /// # Panics
    ///
    /// Panics if a schedule is already installed or the schedule
    /// references off-grid elements.
    pub fn install_faults(&mut self, schedule: FaultSchedule) -> Vec<SimTime> {
        assert!(self.faults.is_none(), "fault schedule already installed");
        let (state, times) = FaultState::install(schedule, &self.grid);
        self.faults = Some(Box::new(state));
        times
    }

    /// Drop/spoof counters (all zero while the mesh is healthy).
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Activates the telemetry sink. The caller arms the epoch sampler
    /// via [`Network::telemetry_sampler_rearm`] and schedules the
    /// returned cadence (see `NocSim::enable_telemetry`).
    ///
    /// # Panics
    ///
    /// Panics if telemetry is already active.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        assert!(!self.telemetry.is_active(), "telemetry already enabled");
        self.telemetry_generation = self.telemetry_generation.wrapping_add(1);
        self.telemetry = TelemetrySink::Active(TelemetryState::new(cfg, self.telemetry_generation));
    }

    /// The telemetry sink.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Detaches the sink and finalizes it into a report (metric totals
    /// are filled from the statistics registries at this point). Returns
    /// `None` if telemetry was never enabled. The sink reverts to `Off`.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let mut st = match std::mem::take(&mut self.telemetry) {
            TelemetrySink::Off => return None,
            TelemetrySink::Active(st) => st,
        };
        let (injected, delivered) = self.stats.totals();
        let m = &mut st.metrics;
        for (name, value) in [
            ("flits.injected", injected),
            ("flits.delivered", delivered),
            ("flits.in_flight", self.stats.in_flight()),
            ("faults.gs_dropped", self.counters.gs_flits_dropped),
            ("faults.be_dropped", self.counters.be_flits_dropped),
            ("faults.spoofed_unlocks", self.counters.spoofed_unlocks),
            ("faults.spoofed_credits", self.counters.spoofed_credits),
            ("faults.be_route_drops", self.counters.be_route_drops),
            ("faults.relay_route_drops", self.counters.relay_route_drops),
            ("faults.ack_route_drops", self.counters.ack_route_drops),
            ("trace.flit_events", st.flit_events as u64),
            ("trace.flit_events_dropped", st.flit_events_dropped),
        ] {
            let id = m.counter(name);
            m.set_counter(id, value);
        }
        Some(st.into_report())
    }

    /// Records a lifecycle span on the recovery track (no-op while the
    /// sink is off) — the cold-path hook the QoS recovery engine uses.
    #[cold]
    #[inline(never)]
    pub fn telemetry_span(
        &mut self,
        cat: &'static str,
        name: impl Into<EvName>,
        start: SimTime,
        end: SimTime,
        tid: u32,
        args: Vec<(&'static str, u64)>,
    ) {
        if let Some(st) = self.telemetry.state_mut() {
            st.trace.span(
                cat,
                name,
                start.as_ps(),
                end.as_ps(),
                TRACE_PID_RECOVERY,
                tid,
                args,
            );
        }
    }

    /// Records an instant on the recovery track (no-op while off).
    #[cold]
    #[inline(never)]
    pub fn telemetry_instant(
        &mut self,
        cat: &'static str,
        name: impl Into<EvName>,
        at: SimTime,
        tid: u32,
        args: Vec<(&'static str, u64)>,
    ) {
        if let Some(st) = self.telemetry.state_mut() {
            st.trace
                .instant(cat, name, at.as_ps(), TRACE_PID_RECOVERY, tid, args);
        }
    }

    /// Sets a registered gauge (no-op while off).
    #[cold]
    #[inline(never)]
    pub fn telemetry_gauge(&mut self, name: &'static str, value: i64) {
        if let Some(st) = self.telemetry.state_mut() {
            let id = st.metrics.gauge(name);
            st.metrics.set_gauge(id, value);
        }
    }

    /// Adds to a registered counter (no-op while off).
    #[cold]
    #[inline(never)]
    pub fn telemetry_counter_add(&mut self, name: &'static str, n: u64) {
        if let Some(st) = self.telemetry.state_mut() {
            let id = st.metrics.counter(name);
            st.metrics.inc(id, n);
        }
    }

    /// One epoch sampler firing: append a snapshot row, then re-arm
    /// unless this sampler is the only thing keeping the simulation
    /// alive (`ctx.pending() == 0` right after the pop).
    #[cold]
    #[inline(never)]
    fn on_telemetry_sample(&mut self, generation: u32, ctx: &mut Ctx<NetEvent>) {
        // A sampler from a previous activation (left pending across
        // `take_telemetry` + `enable_telemetry`) must neither snapshot
        // nor re-arm — otherwise two chains run at once and every epoch
        // and profiled sampler dispatch is counted twice.
        match &self.telemetry {
            TelemetrySink::Active(st) if st.generation == generation => {}
            _ => return,
        }
        let now = ctx.now();
        let (injected, delivered) = self.stats.totals();
        let gs_buffered = self.arena.buffered_flits() as u64;
        let mut be_buffered = 0u64;
        let mut na_gs = 0u64;
        let mut na_be = 0u64;
        for (idx, node) in self.nodes.iter().enumerate() {
            be_buffered += node.router.be_flits_buffered(&self.be_arena) as u64;
            na_gs += self.na.gs_queued_total(idx) as u64;
            na_be += self.na.be_backlog(idx) as u64;
        }
        // Link utilization in exact micro-units (integer math: grants ×
        // link-cycle ÷ elapsed), aggregated over every directed link.
        let elapsed = now.as_ps() as u128;
        let cycle = self.router_cfg.timing.link_cycle.as_ps() as u128;
        let mut links = 0u128;
        let mut util_sum = 0u128;
        let mut util_max = 0u64;
        for node in &self.nodes {
            let id = node.router.id();
            for dir in Direction::ALL {
                if self.grid.neighbor(id, dir).is_none() {
                    continue;
                }
                links += 1;
                let util = (node.router.stats().grants(dir.index()) as u128 * cycle * 1_000_000)
                    .checked_div(elapsed)
                    .unwrap_or(0) as u64;
                util_sum += util as u128;
                util_max = util_max.max(util);
            }
        }
        let util_mean = util_sum.checked_div(links).unwrap_or(0) as u64;
        let (gs_dropped, be_dropped) = (
            self.counters.gs_flits_dropped,
            self.counters.be_flits_dropped,
        );
        let st = self.telemetry.state_mut().expect("checked active");
        st.epochs.push(vec![
            Sample::Micro(now.as_ps()),
            Sample::U64(injected),
            Sample::U64(delivered),
            Sample::U64(injected - delivered),
            Sample::U64(gs_buffered),
            Sample::U64(be_buffered),
            Sample::U64(na_gs),
            Sample::U64(na_be),
            Sample::Micro(util_mean),
            Sample::Micro(util_max),
            Sample::U64(gs_dropped),
            Sample::U64(be_dropped),
        ]);
        st.sampler_armed = ctx.pending() > 0;
        if st.sampler_armed {
            ctx.schedule(
                st.cfg.sample_every,
                NetEvent::TelemetrySample { generation },
            );
        }
    }

    /// Marks the epoch sampler armed and returns the cadence and
    /// generation to schedule the next [`NetEvent::TelemetrySample`]
    /// with — or `None` when telemetry is off or a sampler event is
    /// already pending. The run harness calls this at every run-segment
    /// start so a sampler that let an idle queue drain (e.g. during a
    /// warmup with no setup-phase traffic) revives once sources attach.
    pub fn telemetry_sampler_rearm(&mut self) -> Option<(SimDuration, u32)> {
        let st = self.telemetry.state_mut()?;
        if st.sampler_armed {
            return None;
        }
        st.sampler_armed = true;
        Some((st.cfg.sample_every, st.generation))
    }

    /// Records a per-hop grant instant for an instrumented flit.
    #[cold]
    #[inline(never)]
    fn t9n_hop(&mut self, now: SimTime, id: RouterId, dir: Direction, tag: u32) {
        let Some(st) = self.telemetry.state_mut() else {
            return;
        };
        if !st.cfg.trace_flits || !st.reserve_flit_event() {
            return;
        }
        let meta = self.meta.get(tag);
        st.trace.instant(
            "hop",
            "hop",
            now.as_ps(),
            TRACE_PID_FLITS,
            meta.flow(),
            vec![
                ("seq", meta.seq()),
                ("x", id.x as u64),
                ("y", id.y as u64),
                ("dir", dir.index() as u64),
            ],
        );
    }

    /// Records a relay re-injection instant for an instrumented BE
    /// packet crossing a chiplet boundary.
    #[cold]
    #[inline(never)]
    fn t9n_relay(&mut self, now: SimTime, id: RouterId, tag: u32) {
        let Some(st) = self.telemetry.state_mut() else {
            return;
        };
        if !st.cfg.trace_flits || !st.reserve_flit_event() {
            return;
        }
        let meta = self.meta.get(tag);
        st.trace.instant(
            "hop",
            "relay",
            now.as_ps(),
            TRACE_PID_FLITS,
            meta.flow(),
            vec![("seq", meta.seq()), ("x", id.x as u64), ("y", id.y as u64)],
        );
    }

    /// Records an end-to-end journey span for a delivered flit/packet
    /// and feeds the latency histogram.
    #[cold]
    #[inline(never)]
    fn t9n_deliver(&mut self, name: &'static str, now: SimTime, meta: FlitMeta, gs: bool) {
        let Some(st) = self.telemetry.state_mut() else {
            return;
        };
        let latency_ns = now.since(meta.injected_at()).as_ps() / 1000;
        let hist = if gs {
            st.hist_gs_latency
        } else {
            st.hist_be_latency
        };
        st.metrics.observe(hist, latency_ns);
        if !st.cfg.trace_flits || !st.reserve_flit_event() {
            return;
        }
        st.trace.span(
            "flit",
            name,
            meta.injected_at().as_ps(),
            now.as_ps(),
            TRACE_PID_FLITS,
            meta.flow(),
            vec![("seq", meta.seq())],
        );
    }

    /// Records a fault-drop instant for an instrumented flit.
    #[cold]
    #[inline(never)]
    fn t9n_drop(&mut self, now: SimTime, id: RouterId, dir: Direction, tag: u32) {
        let Some(st) = self.telemetry.state_mut() else {
            return;
        };
        if !st.cfg.trace_flits || !st.reserve_flit_event() {
            return;
        }
        let meta = self.meta.get(tag);
        st.trace.instant(
            "fault",
            "drop",
            now.as_ps(),
            TRACE_PID_FLITS,
            meta.flow(),
            vec![
                ("seq", meta.seq()),
                ("x", id.x as u64),
                ("y", id.y as u64),
                ("dir", dir.index() as u64),
            ],
        );
    }

    // ------------------------------------------------------------------
    // Flit conservation
    // ------------------------------------------------------------------

    /// Instrumented flits found by walking every buffer: the GS arena,
    /// each router's BE unit and each NA. Together with the flits inside
    /// scheduled events these are all the instrumented flits in the
    /// system, so with an empty event queue this equals
    /// [`MetaSlab::live`] — in release builds too.
    pub fn instrumented_flits_buffered(&self) -> u64 {
        self.arena.flow_flits()
            + self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| n.router.flow_flits_buffered(&self.be_arena) + self.na.flow_flits(i))
                .sum::<u64>()
    }

    /// Asserts the flit-conservation invariant: every instrumentation
    /// record belongs to a flit that is buffered somewhere or inside a
    /// scheduled event — none leaked, none released early. Call between
    /// events (e.g. after a run). Compiled to a no-op in release builds,
    /// which do not count the flits inside events.
    pub fn debug_check_conservation(&self) {
        #[cfg(debug_assertions)]
        {
            let buffered = self.instrumented_flits_buffered() as i64;
            assert_eq!(
                self.meta.live() as i64,
                buffered + self.wire,
                "flit conservation violated: {} live records != buffered {} + wire {}",
                self.meta.live(),
                buffered,
                self.wire,
            );
        }
    }

    /// Force-unbinds GS TX interface `iface` of node `idx` (see
    /// [`NaArena::force_unbind_tx`]) and releases the instrumentation
    /// records of the flits it discards.
    pub fn force_unbind_tx(&mut self, idx: usize, iface: u8) {
        for flit in self.na.force_unbind_tx(idx, iface) {
            self.meta.release(flit.tag());
        }
    }

    /// Registers a stream watchdog on `conn`'s traffic `flow` and returns
    /// its index; the caller must schedule the first
    /// [`NetEvent::Watchdog`]`{ idx }` after `timeout` (see
    /// `NocSim::arm_watchdog`). The watchdog re-arms itself while the
    /// flow's delivered count keeps advancing and declares the connection
    /// broken the first time a whole timeout passes without progress.
    pub fn add_watchdog(&mut self, conn: ConnectionId, flow: u32, timeout: SimDuration) -> usize {
        let last_delivered = self.stats.delivered(flow);
        self.watchdogs.push(Watchdog {
            conn,
            flow,
            timeout,
            last_delivered,
            armed: true,
        });
        self.watchdogs.len() - 1
    }

    /// Disarms every watchdog monitoring `conn` (recovery in progress —
    /// silence duplicate verdicts until the replacement path is armed).
    pub fn disarm_watchdogs(&mut self, conn: ConnectionId) {
        for w in &mut self.watchdogs {
            if w.conn == conn {
                w.armed = false;
            }
        }
    }

    /// Drains the list of connections declared broken by watchdogs.
    pub fn take_broken(&mut self) -> Vec<BrokenConn> {
        std::mem::take(&mut self.broken)
    }

    fn on_watchdog(&mut self, idx: usize, ctx: &mut Ctx<NetEvent>) {
        let w = self.watchdogs[idx];
        if !w.armed {
            return;
        }
        let delivered = self.stats.delivered(w.flow);
        if delivered > w.last_delivered {
            self.watchdogs[idx].last_delivered = delivered;
            ctx.schedule(w.timeout, NetEvent::Watchdog { idx });
        } else {
            self.watchdogs[idx].armed = false;
            self.broken.push(BrokenConn {
                conn: w.conn,
                flow: w.flow,
                detected_at: ctx.now(),
            });
        }
    }

    /// Applies fault event `idx` of the installed schedule.
    fn apply_fault(&mut self, idx: usize) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let ev = faults.event(idx);
        match ev.kind {
            FaultKind::LinkDown { from, dir } => self.grid.fail_link(from, dir),
            // Flaky windows are tracked from installation; the kernel
            // event marks the application time for observability, the
            // drop decisions themselves are purely time-gated.
            FaultKind::LinkFlaky { .. } => {}
            FaultKind::RouterDown { id } => {
                faults.mark_dead(self.grid.index(id));
                self.grid.fail_router(id);
                for s in &mut self.sources {
                    let at = match s.kind {
                        SourceKind::Gs { router, .. } => router,
                        SourceKind::Be { router, .. } => router,
                    };
                    if at == id {
                        s.done = true;
                    }
                }
            }
            FaultKind::StuckVc { router, dir, vc } => faults.mark_stuck(router, dir, vc),
        }
    }

    /// Decides whether a flit leaving `from` toward `dir` is blackholed
    /// by a fault; if so, synthesizes the flow-control feedback the
    /// downstream router would have produced (see [`crate::fault`] module
    /// docs), releases the flit's instrumentation record and returns
    /// `true`. Only called with faults installed.
    fn blackhole_flit(
        &mut self,
        from: RouterId,
        dir: Direction,
        to: RouterId,
        lf: &LinkFlit,
        base_delay: SimDuration,
        ctx: &mut Ctx<NetEvent>,
    ) -> bool {
        let now = ctx.now();
        let hard_down = !self.grid.link_up(from, dir);
        let faults = self.faults.as_mut().expect("caller checked");
        let drop = match lf.steer {
            // BE framing must advance on every flit crossing a
            // flaky-tracked link, dropped or not.
            Steer::BeUnit => {
                let flaky = faults.flaky_drops_be(from, dir, now, lf.flit.eop());
                hard_down || flaky
            }
            Steer::GsBuffer { dir: bd, vc } => {
                hard_down || faults.is_stuck(to, bd, vc) || faults.flaky_drops_gs(from, dir, now)
            }
            Steer::LocalGs { .. } => hard_down || faults.flaky_drops_gs(from, dir, now),
        };
        if !drop {
            return false;
        }
        if lf.flit.is_instrumented() {
            if self.telemetry.is_active() {
                self.t9n_drop(now, from, dir, lf.flit.tag());
            }
            self.meta.release(lf.flit.tag());
        }
        // The spoofed feedback departs where the real feedback would
        // have: after the flit's forward path plus the downstream
        // handling and the return trip.
        let t = &self.router_cfg.timing;
        let back_extra = self.grid.link_extra(to, dir.opposite());
        match lf.steer {
            Steer::BeUnit => {
                self.counters.be_flits_dropped += 1;
                self.counters.spoofed_credits += 1;
                let delay = base_delay + t.hop_forward + t.credit_return + back_extra;
                ctx.schedule(delay, NetEvent::Credit { to: from, dir });
            }
            Steer::GsBuffer { dir: bd, vc } => {
                self.counters.gs_flits_dropped += 1;
                let delay = base_delay + t.buffer_advance + t.unlock_path + back_extra;
                self.spoof_unlock(from, dir, to, GsBufferRef::Net { dir: bd, vc }, delay, ctx);
            }
            Steer::LocalGs { iface } => {
                self.counters.gs_flits_dropped += 1;
                let delay = base_delay + t.buffer_advance + t.unlock_path + back_extra;
                self.spoof_unlock(from, dir, to, GsBufferRef::Local { iface }, delay, ctx);
            }
        }
        true
    }

    /// Synthesizes the unlock toggle the receiver would have sent for a
    /// GS flit that was blackholed on its way into `buffer` at
    /// `receiver`. The unlock wire is read from the receiver's own
    /// connection table — exactly the mapping the real unlock would have
    /// used; if the entry is already torn down, no feedback is owed.
    fn spoof_unlock(
        &mut self,
        sender: RouterId,
        dir: Direction,
        receiver: RouterId,
        buffer: GsBufferRef,
        delay: SimDuration,
        ctx: &mut Ctx<NetEvent>,
    ) {
        let table = self.nodes[self.grid.index(receiver)].router.table();
        if let Some(UpstreamRef::Link { wire, .. }) = table.unlock(buffer) {
            self.counters.spoofed_unlocks += 1;
            ctx.schedule(
                delay,
                NetEvent::Unlock {
                    to: sender,
                    dir,
                    wire,
                },
            );
        }
    }

    /// Absorbs events addressed to a dead router (router fail-stop). A
    /// flit already in flight when the router died still owes its sender
    /// feedback — spoofed here; everything else vanishes silently.
    fn absorbed_by_dead_router(&mut self, event: &NetEvent, ctx: &mut Ctx<NetEvent>) -> bool {
        let target = match event {
            NetEvent::Router { id, .. }
            | NetEvent::NaGsInject { id, .. }
            | NetEvent::NaBeInject { id }
            | NetEvent::NaGsConsumed { id, .. } => *id,
            NetEvent::LinkFlit { to, .. }
            | NetEvent::Unlock { to, .. }
            | NetEvent::Credit { to, .. } => *to,
            _ => return false,
        };
        let dead = self
            .faults
            .as_ref()
            .is_some_and(|f| f.is_dead(self.grid.index(target)));
        if !dead {
            return false;
        }
        // A flit vanishing into the dead router leaves the wire and the
        // system (counted as a fault loss below); its record is released
        // once the drop is traced.
        let lost = match event {
            NetEvent::LinkFlit { lf, .. } => lf.flit.tag(),
            NetEvent::Router {
                ev: InternalEvent::BeMoved { flit, .. },
                ..
            } => flit.tag(),
            _ => Flit::NO_TAG,
        };
        #[cfg(debug_assertions)]
        if lost != Flit::NO_TAG {
            self.wire -= 1;
        }
        if let NetEvent::LinkFlit { to, from, lf } = event {
            if self.telemetry.is_active() && lf.flit.is_instrumented() {
                self.t9n_drop(ctx.now(), *to, *from, lf.flit.tag());
            }
            let sender = self
                .grid
                .neighbor(*to, *from)
                .expect("link flits come from neighbors");
            let t = &self.router_cfg.timing;
            let back_extra = self.grid.link_extra(*to, *from);
            match lf.steer {
                Steer::BeUnit => {
                    self.counters.be_flits_dropped += 1;
                    self.counters.spoofed_credits += 1;
                    let delay = t.hop_forward + t.credit_return + back_extra;
                    ctx.schedule(
                        delay,
                        NetEvent::Credit {
                            to: sender,
                            dir: from.opposite(),
                        },
                    );
                }
                Steer::GsBuffer { dir: bd, vc } => {
                    self.counters.gs_flits_dropped += 1;
                    let delay = t.buffer_advance + t.unlock_path + back_extra;
                    self.spoof_unlock(
                        sender,
                        from.opposite(),
                        *to,
                        GsBufferRef::Net { dir: bd, vc },
                        delay,
                        ctx,
                    );
                }
                Steer::LocalGs { iface } => {
                    self.counters.gs_flits_dropped += 1;
                    let delay = t.buffer_advance + t.unlock_path + back_extra;
                    self.spoof_unlock(
                        sender,
                        from.opposite(),
                        *to,
                        GsBufferRef::Local { iface },
                        delay,
                        ctx,
                    );
                }
            }
        }
        self.meta.release(lost);
        true
    }

    /// The router stage delays driving the event model.
    pub fn router_timing(&self) -> &mango_hw::RouterTiming {
        &self.router_cfg.timing
    }

    /// GS injection latency: clock-domain crossing + local-port forward
    /// path.
    pub fn inject_delay(&self) -> SimDuration {
        self.na_cfg.sync_delay + self.router_timing().hop_forward
    }

    /// Builds a BE packet and queues it at `src`'s NA; returns `true` if
    /// the caller must schedule a [`NetEvent::NaBeInject`] for `src` after
    /// [`Network::inject_delay`].
    pub fn enqueue_be_packet(
        &mut self,
        src: RouterId,
        dst: RouterId,
        payload: &[u32],
        flow: Option<u32>,
        now: SimTime,
    ) -> bool {
        let mut flits = std::mem::take(&mut self.flit_scratch);
        if relay::build_segmented_packet_into(
            &self.grid,
            &mut self.relays,
            src,
            dst,
            payload,
            false,
            &mut flits,
        )
        .is_err()
        {
            // Typed degradation: a masked-out link (or a degenerate pair)
            // drops the packet instead of aborting the process.
            self.counters.be_route_drops += 1;
            self.flit_scratch = flits;
            return false;
        }
        if let Some(flow) = flow {
            let meta = FlitMeta::new(now, self.stats.on_inject(flow), flow);
            for f in &mut flits {
                *f = f.with_tag(self.meta.alloc(meta));
            }
        }
        let idx = self.grid.index(src);
        let inject = self.na.enqueue_be(idx, flits.iter().copied());
        self.flit_scratch = flits;
        inject
    }

    fn call_router(
        &mut self,
        id: RouterId,
        ctx: &mut Ctx<NetEvent>,
        f: impl FnOnce(&mut Router, &mut GsArena, &mut BeArena, &mut Vec<RouterAction>),
    ) {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        let idx = self.grid.index(id);
        f(
            &mut self.nodes[idx].router,
            &mut self.arena,
            &mut self.be_arena,
            &mut buf,
        );
        self.process_actions(id, &buf, ctx);
        self.scratch = buf;
    }

    fn process_actions(&mut self, id: RouterId, actions: &[RouterAction], ctx: &mut Ctx<NetEvent>) {
        for action in actions {
            match action {
                RouterAction::Internal { delay, event } => {
                    #[cfg(debug_assertions)]
                    if let InternalEvent::BeMoved { flit, .. } = event {
                        if flit.is_instrumented() {
                            self.wire += 1;
                        }
                    }
                    ctx.schedule(*delay, NetEvent::Router { id, ev: *event });
                }
                RouterAction::SendFlit { dir, lf, delay } => {
                    let to = self
                        .grid
                        .neighbor(id, *dir)
                        .unwrap_or_else(|| panic!("{id}: flit sent off-grid toward {dir}"));
                    let extra = self.grid.link_extra(id, *dir);
                    if self.faults.is_some()
                        && self.blackhole_flit(id, *dir, to, lf, *delay + extra, ctx)
                    {
                        continue;
                    }
                    #[cfg(debug_assertions)]
                    if lf.flit.is_instrumented() {
                        self.wire += 1;
                    }
                    if self.telemetry.is_active() && lf.flit.is_instrumented() {
                        self.t9n_hop(ctx.now(), id, *dir, lf.flit.tag());
                    }
                    ctx.schedule(
                        *delay + extra,
                        NetEvent::LinkFlit {
                            to,
                            from: dir.opposite(),
                            lf: *lf,
                        },
                    );
                }
                RouterAction::SendUnlock { dir, wire, delay } => {
                    let to = self
                        .grid
                        .neighbor(id, *dir)
                        .unwrap_or_else(|| panic!("{id}: unlock sent off-grid toward {dir}"));
                    let extra = self.grid.link_extra(id, *dir);
                    ctx.schedule(
                        *delay + extra,
                        NetEvent::Unlock {
                            to,
                            dir: dir.opposite(),
                            wire: *wire,
                        },
                    );
                }
                RouterAction::SendCredit { dir, delay } => {
                    let to = self
                        .grid
                        .neighbor(id, *dir)
                        .unwrap_or_else(|| panic!("{id}: credit sent off-grid toward {dir}"));
                    let extra = self.grid.link_extra(id, *dir);
                    ctx.schedule(
                        *delay + extra,
                        NetEvent::Credit {
                            to,
                            dir: dir.opposite(),
                        },
                    );
                }
                RouterAction::DeliverGs { iface, flit } => {
                    if flit.is_instrumented() {
                        let meta = self.meta.get(flit.tag());
                        self.meta.release(flit.tag());
                        self.stats.on_deliver(
                            meta.flow(),
                            meta.seq(),
                            meta.injected_at(),
                            ctx.now(),
                        );
                        if self.telemetry.is_active() {
                            self.t9n_deliver("gs", ctx.now(), meta, true);
                        }
                    }
                    // The core consumes the flit, then frees the delivery
                    // slot.
                    let delay = self.na_cfg.consume_delay;
                    ctx.schedule(delay, NetEvent::NaGsConsumed { id, iface: *iface });
                }
                RouterAction::DeliverBe { flit } => {
                    let idx = self.grid.index(id);
                    let mut packet = std::mem::take(&mut self.packet_scratch);
                    if self.na.be_deliver(idx, *flit, &mut packet) {
                        self.on_be_packet(id, &packet, ctx);
                    }
                    self.packet_scratch = packet;
                }
                RouterAction::NaUnlock { iface } => {
                    let idx = self.grid.index(id);
                    if self.na.gs_unlocked(idx, *iface) {
                        ctx.schedule(
                            self.inject_delay(),
                            NetEvent::NaGsInject { id, iface: *iface },
                        );
                    }
                }
                RouterAction::NaCredit => {
                    let idx = self.grid.index(id);
                    if self.na.be_credit(idx) {
                        ctx.schedule(self.inject_delay(), NetEvent::NaBeInject { id });
                    }
                }
            }
        }
    }

    /// Releases the instrumentation records of flits leaving the system.
    fn release_records(&mut self, flits: &[Flit]) {
        for f in flits {
            self.meta.release(f.tag());
        }
    }

    /// A complete BE packet was delivered at `id`'s NA. Unless it is
    /// relayed on, the packet leaves the system here.
    fn on_be_packet(&mut self, id: RouterId, packet: &[Flit], ctx: &mut Ctx<NetEvent>) {
        let header = packet[0];
        // Acknowledgments complete connection programming. An ack is a
        // two-flit packet whose payload parses as a *known* token — the
        // token check keeps application payloads that alias the ack magic
        // from being misclassified. On large meshes the ack travels in
        // ≤15-link legs: delivered short of the connection source, it is
        // re-launched toward it from here.
        if packet.len() == 2 {
            if let Some(token) = prog::parse_ack_word(packet[1].data) {
                if self.conn.known_token(token) {
                    let target = self
                        .conn
                        .token_src(token)
                        .expect("known token has a source");
                    if target == id {
                        self.conn.on_ack(token, &self.grid, ctx.now());
                    } else {
                        self.forward_ack(id, target, token, ctx);
                    }
                    // Acks never reach apps. They carry no records either,
                    // but an instrumented payload aliasing one would.
                    self.release_records(packet);
                    return;
                }
            }
        }
        // Relay continuations: a packet bound beyond the header radius
        // delivered at this intermediate NA — rebuild the next segment
        // and re-inject. Not a final delivery: no stats, no app. The
        // `relay` flit wire is set only by the segment builder, so an
        // application payload can never alias a continuation word.
        if packet.len() >= 2 && packet[1].relay() {
            let ticket = relay::parse_relay_word(packet[1].data)
                .and_then(|t| self.relays.take(t))
                .expect("relay wire set on a word that is not a live continuation");
            self.forward_relay(id, ticket, packet, ctx);
            return;
        }
        if header.is_instrumented() {
            let meta = self.meta.get(header.tag());
            self.stats
                .on_deliver(meta.flow(), meta.seq(), meta.injected_at(), ctx.now());
            if self.telemetry.is_active() {
                self.t9n_deliver("be", ctx.now(), meta, false);
            }
        }
        self.release_records(packet);
        let idx = self.grid.index(id);
        // Take the app out so it can borrow `self` for responses.
        if let Some(mut app) = self.apps[idx].take() {
            let responses = app.on_packet(ctx.now(), packet);
            self.apps[idx] = Some(app);
            for resp in responses {
                self.send_be_packet(id, resp.dest, &resp.payload, resp.flow, ctx.now(), ctx);
            }
        }
    }

    /// Re-launches an acknowledgment from relay node `from` toward the
    /// connection source it must reach (one more ≤15-link leg).
    fn forward_ack(
        &mut self,
        from: RouterId,
        target: RouterId,
        token: u16,
        ctx: &mut Ctx<NetEvent>,
    ) {
        let header = match relay::ack_leg_header(&self.grid, from, target) {
            Ok(h) => h,
            Err(_) => {
                // No surviving route back to the source: the ack is lost
                // and the open/close will be resolved by its watchdog or
                // poll deadline instead of a process abort.
                self.counters.ack_route_drops += 1;
                return;
            }
        };
        let mut flits = std::mem::take(&mut self.flit_scratch);
        mango_core::build_be_packet_into(header, &[prog::ack_word(token)], false, &mut flits);
        let idx = self.grid.index(from);
        if self.na.enqueue_be(idx, flits.iter().copied()) {
            ctx.schedule(self.inject_delay(), NetEvent::NaBeInject { id: from });
        }
        self.flit_scratch = flits;
    }

    /// Rebuilds a relayed packet's next segment at relay node `from` and
    /// re-injects it. The outgoing flits take over the incoming flits'
    /// instrumentation handles, so end-to-end latency spans the whole
    /// journey and no record is copied.
    fn forward_relay(
        &mut self,
        from: RouterId,
        ticket: RelayTicket,
        packet: &[Flit],
        ctx: &mut Ctx<NetEvent>,
    ) {
        // Incoming layout: [header, continuation, payload...].
        let mut payload = std::mem::take(&mut self.payload_scratch);
        payload.clear();
        payload.extend(packet[2..].iter().map(|f| f.data));
        let mut flits = std::mem::take(&mut self.flit_scratch);
        if relay::build_segmented_packet_into(
            &self.grid,
            &mut self.relays,
            from,
            ticket.dst,
            &payload,
            ticket.config,
            &mut flits,
        )
        .is_err()
        {
            // The fault set cut every remaining route: the relayed packet
            // is dropped here (its ticket was already consumed).
            self.counters.relay_route_drops += 1;
            self.release_records(packet);
            self.flit_scratch = flits;
            self.payload_scratch = payload;
            return;
        }
        // Hand the handles over: header to header, and the tail (payload,
        // plus the fresh continuation word if the route relays again)
        // from the incoming tail, aligned at the packet ends.
        let out_len = flits.len();
        for i in 0..out_len - 1 {
            let src = &packet[packet.len() - 1 - i];
            let dst = &mut flits[out_len - 1 - i];
            *dst = dst.with_tag(src.tag());
        }
        let hdr = packet[0];
        flits[0] = flits[0].with_tag(hdr.tag());
        if out_len < packet.len() {
            // The route stops relaying: the consumed continuation word is
            // the one incoming flit with no successor.
            self.meta.release(packet[1].tag());
        }
        if self.telemetry.is_active() && hdr.is_instrumented() {
            self.t9n_relay(ctx.now(), from, hdr.tag());
        }
        let idx = self.grid.index(from);
        if self.na.enqueue_be(idx, flits.iter().copied()) {
            ctx.schedule(self.inject_delay(), NetEvent::NaBeInject { id: from });
        }
        self.flit_scratch = flits;
        self.payload_scratch = payload;
    }

    /// Builds and enqueues a BE packet from `src` to `dst` at the source
    /// NA, scheduling injection if the NA was idle.
    pub fn send_be_packet(
        &mut self,
        src: RouterId,
        dst: RouterId,
        payload: &[u32],
        flow: Option<u32>,
        now: SimTime,
        ctx: &mut Ctx<NetEvent>,
    ) {
        if self.enqueue_be_packet(src, dst, payload, flow, now) {
            ctx.schedule(self.inject_delay(), NetEvent::NaBeInject { id: src });
        }
    }

    fn on_source_tick(&mut self, idx: usize, ctx: &mut Ctx<NetEvent>) {
        let now = ctx.now();
        if !self.sources[idx].may_emit(now) {
            // Throttled by stop/limit; try to schedule a later tick (start
            // gating is handled at add time).
            if let Some(next) = self.sources[idx].schedule_next(now) {
                ctx.schedule_at(next, NetEvent::SourceTick { idx });
            }
            return;
        }
        self.sources[idx].emitted += 1;
        let flow = self.sources[idx].flow;
        // Read what this tick emits without cloning the source kind (the
        // BE destination pool is a Vec; cloning it per tick is a hot-path
        // allocation).
        match self.sources[idx].kind {
            SourceKind::Gs { router, iface, .. } => {
                let seq = self.stats.on_inject(flow);
                let tag = self.meta.alloc(FlitMeta::new(now, seq, flow));
                let flit = Flit::gs(seq as u32).with_tag(tag);
                let node = self.grid.index(router);
                if self.na.enqueue_gs(node, iface, flit) {
                    ctx.schedule(
                        self.inject_delay(),
                        NetEvent::NaGsInject { id: router, iface },
                    );
                }
            }
            SourceKind::Be { .. } => {
                let source = &mut self.sources[idx];
                let SourceKind::Be {
                    router,
                    ref spatial,
                    payload_words,
                } = source.kind
                else {
                    unreachable!()
                };
                // Destination computed per emission — allocation-free for
                // every computed pattern. `None` (a self-loop or off-mesh
                // mapping, see [`SpatialPattern::pick`]) skips the
                // emission slot but keeps the tick cadence.
                let Some(dest) = spatial.pick(router, &self.grid, &mut source.rng) else {
                    if let Some(next) = self.sources[idx].schedule_next(now) {
                        ctx.schedule_at(next, NetEvent::SourceTick { idx });
                    }
                    return;
                };
                let mut payload = std::mem::take(&mut self.payload_scratch);
                payload.clear();
                payload.extend(0..payload_words as u32);
                self.send_be_packet(router, dest, &payload, Some(flow), now, ctx);
                self.payload_scratch = payload;
            }
        }
        if let Some(next) = self.sources[idx].schedule_next(now) {
            ctx.schedule_at(next, NetEvent::SourceTick { idx });
        }
    }
}

impl Model for Network {
    type Event = NetEvent;

    fn handle(&mut self, event: NetEvent, ctx: &mut Ctx<NetEvent>) {
        let now = ctx.now();
        if self.faults.is_some() && self.absorbed_by_dead_router(&event, ctx) {
            return;
        }
        match event {
            NetEvent::Router { id, ev } => {
                #[cfg(debug_assertions)]
                if let InternalEvent::BeMoved { flit, .. } = &ev {
                    if flit.is_instrumented() {
                        self.wire -= 1;
                    }
                }
                self.call_router(id, ctx, |r, bufs, be, act| {
                    r.on_internal(bufs, be, now, ev, act)
                })
            }
            NetEvent::LinkFlit { to, from, lf } => {
                #[cfg(debug_assertions)]
                if lf.flit.is_instrumented() {
                    self.wire -= 1;
                }
                self.call_router(to, ctx, |r, bufs, be, act| {
                    r.on_link_flit(bufs, be, now, from, lf, act)
                })
            }
            NetEvent::Unlock { to, dir, wire } => self.call_router(to, ctx, |r, bufs, be, act| {
                r.on_unlock(bufs, be, now, dir, wire, act)
            }),
            NetEvent::Credit { to, dir } => self.call_router(to, ctx, |r, bufs, be, act| {
                r.on_credit(bufs, be, now, dir, act)
            }),
            NetEvent::NaGsInject { id, iface } => {
                let idx = self.grid.index(id);
                let (steer, flit) = self.na.take_gs(idx, iface);
                self.call_router(id, ctx, |r, bufs, be, act| {
                    r.on_local_gs_inject(bufs, be, now, steer, flit, act)
                });
            }
            NetEvent::NaBeInject { id } => {
                let idx = self.grid.index(id);
                let (flit, more) = self.na.take_be(idx);
                if more {
                    ctx.schedule(self.na_cfg.be_inject_gap, NetEvent::NaBeInject { id });
                }
                self.call_router(id, ctx, |r, bufs, be, act| {
                    r.on_local_be_inject(bufs, be, now, flit, act)
                });
            }
            NetEvent::NaGsConsumed { id, iface } => {
                self.call_router(id, ctx, |r, bufs, be, act| {
                    r.on_local_gs_consume(bufs, be, now, iface, act)
                });
            }
            NetEvent::SourceTick { idx } => self.on_source_tick(idx, ctx),
            NetEvent::Fault { idx } => self.apply_fault(idx),
            NetEvent::Watchdog { idx } => self.on_watchdog(idx, ctx),
            NetEvent::TelemetrySample { generation } => self.on_telemetry_sample(generation, ctx),
        }
    }

    fn event_kind_names(&self) -> &'static [&'static str] {
        &[
            "router",
            "link_flit",
            "unlock",
            "credit",
            "na_gs_inject",
            "na_be_inject",
            "na_gs_consumed",
            "source_tick",
            "fault",
            "watchdog",
            "telemetry",
        ]
    }

    fn event_kind(&self, event: &NetEvent) -> usize {
        match event {
            NetEvent::Router { .. } => 0,
            NetEvent::LinkFlit { .. } => 1,
            NetEvent::Unlock { .. } => 2,
            NetEvent::Credit { .. } => 3,
            NetEvent::NaGsInject { .. } => 4,
            NetEvent::NaBeInject { .. } => 5,
            NetEvent::NaGsConsumed { .. } => 6,
            NetEvent::SourceTick { .. } => 7,
            NetEvent::Fault { .. } => 8,
            NetEvent::Watchdog { .. } => 9,
            NetEvent::TelemetrySample { .. } => 10,
        }
    }

    fn quiescent(&self) -> bool {
        self.nodes.iter().enumerate().all(|(i, n)| {
            n.router.is_quiescent(&self.arena, &self.be_arena) && self.na.is_quiescent(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_builds_paper_mesh() {
        let net = Network::new(Grid::new(3, 3), RouterConfig::paper(), NaConfig::paper());
        assert_eq!(net.nodes().len(), 9);
        assert!(net.quiescent());
        assert_eq!(
            net.node(RouterId::new(2, 2)).router.id(),
            RouterId::new(2, 2)
        );
    }

    /// The event is copied into the calendar queue on every `schedule`
    /// and out again on every pop; at 16 bytes the queue entry is 32 (see
    /// `mango_sim::event`'s pin), a byte more and it is 40.
    #[test]
    fn net_event_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<NetEvent>() <= 16);
    }

    #[test]
    #[should_panic(expected = "invalid router config")]
    fn invalid_config_rejected() {
        let mut cfg = RouterConfig::paper();
        cfg.params.ports = 3;
        let _ = Network::new(Grid::new(2, 2), cfg, NaConfig::paper());
    }
}
