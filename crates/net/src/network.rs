//! The network model: routers, links and NAs assembled on the simulation
//! kernel.
//!
//! The whole mesh is one [`mango_sim::Model`]: each event names its target
//! node and the handler translates [`RouterAction`]s into further events
//! (link traversals, unlock toggles, credits, NA activity). Cross-node
//! interaction happens exclusively through events, which keeps the model
//! single-borrow and the simulation deterministic.
//!
//! This file holds the state ([`Network`]), its accessors, final BE
//! delivery and the event dispatch ([`Model::handle`] → `call_router` →
//! `process_actions`). Every other decision is an `impl Network` block in
//! the module that owns its state — the crate docs have the table.
//!
//! # Lazy handshakes
//!
//! Three kinds of event only move a level that somebody may or may not
//! be waiting on: the end of a link cycle (`LinkFree`), an unlock toggle
//! ([`NetEvent::Unlock`]) and a BE credit ([`NetEvent::Credit`]). The
//! dispatch does not queue them. It reserves the slot the event would
//! have had ([`Ctx::reserve`] — same time, same sequence number, so every
//! other event keeps its place) and parks it at the receiving router
//! (`Router::park_*`), which absorbs it the next time it reads that level
//! past the slot. Only when somebody *is* waiting — a VC ready behind the
//! busy link, a flit behind the locked sharebox, an output stage out of
//! credit — does the event enter the queue, at its reserved slot
//! ([`RouterAction::Wake`], or straight away if the wait began first).
//! Flit for flit the run is the one a queue holding all of them would
//! have produced; it just dispatches a quarter to a third fewer events.

use crate::conn::{ConnectionManager, Notice, NoticeKind, OpenPlan};
use crate::fault::{FaultCounters, FaultState, Watchdog};
use crate::meta::MetaSlab;
use crate::na::{NaConfig, BE_INJECT_GAP};
use crate::na_arena::NaArena;
use crate::relay::RelayTable;
use crate::stats::NetStats;
use crate::telemetry::TelemetrySink;
use crate::topology::Grid;
use crate::traffic::Source;
use mango_core::{
    BeArena, ConnectionId, Direction, Flit, GsArena, Handshake, InternalEvent, LinkFlit, Router,
    RouterAction, RouterConfig, RouterId, VcId,
};
use mango_sim::{Ctx, Model, SimDuration, Slot};
use std::collections::VecDeque;

/// Slot kinds of the three lazy handshakes ([`Model::slot_kind_names`]).
const SLOT_LINK_FREE: usize = 0;
const SLOT_UNLOCK: usize = 1;
const SLOT_CREDIT: usize = 2;

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

/// Application logic attached to an NA: observes the BE packets
/// delivered there.
///
/// `Send` is a supertrait so a whole [`Network`] can move to a worker
/// thread — parameter sweeps run one independent network per thread.
pub trait NaApp: std::fmt::Debug + Send {
    /// Handles a delivered packet (header flit first).
    fn on_packet(&mut self, packet: &[Flit]);
}

/// The complete network state. Fields are crate-visible: each sibling
/// module's `impl Network` block works on the part it owns (see the
/// module docs).
#[derive(Debug)]
pub struct Network {
    pub(crate) grid: Grid,
    /// One router per node, row-major. The network adapters' hot state
    /// lives in the [`NaArena`]; address it through [`Network::na`].
    pub(crate) routers: Vec<Router>,
    /// Flat storage for every router's GS buffers (one slab for the
    /// mesh; routers address it via their [`mango_core::RouterSlots`]).
    pub(crate) arena: GsArena,
    pub(crate) be_arena: BeArena,
    pub(crate) na: NaArena,
    /// The instrumentation record of every instrumented flit in the
    /// system, addressed by [`Flit::tag`].
    pub(crate) meta: MetaSlab,
    /// Live relay tickets for BE packets beyond the 15-hop header.
    pub(crate) relays: RelayTable,
    pub(crate) sources: Vec<Source>,
    pub(crate) stats: NetStats,
    pub(crate) conn: ConnectionManager,
    /// Application logic per node, indexed densely like `routers`.
    apps: Vec<Option<Box<dyn NaApp>>>,
    scratch: Vec<RouterAction>,
    /// Reusable BE payload buffer for source ticks.
    pub(crate) payload_scratch: Vec<u32>,
    /// Reusable buffer for assembled BE packets at delivery.
    packet_scratch: Vec<Flit>,
    /// Reusable buffer for building BE packets at injection.
    pub(crate) flit_scratch: Vec<Flit>,
    pub(crate) router_cfg: RouterConfig,
    pub(crate) na_cfg: NaConfig,
    /// Live fault state; `None` (the default) is the healthy fast path —
    /// no schedule installed means bit-identical behavior to a build
    /// without the fault subsystem.
    pub(crate) faults: Option<Box<FaultState>>,
    /// Drop/spoof counters (also counts route-failure drops, which can
    /// only occur once links are masked out).
    pub(crate) counters: FaultCounters,
    /// Stream watchdogs for broken-connection detection.
    pub(crate) watchdogs: Vec<Watchdog>,
    /// Completed opens and closes and watchdog breaks, oldest first.
    notices: VecDeque<Notice>,
    /// Set while a control plane runs: a posted notice halts the kernel.
    pub(crate) halt_on_notice: bool,
    /// Telemetry sink; `Off` (the default) keeps every hook to a single
    /// branch so untelemetered runs stay byte- and perf-identical.
    pub(crate) telemetry: TelemetrySink,
    /// Bumped on every [`Network::enable_telemetry`]; sampler events
    /// tagged with older generations are stale chains and are dropped.
    pub(crate) telemetry_generation: u32,
    /// The lazy handshakes' twin, set by the trajectory tests: queue
    /// every reserved slot as the event it stands for, park nothing.
    #[cfg(test)]
    pub(crate) eager_handshakes: bool,
    /// Debug-build half of the flit-conservation ledger: instrumented
    /// flits inside scheduled events (`LinkFlit`, router-internal
    /// `BeMoved`). Every other instrumented flit sits in a buffer found
    /// by walking arena/router/NA state, so at any event boundary
    /// `meta.live() == buffered + wire`.
    #[cfg(debug_assertions)]
    pub(crate) wire: i64,
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
            grid.len(),
        );
        let mut be_arena = BeArena::with_capacity(grid.len());
        let na = NaArena::new(router_cfg.local_gs_ifaces(), grid.len());
        // One shared config allocation for the whole mesh: every router's
        // per-event timing reads hit the same cache lines.
        let shared_cfg = std::sync::Arc::new(router_cfg.clone());
        let routers: Vec<Router> = grid
            .ids()
            .map(|id| Router::new_in(id, shared_cfg.clone(), &mut arena, &mut be_arena))
            .collect();
        let apps = (0..routers.len()).map(|_| None).collect();
        Network {
            conn: ConnectionManager::new(&grid, router_cfg.gs_vcs(), router_cfg.local_gs_ifaces()),
            grid,
            routers,
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
            notices: VecDeque::new(),
            halt_on_notice: false,
            telemetry: TelemetrySink::Off,
            telemetry_generation: 0,
            #[cfg(test)]
            eager_handshakes: false,
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

    /// The router at `id`.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[self.grid.index(id)]
    }

    /// Mutable router access (harness: programming).
    pub fn router_mut(&mut self, id: RouterId) -> &mut Router {
        let idx = self.grid.index(id);
        &mut self.routers[idx]
    }

    /// All routers, row-major.
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// Whether every `LinkFree`, unlock toggle and credit is queued as
    /// an event instead of parking its slot: the twin the trajectory
    /// tests run the lazy form against, never outside the tests.
    #[inline(always)]
    fn eager_handshakes(&self) -> bool {
        #[cfg(test)]
        return self.eager_handshakes;
        #[cfg(not(test))]
        false
    }

    /// Absorbs every parked handshake due at or before `upto` into the
    /// state its event would have left (see [`Router::settle`]). The
    /// kernel calls this when a run drains; call it with
    /// `Kernel::stamp()` before inspecting lock, credit or link state
    /// from outside at any other time.
    pub fn absorb_parked(&mut self, upto: Slot) {
        for router in &mut self.routers {
            router.settle(&mut self.arena, &mut self.be_arena, upto);
        }
    }

    /// Takes the oldest notice not taken yet.
    pub fn pop_notice(&mut self) -> Option<Notice> {
        self.notices.pop_front()
    }

    /// Drops every `Opened`/`Closed` notice, keeping the `Broken` ones:
    /// [`crate::NocSim::wait_connections_settled`] is their reader.
    pub(crate) fn drop_settle_notices(&mut self) {
        self.notices
            .retain(|n| matches!(n.kind, NoticeKind::Broken { .. }));
    }

    /// Posts a notice of what just happened to `conn`, halting the run at
    /// the end of this instant if a control plane is waiting for it.
    pub(crate) fn notify(&mut self, conn: ConnectionId, kind: NoticeKind, ctx: &mut Ctx<NetEvent>) {
        let at = ctx.now();
        self.notices.push_back(Notice { at, conn, kind });
        if self.halt_on_notice {
            ctx.halt();
        }
    }

    /// Attaches application logic to a node's NA.
    pub fn set_app(&mut self, id: RouterId, app: Box<dyn NaApp>) {
        let idx = self.grid.index(id);
        self.apps[idx] = Some(app);
    }

    /// The router stage delays driving the event model.
    pub fn router_timing(&self) -> &mango_hw::RouterTiming {
        &self.router_cfg.timing
    }

    /// GS injection latency: the local-port forward path (the
    /// clock-domain crossing is hidden behind the NA's async FIFO).
    pub fn inject_delay(&self) -> SimDuration {
        self.router_timing().hop_forward
    }

    /// A complete BE packet was delivered at `id`'s NA. Unless the relay
    /// layer takes it (an acknowledgment, or a continuation to re-inject)
    /// the packet leaves the system here.
    fn on_be_packet(&mut self, id: RouterId, packet: &[Flit], ctx: &mut Ctx<NetEvent>) {
        if self.relayed_on(id, packet, ctx) {
            return;
        }
        let header = packet[0];
        if header.is_instrumented() {
            let meta = self.meta.get(header.tag());
            self.stats
                .on_deliver(meta.flow(), meta.seq(), meta.injected_at(), ctx.now());
            if self.telemetry.is_active() {
                self.t9n_deliver("be", ctx.now(), meta, false);
            }
        }
        self.release_records(packet);
        if let Some(app) = &mut self.apps[self.grid.index(id)] {
            app.on_packet(packet);
        }
    }

    /// The router across `id`'s `dir` link and that link's extra (D2D)
    /// delay — where everything a router sends over a link goes.
    /// `inline(always)`: left to its heuristics LLVM keeps this out of
    /// line, a call per link event that measured +2 % per event.
    #[inline(always)]
    fn across(&self, id: RouterId, dir: Direction) -> (RouterId, SimDuration) {
        let to = self
            .grid
            .neighbor(id, dir)
            .unwrap_or_else(|| panic!("{id}: sent off-grid toward {dir}"));
        (to, self.grid.link_extra(id, dir))
    }
}

impl Model for Network {
    type Event = NetEvent;

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

    fn slot_kind_names(&self) -> &'static [&'static str] {
        &["link_free", "unlock", "credit"]
    }

    fn settle(&mut self, upto: Slot) {
        self.absorb_parked(upto);
        // Drained, nothing buffered, nothing ever broken: then every
        // handshake has come home — credits, open shareboxes, idle links
        // — and none is left parked.
        if self.faults.is_none() && self.quiescent() {
            let (bufs, be) = (&self.arena, &self.be_arena);
            if let Some(r) = self
                .routers
                .iter()
                .find(|r| !r.handshakes_at_rest(bufs, be))
            {
                panic!(
                    "{}: a handshake is still out on a quiescent network",
                    r.id()
                );
            }
        }
    }

    fn quiescent(&self) -> bool {
        self.routers
            .iter()
            .enumerate()
            .all(|(i, r)| r.is_quiescent(&self.arena, &self.be_arena) && self.na.is_quiescent(i))
    }

    fn handle(&mut self, event: NetEvent, ctx: &mut Ctx<NetEvent>) {
        let now = ctx.now();
        let stamp = ctx.stamp();
        if self.faults.is_some() && self.absorbed_by_dead_router(&event, ctx) {
            return;
        }
        match event {
            NetEvent::Router { id, ev } => {
                if let InternalEvent::BeMoved { flit, .. } = ev {
                    self.wire_exit(flit);
                }
                self.call_router(id, ctx, |r, bufs, be, act| {
                    r.on_internal(bufs, be, stamp, ev, act)
                })
            }
            NetEvent::LinkFlit { to, from, lf } => {
                self.wire_exit(lf.flit);
                self.call_router(to, ctx, |r, bufs, be, act| {
                    r.on_link_flit(bufs, be, now, from, lf, act)
                })
            }
            NetEvent::Unlock { to, dir, wire } => self.call_router(to, ctx, |r, bufs, be, act| {
                r.on_unlock(bufs, be, stamp, dir, wire, act)
            }),
            NetEvent::Credit { to, dir } => self.call_router(to, ctx, |r, bufs, be, act| {
                r.on_credit(bufs, be, stamp, dir, act)
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
                    ctx.schedule(BE_INJECT_GAP, NetEvent::NaBeInject { id });
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
            NetEvent::Fault { idx } => self.apply_fault(idx, stamp),
            NetEvent::Watchdog { idx } => self.on_watchdog(idx, ctx),
            NetEvent::TelemetrySample { generation } => self.on_telemetry_sample(generation, ctx),
        }
    }
}

impl Network {
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
            &mut self.routers[idx],
            &mut self.arena,
            &mut self.be_arena,
            &mut buf,
        );
        self.process_actions(id, &buf, ctx);
        self.scratch = buf;
    }

    fn process_actions(&mut self, id: RouterId, actions: &[RouterAction], ctx: &mut Ctx<NetEvent>) {
        for action in actions {
            match *action {
                // The end of the link cycle a grant just began: parked at
                // the router unless a VC is already ready behind it.
                RouterAction::Internal {
                    delay,
                    event: event @ InternalEvent::LinkFree { dir },
                } => {
                    let at = ctx.reserve(SLOT_LINK_FREE, delay);
                    let idx = self.grid.index(id);
                    if self.eager_handshakes() || self.routers[idx].park_link_free(dir, at) {
                        let ev = NetEvent::Router { id, ev: event };
                        ctx.schedule_reserved(SLOT_LINK_FREE, at, ev);
                    }
                }
                RouterAction::Internal { delay, event } => {
                    if let InternalEvent::BeMoved { flit, .. } = event {
                        self.wire_enter(flit);
                    }
                    ctx.schedule(delay, NetEvent::Router { id, ev: event });
                }
                RouterAction::SendFlit { dir, lf, delay } => {
                    let (to, extra) = self.across(id, dir);
                    if self.faults.is_some()
                        && self.blackhole_flit(id, dir, to, &lf, delay + extra, ctx)
                    {
                        continue;
                    }
                    self.wire_enter(lf.flit);
                    if self.telemetry.is_active() && lf.flit.is_instrumented() {
                        self.t9n_instant("hop", "hop", ctx.now(), id, Some(dir), lf.flit.tag());
                    }
                    let from = dir.opposite();
                    ctx.schedule(delay + extra, NetEvent::LinkFlit { to, from, lf });
                }
                RouterAction::SendUnlock { dir, wire, delay } => {
                    let (to, extra) = self.across(id, dir);
                    self.send_unlock(to, dir.opposite(), wire, delay + extra, ctx);
                }
                RouterAction::SendCredit { dir, delay } => {
                    let (to, extra) = self.across(id, dir);
                    self.send_credit(to, dir.opposite(), delay + extra, ctx);
                }
                RouterAction::Wake { at, what } => {
                    let (kind, ev) = match what {
                        Handshake::LinkFree { dir } => {
                            let ev = InternalEvent::LinkFree { dir };
                            (SLOT_LINK_FREE, NetEvent::Router { id, ev })
                        }
                        Handshake::Unlock { dir, wire } => {
                            (SLOT_UNLOCK, NetEvent::Unlock { to: id, dir, wire })
                        }
                        Handshake::Credit { dir } => {
                            (SLOT_CREDIT, NetEvent::Credit { to: id, dir })
                        }
                    };
                    ctx.schedule_reserved(kind, at, ev);
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
                    ctx.schedule(delay, NetEvent::NaGsConsumed { id, iface });
                }
                RouterAction::DeliverBe { flit } => {
                    let idx = self.grid.index(id);
                    let mut packet = std::mem::take(&mut self.packet_scratch);
                    if self.na.be_deliver(idx, flit, &mut packet) {
                        self.on_be_packet(id, &packet, ctx);
                    }
                    self.packet_scratch = packet;
                }
                RouterAction::NaUnlock { iface } => {
                    let idx = self.grid.index(id);
                    if self.na.gs_unlocked(idx, iface) {
                        ctx.schedule(self.inject_delay(), NetEvent::NaGsInject { id, iface });
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
}

impl Network {
    /// True unless a fail-stop killed the router at dense index `idx`
    /// (whatever is sent to a dead router vanishes).
    #[inline]
    fn alive(&self, idx: usize) -> bool {
        !self.faults.as_ref().is_some_and(|f| f.is_dead(idx))
    }

    /// The unlock toggle of VC `wire` is on its way to `to`'s output
    /// `dir`, due after `delay`: reserves its slot and parks it there —
    /// or queues the event, if a flit is already waiting behind that
    /// sharebox. Real and spoofed toggles alike.
    #[inline]
    pub(crate) fn send_unlock(
        &mut self,
        to: RouterId,
        dir: Direction,
        wire: VcId,
        delay: SimDuration,
        ctx: &mut Ctx<NetEvent>,
    ) {
        let at = ctx.reserve(SLOT_UNLOCK, delay);
        let idx = self.grid.index(to);
        if self.eager_handshakes()
            || (self.alive(idx) && self.routers[idx].park_unlock(&mut self.arena, dir, wire, at))
        {
            ctx.schedule_reserved(SLOT_UNLOCK, at, NetEvent::Unlock { to, dir, wire });
        }
    }

    /// A BE credit is on its way to `to`'s output `dir`, due after
    /// `delay`: reserves its slot and parks it there — or queues the
    /// event, if that output is blocked on credit. Real and spoofed
    /// credits alike.
    #[inline]
    pub(crate) fn send_credit(
        &mut self,
        to: RouterId,
        dir: Direction,
        delay: SimDuration,
        ctx: &mut Ctx<NetEvent>,
    ) {
        let at = ctx.reserve(SLOT_CREDIT, delay);
        let idx = self.grid.index(to);
        if self.eager_handshakes()
            || (self.alive(idx) && self.routers[idx].park_credit(&mut self.be_arena, dir, at))
        {
            ctx.schedule_reserved(SLOT_CREDIT, at, NetEvent::Credit { to, dir });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_builds_paper_mesh() {
        let net = Network::new(Grid::new(3, 3), RouterConfig::paper(), NaConfig::paper());
        assert_eq!(net.routers().len(), 9);
        assert!(net.quiescent());
        assert_eq!(net.router(RouterId::new(2, 2)).id(), RouterId::new(2, 2));
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
