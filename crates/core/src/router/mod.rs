//! The MANGO router: assembly of the non-blocking switching module, the
//! share-based VC control, the link arbiters and the BE unit (Fig. 8).
//!
//! The router is a passive, environment-driven state machine. Every `on_*`
//! method takes the current time and an action sink; the environment (the
//! network layer in `mango-net`, or a unit test) delivers link flits,
//! unlock toggles, credits and NA traffic, redelivers [`InternalEvent`]s
//! after the delays the router requests, and forwards outputs to neighbor
//! routers.
//!
//! # Buffer ownership
//!
//! The router holds **no flit storage of its own**: its GS VC buffers and
//! local-interface buffers live in the environment-owned [`GsArena`], and
//! its BE latches, output stages and arbitration locks live in the
//! equally environment-owned [`BeArena`] (one flat slab each for the
//! whole mesh). The router addresses its slots via the [`RouterSlots`] /
//! [`BeSlots`] bases handed out at construction; every `on_*` call
//! receives `&mut GsArena` and `&mut BeArena` alongside the action sink.
//! Only the connection table, the programming queues and the statistics
//! stay inside the router — they are cold relative to the per-flit path.
//!
//! # Module layout
//!
//! * [`mod@self`] — the `Router` struct, construction and the
//!   environment-input dispatch (`on_*`);
//! * `gs` — the guaranteed-service buffer path (arrival, advance,
//!   unlock propagation, local delivery);
//! * `ports` — output-link access: ready masks, arbitration kicks and
//!   grants (Sec. 4.4);
//! * `be_path` — the best-effort unit's routing and pumping (Sec. 5);
//! * `prog_io` — the BE-packet programming interface (Sec. 3).
//!
//! # Event flow of one GS hop
//!
//! Three events on an idle link (five before the handshakes went lazy —
//! the unlock toggle and the end of the link cycle each used to be one):
//!
//! 1. A link grant in the upstream router produced a
//!    [`RouterAction::SendFlit`]; after `hop_forward` the flit arrives here
//!    via [`Router::on_link_flit`], already steered through the split and
//!    switch stages into its reserved VC buffer's unsharebox (the switch is
//!    non-blocking: no arbitration happened on the way).
//! 2. When the buffer stage has space, the flit advances
//!    ([`InternalEvent::GsAdvance`]); leaving the unsharebox toggles the
//!    unlock wire back to the upstream sharebox
//!    ([`RouterAction::SendUnlock`]). The toggle is not queued: its slot
//!    is parked at the upstream VC ([`Router::park_unlock`]) and absorbed
//!    by whoever reads that lock next.
//! 3. A buffered flit with an open sharebox makes the VC *ready*; on an
//!    idle link the arbiter decides after `arb_decision`
//!    ([`InternalEvent::ArbDecide`]), implementing the configured GS
//!    discipline. On grant the flit leaves with fresh steering bits from
//!    the connection table, the sharebox locks, and the link stays busy
//!    for one `link_cycle` — until the parked slot of its
//!    [`InternalEvent::LinkFree`] ([`Router::park_link_free`]).
//!
//! The parked handshakes become events again — at the very slot they
//! were reserved with, so nothing else reorders — exactly when somebody
//! waits on them ([`RouterAction::Wake`]): a VC turning ready while the
//! link is busy wakes the `LinkFree` (the grant then follows the link
//! cycle directly, with no `ArbDecide`), and a flit completing its
//! advance behind a still-locked sharebox wakes the unlock toggle.
//!
//! # Event flow of one BE hop
//!
//! Four events per flit, five for a header (seven and eight before):
//! [`Router::on_link_flit`] latches it; a header waits `be_route`
//! ([`InternalEvent::BeRouted`]); the output's lock holder moves it to
//! the output stage in `be_arb` ([`InternalEvent::BeMoved`]), which
//! returns a credit upstream ([`RouterAction::SendCredit`], parked at the
//! upstream output by [`Router::park_credit`]); the staged flit is a
//! link-arbiter slot like any VC (`ArbDecide`, grant, parked
//! `LinkFree`). A stage that fills while the output holds no credit
//! wakes the parked credits — the blocked output is the one reader that
//! cannot absorb them late.

mod be_path;
mod gs;
mod ports;
mod prog_io;
#[cfg(test)]
mod tests;

pub use prog_io::source_hop_writes;

use crate::arb::ArbiterImpl;
use crate::arena::{GsArena, RouterSlots};
use crate::be::BeInput;
use crate::be_arena::{BeArena, BeSlots};
use crate::config::{RouterConfig, BE_INPUT_DEPTH};
use crate::events::{InternalEvent, RouterAction};
use crate::flit::{Flit, LinkFlit};
use crate::ids::{Direction, GsBufferRef, RouterId, VcId};
use crate::stats::RouterStats;
use crate::steer::Steer;
use crate::table::ConnectionTable;
use mango_sim::{SimTime, Slot};
use std::collections::VecDeque;
use std::sync::Arc;

/// One MANGO router.
pub struct Router {
    id: RouterId,
    /// Shared configuration — one allocation per network, so the timing
    /// fields every router reads on every event live on the same (always
    /// hot) cache lines instead of being duplicated 144 bytes per router.
    cfg: Arc<RouterConfig>,
    table: ConnectionTable,
    /// Arena bases of this router's GS buffers (storage lives in the
    /// network-owned [`GsArena`]).
    slots: RouterSlots,
    /// Per output link, the slot its current cycle ends at: the link is
    /// busy for every event keyed below it. [`Slot::MIN`] on an idle
    /// link; [`Slot::NEVER`] while the cycle's `LinkFree` is (or is about
    /// to be) a queued event, which sets it back.
    free_at: [Slot; 4],
    /// Per-output-port ready bitmask (bit `i` = GS VC `i`, bit `gs_vcs` =
    /// BE), kept in sync with the VC/BE state transitions so arbitration
    /// reads one word instead of scanning every channel.
    ready: [u16; 4],
    /// An `ArbDecide` event is in flight for the port.
    arb_pending: [bool; 4],
    /// Enum-dispatched link arbiters, one per output port — flat in the
    /// struct, no heap or vtable on the grant path.
    arbiters: [ArbiterImpl; 4],
    /// Arena base of this router's BE unit (storage lives in the
    /// network-owned [`BeArena`]).
    be_slots: BeSlots,
    /// Staging queue of acknowledgment flits awaiting space in the BE
    /// unit's programming-interface input latch.
    prog_tx: VecDeque<Flit>,
    /// Programming-interface receive buffer (config payload words).
    prog_rx: Vec<u32>,
    stats: RouterStats,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("id", &self.id)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Creates a router with the given configuration, allocating its GS
    /// buffer slots from `arena`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`RouterConfig::validate`] or
    /// does not match the GS arena's dimensions.
    pub fn new_in(
        id: RouterId,
        cfg: impl Into<Arc<RouterConfig>>,
        arena: &mut GsArena,
        be_arena: &mut BeArena,
    ) -> Self {
        let cfg = cfg.into();
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid router config: {e}"));
        assert!(
            arena.gs_vcs() == cfg.gs_vcs()
                && arena.ifaces() == cfg.local_gs_ifaces()
                && arena.depth() == cfg.buffer_depth(),
            "arena dimensions do not match the router config"
        );
        let gs_vcs = cfg.gs_vcs();
        let slots = arena.add_router();
        let be_slots = be_arena.add_router();
        Router {
            id,
            table: ConnectionTable::new(gs_vcs, cfg.local_gs_ifaces()),
            slots,
            free_at: [Slot::MIN; 4],
            ready: [0; 4],
            arb_pending: [false; 4],
            arbiters: std::array::from_fn(|_| ArbiterImpl::new(cfg.arbiter, gs_vcs)),
            be_slots,
            prog_tx: VecDeque::new(),
            prog_rx: Vec::new(),
            cfg,
            stats: RouterStats::default(),
        }
    }

    /// Creates a router together with private single-router arenas —
    /// the standalone form unit tests and examples drive directly.
    pub fn standalone(id: RouterId, cfg: RouterConfig) -> (Self, GsArena, BeArena) {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid router config: {e}"));
        let mut arena = GsArena::new(cfg.gs_vcs(), cfg.local_gs_ifaces(), cfg.buffer_depth());
        let mut be_arena = BeArena::default();
        let router = Router::new_in(id, cfg, &mut arena, &mut be_arena);
        (router, arena, be_arena)
    }

    /// The router's position.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The arena bases of this router's GS buffers.
    pub fn slots(&self) -> RouterSlots {
        self.slots
    }

    /// The arena base of this router's BE unit.
    pub fn be_slots(&self) -> BeSlots {
        self.be_slots
    }

    /// The connection table (read access for tests/tools).
    pub fn table(&self) -> &ConnectionTable {
        &self.table
    }

    /// Counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// True if no flit is stored or in flight anywhere in this router.
    pub fn is_quiescent(&self, bufs: &GsArena, be: &BeArena) -> bool {
        bufs.router_is_empty(self.slots)
            && !be.has_work(self.be_slots)
            && self.prog_tx.is_empty()
            && self.prog_rx.is_empty()
    }

    /// Total BE flits staged inside this router (input latches, output
    /// stages, staged programming acks) — the telemetry sampler's BE
    /// depth gauge.
    pub fn be_flits_buffered(&self, be: &BeArena) -> usize {
        be.flits_buffered(self.be_slots) + self.prog_tx.len()
    }

    /// Instrumented flits staged inside this router's BE unit — one
    /// term of the flit-conservation walk (GS flits live in the
    /// shared arena, see [`GsArena::flow_flits`]).
    pub fn flow_flits_buffered(&self, be: &BeArena) -> u64 {
        let flow = |f: &Flit| u64::from(f.is_instrumented());
        be.flow_flits(self.be_slots) + self.prog_tx.iter().map(flow).sum::<u64>()
    }

    // ------------------------------------------------------------------
    // Environment inputs
    // ------------------------------------------------------------------

    /// A flit arrives from the neighbor on input port `from` (having
    /// traversed the link, the split stage and — for GS — the switch).
    pub fn on_link_flit(
        &mut self,
        bufs: &mut GsArena,
        be: &mut BeArena,
        _now: SimTime,
        from: Direction,
        lf: LinkFlit,
        act: &mut Vec<RouterAction>,
    ) {
        match lf.steer {
            Steer::GsBuffer { dir, vc } => {
                debug_assert_ne!(dir, from, "U-turn steering at {}", self.id);
                self.check_vc(dir, vc);
                bufs.vc_arrive(self.vc_slot(bufs, dir, vc), lf.flit);
                self.gs_try_advance(bufs, GsBufferRef::Net { dir, vc }, act);
            }
            Steer::LocalGs { iface } => {
                self.check_iface(iface);
                bufs.local_arrive(bufs.local_slot(self.slots, iface as usize), lf.flit);
                self.gs_try_advance(bufs, GsBufferRef::Local { iface }, act);
            }
            Steer::BeUnit => {
                self.be_arrive(be, BeInput::Net(from), lf.flit, act);
            }
        }
    }

    /// An unlock toggle arrives on output port `dir` for VC `wire` (sent
    /// by the downstream router when the flit left its unsharebox).
    /// `stamp` is the key of the event being handled.
    pub fn on_unlock(
        &mut self,
        bufs: &mut GsArena,
        _be: &mut BeArena,
        stamp: Slot,
        dir: Direction,
        wire: VcId,
        act: &mut Vec<RouterAction>,
    ) {
        self.check_vc(dir, wire);
        bufs.vc_unlock(self.vc_slot(bufs, dir, wire));
        self.update_gs_ready(bufs, dir, wire, stamp, act);
        self.kick_arb(dir, stamp, act);
    }

    /// A BE credit arrives on output port `dir`. `stamp` is the key of
    /// the event being handled.
    pub fn on_credit(
        &mut self,
        _bufs: &mut GsArena,
        be: &mut BeArena,
        stamp: Slot,
        dir: Direction,
        act: &mut Vec<RouterAction>,
    ) {
        be.out_add_credit(be.out_slot(self.be_slots, dir));
        self.update_be_ready(be, dir, stamp, act);
        self.kick_arb(dir, stamp, act);
    }

    // ------------------------------------------------------------------
    // Parked handshakes
    // ------------------------------------------------------------------
    //
    // The environment may reserve the slot of a `LinkFree`, an unlock
    // toggle or a credit and hand it to the receiving router instead of
    // queueing the event. Each `park_*` answers whether somebody is
    // waiting on the handshake already — then the environment queues the
    // event after all, at that slot, and nothing is parked.

    /// Parks the end of output `dir`'s current link cycle at `at` (the
    /// slot of the `LinkFree` the grant just asked for). Returns true if
    /// a VC is ready behind the busy link: the event must fire.
    #[inline]
    pub fn park_link_free(&mut self, dir: Direction, at: Slot) -> bool {
        let d = dir.index();
        debug_assert_eq!(self.free_at[d], Slot::NEVER, "park follows a grant");
        if self.ready[d] != 0 {
            return true;
        }
        self.free_at[d] = at;
        false
    }

    /// Parks the unlock toggle of VC `wire` on output `dir`, due at
    /// `at`. Returns true if a flit is waiting behind the locked
    /// sharebox: the event must fire.
    #[inline]
    pub fn park_unlock(
        &mut self,
        bufs: &mut GsArena,
        dir: Direction,
        wire: VcId,
        at: Slot,
    ) -> bool {
        self.check_vc(dir, wire);
        let slot = self.vc_slot(bufs, dir, wire);
        if bufs.vc_len(slot) > 0 {
            return true;
        }
        bufs.vc_park_unlock(slot, at);
        false
    }

    /// Parks a credit returning to output `dir` at `at`. Returns true
    /// if the output is blocked on credit — a flit staged, no credit
    /// held: the event must fire.
    #[inline]
    pub fn park_credit(&mut self, be: &mut BeArena, dir: Direction, at: Slot) -> bool {
        let out = be.out_slot(self.be_slots, dir);
        // A blocked output has nothing parked (it woke it all when it
        // blocked), so its counter is current without absorbing.
        if be.out_len(out) > 0 && be.out_credits(out) == 0 {
            return true;
        }
        be.out_park_credit(out, at);
        false
    }

    /// Absorbs every parked handshake due at or before `upto`: the
    /// state a run that queued them all would be in once every event up
    /// to `upto` has fired. Nothing reads the parked state without
    /// absorbing first, so this is for whoever inspects the router from
    /// outside once a run has drained.
    pub fn settle(&mut self, bufs: &mut GsArena, be: &mut BeArena, upto: Slot) {
        for dir in Direction::ALL {
            let d = dir.index();
            if self.free_at[d] <= upto {
                self.free_at[d] = Slot::MIN;
            }
            for vc in 0..self.cfg.gs_vcs() {
                bufs.vc_absorb_unlock(bufs.vc_slot(self.slots, d, vc), upto);
            }
            be.out_absorb_credits(be.out_slot(self.be_slots, dir), upto);
        }
    }

    /// Fail-stop: settles what was due by `upto` and drops every
    /// handshake parked beyond it — the events they stand for would
    /// have been swallowed by the dead router.
    pub fn drop_parked(&mut self, bufs: &mut GsArena, be: &mut BeArena, upto: Slot) {
        self.settle(bufs, be, upto);
        for dir in Direction::ALL {
            let d = dir.index();
            if self.free_at[d] != Slot::MIN {
                self.free_at[d] = Slot::NEVER;
            }
            for vc in 0..self.cfg.gs_vcs() {
                bufs.vc_take_parked_unlock(bufs.vc_slot(self.slots, d, vc));
            }
            let out = be.out_slot(self.be_slots, dir);
            while be.out_take_parked(out).is_some() {}
        }
    }

    /// True if every handshake has come home: each output holds its full
    /// credit allocation, every empty VC's sharebox is open and nothing
    /// is parked. Holds for every router of a settled, quiescent,
    /// fault-free network.
    pub fn handshakes_at_rest(&self, bufs: &GsArena, be: &BeArena) -> bool {
        Direction::ALL.into_iter().all(|dir| {
            let out = be.out_slot(self.be_slots, dir);
            self.free_at[dir.index()] == Slot::MIN
                && be.out_credits(out) == BE_INPUT_DEPTH
                && be.out_parked(out).is_empty()
                && (0..self.cfg.gs_vcs()).all(|vc| {
                    let slot = bufs.vc_slot(self.slots, dir.index(), vc);
                    bufs.vc_parked_unlock(slot).is_none()
                        && !(bufs.vc_is_empty(slot) && bufs.vc_is_locked(slot))
                })
        })
    }

    /// The local NA injects a GS flit steered at the connection's first-hop
    /// VC buffer (the NA stores the initial steering bits and models the
    /// first sharebox; it must respect [`RouterAction::NaUnlock`]).
    ///
    /// # Panics
    ///
    /// Panics if `steer` does not name a network VC buffer: connections
    /// start at a network output port of the source router.
    pub fn on_local_gs_inject(
        &mut self,
        bufs: &mut GsArena,
        _be: &mut BeArena,
        _now: SimTime,
        steer: Steer,
        flit: Flit,
        act: &mut Vec<RouterAction>,
    ) {
        let Steer::GsBuffer { dir, vc } = steer else {
            panic!("NA GS injection must target a network VC buffer, got {steer}");
        };
        self.check_vc(dir, vc);
        bufs.vc_arrive(self.vc_slot(bufs, dir, vc), flit);
        self.gs_try_advance(bufs, GsBufferRef::Net { dir, vc }, act);
    }

    /// The local NA injects a BE flit (credit-controlled: the NA must hold
    /// a credit, returned via [`RouterAction::NaCredit`]).
    pub fn on_local_be_inject(
        &mut self,
        _bufs: &mut GsArena,
        be: &mut BeArena,
        _now: SimTime,
        flit: Flit,
        act: &mut Vec<RouterAction>,
    ) {
        self.be_arrive(be, BeInput::LocalNa, flit, act);
    }

    /// The local NA finished consuming a delivered GS flit on `iface`,
    /// freeing one delivery slot.
    pub fn on_local_gs_consume(
        &mut self,
        bufs: &mut GsArena,
        _be: &mut BeArena,
        _now: SimTime,
        iface: u8,
        act: &mut Vec<RouterAction>,
    ) {
        self.check_iface(iface);
        bufs.local_na_consumed(bufs.local_slot(self.slots, iface as usize));
        self.local_try_deliver(bufs, iface, act);
    }

    /// Redelivery of a deferred internal event. `stamp` is the key of
    /// the event being handled.
    pub fn on_internal(
        &mut self,
        bufs: &mut GsArena,
        be: &mut BeArena,
        stamp: Slot,
        ev: InternalEvent,
        act: &mut Vec<RouterAction>,
    ) {
        match ev {
            InternalEvent::GsAdvance { buffer } => self.gs_advance(bufs, buffer, stamp, act),
            InternalEvent::LinkFree { dir } => {
                self.free_at[dir.index()] = Slot::MIN;
                self.try_grant(bufs, be, dir, stamp, act);
            }
            InternalEvent::ArbDecide { dir } => {
                self.arb_pending[dir.index()] = false;
                self.try_grant(bufs, be, dir, stamp, act);
            }
            InternalEvent::BeRouted { input } => self.be_routed(be, input, act),
            InternalEvent::BeMoved { input, dest, flit } => {
                self.be_moved(be, input, dest, flit, stamp, act)
            }
        }
    }

    /// The arena slot of this router's network VC `(dir, vc)`.
    #[inline]
    fn vc_slot(&self, bufs: &GsArena, dir: Direction, vc: VcId) -> usize {
        bufs.vc_slot(self.slots, dir.index(), vc.index())
    }
}
