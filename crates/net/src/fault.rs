//! Deterministic fault injection: seeded schedules of link/router failures
//! applied at simulated times via kernel events.
//!
//! # Failure semantics: blackhole with live flow control
//!
//! A failed element *loses data but keeps its handshake wires honest*: a
//! flit dropped at a dead link vanishes, and the feedback the downstream
//! router would have produced for it — the GS unlock toggle, the BE
//! credit — is synthesized after a deterministic delay. Exactly one piece
//! of feedback exists per flit (real if it crossed, spoofed if it
//! dropped), so upstream shareboxes and BE credit counters keep draining
//! and the healthy part of the mesh never wedges behind a fault. This is
//! the fail-stop model of a link whose receiver burned out but whose
//! low-level flow-control loop is locally regenerated (or, equivalently,
//! an optimistic model that keeps recovery *reachable*: in-band teardown
//! and reprogramming traffic still flows over surviving links).
//!
//! Consequences worth knowing:
//!
//! * a BE packet cut mid-wormhole leaves its prefix stranded in the
//!   destination's reassembly buffer — faulted runs terminate on a time
//!   horizon, not on quiescence;
//! * flaky links drop **BE traffic per packet** (the drop decision is
//!   made at the header and held to the end-of-packet flit, preserving
//!   wormhole framing) and **GS traffic per flit**, each with the
//!   schedule's own RNG stream — scenario traffic draws are untouched, so
//!   installing an empty schedule is byte-identical to no schedule;
//! * a dead router blackholes everything addressed to it (flits, unlocks,
//!   credits, NA activity) and its local sources fall silent.
//!
//! Detection starts here and recovery lives above this layer: stream
//! watchdogs ([`Network::add_watchdog`]) post a
//! [`NoticeKind::Broken`] notice when its flits stop progressing, and the
//! QoS recovery controller (in
//! `mango_qos`) tears down, re-admits over surviving links and
//! re-validates bounds.
//!
//! The [`Network`] half of the subsystem is the `impl Network` block at
//! the end of this file: applying a fault event, the two places a flit
//! can vanish (sent into a faulted element, or in flight toward a router
//! that died) with the one feedback rule behind both, and the watchdogs.
//!
//! # Layout: one flat array per fact
//!
//! A faulted run asks about the link a flit is crossing on every hop, so
//! no per-link fact is behind a hash. Each lives in a flat array indexed
//! by [`Grid::link_index`] (`router_index × 4 + dir`), the layout of the
//! grid's D2D extras:
//!
//! * failed links: the grid's own mask plus a count ([`Grid::link_up`],
//!   [`Grid::link_failed`]), allocated on the first `fail_link` /
//!   `fail_router`, which the admission controller's copy of the grid
//!   reads by index too;
//! * flaky windows: one `Option<FlakyLink>` slot per link, windows on one
//!   link merged at installation (widest span, last probability);
//! * stuck VCs: one `u8` mask per `(router, output port)`, bit `vc` (a
//!   port has at most [`PORT_VCS_MAX`] = 8 VCs);
//! * dead routers: one flag per router index.
//!
//! The last three are allocated at installation, and only when the
//! schedule holds an event of their kind; an empty table answers every
//! question with "no" on its first compare. The drop decisions therefore
//! draw exactly the RNG values a keyed lookup drew, in the same order.

use crate::conn::NoticeKind;
use crate::network::{NetEvent, Network};
use crate::topology::{Grid, TopologySpec};
use crate::traffic::SourceKind;
use mango_core::{
    ConnectionId, Direction, GsBufferRef, InternalEvent, LinkFlit, RouterId, Steer, UpstreamRef,
    VcId, PORT_VCS_MAX,
};
use mango_sim::{Ctx, SimDuration, SimRng, SimTime, Slot};
use std::fmt;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop of one directed link: every flit sent across it from the
    /// fault time on is dropped (with spoofed feedback, see module docs).
    LinkDown {
        /// Sending router.
        from: RouterId,
        /// Link direction.
        dir: Direction,
    },
    /// A flaky window on one directed link: from the event time until
    /// `until`, GS flits drop with probability `drop_prob` each and BE
    /// packets drop whole with probability `drop_prob`.
    LinkFlaky {
        /// Sending router.
        from: RouterId,
        /// Link direction.
        dir: Direction,
        /// End of the drop window.
        until: SimTime,
        /// Per-flit (GS) / per-packet (BE) drop probability.
        drop_prob: f64,
    },
    /// Fail-stop of a whole router: all eight adjacent directed links go
    /// down, pending router work is discarded and its sources fall
    /// silent.
    RouterDown {
        /// The router.
        id: RouterId,
    },
    /// One GS virtual-channel buffer stops latching: flits steered into
    /// it vanish (with spoofed unlocks). The VC must be quarantined from
    /// reallocation by the recovery layer.
    StuckVc {
        /// Router owning the buffer.
        router: RouterId,
        /// The buffer's output port.
        dir: Direction,
        /// The buffer's VC index.
        vc: VcId,
    },
}

/// A fault applied at a simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What breaks.
    pub kind: FaultKind,
}

/// A seeded, deterministic schedule of faults.
///
/// The seed drives only fault-local randomness (flaky-link drop draws);
/// installing a schedule never perturbs traffic RNG streams.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Seed for the schedule's private RNG stream.
    pub seed: u64,
    /// The fault events (any order; installation sorts by time).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (installing it changes nothing).
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            events: Vec::new(),
        }
    }

    /// Appends a fault event; returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Generates `count` random link faults over `grid`, deterministically
    /// from `seed`: fault times uniform in `[window_start, window_end)`,
    /// a mix of fail-stop and flaky links chosen from the schedule RNG.
    /// Used by the resilience sweep axis.
    pub fn random_links(
        grid: &Grid,
        seed: u64,
        count: usize,
        window_start: SimTime,
        window_end: SimTime,
    ) -> Self {
        let mut rng = SimRng::new(seed ^ 0x5EED_FA17);
        let span = window_end.since(window_start).as_ps().max(1);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            // Draw a directed link that exists on the grid.
            let (from, dir) = loop {
                let from = grid.id_at(rng.gen_index(grid.len()));
                let dir = Direction::ALL[rng.gen_index(4)];
                if grid.neighbor(from, dir).is_some() {
                    break (from, dir);
                }
            };
            let at = window_start + mango_sim::SimDuration::from_ps(rng.gen_range(span));
            let kind = if rng.gen_bool(0.5) {
                FaultKind::LinkDown { from, dir }
            } else {
                FaultKind::LinkFlaky {
                    from,
                    dir,
                    until: at + mango_sim::SimDuration::from_ps(rng.gen_range(span)),
                    drop_prob: 0.5,
                }
            };
            events.push(FaultEvent { at, kind });
        }
        FaultSchedule { seed, events }
    }

    /// Generates `count` random fail-stop faults **targeting die-to-die
    /// boundary links only** (chiplet topologies), deterministically from
    /// `seed`. D2D links are the physically weakest channels — bump
    /// bonds, interposer wires — so the resilience track stresses them
    /// directly. Links are drawn uniformly (with replacement) from
    /// [`Grid::boundary_links`]; fault times uniform in
    /// `[window_start, window_end)`.
    ///
    /// # Errors
    ///
    /// [`NoBoundaryLinks`] if the topology has no boundary links
    /// (monolithic mesh or torus).
    pub fn random_boundary_links(
        grid: &Grid,
        seed: u64,
        count: usize,
        window_start: SimTime,
        window_end: SimTime,
    ) -> Result<Self, NoBoundaryLinks> {
        let boundary = grid.boundary_links();
        if boundary.is_empty() {
            return Err(NoBoundaryLinks {
                topology: *grid.spec(),
            });
        }
        let mut rng = SimRng::new(seed ^ 0x5EED_FA17);
        let span = window_end.since(window_start).as_ps().max(1);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let (from, dir) = boundary[rng.gen_index(boundary.len())];
            let at = window_start + mango_sim::SimDuration::from_ps(rng.gen_range(span));
            events.push(FaultEvent {
                at,
                kind: FaultKind::LinkDown { from, dir },
            });
        }
        Ok(FaultSchedule { seed, events })
    }

    /// Checks every event references on-grid elements.
    ///
    /// # Errors
    ///
    /// Returns a description of the first bad event.
    pub fn validate(&self, grid: &Grid) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            match ev.kind {
                FaultKind::LinkDown { from, dir } | FaultKind::LinkFlaky { from, dir, .. } => {
                    if grid.neighbor(from, dir).is_none() {
                        return Err(format!("event {i}: link {from}->{dir} leaves the grid"));
                    }
                }
                FaultKind::RouterDown { id } => {
                    if !grid.contains(id) {
                        return Err(format!("event {i}: router {id} outside the grid"));
                    }
                }
                FaultKind::StuckVc { router, vc, .. } => {
                    if !grid.contains(router) {
                        return Err(format!("event {i}: router {router} outside the grid"));
                    }
                    if vc.index() >= PORT_VCS_MAX {
                        return Err(format!(
                            "event {i}: VC {vc} beyond the {PORT_VCS_MAX} a port can have"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// [`FaultSchedule::random_boundary_links`] was asked to fault die-to-die
/// links of a topology that has none (a monolithic mesh or torus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoBoundaryLinks {
    /// The topology without boundary links.
    pub topology: TopologySpec,
}

impl fmt::Display for NoBoundaryLinks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology {} has no D2D boundary links to fault",
            self.topology
        )
    }
}

impl std::error::Error for NoBoundaryLinks {}

/// Drop/spoof counters, readable after a faulted run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// GS flits blackholed at faulted elements.
    pub gs_flits_dropped: u64,
    /// BE flits blackholed at faulted elements.
    pub be_flits_dropped: u64,
    /// GS unlock toggles synthesized for dropped flits.
    pub spoofed_unlocks: u64,
    /// BE credits synthesized for dropped flits.
    pub spoofed_credits: u64,
    /// BE packets never injected because no surviving route existed.
    pub be_route_drops: u64,
    /// Acknowledgment legs dropped for want of a surviving route.
    pub ack_route_drops: u64,
    /// Relay segments dropped for want of a surviving route.
    pub relay_route_drops: u64,
}

/// Per-link flaky-window tracker. BE framing (`in_packet`/`dropping`) is
/// followed from the first BE flit that ever crosses the link, so the
/// header of every packet is identified exactly and drops are
/// packet-atomic.
#[derive(Debug, Clone, Copy)]
struct FlakyLink {
    from_t: SimTime,
    until: SimTime,
    drop_prob: f64,
    in_packet: bool,
    dropping: bool,
}

/// Live fault state owned by the network (present only after
/// `install_faults`; its absence is the healthy-mesh fast path). Its
/// tables are laid out as the module docs describe.
#[derive(Debug)]
pub(crate) struct FaultState {
    events: Vec<FaultEvent>,
    rng: SimRng,
    /// Flaky-window trackers by link index; empty when the schedule has
    /// no `LinkFlaky` event.
    flaky: Vec<Option<FlakyLink>>,
    /// Stuck GS buffers by the index of the buffer's `(router, output
    /// port)`: bit `vc` set once `StuckVc` has struck it. Empty when the
    /// schedule has no `StuckVc` event.
    stuck: Vec<u8>,
    /// Dead routers by router index; empty when the schedule has no
    /// `RouterDown` event.
    dead: Vec<bool>,
}

// A stuck-VC mask holds one bit per VC a port can have.
const _: () = assert!(PORT_VCS_MAX <= u8::BITS as usize);

impl FaultState {
    /// Builds the state and returns the (index-ordered) application times
    /// the caller must schedule `NetEvent::Fault { idx }` at.
    pub(crate) fn install(schedule: FaultSchedule, grid: &Grid) -> (Self, Vec<SimTime>) {
        schedule
            .validate(grid)
            .unwrap_or_else(|e| panic!("invalid fault schedule: {e}"));
        let mut events = schedule.events;
        // Stable sort: same-time events apply in schedule order.
        events.sort_by_key(|e| e.at);
        let links = grid.len() * 4;
        let mut flaky = Vec::new();
        let mut stuck = Vec::new();
        let mut dead = Vec::new();
        for ev in &events {
            match ev.kind {
                FaultKind::LinkFlaky {
                    from,
                    dir,
                    until,
                    drop_prob,
                } => {
                    // Register the framing tracker up front (windows on
                    // the same link merge to the widest span / last
                    // probability).
                    if flaky.is_empty() {
                        flaky = vec![None; links];
                    }
                    let f = flaky[grid.link_index(from, dir)].get_or_insert(FlakyLink {
                        from_t: ev.at,
                        until,
                        drop_prob,
                        in_packet: false,
                        dropping: false,
                    });
                    f.from_t = f.from_t.min(ev.at);
                    f.until = f.until.max(until);
                    f.drop_prob = drop_prob;
                }
                FaultKind::StuckVc { .. } if stuck.is_empty() => stuck = vec![0; links],
                FaultKind::RouterDown { .. } if dead.is_empty() => dead = vec![false; grid.len()],
                _ => {}
            }
        }
        let times = events.iter().map(|e| e.at).collect();
        (
            FaultState {
                events,
                rng: SimRng::new(schedule.seed),
                flaky,
                stuck,
                dead,
            },
            times,
        )
    }

    /// The fault event at `idx` (application order).
    pub(crate) fn event(&self, idx: usize) -> FaultEvent {
        self.events[idx]
    }

    /// Marks a router dead.
    pub(crate) fn mark_dead(&mut self, index: usize) {
        self.dead[index] = true;
    }

    /// Marks VC `vc` of the buffer at `port` ([`Grid::link_index`] of its
    /// router and output port) stuck.
    pub(crate) fn mark_stuck(&mut self, port: usize, vc: VcId) {
        self.stuck[port] |= 1 << vc.0;
    }

    /// True if the router at dense `index` has failed.
    #[inline]
    pub(crate) fn is_dead(&self, index: usize) -> bool {
        self.dead.get(index).is_some_and(|&dead| dead)
    }

    /// True if VC `vc` of the buffer at `port` ([`Grid::link_index`] of
    /// its router and output port) is stuck.
    #[inline]
    pub(crate) fn is_stuck(&self, port: usize, vc: VcId) -> bool {
        self.stuck
            .get(port)
            .is_some_and(|mask| mask & (1 << vc.0) != 0)
    }

    /// Flaky-window decision for a **GS** flit crossing the link at
    /// index `link` at `now`: true to drop.
    #[inline]
    pub(crate) fn flaky_drops_gs(&mut self, link: usize, now: SimTime) -> bool {
        match self.flaky.get(link) {
            Some(Some(f)) if now >= f.from_t && now < f.until => self.rng.gen_bool(f.drop_prob),
            _ => false,
        }
    }

    /// Flaky-window decision for a **BE** flit crossing the link at
    /// index `link` at `now`: updates wormhole framing and returns true
    /// to drop. Drops are packet-atomic: decided at the header, held
    /// until end of packet.
    #[inline]
    pub(crate) fn flaky_drops_be(&mut self, link: usize, now: SimTime, eop: bool) -> bool {
        let Some(Some(f)) = self.flaky.get_mut(link) else {
            return false;
        };
        if !f.in_packet {
            let in_window = now >= f.from_t && now < f.until;
            f.dropping = in_window && self.rng.gen_bool(f.drop_prob);
        }
        let drop = f.dropping;
        f.in_packet = !eop;
        if eop {
            f.dropping = false;
        }
        drop
    }
}

/// A stream watchdog: declares its connection broken when the flow's
/// delivered count stops advancing between firings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watchdog {
    conn: ConnectionId,
    flow: u32,
    timeout: SimDuration,
    last_delivered: u64,
}

impl Network {
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
        });
        self.watchdogs.len() - 1
    }

    pub(crate) fn on_watchdog(&mut self, idx: usize, ctx: &mut Ctx<NetEvent>) {
        let w = self.watchdogs[idx];
        let delivered = self.stats.delivered(w.flow);
        if delivered > w.last_delivered {
            self.watchdogs[idx].last_delivered = delivered;
            ctx.schedule(w.timeout, NetEvent::Watchdog { idx });
        } else {
            self.notify(w.conn, NoticeKind::Broken { flow: w.flow }, ctx);
        }
    }

    /// Applies fault event `idx` of the installed schedule.
    pub(crate) fn apply_fault(&mut self, idx: usize, stamp: Slot) {
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
                let dense = self.grid.index(id);
                faults.mark_dead(dense);
                self.grid.fail_router(id);
                // The handshakes parked at the victim die with it, as
                // their events would have on reaching it.
                self.routers[dense].drop_parked(&mut self.arena, &mut self.be_arena, stamp);
                for s in &mut self.sources {
                    let (SourceKind::Gs { router, .. } | SourceKind::Be { router, .. }) = s.kind;
                    if router == id {
                        s.done = true;
                    }
                }
            }
            FaultKind::StuckVc { router, dir, vc } => {
                faults.mark_stuck(self.grid.link_index(router, dir), vc);
            }
        }
    }

    /// Decides whether a flit leaving `from` toward `dir` is blackholed
    /// by a fault; if so, spoofs the feedback the downstream router would
    /// have produced (see the module docs), releases the flit's
    /// instrumentation record and returns `true`. Only called with
    /// faults installed.
    pub(crate) fn blackhole_flit(
        &mut self,
        from: RouterId,
        dir: Direction,
        to: RouterId,
        lf: &LinkFlit,
        base_delay: SimDuration,
        ctx: &mut Ctx<NetEvent>,
    ) -> bool {
        let now = ctx.now();
        let link = self.grid.link_index(from, dir);
        let hard_down = self.grid.link_failed(link);
        let faults = self.faults.as_mut().expect("caller checked");
        let drop = match lf.steer {
            // BE framing must advance on every flit crossing a
            // flaky-tracked link, dropped or not.
            Steer::BeUnit => {
                let flaky = faults.flaky_drops_be(link, now, lf.flit.eop());
                hard_down || flaky
            }
            Steer::GsBuffer { dir: bd, vc } => {
                hard_down
                    || faults.is_stuck(self.grid.link_index(to, bd), vc)
                    || faults.flaky_drops_gs(link, now)
            }
            Steer::LocalGs { .. } => hard_down || faults.flaky_drops_gs(link, now),
        };
        if !drop {
            return false;
        }
        if lf.flit.is_instrumented() {
            if self.telemetry.is_active() {
                self.t9n_instant("fault", "drop", now, from, Some(dir), lf.flit.tag());
            }
            self.meta.release(lf.flit.tag());
        }
        self.spoof_feedback(from, dir, to, lf.steer, base_delay, ctx);
        true
    }

    /// Counts a flit lost on its way from `sender` (out of its `dir`
    /// port) into `receiver`, and schedules the one piece of feedback the
    /// receiver would have produced for it. The spoofed feedback departs
    /// where the real one would have: `base_delay` (what is left of the
    /// flit's forward path) plus the downstream handling and the return
    /// trip. A BE flit owes a credit. A GS flit owes the unlock toggle of
    /// the buffer it was steered into; its wire is read from the
    /// receiver's own connection table — exactly the mapping the real
    /// unlock would have used — and if the entry is already torn down, no
    /// feedback is owed.
    fn spoof_feedback(
        &mut self,
        sender: RouterId,
        dir: Direction,
        receiver: RouterId,
        steer: Steer,
        base_delay: SimDuration,
        ctx: &mut Ctx<NetEvent>,
    ) {
        let t = &self.router_cfg.timing;
        let back_extra = self.grid.link_extra(receiver, dir.opposite());
        let buffer = match steer {
            Steer::BeUnit => {
                self.counters.be_flits_dropped += 1;
                self.counters.spoofed_credits += 1;
                let delay = base_delay + t.hop_forward + t.credit_return + back_extra;
                self.send_credit(sender, dir, delay, ctx);
                return;
            }
            Steer::GsBuffer { dir, vc } => GsBufferRef::Net { dir, vc },
            Steer::LocalGs { iface } => GsBufferRef::Local { iface },
        };
        self.counters.gs_flits_dropped += 1;
        let delay = base_delay + t.buffer_advance + t.unlock_path + back_extra;
        if let Some(UpstreamRef::Link { wire, .. }) = self.router(receiver).table().unlock(buffer) {
            self.counters.spoofed_unlocks += 1;
            self.send_unlock(sender, dir, wire, delay, ctx);
        }
    }

    /// Absorbs events addressed to a dead router (router fail-stop). A
    /// flit already in flight when the router died still owes its sender
    /// feedback — spoofed here; everything else vanishes silently.
    pub(crate) fn absorbed_by_dead_router(
        &mut self,
        event: &NetEvent,
        ctx: &mut Ctx<NetEvent>,
    ) -> bool {
        let Some(faults) = self.faults.as_ref().filter(|f| !f.dead.is_empty()) else {
            return false;
        };
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
        if !faults.is_dead(self.grid.index(target)) {
            return false;
        }
        // A flit vanishing into the dead router leaves the wire and the
        // system; its record is released once the drop is traced.
        match *event {
            NetEvent::LinkFlit { to, from, lf } => {
                self.wire_exit(lf.flit);
                if self.telemetry.is_active() && lf.flit.is_instrumented() {
                    self.t9n_instant("fault", "drop", ctx.now(), to, Some(from), lf.flit.tag());
                }
                let sender = self
                    .grid
                    .neighbor(to, from)
                    .expect("link flits come from neighbors");
                let dir = from.opposite();
                self.spoof_feedback(sender, dir, to, lf.steer, SimDuration::ZERO, ctx);
                self.meta.release(lf.flit.tag());
            }
            NetEvent::Router {
                ev: InternalEvent::BeMoved { flit, .. },
                ..
            } => {
                self.wire_exit(flit);
                self.meta.release(flit.tag());
            }
            _ => {}
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::tests::any_topology;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn schedule_builder_and_validation() {
        let grid = Grid::new(4, 4);
        let sched = FaultSchedule::new(7)
            .with(
                SimTime::from_ns(100),
                FaultKind::LinkDown {
                    from: RouterId::new(1, 1),
                    dir: Direction::East,
                },
            )
            .with(
                SimTime::from_ns(200),
                FaultKind::RouterDown {
                    id: RouterId::new(2, 2),
                },
            );
        assert_eq!(sched.events.len(), 2);
        sched.validate(&grid).unwrap();
        let bad = FaultSchedule::new(7).with(
            SimTime::ZERO,
            FaultKind::LinkDown {
                from: RouterId::new(0, 0),
                dir: Direction::West,
            },
        );
        assert!(bad.validate(&grid).is_err());
    }

    #[test]
    fn random_link_schedules_are_deterministic_and_on_grid() {
        let grid = Grid::new(8, 8);
        let a = FaultSchedule::random_links(
            &grid,
            42,
            16,
            SimTime::from_ns(10),
            SimTime::from_ns(1000),
        );
        let b = FaultSchedule::random_links(
            &grid,
            42,
            16,
            SimTime::from_ns(10),
            SimTime::from_ns(1000),
        );
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.events.len(), 16);
        a.validate(&grid).unwrap();
        for ev in &a.events {
            assert!(ev.at >= SimTime::from_ns(10));
            assert!(ev.at < SimTime::from_ns(1000));
        }
        let c = FaultSchedule::random_links(
            &grid,
            43,
            16,
            SimTime::from_ns(10),
            SimTime::from_ns(1000),
        );
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn boundary_schedules_target_only_d2d_links() {
        let grid = Grid::from_spec(&crate::TopologySpec::chiplet(2, 2, 4, 4));
        let a = FaultSchedule::random_boundary_links(
            &grid,
            5,
            8,
            SimTime::from_ns(10),
            SimTime::from_ns(1000),
        )
        .unwrap();
        let b = FaultSchedule::random_boundary_links(
            &grid,
            5,
            8,
            SimTime::from_ns(10),
            SimTime::from_ns(1000),
        )
        .unwrap();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.events.len(), 8);
        a.validate(&grid).unwrap();
        for ev in &a.events {
            let FaultKind::LinkDown { from, dir } = ev.kind else {
                panic!("boundary schedules are fail-stop only");
            };
            assert!(grid.is_boundary_link(from, dir), "{from}->{dir} not D2D");
        }
    }

    #[test]
    fn boundary_schedule_rejects_monolithic_grids() {
        for topology in [TopologySpec::mesh(4, 4), TopologySpec::torus(4, 4)] {
            let grid = Grid::from_spec(&topology);
            let err = FaultSchedule::random_boundary_links(
                &grid,
                1,
                1,
                SimTime::ZERO,
                SimTime::from_ns(1),
            )
            .unwrap_err();
            assert_eq!(err, NoBoundaryLinks { topology });
            assert_eq!(
                err.to_string(),
                format!("topology {topology} has no D2D boundary links to fault")
            );
        }
    }

    #[test]
    fn install_sorts_events_and_registers_flaky_windows() {
        let grid = Grid::new(3, 3);
        let sched = FaultSchedule::new(1)
            .with(
                SimTime::from_ns(500),
                FaultKind::RouterDown {
                    id: RouterId::new(1, 1),
                },
            )
            .with(
                SimTime::from_ns(100),
                FaultKind::LinkFlaky {
                    from: RouterId::new(0, 0),
                    dir: Direction::East,
                    until: SimTime::from_ns(300),
                    drop_prob: 1.0,
                },
            );
        let (state, times) = FaultState::install(sched, &grid);
        assert_eq!(
            times,
            vec![SimTime::from_ns(100), SimTime::from_ns(500)],
            "application order is time order"
        );
        let tracked: Vec<usize> = (0..state.flaky.len())
            .filter(|&i| state.flaky[i].is_some())
            .collect();
        assert_eq!(
            tracked,
            vec![grid.link_index(RouterId::new(0, 0), Direction::East)]
        );
        assert!(state.stuck.is_empty(), "no StuckVc, no mask");
        assert!(matches!(state.event(1).kind, FaultKind::RouterDown { .. }));
    }

    #[test]
    fn flaky_be_drops_are_packet_atomic() {
        let grid = Grid::new(2, 1);
        let from = RouterId::new(0, 0);
        let sched = FaultSchedule::new(9).with(
            SimTime::from_ns(100),
            FaultKind::LinkFlaky {
                from,
                dir: Direction::East,
                until: SimTime::from_ns(10_000),
                drop_prob: 1.0,
            },
        );
        let (mut state, _) = FaultState::install(sched, &grid);
        let link = grid.link_index(from, Direction::East);
        let t_before = SimTime::from_ns(10);
        // A packet fully before the window passes.
        assert!(!state.flaky_drops_be(link, t_before, false));
        assert!(!state.flaky_drops_be(link, t_before, false));
        assert!(!state.flaky_drops_be(link, t_before, true));
        // A packet whose header lands in the window (p = 1) drops whole,
        // including flits past the window end.
        let t_in = SimTime::from_ns(200);
        assert!(state.flaky_drops_be(link, t_in, false));
        assert!(state.flaky_drops_be(link, t_in, false));
        assert!(state.flaky_drops_be(link, SimTime::from_ns(20_000), true));
        // Framing reset: the next packet (outside the window) passes.
        let t_after = SimTime::from_ns(30_000);
        assert!(!state.flaky_drops_be(link, t_after, true));
    }

    #[test]
    fn gs_flaky_draws_respect_window() {
        let grid = Grid::new(2, 1);
        let from = RouterId::new(0, 0);
        let sched = FaultSchedule::new(11).with(
            SimTime::from_ns(100),
            FaultKind::LinkFlaky {
                from,
                dir: Direction::East,
                until: SimTime::from_ns(200),
                drop_prob: 1.0,
            },
        );
        let (mut state, _) = FaultState::install(sched, &grid);
        let link = grid.link_index(from, Direction::East);
        assert!(!state.flaky_drops_gs(link, SimTime::from_ns(50)));
        assert!(state.flaky_drops_gs(link, SimTime::from_ns(150)));
        assert!(!state.flaky_drops_gs(link, SimTime::from_ns(250)));
        // Unrelated links never draw.
        let back = grid.link_index(RouterId::new(1, 0), Direction::West);
        assert!(!state.flaky_drops_gs(back, SimTime::from_ns(150)));
    }

    /// The fault state's per-link tables as keyed collections, one
    /// lookup per question: the model the dense tables are checked
    /// against, with its own copy of the schedule's RNG stream.
    struct KeyedModel {
        rng: SimRng,
        flaky: HashMap<(RouterId, Direction), FlakyLink>,
        stuck: HashSet<(RouterId, Direction, VcId)>,
    }

    impl KeyedModel {
        fn install(schedule: &FaultSchedule) -> Self {
            let mut events = schedule.events.clone();
            events.sort_by_key(|e| e.at);
            let mut flaky = HashMap::new();
            for ev in &events {
                if let FaultKind::LinkFlaky {
                    from,
                    dir,
                    until,
                    drop_prob,
                } = ev.kind
                {
                    flaky
                        .entry((from, dir))
                        .and_modify(|f: &mut FlakyLink| {
                            f.from_t = f.from_t.min(ev.at);
                            f.until = f.until.max(until);
                            f.drop_prob = drop_prob;
                        })
                        .or_insert(FlakyLink {
                            from_t: ev.at,
                            until,
                            drop_prob,
                            in_packet: false,
                            dropping: false,
                        });
                }
            }
            KeyedModel {
                rng: SimRng::new(schedule.seed),
                flaky,
                stuck: HashSet::new(),
            }
        }

        fn drops_gs(&mut self, from: RouterId, dir: Direction, now: SimTime) -> bool {
            match self.flaky.get(&(from, dir)) {
                Some(f) if now >= f.from_t && now < f.until => self.rng.gen_bool(f.drop_prob),
                _ => false,
            }
        }

        fn drops_be(&mut self, from: RouterId, dir: Direction, now: SimTime, eop: bool) -> bool {
            let Some(f) = self.flaky.get_mut(&(from, dir)) else {
                return false;
            };
            if !f.in_packet {
                let in_window = now >= f.from_t && now < f.until;
                f.dropping = in_window && self.rng.gen_bool(f.drop_prob);
            }
            let drop = f.dropping;
            f.in_packet = !eop;
            if eop {
                f.dropping = false;
            }
            drop
        }
    }

    /// A random on-grid directed link from two raw draws.
    fn pick_link(grid: &Grid, r: usize, d: usize) -> Option<(RouterId, Direction)> {
        let (id, dir) = (grid.id_at(r % grid.len()), Direction::ALL[d % 4]);
        grid.neighbor(id, dir).map(|_| (id, dir))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The dense flaky-window slab and stuck-VC masks against a
        /// `HashMap` / `HashSet` model: a random schedule of flaky
        /// windows (on the first three routers' links, so several land
        /// on one link) and `StuckVc` faults, then random GS and BE
        /// crossings of those links and a few others. Each `StuckVc` applied in
        /// time order leaves `is_stuck` agreeing with the set on every
        /// buffer; every link's window equals the model's merged one;
        /// every crossing's drop decision agrees, and so does the RNG
        /// stream afterwards, so the dense state draws exactly the
        /// values the keyed one did.
        #[test]
        fn dense_fault_state_matches_a_keyed_model(
            spec in any_topology(),
            seed in any::<u64>(),
            flaky in prop::collection::vec(
                (0usize..3, 0usize..4, 0u64..1_000, 0u64..1_000, 0usize..4),
                0..8,
            ),
            stuck in prop::collection::vec(
                (0usize..64, 0usize..4, 0u8..8, 0u64..1_000),
                0..8,
            ),
            crossings in prop::collection::vec(
                (0usize..4, 0usize..4, 0u64..2_000, any::<bool>(), any::<bool>()),
                0..64,
            ),
        ) {
            const PROBS: [f64; 4] = [0.0, 0.3, 0.5, 1.0];
            let grid = Grid::from_spec(&spec);
            let mut schedule = FaultSchedule::new(seed);
            for (r, d, at, len, p) in flaky {
                if let Some((from, dir)) = pick_link(&grid, r, d) {
                    let at = SimTime::from_ns(at);
                    schedule = schedule.with(at, FaultKind::LinkFlaky {
                        from,
                        dir,
                        until: at + SimDuration::from_ns(len),
                        drop_prob: PROBS[p],
                    });
                }
            }
            for (r, d, vc, at) in stuck {
                let router = grid.id_at(r % grid.len());
                let kind = FaultKind::StuckVc { router, dir: Direction::ALL[d], vc: VcId(vc) };
                schedule = schedule.with(SimTime::from_ns(at), kind);
            }
            let mut model = KeyedModel::install(&schedule);
            let (mut state, _) = FaultState::install(schedule, &grid);

            for idx in 0..state.events.len() {
                if let FaultKind::StuckVc { router, dir, vc } = state.event(idx).kind {
                    state.mark_stuck(grid.link_index(router, dir), vc);
                    model.stuck.insert((router, dir, vc));
                }
                for id in grid.ids() {
                    for dir in Direction::ALL {
                        for vc in (0..8).map(VcId) {
                            let dense = state.is_stuck(grid.link_index(id, dir), vc);
                            let keyed = model.stuck.contains(&(id, dir, vc));
                            prop_assert!(dense == keyed, "{spec} {id}->{dir} {vc}: {dense}");
                        }
                    }
                }
            }
            for id in grid.ids() {
                for dir in Direction::ALL {
                    let dense = state.flaky.get(grid.link_index(id, dir)).copied().flatten();
                    let keyed = model.flaky.get(&(id, dir)).copied();
                    let window = |f: FlakyLink| (f.from_t, f.until, f.drop_prob);
                    let (dense, keyed) = (dense.map(window), keyed.map(window));
                    prop_assert!(dense == keyed, "{spec} {id}->{dir}: {dense:?} vs {keyed:?}");
                }
            }
            for (r, d, t, be, eop) in crossings {
                let Some((from, dir)) = pick_link(&grid, r, d) else { continue };
                let (link, now) = (grid.link_index(from, dir), SimTime::from_ns(t));
                let (dense, keyed) = if be {
                    (state.flaky_drops_be(link, now, eop), model.drops_be(from, dir, now, eop))
                } else {
                    (state.flaky_drops_gs(link, now), model.drops_gs(from, dir, now))
                };
                prop_assert!(dense == keyed, "{spec} {from}->{dir} at {now}: {dense}");
            }
            prop_assert!(state.rng == model.rng, "the RNG streams diverged");
        }
    }
}
