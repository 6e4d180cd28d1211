//! The connection manager: allocates VC sequences, generates the
//! programming traffic that opens GS connections, and tracks their
//! lifecycle.
//!
//! "In MANGO, a connection implements a logical point-to-point circuit
//! between two different local ports in the network, by reserving a
//! sequence of independently buffered VCs" (Sec. 3). Opening a connection
//! therefore means: pick an XY path, reserve one free GS VC on every link
//! of the path plus a local GS interface at each end, then program each
//! router on the path — the source router directly through its local
//! programming interface, the others with BE config packets that request
//! acknowledgments. The connection becomes [`ConnState::Open`] when every
//! ack has returned; only then may the source NA stream header-less flits.
//!
//! Opening and closing program the path's routers the same way: one loop
//! builds an ack-requesting config packet per router past the source from
//! that hop's writes, and nothing is booked until every packet is built,
//! so an open or close that fails changes nothing. The books are bitmask
//! vectors on the grid's dense indices — VCs per directed link by
//! [`Grid::link_index`], interfaces per router by [`Grid::index`] — and
//! the records are a vector indexed by [`ConnectionId`]; only the ack
//! tokens, keyed by a word on the wire, live in a map.

use crate::relay::{ack_leg_header, build_segmented_packet, parse_relay_word, RelayTable};
use crate::route::{xy_route, RouteError};
use crate::topology::Grid;
use mango_core::{
    AckPlan, ConnectionId, Direction, Flit, GsBufferRef, ProgWrite, RouterId, Steer, UpstreamRef,
    VcId,
};
use mango_sim::SimTime;
use std::collections::HashMap;
use std::fmt;

/// Lifecycle of a GS connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Programming packets are in flight.
    Opening,
    /// All routers acknowledged: the circuit is live.
    Open,
    /// Teardown packets are in flight.
    Closing,
    /// Resources released.
    Closed,
}

/// What a control plane waits for, posted by the network at the instant
/// it happens (see [`crate::NocSim::run_until_notice`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notice {
    /// When it happened.
    pub at: SimTime,
    /// The connection it concerns.
    pub conn: ConnectionId,
    /// What happened.
    pub kind: NoticeKind,
}

/// What a [`Notice`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoticeKind {
    /// The last open ack returned: the connection is `Open`.
    Opened,
    /// The last teardown ack returned: the connection is `Closed`.
    Closed,
    /// A watchdog saw the connection's stream stop arriving.
    Broken {
        /// The flow the watchdog monitored.
        flow: u32,
    },
}

/// Errors opening or closing connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    /// Route computation failed.
    Route(RouteError),
    /// No free GS VC on a link of the path.
    NoFreeVc(RouterId, Direction),
    /// A link of the path has failed: a GS stream could not cross it.
    LinkDown(RouterId, Direction),
    /// No free GS TX interface at the source NA.
    NoFreeTxIface(RouterId),
    /// No free local GS interface at the destination router.
    NoFreeRxIface(RouterId),
    /// The connection is not in the required state.
    BadState(ConnectionId, ConnState),
    /// Unknown connection id.
    Unknown(ConnectionId),
    /// An explicit path is malformed (leaves the grid, revisits a router,
    /// or misses the destination).
    BadPath(String),
}

impl fmt::Display for ConnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnError::Route(e) => write!(f, "routing failed: {e}"),
            ConnError::NoFreeVc(r, d) => write!(f, "no free GS VC on link {r}->{d}"),
            ConnError::LinkDown(r, d) => write!(f, "link {r}->{d} is down"),
            ConnError::NoFreeTxIface(r) => write!(f, "no free GS TX interface at {r}"),
            ConnError::NoFreeRxIface(r) => write!(f, "no free local GS interface at {r}"),
            ConnError::BadState(id, s) => write!(f, "{id} is {s:?}"),
            ConnError::Unknown(id) => write!(f, "unknown connection {id}"),
            ConnError::BadPath(why) => write!(f, "bad explicit path: {why}"),
        }
    }
}

impl std::error::Error for ConnError {}

impl From<RouteError> for ConnError {
    fn from(e: RouteError) -> Self {
        ConnError::Route(e)
    }
}

/// A live connection record.
#[derive(Debug, Clone)]
pub struct ConnRecord {
    /// Connection id.
    pub id: ConnectionId,
    /// Source router (whose NA transmits).
    pub src: RouterId,
    /// Destination router (whose NA receives).
    pub dst: RouterId,
    /// Link directions along the path.
    pub dirs: Vec<Direction>,
    /// Reserved VC on each link.
    pub vcs: Vec<VcId>,
    /// Source NA TX interface.
    pub tx_iface: u8,
    /// Destination local GS interface.
    pub rx_iface: u8,
    /// Lifecycle state.
    pub state: ConnState,
    /// When the last opening ack returned (the circuit went live).
    pub opened_at: Option<SimTime>,
    /// When the last teardown ack returned (resources released).
    pub closed_at: Option<SimTime>,
    /// Ack tokens still outstanding, each with the path index (1-based
    /// hop count from the source) of the router that owes the ack — the
    /// mapping force-close uses to tell confirmed from unconfirmed hops.
    outstanding: Vec<(u16, u8)>,
    /// Each hop's link, by [`Grid::link_index`]: where its VC is booked.
    links: Vec<usize>,
}

impl ConnRecord {
    /// Number of links the connection traverses.
    pub fn hops(&self) -> usize {
        self.dirs.len()
    }

    /// The routers the connection visits, both endpoints included —
    /// reconstructed by walking the stored link directions (the path is
    /// not necessarily XY: the QoS admission controller may have routed
    /// around congested links).
    pub fn path(&self, grid: &Grid) -> Vec<RouterId> {
        walk_dirs(grid, self.src, &self.dirs).expect("stored connection path stays valid")
    }
}

/// Walks `dirs` from `src`, returning every visited router (endpoints
/// included).
///
/// # Errors
///
/// Fails if the walk is empty, leaves the grid, or revisits a router
/// (GS paths must be simple: each hop reserves a distinct VC buffer).
pub fn walk_dirs(
    grid: &Grid,
    src: RouterId,
    dirs: &[Direction],
) -> Result<Vec<RouterId>, ConnError> {
    if dirs.is_empty() {
        return Err(ConnError::BadPath("empty path".into()));
    }
    let mut path = Vec::with_capacity(dirs.len() + 1);
    path.push(src);
    let mut cur = src;
    for &d in dirs {
        cur = grid
            .neighbor(cur, d)
            .ok_or_else(|| ConnError::BadPath(format!("{cur} has no {d} neighbor")))?;
        if path.contains(&cur) {
            return Err(ConnError::BadPath(format!("path revisits {cur}")));
        }
        path.push(cur);
    }
    Ok(path)
}

/// Everything the caller must do to open a connection: apply the local
/// writes at the source router, bind the NA TX interface, and inject the
/// config packets from the source NA.
#[derive(Debug, Clone)]
pub struct OpenPlan {
    /// The new connection's id.
    pub id: ConnectionId,
    /// Writes to apply directly at the source router.
    pub local_writes: Vec<ProgWrite>,
    /// NA TX interface to bind.
    pub tx_iface: u8,
    /// First-hop steering for the NA TX interface.
    pub tx_steer: Steer,
    /// Config packets (flit sequences) to enqueue at the source NA.
    pub config_packets: Vec<Vec<Flit>>,
}

/// Everything the caller must do to close a connection.
#[derive(Debug, Clone)]
pub struct ClosePlan {
    /// The closing connection's id.
    pub id: ConnectionId,
    /// Writes to apply directly at the source router.
    pub local_writes: Vec<ProgWrite>,
    /// NA TX interface to unbind once the plan is issued.
    pub tx_iface: u8,
    /// Teardown packets to enqueue at the source NA.
    pub config_packets: Vec<Vec<Flit>>,
}

/// Result of a forced (out-of-band) teardown after a fault.
///
/// Unlike [`ClosePlan`], no config packets are generated: the network is
/// assumed unable to deliver them (or their acks) reliably. Resources
/// whose remote router state is known-clean are released for reuse;
/// resources whose router-table entries may still be programmed are
/// quarantined instead, so a later open can never double-program a
/// half-torn-down entry.
#[derive(Debug, Clone)]
pub struct ForceClosePlan {
    /// The force-closed connection's id.
    pub id: ConnectionId,
    /// Clears to apply directly at the source router (empty when a prior
    /// in-band close already wiped the source entries).
    pub local_writes: Vec<ProgWrite>,
    /// NA TX interface to force-unbind, if still bound.
    pub tx_iface: Option<u8>,
    /// Hop VCs returned to the free pool.
    pub released_hops: usize,
    /// Hop VCs moved to the quarantine mask.
    pub quarantined_hops: usize,
}

/// Allocates and tracks GS connections over one grid.
///
/// Every book is a bitmask vector on one of the grid's dense indices:
/// per directed link by [`Grid::link_index`], per router by
/// [`Grid::index`]. Records are indexed by their [`ConnectionId`].
#[derive(Debug)]
pub struct ConnectionManager {
    gs_vcs: usize,
    local_ifaces: usize,
    next_token: u16,
    /// Every connection ever opened; a record's index is its id.
    conns: Vec<ConnRecord>,
    /// Outstanding ack tokens, keyed by the token on the wire.
    tokens: HashMap<u16, ConnectionId>,
    /// Used VCs per directed link.
    vc_used: Vec<u16>,
    /// Used NA TX interfaces per router.
    tx_used: Vec<u16>,
    /// Used local GS (delivery) interfaces per router.
    rx_used: Vec<u16>,
    /// VCs a forced teardown could not confirm clean: the router-table
    /// entries may still be programmed, so the allocator must skip them.
    /// Quarantined bits are *not* counted by [`Self::nothing_reserved`] —
    /// force-close returns the budget exactly and parks the hazard here.
    vc_quarantined: Vec<u16>,
    /// Local GS interfaces whose delivery-side unlock entry may still be
    /// programmed after a forced teardown.
    rx_quarantined: Vec<u16>,
}

impl ConnectionManager {
    /// A manager for `grid`'s routers with `gs_vcs` VCs per link and
    /// `local_ifaces` local GS interfaces (paper: 7 and 4).
    pub fn new(grid: &Grid, gs_vcs: usize, local_ifaces: usize) -> Self {
        let (links, routers) = (grid.len() * 4, grid.len());
        ConnectionManager {
            gs_vcs,
            local_ifaces,
            next_token: 1,
            conns: Vec::new(),
            tokens: HashMap::new(),
            vc_used: vec![0; links],
            tx_used: vec![0; routers],
            rx_used: vec![0; routers],
            vc_quarantined: vec![0; links],
            rx_quarantined: vec![0; routers],
        }
    }

    /// The record for `id`.
    pub fn get(&self, id: ConnectionId) -> Option<&ConnRecord> {
        self.conns.get(id.0 as usize)
    }

    /// The state of `id`, if known.
    pub fn state(&self, id: ConnectionId) -> Option<ConnState> {
        self.get(id).map(|c| c.state)
    }

    /// True if every connection is `Open` or `Closed` (no programming in
    /// flight).
    pub fn all_settled(&self) -> bool {
        self.conns
            .iter()
            .all(|c| matches!(c.state, ConnState::Open | ConnState::Closed))
    }

    /// True when no VC, TX-interface or RX-interface budget is reserved
    /// — every allocation has been returned. Together with every
    /// connection reading `Closed`, this is the teardown leak-check
    /// invariant: the manager is back in its initial-state budget
    /// position.
    pub fn nothing_reserved(&self) -> bool {
        [&self.vc_used, &self.tx_used, &self.rx_used]
            .iter()
            .all(|book| book.iter().all(|&m| m == 0))
    }

    fn alloc_bit(mask: u16, limit: usize) -> Option<u8> {
        (0..limit as u8).find(|&bit| mask & (1 << bit) == 0)
    }

    /// Plans the opening of a connection from `src` to `dst` along the
    /// default XY route, reserving all resources.
    ///
    /// # Errors
    ///
    /// Fails (reserving nothing) if routing fails or any VC/interface on
    /// the path is exhausted.
    pub fn open(
        &mut self,
        grid: &Grid,
        relays: &mut RelayTable,
        src: RouterId,
        dst: RouterId,
    ) -> Result<OpenPlan, ConnError> {
        let dirs = xy_route(grid, src, dst)?;
        self.open_along(grid, relays, src, dst, &dirs)
    }

    /// Plans the opening of a connection along an explicit link path.
    ///
    /// Any simple (router-disjoint) path is legal for GS traffic: every
    /// hop reserves an independently buffered VC, so GS streams cannot
    /// deadlock regardless of route shape (Sec. 3) — only BE worm-hole
    /// routing needs the XY restriction. The programming packets that set
    /// the path up are BE and travel the route [`build_segmented_packet`]
    /// picks, independent of `dirs`.
    ///
    /// # Errors
    ///
    /// Fails (reserving nothing) if the path is malformed, does not end
    /// at `dst`, crosses a failed link, any VC/interface along it is
    /// exhausted, or a programming packet or its ack has no route.
    pub fn open_along(
        &mut self,
        grid: &Grid,
        relays: &mut RelayTable,
        src: RouterId,
        dst: RouterId,
        dirs: &[Direction],
    ) -> Result<OpenPlan, ConnError> {
        let path = walk_dirs(grid, src, dirs)?;
        if path[dirs.len()] != dst {
            return Err(ConnError::BadPath(format!(
                "path from {src} ends at {} not {dst}",
                path[dirs.len()]
            )));
        }
        let hops = dirs.len();
        let links: Vec<usize> = (0..hops)
            .map(|i| grid.link_index(path[i], dirs[i]))
            .collect();
        if let Some(i) = links.iter().position(|&link| grid.link_failed(link)) {
            return Err(ConnError::LinkDown(path[i], dirs[i]));
        }

        // Find everything before committing. Quarantined bits count as
        // taken here but are tracked apart from the used masks.
        let mut vcs = Vec::with_capacity(hops);
        for (i, &link) in links.iter().enumerate() {
            let taken = self.vc_used[link] | self.vc_quarantined[link];
            let vc =
                Self::alloc_bit(taken, self.gs_vcs).ok_or(ConnError::NoFreeVc(path[i], dirs[i]))?;
            vcs.push(VcId(vc));
        }
        let (s, d) = (grid.index(src), grid.index(dst));
        let tx_iface = Self::alloc_bit(self.tx_used[s], self.local_ifaces)
            .ok_or(ConnError::NoFreeTxIface(src))?;
        let rx_iface = Self::alloc_bit(self.rx_used[d] | self.rx_quarantined[d], self.local_ifaces)
            .ok_or(ConnError::NoFreeRxIface(dst))?;

        // Router path[i] steers hop i's flits into the buffer of hop i + 1
        // (the destination's local interface after the last hop) and
        // unlocks its upstream: the NA at the source, link i - 1 beyond.
        let set_writes = |i: usize| -> Vec<ProgWrite> {
            let upstream = match i {
                0 => UpstreamRef::Na { iface: tx_iface },
                _ => UpstreamRef::Link {
                    in_dir: dirs[i - 1].opposite(),
                    wire: vcs[i - 1],
                },
            };
            if i == hops {
                let buffer = GsBufferRef::Local { iface: rx_iface };
                return vec![ProgWrite::SetUnlock { buffer, upstream }];
            }
            let (dir, vc) = (dirs[i], vcs[i]);
            let steer = match dirs.get(i + 1) {
                Some(&next) => Steer::GsBuffer {
                    dir: next,
                    vc: vcs[i + 1],
                },
                None => Steer::LocalGs { iface: rx_iface },
            };
            vec![
                ProgWrite::SetUnlock {
                    buffer: GsBufferRef::Net { dir, vc },
                    upstream,
                },
                ProgWrite::SetSteer { dir, vc, steer },
            ]
        };
        let id = ConnectionId(self.conns.len() as u32);
        let local_writes = set_writes(0);
        let mut outstanding = Vec::with_capacity(hops);
        let config_packets =
            self.program_hops(grid, relays, id, &path, set_writes, &mut outstanding)?;
        let tx_steer = Steer::GsBuffer {
            dir: dirs[0],
            vc: vcs[0],
        };

        // Every packet is built: commit.
        for (&link, vc) in links.iter().zip(&vcs) {
            self.vc_used[link] |= 1 << vc.0;
        }
        self.tx_used[s] |= 1 << tx_iface;
        self.rx_used[d] |= 1 << rx_iface;
        self.conns.push(ConnRecord {
            id,
            src,
            dst,
            dirs: dirs.to_vec(),
            vcs,
            tx_iface,
            rx_iface,
            state: ConnState::Opening,
            opened_at: None,
            closed_at: None,
            outstanding,
            links,
        });
        Ok(OpenPlan {
            id,
            local_writes,
            tx_iface,
            tx_steer,
            config_packets,
        })
    }

    /// Builds the config packets that program `path[1..]`, the routers
    /// past the source: router `path[i]` gets `writes(i)` and an ack
    /// request under a fresh token. Books the tokens for `id` only once
    /// every packet is built, so a route failure leaves no token and no
    /// relay ticket behind. Returns the packets; the `(token, path
    /// index)` pairs go to `outstanding`.
    fn program_hops(
        &mut self,
        grid: &Grid,
        relays: &mut RelayTable,
        id: ConnectionId,
        path: &[RouterId],
        writes: impl Fn(usize) -> Vec<ProgWrite>,
        outstanding: &mut Vec<(u16, u8)>,
    ) -> Result<Vec<Vec<Flit>>, ConnError> {
        let src = path[0];
        let mut packets = Vec::with_capacity(path.len() - 1);
        let mut token = self.next_token;
        for (i, &router) in path.iter().enumerate().skip(1) {
            let packet = ack_leg_header(grid, router, src).and_then(|return_header| {
                let plan = AckPlan {
                    token,
                    return_header,
                };
                let payload = mango_core::prog::encode_payload(&writes(i), Some(plan));
                build_segmented_packet(grid, relays, src, router, &payload, true)
            });
            match packet {
                Ok(packet) => packets.push(packet),
                Err(e) => {
                    // Hand back the relay tickets the built packets took.
                    for built in &packets {
                        if let Some(ticket) = built
                            .get(1)
                            .filter(|f| f.relay())
                            .and_then(|f| parse_relay_word(f.data))
                        {
                            relays.take(ticket);
                        }
                    }
                    return Err(e.into());
                }
            }
            outstanding.push((token, i as u8));
            token = token.wrapping_add(1).max(1);
        }
        self.next_token = token;
        for &(t, _) in outstanding.iter() {
            self.tokens.insert(t, id);
        }
        Ok(packets)
    }

    /// Plans the teardown of an open connection. Traffic must be drained
    /// first; the caller unbinds the NA TX interface.
    ///
    /// # Errors
    ///
    /// Fails (changing nothing) if the connection is unknown or not open,
    /// or if a teardown packet or its ack has no route.
    pub fn close(
        &mut self,
        grid: &Grid,
        relays: &mut RelayTable,
        id: ConnectionId,
    ) -> Result<ClosePlan, ConnError> {
        let conn = self.get(id).ok_or(ConnError::Unknown(id))?;
        if conn.state != ConnState::Open {
            return Err(ConnError::BadState(id, conn.state));
        }
        let path = conn.path(grid);
        let (dirs, vcs, rx_iface) = (conn.dirs.clone(), conn.vcs.clone(), conn.rx_iface);
        let writes = |i: usize| match dirs.get(i) {
            Some(&dir) => clear_writes(dir, vcs[i]),
            None => vec![ProgWrite::ClearUnlock {
                buffer: GsBufferRef::Local { iface: rx_iface },
            }],
        };
        let local_writes = writes(0);
        let mut outstanding = Vec::with_capacity(path.len() - 1);
        let config_packets =
            self.program_hops(grid, relays, id, &path, writes, &mut outstanding)?;

        let conn = &mut self.conns[id.0 as usize];
        conn.state = ConnState::Closing;
        conn.outstanding = outstanding;
        Ok(ClosePlan {
            id,
            local_writes,
            tx_iface: conn.tx_iface,
            config_packets,
        })
    }

    /// True if `token` belongs to an outstanding programming request.
    pub fn known_token(&self, token: u16) -> bool {
        self.tokens.contains_key(&token)
    }

    /// The source router an outstanding token's acknowledgment must reach
    /// (acks delivered at intermediate relay NAs are re-launched toward
    /// it).
    pub fn token_src(&self, token: u16) -> Option<RouterId> {
        let id = self.tokens.get(&token)?;
        self.get(*id).map(|c| c.src)
    }

    /// Processes an acknowledgment token at simulation time `now`;
    /// returns the connection and what happened to it if the token
    /// completed a transition (the time is recorded in the record's
    /// `opened_at`/`closed_at`).
    pub fn on_ack(
        &mut self,
        token: u16,
        grid: &Grid,
        now: SimTime,
    ) -> Option<(ConnectionId, NoticeKind)> {
        let id = self.tokens.remove(&token)?;
        let conn = &mut self.conns[id.0 as usize];
        conn.outstanding.retain(|&(t, _)| t != token);
        if !conn.outstanding.is_empty() {
            return None;
        }
        match conn.state {
            ConnState::Opening => {
                conn.state = ConnState::Open;
                conn.opened_at = Some(now);
                Some((id, NoticeKind::Opened))
            }
            ConnState::Closing => {
                conn.state = ConnState::Closed;
                conn.closed_at = Some(now);
                self.release(id, grid);
                Some((id, NoticeKind::Closed))
            }
            s => panic!("ack for connection in state {s:?}"),
        }
    }

    /// Marks one VC on a directed link unusable without charging it to
    /// any connection's budget — used when a stuck-at fault wedges the
    /// buffer itself rather than a teardown leaving it programmed.
    pub fn quarantine_vc(&mut self, grid: &Grid, router: RouterId, dir: Direction, vc: VcId) {
        self.vc_quarantined[grid.link_index(router, dir)] |= 1 << vc.0;
    }

    /// Number of quarantined resources (hop VCs plus RX interfaces).
    /// Zero after a run means every teardown completed cleanly in-band.
    pub fn quarantined_count(&self) -> usize {
        self.vc_quarantined
            .iter()
            .chain(&self.rx_quarantined)
            .map(|m| m.count_ones() as usize)
            .sum()
    }

    /// Forcibly tears down a connection without any in-band traffic, for
    /// use when the network can no longer deliver teardown packets (or
    /// their acks) to every router on the path.
    ///
    /// Every budget bit the connection held is returned exactly — after
    /// force-closing all connections, [`Self::nothing_reserved`] holds.
    /// Hops whose router-table entries are not known clean move to the
    /// quarantine masks instead of the free pool:
    ///
    /// - interrupted while `Closing`: hops whose clear-ack returned are
    ///   clean (released); hops still owing an ack are quarantined;
    /// - interrupted while `Opening` or `Open`: every remote hop may
    ///   hold programmed entries (no clears were ever sent), so all are
    ///   quarantined; hop 0 lives at the source router, which the caller
    ///   wipes via the returned `local_writes`, so it is released.
    ///
    /// Idempotent: force-closing a `Closed` connection is a no-op.
    ///
    /// # Errors
    ///
    /// Fails only if `id` is unknown.
    pub fn force_close(
        &mut self,
        grid: &Grid,
        id: ConnectionId,
        now: SimTime,
    ) -> Result<ForceClosePlan, ConnError> {
        let prior = self.state(id).ok_or(ConnError::Unknown(id))?;
        if prior == ConnState::Closed {
            return Ok(ForceClosePlan {
                id,
                local_writes: Vec::new(),
                tx_iface: None,
                released_hops: 0,
                quarantined_hops: 0,
            });
        }
        self.release(id, grid);
        let conn = &mut self.conns[id.0 as usize];
        conn.state = ConnState::Closed;
        conn.closed_at = Some(now);
        let outstanding = std::mem::take(&mut conn.outstanding);
        // Late acks for dropped tokens must be ignored, not processed.
        for &(t, _) in &outstanding {
            self.tokens.remove(&t);
        }

        // Hop i's entries live at router path[i]; the RX interface's
        // unlock entry at the destination is "hop" `hops`. The TX
        // interface is local to the source NA and always reclaimable.
        let clean = |i: usize| match prior {
            ConnState::Closing => outstanding.iter().all(|&(_, hop)| usize::from(hop) != i),
            _ => i == 0,
        };
        let conn = &self.conns[id.0 as usize];
        let mut quarantined = 0;
        for (i, (&link, vc)) in conn.links.iter().zip(&conn.vcs).enumerate() {
            if !clean(i) {
                self.vc_quarantined[link] |= 1 << vc.0;
                quarantined += 1;
            }
        }
        if !clean(conn.hops()) {
            self.rx_quarantined[grid.index(conn.dst)] |= 1 << conn.rx_iface;
        }

        // A prior in-band close already wiped the source entries and
        // surrendered the TX binding; otherwise hand both to the caller.
        let (local_writes, tx_iface) = if prior == ConnState::Closing {
            (Vec::new(), None)
        } else {
            (clear_writes(conn.dirs[0], conn.vcs[0]), Some(conn.tx_iface))
        };
        Ok(ForceClosePlan {
            id,
            local_writes,
            tx_iface,
            released_hops: conn.hops() - quarantined,
            quarantined_hops: quarantined,
        })
    }

    /// Returns every VC and interface bit `id` holds.
    fn release(&mut self, id: ConnectionId, grid: &Grid) {
        let conn = &self.conns[id.0 as usize];
        for (&link, vc) in conn.links.iter().zip(&conn.vcs) {
            self.vc_used[link] &= !(1 << vc.0);
        }
        self.tx_used[grid.index(conn.src)] &= !(1 << conn.tx_iface);
        self.rx_used[grid.index(conn.dst)] &= !(1 << conn.rx_iface);
    }
}

/// The writes that clear the steer and unlock entries of buffer `vc` on
/// a router's `dir` output.
fn clear_writes(dir: Direction, vc: VcId) -> Vec<ProgWrite> {
    vec![
        ProgWrite::ClearUnlock {
            buffer: GsBufferRef::Net { dir, vc },
        },
        ProgWrite::ClearSteer { dir, vc },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Grid, ConnectionManager, RelayTable) {
        let grid = Grid::new(4, 4);
        let m = ConnectionManager::new(&grid, 7, 4);
        (grid, m, RelayTable::new())
    }

    #[test]
    fn open_reserves_distinct_vcs_per_link() {
        let (g, mut m, mut rl) = setup();
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(2, 0);
        let p1 = m.open(&g, &mut rl, src, dst).unwrap();
        let p2 = m.open(&g, &mut rl, src, dst).unwrap();
        let c1 = m.get(p1.id).unwrap();
        let c2 = m.get(p2.id).unwrap();
        assert_ne!(c1.vcs[0], c2.vcs[0], "same link must use distinct VCs");
        assert_ne!(c1.tx_iface, c2.tx_iface);
        assert_ne!(c1.rx_iface, c2.rx_iface);
    }

    #[test]
    fn open_plan_has_writes_and_packets_per_remote_router() {
        let (g, mut m, mut rl) = setup();
        let plan = m
            .open(&g, &mut rl, RouterId::new(0, 0), RouterId::new(2, 1))
            .unwrap();
        // 3 links → routers (1,0), (2,0), (2,1) are remote.
        assert_eq!(plan.config_packets.len(), 3);
        assert_eq!(plan.local_writes.len(), 2);
        assert!(matches!(plan.tx_steer, Steer::GsBuffer { .. }));
        assert_eq!(m.state(plan.id), Some(ConnState::Opening));
        // All packets are config-marked.
        for pkt in &plan.config_packets {
            assert!(pkt.iter().all(|f| f.be_vc()));
            assert!(pkt.last().unwrap().eop());
        }
    }

    #[test]
    fn vc_exhaustion_reported() {
        let (g, mut m, mut rl) = setup();
        // 7 GS VCs per link but only 4 local interfaces: interface
        // exhaustion hits first from a single source.
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(1, 0);
        for _ in 0..4 {
            m.open(&g, &mut rl, src, dst).unwrap();
        }
        let err = m.open(&g, &mut rl, src, dst).unwrap_err();
        assert_eq!(err, ConnError::NoFreeTxIface(src));

        // Different sources can still exhaust the shared link VCs.
        let mut m = ConnectionManager::new(&g, 2, 4);
        m.open(&g, &mut rl, src, dst).unwrap();
        m.open(&g, &mut rl, src, dst).unwrap();
        let err = m.open(&g, &mut rl, src, dst).unwrap_err();
        assert_eq!(err, ConnError::NoFreeVc(src, Direction::East));
    }

    #[test]
    fn acks_drive_opening_to_open() {
        let (g, mut m, mut rl) = setup();
        let plan = m
            .open(&g, &mut rl, RouterId::new(0, 0), RouterId::new(2, 0))
            .unwrap();
        let conn = m.get(plan.id).unwrap();
        let tokens: Vec<u16> = conn.outstanding.iter().map(|&(t, _)| t).collect();
        assert_eq!(tokens.len(), 2);
        assert_eq!(
            m.on_ack(tokens[0], &g, SimTime::ZERO),
            None,
            "still one outstanding"
        );
        assert_eq!(
            m.on_ack(tokens[1], &g, SimTime::ZERO),
            Some((plan.id, NoticeKind::Opened))
        );
        assert!(m.all_settled());
        assert_eq!(
            m.on_ack(tokens[1], &g, SimTime::ZERO),
            None,
            "duplicate ack ignored"
        );
    }

    #[test]
    fn close_releases_resources_for_reuse() {
        let (g, mut m, mut rl) = setup();
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(1, 0);
        let plan = m.open(&g, &mut rl, src, dst).unwrap();
        let tokens = m.get(plan.id).unwrap().outstanding.clone();
        for (t, _) in tokens {
            m.on_ack(t, &g, SimTime::ZERO);
        }
        let close = m.close(&g, &mut rl, plan.id).unwrap();
        assert_eq!(close.config_packets.len(), 1);
        let tokens = m.get(plan.id).unwrap().outstanding.clone();
        for (t, _) in tokens {
            m.on_ack(t, &g, SimTime::ZERO);
        }
        assert_eq!(m.state(plan.id), Some(ConnState::Closed));
        // Everything freed: 4 more connections fit again.
        for _ in 0..4 {
            m.open(&g, &mut rl, src, dst).unwrap();
        }
    }

    #[test]
    fn close_requires_open_state() {
        let (g, mut m, mut rl) = setup();
        let plan = m
            .open(&g, &mut rl, RouterId::new(0, 0), RouterId::new(3, 3))
            .unwrap();
        let err = m.close(&g, &mut rl, plan.id).unwrap_err();
        assert!(matches!(err, ConnError::BadState(_, ConnState::Opening)));
        assert!(matches!(
            m.close(&g, &mut rl, ConnectionId(999)),
            Err(ConnError::Unknown(_))
        ));
    }

    #[test]
    fn same_router_connection_rejected() {
        let (g, mut m, mut rl) = setup();
        let r = RouterId::new(1, 1);
        assert!(matches!(
            m.open(&g, &mut rl, r, r),
            Err(ConnError::Route(RouteError::SameRouter(_)))
        ));
    }

    #[test]
    fn force_close_open_connection_quarantines_remote_hops() {
        let (g, mut m, mut rl) = setup();
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(2, 0);
        let plan = m.open(&g, &mut rl, src, dst).unwrap();
        for (t, _) in m.get(plan.id).unwrap().outstanding.clone() {
            m.on_ack(t, &g, SimTime::ZERO);
        }
        let fc = m.force_close(&g, plan.id, SimTime::ZERO).unwrap();
        assert_eq!(m.state(plan.id), Some(ConnState::Closed));
        // Hop 0 cleared via local writes; hop 1 (router (1,0)) still
        // holds programmed entries and is quarantined, as is the RX
        // interface at the destination.
        assert_eq!(fc.released_hops, 1);
        assert_eq!(fc.quarantined_hops, 1);
        assert_eq!(fc.local_writes.len(), 2);
        assert_eq!(fc.tx_iface, Some(plan.tx_iface));
        assert_eq!(m.quarantined_count(), 2);
        assert!(m.nothing_reserved(), "budgets returned exactly");
        // Idempotent.
        let again = m.force_close(&g, plan.id, SimTime::ZERO).unwrap();
        assert_eq!(again.released_hops + again.quarantined_hops, 0);
        assert!(again.local_writes.is_empty());
    }

    #[test]
    fn force_close_mid_closing_releases_acked_hops_only() {
        let (g, mut m, mut rl) = setup();
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(2, 0);
        let plan = m.open(&g, &mut rl, src, dst).unwrap();
        for (t, _) in m.get(plan.id).unwrap().outstanding.clone() {
            m.on_ack(t, &g, SimTime::ZERO);
        }
        m.close(&g, &mut rl, plan.id).unwrap();
        // Ack only router (1,0) (path index 1); the destination's clear
        // ack never arrives.
        let pending = m.get(plan.id).unwrap().outstanding.clone();
        let (t, idx) = pending.iter().copied().find(|&(_, i)| i == 1).unwrap();
        assert_eq!(idx, 1);
        m.on_ack(t, &g, SimTime::ZERO);
        let fc = m.force_close(&g, plan.id, SimTime::ZERO).unwrap();
        // Hops 0 and 1 confirmed clean; the destination hop and RX
        // interface are quarantined.
        assert_eq!(fc.released_hops, 2);
        assert_eq!(fc.quarantined_hops, 0);
        assert!(fc.local_writes.is_empty(), "in-band close wiped source");
        assert_eq!(fc.tx_iface, None);
        assert_eq!(m.quarantined_count(), 1, "only the RX iface");
        assert!(m.nothing_reserved());
        // A late ack for the dropped token is ignored.
        let (late, _) = pending.iter().copied().find(|&(_, i)| i == 2).unwrap();
        assert!(!m.known_token(late));
        assert_eq!(m.on_ack(late, &g, SimTime::ZERO), None);
    }

    #[test]
    fn quarantined_vcs_are_skipped_by_the_allocator() {
        let (g, mut m, mut rl) = setup();
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(1, 0);
        m.quarantine_vc(&g, src, Direction::East, VcId(0));
        let plan = m.open(&g, &mut rl, src, dst).unwrap();
        assert_eq!(
            m.get(plan.id).unwrap().vcs[0],
            VcId(1),
            "allocator must skip the quarantined VC 0"
        );
        // Quarantine shrinks the pool: with 2 VCs and one quarantined,
        // a second connection on the same link is refused.
        let mut m2 = ConnectionManager::new(&g, 2, 4);
        m2.quarantine_vc(&g, src, Direction::East, VcId(1));
        m2.open(&g, &mut rl, src, dst).unwrap();
        assert_eq!(
            m2.open(&g, &mut rl, src, dst).unwrap_err(),
            ConnError::NoFreeVc(src, Direction::East)
        );
    }

    #[test]
    fn failed_open_reserves_nothing() {
        let (g, _, mut rl) = setup();
        let mut m = ConnectionManager::new(&g, 1, 4);
        let a = RouterId::new(0, 0);
        let b = RouterId::new(2, 0);
        m.open(&g, &mut rl, a, b).unwrap();
        // Second connection fails on the first link...
        assert!(m.open(&g, &mut rl, a, b).is_err());
        // ...but a disjoint path is unaffected.
        m.open(&g, &mut rl, RouterId::new(0, 1), RouterId::new(2, 1))
            .unwrap();
    }
}
