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

use crate::relay::{ack_leg_header, build_segmented_packet, RelayTable};
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
#[derive(Debug)]
pub struct ConnectionManager {
    gs_vcs: usize,
    local_ifaces: usize,
    next_id: u32,
    next_token: u16,
    conns: HashMap<ConnectionId, ConnRecord>,
    tokens: HashMap<u16, ConnectionId>,
    /// Bitmask of used VCs per directed link.
    vc_used: HashMap<(RouterId, Direction), u16>,
    /// Bitmask of used NA TX interfaces per router.
    tx_used: HashMap<RouterId, u16>,
    /// Bitmask of used local GS (delivery) interfaces per router.
    rx_used: HashMap<RouterId, u16>,
    /// VCs a forced teardown could not confirm clean: the router-table
    /// entries may still be programmed, so the allocator must skip them.
    /// Quarantined bits are *not* counted by [`Self::nothing_reserved`] —
    /// force-close returns the budget exactly and parks the hazard here.
    vc_quarantined: HashMap<(RouterId, Direction), u16>,
    /// Local GS interfaces whose delivery-side unlock entry may still be
    /// programmed after a forced teardown.
    rx_quarantined: HashMap<RouterId, u16>,
}

impl ConnectionManager {
    /// A manager for routers with `gs_vcs` VCs per link and `local_ifaces`
    /// local GS interfaces (paper: 7 and 4).
    pub fn new(gs_vcs: usize, local_ifaces: usize) -> Self {
        ConnectionManager {
            gs_vcs,
            local_ifaces,
            next_id: 0,
            next_token: 1,
            conns: HashMap::new(),
            tokens: HashMap::new(),
            vc_used: HashMap::new(),
            tx_used: HashMap::new(),
            rx_used: HashMap::new(),
            vc_quarantined: HashMap::new(),
            rx_quarantined: HashMap::new(),
        }
    }

    /// The record for `id`.
    pub fn get(&self, id: ConnectionId) -> Option<&ConnRecord> {
        self.conns.get(&id)
    }

    /// The state of `id`, if known.
    pub fn state(&self, id: ConnectionId) -> Option<ConnState> {
        self.conns.get(&id).map(|c| c.state)
    }

    /// True if every connection is `Open` or `Closed` (no programming in
    /// flight).
    pub fn all_settled(&self) -> bool {
        self.conns
            .values()
            .all(|c| matches!(c.state, ConnState::Open | ConnState::Closed))
    }

    /// True when no VC, TX-interface or RX-interface budget is reserved
    /// — every allocation has been returned. Together with every
    /// connection reading `Closed`, this is the teardown leak-check
    /// invariant: the manager is back in its initial-state budget
    /// position.
    pub fn nothing_reserved(&self) -> bool {
        self.vc_used.values().all(|m| *m == 0)
            && self.tx_used.values().all(|m| *m == 0)
            && self.rx_used.values().all(|m| *m == 0)
    }

    /// Ids of all connections.
    pub fn ids(&self) -> Vec<ConnectionId> {
        let mut v: Vec<_> = self.conns.keys().copied().collect();
        v.sort_by_key(|c| c.0);
        v
    }

    fn alloc_bit(mask: &mut u16, limit: usize) -> Option<u8> {
        for bit in 0..limit {
            if *mask & (1 << bit) == 0 {
                *mask |= 1 << bit;
                return Some(bit as u8);
            }
        }
        None
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
    /// the path up are BE and still travel XY, independent of `dirs`.
    ///
    /// # Errors
    ///
    /// Fails (reserving nothing) if the path is malformed, does not end
    /// at `dst`, or any VC/interface along it is exhausted.
    pub fn open_along(
        &mut self,
        grid: &Grid,
        relays: &mut RelayTable,
        src: RouterId,
        dst: RouterId,
        dirs: &[Direction],
    ) -> Result<OpenPlan, ConnError> {
        let path = walk_dirs(grid, src, dirs)?;
        if *path.last().expect("walk includes src") != dst {
            return Err(ConnError::BadPath(format!(
                "path from {src} ends at {} not {dst}",
                path.last().expect("walk includes src")
            )));
        }
        let dirs = dirs.to_vec();
        let hops = dirs.len();

        // Dry-run allocation: find everything before committing.
        // Quarantined bits count as taken here but are tracked apart
        // from the used masks, so only the fresh bit is committed below.
        let mut vcs = Vec::with_capacity(hops);
        for (i, &d) in dirs.iter().enumerate() {
            let mut mask = self.vc_used.get(&(path[i], d)).copied().unwrap_or(0)
                | self.vc_quarantined.get(&(path[i], d)).copied().unwrap_or(0);
            match Self::alloc_bit(&mut mask, self.gs_vcs) {
                Some(vc) => vcs.push(VcId(vc)),
                None => return Err(ConnError::NoFreeVc(path[i], d)),
            }
        }
        let mut tx_mask = self.tx_used.get(&src).copied().unwrap_or(0);
        let Some(tx_iface) = Self::alloc_bit(&mut tx_mask, self.local_ifaces) else {
            return Err(ConnError::NoFreeTxIface(src));
        };
        let mut rx_mask = self.rx_used.get(&dst).copied().unwrap_or(0)
            | self.rx_quarantined.get(&dst).copied().unwrap_or(0);
        let Some(rx_iface) = Self::alloc_bit(&mut rx_mask, self.local_ifaces) else {
            return Err(ConnError::NoFreeRxIface(dst));
        };

        // Commit allocations.
        for (i, &d) in dirs.iter().enumerate() {
            *self.vc_used.entry((path[i], d)).or_insert(0) |= 1 << vcs[i].0;
        }
        self.tx_used.insert(src, tx_mask);
        *self.rx_used.entry(dst).or_insert(0) |= 1 << rx_iface;

        let id = ConnectionId(self.next_id);
        self.next_id += 1;

        // Steering target inside router path[i] (the buffer hop i lands in).
        let target = |i: usize| -> Steer {
            if i == hops {
                Steer::LocalGs { iface: rx_iface }
            } else {
                Steer::GsBuffer {
                    dir: dirs[i],
                    vc: vcs[i],
                }
            }
        };

        // Source router: programmed directly via its local port.
        let local_writes = vec![
            ProgWrite::SetUnlock {
                buffer: GsBufferRef::Net {
                    dir: dirs[0],
                    vc: vcs[0],
                },
                upstream: UpstreamRef::Na { iface: tx_iface },
            },
            ProgWrite::SetSteer {
                dir: dirs[0],
                vc: vcs[0],
                steer: target(1),
            },
        ];

        // Remote routers path[1..=hops]: config packets with acks.
        let mut config_packets = Vec::new();
        let mut outstanding = Vec::new();
        for (i, &router) in path.iter().enumerate().take(hops + 1).skip(1) {
            let mut writes = Vec::new();
            let buffer = if i == hops {
                GsBufferRef::Local { iface: rx_iface }
            } else {
                GsBufferRef::Net {
                    dir: dirs[i],
                    vc: vcs[i],
                }
            };
            writes.push(ProgWrite::SetUnlock {
                buffer,
                upstream: UpstreamRef::Link {
                    in_dir: dirs[i - 1].opposite(),
                    wire: vcs[i - 1],
                },
            });
            if i < hops {
                writes.push(ProgWrite::SetSteer {
                    dir: dirs[i],
                    vc: vcs[i],
                    steer: target(i + 1),
                });
            }
            let token = self.next_token;
            self.next_token = self.next_token.wrapping_add(1).max(1);
            outstanding.push((token, i as u8));
            self.tokens.insert(token, id);
            let plan = AckPlan {
                token,
                return_header: ack_leg_header(grid, router, src)
                    .expect("path routers differ from src"),
            };
            let payload = mango_core::prog::encode_payload(&writes, Some(plan));
            config_packets.push(build_segmented_packet(
                grid, relays, src, router, &payload, true,
            )?);
        }

        let tx_steer = Steer::GsBuffer {
            dir: dirs[0],
            vc: vcs[0],
        };
        let state = if outstanding.is_empty() {
            ConnState::Open
        } else {
            ConnState::Opening
        };
        self.conns.insert(
            id,
            ConnRecord {
                id,
                src,
                dst,
                dirs,
                vcs,
                tx_iface,
                rx_iface,
                state,
                opened_at: None,
                closed_at: None,
                outstanding,
            },
        );

        Ok(OpenPlan {
            id,
            local_writes,
            tx_iface,
            tx_steer,
            config_packets,
        })
    }

    /// Plans the teardown of an open connection. Traffic must be drained
    /// first; the caller unbinds the NA TX interface.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown or not open.
    pub fn close(
        &mut self,
        grid: &Grid,
        relays: &mut RelayTable,
        id: ConnectionId,
    ) -> Result<ClosePlan, ConnError> {
        let conn = self.conns.get_mut(&id).ok_or(ConnError::Unknown(id))?;
        if conn.state != ConnState::Open {
            return Err(ConnError::BadState(id, conn.state));
        }
        let hops = conn.hops();
        let path = conn.path(grid);

        let local_writes = vec![
            ProgWrite::ClearUnlock {
                buffer: GsBufferRef::Net {
                    dir: conn.dirs[0],
                    vc: conn.vcs[0],
                },
            },
            ProgWrite::ClearSteer {
                dir: conn.dirs[0],
                vc: conn.vcs[0],
            },
        ];

        let mut config_packets = Vec::new();
        let mut outstanding = Vec::new();
        for (i, &router) in path.iter().enumerate().take(hops + 1).skip(1) {
            let mut writes = Vec::new();
            let buffer = if i == hops {
                GsBufferRef::Local {
                    iface: conn.rx_iface,
                }
            } else {
                GsBufferRef::Net {
                    dir: conn.dirs[i],
                    vc: conn.vcs[i],
                }
            };
            writes.push(ProgWrite::ClearUnlock { buffer });
            if i < hops {
                writes.push(ProgWrite::ClearSteer {
                    dir: conn.dirs[i],
                    vc: conn.vcs[i],
                });
            }
            let token = self.next_token;
            self.next_token = self.next_token.wrapping_add(1).max(1);
            outstanding.push((token, i as u8));
            self.tokens.insert(token, id);
            let plan = AckPlan {
                token,
                return_header: ack_leg_header(grid, router, conn.src)?,
            };
            let payload = mango_core::prog::encode_payload(&writes, Some(plan));
            config_packets.push(build_segmented_packet(
                grid, relays, conn.src, router, &payload, true,
            )?);
        }

        conn.state = if outstanding.is_empty() {
            ConnState::Closed
        } else {
            ConnState::Closing
        };
        conn.outstanding = outstanding;
        let tx_iface = conn.tx_iface;
        if conn.state == ConnState::Closed {
            self.release(id, grid);
        }
        Ok(ClosePlan {
            id,
            local_writes,
            tx_iface,
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
        self.tokens
            .get(&token)
            .and_then(|id| self.conns.get(id))
            .map(|c| c.src)
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
        let conn = self.conns.get_mut(&id).expect("token maps to connection");
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
    pub fn quarantine_vc(&mut self, router: RouterId, dir: Direction, vc: VcId) {
        *self.vc_quarantined.entry((router, dir)).or_insert(0) |= 1 << vc.0;
    }

    /// Number of quarantined resources (hop VCs plus RX interfaces).
    /// Zero after a run means every teardown completed cleanly in-band.
    pub fn quarantined_count(&self) -> usize {
        self.vc_quarantined
            .values()
            .chain(self.rx_quarantined.values())
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
        let conn = self.conns.get(&id).ok_or(ConnError::Unknown(id))?;
        if conn.state == ConnState::Closed {
            return Ok(ForceClosePlan {
                id,
                local_writes: Vec::new(),
                tx_iface: None,
                released_hops: 0,
                quarantined_hops: 0,
            });
        }
        let prior = conn.state;
        let path = conn.path(grid);
        let hops = conn.hops();
        let dirs = conn.dirs.clone();
        let vcs = conn.vcs.clone();
        let (src, dst) = (conn.src, conn.dst);
        let (tx_iface, rx_iface) = (conn.tx_iface, conn.rx_iface);
        let outstanding = conn.outstanding.clone();

        // Late acks for dropped tokens must be ignored, not processed.
        for &(t, _) in &outstanding {
            self.tokens.remove(&t);
        }
        let unconfirmed: std::collections::HashSet<u8> =
            outstanding.iter().map(|&(_, i)| i).collect();

        // Hop i's steer/unlock entries live at router path[i]; its VC bit
        // is keyed (path[i], dirs[i]).
        let mut released = 0usize;
        let mut quarantined = 0usize;
        for i in 0..hops {
            let key = (path[i], dirs[i]);
            let bit = 1u16 << vcs[i].0;
            let used = self.vc_used.get_mut(&key).expect("allocated link mask");
            *used &= !bit;
            let clean = match prior {
                ConnState::Closing => !unconfirmed.contains(&(i as u8)),
                _ => i == 0,
            };
            if clean {
                released += 1;
            } else {
                *self.vc_quarantined.entry(key).or_insert(0) |= bit;
                quarantined += 1;
            }
        }

        // The TX interface is local to the source NA and always
        // reclaimable; the RX interface's unlock entry sits at the
        // destination and follows the same clean/quarantine rule.
        if let Some(mask) = self.tx_used.get_mut(&src) {
            *mask &= !(1 << tx_iface);
        }
        if let Some(mask) = self.rx_used.get_mut(&dst) {
            *mask &= !(1 << rx_iface);
        }
        let rx_clean = prior == ConnState::Closing && !unconfirmed.contains(&(hops as u8));
        if !rx_clean {
            *self.rx_quarantined.entry(dst).or_insert(0) |= 1 << rx_iface;
        }

        // A prior in-band close already wiped the source entries and
        // surrendered the TX binding; otherwise hand both to the caller.
        let (local_writes, unbind_tx) = if prior == ConnState::Closing {
            (Vec::new(), None)
        } else {
            (
                vec![
                    ProgWrite::ClearUnlock {
                        buffer: GsBufferRef::Net {
                            dir: dirs[0],
                            vc: vcs[0],
                        },
                    },
                    ProgWrite::ClearSteer {
                        dir: dirs[0],
                        vc: vcs[0],
                    },
                ],
                Some(tx_iface),
            )
        };

        let conn = self.conns.get_mut(&id).expect("record checked above");
        conn.state = ConnState::Closed;
        conn.closed_at = Some(now);
        conn.outstanding.clear();

        Ok(ForceClosePlan {
            id,
            local_writes,
            tx_iface: unbind_tx,
            released_hops: released,
            quarantined_hops: quarantined,
        })
    }

    fn release(&mut self, id: ConnectionId, grid: &Grid) {
        let conn = self.conns.get(&id).expect("releasing unknown connection");
        let path = conn.path(grid);
        for (i, &d) in conn.dirs.iter().enumerate() {
            let mask = self
                .vc_used
                .get_mut(&(path[i], d))
                .expect("allocated link mask");
            *mask &= !(1 << conn.vcs[i].0);
        }
        if let Some(mask) = self.tx_used.get_mut(&conn.src) {
            *mask &= !(1 << conn.tx_iface);
        }
        if let Some(mask) = self.rx_used.get_mut(&conn.dst) {
            *mask &= !(1 << conn.rx_iface);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Grid, ConnectionManager, RelayTable) {
        (
            Grid::new(4, 4),
            ConnectionManager::new(7, 4),
            RelayTable::new(),
        )
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
        let mut m = ConnectionManager::new(2, 4);
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
        m.quarantine_vc(src, Direction::East, VcId(0));
        let plan = m.open(&g, &mut rl, src, dst).unwrap();
        assert_eq!(
            m.get(plan.id).unwrap().vcs[0],
            VcId(1),
            "allocator must skip the quarantined VC 0"
        );
        // Quarantine shrinks the pool: with 2 VCs and one quarantined,
        // a second connection on the same link is refused.
        let mut m2 = ConnectionManager::new(2, 4);
        m2.quarantine_vc(src, Direction::East, VcId(1));
        m2.open(&g, &mut rl, src, dst).unwrap();
        assert_eq!(
            m2.open(&g, &mut rl, src, dst).unwrap_err(),
            ConnError::NoFreeVc(src, Direction::East)
        );
    }

    #[test]
    fn failed_open_reserves_nothing() {
        let (g, _, mut rl) = setup();
        let mut m = ConnectionManager::new(1, 4);
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
