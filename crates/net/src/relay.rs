//! NA-level relaying of BE packets beyond the 15-hop header capacity.
//!
//! The paper's BE source-routing header is one 32-bit rotating word: 15
//! link codes plus the final local-delivery code
//! ([`mango_core::MAX_BE_HOPS`]). On meshes up to 8×8 every XY route
//! fits; at 16×16 and beyond, cross-mesh routes do not — and neither BE
//! background traffic nor the GS *programming* packets (which are BE)
//! could reach far routers, capping every workload at the header radius.
//!
//! Rather than invent a wider header (the router hardware model stays
//! exactly the paper's), long routes are split into ≤15-link **segments
//! relayed at intermediate NAs**: the network layer addresses the packet
//! to the NA of the router 15 links along the XY route and prefixes the
//! payload with a continuation word naming a [`RelayTable`] ticket. When
//! that NA's node delivers the packet, the network recognizes the ticket,
//! rebuilds the packet for the next segment (handing each flit's
//! instrumentation handle on, so end-to-end latency accounting spans the
//! whole journey), and re-injects it — store-and-forward at the relay.
//! Each segment is XY-routed and relay queues consume unconditionally, so
//! the extension introduces no new channel-dependency cycles.
//!
//! Routes that fit a single header take the pre-relay fast path,
//! bit-identical to the original implementation.
//!
//! Acknowledgment packets (built *by routers* from a single
//! [`mango_core::AckPlan`] header word) cannot carry tickets; they hop
//! between NAs by truncation instead: the ack return header routes to the
//! farthest on-route NA within 15 links, where ack interception (which
//! already exists for final delivery) re-launches the ack toward the
//! connection source.
//!
//! The [`Network`] half — building a packet into a source NA, and taking
//! a delivered acknowledgment or continuation onward — is the
//! `impl Network` block at the end of this file.

use crate::network::{NetEvent, Network};
use crate::route::{route_avoiding, xy_len, xy_segment_header, RouteError};
use crate::topology::Grid;
use mango_core::{build_be_packet_into, prog, BeHeader, Flit, FlitMeta, RouterId, MAX_BE_HOPS};
use mango_sim::{Ctx, SimTime};

/// Magic prefix of a relay continuation word (`"RL"` in the top bytes);
/// the low 16 bits carry the ticket id. Continuation words are recognized
/// by the dedicated `relay` flit wire (set only by the segment builder,
/// so application payloads can never alias one); the magic + live-ticket
/// check is a secondary integrity guard.
const RELAY_MAGIC: u32 = 0x524C_0000;

/// Encodes a ticket as a continuation word.
#[inline]
pub fn relay_word(ticket: u16) -> u32 {
    RELAY_MAGIC | ticket as u32
}

/// Decodes a continuation word, if the magic matches.
#[inline]
pub fn parse_relay_word(word: u32) -> Option<u16> {
    (word & 0xFFFF_0000 == RELAY_MAGIC).then_some(word as u16)
}

/// The out-of-band state of one in-flight relayed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayTicket {
    /// Final destination router.
    pub dst: RouterId,
    /// Rebuild the final segment as a config packet (`be_vc` marker,
    /// addressed to the destination's programming interface).
    pub config: bool,
}

/// Registry of live relay tickets, owned by the network.
///
/// Tickets are issued when a long route's first segment is built and
/// consumed when the relay node forwards the packet (possibly issuing a
/// fresh ticket for the next segment). The registry holds only routing
/// facts — the payload itself always travels in the packet, so relaying
/// costs the honest number of flit-hops.
/// Ticket state is a flat slab plus a free list rather than a hash map:
/// the live set is small and ids dense (they start at 0 and recycle), so
/// `take` on the relay hot path is one bounds check and one indexed
/// load, and `issue` pops the free list in O(1) with no hashing.
#[derive(Debug, Default)]
pub struct RelayTable {
    /// Ticket slots, indexed by id; `None` = released or never issued.
    live: Vec<Option<RelayTicket>>,
    /// Released ids available for reuse (LIFO keeps the id range dense).
    free: Vec<u16>,
    in_flight: usize,
}

impl RelayTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a ticket for a packet ultimately bound for `dst`.
    ///
    /// Ids are 16-bit and reused after release (LIFO), so the slab stays
    /// as small as the peak number of tickets simultaneously in flight.
    ///
    /// # Panics
    ///
    /// Panics only if all 65 536 ids are simultaneously in flight.
    pub fn issue(&mut self, dst: RouterId, config: bool) -> u16 {
        let ticket = RelayTicket { dst, config };
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                assert!(
                    self.live.len() <= u16::MAX as usize,
                    "relay ticket id space exhausted in flight"
                );
                self.live.push(None);
                (self.live.len() - 1) as u16
            }
        };
        debug_assert!(self.live[id as usize].is_none());
        self.live[id as usize] = Some(ticket);
        self.in_flight += 1;
        id
    }

    /// Consumes a live ticket.
    pub fn take(&mut self, ticket: u16) -> Option<RelayTicket> {
        let slot = self.live.get_mut(ticket as usize)?;
        let t = slot.take()?;
        self.free.push(ticket);
        self.in_flight -= 1;
        Some(t)
    }

    /// Tickets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

/// Builds the flits of a BE packet from `src` to `dst` into `flits`
/// (cleared first), relaying through intermediate NAs when the route
/// exceeds the single-header capacity.
///
/// The route is the allocation-free XY route on a healthy grid and
/// [`route_avoiding`]'s on a faulted one (still XY when it survives).
/// Routes within [`MAX_BE_HOPS`] links produce exactly the packet the
/// pre-relay implementation produced. Longer routes produce the first
/// ≤15-link segment with a fresh ticket's continuation word prefixed to
/// the payload; the `config` marker is deferred to the final segment
/// (intermediate segments must reach relay *NAs*, not programming
/// interfaces). Detours are simple shortest paths, so any ≤15-link
/// prefix is a valid single-header segment.
///
/// # Errors
///
/// Propagates route-computation failures.
pub fn build_segmented_packet_into(
    grid: &Grid,
    relays: &mut RelayTable,
    src: RouterId,
    dst: RouterId,
    payload: &[u32],
    config: bool,
    flits: &mut Vec<Flit>,
) -> Result<(), RouteError> {
    let (header, links) = first_leg(grid, src, dst)?;
    if links <= MAX_BE_HOPS {
        build_be_packet_into(header, payload, config, flits);
        return Ok(());
    }
    let ticket = relays.issue(dst, config);
    flits.clear();
    flits.push(Flit::be(header.0, false));
    flits.push(Flit::be(relay_word(ticket), payload.is_empty()).with_relay(true));
    for (i, &word) in payload.iter().enumerate() {
        flits.push(Flit::be(word, i + 1 == payload.len()));
    }
    Ok(())
}

/// The header of the route from `src` to `dst` truncated to its first
/// ≤ [`MAX_BE_HOPS`] links, and the route's full length.
fn first_leg(grid: &Grid, src: RouterId, dst: RouterId) -> Result<(BeHeader, usize), RouteError> {
    if grid.all_links_up() {
        let links = xy_len(grid, src, dst)?;
        let header = xy_segment_header(grid, src, dst, links.min(MAX_BE_HOPS));
        return Ok((header, links));
    }
    let dirs = route_avoiding(grid, src, dst)?;
    let leg = &dirs[..dirs.len().min(MAX_BE_HOPS)];
    let header = BeHeader::from_route(leg).expect("a detour is simple and non-empty");
    Ok((header, dirs.len()))
}

/// [`build_segmented_packet_into`] returning a fresh `Vec` — the form the
/// connection manager uses for config packets.
///
/// # Errors
///
/// Propagates route-computation failures.
pub fn build_segmented_packet(
    grid: &Grid,
    relays: &mut RelayTable,
    src: RouterId,
    dst: RouterId,
    payload: &[u32],
    config: bool,
) -> Result<Vec<Flit>, RouteError> {
    let mut flits = Vec::new();
    build_segmented_packet_into(grid, relays, src, dst, payload, config, &mut flits)?;
    Ok(flits)
}

/// The header for an acknowledgment's next leg: the route from `src`
/// toward `dst`, truncated to the single-header capacity. The ack is
/// intercepted wherever it delivers and re-launched until it reaches
/// `dst`.
///
/// # Errors
///
/// Propagates route-computation failures.
pub fn ack_leg_header(grid: &Grid, src: RouterId, dst: RouterId) -> Result<BeHeader, RouteError> {
    first_leg(grid, src, dst).map(|(header, _)| header)
}

impl Network {
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
        if build_segmented_packet_into(
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
        self.queue_be(src, flits)
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

    /// Queues `flits` at `at`'s NA and hands the buffer back for reuse;
    /// `true` if the NA was idle, i.e. an injection must be scheduled.
    fn queue_be(&mut self, at: RouterId, flits: Vec<Flit>) -> bool {
        let idle = self
            .na
            .enqueue_be(self.grid.index(at), flits.iter().copied());
        self.flit_scratch = flits;
        idle
    }

    /// Takes a packet delivered at `id`'s NA onward if it is not a final
    /// delivery — an acknowledgment or a relay continuation; `false`
    /// leaves it to the caller. Neither kind is counted in the flow
    /// statistics or reaches an app.
    pub(crate) fn relayed_on(
        &mut self,
        id: RouterId,
        packet: &[Flit],
        ctx: &mut Ctx<NetEvent>,
    ) -> bool {
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
                        if let Some((conn, kind)) = self.conn.on_ack(token, &self.grid, ctx.now()) {
                            self.notify(conn, kind, ctx);
                        }
                    } else {
                        self.forward_ack(id, target, token, ctx);
                    }
                    // Acks carry no records, but an instrumented payload
                    // aliasing one would.
                    self.release_records(packet);
                    return true;
                }
            }
        }
        // Relay continuations: a packet bound beyond the header radius
        // delivered at this intermediate NA — rebuild the next segment
        // and re-inject. The `relay` flit wire is set only by the segment
        // builder, so an application payload can never alias a
        // continuation word.
        if packet.len() >= 2 && packet[1].relay() {
            let ticket = parse_relay_word(packet[1].data)
                .and_then(|t| self.relays.take(t))
                .expect("relay wire set on a word that is not a live continuation");
            self.forward_relay(id, ticket, packet, ctx);
            return true;
        }
        false
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
        let header = match ack_leg_header(&self.grid, from, target) {
            Ok(h) => h,
            Err(_) => {
                // No surviving route back to the source: the ack is lost
                // and the open/close will be resolved by its watchdog or
                // `OP_TIMEOUT` deadline instead of a process abort.
                self.counters.ack_route_drops += 1;
                return;
            }
        };
        let mut flits = std::mem::take(&mut self.flit_scratch);
        build_be_packet_into(header, &[prog::ack_word(token)], false, &mut flits);
        if self.queue_be(from, flits) {
            ctx.schedule(self.inject_delay(), NetEvent::NaBeInject { id: from });
        }
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
        let built = build_segmented_packet_into(
            &self.grid,
            &mut self.relays,
            from,
            ticket.dst,
            &payload,
            ticket.config,
            &mut flits,
        );
        self.payload_scratch = payload;
        if built.is_err() {
            // The fault set cut every remaining route: the relayed packet
            // is dropped here (its ticket was already consumed).
            self.counters.relay_route_drops += 1;
            self.release_records(packet);
            self.flit_scratch = flits;
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
            self.t9n_instant("hop", "relay", ctx.now(), from, None, hdr.tag());
        }
        if self.queue_be(from, flits) {
            ctx.schedule(self.inject_delay(), NetEvent::NaBeInject { id: from });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_word_round_trips() {
        for t in [0u16, 1, 0x1234, u16::MAX] {
            assert_eq!(parse_relay_word(relay_word(t)), Some(t));
        }
        assert_eq!(parse_relay_word(0xDEAD_BEEF), None);
        assert_eq!(parse_relay_word(0), None);
    }

    #[test]
    fn tickets_are_single_use() {
        let mut t = RelayTable::new();
        let dst = RouterId::new(3, 3);
        let id = t.issue(dst, true);
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.take(id), Some(RelayTicket { dst, config: true }));
        assert_eq!(t.take(id), None);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn short_routes_build_the_classic_packet() {
        let g = Grid::new(4, 4);
        let mut relays = RelayTable::new();
        let mut flits = Vec::new();
        build_segmented_packet_into(
            &g,
            &mut relays,
            RouterId::new(0, 0),
            RouterId::new(3, 3),
            &[7, 8],
            false,
            &mut flits,
        )
        .unwrap();
        let classic = mango_core::build_be_packet(
            crate::route::xy_header(&g, RouterId::new(0, 0), RouterId::new(3, 3)).unwrap(),
            &[7, 8],
            false,
        );
        assert_eq!(flits, classic, "fast path is bit-identical");
        assert_eq!(relays.in_flight(), 0, "no ticket issued");
    }

    #[test]
    fn long_routes_get_a_continuation_word() {
        let g = Grid::new(32, 1);
        let mut relays = RelayTable::new();
        let mut flits = Vec::new();
        build_segmented_packet_into(
            &g,
            &mut relays,
            RouterId::new(0, 0),
            RouterId::new(31, 0),
            &[1, 2, 3],
            true,
            &mut flits,
        )
        .unwrap();
        assert_eq!(relays.in_flight(), 1);
        assert_eq!(flits.len(), 5, "header + continuation + 3 payload");
        let ticket = parse_relay_word(flits[1].data).expect("continuation word");
        assert_eq!(
            relays.take(ticket),
            Some(RelayTicket {
                dst: RouterId::new(31, 0),
                config: true
            })
        );
        assert!(
            flits.iter().all(|f| !f.be_vc()),
            "config marker deferred to the final segment"
        );
        assert!(flits.last().unwrap().eop());
        assert!(flits[..4].iter().all(|f| !f.eop()));
    }

    #[test]
    fn faulted_mesh_builds_detour_packets() {
        let mut g = Grid::new(4, 2);
        g.fail_link(RouterId::new(1, 0), mango_core::Direction::East);
        let mut relays = RelayTable::new();
        let mut flits = Vec::new();
        build_segmented_packet_into(
            &g,
            &mut relays,
            RouterId::new(0, 0),
            RouterId::new(3, 0),
            &[9],
            false,
            &mut flits,
        )
        .unwrap();
        assert_eq!(relays.in_flight(), 0, "5-link detour fits one header");
        // Walk the header: it must end in a local delivery at (3,0)
        // without crossing the failed link.
        let mut header = BeHeader(flits[0].data);
        let mut cur = RouterId::new(0, 0);
        let mut from = None;
        loop {
            let (dest, next) = header.route(from);
            match dest {
                mango_core::BeDest::Net(dir) => {
                    assert!(g.link_up(cur, dir), "crossed dead link {cur}->{dir}");
                    from = Some(dir.opposite());
                    cur = g.neighbor(cur, dir).unwrap();
                    header = next;
                }
                mango_core::BeDest::Local => break,
            }
        }
        assert_eq!(cur, RouterId::new(3, 0));

        // A partitioned pair surfaces the typed error.
        let mut cut = Grid::new(2, 1);
        cut.fail_link(RouterId::new(0, 0), mango_core::Direction::East);
        let err = build_segmented_packet_into(
            &cut,
            &mut relays,
            RouterId::new(0, 0),
            RouterId::new(1, 0),
            &[],
            false,
            &mut flits,
        );
        assert!(matches!(err, Err(RouteError::Unreachable { .. })));
    }

    #[test]
    fn ack_leg_truncates_to_header_capacity() {
        let g = Grid::new(32, 1);
        // 31 links: the first leg covers 15 and delivers at (15,0).
        let h = ack_leg_header(&g, RouterId::new(31, 0), RouterId::new(0, 0)).unwrap();
        let mut header = h;
        let mut from = None;
        for _ in 0..MAX_BE_HOPS {
            let (dest, next) = header.route(from);
            assert_eq!(dest, mango_core::BeDest::Net(mango_core::Direction::West));
            header = next;
            from = Some(mango_core::Direction::East);
        }
        let (dest, _) = header.route(from);
        assert_eq!(dest, mango_core::BeDest::Local, "leg ends in a delivery");
        // A short remainder fits directly.
        let h = ack_leg_header(&g, RouterId::new(5, 0), RouterId::new(0, 0)).unwrap();
        let (dest, _) = h.route(None);
        assert_eq!(dest, mango_core::BeDest::Net(mango_core::Direction::West));
    }
}
