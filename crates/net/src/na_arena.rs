//! Network-owned struct-of-arrays storage for all NA hot state.
//!
//! A per-node adapter struct of queues and scalars scatters across the
//! heap at mesh scale, and every injection tick takes a cache miss per
//! node touched. The arena packs that state into parallel slabs owned
//! by the network, indexed `(node, iface)` for the GS transmit side and
//! `node` for the BE side, so the scheduler's hot loops walk dense
//! arrays exactly as they do for [`mango_core::GsArena`] and
//! [`mango_core::BeArena`].
//!
//! Layout (`I` = GS TX interfaces per node, uniform across the mesh):
//!
//! ```text
//! slot(node, iface) = node * I + iface
//!
//! GS TX slabs  tx_steer/tx_queue/tx_locked   [nodes * I]
//! BE TX slabs  be_tx/be_credits/be_pending   [nodes]
//! BE RX slab   rx_asm                        [nodes]
//! ```
//!
//! The per-node adapter survives as a test-only oracle
//! (`na::reference`): the arena is cross-checked against it op-for-op
//! under randomized traffic in this module's tests.

use mango_core::{Flit, Steer, BE_INPUT_DEPTH};
use std::collections::VecDeque;

/// Struct-of-arrays NA state for every node in the network.
#[derive(Debug, Clone)]
pub struct NaArena {
    ifaces: usize,
    nodes: usize,
    // -- GS transmit: one slot per (node, iface) -----------------------
    /// First-hop steering of the bound connection; `None` = unbound.
    tx_steer: Vec<Option<Steer>>,
    /// Flits waiting to enter the network.
    tx_queue: Vec<VecDeque<Flit>>,
    /// Sharebox mirror: a flit is in flight toward the first-hop buffer.
    tx_locked: Vec<bool>,
    // -- BE transmit: one slot per node --------------------------------
    /// BE transmit queue (flits of already-built packets, in order).
    be_tx: Vec<VecDeque<Flit>>,
    /// BE credits toward the router's local BE input latch.
    be_credits: Vec<u32>,
    /// A BE injection event is in flight.
    be_pending: Vec<bool>,
    // -- BE receive: one slot per node ---------------------------------
    /// BE packet reassembly buffer.
    rx_asm: Vec<Vec<Flit>>,
}

impl NaArena {
    /// Creates the arena for `nodes` adapters with `ifaces` GS TX
    /// interfaces each.
    pub fn new(ifaces: usize, nodes: usize) -> Self {
        let slots = nodes * ifaces;
        NaArena {
            ifaces,
            nodes,
            tx_steer: vec![None; slots],
            tx_queue: vec![VecDeque::new(); slots],
            tx_locked: vec![false; slots],
            be_tx: vec![VecDeque::new(); nodes],
            be_credits: vec![BE_INPUT_DEPTH as u32; nodes],
            be_pending: vec![false; nodes],
            rx_asm: vec![Vec::new(); nodes],
        }
    }

    /// GS TX interfaces per node.
    pub fn ifaces(&self) -> usize {
        self.ifaces
    }

    /// Number of adapters.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    #[inline]
    fn slot(&self, node: usize, iface: u8) -> usize {
        debug_assert!(node < self.nodes && (iface as usize) < self.ifaces);
        node * self.ifaces + iface as usize
    }

    // ------------------------------------------------------------------
    // GS transmit
    // ------------------------------------------------------------------

    /// Binds TX interface `iface` of `node` to a connection with the
    /// given first-hop steering.
    ///
    /// # Panics
    ///
    /// Panics if the interface is already bound.
    pub fn bind_tx(&mut self, node: usize, iface: u8, steer: Steer) {
        let s = self.slot(node, iface);
        assert!(
            self.tx_steer[s].is_none(),
            "GS TX iface {iface} already bound"
        );
        self.tx_steer[s] = Some(steer);
        self.tx_locked[s] = false;
    }

    /// Releases TX interface `iface` of `node` (connection teardown).
    ///
    /// # Panics
    ///
    /// Panics if the interface still holds queued flits.
    pub fn unbind_tx(&mut self, node: usize, iface: u8) {
        let s = self.slot(node, iface);
        assert!(self.tx_steer[s].is_some(), "unbinding unbound GS TX iface");
        assert!(
            self.tx_queue[s].is_empty() && !self.tx_locked[s],
            "unbinding GS TX iface {iface} with traffic in flight"
        );
        self.tx_steer[s] = None;
    }

    /// Releases TX interface `iface` unconditionally, discarding queued
    /// flits and the lock state — the forced-teardown path after a
    /// fault. Drains the discarded flits to the caller, which owes their
    /// instrumentation records a release (dropping the iterator still
    /// empties the queue). Yields nothing when already unbound (forced
    /// teardown must be idempotent).
    pub fn force_unbind_tx(&mut self, node: usize, iface: u8) -> impl Iterator<Item = Flit> + '_ {
        let s = self.slot(node, iface);
        self.tx_steer[s] = None;
        self.tx_locked[s] = false;
        // An unbound interface is unlocked and its queue empty.
        self.tx_queue[s].drain(..)
    }

    #[inline]
    fn assert_bound(&self, s: usize, iface: u8) {
        assert!(self.tx_steer[s].is_some(), "GS TX iface {iface} not bound");
    }

    /// Queues a GS flit. Returns `true` if the caller should schedule an
    /// injection event (the interface was idle).
    pub fn enqueue_gs(&mut self, node: usize, iface: u8, flit: Flit) -> bool {
        let s = self.slot(node, iface);
        self.assert_bound(s, iface);
        self.tx_queue[s].push_back(flit);
        self.start_gs_locked(s)
    }

    /// The first-hop sharebox opened (NaUnlock from the router). Returns
    /// `true` if the caller should schedule the next injection.
    pub fn gs_unlocked(&mut self, node: usize, iface: u8) -> bool {
        let s = self.slot(node, iface);
        self.assert_bound(s, iface);
        assert!(self.tx_locked[s], "NaUnlock for an unlocked GS TX iface");
        self.tx_locked[s] = false;
        self.start_gs_locked(s)
    }

    #[inline]
    fn start_gs_locked(&mut self, s: usize) -> bool {
        if !self.tx_locked[s] && !self.tx_queue[s].is_empty() {
            self.tx_locked[s] = true;
            true
        } else {
            false
        }
    }

    /// Pops the flit for a scheduled injection along with its steering.
    pub fn take_gs(&mut self, node: usize, iface: u8) -> (Steer, Flit) {
        let s = self.slot(node, iface);
        debug_assert!(self.tx_locked[s], "injection without lock");
        let flit = self.tx_queue[s]
            .pop_front()
            .expect("injection with empty queue");
        (self.tx_steer[s].expect("injection on unbound iface"), flit)
    }

    /// Queue depth of a TX interface (0 when unbound).
    pub fn gs_queue_len(&self, node: usize, iface: u8) -> usize {
        let s = self.slot(node, iface);
        if self.tx_steer[s].is_none() {
            0
        } else {
            self.tx_queue[s].len()
        }
    }

    // ------------------------------------------------------------------
    // BE transmit
    // ------------------------------------------------------------------

    /// Queues the flits of a BE packet. Returns `true` if the caller
    /// should schedule an injection event.
    pub fn enqueue_be(&mut self, node: usize, flits: impl IntoIterator<Item = Flit>) -> bool {
        self.be_tx[node].extend(flits);
        self.try_start_be(node)
    }

    /// A BE credit returned from the router. Returns `true` if the
    /// caller should schedule an injection event.
    pub fn be_credit(&mut self, node: usize) -> bool {
        self.be_credits[node] += 1;
        assert!(
            self.be_credits[node] as usize <= BE_INPUT_DEPTH,
            "NA BE credit overflow"
        );
        self.try_start_be(node)
    }

    #[inline]
    fn try_start_be(&mut self, node: usize) -> bool {
        if !self.be_pending[node] && self.be_credits[node] > 0 && !self.be_tx[node].is_empty() {
            self.be_pending[node] = true;
            true
        } else {
            false
        }
    }

    /// Pops the flit for a scheduled BE injection; returns the flit and
    /// whether another injection should be scheduled after the gap.
    pub fn take_be(&mut self, node: usize) -> (Flit, bool) {
        debug_assert!(self.be_pending[node]);
        self.be_pending[node] = false;
        let flit = self.be_tx[node]
            .pop_front()
            .expect("BE injection, empty queue");
        assert!(self.be_credits[node] > 0, "BE injection without credit");
        self.be_credits[node] -= 1;
        let more = self.try_start_be(node);
        (flit, more)
    }

    /// Pending BE flits not yet injected at `node`.
    pub fn be_backlog(&self, node: usize) -> usize {
        self.be_tx[node].len()
    }

    // ------------------------------------------------------------------
    // BE receive
    // ------------------------------------------------------------------

    /// Accepts a delivered BE flit. When its EOP flit completes a
    /// packet, copies the packet into `packet` (cleared first) and
    /// returns `true`.
    pub fn be_deliver(&mut self, node: usize, flit: Flit, packet: &mut Vec<Flit>) -> bool {
        self.rx_asm[node].push(flit);
        if flit.eop() {
            packet.clear();
            packet.extend_from_slice(&self.rx_asm[node]);
            self.rx_asm[node].clear();
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Telemetry / invariants
    // ------------------------------------------------------------------

    /// Total GS flits queued across all bound TX interfaces of `node`
    /// (telemetry sampler gauge).
    pub fn gs_queued_total(&self, node: usize) -> usize {
        let base = node * self.ifaces;
        (base..base + self.ifaces)
            .filter(|&s| self.tx_steer[s].is_some())
            .map(|s| self.tx_queue[s].len())
            .sum()
    }

    /// Instrumented flits held anywhere in `node`'s NA — one term of
    /// the flit-conservation walk.
    pub fn flow_flits(&self, node: usize) -> u64 {
        let flow = |f: &Flit| u64::from(f.is_instrumented());
        let base = node * self.ifaces;
        (base..base + self.ifaces)
            .filter(|&s| self.tx_steer[s].is_some())
            .flat_map(|s| self.tx_queue[s].iter())
            .map(flow)
            .sum::<u64>()
            + self.be_tx[node].iter().map(flow).sum::<u64>()
            + self.rx_asm[node].iter().map(flow).sum::<u64>()
    }

    /// True if nothing is queued or half-assembled in `node`'s NA.
    pub fn is_quiescent(&self, node: usize) -> bool {
        let base = node * self.ifaces;
        (base..base + self.ifaces).all(|s| self.tx_queue[s].is_empty() && !self.tx_locked[s])
            && self.be_tx[node].is_empty()
            && !self.be_pending[node]
            && self.rx_asm[node].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::na::reference::Na;
    use mango_core::{Direction, VcId};

    fn steer_for(i: u64) -> Steer {
        Steer::GsBuffer {
            dir: match i % 4 {
                0 => Direction::North,
                1 => Direction::East,
                2 => Direction::South,
                _ => Direction::West,
            },
            vc: VcId((i % 8) as u8),
        }
    }

    /// Gives about half the flits an instrumentation handle, so the
    /// `flow_flits` cross-check has something to count.
    fn maybe_tagged(f: Flit, r: u64) -> Flit {
        if r.is_multiple_of(2) {
            f.with_tag((r % 1000) as u32)
        } else {
            f
        }
    }

    /// Drives the slab and the retained per-node reference machines with
    /// an identical random op stream and compares every return value and
    /// observable after each op — same cross-check style the GS and BE
    /// arenas get in `mango_core`.
    #[test]
    fn arena_matches_reference_na() {
        const NODES: usize = 9;
        const IFACES: usize = 4;
        let mut arena = NaArena::new(IFACES, NODES);
        let mut refs: Vec<Na> = (0..NODES).map(|_| Na::new(IFACES)).collect();

        // Shadow preconditions the public API doesn't expose: per-iface
        // bound/locked, per-node inject-pending and credits.
        let mut bound = [[false; IFACES]; NODES];
        let mut locked = [[false; IFACES]; NODES];
        let mut qlen = [[0usize; IFACES]; NODES];
        let mut pending = [false; NODES];
        let mut credits = [BE_INPUT_DEPTH; NODES];
        let mut pkt_a = Vec::new();
        let mut pkt_r = Vec::new();

        let mut x: u64 = 0xBAD_5EED;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 11
        };

        for _ in 0..20_000 {
            let n = (rng() % NODES as u64) as usize;
            let i = (rng() % IFACES as u64) as u8;
            let iu = i as usize;
            match rng() % 10 {
                0 => {
                    if !bound[n][iu] {
                        let s = steer_for(rng());
                        arena.bind_tx(n, i, s);
                        refs[n].bind_tx(i, s);
                        bound[n][iu] = true;
                    }
                }
                1 => {
                    if bound[n][iu] && qlen[n][iu] == 0 && !locked[n][iu] {
                        arena.unbind_tx(n, i);
                        refs[n].unbind_tx(i);
                        bound[n][iu] = false;
                    }
                }
                2 => {
                    assert!(arena.force_unbind_tx(n, i).eq(refs[n].force_unbind_tx(i)));
                    bound[n][iu] = false;
                    locked[n][iu] = false;
                    qlen[n][iu] = 0;
                }
                3 => {
                    if bound[n][iu] {
                        let f = maybe_tagged(Flit::gs(rng() as u32), rng());
                        let started = arena.enqueue_gs(n, i, f);
                        assert_eq!(started, refs[n].enqueue_gs(i, f));
                        qlen[n][iu] += 1;
                        if started {
                            locked[n][iu] = true;
                        }
                    }
                }
                4 => {
                    if bound[n][iu] && locked[n][iu] && qlen[n][iu] > 0 {
                        assert_eq!(arena.take_gs(n, i), refs[n].take_gs(i));
                        qlen[n][iu] -= 1;
                    }
                }
                5 => {
                    if bound[n][iu] && locked[n][iu] {
                        let again = arena.gs_unlocked(n, i);
                        assert_eq!(again, refs[n].gs_unlocked(i));
                        locked[n][iu] = again;
                    }
                }
                6 => {
                    let len = rng() % 3 + 1;
                    let flits: Vec<Flit> = (0..len)
                        .map(|k| maybe_tagged(Flit::be(rng() as u32, k == len - 1), rng()))
                        .collect();
                    let started = arena.enqueue_be(n, flits.iter().copied());
                    assert_eq!(started, refs[n].enqueue_be(flits));
                    if started {
                        pending[n] = true;
                    }
                }
                7 => {
                    if credits[n] < BE_INPUT_DEPTH {
                        let started = arena.be_credit(n);
                        assert_eq!(started, refs[n].be_credit());
                        credits[n] += 1;
                        if started {
                            pending[n] = true;
                        }
                    }
                }
                8 => {
                    if pending[n] {
                        let (fa, ma) = arena.take_be(n);
                        let (fr, mr) = refs[n].take_be();
                        assert_eq!((fa, ma), (fr, mr));
                        credits[n] -= 1;
                        pending[n] = ma;
                    }
                }
                _ => {
                    let eop = rng() % 3 == 0;
                    let f = maybe_tagged(Flit::be(rng() as u32, eop), rng());
                    assert_eq!(
                        arena.be_deliver(n, f, &mut pkt_a),
                        refs[n].be_deliver(f, &mut pkt_r)
                    );
                    assert_eq!(pkt_a, pkt_r);
                }
            }
            // Observables after every op, across every node.
            for (m, r) in refs.iter().enumerate() {
                assert_eq!(arena.gs_queued_total(m), r.gs_queued_total());
                assert_eq!(arena.be_backlog(m), r.be_backlog());
                assert_eq!(arena.flow_flits(m), r.flow_flits());
                assert_eq!(arena.is_quiescent(m), r.is_quiescent());
                for j in 0..IFACES as u8 {
                    assert_eq!(arena.gs_queue_len(m, j), r.gs_queue_len(j));
                }
            }
        }
    }

    #[test]
    fn nodes_are_independent() {
        let mut a = NaArena::new(2, 3);
        a.bind_tx(1, 0, steer_for(1));
        a.enqueue_gs(1, 0, Flit::gs(7));
        a.enqueue_be(2, [Flit::be(1, true)]);
        assert!(a.is_quiescent(0));
        assert!(!a.is_quiescent(1));
        assert!(!a.is_quiescent(2));
        assert_eq!(a.gs_queued_total(0), 0);
        assert_eq!(a.gs_queued_total(1), 1);
        assert_eq!(a.be_backlog(2), 1);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_rejected() {
        let mut a = NaArena::new(2, 1);
        a.bind_tx(0, 0, steer_for(0));
        a.bind_tx(0, 0, steer_for(1));
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_detected() {
        let mut a = NaArena::new(2, 1);
        a.be_credit(0);
    }
}
