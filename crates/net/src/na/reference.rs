//! The per-node reference network adapter: one struct of queues and
//! scalars per node.
//!
//! Test-only: the network runs on [`crate::na_arena::NaArena`], and
//! [`Na`] is the oracle the arena is cross-checked against op for op
//! (`na_arena`'s `arena_matches_reference_na`).

use mango_core::{Flit, Steer, BE_INPUT_DEPTH};
use std::collections::VecDeque;

/// One GS transmit interface: the first-hop sharebox and steering bits of
/// an open connection.
#[derive(Debug, Clone)]
pub struct GsTxIface {
    /// Steering for the connection's first-hop VC buffer.
    pub steer: Steer,
    /// Flits waiting to enter the network.
    pub queue: VecDeque<Flit>,
    /// Sharebox mirror: a flit is in flight toward the first-hop buffer.
    pub locked: bool,
}

impl GsTxIface {
    fn new(steer: Steer) -> Self {
        GsTxIface {
            steer,
            queue: VecDeque::new(),
            locked: false,
        }
    }
}

/// The network adapter state for one node.
#[derive(Debug, Clone)]
pub struct Na {
    /// GS TX interfaces (paper: 4), allocated per open connection.
    tx: Vec<Option<GsTxIface>>,
    /// BE transmit queue (flits of already-built packets, in order).
    be_tx: VecDeque<Flit>,
    /// BE credits toward the router's local BE input latch.
    be_credits: usize,
    /// A BE injection event is in flight.
    be_inject_pending: bool,
    /// BE packet reassembly buffer.
    rx_asm: Vec<Flit>,
}

impl Na {
    /// Creates an NA with `gs_ifaces` transmit interfaces.
    pub fn new(gs_ifaces: usize) -> Self {
        Na {
            be_credits: BE_INPUT_DEPTH,
            tx: vec![None; gs_ifaces],
            be_tx: VecDeque::new(),
            be_inject_pending: false,
            rx_asm: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // GS transmit
    // ------------------------------------------------------------------

    /// Binds TX interface `iface` to a connection with the given first-hop
    /// steering.
    ///
    /// # Panics
    ///
    /// Panics if the interface is already bound.
    pub fn bind_tx(&mut self, iface: u8, steer: Steer) {
        let slot = &mut self.tx[iface as usize];
        assert!(slot.is_none(), "GS TX iface {iface} already bound");
        *slot = Some(GsTxIface::new(steer));
    }

    /// Releases TX interface `iface` (connection teardown).
    ///
    /// # Panics
    ///
    /// Panics if the interface still holds queued flits.
    pub fn unbind_tx(&mut self, iface: u8) {
        let slot = &mut self.tx[iface as usize];
        let tx = slot.take().expect("unbinding unbound GS TX iface");
        assert!(
            tx.queue.is_empty() && !tx.locked,
            "unbinding GS TX iface {iface} with traffic in flight"
        );
    }

    /// Releases TX interface `iface` unconditionally, discarding any
    /// queued flits and the lock state — the forced-teardown path after
    /// a fault, when the first-hop sharebox may never unlock again.
    /// Returns the discarded flits (the caller owes their
    /// instrumentation records a release) — none when already unbound
    /// (forced teardown must be idempotent).
    pub fn force_unbind_tx(&mut self, iface: u8) -> VecDeque<Flit> {
        self.tx[iface as usize]
            .take()
            .map_or_else(VecDeque::new, |tx| tx.queue)
    }

    fn tx_mut(&mut self, iface: u8) -> &mut GsTxIface {
        self.tx[iface as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("GS TX iface {iface} not bound"))
    }

    /// Queues a GS flit on `iface`. Returns `true` if the caller should
    /// schedule an injection event (the interface was idle).
    pub fn enqueue_gs(&mut self, iface: u8, flit: Flit) -> bool {
        let tx = self.tx_mut(iface);
        tx.queue.push_back(flit);
        Self::start_gs_locked(tx)
    }

    /// The first-hop sharebox opened (NaUnlock from the router). Returns
    /// `true` if the caller should schedule the next injection.
    pub fn gs_unlocked(&mut self, iface: u8) -> bool {
        let tx = self.tx_mut(iface);
        assert!(tx.locked, "NaUnlock for an unlocked GS TX iface");
        tx.locked = false;
        Self::start_gs_locked(tx)
    }

    fn start_gs_locked(tx: &mut GsTxIface) -> bool {
        if !tx.locked && !tx.queue.is_empty() {
            tx.locked = true;
            true
        } else {
            false
        }
    }

    /// Pops the flit for a scheduled injection along with its steering.
    pub fn take_gs(&mut self, iface: u8) -> (Steer, Flit) {
        let tx = self.tx_mut(iface);
        debug_assert!(tx.locked, "injection without lock");
        let flit = tx.queue.pop_front().expect("injection with empty queue");
        (tx.steer, flit)
    }

    /// Queue depth of a bound TX interface.
    pub fn gs_queue_len(&self, iface: u8) -> usize {
        self.tx[iface as usize]
            .as_ref()
            .map_or(0, |t| t.queue.len())
    }

    // ------------------------------------------------------------------
    // BE transmit
    // ------------------------------------------------------------------

    /// Queues the flits of a BE packet. Returns `true` if the caller
    /// should schedule an injection event.
    pub fn enqueue_be(&mut self, flits: impl IntoIterator<Item = Flit>) -> bool {
        self.be_tx.extend(flits);
        self.try_start_be()
    }

    /// A BE credit returned from the router. Returns `true` if the caller
    /// should schedule an injection event.
    pub fn be_credit(&mut self) -> bool {
        self.be_credits += 1;
        assert!(self.be_credits <= BE_INPUT_DEPTH, "NA BE credit overflow");
        self.try_start_be()
    }

    fn try_start_be(&mut self) -> bool {
        if !self.be_inject_pending && self.be_credits > 0 && !self.be_tx.is_empty() {
            self.be_inject_pending = true;
            true
        } else {
            false
        }
    }

    /// Pops the flit for a scheduled BE injection; returns the flit and
    /// whether another injection should be scheduled after the gap.
    pub fn take_be(&mut self) -> (Flit, bool) {
        debug_assert!(self.be_inject_pending);
        self.be_inject_pending = false;
        let flit = self.be_tx.pop_front().expect("BE injection, empty queue");
        assert!(self.be_credits > 0, "BE injection without credit");
        self.be_credits -= 1;
        let more = self.try_start_be();
        (flit, more)
    }

    /// Pending BE flits not yet injected.
    pub fn be_backlog(&self) -> usize {
        self.be_tx.len()
    }

    // ------------------------------------------------------------------
    // BE receive
    // ------------------------------------------------------------------

    /// Accepts a delivered BE flit. When its EOP flit completes a packet,
    /// copies the packet into `packet` (cleared first) and returns `true`.
    /// The caller owns `packet` so the assembly buffer can be reused —
    /// this runs once per delivered flit.
    pub fn be_deliver(&mut self, flit: Flit, packet: &mut Vec<Flit>) -> bool {
        self.rx_asm.push(flit);
        if flit.eop() {
            packet.clear();
            packet.extend_from_slice(&self.rx_asm);
            self.rx_asm.clear();
            true
        } else {
            false
        }
    }

    /// Total GS flits queued across all bound TX interfaces (telemetry
    /// sampler gauge).
    pub fn gs_queued_total(&self) -> usize {
        self.tx.iter().flatten().map(|t| t.queue.len()).sum()
    }

    /// Instrumented flits held anywhere in this NA (GS TX queues, BE
    /// TX queue, BE reassembly buffer) — one term of the
    /// flit-conservation walk.
    pub fn flow_flits(&self) -> u64 {
        let flow = |f: &Flit| u64::from(f.is_instrumented());
        self.tx
            .iter()
            .flatten()
            .flat_map(|t| t.queue.iter())
            .map(flow)
            .sum::<u64>()
            + self.be_tx.iter().map(flow).sum::<u64>()
            + self.rx_asm.iter().map(flow).sum::<u64>()
    }

    /// True if nothing is queued or half-assembled in this NA.
    pub fn is_quiescent(&self) -> bool {
        self.tx
            .iter()
            .flatten()
            .all(|t| t.queue.is_empty() && !t.locked)
            && self.be_tx.is_empty()
            && !self.be_inject_pending
            && self.rx_asm.is_empty()
    }
}
