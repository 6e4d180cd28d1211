//! The network adapter (NA).
//!
//! Each IP core connects to its router through an NA (Fig. 1). The NA
//! bridges the clocked core to the clockless network: it holds the
//! connection's first-hop steering bits and sharebox for GS transmission,
//! paces GS delivery back to the core (closing the end-to-end flow-control
//! chain), runs the credit counter for BE injection, and reassembles BE
//! packets. Synchronizer latency between the core's clock domain and the
//! network is modelled as a fixed crossing delay.

use mango_core::{Flit, Steer};
use mango_sim::SimDuration;
use std::collections::VecDeque;

/// NA configuration.
#[derive(Debug, Clone)]
pub struct NaConfig {
    /// Delay for the core to consume one delivered GS flit (0 = always
    /// ready). Slow consumers exercise end-to-end backpressure.
    pub consume_delay: SimDuration,
    /// Initial BE credits (the router's local BE input latch depth).
    pub be_credits: usize,
    /// Minimum gap between consecutive BE flit injections.
    pub be_inject_gap: SimDuration,
    /// Clock-domain crossing latency added to every injection. Zero by
    /// default: the NA's asynchronous FIFO takes the synchronizer off the
    /// per-flit critical path, so the crossing costs latency only when a
    /// flit *enters* an empty FIFO — which the default folds into the
    /// source model. Set nonzero for NA-sensitivity experiments where the
    /// synchronizer serializes injection.
    pub sync_delay: SimDuration,
}

impl NaConfig {
    /// Defaults matching the paper's router: 2 BE credits, an eager
    /// consumer, one link cycle of BE injection gap, and the synchronizer
    /// hidden behind the NA's async FIFO.
    pub fn paper() -> Self {
        NaConfig {
            consume_delay: SimDuration::ZERO,
            be_credits: 2,
            be_inject_gap: SimDuration::from_ps(1258),
            sync_delay: SimDuration::ZERO,
        }
    }
}

impl Default for NaConfig {
    fn default() -> Self {
        NaConfig::paper()
    }
}

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
    /// Queue occupancy high-watermark (source backpressure indicator).
    pub queue_high_watermark: usize,
}

impl GsTxIface {
    fn new(steer: Steer) -> Self {
        GsTxIface {
            steer,
            queue: VecDeque::new(),
            locked: false,
            queue_high_watermark: 0,
        }
    }
}

/// The network adapter state for one node.
#[derive(Debug, Clone)]
pub struct Na {
    cfg: NaConfig,
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
    pub fn new(gs_ifaces: usize, cfg: NaConfig) -> Self {
        Na {
            be_credits: cfg.be_credits,
            cfg,
            tx: vec![None; gs_ifaces],
            be_tx: VecDeque::new(),
            be_inject_pending: false,
            rx_asm: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NaConfig {
        &self.cfg
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
        tx.queue_high_watermark = tx.queue_high_watermark.max(tx.queue.len());
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

    /// Queue high-watermark of a bound TX interface.
    pub fn gs_queue_high_watermark(&self, iface: u8) -> usize {
        self.tx[iface as usize]
            .as_ref()
            .map_or(0, |t| t.queue_high_watermark)
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
        assert!(
            self.be_credits <= self.cfg.be_credits,
            "NA BE credit overflow"
        );
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

#[cfg(test)]
mod tests {
    use super::*;
    use mango_core::{Direction, VcId};

    fn na() -> Na {
        Na::new(4, NaConfig::paper())
    }

    fn steer() -> Steer {
        Steer::GsBuffer {
            dir: Direction::East,
            vc: VcId(0),
        }
    }

    #[test]
    fn gs_inject_locks_until_unlock() {
        let mut na = na();
        na.bind_tx(0, steer());
        assert!(na.enqueue_gs(0, Flit::gs(1)), "idle iface starts injection");
        assert!(!na.enqueue_gs(0, Flit::gs(2)), "locked: no second event");
        let (s, f) = na.take_gs(0);
        assert_eq!(s, steer());
        assert_eq!(f.data, 1);
        // Unlock: flit 2 can go.
        assert!(na.gs_unlocked(0));
        let (_, f2) = na.take_gs(0);
        assert_eq!(f2.data, 2);
        assert!(!na.gs_unlocked(0), "queue empty: nothing to schedule");
    }

    #[test]
    fn gs_queue_watermark_tracks_backpressure() {
        let mut na = na();
        na.bind_tx(1, steer());
        na.enqueue_gs(1, Flit::gs(1));
        na.enqueue_gs(1, Flit::gs(2));
        na.enqueue_gs(1, Flit::gs(3));
        assert_eq!(na.gs_queue_len(1), 3);
        assert_eq!(na.gs_queue_high_watermark(1), 3);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_rejected() {
        let mut na = na();
        na.bind_tx(0, steer());
        na.bind_tx(0, steer());
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn enqueue_on_unbound_iface_panics() {
        let mut na = na();
        na.enqueue_gs(2, Flit::gs(0));
    }

    #[test]
    fn unbind_requires_drained_iface() {
        let mut na = na();
        na.bind_tx(0, steer());
        na.unbind_tx(0);
        na.bind_tx(0, steer()); // rebinding works after unbind
    }

    #[test]
    #[should_panic(expected = "traffic in flight")]
    fn unbind_with_queued_flits_panics() {
        let mut na = na();
        na.bind_tx(0, steer());
        na.enqueue_gs(0, Flit::gs(1));
        na.unbind_tx(0);
    }

    #[test]
    fn be_injection_respects_credits() {
        let mut na = na();
        let flits = vec![Flit::be(1, false), Flit::be(2, false), Flit::be(3, true)];
        assert!(na.enqueue_be(flits));
        let (f1, more) = na.take_be();
        assert_eq!(f1.data, 1);
        assert!(more, "second credit available");
        let (_f2, more) = na.take_be();
        assert!(!more, "credits exhausted");
        assert_eq!(na.be_backlog(), 1);
        // Credit returns: third flit can go.
        assert!(na.be_credit());
        let (f3, more) = na.take_be();
        assert_eq!(f3.data, 3);
        assert!(!more);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn be_credit_overflow_detected() {
        let mut na = na();
        na.be_credit();
    }

    #[test]
    fn be_reassembly_returns_complete_packets() {
        let mut na = na();
        let mut pkt = Vec::new();
        assert!(!na.be_deliver(Flit::be(1, false), &mut pkt));
        assert!(!na.be_deliver(Flit::be(2, false), &mut pkt));
        assert!(na.be_deliver(Flit::be(3, true), &mut pkt), "EOP completes");
        assert_eq!(pkt.len(), 3);
        assert!(na.is_quiescent());
    }

    #[test]
    fn quiescence_tracks_all_queues() {
        let mut na = na();
        assert!(na.is_quiescent());
        na.bind_tx(0, steer());
        assert!(na.is_quiescent());
        na.enqueue_gs(0, Flit::gs(1));
        assert!(!na.is_quiescent());
        let _ = na.take_gs(0);
        assert!(!na.is_quiescent(), "still locked");
        na.gs_unlocked(0);
        assert!(na.is_quiescent());
        na.enqueue_be(vec![Flit::be(0, true)]);
        assert!(!na.is_quiescent());
    }
}
