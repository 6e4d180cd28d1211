//! The network adapter (NA).
//!
//! Each IP core connects to its router through an NA (Fig. 1). The NA
//! bridges the clocked core to the clockless network: it holds the
//! connection's first-hop steering bits and sharebox for GS transmission,
//! paces GS delivery back to the core (closing the end-to-end flow-control
//! chain), runs the credit counter for BE injection, and reassembles BE
//! packets. The synchronizer between the core's clock domain and the
//! network sits behind the NA's asynchronous FIFO, off the per-flit
//! critical path, so a crossing adds no latency to an injection.
//!
//! Every adapter's state lives in the network-owned
//! [`crate::na_arena::NaArena`]; this module holds their configuration.
//! An NA starts with one BE credit per slot of its router's local BE
//! input latch ([`mango_core::BE_INPUT_DEPTH`]).

use mango_sim::SimDuration;

/// Minimum gap between consecutive BE flit injections of one NA: one
/// link cycle of the paper's router at the typical corner. It is not
/// read from the router's timing, so a slower timing corner keeps the
/// same injection pace.
pub(crate) const BE_INJECT_GAP: SimDuration = SimDuration::from_ps(1258);

/// NA configuration.
#[derive(Debug, Clone)]
pub struct NaConfig {
    /// Delay for the core to consume one delivered GS flit (0 = always
    /// ready). Slow consumers exercise end-to-end backpressure.
    pub consume_delay: SimDuration,
}

impl NaConfig {
    /// The paper's NA: an eager consumer.
    pub fn paper() -> Self {
        NaConfig {
            consume_delay: SimDuration::ZERO,
        }
    }
}

impl Default for NaConfig {
    fn default() -> Self {
        NaConfig::paper()
    }
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::reference::Na;
    use mango_core::{Direction, Flit, Steer, VcId};

    fn na() -> Na {
        Na::new(4)
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
    fn gs_queue_holds_flits_behind_the_lock() {
        let mut na = na();
        na.bind_tx(1, steer());
        na.enqueue_gs(1, Flit::gs(1));
        na.enqueue_gs(1, Flit::gs(2));
        na.enqueue_gs(1, Flit::gs(3));
        assert_eq!(na.gs_queue_len(1), 3);
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
