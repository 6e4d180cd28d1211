//! Events and actions at the router boundary.
//!
//! The router is a passive state machine: the environment (the network
//! layer, or a test) calls its `on_*` methods and collects the
//! [`RouterAction`]s each call produces. Actions either request that an
//! [`InternalEvent`] be delivered back to the same router after a delay, or
//! describe an output (a flit on a link, an unlock toggle, a credit, a
//! local delivery). All delays are computed by the router from its timing
//! profile so the environment stays timing-agnostic.
//!
//! Three of those events are *handshakes* — the end of a link cycle, an
//! unlock toggle, a BE credit ([`Handshake`]): levels that cost the
//! hardware nothing while nobody waits on them. An environment may
//! reserve such an event's slot in the event order and park it at the
//! receiving router (`Router::park_*`) instead of queueing it; the router
//! then asks for the event with [`RouterAction::Wake`] only once somebody
//! does wait. One that is delivered as an ordinary event instead behaves
//! exactly as before.

use crate::be::BeInput;
use crate::flit::{Flit, LinkFlit};
use crate::ids::{Direction, GsBufferRef, VcId};
use crate::packet::BeDest;
use mango_sim::{SimDuration, Slot};

/// A deferred event the router asks to receive back after a delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternalEvent {
    /// Unsharebox → buffer latch advance completed for a GS buffer.
    GsAdvance {
        /// The buffer that advances.
        buffer: GsBufferRef,
    },
    /// Output link `dir` completes its cycle and can grant again.
    LinkFree {
        /// The output port.
        dir: Direction,
    },
    /// Idle-link arbitration decision delay elapsed.
    ArbDecide {
        /// The output port.
        dir: Direction,
    },
    /// BE route decode + header rotation finished for an input.
    BeRouted {
        /// The BE input.
        input: BeInput,
    },
    /// A BE flit finished moving from an input latch to an output stage.
    BeMoved {
        /// The BE input it came from.
        input: BeInput,
        /// Where it goes.
        dest: BeDest,
        /// The flit itself.
        flit: Flit,
    },
}

/// An event whose slot may be parked at its receiver instead of queued:
/// it changes a level, and only matters once somebody waits on that
/// level. All directions name the *receiving* router's output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handshake {
    /// [`InternalEvent::LinkFree`] on output `dir`.
    LinkFree {
        /// The output port.
        dir: Direction,
    },
    /// The unlock toggle of VC `wire` arriving on output `dir`.
    Unlock {
        /// The output port.
        dir: Direction,
        /// The VC whose sharebox opens.
        wire: VcId,
    },
    /// A BE credit arriving on output `dir`.
    Credit {
        /// The output port.
        dir: Direction,
    },
}

/// An output or deferral produced by a router call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterAction {
    /// Deliver `event` back to this router after `delay`.
    Internal {
        /// Delay before redelivery.
        delay: SimDuration,
        /// The event to deliver.
        event: InternalEvent,
    },
    /// A flit leaves on output port `dir`; it arrives at the neighbor's
    /// input (already through its split/switch, in the target unsharebox)
    /// after `delay`.
    SendFlit {
        /// Output port.
        dir: Direction,
        /// The flit with its steering field.
        lf: LinkFlit,
        /// Forward latency to the neighbor's unsharebox.
        delay: SimDuration,
    },
    /// Toggle unlock wire `wire` on the link at input port `dir` (to the
    /// upstream neighbor's output port sharebox).
    SendUnlock {
        /// Input port whose link carries the wire.
        dir: Direction,
        /// Wire index = upstream VC index.
        wire: VcId,
        /// Propagation delay.
        delay: SimDuration,
    },
    /// Return one BE credit to the upstream neighbor on input port `dir`.
    SendCredit {
        /// Input port whose link carries the credit wire.
        dir: Direction,
        /// Propagation delay.
        delay: SimDuration,
    },
    /// Deliver a GS flit to the local NA on interface `iface`.
    DeliverGs {
        /// Local GS interface.
        iface: u8,
        /// The delivered flit.
        flit: Flit,
    },
    /// Deliver a BE flit to the local NA.
    DeliverBe {
        /// The delivered flit.
        flit: Flit,
    },
    /// Unlock the local NA's GS TX interface `iface` (the connection's
    /// first-hop sharebox sits in the NA).
    NaUnlock {
        /// NA transmit interface.
        iface: u8,
    },
    /// Return one BE credit to the local NA.
    NaCredit,
    /// Somebody now waits on a parked handshake: deliver it to this
    /// router as an event at its reserved slot `at`.
    Wake {
        /// The slot the handshake was parked with.
        at: Slot,
        /// Which handshake.
        what: Handshake,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_are_comparable_for_tests() {
        let a = RouterAction::NaCredit;
        assert_eq!(a, RouterAction::NaCredit);
        assert_ne!(a, RouterAction::NaUnlock { iface: 0 });
    }

    /// Every router call pushes its outputs into the network's action
    /// scratch and the network reads them back out: one write and one
    /// read of this size per action. `InternalEvent` is what a deferred
    /// `BeMoved` copies into the calendar queue.
    #[test]
    fn actions_stay_small() {
        assert!(std::mem::size_of::<RouterAction>() <= 24);
        assert!(std::mem::size_of::<InternalEvent>() <= 12);
    }
}
