//! Flit (flow-control unit) formats.
//!
//! Section 5 of the paper defines the on-link format: after the 3 split
//! steering bits are stripped, 34 bits remain — 32 bits of flit data, one
//! control bit marking the last flit of a packet (EOP), and one spare bit
//! that can select one of two BE VCs. GS connections carry header-less
//! streams, so for GS flits the EOP/BE-VC bits are unused.
//!
//! The model's [`Flit`] is those bits in 8 bytes: the data word plus one
//! packed word holding the flag wires and a 29-bit *instrumentation
//! handle* (the `tag`). Experiments measure end-to-end latency and verify
//! in-order, loss-free delivery from a per-flit record — injection
//! timestamp, sequence number, flow id ([`FlitMeta`]) — but a flit is
//! copied on every hop (router action → network event → calendar-queue
//! entry → buffer slab) while its record is written once at injection and
//! read once at delivery. So the record does not travel: the network
//! layer keeps it in a side slab it owns (`mango_net::MetaSlab`),
//! allocates it where the flit enters the system, releases it where the
//! flit is delivered or dropped, and the flit carries only the slab
//! index. [`Flit::NO_TAG`] marks a flit nobody measures (programming
//! packets, acknowledgments, raw test traffic).
//!
//! The handle has zero hardware width, exactly as the record it replaced
//! had: nothing in this crate reads it except [`Flit::is_instrumented`]
//! for the conservation walk, no routing, arbitration or flow-control
//! decision depends on it, and it is never encoded into the 32 data bits.

use crate::steer::Steer;
use mango_sim::SimTime;
use std::fmt;

/// The instrumentation record of one measured flit (zero hardware
/// width). Lives in the network layer's side slab; the flit names it by
/// [`Flit::tag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitMeta {
    /// When the flit was injected at the source NA.
    injected_at: SimTime,
    /// Per-flow sequence number, for loss/reorder detection.
    seq: u64,
    /// Flow identifier (connection id or BE flow id); `u32::MAX` = unset.
    flow: u32,
}

impl FlitMeta {
    /// The record of a flit of `flow` injected at `injected_at` with
    /// per-flow sequence number `seq`.
    pub fn new(injected_at: SimTime, seq: u64, flow: u32) -> Self {
        FlitMeta {
            injected_at,
            seq,
            flow,
        }
    }

    /// A record with everything unset — what debug builds overwrite a
    /// released slab slot with, so a stale handle is caught.
    pub fn none() -> Self {
        FlitMeta::new(SimTime::ZERO, 0, u32::MAX)
    }

    /// When the flit was injected at the source NA.
    pub fn injected_at(&self) -> SimTime {
        self.injected_at
    }

    /// Per-flow sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Flow identifier; `u32::MAX` = unset.
    pub fn flow(&self) -> u32 {
        self.flow
    }
}

/// Packed-word layout: the low 29 bits are the instrumentation handle,
/// the top three the flag wires.
const TAG_MASK: u32 = (1 << 29) - 1;
const EOP: u32 = 1 << 29;
const BE_VC: u32 = 1 << 30;
const RELAY: u32 = 1 << 31;

/// A 34-bit flit as it exists after the split stage: 32 data bits + EOP +
/// BE-VC select, plus the model's relay wire and instrumentation handle
/// (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The 32 data bits.
    pub data: u32,
    /// Handle in the low 29 bits, `eop` / `be_vc` / `relay` above it.
    word: u32,
}

impl Flit {
    /// The handle of a flit without an instrumentation record.
    pub const NO_TAG: u32 = TAG_MASK;

    /// A GS stream flit carrying `data`.
    pub fn gs(data: u32) -> Self {
        Flit {
            data,
            word: Self::NO_TAG,
        }
    }

    /// A BE packet flit; `eop` marks the packet's last flit.
    pub fn be(data: u32, eop: bool) -> Self {
        Flit::gs(data).with_flag(EOP, eop)
    }

    #[inline]
    fn with_flag(mut self, flag: u32, set: bool) -> Self {
        if set {
            self.word |= flag;
        } else {
            self.word &= !flag;
        }
        self
    }

    /// Last flit of a BE packet (unused for GS streams).
    #[inline]
    pub fn eop(&self) -> bool {
        self.word & EOP != 0
    }

    /// BE VC select / config-packet marker (Sec. 5 leaves this bit free;
    /// we use it on BE headers to address the programming interface).
    #[inline]
    pub fn be_vc(&self) -> bool {
        self.word & BE_VC != 0
    }

    /// NA-relay continuation marker (a model-level spare wire, like
    /// `be_vc`): set only on the continuation word the network layer
    /// prefixes to relayed BE packets, so application payloads can never
    /// alias a relay ticket. No paper semantics.
    #[inline]
    pub fn relay(&self) -> bool {
        self.word & RELAY != 0
    }

    /// The instrumentation handle; [`Flit::NO_TAG`] = none.
    #[inline]
    pub fn tag(&self) -> u32 {
        self.word & TAG_MASK
    }

    /// True if the flit names an instrumentation record.
    #[inline]
    pub fn is_instrumented(&self) -> bool {
        self.tag() != Self::NO_TAG
    }

    /// Returns the flit naming instrumentation record `tag`
    /// ([`Flit::NO_TAG`] detaches it).
    #[inline]
    pub fn with_tag(mut self, tag: u32) -> Self {
        debug_assert!(tag <= TAG_MASK, "instrumentation handle exceeds 29 bits");
        self.word = (self.word & !TAG_MASK) | tag;
        self
    }

    /// Returns the flit with the BE-VC / config marker bit set.
    pub fn with_be_vc(self, set: bool) -> Self {
        self.with_flag(BE_VC, set)
    }

    /// Returns the flit with the NA-relay continuation marker set.
    pub fn with_relay(self, set: bool) -> Self {
        self.with_flag(RELAY, set)
    }
}

impl fmt::Debug for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Flit");
        s.field("data", &self.data)
            .field("eop", &self.eop())
            .field("be_vc", &self.be_vc())
            .field("relay", &self.relay());
        if self.is_instrumented() {
            s.field("tag", &self.tag());
        }
        s.finish()
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "0x{:08x}{}{}{}",
            self.data,
            if self.eop() { " EOP" } else { "" },
            if self.be_vc() { " BEVC" } else { "" },
            if self.relay() { " RELAY" } else { "" }
        )
    }
}

/// A flit on the physical link: the post-split flit plus the steering
/// field appended at link access (paper: 37 bits total for the 5×5/8-VC
/// router).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlit {
    /// Steering field guiding the flit through the next router's switch.
    pub steer: Steer,
    /// The flit itself.
    pub flit: Flit,
}

impl fmt::Display for LinkFlit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} -> {}]", self.flit, self.steer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Direction, VcId};

    #[test]
    fn constructors_set_flags() {
        let g = Flit::gs(0xdead_beef);
        assert_eq!(g.data, 0xdead_beef);
        assert!(!g.eop() && !g.be_vc() && !g.relay());

        let b = Flit::be(1, true);
        assert!(b.eop());
        assert!(!b.be_vc());
        assert!(Flit::be(1, false).with_be_vc(true).be_vc());
        assert!(Flit::be(1, false).with_relay(true).relay());
    }

    #[test]
    fn metadata_attaches_without_touching_data() {
        let f = Flit::be(7, true).with_tag(42);
        assert_eq!(f.data, 7);
        assert_eq!(f.tag(), 42);
        assert!(f.is_instrumented() && f.eop());
        assert_eq!(f.with_tag(Flit::NO_TAG), Flit::be(7, true));
    }

    #[test]
    fn default_meta_is_unset() {
        assert!(!Flit::gs(0).is_instrumented());
        assert!(!Flit::be(0, true).is_instrumented());
        assert_eq!(FlitMeta::none().flow(), u32::MAX);
    }

    /// The flit is copied on every hop — into each `RouterAction`, network
    /// event, calendar-queue entry and GS/BE/NA slab cell — so its size is
    /// what all of those pay: 4 bytes of data, 4 of flags + handle.
    #[test]
    fn flit_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Flit>(), 8);
        assert!(std::mem::size_of::<LinkFlit>() <= 12);
    }

    #[test]
    fn display_shows_flags() {
        assert_eq!(Flit::gs(0xff).to_string(), "0x000000ff");
        assert_eq!(Flit::be(0, true).to_string(), "0x00000000 EOP");
        assert_eq!(
            Flit::be(1, true)
                .with_be_vc(true)
                .with_relay(true)
                .with_tag(9)
                .to_string(),
            "0x00000001 EOP BEVC RELAY"
        );
        let lf = LinkFlit {
            steer: Steer::GsBuffer {
                dir: Direction::East,
                vc: VcId(2),
            },
            flit: Flit::gs(1),
        };
        assert!(lf.to_string().contains("E/vc2"));
    }
}
