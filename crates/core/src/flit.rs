//! Flit (flow-control unit) formats.
//!
//! Section 5 of the paper defines the on-link format: after the 3 split
//! steering bits are stripped, 34 bits remain — 32 bits of flit data, one
//! control bit marking the last flit of a packet (EOP), and one spare bit
//! that can select one of two BE VCs. GS connections carry header-less
//! streams, so for GS flits the EOP/BE-VC bits are unused.
//!
//! The simulator additionally carries *instrumentation metadata* on each
//! flit (injection timestamp, sequence number, flow id). This metadata has
//! zero hardware width — it exists so experiments can measure end-to-end
//! latency and verify in-order, loss-free delivery without encoding
//! side-channel information into the 32 data bits.

use crate::steer::Steer;
use mango_sim::SimTime;
use std::fmt;

/// Instrumentation attached to a flit by the simulator (zero hardware
/// width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlitMeta {
    /// When the flit was injected at the source NA.
    injected_at: SimTime,
    /// Per-flow sequence number, for loss/reorder detection.
    seq: u64,
    /// Flow identifier (connection id or BE flow id); `u32::MAX` = unset.
    flow: u32,
}

impl FlitMeta {
    /// Metadata with everything unset.
    pub fn none() -> Self {
        FlitMeta {
            injected_at: SimTime::ZERO,
            seq: 0,
            flow: u32::MAX,
        }
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

/// A 34-bit flit as it exists after the split stage: 32 data bits + EOP +
/// BE-VC select, plus simulator metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The 32 data bits.
    pub data: u32,
    /// Last flit of a BE packet (unused for GS streams).
    pub eop: bool,
    /// BE VC select / config-packet marker (Sec. 5 leaves this bit free;
    /// we use it on BE headers to address the programming interface).
    pub be_vc: bool,
    /// NA-relay continuation marker (a model-level spare wire, like
    /// `be_vc`): set only on the continuation word the network layer
    /// prefixes to relayed BE packets, so application payloads can never
    /// alias a relay ticket. No paper semantics.
    pub relay: bool,
    /// Simulator instrumentation (zero hardware width).
    pub meta: FlitMeta,
}

impl Flit {
    /// A GS stream flit carrying `data`.
    pub fn gs(data: u32) -> Self {
        Flit {
            data,
            eop: false,
            be_vc: false,
            relay: false,
            meta: FlitMeta::none(),
        }
    }

    /// A BE packet flit; `eop` marks the packet's last flit.
    pub fn be(data: u32, eop: bool) -> Self {
        Flit {
            data,
            eop,
            be_vc: false,
            relay: false,
            meta: FlitMeta::none(),
        }
    }

    /// Returns the flit with instrumentation metadata attached.
    pub fn with_meta(mut self, injected_at: SimTime, seq: u64, flow: u32) -> Self {
        self.meta = FlitMeta {
            injected_at,
            seq,
            flow,
        };
        self
    }

    /// When the flit was injected at the source NA.
    pub fn injected_at(&self) -> SimTime {
        self.meta.injected_at()
    }

    /// Per-flow sequence number.
    pub fn seq(&self) -> u64 {
        self.meta.seq()
    }

    /// Flow identifier; `u32::MAX` = unset.
    pub fn flow(&self) -> u32 {
        self.meta.flow()
    }

    /// Returns the flit with the BE-VC / config marker bit set.
    pub fn with_be_vc(mut self, set: bool) -> Self {
        self.be_vc = set;
        self
    }

    /// Returns the flit with the NA-relay continuation marker set.
    pub fn with_relay(mut self, set: bool) -> Self {
        self.relay = set;
        self
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "0x{:08x}{}{}",
            self.data,
            if self.eop { " EOP" } else { "" },
            if self.be_vc { " BEVC" } else { "" }
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
        assert!(!g.eop && !g.be_vc);

        let b = Flit::be(1, true);
        assert!(b.eop);
        assert!(!b.be_vc);
        assert!(Flit::be(1, false).with_be_vc(true).be_vc);
    }

    #[test]
    fn metadata_attaches_without_touching_data() {
        let f = Flit::gs(7).with_meta(SimTime::from_ns(5), 42, 3);
        assert_eq!(f.data, 7);
        assert_eq!(f.injected_at(), SimTime::from_ns(5));
        assert_eq!(f.seq(), 42);
        assert_eq!(f.flow(), 3);
    }

    #[test]
    fn default_meta_is_unset() {
        assert_eq!(Flit::gs(0).flow(), u32::MAX);
    }

    /// 8 bytes of hardware content plus 24 of instrumentation: the size
    /// every queue-entry and slab copy pays.
    #[test]
    fn flit_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Flit>(), 32);
    }

    #[test]
    fn display_shows_flags() {
        assert_eq!(Flit::gs(0xff).to_string(), "0x000000ff");
        assert_eq!(Flit::be(0, true).to_string(), "0x00000000 EOP");
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
