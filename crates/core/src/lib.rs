//! The MANGO clockless NoC router (Bjerregaard & Sparsø, DATE 2005).
//!
//! MANGO (*Message-passing Asynchronous Network-on-chip providing
//! Guaranteed services through OCP interfaces*) is a clockless router that
//! provides connection-oriented **guaranteed services** (GS) over virtual
//! channels alongside connection-less **best-effort** (BE) source routing.
//! This crate implements the router architecture as a deterministic
//! event-driven model whose stage delays come from the calibrated timing
//! profile in [`mango_hw`]:
//!
//! * [`steer`] — the 5-bit steering format of the non-blocking switching
//!   module (Fig. 5: 3 split bits + 2 switch bits, stripped in stages);
//! * [`arena`] — share-based VC control (Fig. 6): unsharebox latches,
//!   output buffers and sharebox locks with one unlock wire per VC, for
//!   every GS buffer of a mesh in one network-owned slab;
//! * [`arb`] — pluggable link-access arbiters (Sec. 4.4): fair-share,
//!   static-priority and an ALG-inspired bounded-age policy;
//! * [`be_arena`] + [`packet`] — the BE router (Fig. 7): source routing
//!   by header rotation, fair input arbitration with packet coherency,
//!   and credit-based flow control;
//! * [`table`] + [`prog`] — the connection table and the BE-packet
//!   programming interface that sets up GS connections (Sec. 3);
//! * [`router`] — the full router assembly (Fig. 8).
//!
//! # Example
//!
//! Program a one-hop pass-through and push a flit through it:
//!
//! ```
//! use mango_core::{
//!     Direction, Flit, GsBufferRef, LinkFlit, ProgWrite, Router, RouterConfig, RouterId,
//!     RouterAction, Steer, UpstreamRef, VcId,
//! };
//! use mango_sim::SimTime;
//!
//! let (mut router, mut bufs, mut be) =
//!     Router::standalone(RouterId::new(0, 0), RouterConfig::paper());
//! router.program(&[
//!     ProgWrite::SetSteer {
//!         dir: Direction::East,
//!         vc: VcId(0),
//!         steer: Steer::LocalGs { iface: 0 },
//!     },
//!     ProgWrite::SetUnlock {
//!         buffer: GsBufferRef::Net { dir: Direction::East, vc: VcId(0) },
//!         upstream: UpstreamRef::Link { in_dir: Direction::West, wire: VcId(0) },
//!     },
//! ]);
//! let mut actions = Vec::new();
//! router.on_link_flit(
//!     &mut bufs,
//!     &mut be,
//!     SimTime::ZERO,
//!     Direction::West,
//!     LinkFlit {
//!         steer: Steer::GsBuffer { dir: Direction::East, vc: VcId(0) },
//!         flit: Flit::gs(0xCAFE),
//!     },
//!     &mut actions,
//! );
//! assert!(matches!(actions[0], RouterAction::Internal { .. }));
//! ```

#![warn(missing_docs)]

pub mod arb;
pub mod arena;
pub mod be;
pub mod be_arena;
pub mod config;
pub mod events;
pub mod flit;
pub mod ids;
pub mod packet;
pub mod prog;
pub mod router;
pub mod stats;
pub mod steer;
pub mod table;

// Test-only oracles: the per-buffer reference twin of the GS arena's
// slots and the bounded FIFO the reference twins buffer in.
#[cfg(test)]
mod fifo;
#[cfg(test)]
mod vc;

pub use arb::{ArbiterImpl, ArbiterKind, LinkSlot};
pub use arena::{GsArena, RouterSlots};
pub use be::BeInput;
pub use be_arena::{BeArena, BeSlots};
pub use config::{RouterConfig, BE_INPUT_DEPTH, BE_OUTPUT_DEPTH, NA_RX_DEPTH, PORT_VCS_MAX};
pub use events::{Handshake, InternalEvent, RouterAction};
pub use flit::{Flit, FlitMeta, LinkFlit};
pub use ids::{ConnectionId, Direction, GsBufferRef, Port, RouterId, UpstreamRef, VcId};
pub use packet::{
    build_be_packet, build_be_packet_into, BeDest, BeHeader, BeRouteError, MAX_BE_HOPS,
};
pub use prog::{AckPlan, ProgWrite};
pub use router::{source_hop_writes, Router};
pub use stats::RouterStats;
pub use steer::{Steer, SteerCodeError};
pub use table::{ConnectionTable, TableError};
