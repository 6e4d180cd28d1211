//! The BE-packet programming interface (Sec. 3): consuming received
//! configuration payloads, emitting acknowledgments, and the helpers the
//! connection layer uses.

use super::Router;
use crate::be_arena::BeArena;
use crate::events::RouterAction;
use crate::flit::Flit;
use crate::ids::{Direction, GsBufferRef, UpstreamRef, VcId};
use crate::packet::build_be_packet;
use crate::prog::{self, ProgWrite};
use mango_sim::SimTime;

impl Router {
    /// Applies programming writes directly (the local NA drives the
    /// programming interface without network transit — it is an extension
    /// of the local port).
    ///
    /// # Panics
    ///
    /// Panics on table violations: local programming is under the
    /// caller's control, so a violation is a caller bug.
    pub fn program(&mut self, writes: &[ProgWrite]) {
        for w in writes {
            w.apply(&mut self.table)
                .unwrap_or_else(|e| panic!("programming error at {}: {e}", self.id));
        }
    }

    /// Applies a received configuration payload and emits the requested
    /// acknowledgment packet.
    pub(super) fn prog_consume(
        &mut self,
        be: &mut BeArena,
        words: &[u32],
        act: &mut Vec<RouterAction>,
    ) {
        self.stats.prog_packets += 1;
        match prog::decode_payload(words) {
            Ok((writes, ack)) => {
                for w in writes {
                    if w.apply(&mut self.table).is_err() {
                        self.stats.prog_errors += 1;
                    }
                }
                if let Some(plan) = ack {
                    let flits =
                        build_be_packet(plan.return_header, &[prog::ack_word(plan.token)], false);
                    self.prog_tx.extend(flits);
                    self.prog_pump(be, act);
                }
            }
            Err(_) => self.stats.prog_errors += 1,
        }
    }

    /// Test/tool access to apply a programming payload as if it had
    /// arrived in a config packet.
    pub fn prog_inject(
        &mut self,
        be: &mut BeArena,
        _now: SimTime,
        words: &[u32],
        act: &mut Vec<RouterAction>,
    ) {
        // `words` is the payload exactly as a config packet would deliver
        // it (route header already consumed by the BE path).
        self.prog_consume(be, words, act);
    }

    /// Moves staged acknowledgment flits into the BE unit's programming
    /// input while it has space. Called when acks are generated and when
    /// the Prog latch drains.
    pub(super) fn prog_pump(&mut self, be: &mut BeArena, act: &mut Vec<RouterAction>) {
        while !self.prog_tx.is_empty()
            && !be.in_is_full(be.in_slot(self.be_slots, crate::be::BeInput::Prog))
        {
            let flit: Flit = self.prog_tx.pop_front().expect("checked non-empty");
            self.be_arrive(be, crate::be::BeInput::Prog, flit, act);
        }
    }
}

/// One table write for the first hop of a connection originating at this
/// router: helper used by the connection manager.
pub fn source_hop_writes(first_dir: Direction, first_vc: VcId, na_iface: u8) -> Vec<ProgWrite> {
    vec![ProgWrite::SetUnlock {
        buffer: GsBufferRef::Net {
            dir: first_dir,
            vc: first_vc,
        },
        upstream: UpstreamRef::Na { iface: na_iface },
    }]
}
