//! Output-link access (Sec. 4.4): incremental ready masks, arbitration
//! kicks and grants.
//!
//! The three lazily read levels — a VC's sharebox lock, a BE output's
//! credit count, the link's busy state — are read here and only here,
//! each after absorbing what was parked for it up to the current stamp;
//! and each reader that finds itself waiting on a parked handshake asks
//! for it as an event ([`RouterAction::Wake`]).

use super::Router;
use crate::arb::LinkSlot;
use crate::arena::GsArena;
use crate::be_arena::BeArena;
use crate::events::{Handshake, InternalEvent, RouterAction};
use crate::flit::LinkFlit;
use crate::ids::{Direction, GsBufferRef, VcId};
use crate::packet::BeDest;
use crate::steer::Steer;
use mango_sim::Slot;

impl Router {
    /// Re-derives the ready bit for GS VC `vc` on output `dir`; must run
    /// after every state transition that can change the VC's readiness
    /// (advance completion, grant, unlock). A flit found waiting behind
    /// a sharebox whose unlock toggle is parked wakes the toggle.
    #[inline]
    pub(super) fn update_gs_ready(
        &mut self,
        bufs: &mut GsArena,
        dir: Direction,
        vc: VcId,
        stamp: Slot,
        act: &mut Vec<RouterAction>,
    ) {
        let d = dir.index();
        let bit = 1u16 << vc.index();
        let slot = self.vc_slot(bufs, dir, vc);
        bufs.vc_absorb_unlock(slot, stamp);
        if bufs.vc_is_ready(slot) {
            self.ready[d] |= bit;
            return;
        }
        self.ready[d] &= !bit;
        if bufs.vc_len(slot) > 0 {
            if let Some(at) = bufs.vc_take_parked_unlock(slot) {
                let what = Handshake::Unlock { dir, wire: vc };
                act.push(RouterAction::Wake { at, what });
            }
        }
    }

    /// The ready mask as of `stamp` recomputed from scratch, parked
    /// handshakes counted from their slots on — the debug cross-check
    /// for the incremental mask (compiled out of release arbitration).
    pub(super) fn rederive_ready(
        &self,
        bufs: &GsArena,
        be: &BeArena,
        dir: Direction,
        stamp: Slot,
    ) -> u16 {
        let d = dir.index();
        let mut mask: u16 = 0;
        for vc in 0..self.cfg.gs_vcs() {
            if bufs.vc_is_ready_at(bufs.vc_slot(self.slots, d, vc), stamp) {
                mask |= 1 << vc;
            }
        }
        if be.out_link_ready_at(be.out_slot(self.be_slots, dir), stamp) {
            mask |= 1 << self.cfg.gs_vcs();
        }
        mask
    }

    /// Re-derives the BE ready bit on output `dir`; must run after every
    /// transition that can change the BE output's `link_ready` (stage
    /// push, grant, credit return). An output found blocked on credit
    /// wakes every credit parked for it.
    #[inline]
    pub(super) fn update_be_ready(
        &mut self,
        be: &mut BeArena,
        dir: Direction,
        stamp: Slot,
        act: &mut Vec<RouterAction>,
    ) {
        let d = dir.index();
        let bit = 1u16 << self.cfg.gs_vcs();
        let out = be.out_slot(self.be_slots, dir);
        be.out_absorb_credits(out, stamp);
        if be.out_link_ready(out) {
            self.ready[d] |= bit;
            return;
        }
        self.ready[d] &= !bit;
        if be.out_len(out) > 0 {
            while let Some(at) = be.out_take_parked(out) {
                let what = Handshake::Credit { dir };
                act.push(RouterAction::Wake { at, what });
            }
        }
    }

    /// A slot may have become ready: arrange for an arbitration decision
    /// if the link is idle. On a busy link the decision overlaps the
    /// link cycle — whose parked end must now fire as an event.
    pub(super) fn kick_arb(&mut self, dir: Direction, stamp: Slot, act: &mut Vec<RouterAction>) {
        let d = dir.index();
        if self.ready[d] == 0 || self.arb_pending[d] {
            return;
        }
        let free_at = self.free_at[d];
        if stamp < free_at {
            if free_at != Slot::NEVER {
                self.free_at[d] = Slot::NEVER;
                let what = Handshake::LinkFree { dir };
                act.push(RouterAction::Wake { at: free_at, what });
            }
            return;
        }
        self.arb_pending[d] = true;
        act.push(RouterAction::Internal {
            delay: self.cfg.timing.arb_decision,
            event: InternalEvent::ArbDecide { dir },
        });
    }

    pub(super) fn try_grant(
        &mut self,
        bufs: &mut GsArena,
        be: &mut BeArena,
        dir: Direction,
        stamp: Slot,
        act: &mut Vec<RouterAction>,
    ) {
        let d = dir.index();
        if stamp < self.free_at[d] {
            return;
        }
        let ready = self.ready[d];
        debug_assert_eq!(
            ready,
            self.rederive_ready(bufs, be, dir, stamp),
            "incremental ready mask out of sync on {dir}"
        );
        if ready == 0 {
            return;
        }
        let slot = self.arbiters[d].select_mask(ready as u128, self.cfg.gs_vcs());
        // Busy until the environment parks or delivers this `LinkFree`.
        self.free_at[d] = Slot::NEVER;
        act.push(RouterAction::Internal {
            delay: self.cfg.timing.link_cycle,
            event: InternalEvent::LinkFree { dir },
        });
        match slot {
            LinkSlot::Gs(vc) => {
                let steer = self.table.steer(dir, vc).unwrap_or_else(|| {
                    panic!(
                        "{}: grant on GS VC {dir}/{vc} without steering entry",
                        self.id
                    )
                });
                let flit = bufs.vc_grant(self.vc_slot(bufs, dir, vc));
                // The grant locked the sharebox: not ready, whatever is
                // buffered, until the unlock toggle this flit will earn.
                self.ready[d] &= !(1 << vc.index());
                self.stats.grants[d] += 1;
                act.push(RouterAction::SendFlit {
                    dir,
                    lf: LinkFlit { steer, flit },
                    delay: self.cfg.timing.hop_forward,
                });
                // The buffer slot just freed: a waiting unsharebox flit can
                // advance.
                self.gs_try_advance(bufs, GsBufferRef::Net { dir, vc }, act);
            }
            LinkSlot::Be => {
                let out = be.out_slot(self.be_slots, dir);
                let flit = be.out_pop(out).expect("BE slot ready implies staged flit");
                be.out_take_credit(out);
                self.update_be_ready(be, dir, stamp, act);
                self.stats.grants[d] += 1;
                act.push(RouterAction::SendFlit {
                    dir,
                    lf: LinkFlit {
                        steer: Steer::BeUnit,
                        flit,
                    },
                    delay: self.cfg.timing.hop_forward,
                });
                // Output stage drained: the input holding this output may
                // push its next flit.
                self.be_try_output(be, BeDest::Net(dir), act);
            }
        }
    }
}
