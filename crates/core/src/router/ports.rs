//! Output-link access (Sec. 4.4): incremental ready masks, arbitration
//! kicks and grants.

use super::Router;
use crate::arb::LinkSlot;
use crate::arena::GsArena;
use crate::be_arena::BeArena;
use crate::events::{InternalEvent, RouterAction};
use crate::flit::LinkFlit;
use crate::ids::{Direction, GsBufferRef, VcId};
use crate::packet::BeDest;
use crate::steer::Steer;

impl Router {
    /// Re-derives the ready bit for GS VC `vc` on output `dir`; must run
    /// after every state transition that can change the VC's readiness
    /// (advance completion, grant, unlock).
    #[inline]
    pub(super) fn update_gs_ready(&mut self, bufs: &GsArena, dir: Direction, vc: VcId) {
        let d = dir.index();
        let bit = 1u16 << vc.index();
        if bufs.vc_is_ready(self.vc_slot(bufs, dir, vc)) {
            self.ready[d] |= bit;
        } else {
            self.ready[d] &= !bit;
        }
    }

    /// The ready mask recomputed from scratch — the debug cross-check for
    /// the incremental mask (compiled out of release arbitration).
    pub(super) fn rederive_ready(&self, bufs: &GsArena, be: &BeArena, dir: Direction) -> u16 {
        let d = dir.index();
        let mut mask: u16 = 0;
        for vc in 0..self.cfg.gs_vcs() {
            if bufs.vc_is_ready(bufs.vc_slot(self.slots, d, vc)) {
                mask |= 1 << vc;
            }
        }
        if be.out_link_ready(be.out_slot(self.be_slots, dir)) {
            mask |= 1 << self.cfg.gs_vcs();
        }
        mask
    }

    /// Re-derives the BE ready bit on output `dir`; must run after every
    /// transition that can change the BE output's `link_ready` (stage
    /// push, grant, credit return).
    #[inline]
    pub(super) fn update_be_ready(&mut self, be: &BeArena, dir: Direction) {
        let d = dir.index();
        let bit = 1u16 << self.cfg.gs_vcs();
        if be.out_link_ready(be.out_slot(self.be_slots, dir)) {
            self.ready[d] |= bit;
        } else {
            self.ready[d] &= !bit;
        }
    }

    /// A slot may have become ready: arrange for an arbitration decision
    /// if the link is idle (the decision overlaps the link cycle when the
    /// link is busy).
    pub(super) fn kick_arb(&mut self, dir: Direction, act: &mut Vec<RouterAction>) {
        let d = dir.index();
        if self.link_busy[d] || self.arb_pending[d] {
            return;
        }
        if self.ready[d] == 0 {
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
        act: &mut Vec<RouterAction>,
    ) {
        let d = dir.index();
        if self.link_busy[d] {
            return;
        }
        let ready = self.ready[d];
        debug_assert_eq!(
            ready,
            self.rederive_ready(bufs, be, dir),
            "incremental ready mask out of sync on {dir}"
        );
        if ready == 0 {
            return;
        }
        let slot = self.arbiters[d].select_mask(ready as u128, self.cfg.gs_vcs());
        self.link_busy[d] = true;
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
                self.update_gs_ready(bufs, dir, vc);
                self.stats.gs_grants[d] += 1;
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
                self.update_be_ready(be, dir);
                self.stats.be_grants[d] += 1;
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
