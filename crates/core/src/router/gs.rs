//! The guaranteed-service buffer path: arrival, unsharebox→buffer
//! advance, upstream unlock propagation, and local delivery (Sec. 4.3).

use super::Router;
use crate::arena::GsArena;
use crate::events::{InternalEvent, RouterAction};
use crate::ids::{Direction, GsBufferRef, UpstreamRef, VcId};
use mango_sim::Slot;

impl Router {
    pub(super) fn check_vc(&self, dir: Direction, vc: VcId) {
        assert!(
            vc.index() < self.cfg.gs_vcs(),
            "{}: GS VC {vc} out of range on port {dir}",
            self.id
        );
    }

    pub(super) fn check_iface(&self, iface: u8) {
        assert!(
            (iface as usize) < self.cfg.local_gs_ifaces(),
            "{}: local GS interface {iface} out of range",
            self.id
        );
    }

    pub(super) fn gs_try_advance(
        &mut self,
        bufs: &mut GsArena,
        buffer: GsBufferRef,
        act: &mut Vec<RouterAction>,
    ) {
        let can = match buffer {
            GsBufferRef::Net { dir, vc } => {
                let slot = self.vc_slot(bufs, dir, vc);
                bufs.vc_can_advance(slot) && {
                    bufs.vc_begin_advance(slot);
                    true
                }
            }
            GsBufferRef::Local { iface } => {
                let slot = bufs.local_slot(self.slots, iface as usize);
                bufs.local_can_advance(slot) && {
                    bufs.local_begin_advance(slot);
                    true
                }
            }
        };
        if can {
            act.push(RouterAction::Internal {
                delay: self.cfg.timing.buffer_advance,
                event: InternalEvent::GsAdvance { buffer },
            });
        }
    }

    pub(super) fn gs_advance(
        &mut self,
        bufs: &mut GsArena,
        buffer: GsBufferRef,
        stamp: Slot,
        act: &mut Vec<RouterAction>,
    ) {
        match buffer {
            GsBufferRef::Net { dir, vc } => {
                bufs.vc_complete_advance(self.vc_slot(bufs, dir, vc));
                self.update_gs_ready(bufs, dir, vc, stamp, act);
            }
            GsBufferRef::Local { iface } => {
                bufs.local_complete_advance(bufs.local_slot(self.slots, iface as usize));
            }
        }
        // Leaving the unsharebox toggles the unlock wire one step back on
        // the connection (Sec. 4.3).
        let upstream = self.table.unlock(buffer).unwrap_or_else(|| {
            panic!(
                "{}: flit advanced on unprogrammed GS buffer {buffer} (missing unlock mapping)",
                self.id
            )
        });
        match upstream {
            UpstreamRef::Link { in_dir, wire } => act.push(RouterAction::SendUnlock {
                dir: in_dir,
                wire,
                delay: self.cfg.timing.unlock_path,
            }),
            UpstreamRef::Na { iface } => act.push(RouterAction::NaUnlock { iface }),
        }
        match buffer {
            GsBufferRef::Net { dir, .. } => self.kick_arb(dir, stamp, act),
            GsBufferRef::Local { iface } => self.local_try_deliver(bufs, iface, act),
        }
    }

    pub(super) fn local_try_deliver(
        &mut self,
        bufs: &mut GsArena,
        iface: u8,
        act: &mut Vec<RouterAction>,
    ) {
        let slot = bufs.local_slot(self.slots, iface as usize);
        while let Some(flit) = bufs.local_try_deliver(slot) {
            act.push(RouterAction::DeliverGs { iface, flit });
            self.gs_try_advance(bufs, GsBufferRef::Local { iface }, act);
        }
    }
}
