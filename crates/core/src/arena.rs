//! Network-owned flat storage for GS buffer state — struct-of-arrays
//! arenas indexed by `(router, dir, vc)`.
//!
//! One struct per GS buffer, each with its own heap-allocated FIFO,
//! scatters an N-router mesh's per-flit hot state over `N × (4·V + I)`
//! small allocations. At 16×16 and beyond, almost every flit event then
//! starts with a pointer chase into a cold cache line.
//!
//! [`GsArena`] keeps all of it in one slab per field (unshare latches,
//! state flags, ring cursors, buffered flits), owned by the *network*
//! and shared by all routers. A router holds only two base indices
//! ([`RouterSlots`]); every `Router::on_*` call receives `&mut GsArena`
//! from the network and addresses its slots by offset arithmetic. The
//! one-struct-per-buffer state machines survive as a test-only oracle
//! (the crate's `vc` module), and the arena is tested
//! operation-for-operation against them.
//!
//! # Layout
//!
//! Network VC slots are router-major, then direction, then VC:
//! `slot = router_base + dir·gs_vcs + vc`. Local GS interface slots are
//! router-major, then interface. Buffered flits live in one flit slab at
//! `slot·depth .. (slot+1)·depth`, used as a ring via per-slot `head`
//! and `len` cursors (the paper's depth is 1, so the ring degenerates to
//! a single cell).
//!
//! # Parked unlock toggles
//!
//! One thing the reference types do not have: next to its `LOCKED` flag
//! every network VC holds the slot of an unlock toggle that is on its
//! way but was never queued as an event ([`GsArena::vc_park_unlock`];
//! [`Slot::NEVER`] when there is none). Whoever reads the lock first
//! absorbs a toggle whose slot has passed
//! ([`GsArena::vc_absorb_unlock`]) — after which the state is exactly
//! what the queued event would have left.

use crate::config::NA_RX_DEPTH;
use crate::flit::Flit;
use mango_sim::Slot;

// The NA's free delivery slots are a non-empty `u8` count.
const _: () = assert!(NA_RX_DEPTH > 0 && NA_RX_DEPTH < 256);

/// Per-VC state flags (bit set = condition holds).
const LOCKED: u8 = 1 << 0;
const ADVANCE: u8 = 1 << 1;

/// The arena base indices of one router's GS buffers, returned by
/// [`GsArena::add_router`] and stored inside the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterSlots {
    /// First network-VC slot (the router owns `4 × gs_vcs` from here).
    pub vc_base: u32,
    /// First local-interface slot (the router owns `ifaces` from here).
    pub local_base: u32,
}

/// Flat struct-of-arrays storage for every GS VC buffer and local GS
/// interface buffer of a mesh. See the module docs for the layout.
#[derive(Clone)]
pub struct GsArena {
    gs_vcs: usize,
    ifaces: usize,
    depth: usize,
    routers: usize,

    // ---- network VC slots: routers × 4 × gs_vcs ----
    vc_unshare: Vec<Option<Flit>>,
    vc_flags: Vec<u8>,
    vc_head: Vec<u8>,
    vc_len: Vec<u8>,
    vc_flits: Vec<Flit>,
    /// The parked unlock toggle of a locked VC ([`Slot::NEVER`]: none).
    vc_unlock_at: Vec<Slot>,

    // ---- local GS interface slots: routers × ifaces ----
    lo_unshare: Vec<Option<Flit>>,
    lo_advance: Vec<bool>,
    lo_head: Vec<u8>,
    lo_len: Vec<u8>,
    lo_na_free: Vec<u8>,
    lo_flits: Vec<Flit>,
}

impl std::fmt::Debug for GsArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GsArena")
            .field("routers", &self.routers)
            .field("gs_vcs", &self.gs_vcs)
            .field("ifaces", &self.ifaces)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

impl GsArena {
    /// An empty arena for routers with `gs_vcs` VCs per network port,
    /// `ifaces` local GS interfaces, `depth`-flit output buffers and
    /// [`NA_RX_DEPTH`] NA delivery slots per interface.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the `u8` ring cursors or is zero.
    pub fn new(gs_vcs: usize, ifaces: usize, depth: usize) -> Self {
        assert!(depth > 0, "GS buffers need at least one flit of depth");
        assert!(depth < 256, "arena cursors are u8");
        GsArena {
            gs_vcs,
            ifaces,
            depth,
            routers: 0,
            vc_unshare: Vec::new(),
            vc_flags: Vec::new(),
            vc_head: Vec::new(),
            vc_len: Vec::new(),
            vc_flits: Vec::new(),
            vc_unlock_at: Vec::new(),
            lo_unshare: Vec::new(),
            lo_advance: Vec::new(),
            lo_head: Vec::new(),
            lo_len: Vec::new(),
            lo_na_free: Vec::new(),
            lo_flits: Vec::new(),
        }
    }

    /// An arena pre-sized for `routers` routers (the slabs are allocated
    /// once; [`GsArena::add_router`] then only advances the bases).
    pub fn with_capacity(gs_vcs: usize, ifaces: usize, depth: usize, routers: usize) -> Self {
        let mut a = Self::new(gs_vcs, ifaces, depth);
        let vcs = routers * 4 * gs_vcs;
        let los = routers * ifaces;
        a.vc_unshare.reserve_exact(vcs);
        a.vc_flags.reserve_exact(vcs);
        a.vc_head.reserve_exact(vcs);
        a.vc_len.reserve_exact(vcs);
        a.vc_flits.reserve_exact(vcs * depth);
        a.vc_unlock_at.reserve_exact(vcs);
        a.lo_unshare.reserve_exact(los);
        a.lo_advance.reserve_exact(los);
        a.lo_head.reserve_exact(los);
        a.lo_len.reserve_exact(los);
        a.lo_na_free.reserve_exact(los);
        a.lo_flits.reserve_exact(los * depth);
        a
    }

    /// Appends storage for one router and returns its base indices.
    pub fn add_router(&mut self) -> RouterSlots {
        let slots = RouterSlots {
            vc_base: self.vc_unshare.len() as u32,
            local_base: self.lo_unshare.len() as u32,
        };
        let vcs = 4 * self.gs_vcs;
        self.vc_unshare.resize(self.vc_unshare.len() + vcs, None);
        self.vc_flags.resize(self.vc_flags.len() + vcs, 0);
        self.vc_head.resize(self.vc_head.len() + vcs, 0);
        self.vc_len.resize(self.vc_len.len() + vcs, 0);
        self.vc_flits
            .resize(self.vc_flits.len() + vcs * self.depth, Flit::gs(0));
        self.vc_unlock_at
            .resize(self.vc_unlock_at.len() + vcs, Slot::NEVER);
        self.lo_unshare
            .resize(self.lo_unshare.len() + self.ifaces, None);
        self.lo_advance
            .resize(self.lo_advance.len() + self.ifaces, false);
        self.lo_head.resize(self.lo_head.len() + self.ifaces, 0);
        self.lo_len.resize(self.lo_len.len() + self.ifaces, 0);
        self.lo_na_free
            .resize(self.lo_na_free.len() + self.ifaces, NA_RX_DEPTH as u8);
        self.lo_flits
            .resize(self.lo_flits.len() + self.ifaces * self.depth, Flit::gs(0));
        self.routers += 1;
        slots
    }

    /// VCs per network port.
    pub fn gs_vcs(&self) -> usize {
        self.gs_vcs
    }

    /// Local GS interfaces per router.
    pub fn ifaces(&self) -> usize {
        self.ifaces
    }

    /// Output-buffer depth in flits.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Routers added so far.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// The arena slot of network VC `(dir, vc)` for a router based at
    /// `slots`.
    #[inline]
    pub fn vc_slot(&self, slots: RouterSlots, dir: usize, vc: usize) -> usize {
        debug_assert!(dir < 4 && vc < self.gs_vcs);
        slots.vc_base as usize + dir * self.gs_vcs + vc
    }

    /// The arena slot of local GS interface `iface` for a router based at
    /// `slots`.
    #[inline]
    pub fn local_slot(&self, slots: RouterSlots, iface: usize) -> usize {
        debug_assert!(iface < self.ifaces);
        slots.local_base as usize + iface
    }

    // ------------------------------------------------------------------
    // Network VC slots
    // ------------------------------------------------------------------

    /// A flit lands in the unsharebox (from the switching module).
    ///
    /// # Panics
    ///
    /// Panics if the unsharebox is occupied — the upstream sharebox
    /// admitted a second flit before the unlock.
    #[inline]
    pub fn vc_arrive(&mut self, slot: usize, flit: Flit) {
        assert!(
            self.vc_unshare[slot].is_none(),
            "share-based VC control violated: unsharebox occupied on arrival"
        );
        self.vc_unshare[slot] = Some(flit);
    }

    /// True if an unsharebox→buffer advance can start now.
    #[inline]
    pub fn vc_can_advance(&self, slot: usize) -> bool {
        self.vc_unshare[slot].is_some()
            && (self.vc_len[slot] as usize) < self.depth
            && self.vc_flags[slot] & ADVANCE == 0
    }

    /// Marks an advance event as scheduled.
    ///
    /// # Panics
    ///
    /// Panics if [`GsArena::vc_can_advance`] is false.
    #[inline]
    pub fn vc_begin_advance(&mut self, slot: usize) {
        assert!(
            self.vc_can_advance(slot),
            "begin_advance without can_advance"
        );
        self.vc_flags[slot] |= ADVANCE;
    }

    /// Completes the advance: the flit leaves the unsharebox and enters
    /// the buffer ring.
    #[inline]
    pub fn vc_complete_advance(&mut self, slot: usize) {
        debug_assert!(
            self.vc_flags[slot] & ADVANCE != 0,
            "advance completion without begin"
        );
        self.vc_flags[slot] &= !ADVANCE;
        let flit = self.vc_unshare[slot]
            .take()
            .expect("advance with empty unsharebox");
        let len = self.vc_len[slot] as usize;
        debug_assert!(len < self.depth);
        let pos = (self.vc_head[slot] as usize + len) % self.depth;
        self.vc_flits[slot * self.depth + pos] = flit;
        self.vc_len[slot] = (len + 1) as u8;
    }

    /// True if this VC is requesting link access: a flit is buffered and
    /// the sharebox is unlocked.
    #[inline]
    pub fn vc_is_ready(&self, slot: usize) -> bool {
        self.vc_flags[slot] & LOCKED == 0 && self.vc_len[slot] > 0
    }

    /// Link access granted: pops the flit and locks the sharebox.
    ///
    /// # Panics
    ///
    /// Panics if the VC was not ready.
    #[inline]
    pub fn vc_grant(&mut self, slot: usize) -> Flit {
        assert!(self.vc_is_ready(slot), "grant to non-ready VC");
        self.vc_flags[slot] |= LOCKED;
        let head = self.vc_head[slot] as usize;
        let flit = self.vc_flits[slot * self.depth + head];
        self.vc_head[slot] = ((head + 1) % self.depth) as u8;
        self.vc_len[slot] -= 1;
        flit
    }

    /// The downstream unlock toggle arrived: the sharebox opens.
    ///
    /// # Panics
    ///
    /// Panics if the sharebox was not locked.
    #[inline]
    pub fn vc_unlock(&mut self, slot: usize) {
        assert!(
            self.vc_flags[slot] & LOCKED != 0,
            "unlock toggle on unlocked sharebox"
        );
        self.vc_flags[slot] &= !LOCKED;
    }

    /// True if the sharebox is locked.
    #[inline]
    pub fn vc_is_locked(&self, slot: usize) -> bool {
        self.vc_flags[slot] & LOCKED != 0
    }

    /// Parks the unlock toggle that will open this (locked) sharebox at
    /// `at`, in place of an event: absorbed by the first read of the
    /// lock past `at`, or taken back out to be queued once a flit waits
    /// behind the sharebox.
    #[inline]
    pub fn vc_park_unlock(&mut self, slot: usize, at: Slot) {
        debug_assert!(
            self.vc_is_locked(slot) && self.vc_unlock_at[slot] == Slot::NEVER,
            "one unlock toggle per locked sharebox"
        );
        self.vc_unlock_at[slot] = at;
    }

    /// Opens the sharebox if a parked toggle was due at or before
    /// `stamp` — what its event would have done by now.
    #[inline]
    pub fn vc_absorb_unlock(&mut self, slot: usize, stamp: Slot) {
        // An unlocked sharebox has nothing parked: skip the slab read.
        if self.vc_flags[slot] & LOCKED != 0 && self.vc_unlock_at[slot] <= stamp {
            self.vc_unlock_at[slot] = Slot::NEVER;
            self.vc_flags[slot] &= !LOCKED;
        }
    }

    /// Takes the parked toggle out (to be queued as an event), if any.
    #[inline]
    pub fn vc_take_parked_unlock(&mut self, slot: usize) -> Option<Slot> {
        let at = std::mem::replace(&mut self.vc_unlock_at[slot], Slot::NEVER);
        (at != Slot::NEVER).then_some(at)
    }

    /// The parked toggle, if any.
    #[inline]
    pub fn vc_parked_unlock(&self, slot: usize) -> Option<Slot> {
        let at = self.vc_unlock_at[slot];
        (at != Slot::NEVER).then_some(at)
    }

    /// [`GsArena::vc_is_ready`] as of `stamp`, a parked toggle counted
    /// from its slot on — without absorbing it.
    #[inline]
    pub fn vc_is_ready_at(&self, slot: usize, stamp: Slot) -> bool {
        self.vc_len[slot] > 0
            && (self.vc_flags[slot] & LOCKED == 0 || self.vc_unlock_at[slot] <= stamp)
    }

    /// Flits in the buffer stage (the unsharebox not counted).
    #[inline]
    pub fn vc_len(&self, slot: usize) -> usize {
        self.vc_len[slot] as usize
    }

    /// True if no flit is stored in this slot.
    #[inline]
    pub fn vc_is_empty(&self, slot: usize) -> bool {
        self.vc_unshare[slot].is_none() && self.vc_len[slot] == 0
    }

    // ------------------------------------------------------------------
    // Local GS interface slots
    // ------------------------------------------------------------------

    /// A flit lands in the local unsharebox.
    ///
    /// # Panics
    ///
    /// Panics on unsharebox overrun (protocol violation).
    #[inline]
    pub fn local_arrive(&mut self, slot: usize, flit: Flit) {
        assert!(
            self.lo_unshare[slot].is_none(),
            "share-based VC control violated: local unsharebox occupied"
        );
        self.lo_unshare[slot] = Some(flit);
    }

    /// True if an advance can start.
    #[inline]
    pub fn local_can_advance(&self, slot: usize) -> bool {
        self.lo_unshare[slot].is_some()
            && (self.lo_len[slot] as usize) < self.depth
            && !self.lo_advance[slot]
    }

    /// Marks an advance as scheduled.
    ///
    /// # Panics
    ///
    /// Panics if [`GsArena::local_can_advance`] is false.
    #[inline]
    pub fn local_begin_advance(&mut self, slot: usize) {
        assert!(
            self.local_can_advance(slot),
            "begin_advance without can_advance"
        );
        self.lo_advance[slot] = true;
    }

    /// Completes the advance into the buffer ring.
    #[inline]
    pub fn local_complete_advance(&mut self, slot: usize) {
        debug_assert!(self.lo_advance[slot]);
        self.lo_advance[slot] = false;
        let flit = self.lo_unshare[slot]
            .take()
            .expect("advance with empty unsharebox");
        let len = self.lo_len[slot] as usize;
        debug_assert!(len < self.depth);
        let pos = (self.lo_head[slot] as usize + len) % self.depth;
        self.lo_flits[slot * self.depth + pos] = flit;
        self.lo_len[slot] = (len + 1) as u8;
    }

    /// Pops the next flit for delivery if the NA has a free slot.
    #[inline]
    pub fn local_try_deliver(&mut self, slot: usize) -> Option<Flit> {
        if self.lo_na_free[slot] > 0 && self.lo_len[slot] > 0 {
            self.lo_na_free[slot] -= 1;
            let head = self.lo_head[slot] as usize;
            let flit = self.lo_flits[slot * self.depth + head];
            self.lo_head[slot] = ((head + 1) % self.depth) as u8;
            self.lo_len[slot] -= 1;
            Some(flit)
        } else {
            None
        }
    }

    /// The NA consumed a delivered flit, freeing a slot.
    ///
    /// # Panics
    ///
    /// Panics if more slots return than the NA has.
    #[inline]
    pub fn local_na_consumed(&mut self, slot: usize) {
        self.lo_na_free[slot] += 1;
        assert!(
            (self.lo_na_free[slot] as usize) <= NA_RX_DEPTH,
            "NA returned more delivery slots than it has"
        );
    }

    /// True if nothing is stored in this slot.
    #[inline]
    pub fn local_is_empty(&self, slot: usize) -> bool {
        self.lo_unshare[slot].is_none() && self.lo_len[slot] == 0
    }

    /// Total flits currently stored in the arena, across every
    /// unsharebox and buffer ring of every slot — the telemetry
    /// sampler's GS occupancy gauge.
    pub fn buffered_flits(&self) -> usize {
        let vc: usize = self.vc_unshare.iter().filter(|u| u.is_some()).count()
            + self.vc_len.iter().map(|&l| l as usize).sum::<usize>();
        let lo: usize = self.lo_unshare.iter().filter(|u| u.is_some()).count()
            + self.lo_len.iter().map(|&l| l as usize).sum::<usize>();
        vc + lo
    }

    /// Instrumented flits currently stored in the arena — one term of
    /// the flit-conservation walk.
    pub fn flow_flits(&self) -> u64 {
        let mut n = 0u64;
        let flow = |f: &Flit| u64::from(f.is_instrumented());
        for slot in 0..self.vc_unshare.len() {
            n += self.vc_unshare[slot].as_ref().map_or(0, flow);
            let (head, len) = (self.vc_head[slot] as usize, self.vc_len[slot] as usize);
            for i in 0..len {
                n += flow(&self.vc_flits[slot * self.depth + (head + i) % self.depth]);
            }
        }
        for slot in 0..self.lo_unshare.len() {
            n += self.lo_unshare[slot].as_ref().map_or(0, flow);
            let (head, len) = (self.lo_head[slot] as usize, self.lo_len[slot] as usize);
            for i in 0..len {
                n += flow(&self.lo_flits[slot * self.depth + (head + i) % self.depth]);
            }
        }
        n
    }

    /// True if none of the router's slots (based at `slots`) hold a flit.
    pub fn router_is_empty(&self, slots: RouterSlots) -> bool {
        let vc0 = slots.vc_base as usize;
        let lo0 = slots.local_base as usize;
        (vc0..vc0 + 4 * self.gs_vcs).all(|s| self.vc_is_empty(s))
            && (lo0..lo0 + self.ifaces).all(|s| self.local_is_empty(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vc::{LocalGsState, VcBufferState};

    #[test]
    fn add_router_hands_out_disjoint_bases() {
        let mut a = GsArena::new(7, 4, 1);
        let r0 = a.add_router();
        let r1 = a.add_router();
        assert_eq!(r0.vc_base, 0);
        assert_eq!(r1.vc_base, 28);
        assert_eq!(r0.local_base, 0);
        assert_eq!(r1.local_base, 4);
        assert_eq!(a.routers(), 2);
        assert!(a.router_is_empty(r0));
        assert!(a.router_is_empty(r1));
    }

    #[test]
    fn nominal_vc_flow_matches_reference() {
        let mut a = GsArena::new(7, 4, 1);
        let r = a.add_router();
        let slot = a.vc_slot(r, 1, 3);
        a.vc_arrive(slot, Flit::gs(1));
        assert!(a.vc_can_advance(slot));
        assert!(!a.vc_is_ready(slot), "flit still in unsharebox");
        a.vc_begin_advance(slot);
        a.vc_complete_advance(slot);
        assert!(a.vc_is_ready(slot));
        let f = a.vc_grant(slot);
        assert_eq!(f.data, 1);
        assert!(a.vc_is_locked(slot));
        assert!(!a.vc_is_ready(slot));
        a.vc_unlock(slot);
        assert!(!a.vc_is_locked(slot));
        assert!(a.vc_is_empty(slot));
    }

    /// Drives the arena and the reference `VcBufferState` through the
    /// same pseudo-random legal operation sequence; every observation
    /// must agree at every step.
    #[test]
    fn vc_slot_matches_reference_state_machine() {
        for depth in [1usize, 2, 3, 4] {
            let mut arena = GsArena::new(7, 4, depth);
            let r = arena.add_router();
            let slot = arena.vc_slot(r, 2, 5);
            let mut reference = VcBufferState::new(depth);
            let mut x = 0x1234_5678_9abc_def0u64;
            let mut n = 0u32;
            for _ in 0..5_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                match (x >> 33) % 5 {
                    0 => {
                        if arena.vc_unshare[slot].is_none() {
                            n += 1;
                            arena.vc_arrive(slot, Flit::gs(n));
                            reference.arrive(Flit::gs(n));
                        }
                    }
                    1 => {
                        assert_eq!(arena.vc_can_advance(slot), reference.can_advance());
                        if reference.can_advance() {
                            arena.vc_begin_advance(slot);
                            reference.begin_advance();
                            arena.vc_complete_advance(slot);
                            reference.complete_advance();
                        }
                    }
                    2 => {
                        assert_eq!(arena.vc_is_ready(slot), reference.is_ready());
                        if reference.is_ready() {
                            assert_eq!(arena.vc_grant(slot), reference.grant());
                        }
                    }
                    3 => {
                        assert_eq!(arena.vc_is_locked(slot), reference.is_locked());
                        if reference.is_locked() {
                            arena.vc_unlock(slot);
                            reference.unlock();
                        }
                    }
                    _ => {
                        assert_eq!(arena.vc_is_empty(slot), reference.is_empty());
                    }
                }
            }
        }
    }

    /// Same cross-check for the local-interface state machine.
    #[test]
    fn local_slot_matches_reference_state_machine() {
        for depth in [1usize, 2, 3] {
            let mut arena = GsArena::new(7, 4, depth);
            let r = arena.add_router();
            let slot = arena.local_slot(r, 3);
            let mut reference = LocalGsState::new(depth);
            let mut outstanding = 0usize;
            let mut x = 0xfeed_beefu64;
            let mut n = 0u32;
            for _ in 0..5_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                match (x >> 33) % 5 {
                    0 => {
                        if arena.lo_unshare[slot].is_none() {
                            n += 1;
                            arena.local_arrive(slot, Flit::gs(n));
                            reference.arrive(Flit::gs(n));
                        }
                    }
                    1 => {
                        assert_eq!(arena.local_can_advance(slot), reference.can_advance());
                        if reference.can_advance() {
                            arena.local_begin_advance(slot);
                            reference.begin_advance();
                            arena.local_complete_advance(slot);
                            reference.complete_advance();
                        }
                    }
                    2 => {
                        let got = arena.local_try_deliver(slot);
                        let want = reference.try_deliver();
                        assert_eq!(got, want);
                        if got.is_some() {
                            outstanding += 1;
                        }
                    }
                    3 => {
                        if outstanding > 0 {
                            outstanding -= 1;
                            arena.local_na_consumed(slot);
                            reference.na_consumed();
                        }
                    }
                    _ => {
                        assert_eq!(arena.local_is_empty(slot), reference.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn ring_preserves_fifo_order_at_depth() {
        let mut a = GsArena::new(7, 4, 3);
        let r = a.add_router();
        let slot = a.vc_slot(r, 0, 0);
        for i in 1..=3 {
            a.vc_arrive(slot, Flit::gs(i));
            a.vc_begin_advance(slot);
            a.vc_complete_advance(slot);
        }
        assert!(!a.vc_can_advance(slot), "buffer full");
        assert_eq!(a.vc_grant(slot).data, 1);
        a.vc_unlock(slot);
        a.vc_arrive(slot, Flit::gs(4));
        a.vc_begin_advance(slot);
        a.vc_complete_advance(slot);
        for want in 2..=4 {
            assert_eq!(a.vc_grant(slot).data, want);
            a.vc_unlock(slot);
        }
    }

    #[test]
    #[should_panic(expected = "share-based VC control violated")]
    fn double_arrival_panics() {
        let mut a = GsArena::new(7, 4, 1);
        let r = a.add_router();
        let slot = a.vc_slot(r, 0, 0);
        a.vc_arrive(slot, Flit::gs(1));
        a.vc_arrive(slot, Flit::gs(2));
    }

    #[test]
    #[should_panic(expected = "unlock toggle on unlocked sharebox")]
    fn spurious_unlock_panics() {
        let mut a = GsArena::new(7, 4, 1);
        let r = a.add_router();
        a.vc_unlock(a.vc_slot(r, 0, 0));
    }

    #[test]
    #[should_panic(expected = "NA returned more delivery slots")]
    fn na_slot_overflow_detected() {
        let mut a = GsArena::new(7, 4, 1);
        let r = a.add_router();
        a.local_na_consumed(a.local_slot(r, 0));
    }
}
