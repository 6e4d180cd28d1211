//! Network-owned flat storage for BE router state — struct-of-arrays
//! slabs indexed by `(router, input)` / `(router, dir)`.
//!
//! A per-router BE unit — six input latches, four output stages, locks
//! and round-robin pointers in one ~1.5 KiB struct — is the cache killer
//! of BE-dominated large meshes: every BE event faults in a whole router
//! struct to touch a few bytes of latch state.
//!
//! [`BeArena`] keeps that hot state in one slab per field, owned by the
//! network and shared by all routers, exactly like the
//! [`crate::arena::GsArena`]: a router keeps only a base index
//! ([`BeSlots`]) and addresses its slots by offset arithmetic. The
//! per-router unit survives as a test-only oracle (`be::reference`),
//! and the arena is tested operation-for-operation against it.
//!
//! # Layout
//!
//! All of a router's `u8` control state — input ring cursors, routing
//! decisions, event flags, output cursors, credits, locks and
//! round-robin pointers — packs into **one 64-byte block** of the
//! `meta` slab (`block = router·64`), so any BE operation touches a
//! single metadata cache line no matter how large the mesh is. Within
//! the block: input fields at `i`, `8+i`, `16+i`, `24+i` (six inputs in
//! [`BeInput::ALL`] order), output fields at `32+d`, `36+d`, `40+d`,
//! `44+d`, `48+d` (four directions), the local delivery output's
//! lock/round-robin at `52`/`53`, and the parked-credit counts at `56+d`.
//! The public slot handles encode block
//! positions: an input slot is `router·64 + input`, an output slot
//! `router·64 + 32 + dir`. Latched flits live in two router-major flit
//! slabs (`(router·6 + input)·depth`, `(router·4 + dir)·depth`), used
//! as rings via the block's `head`/`len` cursors; decisions and locks
//! are encoded densely (`0` = none).
//!
//! # Parked credits
//!
//! One thing the reference unit does not have: each output holds, next
//! to its credit counter, the slots of up to [`BE_INPUT_DEPTH`] returning
//! credits that are on their way but were never queued as events
//! ([`BeArena::out_park_credit`]; a slab of that many slots per output,
//! the count in the metadata block). Whoever reads the counter first
//! absorbs the ones whose slot has passed
//! ([`BeArena::out_absorb_credits`]) — after which the counter is exactly
//! what the queued events would have left.

use crate::be::BeInput;
use crate::config::{BE_INPUT_DEPTH, BE_OUTPUT_DEPTH};
use crate::flit::Flit;
use crate::ids::Direction;
use crate::packet::BeDest;
use mango_sim::Slot;

/// Per-input state flags (bit set = event in flight).
const ROUTING: u8 = 1 << 0;
const MOVING: u8 = 1 << 1;

/// Metadata block bytes per router (one cache line; see module docs).
const BLOCK: usize = 64;
/// A full output's credits: one per slot of the neighbour's input latch.
const CREDITS_MAX: u8 = BE_INPUT_DEPTH as u8;
// Ring cursors and credit counters are non-empty `u8` counts.
const _: () = assert!(BE_INPUT_DEPTH > 0 && BE_INPUT_DEPTH < 256);
const _: () = assert!(BE_OUTPUT_DEPTH > 0 && BE_OUTPUT_DEPTH < 256);
/// Input-slot-relative offsets (slot = `router·64 + input`).
const IN_LEN: usize = 8;
const IN_DEST: usize = 16;
const IN_FLAGS: usize = 24;
/// Block-relative start of the output fields (out slot = `router·64 +
/// OUT_BASE + dir`).
const OUT_BASE: usize = 32;
/// Output-slot-relative offsets.
const OUT_LEN: usize = 4;
const OUT_CRED: usize = 8;
const OUT_LOCK: usize = 12;
const OUT_RR: usize = 16;
const OUT_PARKED: usize = 24;
/// Block-relative local-delivery-output offsets.
const LO_LOCK: usize = 52;
const LO_RR: usize = 53;

/// Encodes `Option<BeDest>` densely: `0` = none, `1..=4` = `Net(dir)`,
/// `5` = `Local`.
#[inline]
fn enc_dest(dest: Option<BeDest>) -> u8 {
    match dest {
        None => 0,
        Some(BeDest::Net(d)) => 1 + d.index() as u8,
        Some(BeDest::Local) => 5,
    }
}

#[inline]
fn dec_dest(code: u8) -> Option<BeDest> {
    match code {
        0 => None,
        5 => Some(BeDest::Local),
        d => Some(BeDest::Net(Direction::ALL[(d - 1) as usize])),
    }
}

/// Encodes `Option<BeInput>` densely: `0` = none, else index + 1.
#[inline]
fn enc_input(input: Option<BeInput>) -> u8 {
    match input {
        None => 0,
        Some(i) => 1 + i.index() as u8,
    }
}

#[inline]
fn dec_input(code: u8) -> Option<BeInput> {
    if code == 0 {
        None
    } else {
        Some(BeInput::ALL[(code - 1) as usize])
    }
}

/// The arena base index of one router's BE unit, returned by
/// [`BeArena::add_router`] and stored inside the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeSlots {
    /// Router index in the arena (the router owns metadata block
    /// `base·64..base·64+64` and the matching flit-slab ranges).
    pub base: u32,
}

/// Flat struct-of-arrays storage for every BE input latch, output stage
/// and arbitration lock of a mesh: [`BE_INPUT_DEPTH`]-flit latches,
/// [`BE_OUTPUT_DEPTH`]-flit output stages and one initial credit per slot
/// of the neighbour's latch on every link. See the module docs for the
/// layout.
#[derive(Clone, Default)]
pub struct BeArena {
    routers: usize,
    /// All per-router `u8` control state, one [`BLOCK`]-byte block per
    /// router (cursors, decisions, flags, credits, locks, round-robins).
    meta: Vec<u8>,
    /// Input latch rings, router-major: `(router·6 + input)·BE_INPUT_DEPTH`.
    in_flits: Vec<Flit>,
    /// Output stage rings, router-major: `(router·4 + dir)·BE_OUTPUT_DEPTH`.
    out_flits: Vec<Flit>,
    /// Parked credit slots, router-major: `(router·4 + dir)·BE_INPUT_DEPTH`,
    /// the first `meta[slot + OUT_PARKED]` of each run in use, unordered.
    out_parked: Vec<Slot>,
}

impl std::fmt::Debug for BeArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeArena")
            .field("routers", &self.routers)
            .finish_non_exhaustive()
    }
}

impl BeArena {
    /// An arena pre-sized for `routers` routers (the slabs are allocated
    /// once; [`BeArena::add_router`] then only advances the bases).
    pub fn with_capacity(routers: usize) -> Self {
        let mut a = Self::default();
        a.meta.reserve_exact(routers * BLOCK);
        a.in_flits.reserve_exact(routers * 6 * BE_INPUT_DEPTH);
        a.out_flits.reserve_exact(routers * 4 * BE_OUTPUT_DEPTH);
        a.out_parked.reserve_exact(routers * 4 * BE_INPUT_DEPTH);
        a
    }

    /// Appends storage for one router and returns its base index.
    pub fn add_router(&mut self) -> BeSlots {
        let slots = BeSlots {
            base: self.routers as u32,
        };
        self.in_flits
            .resize(self.in_flits.len() + 6 * BE_INPUT_DEPTH, Flit::be(0, false));
        self.out_flits.resize(
            self.out_flits.len() + 4 * BE_OUTPUT_DEPTH,
            Flit::be(0, false),
        );
        self.out_parked
            .resize(self.out_parked.len() + 4 * BE_INPUT_DEPTH, Slot::NEVER);
        let start = self.meta.len();
        self.meta.resize(start + BLOCK, 0);
        for d in 0..4 {
            self.meta[start + OUT_BASE + OUT_CRED + d] = CREDITS_MAX;
        }
        self.routers += 1;
        slots
    }

    /// Routers added so far.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// The arena slot of input `input` for a router based at `slots`
    /// (a metadata-block position; see the module docs).
    #[inline]
    pub fn in_slot(&self, slots: BeSlots, input: BeInput) -> usize {
        slots.base as usize * BLOCK + input.index()
    }

    /// The arena slot of network output `dir` for a router based at
    /// `slots` (a metadata-block position; see the module docs).
    #[inline]
    pub fn out_slot(&self, slots: BeSlots, dir: Direction) -> usize {
        slots.base as usize * BLOCK + OUT_BASE + dir.index()
    }

    /// First flit-slab index of the input ring behind `slot`.
    #[inline]
    fn in_flit_base(&self, slot: usize) -> usize {
        let (router, input) = (slot / BLOCK, slot % BLOCK);
        (router * 6 + input) * BE_INPUT_DEPTH
    }

    /// First flit-slab index of the output ring behind `slot`.
    #[inline]
    fn out_flit_base(&self, slot: usize) -> usize {
        let (router, dir) = (slot / BLOCK, slot % BLOCK - OUT_BASE);
        (router * 4 + dir) * BE_OUTPUT_DEPTH
    }

    /// First parked-slab index of the output behind `slot`.
    #[inline]
    fn out_parked_base(&self, slot: usize) -> usize {
        let (router, dir) = (slot / BLOCK, slot % BLOCK - OUT_BASE);
        (router * 4 + dir) * BE_INPUT_DEPTH
    }

    // ------------------------------------------------------------------
    // Input latches (reference: `BeInputState`)
    // ------------------------------------------------------------------

    /// Latches an arriving flit.
    ///
    /// # Panics
    ///
    /// Panics if the latch is full — a flow-control protocol violation
    /// upstream, exactly as the reference FIFO.
    pub fn in_push(&mut self, slot: usize, flit: Flit) {
        let len = self.meta[slot + IN_LEN] as usize;
        assert!(
            len < BE_INPUT_DEPTH,
            "Fifo overflow: flow control violated (capacity {BE_INPUT_DEPTH})"
        );
        let head = self.meta[slot] as usize;
        let pos = self.in_flit_base(slot) + (head + len) % BE_INPUT_DEPTH;
        self.in_flits[pos] = flit;
        self.meta[slot + IN_LEN] += 1;
    }

    /// Removes and returns the oldest latched flit.
    pub fn in_pop(&mut self, slot: usize) -> Option<Flit> {
        if self.meta[slot + IN_LEN] == 0 {
            return None;
        }
        let head = self.meta[slot] as usize;
        let flit = self.in_flits[self.in_flit_base(slot) + head];
        self.meta[slot] = ((head + 1) % BE_INPUT_DEPTH) as u8;
        self.meta[slot + IN_LEN] -= 1;
        Some(flit)
    }

    /// A mutable reference to the oldest latched flit (the BE router
    /// rotates the header word in place).
    pub fn in_front_mut(&mut self, slot: usize) -> Option<&mut Flit> {
        if self.meta[slot + IN_LEN] == 0 {
            return None;
        }
        let pos = self.in_flit_base(slot) + self.meta[slot] as usize;
        Some(&mut self.in_flits[pos])
    }

    /// Latched flits on the input.
    #[inline]
    pub fn in_len(&self, slot: usize) -> usize {
        self.meta[slot + IN_LEN] as usize
    }

    /// True if no flit is latched.
    #[inline]
    pub fn in_is_empty(&self, slot: usize) -> bool {
        self.meta[slot + IN_LEN] == 0
    }

    /// True if the latch is at capacity.
    #[inline]
    pub fn in_is_full(&self, slot: usize) -> bool {
        self.meta[slot + IN_LEN] as usize == BE_INPUT_DEPTH
    }

    /// The routing decision of the packet in progress.
    #[inline]
    pub fn in_progress(&self, slot: usize) -> Option<BeDest> {
        dec_dest(self.meta[slot + IN_DEST])
    }

    /// Records (or clears) the routing decision.
    #[inline]
    pub fn set_in_progress(&mut self, slot: usize, dest: Option<BeDest>) {
        self.meta[slot + IN_DEST] = enc_dest(dest);
    }

    /// True if a `BeRouted` event is in flight.
    #[inline]
    pub fn in_routing(&self, slot: usize) -> bool {
        self.meta[slot + IN_FLAGS] & ROUTING != 0
    }

    /// Sets or clears the route-decode-in-flight flag.
    #[inline]
    pub fn set_in_routing(&mut self, slot: usize, on: bool) {
        if on {
            self.meta[slot + IN_FLAGS] |= ROUTING;
        } else {
            self.meta[slot + IN_FLAGS] &= !ROUTING;
        }
    }

    /// True if a `BeMoved` event is in flight.
    #[inline]
    pub fn in_moving(&self, slot: usize) -> bool {
        self.meta[slot + IN_FLAGS] & MOVING != 0
    }

    /// Sets or clears the move-in-flight flag.
    #[inline]
    pub fn set_in_moving(&mut self, slot: usize, on: bool) {
        if on {
            self.meta[slot + IN_FLAGS] |= MOVING;
        } else {
            self.meta[slot + IN_FLAGS] &= !MOVING;
        }
    }

    /// True if the input is between packets and a newly arrived flit
    /// would be a header needing route decode (reference:
    /// `BeInputState::needs_routing`).
    #[inline]
    pub fn in_needs_routing(&self, slot: usize) -> bool {
        self.meta[slot + IN_DEST] == 0
            && self.meta[slot + IN_FLAGS] & ROUTING == 0
            && self.meta[slot + IN_LEN] > 0
    }

    /// True if the input can move its front flit right now (reference:
    /// `BeInputState::can_move`).
    #[inline]
    pub fn in_can_move(&self, slot: usize) -> bool {
        self.meta[slot + IN_DEST] != 0
            && self.meta[slot + IN_FLAGS] == 0
            && self.meta[slot + IN_LEN] > 0
    }

    // ------------------------------------------------------------------
    // Output stages (reference: `BeOutputState`)
    // ------------------------------------------------------------------

    /// Stages a flit on a network output.
    ///
    /// # Panics
    ///
    /// Panics if the stage is full — the pump checked occupancy first.
    pub fn out_push(&mut self, slot: usize, flit: Flit) {
        let len = self.meta[slot + OUT_LEN] as usize;
        assert!(
            len < BE_OUTPUT_DEPTH,
            "Fifo overflow: flow control violated (capacity {BE_OUTPUT_DEPTH})"
        );
        let head = self.meta[slot] as usize;
        let pos = self.out_flit_base(slot) + (head + len) % BE_OUTPUT_DEPTH;
        self.out_flits[pos] = flit;
        self.meta[slot + OUT_LEN] += 1;
    }

    /// Removes and returns the oldest staged flit.
    pub fn out_pop(&mut self, slot: usize) -> Option<Flit> {
        if self.meta[slot + OUT_LEN] == 0 {
            return None;
        }
        let head = self.meta[slot] as usize;
        let flit = self.out_flits[self.out_flit_base(slot) + head];
        self.meta[slot] = ((head + 1) % BE_OUTPUT_DEPTH) as u8;
        self.meta[slot + OUT_LEN] -= 1;
        Some(flit)
    }

    /// Staged flits on the output.
    #[inline]
    pub fn out_len(&self, slot: usize) -> usize {
        self.meta[slot + OUT_LEN] as usize
    }

    /// True if the output stage is at capacity.
    #[inline]
    pub fn out_is_full(&self, slot: usize) -> bool {
        self.meta[slot + OUT_LEN] as usize == BE_OUTPUT_DEPTH
    }

    /// True if this output's link-arbiter slot is ready: a flit staged
    /// and a credit available (reference: `BeOutputState::link_ready`).
    #[inline]
    pub fn out_link_ready(&self, slot: usize) -> bool {
        self.meta[slot + OUT_LEN] > 0 && self.meta[slot + OUT_CRED] > 0
    }

    /// Credits currently held for the downstream latch.
    #[inline]
    pub fn out_credits(&self, slot: usize) -> usize {
        self.meta[slot + OUT_CRED] as usize
    }

    /// Consumes one credit on grant.
    #[inline]
    pub fn out_take_credit(&mut self, slot: usize) {
        debug_assert!(self.meta[slot + OUT_CRED] > 0, "grant without credit");
        self.meta[slot + OUT_CRED] -= 1;
    }

    /// A credit returned from downstream (reference:
    /// `BeOutputState::add_credit`).
    ///
    /// # Panics
    ///
    /// Panics if credits exceed the initial allocation — a credit
    /// accounting bug.
    pub fn out_add_credit(&mut self, slot: usize) {
        self.meta[slot + OUT_CRED] += 1;
        assert!(
            self.meta[slot + OUT_CRED] <= CREDITS_MAX,
            "BE credit overflow: more credits than buffer slots"
        );
    }

    /// Parks a credit that returns at `at`, in place of an event:
    /// absorbed by the first read of the counter past `at`, or taken
    /// back out to be queued once the output is blocked on credit.
    ///
    /// # Panics
    ///
    /// Panics if held and parked credits exceed the initial allocation.
    #[inline]
    pub fn out_park_credit(&mut self, slot: usize, at: Slot) {
        let n = self.meta[slot + OUT_PARKED];
        assert!(
            self.meta[slot + OUT_CRED] + n < CREDITS_MAX,
            "BE credit overflow: more credits than buffer slots"
        );
        let base = self.out_parked_base(slot);
        self.out_parked[base + n as usize] = at;
        self.meta[slot + OUT_PARKED] = n + 1;
    }

    /// Adds every parked credit due at or before `stamp` to the counter
    /// — what their events would have done by now.
    #[inline]
    pub fn out_absorb_credits(&mut self, slot: usize, stamp: Slot) {
        let mut n = self.meta[slot + OUT_PARKED] as usize;
        if n == 0 {
            return;
        }
        let base = self.out_parked_base(slot);
        for i in (0..n).rev() {
            if self.out_parked[base + i] <= stamp {
                n -= 1;
                self.out_parked[base + i] = self.out_parked[base + n];
                self.meta[slot + OUT_CRED] += 1;
            }
        }
        self.meta[slot + OUT_PARKED] = n as u8;
    }

    /// Takes one parked credit out (to be queued as an event), if any.
    #[inline]
    pub fn out_take_parked(&mut self, slot: usize) -> Option<Slot> {
        let n = self.meta[slot + OUT_PARKED] as usize;
        if n == 0 {
            return None;
        }
        self.meta[slot + OUT_PARKED] = (n - 1) as u8;
        Some(self.out_parked[self.out_parked_base(slot) + n - 1])
    }

    /// The parked credits, in no particular order.
    #[inline]
    pub fn out_parked(&self, slot: usize) -> &[Slot] {
        let base = self.out_parked_base(slot);
        &self.out_parked[base..base + self.meta[slot + OUT_PARKED] as usize]
    }

    /// [`BeArena::out_link_ready`] as of `stamp`, parked credits counted
    /// from their slots on — without absorbing them.
    #[inline]
    pub fn out_link_ready_at(&self, slot: usize, stamp: Slot) -> bool {
        self.meta[slot + OUT_LEN] > 0
            && (self.meta[slot + OUT_CRED] > 0
                || self.out_parked(slot).iter().any(|&at| at <= stamp))
    }

    /// The input holding this output's coherency lock.
    #[inline]
    pub fn out_locked_to(&self, slot: usize) -> Option<BeInput> {
        dec_input(self.meta[slot + OUT_LOCK])
    }

    /// Sets (or clears) the coherency lock.
    #[inline]
    pub fn set_out_locked_to(&mut self, slot: usize, input: Option<BeInput>) {
        self.meta[slot + OUT_LOCK] = enc_input(input);
    }

    /// The output's round-robin pointer.
    #[inline]
    pub fn out_rr(&self, slot: usize) -> usize {
        self.meta[slot + OUT_RR] as usize
    }

    /// Advances the round-robin pointer.
    #[inline]
    pub fn set_out_rr(&mut self, slot: usize, rr: usize) {
        self.meta[slot + OUT_RR] = rr as u8;
    }

    // ------------------------------------------------------------------
    // Local delivery output (reference: `BeLocalOut`)
    // ------------------------------------------------------------------

    /// The input holding the local output's coherency lock.
    #[inline]
    pub fn local_locked_to(&self, slots: BeSlots) -> Option<BeInput> {
        dec_input(self.meta[slots.base as usize * BLOCK + LO_LOCK])
    }

    /// Sets (or clears) the local output's coherency lock.
    #[inline]
    pub fn set_local_locked_to(&mut self, slots: BeSlots, input: Option<BeInput>) {
        self.meta[slots.base as usize * BLOCK + LO_LOCK] = enc_input(input);
    }

    /// The local output's round-robin pointer.
    #[inline]
    pub fn local_rr(&self, slots: BeSlots) -> usize {
        self.meta[slots.base as usize * BLOCK + LO_RR] as usize
    }

    /// Advances the local output's round-robin pointer.
    #[inline]
    pub fn set_local_rr(&mut self, slots: BeSlots, rr: usize) {
        self.meta[slots.base as usize * BLOCK + LO_RR] = rr as u8;
    }

    // ------------------------------------------------------------------
    // Arbitration and walkers
    // ------------------------------------------------------------------

    /// The inputs currently contending for `dest` as a bitmask over
    /// [`BeInput::ALL`] indices.
    pub fn contender_mask(&self, slots: BeSlots, dest: BeDest) -> u8 {
        let block = slots.base as usize * BLOCK;
        let want = enc_dest(Some(dest));
        let mut mask = 0u8;
        for bit in 0..6 {
            let slot = block + bit;
            if self.meta[slot + IN_DEST] == want
                && self.meta[slot + IN_FLAGS] == 0
                && self.meta[slot + IN_LEN] > 0
            {
                mask |= 1 << bit;
            }
        }
        mask
    }

    /// True if any flit or decision state is held anywhere in the
    /// router's BE unit (the router-resident programming receive buffer
    /// not counted).
    pub fn has_work(&self, slots: BeSlots) -> bool {
        let block = slots.base as usize * BLOCK;
        (0..6).any(|i| {
            let slot = block + i;
            self.meta[slot + IN_LEN] > 0
                || self.meta[slot + IN_FLAGS] != 0
                || self.meta[slot + IN_DEST] != 0
        }) || (0..4).any(|d| self.meta[block + OUT_BASE + OUT_LEN + d] > 0)
    }

    /// Total BE flits staged in the router's latches and output stages —
    /// the telemetry sampler's BE depth gauge.
    pub fn flits_buffered(&self, slots: BeSlots) -> usize {
        let block = slots.base as usize * BLOCK;
        (0..6)
            .map(|i| self.meta[block + i + IN_LEN] as usize)
            .sum::<usize>()
            + (0..4)
                .map(|d| self.meta[block + OUT_BASE + OUT_LEN + d] as usize)
                .sum::<usize>()
    }

    /// Instrumented flits staged in the router's BE unit — one term of
    /// the flit-conservation walk.
    pub fn flow_flits(&self, slots: BeSlots) -> u64 {
        let block = slots.base as usize * BLOCK;
        let mut n = 0u64;
        for i in 0..6 {
            let slot = block + i;
            for k in 0..self.meta[slot + IN_LEN] as usize {
                let pos = self.in_flit_base(slot) + (self.meta[slot] as usize + k) % BE_INPUT_DEPTH;
                n += u64::from(self.in_flits[pos].is_instrumented());
            }
        }
        for d in 0..4 {
            let slot = block + OUT_BASE + d;
            for k in 0..self.meta[slot + OUT_LEN] as usize {
                let pos =
                    self.out_flit_base(slot) + (self.meta[slot] as usize + k) % BE_OUTPUT_DEPTH;
                n += u64::from(self.out_flits[pos].is_instrumented());
            }
        }
        n
    }
}

/// Fair round-robin pick among the inputs set in `contenders` (a
/// [`BeArena::contender_mask`]) for an output whose round-robin pointer
/// is `rr`; returns the chosen input and the new pointer value.
pub(crate) fn rr_pick_mask(contenders: u8, rr: usize) -> Option<(BeInput, usize)> {
    if contenders == 0 {
        return None;
    }
    let n = BeInput::ALL.len();
    // Rotate so the input after `rr` becomes bit 0 and take the lowest
    // set bit.
    let start = (rr + 1) % n;
    let m = contenders as u32;
    let rotated = (m >> start) | (m << (n - start));
    let idx = (start + rotated.trailing_zeros() as usize) % n;
    Some((BeInput::ALL[idx], idx))
}

#[cfg(test)]
mod slab_crosscheck;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::be::reference::BeUnit;

    fn flit(tag: u32) -> Flit {
        Flit::be(tag, tag.is_multiple_of(3))
    }

    fn slot_at(ps: u64) -> Slot {
        Slot::end_of(mango_sim::SimTime::from_ps(ps))
    }

    /// Drives the slab and the reference [`BeUnit`] through the same
    /// pseudo-random op sequence and compares all observable state after
    /// every op — the same cross-check style the GS arena got in PR 4.
    #[test]
    fn arena_matches_reference_be_unit() {
        let mut arena = BeArena::default();
        let slots = arena.add_router();
        let mut unit = BeUnit::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ (BE_INPUT_DEPTH as u64) << 8;
        for step in 1..5000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let input = BeInput::ALL[(x >> 13) as usize % 6];
            let in_slot = arena.in_slot(slots, input);
            let dir = Direction::ALL[(x >> 21) as usize % 4];
            let out_slot = arena.out_slot(slots, dir);
            let dest = dec_dest(((x >> 27) % 6) as u8);
            match (x >> 33) % 10 {
                0 if !unit.input(input).latch.is_full() => {
                    unit.input_mut(input).latch.push(flit(step));
                    arena.in_push(in_slot, flit(step));
                }
                0 => {}
                1 => {
                    assert_eq!(unit.input_mut(input).latch.pop(), arena.in_pop(in_slot));
                }
                2 => {
                    if let Some(f) = unit.input_mut(input).latch.front_mut() {
                        f.data = f.data.rotate_left(2);
                        let g = arena.in_front_mut(in_slot).expect("reference non-empty");
                        g.data = g.data.rotate_left(2);
                    } else {
                        assert!(arena.in_front_mut(in_slot).is_none());
                    }
                }
                3 => {
                    unit.input_mut(input).in_progress = dest;
                    arena.set_in_progress(in_slot, dest);
                }
                4 => {
                    let on = x & 1 == 0;
                    if x & 2 == 0 {
                        unit.input_mut(input).routing = on;
                        arena.set_in_routing(in_slot, on);
                    } else {
                        unit.input_mut(input).moving = on;
                        arena.set_in_moving(in_slot, on);
                    }
                }
                5 if !unit.outputs[dir.index()].buf.is_full() => {
                    unit.outputs[dir.index()].buf.push(flit(step));
                    arena.out_push(out_slot, flit(step));
                }
                5 => {}
                6 => {
                    assert_eq!(unit.outputs[dir.index()].buf.pop(), arena.out_pop(out_slot));
                }
                7 => {
                    if unit.outputs[dir.index()].credits > 0 {
                        unit.outputs[dir.index()].credits -= 1;
                        arena.out_take_credit(out_slot);
                    } else if x & 4 == 0 {
                        unit.outputs[dir.index()].add_credit();
                        arena.out_add_credit(out_slot);
                    } else {
                        // The same credit, parked: invisible before
                        // its slot, the reference's `add_credit` from
                        // it on.
                        let at = slot_at(u64::from(step));
                        arena.out_park_credit(out_slot, at);
                        let before = unit.outputs[dir.index()].link_ready();
                        assert_eq!(arena.out_link_ready(out_slot), before);
                        assert_eq!(
                            arena.out_link_ready_at(out_slot, slot_at(u64::from(step) - 1)),
                            before
                        );
                        unit.outputs[dir.index()].add_credit();
                        assert_eq!(
                            arena.out_link_ready_at(out_slot, at),
                            unit.outputs[dir.index()].link_ready()
                        );
                        arena.out_absorb_credits(out_slot, slot_at(u64::from(step) - 1));
                        assert_eq!(arena.out_parked(out_slot), [at]);
                        arena.out_absorb_credits(out_slot, at);
                        assert!(arena.out_parked(out_slot).is_empty());
                    }
                }
                8 => {
                    let lock = (x & 1 == 0).then_some(input);
                    if x & 2 == 0 {
                        unit.outputs[dir.index()].locked_to = lock;
                        unit.outputs[dir.index()].rr = input.index();
                        arena.set_out_locked_to(out_slot, lock);
                        arena.set_out_rr(out_slot, input.index());
                    } else {
                        unit.local_out.locked_to = lock;
                        unit.local_out.rr = input.index();
                        arena.set_local_locked_to(slots, lock);
                        arena.set_local_rr(slots, input.index());
                    }
                }
                _ => {
                    // Observation-only step: the per-dest contender
                    // masks are compared below like everything else.
                }
            }
            // Compare every observable after every op.
            for i in BeInput::ALL {
                let s = arena.in_slot(slots, i);
                let r = unit.input(i);
                assert_eq!(arena.in_len(s), r.latch.len());
                assert_eq!(arena.in_is_empty(s), r.latch.is_empty());
                assert_eq!(arena.in_is_full(s), r.latch.is_full());
                assert_eq!(arena.in_progress(s), r.in_progress);
                assert_eq!(arena.in_routing(s), r.routing);
                assert_eq!(arena.in_moving(s), r.moving);
                assert_eq!(arena.in_needs_routing(s), r.needs_routing());
                assert_eq!(arena.in_can_move(s), r.can_move());
            }
            for d in Direction::ALL {
                let s = arena.out_slot(slots, d);
                let r = &unit.outputs[d.index()];
                assert_eq!(arena.out_len(s), r.buf.len());
                assert_eq!(arena.out_is_full(s), r.buf.is_full());
                assert_eq!(arena.out_credits(s), r.credits);
                assert_eq!(arena.out_link_ready(s), r.link_ready());
                assert_eq!(arena.out_locked_to(s), r.locked_to);
                assert_eq!(arena.out_rr(s), r.rr);
            }
            assert_eq!(arena.local_locked_to(slots), unit.local_out.locked_to);
            assert_eq!(arena.local_rr(slots), unit.local_out.rr);
            for code in 1..=5u8 {
                let dest = dec_dest(code).expect("valid dest code");
                assert_eq!(arena.contender_mask(slots, dest), unit.contender_mask(dest));
            }
            assert_eq!(arena.has_work(slots), unit.has_work());
            assert_eq!(
                arena.flits_buffered(slots),
                unit.inputs.iter().map(|i| i.latch.len()).sum::<usize>()
                    + unit.outputs.iter().map(|o| o.buf.len()).sum::<usize>()
            );
        }
    }

    #[test]
    fn multi_router_slots_are_independent() {
        let mut arena = BeArena::with_capacity(3);
        let a = arena.add_router();
        let b = arena.add_router();
        let c = arena.add_router();
        arena.in_push(arena.in_slot(b, BeInput::LocalNa), Flit::be(7, true));
        arena.set_out_locked_to(arena.out_slot(c, Direction::East), Some(BeInput::Prog));
        assert!(!arena.has_work(a));
        assert!(arena.has_work(b));
        assert_eq!(arena.flits_buffered(b), 1);
        assert_eq!(arena.flits_buffered(c), 0);
        assert_eq!(
            arena.out_locked_to(arena.out_slot(c, Direction::East)),
            Some(BeInput::Prog)
        );
        assert_eq!(
            arena.out_locked_to(arena.out_slot(a, Direction::East)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "Fifo overflow")]
    fn latch_overflow_panics() {
        let mut arena = BeArena::default();
        let slots = arena.add_router();
        let slot = arena.in_slot(slots, BeInput::Prog);
        for tag in 0..=BE_INPUT_DEPTH as u32 {
            arena.in_push(slot, Flit::be(tag, true));
        }
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_panics() {
        let mut arena = BeArena::default();
        let slots = arena.add_router();
        arena.out_add_credit(arena.out_slot(slots, Direction::North));
    }
}
