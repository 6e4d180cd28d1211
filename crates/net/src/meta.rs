//! The side slab of per-flit instrumentation records.
//!
//! A [`Flit`] is 8 bytes and is copied on every hop; its 24-byte
//! [`FlitMeta`] record (injection time, sequence number, flow) is written
//! once and read once. The record therefore stays here, owned by the
//! [`crate::Network`], and the flit carries its index
//! ([`Flit::tag`]). The protocol is the flit-conservation ledger's:
//! [`MetaSlab::alloc`] where an instrumented flit enters the system,
//! [`MetaSlab::release`] where it is delivered or dropped, and a relayed
//! packet's flits hand their handles to the next segment's flits. So
//! [`MetaSlab::live`] *is* the number of instrumented flits in the
//! system, in every build profile.
//!
//! The ledger's [`Network`] half is the `impl Network` block at the end
//! of this file: the buffer walk `live` is checked against, and the
//! debug-build count of instrumented flits inside scheduled events.

use crate::network::Network;
use mango_core::{Flit, FlitMeta};

/// Slab of [`FlitMeta`] records addressed by [`Flit::tag`].
#[derive(Debug, Default)]
pub struct MetaSlab {
    records: Vec<FlitMeta>,
    /// Released handles, reused last-in first-out so the slab stays as
    /// small (and as cache-resident) as the peak number of instrumented
    /// flits simultaneously in the system.
    free: Vec<u32>,
}

/// The handle of a fresh record appended at index `len`.
///
/// # Panics
///
/// Panics if `len` does not fit below [`Flit::NO_TAG`] — 2²⁹−1 live
/// records, more than 12 GiB of them.
fn fresh_tag(len: usize) -> u32 {
    assert!(
        len < Flit::NO_TAG as usize,
        "instrumentation handle space exhausted"
    );
    len as u32
}

impl MetaSlab {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `meta` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics only if all 2²⁹−1 handles are live at once.
    #[inline]
    pub fn alloc(&mut self, meta: FlitMeta) -> u32 {
        match self.free.pop() {
            Some(tag) => {
                self.records[tag as usize] = meta;
                tag
            }
            None => {
                let tag = fresh_tag(self.records.len());
                self.records.push(meta);
                tag
            }
        }
    }

    /// The record `tag` names.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was never allocated (and, in debug builds, if it
    /// was released).
    #[inline]
    pub fn get(&self, tag: u32) -> FlitMeta {
        let meta = self.records[tag as usize];
        debug_assert!(meta.flow() != u32::MAX, "stale instrumentation handle");
        meta
    }

    /// Frees the record `tag` names; [`Flit::NO_TAG`] is a no-op, so a
    /// caller can release any flit without asking whether it is
    /// instrumented.
    #[inline]
    pub fn release(&mut self, tag: u32) {
        if tag == Flit::NO_TAG {
            return;
        }
        #[cfg(debug_assertions)]
        {
            assert!(
                self.records[tag as usize].flow() != u32::MAX,
                "instrumentation record released twice"
            );
            self.records[tag as usize] = FlitMeta::none();
        }
        self.free.push(tag);
    }

    /// Records currently allocated: the instrumented flits in the system.
    pub fn live(&self) -> usize {
        self.records.len() - self.free.len()
    }
}

impl Network {
    /// Instrumented flits found by walking every buffer: the GS arena,
    /// each router's BE unit and each NA. Together with the flits inside
    /// scheduled events these are all the instrumented flits in the
    /// system, so with an empty event queue this equals
    /// [`MetaSlab::live`] — in release builds too.
    pub fn instrumented_flits_buffered(&self) -> u64 {
        self.arena.flow_flits()
            + self
                .routers
                .iter()
                .enumerate()
                .map(|(i, r)| r.flow_flits_buffered(&self.be_arena) + self.na.flow_flits(i))
                .sum::<u64>()
    }

    /// Asserts the flit-conservation invariant: every instrumentation
    /// record belongs to a flit that is buffered somewhere or inside a
    /// scheduled event — none leaked, none released early. Call between
    /// events (e.g. after a run). Compiled to a no-op in release builds,
    /// which do not count the flits inside events.
    pub fn debug_check_conservation(&self) {
        #[cfg(debug_assertions)]
        {
            let buffered = self.instrumented_flits_buffered() as i64;
            assert_eq!(
                self.meta.live() as i64,
                buffered + self.wire,
                "flit conservation violated: {} live records != buffered {} + wire {}",
                self.meta.live(),
                buffered,
                self.wire,
            );
        }
    }

    /// Force-unbinds GS TX interface `iface` of node `idx` (see
    /// [`crate::NaArena::force_unbind_tx`]) and releases the
    /// instrumentation records of the flits it discards.
    pub fn force_unbind_tx(&mut self, idx: usize, iface: u8) {
        for flit in self.na.force_unbind_tx(idx, iface) {
            self.meta.release(flit.tag());
        }
    }

    /// Releases the instrumentation records of flits leaving the system.
    pub(crate) fn release_records(&mut self, flits: &[Flit]) {
        for f in flits {
            self.meta.release(f.tag());
        }
    }

    /// `flit` enters a scheduled event (a `LinkFlit`, or a router's
    /// `BeMoved`): counted in debug builds only.
    #[inline]
    pub(crate) fn wire_enter(&mut self, _flit: Flit) {
        #[cfg(debug_assertions)]
        {
            self.wire += i64::from(_flit.is_instrumented());
        }
    }

    /// `flit` leaves the event that carried it.
    #[inline]
    pub(crate) fn wire_exit(&mut self, _flit: Flit) {
        #[cfg(debug_assertions)]
        {
            self.wire -= i64::from(_flit.is_instrumented());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mango_sim::SimTime;

    fn meta(seq: u64) -> FlitMeta {
        FlitMeta::new(SimTime::from_ns(seq), seq, 7)
    }

    #[test]
    fn handles_are_reused_last_in_first_out() {
        let mut slab = MetaSlab::new();
        let tags: Vec<u32> = (0..4).map(|i| slab.alloc(meta(i))).collect();
        assert_eq!(tags, [0, 1, 2, 3]);
        slab.release(1);
        slab.release(3);
        assert_eq!(slab.alloc(meta(10)), 3);
        assert_eq!(slab.alloc(meta(11)), 1);
        assert_eq!(slab.alloc(meta(12)), 4, "free list empty: the slab grows");
        assert_eq!(slab.get(3), meta(10));
        assert_eq!(slab.get(1), meta(11));
        assert_eq!(slab.get(0), meta(0), "neighbours untouched");
    }

    #[test]
    fn live_counts_allocations_minus_releases() {
        let mut slab = MetaSlab::new();
        assert_eq!(slab.live(), 0);
        let a = slab.alloc(meta(0));
        let b = slab.alloc(meta(1));
        assert_eq!(slab.live(), 2);
        slab.release(a);
        assert_eq!(slab.live(), 1);
        slab.release(b);
        assert_eq!(slab.live(), 0);
        slab.alloc(meta(2));
        assert_eq!(slab.live(), 1);
    }

    #[test]
    fn releasing_no_tag_is_a_no_op() {
        let mut slab = MetaSlab::new();
        let tag = slab.alloc(meta(0));
        slab.release(Flit::gs(0).tag());
        assert_eq!(slab.live(), 1);
        assert_eq!(
            slab.alloc(meta(1)),
            tag + 1,
            "nothing entered the free list"
        );
    }

    #[test]
    fn the_last_handle_below_no_tag_is_usable() {
        assert_eq!(fresh_tag(Flit::NO_TAG as usize - 1), Flit::NO_TAG - 1);
    }

    #[test]
    #[should_panic(expected = "handle space exhausted")]
    fn handle_space_is_asserted() {
        fresh_tag(Flit::NO_TAG as usize);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released twice")]
    fn double_release_is_caught_in_debug() {
        let mut slab = MetaSlab::new();
        let tag = slab.alloc(meta(0));
        slab.release(tag);
        slab.release(tag);
    }
}
