//! GS buffer state machines: the unsharebox latch, the output buffer, and
//! the sharebox lock (Fig. 6, Sec. 4.3–4.4) — one buffer per value.
//!
//! Test-only: the router runs on [`crate::arena::GsArena`], and these
//! types are the oracle its slots are cross-checked against, operation
//! for operation, in the arena's tests.
//!
//! Per hop, a GS VC owns exactly two flits of storage: the unsharebox latch
//! (filled by the non-blocking switch) and the output buffer proper (depth
//! 1 in the paper). The sharebox admits one flit at a time to the shared
//! media (link + next router's switching module); it stays locked until the
//! far-side unsharebox reports the flit has moved on, so no flit can ever
//! stall inside the shared media.

use crate::config::NA_RX_DEPTH;
use crate::fifo::Fifo;
use crate::flit::Flit;

/// State of one network-output GS VC buffer.
#[derive(Debug, Clone)]
pub struct VcBufferState {
    /// The unsharebox latch at the tail of the shared media.
    unshare: Option<Flit>,
    /// The output buffer (paper: depth 1).
    buffer: Fifo<Flit>,
    /// Sharebox lock: a flit of this VC is in the shared media or waiting
    /// in the downstream unsharebox.
    locked: bool,
    /// A `GsAdvance` event is in flight.
    advance_pending: bool,
}

impl VcBufferState {
    /// Creates an empty VC buffer of the given depth.
    pub fn new(depth: usize) -> Self {
        VcBufferState {
            unshare: None,
            buffer: Fifo::new(depth),
            locked: false,
            advance_pending: false,
        }
    }

    /// A flit lands in the unsharebox (from the switching module).
    ///
    /// # Panics
    ///
    /// Panics if the unsharebox is occupied — that means the upstream
    /// sharebox admitted a second flit before the unlock, violating the
    /// share-based VC control protocol.
    pub fn arrive(&mut self, flit: Flit) {
        assert!(
            self.unshare.is_none(),
            "share-based VC control violated: unsharebox occupied on arrival"
        );
        self.unshare = Some(flit);
    }

    /// True if an unsharebox→buffer advance can start now.
    pub fn can_advance(&self) -> bool {
        self.unshare.is_some() && !self.buffer.is_full() && !self.advance_pending
    }

    /// Marks an advance event as scheduled.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::can_advance`] is false.
    pub fn begin_advance(&mut self) {
        assert!(self.can_advance(), "begin_advance without can_advance");
        self.advance_pending = true;
    }

    /// Completes the advance: the flit leaves the unsharebox (triggering
    /// the upstream unlock toggle) and enters the buffer.
    pub fn complete_advance(&mut self) -> &Flit {
        debug_assert!(self.advance_pending, "advance completion without begin");
        self.advance_pending = false;
        let flit = self.unshare.take().expect("advance with empty unsharebox");
        self.buffer.push(flit);
        self.buffer.iter().last().expect("just pushed")
    }

    /// True if this VC is requesting link access: a flit is buffered and
    /// the sharebox is unlocked.
    pub fn is_ready(&self) -> bool {
        !self.locked && !self.buffer.is_empty()
    }

    /// Link access granted: pops the flit and locks the sharebox.
    ///
    /// # Panics
    ///
    /// Panics if the VC was not ready.
    pub fn grant(&mut self) -> Flit {
        assert!(self.is_ready(), "grant to non-ready VC");
        self.locked = true;
        self.buffer.pop().expect("ready implies buffered flit")
    }

    /// The downstream unlock toggle arrived: the sharebox opens.
    ///
    /// # Panics
    ///
    /// Panics if the sharebox was not locked — an unlock without a
    /// preceding flit is a VC-control wiring error.
    pub fn unlock(&mut self) {
        assert!(self.locked, "unlock toggle on unlocked sharebox");
        self.locked = false;
    }

    /// True if the sharebox is locked.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// True if no flit is stored here and none is pending.
    pub fn is_empty(&self) -> bool {
        self.unshare.is_none() && self.buffer.is_empty()
    }
}

/// State of one local-port GS interface buffer (delivery to the NA).
///
/// Structurally a [`VcBufferState`] whose "link" is the NA: instead of a
/// sharebox, delivery is throttled by the NA's receive slots, extending the
/// unlock chain to the consumer — this is what makes end-to-end flow
/// control "inherent" in MANGO (Sec. 6).
#[derive(Debug, Clone)]
pub struct LocalGsState {
    unshare: Option<Flit>,
    buffer: Fifo<Flit>,
    advance_pending: bool,
    /// Free delivery slots in the NA.
    na_free: usize,
}

impl LocalGsState {
    /// Creates the interface buffer with `depth` flits of buffering and
    /// [`NA_RX_DEPTH`] NA delivery slots.
    pub fn new(depth: usize) -> Self {
        LocalGsState {
            unshare: None,
            buffer: Fifo::new(depth),
            advance_pending: false,
            na_free: NA_RX_DEPTH,
        }
    }

    /// A flit lands in the unsharebox.
    ///
    /// # Panics
    ///
    /// Panics on unsharebox overrun (protocol violation).
    pub fn arrive(&mut self, flit: Flit) {
        assert!(
            self.unshare.is_none(),
            "share-based VC control violated: local unsharebox occupied"
        );
        self.unshare = Some(flit);
    }

    /// True if an advance can start.
    pub fn can_advance(&self) -> bool {
        self.unshare.is_some() && !self.buffer.is_full() && !self.advance_pending
    }

    /// Marks an advance as scheduled.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::can_advance`] is false.
    pub fn begin_advance(&mut self) {
        assert!(self.can_advance(), "begin_advance without can_advance");
        self.advance_pending = true;
    }

    /// Completes the advance into the buffer.
    pub fn complete_advance(&mut self) {
        debug_assert!(self.advance_pending);
        self.advance_pending = false;
        let flit = self.unshare.take().expect("advance with empty unsharebox");
        self.buffer.push(flit);
    }

    /// Pops the next flit for delivery if the NA has a free slot.
    pub fn try_deliver(&mut self) -> Option<Flit> {
        if self.na_free > 0 && !self.buffer.is_empty() {
            self.na_free -= 1;
            self.buffer.pop()
        } else {
            None
        }
    }

    /// The NA consumed a delivered flit, freeing a slot.
    pub fn na_consumed(&mut self) {
        self.na_free += 1;
        assert!(
            self.na_free <= NA_RX_DEPTH,
            "NA returned more delivery slots than it has"
        );
    }

    /// True if nothing is stored here.
    pub fn is_empty(&self) -> bool {
        self.unshare.is_none() && self.buffer.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(n: u32) -> Flit {
        Flit::gs(n)
    }

    #[test]
    fn nominal_flow_arrive_advance_grant_unlock() {
        let mut vc = VcBufferState::new(1);
        assert!(vc.is_empty());
        vc.arrive(flit(1));
        assert!(vc.can_advance());
        assert!(!vc.is_ready(), "flit still in unsharebox");
        vc.begin_advance();
        vc.complete_advance();
        assert!(vc.is_ready());
        let f = vc.grant();
        assert_eq!(f.data, 1);
        assert!(vc.is_locked());
        assert!(!vc.is_ready(), "locked sharebox blocks next request");
        vc.unlock();
        assert!(!vc.is_locked());
        assert!(vc.is_empty());
    }

    #[test]
    fn pipeline_holds_two_flits() {
        let mut vc = VcBufferState::new(1);
        vc.arrive(flit(1));
        vc.begin_advance();
        vc.complete_advance();
        vc.arrive(flit(2)); // buffer full: flit 2 parks in the unsharebox
        assert!(!vc.can_advance(), "buffer full blocks advance");
        let f = vc.grant();
        assert_eq!(f.data, 1);
        assert!(vc.can_advance(), "grant freed the buffer");
    }

    #[test]
    #[should_panic(expected = "share-based VC control violated")]
    fn double_arrival_is_protocol_violation() {
        let mut vc = VcBufferState::new(1);
        vc.arrive(flit(1));
        vc.arrive(flit(2));
    }

    #[test]
    #[should_panic(expected = "unlock toggle on unlocked sharebox")]
    fn spurious_unlock_is_protocol_violation() {
        let mut vc = VcBufferState::new(1);
        vc.unlock();
    }

    #[test]
    #[should_panic(expected = "grant to non-ready VC")]
    fn grant_without_flit_panics() {
        let mut vc = VcBufferState::new(1);
        let _ = vc.grant();
    }

    #[test]
    #[should_panic(expected = "begin_advance without can_advance")]
    fn double_begin_advance_panics() {
        let mut vc = VcBufferState::new(1);
        vc.arrive(flit(1));
        vc.begin_advance();
        vc.begin_advance();
    }

    #[test]
    fn deeper_buffers_hold_more() {
        let mut vc = VcBufferState::new(3);
        for i in 0..3 {
            vc.arrive(flit(i));
            vc.begin_advance();
            vc.complete_advance();
        }
        vc.arrive(flit(99));
        assert!(!vc.can_advance());
    }

    #[test]
    fn local_delivery_respects_na_slots() {
        let mut l = LocalGsState::new(1);
        l.arrive(flit(5));
        l.begin_advance();
        l.complete_advance();
        let f = l.try_deliver().expect("slot free");
        assert_eq!(f.data, 5);
        // Slot now used; a second flit waits.
        l.arrive(flit(6));
        l.begin_advance();
        l.complete_advance();
        assert!(l.try_deliver().is_none(), "NA slot exhausted");
        l.na_consumed();
        assert_eq!(l.try_deliver().unwrap().data, 6);
        assert!(l.is_empty());
    }

    #[test]
    #[should_panic(expected = "more delivery slots")]
    fn na_slot_overflow_detected() {
        let mut l = LocalGsState::new(1);
        l.na_consumed();
    }

    #[test]
    #[should_panic(expected = "local unsharebox occupied")]
    fn local_double_arrival_panics() {
        let mut l = LocalGsState::new(1);
        l.arrive(flit(1));
        l.arrive(flit(2));
    }
}
