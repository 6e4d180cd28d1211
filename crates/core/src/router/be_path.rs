//! The best-effort unit (Sec. 5): header-rotation routing, fair output
//! arbitration with packet coherency, and credit-based flow control.
//!
//! All BE latch/steering state lives in the network-owned [`BeArena`];
//! the router addresses its slots through [`Router::be_slots`] exactly
//! as the GS path addresses the [`crate::arena::GsArena`].

use super::Router;
use crate::be::BeInput;
use crate::be_arena::{rr_pick_mask, BeArena};
use crate::events::{InternalEvent, RouterAction};
use crate::flit::Flit;
use crate::packet::{BeDest, BeHeader};
use mango_sim::Slot;

impl Router {
    pub(super) fn be_arrive(
        &mut self,
        be: &mut BeArena,
        input: BeInput,
        flit: Flit,
        act: &mut Vec<RouterAction>,
    ) {
        be.in_push(be.in_slot(self.be_slots, input), flit);
        self.be_service(be, input, act);
    }

    /// Advances an input: start header decode between packets, or contend
    /// for the current packet's output.
    pub(super) fn be_service(
        &mut self,
        be: &mut BeArena,
        input: BeInput,
        act: &mut Vec<RouterAction>,
    ) {
        let slot = be.in_slot(self.be_slots, input);
        if be.in_routing(slot) || be.in_moving(slot) {
            return;
        }
        match be.in_progress(slot) {
            None => {
                if !be.in_is_empty(slot) {
                    be.set_in_routing(slot, true);
                    act.push(RouterAction::Internal {
                        delay: self.cfg.timing.be_route,
                        event: InternalEvent::BeRouted { input },
                    });
                }
            }
            Some(dest) => self.be_try_output(be, dest, act),
        }
    }

    /// Route decode finished: read the header's two MSBs, rotate it, and
    /// record the decision.
    pub(super) fn be_routed(
        &mut self,
        be: &mut BeArena,
        input: BeInput,
        act: &mut Vec<RouterAction>,
    ) {
        let arrival = input.arrival_dir();
        let slot = be.in_slot(self.be_slots, input);
        be.set_in_routing(slot, false);
        let header_flit = be
            .in_front_mut(slot)
            .expect("BeRouted with empty latch: decode raced a pop");
        let (dest, rotated) = BeHeader(header_flit.data).route(arrival);
        header_flit.data = rotated.0;
        be.set_in_progress(slot, Some(dest));
        self.be_try_output(be, dest, act);
    }

    /// Output-side fair arbitration with packet coherency: the lock holder
    /// pumps; a free output picks the next contender round-robin.
    pub(super) fn be_try_output(
        &mut self,
        be: &mut BeArena,
        dest: BeDest,
        act: &mut Vec<RouterAction>,
    ) {
        let holder = match dest {
            BeDest::Net(d) => be.out_locked_to(be.out_slot(self.be_slots, d)),
            BeDest::Local => be.local_locked_to(self.be_slots),
        };
        let input = match holder {
            Some(input) => input,
            None => {
                let contenders = be.contender_mask(self.be_slots, dest);
                let rr = match dest {
                    BeDest::Net(d) => be.out_rr(be.out_slot(self.be_slots, d)),
                    BeDest::Local => be.local_rr(self.be_slots),
                };
                let Some((input, new_rr)) = rr_pick_mask(contenders, rr) else {
                    return;
                };
                match dest {
                    BeDest::Net(d) => {
                        let slot = be.out_slot(self.be_slots, d);
                        be.set_out_locked_to(slot, Some(input));
                        be.set_out_rr(slot, new_rr);
                    }
                    BeDest::Local => {
                        be.set_local_locked_to(self.be_slots, Some(input));
                        be.set_local_rr(self.be_slots, new_rr);
                    }
                }
                input
            }
        };
        self.be_pump(be, input, dest, act);
    }

    /// Moves the lock holder's next flit toward the output if everything
    /// is in place.
    pub(super) fn be_pump(
        &mut self,
        be: &mut BeArena,
        input: BeInput,
        dest: BeDest,
        act: &mut Vec<RouterAction>,
    ) {
        let slot = be.in_slot(self.be_slots, input);
        if be.in_moving(slot) || be.in_routing(slot) || be.in_is_empty(slot) {
            return;
        }
        debug_assert_eq!(be.in_progress(slot), Some(dest));
        if let BeDest::Net(d) = dest {
            if be.out_is_full(be.out_slot(self.be_slots, d)) {
                return; // kicked again when the link drains the stage
            }
        }
        let flit = be.in_pop(slot).expect("checked non-empty");
        be.set_in_moving(slot, true);
        // Popping the latch frees a slot: return the flow-control credit
        // one hop back.
        match input {
            BeInput::Net(d) => act.push(RouterAction::SendCredit {
                dir: d,
                delay: self.cfg.timing.credit_return,
            }),
            BeInput::LocalNa => act.push(RouterAction::NaCredit),
            BeInput::Prog => {
                // The latch freed a slot: staged ack flits may enter.
                self.prog_pump(be, act);
            }
        }
        act.push(RouterAction::Internal {
            delay: self.cfg.timing.be_arb,
            event: InternalEvent::BeMoved { input, dest, flit },
        });
    }

    /// A flit completed the input→output move.
    pub(super) fn be_moved(
        &mut self,
        be: &mut BeArena,
        input: BeInput,
        dest: BeDest,
        flit: Flit,
        stamp: Slot,
        act: &mut Vec<RouterAction>,
    ) {
        be.set_in_moving(be.in_slot(self.be_slots, input), false);
        match dest {
            BeDest::Net(d) => {
                be.out_push(be.out_slot(self.be_slots, d), flit);
                self.update_be_ready(be, d, stamp, act);
                self.kick_arb(d, stamp, act);
            }
            BeDest::Local => self.be_deliver_local(be, flit, act),
        }
        if flit.eop() {
            // Packet done: release the coherency lock and the decision.
            be.set_in_progress(be.in_slot(self.be_slots, input), None);
            match dest {
                BeDest::Net(d) => be.set_out_locked_to(be.out_slot(self.be_slots, d), None),
                BeDest::Local => be.set_local_locked_to(self.be_slots, None),
            }
            // The next packet in this latch needs a fresh route decode...
            self.be_service(be, input, act);
            // ...and other inputs may take the freed output.
            self.be_try_output(be, dest, act);
        } else {
            self.be_pump(be, input, dest, act);
        }
    }

    /// Local BE delivery: NA traffic goes to the NA; flits with the config
    /// marker are consumed by the programming interface (Sec. 3: "The GS
    /// connections are set up by programming these into the GS router via
    /// the BE router").
    pub(super) fn be_deliver_local(
        &mut self,
        be: &mut BeArena,
        flit: Flit,
        act: &mut Vec<RouterAction>,
    ) {
        if flit.be_vc() {
            self.prog_rx.push(flit.data);
            if flit.eop() {
                let words = std::mem::take(&mut self.prog_rx);
                // Drop the header word: it carried the route here.
                self.prog_consume(be, &words[1..], act);
            }
        } else {
            act.push(RouterAction::DeliverBe { flit });
        }
    }
}
