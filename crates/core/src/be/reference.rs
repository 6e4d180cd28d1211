//! The per-router reference BE unit: the state of Fig. 7 as one struct
//! of per-input and per-output FIFOs.
//!
//! Test-only: the router runs on [`crate::be_arena::BeArena`], and
//! [`BeUnit`] is the oracle the arena is cross-checked against after
//! every operation (`be_arena`'s `arena_matches_reference_be_unit` and
//! the `slab_crosscheck` property).

use super::BeInput;
use crate::be_arena::rr_pick_mask;
use crate::config::{BE_INPUT_DEPTH, BE_OUTPUT_DEPTH};
use crate::fifo::Fifo;
use crate::flit::Flit;
use crate::packet::BeDest;

/// Per-input state.
#[derive(Debug, Clone)]
pub struct BeInputState {
    /// Latch FIFO (unsharebox + staging).
    pub latch: Fifo<Flit>,
    /// Routing decision for the packet currently in progress.
    pub in_progress: Option<BeDest>,
    /// A `BeRouted` event is in flight.
    pub routing: bool,
    /// A `BeMoved` event is in flight.
    pub moving: bool,
}

impl BeInputState {
    fn new() -> Self {
        BeInputState {
            latch: Fifo::new(BE_INPUT_DEPTH),
            in_progress: None,
            routing: false,
            moving: false,
        }
    }

    /// True if the input is between packets and a newly arrived flit would
    /// be a header needing route decode.
    pub fn needs_routing(&self) -> bool {
        self.in_progress.is_none() && !self.routing && !self.latch.is_empty()
    }

    /// True if the input can move its front flit right now (has a decision,
    /// no event in flight, flit present).
    pub fn can_move(&self) -> bool {
        self.in_progress.is_some() && !self.routing && !self.moving && !self.latch.is_empty()
    }
}

/// Per-network-output state.
#[derive(Debug, Clone)]
pub struct BeOutputState {
    /// Output stage FIFO feeding the link arbiter.
    pub buf: Fifo<Flit>,
    /// Credits for the downstream router's BE input latch.
    pub credits: usize,
    /// Input currently holding this output (packet coherency).
    pub locked_to: Option<BeInput>,
    /// Round-robin pointer for fair input arbitration.
    pub rr: usize,
}

impl BeOutputState {
    fn new() -> Self {
        BeOutputState {
            buf: Fifo::new(BE_OUTPUT_DEPTH),
            credits: BE_INPUT_DEPTH,
            locked_to: None,
            rr: 0,
        }
    }

    /// True if this output's link-arbiter slot is ready: a flit staged and
    /// a credit available.
    pub fn link_ready(&self) -> bool {
        !self.buf.is_empty() && self.credits > 0
    }

    /// A credit returned from downstream.
    ///
    /// # Panics
    ///
    /// Panics if credits exceed the initial allocation — a credit
    /// accounting bug.
    pub fn add_credit(&mut self) {
        self.credits += 1;
        assert!(
            self.credits <= BE_INPUT_DEPTH,
            "BE credit overflow: more credits than buffer slots"
        );
    }
}

/// The local output (delivery to the NA / programming interface): no
/// buffering — delivery is immediate — but it still needs the coherency
/// lock and fair arbitration so packets from different inputs do not
/// interleave.
#[derive(Debug, Clone, Default)]
pub struct BeLocalOut {
    /// Input currently delivering a packet.
    pub locked_to: Option<BeInput>,
    /// Round-robin pointer.
    pub rr: usize,
}

/// The complete BE unit state.
#[derive(Debug, Clone)]
pub struct BeUnit {
    /// Input latches, indexed by [`BeInput::index`].
    pub inputs: [BeInputState; 6],
    /// Network output stages, indexed by [`Direction::index`].
    pub outputs: [BeOutputState; 4],
    /// The local delivery output.
    pub local_out: BeLocalOut,
    /// Programming-interface receive buffer (config payload words).
    pub prog_rx: Vec<u32>,
}

impl BeUnit {
    /// Creates an empty BE unit: every output holds a full set of
    /// credits toward its neighbour's latch.
    pub fn new() -> Self {
        BeUnit {
            inputs: std::array::from_fn(|_| BeInputState::new()),
            outputs: std::array::from_fn(|_| BeOutputState::new()),
            local_out: BeLocalOut::default(),
            prog_rx: Vec::new(),
        }
    }

    /// Shared access to an input.
    pub fn input(&self, i: BeInput) -> &BeInputState {
        &self.inputs[i.index()]
    }

    /// Exclusive access to an input.
    pub fn input_mut(&mut self, i: BeInput) -> &mut BeInputState {
        &mut self.inputs[i.index()]
    }

    /// The inputs currently contending for `dest` (decision made, flit
    /// staged, no event in flight) as a bitmask over [`BeInput::ALL`]
    /// indices.
    pub fn contender_mask(&self, dest: BeDest) -> u8 {
        let mut mask = 0u8;
        for (bit, s) in self.inputs.iter().enumerate() {
            if s.in_progress == Some(dest) && s.can_move() {
                mask |= 1 << bit;
            }
        }
        mask
    }

    /// Fair round-robin pick among `contenders` for an output whose
    /// round-robin pointer is `rr`; returns the chosen input and the new
    /// pointer value.
    pub fn rr_pick(contenders: &[BeInput], rr: usize) -> Option<(BeInput, usize)> {
        let mut mask = 0u8;
        for c in contenders {
            mask |= 1 << c.index();
        }
        rr_pick_mask(mask, rr)
    }

    /// True if any flit or decision state is held anywhere in the unit.
    pub fn has_work(&self) -> bool {
        self.inputs
            .iter()
            .any(|i| !i.latch.is_empty() || i.routing || i.moving || i.in_progress.is_some())
            || self.outputs.iter().any(|o| !o.buf.is_empty())
            || !self.prog_rx.is_empty()
    }
}
