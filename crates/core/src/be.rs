//! Best-effort router inputs (Fig. 7).
//!
//! The BE router has an input per direction (four network inputs fed by the
//! split stage's BE target, the local NA interface, and — our extension —
//! the programming interface, which injects acknowledgment packets). Each
//! input holds a small latch FIFO (unsharebox + staging) and a routing
//! decision for the packet currently passing through. Each network output
//! holds a small output stage that contends for the shared link through the
//! link arbiter (Fig. 8: the BE router is integrated into the GS router as
//! one more channel), plus the credit counter of the credit-based BE flow
//! control (Sec. 5). Outputs arbitrate fairly between inputs and keep the
//! grant until a packet's last flit ("packet coherency").
//!
//! Every router's BE state lives in the network-owned
//! [`crate::be_arena::BeArena`]; this module names its inputs.

use crate::ids::Direction;
use std::fmt;

/// A BE router input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeInput {
    /// From the split stage of network input port `dir`.
    Net(Direction),
    /// From the local NA's BE interface.
    LocalNa,
    /// From the programming interface (acknowledgment packets).
    Prog,
}

impl BeInput {
    /// All inputs in index order.
    pub const ALL: [BeInput; 6] = [
        BeInput::Net(Direction::North),
        BeInput::Net(Direction::East),
        BeInput::Net(Direction::South),
        BeInput::Net(Direction::West),
        BeInput::LocalNa,
        BeInput::Prog,
    ];

    /// Dense index in `0..6`.
    pub fn index(self) -> usize {
        match self {
            BeInput::Net(d) => d.index(),
            BeInput::LocalNa => 4,
            BeInput::Prog => 5,
        }
    }

    /// The arrival direction seen by the header-routing logic (`None` for
    /// locally injected packets).
    pub fn arrival_dir(self) -> Option<Direction> {
        match self {
            BeInput::Net(d) => Some(d),
            BeInput::LocalNa | BeInput::Prog => None,
        }
    }
}

impl fmt::Display for BeInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeInput::Net(d) => write!(f, "be-in-{d}"),
            BeInput::LocalNa => f.write_str("be-in-local"),
            BeInput::Prog => f.write_str("be-in-prog"),
        }
    }
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::reference::BeUnit;
    use super::*;
    use crate::flit::Flit;
    use crate::packet::BeDest;

    #[test]
    fn input_indexing_is_dense_and_stable() {
        for (expect, input) in BeInput::ALL.into_iter().enumerate() {
            assert_eq!(input.index(), expect);
        }
    }

    #[test]
    fn arrival_dir_distinguishes_network_and_local() {
        assert_eq!(
            BeInput::Net(Direction::West).arrival_dir(),
            Some(Direction::West)
        );
        assert_eq!(BeInput::LocalNa.arrival_dir(), None);
        assert_eq!(BeInput::Prog.arrival_dir(), None);
    }

    #[test]
    fn needs_routing_only_between_packets() {
        let mut unit = BeUnit::new();
        let input = BeInput::LocalNa;
        assert!(!unit.input(input).needs_routing(), "empty latch");
        unit.input_mut(input).latch.push(Flit::be(0, false));
        assert!(unit.input(input).needs_routing());
        unit.input_mut(input).routing = true;
        assert!(!unit.input(input).needs_routing(), "decode in flight");
        unit.input_mut(input).routing = false;
        unit.input_mut(input).in_progress = Some(BeDest::Local);
        assert!(!unit.input(input).needs_routing(), "packet in progress");
    }

    #[test]
    fn can_move_requires_decision_and_idle_pipeline() {
        let mut unit = BeUnit::new();
        let i = BeInput::Net(Direction::North);
        unit.input_mut(i).latch.push(Flit::be(0, true));
        assert!(!unit.input(i).can_move(), "no decision yet");
        unit.input_mut(i).in_progress = Some(BeDest::Net(Direction::South));
        assert!(unit.input(i).can_move());
        unit.input_mut(i).moving = true;
        assert!(!unit.input(i).can_move());
    }

    #[test]
    fn link_ready_needs_flit_and_credit() {
        let mut unit = BeUnit::new();
        let out = &mut unit.outputs[0];
        assert!(!out.link_ready());
        out.buf.push(Flit::be(0, true));
        assert!(out.link_ready());
        out.credits = 0;
        assert!(!out.link_ready());
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_is_detected() {
        let mut unit = BeUnit::new();
        unit.outputs[0].add_credit();
    }

    #[test]
    fn credit_decrement_and_return_roundtrip() {
        let mut unit = BeUnit::new();
        unit.outputs[1].credits -= 1;
        unit.outputs[1].credits -= 1;
        assert!(!unit.outputs[1].link_ready());
        unit.outputs[1].add_credit();
        unit.outputs[1].buf.push(Flit::be(0, true));
        assert!(unit.outputs[1].link_ready());
    }

    #[test]
    fn rr_pick_rotates_fairly() {
        let contenders = vec![
            BeInput::Net(Direction::North), // 0
            BeInput::Net(Direction::South), // 2
            BeInput::LocalNa,               // 4
        ];
        let (first, rr) = BeUnit::rr_pick(&contenders, 5).unwrap();
        assert_eq!(first, BeInput::Net(Direction::North), "wraps past 5");
        let (second, rr) = BeUnit::rr_pick(&contenders, rr).unwrap();
        assert_eq!(second, BeInput::Net(Direction::South));
        let (third, rr) = BeUnit::rr_pick(&contenders, rr).unwrap();
        assert_eq!(third, BeInput::LocalNa);
        let (wrap, _) = BeUnit::rr_pick(&contenders, rr).unwrap();
        assert_eq!(wrap, BeInput::Net(Direction::North));
    }

    #[test]
    fn rr_pick_empty_is_none() {
        assert_eq!(BeUnit::rr_pick(&[], 0), None);
    }

    #[test]
    fn has_work_tracks_all_stages() {
        let mut unit = BeUnit::new();
        assert!(!unit.has_work());
        unit.prog_rx.push(1);
        assert!(unit.has_work());
        unit.prog_rx.clear();
        unit.outputs[3].buf.push(Flit::be(0, true));
        assert!(unit.has_work());
    }
}
