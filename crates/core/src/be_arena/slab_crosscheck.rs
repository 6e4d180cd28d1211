//! Property-based cross-check of the slab-backed BE hot state against
//! the retained reference state machine.
//!
//! The `BeArena` packs each router's BE metadata into one 64-byte block
//! and keeps flits in router-major slabs; `BeUnit` is the per-router
//! reference. Proptest drives both through identical arbitrary op
//! sequences — over *two* routers, so a layout bug that lets one
//! router's block bleed into its neighbour's is caught — and every
//! observable must agree after every op. This is the property-test form
//! of the LCG cross-check next door (`arena_matches_reference_be_unit`),
//! with shrinking: a failing sequence minimizes to the shortest op list
//! that splits the two implementations.
//!
//! The slab has one thing the reference does not: credits *parked* at an
//! output with the slot they are due at, absorbed into the counter by
//! the first reader past it. The reference gets such a credit the moment
//! its slot passes (`Mirror::parked` keeps the due times), so the counter
//! after every absorb — and `out_link_ready_at` before it — must agree
//! with the reference just the same.

use crate::be::reference::BeUnit;
use crate::{BeArena, BeDest, BeInput, BeSlots, Direction, Flit, BE_INPUT_DEPTH};
use mango_sim::{SimTime, Slot};
use proptest::prelude::*;

/// A router's reference unit plus the due times (ps) of the credits
/// parked at each of its outputs.
struct Mirror {
    unit: BeUnit,
    parked: [Vec<u64>; 4],
}

/// The slot past every event due at or before `ps`.
fn upto(ps: u64) -> Slot {
    Slot::end_of(SimTime::from_ps(ps))
}

/// One generated operation against a router's BE state.
#[derive(Debug, Clone, Copy)]
enum Op {
    InPush(BeInput, u32),
    InPop(BeInput),
    InSetProgress(BeInput, Option<BeDest>),
    InSetRouting(BeInput, bool),
    InSetMoving(BeInput, bool),
    OutPush(Direction, u32),
    OutPop(Direction),
    OutTakeOrAddCredit(Direction),
    /// Park a credit due `.1` ps from now.
    OutParkCredit(Direction, u64),
    /// Read the counter: absorb what is due.
    OutAbsorb(Direction),
    OutLock(Direction, Option<BeInput>, usize),
    LocalLock(Option<BeInput>, usize),
}

fn input_strategy() -> impl Strategy<Value = BeInput> {
    (0usize..6).prop_map(|i| BeInput::ALL[i])
}

fn dir_strategy() -> impl Strategy<Value = Direction> {
    (0usize..4).prop_map(|i| Direction::ALL[i])
}

fn dest_strategy() -> impl Strategy<Value = Option<BeDest>> {
    prop_oneof![
        Just(None),
        Just(Some(BeDest::Local)),
        dir_strategy().prop_map(|d| Some(BeDest::Net(d))),
    ]
}

fn lock_strategy() -> impl Strategy<Value = Option<BeInput>> {
    prop_oneof![Just(None), input_strategy().prop_map(Some)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (input_strategy(), any::<u32>()).prop_map(|(i, t)| Op::InPush(i, t)),
        input_strategy().prop_map(Op::InPop),
        (input_strategy(), dest_strategy()).prop_map(|(i, d)| Op::InSetProgress(i, d)),
        (input_strategy(), any::<bool>()).prop_map(|(i, b)| Op::InSetRouting(i, b)),
        (input_strategy(), any::<bool>()).prop_map(|(i, b)| Op::InSetMoving(i, b)),
        (dir_strategy(), any::<u32>()).prop_map(|(d, t)| Op::OutPush(d, t)),
        dir_strategy().prop_map(Op::OutPop),
        dir_strategy().prop_map(Op::OutTakeOrAddCredit),
        (dir_strategy(), 0u64..40).prop_map(|(d, due)| Op::OutParkCredit(d, due)),
        dir_strategy().prop_map(Op::OutAbsorb),
        (dir_strategy(), lock_strategy(), 0usize..6).prop_map(|(d, l, rr)| Op::OutLock(d, l, rr)),
        (lock_strategy(), 0usize..6).prop_map(|(l, rr)| Op::LocalLock(l, rr)),
    ]
}

fn flit(tag: u32) -> Flit {
    Flit::be(tag, tag.is_multiple_of(3))
}

/// All BE destination codes the contender mask is defined over.
const DESTS: [BeDest; 5] = [
    BeDest::Local,
    BeDest::Net(Direction::North),
    BeDest::Net(Direction::East),
    BeDest::Net(Direction::South),
    BeDest::Net(Direction::West),
];

/// Applies `op` at time `now` (ps) to both implementations, then asserts
/// every observable of `router`'s slots agrees with the reference.
fn apply_and_check(arena: &mut BeArena, slots: BeSlots, mirror: &mut Mirror, op: Op, now: u64) {
    let Mirror { unit, parked } = mirror;
    match op {
        Op::InPush(input, tag) => {
            if !unit.input(input).latch.is_full() {
                unit.input_mut(input).latch.push(flit(tag));
                arena.in_push(arena.in_slot(slots, input), flit(tag));
            }
        }
        Op::InPop(input) => {
            assert_eq!(
                unit.input_mut(input).latch.pop(),
                arena.in_pop(arena.in_slot(slots, input))
            );
        }
        Op::InSetProgress(input, dest) => {
            unit.input_mut(input).in_progress = dest;
            arena.set_in_progress(arena.in_slot(slots, input), dest);
        }
        Op::InSetRouting(input, on) => {
            unit.input_mut(input).routing = on;
            arena.set_in_routing(arena.in_slot(slots, input), on);
        }
        Op::InSetMoving(input, on) => {
            unit.input_mut(input).moving = on;
            arena.set_in_moving(arena.in_slot(slots, input), on);
        }
        Op::OutPush(dir, tag) => {
            if !unit.outputs[dir.index()].buf.is_full() {
                unit.outputs[dir.index()].buf.push(flit(tag));
                arena.out_push(arena.out_slot(slots, dir), flit(tag));
            }
        }
        Op::OutPop(dir) => {
            assert_eq!(
                unit.outputs[dir.index()].buf.pop(),
                arena.out_pop(arena.out_slot(slots, dir))
            );
        }
        Op::OutTakeOrAddCredit(dir) => {
            let slot = arena.out_slot(slots, dir);
            if unit.outputs[dir.index()].credits > 0 {
                unit.outputs[dir.index()].credits -= 1;
                arena.out_take_credit(slot);
            } else if parked[dir.index()].len() < BE_INPUT_DEPTH {
                unit.outputs[dir.index()].add_credit();
                arena.out_add_credit(slot);
            }
        }
        Op::OutParkCredit(dir, due) => {
            let held = unit.outputs[dir.index()].credits + parked[dir.index()].len();
            if held < BE_INPUT_DEPTH {
                arena.out_park_credit(arena.out_slot(slots, dir), upto(now + due));
                parked[dir.index()].push(now + due);
            }
        }
        Op::OutAbsorb(dir) => {
            let slot = arena.out_slot(slots, dir);
            let due = parked[dir.index()].iter().filter(|&&t| t <= now).count();
            let ready_then = unit.outputs[dir.index()].link_ready()
                || (!unit.outputs[dir.index()].buf.is_empty() && due > 0);
            assert_eq!(arena.out_link_ready_at(slot, upto(now)), ready_then);
            arena.out_absorb_credits(slot, upto(now));
            parked[dir.index()].retain(|&t| t > now);
            for _ in 0..due {
                unit.outputs[dir.index()].add_credit();
            }
        }
        Op::OutLock(dir, lock, rr) => {
            unit.outputs[dir.index()].locked_to = lock;
            unit.outputs[dir.index()].rr = rr;
            let slot = arena.out_slot(slots, dir);
            arena.set_out_locked_to(slot, lock);
            arena.set_out_rr(slot, rr);
        }
        Op::LocalLock(lock, rr) => {
            unit.local_out.locked_to = lock;
            unit.local_out.rr = rr;
            arena.set_local_locked_to(slots, lock);
            arena.set_local_rr(slots, rr);
        }
    }

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
        assert_eq!(arena.out_parked(s).len(), parked[d.index()].len());
        assert_eq!(arena.out_link_ready(s), r.link_ready());
        assert_eq!(arena.out_locked_to(s), r.locked_to);
        assert_eq!(arena.out_rr(s), r.rr);
    }
    assert_eq!(arena.local_locked_to(slots), unit.local_out.locked_to);
    assert_eq!(arena.local_rr(slots), unit.local_out.rr);
    for dest in DESTS {
        assert_eq!(arena.contender_mask(slots, dest), unit.contender_mask(dest));
    }
    assert_eq!(arena.has_work(slots), unit.has_work());
    assert_eq!(
        arena.flits_buffered(slots),
        unit.inputs.iter().map(|i| i.latch.len()).sum::<usize>()
            + unit.outputs.iter().map(|o| o.buf.len()).sum::<usize>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two routers in one slab, each mirrored by its own reference unit;
    /// the interleaved op streams must leave both routers' observable
    /// state identical to their references at every step.
    #[test]
    fn be_slab_matches_reference_state_machine(
        ops in proptest::collection::vec((0usize..2, op_strategy()), 1..400),
    ) {
        let mut arena = BeArena::with_capacity(2);
        let slots = [arena.add_router(), arena.add_router()];
        let mut mirrors = [(); 2].map(|()| Mirror {
            unit: BeUnit::new(),
            parked: Default::default(),
        });
        for (step, (router, op)) in ops.into_iter().enumerate() {
            // Ten picoseconds an op: parked credits fall due a few ops on.
            let now = step as u64 * 10;
            apply_and_check(&mut arena, slots[router], &mut mirrors[router], op, now);
            // The untouched router must be unaffected by its neighbour.
            let other = 1 - router;
            let routing = mirrors[other].unit.input(BeInput::Prog).routing;
            apply_and_check(
                &mut arena,
                slots[other],
                &mut mirrors[other],
                Op::InSetRouting(BeInput::Prog, routing),
                now,
            );
        }
    }
}
