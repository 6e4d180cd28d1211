//! Property-based tests over the core data structures and whole-network
//! invariants.

use mango::core::{
    BeDest, BeHeader, Direction, Flit, GsBufferRef, Port, ProgWrite, RouterId, Steer, UpstreamRef,
    VcId,
};
use mango::net::{EmitWindow, NocSim, TemporalSpec};
use mango::sim::{RunOutcome, SimDuration, SimRng};
use proptest::prelude::*;

fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::North),
        Just(Direction::East),
        Just(Direction::South),
        Just(Direction::West),
    ]
}

fn steer_target() -> impl Strategy<Value = Steer> {
    prop_oneof![
        (direction(), 0u8..8).prop_map(|(dir, vc)| Steer::GsBuffer { dir, vc: VcId(vc) }),
        (0u8..4).prop_map(|iface| Steer::LocalGs { iface }),
        Just(Steer::BeUnit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every packable steering target round-trips through the 5-bit wire
    /// format from every arrival port.
    #[test]
    fn steer_pack_unpack_roundtrip(target in steer_target(), from in direction(), local in any::<bool>()) {
        let arrival = if local { Port::Local } else { Port::Net(from) };
        if let Ok(code) = target.pack(arrival) {
            prop_assert!(code < 32);
            prop_assert_eq!(Steer::unpack(code, arrival), Ok(target));
        }
    }

    /// BE headers decode back to exactly the route they encode, hop by
    /// hop, and then deliver locally. Routes never reverse direction
    /// (a 180° turn encodes local delivery, so `from_route` rejects it);
    /// generate them as an initial direction plus turn choices.
    #[test]
    fn be_header_follows_its_route(
        first in direction(),
        turns in prop::collection::vec(0u8..3, 0..14),
    ) {
        let mut route = vec![first];
        for t in turns {
            let prev = *route.last().unwrap();
            // 0 = straight, 1 = left, 2 = right — never the opposite.
            let next = match t {
                0 => prev,
                1 => Direction::from_index((prev.index() + 3) % 4),
                _ => Direction::from_index((prev.index() + 1) % 4),
            };
            route.push(next);
        }
        let header = BeHeader::from_route(&route).unwrap();
        let mut h = header;
        let mut from = None;
        for &dir in &route {
            let (dest, next) = h.route(from);
            prop_assert_eq!(dest, BeDest::Net(dir));
            h = next;
            from = Some(dir.opposite());
        }
        let (dest, _) = h.route(from);
        prop_assert_eq!(dest, BeDest::Local);
    }
}

fn gs_buffer() -> impl Strategy<Value = GsBufferRef> {
    prop_oneof![
        (direction(), 0u8..8).prop_map(|(dir, vc)| GsBufferRef::Net { dir, vc: VcId(vc) }),
        (0u8..4).prop_map(|iface| GsBufferRef::Local { iface }),
    ]
}

fn upstream() -> impl Strategy<Value = UpstreamRef> {
    prop_oneof![
        (direction(), 0u8..8).prop_map(|(in_dir, wire)| UpstreamRef::Link {
            in_dir,
            wire: VcId(wire)
        }),
        (0u8..4).prop_map(|iface| UpstreamRef::Na { iface }),
    ]
}

fn prog_write() -> impl Strategy<Value = ProgWrite> {
    prop_oneof![
        (direction(), 0u8..8, steer_target()).prop_map(|(dir, vc, steer)| ProgWrite::SetSteer {
            dir,
            vc: VcId(vc),
            steer
        }),
        (direction(), 0u8..8).prop_map(|(dir, vc)| ProgWrite::ClearSteer { dir, vc: VcId(vc) }),
        (gs_buffer(), upstream())
            .prop_map(|(buffer, upstream)| ProgWrite::SetUnlock { buffer, upstream }),
        gs_buffer().prop_map(|buffer| ProgWrite::ClearUnlock { buffer }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of programming writes survives the 32-bit config-word
    /// encoding.
    #[test]
    fn prog_payload_roundtrip(writes in prop::collection::vec(prog_write(), 0..12)) {
        let words = mango::core::prog::encode_payload(&writes, None);
        let (decoded, ack) = mango::core::prog::decode_payload(&words).unwrap();
        prop_assert_eq!(decoded, writes);
        prop_assert_eq!(ack, None);
    }

    /// The deterministic RNG respects bounds and reproduces streams.
    #[test]
    fn rng_bounds_and_determinism(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            let x = a.gen_range(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.gen_range(bound));
        }
    }
}

proptest! {
    // Whole-network properties are expensive: fewer, bigger cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any single GS connection on any mesh delivers every flit, in
    /// order, regardless of endpoints, rate and count.
    #[test]
    fn gs_delivery_is_lossless_and_ordered(
        w in 2u8..5,
        h in 2u8..5,
        sx in 0u8..4,
        sy in 0u8..4,
        dx in 0u8..4,
        dy in 0u8..4,
        period_ns in 2u64..40,
        count in 50u64..400,
        seed in any::<u64>(),
    ) {
        let (sx, sy) = (sx % w, sy % h);
        let (dx, dy) = (dx % w, dy % h);
        prop_assume!((sx, sy) != (dx, dy));
        let mut sim = NocSim::paper_mesh(w, h, seed);
        let conn = sim
            .open_connection(RouterId::new(sx, sy), RouterId::new(dx, dy))
            .unwrap();
        sim.wait_connections_settled().unwrap();
        let flow = sim.add_gs_source(
            conn,
            TemporalSpec::cbr(SimDuration::from_ns(period_ns)),
            "prop",
            EmitWindow { limit: Some(count), ..Default::default() },
        );
        let outcome = sim.run_to_quiescence();
        prop_assert_eq!(outcome, RunOutcome::Quiescent);
        let s = sim.flow(flow);
        prop_assert_eq!(s.injected, count);
        prop_assert_eq!(s.delivered, count);
        prop_assert_eq!(s.sequence_errors, 0);
    }

    /// Random BE packet sets between random endpoint pairs always drain
    /// (XY deadlock freedom) with nothing lost.
    #[test]
    fn be_xy_traffic_always_drains(
        w in 2u8..5,
        h in 2u8..5,
        pairs in prop::collection::vec((0u8..16, 0u8..16, 1u64..6, 1usize..6), 1..6),
        seed in any::<u64>(),
    ) {
        let mut sim = NocSim::paper_mesh(w, h, seed);
        let n = w as u16 * h as u16;
        let mut flows = Vec::new();
        for (a, b, count, words) in pairs {
            let src_i = (a as u16 % n) as usize;
            let dst_i = (b as u16 % n) as usize;
            if src_i == dst_i {
                continue;
            }
            let src = sim.network().grid().id_at(src_i);
            let dst = sim.network().grid().id_at(dst_i);
            let flow = sim.add_be_source(
                src,
                vec![dst],
                words,
                TemporalSpec::cbr(SimDuration::from_ns(30)),
                "prop-be",
                EmitWindow { limit: Some(count), ..Default::default() },
            );
            flows.push((flow, count));
        }
        let outcome = sim.run_to_quiescence();
        prop_assert_eq!(outcome, RunOutcome::Quiescent);
        for (flow, count) in flows {
            prop_assert_eq!(sim.flow(flow).delivered, count);
        }
    }

    /// The flit's packed word round-trips: any handle and the three flag
    /// wires, set and cleared independently in any order, `data` untouched.
    #[test]
    fn flit_packed_word_round_trips(
        data in any::<u32>(),
        eop in any::<bool>(),
        tag in 0u32..Flit::NO_TAG,
        ops in proptest::collection::vec((0u8..3, any::<bool>()), 0..8),
    ) {
        let (mut be_vc, mut relay, mut want_tag) = (false, false, Flit::NO_TAG);
        let mut f = Flit::be(data, eop);
        for (which, set) in ops {
            match which {
                0 => { f = f.with_be_vc(set); be_vc = set; }
                1 => { f = f.with_relay(set); relay = set; }
                _ => { want_tag = if set { tag } else { Flit::NO_TAG }; f = f.with_tag(want_tag); }
            }
            prop_assert_eq!(f.data, data);
            prop_assert_eq!((f.eop(), f.be_vc(), f.relay()), (eop, be_vc, relay));
            prop_assert_eq!(f.tag(), want_tag);
            prop_assert_eq!(f.is_instrumented(), want_tag != Flit::NO_TAG);
        }
    }
}

// ---------------------------------------------------------------------
// TDM baseline and OCP-layer properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random GT connection sets never double-book a slot, and every
    /// accepted connection's slots respect the wave rule.
    #[test]
    fn tdm_slot_allocation_is_conflict_free(
        requests in prop::collection::vec((0u8..4, 0u8..4, 0u8..4, 0u8..4, 1usize..4), 1..12),
    ) {
        use mango::baseline::{TdmConfig, TdmNetwork};
        use std::collections::HashMap;
        let grid = mango::net::Grid::new(4, 4);
        let mut net = TdmNetwork::new(grid.clone(), TdmConfig::aethereal());
        let mut accepted = Vec::new();
        for (sx, sy, dx, dy, slots) in requests {
            let src = RouterId::new(sx, sy);
            let dst = RouterId::new(dx, dy);
            if src == dst {
                continue;
            }
            if let Ok(id) = net.open_gt(src, dst, slots) {
                accepted.push(id);
            }
        }
        // Rebuild the global slot map from the connection records and
        // check exclusivity + the wave rule.
        let mut occupancy: HashMap<(RouterId, Direction, usize), mango::core::ConnectionId> =
            HashMap::new();
        let slots_per_frame = 8usize;
        for id in accepted {
            let conn = net.connection(id).clone();
            let path = mango::net::xy_path(&grid, conn.src, conn.dst).unwrap();
            for &start in &conn.slots {
                for (i, &dir) in conn.dirs.iter().enumerate() {
                    let slot = (start + i) % slots_per_frame;
                    let key = (path[i], dir, slot);
                    prop_assert!(
                        occupancy.insert(key, id).is_none(),
                        "slot double-booked at {key:?}"
                    );
                }
            }
        }
    }

    /// Area model: monotone in every parameter, always finite/positive.
    #[test]
    fn area_model_is_monotone_and_finite(
        ports in 2usize..8,
        vcs in 2usize..32,
        bits in 8usize..128,
        depth in 1usize..8,
    ) {
        use mango::hw::area::{AreaModel, RouterParams};
        let model = AreaModel::cmos_120nm();
        let p = RouterParams {
            ports,
            gs_vcs: vcs,
            flit_data_bits: bits,
            buffer_depth: depth,
            local_gs_ifaces: 4,
        };
        let base = model.breakdown(&p).total_um2();
        prop_assert!(base.is_finite() && base > 0.0);
        let mut bigger = p.clone();
        bigger.gs_vcs += 1;
        prop_assert!(model.breakdown(&bigger).total_um2() > base);
        let mut bigger = p.clone();
        bigger.flit_data_bits += 8;
        prop_assert!(model.breakdown(&bigger).total_um2() > base);
        let mut bigger = p;
        bigger.buffer_depth += 1;
        prop_assert!(model.breakdown(&bigger).total_um2() > base);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event queue is a stable priority queue: pops are globally
    /// time-ordered and FIFO within equal timestamps, for arbitrary
    /// push/pop interleavings (checked against a reference model).
    ///
    /// Times mix three scales so the calendar queue's tiers all get
    /// exercised: a tie-heavy band (same-bucket FIFO order), a band
    /// around the wheel span (bucket wrap), and a far band (overflow
    /// promotion) — plus pushes *below* earlier pops (below the epoch).
    /// Half the pops go through `pop_at_or_before` with the drawn time
    /// as the horizon, which may fall short of every pending event.
    #[test]
    fn event_queue_matches_reference_model(
        ops in prop::collection::vec(
            (
                any::<bool>(),
                any::<bool>(),
                prop_oneof![0u64..50, 0u64..100_000, 0u64..10_000_000],
            ),
            1..200,
        ),
    ) {
        use mango::sim::{EventQueue, SimTime};
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new(); // (time, seq)
        let mut seq = 0usize;
        for (push, bounded, t) in ops {
            if push || model.is_empty() {
                q.push(SimTime::from_ps(t), seq);
                model.push((t, seq));
                seq += 1;
                continue;
            }
            // Reference: earliest time, then earliest insertion.
            let best = model
                .iter()
                .enumerate()
                .min_by_key(|(_, &(mt, ms))| (mt, ms))
                .map(|(i, _)| i)
                .expect("non-empty");
            let got = if bounded {
                q.pop_at_or_before(SimTime::from_ps(t))
                    .map(|(slot, v)| (slot.time(), v))
            } else {
                q.pop()
            };
            if bounded && model[best].0 > t {
                prop_assert_eq!(got, None);
            } else {
                let (mt, ms) = model.remove(best);
                prop_assert_eq!(got, Some((SimTime::from_ps(mt), ms)));
            }
        }
        // Drain: remaining pops come out fully sorted.
        let mut last = (0u64, 0usize);
        while let Some((t, v)) = q.pop() {
            let cur = (t.as_ps(), v);
            prop_assert!(cur >= last, "out of order: {last:?} then {cur:?}");
            last = cur;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every legal wheel geometry must pop an adversarial schedule in
    /// exactly the same `(time, seq)` order as the default geometry —
    /// wrap-around times, overflow-tier promotions and dense same-bucket
    /// clusters included. (This is the contract that lets
    /// `WheelGeometry::for_mesh` change without touching repro outputs.)
    #[test]
    fn wheel_geometry_never_changes_pop_order(
        buckets_log2 in 6u32..14,
        width_log2 in 0u32..10,
        ops in prop::collection::vec(
            (any::<bool>(), prop_oneof![
                0u64..8,            // same/adjacent-bucket ties (dense buckets)
                0u64..100_000,      // around and beyond small spans (wrap)
                0u64..50_000_000,   // far future (overflow tier)
            ]),
            1..300,
        ),
    ) {
        use mango::sim::{EventQueue, SimTime, WheelGeometry};
        let geometry = WheelGeometry { num_buckets: 1 << buckets_log2, width_log2 };
        let mut q = EventQueue::with_geometry(geometry);
        let mut reference = EventQueue::new();
        let mut now = 0u64;
        for (push, dt) in ops {
            if push || q.is_empty() {
                // Monotone kernel-like times keep the schedule legal for
                // any epoch position while still straddling span wraps.
                let t = SimTime::from_ps(now + dt);
                q.push(t, now);
                reference.push(t, now);
            } else {
                let got = q.pop();
                let want = reference.pop();
                prop_assert_eq!(got, want);
                now = got.expect("queue non-empty").0.as_ps();
            }
            prop_assert_eq!(q.peek_time(), reference.peek_time());
        }
        loop {
            let got = q.pop();
            prop_assert_eq!(got, reference.pop());
            if got.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Topology properties: mesh, torus, chiplet
// ---------------------------------------------------------------------

fn topology_spec() -> impl Strategy<Value = mango::net::TopologySpec> {
    use mango::net::TopologySpec;
    prop_oneof![
        (1u8..7, 1u8..7).prop_map(|(w, h)| TopologySpec::mesh(w, h)),
        (2u8..8, 2u8..8).prop_map(|(w, h)| TopologySpec::torus(w, h)),
        (1u8..4, 1u8..4, 1u8..5, 1u8..5)
            .prop_map(|(cx, cy, nw, nh)| TopologySpec::chiplet(cx, cy, nw, nh)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Stepping across any link (mesh edge, torus wrap, D2D seam) and
    /// stepping back along the opposite direction lands on the origin:
    /// `neighbor` is involutive on every topology. (BFS detours and
    /// spoofed VC feedback both rely on reverse links existing.)
    #[test]
    fn neighbor_is_involutive_on_every_topology(
        spec in topology_spec(),
        dir in direction(),
    ) {
        let grid = mango::net::Grid::from_spec(&spec);
        for id in grid.ids() {
            if let Some(n) = grid.neighbor(id, dir) {
                prop_assert!(grid.contains(n), "{spec}: {id}->{dir} left the grid");
                prop_assert_eq!(grid.neighbor(n, dir.opposite()), Some(id));
            }
        }
    }

    /// Generated XY routes stay on the topology hop by hop and end at
    /// the destination, for arbitrary specs and endpoint pairs.
    #[test]
    fn xy_routes_stay_in_topology_and_reach_dst(
        spec in topology_spec(),
        src_i in 0usize..256,
        dst_i in 0usize..256,
    ) {
        let grid = mango::net::Grid::from_spec(&spec);
        let src = grid.id_at(src_i % grid.len());
        let dst = grid.id_at(dst_i % grid.len());
        prop_assume!(src != dst);
        let route = mango::net::xy_route(&grid, src, dst).unwrap();
        let mut cur = src;
        for &dir in &route {
            cur = match grid.neighbor(cur, dir) {
                Some(n) => n,
                None => return Err(TestCaseError::fail(format!(
                    "{spec}: route {src}->{dst} leaves the grid at {cur}->{dir}"
                ))),
            };
        }
        prop_assert_eq!(cur, dst);
    }

    /// Torus XY routing takes the shorter way around each ring: never
    /// more than ⌈k/2⌉ hops per axis on a k-ary ring.
    #[test]
    fn torus_routes_at_most_half_the_ring_per_axis(
        w in 2u8..9,
        h in 2u8..9,
        src_i in 0usize..256,
        dst_i in 0usize..256,
    ) {
        let spec = mango::net::TopologySpec::torus(w, h);
        let grid = mango::net::Grid::from_spec(&spec);
        let src = grid.id_at(src_i % grid.len());
        let dst = grid.id_at(dst_i % grid.len());
        prop_assume!(src != dst);
        let route = mango::net::xy_route(&grid, src, dst).unwrap();
        let x_hops = route
            .iter()
            .filter(|d| matches!(d, Direction::East | Direction::West))
            .count();
        let y_hops = route.len() - x_hops;
        prop_assert!(
            x_hops <= (w as usize).div_ceil(2),
            "{spec}: {x_hops} x-hops on a {w}-ring"
        );
        prop_assert!(
            y_hops <= (h as usize).div_ceil(2),
            "{spec}: {y_hops} y-hops on a {h}-ring"
        );
    }

    /// Topology names round-trip through the parser for every
    /// generatable spec (the sweep CLI's `--topology` contract).
    #[test]
    fn topology_names_round_trip(spec in topology_spec()) {
        let name = spec.name();
        prop_assert_eq!(mango::net::TopologySpec::parse(&name), Some(spec));
    }
}

// ---------------------------------------------------------------------
// Text inputs: topology strings and task-graph files
// ---------------------------------------------------------------------

/// What topology strings are built from: separators, numbers at the
/// `u8` edge and a multibyte character.
const TOPOLOGY_TOKENS: &[&str] = &["0", "1", "255", "256", "x", "x", "@", "ps", "µ"];

/// What task-graph option values are built from: the same numbers, rate
/// suffixes, separators, stray keywords and the multibyte character.
const GRAPH_TOKENS: &[&str] = &[
    "0", "1", "1", "255", "256", "k", "M", "G", "ns", ",", "#", "x", "µ", "app", "task", "edge",
];

/// One of `heads` followed by up to `len` of `tokens`, unseparated.
fn word(
    heads: &'static [&'static str],
    tokens: &'static [&'static str],
    len: usize,
) -> impl Strategy<Value = String> {
    let picks = prop::collection::vec(0..tokens.len(), 0..len);
    (0..heads.len(), picks).prop_map(move |(head, picks)| {
        heads[head].to_string() + &String::from_iter(picks.into_iter().map(|i| tokens[i]))
    })
}

/// A task-graph line: a keyword and its names, then up to three option
/// words.
fn graph_line() -> impl Strategy<Value = String> {
    let heads = &["task c", "edge a b", "edge b a", "edge a c", "#", "x"];
    let options = word(
        &["rate=", "rate=", "bound=", "w=", "at=", ""],
        GRAPH_TOKENS,
        3,
    );
    (0..heads.len(), prop::collection::vec(options, 0..4))
        .prop_map(|(head, options)| format!("{} {}", heads[head], options.join(" ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every topology string and task-graph text parses to a value or a
    /// typed error, never a panic, and a parsed topology validates to
    /// `Ok` or `Err`. A graph text declares an app and two tasks, then
    /// random lines.
    #[test]
    fn text_parsers_never_panic(
        topology in word(&["mesh", "torus", "chiplet", ""], TOPOLOGY_TOKENS, 8),
        lines in prop::collection::vec(graph_line(), 0..4),
    ) {
        if let Some(spec) = mango::net::TopologySpec::parse(&topology) {
            let _ = spec.validate();
        }
        let graph = format!("app g\ntask a\ntask b\n{}", lines.join("\n"));
        let _ = mango::apps::TaskGraph::parse(&graph);
    }
}
