//! Teardown leak checks: open→close over random paths must return every
//! link/VC budget and every `ConnectionTable` entry exactly to its
//! initial state. A leak here silently shrinks the admittable workload
//! over a churn run, so the property is load-bearing for the QoS layer.

use mango_core::{ConnectionId, Direction, RouterId};
use mango_net::{ConnError, ConnState, ConnectionManager, Grid, NocSim, RelayTable, RouteError};
use mango_sim::SimTime;
use proptest::prelude::*;

/// Drives every outstanding ack of `id`'s current transition.
fn ack_all(m: &mut ConnectionManager, grid: &Grid, id: ConnectionId) {
    // Tokens are internal; replay acks until the connection settles.
    // `known_token` + `on_ack` is the public surface the network uses.
    for token in 0..u16::MAX {
        if m.known_token(token) {
            m.on_ack(token, grid, SimTime::ZERO);
        }
        if matches!(m.state(id), Some(ConnState::Open) | Some(ConnState::Closed)) {
            return;
        }
    }
    panic!("connection never settled");
}

/// Asserts that a failed open left no VC or interface bit, no ack
/// token and no relay ticket behind.
fn assert_no_books(m: &ConnectionManager, relays: &RelayTable) {
    assert!(m.nothing_reserved(), "a failed open reserved budgets");
    assert!(
        (0..=u16::MAX).all(|t| !m.known_token(t)),
        "a failed open left an ack token"
    );
    assert_eq!(relays.in_flight(), 0, "a failed open left a relay ticket");
}

/// An open whose programming packets or acks cannot all be routed fails
/// late and books nothing: no VC or interface bit, no ack token, no
/// relay ticket, and no connection id.
#[test]
fn failed_open_keeps_no_books() {
    // A line cut at (cut,0)→East, opened westward from its east end:
    // the GS path and every programming packet run west, but the acks
    // of the routers west of the cut have no route back east to the
    // source. On the 20×1 lines the far packets relay (they take
    // tickets) before an ack fails.
    for (width, cut) in [(3, 1), (20, 1), (20, 18)] {
        let mut grid = Grid::new(width, 1);
        grid.fail_link(RouterId::new(cut, 0), Direction::East);
        let mut relays = RelayTable::new();
        let mut m = ConnectionManager::new(&grid, 7, 4);
        let (src, dst) = (RouterId::new(width - 1, 0), RouterId::new(0, 0));
        let err = m.open(&grid, &mut relays, src, dst).unwrap_err();
        // The failing leg runs from the cut router back to the source.
        let leg = RouteError::Unreachable {
            src: RouterId::new(cut, 0),
            dst: src,
        };
        assert_eq!(err, ConnError::Route(leg));
        assert_no_books(&m, &relays);
        // The next open takes the first id.
        let plan = m
            .open(&grid, &mut relays, dst, RouterId::new(cut, 0))
            .unwrap();
        assert_eq!(plan.id, ConnectionId(0));
        assert_eq!(m.get(plan.id).map(|c| c.dst), Some(RouterId::new(cut, 0)));
    }
}

/// A GS path across a failed link is refused before anything is booked,
/// with the dead link named — also on a grid whose programming packets
/// could detour around it.
#[test]
fn open_across_a_dead_link_is_refused() {
    for (width, height, cut) in [(3, 1, 1), (20, 1, 18), (3, 2, 1)] {
        let mut grid = Grid::new(width, height);
        let dead = RouterId::new(cut, 0);
        grid.fail_link(dead, Direction::East);
        let mut relays = RelayTable::new();
        let mut m = ConnectionManager::new(&grid, 7, 4);
        let (src, dst) = (RouterId::new(0, 0), RouterId::new(width - 1, 0));
        let err = m.open(&grid, &mut relays, src, dst).unwrap_err();
        assert_eq!(err, ConnError::LinkDown(dead, Direction::East));
        assert_no_books(&m, &relays);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of opens over random endpoint pairs, fully acked and
    /// then fully closed, leaves the manager with zero reserved budgets
    /// and every record `Closed`.
    #[test]
    fn open_close_returns_budgets_exactly(
        width in 2u8..7,
        height in 2u8..7,
        pairs in prop::collection::vec((0u32..49, 0u32..49), 1..10),
    ) {
        let grid = Grid::new(width, height);
        let mut relays = RelayTable::new();
        let mut m = ConnectionManager::new(&grid, 7, 4);
        prop_assert!(m.nothing_reserved(), "fresh manager reserves nothing");

        let n = u32::from(width) * u32::from(height);
        let mut opened = Vec::new();
        for (a, b) in pairs {
            let src_i = a % n;
            let dst_i = b % n;
            if src_i == dst_i {
                continue;
            }
            let src = RouterId::new((src_i % u32::from(width)) as u8, (src_i / u32::from(width)) as u8);
            let dst = RouterId::new((dst_i % u32::from(width)) as u8, (dst_i / u32::from(width)) as u8);
            // Budget exhaustion is a legitimate answer; leaks are not.
            if let Ok(plan) = m.open(&grid, &mut relays, src, dst) {
                ack_all(&mut m, &grid, plan.id);
                prop_assert_eq!(m.state(plan.id), Some(ConnState::Open));
                opened.push(plan.id);
            }
        }

        for id in &opened {
            m.close(&grid, &mut relays, *id).expect("open connections close");
            ack_all(&mut m, &grid, *id);
            prop_assert_eq!(m.state(*id), Some(ConnState::Closed));
        }

        prop_assert!(
            m.nothing_reserved(),
            "open→close must return all budgets"
        );
        prop_assert!(m.all_settled());
    }

    /// The same property end-to-end through the simulator: after the
    /// programming and teardown packets of random connections complete,
    /// every router's `ConnectionTable` is empty again and the manager
    /// holds no budgets.
    #[test]
    fn sim_open_close_clears_router_tables(
        seed in 0u64..1000,
        pairs in prop::collection::vec((0u32..16, 0u32..16), 1..4),
    ) {
        let mut sim = NocSim::paper_mesh(4, 4, seed);
        let mut conns = Vec::new();
        for (a, b) in pairs {
            let (src_i, dst_i) = (a % 16, b % 16);
            if src_i == dst_i {
                continue;
            }
            let src = RouterId::new((src_i % 4) as u8, (src_i / 4) as u8);
            let dst = RouterId::new((dst_i % 4) as u8, (dst_i / 4) as u8);
            if let Ok(id) = sim.open_connection(src, dst) {
                conns.push(id);
            }
        }
        sim.wait_connections_settled().expect("programming settles");
        for id in &conns {
            sim.close_connection(*id).expect("open connections close");
            // Teardowns from a shared source NA serialize; settle each.
            sim.wait_connections_settled().expect("teardown settles");
        }

        prop_assert!(sim.network().connections().nothing_reserved());
        for router in sim.network().routers() {
            // Entry counts back to the initial (empty) table state.
            prop_assert_eq!(router.table().steer_entries(), 0);
            prop_assert_eq!(router.table().unlock_entries(), 0);
        }
    }
}
