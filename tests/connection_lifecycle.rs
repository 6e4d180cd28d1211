//! Integration tests for connection setup, teardown and resource
//! management through the BE-packet programming interface.

use mango::core::RouterId;
use mango::net::{ConnError, ConnState, EmitWindow, NocSim, TemporalSpec};
use mango::sim::SimDuration;

/// Opening a connection programs exactly the routers on its path, and all
/// programming is acknowledged.
#[test]
fn programming_reaches_exactly_the_path_routers() {
    let mut sim = NocSim::paper_mesh(4, 4, 201);
    let conn = sim
        .open_connection(RouterId::new(0, 3), RouterId::new(3, 0))
        .unwrap();
    sim.wait_connections_settled().unwrap();
    assert_eq!(sim.connection_state(conn), Some(ConnState::Open));

    let record = sim.network().connections().get(conn).unwrap().clone();
    assert_eq!(record.hops(), 6);
    let mut programmed = 0;
    let mut with_entries = 0;
    for r in sim.network().routers() {
        programmed += r.stats().prog_packets;
        if r.table().steer_entries() + r.table().unlock_entries() > 0 {
            with_entries += 1;
        }
        assert_eq!(r.stats().prog_errors, 0, "router {} saw bad config", r.id());
    }
    assert_eq!(programmed, 6, "one config packet per remote path router");
    assert_eq!(with_entries, 7, "source + 6 remote routers hold entries");
}

/// Open connections until the path resources run out; the error names the
/// bottleneck.
#[test]
fn resource_exhaustion_is_reported_cleanly() {
    let mut sim = NocSim::paper_mesh(2, 1, 203);
    let src = RouterId::new(0, 0);
    let dst = RouterId::new(1, 0);
    for _ in 0..4 {
        sim.open_connection(src, dst).unwrap();
    }
    // The 4 local TX interfaces are gone before the 7 VCs.
    assert_eq!(
        sim.open_connection(src, dst),
        Err(ConnError::NoFreeTxIface(src))
    );
    // The reverse direction has its own resources.
    for _ in 0..4 {
        sim.open_connection(dst, src).unwrap();
    }
    sim.wait_connections_settled().unwrap();
    assert!(sim.network().connections().all_settled());
}

/// Full lifecycle with traffic: open → stream → close → reopen reusing
/// the same resources, repeatedly.
#[test]
fn repeated_open_stream_close_cycles() {
    let mut sim = NocSim::paper_mesh(3, 3, 207);
    let src = RouterId::new(0, 0);
    let dst = RouterId::new(2, 2);
    for round in 0..5 {
        let conn = sim.open_connection(src, dst).unwrap();
        sim.wait_connections_settled().unwrap();
        let flow = sim.add_gs_source(
            conn,
            TemporalSpec::cbr(SimDuration::from_ns(10)),
            format!("round-{round}"),
            EmitWindow {
                limit: Some(500),
                ..Default::default()
            },
        );
        sim.run_to_quiescence();
        assert_eq!(sim.flow(flow).delivered, 500, "round {round} lost flits");
        sim.close_connection(conn).unwrap();
        sim.wait_connections_settled().unwrap();
        assert_eq!(sim.connection_state(conn), Some(ConnState::Closed));
    }
    // After 5 cycles no stale table entries remain anywhere.
    for r in sim.network().routers() {
        assert_eq!(r.table().steer_entries(), 0);
        assert_eq!(r.table().unlock_entries(), 0);
    }
}

/// Many concurrent connections across a mesh, all opening simultaneously
/// while their programming packets share the BE network.
#[test]
fn concurrent_opens_share_the_be_network() {
    let mut sim = NocSim::paper_mesh(4, 4, 211);
    let mut conns = Vec::new();
    // 12 connections with scattered endpoints.
    let endpoints = [
        ((0, 0), (3, 3)),
        ((3, 0), (0, 3)),
        ((1, 0), (2, 3)),
        ((2, 0), (1, 3)),
        ((0, 1), (3, 2)),
        ((3, 1), (0, 2)),
        ((0, 2), (3, 1)),
        ((3, 2), (0, 1)),
        ((1, 3), (2, 0)),
        ((2, 3), (1, 0)),
        ((0, 3), (3, 0)),
        ((3, 3), (0, 0)),
    ];
    for ((sx, sy), (dx, dy)) in endpoints {
        conns.push(
            sim.open_connection(RouterId::new(sx, sy), RouterId::new(dx, dy))
                .unwrap(),
        );
    }
    sim.wait_connections_settled().unwrap();
    for c in &conns {
        assert_eq!(sim.connection_state(*c), Some(ConnState::Open));
    }
    // And they all carry traffic simultaneously.
    let flows: Vec<u32> = conns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            sim.add_gs_source(
                *c,
                TemporalSpec::cbr(SimDuration::from_ns(25)),
                format!("conc-{i}"),
                EmitWindow {
                    limit: Some(300),
                    ..Default::default()
                },
            )
        })
        .collect();
    sim.run_to_quiescence();
    for f in flows {
        let s = sim.flow(f);
        assert_eq!(s.delivered, 300, "{} incomplete", s.name);
        assert_eq!(s.sequence_errors, 0);
    }
}

/// Closing requires the open state; double close and closing a
/// still-opening connection fail cleanly.
#[test]
fn close_state_machine_guards() {
    let mut sim = NocSim::paper_mesh(3, 1, 213);
    let conn = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .unwrap();
    // Still opening.
    assert!(matches!(
        sim.close_connection(conn),
        Err(ConnError::BadState(_, ConnState::Opening))
    ));
    sim.wait_connections_settled().unwrap();
    sim.close_connection(conn).unwrap();
    // Already closing.
    assert!(matches!(
        sim.close_connection(conn),
        Err(ConnError::BadState(_, _))
    ));
    sim.wait_connections_settled().unwrap();
    assert_eq!(sim.connection_state(conn), Some(ConnState::Closed));
}

/// Connection setup works while the network is already loaded with BE
/// traffic — config packets are ordinary BE citizens.
#[test]
fn setup_completes_under_be_load() {
    let mut sim = NocSim::paper_mesh(4, 4, 217);
    let all: Vec<RouterId> = sim.network().grid().ids().collect();
    for node in all.clone() {
        let dests: Vec<_> = all.iter().copied().filter(|d| *d != node).collect();
        sim.add_be_source(
            node,
            dests,
            4,
            TemporalSpec::poisson(SimDuration::from_ns(150)),
            format!("bg-{node}"),
            EmitWindow::default(),
        );
    }
    sim.run_for(SimDuration::from_us(10));
    let conn = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(3, 3))
        .unwrap();
    sim.wait_connections_settled().unwrap();
    assert_eq!(sim.connection_state(conn), Some(ConnState::Open));
    // The connection works.
    sim.begin_measurement();
    let flow = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ns(12)),
        "after-load",
        EmitWindow {
            limit: Some(1_000),
            ..Default::default()
        },
    );
    sim.run_for(SimDuration::from_us(50));
    assert_eq!(sim.flow(flow).delivered, 1_000);
}
