//! Failure-injection tests: the network must degrade gracefully — or
//! fail loudly with a protocol diagnosis — under malformed inputs, and
//! keep its guarantees for everyone else while doing so.

use mango::core::{build_be_packet, BeHeader, Direction, RouterId};
use mango::net::{xy_header, EmitWindow, NocSim, TemporalSpec};
use mango::sim::{RunOutcome, SimDuration};

/// Injects a config-marked BE packet with the given payload words from
/// `src` to `dst`.
fn send_config_packet(sim: &mut NocSim, src: RouterId, dst: RouterId, payload: &[u32]) {
    let header = xy_header(sim.network().grid(), src, dst).expect("route");
    let flits = build_be_packet(header, payload, true);
    let delay = sim.network().inject_delay();
    let src_idx = sim.network().grid().index(src);
    if sim.network_mut().na_mut().enqueue_be(src_idx, flits) {
        sim.schedule_raw(delay, mango::net::NetEvent::NaBeInject { id: src });
    }
}

/// A garbage configuration packet is counted and dropped; the router
/// keeps working.
#[test]
fn malformed_config_packet_is_counted_and_dropped() {
    let mut sim = NocSim::paper_mesh(3, 1, 301);
    let src = RouterId::new(0, 0);
    let victim = RouterId::new(2, 0);
    // Opcode 0xF does not exist.
    send_config_packet(&mut sim, src, victim, &[0xFFFF_FFFF, 0x1234_5678]);
    sim.run_for(SimDuration::from_us(5));
    let stats = sim.network().router(victim).stats();
    assert_eq!(
        stats.prog_packets, 1,
        "packet consumed by the prog interface"
    );
    assert_eq!(stats.prog_errors, 1, "and counted as an error");
    assert_eq!(
        sim.network().router(victim).table().steer_entries(),
        0,
        "nothing was applied"
    );

    // The router still opens real connections afterwards.
    let conn = sim.open_connection(src, victim).unwrap();
    sim.wait_connections_settled().unwrap();
    let flow = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ns(10)),
        "after-garbage",
        EmitWindow {
            limit: Some(100),
            ..Default::default()
        },
    );
    sim.run_to_quiescence();
    assert_eq!(sim.flow(flow).delivered, 100);
}

/// A config packet that *conflicts* with an existing connection
/// (occupied table entries) is rejected without corrupting the live
/// connection.
#[test]
fn conflicting_programming_is_rejected_not_applied() {
    let mut sim = NocSim::paper_mesh(3, 1, 303);
    let src = RouterId::new(0, 0);
    let dst = RouterId::new(2, 0);
    let conn = sim.open_connection(src, dst).unwrap();
    sim.wait_connections_settled().unwrap();

    // Try to reprogram the steering entry the live connection uses at
    // the middle router (dir=East, vc=0 — first-fit allocation).
    let write = mango::core::ProgWrite::SetSteer {
        dir: Direction::East,
        vc: mango::core::VcId(0),
        steer: mango::core::Steer::BeUnit,
    };
    let payload = mango::core::prog::encode_payload(&[write], None);
    send_config_packet(&mut sim, src, RouterId::new(1, 0), &payload);
    sim.run_for(SimDuration::from_us(5));

    let mid = sim.network().router(RouterId::new(1, 0)).stats();
    assert_eq!(mid.prog_errors, 1, "occupied entry rejected");

    // The live connection still works perfectly.
    let flow = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ns(10)),
        "survivor",
        EmitWindow {
            limit: Some(500),
            ..Default::default()
        },
    );
    sim.run_to_quiescence();
    let s = sim.flow(flow);
    assert_eq!(s.delivered, 500);
    assert_eq!(s.sequence_errors, 0);
}

/// An ack-shaped payload word in ordinary BE traffic must not confuse
/// the connection manager (token check) or disturb programming.
#[test]
fn forged_ack_words_are_ignored() {
    let mut sim = NocSim::paper_mesh(3, 1, 307);
    let src = RouterId::new(0, 0);
    let dst = RouterId::new(2, 0);
    // Start opening a connection...
    let conn = sim.open_connection(src, dst).unwrap();
    // ...and immediately bombard the source NA with forged ack packets
    // (0xAC00_xxxx payloads) from the destination.
    for token in 0..64u32 {
        let header = BeHeader::from_route(&[Direction::West, Direction::West]).unwrap();
        let flits = build_be_packet(header, &[0xAC00_0000 | token], false);
        let delay = sim.network().inject_delay();
        let dst_idx = sim.network().grid().index(dst);
        if sim.network_mut().na_mut().enqueue_be(dst_idx, flits) {
            sim.schedule_raw(delay, mango::net::NetEvent::NaBeInject { id: dst });
        }
    }
    sim.wait_connections_settled().unwrap();
    assert_eq!(
        sim.connection_state(conn),
        Some(mango::net::ConnState::Open),
        "real acks still complete the open despite forged traffic"
    );
    // Forged tokens were unknown, so nothing transitioned spuriously: a
    // second open still works.
    let conn2 = sim.open_connection(src, dst).unwrap();
    sim.wait_connections_settled().unwrap();
    assert_eq!(
        sim.connection_state(conn2),
        Some(mango::net::ConnState::Open)
    );
}

/// Flits on an unprogrammed VC are a hard protocol violation and panic
/// with a diagnosis naming the buffer (fail-loud, not silent corruption).
#[test]
fn unprogrammed_vc_panics_with_diagnosis() {
    let result = std::panic::catch_unwind(|| {
        let (mut router, mut bufs, mut be) = mango::core::Router::standalone(
            RouterId::new(1, 1),
            mango::core::RouterConfig::paper(),
        );
        let mut act = Vec::new();
        router.on_link_flit(
            &mut bufs,
            &mut be,
            mango::sim::SimTime::ZERO,
            Direction::West,
            mango::core::LinkFlit {
                steer: mango::core::Steer::GsBuffer {
                    dir: Direction::East,
                    vc: mango::core::VcId(3),
                },
                flit: mango::core::Flit::gs(1),
            },
            &mut act,
        );
        // Drain the advance event to reach the unlock lookup.
        let pending = std::mem::take(&mut act);
        for a in pending {
            if let mango::core::RouterAction::Internal { event, .. } = a {
                router.on_internal(&mut bufs, &mut be, mango::sim::Slot::MIN, event, &mut act);
            }
        }
    });
    let err = result.expect_err("must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("unprogrammed GS buffer"),
        "diagnosis missing: {msg}"
    );
}

/// Overload on every BE source simultaneously: the network saturates but
/// never wedges — after the sources stop, everything drains.
#[test]
fn be_overload_drains_after_sources_stop() {
    let mut sim = NocSim::paper_mesh(4, 4, 311);
    let all: Vec<RouterId> = sim.network().grid().ids().collect();
    let mut flows = Vec::new();
    for node in all.clone() {
        let dests: Vec<_> = all.iter().copied().filter(|d| *d != node).collect();
        flows.push(sim.add_be_source(
            node,
            dests,
            5,
            TemporalSpec::cbr(SimDuration::from_ns(10)), // far beyond capacity
            format!("overload-{node}"),
            EmitWindow {
                limit: Some(500),
                ..Default::default()
            },
        ));
    }
    let outcome = sim.run_to_quiescence();
    assert_eq!(
        outcome,
        RunOutcome::Quiescent,
        "overload must drain, not wedge"
    );
    for f in flows {
        // Multi-destination flows reorder across destinations (different
        // path lengths) — per-pair ordering is covered in
        // `best_effort.rs`. Here the invariant is zero loss.
        assert_eq!(sim.flow(f).delivered, 500);
    }
}
