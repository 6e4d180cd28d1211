//! Integration tests for the BE router: source routing, hop limits,
//! packet coherency, deadlock freedom under XY routing — and deadlock
//! *detection* when routes violate it.

use mango::core::{BeHeader, Direction, RouterId};
use mango::net::{
    EmitWindow, NaApp, NetEvent, NocSim, ScenarioMetrics, ScenarioSpec, TemporalSpec, TrafficSpec,
};
use mango::sim::{RunOutcome, SimDuration};
use std::sync::{Arc, Mutex};

/// Uniform random BE traffic on a 4×4 mesh: every packet arrives, intact
/// and unfragmented.
#[test]
fn uniform_random_be_traffic_is_lossless() {
    let mut sim = NocSim::paper_mesh(4, 4, 101);
    let all: Vec<RouterId> = sim.network().grid().ids().collect();
    let mut flows = Vec::new();
    for node in all.clone() {
        let dests: Vec<_> = all.iter().copied().filter(|d| *d != node).collect();
        flows.push(sim.add_be_source(
            node,
            dests,
            3,
            TemporalSpec::poisson(SimDuration::from_ns(300)),
            format!("be-{node}"),
            EmitWindow {
                limit: Some(200),
                ..Default::default()
            },
        ));
    }
    let outcome = sim.run_to_quiescence();
    assert_eq!(outcome, RunOutcome::Quiescent, "XY BE traffic must drain");
    for f in flows {
        let s = sim.flow(f);
        assert_eq!(s.injected, 200);
        assert_eq!(s.delivered, 200, "{} lost packets", s.name);
    }
}

/// A 15-hop route — the header's maximum — delivers correctly.
#[test]
fn fifteen_hop_packet_traverses_the_mesh() {
    let mut sim = NocSim::paper_mesh(16, 1, 103);
    let flow = sim.network_mut().stats_mut().register_flow("longhaul");
    sim.send_be(
        RouterId::new(0, 0),
        RouterId::new(15, 0),
        &[0xAB, 0xCD],
        Some(flow),
    );
    let outcome = sim.run_to_quiescence();
    assert_eq!(outcome, RunOutcome::Quiescent);
    assert_eq!(sim.flow(flow).delivered, 1);
}

/// An app that records every packet payload it receives.
#[derive(Debug, Default)]
struct Recorder {
    packets: Arc<Mutex<Vec<Vec<u32>>>>,
}

impl NaApp for Recorder {
    fn on_packet(&mut self, packet: &[mango::core::Flit]) {
        self.packets
            .lock()
            .unwrap()
            .push(packet[1..].iter().map(|f| f.data).collect());
    }
}

/// Payload integrity and packet coherency: packets from two senders to
/// one receiver arrive unmixed, each with its exact payload. On the
/// 20×1 line both routes are longer than one header's 15 links, so every
/// packet is relayed: the relay NA strips the continuation word and
/// rebuilds the packet, and the payload must still arrive word for word.
#[test]
fn concurrent_packets_arrive_intact_and_unmixed() {
    packets_arrive_intact_and_unmixed(
        (3, 3),
        [RouterId::new(0, 0), RouterId::new(2, 2)],
        RouterId::new(1, 1),
    );
    packets_arrive_intact_and_unmixed(
        (20, 1),
        [RouterId::new(0, 0), RouterId::new(1, 0)],
        RouterId::new(19, 0),
    );
}

fn packets_arrive_intact_and_unmixed((w, h): (u8, u8), [a, b]: [RouterId; 2], sink: RouterId) {
    let mut sim = NocSim::paper_mesh(w, h, 107);
    let packets = Arc::new(Mutex::new(Vec::new()));
    sim.network_mut().set_app(
        sink,
        Box::new(Recorder {
            packets: packets.clone(),
        }),
    );
    // Two senders each send 30 packets with distinctive payloads.
    for i in 0..30u32 {
        sim.send_be(a, sink, &[0xA000 + i, 0xA100 + i, 0xA200 + i], None);
        sim.send_be(b, sink, &[0xB000 + i, 0xB100 + i, 0xB200 + i], None);
    }
    let outcome = sim.run_to_quiescence();
    assert_eq!(outcome, RunOutcome::Quiescent);
    let received = packets.lock().unwrap();
    assert_eq!(received.len(), 60);
    for p in received.iter() {
        assert_eq!(p.len(), 3, "packet fragmented or merged: {p:x?}");
        let base = p[0];
        assert_eq!(p[1], base + 0x100, "payload corrupted: {p:x?}");
        assert_eq!(p[2], base + 0x200, "payload corrupted: {p:x?}");
    }
    // Both senders' packets all arrived, in per-sender order.
    let from_a: Vec<u32> = received
        .iter()
        .filter(|p| p[0] < 0xB000)
        .map(|p| p[0])
        .collect();
    let from_b: Vec<u32> = received
        .iter()
        .filter(|p| p[0] >= 0xB000)
        .map(|p| p[0])
        .collect();
    assert_eq!(from_a.len(), 30);
    assert_eq!(from_b.len(), 30);
    assert!(from_a.windows(2).all(|w| w[0] < w[1]), "sender A reordered");
    assert!(from_b.windows(2).all(|w| w[0] < w[1]), "sender B reordered");
}

/// Sends a raw-routed BE packet (bypassing XY) by enqueuing flits with a
/// hand-built header directly at the source NA.
fn send_raw_route(sim: &mut NocSim, src: RouterId, route: &[Direction], len: usize) {
    let header = BeHeader::from_route(route).expect("legal route");
    let payload: Vec<u32> = (0..len as u32).collect();
    let flits = mango::core::build_be_packet(header, &payload, false);
    let delay = sim.network().inject_delay();
    let src_idx = sim.network().grid().index(src);
    let need = sim.network_mut().na_mut().enqueue_be(src_idx, flits);
    if need {
        // Mirror NocSim::send_be's scheduling.
        let ev = NetEvent::NaBeInject { id: src };
        sim.schedule_raw(delay, ev);
    }
}

/// Four wormholes chasing each other around a square with non-XY routes
/// deadlock — and the kernel detects the stall instead of hanging. The
/// same traffic under XY routing drains fine (the paper's Sec. 5
/// justification for dimension-ordered routing).
#[test]
fn non_xy_routes_deadlock_and_are_detected() {
    use Direction::*;
    let mut sim = NocSim::paper_mesh(2, 2, 109);
    // Cyclic turn pattern: each packet takes two links, turning so the
    // four paths form a dependency ring; long packets span both links.
    let len = 12;
    for _ in 0..3 {
        send_raw_route(&mut sim, RouterId::new(0, 0), &[East, South], len); // E then S
        send_raw_route(&mut sim, RouterId::new(1, 0), &[South, West], len); // S then W
        send_raw_route(&mut sim, RouterId::new(1, 1), &[West, North], len); // W then N
        send_raw_route(&mut sim, RouterId::new(0, 1), &[North, East], len); // N then E
    }
    let outcome = sim.run_to_quiescence();
    assert_eq!(
        outcome,
        RunOutcome::Stalled,
        "cyclic wormholes must deadlock and be detected"
    );

    // Control: the same endpoints with XY routes drain.
    let mut sim = NocSim::paper_mesh(2, 2, 109);
    let mut flows = Vec::new();
    for (s, d) in [
        (RouterId::new(0, 0), RouterId::new(1, 1)),
        (RouterId::new(1, 0), RouterId::new(0, 1)),
        (RouterId::new(1, 1), RouterId::new(0, 0)),
        (RouterId::new(0, 1), RouterId::new(1, 0)),
    ] {
        let f = sim.network_mut().stats_mut().register_flow("xy");
        for _ in 0..3 {
            sim.send_be(s, d, &(0..12u32).collect::<Vec<_>>(), Some(f));
        }
        flows.push(f);
    }
    let outcome = sim.run_to_quiescence();
    assert_eq!(
        outcome,
        RunOutcome::Quiescent,
        "XY routing is deadlock-free"
    );
    for f in flows {
        assert_eq!(sim.flow(f).delivered, 3);
    }
}

/// BE bandwidth sharing: with the link otherwise idle, BE can use far
/// more than one slot's worth; with all GS VCs backlogged it still gets
/// its 1/8 floor.
#[test]
fn be_gets_floor_under_gs_saturation_and_more_when_idle() {
    // Idle network: BE alone on a 2-hop path.
    let mut sim = NocSim::paper_mesh(3, 1, 113);
    sim.begin_measurement();
    let flow = sim.add_be_source(
        RouterId::new(0, 0),
        vec![RouterId::new(2, 0)],
        3,
        TemporalSpec::cbr(SimDuration::from_ns(12)),
        "be-idle",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(60));
    let idle_pkts = sim.flow_throughput_m(flow); // packets/s in M
    let idle_flits = idle_pkts * 4.0; // 4 flits per packet
    let floor = sim.link_capacity_m() / 8.0;
    assert!(
        idle_flits > floor * 1.5,
        "idle network: BE should exceed its floor, got {idle_flits:.1} Mf/s"
    );

    // Saturated network: 7 GS connections hammering the same links.
    let mut sim = NocSim::paper_mesh(3, 4, 113);
    let pairs = [
        (RouterId::new(0, 0), RouterId::new(2, 0)),
        (RouterId::new(0, 0), RouterId::new(2, 1)),
        (RouterId::new(0, 0), RouterId::new(2, 2)),
        (RouterId::new(0, 0), RouterId::new(2, 3)),
        (RouterId::new(1, 0), RouterId::new(2, 0)),
        (RouterId::new(1, 0), RouterId::new(2, 1)),
        (RouterId::new(1, 0), RouterId::new(2, 2)),
    ];
    let conns: Vec<_> = pairs
        .iter()
        .map(|(s, d)| sim.open_connection(*s, *d).unwrap())
        .collect();
    sim.wait_connections_settled().unwrap();
    for (i, c) in conns.iter().enumerate() {
        sim.add_gs_source(
            *c,
            TemporalSpec::cbr(SimDuration::from_ns(5)),
            format!("gs-{i}"),
            EmitWindow::default(),
        );
    }
    sim.run_for(SimDuration::from_us(5));
    sim.begin_measurement();
    let be_flow = sim.add_be_source(
        RouterId::new(1, 0),
        vec![RouterId::new(2, 0)],
        3,
        TemporalSpec::cbr(SimDuration::from_ns(12)),
        "be-contended",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(100));
    let be_flits = sim.flow_throughput_m(be_flow) * 4.0;
    assert!(
        be_flits >= floor * 0.8,
        "BE must keep ~its 1/8 floor under GS saturation, got {be_flits:.1} vs floor {floor:.1}"
    );
}

/// One point of a BE load curve: uniform-random 4-flit packets with
/// Poisson gaps of `gap` from every node of a 3×3 mesh, 5 µs warm-up,
/// 30 µs window.
fn load_point(gap: SimDuration) -> ScenarioMetrics {
    ScenarioSpec::mesh(3, 3, 0xBEEF ^ gap.as_ps())
        .warmup(SimDuration::from_us(5))
        .measure_for(SimDuration::from_us(30))
        .traffic(TrafficSpec::uniform_poisson(gap).payload(3))
        .run()
}

/// At light load the BE network delivers what is offered, and the
/// latency aggregates are populated and ordered.
#[test]
fn sweep_point_reports_sane_numbers() {
    let gap = SimDuration::from_us(2);
    let light = load_point(gap);
    let (delivered, mean, p99) = (
        light.be_throughput_m(),
        light.be_weighted_mean_ns(),
        light.be_p99_worst_ns(),
    );
    assert!(mean > 0.0);
    assert!(p99 >= mean * 0.5);
    let expected = gap.as_rate_mhz() * 9.0;
    assert!(
        (delivered - expected).abs() / expected < 0.2,
        "delivered {delivered:.2} vs offered {expected:.2}"
    );
}

#[test]
fn heavier_load_means_higher_latency() {
    let light = load_point(SimDuration::from_ns(2000)).be_weighted_mean_ns();
    let heavy = load_point(SimDuration::from_ns(150)).be_weighted_mean_ns();
    assert!(
        heavy > light,
        "latency must rise with load: {heavy:.1} vs {light:.1}"
    );
}
