//! Trajectory oracle: digests of complete flit trajectories, recorded on
//! the commit *before* the handshake events went lazy and re-recorded
//! once since, when set-up came to end at the last ack and a Poisson
//! source to start one drawn gap after its start.
//!
//! Each scenario runs with `trace_flits` telemetry, so the Chrome trace
//! holds one span per delivered flit / packet — `(flow, seq,
//! injected_at, delivered_at)` — and one instant per link grant (`hop`),
//! relay re-injection and fault drop. The digest folds in the rendered
//! trace, the epoch series (one row per sampler firing, so it also pins
//! when the sampler stops re-arming on a draining queue), the flow
//! totals, the fault counters and the clock the run ended at. The event
//! *count* is deliberately left out: a kernel change may fire fewer
//! events, it may not move one of these.
//!
//! The four scenarios lean on the four ways a credit, an unlock toggle
//! or the end of a link cycle matters: (a) a mostly idle 4×4 fabric,
//! where almost none of them finds anybody waiting; (b) the saturated
//! funnel of `mango_bench::LINE`, where unlocks find flits waiting
//! behind the sharebox and every link cycle ends with ready VCs; (c) a
//! chiplet seam crossing, whose feedback path carries the D2D
//! `link_extra`; (d) a fail-stop schedule — a link and a router down,
//! spoofed feedback, force-close and re-open around the hole.
//!
//! The property at the end runs random scenarios twice — handshakes
//! lazy, and every one of them queued as an event (the test-only twin,
//! `Network::eager_handshakes`) — and demands the same trajectory text,
//! with the lazy run's event count short by exactly the slots it never
//! queued. It lives in the crate, not under `tests/`, because the twin
//! exists only in the crate's test build.

use crate::{
    route_avoiding, EmitWindow, FaultKind, FaultSchedule, Grid, NaConfig, Network, NocSim,
    NoticeKind, ScenarioSpec, SpatialPattern, TelemetryConfig, TemporalSpec, TopologySpec,
    TrafficSpec,
};
use mango_core::{ConnectionId, RouterConfig, RouterId};
use mango_sim::{RunOutcome, SimDuration};
use proptest::prelude::*;

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn at(x: u8, y: u8) -> RouterId {
    RouterId::new(x, y)
}

fn cbr(ns: u64) -> TemporalSpec {
    TemporalSpec::cbr(SimDuration::from_ns(ns))
}

fn trace_everything(sim: &mut NocSim) {
    sim.enable_telemetry(TelemetryConfig {
        sample_every: SimDuration::from_ns(250),
        trace_flits: true,
        max_trace_events: 2_000_000,
    });
}

/// What a finished run is reduced to: `(trace events, injected,
/// delivered, digest)`.
fn digest(sim: &mut NocSim) -> (usize, u64, u64, u64) {
    let (events, injected, delivered, text) = trajectory(sim);
    (events, injected, delivered, fnv(text.as_bytes()))
}

/// The text the digest is taken of (see the module docs).
fn trajectory(sim: &mut NocSim) -> (usize, u64, u64, String) {
    let report = sim.take_telemetry();
    let mut text = String::new();
    report.trace.render_json(&mut text);
    report.epochs.render_rows("", &mut text);
    let (injected, delivered) = sim.network().stats().totals();
    text.push_str(&format!(
        "{injected} {delivered} {:?} {}\n",
        sim.network().fault_counters(),
        sim.now()
    ));
    for (id, flow) in sim.network().stats().flows() {
        text.push_str(&format!(
            "{id} {} {} {} {:?} {:?}\n",
            flow.injected,
            flow.delivered,
            flow.sequence_errors,
            flow.latency.min(),
            flow.latency.max()
        ));
    }
    (report.trace.len(), injected, delivered, text)
}

/// (a) Three GS streams over a uniform-random Poisson BE background on a
/// 4×4 mesh, time-bounded and run until the queue drains.
#[test]
fn fabric_4x4_gs_over_poisson_be() {
    let mut spec = ScenarioSpec::mesh(4, 4, 0x7A1)
        .warmup(SimDuration::from_ns(300))
        .measure_to_quiescence()
        .traffic(
            TrafficSpec::new(
                SpatialPattern::UniformRandom,
                TemporalSpec::poisson(SimDuration::from_ns(90)),
            )
            .payload(4)
            .named("bg-"),
        );
    for (src, dst, ns) in [
        (at(0, 0), at(3, 3), 7),
        (at(3, 0), at(0, 2), 11),
        (at(1, 3), at(2, 0), 5),
    ] {
        spec = spec.gs(src, dst, cbr(ns));
    }
    // Every source stops 5 µs after set-up ends: the background attaches
    // at the last ack, the GS streams after the 300 ns warmup.
    let span = SimDuration::from_us(5);
    spec.traffic[0].window = EmitWindow {
        stop_after: Some(span),
        ..Default::default()
    };
    for g in &mut spec.gs {
        g.window = EmitWindow {
            stop_after: Some(span - spec.warmup),
            ..Default::default()
        };
    }
    let mut prepared = spec.prepare();
    trace_everything(prepared.sim_mut());
    prepared.start_measurement();
    assert_eq!(prepared.run_to_bound(), RunOutcome::Quiescent);
    assert_eq!(
        digest(prepared.sim_mut()),
        (24_336, 2_917, 2_917, 0x7521_9928_773f_663b)
    );
}

/// (b) The funnel of `mango_bench::LINE`: seven saturated GS
/// connections and a BE stream share link (1,0)→East of an 8×1 line.
#[test]
fn saturated_funnel() {
    let mut sim = NocSim::paper_mesh(8, 1, 0xF0);
    let plan = [
        (at(0, 0), at(2, 0)),
        (at(0, 0), at(3, 0)),
        (at(0, 0), at(4, 0)),
        (at(0, 0), at(5, 0)),
        (at(1, 0), at(6, 0)),
        (at(1, 0), at(7, 0)),
        (at(1, 0), at(3, 0)),
    ];
    let conns: Vec<ConnectionId> = plan
        .iter()
        .map(|(s, d)| sim.open_connection(*s, *d).expect("the funnel fits"))
        .collect();
    sim.wait_connections_settled().expect("programming settles");
    trace_everything(&mut sim);
    sim.begin_measurement();
    for (i, c) in conns.iter().enumerate() {
        sim.add_gs_source(*c, cbr(3), format!("cross-{i}"), EmitWindow::default());
    }
    sim.add_be_source(
        at(0, 0),
        vec![at(7, 0), at(4, 0)],
        5,
        cbr(20),
        "be-through",
        EmitWindow::default(),
    );
    assert_eq!(
        sim.run_for(SimDuration::from_us(4)),
        RunOutcome::HorizonReached
    );
    assert_eq!(
        digest(&mut sim),
        (15_910, 9_539, 2_845, 0x1d82_be5b_4a6c_9d4e)
    );
}

/// (c) GS and BE across the seams of a 2×2 package of 4×4 dies: the
/// flit, its unlock and its credit all pay the D2D extra.
#[test]
fn chiplet_seam_crossing() {
    let mut spec = ScenarioSpec::on_topology(TopologySpec::chiplet(2, 2, 4, 4), 0xC41)
        .warmup(SimDuration::from_ns(200))
        .measure_for(SimDuration::from_us(3))
        .gs(at(1, 1), at(6, 1), cbr(6))
        .gs(at(5, 6), at(5, 1), cbr(9))
        .gs(at(2, 5), at(6, 6), cbr(4));
    for (src, dst) in [(at(3, 2), at(4, 2)), (at(0, 7), at(7, 0))] {
        spec = spec.traffic(
            TrafficSpec::new(
                SpatialPattern::FixedPool(vec![dst]),
                TemporalSpec::poisson(SimDuration::from_ns(40)),
            )
            .from_node(src)
            .payload(6)
            .named("seam"),
        );
    }
    let mut prepared = spec.prepare();
    trace_everything(prepared.sim_mut());
    prepared.start_measurement();
    assert_eq!(prepared.run_to_bound(), RunOutcome::HorizonReached);
    assert_eq!(
        digest(prepared.sim_mut()),
        (13_812, 1_710, 1_455, 0xc1f6_fc1a_5488_3c60)
    );
}

/// (d) A link and then a router fail under three GS streams and a BE
/// background; watchdogs declare the cut connections broken, they are
/// force-closed and re-opened around the hole, and the run drains.
#[test]
fn fail_stop_force_close_and_reopen() {
    let mut sim = NocSim::paper_mesh(4, 4, 0xFA11);
    let ends = [
        (at(0, 1), at(3, 1)),
        (at(0, 2), at(3, 2)),
        (at(1, 0), at(1, 3)),
    ];
    let conns: Vec<ConnectionId> = ends
        .iter()
        .map(|(s, d)| sim.open_connection(*s, *d).expect("an idle mesh admits"))
        .collect();
    sim.wait_connections_settled().expect("programming settles");
    trace_everything(&mut sim);
    sim.begin_measurement();
    let t0 = sim.now();
    let first = EmitWindow {
        stop_after: Some(SimDuration::from_us(3)),
        ..Default::default()
    };
    let flows: Vec<u32> = conns
        .iter()
        .zip([5, 7, 6])
        .map(|(c, ns)| sim.add_gs_source(*c, cbr(ns), format!("gs-{c}"), first))
        .collect();
    for (i, src) in [at(3, 0), at(0, 3), at(2, 2)].into_iter().enumerate() {
        sim.add_traffic_source(
            src,
            SpatialPattern::UniformRandom,
            3,
            TemporalSpec::poisson(SimDuration::from_ns(60)),
            format!("bg-{i}"),
            EmitWindow {
                stop_after: Some(SimDuration::from_us(5)),
                ..Default::default()
            },
        );
    }
    // BE packets on the wire that is about to be cut (eastward over the
    // failing link): the flits it swallows owe spoofed credits.
    sim.add_be_source(at(0, 2), vec![at(3, 2)], 4, cbr(12), "be-(0,2)", first);
    sim.install_faults(
        FaultSchedule::new(0xFA11)
            .with(
                t0 + SimDuration::from_ns(803),
                FaultKind::LinkDown {
                    from: at(1, 2),
                    dir: mango_core::Direction::East,
                },
            )
            .with(
                t0 + SimDuration::from_ns(1507),
                FaultKind::RouterDown { id: at(2, 1) },
            ),
    );
    for (c, f) in conns.iter().zip(&flows) {
        sim.arm_watchdog(*c, *f, SimDuration::from_ns(150));
    }
    sim.run_for(SimDuration::from_us(3));

    // Set-up's wait read the `Opened` notices: only watchdog breaks are left.
    let notices = std::iter::from_fn(|| sim.network_mut().pop_notice());
    let mut broken: Vec<(ConnectionId, u32)> = notices
        .map(|n| match n.kind {
            NoticeKind::Broken { flow } => (n.conn, flow),
            kind => panic!("only breaks are left unread, got {kind:?} of {}", n.conn),
        })
        .collect();
    broken.sort();
    assert_eq!(
        broken.iter().map(|b| b.0).collect::<Vec<_>>(),
        conns[..2],
        "the two cut connections, not the vertical one"
    );
    let mut reopened = Vec::new();
    for &(conn, flow) in &broken {
        sim.stop_flow(flow);
        sim.force_close_connection(conn).expect("known connection");
        let (src, dst) = ends[conns.iter().position(|c| *c == conn).expect("ours")];
        let dirs = route_avoiding(sim.network().grid(), src, dst).expect("a detour exists");
        reopened.push(
            sim.open_connection_along(src, dst, &dirs)
                .expect("the detour admits"),
        );
    }
    sim.wait_connections_settled().expect("re-open settles");
    let second = EmitWindow {
        stop_after: Some(SimDuration::from_us(2)),
        ..Default::default()
    };
    for (i, c) in reopened.iter().enumerate() {
        sim.add_gs_source(*c, cbr(6), format!("re-{i}"), second);
    }
    // The queue drains, but the BE packet the link fault cut in two
    // leaves its head stranded downstream: stalled, not quiescent.
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Stalled);
    assert_eq!(
        digest(&mut sim),
        (17_486, 2_669, 2_055, 0x87fe_8f64_2892_01f5)
    );
}

/// One random scenario of the twin property.
#[derive(Debug, Clone)]
struct TwinCase {
    topology: u8,
    seed: u64,
    pairs: Vec<(usize, usize)>,
    gs_gap_ns: u64,
    be_gap_ns: u64,
    spatial: u8,
    link_faults: usize,
    dead: Option<usize>,
}

/// Runs `case` until the queue drains, handshakes lazy or all queued;
/// returns the outcome, the trajectory text, the events dispatched and
/// the handshake slots never queued.
fn twin_run(case: &TwinCase, every_handshake_queued: bool) -> (RunOutcome, String, u64, u64) {
    let topology = match case.topology % 3 {
        0 => TopologySpec::mesh(4, 3),
        1 => TopologySpec::torus(4, 4),
        _ => TopologySpec::chiplet(2, 2, 2, 2),
    };
    let mut network = Network::new(
        Grid::from_spec(&topology),
        RouterConfig::paper(),
        NaConfig::paper(),
    );
    network.eager_handshakes = every_handshake_queued;
    let mut sim = NocSim::new(network, case.seed);
    let n = sim.network().grid().len();
    let ids: Vec<RouterId> = sim.network().grid().ids().collect();
    let conns: Vec<ConnectionId> = case
        .pairs
        .iter()
        .map(|&(a, b)| (ids[a % n], ids[b % n]))
        .filter(|(a, b)| a != b)
        .filter_map(|(s, d)| sim.open_connection(s, d).ok())
        .collect();
    sim.wait_connections_settled().expect("programming settles");
    trace_everything(&mut sim);
    sim.begin_measurement();
    let t0 = sim.now();
    let bounded = EmitWindow {
        stop_after: Some(SimDuration::from_us(3)),
        ..Default::default()
    };
    for (i, c) in conns.iter().enumerate() {
        let gap = cbr(case.gs_gap_ns + i as u64);
        sim.add_gs_source(*c, gap, format!("gs-{i}"), bounded);
    }
    let spatial = match case.spatial % 3 {
        0 => SpatialPattern::UniformRandom,
        1 => SpatialPattern::BitComplement,
        _ => SpatialPattern::NearestNeighbour,
    };
    for (i, src) in ids.iter().enumerate() {
        sim.add_traffic_source(
            *src,
            spatial.clone(),
            3,
            TemporalSpec::poisson(SimDuration::from_ns(case.be_gap_ns)),
            format!("be-{i}"),
            bounded,
        );
    }
    if case.link_faults > 0 || case.dead.is_some() {
        let mut schedule = FaultSchedule::random_links(
            sim.network().grid(),
            case.seed,
            case.link_faults,
            t0 + SimDuration::from_ns(300),
            t0 + SimDuration::from_us(2),
        );
        if let Some(dead) = case.dead {
            let at = t0 + SimDuration::from_ns(900);
            schedule = schedule.with(at, FaultKind::RouterDown { id: ids[dead % n] });
        }
        sim.install_faults(schedule);
    }
    let outcome = sim.run_to_quiescence();
    assert_eq!(sim.events_pending(), 0, "drained");
    let (_, _, _, text) = trajectory(&mut sim);
    (
        outcome,
        text,
        sim.events_processed(),
        sim.handshakes_never_queued(),
    )
}

proptest! {
    // Each case is two full simulations — keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mesh, torus and chiplet fabrics under GS streams and a BE
    /// background, healthy or with link faults and a router fail-stop:
    /// parking the handshakes changes no flit instant, no statistic, no
    /// epoch row and not the instant the run ends at — only how many
    /// events it took.
    #[test]
    fn lazy_handshakes_match_the_every_event_twin(
        topology in 0u8..3,
        seed in 0u64..10_000,
        pairs in prop::collection::vec((0usize..16, 0usize..16), 1..5),
        gs_gap_ns in 4u64..30,
        be_gap_ns in 25u64..300,
        spatial in 0u8..3,
        // Half the cases healthy; the rest draw link faults and, two
        // times in three, a router to kill.
        link_faults in 0usize..6,
        dead in 0usize..24,
    ) {
        let healthy = link_faults >= 3;
        let case = TwinCase {
            topology,
            seed,
            pairs,
            gs_gap_ns,
            be_gap_ns,
            spatial,
            link_faults: if healthy { 0 } else { link_faults },
            dead: (!healthy && dead < 16).then_some(dead),
        };
        let (outcome, text, events, never_queued) = twin_run(&case, false);
        let (twin_outcome, twin_text, twin_events, twin_never_queued) = twin_run(&case, true);
        prop_assert_eq!(outcome, twin_outcome);
        prop_assert!(text == twin_text, "trajectories differ for {:?}", case);
        prop_assert_eq!(twin_never_queued, 0);
        prop_assert!(never_queued > 0);
        prop_assert_eq!(events + never_queued, twin_events);
    }
}
