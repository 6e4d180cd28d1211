//! Trajectory oracle: digests of complete flit trajectories, recorded on
//! the commit *before* the handshake events went lazy and byte-identical
//! ever since.
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
//! funnel of `mango_bench::funnel_sim`, where unlocks find flits waiting
//! behind the sharebox and every link cycle ends with ready VCs; (c) a
//! chiplet seam crossing, whose feedback path carries the D2D
//! `link_extra`; (d) a fail-stop schedule — a link and a router down,
//! spoofed feedback, force-close and re-open around the hole.

use mango_core::{ConnectionId, RouterId};
use mango_net::{
    route_avoiding, EmitWindow, FaultKind, FaultSchedule, NocSim, ScenarioSpec, SpatialPattern,
    TelemetryConfig, TemporalSpec, TopologySpec, TrafficSpec,
};
use mango_sim::{RunOutcome, SimDuration, SimTime};

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
    (
        report.trace.len(),
        injected,
        delivered,
        fnv(text.as_bytes()),
    )
}

/// (a) Three GS streams over a uniform-random Poisson BE background on a
/// 4×4 mesh, time-bounded and run until the queue drains.
#[test]
fn fabric_4x4_gs_over_poisson_be() {
    let bounded = EmitWindow {
        stop_at: Some(SimTime::from_us(6)),
        ..Default::default()
    };
    let mut spec = ScenarioSpec::mesh(4, 4, 0x7A1)
        .warmup(SimDuration::from_ns(300))
        .measure_to_quiescence()
        .traffic(
            TrafficSpec::new(
                SpatialPattern::UniformRandom,
                TemporalSpec::poisson(SimDuration::from_ns(90)),
            )
            .payload(4)
            .window(bounded)
            .named("bg-"),
        );
    for (src, dst, ns) in [
        (at(0, 0), at(3, 3), 7),
        (at(3, 0), at(0, 2), 11),
        (at(1, 3), at(2, 0), 5),
    ] {
        spec = spec.gs(src, dst, cbr(ns));
        spec.gs.last_mut().expect("just pushed").window = bounded;
    }
    let mut prepared = spec.prepare();
    trace_everything(prepared.sim_mut());
    prepared.start_measurement();
    assert_eq!(prepared.run_to_bound(), RunOutcome::Quiescent);
    assert_eq!(
        digest(prepared.sim_mut()),
        (25_138, 2_974, 2_974, 0xa298_2f9f_fd7b_e27f)
    );
}

/// (b) The funnel of `mango_bench::funnel_sim`: seven saturated GS
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
        (15_910, 9_539, 2_845, 0x78b0_1702_c6c6_8de2)
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
        (17_307, 1_759, 1_500, 0xa6c2_8964_d528_33fb)
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
        stop_at: Some(t0 + SimDuration::from_us(3)),
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
                stop_at: Some(t0 + SimDuration::from_us(5)),
                ..Default::default()
            },
        );
    }
    // BE packets on the wires that are about to be cut: westward through
    // the victim router, eastward over the failing link.
    for (src, dst, ns) in [(at(0, 2), at(3, 2), 12)] {
        sim.add_be_source(src, vec![dst], 4, cbr(ns), format!("be-{src}"), first);
    }
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

    let mut broken = sim.take_broken();
    broken.sort_by_key(|b| b.conn);
    assert_eq!(
        broken.iter().map(|b| b.conn).collect::<Vec<_>>(),
        conns[..2],
        "the two cut connections, not the vertical one"
    );
    let mut reopened = Vec::new();
    for b in &broken {
        sim.stop_flow(b.flow);
        sim.force_close_connection(b.conn)
            .expect("known connection");
        let (src, dst) = ends[conns.iter().position(|c| *c == b.conn).expect("ours")];
        let dirs = route_avoiding(sim.network().grid(), src, dst).expect("a detour exists");
        reopened.push(
            sim.open_connection_along(src, dst, &dirs)
                .expect("the detour admits"),
        );
    }
    sim.wait_connections_settled().expect("re-open settles");
    let second = EmitWindow {
        stop_at: Some(sim.now() + SimDuration::from_us(2)),
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
        (17_656, 2_683, 2_069, 0xa552_49d5_952f_f61b)
    );
}
