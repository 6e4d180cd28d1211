//! Tests of the flit-conservation invariant: across traffic patterns,
//! temporal shapes and random fault schedules, every instrumented flit
//! ever injected is delivered, fault-dropped, or still buffered/in flight
//! — equivalently, every record in the network's `MetaSlab` belongs to a
//! flit that is still in the system.
//!
//! Two halves. Debug builds also count the flits inside scheduled events,
//! so [`PreparedScenario::finish`] asserts `live == buffered + wire` at
//! any event boundary (`injected_flits_are_conserved`). Release builds do
//! not, but once the event queue has drained nothing is on a wire, and
//! `live == buffered` is checked in every profile
//! (`records_equal_buffered_flits_once_the_queue_drains`). The relay test
//! covers the one place records change hands instead of being allocated
//! or released, and the fail-stop test pins the feedback owed for flits
//! a dying router swallows. A source silenced by `stop_flow` or a router
//! fail-stop must stop ticking, or no such run could ever drain.

use mango_core::RouterId;
use mango_net::{
    EmitWindow, FaultCounters, FaultKind, FaultSchedule, GsFlowSpec, NocSim, Phase, ScenarioSpec,
    SpatialPattern, TemporalSpec, TrafficSpec,
};
use mango_sim::{RunOutcome, SimDuration};
use proptest::prelude::*;

fn pattern_for(variant: u8) -> SpatialPattern {
    match variant % 5 {
        0 => SpatialPattern::UniformRandom,
        1 => SpatialPattern::Transpose,
        2 => SpatialPattern::BitComplement,
        3 => SpatialPattern::Tornado,
        _ => SpatialPattern::NearestNeighbour,
    }
}

fn temporal_for(variant: u8, gap_ns: u64) -> TemporalSpec {
    match variant % 2 {
        0 => TemporalSpec::cbr(SimDuration::from_ns(gap_ns)),
        _ => TemporalSpec::poisson(SimDuration::from_ns(gap_ns)),
    }
}

proptest! {
    // Each case is a full simulation — keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any pattern × temporal shape × fault schedule: the conservation
    /// ledger balances at the end of the run, flits on wires included
    /// (asserted inside `finish()` in debug builds only — the release
    /// half is the next test).
    #[test]
    fn injected_flits_are_conserved(
        spatial in 0u8..5,
        temporal in 0u8..2,
        side in 2u8..5,
        gap_ns in 30u64..200,
        seed in 0u64..1000,
        fault_count in 0usize..4,
    ) {
        let far = RouterId::new(side - 1, side - 1);
        let spec = ScenarioSpec::mesh(side, side, seed)
            .warmup(SimDuration::from_ns(200))
            .measure_for(SimDuration::from_us(3))
            .gs(RouterId::new(0, 0), far, TemporalSpec::cbr(SimDuration::from_ns(gap_ns)))
            .traffic(
                TrafficSpec::new(pattern_for(spatial), temporal_for(temporal, gap_ns))
                    .payload(3)
                    .named("cons-"),
            );
        let mut prepared = spec.prepare();
        if fault_count > 0 {
            let now = prepared.sim().now();
            let schedule = FaultSchedule::random_links(
                prepared.sim().network().grid(),
                seed,
                fault_count,
                now + SimDuration::from_ns(500),
                now + SimDuration::from_us(2),
            );
            prepared.sim_mut().install_faults(schedule);
        }
        prepared.start_measurement();
        let outcome = prepared.run_to_bound();
        // `finish` asserts the ledger: live records == buffered + in
        // flight.
        let metrics = prepared.finish(outcome);
        prop_assert!(metrics.flows.len() >= 2);
    }

    /// Time-bounded sources under link faults and a router fail-stop, run
    /// until the event queue drains: every record left in the slab
    /// belongs to a flit a buffer walk finds (stranded behind the dead
    /// router, if anywhere), and a quiescent network holds none. Checked
    /// in release builds too.
    #[test]
    fn records_equal_buffered_flits_once_the_queue_drains(
        spatial in 0u8..5,
        temporal in 0u8..2,
        side in 3u8..5,
        gap_ns in 30u64..200,
        seed in 0u64..1000,
        fault_count in 1usize..4,
        dead in 0u8..16,
    ) {
        let far = RouterId::new(side - 1, side - 1);
        let mut spec = ScenarioSpec::mesh(side, side, seed)
            .warmup(SimDuration::from_ns(200))
            .measure_to_quiescence()
            .gs_flow(GsFlowSpec {
                src: RouterId::new(0, 0),
                dst: far,
                pattern: TemporalSpec::cbr(SimDuration::from_ns(gap_ns)),
                name: "cons-gs".into(),
                window: EmitWindow::default(),
                phase: Phase::Measure,
            })
            .traffic(
                TrafficSpec::new(pattern_for(spatial), temporal_for(temporal, gap_ns))
                    .payload(3)
                    .phase(Phase::Measure)
                    .named("cons-"),
            );
        // Bounded by time, not by count: the sources the fail-stop does
        // not silence tick until their stop time, and only then can the
        // queue drain. The window ends 4 µs after set-up ends; both
        // sources attach after the warmup.
        let bounded = EmitWindow {
            stop_after: Some(SimDuration::from_us(4) - spec.warmup),
            ..Default::default()
        };
        spec.gs[0].window = bounded;
        spec.traffic[0].window = bounded;
        let mut prepared = spec.prepare();
        prepared.start_measurement();
        let now = prepared.sim().now();
        let schedule = FaultSchedule::random_links(
            prepared.sim().network().grid(),
            seed,
            fault_count,
            now + SimDuration::from_ns(300),
            now + SimDuration::from_us(1),
        )
        .with(
            now + SimDuration::from_ns(600),
            FaultKind::RouterDown { id: RouterId::new(dead % side, dead / side % side) },
        );
        prepared.sim_mut().install_faults(schedule);
        let outcome = prepared.run_to_bound();
        prop_assert!(matches!(outcome, RunOutcome::Quiescent | RunOutcome::Stalled));
        prop_assert_eq!(prepared.sim().events_pending(), 0);
        let net = prepared.sim().network();
        prop_assert_eq!(net.meta().live() as u64, net.instrumented_flits_buffered());
        if outcome == RunOutcome::Quiescent {
            prop_assert_eq!(net.meta().live(), 0);
        }
        let (injected, delivered) = net.stats().totals();
        prop_assert!(injected > 0 && delivered <= injected);
    }
}

/// Packets sent `from -> to`, a few in flight at once; returns the
/// smallest recorded latency after checking loss-free in-order delivery
/// and that the drain released every record.
fn journey_min_latency(mesh: (u8, u8), from: RouterId, to: RouterId) -> SimDuration {
    const PACKETS: u64 = 12;
    let mut sim = NocSim::paper_mesh(mesh.0, mesh.1, 11);
    sim.begin_measurement();
    let flow = sim.add_be_source(
        from,
        vec![to],
        3,
        TemporalSpec::cbr(SimDuration::from_ns(25)),
        "journey",
        EmitWindow {
            limit: Some(PACKETS),
            ..Default::default()
        },
    );
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    let stats = sim.flow(flow);
    assert_eq!((stats.delivered, stats.sequence_errors), (PACKETS, 0));
    assert_eq!(
        sim.network().meta().live(),
        0,
        "{from}->{to}: records leaked"
    );
    stats.latency.min().expect("packets were delivered")
}

/// BE packets beyond the 15-link header radius are rebuilt at relay NAs
/// and their flits hand the instrumentation handles on (two legs across
/// the 16×16 diagonal; three on a 40-router row, where the middle relay
/// passes the continuation word's record to a fresh continuation word
/// and the last one releases it). The recorded latency must span the
/// whole journey — at least the sum of its legs measured on their own —
/// and nothing may be left in the slab.
#[test]
fn relayed_packets_keep_one_record_across_every_leg() {
    let at = |x, y| RouterId::new(x, y);
    for (mesh, stops) in [
        ((16, 16), vec![at(0, 0), at(15, 0), at(15, 15)]),
        ((40, 1), vec![at(0, 0), at(15, 0), at(30, 0), at(39, 0)]),
    ] {
        let whole = journey_min_latency(mesh, stops[0], *stops.last().unwrap());
        let legs: SimDuration = stops
            .windows(2)
            .map(|leg| journey_min_latency(mesh, leg[0], leg[1]))
            .sum();
        assert!(
            whole >= legs,
            "{mesh:?}: recorded {whole} < {legs}, the sum of the legs"
        );
    }
}

/// A GS source with no stop time, silenced by `stop_flow`, ticks no
/// more: one bound later nothing is pending, and the run drains. (The
/// pending-count check comes first, so a source that kept ticking fails
/// it instead of hanging `run_to_quiescence`.)
#[test]
fn a_stopped_source_stops_ticking() {
    let mut sim = NocSim::paper_mesh(3, 3, 5);
    let conn = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 2))
        .expect("an idle mesh admits");
    sim.wait_connections_settled().expect("programming settles");
    sim.begin_measurement();
    let cbr = TemporalSpec::cbr(SimDuration::from_ns(10));
    let flow = sim.add_gs_source(conn, cbr, "gs", EmitWindow::default());
    sim.run_for(SimDuration::from_us(1));
    sim.stop_flow(flow);
    // 1 µs is far beyond the worst-case latency of a 4-hop GS path.
    sim.run_for(SimDuration::from_us(1));
    assert_eq!(sim.events_pending(), 0, "the silenced source still ticks");
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    let stats = sim.flow(flow);
    assert!(stats.injected > 0 && stats.delivered == stats.injected);
}

/// A BE source without a stop time at a router that fail-stops ticks no
/// more: checked the same way as a stopped flow.
#[test]
fn a_source_at_a_dead_router_stops_ticking() {
    let mut sim = NocSim::paper_mesh(3, 3, 6);
    let victim = RouterId::new(1, 1);
    let cbr = TemporalSpec::cbr(SimDuration::from_ns(100));
    let dests = vec![RouterId::new(2, 2)];
    sim.add_be_source(victim, dests, 3, cbr, "be", EmitWindow::default());
    let dies_at = sim.now() + SimDuration::from_ns(550);
    sim.install_faults(FaultSchedule::new(1).with(dies_at, FaultKind::RouterDown { id: victim }));
    sim.run_for(SimDuration::from_us(2));
    assert_eq!(
        sim.events_pending(),
        0,
        "the dead router's source still ticks"
    );
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
}

/// A router fail-stop under load. Three streams keep three of the
/// victim's input wires busy — a GS connection crossing it eastward
/// (`GsBuffer` steering), one terminating in it from the north
/// (`LocalGs`) and a BE flow crossing it westward (`BeUnit`) — and the
/// death time is one at which each wire carries a flit, so the dead
/// router swallows one of every kind in flight; everything sent
/// afterwards drops at its dead links. Each lost flit owes its sender
/// exactly one spoofed unlock or credit. The pinned counters are that
/// accounting, and both GS senders inject their full schedule on
/// spoofed unlocks alone (one missing would wedge a sharebox for good).
#[test]
fn router_fail_stop_spoofs_feedback_for_every_swallowed_flit() {
    let at = RouterId::new;
    let victim = at(2, 1);
    let cbr = |ns| TemporalSpec::cbr(SimDuration::from_ns(ns));
    let mut sim = NocSim::paper_mesh(4, 3, 0xDEAD);
    let through = sim.open_connection(at(0, 1), at(3, 1)).unwrap();
    let into = sim.open_connection(at(2, 0), victim).unwrap();
    sim.wait_connections_settled().unwrap();
    let bounded = EmitWindow {
        stop_after: Some(SimDuration::from_us(3)),
        ..Default::default()
    };
    sim.begin_measurement();
    let gs_through = sim.add_gs_source(through, cbr(4), "gs-through", bounded);
    let gs_into = sim.add_gs_source(into, cbr(5), "gs-into", bounded);
    let be = sim.add_be_source(at(3, 1), vec![at(0, 1)], 4, cbr(15), "be-through", bounded);
    let dies_at = sim.now() + SimDuration::from_ns(1007);
    sim.install_faults(FaultSchedule::new(1).with(dies_at, FaultKind::RouterDown { id: victim }));

    sim.run_for(SimDuration::from_ns(1006));
    assert_eq!(sim.network().fault_counters(), FaultCounters::default());
    let before = [gs_through, gs_into, be].map(|f| sim.flow(f));

    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    let after = [gs_through, gs_into, be].map(|f| sim.flow(f));
    // GS: nothing more arrives and every flit of the schedule is still
    // injected; BE: the packet cut by the fault is lost, later ones
    // route around the dead router.
    let counts = |f: &[mango_net::FlowStats; 3]| f.clone().map(|f| (f.injected, f.delivered));
    assert_eq!(counts(&before), [(252, 251), (202, 201), (68, 67)]);
    assert_eq!(counts(&after), [(750, 251), (600, 201), (200, 199)]);
    assert_eq!(
        sim.network().fault_counters(),
        FaultCounters {
            gs_flits_dropped: 898,
            be_flits_dropped: 5,
            spoofed_unlocks: 898,
            spoofed_credits: 5,
            ..Default::default()
        }
    );
    let net = sim.network();
    for src in [at(0, 1), at(2, 0)] {
        assert_eq!(net.na().gs_queued_total(net.grid().index(src)), 0);
    }
    assert_eq!(net.meta().live(), 0);
}
