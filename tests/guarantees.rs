//! Integration tests for the guaranteed-service properties the paper
//! claims: bounded latency, isolation and inherent end-to-end flow
//! control. GS/BE independence (Fig. 8), the fair-share floors under
//! full contention and their redistribution are claims of
//! `repro_paper` (`mango_bench::paper`).

use mango::core::{ArbiterKind, Direction, RouterConfig, RouterId};
use mango::net::{EmitWindow, Grid, NaConfig, Network, NocSim, TemporalSpec};
use mango::qos::ServiceModel;
use mango::sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Latency grows linearly with hop count (constant per-hop forwarding —
/// the non-blocking switch at work).
#[test]
fn unloaded_latency_scales_linearly_with_hops() {
    let mut means = Vec::new();
    for hops in [1u8, 2, 4, 7] {
        let mut sim = NocSim::paper_mesh(8, 1, 23);
        let conn = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(hops, 0))
            .unwrap();
        sim.wait_connections_settled().unwrap();
        sim.begin_measurement();
        let flow = sim.add_gs_source(
            conn,
            TemporalSpec::cbr(SimDuration::from_ns(50)),
            "lat",
            EmitWindow {
                limit: Some(500),
                ..Default::default()
            },
        );
        sim.run_to_quiescence();
        means.push(sim.flow(flow).latency.mean().unwrap().as_ns_f64());
    }
    // Fit increments: each extra hop adds the same delta (within 5%).
    let d1 = (means[1] - means[0]) / 1.0; // 1→2: 1 hop
    let d2 = (means[3] - means[2]) / 3.0; // 4→7: 3 hops
    assert!(
        (d1 - d2).abs() / d1 < 0.05,
        "per-hop latency not constant: {means:?}"
    );
    // And an unloaded flit is never queued: max == min per configuration.
    assert!(means[0] > 0.0);
}

/// End-to-end flow control is inherent (Sec. 6): a slow consumer
/// throttles the source through the unlock chain with zero loss.
#[test]
fn slow_consumer_backpressures_source() {
    let consume = SimDuration::from_ns(100); // 10 Mflit/s consumer
    let na_cfg = NaConfig {
        consume_delay: consume,
    };
    let net = Network::new(Grid::new(3, 1), mango::core::RouterConfig::paper(), na_cfg);
    let mut sim = NocSim::new(net, 31);
    let conn = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .unwrap();
    sim.wait_connections_settled().unwrap();
    sim.run_for(SimDuration::from_us(2));
    sim.begin_measurement();
    // Offer 200 Mflit/s against a 10 Mflit/s consumer.
    let flow = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ns(5)),
        "fast-into-slow",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(200));
    let delivered_rate = sim.flow_throughput_m(flow);
    assert!(
        (delivered_rate - 10.0).abs() < 1.0,
        "delivery rate {delivered_rate:.1} must match the 10 Mf/s consumer"
    );
    // Nothing was lost: everything not delivered is queued at the source
    // or in the (tiny) in-network buffers.
    let s = sim.flow(flow);
    let in_network = s.injected - s.delivered;
    let src_idx = sim.network().grid().index(RouterId::new(0, 0));
    let src_queue = sim.network().na().gs_queue_len(src_idx, 0) as u64;
    // Per hop at most 2 flits + NA slot + in-flight: the network holds
    // only a handful — the rest waits at the source.
    assert!(
        in_network - src_queue < 20,
        "flits unaccounted for: {in_network} in flight, {src_queue} queued at source"
    );
}

/// GS connections are independent of each other too: a saturated
/// neighbour VC cannot push a polite connection below its floor, and a
/// quiet one keeps its low latency.
#[test]
fn gs_connections_isolated_from_each_other() {
    let mut sim = NocSim::paper_mesh(3, 1, 37);
    let polite = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .unwrap();
    let greedy = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .unwrap();
    sim.wait_connections_settled().unwrap();
    sim.run_for(SimDuration::from_us(2));
    sim.begin_measurement();
    // Polite: 60 Mf/s (inside its floor). Greedy: 500 Mf/s (way over).
    let polite_flow = sim.add_gs_source(
        polite,
        TemporalSpec::cbr(SimDuration::from_ps(16_667)),
        "polite",
        EmitWindow::default(),
    );
    let _greedy_flow = sim.add_gs_source(
        greedy,
        TemporalSpec::cbr(SimDuration::from_ns(2)),
        "greedy",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(100));
    let rate = sim.flow_throughput_m(polite_flow);
    assert!(
        (rate - 60.0).abs() < 1.0,
        "polite connection must keep its 60 Mf/s, got {rate:.1}"
    );
    let max = sim.flow(polite_flow).latency.max().unwrap();
    // 2 hops: injection + 2 × (fair-share round + forward) is a generous
    // analytic ceiling.
    assert!(
        max < SimDuration::from_ns(60),
        "polite worst-case latency {max} out of bounds"
    );
}

/// Measurement sanity: the harness accounts every injected flit exactly
/// once.
#[test]
fn no_flit_loss_or_duplication_across_flows() {
    let mut sim = NocSim::paper_mesh(3, 3, 41);
    let mut flows = Vec::new();
    for (s, d) in [
        (RouterId::new(0, 0), RouterId::new(2, 2)),
        (RouterId::new(2, 0), RouterId::new(0, 2)),
        (RouterId::new(1, 1), RouterId::new(0, 0)),
    ] {
        let c = sim.open_connection(s, d).unwrap();
        sim.wait_connections_settled().unwrap();
        flows.push(sim.add_gs_source(
            c,
            TemporalSpec::poisson(SimDuration::from_ns(15)),
            format!("{s}->{d}"),
            EmitWindow {
                limit: Some(2_000),
                ..Default::default()
            },
        ));
    }
    let outcome = sim.run_to_quiescence();
    assert_eq!(outcome, mango::sim::RunOutcome::Quiescent);
    for f in flows {
        let s = sim.flow(f);
        assert_eq!(s.injected, 2_000);
        assert_eq!(s.delivered, 2_000, "flow {} lost flits", s.name);
        assert_eq!(s.sequence_errors, 0, "flow {} reordered", s.name);
    }
    let _ = SimTime::ZERO;
}

/// Heterogeneous pipelined links (Sec. 3: "long links can be implemented
/// as pipelines"): extra forward stages on one link add exactly their
/// latency to connections crossing it, in both directions independently,
/// without affecting other paths.
#[test]
fn heterogeneous_link_delay_adds_exactly_per_crossing() {
    use mango::core::Direction;
    use mango::net::{Grid, NaConfig, Network};

    let measure = |extra_ps: u64| -> (f64, f64) {
        let mut grid = Grid::new(3, 1);
        grid.set_link_extra(
            RouterId::new(0, 0),
            Direction::East,
            SimDuration::from_ps(extra_ps),
        );
        let net = Network::new(grid, mango::core::RouterConfig::paper(), NaConfig::paper());
        let mut sim = mango::net::NocSim::new(net, 51);
        // Crosses the slow link.
        let slow = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(1, 0))
            .unwrap();
        // Does not.
        let fast = sim
            .open_connection(RouterId::new(1, 0), RouterId::new(2, 0))
            .unwrap();
        sim.wait_connections_settled().unwrap();
        sim.begin_measurement();
        let fs = sim.add_gs_source(
            slow,
            TemporalSpec::cbr(SimDuration::from_ns(50)),
            "slow",
            EmitWindow {
                limit: Some(200),
                ..Default::default()
            },
        );
        let ff = sim.add_gs_source(
            fast,
            TemporalSpec::cbr(SimDuration::from_ns(50)),
            "fast",
            EmitWindow {
                limit: Some(200),
                ..Default::default()
            },
        );
        sim.run_to_quiescence();
        (
            sim.flow(fs).latency.mean().unwrap().as_ns_f64(),
            sim.flow(ff).latency.mean().unwrap().as_ns_f64(),
        )
    };

    let (slow0, fast0) = measure(0);
    let (slow2, fast2) = measure(2_000);
    // The slow connection gains exactly the 2 ns stage...
    assert!(
        (slow2 - slow0 - 2.0).abs() < 0.01,
        "expected +2 ns on the pipelined link: {slow0:.3} -> {slow2:.3}"
    );
    // ...while the other path is untouched.
    assert!(
        (fast2 - fast0).abs() < 0.01,
        "unrelated path shifted: {fast0:.3} -> {fast2:.3}"
    );
}

/// The tagged connection of the two tests below, `(0,0) -> (2,0)`: two
/// links east on an 8×1 line.
const TAGGED: (RouterId, RouterId, [Direction; 2]) = (
    RouterId::new(0, 0),
    RouterId::new(2, 0),
    [Direction::East; 2],
);

/// The tagged flow's worst latency and its backlog (flits emitted and
/// not yet delivered), checked against `bound` at `period`: no delivered
/// flit took longer than the bound, and no more flits are outstanding
/// than the bound's window of emissions holds, so none still queued has
/// outlived it either.
fn check_bound(sim: &NocSim, flow: u32, bound: SimDuration, period: SimDuration) -> String {
    let s = sim.flow(flow);
    let max = s.latency.max().expect("the tagged flow delivered");
    let outstanding = s.injected - s.delivered;
    let window = bound.as_ps() / period.as_ps() + 1;
    if max <= bound && outstanding <= window {
        return String::new();
    }
    format!("max {max} vs bound {bound}, {outstanding} flits outstanding vs {window}")
}

/// Sec. 3's pipelined links: with 5 ns of extra delay on every link the
/// lone VC's loop (250 + 1750 + 2×5000 ps), not the 10.3 ns fair-share
/// round, sets the service interval. A connection sending at exactly
/// that interval, with no contender, stays within its bound however
/// long it runs.
#[test]
fn a_connection_at_its_interval_holds_its_bound_on_slow_links() {
    let extra = SimDuration::from_ns(5);
    let mut grid = Grid::new(8, 1);
    grid.set_default_link_extra(extra);
    let model = ServiceModel::paper();
    let interval = model
        .service_interval(extra)
        .expect("fair share is bounded");
    assert_eq!(interval, SimDuration::from_ps(12_000));
    let (src, dst, dirs) = TAGGED;
    let report = model.report_along(&grid, src, &dirs, interval);
    let bound = report
        .worst_latency
        .expect("a source at its interval conforms");
    let net = Network::new(grid, RouterConfig::paper(), NaConfig::paper());
    let mut sim = NocSim::new(net, 61);
    let conn = sim.open_connection(src, dst).unwrap();
    sim.wait_connections_settled().unwrap();
    sim.begin_measurement();
    let cbr = TemporalSpec::cbr(interval);
    let flow = sim.add_gs_source(conn, cbr, "at-interval", EmitWindow::default());
    for run_us in [10, 30] {
        sim.run_for(SimDuration::from_us(run_us));
        let broken = check_bound(&sim, flow, bound, interval);
        assert!(broken.is_empty(), "after {run_us} more us: {broken}");
    }
}

proptest! {
    // Each case simulates 12 us of an 8x1 line: 64 cases take about
    // 0.7 s of a debug build.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bound holds over the timing space, not only at the paper's
    /// corner: for random stage delays, a uniform link extra, the
    /// fair-share or an ALG arbiter, and a tagged connection alone or
    /// among six backlogged contenders on the funnel's head link (opened
    /// first or last, started at any phase of its interval), a tagged
    /// connection sending at exactly its service interval stays within
    /// its bound at two run lengths.
    #[test]
    fn the_bound_holds_over_the_timing_space(
        link_cycle in 400u64..3_000,
        hop_forward in 100u64..3_000,
        buffer_advance in 50u64..1_000,
        unlock_path in 100u64..3_000,
        arb_decision in 50u64..1_000,
        extra in 0u64..9_000,
        arbiter in 0usize..4,
        contended in any::<bool>(),
        tagged_last in any::<bool>(),
        phase_ppm in 0u64..1_000_000,
    ) {
        let mut cfg = RouterConfig::paper();
        let t = &mut cfg.timing;
        t.link_cycle = SimDuration::from_ps(link_cycle);
        t.hop_forward = SimDuration::from_ps(hop_forward);
        t.buffer_advance = SimDuration::from_ps(buffer_advance);
        t.unlock_path = SimDuration::from_ps(unlock_path);
        t.arb_decision = SimDuration::from_ps(arb_decision);
        cfg.arbiter = match arbiter {
            0 => ArbiterKind::FairShare,
            age => ArbiterKind::Alg { age_bound: [1, 4, 7][age - 1] },
        };
        let extra = SimDuration::from_ps(extra);
        let mut grid = Grid::new(8, 1);
        grid.set_default_link_extra(extra);
        let model = ServiceModel::new(&cfg, &NaConfig::paper());
        let interval = model.service_interval(extra).expect("both arbiters are bounded");
        let (src, dst, dirs) = TAGGED;
        let bound = model
            .report_along(&grid, src, &dirs, interval)
            .worst_latency
            .expect("a source at its interval conforms");

        let mut sim = NocSim::new(Network::new(grid, cfg, NaConfig::paper()), 67);
        // The funnel's other six pairs, all across link (1,0)->East.
        let contenders = [(0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 3)]
            .map(|(sx, dx)| (RouterId::new(sx, 0), RouterId::new(dx, 0)));
        let mut open = |(from, to)| sim.open_connection(from, to).expect("the funnel's VCs are free");
        let tagged_first = (!tagged_last).then(|| open((src, dst)));
        let others: Vec<_> = if contended { contenders.map(&mut open).to_vec() } else { Vec::new() };
        let tagged = tagged_first.unwrap_or_else(|| open((src, dst)));
        sim.wait_connections_settled().unwrap();
        // Backlogged: each offered a flit per two link cycles, far above
        // its share of the head link.
        let flood = TemporalSpec::cbr(SimDuration::from_ps(link_cycle * 2));
        for (i, &conn) in others.iter().enumerate() {
            sim.add_gs_source(conn, flood, format!("contender-{i}"), EmitWindow::default());
        }
        sim.begin_measurement();
        let phase = SimDuration::from_ps(interval.as_ps() * phase_ppm / 1_000_000);
        let window = EmitWindow { start_after: phase, ..Default::default() };
        let flow = sim.add_gs_source(tagged, TemporalSpec::cbr(interval), "tagged", window);
        for run_us in [4, 8] {
            sim.run_for(SimDuration::from_us(run_us));
            let broken = check_bound(&sim, flow, bound, interval);
            prop_assert!(broken.is_empty(), "after {} more us, interval {}: {}", run_us, interval, broken);
        }
    }
}
