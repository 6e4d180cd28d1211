//! Chiplet extension experiment: **GS guarantees composed across die
//! boundaries**. A 2×2 chiplet package (four 4×4 dies, one global 8×8
//! node grid) carries a GS connection from (1,1) to (6,6) whose XY
//! route crosses *two* D2D boundaries — the x-seam between columns 3|4
//! and the y-seam between rows 3|4. Each crossing adds the D2D extra
//! link delay to the analytic bound ([`ServiceModel::report_along`]
//! walks the actual path), and the experiment validates the composed
//! bound end-to-end: observed worst case ≤ bound under hotspot BE
//! interference, before *and after* a fail-stop fault on one of the
//! boundary links the route depends on.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_chiplet`
//! `[-- --threads N] [--smoke] [--list]`
//!
//! Everything on stdout is deterministic and byte-diffed in CI against
//! `tests/golden/repro_chiplet_smoke.txt` at 1 and 4 worker threads;
//! wall-clock rates go to stderr.

use mango::core::{Direction, RouterConfig, RouterId};
use mango::hw::Table;
use mango::net::{
    xy_route, FaultKind, FaultSchedule, Grid, GsFlowSpec, MeasureBound, NaConfig, PatternKind,
    Phase, ScenarioSpec, TemporalSpec, TopologySpec, TrafficSpec,
};
use mango::qos::{path_extras, report_for, RecoveryOutcome, RecoverySpec, ServiceModel};
use mango::sim::{SimDuration, SimTime};
use mango_sweep::run_parallel;
use std::time::Instant;

fn topo() -> TopologySpec {
    TopologySpec::chiplet(2, 2, 4, 4)
}
const SIDE: u8 = 8;
const SEED: u64 = 23;
const GS_PERIOD_NS: u64 = 15;

fn src() -> RouterId {
    RouterId::new(1, 1)
}
fn dst() -> RouterId {
    RouterId::new(6, 6)
}

/// The bound-validation scenario: the tagged cross-boundary GS stream
/// over a hotspot BE background at `gap` ns per node (`None` = idle).
fn load_spec(gap_ns: Option<u64>, window_us: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::on_topology(topo(), SEED)
        .warmup(SimDuration::from_us(2))
        .measure_for(SimDuration::from_us(window_us))
        .gs_flow(GsFlowSpec {
            src: src(),
            dst: dst(),
            pattern: TemporalSpec::cbr(SimDuration::from_ns(GS_PERIOD_NS)),
            name: "cross-die".into(),
            window: Default::default(),
            phase: Phase::Measure,
        });
    if let Some(gap) = gap_ns {
        spec = spec.traffic(
            TrafficSpec::new(
                PatternKind::Hotspot.spatial(SIDE, SIDE),
                TemporalSpec::poisson(SimDuration::from_ns(gap)),
            )
            .payload(4)
            .named("bg-"),
        );
    }
    spec
}

/// The recovery phase: managed GS connections (the cross-die stream is
/// the tagged victim) over hotspot BE, with a fail-stop fault on the
/// D2D boundary link `(3,1) -> East` — the x-seam crossing the victim's
/// XY route depends on.
fn recovery_spec(window_us: u64) -> RecoverySpec {
    let mut spec = RecoverySpec::mesh(SIDE, SIDE, SEED);
    spec.base = ScenarioSpec::on_topology(topo(), SEED);
    spec.base.measure = MeasureBound::For(SimDuration::from_us(window_us));
    spec.base = spec.base.traffic(
        TrafficSpec::new(
            PatternKind::Hotspot.spatial(SIDE, SIDE),
            TemporalSpec::poisson(SimDuration::from_ns(800)),
        )
        .payload(4)
        .named("bg-"),
    );
    // The victim plus one intra-die bystander per remaining chip: the
    // fault must break exactly the boundary-crossing connection.
    spec.managed = vec![
        (src(), dst()),
        (RouterId::new(0, 2), RouterId::new(3, 2)),
        (RouterId::new(4, 0), RouterId::new(7, 2)),
        (RouterId::new(1, 5), RouterId::new(2, 7)),
    ];
    spec.gs_period = SimDuration::from_ns(GS_PERIOD_NS);
    spec.faults = FaultSchedule::new(SEED ^ 0xFA_17).with(
        SimTime::ZERO + SimDuration::from_us(window_us / 6),
        FaultKind::LinkDown {
            from: RouterId::new(3, 1),
            dir: Direction::East,
        },
    );
    spec
}

fn main() {
    let args = mango_bench::args_accepting(&["--smoke", "--list"]);
    let window_us: u64 = if args.smoke { 40 } else { 120 };
    let be_gaps: &[Option<u64>] = if args.smoke {
        &[None, Some(400)]
    } else {
        &[None, Some(800), Some(400), Some(150)]
    };

    let grid = Grid::from_spec(&topo());
    let route = xy_route(&grid, src(), dst()).expect("XY route on the package grid");
    let crossings = {
        let mut cur = src();
        let mut n = 0usize;
        for &dir in &route {
            if grid.is_boundary_link(cur, dir) {
                n += 1;
            }
            cur = grid.neighbor(cur, dir).expect("route stays on the grid");
        }
        n
    };
    assert!(crossings >= 2, "the tagged route must cross two die seams");

    if args.list {
        println!(
            "chiplet repro: {} package, tagged GS ({},{})->({},{}) \
             crossing {crossings} D2D seams; {} BE load points + 1 recovery run \
             (listing, not running)",
            topo(),
            src().x,
            src().y,
            dst().x,
            dst().y,
            be_gaps.len()
        );
        return;
    }

    // --- Analytic composition: how the D2D extras enter the bound. ---
    let period = SimDuration::from_ns(GS_PERIOD_NS);
    let cfg = RouterConfig::paper();
    let na = NaConfig::paper();
    let model = ServiceModel::new(&cfg, &na);
    let homogeneous = report_for(&cfg, &na, route.len(), period);
    let composed = model.report_along(&grid, src(), &route, period);
    let (extra_total, extra_max) = path_extras(&grid, src(), &route);
    println!(
        "composed GS bound across die boundaries: {} package, \
         tagged stream ({},{})->({},{})\n",
        topo(),
        src().x,
        src().y,
        dst().x,
        dst().y,
    );
    println!(
        "  route: {} hops, {crossings} D2D crossings (extra {:.1} ns/link, \
         {:.1} ns total)",
        route.len(),
        extra_max.as_ns_f64(),
        extra_total.as_ns_f64()
    );
    println!(
        "  same-die bound: {:.1} ns; composed bound: {:.1} ns (+{:.1} ns); \
         guaranteed bw {:.2} Mflit/s (unchanged: VC loop + 2x extra stays \
         under the service interval)",
        homogeneous.worst_latency_ns().expect("conforming"),
        composed.worst_latency_ns().expect("conforming"),
        composed.worst_latency_ns().unwrap() - homogeneous.worst_latency_ns().unwrap(),
        composed.guaranteed_mfps
    );
    assert!(composed.conforming, "the tagged stream must conform");
    assert_eq!(
        composed.guaranteed_mfps, homogeneous.guaranteed_mfps,
        "2 ns D2D crossings must not cost guaranteed bandwidth"
    );

    // --- Measured: the composed bound holds under hotspot BE load. ---
    println!("\nobserved vs composed bound under hotspot BE interference\n");
    let start = Instant::now();
    let metrics = run_parallel(be_gaps, args.threads, |_, &gap| {
        load_spec(gap, window_us).run()
    });
    let load_wall = start.elapsed();
    let bound_ns = composed.worst_latency_ns().unwrap();
    let mut t = Table::new(vec![
        "BE background",
        "GS [Mflit/s]",
        "GS mean [ns]",
        "GS max [ns]",
        "bound [ns]",
        "obs/bound",
    ]);
    for (&gap, m) in be_gaps.iter().zip(&metrics) {
        let max_ns = m.gs(0).max_ns.expect("GS latency recorded");
        assert!(
            max_ns <= bound_ns,
            "observed {max_ns:.1} ns above the composed bound {bound_ns:.1} ns"
        );
        t.add_row(vec![
            match gap {
                None => "idle".into(),
                Some(g) => format!("hotspot 1 pkt/{g} ns/node"),
            },
            format!("{:.2}", m.gs(0).throughput_m),
            format!("{:.2}", m.gs(0).mean_ns.expect("GS latency recorded")),
            format!("{:.2}", max_ns),
            format!("{bound_ns:.1}"),
            format!("{:.3}", max_ns / bound_ns),
        ]);
    }
    print!("{t}");
    println!("\ncomposed bound held at every load point (observed <= bound)");

    // --- Recovery: a D2D boundary link dies under the tagged route. ---
    let spec = recovery_spec(window_us);
    assert!(
        grid.is_boundary_link(RouterId::new(3, 1), Direction::East),
        "the scheduled fault must hit a D2D boundary link"
    );
    println!(
        "\nboundary-link failure: fail-stop on the D2D link (3,1) -> east, \
         {} managed connections\n",
        spec.managed.len()
    );
    let start = Instant::now();
    let m = spec.run();
    let recovery_wall = start.elapsed();

    let mut t = Table::new(vec![
        "conn",
        "route",
        "hops pre->post",
        "outcome",
        "recover [ns]",
        "lost",
        "bound pre->post [ns]",
        "obs/bound",
    ]);
    for r in &m.records {
        let healed = r.recovered_at.is_some();
        t.add_row(vec![
            r.idx.to_string(),
            format!("({},{})->({},{})", r.src.x, r.src.y, r.dst.x, r.dst.y),
            if healed {
                format!("{}->{}", r.old_hops, r.new_hops)
            } else {
                r.old_hops.to_string()
            },
            r.outcome.map_or("healthy", RecoveryOutcome::name).into(),
            r.recovery_latency
                .map_or("-".into(), |d| format!("{:.1}", d.as_ns_f64())),
            r.flits_lost.to_string(),
            if healed {
                format!(
                    "{}->{}",
                    r.pre_bound_ns.map_or("-".into(), |b| format!("{b:.1}")),
                    r.post_bound_ns.map_or("-".into(), |b| format!("{b:.1}")),
                )
            } else {
                r.pre_bound_ns.map_or("-".into(), |b| format!("{b:.1}"))
            },
            r.post_observed_max_ns
                .zip(r.post_bound_ns)
                .map_or("-".into(), |(o, b)| format!("{:.3}", o / b)),
        ]);
    }
    print!("{t}");

    // The chiplet robustness contract: only the boundary-crossing
    // stream breaks, it heals around the dead seam link, and the
    // recomputed path-aware bound (D2D extras included) still holds.
    assert_eq!(m.broken, 1, "exactly the cross-die connection breaks");
    let victim = &m.records[0];
    assert!(
        matches!(
            victim.outcome,
            Some(RecoveryOutcome::Recovered | RecoveryOutcome::ReroutedLongerPath)
        ),
        "the victim must heal around the dead boundary link: {victim:?}"
    );
    assert!(victim.flits_lost > 0, "in-flight flits cross the dead seam");
    assert_eq!(m.post_bound_violations(), 0, "recomputed bounds must hold");
    for r in m.records.iter().skip(1) {
        assert!(r.outcome.is_none(), "intra-die bystander {} broke", r.idx);
    }
    println!(
        "\nhealed around the dead seam: {} -> {} hops, recomputed composed \
         bound {:.1} ns held (0 violations)",
        victim.old_hops,
        victim.new_hops,
        victim.post_bound_ns.expect("healed connection has a bound"),
    );
    eprintln!(
        "[load axis {:.1} ms on {} threads; recovery run {:.1} ms]",
        load_wall.as_secs_f64() * 1e3,
        args.threads,
        recovery_wall.as_secs_f64() * 1e3
    );
}
