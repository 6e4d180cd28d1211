//! The claims beyond the paper, on the guarantees the paper argues for:
//! the GS bound under adversarial BE patterns, the BE network's
//! saturation curve, router area and mesh scaling, and bounds composed
//! across chiplet die seams. Each row runs its grid at the default size
//! or, under `repro_paper --full`, at the full one.

use super::{in_ns, ns, recorded, span, table, us, Claim, Job, Row};
use mango::core::{Direction, RouterId};
use mango::hw::area::{AreaModel, RouterParams};
use mango::hw::power::PowerModel;
use mango::net::{xy_route, FaultKind, FaultSchedule, Grid, MeasureBound, PatternKind};
use mango::net::{ScenarioSpec, SpatialPattern, TemporalSpec, TopologySpec, TrafficSpec};
use mango::qos::driver::run_audited;
use mango::qos::{path_extras, GuaranteeAudit, GuaranteeReport, RecoveryOutcome, RecoverySpec};
use mango::qos::{PathExtras, ServiceModel};
use mango::sim::{SimDuration, SimTime};
use mango_sweep::auto_gs_pairs;

/// The grids of the extension rows at one size.
struct Size {
    /// BE gap per node [ns] of each pattern row's load points.
    pattern_gaps_ns: &'static [u64],
    /// BE gap per node [ns] of the saturation curve's points, lightest
    /// load first and heaviest last.
    saturation_gaps_ns: &'static [u64],
    /// Side and measurement window [µs] of each mesh-scaling row.
    meshes: &'static [(u8, u64)],
    /// Measurement window [µs] of both chiplet rows.
    chiplet_window_us: u64,
    /// Hotspot BE gap per node [ns] of the chiplet load points; `None`
    /// is an idle background.
    chiplet_gaps_ns: &'static [Option<u64>],
}

/// `repro_paper`'s size: the grids' ends, pinned by the goldens.
const DEFAULT: Size = Size {
    pattern_gaps_ns: &[1000, 300, 100],
    saturation_gaps_ns: &[2000, 50, 6],
    meshes: &[(16, 20)],
    chiplet_window_us: 40,
    chiplet_gaps_ns: &[None, Some(400)],
};

/// `repro_paper --full`.
const FULL: Size = Size {
    pattern_gaps_ns: &[2000, 1000, 300, 100, 50],
    saturation_gaps_ns: &[2000, 500, 150, 50, 20, 10, 6],
    meshes: &[(4, 50), (8, 50), (16, 20), (32, 5)],
    chiplet_window_us: 120,
    chiplet_gaps_ns: &[None, Some(800), Some(400), Some(150)],
};

/// The extension rows in print order, at the default or the `full` size.
/// A grid whose points carry claims of their own is one row per point
/// (pattern, mesh), so that the rows run in parallel; the saturation
/// curve's claims compare its points, so it is one row.
pub(super) fn jobs(full: bool) -> Vec<Job> {
    let size = if full { &FULL } else { &DEFAULT };
    let mut jobs: Vec<Job> = vec![Box::new(pattern_bound)];
    let gaps = size.pattern_gaps_ns;
    jobs.extend((0..PATTERNS).map(|p| Box::new(move || pattern(p, gaps)) as Job));
    let gaps = size.saturation_gaps_ns;
    jobs.push(Box::new(move || saturation(gaps)));
    jobs.push(Box::new(area));
    let meshes = size.meshes.iter();
    jobs.extend(meshes.map(|&(side, window)| Box::new(move || mesh(side, window)) as Job));
    let (window, gaps) = (size.chiplet_window_us, size.chiplet_gaps_ns);
    jobs.push(Box::new(move || chiplet_bound(window, gaps)));
    jobs.push(Box::new(move || chiplet_fault(window)));
    jobs
}

/// The pattern rows' tagged stream, one flit per 12 ns from (0,0) to
/// (7,7) of an 8×8 mesh: XY-routed east along row 0, then south down
/// column 7 — 14 links.
const PATTERN_GS: (RouterId, RouterId) = (RouterId::new(0, 0), RouterId::new(7, 7));
const PATTERN_HOPS: usize = 14;
const PATTERN_GS_NS: u64 = 12;

/// How many interference patterns [`patterns`] returns.
const PATTERNS: usize = 5;

/// The interference patterns, in row order: the standard NoC suite, then
/// a hotspot that aims 60 % of every node's traffic at two nodes on
/// column 7 — the tagged route's south leg — so that BE fan-in converges
/// exactly where the tagged stream runs.
fn patterns() -> [(&'static str, SpatialPattern); PATTERNS] {
    let hotspot = SpatialPattern::hotspot(vec![RouterId::new(7, 3), RouterId::new(7, 4)], 0.6);
    [
        ("uniform", SpatialPattern::UniformRandom),
        ("transpose", SpatialPattern::Transpose),
        ("bitcomp", SpatialPattern::BitComplement),
        ("tornado", SpatialPattern::Tornado),
        ("hotspot-gs-col", hotspot),
    ]
}

/// The admission bound of the pattern rows' tagged stream.
fn pattern_report() -> GuaranteeReport {
    let path = PathExtras::uniform(PATTERN_HOPS);
    ServiceModel::paper().report(&path, ns(PATTERN_GS_NS))
}

/// The bound every pattern row checks its tagged stream against: the
/// paper argues that a GS connection is logically independent of BE
/// traffic, but its figures try that only against uniform-random BE.
fn pattern_bound() -> Row {
    let report = pattern_report();
    let ((src, dst), bound) = (PATTERN_GS, in_ns(report.worst_latency));
    let text = format!(
        "tagged GS {src} -> {dst} at {PATTERN_GS_NS} ns CBR over {PATTERN_HOPS} links,\n\
         analytical worst-case bound {bound:.1} ns\n"
    );
    let (offered, guaranteed) = (report.requested_mfps, report.guaranteed_mfps);
    row! { "Patterns", "GS guarantees under spatial interference patterns: 8x8 mesh", text;
        "the tagged stream is conforming: offered vs guaranteed":
            format!("{offered:.2} vs {guaranteed:.2} Mflit/s"), "offered <= guaranteed"
            => report.conforming;
    }
}

/// The tagged stream over BE load of the `p`-th of [`patterns`], one
/// load point per BE gap of `gaps_ns`.
fn pattern(p: usize, gaps_ns: &[u64]) -> Row {
    let (name, spatial) = patterns().into_iter().nth(p).expect("one of the patterns");
    let report = pattern_report();
    let bound = in_ns(report.worst_latency);
    let mut text = String::from("BE gap/node [ns] | BE delivered [Mpkt/s] | BE mean [ns]");
    text += " | BE worst p99 [ns] | GS [Mflit/s] | GS mean [ns] | GS max [ns] | obs/bound";
    let (mut audit, mut rates, mut errors) = (GuaranteeAudit::default(), Vec::new(), 0);
    for &gap in gaps_ns {
        let (src, dst) = PATTERN_GS;
        let be = TrafficSpec::new(spatial.clone(), TemporalSpec::poisson(ns(gap)));
        let spec = ScenarioSpec::mesh(8, 8, 7)
            .warmup(us(5))
            .measure_for(us(25))
            .gs(src, dst, TemporalSpec::cbr(ns(PATTERN_GS_NS)))
            .traffic(be.payload(4).named("bg-"));
        let m = run_audited(&spec, &[report.worst_latency], &mut audit);
        let gs = m.gs(0);
        let (mean, max) = (recorded(gs.mean_ns), recorded(gs.max_ns));
        let (be, be_mean, be_p99) = (
            m.be_throughput_m(),
            m.be_weighted_mean_ns(),
            m.be_p99_worst_ns(),
        );
        text += &format!(
            "\n{gap} | {be:.2} | {be_mean:.1} | {be_p99:.1} | {:.2}",
            gs.throughput_m
        );
        text += &format!(" | {mean:.2} | {max:.2} | {:.3}", max / bound);
        rates.push(gs.throughput_m);
        errors += gs.sequence_errors;
    }
    let (worst, held) = (audit.worst_bound_ratio(), audit.holds());
    let (lo, hi) = span(&rates);
    let moved = (hi - lo) / lo;
    row! { "Patterns", format!("pattern: {name}"), table(&text).to_string();
        (format!("{name}: GS max <= bound at every BE load")):
            format!("obs/bound {worst:.3}"), format!("<= 1 (bound {bound:.1} ns)") => held;
        (format!("{name}: GS sequence errors")): errors.to_string(), "= 0" => errors == 0;
        (format!("{name}: GS rate across BE loads, (max - min) / min")):
            format!("{lo:.2}..{hi:.2} Mflit/s, {:.3}%", moved * 100.0), "< 1%" => moved < 0.01;
    }
}

/// The classic NoC saturation curve of the BE network, one point per
/// gap of `gaps_ns`: every node of a 4×4 mesh sources uniform-random
/// 4-flit packets with Poisson gaps (offered per-node rate = 1/gap), the
/// seed mixing the gap in so that each load gets its own random stream.
/// With GS idle every link gives BE its full capacity, so the curve
/// saturates only as per-node injection nears the NA's own limit.
fn saturation(gaps_ns: &[u64]) -> Row {
    let mut text = String::from("offered/node [Mpkt/s] | delivered total [Mpkt/s]");
    text += " | mean latency [ns] | worst p99 [ns]";
    let mut points = Vec::new();
    for gap in gaps_ns.iter().map(|&gap| ns(gap)) {
        let be = TrafficSpec::uniform_poisson(gap).payload(3).named("sweep-");
        let spec = ScenarioSpec::mesh(4, 4, 0xBEEF ^ gap.as_ps()).warmup(us(20));
        let m = spec.measure_for(us(100)).traffic(be).run();
        let (offered, delivered) = (gap.as_rate_mhz(), m.be_throughput_m());
        let (mean, p99) = (m.be_weighted_mean_ns(), m.be_p99_worst_ns());
        text += &format!("\n{offered:.2} | {delivered:.1} | {mean:.1} | {p99:.1}");
        points.push((offered * 16.0, delivered, mean));
    }
    let ((offered, light, light_mean), (_, heavy, heavy_mean)) =
        (points[0], points[points.len() - 1]);
    let (error, climb) = ((light - offered).abs() / offered, heavy_mean / light_mean);
    // Credit flow control neither drops nor retransmits: past the knee
    // the delivered rate levels off instead of collapsing.
    let steps = points.windows(2).map(|w| w[1].1 / w[0].1);
    let step = steps.fold(f64::INFINITY, f64::min);
    let flits = heavy * 4.0;
    let report = format!(
        "{}\nsaturation: {heavy:.1} Mpkt/s total ({flits:.0} Mflit/s incl. headers)\n",
        table(&text)
    );
    row! { "Saturation", "BE saturation curve: uniform random traffic, 4x4 mesh, 4-flit packets", report;
        "light load delivers what is offered":
            format!("{light:.1} vs {offered:.1} Mpkt/s, {:.1}% off", error * 100.0), "< 15% off"
            => error < 0.15;
        "mean latency climbs toward saturation, lightest -> heaviest load":
            format!("x{climb:.1}"), "> 3x" => climb > 3.0;
        "no congestion collapse: smallest step in delivered rate":
            format!("x{step:.3}"), ">= x0.97" => step >= 0.97;
    }
}

/// Secs. 4.2 / 4.3 beyond the paper's design point: router area as V, W
/// and D grow — the VC-control wire switch grows quadratically in V,
/// which is why the paper suggests a Clos network for large V — and
/// Sec. 1's idle power. The design point itself is Table 1's row; Fig. 5
/// and the buffer-depth row print the V and D axes the paper discusses.
fn area() -> Row {
    let model = AreaModel::cmos_120nm();
    let paper = model.breakdown(&RouterParams::paper());
    let with = |set: fn(&mut RouterParams)| {
        let mut params = RouterParams::paper();
        set(&mut params);
        model.breakdown(&params)
    };
    let configs = [
        ("V=4 (fewer connections)", with(|p| p.gs_vcs = 4)),
        ("V=16", with(|p| p.gs_vcs = 16)),
        ("V=32 (Clos territory)", with(|p| p.gs_vcs = 32)),
        ("V=64", with(|p| p.gs_vcs = 64)),
        ("W=64", with(|p| p.flit_data_bits = 64)),
        ("D=4 (deeper buffers)", with(|p| p.buffer_depth = 4)),
    ];
    let mut text = String::from("configuration | total [mm2] | vs paper | switching");
    text += " | VC control | VC control share | buffers";
    for (name, b) in configs {
        let (total, x) = (b.total_mm2(), b.total_um2() / paper.total_um2());
        let (switching, vc) = (b.switching / 1e6, b.vc_control / 1e6);
        let (share, buffers) = (b.vc_control / b.total_um2() * 100.0, b.vc_buffers / 1e6);
        text += &format!("\n{name} | {total:.3} | {x:.2}x | {switching:.3} | {vc:.3}");
        text += &format!(" | {share:.1}% | {buffers:.3}");
    }
    let power = PowerModel::cmos_120nm();
    let mm2 = paper.total_mm2();
    let report = format!(
        "paper design point (Table 1) = 1.00x; its VC control is {:.1}% of the area\n\n{}\n\
         Idle power at the paper's router area ({mm2:.3} mm2):\n  \
         clockless (leakage only): {:.1} uW — \"zero dynamic power consumption when idle\"\n  \
         equivalent clocked router (free-running clock tree): {:.0} uW\n  \
         energy per flit-hop: {:.2} pJ\n",
        paper.vc_control / paper.total_um2() * 100.0,
        table(&text),
        power.idle_power_clockless_uw(mm2),
        power.idle_power_clocked_uw(mm2),
        power.flit_hop_energy_pj(&RouterParams::paper()),
    );
    row! { "Scaling", "router area vs V, W and D; idle power (Secs. 1, 4.2, 4.3)", report; }
}

/// The mixed workload on a `side × side` mesh — two center-crossing GS
/// connections at 12 ns CBR and uniform-random BE at 300 ns per node —
/// measured for `window_us`. Larger meshes get shorter windows; the
/// per-node event density does not depend on the size, so the rates
/// stay comparable. Each GS stream is checked against the bound
/// admission control computes for its own XY route.
fn mesh(side: u8, window_us: u64) -> Row {
    let (grid, period) = (Grid::new(side, side), ns(12));
    let model = ServiceModel::paper();
    let spec = ScenarioSpec::mesh(side, side, 77).warmup(us(2));
    let (mut spec, mut bounds) = (spec.measure_for(us(window_us)), Vec::new());
    for (src, dst) in auto_gs_pairs(&grid, 2) {
        spec = spec.gs(src, dst, TemporalSpec::cbr(period));
        let route = xy_route(&grid, src, dst).expect("XY route on the mesh");
        bounds.push(model.report_along(&grid, src, &route, period).worst_latency);
    }
    let be = TrafficSpec::uniform_poisson(ns(300)).payload(4);
    let mut audit = GuaranteeAudit::default();
    let m = run_audited(&spec.traffic(be.named("bg-")), &bounds, &mut audit);
    let (worst, held) = (audit.worst_bound_ratio(), audit.holds());
    let errors: u64 = (0..bounds.len()).map(|i| m.gs(i).sequence_errors).sum();
    let mut text = String::from("mesh | window [us] | events | GS [Mflit/s] | GS mean [ns]");
    text += " | GS max [ns] | BE delivered | BE mean [ns] | worst obs/bound";
    let (gs, events, rate) = (m.gs(0), m.events, m.gs_throughput_m());
    let (mean, max) = (recorded(gs.mean_ns), recorded(gs.max_ns));
    let (be, be_mean) = (m.be_delivered(), m.be_mean_of_means_ns());
    text += &format!("\n{side}x{side} | {window_us} | {events} | {rate:.1} | {mean:.1}");
    text += &format!(" | {max:.1} | {be} | {be_mean:.1} | {worst:.3}");
    let title =
        format!("mesh {side}x{side}: 2 crossing GS conns @ 12 ns + uniform BE @ 300 ns/node");
    row! { "Scaling", title, table(&text).to_string();
        (format!("{side}x{side}: every GS stream's max <= its admission bound")):
            format!("obs/bound {worst:.3}"), "<= 1" => held;
        (format!("{side}x{side}: GS sequence errors")): errors.to_string(), "= 0" => errors == 0;
    }
}

/// The chiplet rows' package: four 4×4 dies in a 2×2 arrangement on one
/// global 8×8 node grid.
fn package() -> TopologySpec {
    TopologySpec::chiplet(2, 2, 4, 4)
}
const CHIPLET_SEED: u64 = 23;
const CHIPLET_GS_NS: u64 = 15;

/// The tagged cross-die stream: its XY route from (1,1) to (6,6) crosses
/// the x-seam between columns 3|4 and the y-seam between rows 3|4.
const CROSS_DIE: (RouterId, RouterId) = (RouterId::new(1, 1), RouterId::new(6, 6));

/// The D2D link the fault row fails: (3,1) → East, the x-seam crossing
/// the tagged stream's XY route depends on.
const SEAM_LINK: (RouterId, Direction) = (RouterId::new(3, 1), Direction::East);

/// Hotspot BE at one packet per `gap_ns` per node.
fn hotspot(gap_ns: u64) -> TrafficSpec {
    let spatial = PatternKind::Hotspot.spatial(8, 8);
    let be = TrafficSpec::new(spatial, TemporalSpec::poisson(ns(gap_ns)));
    be.payload(4).named("bg-")
}

/// GS bounds composed across die boundaries: each D2D crossing adds the
/// D2D extra link delay to the bound ([`path_extras`] walks the actual
/// path), and the tagged stream's worst latency is checked against it
/// under hotspot BE at each of `gaps_ns`.
fn chiplet_bound(window_us: u64, gaps_ns: &[Option<u64>]) -> Row {
    let ((src, dst), grid, period) = (CROSS_DIE, Grid::from_spec(&package()), ns(CHIPLET_GS_NS));
    let route = xy_route(&grid, src, dst).expect("XY route on the package grid");
    let mut at = src;
    let mut seams = 0;
    for &dir in &route {
        seams += usize::from(grid.is_boundary_link(at, dir));
        at = grid.neighbor(at, dir).expect("the route stays on the grid");
    }
    let (model, path) = (ServiceModel::paper(), path_extras(&grid, src, &route));
    let same_die = model.report(&PathExtras::uniform(path.hops), period);
    let composed = model.report(&path, period);
    let (flat, bound) = (in_ns(same_die.worst_latency), in_ns(composed.worst_latency));
    let (same_bw, composed_bw) = (same_die.guaranteed_mfps, composed.guaranteed_mfps);
    let mut text = String::from("BE background | GS [Mflit/s] | GS mean [ns] | GS max [ns]");
    text += " | bound [ns] | obs/bound";
    let mut audit = GuaranteeAudit::default();
    for &gap in gaps_ns {
        let mut spec = ScenarioSpec::on_topology(package(), CHIPLET_SEED)
            .warmup(us(2))
            .measure_for(us(window_us))
            .gs(src, dst, TemporalSpec::cbr(period));
        let background = gap.map_or("idle".into(), |g| format!("hotspot 1 pkt/{g} ns/node"));
        if let Some(gap) = gap {
            spec = spec.traffic(hotspot(gap));
        }
        let m = run_audited(&spec, &[composed.worst_latency], &mut audit);
        let gs = m.gs(0);
        let (mean, max) = (recorded(gs.mean_ns), recorded(gs.max_ns));
        text += &format!(
            "\n{background} | {:.2} | {mean:.2} | {max:.2}",
            gs.throughput_m
        );
        text += &format!(" | {bound:.1} | {:.3}", max / bound);
    }
    let report = format!(
        "route: {} hops, {seams} D2D crossings (extra {:.1} ns/link, {:.1} ns total)\n\
         same-die bound: {flat:.1} ns; composed bound: {bound:.1} ns (+{:.1} ns); \
         guaranteed bw {composed_bw:.2} Mflit/s\n\n{}",
        route.len(),
        path.extra_max.as_ns_f64(),
        path.extra_total.as_ns_f64(),
        bound - flat,
        table(&text),
    );
    let (worst, held) = (audit.worst_bound_ratio(), audit.holds());
    let title = format!(
        "composed GS bound across die boundaries: {} package, {src}->{dst}",
        package()
    );
    row! { "Chiplet", title, report;
        "the tagged route crosses two die seams": format!("{seams} seams"), ">= 2" => seams >= 2;
        "the tagged stream is conforming: offered vs guaranteed":
            format!("{:.2} vs {composed_bw:.2} Mflit/s", composed.requested_mfps),
            "offered <= guaranteed" => composed.conforming;
        "D2D crossings cost no guaranteed bandwidth":
            format!("{composed_bw:.2} vs {same_bw:.2} Mflit/s same-die"), "= same-die"
            => composed_bw == same_bw;
        "GS max <= composed bound at every BE load":
            format!("obs/bound {worst:.3}"), format!("<= 1 (bound {bound:.1} ns)") => held;
    }
}

/// A fail-stop fault on [`SEAM_LINK`] under managed GS connections — the
/// cross-die stream, the victim, and one intra-die bystander on each
/// other die — over hotspot BE at one packet per 800 ns per node: only
/// the boundary-crossing stream may break, and it must heal around the
/// dead seam link within its recomputed path-aware bound.
fn chiplet_fault(window_us: u64) -> Row {
    let ((src, dst), (from, dir)) = (CROSS_DIE, SEAM_LINK);
    let mut spec = RecoverySpec::mesh(8, 8, CHIPLET_SEED);
    spec.base = ScenarioSpec::on_topology(package(), CHIPLET_SEED).traffic(hotspot(800));
    spec.base.measure = MeasureBound::For(us(window_us));
    spec.managed = vec![
        (src, dst),
        (RouterId::new(0, 2), RouterId::new(3, 2)),
        (RouterId::new(4, 0), RouterId::new(7, 2)),
        (RouterId::new(1, 5), RouterId::new(2, 7)),
    ];
    spec.gs_period = ns(CHIPLET_GS_NS);
    let at = SimTime::ZERO + SimDuration::from_us(window_us / 6);
    spec.faults =
        FaultSchedule::new(CHIPLET_SEED ^ 0xFA_17).with(at, FaultKind::LinkDown { from, dir });
    let seam = Grid::from_spec(&package()).is_boundary_link(from, dir);
    let m = spec.run();
    let mut text = String::from("conn | route | hops pre->post | outcome | recover [ns] | lost");
    text += " | bound pre->post [ns] | obs/bound";
    let bound = |b: Option<f64>| b.map_or("-".into(), |b| format!("{b:.1}"));
    for r in &m.records {
        let healed = r.recovered_at.is_some();
        let (pre, post) = (bound(r.pre_bound_ns), bound(r.post_bound_ns));
        let (hops, bounds) = match healed {
            true => (
                format!("{}->{}", r.old_hops, r.new_hops),
                format!("{pre}->{post}"),
            ),
            false => (r.old_hops.to_string(), pre),
        };
        let outcome = r.outcome.map_or("healthy", RecoveryOutcome::name);
        let recover = r
            .recovery_latency
            .map_or("-".into(), |d| format!("{:.1}", d.as_ns_f64()));
        let ratio = m.post_audit(r).and_then(|e| e.ratio());
        let ratio = ratio.map_or("-".into(), |ratio| format!("{ratio:.3}"));
        let (s, d) = (r.src, r.dst);
        text += &format!("\n{} | {s}->{d} | {hops} | {outcome} | {recover}", r.idx);
        text += &format!(" | {} | {bounds} | {ratio}", r.flits_lost);
    }
    let victim = &m.records[0];
    let healed = matches!(
        victim.outcome,
        Some(RecoveryOutcome::Recovered | RecoveryOutcome::ReroutedLongerPath)
    );
    let outcome = victim.outcome.map_or("healthy", RecoveryOutcome::name);
    let bystanders = &m.records[1..];
    let broke = bystanders.iter().filter(|r| r.outcome.is_some()).count();
    let violations = m.post_bound_violations();
    let report = format!(
        "{}\nvictim: {} -> {} hops, recomputed composed bound {} ns\n",
        table(&text),
        victim.old_hops,
        victim.new_hops,
        bound(victim.post_bound_ns),
    );
    let title = format!(
        "fail-stop on the D2D link {from} -> east, {} managed connections",
        spec.managed.len()
    );
    let lost = victim.flits_lost;
    row! { "Chiplet", title, report;
        "the failed link is a D2D seam link": format!("{from} -> {dir}: {seam}"), "true" => seam;
        "exactly one connection breaks": format!("{} broken", m.broken), "= 1" => m.broken == 1;
        "the cross-die victim heals around the dead seam, losing its in-flight flits":
            format!("{outcome}, {lost} flits lost"), "healed, lost > 0" => healed && lost > 0;
        "recomputed composed bounds hold after recovery":
            format!("{violations} violations"), "= 0" => violations == 0;
        "intra-die bystanders stay unbroken":
            format!("{broke} of {} broke", bystanders.len()), "= 0" => broke == 0;
    }
}
