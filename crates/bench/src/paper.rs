//! The paper's checkable claims as one table, printed by `repro_paper`:
//! each of [`ROWS`] runs the experiment behind one figure, table or
//! section and returns a claim per inequality the paper states — the
//! measured value, the paper's value or inequality, and whether it holds —
//! plus the tables it measured them on. The extension rows (`patterns`,
//! `saturation`, `scaling`, `chiplet`) test the same guarantees beyond
//! the paper's own experiments and print under their own heading;
//! [`jobs`] runs them at their default size or their full grids.

use crate::{funnel, open_funnel, COLUMN, LINE};
use mango::baseline::{run_generic_congestion, AetherealReference as Ae, GenericConfig};
use mango::baseline::{TdmConfig, TdmNetwork};
use mango::core::{ArbiterKind, Direction, Port, RouterConfig, RouterId, Steer};
use mango::hw::area::{AreaModel, RouterParams, Table1};
use mango::hw::link::{decode_1of4, encode_1of4, LinkEncoding};
use mango::hw::power::PowerModel;
use mango::hw::{Corner, Table, TimingModel};
use mango::net::{EmitWindow, Grid, NocSim, PatternKind, Phase, ScenarioSpec};
use mango::net::{SpatialPattern, TemporalSpec, TopologySpec, TrafficSpec};
use mango::qos::driver::run_audited;
use mango::qos::{GuaranteeAudit, PathExtras, ServiceModel};
use mango::sim::{SimDuration, SimTime};
use mango_sweep::SweepSpec;
use std::collections::HashSet;

/// One claim of the paper, checked.
#[derive(Debug)]
struct Claim {
    /// What the paper claims.
    claim: String,
    /// What the experiment measured.
    measured: String,
    /// The paper's value, or the inequality the measurement must meet.
    paper: String,
    /// Whether the measurement meets it.
    holds: bool,
}

/// What one row function returns: its claims and the tables behind them.
#[derive(Debug)]
pub struct Row {
    /// Section, figure or table of the paper.
    section: &'static str,
    /// What the row measures.
    title: String,
    /// The claims, in the order the experiment checks them.
    claims: Vec<Claim>,
    /// The tables the claims were measured on.
    report: String,
}

/// A [`Row`]: section, title and report, then one
/// `claim: measured, paper => holds;` line per claim (a claim that is
/// not a literal goes in parentheses).
macro_rules! row {
    ($section:literal, $title:expr, $report:expr;
     $($claim:tt: $measured:expr, $paper:expr => $holds:expr;)*) => {{
        let claims = vec![$(Claim {
            claim: $claim.into(), measured: $measured, paper: $paper.into(), holds: $holds
        }),*];
        Row { section: $section, title: $title.into(), claims, report: $report }
    }};
}

// After `row!`, which its rows use.
mod extensions;

/// The paper's rows in print order.
pub const ROWS: [fn() -> Row; 13] = [
    fig4, fig5, fig6, fig7, fig8, table1, fairshare, buffers, alg, pipelined, port_speed,
    aethereal, di_links,
];

/// A row, not yet run.
pub type Job = Box<dyn Fn() -> Row + Sync>;

/// Every row in print order: the paper's [`ROWS`], then the extensions'
/// at their default or, with `full`, their full grids.
pub fn jobs(full: bool) -> Vec<Job> {
    let paper = ROWS.map(|row| Box::new(row) as Job);
    paper.into_iter().chain(extensions::jobs(full)).collect()
}

/// The claim table of the `paper` rows, the one of the `extensions`
/// under its own heading, then each row's report in row order.
pub fn render(paper: &[Row], extensions: &[Row]) -> String {
    let (paper_claims, p_holding, p_total) = claims(paper, "paper");
    let (extension_claims, e_holding, e_total) = claims(extensions, "inequality");
    let mut text = format!("Paper claims: {p_holding} of {p_total} hold; ");
    text += &format!("extension claims: {e_holding} of {e_total} hold\n\n{paper_claims}");
    text += &format!("\nExtensions\n\n{extension_claims}");
    for row in paper.iter().chain(extensions) {
        let banner = format!(" {}: {} ", row.section, row.title);
        text += &format!("\n{banner:=^78}\n\n{}", row.report);
    }
    text
}

/// The claims of `rows` as a table whose fourth column is headed
/// `bound`, and how many of them hold out of how many.
fn claims(rows: &[Row], bound: &str) -> (Table, usize, usize) {
    let mut text = format!("section | claim | measured | {bound} | holds");
    for row in rows {
        for c in &row.claims {
            let (section, claim, measured) = (row.section, &c.claim, &c.measured);
            let (paper, holds) = (&c.paper, c.holds);
            text += &format!("\n{section} | {claim} | {measured} | {paper} | {holds}");
        }
    }
    let claims = rows.iter().flat_map(|r| &r.claims);
    let holding = claims.clone().filter(|c| c.holds).count();
    (table(&text), holding, claims.count())
}

/// The process exit status for `rows`: 0 when every claim holds, else 1.
pub fn exit_status(rows: &[Row]) -> i32 {
    i32::from(rows.iter().flat_map(|r| &r.claims).any(|c| !c.holds))
}

/// Lays `text` out as a [`Table`]: the first line is the header, every
/// other line a row, cells separated by ` | `.
fn table(text: &str) -> Table {
    let mut lines = text.lines().map(|line| line.split(" | "));
    let mut t = Table::new(lines.next().expect("a header line").collect());
    lines.for_each(|cells| t.add_row(cells.collect()));
    t
}

fn ns(n: u64) -> SimDuration {
    SimDuration::from_ns(n)
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

fn cbr(gap_ns: u64) -> TemporalSpec {
    TemporalSpec::cbr(ns(gap_ns))
}

fn limited(flits: u64) -> EmitWindow {
    EmitWindow {
        limit: Some(flits),
        ..Default::default()
    }
}

fn in_ns(d: Option<SimDuration>) -> f64 {
    d.map_or(f64::NAN, |d| d.as_ns_f64())
}

/// A latency a flow recorded [ns], NaN when it recorded none.
fn recorded(latency: Option<f64>) -> f64 {
    latency.unwrap_or(f64::NAN)
}

/// Throughput of each of `flows`, Mflit/s.
fn rates(sim: &NocSim, flows: &[u32]) -> Vec<f64> {
    flows.iter().map(|&f| sim.flow_throughput_m(f)).collect()
}

/// The smallest and the largest of `xs`.
fn span(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// [`LINE`]'s first connection offered a flit per `gap_ns`, measured for
/// `run_us` after `warmup_us`; the next `others` run saturated (a flit
/// per 3 ns offered) throughout. Returns the sim and the tagged flow.
fn tagged(others: usize, seed: u64, gap_ns: u64, warmup_us: u64, run_us: u64) -> (NocSim, u32) {
    let pairs = &LINE[..=others];
    let (mut sim, conns) = open_funnel(RouterConfig::paper(), Grid::new(8, 1), pairs, seed);
    for (i, &c) in conns[1..].iter().enumerate() {
        sim.add_gs_source(c, cbr(3), format!("cross-{i}"), EmitWindow::default());
    }
    sim.run_for(us(warmup_us));
    sim.begin_measurement();
    let flow = sim.add_gs_source(conns[0], cbr(gap_ns), "tagged", EmitWindow::default());
    sim.run_for(us(run_us));
    (sim, flow)
}

/// The tagged connection of Fig. 4 and of the ÆTHEREAL comparison runs
/// 2 hops at one flit per 11 ns: 91 Mflit/s, just under its 1/8 floor,
/// so its queue is stable and its latency is arbitration, not backlog.
const TAGGED_NS: u64 = 11;

/// The worst-case latency admission control guarantees that connection.
fn tagged_bound() -> Option<SimDuration> {
    let path = PathExtras::uniform(2);
    ServiceModel::paper()
        .report(&path, ns(TAGGED_NS))
        .worst_latency
}

/// The audit of [`tagged`]'s `flow` on `sim` against [`tagged_bound`]:
/// the tagged connection runs [`LINE`]'s first pair, two links east.
fn tagged_audit(sim: &NocSim, flow: u32) -> GuaranteeAudit {
    let ((sx, sy), (dx, dy)) = LINE[0];
    let (src, dst) = (RouterId::new(sx, sy), RouterId::new(dx, dy));
    let mut audit = GuaranteeAudit::default();
    let k = audit.register(src, dst, &[Direction::East; 2], tagged_bound());
    audit.observe(k, sim.flow(flow).latency.max());
    audit
}

/// Figs. 3 vs 4: the generic router congests, the MANGO switch does not.
fn fig4() -> Row {
    let mut text = String::from("cross-traffic | generic mean [ns] | generic max [ns]");
    text += " | MANGO mean [ns] | MANGO max [ns]";
    let (mut points, mut audit) = (Vec::new(), GuaranteeAudit::default());
    // Generic background load against MANGO's saturated contender VCs.
    for (load, contenders) in [(0.0, 0usize), (0.3, 2), (0.6, 4), (0.8, 6)] {
        let cfg = GenericConfig {
            cycle: SimDuration::from_ps(1258),
            tagged_period: ns(TAGGED_NS),
            background_load: load,
            seed: 3,
        };
        let generic = run_generic_congestion(cfg, us(150));
        let (g_mean, g_max) = (in_ns(generic.mean()), in_ns(generic.max()));
        let (sim, flow) = tagged(contenders, 3, TAGGED_NS, 10, 150);
        let latency = sim.flow(flow).latency;
        let (mean, max) = (in_ns(latency.mean()), in_ns(latency.max()));
        text += &format!("\n{:.0}% / {contenders} VCs | {g_mean:.2}", load * 100.0);
        text += &format!(" | {g_max:.2} | {mean:.2} | {max:.2}");
        points.push((g_mean, mean, max));
        audit = tagged_audit(&sim, flow); // the claim reads the last point's
    }
    let ((g0, m0, _), (g3, m3, worst)) = (points[0], points[3]);
    let (bound, ratio) = (in_ns(tagged_bound()), audit.worst_bound_ratio());
    let report = table(&text).to_string();
    row! { "Fig. 4", "tagged latency vs cross-traffic, generic router vs MANGO", report;
        "generic router congests: mean, idle -> 80% load": format!("x{:.1}", g3 / g0), "> 3x"
            => g3 > 3.0 * g0;
        "MANGO stays flat: mean, 0 -> 6 saturated VCs": format!("x{:.2}", m3 / m0), "< 2x"
            => m3 < 2.0 * m0;
        "MANGO worst latency, 6 saturated VCs":
            format!("{worst:.1} ns = {ratio:.2} x bound"),
            format!("<= admission bound {bound:.1} ns") => audit.holds();
    }
}

/// Fig. 5 and Secs. 4.2/4.3: 5-bit steering, switch and VC-control area.
fn fig5() -> Row {
    let mut steering = String::from("arrival port | valid codes | GS targets | local | BE");
    let (mut aliased, mut asymmetric, mut counts) = (0, 0, Vec::new());
    let net_ports = Direction::ALL.map(Port::Net);
    for arrival in net_ports.into_iter().chain([Port::Local]) {
        let (mut seen, mut n) = (HashSet::new(), [0usize; 3]);
        for (code, target) in (0u8..32).filter_map(|c| Some((c, Steer::unpack(c, arrival).ok()?))) {
            aliased += usize::from(!seen.insert(target));
            asymmetric += usize::from(target.pack(arrival) != Ok(code));
            n[match target {
                Steer::GsBuffer { .. } => 0,
                Steer::LocalGs { .. } => 1,
                Steer::BeUnit => 2,
            }] += 1;
        }
        let [gs, local, be] = n;
        steering += &format!("\n{arrival} | {} | {gs} | {local} | {be}", gs + local + be);
        counts.push(n);
    }
    let (net, local) = (&counts[..4], counts[4]);
    let on_net = |i: usize| [0, 1, 2, 3].map(|p| net[p][i].to_string()).join("/");
    let model = AreaModel::cmos_120nm();
    let area = |v| {
        let mut params = RouterParams::paper();
        params.gs_vcs = v;
        model.breakdown(&params)
    };
    let (base, mut scaling) = (area(8), String::from("VCs/port | switching [mm2] | vs V=8"));
    scaling += " | VC control [mm2] | vs V=8";
    for v in [4usize, 8, 16, 32] {
        let b = area(v);
        let (sw, sw_x) = (b.switching / 1e6, b.switching / base.switching);
        let (vc, vc_x) = (b.vc_control / 1e6, b.vc_control / base.vc_control);
        scaling += &format!("\n{v} | {sw:.3} | {sw_x:.2}x | {vc:.3} | {vc_x:.2}x");
    }
    // The split stage is a V-independent offset, so the increments 8→16
    // and 16→32 differ only by the logarithmic steering-field width.
    let d1 = area(16).switching - area(8).switching;
    let d2 = area(32).switching - area(16).switching;
    let (linear, quadratic) = (d2 / d1, area(16).vc_control / base.vc_control);
    let (steering, scaling) = (table(&steering), table(&scaling));
    let report = format!("{steering}\nSwitching-module area vs VCs/port (Sec. 4.2)\n\n{scaling}");
    row! { "Fig. 5", "steering-bit coverage, 3 split bits + 2 switch bits", report;
        "no two codes decode to one target": format!("{aliased} aliased"), "0" => aliased == 0;
        "every target packs back to its code": format!("{asymmetric} differ"), "0"
            => asymmetric == 0;
        "GS targets from a network port": on_net(0), "= 24" => net.iter().all(|n| n[0] == 24);
        "local-GS targets from a network port": on_net(1), "= 4" => net.iter().all(|n| n[1] == 4);
        "BE targets from a network port": on_net(2), "= 1" => net.iter().all(|n| n[2] == 1);
        "GS targets from the local port": local[0].to_string(), "= 32" => local[0] == 32;
        "local-GS targets from the local port": local[1].to_string(), "= 0" => local[1] == 0;
        "BE targets from the local port": local[2].to_string(), "= 0" => local[2] == 0;
        "switching area linear in V: 16->32 / 8->16 step":
            format!("{:.3} / {:.3} mm2 = {linear:.2}", d2 / 1e6, d1 / 1e6), "2 +- 0.1"
            => (linear - 2.0).abs() < 0.1;
        "VC-control area quadratic in V: V 8 -> 16": format!("x{quadratic:.2}"), "x4 +- 1e-9"
            => (quadratic - 4.0).abs() < 1e-9;
    }
}

/// Fig. 6 / Sec. 4.3: share-based VC control, one VC vs several.
fn fig6() -> Row {
    let model = ServiceModel::paper();
    let (cycle, lone) = (
        model.timing.link_cycle,
        model.timing.lone_vc_spacing(SimDuration::ZERO),
    );
    let mut text = String::from("active VCs | aggregate [Mflit/s] | link share [%]");
    text += " | per-VC [Mflit/s]";
    let (link_m, mut aggregate) = (cycle.as_rate_mhz(), Vec::new());
    for n in [1usize, 2, 3, 5, 7] {
        // The tagged VC is offered 500 Mflit/s, beyond any share it gets;
        // its flow id follows the contenders'.
        let (sim, flow) = tagged(n - 1, 9, 2, 5, 100);
        let rate = |f| sim.flow_throughput_m(f);
        let total = (0..flow).fold(rate(flow), |a, f| a + rate(f));
        let (share, per_vc) = (total / link_m * 100.0, total / n as f64);
        text += &format!("\n{n} | {total:.1} | {share:.1} | {per_vc:.1}");
        aggregate.push(total);
    }
    let (one, seven) = (aggregate[0], aggregate[4]);
    let report = format!(
        "link cycle {cycle} -> capacity {link_m:.1} Mflit/s; \
         lone-VC grant spacing {lone} -> single-VC cap {cap:.1} Mflit/s\n\
         fair-share condition: lone-VC spacing {lone} <= fair-share round {round:.3} ns : {fair}\n\n{t}",
        cap = lone.as_rate_mhz(),
        round = in_ns(model.round()),
        fair = model.round().is_some_and(|round| lone <= round),
        t = table(&text)
    );
    let share = |x: f64| format!("{:.1}% of link", x / link_m * 100.0);
    row! { "Fig. 6", "share-based VC control: aggregate bandwidth vs active VCs", report;
        "a single VC cannot use the full link": share(one), "< 75%" => one < 0.75 * link_m;
        "7 VCs exploit the full link bandwidth": share(seven), "> 95%" => seven > 0.95 * link_m;
    }
}

/// A measured BE flow of 4-flit packets, one per `gap_ns`.
fn be_flow(from: RouterId, to: RouterId, gap_ns: u64) -> TrafficSpec {
    let to = SpatialPattern::FixedPool(vec![to]);
    let flow = TrafficSpec::new(to, TemporalSpec::cbr(ns(gap_ns))).from_node(from);
    flow.payload(3).phase(Phase::Measure)
}

/// Fig. 7 / Sec. 5: the BE router's per-hop cost and fairness.
fn fig7() -> Row {
    // Latency vs hops: one flow across an idle 16×1 line.
    let (hops, window) = ([1u8, 2, 4, 8, 15], limited(300));
    let runs = hops.map(|h| {
        let flow = be_flow(RouterId::new(0, 0), RouterId::new(h, 0), 100).window(window);
        let spec = ScenarioSpec::mesh(16, 1, 21).measure_to_quiescence();
        let be = spec.traffic(flow.named("hops")).run().be(0).clone();
        (recorded(be.mean_ns), be.delivered)
    });
    let mut latency = String::from("hops | mean [ns] | per-hop delta [ns]");
    let mut deltas = Vec::new();
    for (i, (h, (mean, _))) in hops.iter().zip(runs).enumerate() {
        let delta = (i > 0).then(|| (mean - runs[i - 1].0) / f64::from(h - hops[i - 1]));
        deltas.extend(delta);
        let delta = delta.map_or("-".into(), |d| format!("{d:.2}"));
        latency += &format!("\n{h} | {mean:.2} | {delta}");
    }
    let ((lo_delta, hi_delta), delivered) = (span(&deltas), runs.map(|(_, d)| d));
    let spread = (hi_delta - lo_delta) / lo_delta;
    // Fair input arbitration: four saturating senders into one sink.
    let senders = [(0, 1), (2, 1), (1, 0), (1, 2)].map(|(x, y)| RouterId::new(x, y));
    let mut spec = ScenarioSpec::mesh(3, 3, 23).warmup(us(5));
    for &s in &senders {
        spec = spec.traffic(be_flow(s, RouterId::new(1, 1), 8).named(format!("from-{s}")));
    }
    let fan_in = spec.measure_for(us(150)).run();
    let mut fairness = String::from("sender | Mpkt/s");
    let sent = [0, 1, 2, 3].map(|i| fan_in.be(i).throughput_m);
    for (s, rate) in senders.iter().zip(sent) {
        fairness += &format!("\n{s} | {rate:.2}");
    }
    let ((lo, hi), latency, fairness) = (span(&sent), table(&latency), table(&fairness));
    let report = format!("{latency}\nFair arbitration: 4 senders -> 1 sink\n\n{fairness}");
    row! { "Fig. 7", "BE packet latency vs hops, 4-flit packets, idle network", report;
        "lossless at 1..15 hops: packets delivered": delivered.map(|d| d.to_string()).join("/"),
            "= 300 each" => delivered.iter().all(|&d| d == 300);
        "constant per-hop cost: delta spread / min":
            format!("{lo_delta:.2}..{hi_delta:.2} ns, {spread:.3}"), "< 0.25" => spread < 0.25;
        "fair output arbitration: min/max sender rate": format!("{:.3}", lo / hi), "> 0.9"
            => lo / hi > 0.9;
    }
}

/// The hops of Fig. 8's GS stream, (0,0)->(3,3) across a 4x4 mesh.
const FIG8_HOPS: u64 = 6;

/// Fig. 8 / Sec. 3: a GS connection is independent of BE load. One
/// auto-placed GS stream at 12 ns CBR (83 Mflit/s, inside its floor)
/// under uniform BE from every node, from idle to saturation.
fn fig8() -> Row {
    let spec = SweepSpec {
        topologies: vec![TopologySpec::mesh(4, 4)],
        gs_conns: vec![1],
        be_gaps_ns: vec![None, Some(300), Some(50), Some(8)],
        patterns: vec![PatternKind::Uniform],
        gs_periods_ns: vec![12],
        measures_us: vec![40],
        seeds: vec![55],
        warmup_us: 20,
        payload_words: 4,
    };
    let model = ServiceModel::paper();
    let bound = model
        .report(&PathExtras::uniform(FIG8_HOPS as usize), ns(12))
        .worst_latency;
    let mut text = String::from("BE background | GS [Mflit/s] | GS mean [ns] | GS max [ns]");
    text += " | BE mean [ns]";
    let (mut audit, mut points) = (GuaranteeAudit::default(), Vec::new());
    for job in spec.expand() {
        let m = run_audited(&spec.scenario(&job), &[bound], &mut audit);
        let (gs, be) = (m.gs(0), m.be_mean_of_means_ns());
        let (mean, max) = (recorded(gs.mean_ns), recorded(gs.max_ns));
        let load = job
            .be_gap_ns
            .map_or("idle".into(), |g| format!("1 pkt/{g} ns/node"));
        let be_text = (be > 0.0).then(|| format!("{be:.1}"));
        text += &format!("\nBE {load} | {:.2} | {mean:.2}", gs.throughput_m);
        text += &format!(" | {max:.2} | {}", be_text.unwrap_or("-".into()));
        points.push((gs.throughput_m, mean, max, be));
    }
    let ((rate0, mean0, _, _), (rate8, mean8, _, be8)) = (points[0], points[3]);
    let (shift, drift, be300) = ((rate8 - rate0) / rate0, mean8 - mean0, points[1].3);
    // Interference only: at most one grant wait, a link cycle per slot, per hop.
    let rounds = in_ns(model.grant_wait().map(|wait| wait * FIG8_HOPS));
    let worst = points.iter().fold(f64::MIN, |w, p| w.max(p.2));
    let (bound, ratio) = (in_ns(bound), audit.worst_bound_ratio());
    let report = format!(
        "{FIG8_HOPS}-hop GS stream (0,0) -> (3,3) at 12 ns CBR, admission bound {bound:.1} ns\n\n{}",
        table(&text)
    );
    row! { "Fig. 8", "GS throughput and latency vs BE load, 4x4 mesh", report;
        "GS rate unaffected: BE idle -> 8 ns/node":
            format!("{rate0:.2} -> {rate8:.2} Mflit/s, {:+.2}%", shift * 100.0), "< 1%"
            => shift.abs() < 0.01;
        "GS mean moves by arbitration only: idle -> 8 ns":
            format!("{mean0:.2} -> {mean8:.2} ns, {drift:+.2} ns"),
            format!("<= {FIG8_HOPS} x {} cycles = {rounds:.1} ns", model.slots) => drift <= rounds;
        "GS worst latency at every BE load": format!("{worst:.1} ns = {ratio:.2} x bound"),
            format!("<= admission bound {bound:.1} ns") => audit.holds();
        "BE saturates: BE mean, 300 -> 8 ns/node":
            format!("{be300:.1} -> {be8:.1} ns, x{:.0}", be8 / be300), "> 10x"
            => be8 > 10.0 * be300;
    }
}

/// Table 1: per-module router area, 0.12 µm standard cells.
fn table1() -> Row {
    let b = AreaModel::cmos_120nm().breakdown(&RouterParams::paper());
    let err = (b.total_mm2() - Table1::PAPER_TOTAL).abs() / Table1::PAPER_TOTAL;
    let share = (b.switching + b.vc_buffers) / b.total_um2() * 100.0;
    let t = b.to_table(true);
    let report =
        format!("{t}\nswitching + VC buffers = {share:.1}% of total (paper: more than half)\n");
    row! { "Table 1", "area usage in the MANGO router, model vs paper", report;
        "router area matches Table 1's 0.188 mm2":
            format!("{:.3} mm2, {:.2}% off", b.total_mm2(), err * 100.0), "< 2% off" => err < 0.02;
    }
}

/// Sec. 4.4 (ref \[5\]): 1/8 fair-share floors and their redistribution.
fn fairshare() -> Row {
    let (mut sim, gs) = funnel(RouterConfig::paper(), Grid::new(3, 4), &COLUMN, cbr(3), 77);
    // 4-flit packets (header included) over the same link.
    let (from, to) = (RouterId::new(1, 0), vec![RouterId::new(2, 0)]);
    let be = sim.add_be_source(from, to, 3, cbr(6), "be", EmitWindow::default());
    sim.run_for(us(200));
    let (link_m, gs_rates) = (sim.link_capacity_m(), rates(&sim, &gs));
    let (floor, be_rate) = (link_m / 8.0, sim.flow_throughput_m(be) * 4.0);
    let mut text = String::from("channel | Mflit/s | floor x | holds");
    let gs_channels = gs_rates.iter().enumerate();
    let channels = gs_channels.map(|(i, &x)| (format!("GS vc{i}"), x, 0.95));
    for (name, rate, min) in channels.chain([("BE".into(), be_rate, 0.8)]) {
        let (floors, holds) = (rate / floor, rate >= min * floor);
        text += &format!("\n{name} | {rate:.1} | {floors:.2} | {holds}");
    }
    let aggregate = gs_rates.iter().sum::<f64>() + be_rate;
    let report = format!(
        "link capacity {link_m:.1} Mflit/s, per-channel floor {floor:.1} Mflit/s\n\n{}\n\
         aggregate {aggregate:.1} Mflit/s = {:.1}% of link capacity\n",
        table(&text),
        aggregate / link_m * 100.0
    );
    // Redistribution: 2 backlogged contenders share what 6 idle ones leave.
    let (two, line) = ([LINE[0]; 2], Grid::new(3, 1));
    let (mut sim, flows) = funnel(RouterConfig::paper(), line, &two, cbr(2), 78);
    sim.run_for(us(100));
    let [ra, rb] = [0, 1].map(|i| sim.flow_throughput_m(flows[i]));
    let floors = |x: f64| format!("{x:.1} Mflit/s = {:.2} floor", x / floor);
    let (fa, fb) = (ra / floor, rb / floor);
    let shared = format!("{ra:.1} + {rb:.1} Mflit/s = {fa:.1} + {fb:.1} floors");
    row! { "Sec. 4.4", "fair-share floors on a link with 7 GS VCs + BE saturated", report;
        "every GS VC keeps its 1/8 floor": floors(span(&gs_rates).0), ">= 0.95 floor"
            => gs_rates.iter().all(|&x| x >= 0.95 * floor);
        "the BE channel keeps its 1/8 floor": floors(be_rate), ">= 0.8 floor"
            => be_rate >= 0.8 * floor;
        "2 backlogged VCs share what the idle 6 leave": shared, "> 2 floors each"
            => ra > 2.0 * floor && rb > 2.0 * floor;
    }
}

/// Sec. 4.4's depth-1 buffers: the sharebox, not the buffer, paces a VC.
fn buffers() -> Row {
    let model = AreaModel::cmos_120nm();
    let mut text = String::from("depth | single-VC [Mflit/s] | min floor of 7 [Mflit/s]");
    text += " | VC buffers [mm2] | router total [mm2]";
    let mut points = Vec::new();
    for depth in [1usize, 2, 4, 8] {
        let mut cfg = RouterConfig::paper();
        cfg.params.buffer_depth = depth;
        let b = model.breakdown(&cfg.params);
        let (mut sim, solo) = funnel(cfg.clone(), Grid::new(3, 1), &LINE[..1], cbr(1), 5);
        sim.run_for(us(50));
        let solo = sim.flow_throughput_m(solo[0]);
        let (mut sim, flows) = funnel(cfg, Grid::new(8, 1), &LINE, cbr(3), 31);
        sim.run_for(us(100));
        let floor = span(&rates(&sim, &flows)).0;
        let (vc, total) = (b.vc_buffers / 1e6, b.total_mm2());
        text += &format!("\n{depth} | {solo:.1} | {floor:.1} | {vc:.3} | {total:.3}");
        points.push((solo, floor, total));
    }
    let ((solo1, floor1, area1), (solo8, floor8, area8)) = (points[0], points[3]);
    let moved = |from: f64, to: f64| (to - from).abs() / from;
    let (solo, floor) = (moved(solo1, solo8), moved(floor1, floor8));
    let change = |from: f64, to: f64, digits| format!("{:+.*}%", digits, (to / from - 1.0) * 100.0);
    let report = table(&text).to_string();
    row! { "Sec. 4.4", "buffer-depth ablation, paper: depth 1 + unsharebox", report;
        "single-VC throughput, depth 1 -> 8": change(solo1, solo8, 1), "< 2% moved" => solo < 0.02;
        "min floor of 7 VCs, depth 1 -> 8": change(floor1, floor8, 1), "< 5% moved" => floor < 0.05;
        "router area, depth 1 -> 8": change(area1, area8, 0), "> +50%" => area8 > area1 * 1.5;
    }
}

/// Ref \[6\], ALG, against fair-share and static priority (ref \[9\]).
fn alg() -> Row {
    let kinds = [ArbiterKind::FairShare, ArbiterKind::Alg { age_bound: 7 }];
    let run = |arbiter, offered, seed, run_us| {
        let mut cfg = RouterConfig::paper();
        cfg.arbiter = arbiter;
        let (mut sim, flows) = funnel(cfg, Grid::new(8, 1), &LINE, offered, seed);
        sim.run_for(us(run_us));
        (sim, flows)
    };
    let [fair, alg, prio] = [kinds[0], kinds[1], ArbiterKind::StaticPriority].map(|k| {
        let (sim, flows) = run(k, cbr(3), 66, 150);
        rates(&sim, &flows)
    });
    // Every VC offered ~79 Mflit/s, 90% of its fair share.
    let [fair_lat, alg_lat] = kinds.map(|k| {
        let (sim, flows) = run(
            k,
            TemporalSpec::poisson(SimDuration::from_ps(12_600)),
            67,
            200,
        );
        let latency = flows.into_iter().map(|f| sim.flow(f).latency);
        Vec::from_iter(latency.map(|l| [l.mean(), l.quantile(0.99)].map(in_ns)))
    });
    let mut saturated = String::from("VC (priority) | fair-share | ALG | static-prio");
    let mut latency = String::from("VC (priority) | fair mean | fair p99 | ALG mean | ALG p99");
    for i in 0..7 {
        let ([fm, fp], [am, ap]) = (fair_lat[i], alg_lat[i]);
        saturated += &format!("\nvc{i} | {:.1} | {:.1} | {:.1}", fair[i], alg[i], prio[i]);
        latency += &format!("\nvc{i} | {fm:.1} | {fp:.1} | {am:.1} | {ap:.1}");
    }
    let (saturated, latency) = (table(&saturated), table(&latency));
    let report = format!("{saturated}\nLatency at ~70% link load, stable queues [ns]\n\n{latency}");
    let (alg_p99, fair_p99) = (alg_lat[0][1], fair_lat[0][1]);
    row! { "Sec. 4.4", "ALG (ref [6]): per-VC throughput, all 7 VCs saturated [Mflit/s]", report;
        "static priority starves vc6": format!("{:.1} Mflit/s", prio[6]), "< 10" => prio[6] < 10.0;
        "ALG's age bound keeps vc6 alive": format!("{:.1} Mflit/s", alg[6]), "> 50"
            => alg[6] > 50.0;
        "fair-share floors hold for all 7 VCs": format!("min {:.1} Mflit/s", span(&fair).0), "> 90"
            => fair.iter().all(|&x| x > 90.0);
        "ALG tightens vc0's p99 latency": format!("{alg_p99:.1} vs {fair_p99:.1} ns"),
            "ALG < fair-share" => alg_p99 < fair_p99;
    }
}

/// Sec. 3: pipelined long links lengthen the share loop. At each extra
/// delay a lone VC also sends at the model's service interval and is
/// audited against its bound: from 5 ns on the loop, not the round, sets
/// that interval.
fn pipelined() -> Row {
    let model = ServiceModel::paper();
    let link_m = model.timing.link_cycle.as_rate_mhz();
    let mut text = String::from("extra link delay | single VC [Mflit/s]");
    text += " | 7 VCs aggregate [Mflit/s] | aggregate share [%]";
    let (mut points, mut audit) = (Vec::new(), GuaranteeAudit::default());
    let ((sx, sy), (dx, dy)) = LINE[0];
    let (src, dst, dirs) = (
        RouterId::new(sx, sy),
        RouterId::new(dx, dy),
        [Direction::East; 2],
    );
    for extra in [0, 1000, 2500, 5000].map(SimDuration::from_ps) {
        let mut grid = Grid::new(8, 1);
        grid.set_default_link_extra(extra);
        let run = |pairs: &[_], pattern, run_us| {
            let (mut sim, flows) = funnel(RouterConfig::paper(), grid.clone(), pairs, pattern, 7);
            sim.run_for(us(run_us));
            (sim, flows)
        };
        let rate = |(sim, flows): (NocSim, Vec<u32>)| rates(&sim, &flows);
        let solo = rate(run(&LINE[..1], cbr(1), 100))[0];
        let aggregate: f64 = rate(run(&LINE, cbr(3), 150)).iter().sum();
        let period = model
            .service_interval(extra)
            .expect("fair share is bounded");
        let (sim, flow) = run(&LINE[..1], TemporalSpec::cbr(period), 40);
        let k = audit.register(
            src,
            dst,
            &dirs,
            model.report_along(&grid, src, &dirs, period).worst_latency,
        );
        audit.observe(k, sim.flow(flow[0]).latency.max());
        let share = aggregate / link_m * 100.0;
        text += &format!("\n{extra} | {solo:.1} | {aggregate:.1} | {share:.1}");
        points.push((extra, solo, aggregate));
    }
    let long_loop = model.timing.lone_vc_spacing(points[3].0).as_ns_f64();
    let round = in_ns(model.round());
    let report = format!(
        "{}\nat 5 ns a lone VC's grant spacing ({long_loop:.1} ns) exceeds the 8-slot \
         fair-share round ({round:.1} ns)\n",
        table(&text)
    );
    let (worst, held) = (audit.worst_bound_ratio(), audit.holds());
    let (slow, fast, sat) = (points[3].1, points[0].1, points[1].2);
    row! { "Sec. 3", "pipelined long links: per-stage latency vs utilization", report;
        "5 ns stages slow a lone VC": format!("{slow:.1} vs {fast:.1} Mflit/s"),
            "< 0.5x unpipelined" => slow < fast * 0.5;
        "7 VCs keep a link with 1 ns stages saturated":
            format!("{:.1}% of link", sat / link_m * 100.0), "> 97%" => sat > 0.97 * link_m;
        "a lone VC at its service interval, 0..5 ns stages": format!("{worst:.3} x bound"),
            "<= 1, audited" => held;
    }
}

/// Sec. 6: 515 MHz (1.08 V / 125 °C) and 795 MHz (typical) ports.
fn port_speed() -> Row {
    let model = TimingModel::cmos_120nm();
    let mut text = String::from("Corner | Model [MHz] | Simulated [Mflit/s] | Paper [MHz]");
    let (mut model_off, mut sim_off, mut speeds) = (0.0f64, 0.0f64, Vec::new());
    for (corner, cfg, paper) in [
        (Corner::Typical, RouterConfig::paper(), 795.0),
        (Corner::WorstCase, RouterConfig::paper_worst_case(), 515.0),
    ] {
        let (name, model_mhz) = (corner.name(), model.port_speed_mhz(corner));
        let (mut sim, flows) = funnel(cfg, Grid::new(3, 4), &COLUMN, cbr(3), 42);
        sim.run_for(us(100));
        let simulated: f64 = rates(&sim, &flows).iter().sum();
        text += &format!("\n{name} | {model_mhz:.1} | {simulated:.1} | {paper:.0}");
        model_off = model_off.max((model_mhz - paper).abs());
        sim_off = sim_off.max((simulated - model_mhz).abs() / model_mhz);
        speeds.push(format!("{model_mhz:.1}"));
    }
    let report = table(&text).to_string();
    row! { "Sec. 6", "port speed: model, simulation and paper", report;
        "timing model: port speed, typical / worst case": speeds.join(" / ") + " MHz",
            "795 / 515 MHz, +- 1" => model_off < 1.0;
        "7 saturated VCs deliver the modelled port speed": format!("{:.2}% off", sim_off * 100.0),
            "< 2% off" => sim_off < 0.02;
    }
}

/// Sec. 6: the comparison with ÆTHEREAL.
fn aethereal() -> Row {
    let timing = TimingModel::cmos_120nm();
    let params = RouterParams::paper();
    let area = AreaModel::cmos_120nm().breakdown(&params).total_mm2();
    let [wc, typ] = [Corner::WorstCase, Corner::Typical].map(|c| timing.port_speed_mhz(c));
    let properties = format!(
        "property | MANGO (model) | AEthereal (published)\n\
         process | 0.12 um std-cell | 0.13 um + custom FIFOs\n\
         port speed [MHz] | {wc:.0} (wc) / {typ:.0} (typ) | {:.0}\n\
         router area [mm2] | {area:.3} (pre-layout) | {:.3} (laid out)\n\
         connections | {} (independently buffered) | {} (shared buffers)\n\
         end-to-end flow control | inherent (unlock chain) | required (credits)\n\
         routing state | in-router tables | in-packet headers",
        Ae::PORT_SPEED_MHZ,
        Ae::AREA_MM2,
        params.total_gs_buffers(),
        Ae::CONNECTIONS,
    );
    let mut tdm = TdmNetwork::new(Grid::new(4, 1), TdmConfig::aethereal());
    let gt = tdm.open_gt(RouterId::new(0, 0), RouterId::new(2, 0), 1);
    let gt = gt.expect("slots free");
    let tdm_raw = tdm.gt_raw_bandwidth_fps(gt) / 1e6;
    let tdm_payload = tdm.gt_payload_bandwidth_fps(gt) / 1e6;
    // Saturation pins MANGO's connection to its floor; latency is taken
    // at a stable sub-floor rate, so it is the network's, not the source's.
    let (sim, flow) = tagged(6, 13, 6, 10, 150);
    let mango = sim.flow_throughput_m(flow);
    let mut bandwidth = String::from(" | raw [Mflit/s] | payload [Mflit/s]");
    bandwidth += &format!("\nMANGO GS (header-less) | {mango:.1} | {mango:.1}");
    bandwidth += &format!("\nTDM GT (1 hdr / 3 payload) | {tdm_raw:.1} | {tdm_payload:.1}");
    // TDM latency, sampled across arrival phases.
    let delay = |t: SimTime| tdm.gt_delivery(gt, t).since(t).as_ns_f64();
    let tdm_sum: f64 = (0..64).map(|i| delay(SimTime::from_ps(i * 251))).sum();
    let tdm_mean = tdm_sum / 64.0;
    let (bound, gain) = (in_ns(tagged_bound()), (mango / tdm_payload - 1.0) * 100.0);
    // Analytical against analytical; Fig. 4 claims MANGO's measured worst case.
    let report = format!(
        "{}\nGuaranteed bandwidth at 1/8-link reservation (2-hop path)\n\n{}\n\
         latency on the same path: MANGO admission bound {bound:.1} ns at 91 Mflit/s; \
         TDM mean {tdm_mean:.1} / worst {:.1} ns\n",
        table(&properties),
        table(&bandwidth),
        tdm.gt_worst_latency(gt).as_ns_f64()
    );
    row! { "Sec. 6", "MANGO vs AEthereal", report;
        "header-less GS payload beats TDM at 1/8 reservation":
            format!("{mango:.1} vs {tdm_payload:.1} Mflit/s, {gain:+.1}%"), "MANGO > TDM"
            => mango > tdm_payload;
    }
}

/// Sec. 6's future work: 1-of-4 delay-insensitive links.
fn di_links() -> Row {
    let (power, w) = (PowerModel::cmos_120nm(), 34); // links carry the post-split flit
    let words = [0u32, 0xDEAD_BEEF, 0xFFFF_FFFF];
    let round_trips = |&x: &u32| decode_1of4(&encode_1of4(x, 32)) == x;
    let lossless = words.iter().filter(|x| round_trips(x)).count();
    let (b, d) = (LinkEncoding::BundledData, LinkEncoding::OneOfFour);
    let [b_wires, d_wires] = [b, d].map(|e| e.wires(w));
    let [b_hops, d_hops] = [b, d].map(|e| e.transitions_per_flit(w));
    let [b_pj, d_pj] = [b, d].map(|e| e.energy_per_flit_pj(w, &power));
    let margin = b.timing_margin();
    let properties = format!(
        "property | bundled data | 1-of-4 DI\n\
         wires per link | {b_wires} | {d_wires}\n\
         transitions per flit (random data) | {b_hops:.1} | {d_hops:.1}\n\
         link energy per flit [pJ] | {b_pj:.2} | {d_pj:.2}\n\
         timing assumption on the wire | matched delay (x{margin:.2} margin) \
         | none (completion detected)\n\
         delay-insensitive | no | yes"
    );
    // The bundled-data margin is dead latency on every link: model it as
    // extra link delay on a 6-hop connection, then take it away.
    let margin_ps = (margin - 1.0) * 400.0;
    let mean_latency = |extra_ps: u64| {
        let mut grid = Grid::new(4, 4);
        grid.set_default_link_extra(SimDuration::from_ps(extra_ps));
        let (mut sim, conn) = open_funnel(RouterConfig::paper(), grid, &[((0, 0), (3, 3))], 19);
        sim.begin_measurement();
        let flow = sim.add_gs_source(conn[0], cbr(50), "di", limited(500));
        sim.run_to_quiescence();
        in_ns(sim.flow(flow).latency.mean())
    };
    let (with_margin, di) = (mean_latency(margin_ps.round() as u64), mean_latency(0));
    let (saved, margins) = (with_margin - di, 6.0 * margin_ps / 1000.0);
    let report = table(&properties).to_string();
    row! { "Sec. 6", "link signalling: bundled data vs 1-of-4 DI (future work)", report;
        "the 1-of-4 codec round-trips every word": format!("{lossless} of {}", words.len()), "all"
            => lossless == words.len();
        "6-hop GS latency: DI saves the bundled-data margins":
            format!("{with_margin:.2} - {di:.2} = {saved:.2} ns"),
            format!("6 x {margin_ps:.0} ps = {margins:.2} ns +- 0.01")
            => (saved - margins).abs() < 0.01;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_with(holds: &[bool]) -> Row {
        let claims = holds.iter().map(|&holds| Claim {
            claim: "a fabricated claim".into(),
            measured: "1".into(),
            paper: "< 2".into(),
            holds,
        });
        Row {
            section: "Fig. 0",
            title: "fabricated".into(),
            claims: claims.collect(),
            report: String::new(),
        }
    }

    #[test]
    fn a_claim_that_does_not_hold_fails_the_run() {
        assert_eq!(exit_status(&[row_with(&[true, true])]), 0);
        assert_eq!(
            exit_status(&[row_with(&[true]), row_with(&[true, false])]),
            1
        );
    }
}
