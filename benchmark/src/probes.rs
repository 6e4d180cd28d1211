//! Per-layer probes: each times calls into one layer's public functions
//! from outside and reports reference nanoseconds per call. They do not
//! depend on `--seed`; each is hosted by the traced pass of the one
//! workload that exercises its layer (see [`run_for`]).

use crate::cal::Meter;
use crate::inputs;
use crate::report::Metrics;
use crate::stats::{median, quantile};
use crate::workloads::controller;
use mango::apps::{graph, score_assignment, PlacerKind};
use mango::core::{ArbiterImpl, ArbiterKind, Direction, RouterConfig, RouterId};
use mango::net::{Grid, NocSim, PreparedScenario, ScenarioSpec, TelemetryConfig, TemporalSpec};
use mango::qos::{Admission, AdmissionController, BudgetSnapshot, ConnOutcome, ConnRequest};
use mango::sim::{EventQueue, SimDuration, SimTime, WheelGeometry};
use mango::telemetry::LogHistogram;
use mango_sweep::{SweepRecord, SweepSpec};
use std::hint::black_box;
use std::time::Instant;

/// A fixed-seed xorshift stream for probe inputs (probes do not depend
/// on `--seed`: they are floors, not workloads).
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Calibrated blocks per probe: a probe runs in one workload's traced
/// pass only, so its own repeats are what steadies it.
const BLOCKS: usize = 5;

/// Times `ops` repetitions of `op` in one calibrated block; reference
/// ns per repetition.
fn block_ns(meter: &mut Meter, ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let ((), sample) = meter.measure(|| {
        for i in 0..ops {
            op(i);
        }
    });
    sample.ref_s() * 1e9 / ops as f64
}

/// Median of [`BLOCKS`] blocks of `ops` repetitions of `op`; reference ns
/// per repetition.
fn per_op_ns(meter: &mut Meter, ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let blocks: Vec<f64> = (0..BLOCKS).map(|_| block_ns(meter, ops, &mut op)).collect();
    median(&blocks)
}

/// Times each of `ops` calls on its own inside one calibrated block;
/// returns the per-call reference ns, unsorted.
fn each_op_ns(meter: &mut Meter, ops: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let (raw, sample) = meter.measure(|| {
        (0..ops)
            .map(|i| {
                let t = Instant::now();
                op(i);
                t.elapsed().as_nanos() as f64
            })
            .collect::<Vec<f64>>()
    });
    let scale = sample.ref_s() / sample.raw_s;
    raw.into_iter().map(|ns| ns * scale).collect()
}

/// `sim.queue_hold_ns.*`: pop + push at fixed occupancy on the calendar
/// queue, with the wheel geometry a mesh of that scale would get.
fn queue_hold(meter: &mut Meter, occupancy: usize, nodes: usize) -> f64 {
    const OPS: usize = 400_000;
    let mut q: EventQueue<u64> = EventQueue::with_geometry(WheelGeometry::for_mesh(nodes, 180));
    let mut xs = Xs(0x5EED_0001);
    // Event spacing of the model: 180 ps stage delay up to a few ns.
    let mut delta = move || 180 + xs.next() % 4_000;
    for i in 0..occupancy {
        q.push(SimTime::from_ps(delta()), i as u64);
    }
    per_op_ns(meter, OPS, |_| {
        let (t, e) = q.pop().expect("occupancy is constant");
        q.push(SimTime::from_ps(t.as_ps() + delta()), e);
    })
}

/// `core.arbiter_select_ns.*`: `select_mask` over a fixed stream of
/// non-empty ready masks (7 GS VCs + BE).
fn arbiter_select(meter: &mut Meter, kind: ArbiterKind) -> f64 {
    const OPS: usize = 1_000_000;
    let gs_vcs = RouterConfig::paper().gs_vcs();
    let mut arb = ArbiterImpl::new(kind, gs_vcs);
    let mut xs = Xs(0x5EED_0002);
    let masks: Vec<u128> = (0..4096).map(|_| ((xs.next() % 255) + 1) as u128).collect();
    per_op_ns(meter, OPS, |i| {
        black_box(arb.select_mask(masks[i % masks.len()], gs_vcs));
    })
}

/// The funnel: seven GS connections on an 8×1 line all crossing link
/// (1,0)→E, each offered 333 Mflit/s — every GS VC of that link stays
/// backlogged.
fn saturated_link_spec() -> ScenarioSpec {
    let pairs = [
        ((0, 0), (2, 0)),
        ((0, 0), (3, 0)),
        ((0, 0), (4, 0)),
        ((0, 0), (5, 0)),
        ((1, 0), (6, 0)),
        ((1, 0), (7, 0)),
        ((1, 0), (3, 0)),
    ];
    pairs
        .iter()
        .fold(ScenarioSpec::mesh(8, 1, 1), |spec, (s, d)| {
            spec.gs(
                RouterId::new(s.0, s.1),
                RouterId::new(d.0, d.1),
                TemporalSpec::cbr(SimDuration::from_ns(3)),
            )
        })
}

/// Reference ns per kernel event of `sim` over `span`.
fn ns_per_event(meter: &mut Meter, sim: &mut NocSim, span: SimDuration) -> f64 {
    let before = sim.events_processed();
    let (_, sample) = meter.measure(|| sim.run_for(span));
    sample.ref_s() * 1e9 / (sim.events_processed() - before).max(1) as f64
}

fn started(spec: &ScenarioSpec, warm: SimDuration) -> PreparedScenario {
    let mut p = spec.prepare();
    p.start_measurement();
    p.sim_mut().run_for(warm);
    p
}

/// `net.open_settle_ns`: `open_connection` + `wait_connections_settled`
/// for the corner pair of a fresh 8×8 mesh.
fn open_settle(meter: &mut Meter) -> f64 {
    const OPS: usize = 24;
    let blocks: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            // Fresh meshes per block: the pair opens once per mesh.
            let mut sims: Vec<NocSim> = (0..OPS).map(|_| NocSim::paper_mesh(8, 8, 1)).collect();
            block_ns(meter, OPS, |i| {
                let sim = &mut sims[i];
                sim.open_connection(RouterId::new(0, 0), RouterId::new(7, 7))
                    .expect("an idle mesh admits the corner pair");
                sim.wait_connections_settled().expect("programming settles");
            })
        })
        .collect();
    median(&blocks)
}

/// A chiplet controller carrying `load` random admitted connections.
fn loaded_controller(load: usize) -> (AdmissionController, Vec<ConnRequest>) {
    let grid = Grid::from_spec(&inputs::planner_topology());
    let nodes: Vec<RouterId> = grid.ids().collect();
    let mut ctl = controller(grid);
    let mut xs = Xs(0x5EED_0003);
    let mut request = move || loop {
        let src = nodes[(xs.next() % nodes.len() as u64) as usize];
        let dst = nodes[(xs.next() % nodes.len() as u64) as usize];
        if src != dst {
            return ConnRequest {
                src,
                dst,
                period: SimDuration::from_ns(15),
            };
        }
    };
    for _ in 0..load {
        // Rejections are fine: the point is a realistically fragmented
        // budget state.
        let _ = ctl.request(&request());
    }
    let probes = (0..2048).map(|_| request()).collect();
    (ctl, probes)
}

/// Cost-per-event overhead of a switched-on facility: three identical
/// 4×4 fabric simulations (plain, telemetry on, kernel profiling on)
/// advanced in turn; ratio of median ns/event, minus one. Interleaving
/// cancels host drift by itself, so these rounds skip the calibration
/// kernel and afford more of them.
fn telemetry_overheads(out: &mut Metrics) {
    let spec = inputs::fabric_spec(4, 1);
    let span = SimDuration::from_us(10);
    let mut sims = [0, 1, 2].map(|_| started(&spec, span));
    sims[1].sim_mut().enable_telemetry(TelemetryConfig {
        trace_flits: false,
        ..Default::default()
    });
    sims[2].sim_mut().enable_kernel_profiling();
    let mut costs: [Vec<f64>; 3] = Default::default();
    for _ in 0..16 {
        for (p, cost) in sims.iter_mut().zip(&mut costs) {
            let sim = p.sim_mut();
            let before = sim.events_processed();
            let t = Instant::now();
            sim.run_for(span);
            let ns = t.elapsed().as_nanos() as f64;
            cost.push(ns / (sim.events_processed() - before).max(1) as f64);
        }
    }
    let [plain, telemetry, profile] = costs.map(|c| median(&c));
    out.set("telemetry.on_overhead_frac", telemetry / plain - 1.0);
    out.set("telemetry.profile_overhead_frac", profile / plain - 1.0);
}

/// `sim.ns_per_event_ratio_16v4` with both of its bases: the fabric mix
/// on 16×16 and on 4×4, advanced in turn.
fn scaling_ratio(meter: &mut Meter, out: &mut Metrics) {
    let mut small = started(&inputs::fabric_spec(4, 1), SimDuration::from_us(20));
    let mut big = started(&inputs::fabric_spec(16, 1), SimDuration::from_us(2));
    let mut costs: [Vec<f64>; 2] = Default::default();
    for _ in 0..BLOCKS {
        costs[0].push(ns_per_event(
            meter,
            small.sim_mut(),
            SimDuration::from_us(20),
        ));
        costs[1].push(ns_per_event(meter, big.sim_mut(), SimDuration::from_us(1)));
    }
    let [small, big] = costs.map(|c| median(&c));
    out.set("sim.ns_per_event_4x4", small);
    out.set("sim.ns_per_event_16x16", big);
    out.set("sim.ns_per_event_ratio_16v4", big / small);
}

/// Runs the probes hosted by `workload`'s traced pass into `out`. Each
/// probe runs in exactly one workload — the one that exercises its layer
/// the way the probe does — so a full run takes every probe once.
pub fn run_for(workload: &str, meter: &mut Meter, out: &mut Metrics) {
    match workload {
        "fabric_4x4" => {
            out.set("sim.queue_hold_ns.occ32", queue_hold(meter, 32, 16));
            core_probes(meter, out);
            telemetry_probes(meter, out);
        }
        "fabric_16x16" => {
            out.set("sim.queue_hold_ns.occ1k", queue_hold(meter, 1024, 256));
            out.set(
                "sim.queue_hold_ns.occ32k",
                queue_hold(meter, 32 * 1024, 1024),
            );
            scaling_ratio(meter, out);
        }
        "churn_8x8" => out.set("net.open_settle_ns", open_settle(meter)),
        "serving_vopd" => chiplet_controller_probes(meter, out),
        "planner_vopd" => placer_probes(meter, out),
        "sweep_short" => csv_row_probe(meter, out),
        _ => {}
    }
}

fn core_probes(meter: &mut Meter, out: &mut Metrics) {
    let mut funnel = started(&saturated_link_spec(), SimDuration::from_us(5));
    let link: Vec<f64> = (0..BLOCKS)
        .map(|_| ns_per_event(meter, funnel.sim_mut(), SimDuration::from_us(20)))
        .collect();
    out.set("core.saturated_link_ns_per_event", median(&link));
    out.set(
        "core.arbiter_select_ns.fair_share",
        arbiter_select(meter, ArbiterKind::FairShare),
    );
    out.set(
        "core.arbiter_select_ns.alg",
        arbiter_select(meter, ArbiterKind::Alg { age_bound: 4 }),
    );
}

fn telemetry_probes(meter: &mut Meter, out: &mut Metrics) {
    telemetry_overheads(out);
    let mut hist = LogHistogram::new();
    let mut xs = Xs(0x5EED_0004);
    out.set(
        "telemetry.hist_record_ns",
        per_op_ns(meter, 2_000_000, |_| hist.record(xs.next() % 1_000_000)),
    );
    black_box(hist.total());
}

/// What the serving engine and the placer's dry runs do on the chiplet
/// controller: compile the topology, probe, bracket, report a bound.
fn chiplet_controller_probes(meter: &mut Meter, out: &mut Metrics) {
    let topology = inputs::planner_topology();
    out.set(
        "net.topology_compile_ns",
        per_op_ns(meter, 200, |_| {
            black_box(Grid::from_spec(black_box(&topology)));
        }),
    );
    let (mut ctl, requests) = loaded_controller(96);
    let probes = each_op_ns(meter, requests.len(), |i| {
        black_box(ctl.probe(&requests[i]).is_ok());
    });
    out.set("qos.probe_ns.p50", median(&probes));
    let mut snap = BudgetSnapshot::default();
    out.set(
        "qos.snapshot_restore_ns",
        per_op_ns(meter, 20_000, |_| {
            ctl.save_budgets_into(&mut snap);
            ctl.restore_budgets(black_box(&snap));
        }),
    );
    // Ten hops from the corner die across the vertical and the
    // horizontal seam of the 2×2-chip package.
    let dirs: Vec<Direction> = [[Direction::East; 5], [Direction::South; 5]].concat();
    let (model, grid) = (ctl.model().clone(), ctl.grid().clone());
    out.set(
        "qos.bound_report_ns",
        per_op_ns(meter, 100_000, |_| {
            black_box(model.report_along(
                &grid,
                RouterId::new(0, 0),
                black_box(&dirs),
                SimDuration::from_ns(15),
            ));
        }),
    );
}

fn placer_probes(meter: &mut Meter, out: &mut Metrics) {
    let (mut ctl, _) = loaded_controller(96);
    let mut snap = BudgetSnapshot::default();
    let vopd = graph::vopd();
    let placement = PlacerKind::Greedy.place(&vopd, &mut ctl, 1);
    out.set(
        "apps.score_assignment_ns",
        per_op_ns(meter, 2_000, |_| {
            black_box(score_assignment(
                &vopd,
                &placement.assign,
                &mut ctl,
                &mut snap,
            ));
        }),
    );
    let greedy = each_op_ns(meter, 500, |i| {
        black_box(PlacerKind::Greedy.place(&vopd, &mut ctl, i as u64));
    });
    out.set("apps.place_ns.greedy.p50", median(&greedy));
}

fn csv_row_probe(meter: &mut Meter, out: &mut Metrics) {
    let spec = SweepSpec::smoke();
    let job = spec.expand().pop().expect("the smoke grid has jobs");
    let metrics = spec
        .scenario(&job)
        .measure_for(SimDuration::from_us(2))
        .run();
    out.set(
        "sweep.csv_row_ns",
        per_op_ns(meter, 5_000, |_| {
            black_box(SweepRecord::measure(job.clone(), black_box(&metrics)).csv_row());
        }),
    );
}

/// Admission replay: the request/release sequence a churn run issued
/// (`src`, `dst`, `requested_at`, `holding` of every `ConnOutcome`),
/// replayed against a fresh controller with every call timed.
#[derive(Debug, Default)]
pub struct AdmissionReplay {
    /// Reference ns of every `request` call.
    pub request_ns: Vec<f64>,
    /// `request` calls of one replay.
    pub requests: u64,
    /// … of which rejected.
    pub rejects: u64,
    /// … of which admitted on a non-XY (BFS detour) path.
    pub bfs_detours: u64,
    /// Reference seconds of all `request` + `release` calls of one
    /// replay.
    pub total_ref_s: f64,
}

/// Replays `conns`' sequence `rounds` times on an 8×8 controller.
pub fn admission_replay(
    meter: &mut Meter,
    conns: &[ConnOutcome],
    gs_period: SimDuration,
    rounds: usize,
) -> AdmissionReplay {
    // (time, is_request, connection): a release sorts before a request
    // at the same instant, like a teardown that finished first.
    let mut steps: Vec<(SimTime, bool, usize)> = Vec::with_capacity(conns.len() * 2);
    for (i, c) in conns.iter().enumerate() {
        steps.push((c.requested_at, true, i));
        steps.push((c.requested_at + c.holding, false, i));
    }
    steps.sort();

    let mut replay = AdmissionReplay {
        requests: conns.len() as u64,
        ..Default::default()
    };
    for round in 0..rounds {
        let mut ctl = controller(Grid::new(8, 8));
        let mut held: Vec<Option<Admission>> = vec![None; conns.len()];
        let (calls, sample) = meter.measure(|| {
            let mut calls: Vec<(bool, f64)> = Vec::with_capacity(steps.len());
            for &(_, is_request, i) in &steps {
                let t = Instant::now();
                if is_request {
                    held[i] = ctl
                        .request(&ConnRequest {
                            src: conns[i].src,
                            dst: conns[i].dst,
                            period: gs_period,
                        })
                        .ok();
                } else if let Some(adm) = &held[i] {
                    ctl.release(adm);
                }
                calls.push((is_request, t.elapsed().as_nanos() as f64));
            }
            calls
        });
        let scale = sample.ref_s() / sample.raw_s;
        replay.total_ref_s += calls.iter().map(|(_, ns)| ns * scale / 1e9).sum::<f64>();
        replay
            .request_ns
            .extend(calls.iter().filter(|c| c.0).map(|(_, ns)| ns * scale));
        if round == 0 {
            // `held` keeps every ticket (release only borrows it), so
            // the outcome census reads off it; it is the same each round.
            replay.rejects = held.iter().filter(|h| h.is_none()).count() as u64;
            replay.bfs_detours = held.iter().flatten().filter(|a| !a.xy).count() as u64;
        }
    }
    replay.total_ref_s /= rounds.max(1) as f64;
    replay
}

/// p50 and p99 of `values`.
pub fn p50_p99(values: &[f64]) -> (f64, f64) {
    (median(values), quantile(values, 0.99))
}

/// A control-plane-idle scenario on `base`'s topology and background
/// with `streams` static GS connections at `period`: what a kernel
/// event costs there, for attributing an engine workload's wall time.
pub fn kernel_ref_ns_per_event(
    meter: &mut Meter,
    base: &ScenarioSpec,
    streams: u32,
    period: SimDuration,
) -> f64 {
    let grid = Grid::from_spec(&base.topology_spec());
    let spec = mango_sweep::auto_gs_pairs(&grid, streams)
        .into_iter()
        .fold(base.clone(), |spec, (src, dst)| {
            spec.gs(src, dst, TemporalSpec::cbr(period))
        });
    // Long enough that cache refill after the calibration kernel is a
    // small share, as it is in an engine run.
    let span = SimDuration::from_us(10);
    let mut p = started(&spec, span);
    let costs: Vec<f64> = (0..BLOCKS)
        .map(|_| ns_per_event(meter, p.sim_mut(), span))
        .collect();
    median(&costs)
}
