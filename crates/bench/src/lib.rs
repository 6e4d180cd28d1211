//! Shared harness for the benchmark and reproduction binaries.
//!
//! Every table and figure of the paper has a `repro_*` binary in
//! `src/bin/` that regenerates it (the README lists them; `repro_all`
//! runs whichever are built). This library holds the experiment
//! set-ups they share.

use mango::core::{RouterConfig, RouterId};
use mango::net::{EmitWindow, NocSim, Pattern, SpatialPattern};
use mango::sim::SimDuration;

/// The entry check of the reproduction binaries that take no arguments:
/// any argument is a usage error — one `usage:` line on stderr, exit
/// status 2 — instead of a full run that silently ignored it.
pub fn reject_args() {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    if let Some(arg) = args.next() {
        eprintln!("error: unexpected argument {arg:?}");
        eprintln!("usage: {bin} (takes no arguments)");
        std::process::exit(2);
    }
}

/// Checks the result of writing an output file the command line asked
/// for: a failure is one `error: cannot write <path>: <io error>` line on
/// stderr and exit status 1, not a panic.
pub fn written(path: &std::path::Path, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Result of driving one GS connection under a given environment.
#[derive(Debug, Clone)]
pub struct GsRun {
    /// Delivered throughput, Mflit/s.
    pub throughput_m: f64,
    /// Mean end-to-end latency, ns.
    pub mean_ns: f64,
    /// 99th-percentile latency, ns.
    pub p99_ns: f64,
    /// Worst observed latency, ns.
    pub max_ns: f64,
    /// Jitter (max − min), ns.
    pub jitter_ns: f64,
}

/// The funnel geometry: on an 8×1 line, a tagged connection
/// (0,0)→(2,0) plus up to 6 contender connections all crossing link
/// (1,0)→East (the paper's full-contention scenario: 7 GS VCs + BE on
/// one link). Contenders terminate at spread-out destinations so that
/// **only the head link saturates** — downstream links stay below
/// capacity and do not add second-order arbitration waits to the
/// measurement.
///
/// Returns the sim (connections settled, contenders saturated at
/// ~333 Mflit/s offered each) and the tagged connection id.
pub fn funnel_sim(contenders: usize, seed: u64) -> (NocSim, mango::core::ConnectionId) {
    assert!(contenders <= 6, "6 contender VCs + tagged fill the link");
    let mut sim = NocSim::paper_mesh(8, 1, seed);
    let tagged = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .expect("tagged connection");
    // Contenders: 3 more from (0,0), 3 from (1,0) — all share (1,0)→E.
    let plan = [
        (RouterId::new(0, 0), RouterId::new(3, 0)),
        (RouterId::new(0, 0), RouterId::new(4, 0)),
        (RouterId::new(0, 0), RouterId::new(5, 0)),
        (RouterId::new(1, 0), RouterId::new(6, 0)),
        (RouterId::new(1, 0), RouterId::new(7, 0)),
        (RouterId::new(1, 0), RouterId::new(3, 0)),
    ];
    let cross: Vec<_> = plan[..contenders]
        .iter()
        .map(|(s, d)| sim.open_connection(*s, *d).expect("contender fits"))
        .collect();
    sim.wait_connections_settled().expect("programming settles");
    for (i, c) in cross.iter().enumerate() {
        sim.add_gs_source(
            *c,
            Pattern::cbr(SimDuration::from_ns(3)),
            format!("cross-{i}"),
            EmitWindow::default(),
        );
    }
    (sim, tagged)
}

/// Measures a GS connection at `period` per flit for `measure_us`, after
/// `warmup_us` of warmup.
pub fn measure_gs(
    sim: &mut NocSim,
    conn: mango::core::ConnectionId,
    period: SimDuration,
    warmup_us: u64,
    measure_us: u64,
) -> GsRun {
    sim.run_for(SimDuration::from_us(warmup_us));
    sim.begin_measurement();
    let flow = sim.add_gs_source(conn, Pattern::cbr(period), "tagged", EmitWindow::default());
    sim.run_for(SimDuration::from_us(measure_us));
    let stats = sim.flow(flow);
    GsRun {
        throughput_m: sim.flow_throughput_m(flow),
        mean_ns: stats.latency.mean().map_or(0.0, |d| d.as_ns_f64()),
        p99_ns: stats.latency.quantile(0.99).map_or(0.0, |d| d.as_ns_f64()),
        max_ns: stats.latency.max().map_or(0.0, |d| d.as_ns_f64()),
        jitter_ns: stats.latency.jitter().map_or(0.0, |d| d.as_ns_f64()),
    }
}

/// Measures the saturation throughput of a single GS connection as a
/// function of output-buffer depth.
///
/// Under share-based VC control this is **depth-independent**: the
/// sharebox admits one flit per VC into the shared media at a time, so a
/// lone VC is pinned to one flit per share loop no matter how much
/// buffering sits behind it — the quantitative backing for the paper's
/// depth-1 choice ("To keep the area down... This is enough", Sec. 4.4).
pub fn gs_depth_throughput(depth: usize, seed: u64) -> f64 {
    let mut cfg = RouterConfig::paper();
    cfg.params.buffer_depth = depth;
    let mut sim = NocSim::mesh_with(3, 1, cfg, seed);
    let conn = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .expect("VCs free");
    sim.wait_connections_settled().expect("settles");
    sim.run_for(SimDuration::from_us(2));
    sim.begin_measurement();
    let flow = sim.add_gs_source(
        conn,
        Pattern::cbr(SimDuration::from_ns(1)),
        "depth",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(50));
    sim.flow_throughput_m(flow)
}

/// The mixed workload the simulator performance track is measured on
/// (`sim_rate`, the mesh-scaling probe): four corner-crossing GS
/// connections at 12 ns per flit plus uniform-random BE background at
/// 300 ns per node on a `width × height` mesh. Requires
/// `width, height ≥ 4` so the two connection rings stay distinct.
pub fn mixed_mesh(width: u8, height: u8, seed: u64) -> NocSim {
    assert!(
        width >= 4 && height >= 4,
        "mixed_mesh needs a mesh of at least 4x4"
    );
    let mut sim = NocSim::paper_mesh(width, height, seed);
    let (w, h) = (width - 1, height - 1);
    for (s, d) in [
        ((0, 0), (w, h)),
        ((w, 0), (0, h)),
        ((1, 1), (w - 1, h - 1)),
        ((w - 1, 1), (1, h - 1)),
    ] {
        let c = sim
            .open_connection(RouterId::new(s.0, s.1), RouterId::new(d.0, d.1))
            .expect("fits");
        sim.wait_connections_settled().expect("settles");
        sim.add_gs_source(
            c,
            Pattern::cbr(SimDuration::from_ns(12)),
            "gs",
            EmitWindow::default(),
        );
    }
    add_be_background(&mut sim, SimDuration::from_ns(300));
    sim
}

/// Adds uniform-random BE background traffic at `mean_gap` per node.
///
/// Destinations are computed per emission ([`SpatialPattern`]), so the
/// attach is O(N) in mesh size — no materialized pools — while drawing
/// the exact RNG sequence the historical pool-based path did.
pub fn add_be_background(sim: &mut NocSim, mean_gap: SimDuration) {
    let all: Vec<RouterId> = sim.network().grid().ids().collect();
    for node in all {
        sim.add_traffic_source(
            node,
            SpatialPattern::UniformRandom,
            4,
            Pattern::poisson(mean_gap),
            format!("bg-{node}"),
            EmitWindow::default(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funnel_sim_builds_and_measures() {
        let (mut sim, tagged) = funnel_sim(6, 1);
        let run = measure_gs(&mut sim, tagged, SimDuration::from_ns(10), 2, 20);
        assert!(run.throughput_m > 0.0);
    }

    #[test]
    fn single_vc_throughput_is_buffer_depth_independent() {
        // The sharebox, not the buffer, is the serialization point: one
        // flit per VC in the media until the unlock returns.
        let d1 = gs_depth_throughput(1, 5);
        let d4 = gs_depth_throughput(4, 5);
        assert!(
            (d4 - d1).abs() / d1 < 0.01,
            "share-based control pins a lone VC regardless of depth: {d1:.1} vs {d4:.1}"
        );
    }

    #[test]
    fn be_background_attaches() {
        let mut sim = NocSim::paper_mesh(2, 2, 2);
        add_be_background(&mut sim, SimDuration::from_us(1));
        sim.run_for(SimDuration::from_us(10));
        assert!(sim.events_processed() > 0);
    }
}
