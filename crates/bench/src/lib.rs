//! Shared harness for the benchmark and reproduction binaries.
//!
//! The paper's claims, and the claims beyond it on the guarantees it
//! argues for, are the rows of [`paper`], printed and checked by
//! `repro_paper`; the other binaries write the CSV, telemetry and probe
//! outputs. This library holds the experiment set-ups they share.

pub mod paper;

use mango::core::{ConnectionId, RouterConfig, RouterId};
use mango::net::{EmitWindow, Grid, NaConfig, Network, NocSim, SpatialPattern, TemporalSpec};
use mango::qos::GuaranteeAudit;
use mango::sim::SimDuration;

/// Checks the result of writing an output file the command line asked
/// for: a failure is one `error: cannot write <path>: <io error>` line on
/// stderr and exit status 1, not a panic.
pub fn written(path: &std::path::Path, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The guarantee contract of a repro: no audited connection observed
/// above its bound. At the first of `points` whose audit finds one, its
/// worst connection goes to stderr as one `error:` line and the process
/// exits 1, not a panic.
pub fn guarantees_held<'a>(points: impl IntoIterator<Item = (String, &'a GuaranteeAudit)>) {
    if let Some((point, audit)) = points.into_iter().find(|(_, a)| a.violations() > 0) {
        let (n, worst) = (audit.violations(), audit.worst());
        let worst = worst.expect("a violation has a ratio");
        eprintln!("error: {point}: {n} connection(s) above their bound, worst {worst}");
        std::process::exit(1);
    }
}

/// A connection's source and destination as `((x, y), (x, y))`.
pub type Pair = ((u8, u8), (u8, u8));

/// The funnel on an 8×1 line: seven connections — the tagged one first —
/// all crossing link (1,0)→East (the paper's full-contention scenario:
/// 7 GS VCs + BE on one link). They terminate at spread-out destinations
/// so that **only the head link saturates**: downstream links stay below
/// capacity and add no second-order arbitration waits to the measurement.
pub const LINE: [Pair; 7] = [
    ((0, 0), (2, 0)),
    ((0, 0), (3, 0)),
    ((0, 0), (4, 0)),
    ((0, 0), (5, 0)),
    ((1, 0), (6, 0)),
    ((1, 0), (7, 0)),
    ((1, 0), (3, 0)),
];

/// The same funnel through link (1,0)→East of a 3×4 mesh: XY routing
/// goes east along row 0 first, then south in column 2.
pub const COLUMN: [Pair; 7] = [
    ((0, 0), (2, 0)),
    ((0, 0), (2, 1)),
    ((0, 0), (2, 2)),
    ((0, 0), (2, 3)),
    ((1, 0), (2, 0)),
    ((1, 0), (2, 1)),
    ((1, 0), (2, 2)),
];

/// Opens one GS connection per pair of `pairs` on `grid` of `cfg`
/// routers, in pair order, and waits for their programming to settle.
pub fn open_funnel(
    cfg: RouterConfig,
    grid: Grid,
    pairs: &[Pair],
    seed: u64,
) -> (NocSim, Vec<ConnectionId>) {
    let mut sim = NocSim::new(Network::new(grid, cfg, NaConfig::paper()), seed);
    let mut conns = Vec::new();
    for &((sx, sy), (dx, dy)) in pairs {
        let (src, dst) = (RouterId::new(sx, sy), RouterId::new(dx, dy));
        conns.push(sim.open_connection(src, dst).expect("funnel VCs free"));
    }
    sim.wait_connections_settled().expect("programming settles");
    (sim, conns)
}

/// The contention set-up the paper's bandwidth claims are measured on:
/// [`open_funnel`], 5 µs idle, then the measurement window starts with
/// one GS source at `pattern` on every connection. Returns the sim, not
/// yet run over the window, and the flow ids in pair order.
pub fn funnel(
    cfg: RouterConfig,
    grid: Grid,
    pairs: &[Pair],
    pattern: TemporalSpec,
    seed: u64,
) -> (NocSim, Vec<u32>) {
    let (mut sim, conns) = open_funnel(cfg, grid, pairs, seed);
    sim.run_for(SimDuration::from_us(5));
    sim.begin_measurement();
    let mut flows = Vec::new();
    for (i, &c) in conns.iter().enumerate() {
        flows.push(sim.add_gs_source(c, pattern, format!("gs-{i}"), EmitWindow::default()));
    }
    (sim, flows)
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
            TemporalSpec::cbr(SimDuration::from_ns(12)),
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
            TemporalSpec::poisson(mean_gap),
            format!("bg-{node}"),
            EmitWindow::default(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vc_throughput_is_buffer_depth_independent() {
        // The sharebox, not the buffer, is the serialization point: one
        // flit per VC in the media until the unlock returns.
        let solo = |depth| {
            let mut cfg = RouterConfig::paper();
            cfg.params.buffer_depth = depth;
            let offered = TemporalSpec::cbr(SimDuration::from_ns(1));
            let (mut sim, flows) = funnel(cfg, Grid::new(3, 1), &LINE[..1], offered, 5);
            sim.run_for(SimDuration::from_us(50));
            sim.flow_throughput_m(flows[0])
        };
        let (d1, d4) = (solo(1), solo(4));
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
