//! Ablation of the paper's depth-1 buffer choice (Sec. 4.4: "To keep the
//! area down, our output buffers are a single flit deep plus one flit in
//! the unsharebox. This is enough to ensure the fair-share scheme to
//! function"): under share-based VC control the sharebox — not the
//! buffer — is the per-VC serialization point, so deeper buffers change
//! **neither** a lone VC's throughput **nor** the contended fair-share
//! floor, while costing substantial area. Depth 1 is simply optimal,
//! which is the paper's point made quantitative.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_buffer_depth`

use mango::core::{RouterConfig, RouterId};
use mango::hw::area::{AreaModel, RouterParams};
use mango::hw::Table;
use mango::net::{EmitWindow, NocSim, Pattern};
use mango::sim::SimDuration;
use mango_bench::gs_depth_throughput;

/// Fair-share floor of one VC among 7 saturated ones, at `depth`.
fn floor_at_depth(depth: usize) -> f64 {
    let mut cfg = RouterConfig::paper();
    cfg.params.buffer_depth = depth;
    let mut sim = NocSim::mesh_with(8, 1, cfg, 31);
    let pairs = [
        (RouterId::new(0, 0), RouterId::new(2, 0)),
        (RouterId::new(0, 0), RouterId::new(3, 0)),
        (RouterId::new(0, 0), RouterId::new(4, 0)),
        (RouterId::new(0, 0), RouterId::new(5, 0)),
        (RouterId::new(1, 0), RouterId::new(6, 0)),
        (RouterId::new(1, 0), RouterId::new(7, 0)),
        (RouterId::new(1, 0), RouterId::new(3, 0)),
    ];
    let conns: Vec<_> = pairs
        .iter()
        .map(|(s, d)| sim.open_connection(*s, *d).expect("fits"))
        .collect();
    sim.wait_connections_settled().expect("settles");
    sim.run_for(SimDuration::from_us(5));
    sim.begin_measurement();
    let flows: Vec<u32> = conns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            sim.add_gs_source(
                *c,
                Pattern::cbr(SimDuration::from_ns(3)),
                format!("d-{i}"),
                EmitWindow::default(),
            )
        })
        .collect();
    sim.run_for(SimDuration::from_us(100));
    flows
        .iter()
        .map(|f| sim.flow_throughput_m(*f))
        .fold(f64::MAX, f64::min)
}

fn main() {
    mango_bench::reject_args();
    let model = AreaModel::cmos_120nm();
    println!("Buffer-depth ablation (paper: depth 1 + unsharebox)\n");
    let mut t = Table::new(vec![
        "depth",
        "single-VC [Mflit/s]",
        "min floor of 7 [Mflit/s]",
        "VC buffers [mm2]",
        "router total [mm2]",
    ]);
    let mut rows = Vec::new();
    for depth in [1usize, 2, 4, 8] {
        let solo = gs_depth_throughput(depth, 5);
        let floor = floor_at_depth(depth);
        let mut p = RouterParams::paper();
        p.buffer_depth = depth;
        let b = model.breakdown(&p);
        t.add_row(vec![
            depth.to_string(),
            format!("{solo:.1}"),
            format!("{floor:.1}"),
            format!("{:.3}", b.vc_buffers / 1e6),
            format!("{:.3}", b.total_mm2()),
        ]);
        rows.push((depth, solo, floor, b.total_mm2()));
    }
    print!("{t}");

    let d1 = &rows[0];
    let d8 = &rows[3];
    println!(
        "\ndepth 8 changes single-VC throughput by {:+.1}% and the contended floor by {:+.1}%,",
        (d8.1 / d1.1 - 1.0) * 100.0,
        (d8.2 / d1.2 - 1.0) * 100.0
    );
    println!(
        "while costing {:+.0}% router area: the sharebox (one flit per VC in the media until \
         unlock) is the serialization point, so depth 1 is optimal — the paper's choice.",
        (d8.3 / d1.3 - 1.0) * 100.0
    );
    assert!(
        (d8.1 - d1.1).abs() / d1.1 < 0.02,
        "share-based control pins a lone VC regardless of depth: {:.1} vs {:.1}",
        d1.1,
        d8.1
    );
    assert!(
        (d8.2 - d1.2).abs() / d1.2 < 0.05,
        "floors must be depth-insensitive: {:.1} vs {:.1}",
        d1.2,
        d8.2
    );
    assert!(d8.3 > d1.3 * 1.5, "deep buffers must cost real area");
}
