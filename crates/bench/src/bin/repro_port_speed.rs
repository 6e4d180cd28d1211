//! Reproduces the **port-speed results of Sec. 6**: 515 MHz per port under
//! worst-case timing (1.08 V / 125 °C), 795 MHz typical — first from the
//! bundled-data timing model, then measured in simulation by saturating a
//! link and counting delivered flits.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_port_speed`

use mango::core::{RouterConfig, RouterId};
use mango::hw::{Corner, Table, TimingModel};
use mango::net::{EmitWindow, Grid, NaConfig, Network, NocSim, Pattern};
use mango::sim::SimDuration;

/// Measures aggregate link throughput with all 7 GS VCs saturated.
fn measured_port_speed(cfg: RouterConfig) -> f64 {
    let net = Network::new(Grid::new(3, 4), cfg, NaConfig::paper());
    let mut sim = NocSim::new(net, 42);
    // 7 connections funnel through link (1,0)→E.
    let pairs = [
        (RouterId::new(0, 0), RouterId::new(2, 0)),
        (RouterId::new(0, 0), RouterId::new(2, 1)),
        (RouterId::new(0, 0), RouterId::new(2, 2)),
        (RouterId::new(0, 0), RouterId::new(2, 3)),
        (RouterId::new(1, 0), RouterId::new(2, 0)),
        (RouterId::new(1, 0), RouterId::new(2, 1)),
        (RouterId::new(1, 0), RouterId::new(2, 2)),
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
                format!("sat-{i}"),
                EmitWindow::default(),
            )
        })
        .collect();
    sim.run_for(SimDuration::from_us(100));
    flows.iter().map(|f| sim.flow_throughput_m(*f)).sum()
}

fn main() {
    mango_bench::reject_args();
    let model = TimingModel::cmos_120nm();
    println!("Port speed (Sec. 6): model, simulation and paper\n");
    let mut t = Table::new(vec![
        "Corner",
        "Model [MHz]",
        "Simulated [Mflit/s]",
        "Paper [MHz]",
    ]);
    for (corner, cfg, paper) in [
        (Corner::Typical, RouterConfig::paper(), 795.0),
        (Corner::WorstCase, RouterConfig::paper_worst_case(), 515.0),
    ] {
        let model_mhz = model.port_speed_mhz(corner);
        let simulated = measured_port_speed(cfg);
        t.add_row(vec![
            corner.name().to_string(),
            format!("{model_mhz:.1}"),
            format!("{simulated:.1}"),
            format!("{paper:.0}"),
        ]);
        assert!(
            (model_mhz - paper).abs() < 1.0,
            "timing model drifted from the paper at {corner:?}"
        );
        assert!(
            (simulated - model_mhz).abs() / model_mhz < 0.02,
            "simulation disagrees with the timing model at {corner:?}: {simulated:.1}"
        );
    }
    print!("{t}");
    println!("\nsimulated = aggregate of 7 saturated GS VCs on one link (full utilization)");
}
