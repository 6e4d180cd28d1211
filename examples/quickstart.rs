//! Quickstart: open a GS connection across a mesh, stream flits over it,
//! and print the latency/throughput the connection achieved.
//!
//! Run with: `cargo run --release -p mango --example quickstart`

use mango::core::RouterId;
use mango::net::{EmitWindow, NocSim, TemporalSpec};
use mango::sim::SimDuration;

fn main() {
    // A 4×4 mesh of the paper's routers (8 VCs per link: 7 GS + 1 BE,
    // fair-share arbitration, typical 0.12 µm timing).
    let mut sim = NocSim::paper_mesh(4, 4, 0xC0FFEE);
    println!(
        "link capacity: {:.1} Mflit/s per port (paper: 795 MHz typical)",
        sim.link_capacity_m()
    );

    // Open a connection from corner to corner. The source router is
    // programmed through its local port; the six other routers on the XY
    // path receive BE configuration packets and acknowledge them.
    let src = RouterId::new(0, 0);
    let dst = RouterId::new(3, 3);
    let conn = sim.open_connection(src, dst).expect("VCs available");
    sim.wait_connections_settled()
        .expect("programming completes");
    let record = sim.network().connections().get(conn).unwrap().clone();
    println!(
        "connection {} open: {} -> {} over {} links, VCs {:?}",
        conn,
        src,
        dst,
        record.hops(),
        record.vcs
    );

    // Stream 10k flits at 50 Mflit/s — half of this connection's
    // fair-share floor (1/8 of the link).
    sim.begin_measurement();
    let flow = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ns(20)),
        "quickstart",
        EmitWindow {
            limit: Some(10_000),
            ..Default::default()
        },
    );
    sim.run_to_quiescence();

    let stats = sim.flow(flow);
    println!(
        "delivered {}/{} flits, {} sequence errors",
        stats.delivered, stats.injected, stats.sequence_errors
    );
    println!(
        "latency: min {} mean {} p99 {} max {}",
        stats.latency.min().unwrap(),
        stats.latency.mean().unwrap(),
        stats.latency.quantile(0.99).unwrap(),
        stats.latency.max().unwrap()
    );
    println!(
        "throughput: {:.1} Mflit/s over {:.1} us",
        sim.flow_throughput_m(flow),
        sim.measured_window().as_ns_f64() / 1000.0
    );
    assert_eq!(stats.delivered, 10_000, "GS delivery is lossless");
    assert_eq!(stats.sequence_errors, 0, "GS delivery is in-order");
}
