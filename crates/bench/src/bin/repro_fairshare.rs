//! Reproduces the **fair-share guarantee of Sec. 4.4** (ref \[5\]): each of
//! the 8 channels on a link (7 GS VCs + BE) is guaranteed at least 1/8 of
//! link bandwidth; unused allocations are redistributed to contenders.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_fairshare`

use mango::core::RouterId;
use mango::hw::Table;
use mango::net::{EmitWindow, NocSim, Pattern};
use mango::sim::SimDuration;

fn main() {
    mango_bench::reject_args();
    let mut sim = NocSim::paper_mesh(3, 4, 77);
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
        .map(|(s, d)| sim.open_connection(*s, *d).expect("7 VCs fit"))
        .collect();
    sim.wait_connections_settled().expect("settles");

    // All 7 GS connections saturated + BE packets over the same link.
    sim.run_for(SimDuration::from_us(5));
    sim.begin_measurement();
    let gs_flows: Vec<u32> = conns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            sim.add_gs_source(
                *c,
                Pattern::cbr(SimDuration::from_ns(3)),
                format!("gs-{i}"),
                EmitWindow::default(),
            )
        })
        .collect();
    let be_flow = sim.add_be_source(
        RouterId::new(1, 0),
        vec![RouterId::new(2, 0)],
        3, // 4 flits per packet including the header
        Pattern::cbr(SimDuration::from_ns(6)),
        "be",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(200));

    let link_m = sim.link_capacity_m();
    let floor = link_m / 8.0;
    println!("Fair-share floors on a fully contended link (7 GS VCs + BE)\n");
    println!("link capacity {link_m:.1} Mflit/s, per-channel floor {floor:.1} Mflit/s\n");
    let mut t = Table::new(vec!["channel", "Mflit/s", "floor x", "holds"]);
    let mut aggregate = 0.0;
    for (i, f) in gs_flows.iter().enumerate() {
        let rate = sim.flow_throughput_m(*f);
        aggregate += rate;
        t.add_row(vec![
            format!("GS vc{i}"),
            format!("{rate:.1}"),
            format!("{:.2}", rate / floor),
            (rate >= 0.95 * floor).to_string(),
        ]);
        assert!(
            rate >= 0.95 * floor,
            "GS channel {i} below floor: {rate:.1}"
        );
    }
    let be_rate = sim.flow_throughput_m(be_flow) * 4.0; // flits incl. header
    aggregate += be_rate;
    t.add_row(vec![
        "BE".to_string(),
        format!("{be_rate:.1}"),
        format!("{:.2}", be_rate / floor),
        (be_rate >= 0.8 * floor).to_string(),
    ]);
    print!("{t}");
    println!(
        "\naggregate {aggregate:.1} Mflit/s = {:.1}% of link capacity",
        aggregate / link_m * 100.0
    );
    assert!(be_rate >= 0.8 * floor, "BE below floor: {be_rate:.1}");

    // Redistribution: stop at 2 contenders — each gets far more than 1/8.
    let mut sim = NocSim::paper_mesh(3, 1, 78);
    let a = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .unwrap();
    let b = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .unwrap();
    sim.wait_connections_settled().unwrap();
    sim.run_for(SimDuration::from_us(2));
    sim.begin_measurement();
    let fa = sim.add_gs_source(
        a,
        Pattern::cbr(SimDuration::from_ns(2)),
        "a",
        EmitWindow::default(),
    );
    let fb = sim.add_gs_source(
        b,
        Pattern::cbr(SimDuration::from_ns(2)),
        "b",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(100));
    let ra = sim.flow_throughput_m(fa);
    let rb = sim.flow_throughput_m(fb);
    println!(
        "\nredistribution with 2 backlogged contenders: {ra:.1} + {rb:.1} Mflit/s ({:.1} and {:.1} floors each)",
        ra / floor,
        rb / floor
    );
    assert!(ra > 2.0 * floor && rb > 2.0 * floor);
}
