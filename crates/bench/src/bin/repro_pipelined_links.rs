//! Extension experiment from Sec. 3: "To keep speed up, long links can be
//! implemented as pipelines." Pipeline stages add forward latency but do
//! not reduce the link's flit rate — and, because the share-based VC loop
//! gets longer, the number of VCs needed to saturate a long link grows,
//! while depth-1 buffers keep sustaining the fair-share floor as long as
//! the loop fits inside one fair-share round.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_pipelined_links`

use mango::core::{RouterConfig, RouterId};
use mango::hw::Table;
use mango::net::{EmitWindow, Grid, NaConfig, Network, NocSim, Pattern};
use mango::sim::SimDuration;

/// Measures single-VC and 7-VC aggregate throughput across one link with
/// `extra` pipeline delay each way.
fn run(extra: SimDuration) -> (f64, f64) {
    let build = || {
        let mut grid = Grid::new(8, 1);
        grid.set_default_link_extra(extra);
        NocSim::new(
            Network::new(grid, RouterConfig::paper(), NaConfig::paper()),
            7,
        )
    };

    // Single VC.
    let mut sim = build();
    let conn = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(2, 0))
        .expect("fits");
    sim.wait_connections_settled().expect("settles");
    sim.run_for(SimDuration::from_us(5));
    sim.begin_measurement();
    let f = sim.add_gs_source(
        conn,
        Pattern::cbr(SimDuration::from_ns(1)),
        "solo",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(100));
    let solo = sim.flow_throughput_m(f);

    // 7 VCs through link (1,0)→E.
    let mut sim = build();
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
                format!("sat-{i}"),
                EmitWindow::default(),
            )
        })
        .collect();
    sim.run_for(SimDuration::from_us(150));
    let aggregate: f64 = flows.iter().map(|f| sim.flow_throughput_m(*f)).sum();
    (solo, aggregate)
}

fn main() {
    mango_bench::reject_args();
    let link_m = RouterConfig::paper().timing.link_cycle.as_rate_mhz();
    println!("Pipelined long links (Sec. 3): per-stage latency vs utilization\n");
    let mut t = Table::new(vec![
        "extra link delay",
        "single VC [Mflit/s]",
        "7 VCs aggregate [Mflit/s]",
        "aggregate share [%]",
    ]);
    let mut results = Vec::new();
    for extra_ps in [0u64, 1000, 2500, 5000] {
        let extra = SimDuration::from_ps(extra_ps);
        let (solo, aggregate) = run(extra);
        t.add_row(vec![
            format!("{extra}"),
            format!("{solo:.1}"),
            format!("{aggregate:.1}"),
            format!("{:.1}", aggregate / link_m * 100.0),
        ]);
        results.push((extra_ps, solo, aggregate));
    }
    print!("{t}");

    // Single-VC throughput falls with the longer share loop...
    assert!(
        results[3].1 < results[0].1 * 0.5,
        "long loop must slow a lone VC"
    );
    // ...but overlapping VCs keep the link near capacity while the loop
    // fits the fair-share round (loop ≈ 1.75 ns + 2×extra ≤ 10.06 ns ⇒
    // extra ≤ ~4.2 ns; the 5 ns point exceeds it and dips).
    assert!(
        results[1].2 > 0.97 * link_m,
        "1 ns stages: aggregate must stay ~saturated, got {:.1}",
        results[1].2
    );
    println!(
        "\nwith 1 ns extra stages the link still runs at {:.1}% via VC overlap;",
        results[1].2 / link_m * 100.0
    );
    println!(
        "at 5 ns the share loop (~{:.1} ns) exceeds the 8-slot fair-share round ({:.1} ns) and depth-1 buffers no longer cover it — the paper's buffer-sizing condition, demonstrated.",
        1.75 + 2.0 * 5.0,
        8.0 * 1.258
    );
}
