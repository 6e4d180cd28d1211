//! A QoS scenario from the paper's motivation: a video stream needs hard
//! bandwidth and bounded jitter while bursty best-effort traffic hammers
//! the same links.
//!
//! The video connection reserves one GS VC per hop. BE sources at every
//! node then flood the mesh with uniform-random packet traffic. The GS
//! stream's throughput and latency stay flat no matter how hard the BE
//! side pushes — the connection is logically independent of other traffic
//! (Sec. 3) — while BE latency degrades with load.
//!
//! Run with: `cargo run --release -p mango --example video_stream`

use mango::core::RouterId;
use mango::net::{EmitWindow, NocSim, TemporalSpec};
use mango::sim::SimDuration;

fn run_at_be_load(be_period: Option<SimDuration>) -> (f64, f64, f64) {
    let mut sim = NocSim::paper_mesh(4, 4, 7);

    // The "video port" streams corner to corner: 720p-ish 4-byte pixels
    // at ~60 Mflit/s, within the 1/8 fair-share floor (99 Mflit/s).
    let conn = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(3, 3))
        .expect("VCs available");
    sim.wait_connections_settled()
        .expect("programming completes");

    // Background BE: every node sprays packets at random nodes.
    if let Some(period) = be_period {
        let all: Vec<RouterId> = sim.network().grid().ids().collect();
        for node in all.clone() {
            let dests: Vec<RouterId> = all.iter().copied().filter(|d| *d != node).collect();
            sim.add_be_source(
                node,
                dests,
                4,
                TemporalSpec::poisson(period),
                format!("be-{node}"),
                EmitWindow::default(),
            );
        }
    }

    // Warmup, then measure.
    sim.run_for(SimDuration::from_us(20));
    sim.begin_measurement();
    let video = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ps(16_667)), // 60 Mflit/s
        "video",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(200));

    let stats = sim.flow(video);
    let throughput = sim.flow_throughput_m(video);
    let mean_ns = stats.latency.mean().map_or(0.0, |d| d.as_ns_f64());
    let jitter_ns = stats.latency.jitter().map_or(0.0, |d| d.as_ns_f64());
    (throughput, mean_ns, jitter_ns)
}

fn main() {
    println!("video stream (60 Mflit/s GS connection) vs BE background load\n");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "BE background", "video Mf/s", "mean ns", "jitter ns"
    );
    let cases: Vec<(&str, Option<SimDuration>)> = vec![
        ("none", None),
        ("light (1 pkt/us/node)", Some(SimDuration::from_us(1))),
        ("heavy (1 pkt/200ns/node)", Some(SimDuration::from_ns(200))),
        (
            "saturating (1 pkt/60ns/node)",
            Some(SimDuration::from_ns(60)),
        ),
    ];
    let mut results = Vec::new();
    for (name, period) in cases {
        let (tput, mean, jitter) = run_at_be_load(period);
        println!("{name:<28} {tput:>12.2} {mean:>12.2} {jitter:>12.2}");
        results.push((tput, mean, jitter));
    }
    let base = results[0];
    let worst = results.last().unwrap();
    println!(
        "\nGS independence: throughput moved {:+.2}%, mean latency {:+.2}% under saturating BE",
        (worst.0 - base.0) / base.0 * 100.0,
        (worst.1 - base.1) / base.1 * 100.0,
    );
    assert!(
        (worst.0 - base.0).abs() / base.0 < 0.02,
        "video throughput must be unaffected by BE load"
    );
}
