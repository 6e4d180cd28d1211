//! Reproduces the **ALG extension (ref \[6\])** in two measurements:
//!
//! 1. **Bandwidth under saturation** — all 7 VCs backlogged: fair-share
//!    and ALG keep every channel alive (ALG via its age bound); static
//!    priority (ref \[9\], the ablation) starves the lowest VCs.
//! 2. **Latency under contention, stable queues** — every VC offered 90%
//!    of its fair share: ALG gives the high-priority channel near-minimal
//!    latency while fair-share treats all channels alike.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_alg_latency`

use mango::core::{ArbiterKind, RouterConfig, RouterId};
use mango::hw::Table;
use mango::net::{EmitWindow, NocSim, Pattern};
use mango::sim::SimDuration;

fn build(arbiter: ArbiterKind, seed: u64) -> (NocSim, Vec<mango::core::ConnectionId>) {
    let cfg = RouterConfig {
        arbiter,
        ..RouterConfig::paper()
    };
    let mut sim = NocSim::mesh_with(8, 1, cfg, seed);
    // 7 connections funnel through (1,0)→E, spreading out after.
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
    (sim, conns)
}

/// Phase 1: saturation throughput per VC.
fn saturated_throughput(arbiter: ArbiterKind) -> Vec<f64> {
    let (mut sim, conns) = build(arbiter, 66);
    sim.run_for(SimDuration::from_us(5));
    sim.begin_measurement();
    let flows: Vec<u32> = conns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            sim.add_gs_source(
                *c,
                Pattern::cbr(SimDuration::from_ns(3)),
                format!("vc-{i}"),
                EmitWindow::default(),
            )
        })
        .collect();
    sim.run_for(SimDuration::from_us(150));
    flows.iter().map(|f| sim.flow_throughput_m(*f)).collect()
}

/// Phase 2: latency with stable queues (each VC at 90% of its share).
fn contended_latency(arbiter: ArbiterKind) -> Vec<(f64, f64)> {
    let (mut sim, conns) = build(arbiter, 67);
    sim.run_for(SimDuration::from_us(5));
    sim.begin_measurement();
    let flows: Vec<u32> = conns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            sim.add_gs_source(
                *c,
                Pattern::poisson(SimDuration::from_ps(12_600)), // ~79 Mf/s each
                format!("vc-{i}"),
                EmitWindow::default(),
            )
        })
        .collect();
    sim.run_for(SimDuration::from_us(200));
    flows
        .iter()
        .map(|f| {
            let s = sim.flow(*f);
            (
                s.latency.mean().map_or(f64::NAN, |d| d.as_ns_f64()),
                s.latency.quantile(0.99).map_or(f64::NAN, |d| d.as_ns_f64()),
            )
        })
        .collect()
}

fn main() {
    mango_bench::reject_args();
    println!("Phase 1: per-VC throughput, all 7 VCs saturated [Mflit/s]\n");
    let fair_t = saturated_throughput(ArbiterKind::FairShare);
    let alg_t = saturated_throughput(ArbiterKind::Alg { age_bound: 7 });
    let prio_t = saturated_throughput(ArbiterKind::StaticPriority);
    let mut t = Table::new(vec!["VC (priority)", "fair-share", "ALG", "static-prio"]);
    for i in 0..7 {
        t.add_row(vec![
            format!("vc{i}"),
            format!("{:.1}", fair_t[i]),
            format!("{:.1}", alg_t[i]),
            format!("{:.1}", prio_t[i]),
        ]);
    }
    print!("{t}");
    println!(
        "\nstatic priority starves vc6 ({:.1} Mf/s); ALG's age bound keeps it alive ({:.1} Mf/s)",
        prio_t[6], alg_t[6]
    );
    assert!(prio_t[6] < 10.0, "static priority must starve the tail");
    assert!(alg_t[6] > 50.0, "ALG must not starve");
    assert!(fair_t.iter().all(|&r| r > 90.0), "fair share floors hold");

    println!("\nPhase 2: latency at ~70% link load, stable queues [ns]\n");
    let fair_l = contended_latency(ArbiterKind::FairShare);
    let alg_l = contended_latency(ArbiterKind::Alg { age_bound: 7 });
    let mut t = Table::new(vec![
        "VC (priority)",
        "fair mean",
        "fair p99",
        "ALG mean",
        "ALG p99",
    ]);
    for i in 0..7 {
        t.add_row(vec![
            format!("vc{i}"),
            format!("{:.1}", fair_l[i].0),
            format!("{:.1}", fair_l[i].1),
            format!("{:.1}", alg_l[i].0),
            format!("{:.1}", alg_l[i].1),
        ]);
    }
    print!("{t}");
    println!(
        "\nALG top-priority p99 {:.1} ns vs fair-share {:.1} ns on the same channel",
        alg_l[0].1, fair_l[0].1
    );
    assert!(
        alg_l[0].1 < fair_l[0].1,
        "ALG must tighten the high-priority tail: {:.1} !< {:.1}",
        alg_l[0].1,
        fair_l[0].1
    );
}
