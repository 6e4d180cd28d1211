//! Reproduces **Fig. 7 / Sec. 5** (the BE router): source-routed packets
//! follow their headers hop by hop up to the 15-hop limit; latency grows
//! linearly with hops; outputs arbitrate fairly between inputs while
//! keeping packet coherency.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_fig7_be`
//! `[-- --threads N] [--smoke]`
//!
//! All six scenarios (five hop counts + the fan-in arbitration test) are
//! independent simulations fanned out over worker threads; the printed
//! tables are identical for every `--threads` value. This job list is
//! the "Fig. 7 grid" the ROADMAP's parallel-sweep wall-clock numbers
//! are measured on.

use mango::core::RouterId;
use mango::hw::Table;
use mango::net::{
    EmitWindow, Phase, ScenarioMetrics, ScenarioSpec, SpatialPattern, TemporalSpec, TrafficSpec,
};
use mango::sim::SimDuration;
use mango_sweep::{run_parallel, SweepArgs};
use std::time::Instant;

/// Latency-vs-hops point: one BE flow across an idle 16×1 line.
fn hop_scenario(hops: u8, limit: u64) -> ScenarioSpec {
    ScenarioSpec::mesh(16, 1, 21)
        .measure_to_quiescence()
        .traffic(
            TrafficSpec::new(
                SpatialPattern::FixedPool(vec![RouterId::new(hops, 0)]),
                TemporalSpec::cbr(SimDuration::from_ns(100)),
            )
            .from_node(RouterId::new(0, 0))
            .payload(3)
            .named("hops")
            .phase(Phase::Measure)
            .window(EmitWindow {
                limit: Some(limit),
                ..Default::default()
            }),
        )
}

/// Fan-in fairness: four saturating senders into one sink on a 3×3 mesh.
fn fair_scenario(senders: &[RouterId], sink: RouterId) -> ScenarioSpec {
    let mut spec = ScenarioSpec::mesh(3, 3, 23)
        .warmup(SimDuration::from_us(5))
        .measure_for(SimDuration::from_us(150));
    for s in senders {
        spec = spec.traffic(
            TrafficSpec::new(
                SpatialPattern::FixedPool(vec![sink]),
                TemporalSpec::cbr(SimDuration::from_ns(8)),
            )
            .from_node(*s)
            .payload(3)
            .named(format!("from-{s}"))
            .phase(Phase::Measure),
        );
    }
    spec
}

fn main() {
    let args = SweepArgs::from_env_no_extra();
    assert!(
        args.csv.is_none() && args.json.is_none(),
        "repro_fig7_be has no record output; --csv/--json are not supported"
    );
    let hop_counts: &[u8] = if args.smoke {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 15]
    };
    let limit = 300;
    let sink = RouterId::new(1, 1);
    let senders = [
        RouterId::new(0, 1),
        RouterId::new(2, 1),
        RouterId::new(1, 0),
        RouterId::new(1, 2),
    ];

    // One job list: the hop sweep plus the arbitration scenario.
    let mut specs: Vec<ScenarioSpec> = hop_counts.iter().map(|&h| hop_scenario(h, limit)).collect();
    specs.push(fair_scenario(&senders, sink));
    let start = Instant::now();
    let metrics: Vec<ScenarioMetrics> = run_parallel(&specs, args.threads, |_, s| s.run());
    let wall = start.elapsed();
    let (hop_metrics, fair_metrics) = metrics.split_at(hop_counts.len());

    // Latency vs hop count on a 16x1 mesh, idle network.
    println!("BE packet latency vs hop count (4-flit packets, idle network)\n");
    let mut t = Table::new(vec!["hops", "mean [ns]", "per-hop delta [ns]"]);
    let mut prev: Option<(u8, f64)> = None;
    let mut deltas = Vec::new();
    for (&hops, m) in hop_counts.iter().zip(hop_metrics) {
        let s = m.be(0);
        assert_eq!(s.delivered, limit, "lossless at {hops} hops");
        let mean = s.mean_ns.expect("latency recorded");
        let delta = prev.map(|(ph, pm)| (mean - pm) / f64::from(hops - ph));
        if let Some(d) = delta {
            deltas.push(d);
        }
        t.add_row(vec![
            hops.to_string(),
            format!("{mean:.2}"),
            delta.map_or("-".into(), |d| format!("{d:.2}")),
        ]);
        prev = Some((hops, mean));
    }
    print!("{t}");
    let spread = deltas
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    println!(
        "\nper-hop delta spread: {:.2}..{:.2} ns (constant per-hop cost)",
        spread.0, spread.1
    );
    assert!(
        (spread.1 - spread.0) / spread.0 < 0.25,
        "per-hop cost must be ~constant"
    );

    // Fair input arbitration: four senders into one sink, equal service.
    println!("\nFair arbitration: 4 senders -> 1 sink, saturating offered load\n");
    let rates: Vec<f64> = (0..senders.len())
        .map(|i| fair_metrics[0].be(i).throughput_m)
        .collect();
    let mut t = Table::new(vec!["sender", "Mpkt/s"]);
    for (s, r) in senders.iter().zip(&rates) {
        t.add_row(vec![s.to_string(), format!("{r:.2}")]);
    }
    print!("{t}");
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    println!(
        "\nmin/max sender rate ratio: {:.3} (1.0 = perfectly fair)",
        lo / hi
    );
    assert!(lo / hi > 0.9, "BE output arbitration must be fair");
    eprintln!(
        "[fig7 grid: {} scenarios on {} threads in {:.1} ms]",
        specs.len(),
        args.threads,
        wall.as_secs_f64() * 1e3
    );
}
