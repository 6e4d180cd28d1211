//! Extension experiment: the classic NoC saturation curve for the BE
//! network — delivered throughput and latency vs offered uniform-random
//! load on a 4×4 mesh. Not a paper figure (MANGO's guarantees are
//! analytic), but the characterization any adopter runs first, and a
//! stress test of the credit-based BE flow control.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_saturation`
//! `[-- --threads N] [--smoke] [--csv PATH] [--json PATH]`
//!
//! Each load point is an independent simulation; points fan out across
//! worker threads and merge deterministically — the printed curve is
//! identical for every `--threads` value.

use mango::hw::Table;
use mango::net::{BeSweep, LoadPoint};
use mango::sim::SimDuration;
use mango_sweep::{
    run_parallel, write_csv, write_json, RuntimeInfo, SweepArgs, SweepJob, SweepRecord,
};
use std::time::Instant;

fn main() {
    let args = SweepArgs::from_env_no_extra();
    println!("BE saturation curve: uniform random traffic, 4x4 mesh, 4-flit packets\n");
    let sweep = BeSweep::default();
    // The BE fabric is fast: with GS idle every link gives BE its full
    // capacity, so uniform-random traffic only saturates once per-node
    // injection approaches the NA's own limit (~199 Mpkt/s for 4-flit
    // packets). Sweep all the way there. The smoke grid keeps the curve
    // ends (the shape assertions below need them) and drops the middle.
    let gap_ns: &[u64] = if args.smoke {
        &[2000, 50, 6]
    } else {
        &[2000, 500, 150, 50, 20, 10, 6]
    };
    let gaps: Vec<SimDuration> = gap_ns.iter().copied().map(SimDuration::from_ns).collect();

    let specs: Vec<_> = gaps.iter().map(|&g| sweep.scenario(g)).collect();
    let start = Instant::now();
    let metrics = run_parallel(&specs, args.threads, |_, spec| spec.run());
    let wall = start.elapsed().as_secs_f64();

    let points: Vec<LoadPoint> = gaps
        .iter()
        .zip(&metrics)
        .map(|(gap, m)| LoadPoint {
            offered_m: gap.as_rate_mhz(),
            delivered_m: m.be_throughput_m(),
            mean_ns: m.be_weighted_mean_ns(),
            p99_ns: m.be_p99_worst_ns(),
        })
        .collect();

    let mut t = Table::new(vec![
        "offered/node [Mpkt/s]",
        "delivered total [Mpkt/s]",
        "mean latency [ns]",
        "worst p99 [ns]",
    ]);
    for p in &points {
        t.add_row(vec![
            format!("{:.2}", p.offered_m),
            format!("{:.1}", p.delivered_m),
            format!("{:.1}", p.mean_ns),
            format!("{:.1}", p.p99_ns),
        ]);
    }
    print!("{t}");

    if args.csv.is_some() || args.json.is_some() {
        // Job metadata comes from the scenarios that actually ran (the
        // derived seed in particular), not from re-deriving BeSweep's
        // internals here.
        let records: Vec<SweepRecord> = specs
            .iter()
            .zip(&metrics)
            .enumerate()
            .map(|(id, (spec, m))| {
                SweepRecord::measure(
                    SweepJob {
                        id,
                        topology: spec.topology_spec(),
                        width: spec.width,
                        height: spec.height,
                        gs_conns: 0,
                        be_gap_ns: Some(gaps[id].as_ps() / 1000),
                        pattern: mango::net::PatternKind::Uniform,
                        gs_period_ns: 0,
                        measure_us: sweep.measure.as_ps() / 1_000_000,
                        seed: spec.seed,
                    },
                    m,
                )
            })
            .collect();
        let runtime = RuntimeInfo {
            threads: args.threads,
            wall_seconds: wall,
            total_events: metrics.iter().map(|m| m.events).sum(),
        };
        if let Some(path) = &args.csv {
            write_csv(path, &records).expect("write CSV");
        }
        if let Some(path) = &args.json {
            write_json(path, &records, &runtime).expect("write JSON");
        }
    }

    // Shape checks: linear region then saturation.
    let light = &points[0];
    let heavy = points.last().unwrap();
    let expected_light = light.offered_m * 16.0;
    assert!(
        (light.delivered_m - expected_light).abs() / expected_light < 0.15,
        "light load must deliver ≈ offered"
    );
    assert!(
        heavy.mean_ns > 3.0 * light.mean_ns,
        "latency must climb toward saturation: {:.1} vs {:.1}",
        heavy.mean_ns,
        light.mean_ns
    );
    // Throughput monotonically non-decreasing (no congestion collapse —
    // credit flow control, no drops/retransmits).
    for w in points.windows(2) {
        assert!(
            w[1].delivered_m >= w[0].delivered_m * 0.97,
            "throughput collapse: {:.1} -> {:.1}",
            w[0].delivered_m,
            w[1].delivered_m
        );
    }
    println!(
        "\nsaturation: {:.1} Mpkt/s total ({:.0} Mflit/s incl. headers) with stable throughput past the knee",
        heavy.delivered_m,
        heavy.delivered_m * 4.0
    );
}
