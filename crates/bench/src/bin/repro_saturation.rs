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
use mango::net::{ScenarioMetrics, ScenarioSpec, TrafficSpec};
use mango::sim::SimDuration;
use mango_bench::written;
use mango_sweep::{
    run_parallel, write_csv, write_json, RuntimeInfo, SweepArgs, SweepJob, SweepRecord,
};
use std::time::Instant;

/// Measurement window of every load point.
const MEASURE: SimDuration = SimDuration::from_us(100);

/// One load point: every node sources uniform-random 4-flit BE packets
/// with Poisson gaps of `gap` (offered per-node rate = 1/gap). The seed
/// mixes the gap in so each load level gets an independent random
/// stream.
fn scenario(gap: SimDuration) -> ScenarioSpec {
    ScenarioSpec::mesh(4, 4, 0xBEEF ^ gap.as_ps())
        .warmup(SimDuration::from_us(20))
        .measure_for(MEASURE)
        .traffic(TrafficSpec::uniform_poisson(gap).payload(3).named("sweep-"))
}

fn main() {
    let args = SweepArgs::from_env_no_extra();
    println!("BE saturation curve: uniform random traffic, 4x4 mesh, 4-flit packets\n");
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

    let specs: Vec<_> = gaps.iter().copied().map(scenario).collect();
    let start = Instant::now();
    let metrics = run_parallel(&specs, args.threads, |_, spec| spec.run());
    let wall = start.elapsed().as_secs_f64();

    let mut t = Table::new(vec![
        "offered/node [Mpkt/s]",
        "delivered total [Mpkt/s]",
        "mean latency [ns]",
        "worst p99 [ns]",
    ]);
    for (gap, m) in gaps.iter().zip(&metrics) {
        t.add_row(vec![
            format!("{:.2}", gap.as_rate_mhz()),
            format!("{:.1}", m.be_throughput_m()),
            format!("{:.1}", m.be_weighted_mean_ns()),
            format!("{:.1}", m.be_p99_worst_ns()),
        ]);
    }
    print!("{t}");

    if args.csv.is_some() || args.json.is_some() {
        // Job metadata comes from the scenarios that actually ran (the
        // derived seed in particular).
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
                        measure_us: MEASURE.as_ps() / 1_000_000,
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
            written(path, write_csv(path, &records));
        }
        if let Some(path) = &args.json {
            written(path, write_json(path, &records, &runtime));
        }
    }

    // Shape checks: linear region then saturation.
    let (light, heavy) = (&metrics[0], metrics.last().unwrap());
    let expected_light = gaps[0].as_rate_mhz() * 16.0;
    assert!(
        (light.be_throughput_m() - expected_light).abs() / expected_light < 0.15,
        "light load must deliver ≈ offered"
    );
    assert!(
        heavy.be_weighted_mean_ns() > 3.0 * light.be_weighted_mean_ns(),
        "latency must climb toward saturation: {:.1} vs {:.1}",
        heavy.be_weighted_mean_ns(),
        light.be_weighted_mean_ns()
    );
    // Throughput monotonically non-decreasing (no congestion collapse —
    // credit flow control, no drops/retransmits).
    let delivered: Vec<f64> = metrics
        .iter()
        .map(ScenarioMetrics::be_throughput_m)
        .collect();
    for w in delivered.windows(2) {
        assert!(
            w[1] >= w[0] * 0.97,
            "throughput collapse: {:.1} -> {:.1}",
            w[0],
            w[1]
        );
    }
    let saturated = heavy.be_throughput_m();
    println!(
        "\nsaturation: {saturated:.1} Mpkt/s total ({:.0} Mflit/s incl. headers) with stable throughput past the knee",
        saturated * 4.0
    );
}
