//! Extension experiment: **GS guarantees under adversarial spatial
//! traffic patterns** — the evaluation the paper's Fig. 7/8 never ran.
//! The paper argues GS connections are logically independent of
//! best-effort traffic; its figures only check that against
//! uniform-random BE. Here the standard NoC pattern suite (uniform,
//! transpose, bit-complement, tornado) plus a hotspot aimed straight at
//! the GS route's column sweeps offered load on an 8×8 mesh, producing a
//! per-pattern saturation curve — and at every point the tagged GS
//! stream's observed worst latency is checked against its analytical
//! [`mango::qos::GuaranteeReport`] bound. The hotspot column case is the
//! adversarial interference the connection-oriented argument predicts
//! survives.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_patterns`
//! `[-- --threads N] [--smoke] [--list]`
//!
//! Everything on stdout is deterministic and byte-diffed in CI against
//! `tests/golden/repro_patterns_smoke.txt` at 1 and 4 worker threads;
//! wall-clock rates go to stderr.

use mango::core::{RouterConfig, RouterId};
use mango::hw::Table;
use mango::net::{
    NaConfig, ScenarioMetrics, ScenarioSpec, SpatialPattern, TemporalSpec, TrafficSpec,
};
use mango::qos::report_for;
use mango::sim::SimDuration;
use mango_sweep::run_parallel;
use std::time::Instant;

const SIDE: u8 = 8;
const GS_PERIOD_NS: u64 = 12;

/// The tagged GS connection: (0,0) → (7,7), XY-routed east along row 0
/// then south down column 7 — 14 links.
const GS_SRC: (u8, u8) = (0, 0);
const GS_DST: (u8, u8) = (7, 7);
const GS_HOPS: usize = 14;

/// The interference patterns, in output order. The hotspot aims 60 % of
/// every node's traffic at two nodes on column 7 — the GS route's south
/// leg — so BE fan-in converges exactly where the tagged stream runs.
fn patterns() -> Vec<(&'static str, SpatialPattern)> {
    vec![
        ("uniform", SpatialPattern::UniformRandom),
        ("transpose", SpatialPattern::Transpose),
        ("bitcomp", SpatialPattern::BitComplement),
        ("tornado", SpatialPattern::Tornado),
        (
            "hotspot-gs-col",
            SpatialPattern::hotspot(vec![RouterId::new(7, 3), RouterId::new(7, 4)], 0.6),
        ),
    ]
}

fn spec_for(spatial: &SpatialPattern, gap_ns: u64) -> ScenarioSpec {
    ScenarioSpec::mesh(SIDE, SIDE, 7)
        .warmup(SimDuration::from_us(5))
        .measure_for(SimDuration::from_us(25))
        .gs(
            RouterId::new(GS_SRC.0, GS_SRC.1),
            RouterId::new(GS_DST.0, GS_DST.1),
            TemporalSpec::cbr(SimDuration::from_ns(GS_PERIOD_NS)),
        )
        .traffic(
            TrafficSpec::new(
                spatial.clone(),
                TemporalSpec::poisson(SimDuration::from_ns(gap_ns)),
            )
            .payload(4)
            .named("bg-"),
        )
}

fn main() {
    let args = mango_bench::args_accepting(&["--smoke", "--list"]);
    let gaps_ns: &[u64] = if args.smoke {
        &[1000, 300, 100]
    } else {
        &[2000, 1000, 300, 100, 50]
    };
    let patterns = patterns();

    if args.list {
        println!(
            "pattern sweep: {} patterns x {} loads on {SIDE}x{SIDE} (listing, not running)",
            patterns.len(),
            gaps_ns.len()
        );
        let mut id = 0;
        for (name, _) in &patterns {
            for gap in gaps_ns {
                println!("job {id}: pattern={name} be_gap={gap}ns");
                id += 1;
            }
        }
        return;
    }

    let report = report_for(
        &RouterConfig::paper(),
        &NaConfig::paper(),
        GS_HOPS,
        SimDuration::from_ns(GS_PERIOD_NS),
    );
    assert!(report.conforming, "the tagged stream must be conforming");
    let bound_ns = report.worst_latency_ns().expect("conforming has a bound");

    println!(
        "GS guarantees under spatial interference patterns: {SIDE}x{SIDE} mesh,\n\
         tagged GS ({},{}) -> ({},{}) at {GS_PERIOD_NS} ns CBR over {GS_HOPS} links,\n\
         analytical worst-case bound {bound_ns:.1} ns\n",
        GS_SRC.0, GS_SRC.1, GS_DST.0, GS_DST.1
    );

    // One job per (pattern, load) point, fanned out over workers.
    let jobs: Vec<(usize, u64)> = (0..patterns.len())
        .flat_map(|p| gaps_ns.iter().map(move |&g| (p, g)))
        .collect();
    let start = Instant::now();
    let metrics: Vec<ScenarioMetrics> = run_parallel(&jobs, args.threads, |_, &(p, gap)| {
        spec_for(&patterns[p].1, gap).run()
    });
    let wall = start.elapsed();

    let mut worst_ratio = 0.0_f64;
    for (p, (name, _)) in patterns.iter().enumerate() {
        println!("pattern: {name}\n");
        let mut t = Table::new(vec![
            "BE gap/node [ns]",
            "BE delivered [Mpkt/s]",
            "BE mean [ns]",
            "BE worst p99 [ns]",
            "GS [Mflit/s]",
            "GS mean [ns]",
            "GS max [ns]",
            "obs/bound",
        ]);
        for (i, &gap) in gaps_ns.iter().enumerate() {
            let m = &metrics[p * gaps_ns.len() + i];
            let gs = m.gs(0);
            let observed = gs.max_ns.expect("GS latency recorded");
            assert!(
                report.admits_observation(observed),
                "pattern {name}, BE gap {gap} ns: observed GS max {observed:.1} ns \
                 exceeds the analytical bound {bound_ns:.1} ns"
            );
            assert_eq!(gs.sequence_errors, 0, "GS delivery stays in order");
            let ratio = observed / bound_ns;
            worst_ratio = worst_ratio.max(ratio);
            t.add_row(vec![
                gap.to_string(),
                format!("{:.2}", m.be_throughput_m()),
                format!("{:.1}", m.be_weighted_mean_ns()),
                format!("{:.1}", m.be_p99_worst_ns()),
                format!("{:.2}", gs.throughput_m),
                format!("{:.2}", gs.mean_ns.expect("GS latency recorded")),
                format!("{:.2}", observed),
                format!("{ratio:.3}"),
            ]);
        }
        print!("{t}");
        // The guarantee story: GS throughput must not move with BE load,
        // whatever shape the interference takes.
        let first = metrics[p * gaps_ns.len()].gs(0).throughput_m;
        let last = metrics[p * gaps_ns.len() + gaps_ns.len() - 1]
            .gs(0)
            .throughput_m;
        assert!(
            (last - first).abs() / first < 0.01,
            "pattern {name}: GS throughput moved with BE load ({first:.2} -> {last:.2})"
        );
        println!();
    }
    println!(
        "guarantees held: {} patterns x {} loads, 0 bound violations, worst obs/bound {:.3}",
        patterns.len(),
        gaps_ns.len(),
        worst_ratio
    );
    eprintln!(
        "[pattern grid: {} jobs on {} threads in {:.1} ms]",
        jobs.len(),
        args.threads,
        wall.as_secs_f64() * 1e3
    );
}
