//! Extension experiment: application-serving capacity curves. Whole
//! task graphs (VOPD-class multimedia workloads) arrive as Poisson
//! instances, are placed by an optimizer scoring through the real
//! admission controller, admitted all-or-nothing, opened via in-band
//! programming packets, streamed per edge, and torn down with exact
//! budget return. The sweep reports admitted-vs-rejected capacity per
//! topology — including a chiplet mesh whose seam D2D links tighten the
//! bounds — and compares greedy against simulated-annealing placement.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_serving`
//! `[-- --threads N] [--smoke] [--list] [--csv PATH]`
//!
//! The output is deterministic: byte-identical stdout and CSV for every
//! `--threads` value (the CI serving gate diffs 1 vs 4). A point whose
//! audit finds an admitted edge above its latency bound prints that
//! witness and exits 1. The binary asserts the rest of the serving
//! contract — annealing admitting at least as many instances as greedy
//! on every matching grid point, and rejections (not panics) past
//! saturation.

use mango_bench::{guarantees_held, written};
use mango_sweep::{capacity_curves, run_grid, serving_summary_table, write_csv, ServingSweepSpec};
use std::time::Instant;

fn main() {
    let args = mango_sweep::SweepArgs::from_env_no_extra().refuse(&["--json", "--telemetry-out"]);
    let spec = if args.smoke {
        ServingSweepSpec::smoke()
    } else {
        ServingSweepSpec::repro()
    };
    let grid_name = if args.smoke { "smoke" } else { "repro" };

    if args.list {
        println!(
            "serving sweep: {} grid, {} jobs (listing, not running)",
            grid_name,
            spec.len()
        );
        for job in spec.expand() {
            println!("{job}");
        }
        return;
    }

    println!(
        "application serving: {} grid, {} jobs\n",
        grid_name,
        spec.len()
    );
    let start = Instant::now();
    let records = run_grid(&spec.expand(), args.threads, |job| spec.measure(job));
    let wall = start.elapsed().as_secs_f64();

    print!("{}", serving_summary_table(&records));
    println!("\ncapacity curves (admitted vs offered as arrivals tighten):");
    print!("{}", capacity_curves(&records));
    let events: u64 = records.iter().map(|r| r.events).sum();
    // Wall-clock rates are the one legitimately nondeterministic output:
    // stderr, so stdout stays golden-diffable across thread counts.
    eprintln!(
        "[{} jobs, {} events in {:.2} s on {} threads -> {:.2} Mevents/s]",
        records.len(),
        events,
        wall,
        args.threads,
        events as f64 / wall / 1e6
    );
    println!("\n{} jobs, {} events", records.len(), events);

    // The serving contract, point by point.
    let audits = records
        .iter()
        .map(|r| (format!("job {}", r.job.id), &r.audit));
    guarantees_held(audits);
    for r in &records {
        assert!(r.offered > 0, "job {} offered nothing", r.job.id);
        assert!(r.admitted > 0, "job {} admitted nothing", r.job.id);
    }
    // Annealing must serve at least as many instances as greedy on
    // every matching (topology, graph, arrival, seed) point.
    for g in records.iter().filter(|r| r.job.placer.name() == "greedy") {
        if let Some(a) = records.iter().find(|r| {
            r.job.placer.name() == "anneal"
                && r.job.topology == g.job.topology
                && r.job.graph == g.job.graph
                && r.job.arrival_gap_ns == g.job.arrival_gap_ns
                && r.job.seed == g.job.seed
        }) {
            assert!(
                a.admitted >= g.admitted,
                "annealing admitted {} < greedy {} on {}",
                a.admitted,
                g.admitted,
                g.job
            );
        }
    }
    // Saturation shows up as typed rejections, and the offered scale is
    // real (the repro grid pushes thousands of instances per point).
    let rejected: u64 = records.iter().map(|r| r.rejected).sum();
    assert!(rejected > 0, "no grid point demonstrated rejection");
    let max_offered = records.iter().map(|r| r.offered).max().unwrap_or(0);
    let scale_floor = if args.smoke { 40 } else { 400 };
    assert!(
        max_offered >= scale_floor,
        "largest point offered only {max_offered} instances (need >= {scale_floor})"
    );
    println!(
        "guarantees held: 0 bound violations; scale point {} offered instances; {} rejections across the grid",
        max_offered, rejected
    );

    if let Some(path) = &args.csv {
        written(path, write_csv(path, &records));
        eprintln!("[wrote {}]", path.display());
    }
}
