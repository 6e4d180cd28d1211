//! Extension experiment: connection churn under admission control — the
//! workload the paper's static figures never exercise. Poisson streams
//! of open→stream→close GS connection requests run against the QoS
//! admission controller on an 8×8 mesh with BE background; every
//! admitted connection streams over the real in-band programming
//! machinery, and its observed worst latency is checked against the
//! analytical [`mango::qos::GuaranteeReport`] bound.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_churn`
//! `[-- --threads N] [--smoke] [--list] [--csv PATH]`
//!
//! The output is deterministic: byte-identical CSV for every
//! `--threads` value (the CI churn determinism gate diffs 1 vs 4).
//! A point whose audit finds a connection above its bound prints that
//! witness and exits 1. The binary asserts that the grid demonstrates
//! both scale (≥ 800 requests in one point) and admission rejections
//! under budget exhaustion.

use mango_bench::{guarantees_held, written};
use mango_sweep::{churn_summary_table, run_grid, write_csv, ChurnSweepSpec, SweepArgs};
use std::time::Instant;

fn main() {
    let args = SweepArgs::from_env_no_extra().refuse(&["--json", "--telemetry-out"]);
    let spec = if args.smoke {
        ChurnSweepSpec::smoke()
    } else {
        ChurnSweepSpec::repro()
    };
    let grid_name = if args.smoke { "smoke" } else { "repro" };

    if args.list {
        println!(
            "churn sweep: {} grid, {} jobs (listing, not running)",
            grid_name,
            spec.len()
        );
        for job in spec.expand() {
            println!("{job}");
        }
        return;
    }

    println!(
        "connection churn: {} grid, {} jobs on {} threads\n",
        grid_name,
        spec.len(),
        args.threads
    );
    let start = Instant::now();
    let records = run_grid(&spec.expand(), args.threads, |job| spec.measure(job));
    let wall = start.elapsed().as_secs_f64();

    print!("{}", churn_summary_table(&records));
    let events: u64 = records.iter().map(|r| r.events).sum();
    println!(
        "\n{} jobs, {} events in {:.2} s on {} threads  ->  {:.2} Mevents/s",
        records.len(),
        events,
        wall,
        args.threads,
        events as f64 / wall / 1e6
    );

    // The guarantee contract: no admitted, rate-conforming connection
    // may ever exceed its analytical latency bound.
    let audits = records
        .iter()
        .map(|r| (format!("job {}", r.job.id), &r.audit));
    guarantees_held(audits);
    for r in &records {
        assert!(
            r.requests > 0 && r.admitted > 0,
            "job {} did nothing",
            r.job.id
        );
        assert!(r.closed > 0, "job {}: no teardown completed", r.job.id);
    }
    // Scale: at least one point runs a ≥800-connection open/close
    // workload (the full grid's fast-arrival points issue well over
    // 1000 requests on the 8×8 mesh).
    let max_requests = records.iter().map(|r| r.requests).max().unwrap_or(0);
    let scale_floor = if args.smoke { 40 } else { 800 };
    assert!(
        max_requests >= scale_floor,
        "largest point issued only {max_requests} requests (need ≥ {scale_floor})"
    );
    // Budget exhaustion must show up as rejections, not panics.
    let rejected: u64 = records.iter().map(|r| r.rejected).sum();
    assert!(
        rejected > 0,
        "no sweep point demonstrated admission rejection"
    );
    println!(
        "guarantees held: 0 bound violations; scale point {} requests; {} rejections across the grid",
        max_requests, rejected
    );

    if let Some(path) = &args.csv {
        written(path, write_csv(path, &records));
        println!("wrote {}", path.display());
    }
}
