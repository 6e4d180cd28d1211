//! Reproduces the headline property of **Fig. 8 / Sec. 3**: GS
//! connections are logically independent of best-effort traffic. A GS
//! stream's throughput and latency stay flat as BE injection sweeps from
//! idle to saturation, while BE latency degrades.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_fig8_gs_vs_be`
//! `[-- --threads N] [--smoke] [--csv PATH] [--json PATH] [--telemetry-out DIR]`
//!
//! The BE load axis is a [`SweepSpec`] grid: one GS connection
//! (0,0)→(3,3) at 12 ns CBR against a BE background dimension, fanned
//! out across worker threads and merged in job order.
//! `--telemetry-out DIR` additionally collects per-job telemetry
//! (metrics, epoch time series, flit-journey Chrome trace) and writes
//! it into DIR — byte-identical for any `--threads` value.

use mango::hw::Table;
use mango::net::{ScenarioMetrics, TelemetryConfig};
use mango::telemetry::TelemetryReport;
use mango_bench::written;
use mango_sweep::{
    run_parallel, write_csv, write_json, write_telemetry_dir, RuntimeInfo, SweepArgs, SweepRecord,
    SweepSpec,
};
use std::time::Instant;

struct Row {
    label: String,
    gs_tput: f64,
    gs_mean: f64,
    gs_max: f64,
    be_mean: f64,
}

fn main() {
    let args = SweepArgs::from_env_no_extra();
    let be_gaps: &[Option<u64>] = if args.smoke {
        &[None, Some(300), Some(50)]
    } else {
        &[None, Some(1000), Some(300), Some(100), Some(50)]
    };
    // The historical Fig. 8 experiment as a declarative grid: the
    // auto-placed first connection of a 4×4 mesh is exactly the
    // (0,0)→(3,3) six-hop stream the figure tags.
    let spec = SweepSpec {
        topologies: vec![mango::net::TopologySpec::mesh(4, 4)],
        gs_conns: vec![1],
        be_gaps_ns: be_gaps.to_vec(),
        patterns: vec![mango::net::PatternKind::Uniform],
        gs_periods_ns: vec![12], // ~83 Mf/s, inside the floor
        measures_us: vec![150],
        seeds: vec![55],
        warmup_us: 20,
        payload_words: 4,
    };
    let jobs = spec.expand();
    let start = Instant::now();
    let telemetry = args.telemetry_out.is_some();
    let results: Vec<(ScenarioMetrics, Option<TelemetryReport>)> =
        run_parallel(&jobs, args.threads, |_, job| {
            let scenario = spec.scenario(job);
            if !telemetry {
                return (scenario.run(), None);
            }
            let mut prepared = scenario.prepare();
            prepared
                .sim_mut()
                .enable_telemetry(TelemetryConfig::default());
            prepared.start_measurement();
            let outcome = prepared.run_to_bound();
            let report = prepared.sim_mut().take_telemetry();
            (prepared.finish(outcome), Some(report))
        });
    let wall = start.elapsed().as_secs_f64();
    if let Some(dir) = &args.telemetry_out {
        let reports: Vec<TelemetryReport> = results.iter().filter_map(|(_, r)| r.clone()).collect();
        written(dir, write_telemetry_dir(dir, &reports));
        println!("telemetry written to {}\n", dir.display());
    }
    let metrics: Vec<ScenarioMetrics> = results.into_iter().map(|(m, _)| m).collect();

    println!("GS independence from BE load (Fig. 8): 6-hop GS stream at 83 Mflit/s\n");
    let rows: Vec<Row> = jobs
        .iter()
        .zip(&metrics)
        .map(|(job, m)| Row {
            label: match job.be_gap_ns {
                None => "BE idle".into(),
                Some(g) => format!("BE 1 pkt/{g} ns/node"),
            },
            gs_tput: m.gs(0).throughput_m,
            gs_mean: m.gs(0).mean_ns.expect("GS latency recorded"),
            gs_max: m.gs(0).max_ns.expect("GS latency recorded"),
            be_mean: m.be_mean_of_means_ns(),
        })
        .collect();
    let mut t = Table::new(vec![
        "BE background",
        "GS [Mflit/s]",
        "GS mean [ns]",
        "GS max [ns]",
        "BE mean [ns]",
    ]);
    for r in &rows {
        t.add_row(vec![
            r.label.clone(),
            format!("{:.2}", r.gs_tput),
            format!("{:.2}", r.gs_mean),
            format!("{:.2}", r.gs_max),
            if r.be_mean > 0.0 {
                format!("{:.1}", r.be_mean)
            } else {
                "-".into()
            },
        ]);
    }
    print!("{t}");

    if args.csv.is_some() || args.json.is_some() {
        let records: Vec<SweepRecord> = jobs
            .iter()
            .zip(&metrics)
            .map(|(job, m)| SweepRecord::measure(job.clone(), m))
            .collect();
        if let Some(path) = &args.csv {
            written(path, write_csv(path, &records));
        }
        if let Some(path) = &args.json {
            let runtime = RuntimeInfo {
                threads: args.threads,
                wall_seconds: wall,
                total_events: metrics.iter().map(|m| m.events).sum(),
            };
            written(path, write_json(path, &records, &runtime));
        }
    }

    let base = &rows[0];
    let worst = rows.last().unwrap();
    println!(
        "\nGS throughput shift at BE saturation: {:+.2}% (must be ~0)",
        (worst.gs_tput - base.gs_tput) / base.gs_tput * 100.0
    );
    println!(
        "GS mean latency shift: {:+.1} ns (bounded arbitration interference only)",
        worst.gs_mean - base.gs_mean
    );
    println!(
        "BE mean latency degradation: {:.1}x",
        worst.be_mean / rows[1].be_mean
    );
    assert!((worst.gs_tput - base.gs_tput).abs() / base.gs_tput < 0.01);
}
