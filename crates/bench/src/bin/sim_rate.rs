//! Simulator throughput probe: runs the `network_sim` benchmark scenario
//! (mixed GS + BE, four crossing connections plus uniform BE background)
//! and reports raw events/second, the number the simulator-performance
//! roadmap track is measured in.
//!
//! Usage:
//! `sim_rate [simulated_us] [repeats] [--mesh N] [--json] [--profile] [--telemetry]`
//! (defaults: 50 µs × 5 on a 4×4 mesh; `simulated_us ≥ 1`,
//! `repeats ≥ 1`, `N ≥ 4` — anything else prints the usage line and
//! exits 2). `--mesh N` runs the same mixed workload on an N×N mesh —
//! the mesh-scaling probe. `--json` emits one machine-readable object on
//! stdout so CI can record the rate without scraping logs, with the
//! process's peak RSS (`peak_rss_mb`, its `VmHWM`; absent where `/proc`
//! is). `--profile` turns on kernel self-profiling and prints
//! per-event-kind dispatch counts, the lazy handshakes' slots reserved
//! vs queued (the difference is events that were never dispatched) and
//! wheel-occupancy statistics (queue length, occupied buckets, the
//! wheel's entry high-water mark) after the last run (profiling adds a
//! little per-dispatch work, so rates measured with it are not
//! comparable to unprofiled ones; and
//! ns/event is not comparable across a change in what is elided — the
//! events that go are the cheapest ones, so the mean of the rest
//! rises). `--telemetry` activates the telemetry
//! sink (metrics + epoch samplers, flit tracing off) — the
//! sampler-overhead probe: compare its rate to a plain run of the same
//! workload. The 16×16-vs-4×4 per-event ratio is the repo benchmark's
//! `sim.ns_per_event_ratio_16v4` (`benchmark/`), which records both bases.

use mango::net::TelemetryConfig;
use mango::sim::{SimDuration, WheelGeometry};
use mango_bench::mixed_mesh;
use std::time::Instant;

struct RunConfig {
    mesh: u8,
    sim_us: u64,
    repeats: u64,
    profile: bool,
    telemetry: bool,
}

struct RunResult {
    best: f64,
    runs: Vec<String>,
    profile: Option<mango::sim::KernelProfile>,
    geometry: WheelGeometry,
}

/// Times `repeats` fresh runs of the mixed workload; returns the best
/// rate, per-run records, the last run's profile and the event wheel the
/// runs used.
fn measure(cfg: &RunConfig, quiet: bool) -> RunResult {
    let mut best = f64::MIN;
    let mut runs = Vec::new();
    let mut last_profile = None;
    let mut geometry = WheelGeometry::DEFAULT;
    for run in 0..cfg.repeats {
        let mut sim = mixed_mesh(cfg.mesh, cfg.mesh, 99);
        geometry = sim.wheel_geometry();
        if run == 0 && !quiet {
            println!(
                "mixed {0}x{0} mesh, {1} us simulated, {2} runs, wheel {3}x{4} ps",
                cfg.mesh,
                cfg.sim_us,
                cfg.repeats,
                geometry.num_buckets,
                geometry.width_ps(),
            );
        }
        if cfg.profile {
            sim.enable_kernel_profiling();
        }
        if cfg.telemetry {
            sim.enable_telemetry(TelemetryConfig {
                trace_flits: false,
                ..Default::default()
            });
        }
        let setup_events = sim.events_processed();
        let start = Instant::now();
        sim.run_for(SimDuration::from_us(cfg.sim_us));
        let wall = start.elapsed().as_secs_f64();
        let events = sim.events_processed() - setup_events;
        let rate = events as f64 / wall;
        best = best.max(rate);
        runs.push(format!(
            "{{\"events\":{events},\"wall_ms\":{:.3},\"events_per_sec\":{:.0}}}",
            wall * 1e3,
            rate
        ));
        if !quiet {
            println!(
                "  run {run}: {events} events in {:.1} ms  ->  {:.2} Mevents/s",
                wall * 1e3,
                rate / 1e6
            );
        }
        if cfg.profile {
            last_profile = sim.kernel_profile().cloned();
        }
    }
    RunResult {
        best,
        runs,
        profile: last_profile,
        geometry,
    }
}

/// `VmHWM` of this process in MiB, or `None` where `/proc` is absent.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let mut json = false;
    let mut profile = false;
    let mut telemetry = false;
    let mut mesh: u8 = 4;
    let mut positional: Vec<u64> = Vec::new();
    let mut args = std::env::args().skip(1);
    fn usage() -> ! {
        eprintln!(
            "usage: sim_rate [simulated_us >= 1] [repeats >= 1] [--mesh N >= 4] \
             [--json] [--profile] [--telemetry]"
        );
        std::process::exit(2);
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--profile" => profile = true,
            "--telemetry" => telemetry = true,
            "--mesh" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => mesh = v,
                None => usage(),
            },
            _ => positional.push(a.parse().unwrap_or_else(|_| usage())),
        }
    }
    let sim_us = positional.first().copied().unwrap_or(50);
    let repeats = positional.get(1).copied().unwrap_or(5);
    // `mixed_mesh` needs two distinct connection rings; zero runs or a
    // zero-length window have no rate to report.
    if mesh < 4 || repeats == 0 || sim_us == 0 || positional.len() > 2 {
        usage();
    }

    let cfg = RunConfig {
        mesh,
        sim_us,
        repeats,
        profile,
        telemetry,
    };
    let result = measure(&cfg, json);
    let best = result.best;
    let per_event_ns = 1e9 / best;
    if let Some(p) = &result.profile {
        let total = p.samples().max(1);
        println!("kernel profile ({} dispatches):", p.samples());
        for (name, count) in p.kind_counts() {
            if count > 0 {
                println!(
                    "  {name:<16} {count:>10}  ({:5.1}%)",
                    count as f64 * 100.0 / total as f64
                );
            }
        }
        for (name, reserved, queued) in p.slot_counts() {
            println!(
                "  slot {name:<11} {reserved:>10} reserved {queued:>10} queued  ({:5.1}% elided)",
                (reserved - queued) as f64 * 100.0 / reserved.max(1) as f64
            );
        }
        println!(
            "  queue length     mean {:.1}  max {}",
            p.queue_len_mean(),
            p.queue_len_max()
        );
        println!(
            "  occupied buckets mean {:.1}  max {}",
            p.occupied_buckets_mean(),
            p.occupied_buckets_max()
        );
        println!("  wheel entries    high-water {}", p.wheel_entries_max());
    }
    if json {
        let rss = peak_rss_mb().map_or(String::new(), |mb| format!(",\"peak_rss_mb\":{mb:.2}"));
        println!(
            "{{\"scenario\":\"mixed_{mesh}x{mesh}\",\"mesh\":{mesh},\"sim_us\":{sim_us},\
             \"repeats\":{repeats},\"wheel_buckets\":{},\"wheel_width_ps\":{},\
             \"runs\":[{}],\"best_events_per_sec\":{:.0},\"best_mevents_per_sec\":{:.2},\
             \"per_event_ns\":{:.1}{rss}}}",
            result.geometry.num_buckets,
            result.geometry.width_ps(),
            result.runs.join(","),
            best,
            best / 1e6,
            per_event_ns,
        );
    } else {
        println!(
            "best: {:.2} Mevents/s  ({per_event_ns:.0} ns/event)",
            best / 1e6
        );
    }
}
