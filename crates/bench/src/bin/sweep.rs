//! Free-form parameter-sweep driver: declare a grid on the command line,
//! fan it out over worker threads, get a summary table plus CSV/JSON.
//!
//! ```text
//! cargo run --release -p mango_bench --bin sweep -- \
//!     --mesh 4x4,8x8 --gs 0,4 --be-gap idle,300,100 --period 12 \
//!     --measure 100 --seeds 1,2,3 --threads 4 --csv out.csv --json out.json
//! ```
//!
//! `--smoke` runs the fixed smoke grid (the CI determinism gate's
//! workload), `--full` the weekly characterization grid.
//! `--telemetry-out DIR` also collects every job's telemetry (metrics,
//! epoch time series, flit-journey Chrome trace) into DIR. Output is
//! byte-identical for every `--threads` value — see the `mango_sweep`
//! crate docs for the determinism contract.

use mango::net::{PatternKind, TopologySpec};
use mango_bench::written;
use mango_sweep::{
    run_sweep_graceful, write_csv, write_json, write_telemetry_dir, RuntimeInfo, SweepArgs,
    SweepSpec,
};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--smoke | --pattern-smoke | --full] [--mesh WxH[,WxH..]]\n\
         \x20            [--topology NAME[,..]] [--gs N[,N..]] [--be-gap idle|NS[,..]]\n\
         \x20            [--pattern NAME[,..]] [--period NS[,..]] [--measure US[,..]]\n\
         \x20            [--seeds S[,S..]] [--warmup US] [--payload WORDS]\n\
         \x20            [--threads N] [--list | [--csv PATH] [--json PATH]\n\
         \x20            [--telemetry-out DIR]]\n\
         patterns: uniform transpose bitcomp bitrev tornado hotspot neighbour\n\
         topologies: meshWxH torusWxH chipletCXxCYxNWxNH (e.g. chiplet2x2x4x4);\n\
         \x20           --mesh WxH is --topology meshWxH, and --topology wins over it"
    );
    std::process::exit(2);
}

fn parse_list<T>(value: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    value
        .split(',')
        .map(|part| {
            parse(part.trim()).unwrap_or_else(|| {
                eprintln!("error: bad {what} entry {part:?}");
                usage()
            })
        })
        .collect()
}

fn main() {
    let args = SweepArgs::from_env();
    // Grid choice is resolved before the dimension flags so the CLI is
    // order-independent: `--mesh 8x8 --pattern-smoke` and
    // `--pattern-smoke --mesh 8x8` both start from the pattern-smoke
    // grid and then apply the override.
    let pattern_smoke = args.rest.iter().any(|a| a == "--pattern-smoke");
    let mut spec = if args.smoke {
        SweepSpec::smoke()
    } else if pattern_smoke {
        SweepSpec::pattern_smoke()
    } else {
        SweepSpec::full()
    };
    let mut full = false;
    // `--topology` wins over `--mesh` whatever their order.
    let (mut meshes, mut topologies) = (None, None);
    let mut rest = args.rest.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--full" => full = true,
            "--pattern-smoke" => {} // consumed in the pre-scan above
            "--pattern" => {
                spec.patterns = parse_list(value(), "pattern", PatternKind::parse);
            }
            "--mesh" => {
                meshes = Some(parse_list(value(), "mesh", |s| {
                    let (w, h) = s.split_once('x')?;
                    Some(TopologySpec::mesh(w.parse().ok()?, h.parse().ok()?))
                }));
            }
            "--topology" => {
                topologies = Some(parse_list(value(), "topology", TopologySpec::parse));
            }
            "--gs" => spec.gs_conns = parse_list(value(), "GS count", |s| s.parse().ok()),
            "--be-gap" => {
                spec.be_gaps_ns = parse_list(value(), "BE gap", |s| match s {
                    "idle" | "none" => Some(None),
                    _ => s.parse().ok().map(Some),
                });
            }
            "--period" => {
                spec.gs_periods_ns = parse_list(value(), "GS period", |s| s.parse().ok());
            }
            "--measure" => {
                spec.measures_us = parse_list(value(), "measure window", |s| s.parse().ok());
            }
            "--seeds" => spec.seeds = parse_list(value(), "seed", |s| s.parse().ok()),
            "--warmup" => {
                spec.warmup_us = value().parse().unwrap_or_else(|_| usage());
            }
            "--payload" => {
                spec.payload_words = value().parse().unwrap_or_else(|_| usage());
            }
            _ => {
                eprintln!("error: unrecognized argument {flag:?}");
                usage();
            }
        }
    }
    if let Some(axis) = topologies.or(meshes) {
        spec.topologies = axis;
    }
    if [args.smoke, pattern_smoke, full]
        .iter()
        .filter(|&&f| f)
        .count()
        > 1
    {
        eprintln!("error: --smoke, --pattern-smoke and --full are mutually exclusive");
        usage();
    }
    if let Err(e) = spec.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    let grid_name = if args.smoke {
        "smoke"
    } else if pattern_smoke {
        "pattern-smoke"
    } else if full || args.rest.is_empty() {
        "full"
    } else {
        "custom"
    };
    if args.list {
        println!(
            "sweep: {} grid, {} jobs (listing, not running)",
            grid_name,
            spec.len()
        );
        for job in spec.expand() {
            println!("{job}");
        }
        return;
    }
    println!(
        "sweep: {} grid, {} jobs on {} threads\n",
        grid_name,
        spec.len(),
        args.threads
    );
    let start = Instant::now();
    // Graceful degradation: a panicking grid point is reported and
    // dropped; the rest of the grid still produces its records.
    let run = run_sweep_graceful(&spec, args.threads, args.telemetry_out.is_some());
    let records = run.records;
    let wall = start.elapsed().as_secs_f64();
    let runtime = RuntimeInfo {
        threads: args.threads,
        wall_seconds: wall,
        total_events: records.iter().map(|r| r.events).sum(),
    };

    print!("{}", mango_sweep::record::summary_table(&records));
    println!(
        "\n{} jobs, {} events in {:.2} s on {} threads  ->  {:.2} Mevents/s",
        records.len(),
        runtime.total_events,
        wall,
        runtime.threads,
        runtime.events_per_sec() / 1e6
    );

    if !run.failed.is_empty() {
        println!(
            "\n{} job(s) FAILED (dropped from the results):",
            run.failed.len()
        );
        for (_, job) in &run.failed {
            println!("  {job}");
        }
    }

    if let Some(path) = &args.csv {
        written(path, write_csv(path, &records));
        println!("wrote {}", path.display());
    }
    if let Some(path) = &args.json {
        written(path, write_json(path, &records, &runtime));
        println!("wrote {}", path.display());
    }
    if let Some(dir) = &args.telemetry_out {
        written(dir, write_telemetry_dir(dir, &run.telemetry));
        println!("wrote {}", dir.display());
    }
    if !run.failed.is_empty() {
        std::process::exit(1);
    }
}
