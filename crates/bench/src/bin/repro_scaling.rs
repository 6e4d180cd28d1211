//! Reproduces the **scaling remarks of Sec. 4.2/4.3** — router area as a
//! function of ports, VCs, flit width and buffer depth (the switching
//! module linear in V, the VC-control wire switch quadratic, motivating
//! the Clos-network suggestion for large V) — and extends them with a
//! **simulated mesh-scaling section**: the same mixed GS + uniform-BE
//! workload run on 4×4 through 32×32 meshes, the axis the paper's
//! "larger networks" discussion implies but never measures.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_scaling`
//! `[-- --threads N] [--smoke]`
//!
//! `--smoke` runs only the 16×16 simulation point (the `scaling` row of
//! `tests/goldens.rs`). Everything on stdout is deterministic —
//! independent of wall clock, thread count and event-wheel geometry —
//! and byte-diffed there; wall-clock rates go to stderr.
//!
//! The analytic grid is evaluated through the sweep runner — each design
//! point is an independent job, merged in grid order. (The area model is
//! closed-form, so that part is parallelism for uniformity with the
//! simulation sweeps, not for speed.)

use mango::hw::area::{AreaModel, RouterParams};
use mango::hw::power::PowerModel;
use mango::hw::Table;
use mango::net::{Phase, ScenarioSpec, TemporalSpec, TrafficSpec};
use mango::sim::SimDuration;
use mango_sweep::{auto_gs_pairs, run_parallel, SweepArgs};
use std::time::Instant;

/// One simulated mesh-scaling point: the mixed workload (two
/// center-crossing GS connections at 12 ns CBR plus uniform-random BE
/// background at 300 ns per node) on a `side × side` mesh, measured for
/// `measure_us` (larger meshes get shorter windows to bound runtime; the
/// per-node event density is size-independent, so rates stay comparable).
fn scaling_spec(side: u8, measure_us: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::mesh(side, side, 77)
        .warmup(SimDuration::from_us(2))
        .measure_for(SimDuration::from_us(measure_us));
    let grid = mango::net::Grid::new(side, side);
    for (i, (src, dst)) in auto_gs_pairs(&grid, 2).into_iter().enumerate() {
        spec = spec.gs_flow(mango::net::GsFlowSpec {
            src,
            dst,
            pattern: TemporalSpec::cbr(SimDuration::from_ns(12)),
            name: format!("gs-{i}"),
            window: Default::default(),
            phase: Phase::Measure,
        });
    }
    spec.traffic(
        TrafficSpec::uniform_poisson(SimDuration::from_ns(300))
            .payload(4)
            .named("bg-"),
    )
}

fn main() {
    let args = mango_bench::args_accepting(&["--smoke"]);
    if args.smoke {
        mesh_scaling_section(&args, &[(16, 20)]);
        return;
    }
    let model = AreaModel::cmos_120nm();
    let base = model.breakdown(&RouterParams::paper());

    println!("Router area scaling (paper design point = 1.00x)\n");
    let mut t = Table::new(vec![
        "configuration",
        "total [mm2]",
        "vs paper",
        "switching",
        "VC control",
        "buffers",
    ]);
    let grid: Vec<(&str, RouterParams)> = vec![
        ("paper: P=5 V=8 W=32 D=1", RouterParams::paper()),
        ("V=4 (fewer connections)", {
            let mut p = RouterParams::paper();
            p.gs_vcs = 4;
            p
        }),
        ("V=16", {
            let mut p = RouterParams::paper();
            p.gs_vcs = 16;
            p
        }),
        ("V=32 (Clos territory)", {
            let mut p = RouterParams::paper();
            p.gs_vcs = 32;
            p
        }),
        ("W=64", {
            let mut p = RouterParams::paper();
            p.flit_data_bits = 64;
            p
        }),
        ("D=4 (deeper buffers)", {
            let mut p = RouterParams::paper();
            p.buffer_depth = 4;
            p
        }),
    ];
    let rows = run_parallel(&grid, args.threads, |_, (name, p)| {
        let b = AreaModel::cmos_120nm().breakdown(p);
        vec![
            name.to_string(),
            format!("{:.3}", b.total_mm2()),
            format!("{:.2}x", b.total_um2() / base.total_um2()),
            format!("{:.3}", b.switching / 1e6),
            format!("{:.3}", b.vc_control / 1e6),
            format!("{:.3}", b.vc_buffers / 1e6),
        ]
    });
    for row in rows {
        t.add_row(row);
    }
    print!("{t}");

    // The Clos motivation: fraction of area spent on the unlock-wire
    // switch as V grows.
    println!("\nVC-control share of total area vs V (Sec. 4.3)\n");
    let mut t = Table::new(vec!["V", "VC control [mm2]", "share of total"]);
    let vs = [8usize, 16, 32, 64];
    let rows = run_parallel(&vs, args.threads, |_, &v| {
        let mut p = RouterParams::paper();
        p.gs_vcs = v;
        let b = AreaModel::cmos_120nm().breakdown(&p);
        vec![
            v.to_string(),
            format!("{:.3}", b.vc_control / 1e6),
            format!("{:.1}%", b.vc_control / b.total_um2() * 100.0),
        ]
    });
    for row in rows {
        t.add_row(row);
    }
    print!("{t}");

    // Idle power: the clockless argument of Sec. 1.
    let power = PowerModel::cmos_120nm();
    let area = base.total_mm2();
    println!("\nIdle power at the paper's router area ({area:.3} mm2):");
    println!(
        "  clockless (leakage only): {:.1} uW — \"zero dynamic power consumption when idle\"",
        power.idle_power_clockless_uw(area)
    );
    println!(
        "  equivalent clocked router (free-running clock tree): {:.0} uW",
        power.idle_power_clocked_uw(area)
    );
    println!(
        "  energy per flit-hop: {:.2} pJ",
        power.flit_hop_energy_pj(&RouterParams::paper())
    );

    // The mesh axis the ROADMAP scaling track asks for: 4×4 (the paper's
    // repro grid) through 32×32 (the smoke ceiling).
    mesh_scaling_section(&args, &[(4, 50), (8, 50), (16, 20), (32, 5)]);
}

/// Runs the simulated mesh-scaling points and prints the deterministic
/// results table (stdout) plus wall-clock rates (stderr).
fn mesh_scaling_section(args: &SweepArgs, points: &[(u8, u64)]) {
    println!(
        "\nMesh scaling (simulated): 2 crossing GS conns @ 12 ns + uniform BE @ 300 ns/node\n"
    );
    let results = run_parallel(points, args.threads, |_, &(side, measure_us)| {
        let start = Instant::now();
        let metrics = scaling_spec(side, measure_us).run();
        (metrics, start.elapsed().as_secs_f64())
    });
    let mut t = Table::new(vec![
        "mesh",
        "window [us]",
        "events",
        "GS [Mflit/s]",
        "GS mean [ns]",
        "GS max [ns]",
        "BE delivered",
        "BE mean [ns]",
    ]);
    for (&(side, measure_us), (m, wall)) in points.iter().zip(&results) {
        t.add_row(vec![
            format!("{side}x{side}"),
            measure_us.to_string(),
            m.events.to_string(),
            format!("{:.1}", m.gs_throughput_m()),
            format!("{:.1}", m.gs(0).mean_ns.expect("GS latency recorded")),
            format!("{:.1}", m.gs(0).max_ns.expect("GS latency recorded")),
            m.be_delivered().to_string(),
            format!("{:.1}", m.be_mean_of_means_ns()),
        ]);
        eprintln!(
            "[{side}x{side}: {} events in {:.2} s -> {:.2} Mevents/s]",
            m.events,
            wall,
            m.events as f64 / wall / 1e6
        );
    }
    print!("{t}");
}
