//! Robustness experiment: **deterministic fault injection and
//! self-healing GS connections** — what happens to the paper's hard
//! guarantees when the fabric itself breaks. An 8×8 mesh carries
//! watchdogged GS connections over BE background; mid-measurement the
//! fault schedule kills the middle link of the tagged GS route. The
//! recovery engine detects the break, tears the victim down (in-band
//! where routable, force-close with quarantine where not), re-admits it
//! over surviving links with capped exponential backoff, and
//! re-validates the stream against the recomputed degraded-path bound.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_faults`
//! `[-- --threads N] [--smoke] [--list] [--csv PATH] [--telemetry-out DIR]`
//!
//! `--telemetry-out DIR` runs the targeted experiment with the telemetry
//! sink active and writes its metrics, epoch time series and Chrome
//! trace into DIR. Per-flit journey tracing is left off here — the
//! interesting track is the *connection recovery* one, where each
//! managed connection's detect → teardown → re-admit → reopen lifecycle
//! appears as instants plus one closing `recover` span (load
//! `trace.json` at <https://ui.perfetto.dev>).
//!
//! Everything on stdout is deterministic and byte-diffed in CI against
//! `tests/golden/repro_faults_smoke.txt` at 1 and 4 worker threads;
//! wall-clock rates go to stderr. The degraded guarantee contract —
//! every healed connection's observed worst case stays under its
//! recomputed bound — is read from each run's audit: a violation prints
//! its witness and exits 1.

use mango::core::{Direction, RouterId};
use mango::hw::Table;
use mango::net::TelemetryConfig;
use mango::net::{FaultKind, FaultSchedule, MeasureBound, PatternKind, TemporalSpec, TrafficSpec};
use mango::qos::driver::{max_ns, mean_ns, quantile_ns};
use mango::qos::{PathExtras, RecoveryOutcome, RecoverySpec, ServiceModel};
use mango::sim::{SimDuration, SimTime};
use mango_bench::{guarantees_held, written};
use mango_sweep::{
    fault_summary_table, run_grid, write_csv, write_telemetry_dir, FaultSweepSpec, SweepArgs,
};
use std::time::Instant;

const SIDE: u8 = 8;
const GS_PERIOD_NS: u64 = 15;

/// The targeted single-fault experiment: managed GS connections along
/// the mesh rows, BE background, and a fail-stop fault on the middle
/// link of the tagged (row 0) connection's XY path.
fn targeted_spec(smoke: bool) -> RecoverySpec {
    let window_us = if smoke { 60 } else { 120 };
    let mut spec = RecoverySpec::mesh(SIDE, SIDE, 11);
    spec.base.measure = MeasureBound::For(SimDuration::from_us(window_us));
    spec.base = spec.base.traffic(
        TrafficSpec::new(
            PatternKind::Uniform.spatial(SIDE, SIDE),
            TemporalSpec::poisson(SimDuration::from_ns(1000)),
        )
        .payload(4)
        .named("bg-"),
    );
    // Row-parallel managed connections; row 0 is the tagged victim.
    spec.managed = (0..4)
        .map(|row| (RouterId::new(0, row), RouterId::new(SIDE - 1, row)))
        .collect();
    spec.gs_period = SimDuration::from_ns(GS_PERIOD_NS);
    // Kill the middle link of the tagged route's 7-hop east run,
    // (3,0) -> (4,0), a sixth of the way into the window.
    spec.faults = FaultSchedule::new(11 ^ 0xFA_17).with(
        SimTime::ZERO + SimDuration::from_us(window_us / 6),
        FaultKind::LinkDown {
            from: RouterId::new(3, 0),
            dir: Direction::East,
        },
    );
    spec
}

fn main() {
    let args = SweepArgs::from_env_no_extra().refuse(&["--json"]);
    let spec = targeted_spec(args.smoke);
    let grid = if args.smoke {
        FaultSweepSpec::smoke()
    } else {
        FaultSweepSpec::repro()
    };
    let grid_name = if args.smoke { "smoke" } else { "repro" };

    if args.list {
        println!(
            "fault sweep: targeted 1-fault run + {} grid, {} jobs (listing, not running)",
            grid_name,
            grid.len()
        );
        for job in grid.expand() {
            println!("{job}");
        }
        return;
    }

    println!(
        "self-healing GS connections under fault injection: {SIDE}x{SIDE} mesh,\n\
         {} managed row connections at {GS_PERIOD_NS} ns CBR over BE background,\n\
         fail-stop fault on the tagged route's middle link (3,0) -> east\n",
        spec.managed.len()
    );

    let start = Instant::now();
    let m = if let Some(dir) = &args.telemetry_out {
        let cfg = TelemetryConfig {
            trace_flits: false, // recovery lifecycle is the track of interest
            ..Default::default()
        };
        let (m, report) = spec.run_with_telemetry(cfg);
        written(dir, write_telemetry_dir(dir, &[report]));
        m
    } else {
        spec.run()
    };
    let targeted_wall = start.elapsed();

    // Per-connection recovery census.
    let mut t = Table::new(vec![
        "conn",
        "route",
        "hops pre->post",
        "outcome",
        "detect [us]",
        "recover [ns]",
        "tries",
        "lost",
        "bound pre->post [ns]",
        "gbw pre->post [Mf/s]",
        "obs/bound",
    ]);
    let paper = ServiceModel::paper();
    let model = |hops| {
        paper.report(
            &PathExtras::uniform(hops),
            SimDuration::from_ns(GS_PERIOD_NS),
        )
    };
    for r in &m.records {
        let outcome = r.outcome.map_or("healthy", RecoveryOutcome::name);
        let healed = r.recovered_at.is_some();
        let pre = model(r.old_hops);
        let post = model(if healed { r.new_hops } else { r.old_hops });
        t.add_row(vec![
            r.idx.to_string(),
            format!("({},{})->({},{})", r.src.x, r.src.y, r.dst.x, r.dst.y),
            if healed {
                format!("{}->{}", r.old_hops, r.new_hops)
            } else {
                r.old_hops.to_string()
            },
            outcome.into(),
            r.detected_at
                .map_or("-".into(), |at| format!("{:.2}", at.as_us_f64())),
            r.recovery_latency
                .map_or("-".into(), |d| format!("{:.1}", d.as_ns_f64())),
            r.attempts.to_string(),
            r.flits_lost.to_string(),
            if healed {
                format!(
                    "{}->{}",
                    r.pre_bound_ns.map_or("-".into(), |b| format!("{b:.1}")),
                    r.post_bound_ns.map_or("-".into(), |b| format!("{b:.1}")),
                )
            } else {
                r.pre_bound_ns.map_or("-".into(), |b| format!("{b:.1}"))
            },
            if healed {
                format!("{:.2}->{:.2}", pre.guaranteed_mfps, post.guaranteed_mfps)
            } else {
                format!("{:.2}", pre.guaranteed_mfps)
            },
            m.post_audit(r)
                .and_then(|e| e.ratio())
                .map_or("-".into(), |ratio| format!("{ratio:.3}")),
        ]);
    }
    print!("{t}");

    // Recovery-latency distribution over the healed connections.
    let healed = m.recovery_latencies().count();
    if healed > 0 {
        println!(
            "\nrecovery latency over {} healed break(s): min {:.1} ns, mean {:.1} ns, max {:.1} ns",
            healed,
            quantile_ns(m.recovery_latencies(), 0.0),
            mean_ns(m.recovery_latencies()),
            max_ns(m.recovery_latencies())
        );
    }
    println!(
        "fault path: {} GS flits blackholed, {} unlocks spoofed, {} flits lost end-to-end",
        m.fault_counters.gs_flits_dropped,
        m.fault_counters.spoofed_unlocks,
        m.records.iter().map(|r| r.flits_lost).sum::<u64>(),
    );

    // The robustness contract for the targeted run.
    assert_eq!(m.broken, 1, "exactly the tagged connection breaks");
    let victim = &m.records[0];
    assert!(
        matches!(
            victim.outcome,
            Some(RecoveryOutcome::Recovered | RecoveryOutcome::ReroutedLongerPath)
        ),
        "the victim must heal on an 8x8 mesh: {victim:?}"
    );
    assert!(victim.flits_lost > 0, "in-flight flits cross the dead link");
    guarantees_held([("targeted run".to_string(), &m.audit)]);
    for r in m.records.iter().skip(1) {
        assert!(r.outcome.is_none(), "bystander connection {} broke", r.idx);
    }

    // The fault-rate × load census grid on top. Worker count stays off
    // stdout: the output is golden-diffed across --threads values.
    println!("\nfault census: {} grid, {} jobs\n", grid_name, grid.len());
    let start = Instant::now();
    let records = run_grid(&grid.expand(), args.threads, |job| grid.measure(job));
    let grid_wall = start.elapsed();
    print!("{}", fault_summary_table(&records));

    let mut broken = 0;
    for r in &records {
        // `broken` counts break *events*; a connection can break again
        // after healing onto a path a later fault kills, so the
        // per-connection outcome census is bounded by the event count.
        let outcomes = r.recovered + r.rerouted + r.rejected + r.degraded;
        assert!(
            outcomes <= r.broken && (r.broken == 0 || outcomes > 0),
            "job {}: break events and outcomes disagree ({} events, {} outcomes)",
            r.job.id,
            r.broken,
            outcomes
        );
        broken += r.broken;
    }
    let audits = records
        .iter()
        .map(|r| (format!("job {}", r.job.id), &r.audit));
    guarantees_held(audits);
    assert!(broken > 0, "no grid point demonstrated a fault");
    println!(
        "\nguarantees held: {} breaks across the grid, 0 post-recovery bound violations",
        broken
    );

    if let Some(path) = &args.csv {
        written(path, write_csv(path, &records));
        println!("wrote {}", path.display());
    }
    eprintln!(
        "[targeted run {:.1} ms; census grid {} jobs on {} threads in {:.1} ms]",
        targeted_wall.as_secs_f64() * 1e3,
        grid.len(),
        args.threads,
        grid_wall.as_secs_f64() * 1e3
    );
}
