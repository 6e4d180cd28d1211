//! Resilience sweep axes: declarative grids of fault-injection +
//! recovery experiments (fault count × BE pattern × BE load), expanded
//! and run under the same determinism contract as
//! [`crate::grid::SweepSpec`].
//!
//! Each grid point layers a seeded [`FaultSchedule`] of random link
//! faults over a managed-GS [`RecoverySpec`]: the engine detects the
//! breaks with watchdogs, tears the victims down, re-admits them over
//! surviving links with capped exponential backoff, and re-validates
//! the recomputed degraded-path bound. The [`FaultRecord`] CSV captures
//! the recovery-outcome census per point.

use crate::grid::auto_gs_pairs;
use crate::record::CsvRecord;
use mango_hw::Table;
use mango_net::{FaultSchedule, Grid, MeasureBound, PatternKind, TemporalSpec, TrafficSpec};
use mango_qos::driver::{max_ns, mean_ns, quantile_ns};
use mango_qos::{GuaranteeAudit, RecoveryMetrics, RecoverySpec};
use mango_sim::{SimDuration, SimTime};
use std::fmt;

/// A declarative fault-recovery sweep grid. Every `Vec` field is one
/// dimension; expansion takes the cartesian product in field order
/// (mesh outermost, seed innermost), mirroring
/// [`crate::grid::SweepSpec::expand`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSweepSpec {
    /// Mesh geometries `(width, height)`.
    pub meshes: Vec<(u8, u8)>,
    /// Numbers of random link faults injected per run (the fault-rate
    /// axis; `0` is the healthy control point).
    pub fault_counts: Vec<usize>,
    /// Managed (watchdogged) GS connection counts.
    pub gs_conns: Vec<u32>,
    /// Per-node BE Poisson mean gaps, ns (`None` = idle) — the
    /// background-load axis.
    pub be_gaps_ns: Vec<Option<u64>>,
    /// Spatial patterns of the BE background.
    pub patterns: Vec<PatternKind>,
    /// Base seeds (simulation, fault and backoff streams all derive
    /// from the job seed).
    pub seeds: Vec<u64>,
    /// Measurement window length, µs. Faults land in the first half of
    /// the window so recoveries have room to settle.
    pub horizon_us: u64,
    /// CBR emission period of every managed stream, ns.
    pub gs_period_ns: u64,
}

impl Default for FaultSweepSpec {
    fn default() -> Self {
        FaultSweepSpec {
            meshes: vec![(4, 4)],
            fault_counts: vec![0, 2],
            gs_conns: vec![2],
            be_gaps_ns: vec![None],
            patterns: vec![PatternKind::Uniform],
            seeds: vec![1],
            horizon_us: 80,
            gs_period_ns: 15,
        }
    }
}

/// One expanded fault grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultJob {
    /// Ordinal in expansion order (the CSV row order).
    pub id: usize,
    /// Mesh width.
    pub width: u8,
    /// Mesh height.
    pub height: u8,
    /// Random link faults injected.
    pub faults: usize,
    /// Managed GS connections.
    pub gs_conns: u32,
    /// BE background mean gap, ns (`None` = idle).
    pub be_gap_ns: Option<u64>,
    /// BE spatial pattern.
    pub pattern: PatternKind,
    /// Job seed.
    pub seed: u64,
}

impl fmt::Display for FaultJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {}: {}x{} faults={} gs={} be_gap={} pattern={} seed={}",
            self.id,
            self.width,
            self.height,
            self.faults,
            self.gs_conns,
            self.be_gap_ns
                .map_or(String::from("idle"), |g| format!("{g}ns")),
            self.pattern,
            self.seed
        )
    }
}

impl FaultSweepSpec {
    /// The CI smoke grid: a healthy control point and a faulted point
    /// on a 4×4 mesh, idle background. The faulted point injects enough
    /// random link faults to break managed routes with certainty for
    /// the committed seed.
    pub fn smoke() -> Self {
        FaultSweepSpec {
            fault_counts: vec![0, 6],
            gs_conns: vec![4],
            horizon_us: 60,
            ..Default::default()
        }
    }

    /// The `repro_faults` characterization grid: an 8×8 mesh under BE
    /// background, sweeping fault count × load.
    pub fn repro() -> Self {
        FaultSweepSpec {
            meshes: vec![(8, 8)],
            fault_counts: vec![0, 2, 6],
            gs_conns: vec![6],
            be_gaps_ns: vec![None, Some(1000)],
            patterns: vec![PatternKind::Uniform],
            seeds: vec![1],
            horizon_us: 120,
            gs_period_ns: 15,
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.meshes.len()
            * self.fault_counts.len()
            * self.gs_conns.len()
            * self.be_gaps_ns.len()
            * self.patterns.len()
            * self.seeds.len()
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in fixed nesting order — mesh outermost, then
    /// fault count, GS connections, BE gap, pattern, seed innermost.
    /// Job ids are ordinals of this order, which is also every writer's
    /// row order.
    pub fn expand(&self) -> Vec<FaultJob> {
        let mut jobs = Vec::with_capacity(self.len());
        for &(width, height) in &self.meshes {
            for &faults in &self.fault_counts {
                for &gs_conns in &self.gs_conns {
                    for &be_gap_ns in &self.be_gaps_ns {
                        for &pattern in &self.patterns {
                            for &seed in &self.seeds {
                                jobs.push(FaultJob {
                                    id: jobs.len(),
                                    width,
                                    height,
                                    faults,
                                    gs_conns,
                                    be_gap_ns,
                                    pattern,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The [`RecoverySpec`] for one grid point. Fault times are drawn
    /// uniformly from the first `[12.5 %, 50 %)` of the measurement
    /// window (offsets from measurement start, per the recovery-engine
    /// contract), leaving the second half for recoveries to settle.
    pub fn recovery_spec(&self, job: &FaultJob) -> RecoverySpec {
        let horizon = SimDuration::from_us(self.horizon_us);
        let mut spec = RecoverySpec::mesh(job.width, job.height, job.seed);
        spec.base.measure = MeasureBound::For(horizon);
        if let Some(gap) = job.be_gap_ns {
            spec.base = spec.base.traffic(
                TrafficSpec::new(
                    job.pattern.spatial(job.width, job.height),
                    TemporalSpec::poisson(SimDuration::from_ns(gap)),
                )
                .payload(4)
                .named("bg-"),
            );
        }
        let grid = Grid::new(job.width, job.height);
        spec.managed = auto_gs_pairs(&grid, job.gs_conns);
        spec.gs_period = SimDuration::from_ns(self.gs_period_ns);
        spec.faults = FaultSchedule::random_links(
            &grid,
            job.seed,
            job.faults,
            SimTime::ZERO + horizon / 8,
            SimTime::ZERO + horizon / 2,
        );
        spec
    }

    /// Runs one grid point and measures it — the closure
    /// [`crate::runner::run_grid`] fans out.
    pub fn measure(&self, job: &FaultJob) -> FaultRecord {
        FaultRecord::measure(job.clone(), &self.recovery_spec(job).run())
    }
}

/// The measured result of one fault-recovery job — aggregates only, all
/// deterministic, so the CSV is byte-identical for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// The grid point this record measures.
    pub job: FaultJob,
    /// Kernel events processed.
    pub events: u64,
    /// Managed connections broken by faults.
    pub broken: u64,
    /// Breaks healed on a path of the original length.
    pub recovered: u64,
    /// Breaks healed only over a longer path.
    pub rerouted: u64,
    /// Breaks admission refused on every retry.
    pub rejected: u64,
    /// Breaks unresolved when the window closed.
    pub degraded: u64,
    /// Teardowns that needed a force-close.
    pub forced_closes: u64,
    /// VC/RX resources quarantined by force-closes at window end.
    pub quarantined: u64,
    /// Flits lost across all broken connections.
    pub flits_lost: u64,
    /// Mean detect→recover latency over healed breaks, ns.
    pub recovery_mean_ns: f64,
    /// Worst detect→recover latency, ns.
    pub recovery_max_ns: f64,
    /// Every recovered stream against its recomputed bound; the CSV's
    /// `bound_violations` reads it.
    pub audit: GuaranteeAudit,
    /// GS flits blackholed at faulted elements.
    pub gs_dropped: u64,
    /// BE flits blackholed at faulted elements.
    pub be_dropped: u64,
    /// GS unlock toggles synthesized for dropped flits.
    pub spoofed_unlocks: u64,
    /// Median detect→recover latency: the nearest-rank sample, in whole
    /// ns (truncated).
    pub recovery_p50_ns: u64,
    /// 95th-percentile detect→recover latency, as `recovery_p50_ns`.
    pub recovery_p95_ns: u64,
    /// 99th-percentile detect→recover latency, as `recovery_p50_ns`.
    pub recovery_p99_ns: u64,
}

impl FaultRecord {
    /// Builds the record for `job` from its recovery metrics.
    pub fn measure(job: FaultJob, m: &RecoveryMetrics) -> Self {
        let quantile = |q| quantile_ns(m.recovery_latencies(), q) as u64;
        FaultRecord {
            events: m.scenario.events,
            broken: m.broken,
            recovered: m.recovered,
            rerouted: m.rerouted,
            rejected: m.rejected,
            degraded: m.degraded,
            forced_closes: m.forced_closes,
            quarantined: m.quarantined as u64,
            flits_lost: m.records.iter().map(|r| r.flits_lost).sum(),
            recovery_mean_ns: mean_ns(m.recovery_latencies()),
            recovery_max_ns: max_ns(m.recovery_latencies()),
            audit: m.audit.clone(),
            gs_dropped: m.fault_counters.gs_flits_dropped,
            be_dropped: m.fault_counters.be_flits_dropped,
            spoofed_unlocks: m.fault_counters.spoofed_unlocks,
            recovery_p50_ns: quantile(0.5),
            recovery_p95_ns: quantile(0.95),
            recovery_p99_ns: quantile(0.99),
            job,
        }
    }
}

impl CsvRecord for FaultRecord {
    fn csv_header() -> &'static str {
        "job_id,width,height,faults,gs_conns,be_gap_ns,pattern,seed,\
         events,broken,recovered,rerouted,rejected,degraded,forced_closes,\
         quarantined,flits_lost,recovery_mean_ns,recovery_max_ns,\
         bound_violations,gs_dropped,be_dropped,spoofed_unlocks,\
         recovery_p50_ns,recovery_p95_ns,recovery_p99_ns"
    }

    fn csv_row(&self) -> String {
        let j = &self.job;
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            j.id,
            j.width,
            j.height,
            j.faults,
            j.gs_conns,
            j.be_gap_ns.map_or(String::from(""), |g| g.to_string()),
            j.pattern,
            j.seed,
            self.events,
            self.broken,
            self.recovered,
            self.rerouted,
            self.rejected,
            self.degraded,
            self.forced_closes,
            self.quarantined,
            self.flits_lost,
            self.recovery_mean_ns,
            self.recovery_max_ns,
            self.audit.violations(),
            self.gs_dropped,
            self.be_dropped,
            self.spoofed_unlocks,
            self.recovery_p50_ns,
            self.recovery_p95_ns,
            self.recovery_p99_ns,
        )
    }
}

/// A human-readable summary table of fault records.
pub fn fault_summary_table(records: &[FaultRecord]) -> Table {
    let mut t = Table::new(vec![
        "job",
        "mesh",
        "faults",
        "GS",
        "BE gap [ns]",
        "broken",
        "healed",
        "reject",
        "degraded",
        "forced",
        "lost",
        "recov mean [ns]",
        "viol",
    ]);
    for r in records {
        let j = &r.job;
        t.add_row(vec![
            j.id.to_string(),
            format!("{}x{}", j.width, j.height),
            j.faults.to_string(),
            j.gs_conns.to_string(),
            j.be_gap_ns.map_or("idle".into(), |g| g.to_string()),
            r.broken.to_string(),
            (r.recovered + r.rerouted).to_string(),
            r.rejected.to_string(),
            r.degraded.to_string(),
            r.forced_closes.to_string(),
            r.flits_lost.to_string(),
            format!("{:.1}", r.recovery_mean_ns),
            r.audit.violations().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_grid;

    fn run(spec: &FaultSweepSpec, threads: usize) -> Vec<FaultRecord> {
        run_grid(&spec.expand(), threads, |job| spec.measure(job))
    }

    #[test]
    fn expansion_is_cartesian_in_documented_order() {
        let spec = FaultSweepSpec {
            meshes: vec![(4, 4), (8, 8)],
            fault_counts: vec![0, 3],
            seeds: vec![1, 2],
            ..Default::default()
        };
        assert_eq!(spec.len(), 2 * 2 * 2);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 8);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
        // Seed innermost, mesh outermost.
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[1].seed, 2);
        assert_eq!(jobs[4].width, 8);
        assert_eq!(jobs[2].faults, 3);
    }

    #[test]
    fn healthy_control_point_reports_no_breaks() {
        let spec = FaultSweepSpec {
            fault_counts: vec![0],
            horizon_us: 40,
            ..Default::default()
        };
        let records = run(&spec, 1);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.broken, 0);
        assert_eq!(r.flits_lost, 0);
        assert_eq!(r.audit.violations(), 0);
        let header_cols = FaultRecord::csv_header().split(',').count();
        assert_eq!(r.csv_row().split(',').count(), header_cols);
        assert_eq!(header_cols, 26);
    }

    #[test]
    fn faulted_points_account_for_every_break() {
        let spec = FaultSweepSpec {
            fault_counts: vec![3],
            horizon_us: 80,
            ..Default::default()
        };
        let r = &run(&spec, 1)[0];
        // `broken` counts break *events*; a connection can break again
        // after healing, so the per-connection outcome census is
        // bounded by (not equal to) the event count.
        let outcomes = r.recovered + r.rerouted + r.rejected + r.degraded;
        assert!(
            outcomes <= r.broken,
            "more outcomes than break events: {r:?}"
        );
        assert!(
            r.broken == 0 || outcomes > 0,
            "breaks with no recorded outcome: {r:?}"
        );
        assert_eq!(r.audit.violations(), 0, "degraded guarantees must hold");
    }

    /// Each recovery quantile is a recorded latency: the nearest-rank
    /// sample, in whole ns.
    #[test]
    fn recovery_quantiles_are_nearest_rank_samples() {
        let spec = FaultSweepSpec::smoke();
        let job = spec.expand().into_iter().find(|j| j.faults > 0).unwrap();
        let m = spec.recovery_spec(&job).run();
        let mut ps: Vec<u64> = m.recovery_latencies().map(|d| d.as_ps()).collect();
        ps.sort_unstable();
        assert!(ps.len() > 1, "the faulted smoke point heals breaks");
        let r = FaultRecord::measure(job, &m);
        for (permille, got) in [
            (500, r.recovery_p50_ns),
            (950, r.recovery_p95_ns),
            (990, r.recovery_p99_ns),
        ] {
            let rank = (ps.len() * permille).div_ceil(1000);
            assert_eq!(got, ps[rank - 1] / 1000, "quantile {permille}‰ of {ps:?}");
        }
    }

    #[test]
    fn fault_csv_is_thread_count_independent() {
        let spec = FaultSweepSpec {
            fault_counts: vec![0, 2],
            seeds: vec![1, 2],
            horizon_us: 50,
            ..Default::default()
        };
        let a = run(&spec, 1);
        let b = run(&spec, 4);
        assert_eq!(a, b, "fault records must not depend on worker count");
        let rows_a: Vec<String> = a.iter().map(FaultRecord::csv_row).collect();
        let rows_b: Vec<String> = b.iter().map(FaultRecord::csv_row).collect();
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn job_display_lists_parameters() {
        let jobs = FaultSweepSpec::smoke().expand();
        let line = jobs[1].to_string();
        assert!(line.contains("job 1"));
        assert!(line.contains("4x4"));
        assert!(line.contains("faults=6"));
    }
}
