//! Churn sweep axes: declarative grids of connection-churn experiments
//! (arrival rate × holding time × offered GS load), expanded and run
//! under the same determinism contract as [`crate::grid::SweepSpec`].

use crate::record::CsvRecord;
use mango_hw::Table;
use mango_net::{ScenarioSpec, TrafficSpec};
use mango_qos::{ChurnMetrics, ChurnSpec, GuaranteeAudit, RejectReason};
use mango_sim::SimDuration;
use std::fmt;

/// A declarative churn-sweep grid. Every `Vec` field is one dimension;
/// expansion takes the cartesian product in field order (mesh outermost,
/// seed innermost), mirroring [`crate::grid::SweepSpec::expand`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnSweepSpec {
    /// Mesh geometries `(width, height)`.
    pub meshes: Vec<(u8, u8)>,
    /// Mean request inter-arrival gaps, ns (Poisson).
    pub arrival_gaps_ns: Vec<u64>,
    /// Mean connection holding times, µs (exponential).
    pub holdings_us: Vec<u64>,
    /// CBR stream periods, ns — the offered per-connection GS load.
    pub gs_periods_ns: Vec<u64>,
    /// Base seeds (simulation and engine streams both derive from it).
    pub seeds: Vec<u64>,
    /// Churn window length, µs.
    pub horizon_us: u64,
    /// Hard cap on requests per job.
    pub max_requests: u64,
    /// Per-node uniform-random BE Poisson background mean gap, ns
    /// (`None` = idle).
    pub be_gap_ns: Option<u64>,
}

impl Default for ChurnSweepSpec {
    fn default() -> Self {
        ChurnSweepSpec {
            meshes: vec![(4, 4)],
            arrival_gaps_ns: vec![2000],
            holdings_us: vec![20],
            gs_periods_ns: vec![15],
            seeds: vec![1],
            horizon_us: 200,
            max_requests: 10_000,
            be_gap_ns: None,
        }
    }
}

/// One expanded churn grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnJob {
    /// Ordinal in expansion order (the CSV row order).
    pub id: usize,
    /// Mesh width.
    pub width: u8,
    /// Mesh height.
    pub height: u8,
    /// Mean request inter-arrival gap, ns.
    pub arrival_gap_ns: u64,
    /// Mean holding time, µs.
    pub holding_us: u64,
    /// CBR stream period, ns.
    pub gs_period_ns: u64,
    /// Job seed.
    pub seed: u64,
}

impl fmt::Display for ChurnJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {}: {}x{} arrival={}ns holding={}us period={}ns seed={}",
            self.id,
            self.width,
            self.height,
            self.arrival_gap_ns,
            self.holding_us,
            self.gs_period_ns,
            self.seed
        )
    }
}

impl ChurnSweepSpec {
    /// The CI smoke grid: a relaxed point and a saturating point (the
    /// latter demonstrates admission rejections) on a 4×4 mesh.
    pub fn smoke() -> Self {
        ChurnSweepSpec {
            meshes: vec![(4, 4)],
            arrival_gaps_ns: vec![2000, 300],
            holdings_us: vec![20],
            gs_periods_ns: vec![15],
            seeds: vec![1],
            horizon_us: 120,
            max_requests: 80,
            be_gap_ns: None,
        }
    }

    /// The `repro_churn` characterization grid: an 8×8 mesh under BE
    /// background, sweeping arrival rate × holding time. The fast-
    /// arrival points issue well over 1000 open/close requests (the
    /// engine's bookkeeping is pre-sized, so scale costs no mid-run
    /// regrowth); the long-holding points exhaust link budgets and
    /// demonstrate rejections.
    pub fn repro() -> Self {
        ChurnSweepSpec {
            meshes: vec![(8, 8)],
            arrival_gaps_ns: vec![1000, 250],
            holdings_us: vec![10, 40],
            gs_periods_ns: vec![15],
            seeds: vec![1],
            horizon_us: 300,
            max_requests: 1500,
            be_gap_ns: Some(1000),
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.meshes.len()
            * self.arrival_gaps_ns.len()
            * self.holdings_us.len()
            * self.gs_periods_ns.len()
            * self.seeds.len()
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in fixed nesting order — mesh outermost, then
    /// arrival gap, holding, period, seed innermost. Job ids are
    /// ordinals of this order, which is also every writer's row order.
    pub fn expand(&self) -> Vec<ChurnJob> {
        let mut jobs = Vec::with_capacity(self.len());
        for &(width, height) in &self.meshes {
            for &arrival_gap_ns in &self.arrival_gaps_ns {
                for &holding_us in &self.holdings_us {
                    for &gs_period_ns in &self.gs_periods_ns {
                        for &seed in &self.seeds {
                            jobs.push(ChurnJob {
                                id: jobs.len(),
                                width,
                                height,
                                arrival_gap_ns,
                                holding_us,
                                gs_period_ns,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The [`ChurnSpec`] for one grid point.
    pub fn churn_spec(&self, job: &ChurnJob) -> ChurnSpec {
        let mut base = ScenarioSpec::mesh(job.width, job.height, job.seed)
            .measure_for(SimDuration::from_us(self.horizon_us));
        if let Some(gap) = self.be_gap_ns {
            base = base.traffic(
                TrafficSpec::uniform_poisson(SimDuration::from_ns(gap))
                    .payload(4)
                    .named("bg-"),
            );
        }
        let holding_mean = SimDuration::from_us(job.holding_us);
        ChurnSpec {
            base,
            arrival_gap: SimDuration::from_ns(job.arrival_gap_ns),
            holding_mean,
            // Floor at a quarter of the mean (≥ 3 µs so the stream
            // window stays meaningful around the 1 µs drain margin).
            holding_min: (holding_mean / 4).max(SimDuration::from_us(3)),
            gs_period: SimDuration::from_ns(job.gs_period_ns),
            drain_margin: SimDuration::from_us(1),
            max_requests: self.max_requests,
        }
    }

    /// Runs one grid point and measures it — the closure
    /// [`crate::runner::run_grid`] fans out.
    pub fn measure(&self, job: &ChurnJob) -> ChurnRecord {
        ChurnRecord::measure(job.clone(), &self.churn_spec(job).run())
    }
}

/// The measured result of one churn job — aggregates only, all
/// deterministic, so the CSV is byte-identical for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRecord {
    /// The grid point this record measures.
    pub job: ChurnJob,
    /// Kernel events processed.
    pub events: u64,
    /// Connection requests issued.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected (all reasons).
    pub rejected: u64,
    /// Rejections for want of a source TX interface.
    pub rej_no_tx: u64,
    /// Rejections for want of a destination RX interface.
    pub rej_no_rx: u64,
    /// Rejections for want of a capacious path.
    pub rej_no_path: u64,
    /// Teardowns completed inside the window.
    pub closed: u64,
    /// Admitted connections that took a non-XY (BFS) path.
    pub detoured: u64,
    /// Mean setup latency, ns.
    pub setup_mean_ns: f64,
    /// 99th-percentile setup latency, ns.
    pub setup_p99_ns: f64,
    /// Worst setup latency, ns.
    pub setup_max_ns: f64,
    /// Flits delivered by churn streams.
    pub churn_delivered: u64,
    /// Every stream's observed worst latency against its bound; the
    /// CSV's `bound_violations` and `worst_bound_ratio` read it.
    pub audit: GuaranteeAudit,
    /// Programming packets processed by all routers.
    pub prog_packets: u64,
    /// Median setup latency, ns.
    pub setup_p50_ns: f64,
    /// 95th-percentile setup latency, ns.
    pub setup_p95_ns: f64,
}

fn reason_count(m: &ChurnMetrics, reason: RejectReason) -> u64 {
    m.rejected_by[reason.index()]
}

impl ChurnRecord {
    /// Builds the record for `job` from its churn metrics.
    pub fn measure(job: ChurnJob, m: &ChurnMetrics) -> Self {
        ChurnRecord {
            events: m.scenario.events,
            requests: m.requests,
            admitted: m.admitted,
            rejected: m.rejected(),
            rej_no_tx: reason_count(m, RejectReason::NoTxIface),
            rej_no_rx: reason_count(m, RejectReason::NoRxIface),
            rej_no_path: reason_count(m, RejectReason::NoPath),
            closed: m.closed,
            detoured: m
                .conns
                .iter()
                .filter(|c| c.rejected.is_none() && !c.xy)
                .count() as u64,
            setup_mean_ns: m.setup_mean_ns(),
            setup_p99_ns: m.setup_quantile_ns(0.99),
            setup_max_ns: m.setup_max_ns(),
            churn_delivered: m.conns.iter().map(|c| c.delivered).sum(),
            audit: m.audit.clone(),
            prog_packets: m.prog_packets,
            setup_p50_ns: m.setup_quantile_ns(0.5),
            setup_p95_ns: m.setup_quantile_ns(0.95),
            job,
        }
    }
}

impl CsvRecord for ChurnRecord {
    fn csv_header() -> &'static str {
        "job_id,width,height,arrival_gap_ns,holding_us,gs_period_ns,seed,\
         events,requests,admitted,rejected,rej_no_tx,rej_no_rx,rej_no_path,\
         closed,detoured,setup_mean_ns,setup_p99_ns,setup_max_ns,\
         churn_delivered,bound_violations,worst_bound_ratio,prog_packets,\
         setup_p50_ns,setup_p95_ns"
    }

    fn csv_row(&self) -> String {
        let j = &self.job;
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            j.id,
            j.width,
            j.height,
            j.arrival_gap_ns,
            j.holding_us,
            j.gs_period_ns,
            j.seed,
            self.events,
            self.requests,
            self.admitted,
            self.rejected,
            self.rej_no_tx,
            self.rej_no_rx,
            self.rej_no_path,
            self.closed,
            self.detoured,
            self.setup_mean_ns,
            self.setup_p99_ns,
            self.setup_max_ns,
            self.churn_delivered,
            self.audit.violations(),
            self.audit.worst_bound_ratio(),
            self.prog_packets,
            self.setup_p50_ns,
            self.setup_p95_ns,
        )
    }
}

/// A human-readable summary table of churn records.
pub fn churn_summary_table(records: &[ChurnRecord]) -> Table {
    let mut t = Table::new(vec![
        "job",
        "mesh",
        "arr [ns]",
        "hold [us]",
        "req",
        "admit",
        "reject",
        "detour",
        "setup mean [ns]",
        "setup p99 [ns]",
        "viol",
        "worst obs/bound",
    ]);
    for r in records {
        let j = &r.job;
        t.add_row(vec![
            j.id.to_string(),
            format!("{}x{}", j.width, j.height),
            j.arrival_gap_ns.to_string(),
            j.holding_us.to_string(),
            r.requests.to_string(),
            r.admitted.to_string(),
            r.rejected.to_string(),
            r.detoured.to_string(),
            format!("{:.1}", r.setup_mean_ns),
            format!("{:.1}", r.setup_p99_ns),
            r.audit.violations().to_string(),
            format!("{:.3}", r.audit.worst_bound_ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_grid;

    fn run(spec: &ChurnSweepSpec, threads: usize) -> Vec<ChurnRecord> {
        run_grid(&spec.expand(), threads, |job| spec.measure(job))
    }

    #[test]
    fn expansion_is_cartesian_in_documented_order() {
        let spec = ChurnSweepSpec {
            meshes: vec![(4, 4), (8, 8)],
            arrival_gaps_ns: vec![1000, 300],
            holdings_us: vec![10, 40],
            seeds: vec![1, 2],
            ..Default::default()
        };
        assert_eq!(spec.len(), 2 * 2 * 2 * 2);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 16);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
        // Seed innermost, mesh outermost.
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[1].seed, 2);
        assert_eq!(jobs[8].width, 8);
    }

    #[test]
    fn empty_dimension_empties_grid() {
        let spec = ChurnSweepSpec {
            holdings_us: Vec::new(),
            ..Default::default()
        };
        assert!(spec.is_empty());
        assert_eq!(spec.expand(), Vec::new());
    }

    #[test]
    fn csv_row_matches_header_arity() {
        // A single tiny job, run for real.
        let spec = ChurnSweepSpec {
            horizon_us: 60,
            max_requests: 12,
            arrival_gaps_ns: vec![3000],
            holdings_us: vec![12],
            ..Default::default()
        };
        let records = run(&spec, 1);
        assert_eq!(records.len(), 1);
        let header_cols = ChurnRecord::csv_header().split(',').count();
        assert_eq!(records[0].csv_row().split(',').count(), header_cols);
        assert_eq!(header_cols, 25);
        assert!(records[0].requests > 0);
        assert_eq!(records[0].audit.violations(), 0);
    }

    #[test]
    fn churn_csv_is_thread_count_independent() {
        let spec = ChurnSweepSpec {
            horizon_us: 60,
            max_requests: 15,
            arrival_gaps_ns: vec![2000, 800],
            holdings_us: vec![10],
            ..Default::default()
        };
        let a = run(&spec, 1);
        let b = run(&spec, 4);
        assert_eq!(a, b, "churn records must not depend on worker count");
        let rows_a: Vec<String> = a.iter().map(ChurnRecord::csv_row).collect();
        let rows_b: Vec<String> = b.iter().map(ChurnRecord::csv_row).collect();
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn job_display_lists_parameters() {
        let jobs = ChurnSweepSpec::smoke().expand();
        let line = jobs[0].to_string();
        assert!(line.contains("job 0"));
        assert!(line.contains("4x4"));
        assert!(line.contains("seed=1"));
    }
}
