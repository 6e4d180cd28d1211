//! Serving sweep axes: declarative grids of application-serving
//! experiments (topology × task graph × arrival rate × placer),
//! producing the admitted-vs-rejected capacity curves of ROADMAP
//! item 4, under the same determinism contract as
//! [`crate::grid::SweepSpec`].

use crate::record::CsvRecord;
use mango_apps::ServingMetrics;
use mango_apps::{graph, PlacerKind, ServingSpec, TaskGraph};
use mango_hw::Table;
use mango_net::{ScenarioSpec, TopologySpec, TrafficSpec};
use mango_qos::{GuaranteeAudit, RejectReason};
use mango_sim::SimDuration;
use std::fmt;

/// A declarative serving-sweep grid. Every `Vec` field is one
/// dimension; expansion takes the cartesian product in field order
/// (topology outermost, seed innermost).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSweepSpec {
    /// Topologies (meshes, tori, chiplet meshes).
    pub topologies: Vec<TopologySpec>,
    /// Task-graph names, resolved via [`mango_apps::graph::by_name`].
    pub graphs: Vec<String>,
    /// Mean instance inter-arrival gaps, ns (Poisson) — the offered-
    /// load axis of the capacity curve.
    pub arrival_gaps_ns: Vec<u64>,
    /// Placement strategies.
    pub placers: Vec<PlacerKind>,
    /// Base seeds.
    pub seeds: Vec<u64>,
    /// Mean instance lifetime, µs (exponential).
    pub holding_us: u64,
    /// Serving window length, µs.
    pub horizon_us: u64,
    /// Hard cap on offered instances per job.
    pub max_apps: u64,
    /// Per-node uniform-random BE Poisson background mean gap, ns
    /// (`None` = idle).
    pub be_gap_ns: Option<u64>,
}

impl Default for ServingSweepSpec {
    fn default() -> Self {
        ServingSweepSpec {
            topologies: vec![TopologySpec::mesh(4, 4)],
            graphs: vec!["pipeline4".into()],
            arrival_gaps_ns: vec![4000],
            placers: vec![PlacerKind::Greedy],
            seeds: vec![1],
            holding_us: 30,
            horizon_us: 200,
            max_apps: 10_000,
            be_gap_ns: None,
        }
    }
}

/// One expanded serving grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingJob {
    /// Ordinal in expansion order (the CSV row order).
    pub id: usize,
    /// Topology of the point.
    pub topology: TopologySpec,
    /// Task-graph name.
    pub graph: String,
    /// Mean instance inter-arrival gap, ns.
    pub arrival_gap_ns: u64,
    /// Placement strategy.
    pub placer: PlacerKind,
    /// Job seed.
    pub seed: u64,
}

impl fmt::Display for ServingJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {}: {} graph={} arrival={}ns placer={} seed={}",
            self.id,
            self.topology.name(),
            self.graph,
            self.arrival_gap_ns,
            self.placer,
            self.seed
        )
    }
}

impl ServingSweepSpec {
    /// The CI smoke grid: a relaxed and a saturating arrival rate for
    /// both placers on a small mesh and a seamed chiplet topology.
    pub fn smoke() -> Self {
        ServingSweepSpec {
            topologies: vec![TopologySpec::mesh(4, 4), TopologySpec::chiplet(2, 1, 2, 2)],
            graphs: vec!["pipeline4".into()],
            arrival_gaps_ns: vec![4000, 800],
            placers: vec![PlacerKind::Greedy, PlacerKind::Anneal { iters: 24 }],
            seeds: vec![1],
            holding_us: 20,
            horizon_us: 100,
            max_apps: 60,
            be_gap_ns: None,
        }
    }

    /// The `repro_serving` capacity grid: VOPD instances on an 8×8
    /// mesh and a 2×2-chip chiplet mesh (seam D2D bounds in play),
    /// arrival gaps spanning relaxed to far past saturation — the
    /// fast points offer thousands of instances — for both placers.
    pub fn repro() -> Self {
        ServingSweepSpec {
            topologies: vec![TopologySpec::mesh(8, 8), TopologySpec::chiplet(2, 2, 4, 4)],
            graphs: vec!["vopd".into()],
            arrival_gaps_ns: vec![2000, 500, 150],
            placers: vec![PlacerKind::Greedy, PlacerKind::Anneal { iters: 32 }],
            seeds: vec![1],
            holding_us: 40,
            horizon_us: 300,
            max_apps: 3000,
            be_gap_ns: Some(2000),
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.topologies.len()
            * self.graphs.len()
            * self.arrival_gaps_ns.len()
            * self.placers.len()
            * self.seeds.len()
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in fixed nesting order — topology outermost,
    /// then graph, arrival gap, placer, seed innermost.
    pub fn expand(&self) -> Vec<ServingJob> {
        let mut jobs = Vec::with_capacity(self.len());
        for &topology in &self.topologies {
            for graph in &self.graphs {
                for &arrival_gap_ns in &self.arrival_gaps_ns {
                    for &placer in &self.placers {
                        for &seed in &self.seeds {
                            jobs.push(ServingJob {
                                id: jobs.len(),
                                topology,
                                graph: graph.clone(),
                                arrival_gap_ns,
                                placer,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The resolved task graph of a job.
    ///
    /// # Panics
    ///
    /// Panics when the graph name does not resolve.
    pub fn task_graph(&self, job: &ServingJob) -> TaskGraph {
        graph::by_name(&job.graph).unwrap_or_else(|| panic!("unknown task graph {:?}", job.graph))
    }

    /// The [`ServingSpec`] for one grid point.
    pub fn serving_spec(&self, job: &ServingJob) -> ServingSpec {
        let mut base = ScenarioSpec::on_topology(job.topology, job.seed)
            .measure_for(SimDuration::from_us(self.horizon_us));
        if let Some(gap) = self.be_gap_ns {
            base = base.traffic(
                TrafficSpec::uniform_poisson(SimDuration::from_ns(gap))
                    .payload(4)
                    .named("bg-"),
            );
        }
        let holding_mean = SimDuration::from_us(self.holding_us);
        let mut spec = ServingSpec::new(base, self.task_graph(job), job.placer);
        spec.arrival_gap = SimDuration::from_ns(job.arrival_gap_ns);
        spec.holding_mean = holding_mean;
        spec.holding_min = (holding_mean / 4).max(SimDuration::from_us(3));
        spec.max_apps = self.max_apps;
        spec
    }

    /// Runs one grid point and measures it — the closure
    /// [`crate::runner::run_grid`] fans out.
    pub fn measure(&self, job: &ServingJob) -> ServingRecord {
        ServingRecord::measure(job.clone(), &self.serving_spec(job).run())
    }
}

/// The measured result of one serving job — deterministic aggregates
/// only, so the CSV is byte-identical for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRecord {
    /// The grid point this record measures.
    pub job: ServingJob,
    /// Kernel events processed.
    pub events: u64,
    /// App instances offered.
    pub offered: u64,
    /// App instances fully admitted and opened.
    pub admitted: u64,
    /// Instances refused (all causes).
    pub rejected: u64,
    /// Instances refused by the admission controller.
    pub rej_admission: u64,
    /// Instances refused for want of interfaces (subset of
    /// `rej_admission`; the binding budget at app scale).
    pub rej_iface: u64,
    /// Instances refused for want of a capacious path.
    pub rej_no_path: u64,
    /// Instances refused because an edge broke its latency bound.
    pub rej_bound: u64,
    /// Instances rolled back on in-band open failure.
    pub rej_open: u64,
    /// Instances whose teardown completed inside the window.
    pub closed: u64,
    /// Most instances simultaneously live.
    pub peak_live: u64,
    /// GS connections opened by admitted instances.
    pub conns_opened: u64,
    /// Flits delivered by serving streams.
    pub delivered: u64,
    /// Every edge stream's observed worst latency against its bound; the
    /// CSV's `bound_violations` and `worst_bound_ratio` read it.
    pub audit: GuaranteeAudit,
    /// Mean instance setup latency, ns.
    pub setup_mean_ns: f64,
    /// Worst instance setup latency, ns.
    pub setup_max_ns: f64,
    /// Programming packets processed by all routers.
    pub prog_packets: u64,
}

impl ServingRecord {
    /// Builds the record for `job` from its serving metrics.
    pub fn measure(job: ServingJob, m: &ServingMetrics) -> Self {
        let rej_iface = m.rejected_admission[RejectReason::NoTxIface.index()]
            + m.rejected_admission[RejectReason::NoRxIface.index()];
        ServingRecord {
            events: m.scenario.events,
            offered: m.offered,
            admitted: m.admitted,
            rejected: m.rejected(),
            rej_admission: m.rejected_admission.iter().sum(),
            rej_iface,
            rej_no_path: m.rejected_admission[RejectReason::NoPath.index()],
            rej_bound: m.rejected_bound,
            rej_open: m.rejected_open,
            closed: m.closed,
            peak_live: m.peak_live,
            conns_opened: m.apps.iter().map(|a| a.conns as u64).sum(),
            delivered: m.apps.iter().map(|a| a.delivered).sum(),
            audit: m.audit.clone(),
            setup_mean_ns: m.setup_mean_ns(),
            setup_max_ns: m.setup_max_ns(),
            prog_packets: m.prog_packets,
            job,
        }
    }
}

impl CsvRecord for ServingRecord {
    fn csv_header() -> &'static str {
        "job_id,topology,graph,arrival_gap_ns,placer,seed,\
         events,offered,admitted,rejected,rej_admission,rej_iface,\
         rej_no_path,rej_bound,rej_open,closed,peak_live,conns_opened,\
         delivered,bound_violations,worst_bound_ratio,setup_mean_ns,\
         setup_max_ns,prog_packets"
    }

    fn csv_row(&self) -> String {
        let j = &self.job;
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            j.id,
            j.topology.name(),
            j.graph,
            j.arrival_gap_ns,
            j.placer,
            j.seed,
            self.events,
            self.offered,
            self.admitted,
            self.rejected,
            self.rej_admission,
            self.rej_iface,
            self.rej_no_path,
            self.rej_bound,
            self.rej_open,
            self.closed,
            self.peak_live,
            self.conns_opened,
            self.delivered,
            self.audit.violations(),
            self.audit.worst_bound_ratio(),
            self.setup_mean_ns,
            self.setup_max_ns,
            self.prog_packets,
        )
    }
}

/// A human-readable summary table of serving records.
pub fn serving_summary_table(records: &[ServingRecord]) -> Table {
    let mut t = Table::new(vec![
        "job",
        "topology",
        "graph",
        "arr [ns]",
        "placer",
        "offered",
        "admitted",
        "rejected",
        "peak",
        "conns",
        "viol",
        "worst obs/bound",
    ]);
    for r in records {
        let j = &r.job;
        t.add_row(vec![
            j.id.to_string(),
            j.topology.name(),
            j.graph.clone(),
            j.arrival_gap_ns.to_string(),
            j.placer.to_string(),
            r.offered.to_string(),
            r.admitted.to_string(),
            r.rejected.to_string(),
            r.peak_live.to_string(),
            r.conns_opened.to_string(),
            r.audit.violations().to_string(),
            format!("{:.3}", r.audit.worst_bound_ratio()),
        ]);
    }
    t
}

/// The capacity-curve view: per (topology, graph, placer), admitted vs
/// offered as the arrival gap tightens — the headline figure of the
/// serving subsystem, printed by `repro_serving`.
pub fn capacity_curves(records: &[ServingRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut seen: Vec<(String, String, String)> = Vec::new();
    for r in records {
        let key = (
            r.job.topology.name(),
            r.job.graph.clone(),
            r.job.placer.to_string(),
        );
        if seen.contains(&key) {
            continue;
        }
        seen.push(key.clone());
        let _ = writeln!(out, "{} / {} / {}:", key.0, key.1, key.2);
        for p in records.iter().filter(|p| {
            p.job.topology == r.job.topology
                && p.job.graph == r.job.graph
                && p.job.placer == r.job.placer
        }) {
            let _ = writeln!(
                out,
                "  gap {:>6} ns: offered {:>5}, admitted {:>5}, rejected {:>5}, peak {:>3}",
                p.job.arrival_gap_ns, p.offered, p.admitted, p.rejected, p.peak_live
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_grid;

    fn run(spec: &ServingSweepSpec, threads: usize) -> Vec<ServingRecord> {
        run_grid(&spec.expand(), threads, |job| spec.measure(job))
    }

    #[test]
    fn expansion_is_cartesian_in_documented_order() {
        let spec = ServingSweepSpec {
            topologies: vec![TopologySpec::mesh(4, 4), TopologySpec::mesh(8, 8)],
            arrival_gaps_ns: vec![4000, 1000],
            placers: vec![PlacerKind::Greedy, PlacerKind::Anneal { iters: 8 }],
            seeds: vec![1, 2],
            ..Default::default()
        };
        assert_eq!(spec.len(), 2 * 2 * 2 * 2);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 16);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
        // Seed innermost, topology outermost.
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[1].seed, 2);
        assert_eq!(jobs[2].placer, PlacerKind::Anneal { iters: 8 });
        assert_eq!(jobs[8].topology, TopologySpec::mesh(8, 8));
    }

    #[test]
    fn empty_dimension_empties_grid() {
        let spec = ServingSweepSpec {
            placers: Vec::new(),
            ..Default::default()
        };
        assert!(spec.is_empty());
        assert_eq!(spec.expand(), Vec::new());
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let spec = ServingSweepSpec {
            horizon_us: 80,
            max_apps: 6,
            arrival_gaps_ns: vec![6000],
            holding_us: 12,
            ..Default::default()
        };
        let records = run(&spec, 1);
        assert_eq!(records.len(), 1);
        let header_cols = ServingRecord::csv_header().split(',').count();
        assert_eq!(records[0].csv_row().split(',').count(), header_cols);
        assert_eq!(header_cols, 24);
        assert!(records[0].offered > 0);
        assert_eq!(records[0].audit.violations(), 0);
    }

    #[test]
    fn serving_csv_is_thread_count_independent() {
        let spec = ServingSweepSpec {
            horizon_us: 80,
            max_apps: 8,
            arrival_gaps_ns: vec![6000, 2500],
            holding_us: 12,
            ..Default::default()
        };
        let a = run(&spec, 1);
        let b = run(&spec, 4);
        assert_eq!(a, b, "serving records must not depend on worker count");
        let rows_a: Vec<String> = a.iter().map(ServingRecord::csv_row).collect();
        let rows_b: Vec<String> = b.iter().map(ServingRecord::csv_row).collect();
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn job_display_and_curves_list_parameters() {
        let jobs = ServingSweepSpec::smoke().expand();
        let line = jobs[0].to_string();
        assert!(line.contains("job 0"));
        assert!(line.contains("mesh4x4"));
        assert!(line.contains("placer=greedy"));
    }
}
