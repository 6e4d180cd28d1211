//! Declarative sweep grids: dimensions, expansion and job→scenario
//! mapping.

use mango_core::RouterId;
use mango_net::{
    EmitWindow, Grid, GsFlowSpec, PatternKind, Phase, ScenarioSpec, TemporalSpec, TopologySpec,
    TrafficSpec,
};
use mango_sim::SimDuration;

/// A declarative parameter-sweep grid.
///
/// Every `Vec` field is one grid dimension; [`SweepSpec::expand`] takes
/// the cartesian product in the documented order. An empty dimension
/// yields an empty grid (nothing to run), mirroring cartesian-product
/// semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Topologies: meshes, tori, chiplet meshes-of-meshes (see
    /// [`TopologySpec::parse`]).
    pub topologies: Vec<TopologySpec>,
    /// GS connection counts (auto-placed via [`auto_gs_pairs`]).
    pub gs_conns: Vec<u32>,
    /// Per-node BE Poisson mean gaps in ns; `None` = BE idle.
    pub be_gaps_ns: Vec<Option<u64>>,
    /// Spatial patterns of the BE background (ignored by idle jobs, but
    /// still a grid dimension).
    pub patterns: Vec<PatternKind>,
    /// GS source CBR periods in ns (ignored by jobs with zero GS
    /// connections, but still a grid dimension).
    pub gs_periods_ns: Vec<u64>,
    /// Measurement window lengths in µs.
    pub measures_us: Vec<u64>,
    /// Base seeds.
    pub seeds: Vec<u64>,
    /// Warmup before every measurement window, µs.
    pub warmup_us: u64,
    /// BE payload words per packet.
    pub payload_words: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            topologies: vec![TopologySpec::mesh(4, 4)],
            gs_conns: vec![0],
            be_gaps_ns: vec![Some(300)],
            patterns: vec![PatternKind::Uniform],
            gs_periods_ns: vec![12],
            measures_us: vec![100],
            seeds: vec![1],
            warmup_us: 20,
            payload_words: 4,
        }
    }
}

/// One expanded grid point. `Display` prints the `--list` line:
/// `job 3: mesh8x8 gs=4 be_gap=300 period=12 measure=100 seed=2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJob {
    /// Ordinal in expansion order (the CSV row order).
    pub id: usize,
    /// The topology of this grid point.
    pub topology: TopologySpec,
    /// GS connections to open.
    pub gs_conns: u32,
    /// Per-node BE mean gap, ns (`None` = idle).
    pub be_gap_ns: Option<u64>,
    /// Spatial pattern of the BE background.
    pub pattern: PatternKind,
    /// GS CBR period, ns.
    pub gs_period_ns: u64,
    /// Measurement window, µs.
    pub measure_us: u64,
    /// Simulation seed.
    pub seed: u64,
}

impl std::fmt::Display for SweepJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {}: {} gs={} be_gap={} pattern={} period={} measure={} seed={}",
            self.id,
            self.topology.name(),
            self.gs_conns,
            self.be_gap_ns
                .map_or_else(|| "idle".into(), |g| g.to_string()),
            self.pattern,
            self.gs_period_ns,
            self.measure_us,
            self.seed
        )
    }
}

impl SweepSpec {
    /// The smoke grid: small and fast (sub-second per thread), used by
    /// the CI determinism gate — 2 GS counts × 2 BE loads × 2 seeds on a
    /// 4×4 mesh, 20 µs windows.
    pub fn smoke() -> Self {
        SweepSpec {
            topologies: vec![TopologySpec::mesh(4, 4)],
            gs_conns: vec![0, 2],
            be_gaps_ns: vec![Some(300), Some(100)],
            patterns: vec![PatternKind::Uniform],
            gs_periods_ns: vec![12],
            measures_us: vec![20],
            seeds: vec![1, 2],
            warmup_us: 5,
            payload_words: 4,
        }
    }

    /// The pattern smoke grid the CI determinism gate diffs alongside
    /// the classic smoke grid: one hotspot and one transpose point under
    /// a GS foreground on a 4×4 mesh, 20 µs windows.
    pub fn pattern_smoke() -> Self {
        SweepSpec {
            topologies: vec![TopologySpec::mesh(4, 4)],
            gs_conns: vec![1],
            be_gaps_ns: vec![Some(300)],
            patterns: vec![PatternKind::Hotspot, PatternKind::Transpose],
            gs_periods_ns: vec![12],
            measures_us: vec![20],
            seeds: vec![1],
            warmup_us: 5,
            payload_words: 4,
        }
    }

    /// The full characterization grid the weekly CI run executes: 4×4
    /// through 16×16 meshes (the mesh-scaling axis), idle→saturating BE,
    /// with and without GS foreground, three seeds.
    pub fn full() -> Self {
        SweepSpec {
            topologies: vec![
                TopologySpec::mesh(4, 4),
                TopologySpec::mesh(8, 8),
                TopologySpec::mesh(16, 16),
            ],
            gs_conns: vec![0, 4],
            be_gaps_ns: vec![None, Some(1000), Some(300), Some(100), Some(50)],
            patterns: vec![PatternKind::Uniform],
            gs_periods_ns: vec![12],
            measures_us: vec![100],
            seeds: vec![1, 2, 3],
            warmup_us: 20,
            payload_words: 4,
        }
    }

    /// Number of grid points (product of dimension sizes).
    pub fn len(&self) -> usize {
        self.topologies.len()
            * self.gs_conns.len()
            * self.be_gaps_ns.len()
            * self.patterns.len()
            * self.gs_periods_ns.len()
            * self.measures_us.len()
            * self.seeds.len()
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that every grid point can be built and run, so that bad
    /// input ends in a one-line diagnostic before any job starts
    /// instead of a panic inside a worker: no empty dimension, every
    /// topology compiles, every pattern fits every topology, the
    /// largest GS count has enough mirror pairs, BE gaps and GS periods
    /// are at least 1 ns (a zero gap has no exponential mean; a zero
    /// period never advances time), and every span — each gap, period,
    /// warmup and measure window, and warmup + measure — fits the
    /// picosecond clock of a [`SimDuration`].
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("the grid is empty (an empty dimension)".into());
        }
        for topo in &self.topologies {
            topo.validate()
                .map_err(|e| format!("topology {topo}: {e}"))?;
            let grid = Grid::from_spec(topo);
            for &p in &self.patterns {
                p.spatial(grid.width(), grid.height())
                    .validate(&grid)
                    .map_err(|e| format!("pattern {p} on {topo}: {e}"))?;
            }
            let hostable = mirror_pairs(&grid).count();
            if let Some(n) = self.gs_conns.iter().find(|&&n| n as usize > hostable) {
                return Err(format!(
                    "{topo} cannot host {n} auto-placed GS connections (at most {hostable})"
                ));
            }
        }
        if self.be_gaps_ns.contains(&Some(0)) {
            return Err("BE gap must be at least 1 ns (`idle` turns BE traffic off)".into());
        }
        if self.gs_periods_ns.contains(&0) {
            return Err("GS period must be at least 1 ns".into());
        }
        let ps = |what: &str, value: u64, unit: &str, ps_per_unit: u64| {
            value
                .checked_mul(ps_per_unit)
                .ok_or_else(|| format!("{what} {value} {unit} overflows the picosecond clock"))
        };
        for &gap in self.be_gaps_ns.iter().flatten() {
            ps("BE gap", gap, "ns", 1_000)?;
        }
        for &period in &self.gs_periods_ns {
            ps("GS period", period, "ns", 1_000)?;
        }
        let warmup = ps("warmup", self.warmup_us, "µs", 1_000_000)?;
        for &measure_us in &self.measures_us {
            let measure = ps("measure window", measure_us, "µs", 1_000_000)?;
            warmup.checked_add(measure).ok_or_else(|| {
                format!(
                    "warmup {} µs + measure window {measure_us} µs overflows the picosecond clock",
                    self.warmup_us
                )
            })?;
        }
        Ok(())
    }

    /// Expands the grid to jobs in a fixed nesting order — topology
    /// outermost, then GS count, BE gap, spatial pattern, GS period,
    /// measure window, seed innermost. Job ids are ordinals in this
    /// order; the order **is** the output order of every writer, so it
    /// is part of the determinism contract. (A single-pattern grid
    /// expands to the same job ids as the pre-pattern-axis grids.)
    pub fn expand(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::with_capacity(self.len());
        for &topology in &self.topologies {
            for &gs_conns in &self.gs_conns {
                for &be_gap_ns in &self.be_gaps_ns {
                    for &pattern in &self.patterns {
                        for &gs_period_ns in &self.gs_periods_ns {
                            for &measure_us in &self.measures_us {
                                for &seed in &self.seeds {
                                    jobs.push(SweepJob {
                                        id: jobs.len(),
                                        topology,
                                        gs_conns,
                                        be_gap_ns,
                                        pattern,
                                        gs_period_ns,
                                        measure_us,
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The [`ScenarioSpec`] for one grid point: GS connections opened
    /// during setup with CBR sources attached at measurement start, BE
    /// background with the job's spatial pattern present from setup (so
    /// warmup loads the network).
    pub fn scenario(&self, job: &SweepJob) -> ScenarioSpec {
        let mut spec = ScenarioSpec::on_topology(job.topology, job.seed)
            .warmup(SimDuration::from_us(self.warmup_us))
            .measure_for(SimDuration::from_us(job.measure_us));
        let grid = Grid::from_spec(&job.topology);
        for (i, (src, dst)) in auto_gs_pairs(&grid, job.gs_conns).into_iter().enumerate() {
            spec = spec.gs_flow(GsFlowSpec {
                src,
                dst,
                pattern: TemporalSpec::cbr(SimDuration::from_ns(job.gs_period_ns)),
                name: format!("gs-{i}"),
                window: EmitWindow::default(),
                phase: Phase::Measure,
            });
        }
        if let Some(gap) = job.be_gap_ns {
            let (width, height) = job.topology.dims();
            spec = spec.traffic(
                TrafficSpec::new(
                    job.pattern.spatial(width, height),
                    TemporalSpec::poisson(SimDuration::from_ns(gap)),
                )
                .payload(self.payload_words)
                .named("bg-"),
            );
        }
        spec
    }
}

/// Every node paired with its point reflection, in row-major order,
/// without the self-pair at the center of an odd×odd grid.
fn mirror_pairs(grid: &Grid) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
    grid.ids()
        .map(|id| (id, grid.mirror(id)))
        .filter(|(id, mirror)| id != mirror)
}

/// Deterministic GS connection placement for auto-generated grid points:
/// node `k` (row-major order) connects to its point reflection through
/// the grid center ([`Grid::mirror`]), skipping self-pairs (the center
/// of an odd×odd grid). The first `n` such crossing diagonals load the
/// bisection — the natural stress placement for guarantee-envelope
/// sweeps; on a chiplet topology they all cross die boundaries.
///
/// # Panics
///
/// Panics if the grid has fewer than `n` valid pairs.
pub fn auto_gs_pairs(grid: &Grid, n: u32) -> Vec<(RouterId, RouterId)> {
    let pairs: Vec<_> = mirror_pairs(grid).take(n as usize).collect();
    assert!(
        pairs.len() as u32 == n,
        "grid {}x{} cannot host {n} auto-placed GS connections",
        grid.width(),
        grid.height()
    );
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_count_is_cartesian_product() {
        let spec = SweepSpec {
            topologies: vec![TopologySpec::mesh(4, 4), TopologySpec::mesh(8, 8)],
            gs_conns: vec![0, 2, 4],
            be_gaps_ns: vec![None, Some(100)],
            gs_periods_ns: vec![12],
            measures_us: vec![20, 100],
            seeds: vec![1, 2, 3],
            ..Default::default()
        };
        assert_eq!(spec.len(), 2 * 3 * 2 * 2 * 3);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.len());
        // Ids are the ordinals of expansion order.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
        // Seed is the innermost dimension: the first jobs differ only by
        // seed.
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[1].seed, 2);
        assert_eq!(jobs[2].seed, 3);
        assert_eq!(jobs[0].topology, jobs[1].topology);
        // Topology is outermost: the second half of the grid is 8×8.
        assert_eq!(jobs[jobs.len() / 2].topology, TopologySpec::mesh(8, 8));
    }

    #[test]
    fn empty_dimension_empties_the_grid() {
        let spec = SweepSpec {
            seeds: Vec::new(),
            ..Default::default()
        };
        assert!(spec.is_empty());
        assert_eq!(spec.expand(), Vec::new());
    }

    #[test]
    fn single_point_grid_has_one_job() {
        let spec = SweepSpec::default();
        assert_eq!(spec.len(), 1);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs[0],
            SweepJob {
                id: 0,
                topology: TopologySpec::mesh(4, 4),
                gs_conns: 0,
                be_gap_ns: Some(300),
                pattern: PatternKind::Uniform,
                gs_period_ns: 12,
                measure_us: 100,
                seed: 1,
            }
        );
    }

    #[test]
    fn pattern_axis_expands_between_gap_and_period() {
        let spec = SweepSpec {
            be_gaps_ns: vec![Some(300), Some(100)],
            patterns: vec![PatternKind::Uniform, PatternKind::Transpose],
            seeds: vec![1, 2],
            ..Default::default()
        };
        assert_eq!(spec.len(), 2 * 2 * 2);
        let jobs = spec.expand();
        // Seed innermost, then pattern, then gap.
        assert_eq!(jobs[0].pattern, PatternKind::Uniform);
        assert_eq!(jobs[2].pattern, PatternKind::Transpose);
        assert_eq!(jobs[0].be_gap_ns, jobs[2].be_gap_ns);
        assert_eq!(jobs[4].be_gap_ns, Some(100));
        assert!(jobs[0].to_string().contains("pattern=uniform"));
    }

    #[test]
    fn pattern_smoke_covers_hotspot_and_transpose() {
        let jobs = SweepSpec::pattern_smoke().expand();
        assert!(jobs.iter().any(|j| j.pattern == PatternKind::Hotspot));
        assert!(jobs.iter().any(|j| j.pattern == PatternKind::Transpose));
        assert!(jobs.len() <= 4, "pattern smoke must stay CI-fast");
    }

    #[test]
    fn auto_pairs_cross_the_mesh_center() {
        let pairs = auto_gs_pairs(&Grid::new(4, 4), 4);
        assert_eq!(pairs[0], (RouterId::new(0, 0), RouterId::new(3, 3)),);
        assert_eq!(pairs.len(), 4);
        for (s, d) in pairs {
            assert_ne!(s, d);
        }
        // Odd×odd center is skipped, not self-paired.
        let odd = auto_gs_pairs(&Grid::new(3, 3), 8);
        assert!(odd.iter().all(|(s, d)| s != d));
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn too_many_auto_pairs_panics() {
        auto_gs_pairs(&Grid::new(2, 2), 5);
    }

    #[test]
    fn validate_accepts_the_fixed_grids_and_names_what_cannot_run() {
        for spec in [
            SweepSpec::default(),
            SweepSpec::smoke(),
            SweepSpec::pattern_smoke(),
            SweepSpec::full(),
        ] {
            assert_eq!(spec.validate(), Ok(()));
        }
        let base = SweepSpec::smoke;
        let bad = [
            (
                SweepSpec {
                    seeds: Vec::new(),
                    ..base()
                },
                "empty",
            ),
            (
                SweepSpec {
                    topologies: vec![TopologySpec::mesh(4, 4), TopologySpec::mesh(0, 3)],
                    ..base()
                },
                "mesh0x3: grid dimensions must be positive",
            ),
            (
                SweepSpec {
                    topologies: vec![TopologySpec::torus(1, 4)],
                    ..base()
                },
                "at least 2",
            ),
            (
                SweepSpec {
                    topologies: vec![TopologySpec::chiplet(16, 16, 16, 16)],
                    ..base()
                },
                "overflows u8",
            ),
            (
                SweepSpec {
                    topologies: vec![TopologySpec::mesh(4, 2)],
                    patterns: vec![PatternKind::Transpose],
                    ..base()
                },
                "pattern transpose on mesh4x2",
            ),
            (
                SweepSpec {
                    gs_conns: vec![0, 17],
                    ..base()
                },
                "cannot host 17 auto-placed GS connections (at most 16)",
            ),
            (
                SweepSpec {
                    be_gaps_ns: vec![None, Some(0)],
                    ..base()
                },
                "BE gap",
            ),
            (
                SweepSpec {
                    gs_periods_ns: vec![0],
                    ..base()
                },
                "GS period",
            ),
        ];
        for (spec, what) in bad {
            let err = spec.validate().expect_err(what);
            assert!(err.contains(what), "{err:?} does not name {what:?}");
        }
    }

    #[test]
    fn topology_axis_expands_every_topology_kind() {
        let spec = SweepSpec {
            topologies: vec![TopologySpec::torus(4, 4), TopologySpec::chiplet(2, 2, 2, 2)],
            seeds: vec![1, 2],
            ..Default::default()
        };
        assert_eq!(spec.len(), 2 * 2);
        let jobs = spec.expand();
        assert_eq!(jobs[0].topology, TopologySpec::torus(4, 4));
        assert_eq!(jobs[2].topology, TopologySpec::chiplet(2, 2, 2, 2));
        assert!(jobs[2].to_string().contains("chiplet2x2x2x2"));
        // A mesh prints the classic mesh name.
        let jobs = SweepSpec::default().expand();
        assert!(jobs[0].to_string().contains("mesh4x4"));
    }

    #[test]
    fn smoke_grid_stays_small() {
        assert!(
            SweepSpec::smoke().len() <= 16,
            "smoke grid must stay CI-fast"
        );
    }
}
