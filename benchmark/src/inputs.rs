//! `--seed` → generated inputs.
//!
//! The harness derives every scenario seed, arrival list and task-graph
//! order from the one benchmark seed; the model only ever receives the
//! generated specs. A workload is a fixed number of *classes* (distinct
//! derived scenarios of the same shape); averaging over the classes is
//! what keeps a stochastic workload's cost from swinging with the seed
//! (one 8×8 churn scenario varies ±12 % in events from seed to seed).

use mango::apps::{graph, PlacerKind, ServingSpec, TaskGraph};
use mango::core::RouterId;
use mango::net::{ScenarioSpec, TemporalSpec, TopologySpec, TrafficSpec};
use mango::qos::{ChurnSpec, RecoverySpec};
use mango::sim::SimDuration;
use mango_sweep::{ChurnSweepSpec, FaultSweepSpec, ServingSweepSpec, SweepSpec};

/// The seven workloads, in reporting order.
pub const WORKLOADS: [&str; 7] = [
    "fabric_4x4",
    "fabric_16x16",
    "churn_8x8",
    "serving_vopd",
    "planner_vopd",
    "recovery_8x8",
    "sweep_short",
];

/// The annealing placer both app workloads use.
pub const PLACER: PlacerKind = PlacerKind::Anneal { iters: 32 };
/// Arrivals of one `planner_vopd` loop.
pub const PLANNER_ARRIVALS: usize = 1024;
/// An instance is released this many arrivals after it was admitted.
pub const PLANNER_HOLD: usize = 8;

/// SplitMix64 step: the `n`-th value of the stream seeded with `seed`.
pub fn splitmix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(n.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The scenario seed of `workload`'s class `class` under benchmark seed
/// `seed`. Workloads get disjoint streams, so no two share a scenario.
pub fn derive(seed: u64, workload: &str, class: usize) -> u64 {
    let stream = u64::from(crate::stats::fnv32(workload.as_bytes()));
    splitmix(seed ^ (stream << 32), class as u64)
}

/// How many classes `workload` cycles through.
pub fn classes(workload: &str) -> usize {
    match workload {
        // One scenario, run as two identical simulations (see
        // `workloads::Fabric`); Poisson background is seed-insensitive.
        "fabric_4x4" | "fabric_16x16" => 1,
        "churn_8x8" | "serving_vopd" => 32,
        "recovery_8x8" => 8,
        "planner_vopd" | "sweep_short" => 4,
        other => panic!("unknown workload {other:?}"),
    }
}

/// `fabric_NxN`: four corner-crossing GS connections at 12 ns CBR plus
/// uniform Poisson BE at 300 ns per node, payload 4 — the repo's
/// `sim_rate` mix, built declaratively.
pub fn fabric_spec(n: u8, seed: u64) -> ScenarioSpec {
    let (w, h) = (n - 1, n - 1);
    let mut spec = ScenarioSpec::mesh(n, n, seed);
    for (s, d) in [
        ((0, 0), (w, h)),
        ((w, 0), (0, h)),
        ((1, 1), (w - 1, h - 1)),
        ((w - 1, 1), (1, h - 1)),
    ] {
        spec = spec.gs(
            RouterId::new(s.0, s.1),
            RouterId::new(d.0, d.1),
            TemporalSpec::cbr(SimDuration::from_ns(12)),
        );
    }
    spec.traffic(TrafficSpec::uniform_poisson(SimDuration::from_ns(300)).payload(4))
}

/// Simulated span of one fabric slice.
pub fn fabric_slice_span(n: u8) -> SimDuration {
    if n <= 4 {
        SimDuration::from_us(200)
    } else {
        SimDuration::from_us(4)
    }
}

/// `churn_8x8`: the `ChurnSweepSpec::repro()` shape at its busiest
/// point, horizon cut to 30 µs (~100 requests, ~0.2 s a slice).
pub fn churn_spec(seed: u64) -> ChurnSpec {
    let grid = ChurnSweepSpec {
        arrival_gaps_ns: vec![250],
        holdings_us: vec![10],
        seeds: vec![seed],
        horizon_us: 30,
        ..ChurnSweepSpec::repro()
    };
    grid.churn_spec(&grid.expand()[0])
}

/// `serving_vopd`: the `ServingSweepSpec::repro()` shape on the chiplet
/// topology, far past saturation, horizon cut to 30 µs (~170 instances
/// offered, ~0.2 s a slice).
pub fn serving_spec(seed: u64) -> ServingSpec {
    let grid = ServingSweepSpec {
        topologies: vec![TopologySpec::chiplet(2, 2, 4, 4)],
        arrival_gaps_ns: vec![150],
        placers: vec![PLACER],
        seeds: vec![seed],
        holding_us: 12,
        horizon_us: 30,
        ..ServingSweepSpec::repro()
    };
    grid.serving_spec(&grid.expand()[0])
}

/// `recovery_8x8`: the `FaultSweepSpec::repro()` point with six faults
/// under BE background.
pub fn recovery_spec(seed: u64) -> RecoverySpec {
    let grid = FaultSweepSpec {
        fault_counts: vec![6],
        be_gaps_ns: vec![Some(1000)],
        seeds: vec![seed],
        ..FaultSweepSpec::repro()
    };
    grid.recovery_spec(&grid.expand()[0])
}

/// `sweep_short`: `SweepSpec::smoke()` (8 jobs, 4×4, 5 + 20 µs each)
/// with its two seeds derived from `seed`.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        seeds: vec![splitmix(seed, 0), splitmix(seed, 1)],
        ..SweepSpec::smoke()
    }
}

/// One `planner_vopd` arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerArrival {
    /// Index into [`planner_graphs`].
    pub graph: usize,
    /// Seed handed to the placer.
    pub placer_seed: u64,
}

/// The two applications `planner_vopd` alternates between.
pub fn planner_graphs() -> [TaskGraph; 2] {
    [graph::vopd(), graph::mwd()]
}

/// The topology `planner_vopd` and `serving_vopd` place onto.
pub fn planner_topology() -> TopologySpec {
    TopologySpec::chiplet(2, 2, 4, 4)
}

/// `planner_vopd`'s arrival list: VOPD and MWD alternating (the seed
/// picks which comes first), each with its own placer seed.
pub fn planner_arrivals(seed: u64) -> Vec<PlannerArrival> {
    let first = (splitmix(seed, 0) & 1) as usize;
    (0..PLANNER_ARRIVALS)
        .map(|i| PlannerArrival {
            graph: (first + i) % 2,
            placer_seed: splitmix(seed, 1 + i as u64),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a seed generates, rendered so it can be compared.
    fn rendered(seed: u64) -> String {
        let mut out = String::new();
        for w in WORKLOADS {
            for class in 0..classes(w) {
                let s = derive(seed, w, class);
                out.push_str(&format!("{w}/{class}: {s}\n"));
            }
        }
        let s = derive(seed, "x", 0);
        out.push_str(&format!("{:?}\n", fabric_spec(4, s)));
        out.push_str(&format!("{:?}\n", churn_spec(s)));
        out.push_str(&format!("{:?}\n", serving_spec(s)));
        out.push_str(&format!("{:?}\n", recovery_spec(s)));
        out.push_str(&format!("{:?}\n", sweep_spec(s)));
        out.push_str(&format!("{:?}\n", planner_arrivals(s)));
        out
    }

    #[test]
    fn same_seed_same_inputs_and_seed_1_differs_from_seed_2() {
        assert_eq!(rendered(1), rendered(1));
        assert_ne!(rendered(1), rendered(2));
    }

    #[test]
    fn no_two_classes_share_a_scenario_seed() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            for class in 0..classes(w) {
                assert!(seen.insert(derive(1, w, class)), "{w}/{class} collides");
            }
        }
    }

    #[test]
    fn workload_shapes_are_the_documented_ones() {
        let c = churn_spec(7);
        assert_eq!((c.base.width, c.base.height), (8, 8));
        assert_eq!(c.arrival_gap, SimDuration::from_ns(250));
        let s = serving_spec(7);
        assert_eq!(s.placer, PLACER);
        assert_eq!(s.graph.name, graph::vopd().name);
        let r = recovery_spec(7);
        assert_eq!(r.managed.len(), 6);
        assert_eq!(sweep_spec(7).len(), 8);
        let arrivals = planner_arrivals(7);
        assert_eq!(arrivals.len(), PLANNER_ARRIVALS);
        assert_ne!(arrivals[0].graph, arrivals[1].graph);
    }
}
