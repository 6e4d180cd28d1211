//! The placement engine: maps a [`TaskGraph`]'s tasks onto routers so
//! that the graph's GS connection set admits — the NoC half of the
//! Even & Fais QoS-mapping problem.
//!
//! Candidate mappings are scored through the **real**
//! [`AdmissionController`] in dry-run brackets
//! ([`AdmissionController::save_budgets_into`] /
//! [`AdmissionController::restore_budgets`]): the scoring trial commits
//! the whole edge set, reads the resulting budget state, and rewinds
//! exactly. Because the trial uses the controller's own path search and
//! bound composition, a zero-failure score *is* an admission proof — a
//! placement the optimizer accepts admits fully when the serving engine
//! replays it (property-tested in `tests/placement_props.rs`).
//!
//! [`PlacerKind`] picks one of two strategies: `Greedy` (hop-count ×
//! demand, heaviest tasks first) and `Anneal` (seeded simulated
//! annealing over move/swap neighborhoods, started from the greedy
//! solution and tracking best-seen — so its score is never worse than
//! greedy's). Both are deterministic functions of
//! `(graph, controller state, seed)`.
//!
//! Cost: a candidate is one trial — one
//! [`AdmissionController::commit_trial`] per inter-node edge, each a
//! single pass over the links of a route the controller has cached —
//! plus one flat copy of the budget arrays to rewind. An `anneal32`
//! placement of VOPD/MWD on `chiplet2x2x4x4` takes ~28 µs
//! (`apps.place_ns.anneal32.p50` of `benchmark/run.sh --workload
//! planner_vopd --trace 1` on a 2-core host, `harness.cal_s`
//! 0.050–0.054 s).

use crate::graph::TaskGraph;
use mango_core::RouterId;
use mango_net::Grid;
use mango_qos::{AdmissionController, BudgetSnapshot, ConnRequest};
use mango_sim::{SimDuration, SimRng};
use std::fmt;

/// How good a candidate mapping is; ordered lexicographically, lower is
/// better. `failures` dominates (an instance only runs if every edge
/// admits), then residual-bandwidth fragmentation, then hop·demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlacementScore {
    /// Edges that failed admission or broke their latency bound in the
    /// dry run. Zero means the whole connection set admits right now.
    pub failures: u32,
    /// Residual-bandwidth fragmentation after the dry-run commit, in
    /// milli-units: `1000 − 1000·(min residual after)/(min residual
    /// before)`. Low = the placement left the tightest link roomy.
    pub frag_milli: u32,
    /// Σ over admitted edges of path hops × rate (Mflit/s·hops) — the
    /// bandwidth-weighted wire length the mapping consumes.
    pub hop_demand: u64,
}

impl PlacementScore {
    /// Collapses the score to one scalar for annealing acceptance.
    /// Field weights keep the lexicographic order intact for every
    /// realistic graph (≤ thousands of failures, frag ≤ 1000).
    pub fn scalar(self) -> u64 {
        u64::from(self.failures) * 1_000_000_000_000
            + u64::from(self.frag_milli) * 1_000_000
            + self.hop_demand.min(999_999)
    }
}

/// A scored mapping of every task to a router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `assign[i]` is the router of task `i`.
    pub assign: Vec<RouterId>,
    /// The dry-run score of the mapping.
    pub score: PlacementScore,
}

impl Placement {
    /// True when the dry run admitted every edge — the serving engine
    /// only opens instances whose placement is admissible.
    pub fn admissible(&self) -> bool {
        self.score.failures == 0
    }
}

/// Scores `assign` by committing every inter-node edge through `ctl`
/// and rewinding. `ctl` is returned to its exact pre-call state; `snap`
/// is scratch reused across calls. Costs one scan of the link budgets
/// (the entry minimum) plus the O(edges × path length) trial; the
/// placers pay the scan once per `place`, not once per candidate.
pub fn score_assignment(
    graph: &TaskGraph,
    assign: &[RouterId],
    ctl: &mut AdmissionController,
    snap: &mut BudgetSnapshot,
) -> PlacementScore {
    ctl.save_budgets_into(snap);
    let min_before = ctl.budget_summary().residual_fps_min;
    score_trial(graph, &edge_periods(graph), assign, ctl, snap, min_before)
}

/// [`TaskGraph::period`] of every edge, in edge order — computed once
/// per `place`, not once per trial.
fn edge_periods(graph: &TaskGraph) -> Vec<SimDuration> {
    graph
        .edges
        .iter()
        .map(|e| TaskGraph::period(e.rate_fps))
        .collect()
}

/// One dry-run trial, O(edges × path length). `periods` is
/// [`edge_periods`], `snap` holds `ctl`'s state at entry and
/// `min_before` that state's minimum residual over up links. A trial
/// only debits, and only up links, so `min_after = min(min_before, min
/// over the links it debited)` — no rescan.
fn score_trial(
    graph: &TaskGraph,
    periods: &[SimDuration],
    assign: &[RouterId],
    ctl: &mut AdmissionController,
    snap: &BudgetSnapshot,
    min_before: u64,
) -> PlacementScore {
    let mut score = PlacementScore {
        failures: 0,
        frag_milli: 0,
        hop_demand: 0,
    };
    let mut min_after = min_before;
    for (e, &period) in graph.edges.iter().zip(periods) {
        let (src, dst) = (assign[e.from], assign[e.to]);
        if src == dst && ctl.grid().contains(src) {
            // Co-located tasks talk through local memory, not the NoC.
            // Tasks pinned off the grid are not co-located anywhere:
            // their edge fails admission like every other one of theirs.
            continue;
        }
        let req = ConnRequest { src, dst, period };
        match ctl.commit_trial(&req) {
            Ok(trial) => {
                min_after = min_after.min(trial.min_residual_fps);
                if e.admits(trial.worst_latency) {
                    score.hop_demand += trial.hops as u64 * (e.rate_fps / 1_000_000).max(1);
                } else {
                    score.failures += 1;
                }
            }
            Err(_) => score.failures += 1,
        }
    }
    score.frag_milli = (1000 - (1000 * min_after) / min_before.max(1)) as u32;
    ctl.restore_budgets(snap);
    score
}

/// Greedy constructive placement over `nodes`, the grid's routers in
/// index order, unscored (the annealer's starting point): tasks in
/// decreasing incident-demand order; each goes to the router minimizing
/// Σ hops×rate to its already-placed neighbors plus an occupancy
/// penalty that spreads unrelated tasks. Ties break on router index —
/// deterministic.
fn greedy_assign(graph: &TaskGraph, grid: &Grid, nodes: &[RouterId]) -> Vec<RouterId> {
    let mut order: Vec<usize> = (0..graph.tasks.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(graph.incident_demand_fps(i)), i));

    // Spreading pressure comparable to one average edge's pull.
    let occupancy_penalty = (graph.total_demand_fps() / graph.edges.len().max(1) as u64).max(1);
    let unplaced = RouterId::new(u8::MAX, u8::MAX);
    let mut assign = vec![unplaced; graph.tasks.len()];
    let mut load = vec![0u64; nodes.len()];
    // The already-placed neighbors `(router, rate)` of the task at hand.
    let mut pulls: Vec<(RouterId, u64)> = Vec::new();
    for &t in &order {
        if let Some(at) = graph.tasks[t].affinity {
            assign[t] = at;
            // A task pinned off the grid loads no router; scoring
            // fails its edges.
            if grid.contains(at) {
                load[grid.index(at)] += u64::from(graph.tasks[t].weight);
            }
            continue;
        }
        pulls.clear();
        pulls.extend(graph.edges.iter().filter_map(|e| {
            let other = if e.from == t {
                assign[e.to]
            } else if e.to == t {
                assign[e.from]
            } else {
                return None;
            };
            (other != unplaced).then_some((other, e.rate_fps))
        }));
        let mut best: Option<(u64, usize)> = None;
        for (ni, node) in nodes.iter().enumerate() {
            let mut cost = load[ni] * occupancy_penalty;
            for &(other, rate_fps) in &pulls {
                let hops =
                    u64::from(node.x.abs_diff(other.x)) + u64::from(node.y.abs_diff(other.y));
                cost += hops * rate_fps;
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, ni));
            }
        }
        let (_, ni) = best.expect("grid has nodes");
        assign[t] = nodes[ni];
        load[ni] += u64::from(graph.tasks[t].weight);
    }
    assign
}

/// [`greedy_assign`], scored.
fn greedy(graph: &TaskGraph, ctl: &mut AdmissionController) -> Placement {
    let nodes: Vec<RouterId> = ctl.grid().ids().collect();
    let assign = greedy_assign(graph, ctl.grid(), &nodes);
    let mut snap = BudgetSnapshot::default();
    let score = score_assignment(graph, &assign, ctl, &mut snap);
    Placement { assign, score }
}

/// Simulated annealing over move/swap neighborhoods, seeded and
/// deterministic, for `iters` candidate evaluations. Starts from
/// [`greedy_assign`]'s solution and returns the best assignment ever
/// visited, so its score is never worse than greedy's for the same
/// controller state.
fn anneal(graph: &TaskGraph, ctl: &mut AdmissionController, seed: u64, iters: u32) -> Placement {
    let nodes: Vec<RouterId> = ctl.grid().ids().collect();
    let movable: Vec<usize> = (0..graph.tasks.len())
        .filter(|&i| graph.tasks[i].affinity.is_none())
        .collect();
    // Every trial starts from, and rewinds to, the state at entry:
    // save it and scan its minimum residual once.
    let mut snap = BudgetSnapshot::default();
    ctl.save_budgets_into(&mut snap);
    let min_before = ctl.budget_summary().residual_fps_min;
    let periods = edge_periods(graph);
    let mut current = greedy_assign(graph, ctl.grid(), &nodes);
    let mut cur_score = score_trial(graph, &periods, &current, ctl, &snap, min_before);
    let mut best = Placement {
        assign: current.clone(),
        score: cur_score,
    };
    if movable.is_empty() || nodes.len() < 2 {
        return best;
    }

    let mut rng = SimRng::new(seed ^ 0xA11EA1);
    // Start warm enough to accept fragmentation-scale regressions,
    // cool geometrically to pure descent by the last iterations.
    let mut temp = 50_000_000.0f64;
    let cooling = (1e-4f64).powf(1.0 / f64::from(iters.max(1)));
    for _ in 0..iters {
        let t = movable[rng.gen_index(movable.len())];
        // A lone movable task has no swap partner: always move it.
        let undo = if movable.len() < 2 || rng.gen_bool(0.5) {
            // Move `t` to a random other router.
            let mut node = nodes[rng.gen_index(nodes.len())];
            while node == current[t] {
                node = nodes[rng.gen_index(nodes.len())];
            }
            let prev = current[t];
            current[t] = node;
            (t, prev, None)
        } else {
            // Swap `t` with another movable task.
            let mut u = movable[rng.gen_index(movable.len())];
            while u == t {
                u = movable[rng.gen_index(movable.len())];
            }
            current.swap(t, u);
            (t, current[u], Some(u))
        };
        let trial = score_trial(graph, &periods, &current, ctl, &snap, min_before);
        let delta = trial.scalar() as f64 - cur_score.scalar() as f64;
        let accept = delta <= 0.0 || rng.gen_f64() < (-delta / temp).exp();
        if accept {
            cur_score = trial;
            if trial < best.score {
                best.score = trial;
                best.assign.clone_from(&current);
            }
        } else {
            // Rewind the rejected move exactly.
            match undo {
                (t, prev, None) => current[t] = prev,
                (t, _, Some(u)) => current.swap(t, u),
            }
        }
        temp *= cooling;
    }
    best
}

/// A deterministic task-to-router mapping strategy, for sweep grids,
/// CLIs and library callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacerKind {
    /// Greedy constructive placement (hop-count × demand, heaviest
    /// tasks first).
    Greedy,
    /// Simulated annealing from the greedy solution, keeping the best
    /// assignment seen.
    Anneal {
        /// Candidate evaluations per placement (each one dry-run scores
        /// the whole edge set through the admission controller).
        iters: u32,
    },
}

impl PlacerKind {
    /// Stable short name for CSV columns (`greedy`, `anneal`).
    pub fn name(self) -> &'static str {
        match self {
            PlacerKind::Greedy => "greedy",
            PlacerKind::Anneal { .. } => "anneal",
        }
    }

    /// Maps `graph` onto `ctl.grid()` against the controller's current
    /// residual budgets. Leaves `ctl` exactly as found (dry-run only)
    /// and is a pure function of `(graph, ctl state, seed)`; `Greedy`
    /// ignores the seed.
    pub fn place(self, graph: &TaskGraph, ctl: &mut AdmissionController, seed: u64) -> Placement {
        match self {
            PlacerKind::Greedy => greedy(graph, ctl),
            PlacerKind::Anneal { iters } => anneal(graph, ctl, seed, iters),
        }
    }
}

impl fmt::Display for PlacerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use mango_core::RouterConfig;
    use mango_net::{Grid, NaConfig};

    fn controller(w: u8, h: u8) -> AdmissionController {
        AdmissionController::new(
            Grid::new(w, h),
            &RouterConfig::paper(),
            &NaConfig::paper(),
            0.875,
        )
    }

    #[test]
    fn scoring_is_a_dry_run() {
        let g = graph::vopd();
        let mut ctl = controller(4, 4);
        let mut before = BudgetSnapshot::default();
        ctl.save_budgets_into(&mut before);
        let p = PlacerKind::Greedy.place(&g, &mut ctl, 1);
        assert!(
            ctl.budgets_match(&before),
            "placement must not move budgets"
        );
        assert!(ctl.nothing_reserved());
        assert!(p.admissible(), "vopd fits an idle 4x4 mesh: {:?}", p.score);
        assert_eq!(p.assign.len(), g.tasks.len());
    }

    #[test]
    fn greedy_clusters_heavy_neighbors() {
        let g = graph::pipeline(4, 75_000_000);
        let mut ctl = controller(8, 8);
        let p = PlacerKind::Greedy.place(&g, &mut ctl, 1);
        // Consecutive pipeline stages land within a couple of hops.
        for e in &g.edges {
            let (a, b) = (p.assign[e.from], p.assign[e.to]);
            let hops = a.x.abs_diff(b.x) as u32 + a.y.abs_diff(b.y) as u32;
            assert!(
                hops <= 2,
                "stage {}->{} placed {hops} hops apart",
                e.from,
                e.to
            );
        }
    }

    #[test]
    fn affinity_is_honoured_by_both_placers() {
        let mut g = graph::pipeline(3, 10_000_000);
        g.tasks[0].affinity = Some(RouterId::new(0, 0));
        g.tasks[2].affinity = Some(RouterId::new(3, 3));
        let mut ctl = controller(4, 4);
        for kind in [PlacerKind::Greedy, PlacerKind::Anneal { iters: 40 }] {
            let p = kind.place(&g, &mut ctl, 9);
            assert_eq!(p.assign[0], RouterId::new(0, 0), "{kind}");
            assert_eq!(p.assign[2], RouterId::new(3, 3), "{kind}");
        }
    }

    #[test]
    fn tasks_pinned_off_the_grid_fail_their_edges_without_panicking() {
        let mut ctl = controller(4, 4);
        for (text, pinned) in [
            // One end off the grid.
            ("app a\ntask s w=1 at=9,9\ntask t w=1\nedge s t rate=10M", 1),
            // Both ends pinned to the same off-grid router: not
            // co-located, so the edge still counts.
            (
                "app a\ntask s w=1 at=9,9\ntask t w=1 at=9,9\nedge s t rate=10M",
                2,
            ),
        ] {
            let g = TaskGraph::parse(text).expect("valid graph");
            for kind in [PlacerKind::Greedy, PlacerKind::Anneal { iters: 16 }] {
                let p = kind.place(&g, &mut ctl, 3);
                assert!(!p.admissible(), "{kind}: {text:?}");
                assert_eq!(p.score.failures, 1, "{kind}: {text:?}");
                assert_eq!(p.assign[..pinned], vec![RouterId::new(9, 9); pinned]);
                assert!(ctl.nothing_reserved());
            }
        }
    }

    #[test]
    fn annealing_never_scores_worse_than_greedy() {
        for (graph, seed) in [
            (graph::vopd(), 1),
            (graph::mwd(), 2),
            (graph::random_dag(10, 60_000_000, 3), 3),
        ] {
            let mut ctl = controller(4, 4);
            let g = PlacerKind::Greedy.place(&graph, &mut ctl, seed);
            let a = PlacerKind::Anneal { iters: 64 }.place(&graph, &mut ctl, seed);
            assert!(
                a.score <= g.score,
                "{}: anneal {:?} worse than greedy {:?}",
                graph.name,
                a.score,
                g.score
            );
            assert!(ctl.nothing_reserved());
        }
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let g = graph::mwd();
        let mut ctl = controller(4, 4);
        let a = PlacerKind::Anneal { iters: 80 }.place(&g, &mut ctl, 42);
        let b = PlacerKind::Anneal { iters: 80 }.place(&g, &mut ctl, 42);
        assert_eq!(a, b, "same seed, same answer");
    }

    #[test]
    fn saturated_controller_yields_failures_not_panics() {
        let g = graph::vopd();
        let mut ctl = controller(2, 2);
        // 4 TX/RX interfaces per node on 4 nodes cannot host 14 edges
        // of 12 spread-out tasks; the score must say so.
        let p = PlacerKind::Greedy.place(&g, &mut ctl, 1);
        let _ = p.admissible(); // either way: no panic, budgets intact
        assert!(ctl.nothing_reserved());
    }
}
