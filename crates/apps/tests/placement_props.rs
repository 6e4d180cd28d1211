//! Properties tying the placement optimizer to the real admission
//! controller. The placer's claim is strong: a score of zero failures
//! is a *proof* that the whole connection set admits right now, because
//! scoring commits every edge through the same controller, in the same
//! order, with the same bound check the serving engine replays later.
//! These properties pin that equivalence down, plus the exact-budget-
//! return and cross-thread-determinism contracts the capacity sweeps
//! rely on.

use mango_apps::{graph, score_assignment, Placement, PlacementScore, PlacerKind, TaskGraph};
use mango_core::{Direction, RouterId};
use mango_net::{Grid, NaConfig, TopologySpec};
use mango_qos::{AdmissionController, BudgetSnapshot, ConnRequest};
use mango_sim::SimRng;
use proptest::prelude::*;

fn controller(width: u8, height: u8) -> AdmissionController {
    controller_on(Grid::new(width, height))
}

/// Every budget counter of `ctl`, for exact state comparison.
fn budgets(ctl: &AdmissionController) -> BudgetSnapshot {
    let mut snap = BudgetSnapshot::default();
    ctl.save_budgets_into(&mut snap);
    snap
}

fn controller_on(grid: Grid) -> AdmissionController {
    AdmissionController::new(
        grid,
        &mango_core::RouterConfig::paper(),
        &NaConfig::paper(),
        0.875,
    )
}

/// A small task graph drawn from every generator family.
fn make_graph(kind: u8, n: usize, rate: u64, seed: u64) -> TaskGraph {
    match kind % 4 {
        0 => graph::pipeline(n.max(2), rate),
        1 => graph::fork_join(n % 4 + 1, rate),
        2 => graph::stencil(2 + n % 2, 2, rate),
        _ => graph::random_dag(n.max(2), rate, seed),
    }
}

/// `score_assignment` the slow, obviously-right way: a ticketed
/// `request` per edge and a scan of every link budget before and after.
fn reference_score(
    graph: &TaskGraph,
    assign: &[RouterId],
    ctl: &mut AdmissionController,
) -> PlacementScore {
    let mut snap = BudgetSnapshot::default();
    ctl.save_budgets_into(&mut snap);
    let min_before = ctl.budget_summary().residual_fps_min;
    let (mut failures, mut hop_demand) = (0u32, 0u64);
    for e in &graph.edges {
        let (src, dst) = (assign[e.from], assign[e.to]);
        if src == dst {
            continue;
        }
        let period = TaskGraph::period(e.rate_fps);
        let within_bound =
            ctl.request(&ConnRequest { src, dst, period })
                .ok()
                .filter(|adm| {
                    match (e.bound_ns, adm.report.worst_latency.map(|d| d.as_ns_f64())) {
                        (Some(bound), Some(worst)) => worst <= bound as f64,
                        (Some(_), None) => false,
                        (None, _) => true,
                    }
                });
        match within_bound {
            Some(adm) => hop_demand += adm.hops() as u64 * (e.rate_fps / 1_000_000).max(1),
            None => failures += 1,
        }
    }
    let min_after = ctl.budget_summary().residual_fps_min;
    ctl.restore_budgets(&snap);
    PlacementScore {
        failures,
        frag_milli: (1000 - (1000 * min_after) / min_before.max(1)) as u32,
        hop_demand,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The O(path) scorer returns exactly the score of the reference
    /// above — on mesh, torus and chiplet grids, over controllers loaded
    /// with live admissions and then damaged (failed links keep their
    /// debited residuals out of the minimum; stuck VCs force detours),
    /// for graphs with latency-bounded edges and co-located tasks — and
    /// leaves every budget where it found it.
    #[test]
    fn fast_scorer_matches_the_rescanning_reference(
        topo in 0u8..3,
        loaded in prop::collection::vec((0u32..64, 0u32..64, 11u64..40), 0..40),
        damage in prop::collection::vec((0u32..64, 0usize..4, any::<bool>()), 0..8),
        tasks in prop::collection::vec(0u32..64, 2..9),
        crowd in any::<bool>(),
        edges in prop::collection::vec(
            (0usize..9, 0usize..9, 4_000_000u64..95_000_000, 0u64..140),
            1..16,
        ),
    ) {
        let grid = Grid::from_spec(&match topo {
            0 => TopologySpec::mesh(4, 4),
            1 => TopologySpec::torus(4, 4),
            _ => TopologySpec::chiplet(2, 2, 4, 4),
        });
        let node = |i: u32| grid.id_at(i as usize % grid.len());
        let mut ctl = controller_on(grid.clone());
        for (a, b, period_ns) in loaded {
            let period = mango_sim::SimDuration::from_ns(period_ns);
            let _ = ctl.request(&ConnRequest { src: node(a), dst: node(b), period });
        }
        for (at, dir, fail) in damage {
            let (from, dir) = (node(at), Direction::ALL[dir]);
            if grid.neighbor(from, dir).is_none() {
                continue;
            }
            if fail {
                ctl.fail_link(from, dir);
            } else {
                (0..7).for_each(|_| ctl.mark_stuck_vc(from, dir));
            }
        }

        // `crowd` squeezes the tasks onto four routers: co-located
        // edges, and the rest contending for the same few links.
        let assign: Vec<RouterId> = tasks
            .iter()
            .map(|&t| node(if crowd { t % 4 } else { t }))
            .collect();
        let mut g = TaskGraph::new("random");
        for i in 0..assign.len() {
            g.task(format!("t{i}"), 1);
        }
        for (from, to, rate_fps, bound_ns) in edges {
            let (from, to) = (from % assign.len(), to % assign.len());
            // A third of the edges carry a bound around the 2–6 hop range.
            if bound_ns < 45 {
                g.edge_bounded(from, to, rate_fps, 30 + 2 * bound_ns);
            } else {
                g.edge(from, to, rate_fps);
            }
        }

        let before = budgets(&ctl);
        let expected = reference_score(&g, &assign, &mut ctl);
        prop_assert_eq!(budgets(&ctl), before.clone());
        let mut snap = BudgetSnapshot::default();
        let fast = score_assignment(&g, &assign, &mut ctl, &mut snap);
        prop_assert_eq!(fast, expected);
        prop_assert_eq!(budgets(&ctl), before);
    }

    /// An optimizer-accepted placement (zero failures) admits fully
    /// through a real controller — every inter-node edge, in
    /// declaration order, within its latency bound — and releasing the
    /// admissions in *any* order, with probes interleaved, returns the
    /// budgets exactly to idle.
    #[test]
    fn admissible_placements_admit_fully_and_release_exactly(
        width in 3u8..6,
        height in 3u8..6,
        kind in 0u8..4,
        n in 2usize..8,
        rate in 5_000_000u64..60_000_000,
        gseed in 0u64..1000,
        anneal in any::<bool>(),
        seed in 0u64..1000,
        shuffle_seed in 0u64..1000,
    ) {
        let g = make_graph(kind, n, rate, gseed);
        let mut ctl = controller(width, height);
        let idle = budgets(&ctl);
        let placer = if anneal {
            PlacerKind::Anneal { iters: 16 }
        } else {
            PlacerKind::Greedy
        };
        let placement = placer.place(&g, &mut ctl, seed);
        prop_assert!(ctl.nothing_reserved(), "placement must be a dry run");
        prop_assert_eq!(budgets(&ctl), idle.clone());
        prop_assume!(placement.admissible());

        // Replay exactly as the serving engine's commit pass does.
        let mut held = Vec::new();
        for e in &g.edges {
            let (src, dst) = (placement.assign[e.from], placement.assign[e.to]);
            if src == dst {
                continue;
            }
            let req = ConnRequest { src, dst, period: TaskGraph::period(e.rate_fps) };
            let adm = match ctl.request(&req) {
                Ok(adm) => adm,
                Err(reason) => {
                    return Err(TestCaseError::fail(format!(
                        "edge {}->{} of an admissible placement refused: {reason:?}",
                        e.from, e.to
                    )));
                }
            };
            if let (Some(bound), Some(worst)) = (e.bound_ns, adm.report.worst_latency.map(|d| d.as_ns_f64())) {
                let within = worst <= bound as f64;
                prop_assert!(within, "admissible placement broke a latency bound");
            }
            held.push(adm);
        }

        // Depart in a shuffled order, probing between releases: budgets
        // must return exactly to idle regardless of the interleaving.
        let mut shuffle = SimRng::new(shuffle_seed);
        let mut order: Vec<usize> = (0..held.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle.gen_index(i + 1));
        }
        for idx in order {
            let probe = ConnRequest {
                src: mango_core::RouterId::new(0, 0),
                dst: mango_core::RouterId::new(width - 1, height - 1),
                period: TaskGraph::period(rate),
            };
            let _ = ctl.probe(&probe);
            ctl.release(&held[idx]);
        }
        prop_assert!(ctl.nothing_reserved(), "departure leaked budgets");
        prop_assert_eq!(budgets(&ctl), idle);
    }

    /// The annealing placer is byte-deterministic for a fixed seed, no
    /// matter how many threads compute it concurrently — the guarantee
    /// behind the sweep's identical CSVs at `--threads 1` vs `4`.
    #[test]
    fn annealing_is_byte_deterministic_across_threads(
        width in 3u8..6,
        height in 3u8..6,
        kind in 0u8..4,
        n in 2usize..8,
        rate in 5_000_000u64..40_000_000,
        gseed in 0u64..500,
        seed in 0u64..500,
    ) {
        let g = make_graph(kind, n, rate, gseed);
        let solve = || {
            let mut ctl = controller(width, height);
            PlacerKind::Anneal { iters: 24 }.place(&g, &mut ctl, seed)
        };
        let reference = format!("{:?}", solve());
        for workers in [2usize, 4] {
            let results: Vec<Placement> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(solve)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
            for r in results {
                prop_assert_eq!(format!("{r:?}"), reference.clone());
            }
        }
    }
}
