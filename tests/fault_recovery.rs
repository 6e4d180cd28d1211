//! Fault-recovery invariants: whatever sequence of faults, teardowns
//! and reroutes hits the admission controller and the connection
//! manager, every reserved budget comes back exactly — no leaks, no
//! double frees — and force-closed state is quarantined, not lost.

use mango::core::{Direction, RouterConfig, RouterId};
use mango::net::{Grid, NaConfig};
use mango::qos::{AdmissionController, BudgetSnapshot, ConnRequest};
use mango::sim::SimDuration;
use proptest::prelude::*;

const SIDE: u8 = 4;

fn controller() -> AdmissionController {
    AdmissionController::new(
        Grid::new(SIDE, SIDE),
        &RouterConfig::paper(),
        &NaConfig::paper(),
        0.875,
    )
}

/// Every budget counter of `ctl`, for exact state comparison.
fn budgets(ctl: &AdmissionController) -> BudgetSnapshot {
    let mut snap = BudgetSnapshot::default();
    ctl.save_budgets_into(&mut snap);
    snap
}

fn router() -> impl Strategy<Value = RouterId> {
    (0..SIDE, 0..SIDE).prop_map(|(x, y)| RouterId::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Admit a batch of connections, kill arbitrary links, then put
    /// every survivor through the recovery cycle (release → re-request
    /// over the surviving links → release again). The controller's
    /// budget counters must land back on the pristine snapshot: faults
    /// mask links out of the path search, they never consume budget.
    #[test]
    fn fault_teardown_reroute_returns_budgets_exactly(
        pairs in prop::collection::vec((router(), router()), 1..8),
        faults in prop::collection::vec((router(), 0usize..4), 0..6),
        period_ns in 12u64..40,
    ) {
        let mut ctl = controller();
        let pristine = budgets(&ctl);
        let period = SimDuration::from_ns(period_ns);

        // Phase 1: admit whatever fits.
        let mut held = Vec::new();
        for (src, dst) in pairs {
            if src == dst {
                continue;
            }
            if let Ok(adm) = ctl.request(&ConnRequest { src, dst, period }) {
                held.push(adm);
            }
        }

        // Phase 2: the fabric breaks (only links that exist can fail).
        let grid = Grid::new(SIDE, SIDE);
        for (from, d) in faults {
            let dir = Direction::ALL[d];
            if grid.neighbor(from, dir).is_some() {
                ctl.fail_link(from, dir);
            }
        }

        // Phase 3: teardown + reroute every held connection over the
        // surviving links; some re-requests fail (partition), and that
        // must not leak either.
        let mut rerouted = Vec::new();
        for adm in held {
            let req = ConnRequest { src: adm.src, dst: adm.dst, period };
            ctl.release(&adm);
            if let Ok(again) = ctl.request(&req) {
                rerouted.push(again);
            }
        }

        // Phase 4: drain. Every budget counter is exactly pristine.
        for adm in rerouted {
            ctl.release(&adm);
        }
        prop_assert_eq!(budgets(&ctl), pristine);
    }

    /// Releasing in any interleaving (not just LIFO) is exact: admit,
    /// fault, then release in an arbitrary order.
    #[test]
    fn release_order_is_irrelevant(
        pairs in prop::collection::vec((router(), router()), 2..6),
        faults in prop::collection::vec((router(), 0usize..4), 0..4),
        release_seed in any::<u64>(),
    ) {
        let mut ctl = controller();
        let pristine = budgets(&ctl);
        let period = SimDuration::from_ns(15);
        let mut held = Vec::new();
        for (src, dst) in pairs {
            if src == dst {
                continue;
            }
            if let Ok(adm) = ctl.request(&ConnRequest { src, dst, period }) {
                held.push(adm);
            }
        }
        let grid = Grid::new(SIDE, SIDE);
        for (from, d) in faults {
            let dir = Direction::ALL[d];
            if grid.neighbor(from, dir).is_some() {
                ctl.fail_link(from, dir);
            }
        }
        // A deterministic shuffle of the release order.
        let mut order: Vec<usize> = (0..held.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (release_seed as usize).wrapping_mul(i) % (i + 1));
        }
        for i in order {
            ctl.release(&held[i]);
        }
        prop_assert_eq!(budgets(&ctl), pristine);
    }
}

/// The connection-manager side of the same contract: force-closing an
/// Open connection (the partition path — no in-band teardown possible)
/// returns every budget bit exactly, quarantines the remote router
/// state it could not prove clean, and leaves the fabric usable.
#[test]
fn force_close_returns_budgets_and_quarantines() {
    for seed in 0..8u64 {
        let mut sim = mango::net::NocSim::paper_mesh(4, 4, 1000 + seed);
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(3, 0);
        let other = (RouterId::new(0, 3), RouterId::new(3, 3));

        let a = sim.open_connection(src, dst).expect("idle mesh admits");
        let b = sim
            .open_connection(other.0, other.1)
            .expect("disjoint row admits");
        sim.wait_connections_settled().expect("programming settles");

        // Partition-style teardown: no in-band close, straight to
        // force-close for both.
        let plan_a = sim.force_close_connection(a).expect("force-close a");
        let plan_b = sim.force_close_connection(b).expect("force-close b");
        // Open connections cannot prove remote hops clean.
        assert!(plan_a.quarantined_hops > 0, "seed {seed}");
        assert!(plan_b.quarantined_hops > 0, "seed {seed}");

        let conns = sim.network().connections();
        assert!(
            conns.nothing_reserved(),
            "seed {seed}: budgets must return exactly"
        );
        assert!(
            conns.quarantined_count() > 0,
            "seed {seed}: unproven remote state must be quarantined"
        );

        // The fabric stays usable: a fresh connection on the same rows
        // still opens (quarantine shrinks the pool, it does not wedge
        // the mesh).
        let again = sim
            .open_connection(src, dst)
            .expect("VCs remain after quarantine");
        sim.wait_connections_settled().expect("reopen settles");
        sim.close_connection(again).expect("in-band close");
        sim.wait_connections_settled().expect("close settles");
    }
}

/// A cross-chiplet connection whose seam link dies reroutes over the
/// surviving D2D link, and the recomputed bound stays path-aware: the
/// detour still pays exactly one D2D crossing. Cutting the last seam
/// link partitions the package and admission reports [`RejectReason::NoPath`].
#[test]
fn cross_chiplet_connection_reroutes_around_a_dead_boundary_link() {
    use mango::net::{d2d_extra_default, TopologySpec};
    use mango::qos::{PathExtras, RejectReason, ServiceModel};

    // 2×1 chiplets of 2×2 nodes: a 4×2 package whose single x-seam
    // between columns 1|2 is crossed by exactly two eastward links.
    let grid = Grid::from_spec(&TopologySpec::chiplet(2, 1, 2, 2));
    let mut ctl = AdmissionController::new(
        grid.clone(),
        &RouterConfig::paper(),
        &NaConfig::paper(),
        0.875,
    );
    let period = SimDuration::from_ns(20);
    let req = ConnRequest {
        src: RouterId::new(0, 0),
        dst: RouterId::new(3, 0),
        period,
    };
    let flat = |hops| ServiceModel::paper().report(&PathExtras::uniform(hops), period);
    let d2d = d2d_extra_default();

    let adm = ctl.request(&req).expect("pristine package admits");
    assert_eq!(adm.hops(), 3);
    assert!(adm.xy);
    assert_eq!(
        adm.report.worst_latency.unwrap(),
        flat(3).worst_latency.unwrap() + d2d,
        "the admitted bound pays exactly one D2D crossing"
    );

    // The seam link under the XY route dies; teardown + re-admission
    // must find the detour over the surviving seam link at (1,1).
    ctl.fail_link(RouterId::new(1, 0), Direction::East);
    ctl.release(&adm);
    let healed = ctl.request(&req).expect("the second seam link survives");
    assert!(!healed.xy);
    assert_eq!(healed.hops(), 5);
    assert_eq!(
        healed.report.worst_latency.unwrap(),
        flat(5).worst_latency.unwrap() + d2d,
        "the detour still pays exactly one D2D crossing"
    );

    // Cutting the last seam link disconnects the chips: no amount of
    // detouring crosses a severed package boundary.
    ctl.fail_link(RouterId::new(1, 1), Direction::East);
    ctl.release(&healed);
    assert_eq!(ctl.request(&req).unwrap_err(), RejectReason::NoPath);
}

/// The full recovery engine on a partitioned package: both seam links
/// die under the only cross-die stream. No reroute exists, so the
/// outcome is a clean rejection/degradation — never a bound violation.
#[test]
fn partitioned_chiplets_degrade_instead_of_violating_bounds() {
    use mango::net::{FaultKind, FaultSchedule, MeasureBound, ScenarioSpec, TopologySpec};
    use mango::qos::{RecoveryOutcome, RecoverySpec};
    use mango::sim::SimTime;

    let mut spec = RecoverySpec::mesh(4, 2, 9);
    spec.base = ScenarioSpec::on_topology(TopologySpec::chiplet(2, 1, 2, 2), 9);
    spec.base.measure = MeasureBound::For(SimDuration::from_us(40));
    spec.managed = vec![(RouterId::new(0, 0), RouterId::new(3, 0))];
    spec.gs_period = SimDuration::from_ns(20);
    let at = SimTime::ZERO + SimDuration::from_us(5);
    spec.faults = FaultSchedule::new(9 ^ 0xFA_17)
        .with(
            at,
            FaultKind::LinkDown {
                from: RouterId::new(1, 0),
                dir: Direction::East,
            },
        )
        .with(
            at,
            FaultKind::LinkDown {
                from: RouterId::new(1, 1),
                dir: Direction::East,
            },
        );
    let m = spec.run();
    assert_eq!(m.broken, 1, "the cross-die stream must break");
    let victim = &m.records[0];
    assert!(
        matches!(
            victim.outcome,
            Some(RecoveryOutcome::Rejected | RecoveryOutcome::PermanentlyDegraded)
        ),
        "a severed package cannot heal: {victim:?}"
    );
    assert_eq!(m.post_bound_violations(), 0);
}

/// Randomized seam faults from [`FaultSchedule::random_boundary_links`]
/// hit only D2D links, and whatever they break the engine either heals
/// or degrades cleanly — recomputed bounds hold in every outcome.
#[test]
fn random_boundary_faults_never_violate_recomputed_bounds() {
    use mango::net::{FaultSchedule, MeasureBound, ScenarioSpec, TopologySpec};
    use mango::qos::RecoverySpec;
    use mango::sim::SimTime;

    for seed in [3u64, 17, 41] {
        let topo = TopologySpec::chiplet(2, 2, 2, 2);
        let grid = Grid::from_spec(&topo);
        let mut spec = RecoverySpec::mesh(4, 4, seed);
        spec.base = ScenarioSpec::on_topology(topo, seed);
        spec.base.measure = MeasureBound::For(SimDuration::from_us(40));
        // Both managed streams cross a die seam.
        spec.managed = vec![
            (RouterId::new(0, 0), RouterId::new(3, 3)),
            (RouterId::new(0, 3), RouterId::new(3, 0)),
        ];
        spec.gs_period = SimDuration::from_ns(20);
        spec.faults = FaultSchedule::random_boundary_links(
            &grid,
            seed,
            2,
            SimTime::ZERO + SimDuration::from_us(5),
            SimTime::ZERO + SimDuration::from_us(15),
        )
        .expect("a chiplet grid has D2D links");
        let m = spec.run();
        assert_eq!(
            m.post_bound_violations(),
            0,
            "seed {seed}: a recomputed bound was violated"
        );
        for r in &m.records {
            if r.recovered_at.is_some() {
                assert!(r.outcome.is_some(), "seed {seed}: healed without outcome");
            }
        }
    }
}
