//! Properties of the admission dry-run API: `probe` must answer exactly
//! what `request` would grant without moving a single budget counter.
//! The placement optimizer scores thousands of candidate mappings
//! through `probe` (and snapshot/restore brackets), so any divergence
//! between the dry run and the real decision would admit placements the
//! controller later refuses — the failure mode this suite pins down.

use mango_core::{Direction, RouterId};
use mango_net::{Grid, NaConfig, TopologySpec};
use mango_qos::{Admission, AdmissionController, BudgetSnapshot, ConnRequest};
use mango_sim::SimDuration;
use proptest::prelude::*;

fn controller(width: u8, height: u8) -> AdmissionController {
    controller_on(Grid::new(width, height))
}

fn controller_on(grid: Grid) -> AdmissionController {
    AdmissionController::new(
        grid,
        &mango_core::RouterConfig::paper(),
        &NaConfig::paper(),
        0.875,
    )
}

fn node(i: u32, width: u8, height: u8) -> RouterId {
    let n = u32::from(width) * u32::from(height);
    let i = i % n;
    RouterId::new((i % u32::from(width)) as u8, (i / u32::from(width)) as u8)
}

/// Commits `req` through `trial`'s commit-only entry and `plain`'s
/// `request`, checks the two agree, and hands back the ticket, if any.
fn compare(
    trial: &mut AdmissionController,
    plain: &mut AdmissionController,
    req: &ConnRequest,
) -> Result<Option<Admission>, TestCaseError> {
    let fast = trial.commit_trial(req);
    let ticket = plain.request(req);
    prop_assert_eq!(trial.snapshot(), plain.snapshot());
    prop_assert_eq!(fast.err(), ticket.as_ref().err().copied());
    if let (Ok(t), Ok(adm)) = (fast, &ticket) {
        prop_assert_eq!(t.hops, adm.hops());
        prop_assert_eq!(t.worst_latency_ns, adm.report.worst_latency_ns());
        let mut cur = adm.src;
        let mut path_min = u64::MAX;
        for &d in &adm.dirs {
            path_min = path_min.min(plain.residual_fps(cur, d));
            cur = plain.grid().neighbor(cur, d).expect("path stays on grid");
        }
        prop_assert_eq!(t.min_residual_fps, path_min);
    }
    Ok(ticket.ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Over any request history (some admitted, some rejected, some
    /// released), probing before requesting changes nothing: the probe
    /// answer equals the request answer, and the post-request state
    /// equals what a request alone would have produced.
    #[test]
    fn probe_then_request_equals_request_alone(
        width in 2u8..7,
        height in 2u8..7,
        reqs in prop::collection::vec((0u32..64, 0u32..64, 12u64..40), 1..24),
    ) {
        let mut probed = controller(width, height);
        let mut plain = controller(width, height);
        let mut held = Vec::new();
        for (a, b, period_ns) in reqs {
            let req = ConnRequest {
                src: node(a, width, height),
                dst: node(b, width, height),
                period: SimDuration::from_ns(period_ns),
            };
            let answer = probed.probe(&req);
            let committed = probed.request(&req);
            prop_assert_eq!(&answer, &committed);
            let alone = plain.request(&req);
            prop_assert_eq!(&committed, &alone);
            prop_assert_eq!(probed.snapshot(), plain.snapshot());
            if let Ok(adm) = committed {
                held.push(adm);
            }
        }
        // Releasing everything returns both controllers to idle.
        for adm in &held {
            probed.release(adm);
            plain.release(adm);
        }
        prop_assert!(probed.nothing_reserved());
        prop_assert_eq!(probed.snapshot(), plain.snapshot());
    }

    /// A rejected probe reserves nothing, on a fresh controller and
    /// after arbitrary prior traffic alike.
    #[test]
    fn rejected_probes_leave_nothing_reserved(
        width in 2u8..6,
        height in 2u8..6,
        same in 0u32..36,
        fast_pair in (0u32..36, 0u32..36),
    ) {
        let mut c = controller(width, height);
        // SameRouter rejection.
        let here = node(same, width, height);
        let same_router = ConnRequest {
            src: here,
            dst: here,
            period: SimDuration::from_ns(20),
        };
        let refused = c.probe(&same_router).is_err();
        prop_assert!(refused, "same-router probe must be refused");
        prop_assert!(c.nothing_reserved(), "SameRouter probe reserved budgets");
        // Unguaranteeable rejection: 3 ns is below any service interval.
        let (a, b) = fast_pair;
        let req = ConnRequest {
            src: node(a, width, height),
            dst: node(b, width, height),
            period: SimDuration::from_ns(3),
        };
        if req.src != req.dst {
            let refused = c.probe(&req).is_err();
            prop_assert!(refused, "3 ns probe must be unguaranteeable");
        }
        prop_assert!(c.nothing_reserved(), "rejected probe reserved budgets");
    }

    /// Save → speculative commits → restore is exact, for any trial
    /// sequence — the bracket the placer's scoring loop relies on.
    #[test]
    fn snapshot_restore_is_exact_around_any_trial(
        width in 2u8..6,
        height in 2u8..6,
        trial in prop::collection::vec((0u32..36, 0u32..36, 12u64..40), 1..12),
    ) {
        let mut c = controller(width, height);
        let mut snap = BudgetSnapshot::default();
        c.save_budgets_into(&mut snap);
        let before = c.snapshot();
        for (a, b, period_ns) in trial {
            let req = ConnRequest {
                src: node(a, width, height),
                dst: node(b, width, height),
                period: SimDuration::from_ns(period_ns),
            };
            let _ = c.request(&req);
        }
        c.restore_budgets(&snap);
        prop_assert_eq!(c.snapshot(), before);
        prop_assert!(c.nothing_reserved());
    }
    /// The commit-only trial entry is `request` without the ticket: on
    /// twin controllers it accepts and rejects the same requests for the
    /// same reason, moves every budget identically, and reports the
    /// ticket's hops, latency bound and post-debit path minimum. Every
    /// case opens with a row-crossing request whose XY route has a
    /// drained link (a forced BFS detour; on the chiplet grid it also
    /// crosses a D2D seam), then fails random links and replays random
    /// requests. Probes interleaved between trials share the path
    /// scratch and must not show.
    #[test]
    fn commit_trial_equals_request_without_the_ticket(
        chiplet in any::<bool>(),
        drained in (0u8..3, 0u8..4),
        failed in prop::collection::vec((0u32..16, 0usize..4), 0..5),
        reqs in prop::collection::vec((0u32..16, 0u32..16, 12u64..40, any::<bool>()), 1..32),
    ) {
        let grid = if chiplet {
            Grid::from_spec(&TopologySpec::chiplet(2, 2, 2, 2))
        } else {
            Grid::new(4, 4)
        };
        let mut trial = controller_on(grid.clone());
        let mut plain = controller_on(grid.clone());
        let (x, y) = drained;
        for c in [&mut trial, &mut plain] {
            (0..7).for_each(|_| c.mark_stuck_vc(RouterId::new(x, y), Direction::East));
        }
        let across = ConnRequest {
            src: RouterId::new(0, y),
            dst: RouterId::new(3, y),
            period: SimDuration::from_ns(20),
        };
        let adm = compare(&mut trial, &mut plain, &across)?.expect("a 4x4 grid detours round one drained link");
        prop_assert!(!adm.xy && adm.hops() == 5, "expected a detour, got {:?}", adm.dirs);
        // The bound carries exactly the detour's D2D extras — at least
        // the one seam any path along a row of the chiplet grid crosses.
        let extra = adm.report.worst_latency.expect("conforming")
            - plain.model().report(5, across.period).worst_latency.expect("conforming");
        prop_assert_eq!(extra, mango_qos::path_extras(&grid, adm.src, &adm.dirs).0);
        prop_assert_eq!(extra >= mango_net::d2d_extra_default(), chiplet);

        for (at, dir) in failed {
            let (from, dir) = (node(at, 4, 4), Direction::ALL[dir]);
            if grid.neighbor(from, dir).is_some() {
                trial.fail_link(from, dir);
                plain.fail_link(from, dir);
            }
        }
        for (a, b, period_ns, probe_first) in reqs {
            let req = ConnRequest {
                src: node(a, 4, 4),
                dst: node(b, 4, 4),
                period: SimDuration::from_ns(period_ns),
            };
            if probe_first {
                let _ = trial.probe(&ConnRequest { src: req.dst, dst: req.src, ..req });
            }
            compare(&mut trial, &mut plain, &req)?;
        }
    }
}
