//! Properties of the admission dry-run API: `probe` must answer exactly
//! what `request` would grant without moving a single budget counter.
//! The placement optimizer scores thousands of candidate mappings
//! through `probe` (and snapshot/restore brackets), so any divergence
//! between the dry run and the real decision would admit placements the
//! controller later refuses — the failure mode this suite pins down.

use mango_core::{Direction, RouterId};
use mango_net::{ConnError, ConnectionManager, Grid, NaConfig, RelayTable, TopologySpec};
use mango_qos::{Admission, AdmissionController, BudgetSnapshot, ConnRequest, PathExtras};
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

/// Every budget counter of `ctl`, for exact state comparison.
fn budgets(ctl: &AdmissionController) -> BudgetSnapshot {
    let mut snap = BudgetSnapshot::default();
    ctl.save_budgets_into(&mut snap);
    snap
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
    prop_assert_eq!(budgets(trial), budgets(plain));
    prop_assert_eq!(fast.err(), ticket.as_ref().err().copied());
    if let (Ok(t), Ok(adm)) = (fast, &ticket) {
        prop_assert_eq!(t.hops, adm.hops());
        prop_assert_eq!(t.worst_latency, adm.report.worst_latency);
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

/// The XY route from `src` to `dst`, expanded from [`Grid::axis_legs`].
fn xy_dirs(grid: &Grid, src: RouterId, dst: RouterId) -> Vec<Direction> {
    grid.axis_legs(src, dst)
        .into_iter()
        .flat_map(|(dir, hops)| std::iter::repeat_n(dir, hops.into()))
        .collect()
}

/// Whether `req`'s XY route admits, read from the controller's public
/// accessors only: every link exists and is up, and has a free VC and
/// the request's rate in residual bandwidth.
fn xy_route_admits(ctl: &AdmissionController, req: &ConnRequest) -> bool {
    let (grid, rate_fps) = (ctl.grid(), AdmissionController::rate_fps(req.period));
    let mut cur = req.src;
    for dir in xy_dirs(grid, req.src, req.dst) {
        let Some(next) = grid.neighbor(cur, dir) else {
            return false;
        };
        if !grid.link_up(cur, dir)
            || ctl.free_vcs(cur, dir) == 0
            || ctl.residual_fps(cur, dir) < rate_fps
        {
            return false;
        }
        cur = next;
    }
    true
}

/// Hop distance from `src` to every router over up links, by repeated
/// relaxation until nothing changes (`None` = unreachable) — a flood
/// fill that shares no code with the breadth-first detour search.
fn flood_fill(grid: &Grid, src: RouterId) -> Vec<Option<usize>> {
    let mut dist = vec![None; grid.len()];
    dist[grid.index(src)] = Some(0);
    let mut changed = true;
    while changed {
        changed = false;
        for at in grid.ids() {
            let Some(d) = dist[grid.index(at)] else {
                continue;
            };
            for dir in Direction::ALL {
                if !grid.link_up(at, dir) {
                    continue;
                }
                let next = grid.index(grid.neighbor(at, dir).expect("an up link exists"));
                if dist[next].is_none_or(|n| n > d + 1) {
                    dist[next] = Some(d + 1);
                    changed = true;
                }
            }
        }
    }
    dist
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
            prop_assert_eq!(budgets(&probed), budgets(&plain));
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
        prop_assert_eq!(budgets(&probed), budgets(&plain));
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
        let before = budgets(&c);
        for (a, b, period_ns) in trial {
            let req = ConnRequest {
                src: node(a, width, height),
                dst: node(b, width, height),
                period: SimDuration::from_ns(period_ns),
            };
            let _ = c.request(&req);
        }
        c.restore_budgets(&snap);
        prop_assert_eq!(budgets(&c), before);
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
            - plain.model().report(&PathExtras::uniform(5), across.period).worst_latency.expect("conforming");
        prop_assert_eq!(extra, mango_qos::path_extras(&grid, adm.src, &adm.dirs).extra_total);
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

    /// An oracle for the controller's XY route table that shares none of
    /// its code. Over histories that interleave requests between a few
    /// hot routers with releases, link failures, stuck VCs and router
    /// fail-stops, on a mesh, a torus and a chiplet grid: a request is
    /// granted on its XY route exactly when that route admits by the
    /// public budget view and both endpoint interfaces are free; an XY
    /// ticket's `dirs` are the `axis_legs` route; and every ticket's bound
    /// is what `report_along` composes over its path.
    #[test]
    fn xy_grants_match_a_public_accessor_oracle(
        topology in 0u8..3,
        hot in prop::collection::vec(0u32..64, 6..7),
        ops in prop::collection::vec((0u8..12, 0usize..6, 0usize..6, 12u64..40), 1..64),
    ) {
        let grid = Grid::from_spec(&match topology {
            0 => TopologySpec::mesh(5, 4),
            1 => TopologySpec::torus(4, 4),
            _ => TopologySpec::chiplet(2, 2, 4, 4),
        });
        let hot: Vec<RouterId> = hot
            .into_iter()
            .map(|i| node(i, grid.width(), grid.height()))
            .collect();
        let mut ctl = controller_on(grid);
        let mut held: Vec<Admission> = Vec::new();
        for (op, a, b, period_ns) in ops {
            let (at, dir) = (hot[a], Direction::ALL[b % 4]);
            let has_link = ctl.grid().neighbor(at, dir).is_some();
            match op {
                0..=6 => {
                    let req = ConnRequest {
                        src: hot[a],
                        dst: hot[b],
                        period: SimDuration::from_ns(period_ns),
                    };
                    if req.src == req.dst {
                        continue;
                    }
                    // Interfaces are debited by grants and credited by
                    // releases only: count the tickets held at each end.
                    let ifaces = mango_core::RouterConfig::paper().local_gs_ifaces();
                    let ifaces = held.iter().filter(|h| h.src == req.src).count() < ifaces
                        && held.iter().filter(|h| h.dst == req.dst).count() < ifaces;
                    let xy_admits = xy_route_admits(&ctl, &req);
                    let granted = ctl.request(&req);
                    let granted_xy = matches!(granted, Ok(Admission { xy: true, .. }));
                    prop_assert!(
                        granted_xy == (ifaces && xy_admits),
                        "{:?} -> {:?}, oracle: ifaces {} XY route {}",
                        req,
                        granted,
                        ifaces,
                        xy_admits
                    );
                    if let Ok(adm) = granted {
                        if adm.xy {
                            prop_assert_eq!(&adm.dirs, &xy_dirs(ctl.grid(), req.src, req.dst));
                        }
                        let along = ctl.model().report_along(ctl.grid(), adm.src, &adm.dirs, req.period);
                        prop_assert_eq!(&adm.report, &along);
                        held.push(adm);
                    }
                }
                7 | 8 if !held.is_empty() => {
                    let adm = held.swap_remove(a % held.len());
                    ctl.release(&adm);
                }
                9 if has_link => ctl.fail_link(at, dir),
                10 if has_link => ctl.mark_stuck_vc(at, dir),
                11 if b == 0 => ctl.fail_router(at),
                _ => {}
            }
        }
        for adm in &held {
            ctl.release(adm);
        }
        prop_assert!(ctl.nothing_reserved());
    }

    /// Admission and the data plane run one detour search. On random
    /// link and router fault sets over a mesh, a torus and a chiplet
    /// grid, for every pair: a fresh controller's probe at a slack
    /// period grants exactly `route_avoiding`'s path, or both refuse;
    /// the path is the XY route when every XY link is up; otherwise it
    /// is a simple path over up links to the destination, no longer
    /// than the flood-fill distance. The connection manager opens that
    /// path and books only up links, or — links fail one direction at a
    /// time — finds no route for a programming packet or an ack and
    /// books nothing.
    #[test]
    fn admission_and_the_data_plane_pick_the_same_detour(
        topology in 0u8..3,
        links in prop::collection::vec((0u32..64, 0usize..4), 0..14),
        routers in prop::collection::vec(0u32..64, 0..3),
    ) {
        let mut grid = Grid::from_spec(&match topology {
            0 => TopologySpec::mesh(5, 4),
            1 => TopologySpec::torus(4, 4),
            _ => TopologySpec::chiplet(2, 1, 3, 3),
        });
        let (w, h) = (grid.width(), grid.height());
        let mut ctl = controller_on(grid.clone());
        for (at, dir) in links {
            let (from, dir) = (node(at, w, h), Direction::ALL[dir]);
            if grid.neighbor(from, dir).is_some() {
                grid.fail_link(from, dir);
                ctl.fail_link(from, dir);
            }
        }
        for at in routers {
            grid.fail_router(node(at, w, h));
            ctl.fail_router(node(at, w, h));
        }
        for src in grid.ids() {
            let dist = flood_fill(&grid, src);
            for dst in grid.ids().filter(|&dst| dst != src) {
                let req = ConnRequest { src, dst, period: SimDuration::from_ns(100) };
                let data = mango_net::route_avoiding(&grid, src, dst);
                let probed = ctl.probe(&req);
                let reachable = dist[grid.index(dst)];
                let (dirs, adm) = match (data, probed) {
                    (Ok(dirs), Ok(adm)) => (dirs, adm),
                    (Err(_), Err(reason)) => {
                        prop_assert_eq!(reason, mango_qos::RejectReason::NoPath);
                        prop_assert!(reachable.is_none(), "{} -> {} refused but reachable", src, dst);
                        continue;
                    }
                    (data, probed) => {
                        return Err(TestCaseError::fail(format!(
                            "{src} -> {dst}: data plane {data:?}, admission {probed:?}"
                        )));
                    }
                };
                prop_assert!(adm.dirs == dirs, "{} -> {}: admission {:?}, data plane {:?}", src, dst, adm.dirs, dirs);
                let mut conns = ConnectionManager::new(&grid, 7, 4);
                match conns.open_along(&grid, &mut RelayTable::new(), src, dst, &dirs) {
                    Ok(plan) => {
                        let booked = conns.get(plan.id).expect("an open books a record");
                        let mut at = src;
                        for &dir in &booked.dirs {
                            prop_assert!(grid.link_up(at, dir), "{} -> {} books {}->{}", src, dst, at, dir);
                            at = grid.neighbor(at, dir).expect("the booked path stays on the grid");
                        }
                    }
                    Err(ConnError::Route(_)) => prop_assert!(conns.nothing_reserved()),
                    Err(e) => return Err(TestCaseError::fail(format!("{src} -> {dst} along {dirs:?}: {e}"))),
                }
                let xy = xy_dirs(&grid, src, dst);
                let mut cur = src;
                let xy_up = xy.iter().all(|&dir| {
                    let up = grid.link_up(cur, dir);
                    cur = grid.neighbor(cur, dir).unwrap_or(cur);
                    up
                });
                prop_assert!(adm.xy == xy_up, "{} -> {}: xy {} but every XY link up {}", src, dst, adm.xy, xy_up);
                if xy_up {
                    prop_assert_eq!(&dirs, &xy);
                    continue;
                }
                let mut seen = vec![src];
                for &dir in &dirs {
                    let at = *seen.last().expect("starts at src");
                    prop_assert!(grid.link_up(at, dir), "{} -> {} crosses {}->{}", src, dst, at, dir);
                    let next = grid.neighbor(at, dir).expect("an up link exists");
                    prop_assert!(!seen.contains(&next), "{} -> {} revisits {}", src, dst, next);
                    seen.push(next);
                }
                prop_assert_eq!(seen.last(), Some(&dst));
                prop_assert!(
                    reachable.is_some_and(|d| dirs.len() <= d),
                    "{} -> {}: {} links, flood fill {:?}",
                    src,
                    dst,
                    dirs.len(),
                    reachable
                );
            }
        }
    }
}
