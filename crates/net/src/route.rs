//! Paths: dimension-ordered (XY) routes and the one detour search.
//!
//! XY routing (Sec. 5: "To avoid deadlocks XY-routing is employed")
//! moves fully in X first, then in Y. On a mesh this admits no cyclic
//! channel dependencies, so BE worm-hole routing cannot deadlock and GS
//! connection paths never cross themselves. The axis legs come from
//! [`Grid::axis_legs`] and [`xy_dirs`] is their one expansion into link
//! directions, so the same code routes a torus (each axis takes the
//! shorter way round, ≤ ⌈k/2⌉ hops) and a chiplet mesh (plain global XY
//! — the D2D boundary affects delay, not direction) without any
//! coordinate arithmetic here.
//!
//! When the XY route cannot be used, [`bfs_into`] finds a shortest
//! detour over the links a predicate accepts: [`route_avoiding`] passes
//! [`Grid::link_up`] (BE packets around failed links), and QoS admission
//! passes "up, with a free VC and enough residual bandwidth" (GS paths
//! around exhausted links). Both layers run the same search, so for the
//! same usable links they pick the same path.

use crate::topology::Grid;
use mango_core::{BeHeader, Direction, RouterId, MAX_BE_HOPS};

/// Errors computing a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Source and destination are the same router.
    SameRouter(RouterId),
    /// An endpoint lies outside the grid.
    OffGrid(RouterId),
    /// The route is longer than a BE header can encode.
    TooLong(usize),
    /// No path over surviving links connects the endpoints (fault
    /// partition).
    Unreachable {
        /// Route source.
        src: RouterId,
        /// Route destination.
        dst: RouterId,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::SameRouter(r) => write!(f, "source and destination are both {r}"),
            RouteError::OffGrid(r) => write!(f, "router {r} outside the grid"),
            RouteError::TooLong(n) => {
                write!(f, "route of {n} links exceeds the {MAX_BE_HOPS}-hop limit")
            }
            RouteError::Unreachable { src, dst } => {
                write!(f, "no surviving path from {src} to {dst}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Fails unless `src` and `dst` are distinct routers of `grid`.
fn check_endpoints(grid: &Grid, src: RouterId, dst: RouterId) -> Result<(), RouteError> {
    if !grid.contains(src) {
        return Err(RouteError::OffGrid(src));
    }
    if !grid.contains(dst) {
        return Err(RouteError::OffGrid(dst));
    }
    if src == dst {
        return Err(RouteError::SameRouter(src));
    }
    Ok(())
}

/// The link directions of the XY route from `src` to `dst`: the
/// [`Grid::axis_legs`], x leg first. Endpoints are not validated; equal
/// endpoints give an empty route.
pub fn xy_dirs(grid: &Grid, src: RouterId, dst: RouterId) -> impl Iterator<Item = Direction> {
    grid.axis_legs(src, dst)
        .into_iter()
        .flat_map(|(dir, hops)| std::iter::repeat_n(dir, hops.into()))
}

/// Computes the XY route from `src` to `dst` as a list of link directions.
///
/// # Errors
///
/// Fails if the endpoints coincide or leave the grid.
pub fn xy_route(grid: &Grid, src: RouterId, dst: RouterId) -> Result<Vec<Direction>, RouteError> {
    check_endpoints(grid, src, dst)?;
    Ok(xy_dirs(grid, src, dst).collect())
}

/// The XY route's link count — the Manhattan distance on a mesh, the
/// shorter-way-round modular distance per axis on a torus — computed
/// without materializing the route.
///
/// # Errors
///
/// Fails if the endpoints coincide or leave the grid.
pub fn xy_len(grid: &Grid, src: RouterId, dst: RouterId) -> Result<usize, RouteError> {
    check_endpoints(grid, src, dst)?;
    Ok(grid
        .axis_legs(src, dst)
        .iter()
        .map(|&(_, n)| n as usize)
        .sum())
}

/// Builds a BE source-routing header for the XY route from `src` to `dst`.
///
/// # Errors
///
/// Fails as [`xy_route`] does, or if the route exceeds the header's 15-hop
/// capacity.
pub fn xy_header(grid: &Grid, src: RouterId, dst: RouterId) -> Result<BeHeader, RouteError> {
    let links = xy_len(grid, src, dst)?;
    if links > MAX_BE_HOPS {
        return Err(RouteError::TooLong(links));
    }
    Ok(xy_segment_header(grid, src, dst, links))
}

/// The BE header for the first `links` links of the XY route from `src`
/// toward `dst`, built allocation-free — the per-packet hot path
/// (`BeHeader::from_route(&xy_route(..)[..links])` bit for bit, without
/// the route `Vec`).
///
/// Endpoints must be validated (distinct, on-grid) and `links` must be in
/// `1..=min(route length, MAX_BE_HOPS)`; use [`xy_len`] first.
pub fn xy_segment_header(grid: &Grid, src: RouterId, dst: RouterId, links: usize) -> BeHeader {
    let [(xdir, dx), (ydir, dy)] = grid.axis_legs(src, dst);
    let (dx, dy) = (dx as usize, dy as usize);
    debug_assert!((1..=(dx + dy).min(MAX_BE_HOPS)).contains(&links));
    // XY: the x-run precedes the y-run; the delivery code is the U-turn
    // against the last travel direction (see `BeHeader::from_route`).
    let x_links = links.min(dx);
    let y_links = links - x_links;
    let mut word: u32 = 0;
    for _ in 0..x_links {
        word = (word << 2) | xdir.index() as u32;
    }
    for _ in 0..y_links {
        word = (word << 2) | ydir.index() as u32;
    }
    let last = if y_links > 0 { ydir } else { xdir };
    word = (word << 2) | last.opposite().index() as u32;
    let used = 2 * (links as u32 + 1);
    BeHeader(word << (32 - used))
}

/// The one detour search: a shortest path from `src` to `dst` over the
/// directed links `usable(from, dir)` accepts (it is asked only about
/// links that exist), written to `path`; false when there is none.
///
/// Deterministic: a FIFO frontier expanded in [`Direction::ALL`] order,
/// and each router keeps the first parent that reaches it, so
/// equal-length paths tie-break identically on every run. The search
/// stops as soon as it reaches `dst`. A path it returns is simple. `from`
/// (the predecessor direction per router) and `frontier` are scratch,
/// reused by callers that search often.
pub fn bfs_into(
    grid: &Grid,
    src: RouterId,
    dst: RouterId,
    mut usable: impl FnMut(RouterId, Direction) -> bool,
    from: &mut Vec<Option<Direction>>,
    frontier: &mut Vec<RouterId>,
    path: &mut Vec<Direction>,
) -> bool {
    from.clear();
    from.resize(grid.len(), None);
    frontier.clear();
    frontier.push(src);
    path.clear();
    let mut head = 0;
    'search: while let Some(&cur) = frontier.get(head) {
        head += 1;
        for dir in Direction::ALL {
            let Some(next) = grid.neighbor(cur, dir) else {
                continue;
            };
            let seen = &mut from[grid.index(next)];
            if next == src || seen.is_some() || !usable(cur, dir) {
                continue;
            }
            *seen = Some(dir);
            if next == dst {
                break 'search;
            }
            frontier.push(next);
        }
    }
    // Walk the predecessors back from `dst`; `src` has none.
    let mut cur = dst;
    while let Some(dir) = from[grid.index(cur)] {
        path.push(dir);
        cur = grid
            .neighbor(cur, dir.opposite())
            .expect("a parent is a neighbor");
    }
    path.reverse();
    !path.is_empty()
}

/// Computes a route from `src` to `dst` avoiding failed links.
///
/// On a healthy grid, and whenever the XY route survives the faults, this
/// is exactly [`xy_route`] (bit-identical headers downstream). Otherwise
/// it is [`bfs_into`]'s shortest path over [`Grid::link_up`] links.
///
/// # Errors
///
/// Fails on degenerate endpoints as [`xy_route`] does, or with
/// [`RouteError::Unreachable`] when the fault set disconnects the pair.
pub fn route_avoiding(
    grid: &Grid,
    src: RouterId,
    dst: RouterId,
) -> Result<Vec<Direction>, RouteError> {
    let xy = xy_route(grid, src, dst)?;
    if grid.all_links_up() || xy_survives(grid, src, &xy) {
        return Ok(xy);
    }
    let mut path = Vec::new();
    let found = bfs_into(
        grid,
        src,
        dst,
        |from, dir| grid.link_up(from, dir),
        &mut Vec::new(),
        &mut Vec::new(),
        &mut path,
    );
    if found {
        Ok(path)
    } else {
        Err(RouteError::Unreachable { src, dst })
    }
}

/// Whether every link of `dirs`, walked from `src`, is up.
fn xy_survives(grid: &Grid, src: RouterId, dirs: &[Direction]) -> bool {
    let mut cur = src;
    dirs.iter().all(|&dir| {
        let up = grid.link_up(cur, dir);
        if let Some(next) = grid.neighbor(cur, dir) {
            cur = next;
        }
        up
    })
}

/// The routers an XY route visits, including both endpoints.
///
/// # Errors
///
/// Fails if the endpoints coincide or leave the grid.
pub fn xy_path(grid: &Grid, src: RouterId, dst: RouterId) -> Result<Vec<RouterId>, RouteError> {
    check_endpoints(grid, src, dst)?;
    let mut cur = src;
    let steps = xy_dirs(grid, src, dst).map_while(|dir| {
        cur = grid.neighbor(cur, dir)?;
        Some(cur)
    });
    Ok(std::iter::once(src).chain(steps).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use Direction::*;

    fn grid() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn straight_routes() {
        let g = grid();
        assert_eq!(
            xy_route(&g, RouterId::new(0, 0), RouterId::new(3, 0)).unwrap(),
            vec![East, East, East]
        );
        assert_eq!(
            xy_route(&g, RouterId::new(0, 3), RouterId::new(0, 0)).unwrap(),
            vec![North, North, North]
        );
    }

    #[test]
    fn l_shaped_route_is_x_then_y() {
        let g = grid();
        assert_eq!(
            xy_route(&g, RouterId::new(0, 0), RouterId::new(2, 2)).unwrap(),
            vec![East, East, South, South]
        );
        assert_eq!(
            xy_route(&g, RouterId::new(3, 3), RouterId::new(1, 1)).unwrap(),
            vec![West, West, North, North]
        );
    }

    #[test]
    fn path_lists_every_visited_router() {
        let g = grid();
        let path = xy_path(&g, RouterId::new(0, 0), RouterId::new(2, 1)).unwrap();
        assert_eq!(
            path,
            vec![
                RouterId::new(0, 0),
                RouterId::new(1, 0),
                RouterId::new(2, 0),
                RouterId::new(2, 1),
            ]
        );
    }

    #[test]
    fn route_length_is_manhattan_distance() {
        let g = Grid::new(8, 8);
        for (sx, sy, dx, dy) in [(0, 0, 7, 7), (3, 2, 3, 6), (5, 5, 0, 0)] {
            let src = RouterId::new(sx, sy);
            let dst = RouterId::new(dx, dy);
            let route = xy_route(&g, src, dst).unwrap();
            let manhattan = (sx as i16 - dx as i16).unsigned_abs() as usize
                + (sy as i16 - dy as i16).unsigned_abs() as usize;
            assert_eq!(route.len(), manhattan);
        }
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        let g = grid();
        let r = RouterId::new(1, 1);
        assert_eq!(xy_route(&g, r, r), Err(RouteError::SameRouter(r)));
        let out = RouterId::new(9, 0);
        assert_eq!(xy_route(&g, out, r), Err(RouteError::OffGrid(out)));
        assert_eq!(xy_route(&g, r, out), Err(RouteError::OffGrid(out)));
    }

    #[test]
    fn header_matches_route() {
        let g = grid();
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(2, 0);
        let header = xy_header(&g, src, dst).unwrap();
        // First code must be East (injected locally).
        let (dest, _) = header.route(None);
        assert_eq!(dest, mango_core::BeDest::Net(East));
    }

    #[test]
    fn too_long_route_rejected() {
        let g = Grid::new(17, 2);
        let err = xy_header(&g, RouterId::new(0, 0), RouterId::new(16, 0));
        assert_eq!(err, Err(RouteError::TooLong(16)));
    }

    #[test]
    fn route_avoiding_matches_xy_on_healthy_mesh() {
        let g = Grid::new(5, 5);
        for src in g.ids() {
            for dst in g.ids() {
                if src == dst {
                    continue;
                }
                assert_eq!(
                    route_avoiding(&g, src, dst).unwrap(),
                    xy_route(&g, src, dst).unwrap()
                );
            }
        }
    }

    #[test]
    fn route_avoiding_detours_around_a_dead_link() {
        let mut g = Grid::new(4, 1);
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(3, 0);
        g.fail_link(RouterId::new(1, 0), East);
        let dirs = route_avoiding(&g, src, dst);
        // A 4×1 strip has no detour: the cut partitions it.
        assert_eq!(dirs, Err(RouteError::Unreachable { src, dst }));

        let mut g = Grid::new(4, 2);
        g.fail_link(RouterId::new(1, 0), East);
        let dirs = route_avoiding(&g, src, dst).unwrap();
        // The detour drops one row and climbs back: still shortest
        // (5 links) and it never crosses the failed link.
        assert_eq!(dirs.len(), 5);
        let mut cur = src;
        for &d in &dirs {
            assert!(g.link_up(cur, d), "route crosses dead link {cur}->{d}");
            cur = g.neighbor(cur, d).unwrap();
        }
        assert_eq!(cur, dst);
    }

    #[test]
    fn route_avoiding_keeps_surviving_xy_route_under_unrelated_faults() {
        let mut g = Grid::new(4, 4);
        g.fail_link(RouterId::new(3, 3), North);
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(2, 1);
        assert_eq!(
            route_avoiding(&g, src, dst).unwrap(),
            xy_route(&g, src, dst).unwrap(),
            "unrelated fault must not perturb the route"
        );
    }

    #[test]
    fn route_avoiding_around_dead_router() {
        let mut g = Grid::new(3, 3);
        g.fail_router(RouterId::new(1, 0));
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(2, 0);
        let dirs = route_avoiding(&g, src, dst).unwrap();
        assert_eq!(dirs.len(), 4, "detour through row 1");
        let mut cur = src;
        for &d in &dirs {
            cur = g.neighbor(cur, d).unwrap();
            assert_ne!(cur, RouterId::new(1, 0), "route visits the dead router");
        }
        assert_eq!(cur, dst);
    }

    /// The allocation-free segment builder must reproduce the reference
    /// `BeHeader::from_route` encoding bit for bit, for every pair and
    /// every legal segment length of a mesh that exercises all four
    /// direction combinations and the hop cap.
    #[test]
    fn segment_header_matches_reference_for_all_pairs() {
        let g = Grid::new(9, 9);
        for src in g.ids() {
            for dst in g.ids() {
                if src == dst {
                    continue;
                }
                let route = xy_route(&g, src, dst).unwrap();
                assert_eq!(xy_len(&g, src, dst).unwrap(), route.len());
                for links in 1..=route.len().min(MAX_BE_HOPS) {
                    let want = BeHeader::from_route(&route[..links]).unwrap();
                    assert_eq!(
                        xy_segment_header(&g, src, dst, links),
                        want,
                        "{src}->{dst} truncated to {links}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_routes_wrap_the_short_way() {
        let g = Grid::from_spec(&crate::TopologySpec::torus(8, 8));
        // 0 → 7 east is 7 hops; the wrap west is 1.
        assert_eq!(
            xy_route(&g, RouterId::new(0, 2), RouterId::new(7, 2)).unwrap(),
            vec![West]
        );
        // Both axes wrap: (1,1) → (7,7) is 2 west + 2 north through the
        // seams, not 6+6 across the middle.
        assert_eq!(
            xy_route(&g, RouterId::new(1, 1), RouterId::new(7, 7)).unwrap(),
            vec![West, West, North, North]
        );
        assert_eq!(xy_len(&g, RouterId::new(1, 1), RouterId::new(7, 7)), Ok(4));
        // Routes stay in-topology and reach the destination.
        let mut cur = RouterId::new(1, 1);
        for d in xy_route(&g, cur, RouterId::new(7, 7)).unwrap() {
            cur = g.neighbor(cur, d).unwrap();
        }
        assert_eq!(cur, RouterId::new(7, 7));
    }

    #[test]
    fn torus_segment_headers_match_reference_for_all_pairs() {
        let g = Grid::from_spec(&crate::TopologySpec::torus(6, 5));
        for src in g.ids() {
            for dst in g.ids() {
                if src == dst {
                    continue;
                }
                let route = xy_route(&g, src, dst).unwrap();
                assert_eq!(xy_len(&g, src, dst).unwrap(), route.len());
                for links in 1..=route.len().min(MAX_BE_HOPS) {
                    let want = BeHeader::from_route(&route[..links]).unwrap();
                    assert_eq!(
                        xy_segment_header(&g, src, dst, links),
                        want,
                        "{src}->{dst} truncated to {links}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_avoiding_detours_on_a_torus() {
        let mut g = Grid::from_spec(&crate::TopologySpec::torus(4, 4));
        let src = RouterId::new(0, 0);
        let dst = RouterId::new(3, 0);
        // The short way is the single wrap link west; kill it.
        g.fail_link(src, West);
        let dirs = route_avoiding(&g, src, dst).unwrap();
        let mut cur = src;
        for &d in &dirs {
            assert!(g.link_up(cur, d), "route crosses dead link {cur}->{d}");
            cur = g.neighbor(cur, d).unwrap();
        }
        assert_eq!(cur, dst);
    }
}
