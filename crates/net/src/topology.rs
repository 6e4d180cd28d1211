//! Topologies: routers in a grid connected by point-to-point links
//! (Fig. 1: "The routers are connected by links in a grid-type structure,
//! either homogeneous or heterogeneous").
//!
//! The topology layer is a two-stage API:
//!
//! * [`TopologySpec`] — a parsable, nameable description of the shape
//!   (like [`crate::traffic::PatternKind`] for traffic): a plain
//!   [`TopologySpec::Mesh`], a [`TopologySpec::Torus`] with wraparound
//!   links per axis, or a [`TopologySpec::ChipletMesh`] — a mesh of
//!   chiplet sub-meshes whose die-to-die boundary links carry extra
//!   pipeline delay.
//! * [`Grid`] — the compiled runtime topology every consumer queries
//!   through its accessor surface ([`Grid::neighbor`], [`Grid::link_up`],
//!   [`Grid::link_extra`], [`Grid::axis_legs`]): routing, relay,
//!   admission and fault injection never do raw coordinate arithmetic of
//!   their own.
//!
//! Long links can be pipelined (Sec. 3: "To keep speed up, long links can
//! be implemented as pipelines"); each pipeline stage adds forward latency
//! without reducing throughput. A heterogeneous grid assigns extra stages
//! per link — the mechanism a chiplet spec compiles its D2D boundary
//! delay into.

use mango_core::{Direction, RouterId};
use mango_sim::SimDuration;
use std::fmt;

/// The canonical die-to-die boundary delay a named chiplet spec compiles
/// to: two extra pipeline stages' worth of wire (2 ns). Custom values are
/// available programmatically via [`TopologySpec::ChipletMesh`].
pub fn d2d_extra_default() -> SimDuration {
    SimDuration::from_ns(2)
}

/// A parsable, nameable topology description, compiled to a runtime
/// [`Grid`] by [`Grid::from_spec`].
///
/// Names round-trip through [`TopologySpec::name`] /
/// [`TopologySpec::parse`]: `mesh8x8`, `torus4x4`, `chiplet2x2x4x4`
/// (chips_x × chips_y chips of node_w × node_h routers, canonical D2D
/// delay). A chiplet spec with a non-canonical delay names itself with an
/// explicit `@<ps>ps` suffix, which `parse` also accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// A plain `width × height` mesh — the paper's Fig. 1 structure.
    Mesh {
        /// Mesh width.
        width: u8,
        /// Mesh height.
        height: u8,
    },
    /// A `width × height` torus: each axis wraps around, so routing
    /// takes the shorter way round per axis (≤ ⌈k/2⌉ hops on a k-long
    /// axis). Both dimensions must be ≥ 2.
    Torus {
        /// Torus width.
        width: u8,
        /// Torus height.
        height: u8,
    },
    /// A mesh of chiplet sub-meshes: `chips_x × chips_y` dies, each a
    /// `node_w × node_h` router mesh, stitched into one global
    /// `(chips_x·node_w) × (chips_y·node_h)` grid whose die-crossing
    /// links carry `d2d_extra` forward delay in both directions.
    ChipletMesh {
        /// Chips along x.
        chips_x: u8,
        /// Chips along y.
        chips_y: u8,
        /// Routers per chip along x.
        node_w: u8,
        /// Routers per chip along y.
        node_h: u8,
        /// Extra forward delay on each directed die-crossing link.
        d2d_extra: SimDuration,
    },
}

impl TopologySpec {
    /// A mesh spec.
    pub fn mesh(width: u8, height: u8) -> Self {
        TopologySpec::Mesh { width, height }
    }

    /// A torus spec.
    pub fn torus(width: u8, height: u8) -> Self {
        TopologySpec::Torus { width, height }
    }

    /// A chiplet mesh-of-meshes with the canonical D2D boundary delay.
    pub fn chiplet(chips_x: u8, chips_y: u8, node_w: u8, node_h: u8) -> Self {
        TopologySpec::ChipletMesh {
            chips_x,
            chips_y,
            node_w,
            node_h,
            d2d_extra: d2d_extra_default(),
        }
    }

    /// Checks that the spec compiles to a grid: no zero dimension, torus
    /// axes of at least 2, chiplet totals inside the `u8` coordinate
    /// space. The error is a one-line diagnostic. Specs that arrive from
    /// outside the program ([`TopologySpec::parse`], sweep flags) are
    /// checked here before [`TopologySpec::dims`] or [`Grid::from_spec`]
    /// see them.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TopologySpec::Mesh { width, height } if width == 0 || height == 0 => {
                Err("grid dimensions must be positive".into())
            }
            TopologySpec::Torus { width, height } if width < 2 || height < 2 => Err(format!(
                "torus dimensions must be at least 2, got {width}x{height}"
            )),
            TopologySpec::ChipletMesh {
                chips_x,
                chips_y,
                node_w,
                node_h,
                ..
            } => {
                if chips_x == 0 || chips_y == 0 || node_w == 0 || node_h == 0 {
                    Err("chiplet dimensions must be positive".into())
                } else if chips_x.checked_mul(node_w).is_none()
                    || chips_y.checked_mul(node_h).is_none()
                {
                    Err(format!(
                        "chiplet grid {chips_x}x{chips_y} of {node_w}x{node_h} overflows u8"
                    ))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }

    /// Total grid dimensions `(width, height)`.
    pub fn dims(&self) -> (u8, u8) {
        match *self {
            TopologySpec::Mesh { width, height } | TopologySpec::Torus { width, height } => {
                (width, height)
            }
            TopologySpec::ChipletMesh {
                chips_x,
                chips_y,
                node_w,
                node_h,
                ..
            } => (chips_x * node_w, chips_y * node_h),
        }
    }

    /// The CLI/CSV name (`mesh8x8`, `torus4x4`, `chiplet2x2x4x4`).
    pub fn name(&self) -> String {
        match *self {
            TopologySpec::Mesh { width, height } => format!("mesh{width}x{height}"),
            TopologySpec::Torus { width, height } => format!("torus{width}x{height}"),
            TopologySpec::ChipletMesh {
                chips_x,
                chips_y,
                node_w,
                node_h,
                d2d_extra,
            } => {
                let base = format!("chiplet{chips_x}x{chips_y}x{node_w}x{node_h}");
                if d2d_extra == d2d_extra_default() {
                    base
                } else {
                    format!("{base}@{}ps", d2d_extra.as_ps())
                }
            }
        }
    }

    /// Parses a topology name (the inverse of [`TopologySpec::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        fn dims2(s: &str) -> Option<(u8, u8)> {
            let (w, h) = s.split_once('x')?;
            Some((w.parse().ok()?, h.parse().ok()?))
        }
        if let Some(rest) = s.strip_prefix("mesh") {
            let (w, h) = dims2(rest)?;
            return Some(TopologySpec::Mesh {
                width: w,
                height: h,
            });
        }
        if let Some(rest) = s.strip_prefix("torus") {
            let (w, h) = dims2(rest)?;
            return Some(TopologySpec::Torus {
                width: w,
                height: h,
            });
        }
        if let Some(rest) = s.strip_prefix("chiplet") {
            let (rest, extra) = match rest.split_once('@') {
                Some((dims, ps)) => {
                    let ps: u64 = ps.strip_suffix("ps")?.parse().ok()?;
                    (dims, SimDuration::from_ps(ps))
                }
                None => (rest, d2d_extra_default()),
            };
            let mut it = rest.split('x');
            let mut next = || -> Option<u8> { it.next()?.parse().ok() };
            let (cx, cy, nw, nh) = (next()?, next()?, next()?, next()?);
            if it.next().is_some() {
                return None;
            }
            return Some(TopologySpec::ChipletMesh {
                chips_x: cx,
                chips_y: cy,
                node_w: nw,
                node_h: nh,
                d2d_extra: extra,
            });
        }
        None
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The compiled runtime topology: a rectangular grid of routers, with
/// optional per-axis wraparound (torus) and per-link extra pipeline
/// delay (heterogeneous links, D2D boundaries).
#[derive(Debug, Clone)]
pub struct Grid {
    width: u8,
    height: u8,
    /// The x axis wraps (torus).
    wrap_x: bool,
    /// The y axis wraps (torus).
    wrap_y: bool,
    /// Chiplet tile dimensions `(node_w, node_h)` when this grid is a
    /// mesh-of-meshes; `None` for monolithic topologies.
    chip: Option<(u8, u8)>,
    /// Extra forward delay applied to links without an override.
    default_extra: SimDuration,
    /// Per-link extra forward delay, indexed by [`Grid::link_index`];
    /// `None` until an override is set (the homogeneous fast path — one
    /// branch, no hashing, once per flit hop).
    extra: Option<Box<[SimDuration]>>,
    /// Directed links currently failed (fault injection), indexed by
    /// [`Grid::link_index`]; routing, relay and admission all consult
    /// this mask. `None` until the first failure, like `extra`.
    down: Option<Box<[bool]>>,
    /// Number of `true` entries in `down`.
    down_count: usize,
    /// The spec this grid was compiled from (naming, CSV columns).
    spec: TopologySpec,
}

impl Grid {
    /// A homogeneous `width × height` mesh with no extra link delay.
    ///
    /// Thin shim over [`Grid::from_spec`] with a
    /// [`TopologySpec::Mesh`], kept so mesh-only call sites stay
    /// source-compatible; new code should build a [`TopologySpec`] and
    /// compile it.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u8, height: u8) -> Self {
        Grid::from_spec(&TopologySpec::Mesh { width, height })
    }

    /// Compiles a [`TopologySpec`] into a runtime grid.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero, a torus axis is shorter than 2, or
    /// a chiplet spec overflows the `u8` coordinate space.
    pub fn from_spec(spec: &TopologySpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let (width, height) = spec.dims();
        let mut grid = Grid {
            width,
            height,
            wrap_x: matches!(spec, TopologySpec::Torus { .. }),
            wrap_y: matches!(spec, TopologySpec::Torus { .. }),
            chip: match *spec {
                TopologySpec::ChipletMesh { node_w, node_h, .. } => Some((node_w, node_h)),
                _ => None,
            },
            default_extra: SimDuration::ZERO,
            extra: None,
            down: None,
            down_count: 0,
            spec: *spec,
        };
        if let TopologySpec::ChipletMesh { d2d_extra, .. } = *spec {
            // Compile the D2D delay into per-link extras, both directions
            // of every die-crossing channel.
            for (from, dir) in grid.boundary_links() {
                grid.set_link_extra(from, dir, d2d_extra);
            }
        }
        grid
    }

    /// The spec this grid was compiled from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Grid width.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// True for a degenerate 0-router grid (never constructed; for
    /// `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets the default extra forward delay on all links (homogeneous
    /// pipelining).
    ///
    /// # Panics
    ///
    /// Panics if a per-link override has already been set: the default
    /// seeds the per-link table, so it must be configured first.
    pub fn set_default_link_extra(&mut self, extra: SimDuration) {
        assert!(
            self.extra.is_none(),
            "set the default link extra before per-link overrides"
        );
        self.default_extra = extra;
    }

    /// Sets extra forward delay on one directed link (heterogeneous
    /// pipelining). Both directions of a physical channel are configured
    /// separately.
    ///
    /// # Panics
    ///
    /// Panics if the link leaves the grid.
    pub fn set_link_extra(&mut self, from: RouterId, dir: Direction, extra: SimDuration) {
        assert!(
            self.neighbor(from, dir).is_some(),
            "link {from}->{dir} leaves the grid"
        );
        let i = self.link_index(from, dir);
        let slots = self.len() * 4;
        let default = self.default_extra;
        let table = self
            .extra
            .get_or_insert_with(|| vec![default; slots].into_boxed_slice());
        table[i] = extra;
    }

    /// Dense index of the directed link `from → dir`:
    /// `router_index × 4 + dir`, in `0 .. len() × 4`. Every per-link
    /// table — the D2D extras and the failed-link mask here, the fault
    /// state's flaky windows and stuck VCs, admission's budgets — is
    /// laid out by it. Off-grid links (an edge router's outward port)
    /// have an index too; whether the link exists is
    /// [`Grid::neighbor`]'s answer.
    ///
    /// # Panics
    ///
    /// Panics if `from` lies outside the grid.
    #[inline]
    pub fn link_index(&self, from: RouterId, dir: Direction) -> usize {
        self.index(from) * 4 + dir.index()
    }

    /// The extra forward delay on a directed link. Runs once per flit
    /// hop: one branch on homogeneous grids, one flat-array load on
    /// heterogeneous ones.
    #[inline]
    pub fn link_extra(&self, from: RouterId, dir: Direction) -> SimDuration {
        match &self.extra {
            None => self.default_extra,
            Some(table) => table[self.link_index(from, dir)],
        }
    }

    /// True if the directed link leaving `from` toward `dir` is healthy.
    ///
    /// Links that leave the grid are reported as down (there is no link
    /// there at all), so `link_up` can double as a "may I route this way"
    /// predicate in BFS loops.
    #[inline]
    pub fn link_up(&self, from: RouterId, dir: Direction) -> bool {
        // Healthy meshes (the common case) never touch the mask; this
        // lookup sits on routing, admission and every faulted flit hop.
        self.neighbor(from, dir).is_some()
            && self
                .down
                .as_ref()
                .is_none_or(|down| !down[self.link_index(from, dir)])
    }

    /// True if the directed link at dense index `link` ([`Grid::link_index`])
    /// has been failed. Says nothing about whether the link exists.
    #[inline]
    pub fn link_failed(&self, link: usize) -> bool {
        self.down.as_ref().is_some_and(|down| down[link])
    }

    /// True if no link has been failed (the healthy-mesh fast path).
    #[inline]
    pub fn all_links_up(&self) -> bool {
        self.down_count == 0
    }

    /// Marks one directed link as failed. Both directions of a physical
    /// channel fail separately; call twice for a full channel cut.
    ///
    /// # Panics
    ///
    /// Panics if the link leaves the grid.
    pub fn fail_link(&mut self, from: RouterId, dir: Direction) {
        assert!(
            self.neighbor(from, dir).is_some(),
            "link {from}->{dir} leaves the grid"
        );
        self.mark_down(from, dir);
    }

    /// Fails every directed link touching `id` (router fail-stop): the
    /// four outgoing links and the four incoming ones.
    pub fn fail_router(&mut self, id: RouterId) {
        for dir in Direction::ALL {
            if let Some(n) = self.neighbor(id, dir) {
                self.mark_down(id, dir);
                self.mark_down(n, dir.opposite());
            }
        }
    }

    /// Sets the mask bit of an on-grid link, allocating the mask on the
    /// first failure; failing a link twice counts it once.
    fn mark_down(&mut self, from: RouterId, dir: Direction) {
        let i = self.link_index(from, dir);
        let slots = self.len() * 4;
        let down = self
            .down
            .get_or_insert_with(|| vec![false; slots].into_boxed_slice());
        if !down[i] {
            down[i] = true;
            self.down_count += 1;
        }
    }

    /// Number of directed links currently failed.
    pub fn failed_links(&self) -> usize {
        self.down_count
    }

    /// True if `id` lies within the grid.
    pub fn contains(&self, id: RouterId) -> bool {
        id.x < self.width && id.y < self.height
    }

    /// The neighbor of `id` in direction `dir`, if it exists. On a torus
    /// axis, stepping off the edge wraps to the far side.
    pub fn neighbor(&self, id: RouterId, dir: Direction) -> Option<RouterId> {
        debug_assert!(self.contains(id), "router {id} outside grid");
        if let Some(n) = id.step(dir).filter(|n| self.contains(*n)) {
            return Some(n);
        }
        match dir {
            Direction::East if self.wrap_x => Some(RouterId::new(0, id.y)),
            Direction::West if self.wrap_x => Some(RouterId::new(self.width - 1, id.y)),
            Direction::South if self.wrap_y => Some(RouterId::new(id.x, 0)),
            Direction::North if self.wrap_y => Some(RouterId::new(id.x, self.height - 1)),
            _ => None,
        }
    }

    /// The canonical dimension-ordered route from `src` to `dst` as two
    /// axis legs `[(x_dir, x_hops), (y_dir, y_hops)]`, x first. On a
    /// mesh this is the XY route; on a torus each axis takes the shorter
    /// way round (≤ ⌈k/2⌉ hops), tie-breaking East/South at exactly half
    /// way. A zero-length leg keeps a placeholder direction.
    pub fn axis_legs(&self, src: RouterId, dst: RouterId) -> [(Direction, u8); 2] {
        let x = Self::axis_leg(
            src.x,
            dst.x,
            self.width,
            self.wrap_x,
            Direction::East,
            Direction::West,
        );
        let y = Self::axis_leg(
            src.y,
            dst.y,
            self.height,
            self.wrap_y,
            Direction::South,
            Direction::North,
        );
        [x, y]
    }

    fn axis_leg(
        from: u8,
        to: u8,
        len: u8,
        wrap: bool,
        fwd: Direction,
        back: Direction,
    ) -> (Direction, u8) {
        if wrap {
            // Distance the forward way round; the tie at exactly len/2
            // breaks toward `fwd` (East/South) so every consumer --
            // router, relay recomputation, admission -- picks the same
            // deterministic leg.
            let f = (to as u16 + len as u16 - from as u16) % len as u16;
            let b = len as u16 - f;
            if f == 0 {
                (fwd, 0)
            } else if f <= b {
                (fwd, f as u8)
            } else {
                (back, b as u8)
            }
        } else if to >= from {
            (fwd, to - from)
        } else {
            (back, from - to)
        }
    }

    /// The point reflection of `id` through the grid centre — the
    /// canonical "far corner" pairing used to place GS endpoints without
    /// raw coordinate arithmetic at call sites.
    pub fn mirror(&self, id: RouterId) -> RouterId {
        RouterId::new(self.width - 1 - id.x, self.height - 1 - id.y)
    }

    /// True if the directed link `from → dir` crosses a chiplet (die)
    /// boundary. Always false on monolithic topologies.
    pub fn is_boundary_link(&self, from: RouterId, dir: Direction) -> bool {
        let Some((cw, ch)) = self.chip else {
            return false;
        };
        match self.neighbor(from, dir) {
            Some(to) => from.x / cw != to.x / cw || from.y / ch != to.y / ch,
            None => false,
        }
    }

    /// Every directed die-to-die boundary link, in deterministic
    /// (row-major router, then N/E/S/W) order. Empty on monolithic
    /// topologies.
    pub fn boundary_links(&self) -> Vec<(RouterId, Direction)> {
        let mut links = Vec::new();
        if self.chip.is_none() {
            return links;
        }
        for id in self.ids() {
            for dir in Direction::ALL {
                if self.is_boundary_link(id, dir) {
                    links.push((id, dir));
                }
            }
        }
        links
    }

    /// Dense index of a router (row-major).
    pub fn index(&self, id: RouterId) -> usize {
        assert!(self.contains(id), "router {id} outside grid");
        id.y as usize * self.width as usize + id.x as usize
    }

    /// Router id for a dense index.
    pub fn id_at(&self, index: usize) -> RouterId {
        assert!(index < self.len(), "index {index} out of range");
        RouterId::new(
            (index % self.width as usize) as u8,
            (index / self.width as usize) as u8,
        )
    }

    /// Iterates over all router ids, row-major.
    pub fn ids(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.len()).map(|i| self.id_at(i))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A mesh or a torus of any size up to 6 × 6 (the non-square ones
    /// tell width from height), or `chiplet2x2x2x2`.
    pub(crate) fn any_topology() -> impl Strategy<Value = TopologySpec> {
        prop_oneof![
            (1u8..7, 1u8..7).prop_map(|(w, h)| TopologySpec::mesh(w, h)),
            (2u8..7, 2u8..7).prop_map(|(w, h)| TopologySpec::torus(w, h)),
            Just(TopologySpec::chiplet(2, 2, 2, 2)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense failed-link mask against a `HashSet` of failed
        /// `(router, dir)` pairs: after each `fail_link` / `fail_router`
        /// of a random sequence, `link_up` and `link_failed` agree with
        /// the set on every port of every router, and `failed_links` /
        /// `all_links_up` with its size.
        #[test]
        fn failed_link_mask_matches_a_set_model(
            spec in any_topology(),
            ops in prop::collection::vec((any::<bool>(), 0usize..64, 0usize..4), 0..24),
        ) {
            let mut grid = Grid::from_spec(&spec);
            let mut model = HashSet::new();
            for (whole_router, r, d) in ops {
                let (id, dir) = (grid.id_at(r % grid.len()), Direction::ALL[d]);
                if whole_router {
                    grid.fail_router(id);
                    for dir in Direction::ALL {
                        if let Some(n) = grid.neighbor(id, dir) {
                            model.insert((id, dir));
                            model.insert((n, dir.opposite()));
                        }
                    }
                } else if grid.neighbor(id, dir).is_some() {
                    grid.fail_link(id, dir);
                    model.insert((id, dir));
                }
                for id in grid.ids() {
                    for dir in Direction::ALL {
                        let failed = model.contains(&(id, dir));
                        let up = grid.neighbor(id, dir).is_some() && !failed;
                        prop_assert!(grid.link_up(id, dir) == up, "{spec} {id}->{dir}: up {up}");
                        prop_assert_eq!(grid.link_failed(grid.link_index(id, dir)), failed);
                    }
                }
                prop_assert_eq!(grid.failed_links(), model.len());
                prop_assert_eq!(grid.all_links_up(), model.is_empty());
            }
        }
    }

    #[test]
    fn indexing_roundtrips() {
        let g = Grid::new(4, 3);
        assert_eq!(g.len(), 12);
        for i in 0..g.len() {
            assert_eq!(g.index(g.id_at(i)), i);
        }
        assert_eq!(g.ids().count(), 12);
    }

    #[test]
    fn neighbors_respect_edges() {
        let g = Grid::new(3, 3);
        let corner = RouterId::new(0, 0);
        assert_eq!(g.neighbor(corner, Direction::North), None);
        assert_eq!(g.neighbor(corner, Direction::West), None);
        assert_eq!(
            g.neighbor(corner, Direction::East),
            Some(RouterId::new(1, 0))
        );
        assert_eq!(
            g.neighbor(corner, Direction::South),
            Some(RouterId::new(0, 1))
        );
        let far = RouterId::new(2, 2);
        assert_eq!(g.neighbor(far, Direction::East), None);
        assert_eq!(g.neighbor(far, Direction::South), None);
    }

    #[test]
    fn link_extra_defaults_and_overrides() {
        let mut g = Grid::new(2, 2);
        let a = RouterId::new(0, 0);
        assert_eq!(g.link_extra(a, Direction::East), SimDuration::ZERO);
        g.set_default_link_extra(SimDuration::from_ps(500));
        assert_eq!(g.link_extra(a, Direction::East), SimDuration::from_ps(500));
        g.set_link_extra(a, Direction::East, SimDuration::from_ns(2));
        assert_eq!(g.link_extra(a, Direction::East), SimDuration::from_ns(2));
        // The reverse direction keeps the default.
        assert_eq!(
            g.link_extra(RouterId::new(1, 0), Direction::West),
            SimDuration::from_ps(500)
        );
    }

    #[test]
    #[should_panic(expected = "before per-link overrides")]
    fn default_extra_after_override_rejected() {
        let mut g = Grid::new(2, 2);
        g.set_link_extra(
            RouterId::new(0, 0),
            Direction::East,
            SimDuration::from_ns(1),
        );
        g.set_default_link_extra(SimDuration::from_ps(500));
    }

    #[test]
    #[should_panic(expected = "leaves the grid")]
    fn off_grid_link_extra_rejected() {
        let mut g = Grid::new(2, 2);
        g.set_link_extra(RouterId::new(0, 0), Direction::North, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = Grid::new(0, 3);
    }

    #[test]
    fn link_mask_defaults_to_all_up() {
        let g = Grid::new(3, 3);
        assert!(g.all_links_up());
        assert_eq!(g.failed_links(), 0);
        assert!(g.link_up(RouterId::new(0, 0), Direction::East));
        // Off-grid "links" read as down even on a healthy mesh.
        assert!(!g.link_up(RouterId::new(0, 0), Direction::North));
    }

    #[test]
    fn fail_and_restore_one_direction() {
        let mut g = Grid::new(3, 3);
        let a = RouterId::new(0, 0);
        g.fail_link(a, Direction::East);
        assert!(!g.link_up(a, Direction::East));
        // The reverse direction is a separate link and stays up.
        assert!(g.link_up(RouterId::new(1, 0), Direction::West));
        assert!(!g.all_links_up());
    }

    #[test]
    fn fail_router_cuts_all_adjacent_links() {
        let mut g = Grid::new(3, 3);
        let mid = RouterId::new(1, 1);
        g.fail_router(mid);
        for dir in Direction::ALL {
            assert!(!g.link_up(mid, dir), "outgoing {dir}");
            let n = g.neighbor(mid, dir).unwrap();
            assert!(!g.link_up(n, dir.opposite()), "incoming from {n}");
        }
        // 4 outgoing + 4 incoming directed links.
        assert_eq!(g.failed_links(), 8);
        // Links not touching the dead router are unaffected.
        assert!(g.link_up(RouterId::new(0, 0), Direction::East));
    }

    #[test]
    #[should_panic(expected = "leaves the grid")]
    fn off_grid_fail_link_rejected() {
        let mut g = Grid::new(2, 2);
        g.fail_link(RouterId::new(0, 0), Direction::West);
    }

    // -- topology specs -----------------------------------------------

    #[test]
    fn spec_names_round_trip() {
        for spec in [
            TopologySpec::mesh(8, 8),
            TopologySpec::mesh(4, 1),
            TopologySpec::torus(4, 4),
            TopologySpec::torus(8, 2),
            TopologySpec::chiplet(2, 2, 4, 4),
            TopologySpec::ChipletMesh {
                chips_x: 3,
                chips_y: 1,
                node_w: 2,
                node_h: 2,
                d2d_extra: SimDuration::from_ps(750),
            },
        ] {
            assert_eq!(TopologySpec::parse(&spec.name()), Some(spec), "{spec}");
        }
        assert_eq!(TopologySpec::parse("mesh8x8").unwrap().dims(), (8, 8));
        assert_eq!(
            TopologySpec::parse("chiplet2x2x4x4").unwrap().dims(),
            (8, 8)
        );
        assert_eq!(TopologySpec::parse("ring9"), None);
        assert_eq!(TopologySpec::parse("mesh8"), None);
        assert_eq!(TopologySpec::parse("chiplet2x2x4"), None);
    }

    #[test]
    fn torus_wraps_both_axes() {
        let g = Grid::from_spec(&TopologySpec::torus(4, 3));
        assert_eq!(
            g.neighbor(RouterId::new(3, 1), Direction::East),
            Some(RouterId::new(0, 1))
        );
        assert_eq!(
            g.neighbor(RouterId::new(0, 1), Direction::West),
            Some(RouterId::new(3, 1))
        );
        assert_eq!(
            g.neighbor(RouterId::new(2, 2), Direction::South),
            Some(RouterId::new(2, 0))
        );
        assert_eq!(
            g.neighbor(RouterId::new(2, 0), Direction::North),
            Some(RouterId::new(2, 2))
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn degenerate_torus_rejected() {
        let _ = Grid::from_spec(&TopologySpec::torus(1, 4));
    }

    #[test]
    fn torus_axis_legs_take_the_short_way() {
        let g = Grid::from_spec(&TopologySpec::torus(8, 8));
        // 0 → 6 east is 6 hops, west is 2: go west.
        let [x, y] = g.axis_legs(RouterId::new(0, 0), RouterId::new(6, 0));
        assert_eq!(x, (Direction::West, 2));
        assert_eq!(y.1, 0);
        // Exactly half way (4 of 8) ties toward East/South.
        let [x, y] = g.axis_legs(RouterId::new(1, 1), RouterId::new(5, 5));
        assert_eq!(x, (Direction::East, 4));
        assert_eq!(y, (Direction::South, 4));
        // The mesh keeps plain signed distances.
        let m = Grid::new(8, 8);
        let [x, _] = m.axis_legs(RouterId::new(0, 0), RouterId::new(6, 0));
        assert_eq!(x, (Direction::East, 6));
    }

    #[test]
    fn chiplet_boundary_links_carry_extra() {
        let g = Grid::from_spec(&TopologySpec::chiplet(2, 2, 4, 4));
        assert_eq!(g.width(), 8);
        assert_eq!(g.height(), 8);
        let d2d = d2d_extra_default();
        // x-boundary between columns 3 and 4.
        let a = RouterId::new(3, 1);
        assert!(g.is_boundary_link(a, Direction::East));
        assert_eq!(g.link_extra(a, Direction::East), d2d);
        assert_eq!(g.link_extra(RouterId::new(4, 1), Direction::West), d2d);
        // y-boundary between rows 3 and 4.
        assert_eq!(g.link_extra(RouterId::new(6, 3), Direction::South), d2d);
        // In-die links stay fast.
        assert!(!g.is_boundary_link(a, Direction::West));
        assert_eq!(g.link_extra(a, Direction::West), SimDuration::ZERO);
        assert_eq!(
            g.link_extra(RouterId::new(0, 0), Direction::East),
            SimDuration::ZERO
        );
        // 2×2 chips of 4×4: each internal seam crosses 8 rows/columns,
        // 2 seams × 8 channels × 2 directions = 32 directed D2D links.
        assert_eq!(g.boundary_links().len(), 32);
    }

    #[test]
    fn mirror_reflects_through_centre() {
        let g = Grid::new(8, 4);
        assert_eq!(g.mirror(RouterId::new(0, 0)), RouterId::new(7, 3));
        assert_eq!(g.mirror(RouterId::new(2, 1)), RouterId::new(5, 2));
    }

    #[test]
    fn mesh_has_no_boundaries() {
        let g = Grid::new(4, 4);
        assert!(g.boundary_links().is_empty());
        assert!(!g.is_boundary_link(RouterId::new(1, 1), Direction::East));
    }
}
