//! Traffic models: **spatial × temporal** composition.
//!
//! A traffic source is the product of two independent choices:
//!
//! * a [`SpatialPattern`] — *where* packets go. Destinations are
//!   **computed per emission** from `(source, mesh, rng)`; nothing is
//!   materialized, so attaching a background pattern to an N-node mesh
//!   is O(N) work and the per-emission pick is allocation-free for every
//!   computed pattern.
//! * a [`TemporalSpec`] — *when* emissions happen: an immutable, `Copy`
//!   description (CBR or Poisson) that keeps no per-source state.
//!
//! The classic NoC evaluation patterns (transpose, bit-complement,
//! bit-reverse, tornado, hotspot, nearest-neighbour) are all
//! expressible, plus [`SpatialPattern::FixedPool`] as the legacy
//! escape hatch for hand-picked destination pools.
//!
//! # Determinism
//!
//! Every pattern draws from the source's private [`SimRng`] stream with
//! a fixed draw discipline documented per variant, so a scenario's
//! destination sequence is a pure function of `(seed, attachment
//! order)`. In particular [`SpatialPattern::UniformRandom`] consumes
//! exactly one `gen_range(N-1)` per emission — the same draw sequence as
//! the historical "materialize all-but-self and `choose`" code path, so
//! recorded experiment outputs survive the redesign byte for byte.
//!
//! A Poisson source also draws its gaps from that stream: one when it
//! is attached ([`TemporalSpec::first_gap`]), before any pick, and one
//! after each emission; a CBR source draws none.

use crate::network::{NetEvent, Network};
use crate::topology::Grid;
use mango_core::{Flit, FlitMeta, RouterId};
use mango_sim::{Ctx, SimDuration, SimRng, SimTime};

// ---------------------------------------------------------------------
// Temporal: when to emit
// ---------------------------------------------------------------------

/// Inter-emission timing: the immutable half of a traffic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalSpec {
    /// Constant rate: one emission every `period`.
    Cbr {
        /// Emission period.
        period: SimDuration,
    },
    /// Poisson process with exponential gaps of the given mean.
    Poisson {
        /// Mean inter-emission gap.
        mean: SimDuration,
    },
}

impl TemporalSpec {
    /// A constant-bit-rate pattern.
    pub fn cbr(period: SimDuration) -> Self {
        TemporalSpec::Cbr { period }
    }

    /// A Poisson pattern with the given mean gap.
    pub fn poisson(mean: SimDuration) -> Self {
        TemporalSpec::Poisson { mean }
    }

    /// The wait from a source's `start` to its first emission: a Poisson
    /// process's first arrival is one gap after it starts (one draw from
    /// `rng`), while a CBR source emits at `start`, its phase.
    pub fn first_gap(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            TemporalSpec::Cbr { .. } => SimDuration::ZERO,
            TemporalSpec::Poisson { .. } => self.next_gap(rng),
        }
    }

    /// The gap to wait after the current emission.
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            TemporalSpec::Cbr { period } => *period,
            TemporalSpec::Poisson { mean } => {
                SimDuration::from_ps(rng.gen_exp(mean.as_ps() as f64).round().max(1.0) as u64)
            }
        }
    }

    /// The long-run mean gap (for computing offered load).
    pub fn mean_gap(&self) -> SimDuration {
        match self {
            TemporalSpec::Cbr { period } => *period,
            TemporalSpec::Poisson { mean } => *mean,
        }
    }
}

// ---------------------------------------------------------------------
// Spatial: where packets go
// ---------------------------------------------------------------------

/// Destination choice: the spatial half of a traffic model.
///
/// [`SpatialPattern::pick`] computes one destination per emission from
/// `(src, mesh, rng)`. Deterministic patterns (transpose, complement,
/// reverse, tornado) consume **zero** RNG draws; the draw discipline of
/// the random ones is documented on each variant and is part of the
/// reproducibility contract.
///
/// A pick returns `None` when the pattern maps the source onto itself
/// (the transpose diagonal, the centre of an odd-sized complement mesh,
/// degenerate tornado widths) or outside the mesh (bit-reverse on a
/// non-power-of-two node count, transpose on a non-square mesh): the
/// emission slot is skipped, no packet is injected.
/// [`SpatialPattern::pick`] never panics; use
/// [`SpatialPattern::validate`] to reject structurally unsuitable
/// pattern/mesh pairings up front.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialPattern {
    /// Uniformly random over every *other* node. Draws exactly one
    /// `gen_range(N-1)` per emission — bit-compatible with the
    /// historical materialized all-but-self pool.
    UniformRandom,
    /// `(x, y) → (y, x)`. Diagonal nodes self-loop (skip); requires a
    /// square mesh to stay in-grid.
    Transpose,
    /// `(x, y) → (w-1-x, h-1-y)` — the coordinate complement. The
    /// centre node of an odd×odd mesh self-loops (skip).
    BitComplement,
    /// Row-major index → its bit-reversal in `ceil(log2(N))` bits.
    /// Well-defined on power-of-two node counts; reversals landing
    /// outside a non-power-of-two mesh (and palindromic indices, which
    /// self-loop) are skipped.
    BitReverse,
    /// `x → (x + ceil(w/2) - 1) mod w` per dimension — traffic chases
    /// half-way around each axis, the adversarial case for dimension-
    /// ordered routing. Degenerate axes (width ≤ 2) keep their
    /// coordinate; a full self-loop is skipped.
    Tornado,
    /// With probability `weight`, send to a uniformly chosen entry of
    /// `targets` (the hotspot); otherwise fall back to
    /// [`SpatialPattern::UniformRandom`]. Draws one `gen_f64`, then one
    /// `gen_range` (over targets or others respectively) per emission.
    Hotspot {
        /// The hotspot nodes (repeat an entry to weight it).
        targets: Vec<RouterId>,
        /// Probability of aiming at the hotspot, clamped to [0, 1].
        weight: f64,
    },
    /// A uniformly chosen mesh neighbour (N/E/S/W order; one
    /// `gen_range(degree)` per emission). A 1×1 mesh has none (skip).
    NearestNeighbour,
    /// The legacy escape hatch: a materialized destination pool, picked
    /// uniformly per emission (repeat an entry to weight it; one
    /// `gen_range(len)` per emission, the historical `choose` draw).
    /// Picks that land on the source are skipped.
    FixedPool(Vec<RouterId>),
}

/// Reverses the lowest `bits` bits of `v`.
fn reverse_bits(v: usize, bits: u32) -> usize {
    v.reverse_bits() >> (usize::BITS - bits)
}

/// The per-axis tornado offset: `ceil(n/2) - 1`.
fn tornado_offset(n: u8) -> u8 {
    n.div_ceil(2) - 1
}

impl SpatialPattern {
    /// A hotspot aimed at `targets` with the given weight.
    pub fn hotspot(targets: Vec<RouterId>, weight: f64) -> Self {
        SpatialPattern::Hotspot { targets, weight }
    }

    /// Computes the destination for one emission from `src`.
    ///
    /// Returns `None` when the pattern yields no destination for this
    /// source (self-loop or off-mesh mapping — see the variant docs);
    /// the caller skips the emission. Never panics for a source inside
    /// the mesh.
    pub fn pick(&self, src: RouterId, grid: &Grid, rng: &mut SimRng) -> Option<RouterId> {
        match self {
            SpatialPattern::UniformRandom => Self::uniform_other(src, grid, rng),
            SpatialPattern::Transpose => {
                let d = RouterId::new(src.y, src.x);
                (d != src && grid.contains(d)).then_some(d)
            }
            SpatialPattern::BitComplement => {
                let d = grid.mirror(src);
                (d != src).then_some(d)
            }
            SpatialPattern::BitReverse => {
                let n = grid.len();
                if n < 2 {
                    return None;
                }
                let i = grid.index(src);
                let bits = usize::BITS - (n - 1).leading_zeros();
                let r = reverse_bits(i, bits);
                (r != i && r < n).then(|| grid.id_at(r))
            }
            SpatialPattern::Tornado => {
                let d = RouterId::new(
                    (src.x + tornado_offset(grid.width())) % grid.width(),
                    (src.y + tornado_offset(grid.height())) % grid.height(),
                );
                (d != src).then_some(d)
            }
            SpatialPattern::Hotspot { targets, weight } => {
                if rng.gen_bool(*weight) {
                    // A hotspot node drawing itself (or an off-mesh
                    // target validate() would reject) skips the emission.
                    let d = *rng.choose(targets)?;
                    (d != src && grid.contains(d)).then_some(d)
                } else {
                    Self::uniform_other(src, grid, rng)
                }
            }
            SpatialPattern::NearestNeighbour => {
                let mut opts = [src; 4];
                let mut count = 0;
                for dir in mango_core::Direction::ALL {
                    if let Some(n) = grid.neighbor(src, dir) {
                        opts[count] = n;
                        count += 1;
                    }
                }
                (count > 0).then(|| opts[rng.gen_index(count)])
            }
            SpatialPattern::FixedPool(pool) => {
                let d = *rng.choose(pool)?;
                (d != src && grid.contains(d)).then_some(d)
            }
        }
    }

    /// One uniform draw over all nodes except `src`: `gen_range(N-1)`,
    /// skipping past the source's own index — the exact draw sequence of
    /// the historical materialized pool.
    fn uniform_other(src: RouterId, grid: &Grid, rng: &mut SimRng) -> Option<RouterId> {
        let n = grid.len();
        if n < 2 {
            return None;
        }
        let k = rng.gen_index(n - 1);
        let k = if k >= grid.index(src) { k + 1 } else { k };
        Some(grid.id_at(k))
    }

    /// Checks the pattern is structurally suited to `grid`: transpose
    /// needs a square mesh, bit-reverse a power-of-two node count, pools
    /// and hotspot targets must be non-empty and in-mesh, the hotspot
    /// weight finite.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement. A
    /// failed validation does not make [`SpatialPattern::pick`] unsafe —
    /// unsuitable mappings degrade to skipped emissions — but a spec
    /// that fails here is almost certainly a configuration bug.
    pub fn validate(&self, grid: &Grid) -> Result<(), String> {
        let in_mesh = |ids: &[RouterId], what: &str| match ids.iter().find(|d| !grid.contains(**d))
        {
            Some(d) => Err(format!("{what} {d} outside the {grid:?}", grid = grid)),
            None => Ok(()),
        };
        match self {
            SpatialPattern::Transpose if grid.width() != grid.height() => Err(format!(
                "transpose needs a square mesh, got {}x{}",
                grid.width(),
                grid.height()
            )),
            SpatialPattern::BitReverse if !grid.len().is_power_of_two() => Err(format!(
                "bit-reverse needs a power-of-two node count, got {}",
                grid.len()
            )),
            SpatialPattern::Hotspot { targets, weight } => {
                if targets.is_empty() {
                    return Err("hotspot needs at least one target".into());
                }
                if !weight.is_finite() {
                    return Err(format!("hotspot weight {weight} is not finite"));
                }
                in_mesh(targets, "hotspot target")
            }
            SpatialPattern::FixedPool(pool) => {
                if pool.is_empty() {
                    return Err("destination pool is empty".into());
                }
                in_mesh(pool, "pool destination")
            }
            _ => Ok(()),
        }
    }

    /// A short lowercase name for tables and CSV cells.
    pub fn name(&self) -> &'static str {
        match self {
            SpatialPattern::UniformRandom => "uniform",
            SpatialPattern::Transpose => "transpose",
            SpatialPattern::BitComplement => "bitcomp",
            SpatialPattern::BitReverse => "bitrev",
            SpatialPattern::Tornado => "tornado",
            SpatialPattern::Hotspot { .. } => "hotspot",
            SpatialPattern::NearestNeighbour => "neighbour",
            SpatialPattern::FixedPool(_) => "pool",
        }
    }
}

impl std::fmt::Display for SpatialPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------
// Pattern axis: named, parameter-free pattern points for sweeps
// ---------------------------------------------------------------------

/// A named spatial-pattern point for sweep grids and CLI flags: the
/// parameter-free subset of [`SpatialPattern`], resolved to a concrete
/// pattern per mesh by [`PatternKind::spatial`] (the canonical hotspot
/// aims half the traffic at the mesh-centre node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// [`SpatialPattern::UniformRandom`].
    Uniform,
    /// [`SpatialPattern::Transpose`].
    Transpose,
    /// [`SpatialPattern::BitComplement`].
    BitComplement,
    /// [`SpatialPattern::BitReverse`].
    BitReverse,
    /// [`SpatialPattern::Tornado`].
    Tornado,
    /// The canonical hotspot: weight 0.5 at the mesh-centre node.
    Hotspot,
    /// [`SpatialPattern::NearestNeighbour`].
    NearestNeighbour,
}

impl PatternKind {
    /// Every named pattern, in CLI listing order.
    pub const ALL: [PatternKind; 7] = [
        PatternKind::Uniform,
        PatternKind::Transpose,
        PatternKind::BitComplement,
        PatternKind::BitReverse,
        PatternKind::Tornado,
        PatternKind::Hotspot,
        PatternKind::NearestNeighbour,
    ];

    /// The CLI/CSV name.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::Uniform => "uniform",
            PatternKind::Transpose => "transpose",
            PatternKind::BitComplement => "bitcomp",
            PatternKind::BitReverse => "bitrev",
            PatternKind::Tornado => "tornado",
            PatternKind::Hotspot => "hotspot",
            PatternKind::NearestNeighbour => "neighbour",
        }
    }

    /// Parses a CLI name (the inverse of [`PatternKind::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        PatternKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Resolves the named point to a concrete pattern for a
    /// `width × height` mesh.
    pub fn spatial(self, width: u8, height: u8) -> SpatialPattern {
        match self {
            PatternKind::Uniform => SpatialPattern::UniformRandom,
            PatternKind::Transpose => SpatialPattern::Transpose,
            PatternKind::BitComplement => SpatialPattern::BitComplement,
            PatternKind::BitReverse => SpatialPattern::BitReverse,
            PatternKind::Tornado => SpatialPattern::Tornado,
            PatternKind::Hotspot => SpatialPattern::Hotspot {
                targets: vec![RouterId::new(width / 2, height / 2)],
                weight: 0.5,
            },
            PatternKind::NearestNeighbour => SpatialPattern::NearestNeighbour,
        }
    }
}

impl std::fmt::Display for PatternKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// What a source emits.
#[derive(Debug, Clone)]
pub(crate) enum SourceKind {
    /// Header-less GS flits on an open connection.
    Gs {
        /// Source router (resolved from the connection at add time).
        router: RouterId,
        /// NA TX interface (resolved from the connection).
        iface: u8,
    },
    /// BE packets whose destinations a [`SpatialPattern`] computes per
    /// emission.
    Be {
        /// Source router.
        router: RouterId,
        /// Destination model.
        spatial: SpatialPattern,
        /// Payload words per packet (flits = payload + header).
        payload_words: usize,
    },
}

/// A traffic source driving one flow.
#[derive(Debug, Clone)]
pub(crate) struct Source {
    /// What to emit.
    pub kind: SourceKind,
    /// When to emit.
    pub pattern: TemporalSpec,
    /// Flow id in the statistics registry.
    pub flow: u32,
    /// No emissions at or after this time.
    pub stop: Option<SimTime>,
    /// Maximum emissions.
    pub limit: Option<u64>,
    /// Emissions so far.
    pub emitted: u64,
    /// Private random stream.
    pub rng: SimRng,
    /// The source has finished.
    pub done: bool,
}

impl Source {
    /// True if the source may emit at `now` (its first tick is its first
    /// emission, so no tick comes before its start).
    pub fn may_emit(&self, now: SimTime) -> bool {
        !self.done
            && self.stop.is_none_or(|s| now < s)
            && self.limit.is_none_or(|l| self.emitted < l)
    }

    /// Computes the next tick time after an emission at `now`, marking the
    /// source done if it hit a bound or its next tick falls past the
    /// clock's end; a silenced source ticks no more.
    pub fn schedule_next(&mut self, now: SimTime) -> Option<SimTime> {
        if self.done || self.limit.is_some_and(|l| self.emitted >= l) {
            self.done = true;
            return None;
        }
        let gap = self.pattern.next_gap(&mut self.rng);
        match now.checked_add(gap) {
            Some(next) if self.stop.is_none_or(|s| next < s) => Some(next),
            _ => {
                self.done = true;
                None
            }
        }
    }
}

impl Network {
    /// Silences every traffic source feeding `flow` (recovery: stop
    /// streaming into a broken connection before tearing it down).
    pub fn stop_sources_of_flow(&mut self, flow: u32) {
        for s in &mut self.sources {
            if s.flow == flow {
                s.done = true;
            }
        }
    }

    /// One source tick: emit (a GS flit into the NA queue, or a BE
    /// packet) if the source may, then schedule the next tick. A tick
    /// throttled by stop/limit, or one whose spatial pattern yields no
    /// destination, skips the emission but keeps the cadence (the first
    /// tick is scheduled at `start` plus [`TemporalSpec::first_gap`]).
    pub(crate) fn on_source_tick(&mut self, idx: usize, ctx: &mut Ctx<NetEvent>) {
        let now = ctx.now();
        if self.sources[idx].may_emit(now) {
            self.sources[idx].emitted += 1;
            let flow = self.sources[idx].flow;
            // Read what this tick emits without cloning the source kind
            // (the BE destination pool is a Vec; cloning it per tick is a
            // hot-path allocation).
            let source = &mut self.sources[idx];
            match source.kind {
                SourceKind::Gs { router, iface, .. } => {
                    let seq = self.stats.on_inject(flow);
                    let tag = self.meta.alloc(FlitMeta::new(now, seq, flow));
                    let flit = Flit::gs(seq as u32).with_tag(tag);
                    let node = self.grid.index(router);
                    if self.na.enqueue_gs(node, iface, flit) {
                        ctx.schedule(
                            self.inject_delay(),
                            NetEvent::NaGsInject { id: router, iface },
                        );
                    }
                }
                SourceKind::Be {
                    router,
                    ref spatial,
                    payload_words,
                } => {
                    // Destination computed per emission — allocation-free
                    // for every computed pattern; `None` is a self-loop
                    // or off-mesh mapping, see [`SpatialPattern::pick`].
                    if let Some(dest) = spatial.pick(router, &self.grid, &mut source.rng) {
                        let mut payload = std::mem::take(&mut self.payload_scratch);
                        payload.clear();
                        payload.extend(0..payload_words as u32);
                        self.send_be_packet(router, dest, &payload, Some(flow), now, ctx);
                        self.payload_scratch = payload;
                    }
                }
            }
        }
        if let Some(next) = self.sources[idx].schedule_next(now) {
            ctx.schedule_at(next, NetEvent::SourceTick { idx });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    #[test]
    fn cbr_gap_is_constant() {
        let p = TemporalSpec::cbr(SimDuration::from_ns(5));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(p.next_gap(&mut r), SimDuration::from_ns(5));
        }
        assert_eq!(p.mean_gap(), SimDuration::from_ns(5));
    }

    #[test]
    fn poisson_gap_mean_converges() {
        let p = TemporalSpec::poisson(SimDuration::from_ns(10));
        let mut r = rng();
        let n = 50_000;
        let total: u64 = (0..n).map(|_| p.next_gap(&mut r).as_ps()).sum();
        let mean_ns = total as f64 / n as f64 / 1000.0;
        assert!((mean_ns - 10.0).abs() < 0.3, "mean {mean_ns} ns");
        assert_eq!(p.mean_gap(), SimDuration::from_ns(10));
    }

    fn be_source(spatial: SpatialPattern) -> Source {
        Source {
            kind: SourceKind::Be {
                router: RouterId::new(0, 0),
                spatial,
                payload_words: 2,
            },
            pattern: TemporalSpec::cbr(SimDuration::from_ns(1)),
            flow: 0,
            stop: Some(SimTime::from_ns(20)),
            limit: Some(3),
            emitted: 0,
            rng: rng(),
            done: false,
        }
    }

    #[test]
    fn source_bounds_enforced() {
        let mut s = be_source(SpatialPattern::FixedPool(vec![RouterId::new(1, 0)]));
        assert!(s.may_emit(SimTime::from_ns(10)));
        assert!(!s.may_emit(SimTime::from_ns(20)), "at stop");
        s.emitted = 3;
        assert!(!s.may_emit(SimTime::from_ns(15)), "limit hit");
        assert_eq!(s.schedule_next(SimTime::from_ns(15)), None);
        assert!(s.done);
    }

    #[test]
    fn schedule_next_respects_stop() {
        let mut s = be_source(SpatialPattern::FixedPool(vec![RouterId::new(1, 0)]));
        s.pattern = TemporalSpec::cbr(SimDuration::from_ns(8));
        s.stop = Some(SimTime::from_ns(10));
        s.limit = None;
        s.emitted = 1;
        assert_eq!(
            s.schedule_next(SimTime::from_ns(1)),
            Some(SimTime::from_ns(9))
        );
        assert_eq!(s.schedule_next(SimTime::from_ns(9)), None, "9+8 >= stop");
        assert!(s.done);
    }

    #[test]
    fn a_tick_past_the_clock_ends_the_source() {
        let mut s = be_source(SpatialPattern::FixedPool(vec![RouterId::new(1, 0)]));
        s.pattern = TemporalSpec::cbr(SimDuration::from_ps(u64::MAX - 10));
        s.stop = None;
        s.limit = None;
        assert_eq!(
            s.schedule_next(SimTime::from_ps(10)),
            Some(SimTime::from_ps(u64::MAX))
        );
        assert!(!s.done, "the last instant of the clock still fits");
        assert_eq!(s.schedule_next(SimTime::from_ps(11)), None);
        assert!(s.done);
    }

    // -- spatial patterns --------------------------------------------

    #[test]
    fn uniform_matches_legacy_pool_draws() {
        // The RNG-compatibility contract: one gen_range(N-1) per pick,
        // mapped over the all-but-self pool in grid order.
        let grid = Grid::new(4, 4);
        let src = RouterId::new(2, 1);
        let pool: Vec<RouterId> = grid.ids().filter(|d| *d != src).collect();
        let mut a = rng();
        let mut b = rng();
        for _ in 0..1000 {
            let computed = SpatialPattern::UniformRandom
                .pick(src, &grid, &mut a)
                .unwrap();
            let legacy = *b.choose(&pool).unwrap();
            assert_eq!(computed, legacy);
        }
        assert_eq!(a, b, "identical draw counts");
    }

    #[test]
    fn deterministic_patterns_consume_no_rng() {
        let grid = Grid::new(4, 4);
        let mut r = rng();
        let before = r.clone();
        for p in [
            SpatialPattern::Transpose,
            SpatialPattern::BitComplement,
            SpatialPattern::BitReverse,
            SpatialPattern::Tornado,
        ] {
            p.pick(RouterId::new(1, 2), &grid, &mut r);
        }
        assert_eq!(r, before, "deterministic patterns draw nothing");
    }

    #[test]
    fn transpose_swaps_coordinates_and_skips_diagonal() {
        let grid = Grid::new(4, 4);
        let mut r = rng();
        assert_eq!(
            SpatialPattern::Transpose.pick(RouterId::new(3, 1), &grid, &mut r),
            Some(RouterId::new(1, 3))
        );
        assert_eq!(
            SpatialPattern::Transpose.pick(RouterId::new(2, 2), &grid, &mut r),
            None,
            "diagonal self-loops are skipped"
        );
        assert!(SpatialPattern::Transpose.validate(&grid).is_ok());
        assert!(SpatialPattern::Transpose
            .validate(&Grid::new(4, 2))
            .is_err());
    }

    #[test]
    fn bit_complement_reflects_through_centre() {
        let grid = Grid::new(4, 4);
        let mut r = rng();
        assert_eq!(
            SpatialPattern::BitComplement.pick(RouterId::new(0, 1), &grid, &mut r),
            Some(RouterId::new(3, 2))
        );
        // Odd×odd centre self-loops.
        let odd = Grid::new(3, 3);
        assert_eq!(
            SpatialPattern::BitComplement.pick(RouterId::new(1, 1), &odd, &mut r),
            None
        );
    }

    #[test]
    fn bit_reverse_on_power_of_two_mesh() {
        let grid = Grid::new(4, 4); // 16 nodes, 4 bits
        let mut r = rng();
        // Index 1 (0001) → 8 (1000) = (0, 2).
        assert_eq!(
            SpatialPattern::BitReverse.pick(RouterId::new(1, 0), &grid, &mut r),
            Some(RouterId::new(0, 2))
        );
        // Palindromic index 0 self-loops.
        assert_eq!(
            SpatialPattern::BitReverse.pick(RouterId::new(0, 0), &grid, &mut r),
            None
        );
        assert!(SpatialPattern::BitReverse.validate(&grid).is_ok());
        assert!(SpatialPattern::BitReverse
            .validate(&Grid::new(3, 4))
            .is_err());
    }

    #[test]
    fn tornado_chases_half_way_round() {
        let grid = Grid::new(8, 8); // offset ceil(8/2)-1 = 3
        let mut r = rng();
        assert_eq!(
            SpatialPattern::Tornado.pick(RouterId::new(0, 0), &grid, &mut r),
            Some(RouterId::new(3, 3))
        );
        assert_eq!(
            SpatialPattern::Tornado.pick(RouterId::new(6, 7), &grid, &mut r),
            Some(RouterId::new(1, 2))
        );
        // Width ≤ 2 axes are degenerate; a 2×2 mesh self-loops entirely.
        let tiny = Grid::new(2, 2);
        assert_eq!(
            SpatialPattern::Tornado.pick(RouterId::new(0, 1), &tiny, &mut r),
            None
        );
    }

    #[test]
    fn hotspot_weights_targets() {
        let grid = Grid::new(4, 4);
        let target = RouterId::new(3, 0);
        let p = SpatialPattern::hotspot(vec![target], 0.75);
        let mut r = rng();
        let n = 10_000;
        let hits = (0..n)
            .filter(|_| p.pick(RouterId::new(0, 0), &grid, &mut r) == Some(target))
            .count();
        // 0.75 direct + 0.25 × 1/15 uniform fallback ≈ 0.7667.
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.7667).abs() < 0.02, "hotspot rate {rate}");
    }

    #[test]
    fn nearest_neighbour_stays_adjacent() {
        let grid = Grid::new(3, 3);
        let mut r = rng();
        for _ in 0..200 {
            let d = SpatialPattern::NearestNeighbour
                .pick(RouterId::new(0, 0), &grid, &mut r)
                .unwrap();
            assert!(
                d == RouterId::new(1, 0) || d == RouterId::new(0, 1),
                "corner neighbours only, got {d}"
            );
        }
        assert_eq!(
            SpatialPattern::NearestNeighbour.pick(RouterId::new(0, 0), &Grid::new(1, 1), &mut r),
            None
        );
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let grid = Grid::new(2, 2);
        assert!(SpatialPattern::FixedPool(vec![]).validate(&grid).is_err());
        assert!(SpatialPattern::FixedPool(vec![RouterId::new(5, 5)])
            .validate(&grid)
            .is_err());
        assert!(SpatialPattern::hotspot(vec![], 0.5)
            .validate(&grid)
            .is_err());
        assert!(SpatialPattern::hotspot(vec![RouterId::new(0, 0)], f64::NAN)
            .validate(&grid)
            .is_err());
        assert!(SpatialPattern::UniformRandom.validate(&grid).is_ok());
    }

    #[test]
    fn pattern_kind_round_trips_names() {
        for kind in PatternKind::ALL {
            assert_eq!(PatternKind::parse(kind.name()), Some(kind));
            let spatial = kind.spatial(8, 8);
            assert_eq!(spatial.name(), kind.name());
            assert!(spatial.validate(&Grid::new(8, 8)).is_ok());
        }
        assert_eq!(PatternKind::parse("nope"), None);
    }
}
