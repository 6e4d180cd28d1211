//! The analytical guarantee model: per-connection worst-case latency and
//! guaranteed bandwidth, computed from the reserved VC chain.
//!
//! A GS connection reserves one independently buffered VC on every link
//! of its path (Sec. 3), so its service composes per hop: at each link
//! the flit waits for the arbiter to grant its VC, then traverses the
//! forward path into the next hop's buffer. The arbitration policy
//! determines the worst-case wait (Sec. 4.4):
//!
//! * **fair-share** — round-robin over the link's `slots = gs_vcs + 1`
//!   channels: a continuously ready VC is granted within `slots` link
//!   cycles (its own grant included), giving it ≥ `1/slots` of link
//!   bandwidth;
//! * **ALG** — priority with age bound `B`: granted within
//!   `B + slots` link cycles;
//! * **static priority** — no bound for any VC but the highest: the
//!   report carries `None` and admission control refuses to guarantee.
//!
//! A single VC is additionally rate-limited by the share-based VC
//! control loop: the sharebox stays locked until the downstream
//! unsharebox empties, so a lone backlogged VC is granted once per
//! [`mango_hw::RouterTiming::lone_vc_spacing`] — the arbiter's decision
//! plus the VC loop, which stretches by twice the extra delay of a
//! pipelined or D2D link. Consecutive flits of one connection are spaced
//! by at least the larger of that spacing on the path's slowest link and
//! the arbitration round ([`ServiceModel::service_interval`]). The
//! reciprocal of that interval is the connection's **guaranteed
//! bandwidth**.
//!
//! The latency bound is a sum of named stage terms ([`BoundTerms`],
//! written once in [`ServiceModel::terms`]). It is intentionally
//! *conservative* (sound, not tight): every stage contributes its worst
//! case simultaneously, which no real schedule achieves. The
//! simulation-facing contract is `observed max ≤ bound` for every
//! admitted, rate-conforming connection; a [`GuaranteeAudit`] is the one
//! place it is checked.

use mango_core::{ArbiterKind, Direction, RouterConfig, RouterId};
use mango_hw::RouterTiming;
use mango_net::{Grid, NaConfig};
use mango_sim::SimDuration;

/// The per-hop service model shared by every connection of one network
/// (one router + NA configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    /// Channels contending for each link: GS VCs + the BE channel.
    pub slots: usize,
    /// The router's stage delays.
    pub timing: RouterTiming,
    /// Core-side consume delay per delivered flit.
    pub consume_delay: SimDuration,
    /// Worst-case grants-until-served for a continuously ready VC (its
    /// own grant included); `None` when the arbiter gives no bound.
    pub grant_bound: Option<u64>,
}

/// What the bound reads of a path: its length and its per-link extra
/// forward delays (pipelined long links, chiplet D2D boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathExtras {
    /// Links the path traverses.
    pub hops: usize,
    /// The sum of the per-link extras: pure forward latency, paid once
    /// per link.
    pub extra_total: SimDuration,
    /// The largest single-link extra: the bandwidth bottleneck (see
    /// [`ServiceModel::service_interval`]).
    pub extra_max: SimDuration,
}

impl PathExtras {
    /// A path of `hops` links without extra delay.
    pub fn uniform(hops: usize) -> Self {
        PathExtras {
            hops,
            extra_total: SimDuration::ZERO,
            extra_max: SimDuration::ZERO,
        }
    }
}

/// The worst-case latency of one conforming connection, term by term;
/// [`BoundTerms::total`] is the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundTerms {
    /// NA queue: at most one service interval ahead of the flit.
    pub na_queue: SimDuration,
    /// Injection: the local forward path and the latch into the first
    /// buffer.
    pub injection: SimDuration,
    /// Every link: the arbitration round, then the forward path and the
    /// buffer advance into the next hop.
    pub per_hop: SimDuration,
    /// Links that each pay `per_hop`.
    pub hops: usize,
    /// Heterogeneous links: each extra pipeline stage is paid once on
    /// the forward traversal.
    pub extra_total: SimDuration,
    /// Delivery: the NA's receive slot may be mid-consume.
    pub delivery: SimDuration,
}

impl BoundTerms {
    /// The bound: the sum of the terms.
    pub fn total(&self) -> SimDuration {
        self.na_queue
            + self.injection
            + self.per_hop * self.hops as u64
            + self.extra_total
            + self.delivery
    }
}

impl ServiceModel {
    /// Derives the model from a router + NA configuration.
    pub fn new(cfg: &RouterConfig, na: &NaConfig) -> Self {
        let slots = cfg.gs_vcs() + 1;
        let grant_bound = match cfg.arbiter {
            ArbiterKind::FairShare => Some(slots as u64),
            ArbiterKind::Alg { age_bound } => Some(u64::from(age_bound) + slots as u64),
            ArbiterKind::StaticPriority => None,
        };
        ServiceModel {
            slots,
            timing: cfg.timing.clone(),
            consume_delay: na.consume_delay,
            grant_bound,
        }
    }

    /// The model of the paper's router and NA.
    pub fn paper() -> Self {
        Self::new(&RouterConfig::paper(), &NaConfig::paper())
    }

    /// The worst-case wait of a continuously ready VC for its grant:
    /// `grant_bound` link cycles. `None` when the arbiter is unbounded.
    pub fn grant_wait(&self) -> Option<SimDuration> {
        Some(self.timing.link_cycle * self.grant_bound?)
    }

    /// The arbitration round: the arbiter's decision, then the grant
    /// wait. `None` when the arbiter is unbounded.
    pub fn round(&self) -> Option<SimDuration> {
        Some(self.timing.arb_decision + self.grant_wait()?)
    }

    /// Worst-case spacing between consecutive grants to one VC while it
    /// stays backlogged, when the slowest link of its path adds
    /// `extra_max` forward delay: the arbitration round (local to the
    /// sending router, so the extra does not touch it), floored by the
    /// lone VC's grant spacing on that link. `None` when the arbiter is
    /// unbounded.
    pub fn service_interval(&self, extra_max: SimDuration) -> Option<SimDuration> {
        Some(self.round()?.max(self.timing.lone_vc_spacing(extra_max)))
    }

    /// The bound's terms for a connection along `path` streaming one flit
    /// per `period` — the one place stage delays are added into a bound.
    /// `None` when the arbiter gives no bound or the source does not
    /// conform: a source faster than the service interval grows its NA
    /// queue without bound, and no per-flit latency bound exists.
    pub fn terms(&self, path: &PathExtras, period: SimDuration) -> Option<BoundTerms> {
        let interval = self
            .service_interval(path.extra_max)
            .filter(|&interval| period >= interval)?;
        let forward = self.timing.hop_forward + self.timing.buffer_advance;
        Some(BoundTerms {
            na_queue: interval,
            injection: forward,
            per_hop: self.round()? + forward,
            hops: path.hops,
            extra_total: path.extra_total,
            delivery: self.consume_delay,
        })
    }

    /// The guarantee report for a connection along `path` streaming one
    /// flit per `period`.
    pub fn report(&self, path: &PathExtras, period: SimDuration) -> GuaranteeReport {
        let service_interval = self.service_interval(path.extra_max);
        GuaranteeReport {
            requested_mfps: period.as_rate_mhz(),
            guaranteed_mfps: service_interval.map_or(0.0, SimDuration::as_rate_mhz),
            conforming: service_interval.is_some_and(|interval| period >= interval),
            service_interval,
            worst_latency: self.terms(path, period).map(|terms| terms.total()),
        }
    }

    /// The guarantee report for the concrete path `src` + `dirs` over
    /// `grid`: [`ServiceModel::report`] of its [`path_extras`].
    ///
    /// # Panics
    ///
    /// Panics if the path walks off the grid.
    pub fn report_along(
        &self,
        grid: &Grid,
        src: RouterId,
        dirs: &[Direction],
        period: SimDuration,
    ) -> GuaranteeReport {
        self.report(&path_extras(grid, src, dirs), period)
    }
}

/// The [`PathExtras`] of the path `src` + `dirs`.
///
/// # Panics
///
/// Panics if the path walks off the grid.
pub fn path_extras(grid: &Grid, src: RouterId, dirs: &[Direction]) -> PathExtras {
    walk_path(grid, src, dirs.iter().copied(), |_, _| {})
}

/// [`path_extras`] that also hands every link `(from, dir)` of the path
/// to `visit`, in path order.
///
/// # Panics
///
/// Panics if the path walks off the grid.
pub(crate) fn walk_path(
    grid: &Grid,
    src: RouterId,
    dirs: impl IntoIterator<Item = Direction>,
    mut visit: impl FnMut(RouterId, Direction),
) -> PathExtras {
    let mut path = PathExtras::uniform(0);
    let mut cur = src;
    for dir in dirs {
        visit(cur, dir);
        let extra = grid.link_extra(cur, dir);
        path.hops += 1;
        path.extra_total += extra;
        path.extra_max = path.extra_max.max(extra);
        cur = grid
            .neighbor(cur, dir)
            .unwrap_or_else(|| panic!("path leaves the grid at {cur}->{dir}"));
    }
    path
}

/// The analytical guarantees of one GS connection.
#[derive(Debug, Clone, PartialEq)]
pub struct GuaranteeReport {
    /// Offered rate, Mflit/s.
    pub requested_mfps: f64,
    /// Guaranteed bandwidth, Mflit/s (zero when unbounded arbiter).
    pub guaranteed_mfps: f64,
    /// The offered rate fits inside the guarantee.
    pub conforming: bool,
    /// Worst-case per-VC grant spacing (`None` for unbounded arbiters).
    pub service_interval: Option<SimDuration>,
    /// Worst-case end-to-end latency ([`BoundTerms::total`]); `None` when
    /// the source does not conform or the arbiter gives no bound.
    pub worst_latency: Option<SimDuration>,
}

/// One audited connection: its bound, the worst latency observed on it,
/// and the witness — its endpoints and path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Source router.
    pub src: RouterId,
    /// Destination router.
    pub dst: RouterId,
    /// The path, one direction per link.
    pub dirs: Vec<Direction>,
    /// The analytical worst case ([`GuaranteeReport::worst_latency`]).
    pub bound: Option<SimDuration>,
    /// The worst latency observed; `None` without a latency sample.
    pub observed: Option<SimDuration>,
}

impl AuditEntry {
    /// The one definition of a broken guarantee: an observation above
    /// the bound, in integer picoseconds.
    pub fn violates(&self) -> bool {
        matches!((self.observed, self.bound), (Some(obs), Some(bound)) if obs > bound)
    }

    /// `observed / bound`, when both exist.
    pub fn ratio(&self) -> Option<f64> {
        Some(self.observed?.as_ns_f64() / self.bound?.as_ns_f64())
    }
}

impl std::fmt::Display for AuditEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ns = |d: Option<SimDuration>| d.map_or("-".into(), |d| format!("{:.3}", d.as_ns_f64()));
        let path: String = self.dirs.iter().map(Direction::to_string).collect();
        let (observed, bound) = (ns(self.observed), ns(self.bound));
        write!(f, "{} -> {} via {path}: ", self.src, self.dst)?;
        write!(f, "observed {observed} ns, bound {bound} ns")
    }
}

/// The guarantee check of a run: every connection's observed worst
/// latency against its analytical bound, judged by
/// [`AuditEntry::violates`]. A connection with no latency sample is
/// *unmeasured*, one without a bound *unbounded*; neither is a
/// violation, and [`GuaranteeAudit::holds`] refuses both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuaranteeAudit {
    entries: Vec<AuditEntry>,
}

impl GuaranteeAudit {
    /// Registers the connection `src` → `dst` along `dirs`, not yet
    /// observed; returns its index for [`GuaranteeAudit::observe`].
    pub fn register(
        &mut self,
        src: RouterId,
        dst: RouterId,
        dirs: &[Direction],
        bound: Option<SimDuration>,
    ) -> usize {
        let (dirs, observed) = (dirs.to_vec(), None);
        self.entries.push(AuditEntry {
            src,
            dst,
            dirs,
            bound,
            observed,
        });
        self.entries.len() - 1
    }

    /// Records the worst latency observed on connection `k`.
    pub fn observe(&mut self, k: usize, observed: Option<SimDuration>) {
        self.entries[k].observed = observed;
    }

    /// Every registered connection, in registration order.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Connections whose observation exceeds their bound.
    pub fn violations(&self) -> u64 {
        self.count(AuditEntry::violates)
    }

    /// Connections with no latency sample.
    pub fn unmeasured(&self) -> u64 {
        self.count(|e| e.observed.is_none())
    }

    /// Connections without a bound.
    pub fn unbounded(&self) -> u64 {
        self.count(|e| e.bound.is_none())
    }

    fn count(&self, pred: impl Fn(&AuditEntry) -> bool) -> u64 {
        self.entries.iter().filter(|e| pred(e)).count() as u64
    }

    /// Every connection was measured, bounded and within its bound.
    pub fn holds(&self) -> bool {
        self.violations() == 0 && self.unmeasured() == 0 && self.unbounded() == 0
    }

    /// The connection with the largest [`AuditEntry::ratio`], the first
    /// registered on a tie; `None` when no connection has one.
    pub fn worst(&self) -> Option<&AuditEntry> {
        let ratios = self.entries.iter().filter_map(|e| Some((e.ratio()?, e)));
        let worst = ratios.reduce(|worst, next| if next.0 > worst.0 { next } else { worst });
        worst.map(|(_, e)| e)
    }

    /// The worst `observed / bound` (0 when no connection has one).
    pub fn worst_bound_ratio(&self) -> f64 {
        self.worst().and_then(AuditEntry::ratio).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mango_core::ArbiterKind;

    fn model() -> ServiceModel {
        ServiceModel::paper()
    }

    /// A 12 ns flit period on a path of `hops` zero-extra links.
    fn report(hops: usize) -> GuaranteeReport {
        model().report(&PathExtras::uniform(hops), SimDuration::from_ns(12))
    }

    /// Hand-computed pins for the paper's typical-corner configuration.
    ///
    /// Stage delays (crates/hw/timing.rs, typical): link_cycle 1258 ps,
    /// arb_decision 250 ps, hop_forward 950 ps, buffer_advance 180 ps,
    /// vc_loop 950+180+620 = 1750 ps. 7 GS VCs + BE ⇒ 8 slots.
    #[test]
    fn paper_service_model_numbers() {
        let m = model();
        assert_eq!(m.slots, 8);
        assert_eq!(m.timing.link_cycle.as_ps(), 1258);
        assert_eq!(m.timing.arb_decision.as_ps(), 250);
        assert_eq!(m.timing.hop_forward.as_ps(), 950);
        assert_eq!(m.timing.buffer_advance.as_ps(), 180);
        assert_eq!(m.timing.vc_loop().as_ps(), 1750);
        // A lone VC is granted every 250 + 1750 = 2000 ps: the 500.0
        // Mflit/s Fig. 6 and Sec. 3 measure.
        assert_eq!(m.timing.lone_vc_spacing(SimDuration::ZERO).as_ps(), 2_000);
        // Fair share: 8 grants × 1258 + 250 = 10314 ps round, above the
        // lone VC's 2000 ps.
        assert_eq!(m.grant_bound, Some(8));
        assert_eq!(m.grant_wait().unwrap().as_ps(), 10_064);
        assert_eq!(m.round().unwrap().as_ps(), 10_314);
        assert_eq!(
            m.service_interval(SimDuration::ZERO).unwrap().as_ps(),
            10_314
        );
        // Guaranteed bandwidth ≈ 96.96 Mflit/s (1/10314 ps).
        assert!((report(1).guaranteed_mfps - 96.955).abs() < 0.01);
    }

    #[test]
    fn one_hop_bound_is_hand_computed_sum() {
        // Conforming CBR at 12 ns ≥ 10.314 ns service interval.
        let r = report(1);
        assert!(r.conforming);
        // queue 10314 + inject (950 + 180) + hop (250 + 8×1258 + 950 +
        // 180) + consume 0 = 22 888 ps.
        assert_eq!(r.worst_latency.unwrap().as_ps(), 22_888);
        let terms = model().terms(&PathExtras::uniform(1), SimDuration::from_ns(12));
        let ps = |d: SimDuration| d.as_ps();
        let t = terms.expect("a conforming source has a bound");
        assert_eq!(
            [
                t.na_queue,
                t.injection,
                t.per_hop,
                t.extra_total,
                t.delivery
            ]
            .map(ps),
            [10_314, 1_130, 11_444, 0, 0]
        );
        assert_eq!(t.hops, 1);
    }

    #[test]
    fn three_hop_bound_adds_two_more_hops() {
        let (one, three) = (report(1), report(3));
        // Each extra hop adds exactly 250 + 8×1258 + 950 + 180 = 11 444 ps.
        assert_eq!(
            three.worst_latency.unwrap().as_ps(),
            one.worst_latency.unwrap().as_ps() + 2 * 11_444
        );
        assert_eq!(three.worst_latency.unwrap().as_ps(), 45_776);
    }

    #[test]
    fn non_conforming_source_has_no_bound() {
        // 3 ns per flit (333 Mflit/s) exceeds the ~97 Mflit/s guarantee.
        let r = model().report(&PathExtras::uniform(4), SimDuration::from_ns(3));
        assert!(!r.conforming);
        assert_eq!(r.worst_latency, None);
        let mut audit = GuaranteeAudit::default();
        let k = audit.register(
            RouterId::new(0, 0),
            RouterId::new(4, 0),
            &[],
            r.worst_latency,
        );
        audit.observe(k, Some(SimDuration::ZERO));
        assert_eq!((audit.violations(), audit.unbounded()), (0, 1));
        assert!(!audit.holds(), "no bound, no guarantee");
    }

    #[test]
    fn static_priority_gives_no_guarantee() {
        let mut cfg = RouterConfig::paper();
        cfg.arbiter = ArbiterKind::StaticPriority;
        let m = ServiceModel::new(&cfg, &NaConfig::paper());
        assert_eq!(m.grant_bound, None);
        assert_eq!(m.service_interval(SimDuration::ZERO), None);
        let r = m.report(&PathExtras::uniform(2), SimDuration::from_ns(50));
        assert_eq!(r.guaranteed_mfps, 0.0);
        assert_eq!(r.worst_latency, None);
    }

    #[test]
    fn alg_bound_scales_with_age_bound() {
        let mut cfg = RouterConfig::paper();
        cfg.arbiter = ArbiterKind::Alg { age_bound: 4 };
        let m = ServiceModel::new(&cfg, &NaConfig::paper());
        // 4 + 8 = 12 grants worst case.
        assert_eq!(m.grant_bound, Some(12));
        assert_eq!(
            m.service_interval(SimDuration::ZERO).unwrap().as_ps(),
            250 + 12 * 1258
        );
    }

    #[test]
    fn vc_loop_floors_the_interval_for_tiny_arbitration_rounds() {
        // Squeeze the cycle to see the floor bite.
        let mut cfg = RouterConfig::paper();
        cfg.timing.link_cycle = SimDuration::from_ps(100);
        cfg.timing.arb_decision = SimDuration::from_ps(10);
        let m = ServiceModel::new(&cfg, &NaConfig::paper());
        // Round = 10 + 8×100 = 810 < the lone VC's 10 + 1750 = 1760 ⇒
        // floored by the spacing the data plane grants a lone VC at.
        assert_eq!(m.round().unwrap().as_ps(), 810);
        let floor = m.timing.lone_vc_spacing(SimDuration::ZERO);
        assert_eq!(floor.as_ps(), 1_760);
        assert_eq!(m.service_interval(SimDuration::ZERO), Some(floor));
    }

    /// Sec. 4.4: single-flit-deep buffers + unsharebox are "enough to
    /// ensure the fair-share scheme to function over a sequence of links"
    /// with 8 VCs: at both corners the round, not the lone VC's loop,
    /// sets the interval.
    #[test]
    fn depth_one_buffers_sustain_fair_share_of_eight() {
        for cfg in [RouterConfig::paper(), RouterConfig::paper_worst_case()] {
            let mut m = ServiceModel::new(&cfg, &NaConfig::paper());
            let lone = m.timing.lone_vc_spacing(SimDuration::ZERO);
            assert!(lone < m.round().unwrap(), "{lone} vs {:?}", m.round());
            assert_eq!(m.service_interval(SimDuration::ZERO), m.round());
            // And with lots of margin: even a 1/3 share would still work.
            m.grant_bound = Some(3);
            assert_eq!(m.service_interval(SimDuration::ZERO), m.round());
        }
    }

    /// An audit of one connection `(0,0) -> (1,0)` per bound, observed
    /// at the paired latency.
    fn audit_of(cases: &[(Option<u64>, Option<u64>)]) -> GuaranteeAudit {
        let mut audit = GuaranteeAudit::default();
        let (src, dst) = (RouterId::new(0, 0), RouterId::new(1, 0));
        for &(bound_ps, observed_ps) in cases {
            let k = audit.register(
                src,
                dst,
                &[Direction::East],
                bound_ps.map(SimDuration::from_ps),
            );
            audit.observe(k, observed_ps.map(SimDuration::from_ps));
        }
        audit
    }

    /// The boundary, in integer picoseconds: an observation equal to the
    /// bound holds, one picosecond more is a violation.
    #[test]
    fn audit_compares_in_integer_picoseconds() {
        let bound = report(1).worst_latency;
        assert_eq!(bound, Some(SimDuration::from_ps(22_888)));
        let at = audit_of(&[(Some(22_888), Some(22_888))]);
        assert_eq!(at.violations(), 0);
        assert!(at.holds());
        assert_eq!(at.worst_bound_ratio(), 1.0);
        let above = audit_of(&[(Some(22_888), Some(22_889))]);
        assert_eq!(above.violations(), 1);
        assert!(!above.holds());
        assert!(above.entries()[0].violates());
    }

    /// No latency sample is `unmeasured`, no bound `unbounded`; neither
    /// is a violation, neither holds, and neither has a ratio.
    #[test]
    fn audit_counts_unmeasured_and_unbounded_apart() {
        let audit = audit_of(&[(Some(1_000), None), (None, Some(5_000)), (None, None)]);
        assert_eq!(audit.violations(), 0);
        assert_eq!((audit.unmeasured(), audit.unbounded()), (2, 2));
        assert!(!audit.holds());
        assert_eq!(audit.worst(), None);
        assert_eq!(audit.worst_bound_ratio(), 0.0);
        assert!(GuaranteeAudit::default().holds(), "nothing to check holds");
    }

    /// The witness of the worst ratio is the connection registered first
    /// among equal ratios; the ratio is the observation's ns over the
    /// bound's.
    #[test]
    fn audit_witness_is_the_first_of_equal_ratios() {
        let mut audit = audit_of(&[(Some(4_000), Some(1_000)), (Some(2_000), Some(1_000))]);
        let k = audit.register(
            RouterId::new(3, 3),
            RouterId::new(0, 0),
            &[],
            Some(SimDuration::from_ps(4_000)),
        );
        audit.observe(k, Some(SimDuration::from_ps(2_000)));
        let worst = audit.worst().expect("measured and bounded");
        assert_eq!(worst, &audit.entries()[1]);
        assert_eq!(audit.worst_bound_ratio(), 0.5);
        assert_eq!(audit.entries()[0].ratio(), Some(1.0 / 4.0));
        assert_eq!(
            worst.to_string(),
            "(0,0) -> (1,0) via E: observed 1.000 ns, bound 2.000 ns"
        );
    }

    /// Along a path of zero-extra links, `report_along` is the report of
    /// the uniform path of the same length.
    #[test]
    fn zero_extras_reduce_to_the_homogeneous_report() {
        let (m, grid) = (model(), Grid::new(15, 1));
        for hops in [1, 3, 7, 14] {
            let dirs = vec![Direction::East; hops];
            let period = SimDuration::from_ns(12);
            assert_eq!(
                m.report_along(&grid, RouterId::new(0, 0), &dirs, period),
                m.report(&PathExtras::uniform(hops), period),
            );
        }
    }

    /// The canonical 2 ns D2D extra stretches the lone VC's spacing to
    /// 250 + 1750 + 2×2000 = 6000 ps — still under the 10 314 ps
    /// fair-share round, so bandwidth is unchanged and the bound grows by
    /// exactly the summed forward extras.
    #[test]
    fn d2d_extras_add_forward_latency_without_costing_bandwidth() {
        let d2d = SimDuration::from_ns(2);
        // 3 hops, two of them die crossings.
        let path = PathExtras {
            hops: 3,
            extra_total: d2d * 2,
            extra_max: d2d,
        };
        let r = model().report(&path, SimDuration::from_ns(12));
        assert!(r.conforming);
        assert_eq!(r.service_interval.unwrap().as_ps(), 10_314);
        assert_eq!(r.worst_latency.unwrap().as_ps(), 45_776 + 4_000);
    }

    /// A slow enough link drags the service interval itself: the VC loop
    /// closes over the link and back, so 5 ns of extra wire means
    /// 250 + 1750 + 2×5000 = 12 000 ps between grants — the bandwidth
    /// bottleneck, and the spacing Sec. 3's lone VC measures
    /// (83.3 Mflit/s).
    #[test]
    fn slow_links_throttle_the_service_interval() {
        let m = model();
        let slow = SimDuration::from_ns(5);
        let path = PathExtras {
            hops: 2,
            extra_total: slow,
            extra_max: slow,
        };
        let r = m.report(&path, SimDuration::from_ns(12));
        assert_eq!(r.service_interval.unwrap().as_ps(), 12_000);
        assert!(r.conforming, "a 12 ns period fits the 12 ns interval");
        assert!(r.guaranteed_mfps < report(2).guaranteed_mfps);
        // And a period inside the stretched interval stops conforming.
        let r = m.report(&path, SimDuration::from_ps(11_999));
        assert!(!r.conforming);
        assert_eq!(r.worst_latency, None);
    }

    #[test]
    fn report_along_walks_the_actual_path_extras() {
        use mango_net::TopologySpec;
        let g = mango_net::Grid::from_spec(&TopologySpec::chiplet(2, 1, 2, 2));
        let m = model();
        // (1,0) -E-> (2,0) crosses the die seam; (2,0) -E-> (3,0) does not.
        let dirs = [Direction::East, Direction::East];
        let along = m.report_along(&g, RouterId::new(1, 0), &dirs, SimDuration::from_ns(12));
        let d2d = mango_net::d2d_extra_default();
        let path = PathExtras {
            hops: 2,
            extra_total: d2d,
            extra_max: d2d,
        };
        assert_eq!(along, m.report(&path, SimDuration::from_ns(12)));
        assert_eq!(path_extras(&g, RouterId::new(1, 0), &dirs), path);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The terms' total is the report's bound and the stage sum
        /// written out by hand, for every arbiter (fair share, ALG with
        /// age bounds 0..8, static priority), path length and pair of
        /// extras, at periods just below, at and above the path's
        /// stretched service interval — so both the conforming and the
        /// `None` side occur.
        #[test]
        fn worst_latency_equals_the_reports_bound(
            arbiter in 0u32..11,
            hops in 0usize..65,
            extra_total_ps in 0u64..1_000_000,
            extra_max_ps in 0u64..20_000,
            delta_ps in 0u64..4_000,
        ) {
            let mut cfg = RouterConfig::paper();
            cfg.arbiter = match arbiter {
                0 => ArbiterKind::FairShare,
                1 => ArbiterKind::StaticPriority,
                age => ArbiterKind::Alg { age_bound: age - 2 },
            };
            let m = ServiceModel::new(&cfg, &NaConfig::paper());
            let path = PathExtras {
                hops,
                extra_total: SimDuration::from_ps(extra_total_ps),
                extra_max: SimDuration::from_ps(extra_max_ps),
            };
            let interval = m.service_interval(path.extra_max);
            let pivot = interval.map_or(12_000, SimDuration::as_ps);
            for period_ps in [pivot.saturating_sub(delta_ps + 1), pivot, pivot + delta_ps] {
                let period = SimDuration::from_ps(period_ps);
                let report = m.report(&path, period);
                let lean = m.terms(&path, period).map(|t| t.total());
                let t = &m.timing;
                let by_hand = m
                    .grant_bound
                    .zip(interval)
                    .filter(|&(_, interval)| period >= interval)
                    .map(|(grants, interval)| {
                        let per_hop =
                            t.arb_decision + t.link_cycle * grants + t.hop_forward + t.buffer_advance;
                        interval + t.hop_forward + t.buffer_advance
                            + per_hop * hops as u64
                            + path.extra_total
                            + m.consume_delay
                    });
                proptest::prop_assert_eq!(lean, report.worst_latency);
                proptest::prop_assert_eq!(lean, by_hand);
                proptest::prop_assert_eq!(lean.is_some(), report.conforming);
            }
        }
    }
}
