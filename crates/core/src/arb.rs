//! Link-access arbiters (Sec. 4.4).
//!
//! "The link arbiter is the key element in providing GS. It arbitrates
//! amongst the VCs contending for access to the link, implementing the
//! type of GS that is provided." The architecture decouples the arbitration
//! policy from switching, so new schemes plug in — we provide three:
//!
//! * [`FairShareArbiter`] — the paper's demonstration scheme (ref \[5\]):
//!   round-robin over ready requesters. Each of the link's `V` channels
//!   (7 GS VCs + BE for the paper's router) is guaranteed at least 1/V of
//!   link bandwidth while backlogged; idle channels' slots are reused by
//!   contenders ("If a VC does not use its allocated bandwidth, the link is
//!   automatically used by another contending VC").
//! * [`StaticPriorityArbiter`] — the scheme of Felicijan & Furber
//!   (ref \[9\]): strict priority by VC index. Delivers differentiated
//!   latency but **no hard guarantee** — low priorities can starve. Kept as
//!   an ablation baseline.
//! * [`AlgArbiter`] — inspired by the ALG discipline of ref \[6\]: priority
//!   order with an age bound. A requester that has been passed over
//!   `age_bound` consecutive grants is force-granted, so no channel waits
//!   more than `age_bound + slots − 1` grants per hop, `slots` counting
//!   the link's GS VCs and BE ([`AlgArbiter::worst_case_wait`]), while
//!   high-priority channels still see near-minimal latency.

use crate::ids::VcId;
use std::fmt;

/// A requester contending for one output link: a GS VC buffer or the BE
/// channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkSlot {
    /// GS VC buffer `vc`.
    Gs(VcId),
    /// The best-effort channel.
    Be,
}

impl LinkSlot {
    /// A dense index: GS VCs map to their index, BE to `gs_vcs`.
    pub fn dense_index(self, gs_vcs: usize) -> usize {
        match self {
            LinkSlot::Gs(vc) => {
                assert!(vc.index() < gs_vcs, "slot {self} out of range");
                vc.index()
            }
            LinkSlot::Be => gs_vcs,
        }
    }

    /// The number of distinct slots for a link with `gs_vcs` GS VCs.
    pub fn count(gs_vcs: usize) -> usize {
        gs_vcs + 1
    }
}

impl fmt::Display for LinkSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkSlot::Gs(vc) => write!(f, "{vc}"),
            LinkSlot::Be => f.write_str("BE"),
        }
    }
}

/// Which arbitration policy a router uses (plugged in via
/// [`crate::config::RouterConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// Round-robin fair share (the paper's scheme).
    FairShare,
    /// Strict priority by slot index (no hard guarantees).
    StaticPriority,
    /// Priority with an age bound of the given number of grants.
    Alg {
        /// Consecutive grants a requester may be passed over before being
        /// force-granted.
        age_bound: u32,
    },
}

/// The arbitration policies as an enum — the router's hot path.
///
/// The router calls [`ArbiterImpl::select_mask`] with the currently ready
/// requesters (a flit buffered and flow control permitting) each time the
/// link can issue a grant; the policy keeps whatever internal state it
/// needs (round-robin pointer, ages). The enum keeps the policies inline
/// in the router struct (no heap, no vtable) and lets the match inline
/// into the grant path.
#[derive(Debug, Clone)]
pub enum ArbiterImpl {
    /// Round-robin fair share (the paper's scheme).
    FairShare(FairShareArbiter),
    /// Strict priority by slot index.
    StaticPriority(StaticPriorityArbiter),
    /// Priority with a hard age bound.
    Alg(AlgArbiter),
}

impl ArbiterImpl {
    /// Instantiates the policy for a link with `gs_vcs` GS VCs.
    pub fn new(kind: ArbiterKind, gs_vcs: usize) -> Self {
        match kind {
            ArbiterKind::FairShare => ArbiterImpl::FairShare(FairShareArbiter::new(gs_vcs)),
            ArbiterKind::StaticPriority => {
                ArbiterImpl::StaticPriority(StaticPriorityArbiter::new())
            }
            ArbiterKind::Alg { age_bound } => ArbiterImpl::Alg(AlgArbiter::new(gs_vcs, age_bound)),
        }
    }

    /// Chooses the slot to grant from the ready bitmask (bit `i` = dense
    /// slot `i`, bit `gs_vcs` = BE). Statically dispatched.
    ///
    /// # Panics
    ///
    /// May panic if `ready_mask` is zero.
    #[inline]
    pub fn select_mask(&mut self, ready_mask: u128, gs_vcs: usize) -> LinkSlot {
        match self {
            ArbiterImpl::FairShare(a) => a.select_mask(ready_mask),
            ArbiterImpl::StaticPriority(a) => a.select_mask(ready_mask, gs_vcs),
            ArbiterImpl::Alg(a) => a.select_mask(ready_mask),
        }
    }

    /// The policy's name, for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArbiterImpl::FairShare(a) => a.name(),
            ArbiterImpl::StaticPriority(a) => a.name(),
            ArbiterImpl::Alg(a) => a.name(),
        }
    }
}

/// Round-robin fair-share arbiter (the paper's demonstrated scheme).
#[derive(Debug, Clone)]
pub struct FairShareArbiter {
    gs_vcs: usize,
    /// Dense index of the last granted slot.
    pointer: usize,
}

impl FairShareArbiter {
    /// Creates the arbiter for a link with `gs_vcs` GS VCs.
    pub fn new(gs_vcs: usize) -> Self {
        FairShareArbiter {
            gs_vcs,
            pointer: LinkSlot::count(gs_vcs) - 1,
        }
    }

    /// Grants the first ready slot after the last granted one (bit `i` of
    /// `ready_mask` = dense slot `i`).
    ///
    /// # Panics
    ///
    /// Panics if `ready_mask` is zero.
    pub fn select_mask(&mut self, ready_mask: u128) -> LinkSlot {
        let n = LinkSlot::count(self.gs_vcs);
        assert!(n <= 128, "fair-share arbiter supports at most 127 GS VCs");
        assert!(ready_mask != 0, "select called with no ready slots");
        // Rotate so the slot after `pointer` becomes bit 0 and pick the
        // lowest set bit. The u64 path covers every practical width (the
        // paper's router has 8 slots) without 128-bit shifts, and the
        // branches replace runtime `%` — this runs once per link grant.
        let mut start = self.pointer + 1;
        if start == n {
            start = 0;
        }
        let idx = if n <= 64 {
            let mask = ready_mask as u64;
            let rotated = if start == 0 {
                mask
            } else {
                // Bits of slots < start move to [n-start, n); bits of
                // slots ≥ start that fall off the top are duplicates of
                // positions already covered by the right shift.
                (mask >> start) | (mask << (n - start))
            };
            let mut idx = start + rotated.trailing_zeros() as usize;
            if idx >= n {
                idx -= n;
            }
            idx
        } else {
            let rotated = if start == 0 {
                ready_mask
            } else {
                (ready_mask >> start) | (ready_mask << (n - start))
            };
            let mut idx = start + rotated.trailing_zeros() as usize;
            if idx >= n {
                idx -= n;
            }
            idx
        };
        self.pointer = idx;
        if idx == self.gs_vcs {
            LinkSlot::Be
        } else {
            LinkSlot::Gs(VcId(idx as u8))
        }
    }

    /// The policy's name, for reports.
    pub fn name(&self) -> &'static str {
        "fair-share"
    }
}

/// Strict-priority arbiter: lower slot index wins; BE is lowest priority.
#[derive(Debug, Clone, Default)]
pub struct StaticPriorityArbiter;

impl StaticPriorityArbiter {
    /// Creates the arbiter.
    pub fn new() -> Self {
        StaticPriorityArbiter
    }

    /// Grants the lowest ready dense index (bit `gs_vcs` is BE).
    ///
    /// # Panics
    ///
    /// Panics if `ready_mask` is zero.
    pub fn select_mask(&mut self, ready_mask: u128, gs_vcs: usize) -> LinkSlot {
        assert!(ready_mask != 0, "select called with no ready slots");
        // BE has the highest dense index, so lowest-set-bit is exactly
        // "highest-priority GS, else BE".
        let idx = ready_mask.trailing_zeros() as usize;
        if idx == gs_vcs {
            LinkSlot::Be
        } else {
            LinkSlot::Gs(VcId(idx as u8))
        }
    }

    /// The policy's name, for reports.
    pub fn name(&self) -> &'static str {
        "static-priority"
    }
}

/// ALG-inspired arbiter: strict priority, but any requester passed over
/// `age_bound` consecutive grants is force-granted (oldest first, then by
/// priority).
///
/// **Hard latency bound**: a continuously ready requester waits at most
/// `age_bound + slots − 1` grants, where `slots = gs_vcs + 1`: once its age
/// reaches the bound it outranks every non-overdue requester, and at most
/// `slots − 1` others can be overdue ahead of it. High-priority channels
/// see near-minimal latency under light load — the property ref \[6\] calls
/// *asynchronous latency guarantees*.
#[derive(Debug, Clone)]
pub struct AlgArbiter {
    gs_vcs: usize,
    age_bound: u32,
    /// Grants each slot has waited through while ready. Inline (not a
    /// `Vec`) so four arbiters fit flat in a router with no per-router
    /// heap allocations; [`MAX_ALG_SLOTS`] comfortably covers the 5-bit
    /// steering format's 8-VC-per-port ceiling.
    ages: [u32; MAX_ALG_SLOTS],
}

/// Upper bound on link slots (GS VCs + BE) the inline ALG age table
/// supports. The router wire format caps VCs per port at 8, so 16 leaves
/// headroom for experimental configs while keeping the arbiter flat.
pub const MAX_ALG_SLOTS: usize = 16;

impl AlgArbiter {
    /// Creates the arbiter for a link with `gs_vcs` GS VCs.
    ///
    /// # Panics
    ///
    /// Panics if `age_bound` is zero (that would be plain FIFO-by-age) or
    /// if the link has more than [`MAX_ALG_SLOTS`] slots.
    pub fn new(gs_vcs: usize, age_bound: u32) -> Self {
        assert!(age_bound > 0, "ALG age bound must be positive");
        assert!(
            LinkSlot::count(gs_vcs) <= MAX_ALG_SLOTS,
            "ALG arbiter supports at most {} link slots",
            MAX_ALG_SLOTS
        );
        AlgArbiter {
            gs_vcs,
            age_bound,
            ages: [0; MAX_ALG_SLOTS],
        }
    }

    fn slot_for(&self, idx: usize) -> LinkSlot {
        if idx == self.gs_vcs {
            LinkSlot::Be
        } else {
            LinkSlot::Gs(VcId(idx as u8))
        }
    }

    /// The hard per-hop waiting bound, in grants: `age_bound + slots − 1`.
    pub fn worst_case_wait(&self) -> u32 {
        self.age_bound + LinkSlot::count(self.gs_vcs) as u32 - 1
    }

    /// Force-grants the most-overdue ready slot if any has hit the age
    /// bound, else the lowest ready dense index; ages every other ready
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if `ready_mask` is zero.
    pub fn select_mask(&mut self, ready_mask: u128) -> LinkSlot {
        assert!(ready_mask != 0, "select called with no ready slots");
        // Force-grant the most-overdue requester, if any has hit the
        // bound; otherwise the highest priority (lowest index).
        let mut overdue: Option<usize> = None;
        let mut m = ready_mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.ages[i] >= self.age_bound {
                // Oldest first; on equal age the earlier (lower) index
                // wins, matching `max_by_key` with `usize::MAX - i`.
                let beats = overdue
                    .map(|o| (self.ages[i], usize::MAX - i) > (self.ages[o], usize::MAX - o))
                    .unwrap_or(true);
                if beats {
                    overdue = Some(i);
                }
            }
        }
        let granted = overdue.unwrap_or(ready_mask.trailing_zeros() as usize);
        let mut m = ready_mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if i == granted {
                self.ages[i] = 0;
            } else {
                self.ages[i] = self.ages[i].saturating_add(1);
            }
        }
        self.slot_for(granted)
    }

    /// The policy's name, for reports.
    pub fn name(&self) -> &'static str {
        "alg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gs(i: u8) -> LinkSlot {
        LinkSlot::Gs(VcId(i))
    }

    /// The ready bitmask of a slot list on a 7-VC link.
    fn mask(ready: &[LinkSlot]) -> u128 {
        ready.iter().fold(0, |m, s| m | 1 << s.dense_index(7))
    }

    fn all_slots(gs_vcs: usize) -> Vec<LinkSlot> {
        let mut v: Vec<LinkSlot> = (0..gs_vcs as u8).map(gs).collect();
        v.push(LinkSlot::Be);
        v
    }

    #[test]
    fn dense_index_covers_all_slots() {
        assert_eq!(gs(0).dense_index(7), 0);
        assert_eq!(gs(6).dense_index(7), 6);
        assert_eq!(LinkSlot::Be.dense_index(7), 7);
        assert_eq!(LinkSlot::count(7), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dense_index_rejects_out_of_range_vc() {
        gs(7).dense_index(7);
    }

    #[test]
    fn fair_share_cycles_through_all_backlogged_slots() {
        let mut arb = FairShareArbiter::new(7);
        let ready = all_slots(7);
        let mut counts = [0u32; 8];
        for _ in 0..800 {
            let slot = arb.select_mask(mask(&ready));
            counts[slot.dense_index(7)] += 1;
        }
        // Perfect round-robin: exactly 100 grants each — the 1/8 floor.
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c, 100, "slot {i} got {c}/800 grants");
        }
    }

    #[test]
    fn fair_share_redistributes_idle_bandwidth() {
        let mut arb = FairShareArbiter::new(7);
        // Only two requesters are backlogged.
        let ready = vec![gs(2), gs(5)];
        let mut counts = [0u32; 8];
        for _ in 0..100 {
            counts[arb.select_mask(mask(&ready)).dense_index(7)] += 1;
        }
        assert_eq!(counts[2], 50);
        assert_eq!(counts[5], 50);
    }

    #[test]
    fn fair_share_is_work_conserving_single_requester() {
        let mut arb = FairShareArbiter::new(7);
        for _ in 0..10 {
            assert_eq!(arb.select_mask(mask(&[gs(3)])), gs(3));
        }
    }

    #[test]
    fn fair_share_floor_holds_with_partial_backlog_changes() {
        // A continuously backlogged VC never waits more than count-1 grants
        // between its own, regardless of what the others do.
        let mut arb = FairShareArbiter::new(7);
        let mut since_grant = 0u32;
        let mut rngish = 12345u64;
        for _ in 0..10_000 {
            // Pseudo-random subset of other slots, but VC 0 always ready.
            rngish = rngish.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut ready = vec![gs(0)];
            for i in 1..7 {
                if (rngish >> i) & 1 == 1 {
                    ready.push(gs(i as u8));
                }
            }
            if (rngish >> 60) & 1 == 1 {
                ready.push(LinkSlot::Be);
            }
            let granted = arb.select_mask(mask(&ready));
            if granted == gs(0) {
                since_grant = 0;
            } else {
                since_grant += 1;
                assert!(since_grant < 8, "fair-share floor violated");
            }
        }
    }

    #[test]
    fn static_priority_always_picks_lowest_index() {
        let mut arb = StaticPriorityArbiter::new();
        assert_eq!(
            arb.select_mask(mask(&[gs(5), gs(1), LinkSlot::Be]), 7),
            gs(1)
        );
        assert_eq!(arb.select_mask(mask(&[LinkSlot::Be, gs(6)]), 7), gs(6));
        assert_eq!(arb.select_mask(mask(&[LinkSlot::Be]), 7), LinkSlot::Be);
    }

    #[test]
    fn static_priority_starves_low_priority() {
        // The ablation point: with VC 0 always backlogged, VC 6 never wins.
        let mut arb = StaticPriorityArbiter::new();
        let ready = vec![gs(0), gs(6)];
        for _ in 0..1000 {
            assert_eq!(arb.select_mask(mask(&ready), 7), gs(0));
        }
    }

    #[test]
    fn alg_bounds_waiting_for_every_slot() {
        let bound = 7;
        let arb_probe = AlgArbiter::new(7, bound);
        let hard_bound = arb_probe.worst_case_wait();
        assert_eq!(hard_bound, 7 + 8 - 1);
        let mut arb = arb_probe;
        let ready = all_slots(7);
        let mut waits = [0u32; 8];
        let mut max_wait = [0u32; 8];
        for _ in 0..10_000 {
            let granted = arb.select_mask(mask(&ready)).dense_index(7);
            for i in 0..8 {
                if i == granted {
                    max_wait[i] = max_wait[i].max(waits[i]);
                    waits[i] = 0;
                } else {
                    waits[i] += 1;
                }
            }
        }
        for (i, &w) in max_wait.iter().enumerate() {
            assert!(
                w <= hard_bound,
                "slot {i} waited {w} grants (hard bound {hard_bound})"
            );
        }
    }

    #[test]
    fn alg_bound_holds_under_adversarial_ready_patterns() {
        // Slot 6 is always ready; the rest flap pseudo-randomly. The hard
        // bound must still hold for slot 6.
        let bound = 4;
        let mut arb = AlgArbiter::new(7, bound);
        let hard_bound = arb.worst_case_wait();
        let mut wait = 0u32;
        let mut x = 99u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut ready = vec![gs(6)];
            for i in 0..6u8 {
                if (x >> (i + 3)) & 1 == 1 {
                    ready.push(gs(i));
                }
            }
            if (x >> 62) & 1 == 1 {
                ready.push(LinkSlot::Be);
            }
            if arb.select_mask(mask(&ready)) == gs(6) {
                wait = 0;
            } else {
                wait += 1;
                assert!(wait <= hard_bound, "slot 6 waited {wait} > {hard_bound}");
            }
        }
    }

    #[test]
    fn alg_favors_high_priority_under_light_load() {
        let mut arb = AlgArbiter::new(7, 7);
        // Two requesters: priority 0 should win most grants but 6 must not
        // starve.
        let ready = vec![gs(0), gs(6)];
        let mut counts = [0u32; 8];
        for _ in 0..800 {
            counts[arb.select_mask(mask(&ready)).dense_index(7)] += 1;
        }
        assert!(counts[0] > counts[6], "priority inverted: {counts:?}");
        assert!(counts[6] > 0, "ALG must not starve low priority");
        // With bound 7 the low-priority slot gets exactly 1 in 8.
        assert_eq!(counts[6], 100);
    }

    #[test]
    #[should_panic(expected = "age bound must be positive")]
    fn alg_rejects_zero_bound() {
        let _ = AlgArbiter::new(7, 0);
    }

    #[test]
    fn kind_builds_named_policies() {
        let name = |kind| ArbiterImpl::new(kind, 7).name();
        assert_eq!(name(ArbiterKind::FairShare), "fair-share");
        assert_eq!(name(ArbiterKind::StaticPriority), "static-priority");
        assert_eq!(name(ArbiterKind::Alg { age_bound: 4 }), "alg");
    }

    #[test]
    #[should_panic(expected = "no ready slots")]
    fn empty_ready_list_panics() {
        FairShareArbiter::new(7).select_mask(mask(&[]));
    }
}
