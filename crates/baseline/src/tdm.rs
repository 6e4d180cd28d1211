//! An ÆTHEREAL-style TDM slot-table router network — the guaranteed-
//! throughput comparator of Sec. 6.
//!
//! ÆTHEREAL (Dielissen et al., ref \[8\]; Rijpkema et al., ref \[16\]) is a
//! *clocked* NoC whose guaranteed-throughput (GT) service reserves slots
//! in per-router slot tables: time is divided into frames of `S` slots; a
//! connection holding slot `s` on its first link implicitly holds slot
//! `s+1` on the second, `s+2` on the third, and so on — flits ride a
//! contention-free wave through the network. Properties the paper
//! contrasts with MANGO:
//!
//! * **bandwidth granularity**: multiples of 1/S of link bandwidth,
//!   decided by slot allocation (vs. MANGO's per-VC fair share);
//! * **latency**: a flit waits for the connection's next slot (up to a
//!   frame) and then takes one slot per hop — TDM couples bandwidth and
//!   latency;
//! * **no independent buffering**: connections share router buffers, so
//!   end-to-end flow control (credits) is required — in MANGO it is
//!   inherent in the unlock chain;
//! * **header overhead**: ÆTHEREAL does not store routing state in the
//!   routers, so GT packets carry headers that consume slot payload.
//!
//! Because GT forwarding is contention-free *by construction*, its timing
//! is exactly computable: the model allocates slots like the real router
//! and computes per-flit delivery times analytically, which is faithful
//! and fast.

use mango_core::{ConnectionId, Direction, RouterId};
use mango_net::route::{xy_path, xy_route, RouteError};
use mango_net::topology::Grid;
use mango_sim::{SimDuration, SimTime};

/// TDM network configuration.
#[derive(Debug, Clone)]
pub struct TdmConfig {
    /// Slots per frame (the slot-table depth).
    pub slots_per_frame: usize,
    /// Slot duration = one flit time. ÆTHEREAL's 0.13 µm instance ran at
    /// 500 MHz ⇒ 2 ns.
    pub slot_time: SimDuration,
    /// Payload flits carried per GT packet between headers (header
    /// overhead = 1/(payload+1) of reserved bandwidth).
    pub payload_per_header: usize,
}

impl TdmConfig {
    /// Defaults comparable to the paper's comparison: 8-slot frames (the
    /// granularity matching MANGO's 8 VCs), 500 MHz slots, 3-flit payload
    /// per header as in ÆTHEREAL's minimal GT packets.
    pub fn aethereal() -> Self {
        TdmConfig {
            slots_per_frame: 8,
            slot_time: SimDuration::from_ps(2000),
            payload_per_header: 3,
        }
    }

    /// Frame duration.
    pub fn frame(&self) -> SimDuration {
        self.slot_time * self.slots_per_frame as u64
    }
}

impl Default for TdmConfig {
    fn default() -> Self {
        TdmConfig::aethereal()
    }
}

/// Errors allocating GT connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdmError {
    /// Route computation failed.
    Route(RouteError),
    /// No slot satisfies the wave constraint on every link of the path.
    NoFreeSlot,
}

impl std::fmt::Display for TdmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdmError::Route(e) => write!(f, "routing failed: {e}"),
            TdmError::NoFreeSlot => f.write_str("no compatible slot free along the path"),
        }
    }
}

impl std::error::Error for TdmError {}

impl From<RouteError> for TdmError {
    fn from(e: RouteError) -> Self {
        TdmError::Route(e)
    }
}

/// A GT connection: its path and the slots it holds on the first link.
#[derive(Debug, Clone)]
pub struct GtConnection {
    /// Connection id.
    pub id: ConnectionId,
    /// Source router.
    pub src: RouterId,
    /// Destination router.
    pub dst: RouterId,
    /// Links traversed.
    pub dirs: Vec<Direction>,
    /// Slots reserved on the first link (slot `s+i` is implicitly held on
    /// link `i`).
    pub slots: Vec<usize>,
}

impl GtConnection {
    /// Number of links.
    pub fn hops(&self) -> usize {
        self.dirs.len()
    }
}

/// The TDM network: slot tables per directed link plus GT connections.
#[derive(Debug)]
pub struct TdmNetwork {
    cfg: TdmConfig,
    grid: Grid,
    /// Every link's slot table, one after another: entry
    /// `link × slots_per_frame + slot` ([`Grid::link_index`] links) names
    /// the connection holding the slot.
    tables: Vec<Option<ConnectionId>>,
    conns: Vec<GtConnection>,
}

impl TdmNetwork {
    /// An empty TDM network over `grid`.
    pub fn new(grid: Grid, cfg: TdmConfig) -> Self {
        TdmNetwork {
            tables: vec![None; grid.len() * 4 * cfg.slots_per_frame],
            cfg,
            grid,
            conns: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TdmConfig {
        &self.cfg
    }

    /// Opens a GT connection reserving `slot_count` slots per frame.
    ///
    /// Slot allocation follows the wave rule: claiming start slot `s`
    /// reserves `(s+i) mod S` on the `i`-th link. First-fit search.
    ///
    /// # Errors
    ///
    /// Fails if routing fails or no start slot is free on every link.
    pub fn open_gt(
        &mut self,
        src: RouterId,
        dst: RouterId,
        slot_count: usize,
    ) -> Result<ConnectionId, TdmError> {
        let s_total = self.cfg.slots_per_frame;
        assert!(
            slot_count >= 1 && slot_count <= s_total,
            "slot count {slot_count} out of range"
        );
        let dirs = xy_route(&self.grid, src, dst)?;
        let path = xy_path(&self.grid, src, dst)?;
        // The table entry of the slot that start slot `start` holds on
        // link `i` of the path.
        let entries: Vec<usize> = path
            .iter()
            .zip(&dirs)
            .map(|(&at, &dir)| self.grid.link_index(at, dir) * s_total)
            .collect();
        let entry = |i: usize, start: usize| entries[i] + (start + i) % s_total;

        let granted: Vec<usize> = (0..s_total)
            .filter(|&start| (0..entries.len()).all(|i| self.tables[entry(i, start)].is_none()))
            .take(slot_count)
            .collect();
        if granted.len() < slot_count {
            return Err(TdmError::NoFreeSlot);
        }

        let id = ConnectionId(self.conns.len() as u32);
        for &start in &granted {
            for i in 0..entries.len() {
                let held = &mut self.tables[entry(i, start)];
                debug_assert!(held.is_none(), "double slot allocation");
                *held = Some(id);
            }
        }
        self.conns.push(GtConnection {
            id,
            src,
            dst,
            dirs,
            slots: granted,
        });
        Ok(id)
    }

    /// The connection record.
    pub fn connection(&self, id: ConnectionId) -> &GtConnection {
        &self.conns[id.0 as usize]
    }

    /// Raw (slot-level) bandwidth reserved for a connection, in flits/s.
    pub fn gt_raw_bandwidth_fps(&self, id: ConnectionId) -> f64 {
        let conn = self.connection(id);
        conn.slots.len() as f64 / self.cfg.frame().as_secs_f64()
    }

    /// Payload bandwidth after header overhead, in flits/s — the quantity
    /// comparable to MANGO's header-less GS streams (Sec. 6: routing
    /// information "is not stored locally in ÆTHEREAL... the routing
    /// overhead of a packet header").
    pub fn gt_payload_bandwidth_fps(&self, id: ConnectionId) -> f64 {
        let p = self.cfg.payload_per_header as f64;
        self.gt_raw_bandwidth_fps(id) * (p / (p + 1.0))
    }

    /// Delivery time of a flit that becomes ready at the source at
    /// `ready`: wait for the connection's next slot, then one slot per
    /// hop.
    pub fn gt_delivery(&self, id: ConnectionId, ready: SimTime) -> SimTime {
        let conn = self.connection(id);
        let slot_ps = self.cfg.slot_time.as_ps();
        let frame_ps = self.cfg.frame().as_ps();
        let depart = conn
            .slots
            .iter()
            .map(|&s| {
                // Next time slot `s` starts at or after `ready`.
                let slot_start = s as u64 * slot_ps;
                let t = ready.as_ps();
                let in_frame = t % frame_ps;
                let wait = if in_frame <= slot_start {
                    slot_start - in_frame
                } else {
                    frame_ps - in_frame + slot_start
                };
                t + wait
            })
            .min()
            .expect("connection has slots");
        SimTime::from_ps(depart + conn.hops() as u64 * slot_ps)
    }

    /// Worst-case GT latency: a full frame wait plus the pipeline.
    pub fn gt_worst_latency(&self, id: ConnectionId) -> SimDuration {
        let conn = self.connection(id);
        // With k slots spread in the frame the worst wait is the largest
        // inter-slot gap; a single slot waits up to a full frame.
        let s_total = self.cfg.slots_per_frame as u64;
        let slot_ps = self.cfg.slot_time.as_ps();
        let mut slots: Vec<u64> = conn.slots.iter().map(|&s| s as u64).collect();
        slots.sort_unstable();
        let mut worst_gap = 0;
        for (i, &s) in slots.iter().enumerate() {
            let next = slots[(i + 1) % slots.len()];
            let gap = (next + s_total - s) % s_total;
            let gap = if gap == 0 { s_total } else { gap };
            worst_gap = worst_gap.max(gap);
        }
        SimDuration::from_ps(worst_gap * slot_ps + conn.hops() as u64 * slot_ps)
    }
}

/// Published ÆTHEREAL reference numbers used in the Sec. 6 comparison.
#[derive(Debug, Clone, Copy)]
pub struct AetherealReference;

impl AetherealReference {
    /// Port speed of the 0.13 µm instance, MHz.
    pub const PORT_SPEED_MHZ: f64 = 500.0;
    /// Laid-out area, mm².
    pub const AREA_MM2: f64 = 0.175;
    /// Connections supported (not independently buffered).
    pub const CONNECTIONS: usize = 256;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> TdmNetwork {
        TdmNetwork::new(Grid::new(4, 4), TdmConfig::aethereal())
    }

    #[test]
    fn slot_allocation_follows_the_wave_rule() {
        let mut n = net();
        let id = n
            .open_gt(RouterId::new(0, 0), RouterId::new(2, 0), 1)
            .unwrap();
        let conn = n.connection(id);
        let s = conn.slots[0];
        // Link 0 holds slot s; link 1 holds slot s+1.
        let holder =
            |at: RouterId, slot: usize| n.tables[n.grid.link_index(at, Direction::East) * 8 + slot];
        assert_eq!(holder(RouterId::new(0, 0), s), Some(id));
        assert_eq!(holder(RouterId::new(1, 0), (s + 1) % 8), Some(id));
    }

    #[test]
    fn no_two_connections_share_a_slot() {
        let mut n = net();
        for _ in 0..8 {
            n.open_gt(RouterId::new(0, 0), RouterId::new(3, 0), 1)
                .unwrap();
        }
        // Frame full on the first link.
        assert_eq!(
            n.open_gt(RouterId::new(0, 0), RouterId::new(3, 0), 1),
            Err(TdmError::NoFreeSlot)
        );
    }

    #[test]
    fn bandwidth_scales_with_slots() {
        let mut n = net();
        let one = n
            .open_gt(RouterId::new(0, 0), RouterId::new(1, 0), 1)
            .unwrap();
        let four = n
            .open_gt(RouterId::new(0, 1), RouterId::new(1, 1), 4)
            .unwrap();
        let bw1 = n.gt_raw_bandwidth_fps(one);
        let bw4 = n.gt_raw_bandwidth_fps(four);
        assert!((bw4 / bw1 - 4.0).abs() < 1e-9);
        // 1 slot of 8 at 2 ns = 62.5 Mflit/s.
        assert!((bw1 / 1e6 - 62.5).abs() < 0.01, "{bw1}");
    }

    #[test]
    fn header_overhead_reduces_payload_bandwidth() {
        let mut n = net();
        let id = n
            .open_gt(RouterId::new(0, 0), RouterId::new(1, 0), 2)
            .unwrap();
        let raw = n.gt_raw_bandwidth_fps(id);
        let payload = n.gt_payload_bandwidth_fps(id);
        assert!(
            (payload / raw - 0.75).abs() < 1e-9,
            "3-of-4 flits are payload"
        );
    }

    #[test]
    fn delivery_waits_for_the_slot_then_pipelines() {
        let mut n = net();
        let id = n
            .open_gt(RouterId::new(0, 0), RouterId::new(2, 0), 1)
            .unwrap();
        let slot = n.connection(id).slots[0] as u64;
        let slot_ps = 2000u64;
        // Ready exactly at the slot start: no wait, 2 hops of pipeline.
        let ready = SimTime::from_ps(slot * slot_ps);
        assert_eq!(
            n.gt_delivery(id, ready),
            ready + SimDuration::from_ps(2 * slot_ps)
        );
        // Ready just after the slot: wait nearly a full frame.
        let late = ready + SimDuration::from_ps(1);
        let delivered = n.gt_delivery(id, late);
        let wait = delivered.since(late);
        assert!(
            wait > SimDuration::from_ps(8 * slot_ps - 2 * slot_ps),
            "near-frame wait expected, got {wait}"
        );
    }

    #[test]
    fn worst_latency_single_slot_is_frame_plus_hops() {
        let mut n = net();
        let id = n
            .open_gt(RouterId::new(0, 0), RouterId::new(3, 0), 1)
            .unwrap();
        assert_eq!(
            n.gt_worst_latency(id),
            SimDuration::from_ps(8 * 2000 + 3 * 2000)
        );
    }

    #[test]
    fn more_slots_tighten_worst_latency() {
        let mut n = net();
        let one = n
            .open_gt(RouterId::new(0, 0), RouterId::new(1, 0), 1)
            .unwrap();
        let four = n
            .open_gt(RouterId::new(0, 1), RouterId::new(1, 1), 4)
            .unwrap();
        assert!(n.gt_worst_latency(four) < n.gt_worst_latency(one));
    }

    #[test]
    fn crossing_paths_can_coexist() {
        let mut n = net();
        // Horizontal and vertical connections crossing at (1,1).
        let h = n.open_gt(RouterId::new(0, 1), RouterId::new(3, 1), 2);
        let v = n.open_gt(RouterId::new(1, 0), RouterId::new(1, 3), 2);
        assert!(h.is_ok() && v.is_ok(), "disjoint links never conflict");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_slots_rejected() {
        let mut n = net();
        let _ = n.open_gt(RouterId::new(0, 0), RouterId::new(1, 0), 0);
    }
}
