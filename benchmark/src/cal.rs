//! The calibration kernel and the host-normalised meter built on it.
//!
//! The hosts this benchmark runs on are small shared VMs whose speed
//! drifts by tens of percent over tens of seconds, so raw wall-clock
//! does not repeat. Every timed piece of work is therefore flanked by
//! a frozen, harness-owned calibration kernel, and reported as
//!
//! ```text
//! reference seconds = raw seconds ÷ mean(cal_before, cal_after) × CAL_REF_S
//! ```
//!
//! To undo the normalisation multiply a reference time by
//! `harness.cal_s ÷ CAL_REF_S` (both are printed with every result).
//!
//! **The kernel and [`CAL_REF_S`] are part of every host-time metric's
//! definition and must never change.** [`CAL_CHECKSUM`] pins the kernel:
//! any edit to its arithmetic changes the checksum and fails the run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Wall time of one calibration run on the reference host, seconds.
pub const CAL_REF_S: f64 = 0.050;
/// Heap entries held throughout a calibration run.
pub const CAL_HEAP: usize = 65_536;
/// Pop → xorshift → touch → push iterations per calibration run.
pub const CAL_ITERS: usize = 300_000;
/// `u32` cells of the touched table (8 MiB).
pub const CAL_TABLE: usize = 2 * 1024 * 1024;
/// The value [`Calibrator::run`] must return.
pub const CAL_CHECKSUM: u64 = 0x33d6_0e6a_4f97_fee2;

#[inline]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Owns the calibration kernel's buffers so repeated runs allocate
/// nothing.
pub struct Calibrator {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Allocates the heap and the 8 MiB table.
    pub fn new() -> Self {
        Calibrator {
            heap: BinaryHeap::with_capacity(CAL_HEAP + 1),
            table: vec![0; CAL_TABLE],
        }
    }

    /// One calibration run: a priority queue at fixed occupancy (the
    /// simulator's dominant structure) plus scattered touches of a
    /// table larger than the cache. Returns the checksum.
    pub fn run(&mut self) -> u64 {
        self.heap.clear();
        self.table.fill(0);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for seq in 0..CAL_HEAP as u64 {
            x = xorshift(x);
            self.heap.push(Reverse((x >> 20, seq)));
        }
        let mut sum = 0u64;
        for seq in CAL_HEAP as u64..(CAL_HEAP + CAL_ITERS) as u64 {
            let Reverse((key, s)) = self.heap.pop().expect("occupancy is constant");
            x = xorshift(x ^ key ^ s);
            let cell = &mut self.table[(x % CAL_TABLE as u64) as usize];
            *cell = cell.wrapping_add(x as u32);
            sum = sum.rotate_left(5) ^ key ^ u64::from(*cell);
            self.heap.push(Reverse((key + (x & 0xFFFF) + 1, seq)));
        }
        black_box(&self.table);
        sum
    }

    /// Runs the kernel, checks the checksum, returns its wall seconds.
    ///
    /// # Panics
    ///
    /// Panics when the checksum is not [`CAL_CHECKSUM`]: the kernel was
    /// edited, and every recorded reference time is void.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let sum = black_box(self.run());
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            sum, CAL_CHECKSUM,
            "calibration kernel checksum changed: the kernel is frozen"
        );
        secs
    }
}

/// One piece of work timed between two calibration runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Raw wall seconds of the work.
    pub raw_s: f64,
    /// Mean wall seconds of the two flanking calibration runs.
    pub cal_s: f64,
}

impl Sample {
    /// `raw ÷ cal`: the work's cost in calibration runs.
    pub fn ratio(&self) -> f64 {
        self.raw_s / self.cal_s
    }

    /// The work's cost in reference seconds.
    pub fn ref_s(&self) -> f64 {
        self.ratio() * CAL_REF_S
    }
}

/// Times work between calibration runs. Back-to-back measurements share
/// the calibration run between them.
pub struct Meter {
    cal: Calibrator,
    /// The last calibration run: when it ended and how long it took.
    last: Option<(Instant, f64)>,
    /// Every calibration wall time so far (for `harness.cal_s`).
    pub cal_walls: Vec<f64>,
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter {
    /// A meter with a warmed-up calibrator (the first run pays the
    /// table's page faults and is discarded).
    pub fn new() -> Self {
        let mut cal = Calibrator::new();
        cal.time();
        Meter {
            cal,
            last: None,
            cal_walls: Vec::new(),
        }
    }

    fn calibrate(&mut self) -> f64 {
        let secs = self.cal.time();
        self.cal_walls.push(secs);
        self.last = Some((Instant::now(), secs));
        secs
    }

    /// Times `work` flanked by calibration runs. The run before is
    /// reused from the previous measurement when that ended less than
    /// 5 ms ago.
    pub fn measure<T>(&mut self, work: impl FnOnce() -> T) -> (T, Sample) {
        let before = match self.last {
            Some((at, secs)) if at.elapsed().as_secs_f64() < 0.005 => secs,
            _ => self.calibrate(),
        };
        let start = Instant::now();
        let out = black_box(work());
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.calibrate();
        (
            out,
            Sample {
                raw_s,
                cal_s: (before + after) / 2.0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_checksum_is_fixed() {
        let mut cal = Calibrator::new();
        assert_eq!(cal.run(), CAL_CHECKSUM);
        // Reusing the buffers must not leak state between runs.
        assert_eq!(cal.run(), CAL_CHECKSUM);
    }

    #[test]
    fn sample_normalises_against_the_reference() {
        let s = Sample {
            raw_s: 0.2,
            cal_s: 0.1,
        };
        assert_eq!(s.ratio(), 2.0);
        assert_eq!(s.ref_s(), 2.0 * CAL_REF_S);
    }

    #[test]
    fn back_to_back_measurements_share_a_calibration_run() {
        let mut meter = Meter::new();
        meter.measure(|| ());
        meter.measure(|| ());
        assert_eq!(meter.cal_walls.len(), 3, "cal, work, cal, work, cal");
    }
}
