//! Simulation time in picoseconds.
//!
//! Clockless circuits have no global clock; the natural unit of progress is
//! physical delay. One picosecond of resolution comfortably covers the
//! 100 ps – 2 ns stage delays of the paper's 0.12 µm bundled-data circuits
//! while a `u64` still spans ~213 days of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant in simulated time, in picoseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ps` picoseconds after simulation start.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant `ns` nanoseconds after simulation start.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates an instant `us` microseconds after simulation start.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// The instant as picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The instant as (fractional) nanoseconds since simulation start.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The instant as (fractional) microseconds since simulation start.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is later than `self`"),
        )
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The instant `d` after `self`, or `None` past the clock's end.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// The duration in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The duration as (fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration as (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The events-per-second rate corresponding to one event per this
    /// duration, in Hz. Returns `f64::INFINITY` for a zero duration.
    pub fn as_rate_hz(self) -> f64 {
        if self.0 == 0 {
            f64::INFINITY
        } else {
            1e12 / self.0 as f64
        }
    }

    /// The same rate expressed in MHz — the unit the paper reports port
    /// speeds in.
    pub fn as_rate_mhz(self) -> f64 {
        self.as_rate_hz() / 1e6
    }

    /// Multiplies the duration by a dimensionless float, rounding to the
    /// nearest picosecond. Used for timing-corner derating.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or the result overflows.
    pub fn scale(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "negative timing scale factor {factor}");
        let scaled = self.0 as f64 * factor;
        assert!(scaled <= u64::MAX as f64, "timing scale overflow");
        SimDuration(scaled.round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Integer division rounding up; how many periods of `period` cover
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn div_ceil(self, period: SimDuration) -> u64 {
        assert!(!period.is_zero(), "division by zero duration");
        self.0.div_ceil(period.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        // Hot path (one add per scheduled event): overflow is checked in
        // debug builds only. A u64 of picoseconds spans ~213 days of
        // simulated time, far beyond any experiment horizon.
        if cfg!(debug_assertions) {
            SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
        } else {
            SimTime(self.0.wrapping_add(rhs.0))
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        // Overflow checked in debug builds only; see `SimTime::add`.
        if cfg!(debug_assertions) {
            SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
        } else {
            SimDuration(self.0.wrapping_add(rhs.0))
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        assert!(!rhs.is_zero(), "division by zero duration");
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        assert!(!rhs.is_zero(), "remainder by zero duration");
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_ns(3).as_ps(), 3_000);
        assert_eq!(SimTime::from_us(2).as_ps(), 2_000_000);
        assert_eq!(SimDuration::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDuration::from_us(1).as_ps(), 1_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_ns(10);
        let d = SimDuration::from_ps(123);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn rate_conversion_matches_paper_units() {
        // 1258 ps link cycle ⇒ ~795 MHz port speed.
        let cycle = SimDuration::from_ps(1258);
        let mhz = cycle.as_rate_mhz();
        assert!((mhz - 794.9).abs() < 0.1, "got {mhz}");
    }

    #[test]
    fn zero_duration_rate_is_infinite() {
        assert!(SimDuration::ZERO.as_rate_hz().is_infinite());
    }

    #[test]
    fn scale_rounds_to_nearest_ps() {
        assert_eq!(SimDuration::from_ps(1000).scale(1.544).as_ps(), 1544);
        assert_eq!(SimDuration::from_ps(3).scale(0.5).as_ps(), 2); // 1.5 rounds up
        assert_eq!(SimDuration::from_ps(100).scale(0.0).as_ps(), 0);
    }

    #[test]
    #[should_panic(expected = "negative timing scale")]
    fn scale_rejects_negative() {
        let _ = SimDuration::from_ps(1).scale(-1.0);
    }

    #[test]
    #[should_panic(expected = "later than")]
    fn since_panics_on_reversed_order() {
        let _ = SimTime::from_ns(1).since(SimTime::from_ns(2));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_ps(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_ps(5).saturating_sub(SimDuration::from_ps(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn checked_add_refuses_past_the_clock() {
        let t = SimTime::from_ps(u64::MAX - 5);
        assert_eq!(
            t.checked_add(SimDuration::from_ps(5)),
            Some(SimTime::from_ps(u64::MAX))
        );
        assert_eq!(t.checked_add(SimDuration::from_ps(6)), None);
    }

    #[test]
    fn div_and_rem() {
        let d = SimDuration::from_ps(1000);
        assert_eq!(d / SimDuration::from_ps(300), 3);
        assert_eq!(d % SimDuration::from_ps(300), SimDuration::from_ps(100));
        assert_eq!(d.div_ceil(SimDuration::from_ps(300)), 4);
        assert_eq!(d / 4, SimDuration::from_ps(250));
        assert_eq!(d * 3, SimDuration::from_ps(3000));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [100, 200, 300]
            .iter()
            .map(|&ps| SimDuration::from_ps(ps))
            .sum();
        assert_eq!(total, SimDuration::from_ps(600));
    }

    #[test]
    fn display_formats_in_ns() {
        assert_eq!(SimTime::from_ps(1500).to_string(), "1.500 ns");
        assert_eq!(SimDuration::from_ns(2).to_string(), "2.000 ns");
    }
}
