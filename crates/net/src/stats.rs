//! Measurement infrastructure: latency recorders and per-flow statistics.

use mango_sim::{SimDuration, SimTime};
use mango_telemetry::LogHistogram;

/// Resolution of a flow's latency histogram: samples below 8 ps are
/// exact, and each octave above splits into 4 sub-buckets, so no bucket
/// is wider than 25 % of its lower bound.
const LATENCY_SUB_BITS: u32 = 3;

/// Streaming latency statistics: a [`LogHistogram`] of picoseconds behind
/// [`SimDuration`] accessors. Count, mean, min, max and jitter are exact;
/// a quantile is a bucket bound, at most the max.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    hist: LogHistogram,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            hist: LogHistogram::with_sub_bits(LATENCY_SUB_BITS),
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.hist.record(latency.as_ps());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.hist.total()
    }

    /// Mean latency, or `None` if empty.
    pub fn mean(&self) -> Option<SimDuration> {
        self.hist.mean().map(SimDuration::from_ps)
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<SimDuration> {
        self.hist.min().map(SimDuration::from_ps)
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<SimDuration> {
        self.hist.max().map(SimDuration::from_ps)
    }

    /// The `q`-quantile (`0 < q <= 1`, to the nearest per-mille): the
    /// upper bound of the bucket holding it, at most the max; `None` if
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        let permille = (q * 1000.0).round() as u32;
        self.hist
            .quantile_permille(permille)
            .map(SimDuration::from_ps)
    }

    /// Max − min: the latency jitter observed.
    pub fn jitter(&self) -> Option<SimDuration> {
        Some(self.max()? - self.min()?)
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.hist.reset();
    }
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Statistics for one traffic flow (a GS connection or a BE stream) — an
/// owned snapshot assembled from the registry's slabs by
/// [`NetStats::flow`]. Reporting-path only; the counters themselves live
/// in [`NetStats`]' struct-of-arrays storage.
#[derive(Debug, Clone)]
pub struct FlowStats {
    /// Human-readable flow name.
    pub name: String,
    /// Flits injected at the source (including warmup).
    pub injected: u64,
    /// Flits delivered at the destination (including warmup).
    pub delivered: u64,
    /// Out-of-order or gap events detected via sequence numbers.
    pub sequence_errors: u64,
    /// End-to-end flit latency during the measurement window.
    pub latency: LatencyRecorder,
    /// Deliveries during the measurement window.
    pub delivered_measured: u64,
}

impl FlowStats {
    /// Delivered throughput in flits/s over the measurement window.
    pub fn throughput_fps(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.delivered_measured as f64 / window.as_secs_f64()
    }

    /// Delivered throughput in Mflits/s — comparable to link MHz.
    pub fn throughput_mfps(&self, window: SimDuration) -> f64 {
        self.throughput_fps(window) / 1e6
    }
}

/// Central statistics registry for a simulated network.
///
/// Flow ids are dense (`0..n` in registration order) and the hot
/// counters live in parallel slabs, one entry per flow:
/// `on_inject`/`on_deliver` run for every instrumented flit, so bumping
/// a counter touches a dense `u64` array, not a scattered per-flow
/// struct dragging its name and histogram into the cache line. The cold
/// state (names, latency recorders) sits in separate vectors the hot
/// path never reads.
#[derive(Debug, Default)]
pub struct NetStats {
    names: Vec<String>,
    /// Per-flow hot counters, one 40-byte block per flow so an
    /// inject/deliver touches a single cache line (the latency
    /// recorders, with their histograms, stay out-of-line).
    hot: Vec<FlowHot>,
    latency: Vec<LatencyRecorder>,
    measure_start: Option<SimTime>,
}

/// The per-flow counters updated on the packet hot path.
#[derive(Debug, Clone, Copy, Default)]
struct FlowHot {
    injected: u64,
    delivered: u64,
    sequence_errors: u64,
    next_seq: u64,
    delivered_measured: u64,
}

impl NetStats {
    /// An empty registry.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Registers a flow and returns its id.
    pub fn register_flow(&mut self, name: impl Into<String>) -> u32 {
        let id = self.names.len() as u32;
        self.names.push(name.into());
        self.hot.push(FlowHot::default());
        self.latency.push(LatencyRecorder::new());
        id
    }

    /// Starts the measurement window: latency samples and windowed
    /// throughput only accumulate after this.
    pub fn begin_measurement(&mut self, now: SimTime) {
        self.measure_start = Some(now);
        for r in &mut self.latency {
            r.reset();
        }
        for h in &mut self.hot {
            h.delivered_measured = 0;
        }
    }

    /// The measurement window start, if begun.
    pub fn measure_start(&self) -> Option<SimTime> {
        self.measure_start
    }

    #[inline]
    fn check(&self, flow: u32) -> usize {
        let i = flow as usize;
        assert!(i < self.names.len(), "unregistered flow id {flow}");
        i
    }

    /// Records an injection for `flow`. Returns the per-flow sequence
    /// number to stamp on the flit.
    pub fn on_inject(&mut self, flow: u32) -> u64 {
        let i = self.check(flow);
        let h = &mut self.hot[i];
        let seq = h.injected;
        h.injected += 1;
        seq
    }

    /// Records a delivery for `flow`.
    ///
    /// Windowed throughput counts every delivery that *occurs* during the
    /// measurement window; latency samples only flits *injected* during
    /// it (so warmup queueing cannot contaminate latency, and saturated
    /// flows whose queueing delay exceeds the window still report their
    /// true service rate).
    pub fn on_deliver(&mut self, flow: u32, seq: u64, injected_at: SimTime, now: SimTime) {
        let i = self.check(flow);
        let measuring = self.measure_start.is_some();
        let fresh = self.measure_start.is_some_and(|s| injected_at >= s);
        let h = &mut self.hot[i];
        h.delivered += 1;
        if seq != h.next_seq {
            h.sequence_errors += 1;
        }
        h.next_seq = seq + 1;
        if measuring {
            h.delivered_measured += 1;
        }
        if fresh {
            self.latency[i].record(now.since(injected_at));
        }
    }

    /// The statistics for `flow`, assembled into an owned snapshot
    /// (reporting path; the counters live in the slabs).
    pub fn flow(&self, flow: u32) -> FlowStats {
        let i = self.check(flow);
        let h = &self.hot[i];
        FlowStats {
            name: self.names[i].clone(),
            injected: h.injected,
            delivered: h.delivered,
            sequence_errors: h.sequence_errors,
            latency: self.latency[i].clone(),
            delivered_measured: h.delivered_measured,
        }
    }

    /// All flows in id order (owned snapshots).
    pub fn flows(&self) -> Vec<(u32, FlowStats)> {
        (0..self.names.len() as u32)
            .map(|k| (k, self.flow(k)))
            .collect()
    }

    /// Delivered count of one flow — the cheap accessor for in-loop
    /// consumers (watchdogs) that must not clone a histogram.
    pub fn delivered(&self, flow: u32) -> u64 {
        self.hot[self.check(flow)].delivered
    }

    /// `(injected, delivered)` summed over all flows — the telemetry
    /// sampler gauge, read every epoch without snapshotting.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.hot.iter().map(|h| h.injected).sum(),
            self.hot.iter().map(|h| h.delivered).sum(),
        )
    }

    /// Sum of `injected − delivered` over all flows: flits still inside
    /// the network (or lost, which the tests rule out).
    pub fn in_flight(&self) -> u64 {
        let (injected, delivered) = self.totals();
        injected - delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d(ps: u64) -> SimDuration {
        SimDuration::from_ps(ps)
    }

    #[test]
    fn recorder_tracks_min_mean_max_jitter() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.mean(), None);
        for ps in [100, 200, 300] {
            r.record(d(ps));
        }
        assert_eq!(r.count(), 3);
        assert_eq!(r.min(), Some(d(100)));
        assert_eq!(r.max(), Some(d(300)));
        assert_eq!(r.mean(), Some(d(200)));
        assert_eq!(r.jitter(), Some(d(200)));
        assert_eq!(r.quantile(0.5), Some(d(223)), "the bound of [192, 223]");
        assert_eq!(
            r.quantile(0.99),
            Some(d(300)),
            "[256, 319] clamped to the max"
        );
        r.reset();
        assert_eq!(r.count(), 0);
        assert_eq!(r.quantile(0.5), None);
    }

    proptest! {
        /// A quantile is a bucket bound clamped to the exact max: ordered,
        /// never below the min, never above the max, and p100 is the max.
        #[test]
        fn quantiles_lie_between_min_and_max(
            samples in proptest::collection::vec(0u64..100_000_000, 1..60),
        ) {
            let mut r = LatencyRecorder::new();
            for &ps in &samples {
                r.record(d(ps));
            }
            let q = |q| r.quantile(q).expect("non-empty");
            prop_assert!(r.min().expect("non-empty") <= q(0.5));
            prop_assert!(q(0.5) <= q(0.95));
            prop_assert!(q(0.95) <= q(0.99));
            prop_assert!(q(0.99) <= r.max().expect("non-empty"));
            prop_assert_eq!(q(1.0), r.max().expect("non-empty"));
        }
    }

    #[test]
    fn flow_lifecycle_counts_and_latency() {
        let mut s = NetStats::new();
        let f = s.register_flow("test");
        // Warmup injection (before measurement).
        let seq0 = s.on_inject(f);
        assert_eq!(seq0, 0);
        s.on_deliver(f, 0, SimTime::ZERO, SimTime::from_ns(1));
        assert_eq!(s.flow(f).delivered, 1);
        assert_eq!(s.flow(f).latency.count(), 0, "not measuring yet");

        s.begin_measurement(SimTime::from_ns(10));
        let seq1 = s.on_inject(f);
        s.on_deliver(f, seq1, SimTime::from_ns(11), SimTime::from_ns(13));
        assert_eq!(s.flow(f).latency.count(), 1);
        assert_eq!(s.flow(f).latency.mean(), Some(SimDuration::from_ns(2)));
        assert_eq!(s.flow(f).delivered_measured, 1);
        assert_eq!(s.flow(f).sequence_errors, 0);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn sequence_errors_detected() {
        let mut s = NetStats::new();
        let f = s.register_flow("seq");
        s.on_inject(f);
        s.on_inject(f);
        s.on_inject(f);
        s.on_deliver(f, 0, SimTime::ZERO, SimTime::ZERO);
        s.on_deliver(f, 2, SimTime::ZERO, SimTime::ZERO); // gap: seq 1 missing
        assert_eq!(s.flow(f).sequence_errors, 1);
        s.on_deliver(f, 3, SimTime::ZERO, SimTime::ZERO);
        assert_eq!(s.flow(f).sequence_errors, 1);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn throughput_uses_measurement_window() {
        let mut s = NetStats::new();
        let f = s.register_flow("tput");
        s.begin_measurement(SimTime::ZERO);
        for i in 0..1000u64 {
            let seq = s.on_inject(f);
            s.on_deliver(f, seq, SimTime::from_ns(i), SimTime::from_ns(i + 1));
        }
        // 1000 flits in 1 µs = 1 Gflit/s = 1000 Mfps.
        let window = SimDuration::from_us(1);
        let mfps = s.flow(f).throughput_mfps(window);
        assert!((mfps - 1000.0).abs() < 1.0, "got {mfps}");
    }

    #[test]
    #[should_panic(expected = "unregistered flow")]
    fn unknown_flow_panics() {
        let s = NetStats::new();
        let _ = s.flow(99);
    }
}
