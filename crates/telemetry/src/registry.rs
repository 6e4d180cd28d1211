//! Typed metrics registry: dense-id counters, gauges and histograms.
//!
//! Registration happens once at enable time (and may allocate); from
//! then on every update is an index into a flat `Vec` — no hashing, no
//! allocation, no formatting on the hot path. Export renders name/value
//! rows in registration order, so two runs that register the same
//! instruments in the same order produce byte-identical output.

use crate::hist::LogHistogram;
use std::fmt::Write as _;

/// Dense handle for a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Dense handle for a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Dense handle for a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) u32);

/// A flat registry of named instruments.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<i64>,
    hist_names: Vec<&'static str>,
    hists: Vec<LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a monotone counter; returns its dense id. If a counter
    /// with this name already exists its id is returned instead.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| *n == name) {
            return CounterId(i as u32);
        }
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId(self.counter_names.len() as u32 - 1)
    }

    /// Registers a gauge (point-in-time signed value); idempotent per name.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| *n == name) {
            return GaugeId(i as u32);
        }
        self.gauge_names.push(name);
        self.gauges.push(0);
        GaugeId(self.gauge_names.len() as u32 - 1)
    }

    /// Registers a histogram; idempotent per name.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hist_names.iter().position(|n| *n == name) {
            return HistId(i as u32);
        }
        self.hist_names.push(name);
        self.hists.push(LogHistogram::new());
        HistId(self.hist_names.len() as u32 - 1)
    }

    /// Overwrites a counter with an externally maintained total (for
    /// instruments whose source of truth already lives elsewhere, e.g.
    /// the network's flow statistics).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, total: u64) {
        self.counters[id.0 as usize] = total;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0 as usize] = value;
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistId, value: u64) {
        self.hists[id.0 as usize].record(value);
    }

    /// Direct access to a histogram.
    pub fn hist(&self, id: HistId) -> &LogHistogram {
        &self.hists[id.0 as usize]
    }

    /// Gauge names in registration order (the epoch sampler's column
    /// set).
    pub fn gauge_names(&self) -> &[&'static str] {
        &self.gauge_names
    }

    /// Gauge values in registration order.
    pub fn gauge_values(&self) -> &[i64] {
        &self.gauges
    }

    /// Renders the registry as CSV rows `name,kind,...` appended to
    /// `out`, prefixed by `prefix` columns (e.g. a sweep job id).
    /// Counters and gauges emit a single `value` column; histograms emit
    /// `count,mean,p50,p95,p99,max` derived from the log-bucket math.
    pub fn render_csv(&self, prefix: &str, out: &mut String) {
        for (name, v) in self.counter_names.iter().zip(&self.counters) {
            let _ = writeln!(out, "{prefix}{name},counter,{v},,,,,");
        }
        for (name, v) in self.gauge_names.iter().zip(&self.gauges) {
            let _ = writeln!(out, "{prefix}{name},gauge,{v},,,,,");
        }
        for (name, h) in self.hist_names.iter().zip(&self.hists) {
            let _ = writeln!(
                out,
                "{prefix}{name},histogram,{},{},{},{},{},{}",
                h.total(),
                h.mean().unwrap_or(0),
                h.quantile_permille(500).unwrap_or(0),
                h.quantile_permille(950).unwrap_or(0),
                h.quantile_permille(990).unwrap_or(0),
                h.max().unwrap_or(0),
            );
        }
    }

    /// The header matching [`MetricsRegistry::render_csv`] rows, without
    /// the caller's prefix columns.
    pub fn csv_header() -> &'static str {
        "metric,kind,value,mean,p50,p95,p99,max"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_and_updates() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("flits.delivered");
        let g = r.gauge("residual.min");
        let h = r.histogram("latency.gs_ps");
        r.set_counter(c, 5);
        r.set_gauge(g, -7);
        r.observe(h, 100);
        r.observe(h, 200);
        assert_eq!(r.hist(h).total(), 2);
        let mut out = String::new();
        r.render_csv("", &mut out);
        assert!(out.contains("flits.delivered,counter,5,"));
        assert!(out.contains("residual.min,gauge,-7,"));
        assert!(out.contains("latency.gs_ps,histogram,2,150,"));
    }

    #[test]
    fn registration_is_idempotent_per_name() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        let g1 = r.gauge("y");
        let g2 = r.gauge("y");
        assert_eq!(g1, g2);
        assert_eq!(r.gauge_names(), &["y"]);
    }
}
