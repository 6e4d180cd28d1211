//! Deterministic telemetry primitives for the MANGO NoC model.
//!
//! This crate is the observability layer the rest of the workspace
//! builds on:
//!
//! * [`LogHistogram`] — an integer log-bucket latency histogram in the
//!   HDR style: exact bucket boundaries, allocation-free recording,
//!   associative merge, insertion-order-independent percentiles.
//! * [`MetricsRegistry`] — dense-id counters, gauges and histograms
//!   with byte-stable CSV export.
//! * [`EpochSeries`] — fixed-cadence snapshot rows (sampled by a kernel
//!   event, so the time-series is part of the deterministic event
//!   order) rendered as CSV with integer/fixed-point cells.
//! * [`ChromeTrace`] — Chrome-trace / Perfetto JSON spans and instants
//!   with exact fixed-point microsecond timestamps.
//!
//! Everything here is single-threaded by design: one instance lives
//! inside one simulation, and sweep-level merging happens after the
//! fact in job order. Determinism follows — for a fixed scenario the
//! rendered bytes are identical at any worker-thread count, which the
//! goldens table (`crates/bench/tests/goldens.rs`) enforces by diffing
//! runs.
//!
//! Telemetry costs nothing when off: consumers hold an enum sink whose
//! `Off` arm makes instrumentation a single branch, and construction of
//! any of these types happens only when telemetry is explicitly
//! enabled.

#![warn(missing_docs)]

mod chrome;
mod hist;
mod registry;
mod series;

pub use chrome::{ChromeTrace, EvName};
pub use hist::{LogHistogram, DEFAULT_SUB_BITS};
pub use registry::{CounterId, GaugeId, HistId, MetricsRegistry};
pub use series::{EpochSeries, Sample};

/// Everything one simulation run exported: final metrics, the epoch
/// time-series and the (possibly empty) flit/recovery trace.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Final counter/gauge/histogram values.
    pub metrics: MetricsRegistry,
    /// Fixed-cadence snapshot series.
    pub epochs: EpochSeries,
    /// Chrome-trace spans and instants.
    pub trace: ChromeTrace,
}
