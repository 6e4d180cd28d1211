//! Run-time observability for network simulations.
//!
//! The network carries a [`TelemetrySink`]: `Off` (the default) costs one
//! enum-discriminant branch per hook and collects nothing; `Active` holds
//! a [`TelemetryState`] — a typed metrics registry, an epoch time-series
//! sampled by a self-rescheduling kernel event, and a Chrome-trace
//! (Perfetto-loadable) span log of flit journeys and recovery lifecycle
//! events.
//!
//! Everything recorded is a pure function of simulated state and time, so
//! telemetry output is byte-identical at any worker-thread count (threads
//! partition *jobs*, never one kernel).
//!
//! The hooks themselves are the `impl Network` block at the end of this
//! file: activation and finalization, the epoch sampler (its row is
//! built next to [`EPOCH_COLUMNS`]), the recovery-track hooks the QoS
//! layer calls and the flit-trace hooks the event dispatch calls. Every
//! hook on the data path is `#[cold]` and never inlined, so an inactive
//! sink costs the dispatch one predictable branch per site.

use crate::network::{NetEvent, Network};
use mango_core::{Direction, FlitMeta, RouterId};
use mango_sim::{Ctx, SimDuration, SimTime};
use mango_telemetry::{
    ChromeTrace, EpochSeries, EvName, HistId, MetricsRegistry, Sample, TelemetryReport,
};

/// Chrome-trace process id for flit-journey events (`tid` = flow id).
pub const TRACE_PID_FLITS: u32 = 1;
/// Chrome-trace process id for connection/recovery lifecycle events
/// (`tid` = connection id).
pub const TRACE_PID_RECOVERY: u32 = 2;

/// Configuration for an activated telemetry sink.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Epoch sampler cadence — one [`NetEvent::TelemetrySample`]
    /// snapshot row per interval.
    pub sample_every: SimDuration,
    /// Record per-flit journey spans and per-hop instants in the Chrome
    /// trace (recovery lifecycle spans are always recorded while active).
    pub trace_flits: bool,
    /// Deterministic cap on recorded flit trace events; once reached,
    /// further flit events are counted but not stored.
    pub max_trace_events: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: SimDuration::from_ns(1000),
            trace_flits: true,
            max_trace_events: 100_000,
        }
    }
}

/// Live telemetry collection state (see the module docs).
#[derive(Debug)]
pub struct TelemetryState {
    /// Configuration it was enabled with.
    pub cfg: TelemetryConfig,
    /// Typed counters/gauges/histograms, finalized into the report.
    pub metrics: MetricsRegistry,
    /// The epoch sampler's time series.
    pub epochs: EpochSeries,
    /// Flit-journey and recovery spans.
    pub trace: ChromeTrace,
    /// Flit trace events recorded so far (capped by
    /// `cfg.max_trace_events`).
    pub flit_events: usize,
    /// Flit trace events dropped after the cap was hit.
    pub flit_events_dropped: u64,
    /// Whether a [`NetEvent::TelemetrySample`] is
    /// currently scheduled. The sampler lets the queue drain rather than
    /// keep an idle simulation alive, so the harness re-arms it (via
    /// [`Network::telemetry_sampler_rearm`]) whenever a
    /// run segment starts.
    pub sampler_armed: bool,
    /// Which [`Network::enable_telemetry`] activation
    /// this state belongs to; sampler events tagged with a different
    /// generation are stale and ignored.
    pub generation: u32,
    /// End-to-end GS flit latency histogram (nanoseconds).
    pub hist_gs_latency: HistId,
    /// End-to-end BE packet latency histogram (nanoseconds).
    pub hist_be_latency: HistId,
}

/// Epoch time-series columns, in order; `Network::on_telemetry_sample`
/// below builds the matching row.
pub const EPOCH_COLUMNS: &[&str] = &[
    "t_us",
    "injected",
    "delivered",
    "in_flight",
    "gs_buffered",
    "be_buffered",
    "na_gs_queued",
    "na_be_backlog",
    "link_util_mean",
    "link_util_max",
    "gs_dropped",
    "be_dropped",
];

impl TelemetryState {
    /// Fresh state for `cfg`, with the fixed epoch columns and named
    /// trace tracks in place.
    pub fn new(cfg: TelemetryConfig, generation: u32) -> Box<Self> {
        let mut trace = ChromeTrace::default();
        trace.name_track(TRACE_PID_FLITS, None, "flit journeys");
        trace.name_track(TRACE_PID_RECOVERY, None, "connection recovery");
        let mut metrics = MetricsRegistry::default();
        let hist_gs_latency = metrics.histogram("gs.latency_ns");
        let hist_be_latency = metrics.histogram("be.latency_ns");
        Box::new(TelemetryState {
            cfg,
            metrics,
            epochs: EpochSeries::new(EPOCH_COLUMNS.iter().map(|c| c.to_string()).collect()),
            trace,
            flit_events: 0,
            flit_events_dropped: 0,
            sampler_armed: false,
            generation,
            hist_gs_latency,
            hist_be_latency,
        })
    }

    /// Reserves one flit trace event against the cap; returns `false`
    /// (and counts the drop) once the cap is reached.
    pub fn reserve_flit_event(&mut self) -> bool {
        if self.flit_events < self.cfg.max_trace_events {
            self.flit_events += 1;
            true
        } else {
            self.flit_events_dropped += 1;
            false
        }
    }

    /// Finalizes into a [`TelemetryReport`].
    pub fn into_report(self) -> TelemetryReport {
        TelemetryReport {
            metrics: self.metrics,
            epochs: self.epochs,
            trace: self.trace,
        }
    }
}

/// The network's telemetry attachment point: `Off` is the zero-overhead
/// default.
#[derive(Debug, Default)]
pub enum TelemetrySink {
    /// Telemetry disabled; every hook is a single branch.
    #[default]
    Off,
    /// Telemetry active.
    Active(Box<TelemetryState>),
}

impl TelemetrySink {
    /// True when collecting.
    pub fn is_active(&self) -> bool {
        matches!(self, TelemetrySink::Active(_))
    }

    /// The live state, if active.
    pub fn state_mut(&mut self) -> Option<&mut TelemetryState> {
        match self {
            TelemetrySink::Off => None,
            TelemetrySink::Active(s) => Some(s),
        }
    }

    /// Shared view of the live state, if active.
    pub fn state(&self) -> Option<&TelemetryState> {
        match self {
            TelemetrySink::Off => None,
            TelemetrySink::Active(s) => Some(s),
        }
    }
}

impl Network {
    /// Activates the telemetry sink. The caller arms the epoch sampler
    /// via [`Network::telemetry_sampler_rearm`] and schedules the
    /// returned cadence (see `NocSim::enable_telemetry`).
    ///
    /// # Panics
    ///
    /// Panics if telemetry is already active.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        assert!(!self.telemetry.is_active(), "telemetry already enabled");
        self.telemetry_generation = self.telemetry_generation.wrapping_add(1);
        self.telemetry = TelemetrySink::Active(TelemetryState::new(cfg, self.telemetry_generation));
    }

    /// The telemetry sink.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Detaches the sink and finalizes it into a report (metric totals
    /// are filled from the statistics registries at this point). Returns
    /// `None` if telemetry was never enabled. The sink reverts to `Off`.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let mut st = match std::mem::take(&mut self.telemetry) {
            TelemetrySink::Off => return None,
            TelemetrySink::Active(st) => st,
        };
        let (injected, delivered) = self.stats.totals();
        let m = &mut st.metrics;
        for (name, value) in [
            ("flits.injected", injected),
            ("flits.delivered", delivered),
            ("flits.in_flight", self.stats.in_flight()),
            ("faults.gs_dropped", self.counters.gs_flits_dropped),
            ("faults.be_dropped", self.counters.be_flits_dropped),
            ("faults.spoofed_unlocks", self.counters.spoofed_unlocks),
            ("faults.spoofed_credits", self.counters.spoofed_credits),
            ("faults.be_route_drops", self.counters.be_route_drops),
            ("faults.relay_route_drops", self.counters.relay_route_drops),
            ("faults.ack_route_drops", self.counters.ack_route_drops),
            ("trace.flit_events", st.flit_events as u64),
            ("trace.flit_events_dropped", st.flit_events_dropped),
        ] {
            let id = m.counter(name);
            m.set_counter(id, value);
        }
        Some(st.into_report())
    }

    /// Records a lifecycle span on the recovery track (no-op while the
    /// sink is off) — the cold-path hook the QoS recovery engine uses.
    #[cold]
    #[inline(never)]
    pub fn telemetry_span(
        &mut self,
        cat: &'static str,
        name: impl Into<EvName>,
        start: SimTime,
        end: SimTime,
        tid: u32,
        args: Vec<(&'static str, u64)>,
    ) {
        if let Some(st) = self.telemetry.state_mut() {
            st.trace.span(
                cat,
                name,
                start.as_ps(),
                end.as_ps(),
                TRACE_PID_RECOVERY,
                tid,
                args,
            );
        }
    }

    /// Records an instant on the recovery track (no-op while off).
    #[cold]
    #[inline(never)]
    pub fn telemetry_instant(
        &mut self,
        cat: &'static str,
        name: impl Into<EvName>,
        at: SimTime,
        tid: u32,
        args: Vec<(&'static str, u64)>,
    ) {
        if let Some(st) = self.telemetry.state_mut() {
            st.trace
                .instant(cat, name, at.as_ps(), TRACE_PID_RECOVERY, tid, args);
        }
    }

    /// Sets a registered gauge (no-op while off).
    #[cold]
    #[inline(never)]
    pub fn telemetry_gauge(&mut self, name: &'static str, value: i64) {
        if let Some(st) = self.telemetry.state_mut() {
            let id = st.metrics.gauge(name);
            st.metrics.set_gauge(id, value);
        }
    }

    /// One epoch sampler firing: append a snapshot row, then re-arm
    /// unless this sampler is the only thing keeping the simulation
    /// alive (nothing else queued, no reserved slot still ahead).
    #[cold]
    #[inline(never)]
    pub(crate) fn on_telemetry_sample(&mut self, generation: u32, ctx: &mut Ctx<NetEvent>) {
        // A sampler from a previous activation (left pending across
        // `take_telemetry` + `enable_telemetry`) must neither snapshot
        // nor re-arm — otherwise two chains run at once and every epoch
        // and profiled sampler dispatch is counted twice.
        match &self.telemetry {
            TelemetrySink::Active(st) if st.generation == generation => {}
            _ => return,
        }
        let now = ctx.now();
        let (injected, delivered) = self.stats.totals();
        let gs_buffered = self.arena.buffered_flits() as u64;
        let mut be_buffered = 0u64;
        let mut na_gs = 0u64;
        let mut na_be = 0u64;
        for (idx, router) in self.routers.iter().enumerate() {
            be_buffered += router.be_flits_buffered(&self.be_arena) as u64;
            na_gs += self.na.gs_queued_total(idx) as u64;
            na_be += self.na.be_backlog(idx) as u64;
        }
        // Link utilization in exact micro-units (integer math: grants ×
        // link-cycle ÷ elapsed), aggregated over every directed link.
        let elapsed = now.as_ps() as u128;
        let cycle = self.router_cfg.timing.link_cycle.as_ps() as u128;
        let mut links = 0u128;
        let mut util_sum = 0u128;
        let mut util_max = 0u64;
        for router in &self.routers {
            for dir in Direction::ALL {
                if self.grid.neighbor(router.id(), dir).is_none() {
                    continue;
                }
                links += 1;
                let util = (router.stats().grants[dir.index()] as u128 * cycle * 1_000_000)
                    .checked_div(elapsed)
                    .unwrap_or(0) as u64;
                util_sum += util as u128;
                util_max = util_max.max(util);
            }
        }
        let util_mean = util_sum.checked_div(links).unwrap_or(0) as u64;
        let (gs_dropped, be_dropped) = (
            self.counters.gs_flits_dropped,
            self.counters.be_flits_dropped,
        );
        let st = self.telemetry.state_mut().expect("checked active");
        st.epochs.push(vec![
            Sample::Micro(now.as_ps()),
            Sample::U64(injected),
            Sample::U64(delivered),
            Sample::U64(injected - delivered),
            Sample::U64(gs_buffered),
            Sample::U64(be_buffered),
            Sample::U64(na_gs),
            Sample::U64(na_be),
            Sample::Micro(util_mean),
            Sample::Micro(util_max),
            Sample::U64(gs_dropped),
            Sample::U64(be_dropped),
        ]);
        st.sampler_armed = ctx.has_pending();
        if st.sampler_armed {
            ctx.schedule(
                st.cfg.sample_every,
                NetEvent::TelemetrySample { generation },
            );
        }
    }

    /// Marks the epoch sampler armed and returns the cadence and
    /// generation to schedule the next [`NetEvent::TelemetrySample`]
    /// with — or `None` when telemetry is off or a sampler event is
    /// already pending. The run harness calls this at every run-segment
    /// start so a sampler that let an idle queue drain (e.g. during a
    /// warmup with no setup-phase traffic) revives once sources attach.
    pub fn telemetry_sampler_rearm(&mut self) -> Option<(SimDuration, u32)> {
        let st = self.telemetry.state_mut()?;
        if st.sampler_armed {
            return None;
        }
        st.sampler_armed = true;
        Some((st.cfg.sample_every, st.generation))
    }

    /// Records an instant on the flit track for the instrumented flit
    /// `tag` at router `id`: a per-hop grant (`"hop"`/`"hop"`, with the
    /// output `dir`), a relay re-injection (`"hop"`/`"relay"`, no `dir`)
    /// or a fault drop (`"fault"`/`"drop"`, with the `dir` it was lost
    /// on).
    #[cold]
    #[inline(never)]
    pub(crate) fn t9n_instant(
        &mut self,
        cat: &'static str,
        name: &'static str,
        now: SimTime,
        id: RouterId,
        dir: Option<Direction>,
        tag: u32,
    ) {
        let Some(st) = self.telemetry.state_mut() else {
            return;
        };
        if !st.cfg.trace_flits || !st.reserve_flit_event() {
            return;
        }
        let meta = self.meta.get(tag);
        let mut args = vec![("seq", meta.seq()), ("x", id.x as u64), ("y", id.y as u64)];
        args.extend(dir.map(|d| ("dir", d.index() as u64)));
        st.trace
            .instant(cat, name, now.as_ps(), TRACE_PID_FLITS, meta.flow(), args);
    }

    /// Records an end-to-end journey span for a delivered flit/packet
    /// and feeds the latency histogram.
    #[cold]
    #[inline(never)]
    pub(crate) fn t9n_deliver(
        &mut self,
        name: &'static str,
        now: SimTime,
        meta: FlitMeta,
        gs: bool,
    ) {
        let Some(st) = self.telemetry.state_mut() else {
            return;
        };
        let latency_ns = now.since(meta.injected_at()).as_ps() / 1000;
        let hist = if gs {
            st.hist_gs_latency
        } else {
            st.hist_be_latency
        };
        st.metrics.observe(hist, latency_ns);
        if !st.cfg.trace_flits || !st.reserve_flit_event() {
            return;
        }
        st.trace.span(
            "flit",
            name,
            meta.injected_at().as_ps(),
            now.as_ps(),
            TRACE_PID_FLITS,
            meta.flow(),
            vec![("seq", meta.seq())],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_defaults_off() {
        let sink = TelemetrySink::default();
        assert!(!sink.is_active());
        assert!(sink.state().is_none());
    }

    #[test]
    fn flit_event_cap_is_enforced() {
        let mut st = TelemetryState::new(
            TelemetryConfig {
                max_trace_events: 2,
                ..Default::default()
            },
            1,
        );
        assert!(st.reserve_flit_event());
        assert!(st.reserve_flit_event());
        assert!(!st.reserve_flit_event());
        assert_eq!(st.flit_events, 2);
        assert_eq!(st.flit_events_dropped, 1);
    }

    #[test]
    fn epoch_columns_match_state() {
        let st = TelemetryState::new(TelemetryConfig::default(), 1);
        assert_eq!(st.epochs.columns().len(), EPOCH_COLUMNS.len());
    }
}
