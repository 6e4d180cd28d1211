//! Self-healing GS connections: watchdog detection, teardown, and
//! re-admission with capped exponential backoff over the surviving
//! links.
//!
//! The action heap, run loop, base reservation and `admission.*` gauges
//! come from the shared control-plane [`driver`](crate::driver); the
//! recovery steps below are this workload's own. It layers a set of
//! *managed* GS connections over a base [`ScenarioSpec`], arms a
//! watchdog on each (timeout `period + 2 × worst-case latency` — a
//! healthy conforming stream can never pause longer), installs a
//! deterministic [`FaultSchedule`], and heals every connection the
//! watchdogs report broken:
//!
//! 1. **detect** — the in-network watchdog posts a
//!    [`NoticeKind::Broken`] notice;
//! 2. **release** — stop the source, let in-flight flits drain one
//!    latency bound, tear the circuit down in-band where the network
//!    still reaches every path router, force-close (quarantining
//!    unconfirmed hops) where it does not, and return the admission
//!    budgets exactly;
//! 3. **re-admit** — re-request the connection through the
//!    [`AdmissionController`](crate::AdmissionController), whose link
//!    mask mirrors the fired faults, so path search is restricted to
//!    surviving links (XY if it survives, BFS detour otherwise),
//!    retrying with capped exponential backoff plus deterministic
//!    jitter;
//! 4. **re-validate** — recompute the analytical bound for the new
//!    (possibly longer) path, re-arm the watchdog with the new timeout,
//!    and stream again under the control plane's [`GuaranteeAudit`],
//!    which checks observed ≤ bound on every recovered stream.
//!
//! Nothing is polled: every step happens at a protocol instant. The
//! drain starts at the watchdog's break, the budgets return at the last
//! teardown ack, `recovered_at` is the reopen's last ack, and each fault
//! reaches the admission mask at the instant it strikes. An in-band
//! teardown or reopen still unacknowledged [`OP_TIMEOUT`] after it was
//! sent is force-closed at that deadline.
//!
//! Backoff jitter draws from a stream seeded `base.seed ^ 0x4EC0` and
//! fault application times come from the schedule — so recovery traces
//! are byte-identical across thread counts.

use crate::admission::{Admission, ConnRequest, RejectReason};
use crate::bound::{AuditEntry, GuaranteeAudit};
use crate::driver::{ControlPlane, Wake};
use mango_core::{ConnectionId, RouterId};
use mango_net::{
    ConnState, EmitWindow, FaultCounters, FaultKind, FaultSchedule, FlowKind, MeasureBound, Notice,
    NoticeKind, PreparedScenario, ScenarioMetrics, ScenarioSpec, TelemetryConfig, TemporalSpec,
};
use mango_sim::{RunOutcome, SimDuration, SimRng, SimTime};
use mango_telemetry::TelemetryReport;

/// First re-admission retry delay; doubles per attempt.
pub const BACKOFF_BASE: SimDuration = SimDuration::from_ns(200);
/// Ceiling on the retry delay (before jitter).
pub const BACKOFF_CAP: SimDuration = SimDuration::from_us(4);
/// Deadline for one in-band teardown (or reopen) to settle before the
/// engine force-closes and moves on.
pub const OP_TIMEOUT: SimDuration = SimDuration::from_us(5);

/// A fault-injection + recovery experiment: a base scenario, a set of
/// managed GS connections with watchdogs, and a fault schedule whose
/// times are offsets **from measurement start**.
#[derive(Debug, Clone)]
pub struct RecoverySpec {
    /// The base scenario. `measure` must be [`MeasureBound::For`]. Its
    /// seed, salted, also seeds the backoff-jitter stream.
    pub base: ScenarioSpec,
    /// Managed GS connections (opened before measurement, watchdogged).
    pub managed: Vec<(RouterId, RouterId)>,
    /// CBR emission period of each managed stream.
    pub gs_period: SimDuration,
    /// Fault schedule; each event's `at` is an offset from measurement
    /// start (the engine shifts it onto the simulation clock).
    pub faults: FaultSchedule,
    /// Re-admission attempts before giving up on a broken connection.
    pub max_retries: u32,
}

impl RecoverySpec {
    /// A recovery skeleton on a `width × height` paper mesh.
    pub fn mesh(width: u8, height: u8, seed: u64) -> Self {
        let mut base = ScenarioSpec::mesh(width, height, seed);
        base.measure = MeasureBound::For(SimDuration::from_us(100));
        RecoverySpec {
            base,
            managed: Vec::new(),
            gs_period: SimDuration::from_ns(15),
            faults: FaultSchedule::new(seed ^ 0xFA_17),
            max_retries: 6,
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if `base.measure` is not [`MeasureBound::For`], a managed
    /// stream does not conform to the service model (no bound → no
    /// watchdog timeout), or the base scenario itself is infeasible.
    pub fn run(&self) -> RecoveryMetrics {
        self.run_inner(None).0
    }

    /// Like [`RecoverySpec::run`], but with the telemetry sink active for
    /// the whole experiment: the returned report carries the metrics
    /// registry, the epoch time series, and — most usefully here — the
    /// Chrome-trace recovery track with the detect → teardown →
    /// re-admit → reopen lifecycle of every managed connection.
    pub fn run_with_telemetry(&self, cfg: TelemetryConfig) -> (RecoveryMetrics, TelemetryReport) {
        let (metrics, report) = self.run_inner(Some(cfg));
        (metrics, report.expect("telemetry was enabled"))
    }

    fn run_inner(
        &self,
        cfg: Option<TelemetryConfig>,
    ) -> (RecoveryMetrics, Option<TelemetryReport>) {
        let (mut prepared, cp) = ControlPlane::prepare(&self.base, cfg);
        let mut engine = Engine::new(self, cp);
        engine.arm(&mut prepared);
        engine.run(prepared)
    }
}

/// How one broken connection's recovery ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Re-admitted over a path of the original length.
    Recovered,
    /// Re-admitted, but only a longer path survived.
    ReroutedLongerPath,
    /// Admission refused on every retry (no surviving capacity).
    Rejected,
    /// The window closed (or retries ran out) before service returned.
    PermanentlyDegraded,
}

impl RecoveryOutcome {
    /// Stable short name for CSV columns and reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryOutcome::Recovered => "recovered",
            RecoveryOutcome::ReroutedLongerPath => "rerouted-longer-path",
            RecoveryOutcome::Rejected => "rejected",
            RecoveryOutcome::PermanentlyDegraded => "permanently-degraded",
        }
    }
}

/// The recovery story of one managed connection.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// Index into [`RecoverySpec::managed`].
    pub idx: usize,
    /// Source router.
    pub src: RouterId,
    /// Destination router.
    pub dst: RouterId,
    /// Links of the original admitted path.
    pub old_hops: usize,
    /// Links of the recovered path (0 until recovered).
    pub new_hops: usize,
    /// Analytical latency bound on the original path, ns.
    pub pre_bound_ns: Option<f64>,
    /// Analytical latency bound on the recovered path, ns (audited).
    pub post_bound_ns: Option<f64>,
    /// When the watchdog detected the break (`None` = never broke).
    pub detected_at: Option<SimTime>,
    /// When the recovered stream's circuit reopened.
    pub recovered_at: Option<SimTime>,
    /// Detection → reopen latency.
    pub recovery_latency: Option<SimDuration>,
    /// Re-admission attempts spent.
    pub attempts: u32,
    /// Whether teardown needed a force-close (in-band close impossible
    /// or timed out).
    pub forced_close: bool,
    /// How the recovery ended (`None` = the connection never broke).
    pub outcome: Option<RecoveryOutcome>,
    /// Flits lost on the broken stream (injected − delivered).
    pub flits_lost: u64,
    /// Worst observed latency on the recovered stream, ns (audited).
    pub post_observed_max_ns: Option<f64>,
    /// Index in [`RecoveryMetrics::audit`] of the last recovered stream.
    pub post_audit: Option<usize>,
}

/// Everything a recovery run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMetrics {
    /// The base scenario's metrics (managed streams included).
    pub scenario: ScenarioMetrics,
    /// Per-managed-connection records, in spec order.
    pub records: Vec<RecoveryRecord>,
    /// Break events the watchdogs reported. A connection can break
    /// again after healing (its new path dies too), so this can exceed
    /// the per-connection outcome counts below.
    pub broken: u64,
    /// Recovered over an equal-length path.
    pub recovered: u64,
    /// Recovered over a longer path.
    pub rerouted: u64,
    /// Refused by admission on every retry.
    pub rejected: u64,
    /// Still without service at window end.
    pub degraded: u64,
    /// Teardowns that needed a force-close.
    pub forced_closes: u64,
    /// Resources quarantined by forced teardowns (conn-manager view).
    pub quarantined: usize,
    /// The network's fault/drop/spoof counters.
    pub fault_counters: FaultCounters,
    /// Every recovered stream against its recomputed bound, in reopen
    /// order.
    pub audit: GuaranteeAudit,
}

impl RecoveryMetrics {
    /// Recovered streams whose observed worst latency exceeded the
    /// recomputed bound ([`GuaranteeAudit::violations`]; must be zero:
    /// the degraded-guarantee check).
    pub fn post_bound_violations(&self) -> u64 {
        self.audit.violations()
    }

    /// The audit entry of `r`'s last recovered stream.
    pub fn post_audit(&self, r: &RecoveryRecord) -> Option<&AuditEntry> {
        r.post_audit.map(|k| &self.audit.entries()[k])
    }

    /// Recovery latencies (detection → reopen), in record order.
    pub fn recovery_latencies(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.records.iter().filter_map(|r| r.recovery_latency)
    }
}

/// Recovery steps; ordered so equal-time actions replay in insertion
/// order via the `(time, seq)` heap key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// Mirror fault `k` of the schedule into the admission mask.
    Fault(usize),
    /// Begin teardown of managed connection `i` (post-drain).
    Teardown(usize),
    /// Re-request managed connection `i` through admission.
    Reopen(usize),
    /// `i`'s teardown or reopen times out (stale if its ack came first).
    Deadline(usize),
}

/// Live state of one managed connection.
#[derive(Debug)]
struct Managed {
    conn: ConnectionId,
    admission: Admission,
    /// When the pending in-band teardown or reopen times out.
    deadline: Option<SimTime>,
}

struct Engine<'a> {
    spec: &'a RecoverySpec,
    cp: ControlPlane<Step>,
    jitter: SimRng,
    managed: Vec<Managed>,
    records: Vec<RecoveryRecord>,
    /// The metric index of each managed connection's first stream.
    first_streams: Vec<usize>,
    broken: u64,
    forced_closes: u64,
}

/// One instant on managed connection `i`'s recovery trace track.
fn mark(
    prepared: &mut PreparedScenario,
    name: &'static str,
    at: SimTime,
    i: usize,
    args: Vec<(&'static str, u64)>,
) {
    let net = prepared.sim_mut().network_mut();
    net.telemetry_instant("recovery", name, at, i as u32, args);
}

impl<'a> Engine<'a> {
    fn new(spec: &'a RecoverySpec, cp: ControlPlane<Step>) -> Self {
        Engine {
            spec,
            cp,
            jitter: SimRng::new(spec.base.seed ^ 0x4EC0),
            managed: Vec::new(),
            records: Vec::new(),
            first_streams: Vec::new(),
            broken: 0,
            forced_closes: 0,
        }
    }

    /// Opens the managed connections, starts the measurement window,
    /// attaches their streams, arms the watchdogs and installs the
    /// (shifted) fault schedule.
    fn arm(&mut self, prepared: &mut PreparedScenario) {
        // Admit and open every managed connection before measurement.
        for (i, &(src, dst)) in self.spec.managed.iter().enumerate() {
            let req = ConnRequest {
                src,
                dst,
                period: self.spec.gs_period,
            };
            let admission = self
                .cp
                .admission
                .request(&req)
                .unwrap_or_else(|r| panic!("managed connection {i} inadmissible: {r}"));
            let conn = prepared
                .sim_mut()
                .open_connection_along(src, dst, &admission.dirs)
                .expect("admitted path opens on a healthy mesh");
            self.records.push(RecoveryRecord {
                idx: i,
                src,
                dst,
                old_hops: admission.hops(),
                new_hops: 0,
                pre_bound_ns: admission.report.worst_latency.map(SimDuration::as_ns_f64),
                post_bound_ns: None,
                detected_at: None,
                recovered_at: None,
                recovery_latency: None,
                attempts: 0,
                forced_close: false,
                outcome: None,
                flits_lost: 0,
                post_observed_max_ns: None,
                post_audit: None,
            });
            self.managed.push(Managed {
                conn,
                admission,
                deadline: None,
            });
        }
        prepared
            .sim_mut()
            .wait_connections_settled()
            .expect("managed connections settle on a healthy mesh");
        self.cp.start(prepared);
        for i in 0..self.managed.len() {
            self.start_stream(prepared, i, format!("managed-{i}"), false);
        }

        // Shift the schedule onto the simulation clock and install it;
        // each fault is also a step at its instant, for the admission mask.
        let now = prepared.sim().now();
        let mut shifted = FaultSchedule::new(self.spec.faults.seed);
        for (k, ev) in self.spec.faults.events.iter().enumerate() {
            let at = now + SimDuration::from_ps(ev.at.as_ps());
            shifted = shifted.with(at, ev.kind);
            self.cp.push(at, Step::Fault(k));
        }
        if !shifted.events.is_empty() {
            prepared.sim_mut().install_faults(shifted);
        }
    }

    /// Streams over managed connection `i` under a freshly armed
    /// watchdog; a recovered (`post`) stream is audited. The timeout is
    /// sound: a conforming stream delivers at least one flit per
    /// `period + 2 × bound` (one inter-emission gap, plus the bound twice
    /// covers any jitter between a fast and a slow flit).
    fn start_stream(
        &mut self,
        prepared: &mut PreparedScenario,
        i: usize,
        name: String,
        post: bool,
    ) {
        let conn = self.managed[i].conn;
        let pattern = TemporalSpec::cbr(self.spec.gs_period);
        let flow = prepared
            .sim_mut()
            .add_gs_source(conn, pattern, name, EmitWindow::default());
        let metric_idx = prepared.track_flow(flow, FlowKind::Gs);
        if post {
            let k = self.cp.audit_stream(&self.managed[i].admission, flow);
            self.records[i].post_audit = Some(k);
        } else {
            self.first_streams.push(metric_idx);
        }
        let timeout = self.spec.gs_period + self.drain(i) * 2;
        prepared.sim_mut().arm_watchdog(conn, flow, timeout);
    }

    /// Managed connection `i`'s admitted worst-case latency.
    fn drain(&self, i: usize) -> SimDuration {
        let bound = self.managed[i].admission.report.worst_latency;
        bound.expect("managed streams must conform (a watchdog needs a bound)")
    }

    fn backoff(&mut self, attempt: u32) -> SimDuration {
        let exp = BACKOFF_BASE * 2u64.saturating_pow(attempt.min(16));
        let capped = exp.min(BACKOFF_CAP);
        // Deterministic jitter in [0, base/2): decorrelates retries
        // without breaking replay.
        let span = (BACKOFF_BASE.as_ps() / 2).max(1);
        capped + SimDuration::from_ps(self.jitter.gen_range(span))
    }

    fn run(mut self, mut prepared: PreparedScenario) -> (RecoveryMetrics, Option<TelemetryReport>) {
        // Baseline budgets before any fault or churn moves them.
        self.refresh_gauges(&mut prepared);
        while let Some(wake) = self.cp.next_action(&mut prepared) {
            let p = &mut prepared;
            match wake {
                Wake::Action(Step::Fault(k)) => self.on_fault(p, k),
                Wake::Action(Step::Teardown(i)) => self.on_teardown(p, i),
                Wake::Action(Step::Reopen(i)) => self.on_reopen(p, i),
                Wake::Action(Step::Deadline(i)) => self.on_deadline(p, i),
                Wake::Notice(notice) => self.on_notice(p, notice),
            }
        }
        self.collect(prepared)
    }

    /// Called after every operation that moves the budgets (fault
    /// masking, release, re-admission), so the report's final values
    /// reflect the end state of the run.
    fn refresh_gauges(&self, prepared: &mut PreparedScenario) {
        let failed = self.cp.admission.failed_links() as i64;
        self.cp
            .record_gauges(prepared, "admission.failed_links", failed);
    }

    /// Mirrors fault `k`, fired in the network at this instant, into the
    /// admission mask so re-admission only considers surviving links.
    fn on_fault(&mut self, prepared: &mut PreparedScenario, k: usize) {
        let admission = &mut self.cp.admission;
        match self.spec.faults.events[k].kind {
            FaultKind::LinkDown { from, dir } => admission.fail_link(from, dir),
            FaultKind::RouterDown { id } => admission.fail_router(id),
            FaultKind::StuckVc { router, dir, .. } => admission.mark_stuck_vc(router, dir),
            // Flaky links stay admissible: they still carry traffic and
            // heal when the window closes; a recovery routed over one may
            // simply break and recover again.
            FaultKind::LinkFlaky { .. } => {}
        }
        self.refresh_gauges(prepared);
    }

    /// A managed connection broke, closed or reopened at `notice.at`.
    fn on_notice(&mut self, prepared: &mut PreparedScenario, notice: Notice) {
        let Some(i) = self.managed.iter().position(|m| m.conn == notice.conn) else {
            return; // not a managed connection (or a superseded one)
        };
        let now = notice.at;
        match notice.kind {
            NoticeKind::Broken { flow } => {
                self.broken += 1;
                self.records[i].detected_at = Some(now);
                mark(prepared, "detect", now, i, vec![("flow", u64::from(flow))]);
                // Stop the source; give in-flight flits one bound to
                // drain (spoofed feedback keeps the queues moving even
                // across the dead link), then tear down.
                prepared.sim_mut().stop_flow(flow);
                self.cp.push(now + self.drain(i), Step::Teardown(i));
            }
            NoticeKind::Closed => {
                self.managed[i].deadline = None;
                self.cp.admission.release(&self.managed[i].admission);
                self.refresh_gauges(prepared);
                self.schedule_reopen(now, i);
            }
            NoticeKind::Opened => self.on_reopened(prepared, i, now),
        }
    }

    /// Gives the in-band operation just sent on `i` one [`OP_TIMEOUT`].
    fn arm_deadline(&mut self, now: SimTime, i: usize) {
        let deadline = now + OP_TIMEOUT;
        self.managed[i].deadline = Some(deadline);
        self.cp.push(deadline, Step::Deadline(i));
    }

    fn on_teardown(&mut self, prepared: &mut PreparedScenario, i: usize) {
        let now = prepared.sim().now();
        mark(prepared, "teardown", now, i, Vec::new());
        let conn = self.managed[i].conn;
        if prepared.sim_mut().close_connection(conn).is_ok() {
            self.arm_deadline(now, i);
        } else {
            // The close plan itself is unroutable (partition or dead
            // router on every return path): force-close.
            self.force_close(prepared, i);
            self.schedule_reopen(now, i);
        }
    }

    /// The teardown or reopen of `i` outlived [`OP_TIMEOUT`] (a fault ate
    /// its packets or acks): force-close, quarantining the unconfirmed
    /// hops, then reopen (after a teardown) or retry (after a reopen).
    fn on_deadline(&mut self, prepared: &mut PreparedScenario, i: usize) {
        let now = prepared.sim().now();
        if self.managed[i].deadline != Some(now) {
            return; // the operation it timed completed first
        }
        let state = prepared.sim().connection_state(self.managed[i].conn);
        self.force_close(prepared, i);
        if state == Some(ConnState::Closing) {
            self.schedule_reopen(now, i);
        } else {
            self.retry_or_give_up(now, i, RecoveryOutcome::PermanentlyDegraded);
        }
    }

    fn force_close(&mut self, prepared: &mut PreparedScenario, i: usize) {
        let now = prepared.sim().now();
        mark(prepared, "force_close", now, i, Vec::new());
        prepared
            .sim_mut()
            .force_close_connection(self.managed[i].conn)
            .expect("managed connection is known");
        self.cp.admission.release(&self.managed[i].admission);
        self.refresh_gauges(prepared);
        self.records[i].forced_close = true;
        self.forced_closes += 1;
    }

    fn schedule_reopen(&mut self, now: SimTime, i: usize) {
        let delay = self.backoff(self.records[i].attempts);
        self.cp.push(now + delay, Step::Reopen(i));
    }

    fn on_reopen(&mut self, prepared: &mut PreparedScenario, i: usize) {
        let now = prepared.sim().now();
        self.records[i].attempts += 1;
        let (src, dst) = self.spec.managed[i];
        let req = ConnRequest {
            src,
            dst,
            period: self.spec.gs_period,
        };
        match self.cp.admission.request(&req) {
            Ok(adm) => {
                let attempt = vec![("attempt", u64::from(self.records[i].attempts))];
                mark(prepared, "readmit", now, i, attempt);
                match prepared
                    .sim_mut()
                    .open_connection_along(src, dst, &adm.dirs)
                {
                    Ok(conn) => {
                        self.managed[i].conn = conn;
                        self.managed[i].admission = adm;
                        self.refresh_gauges(prepared);
                        self.arm_deadline(now, i);
                    }
                    Err(_) => {
                        // Quarantined VCs can make the manager refuse a
                        // path admission still believes in; count as a
                        // failed attempt and back off.
                        self.cp.admission.release(&adm);
                        self.refresh_gauges(prepared);
                        self.retry_or_give_up(now, i, RecoveryOutcome::PermanentlyDegraded);
                    }
                }
            }
            Err(RejectReason::NoPath) | Err(RejectReason::OpenFailed) => {
                self.retry_or_give_up(now, i, RecoveryOutcome::Rejected);
            }
            Err(_) => {
                // Interface/rate rejections will not heal with time.
                self.records[i].outcome = Some(RecoveryOutcome::Rejected);
            }
        }
    }

    fn retry_or_give_up(&mut self, now: SimTime, i: usize, give_up: RecoveryOutcome) {
        if self.records[i].attempts < self.spec.max_retries {
            self.schedule_reopen(now, i);
        } else {
            self.records[i].outcome = Some(give_up);
        }
    }

    /// The reopened circuit of `i` acknowledged its last hop at `now`.
    fn on_reopened(&mut self, prepared: &mut PreparedScenario, i: usize, now: SimTime) {
        self.managed[i].deadline = None;
        let rec = &mut self.records[i];
        let detected = rec.detected_at.expect("recovery implies detection");
        rec.recovered_at = Some(now);
        rec.recovery_latency = Some(now.since(detected));
        rec.new_hops = self.managed[i].admission.hops();
        rec.outcome = Some(if rec.new_hops > rec.old_hops {
            RecoveryOutcome::ReroutedLongerPath
        } else {
            RecoveryOutcome::Recovered
        });
        // One span per healed break: detect → circuit reopen.
        let (attempts, hops) = (rec.attempts, rec.new_hops);
        prepared.sim_mut().network_mut().telemetry_span(
            "recovery",
            "recover",
            detected,
            now,
            i as u32,
            vec![("attempts", u64::from(attempts)), ("hops", hops as u64)],
        );
        // Re-validate: stream over the new path under a freshly armed
        // watchdog with the recomputed timeout.
        self.start_stream(prepared, i, format!("recovered-{i}-{attempts}"), true);
    }

    fn collect(
        mut self,
        mut prepared: PreparedScenario,
    ) -> (RecoveryMetrics, Option<TelemetryReport>) {
        let end = self.cp.finish(&mut prepared);
        let quarantined = prepared.sim().network().connections().quarantined_count();
        let fault_counters = prepared.sim().network().fault_counters();
        let scenario = prepared.finish(RunOutcome::HorizonReached);
        for (rec, &metric_idx) in self.records.iter_mut().zip(&self.first_streams) {
            if rec.detected_at.is_some() {
                let f = &scenario.flows[metric_idx];
                rec.flits_lost = f.injected.saturating_sub(f.delivered);
            }
            if let Some(k) = rec.post_audit {
                let e = &end.audit.entries()[k];
                rec.post_bound_ns = e.bound.map(SimDuration::as_ns_f64);
                rec.post_observed_max_ns = e.observed.map(SimDuration::as_ns_f64);
            }
        }
        // A break with no outcome by window end is a degradation.
        for rec in &mut self.records {
            if rec.detected_at.is_some() && rec.outcome.is_none() {
                rec.outcome = Some(RecoveryOutcome::PermanentlyDegraded);
            }
        }
        let census = |o| self.records.iter().filter(|r| r.outcome == Some(o)).count() as u64;
        let metrics = RecoveryMetrics {
            scenario,
            broken: self.broken,
            recovered: census(RecoveryOutcome::Recovered),
            rerouted: census(RecoveryOutcome::ReroutedLongerPath),
            rejected: census(RecoveryOutcome::Rejected),
            degraded: census(RecoveryOutcome::PermanentlyDegraded),
            forced_closes: self.forced_closes,
            quarantined,
            fault_counters,
            records: self.records,
            audit: end.audit,
        };
        (metrics, end.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mango_core::Direction;

    fn spec(seed: u64) -> RecoverySpec {
        let mut s = RecoverySpec::mesh(4, 4, seed);
        s.base.measure = MeasureBound::For(SimDuration::from_us(60));
        s.managed = vec![
            (RouterId::new(0, 0), RouterId::new(3, 0)),
            (RouterId::new(0, 3), RouterId::new(3, 3)),
        ];
        s
    }

    #[test]
    fn healthy_run_never_breaks() {
        let m = spec(3).run();
        assert_eq!(m.broken, 0);
        assert!(m.records.iter().all(|r| r.outcome.is_none()));
        assert_eq!(m.forced_closes, 0);
        assert_eq!(m.quarantined, 0);
        assert_eq!(m.post_bound_violations(), 0);
    }

    #[test]
    fn killed_link_detects_reroutes_and_revalidates() {
        let mut s = spec(5);
        // Kill the middle link of the first managed connection's XY
        // path 10 µs into the window.
        s.faults = FaultSchedule::new(1).with(
            SimTime::ZERO + SimDuration::from_us(10),
            FaultKind::LinkDown {
                from: RouterId::new(1, 0),
                dir: Direction::East,
            },
        );
        let m = s.run();
        assert_eq!(m.broken, 1, "exactly the faulted connection breaks");
        let rec = &m.records[0];
        assert!(rec.detected_at.is_some(), "watchdog must fire");
        assert_eq!(
            rec.outcome,
            Some(RecoveryOutcome::ReroutedLongerPath),
            "the 3-hop row path is dead; the detour is longer: {rec:?}"
        );
        assert!(rec.new_hops > rec.old_hops);
        assert!(rec.recovery_latency.is_some());
        assert!(rec.flits_lost > 0, "flits crossing the dead link vanish");
        assert!(
            rec.post_bound_ns.unwrap() > rec.pre_bound_ns.unwrap(),
            "longer path → larger recomputed bound"
        );
        assert_eq!(m.post_bound_violations(), 0, "degraded guarantee holds");
        // The untouched second connection never breaks.
        assert!(m.records[1].outcome.is_none());
        let c = m.fault_counters;
        assert!(c.gs_flits_dropped > 0);
        assert!(c.spoofed_unlocks > 0, "blackhole feedback kept flowing");
    }

    #[test]
    fn recovery_is_deterministic() {
        let build = || {
            let mut s = spec(9);
            s.faults = FaultSchedule::new(2).with(
                SimTime::ZERO + SimDuration::from_us(8),
                FaultKind::LinkDown {
                    from: RouterId::new(1, 0),
                    dir: Direction::East,
                },
            );
            s
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(
            a.fault_counters.gs_flits_dropped,
            b.fault_counters.gs_flits_dropped
        );
    }

    #[test]
    fn telemetry_reports_admission_budget_gauges() {
        let mut s = spec(5);
        s.faults = FaultSchedule::new(1).with(
            SimTime::ZERO + SimDuration::from_us(10),
            FaultKind::LinkDown {
                from: RouterId::new(1, 0),
                dir: Direction::East,
            },
        );
        let (m, report) = s.run_with_telemetry(TelemetryConfig {
            trace_flits: false,
            ..Default::default()
        });
        assert_eq!(m.broken, 1);
        let names = report.metrics.gauge_names();
        let get = |n: &str| {
            let i = names
                .iter()
                .position(|&g| g == n)
                .unwrap_or_else(|| panic!("gauge {n} missing from {names:?}"));
            report.metrics.gauge_values()[i]
        };
        assert_eq!(get("admission.failed_links"), 1);
        // 4×4 mesh: 48 directed links, one taken down by the fault.
        assert_eq!(get("admission.up_links"), 47);
        assert!(get("admission.free_vcs") > 0);
        assert!(get("admission.residual_fps_min") > 0);
    }

    /// The engine reacts at the watchdog's own instant: every healed
    /// break is torn down exactly one drain — the stream's admitted worst
    /// latency — after it was detected.
    #[test]
    fn teardown_follows_detection_by_exactly_the_drain() {
        let mut s = spec(5);
        s.faults = FaultSchedule::new(1).with(
            SimTime::ZERO + SimDuration::from_us(10),
            FaultKind::LinkDown {
                from: RouterId::new(1, 0),
                dir: Direction::East,
            },
        );
        let (m, report) = s.run_with_telemetry(TelemetryConfig {
            trace_flits: false,
            ..Default::default()
        });
        let mut json = String::new();
        report.trace.render_json(&mut json);
        // The first recovery-track instant `name` on track `i`, in ps.
        let instant = |name: &str, i: usize| -> u64 {
            let line = json
                .lines()
                .filter(|l| l.contains("\"cat\":\"recovery\""))
                .filter(|l| l.contains(&format!("\"name\":\"{name}\"")))
                .find(|l| {
                    l.split("\"tid\":")
                        .nth(1)
                        .is_some_and(|t| t.starts_with(&format!("{i}")))
                })
                .unwrap_or_else(|| panic!("no {name} instant on track {i}"));
            let ts = line
                .split("\"ts\":")
                .nth(1)
                .and_then(|t| t.split(',').next());
            let (us, frac) = ts
                .and_then(|t| t.split_once('.'))
                .expect("a fixed-point ts");
            us.parse::<u64>().unwrap() * 1_000_000 + frac.parse::<u64>().unwrap()
        };
        let healed: Vec<_> = m
            .records
            .iter()
            .filter(|r| r.recovered_at.is_some())
            .collect();
        assert!(!healed.is_empty(), "the killed link's connection heals");
        for r in healed {
            let drain_ps = (r.pre_bound_ns.expect("bounded") * 1000.0).round() as u64;
            let (detect, teardown) = (instant("detect", r.idx), instant("teardown", r.idx));
            assert_eq!(teardown - detect, drain_ps, "{r:?}");
            assert_eq!(Some(detect), r.detected_at.map(|t| t.as_ps()));
        }
    }

    #[test]
    fn partition_rejects_after_retries() {
        let mut s = RecoverySpec::mesh(2, 1, 11);
        s.base.measure = MeasureBound::For(SimDuration::from_us(80));
        s.managed = vec![(RouterId::new(0, 0), RouterId::new(1, 0))];
        s.max_retries = 3;
        // The only link dies: no surviving path exists at all.
        s.faults = FaultSchedule::new(3).with(
            SimTime::ZERO + SimDuration::from_us(10),
            FaultKind::LinkDown {
                from: RouterId::new(0, 0),
                dir: Direction::East,
            },
        );
        let m = s.run();
        assert_eq!(m.broken, 1);
        assert_eq!(m.records[0].outcome, Some(RecoveryOutcome::Rejected));
        assert_eq!(m.records[0].attempts, 3, "retries are capped");
        assert_eq!(m.post_bound_violations(), 0);
    }
}
