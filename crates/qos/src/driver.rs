//! The control-plane driver: the one action heap, run loop, arrival
//! process and connection-group lifecycle that the churn, serving and
//! recovery workloads share.
//!
//! MANGO opens and closes a GS connection by sending BE programming
//! packets to the routers on its path, and the guarantee only holds if
//! every VC and flits/s budget taken at open is returned exactly at
//! close. A workload built on this module therefore never does that
//! bookkeeping itself: it asks the [`AdmissionController`] for paths,
//! hands the admissions to [`Lifecycle::open_group`], and the driver
//! returns every one of them — on teardown, or on the spot when an open
//! fails part-way.
//!
//! # The run loop
//!
//! A [`ControlPlane`] owns the admission controller and a heap of
//! workload actions keyed `(time, insertion seq)`, so equal-time actions
//! replay in insertion order and a run is a pure function of its spec.
//! Nothing polls: the network posts a [`Notice`] at the instant an ack
//! completes an open or a close, or a watchdog declares a break, and
//! [`ControlPlane::next_action`] runs the simulation
//! ([`NocSim::run_until_notice`](mango_net::NocSim::run_until_notice))
//! to the earlier of the heap head and the window end, waking at every
//! notice on the way. The workload drives it iterator-style:
//!
//! ```text
//! while let Some(wake) = cp.next_action(&mut prepared) {
//!     match wake { .. }            // the workload's own handlers
//! }
//! let end = cp.finish(&mut prepared);
//! ```
//!
//! **The order at one instant `t`:** the network events due at `t` fire;
//! then the notices posted at `t` are handed out in posting order; then
//! the actions due at `t` in insertion order, including any pushed for
//! `t` itself. Nothing at or after the window end is handed out.
//! [`ControlPlane::finish`] runs out the window, detaches the telemetry
//! report, compares the budgets against the post-static-reservation
//! snapshot ([`RunEnd::budgets_clean`]) and observes every stream of
//! [`ControlPlane::audit_stream`] for [`RunEnd::audit`]. The recovery
//! workload runs its own steps on this loop directly. [`run_audited`]
//! audits a plain scenario's static GS connections the same way.
//!
//! # The connection-group lifecycle
//!
//! A connection group is the set of GS connections one request needs:
//! one for a churn request, one per inter-node edge for an application
//! instance. A [`Lifecycle`] wraps a `ControlPlane<Action>` and takes
//! groups through two [`Action`]s and the acks' notices,
//! **all-or-nothing**:
//!
//! ```text
//! Arrive ──admit──▶ open_group ──last open ack──▶ Opened
//!                                                   │ a Close due earlier waits
//! Close, at the drawn departure ◀───────────────────┘
//!   └──last close ack, budgets released──▶ Closed
//! ```
//!
//! The workload sees only the three transitions that are its business,
//! as [`Event`]s from [`Lifecycle::next_event`]:
//!
//! * [`Event::Arrive`] — a request drawn from the arrival process
//!   ([`ArrivalSpec`]). The workload admits the group's paths and calls
//!   [`Lifecycle::open_group`]; if any in-band open fails, the
//!   connections already opened are force-closed and *every* admission —
//!   opened, failing, and the never-reached tail — is released before
//!   the call returns.
//! * [`Event::Opened`] — at the group's last open ack (a group without
//!   connections opens at its arrival), so `now` ends its setup; the
//!   workload records setup latency and attaches streams. A Close that
//!   fell due while the group was still opening is issued once this
//!   event has been handled, so a stream never attaches to a closing
//!   circuit; `stream_stop` tells whether any stream window is left.
//!   [`Lifecycle::attach_stream`] registers each stream with the audit.
//! * [`Event::Closed`] — at the group's last close ack; its admissions
//!   are already back in the budgets.

use crate::admission::{Admission, AdmissionController, BudgetSnapshot};
use crate::bound::GuaranteeAudit;
use mango_core::ConnectionId;
use mango_net::{
    EmitWindow, FlowKind, MeasureBound, Notice, NoticeKind, PreparedScenario, ScenarioMetrics,
    ScenarioSpec, TelemetryConfig, TemporalSpec,
};
use mango_sim::{SimDuration, SimRng, SimTime};
use mango_telemetry::TelemetryReport;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// The lifecycle actions of a connection group (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// Issue the next request (and schedule the one after).
    Arrive,
    /// Tear group `i` down (held while it is still opening).
    Close(usize),
}

/// What [`ControlPlane::next_action`] hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake<A> {
    /// A workload action fell due.
    Action(A),
    /// The network posted a notice.
    Notice(Notice),
}

/// One GS connection of a group.
#[derive(Debug)]
pub struct GroupConn {
    /// The network's connection.
    pub conn: ConnectionId,
    /// The admission holding its budgets.
    pub admission: Admission,
    /// Index of its stream in [`mango_net::ScenarioMetrics::flows`],
    /// once one is attached.
    pub metric: Option<usize>,
}

/// An opened connection group.
#[derive(Debug)]
pub struct Group {
    /// The [`Arrival::ordinal`] of the request it serves.
    pub ordinal: usize,
    /// When its streams stop (one drain margin before teardown).
    pub stream_stop: SimTime,
    /// Its connections, in the order their admissions were handed in.
    pub conns: Vec<GroupConn>,
    /// Connections whose open (or close) is not acknowledged yet.
    unacked: usize,
    /// Its Close fell due while it was still opening.
    close_held: bool,
}

/// What the lifecycle tells the workload (see the module docs); the
/// payload of `Opened`/`Closed` is the group's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A request arrived: admit and open it, or record the rejection,
    /// then call [`Lifecycle::schedule_arrival`].
    Arrive(Arrival),
    /// The group finished opening.
    Opened(usize),
    /// The group finished closing and its budgets are released.
    Closed(usize),
}

/// What [`ControlPlane::finish`] hands back.
#[derive(Debug)]
pub struct RunEnd {
    /// The telemetry report, when telemetry was enabled.
    pub report: Option<TelemetryReport>,
    /// Programming packets processed by all routers.
    pub prog_packets: u64,
    /// The admission budgets equal the snapshot taken right after the
    /// static base reservations (leak detection; only meaningful when
    /// everything opened on top of them also closed).
    pub budgets_clean: bool,
    /// Every audited stream against its admitted bound.
    pub audit: GuaranteeAudit,
}

/// Fraction of each link's capacity that the churn, serving and
/// recovery workloads let GS connections reserve
/// ([`ControlPlane::prepare`]'s admission controller).
pub const MAX_GS_FRAC: f64 = 0.875;

/// The shared control-plane state of one run; `A` is the workload's
/// action type.
#[derive(Debug)]
pub struct ControlPlane<A> {
    /// The admission controller, with the base scenario's static GS
    /// connections already debited.
    pub admission: AdmissionController,
    clean: BudgetSnapshot,
    queue: BinaryHeap<Reverse<(SimTime, u64, A)>>,
    seq: u64,
    horizon: SimDuration,
    t_end: SimTime,
    audit: GuaranteeAudit,
    /// The flow id of each audit entry, in registration order.
    audited: Vec<u32>,
}

impl<A: Ord> ControlPlane<A> {
    /// Prepares `base`, enables telemetry when asked, and builds the
    /// admission controller over the prepared network, capped at
    /// [`MAX_GS_FRAC`], with the static connections reserved. Follow
    /// with [`ControlPlane::start`].
    ///
    /// # Panics
    ///
    /// Panics if `base.measure` is not [`MeasureBound::For`] or the base
    /// scenario itself is infeasible.
    pub fn prepare(base: &ScenarioSpec, cfg: Option<TelemetryConfig>) -> (PreparedScenario, Self) {
        let MeasureBound::For(horizon) = base.measure else {
            panic!("a control-plane workload needs a fixed measurement window");
        };
        let mut prepared = base.prepare();
        if let Some(cfg) = cfg {
            prepared.sim_mut().enable_telemetry(cfg);
        }
        let net = prepared.sim().network();
        let mut admission = AdmissionController::new(
            net.grid().clone(),
            net.router_cfg(),
            net.na_cfg(),
            MAX_GS_FRAC,
        );
        // Static connections of the base scenario already hold VCs and
        // interfaces; debit them so admission sees the true residuals.
        for (flow, conn) in base.gs.iter().zip(prepared.connections()) {
            let record = net
                .connections()
                .get(*conn)
                .expect("static connection has a record");
            let rate = AdmissionController::rate_fps(flow.pattern.mean_gap());
            admission.reserve_existing(record.src, &record.dirs, rate);
        }
        let mut clean = BudgetSnapshot::default();
        admission.save_budgets_into(&mut clean);
        let cp = ControlPlane {
            admission,
            clean,
            queue: BinaryHeap::new(),
            seq: 0,
            horizon,
            t_end: SimTime::ZERO,
            audit: GuaranteeAudit::default(),
            audited: Vec::new(),
        };
        (prepared, cp)
    }

    /// Starts the measurement window; it ends `base.measure` from now.
    pub fn start(&mut self, prepared: &mut PreparedScenario) {
        prepared.start_measurement();
        self.t_end = prepared.sim().now() + self.horizon;
    }

    /// Queues `action` for time `t`.
    pub fn push(&mut self, t: SimTime, action: A) {
        self.queue.push(Reverse((t, self.seq, action)));
        self.seq += 1;
    }

    /// Runs the simulation to the next notice or due action and hands it
    /// out, in the order the module docs give; `None` once the window has
    /// run out with nothing left before its end.
    pub fn next_action(&mut self, prepared: &mut PreparedScenario) -> Option<Wake<A>> {
        loop {
            let sim = prepared.sim_mut();
            let notice = sim.network_mut().pop_notice();
            if let Some(notice) = notice.filter(|n| n.at < self.t_end) {
                return Some(Wake::Notice(notice));
            }
            let head = self.queue.peek().map(|Reverse((t, ..))| *t);
            let due = head.map_or(self.t_end, |t| t.min(self.t_end));
            if due > sim.now() {
                sim.run_until_notice(due);
            } else if due < self.t_end {
                let Reverse((_, _, action)) = self.queue.pop()?;
                return Some(Wake::Action(action));
            } else {
                return None;
            }
        }
    }

    /// Registers `flow`, a GS stream over `adm`'s connection, with the
    /// audit; [`ControlPlane::finish`] observes it. Returns its index in
    /// [`RunEnd::audit`].
    pub fn audit_stream(&mut self, adm: &Admission, flow: u32) -> usize {
        self.audited.push(flow);
        let bound = adm.report.worst_latency;
        self.audit.register(adm.src, adm.dst, &adm.dirs, bound)
    }

    /// True when the budgets equal the post-static-reservation snapshot.
    pub fn budgets_clean(&self) -> bool {
        self.admission.budgets_match(&self.clean)
    }

    /// Exports the admission controller's aggregate headroom as
    /// `admission.*` gauges plus the workload's own `extra` gauge. Call
    /// whenever the budgets move so the report tracks the
    /// residual-capacity envelope.
    pub fn record_gauges(&self, prepared: &mut PreparedScenario, extra: &'static str, value: i64) {
        let net = prepared.sim_mut().network_mut();
        if !net.telemetry().is_active() {
            return;
        }
        let s = self.admission.budget_summary();
        net.telemetry_gauge("admission.free_vcs", s.free_vcs as i64);
        net.telemetry_gauge("admission.residual_fps_min", s.residual_fps_min as i64);
        net.telemetry_gauge("admission.up_links", s.up_links as i64);
        net.telemetry_gauge(extra, value);
    }

    /// Runs out the window and collects what the driver measured. Call
    /// [`PreparedScenario::finish`] afterwards for the scenario metrics.
    pub fn finish(mut self, prepared: &mut PreparedScenario) -> RunEnd {
        let now = prepared.sim().now();
        if self.t_end > now {
            prepared.sim_mut().run_for(self.t_end.since(now));
        }
        for (k, &flow) in self.audited.iter().enumerate() {
            self.audit
                .observe(k, prepared.sim().flow(flow).latency.max());
        }
        let budgets_clean = self.budgets_clean();
        let net = prepared.sim_mut().network_mut();
        RunEnd {
            report: net.take_telemetry(),
            prog_packets: net.routers().iter().map(|r| r.stats().prog_packets).sum(),
            budgets_clean,
            audit: self.audit,
        }
    }
}

/// Runs `spec` as [`ScenarioSpec::run`] does and registers its static
/// GS connections with `audit`, the `i`-th against `bounds[i]`, each
/// with the path it was opened along as its witness.
///
/// # Panics
///
/// Panics if `bounds` does not hold one bound per GS connection of
/// `spec`, or as [`ScenarioSpec::run`].
pub fn run_audited(
    spec: &ScenarioSpec,
    bounds: &[Option<SimDuration>],
    audit: &mut GuaranteeAudit,
) -> ScenarioMetrics {
    assert_eq!(bounds.len(), spec.gs.len(), "one bound per GS connection");
    let mut prepared = spec.prepare();
    prepared.start_measurement();
    let outcome = prepared.run_to_bound();
    let sim = prepared.sim();
    for (i, (&conn, &bound)) in prepared.connections().iter().zip(bounds).enumerate() {
        let c = sim.network().connections().get(conn);
        let c = c.expect("static connection has a record");
        let k = audit.register(c.src, c.dst, &c.dirs, bound);
        audit.observe(k, sim.flow(prepared.gs_flow(i)).latency.max());
    }
    prepared.finish(outcome)
}

/// The connection-group lifecycle over a control plane: the arrival
/// process, the table of opened groups and their open/close handling.
#[derive(Debug)]
pub struct Lifecycle {
    /// The underlying control plane (admission controller and heap).
    pub cp: ControlPlane<Action>,
    arrivals: ArrivalProcess,
    groups: Vec<Group>,
    /// The group each live connection belongs to.
    owner: HashMap<ConnectionId, usize>,
    /// Groups without connections, Opened at their arrival.
    opened_at_once: VecDeque<usize>,
    closed: u64,
    peak_live: u64,
}

/// What [`Lifecycle::finish`] hands back.
#[derive(Debug)]
pub struct LifecycleEnd {
    /// The control plane's part.
    pub run: RunEnd,
    /// Every group that opened, in open order.
    pub groups: Vec<Group>,
    /// Requests issued.
    pub requests: u64,
    /// Groups whose teardown completed inside the window.
    pub closed: u64,
    /// Most groups simultaneously live.
    pub peak_live: u64,
}

impl Lifecycle {
    /// Starts the measurement window and the arrival process over it,
    /// with the heap and the group table pre-sized for the expected
    /// offered load so a busy window never regrows them mid-run.
    ///
    /// # Panics
    ///
    /// Panics if the margins are inconsistent (`holding_min ≤ 2 ×
    /// drain_margin`, or a window shorter than one minimum hold plus
    /// drain).
    pub fn start(
        mut cp: ControlPlane<Action>,
        prepared: &mut PreparedScenario,
        spec: ArrivalSpec,
    ) -> Self {
        cp.start(prepared);
        let now = prepared.sim().now();
        let mut lifecycle = Lifecycle {
            arrivals: ArrivalProcess::new(spec, now, cp.t_end),
            cp,
            groups: Vec::new(),
            owner: HashMap::new(),
            opened_at_once: VecDeque::new(),
            closed: 0,
            peak_live: 0,
        };
        let expected = lifecycle.expected_requests();
        lifecycle.cp.queue.reserve(expected * 2 + 64);
        lifecycle.groups.reserve(expected);
        lifecycle.schedule_arrival(now);
        lifecycle
    }

    /// Requests to expect over the window (for pre-sizing).
    pub fn expected_requests(&self) -> usize {
        let spec = &self.arrivals.spec;
        (self.cp.horizon.as_ps() / spec.gap.as_ps().max(1) + 16).min(spec.max.saturating_mul(2))
            as usize
    }

    /// Queues the arrival after the one handled at `now`, if one is due.
    /// Call last in the [`Event::Arrive`] handler, so that it replays
    /// after everything the handler queued.
    pub fn schedule_arrival(&mut self, now: SimTime) {
        if let Some(t) = self.arrivals.next(now) {
            self.cp.push(t, Action::Arrive);
        }
    }

    /// Advances the run to the next transition the workload handles;
    /// `None` at the end of the window. A lifecycle arms no watchdog, so
    /// every notice about one of its connections is an open or close ack.
    ///
    /// # Panics
    ///
    /// Panics if a connection is not `Open` when its teardown is sent.
    pub fn next_event(&mut self, prepared: &mut PreparedScenario) -> Option<Event> {
        if let Some(i) = self.opened_at_once.pop_front() {
            return Some(Event::Opened(i));
        }
        loop {
            let (i, opened) = match self.cp.next_action(prepared)? {
                Wake::Action(Action::Arrive) => {
                    let now = prepared.sim().now();
                    return Some(Event::Arrive(self.arrivals.arrive(now)));
                }
                Wake::Action(Action::Close(i)) => {
                    let group = &mut self.groups[i];
                    group.close_held = group.unacked > 0; // still opening
                    if group.close_held {
                        continue;
                    }
                    for c in &group.conns {
                        let closing = prepared.sim_mut().close_connection(c.conn);
                        closing.expect("connection is open at teardown time");
                    }
                    group.unacked = group.conns.len();
                    (i, false)
                }
                Wake::Notice(notice) => {
                    let Some(&i) = self.owner.get(&notice.conn) else {
                        continue; // a static connection of the base scenario
                    };
                    self.groups[i].unacked -= 1;
                    (i, notice.kind == NoticeKind::Opened)
                }
            };
            let group = &self.groups[i];
            if group.unacked > 0 {
                continue;
            }
            if opened {
                if group.close_held {
                    self.cp.push(prepared.sim().now(), Action::Close(i));
                }
                return Some(Event::Opened(i));
            }
            for c in &group.conns {
                self.cp.admission.release(&c.admission);
                self.owner.remove(&c.conn);
            }
            self.closed += 1;
            return Some(Event::Closed(i));
        }
    }

    /// The opened group `i`.
    pub fn group(&self, i: usize) -> &Group {
        &self.groups[i]
    }

    /// [`ControlPlane::record_gauges`] with the count of groups
    /// currently open as the workload's `live_gauge`.
    pub fn record_live_gauges(&self, prepared: &mut PreparedScenario, live_gauge: &'static str) {
        let live = self.groups.len() as u64 - self.closed;
        self.cp.record_gauges(prepared, live_gauge, live as i64);
    }

    /// Opens one connection per admission through in-band programming
    /// packets, all-or-nothing, and schedules the group's Close at
    /// `arrival.close_at`; returns the group's index.
    ///
    /// On an open failure — the controller believed capacity existed but
    /// the network disagreed, e.g. a fault or quarantine landed between
    /// the decision and the programming traffic — the connections already
    /// opened are force-closed, every admission handed in is released,
    /// and `None` is returned.
    pub fn open_group(
        &mut self,
        prepared: &mut PreparedScenario,
        admissions: Vec<Admission>,
        arrival: &Arrival,
    ) -> Option<usize> {
        let sim = prepared.sim_mut();
        let mut opened = Vec::with_capacity(admissions.len());
        for adm in &admissions {
            match sim.open_connection_along(adm.src, adm.dst, &adm.dirs) {
                Ok(conn) => opened.push(conn),
                Err(_) => break,
            }
        }
        if opened.len() < admissions.len() {
            for conn in opened {
                sim.force_close_connection(conn)
                    .expect("partially opened connection force-closes");
            }
            // Opened, failing, or never reached: each admission holds
            // budgets, so each is released.
            for adm in &admissions {
                self.cp.admission.release(adm);
            }
            return None;
        }
        let i = self.groups.len();
        self.owner.extend(opened.iter().map(|&conn| (conn, i)));
        if opened.is_empty() {
            self.opened_at_once.push_back(i);
        }
        let conns = opened.into_iter().zip(admissions);
        self.groups.push(Group {
            ordinal: arrival.ordinal,
            stream_stop: arrival.stream_stop,
            unacked: conns.len(),
            close_held: false,
            conns: conns
                .map(|(conn, admission)| GroupConn {
                    conn,
                    admission,
                    metric: None,
                })
                .collect(),
        });
        self.peak_live = self.peak_live.max(self.groups.len() as u64 - self.closed);
        self.cp.push(arrival.close_at, Action::Close(i));
        Some(i)
    }

    /// Attaches a CBR stream of `period` to connection `k` of the opened
    /// group `i`, stopping at the group's `stream_stop`, tracks it in the
    /// scenario metrics and registers it with the audit.
    pub fn attach_stream(
        &mut self,
        prepared: &mut PreparedScenario,
        i: usize,
        k: usize,
        period: SimDuration,
        name: String,
    ) {
        let group = &mut self.groups[i];
        let window = EmitWindow {
            stop_after: Some(group.stream_stop.since(prepared.sim().now())),
            ..Default::default()
        };
        let flow = prepared.sim_mut().add_gs_source(
            group.conns[k].conn,
            TemporalSpec::cbr(period),
            name,
            window,
        );
        group.conns[k].metric = Some(prepared.track_flow(flow, FlowKind::Gs));
        self.cp.audit_stream(&group.conns[k].admission, flow);
    }

    /// [`ControlPlane::finish`], plus what the lifecycle itself counted.
    pub fn finish(self, prepared: &mut PreparedScenario) -> LifecycleEnd {
        LifecycleEnd {
            run: self.cp.finish(prepared),
            groups: self.groups,
            requests: self.arrivals.issued,
            closed: self.closed,
            peak_live: self.peak_live,
        }
    }
}

/// The parameters of a [`Lifecycle`]'s arrival process: Poisson request
/// arrivals with exponential, floored holding times.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSpec {
    /// Seed of the process's random streams.
    pub seed: u64,
    /// Mean gap between requests (Poisson arrivals).
    pub gap: SimDuration,
    /// Mean holding time (exponential), request → teardown.
    pub holding_mean: SimDuration,
    /// Floor on holding times (must exceed `2 × drain_margin`).
    pub holding_min: SimDuration,
    /// How long before teardown the streams stop.
    pub drain_margin: SimDuration,
    /// Hard cap on issued requests.
    pub max: u64,
}

/// One request drawn from the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Request ordinal (issue order, from 0).
    pub ordinal: usize,
    /// The holding time drawn for it.
    pub holding: SimDuration,
    /// When teardown starts: arrival plus `holding`, clamped so the
    /// teardown acks can drain before the window closes.
    pub close_at: SimTime,
    /// When streams stop: one drain margin before `close_at`.
    pub stream_stop: SimTime,
}

/// The arrival process. The gap stream is fork 0 of the seed and the
/// holding stream fork 1 (fork 2 is left to the workload's own picks).
#[derive(Debug)]
struct ArrivalProcess {
    spec: ArrivalSpec,
    gaps: SimRng,
    holdings: SimRng,
    /// Last instant a request may be issued: leaves room for the minimum
    /// holding plus teardown drain before the window closes.
    cutoff: SimTime,
    latest_close: SimTime,
    issued: u64,
}

fn draw_exp(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    SimDuration::from_ps(rng.gen_exp(mean.as_ps() as f64).round().max(1.0) as u64)
}

impl ArrivalProcess {
    /// A process over the window from `now` to `t_end`.
    fn new(spec: ArrivalSpec, now: SimTime, t_end: SimTime) -> Self {
        let reserve = spec.holding_min + spec.drain_margin * 2;
        assert!(
            spec.holding_min > spec.drain_margin * 2,
            "holding_min must exceed twice the drain margin"
        );
        assert!(
            t_end.since(now) > reserve,
            "the window must outlast one minimum hold plus drain"
        );
        let rng = SimRng::new(spec.seed);
        ArrivalProcess {
            gaps: rng.fork(0),
            holdings: rng.fork(1),
            cutoff: t_end - reserve,
            latest_close: t_end - spec.drain_margin * 2,
            issued: 0,
            spec,
        }
    }

    /// When the next request arrives, if one does: the cap and the
    /// cutoff apply to the first request as to every later one.
    fn next(&mut self, now: SimTime) -> Option<SimTime> {
        if self.issued >= self.spec.max {
            return None;
        }
        let t = now + draw_exp(&mut self.gaps, self.spec.gap);
        (t < self.cutoff).then_some(t)
    }

    /// Issues the request arriving `now`.
    fn arrive(&mut self, now: SimTime) -> Arrival {
        let holding =
            draw_exp(&mut self.holdings, self.spec.holding_mean).max(self.spec.holding_min);
        let close_at = (now + holding).min(self.latest_close);
        self.issued += 1;
        Arrival {
            ordinal: (self.issued - 1) as usize,
            holding,
            close_at,
            stream_stop: close_at - self.spec.drain_margin,
        }
    }
}

/// Mean of `durations`, ns (0 when there are none).
pub fn mean_ns(durations: impl Iterator<Item = SimDuration>) -> f64 {
    let (sum, n) = durations.fold((0u128, 0u64), |(s, n), d| (s + d.as_ps() as u128, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1000.0
    }
}

/// Nearest-rank `q`-quantile of `durations`, ns: the sample of rank
/// ⌈n·q⌉ (at least 1) in sorted order, `q` clamped to `[0, 1]` — so
/// `q = 0` is the minimum and `q = 1` the maximum (0 when there are
/// none).
pub fn quantile_ns(durations: impl Iterator<Item = SimDuration>, q: f64) -> f64 {
    let mut sorted: Vec<SimDuration> = durations.collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * q.clamp(0.0, 1.0)).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_ns_f64()
}

/// Largest of `durations`, ns (0 when there are none).
pub fn max_ns(durations: impl Iterator<Item = SimDuration>) -> f64 {
    durations.max().map_or(0.0, SimDuration::as_ns_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> (PreparedScenario, ControlPlane<u32>) {
        let base = ScenarioSpec::mesh(2, 2, 1).measure_for(SimDuration::from_us(10));
        let (mut prepared, mut cp) = ControlPlane::prepare(&base, None);
        cp.start(&mut prepared);
        (prepared, cp)
    }

    #[test]
    fn quantile_and_max_summarise_exact_samples() {
        assert_eq!(quantile_ns(std::iter::empty(), 0.5), 0.0);
        assert_eq!(max_ns(std::iter::empty()), 0.0);
        let samples = [40, 10, 30, 20, 30].map(SimDuration::from_ns);
        let q = |q| quantile_ns(samples.into_iter(), q);
        assert_eq!(q(0.0), 10.0, "q = 0 is the minimum");
        assert_eq!(q(1.0), 40.0, "q = 1 is the maximum");
        assert_eq!(q(0.5), 30.0, "rank ⌈5 × 0.5⌉ = 3");
        // Ranks 3 and 4 are the tied 30s.
        assert_eq!(q(0.8), 30.0);
        assert_eq!(q(0.81), 40.0);
        assert_eq!(q(-1.0), 10.0, "q clamps to [0, 1]");
        assert_eq!(max_ns(samples.into_iter()), 40.0);
        let sub_ns = [1500, 999].map(SimDuration::from_ps);
        assert_eq!(quantile_ns(sub_ns.into_iter(), 1.0), 1.5);
        assert_eq!(max_ns(sub_ns.into_iter()), 1.5);
    }

    #[test]
    fn equal_time_actions_pop_in_insertion_order() {
        let (mut prepared, mut cp) = plane();
        let t0 = prepared.sim().now();
        let (early, late) = (t0 + SimDuration::from_us(1), t0 + SimDuration::from_us(2));
        // Values chosen so that ordering by action would differ.
        cp.push(late, 7);
        cp.push(early, 9);
        cp.push(late, 3);
        cp.push(late, 5);
        cp.push(early, 1);
        let mut popped = Vec::new();
        while let Some(action) = cp.next_action(&mut prepared) {
            popped.push((prepared.sim().now(), action));
        }
        let expected = [(early, 9), (early, 1), (late, 7), (late, 3), (late, 5)];
        assert_eq!(popped, expected.map(|(t, a)| (t, Wake::Action(a))));
    }

    /// The network's notice is handed out at the instant of the ack, and
    /// before an action due at that same instant.
    #[test]
    fn a_notice_precedes_the_actions_due_at_its_instant() {
        let open = |prepared: &mut PreparedScenario| {
            let (src, dst) = (
                mango_core::RouterId::new(0, 0),
                mango_core::RouterId::new(1, 1),
            );
            prepared
                .sim_mut()
                .open_connection(src, dst)
                .expect("an idle mesh admits")
        };
        let (mut prepared, mut cp) = plane();
        let conn = open(&mut prepared);
        let Some(Wake::Notice(ack)) = cp.next_action(&mut prepared) else {
            panic!("the open ack is noticed");
        };
        assert_eq!((ack.conn, ack.kind), (conn, NoticeKind::Opened));
        assert_eq!(
            prepared.sim().now(),
            ack.at,
            "woken at the ack's own instant"
        );
        // The same run again, with an action due at the ack's instant.
        let (mut prepared, mut cp) = plane();
        cp.push(ack.at, 7);
        open(&mut prepared);
        assert_eq!(cp.next_action(&mut prepared), Some(Wake::Notice(ack)));
        assert_eq!(cp.next_action(&mut prepared), Some(Wake::Action(7)));
        assert_eq!(prepared.sim().now(), ack.at);
    }

    #[test]
    fn nothing_at_or_after_the_window_end_is_dispatched() {
        let (mut prepared, mut cp) = plane();
        let t_end = prepared.sim().now() + SimDuration::from_us(10);
        let last = t_end - SimDuration::from_ps(1);
        cp.push(t_end + SimDuration::from_us(1), 3);
        cp.push(t_end, 2);
        cp.push(last, 1);
        assert_eq!(cp.next_action(&mut prepared), Some(Wake::Action(1)));
        assert_eq!(prepared.sim().now(), last);
        assert_eq!(cp.next_action(&mut prepared), None);
        assert_eq!(
            prepared.sim().now(),
            t_end,
            "waiting for notices ran the window out"
        );
        let end = cp.finish(&mut prepared);
        assert_eq!(prepared.sim().now(), t_end);
        assert!(end.budgets_clean);
        assert!(end.report.is_none(), "telemetry was never enabled");
    }
}
