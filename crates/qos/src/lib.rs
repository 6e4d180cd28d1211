//! QoS layer for the MANGO NoC model: analytical service guarantees,
//! admission control, and the control-plane driver with its workloads.
//!
//! The paper's thesis is *connection-oriented service guarantees*: a GS
//! connection reserves a chain of independently buffered VCs whose
//! scheduling discipline yields hard latency and bandwidth bounds
//! (Sec. 3–4). This crate makes those guarantees first-class:
//!
//! * [`bound`] — the analytical model: [`bound::ServiceModel`] derives
//!   per-hop worst cases from the calibrated timing profile, and a
//!   [`bound::GuaranteeReport`] states each connection's guaranteed
//!   bandwidth and worst-case latency, and a [`bound::GuaranteeAudit`]
//!   checks observed worst latencies against those bounds, in integer
//!   picoseconds — the one check every workload and claim reads;
//! * [`admission`] — [`admission::AdmissionController`] tracks residual
//!   GS-VC, bandwidth and interface budgets per link/node, answers
//!   [`admission::ConnRequest`]s, and searches paths capacity-aware (XY
//!   first, BFS over residual capacity as fallback — legal for GS since
//!   every VC is independently buffered);
//! * [`driver`] — the one control-plane driver: [`ControlPlane`] owns
//!   the admission controller, the `(time, seq)` action heap, the run
//!   loop woken by the network's notices, and the budget gauges;
//!   [`driver::Lifecycle`] adds the arrival process and the all-or-nothing
//!   open → stream → close lifecycle of connection groups, driving the
//!   in-band BE programming packets and returning every budget exactly.
//!   Three workloads run on it — the two below and `mango_apps::ServingSpec`;
//! * [`churn`] — [`churn::ChurnSpec`] layers a Poisson
//!   open→stream→close connection workload (groups of one) over any
//!   base [`mango_net::ScenarioSpec`] and measures setup latency,
//!   rejection rate, programming overhead and observed-vs-bound
//!   latency;
//! * [`recovery`] — [`recovery::RecoverySpec`] injects a deterministic
//!   [`mango_net::FaultSchedule`], detects broken GS connections with
//!   in-network watchdogs, and heals them: teardown (in-band where
//!   possible, force-close with quarantine where not), re-admission
//!   over surviving links with capped exponential backoff, and
//!   re-validation against the recomputed degraded-path bound.
//!
//! # Example
//!
//! Admit a connection, open it along the admitted path, and compare the
//! simulated worst case against the analytical bound:
//!
//! ```
//! use mango_net::{EmitWindow, NocSim, TemporalSpec};
//! use mango_qos::{AdmissionController, ConnRequest, GuaranteeAudit};
//! use mango_core::RouterId;
//! use mango_sim::SimDuration;
//!
//! let mut sim = NocSim::paper_mesh(4, 4, 9);
//! let mut ctl = AdmissionController::new(
//!     sim.network().grid().clone(),
//!     sim.network().router_cfg(),
//!     sim.network().na_cfg(),
//!     0.875,
//! );
//! let req = ConnRequest {
//!     src: RouterId::new(0, 0),
//!     dst: RouterId::new(3, 3),
//!     period: SimDuration::from_ns(15),
//! };
//! let adm = ctl.request(&req).expect("an idle mesh admits");
//! let conn = sim
//!     .open_connection_along(req.src, req.dst, &adm.dirs)
//!     .expect("admission reserved the path");
//! sim.wait_connections_settled().expect("programming completes");
//! sim.begin_measurement();
//! let flow = sim.add_gs_source(
//!     conn,
//!     TemporalSpec::cbr(req.period),
//!     "bounded",
//!     EmitWindow { limit: Some(200), ..Default::default() },
//! );
//! sim.run_to_quiescence();
//! let mut audit = GuaranteeAudit::default();
//! let k = audit.register(adm.src, adm.dst, &adm.dirs, adm.report.worst_latency);
//! audit.observe(k, sim.flow(flow).latency.max());
//! assert!(audit.holds(), "{:?}", audit.worst());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod bound;
pub mod churn;
pub mod driver;
pub mod recovery;

pub use admission::{
    Admission, AdmissionController, BudgetSnapshot, BudgetSummary, ConnRequest, RejectReason,
    TrialCommit,
};
pub use bound::{
    path_extras, AuditEntry, BoundTerms, GuaranteeAudit, GuaranteeReport, PathExtras, ServiceModel,
};
pub use churn::{ChurnMetrics, ChurnSpec, ConnOutcome};
pub use driver::{ControlPlane, Lifecycle, MAX_GS_FRAC};
pub use recovery::{RecoveryMetrics, RecoveryOutcome, RecoveryRecord, RecoverySpec};
