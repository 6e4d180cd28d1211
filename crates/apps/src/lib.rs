//! Application-serving layer for the MANGO NoC model: the fabric as a
//! schedulable resource.
//!
//! The MANGO paper's thesis is that connection-oriented guarantees make
//! the NoC *programmable*: an application asks for connections with
//! hard bandwidth/latency properties and the fabric either commits to
//! them or says no. This crate serves whole applications on top of that
//! contract (ROADMAP item 4, after Even & Fais' QoS-mapping problem
//! statement):
//!
//! * [`graph`] — [`graph::TaskGraph`]: tasks + directed rate/bound
//!   edges, a text format, generators and named benchmark graphs;
//! * [`place`] — [`place::PlacerKind`]'s two strategies (greedy,
//!   simulated annealing) scoring candidate mappings through the real
//!   [`mango_qos::AdmissionController`] in exact dry-run brackets;
//! * [`serve`] — [`serve::ServingSpec`]: Poisson app-instance arrivals
//!   and exponential departures over a base scenario, each instance
//!   placed, admitted all-or-nothing, opened through real in-band
//!   programming packets, streamed per-edge, and torn down with exact
//!   budget return.
//!
//! # Example
//!
//! Place the VOPD task graph on a 4×4 mesh and check the mapping admits:
//!
//! ```
//! use mango_apps::{graph, PlacerKind};
//! use mango_qos::AdmissionController;
//! use mango_net::{Grid, NaConfig};
//! use mango_core::RouterConfig;
//!
//! let mut ctl = AdmissionController::new(
//!     Grid::new(4, 4),
//!     &RouterConfig::paper(),
//!     &NaConfig::paper(),
//!     0.875,
//! );
//! let placement = PlacerKind::Greedy.place(&graph::vopd(), &mut ctl, 1);
//! assert!(placement.admissible());
//! assert!(ctl.nothing_reserved(), "placement is a dry run");
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod place;
pub mod serve;

pub use graph::{Edge, Task, TaskGraph};
pub use place::{score_assignment, Placement, PlacementScore, PlacerKind};
pub use serve::{AppOutcome, AppRejectReason, ServingMetrics, ServingSpec};
