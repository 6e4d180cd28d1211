//! MANGO: a reproduction of *"A Router Architecture for Connection-
//! Oriented Service Guarantees in the MANGO Clockless Network-on-Chip"*
//! (Bjerregaard & Sparsø, DATE 2005) as a deterministic discrete-event
//! model with calibrated hardware cost models.
//!
//! This umbrella crate re-exports the complete public API:
//!
//! * [`sim`] — the deterministic simulation kernel;
//! * [`hw`] — area/timing/power models (Table 1, port speeds);
//! * [`core`] — the MANGO router: non-blocking switching, share-based VC
//!   control, pluggable link arbiters, BE source routing, programming
//!   interface;
//! * [`net`] — mesh topologies, network adapters, connection management,
//!   traffic generation, measurement and the [`net::NocSim`] harness;
//! * [`qos`] — analytical guarantee bounds, admission control and
//!   connection-churn workloads;
//! * [`apps`] — application serving: task graphs, placement optimizers
//!   scoring through the admission controller, and whole-app lifecycle
//!   (arrive → place → admit → open → stream → close);
//! * [`baseline`] — the Fig. 3 blocking router and the ÆTHEREAL-style
//!   TDM comparator.
//!
//! # Quickstart
//!
//! ```
//! use mango::net::{EmitWindow, NocSim, TemporalSpec};
//! use mango::core::RouterId;
//! use mango::sim::SimDuration;
//!
//! // A 4×4 mesh of the paper's routers.
//! let mut sim = NocSim::paper_mesh(4, 4, 0xC0FFEE);
//!
//! // Open a GS connection and wait for the BE programming packets and
//! // their acknowledgments to settle.
//! let conn = sim
//!     .open_connection(RouterId::new(0, 0), RouterId::new(3, 3))
//!     .expect("free VCs on the path");
//! sim.wait_connections_settled().expect("programming completes");
//!
//! // Stream 1000 flits at 100 Mflit/s and check lossless in-order
//! // delivery.
//! sim.begin_measurement();
//! let flow = sim.add_gs_source(
//!     conn,
//!     TemporalSpec::cbr(SimDuration::from_ns(10)),
//!     "quickstart",
//!     EmitWindow { limit: Some(1000), ..Default::default() },
//! );
//! sim.run_to_quiescence();
//! let stats = sim.flow(flow);
//! assert_eq!(stats.delivered, 1000);
//! assert_eq!(stats.sequence_errors, 0);
//! ```

#![warn(missing_docs)]

pub use mango_apps as apps;
pub use mango_baseline as baseline;
pub use mango_core as core;
pub use mango_hw as hw;
pub use mango_net as net;
pub use mango_qos as qos;
pub use mango_sim as sim;
pub use mango_telemetry as telemetry;
