//! Network layer for the MANGO clockless NoC: topologies, links, network
//! adapters, connection management, traffic generation and measurement.
//!
//! This crate assembles [`mango_core::Router`]s into a mesh (Fig. 1),
//! provides the network adapters that bridge clocked cores to the
//! clockless network, implements the connection manager that reserves VC
//! sequences and programs them through BE config packets (Sec. 3), and
//! offers the declarative scenarios ([`ScenarioSpec`]) that the
//! reproduction binaries and the sweep grids run.
//!
//! # Who owns what
//!
//! The mesh is one [`Network`] (one `mango_sim::Model`). Its state and
//! event dispatch are in [`network`]; every other decision of the data
//! plane is an `impl Network` block in the module that owns the state it
//! works on, the way `mango_core`'s router is one `impl Router` per
//! block of Fig. 2:
//!
//! | module | owns |
//! |---|---|
//! | [`network`] | `Network` (fields, accessors), [`NetEvent`], final BE delivery, and the dispatch `handle` → `call_router` → `process_actions` |
//! | [`fault`] | fault schedules and live fault state; applying a fault, blackholing a flit, the spoofed-feedback rule, watchdogs and their [`NoticeKind::Broken`] verdicts |
//! | [`telemetry`] | the sink; activation/finalization, the epoch sampler and its row (next to [`EPOCH_COLUMNS`]), recovery-track hooks, flit-trace hooks |
//! | [`relay`] | segmented BE packets and the ticket table; queueing a packet at a source NA, ack legs, relay forwarding |
//! | [`traffic`] | spatial × temporal traffic models; the source table and source ticks |
//! | [`meta`] | the per-flit instrumentation slab; the conservation ledger (buffer walk, debug wire count, record release) |
//! | [`conn`], [`route`], [`topology`] | connection planning, routing, the grid — used by the above, never touching `Network` |
//! | [`na`], [`na_arena`] | network-adapter state (reference twin and the flat arena the network runs on) |
//! | [`sim`], [`scenario`] | the `NocSim` harness around a kernel + network, and declarative scenarios on top of it |
//! | [`stats`] | flow statistics |
//!
//! # Example
//!
//! Open a GS connection across a 3×3 mesh and stream flits over it:
//!
//! ```
//! use mango_net::{EmitWindow, NocSim, TemporalSpec};
//! use mango_core::RouterId;
//! use mango_sim::SimDuration;
//!
//! let mut sim = NocSim::paper_mesh(3, 3, 42);
//! let conn = sim
//!     .open_connection(RouterId::new(0, 0), RouterId::new(2, 2))
//!     .expect("resources available");
//! sim.wait_connections_settled().expect("programming completes");
//! sim.begin_measurement();
//! let flow = sim.add_gs_source(
//!     conn,
//!     TemporalSpec::cbr(SimDuration::from_ns(10)),
//!     "quickstart",
//!     EmitWindow { limit: Some(100), ..Default::default() },
//! );
//! sim.run_to_quiescence();
//! assert_eq!(sim.flow(flow).delivered, 100);
//! ```

#![warn(missing_docs)]

pub mod conn;
pub mod fault;
pub mod meta;
pub mod na;
pub mod na_arena;
pub mod network;
pub mod relay;
pub mod route;
pub mod scenario;
pub mod sim;
pub mod stats;
pub mod telemetry;
pub mod topology;
pub mod traffic;
#[cfg(test)]
mod trajectory;

pub use conn::{walk_dirs, ConnError, ConnRecord, ConnState, ConnectionManager};
pub use conn::{Notice, NoticeKind};
pub use fault::{FaultCounters, FaultEvent, FaultKind, FaultSchedule, NoBoundaryLinks};
pub use meta::MetaSlab;
pub use na::NaConfig;
pub use na_arena::NaArena;
pub use network::{NaApp, NetEvent, Network};
pub use relay::{RelayTable, RelayTicket};
pub use route::{route_avoiding, xy_header, xy_path, xy_route, RouteError};
pub use scenario::{
    FlowKind, FlowMetric, GsFlowSpec, MeasureBound, Phase, PreparedScenario, ScenarioMetrics,
    ScenarioSpec, TrafficSpec,
};
pub use sim::{EmitWindow, NocSim};
pub use stats::{FlowStats, LatencyRecorder, NetStats};
pub use telemetry::{TelemetryConfig, TelemetrySink, TelemetryState, EPOCH_COLUMNS};
pub use topology::{d2d_extra_default, Grid, TopologySpec};
pub use traffic::{PatternKind, SpatialPattern, TemporalSpec};
