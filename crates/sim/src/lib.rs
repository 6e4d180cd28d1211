//! Deterministic discrete-event simulation kernel for the MANGO clockless
//! network-on-chip reproduction.
//!
//! The kernel models asynchronous (clockless) hardware as a set of events
//! ordered by picosecond-resolution [`SimTime`]. A whole system (network of
//! routers, links and adapters) is one [`Model`] whose typed events are
//! dispatched by the [`Kernel`]. Determinism is guaranteed: events with equal
//! timestamps are delivered in scheduling order (a monotonically increasing
//! sequence number breaks ties), and all randomness comes from the seeded
//! [`SimRng`].
//!
//! # Example
//!
//! ```
//! use mango_sim::{Kernel, Model, Ctx, SimDuration};
//!
//! struct Counter { ticks: u32 }
//! enum Ev { Tick }
//!
//! impl Model for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _ev: Ev, ctx: &mut Ctx<Ev>) {
//!         self.ticks += 1;
//!         if self.ticks < 10 {
//!             ctx.schedule(SimDuration::from_ns(1), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut kernel = Kernel::new(Counter { ticks: 0 });
//! kernel.schedule(SimDuration::ZERO, Ev::Tick);
//! kernel.run_to_quiescence();
//! assert_eq!(kernel.model().ticks, 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod kernel;
mod rng;
mod time;

pub use event::{EventQueue, Slot, WheelGeometry};
pub use kernel::{Ctx, Kernel, KernelProfile, Model, RunOutcome};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
