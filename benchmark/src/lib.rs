//! The repo benchmark: host-normalised end-to-end cost on seven
//! workloads, per-layer probes and a traced run. See `README.md`.
//!
//! Everything here measures the crates **from outside**, by timing
//! calls into their public functions; the benchmark changes no file
//! outside its own directory.

#![warn(missing_docs)]

pub mod cal;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod probes;
pub mod report;
pub mod span;
pub mod stats;
pub mod workloads;
