//! Parallel parameter-sweep runner for the MANGO NoC model.
//!
//! The paper's headline results (Fig. 7 BE saturation, Fig. 8 GS-vs-BE,
//! the scaling tables) are parameter sweeps: many independent simulations
//! over a grid of configurations. (`repro_paper`'s Fig. 8 row builds its
//! grid as a [`grid::SweepSpec`]; the `sweep` binary runs any such grid.) Each point builds its own
//! [`mango_net::NocSim`] from a [`mango_net::ScenarioSpec`] — no shared
//! mutable state whatsoever — so the sweep is embarrassingly parallel.
//! This crate provides:
//!
//! * [`runner::run_parallel`] — a deterministic fan-out over
//!   `std::thread::scope` workers (no external thread-pool dependency);
//!   [`runner::run_sweep_graceful`] runs a [`grid::SweepSpec`] on it and,
//!   when asked, collects every job's telemetry report, which
//!   [`telemetry_out::write_telemetry_dir`] writes as one directory;
//! * [`grid::SweepSpec`] — a declarative job grid (mesh sizes, GS
//!   connection counts, BE injection gaps, CBR periods, durations,
//!   seeds) that expands to [`grid::SweepJob`]s;
//! * [`record::SweepRecord`] — typed per-job results with CSV and JSON
//!   writers and a summary-table printer; every grid's record type is a
//!   [`record::CsvRecord`], written by the one [`record::write_csv`] and
//!   run by the one [`runner::run_grid`];
//! * [`churn_grid::ChurnSweepSpec`] — churn axes (arrival rate ×
//!   holding time × offered GS load) over [`mango_qos::ChurnSpec`]
//!   connection-churn experiments, with their own typed records;
//! * [`fault_grid::FaultSweepSpec`] — resilience axes (fault count ×
//!   BE pattern × background load) over [`mango_qos::RecoverySpec`]
//!   fault-injection + self-healing experiments, recording the
//!   recovery-outcome census per point;
//! * [`cli`] — the shared `--threads N` / `--smoke` / `--list` /
//!   `--csv` / `--json` / `--telemetry-out` argument surface of the
//!   sweep binaries.
//!
//! # Determinism contract
//!
//! **Sweep output is a pure function of the [`grid::SweepSpec`]** — byte
//! identical no matter how many worker threads run it, in what order the
//! OS schedules them, or on which host. Three properties compose to give
//! this:
//!
//! 1. *Job isolation*: each [`grid::SweepJob`] carries its own seed and
//!    expands to a self-contained [`mango_net::ScenarioSpec`]; a worker
//!    builds a private kernel + network per job and shares nothing
//!    mutable with its siblings (enforced at compile time — the model is
//!    `Send`, and the job closure borrows only immutable spec data).
//! 2. *Deterministic simulation*: for a fixed seed a scenario run is
//!    bit-reproducible (sequential event kernel, stable RNG streams).
//! 3. *Order-preserving merge*: workers claim jobs from a shared atomic
//!    counter and tag every result with its job index; the merge step
//!    reorders results into expansion order before anything is written.
//!    Per-job floating-point aggregation happens inside the job, so no
//!    cross-thread reduction-order effects exist.
//!
//! Wall-clock measurements (the one legitimately nondeterministic
//! output) are kept out of [`record::SweepRecord`] and the CSV schema;
//! they travel in the JSON `runtime` section only. The goldens table
//! (`crates/bench/tests/goldens.rs`) enforces the contract by diffing
//! `--threads 1` against `--threads 4` CSVs on every `cargo test`.

#![warn(missing_docs)]

pub mod churn_grid;
pub mod cli;
pub mod fault_grid;
pub mod grid;
pub mod record;
pub mod runner;
pub mod serving_grid;
pub mod telemetry_out;

pub use churn_grid::{churn_summary_table, ChurnJob, ChurnRecord, ChurnSweepSpec};
pub use cli::SweepArgs;
pub use fault_grid::{fault_summary_table, FaultJob, FaultRecord, FaultSweepSpec};
pub use grid::{auto_gs_pairs, SweepJob, SweepSpec};
pub use record::{write_csv, write_json, CsvRecord, RuntimeInfo, SweepRecord};
pub use runner::{
    default_threads, run_grid, run_parallel, run_parallel_graceful, run_sweep, run_sweep_graceful,
    GracefulRun, SweepRun,
};
pub use serving_grid::{
    capacity_curves, serving_summary_table, ServingJob, ServingRecord, ServingSweepSpec,
};
pub use telemetry_out::write_telemetry_dir;
