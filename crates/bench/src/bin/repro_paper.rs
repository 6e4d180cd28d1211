//! The source paper's checkable claims as one table (`mango_bench::paper`),
//! the claims beyond the paper under their own heading, then the tables
//! behind them; exits 1 if a claim does not hold.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_paper
//! [-- --threads N] [--full]`; `--full` runs the extension rows' full
//! grids. The output is the same for every `--threads`.

use mango_bench::paper::{exit_status, jobs, render, ROWS};
use mango_sweep::{run_parallel, SweepArgs};

fn main() {
    let args = SweepArgs::from_env();
    let full = args.rest == ["--full"];
    let files = args.csv.is_some() || args.json.is_some() || args.telemetry_out.is_some();
    if args.smoke || args.list || files || !(full || args.rest.is_empty()) {
        let bin = std::env::args().next().unwrap_or_default();
        eprintln!("error: {bin} takes no flag but --threads N and --full");
        eprintln!("usage: {bin} [--threads N] [--full]");
        std::process::exit(2);
    }
    let rows = run_parallel(&jobs(full), args.threads, |_, row| row());
    let (paper, extensions) = rows.split_at(ROWS.len());
    print!("{}", render(paper, extensions));
    std::process::exit(exit_status(&rows));
}
