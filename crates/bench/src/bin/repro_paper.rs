//! The source paper's checkable claims as one table (`mango_bench::paper`),
//! then the tables behind them; exits 1 if a claim does not hold.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_paper
//! [-- --threads N]`; the output is the same for every `--threads`.

use mango_bench::paper::{exit_status, render, ROWS};
use mango_sweep::run_parallel;

fn main() {
    let args = mango_bench::args_accepting(&[]);
    let rows = run_parallel(&ROWS, args.threads, |_, row| row());
    print!("{}", render(&rows));
    std::process::exit(exit_status(&rows));
}
