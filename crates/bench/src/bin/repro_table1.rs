//! Reproduces **Table 1**: per-module area of the MANGO router
//! (0.12 µm standard cells, 5×5 ports, 8 VCs/port, 32-bit flits).
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_table1`

use mango::hw::area::{AreaModel, RouterParams, Table1};

fn main() {
    mango_bench::reject_args();
    let params = RouterParams::paper();
    let breakdown = AreaModel::cmos_120nm().breakdown(&params);
    println!("Table 1: area usage in the MANGO router (model vs paper)\n");
    print!("{}", breakdown.to_table(true));
    println!();
    println!(
        "switching + VC buffers = {:.1}% of total (paper: \"more than half\")",
        (breakdown.switching + breakdown.vc_buffers) / breakdown.total_um2() * 100.0
    );
    let err = (breakdown.total_mm2() - Table1::PAPER_TOTAL).abs() / Table1::PAPER_TOTAL;
    println!("total error vs paper: {:.2}%", err * 100.0);
    assert!(err < 0.02, "Table 1 reproduction drifted");
}
