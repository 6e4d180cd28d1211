//! Reproduces **Fig. 5** (the switching fabric): the 5-bit steering
//! format (3 split bits + 2 switch bits) covers every legal target from
//! every arrival port with zero aliasing, and the switching-module area
//! scales linearly with the number of VCs (Sec. 4.2).
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_fig5_switching`

use mango::core::{Direction, Port, Steer, VcId};
use mango::hw::area::{AreaModel, RouterParams};
use mango::hw::Table;

fn main() {
    mango_bench::reject_args();
    // Enumerate the full steering space from each arrival port.
    println!("Steering-bit coverage (Fig. 5: 3 split bits + 2 switch bits)\n");
    let mut t = Table::new(vec![
        "arrival port",
        "valid codes",
        "GS targets",
        "local",
        "BE",
    ]);
    for arrival in [
        Port::Net(Direction::North),
        Port::Net(Direction::East),
        Port::Net(Direction::South),
        Port::Net(Direction::West),
        Port::Local,
    ] {
        let mut gs = 0;
        let mut local = 0;
        let mut be = 0;
        let mut valid = 0;
        let mut seen = std::collections::HashSet::new();
        for code in 0u8..32 {
            if let Ok(target) = Steer::unpack(code, arrival) {
                valid += 1;
                assert!(seen.insert(target), "code aliasing at {arrival}");
                // Round-trip.
                assert_eq!(target.pack(arrival), Ok(code), "asymmetric code {code}");
                match target {
                    Steer::GsBuffer { .. } => gs += 1,
                    Steer::LocalGs { .. } => local += 1,
                    Steer::BeUnit => be += 1,
                }
            }
        }
        t.add_row(vec![
            arrival.to_string(),
            valid.to_string(),
            gs.to_string(),
            local.to_string(),
            be.to_string(),
        ]);
        match arrival {
            Port::Net(_) => {
                assert_eq!(gs, 24, "3 legal dirs x 8 VCs");
                assert_eq!(local, 4);
                assert_eq!(be, 1);
            }
            Port::Local => {
                assert_eq!(gs, 32, "4 dirs x 8 VCs");
                assert_eq!(local, 0);
                assert_eq!(be, 0);
            }
        }
    }
    print!("{t}");

    // Area scaling: linear in V for the switching module, quadratic for
    // the VC-control wire switch (Sec. 4.3's Clos remark).
    println!("\nSwitching-module area vs VCs per port (Sec. 4.2: linear)\n");
    let model = AreaModel::cmos_120nm();
    let mut t = Table::new(vec![
        "VCs/port",
        "switching [mm2]",
        "vs V=8",
        "VC control [mm2]",
        "vs V=8",
    ]);
    let base = model.breakdown(&RouterParams::paper());
    for v in [4usize, 8, 16, 32] {
        let mut p = RouterParams::paper();
        p.gs_vcs = v;
        let b = model.breakdown(&p);
        t.add_row(vec![
            v.to_string(),
            format!("{:.3}", b.switching / 1e6),
            format!("{:.2}x", b.switching / base.switching),
            format!("{:.3}", b.vc_control / 1e6),
            format!("{:.2}x", b.vc_control / base.vc_control),
        ]);
    }
    print!("{t}");
    // Linearity check via increments: the split stage is a V-independent
    // offset, so the V-dependent part must grow linearly — the increment
    // from V=8→16 and V=16→32 differ only by the logarithmic steering-
    // field width.
    let sw = |v: usize| {
        let mut p = RouterParams::paper();
        p.gs_vcs = v;
        model.breakdown(&p).switching
    };
    let d1 = sw(16) - sw(8);
    let d2 = sw(32) - sw(16);
    let mut p16 = RouterParams::paper();
    p16.gs_vcs = 16;
    let vc_ratio = model.breakdown(&p16).vc_control / base.vc_control;
    println!(
        "\nswitching increments: V 8->16 adds {:.3} mm2, 16->32 adds {:.3} mm2 (ratio {:.2}, linear ≈ 2)",
        d1 / 1e6,
        d2 / 1e6,
        d2 / d1
    );
    println!("VC control doubling V: x{vc_ratio:.2} (quadratic = 4)");
    assert!(
        (d2 / d1 - 2.0).abs() < 0.1,
        "switching must be ~linear in V"
    );
    assert!((vc_ratio - 4.0).abs() < 1e-9);
    let _ = VcId(0);
}
