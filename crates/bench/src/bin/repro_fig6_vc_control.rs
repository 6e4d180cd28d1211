//! Reproduces the claims of **Fig. 6 / Sec. 4.3** (share-based VC
//! control): a single VC cannot utilize the full link bandwidth (its
//! share cycle exceeds the link cycle), but the unlock handshakes of
//! several VCs overlap, so a handful of VCs saturate the link; and the
//! depth-1 buffers suffice for the fair-share floor.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_fig6_vc_control`

use mango::hw::{RouterTiming, Table};
use mango::sim::SimDuration;
use mango_bench::{funnel_sim, measure_gs};

fn main() {
    mango_bench::reject_args();
    let timing = RouterTiming::paper_typical();
    let link_m = timing.link_cycle.as_rate_mhz();
    println!("Share-based VC control (Fig. 6)\n");
    println!(
        "link cycle {} -> capacity {:.1} Mflit/s; VC share loop {} -> single-VC cap {:.1} Mflit/s",
        timing.link_cycle,
        link_m,
        timing.vc_loop(),
        timing.vc_loop().as_rate_mhz(),
    );
    println!(
        "fair-share condition: VC loop {} <= 8 x link cycle {} : {}\n",
        timing.vc_loop(),
        timing.link_cycle * 8,
        timing.supports_fair_share(8),
    );

    // Sweep the number of active VCs on one link and measure aggregate
    // delivered bandwidth: 1 VC is pinned below link capacity, several
    // VCs overlap their unlock handshakes and saturate the link.
    let mut t = Table::new(vec![
        "active VCs",
        "aggregate [Mflit/s]",
        "link share [%]",
        "per-VC [Mflit/s]",
    ]);
    let mut single_vc = 0.0;
    let mut full = 0.0;
    for n in [1usize, 2, 3, 5, 7] {
        let (mut sim, tagged) = funnel_sim(n - 1, 9);
        // Tagged offered at 500 Mf/s (beyond any share it can get).
        let run = measure_gs(&mut sim, tagged, SimDuration::from_ns(2), 5, 100);
        // Aggregate = tagged + contenders (each measured via flow stats).
        let mut aggregate = run.throughput_m;
        for f in 0..(n - 1) as u32 {
            aggregate += sim.flow_throughput_m(f);
        }
        if n == 1 {
            single_vc = aggregate;
        }
        if n == 7 {
            full = aggregate;
        }
        t.add_row(vec![
            format!("{n}"),
            format!("{aggregate:.1}"),
            format!("{:.1}", aggregate / link_m * 100.0),
            format!("{:.1}", aggregate / n as f64),
        ]);
    }
    print!("{t}");
    println!();
    println!(
        "single VC reaches {:.1}% of link bandwidth (paper: \"A single VC cannot utilize the full link bandwidth\")",
        single_vc / link_m * 100.0
    );
    println!(
        "7 VCs reach {:.1}% (overlapping unlock handshakes exploit the full bandwidth)",
        full / link_m * 100.0
    );
    assert!(single_vc < 0.75 * link_m, "single VC must not saturate");
    assert!(full > 0.95 * link_m, "7 VCs must saturate");
}
