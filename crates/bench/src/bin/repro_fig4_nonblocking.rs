//! Reproduces the **Fig. 3 vs Fig. 4** contrast: the generic
//! output-buffered VC router congests under cross-traffic (shared,
//! arbitrated switch — "unsuitable for providing service guarantees"),
//! while the MANGO GS router's non-blocking switching keeps a tagged
//! connection's latency flat under the same pressure.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_fig4_nonblocking`

use mango::baseline::{run_generic_congestion, GenericConfig};
use mango::hw::Table;
use mango::sim::SimDuration;
use mango_bench::{funnel_sim, measure_gs};

fn main() {
    mango_bench::reject_args();
    println!("Tagged flow latency vs cross-traffic: generic router (Fig. 3) vs MANGO (Fig. 4)\n");
    let mut t = Table::new(vec![
        "cross-traffic",
        "generic mean [ns]",
        "generic max [ns]",
        "MANGO mean [ns]",
        "MANGO max [ns]",
    ]);

    // Load points: generic router background load fraction vs MANGO
    // number of saturated contender VCs (0..6 of 6).
    let points = [(0.0, 0usize), (0.3, 2), (0.6, 4), (0.8, 6)];
    let mut rows = Vec::new();
    for (load, contenders) in points {
        let generic = run_generic_congestion(
            GenericConfig {
                cycle: SimDuration::from_ps(1258),
                tagged_period: SimDuration::from_ns(11),
                background_load: load,
                seed: 3,
            },
            SimDuration::from_us(150),
        );
        // Tagged at 91 Mflit/s — just under its 1/8 floor, so the queue
        // is stable and latency reflects arbitration, not source backlog.
        let (mut sim, tagged) = funnel_sim(contenders, 3);
        let mango = measure_gs(&mut sim, tagged, SimDuration::from_ns(11), 10, 150);
        let g_mean = generic.mean().unwrap().as_ns_f64();
        let g_max = generic.max().unwrap().as_ns_f64();
        t.add_row(vec![
            format!("{:.0}% / {} VCs", load * 100.0, contenders),
            format!("{g_mean:.2}"),
            format!("{g_max:.2}"),
            format!("{:.2}", mango.mean_ns),
            format!("{:.2}", mango.max_ns),
        ]);
        rows.push((g_mean, g_max, mango.mean_ns, mango.max_ns));
    }
    print!("{t}");

    let (g0, _, m0, _) = rows[0];
    let (g3, _, m3, m3max) = rows[rows.len() - 1];
    println!(
        "\ngeneric router mean latency grew {:.1}x from idle to heavy load",
        g3 / g0
    );
    println!(
        "MANGO tagged-connection mean latency grew {:.2}x (bounded by the fair-share round)",
        m3 / m0
    );
    // The analytic per-hop bound: fair-share round + forward path.
    let per_hop_bound_ns = 8.0 * 1.258 + 0.95 + 0.18 + 0.62;
    let bound = 3.0 * per_hop_bound_ns + 20.0; // 2 hops + injection, generous
    println!("MANGO worst observed {m3max:.1} ns vs analytic bound {bound:.1} ns");
    assert!(g3 > 3.0 * g0, "generic must congest");
    assert!(m3 < 2.0 * m0, "MANGO must stay bounded");
    assert!(m3max <= bound, "MANGO hard bound violated");
}
