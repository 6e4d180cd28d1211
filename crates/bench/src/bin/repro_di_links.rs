//! The paper's stated future work (Sec. 6): delay-insensitive 1-of-4
//! signaling on the inter-router links, quantified against the
//! implemented bundled-data links — wires, transitions, energy, timing
//! margins, and the system-level effect of removing the matched-delay
//! margin from long links.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_di_links`

use mango::core::{RouterConfig, RouterId};
use mango::hw::link::{decode_1of4, encode_1of4, LinkEncoding};
use mango::hw::power::PowerModel;
use mango::hw::Table;
use mango::net::{EmitWindow, Grid, NaConfig, Network, NocSim, Pattern};
use mango::sim::SimDuration;

fn main() {
    mango_bench::reject_args();
    let power = PowerModel::cmos_120nm();
    let w = 34; // the post-split flit the links carry

    // Functional check: the codec is lossless.
    for word in [0u32, 0xDEAD_BEEF, 0xFFFF_FFFF] {
        assert_eq!(decode_1of4(&encode_1of4(word, 32)), word);
    }

    println!("Link signaling: bundled data (implemented) vs 1-of-4 DI (future work)\n");
    let mut t = Table::new(vec!["property", "bundled data", "1-of-4 DI"]);
    let b = LinkEncoding::BundledData;
    let d = LinkEncoding::OneOfFour;
    t.add_row(vec![
        "wires per link".to_string(),
        b.wires(w).to_string(),
        d.wires(w).to_string(),
    ]);
    t.add_row(vec![
        "transitions per flit (random data)".to_string(),
        format!("{:.1}", b.transitions_per_flit(w)),
        format!("{:.1}", d.transitions_per_flit(w)),
    ]);
    t.add_row(vec![
        "link energy per flit [pJ]".to_string(),
        format!("{:.2}", b.energy_per_flit_pj(w, &power)),
        format!("{:.2}", d.energy_per_flit_pj(w, &power)),
    ]);
    t.add_row(vec![
        "timing assumption on the wire".to_string(),
        format!("matched delay (x{:.2} margin)", b.timing_margin()),
        "none (completion detected)".to_string(),
    ]);
    t.add_row(vec![
        "delay-insensitive".to_string(),
        "no".to_string(),
        "yes".to_string(),
    ]);
    print!("{t}");

    // System-level effect: the bundled-data margin is dead latency on
    // every link; removing it (DI) shortens a 6-hop connection's latency
    // by 6 × margin × wire delay. Model the margin as extra link delay.
    let wire_ps = 400.0;
    let margin_ps = (b.timing_margin() - 1.0) * wire_ps;
    let measure = |extra_ps: u64| -> f64 {
        let mut grid = Grid::new(4, 4);
        grid.set_default_link_extra(SimDuration::from_ps(extra_ps));
        let net = Network::new(grid, RouterConfig::paper(), NaConfig::paper());
        let mut sim = NocSim::new(net, 19);
        let conn = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(3, 3))
            .expect("fits");
        sim.wait_connections_settled().expect("settles");
        sim.begin_measurement();
        let flow = sim.add_gs_source(
            conn,
            Pattern::cbr(SimDuration::from_ns(50)),
            "di",
            EmitWindow {
                limit: Some(500),
                ..Default::default()
            },
        );
        sim.run_to_quiescence();
        sim.flow(flow).latency.mean().unwrap().as_ns_f64()
    };
    let with_margin = measure(margin_ps.round() as u64);
    let di = measure(0);
    println!(
        "\n6-hop GS latency: {with_margin:.2} ns with bundled-data margins vs {di:.2} ns DI \
         ({:+.2} ns = 6 links x {margin_ps:.0} ps margin)",
        di - with_margin
    );
    assert!((with_margin - di - 6.0 * margin_ps / 1000.0).abs() < 0.01);
    println!(
        "\ntrade: 1-of-4 doubles link wires ({} -> {}) and raises per-flit link energy \
         {:.2} -> {:.2} pJ, buying timing closure on long links without margins — \
         the modularity argument of Sec. 6.",
        b.wires(w),
        d.wires(w),
        b.energy_per_flit_pj(w, &power),
        d.energy_per_flit_pj(w, &power)
    );
}
