//! Reproduces the **Sec. 6 comparison with ÆTHEREAL**: area, port speed,
//! connection count and the architectural deltas (independent buffering,
//! end-to-end flow control, header overhead), with the bandwidth/latency
//! consequences measured on both models.
//!
//! Run with: `cargo run --release -p mango_bench --bin repro_aethereal`

use mango::baseline::{AetherealReference, TdmConfig, TdmNetwork};
use mango::core::RouterId;
use mango::hw::area::{AreaModel, RouterParams};
use mango::hw::{Corner, Table, TimingModel};
use mango::net::Grid;
use mango::sim::{SimDuration, SimTime};
use mango_bench::{funnel_sim, measure_gs};

fn main() {
    mango_bench::reject_args();
    let area = AreaModel::cmos_120nm().breakdown(&RouterParams::paper());
    let timing = TimingModel::cmos_120nm();
    let params = RouterParams::paper();

    println!("MANGO vs AEthereal (Sec. 6)\n");
    let mut t = Table::new(vec!["property", "MANGO (model)", "AEthereal (published)"]);
    t.add_row(vec![
        "process".into(),
        "0.12 um std-cell".to_string(),
        "0.13 um + custom FIFOs".into(),
    ]);
    t.add_row(vec![
        "port speed [MHz]".into(),
        format!(
            "{:.0} (wc) / {:.0} (typ)",
            timing.port_speed_mhz(Corner::WorstCase),
            timing.port_speed_mhz(Corner::Typical)
        ),
        format!("{:.0}", AetherealReference::PORT_SPEED_MHZ),
    ]);
    t.add_row(vec![
        "router area [mm2]".into(),
        format!("{:.3} (pre-layout)", area.total_mm2()),
        format!("{:.3} (laid out)", AetherealReference::AREA_MM2),
    ]);
    t.add_row(vec![
        "connections".into(),
        format!("{} (independently buffered)", params.total_gs_buffers()),
        format!("{} (shared buffers)", AetherealReference::CONNECTIONS),
    ]);
    t.add_row(vec![
        "end-to-end flow control".into(),
        "inherent (unlock chain)".to_string(),
        "required (credits)".into(),
    ]);
    t.add_row(vec![
        "routing state".into(),
        "in-router tables".to_string(),
        "in-packet headers".into(),
    ]);
    print!("{t}");

    // Measured consequence 1: payload bandwidth at equal 1/8 reservation.
    let mut tdm = TdmNetwork::new(Grid::new(4, 1), TdmConfig::aethereal());
    let gt = tdm
        .open_gt(RouterId::new(0, 0), RouterId::new(2, 0), 1)
        .expect("slots free");
    let tdm_raw = tdm.gt_raw_bandwidth_fps(gt) / 1e6;
    let tdm_payload = tdm.gt_payload_bandwidth_fps(gt) / 1e6;

    // Throughput under saturation (pins the connection to its floor)...
    let (mut sim, tagged) = funnel_sim(6, 13);
    let mango = measure_gs(&mut sim, tagged, SimDuration::from_ns(6), 10, 150);
    // ...and latency at a stable sub-floor rate (so the number reflects
    // the network, not source backlog).
    let (mut sim_lat, tagged_lat) = funnel_sim(6, 14);
    let mango_lat = measure_gs(&mut sim_lat, tagged_lat, SimDuration::from_ns(11), 10, 150);

    println!("\nGuaranteed bandwidth at 1/8-link reservation (2-hop path)\n");
    let mut t = Table::new(vec!["", "raw [Mflit/s]", "payload [Mflit/s]"]);
    t.add_row(vec![
        "MANGO GS (header-less)".to_string(),
        format!("{:.1}", mango.throughput_m),
        format!("{:.1}", mango.throughput_m),
    ]);
    t.add_row(vec![
        "TDM GT (1 hdr / 3 payload)".to_string(),
        format!("{tdm_raw:.1}"),
        format!("{tdm_payload:.1}"),
    ]);
    print!("{t}");
    println!(
        "\nMANGO payload advantage: {:+.1}%",
        (mango.throughput_m / tdm_payload - 1.0) * 100.0
    );

    // Measured consequence 2: latency coupling (MANGO at a stable
    // sub-floor rate with all other VCs saturated; TDM sampled across
    // arrival phases).
    let tdm_worst = tdm.gt_worst_latency(gt).as_ns_f64();
    let mut sum = 0.0;
    for i in 0..64u64 {
        let ready = SimTime::from_ps(i * 251);
        sum += tdm.gt_delivery(gt, ready).since(ready).as_ns_f64();
    }
    let tdm_mean = sum / 64.0;
    println!("\nlatency on the same path: MANGO mean {:.1} / max {:.1} ns; TDM mean {:.1} / worst {:.1} ns",
        mango_lat.mean_ns, mango_lat.max_ns, tdm_mean, tdm_worst);
    assert!(mango.throughput_m > tdm_payload);
    assert!(
        mango_lat.max_ns < 80.0,
        "MANGO sub-floor latency must stay bounded, got {:.1}",
        mango_lat.max_ns
    );
}
