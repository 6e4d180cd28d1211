//! MANGO vs ÆTHEREAL-style TDM: the architectural comparison of Sec. 6,
//! run as an experiment.
//!
//! Both networks reserve a corner-to-corner guaranteed connection sized to
//! ~1/8 of link bandwidth, and we compare what each architecture delivers:
//! effective payload bandwidth (TDM pays per-packet header overhead;
//! MANGO GS streams are header-less) and worst-case latency (TDM couples
//! latency to the slot frame; MANGO's wait is bounded by the fair-share
//! round).
//!
//! Run with: `cargo run --release -p mango --example tdm_comparison`

use mango::baseline::{AetherealReference, TdmConfig, TdmNetwork};
use mango::core::RouterId;
use mango::hw::{AreaModel, Corner, RouterParams, TimingModel};
use mango::net::{EmitWindow, Grid, NocSim, TemporalSpec};
use mango::sim::{SimDuration, SimTime};

fn main() {
    let src = RouterId::new(0, 0);
    let dst = RouterId::new(3, 3);

    // --- MANGO: GS connection at its fair-share floor. ---
    let mut sim = NocSim::paper_mesh(4, 4, 5);
    let conn = sim.open_connection(src, dst).expect("VCs available");
    sim.wait_connections_settled()
        .expect("programming completes");
    sim.run_for(SimDuration::from_us(5));
    sim.begin_measurement();
    let flow = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ps(10_070)), // ≈ the 1/8 floor
        "mango-gs",
        EmitWindow::default(),
    );
    sim.run_for(SimDuration::from_us(200));
    let mango_bw = sim.flow_throughput_m(flow);
    let mango_worst = sim.flow(flow).latency.max().unwrap();

    // --- TDM: 1 slot of 8 on the same path. ---
    let mut tdm = TdmNetwork::new(Grid::new(4, 4), TdmConfig::aethereal());
    let gt = tdm.open_gt(src, dst, 1).expect("slots available");
    let tdm_raw = tdm.gt_raw_bandwidth_fps(gt) / 1e6;
    let tdm_payload = tdm.gt_payload_bandwidth_fps(gt) / 1e6;
    let tdm_worst = tdm.gt_worst_latency(gt);
    // Sample actual delivery latencies across a frame of arrival phases.
    let mut tdm_lat_sum = 0.0;
    let samples = 64;
    for i in 0..samples {
        let ready = SimTime::from_ps(i * 257); // spread over the frame
        let delivered = tdm.gt_delivery(gt, ready);
        tdm_lat_sum += delivered.since(ready).as_ns_f64();
    }
    let tdm_mean = tdm_lat_sum / samples as f64;

    // --- Hardware numbers. ---
    let area = AreaModel::cmos_120nm().breakdown(&RouterParams::paper());
    let timing = TimingModel::cmos_120nm();

    println!("MANGO vs AEthereal-style TDM — guaranteed service on a 6-hop path\n");
    println!("{:<36} {:>14} {:>14}", "", "MANGO", "TDM (8 slots)");
    println!("{}", "-".repeat(66));
    println!(
        "{:<36} {:>14.1} {:>14.1}",
        "reserved bandwidth [Mflit/s]",
        sim.link_capacity_m() / 8.0,
        tdm_raw
    );
    println!(
        "{:<36} {:>14.1} {:>14.1}",
        "payload bandwidth [Mflit/s]", mango_bw, tdm_payload
    );
    println!(
        "{:<36} {:>14.1} {:>14.1}",
        "mean latency [ns]",
        sim.flow(flow).latency.mean().unwrap().as_ns_f64(),
        tdm_mean
    );
    println!(
        "{:<36} {:>14.1} {:>14.1}",
        "worst observed/bound latency [ns]",
        mango_worst.as_ns_f64(),
        tdm_worst.as_ns_f64()
    );
    println!(
        "{:<36} {:>14} {:>14}",
        "independent buffering per connection", "yes", "no"
    );
    println!(
        "{:<36} {:>14} {:>14}",
        "end-to-end flow control", "inherent", "credits"
    );
    println!(
        "{:<36} {:>14} {:>14}",
        "connection routing state", "in-router", "in-header"
    );
    println!(
        "{:<36} {:>14.3} {:>14.3}",
        "router area [mm2]",
        area.total_mm2(),
        AetherealReference::AREA_MM2
    );
    println!(
        "{:<36} {:>14.0} {:>14.0}",
        "port speed [MHz, worst-case]",
        timing.port_speed_mhz(Corner::WorstCase),
        AetherealReference::PORT_SPEED_MHZ
    );

    // The headline deltas the paper claims.
    assert!(
        mango_bw > tdm_payload,
        "header-less GS streams beat TDM payload bandwidth at equal reservation"
    );
    println!(
        "\nMANGO payload advantage at equal reservation: {:+.1}%",
        (mango_bw / tdm_payload - 1.0) * 100.0
    );
}
