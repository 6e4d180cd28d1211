//! Integration tests comparing MANGO against the ÆTHEREAL-style TDM
//! network of Sec. 6. The measured comparisons with the Fig. 3 generic
//! router and with TDM's payload bandwidth are claims of `repro_paper`
//! (`mango_bench::paper`).

use mango::baseline::{TdmConfig, TdmNetwork};
use mango::core::RouterId;
use mango::net::{EmitWindow, Grid, NocSim, TemporalSpec};
use mango::sim::SimDuration;

/// Seven connections from two neighbouring sources of a 2×4 mesh fit the
/// VCs of their shared links: the allocator has room for a full funnel.
#[test]
fn cross_traffic_allocation_fits() {
    let mut sim = NocSim::paper_mesh(2, 4, 7);
    let mut opened = 0;
    assert!(sim
        .open_connection(RouterId::new(0, 0), RouterId::new(1, 0))
        .is_ok());
    opened += 1;
    for dst in [
        RouterId::new(1, 1),
        RouterId::new(1, 2),
        RouterId::new(1, 3),
    ] {
        assert!(sim.open_connection(RouterId::new(0, 0), dst).is_ok());
        assert!(sim.open_connection(RouterId::new(0, 1), dst).is_ok());
        opened += 2;
    }
    assert_eq!(opened, 7);
    sim.wait_connections_settled().unwrap();
}

/// Latency coupling: TDM single-slot worst-case latency includes a frame
/// wait; MANGO's bounded arbitration wait on the same path is smaller.
#[test]
fn tdm_couples_latency_to_frame_mango_does_not() {
    let mut tdm = TdmNetwork::new(Grid::new(4, 1), TdmConfig::aethereal());
    let gt = tdm
        .open_gt(RouterId::new(0, 0), RouterId::new(3, 0), 1)
        .unwrap();
    let tdm_worst = tdm.gt_worst_latency(gt).as_ns_f64();

    // MANGO unloaded on the same 3-hop path. Sparse CBR so no flit ever
    // queues at the source: both sides then measure a lone flit's
    // network latency, which is the paper's comparison point (TDM couples
    // it to the slot frame; MANGO does not).
    let mut sim = NocSim::paper_mesh(4, 1, 37);
    let conn = sim
        .open_connection(RouterId::new(0, 0), RouterId::new(3, 0))
        .unwrap();
    sim.wait_connections_settled().unwrap();
    sim.begin_measurement();
    let flow = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ns(100)),
        "lat",
        EmitWindow {
            limit: Some(2_000),
            ..Default::default()
        },
    );
    sim.run_to_quiescence();
    let mango_worst = sim.flow(flow).latency.max().unwrap().as_ns_f64();
    assert!(
        mango_worst < tdm_worst,
        "MANGO worst {mango_worst:.1} ns must undercut TDM frame-coupled {tdm_worst:.1} ns"
    );
}
