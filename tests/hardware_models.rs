//! Integration tests across the hardware cost models: the area, timing
//! and power models must stay consistent with each other, with the
//! paper's numbers, and with the simulator they parameterize.

use mango::core::{RouterConfig, RouterId};
use mango::hw::area::{AreaModel, RouterParams, Table1};
use mango::hw::power::PowerModel;
use mango::hw::{Corner, TimingModel};
use mango::net::{EmitWindow, Grid, NaConfig, Network, NocSim, TemporalSpec};
use mango::sim::SimDuration;

#[test]
fn paper_numbers_reproduce_within_tolerance() {
    let area = AreaModel::cmos_120nm().breakdown(&RouterParams::paper());
    assert!((area.total_mm2() - Table1::PAPER_TOTAL).abs() / Table1::PAPER_TOTAL < 0.02);

    let timing = TimingModel::cmos_120nm();
    assert!((timing.port_speed_mhz(Corner::Typical) - 795.0).abs() < 1.0);
    assert!((timing.port_speed_mhz(Corner::WorstCase) - 515.0).abs() < 1.0);
}

#[test]
fn router_config_defaults_agree_with_hw_models() {
    let cfg = RouterConfig::paper();
    let timing = TimingModel::cmos_120nm();
    assert_eq!(
        cfg.timing,
        timing.router_timing(Corner::Typical),
        "RouterConfig::paper must carry the calibrated typical timing"
    );
    assert_eq!(
        RouterConfig::paper_worst_case().timing,
        timing.router_timing(Corner::WorstCase)
    );
    // Area-model parameters and simulator parameters are the same struct.
    assert_eq!(cfg.params, RouterParams::paper());
}

/// The simulated worst-case/typical throughput ratio equals the corner
/// derating — the simulator inherits the timing model exactly.
#[test]
fn corner_ratio_flows_through_simulation() {
    let measure = |cfg: RouterConfig| -> f64 {
        let net = Network::new(Grid::new(2, 1), cfg, NaConfig::paper());
        let mut sim = NocSim::new(net, 3);
        let a = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(1, 0))
            .unwrap();
        let b = sim
            .open_connection(RouterId::new(0, 0), RouterId::new(1, 0))
            .unwrap();
        sim.wait_connections_settled().unwrap();
        sim.run_for(SimDuration::from_us(2));
        sim.begin_measurement();
        let fa = sim.add_gs_source(
            a,
            TemporalSpec::cbr(SimDuration::from_ns(1)),
            "a",
            EmitWindow::default(),
        );
        let fb = sim.add_gs_source(
            b,
            TemporalSpec::cbr(SimDuration::from_ns(1)),
            "b",
            EmitWindow::default(),
        );
        sim.run_for(SimDuration::from_us(50));
        sim.flow_throughput_m(fa) + sim.flow_throughput_m(fb)
    };
    let typ = measure(RouterConfig::paper());
    let wc = measure(RouterConfig::paper_worst_case());
    let ratio = typ / wc;
    assert!(
        (ratio - Corner::WorstCase.derating()).abs() < 0.02,
        "simulated corner ratio {ratio:.4} vs derating {:.4}",
        Corner::WorstCase.derating()
    );
}

#[test]
fn dynamic_power_scales_with_simulated_traffic() {
    let power = PowerModel::cmos_120nm();
    let params = RouterParams::paper();
    // A router forwarding at full link rate on one port.
    let full_rate = 794.9e6;
    let p_full = power.dynamic_power_mw(&params, full_rate);
    let p_half = power.dynamic_power_mw(&params, full_rate / 2.0);
    assert!((p_full / p_half - 2.0).abs() < 1e-9);
    // Sanity: a few mW at full tilt for a 37-bit link — 0.12 µm-plausible.
    assert!(p_full > 0.5 && p_full < 10.0, "{p_full} mW");
}

#[test]
fn area_model_covers_wide_design_space_without_panics() {
    let model = AreaModel::cmos_120nm();
    for ports in [2usize, 3, 5, 8] {
        for vcs in [2usize, 4, 8, 16, 64] {
            for bits in [8usize, 32, 128] {
                for depth in [1usize, 2, 16] {
                    let p = RouterParams {
                        ports,
                        gs_vcs: vcs,
                        flit_data_bits: bits,
                        buffer_depth: depth,
                        local_gs_ifaces: 4.min(vcs),
                    };
                    let b = model.breakdown(&p);
                    assert!(b.total_um2() > 0.0);
                    assert!(b.total_um2().is_finite());
                }
            }
        }
    }
}

#[test]
fn timing_corners_order_every_stage() {
    let m = TimingModel::cmos_120nm();
    let typ = m.router_timing(Corner::Typical);
    let wc = m.router_timing(Corner::WorstCase);
    // Every derated delay is strictly slower, and the ratio is uniform.
    for (t, w) in [
        (typ.link_cycle, wc.link_cycle),
        (typ.hop_forward, wc.hop_forward),
        (typ.buffer_advance, wc.buffer_advance),
        (typ.unlock_path, wc.unlock_path),
        (typ.arb_decision, wc.arb_decision),
        (typ.be_route, wc.be_route),
        (typ.be_arb, wc.be_arb),
        (typ.credit_return, wc.credit_return),
    ] {
        let ratio = w.as_ps() as f64 / t.as_ps() as f64;
        assert!(
            (ratio - Corner::WorstCase.derating()).abs() < 0.01,
            "non-uniform derating: {t} -> {w}"
        );
    }
}
