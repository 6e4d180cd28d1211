//! The guarantee contract on the paper's Fig. 8 scenario: a GS
//! connection crossing a 4×4 mesh diagonally under saturating BE
//! background must never exceed its analytical worst-case latency —
//! that is the claim "service guarantees" makes, and the reason BE
//! load cannot perturb GS in Fig. 8.

use mango_core::RouterId;
use mango_net::{EmitWindow, GsFlowSpec, Phase, ScenarioSpec, TemporalSpec, TrafficSpec};
use mango_qos::driver::run_audited;
use mango_qos::{GuaranteeAudit, GuaranteeReport, PathExtras, ServiceModel};
use mango_sim::SimDuration;

/// The bound of the Fig. 8 stream: 6 hops, conforming CBR (12 ns ≥
/// 10.314 ns service interval).
fn report() -> GuaranteeReport {
    ServiceModel::paper().report(&PathExtras::uniform(6), SimDuration::from_ns(12))
}

/// The Fig. 8 setup: one GS stream (0,0)→(3,3) at 12 ns per flit, BE
/// background from every node at `be_gap` mean.
fn fig8(seed: u64, be_gap_ns: u64) -> ScenarioSpec {
    ScenarioSpec::mesh(4, 4, seed)
        .warmup(SimDuration::from_us(5))
        .measure_for(SimDuration::from_us(40))
        .gs_flow(GsFlowSpec {
            src: RouterId::new(0, 0),
            dst: RouterId::new(3, 3),
            pattern: TemporalSpec::cbr(SimDuration::from_ns(12)),
            name: "gs".into(),
            window: EmitWindow::default(),
            phase: Phase::Measure,
        })
        .traffic(
            TrafficSpec::uniform_poisson(SimDuration::from_ns(be_gap_ns))
                .payload(4)
                .named("be-"),
        )
}

#[test]
fn observed_max_gs_latency_stays_under_analytical_bound() {
    let report = report();
    assert!(report.conforming);

    // Sweep BE load from light to saturating: the guarantee must hold
    // at every level and for several seeds.
    for seed in [1, 7, 55] {
        for be_gap_ns in [1000, 300, 100] {
            let mut audit = GuaranteeAudit::default();
            let m = run_audited(&fig8(seed, be_gap_ns), &[report.worst_latency], &mut audit);
            let gs = m.gs(0);
            assert!(gs.delivered > 0, "GS stream must flow");
            assert_eq!(gs.sequence_errors, 0);
            let witness = &audit.entries()[0];
            assert_eq!(witness.dirs.len(), 6, "the audit's witness is the XY path");
            assert!(
                audit.holds(),
                "seed {seed}, BE gap {be_gap_ns} ns: {witness}"
            );
        }
    }
}

#[test]
fn bound_is_not_vacuous() {
    // The conservative bound should still be within an order of
    // magnitude of reality: under saturating BE the observed max must
    // land above a tenth of the bound's scale — otherwise the model is
    // so loose it bounds nothing interesting.
    let bound_ns = report().worst_latency.unwrap().as_ns_f64();
    let m = fig8(1, 100).run();
    let observed = m.gs(0).max_ns.unwrap();
    assert!(
        observed > bound_ns / 20.0,
        "observed {observed:.1} ns vs bound {bound_ns:.1} ns: bound uselessly loose"
    );
}
