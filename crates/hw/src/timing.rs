//! 4-phase bundled-data timing model, calibrated to the paper's port speeds.
//!
//! The paper reports a port speed of **515 MHz** under worst-case timing
//! parameters (1.08 V / 125 °C) and **795 MHz** under typical conditions for
//! its 0.12 µm standard-cell implementation. Port speed is the reciprocal of
//! the *link cycle time* — the period at which the link-access stage of one
//! output port can emit consecutive flits. We model that cycle as the sum of
//! the bundled-data stage delays it traverses (arbiter decision, merge,
//! steering append, driver + wire, and the 4-phase return-to-zero overhead),
//! with a multiplicative corner derating as in static timing analysis.
//!
//! The same per-stage delays parameterize the discrete-event simulation in
//! `mango-core`, so simulated throughput in flits/s corresponds directly to
//! the MHz figures the paper reports.

use mango_sim::SimDuration;

/// Process/voltage/temperature corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Typical conditions (paper: 795 MHz port speed).
    Typical,
    /// Worst-case timing: 1.08 V, 125 °C (paper: 515 MHz port speed).
    WorstCase,
}

impl Corner {
    /// The derating factor applied to every typical-corner stage delay.
    ///
    /// Calibrated as the paper's ratio 795 MHz / 515 MHz ≈ 1.5437.
    pub fn derating(self) -> f64 {
        match self {
            Corner::Typical => 1.0,
            Corner::WorstCase => 795.0 / 515.0,
        }
    }

    /// Human-readable corner name.
    pub fn name(self) -> &'static str {
        match self {
            Corner::Typical => "typical",
            Corner::WorstCase => "worst-case (1.08V/125C)",
        }
    }
}

/// Typical-corner stage delays for the clockless router, in picoseconds.
///
/// Stages composing the **link cycle** (back-to-back flits on one link):
/// arbiter decision, merge, steering append, driver + wire, and the 4-phase
/// handshake return. Stages composing the **forward path** (one flit's
/// latency through a hop): input amble, split, switch, unsharebox latch,
/// plus the link wire. The **unlock path** closes the share-based VC-control
/// loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDelays {
    /// Link arbiter decision (mutual exclusion + grant).
    pub arb_decision: u64,
    /// Merge multiplexer onto the shared link.
    pub merge: u64,
    /// Steering-bit append readout.
    pub steer_append: u64,
    /// Link driver + wire propagation to the neighbor router.
    pub link_wire: u64,
    /// Return-to-zero phase of the 4-phase handshake at the link stage.
    pub handshake_return: u64,
    /// Input-port amble (completion detection + fan-out).
    pub input_amble: u64,
    /// Split-stage demultiplexer.
    pub split: u64,
    /// 4×4 switch-plane traversal.
    pub switch: u64,
    /// Unsharebox latch capture.
    pub unshare_latch: u64,
    /// VC buffer latch-to-latch advance (unsharebox → buffer).
    pub buffer_advance: u64,
    /// Unlock-wire multiplexer in the VC control module.
    pub unlock_mux: u64,
    /// Unlock wire back across the link.
    pub unlock_wire: u64,
    /// Sharebox unlock reaction.
    pub sharebox_unlock: u64,
    /// BE route decode + header rotate.
    pub be_route: u64,
    /// BE output-port fair arbitration.
    pub be_arb: u64,
    /// BE credit-return wire + counter update.
    pub credit_return: u64,
}

impl StageDelays {
    /// Typical-corner delays calibrated for the paper's 0.12 µm library.
    ///
    /// The link-cycle stages sum to 1258 ps ⇒ 794.9 MHz typical and, with
    /// the worst-case derating, 1942 ps ⇒ 514.9 MHz — the paper's numbers.
    pub fn cmos_120nm_typical() -> Self {
        StageDelays {
            arb_decision: 250,
            merge: 200,
            steer_append: 150,
            link_wire: 400,
            handshake_return: 258,
            input_amble: 100,
            split: 120,
            switch: 150,
            unshare_latch: 180,
            buffer_advance: 180,
            unlock_mux: 120,
            unlock_wire: 400,
            sharebox_unlock: 100,
            be_route: 300,
            be_arb: 250,
            credit_return: 520,
        }
    }
}

/// The timing model: typical stage delays plus corner derating.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    stages: StageDelays,
}

impl TimingModel {
    /// The calibrated 0.12 µm model.
    pub fn cmos_120nm() -> Self {
        TimingModel {
            stages: StageDelays::cmos_120nm_typical(),
        }
    }

    /// The typical-corner stage delays.
    pub fn stages(&self) -> &StageDelays {
        &self.stages
    }

    /// The link cycle time at `corner`: the minimum spacing between
    /// consecutive flits emitted by one output port.
    pub fn link_cycle(&self, corner: Corner) -> SimDuration {
        let s = &self.stages;
        let typ = s.arb_decision + s.merge + s.steer_append + s.link_wire + s.handshake_return;
        SimDuration::from_ps(typ).scale(corner.derating())
    }

    /// Port speed in MHz at `corner` — the figure the paper reports.
    pub fn port_speed_mhz(&self, corner: Corner) -> f64 {
        self.link_cycle(corner).as_rate_mhz()
    }

    /// Concrete per-event delays for the discrete-event router model at
    /// `corner`.
    pub fn router_timing(&self, corner: Corner) -> RouterTiming {
        let d = corner.derating();
        let ps = |typ: u64| SimDuration::from_ps(typ).scale(d);
        let s = &self.stages;
        RouterTiming {
            link_cycle: self.link_cycle(corner),
            hop_forward: ps(s.link_wire + s.input_amble + s.split + s.switch + s.unshare_latch),
            buffer_advance: ps(s.buffer_advance),
            unlock_path: ps(s.unlock_mux + s.unlock_wire + s.sharebox_unlock),
            arb_decision: ps(s.arb_decision),
            be_route: ps(s.be_route),
            be_arb: ps(s.be_arb),
            credit_return: ps(s.credit_return),
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::cmos_120nm()
    }
}

/// Ready-to-use event delays for the discrete-event router model.
///
/// Produced by [`TimingModel::router_timing`]; consumed by
/// `mango_core::Router`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterTiming {
    /// Minimum spacing between consecutive flits on one link (1/port-speed).
    pub link_cycle: SimDuration,
    /// Latency from link-access grant to arrival in the next router's
    /// unsharebox (wire + input + split + switch + latch).
    pub hop_forward: SimDuration,
    /// Unsharebox → VC buffer latch advance.
    pub buffer_advance: SimDuration,
    /// Unlock toggle propagation: VC-control mux + wire back across the
    /// link + sharebox unlock.
    pub unlock_path: SimDuration,
    /// Arbiter decision time (idle link reacting to a new request).
    pub arb_decision: SimDuration,
    /// BE route decode + header rotation.
    pub be_route: SimDuration,
    /// BE output arbitration.
    pub be_arb: SimDuration,
    /// BE credit return to the upstream router.
    pub credit_return: SimDuration,
}

impl RouterTiming {
    /// The paper's configuration at the typical corner — the default for
    /// simulations.
    pub fn paper_typical() -> Self {
        TimingModel::cmos_120nm().router_timing(Corner::Typical)
    }

    /// The paper's configuration at the worst-case corner.
    pub fn paper_worst_case() -> Self {
        TimingModel::cmos_120nm().router_timing(Corner::WorstCase)
    }

    /// The shortest per-event delay in the model — the minimum spacing
    /// between consecutive events of one causal chain, which sizes the
    /// simulator's calendar-wheel bucket width
    /// (`mango_sim::WheelGeometry::for_mesh`).
    pub fn min_event_delay(&self) -> SimDuration {
        [
            self.link_cycle,
            self.hop_forward,
            self.buffer_advance,
            self.unlock_path,
            self.arb_decision,
            self.be_route,
            self.be_arb,
            self.credit_return,
        ]
        .into_iter()
        .min()
        .expect("delay list is non-empty")
    }

    /// The share-based VC-control loop time: grant → flit reaches the
    /// unsharebox → advances into the buffer → unlock toggles back → the
    /// sharebox can admit the next flit.
    ///
    /// A single VC's peak throughput is one flit per loop — strictly less
    /// than the link bandwidth (Sec. 4.3: "A single VC cannot utilize the
    /// full link bandwidth").
    pub fn vc_loop(&self) -> SimDuration {
        self.hop_forward + self.buffer_advance + self.unlock_path
    }

    /// The grant-to-grant spacing of a lone backlogged VC whose link adds
    /// `extra` forward delay: the arbiter's decision, then the VC loop,
    /// which closes over the link and back, so it pays the extra twice
    /// (the unlock feedback crosses the reverse direction of the same
    /// channel).
    pub fn lone_vc_spacing(&self, extra: SimDuration) -> SimDuration {
        self.arb_decision + self.vc_loop() + extra * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_port_speed_matches_paper() {
        let speed = TimingModel::cmos_120nm().port_speed_mhz(Corner::Typical);
        assert!((speed - 795.0).abs() < 1.0, "typical {speed} MHz");
    }

    #[test]
    fn worst_case_port_speed_matches_paper() {
        let speed = TimingModel::cmos_120nm().port_speed_mhz(Corner::WorstCase);
        assert!((speed - 515.0).abs() < 1.0, "worst-case {speed} MHz");
    }

    #[test]
    fn derating_is_paper_speed_ratio() {
        assert!((Corner::WorstCase.derating() - 1.5437).abs() < 1e-3);
        assert_eq!(Corner::Typical.derating(), 1.0);
    }

    #[test]
    fn link_cycle_is_stage_sum() {
        let m = TimingModel::cmos_120nm();
        let s = m.stages();
        let expected = s.arb_decision + s.merge + s.steer_append + s.link_wire + s.handshake_return;
        assert_eq!(m.link_cycle(Corner::Typical).as_ps(), expected);
        assert_eq!(expected, 1258);
    }

    #[test]
    fn worst_case_slows_every_router_delay() {
        let typ = TimingModel::cmos_120nm().router_timing(Corner::Typical);
        let wc = TimingModel::cmos_120nm().router_timing(Corner::WorstCase);
        assert!(wc.link_cycle > typ.link_cycle);
        assert!(wc.hop_forward > typ.hop_forward);
        assert!(wc.unlock_path > typ.unlock_path);
        assert!(wc.vc_loop() > typ.vc_loop());
        assert!(wc.be_route > typ.be_route);
        assert!(wc.credit_return > typ.credit_return);
    }

    #[test]
    fn single_vc_cannot_saturate_link() {
        // Sec. 4.3: the VC loop exceeds one link cycle, so a lone VC leaves
        // link bandwidth unused.
        for corner in [Corner::Typical, Corner::WorstCase] {
            let t = TimingModel::cmos_120nm().router_timing(corner);
            assert!(
                t.vc_loop() > t.link_cycle,
                "{corner:?}: loop {} vs cycle {}",
                t.vc_loop(),
                t.link_cycle
            );
        }
    }

    #[test]
    fn paper_shortcuts_match_model() {
        let m = TimingModel::cmos_120nm();
        assert_eq!(
            RouterTiming::paper_typical(),
            m.router_timing(Corner::Typical)
        );
        assert_eq!(
            RouterTiming::paper_worst_case(),
            m.router_timing(Corner::WorstCase)
        );
    }

    #[test]
    fn corner_names_are_descriptive() {
        assert_eq!(Corner::Typical.name(), "typical");
        assert!(Corner::WorstCase.name().contains("1.08V"));
    }

    #[test]
    fn custom_stage_delays_flow_through() {
        let mut stages = StageDelays::cmos_120nm_typical();
        stages.arb_decision = 1000;
        let m = TimingModel { stages };
        assert_eq!(
            m.link_cycle(Corner::Typical).as_ps(),
            1000 + 200 + 150 + 400 + 258
        );
    }
}
