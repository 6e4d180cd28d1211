//! Router configuration.

use crate::arb::ArbiterKind;
use mango_hw::area::RouterParams;
use mango_hw::timing::RouterTiming;

/// VCs a network port can have: the 5-bit steering format addresses 8
/// (`Steer::pack`). [`RouterConfig::validate`] caps `gs_vcs` here.
pub const PORT_VCS_MAX: usize = 8;

/// Flits a BE input latch holds per direction (unsharebox + staging). A
/// BE credit stands for one free slot in the receiving latch, so this is
/// also the initial credit count of every BE link and of every NA's BE
/// injection port.
pub const BE_INPUT_DEPTH: usize = 2;

/// Flits a BE output stage holds per network port.
pub const BE_OUTPUT_DEPTH: usize = 2;

/// NA-visible delivery slots per local GS interface: how many delivered
/// flits the NA can hold before the router's local buffer backs up
/// (end-to-end flow control).
pub const NA_RX_DEPTH: usize = 1;

/// Configuration of one MANGO router.
///
/// The defaults ([`RouterConfig::paper`]) describe the implementation of
/// Sec. 6: a 5×5-port router with 8 VCs per network port (7 GS + 1 BE),
/// 4 local GS interfaces + 1 local BE interface, 32-bit flits, depth-1
/// output buffers, fair-share link arbitration, and the calibrated 0.12 µm
/// typical-corner timing.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Architecture parameters (shared with the area model).
    pub params: RouterParams,
    /// Stage delays driving the event model.
    pub timing: RouterTiming,
    /// Link arbitration policy — the pluggable GS scheme (Sec. 4.4).
    pub arbiter: ArbiterKind,
}

impl RouterConfig {
    /// The paper's router at the typical timing corner.
    pub fn paper() -> Self {
        RouterConfig {
            params: RouterParams::paper(),
            timing: RouterTiming::paper_typical(),
            arbiter: ArbiterKind::FairShare,
        }
    }

    /// The paper's router at the worst-case corner (1.08 V / 125 °C).
    pub fn paper_worst_case() -> Self {
        RouterConfig {
            timing: RouterTiming::paper_worst_case(),
            ..Self::paper()
        }
    }

    /// GS VCs per network port (paper: 7 — the 8th channel is BE).
    pub fn gs_vcs(&self) -> usize {
        self.params.gs_vcs_per_port()
    }

    /// Local GS interfaces (paper: 4).
    pub fn local_gs_ifaces(&self) -> usize {
        self.params.local_gs_ifaces
    }

    /// GS output-buffer depth in flits (excluding the unsharebox latch).
    pub fn buffer_depth(&self) -> usize {
        self.params.buffer_depth
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        if self.params.ports != 5 {
            return Err(format!(
                "the router model implements the paper's 5-port mesh router, got {} ports",
                self.params.ports
            ));
        }
        if self.params.local_gs_ifaces > 4 {
            return Err("at most 4 local GS interfaces fit the 5-bit steering format".into());
        }
        if self.gs_vcs() > PORT_VCS_MAX {
            return Err(format!(
                "at most {PORT_VCS_MAX} VCs per port fit the 5-bit steering format"
            ));
        }
        if self.buffer_depth() >= 256 {
            return Err("GS buffer depths are limited to 255 (u8 cursors)".into());
        }
        Ok(())
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        let cfg = RouterConfig::paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.gs_vcs(), 7);
        assert_eq!(cfg.local_gs_ifaces(), 4);
        assert_eq!(cfg.buffer_depth(), 1);
        assert_eq!(cfg.arbiter, ArbiterKind::FairShare);
    }

    #[test]
    fn worst_case_slows_timing() {
        let typ = RouterConfig::paper();
        let wc = RouterConfig::paper_worst_case();
        assert!(wc.timing.link_cycle > typ.timing.link_cycle);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = RouterConfig::paper();
        cfg.params.ports = 4;
        assert!(cfg.validate().is_err());

        let mut cfg = RouterConfig::paper();
        cfg.params.gs_vcs = 16;
        assert!(cfg.validate().is_err(), "9+ GS VCs break the wire format");
    }
}
