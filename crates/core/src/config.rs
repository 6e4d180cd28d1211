//! Router configuration.

use crate::arb::ArbiterKind;
use mango_hw::area::RouterParams;
use mango_hw::timing::RouterTiming;

/// VCs a network port can have: the 5-bit steering format addresses 8
/// (`Steer::pack`). [`RouterConfig::validate`] caps `gs_vcs` here.
pub const PORT_VCS_MAX: usize = 8;

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
    /// BE input latch depth per direction (unsharebox + staging).
    pub be_input_depth: usize,
    /// BE output stage depth per network port.
    pub be_output_depth: usize,
    /// Initial BE credits toward each neighbor (set by the network layer
    /// to the neighbor's `be_input_depth`).
    pub be_link_credits: usize,
    /// NA-visible delivery slots per local GS interface: how many delivered
    /// flits the NA can hold before the router's local buffer backs up
    /// (end-to-end flow control).
    pub na_rx_depth: usize,
}

impl RouterConfig {
    /// The paper's router at the typical timing corner.
    pub fn paper() -> Self {
        RouterConfig {
            params: RouterParams::paper(),
            timing: RouterTiming::paper_typical(),
            arbiter: ArbiterKind::FairShare,
            be_input_depth: 2,
            be_output_depth: 2,
            be_link_credits: 2,
            na_rx_depth: 1,
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
        if self.be_input_depth == 0 || self.be_output_depth == 0 {
            return Err("BE buffer depths must be positive".into());
        }
        if self.be_input_depth > crate::be::BE_STAGE_MAX
            || self.be_output_depth > crate::be::BE_STAGE_MAX
        {
            return Err(format!(
                "BE stage depths are inline rings of at most {} flits",
                crate::be::BE_STAGE_MAX
            ));
        }
        if self.be_link_credits == 0 {
            return Err("BE links need at least one credit".into());
        }
        if self.na_rx_depth == 0 {
            return Err("NA delivery needs at least one slot".into());
        }
        if self.buffer_depth() >= 256 || self.na_rx_depth >= 256 {
            return Err("GS buffer and NA delivery depths are limited to 255 (u8 cursors)".into());
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

        let mut cfg = RouterConfig::paper();
        cfg.be_input_depth = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = RouterConfig::paper();
        cfg.be_link_credits = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = RouterConfig::paper();
        cfg.na_rx_depth = 0;
        assert!(cfg.validate().is_err());
    }
}
