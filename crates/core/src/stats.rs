//! Per-router counters for experiments and invariant checks.

/// Counters maintained by one router.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// GS flits that arrived on each network input port (N, E, S, W).
    pub gs_flits_in: [u64; 4],
    /// GS link grants issued per output port.
    pub gs_grants: [u64; 4],
    /// BE link grants issued per output port.
    pub be_grants: [u64; 4],
    /// BE flits that arrived on each network input port.
    pub be_flits_in: [u64; 4],
    /// GS flits delivered to the local NA.
    pub gs_delivered: u64,
    /// BE flits delivered to the local NA.
    pub be_flits_delivered: u64,
    /// BE packets delivered to the local NA (EOP count).
    pub be_packets_delivered: u64,
    /// GS flits injected by the local NA.
    pub gs_injected: u64,
    /// BE flits injected by the local NA.
    pub be_injected: u64,
    /// Configuration packets consumed by the programming interface.
    pub prog_packets: u64,
    /// Malformed or inapplicable configuration packets dropped.
    pub prog_errors: u64,
    /// Table writes applied.
    pub prog_writes: u64,
    /// Unlock toggles sent upstream (network + NA).
    pub unlocks_sent: u64,
    /// BE credits sent upstream (network + NA).
    pub credits_sent: u64,
}

impl RouterStats {
    /// Total link grants (GS + BE) on output port `dir_index`.
    pub fn grants(&self, dir_index: usize) -> u64 {
        self.gs_grants[dir_index] + self.be_grants[dir_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_combine_sources() {
        let s = RouterStats {
            gs_grants: [0, 7, 0, 0],
            be_grants: [0, 3, 0, 0],
            ..Default::default()
        };
        assert_eq!(s.grants(1), 10);
    }
}
