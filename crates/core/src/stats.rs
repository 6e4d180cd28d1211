//! Per-router counters an experiment reads: link grants (telemetry's
//! link utilisation) and the programming interface's packet and error
//! counts.

/// Counters maintained by one router.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Link grants (GS and BE) issued per output port (N, E, S, W).
    pub grants: [u64; 4],
    /// Configuration packets consumed by the programming interface.
    pub prog_packets: u64,
    /// Programming failures: one per write the connection table
    /// rejected, one per configuration payload that failed to decode.
    pub prog_errors: u64,
}
