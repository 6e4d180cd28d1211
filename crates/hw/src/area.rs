//! Standard-cell area model reproducing Table 1 of the paper.
//!
//! The model is *structural*: each router module's area is a closed-form
//! function of the architecture parameters (ports `P`, GS VCs per network
//! port `V`, flit data width `W`, buffer depth `D`), mirroring how the
//! hardware is actually built — latch bits for storage, crosspoint-bits for
//! switches, mux inputs for the VC-control wire switch, and so on. Each
//! element class has an area constant (µm² per element) chosen once so that
//! the paper's design point (P=5, V=8, W=32, D=1, 0.12 µm standard cells)
//! reproduces Table 1. The constants are physically plausible for a
//! 0.12 µm library (a latch bit with amortized 4-phase controller ≈ 20 µm²,
//! a crosspoint-bit ≈ 9–10 µm²) and are documented below.
//!
//! Because the formulas are structural, the model also supports the scaling
//! statements the paper makes in prose: the switching module grows
//! *linearly* with the number of VCs (Sec. 4.2) while the VC-control wire
//! switch grows *quadratically* (motivating the Clos-network remark in
//! Sec. 4.3).

use crate::report::Table;
use std::fmt;

/// Architecture parameters of one MANGO router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterParams {
    /// Total unidirectional port pairs, including the local port (paper: 5).
    pub ports: usize,
    /// VCs per network port, *including* the one BE channel (paper: 8 =
    /// 7 GS VCs + 1 BE). With 4 local GS interfaces this yields the
    /// paper's "32 independently buffered GS connections":
    /// 4 network ports × 7 + 4 local = 32 GS buffers.
    pub gs_vcs: usize,
    /// Flit data width in bits (paper: 32).
    pub flit_data_bits: usize,
    /// GS output-buffer depth in flits, excluding the unsharebox latch
    /// (paper: 1).
    pub buffer_depth: usize,
    /// GS interfaces on the local port (paper: 4, plus 1 BE interface).
    pub local_gs_ifaces: usize,
}

impl RouterParams {
    /// The design point implemented in the paper: 5×5 ports, 8 VCs per
    /// network port, 32-bit flits, depth-1 output buffers, 4 local GS
    /// interfaces.
    pub fn paper() -> Self {
        RouterParams {
            ports: 5,
            gs_vcs: 8,
            flit_data_bits: 32,
            buffer_depth: 1,
            local_gs_ifaces: 4,
        }
    }

    /// Number of network ports (total minus the local port).
    pub fn network_ports(&self) -> usize {
        self.ports - 1
    }

    /// GS VCs per network port: the port's VCs minus the BE channel
    /// (paper: 7).
    pub fn gs_vcs_per_port(&self) -> usize {
        self.gs_vcs - 1
    }

    /// Total independently buffered GS connections the router supports:
    /// `V−1` GS VC buffers per network output port plus one per local GS
    /// interface (paper: 4×7 + 4 = 32).
    pub fn total_gs_buffers(&self) -> usize {
        self.network_ports() * self.gs_vcs_per_port() + self.local_gs_ifaces
    }

    /// Width of the steering field appended at link access.
    ///
    /// For the paper's configuration this is 5 bits: 3 split bits + 2
    /// switch bits (Fig. 5). For other configurations the same two-stage
    /// decomposition is kept: the split stage addresses `2·(P−2) + 2`
    /// targets from a network input (two 4×4-style switches per legal
    /// output direction, one local-GS target, one BE target) and the switch
    /// stage addresses one of `⌈V/2⌉` buffers.
    pub fn steer_bits(&self) -> usize {
        self.split_bits() + self.switch_bits()
    }

    /// Bits consumed by the split stage (paper: 3).
    pub fn split_bits(&self) -> usize {
        // Targets from a network input: (P-2) other network directions × 2
        // switches + local GS + BE unit.
        let targets = 2 * (self.ports - 2) + 2;
        ceil_log2(targets)
    }

    /// Bits consumed by the 4×4 switch stage (paper: 2).
    pub fn switch_bits(&self) -> usize {
        ceil_log2(self.gs_vcs.div_ceil(2).max(2))
    }

    /// Payload bits carried end-to-end for BE flits: data + EOP + BE-VC
    /// select (paper: 34).
    pub fn be_payload_bits(&self) -> usize {
        self.flit_data_bits + 2
    }

    /// Flit width after the split stage strips its bits: the wider of the
    /// BE payload (data + EOP + BE-VC) and the GS form (data + switch
    /// steering bits). Both are 34 for the paper's configuration (Sec. 5).
    pub fn post_split_bits(&self) -> usize {
        self.be_payload_bits()
            .max(self.flit_data_bits + self.switch_bits())
    }

    /// Physical link width in bits: split bits + post-split flit
    /// (paper: 37).
    pub fn link_bits(&self) -> usize {
        self.split_bits() + self.post_split_bits()
    }

    /// Bits selecting the unlock-wire source in the VC control module:
    /// one of `(P−1)·V` VC buffers (paper: 5).
    pub fn unlock_map_bits(&self) -> usize {
        ceil_log2(self.network_ports() * self.gs_vcs)
    }

    /// Validates that the parameters describe a buildable router.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ports < 2 {
            return Err(format!("need at least 2 ports, got {}", self.ports));
        }
        if self.gs_vcs < 2 {
            return Err(format!(
                "need at least 2 VCs per network port (1 GS + 1 BE), got {}",
                self.gs_vcs
            ));
        }
        if self.flit_data_bits == 0 {
            return Err("flit data width must be positive".into());
        }
        if self.buffer_depth == 0 {
            return Err("buffer depth must be at least 1".into());
        }
        if self.local_gs_ifaces == 0 {
            return Err("need at least 1 local GS interface".into());
        }
        Ok(())
    }
}

impl Default for RouterParams {
    fn default() -> Self {
        RouterParams::paper()
    }
}

fn ceil_log2(n: usize) -> usize {
    assert!(n > 0);
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Per-element area constants for a standard-cell library (µm² per element).
///
/// The defaults are calibrated for the paper's 0.12 µm library; see module
/// docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    /// Name of the process node.
    pub process: &'static str,
    /// One stored bit in a register-file-style table (latch + addressing).
    pub table_bit: f64,
    /// One crosspoint-bit of an arbitration-free demux/switch path,
    /// including its share of wiring.
    pub crosspoint_bit: f64,
    /// One data-latch bit including the amortized 4-phase latch controller.
    pub latch_bit: f64,
    /// One mutual-exclusion/arbitration cell with request/grant logic.
    pub arb_cell: f64,
    /// One merge-mux bit-input at a link output.
    pub merge_bit: f64,
    /// One input of a 1-bit unlock-wire multiplexer (wiring dominated).
    pub unlock_mux_input: f64,
    /// One BE route-decode + header-rotate unit (per BE input port).
    pub be_route_unit: f64,
    /// One handshake (share/unshare) controller.
    pub handshake_ctl: f64,
    /// One credit counter with its return-wire interface.
    pub credit_ctr: f64,
}

impl CellLibrary {
    /// Constants calibrated for the paper's 0.12 µm standard-cell library.
    pub fn cmos_120nm() -> Self {
        CellLibrary {
            process: "0.12um-stdcell",
            table_bit: 15.6,
            crosspoint_bit: 9.39,
            latch_bit: 22.95,
            arb_cell: 160.0,
            merge_bit: 10.54,
            unlock_mux_input: 12.5,
            be_route_unit: 800.0,
            handshake_ctl: 600.0,
            credit_ctr: 900.0,
        }
    }
}

/// Area of every router module, in µm².
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBreakdown {
    /// Connection table: steering bits + unlock-map bits (Sec. 4.1).
    pub connection_table: f64,
    /// Non-blocking switching module: splits + 4×4 switches (Sec. 4.2).
    pub switching: f64,
    /// GS VC output buffers incl. unsharebox latches (Sec. 4.4).
    pub vc_buffers: f64,
    /// Link access: arbiters + merges + steer append (Sec. 4.4).
    pub link_access: f64,
    /// VC control module: unlock-wire switch (Sec. 4.3).
    pub vc_control: f64,
    /// BE router: buffers, routing, arbitration, credits (Sec. 5).
    pub be_router: f64,
}

impl AreaBreakdown {
    /// Total router area in µm².
    pub fn total_um2(&self) -> f64 {
        self.connection_table
            + self.switching
            + self.vc_buffers
            + self.link_access
            + self.vc_control
            + self.be_router
    }

    /// Total router area in mm² (the unit Table 1 uses).
    pub fn total_mm2(&self) -> f64 {
        self.total_um2() / 1e6
    }

    /// The modules as `(name, area in mm²)` rows in Table 1 order.
    pub fn rows_mm2(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("Connection table", self.connection_table / 1e6),
            ("Switching module", self.switching / 1e6),
            ("VC buffers", self.vc_buffers / 1e6),
            ("Link access", self.link_access / 1e6),
            ("VC control", self.vc_control / 1e6),
            ("BE router", self.be_router / 1e6),
        ]
    }

    /// Renders the breakdown as a Table 1-style text table, optionally with
    /// the paper's reference column.
    pub fn to_table(&self, with_paper_column: bool) -> Table {
        let paper = Table1::PAPER_ROWS;
        let mut t = if with_paper_column {
            Table::new(vec!["Module", "Model [mm2]", "Paper [mm2]", "Error"])
        } else {
            Table::new(vec!["Module", "Area [mm2]"])
        };
        for (i, (name, mm2)) in self.rows_mm2().into_iter().enumerate() {
            if with_paper_column {
                let p = paper[i].1;
                t.add_row(vec![
                    name.to_string(),
                    format!("{mm2:.3}"),
                    format!("{p:.3}"),
                    format!("{:+.1}%", (mm2 - p) / p * 100.0),
                ]);
            } else {
                t.add_row(vec![name.to_string(), format!("{mm2:.3}")]);
            }
        }
        let total = self.total_mm2();
        if with_paper_column {
            t.add_row(vec![
                "Total".to_string(),
                format!("{total:.3}"),
                format!("{:.3}", Table1::PAPER_TOTAL),
                format!(
                    "{:+.1}%",
                    (total - Table1::PAPER_TOTAL) / Table1::PAPER_TOTAL * 100.0
                ),
            ]);
        } else {
            t.add_row(vec!["Total".to_string(), format!("{total:.3}")]);
        }
        t
    }
}

impl fmt::Display for AreaBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table(false))
    }
}

/// The paper's Table 1 reference values.
#[derive(Debug, Clone, Copy)]
pub struct Table1;

impl Table1 {
    /// Module rows of Table 1, in mm².
    pub const PAPER_ROWS: [(&'static str, f64); 6] = [
        ("Connection table", 0.005),
        ("Switching module", 0.065),
        ("VC buffers", 0.047),
        ("Link access", 0.022),
        ("VC control", 0.016),
        ("BE router", 0.033),
    ];
    /// Total of Table 1, in mm².
    pub const PAPER_TOTAL: f64 = 0.188;
}

/// The area model: a cell library applied to router parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    library: CellLibrary,
}

impl AreaModel {
    /// A model using the calibrated 0.12 µm library.
    pub fn cmos_120nm() -> Self {
        AreaModel {
            library: CellLibrary::cmos_120nm(),
        }
    }

    /// The underlying cell library.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Computes the per-module area breakdown for `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`RouterParams::validate`].
    pub fn breakdown(&self, params: &RouterParams) -> AreaBreakdown {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid router parameters: {e}"));
        let lib = &self.library;
        let p = params.ports as f64;
        let n = params.network_ports() as f64;
        let v = params.gs_vcs as f64;
        let bufs = params.total_gs_buffers() as f64;
        let w_link = params.link_bits() as f64;
        let w_post_split = params.post_split_bits() as f64;
        let w_data = params.flit_data_bits as f64;
        let depth = (params.buffer_depth + 1) as f64; // + unsharebox latch

        // Connection table: per GS buffer, steering bits for the next hop
        // and unlock-map bits for the previous hop (Sec. 4.1: "stored in two
        // places").
        let connection_table =
            bufs * (params.steer_bits() + params.unlock_map_bits()) as f64 * lib.table_bit;

        // Switching module: per input port a 1→(2(P−2)+2) split across the
        // link width, plus per output port two (P−1)×(V/2) switch planes of
        // crosspoints across the post-split width. Linear in V (Sec. 4.2).
        let split_targets = (2 * (params.ports - 2) + 2) as f64;
        let split = p * split_targets * w_link * lib.crosspoint_bit;
        let switches = p * n * v * w_post_split * lib.crosspoint_bit;
        let switching = split + switches;

        // VC buffers: every GS buffer stores `depth` data flits plus the
        // unsharebox latch, all `W` bits wide.
        let vc_buffers = bufs * depth * w_data * lib.latch_bit;

        // Link access: per output port a V-way arbiter (V−1 GS VCs + the
        // BE channel), a V:1 merge across the link width, and the
        // steer-append drivers.
        let link_access = p * (v * lib.arb_cell + v * w_link * lib.merge_bit);

        // VC control: P·V unlock-wire muxes, each selecting among the
        // (P−1)·V VC-buffer unlock sources (Sec. 4.3: "5*8 instantiations of
        // a (5-1)*8-input multiplexer"). Quadratic in V.
        let vc_control = p * v * (n * v) * lib.unlock_mux_input;

        // BE router: per direction an unsharebox+staging latch pair across
        // the BE payload width, a route-decode/rotate unit, a fair (P−1):1
        // input arbiter, merge crosspoints, handshake controllers, and a
        // credit counter per output.
        let be_w = params.be_payload_bits() as f64;
        let be_latches = p * 2.0 * be_w * lib.latch_bit;
        let be_route = p * lib.be_route_unit;
        let be_arb = p * n * lib.arb_cell;
        let be_merge = p * n * be_w * lib.merge_bit;
        let be_hs = p * 2.0 * lib.handshake_ctl;
        let be_credits = p * lib.credit_ctr;
        let be_router = be_latches + be_route + be_arb + be_merge + be_hs + be_credits;

        AreaBreakdown {
            connection_table,
            switching,
            vc_buffers,
            link_access,
            vc_control,
            be_router,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_breakdown() -> AreaBreakdown {
        AreaModel::cmos_120nm().breakdown(&RouterParams::paper())
    }

    #[test]
    fn paper_params_derived_fields_match_section_4() {
        let p = RouterParams::paper();
        assert_eq!(p.network_ports(), 4);
        assert_eq!(p.split_bits(), 3, "Fig. 5: three split bits");
        assert_eq!(p.switch_bits(), 2, "Fig. 5: two switch bits");
        assert_eq!(p.steer_bits(), 5, "Fig. 5: five steering bits total");
        assert_eq!(p.be_payload_bits(), 34, "Sec. 5: 34 bits after split");
        assert_eq!(p.link_bits(), 37, "32 data + eop + bevc + 3 split bits");
        assert_eq!(p.unlock_map_bits(), 5, "select one of the VC buffers");
        assert_eq!(p.gs_vcs_per_port(), 7, "8 VCs = 7 GS + 1 BE per port");
        assert_eq!(
            p.total_gs_buffers(),
            32,
            "Sec. 6: 32 independently buffered GS connections"
        );
    }

    #[test]
    fn table1_modules_within_tolerance() {
        let b = paper_breakdown();
        for ((name, model_mm2), (pname, paper_mm2)) in
            b.rows_mm2().into_iter().zip(Table1::PAPER_ROWS)
        {
            assert_eq!(name, pname);
            let err = (model_mm2 - paper_mm2).abs() / paper_mm2;
            assert!(
                err < 0.06,
                "{name}: model {model_mm2:.4} vs paper {paper_mm2:.3} ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn table1_total_within_two_percent() {
        let total = paper_breakdown().total_mm2();
        let err = (total - Table1::PAPER_TOTAL).abs() / Table1::PAPER_TOTAL;
        assert!(err < 0.02, "total {total:.4} mm2 ({:.2}% off)", err * 100.0);
    }

    #[test]
    fn switching_and_buffers_dominate() {
        // Sec. 6: "The switching module and the VC buffers together account
        // for more than half of the total area."
        let b = paper_breakdown();
        assert!(b.switching + b.vc_buffers > b.total_um2() / 2.0);
    }

    #[test]
    fn switching_module_scales_linearly_in_vcs() {
        // Sec. 4.2: "scales linearly with the number of VCs".
        let model = AreaModel::cmos_120nm();
        let mut params = RouterParams::paper();
        let area = |v: usize, params: &mut RouterParams| {
            params.gs_vcs = v;
            model.breakdown(params).switching
        };
        let a8 = area(8, &mut params);
        let a16 = area(16, &mut params);
        let a32 = area(32, &mut params);
        // Differences of a linear function are proportional. The steering
        // field grows logarithmically with V, so allow a few percent of
        // super-linearity — first-order the growth is linear, as the paper
        // states.
        let d1 = a16 - a8;
        let d2 = a32 - a16;
        assert!(
            (d2 / d1 - 2.0).abs() < 0.1,
            "switching not (approximately) linear in V: d1={d1} d2={d2}"
        );
    }

    #[test]
    fn vc_control_scales_quadratically_in_vcs() {
        // Sec. 4.3 motivates a Clos network "for larger number of VCs".
        let model = AreaModel::cmos_120nm();
        let mut params = RouterParams::paper();
        params.gs_vcs = 8;
        let a8 = model.breakdown(&params).vc_control;
        params.gs_vcs = 16;
        let a16 = model.breakdown(&params).vc_control;
        assert!(
            (a16 / a8 - 4.0).abs() < 1e-9,
            "vc_control should grow 4x when V doubles, got {}",
            a16 / a8
        );
    }

    #[test]
    fn area_monotone_in_every_parameter() {
        let model = AreaModel::cmos_120nm();
        let base = model.breakdown(&RouterParams::paper()).total_um2();
        for f in [
            (|p: &mut RouterParams| p.ports += 1) as fn(&mut RouterParams),
            |p| p.gs_vcs += 1,
            |p| p.flit_data_bits += 8,
            |p| p.buffer_depth += 1,
            |p| p.local_gs_ifaces += 1,
        ] {
            let mut params = RouterParams::paper();
            f(&mut params);
            let grown = model.breakdown(&params).total_um2();
            assert!(grown > base, "area not monotone: {params:?}");
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut p = RouterParams::paper();
        p.ports = 1;
        assert!(p.validate().is_err());
        let mut p = RouterParams::paper();
        p.gs_vcs = 0;
        assert!(p.validate().is_err());
        let mut p = RouterParams::paper();
        p.buffer_depth = 0;
        assert!(p.validate().is_err());
        let mut p = RouterParams::paper();
        p.flit_data_bits = 0;
        assert!(p.validate().is_err());
        let mut p = RouterParams::paper();
        p.local_gs_ifaces = 0;
        assert!(p.validate().is_err());
        assert!(RouterParams::paper().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid router parameters")]
    fn breakdown_panics_on_invalid_params() {
        let mut p = RouterParams::paper();
        p.gs_vcs = 0;
        AreaModel::cmos_120nm().breakdown(&p);
    }

    #[test]
    fn table_rendering_includes_all_modules() {
        let rendered = paper_breakdown().to_table(true).to_string();
        for (name, _) in Table1::PAPER_ROWS {
            assert!(rendered.contains(name), "missing row {name}");
        }
        assert!(rendered.contains("Total"));
    }

    #[test]
    fn ceil_log2_basics() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(32), 5);
    }
}
