//! Device energy/latency model derived from Table I of the paper.
//!
//! The paper characterizes its arrays with SPICE and reports aggregate
//! power/latency figures (Table I; §V-A: "The overall latency of MAC
//! operation is 30ns and CAM operation is 4ns"). This module reduces those
//! figures to per-operation energies, exactly the reduction the authors'
//! own simulator performs before system-level accounting.
//!
//! Derivations (documented per field):
//!
//! * MAC op: the per-crossbar share of MAC-array, ADC, DAC, and S&H power
//!   (307.20 + 328.96 + 1.64 + 2.56 mW over 2048 banks ≈ 0.313 mW) times
//!   the 30 ns op latency ≈ 9.4 pJ.
//! * CAM search: 614.40 mW / 2048 banks × 4 ns = 1.2 pJ.
//! * Cell writes are not in Table I; we adopt 20 pJ per programmed MLC MAC
//!   cell (multi-level program-and-verify), 1 pJ per binary TCAM device
//!   (single SET/RESET), and a 50 ns row-programming burst — standard 32 nm
//!   figures, the same class of assumption GraphR makes. All constants are
//!   fields, so sensitivity studies can sweep them.

use serde::{Deserialize, Serialize};

use gaasx_sim::{Nanojoules, Nanos, Picojoules};

use crate::error::XbarError;
use crate::XbarStats;

/// Number of MAC (and CAM) crossbar banks in the paper's configuration.
pub const PAPER_NUM_BANKS: u64 = 2048;

/// Per-operation device energy/latency constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceEnergyModel {
    /// Energy of one MAC burst (array + converter periphery share).
    pub mac_op_pj: Picojoules,
    /// Latency of one MAC burst.
    pub mac_op_ns: Nanos,
    /// Energy of one CAM search.
    pub cam_search_pj: Picojoules,
    /// Latency of one CAM search.
    pub cam_search_ns: Nanos,
    /// Energy to program one MLC MAC cell (program-and-verify).
    pub cell_write_pj: Picojoules,
    /// Energy to program one binary TCAM device (single SET/RESET).
    pub cam_bit_write_pj: Picojoules,
    /// Setup latency of one row-programming burst (word-line select,
    /// driver charge).
    pub row_write_ns: Nanos,
    /// Additional program-and-verify latency per logical value in the
    /// row. MLC cells program through serialized verify loops sharing the
    /// row's write driver, so a dense 16-value row costs
    /// `row_write_ns + 16 × value_program_ns` while a sparse 1-value row
    /// costs `row_write_ns + value_program_ns` — the timing face of the
    /// write redundancy in Fig 5.
    pub value_program_ns: Nanos,
    /// Energy of one write-verify read-back (peripheral digital read of a
    /// programmed row: CAM word or the written MAC cells).
    pub verify_read_pj: Picojoules,
    /// Latency of one write-verify read-back. Read-class access, far
    /// cheaper than the 50 ns programming burst it guards.
    pub verify_read_ns: Nanos,
    /// Energy of one scalar SFU operation (add/min/mul/compare).
    pub sfu_op_pj: Picojoules,
    /// Latency of one scalar SFU operation (1 GHz SFU clock).
    pub sfu_op_ns: Nanos,
    /// Always-on static power (controller plus buffer leakage), mW.
    pub static_mw: f64,
}

impl DeviceEnergyModel {
    /// The model derived from Table I as described in the module docs.
    pub fn paper() -> Self {
        let banks = PAPER_NUM_BANKS as f64;
        let mac_path_mw = (307.20 + 328.96 + 1.64 + 2.56) / banks;
        let cam_mw = 614.40 / banks;
        // Controller is always on; buffers leak ~20 % of their active power.
        let static_mw = 50.0 + 0.2 * (34.88 + 8.72 + 279.04);
        DeviceEnergyModel {
            mac_op_pj: Picojoules::from_pj(mac_path_mw * 30.0),
            mac_op_ns: Nanos::from_ns(30.0),
            cam_search_pj: Picojoules::from_pj(cam_mw * 4.0),
            cam_search_ns: Nanos::from_ns(4.0),
            cell_write_pj: Picojoules::from_pj(20.0),
            cam_bit_write_pj: Picojoules::from_pj(1.0),
            row_write_ns: Nanos::from_ns(50.0),
            value_program_ns: Nanos::from_ns(10.0),
            verify_read_pj: Picojoules::from_pj(2.0),
            verify_read_ns: Nanos::from_ns(10.0),
            sfu_op_pj: Picojoules::from_pj(2.0),
            sfu_op_ns: Nanos::from_ns(1.0),
            static_mw,
        }
    }

    /// Checks that every latency, energy and static-power field is a
    /// finite, non-negative number, and that a nonzero static power bills
    /// at least one attojoule per nanosecond. A NaN latency would
    /// silently vanish from the makespan, a negative one shrink it, and a
    /// saturated one poison every report.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), XbarError> {
        let fields = [
            ("mac_op_pj", self.mac_op_pj.pj()),
            ("mac_op_ns", self.mac_op_ns.ns()),
            ("cam_search_pj", self.cam_search_pj.pj()),
            ("cam_search_ns", self.cam_search_ns.ns()),
            ("cell_write_pj", self.cell_write_pj.pj()),
            ("cam_bit_write_pj", self.cam_bit_write_pj.pj()),
            ("row_write_ns", self.row_write_ns.ns()),
            ("value_program_ns", self.value_program_ns.ns()),
            ("verify_read_pj", self.verify_read_pj.pj()),
            ("verify_read_ns", self.verify_read_ns.ns()),
            ("sfu_op_pj", self.sfu_op_pj.pj()),
            ("sfu_op_ns", self.sfu_op_ns.ns()),
            ("static_mw", self.static_mw),
        ];
        for (name, value) in fields {
            if !(value.is_finite() && value >= 0.0) {
                return Err(XbarError::InvalidParameter(format!(
                    "energy model: {name} {value} must be finite and non-negative"
                )));
            }
        }
        if self.static_mw > 0.0 && self.static_energy_nj(Nanos::from_ns(1.0)) == Nanojoules::ZERO {
            return Err(XbarError::InvalidParameter(format!(
                "energy model: static_mw {} rounds to zero attojoules per nanosecond",
                self.static_mw
            )));
        }
        Ok(())
    }

    /// Dynamic energy of a device stats block.
    pub fn dynamic_energy_nj(&self, stats: &XbarStats) -> Nanojoules {
        let pj = self.mac_op_pj * stats.mac_ops
            + self.cam_search_pj * stats.cam_searches
            + self.cell_write_pj * stats.cells_written;
        pj.to_nanojoules()
    }

    /// Static energy over an elapsed time (`mW × ns = pJ`), rounded
    /// once.
    pub fn static_energy_nj(&self, elapsed_ns: Nanos) -> Nanojoules {
        Picojoules::from_pj(self.static_mw * elapsed_ns.ns()).to_nanojoules()
    }

    /// Latency to program one row holding `values` logical values.
    pub fn row_program_ns(&self, values: usize) -> Nanos {
        self.value_program_ns * values as u64 + self.row_write_ns
    }

    /// Serial latency of a stats block assuming no overlap. The
    /// accelerator's scheduler model refines this with its own overlap
    /// accounting; this is the pessimistic bound.
    pub fn serial_latency_ns(&self, stats: &XbarStats) -> Nanos {
        self.mac_op_ns * stats.mac_ops
            + self.cam_search_ns * stats.cam_searches
            + self.row_write_ns * stats.row_writes
    }
}

impl Default for DeviceEnergyModel {
    fn default() -> Self {
        DeviceEnergyModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_table1_derivation() {
        let m = DeviceEnergyModel::paper();
        // (307.20+328.96+1.64+2.56)/2048 mW * 30 ns ≈ 9.38 pJ.
        assert!((m.mac_op_pj.pj() - 9.38).abs() < 0.05, "{}", m.mac_op_pj);
        // 614.4/2048 * 4 = 1.2 pJ.
        assert!((m.cam_search_pj.pj() - 1.2).abs() < 1e-9);
        assert_eq!(m.mac_op_ns, Nanos::from_ns(30.0));
        assert_eq!(m.cam_search_ns, Nanos::from_ns(4.0));
    }

    #[test]
    fn dynamic_energy_accumulates() {
        let m = DeviceEnergyModel::paper();
        let mut s = XbarStats::new();
        s.mac_ops = 1000;
        s.cam_searches = 1000;
        s.cells_written = 100;
        let nj = m.dynamic_energy_nj(&s);
        let aj = 1000 * m.mac_op_pj.aj() + 1000 * m.cam_search_pj.aj() + 100 * 20_000_000;
        assert_eq!(nj, Nanojoules::from_aj(aj));
    }

    #[test]
    fn static_energy_scales_with_time() {
        let m = DeviceEnergyModel::paper();
        assert!((m.static_energy_nj(Nanos::from_ns(1000.0)).nj() - m.static_mw).abs() < 1e-9);
    }

    #[test]
    fn serial_latency_counts_all_op_kinds() {
        let m = DeviceEnergyModel::paper();
        let mut s = XbarStats::new();
        s.mac_ops = 2;
        s.cam_searches = 3;
        s.row_writes = 1;
        assert_eq!(m.serial_latency_ns(&s), Nanos::from_ns(60.0 + 12.0 + 50.0));
    }
}
