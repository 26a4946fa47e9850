//! Crossbar array geometries (Table I of the paper).

use serde::{Deserialize, Serialize};

use crate::error::XbarError;

/// Width of the digital input a MAC burst streams through the DACs.
pub(crate) const MAC_INPUT_BITS: u32 = 16;

/// Geometry of a MAC crossbar bank.
///
/// Table I: "MAC crossbar, 128×16×8, 2-bits/cell" — 128 rows by 16 logical
/// columns, each logical value spread over 8 physical bit-slice columns of
/// 2 bits each (16-bit weights). The paper additionally caps each analog
/// accumulation at 16 active rows so a 6-bit ADC suffices (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacGeometry {
    /// Number of word lines.
    pub rows: usize,
    /// Number of logical columns (values per row).
    pub cols: usize,
    /// Physical bit-slice columns per logical value.
    pub slices: usize,
    /// Bits stored per cell.
    pub bits_per_cell: u32,
    /// Maximum rows activated in one analog accumulation.
    pub max_active_rows: usize,
    /// DAC resolution in bits (input streamed `dac_bits` per step).
    pub dac_bits: u32,
    /// ADC resolution in bits.
    pub adc_bits: u32,
}

impl MacGeometry {
    /// The paper's Table I configuration.
    pub fn paper() -> Self {
        MacGeometry {
            rows: 128,
            cols: 16,
            slices: 8,
            bits_per_cell: 2,
            max_active_rows: 16,
            dac_bits: 2,
            adc_bits: 6,
        }
    }

    /// Bits of weight precision per logical value.
    pub fn weight_bits(&self) -> u32 {
        self.slices as u32 * self.bits_per_cell
    }

    /// Physical cells per row (`cols × slices`).
    pub fn cells_per_row(&self) -> usize {
        self.cols * self.slices
    }

    /// Total physical cells in the array.
    pub fn total_cells(&self) -> usize {
        self.rows * self.cells_per_row()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] for zero dimensions, weight
    /// precision above 32 bits, an active-row cap beyond the row count,
    /// converter and cell resolutions whose bit masks overflow (DAC or
    /// bits per cell above 31, ADC above 63), or ADC samples too wide for
    /// the 64-bit shift-and-add accumulator.
    pub fn validate(&self) -> Result<(), XbarError> {
        if self.rows == 0 || self.cols == 0 || self.slices == 0 {
            return Err(XbarError::InvalidParameter(
                "mac geometry: dimensions must be positive".into(),
            ));
        }
        if self.bits_per_cell == 0 || self.weight_bits() > 32 {
            return Err(XbarError::InvalidParameter(format!(
                "mac geometry: unsupported weight precision {} bits",
                self.weight_bits()
            )));
        }
        if self.max_active_rows == 0 || self.max_active_rows > self.rows {
            return Err(XbarError::InvalidParameter(format!(
                "mac geometry: max_active_rows {} outside 1..={}",
                self.max_active_rows, self.rows
            )));
        }
        if self.dac_bits == 0 || self.adc_bits == 0 {
            return Err(XbarError::InvalidParameter(
                "mac geometry: converter resolutions must be positive".into(),
            ));
        }
        // The bit-sliced burst builds `(1 << bits) - 1` masks: `u32` for a
        // DAC step and a cell slice, `u64` for the ADC full scale.
        if self.dac_bits > 31 || self.bits_per_cell > 31 || self.adc_bits > 63 {
            return Err(XbarError::InvalidParameter(format!(
                "mac geometry: dac_bits {} / bits_per_cell {} / adc_bits {} exceed 31 / 31 / 63",
                self.dac_bits, self.bits_per_cell, self.adc_bits
            )));
        }
        // Shift-and-add sums one sample per (input step, weight slice);
        // the sum of full-scale samples must fit the accumulator. Every
        // shift is below 16 + 32 and the sample below 2^63, so `u128` holds
        // each term and the at most 16 × 32 of them.
        let full_scale = (1u128 << self.adc_bits) - 1;
        let mut max_sum = 0u128;
        for step in 0..MAC_INPUT_BITS.div_ceil(self.dac_bits) {
            for slice in 0..self.slices as u32 {
                max_sum += full_scale << (step * self.dac_bits + slice * self.bits_per_cell);
            }
        }
        if max_sum > u128::from(u64::MAX) {
            return Err(XbarError::InvalidParameter(format!(
                "mac geometry: {}-bit ADC samples overflow the 64-bit shift-and-add accumulator",
                self.adc_bits
            )));
        }
        Ok(())
    }
}

impl Default for MacGeometry {
    fn default() -> Self {
        MacGeometry::paper()
    }
}

/// Geometry of a CAM crossbar bank.
///
/// Table I: "CAM crossbar, 128×128, 1-bit/cell" — 128 entries of 128
/// ternary-searchable bits. GaaS-X packs one `(src, dst)` pair per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CamGeometry {
    /// Number of storable entries (rows).
    pub rows: usize,
    /// Searchable bits per entry.
    pub width_bits: u32,
}

impl CamGeometry {
    /// The paper's Table I configuration.
    pub fn paper() -> Self {
        CamGeometry {
            rows: 128,
            width_bits: 128,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] for zero dimensions or widths
    /// beyond the 128-bit search-key type.
    pub fn validate(&self) -> Result<(), XbarError> {
        if self.rows == 0 {
            return Err(XbarError::InvalidParameter(
                "cam geometry: rows must be positive".into(),
            ));
        }
        if self.width_bits == 0 || self.width_bits > 128 {
            return Err(XbarError::InvalidParameter(format!(
                "cam geometry: width {} outside 1..=128",
                self.width_bits
            )));
        }
        Ok(())
    }
}

impl Default for CamGeometry {
    fn default() -> Self {
        CamGeometry::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mac_geometry() {
        let g = MacGeometry::paper();
        assert_eq!(g.weight_bits(), 16);
        assert_eq!(g.cells_per_row(), 128);
        assert_eq!(g.total_cells(), 128 * 128);
        g.validate().unwrap();
    }

    #[test]
    fn paper_cam_geometry() {
        CamGeometry::paper().validate().unwrap();
    }

    #[test]
    fn invalid_geometries_rejected() {
        let mut g = MacGeometry::paper();
        g.max_active_rows = 0;
        assert!(g.validate().is_err());
        let mut g = MacGeometry::paper();
        g.max_active_rows = 1000;
        assert!(g.validate().is_err());
        let mut g = MacGeometry::paper();
        g.slices = 20; // 40-bit weights unsupported
        assert!(g.validate().is_err());
        let mut c = CamGeometry::paper();
        c.width_bits = 200;
        assert!(c.validate().is_err());
    }

    #[test]
    fn resolutions_whose_masks_overflow_are_rejected() {
        // Each shape used to validate and then panic inside a quantized
        // burst: the first three on a mask shift ("attempt to shift left
        // with overflow"), the last on the reconstruction sum once an ADC
        // flip sets a high sample bit ("attempt to add with overflow").
        let paper = MacGeometry::paper();
        let shapes = [
            MacGeometry {
                dac_bits: 32,
                ..paper
            },
            MacGeometry {
                bits_per_cell: 32,
                slices: 1,
                ..paper
            },
            MacGeometry {
                adc_bits: 64,
                ..paper
            },
            // Masks fit, but 8 steps × 8 slices of 36-bit samples, shifted
            // by up to 28 bits, can overflow the 64-bit reconstruction.
            MacGeometry {
                adc_bits: 36,
                ..paper
            },
        ];
        for g in shapes {
            assert!(
                matches!(g.validate(), Err(XbarError::InvalidParameter(_))),
                "{g:?}"
            );
        }
        // The widest masks that still fit stay valid, and a quantized
        // burst with faulty cells and flipping ADCs runs on each of them.
        for g in [
            MacGeometry {
                dac_bits: 31,
                ..paper
            },
            MacGeometry {
                bits_per_cell: 31,
                slices: 1,
                ..paper
            },
            MacGeometry {
                adc_bits: 35,
                ..paper
            },
        ] {
            g.validate().unwrap();
            let mut m = crate::MacCrossbar::new(g, crate::Fidelity::Quantized);
            m.set_faults(Some(crate::fault::MacFaultState::new(
                crate::FaultModel {
                    seed: 3,
                    mac_stuck_ber: 0.1,
                    adc_flip_rate: 0.5,
                    ..crate::FaultModel::none()
                },
                &g,
            )));
            m.write_row(0, &[m.max_code(), 1]).unwrap();
            m.write_row(1, &[5, m.max_code()]).unwrap();
            let dir = crate::MacDirection::RowsToColumns;
            m.mac(dir, &[0, 1], &[0xFFFF, 0x1234]).unwrap();
            m.set_faults(None);
            let mut out = Vec::new();
            m.mac_lines_into(dir, &[0, 1], &[0xFFFF, 0x1234], &[1], &mut out)
                .unwrap();
        }
    }
}
