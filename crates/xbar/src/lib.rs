//! ReRAM crossbar device substrate for the GaaS-X reproduction.
//!
//! Models the two in-situ compute primitives the accelerator is built from
//! (paper §II-C, Fig 3):
//!
//! * [`MacCrossbar`] — an analog multiply-and-accumulate array: 128×16
//!   effective cells at 2 bits/cell × 8 bit slices (16-bit weights), DAC-fed
//!   inputs, sample-and-hold columns, a shared 6-bit ADC, and shift-and-add
//!   reconstruction. Rows (or, transposed, columns) can be *selectively*
//!   activated from a CAM hit vector — the mechanism that lets GaaS-X
//!   accumulate only valid edges.
//! * [`CamCrossbar`] — a 128×128 ternary content-addressable memory: a
//!   masked search key is broadcast to all rows in one 4 ns operation and
//!   every matching row raises a line. The host returns those lines as a
//!   [`HitVector`]: the ascending list of matching rows, which the MAC
//!   bursts then consume in chunks of at most `max_active_rows`.
//!
//! Device *cost* is captured separately from device *function*: every
//! operation bumps counters in [`XbarStats`], and
//! [`energy::DeviceEnergyModel`] (constants derived from Table I of the
//! paper) converts those counts into nanojoules and nanoseconds. Functional
//! fidelity is configurable through [`Fidelity`]: `Exact` arithmetic for
//! algorithm validation, or `Quantized` periphery that saturates at the
//! 6-bit ADC range like real silicon.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cam;
mod error;
mod hit_vector;
mod mac;

pub mod energy;
pub mod fault;
pub mod fixed;
pub mod geometry;
pub mod noise;
pub mod periphery;

pub use cam::{CamCrossbar, CamEntry};
pub use error::XbarError;
pub use fault::FaultModel;
pub use hit_vector::{HitVector, VoteTally};
pub use mac::{Fidelity, MacCrossbar, MacDirection};

use serde::{Deserialize, Serialize};

/// Whether `rows` is the prefix `0..rows.len()`: the physical rows of a
/// block no remap has moved. One branch-free pass, so it vectorizes.
fn is_prefix(rows: &[usize]) -> bool {
    rows.iter()
        .enumerate()
        .fold(true, |prefix, (i, &r)| prefix & (i == r))
}

/// Operation counters shared by both crossbar kinds.
///
/// The simulation layer reads these to account time and energy; devices
/// never compute joules themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct XbarStats {
    /// MAC operations issued (each covers one ≤16-row accumulation burst).
    pub mac_ops: u64,
    /// Total rows (or columns, when transposed) activated across MAC ops.
    pub rows_activated: u64,
    /// Histogram of rows activated per MAC op; index `i` counts ops that
    /// activated `i + 1` rows (paper Fig 13). Ops beyond the last bucket
    /// clamp into it.
    pub rows_per_mac: Vec<u64>,
    /// CAM search operations issued.
    pub cam_searches: u64,
    /// Individual cells programmed (both CAM and MAC writes).
    pub cells_written: u64,
    /// Row-granularity write operations (a row write programs all its cells
    /// in one verify-program burst).
    pub row_writes: u64,
    /// ADC conversions performed.
    pub adc_samples: u64,
    /// DAC conversions performed.
    pub dac_conversions: u64,
}

impl XbarStats {
    /// Creates zeroed stats with a 16-bucket rows-per-MAC histogram.
    pub fn new() -> Self {
        XbarStats {
            rows_per_mac: vec![0; 16],
            ..Default::default()
        }
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &XbarStats) {
        self.mac_ops += other.mac_ops;
        self.rows_activated += other.rows_activated;
        if self.rows_per_mac.len() < other.rows_per_mac.len() {
            self.rows_per_mac.resize(other.rows_per_mac.len(), 0);
        }
        for (i, &v) in other.rows_per_mac.iter().enumerate() {
            self.rows_per_mac[i] += v;
        }
        self.cam_searches += other.cam_searches;
        self.cells_written += other.cells_written;
        self.row_writes += other.row_writes;
        self.adc_samples += other.adc_samples;
        self.dac_conversions += other.dac_conversions;
    }

    /// Records one MAC op that activated `rows` rows.
    pub fn record_mac(&mut self, rows: usize) {
        self.mac_ops += 1;
        self.rows_activated += rows as u64;
        if self.rows_per_mac.is_empty() {
            self.rows_per_mac = vec![0; 16];
        }
        let bucket = rows.saturating_sub(1).min(self.rows_per_mac.len() - 1);
        self.rows_per_mac[bucket] += 1;
    }

    /// Mean rows activated per MAC op (0 if none issued).
    pub fn mean_rows_per_mac(&self) -> f64 {
        if self.mac_ops == 0 {
            0.0
        } else {
            self.rows_activated as f64 / self.mac_ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_accumulates() {
        let mut a = XbarStats::new();
        a.record_mac(1);
        a.cam_searches = 5;
        let mut b = XbarStats::new();
        b.record_mac(3);
        b.cells_written = 7;
        a.merge(&b);
        assert_eq!(a.mac_ops, 2);
        assert_eq!(a.rows_activated, 4);
        assert_eq!(a.cam_searches, 5);
        assert_eq!(a.cells_written, 7);
        assert_eq!(a.rows_per_mac[0], 1);
        assert_eq!(a.rows_per_mac[2], 1);
    }

    #[test]
    fn histogram_clamps_large_bursts() {
        let mut s = XbarStats::new();
        s.record_mac(40);
        assert_eq!(s.rows_per_mac[15], 1);
    }

    #[test]
    fn mean_rows_handles_zero_ops() {
        assert_eq!(XbarStats::new().mean_rows_per_mac(), 0.0);
    }
}
