//! Accelerator configuration and the Table I component inventory.

use serde::{Deserialize, Serialize};

use gaasx_sim::Nanos;
use gaasx_xbar::energy::DeviceEnergyModel;
use gaasx_xbar::geometry::{CamGeometry, MacGeometry};
use gaasx_xbar::{FaultModel, Fidelity};

use crate::error::CoreError;

/// Effective parallel lanes in the SFU (it contains multiple adders,
/// comparators and multipliers, paper §III-B).
pub const SFU_LANES: u64 = 16;

/// Fault-recovery policy of the engine's write path.
///
/// The default is fully off: no verify reads, no retries, no reserved
/// spares — the fault-free fast path is untouched. With faults injected
/// (see [`GaasXConfig::fault`]) and `write_verify` on, every programmed
/// row is read back; a mismatch triggers up to `retry_budget` reprograms
/// and finally a remap onto one of `spare_rows` reserved rows. A run that
/// detects a fault it cannot recover from fails with
/// [`CoreError::DeviceFault`](crate::CoreError) instead of silently
/// computing on corrupt data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Read back every programmed CAM entry / MAC row and compare.
    pub write_verify: bool,
    /// Reprogram attempts after a verify mismatch before giving up on the
    /// row. `0` means detect-only: the first unrecovered mismatch is fatal
    /// unless a spare absorbs it.
    pub retry_budget: u32,
    /// Rows per bank reserved as remap targets (reduces block capacity by
    /// the same amount while faults are active).
    pub spare_rows: usize,
    /// Majority-vote every CAM search against transient match-line
    /// upsets: search three times, and while the rounds disagree search
    /// two more at a time until each row's majority leads by 3 votes or 9
    /// were taken.
    pub cam_double_check: bool,
}

impl RecoveryPolicy {
    /// Everything off — the fault-free fast path (this is also `default()`).
    pub fn off() -> Self {
        RecoveryPolicy::default()
    }

    /// A forgiving production policy: verify + 3 retries + 16 spares +
    /// majority-voted searches (three rounds, escalating up to nine while
    /// they disagree).
    pub fn standard() -> Self {
        RecoveryPolicy {
            write_verify: true,
            retry_budget: 3,
            spare_rows: 16,
            cam_double_check: true,
        }
    }

    /// Detect faults but never recover: verify on, zero retries, zero
    /// spares. Any detected fault surfaces as a typed `DeviceFault`.
    pub fn detect_only() -> Self {
        RecoveryPolicy {
            write_verify: true,
            retry_budget: 0,
            spare_rows: 0,
            cam_double_check: false,
        }
    }
}

/// Complete configuration of a GaaS-X accelerator instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaasXConfig {
    /// MAC crossbar geometry (per bank).
    pub mac_geometry: MacGeometry,
    /// CAM crossbar geometry (per bank).
    pub cam_geometry: CamGeometry,
    /// Number of CAM+MAC bank pairs (2048 in Table I).
    pub num_banks: usize,
    /// Numerical fidelity of the analog periphery.
    pub fidelity: Fidelity,
    /// Per-operation device energy/latency model.
    pub energy: DeviceEnergyModel,
    /// Relative sigma of analog device noise (0 disables; only observable
    /// under [`Fidelity::Quantized`]).
    pub noise_sigma: f64,
    /// Seed for the noise model.
    pub noise_seed: u64,
    /// Bandwidth for streaming shards out of the storage ReRAM into the
    /// compute arrays, GB/s. GaaS-X, like GraphR, keeps graph data in
    /// on-package memory arrays, so this is internal-memory-class bandwidth.
    pub stream_bandwidth_gbps: f64,
    /// Size in bytes of one streamed edge record (COO: two u32 ids + f32 weight).
    pub edge_record_bytes: u64,
    /// Seeded device-fault injection ([`FaultModel::none`] disables it and
    /// costs nothing).
    #[serde(default)]
    pub fault: FaultModel,
    /// Write-verify / retry / spare-row recovery policy (off by default).
    #[serde(default)]
    pub recovery: RecoveryPolicy,
}

impl GaasXConfig {
    /// The paper's Table I configuration: 2048 banks of 128×16 MAC +
    /// 128×128 CAM crossbars.
    pub fn paper() -> Self {
        GaasXConfig {
            mac_geometry: MacGeometry::paper(),
            cam_geometry: CamGeometry::paper(),
            num_banks: 2048,
            fidelity: Fidelity::Exact,
            energy: DeviceEnergyModel::paper(),
            noise_sigma: 0.0,
            noise_seed: 0,
            stream_bandwidth_gbps: 128.0,
            edge_record_bytes: 12,
            fault: FaultModel::none(),
            recovery: RecoveryPolicy::off(),
        }
    }

    /// A small configuration (8 banks) for fast unit tests.
    pub fn small() -> Self {
        GaasXConfig {
            num_banks: 8,
            ..GaasXConfig::paper()
        }
    }

    /// A deep-bank design point: 2048-row CAM+MAC bank pairs, 16× deeper
    /// and 16× fewer than Table I, holding the same number of resident
    /// edges. Deeper banks amortize per-block load overhead over more
    /// edges and stress the search path: a search must discriminate
    /// among 16× more rows. The device's TCAM search stays one
    /// constant-time operation, and the host answers it from the CAM's
    /// field index in O(hits); the O(rows) scan only serves a fifth
    /// distinct search mask, and the engine searches two.
    pub fn deep_bank() -> Self {
        GaasXConfig {
            mac_geometry: MacGeometry {
                rows: 2048,
                ..MacGeometry::paper()
            },
            cam_geometry: CamGeometry {
                rows: 2048,
                ..CamGeometry::paper()
            },
            num_banks: 128,
            ..GaasXConfig::paper()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on inconsistent geometries, zero
    /// bank counts, non-positive bandwidth, a full block whose byte count
    /// or whose stream or program time overflows, or a nonzero edge stream
    /// time or SFU lane share that rounds to zero ticks.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.mac_geometry
            .validate()
            .map_err(|e| CoreError::InvalidConfig(format!("mac geometry: {e}")))?;
        self.cam_geometry
            .validate()
            .map_err(|e| CoreError::InvalidConfig(format!("cam geometry: {e}")))?;
        if self.num_banks == 0 {
            return Err(CoreError::InvalidConfig(
                "num_banks must be positive".into(),
            ));
        }
        if self.cam_geometry.rows != self.mac_geometry.rows {
            return Err(CoreError::InvalidConfig(format!(
                "cam rows {} must match mac rows {} (one edge per paired row)",
                self.cam_geometry.rows, self.mac_geometry.rows
            )));
        }
        if !(self.stream_bandwidth_gbps.is_finite() && self.stream_bandwidth_gbps > 0.0) {
            return Err(CoreError::InvalidConfig(
                "stream_bandwidth_gbps must be positive".into(),
            ));
        }
        if self.edge_record_bytes == 0 {
            return Err(CoreError::InvalidConfig(
                "edge_record_bytes must be positive".into(),
            ));
        }
        // A full block is the largest stream the engine bills at once.
        let Some(block_bytes) = (self.cam_geometry.rows as u64).checked_mul(self.edge_record_bytes)
        else {
            return Err(CoreError::InvalidConfig(format!(
                "edge_record_bytes {} overflows a {}-row block's byte count",
                self.edge_record_bytes, self.cam_geometry.rows
            )));
        };
        let rows = self.cam_geometry.rows as u64;
        let edge_ns = self.edge_stream_ns();
        if !(edge_ns * rows).is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "stream_bandwidth_gbps {} gives a full {block_bytes}-byte block a stream \
                 time past the modeled range",
                self.stream_bandwidth_gbps
            )));
        }
        if edge_ns == Nanos::ZERO {
            return Err(CoreError::InvalidConfig(format!(
                "stream_bandwidth_gbps {} streams a {}-byte edge in under half a femtosecond",
                self.stream_bandwidth_gbps, self.edge_record_bytes
            )));
        }
        if !(self.noise_sigma.is_finite() && self.noise_sigma >= 0.0) {
            return Err(CoreError::InvalidConfig(
                "noise_sigma must be non-negative".into(),
            ));
        }
        self.energy
            .validate()
            .map_err(|e| CoreError::InvalidConfig(e.to_string()))?;
        if self.energy.sfu_op_ns > Nanos::ZERO && self.sfu_lane_ns() == Nanos::ZERO {
            return Err(CoreError::InvalidConfig(format!(
                "energy model: sfu_op_ns {} rounds to a zero {SFU_LANES}-lane share",
                self.energy.sfu_op_ns
            )));
        }
        let e = &self.energy;
        let row_ns = e
            .row_program_ns(1)
            .max(e.row_program_ns(self.mac_geometry.cols));
        if !(row_ns * rows + e.verify_read_ns * rows).is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "energy model: programming a full {rows}-row block ({row_ns} ns a row) \
                 overflows the modeled time range"
            )));
        }
        self.fault
            .validate()
            .map_err(|e| CoreError::InvalidConfig(format!("fault model: {e}")))?;
        if !self.fault.is_none() && self.recovery.spare_rows >= self.cam_geometry.rows {
            return Err(CoreError::InvalidConfig(format!(
                "recovery: {} spare rows leave no usable rows in a {}-row bank",
                self.recovery.spare_rows, self.cam_geometry.rows
            )));
        }
        Ok(())
    }

    /// Edges resident across all banks at once (`num_banks × cam rows`,
    /// saturating at `usize::MAX`).
    pub fn resident_edges(&self) -> usize {
        self.num_banks.saturating_mul(self.cam_geometry.rows)
    }

    /// Time to stream `bytes` from storage into the compute arrays.
    pub fn stream_ns(&self, bytes: u64) -> Nanos {
        Nanos::from_ns(bytes as f64 / self.stream_bandwidth_gbps)
    }

    /// Time to stream one edge record, rounded once: a block of `n` edges
    /// streams in exactly `n` times this.
    pub fn edge_stream_ns(&self) -> Nanos {
        self.stream_ns(self.edge_record_bytes)
    }

    /// One SFU operation's share of time on one of the [`SFU_LANES`]
    /// lanes, rounded once.
    pub fn sfu_lane_ns(&self) -> Nanos {
        self.energy.sfu_op_ns / SFU_LANES
    }
}

impl Default for GaasXConfig {
    fn default() -> Self {
        GaasXConfig::paper()
    }
}

/// One row of the paper's Table I component inventory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentSpec {
    /// Component name.
    pub name: &'static str,
    /// Configuration string as printed in the table.
    pub configuration: &'static str,
    /// Area in mm² × 10⁻³ (the table's unit).
    pub area_milli_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

/// The Table I inventory, verbatim from the paper.
pub fn table1_components() -> Vec<ComponentSpec> {
    vec![
        ComponentSpec {
            name: "MAC crossbar",
            configuration: "128x16x8, 2-bits/cell, number: 2048",
            area_milli_mm2: 51.2,
            power_mw: 307.20,
        },
        ComponentSpec {
            name: "DAC",
            configuration: "2-bit, number: 256x2048",
            area_milli_mm2: 0.08,
            power_mw: 1.64,
        },
        ComponentSpec {
            name: "S&H",
            configuration: "number: 1152x2048",
            area_milli_mm2: 72.00,
            power_mw: 2.56,
        },
        ComponentSpec {
            name: "ADC",
            configuration: "6-bit, 1.2GSps, number: 512",
            area_milli_mm2: 300.80,
            power_mw: 328.96,
        },
        ComponentSpec {
            name: "CAM crossbar",
            configuration: "128x128, 1-bit/cell, number: 2048",
            area_milli_mm2: 80.00,
            power_mw: 614.40,
        },
        ComponentSpec {
            name: "Central controller",
            configuration: "",
            area_milli_mm2: 1650.00,
            power_mw: 50.00,
        },
        ComponentSpec {
            name: "SFU",
            configuration: "",
            area_milli_mm2: 286.72,
            power_mw: 33.87,
        },
        ComponentSpec {
            name: "Output buffer",
            configuration: "64 KB",
            area_milli_mm2: 25.60,
            power_mw: 34.88,
        },
        ComponentSpec {
            name: "Input buffer",
            configuration: "16 KB",
            area_milli_mm2: 6.40,
            power_mw: 8.72,
        },
        ComponentSpec {
            name: "Attribute buffer",
            configuration: "512 KB",
            area_milli_mm2: 204.80,
            power_mw: 279.04,
        },
    ]
}

/// Total accelerator area in mm² (paper: 2.69 mm²).
pub fn table1_total_area_mm2() -> f64 {
    table1_components()
        .iter()
        .map(|c| c.area_milli_mm2)
        .sum::<f64>()
        / 1_000.0
}

/// Total accelerator power in W (paper: 1.66 W).
pub fn table1_total_power_w() -> f64 {
    table1_components().iter().map(|c| c.power_mw).sum::<f64>() / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        GaasXConfig::paper().validate().unwrap();
        GaasXConfig::small().validate().unwrap();
    }

    #[test]
    fn deep_bank_config_matches_paper_capacity() {
        let deep = GaasXConfig::deep_bank();
        deep.validate().unwrap();
        assert_eq!(deep.resident_edges(), GaasXConfig::paper().resident_edges());
        assert_eq!(deep.cam_geometry.rows, deep.mac_geometry.rows);
    }

    #[test]
    fn paper_capacity() {
        assert_eq!(GaasXConfig::paper().resident_edges(), 2048 * 128);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = GaasXConfig::paper();
        c.num_banks = 0;
        assert!(c.validate().is_err());
        let mut c = GaasXConfig::paper();
        c.cam_geometry.rows = 64;
        assert!(c.validate().is_err());
        let mut c = GaasXConfig::paper();
        c.stream_bandwidth_gbps = 0.0;
        assert!(c.validate().is_err());
        let mut c = GaasXConfig::paper();
        c.noise_sigma = -1.0;
        assert!(c.validate().is_err());
        let mut c = GaasXConfig::paper();
        c.fault.mac_stuck_ber = 2.0;
        assert!(c.validate().is_err());
        // MAC resolutions whose quantized burst would overflow.
        for (dac, cell, slices, adc) in [(32, 2, 8, 6), (2, 32, 1, 6), (2, 2, 8, 64)] {
            let mut c = GaasXConfig::paper();
            c.mac_geometry.dac_bits = dac;
            c.mac_geometry.bits_per_cell = cell;
            c.mac_geometry.slices = slices;
            c.mac_geometry.adc_bits = adc;
            assert!(
                matches!(c.validate(), Err(CoreError::InvalidConfig(_))),
                "dac {dac} cell {cell}x{slices} adc {adc}"
            );
        }
        let mut c = GaasXConfig::paper();
        c.fault.cam_stuck_ber = 1e-4;
        c.recovery.spare_rows = 128;
        assert!(c.validate().is_err(), "spares must leave usable rows");
        c.recovery.spare_rows = 16;
        c.validate().unwrap();

        // Extreme values past the simple range checks: each is rejected
        // by both `validate` and `run`, or runs to a report whose phases
        // sum to the makespan exactly.
        use crate::algorithms::{Bfs, PageRank};
        use crate::GaasX;
        type Set = fn(&mut GaasXConfig);
        let extremes: [(&str, Set); 5] = [
            ("edge_record_bytes = u64::MAX", |c| {
                c.edge_record_bytes = u64::MAX
            }),
            ("stream_bandwidth_gbps = MIN_POSITIVE", |c| {
                c.stream_bandwidth_gbps = f64::MIN_POSITIVE
            }),
            ("stream_bandwidth_gbps = 1e-300", |c| {
                c.stream_bandwidth_gbps = 1e-300
            }),
            ("stream_bandwidth_gbps = 1e-20", |c| {
                c.stream_bandwidth_gbps = 1e-20
            }),
            ("num_banks = usize::MAX", |c| c.num_banks = usize::MAX),
        ];
        let graph = gaasx_graph::generators::rmat(
            &gaasx_graph::generators::RmatConfig::new(64, 400).with_seed(3),
        )
        .unwrap();
        let pagerank = PageRank::fixed_iterations(3);
        let bfs = Bfs::from_source(gaasx_graph::VertexId::new(0));
        for (name, set) in extremes {
            let mut c = GaasXConfig::small();
            set(&mut c);
            let runs = [
                GaasX::new(c.clone())
                    .run(&pagerank, &graph)
                    .map(|o| o.report),
                GaasX::new(c.clone()).run(&bfs, &graph).map(|o| o.report),
            ];
            if c.validate().is_err() {
                for run in runs {
                    assert!(
                        matches!(run, Err(CoreError::InvalidConfig(_))),
                        "{name}: run must fail as InvalidConfig"
                    );
                }
                continue;
            }
            for run in runs {
                let report = run.unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    report.phases_total_sched_ns(),
                    report.elapsed_ns,
                    "{name}: phases must sum to the makespan"
                );
            }
        }
    }

    #[test]
    fn energy_fields_must_be_finite_and_non_negative() {
        use crate::algorithms::PageRank;
        use crate::GaasX;
        use gaasx_sim::Picojoules;
        type Set = fn(&mut DeviceEnergyModel, f64);
        let fields: [(&str, Set); 13] = [
            ("mac_op_pj", |m, v| m.mac_op_pj = Picojoules::from_pj(v)),
            ("mac_op_ns", |m, v| m.mac_op_ns = Nanos::from_ns(v)),
            ("cam_search_pj", |m, v| {
                m.cam_search_pj = Picojoules::from_pj(v)
            }),
            ("cam_search_ns", |m, v| m.cam_search_ns = Nanos::from_ns(v)),
            ("cell_write_pj", |m, v| {
                m.cell_write_pj = Picojoules::from_pj(v)
            }),
            ("cam_bit_write_pj", |m, v| {
                m.cam_bit_write_pj = Picojoules::from_pj(v)
            }),
            ("row_write_ns", |m, v| m.row_write_ns = Nanos::from_ns(v)),
            ("value_program_ns", |m, v| {
                m.value_program_ns = Nanos::from_ns(v)
            }),
            ("verify_read_pj", |m, v| {
                m.verify_read_pj = Picojoules::from_pj(v)
            }),
            ("verify_read_ns", |m, v| {
                m.verify_read_ns = Nanos::from_ns(v)
            }),
            ("sfu_op_pj", |m, v| m.sfu_op_pj = Picojoules::from_pj(v)),
            ("sfu_op_ns", |m, v| m.sfu_op_ns = Nanos::from_ns(v)),
            ("static_mw", |m, v| m.static_mw = v),
        ];
        let graph = gaasx_graph::generators::rmat(
            &gaasx_graph::generators::RmatConfig::new(64, 400).with_seed(3),
        )
        .unwrap();
        let pagerank = PageRank::fixed_iterations(3);
        for (name, set) in fields {
            for bad in [f64::NAN, -1.0, f64::INFINITY] {
                let mut c = GaasXConfig::small();
                set(&mut c.energy, bad);
                match c.validate() {
                    Err(CoreError::InvalidConfig(msg)) => assert!(msg.contains(name), "{msg}"),
                    other => panic!("{name} = {bad}: validate gave {other:?}"),
                }
                let run = GaasX::new(c).run(&pagerank, &graph);
                assert!(
                    matches!(run, Err(CoreError::InvalidConfig(_))),
                    "{name} = {bad}: run must fail as InvalidConfig"
                );
            }
            // Zero is a legal sensitivity point (the write-cost ablation
            // sweeps value_program_ns down to 0).
            let mut c = GaasXConfig::small();
            set(&mut c.energy, 0.0);
            c.validate().unwrap();
        }
    }

    #[test]
    fn constants_must_round_to_ticks_and_fit_a_full_block() {
        // Each setting is finite and non-negative, yet a nonzero constant
        // rounds to zero ticks or a full 128-row block's stream or program
        // time overflows the modeled range.
        type Set = fn(&mut GaasXConfig);
        let cases: [(&str, &str, Set); 6] = [
            ("edge stream rounds to 0 fs", "half a femtosecond", |c| {
                c.stream_bandwidth_gbps = 1e20
            }),
            ("static power rounds to 0 aJ/ns", "zero attojoules", |c| {
                c.energy.static_mw = 1e-7
            }),
            ("sfu lane share rounds to 0 fs", "zero 16-lane share", |c| {
                c.energy.sfu_op_ns = Nanos::from_ns(7e-6)
            }),
            ("block stream overflows", "past the modeled range", |c| {
                c.stream_bandwidth_gbps = 1e-11
            }),
            ("block program overflows", "overflows", |c| {
                c.energy.value_program_ns = Nanos::from_ns(1e10)
            }),
            ("block verify overflows", "overflows", |c| {
                c.energy.verify_read_ns = Nanos::from_ns(1e11)
            }),
        ];
        let graph = gaasx_graph::generators::rmat(
            &gaasx_graph::generators::RmatConfig::new(64, 400).with_seed(3),
        )
        .unwrap();
        for (name, want, set) in cases {
            let mut c = GaasXConfig::small();
            set(&mut c);
            match c.validate() {
                Err(CoreError::InvalidConfig(msg)) => assert!(msg.contains(want), "{name}: {msg}"),
                other => panic!("{name}: validate gave {other:?}"),
            }
            let run =
                crate::GaasX::new(c).run(&crate::algorithms::PageRank::fixed_iterations(2), &graph);
            assert!(
                matches!(run, Err(CoreError::InvalidConfig(_))),
                "{name}: run must fail as InvalidConfig"
            );
        }
        // One tick is enough: 8 fs of SFU time is a 0.5 fs lane share,
        // which rounds up to 1 fs.
        let mut c = GaasXConfig::small();
        c.energy.sfu_op_ns = Nanos::from_fs(8);
        c.validate().unwrap();
        assert_eq!(c.sfu_lane_ns(), Nanos::from_fs(1));
    }

    #[test]
    fn paper_stream_and_sfu_shares_are_exact() {
        let c = GaasXConfig::paper();
        assert_eq!(c.edge_stream_ns(), Nanos::from_fs(93_750));
        assert_eq!(c.sfu_lane_ns(), Nanos::from_fs(62_500));
    }

    #[test]
    fn recovery_policy_presets() {
        assert_eq!(RecoveryPolicy::off(), RecoveryPolicy::default());
        assert!(!RecoveryPolicy::off().write_verify);
        let std = RecoveryPolicy::standard();
        assert!(std.write_verify && std.cam_double_check);
        assert!(std.retry_budget > 0 && std.spare_rows > 0);
        let detect = RecoveryPolicy::detect_only();
        assert!(detect.write_verify);
        assert_eq!(detect.retry_budget, 0);
        assert_eq!(detect.spare_rows, 0);
    }

    #[test]
    fn fault_fields_default_to_off() {
        // The fault/recovery fields are additive: a paper() config carries
        // no faults and the all-off recovery policy.
        let c = GaasXConfig::paper();
        assert!(c.fault.is_none());
        assert_eq!(c.recovery, RecoveryPolicy::off());
    }

    #[test]
    fn table1_totals_match_paper() {
        // Paper: 2.69 mm² and 1.66 W (the printed component areas sum to
        // 2.678 mm²; the paper's own total rounds to 2.69).
        assert!((table1_total_area_mm2() - 2.69).abs() < 0.02);
        assert!((table1_total_power_w() - 1.66).abs() < 0.01);
    }

    #[test]
    fn stream_time_scales() {
        let c = GaasXConfig::paper();
        // 128 bytes at 128 GB/s = 1 ns.
        assert_eq!(c.stream_ns(128), Nanos::from_ns(1.0));
    }
}
