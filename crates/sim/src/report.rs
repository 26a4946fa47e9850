//! Canonical run reports produced by every engine (GaaS-X and baselines).

use serde::{Deserialize, Serialize};

use crate::energy::EnergyBreakdown;
use crate::histogram::Histogram;
use crate::obs::PhaseBreakdown;
use crate::units::{Nanojoules, Nanos};

/// Operation counts of one run, summed over all hardware units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpSummary {
    /// Analog MAC bursts.
    pub mac_ops: u64,
    /// CAM searches.
    pub cam_searches: u64,
    /// ReRAM cells programmed.
    pub cells_written: u64,
    /// Row-programming bursts.
    pub row_writes: u64,
    /// Write-verify read-backs issued by the fault-recovery layer (zero for
    /// engines without write-verify, or when it is disabled).
    #[serde(default)]
    pub verify_reads: u64,
    /// Scalar SFU operations.
    pub sfu_ops: u64,
    /// On-chip buffer word accesses.
    pub buffer_accesses: u64,
    /// Useful multiply-accumulate *work items* (edge computations); for
    /// dense engines this includes the redundant zero-cell computations,
    /// which is exactly the Fig 5 comparison.
    pub compute_items: u64,
}

impl OpSummary {
    /// An all-zero summary.
    #[must_use]
    pub fn new() -> Self {
        OpSummary::default()
    }

    /// Adds another summary into this one.
    pub fn merge(&mut self, other: &OpSummary) {
        self.mac_ops = self.mac_ops.saturating_add(other.mac_ops);
        self.cam_searches = self.cam_searches.saturating_add(other.cam_searches);
        self.cells_written = self.cells_written.saturating_add(other.cells_written);
        self.row_writes = self.row_writes.saturating_add(other.row_writes);
        self.verify_reads = self.verify_reads.saturating_add(other.verify_reads);
        self.sfu_ops = self.sfu_ops.saturating_add(other.sfu_ops);
        self.buffer_accesses = self.buffer_accesses.saturating_add(other.buffer_accesses);
        self.compute_items = self.compute_items.saturating_add(other.compute_items);
    }
}

impl std::ops::Add for OpSummary {
    type Output = OpSummary;

    fn add(mut self, rhs: OpSummary) -> OpSummary {
        self.merge(&rhs);
        self
    }
}

impl std::ops::AddAssign for OpSummary {
    fn add_assign(&mut self, rhs: OpSummary) {
        self.merge(&rhs);
    }
}

impl std::iter::Sum for OpSummary {
    fn sum<I: Iterator<Item = OpSummary>>(iter: I) -> OpSummary {
        iter.fold(OpSummary::new(), |acc, o| acc + o)
    }
}

impl<'a> std::iter::Sum<&'a OpSummary> for OpSummary {
    fn sum<I: Iterator<Item = &'a OpSummary>>(iter: I) -> OpSummary {
        iter.copied().sum()
    }
}

/// Fault-recovery activity of one run: what the engine *detected* and how it
/// recovered, as opposed to what the device layer injected.
///
/// All-zero (the default) for fault-free runs and for engines without a
/// recovery layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Write-verify read-backs issued (mirrors `OpSummary::verify_reads`).
    pub verify_reads: u64,
    /// Verify mismatches detected (each is a corrupted CAM entry or MAC row
    /// caught before it could poison results).
    pub faults_detected: u64,
    /// Row re-programming attempts after a verify mismatch.
    pub write_retries: u64,
    /// Rows retired to spares after exhausting their retry budget.
    pub row_remaps: u64,
    /// CAM searches that were issued as majority votes: three rounds, and
    /// up to nine while the rounds disagree.
    pub cam_double_checks: u64,
}

impl FaultReport {
    /// `true` when no recovery activity was recorded.
    pub fn is_zero(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Adds another report into this one.
    pub fn merge(&mut self, other: &FaultReport) {
        self.verify_reads = self.verify_reads.saturating_add(other.verify_reads);
        self.faults_detected = self.faults_detected.saturating_add(other.faults_detected);
        self.write_retries = self.write_retries.saturating_add(other.write_retries);
        self.row_remaps = self.row_remaps.saturating_add(other.row_remaps);
        self.cam_double_checks = self
            .cam_double_checks
            .saturating_add(other.cam_double_checks);
    }
}

/// The result record of one algorithm execution on one engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Engine name ("gaasx", "graphr", "cpu-gridgraph", ...).
    pub engine: String,
    /// Algorithm name ("pagerank", "sssp", ...).
    pub algorithm: String,
    /// Workload label (dataset abbreviation).
    pub workload: String,
    /// Iterations / supersteps executed.
    pub iterations: u32,
    /// Modeled (or measured) execution time in nanoseconds.
    pub elapsed_ns: Nanos,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Operation counts.
    pub ops: OpSummary,
    /// Rows activated per MAC op (Fig 13); empty for non-crossbar engines.
    pub rows_per_mac: Histogram,
    /// Edges in the processed workload (for throughput derivation).
    pub num_edges: u64,
    /// Per-phase share of the run. Engines that attribute their makespan
    /// populate this at `finish`; the `sched_ns` entries sum to
    /// `elapsed_ns`. Empty for engines that predate the tracing layer.
    #[serde(default)]
    pub phases: Vec<PhaseBreakdown>,
    /// Fault-recovery activity (all-zero for fault-free runs and engines
    /// without a recovery layer).
    #[serde(default)]
    pub faults: FaultReport,
    /// Per-bank utilization derived from the occupancy timeline, present
    /// only when the run recorded one (an interval-observing sink was
    /// attached — see [`crate::timeline`]). Its `phase_busy_ns` conserves
    /// the `phases` busy attribution bit-exactly.
    #[serde(default)]
    pub utilization: Option<crate::timeline::UtilizationReport>,
}

impl RunReport {
    /// Creates an empty report shell for an engine/algorithm/workload.
    pub fn new(
        engine: impl Into<String>,
        algorithm: impl Into<String>,
        workload: impl Into<String>,
    ) -> Self {
        RunReport {
            engine: engine.into(),
            algorithm: algorithm.into(),
            workload: workload.into(),
            iterations: 0,
            elapsed_ns: Nanos::ZERO,
            energy: EnergyBreakdown::new(),
            ops: OpSummary::default(),
            rows_per_mac: Histogram::new(16),
            num_edges: 0,
            phases: Vec::new(),
            faults: FaultReport::default(),
            utilization: None,
        }
    }

    /// The per-phase entry for `phase`, if the engine recorded one.
    pub fn phase(&self, phase: crate::obs::Phase) -> Option<&PhaseBreakdown> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Sum of the per-phase makespan shares (equals `elapsed_ns` when the
    /// engine attributed its schedule; 0 when `phases` is empty).
    pub fn phases_total_sched_ns(&self) -> Nanos {
        self.phases.iter().map(|p| p.sched_ns).sum()
    }

    /// Execution time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.elapsed_ns.ns() / 1e6
    }

    /// Execution time in seconds.
    pub fn time_s(&self) -> f64 {
        self.elapsed_ns.ns() / 1e9
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Edge throughput in edges/second over the whole run (all iterations).
    pub fn edges_per_second(&self) -> f64 {
        if self.elapsed_ns == Nanos::ZERO {
            return 0.0;
        }
        self.num_edges.saturating_mul(self.iterations as u64) as f64 / self.time_s()
    }

    /// How many times faster this run is than `other`
    /// (`other.time / self.time`).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        if self.elapsed_ns == Nanos::ZERO {
            return f64::INFINITY;
        }
        other.elapsed_ns / self.elapsed_ns
    }

    /// How many times less energy this run used than `other`.
    pub fn energy_savings_over(&self, other: &RunReport) -> f64 {
        let own = self.energy.total_nj();
        if own == Nanojoules::ZERO {
            return f64::INFINITY;
        }
        other.energy.total_nj() / own
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ns: f64, mac_nj: f64) -> RunReport {
        let mut r = RunReport::new("e", "a", "w");
        r.elapsed_ns = Nanos::from_ns(ns);
        r.energy.mac_nj = Nanojoules::from_nj(mac_nj);
        r.iterations = 1;
        r.num_edges = 1000;
        r
    }

    #[test]
    fn conversions() {
        let r = report(2e6, 3e6);
        assert!((r.time_ms() - 2.0).abs() < 1e-12);
        assert!((r.energy_mj() - 3.0).abs() < 1e-12);
        assert!((r.edges_per_second() - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn comparisons() {
        let fast = report(1e6, 1e6);
        let slow = report(7e6, 22e6);
        assert!((fast.speedup_over(&slow) - 7.0).abs() < 1e-12);
        assert!((fast.energy_savings_over(&slow) - 22.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_is_infinite_speedup() {
        let z = report(0.0, 0.0);
        let other = report(1.0, 1.0);
        assert!(z.speedup_over(&other).is_infinite());
        assert_eq!(z.edges_per_second(), 0.0);
    }

    #[test]
    fn op_summary_merge() {
        let mut a = OpSummary {
            mac_ops: 1,
            compute_items: 10,
            ..Default::default()
        };
        a.merge(&OpSummary {
            mac_ops: 2,
            sfu_ops: 5,
            ..Default::default()
        });
        assert_eq!(a.mac_ops, 3);
        assert_eq!(a.sfu_ops, 5);
        assert_eq!(a.compute_items, 10);
    }

    #[test]
    fn op_summary_sum_and_add_assign() {
        let unit = OpSummary {
            mac_ops: 2,
            buffer_accesses: 3,
            ..OpSummary::new()
        };
        let total: OpSummary = [unit, unit].iter().sum();
        assert_eq!(total.mac_ops, 4);
        assert_eq!(total.buffer_accesses, 6);
        let mut acc = OpSummary::new();
        acc += unit;
        acc += total;
        assert_eq!(acc.mac_ops, 6);
        let empty: OpSummary = std::iter::empty::<OpSummary>().sum();
        assert_eq!(empty, OpSummary::new());
    }

    #[test]
    fn phase_lookup_and_sched_total() {
        use crate::obs::{Phase, PhaseBreakdown};
        let mut r = report(10.0, 0.0);
        assert_eq!(r.phase(Phase::Sfu), None);
        assert_eq!(r.phases_total_sched_ns(), Nanos::ZERO);
        r.phases = vec![
            PhaseBreakdown {
                phase: Phase::LoadBlock,
                sched_ns: Nanos::from_ns(6.0),
                busy_ns: Nanos::from_ns(12.0),
                count: 2,
            },
            PhaseBreakdown {
                phase: Phase::Sfu,
                sched_ns: Nanos::from_ns(4.0),
                busy_ns: Nanos::from_ns(4.0),
                count: 8,
            },
        ];
        assert_eq!(r.phase(Phase::Sfu).unwrap().count, 8);
        assert!((r.phases_total_sched_ns().ns() - 10.0).abs() < 1e-12);
    }
}
