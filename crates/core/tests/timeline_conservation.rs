//! Property tests for the bank-occupancy timeline: for any RMAT graph and
//! any worker count, the [`UtilizationReport`]
//! attached to a traced run must
//!
//! * contain **non-overlapping** intervals per `(bank, lane)` track,
//! * conserve per-phase busy nanoseconds **bit-exactly** against the
//!   report's own phase attribution, and
//! * be bit-identical between the serial engine and [`run_sharded`] at
//!   every job count (the timeline is derived from merged block costs, not
//!   from worker wall clocks).
//!
//! [`run_sharded`]: gaasx_core::GaasX::run_sharded

#![allow(clippy::unwrap_used)]
use std::collections::BTreeMap;
use std::sync::Arc;

use gaasx_core::algorithms::PageRank;
use gaasx_core::{GaasX, GaasXConfig};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::CooGraph;
use gaasx_sim::{Phase, RunReport, TimelineSink, Tracer, UtilizationReport};
use proptest::prelude::*;

fn graph_for(vertex_exp: u32, edges: usize, seed: u64) -> CooGraph {
    rmat(&RmatConfig::new(1 << vertex_exp, edges).with_seed(seed)).unwrap()
}

/// Runs three PageRank iterations with a [`TimelineSink`] attached and
/// returns the report plus the recorded intervals.
fn traced_run(
    graph: &CooGraph,
    jobs: Option<usize>,
) -> (RunReport, Vec<gaasx_sim::TimelineInterval>) {
    let config = GaasXConfig::small();
    let sink = Arc::new(TimelineSink::new());
    let mut accel = GaasX::new(config).with_tracer(Tracer::with_sink(sink.clone()));
    let algorithm = PageRank::fixed_iterations(3);
    let report = match jobs {
        None => accel.run(&algorithm, graph).unwrap().report,
        Some(jobs) => accel.run_sharded(&algorithm, graph, jobs).unwrap().report,
    };
    (report, sink.take())
}

/// Checks the conservation invariant: the utilization attached to `report`
/// reproduces the report's own per-phase busy attribution bit-for-bit.
fn assert_conserves(report: &RunReport) {
    let util = report.utilization.as_ref().unwrap();
    for phase in Phase::ALL {
        let busy = report
            .phase(phase)
            .map_or(gaasx_sim::Nanos::ZERO, |p| p.busy_ns);
        prop_assert_eq!(
            util.phase_busy_ns[phase.index()].ns().to_bits(),
            busy.ns().to_bits(),
            "phase {} diverged: timeline {} vs report {}",
            phase.name(),
            util.phase_busy_ns[phase.index()],
            busy
        );
    }
    prop_assert_eq!(
        util.makespan_ns.ns().to_bits(),
        report.elapsed_ns.ns().to_bits()
    );
}

/// Checks that no two intervals on the same `(bank, lane)` track overlap.
fn assert_non_overlapping(intervals: &[gaasx_sim::TimelineInterval]) {
    let mut cursors: BTreeMap<(u32, u32), gaasx_sim::Nanos> = BTreeMap::new();
    for iv in intervals {
        let cursor = cursors
            .entry((iv.bank, iv.lane))
            .or_insert(gaasx_sim::Nanos::ZERO);
        prop_assert!(
            iv.start_ns >= *cursor,
            "overlap on bank {} lane {}: starts {} before {}",
            iv.bank,
            iv.lane,
            iv.start_ns,
            *cursor
        );
        prop_assert!(
            iv.dur_ns > gaasx_sim::Nanos::ZERO,
            "zero-length interval survived"
        );
        *cursor = iv.start_ns + iv.dur_ns;
    }
}

fn assert_same_utilization(a: &UtilizationReport, b: &UtilizationReport) {
    prop_assert_eq!(a, b, "utilization reports diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn timelines_conserve_and_are_job_count_invariant(
        vertex_exp in 5u32..8,
        edges in 60usize..500,
        seed in 0u64..1_000,
    ) {
        let graph = graph_for(vertex_exp, edges, seed);

        let (serial_report, serial_intervals) = traced_run(&graph, None);
        prop_assert!(serial_report.utilization.is_some());
        assert_conserves(&serial_report);
        assert_non_overlapping(&serial_intervals);

        for jobs in [1usize, 2, 4] {
            let (report, intervals) = traced_run(&graph, Some(jobs));
            assert_conserves(&report);
            assert_non_overlapping(&intervals);
            assert_same_utilization(
                report.utilization.as_ref().unwrap(),
                serial_report.utilization.as_ref().unwrap(),
            );
            prop_assert_eq!(
                &intervals,
                &serial_intervals,
                "interval streams diverged at jobs={}",
                jobs
            );
        }
    }
}
