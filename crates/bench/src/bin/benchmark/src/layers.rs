//! Per-layer metrics shared by the workloads: host time per layer from
//! the traced runs, and device counts from their reports.

use std::sync::Arc;
use std::time::Instant;

use gaasx_core::engine::partition_for_streaming;
use gaasx_core::GaasXConfig;
use gaasx_graph::CooGraph;
use gaasx_sim::{Phase, RunReport, Sink, SpanEvent, Tracer};

use crate::stats::{median, peak_rss_mb, Calibration, Timing};
use crate::timed::{run_cold, Exec, Job, Layers};

/// Raw layer samples of the traced runs, shared with the serve workload.
/// Each host time keeps the calibration sample taken before its run.
#[derive(Debug, Default)]
pub struct LayerSamples {
    partition: Vec<Timing>,
    engine_new: Vec<Timing>,
    pass: Vec<Timing>,
    shard_cpu: Vec<Timing>,
    parallelism: Vec<f64>,
    reduce: Vec<Timing>,
    finish: Vec<Timing>,
    drop: Vec<Timing>,
    unattributed: Vec<Timing>,
    cold: Vec<Timing>,
    pub warm: Vec<Timing>,
    /// Untraced runs, one per traced run and made in the same step.
    pub untraced: Vec<Timing>,
    /// CAM searches of the traced runs, for host ns per search.
    searches: u64,
}

impl LayerSamples {
    /// Records one traced cold run, timed right after calibration sample
    /// `at`, whose engine took `drop_s` to drop. `partition_s` is
    /// partitioning timed on its own: the algorithm partitions before its
    /// first pass, and what it spends there beyond that is unattributed.
    pub fn push(&mut self, l: &Layers, drop_s: f64, searches: u64, partition_s: f64, at: usize) {
        self.partition.push((partition_s, at));
        self.engine_new.push((l.engine_new, at));
        self.pass.push((l.pass, at));
        self.shard_cpu.push((l.shard_cpu, at));
        self.parallelism.push(if l.pass > 0.0 {
            l.shard_cpu / l.pass
        } else {
            0.0
        });
        self.reduce.push((l.reduce, at));
        self.finish.push((l.finish, at));
        self.drop.push((drop_s, at));
        let unattributed = l.wall - l.engine_new - partition_s - l.pass - l.reduce - l.finish;
        self.unattributed.push((unattributed, at));
        self.cold.push((l.wall + drop_s, at));
        self.searches += searches;
    }

    pub fn traced(&self) -> usize {
        self.cold.len()
    }

    /// The host-time layer metrics, in reference seconds.
    pub fn metrics(&self, cal: &Calibration, untraced_raw_p50: f64) -> Vec<(&'static str, f64)> {
        let r = |v: &[Timing]| cal.median_ref(v);
        let pass_total: f64 = cal.refs(&self.pass).iter().sum();
        // Traced over untraced wall time of the runs made in one step.
        let ratios: Vec<f64> = cal
            .refs(&self.cold)
            .iter()
            .zip(cal.refs(&self.untraced))
            .map(|(t, u)| t / u)
            .collect();
        vec![
            ("graph.partition_s", r(&self.partition)),
            ("core.engine_new_s", r(&self.engine_new)),
            ("core.shard_pass_s", r(&self.pass)),
            ("core.shard_cpu_s", r(&self.shard_cpu)),
            (
                "core.shard_parallelism",
                median(&self.parallelism).unwrap_or(f64::NAN),
            ),
            ("core.reduce_s", r(&self.reduce)),
            ("core.finish_s", r(&self.finish)),
            ("core.drop_s", r(&self.drop)),
            ("core.unattributed_s", r(&self.unattributed)),
            ("core.cold_run_s", r(&self.cold)),
            ("core.warm_run_s", r(&self.warm)),
            (
                "core.host_ns_per_search",
                pass_total * 1e9 / self.searches.max(1) as f64,
            ),
            ("host.peak_rss_mb", peak_rss_mb()),
            ("host.calib_s", cal.median_s()),
            ("host.run_s_raw_p50", untraced_raw_p50),
            (
                "host.trace_overhead",
                median(&ratios).unwrap_or(f64::NAN) - 1.0,
            ),
        ]
    }
}

/// The `xbar.*` and `sim.*` metrics of a summed set of reports.
pub fn device_metrics<'a>(
    reports: impl IntoIterator<Item = &'a RunReport>,
    overlap: f64,
) -> Vec<(&'static str, f64)> {
    let mut ops = gaasx_sim::OpSummary::new();
    let mut faults = gaasx_sim::FaultReport::default();
    let mut rows = gaasx_sim::Histogram::new(16);
    let mut busy = [0.0f64; 7];
    for r in reports {
        ops.merge(&r.ops);
        faults.merge(&r.faults);
        rows.merge(&r.rows_per_mac);
        for p in &r.phases {
            busy[p.phase.index()] += p.busy_ns.ns();
        }
    }
    let total: f64 = busy.iter().sum();
    let share = |p: Phase| {
        if total > 0.0 {
            busy[p.index()] / total
        } else {
            0.0
        }
    };
    let count = |n: u64| n as f64;
    vec![
        ("xbar.cam_searches", count(ops.cam_searches)),
        ("xbar.mac_ops", count(ops.mac_ops)),
        ("xbar.cells_written", count(ops.cells_written)),
        ("xbar.row_writes", count(ops.row_writes)),
        ("xbar.compute_items", count(ops.compute_items)),
        ("xbar.rows_per_mac", rows.mean()),
        ("xbar.verify_reads", count(faults.verify_reads)),
        ("xbar.faults_detected", count(faults.faults_detected)),
        ("xbar.write_retries", count(faults.write_retries)),
        ("xbar.row_remaps", count(faults.row_remaps)),
        ("xbar.cam_double_checks", count(faults.cam_double_checks)),
        (
            "xbar.vote_share",
            count(faults.cam_double_checks) / count(ops.cam_searches.max(1)),
        ),
        ("sim.busy_us_total", total / 1e3),
        ("sim.busy_share.load_block", share(Phase::LoadBlock)),
        ("sim.busy_share.cam_search", share(Phase::CamSearch)),
        ("sim.busy_share.mac_gather", share(Phase::MacGather)),
        ("sim.busy_share.mac_propagate", share(Phase::MacPropagate)),
        ("sim.busy_share.sfu", share(Phase::Sfu)),
        ("sim.pipeline_overlap_ratio", overlap),
    ]
}

/// Observes timeline intervals and keeps none: attaching it makes the
/// engine build its utilization report.
#[derive(Debug)]
struct IntervalProbe;

impl Sink for IntervalProbe {
    fn on_span(&self, _: &SpanEvent) {}

    fn observes_spans(&self) -> bool {
        false
    }

    fn observes_intervals(&self) -> bool {
        true
    }
}

/// One run with [`IntervalProbe`] attached; returns its pipeline-overlap
/// ratio. Building the timeline costs far more host time than the run.
pub fn overlap_ratio<E: Exec>(
    job: &Job,
    graph: &CooGraph,
    workload: &str,
    config: &GaasXConfig,
    jobs: usize,
) -> Result<f64, String> {
    let tracer = Tracer::with_sink(Arc::new(IntervalProbe));
    let run = run_cold::<E>(job, graph, workload, config, jobs, tracer, false)
        .map_err(|e| e.to_string())?;
    run.report
        .utilization
        .map(|u| u.pipeline_overlap_ratio)
        .ok_or_else(|| "probed run carries no utilization report".into())
}

/// Raw seconds of one `partition_for_streaming` of `graph`.
pub fn time_partition(graph: &CooGraph) -> Result<f64, String> {
    let t = Instant::now();
    let grid = partition_for_streaming(graph).map_err(|e| e.to_string())?;
    let s = t.elapsed().as_secs_f64();
    drop(grid);
    Ok(s)
}
