//! The benchmark's contract: its workloads and the metrics it reports.
//!
//! `BENCHMARK.json` at the repository root repeats these tables; a test
//! keeps the two identical.

/// Reference seconds of one calibration kernel. Every host time is
/// reported as `raw × CAL_REF_S / calibration`, with `calibration` the
/// mean of the kernel samples taken just before and just after it, which
/// divides out the host's current CPU speed. Measured once on an unloaded
/// host, then frozen: changing it rescales every host-time metric.
pub const CAL_REF_S: f64 = 0.031;

/// One workload: a name and why the benchmark runs it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// End-to-end metrics that on this workload follow from another one.
    /// Every workload reports every metric, but `--check` skips these.
    pub derived: &'static [&'static str],
}

/// On a one-shot workload a run is one query at an idle device: `qps` is
/// `1 / run_s_p50`, and every query has the same modeled latency.
const ONE_SHOT_DERIVED: &[&str] = &["qps", "latency_p99_us"];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pagerank-paper",
        why:
            "Dense sweep on 128-row paper banks: CAM programming, packed search and MAC gather do \
              the work; sharding, fault recovery and serving are bypassed.",
        derived: ONE_SHOT_DERIVED,
    },
    Workload {
        name: "bfs-deep-j2",
        why: "Frontier traversal on 2048-row banks with jobs=2: the O(rows) packed scan and the \
              sharded fan-out and merge dominate; the only workload where jobs>1 can pay off.",
        derived: ONE_SHOT_DERIVED,
    },
    Workload {
        name: "sssp-faults",
        why: "SSSP under stuck-cell and write faults with standard recovery: verify reads and \
              three-way CAM votes dominate, and the search memo is off.",
        derived: ONE_SHOT_DERIVED,
    },
    Workload {
        name: "serve-mixed",
        why: "Synthetic mix, not a measured trace: small BFS, SSSP and batch queries with Poisson \
              arrivals on one server over three graphs of which two fit, so graphs get evicted \
              and reprogrammed.",
        // Every pass serves the same number of queries, so `qps` is that
        // number over the pass time.
        derived: &["run_s_p50"],
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. `bound` (end-to-end metrics only) is the share of
/// the previous median by which the metric may worsen before it counts as
/// a regression.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported with tracing off (`--trace 0`).
/// Host-time bounds are the largest allowed: on a shared host, load from
/// other tenants moved `run_s_p50` by up to 25% on identical inputs, which
/// calibration does not remove (see README.md). Modeled metrics and the
/// heap repeat exactly per seed; their bounds are at least three times
/// their spread over ten seeds, which for the queueing tail of
/// `serve-mixed` takes 15%.
pub const END_TO_END: [Metric; 8] = [
    e2e("run_s_p50", "s", Lower, 0.25),
    e2e("run_s_p75", "s", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.1),
    e2e("latency_p99_us", "us", Lower, 0.15),
    e2e("energy_uj_per_query", "uJ", Lower, 0.1),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.1),
];

/// Reported by the separate traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 42] = [
    layer("graph.generate_s", "s", Lower),
    layer("graph.partition_s", "s", Lower),
    layer("core.engine_new_s", "s", Lower),
    layer("core.shard_pass_s", "s", Lower),
    layer("core.shard_cpu_s", "s", Lower),
    layer("core.shard_parallelism", "ratio", Higher),
    layer("core.reduce_s", "s", Lower),
    layer("core.finish_s", "s", Lower),
    layer("core.drop_s", "s", Lower),
    layer("core.unattributed_s", "s", Lower),
    layer("core.cold_run_s", "s", Lower),
    layer("core.warm_run_s", "s", Lower),
    layer("core.host_ns_per_search", "ns", Lower),
    layer("xbar.cam_searches", "count", Lower),
    layer("xbar.mac_ops", "count", Lower),
    layer("xbar.cells_written", "count", Lower),
    layer("xbar.row_writes", "count", Lower),
    layer("xbar.compute_items", "count", Lower),
    layer("xbar.rows_per_mac", "rows", Higher),
    layer("xbar.verify_reads", "count", Lower),
    layer("xbar.faults_detected", "count", Lower),
    layer("xbar.write_retries", "count", Lower),
    layer("xbar.row_remaps", "count", Lower),
    layer("xbar.cam_double_checks", "count", Lower),
    layer("xbar.vote_share", "ratio", Lower),
    layer("sim.busy_us_total", "us", Lower),
    layer("sim.busy_share.load_block", "ratio", Lower),
    layer("sim.busy_share.cam_search", "ratio", Lower),
    layer("sim.busy_share.mac_gather", "ratio", Lower),
    layer("sim.busy_share.mac_propagate", "ratio", Lower),
    layer("sim.busy_share.sfu", "ratio", Lower),
    layer("sim.pipeline_overlap_ratio", "ratio", Higher),
    layer("serve.queue_wait_share", "ratio", Lower),
    layer("serve.offered_load", "ratio", Lower),
    layer("serve.reprograms", "count", Lower),
    layer("serve.capacity_evictions", "count", Lower),
    layer("serve.rejected_overload", "count", Lower),
    layer("serve.retries", "count", Lower),
    layer("host.peak_rss_mb", "MB", Lower),
    layer("host.calib_s", "s", Lower),
    layer("host.run_s_raw_p50", "s", Lower),
    layer("host.trace_overhead", "ratio", Lower),
];

/// The metric table for one mode.
pub fn metrics(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string `{key}`"))
    }

    fn check_metrics(file: &Value, key: &str, want: &[Metric]) {
        let got = file.get(key).and_then(Value::as_array).expect(key);
        assert_eq!(got.len(), want.len(), "{key}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(str_field(g, "name"), w.name);
            assert_eq!(str_field(g, "unit"), w.unit, "{}", w.name);
            assert_eq!(str_field(g, "better"), w.better.name(), "{}", w.name);
            assert_eq!(
                g.get("bound").and_then(Value::as_f64),
                w.bound,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let file = parse(include_str!("../../../../../../BENCHMARK.json")).unwrap();
        let workloads = file.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (g, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_field(g, "name"), w.name);
            assert_eq!(str_field(g, "why"), w.why);
        }
        check_metrics(&file, "end_to_end", &END_TO_END);
        check_metrics(&file, "per_layer", &PER_LAYER);
    }

    #[test]
    fn names_are_unique_and_bounds_are_in_range() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}", w.name);
            for d in w.derived {
                assert!(END_TO_END.iter().any(|m| m.name == *d), "{d}");
            }
        }
    }
}
