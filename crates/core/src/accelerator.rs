//! The top-level GaaS-X accelerator API.

use gaasx_sim::{RunReport, Tracer};

use crate::algorithms::{Algorithm, ShardableAlgorithm};
use crate::config::GaasXConfig;
use crate::engine::Engine;
use crate::error::CoreError;
use crate::sharded::ShardedEngine;

/// A GaaS-X accelerator instance.
///
/// Owns a configuration and executes algorithms through fresh [`Engine`]
/// instances, so consecutive runs never share device state or statistics.
///
/// ```
/// use gaasx_core::{GaasX, GaasXConfig};
/// use gaasx_core::algorithms::PageRank;
/// use gaasx_graph::generators;
///
/// let mut accel = GaasX::new(GaasXConfig::small());
/// let graph = generators::paper_fig7_graph();
/// let outcome = accel.run(&PageRank::fixed_iterations(5), &graph)?;
/// assert_eq!(outcome.result.len(), 5);
/// assert!(outcome.report.elapsed_ns.ns() > 0.0);
/// # Ok::<(), gaasx_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaasX {
    config: GaasXConfig,
    tracer: Tracer,
}

/// Result of one accelerator run: the algorithm output plus the full
/// timing/energy report.
#[derive(Debug, Clone)]
pub struct RunOutcome<T> {
    /// Algorithm output.
    pub result: T,
    /// Timing, energy, and operation-count report.
    pub report: RunReport,
}

impl GaasX {
    /// Creates an accelerator with the given configuration. The
    /// configuration is validated on the first run.
    pub fn new(config: GaasXConfig) -> Self {
        GaasX {
            config,
            tracer: Tracer::null(),
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &GaasXConfig {
        &self.config
    }

    /// Attaches a tracer that every subsequent run's engine inherits
    /// (builder form).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a tracer that every subsequent run's engine inherits.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Runs an algorithm, labeling the report's workload with a generic
    /// size string.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for invalid configurations or inputs.
    pub fn run<A: Algorithm>(
        &mut self,
        algorithm: &A,
        input: &A::Input,
    ) -> Result<RunOutcome<A::Output>, CoreError> {
        let edges = A::input_edges(input);
        self.run_labeled(algorithm, input, &format!("E{edges}"))
    }

    /// Runs an algorithm with an explicit workload label (e.g. a dataset
    /// abbreviation) for the report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for invalid configurations or inputs.
    pub fn run_labeled<A: Algorithm>(
        &mut self,
        algorithm: &A,
        input: &A::Input,
        workload: &str,
    ) -> Result<RunOutcome<A::Output>, CoreError> {
        let mut engine = Engine::new(self.config.clone())?;
        engine.set_tracer(self.tracer.clone());
        let run = match algorithm.execute(&mut engine, input) {
            Ok(run) => run,
            Err(e) => {
                return Err(Self::attach_partial_report(e, || {
                    engine.finish(
                        "gaasx",
                        algorithm.name(),
                        workload,
                        0,
                        A::input_edges(input),
                    )
                }))
            }
        };
        let report = engine.finish(
            "gaasx",
            algorithm.name(),
            workload,
            run.iterations,
            A::input_edges(input),
        );
        Ok(RunOutcome {
            result: run.output,
            report,
        })
    }

    /// Graceful degradation: an unrecoverable [`CoreError::DeviceFault`]
    /// or deadline [`CoreError::Cancelled`] aborts the algorithm, but the
    /// work done up to the abort still cost time and energy — attach the
    /// partial report `finish` assembles so callers can account for (and
    /// bill) it. Other errors pass through untouched, and `finish` is not
    /// called.
    fn attach_partial_report(e: CoreError, finish: impl FnOnce() -> RunReport) -> CoreError {
        match e {
            CoreError::DeviceFault {
                detail,
                report: None,
            } => CoreError::DeviceFault {
                detail,
                report: Some(Box::new(finish())),
            },
            CoreError::Cancelled {
                detail,
                report: None,
            } => CoreError::Cancelled {
                detail,
                report: Some(Box::new(finish())),
            },
            other => other,
        }
    }

    /// Runs a shardable algorithm with its shard stream fanned out over
    /// `jobs` worker threads (see [`ShardedEngine`]). For noise-free
    /// configurations the merged report is bit-identical to [`GaasX::run`];
    /// only the host wall-clock changes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for invalid configurations or inputs.
    pub fn run_sharded<A: ShardableAlgorithm>(
        &mut self,
        algorithm: &A,
        input: &A::Input,
        jobs: usize,
    ) -> Result<RunOutcome<A::Output>, CoreError> {
        let edges = A::input_edges(input);
        self.run_labeled_sharded(algorithm, input, &format!("E{edges}"), jobs)
    }

    /// [`GaasX::run_sharded`] with an explicit workload label.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for invalid configurations or inputs.
    pub fn run_labeled_sharded<A: ShardableAlgorithm>(
        &mut self,
        algorithm: &A,
        input: &A::Input,
        workload: &str,
        jobs: usize,
    ) -> Result<RunOutcome<A::Output>, CoreError> {
        let mut sharded = ShardedEngine::new(self.config.clone(), jobs)?;
        sharded.set_tracer(self.tracer.clone());
        let run = match algorithm.execute_on(&mut sharded, input) {
            Ok(run) => run,
            Err(e) => {
                return Err(Self::attach_partial_report(e, || {
                    sharded.finish(
                        "gaasx",
                        algorithm.name(),
                        workload,
                        0,
                        A::input_edges(input),
                    )
                }))
            }
        };
        let report = sharded.finish(
            "gaasx",
            algorithm.name(),
            workload,
            run.iterations,
            A::input_edges(input),
        );
        Ok(RunOutcome {
            result: run.output,
            report,
        })
    }
}

impl Default for GaasX {
    fn default() -> Self {
        GaasX::new(GaasXConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, PageRank, Sssp};
    use gaasx_graph::{generators, VertexId};

    #[test]
    fn runs_are_independent() {
        let mut accel = GaasX::new(GaasXConfig::small());
        let g = generators::paper_fig7_graph();
        let a = accel.run(&PageRank::fixed_iterations(3), &g).unwrap();
        let b = accel.run(&PageRank::fixed_iterations(3), &g).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(a.report.ops, b.report.ops);
    }

    #[test]
    fn report_carries_labels() {
        let mut accel = GaasX::new(GaasXConfig::small());
        let g = generators::paper_fig7_graph();
        let out = accel
            .run_labeled(&Sssp::from_source(VertexId::new(0)), &g, "WV")
            .unwrap();
        assert_eq!(out.report.engine, "gaasx");
        assert_eq!(out.report.algorithm, "sssp");
        assert_eq!(out.report.workload, "WV");
        assert_eq!(out.report.num_edges, 8);
        assert!(out.report.iterations >= 1);
    }

    #[test]
    fn bfs_uses_less_write_energy_than_sssp() {
        // On a unit-weight graph BFS and SSSP propagate identically, but
        // BFS skips all MAC cell programming (preset weight columns).
        let mut accel = GaasX::new(GaasXConfig::small());
        let g = generators::rmat(
            &generators::RmatConfig::new(1 << 6, 300)
                .with_max_weight(1)
                .with_seed(4),
        )
        .unwrap();
        let bfs = accel.run(&Bfs::from_source(VertexId::new(0)), &g).unwrap();
        let sssp = accel.run(&Sssp::from_source(VertexId::new(0)), &g).unwrap();
        assert_eq!(bfs.result, sssp.result);
        assert_eq!(bfs.report.iterations, sssp.report.iterations);
        assert!(bfs.report.ops.cells_written < sssp.report.ops.cells_written);
    }

    #[test]
    fn device_noise_degrades_gracefully() {
        // Failure injection: under quantized periphery with conductance
        // noise, PageRank stays usable at 5% sigma and degrades
        // monotonically in error magnitude, never panicking.
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(6)).unwrap();
        let clean = GaasX::new(GaasXConfig::small())
            .run(&PageRank::fixed_iterations(5), &g)
            .unwrap()
            .result;
        let mut errs = Vec::new();
        for sigma in [0.02, 0.20] {
            let noisy = GaasX::new(GaasXConfig {
                fidelity: gaasx_xbar::Fidelity::Quantized,
                noise_sigma: sigma,
                noise_seed: 11,
                ..GaasXConfig::small()
            })
            .run(&PageRank::fixed_iterations(5), &g)
            .unwrap()
            .result;
            let err: f64 = noisy
                .iter()
                .zip(&clean)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / clean.len() as f64;
            errs.push(err);
        }
        assert!(errs[0] < 0.1, "small noise err {}", errs[0]);
        assert!(
            errs[1] >= errs[0],
            "noise should not reduce error: {errs:?}"
        );
    }

    #[test]
    fn pagerank_report_attributes_its_makespan_to_phases() {
        // The tracing-layer acceptance bar: a default (untraced) PageRank
        // run carries a non-empty per-phase breakdown whose scheduled
        // shares sum to `elapsed_ns` within 1% (here: exactly).
        let mut accel = GaasX::new(GaasXConfig::small());
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 500).with_seed(9)).unwrap();
        let out = accel.run(&PageRank::fixed_iterations(3), &g).unwrap();
        let r = &out.report;
        assert!(!r.phases.is_empty());
        let total = r.phases_total_sched_ns();
        assert!(
            (total.ns() - r.elapsed_ns.ns()).abs() <= 0.01 * r.elapsed_ns.ns(),
            "phase sum {total} vs elapsed {}",
            r.elapsed_ns
        );
        assert_eq!(total, r.elapsed_ns, "attribution is exact, not just close");
        for p in &r.phases {
            assert!(p.sched_ns >= gaasx_sim::Nanos::ZERO && p.busy_ns >= gaasx_sim::Nanos::ZERO);
        }
    }

    #[test]
    fn traced_run_streams_jsonl_events() {
        use gaasx_sim::{JsonlSink, Tracer};
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        let mut accel = GaasX::new(GaasXConfig::small()).with_tracer(Tracer::with_sink(Arc::new(
            JsonlSink::to_writer(buf.clone()),
        )));
        let g = generators::paper_fig7_graph();
        accel.run(&PageRank::fixed_iterations(2), &g).unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.lines().any(|l| l.contains("\"phase\":\"load_block\"")));
        assert!(text.lines().any(|l| l.contains("\"phase\":\"dispatch\"")));
        assert!(text.lines().any(|l| l.contains("\"type\":\"counter\"")));
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn sharded_runs_match_serial_bit_for_bit() {
        let mut accel = GaasX::new(GaasXConfig::small());
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 1200).with_seed(5)).unwrap();
        let serial = accel.run(&PageRank::fixed_iterations(3), &g).unwrap();
        for jobs in [1, 2, 4] {
            let sharded = accel
                .run_sharded(&PageRank::fixed_iterations(3), &g, jobs)
                .unwrap();
            assert_eq!(sharded.result, serial.result, "jobs={jobs}");
            assert_eq!(sharded.report.ops, serial.report.ops, "jobs={jobs}");
            assert_eq!(
                sharded.report.elapsed_ns, serial.report.elapsed_ns,
                "jobs={jobs}"
            );
            assert_eq!(
                sharded.report.energy.total_nj(),
                serial.report.energy.total_nj(),
                "jobs={jobs}"
            );
        }
        let sssp_serial = accel.run(&Sssp::from_source(VertexId::new(0)), &g).unwrap();
        let sssp_sharded = accel
            .run_sharded(&Sssp::from_source(VertexId::new(0)), &g, 3)
            .unwrap();
        assert_eq!(sssp_sharded.result, sssp_serial.result);
        assert_eq!(sssp_sharded.report.ops, sssp_serial.report.ops);
        assert_eq!(
            sssp_sharded.report.elapsed_ns,
            sssp_serial.report.elapsed_ns
        );
    }

    #[test]
    fn recovered_run_matches_fault_free_results() {
        use crate::config::RecoveryPolicy;
        use gaasx_xbar::FaultModel;
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 300).with_seed(8)).unwrap();
        let clean = GaasX::new(GaasXConfig::small())
            .run(&PageRank::fixed_iterations(3), &g)
            .unwrap();
        let mut faulty = GaasX::new(GaasXConfig {
            fault: FaultModel {
                cam_stuck_ber: 3e-4,
                mac_stuck_ber: 3e-4,
                write_fail_rate: 0.02,
                seed: 5,
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy::standard(),
            ..GaasXConfig::small()
        });
        let recovered = faulty.run(&PageRank::fixed_iterations(3), &g).unwrap();
        // Stuck cells and transient write failures are fully masked by
        // verify/retry/remap: the scores are exactly the clean ones.
        assert_eq!(recovered.result, clean.result);
        let f = &recovered.report.faults;
        assert!(f.verify_reads > 0, "{f:?}");
        assert!(f.faults_detected > 0, "{f:?}");
        assert!(recovered.report.ops.verify_reads > 0);
        // Recovery is visible in the cost model too: extra programming
        // attempts and verify reads make the run slower than clean.
        assert!(recovered.report.elapsed_ns > clean.report.elapsed_ns);
    }

    #[test]
    fn unrecoverable_fault_returns_partial_report() {
        use crate::config::RecoveryPolicy;
        use crate::error::CoreError;
        use gaasx_xbar::FaultModel;
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 300).with_seed(8)).unwrap();
        let config = GaasXConfig {
            fault: FaultModel {
                cam_stuck_ber: 1e-2,
                seed: 2,
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy::detect_only(),
            ..GaasXConfig::small()
        };
        for sharded in [false, true] {
            let mut accel = GaasX::new(config.clone());
            let err = if sharded {
                accel
                    .run_sharded(&PageRank::fixed_iterations(3), &g, 2)
                    .unwrap_err()
            } else {
                accel.run(&PageRank::fixed_iterations(3), &g).unwrap_err()
            };
            match err {
                CoreError::DeviceFault {
                    report: Some(report),
                    ..
                } => {
                    // The partial report accounts for the aborted work.
                    assert!(report.ops.verify_reads > 0, "sharded={sharded}");
                    assert!(report.faults.faults_detected > 0, "sharded={sharded}");
                }
                other => panic!("want DeviceFault with report, got {other} (sharded={sharded})"),
            }
        }
    }

    #[test]
    fn invalid_config_fails_at_run() {
        let mut config = GaasXConfig::small();
        config.num_banks = 0;
        let mut accel = GaasX::new(config);
        let g = generators::path_graph(3);
        assert!(accel.run(&PageRank::default(), &g).is_err());
    }
}
