//! The one-shot workloads: one algorithm run on one RMAT graph, repeated
//! closed-loop (the next run starts when the previous one returns).

use std::time::{Duration, Instant};

use gaasx_baselines::reference;
use gaasx_core::engine::Engine;
use gaasx_core::{GaasXConfig, RecoveryPolicy, ShardedEngine};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::{CooGraph, VertexId};
use gaasx_sim::{RunReport, Tracer};
use gaasx_xbar::FaultModel;

use crate::heap;
use crate::layers::{device_metrics, overlap_ratio, time_partition, LayerSamples};
use crate::stats::{median, min_samples_for, percentile, Calibration, Timing};
use crate::timed::{
    one_shot_label, run_cold, run_warm, same_report, timed_drop, Exec, Job, Output,
};
use crate::{sample_loop, Outcome, Tally, MIN_TRACED, SETUP_REPS};

#[derive(Debug, Clone, Copy)]
enum Algo {
    PageRank,
    Bfs,
    Sssp,
}

#[derive(Debug, Clone)]
struct Spec {
    config: GaasXConfig,
    jobs: usize,
    algo: Algo,
    vertices: u32,
    edges: usize,
    pagerank_iterations: u32,
}

impl Spec {
    fn new(name: &str, smoke: bool) -> Option<Spec> {
        let (config, jobs, algo) = match name {
            "pagerank-paper" => (GaasXConfig::paper(), 1, Algo::PageRank),
            "bfs-deep-j2" => (GaasXConfig::deep_bank(), 2, Algo::Bfs),
            "sssp-faults" => (
                GaasXConfig {
                    fault: FaultModel {
                        seed: 0xBE05,
                        cam_stuck_ber: 1e-4,
                        mac_stuck_ber: 1e-4,
                        write_fail_rate: 1e-3,
                        ..FaultModel::none()
                    },
                    recovery: RecoveryPolicy::standard(),
                    ..GaasXConfig::paper()
                },
                1,
                Algo::Sssp,
            ),
            _ => return None,
        };
        let (vertices, edges, pagerank_iterations) = if smoke {
            (2048, 16_000, 3)
        } else {
            (32_768, 300_000, 10)
        };
        Some(Spec {
            config,
            jobs,
            algo,
            vertices,
            edges,
            pagerank_iterations,
        })
    }

    fn generate(&self, seed: u64) -> Result<CooGraph, String> {
        rmat(&RmatConfig::new(self.vertices, self.edges).with_seed(seed)).map_err(|e| e.to_string())
    }

    /// Traversals start from the highest out-degree vertex (lowest id on
    /// ties), so every seed reaches most of the graph.
    fn job(&self, graph: &CooGraph) -> Job {
        let degrees = graph.out_degrees();
        let hub = (0..degrees.len())
            .max_by_key(|&v| (degrees[v], std::cmp::Reverse(v)))
            .unwrap_or(0) as u32;
        match self.algo {
            Algo::PageRank => Job::PageRank {
                iterations: self.pagerank_iterations,
            },
            Algo::Bfs => Job::Bfs { source: hub },
            Algo::Sssp => Job::Sssp { source: hub },
        }
    }
}

/// The oracle answer and how close a device answer must come to it.
struct Oracle {
    want: Vec<f64>,
    /// `None`: exact equality. `Some(t)`: within `t · max(|want|, 1)`.
    tolerance: Option<f64>,
}

impl Oracle {
    fn new(job: &Job, graph: &CooGraph) -> Oracle {
        match job {
            Job::PageRank { iterations } => Oracle {
                want: reference::pagerank(graph, 0.85, *iterations),
                tolerance: Some(0.05),
            },
            Job::Bfs { source } => Oracle {
                want: reference::bfs(graph, VertexId::new(*source)),
                tolerance: None,
            },
            Job::Sssp { source } => Oracle {
                want: reference::dijkstra(graph, VertexId::new(*source)),
                tolerance: None,
            },
            other => unreachable!("no one-shot oracle for {other:?}"),
        }
    }

    fn check(&self, out: &Output) -> Result<(), String> {
        let [got] = out.values.as_slice() else {
            return Err(format!("{} value vectors, want 1", out.values.len()));
        };
        if got.len() != self.want.len() {
            return Err(format!("{} values, want {}", got.len(), self.want.len()));
        }
        for (v, (g, w)) in got.iter().zip(&self.want).enumerate() {
            let ok = match self.tolerance {
                None => g == w,
                Some(t) => (g - w).abs() <= t * w.abs().max(1.0),
            };
            if !ok {
                return Err(format!("vertex {v}: got {g}, oracle {w}"));
            }
        }
        Ok(())
    }
}

struct Inputs {
    spec: Spec,
    graph: CooGraph,
    job: Job,
    oracle: Oracle,
    /// Each input generation.
    setup: Vec<Timing>,
}

fn prepare(spec: Spec, seed: u64, cal: &mut Calibration) -> Result<Inputs, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        let at = cal.sample();
        let t = Instant::now();
        let g = spec.generate(seed)?;
        setup.push((t.elapsed().as_secs_f64(), at));
        graph = Some(g);
    }
    let graph = graph.ok_or("no set-up repetition ran")?;
    let job = spec.job(&graph);
    let oracle = Oracle::new(&job, &graph);
    Ok(Inputs {
        spec,
        graph,
        job,
        oracle,
        setup,
    })
}

impl Inputs {
    /// The library's one-shot run, checked against the oracle and, when
    /// given, against the first run's report.
    fn library_run(&self, reference: Option<&str>) -> Result<RunReport, String> {
        let (out, report) = self
            .job
            .run_library(&self.spec.config, self.spec.jobs, &self.graph)
            .map_err(|e| e.to_string())?;
        self.oracle.check(&out)?;
        if let Some(want) = reference {
            if format!("{report:?}") != want {
                return Err("modeled report differs from the first run".into());
            }
        }
        Ok(report)
    }
}

pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let spec =
        Spec::new(name, smoke).ok_or_else(|| format!("unknown one-shot workload `{name}`"))?;
    let mut cal = Calibration::default();
    let inputs = prepare(spec, seed, &mut cal)?;
    // Warm-up run: fills caches and records the reference report.
    let reference = inputs.library_run(None)?;
    if trace {
        if inputs.spec.jobs == 1 {
            traced::<Engine>(&inputs, &reference, seconds, cal)
        } else {
            traced::<ShardedEngine>(&inputs, &reference, seconds, cal)
        }
    } else {
        // The p75 needs 40 runs; a smoke run only checks answers.
        let min_runs = if smoke { 3 } else { min_samples_for(0.75) };
        untraced(&inputs, &reference, seconds, min_runs, cal)
    }
}

fn untraced(
    inputs: &Inputs,
    reference: &RunReport,
    seconds: f64,
    min_runs: usize,
    mut cal: Calibration,
) -> Result<Outcome, String> {
    let want = format!("{reference:?}");
    let mut tally = Tally::default();
    let heap_base = heap::mark();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let runs = sample_loop(&mut cal, deadline, min_runs, |_| {
        let t = Instant::now();
        let r = inputs.library_run(Some(&want));
        let dt = t.elapsed().as_secs_f64();
        tally.record(r.map(|_| ()));
        dt
    });
    let run_s = cal.refs(&runs);
    let p = |q| percentile(&run_s, q).unwrap_or(f64::NAN);
    let modeled_us = reference.elapsed_ns.ns() / 1e3;
    let metrics = vec![
        ("run_s_p50", p(0.5)),
        ("run_s_p75", p(0.75)),
        ("qps", 1.0 / p(0.5)),
        ("latency_p50_us", modeled_us),
        ("latency_p99_us", modeled_us),
        (
            "energy_uj_per_query",
            reference.energy.total_nj().nj() / 1e3,
        ),
        ("setup_s", cal.median_ref(&inputs.setup)),
        ("peak_heap_mb", heap::peak_above_mb(heap_base)),
    ];
    Ok(Outcome { tally, metrics })
}

const SERVE_ZEROS: [(&str, f64); 6] = [
    ("serve.queue_wait_share", 0.0),
    ("serve.offered_load", 0.0),
    ("serve.reprograms", 0.0),
    ("serve.capacity_evictions", 0.0),
    ("serve.rejected_overload", 0.0),
    ("serve.retries", 0.0),
];

fn traced<E: Exec>(
    inputs: &Inputs,
    reference: &RunReport,
    seconds: f64,
    mut cal: Calibration,
) -> Result<Outcome, String> {
    let Inputs {
        spec, graph, job, ..
    } = inputs;
    let want = format!("{reference:?}");
    let label = one_shot_label(graph);
    let mut tally = Tally::default();
    let mut layers = LayerSamples::default();
    // The probe run takes longer than the whole measurement on some
    // workloads, so it runs before the measurement starts.
    let overlap = overlap_ratio::<E>(job, graph, &label, &spec.config, spec.jobs)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Each step times an untraced and a traced run, each right after a
    // calibration sample, in alternating order so neither always comes
    // first; the traced run's engine then serves a warm run.
    let mut step = 0usize;
    sample_loop(&mut cal, deadline, MIN_TRACED, |cal| {
        let t = Instant::now();
        for k in 0..2 {
            let at = if k == 0 { cal.latest() } else { cal.sample() };
            if (step + k) % 2 == 0 {
                let t = Instant::now();
                let untraced = inputs.library_run(Some(&want));
                layers.untraced.push((t.elapsed().as_secs_f64(), at));
                tally.record(untraced.map(|_| ()));
                continue;
            }
            let traced = run_cold::<E>(
                job,
                graph,
                &label,
                &spec.config,
                spec.jobs,
                Tracer::null(),
                true,
            )
            .map_err(|e| e.to_string())
            .and_then(|mut run| {
                inputs.oracle.check(&run.output)?;
                if !same_report(&run.report, reference) {
                    return Err("traced report differs from the untraced one".into());
                }
                let warm_at = cal.sample();
                let (out, _, warm) =
                    run_warm(&mut run.exec, job, graph, &label).map_err(|e| e.to_string())?;
                inputs.oracle.check(&out)?;
                layers.warm.push((warm, warm_at));
                let drop_s = timed_drop(run.exec);
                let searches = run.report.ops.cam_searches;
                layers.push(&run.layers, drop_s, searches, time_partition(graph)?, at);
                Ok(())
            });
            tally.record(traced);
        }
        step += 1;
        t.elapsed().as_secs_f64()
    });
    if layers.traced() < MIN_TRACED {
        return Err(format!("only {} traced runs completed", layers.traced()));
    }
    let untraced_raw: Vec<f64> = layers.untraced.iter().map(|&(raw, _)| raw).collect();
    let untraced_p50 = median(&untraced_raw).unwrap_or(f64::NAN);
    let mut metrics = vec![("graph.generate_s", cal.median_ref(&inputs.setup))];
    metrics.extend(layers.metrics(&cal, untraced_p50));
    metrics.extend(device_metrics([reference], overlap));
    metrics.extend(SERVE_ZEROS);
    Ok(Outcome { tally, metrics })
}
