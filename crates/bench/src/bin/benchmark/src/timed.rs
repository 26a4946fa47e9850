//! Per-layer host timing taken from outside the library.
//!
//! [`Timed`] wraps any [`ShardRunner`] and times each shard pass (wall
//! time of the pass, plus the summed time of the per-shard closures across
//! workers). [`run_cold`] and [`run_warm`] repeat the steps of
//! `GaasX::run`, `GaasX::run_sharded` and `ResidentGraph::run_query` with
//! a clock around each, so their reports are bit-identical to the
//! library's (the tests below check this).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[cfg(test)]
use gaasx_core::algorithms::ConnectedComponents;
use gaasx_core::algorithms::{Algorithm, Bfs, PageRank, Sssp};
use gaasx_core::engine::Engine;
use gaasx_core::{
    CoreError, GaasX, GaasXConfig, SearchProfile, ShardRunner, ShardableAlgorithm, ShardedEngine,
};
use gaasx_graph::partition::{GridPartition, Shard, TraversalOrder};
use gaasx_graph::{CooGraph, VertexId};
use gaasx_serve::run_batch;
use gaasx_sim::{RunReport, Tracer};

/// A [`ShardRunner`] that times every shard pass of the runner it wraps,
/// and the gaps between passes, where the algorithm reduces and applies
/// the pass results on the primary engine.
#[derive(Debug)]
pub struct Timed<'a, R> {
    inner: &'a mut R,
    pass: Duration,
    between: Duration,
    last_end: Option<Instant>,
    shard_ns: AtomicU64,
}

impl<'a, R: ShardRunner> Timed<'a, R> {
    pub fn new(inner: &'a mut R) -> Self {
        Timed {
            inner,
            pass: Duration::ZERO,
            between: Duration::ZERO,
            last_end: None,
            shard_ns: AtomicU64::new(0),
        }
    }

    /// Seconds inside shard passes, and between or after them until
    /// `end`.
    fn split(&self, end: Instant) -> (f64, f64) {
        match self.last_end {
            Some(last) => (
                self.pass.as_secs_f64(),
                (self.between + (end - last)).as_secs_f64(),
            ),
            None => (0.0, 0.0),
        }
    }

    /// Seconds spent inside the per-shard closures, summed over workers.
    fn shard_cpu_s(&self) -> f64 {
        self.shard_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl<R: ShardRunner> ShardRunner for Timed<'_, R> {
    fn engine(&mut self) -> &mut Engine {
        self.inner.engine()
    }

    fn preset_mac(&mut self, code: u32) -> Result<(), CoreError> {
        self.inner.preset_mac(code)
    }

    fn for_each_shard<T, F>(
        &mut self,
        grid: &GridPartition,
        order: TraversalOrder,
        f: F,
    ) -> Result<Vec<T>, CoreError>
    where
        T: Send,
        F: Fn(&mut Engine, &Shard) -> Result<T, CoreError> + Sync,
    {
        let shard_ns = &self.shard_ns;
        let start = Instant::now();
        if let Some(end) = self.last_end {
            self.between += start - end;
        }
        let result = self.inner.for_each_shard(grid, order, |engine, shard| {
            let t = Instant::now();
            let r = f(engine, shard);
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shard_ns.fetch_add(ns, Ordering::Relaxed);
            r
        });
        let end = Instant::now();
        self.pass += end - start;
        self.last_end = Some(end);
        result
    }
}

/// The two engine shapes the library runs algorithms on.
pub trait Exec: ShardRunner + Sized {
    fn build(config: &GaasXConfig, jobs: usize) -> Result<Self, CoreError>;
    fn attach(&mut self, tracer: Tracer, profile: SearchProfile);
    fn finish_run(
        &mut self,
        algorithm: &str,
        workload: &str,
        iterations: u32,
        edges: u64,
    ) -> RunReport;
    fn reset(&mut self);
}

impl Exec for Engine {
    fn build(config: &GaasXConfig, _jobs: usize) -> Result<Self, CoreError> {
        Engine::new(config.clone())
    }

    fn attach(&mut self, tracer: Tracer, profile: SearchProfile) {
        self.set_tracer(tracer);
        self.set_search_profile(profile);
    }

    fn finish_run(
        &mut self,
        algorithm: &str,
        workload: &str,
        iterations: u32,
        edges: u64,
    ) -> RunReport {
        self.finish("gaasx", algorithm, workload, iterations, edges)
    }

    fn reset(&mut self) {
        self.reset_accounting();
    }
}

impl Exec for ShardedEngine {
    fn build(config: &GaasXConfig, jobs: usize) -> Result<Self, CoreError> {
        ShardedEngine::new(config.clone(), jobs)
    }

    fn attach(&mut self, tracer: Tracer, profile: SearchProfile) {
        self.set_tracer(tracer);
        self.set_search_profile(profile);
    }

    fn finish_run(
        &mut self,
        algorithm: &str,
        workload: &str,
        iterations: u32,
        edges: u64,
    ) -> RunReport {
        self.finish("gaasx", algorithm, workload, iterations, edges)
    }

    fn reset(&mut self) {
        self.reset_accounting();
    }
}

/// One unit of work the benchmark asks of the system.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    PageRank {
        iterations: u32,
    },
    Bfs {
        source: u32,
    },
    Sssp {
        source: u32,
    },
    /// Connected components: covered by the identity tests only.
    #[cfg(test)]
    Components,
    BatchBfs {
        sources: Vec<u32>,
    },
    BatchSssp {
        sources: Vec<u32>,
    },
}

/// A job's answer: one value vector per source (one for non-batch jobs)
/// and the superstep count the report is labelled with.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    pub values: Vec<Vec<f64>>,
    pub iterations: u32,
}

fn single<T>(run: gaasx_core::algorithms::AlgoRun<Vec<T>>, to_f64: fn(T) -> f64) -> Output {
    Output {
        values: vec![run.output.into_iter().map(to_f64).collect()],
        iterations: run.iterations,
    }
}

fn batch(run: gaasx_serve::BatchOutcome) -> Output {
    Output {
        iterations: run.iterations.iter().copied().max().unwrap_or(0),
        values: run.values,
    }
}

fn vertices(sources: &[u32]) -> Vec<VertexId> {
    sources.iter().map(|&s| VertexId::new(s)).collect()
}

impl Job {
    /// The algorithm label the report carries (as the library labels it).
    pub fn label(&self) -> &'static str {
        match self {
            Job::PageRank { .. } => PageRank::default().name(),
            Job::Bfs { source } => Bfs::from_source(VertexId::new(*source)).name(),
            Job::Sssp { source } => Sssp::from_source(VertexId::new(*source)).name(),
            #[cfg(test)]
            Job::Components => ConnectedComponents::new().name(),
            Job::BatchBfs { .. } => "bfs_batch",
            Job::BatchSssp { .. } => "sssp_batch",
        }
    }

    pub fn profile(&self) -> SearchProfile {
        match self {
            Job::PageRank { iterations } => {
                PageRank::fixed_iterations(*iterations).search_profile()
            }
            Job::Bfs { source } => Bfs::from_source(VertexId::new(*source)).search_profile(),
            Job::Sssp { source } => Sssp::from_source(VertexId::new(*source)).search_profile(),
            #[cfg(test)]
            Job::Components => ConnectedComponents::new().search_profile(),
            Job::BatchBfs { .. } | Job::BatchSssp { .. } => SearchProfile::Frontier,
        }
    }

    /// Runs the job's supersteps on `runner` (no engine build, no finish).
    pub fn execute<R: ShardRunner>(
        &self,
        runner: &mut R,
        graph: &CooGraph,
    ) -> Result<Output, CoreError> {
        Ok(match self {
            Job::PageRank { iterations } => single(
                PageRank::fixed_iterations(*iterations).execute_on(runner, graph)?,
                |x| x,
            ),
            Job::Bfs { source } => single(
                Bfs::from_source(VertexId::new(*source)).execute_on(runner, graph)?,
                |x| x,
            ),
            Job::Sssp { source } => single(
                Sssp::from_source(VertexId::new(*source)).execute_on(runner, graph)?,
                |x| x,
            ),
            #[cfg(test)]
            Job::Components => single(
                ConnectedComponents::new().execute_on(runner, graph)?,
                f64::from,
            ),
            Job::BatchBfs { sources } => {
                batch(run_batch(runner, graph, false, &vertices(sources))?)
            }
            Job::BatchSssp { sources } => {
                batch(run_batch(runner, graph, true, &vertices(sources))?)
            }
        })
    }

    /// The library's own one-shot path: `GaasX::run` for `jobs == 1`,
    /// `GaasX::run_sharded` otherwise. Batch jobs have no one-shot path.
    pub fn run_library(
        &self,
        config: &GaasXConfig,
        jobs: usize,
        graph: &CooGraph,
    ) -> Result<(Output, RunReport), CoreError> {
        fn go<A: ShardableAlgorithm<Input = CooGraph>>(
            algorithm: &A,
            config: &GaasXConfig,
            jobs: usize,
            graph: &CooGraph,
            to_output: impl FnOnce(A::Output, u32) -> Output,
        ) -> Result<(Output, RunReport), CoreError> {
            let mut accel = GaasX::new(config.clone());
            let run = if jobs == 1 {
                accel.run(algorithm, graph)?
            } else {
                accel.run_sharded(algorithm, graph, jobs)?
            };
            let iterations = run.report.iterations;
            Ok((to_output(run.result, iterations), run.report))
        }
        let wrap = |values: Vec<f64>, iterations| Output {
            values: vec![values],
            iterations,
        };
        match self {
            Job::PageRank { iterations } => go(
                &PageRank::fixed_iterations(*iterations),
                config,
                jobs,
                graph,
                wrap,
            ),
            Job::Bfs { source } => go(
                &Bfs::from_source(VertexId::new(*source)),
                config,
                jobs,
                graph,
                wrap,
            ),
            Job::Sssp { source } => go(
                &Sssp::from_source(VertexId::new(*source)),
                config,
                jobs,
                graph,
                wrap,
            ),
            #[cfg(test)]
            Job::Components => go(&ConnectedComponents::new(), config, jobs, graph, |v, it| {
                wrap(v.into_iter().map(f64::from).collect(), it)
            }),
            Job::BatchBfs { .. } | Job::BatchSssp { .. } => Err(CoreError::InvalidInput(
                "batch jobs run only through the server".into(),
            )),
        }
    }
}

/// Host seconds of one run, split at the layer boundaries. What `wall`
/// holds beyond the parts is the job's prologue: the time from its start
/// to its first shard pass, which includes partitioning.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    /// `Engine::new` / `ShardedEngine::new`.
    pub engine_new: f64,
    /// Wall time inside shard passes.
    pub pass: f64,
    /// Per-shard closure time summed over workers.
    pub shard_cpu: f64,
    /// Between and after shard passes: reduce and apply on the primary.
    pub reduce: f64,
    /// `finish`.
    pub finish: f64,
    /// The whole run.
    pub wall: f64,
}

/// A finished run and the engine it ran on.
#[derive(Debug)]
pub struct Run<E> {
    pub output: Output,
    pub report: RunReport,
    pub layers: Layers,
    pub exec: E,
}

/// The workload label `GaasX::run` gives a report.
pub fn one_shot_label(graph: &CooGraph) -> String {
    format!("E{}", graph.num_edges())
}

/// Builds a fresh engine and runs `job` on it, as the library does for a
/// one-shot run or a newly (re)programmed resident graph. With `timed`
/// the shard passes go through [`Timed`]; without it the runner is called
/// directly, which is the untraced baseline of the tracing overhead.
pub fn run_cold<E: Exec>(
    job: &Job,
    graph: &CooGraph,
    workload: &str,
    config: &GaasXConfig,
    jobs: usize,
    tracer: Tracer,
    timed: bool,
) -> Result<Run<E>, CoreError> {
    let t0 = Instant::now();
    let mut exec = E::build(config, jobs)?;
    let t1 = Instant::now();
    exec.attach(tracer, job.profile());
    let (output, pass, shard_cpu, reduce);
    if timed {
        let mut runner = Timed::new(&mut exec);
        output = job.execute(&mut runner, graph)?;
        (pass, reduce) = runner.split(Instant::now());
        shard_cpu = runner.shard_cpu_s();
    } else {
        output = job.execute(&mut exec, graph)?;
        (pass, shard_cpu, reduce) = (0.0, 0.0, 0.0);
    }
    let t2 = Instant::now();
    let report = exec.finish_run(
        job.label(),
        workload,
        output.iterations,
        graph.num_edges() as u64,
    );
    let t3 = Instant::now();
    Ok(Run {
        output,
        report,
        layers: Layers {
            engine_new: (t1 - t0).as_secs_f64(),
            pass,
            shard_cpu,
            reduce,
            finish: (t3 - t2).as_secs_f64(),
            wall: (t3 - t0).as_secs_f64(),
        },
        exec,
    })
}

/// Runs `job` again on an engine that already served a run, after
/// clearing its accounting — the path of a query on a resident graph.
/// Returns the output, the report and the wall seconds.
pub fn run_warm<E: Exec>(
    exec: &mut E,
    job: &Job,
    graph: &CooGraph,
    workload: &str,
) -> Result<(Output, RunReport, f64), CoreError> {
    let t0 = Instant::now();
    exec.reset();
    exec.attach(Tracer::null(), job.profile());
    let output = job.execute(exec, graph)?;
    let report = exec.finish_run(
        job.label(),
        workload,
        output.iterations,
        graph.num_edges() as u64,
    );
    Ok((output, report, t0.elapsed().as_secs_f64()))
}

/// Drops `value` and returns the seconds that took: freeing an engine's
/// banks is part of every run the library makes.
pub fn timed_drop<T>(value: T) -> f64 {
    let t = Instant::now();
    drop(value);
    t.elapsed().as_secs_f64()
}

/// Bit-level report identity: every field, every float bit, every label.
pub fn same_report(a: &RunReport, b: &RunReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gaasx_core::RecoveryPolicy;
    use gaasx_graph::generators::{rmat, RmatConfig};
    use gaasx_xbar::FaultModel;

    fn faulty(config: GaasXConfig) -> GaasXConfig {
        GaasXConfig {
            fault: FaultModel {
                seed: 0xBE05,
                cam_stuck_ber: 1e-3,
                mac_stuck_ber: 1e-3,
                write_fail_rate: 1e-2,
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy::standard(),
            ..config
        }
    }

    fn cold(
        job: &Job,
        g: &CooGraph,
        config: &GaasXConfig,
        jobs: usize,
        timed: bool,
    ) -> (Output, RunReport) {
        let label = one_shot_label(g);
        if jobs == 1 {
            let r =
                run_cold::<Engine>(job, g, &label, config, jobs, Tracer::null(), timed).unwrap();
            (r.output, r.report)
        } else {
            let r = run_cold::<ShardedEngine>(job, g, &label, config, jobs, Tracer::null(), timed)
                .unwrap();
            (r.output, r.report)
        }
    }

    #[test]
    fn timed_runs_are_bit_identical_to_the_library() {
        let g = rmat(&RmatConfig::new(1 << 8, 2000).with_seed(3)).unwrap();
        let jobs_list = [
            Job::PageRank { iterations: 3 },
            Job::Bfs { source: 1 },
            Job::Sssp { source: 1 },
            Job::Components,
        ];
        for config in [GaasXConfig::small(), faulty(GaasXConfig::small())] {
            let fault = !config.fault.is_none();
            for job in &jobs_list {
                for jobs in [1, 2] {
                    let (want_out, want) = job.run_library(&config, jobs, &g).unwrap();
                    for timed in [true, false] {
                        let (out, report) = cold(job, &g, &config, jobs, timed);
                        let case = format!("{job:?} jobs={jobs} fault={fault} timed={timed}");
                        assert_eq!(out, want_out, "{case}");
                        assert!(same_report(&report, &want), "{case}");
                    }
                    if fault {
                        assert!(want.faults.verify_reads > 0, "{job:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn timed_layers_nest_inside_the_run() {
        let g = rmat(&RmatConfig::new(1 << 8, 2000).with_seed(4)).unwrap();
        let run = run_cold::<ShardedEngine>(
            &Job::PageRank { iterations: 2 },
            &g,
            "t",
            &GaasXConfig::small(),
            2,
            Tracer::null(),
            true,
        )
        .unwrap();
        let l = run.layers;
        assert!(l.pass > 0.0 && l.shard_cpu > 0.0 && l.reduce > 0.0);
        let parts = l.engine_new + l.pass + l.reduce + l.finish;
        assert!(parts < l.wall, "{l:?}");
    }

    #[test]
    fn warm_runs_repeat_the_cold_report() {
        let g = rmat(&RmatConfig::new(1 << 7, 900).with_seed(5)).unwrap();
        for job in [
            Job::Bfs { source: 2 },
            Job::BatchBfs {
                sources: vec![0, 2, 5],
            },
            Job::BatchSssp {
                sources: vec![1, 3],
            },
        ] {
            let mut run = run_cold::<ShardedEngine>(
                &job,
                &g,
                "g",
                &GaasXConfig::small(),
                1,
                Tracer::null(),
                true,
            )
            .unwrap();
            let (out, report, wall) = run_warm(&mut run.exec, &job, &g, "g").unwrap();
            assert_eq!(out, run.output, "{job:?}");
            assert!(same_report(&report, &run.report), "{job:?}");
            assert!(wall > 0.0);
        }
    }

    #[test]
    fn batch_jobs_have_no_one_shot_path() {
        let g = rmat(&RmatConfig::new(1 << 6, 300).with_seed(1)).unwrap();
        let job = Job::BatchBfs { sources: vec![0] };
        assert!(job.run_library(&GaasXConfig::small(), 1, &g).is_err());
    }
}
