//! Sharded-execution scaling check: runs the RMAT scaling workload on the
//! serial engine and on [`gaasx_core::ShardedEngine`] at increasing worker
//! counts, verifies the merged reports and algorithm outputs are
//! **bit-identical** to the serial run, and renders the host wall-clock
//! table. Errors on any mismatch, so CI exercises the parallel path on
//! every run.
//!
//! `--jobs <N>` sets the largest worker count (default 4); the sweep
//! covers 1, 2, …, N in powers of two plus N itself. `--cap` sets the
//! RMAT edge count (default 300 000, 20 000 under `--smoke`).

use std::fmt::Write;
use std::time::Instant;

use gaasx_bench::experiments::BenchResult;
use gaasx_core::algorithms::{PageRank, Sssp};
use gaasx_core::{GaasX, GaasXConfig, RunOutcome, ShardableAlgorithm};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_sim::table::{count, Table};

use crate::Ctx;

/// 1, 2, 4, … capped at `max`, always ending exactly at `max`.
fn sweep(max: usize) -> Vec<usize> {
    let mut jobs = vec![1];
    let mut j = 2;
    while j < max {
        jobs.push(j);
        j *= 2;
    }
    if max > 1 {
        jobs.push(max);
    }
    jobs
}

struct Timed<T> {
    outcome: RunOutcome<T>,
    wall: f64,
}

fn run_timed<A: ShardableAlgorithm>(
    algorithm: &A,
    input: &A::Input,
    jobs: usize,
) -> Result<Timed<A::Output>, gaasx_core::CoreError> {
    let mut accel = GaasX::new(GaasXConfig::paper());
    let start = Instant::now();
    let outcome = if jobs > 1 {
        accel.run_sharded(algorithm, input, jobs)?
    } else {
        accel.run(algorithm, input)?
    };
    Ok(Timed {
        outcome,
        wall: start.elapsed().as_secs_f64(),
    })
}

fn check<A>(algorithm: &A, input: &A::Input, name: &str, jobs_max: usize) -> Result<Table, String>
where
    A: ShardableAlgorithm,
    A::Output: PartialEq,
{
    let mut t = Table::new(&["jobs", "host wall (s)", "vs jobs=1", "report"]);
    let serial = run_timed(algorithm, input, 1).map_err(|e| e.to_string())?;
    t.row_owned(vec![
        "1".into(),
        format!("{:.3}", serial.wall),
        "1.00x".into(),
        "reference".into(),
    ]);
    for jobs in sweep(jobs_max).into_iter().skip(1) {
        let sharded = run_timed(algorithm, input, jobs).map_err(|e| e.to_string())?;
        if sharded.outcome.report != serial.outcome.report {
            return Err(format!(
                "{name}: jobs={jobs} report diverged from serial \
                 (ops {:?} vs {:?}, elapsed {} vs {} ns, energy {} vs {} nJ)",
                sharded.outcome.report.ops,
                serial.outcome.report.ops,
                sharded.outcome.report.elapsed_ns,
                serial.outcome.report.elapsed_ns,
                sharded.outcome.report.energy.total_nj(),
                serial.outcome.report.energy.total_nj(),
            ));
        }
        if sharded.outcome.result != serial.outcome.result {
            return Err(format!("{name}: jobs={jobs} output diverged from serial"));
        }
        t.row_owned(vec![
            jobs.to_string(),
            format!("{:.3}", sharded.wall),
            format!("{:.2}x", serial.wall / sharded.wall.max(f64::MIN_POSITIVE)),
            "identical".into(),
        ]);
    }
    Ok(t)
}

pub fn run(cx: &mut Ctx) -> BenchResult<String> {
    let jobs_max = cx.s.jobs.unwrap_or(4);
    let cap = cx.s.cap_or(20_000);
    let vertices = (cap / 16).clamp(64, 1 << 17).next_power_of_two();
    let graph = rmat(&RmatConfig::new(vertices as u32, cap).with_seed(17))?;
    let src = gaasx_bench::traversal_source(&graph);
    let mut out = String::new();
    writeln!(
        out,
        "Sharded-execution scaling — RMAT |V|={} |E|={}, paper configuration, \
         jobs up to {jobs_max}\nEvery sharded run is checked bit-identical \
         (full RunReport + algorithm output) against the serial engine.\n",
        count(graph.num_vertices() as u64),
        count(graph.num_edges() as u64),
    )?;
    let pr = check(&PageRank::fixed_iterations(5), &graph, "pagerank", jobs_max)?;
    writeln!(out, "PageRank x5\n\n{pr}")?;
    let sssp = check(&Sssp::from_source(src), &graph, "sssp", jobs_max)?;
    writeln!(out, "SSSP\n\n{sssp}")?;
    writeln!(
        out,
        "All sharded runs matched the serial reference bit-for-bit."
    )?;
    Ok(out)
}
