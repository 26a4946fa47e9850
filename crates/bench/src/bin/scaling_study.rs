//! Scaling study: how simulated time and energy per edge evolve as the
//! workload grows from far-below to far-above the accelerator's resident
//! capacity (2048 banks × 128 edges = 262 144 edges).
//!
//! Below capacity the chip is underutilized (per-edge cost falls as waves
//! fill); above it, cost per edge flattens — the wave pipeline is saturated
//! and throughput scales linearly, which is the regime every full-size
//! figure of the paper lives in.

//! `--jobs <N>` runs the GaaS-X side on the sharded engine with `N`
//! worker threads (default `GAASX_JOBS` or 1); the simulated numbers are
//! bit-identical either way.

#![allow(clippy::unwrap_used)]
use gaasx_baselines::{GraphR, GraphRConfig};
use gaasx_core::algorithms::PageRank;
use gaasx_core::{GaasX, GaasXConfig};
use gaasx_graph::datasets::PaperDataset;
use gaasx_sim::table::{count, ratio, Table};

fn cli_args() -> Result<usize, String> {
    let mut jobs = gaasx_bench::jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j| j >= 1)
                    .ok_or_else(|| String::from("--jobs requires a worker count >= 1"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(jobs)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iters = 5;
    let jobs = cli_args()?;
    let mut t = Table::new(&[
        "edges",
        "GaaS-X ns/edge/iter",
        "GraphR ns/edge/iter",
        "speedup",
        "energy savings",
    ]);
    for cap in [30_000usize, 100_000, 300_000, 1_000_000] {
        let scale = (cap as f64 / PaperDataset::LiveJournal.full_edges() as f64).min(1.0);
        let graph = PaperDataset::LiveJournal.instantiate_graph(scale)?;
        let mut gx = GaasX::new(GaasXConfig::paper());
        let pr = PageRank::fixed_iterations(iters);
        let a = if jobs > 1 {
            gx.run_labeled_sharded(&pr, &graph, "LJ", jobs)?.report
        } else {
            gx.run_labeled(&pr, &graph, "LJ")?.report
        };
        let mut gr = GraphR::new(GraphRConfig::paper());
        let b = gr.pagerank(&graph, 0.85, iters)?.report;
        let per = |r: &gaasx_sim::RunReport| r.elapsed_ns / (r.num_edges as f64 * f64::from(iters));
        t.row_owned(vec![
            count(graph.num_edges() as u64),
            format!("{:.3}", per(&a)),
            format!("{:.3}", per(&b)),
            ratio(a.speedup_over(&b)),
            ratio(a.energy_savings_over(&b)),
        ]);
    }
    println!(
        "Scaling study — LiveJournal-class graphs across the 262 K-edge \
         resident capacity (PageRank ×{iters}, full 2048-unit configuration \
         for both engines, {jobs} GaaS-X job(s))\n\n{t}"
    );
    Ok(())
}
