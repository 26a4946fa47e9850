//! Quickstart: run PageRank on the paper's worked-example graph and read
//! the timing/energy report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![allow(clippy::unwrap_used)]
use gaasx::core::algorithms::PageRank;
use gaasx::core::{GaasX, GaasXConfig};
use gaasx::graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The 5-vertex weighted graph of Fig 7(a)/Fig 9(a) in the paper.
    let graph = generators::paper_fig7_graph();
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // A GaaS-X accelerator at the paper's Table I configuration:
    // 2048 CAM+MAC crossbar bank pairs, 30 ns MAC / 4 ns CAM operations.
    let mut accel = GaasX::new(GaasXConfig::paper());

    let outcome = accel.run(&PageRank::default(), &graph)?;
    println!(
        "pagerank converged in {} iterations, {:.3} µs, {:.3} µJ",
        outcome.report.iterations,
        outcome.report.elapsed_ns.ns() / 1e3,
        outcome.report.energy.total_nj().nj() / 1e3,
    );
    for (v, rank) in outcome.result.iter().enumerate() {
        println!("  vertex {v}: rank {rank:.4}");
    }

    // Where did the energy go? The breakdown mirrors the architecture:
    // MAC bursts, CAM searches, cell programming, SFU, buffers, static.
    for (component, nj) in outcome.report.energy.components() {
        println!("  energy[{component}] = {nj:.2} nJ");
    }
    println!(
        "device ops: {} CAM searches, {} MAC bursts, {} cells programmed",
        outcome.report.ops.cam_searches,
        outcome.report.ops.mac_ops,
        outcome.report.ops.cells_written,
    );
    Ok(())
}
