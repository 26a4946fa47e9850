//! Out-of-core workflow: persist a graph as the paper's Fig 2 on-disk
//! sub-shard layout, stream it back in destination-interval order, and run
//! the accelerator on the reloaded graph.
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

#![allow(clippy::unwrap_used)]
use gaasx::core::algorithms::PageRank;
use gaasx::core::{GaasX, GaasXConfig};
use gaasx::graph::disk::ShardStore;
use gaasx::graph::generators::{rmat, RmatConfig};
use gaasx::graph::partition::{GridPartition, TraversalOrder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = rmat(&RmatConfig::new(1 << 11, 30_000).with_seed(5))?;
    let grid = GridPartition::with_num_intervals(&graph, 8)?;
    println!(
        "graph: {} vertices, {} edges over {} non-empty sub-shards (8×8 grid)",
        graph.num_vertices(),
        graph.num_edges(),
        grid.num_nonempty_shards()
    );

    // Persist as one contiguous file per sub-shard + manifest (Fig 2).
    let dir = std::env::temp_dir().join(format!("gaasx-out-of-core-{}", std::process::id()));
    let store = ShardStore::save(&grid, &dir)?;
    let bytes: u64 = std::fs::read_dir(&dir)?
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    println!(
        "persisted {} shard files ({} KiB) under {}",
        store.num_shards(),
        bytes / 1024,
        dir.display()
    );

    // Stream back column-major — strictly sequential reads, destinations
    // grouped the way the PageRank gather wants them.
    let mut streamed_edges = 0usize;
    for item in store.stream(TraversalOrder::ColumnMajor) {
        let (_, shard) = item?;
        streamed_edges += shard.num_edges();
    }
    println!("streamed {streamed_edges} edges in destination-interval order");

    // Reassemble and run on the accelerator.
    let reloaded = store.reassemble()?;
    let mut accel = GaasX::new(GaasXConfig::paper());
    let out = accel.run(&PageRank::fixed_iterations(10), &reloaded)?;
    println!(
        "PageRank on the reloaded graph: {:.2} µs, {:.2} µJ, {} iterations",
        out.report.elapsed_ns.ns() / 1e3,
        out.report.energy.total_nj().nj() / 1e3,
        out.report.iterations
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
