//! Route planning: single-source shortest paths on a weighted road-style
//! grid, exercising the SpMV-add mapping (CAM search by source + transposed
//! MAC), plus BFS hop counts on the same network.
//!
//! ```sh
//! cargo run --release --example route_planner
//! ```

#![allow(clippy::unwrap_used)]
use gaasx::baselines::reference;
use gaasx::core::algorithms::{Bfs, Sssp};
use gaasx::core::{GaasX, GaasXConfig};
use gaasx::graph::{generators, CooGraph, Edge, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A city-like road network: a 2-D grid with randomized travel times plus a
/// few express "highways" that skip across town.
fn road_network(rows: u32, cols: u32, seed: u64) -> CooGraph {
    let grid = generators::grid_graph(rows, cols).symmetrized();
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = grid.num_vertices();
    let mut edges: Vec<Edge> = grid
        .iter()
        .map(|e| Edge::new(e.src.raw(), e.dst.raw(), rng.gen_range(1..=9) as f32))
        .collect();
    for _ in 0..(n / 10) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            edges.push(Edge::new(a, b, 2.0)); // highway: fast long hop
            edges.push(Edge::new(b, a, 2.0));
        }
    }
    CooGraph::from_edges(n, edges).expect("grid ids are in range")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (rows, cols) = (40, 40);
    let network = road_network(rows, cols, 7);
    let depot = VertexId::new(0);
    println!(
        "road network: {}×{} grid + highways = {} intersections, {} road segments",
        rows,
        cols,
        network.num_vertices(),
        network.num_edges()
    );

    let mut accel = GaasX::new(GaasXConfig::paper());

    // Travel times from the depot.
    let sssp = accel.run(&Sssp::from_source(depot), &network)?;
    let oracle = reference::dijkstra(&network, depot);
    assert_eq!(sssp.result, oracle, "device distances must match Dijkstra");

    // Hop counts (number of turns) from the depot.
    let bfs = accel.run(&Bfs::from_source(depot), &network)?;

    let far = sssp
        .result
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_finite())
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("network is connected");
    println!(
        "farthest reachable intersection: v{} at travel time {} ({} hops)",
        far.0, far.1, bfs.result[far.0]
    );
    println!(
        "corner-to-corner: travel time {}, {} hops",
        sssp.result[network.num_vertices() as usize - 1],
        bfs.result[network.num_vertices() as usize - 1],
    );

    println!(
        "\nSSSP: {} supersteps, {:.2} µs, {:.2} µJ",
        sssp.report.iterations,
        sssp.report.elapsed_ns.ns() / 1e3,
        sssp.report.energy.total_nj().nj() / 1e3,
    );
    println!(
        "BFS:  {} supersteps, {:.2} µs, {:.2} µJ \
         (no MAC programming — preset unit weights)",
        bfs.report.iterations,
        bfs.report.elapsed_ns.ns() / 1e3,
        bfs.report.energy.total_nj().nj() / 1e3,
    );
    Ok(())
}
