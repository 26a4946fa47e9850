//! Property-based integration tests over randomly generated workloads.

#![allow(clippy::unwrap_used)]
use std::ops::Range;

use proptest::prelude::*;

use gaasx::baselines::reference;
use gaasx::core::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use gaasx::core::{GaasX, GaasXConfig};
use gaasx::graph::generators::{self, RmatConfig};
use gaasx::graph::partition::{GridPartition, TraversalOrder};
use gaasx::graph::{CooGraph, Csr, Edge, VertexId};

/// Strategy: a random weighted digraph with a vertex count from `n` and
/// an edge count from `m`, plus a valid source vertex.
fn graph_and_source(n: Range<u32>, m: Range<usize>) -> impl Strategy<Value = (CooGraph, VertexId)> {
    (n, m, any::<u64>()).prop_flat_map(|(n, m, seed)| {
        let g = generators::rmat(&RmatConfig::new(n, m).with_seed(seed).with_max_weight(12))
            .expect("valid rmat config");
        let verts = g.num_vertices();
        (Just(g), (0..verts).prop_map(VertexId::new))
    })
}

/// The same graph with its edge list reversed, which reverses the order
/// of every group of parallel edges.
fn reversed(graph: &CooGraph) -> CooGraph {
    let mut edges = graph.edges().to_vec();
    edges.reverse();
    CooGraph::from_edges(graph.num_vertices(), edges).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shards keep parallel edges in input order, and only an algorithm
    /// that reads weights can tell: on a multigraph over a few vertices,
    /// where RMAT repeats most edges with different weights, reversing the
    /// edge list leaves PageRank, BFS and CC bit-identical.
    #[test]
    fn parallel_edge_order_reaches_only_weight_readers(
        (graph, src) in graph_and_source(2..10, 40..200)
    ) {
        let run = |g: &CooGraph| {
            let mut accel = GaasX::new(GaasXConfig::small());
            let pr = accel.run(&PageRank::fixed_iterations(3), g).unwrap();
            let bfs = accel.run(&Bfs::from_source(src), g).unwrap();
            let cc = accel.run(&ConnectedComponents::new(), g).unwrap();
            (pr.result, pr.report, bfs.result, bfs.report, cc.result, cc.report)
        };
        prop_assert_eq!(run(&reversed(&graph)), run(&graph));
    }

    /// SSSP reads weights, so it sees the order of parallel edges; in
    /// either order it still matches Dijkstra.
    #[test]
    fn device_sssp_always_matches_dijkstra((graph, src) in graph_and_source(2..60, 1..150)) {
        for g in [reversed(&graph), graph] {
            let out = GaasX::new(GaasXConfig::small())
                .run(&Sssp::from_source(src), &g)
                .unwrap();
            prop_assert_eq!(out.result, reference::dijkstra(&g, src));
        }
    }

    #[test]
    fn device_bfs_always_matches_queue_bfs((graph, src) in graph_and_source(2..60, 1..150)) {
        let out = GaasX::new(GaasXConfig::small())
            .run(&Bfs::from_source(src), &graph)
            .unwrap();
        prop_assert_eq!(out.result, reference::bfs(&graph, src));
    }

    #[test]
    fn device_pagerank_tracks_oracle((graph, _src) in graph_and_source(2..60, 1..150)) {
        let out = GaasX::new(GaasXConfig::small())
            .run(&PageRank::fixed_iterations(5), &graph)
            .unwrap();
        let oracle = reference::pagerank(&graph, 0.85, 5);
        for (a, b) in out.result.iter().zip(&oracle) {
            // Absolute tolerance scaled to the rank magnitude.
            prop_assert!((a - b).abs() < 0.05 * b.max(1.0), "{} vs {}", a, b);
        }
    }

    #[test]
    fn partition_preserves_every_edge((graph, _src) in graph_and_source(2..60, 1..150)) {
        let grid = GridPartition::with_num_intervals(&graph, 8).unwrap();
        prop_assert_eq!(grid.total_edges(), graph.num_edges());
        let mut collected: Vec<Edge> = grid
            .stream(TraversalOrder::RowMajor)
            .flat_map(|s| s.edges().iter().copied())
            .collect();
        let key = |e: &Edge| (e.src.raw(), e.dst.raw(), e.weight.to_bits());
        collected.sort_by_key(key);
        let mut original = graph.edges().to_vec();
        original.sort_by_key(key);
        prop_assert_eq!(collected, original);
    }

    #[test]
    fn csr_and_transpose_are_consistent((graph, _src) in graph_and_source(2..60, 1..150)) {
        let csr = Csr::from_coo(&graph);
        let tr = Csr::from_coo(&graph.transposed());
        // Out-degree of v in G equals in-degree of v in Gᵀ.
        for v in VertexId::all(graph.num_vertices()) {
            prop_assert_eq!(csr.degree(v), graph.out_degrees()[v.index()] as usize);
        }
        prop_assert_eq!(tr.num_edges(), csr.num_edges());
    }

    #[test]
    fn sssp_distances_satisfy_triangle_inequality((graph, src) in graph_and_source(2..60, 1..150)) {
        // For every edge (u, v, w): dist(v) ≤ dist(u) + w.
        let dist = reference::dijkstra(&graph, src);
        for e in graph.iter() {
            let du = dist[e.src.index()];
            let dv = dist[e.dst.index()];
            if du.is_finite() {
                prop_assert!(dv <= du + f64::from(e.weight) + 1e-9);
            }
        }
    }

    #[test]
    fn report_energy_is_monotone_in_iterations((graph, _src) in graph_and_source(2..60, 1..150)) {
        let mut accel = GaasX::new(GaasXConfig::small());
        let short = accel.run(&PageRank::fixed_iterations(2), &graph).unwrap().report;
        let long = accel.run(&PageRank::fixed_iterations(6), &graph).unwrap().report;
        prop_assert!(long.energy.total_nj() > short.energy.total_nj());
        prop_assert!(long.elapsed_ns > short.elapsed_ns);
    }
}
