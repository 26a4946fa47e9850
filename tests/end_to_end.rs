//! End-to-end integration tests: graph substrate → accelerator → report,
//! validated against exact oracles, across all four paper algorithms.

#![allow(clippy::unwrap_used)]
use gaasx::baselines::reference;
use gaasx::core::algorithms::{Bfs, CollaborativeFiltering, PageRank, Sssp};
use gaasx::core::{GaasX, GaasXConfig};
use gaasx::graph::bipartite::BipartiteGraph;
use gaasx::graph::generators::{self, RmatConfig};
use gaasx::graph::VertexId;

fn accel() -> GaasX {
    GaasX::new(GaasXConfig::small())
}

#[test]
fn pagerank_tracks_oracle_on_scale_free_graph() {
    let graph = generators::rmat(&RmatConfig::new(1 << 8, 3000).with_seed(42)).unwrap();
    let out = accel().run(&PageRank::fixed_iterations(8), &graph).unwrap();
    let oracle = reference::pagerank(&graph, 0.85, 8);
    let mean_err: f64 = out
        .result
        .iter()
        .zip(&oracle)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / oracle.len() as f64;
    assert!(mean_err < 0.02, "mean error {mean_err}");
    assert_eq!(out.report.iterations, 8);
    assert!(out.report.elapsed_ns.ns() > 0.0);
}

#[test]
fn sssp_is_exact_on_integer_weights() {
    let graph = generators::rmat(&RmatConfig::new(1 << 8, 3000).with_seed(43)).unwrap();
    let src = VertexId::new(0);
    let out = accel().run(&Sssp::from_source(src), &graph).unwrap();
    assert_eq!(out.result, reference::dijkstra(&graph, src));
}

#[test]
fn bfs_is_exact() {
    let graph = generators::rmat(&RmatConfig::new(1 << 8, 3000).with_seed(44)).unwrap();
    let src = VertexId::new(5);
    let out = accel().run(&Bfs::from_source(src), &graph).unwrap();
    assert_eq!(out.result, reference::bfs(&graph, src));
}

#[test]
fn cf_trains_on_device() {
    let ratings = BipartiteGraph::synthetic(40, 15, 300, 7).unwrap();
    let cf = CollaborativeFiltering {
        features: 8,
        epochs: 4,
        learning_rate: 0.02,
        regularization: 0.02,
        seed: 1,
    };
    let untrained = accel()
        .run(
            &CollaborativeFiltering {
                epochs: 0,
                ..cf.clone()
            },
            &ratings,
        )
        .unwrap();
    let trained = accel().run(&cf, &ratings).unwrap();
    let before = untrained.result.rmse(&ratings).unwrap();
    let after = trained.result.rmse(&ratings).unwrap();
    assert!(after < before, "rmse {before} -> {after}");
    assert_eq!(trained.report.iterations, 4);
}

#[test]
fn quantized_fidelity_still_tracks_oracle() {
    // Bit-sliced ADC-saturating periphery on realistic inputs: PageRank on
    // a modest graph stays close to the oracle because per-burst partials
    // remain within the 6-bit ADC range for ≤16-row accumulations.
    let graph = generators::rmat(&RmatConfig::new(1 << 7, 1200).with_seed(9)).unwrap();
    let mut accel = GaasX::new(GaasXConfig {
        fidelity: gaasx::xbar::Fidelity::Quantized,
        ..GaasXConfig::small()
    });
    let out = accel.run(&PageRank::fixed_iterations(6), &graph).unwrap();
    let oracle = reference::pagerank(&graph, 0.85, 6);
    let mean_err: f64 = out
        .result
        .iter()
        .zip(&oracle)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / oracle.len() as f64;
    assert!(mean_err < 0.05, "mean error {mean_err}");
}

#[test]
fn report_components_are_consistent() {
    let graph = generators::rmat(&RmatConfig::new(1 << 7, 1500).with_seed(11)).unwrap();
    let out = accel().run(&PageRank::fixed_iterations(3), &graph).unwrap();
    let r = &out.report;
    // Energy components sum to the total.
    let sum: f64 = r.energy.components().iter().map(|(_, v)| v.nj()).sum();
    assert!((sum - r.energy.total_nj().nj()).abs() < 1e-6);
    // Every edge is gathered exactly once per iteration.
    assert_eq!(r.ops.compute_items, 3 * graph.num_edges() as u64);
    // The rows-per-MAC histogram covers every MAC burst.
    assert_eq!(r.rows_per_mac.total(), r.ops.mac_ops);
    // Throughput derivation is coherent.
    assert!(r.edges_per_second() > 0.0);
}

#[test]
fn dangling_vertices_and_disconnected_components_are_handled() {
    // Vertices 6..10 are isolated; vertex 5 dangles (no out-edges).
    let graph = gaasx::graph::GraphBuilder::new(10)
        .edge(0, 1, 2.0)
        .edge(1, 2, 2.0)
        .edge(2, 5, 1.0)
        .build()
        .unwrap();
    let pr = accel().run(&PageRank::fixed_iterations(5), &graph).unwrap();
    assert!((pr.result[9] - 0.15).abs() < 1e-3, "isolated vertex rank");
    let sssp = accel()
        .run(&Sssp::from_source(VertexId::new(0)), &graph)
        .unwrap();
    assert_eq!(sssp.result[5], 5.0);
    assert!(sssp.result[9].is_infinite());
}

#[test]
fn io_roundtrip_feeds_the_accelerator() {
    // Serialize a graph through both formats and run on the result.
    let graph = generators::rmat(&RmatConfig::new(1 << 6, 400).with_seed(3)).unwrap();
    let mut text = Vec::new();
    gaasx::graph::io::write_edge_list(&mut text, &graph).unwrap();
    let from_text = gaasx::graph::io::read_edge_list(text.as_slice()).unwrap();
    let from_binary = gaasx::graph::io::from_binary(&gaasx::graph::io::to_binary(&graph)).unwrap();

    let src = VertexId::new(0);
    let direct = accel().run(&Bfs::from_source(src), &graph).unwrap().result;
    // The text roundtrip may shrink num_vertices if trailing vertices are
    // isolated; compare the common prefix.
    let via_text = accel()
        .run(&Bfs::from_source(src), &from_text)
        .unwrap()
        .result;
    let via_binary = accel()
        .run(&Bfs::from_source(src), &from_binary)
        .unwrap()
        .result;
    assert_eq!(via_binary, direct);
    assert_eq!(via_text[..], direct[..via_text.len()]);
}
