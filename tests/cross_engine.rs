//! Cross-engine integration tests: every engine (GaaS-X, GraphR, the CPU
//! kernels, the GPU model) agrees functionally, and the cost relationships
//! the paper claims hold in the right direction.

#![allow(clippy::unwrap_used)]
use gaasx::baselines::cpu::{GapbsCpu, GridGraphCpu};
use gaasx::baselines::gram::GramModel;
use gaasx::baselines::reference;
use gaasx::baselines::{GraphR, GraphRConfig};
use gaasx::core::algorithms::{PageRank, Sssp};
use gaasx::core::{GaasX, GaasXConfig};
use gaasx::graph::datasets::PaperDataset;
use gaasx::graph::{CooGraph, VertexId};

fn workload() -> CooGraph {
    PaperDataset::WikiVote.instantiate_graph(0.2).unwrap()
}

#[test]
fn all_engines_agree_on_sssp() {
    let g = workload();
    let src = VertexId::new(0);
    let oracle = reference::dijkstra(&g, src);

    let gx = GaasX::new(GaasXConfig::small())
        .run(&Sssp::from_source(src), &g)
        .unwrap();
    assert_eq!(gx.result, oracle, "gaasx");

    let gr = GraphR::new(GraphRConfig::small()).sssp(&g, src).unwrap();
    assert_eq!(gr.result, oracle, "graphr");

    let cpu = GridGraphCpu::with_threads(4).sssp(&g, src).unwrap();
    assert_eq!(cpu.result, oracle, "gridgraph");

    let gap = GapbsCpu::with_threads(2).sssp(&g, src).unwrap();
    assert_eq!(gap.result, oracle, "gapbs");
}

#[test]
fn all_engines_agree_on_pagerank() {
    let g = workload();
    let oracle = reference::pagerank(&g, 0.85, 6);

    let gx = GaasX::new(GaasXConfig::small())
        .run(&PageRank::fixed_iterations(6), &g)
        .unwrap();
    let mean_err: f64 = gx
        .result
        .iter()
        .zip(&oracle)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / oracle.len() as f64;
    assert!(mean_err < 0.05, "gaasx mean err {mean_err}");

    let gr = GraphR::new(GraphRConfig::small())
        .pagerank(&g, 0.85, 6)
        .unwrap();
    for (a, b) in gr.result.iter().zip(&oracle) {
        assert!((a - b).abs() < 1e-9, "graphr exactness");
    }

    let cpu = GridGraphCpu::with_threads(4).pagerank(&g, 0.85, 6).unwrap();
    for (a, b) in cpu.result.iter().zip(&oracle) {
        assert!((a - b).abs() < 1e-9, "gridgraph exactness");
    }
}

#[test]
fn sparse_mapping_beats_dense_mapping_on_scale_free_data() {
    // The paper's core claim, at matched unit counts on a community-local
    // scale-free graph: GaaS-X programs far fewer cells and wins time and
    // energy.
    let g = workload();
    let units = 64;
    let mut gx = GaasX::new(GaasXConfig {
        num_banks: units,
        ..GaasXConfig::paper()
    });
    let mut gr = GraphR::new(GraphRConfig {
        num_pe: units,
        ..GraphRConfig::paper()
    });
    let a = gx.run(&PageRank::fixed_iterations(5), &g).unwrap().report;
    let b = gr.pagerank(&g, 0.85, 5).unwrap().report;

    // Raw cell counts are not comparable across array types (a CAM entry
    // burns 256 cheap binary devices, a dense tile 2048 expensive MLC
    // programs); the write *energy* is the meaningful aggregate.
    assert!(
        b.energy.write_nj > a.energy.write_nj * 5,
        "dense write energy {} vs sparse {}",
        b.energy.write_nj,
        a.energy.write_nj
    );
    assert!(
        b.ops.compute_items > 3 * a.ops.compute_items,
        "dense computed {} vs sparse {}",
        b.ops.compute_items,
        a.ops.compute_items
    );
    assert!(a.speedup_over(&b) > 1.5, "speedup {}", a.speedup_over(&b));
    assert!(
        a.energy_savings_over(&b) > 3.0,
        "energy savings {}",
        a.energy_savings_over(&b)
    );
}

#[test]
fn dense_mapping_is_fine_on_dense_data() {
    // Crossover check: on a complete graph the sparse advantage should
    // shrink dramatically (no redundancy to exploit).
    let dense_graph = gaasx::graph::generators::complete_graph(64);
    let sparse_graph = workload();
    let units = 64;
    let run = |g: &CooGraph| {
        let mut gx = GaasX::new(GaasXConfig {
            num_banks: units,
            ..GaasXConfig::paper()
        });
        let mut gr = GraphR::new(GraphRConfig {
            num_pe: units,
            ..GraphRConfig::paper()
        });
        let a = gx.run(&PageRank::fixed_iterations(3), g).unwrap().report;
        let b = gr.pagerank(g, 0.85, 3).unwrap().report;
        a.energy_savings_over(&b)
    };
    let on_dense = run(&dense_graph);
    let on_sparse = run(&sparse_graph);
    assert!(
        on_sparse > 2.0 * on_dense,
        "sparse-data advantage {on_sparse} should dwarf dense-data {on_dense}"
    );
}

#[test]
fn gram_sits_between_gaasx_and_graphr() {
    let g = workload();
    let units = 64;
    let mut gx = GaasX::new(GaasXConfig {
        num_banks: units,
        ..GaasXConfig::paper()
    });
    let mut gr = GraphR::new(GraphRConfig {
        num_pe: units,
        ..GraphRConfig::paper()
    });
    let a = gx.run(&PageRank::fixed_iterations(5), &g).unwrap().report;
    let b = gr.pagerank(&g, 0.85, 5).unwrap().report;
    let gram = GramModel::for_algorithm("pagerank")
        .expect("GRAM publishes pagerank ratios")
        .report_from_graphr(&b);
    assert!(gram.elapsed_ns < b.elapsed_ns, "gram faster than graphr");
    assert!(
        a.speedup_over(&gram) < a.speedup_over(&b),
        "gaasx-vs-gram speedup below gaasx-vs-graphr"
    );
}

#[test]
fn gpu_model_is_faster_than_measured_cpu_per_edge() {
    // Sanity on the Table III ordering: a Titan-V-class part moves edges
    // faster than the streaming CPU kernels.
    let g = PaperDataset::Slashdot.instantiate_graph(0.2).unwrap();
    let gpu = gaasx::baselines::gpu::GpuModel::titan_v().pagerank(&g, 10);
    let cpu = GridGraphCpu::new().pagerank(&g, 0.85, 10).unwrap();
    assert!(
        gpu.elapsed_ns < cpu.report.elapsed_ns,
        "gpu {} vs cpu {}",
        gpu.elapsed_ns,
        cpu.report.elapsed_ns
    );
}
