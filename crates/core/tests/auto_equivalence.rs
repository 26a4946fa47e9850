//! `SearchMode::Auto` equivalence gate: a run under the cost-modeled
//! default must be **bit-identical** — same outputs, same full
//! [`RunReport`](gaasx_sim::RunReport) — to the same run under both fixed
//! modes, across bank geometries, algorithms, job counts, and fault
//! injection. The search mode is a pure host-speed knob; any observable
//! divergence is a bug.

#![allow(clippy::unwrap_used)]
use gaasx_core::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use gaasx_core::engine::{CellLayout, Engine};
use gaasx_core::{
    GaasX, GaasXConfig, RecoveryPolicy, SearchMode, SearchProfile, ShardableAlgorithm,
};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::{CooGraph, Edge, VertexId};
use gaasx_xbar::FaultModel;
use proptest::prelude::*;

/// The two benchmarked design points, shrunk to 8 banks for test speed
/// (bank count only scales the schedule, not the per-block search shape).
fn bank_config(bank: &str, fault: bool) -> GaasXConfig {
    let mut c = match bank {
        "paper" => GaasXConfig::small(),
        "deep" => GaasXConfig {
            num_banks: 8,
            ..GaasXConfig::deep_bank()
        },
        other => panic!("unknown bank {other}"),
    };
    if fault {
        // The bench_snapshot fault regime: recoverable stuck cells and
        // write failures under the standard write-verify policy.
        c.fault = FaultModel {
            seed: 0xBE05,
            cam_stuck_ber: 1e-4,
            mac_stuck_ber: 1e-4,
            write_fail_rate: 1e-3,
            ..FaultModel::none()
        };
        c.recovery = RecoveryPolicy::standard();
    }
    c
}

/// Runs `algorithm` under all three search modes (same geometry, jobs,
/// fault setting) and checks output and full-report identity.
fn assert_mode_invariant<A>(algorithm: &A, input: &A::Input, cfg: &GaasXConfig, jobs: usize)
where
    A: ShardableAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
{
    let run = |mode: SearchMode| {
        let mut accel = GaasX::new(GaasXConfig {
            search_mode: mode,
            ..cfg.clone()
        });
        if jobs == 1 {
            accel.run(algorithm, input).unwrap()
        } else {
            accel.run_sharded(algorithm, input, jobs).unwrap()
        }
    };
    let auto = run(SearchMode::Auto);
    for fixed in [SearchMode::Linear, SearchMode::Indexed] {
        let want = run(fixed);
        assert_eq!(
            auto.result,
            want.result,
            "{}: auto output diverged from {fixed}",
            algorithm.name()
        );
        assert_eq!(
            auto.report,
            want.report,
            "{}: auto report diverged from {fixed}",
            algorithm.name()
        );
        assert_eq!(
            auto.report.elapsed_ns.ns().to_bits(),
            want.report.elapsed_ns.ns().to_bits(),
            "{}: elapsed bits diverged from {fixed}",
            algorithm.name()
        );
    }
}

fn test_graph(edges: usize, seed: u64) -> CooGraph {
    rmat(&RmatConfig::new(128, edges).with_seed(seed)).unwrap()
}

/// The full ISSUE-7 identity matrix: paper/deep banks × PR/SSSP/BFS/CC ×
/// jobs {1,4} × fault on/off.
#[test]
fn auto_matches_both_fixed_modes_across_the_matrix() {
    let graph = test_graph(600, 7);
    let sym = graph.symmetrized();
    for bank in ["paper", "deep"] {
        for fault in [false, true] {
            let cfg = bank_config(bank, fault);
            for jobs in [1usize, 4] {
                assert_mode_invariant(&PageRank::fixed_iterations(3), &graph, &cfg, jobs);
                assert_mode_invariant(&Sssp::from_source(VertexId::new(0)), &graph, &cfg, jobs);
                assert_mode_invariant(&Bfs::from_source(VertexId::new(0)), &graph, &cfg, jobs);
                assert_mode_invariant(&ConnectedComponents::new(), &sym, &cfg, jobs);
            }
        }
    }
}

/// Pins the cost model's decision on the measured `bench_snapshot` design
/// points through the real engine path: a representative full paper-bank
/// block resolves Indexed for the frontier traversals (1.19–1.26x over
/// Linear with the chained field index) and for dense sweeps at both
/// depths (up to 1.94x on deep banks).
#[test]
fn resolver_pins_the_bench_winners() {
    // Paper bank, frontier profile (BFS/CC/SSSP): Indexed.
    let mut paper = Engine::new(GaasXConfig::small()).unwrap();
    paper.set_search_profile(SearchProfile::Frontier);
    let block: Vec<Edge> = (0..128u32).map(|i| Edge::new(i, 200 + i, 1.0)).collect();
    paper.load_block(&block, CellLayout::Preset).unwrap();
    assert_eq!(paper.resolved_search_mode(), SearchMode::Indexed);

    // Paper bank, dense profile (PageRank): Indexed.
    let mut paper_pr = Engine::new(GaasXConfig::small()).unwrap();
    paper_pr.set_search_profile(SearchProfile::OnePerKey);
    paper_pr.load_block(&block, CellLayout::Preset).unwrap();
    assert_eq!(paper_pr.resolved_search_mode(), SearchMode::Indexed);

    // Deep bank, dense profile (PageRank): Indexed by a wide margin.
    let mut deep = Engine::new(GaasXConfig {
        num_banks: 8,
        ..GaasXConfig::deep_bank()
    })
    .unwrap();
    deep.set_search_profile(SearchProfile::OnePerKey);
    let deep_block: Vec<Edge> = (0..2048u32).map(|i| Edge::new(i, 4000 + i, 1.0)).collect();
    deep.load_block(&deep_block, CellLayout::Preset).unwrap();
    assert_eq!(deep.resolved_search_mode(), SearchMode::Indexed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random graphs, job counts, and fault settings: Auto stays
    /// bit-identical to both fixed modes on every algorithm.
    #[test]
    fn auto_is_bit_identical_on_random_graphs(
        edges in 60usize..400,
        seed in 0u64..1_000,
        jobs in 1usize..5,
        fault in any::<bool>(),
        deep in any::<bool>(),
    ) {
        let cfg = bank_config(if deep { "deep" } else { "paper" }, fault);
        let graph = test_graph(edges, seed);
        assert_mode_invariant(&PageRank::fixed_iterations(2), &graph, &cfg, jobs);
        assert_mode_invariant(&Bfs::from_source(VertexId::new(0)), &graph, &cfg, jobs);
        assert_mode_invariant(&Sssp::from_source(VertexId::new(0)), &graph, &cfg, jobs);
        assert_mode_invariant(&ConnectedComponents::new(), &graph.symmetrized(), &cfg, jobs);
    }
}
