//! Property tests for the fault-injection layer.
//!
//! Two invariants:
//!
//! 1. **Zero-rate = zero-cost.** A [`FaultModel`] with every rate at zero,
//!    combined with *any* recovery policy, must leave both serial and
//!    sharded runs bit-identical to a config that never mentions faults —
//!    same outputs, same op counts, same energy, same makespan, zero
//!    verify reads. The fault layer may not perturb the model when off.
//! 2. **Recoverable faults are invisible in the results.** With stuck-cell
//!    and transient-write rates the standard policy can absorb, algorithm
//!    outputs exactly match the fault-free run — recovery costs time and
//!    energy, never correctness.
//!
//! A third property covers faults recovery cannot mask: CAM search upsets
//! may change results, but a run must still end in `Ok` or a typed
//! [`CoreError`](gaasx_core::CoreError), never a panic.

#![allow(clippy::unwrap_used)]
use gaasx_core::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use gaasx_core::{GaasX, GaasXConfig, RecoveryPolicy, ShardableAlgorithm};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::{CooGraph, VertexId};
use gaasx_xbar::FaultModel;
use proptest::prelude::*;

fn graph_for(vertex_exp: u32, edges: usize, seed: u64) -> CooGraph {
    rmat(&RmatConfig::new(1 << vertex_exp, edges).with_seed(seed)).unwrap()
}

fn any_policy() -> impl Strategy<Value = RecoveryPolicy> {
    (0u8..6, any::<bool>(), 0u32..4, 0usize..32, any::<bool>()).prop_map(
        |(pick, write_verify, retry_budget, spare_rows, cam_double_check)| match pick {
            0 => RecoveryPolicy::off(),
            1 => RecoveryPolicy::standard(),
            2 => RecoveryPolicy::detect_only(),
            _ => RecoveryPolicy {
                write_verify,
                retry_budget,
                spare_rows,
                cam_double_check,
            },
        },
    )
}

/// Zero-rate fault model + arbitrary policy vs. the plain config: reports
/// must agree bit for bit, serially and sharded.
fn assert_zero_rate_identity<A>(
    algorithm: &A,
    graph: &A::Input,
    policy: RecoveryPolicy,
    jobs: usize,
) where
    A: ShardableAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
{
    let plain = GaasX::new(GaasXConfig::small())
        .run(algorithm, graph)
        .unwrap();
    let gated = GaasXConfig {
        fault: FaultModel::none(),
        recovery: policy,
        ..GaasXConfig::small()
    };
    let serial = GaasX::new(gated.clone()).run(algorithm, graph).unwrap();
    let sharded = GaasX::new(gated)
        .run_sharded(algorithm, graph, jobs)
        .unwrap();

    prop_assert_eq!(&serial.result, &plain.result, "serial outputs diverged");
    prop_assert_eq!(&sharded.result, &plain.result, "sharded outputs diverged");
    prop_assert_eq!(serial.report.ops.verify_reads, 0);
    prop_assert!(serial.report.faults.is_zero());
    prop_assert_eq!(&serial.report, &plain.report);
    prop_assert_eq!(&sharded.report, &plain.report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn zero_rate_fault_model_is_bit_identical_to_fault_free(
        vertex_exp in 5u32..7,
        edges in 50usize..400,
        seed in 0u64..1_000,
        jobs in 2usize..4,
        policy in any_policy(),
    ) {
        let graph = graph_for(vertex_exp, edges, seed);
        assert_zero_rate_identity(&PageRank::fixed_iterations(3), &graph, policy, jobs);
        assert_zero_rate_identity(&Sssp::from_source(VertexId::new(0)), &graph, policy, jobs);
    }

    #[test]
    fn recovered_runs_reproduce_fault_free_outputs(
        vertex_exp in 5u32..7,
        edges in 50usize..300,
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        cam_ber in 0.0..3e-4f64,
        mac_ber in 0.0..3e-4f64,
        write_fail in 0.0..0.05f64,
    ) {
        let graph = graph_for(vertex_exp, edges, seed);
        let clean = GaasX::new(GaasXConfig::small())
            .run(&PageRank::fixed_iterations(3), &graph)
            .unwrap();
        let recovered = GaasX::new(GaasXConfig {
            fault: FaultModel {
                seed: fault_seed,
                cam_stuck_ber: cam_ber,
                mac_stuck_ber: mac_ber,
                write_fail_rate: write_fail,
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy::standard(),
            ..GaasXConfig::small()
        })
        .run(&PageRank::fixed_iterations(3), &graph)
        .unwrap();
        prop_assert_eq!(&recovered.result, &clean.result, "recovery leaked into results");
        // Unless every drawn rate was exactly zero (fault layer inert),
        // write-verify ran over every programmed row.
        let inert = cam_ber == 0.0 && mac_ber == 0.0 && write_fail == 0.0;
        prop_assert_eq!(recovered.report.ops.verify_reads > 0, !inert);
    }

    #[test]
    fn upset_free_votes_bill_three_searches_per_logical_search(
        vertex_exp in 5u32..7,
        edges in 50usize..300,
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        cam_ber in 1e-5..3e-4f64,
        mac_ber in 1e-5..3e-4f64,
        write_fail in 1e-3..0.05f64,
    ) {
        let graph = graph_for(vertex_exp, edges, seed);
        let sssp = Sssp::from_source(VertexId::new(0));
        let clean = GaasX::new(GaasXConfig::small()).run(&sssp, &graph).unwrap();
        let run = |cam_double_check: bool| {
            GaasX::new(GaasXConfig {
                fault: FaultModel {
                    seed: fault_seed,
                    cam_stuck_ber: cam_ber,
                    mac_stuck_ber: mac_ber,
                    write_fail_rate: write_fail,
                    ..FaultModel::none()
                },
                recovery: RecoveryPolicy {
                    cam_double_check,
                    ..RecoveryPolicy::standard()
                },
                ..GaasXConfig::small()
            })
            .run(&sssp, &graph)
            .unwrap()
        };
        let voted = run(true);
        let single = run(false);
        prop_assert_eq!(&voted.result, &clean.result, "recovery leaked into results");
        prop_assert_eq!(&single.result, &clean.result);
        // Without upsets a vote draws nothing, so programming, verify
        // and remapping replay identically; only the search bill triples.
        let logical = single.report.ops.cam_searches;
        prop_assert_eq!(voted.report.ops.cam_searches, 3 * logical);
        prop_assert_eq!(voted.report.faults.cam_double_checks, logical);
        prop_assert_eq!(voted.report.ops.verify_reads, single.report.ops.verify_reads);
        prop_assert_eq!(voted.report.faults.write_retries, single.report.faults.write_retries);
        prop_assert_eq!(voted.report.faults.row_remaps, single.report.faults.row_remaps);
    }

    #[test]
    fn cam_upsets_never_panic_the_algorithms(
        vertex_exp in 5u32..7,
        edges in 50usize..400,
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        upset_ix in 0usize..3,
        cam_double_check in any::<bool>(),
        remapping in any::<bool>(),
    ) {
        let graph = graph_for(vertex_exp, edges, seed);
        // With `remapping`, transient write failures past a zero retry
        // budget retire rows onto spares, so hits also go through the
        // phys -> slot translation.
        let config = GaasXConfig {
            fault: FaultModel {
                seed: fault_seed,
                cam_upset_rate: [0.01, 0.05, 0.2][upset_ix],
                write_fail_rate: if remapping { 0.005 } else { 0.0 },
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy {
                cam_double_check,
                retry_budget: 0,
                spare_rows: 32,
                ..RecoveryPolicy::standard()
            },
            ..GaasXConfig::small()
        };
        let source = VertexId::new(0);
        // `Err` is a typed outcome (e.g. an exhausted spare pool); only a
        // panic fails the property.
        let _ = GaasX::new(config.clone()).run(&PageRank::fixed_iterations(3), &graph);
        let _ = GaasX::new(config.clone()).run(&Sssp::from_source(source), &graph);
        let _ = GaasX::new(config.clone()).run(&Bfs::from_source(source), &graph);
        let _ = GaasX::new(config).run(&ConnectedComponents::new(), &graph);
    }
}
