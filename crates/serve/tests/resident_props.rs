//! Property: residency is functionally invisible. A graph that is
//! evicted, reprogrammed onto fresh banks, and queried again returns a
//! result and report bit-identical to a fresh one-shot
//! `GaasX::run_labeled_sharded` of the same request — across job counts
//! and fault models (stuck cells, transient write
//! failures, endurance tracking; all deterministic per seed, so a
//! reprogram replays the same recovery the one-shot run performs).
//!
//! A batch of sources answers each source as its one-shot run does, also
//! when unverified transient write failures corrupt what the banks hold:
//! a failure is keyed by the pass, the shard and the chunk being loaded,
//! so the chunks a batch loads hold exactly what the one-shot runs'
//! loads of them hold.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use gaasx_core::algorithms::{Bfs, Sssp};
use gaasx_core::{GaasX, GaasXConfig, RecoveryPolicy};
use gaasx_graph::{generators, CooGraph, VertexId};
use gaasx_serve::{QueryKind, ResidentGraph};
use gaasx_xbar::FaultModel;

fn graph(seed: u64) -> CooGraph {
    generators::rmat(&generators::RmatConfig::new(1 << 5, 250).with_seed(seed)).unwrap()
}

/// Transient write failures with write-verify off: nothing repairs the
/// corrupted keys and weights, so they reach the answers.
fn unverified_transient_config() -> GaasXConfig {
    GaasXConfig {
        fault: FaultModel {
            seed: 11,
            write_fail_rate: 0.02,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy {
            write_verify: false,
            ..RecoveryPolicy::standard()
        },
        ..GaasXConfig::small()
    }
}

fn config(faulty: bool) -> GaasXConfig {
    let mut config = GaasXConfig::small();
    if faulty {
        config.fault = FaultModel {
            seed: 11,
            cam_stuck_ber: 1e-4,
            mac_stuck_ber: 1e-4,
            write_fail_rate: 1e-3,
            endurance: 1_000_000_000,
            ..FaultModel::none()
        };
        config.recovery = RecoveryPolicy::standard();
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn evict_reprogram_rerun_is_bit_identical_to_one_shot(
        graph_seed in 0u64..6,
        jobs_idx in 0usize..3,
        faulty in any::<bool>(),
        weighted in any::<bool>(),
        source in 0u32..32,
    ) {
        let jobs = [1usize, 2, 4][jobs_idx];
        let g = graph(graph_seed);
        let config = config(faulty);
        let kind = if weighted {
            QueryKind::Sssp { source }
        } else {
            QueryKind::Bfs { source }
        };

        let mut resident = ResidentGraph::new("g".into(), g.clone(), config.clone(), jobs);
        resident.ensure_resident().unwrap();
        // First query wears the banks in; eviction then frees them.
        resident.run_query(&kind, None).unwrap();
        resident.evict();
        prop_assert!(!resident.is_resident());
        resident.ensure_resident().unwrap();
        let rerun = resident.run_query(&kind, None).unwrap();
        prop_assert_eq!(resident.programs(), 2);

        let mut accel = GaasX::new(config);
        let one_shot = if weighted {
            accel.run_labeled_sharded(&Sssp::from_source(VertexId::new(source)), &g, "g", jobs)
                .unwrap()
        } else {
            accel.run_labeled_sharded(&Bfs::from_source(VertexId::new(source)), &g, "g", jobs)
                .unwrap()
        };
        prop_assert_eq!(&rerun.values[0], &one_shot.result);
        prop_assert_eq!(rerun.report.ops, one_shot.report.ops);
        prop_assert_eq!(rerun.report.elapsed_ns, one_shot.report.elapsed_ns);
        prop_assert_eq!(
            rerun.report.energy.total_nj(),
            one_shot.report.energy.total_nj()
        );
        prop_assert_eq!(rerun.report.faults, one_shot.report.faults);
    }

    #[test]
    fn batched_sources_stay_identical_to_one_shots(
        graph_seed in 0u64..6,
        jobs_idx in 0usize..2,
        weighted in any::<bool>(),
        sources in prop::collection::vec(0u32..32, 1..4),
        transient in any::<bool>(),
    ) {
        let jobs = [1usize, 2][jobs_idx];
        let g = graph(graph_seed);
        let config = if transient {
            unverified_transient_config()
        } else {
            config(false)
        };

        let kind = if weighted {
            QueryKind::BatchSssp { sources: sources.clone() }
        } else {
            QueryKind::BatchBfs { sources: sources.clone() }
        };
        let mut resident = ResidentGraph::new("g".into(), g.clone(), config.clone(), jobs);
        resident.ensure_resident().unwrap();
        let batch = resident.run_query(&kind, None).unwrap();

        for (q, &source) in sources.iter().enumerate() {
            let mut accel = GaasX::new(config.clone());
            let one_shot = if weighted {
                accel.run_labeled_sharded(&Sssp::from_source(VertexId::new(source)), &g, "g", jobs)
                    .unwrap()
            } else {
                accel.run_labeled_sharded(&Bfs::from_source(VertexId::new(source)), &g, "g", jobs)
                    .unwrap()
            };
            prop_assert_eq!(&batch.values[q], &one_shot.result, "source {}", source);
            prop_assert_eq!(batch.iterations[q], one_shot.report.iterations,
                "source {}", source);
        }
    }
}
