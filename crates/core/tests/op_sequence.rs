//! Pins the order of the device operations a traversal issues.
//!
//! Report totals are integer sums, exact in any order, so two swapped
//! searches (or a load moved to another block) leave every report total
//! unchanged. The span stream does not: each traced operation records its
//! phase, start and duration on the engine's functional clock. This test
//! hashes that sequence for traced BFS, SSSP, 3-source batch SSSP and
//! connected-components runs on paper and deep banks, fault-free and
//! under stuck-cell plus transient write faults with the standard
//! recovery policy, serially and sharded over two workers, and compares
//! each hash with a digest recorded from an earlier build of the same
//! traversal. A rework of the superstep loop must keep every digest.
//!
//! When a change is *meant* to alter the operation sequence, the failure
//! message prints the full table of new digests to paste below.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use gaasx_core::algorithms::{traverse, Bfs, ConnectedComponents, Sssp};
use gaasx_core::engine::partition_for_streaming;
use gaasx_core::{GaasX, GaasXConfig, RecoveryPolicy, ShardedEngine};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::{CooGraph, VertexId};
use gaasx_sim::{MemorySink, SpanEvent, Tracer};
use gaasx_xbar::FaultModel;

/// `(case, span count, FNV-1a digest of the (phase, start, duration)
/// sequence)`, in the order [`cases`] runs them.
const EXPECTED: &[(&str, usize, u64)] = &[
    ("paper/serial/bfs", 4321, 0x309d8072b0ef8f32),
    ("paper/serial/sssp", 6648, 0xa41396dbc17cbf97),
    ("paper/serial/batch3", 20867, 0xb349c7ffbb145d3f),
    ("paper/serial/cc", 11725, 0xd7255dee4f4bfe3b),
    ("paper/jobs2/bfs", 4321, 0xb0caf2ed21b7eac7),
    ("paper/jobs2/sssp", 6648, 0x9621da75aff85ec2),
    ("paper/jobs2/batch3", 20867, 0x814586b56b963fb0),
    ("paper/jobs2/cc", 11725, 0x28e3a69edc576bf4),
    ("paper+faults/serial/bfs", 5867, 0x10f5e2f7a0be5573),
    ("paper+faults/serial/sssp", 9059, 0xe1d7c1e646e10650),
    ("paper+faults/serial/batch3", 28987, 0x8f33e1964dbd998c),
    ("paper+faults/serial/cc", 16888, 0xb45b73e636c4cffd),
    ("paper+faults/jobs2/bfs", 5867, 0x99808a8f2cd5b44b),
    ("paper+faults/jobs2/sssp", 9059, 0x13f322c8bc2468ac),
    ("paper+faults/jobs2/batch3", 28987, 0x8ed6a68a93abc9d3),
    ("paper+faults/jobs2/cc", 16888, 0xdc4452941f9781e2),
    ("deep/serial/bfs", 4292, 0x0d4c78ae3825ec57),
    ("deep/serial/sssp", 6603, 0x9a81ab5c600fbbe6),
    ("deep/serial/batch3", 20739, 0x55c58b0c2cfcf6c7),
    ("deep/serial/cc", 11725, 0xd7255dee4f4bfe3b),
    ("deep/jobs2/bfs", 4292, 0xcb36eb4deeccefcc),
    ("deep/jobs2/sssp", 6603, 0xb1d9f3a5cd04f06f),
    ("deep/jobs2/batch3", 20739, 0x0a19c86ec2acd924),
    ("deep/jobs2/cc", 11725, 0x28e3a69edc576bf4),
    ("deep+faults/serial/bfs", 5824, 0x5de0c4b5f6267277),
    ("deep+faults/serial/sssp", 8973, 0xdd749240b638a695),
    ("deep+faults/serial/batch3", 28717, 0xb10ab9949603e033),
    ("deep+faults/serial/cc", 16903, 0x688baae266a5ac90),
    ("deep+faults/jobs2/bfs", 5824, 0x1657fc5b766965b7),
    ("deep+faults/jobs2/sssp", 8973, 0x536174a39d3590c3),
    ("deep+faults/jobs2/batch3", 28717, 0x3dbdcc274041de45),
    ("deep+faults/jobs2/cc", 16903, 0x5a9f2d6001a6680c),
];

/// FNV-1a over each span's phase index and the bit patterns of its start
/// and duration.
fn digest(events: &[SpanEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in events {
        eat(e.phase.index() as u64);
        eat(e.start_ns.to_bits());
        eat(e.dur_ns.to_bits());
    }
    h
}

fn configs() -> Vec<(&'static str, GaasXConfig)> {
    let faulty = |base: GaasXConfig| GaasXConfig {
        fault: FaultModel {
            seed: 17,
            cam_stuck_ber: 1e-4,
            mac_stuck_ber: 1e-4,
            write_fail_rate: 5e-3,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::standard(),
        ..base
    };
    let deep = GaasXConfig {
        num_banks: 8,
        ..GaasXConfig::deep_bank()
    };
    vec![
        ("paper", GaasXConfig::small()),
        ("paper+faults", faulty(GaasXConfig::small())),
        ("deep", deep.clone()),
        ("deep+faults", faulty(deep)),
    ]
}

/// Runs `query` with a [`MemorySink`] attached and returns the recorded
/// span count and digest.
fn traced(
    config: &GaasXConfig,
    jobs: Option<usize>,
    graph: &CooGraph,
    query: &str,
) -> (usize, u64) {
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::with_sink(sink.clone());
    let mut accel = GaasX::new(config.clone()).with_tracer(tracer.clone());
    let source = VertexId::new(0);
    match query {
        "bfs" => {
            let alg = Bfs::from_source(source);
            match jobs {
                None => drop(accel.run(&alg, graph).unwrap()),
                Some(j) => drop(accel.run_sharded(&alg, graph, j).unwrap()),
            }
        }
        "sssp" => {
            let alg = Sssp::from_source(source);
            match jobs {
                None => drop(accel.run(&alg, graph).unwrap()),
                Some(j) => drop(accel.run_sharded(&alg, graph, j).unwrap()),
            }
        }
        "cc" => {
            let sym = graph.symmetrized();
            let alg = ConnectedComponents::new();
            match jobs {
                None => drop(accel.run(&alg, &sym).unwrap()),
                Some(j) => drop(accel.run_sharded(&alg, &sym, j).unwrap()),
            }
        }
        "batch3" => {
            let grid = partition_for_streaming(graph).unwrap();
            let sources = [0u32, 5, 17].map(VertexId::new);
            let mut exec = ShardedEngine::new(config.clone(), jobs.unwrap_or(1)).unwrap();
            exec.set_tracer(tracer);
            let quant = Sssp::check_weights(&grid, config.mac_geometry.weight_bits()).unwrap();
            let out = traverse(&mut exec, &grid, Some(&quant), &sources, u32::MAX).unwrap();
            let steps = out.iterations.iter().copied().max().unwrap_or(0);
            drop(exec.finish("gaasx", "sssp_batch", "op_sequence", steps, 0));
        }
        other => unreachable!("unknown query {other}"),
    }
    let events = sink.take_events();
    (events.len(), digest(&events))
}

fn cases() -> Vec<(String, usize, u64)> {
    let graph = rmat(&RmatConfig::new(1 << 8, 2_000).with_seed(3)).unwrap();
    let mut out = Vec::new();
    for (banks, config) in configs() {
        for jobs in [None, Some(2)] {
            for query in ["bfs", "sssp", "batch3", "cc"] {
                let (count, hash) = traced(&config, jobs, &graph, query);
                let mode = jobs.map_or("serial".to_string(), |j| format!("jobs{j}"));
                out.push((format!("{banks}/{mode}/{query}"), count, hash));
            }
        }
    }
    out
}

#[test]
fn traced_op_sequences_match_their_recorded_digests() {
    let got = cases();
    let table: String = got
        .iter()
        .map(|(case, count, hash)| format!("    ({case:?}, {count}, {hash:#018x}),\n"))
        .collect();
    assert!(
        got.iter().all(|&(_, count, _)| count > 0),
        "every case must trace spans:\n{table}"
    );
    let expected: Vec<(String, usize, u64)> = EXPECTED
        .iter()
        .map(|&(case, count, hash)| (case.to_string(), count, hash))
        .collect();
    assert_eq!(got, expected, "op sequences changed; new table:\n{table}");
}
