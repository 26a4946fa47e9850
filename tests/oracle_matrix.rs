//! Oracle matrix: every algorithm run on the accelerator — paper and deep
//! banks, fault-free and under recoverable faults with
//! [`RecoveryPolicy::standard`], serial and sharded over 2 and 4 workers —
//! must answer like the `gaasx_baselines::reference` oracles, and a
//! fault-free sharded run must report exactly what the serial run does.
//! Batched BFS and SSSP queries (three sources through one multi-source
//! traversal) run the same matrix.
//!
//! Under stuck cells a sharded run's report may differ from the serial
//! one: a stuck row remaps onto a spare from its own engine's pool, so
//! splitting the blocks across workers changes which spares later loads
//! use. Recovery still has to reproduce the oracle answers, and the same
//! sharded run must report the same thing every time. Transient faults
//! alone (write failures and search upsets) are keyed draws that do not
//! depend on the worker, so that fault row must report exactly what the
//! serial run does.
//!
//! Agreement between two host paths only proves they agree with each
//! other; this matrix pins both to the oracles. Debug builds also
//! cross-check every CAM search against the scalar scan inside the
//! crossbar, so running it under `--release` covers the binary shape the
//! benchmarks time.
//!
//! Stuck cells without write-verify are the one fault row checked for
//! identity rather than oracle answers: nothing repairs the cells, but
//! stuck bits draw no random numbers, so reruns and sharded runs must
//! report exactly what the serial run does.

#![allow(clippy::unwrap_used)]
use gaasx::baselines::reference;
use gaasx::core::algorithms::{traverse, Bfs, ConnectedComponents, PageRank, Sssp};
use gaasx::core::engine::{partition_for_streaming, Engine};
use gaasx::core::{
    GaasX, GaasXConfig, RecoveryPolicy, RunOutcome, ShardableAlgorithm, ShardedEngine,
};
use gaasx::graph::generators::{paper_fig7_graph, rmat, RmatConfig};
use gaasx::graph::{CooGraph, VertexId};
use gaasx::xbar::FaultModel;

/// Mean absolute PageRank error allowed against the oracle (the bound
/// `tests/end_to_end.rs` uses).
const PAGERANK_TOLERANCE: f64 = 0.02;

const PAGERANK_ITERS: u32 = 3;

/// The two benchmarked design points, shrunk to 8 banks for test speed.
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
        // Recoverable stuck cells and write failures under the standard
        // write-verify policy: every programmed row is read back, a
        // mismatch is retried, and a row that stays wrong is remapped
        // onto a spare.
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

/// Runs `algorithm` serially, then sharded over 2 and 4 workers, checks
/// every sharded output against the serial run and every sharded report
/// against the serial one (fault-free) or a rerun of itself (faulty),
/// and returns the serial outcome for the oracle check.
fn run_all_jobs<A>(
    algorithm: &A,
    input: &A::Input,
    cfg: &GaasXConfig,
    label: &str,
) -> RunOutcome<A::Output>
where
    A: ShardableAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
{
    let serial = GaasX::new(cfg.clone()).run(algorithm, input).unwrap();
    for jobs in [2usize, 4] {
        let sharded = GaasX::new(cfg.clone())
            .run_sharded(algorithm, input, jobs)
            .unwrap();
        assert_eq!(
            sharded.result, serial.result,
            "{label} jobs={jobs}: sharded output diverged from serial"
        );
        let want = if cfg.fault.is_none() {
            serial.report.clone()
        } else {
            GaasX::new(cfg.clone())
                .run_sharded(algorithm, input, jobs)
                .unwrap()
                .report
        };
        assert_eq!(
            sharded.report, want,
            "{label} jobs={jobs}: sharded report diverged"
        );
    }
    serial
}

/// Weakly connected components by union-find: each vertex is labelled
/// with the smallest vertex id in its component, as min-label
/// propagation on the symmetrized graph labels it.
fn union_find_labels(graph: &CooGraph) -> Vec<u32> {
    fn root(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let up = parent[parent[v as usize] as usize];
            parent[v as usize] = up;
            v = up;
        }
        v
    }
    let mut parent: Vec<u32> = (0..graph.num_vertices()).collect();
    for e in graph.edges() {
        let (a, b) = (
            root(&mut parent, e.src.raw()),
            root(&mut parent, e.dst.raw()),
        );
        // Union by smaller id keeps every root its component's minimum.
        let (lo, hi) = (a.min(b), a.max(b));
        parent[hi as usize] = lo;
    }
    (0..graph.num_vertices())
        .map(|v| root(&mut parent, v))
        .collect()
}

#[test]
fn every_run_matches_the_oracles() {
    let graph = rmat(&RmatConfig::new(128, 600).with_seed(7)).unwrap();
    let sym = graph.symmetrized();
    let pr_oracle = reference::pagerank(&graph, 0.85, PAGERANK_ITERS);
    let cc_oracle = union_find_labels(&sym);
    // Traversals also run on a second RMAT (BFS), the paper's Fig 7
    // example and a weighted RMAT from another source (SSSP).
    let bfs_rmat = rmat(&RmatConfig::new(64, 500).with_seed(2)).unwrap();
    let fig7 = paper_fig7_graph();
    let sssp_rmat = rmat(&RmatConfig::new(64, 500).with_seed(8)).unwrap();
    let bfs_inputs = [("rmat 128", &graph, 0), ("rmat 64 seed 2", &bfs_rmat, 0)];
    let sssp_inputs = [
        ("rmat 128", &graph, 0),
        ("fig7", &fig7, 0),
        ("rmat 64 seed 8", &sssp_rmat, 1),
    ];
    for bank in ["paper", "deep"] {
        for fault in [false, true] {
            let cfg = bank_config(bank, fault);
            let label = |alg: &str| format!("{alg} bank={bank} fault={fault}");

            let pr = run_all_jobs(
                &PageRank::fixed_iterations(PAGERANK_ITERS),
                &graph,
                &cfg,
                &label("pagerank"),
            );
            let mean_err = pr
                .result
                .iter()
                .zip(&pr_oracle)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / pr_oracle.len() as f64;
            assert!(
                mean_err < PAGERANK_TOLERANCE,
                "{}: mean error {mean_err}",
                label("pagerank")
            );

            for (name, input, src) in sssp_inputs {
                let (src, label) = (VertexId::new(src), label(&format!("sssp {name}")));
                let sssp = run_all_jobs(&Sssp::from_source(src), input, &cfg, &label);
                assert_eq!(sssp.result, reference::dijkstra(input, src), "{label}");
            }

            for (name, input, src) in bfs_inputs {
                let (src, label) = (VertexId::new(src), label(&format!("bfs {name}")));
                let bfs = run_all_jobs(&Bfs::from_source(src), input, &cfg, &label);
                assert_eq!(bfs.result, reference::bfs(input, src), "{label}");
            }

            let cc = run_all_jobs(&ConnectedComponents::new(), &sym, &cfg, &label("cc"));
            assert_eq!(cc.result, cc_oracle, "{}", label("cc"));
        }
    }
}

/// Batched traversal: three sources at once through the core
/// multi-source traversal, for BFS and SSSP, on every bank and fault row,
/// serially and sharded over 1, 2 and 4 workers. Every query must answer
/// like its oracle, and a fault-free sharded run must report exactly what
/// the serial run does.
#[test]
fn batched_traversals_match_the_oracles() {
    let graph = rmat(&RmatConfig::new(128, 600).with_seed(7)).unwrap();
    let grid = partition_for_streaming(&graph).unwrap();
    let sources = [0u32, 5, 17].map(VertexId::new);
    for weighted in [false, true] {
        let oracles: Vec<Vec<f64>> = sources
            .iter()
            .map(|&s| {
                if weighted {
                    reference::dijkstra(&graph, s)
                } else {
                    reference::bfs(&graph, s)
                }
            })
            .collect();
        for bank in ["paper", "deep"] {
            for fault in [false, true] {
                let cfg = bank_config(bank, fault);
                let label = format!("batch weighted={weighted} bank={bank} fault={fault}");
                let quant = weighted
                    .then(|| Sssp::check_weights(&grid, cfg.mac_geometry.weight_bits()).unwrap());
                let weights = quant.as_ref();
                let mut serial = Engine::new(cfg.clone()).unwrap();
                let want = traverse(&mut serial, &grid, weights, &sources, u32::MAX).unwrap();
                assert_eq!(want.values, oracles, "{label}");
                let want_report = serial.finish("gaasx", "batch", "rmat", 1, 600);
                for jobs in [1usize, 2, 4] {
                    let mut sharded = ShardedEngine::new(cfg.clone(), jobs).unwrap();
                    let got = traverse(&mut sharded, &grid, weights, &sources, u32::MAX).unwrap();
                    assert_eq!(got, want, "{label} jobs={jobs}");
                    let report = sharded.finish("gaasx", "batch", "rmat", 1, 600);
                    if !fault {
                        assert_eq!(report, want_report, "{label} jobs={jobs}: report diverged");
                    }
                }
            }
        }
    }
}

/// Stuck cells with write-verify off: every block programs through the
/// bulk CAM write with fault state attached. Stuck bits are positional
/// and draw nothing, so a rerun and a two-worker run must match the
/// serial run bit for bit, and the faults must show in the answers.
#[test]
fn unverified_stuck_faults_are_deterministic_across_reruns_and_jobs() {
    let graph = rmat(&RmatConfig::new(128, 600).with_seed(7)).unwrap();
    let src = VertexId::new(0);
    for bank in ["paper", "deep"] {
        let clean = bank_config(bank, false);
        let cfg = GaasXConfig {
            fault: FaultModel {
                seed: 0x5EED,
                cam_stuck_ber: 1e-2,
                mac_stuck_ber: 1e-2,
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy {
                write_verify: false,
                ..RecoveryPolicy::standard()
            },
            ..clean.clone()
        };
        let pagerank = PageRank::fixed_iterations(PAGERANK_ITERS);
        let stuck = assert_stuck_runs_agree(&pagerank, &graph, &cfg, bank);
        let fault_free = GaasX::new(clean).run(&pagerank, &graph).unwrap();
        assert_ne!(
            stuck.result, fault_free.result,
            "bank={bank}: stuck cells must reach the bulk-programmed banks"
        );
        assert_stuck_runs_agree(&Bfs::from_source(src), &graph, &cfg, bank);
    }
}

/// Runs `algorithm` serially, again, and over two workers, and asserts all
/// three agree on output and report.
fn assert_stuck_runs_agree<A>(
    algorithm: &A,
    input: &A::Input,
    cfg: &GaasXConfig,
    bank: &str,
) -> RunOutcome<A::Output>
where
    A: ShardableAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
{
    let serial = GaasX::new(cfg.clone()).run(algorithm, input).unwrap();
    let rerun = GaasX::new(cfg.clone()).run(algorithm, input).unwrap();
    let sharded = GaasX::new(cfg.clone())
        .run_sharded(algorithm, input, 2)
        .unwrap();
    for (label, other) in [("rerun", &rerun), ("jobs=2", &sharded)] {
        assert_eq!(other.result, serial.result, "bank={bank} {label}: output");
        assert_eq!(other.report, serial.report, "bank={bank} {label}: report");
    }
    serial
}

/// Transient faults only — write failures and CAM search upsets, no
/// stuck cells — under the standard policy: every draw is keyed by the
/// pass, the shard's stream position and the chunk, so a run over two
/// workers must report bit for bit what the serial run does, and
/// recovery must still reproduce the oracle answers.
#[test]
fn transient_faults_shard_exactly_like_serial_runs() {
    let graph = rmat(&RmatConfig::new(128, 600).with_seed(7)).unwrap();
    let sym = graph.symmetrized();
    let src = VertexId::new(0);
    for bank in ["paper", "deep"] {
        let cfg = GaasXConfig {
            fault: FaultModel {
                seed: 0x7A05,
                write_fail_rate: 1e-2,
                cam_upset_rate: 1e-2,
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy::standard(),
            ..bank_config(bank, false)
        };
        let pr = assert_transient_runs_agree(
            &PageRank::fixed_iterations(PAGERANK_ITERS),
            &graph,
            &cfg,
            bank,
        );
        let pr_clean = GaasX::new(bank_config(bank, false))
            .run(&PageRank::fixed_iterations(PAGERANK_ITERS), &graph)
            .unwrap();
        assert_eq!(pr.result, pr_clean.result, "bank={bank}: pagerank");
        let sssp = assert_transient_runs_agree(&Sssp::from_source(src), &graph, &cfg, bank);
        assert_eq!(sssp.result, reference::dijkstra(&graph, src), "bank={bank}");
        let bfs = assert_transient_runs_agree(&Bfs::from_source(src), &graph, &cfg, bank);
        assert_eq!(bfs.result, reference::bfs(&graph, src), "bank={bank}");
        let cc = assert_transient_runs_agree(&ConnectedComponents::new(), &sym, &cfg, bank);
        assert_eq!(cc.result, union_find_labels(&sym), "bank={bank}: cc");
    }
}

/// Runs `algorithm` serially and over two workers, asserts both agree on
/// output and report, and that the faults were injected and caught.
fn assert_transient_runs_agree<A>(
    algorithm: &A,
    input: &A::Input,
    cfg: &GaasXConfig,
    bank: &str,
) -> RunOutcome<A::Output>
where
    A: ShardableAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
{
    let serial = GaasX::new(cfg.clone()).run(algorithm, input).unwrap();
    let sharded = GaasX::new(cfg.clone())
        .run_sharded(algorithm, input, 2)
        .unwrap();
    assert_eq!(sharded.result, serial.result, "bank={bank} jobs=2: output");
    assert_eq!(sharded.report, serial.report, "bank={bank} jobs=2: report");
    assert!(
        serial.report.faults.write_retries > 0,
        "bank={bank}: the write failures must reach verify: {:?}",
        serial.report.faults
    );
    serial
}
