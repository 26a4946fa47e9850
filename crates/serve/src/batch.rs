//! Batched multi-source traversal: K BFS/SSSP queries against one
//! resident graph in a single selective-row-activation pass.
//!
//! The cost of a frontier traversal is dominated by block programming:
//! every superstep reloads each chunk that holds an active source. K
//! queries on the *same* graph can share each load, since the CAM
//! searches are per-source row activations and never interfere. The
//! superstep body is [`gaasx_core::algorithms::traverse`], the one the
//! one-shot BFS and SSSP mappings run with a single source, so
//! [`run_batch`] of K sources returns the values and iteration counts of
//! K one-shot runs (under deterministic block programming; see there)
//! and bills strictly less on any graph where sources share blocks.

use gaasx_graph::partition::GridPartition;
use gaasx_graph::{CooGraph, VertexId};

use gaasx_core::algorithms::{check_sources, traverse, Sssp};
use gaasx_core::engine::partition_for_streaming;
use gaasx_core::{CoreError, ShardRunner};

pub use gaasx_core::algorithms::BatchOutcome;

/// Runs BFS (`weighted == false`) or SSSP (`weighted == true`) from every
/// vertex in `sources` over `graph`, sharing block loads across queries.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] for an empty batch, an
/// out-of-range source, or (SSSP) a negative, NaN or infinite edge
/// weight; propagates device errors from the engine.
pub fn run_batch<R: ShardRunner>(
    runner: &mut R,
    graph: &CooGraph,
    weighted: bool,
    sources: &[VertexId],
) -> Result<BatchOutcome, CoreError> {
    // A graph with no vertices cannot be partitioned; checking the
    // sources first keeps the error theirs.
    check_sources(sources, graph.num_vertices() as usize)?;
    run_batch_on_grid(runner, &partition_for_streaming(graph)?, weighted, sources)
}

/// [`run_batch`] over a graph already partitioned by
/// [`partition_for_streaming`], as a graph kept resident across queries
/// holds it.
///
/// # Errors
///
/// As [`run_batch`].
pub fn run_batch_on_grid<R: ShardRunner>(
    runner: &mut R,
    grid: &GridPartition,
    weighted: bool,
    sources: &[VertexId],
) -> Result<BatchOutcome, CoreError> {
    check_sources(sources, grid.num_vertices() as usize)?;
    let quant = if weighted {
        Some(Sssp::check_weights(grid, runner.engine().weight_bits())?)
    } else {
        None
    };
    traverse(runner, grid, quant.as_ref(), sources, u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaasx_core::algorithms::{Bfs, ShardableAlgorithm, Sssp};
    use gaasx_core::engine::Engine;
    use gaasx_core::GaasXConfig;
    use gaasx_graph::generators;
    use gaasx_graph::Edge;

    fn rmat(edges: usize, seed: u64) -> CooGraph {
        generators::rmat(&generators::RmatConfig::new(1 << 6, edges).with_seed(seed)).unwrap()
    }

    #[test]
    fn batch_matches_one_shot_values_and_iterations() {
        let g = rmat(500, 3);
        for weighted in [false, true] {
            let sources: Vec<VertexId> = [0u32, 1, 5].iter().map(|&s| VertexId::new(s)).collect();
            let mut engine = Engine::new(GaasXConfig::small()).unwrap();
            let batch = run_batch(&mut engine, &g, weighted, &sources).unwrap();
            for (q, &source) in sources.iter().enumerate() {
                let mut one = Engine::new(GaasXConfig::small()).unwrap();
                let run = if weighted {
                    Sssp::from_source(source).execute_on(&mut one, &g).unwrap()
                } else {
                    Bfs::from_source(source).execute_on(&mut one, &g).unwrap()
                };
                assert_eq!(batch.values[q], run.output, "weighted={weighted} q={q}");
                assert_eq!(
                    batch.iterations[q], run.iterations,
                    "weighted={weighted} q={q}"
                );
            }
        }
    }

    #[test]
    fn batch_is_cheaper_than_the_serial_sum() {
        let g = rmat(600, 7);
        let sources: Vec<VertexId> = [0u32, 2, 3, 9].iter().map(|&s| VertexId::new(s)).collect();
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        run_batch(&mut engine, &g, true, &sources).unwrap();
        let batch_ns = engine
            .finish("gaasx", "sssp_batch", "t", 1, g.num_edges() as u64)
            .elapsed_ns;

        let mut serial_ns = gaasx_sim::Nanos::ZERO;
        for &source in &sources {
            let mut one = Engine::new(GaasXConfig::small()).unwrap();
            Sssp::from_source(source).execute_on(&mut one, &g).unwrap();
            serial_ns += one
                .finish("gaasx", "sssp", "t", 1, g.num_edges() as u64)
                .elapsed_ns;
        }
        assert!(
            batch_ns < serial_ns,
            "batch {batch_ns} ns should beat serial {serial_ns} ns"
        );
    }

    #[test]
    fn duplicate_sources_stay_independent() {
        let g = generators::path_graph(5);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let sources = [VertexId::new(1), VertexId::new(1)];
        let batch = run_batch(&mut engine, &g, false, &sources).unwrap();
        assert_eq!(batch.values[0], batch.values[1]);
        assert_eq!(batch.iterations[0], batch.iterations[1]);
    }

    /// The one-shot error kinds and their order, pinned: an empty batch
    /// first (weighted or not), then each source's range, then (SSSP) the
    /// weights; an empty graph reports its sources (it is never
    /// partitioned).
    #[test]
    fn input_errors_keep_their_kind_and_order() {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let mut err = |graph: &CooGraph, weighted: bool, sources: &[u32]| {
            let sources: Vec<VertexId> = sources.iter().map(|&s| VertexId::new(s)).collect();
            match run_batch(&mut engine, graph, weighted, &sources) {
                Err(CoreError::InvalidInput(msg)) => msg,
                other => panic!("want InvalidInput, got {other:?}"),
            }
        };
        let empty = CooGraph::empty(0);
        assert_eq!(
            err(&empty, true, &[]),
            "batch query carries no source vertices"
        );
        let path = generators::path_graph(4);
        assert_eq!(
            err(&path, false, &[]),
            "batch query carries no source vertices"
        );
        assert_eq!(
            err(&path, false, &[9]),
            "source v9 out of range for 4 vertices"
        );
        assert_eq!(
            err(&empty, false, &[0]),
            "source v0 out of range for 0 vertices"
        );
        let neg = CooGraph::from_edges(2, vec![Edge::new(0, 1, -2.0)]).unwrap();
        assert_eq!(
            err(&neg, true, &[]),
            "batch query carries no source vertices"
        );
        assert_eq!(
            err(&neg, true, &[0, 5]),
            "source v5 out of range for 2 vertices"
        );
        assert_eq!(
            err(&neg, true, &[0]),
            "negative edge weight on (v0 -> v1, w=-2); shortest paths require finite \
             non-negative weights of at most 65535, the largest 16-bit weight code"
        );
        let bfs = run_batch(&mut engine, &neg, false, &[VertexId::new(0)]).unwrap();
        assert_eq!(bfs.values, vec![vec![0.0, 1.0]]);
    }

    #[test]
    fn invalid_weights_fail_sssp_but_not_bfs() {
        // The path 0→1→2 with a non-finite first hop, or one past the
        // 16-bit weight code range (which used to saturate to 65 535).
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let source = [VertexId::new(0)];
        for (bad, want) in [
            (f32::NAN, "non-finite edge weight on "),
            (f32::INFINITY, "non-finite edge weight on "),
            (70_000.0, "unencodable edge weight on (v0 -> v1, w=70000); "),
        ] {
            let g =
                CooGraph::from_edges(3, vec![Edge::new(0, 1, bad), Edge::new(1, 2, 1.0)]).unwrap();
            match run_batch(&mut engine, &g, true, &source) {
                Err(CoreError::InvalidInput(msg)) => {
                    assert!(msg.starts_with(want), "{msg}");
                }
                other => panic!("weight {bad}: want InvalidInput, got {other:?}"),
            }
            // BFS ignores weights and still answers.
            let bfs = run_batch(&mut engine, &g, false, &source).unwrap();
            assert_eq!(bfs.values, vec![vec![0.0, 1.0, 2.0]]);
        }
    }
}
