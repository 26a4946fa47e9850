//! Batched multi-source traversal: K BFS/SSSP queries against one
//! resident graph in a single selective-row-activation pass.
//!
//! The crossbar cost of a frontier traversal is dominated by block
//! programming: every superstep reloads each chunk that holds an active
//! source. When K queries target the *same* resident graph, one pass can
//! load each needed chunk once and run all K queries' CAM searches
//! against it — the searches are per-source row activations and never
//! interfere.
//!
//! # Bit-identity
//!
//! For each query `q`, the candidate stream the batch produces is exactly
//! the stream the one-shot run produces: a chunk contributes candidates
//! to `q` only when `q`'s frontier intersects it (the one-shot load
//! condition), sources iterate in the same `distinct_srcs` order, and the
//! sequential reduce folds shards and candidates in the same order with
//! the same SFU float ops. Distances therefore evolve bit-identically —
//! [`run_batch`] of K sources returns the same values and iteration
//! counts as K one-shot runs. (This holds whenever block programming is
//! deterministic, i.e. fault-free or stuck-only fault models; transient
//! write faults draw from the engine RNG per programming event, and a
//! batch programs fewer blocks.)
//!
//! What changes is the *cost*: shared chunk loads make the batch strictly
//! cheaper than the sum of its one-shot parts on any graph where sources
//! share blocks.

use gaasx_graph::partition::{GridPartition, TraversalOrder};
use gaasx_graph::{CooGraph, Edge, VertexId};

use gaasx_core::algorithms::Sssp;
use gaasx_core::engine::{partition_for_streaming, CellLayout};
use gaasx_core::{CoreError, ShardRunner};

/// Largest distance encodable as a 16-bit MAC input code (same device
/// limit the one-shot BFS/SSSP mappings enforce).
const MAX_ENCODABLE_DIST: f64 = 65_534.0;

/// Result of a batched multi-source traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Per-query distance vectors, indexed like `sources`.
    pub values: Vec<Vec<f64>>,
    /// Per-query superstep counts — identical to what the one-shot run
    /// of that source would report.
    pub iterations: Vec<u32>,
}

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
    let n = grid.num_vertices() as usize;
    let k = sources.len();
    check_sources(sources, n)?;
    let w_quant = if weighted {
        Some(Sssp::check_weights(grid, runner.engine().weight_bits())?)
    } else {
        // BFS: all weight cells read as 1; set once, never per edge.
        runner.preset_mac(1)?;
        None
    };
    let capacity = runner.engine().block_capacity();

    let mut dist: Vec<Vec<f64>> = vec![vec![f64::INFINITY; n]; k];
    let mut frontier: Vec<Vec<bool>> = vec![vec![false; n]; k];
    for (q, source) in sources.iter().enumerate() {
        dist[q][source.index()] = 0.0;
        frontier[q][source.index()] = true;
    }
    let mut iterations = vec![0u32; k];
    let mut done = vec![false; k];
    // The V−1 Bellman–Ford bound the one-shot SSSP loop runs under; BFS
    // terminates naturally (hop counts only ever shrink once).
    let bound = (n as u32).saturating_sub(1).max(1);

    loop {
        let active: Vec<bool> = (0..k)
            .map(|q| !done[q] && (!weighted || iterations[q] < bound))
            .collect();
        if !active.iter().any(|&a| a) {
            break;
        }

        let dist_snapshot = &dist;
        let frontier_snapshot = &frontier;
        let active_snapshot = &active;
        let candidates =
            runner.for_each_shard(grid, TraversalOrder::RowMajor, |engine, shard| {
                let mut cands: Vec<Vec<(u32, f64)>> = vec![Vec::new(); k];
                let mut hits = gaasx_xbar::HitVector::new(0);
                let mut results: Vec<(usize, u64)> = Vec::new();
                for chunk in shard.edges().chunks(capacity) {
                    // One load serves every query with a frontier source
                    // in the chunk; queries without one contribute no
                    // searches — exactly the one-shot skip condition.
                    let wanted = |q: usize| {
                        active_snapshot[q]
                            && chunk.iter().any(|e| frontier_snapshot[q][e.src.index()])
                    };
                    if !(0..k).any(wanted) {
                        continue;
                    }
                    let cells = |e: &Edge, c: &mut Vec<u32>| {
                        // `wanted` guarantees `w_quant` is Some on this path.
                        if let Some(q) = &w_quant {
                            c.extend_from_slice(&[q.encode(e.weight), 1]);
                        }
                    };
                    let layout = if weighted {
                        CellLayout::PerEdge(&cells)
                    } else {
                        CellLayout::Preset
                    };
                    let block = engine.load_block(chunk, layout)?;
                    for (q, q_cands) in cands.iter_mut().enumerate() {
                        if !wanted(q) {
                            continue;
                        }
                        for &src in block.distinct_srcs() {
                            if !frontier_snapshot[q][src.index()] {
                                continue;
                            }
                            let d = dist_snapshot[q][src.index()];
                            engine.attr_read(8);
                            let encodable = if weighted {
                                d.is_finite() && d <= MAX_ENCODABLE_DIST
                            } else {
                                d <= MAX_ENCODABLE_DIST
                            };
                            if !encodable {
                                continue;
                            }
                            engine.search_src_into(src, &mut hits);
                            engine.propagate_rows_into(
                                &hits,
                                &[0, 1],
                                &[1, d.round() as u32],
                                &mut results,
                            )?;
                            for &(row, sum) in &results {
                                q_cands.push((block.edge(row).dst.raw(), sum as f64));
                            }
                        }
                    }
                }
                Ok(cands)
            })?;

        let engine = runner.engine();
        for q in 0..k {
            if !active[q] {
                continue;
            }
            let mut next = vec![false; n];
            let mut changed = false;
            for shard_cands in &candidates {
                for &(dst, cand) in &shard_cands[q] {
                    let v = dst as usize;
                    if engine.sfu_less_than(cand, dist[q][v]) {
                        dist[q][v] = engine.sfu_min(cand, dist[q][v]);
                        engine.attr_write(8);
                        next[v] = true;
                        changed = true;
                    }
                }
            }
            iterations[q] += 1;
            if changed {
                frontier[q] = next;
            } else {
                done[q] = true;
            }
        }
    }
    // Each query drains its own distance vector through the output buffer.
    runner.engine().output_write(8 * n as u64 * k as u64);

    Ok(BatchOutcome {
        values: dist,
        iterations,
    })
}

/// Rejects an empty batch and any source outside a graph of `n` vertices.
fn check_sources(sources: &[VertexId], n: usize) -> Result<(), CoreError> {
    if sources.is_empty() {
        return Err(CoreError::InvalidInput(
            "batch query carries no source vertices".into(),
        ));
    }
    for source in sources {
        if source.index() >= n {
            return Err(CoreError::InvalidInput(format!(
                "source {source} out of range for {n} vertices"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaasx_core::algorithms::{Bfs, ShardableAlgorithm, Sssp};
    use gaasx_core::engine::Engine;
    use gaasx_core::GaasXConfig;
    use gaasx_graph::generators;

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
    fn rejects_bad_batches() {
        let g = generators::path_graph(4);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        assert!(run_batch(&mut engine, &g, false, &[]).is_err());
        assert!(run_batch(&mut engine, &g, false, &[VertexId::new(9)]).is_err());
        let neg = CooGraph::from_edges(2, vec![Edge::new(0, 1, -2.0)]).unwrap();
        assert!(run_batch(&mut engine, &neg, true, &[VertexId::new(0)]).is_err());
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
    /// first, then each source's range, then (SSSP) the weights; an empty
    /// graph reports its sources (it is never partitioned).
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
        assert!(err(&neg, true, &[0]).starts_with("negative edge weight on "));
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
