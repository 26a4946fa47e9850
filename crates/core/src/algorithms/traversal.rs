//! The frontier traversal behind BFS, SSSP and batched multi-source
//! queries (SpMV-add, paper §IV, Equations 1–2).
//!
//! Each superstep streams the row-major shards. A block loads once if any
//! query's frontier holds one of its sources; each such query then
//! searches its frontier sources in ascending order and emits `(dst,
//! candidate)` relaxations, and the sequential reduce takes the mins,
//! query by query, in canonical shard order. A query's candidate stream
//! does not depend on the other queries, so one source issues exactly the
//! operations of a one-shot BFS or SSSP run, and K sources return the
//! values and superstep counts of K one-shot runs while sharing loads.
//! This holds whenever block programming is deterministic (fault-free or
//! stuck-only fault models): transient write faults draw from the
//! engine's stream per programming event, and a batch programs fewer
//! blocks.

use gaasx_graph::partition::{GridPartition, TraversalOrder};
use gaasx_graph::{Edge, VertexId};

use crate::algorithms::{AlgoRun, Sssp};
use crate::engine::{CellLayout, Keys};
use crate::error::CoreError;
use crate::sharded::ShardRunner;

/// Largest distance encodable as a 16-bit MAC input code; a vertex
/// farther away stops propagating (a device precision limit).
const MAX_ENCODABLE_DIST: f64 = 65_534.0;

/// Result of a multi-source traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Per-query distance vectors, indexed like `sources`.
    pub values: Vec<Vec<f64>>,
    /// Per-query superstep counts — identical to what the one-shot run
    /// of that source would report.
    pub iterations: Vec<u32>,
}

impl BatchOutcome {
    /// The first query's values and superstep count: the whole result of
    /// a one-source traversal.
    pub(crate) fn into_first(self) -> AlgoRun<Vec<f64>> {
        AlgoRun {
            output: self.values.into_iter().next().unwrap_or_default(),
            iterations: self.iterations.first().copied().unwrap_or_default(),
        }
    }
}

/// Rejects an empty source list and any source outside a graph of `n`
/// vertices with [`CoreError::InvalidInput`].
///
/// # Errors
///
/// As above, naming the first offending source.
pub fn check_sources(sources: &[VertexId], n: usize) -> Result<(), CoreError> {
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

/// Runs BFS (`weighted == false`, hop counts over a preset unit weight
/// column) or SSSP (`weighted == true`, step-1 quantized edge weights)
/// from every vertex in `sources` over a graph partitioned by
/// [`partition_for_streaming`](crate::engine::partition_for_streaming).
///
/// A query stops when a superstep changes none of its distances, or after
/// `max_supersteps` supersteps. SSSP queries are further bounded by the
/// V−1 Bellman–Ford bound, which holds for snapshot relaxation too.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] for an empty or out-of-range
/// source list or (SSSP) a weight [`Sssp::check_weights`] rejects;
/// propagates device errors from the engine.
pub fn traverse<R: ShardRunner>(
    runner: &mut R,
    grid: &GridPartition,
    weighted: bool,
    sources: &[VertexId],
    max_supersteps: u32,
) -> Result<BatchOutcome, CoreError> {
    let n = grid.num_vertices() as usize;
    let k = sources.len();
    check_sources(sources, n)?;
    let (w_quant, cap) = if weighted {
        let bound = (n as u32).saturating_sub(1).max(1);
        let quant = Sssp::check_weights(grid, runner.engine().weight_bits())?;
        (Some(quant), bound.min(max_supersteps))
    } else {
        // BFS: all weight cells read as 1; set once, never per edge.
        runner.preset_mac(1)?;
        (None, max_supersteps)
    };
    // Edge weights go to MAC column 0 and a constant 1 to column 1.
    let weight_cells = |edges: &[Edge], c: &mut Vec<u32>| {
        if let Some(q) = &w_quant {
            for e in edges {
                c.extend_from_slice(&[q.encode(e.weight), 1]);
            }
        }
    };

    let mut dist: Vec<Vec<f64>> = vec![vec![f64::INFINITY; n]; k];
    let mut frontier: Vec<Vec<bool>> = vec![vec![false; n]; k];
    for (q, source) in sources.iter().enumerate() {
        dist[q][source.index()] = 0.0;
        frontier[q][source.index()] = true;
    }
    let mut iterations = vec![0u32; k];
    let mut done = vec![false; k];

    loop {
        let active: Vec<bool> = (0..k).map(|q| !done[q] && iterations[q] < cap).collect();
        if !active.contains(&true) {
            break;
        }

        // Snapshot pass: a vertex first reached this superstep is not
        // expanded until the next one.
        let (dist_snapshot, frontier_snapshot, active) = (&dist, &frontier, &active);
        let candidates =
            runner.for_each_shard(grid, TraversalOrder::RowMajor, |engine, shard| {
                // Per query, this shard's candidates; no allocation unless
                // a block of the shard loads.
                let mut cands: Vec<Vec<(u32, f64)>> = Vec::new();
                let mut hits = gaasx_xbar::HitVector::new(0);
                let mut results: Vec<(usize, u64)> = Vec::new();
                let layout = if weighted {
                    CellLayout::PerEdge {
                        width: 2,
                        fill: &weight_cells,
                    }
                } else {
                    CellLayout::Preset
                };
                // A chunk loads once if any active query's frontier meets
                // it; each query's test runs at most once per chunk.
                let wanted = |rows: &[Edge]| {
                    (0..k).any(|q| {
                        active[q] && rows.iter().any(|e| frontier_snapshot[q][e.src.index()])
                    })
                };
                engine.sweep(
                    shard.edges(),
                    layout,
                    Keys::Srcs,
                    wanted,
                    |engine, block| {
                        cands.resize_with(k, Vec::new);
                        for (q, q_cands) in cands.iter_mut().enumerate() {
                            if !active[q] {
                                continue;
                            }
                            // A query whose frontier misses the block finds no
                            // frontier source in it and issues nothing.
                            let (frontier, dist) = (&frontier_snapshot[q], &dist_snapshot[q]);
                            for &src in block.distinct_srcs() {
                                if !frontier[src.index()] {
                                    continue;
                                }
                                let d = dist[src.index()];
                                engine.attr_read(8);
                                if !d.is_finite() || d > MAX_ENCODABLE_DIST {
                                    continue;
                                }
                                engine.search_src_into(src, &mut hits);
                                // α = 1 drives the weight column; dist(U) drives
                                // the ones column.
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
                        Ok(())
                    },
                )?;
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
                for &(dst, cand) in shard_cands.get(q).into_iter().flatten() {
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
