//! The frontier traversal behind BFS, SSSP and batched multi-source
//! queries (SpMV-add, paper §IV, Equations 1–2).
//!
//! Each query keeps its frontier as a bitset over the vertex ids (`u64`
//! words, bit `v % 64` of word `v / 64`), reused across supersteps. Each
//! superstep streams the row-major shards; [`Engine::sweep`] hands every
//! block's distinct sources over as vertex words ([`Block`]). A block
//! loads once if some active query's frontier words AND non-zero with
//! them; each such query then walks the set bits of that AND — exactly
//! its frontier sources in the block, ascending, and no other — searches
//! each and emits `(dst, MAC sum)` relaxations. The sequential reduce
//! takes the mins, query by query, in canonical shard order. A query's
//! candidate stream does not depend on the other queries, so one source
//! issues exactly the operations of a one-shot BFS or SSSP run, and K
//! sources return the values and superstep counts of K one-shot runs
//! while sharing loads. This holds under transient write faults too,
//! verified or not: a load's fault draws are keyed by the superstep's
//! pass ordinal, the shard and the chunk, so a chunk the batch loads
//! holds what every one-shot load of it holds, however few blocks the
//! batch programs. (Search upsets key on the searched source too, so
//! they agree as well; ADC flips key on the burst's ordinal within the
//! load, which a batch's extra bursts shift.)
//!
//! A warm superstep allocates only what it hands back: each loaded shard
//! collects its relaxations in the engine's reused scratch and returns
//! them in one exactly sized vector, and each pass adds a constant number
//! of per-pass vectors. The search hit list and MAC results live in
//! engine buffers ([`Engine::propagate_src`]).
//!
//! [`Engine::sweep`]: crate::engine::Engine::sweep
//! [`Engine::propagate_src`]: crate::engine::Engine::propagate_src

use gaasx_graph::partition::{GridPartition, TraversalOrder};
use gaasx_graph::{Edge, VertexId};
use gaasx_xbar::fixed::Quantizer;

use crate::algorithms::AlgoRun;
use crate::engine::{Block, CellLayout, Keys};
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

/// One relaxation: a destination and its integer MAC sum, kept whole in
/// two 32-bit halves so a candidate takes 12 bytes, not 16.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    dst: u32,
    sum: [u32; 2],
}

impl Candidate {
    fn new(dst: u32, sum: u64) -> Self {
        Candidate {
            dst,
            sum: [sum as u32, (sum >> 32) as u32],
        }
    }

    fn sum(self) -> u64 {
        u64::from(self.sum[0]) | (u64::from(self.sum[1]) << 32)
    }
}

/// One shard's relaxations for every query, in one exactly sized
/// allocation (none for a shard that relaxed nothing): the first `k`
/// entries hold, as their sum, where each query's run ends; the runs
/// follow in query order.
struct ShardCandidates(Vec<Candidate>);

impl ShardCandidates {
    /// Packs the first `k` per-query scratch runs.
    fn pack(runs: &[Vec<(u32, u64)>], k: usize) -> Self {
        let runs = &runs[..k];
        let total: usize = runs.iter().map(Vec::len).sum();
        if total == 0 {
            return ShardCandidates(Vec::new());
        }
        let mut packed = Vec::with_capacity(k + total);
        let mut end = k;
        for run in runs {
            end += run.len();
            packed.push(Candidate::new(0, end as u64));
        }
        for run in runs {
            packed.extend(run.iter().map(|&(dst, sum)| Candidate::new(dst, sum)));
        }
        ShardCandidates(packed)
    }

    /// Query `q`'s relaxations out of `k`, in the order its visit emitted
    /// them.
    fn of(&self, q: usize, k: usize) -> &[Candidate] {
        let Some(header) = self.0.get(..k) else {
            return &[];
        };
        let start = q.checked_sub(1).map_or(k, |p| header[p].sum() as usize);
        &self.0[start..header[q].sum() as usize]
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

/// Runs BFS (`weights == None`, hop counts over a preset unit weight
/// column) or SSSP (`weights == Some(quant)`, step-1 quantized edge
/// weights) from every vertex in `sources` over a graph partitioned by
/// [`partition_for_streaming`](crate::engine::partition_for_streaming).
///
/// `quant` must be the quantizer [`Sssp::check_weights`] returned for
/// this grid and the engine's weight bits: the traversal encodes weights
/// without checking them again, so a graph kept resident across queries
/// checks its weights once.
///
/// A query stops when a superstep changes none of its distances, or after
/// `max_supersteps` supersteps. SSSP queries are further bounded by the
/// V−1 Bellman–Ford bound, which holds for snapshot relaxation too.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] for an empty or out-of-range
/// source list; propagates device errors from the engine.
///
/// [`Sssp::check_weights`]: crate::algorithms::Sssp::check_weights
pub fn traverse<R: ShardRunner>(
    runner: &mut R,
    grid: &GridPartition,
    weights: Option<&Quantizer>,
    sources: &[VertexId],
    max_supersteps: u32,
) -> Result<BatchOutcome, CoreError> {
    let n = grid.num_vertices() as usize;
    let k = sources.len();
    check_sources(sources, n)?;
    let cap = if weights.is_some() {
        let bound = (n as u32).saturating_sub(1).max(1);
        bound.min(max_supersteps)
    } else {
        // BFS: all weight cells read as 1; set once, never per edge.
        runner.preset_mac(1)?;
        max_supersteps
    };
    // Edge weights go to MAC column 0 and a constant 1 to column 1.
    let weight_cells = |edges: &[Edge], c: &mut Vec<u32>| {
        if let Some(q) = weights {
            for e in edges {
                c.extend_from_slice(&[q.encode(e.weight), 1]);
            }
        }
    };

    let mut dist: Vec<Vec<f64>> = vec![vec![f64::INFINITY; n]; k];
    let mut frontier: Vec<Vec<u64>> = vec![vec![0; n.div_ceil(64)]; k];
    for (q, source) in sources.iter().enumerate() {
        let v = source.index();
        dist[q][v] = 0.0;
        frontier[q][v / 64] |= 1 << (v % 64);
    }
    let mut next = vec![0u64; n.div_ceil(64)];
    let mut iterations = vec![0u32; k];
    let mut done = vec![false; k];
    let mut active = vec![false; k];

    loop {
        for (q, a) in active.iter_mut().enumerate() {
            *a = !done[q] && iterations[q] < cap;
        }
        if !active.contains(&true) {
            break;
        }

        // Snapshot pass: a vertex first reached this superstep is not
        // expanded until the next one.
        let (dist_snapshot, frontier_snapshot, active) = (&dist, &frontier, &active);
        let candidates =
            runner.for_each_shard(grid, TraversalOrder::RowMajor, |engine, shard| {
                let mut runs = engine.take_candidates(k);
                let layout = if weights.is_some() {
                    CellLayout::PerEdge {
                        width: 2,
                        fill: &weight_cells,
                    }
                } else {
                    CellLayout::Preset
                };
                // A chunk loads once if any active query's frontier meets
                // its source words.
                let wanted = |block: &Block<'_>| {
                    (0..k).any(|q| active[q] && block.has_src_in(&frontier_snapshot[q]))
                };
                let swept = engine.sweep(
                    shard.edges(),
                    layout,
                    Keys::Srcs,
                    wanted,
                    |engine, block| {
                        for (q, run) in runs.iter_mut().enumerate().take(k) {
                            if !active[q] {
                                continue;
                            }
                            // A query whose frontier misses the block walks
                            // no source and issues nothing.
                            let dist = &dist_snapshot[q];
                            for src in block.srcs_in(&frontier_snapshot[q]) {
                                let d = dist[src.index()];
                                engine.attr_read(8);
                                if !d.is_finite() || d > MAX_ENCODABLE_DIST {
                                    continue;
                                }
                                // α = 1 drives the weight column; dist(U)
                                // drives the ones column.
                                let results =
                                    engine.propagate_src(src, &[0, 1], &[1, d.round() as u32])?;
                                run.extend(
                                    results
                                        .iter()
                                        .map(|&(row, sum)| (block.edge(row).dst.raw(), sum)),
                                );
                            }
                        }
                        Ok(())
                    },
                );
                let packed = swept.map(|()| ShardCandidates::pack(&runs, k));
                engine.restore_candidates(runs);
                packed
            })?;

        let engine = runner.engine();
        for q in 0..k {
            if !active[q] {
                continue;
            }
            next.fill(0);
            let mut changed = false;
            for shard_cands in &candidates {
                for &c in shard_cands.of(q, k) {
                    let (v, cand) = (c.dst as usize, c.sum() as f64);
                    if engine.sfu_less_than(cand, dist[q][v]) {
                        dist[q][v] = engine.sfu_min(cand, dist[q][v]);
                        engine.attr_write(8);
                        next[v / 64] |= 1 << (v % 64);
                        changed = true;
                    }
                }
            }
            iterations[q] += 1;
            if changed {
                std::mem::swap(&mut frontier[q], &mut next);
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
