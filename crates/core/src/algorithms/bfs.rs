//! Breadth-first search mapped to SpMV-add (paper §IV, Equation 2).

use gaasx_graph::partition::{GridPartition, TraversalOrder};
use gaasx_graph::{CooGraph, VertexId};

use crate::algorithms::{check_source, AlgoRun, Algorithm, ShardableAlgorithm};
use crate::engine::{partition_for_streaming, CellLayout, Engine};
use crate::error::CoreError;
use crate::sharded::ShardRunner;

/// Distances beyond this cannot be driven as MAC inputs.
const MAX_ENCODABLE_DIST: f64 = 65_534.0;

/// BFS on GaaS-X.
///
/// Identical to SSSP with all edge weights fixed at 1: the paper notes BFS
/// runs "without the overhead of loading edge weights into MAC crossbars
/// but setting the edge weight columns to a fixed value of 1" — so data
/// loading writes only the CAM pairs ([`CellLayout::Preset`]), saving the
/// MAC programming entirely.
///
/// Unlike the paper's full-range sweep, the engine only searches sources on
/// the current frontier (their distance changed last superstep), which is
/// the natural BFS work-list; the cost difference shows up as fewer CAM
/// searches, not a different result.
#[derive(Debug, Clone, PartialEq)]
pub struct Bfs {
    /// Start vertex.
    pub source: VertexId,
}

impl Bfs {
    /// BFS from the given source.
    pub fn from_source(source: VertexId) -> Self {
        Bfs { source }
    }
}

impl Algorithm for Bfs {
    type Input = CooGraph;
    type Output = Vec<f64>;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn input_edges(input: &CooGraph) -> u64 {
        input.num_edges() as u64
    }

    fn search_profile(&self) -> crate::SearchProfile {
        // Searches only frontier sources per superstep, not every key.
        crate::SearchProfile::Frontier
    }

    fn execute(
        &self,
        engine: &mut Engine,
        graph: &CooGraph,
    ) -> Result<AlgoRun<Vec<f64>>, CoreError> {
        self.execute_on(engine, graph)
    }
}

impl ShardableAlgorithm for Bfs {
    fn execute_on<R: ShardRunner>(
        &self,
        runner: &mut R,
        graph: &CooGraph,
    ) -> Result<AlgoRun<Vec<f64>>, CoreError> {
        // A graph with no vertices cannot be partitioned; checking the
        // source first keeps its error the out-of-range source.
        check_source(self.source, graph.num_vertices() as usize)?;
        self.execute_on_grid(runner, &partition_for_streaming(graph)?)
    }
}

impl Bfs {
    /// Runs BFS over a graph already partitioned by
    /// [`partition_for_streaming`]. [`ShardableAlgorithm::execute_on`]
    /// partitions and then calls this; a graph kept resident across
    /// queries partitions once and calls it directly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an out-of-range source;
    /// propagates device errors from the engine.
    pub fn execute_on_grid<R: ShardRunner>(
        &self,
        runner: &mut R,
        grid: &GridPartition,
    ) -> Result<AlgoRun<Vec<f64>>, CoreError> {
        let n = grid.num_vertices() as usize;
        check_source(self.source, n)?;
        // All weight cells read as 1; set once, never per edge.
        runner.preset_mac(1)?;
        let capacity = runner.engine().block_capacity();

        let mut dist = vec![f64::INFINITY; n];
        dist[self.source.index()] = 0.0;
        let mut frontier = vec![false; n];
        frontier[self.source.index()] = true;
        let mut supersteps = 0;

        loop {
            // Snapshot pass per shard (see Sssp::execute_on); the frontier
            // already enforces snapshot semantics — a vertex first reached
            // this superstep is not expanded until the next one.
            let dist_snapshot = &dist;
            let frontier_snapshot = &frontier;
            let candidates =
                runner.for_each_shard(grid, TraversalOrder::RowMajor, |engine, shard| {
                    let mut cands: Vec<(u32, f64)> = Vec::new();
                    let mut hits = gaasx_xbar::HitVector::new(0);
                    let mut results: Vec<(usize, u64)> = Vec::new();
                    for chunk in shard.edges().chunks(capacity) {
                        if !chunk.iter().any(|e| frontier_snapshot[e.src.index()]) {
                            continue;
                        }
                        let block = engine.load_block(chunk, CellLayout::Preset)?;
                        for &src in block.distinct_srcs() {
                            if !frontier_snapshot[src.index()] {
                                continue;
                            }
                            let d = dist_snapshot[src.index()];
                            engine.attr_read(8);
                            if d > MAX_ENCODABLE_DIST {
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
                                cands.push((block.edge(row).dst.raw(), sum as f64));
                            }
                        }
                    }
                    Ok(cands)
                })?;

            let engine = runner.engine();
            let mut next = vec![false; n];
            let mut changed = false;
            for cands in &candidates {
                for &(dst, cand) in cands {
                    let v = dst as usize;
                    if engine.sfu_less_than(cand, dist[v]) {
                        dist[v] = engine.sfu_min(cand, dist[v]);
                        engine.attr_write(8);
                        next[v] = true;
                        changed = true;
                    }
                }
            }
            supersteps += 1;
            if !changed {
                break;
            }
            frontier = next;
        }
        runner.engine().output_write(8 * n as u64);

        Ok(AlgoRun {
            output: dist,
            iterations: supersteps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GaasXConfig;
    use gaasx_graph::generators;

    fn run(graph: &CooGraph, source: u32) -> Vec<f64> {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        Bfs::from_source(VertexId::new(source))
            .execute(&mut engine, graph)
            .unwrap()
            .output
    }

    /// Queue-based BFS oracle (hop counts).
    fn oracle(graph: &CooGraph, source: u32) -> Vec<f64> {
        use std::collections::VecDeque;
        let n = graph.num_vertices() as usize;
        let csr = gaasx_graph::Csr::from_coo(graph);
        let mut dist = vec![f64::INFINITY; n];
        dist[source as usize] = 0.0;
        let mut q = VecDeque::from([source]);
        while let Some(v) = q.pop_front() {
            for (u, _) in csr.neighbors(VertexId::new(v)) {
                if dist[u.index()].is_infinite() {
                    dist[u.index()] = dist[v as usize] + 1.0;
                    q.push_back(u.raw());
                }
            }
        }
        dist
    }

    #[test]
    fn hop_counts_on_path() {
        let g = generators::path_graph(6);
        assert_eq!(run(&g, 0), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn ignores_edge_weights() {
        // Heavy weights must not affect hop counts.
        let g = CooGraph::from_edges(
            3,
            vec![
                gaasx_graph::Edge::new(0, 1, 99.0),
                gaasx_graph::Edge::new(1, 2, 99.0),
            ],
        )
        .unwrap();
        assert_eq!(run(&g, 0), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn matches_oracle_on_rmat() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 500).with_seed(2)).unwrap();
        assert_eq!(run(&g, 0), oracle(&g, 0));
    }

    #[test]
    fn star_is_one_hop() {
        let g = generators::star_graph(30);
        let d = run(&g, 0);
        assert!(d[1..].iter().all(|&x| x == 1.0));
    }

    #[test]
    fn bfs_loads_no_mac_cells() {
        let g = generators::path_graph(8);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let _ = Bfs::from_source(VertexId::new(0))
            .execute(&mut engine, &g)
            .unwrap();
        let r = engine.finish("gaasx", "bfs", "path", 1, 7);
        // Every programmed cell is a CAM cell: divisible by the 256 devices
        // per CAM row, with zero MAC-cell contribution.
        assert_eq!(r.ops.cells_written % 256, 0);
    }

    #[test]
    fn rejects_bad_source() {
        let g = generators::path_graph(3);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        assert!(Bfs::from_source(VertexId::new(3))
            .execute(&mut engine, &g)
            .is_err());
    }

    /// The one-shot error kinds and their order, pinned: an empty graph
    /// reports its out-of-range source (it is never partitioned), and
    /// BFS ignores weights, negative ones included.
    #[test]
    fn input_errors_keep_their_kind_and_order() {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let mut err = |source: u32, graph: &CooGraph| match Bfs::from_source(VertexId::new(source))
            .execute(&mut engine, graph)
        {
            Err(CoreError::InvalidInput(msg)) => msg,
            other => panic!("want InvalidInput, got {other:?}"),
        };
        assert_eq!(
            err(0, &CooGraph::empty(0)),
            "source v0 out of range for 0 vertices"
        );
        let neg = CooGraph::from_edges(2, vec![gaasx_graph::Edge::new(0, 1, -1.0)]).unwrap();
        assert_eq!(err(2, &neg), "source v2 out of range for 2 vertices");
        assert_eq!(run(&neg, 0), vec![0.0, 1.0]);
    }
}
