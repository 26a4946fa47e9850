//! Breadth-first search mapped to SpMV-add (paper §IV, Equation 2).

use gaasx_graph::partition::GridPartition;
use gaasx_graph::{CooGraph, VertexId};

use crate::algorithms::{check_sources, traverse, AlgoRun, Algorithm, ShardableAlgorithm};
use crate::engine::{partition_for_streaming, Engine};
use crate::error::CoreError;
use crate::sharded::ShardRunner;

/// BFS on GaaS-X.
///
/// Identical to SSSP with all edge weights fixed at 1: the paper notes BFS
/// runs "without the overhead of loading edge weights into MAC crossbars
/// but setting the edge weight columns to a fixed value of 1" — so data
/// loading writes only the CAM pairs
/// ([`CellLayout::Preset`](crate::engine::CellLayout::Preset)), saving the
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
        check_sources(&[self.source], graph.num_vertices() as usize)?;
        self.execute_on_grid(runner, &partition_for_streaming(graph)?)
    }
}

impl Bfs {
    /// Runs BFS over a graph already partitioned by
    /// [`partition_for_streaming`]. [`ShardableAlgorithm::execute_on`]
    /// partitions and then calls this; a graph kept resident across
    /// queries partitions once and calls it directly. The supersteps are
    /// [`traverse`]'s with this one source.
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
        Ok(traverse(runner, grid, None, &[self.source], u32::MAX)?.into_first())
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
