//! Connected components by min-label propagation.
//!
//! The paper positions GaaS-X as covering the SpMV algorithm family
//! ("traversal, machine learning"); connected components is the canonical
//! remaining traversal kernel (it appears in GAPBS and every framework the
//! paper compares against). The mapping is the SpMV-add pattern of SSSP
//! with the distance replaced by a component label and `min` as the reduce:
//! labels start as vertex ids, and every superstep each active vertex
//! pushes its label to its out-neighbors through a CAM search plus a
//! transposed MAC over the preset unit column.

use gaasx_graph::partition::TraversalOrder;
use gaasx_graph::CooGraph;

use crate::algorithms::{AlgoRun, Algorithm, ShardableAlgorithm};
use crate::engine::{partition_for_streaming, CellLayout, Engine, Keys};
use crate::error::CoreError;
use crate::sharded::ShardRunner;

/// Labels propagate as MAC inputs, so they must fit the 16-bit input path.
const MAX_ENCODABLE_LABEL: u32 = 65_535;

/// Connected components on GaaS-X.
///
/// Propagation follows directed edges; run on
/// [`CooGraph::symmetrized`] input to obtain *weakly* connected components
/// (the usual notion, and what the tests validate against a union–find
/// oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnectedComponents;

impl ConnectedComponents {
    /// Creates the algorithm.
    pub fn new() -> Self {
        ConnectedComponents
    }
}

impl Algorithm for ConnectedComponents {
    type Input = CooGraph;
    type Output = Vec<u32>;

    fn name(&self) -> &'static str {
        "cc"
    }

    fn input_edges(input: &CooGraph) -> u64 {
        input.num_edges() as u64
    }

    fn search_profile(&self) -> crate::SearchProfile {
        // Label propagation searches only vertices whose label changed.
        crate::SearchProfile::Frontier
    }

    fn execute(
        &self,
        engine: &mut Engine,
        graph: &CooGraph,
    ) -> Result<AlgoRun<Vec<u32>>, CoreError> {
        self.execute_on(engine, graph)
    }
}

impl ShardableAlgorithm for ConnectedComponents {
    fn execute_on<R: ShardRunner>(
        &self,
        runner: &mut R,
        graph: &CooGraph,
    ) -> Result<AlgoRun<Vec<u32>>, CoreError> {
        let n = graph.num_vertices() as usize;
        if n == 0 {
            return Ok(AlgoRun {
                output: Vec::new(),
                iterations: 0,
            });
        }
        if n as u64 > u64::from(MAX_ENCODABLE_LABEL) + 1 {
            return Err(CoreError::InvalidInput(format!(
                "{n} vertices exceed the {}-label device input range",
                MAX_ENCODABLE_LABEL + 1
            )));
        }
        // Labels ride the preset unit column like BFS hop counts: no MAC
        // programming during data loading.
        runner.preset_mac(1)?;
        let grid = partition_for_streaming(graph)?;

        let mut label: Vec<u32> = (0..n as u32).collect();
        // The active set as a bitset over the vertex ids, like a
        // traversal's frontier; `next` is reused across supersteps.
        // Every vertex starts active; bits past `n` meet no source word.
        let mut active = vec![u64::MAX; n.div_ceil(64)];
        let mut next = vec![0u64; n.div_ceil(64)];
        let mut supersteps = 0;

        loop {
            // Snapshot pass: labels propagated this superstep are the
            // superstep-start labels; the reduce takes the min per dst.
            // Min-label propagation converges to the same fixed point
            // either way, and the `supersteps > n` guard still bounds it.
            let label_snapshot = &label;
            let active_snapshot = &active;
            let candidates =
                runner.for_each_shard(&grid, TraversalOrder::RowMajor, |engine, shard| {
                    let mut runs = engine.take_candidates(1);
                    let swept = engine.sweep(
                        shard.edges(),
                        CellLayout::Preset,
                        Keys::Srcs,
                        |block| block.has_src_in(active_snapshot),
                        |engine, block| {
                            for src in block.srcs_in(active_snapshot) {
                                engine.attr_read(4);
                                // Single unit column: out[row] = label(src) × 1.
                                let results = engine.propagate_src(
                                    src,
                                    &[0],
                                    &[label_snapshot[src.index()]],
                                )?;
                                runs[0].extend(
                                    results
                                        .iter()
                                        .map(|&(row, pushed)| (block.edge(row).dst.raw(), pushed)),
                                );
                            }
                            Ok(())
                        },
                    );
                    // One exactly sized vector per shard that pushed labels.
                    let cands: Vec<(u32, u32)> = runs[0]
                        .iter()
                        .map(|&(dst, pushed)| (dst, pushed as u32))
                        .collect();
                    engine.restore_candidates(runs);
                    swept.map(|()| cands)
                })?;

            let engine = runner.engine();
            next.fill(0);
            let mut changed = false;
            for cands in &candidates {
                for &(dst, pushed) in cands {
                    let v = dst as usize;
                    if engine.sfu_less_than(f64::from(pushed), f64::from(label[v])) {
                        label[v] = pushed;
                        engine.attr_write(4);
                        next[v / 64] |= 1 << (v % 64);
                        changed = true;
                    }
                }
            }
            supersteps += 1;
            if !changed || supersteps as usize > n {
                break;
            }
            std::mem::swap(&mut active, &mut next);
        }
        runner.engine().output_write(4 * n as u64);

        Ok(AlgoRun {
            output: label,
            iterations: supersteps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GaasXConfig;
    use gaasx_graph::generators;

    fn run(graph: &CooGraph) -> Vec<u32> {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        ConnectedComponents::new()
            .execute(&mut engine, graph)
            .unwrap()
            .output
    }

    /// Union–find oracle over undirected reachability.
    fn oracle(graph: &CooGraph) -> Vec<u32> {
        let n = graph.num_vertices() as usize;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for e in graph.iter() {
            let (a, b) = (
                find(&mut parent, e.src.index()),
                find(&mut parent, e.dst.index()),
            );
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
        (0..n).map(|v| find(&mut parent, v) as u32).collect()
    }

    #[test]
    fn two_islands_get_two_labels() {
        // 0-1-2 and 3-4, undirected.
        let g = gaasx_graph::GraphBuilder::new(5)
            .unweighted_edge(0, 1)
            .unweighted_edge(1, 2)
            .unweighted_edge(3, 4)
            .symmetrize(true)
            .build()
            .unwrap();
        assert_eq!(run(&g), vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn matches_union_find_on_random_graph() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 300).with_seed(6))
            .unwrap()
            .symmetrized();
        assert_eq!(run(&g), oracle(&g));
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let g = CooGraph::empty(4);
        assert_eq!(run(&g), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_component_cycle() {
        let g = generators::cycle_graph(20);
        assert!(run(&g).iter().all(|&l| l == 0));
    }

    #[test]
    fn rejects_oversized_graphs() {
        let g = CooGraph::empty(70_000);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        assert!(ConnectedComponents::new().execute(&mut engine, &g).is_err());
    }

    #[test]
    fn label_values_are_component_minima() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 200).with_seed(8))
            .unwrap()
            .symmetrized();
        let labels = run(&g);
        for (v, &l) in labels.iter().enumerate() {
            assert!(l as usize <= v, "label {l} above vertex id {v}");
            assert_eq!(labels[l as usize], l, "label must be its own root");
        }
    }
}
