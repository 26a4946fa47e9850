//! Single-source shortest paths mapped to SpMV-add (paper §IV, Fig 9(b)).

use gaasx_graph::partition::{GridPartition, Shard};
use gaasx_graph::{CooGraph, VertexId};
use gaasx_xbar::fixed::Quantizer;

use crate::algorithms::{check_sources, misfit, traverse, AlgoRun, Algorithm, ShardableAlgorithm};
use crate::engine::{partition_for_streaming, Engine};
use crate::error::CoreError;
use crate::sharded::ShardRunner;

/// SSSP on GaaS-X.
///
/// Per the paper's mapping: edge weights go to MAC column 0, a constant 1
/// to column 1. For each source vertex `U` with a finite distance, a CAM
/// search over the source field enables the out-edges, and the transposed
/// MAC computes `α·E_weight(U,V) + dist(U)·1` with `α = 1` per enabled row.
/// The SFU then takes `dist(V) = min(dist(V), ·)` (Equation 1). Supersteps
/// repeat (Bellman–Ford style) until no distance changes.
///
/// Weights must be finite, non-negative and encodable: a negative, NaN or
/// infinite weight, or one above the largest code of the engine's
/// `weight_bits` (65 535 at 16 bits), is rejected as
/// [`CoreError::InvalidInput`] before any block loads, instead of
/// saturating in the MAC cell. Weights are quantized with step 1, matching
/// the integral-weight workloads of the evaluation; distances above 65 534
/// cannot be encoded as MAC inputs and stop propagating (a documented
/// device precision limit).
///
/// The controller tracks which vertices changed distance in the previous
/// superstep (it already holds per-block vertex ranges as graph metadata,
/// §III-A) and skips loading blocks that contain no active source — the
/// same selective scheduling the single-machine frameworks GaaS-X adopts
/// its storage model from perform.
#[derive(Debug, Clone, PartialEq)]
pub struct Sssp {
    /// Start vertex.
    pub source: VertexId,
    /// Superstep cap; defaults to `u32::MAX` (the V−1 Bellman–Ford bound
    /// still applies).
    pub max_supersteps: u32,
}

impl Sssp {
    /// SSSP from the given source with no superstep cap.
    pub fn from_source(source: VertexId) -> Self {
        Sssp {
            source,
            max_supersteps: u32::MAX,
        }
    }

    /// Checks that every edge weight is finite, non-negative and at most
    /// the largest value the step-1 quantizer encodes in `weight_bits`,
    /// the precondition both this mapping and the batched traversal
    /// enforce, and returns that quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] naming the first edge whose
    /// weight is negative, NaN, infinite or too large to encode, and
    /// propagates a quantizer error for an invalid `weight_bits`.
    pub fn check_weights(grid: &GridPartition, weight_bits: u32) -> Result<Quantizer, CoreError> {
        let quant = Quantizer::new(1.0, weight_bits)?;
        for e in grid.shards().flat_map(Shard::edges) {
            let Some(what) = misfit(e.weight, &quant) else {
                continue;
            };
            return Err(CoreError::InvalidInput(format!(
                "{what} edge weight on {e}; shortest paths require finite non-negative \
                 weights of at most {}, the largest {weight_bits}-bit weight code",
                quant.max_value()
            )));
        }
        Ok(quant)
    }
}

impl Algorithm for Sssp {
    type Input = CooGraph;
    type Output = Vec<f64>;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn input_edges(input: &CooGraph) -> u64 {
        input.num_edges() as u64
    }

    fn search_profile(&self) -> crate::SearchProfile {
        // Searches only active (relaxed-last-superstep) sources.
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

impl ShardableAlgorithm for Sssp {
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

impl Sssp {
    /// Runs SSSP over a graph already partitioned by
    /// [`partition_for_streaming`]. [`ShardableAlgorithm::execute_on`]
    /// partitions and then calls this; a graph kept resident across
    /// queries partitions once and calls it directly. The supersteps are
    /// [`traverse`]'s with this one source, capped at `max_supersteps`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an out-of-range source or
    /// a negative, NaN, infinite or unencodable edge weight; propagates
    /// quantizer and device errors.
    pub fn execute_on_grid<R: ShardRunner>(
        &self,
        runner: &mut R,
        grid: &GridPartition,
    ) -> Result<AlgoRun<Vec<f64>>, CoreError> {
        check_sources(&[self.source], grid.num_vertices() as usize)?;
        let quant = Self::check_weights(grid, runner.engine().weight_bits())?;
        Ok(traverse(
            runner,
            grid,
            Some(&quant),
            &[self.source],
            self.max_supersteps,
        )?
        .into_first())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GaasXConfig;
    use gaasx_graph::{generators, Edge};

    fn run(graph: &CooGraph, source: u32) -> Vec<f64> {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        Sssp::from_source(VertexId::new(source))
            .execute(&mut engine, graph)
            .unwrap()
            .output
    }

    #[test]
    fn path_graph_distances() {
        let g = generators::path_graph(10);
        let d = run(&g, 0);
        for (i, &di) in d.iter().enumerate() {
            assert_eq!(di, i as f64);
        }
    }

    #[test]
    fn unreachable_stays_infinite() {
        let g = generators::path_graph(5);
        let d = run(&g, 3);
        assert!(d[0].is_infinite());
        assert!(d[1].is_infinite());
        assert_eq!(d[3], 0.0);
        assert_eq!(d[4], 1.0);
    }

    #[test]
    fn takes_shorter_of_two_routes() {
        // 0 -> 1 -> 2 costs 2+2=4; direct 0 -> 2 costs 9.
        let g = CooGraph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 2.0),
                Edge::new(1, 2, 2.0),
                Edge::new(0, 2, 9.0),
            ],
        )
        .unwrap();
        assert_eq!(run(&g, 0), vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn rejects_bad_source_and_negative_weights() {
        let g = generators::path_graph(3);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        assert!(Sssp::from_source(VertexId::new(9))
            .execute(&mut engine, &g)
            .is_err());
        let neg = CooGraph::from_edges(2, vec![Edge::new(0, 1, -1.0)]).unwrap();
        assert!(Sssp::from_source(VertexId::new(0))
            .execute(&mut engine, &neg)
            .is_err());
    }

    #[test]
    fn superstep_cap_limits_propagation() {
        let g = generators::path_graph(10);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let r = Sssp {
            source: VertexId::new(0),
            max_supersteps: 2,
        }
        .execute(&mut engine, &g)
        .unwrap();
        assert_eq!(r.iterations, 2);
        // Within 2 Bellman-Ford sweeps at least 2 hops resolved.
        assert_eq!(r.output[2], 2.0);
    }

    /// The one-shot error kinds and their order, pinned: the source is
    /// checked before the weights, and an empty graph reports its
    /// out-of-range source (it is never partitioned).
    #[test]
    fn input_errors_keep_their_kind_and_order() {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let mut err = |source: u32, graph: &CooGraph| match Sssp::from_source(VertexId::new(source))
            .execute(&mut engine, graph)
        {
            Err(CoreError::InvalidInput(msg)) => msg,
            other => panic!("want InvalidInput, got {other:?}"),
        };
        assert_eq!(
            err(0, &CooGraph::empty(0)),
            "source v0 out of range for 0 vertices"
        );
        let neg = CooGraph::from_edges(2, vec![Edge::new(0, 1, -1.0)]).unwrap();
        assert_eq!(err(9, &neg), "source v9 out of range for 2 vertices");
        assert!(err(0, &neg).starts_with("negative edge weight on "));
    }

    #[test]
    fn rejects_non_finite_weights() {
        // The path 0→1→2 with a non-finite first hop.
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let g =
                CooGraph::from_edges(3, vec![Edge::new(0, 1, bad), Edge::new(1, 2, 1.0)]).unwrap();
            match Sssp::from_source(VertexId::new(0)).execute(&mut engine, &g) {
                Err(CoreError::InvalidInput(msg)) => {
                    assert!(msg.starts_with("non-finite edge weight on "), "{msg}");
                }
                other => panic!("weight {bad}: want InvalidInput, got {other:?}"),
            }
        }
    }

    /// Weights past the 16-bit code range used to saturate to 65 535
    /// silently, returning `[0, 65535, inf]` for the first path.
    #[test]
    fn rejects_weights_past_the_encoder_range() {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        assert_eq!(engine.weight_bits(), 16);
        let path = |w: &[f32]| {
            let edges = (0u32..).zip(w).map(|(u, &w)| Edge::new(u, u + 1, w));
            CooGraph::from_edges(w.len() as u32 + 1, edges.collect()).unwrap()
        };
        for weights in [&[70_000.0, 1.0][..], &[1e30; 3], &[65_535.5]] {
            match Sssp::from_source(VertexId::new(0)).execute(&mut engine, &path(weights)) {
                Err(CoreError::InvalidInput(msg)) => {
                    assert!(msg.starts_with("unencodable edge weight on "), "{msg}");
                    assert!(msg.ends_with("at most 65535, the largest 16-bit weight code"));
                }
                other => panic!("weights {weights:?}: want InvalidInput, got {other:?}"),
            }
        }
        let top = Sssp::from_source(VertexId::new(0))
            .execute(&mut engine, &path(&[65_535.0]))
            .unwrap();
        assert_eq!(top.output, [0.0, 65_535.0]);
    }
}
