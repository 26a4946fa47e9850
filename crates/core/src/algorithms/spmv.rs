//! Generic sparse matrix–vector multiplication.
//!
//! The paper's whole thesis is that graph analytics reduces to the SpMV
//! computation model (§III: GaaS-X "efficiently adapts the SpMV
//! computation model to different graph algorithms"); this exposes the
//! primitive itself as a public operation: `y = Aᵀ·x` where `A` is the
//! weighted adjacency matrix held sparsely in the crossbars, i.e.
//! `y[v] = Σ_{(u,v) ∈ E} w(u, v) · x[u]` — one CAM search per destination,
//! one selective MAC burst per ≤16 hit rows, exactly the PageRank gather
//! stripped of its damping step.

use gaasx_graph::partition::TraversalOrder;
use gaasx_graph::{CooGraph, Edge};
use gaasx_xbar::fixed::Quantizer;

use crate::algorithms::{AlgoRun, Algorithm};
use crate::engine::{partition_for_streaming, CellLayout, Engine, Keys};
use crate::error::CoreError;

/// One SpMV operation `y = Aᵀ·x` over the graph's weighted adjacency.
///
/// Crossbar cells are unsigned, so both the matrix weights and the input
/// vector must be non-negative; [`SpMV::execute`] validates this. (Signed
/// operands use the dual-rail encoding of [`super::signed`], as
/// collaborative filtering does.)
#[derive(Debug, Clone, PartialEq)]
pub struct SpMV {
    /// The input vector `x`, length `num_vertices`.
    pub x: Vec<f32>,
}

impl SpMV {
    /// Creates the operation for a given input vector.
    pub fn new(x: Vec<f32>) -> Self {
        SpMV { x }
    }
}

impl Algorithm for SpMV {
    type Input = CooGraph;
    type Output = Vec<f64>;

    fn name(&self) -> &'static str {
        "spmv"
    }

    fn input_edges(input: &CooGraph) -> u64 {
        input.num_edges() as u64
    }

    fn execute(
        &self,
        engine: &mut Engine,
        graph: &CooGraph,
    ) -> Result<AlgoRun<Vec<f64>>, CoreError> {
        let n = graph.num_vertices() as usize;
        if self.x.len() != n {
            return Err(CoreError::InvalidInput(format!(
                "input vector length {} does not match {} vertices",
                self.x.len(),
                n
            )));
        }
        if n == 0 {
            return Ok(AlgoRun {
                output: Vec::new(),
                iterations: 1,
            });
        }
        let mut max_w = 0.0f32;
        for e in graph.iter() {
            if !(e.weight.is_finite() && e.weight >= 0.0) {
                return Err(CoreError::InvalidInput(format!(
                    "weight on {e} must be non-negative and finite"
                )));
            }
            max_w = max_w.max(e.weight);
        }
        let mut max_x = 0.0f32;
        for &v in &self.x {
            if !(v.is_finite() && v >= 0.0) {
                return Err(CoreError::InvalidInput(format!(
                    "input entry {v} must be non-negative and finite"
                )));
            }
            max_x = max_x.max(v);
        }
        let w_quant = Quantizer::for_max_value(max_w.max(1e-6), engine.weight_bits())?;
        let x_quant = Quantizer::for_max_value(max_x.max(1e-6), 16)?;

        let grid = partition_for_streaming(graph)?;
        let mut y = vec![0.0f64; n];

        let mut hits = gaasx_xbar::HitVector::new(0);
        let cells = |edges: &[Edge], c: &mut Vec<u32>| {
            c.extend(edges.iter().map(|e| w_quant.encode(e.weight)));
        };
        for shard in grid.stream(TraversalOrder::ColumnMajor) {
            engine.sweep(
                shard.edges(),
                CellLayout::PerEdge {
                    width: 1,
                    fill: &cells,
                },
                Keys::Dsts,
                |_| true,
                |engine, block| {
                    for dst in block.dsts() {
                        engine.search_dst_into(dst, &mut hits);
                        let code = engine.gather_rows(
                            &hits,
                            |row| x_quant.encode(self.x[block.edge(row).src.index()]),
                            0,
                        )?;
                        let sum = f64::from(x_quant.decode_product_sum(&w_quant, code));
                        y[dst.index()] = engine.sfu_add(y[dst.index()], sum);
                        engine.attr_write(8);
                    }
                    Ok(())
                },
            )?;
        }
        engine.end_block();
        engine.output_write(8 * n as u64);

        Ok(AlgoRun {
            output: y,
            iterations: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GaasXConfig;
    use gaasx_graph::generators;

    fn run(graph: &CooGraph, x: Vec<f32>) -> Vec<f64> {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        SpMV::new(x).execute(&mut engine, graph).unwrap().output
    }

    fn oracle(graph: &CooGraph, x: &[f32]) -> Vec<f64> {
        let mut y = vec![0.0f64; graph.num_vertices() as usize];
        for e in graph.iter() {
            y[e.dst.index()] += f64::from(e.weight) * f64::from(x[e.src.index()]);
        }
        y
    }

    #[test]
    fn matches_oracle_on_fig7() {
        let g = generators::paper_fig7_graph();
        let x: Vec<f32> = (0..5).map(|i| i as f32 + 0.5).collect();
        let got = run(&g, x.clone());
        let want = oracle(&g, &x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 0.05 * b.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn matches_oracle_on_rmat() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 900).with_seed(12)).unwrap();
        let x: Vec<f32> = (0..g.num_vertices()).map(|i| (i % 7) as f32).collect();
        let got = run(&g, x.clone());
        let want = oracle(&g, &x);
        let worst = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs() / b.max(1.0))
            .fold(0.0f64, f64::max);
        assert!(worst < 0.02, "worst relative error {worst}");
    }

    #[test]
    fn zero_vector_gives_zero_output() {
        let g = generators::paper_fig7_graph();
        assert!(run(&g, vec![0.0; 5]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn validates_inputs() {
        let g = generators::paper_fig7_graph();
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        // Wrong length.
        assert!(SpMV::new(vec![1.0; 3]).execute(&mut engine, &g).is_err());
        // Negative entries.
        assert!(SpMV::new(vec![-1.0; 5]).execute(&mut engine, &g).is_err());
        // NaN entries.
        assert!(SpMV::new(vec![f32::NAN; 5])
            .execute(&mut engine, &g)
            .is_err());
    }

    #[test]
    fn single_spmv_is_one_iteration() {
        let g = generators::paper_fig7_graph();
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let r = SpMV::new(vec![1.0; 5]).execute(&mut engine, &g).unwrap();
        assert_eq!(r.iterations, 1);
    }
}
