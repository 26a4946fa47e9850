//! PageRank mapped to SpMV-multiply (paper §IV, Fig 9(c)).

use gaasx_graph::partition::TraversalOrder;
use gaasx_graph::{CooGraph, Edge};
use gaasx_xbar::fixed::Quantizer;

use crate::algorithms::{AlgoRun, Algorithm, ShardableAlgorithm};
use crate::engine::{partition_for_streaming, CellLayout, Engine, Keys};
use crate::error::CoreError;
use crate::sharded::ShardRunner;

/// PageRank on GaaS-X.
///
/// Per the paper's mapping: reciprocal out-degrees of the source vertices
/// are loaded into the MAC crossbars, `(src, dst)` pairs into the CAM
/// crossbars. For every destination vertex in the loaded range, a CAM
/// search over the destination field produces the hit vector, the MAC
/// crossbar accumulates `rank(U) × 1/OutDeg(U)` over the enabled rows, and
/// the SFU applies `rank(V) = (1 − α) + α · Σ` (Equation 3).
///
/// Iterates until the L1 rank change per vertex drops below `tolerance` or
/// `max_iterations` is reached.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRank {
    /// Damping factor α (paper Equation 3). Default 0.85.
    pub damping: f64,
    /// Iteration cap. Default 20.
    pub max_iterations: u32,
    /// Mean L1 change per vertex considered converged. Default 1e-6.
    pub tolerance: f64,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            damping: 0.85,
            max_iterations: 20,
            tolerance: 1e-6,
        }
    }
}

impl PageRank {
    /// PageRank with a fixed iteration count and no early convergence exit.
    pub fn fixed_iterations(iters: u32) -> Self {
        PageRank {
            max_iterations: iters,
            tolerance: 0.0,
            ..PageRank::default()
        }
    }
}

impl Algorithm for PageRank {
    type Input = CooGraph;
    type Output = Vec<f64>;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn input_edges(input: &CooGraph) -> u64 {
        input.num_edges() as u64
    }

    fn execute(
        &self,
        engine: &mut Engine,
        graph: &CooGraph,
    ) -> Result<AlgoRun<Vec<f64>>, CoreError> {
        self.execute_on(engine, graph)
    }
}

impl ShardableAlgorithm for PageRank {
    fn execute_on<R: ShardRunner>(
        &self,
        runner: &mut R,
        graph: &CooGraph,
    ) -> Result<AlgoRun<Vec<f64>>, CoreError> {
        if !(0.0..=1.0).contains(&self.damping) {
            return Err(CoreError::InvalidInput(format!(
                "damping {} outside [0, 1]",
                self.damping
            )));
        }
        let n = graph.num_vertices() as usize;
        if n == 0 {
            return Ok(AlgoRun {
                output: Vec::new(),
                iterations: 0,
            });
        }
        let out_deg = graph.out_degrees();
        // Reciprocal out-degrees are static across iterations; 1/deg ∈ (0, 1].
        let w_quant = Quantizer::for_max_value(1.0, runner.engine().weight_bits())?;
        let inv_deg_code: Vec<u32> = out_deg
            .iter()
            .map(|&d| {
                if d == 0 {
                    0
                } else {
                    w_quant.encode(1.0 / d as f32)
                }
            })
            .collect();

        let grid = partition_for_streaming(graph)?;
        let mut ranks = vec![1.0f64; n];
        let mut rank_code: Vec<u32> = Vec::with_capacity(n);
        let mut iterations = 0;

        for _ in 0..self.max_iterations {
            // Input codes must cover the current rank range.
            let max_rank = ranks.iter().cloned().fold(1.0f64, f64::max);
            let r_quant = Quantizer::for_max_value((max_rank * 1.05) as f32, 16)?;

            // The quantizer is fixed for the iteration and a MAC input
            // depends only on the edge's source, so the previous iteration's
            // ranks are encoded once per vertex here rather than once per
            // hit row inside the gather loop.
            rank_code.clear();
            rank_code.extend(ranks.iter().map(|&r| r_quant.encode(r as f32)));

            // Column-major shard streaming: destinations of a shard are
            // contiguous, so gathered updates stay in the attribute buffer.
            // The pass reads the previous iteration's ranks (the encoded
            // snapshot) and emits `(dst, Σ rank/deg)` contributions per
            // shard.
            let rank_code = &rank_code;
            let contributions =
                runner.for_each_shard(&grid, TraversalOrder::ColumnMajor, |engine, shard| {
                    let mut contribs: Vec<(u32, f64)> = Vec::new();
                    let mut hits = gaasx_xbar::HitVector::new(0);
                    let cells = |edges: &[Edge], c: &mut Vec<u32>| {
                        c.extend(edges.iter().map(|e| inv_deg_code[e.src.index()]));
                    };
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
                                    |row| rank_code[block.edge(row).src.index()],
                                    0,
                                )?;
                                let sum = f64::from(r_quant.decode_product_sum(&w_quant, code));
                                contribs.push((dst.raw(), sum));
                            }
                            Ok(())
                        },
                    )?;
                    Ok(contribs)
                })?;

            // Sequential reduce in canonical shard order on the primary.
            let engine = runner.engine();
            let mut acc = vec![0.0f64; n];
            for contribs in &contributions {
                for &(dst, sum) in contribs {
                    let v = dst as usize;
                    acc[v] = engine.sfu_add(acc[v], sum);
                    engine.attr_write(8);
                }
            }

            // Apply phase: rank(V) = (1 − α) + α · Σ.
            iterations += 1;
            let mut delta = 0.0;
            for v in 0..n {
                let damped = engine.sfu_mul(self.damping, acc[v]);
                let new_rank = engine.sfu_add(1.0 - self.damping, damped);
                delta += (new_rank - ranks[v]).abs();
                ranks[v] = new_rank;
                engine.attr_write(8);
            }
            engine.output_write(8 * n as u64);
            if delta / n as f64 <= self.tolerance {
                break;
            }
        }

        Ok(AlgoRun {
            output: ranks,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GaasXConfig;
    use gaasx_graph::generators;

    fn run(graph: &CooGraph, pr: &PageRank) -> AlgoRun<Vec<f64>> {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        pr.execute(&mut engine, graph).unwrap()
    }

    /// Oracle: same recurrence in f64.
    fn oracle(graph: &CooGraph, damping: f64, iters: u32) -> Vec<f64> {
        let n = graph.num_vertices() as usize;
        let deg = graph.out_degrees();
        let mut ranks = vec![1.0f64; n];
        for _ in 0..iters {
            let mut acc = vec![0.0f64; n];
            for e in graph.iter() {
                acc[e.dst.index()] += ranks[e.src.index()] / deg[e.src.index()] as f64;
            }
            for v in 0..n {
                ranks[v] = (1.0 - damping) + damping * acc[v];
            }
        }
        ranks
    }

    #[test]
    fn matches_oracle_on_cycle() {
        // On a cycle every vertex keeps rank exactly 1.
        let g = generators::cycle_graph(8);
        let run = run(&g, &PageRank::fixed_iterations(5));
        for r in &run.output {
            assert!((r - 1.0).abs() < 1e-3, "rank {r}");
        }
    }

    #[test]
    fn matches_oracle_on_fig7() {
        let g = generators::paper_fig7_graph();
        let pr = PageRank::fixed_iterations(10);
        let got = run(&g, &pr).output;
        let want = oracle(&g, 0.85, 10);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_oracle_on_rmat() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(3)).unwrap();
        let pr = PageRank::fixed_iterations(8);
        let got = run(&g, &pr).output;
        let want = oracle(&g, 0.85, 8);
        let mean_err: f64 = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / want.len() as f64;
        assert!(mean_err < 1e-2, "mean error {mean_err}");
    }

    #[test]
    fn converges_early_on_stable_graph() {
        let g = generators::cycle_graph(6);
        let pr = PageRank {
            max_iterations: 50,
            tolerance: 1e-9,
            ..PageRank::default()
        };
        let r = run(&g, &pr);
        assert!(r.iterations < 10, "took {} iterations", r.iterations);
    }

    #[test]
    fn rejects_bad_damping() {
        let g = generators::cycle_graph(3);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let pr = PageRank {
            damping: 1.5,
            ..PageRank::default()
        };
        assert!(pr.execute(&mut engine, &g).is_err());
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = CooGraph::empty(0);
        let r = run(&g, &PageRank::default());
        assert!(r.output.is_empty());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn hub_receives_high_rank() {
        // All spokes point at vertex 0.
        let g = generators::star_graph(10).transposed();
        let r = run(&g, &PageRank::fixed_iterations(10)).output;
        assert!(r[0] > r[1] * 2.0, "hub {} spoke {}", r[0], r[1]);
    }
}
