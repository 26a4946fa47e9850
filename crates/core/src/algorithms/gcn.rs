//! A graph convolutional network layer on GaaS-X.
//!
//! The paper's closing discussion (§V-B) notes that "emerging graph
//! analytics algorithms such as graph neural networks ... comprise a
//! series of operations such as accumulation, convolution over vertex
//! attributes and edge attributes. Though these emerging algorithms can be
//! mapped to GaaS-X architecture, in this work, we refrain from this
//! analysis". This module implements that deferred mapping for one GCN
//! layer with mean aggregation:
//!
//! ```text
//! H' = ReLU( D⁻¹(A + I) · H · W )
//! ```
//!
//! *Aggregation* is the CF/PageRank gather: one CAM search per destination,
//! then one selective MAC burst per ≤16 hit rows **per input feature**,
//! with the normalization `1/(deg+1)` pre-programmed into the edge cells.
//! *Transformation* holds the (signed, dual-rail) weight matrix in the
//! attribute crossbars and performs one MAC burst per vertex per 8-output
//! segment, with the SFU applying ReLU.

use gaasx_graph::partition::TraversalOrder;
use gaasx_graph::{CooGraph, Edge};
use gaasx_xbar::fixed::Quantizer;

use crate::algorithms::signed::{encode_row, SignedQuantizer};
use crate::algorithms::{AlgoRun, Algorithm};
use crate::engine::{partition_for_streaming, CellLayout, Engine, Keys};
use crate::error::CoreError;

/// Input to a GCN layer: a graph plus non-negative vertex features
/// (`num_vertices × f_in`). Features are non-negative because they are
/// driven as single-rail MAC inputs — exactly the situation after a
/// previous layer's ReLU.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnInput {
    /// The graph.
    pub graph: CooGraph,
    /// Per-vertex input features.
    pub features: Vec<Vec<f32>>,
}

/// One GCN layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    /// Weight matrix, `f_in × f_out`, signed.
    pub weights: Vec<Vec<f32>>,
    /// Apply ReLU to the output (disable for a final linear layer).
    pub relu: bool,
}

impl GcnLayer {
    /// Creates a layer from its weight matrix.
    pub fn new(weights: Vec<Vec<f32>>) -> Self {
        GcnLayer {
            weights,
            relu: true,
        }
    }

    fn f_in(&self) -> usize {
        self.weights.len()
    }

    fn f_out(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }
}

impl Algorithm for GcnLayer {
    type Input = GcnInput;
    type Output = Vec<Vec<f64>>;

    fn name(&self) -> &'static str {
        "gcn"
    }

    fn input_edges(input: &GcnInput) -> u64 {
        input.graph.num_edges() as u64
    }

    fn execute(
        &self,
        engine: &mut Engine,
        input: &GcnInput,
    ) -> Result<AlgoRun<Vec<Vec<f64>>>, CoreError> {
        let graph = &input.graph;
        let h = &input.features;
        let n = graph.num_vertices() as usize;
        let f_in = self.f_in();
        let f_out = self.f_out();
        let geometry = engine.config().mac_geometry;

        if f_in == 0 || f_out == 0 {
            return Err(CoreError::InvalidInput("empty weight matrix".into()));
        }
        if f_in > geometry.max_active_rows {
            return Err(CoreError::InvalidInput(format!(
                "f_in {} exceeds the {}-row MAC burst cap; stack narrower layers",
                f_in, geometry.max_active_rows
            )));
        }
        if self.weights.iter().any(|r| r.len() != f_out) {
            return Err(CoreError::InvalidInput("ragged weight matrix".into()));
        }
        if h.len() != n {
            return Err(CoreError::InvalidInput(format!(
                "feature matrix has {} rows for {} vertices",
                h.len(),
                n
            )));
        }
        let mut max_h = 0.0f32;
        for row in h {
            if row.len() != f_in {
                return Err(CoreError::InvalidInput("ragged feature matrix".into()));
            }
            for &v in row {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(CoreError::InvalidInput(format!(
                        "feature {v} must be non-negative and finite (post-ReLU domain)"
                    )));
                }
                max_h = max_h.max(v);
            }
        }
        if n == 0 {
            return Ok(AlgoRun {
                output: Vec::new(),
                iterations: 1,
            });
        }

        let in_deg = graph.in_degrees();
        // Mean aggregation with self loop: factor 1/(in_deg + 1) < 1.
        let norm_quant = Quantizer::for_max_value(1.0, engine.weight_bits())?;
        let h_quant = Quantizer::for_max_value(max_h.max(1e-6), 16)?;
        let norm = |v: usize| 1.0 / (in_deg[v] as f32 + 1.0);

        // --- Aggregation phase: agg = D⁻¹(A + I) · H ------------------
        let mut agg = vec![vec![0.0f64; f_in]; n];
        let grid = partition_for_streaming(graph)?;
        let mut hits = gaasx_xbar::HitVector::new(0);
        let cells = |edges: &[Edge], c: &mut Vec<u32>| {
            c.extend(edges.iter().map(|e| norm_quant.encode(norm(e.dst.index()))));
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
                        // One CAM search; the hit-vector register drives
                        // f_in successive MAC bursts, one per input feature.
                        engine.search_dst_into(dst, &mut hits);
                        for k in 0..f_in {
                            let code = engine.gather_rows(
                                &hits,
                                |row| h_quant.encode(h[block.edge(row).src.index()][k]),
                                0,
                            )?;
                            let sum = f64::from(h_quant.decode_product_sum(&norm_quant, code));
                            agg[dst.index()][k] = engine.sfu_add(agg[dst.index()][k], sum);
                        }
                        engine.attr_write(4 * f_in as u64);
                    }
                    Ok(())
                },
            )?;
        }
        engine.end_block();
        // Self-loop term, per vertex, in the SFU.
        for v in 0..n {
            let nv = f64::from(norm(v));
            for k in 0..f_in {
                let own = engine.sfu_mul(nv, f64::from(h[v][k]));
                agg[v][k] = engine.sfu_add(agg[v][k], own);
            }
        }

        // --- Transform phase: out = agg · W, ReLU ---------------------
        // W loads once into the attribute crossbars: dual-rail columns,
        // f_in rows, ceil(f_out / 8) segments.
        let w_max = self
            .weights
            .iter()
            .flatten()
            .fold(0.0f32, |m, &w| m.max(w.abs()));
        let w_quant = SignedQuantizer::new(w_max.max(1e-6), 16)?;
        let agg_max = agg
            .iter()
            .flatten()
            .fold(0.0f64, |m, &v| m.max(v))
            .max(1e-6);
        let agg_quant = Quantizer::for_max_value(agg_max as f32, 16)?;
        let cols = geometry.cols;
        let outs_per_seg = cols / 2;
        let segments = f_out.div_ceil(outs_per_seg);
        for seg in 0..segments {
            let lo = seg * outs_per_seg;
            let hi = (lo + outs_per_seg).min(f_out);
            for (k, row) in self.weights.iter().enumerate() {
                engine.write_aux_row(k, &encode_row(&w_quant, &row[lo..hi]))?;
            }
        }

        let rows: Vec<usize> = (0..f_in).collect();
        let mut out = vec![vec![0.0f64; f_out]; n];
        for v in 0..n {
            let inputs: Vec<u32> = (0..f_in)
                .map(|k| agg_quant.encode(agg[v][k] as f32))
                .collect();
            engine.attr_read(4 * f_in as u64);
            for seg in 0..segments {
                let lo = seg * outs_per_seg;
                let hi = (lo + outs_per_seg).min(f_out);
                // Re-materialize this segment's W (loading charged above).
                for (k, row) in self.weights.iter().enumerate() {
                    engine.preload_aux_row(k, &encode_row(&w_quant, &row[lo..hi]))?;
                }
                let sums = engine.aux_mac_rows(&rows, &inputs)?;
                for j in lo..hi {
                    let p = sums[2 * (j - lo)];
                    let m = sums[2 * (j - lo) + 1];
                    let z = (p as f64 - m as f64)
                        * f64::from(agg_quant.step())
                        * f64::from(w_quant.step());
                    out[v][j] = if self.relu {
                        // ReLU as an SFU max-with-zero.
                        -engine.sfu_min(-z, 0.0)
                    } else {
                        z
                    };
                }
            }
            engine.attr_write(8 * f_out as u64);
        }
        engine.output_write(8 * (n * f_out) as u64);

        Ok(AlgoRun {
            output: out,
            iterations: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GaasXConfig;
    use gaasx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn oracle(input: &GcnInput, weights: &[Vec<f32>], relu: bool) -> Vec<Vec<f64>> {
        let n = input.graph.num_vertices() as usize;
        let f_in = weights.len();
        let f_out = weights[0].len();
        let in_deg = input.graph.in_degrees();
        let mut agg = vec![vec![0.0f64; f_in]; n];
        for e in input.graph.iter() {
            let nv = 1.0 / (f64::from(in_deg[e.dst.index()]) + 1.0);
            for (k, slot) in agg[e.dst.index()].iter_mut().enumerate() {
                *slot += nv * f64::from(input.features[e.src.index()][k]);
            }
        }
        for (v, row) in agg.iter_mut().enumerate() {
            let nv = 1.0 / (f64::from(in_deg[v]) + 1.0);
            for (k, slot) in row.iter_mut().enumerate() {
                *slot += nv * f64::from(input.features[v][k]);
            }
        }
        let mut out = vec![vec![0.0f64; f_out]; n];
        for v in 0..n {
            for j in 0..f_out {
                let z: f64 = (0..f_in)
                    .map(|k| agg[v][k] * f64::from(weights[k][j]))
                    .sum();
                out[v][j] = if relu { z.max(0.0) } else { z };
            }
        }
        out
    }

    fn random_input(n_pow: u32, edges: usize, f_in: usize, seed: u64) -> GcnInput {
        let graph =
            generators::rmat(&generators::RmatConfig::new(1 << n_pow, edges).with_seed(seed))
                .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let features = (0..graph.num_vertices())
            .map(|_| (0..f_in).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        GcnInput { graph, features }
    }

    fn random_weights(f_in: usize, f_out: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..f_in)
            .map(|_| (0..f_out).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn matches_oracle() {
        let input = random_input(6, 300, 8, 21);
        let weights = random_weights(8, 12, 22);
        let layer = GcnLayer::new(weights.clone());
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let got = layer.execute(&mut engine, &input).unwrap().output;
        let want = oracle(&input, &weights, true);
        for (a_row, b_row) in got.iter().zip(&want) {
            for (a, b) in a_row.iter().zip(b_row) {
                assert!((a - b).abs() < 0.02 * b.abs().max(0.5), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let input = random_input(5, 100, 4, 3);
        // All-negative weights force negative pre-activations.
        let weights = vec![vec![-1.0f32; 4]; 4];
        let layer = GcnLayer::new(weights);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let got = layer.execute(&mut engine, &input).unwrap().output;
        assert!(got.iter().flatten().all(|&v| v == 0.0));
    }

    #[test]
    fn linear_mode_keeps_signs() {
        let input = random_input(5, 100, 4, 4);
        let mut layer = GcnLayer::new(vec![vec![-1.0f32; 2]; 4]);
        layer.relu = false;
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let got = layer.execute(&mut engine, &input).unwrap().output;
        assert!(got.iter().flatten().any(|&v| v < 0.0));
    }

    #[test]
    fn validates_shapes() {
        let input = random_input(5, 100, 4, 5);
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        // f_in exceeding the burst cap.
        assert!(GcnLayer::new(random_weights(17, 2, 1))
            .execute(&mut engine, &input)
            .is_err());
        // Ragged weights.
        let mut ragged = random_weights(4, 3, 1);
        ragged[2].pop();
        assert!(GcnLayer::new(ragged).execute(&mut engine, &input).is_err());
        // Feature/vertex mismatch.
        let mut bad = input.clone();
        bad.features.pop();
        assert!(GcnLayer::new(random_weights(4, 3, 1))
            .execute(&mut engine, &bad)
            .is_err());
        // Negative features.
        let mut neg = input.clone();
        neg.features[0][0] = -1.0;
        assert!(GcnLayer::new(random_weights(4, 3, 1))
            .execute(&mut engine, &neg)
            .is_err());
    }

    #[test]
    fn two_layers_stack() {
        let input = random_input(5, 120, 6, 9);
        let l1 = GcnLayer::new(random_weights(6, 8, 10));
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let hidden = l1.execute(&mut engine, &input).unwrap().output;
        let input2 = GcnInput {
            graph: input.graph.clone(),
            features: hidden
                .iter()
                .map(|r| r.iter().map(|&v| v as f32).collect())
                .collect(),
        };
        let l2 = GcnLayer::new(random_weights(8, 4, 11));
        let out = l2.execute(&mut engine, &input2).unwrap().output;
        assert_eq!(out.len(), input.graph.num_vertices() as usize);
        assert_eq!(out[0].len(), 4);
    }
}
