//! Collaborative filtering (matrix factorization SGD) mapped to GaaS-X
//! (paper §IV, Fig 10).
//!
//! CF differs from the traversal algorithms in that the MAC operands are
//! *vertex* attributes — the latent feature vectors of users and items —
//! rather than edge weights. Ratings are loaded into the CAM crossbars as
//! `(user, item)` pairs; feature vectors live in MAC crossbars using the
//! dual-rail signed encoding of [`super::signed`]. Each epoch runs the
//! paper's two phases per loaded block:
//!
//! 1. *item update*: for each item, a CAM search over the item field finds
//!    its raters, errors `e_ui = G − Pᵤ·Pᵢ` come from dual-rail dot
//!    products, and `Σ e_ui·Pᵤ` accumulates through a selective MAC;
//! 2. *user update*: symmetric, searching the user field. (The paper
//!    maintains a "user list" side structure for this; the CAM's ternary
//!    search over the source field is the equivalent mechanism and is what
//!    we use.)

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gaasx_graph::bipartite::BipartiteGraph;
use gaasx_graph::Edge;
use gaasx_xbar::fixed::Quantizer;

use crate::algorithms::signed::{dual_rail_inputs, encode_row, SignedQuantizer};
use crate::algorithms::{misfit, AlgoRun, Algorithm};
use crate::engine::{CellLayout, Engine, Keys};
use crate::error::CoreError;

/// Collaborative filtering on GaaS-X.
#[derive(Debug, Clone, PartialEq)]
pub struct CollaborativeFiltering {
    /// Latent feature vector length (the paper evaluates 32).
    pub features: usize,
    /// Training epochs.
    pub epochs: u32,
    /// SGD learning rate γ (Equation 5).
    pub learning_rate: f64,
    /// Regularization λ (Equation 5).
    pub regularization: f64,
    /// Feature initialization seed.
    pub seed: u64,
}

impl Default for CollaborativeFiltering {
    fn default() -> Self {
        CollaborativeFiltering {
            features: 32,
            epochs: 5,
            learning_rate: 0.01,
            regularization: 0.05,
            seed: 0xcf01,
        }
    }
}

/// A trained factorization model.
#[derive(Debug, Clone, PartialEq)]
pub struct CfModel {
    user_features: Vec<Vec<f32>>,
    item_features: Vec<Vec<f32>>,
}

impl CfModel {
    /// Assembles a model from raw feature matrices — used by baseline
    /// engines (e.g. GraphR's CF) so every trainer yields the same type.
    ///
    /// # Panics
    ///
    /// Panics if the matrices have inconsistent feature lengths.
    pub fn from_parts(user_features: Vec<Vec<f32>>, item_features: Vec<Vec<f32>>) -> Self {
        let f = user_features
            .first()
            .or(item_features.first())
            .map_or(0, Vec::len);
        assert!(
            user_features
                .iter()
                .chain(&item_features)
                .all(|v| v.len() == f),
            "inconsistent feature vector lengths"
        );
        CfModel {
            user_features,
            item_features,
        }
    }

    /// Predicted rating of `item` by `user` (host-side dot product).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn predict(&self, user: u32, item: u32) -> f64 {
        dot(
            &self.user_features[user as usize],
            &self.item_features[item as usize],
        )
    }

    /// Root-mean-square error over a rating set.
    ///
    /// Returns `None` for an empty set.
    pub fn rmse(&self, ratings: &BipartiteGraph) -> Option<f64> {
        if ratings.num_ratings() == 0 {
            return None;
        }
        let se: f64 = ratings
            .iter()
            .map(|r| {
                let err = f64::from(r.value) - self.predict(r.user, r.item);
                err * err
            })
            .sum();
        Some((se / ratings.num_ratings() as f64).sqrt())
    }

    /// The user feature matrix.
    pub fn user_features(&self) -> &[Vec<f32>] {
        &self.user_features
    }

    /// The item feature matrix.
    pub fn item_features(&self) -> &[Vec<f32>] {
        &self.item_features
    }
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| f64::from(x) * f64::from(y))
        .sum()
}

/// Dual-rail signed dot product `a · b` executed on the auxiliary MAC
/// crossbar: a like/cross MAC pass pair per 8-feature segment. The operand
/// vectors were charged as loaded at shard granularity
/// ([`Engine::load_aux_rows_parallel`]); here they are re-materialized into
/// the working array cost-free.
fn device_dot(
    engine: &mut Engine,
    a: &[f32],
    b: &[f32],
    q: &SignedQuantizer,
) -> Result<f64, CoreError> {
    let cols = engine.config().mac_geometry.cols;
    let feats_per_seg = cols / 2;
    let mut total = 0.0;
    for (seg, a_seg) in a.chunks(feats_per_seg).enumerate() {
        let b_seg = &b[seg * feats_per_seg..(seg * feats_per_seg + a_seg.len())];
        engine.preload_aux_row(0, &encode_row(q, a_seg))?;
        let (like_in, cross_in) = dual_rail_inputs(q, b_seg);
        let active: Vec<usize> = (0..like_in.len()).collect();
        let like = engine.aux_mac_cols(&active, &like_in)?[0];
        let cross = engine.aux_mac_cols(&active, &cross_in)?[0];
        total = engine.sfu_add(total, q.decode_product_sum(q, like, cross));
    }
    Ok(total)
}

/// Dual-rail signed weighted sum `Σⱼ cⱼ · Vⱼ` executed on the auxiliary MAC
/// crossbar: vectors re-materialize as dual-rail rows (loading already
/// charged at shard granularity), coefficients drive the rows in a
/// like/cross pass pair per segment, per ≤16-row chunk.
fn device_weighted_sum(
    engine: &mut Engine,
    coeffs: &[f64],
    vectors: &[&Vec<f32>],
    cq: &SignedQuantizer,
    vq: &SignedQuantizer,
    features: usize,
) -> Result<Vec<f64>, CoreError> {
    debug_assert_eq!(coeffs.len(), vectors.len());
    let cols = engine.config().mac_geometry.cols;
    let feats_per_seg = cols / 2;
    let max_rows = engine.config().mac_geometry.max_active_rows;
    let mut result = vec![0.0f64; features];

    for (c_chunk, v_chunk) in coeffs.chunks(max_rows).zip(vectors.chunks(max_rows)) {
        let like_in: Vec<u32> = c_chunk.iter().map(|&c| cq.encode(c as f32).0).collect();
        let cross_in: Vec<u32> = c_chunk.iter().map(|&c| cq.encode(c as f32).1).collect();
        let rows: Vec<usize> = (0..c_chunk.len()).collect();
        for seg_base in (0..features).step_by(feats_per_seg) {
            let seg_len = feats_per_seg.min(features - seg_base);
            for (j, v) in v_chunk.iter().enumerate() {
                engine.preload_aux_row(j, &encode_row(vq, &v[seg_base..seg_base + seg_len]))?;
            }
            let s_like = engine.aux_mac_rows(&rows, &like_in)?;
            let s_cross = engine.aux_mac_rows(&rows, &cross_in)?;
            for k in 0..seg_len {
                let like = s_like[2 * k] + s_cross[2 * k + 1];
                let cross = s_like[2 * k + 1] + s_cross[2 * k];
                result[seg_base + k] += cq.decode_product_sum(vq, like, cross);
            }
        }
    }
    Ok(result)
}

impl CollaborativeFiltering {
    fn validate(&self) -> Result<(), CoreError> {
        if self.features == 0 {
            return Err(CoreError::InvalidInput("features must be positive".into()));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(CoreError::InvalidInput(
                "learning_rate must be positive".into(),
            ));
        }
        if !(self.regularization.is_finite() && self.regularization >= 0.0) {
            return Err(CoreError::InvalidInput(
                "regularization must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Checks that every rating is finite, non-negative and at most the
    /// largest value the step-1 quantizer encodes in `weight_bits`, so no
    /// MAC cell clamps or saturates a rating into a different one, and
    /// returns that quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] naming the first rating that is
    /// negative, NaN, infinite or too large to encode, and propagates a
    /// quantizer error for an invalid `weight_bits`.
    fn check_ratings(ratings: &BipartiteGraph, weight_bits: u32) -> Result<Quantizer, CoreError> {
        let quant = Quantizer::new(1.0, weight_bits)?;
        for r in ratings.iter() {
            let Some(what) = misfit(r.value, &quant) else {
                continue;
            };
            return Err(CoreError::InvalidInput(format!(
                "{what} rating {} of item {} by user {}; collaborative filtering requires \
                 finite non-negative ratings of at most {}, the largest {weight_bits}-bit \
                 rating code",
                r.value,
                r.item,
                r.user,
                quant.max_value()
            )));
        }
        Ok(quant)
    }

    // The SGD update takes every latent-factor coefficient separately by
    // design: bundling them into a struct would hide which of the paper's
    // Eq. 7 terms each call site supplies.
    #[allow(clippy::too_many_arguments)]
    fn apply_update(
        engine: &mut Engine,
        target: &mut [f32],
        delta: &[f64],
        count: usize,
        gamma: f64,
        lambda: f64,
        feat_max: f32,
    ) {
        // P* = P + γ (Σ e·Q − λ·cnt·P), elementwise in the SFU.
        for (p, &d) in target.iter_mut().zip(delta) {
            let reg = engine.sfu_mul(lambda * count as f64, f64::from(*p));
            let step = engine.sfu_mul(gamma, d - reg);
            let updated = engine.sfu_add(f64::from(*p), step);
            *p = (updated as f32).clamp(-feat_max, feat_max);
        }
        engine.attr_write(4 * target.len() as u64);
    }
}

impl Algorithm for CollaborativeFiltering {
    type Input = BipartiteGraph;
    type Output = CfModel;

    fn name(&self) -> &'static str {
        "cf"
    }

    fn input_edges(input: &BipartiteGraph) -> u64 {
        input.num_ratings() as u64
    }

    fn execute(
        &self,
        engine: &mut Engine,
        ratings: &BipartiteGraph,
    ) -> Result<AlgoRun<CfModel>, CoreError> {
        self.validate()?;
        let f = self.features;
        let feat_max = 2.0f32;
        let feat_q = SignedQuantizer::new(feat_max, 16)?;
        let err_q = SignedQuantizer::new(8.0, 16)?;
        let rate_q = Self::check_ratings(ratings, engine.weight_bits())?;

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let scale = 0.5 / (f as f32).sqrt();
        let mut init = |n: u32| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| (0..f).map(|_| rng.gen_range(0.0..scale)).collect())
                .collect()
        };
        let mut user_f = init(ratings.num_users());
        let mut item_f = init(ratings.num_items());

        let cols = engine.config().mac_geometry.cols;
        let rows_per_vector = (2 * f).div_ceil(cols);
        let num_users = ratings.num_users() as usize;

        // Interval-partition the rating matrix like any other graph: item
        // vertices follow user vertices in the unified id space, so
        // column-major streaming groups ratings by item range (Fig 2
        // layout applied to the bipartite graph).
        let coo = ratings.to_coo();
        let grid = gaasx_graph::partition::GridPartition::with_num_intervals(&coo, 16)?;

        let total_vertices = (ratings.num_users() + ratings.num_items()) as usize;
        let mut hits = gaasx_xbar::HitVector::new(0);
        let cells = |edges: &[Edge], c: &mut Vec<u32>| {
            c.extend(edges.iter().map(|e| rate_q.encode(e.weight)));
        };
        for _ in 0..self.epochs {
            // The attribute MAC crossbars across the banks hold the feature
            // matrix of the active vertex ranges (2048 banks × 128 rows fit
            // ≈131 K 32-feature dual-rail vectors), so each vector loads
            // once per epoch as its range first streams in.
            let mut loaded = vec![false; total_vertices];
            for shard in grid.stream(gaasx_graph::partition::TraversalOrder::ColumnMajor) {
                let mut fresh = 0usize;
                for e in shard.edges() {
                    for v in [e.src.index(), e.dst.index()] {
                        if !loaded[v] {
                            loaded[v] = true;
                            fresh += 1;
                        }
                    }
                }
                engine.load_aux_rows_parallel(fresh * rows_per_vector, cols);
                engine.attr_read(4 * (fresh * f) as u64);

                engine.sweep(
                    shard.edges(),
                    CellLayout::PerEdge {
                        width: 1,
                        fill: &cells,
                    },
                    Keys::Both,
                    |_| true,
                    |engine, block| {
                        // Item update phase (Fig 10(b)).
                        for item in block.dsts() {
                            let i = item.index() - num_users;
                            engine.search_dst_into(item, &mut hits);
                            let rows = hits.rows();
                            let mut errs = Vec::with_capacity(rows.len());
                            let mut user_vecs: Vec<&Vec<f32>> = Vec::with_capacity(rows.len());
                            let item_vec = item_f[i].clone();
                            for &row in rows {
                                let e = block.edge(row);
                                engine.attr_read(4);
                                let pred =
                                    device_dot(engine, &user_f[e.src.index()], &item_vec, &feat_q)?;
                                errs.push(engine.sfu_add(f64::from(e.weight), -pred));
                                user_vecs.push(&user_f[e.src.index()]);
                            }
                            let delta =
                                device_weighted_sum(engine, &errs, &user_vecs, &err_q, &feat_q, f)?;
                            Self::apply_update(
                                engine,
                                &mut item_f[i],
                                &delta,
                                rows.len(),
                                self.learning_rate,
                                self.regularization,
                                feat_max,
                            );
                        }

                        // User update phase (Fig 10(c)).
                        for user in block.srcs() {
                            engine.search_src_into(user, &mut hits);
                            let rows = hits.rows();
                            let mut errs = Vec::with_capacity(rows.len());
                            let mut item_vecs: Vec<&Vec<f32>> = Vec::with_capacity(rows.len());
                            let user_vec = user_f[user.index()].clone();
                            for &row in rows {
                                let e = block.edge(row);
                                engine.attr_read(4);
                                let i = e.dst.index() - num_users;
                                let pred = device_dot(engine, &user_vec, &item_f[i], &feat_q)?;
                                errs.push(engine.sfu_add(f64::from(e.weight), -pred));
                                item_vecs.push(&item_f[i]);
                            }
                            let delta =
                                device_weighted_sum(engine, &errs, &item_vecs, &err_q, &feat_q, f)?;
                            Self::apply_update(
                                engine,
                                &mut user_f[user.index()],
                                &delta,
                                rows.len(),
                                self.learning_rate,
                                self.regularization,
                                feat_max,
                            );
                        }
                        Ok(())
                    },
                )?;
                engine.end_block();
            }
        }

        Ok(AlgoRun {
            output: CfModel {
                user_features: user_f,
                item_features: item_f,
            },
            iterations: self.epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GaasXConfig;

    fn small_cf() -> CollaborativeFiltering {
        CollaborativeFiltering {
            features: 8,
            epochs: 4,
            learning_rate: 0.02,
            regularization: 0.02,
            seed: 7,
        }
    }

    fn train(ratings: &BipartiteGraph, cf: &CollaborativeFiltering) -> CfModel {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        cf.execute(&mut engine, ratings).unwrap().output
    }

    #[test]
    fn training_reduces_rmse() {
        let ratings = BipartiteGraph::synthetic(30, 12, 250, 11).unwrap();
        let cf = small_cf();
        let untrained = CollaborativeFiltering {
            epochs: 0,
            ..cf.clone()
        };
        let before = train(&ratings, &untrained).rmse(&ratings).unwrap();
        let after = train(&ratings, &cf).rmse(&ratings).unwrap();
        assert!(
            after < before * 0.8,
            "rmse before {before:.3}, after {after:.3}"
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let ratings = BipartiteGraph::synthetic(10, 5, 60, 3).unwrap();
        let a = train(&ratings, &small_cf());
        let b = train(&ratings, &small_cf());
        assert_eq!(a, b);
    }

    #[test]
    fn predictions_track_strong_signal() {
        // Every rating is 5.0: after training, predictions should move
        // clearly above the untrained near-zero baseline.
        let ratings = BipartiteGraph::from_ratings(
            4,
            3,
            (0..4)
                .flat_map(|u| {
                    (0..3).map(move |i| gaasx_graph::bipartite::Rating {
                        user: u,
                        item: i,
                        value: 5.0,
                    })
                })
                .collect(),
        )
        .unwrap();
        let cf = CollaborativeFiltering {
            epochs: 30,
            ..small_cf()
        };
        let model = train(&ratings, &cf);
        let pred = model.predict(0, 0);
        assert!(pred > 1.0, "prediction {pred} did not move toward 5");
    }

    #[test]
    fn rejects_bad_hyperparameters() {
        let ratings = BipartiteGraph::synthetic(4, 4, 8, 1).unwrap();
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        for cf in [
            CollaborativeFiltering {
                features: 0,
                ..Default::default()
            },
            CollaborativeFiltering {
                learning_rate: 0.0,
                ..Default::default()
            },
            CollaborativeFiltering {
                regularization: -1.0,
                ..Default::default()
            },
        ] {
            assert!(cf.execute(&mut engine, &ratings).is_err());
        }
    }

    #[test]
    fn rejects_hostile_ratings_before_any_block_loads() {
        // 65 535 is the largest 16-bit rating code. Each bad rating must
        // fail before any block loads, not train into a NaN or inf RMSE.
        for (bad, want) in [
            (f32::NAN, "non-finite rating NaN "),
            (f32::INFINITY, "non-finite rating inf "),
            (f32::NEG_INFINITY, "non-finite rating -inf "),
            (-3.0, "negative rating -3 "),
            (65_536.0, "unencodable rating 65536 "),
        ] {
            let ratings = BipartiteGraph::from_ratings(
                2,
                2,
                [(0, 0, 4.0), (1, 1, bad)]
                    .into_iter()
                    .map(|(user, item, value)| gaasx_graph::bipartite::Rating { user, item, value })
                    .collect(),
            )
            .unwrap();
            let mut engine = Engine::new(GaasXConfig::small()).unwrap();
            match small_cf().execute(&mut engine, &ratings) {
                Err(CoreError::InvalidInput(msg)) => {
                    assert!(msg.starts_with(want), "{msg}");
                    assert!(msg.contains("of item 1 by user 1;"), "{msg}");
                    assert!(msg.ends_with("of at most 65535, the largest 16-bit rating code"));
                }
                other => panic!("rating {bad}: want InvalidInput, got {other:?}"),
            }
            let report = engine.finish("gaasx", "cf", "t", 0, 2);
            assert_eq!(report.ops.cells_written, 0, "rating {bad}: nothing loaded");
        }
    }

    #[test]
    fn device_dot_matches_host_dot() {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let q = SignedQuantizer::new(2.0, 16).unwrap();
        let a: Vec<f32> = vec![0.5, -0.25, 1.0, 0.0, -1.5, 0.75, 0.1, -0.1, 0.33];
        let b: Vec<f32> = vec![-0.5, 0.25, 0.5, 1.0, 1.5, -0.75, 0.2, 0.4, -0.66];
        let want = dot(&a, &b);
        let got = device_dot(&mut engine, &a, &b, &q).unwrap();
        assert!((got - want).abs() < 1e-3, "{got} vs {want}");
    }

    #[test]
    fn device_weighted_sum_matches_host() {
        let mut engine = Engine::new(GaasXConfig::small()).unwrap();
        let cq = SignedQuantizer::new(8.0, 16).unwrap();
        let vq = SignedQuantizer::new(2.0, 16).unwrap();
        let coeffs = vec![2.0f64, -1.0, 0.5];
        let v1 = vec![0.5f32, -0.5, 1.0, 0.0];
        let v2 = vec![1.0f32, 1.0, -1.0, 0.5];
        let v3 = vec![-0.5f32, 0.25, 0.0, 2.0];
        let vectors: Vec<&Vec<f32>> = vec![&v1, &v2, &v3];
        let got = device_weighted_sum(&mut engine, &coeffs, &vectors, &cq, &vq, 4).unwrap();
        for k in 0..4 {
            let want: f64 = coeffs
                .iter()
                .zip(&vectors)
                .map(|(&c, v)| c * f64::from(v[k]))
                .sum();
            assert!((got[k] - want).abs() < 2e-3, "k={k}: {} vs {want}", got[k]);
        }
    }
}
