//! Graph neural network inference on GaaS-X — the paper's deferred
//! "emerging algorithms" mapping (§V-B) made concrete: a two-layer GCN
//! classifying vertices of a community-structured graph.
//!
//! ```sh
//! cargo run --release --example gnn_inference
//! ```

#![allow(clippy::unwrap_used)]
use gaasx::core::algorithms::{GcnInput, GcnLayer};
use gaasx::core::{GaasX, GaasXConfig};
use gaasx::graph::generators::{localize, rmat, LocalityConfig, RmatConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A community-structured graph: two-hop neighborhoods are informative.
    let raw = rmat(&RmatConfig::new(1 << 9, 4_000).with_seed(17))?;
    let graph = localize(&raw, &LocalityConfig::new(0.7))?;
    let n = graph.num_vertices();
    println!("graph: {} vertices, {} edges", n, graph.num_edges());

    // Input features: an 8-dim one-hot-ish signal derived from the vertex's
    // community window (what a real pipeline would get from embeddings).
    let f_in = 8;
    let mut rng = SmallRng::seed_from_u64(3);
    let features: Vec<Vec<f32>> = (0..n)
        .map(|v| {
            let mut f = vec![0.0f32; f_in];
            f[(v as usize / 256) % f_in] = 1.0;
            f.iter_mut().for_each(|x| *x += rng.gen_range(0.0f32..0.1));
            f
        })
        .collect();

    // Random (untrained) weights — this example demonstrates the *mapping*
    // and its cost profile, not a training pipeline.
    let mut w = |fi: usize, fo: usize| -> Vec<Vec<f32>> {
        (0..fi)
            .map(|_| (0..fo).map(|_| rng.gen_range(-0.5..0.5)).collect())
            .collect()
    };
    let layer1 = GcnLayer::new(w(f_in, 16));
    let mut layer2 = GcnLayer::new(w(16, 4));
    layer2.relu = false; // final linear logits

    let mut accel = GaasX::new(GaasXConfig::paper());

    let input1 = GcnInput {
        graph: graph.clone(),
        features,
    };
    let hidden = accel.run_labeled(&layer1, &input1, "gcn-l1")?;
    println!(
        "layer 1 (8→16): {:.2} µs, {:.2} µJ, {} MAC bursts",
        hidden.report.elapsed_ns.ns() / 1e3,
        hidden.report.energy.total_nj().nj() / 1e3,
        hidden.report.ops.mac_ops,
    );

    let input2 = GcnInput {
        graph,
        features: hidden
            .result
            .iter()
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect(),
    };
    let logits = accel.run_labeled(&layer2, &input2, "gcn-l2")?;
    println!(
        "layer 2 (16→4): {:.2} µs, {:.2} µJ",
        logits.report.elapsed_ns.ns() / 1e3,
        logits.report.energy.total_nj().nj() / 1e3,
    );

    // Argmax classification summary.
    let mut class_counts = [0usize; 4];
    for row in &logits.result {
        let c = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        class_counts[c] += 1;
    }
    println!("predicted class distribution: {class_counts:?}");
    Ok(())
}
