//! Experiment harness regenerating every table and figure of the GaaS-X
//! paper.
//!
//! The functions in [`experiments`] render each table and figure; the
//! `experiments` binary in `src/bin/experiments/` maps a name (`table1`,
//! `fig11`, `fault_campaign`, …) to one of them or to a self-checking
//! report, and with no names regenerates every `results/*.md` section.
//!
//! ## Scaling
//!
//! The paper's largest graphs (LiveJournal 69 M, Orkut 106 M edges) are
//! impractical to simulate per-edge on a laptop at full size, so each
//! dataset is instantiated at `scale = min(1, cap / full_edges)`. The cap
//! defaults to [`DEFAULT_CAP_EDGES`] and is raised with the binary's
//! `--cap` flag (`--cap 200000000` for full-scale runs). Average degree —
//! and therefore tile density, the property every measured ratio depends
//! on — is preserved under this scaling.

#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod experiments;
pub mod trace;

use gaasx_graph::bipartite::BipartiteGraph;
use gaasx_graph::datasets::PaperDataset;
use gaasx_graph::{CooGraph, GraphError, VertexId};

/// Default per-dataset edge cap for scaled instantiation.
pub const DEFAULT_CAP_EDGES: usize = 300_000;

/// Default PageRank iteration count across experiments.
pub const DEFAULT_PR_ITERS: u32 = 10;

/// The scale factor that keeps `dataset` at or under `cap` edges.
pub fn scale_for(dataset: PaperDataset, cap: usize) -> f64 {
    (cap as f64 / dataset.full_edges() as f64).min(1.0)
}

/// Instantiates a graph dataset at the capped scale.
///
/// # Errors
///
/// Propagates generator errors (and rejects the bipartite Netflix set).
pub fn load_graph(dataset: PaperDataset, cap: usize) -> Result<CooGraph, GraphError> {
    dataset.instantiate_graph(scale_for(dataset, cap))
}

/// Instantiates the Netflix rating set at the capped scale.
///
/// # Errors
///
/// Propagates generator errors.
pub fn load_ratings(cap: usize) -> Result<BipartiteGraph, GraphError> {
    PaperDataset::Netflix.instantiate_ratings(scale_for(PaperDataset::Netflix, cap))
}

/// Parallel compute units for a dataset scaled to `cap` edges.
///
/// The paper gives both GaaS-X and GraphR 2048 parallel units. A scaled
/// dataset with the full 2048 units would never fill them (the whole graph
/// fits in one wave), hiding precisely the utilization regime the paper
/// measures. Scaling the unit count by the *same* factor as the dataset —
/// for both engines equally — preserves the full-scale waves-per-run
/// structure while keeping simulations tractable. At `scale = 1` this is
/// exactly the paper's 2048.
pub fn scaled_units(dataset: PaperDataset, cap: usize) -> usize {
    ((2048.0 * scale_for(dataset, cap)).round() as usize).clamp(4, 2048)
}

/// Source vertex for traversal experiments: the highest-out-degree vertex,
/// which in a scale-free graph reaches most of the component.
pub fn traversal_source(graph: &CooGraph) -> VertexId {
    let deg = graph.out_degrees();
    let v = deg
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .map_or(0, |(i, _)| i as u32);
    VertexId::new(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_respects_cap() {
        let s = scale_for(PaperDataset::Orkut, 100_000);
        assert!((PaperDataset::Orkut.full_edges() as f64 * s - 100_000.0).abs() < 1.0);
        assert_eq!(scale_for(PaperDataset::WikiVote, 10_000_000), 1.0);
    }

    #[test]
    fn load_graph_honors_cap() {
        let g = load_graph(PaperDataset::Slashdot, 20_000).unwrap();
        assert!(g.num_edges() <= 20_001);
    }

    #[test]
    fn traversal_source_is_a_hub() {
        let g = load_graph(PaperDataset::WikiVote, 20_000).unwrap();
        let src = traversal_source(&g);
        let deg = g.out_degrees();
        assert_eq!(deg[src.index()], *deg.iter().max().unwrap());
    }
}
