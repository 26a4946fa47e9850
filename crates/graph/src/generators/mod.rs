//! Synthetic graph generators.
//!
//! The paper evaluates on SNAP/KONECT exports (Table II) that are not
//! redistributable here, so the workloads are substituted with generators
//! that reproduce the *structural* property the accelerator exploits:
//! power-law sparsity, i.e. mostly-empty adjacency tiles with a few dense
//! rows. R-MAT ([`RmatConfig`]) is the standard scale-free surrogate; the
//! remaining generators supply controlled structures for tests and examples.

mod classic;
mod erdos_renyi;
mod locality;
mod rmat;

pub use classic::{complete_graph, cycle_graph, grid_graph, path_graph, star_graph};
pub use erdos_renyi::{erdos_renyi, ErdosRenyiConfig};
pub use locality::{localize, LocalityConfig};
pub use rmat::{rmat, RmatConfig};

use crate::coo::CooGraph;
use crate::types::Edge;

/// The 5-vertex, 8-edge weighted example graph from Fig 7(a)/Fig 9(a) of the
/// paper, used throughout its worked examples of CAM search + selective MAC.
///
/// ```
/// let g = gaasx_graph::generators::paper_fig7_graph();
/// assert_eq!(g.num_vertices(), 5);
/// assert_eq!(g.num_edges(), 8);
/// ```
pub fn paper_fig7_graph() -> CooGraph {
    // (src, dest, weight) triples exactly as printed in Fig 7(a); the paper
    // numbers vertices from 1, we shift to 0-based ids.
    let triples = [
        (1, 2, 6.0),
        (3, 2, 5.0),
        (4, 2, 8.0),
        (1, 3, 4.0),
        (5, 3, 6.0),
        (2, 4, 4.0),
        (3, 4, 2.0),
        (5, 4, 7.0),
    ];
    CooGraph::from_edges(
        5,
        triples
            .iter()
            .map(|&(s, d, w)| Edge::new(s - 1, d - 1, w))
            .collect(),
    )
    // gaasx-lint: allow(panic-in-lib) -- hard-coded paper-figure edge table, validated by tests
    .expect("static example graph is valid")
}

/// The 6-vertex example graph from Fig 2(a) of the paper, used to illustrate
/// interval-based shard layout (interval size 2).
pub fn paper_fig2_graph() -> CooGraph {
    let pairs = [
        (1, 2),
        (1, 3),
        (2, 5),
        (3, 2),
        (3, 4),
        (4, 2),
        (4, 6),
        (5, 3),
        (5, 4),
        (6, 5),
    ];
    CooGraph::from_edges(
        6,
        pairs
            .iter()
            .map(|&(s, d)| Edge::unweighted(s - 1, d - 1))
            .collect(),
    )
    // gaasx-lint: allow(panic-in-lib) -- hard-coded paper-figure edge table, validated by tests
    .expect("static example graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_graph_matches_paper() {
        let g = paper_fig7_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 8);
        // Vertex 2 (1-based) has in-degree 3 in the figure.
        assert_eq!(g.in_degrees()[1], 3);
    }

    #[test]
    fn fig2_graph_matches_paper() {
        let g = paper_fig2_graph();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 10);
    }
}
