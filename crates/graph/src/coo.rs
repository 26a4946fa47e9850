//! Coordinate-list (COO) graph representation.

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::types::{Edge, VertexId, Weight};

/// A directed, weighted graph stored as a coordinate list of edges.
///
/// COO is the *native* on-device representation of GaaS-X: each edge's
/// `(src, dst)` pair occupies one CAM-crossbar row, its weight the matching
/// MAC-crossbar row (paper Fig 7). It is also the on-disk format the paper's
/// shard layout (Fig 2) slices into intervals.
///
/// The struct enforces one invariant: every edge endpoint is within
/// `0..num_vertices`.
///
/// ```
/// use gaasx_graph::{CooGraph, Edge};
///
/// let g = CooGraph::from_edges(4, vec![Edge::new(0, 1, 2.0), Edge::new(2, 3, 1.0)])?;
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), gaasx_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooGraph {
    num_vertices: u32,
    edges: Vec<Edge>,
}

impl CooGraph {
    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: u32) -> Self {
        CooGraph {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a graph from an explicit edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint is
    /// `>= num_vertices`.
    pub fn from_edges(num_vertices: u32, edges: Vec<Edge>) -> Result<Self, GraphError> {
        for e in &edges {
            for v in [e.src, e.dst] {
                if v.raw() >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: v.raw(),
                        num_vertices,
                    });
                }
            }
        }
        Ok(CooGraph {
            num_vertices,
            edges,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns true if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edge list as a slice.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates over the edges.
    pub fn iter(&self) -> std::slice::Iter<'_, Edge> {
        self.edges.iter()
    }

    /// Consumes the graph and returns the raw edge list.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Appends an edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is out of
    /// range.
    pub fn push_edge(&mut self, edge: Edge) -> Result<(), GraphError> {
        for v in [edge.src, edge.dst] {
            if v.raw() >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v.raw(),
                    num_vertices: self.num_vertices,
                });
            }
        }
        self.edges.push(edge);
        Ok(())
    }

    /// Returns the graph with every edge reversed (the transpose).
    ///
    /// Pull-style algorithms (PageRank gather at destinations) run on the
    /// transpose of a push-style edge list.
    pub fn transposed(&self) -> Self {
        CooGraph {
            num_vertices: self.num_vertices,
            edges: self.edges.iter().map(|e| e.reversed()).collect(),
        }
    }

    /// Sorts edges by `(dst, src)`; parallel edges keep their order.
    ///
    /// The paper assumes "edges within a sub-shard are sorted by destination
    /// vertices" (§III-B); this is the whole-graph equivalent, with the
    /// same stable order as each [`Shard`](crate::partition::Shard).
    pub fn sort_by_dst(&mut self) {
        self.edges.sort_by_key(|e| (e.dst.raw(), e.src.raw()));
    }

    /// Sorts edges by `(src, dst)`; parallel edges keep their order.
    pub fn sort_by_src(&mut self) {
        self.edges.sort_by_key(|e| (e.src.raw(), e.dst.raw()));
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.src.index()] += 1;
        }
        deg
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.dst.index()] += 1;
        }
        deg
    }

    /// Total edge weight leaving each vertex.
    pub fn out_weight_sums(&self) -> Vec<Weight> {
        let mut sums = vec![0.0; self.num_vertices as usize];
        for e in &self.edges {
            sums[e.src.index()] += e.weight;
        }
        sums
    }

    /// Returns a copy with self loops removed.
    pub fn without_self_loops(&self) -> Self {
        CooGraph {
            num_vertices: self.num_vertices,
            edges: self
                .edges
                .iter()
                .copied()
                .filter(|e| !e.is_self_loop())
                .collect(),
        }
    }

    /// Returns a copy with duplicate `(src, dst)` pairs removed, keeping the
    /// first occurrence.
    pub fn deduplicated(&self) -> Self {
        let mut edges = self.edges.clone();
        edges.sort_by_key(|e| (e.src.raw(), e.dst.raw()));
        edges.dedup_by_key(|e| (e.src.raw(), e.dst.raw()));
        CooGraph {
            num_vertices: self.num_vertices,
            edges,
        }
    }

    /// Edge density relative to a complete directed graph (`E / V²`).
    pub fn density(&self) -> f64 {
        if self.num_vertices == 0 {
            return 0.0;
        }
        self.edges.len() as f64 / (self.num_vertices as f64 * self.num_vertices as f64)
    }

    /// Returns the undirected closure: for every edge `(u, v)` the edge
    /// `(v, u)` is also present (deduplicated).
    pub fn symmetrized(&self) -> Self {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        edges.extend_from_slice(&self.edges);
        edges.extend(self.edges.iter().map(|e| e.reversed()));
        CooGraph {
            num_vertices: self.num_vertices,
            edges,
        }
        .deduplicated()
    }
}

impl<'a> IntoIterator for &'a CooGraph {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

impl Extend<Edge> for CooGraph {
    /// Extends the edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range; use [`CooGraph::push_edge`]
    /// for fallible insertion.
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        for e in iter {
            // gaasx-lint: allow(panic-in-lib) -- the Extend trait cannot return a Result; the panic contract is documented on the impl
            self.push_edge(e).expect("edge endpoint out of range");
        }
    }
}

impl VertexId {
    /// Iterates all vertex ids of a graph with `n` vertices.
    pub fn all(n: u32) -> impl Iterator<Item = VertexId> {
        (0..n).map(VertexId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CooGraph {
        CooGraph::from_edges(
            4,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(0, 2, 2.0),
                Edge::new(1, 3, 3.0),
                Edge::new(2, 3, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_edges_validates_endpoints() {
        let err = CooGraph::from_edges(2, vec![Edge::new(0, 5, 1.0)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, .. }
        ));
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn transpose_involution() {
        let g = diamond();
        assert_eq!(g.transposed().transposed(), g);
    }

    #[test]
    fn transpose_swaps_degrees() {
        let g = diamond();
        assert_eq!(g.transposed().out_degrees(), g.in_degrees());
    }

    #[test]
    fn sorting_by_dst() {
        let mut g = diamond();
        g.sort_by_dst();
        let dsts: Vec<u32> = g.iter().map(|e| e.dst.raw()).collect();
        assert!(dsts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sorting_keeps_parallel_edges_in_input_order() {
        let g = CooGraph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 3.0),
                Edge::new(2, 1, 9.0),
                Edge::new(0, 1, 1.0),
                Edge::new(0, 1, 2.0),
            ],
        )
        .unwrap();
        let weights = |g: &CooGraph| -> Vec<f32> { g.iter().map(|e| e.weight).collect() };
        let (mut by_dst, mut by_src) = (g.clone(), g);
        by_dst.sort_by_dst();
        by_src.sort_by_src();
        assert_eq!(weights(&by_dst), [3.0, 1.0, 2.0, 9.0]);
        assert_eq!(weights(&by_src), [3.0, 1.0, 2.0, 9.0]);
    }

    #[test]
    fn dedup_removes_parallel_edges() {
        let g = CooGraph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(0, 1, 9.0),
                Edge::new(1, 2, 1.0),
            ],
        )
        .unwrap();
        assert_eq!(g.deduplicated().num_edges(), 2);
    }

    #[test]
    fn self_loop_removal() {
        let g = CooGraph::from_edges(2, vec![Edge::new(0, 0, 1.0), Edge::new(0, 1, 1.0)]).unwrap();
        assert_eq!(g.without_self_loops().num_edges(), 1);
    }

    #[test]
    fn symmetrize_doubles_asymmetric_edges() {
        let g = diamond();
        let s = g.symmetrized();
        assert_eq!(s.num_edges(), 8);
        // Symmetrizing twice changes nothing further.
        assert_eq!(s.symmetrized().num_edges(), 8);
    }

    #[test]
    fn density_of_diamond() {
        let g = diamond();
        assert!((g.density() - 4.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn push_edge_validates() {
        let mut g = CooGraph::empty(2);
        assert!(g.push_edge(Edge::new(0, 1, 1.0)).is_ok());
        assert!(g.push_edge(Edge::new(0, 2, 1.0)).is_err());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn out_weight_sums_accumulate() {
        let g = diamond();
        let sums = g.out_weight_sums();
        assert_eq!(sums, vec![3.0, 3.0, 4.0, 0.0]);
    }
}
