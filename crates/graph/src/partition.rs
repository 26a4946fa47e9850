//! GridGraph-style 2-D grid partitioning into sub-shards.
//!
//! The paper (§II-B, Fig 2) partitions the vertex set into disjoint fixed
//! size intervals; the edges between a pair of intervals form a *sub-shard*
//! stored contiguously. GaaS-X streams shards in row-major (by source
//! interval) or column-major (by destination interval) order depending on
//! the algorithm, and assumes edges within a shard are sorted by destination
//! (§III-B).

use serde::{Deserialize, Serialize};

use crate::coo::CooGraph;
use crate::error::GraphError;
use crate::types::{Edge, VertexId};

/// A half-open vertex interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    start: u32,
    end: u32,
}

impl Interval {
    /// Creates the interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "interval start {start} > end {end}");
        Interval { start, end }
    }

    /// First vertex in the interval.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One past the last vertex.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Number of vertices covered.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the interval covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `v` falls inside the interval.
    pub fn contains(&self, v: VertexId) -> bool {
        (self.start..self.end).contains(&v.raw())
    }

    /// Iterates the vertices of the interval.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (self.start..self.end).map(VertexId::new)
    }
}

/// The edges between one source interval and one destination interval,
/// sorted by `(dst, src)` as the paper's execution model assumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Shard {
    src_interval: Interval,
    dst_interval: Interval,
    edges: Vec<Edge>,
}

impl Shard {
    /// Source vertex interval of the shard.
    pub fn src_interval(&self) -> Interval {
        self.src_interval
    }

    /// Destination vertex interval of the shard.
    pub fn dst_interval(&self) -> Interval {
        self.dst_interval
    }

    /// The shard's edges, sorted by `(dst, src)`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges in the shard.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the shard holds no edges (a "zero-edge sub-block").
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Fraction of the `|src| × |dst|` adjacency block that is populated,
    /// counting distinct cells (parallel edges share a cell).
    pub fn density(&self) -> f64 {
        let cells = self.src_interval.len() as f64 * self.dst_interval.len() as f64;
        if cells == 0.0 {
            return 0.0;
        }
        let mut pairs: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|e| (e.src.raw(), e.dst.raw()))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len() as f64 / cells
    }
}

/// Shard streaming order (paper §III-B: "shards are loaded in the increasing
/// order of either source interval (row-wise) or destination interval
/// (column-wise) depending on the suitability for the algorithm").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TraversalOrder {
    /// Outer loop over source intervals (push-style traversal: SSSP, BFS).
    RowMajor,
    /// Outer loop over destination intervals (pull-style gather: PageRank).
    #[default]
    ColumnMajor,
}

/// A `P × P` grid of sub-shards over fixed-size vertex intervals.
///
/// ```
/// use gaasx_graph::generators::paper_fig2_graph;
/// use gaasx_graph::partition::GridPartition;
///
/// // The paper's Fig 2 example: 6 vertices, interval size 2 -> 3×3 grid.
/// let grid = GridPartition::new(&paper_fig2_graph(), 2)?;
/// assert_eq!(grid.num_intervals(), 3);
/// assert_eq!(grid.total_edges(), 10);
/// # Ok::<(), gaasx_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPartition {
    num_vertices: u32,
    interval_size: u32,
    num_intervals: u32,
    /// Non-empty shards only, sorted by `(row, col)`. Sparse storage: a
    /// full-scale graph at 16-wide tiles has `P² ≈ 10¹⁰` cells but at most
    /// `E` occupied ones.
    occupied: Vec<((u32, u32), Shard)>,
}

impl GridPartition {
    /// Partitions `graph` into a grid with the given vertex `interval_size`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `interval_size` is zero or
    /// the graph has no vertices.
    pub fn new(graph: &CooGraph, interval_size: u32) -> Result<Self, GraphError> {
        if interval_size == 0 {
            return Err(GraphError::InvalidParameter(
                "grid partition: interval_size must be positive".into(),
            ));
        }
        if graph.num_vertices() == 0 {
            return Err(GraphError::InvalidParameter(
                "grid partition: graph has no vertices".into(),
            ));
        }
        let n = graph.num_vertices();
        let p = n.div_ceil(interval_size);
        let interval = |i: u32| Interval::new(i * interval_size, interval_end(i, interval_size, n));

        // Sort edges by (row, col, dst, src) and slice into shards: memory
        // stays O(E) regardless of P (a full-scale graph at 16-wide tiles
        // would have ~10¹⁰ grid cells, almost all empty). The four fields
        // pack into one `u128` whose order is the tuple's, so a comparison
        // is two word compares instead of a four-way lexicographic one.
        let block = |v: VertexId| v.raw() / interval_size;
        let mut edges: Vec<Edge> = graph.edges().to_vec();
        edges.sort_unstable_by_key(|e| {
            (u128::from(block(e.src)) << 96)
                | (u128::from(block(e.dst)) << 64)
                | (u128::from(e.dst.raw()) << 32)
                | u128::from(e.src.raw())
        });
        let mut occupied: Vec<((u32, u32), Shard)> = Vec::new();
        let mut start = 0usize;
        while start < edges.len() {
            let key = (block(edges[start].src), block(edges[start].dst));
            let mut end = start + 1;
            while end < edges.len() && (block(edges[end].src), block(edges[end].dst)) == key {
                end += 1;
            }
            occupied.push((
                key,
                Shard {
                    src_interval: interval(key.0),
                    dst_interval: interval(key.1),
                    edges: edges[start..end].to_vec(),
                },
            ));
            start = end;
        }
        Ok(GridPartition {
            num_vertices: n,
            interval_size,
            num_intervals: p,
            occupied,
        })
    }

    /// Partitions into approximately `num_intervals` intervals, deriving the
    /// interval size.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `num_intervals` is zero or
    /// the graph has no vertices.
    pub fn with_num_intervals(graph: &CooGraph, num_intervals: u32) -> Result<Self, GraphError> {
        if num_intervals == 0 {
            return Err(GraphError::InvalidParameter(
                "grid partition: num_intervals must be positive".into(),
            ));
        }
        let size = graph.num_vertices().div_ceil(num_intervals).max(1);
        GridPartition::new(graph, size)
    }

    /// Number of intervals (and grid side length) `P`.
    pub fn num_intervals(&self) -> u32 {
        self.num_intervals
    }

    /// Configured interval size.
    pub fn interval_size(&self) -> u32 {
        self.interval_size
    }

    /// Number of vertices in the underlying graph.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// The `i`-th vertex interval.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_intervals`.
    pub fn interval(&self, i: u32) -> Interval {
        assert!(i < self.num_intervals, "interval {i} out of range");
        Interval::new(
            i * self.interval_size,
            interval_end(i, self.interval_size, self.num_vertices),
        )
    }

    /// The shard for `(source interval row, destination interval col)`, or
    /// `None` if that grid cell holds no edges (storage is sparse).
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= num_intervals`.
    pub fn shard(&self, row: u32, col: u32) -> Option<&Shard> {
        assert!(
            row < self.num_intervals && col < self.num_intervals,
            "shard ({row}, {col}) out of range for {}×{} grid",
            self.num_intervals,
            self.num_intervals
        );
        self.occupied
            .binary_search_by_key(&(row, col), |&(k, _)| k)
            .ok()
            .map(|i| &self.occupied[i].1)
    }

    /// Iterates the non-empty shards in row-major order.
    pub fn shards(&self) -> impl Iterator<Item = &Shard> + '_ {
        self.occupied.iter().map(|(_, s)| s)
    }

    /// Iterates non-empty shards with their `(row, col)` coordinates, in
    /// row-major order.
    pub fn shards_with_coords(&self) -> impl Iterator<Item = ((u32, u32), &Shard)> + '_ {
        self.occupied.iter().map(|(k, s)| (*k, s))
    }

    /// Iterates non-empty shards in the given streaming order.
    pub fn stream(&self, order: TraversalOrder) -> impl Iterator<Item = &Shard> + '_ {
        self.stream_indexed(order).map(|(_, s)| s)
    }

    /// Iterates non-empty shards in the given streaming order, paired with
    /// their canonical stream position `0..num_nonempty_shards()`. The
    /// position is what a parallel executor keys on to reassemble
    /// out-of-order per-shard results into the serial stream order.
    pub fn stream_indexed(
        &self,
        order: TraversalOrder,
    ) -> impl Iterator<Item = (usize, &Shard)> + '_ {
        let mut idx: Vec<usize> = (0..self.occupied.len()).collect();
        if order == TraversalOrder::ColumnMajor {
            idx.sort_by_key(|&i| {
                let ((r, c), _) = self.occupied[i];
                (c, r)
            });
        }
        idx.into_iter()
            .enumerate()
            .map(move |(pos, i)| (pos, &self.occupied[i].1))
    }

    /// Number of non-empty shards.
    pub fn num_nonempty_shards(&self) -> usize {
        self.occupied.len()
    }

    /// Total edges across all shards (equals the source graph's edge count).
    pub fn total_edges(&self) -> usize {
        self.occupied.iter().map(|(_, s)| s.num_edges()).sum()
    }
}

/// One past the last vertex of interval `i`. The unclamped end of the
/// last interval can pass `u32::MAX` when ids reach the top of the range,
/// so the product saturates before the clamp to `num_vertices`.
fn interval_end(i: u32, interval_size: u32, num_vertices: u32) -> u32 {
    (i + 1).saturating_mul(interval_size).min(num_vertices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn fig2_layout() {
        let grid = GridPartition::new(&generators::paper_fig2_graph(), 2).unwrap();
        assert_eq!(grid.num_intervals(), 3);
        assert_eq!(grid.total_edges(), 10);
        // Fig 2(b): shard (interval 1-2 source, interval 1-2 dest) holds
        // edges 1->2 only (0-based: 0->1).
        let s = grid.shard(0, 0).expect("occupied");
        assert_eq!(s.num_edges(), 1);
        assert_eq!(s.edges()[0], Edge::unweighted(0, 1));
        // Shard (3-4 source, 1-2 dest) holds 3->2 and 4->2.
        let s = grid.shard(1, 0).expect("occupied");
        assert_eq!(s.num_edges(), 2);
    }

    #[test]
    fn edges_partition_exactly() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 1000).with_seed(4)).unwrap();
        let grid = GridPartition::new(&g, 16).unwrap();
        assert_eq!(grid.total_edges(), g.num_edges());
        for shard in grid.shards() {
            for e in shard.edges() {
                assert!(shard.src_interval().contains(e.src));
                assert!(shard.dst_interval().contains(e.dst));
            }
        }
    }

    #[test]
    fn shard_edges_sorted_by_dst() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 1000).with_seed(9)).unwrap();
        let grid = GridPartition::new(&g, 32).unwrap();
        for shard in grid.shards() {
            let keys: Vec<(u32, u32)> = shard
                .edges()
                .iter()
                .map(|e| (e.dst.raw(), e.src.raw()))
                .collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn uneven_tail_interval() {
        let g = generators::path_graph(10);
        let grid = GridPartition::new(&g, 4).unwrap();
        assert_eq!(grid.num_intervals(), 3);
        assert_eq!(grid.interval(2).len(), 2);
    }

    #[test]
    fn stream_orders_cover_same_shards() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(2)).unwrap();
        let grid = GridPartition::new(&g, 8).unwrap();
        let row: usize = grid
            .stream(TraversalOrder::RowMajor)
            .map(Shard::num_edges)
            .sum();
        let col: usize = grid
            .stream(TraversalOrder::ColumnMajor)
            .map(Shard::num_edges)
            .sum();
        assert_eq!(row, g.num_edges());
        assert_eq!(col, g.num_edges());
    }

    #[test]
    fn stream_indexed_positions_match_stream_order() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(5)).unwrap();
        let grid = GridPartition::new(&g, 8).unwrap();
        for order in [TraversalOrder::RowMajor, TraversalOrder::ColumnMajor] {
            let plain: Vec<&Shard> = grid.stream(order).collect();
            for (pos, shard) in grid.stream_indexed(order) {
                assert!(std::ptr::eq(plain[pos], shard), "position {pos} diverges");
            }
        }
    }

    #[test]
    fn column_major_streams_by_destination() {
        let grid = GridPartition::new(&generators::paper_fig2_graph(), 2).unwrap();
        let cols: Vec<u32> = grid
            .stream(TraversalOrder::ColumnMajor)
            .map(|s| s.dst_interval().start())
            .collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn density_counts_distinct_cells() {
        let g = CooGraph::from_edges(
            4,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(0, 1, 2.0), // duplicate cell
                Edge::new(1, 0, 1.0),
            ],
        )
        .unwrap();
        let grid = GridPartition::new(&g, 4).unwrap();
        let s = grid.shard(0, 0).expect("occupied");
        assert!((s.density() - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let g = generators::path_graph(4);
        assert!(GridPartition::new(&g, 0).is_err());
        assert!(GridPartition::with_num_intervals(&g, 0).is_err());
        assert!(GridPartition::new(&CooGraph::empty(0), 2).is_err());
    }

    use crate::types::Edge;

    /// One shard's edges as `(src, dst, weight bits)`.
    type ShardEdges = Vec<(u32, u32, u32)>;

    fn triple(e: &Edge) -> (u32, u32, u32) {
        (e.src.raw(), e.dst.raw(), e.weight.to_bits())
    }

    /// Oracle: the `(row, col, dst, src)` tuple-key sort the partition used
    /// before its packed key, sliced by grid cell.
    fn tuple_sorted_shards(graph: &CooGraph, interval_size: u32) -> Vec<ShardEdges> {
        let block = |v: VertexId| v.raw() / interval_size;
        let mut edges = graph.edges().to_vec();
        edges.sort_unstable_by_key(|e| (block(e.src), block(e.dst), e.dst.raw(), e.src.raw()));
        let mut shards: Vec<ShardEdges> = Vec::new();
        let mut last = None;
        for e in &edges {
            let cell = Some((block(e.src), block(e.dst)));
            if cell != last {
                shards.push(Vec::new());
                last = cell;
            }
            if let Some(shard) = shards.last_mut() {
                shard.push(triple(e));
            }
        }
        shards
    }

    /// The same edges with every id moved to just below `u32::MAX`.
    fn near_u32_max(graph: &CooGraph) -> CooGraph {
        let base = u32::MAX - graph.num_vertices() - 1;
        let edges = graph
            .edges()
            .iter()
            .map(|e| Edge::new(base + e.src.raw(), base + e.dst.raw(), e.weight))
            .collect();
        CooGraph::from_edges(u32::MAX, edges).unwrap()
    }

    #[test]
    fn intervals_reach_the_top_of_the_id_range() {
        let g = near_u32_max(&generators::path_graph(8));
        for size in [1000, u32::MAX / 2 + 1] {
            let grid = GridPartition::new(&g, size).unwrap();
            let last = grid.interval(grid.num_intervals() - 1);
            assert_eq!(last.end(), u32::MAX, "size {size}");
            assert_eq!(grid.total_edges(), 7);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The packed key orders every shard exactly as the tuple key did,
        /// parallel edges with different weights included: RMAT over a few
        /// vertices repeats most edges, and that order feeds SSSP's
        /// attribute-write counts and its fault interactions.
        #[test]
        fn packed_key_keeps_the_tuple_key_order(
            log_v in 2u32..6,
            num_edges in 200usize..2500,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let g = generators::rmat(
                &generators::RmatConfig::new(1 << log_v, num_edges)
                    .with_seed(seed)
                    .with_max_weight(16),
            )
            .unwrap();
            for graph in [near_u32_max(&g), g] {
                for size in [1, 3, 7, 16, 1000, graph.num_vertices()] {
                    let grid = GridPartition::new(&graph, size).unwrap();
                    let got: Vec<ShardEdges> = grid
                        .shards()
                        .map(|s| s.edges().iter().map(triple).collect())
                        .collect();
                    proptest::prop_assert_eq!(got, tuple_sorted_shards(&graph, size));
                }
            }
        }
    }
}
