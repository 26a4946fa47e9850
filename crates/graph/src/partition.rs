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

    /// The shard's edges, sorted by `(dst, src)`. Parallel edges (equal
    /// `(src, dst)`) keep their order in the input graph, so an algorithm
    /// that reads weights sees them in a reproducible order.
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
    /// Each shard's edges are sorted by `(dst, src)`, and parallel edges
    /// keep their input order. The sort is a stable radix sort: time and
    /// memory are linear in the edge count for any interval count.
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

        // Sort edges by (row, col, dst, src) and copy each grid cell's run
        // into its shard. Memory stays O(E) regardless of P (a full-scale
        // graph at 16-wide tiles would have ~10¹⁰ grid cells, almost all
        // empty): the radix sort counts digit values, never intervals or
        // cells. Within a cell the offsets from the interval starts order
        // edges as the ids do, so the key packs two interval indices and
        // two offsets instead of two full ids.
        let edges = graph.edges();
        let block = |v: VertexId| v.raw() / interval_size;
        let block_bits = bit_width(p - 1);
        let offset_bits = bit_width(interval_size - 1);
        let key = |i: usize| {
            let e = &edges[i];
            let (row, col) = (block(e.src), block(e.dst));
            let cell = u128::from(row) << block_bits | u128::from(col);
            let dst = u128::from(e.dst.raw() - col * interval_size);
            let src = u128::from(e.src.raw() - row * interval_size);
            (cell << offset_bits | dst) << offset_bits | src
        };
        let order = stable_radix_order(edges.len(), 2 * (block_bits + offset_bits), key);
        let mut occupied: Vec<((u32, u32), Shard)> = Vec::new();
        let mut start = 0usize;
        while let Some(&first) = order.get(start) {
            let cell = (block(edges[first].src), block(edges[first].dst));
            let (src_interval, dst_interval) = (interval(cell.0), interval(cell.1));
            let in_cell = |&i: &usize| {
                src_interval.contains(edges[i].src) && dst_interval.contains(edges[i].dst)
            };
            let len = order[start..].iter().take_while(|i| in_cell(i)).count();
            occupied.push((
                cell,
                Shard {
                    src_interval,
                    dst_interval,
                    edges: order[start..start + len]
                        .iter()
                        .map(|&i| edges[i])
                        .collect(),
                },
            ));
            start += len;
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
    ///
    /// Row-major order is the storage order, so it walks the shards in
    /// place and allocates nothing; column-major order sorts an index of
    /// the shards once per call.
    pub fn stream_indexed(
        &self,
        order: TraversalOrder,
    ) -> impl Iterator<Item = (usize, &Shard)> + '_ {
        let column_major = (order == TraversalOrder::ColumnMajor).then(|| {
            let mut idx: Vec<usize> = (0..self.occupied.len()).collect();
            idx.sort_by_key(|&i| {
                let ((r, c), _) = self.occupied[i];
                (c, r)
            });
            idx
        });
        (0..self.occupied.len()).map(move |pos| {
            let i = column_major.as_ref().map_or(pos, |idx| idx[pos]);
            (pos, &self.occupied[i].1)
        })
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

/// Bits per radix digit: a 30-bit key takes three passes.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;

/// Bits needed to write `x`.
fn bit_width(x: u32) -> u32 {
    u32::BITS - x.leading_zeros()
}

/// The positions `0..len` in stable ascending order of `key(i)`, a key of
/// at most `key_bits` bits: an LSD radix sort, so equal keys keep their
/// input order.
///
/// Each element is one word: the position in its low bits and as much of
/// the key as fits above it. A wider key is sorted in chunks from the
/// least significant up, each chunk read again through the positions,
/// and stability carries the order of the chunks below. A digit on which
/// every element agrees costs no pass. Memory is two words per element
/// plus one counter per digit value, whatever the key's range.
fn stable_radix_order(len: usize, key_bits: u32, key: impl Fn(usize) -> u128) -> Vec<usize> {
    let index_bits = usize::BITS - len.saturating_sub(1).leading_zeros();
    let index_mask = (1usize << index_bits) - 1;
    // `len <= isize::MAX`, so at least one bit is left for the key.
    let chunk_bits = usize::BITS - index_bits;
    let digit = |e: usize, d: u32| (e >> (index_bits + d * RADIX_BITS)) & (RADIX - 1);
    let mut order: Vec<usize> = (0..len).collect();
    let mut scratch = vec![0usize; len];
    let mut lo = 0;
    while lo < key_bits {
        let width = chunk_bits.min(key_bits - lo);
        let chunk_mask = usize::MAX >> (usize::BITS - width);
        let mut counts = vec![[0usize; RADIX]; width.div_ceil(RADIX_BITS) as usize];
        for e in &mut order {
            let i = *e & index_mask;
            *e = ((key(i) >> lo) as usize & chunk_mask) << index_bits | i;
            for (d, c) in (0..).zip(counts.iter_mut()) {
                c[digit(*e, d)] += 1;
            }
        }
        for (d, c) in (0..).zip(counts.iter_mut()) {
            if c.contains(&len) {
                continue;
            }
            let mut next = 0;
            for slot in c.iter_mut() {
                next += std::mem::replace(slot, next);
            }
            for &e in &order {
                let slot = &mut c[digit(e, d)];
                scratch[*slot] = e;
                *slot += 1;
            }
            std::mem::swap(&mut order, &mut scratch);
        }
        lo += width;
    }
    for e in &mut order {
        *e &= index_mask;
    }
    order
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

    /// Oracle: a stable comparison sort on the `(row, col, dst, src)`
    /// tuple key, sliced by grid cell.
    fn tuple_sorted_shards(graph: &CooGraph, interval_size: u32) -> Vec<ShardEdges> {
        let block = |v: VertexId| v.raw() / interval_size;
        let mut edges = graph.edges().to_vec();
        edges.sort_by_key(|e| (block(e.src), block(e.dst), e.dst.raw(), e.src.raw()));
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

    /// The same edges with every id moved to just below `u32::MAX`, so
    /// that small intervals pack several vertices, and cells several
    /// distinct edges, at the top of the range.
    fn near_u32_max(graph: &CooGraph) -> CooGraph {
        let base = u32::MAX - graph.num_vertices() - 1;
        let edges = graph
            .edges()
            .iter()
            .map(|e| Edge::new(base + e.src.raw(), base + e.dst.raw(), e.weight))
            .collect();
        CooGraph::from_edges(u32::MAX, edges).unwrap()
    }

    /// The same edges with ids spread evenly over the `u32` range, the
    /// largest just below `u32::MAX`, so that ids, and the sort keys built
    /// from them, differ in their top bits.
    fn spread_to_u32_max(graph: &CooGraph) -> CooGraph {
        let n = graph.num_vertices();
        let stride = u32::MAX / n;
        let id = |v: VertexId| u32::MAX - 1 - (n - 1 - v.raw()) * stride;
        let edges = graph
            .edges()
            .iter()
            .map(|e| Edge::new(id(e.src), id(e.dst), e.weight))
            .collect();
        CooGraph::from_edges(u32::MAX, edges).unwrap()
    }

    fn shard_edges(grid: &GridPartition) -> Vec<ShardEdges> {
        grid.shards()
            .map(|s| s.edges().iter().map(triple).collect())
            .collect()
    }

    /// Interval size 1 gives 2³² − 1 intervals, and size 3 a sort key of
    /// 66 bits: a partitioner that counts per interval or per cell, or
    /// packs the key into 64 bits, fails here.
    #[test]
    fn intervals_reach_the_top_of_the_id_range() {
        let path = generators::path_graph(8);
        for g in [near_u32_max(&path), spread_to_u32_max(&path)] {
            for size in [1, 3, 1000, u32::MAX / 2 + 1] {
                let grid = GridPartition::new(&g, size).unwrap();
                let last = grid.interval(grid.num_intervals() - 1);
                assert_eq!(last.end(), u32::MAX, "size {size}");
                assert_eq!(grid.total_edges(), 7);
                assert_eq!(
                    shard_edges(&grid),
                    tuple_sorted_shards(&g, size),
                    "size {size}"
                );
            }
        }
    }

    #[test]
    fn parallel_edges_keep_their_input_order() {
        let g = CooGraph::from_edges(
            2,
            vec![
                Edge::new(0, 1, 3.0),
                Edge::new(1, 0, 5.0),
                Edge::new(0, 1, 1.0),
                Edge::new(0, 1, 2.0),
            ],
        )
        .unwrap();
        let grid = GridPartition::new(&g, 2).unwrap();
        let weights: Vec<f32> = grid
            .shard(0, 0)
            .expect("occupied")
            .edges()
            .iter()
            .filter(|e| e.src.raw() == 0)
            .map(|e| e.weight)
            .collect();
        assert_eq!(weights, [3.0, 1.0, 2.0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The radix sort orders every shard exactly as a stable sort on
        /// the tuple key does, parallel edges with different weights
        /// included: RMAT over a few vertices repeats most edges, and that
        /// order feeds SSSP's attribute-write counts and its fault
        /// interactions. Near `u32::MAX` small intervals need keys wider
        /// than 64 bits.
        #[test]
        fn radix_sort_matches_a_stable_tuple_sort(
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
            for graph in [near_u32_max(&g), spread_to_u32_max(&g), g] {
                for size in [1, 3, 7, 16, 1000, graph.num_vertices()] {
                    let grid = GridPartition::new(&graph, size).unwrap();
                    proptest::prop_assert_eq!(
                        shard_edges(&grid),
                        tuple_sorted_shards(&graph, size)
                    );
                }
            }
        }
    }
}
