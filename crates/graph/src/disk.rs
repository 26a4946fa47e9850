//! Disk-backed shard storage — the paper's Fig 2 on-disk layout made
//! concrete.
//!
//! "The goal of single system disk based graph processing is to partition
//! the graph data into grids or sub-shards in such a way that random
//! accesses to the disk are minimized ... The edges corresponding to a pair
//! of intervals form a sub-shard or a grid and will be stored in a
//! contiguous manner" (§II-B). This module persists a [`GridPartition`] as
//! one binary file per non-empty sub-shard plus a manifest, and streams
//! shards back in row- or column-major order with strictly sequential
//! reads — the access pattern GaaS-X's controller assumes.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::coo::CooGraph;
use crate::error::GraphError;
use crate::io::{from_binary, to_binary};
use crate::partition::{GridPartition, TraversalOrder};

const MANIFEST: &str = "manifest.txt";

/// A grid of sub-shards persisted to a directory.
#[derive(Debug, Clone)]
pub struct ShardStore {
    root: PathBuf,
    num_vertices: u32,
    interval_size: u32,
    num_intervals: u32,
    /// `(row, col)` coordinates of non-empty shards, row-major order.
    occupied: Vec<(u32, u32)>,
}

impl ShardStore {
    /// Persists `grid` under `root` (created if missing): one
    /// `shard_R_C.bin` per non-empty sub-shard plus a manifest.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(grid: &GridPartition, root: impl AsRef<Path>) -> Result<Self, GraphError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let mut occupied = Vec::new();
        for ((row, col), shard) in grid.shards_with_coords() {
            let coo = CooGraph::from_edges(grid.num_vertices(), shard.edges().to_vec())?;
            fs::write(shard_path(&root, row, col), to_binary(&coo))?;
            occupied.push((row, col));
        }
        let mut manifest = BufWriter::new(File::create(root.join(MANIFEST))?);
        writeln!(
            manifest,
            "{} {} {}",
            grid.num_vertices(),
            grid.interval_size(),
            grid.num_intervals()
        )?;
        for &(r, c) in &occupied {
            writeln!(manifest, "{r} {c}")?;
        }
        manifest.flush()?;
        Ok(ShardStore {
            root,
            num_vertices: grid.num_vertices(),
            interval_size: grid.interval_size(),
            num_intervals: grid.num_intervals(),
            occupied,
        })
    }

    /// Opens an existing store by reading its manifest.
    ///
    /// # Errors
    ///
    /// Returns a parse error for a malformed manifest or I/O errors.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, GraphError> {
        let root = root.as_ref().to_path_buf();
        let text = fs::read_to_string(root.join(MANIFEST))?;
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| GraphError::Parse {
            line: 1,
            message: "empty manifest".into(),
        })?;
        let mut parts = header.split_whitespace();
        let mut field = |what: &str| -> Result<u32, GraphError> {
            parts
                .next()
                .ok_or_else(|| GraphError::Parse {
                    line: 1,
                    message: format!("missing {what}"),
                })?
                .parse()
                .map_err(|e| GraphError::Parse {
                    line: 1,
                    message: format!("bad {what}: {e}"),
                })
        };
        let num_vertices = field("vertex count")?;
        let interval_size = field("interval size")?;
        let num_intervals = field("interval count")?;
        let mut occupied = Vec::new();
        for (idx, line) in lines {
            let mut parts = line.split_whitespace();
            let parse = |tok: Option<&str>| -> Result<u32, GraphError> {
                tok.ok_or_else(|| GraphError::Parse {
                    line: idx + 1,
                    message: "missing shard coordinate".into(),
                })?
                .parse()
                .map_err(|e| GraphError::Parse {
                    line: idx + 1,
                    message: format!("bad shard coordinate: {e}"),
                })
            };
            occupied.push((parse(parts.next())?, parse(parts.next())?));
        }
        Ok(ShardStore {
            root,
            num_vertices,
            interval_size,
            num_intervals,
            occupied,
        })
    }

    /// Vertex count of the stored graph.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Interval size of the grid.
    pub fn interval_size(&self) -> u32 {
        self.interval_size
    }

    /// Number of intervals per grid side.
    pub fn num_intervals(&self) -> u32 {
        self.num_intervals
    }

    /// Number of non-empty shards on disk.
    pub fn num_shards(&self) -> usize {
        self.occupied.len()
    }

    /// Loads one shard's edges.
    ///
    /// # Errors
    ///
    /// Returns I/O or format errors; a missing shard file is an I/O error.
    pub fn load_shard(&self, row: u32, col: u32) -> Result<CooGraph, GraphError> {
        from_binary(&fs::read(shard_path(&self.root, row, col))?)
    }

    /// Streams all shards in the given order, yielding
    /// `((row, col), edges)` — the sequential-access pattern of §III-B.
    pub fn stream(
        &self,
        order: TraversalOrder,
    ) -> impl Iterator<Item = Result<((u32, u32), CooGraph), GraphError>> + '_ {
        let mut coords = self.occupied.clone();
        if order == TraversalOrder::ColumnMajor {
            coords.sort_by_key(|&(r, c)| (c, r));
        }
        coords
            .into_iter()
            .map(move |(r, c)| self.load_shard(r, c).map(|g| ((r, c), g)))
    }

    /// Reassembles the full graph from disk.
    ///
    /// # Errors
    ///
    /// Propagates shard-load errors.
    pub fn reassemble(&self) -> Result<CooGraph, GraphError> {
        let mut graph = CooGraph::empty(self.num_vertices);
        for item in self.stream(TraversalOrder::RowMajor) {
            let (_, shard) = item?;
            for e in shard.iter() {
                graph.push_edge(*e)?;
            }
        }
        Ok(graph)
    }
}

fn shard_path(root: &Path, row: u32, col: u32) -> PathBuf {
    root.join(format!("shard_{row}_{col}.bin"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gaasx-shardstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_open_stream_roundtrip() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 600).with_seed(3)).unwrap();
        let grid = GridPartition::with_num_intervals(&g, 4).unwrap();
        let dir = temp_dir("roundtrip");
        let saved = ShardStore::save(&grid, &dir).unwrap();
        assert_eq!(saved.num_shards(), grid.num_nonempty_shards());

        let opened = ShardStore::open(&dir).unwrap();
        assert_eq!(opened.num_vertices(), g.num_vertices());
        assert_eq!(opened.num_shards(), saved.num_shards());

        // Reassembled graph carries exactly the original edge multiset.
        let back = opened.reassemble().unwrap();
        let key = |e: &crate::Edge| (e.src.raw(), e.dst.raw(), e.weight.to_bits());
        let mut a: Vec<_> = g.edges().iter().map(key).collect();
        let mut b: Vec<_> = back.edges().iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn column_major_stream_orders_by_destination_interval() {
        let g = generators::paper_fig2_graph();
        let grid = GridPartition::new(&g, 2).unwrap();
        let dir = temp_dir("colmajor");
        let store = ShardStore::save(&grid, &dir).unwrap();
        let cols: Vec<u32> = store
            .stream(TraversalOrder::ColumnMajor)
            .map(|r| r.unwrap().0 .1)
            .collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_shards_are_not_stored() {
        let g = generators::path_graph(8); // diagonal band only
        let grid = GridPartition::new(&g, 2).unwrap();
        let dir = temp_dir("sparse");
        let store = ShardStore::save(&grid, &dir).unwrap();
        assert!(store.num_shards() < 16);
        assert!(store.load_shard(3, 0).is_err(), "empty shard has no file");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_corrupt_manifest() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST), "not numbers at all\n").unwrap();
        assert!(ShardStore::open(&dir).is_err());
        fs::write(dir.join(MANIFEST), "").unwrap();
        assert!(ShardStore::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
