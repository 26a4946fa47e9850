//! Algorithm mappings onto the GaaS-X engine (paper §IV).
//!
//! Each algorithm decomposes into the paper's two SpMV primitives:
//!
//! * **SpMV-multiply** — parallel aggregation of attributes at a vertex
//!   (PageRank ranks, CF feature products) via CAM-search +
//!   [`Engine::gather_rows`];
//! * **SpMV-add** — parallel updates of neighbor attributes from an active
//!   vertex (SSSP, BFS) via CAM-search + [`Engine::propagate_rows`].
//!
//! [`Engine`]: crate::engine::Engine

mod bfs;
mod cf;
mod components;
mod gcn;
mod pagerank;
pub mod signed;
mod spmv;
mod sssp;

pub use bfs::Bfs;
pub use cf::{CfModel, CollaborativeFiltering};
pub use components::ConnectedComponents;
pub use gcn::{GcnInput, GcnLayer};
pub use pagerank::PageRank;
pub use spmv::SpMV;
pub use sssp::Sssp;

use crate::engine::Engine;
use crate::error::CoreError;
use crate::sharded::ShardRunner;

use gaasx_graph::VertexId;

/// Rejects a source vertex outside a graph of `n` vertices.
fn check_source(source: VertexId, n: usize) -> Result<(), CoreError> {
    if source.index() >= n {
        return Err(CoreError::InvalidInput(format!(
            "source {source} out of range for {n} vertices"
        )));
    }
    Ok(())
}

/// How an algorithm queries the blocks it loads. Descriptive only: the
/// CAM has one host search path, so nothing in the library reads the
/// profile, and it never changes what a run computes or bills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchProfile {
    /// One search per distinct key in the block on every visit — the
    /// dense sweep shape (PageRank, SpMV, GCN and collaborative filtering
    /// gather every distinct destination each iteration).
    #[default]
    OnePerKey,
    /// Searches only an algorithm-maintained active subset of the block's
    /// keys per visit (BFS, SSSP and CC expand frontier sources only).
    Frontier,
}

/// Result of executing an algorithm: its output plus the iteration count
/// the engine ran (supersteps / epochs).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoRun<T> {
    /// Algorithm output (ranks, distances, model, ...).
    pub output: T,
    /// Iterations executed until convergence or the configured cap.
    pub iterations: u32,
}

/// A graph algorithm mappable onto the GaaS-X execution model.
pub trait Algorithm {
    /// Input workload type (directed graph, bipartite ratings, ...).
    type Input: ?Sized;
    /// Output type.
    type Output;

    /// Short lowercase name used in reports ("pagerank", "sssp", ...).
    fn name(&self) -> &'static str;

    /// Number of edges in the input, for throughput reporting.
    fn input_edges(input: &Self::Input) -> u64;

    /// How the algorithm queries the blocks it loads. Dense sweeps (the
    /// default) search every distinct key per visit; frontier traversals
    /// override this to declare their sparse access.
    fn search_profile(&self) -> SearchProfile {
        SearchProfile::OnePerKey
    }

    /// Executes the algorithm on the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on invalid inputs (e.g. an out-of-range source
    /// vertex) or internal device failures.
    fn execute(
        &self,
        engine: &mut Engine,
        input: &Self::Input,
    ) -> Result<AlgoRun<Self::Output>, CoreError>;
}

/// An algorithm whose supersteps decompose into pure per-shard passes
/// (snapshot state in, candidate updates out) plus a sequential reduce —
/// executable serially on an [`Engine`] or in parallel on a
/// [`crate::sharded::ShardedEngine`], with identical results and cost
/// accounting either way.
pub trait ShardableAlgorithm: Algorithm {
    /// Executes the algorithm on any [`ShardRunner`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on invalid inputs or device failures.
    fn execute_on<R: ShardRunner>(
        &self,
        runner: &mut R,
        input: &Self::Input,
    ) -> Result<AlgoRun<Self::Output>, CoreError>;
}
