//! Algorithm mappings onto the GaaS-X engine (paper §IV).
//!
//! Each algorithm decomposes into the paper's two SpMV primitives:
//!
//! * **SpMV-multiply** — parallel aggregation of attributes at a vertex
//!   (PageRank ranks, CF feature products) via CAM-search +
//!   [`Engine::gather_rows`];
//! * **SpMV-add** — parallel updates of neighbor attributes from an active
//!   vertex (SSSP, BFS) via CAM-search + [`Engine::propagate_rows_into`].
//!
//! Every mapping streams its shards block by block through
//! [`Engine::sweep`]. BFS, SSSP and batched multi-source queries share one
//! frontier superstep body, [`traverse`].
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
mod traversal;

pub use bfs::Bfs;
pub use cf::{CfModel, CollaborativeFiltering};
pub use components::ConnectedComponents;
pub use gcn::{GcnInput, GcnLayer};
pub use pagerank::PageRank;
pub use spmv::SpMV;
pub use sssp::Sssp;
pub use traversal::{check_sources, traverse, BatchOutcome};

use gaasx_xbar::fixed::Quantizer;

use crate::engine::Engine;
use crate::error::CoreError;
use crate::sharded::ShardRunner;

/// Why a step-1 quantizer cannot store `value` as it is: `"non-finite"`,
/// `"negative"` or `"unencodable"` (above its largest code); `None` when
/// it can.
fn misfit(value: f32, quant: &Quantizer) -> Option<&'static str> {
    if !value.is_finite() {
        Some("non-finite")
    } else if value < 0.0 {
        Some("negative")
    } else if value > quant.max_value() {
        Some("unencodable")
    } else {
        None
    }
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
