//! # gaasx-core — the GaaS-X accelerator
//!
//! A faithful model of the GaaS-X processing-in-memory graph analytics
//! accelerator (ISCA 2020): CAM crossbars hold sparse `(src, dst)` edge
//! pairs, MAC crossbars hold the matching attributes, and graph algorithms
//! execute as CAM-search → selective-MAC → SFU pipelines directly on the
//! sparse representation — no sparse-to-dense conversion, no zero-edge
//! work.
//!
//! * [`GaasX`] / [`GaasXConfig`] — the accelerator and its Table I
//!   configuration;
//! * [`engine::Engine`] — controller-level execution primitives (the
//!   five-phase model of paper §III-B);
//! * [`algorithms`] — PageRank, SSSP, BFS, and collaborative filtering
//!   mappings (paper §IV);
//! * [`config::table1_components`] — the published area/power inventory.
//!
//! ```
//! use gaasx_core::{GaasX, GaasXConfig};
//! use gaasx_core::algorithms::{PageRank, Sssp};
//! use gaasx_graph::{generators, VertexId};
//!
//! let graph = generators::paper_fig7_graph();
//! let mut accel = GaasX::new(GaasXConfig::small());
//!
//! let pr = accel.run(&PageRank::default(), &graph)?;
//! let sssp = accel.run(&Sssp::from_source(VertexId::new(0)), &graph)?;
//! println!(
//!     "pagerank: {:.3} µs, sssp: {:.3} µs",
//!     pr.report.elapsed_ns / 1e3,
//!     sssp.report.elapsed_ns / 1e3,
//! );
//! # Ok::<(), gaasx_core::CoreError>(())
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accelerator;
mod error;
mod sfu;

pub mod algorithms;
pub mod config;
pub mod engine;
pub mod sharded;

pub use accelerator::{GaasX, RunOutcome};
pub use algorithms::{SearchProfile, ShardableAlgorithm};
pub use config::{GaasXConfig, RecoveryPolicy};
pub use engine::WearSnapshot;
pub use error::CoreError;
pub use sfu::Sfu;
pub use sharded::{ShardRunner, ShardedEngine};
