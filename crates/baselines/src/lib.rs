//! Comparison baselines for the GaaS-X reproduction.
//!
//! The paper (§V-A, Table III) compares GaaS-X against four classes of
//! systems, all of which this crate provides:
//!
//! * [`graphr`] — the GraphR dense-mapping crossbar PIM accelerator,
//!   simulated on the *same* device substrate and with the same number of
//!   parallel compute elements as GaaS-X, exactly as the paper does;
//! * [`gram`] — the GRAM digital-PIM accelerator, modeled through its
//!   published performance/energy ratios relative to GraphR (again
//!   following the paper, which "only compare\[s\] with GRAM in terms of the
//!   previously reported end-to-end relative performance");
//! * [`cpu`] — real, runnable software kernels in the style of GridGraph
//!   (grid streaming), GAPBS (optimized direct kernels) and GraphChi (CF),
//!   measured by wall clock and converted to energy with a dynamic-power
//!   model;
//! * [`gpu`] — an analytical Gunrock/cuMF roofline model of a Titan-V-class
//!   part (we have no GPU in this environment; see DESIGN.md §5).
//!
//! The [`mod@reference`] module holds the exact oracles every engine validates against,
//! and [`redundancy`] reproduces the paper's Fig 5 dense-vs-sparse
//! write/compute analysis.

#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod gpu;
pub mod gram;
pub mod graphr;
pub mod redundancy;
pub mod reference;

pub use graphr::{GraphR, GraphRConfig};
