//! # gaasx-serve — fault-tolerant multi-tenant serving for GaaS-X
//!
//! The accelerator crates answer "how fast is one run"; this crate
//! answers "what happens when many tenants share the device". A
//! [`Server`] keeps programmed graphs resident on crossbar banks across
//! queries and serves BFS/SSSP traffic under an explicit degradation
//! contract: bounded queues that shed load with typed retry hints,
//! per-query modeled-time deadlines with cooperative cancellation,
//! bounded device-fault retries with backoff, wear-aware LRU eviction,
//! panic isolation at the worker boundary, and exact per-tenant billing
//! through [`gaasx_sim::TenantLedger`].
//!
//! ```
//! use gaasx_core::GaasXConfig;
//! use gaasx_graph::generators;
//! use gaasx_serve::{QueryKind, QueryRequest, Server, ServerConfig};
//! use gaasx_sim::Nanos;
//!
//! let mut server = Server::new(ServerConfig::new(GaasXConfig::small()));
//! server.register_graph("fig7", generators::paper_fig7_graph())?;
//! server.submit(QueryRequest {
//!     tenant: "acme".into(),
//!     graph: "fig7".into(),
//!     kind: QueryKind::Bfs { source: 0 },
//!     arrival_ns: Nanos::ZERO,
//!     deadline_ns: None,
//! });
//! let responses = server.run();
//! assert!(responses[0].outcome.is_ok());
//! assert_eq!(server.ledger().billed_ns("acme"), responses[0].billed_ns);
//! # Ok::<(), gaasx_serve::ServeError>(())
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod error;
pub mod queue;
pub mod resident;
pub mod server;

pub use batch::{run_batch, run_batch_on_grid, BatchOutcome};
pub use error::ServeError;
pub use queue::BoundedQueue;
pub use resident::ResidentGraph;
pub use server::{
    QueryKind, QueryOutput, QueryRequest, QueryResponse, Server, ServerConfig, ServerStats,
};
