//! Typed failure contract of the serving layer.
//!
//! Every query the server cannot complete comes back as a [`ServeError`]
//! variant — never a silent drop, never a panic escaping the server.
//! Rejections carry retry hints; failures that happened *after* work was
//! performed carry the partial [`RunReport`] so the aborted work remains
//! observable and billable (the same graceful-degradation contract as
//! [`CoreError::DeviceFault`]).

use std::error::Error;
use std::fmt;

use gaasx_core::CoreError;
use gaasx_sim::{Nanos, RunReport};

/// Why the server rejected or failed a query.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control found the bounded job queue full. Back off for
    /// `retry_after_ns` of modeled time — the earliest point a service
    /// lane frees up — and resubmit.
    Overloaded {
        /// Jobs waiting when the query arrived.
        queue_depth: usize,
        /// Configured queue bound.
        queue_capacity: usize,
        /// Modeled time until a service lane frees.
        retry_after_ns: Nanos,
    },
    /// The tenant's cumulative billed time reached its quota; the query
    /// was rejected before any work ran.
    QuotaExceeded {
        /// Tenant that hit its quota.
        tenant: String,
        /// Modeled time already billed to the tenant.
        billed_ns: Nanos,
        /// The tenant's configured quota.
        quota_ns: Nanos,
    },
    /// The query's modeled-time budget expired at a cooperative
    /// cancellation checkpoint (a block boundary). `report` carries the
    /// partial run accumulated up to the cancellation when the engine
    /// got far enough to produce one.
    DeadlineExceeded {
        /// The budget the query ran out of.
        deadline_ns: Nanos,
        /// Partial run report up to the cancellation point.
        report: Option<Box<RunReport>>,
    },
    /// Every retry attempt ended in an unrecoverable device fault.
    /// `report` is the partial report of the *last* attempt.
    DeviceFault {
        /// What failed and where (from the last attempt).
        detail: String,
        /// Attempts performed (initial try plus retries).
        attempts: u32,
        /// Partial run report of the last attempt.
        report: Option<Box<RunReport>>,
    },
    /// A worker panicked while executing the query. The panic was caught
    /// at the serve boundary, the worker's engines were replaced (wear
    /// carried over), and the server keeps serving.
    Internal {
        /// Id of the query whose worker panicked.
        query_id: u64,
        /// Panic payload rendered to text.
        detail: String,
    },
    /// The request's timing has no place on the modeled clock: a NaN or
    /// infinite arrival time, or a NaN deadline. Rejected at admission;
    /// never dispatched or billed.
    InvalidTiming {
        /// The offending request field (`"arrival_ns"` or `"deadline_ns"`).
        field: &'static str,
        /// Its value.
        value: Nanos,
    },
    /// The query referenced a graph never registered with the server.
    UnknownGraph {
        /// The graph name the query asked for.
        graph: String,
    },
    /// A graph registration carried a graph with no vertices: it has no
    /// shard layout and no valid source for any query.
    EmptyGraph {
        /// The name the graph was to be registered under.
        graph: String,
    },
    /// A graph registration exceeded the server's total bank capacity
    /// on its own — no eviction schedule could make it fit.
    CapacityExceeded {
        /// Edges in the rejected graph.
        edges: usize,
        /// Configured capacity in edges.
        capacity_edges: usize,
    },
    /// The query itself was invalid (bad source vertex, negative SSSP
    /// weights, empty batch, ...).
    Query(CoreError),
}

impl ServeError {
    /// The partial [`RunReport`] attached to this failure, if work ran
    /// before it — the billable remnant of a degraded query.
    pub fn partial_report(&self) -> Option<&RunReport> {
        match self {
            ServeError::DeadlineExceeded { report, .. }
            | ServeError::DeviceFault { report, .. } => report.as_deref(),
            ServeError::Query(
                CoreError::DeviceFault { report, .. } | CoreError::Cancelled { report, .. },
            ) => report.as_deref(),
            _ => None,
        }
    }

    /// `true` for rejections decided *before* any work ran (overload,
    /// quota, invalid timing, unknown graph, empty graph, capacity) —
    /// these are never billed.
    pub fn is_rejection(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded { .. }
                | ServeError::QuotaExceeded { .. }
                | ServeError::InvalidTiming { .. }
                | ServeError::UnknownGraph { .. }
                | ServeError::EmptyGraph { .. }
                | ServeError::CapacityExceeded { .. }
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_depth,
                queue_capacity,
                retry_after_ns,
            } => write!(
                f,
                "server overloaded: {queue_depth}/{queue_capacity} jobs queued; \
                 retry after {retry_after_ns} ns"
            ),
            ServeError::QuotaExceeded {
                tenant,
                billed_ns,
                quota_ns,
            } => write!(
                f,
                "tenant {tenant} exceeded its quota: {billed_ns} ns billed of {quota_ns} ns"
            ),
            ServeError::DeadlineExceeded {
                deadline_ns,
                report,
            } => write!(
                f,
                "deadline of {deadline_ns} ns exceeded{}",
                if report.is_some() {
                    " (partial report attached)"
                } else {
                    ""
                }
            ),
            ServeError::DeviceFault {
                detail, attempts, ..
            } => write!(f, "device fault after {attempts} attempt(s): {detail}"),
            ServeError::Internal { query_id, detail } => {
                write!(f, "internal error serving query {query_id}: {detail}")
            }
            ServeError::InvalidTiming { field, value } => {
                write!(f, "request {field} of {value} ns is not schedulable")
            }
            ServeError::UnknownGraph { graph } => {
                write!(f, "graph {graph:?} is not registered with this server")
            }
            ServeError::EmptyGraph { graph } => {
                write!(f, "graph {graph:?} has no vertices; no query can run on it")
            }
            ServeError::CapacityExceeded {
                edges,
                capacity_edges,
            } => write!(
                f,
                "graph of {edges} edges exceeds the server capacity of {capacity_edges} edges"
            ),
            ServeError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_reports_surface_through_the_accessor() {
        let report = Box::new(RunReport::new("gaasx", "bfs", "t"));
        let e = ServeError::DeadlineExceeded {
            deadline_ns: Nanos::from_ns(100.0),
            report: Some(report),
        };
        assert_eq!(
            e.partial_report().map(|r| r.algorithm.as_str()),
            Some("bfs")
        );
        assert!(!e.is_rejection());

        let e = ServeError::Overloaded {
            queue_depth: 4,
            queue_capacity: 4,
            retry_after_ns: Nanos::from_ns(7.0),
        };
        assert!(e.partial_report().is_none());
        assert!(e.is_rejection());
        assert!(e.to_string().contains("retry after 7 ns"));
    }

    #[test]
    fn query_errors_pass_the_wrapped_partial_through() {
        let inner = CoreError::DeviceFault {
            detail: "row 3".into(),
            report: Some(Box::new(RunReport::new("gaasx", "sssp", "t"))),
        };
        let e = ServeError::from(inner);
        assert_eq!(
            e.partial_report().map(|r| r.algorithm.as_str()),
            Some("sssp")
        );
        assert!(std::error::Error::source(&e).is_some());
    }
}
