//! The multi-tenant query server.
//!
//! [`Server`] keeps registered graphs resident on crossbar banks and
//! serves BFS/SSSP queries (single-source or batched) against them under
//! a fault-tolerance contract:
//!
//! * **Admission control** — a [`BoundedQueue`] in front of a fixed set
//!   of modeled service lanes; a full queue sheds load with
//!   [`ServeError::Overloaded`] carrying a retry-after hint, and tenants
//!   past their billed-time quota are rejected with
//!   [`ServeError::QuotaExceeded`]. A request whose arrival time is not
//!   finite, or whose deadline is `-inf` or NaN ([`Nanos::MIN`]), is
//!   rejected with [`ServeError::InvalidTiming`]. Rejections are never
//!   billed.
//! * **Deadlines** — per-query modeled-time budgets enforced at
//!   cooperative block-boundary checkpoints; a miss returns
//!   [`ServeError::DeadlineExceeded`] with the partial
//!   [`gaasx_sim::RunReport`], and the partial work is billed.
//! * **Retries** — unrecoverable device faults retry up to a bounded
//!   budget with modeled backoff; every attempt's partial work is billed
//!   and the final failure reports the attempt count.
//! * **Panic isolation** — a `catch_unwind` guard at the worker boundary
//!   turns an escaped panic into [`ServeError::Internal`] and replaces
//!   the worker's engines (endurance wear carried over); the server
//!   keeps serving.
//! * **Eviction** — LRU over total resident edges plus a wear threshold;
//!   an evicted graph transparently reprograms on its next query.
//!
//! # Determinism
//!
//! The server spawns no threads of its own: host-side parallelism comes
//! from each resident [`gaasx_core::ShardedEngine`], and *service*
//! concurrency is modeled as lane free-times on the modeled clock. Given
//! the same registrations and submissions, `run` produces bit-identical
//! responses, bills, and ledger totals on every host.
//!
//! # Billing conservation
//!
//! Every admitted query produces exactly one
//! [`TenantLedger::record_billed`] call. Bills are integer ticks, so
//! summing the responses' `billed_ns` per tenant, in any order,
//! reproduces each tenant's bill and [`TenantLedger::total_billed_ns`]
//! exactly — the soak harness asserts this.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gaasx_graph::CooGraph;
use gaasx_sim::{Nanojoules, Nanos, OpSummary, RunReport, TenantLedger};

use gaasx_core::{CoreError, GaasXConfig};

use crate::error::ServeError;
use crate::queue::BoundedQueue;
use crate::resident::ResidentGraph;

/// What a query asks the accelerator to compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKind {
    /// Breadth-first search from one source.
    Bfs {
        /// Source vertex.
        source: u32,
    },
    /// Single-source shortest paths from one source.
    Sssp {
        /// Source vertex.
        source: u32,
    },
    /// K BFS queries sharing one selective-row-activation pass.
    BatchBfs {
        /// Source vertices, one sub-query each.
        sources: Vec<u32>,
    },
    /// K SSSP queries sharing one selective-row-activation pass.
    BatchSssp {
        /// Source vertices, one sub-query each.
        sources: Vec<u32>,
    },
    /// Fault-injection probe: panics inside the worker. Exists so tests
    /// and the soak harness can prove the `catch_unwind` boundary holds.
    DebugPanic,
}

/// A query submitted to the server.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Tenant the query bills to.
    pub tenant: String,
    /// Registered graph name to run against.
    pub graph: String,
    /// What to compute.
    pub kind: QueryKind,
    /// Arrival time on the modeled clock.
    pub arrival_ns: Nanos,
    /// Per-query modeled-time budget; `None` falls back to
    /// [`ServerConfig::default_deadline_ns`].
    pub deadline_ns: Option<Nanos>,
}

/// Successful query output.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Per-source distance vectors (length 1 for single-source queries).
    pub values: Vec<Vec<f64>>,
    /// Per-source superstep counts.
    pub iterations: Vec<u32>,
    /// The full run report the bill derives from.
    pub report: RunReport,
}

/// The server's answer to one submitted query.
#[derive(Debug)]
pub struct QueryResponse {
    /// Id assigned at submission.
    pub id: u64,
    /// Tenant billed.
    pub tenant: String,
    /// Graph queried.
    pub graph: String,
    /// Submission time on the modeled clock.
    pub arrival_ns: Nanos,
    /// When a service lane picked the query up (equals `arrival_ns` for
    /// rejections).
    pub start_ns: Nanos,
    /// When the lane freed (start plus billed time plus retry backoff).
    pub finish_ns: Nanos,
    /// Modeled device time billed to the tenant for this query.
    pub billed_ns: Nanos,
    /// The result or the typed failure.
    pub outcome: Result<QueryOutput, ServeError>,
}

/// Serving policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Device configuration each resident graph's engines are built from.
    pub accel: GaasXConfig,
    /// Worker engines per resident [`gaasx_core::ShardedEngine`]; worker
    /// 0 runs on the serving thread, so `jobs − 1` threads are spawned
    /// per shard pass.
    pub jobs: usize,
    /// Bound of the admission queue; beyond it the server sheds load.
    pub queue_capacity: usize,
    /// Modeled service lanes draining the queue concurrently.
    pub lanes: usize,
    /// Total edges that may be resident at once; past it the LRU graph
    /// is evicted.
    pub capacity_edges: usize,
    /// Evict (and so reprogram onto fresh banks) a resident graph once
    /// its engines' total device writes reach this; `u64::MAX` disables.
    pub wear_threshold_writes: u64,
    /// Retries after the initial attempt for device-fault failures.
    pub max_retries: u32,
    /// Modeled backoff added to the lane occupancy per retry.
    pub retry_backoff_ns: Nanos,
    /// Deadline for queries that do not carry their own.
    pub default_deadline_ns: Option<Nanos>,
}

impl ServerConfig {
    /// A permissive policy around the given device configuration:
    /// 2 lanes, an 8-deep queue, no capacity/wear/deadline limits,
    /// 2 retries with 1 µs backoff.
    pub fn new(accel: GaasXConfig) -> Self {
        ServerConfig {
            accel,
            jobs: 1,
            queue_capacity: 8,
            lanes: 2,
            capacity_edges: usize::MAX,
            wear_threshold_writes: u64::MAX,
            max_retries: 2,
            retry_backoff_ns: Nanos::from_ns(1_000.0),
            default_deadline_ns: None,
        }
    }
}

/// Monotonic counters describing everything the server did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries past admission control.
    pub admitted: u64,
    /// Queries that returned results.
    pub completed: u64,
    /// Load-shed rejections.
    pub rejected_overload: u64,
    /// Quota rejections.
    pub rejected_quota: u64,
    /// Unknown-graph rejections.
    pub rejected_unknown: u64,
    /// Rejections of requests with a non-finite arrival or a NaN deadline.
    pub rejected_invalid: u64,
    /// Admitted queries that missed their deadline.
    pub failed_deadline: u64,
    /// Admitted queries whose retry budget ended in a device fault.
    pub failed_fault: u64,
    /// Admitted queries that failed validation or configuration.
    pub failed_query: u64,
    /// Admitted queries whose worker panicked.
    pub failed_internal: u64,
    /// Device-fault retry attempts performed.
    pub retries: u64,
    /// Graphs programmed onto banks after an eviction (first-time
    /// programming is not counted).
    pub reprograms: u64,
    /// Evictions forced by the resident-edge capacity.
    pub capacity_evictions: u64,
    /// Evictions forced by the wear threshold.
    pub wear_evictions: u64,
    /// Panics caught at the worker boundary.
    pub panics_caught: u64,
    /// Worker engine sets replaced after a panic.
    pub worker_replacements: u64,
}

/// A multi-tenant query server over resident crossbar banks — see the
/// module docs for the full contract.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    graphs: BTreeMap<String, ResidentGraph>,
    quotas: BTreeMap<String, Nanos>,
    pending: Vec<(u64, QueryRequest)>,
    next_id: u64,
    dispatch_seq: u64,
    ledger: TenantLedger,
    stats: ServerStats,
}

impl Server {
    /// A server with the given policy and no graphs or queries yet.
    pub fn new(config: ServerConfig) -> Self {
        Server {
            config,
            graphs: BTreeMap::new(),
            quotas: BTreeMap::new(),
            pending: Vec::new(),
            next_id: 0,
            dispatch_seq: 0,
            ledger: TenantLedger::new(),
            stats: ServerStats::default(),
        }
    }

    /// Registers `graph` under `name` (replacing any previous
    /// registration of that name), partitioning it for streaming once.
    /// Banks are programmed lazily on the first query.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyGraph`] for a graph with no vertices,
    /// which no query could ever run on, and
    /// [`ServeError::CapacityExceeded`] when the graph alone exceeds
    /// [`ServerConfig::capacity_edges`] — no eviction schedule could ever
    /// make it fit.
    pub fn register_graph(&mut self, name: &str, graph: CooGraph) -> Result<(), ServeError> {
        if graph.num_vertices() == 0 {
            return Err(ServeError::EmptyGraph {
                graph: name.to_string(),
            });
        }
        if graph.num_edges() > self.config.capacity_edges {
            return Err(ServeError::CapacityExceeded {
                edges: graph.num_edges(),
                capacity_edges: self.config.capacity_edges,
            });
        }
        self.graphs.insert(
            name.to_string(),
            ResidentGraph::new(
                name.to_string(),
                graph,
                self.config.accel.clone(),
                self.config.jobs,
            ),
        );
        Ok(())
    }

    /// Caps `tenant`'s cumulative billed modeled time; once reached,
    /// further queries are rejected with [`ServeError::QuotaExceeded`].
    pub fn set_quota(&mut self, tenant: &str, quota_ns: Nanos) {
        self.quotas.insert(tenant.to_string(), quota_ns);
    }

    /// Enqueues a query for the next [`run`](Server::run) and returns
    /// its assigned id.
    pub fn submit(&mut self, request: QueryRequest) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push((id, request));
        id
    }

    /// The per-tenant billing ledger.
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// Serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The registered graph record for `name`.
    pub fn graph(&self, name: &str) -> Option<&ResidentGraph> {
        self.graphs.get(name)
    }

    /// Drains every submitted query through the admission/dispatch loop
    /// and returns one response per query, in completion order
    /// (rejections complete at arrival; dispatched queries complete when
    /// their lane frees). Requests with invalid timing have no place on
    /// the clock: their rejections come first, in submission order.
    pub fn run(&mut self) -> Vec<QueryResponse> {
        let pending = std::mem::take(&mut self.pending);
        let mut responses = Vec::with_capacity(pending.len());
        let mut arrivals = Vec::with_capacity(pending.len());
        for (id, request) in pending {
            match self.timing_rejection(&request) {
                Some(rejection) => responses.push(self.reject(id, request, rejection)),
                None => arrivals.push((id, request)),
            }
        }
        arrivals.sort_by_key(|a| a.1.arrival_ns);

        let mut lanes = vec![Nanos::ZERO; self.config.lanes.max(1)];
        let mut queue: BoundedQueue<(u64, QueryRequest)> =
            BoundedQueue::new(self.config.queue_capacity);

        for (id, request) in arrivals {
            let now = request.arrival_ns;
            // Lanes that freed before this arrival drain the queue first.
            while !queue.is_empty() {
                let (lane, free_at) = Self::earliest_lane(&lanes);
                if free_at > now {
                    break;
                }
                if let Some((qid, qreq)) = queue.pop() {
                    let response = self.dispatch(qid, qreq, free_at);
                    lanes[lane] = response.finish_ns;
                    responses.push(response);
                }
            }

            if let Some(rejection) = self.admission_rejection(&request) {
                responses.push(self.reject(id, request, rejection));
                continue;
            }

            let (lane, free_at) = Self::earliest_lane(&lanes);
            if queue.is_empty() && free_at <= now {
                let response = self.dispatch(id, request, now);
                lanes[lane] = response.finish_ns;
                responses.push(response);
            } else if let Err((id, request)) = queue.push((id, request)) {
                // Full queue: shed load with a typed rejection. All lanes
                // are busy past `now` here, so the hint is positive.
                let rejection = ServeError::Overloaded {
                    queue_depth: queue.len(),
                    queue_capacity: queue.capacity(),
                    retry_after_ns: free_at - now,
                };
                responses.push(self.reject(id, request, rejection));
            }
        }

        // No more arrivals: lanes drain the queue to empty.
        while let Some((id, request)) = queue.pop() {
            let (lane, free_at) = Self::earliest_lane(&lanes);
            let response = self.dispatch(id, request, free_at);
            lanes[lane] = response.finish_ns;
            responses.push(response);
        }
        responses
    }

    /// The lane that frees first (ties break to the lowest index).
    fn earliest_lane(lanes: &[Nanos]) -> (usize, Nanos) {
        let mut best = 0;
        for (i, free_at) in lanes.iter().enumerate() {
            if *free_at < lanes[best] {
                best = i;
            }
        }
        (best, lanes[best])
    }

    /// Rejects a request whose arrival time is not finite or whose
    /// effective deadline is [`Nanos::MIN`] (where `-inf` and NaN land).
    /// A [`Nanos::MAX`] deadline means no budget; a negative finite one
    /// is a budget already spent, so it runs to its first checkpoint and
    /// fails with [`ServeError::DeadlineExceeded`].
    fn timing_rejection(&self, request: &QueryRequest) -> Option<ServeError> {
        if !request.arrival_ns.is_finite() {
            return Some(ServeError::InvalidTiming {
                field: "arrival_ns",
                value: request.arrival_ns,
            });
        }
        match request.deadline_ns.or(self.config.default_deadline_ns) {
            Some(deadline) if deadline == Nanos::MIN => Some(ServeError::InvalidTiming {
                field: "deadline_ns",
                value: deadline,
            }),
            _ => None,
        }
    }

    /// Pre-dispatch rejection checks (unknown graph, quota). Overload is
    /// decided at enqueue time by the caller.
    fn admission_rejection(&self, request: &QueryRequest) -> Option<ServeError> {
        if !self.graphs.contains_key(&request.graph) {
            return Some(ServeError::UnknownGraph {
                graph: request.graph.clone(),
            });
        }
        if let Some(&quota_ns) = self.quotas.get(&request.tenant) {
            let billed_ns = self.ledger.billed_ns(&request.tenant);
            if billed_ns >= quota_ns {
                return Some(ServeError::QuotaExceeded {
                    tenant: request.tenant.clone(),
                    billed_ns,
                    quota_ns,
                });
            }
        }
        None
    }

    /// Counts and records a rejection, which completes at the request's
    /// arrival and bills nothing.
    fn reject(&mut self, id: u64, request: QueryRequest, rejection: ServeError) -> QueryResponse {
        match rejection {
            ServeError::UnknownGraph { .. } => self.stats.rejected_unknown += 1,
            ServeError::QuotaExceeded { .. } => self.stats.rejected_quota += 1,
            ServeError::InvalidTiming { .. } => self.stats.rejected_invalid += 1,
            _ => self.stats.rejected_overload += 1,
        }
        self.ledger.record_rejected(&request.tenant);
        let now = request.arrival_ns;
        QueryResponse {
            id,
            tenant: request.tenant,
            graph: request.graph,
            arrival_ns: now,
            start_ns: now,
            finish_ns: now,
            billed_ns: Nanos::ZERO,
            outcome: Err(rejection),
        }
    }

    /// Evicts least-recently-used resident graphs until `graph` fits
    /// within the resident-edge capacity alongside them.
    fn make_room_for(&mut self, graph: &str) {
        loop {
            let mut resident_edges = 0usize;
            let mut lru: Option<(u64, String)> = None;
            for (name, g) in &self.graphs {
                let counts = g.is_resident() || name == graph;
                if !counts {
                    continue;
                }
                resident_edges = resident_edges.saturating_add(g.num_edges());
                if g.is_resident() && name != graph {
                    let key = (g.last_used(), name.clone());
                    if lru.as_ref().map_or(true, |best| key < *best) {
                        lru = Some(key);
                    }
                }
            }
            if resident_edges <= self.config.capacity_edges {
                return;
            }
            match lru {
                Some((_, victim)) => {
                    if let Some(g) = self.graphs.get_mut(&victim) {
                        g.evict();
                    }
                    self.stats.capacity_evictions += 1;
                }
                // Only the target remains; registration guaranteed it
                // fits alone.
                None => return,
            }
        }
    }

    /// Executes one admitted query at modeled time `start_ns`: residency,
    /// panic guard, retry loop, wear policy, and billing.
    fn dispatch(&mut self, id: u64, request: QueryRequest, start_ns: Nanos) -> QueryResponse {
        self.dispatch_seq += 1;
        let seq = self.dispatch_seq;
        self.stats.admitted += 1;
        self.make_room_for(&request.graph);

        let deadline = request.deadline_ns.or(self.config.default_deadline_ns);
        let mut billed_ns = Nanos::ZERO;
        let mut energy_nj = Nanojoules::ZERO;
        let mut ops = OpSummary::new();
        let mut backoff_ns = Nanos::ZERO;
        let mut attempts = 0u32;

        let outcome = loop {
            let Some(g) = self.graphs.get_mut(&request.graph) else {
                break Err(ServeError::UnknownGraph {
                    graph: request.graph.clone(),
                });
            };
            let newly_programmed = match g.ensure_resident() {
                Ok(programmed) => programmed,
                Err(e) => break Err(ServeError::Query(e)),
            };
            if newly_programmed && g.programs() > 1 {
                self.stats.reprograms += 1;
            }
            g.touch(seq);
            attempts += 1;

            let attempt = attempts - 1;
            match catch_unwind(AssertUnwindSafe(|| {
                g.retry_query(&request.kind, deadline, attempt)
            })) {
                Err(payload) => {
                    // The worker tore down mid-query: replace its engines
                    // (same banks, wear carried over) and keep serving.
                    self.stats.panics_caught += 1;
                    let detail = panic_detail(payload.as_ref());
                    if g.replace_after_panic().is_ok() {
                        self.stats.worker_replacements += 1;
                    } else {
                        g.evict();
                    }
                    break Err(ServeError::Internal {
                        query_id: id,
                        detail,
                    });
                }
                Ok(Ok(output)) => {
                    billed_ns += output.report.elapsed_ns;
                    energy_nj += output.report.energy.total_nj();
                    ops.merge(&output.report.ops);
                    break Ok(output);
                }
                Ok(Err(e)) => {
                    if let Some(partial) = partial_of(&e) {
                        billed_ns += partial.elapsed_ns;
                        energy_nj += partial.energy.total_nj();
                        ops.merge(&partial.ops);
                    }
                    match e {
                        CoreError::Cancelled { report, .. } => {
                            break Err(ServeError::DeadlineExceeded {
                                deadline_ns: deadline.unwrap_or(Nanos::ZERO),
                                report,
                            });
                        }
                        CoreError::DeviceFault { detail, report } => {
                            if attempts <= self.config.max_retries {
                                self.stats.retries += 1;
                                backoff_ns += self.config.retry_backoff_ns;
                                continue;
                            }
                            break Err(ServeError::DeviceFault {
                                detail,
                                attempts,
                                report,
                            });
                        }
                        other => break Err(ServeError::Query(other)),
                    }
                }
            }
        };

        // Wear policy: once the resident banks' total writes cross the
        // threshold, evict so the next query reprograms fresh banks.
        if let Some(g) = self.graphs.get_mut(&request.graph) {
            if g.is_resident() && g.wear_total() >= self.config.wear_threshold_writes {
                g.evict();
                self.stats.wear_evictions += 1;
            }
        }

        match &outcome {
            Ok(_) => self.stats.completed += 1,
            Err(ServeError::DeadlineExceeded { .. }) => self.stats.failed_deadline += 1,
            Err(ServeError::DeviceFault { .. }) => self.stats.failed_fault += 1,
            Err(ServeError::Internal { .. }) => self.stats.failed_internal += 1,
            Err(_) => self.stats.failed_query += 1,
        }
        // Exactly one billing event per admitted query, partial or not.
        self.ledger
            .record_billed(&request.tenant, billed_ns, energy_nj, &ops);
        if outcome.is_ok() {
            self.ledger.record_completed(&request.tenant);
        } else {
            self.ledger.record_failed(&request.tenant);
        }

        QueryResponse {
            id,
            tenant: request.tenant,
            graph: request.graph,
            arrival_ns: request.arrival_ns,
            start_ns,
            finish_ns: start_ns + billed_ns + backoff_ns,
            billed_ns,
            outcome,
        }
    }
}

/// The partial report carried by a failed attempt, if any.
fn partial_of(e: &CoreError) -> Option<&RunReport> {
    match e {
        CoreError::DeviceFault { report, .. } | CoreError::Cancelled { report, .. } => {
            report.as_deref()
        }
        _ => None,
    }
}

/// Renders a caught panic payload to text.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}
