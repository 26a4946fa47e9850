//! Graphs resident on crossbar banks across queries.
//!
//! A [`ResidentGraph`] holds its graph in the streaming shard layout,
//! built once at registration: the layout is host data, not bank state,
//! so it outlives evictions and panic replacements, and no query
//! partitions again. It also keeps a programmed [`ShardedEngine`] alive
//! between queries so consecutive queries skip building engines and
//! their warm host buffers; per-query accounting is wiped with
//! [`ShardedEngine::reset_accounting`] while device state — endurance
//! wear, spare-row remaps — persists, exactly as it would on real
//! hardware. Transient fault draws are keyed by the query's own passes
//! and loads, so each query draws as it would on fresh banks; only a
//! retry after a device fault ([`ResidentGraph::retry_query`]) draws
//! anew. Eviction drops the engines (freeing the
//! modeled banks); the next query *reprograms* the graph onto fresh
//! banks, which resets wear but changes nothing functionally.
//!
//! A panic-replacement rebuild is different: the replacement engines run
//! on the *same* modeled banks, so the wear ledger is carried over via
//! [`WearSnapshot`].

use gaasx_graph::partition::GridPartition;
use gaasx_graph::{CooGraph, VertexId};
use gaasx_sim::Nanos;
use gaasx_xbar::fixed::Quantizer;

use gaasx_core::algorithms::{check_sources, traverse, BatchOutcome, Sssp};
use gaasx_core::engine::partition_for_streaming;
use gaasx_core::{CoreError, GaasXConfig, ShardedEngine, WearSnapshot};

use crate::server::{QueryKind, QueryOutput};

/// A registered graph and (when resident) its programmed engines.
#[derive(Debug)]
pub struct ResidentGraph {
    name: String,
    /// The graph's shard layout — its only copy of the edges. `None` only
    /// for a graph with no vertices, which has no layout and no valid
    /// query.
    grid: Option<GridPartition>,
    config: GaasXConfig,
    jobs: usize,
    /// The outcome of [`Sssp::check_weights`] on the layout, taken at the
    /// first SSSP query and reused by every later one (see
    /// [`sssp_weights`]): the quantizer, or the message of the
    /// `InvalidInput` error each SSSP query returns.
    weights: Option<Result<Quantizer, String>>,
    exec: Option<ShardedEngine>,
    /// Dispatch sequence number of the most recent query — the LRU key.
    last_used: u64,
    queries_served: u64,
    programs: u64,
}

impl ResidentGraph {
    /// Registers a graph (not yet resident — banks are programmed on
    /// first use), partitioning it for streaming once; the graph itself
    /// is not kept.
    pub fn new(name: String, graph: CooGraph, config: GaasXConfig, jobs: usize) -> Self {
        ResidentGraph {
            name,
            grid: partition_for_streaming(&graph).ok(),
            config,
            jobs,
            weights: None,
            exec: None,
            last_used: 0,
            queries_served: 0,
            programs: 0,
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Edges the graph occupies when resident.
    pub fn num_edges(&self) -> usize {
        self.grid.as_ref().map_or(0, GridPartition::total_edges)
    }

    /// `true` while the graph holds programmed banks.
    pub fn is_resident(&self) -> bool {
        self.exec.is_some()
    }

    /// Queries served since registration.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Times the graph was programmed onto banks (first use plus every
    /// post-eviction reprogram and panic replacement).
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// The LRU key: dispatch sequence number of the last query.
    pub fn last_used(&self) -> u64 {
        self.last_used
    }

    /// Marks the graph as just used.
    pub fn touch(&mut self, seq: u64) {
        self.last_used = seq;
    }

    /// Ensures the graph is resident, programming fresh engines if it was
    /// evicted (or never used). Returns `true` when banks were (re)programmed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an inconsistent device
    /// configuration.
    pub fn ensure_resident(&mut self) -> Result<bool, CoreError> {
        if self.exec.is_some() {
            return Ok(false);
        }
        self.exec = Some(ShardedEngine::new(self.config.clone(), self.jobs)?);
        self.programs = self.programs.saturating_add(1);
        Ok(true)
    }

    /// Drops the programmed engines, freeing the modeled banks. The next
    /// query reprograms from scratch (fresh wear).
    pub fn evict(&mut self) {
        self.exec = None;
    }

    /// Total device writes across the resident engines' wear ledgers —
    /// zero when not resident or when no fault model tracks endurance.
    pub fn wear_total(&self) -> u64 {
        self.exec.as_ref().map_or(0, |exec| {
            exec.wear_snapshots()
                .iter()
                .map(WearSnapshot::total_writes)
                .fold(0u64, u64::saturating_add)
        })
    }

    /// Replaces the engines after a caught worker panic. Unlike eviction
    /// the replacement runs on the *same* modeled banks, so endurance
    /// wear carries over.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an inconsistent device
    /// configuration.
    pub fn replace_after_panic(&mut self) -> Result<(), CoreError> {
        let wear = self
            .exec
            .as_ref()
            .map(ShardedEngine::wear_snapshots)
            .unwrap_or_default();
        let mut fresh = ShardedEngine::new(self.config.clone(), self.jobs)?;
        fresh.restore_wear(&wear);
        self.exec = Some(fresh);
        self.programs = self.programs.saturating_add(1);
        Ok(())
    }

    /// Runs one query against the resident engines, returning the output
    /// plus its full [`gaasx_sim::RunReport`]; accounting is reset
    /// afterwards so the next query starts from a clean bill.
    ///
    /// Mirrors `GaasX::run_labeled_sharded` exactly — same `finish`
    /// labeling, same partial-report attachment on device faults and
    /// cancellations — so a resident query is bit-comparable to a one-shot
    /// run of the same request.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] with the partial report attached for device
    /// faults and deadline cancellations; other errors pass through.
    pub fn run_query(
        &mut self,
        kind: &QueryKind,
        deadline: Option<Nanos>,
    ) -> Result<QueryOutput, CoreError> {
        self.retry_query(kind, deadline, 0)
    }

    /// [`run_query`](Self::run_query) as attempt `attempt` at the query
    /// (0 for the first): a retry after a device fault passes a later
    /// attempt, so its transient faults are drawn anew (see
    /// [`ShardedEngine::set_attempt`]).
    ///
    /// # Errors
    ///
    /// As for [`run_query`](Self::run_query).
    pub fn retry_query(
        &mut self,
        kind: &QueryKind,
        deadline: Option<Nanos>,
        attempt: u32,
    ) -> Result<QueryOutput, CoreError> {
        let num_edges = self.num_edges() as u64;
        let exec = self.exec.as_mut().ok_or_else(|| {
            CoreError::InvalidInput(format!("graph {:?} is not resident", self.name))
        })?;
        let grid = self.grid.as_ref().ok_or_else(|| {
            CoreError::InvalidInput(format!("graph {:?} has no vertices", self.name))
        })?;
        exec.set_deadline(deadline);
        exec.set_attempt(attempt);
        let (weighted, sources, algorithm) = match kind {
            QueryKind::Bfs { source } => (false, std::slice::from_ref(source), "bfs"),
            QueryKind::Sssp { source } => (true, std::slice::from_ref(source), "sssp"),
            QueryKind::BatchBfs { sources } => (false, &sources[..], "bfs_batch"),
            QueryKind::BatchSssp { sources } => (true, &sources[..], "sssp_batch"),
            QueryKind::DebugPanic => {
                // gaasx-lint: allow(panic-in-lib) -- deliberate fault-injection probe for the serve boundary's catch_unwind guard
                panic!("deliberate debug panic injected into worker")
            }
        };
        // One traversal body serves every kind: with one source it is the
        // one-shot BFS or SSSP run (no superstep cap beyond SSSP's V−1).
        let sources: Vec<VertexId> = sources.iter().map(|&s| VertexId::new(s)).collect();
        let weight_bits = self.config.mac_geometry.weight_bits();
        let run = check_sources(&sources, grid.num_vertices() as usize)
            .and_then(|()| match weighted {
                false => Ok(None),
                true => sssp_weights(&mut self.weights, grid, weight_bits).map(Some),
            })
            .and_then(|quant| traverse(exec, grid, quant, &sources, u32::MAX));
        match run {
            Ok(BatchOutcome { values, iterations }) => {
                let supersteps = iterations.iter().copied().max().unwrap_or(0);
                let report = exec.finish("gaasx", algorithm, &self.name, supersteps, num_edges);
                exec.reset_accounting();
                self.queries_served = self.queries_served.saturating_add(1);
                Ok(QueryOutput {
                    values,
                    iterations,
                    report,
                })
            }
            Err(e) => {
                let e = e.with_partial_report(|| {
                    exec.finish("gaasx", "query", &self.name, 0, num_edges)
                });
                exec.reset_accounting();
                Err(e)
            }
        }
    }
}

/// The layout's SSSP weight check ([`Sssp::check_weights`]), run at the
/// first call and kept in `cache`: every call returns the same quantizer
/// or the same `InvalidInput` error. Any other error is not kept.
fn sssp_weights<'a>(
    cache: &'a mut Option<Result<Quantizer, String>>,
    grid: &GridPartition,
    weight_bits: u32,
) -> Result<&'a Quantizer, CoreError> {
    let checked = match cache.take() {
        Some(checked) => checked,
        None => match Sssp::check_weights(grid, weight_bits) {
            Ok(quant) => Ok(quant),
            Err(CoreError::InvalidInput(msg)) => Err(msg),
            Err(other) => return Err(other),
        },
    };
    cache
        .insert(checked)
        .as_ref()
        .map_err(|msg| CoreError::InvalidInput(msg.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaasx_graph::generators;

    fn resident(jobs: usize) -> ResidentGraph {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(4)).unwrap();
        ResidentGraph::new("rmat".into(), g, GaasXConfig::small(), jobs)
    }

    #[test]
    fn consecutive_queries_on_a_resident_graph_bill_identically() {
        let mut r = resident(2);
        r.ensure_resident().unwrap();
        let kind = QueryKind::Bfs { source: 0 };
        let a = r.run_query(&kind, None).unwrap();
        let b = r.run_query(&kind, None).unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.report.ops, b.report.ops);
        assert_eq!(a.report.elapsed_ns, b.report.elapsed_ns);
        assert_eq!(r.queries_served(), 2);
        assert_eq!(r.programs(), 1);
    }

    #[test]
    fn eviction_forces_a_reprogram() {
        let mut r = resident(1);
        assert!(r.ensure_resident().unwrap());
        assert!(!r.ensure_resident().unwrap());
        r.evict();
        assert!(!r.is_resident());
        assert!(r.ensure_resident().unwrap());
        assert_eq!(r.programs(), 2);
    }

    #[test]
    fn unresident_query_is_an_input_error() {
        let mut r = resident(1);
        let e = r
            .run_query(&QueryKind::Bfs { source: 0 }, None)
            .unwrap_err();
        assert!(matches!(e, CoreError::InvalidInput(_)));
    }

    #[test]
    fn deadline_miss_attaches_a_partial_report() {
        let mut r = resident(1);
        r.ensure_resident().unwrap();
        let e = r
            .run_query(&QueryKind::Sssp { source: 0 }, Some(Nanos::ZERO))
            .unwrap_err();
        match e {
            CoreError::Cancelled {
                report: Some(report),
                ..
            } => assert!(report.elapsed_ns > Nanos::ZERO),
            other => panic!("want Cancelled with report, got {other}"),
        }
        // The resident engine is reusable after the miss.
        assert!(r.run_query(&QueryKind::Sssp { source: 0 }, None).is_ok());
    }

    #[test]
    fn the_weight_check_runs_once_and_every_sssp_query_reuses_it() {
        let g = CooGraph::from_edges(
            3,
            vec![
                gaasx_graph::Edge::new(0, 1, 2.0),
                gaasx_graph::Edge::new(1, 2, -1.0),
            ],
        )
        .unwrap();
        let mut r = ResidentGraph::new("neg".into(), g, GaasXConfig::small(), 1);
        r.ensure_resident().unwrap();
        assert!(r.weights.is_none(), "registration checks no weights");
        assert!(r.run_query(&QueryKind::Bfs { source: 0 }, None).is_ok());
        assert!(r.weights.is_none(), "BFS checks no weights");
        let errors: Vec<String> = [
            QueryKind::Sssp { source: 0 },
            QueryKind::BatchSssp {
                sources: vec![0, 1],
            },
        ]
        .iter()
        .map(|kind| match r.run_query(kind, None) {
            Err(CoreError::InvalidInput(msg)) => msg,
            other => panic!("want InvalidInput, got {other:?}"),
        })
        .collect();
        assert!(errors[0].contains("negative edge weight"), "{}", errors[0]);
        assert_eq!(errors[0], errors[1]);
        assert!(matches!(r.weights, Some(Err(_))));
        // A bad source is still the source's error, checked first.
        let e = r
            .run_query(&QueryKind::Sssp { source: 9 }, None)
            .unwrap_err();
        assert!(
            matches!(e, CoreError::InvalidInput(ref m) if m.contains("out of range")),
            "{e}"
        );

        let mut ok = resident(1);
        ok.ensure_resident().unwrap();
        assert!(ok.run_query(&QueryKind::Sssp { source: 0 }, None).is_ok());
        assert!(matches!(ok.weights, Some(Ok(_))));
    }

    #[test]
    fn a_graph_without_vertices_fails_every_query_typed() {
        let mut r = ResidentGraph::new("void".into(), CooGraph::empty(0), GaasXConfig::small(), 1);
        assert_eq!(r.num_edges(), 0);
        r.ensure_resident().unwrap();
        for kind in [
            QueryKind::Bfs { source: 0 },
            QueryKind::BatchSssp { sources: vec![0] },
        ] {
            let e = r.run_query(&kind, None).unwrap_err();
            assert!(matches!(e, CoreError::InvalidInput(_)), "{e}");
        }
    }
}
