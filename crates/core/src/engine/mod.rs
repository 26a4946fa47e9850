//! The GaaS-X execution engine: controller-level primitives over the
//! CAM/MAC crossbar banks, one module per phase of the paper's model
//! (§III-B):
//!
//! 1. *Initialization* — [`Engine::new`], here;
//! 2. *Data loading* — `sweep` ([`Engine::sweep`] streams a shard as
//!    [`Block`]s) and `load` ([`Engine::load_block`] programs a block of
//!    ≤128 edges into a CAM+MAC bank pair, recovering faulty rows);
//! 3. *CAM search* — `search` ([`Engine::search_src_into`] /
//!    [`Engine::search_dst_into`]);
//! 4. *MAC operation* — `mac` ([`Engine::gather_rows`], SpMV-multiply down
//!    columns; [`Engine::propagate_rows_into`], SpMV-add through the
//!    transposed array);
//! 5. *Special function execution* — `mac` (the [`Sfu`] wrappers).
//!
//! `ledger` bills every phase and [`Engine::finish`] folds the bill.
//!
//! ## Parallelism and timing
//!
//! Functionally a single working CAM+MAC pair executes every block (results
//! are bit-identical to running on 2048 banks). Timing models the real
//! parallelism with one wave schedule
//! ([`wave_schedule`](gaasx_sim::pipeline::wave_schedule)): the controller
//! fills the `num_banks` banks with consecutive blocks — within a wave,
//! streaming from the storage arrays is serial at `stream_bandwidth_gbps`
//! while row programming and compute run bank-parallel, and waves overlap
//! load-with-compute through the double-buffered pipeline model
//! ([`gaasx_sim::pipeline`]).

mod ledger;
mod load;
mod mac;
mod search;
mod sweep;

use gaasx_graph::{CooGraph, GraphError};
use gaasx_sim::{Nanos, Tracer};
use gaasx_xbar::fault::{CamFaultState, MacFaultState};
use gaasx_xbar::noise::NoiseModel;
use gaasx_xbar::{CamCrossbar, HitVector, MacCrossbar, VoteTally};

use crate::algorithms::SearchProfile;
use crate::config::GaasXConfig;
use crate::error::CoreError;
use crate::sfu::Sfu;
use ledger::Ledger;
pub use load::CellLayout;
use load::{LoadKeys, RowMap};
pub use sweep::{Block, Keys};

/// Per-device endurance wear captured from an engine's crossbar banks.
///
/// A serving layer snapshots wear before replacing an engine (e.g. after a
/// worker panic) and restores it into the replacement, so degradation
/// accumulates on the modeled bank. Empty vectors mean tracking is off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WearSnapshot {
    /// Per-CAM-row programming-burst counts.
    pub cam_rows: Vec<u64>,
    /// Per-MAC-cell programming-pulse counts, indexed `row * cols + col`.
    pub mac_cells: Vec<u64>,
}

impl WearSnapshot {
    /// True when no wear was tracked (endurance disabled or no faults).
    pub fn is_empty(&self) -> bool {
        self.cam_rows.is_empty() && self.mac_cells.is_empty()
    }

    /// Total programming events recorded across both banks.
    pub fn total_writes(&self) -> u64 {
        self.cam_rows
            .iter()
            .chain(self.mac_cells.iter())
            .fold(0u64, |acc, &w| acc.saturating_add(w))
    }
}

/// The execution engine (see module docs).
#[derive(Debug)]
pub struct Engine {
    config: GaasXConfig,
    /// [`GaasXConfig::edge_stream_ns`], rounded once at build time.
    edge_stream_ns: Nanos,
    /// [`GaasXConfig::sfu_lane_ns`], rounded once at build time.
    sfu_lane_ns: Nanos,
    cam: CamCrossbar,
    mac: MacCrossbar,
    aux_mac: MacCrossbar,
    sfu: Sfu,
    /// What the run has billed.
    ledger: Ledger,
    /// Functional (serial) time cursor for span placement.
    cursor_ns: Nanos,
    /// Whether block costs keep their per-operation ledger (derived from
    /// [`Tracer::observes_intervals`] at `set_tracer` time; sharded
    /// worker engines have it forced on by the primary).
    record_ops: bool,
    tracer: Tracer,
    /// Per-query modeled-time budget; checked cooperatively at block
    /// boundaries (see [`Engine::set_deadline`]).
    deadline_ns: Option<Nanos>,
    /// Whether the config injects any device faults: gates every recovery
    /// path, so a fault-free engine bills as if there were none.
    fault_active: bool,
    rows: RowMap,
    keys: LoadKeys,
    scratch: Scratch,
}

/// Buffers reused from call to call, so a warm engine allocates nothing.
#[derive(Debug)]
struct Scratch {
    /// CAM keys and MAC codes of the block being loaded.
    key_buf: Vec<u128>,
    codes_buf: Vec<u32>,
    /// The re-searches and the tally of a CAM majority vote.
    vote_b: HitVector,
    vote_c: HitVector,
    tally: VoteTally,
    /// MAC inputs of [`Engine::gather_rows`], and MAC outputs (one sum
    /// per crossed line).
    inputs_buf: Vec<u32>,
    mac_out: Vec<u64>,
    /// The source and destination vertex words behind every [`Block`] of
    /// [`Engine::sweep`], and the scratch that derives them.
    srcs_buf: Vec<(u32, u64)>,
    dsts_buf: Vec<(u32, u64)>,
    words_scratch: Vec<u64>,
    /// The hit list and MAC results of [`Engine::propagate_src`].
    hits_buf: HitVector,
    results_buf: Vec<(usize, u64)>,
    /// See [`Engine::take_candidates`].
    cands_buf: Vec<Vec<(u32, u64)>>,
}

impl Engine {
    /// Builds an engine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: GaasXConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let mut mac = MacCrossbar::new(config.mac_geometry, config.fidelity);
        let mut aux_mac = MacCrossbar::new(config.mac_geometry, config.fidelity);
        if config.noise_sigma > 0.0 {
            let noise = |seed| Some(NoiseModel::new(config.noise_sigma, seed));
            mac.set_noise(noise(config.noise_seed));
            aux_mac.set_noise(noise(config.noise_seed.wrapping_add(1)));
        }
        let mut cam = CamCrossbar::new(config.cam_geometry);
        // Faults apply to the edge-storage CAM/MAC pair; the auxiliary
        // attribute arrays model ECC-protected storage-class banks and
        // stay clean.
        let fault_active = !config.fault.is_none();
        if fault_active {
            cam.set_faults(Some(CamFaultState::new(config.fault, &config.cam_geometry)));
            mac.set_faults(Some(MacFaultState::new(config.fault, &config.mac_geometry)));
        }
        let rows = config.cam_geometry.rows;
        let max_active_rows = config.mac_geometry.max_active_rows;
        // A fault-free bank reserves no spares.
        let spares = if fault_active {
            config.recovery.spare_rows
        } else {
            0
        };
        Ok(Engine {
            cam,
            mac,
            aux_mac,
            sfu: Sfu::new(),
            ledger: Ledger::new(max_active_rows),
            cursor_ns: Nanos::ZERO,
            record_ops: false,
            tracer: Tracer::null(),
            deadline_ns: None,
            fault_active,
            rows: RowMap::new(rows, spares, max_active_rows),
            keys: LoadKeys::default(),
            scratch: Scratch {
                key_buf: Vec::with_capacity(rows),
                codes_buf: Vec::new(),
                vote_b: HitVector::new(0),
                vote_c: HitVector::new(0),
                tally: VoteTally::default(),
                inputs_buf: Vec::with_capacity(max_active_rows),
                mac_out: Vec::new(),
                srcs_buf: Vec::new(),
                dsts_buf: Vec::new(),
                words_scratch: Vec::new(),
                hits_buf: HitVector::new(0),
                results_buf: Vec::new(),
                cands_buf: Vec::new(),
            },
            edge_stream_ns: config.edge_stream_ns(),
            sfu_lane_ns: config.sfu_lane_ns(),
            config,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GaasXConfig {
        &self.config
    }

    /// Accepts an algorithm's declared [`SearchProfile`] and ignores it:
    /// the CAM has one host search path. It stays for callers that still
    /// declare a profile.
    pub fn set_search_profile(&mut self, _profile: SearchProfile) {}

    /// Attaches a tracer: every subsequent operation emits a phase span on
    /// the engine's functional (serial) time axis, and `finish` publishes
    /// the op counters and per-bank dispatch events through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.record_ops = tracer.observes_intervals();
        self.tracer = tracer;
    }

    /// Forces the per-operation ledger on or off regardless of the tracer:
    /// the sharded layer's workers feed the primary's timeline.
    pub(crate) fn set_record_ops(&mut self, on: bool) {
        self.record_ops = on;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Maximum edges per block: CAM rows per bank, minus the spare rows a
    /// fault-injecting engine reserves for remapping.
    pub fn block_capacity(&self) -> usize {
        self.rows.slots()
    }

    /// Whether write-verify is in effect (faults injected *and* the policy
    /// asks for verification).
    fn verify_on(&self) -> bool {
        self.fault_active && self.config.recovery.write_verify
    }

    /// Weight precision of the MAC cells in bits.
    pub fn weight_bits(&self) -> u32 {
        self.config.mac_geometry.weight_bits()
    }

    /// Absorbs the functional activity of a sibling worker engine: device
    /// stats, SFU counters and the worker's whole [`Ledger`] but its block
    /// costs, which travel separately — in canonical stream order — via
    /// [`Engine::drain_costs`] / [`Engine::append_costs`].
    pub(crate) fn absorb_functional(&mut self, worker: &Engine) {
        self.cam.merge_stats(worker.cam.stats());
        self.mac.merge_stats(worker.mac.stats());
        self.aux_mac.merge_stats(worker.aux_mac.stats());
        self.cam.merge_fault_stats(worker.cam.fault_stats());
        self.mac.merge_fault_stats(worker.mac.fault_stats());
        self.sfu.merge(&worker.sfu);
        self.ledger.merge(&worker.ledger);
    }

    /// Clears every per-run accumulator so a resident engine serves its
    /// next query with a clean report. Device state stays: CAM/MAC
    /// contents, wear maps and spare-row remappings survive. The deadline
    /// is cleared, and the ordinals the fault draws key on restart, so the
    /// next query draws exactly as on a fresh engine.
    pub fn reset_accounting(&mut self) {
        self.keys = LoadKeys::default();
        self.aux_mac.set_draw_key(0);
        self.ledger.reset(self.config.mac_geometry.max_active_rows);
        self.cursor_ns = Nanos::ZERO;
        self.deadline_ns = None;
        self.sfu.reset();
        self.cam.reset_stats();
        self.mac.reset_stats();
        self.aux_mac.reset_stats();
        self.cam.reset_fault_stats();
        self.mac.reset_fault_stats();
    }

    /// Captures the endurance wear accumulated in the CAM/MAC banks, for
    /// carry-over into a replacement engine on the same modeled bank.
    pub fn wear_snapshot(&self) -> WearSnapshot {
        WearSnapshot {
            cam_rows: self.cam.fault_wear().unwrap_or_default().to_vec(),
            mac_cells: self.mac.fault_wear().unwrap_or_default().to_vec(),
        }
    }

    /// Restores a wear snapshot taken from a previous incarnation of the
    /// same bank (no-op on geometry mismatch or when faults are off).
    pub fn restore_wear(&mut self, snapshot: &WearSnapshot) {
        self.cam.restore_fault_wear(&snapshot.cam_rows);
        self.mac.restore_fault_wear(&snapshot.mac_cells);
    }
}

/// Streams a graph as blocks of at most `block_size` edges, ordered by the
/// GridGraph-style shard layout (§II-B): the graph is partitioned into a
/// 16×16 interval grid and non-empty shards are visited in the requested
/// order, each chunked to the bank capacity.
///
/// # Errors
///
/// Returns a graph error if the graph has no vertices.
pub fn partition_for_streaming(
    graph: &CooGraph,
) -> Result<gaasx_graph::partition::GridPartition, GraphError> {
    gaasx_graph::partition::GridPartition::with_num_intervals(graph, 16)
}

#[cfg(test)]
mod tests {
    //! Helpers shared by every engine module's tests, and the tests of
    //! this one.

    use super::*;
    use crate::config::RecoveryPolicy;
    use gaasx_graph::{generators, Edge, VertexId};
    use gaasx_xbar::FaultModel;

    pub(super) fn engine() -> Engine {
        Engine::new(GaasXConfig::small()).unwrap()
    }

    /// Edge weights in MAC column 0 and a constant 1 in column 1.
    fn weight_and_one(edges: &[Edge], c: &mut Vec<u32>) {
        for e in edges {
            c.extend_from_slice(&[e.weight as u32, 1]);
        }
    }

    pub(super) const WEIGHT_AND_ONE: CellLayout<'static> = CellLayout::PerEdge {
        width: 2,
        fill: &weight_and_one,
    };

    /// Loads the paper's Fig 7 graph as one block; returns its edges, which
    /// sit at CAM/MAC rows `0..8` in order.
    pub(super) fn fig7_block(engine: &mut Engine) -> Vec<Edge> {
        let g = generators::paper_fig7_graph();
        engine.load_block(g.edges(), WEIGHT_AND_ONE).unwrap();
        g.edges().to_vec()
    }

    pub(super) fn src_hits(e: &mut Engine, src: u32) -> HitVector {
        let mut hits = HitVector::new(0);
        e.search_src_into(VertexId::new(src), &mut hits);
        hits
    }

    pub(super) fn dst_hits(e: &mut Engine, dst: u32) -> HitVector {
        let mut hits = HitVector::new(0);
        e.search_dst_into(VertexId::new(dst), &mut hits);
        hits
    }

    pub(super) fn faulty(fault: FaultModel, recovery: RecoveryPolicy) -> Engine {
        Engine::new(GaasXConfig {
            fault,
            recovery,
            ..GaasXConfig::small()
        })
        .unwrap()
    }

    /// One edge per slot with distinct src/dst keys and a weight-3 code —
    /// fills the whole block so positional stuck faults get exercised.
    pub(super) fn full_block_edges(capacity: usize) -> Vec<Edge> {
        (0..capacity as u32)
            .map(|i| Edge::new(i, 1000 + i, 3.0))
            .collect()
    }

    #[test]
    fn recovery_policy_is_inert_without_faults() {
        let run = |e: &mut Engine| {
            let _b = fig7_block(e);
            let hits = dst_hits(e, 1);
            e.gather_rows(&hits, |_| 1, 0).unwrap()
        };
        let mut plain = engine();
        let mut guarded = faulty(FaultModel::none(), RecoveryPolicy::standard());
        assert_eq!(guarded.block_capacity(), plain.block_capacity());
        assert_eq!(run(&mut guarded), run(&mut plain));
        let want = plain.finish("t", "t", "t", 1, 8);
        let got = guarded.finish("t", "t", "t", 1, 8);
        assert_eq!(got.ops, want.ops);
        assert_eq!(got.elapsed_ns, want.elapsed_ns);
        assert_eq!(got.energy.total_nj(), want.energy.total_nj());
        assert!(got.faults.is_zero());
        assert_eq!(got.ops.verify_reads, 0);
    }

    #[test]
    fn wear_snapshot_round_trips_across_engine_incarnations() {
        let cfg = GaasXConfig {
            fault: FaultModel {
                seed: 9,
                endurance: 1_000_000,
                ..FaultModel::none()
            },
            ..GaasXConfig::small()
        };
        let mut e = Engine::new(cfg.clone()).unwrap();
        assert!(e.wear_snapshot().is_empty() || e.wear_snapshot().total_writes() == 0);
        let _b = fig7_block(&mut e);
        let snap = e.wear_snapshot();
        assert!(!snap.is_empty(), "endurance tracking is on");
        assert!(snap.total_writes() > 0, "programming pulses recorded");

        let mut replacement = Engine::new(cfg).unwrap();
        assert_eq!(replacement.wear_snapshot().total_writes(), 0);
        replacement.restore_wear(&snap);
        assert_eq!(replacement.wear_snapshot(), snap);

        // A fault-free engine has no wear to snapshot and ignores restores.
        let mut clean = engine();
        assert!(clean.wear_snapshot().is_empty());
        clean.restore_wear(&snap);
        assert!(clean.wear_snapshot().is_empty());
    }
}
