//! The GaaS-X execution engine: controller-level primitives over the
//! CAM/MAC crossbar banks.
//!
//! Algorithms program against this engine using the paper's five-phase
//! model (§III-B):
//!
//! 1. *Initialization* — [`Engine::new`];
//! 2. *Data loading* — [`Engine::sweep`] streams a shard block by block:
//!    [`Engine::load_block`] writes each block of ≤128 edges into a
//!    CAM+MAC bank pair, and the sweep hands the algorithm a [`Block`]
//!    with its distinct vertices;
//! 3. *CAM search* — [`Engine::search_src_into`] /
//!    [`Engine::search_dst_into`];
//! 4. *MAC operation* — [`Engine::gather_rows`] (SpMV-multiply style
//!    accumulation down columns) and [`Engine::propagate_rows_into`]
//!    (SpMV-add style per-row sums through the transposed array);
//! 5. *Special function execution* — the [`Sfu`] wrappers.
//!
//! ## Parallelism and timing
//!
//! Functionally a single working CAM+MAC pair executes every block (results
//! are bit-identical to running on 2048 banks). Timing models the real
//! parallelism with one wave schedule ([`wave_schedule`]): the controller
//! fills the `num_banks` banks with consecutive blocks — within a wave,
//! streaming from the storage arrays is serial at `stream_bandwidth_gbps`
//! while row programming and compute run bank-parallel, and waves overlap
//! load-with-compute through the double-buffered pipeline model
//! ([`gaasx_sim::pipeline`]).

use gaasx_graph::{CooGraph, Edge, GraphError, VertexId};
use gaasx_sim::pipeline::{
    pipelined_makespan, serial_makespan, wave_schedule, wave_stages, BlockStages, PhasePipe, Wave,
};
use gaasx_sim::timeline::{COMPUTE_LANE, LOAD_LANE, SEARCH_LANE};
use gaasx_sim::{
    attribute_makespan, EnergyBreakdown, FaultReport, Histogram, Nanos, OpSummary, Phase,
    RunReport, SramBuffer, Timeline, Tracer, UtilizationReport, CONTROLLER_BANK,
};
use gaasx_xbar::fault::{CamFaultState, MacFaultState};
use gaasx_xbar::{CamCrossbar, HitVector, MacCrossbar, MacDirection, XbarStats};

use crate::algorithms::SearchProfile;
use crate::config::GaasXConfig;
use crate::error::CoreError;
use crate::sfu::Sfu;

/// Sentinel for a physical row that maps to no logical slot (a free or
/// retired row).
const UNMAPPED: usize = usize::MAX;

/// How the MAC cells of a block are populated during data loading.
#[derive(Clone, Copy)]
pub enum CellLayout<'a> {
    /// Write per-edge codes (e.g. edge weights, reciprocal out-degrees),
    /// `width` per MAC row. `fill` appends the whole block's codes,
    /// row-major — edge `i`'s row is `codes[i * width..(i + 1) * width]` —
    /// to a buffer the engine clears and reuses, so loading issues one
    /// closure call per block and no heap allocation once warm.
    PerEdge {
        /// Codes per edge: every MAC row of the block is this wide.
        width: usize,
        /// Appends `width` codes per edge of the block, in edge order.
        fill: &'a dyn Fn(&[Edge], &mut Vec<u32>),
    },
    /// All cells hold a fixed preset code; no per-edge MAC writes are
    /// issued. This is the BFS optimization (§IV: BFS runs "without the
    /// overhead of loading edge weights into MAC crossbars but setting the
    /// edge weight columns to a fixed value of 1").
    Preset,
}

impl std::fmt::Debug for CellLayout<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellLayout::PerEdge { width, .. } => {
                write!(f, "CellLayout::PerEdge {{ width: {width}, .. }}")
            }
            CellLayout::Preset => f.write_str("CellLayout::Preset"),
        }
    }
}

/// Which distinct-vertex lists [`Engine::sweep`] derives for each block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Distinct sources only (frontier traversals search the source field).
    Srcs,
    /// Distinct destinations only (gathers search the destination field).
    Dsts,
    /// Both lists (collaborative filtering searches items, then users).
    Both,
}

/// A loaded block as the controller sees it (§III-A): the edges at its
/// CAM/MAC rows, borrowed from the shard, and the ascending distinct
/// vertices of the field(s) named by the sweep's [`Keys`]. The lists live
/// in buffers the sweep reuses from block to block, so a block costs no
/// allocation.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    rows: &'a [Edge],
    keys: Keys,
    srcs: &'a [VertexId],
    dsts: &'a [VertexId],
}

impl<'a> Block<'a> {
    /// The edge stored at a CAM/MAC row.
    ///
    /// # Panics
    ///
    /// Panics if `row` exceeds the block occupancy.
    pub fn edge(&self, row: usize) -> Edge {
        self.rows[row]
    }

    /// Distinct source vertices, ascending (the controller tracks loaded
    /// vertex ranges as graph metadata, §III-A). Derived only when the
    /// sweep asked for [`Keys::Srcs`] or [`Keys::Both`].
    pub fn distinct_srcs(&self) -> &'a [VertexId] {
        debug_assert!(self.keys != Keys::Dsts, "no source list derived");
        self.srcs
    }

    /// Distinct destination vertices, ascending. Derived only when the
    /// sweep asked for [`Keys::Dsts`] or [`Keys::Both`].
    pub fn distinct_dsts(&self) -> &'a [VertexId] {
        debug_assert!(self.keys != Keys::Srcs, "no destination list derived");
        self.dsts
    }
}

/// Overwrites `out` with the ascending, deduplicated values of one edge
/// field of `rows`, reusing its capacity.
///
/// A field whose values span fewer than 64 ids per row is marked in
/// `bitmap` (also reused) and read back in ascending order: linear time,
/// no sort. A full block of a partition shard qualifies whenever the
/// partition's vertex intervals (`|V|/16` ids) are narrower than that,
/// e.g. up to 131,072 vertices on 128-row banks. A wider span falls back
/// to sort + dedup.
fn distinct_into(
    rows: &[Edge],
    field: fn(&Edge) -> VertexId,
    out: &mut Vec<VertexId>,
    bitmap: &mut Vec<u64>,
) {
    out.clear();
    if rows.is_empty() {
        return;
    }
    let (mut min, mut max) = (u32::MAX, 0);
    for e in rows {
        let v = field(e).raw();
        min = min.min(v);
        max = max.max(v);
    }
    let span = (max - min) as usize;
    if span >= 64 * rows.len() {
        out.extend(rows.iter().map(field));
        out.sort_unstable();
        out.dedup();
        return;
    }
    bitmap.clear();
    bitmap.resize(span / 64 + 1, 0);
    for e in rows {
        let offset = (field(e).raw() - min) as usize;
        bitmap[offset / 64] |= 1 << (offset % 64);
    }
    for (w, &word) in bitmap.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            out.push(VertexId::new(min + (64 * w) as u32 + word.trailing_zeros()));
            word &= word - 1;
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCost {
    stream_ns: Nanos,
    program_ns: Nanos,
    compute_ns: Nanos,
    /// Partition of `compute_ns` by [`Phase`] (indexed by `Phase::index`).
    /// Scheduling consumes the total; phase attribution the split.
    compute_phase_ns: [Nanos; 7],
    /// Per-operation `(phase, ns)` ledger in issue order, kept only when
    /// the attached tracer observes timeline intervals. Timeline
    /// construction replays it to lay each compute op on its bank's
    /// occupancy track; summing the entries per phase reproduces
    /// `compute_phase_ns` exactly.
    ops: Vec<(Phase, Nanos)>,
    /// Intra-block search/MAC overlap clock, fed one op at a time as the
    /// ledger accrues. Its makespan is the block's *pipelined* compute
    /// time, which scheduling consumes; `compute_ns` stays the serial sum
    /// so phase attribution and busy conservation are untouched by the
    /// overlap model.
    pipe: PhasePipe,
}

impl BlockCost {
    fn add_phase(&mut self, phase: Phase, ns: Nanos, record_op: bool) {
        self.compute_ns += ns;
        self.compute_phase_ns[phase.index()] += ns;
        if phase == Phase::CamSearch {
            self.pipe.search(ns);
        } else {
            self.pipe.compute(ns);
        }
        if record_op {
            self.ops.push((phase, ns));
        }
    }

    /// The block's compute time under the search/MAC overlap pipeline.
    /// For blocks without CAM searches this equals `compute_ns`.
    fn pipelined_compute_ns(&self) -> Nanos {
        self.pipe.makespan()
    }
}

/// Per-device endurance wear captured from an engine's crossbar banks.
///
/// A serving layer snapshots wear before tearing an engine down (e.g. to
/// replace a worker after a panic) and restores it into the replacement so
/// physical degradation accumulates across engine incarnations on the
/// same modeled bank. Empty vectors mean endurance tracking is off.
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
    input_buf: SramBuffer,
    output_buf: SramBuffer,
    attr_buf: SramBuffer,
    rows_per_mac: Histogram,
    costs: Vec<BlockCost>,
    current: BlockCost,
    in_block: bool,
    extra_ns: Nanos,
    extra_phase_ns: [Nanos; 7],
    phase_counts: [u64; 7],
    compute_items: u64,
    extra_aux_row_writes: u64,
    extra_aux_cells: u64,
    tracer: Tracer,
    /// Whether block costs keep their per-operation ledger (derived from
    /// [`Tracer::observes_intervals`] at `set_tracer` time; sharded
    /// worker engines have it forced on by the primary).
    record_ops: bool,
    /// Functional (serial) time cursor for span placement.
    cursor_ns: Nanos,
    /// Per-query modeled-time budget; checked cooperatively at block
    /// boundaries (see [`Engine::set_deadline`]).
    deadline_ns: Option<Nanos>,
    /// Whether the config injects any device faults. Gates every recovery
    /// code path so a fault-free engine is bit-identical to one predating
    /// the fault layer.
    fault_active: bool,
    /// Logical block slot → physical CAM/MAC row. Identity until a remap
    /// retires a row; `remap_active` guards the identity fast path.
    log2phys: Vec<usize>,
    /// Physical row → logical slot ([`UNMAPPED`] for spares and retired
    /// rows).
    phys2log: Vec<usize>,
    /// Edges in the loaded block: slots `0..block_len` hold its edges.
    block_len: usize,
    /// Free spare physical rows, popped in ascending row order.
    spares: Vec<usize>,
    /// `true` once any slot maps away from its identity row.
    remap_active: bool,
    /// Scratch for translating a logical activation chunk to physical rows
    /// (preallocated: the translation sits inside the MAC hot loops).
    phys_buf: Vec<usize>,
    /// Recovery activity detected by this engine (verify reads, retries,
    /// remaps); merged across sharded workers and surfaced in the report.
    faults: FaultReport,
    /// CAM key sequence of the block being loaded: one bulk
    /// [`CamCrossbar::program_block`] write, or the verified per-slot loop.
    key_buf: Vec<u128>,
    /// Reused MAC-code buffer for [`CellLayout::PerEdge`] loading.
    codes_buf: Vec<u32>,
    /// The three votes of a CAM majority vote: the first swapped out of
    /// the caller's buffer, then the two re-searches.
    vote_a: HitVector,
    vote_b: HitVector,
    vote_c: HitVector,
    /// Reused MAC input buffer for [`Engine::gather_rows`].
    inputs_buf: Vec<u32>,
    /// Reused MAC output buffer (one accumulated sum per crossed line).
    mac_out: Vec<u64>,
    /// The distinct-source and distinct-destination lists behind every
    /// [`Block`] of [`Engine::sweep`], and the bitmap that derives them,
    /// reused from load to load.
    srcs_buf: Vec<VertexId>,
    dsts_buf: Vec<VertexId>,
    bitmap_buf: Vec<u64>,
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
            mac.set_noise(Some(gaasx_xbar::noise::NoiseModel::new(
                config.noise_sigma,
                config.noise_seed,
            )));
            aux_mac.set_noise(Some(gaasx_xbar::noise::NoiseModel::new(
                config.noise_sigma,
                config.noise_seed.wrapping_add(1),
            )));
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
        let reserved = if fault_active {
            config.recovery.spare_rows
        } else {
            0
        };
        let capacity = rows - reserved;
        let mut phys2log = vec![UNMAPPED; rows];
        for (slot, entry) in phys2log.iter_mut().enumerate().take(capacity) {
            *entry = slot;
        }
        let phys_buf = Vec::with_capacity(config.mac_geometry.max_active_rows);
        Ok(Engine {
            cam,
            mac,
            aux_mac,
            sfu: Sfu::new(),
            input_buf: SramBuffer::input_16kb(),
            output_buf: SramBuffer::output_64kb(),
            attr_buf: SramBuffer::attribute_512kb(),
            rows_per_mac: Histogram::new(config.mac_geometry.max_active_rows),
            costs: Vec::new(),
            current: BlockCost::default(),
            in_block: false,
            extra_ns: Nanos::ZERO,
            extra_phase_ns: [Nanos::ZERO; 7],
            phase_counts: [0; 7],
            compute_items: 0,
            extra_aux_row_writes: 0,
            extra_aux_cells: 0,
            tracer: Tracer::null(),
            record_ops: false,
            cursor_ns: Nanos::ZERO,
            deadline_ns: None,
            fault_active,
            log2phys: (0..capacity).collect(),
            phys2log,
            block_len: 0,
            // Descending storage so `pop` hands out spares in ascending
            // physical-row order.
            spares: (capacity..rows).rev().collect(),
            remap_active: false,
            phys_buf,
            faults: FaultReport::default(),
            key_buf: Vec::with_capacity(rows),
            codes_buf: Vec::new(),
            vote_a: HitVector::new(0),
            vote_b: HitVector::new(0),
            vote_c: HitVector::new(0),
            inputs_buf: Vec::with_capacity(config.mac_geometry.max_active_rows),
            mac_out: Vec::new(),
            srcs_buf: Vec::new(),
            dsts_buf: Vec::new(),
            bitmap_buf: Vec::new(),
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
    /// the CAM has one host search path, so there is nothing to choose.
    /// Nothing in the library calls this; it stays for callers that still
    /// declare a profile.
    pub fn set_search_profile(&mut self, _profile: SearchProfile) {}

    /// Attaches a tracer: every subsequent operation emits a phase span on
    /// the engine's functional (serial) time axis, and `finish` publishes
    /// the op counters and per-bank dispatch events through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.record_ops = tracer.observes_intervals();
        self.tracer = tracer;
    }

    /// Forces the per-operation ledger on or off regardless of this
    /// engine's own tracer. The sharded layer uses this on worker engines
    /// (which carry null or memory-sink tracers) so their block costs
    /// still feed the primary's timeline.
    pub(crate) fn set_record_ops(&mut self, on: bool) {
        self.record_ops = on;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Counts one operation in `phase`, advances the functional-time
    /// cursor, and emits a leaf span when tracing is on.
    fn trace_op(&mut self, phase: Phase, dur_ns: Nanos) {
        self.phase_counts[phase.index()] = self.phase_counts[phase.index()].saturating_add(1);
        let start = self.cursor_ns;
        self.cursor_ns += dur_ns;
        // The span/telemetry boundary is untyped; `.ns()` marks the exit
        // from the typed accounting, and costs a conversion per op, so only
        // a live tracer pays it.
        if self.tracer.enabled() {
            self.tracer.emit(phase, start.ns(), dur_ns.ns());
        }
    }

    /// Maximum edges per block: CAM rows per bank, minus the spare rows
    /// reserved for remapping when fault injection is active. With a
    /// fault-free config the full row count is usable, so the fault layer
    /// costs nothing when off.
    pub fn block_capacity(&self) -> usize {
        if self.fault_active {
            self.config.cam_geometry.rows - self.config.recovery.spare_rows
        } else {
            self.config.cam_geometry.rows
        }
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

    /// Presets every MAC cell of the working bank to `code` without
    /// counting writes — one-time array configuration (BFS's all-ones
    /// weight columns).
    ///
    /// Uses the uncounted preload path so any MAC statistics accumulated
    /// *before* the preset survive it. (An earlier implementation probed
    /// with counted writes and then reset the stats, silently wiping all
    /// prior device activity whenever work preceded the preset.)
    ///
    /// # Errors
    ///
    /// Returns a device error if `code` exceeds the cell range.
    pub fn preset_mac(&mut self, code: u32) -> Result<(), CoreError> {
        let g = self.config.mac_geometry;
        let codes = vec![code; g.cols];
        for row in 0..g.rows {
            self.mac.preload_row(row, &codes)?;
        }
        if self.verify_on() {
            self.audit_preset(code)?;
        }
        Ok(())
    }

    /// Post-preset health check: read back every mapped slot and every
    /// spare. Spares that fail are dropped from the pool (a remap target
    /// must hold the preset correctly); mapped slots that fail remap onto a
    /// pre-validated spare. Verify reads are charged as data-loading time.
    fn audit_preset(&mut self, code: u32) -> Result<(), CoreError> {
        let cols = self.config.mac_geometry.cols;
        let per_row_ns = self.config.energy.verify_read_ns;
        let mut verify_ns = Nanos::ZERO;
        let spares = std::mem::take(&mut self.spares);
        let mut good = Vec::with_capacity(spares.len());
        for spare in spares {
            verify_ns += per_row_ns;
            self.faults.verify_reads = self.faults.verify_reads.saturating_add(1);
            if self.preset_row_ok(spare, code, cols)? {
                good.push(spare);
            } else {
                self.faults.faults_detected = self.faults.faults_detected.saturating_add(1);
            }
        }
        self.spares = good;
        for slot in 0..self.log2phys.len() {
            verify_ns += per_row_ns;
            self.faults.verify_reads = self.faults.verify_reads.saturating_add(1);
            if !self.preset_row_ok(self.log2phys[slot], code, cols)? {
                self.faults.faults_detected = self.faults.faults_detected.saturating_add(1);
                self.remap_slot(slot)?;
            }
        }
        self.add_compute(Phase::LoadBlock, verify_ns);
        self.trace_op(Phase::LoadBlock, verify_ns);
        Ok(())
    }

    fn preset_row_ok(&self, phys: usize, code: u32, cols: usize) -> Result<bool, CoreError> {
        for col in 0..cols {
            if self.mac.read_cell(phys, col)? != code {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Retires the physical row behind `slot` and maps the slot onto the
    /// next spare. The retired row is invalidated in the CAM so stale bits
    /// can never match a search.
    fn remap_slot(&mut self, slot: usize) -> Result<(), CoreError> {
        let phys = self.log2phys[slot];
        let Some(spare) = self.spares.pop() else {
            return Err(CoreError::DeviceFault {
                detail: format!(
                    "physical row {phys} (slot {slot}) is unprogrammable and no spare rows \
                     remain (policy: {} retries, {} spares)",
                    self.config.recovery.retry_budget, self.config.recovery.spare_rows
                ),
                report: None,
            });
        };
        self.cam.invalidate(phys)?;
        self.phys2log[phys] = UNMAPPED;
        self.phys2log[spare] = slot;
        self.log2phys[slot] = spare;
        self.remap_active = true;
        self.faults.row_remaps = self.faults.row_remaps.saturating_add(1);
        if self.tracer.enabled() {
            self.tracer
                .span(Phase::LoadBlock, self.cursor_ns.ns())
                .attr("remap_slot", slot)
                .attr("from_phys", phys)
                .attr("to_phys", spare)
                .end(self.cursor_ns.ns());
        }
        Ok(())
    }

    /// Reads back a just-programmed row and compares against intent.
    fn row_matches(
        &self,
        phys: usize,
        key: u128,
        codes: Option<&[u32]>,
    ) -> Result<bool, CoreError> {
        let entry = self.cam.read(phys)?;
        if !entry.valid || entry.bits != key & self.cam_width_mask() {
            return Ok(false);
        }
        if let Some(codes) = codes {
            for (col, &code) in codes.iter().enumerate() {
                if self.mac.read_cell(phys, col)? != code {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn cam_width_mask(&self) -> u128 {
        let bits = self.config.cam_geometry.width_bits;
        if bits >= 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        }
    }

    /// Programming time of one slot with `width` MAC codes (`None`: no
    /// MAC row): the CAM key programs as one ternary word while the MAC
    /// row programs its values in the paired array concurrently, so the
    /// slower of the two paces the row.
    fn slot_program_ns(&self, width: Option<usize>) -> Nanos {
        let cam_ns = self.config.energy.row_program_ns(1);
        match width {
            Some(w) => cam_ns.max(self.config.energy.row_program_ns(w)),
            None => cam_ns,
        }
    }

    /// Programs one logical slot (CAM key plus optional MAC codes) with
    /// write-verify, bounded retry, and spare-row remapping per the
    /// [`RecoveryPolicy`](crate::RecoveryPolicy). Returns the programming
    /// time spent, including verify reads and every retried attempt.
    fn program_slot(
        &mut self,
        slot: usize,
        key: u128,
        codes: Option<&[u32]>,
    ) -> Result<Nanos, CoreError> {
        let attempt_ns = self.slot_program_ns(codes.map(<[u32]>::len));
        let mut ns = Nanos::ZERO;
        loop {
            let phys = self.log2phys[slot];
            let mut tries: u32 = 0;
            loop {
                self.cam.write(phys, key)?;
                if let Some(c) = codes {
                    self.mac.write_row(phys, c)?;
                }
                ns += attempt_ns;
                ns += self.config.energy.verify_read_ns;
                self.faults.verify_reads = self.faults.verify_reads.saturating_add(1);
                if self.row_matches(phys, key, codes)? {
                    return Ok(ns);
                }
                self.faults.faults_detected = self.faults.faults_detected.saturating_add(1);
                if tries >= self.config.recovery.retry_budget {
                    break;
                }
                tries += 1;
                self.faults.write_retries = self.faults.write_retries.saturating_add(1);
            }
            // Retry budget exhausted on this physical row: remap the slot
            // and reprogram on the spare (or fail if the pool is dry).
            self.remap_slot(slot)?;
        }
    }

    /// Streams a shard through the working CAM+MAC bank block by block:
    /// the controller loop every algorithm runs (§III-A/§III-C).
    ///
    /// `edges` is cut into chunks of [`block_capacity`](Self::block_capacity)
    /// rows. A chunk `filter` rejects is never loaded (the frontier check
    /// of a traversal; dense sweeps accept every chunk). Each accepted
    /// chunk is loaded with [`load_block`](Self::load_block), its distinct
    /// vertices are derived for the fields `keys` names, and `visit` runs
    /// once with the engine and the [`Block`] — it issues the block's
    /// searches, MAC operations and SFU work in whatever order it needs.
    /// The sweep leaves the last block open, as a hand-written loop over
    /// `load_block` would.
    ///
    /// # Errors
    ///
    /// Propagates the first error of a load or a visit; later chunks are
    /// not loaded.
    pub fn sweep(
        &mut self,
        edges: &[Edge],
        cells: CellLayout<'_>,
        keys: Keys,
        mut filter: impl FnMut(&[Edge]) -> bool,
        mut visit: impl FnMut(&mut Engine, &Block<'_>) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        // The lists leave the engine for the sweep so a block can borrow
        // them while `visit` holds the engine mutably. A list `keys` does
        // not name stays empty rather than stale.
        let mut srcs = std::mem::take(&mut self.srcs_buf);
        let mut dsts = std::mem::take(&mut self.dsts_buf);
        let mut bitmap = std::mem::take(&mut self.bitmap_buf);
        srcs.clear();
        dsts.clear();
        let mut swept = Ok(());
        for rows in edges.chunks(self.block_capacity()) {
            if !filter(rows) {
                continue;
            }
            swept = self.load_block(rows, cells).and_then(|()| {
                if keys != Keys::Dsts {
                    distinct_into(rows, |e| e.src, &mut srcs, &mut bitmap);
                }
                if keys != Keys::Srcs {
                    distinct_into(rows, |e| e.dst, &mut dsts, &mut bitmap);
                }
                let block = Block {
                    rows,
                    keys,
                    srcs: &srcs,
                    dsts: &dsts,
                };
                visit(self, &block)
            });
            if swept.is_err() {
                break;
            }
        }
        self.srcs_buf = srcs;
        self.dsts_buf = dsts;
        self.bitmap_buf = bitmap;
        swept
    }

    /// Fills `codes` with the block's MAC codes for `cells` and checks
    /// them against the MAC geometry, touching no device. Returns the row
    /// width, or `None` for a [`CellLayout::Preset`] block.
    fn fill_codes(
        &self,
        edges: &[Edge],
        cells: CellLayout<'_>,
        codes: &mut Vec<u32>,
    ) -> Result<Option<usize>, CoreError> {
        codes.clear();
        let CellLayout::PerEdge { width, fill } = cells else {
            return Ok(None);
        };
        fill(edges, codes);
        self.mac
            .check_block(codes, width, edges.len())
            .map_err(|e| CoreError::InvalidInput(format!("block cell codes: {e}")))?;
        Ok(Some(width))
    }

    /// Loads a block of edges into the working CAM+MAC bank (data loading
    /// phase). Ends any previous block. Algorithms reach this through
    /// [`Engine::sweep`], which also builds the block's [`Block`] view;
    /// it stays public so unit tests can program a bank directly.
    ///
    /// The block's MAC codes are filled and checked before anything is
    /// programmed, so a rejected block bills nothing. Without
    /// write-verify the CAM and the MAC each program the whole block in
    /// one bank write ([`CamCrossbar::program_block`],
    /// [`MacCrossbar::program_block`]); with it, every slot programs
    /// through write-verify, retry and remapping.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the block exceeds the bank
    /// capacity, or if its [`CellLayout::PerEdge`] fill holds the wrong
    /// number of codes, a width past the MAC columns or a code past the
    /// cell range.
    pub fn load_block(&mut self, edges: &[Edge], cells: CellLayout<'_>) -> Result<(), CoreError> {
        self.check_deadline()?;
        if edges.len() > self.block_capacity() {
            return Err(CoreError::InvalidInput(format!(
                "block of {} edges exceeds bank capacity {}",
                edges.len(),
                self.block_capacity()
            )));
        }
        let mut codes = std::mem::take(&mut self.codes_buf);
        let width = match self.fill_codes(edges, cells, &mut codes) {
            Ok(width) => width,
            Err(e) => {
                self.codes_buf = codes;
                return Err(e);
            }
        };
        self.end_block();
        self.in_block = true;

        self.block_len = edges.len();

        self.key_buf.clear();
        self.key_buf.extend(
            edges
                .iter()
                .map(|e| (u128::from(e.src.raw()) << 32) | u128::from(e.dst.raw())),
        );
        let mut program_ns = Nanos::ZERO;
        if self.verify_on() {
            // Write-verify keeps the per-slot loop: a retry draws from the
            // CAM's stream before the next row is written, so batching the
            // writes would shift every later fault outcome. Counter-based
            // fault draws, which do not depend on the order of host
            // operations, would let this path go too.
            self.cam.invalidate_all();
            for slot in 0..edges.len() {
                let row_codes = width.map(|w| &codes[slot * w..(slot + 1) * w]);
                program_ns += self.program_slot(slot, self.key_buf[slot], row_codes)?;
            }
        } else {
            // Without verification nothing remaps, so slot `i` is physical
            // row `i` and each array programs the block as one bank write.
            self.cam.program_block(&self.key_buf)?;
            if let Some(w) = width {
                self.mac.program_block(&codes, w, edges.len())?;
            }
            program_ns = self.slot_program_ns(width) * edges.len() as u64;
        }
        self.codes_buf = codes;

        let bytes = edges.len() as u64 * self.config.edge_record_bytes;
        self.input_buf.write(bytes);
        let stream_ns = self.edge_stream_ns * edges.len() as u64;
        self.current.stream_ns = stream_ns;
        self.current.program_ns = program_ns;

        let load_ns = stream_ns + program_ns;
        self.phase_counts[Phase::LoadBlock.index()] =
            self.phase_counts[Phase::LoadBlock.index()].saturating_add(1);
        let start = self.cursor_ns;
        self.cursor_ns += load_ns;
        if self.tracer.enabled() {
            self.tracer
                .span(Phase::LoadBlock, start.ns())
                .attr("edges", edges.len())
                .attr("bytes", bytes)
                .end((start + load_ns).ns());
        }

        Ok(())
    }

    /// CAM search for all edges of the loaded block with the given source
    /// (row-wise key field), into a caller-owned buffer so hot loops
    /// allocate nothing. `hits` is overwritten.
    pub fn search_src_into(&mut self, src: VertexId, hits: &mut HitVector) {
        self.searched_into(u128::from(src.raw()) << 32, 0xFFFF_FFFF_0000_0000, hits);
    }

    /// CAM search for all edges of the loaded block with the given
    /// destination, into a caller-owned buffer. `hits` is overwritten.
    pub fn search_dst_into(&mut self, dst: VertexId, hits: &mut HitVector) {
        self.searched_into(u128::from(dst.raw()), 0xFFFF_FFFF, hits);
    }

    /// Issues a CAM search, optionally triple-voted against transient
    /// upsets, and translates physical hit rows back to logical slots.
    ///
    /// The search is *always* billed (time, energy, `cam_searches`) as one
    /// physical CAM operation per vote — the hardware searches every time.
    fn searched_into(&mut self, key: u128, mask: u128, out: &mut HitVector) {
        let ns = self.config.energy.cam_search_ns;
        self.current
            .add_phase(Phase::CamSearch, ns, self.record_ops);
        self.trace_op(Phase::CamSearch, ns);
        self.cam.search_into(key, mask, out);
        if self.fault_active && self.config.recovery.cam_double_check {
            // Two extra searches; a per-row majority vote masks any single
            // transient upset. Each re-search is charged like the first.
            for _ in 0..2 {
                self.current
                    .add_phase(Phase::CamSearch, ns, self.record_ops);
                self.trace_op(Phase::CamSearch, ns);
            }
            if self.cam.search_draws() {
                self.cam.search_into(key, mask, &mut self.vote_b);
                self.cam.search_into(key, mask, &mut self.vote_c);
                std::mem::swap(out, &mut self.vote_a);
                out.majority3_from(&self.vote_a, &self.vote_b, &self.vote_c);
            } else {
                // Without upsets the re-searches are exact copies of the
                // first and the vote is unanimous: bill them, skip the work.
                self.cam.count_replayed_search();
                self.cam.count_replayed_search();
            }
            self.faults.cam_double_checks = self.faults.cam_double_checks.saturating_add(1);
        }
        if self.remap_active || self.cam.search_draws() {
            // Remapped slots match at their spare's physical row; report
            // them at their logical slot so algorithms stay oblivious to
            // remapping. A search upset can toggle *any* match line, so
            // hits on rows holding no edge of the loaded block (invalid,
            // past its occupancy, or an unmapped spare) are dropped
            // first: algorithms index the block by slot. Without upsets
            // every hit is on a valid mapped row, so nothing drops. A
            // spare sits past the identity rows, so the slots are sorted
            // back into ascending order.
            let (phys2log, block_len, cam) = (&self.phys2log, self.block_len, &self.cam);
            out.translate(|phys| {
                let slot = phys2log[phys];
                (slot < block_len && cam.read(phys).is_ok_and(|e| e.valid)).then_some(slot)
            });
        }
    }

    /// SpMV-multiply accumulation: sums `input(row) × cell[row][out_col]`
    /// over the hit rows, chunked to the ≤16-row burst cap. Each input is
    /// fetched from the attribute buffer (4 bytes). Returns the raw
    /// accumulated code.
    ///
    /// # Errors
    ///
    /// Propagates device errors (they indicate engine bugs, not bad user
    /// input).
    pub fn gather_rows(
        &mut self,
        hits: &HitVector,
        mut input: impl FnMut(usize) -> u32,
        out_col: usize,
    ) -> Result<u64, CoreError> {
        let mut total: u64 = 0;
        let cap = self.config.mac_geometry.max_active_rows;
        // gaasx-lint: hot
        for (i, chunk) in hits.rows().chunks(cap).enumerate() {
            self.inputs_buf.clear();
            for &row in chunk {
                self.attr_buf.read(4);
                self.inputs_buf.push(input(row));
            }
            // Only `out_col` is consumed, so the device restricts the
            // functional evaluation to that line (the burst is still billed
            // in full, and the all-lines path runs only when a full burst
            // draws random numbers: quantized noise or ADC flips).
            let active =
                physical_rows(self.remap_active, &self.log2phys, &mut self.phys_buf, chunk);
            self.mac.mac_lines_into(
                MacDirection::RowsToColumns,
                active,
                &self.inputs_buf,
                &[out_col],
                &mut self.mac_out,
            )?;
            let v = self.mac_out[0];
            self.rows_per_mac.record(chunk.len());
            let ns = self.config.energy.mac_op_ns;
            self.current
                .add_phase(Phase::MacGather, ns, self.record_ops);
            self.trace_op(Phase::MacGather, ns);
            self.compute_items = self.compute_items.saturating_add(chunk.len() as u64);
            total = if i == 0 {
                v
            } else {
                self.sfu_add_u64(total, v)
            };
        }
        // gaasx-lint: end-hot
        Ok(total)
    }

    /// SpMV-add propagation through the transposed array: activates the
    /// given columns with the given inputs and writes, for each hit row,
    /// `(row, Σ inputs[i] × cell[row][cols[i]])` into a caller-owned
    /// buffer, so hot loops allocate nothing (`results` is cleared first).
    /// Hit rows are consumed in ≤16-row groups (the ADC read-out cap), one
    /// MAC burst per group.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn propagate_rows_into(
        &mut self,
        hits: &HitVector,
        cols: &[usize],
        col_inputs: &[u32],
        results: &mut Vec<(usize, u64)>,
    ) -> Result<(), CoreError> {
        results.clear();
        // No hits means no MAC burst — and no attribute fetch either: the
        // controller only stages the column inputs once a burst is issued.
        if hits.rows().is_empty() {
            return Ok(());
        }
        results.reserve(hits.rows().len());
        self.attr_buf.read(4 * col_inputs.len() as u64);
        let cap = self.config.mac_geometry.max_active_rows;
        // gaasx-lint: hot
        for chunk in hits.rows().chunks(cap) {
            // Restricted read-out: only this chunk's (physical) rows are
            // evaluated — billing still covers the full burst, so stats,
            // energy, and modeled time match the full-evaluation path. The
            // device evaluates every line only when a full burst draws
            // random numbers (quantized noise or ADC flips).
            let lines = physical_rows(self.remap_active, &self.log2phys, &mut self.phys_buf, chunk);
            self.mac.mac_lines_into(
                MacDirection::ColumnsToRows,
                cols,
                col_inputs,
                lines,
                &mut self.mac_out,
            )?;
            self.rows_per_mac.record(chunk.len());
            let ns = self.config.energy.mac_op_ns;
            self.current
                .add_phase(Phase::MacPropagate, ns, self.record_ops);
            self.trace_op(Phase::MacPropagate, ns);
            self.compute_items = self.compute_items.saturating_add(chunk.len() as u64);
            results.extend(chunk.iter().copied().zip(self.mac_out.iter().copied()));
        }
        // gaasx-lint: end-hot
        Ok(())
    }

    /// Writes one row of the auxiliary (vertex-attribute) MAC crossbar —
    /// used by collaborative filtering to hold feature matrices. Counted as
    /// data loading.
    ///
    /// # Errors
    ///
    /// Propagates device errors for bad rows or codes.
    pub fn write_aux_row(&mut self, row: usize, codes: &[u32]) -> Result<(), CoreError> {
        self.aux_mac.write_row(row, codes)?;
        let cost = self.config.energy.row_program_ns(codes.len());
        if self.in_block {
            self.current.program_ns += cost;
        } else {
            self.extra_ns += cost;
            self.extra_phase_ns[Phase::LoadBlock.index()] += cost;
        }
        self.trace_op(Phase::LoadBlock, cost);
        Ok(())
    }

    /// Re-materializes an auxiliary row already loaded (and charged) this
    /// pass — the functional working array is multiplexed over the many
    /// physical banks holding attribute data, so this records no device
    /// activity. Charge the actual loading via [`Engine::write_aux_row`] or
    /// [`Engine::load_aux_rows_parallel`].
    ///
    /// # Errors
    ///
    /// Propagates device validation errors.
    pub fn preload_aux_row(&mut self, row: usize, codes: &[u32]) -> Result<(), CoreError> {
        self.aux_mac.preload_row(row, codes)?;
        Ok(())
    }

    /// Charges the loading of `rows` attribute rows of `values_per_row`
    /// logical values each, distributed across the banks of the current
    /// wave: full programming energy, but wall time divided by the bank
    /// count (each bank programs its share concurrently). Used for the
    /// per-shard feature-matrix loading of collaborative filtering
    /// (paper §IV: "The feature vectors of users and items corresponding to
    /// the range of vertex IDs are loaded into different MAC crossbars").
    pub fn load_aux_rows_parallel(&mut self, rows: usize, values_per_row: usize) {
        self.extra_aux_row_writes = self.extra_aux_row_writes.saturating_add(rows as u64);
        self.extra_aux_cells = self
            .extra_aux_cells
            .saturating_add((rows * values_per_row * self.config.mac_geometry.slices) as u64);
        let ns = self.config.energy.row_program_ns(values_per_row) * rows as u64
            / self.config.num_banks as u64;
        self.add_compute(Phase::LoadBlock, ns);
        self.phase_counts[Phase::LoadBlock.index()] =
            self.phase_counts[Phase::LoadBlock.index()].saturating_add(1);
        let start = self.cursor_ns;
        self.cursor_ns += ns;
        if self.tracer.enabled() {
            self.tracer
                .span(Phase::LoadBlock, start.ns())
                .attr("aux_rows", rows)
                .attr("values_per_row", values_per_row)
                .end((start + ns).ns());
        }
    }

    /// MAC over the auxiliary crossbar, rows-to-columns direction.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn aux_mac_rows(
        &mut self,
        active_rows: &[usize],
        inputs: &[u32],
    ) -> Result<Vec<u64>, CoreError> {
        let out = self
            .aux_mac
            .mac(MacDirection::RowsToColumns, active_rows, inputs)?;
        self.rows_per_mac.record(active_rows.len().max(1));
        let ns = self.config.energy.mac_op_ns;
        self.add_compute(Phase::MacGather, ns);
        self.trace_op(Phase::MacGather, ns);
        self.compute_items = self.compute_items.saturating_add(active_rows.len() as u64);
        Ok(out)
    }

    /// MAC over the auxiliary crossbar, columns-to-rows direction.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn aux_mac_cols(
        &mut self,
        active_cols: &[usize],
        inputs: &[u32],
    ) -> Result<Vec<u64>, CoreError> {
        let out = self
            .aux_mac
            .mac(MacDirection::ColumnsToRows, active_cols, inputs)?;
        self.rows_per_mac.record(active_cols.len().max(1));
        let ns = self.config.energy.mac_op_ns;
        self.add_compute(Phase::MacPropagate, ns);
        self.trace_op(Phase::MacPropagate, ns);
        self.compute_items = self.compute_items.saturating_add(active_cols.len() as u64);
        Ok(out)
    }

    fn add_compute(&mut self, phase: Phase, ns: Nanos) {
        if self.in_block {
            self.current.add_phase(phase, ns, self.record_ops);
        } else {
            self.extra_ns += ns;
            self.extra_phase_ns[phase.index()] += ns;
        }
    }

    fn sfu_cost(&mut self) {
        let ns = self.sfu_lane_ns;
        self.add_compute(Phase::Sfu, ns);
        self.trace_op(Phase::Sfu, ns);
    }

    /// SFU scalar add.
    pub fn sfu_add(&mut self, a: f64, b: f64) -> f64 {
        self.sfu_cost();
        self.sfu.add(a, b)
    }

    fn sfu_add_u64(&mut self, a: u64, b: u64) -> u64 {
        self.sfu_cost();
        self.sfu.add_u64(a, b)
    }

    /// SFU scalar multiply.
    pub fn sfu_mul(&mut self, a: f64, b: f64) -> f64 {
        self.sfu_cost();
        self.sfu.mul(a, b)
    }

    /// SFU scalar minimum.
    pub fn sfu_min(&mut self, a: f64, b: f64) -> f64 {
        self.sfu_cost();
        self.sfu.min(a, b)
    }

    /// SFU scalar compare.
    pub fn sfu_less_than(&mut self, a: f64, b: f64) -> bool {
        self.sfu_cost();
        self.sfu.less_than(a, b)
    }

    /// Reads `bytes` of vertex attributes from the on-chip attribute buffer.
    pub fn attr_read(&mut self, bytes: u64) {
        self.attr_buf.read(bytes);
    }

    /// Writes `bytes` of vertex attributes to the on-chip attribute buffer.
    pub fn attr_write(&mut self, bytes: u64) {
        self.attr_buf.write(bytes);
    }

    /// Writes `bytes` of results to the output buffer.
    pub fn output_write(&mut self, bytes: u64) {
        self.output_buf.write(bytes);
    }

    /// Closes the current block, committing its costs to the wave schedule.
    pub fn end_block(&mut self) {
        if self.in_block {
            self.costs.push(std::mem::take(&mut self.current));
            self.in_block = false;
        }
    }

    /// Drains every committed block cost (closing any open block first).
    /// The sharded layer calls this on worker engines after each shard so
    /// the costs can be re-appended to the primary engine in canonical
    /// shard-stream order — which is what makes the merged wave schedule
    /// bit-identical to a serial run.
    pub(crate) fn take_costs(&mut self) -> Vec<BlockCost> {
        self.end_block();
        std::mem::take(&mut self.costs)
    }

    /// Appends block costs drained from a worker engine, preserving order.
    pub(crate) fn append_costs(&mut self, costs: impl IntoIterator<Item = BlockCost>) {
        debug_assert!(!self.in_block, "close the primary's open block first");
        self.costs.extend(costs);
    }

    /// Absorbs the functional activity of a sibling worker engine: device
    /// stats, SFU counters, buffer traffic, the rows-per-MAC histogram,
    /// phase tallies, and out-of-block extras. Block costs travel
    /// separately — in canonical stream order — via
    /// [`Engine::take_costs`] / [`Engine::append_costs`].
    pub(crate) fn absorb_functional(&mut self, worker: &Engine) {
        debug_assert!(
            !worker.in_block && worker.costs.is_empty(),
            "drain worker costs before absorbing"
        );
        self.cam.merge_stats(worker.cam.stats());
        self.mac.merge_stats(worker.mac.stats());
        self.aux_mac.merge_stats(worker.aux_mac.stats());
        self.cam.merge_fault_stats(worker.cam.fault_stats());
        self.mac.merge_fault_stats(worker.mac.fault_stats());
        self.faults.merge(&worker.faults);
        self.sfu.merge(&worker.sfu);
        self.input_buf.merge(&worker.input_buf);
        self.output_buf.merge(&worker.output_buf);
        self.attr_buf.merge(&worker.attr_buf);
        self.rows_per_mac.merge(&worker.rows_per_mac);
        for (acc, v) in self.phase_counts.iter_mut().zip(worker.phase_counts.iter()) {
            *acc = acc.saturating_add(*v);
        }
        self.compute_items = self.compute_items.saturating_add(worker.compute_items);
        self.extra_aux_row_writes = self
            .extra_aux_row_writes
            .saturating_add(worker.extra_aux_row_writes);
        self.extra_aux_cells = self.extra_aux_cells.saturating_add(worker.extra_aux_cells);
        self.extra_ns += worker.extra_ns;
        for (acc, v) in self
            .extra_phase_ns
            .iter_mut()
            .zip(worker.extra_phase_ns.iter())
        {
            *acc += *v;
        }
    }

    /// Total useful edge computations performed so far.
    pub fn compute_items(&self) -> u64 {
        self.compute_items
    }

    /// Sets (or clears) the per-query modeled-time budget, in functional
    /// serial nanoseconds of work performed by *this* engine.
    ///
    /// The budget is checked cooperatively at every
    /// [`load_block`](Engine::load_block) — the natural quantum of GaaS-X
    /// work — so a query that exceeds it fails at the next block boundary
    /// with [`CoreError::Cancelled`] rather than mid-block. The check
    /// reads the monotone functional cursor, which survives the sharded
    /// layer's per-shard cost draining; [`reset_accounting`] rewinds the
    /// cursor so each query on a resident engine gets a fresh budget.
    ///
    /// [`reset_accounting`]: Engine::reset_accounting
    pub fn set_deadline(&mut self, deadline: Option<Nanos>) {
        self.deadline_ns = deadline;
    }

    /// The active per-query modeled-time budget, if any.
    pub fn deadline(&self) -> Option<Nanos> {
        self.deadline_ns
    }

    /// Cooperative cancellation checkpoint: fails once the functional
    /// time cursor has passed the configured deadline.
    fn check_deadline(&self) -> Result<(), CoreError> {
        if let Some(deadline) = self.deadline_ns {
            if self.cursor_ns > deadline {
                return Err(CoreError::Cancelled {
                    detail: format!(
                        "modeled time {} ns exceeds the {} ns deadline at a block boundary",
                        self.cursor_ns, deadline
                    ),
                    report: None,
                });
            }
        }
        Ok(())
    }

    /// Clears every per-run accounting accumulator so a resident engine
    /// can serve its next query with a clean report, while leaving device
    /// state in place: programmed CAM/MAC contents, endurance wear maps,
    /// transient fault RNG streams, and spare-row remappings all survive.
    /// The deadline is cleared (it is per-query).
    pub fn reset_accounting(&mut self) {
        self.costs.clear();
        self.current = BlockCost::default();
        self.in_block = false;
        self.extra_ns = Nanos::ZERO;
        self.extra_phase_ns = [Nanos::ZERO; 7];
        self.phase_counts = [0; 7];
        self.compute_items = 0;
        self.extra_aux_row_writes = 0;
        self.extra_aux_cells = 0;
        self.cursor_ns = Nanos::ZERO;
        self.deadline_ns = None;
        self.faults = FaultReport::default();
        self.rows_per_mac = Histogram::new(self.config.mac_geometry.max_active_rows);
        self.sfu.reset();
        self.input_buf.reset();
        self.output_buf.reset();
        self.attr_buf.reset();
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

    /// Per-phase busy totals (functional serial time per phase) over all
    /// committed blocks plus the out-of-block extras. `LoadBlock` busy is
    /// each block's stream time plus its row-programming time.
    fn phase_busy_ns(&self) -> [Nanos; 7] {
        let mut busy = self.extra_phase_ns;
        for b in &self.costs {
            busy[Phase::LoadBlock.index()] += b.stream_ns + b.program_ns;
            for (acc, ns) in busy.iter_mut().zip(b.compute_phase_ns.iter()) {
                *acc += *ns;
            }
        }
        busy
    }

    /// The block's stage times as the wave schedule consumes them: its
    /// stream, its row programming, and its pipelined compute.
    fn block_stages(&self, b: &BlockCost) -> BlockStages {
        BlockStages {
            stream: b.stream_ns,
            program: b.program_ns,
            compute: b.pipelined_compute_ns(),
        }
    }

    /// Walks the committed blocks through the wave schedule, handing each
    /// wave to `visit`; returns the blocks' makespan (without the
    /// out-of-block extras).
    fn schedule<'a>(&'a self, visit: impl FnMut(Wave<'a, BlockCost>)) -> Nanos {
        wave_schedule(
            &self.costs,
            self.config.num_banks,
            |b| self.block_stages(b),
            visit,
        )
    }

    /// Replays the block schedule, emitting one [`Phase::Dispatch`] span
    /// per block with its bank assignment on the *scheduled* time axis
    /// (unlike operation spans, which live on the serial functional axis).
    fn emit_dispatch_events(&self) {
        if !self.tracer.enabled() {
            return;
        }
        self.schedule(|wave| {
            // Within a wave, bank = position; the span covers the bank's
            // occupancy (program + compute) aligned to the wave's compute
            // window.
            let compute_start = wave.compute_start;
            for (i, b) in wave.blocks.iter().enumerate() {
                self.tracer
                    .span(
                        Phase::Dispatch,
                        (compute_start - b.program_ns).max(Nanos::ZERO).ns(),
                    )
                    .bank(i as u32)
                    .attr("block", wave.first + i)
                    .attr("wave", wave.index)
                    .end((compute_start + b.pipelined_compute_ns()).ns());
            }
        });
    }

    /// Lays one block's occupancy on its bank's tracks: a single load
    /// interval (stream + row programming, the same one-term sum the
    /// accounting fold uses) ending where compute starts, then the
    /// per-operation compute ledger replayed through a fresh [`PhasePipe`]
    /// — CAM searches land on [`SEARCH_LANE`] and everything else on
    /// [`COMPUTE_LANE`], each at the start the pipeline clock assigned, so
    /// the timeline shows the same overlap the makespan was billed for.
    /// Intervals are emitted in op order (the conservation fold consumes
    /// emission order, not placement), and each lane's starts are
    /// monotone (the pipe's unit clocks only move forward), so
    /// [`Timeline::push`]'s cursor clamp never shifts anything.
    fn push_block_intervals(
        &self,
        tl: &mut Timeline,
        bank: u32,
        b: &BlockCost,
        compute_start: Nanos,
        block: u32,
    ) {
        let load_ns = b.stream_ns + b.program_ns;
        tl.push(
            bank,
            LOAD_LANE,
            Phase::LoadBlock,
            compute_start - load_ns,
            load_ns,
            Some(block),
        );
        let mut pipe = PhasePipe::new();
        for &(phase, ns) in &b.ops {
            let (lane, start) = if phase == Phase::CamSearch {
                (SEARCH_LANE, pipe.search(ns))
            } else {
                (COMPUTE_LANE, pipe.compute(ns))
            };
            tl.push(bank, lane, phase, compute_start + start, ns, Some(block));
        }
    }

    /// Replays the committed block schedule into a bank-occupancy
    /// [`Timeline`]: controller extras first (one interval per phase on
    /// the synthetic controller track), then every block's load and
    /// compute intervals placed by the same scheduler math that produced
    /// the makespan. Folding the result per phase reproduces
    /// [`Engine::phase_busy_ns`] exactly.
    fn build_timeline(&self, makespan: Nanos) -> Timeline {
        let mut tl = Timeline::new(makespan);
        for phase in Phase::ALL {
            tl.push(
                CONTROLLER_BANK,
                LOAD_LANE,
                phase,
                Nanos::ZERO,
                self.extra_phase_ns[phase.index()],
                None,
            );
        }
        self.schedule(|wave| {
            for (i, b) in wave.blocks.iter().enumerate() {
                self.push_block_intervals(
                    &mut tl,
                    i as u32,
                    b,
                    wave.compute_start,
                    (wave.first + i) as u32,
                );
            }
        });
        tl
    }

    /// How much of the fully serial wave makespan the pipelines hide:
    /// `(serial − pipelined) / serial`, 0 when there is nothing to
    /// overlap. The serial side sums unpipelined loads and *serial*
    /// per-block compute; the pipelined side double-buffers loads against
    /// the blocks' search/MAC-overlapped compute times, so the ratio
    /// captures both overlap mechanisms (and is positive even for a
    /// single-wave run whose blocks overlapped searches with MACs).
    fn wave_overlap_ratio(&self) -> f64 {
        let waves = self.costs.chunks(self.config.num_banks);
        let mut loads = Vec::with_capacity(waves.len());
        let mut serial_computes = Vec::with_capacity(waves.len());
        let mut piped_computes = Vec::with_capacity(waves.len());
        for wave in waves {
            let stages = wave_stages(wave, |b| self.block_stages(b));
            loads.push(stages.load());
            serial_computes.push(
                wave.iter()
                    .map(|b| b.compute_ns)
                    .fold(Nanos::ZERO, Nanos::max),
            );
            piped_computes.push(stages.compute);
        }
        let serial = serial_makespan(&loads, &serial_computes);
        if serial <= Nanos::ZERO {
            return 0.0;
        }
        (serial - pipelined_makespan(&loads, &piped_computes)) / serial
    }

    /// Assembles the final report: wave-scheduled makespan, energy
    /// breakdown, op summary, the rows-per-MAC histogram, and the
    /// per-phase makespan attribution.
    pub fn finish(
        &mut self,
        engine: &str,
        algorithm: &str,
        workload: &str,
        iterations: u32,
        num_edges: u64,
    ) -> RunReport {
        self.end_block();
        let makespan = self.makespan_ns();
        let cam_cells = self.cam.stats().cells_written;
        let mac_cells = self.mac.stats().cells_written
            + self.aux_mac.stats().cells_written
            + self.extra_aux_cells;
        let mut stats = XbarStats::new();
        stats.merge(self.cam.stats());
        stats.merge(self.mac.stats());
        stats.merge(self.aux_mac.stats());

        let e = &self.config.energy;
        let buffer_nj =
            self.input_buf.energy_nj() + self.output_buf.energy_nj() + self.attr_buf.energy_nj();
        let energy = EnergyBreakdown {
            mac_nj: (e.mac_op_pj * stats.mac_ops).to_nanojoules(),
            cam_nj: (e.cam_search_pj * stats.cam_searches).to_nanojoules(),
            // Write-verify read-backs bill to the write path: they guard
            // programming bursts, not MAC compute.
            write_nj: (e.cell_write_pj * mac_cells
                + e.cam_bit_write_pj * cam_cells
                + e.verify_read_pj * self.faults.verify_reads)
                .to_nanojoules(),
            sfu_nj: (e.sfu_op_pj * self.sfu.total_ops()).to_nanojoules(),
            buffer_nj,
            static_nj: e.static_energy_nj(makespan),
        };
        let ops = OpSummary {
            mac_ops: stats.mac_ops,
            cam_searches: stats.cam_searches,
            cells_written: stats.cells_written + self.extra_aux_cells,
            row_writes: stats.row_writes + self.extra_aux_row_writes,
            verify_reads: self.faults.verify_reads,
            sfu_ops: self.sfu.total_ops(),
            buffer_accesses: self.input_buf.accesses()
                + self.output_buf.accesses()
                + self.attr_buf.accesses(),
            compute_items: self.compute_items,
        };
        // Attribute the makespan to the five pipeline phases in proportion
        // to their busy time; the shares sum to `elapsed_ns` exactly.
        let busy = self.phase_busy_ns();
        let tallies: Vec<(Phase, Nanos, u64)> = Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::Dispatch)
            .map(|&p| (p, busy[p.index()], self.phase_counts[p.index()]))
            .collect();
        let phases = attribute_makespan(makespan, &tallies);
        // Every report — single-engine or sharded (the sharded runner
        // funnels through the primary's `finish`) — must conserve the
        // makespan across the phase attribution exactly.
        debug_assert!(
            phases.is_empty() || phases.iter().map(|p| p.sched_ns).sum::<Nanos>() == makespan,
            "phase attribution dropped schedule time: {} != {makespan}",
            phases.iter().map(|p| p.sched_ns).sum::<Nanos>(),
        );

        self.emit_dispatch_events();
        // Replay the schedule into a bank-occupancy timeline when some
        // sink wants it. The per-phase fold over the timeline sums the
        // same integer durations as the accounting, so it conserves the
        // busy attribution exactly.
        let utilization = if self.record_ops {
            let tl = self.build_timeline(makespan);
            debug_assert!(
                tl.phase_busy_ns() == busy,
                "timeline phase fold diverged from accounting: {:?} != {busy:?}",
                tl.phase_busy_ns(),
            );
            for interval in tl.intervals() {
                self.tracer.emit_interval(interval);
            }
            Some(UtilizationReport::from_timeline(
                &tl,
                self.wave_overlap_ratio(),
            ))
        } else {
            None
        };
        if let Some(metrics) = self.tracer.metrics() {
            metrics.publish_op_summary(&ops);
            // Mirror the report's rows-per-MAC distribution into the
            // registry so sharded merges carry it losslessly.
            metrics
                .histogram("rows_per_mac")
                .lock()
                .merge(&self.rows_per_mac);
        }
        if self.fault_active {
            // Recovery counters publish once here (already merged across
            // sharded workers), not at event time: worker engines carry
            // null tracers, so event-time publication would undercount.
            self.tracer
                .counter_add("fault_verify_reads", self.faults.verify_reads);
            self.tracer
                .counter_add("fault_detected", self.faults.faults_detected);
            self.tracer
                .counter_add("fault_write_retries", self.faults.write_retries);
            self.tracer
                .counter_add("fault_row_remaps", self.faults.row_remaps);
            self.tracer
                .counter_add("fault_cam_double_checks", self.faults.cam_double_checks);
        }
        self.tracer.gauge_set("elapsed_ns", makespan.ns());
        self.tracer
            .gauge_set("energy_total_nj", energy.total_nj().nj());
        self.tracer.flush();

        let mut report = RunReport::new(engine, algorithm, workload);
        report.iterations = iterations;
        report.elapsed_ns = makespan;
        report.energy = energy;
        report.ops = ops;
        report.faults = self.faults;
        report.rows_per_mac = self.rows_per_mac.clone();
        report.num_edges = num_edges;
        report.phases = phases;
        report.utilization = utilization;
        report
    }

    /// The scheduled makespan of all blocks committed so far, plus the
    /// out-of-block controller work.
    pub fn makespan_ns(&self) -> Nanos {
        self.schedule(|_| {}) + self.extra_ns
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

/// The physical rows behind a chunk of logical slots: the chunk itself
/// until a remap moves a slot, otherwise its translation through
/// `log2phys` into the reused `buf`.
fn physical_rows<'a>(
    remap_active: bool,
    log2phys: &[usize],
    buf: &'a mut Vec<usize>,
    chunk: &'a [usize],
) -> &'a [usize] {
    if !remap_active {
        return chunk;
    }
    buf.clear();
    buf.extend(chunk.iter().map(|&slot| log2phys[slot]));
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaasx_graph::generators;
    use gaasx_sim::Nanojoules;

    fn engine() -> Engine {
        Engine::new(GaasXConfig::small()).unwrap()
    }

    /// Edge weights in MAC column 0 and a constant 1 in column 1.
    fn weight_and_one(edges: &[Edge], c: &mut Vec<u32>) {
        for e in edges {
            c.extend_from_slice(&[e.weight as u32, 1]);
        }
    }

    const WEIGHT_AND_ONE: CellLayout<'static> = CellLayout::PerEdge {
        width: 2,
        fill: &weight_and_one,
    };

    /// Loads the paper's Fig 7 graph as one block; returns its edges, which
    /// sit at CAM/MAC rows `0..8` in order.
    fn fig7_block(engine: &mut Engine) -> Vec<Edge> {
        let g = generators::paper_fig7_graph();
        engine.load_block(g.edges(), WEIGHT_AND_ONE).unwrap();
        g.edges().to_vec()
    }

    fn src_hits(e: &mut Engine, src: u32) -> HitVector {
        let mut hits = HitVector::new(0);
        e.search_src_into(VertexId::new(src), &mut hits);
        hits
    }

    fn dst_hits(e: &mut Engine, dst: u32) -> HitVector {
        let mut hits = HitVector::new(0);
        e.search_dst_into(VertexId::new(dst), &mut hits);
        hits
    }

    /// The sweep loads exactly the chunks its filter accepts, and each
    /// block's lists equal sort + dedup of its rows.
    #[test]
    fn sweep_filters_chunks_and_lists_match_sort_and_dedup() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as u32
        };
        let mut e = engine();
        let capacity = e.block_capacity();
        let sorted = |rows: &[Edge], field: fn(&Edge) -> VertexId| {
            let mut v: Vec<VertexId> = rows.iter().map(field).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for case in 0..60 {
            let len = next(3 * capacity as u64 + 1) as usize;
            // Narrow and wide vertex ranges: many and few duplicates.
            let span = if case % 2 == 0 { 8 } else { 1 << 20 };
            let edges: Vec<Edge> = (0..len)
                .map(|_| Edge::new(next(span), next(span), 1.0))
                .collect();
            let (mut chunk, mut visited) = (0, Vec::new());
            let odd_chunks = |_: &[Edge]| {
                chunk += 1;
                chunk % 2 == 1
            };
            e.sweep(
                &edges,
                CellLayout::Preset,
                Keys::Both,
                odd_chunks,
                |_, b| {
                    assert_eq!(b.distinct_srcs(), sorted(b.rows, |e| e.src));
                    assert_eq!(b.distinct_dsts(), sorted(b.rows, |e| e.dst));
                    visited.push(b.rows.to_vec());
                    Ok(())
                },
            )
            .unwrap();
            let want: Vec<Vec<Edge>> = edges
                .chunks(capacity)
                .step_by(2)
                .map(<[_]>::to_vec)
                .collect();
            assert_eq!(visited, want, "case {case}");
        }
        // A list the keys do not name stays empty, not stale.
        let all = |_: &[Edge]| true;
        e.sweep(
            &[Edge::new(0, 1, 1.0)],
            CellLayout::Preset,
            Keys::Srcs,
            all,
            |_, b| {
                assert_eq!((b.srcs.len(), b.dsts.len()), (1, 0));
                Ok(())
            },
        )
        .unwrap();
    }

    /// `distinct_into` equals sort + dedup on both paths: the bitmap (a
    /// span below 64 ids per row) and the sort fallback (a wider span).
    #[test]
    fn distinct_into_matches_sort_and_dedup_on_both_paths() {
        let top = u32::MAX;
        // (field values, whether the bitmap path serves them)
        let mut cases: Vec<(Vec<u32>, bool)> = vec![
            (vec![], false),
            (vec![42], true),
            (vec![top], true),
            (vec![0], true),
            (vec![top, 0, top, 0], false),
            (vec![top, top - 1, top - 255, top], true),
            (vec![5, 5 + 127], true),
            (vec![5, 5 + 128], false),
            ((0..10).rev().map(|i| 64 * i).collect(), true),
            ((0..10).map(|i| 1000 * i).collect(), false),
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..40 {
            let len = 1 + next(300);
            let span = [8, 64 * len - 1, 64 * len, 1 << 20][case % 4];
            let base = next(u64::from(top) - span) as u32;
            let mut values: Vec<u32> = (0..len).map(|_| base + next(span + 1) as u32).collect();
            // Pin both ends, so the span is exactly `span`.
            values[0] = base;
            *values.last_mut().unwrap() = base + span as u32;
            cases.push((values, span < 64 * len));
        }
        let sentinel = vec![u64::MAX; 3];
        for (values, bitmap_path) in cases {
            let rows: Vec<Edge> = values
                .iter()
                .map(|&v| Edge::new(v, v.wrapping_mul(7), 1.0))
                .collect();
            let mut want = values.clone();
            want.sort_unstable();
            want.dedup();
            let (mut out, mut bitmap) = (vec![VertexId::new(9)], sentinel.clone());
            distinct_into(&rows, |e| e.src, &mut out, &mut bitmap);
            let got: Vec<u32> = out.iter().map(|v| v.raw()).collect();
            assert_eq!(got, want, "{} values", values.len());
            assert_eq!(bitmap != sentinel, bitmap_path, "path for {values:?}");
        }
    }

    #[test]
    fn sweep_stops_at_the_first_visit_error() {
        let mut e = engine();
        let g = generators::path_graph(300); // three blocks of ≤128 edges
        let (all, mut visits) = (|_: &[Edge]| true, 0);
        let err = e.sweep(g.edges(), CellLayout::Preset, Keys::Srcs, all, |_, _| {
            visits += 1;
            Err(CoreError::InvalidInput("stop".into()))
        });
        assert!(matches!(err, Err(CoreError::InvalidInput(_))));
        assert_eq!(visits, 1);
        let r = e.finish("t", "t", "t", 1, 299);
        assert_eq!(r.phase(Phase::LoadBlock).unwrap().count, 1);
    }

    #[test]
    fn search_dst_matches_in_edges() {
        let mut e = engine();
        let b = fig7_block(&mut e);
        // Vertex 2 (1-based) = id 1 has in-edges from 1, 3, 4 (Fig 7).
        let hits = dst_hits(&mut e, 1);
        assert_eq!(hits.rows().len(), 3);
        for &row in hits.rows() {
            assert_eq!(b[row].dst, VertexId::new(1));
        }
    }

    #[test]
    fn search_src_matches_out_edges() {
        let mut e = engine();
        let b = fig7_block(&mut e);
        let hits = src_hits(&mut e, 4); // vertex 5, out-edges to 3 and 4
        assert_eq!(hits.rows().len(), 2);
        for &row in hits.rows() {
            assert_eq!(b[row].src, VertexId::new(4));
        }
    }

    #[test]
    fn gather_accumulates_weights() {
        // The paper's worked example: accumulate incoming edge weights of
        // vertex 2 (1-based): 6 + 5 + 8 = 19.
        let mut e = engine();
        let _b = fig7_block(&mut e);
        let hits = dst_hits(&mut e, 1);
        let sum = e.gather_rows(&hits, |_| 1, 0).unwrap();
        assert_eq!(sum, 19);
    }

    #[test]
    fn propagate_adds_scalar_to_weights() {
        // SSSP-style: dist(U)=10 plus each out-edge weight of vertex 5
        // (1-based): edges (5,3,6) and (5,4,7) -> sums 16 and 17.
        let mut e = engine();
        let b = fig7_block(&mut e);
        let hits = src_hits(&mut e, 4);
        let mut results = Vec::new();
        e.propagate_rows_into(&hits, &[0, 1], &[1, 10], &mut results)
            .unwrap();
        let mut sums: Vec<(u32, u64)> = results
            .iter()
            .map(|&(row, sum)| (b[row].dst.raw(), sum))
            .collect();
        sums.sort();
        assert_eq!(sums, vec![(2, 16), (3, 17)]);
    }

    #[test]
    fn chunking_splits_large_hit_vectors() {
        let mut e = engine();
        let g = generators::star_graph(40); // hub 0 -> 39 spokes
        let cells = |edges: &[Edge], c: &mut Vec<u32>| c.resize(2 * edges.len(), 1);
        e.load_block(
            g.edges(),
            CellLayout::PerEdge {
                width: 2,
                fill: &cells,
            },
        )
        .unwrap();
        let hits = src_hits(&mut e, 0);
        assert_eq!(hits.rows().len(), 39);
        let mut results = Vec::new();
        e.propagate_rows_into(&hits, &[0, 1], &[1, 0], &mut results)
            .unwrap();
        assert_eq!(results.len(), 39);
        // 39 hits at a 16-row cap = 3 MAC bursts.
        let hist = e.rows_per_mac.counts();
        assert_eq!(hist[15], 2); // two full 16-row bursts
        assert_eq!(hist[6], 1); // one 7-row burst
    }

    #[test]
    fn block_capacity_enforced() {
        let mut e = engine();
        let g = generators::path_graph(200);
        let cells = |edges: &[Edge], c: &mut Vec<u32>| c.resize(edges.len(), 1);
        assert!(matches!(
            e.load_block(
                g.edges(),
                CellLayout::PerEdge {
                    width: 1,
                    fill: &cells,
                }
            ),
            Err(CoreError::InvalidInput(_))
        ));
    }

    /// A block whose cell fill has the wrong length, a width past the MAC
    /// columns or a code past the cell range is rejected before anything
    /// programs: no device write, no bill, and the open block stays open
    /// and searchable — with and without write-verify.
    #[test]
    fn a_rejected_cell_fill_programs_and_bills_nothing() {
        let faulty = GaasXConfig {
            fault: gaasx_xbar::FaultModel {
                seed: 4,
                mac_stuck_ber: 0.01,
                ..gaasx_xbar::FaultModel::none()
            },
            recovery: crate::RecoveryPolicy::standard(),
            ..GaasXConfig::small()
        };
        let short = |edges: &[Edge], c: &mut Vec<u32>| c.resize(edges.len(), 1);
        let past_range = |edges: &[Edge], c: &mut Vec<u32>| {
            c.resize(edges.len(), 1);
            c[edges.len() / 2] = u32::MAX;
        };
        let wide = |edges: &[Edge], c: &mut Vec<u32>| c.resize(17 * edges.len(), 1);
        let rejected = [
            CellLayout::PerEdge {
                width: 2,
                fill: &short,
            },
            CellLayout::PerEdge {
                width: 1,
                fill: &past_range,
            },
            CellLayout::PerEdge {
                width: 17,
                fill: &wide,
            },
        ];
        for config in [GaasXConfig::small(), faulty] {
            let mut e = Engine::new(config).unwrap();
            assert_eq!(e.verify_on(), e.fault_active);
            let b = fig7_block(&mut e);
            let state = |e: &Engine| {
                (
                    e.cam.stats().clone(),
                    e.mac.stats().clone(),
                    e.faults,
                    format!("{:?} {:?}", e.costs, e.current),
                    (e.cursor_ns, e.in_block, e.phase_counts),
                    (0..b.len())
                        .flat_map(|r| (0..2).map(move |c| (r, c)))
                        .map(|(r, c)| e.mac.read_cell(r, c).unwrap())
                        .collect::<Vec<_>>(),
                )
            };
            let before = state(&e);
            for cells in rejected {
                assert!(
                    matches!(e.load_block(&b, cells), Err(CoreError::InvalidInput(_))),
                    "{cells:?} (verify {})",
                    e.verify_on()
                );
                assert_eq!(state(&e), before, "{cells:?} (verify {})", e.verify_on());
            }
            // The fig7 block is still the loaded one.
            assert_eq!(src_hits(&mut e, 4).rows().len(), 2);
        }
    }

    #[test]
    fn preset_layout_skips_mac_writes() {
        let mut e = engine();
        e.preset_mac(1).unwrap();
        let g = generators::paper_fig2_graph();
        e.load_block(g.edges(), CellLayout::Preset).unwrap();
        let report = e.finish("t", "t", "t", 1, 10);
        // Only CAM cells were programmed: 10 edges × 2×128 TCAM devices.
        assert_eq!(report.ops.cells_written, 10 * 2 * 128);
    }

    #[test]
    fn stale_rows_do_not_match_after_reload() {
        let mut e = engine();
        let big = generators::star_graph(20);
        let cells = |edges: &[Edge], c: &mut Vec<u32>| c.resize(edges.len(), 1);
        e.load_block(
            big.edges(),
            CellLayout::PerEdge {
                width: 1,
                fill: &cells,
            },
        )
        .unwrap();
        let small = generators::path_graph(3); // edges (0,1), (1,2)
        e.load_block(
            small.edges(),
            CellLayout::PerEdge {
                width: 1,
                fill: &cells,
            },
        )
        .unwrap();
        // Searching src 0 must only match the one path edge, not stale star rows.
        assert_eq!(src_hits(&mut e, 0).rows().len(), 1);
    }

    #[test]
    fn makespan_pipelines_waves() {
        let mut e = engine();
        let g = generators::paper_fig7_graph();
        for _ in 0..3 {
            e.load_block(g.edges(), WEIGHT_AND_ONE).unwrap();
            let hits = dst_hits(&mut e, 1);
            let _ = e.gather_rows(&hits, |_| 1, 0).unwrap();
        }
        e.end_block();
        let m = e.makespan_ns().ns();
        assert!(m > 0.0);
        // All three blocks fit one wave of 8 banks: load is the max program
        // time (8 edges × one CAM/MAC row pair each, the 2-value MAC row
        // pacing) vs serial stream; compute is one search + one MAC.
        let row_ns = e.config().energy.row_program_ns(2).ns();
        let expected_load = (8.0 * row_ns).max(3.0 * e.config().stream_ns(8 * 12).ns());
        let expected_compute = 4.0 + 30.0 + 2.0 * (4.0 + 30.0 + 1.0 / 16.0);
        assert!(m >= expected_load);
        assert!(m <= expected_load + expected_compute + 1.0);
    }

    #[test]
    fn report_has_energy_and_ops() {
        let mut e = engine();
        let _b = fig7_block(&mut e);
        let hits = dst_hits(&mut e, 1);
        let _ = e.gather_rows(&hits, |_| 1, 0).unwrap();
        let r = e.finish("gaasx", "test", "fig7", 1, 8);
        assert!(r.elapsed_ns > Nanos::ZERO);
        assert!(r.energy.total_nj() > Nanojoules::ZERO);
        assert!(r.energy.write_nj > Nanojoules::ZERO);
        assert_eq!(r.ops.cam_searches, 1);
        assert_eq!(r.ops.mac_ops, 1);
        assert_eq!(r.ops.compute_items, 3);
        assert_eq!(r.rows_per_mac.total(), 1);
    }

    #[test]
    fn preload_aux_is_functional_but_free() {
        let mut e = engine();
        e.preload_aux_row(3, &[7, 8, 9]).unwrap();
        let out = e.aux_mac_rows(&[3], &[2]).unwrap();
        assert_eq!(&out[..3], &[14, 16, 18]);
        let r = e.finish("t", "t", "t", 1, 0);
        // One MAC op counted; zero cells charged for the preload.
        assert_eq!(r.ops.mac_ops, 1);
        assert_eq!(r.ops.cells_written, 0);
    }

    #[test]
    fn parallel_aux_loading_charges_energy_and_scaled_time() {
        let mut a = Engine::new(GaasXConfig::small()).unwrap();
        let mut b = Engine::new(GaasXConfig {
            num_banks: 1,
            ..GaasXConfig::small()
        })
        .unwrap();
        a.load_aux_rows_parallel(80, 16);
        b.load_aux_rows_parallel(80, 16);
        let ra = a.finish("t", "t", "t", 1, 0);
        let rb = b.finish("t", "t", "t", 1, 0);
        // Same energy (same cells programmed)...
        assert_eq!(ra.ops.cells_written, rb.ops.cells_written);
        assert_eq!(ra.ops.cells_written, 80 * 16 * 8);
        assert!((ra.energy.write_nj.nj() - rb.energy.write_nj.nj()).abs() < 1e-9);
        // ...but 8 banks load 8× faster than 1 bank.
        assert!((rb.elapsed_ns / ra.elapsed_ns - 8.0).abs() < 1e-6);
    }

    #[test]
    fn preload_validates_like_write() {
        let mut e = engine();
        assert!(e.preload_aux_row(500, &[1]).is_err());
        assert!(e.preload_aux_row(0, &[0x1_0000]).is_err());
    }

    #[test]
    fn phases_attribute_the_full_makespan() {
        let mut e = engine();
        let _b = fig7_block(&mut e);
        let hits = dst_hits(&mut e, 1);
        let _ = e.gather_rows(&hits, |_| 1, 0).unwrap();
        let r = e.finish("gaasx", "t", "t", 1, 8);
        assert!(!r.phases.is_empty());
        // Exact: the last nonzero share absorbs the rounding residue.
        assert_eq!(r.phases_total_sched_ns(), r.elapsed_ns);
        assert!(r.phase(Phase::LoadBlock).unwrap().busy_ns > Nanos::ZERO);
        assert_eq!(r.phase(Phase::CamSearch).unwrap().count, 1);
        assert_eq!(r.phase(Phase::MacGather).unwrap().count, 1);
        // One chunk: no SFU accumulator adds, so no Sfu entry.
        assert!(r.phase(Phase::Sfu).is_none());
        assert!(r.phase(Phase::Dispatch).is_none());
    }

    #[test]
    fn tracer_spans_and_metrics_mirror_the_report() {
        use gaasx_sim::{AggregateSink, Tracer};
        use std::sync::Arc;
        let agg = Arc::new(AggregateSink::new());
        let mut e = engine();
        e.set_tracer(Tracer::with_sink(agg.clone()));
        assert!(e.tracer().enabled());
        let _b = fig7_block(&mut e);
        let hits = dst_hits(&mut e, 1);
        let _ = e.gather_rows(&hits, |_| 1, 0).unwrap();
        let r = e.finish("gaasx", "t", "t", 1, 8);
        // Span busy time per phase agrees with the engine's own tally.
        let rollup = agg.phase_rollup();
        for phase in [Phase::CamSearch, Phase::MacGather] {
            let seen = rollup.iter().find(|p| p.phase == phase).unwrap();
            let want = r.phase(phase).unwrap();
            assert!(
                (seen.busy_ns.ns() - want.busy_ns.ns()).abs() < 1e-9,
                "{phase:?}: {} vs {}",
                seen.busy_ns,
                want.busy_ns
            );
            assert_eq!(seen.count, want.count);
        }
        // The dispatch replay bound the block to a bank.
        assert!(!agg.bank_rollup().is_empty());
        // The metrics registry carries the canonical op counters.
        assert_eq!(e.tracer().metrics().unwrap().op_summary(), r.ops);
    }

    #[test]
    fn dispatch_events_cover_all_banks() {
        use gaasx_sim::{AggregateSink, Tracer};
        use std::sync::Arc;
        let agg = Arc::new(AggregateSink::new());
        let mut e = Engine::new(GaasXConfig {
            num_banks: 2,
            ..GaasXConfig::small()
        })
        .unwrap();
        e.set_tracer(Tracer::with_sink(agg.clone()));
        let g = generators::paper_fig7_graph();
        for _ in 0..4 {
            e.load_block(g.edges(), WEIGHT_AND_ONE).unwrap();
            let hits = dst_hits(&mut e, 1);
            let _ = e.gather_rows(&hits, |_| 1, 0).unwrap();
        }
        let _ = e.finish("gaasx", "t", "t", 1, 8);
        // Two waves of two blocks: each bank runs one block per wave.
        let banks = agg.bank_rollup();
        assert_eq!(banks.len(), 2, "both banks saw blocks: {banks:?}");
        assert!(banks.iter().all(|b| b.count == 2), "{banks:?}");
    }

    #[test]
    fn empty_hits_cost_nothing_in_mac() {
        let mut e = engine();
        let _b = fig7_block(&mut e);
        let hits = dst_hits(&mut e, 0); // vertex 1 has no in-edges
        assert_eq!(hits.rows().len(), 0);
        let sum = e.gather_rows(&hits, |_| 1, 0).unwrap();
        assert_eq!(sum, 0);
        let mut propagated = Vec::new();
        e.propagate_rows_into(&hits, &[0, 1], &[1, 5], &mut propagated)
            .unwrap();
        assert!(propagated.is_empty());
        let r = e.finish("t", "t", "t", 1, 8);
        assert_eq!(r.ops.mac_ops, 0);
        // Baseline engine that only loads the block: the empty gather and
        // propagate must add no buffer traffic on top of the load (the
        // propagate used to charge an attribute-buffer read for its column
        // inputs even when the hit vector was empty).
        let mut base = engine();
        let _b = fig7_block(&mut base);
        let rb = base.finish("t", "t", "t", 1, 8);
        assert_eq!(r.ops.buffer_accesses, rb.ops.buffer_accesses);
    }

    #[test]
    fn preset_preserves_prior_mac_stats() {
        let mut e = engine();
        let _b = fig7_block(&mut e);
        let hits = dst_hits(&mut e, 1);
        let _ = e.gather_rows(&hits, |_| 1, 0).unwrap();
        let before = e.mac.stats().clone();
        assert!(before.cells_written > 0);
        assert!(before.mac_ops > 0);
        // The preset used to probe with counted writes and then call
        // `reset_stats`, wiping every MAC counter accumulated so far.
        e.preset_mac(1).unwrap();
        assert_eq!(e.mac.stats(), &before);
    }

    #[test]
    fn sfu_add_u64_saturates_instead_of_overflowing() {
        let mut e = engine();
        // `u64::MAX + 5` panics in debug builds with a plain `+`.
        assert_eq!(e.sfu_add_u64(u64::MAX, 5), u64::MAX);
        assert_eq!(e.sfu_add_u64(7, 8), 15);
        assert_eq!(e.sfu.breakdown().0, 2, "both adds are charged");
    }

    #[test]
    fn absorb_functional_matches_local_activity() {
        // Running a workload on one engine must equal running it on a
        // worker and absorbing the worker into an idle primary.
        let run = |e: &mut Engine| {
            let _b = fig7_block(e);
            let hits = dst_hits(e, 1);
            let _ = e.gather_rows(&hits, |_| 1, 0).unwrap();
            e.attr_write(8);
        };
        let mut serial = engine();
        run(&mut serial);
        let want = serial.finish("t", "t", "t", 1, 8);

        let mut primary = engine();
        let mut worker = engine();
        run(&mut worker);
        let costs = worker.take_costs();
        primary.absorb_functional(&worker);
        primary.append_costs(costs);
        let got = primary.finish("t", "t", "t", 1, 8);

        assert_eq!(got.ops, want.ops);
        assert_eq!(got.elapsed_ns, want.elapsed_ns);
        assert_eq!(got.energy.total_nj(), want.energy.total_nj());
        assert_eq!(got.rows_per_mac, want.rows_per_mac);
    }

    use crate::config::RecoveryPolicy;
    use gaasx_xbar::FaultModel;

    fn faulty(fault: FaultModel, recovery: RecoveryPolicy) -> Engine {
        Engine::new(GaasXConfig {
            fault,
            recovery,
            ..GaasXConfig::small()
        })
        .unwrap()
    }

    /// One edge per slot with distinct src/dst keys and a weight-3 code —
    /// fills the whole block so positional stuck faults get exercised.
    fn full_block_edges(capacity: usize) -> Vec<Edge> {
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
    fn write_verify_retries_recover_transient_faults() {
        let fault = FaultModel {
            write_fail_rate: 0.05,
            seed: 42,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        let g = generators::paper_fig7_graph();
        for _ in 0..40 {
            e.load_block(g.edges(), WEIGHT_AND_ONE).unwrap();
            let hits = dst_hits(&mut e, 1);
            // Every pass stays exact: 6 + 5 + 8 = 19 despite injected
            // transient programming failures.
            assert_eq!(e.gather_rows(&hits, |_| 1, 0).unwrap(), 19);
        }
        let r = e.finish("t", "t", "t", 1, 8);
        // 40 blocks × 8 rows, one verify read per successful attempt.
        assert!(r.faults.verify_reads >= 320, "{:?}", r.faults);
        assert!(r.faults.faults_detected > 0, "{:?}", r.faults);
        assert!(r.faults.write_retries > 0, "{:?}", r.faults);
        assert_eq!(r.ops.verify_reads, r.faults.verify_reads);
        // Verify reads bill read-class energy to the write path.
        let e_model = &GaasXConfig::small().energy;
        let floor = (e_model.verify_read_pj * r.faults.verify_reads).to_nanojoules();
        assert!(r.energy.write_nj > floor);
    }

    #[test]
    fn stuck_rows_remap_and_translation_stays_correct() {
        let fault = FaultModel {
            cam_stuck_ber: 1e-3,
            mac_stuck_ber: 1e-3,
            seed: 7,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        assert_eq!(e.block_capacity(), 128 - 16);
        let edges = full_block_edges(e.block_capacity());
        e.load_block(&edges, WEIGHT_AND_ONE).unwrap();
        for i in 0..edges.len() as u32 {
            // Each dst hits exactly one (possibly remapped) row, reported
            // at its logical slot with the correct stored weight.
            let hits = dst_hits(&mut e, 1000 + i);
            assert_eq!(hits.rows().len(), 1, "dst {i}");
            assert_eq!(e.gather_rows(&hits, |_| 1, 0).unwrap(), 3);
            let src_hits = src_hits(&mut e, i);
            let mut res = Vec::new();
            e.propagate_rows_into(&src_hits, &[0], &[1], &mut res)
                .unwrap();
            assert_eq!(res.len(), 1, "src {i}");
            assert_eq!(res[0].1, 3);
            assert_eq!(edges[res[0].0].src, VertexId::new(i));
        }
        let r = e.finish("t", "t", "t", 1, edges.len() as u64);
        assert!(
            r.faults.row_remaps > 0,
            "seed must exercise remapping: {:?}",
            r.faults
        );
        assert!(r.faults.verify_reads >= edges.len() as u64);
    }

    /// Searches after remaps, with every search glitched by an upset,
    /// voted or not: each hit list ascends, holds only slots of the loaded
    /// block on valid rows, and differs from the true matches by at most
    /// one line: the toggled one, or once voted, a line two of the three
    /// votes toggled alike. Four sources share the block, so remapped
    /// slots sit among unmoved ones in one list.
    #[test]
    fn remapped_and_upset_searches_return_ascending_valid_slots() {
        for cam_double_check in [false, true] {
            let fault = FaultModel {
                cam_stuck_ber: 1e-3,
                mac_stuck_ber: 1e-3,
                cam_upset_rate: 1.0,
                seed: 7,
                ..FaultModel::none()
            };
            let recovery = RecoveryPolicy {
                cam_double_check,
                ..RecoveryPolicy::standard()
            };
            let mut e = faulty(fault, recovery);
            let edges: Vec<Edge> = (0..e.block_capacity() as u32)
                .map(|i| Edge::new(i % 4, 1000 + i, 3.0))
                .collect();
            e.load_block(&edges, WEIGHT_AND_ONE).unwrap();
            assert!(e.remap_active, "seed must exercise remapping");
            let mut moved_among_others = false;
            for _ in 0..8 {
                for src in 0..4 {
                    let hits = src_hits(&mut e, src);
                    let rows = hits.rows();
                    assert!(rows.windows(2).all(|w| w[0] < w[1]), "{rows:?}");
                    for &slot in rows {
                        assert!(slot < edges.len(), "slot {slot} past the block");
                        assert!(e.cam.read(e.log2phys[slot]).unwrap().valid);
                    }
                    let wrong = (0..edges.len())
                        .filter(|&s| rows.contains(&s) != (edges[s].src.raw() == src))
                        .count();
                    assert!(wrong <= 1, "src {src}: {rows:?}");
                    moved_among_others |=
                        rows.len() > 1 && rows.iter().any(|&s| e.log2phys[s] != s);
                }
            }
            assert!(moved_among_others, "a remapped slot must share a hit list");
        }
    }

    #[test]
    fn preset_audit_remaps_stuck_mac_rows() {
        let fault = FaultModel {
            mac_stuck_ber: 5e-4,
            seed: 5,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        e.preset_mac(1).unwrap();
        let edges = full_block_edges(e.block_capacity());
        e.load_block(&edges, CellLayout::Preset).unwrap();
        for i in 0..edges.len() as u32 {
            let hits = dst_hits(&mut e, 1000 + i);
            assert_eq!(hits.rows().len(), 1, "dst {i}");
            // The preset-1 weight column survives through remapped rows.
            assert_eq!(e.gather_rows(&hits, |_| 1, 0).unwrap(), 1);
        }
        let r = e.finish("t", "t", "t", 1, edges.len() as u64);
        assert!(
            r.faults.row_remaps > 0,
            "seed must exercise the audit: {:?}",
            r.faults
        );
    }

    #[test]
    fn exhausted_spares_surface_as_typed_device_fault() {
        let fault = FaultModel {
            cam_stuck_ber: 0.05,
            seed: 3,
            ..FaultModel::none()
        };
        // Detect-only: zero retries, zero spares — the first corrupted
        // row programming must fail loudly and typed, never panic.
        let mut e = faulty(fault, RecoveryPolicy::detect_only());
        assert_eq!(e.block_capacity(), 128, "no spares reserved");
        let edges = full_block_edges(e.block_capacity());
        let err = e.load_block(&edges, WEIGHT_AND_ONE).unwrap_err();
        assert!(
            matches!(err, CoreError::DeviceFault { report: None, .. }),
            "{err}"
        );
    }

    #[test]
    fn cam_double_check_masks_transient_upsets() {
        let fault = FaultModel {
            cam_upset_rate: 1.0, // every search glitches one row
            seed: 11,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        let b = fig7_block(&mut e);
        // Vertex 2 (1-based) has in-edges from rows storing dst=1; the
        // majority vote over three searches masks the per-search glitch.
        let hits = dst_hits(&mut e, 1);
        assert_eq!(hits.rows().len(), 3);
        for &row in hits.rows() {
            assert_eq!(b[row].dst, VertexId::new(1));
        }
        let r = e.finish("t", "t", "t", 1, 8);
        assert!(r.faults.cam_double_checks >= 1);
        // Three physical searches per logical one.
        assert_eq!(r.ops.cam_searches, 3);
    }

    #[test]
    fn upset_free_votes_replay_but_bill_three_searches() {
        let fault = FaultModel {
            cam_stuck_ber: 2e-3,
            mac_stuck_ber: 2e-3,
            write_fail_rate: 0.2,
            seed: 17,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        let mut clean = engine();
        let b = fig7_block(&mut e);
        let _ = fig7_block(&mut clean);
        let mut logical = 0u64;
        for v in 0..5 {
            let dst = dst_hits(&mut e, v);
            assert_eq!(dst, dst_hits(&mut clean, v), "dst {v}");
            assert_eq!(dst, dst_hits(&mut e, v), "repeat dst {v}");
            let _ = dst_hits(&mut clean, v);
            let src = src_hits(&mut e, v);
            assert_eq!(src, src_hits(&mut clean, v), "src {v}");
            for &row in src.rows() {
                assert_eq!(b[row].src, VertexId::new(v));
            }
            logical += 3;
        }
        let r = e.finish("t", "t", "t", 1, 8);
        assert_eq!(r.ops.cam_searches, 3 * logical);
        assert_eq!(r.faults.cam_double_checks, logical);
        let cam_ns = |r: &RunReport| {
            r.phases
                .iter()
                .find(|p| p.phase == Phase::CamSearch)
                .map(|p| p.busy_ns)
        };
        let c = clean.finish("t", "t", "t", 1, 8);
        assert_eq!(c.ops.cam_searches, logical);
        assert!(cam_ns(&r) > cam_ns(&c), "re-searches bill device time");
    }

    #[test]
    fn timeline_conserves_phase_attribution() {
        use gaasx_sim::TimelineSink;
        use std::sync::Arc;
        let sink = Arc::new(TimelineSink::new());
        let mut e = Engine::new(GaasXConfig {
            num_banks: 4,
            ..GaasXConfig::small()
        })
        .unwrap();
        e.set_tracer(Tracer::with_sink(sink.clone()));
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 1200).with_seed(5)).unwrap();
        let mut hits = HitVector::new(0);
        e.sweep(
            g.edges(),
            WEIGHT_AND_ONE,
            Keys::Dsts,
            |_| true,
            |e, block| {
                for &dst in block.distinct_dsts() {
                    e.search_dst_into(dst, &mut hits);
                    let _ = e.gather_rows(&hits, |_| 1, 0)?;
                }
                Ok(())
            },
        )
        .unwrap();
        // Some controller-side (out-of-block) work too, so the synthetic
        // bank shows.
        e.end_block();
        let _ = e.sfu_add(1.0, 2.0);
        let r = e.finish("t", "t", "t", 1, 1200);
        let util = r.utilization.as_ref().unwrap_or_else(|| {
            panic!("an interval-observing sink must attach a utilization report")
        });
        // Bit-exact conservation against the phase attribution.
        for p in &r.phases {
            assert_eq!(
                util.phase_busy_ns[p.phase.index()],
                p.busy_ns,
                "busy ns diverged for {:?}",
                p.phase
            );
        }
        assert_eq!(util.makespan_ns, r.elapsed_ns);
        assert!(util.critical_bank.is_some());
        assert!((0.0..=1.0).contains(&util.pipeline_overlap_ratio));
        // The sink saw the same intervals, non-overlapping per track.
        let intervals = sink.take();
        assert!(!intervals.is_empty());
        let mut tracks: std::collections::BTreeMap<(u32, u32), Nanos> =
            std::collections::BTreeMap::new();
        for iv in &intervals {
            let cursor = tracks.entry((iv.bank, iv.lane)).or_insert(Nanos::ZERO);
            assert!(
                iv.start_ns >= *cursor,
                "overlap on bank {} lane {}",
                iv.bank,
                iv.lane
            );
            *cursor = iv.start_ns + iv.dur_ns;
        }
        // Controller SFU work landed on the synthetic bank.
        assert!(intervals
            .iter()
            .any(|iv| iv.bank == gaasx_sim::CONTROLLER_BANK));
    }

    #[test]
    fn untraced_runs_attach_no_utilization() {
        let mut e = engine();
        let _ = fig7_block(&mut e);
        let r = e.finish("t", "t", "t", 1, 8);
        assert!(r.utilization.is_none());
        // A null-sink tracer observes no intervals either.
        let mut e2 = engine();
        e2.set_tracer(Tracer::with_sink(std::sync::Arc::new(gaasx_sim::NullSink)));
        let _ = fig7_block(&mut e2);
        let r2 = e2.finish("t", "t", "t", 1, 8);
        assert!(r2.utilization.is_none());
    }

    #[test]
    fn search_profile_never_changes_a_report_across_reloads() {
        // The declared profile is the only difference between the two
        // engines: the hits and the report must not depend on it, across
        // a reload of the block.
        let block: Vec<Edge> = (0..128u32)
            .map(|i| Edge::new(i % 16, 1000 + i % 32, 1.0))
            .collect();
        let run = |profile: SearchProfile| {
            let mut e = engine();
            e.set_search_profile(profile);
            let mut hits = Vec::new();
            for _visit in 0..2 {
                e.load_block(&block, CellLayout::Preset).unwrap();
                for v in 0..32u32 {
                    hits.push(dst_hits(&mut e, 1000 + v));
                }
            }
            (hits, e.finish("t", "t", "t", 1, 8))
        };
        let (frontier_hits, frontier_report) = run(SearchProfile::Frontier);
        let (dense_hits, dense_report) = run(SearchProfile::OnePerKey);
        assert_eq!(frontier_hits, dense_hits);
        assert!(frontier_hits.iter().all(|h| h.rows().len() == 4));
        assert_eq!(frontier_report, dense_report);
    }

    #[test]
    fn deadline_cancels_at_the_next_block_boundary() {
        let mut e = engine();
        e.set_deadline(Some(Nanos::ZERO));
        assert_eq!(e.deadline(), Some(Nanos::ZERO));
        // The first block starts at cursor 0, which is not *past* the
        // budget — cooperative cancellation always lets the first quantum
        // run, mirroring how a deadline can only fire between blocks.
        let _b = fig7_block(&mut e);
        let g = generators::paper_fig7_graph();
        let err = e.load_block(g.edges(), WEIGHT_AND_ONE).unwrap_err();
        match err {
            CoreError::Cancelled { detail, report } => {
                assert!(detail.contains("deadline"), "{detail}");
                assert!(report.is_none(), "engine-level cancel carries no report");
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        // Clearing the deadline resumes service on the same engine.
        e.set_deadline(None);
        assert!(e.load_block(g.edges(), WEIGHT_AND_ONE).is_ok());
    }

    #[test]
    fn reset_accounting_gives_a_resident_engine_a_clean_bill() {
        let run_once = |e: &mut Engine| {
            let _b = fig7_block(e);
            let hits = dst_hits(e, 1);
            let sum = e.gather_rows(&hits, |_| 1, 0).unwrap();
            assert_eq!(sum, 19);
            e.finish("gaasx", "probe", "fig7", 1, 8)
        };
        let mut resident = engine();
        let first = run_once(&mut resident);
        resident.reset_accounting();
        let second = run_once(&mut resident);
        // The second query on the resident engine bills exactly like the
        // first: nothing from query 1 leaks into query 2's report.
        assert_eq!(first.ops, second.ops);
        assert_eq!(first.elapsed_ns, second.elapsed_ns);
        assert_eq!(first.energy, second.energy);
        assert_eq!(first.phases, second.phases);
        assert_eq!(first.faults, second.faults);
    }

    #[test]
    fn wear_snapshot_round_trips_across_engine_incarnations() {
        use gaasx_xbar::fault::FaultModel;
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
