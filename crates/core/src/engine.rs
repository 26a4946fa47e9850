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
use gaasx_xbar::fault::{chain_key, CamFaultState, MacFaultState};
use gaasx_xbar::{CamCrossbar, HitVector, MacCrossbar, MacDirection, VoteTally, XbarStats};

use crate::algorithms::SearchProfile;
use crate::config::GaasXConfig;
use crate::error::CoreError;
use crate::sfu::Sfu;

/// Sentinel for a physical row that maps to no logical slot (a free or
/// retired row).
const UNMAPPED: usize = usize::MAX;

/// Roots of the draw keys of block loads made inside a shard pass and of
/// loads made outside one (see [`Engine::load_block`]).
const SHARD_LOAD_DOMAIN: u64 = 0x7368_6172_645F_6C64; // "shard_ld"
const FREE_LOAD_DOMAIN: u64 = 0x6672_6565_5F6C_6F61; // "free_loa"

/// A CAM majority vote searches on until every row's majority leads by
/// this many votes…
const VOTE_MARGIN: u32 = 3;
/// …or it has taken this many votes (odd, so no row ties).
const MAX_VOTES: u32 = 9;

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

/// Which vertex words [`Engine::sweep`] derives for each block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Distinct sources only (frontier traversals search the source field).
    Srcs,
    /// Distinct destinations only (gathers search the destination field).
    Dsts,
    /// Both (collaborative filtering searches items, then users).
    Both,
}

/// A loaded block as the controller sees it (§III-A): the edges at its
/// CAM/MAC rows, borrowed from the shard, and the distinct vertices of the
/// field(s) named by the sweep's [`Keys`] as *vertex words*: ascending
/// `(word, mask)` pairs in which bit `b` of `mask` marks vertex
/// `64 * word + b`, every word appearing once with a non-zero mask. The
/// words live in buffers the sweep reuses from block to block, so a block
/// costs no allocation.
///
/// Word masks meet a frontier kept as a bitset over the same vertex ids
/// (`frontier[w]` holding vertices `64 * w..64 * w + 64`) one word at a
/// time: [`Block::has_src_in`] tests whether a block holds any frontier
/// source and [`Block::srcs_in`] lists exactly those sources, without
/// reading any other.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    rows: &'a [Edge],
    keys: Keys,
    srcs: &'a [(u32, u64)],
    dsts: &'a [(u32, u64)],
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

    /// Distinct source vertices as vertex words (the controller tracks
    /// loaded vertex ranges as graph metadata, §III-A). Derived only when
    /// the sweep asked for [`Keys::Srcs`] or [`Keys::Both`].
    pub fn src_words(&self) -> &'a [(u32, u64)] {
        debug_assert!(self.keys != Keys::Dsts, "no source words derived");
        self.srcs
    }

    /// Distinct destination vertices as vertex words. Derived only when
    /// the sweep asked for [`Keys::Dsts`] or [`Keys::Both`].
    pub fn dst_words(&self) -> &'a [(u32, u64)] {
        debug_assert!(self.keys != Keys::Srcs, "no destination words derived");
        self.dsts
    }

    /// Distinct source vertices, ascending.
    pub fn srcs(&self) -> impl Iterator<Item = VertexId> + 'a {
        WordBits::new(self.src_words(), |_, m| m)
    }

    /// Distinct destination vertices, ascending.
    pub fn dsts(&self) -> impl Iterator<Item = VertexId> + 'a {
        WordBits::new(self.dst_words(), |_, m| m)
    }

    /// Whether any source of the block is set in the bitset `frontier`.
    ///
    /// # Panics
    ///
    /// Panics if `frontier` is shorter than the block's highest source
    /// word.
    pub fn has_src_in(&self, frontier: &[u64]) -> bool {
        self.src_words()
            .iter()
            .any(|&(w, m)| frontier[w as usize] & m != 0)
    }

    /// The block's sources set in the bitset `frontier`, ascending: the
    /// set bits of each source word ANDed with its frontier word.
    ///
    /// # Panics
    ///
    /// As [`Block::has_src_in`].
    pub fn srcs_in<'f>(&self, frontier: &'f [u64]) -> impl Iterator<Item = VertexId> + 'f
    where
        'a: 'f,
    {
        WordBits::new(self.src_words(), move |w, m| m & frontier[w as usize])
    }
}

/// The vertices marked in vertex words, ascending, each word's mask first
/// passed through `keep` (the identity, or an AND with a frontier word).
struct WordBits<'a, F> {
    words: std::slice::Iter<'a, (u32, u64)>,
    keep: F,
    base: u32,
    mask: u64,
}

impl<'a, F: FnMut(u32, u64) -> u64> WordBits<'a, F> {
    fn new(words: &'a [(u32, u64)], keep: F) -> Self {
        WordBits {
            words: words.iter(),
            keep,
            base: 0,
            mask: 0,
        }
    }
}

impl<F: FnMut(u32, u64) -> u64> Iterator for WordBits<'_, F> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        while self.mask == 0 {
            let &(word, mask) = self.words.next()?;
            // A word holds ids below 2^32, so `64 * word` does not overflow.
            self.base = 64 * word;
            self.mask = (self.keep)(word, mask);
        }
        let bit = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(VertexId::new(self.base + bit))
    }
}

/// Overwrites `out` with the vertex words of one edge field of `rows`
/// (see [`Block`]), reusing its capacity and that of `scratch`.
///
/// A field whose values span fewer than 64 ids per row is marked in
/// `scratch` as a bitmap over the words it touches, then read back
/// skipping empty words: linear time, no sort. A full block of a
/// partition shard qualifies whenever the partition's vertex intervals
/// (`|V|/16` ids) are narrower than that, e.g. up to 131,072 vertices on
/// 128-row banks. A wider span sorts the raw ids in `scratch` instead and
/// groups them by word.
fn words_into(
    rows: &[Edge],
    field: fn(&Edge) -> VertexId,
    out: &mut Vec<(u32, u64)>,
    scratch: &mut Vec<u64>,
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
    scratch.clear();
    if ((max - min) as usize) < 64 * rows.len() {
        let base = min / 64;
        scratch.resize((max / 64 - base) as usize + 1, 0);
        for e in rows {
            let v = field(e).raw();
            scratch[(v / 64 - base) as usize] |= 1 << (v % 64);
        }
        out.extend(
            (base..)
                .zip(scratch.iter().copied())
                .filter(|&(_, mask)| mask != 0),
        );
        return;
    }
    scratch.extend(rows.iter().map(|e| u64::from(field(e).raw())));
    scratch.sort_unstable();
    for &v in scratch.iter() {
        let (word, bit) = ((v / 64) as u32, 1 << (v % 64));
        match out.last_mut() {
            Some((w, mask)) if *w == word => *mask |= bit,
            _ => out.push((word, bit)),
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
    /// CAM key sequence of the block being loaded, programmed in one bulk
    /// [`CamCrossbar::program_block`] write.
    key_buf: Vec<u128>,
    /// Reused MAC-code buffer for [`CellLayout::PerEdge`] loading.
    codes_buf: Vec<u32>,
    /// The re-searches of a CAM majority vote, and the per-row tally of a
    /// vote that was not unanimous.
    vote_b: HitVector,
    vote_c: HitVector,
    tally: VoteTally,
    /// Shard passes this engine has run as a [`ShardRunner`] (or, as a
    /// sharded engine's primary, on its behalf): the ordinal the next
    /// pass's loads key on.
    ///
    /// [`ShardRunner`]: crate::ShardRunner
    passes: u64,
    /// Loads made outside any shard pass: the ordinal the next such load
    /// keys on.
    free_loads: u64,
    /// Which attempt at its query the current run is (see
    /// [`set_attempt`](Self::set_attempt)); every load key starts from it.
    attempt: u64,
    /// Inside a shard pass, the pass ordinal and the shard's stream
    /// position; `None` outside one.
    shard: Option<(u64, u64)>,
    /// Inside a shard pass, the index in the shard of the chunk the next
    /// load programs.
    next_chunk: u64,
    /// Reused MAC input buffer for [`Engine::gather_rows`].
    inputs_buf: Vec<u32>,
    /// Reused MAC output buffer (one accumulated sum per crossed line).
    mac_out: Vec<u64>,
    /// The source and destination vertex words behind every [`Block`] of
    /// [`Engine::sweep`], and the scratch that derives them, reused from
    /// load to load.
    srcs_buf: Vec<(u32, u64)>,
    dsts_buf: Vec<(u32, u64)>,
    words_scratch: Vec<u64>,
    /// The hit list and MAC results of [`Engine::propagate_src`].
    hits_buf: HitVector,
    results_buf: Vec<(usize, u64)>,
    /// Per-query candidate scratch of the frontier traversals (see
    /// [`Engine::take_candidates`]).
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
            vote_b: HitVector::new(0),
            vote_c: HitVector::new(0),
            tally: VoteTally::default(),
            passes: 0,
            free_loads: 0,
            attempt: 0,
            shard: None,
            next_chunk: 0,
            inputs_buf: Vec::with_capacity(config.mac_geometry.max_active_rows),
            mac_out: Vec::new(),
            srcs_buf: Vec::new(),
            dsts_buf: Vec::new(),
            words_scratch: Vec::new(),
            hits_buf: HitVector::new(0),
            results_buf: Vec::new(),
            cands_buf: Vec::new(),
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
        self.preset_mac_billed(code, true)
    }

    /// [`preset_mac`](Self::preset_mac), billing the post-preset audit
    /// only when `bill` is set. A sharded engine presets every worker's
    /// bank but bills one audit, as the serial engine does.
    pub(crate) fn preset_mac_billed(&mut self, code: u32, bill: bool) -> Result<(), CoreError> {
        let g = self.config.mac_geometry;
        let codes = vec![code; g.cols];
        for row in 0..g.rows {
            self.mac.preload_row(row, &codes)?;
        }
        if self.verify_on() {
            self.audit_preset(code, bill)?;
        }
        Ok(())
    }

    /// Post-preset health check: read back every mapped slot and every
    /// spare. Spares that fail are dropped from the pool (a remap target
    /// must hold the preset correctly); mapped slots that fail remap onto a
    /// pre-validated spare. With `bill`, verify reads are charged as
    /// data-loading time and the detections and remaps are counted.
    fn audit_preset(&mut self, code: u32, bill: bool) -> Result<(), CoreError> {
        let cols = self.config.mac_geometry.cols;
        let spares = std::mem::take(&mut self.spares);
        let mut good = Vec::with_capacity(spares.len());
        let mut detected = 0u64;
        for &spare in &spares {
            if self.preset_row_ok(spare, code, cols)? {
                good.push(spare);
            } else {
                detected += 1;
            }
        }
        let reads = (spares.len() + self.log2phys.len()) as u64;
        self.spares = good;
        for slot in 0..self.log2phys.len() {
            if !self.preset_row_ok(self.log2phys[slot], code, cols)? {
                detected += 1;
                self.remap_slot(slot, bill)?;
            }
        }
        if bill {
            self.faults.verify_reads = self.faults.verify_reads.saturating_add(reads);
            self.faults.faults_detected = self.faults.faults_detected.saturating_add(detected);
            let verify_ns = self.config.energy.verify_read_ns * reads;
            self.add_compute(Phase::LoadBlock, verify_ns);
            self.trace_op(Phase::LoadBlock, verify_ns);
        }
        Ok(())
    }

    fn preset_row_ok(&self, phys: usize, code: u32, cols: usize) -> Result<bool, CoreError> {
        Ok(self.mac.read_row(phys)?[..cols].iter().all(|&c| c == code))
    }

    /// Retires the physical row behind `slot` and maps the slot onto the
    /// next spare. The retired row is invalidated in the CAM so stale bits
    /// can never match a search. With `bill`, the remap is counted and
    /// traced.
    fn remap_slot(&mut self, slot: usize, bill: bool) -> Result<(), CoreError> {
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
        if !bill {
            return Ok(());
        }
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

    /// Reads back a just-programmed row and compares against intent. A
    /// row past the arrays reads as a mismatch (a write to it errors).
    #[inline]
    fn row_matches(&self, phys: usize, key: u128, codes: Option<&[u32]>) -> bool {
        let held = self
            .cam
            .read(phys)
            .is_ok_and(|e| e.valid && e.bits == key & self.cam_width_mask());
        // An element loop: a handful of codes is cheaper to compare than
        // to hand to `memcmp`.
        held && codes.map_or(true, |codes| {
            self.mac
                .read_row(phys)
                .is_ok_and(|row| row.iter().zip(codes).all(|(a, b)| a == b))
        })
    }

    #[inline]
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

    /// Recovers one logical slot (CAM key plus optional MAC codes) whose
    /// last write failed verify: bounded retries on its physical row, then
    /// spare-row remapping, per the
    /// [`RecoveryPolicy`](crate::RecoveryPolicy). Returns the programming
    /// time spent on the new attempts, including their verify reads.
    fn program_slot(
        &mut self,
        slot: usize,
        key: u128,
        codes: Option<&[u32]>,
    ) -> Result<Nanos, CoreError> {
        let attempt_ns = self.slot_program_ns(codes.map(<[u32]>::len));
        let mut ns = Nanos::ZERO;
        let mut tries: u32 = 0;
        loop {
            self.faults.faults_detected = self.faults.faults_detected.saturating_add(1);
            if tries < self.config.recovery.retry_budget {
                tries += 1;
                self.faults.write_retries = self.faults.write_retries.saturating_add(1);
            } else {
                // Retry budget exhausted on this physical row: remap the
                // slot and reprogram on the spare (or fail if the pool is
                // dry).
                self.remap_slot(slot, true)?;
                tries = 0;
            }
            let phys = self.log2phys[slot];
            self.cam.write(phys, key)?;
            if let Some(c) = codes {
                self.mac.write_row(phys, c)?;
            }
            ns += attempt_ns + self.config.energy.verify_read_ns;
            self.faults.verify_reads = self.faults.verify_reads.saturating_add(1);
            if self.row_matches(phys, key, codes) {
                return Ok(ns);
            }
        }
    }

    /// Marks the start of a shard in a shard pass: until
    /// [`end_shard`](Self::end_shard), the loads key on the pass ordinal
    /// `pass`, the shard's stream position `pos` and each chunk's index
    /// in the shard, never on this engine's history.
    pub(crate) fn begin_shard(&mut self, pass: u64, pos: usize) {
        self.shard = Some((pass, pos as u64));
        self.next_chunk = 0;
    }

    /// Keys the transient fault draws of the runs that follow as attempt
    /// `attempt` at their query. Attempt 0, which every engine starts at
    /// and [`reset_accounting`](Self::reset_accounting) restores, draws as
    /// a fresh engine does; a retry after a [`CoreError::DeviceFault`]
    /// takes a later attempt, so its transient faults are drawn anew
    /// (stuck cells, being positional, stay where they are).
    pub fn set_attempt(&mut self, attempt: u32) {
        self.attempt = u64::from(attempt);
    }

    /// Marks the end of the shard [`begin_shard`](Self::begin_shard)
    /// opened.
    pub(crate) fn end_shard(&mut self) {
        self.shard = None;
    }

    /// Takes the ordinal of a new shard pass.
    pub(crate) fn next_pass(&mut self) -> u64 {
        let pass = self.passes;
        self.passes = pass.saturating_add(1);
        pass
    }

    /// Streams a shard through the working CAM+MAC bank block by block:
    /// the controller loop every algorithm runs (§III-A/§III-C).
    ///
    /// `edges` is cut into chunks of [`block_capacity`](Self::block_capacity)
    /// rows. For each chunk the sweep first derives the vertex words of the
    /// fields `keys` names and hands `filter` the [`Block`] they describe.
    /// A chunk `filter` rejects is never loaded (the frontier check of a
    /// traversal, which meets the block's source words with its frontier;
    /// dense sweeps accept every chunk). Each accepted chunk is loaded with
    /// [`load_block`](Self::load_block), and `visit` runs once with the
    /// engine and the same [`Block`] — it issues the block's searches, MAC
    /// operations and SFU work in whatever order it needs. The sweep leaves
    /// the last block open, as a hand-written loop over `load_block` would.
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
        mut filter: impl FnMut(&Block<'_>) -> bool,
        mut visit: impl FnMut(&mut Engine, &Block<'_>) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        // The words leave the engine for the sweep so a block can borrow
        // them while `visit` holds the engine mutably. Words `keys` does
        // not name stay empty rather than stale.
        let mut srcs = std::mem::take(&mut self.srcs_buf);
        let mut dsts = std::mem::take(&mut self.dsts_buf);
        let mut scratch = std::mem::take(&mut self.words_scratch);
        srcs.clear();
        dsts.clear();
        let mut swept = Ok(());
        // Inside a shard the loads key on each chunk's index in the shard,
        // whether or not the filter loads the chunks before it.
        let first_chunk = self.next_chunk;
        let capacity = self.block_capacity();
        for (i, rows) in edges.chunks(capacity).enumerate() {
            self.next_chunk = first_chunk + i as u64;
            if keys != Keys::Dsts {
                words_into(rows, |e| e.src, &mut srcs, &mut scratch);
            }
            if keys != Keys::Srcs {
                words_into(rows, |e| e.dst, &mut dsts, &mut scratch);
            }
            let block = Block {
                rows,
                keys,
                srcs: &srcs,
                dsts: &dsts,
            };
            if !filter(&block) {
                continue;
            }
            swept = self
                .load_block(rows, cells)
                .and_then(|()| visit(self, &block));
            if swept.is_err() {
                break;
            }
        }
        self.next_chunk = first_chunk + edges.len().div_ceil(capacity.max(1)) as u64;
        self.srcs_buf = srcs;
        self.dsts_buf = dsts;
        self.words_scratch = scratch;
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
    /// programmed, so a rejected block bills nothing. The CAM and the MAC
    /// each program the whole block onto its slots' physical rows in one
    /// bank write ([`CamCrossbar::program_block`],
    /// [`MacCrossbar::program_block`]). With write-verify, one pass then
    /// reads every slot back, and only the slots that fail go through
    /// retry and remapping.
    ///
    /// Every transient fault the load draws is keyed, not streamed: the
    /// arrays take a draw key naming the load. Inside a shard pass (see
    /// [`ShardRunner::for_each_shard`]) it names the pass ordinal, the
    /// shard's stream position and the chunk's index in the shard
    /// ([`sweep`](Self::sweep) numbers the chunks, a direct call takes the
    /// next index); outside one it names this engine's count of such
    /// loads. Both start from the run's attempt at its query
    /// ([`set_attempt`](Self::set_attempt)). So a load draws alike on any
    /// engine, in any batch, whatever ran before it, and
    /// [`reset_accounting`](Self::reset_accounting) restarts both
    /// ordinals.
    ///
    /// [`ShardRunner::for_each_shard`]: crate::ShardRunner::for_each_shard
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
        // The parts the load's key chains, after its root.
        let (parts, n) = match self.shard {
            Some((pass, pos)) => {
                let chunk = self.next_chunk;
                self.next_chunk = chunk.saturating_add(1);
                ([SHARD_LOAD_DOMAIN, self.attempt, pass, pos, chunk], 5)
            }
            None => {
                let load = self.free_loads;
                self.free_loads = load.saturating_add(1);
                ([FREE_LOAD_DOMAIN, self.attempt, load, 0, 0], 3)
            }
        };
        // Only arrays that draw (faults or noise) need the load's key.
        if self.fault_active || self.config.noise_sigma > 0.0 {
            let load_key = parts[1..n].iter().fold(parts[0], |k, &p| chain_key(k, p));
            self.cam.set_draw_key(load_key);
            self.mac.set_draw_key(load_key);
        }

        self.key_buf.clear();
        self.key_buf.extend(
            edges
                .iter()
                .map(|e| (u128::from(e.src.raw()) << 32) | u128::from(e.dst.raw())),
        );
        let programmed = self.program_rows(&codes, width);
        self.codes_buf = codes;
        let program_ns = programmed?;

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

    /// Programs the loaded block's keys (`key_buf`) and `codes` onto its
    /// slots' physical rows, one bank write per array, then verifies and
    /// recovers the slots when write-verify is on. Returns the
    /// programming time: one slot program per slot, plus one verify read
    /// per slot and every recovery attempt under write-verify.
    fn program_rows(&mut self, codes: &[u32], width: Option<usize>) -> Result<Nanos, CoreError> {
        let len = self.block_len;
        let rows = &self.log2phys[..len];
        self.cam.program_block(rows, &self.key_buf)?;
        if let Some(w) = width {
            self.mac.program_block(rows, codes, w)?;
        }
        let mut program_ns = self.slot_program_ns(width) * len as u64;
        if !self.verify_on() {
            return Ok(program_ns);
        }
        program_ns += self.config.energy.verify_read_ns * len as u64;
        self.faults.verify_reads = self.faults.verify_reads.saturating_add(len as u64);
        // The verify pass recovers a failed slot as it finds it: the
        // retries draw on their own rows and attempts, so they draw alike
        // before or after the other slots are read back.
        let mut slot = 0;
        while let Some(failed) = self.first_mismatch(slot, codes, width) {
            let row_codes = width.map(|w| &codes[failed * w..][..w]);
            program_ns += self.program_slot(failed, self.key_buf[failed], row_codes)?;
            slot = failed + 1;
        }
        Ok(program_ns)
    }

    /// The first slot from `from` on whose programmed row does not hold
    /// its intent (its key and, with a `width`, its codes in `codes`).
    fn first_mismatch(&self, from: usize, codes: &[u32], width: Option<usize>) -> Option<usize> {
        let len = self.block_len;
        let mut slots = self.log2phys[from..len]
            .iter()
            .zip(&self.key_buf[from..len]);
        match width {
            Some(w) if w > 0 => slots
                .zip(codes[from * w..len * w].chunks_exact(w))
                .position(|((&phys, &key), c)| !self.row_matches(phys, key, Some(c))),
            // No codes, or rows of none: the CAM entry is the intent.
            _ => slots.position(|(&phys, &key)| !self.row_matches(phys, key, None)),
        }
        .map(|i| from + i)
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

    /// Bills one physical CAM search (time, energy and the trace).
    #[inline]
    fn bill_search(&mut self) {
        let ns = self.config.energy.cam_search_ns;
        self.current
            .add_phase(Phase::CamSearch, ns, self.record_ops);
        self.trace_op(Phase::CamSearch, ns);
    }

    /// Issues a CAM search, optionally majority-voted against transient
    /// upsets, and translates physical hit rows back to logical slots.
    ///
    /// The search is *always* billed (time, energy, `cam_searches`) as one
    /// physical CAM operation per vote — the hardware searches every time.
    /// A vote takes three searches. When they disagree it searches on, two
    /// votes at a time, until every row's majority leads by
    /// [`VOTE_MARGIN`] votes or [`MAX_VOTES`] were taken, and keeps the
    /// per-row majority. Each vote is its own round of the search, so it
    /// draws its own upset.
    fn searched_into(&mut self, key: u128, mask: u128, out: &mut HitVector) {
        self.bill_search();
        self.cam.search_into(key, mask, out);
        if self.fault_active && self.config.recovery.cam_double_check {
            // Two extra searches, each charged like the first.
            self.bill_search();
            self.bill_search();
            if self.cam.search_draws() {
                self.cam.search_round_into(key, mask, 1, &mut self.vote_b);
                self.cam.search_round_into(key, mask, 2, &mut self.vote_c);
                if *out != self.vote_b || *out != self.vote_c {
                    self.vote_on(key, mask, out);
                }
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

    /// Settles a CAM vote whose first three rounds (`out`, `vote_b`,
    /// `vote_c`) disagree: searches two more rounds at a time until the
    /// tally settles or reaches [`MAX_VOTES`], then writes the per-row
    /// majority into `out`.
    #[cold]
    fn vote_on(&mut self, key: u128, mask: u128, out: &mut HitVector) {
        let mut tally = std::mem::take(&mut self.tally);
        tally.clear();
        for vote in [&*out, &self.vote_b, &self.vote_c] {
            tally.add(vote);
        }
        while tally.votes() < MAX_VOTES && !tally.settled(VOTE_MARGIN) {
            for _ in 0..2 {
                self.bill_search();
                self.cam
                    .search_round_into(key, mask, tally.votes(), &mut self.vote_b);
                tally.add(&self.vote_b);
            }
        }
        tally.majority_into(out);
        self.tally = tally;
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
            // functional evaluation to that line; the burst is still billed
            // in full, and its noise samples and ADC flips are keyed by
            // line, so the sum equals the full burst's.
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
            // energy, and modeled time match the full-evaluation path, and
            // noise samples and ADC flips are keyed by line, so the sums
            // do too.
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

    /// One source's step of a frontier traversal (SpMV-add, §IV): the CAM
    /// search for `src`'s rows ([`search_src_into`](Self::search_src_into))
    /// and one propagation over them
    /// ([`propagate_rows_into`](Self::propagate_rows_into)), through the
    /// engine's own hit and result buffers. Returns each hit row with its
    /// sum, ascending by row, valid until the next engine call.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn propagate_src(
        &mut self,
        src: VertexId,
        cols: &[usize],
        col_inputs: &[u32],
    ) -> Result<&[(usize, u64)], CoreError> {
        let mut hits = std::mem::replace(&mut self.hits_buf, HitVector::new(0));
        let mut results = std::mem::take(&mut self.results_buf);
        self.search_src_into(src, &mut hits);
        let propagated = self.propagate_rows_into(&hits, cols, col_inputs, &mut results);
        self.hits_buf = hits;
        self.results_buf = results;
        propagated.map(|()| self.results_buf.as_slice())
    }

    /// Lends the per-query candidate scratch of the frontier traversals:
    /// at least `queries` empty vectors that keep their capacity from shard
    /// to shard, so a warm shard pass collects its `(dst, MAC sum)`
    /// relaxations without allocating. Hand it back with
    /// [`restore_candidates`](Self::restore_candidates).
    pub(crate) fn take_candidates(&mut self, queries: usize) -> Vec<Vec<(u32, u64)>> {
        let mut cands = std::mem::take(&mut self.cands_buf);
        if cands.len() < queries {
            cands.resize_with(queries, Vec::new);
        }
        cands.iter_mut().for_each(Vec::clear);
        cands
    }

    /// Returns the scratch [`take_candidates`](Self::take_candidates) lent.
    pub(crate) fn restore_candidates(&mut self, cands: Vec<Vec<(u32, u64)>>) {
        self.cands_buf = cands;
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

    /// Closes any open block and returns the number of committed block
    /// costs. The sharded layer reads it on a worker engine after each
    /// shard to mark where the shard's costs end.
    pub(crate) fn committed_costs(&mut self) -> usize {
        self.end_block();
        self.costs.len()
    }

    /// Drains every committed block cost (closing any open block first),
    /// keeping the cost vector's capacity for the next pass. The sharded
    /// layer drains its workers after each pass and re-appends their costs
    /// to the primary engine in canonical shard-stream order — which is
    /// what makes the merged wave schedule bit-identical to a serial run.
    pub(crate) fn drain_costs(&mut self) -> std::vec::Drain<'_, BlockCost> {
        self.end_block();
        self.costs.drain(..)
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
    /// [`Engine::drain_costs`] / [`Engine::append_costs`].
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
    /// state in place: programmed CAM/MAC contents, endurance wear maps
    /// and spare-row remappings all survive. The deadline is cleared (it
    /// is per-query), and the pass and load ordinals the fault draws key
    /// on restart, so the next query draws exactly as it would on a fresh
    /// engine.
    pub fn reset_accounting(&mut self) {
        self.passes = 0;
        self.free_loads = 0;
        self.attempt = 0;
        self.shard = None;
        self.aux_mac.set_draw_key(0);
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

    /// The sweep loads exactly the chunks its filter accepts, the filter
    /// and the visit see the same words, and each block's vertices equal
    /// sort + dedup of its rows.
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
            let (mut chunk, mut filtered, mut seen, mut visited) =
                (0, Vec::new(), Vec::new(), Vec::new());
            let odd_chunks = |b: &Block<'_>| {
                chunk += 1;
                if chunk % 2 == 1 {
                    filtered.push((b.src_words().to_vec(), b.dst_words().to_vec()));
                }
                chunk % 2 == 1
            };
            e.sweep(
                &edges,
                CellLayout::Preset,
                Keys::Both,
                odd_chunks,
                |_, b| {
                    assert_eq!(b.srcs().collect::<Vec<_>>(), sorted(b.rows, |e| e.src));
                    assert_eq!(b.dsts().collect::<Vec<_>>(), sorted(b.rows, |e| e.dst));
                    seen.push((b.src_words().to_vec(), b.dst_words().to_vec()));
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
            assert_eq!(seen, filtered, "the visit sees the words the filter saw");
        }
        // Words the keys do not name stay empty, not stale.
        let all = |_: &Block<'_>| true;
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

    /// `words_into` marks exactly the sorted, deduplicated values on both
    /// paths: the bitmap (a span below 64 ids per row) and the sort
    /// fallback (a wider span). Each word appears once, ascending, with a
    /// non-zero mask, and a frontier meets exactly its own vertices.
    #[test]
    fn words_into_matches_sort_and_dedup_on_both_paths() {
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
        for (values, bitmap_path) in cases {
            let rows: Vec<Edge> = values
                .iter()
                .map(|&v| Edge::new(v, v.wrapping_mul(7), 1.0))
                .collect();
            let mut want = values.clone();
            want.sort_unstable();
            want.dedup();
            let (mut out, mut scratch) = (vec![(9, 9)], vec![u64::MAX; 3]);
            words_into(&rows, |e| e.src, &mut out, &mut scratch);
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "{out:?}");
            assert!(out.iter().all(|&(_, m)| m != 0));
            let block = Block {
                rows: &rows,
                keys: Keys::Srcs,
                srcs: &out,
                dsts: &[],
            };
            let got: Vec<u32> = block.srcs().map(VertexId::raw).collect();
            assert_eq!(got, want, "{} values", values.len());
            // The bitmap path leaves one scratch word per word between the
            // extremes; the sort path leaves the sorted ids.
            if let (Some(&min), Some(&max)) = (want.first(), want.last()) {
                if bitmap_path {
                    assert_eq!(scratch.len(), (max / 64 - min / 64) as usize + 1);
                } else {
                    let mut ids: Vec<u64> = values.iter().map(|&v| u64::from(v)).collect();
                    ids.sort_unstable();
                    assert_eq!(scratch, ids, "path for {values:?}");
                }
            }
            // A frontier of every other distinct value meets exactly those.
            if let Some(&(last, _)) = out.last() {
                let mut frontier = vec![0u64; last as usize + 1];
                for &v in want.iter().step_by(2) {
                    frontier[(v / 64) as usize] |= 1 << (v % 64);
                }
                let met: Vec<u32> = block.srcs_in(&frontier).map(VertexId::raw).collect();
                let even: Vec<u32> = want.iter().copied().step_by(2).collect();
                assert_eq!(met, even);
                assert!(block.has_src_in(&frontier));
                assert!(!block.has_src_in(&vec![0; frontier.len()]));
            }
        }
    }

    #[test]
    fn sweep_stops_at_the_first_visit_error() {
        let mut e = engine();
        let g = generators::path_graph(300); // three blocks of ≤128 edges
        let (all, mut visits) = (|_: &Block<'_>| true, 0);
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
        primary.append_costs(worker.drain_costs());
        primary.absorb_functional(&worker);
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
            // 28 true hits per source on a 128-row bank.
            let edges: Vec<Edge> = (0..e.block_capacity() as u32)
                .map(|i| Edge::new(i % 4, 1000 + i, 3.0))
                .collect();
            let mut moved_among_others = false;
            // 32 searches over eight loads: a load keys the upsets anew.
            for _ in 0..8 {
                e.load_block(&edges, WEIGHT_AND_ONE).unwrap();
                assert!(e.remap_active, "seed must exercise remapping");
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
                    // One upset per search; a vote keeps every hit.
                    let allowed = usize::from(!cam_double_check);
                    assert!(wrong <= allowed, "src {src}: {rows:?}");
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
        assert_eq!(r.faults.cam_double_checks, 1);
        // Every round glitches a row, so the first three disagree and the
        // vote searches on, two rounds at a time, up to nine.
        assert!(
            [5, 7, 9].contains(&r.ops.cam_searches),
            "{} physical searches",
            r.ops.cam_searches
        );
        assert_eq!(
            r.phase(Phase::CamSearch).unwrap().count,
            r.ops.cam_searches,
            "every round is billed"
        );
    }

    /// At an upset rate of 1.0 every search round toggles one match line.
    /// Over 20,000 voted searches on a 128-row bank, at most 10 voted hit
    /// lists may be wrong: a wrong list needs three unanimous upsets of
    /// one row (about 1/128² per search) or a majority of up to nine
    /// rounds on one row. A three-way vote that never compares its votes
    /// gets about one list in 40 wrong.
    #[test]
    fn escalating_votes_keep_upset_hit_lists_right() {
        let fault = FaultModel {
            cam_upset_rate: 1.0,
            seed: 29,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        let edges: Vec<Edge> = (0..e.block_capacity() as u32)
            .map(|i| Edge::new(i % 7, 1000 + i % 5, 3.0))
            .collect();
        let (mut searches, mut wrong) = (0, 0);
        while searches < 20_000 {
            e.load_block(&edges, WEIGHT_AND_ONE).unwrap();
            for v in 0..12u32 {
                let (hits, want): (_, Vec<usize>) = if v < 7 {
                    let want = (0..edges.len()).filter(|&s| edges[s].src.raw() == v);
                    (src_hits(&mut e, v), want.collect())
                } else {
                    let dst = 1000 + v - 7;
                    let want = (0..edges.len()).filter(|&s| edges[s].dst.raw() == dst);
                    (dst_hits(&mut e, dst), want.collect())
                };
                searches += 1;
                wrong += usize::from(hits.rows() != want);
            }
        }
        assert!(wrong <= 10, "{wrong} of {searches} voted hit lists wrong");
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
                for dst in block.dsts() {
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
