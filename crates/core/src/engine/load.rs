//! Data loading (§III-B): a block programmed into the working CAM+MAC
//! pair under write-verify, retries and spare-row remapping ([`RowMap`]),
//! its fault-draw keys ([`LoadKeys`]), and the auxiliary attribute rows.

use gaasx_graph::Edge;
use gaasx_sim::{Nanos, Phase};
use gaasx_xbar::fault::chain_key;
use gaasx_xbar::{CamCrossbar, HitVector};

use super::Engine;
use crate::error::CoreError;

/// Sentinel for a physical row that maps to no logical slot (a free or
/// retired row).
const UNMAPPED: usize = usize::MAX;

/// Roots of the draw keys of block loads made inside a shard pass and of
/// loads made outside one (see [`Engine::load_block`]).
const SHARD_LOAD_DOMAIN: u64 = 0x7368_6172_645F_6C64; // "shard_ld"
const FREE_LOAD_DOMAIN: u64 = 0x6672_6565_5F6C_6F61; // "free_loa"

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

/// Which physical CAM/MAC row holds each logical block slot: the only
/// state that knows a slot can move. Slot `s` starts on row `s`; recovery
/// moves a slot onto the lowest free spare (the top rows of a faulty bank).
#[derive(Debug)]
pub(super) struct RowMap {
    /// Slot → row, and row → slot ([`UNMAPPED`] for spares and retired
    /// rows).
    log2phys: Vec<usize>,
    phys2log: Vec<usize>,
    /// Free spare physical rows, popped in ascending row order.
    spares: Vec<usize>,
    /// `true` once any slot moved: guards the identity fast paths.
    remap_active: bool,
    /// Edges in the loaded block: slots `0..block_len` hold its edges.
    block_len: usize,
    /// The translated rows of a MAC burst, reused.
    phys_buf: Vec<usize>,
}

impl RowMap {
    /// The identity map of a bank of `rows` rows whose top `spares` rows
    /// are reserved for remapping.
    pub(super) fn new(rows: usize, spares: usize, max_active_rows: usize) -> Self {
        let slots = rows - spares;
        RowMap {
            log2phys: (0..slots).collect(),
            phys2log: (0..rows)
                .map(|p| if p < slots { p } else { UNMAPPED })
                .collect(),
            // Descending storage so `pop` hands out spares in ascending
            // physical-row order.
            spares: (slots..rows).rev().collect(),
            remap_active: false,
            block_len: 0,
            phys_buf: Vec::with_capacity(max_active_rows),
        }
    }

    /// Usable block slots: the bank's rows minus its reserved spares.
    pub(super) fn slots(&self) -> usize {
        self.log2phys.len()
    }

    /// The physical row behind `slot`.
    pub(super) fn phys(&self, slot: usize) -> usize {
        self.log2phys[slot]
    }

    /// The physical rows of the loaded block's slots from `from` on.
    fn block_rows(&self, from: usize) -> &[usize] {
        &self.log2phys[from..self.block_len]
    }

    /// Moves `slot` onto the next spare, retiring its row. Returns the
    /// retired row and the spare, or `None` when no spare remains.
    fn remap(&mut self, slot: usize) -> Option<(usize, usize)> {
        let spare = self.spares.pop()?;
        let phys = std::mem::replace(&mut self.log2phys[slot], spare);
        self.phys2log[phys] = UNMAPPED;
        self.phys2log[spare] = slot;
        self.remap_active = true;
        Some((phys, spare))
    }

    /// Keeps the spares `ok` accepts, in order; returns how many there
    /// were and how many it dropped.
    fn keep_spares(&mut self, mut ok: impl FnMut(usize) -> bool) -> (usize, usize) {
        let before = self.spares.len();
        self.spares.retain(|&spare| ok(spare));
        (before, before - self.spares.len())
    }

    /// The physical rows behind a chunk of logical slots: the chunk itself
    /// until a remap moves a slot, otherwise its translation into the
    /// reused buffer.
    #[inline]
    pub(super) fn physical_chunk<'a>(&'a mut self, chunk: &'a [usize]) -> &'a [usize] {
        if !self.remap_active {
            return chunk;
        }
        self.phys_buf.clear();
        let log2phys = &self.log2phys;
        self.phys_buf
            .extend(chunk.iter().map(|&slot| log2phys[slot]));
        &self.phys_buf
    }

    /// Rewrites the physical rows a CAM search hit as ascending logical
    /// slots, so algorithms stay oblivious to remapping. A search upset
    /// can toggle *any* match line, so hits on rows holding no edge of the
    /// loaded block (invalid, past its occupancy, or an unmapped spare)
    /// are dropped: algorithms index the block by slot.
    #[inline]
    pub(super) fn translate_hits(&self, cam: &CamCrossbar, out: &mut HitVector) {
        if self.remap_active || cam.search_draws() {
            let (phys2log, block_len) = (&self.phys2log, self.block_len);
            out.translate(|phys| {
                let slot = phys2log[phys];
                (slot < block_len && cam.read(phys).is_ok_and(|e| e.valid)).then_some(slot)
            });
        }
    }
}

/// The ordinals a load's fault draws key on (see [`Engine::load_block`]).
#[derive(Debug, Default)]
pub(super) struct LoadKeys {
    /// Shard passes run so far (by a sharded engine's primary, on its
    /// behalf), and loads made outside any shard pass.
    passes: u64,
    free_loads: u64,
    /// The run's attempt at its query ([`Engine::set_attempt`]).
    attempt: u64,
    /// Inside a shard pass, the pass ordinal and the shard's stream
    /// position, and the index in the shard of the next load's chunk.
    shard: Option<(u64, u64)>,
    next_chunk: u64,
}

impl LoadKeys {
    fn begin_shard(&mut self, pass: u64, pos: u64) {
        self.shard = Some((pass, pos));
        self.next_chunk = 0;
    }

    fn next_pass(&mut self) -> u64 {
        let pass = self.passes;
        self.passes = pass.saturating_add(1);
        pass
    }

    /// Passes over a chunk a sweep does not load, so the loads after it
    /// still key on their own index in the shard.
    pub(super) fn skip_chunk(&mut self) {
        self.next_chunk = self.next_chunk.saturating_add(1);
    }

    /// Takes the ordinals of the next load and, when `draws`, returns its
    /// draw key: [attempt, pass, shard position, chunk] inside a shard,
    /// [attempt, load] outside one, each chained after its domain root.
    fn next_load(&mut self, draws: bool) -> Option<u64> {
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
        draws.then(|| parts[1..n].iter().fold(parts[0], |k, &p| chain_key(k, p)))
    }
}

impl Engine {
    /// Presets every MAC cell of the working bank to `code` — one-time
    /// array configuration (BFS's all-ones weight columns) — through the
    /// uncounted preload path, so MAC statistics accumulated before it
    /// survive.
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

    /// Post-preset health check: reads back every spare and mapped slot.
    /// Failing spares leave the pool; failing slots remap onto a checked
    /// spare. With `bill`, the reads, detections and remaps are billed.
    fn audit_preset(&mut self, code: u32, bill: bool) -> Result<(), CoreError> {
        let mac = &self.mac;
        let (spares, dropped) = self.rows.keep_spares(|row| preset_held(mac, row, code));
        let mut detected = dropped as u64;
        let slots = self.rows.slots();
        for slot in 0..slots {
            if !preset_held(&self.mac, self.rows.phys(slot), code) {
                detected += 1;
                self.remap_slot(slot, bill)?;
            }
        }
        if bill {
            let reads = (spares + slots) as u64;
            let f = &mut self.ledger.faults;
            f.verify_reads = f.verify_reads.saturating_add(reads);
            f.faults_detected = f.faults_detected.saturating_add(detected);
            let verify_ns = self.config.energy.verify_read_ns * reads;
            self.ledger
                .add_compute(Phase::LoadBlock, verify_ns, self.record_ops);
            self.trace_op(Phase::LoadBlock, verify_ns);
        }
        Ok(())
    }

    /// Moves `slot` onto the next spare and invalidates its old CAM row so
    /// stale bits never match. With `bill`, the remap is counted and traced.
    fn remap_slot(&mut self, slot: usize, bill: bool) -> Result<(), CoreError> {
        let Some((phys, spare)) = self.rows.remap(slot) else {
            return Err(CoreError::DeviceFault {
                detail: format!(
                    "physical row {} (slot {slot}) is unprogrammable and no spare rows \
                     remain (policy: {} retries, {} spares)",
                    self.rows.phys(slot),
                    self.config.recovery.retry_budget,
                    self.config.recovery.spare_rows
                ),
                report: None,
            });
        };
        self.cam.invalidate(phys)?;
        if !bill {
            return Ok(());
        }
        let remaps = &mut self.ledger.faults.row_remaps;
        *remaps = remaps.saturating_add(1);
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
    /// MAC row): the CAM word and the MAC row program concurrently, so the
    /// slower paces the slot.
    fn slot_program_ns(&self, width: Option<usize>) -> Nanos {
        let cam_ns = self.config.energy.row_program_ns(1);
        match width {
            Some(w) => cam_ns.max(self.config.energy.row_program_ns(w)),
            None => cam_ns,
        }
    }

    /// Recovers a slot whose write failed verify: bounded retries on its
    /// row, then remapping, per the [`RecoveryPolicy`](crate::RecoveryPolicy).
    /// Returns the time of the new attempts and their verify reads.
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
            let f = &mut self.ledger.faults;
            f.faults_detected = f.faults_detected.saturating_add(1);
            if tries < self.config.recovery.retry_budget {
                tries += 1;
                f.write_retries = f.write_retries.saturating_add(1);
            } else {
                // Retry budget exhausted on this physical row: remap the
                // slot and reprogram on the spare (or fail if the pool is
                // dry).
                self.remap_slot(slot, true)?;
                tries = 0;
            }
            let phys = self.rows.phys(slot);
            self.cam.write(phys, key)?;
            if let Some(c) = codes {
                self.mac.write_row(phys, c)?;
            }
            ns += attempt_ns + self.config.energy.verify_read_ns;
            let f = &mut self.ledger.faults;
            f.verify_reads = f.verify_reads.saturating_add(1);
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
        self.keys.begin_shard(pass, pos as u64);
    }

    /// Keys the transient fault draws of the runs that follow as attempt
    /// `attempt` at their query. Attempt 0, which every engine starts at
    /// and [`reset_accounting`](Self::reset_accounting) restores, draws as
    /// a fresh engine does; a retry after a [`CoreError::DeviceFault`]
    /// takes a later attempt, so its transient faults are drawn anew
    /// (stuck cells, being positional, stay where they are).
    pub fn set_attempt(&mut self, attempt: u32) {
        self.keys.attempt = u64::from(attempt);
    }

    /// Marks the end of the shard [`begin_shard`](Self::begin_shard)
    /// opened.
    pub(crate) fn end_shard(&mut self) {
        self.keys.shard = None;
    }

    /// Takes the ordinal of a new shard pass.
    pub(crate) fn next_pass(&mut self) -> u64 {
        self.keys.next_pass()
    }

    /// Loads a block of edges into the working CAM+MAC bank (data loading
    /// phase), ending any previous block. Algorithms reach this through
    /// [`Engine::sweep`]; it stays public so tests can program a bank.
    ///
    /// A rejected block bills nothing. The CAM and the MAC each program
    /// the block onto its slots' rows in one bank write; with
    /// write-verify, one pass then reads every slot back, and only failing
    /// slots go through retry and remapping.
    ///
    /// Every transient fault the load draws is keyed by the load: inside
    /// a shard pass ([`ShardRunner::for_each_shard`](crate::ShardRunner))
    /// by the pass ordinal, the shard's stream position and the chunk's
    /// index in the shard; outside one by this engine's count of such
    /// loads; both after the run's [attempt](Self::set_attempt). So a load
    /// draws alike on any engine, in any batch, whatever ran before it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the block exceeds the bank
    /// capacity, or if its [`CellLayout::PerEdge`] fill holds the wrong
    /// number of codes, a width past the MAC columns or a code past the
    /// cell range.
    pub fn load_block(&mut self, edges: &[Edge], cells: CellLayout<'_>) -> Result<(), CoreError> {
        if let Some(deadline) = self.deadline_ns.filter(|&d| self.cursor_ns > d) {
            return Err(CoreError::Cancelled {
                detail: format!(
                    "modeled time {} ns exceeds the {deadline} ns deadline at a block boundary",
                    self.cursor_ns
                ),
                report: None,
            });
        }
        if edges.len() > self.block_capacity() {
            return Err(CoreError::InvalidInput(format!(
                "block of {} edges exceeds bank capacity {}",
                edges.len(),
                self.block_capacity()
            )));
        }
        // The codes are filled and checked first, so a rejected block
        // bills nothing.
        let codes = &mut self.scratch.codes_buf;
        codes.clear();
        let width = match cells {
            CellLayout::PerEdge { width, fill } => {
                fill(edges, codes);
                self.mac
                    .check_block(codes, width, edges.len())
                    .map_err(|e| CoreError::InvalidInput(format!("block cell codes: {e}")))?;
                Some(width)
            }
            CellLayout::Preset => None,
        };
        self.end_block();
        self.ledger.in_block = true;

        self.rows.block_len = edges.len();
        // Only arrays that draw (faults or noise) need the load's key.
        let draws = self.fault_active || self.config.noise_sigma > 0.0;
        if let Some(key) = self.keys.next_load(draws) {
            self.cam.set_draw_key(key);
            self.mac.set_draw_key(key);
        }

        let keys = &mut self.scratch.key_buf;
        keys.clear();
        keys.extend(
            edges
                .iter()
                .map(|e| (u128::from(e.src.raw()) << 32) | u128::from(e.dst.raw())),
        );
        let codes = std::mem::take(&mut self.scratch.codes_buf);
        let programmed = self.program_rows(&codes, width);
        self.scratch.codes_buf = codes;
        let program_ns = programmed?;

        let bytes = edges.len() as u64 * self.config.edge_record_bytes;
        self.ledger.input_buf.write(bytes);
        let stream_ns = self.edge_stream_ns * edges.len() as u64;
        self.ledger.current.stream_ns = stream_ns;
        self.ledger.current.program_ns = program_ns;

        let load_ns = stream_ns + program_ns;
        let start = self.count_op(Phase::LoadBlock, load_ns);
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
        let rows = self.rows.block_rows(0);
        let len = rows.len();
        self.cam.program_block(rows, &self.scratch.key_buf)?;
        if let Some(w) = width {
            self.mac.program_block(rows, codes, w)?;
        }
        let mut program_ns = self.slot_program_ns(width) * len as u64;
        if !self.verify_on() {
            return Ok(program_ns);
        }
        program_ns += self.config.energy.verify_read_ns * len as u64;
        let f = &mut self.ledger.faults;
        f.verify_reads = f.verify_reads.saturating_add(len as u64);
        // The verify pass recovers a failed slot as it finds it: the
        // retries draw on their own rows and attempts, so they draw alike
        // before or after the other slots are read back.
        let mut slot = 0;
        while let Some(failed) = self.first_mismatch(slot, codes, width) {
            let row_codes = width.map(|w| &codes[failed * w..][..w]);
            program_ns += self.program_slot(failed, self.scratch.key_buf[failed], row_codes)?;
            slot = failed + 1;
        }
        Ok(program_ns)
    }

    /// The first slot from `from` on whose programmed row does not hold
    /// its intent (its key and, with a `width`, its codes in `codes`).
    fn first_mismatch(&self, from: usize, codes: &[u32], width: Option<usize>) -> Option<usize> {
        let rows = self.rows.block_rows(from);
        let mut slots = rows.iter().zip(&self.scratch.key_buf[from..]);
        match width {
            Some(w) if w > 0 => slots
                .zip(codes[from * w..].chunks_exact(w))
                .position(|((&phys, &key), c)| !self.row_matches(phys, key, Some(c))),
            // No codes, or rows of none: the CAM entry is the intent.
            _ => slots.position(|(&phys, &key)| !self.row_matches(phys, key, None)),
        }
        .map(|i| from + i)
    }

    /// Writes one row of the auxiliary (vertex-attribute) MAC crossbar,
    /// billed as data loading.
    ///
    /// # Errors
    ///
    /// Propagates device errors for bad rows or codes.
    pub fn write_aux_row(&mut self, row: usize, codes: &[u32]) -> Result<(), CoreError> {
        self.aux_mac.write_row(row, codes)?;
        let cost = self.config.energy.row_program_ns(codes.len());
        if self.ledger.in_block {
            self.ledger.current.program_ns += cost;
        } else {
            self.ledger.extra_phase_ns[Phase::LoadBlock.index()] += cost;
        }
        self.trace_op(Phase::LoadBlock, cost);
        Ok(())
    }

    /// Re-materializes an auxiliary row already loaded and charged this
    /// pass (the working array is multiplexed over the banks holding
    /// attribute data), recording no device activity.
    ///
    /// # Errors
    ///
    /// Propagates device validation errors.
    pub fn preload_aux_row(&mut self, row: usize, codes: &[u32]) -> Result<(), CoreError> {
        self.aux_mac.preload_row(row, codes)?;
        Ok(())
    }

    /// Charges the loading of `rows` attribute rows of `values_per_row`
    /// values each across the banks of the current wave: full programming
    /// energy, wall time divided by the bank count. Collaborative filtering
    /// loads its per-shard feature vectors this way (§IV: they "are loaded
    /// into different MAC crossbars").
    pub fn load_aux_rows_parallel(&mut self, rows: usize, values_per_row: usize) {
        let l = &mut self.ledger;
        l.extra_aux_row_writes = l.extra_aux_row_writes.saturating_add(rows as u64);
        let cells = (rows * values_per_row * self.config.mac_geometry.slices) as u64;
        l.extra_aux_cells = l.extra_aux_cells.saturating_add(cells);
        let ns = self.config.energy.row_program_ns(values_per_row) * rows as u64
            / self.config.num_banks as u64;
        self.ledger
            .add_compute(Phase::LoadBlock, ns, self.record_ops);
        let start = self.count_op(Phase::LoadBlock, ns);
        if self.tracer.enabled() {
            self.tracer
                .span(Phase::LoadBlock, start.ns())
                .attr("aux_rows", rows)
                .attr("values_per_row", values_per_row)
                .end((start + ns).ns());
        }
    }

    /// Sets (or clears) the per-query modeled-time budget, in functional
    /// serial nanoseconds of work performed by *this* engine. Every
    /// [`load_block`](Engine::load_block) checks it, so a query past it
    /// fails at the next block boundary with [`CoreError::Cancelled`].
    /// [`reset_accounting`](Self::reset_accounting) rewinds the cursor it
    /// is checked against.
    pub fn set_deadline(&mut self, deadline: Option<Nanos>) {
        self.deadline_ns = deadline;
    }

    /// The active per-query modeled-time budget, if any.
    pub fn deadline(&self) -> Option<Nanos> {
        self.deadline_ns
    }
}

/// Whether MAC row `phys` holds the preset `code` in every column.
fn preset_held(mac: &gaasx_xbar::MacCrossbar, phys: usize, code: u32) -> bool {
    mac.read_row(phys)
        .is_ok_and(|row| row.iter().all(|&c| c == code))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GaasXConfig, RecoveryPolicy};
    use crate::engine::tests::*;
    use gaasx_graph::{generators, VertexId};
    use gaasx_xbar::FaultModel;

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
            fault: FaultModel {
                seed: 4,
                mac_stuck_ber: 0.01,
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy::standard(),
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
                    format!("{:?}", e.ledger),
                    e.cursor_ns,
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
}
