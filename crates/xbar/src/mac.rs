//! Analog multiply-and-accumulate crossbar model.

use crate::error::XbarError;
use crate::fault::{chain_key, draw, FaultStats, MacFaultState};
use crate::geometry::{MacGeometry, MAC_INPUT_BITS};
use crate::noise::NoiseModel;
use crate::{is_prefix, XbarStats};

/// Orientation of a MAC operation on a transposable crossbar.
///
/// The paper (§III-A) requires MAC crossbars that "perform the MAC operation
/// selectively on data elements either row wise or column wise (i.e. they
/// are transposable crossbars \[29\])": traversal algorithms accumulate edge
/// weights down columns, while collaborative filtering also needs the
/// transposed direction over vertex-attribute matrices.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum MacDirection {
    /// Activate rows, accumulate along bit lines into per-column sums.
    #[default]
    RowsToColumns,
    /// Activate columns, accumulate along word lines into per-row sums.
    ColumnsToRows,
}

/// Numerical fidelity of the analog periphery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Fidelity {
    /// Ideal periphery: exact integer dot products. Use for algorithm
    /// validation; cost accounting is identical to `Quantized`.
    #[default]
    Exact,
    /// Bit-sliced periphery: inputs stream `dac_bits` per step, each slice
    /// column is sampled by the `adc_bits` ADC and *saturates* at its full
    /// scale before shift-and-add reconstruction — the behaviour of real
    /// silicon when more charge accumulates than the converter can resolve.
    Quantized,
}

/// A ReRAM MAC crossbar (paper Fig 3(a)) storing unsigned fixed-point codes.
///
/// Functionally the array computes, for an operation with active rows `R`
/// and per-row digital inputs `x_r`:
///
/// ```text
/// out[c] = Σ_{r ∈ R} x_r · cell[r][c]        (RowsToColumns)
/// ```
///
/// Costs are tracked in [`XbarStats`]: one MAC op per call, DAC conversions
/// per active line per input step, and ADC samples per produced value per
/// input step per slice.
///
/// ```
/// use gaasx_xbar::{Fidelity, MacCrossbar, MacDirection};
/// use gaasx_xbar::geometry::MacGeometry;
///
/// let mut mac = MacCrossbar::new(MacGeometry::paper(), Fidelity::Exact);
/// mac.write_row(0, &[3, 0, 5])?;
/// mac.write_row(1, &[2, 1, 0])?;
/// let out = mac.mac(MacDirection::RowsToColumns, &[0, 1], &[10, 100])?;
/// assert_eq!(&out[..3], &[3 * 10 + 2 * 100, 100, 5 * 10]);
/// # Ok::<(), gaasx_xbar::XbarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MacCrossbar {
    geometry: MacGeometry,
    fidelity: Fidelity,
    /// Logical codes, row-major `rows × cols`. Always holds the *post-fault*
    /// view: stuck-at maps are applied when values land, so the hot MAC
    /// loops read the array unchanged.
    cells: Vec<u32>,
    /// Per row, how many leading cells may be nonzero: every cell past it
    /// is zero, so a row write zeroes only up to the old width instead of
    /// the whole row tail.
    row_width: Vec<usize>,
    noise: Option<NoiseModel>,
    /// Boxed, so a fault-free crossbar holds one pointer of it.
    faults: Option<Box<MacFaultState>>,
    stats: XbarStats,
    /// Draw key of the load being served (see
    /// [`set_draw_key`](Self::set_draw_key)).
    draw_key: u64,
    /// Drawing bursts issued under `draw_key`: the next one's ordinal.
    bursts: u64,
}

impl MacCrossbar {
    /// Creates a zeroed crossbar.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid; validate a custom [`MacGeometry`]
    /// first.
    pub fn new(geometry: MacGeometry, fidelity: Fidelity) -> Self {
        // gaasx-lint: allow(panic-in-lib) -- documented panic contract of new(); validated presets cannot hit it
        geometry.validate().expect("invalid MAC geometry");
        MacCrossbar {
            geometry,
            fidelity,
            cells: vec![0; geometry.rows * geometry.cols],
            row_width: vec![0; geometry.rows],
            noise: None,
            faults: None,
            stats: XbarStats::new(),
            draw_key: 0,
            bursts: 0,
        }
    }

    /// Attaches a device-variation noise model (only observable under
    /// [`Fidelity::Quantized`]).
    pub fn set_noise(&mut self, noise: Option<NoiseModel>) {
        self.noise = noise;
    }

    /// Attaches seeded device-fault state. Stuck maps corrupt values as they
    /// are written or preloaded; transient write failures and ADC flips are
    /// keyed draws (see [`set_draw_key`](Self::set_draw_key)). `None`
    /// detaches all fault behaviour.
    pub fn set_faults(&mut self, faults: Option<MacFaultState>) {
        self.faults = faults.map(Box::new);
        if let Some(f) = self.faults.as_mut() {
            f.set_key(self.draw_key);
        }
    }

    /// Names the load the crossbar now serves. Write failures draw on this
    /// key, the physical row and the row's attempt under the key; every
    /// noise sample and ADC flip of a burst draws on this key, the
    /// burst's ordinal under the key, and the sample's crossed line,
    /// input step and bit slice. A new key restarts the ordinal and the
    /// attempts, so two crossbars given the same keys draw alike however
    /// their operations interleave.
    pub fn set_draw_key(&mut self, key: u64) {
        self.draw_key = key;
        self.bursts = 0;
        if let Some(f) = self.faults.as_mut() {
            f.set_key(key);
        }
    }

    /// Injected-fault counters, when fault state is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_deref().map(MacFaultState::stats)
    }

    /// Folds a sibling crossbar's injected-fault counters into this one
    /// (no-op without attached fault state).
    pub fn merge_fault_stats(&mut self, other: Option<&FaultStats>) {
        if let (Some(f), Some(o)) = (self.faults.as_mut(), other) {
            f.merge_stats(o);
        }
    }

    /// Cumulative per-cell wear counts from the attached fault state,
    /// indexed `row * cols + col`. `None` when no fault state is attached
    /// or endurance tracking is off.
    pub fn fault_wear(&self) -> Option<&[u64]> {
        self.faults
            .as_deref()
            .map(MacFaultState::wear)
            .filter(|w| !w.is_empty())
    }

    /// Restores a wear map into the attached fault state (no-op without
    /// one, or on a geometry mismatch).
    pub fn restore_fault_wear(&mut self, wear: &[u64]) {
        if let Some(f) = self.faults.as_mut() {
            f.restore_wear(wear);
        }
    }

    /// Clears the attached fault state's injected-event counters for a new
    /// accounting window, preserving wear (no-op without fault state).
    pub fn reset_fault_stats(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            f.reset_stats();
        }
    }

    /// The geometry this crossbar was built with.
    pub fn geometry(&self) -> MacGeometry {
        self.geometry
    }

    /// The configured fidelity mode.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Largest storable cell code.
    pub fn max_code(&self) -> u32 {
        (((1u64 << self.geometry.weight_bits()) - 1) as u32).max(1)
    }

    /// Writes `codes` into the leading cells of `row`, zeroing the rest.
    /// Counts one row-programming burst and `len × slices` cell writes.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::RowOutOfRange`] or
    /// [`XbarError::DimensionMismatch`] if `codes` exceeds the column count,
    /// or [`XbarError::InvalidParameter`] if a code exceeds the cell range.
    pub fn write_row(&mut self, row: usize, codes: &[u32]) -> Result<(), XbarError> {
        if row >= self.geometry.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.geometry.rows,
            });
        }
        if codes.len() > self.geometry.cols {
            return Err(XbarError::DimensionMismatch {
                got: codes.len(),
                expected: self.geometry.cols,
                what: "row codes",
            });
        }
        self.check_codes(codes)?;
        self.land_row(row, codes);
        Ok(())
    }

    /// Body of [`write_row`](Self::write_row) after validation: programs
    /// `codes` (through the fault model, if attached) into the leading
    /// cells of `row`, zeroes its old tail and bills one row burst.
    fn land_row(&mut self, row: usize, codes: &[u32]) {
        self.program_row(row, codes);
        self.stats.row_writes += 1;
        self.stats.cells_written += (codes.len() * self.geometry.slices) as u64;
    }

    /// Programs one row burst without billing it: `codes` land in the
    /// leading cells of `row` (through the fault model, if attached) and
    /// the rest of its old width is zeroed.
    #[inline]
    fn program_row(&mut self, row: usize, codes: &[u32]) {
        let cols = self.geometry.cols;
        let dst = &mut self.cells[row * cols..(row + 1) * cols];
        let width = codes.len();
        match self.faults.as_mut() {
            Some(faults) => faults.program_row(row, codes, &mut dst[..width]),
            None => dst[..width].copy_from_slice(codes),
        }
        zero_tail_from(dst, &mut self.row_width[row], width);
    }

    /// Programs a whole block in one bank write (the paper's data-loading
    /// phase, §III-B): physical row `rows[i]` takes
    /// `codes[i * width..(i + 1) * width]` and zeroes the rest of its
    /// cells. Rows not in `rows` keep their contents; `rows` holds
    /// distinct rows, in any order.
    ///
    /// Equivalent to [`write_row`](Self::write_row)`(rows[i], row codes)`
    /// for every `i`, in any order: the same cells, the same billing
    /// (`rows.len()` row bursts and `rows.len() × width × slices` cell
    /// writes, for a width of 0 too), and the same fault outcomes — wear
    /// and stuck cells apply per cell, and each row burst draws its write
    /// failure on the current draw key, its row and its attempt, never on
    /// the order of the writes.
    ///
    /// # Errors
    ///
    /// Errors as in [`check_block`](Self::check_block) for `rows.len()`
    /// rows, or [`XbarError::RowOutOfRange`] for a row past the geometry;
    /// a rejected block leaves the crossbar untouched.
    pub fn program_block(
        &mut self,
        rows: &[usize],
        codes: &[u32],
        width: usize,
    ) -> Result<(), XbarError> {
        self.check_block(codes, width, rows.len())?;
        // An unremapped block is the prefix `0..n`, whose rows are in range.
        let prefix = is_prefix(rows);
        if !prefix {
            if let Some(&row) = rows.iter().find(|&&r| r >= self.geometry.rows) {
                return Err(XbarError::RowOutOfRange {
                    row,
                    rows: self.geometry.rows,
                });
            }
        }
        let cols = self.geometry.cols;
        // A fault-free prefix is copied in place, with no per-row index;
        // any other block (faulty, remapped or of width 0) programs one
        // row at a time.
        if prefix && width > 0 && self.faults.is_none() {
            // gaasx-lint: hot
            let dsts = self.cells[..rows.len() * cols].chunks_exact_mut(cols);
            let row_codes = dsts.zip(codes.chunks_exact(width));
            for ((dst, src), old) in row_codes.zip(&mut self.row_width[..rows.len()]) {
                dst[..width].copy_from_slice(src);
                zero_tail_from(dst, old, width);
            }
            // gaasx-lint: end-hot
        } else {
            // gaasx-lint: hot
            for (i, &row) in rows.iter().enumerate() {
                self.program_row(row, &codes[i * width..][..width]);
            }
            // gaasx-lint: end-hot
        }
        self.stats.row_writes += rows.len() as u64;
        self.stats.cells_written += (rows.len() * width * self.geometry.slices) as u64;
        Ok(())
    }

    /// Checks a block for [`program_block`](Self::program_block) without
    /// touching the crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::RowOutOfRange`] if `rows` exceeds the
    /// geometry, [`XbarError::DimensionMismatch`] if `width` exceeds the
    /// column count or `codes` does not hold exactly `rows × width`
    /// codes, or [`XbarError::InvalidParameter`] if a code exceeds the
    /// cell range.
    pub fn check_block(&self, codes: &[u32], width: usize, rows: usize) -> Result<(), XbarError> {
        if rows > self.geometry.rows {
            return Err(XbarError::RowOutOfRange {
                row: rows - 1,
                rows: self.geometry.rows,
            });
        }
        if width > self.geometry.cols {
            return Err(XbarError::DimensionMismatch {
                got: width,
                expected: self.geometry.cols,
                what: "row codes",
            });
        }
        if codes.len() != rows * width {
            return Err(XbarError::DimensionMismatch {
                got: codes.len(),
                expected: rows * width,
                what: "block codes",
            });
        }
        self.check_codes(codes)
    }

    /// Rejects the first code past the cell range.
    fn check_codes(&self, codes: &[u32]) -> Result<(), XbarError> {
        let max = self.max_code();
        debug_assert_eq!(max & max.wrapping_add(1), 0, "max code is a mask");
        // The cell range is a low-bit mask, so one branch-free OR fold
        // over the codes finds any code past it; the offender is looked
        // up only on the error path.
        if codes.iter().fold(0, |bits, &c| bits | c) & !max == 0 {
            return Ok(());
        }
        let c = codes.iter().copied().find(|&c| c > max).unwrap_or(max);
        Err(XbarError::InvalidParameter(format!(
            "code {c} exceeds {}-bit cell range",
            self.geometry.weight_bits()
        )))
    }

    /// Reads back a cell code (digital peripheral read).
    ///
    /// # Errors
    ///
    /// Returns a range error if the coordinates exceed the geometry.
    pub fn read_cell(&self, row: usize, col: usize) -> Result<u32, XbarError> {
        if row >= self.geometry.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.geometry.rows,
            });
        }
        if col >= self.geometry.cols {
            return Err(XbarError::ColumnOutOfRange {
                col,
                cols: self.geometry.cols,
            });
        }
        Ok(self.cells[row * self.geometry.cols + col])
    }

    /// Reads back a whole row of cell codes (digital peripheral read): one
    /// code per column.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::RowOutOfRange`] if `row` exceeds the geometry.
    #[inline]
    pub fn read_row(&self, row: usize) -> Result<&[u32], XbarError> {
        let cols = self.geometry.cols;
        self.cells
            .get(row * cols..(row + 1) * cols)
            .ok_or(XbarError::RowOutOfRange {
                row,
                rows: self.geometry.rows,
            })
    }

    /// Performs one selective MAC burst.
    ///
    /// `active` lists the activated lines (rows for
    /// [`MacDirection::RowsToColumns`], columns otherwise) and `inputs[i]`
    /// is the digital input driven onto `active[i]`. Returns one accumulated
    /// sum per crossed line (per column, or per row when transposed).
    ///
    /// # Errors
    ///
    /// * [`XbarError::TooManyActiveRows`] if `active` exceeds the
    ///   accumulation cap (16 in the paper config);
    /// * [`XbarError::DimensionMismatch`] if `inputs` and `active` differ in
    ///   length;
    /// * range errors if an active index exceeds the geometry.
    ///
    /// On error no cost is counted.
    pub fn mac(
        &mut self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
    ) -> Result<Vec<u64>, XbarError> {
        let out_len = self.validate_op(direction, active, inputs)?;
        self.bill_op(active.len(), out_len);
        let burst = self.burst_draws().then(|| self.next_burst_key());
        Ok((0..out_len)
            .map(|o| self.line(direction, active, inputs, o, burst))
            .collect())
    }

    /// [`mac`](Self::mac) for callers that consume a *subset* of the
    /// crossed lines, into a caller-owned buffer so the steady state
    /// allocates nothing: `out` is cleared, then takes one sum per entry
    /// of `lines`, in order. A single-entry `lines` reads one crossed line
    /// (the PageRank gather's shape).
    ///
    /// The analog array always evaluates every crossed line, so the cost
    /// accounting is exactly that of a full [`mac`](Self::mac) burst — one
    /// MAC op and the full complement of ADC samples. Only the
    /// *functional* evaluation is restricted: every crossed line is
    /// independent, and a noise sample or ADC flip is keyed by its line
    /// (see [`set_draw_key`](Self::set_draw_key)), so the sums computed
    /// here are bit-identical to the full burst's.
    ///
    /// # Errors
    ///
    /// As for [`mac`](Self::mac), plus a range error when an entry of
    /// `lines` exceeds the crossed-line count. On error `out` is left
    /// cleared and no cost is counted.
    pub fn mac_lines_into(
        &mut self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
        lines: &[usize],
        out: &mut Vec<u64>,
    ) -> Result<(), XbarError> {
        out.clear();
        let out_len = self.validate_op(direction, active, inputs)?;
        for &l in lines {
            if l >= out_len {
                return Err(match direction {
                    MacDirection::RowsToColumns => XbarError::ColumnOutOfRange {
                        col: l,
                        cols: out_len,
                    },
                    MacDirection::ColumnsToRows => XbarError::RowOutOfRange {
                        row: l,
                        rows: out_len,
                    },
                });
            }
        }
        self.bill_op(active.len(), out_len);
        let burst = self.burst_draws().then(|| self.next_burst_key());
        out.reserve(lines.len());
        for &l in lines {
            out.push(self.line(direction, active, inputs, l, burst));
        }
        Ok(())
    }

    /// Shared argument validation for MAC bursts; returns the crossed-line
    /// count.
    fn validate_op(
        &self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
    ) -> Result<usize, XbarError> {
        if active.len() > self.geometry.max_active_rows {
            return Err(XbarError::TooManyActiveRows {
                requested: active.len(),
                limit: self.geometry.max_active_rows,
            });
        }
        if active.len() != inputs.len() {
            return Err(XbarError::DimensionMismatch {
                got: inputs.len(),
                expected: active.len(),
                what: "mac inputs",
            });
        }
        let (line_limit, out_len) = match direction {
            MacDirection::RowsToColumns => (self.geometry.rows, self.geometry.cols),
            MacDirection::ColumnsToRows => (self.geometry.cols, self.geometry.rows),
        };
        for &a in active {
            if a >= line_limit {
                return Err(match direction {
                    MacDirection::RowsToColumns => XbarError::RowOutOfRange {
                        row: a,
                        rows: line_limit,
                    },
                    MacDirection::ColumnsToRows => XbarError::ColumnOutOfRange {
                        col: a,
                        cols: line_limit,
                    },
                });
            }
        }
        Ok(out_len)
    }

    /// Whether a burst draws: only the quantized periphery samples noisy
    /// analog sums or flipping ADCs, so only then does a burst take a key
    /// from [`next_burst_key`](Self::next_burst_key).
    fn burst_draws(&self) -> bool {
        self.fidelity == Fidelity::Quantized
            && (self.noise.is_some()
                || self
                    .faults
                    .as_deref()
                    .is_some_and(MacFaultState::flips_samples))
    }

    /// Counts the periphery cost of one MAC burst: one MAC op, one DAC
    /// conversion per active line per input step, one ADC sample per
    /// crossed line per input step per slice.
    fn bill_op(&mut self, active_len: usize, out_len: usize) {
        let input_steps = MAC_INPUT_BITS.div_ceil(self.geometry.dac_bits) as u64;
        self.stats.record_mac(active_len);
        self.stats.dac_conversions += active_len as u64 * input_steps;
        self.stats.adc_samples += out_len as u64 * input_steps * self.geometry.slices as u64;
    }

    /// The key of a burst that draws: the draw key chained with the
    /// burst's ordinal under it. A crossbar's bursts either all draw or
    /// none do, so only drawing bursts need counting.
    fn next_burst_key(&mut self) -> u64 {
        let ordinal = self.bursts;
        self.bursts = ordinal.wrapping_add(1);
        chain_key(self.draw_key, ordinal)
    }

    fn cell(&self, row: usize, col: usize) -> u32 {
        self.cells[row * self.geometry.cols + col]
    }

    fn crossed_cell(&self, direction: MacDirection, active: usize, out: usize) -> u32 {
        match direction {
            MacDirection::RowsToColumns => self.cell(active, out),
            MacDirection::ColumnsToRows => self.cell(out, active),
        }
    }

    /// Crossed line `o` of a burst: under [`Fidelity::Exact`] the integer
    /// dot product of `inputs` with the crossed cells, under
    /// [`Fidelity::Quantized`] the [`sliced_line`](Self::sliced_line)
    /// walk.
    #[inline(always)]
    fn line(
        &mut self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
        o: usize,
        burst: Option<u64>,
    ) -> u64 {
        // gaasx-lint: hot
        match self.fidelity {
            Fidelity::Exact => active
                .iter()
                .zip(inputs)
                .map(|(&a, &x)| u64::from(x) * u64::from(self.crossed_cell(direction, a, o)))
                .sum(),
            Fidelity::Quantized => self.sliced_line(direction, active, inputs, o, burst),
        }
        // gaasx-lint: end-hot
    }

    /// Crossed line `o` of a quantized burst, bit-sliced: inputs stream
    /// `dac_bits` per step (LSB first), weights split into `slices` groups
    /// of `bits_per_cell`, and each `(step, slice)` partial is an analog
    /// sum that saturates at the ADC full scale before shift-and-add
    /// reconstructs the product sum. A burst that draws (`burst` is its
    /// key) perturbs each partial by the noise model and its sample by the
    /// ADC-flip model, both keyed by the burst, the line, the step and the
    /// slice.
    ///
    /// Never inlined: inlined, its registers crowd the exact dot product's
    /// loop in [`line`](Self::line), which then reloads its operands from
    /// the stack on every lane.
    #[inline(never)]
    fn sliced_line(
        &mut self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
        o: usize,
        burst: Option<u64>,
    ) -> u64 {
        let g = self.geometry;
        let dac_mask = (1u32 << g.dac_bits) - 1;
        let cell_mask = (1u32 << g.bits_per_cell) - 1;
        let adc_full_scale = (1u64 << g.adc_bits) - 1;
        let steps = MAC_INPUT_BITS.div_ceil(g.dac_bits);
        let line = burst.map(|burst| draw(burst, &[o as u64]));
        // gaasx-lint: hot
        let mut acc = 0u64;
        for step in 0..steps {
            for slice in 0..g.slices as u32 {
                let mut partial = 0u64;
                for (&a, &x) in active.iter().zip(inputs) {
                    let x_bits = (x >> (step * g.dac_bits)) & dac_mask;
                    let w_bits = (self.crossed_cell(direction, a, o) >> (slice * g.bits_per_cell))
                        & cell_mask;
                    partial += u64::from(x_bits) * u64::from(w_bits);
                }
                let sample =
                    line.map(|line| draw(line, &[u64::from(step) << 32 | u64::from(slice)]));
                if let (Some(noise), Some(sample)) = (&self.noise, sample) {
                    partial = noise.perturb_count(partial, sample);
                }
                let mut sampled = partial.min(adc_full_scale);
                if let (Some(faults), Some(sample)) = (&mut self.faults, sample) {
                    sampled = faults.perturb_sample(sampled, sample);
                }
                acc += sampled << (step * g.dac_bits + slice * g.bits_per_cell);
            }
        }
        acc
        // gaasx-lint: end-hot
    }

    /// Device operation counters.
    pub fn stats(&self) -> &XbarStats {
        &self.stats
    }

    /// Resets the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = XbarStats::new();
    }

    /// Adds externally accumulated counters into this device's stats —
    /// how a primary engine absorbs the device activity of sibling worker
    /// engines when merging a sharded run.
    pub fn merge_stats(&mut self, other: &XbarStats) {
        self.stats.merge(other);
    }

    /// Zeroes all cells *without* counting writes (simulation reset, not a
    /// device operation).
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.row_width.fill(0);
    }

    /// Re-materializes a row *without* counting writes.
    ///
    /// The functional simulator multiplexes one working array over the many
    /// physical banks that hold data concurrently; when a value set was
    /// already loaded (and its programming cost counted) this call restores
    /// it into the working array before an operation. It performs the same
    /// validation as [`MacCrossbar::write_row`] but records no device
    /// activity.
    ///
    /// # Errors
    ///
    /// Range and code errors as in [`MacCrossbar::write_row`].
    pub fn preload_row(&mut self, row: usize, codes: &[u32]) -> Result<(), XbarError> {
        if row >= self.geometry.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.geometry.rows,
            });
        }
        if codes.len() > self.geometry.cols {
            return Err(XbarError::DimensionMismatch {
                got: codes.len(),
                expected: self.geometry.cols,
                what: "row codes",
            });
        }
        self.check_codes(codes)?;
        let base = row * self.geometry.cols;
        if let Some(faults) = self.faults.as_ref() {
            // Stuck-at is positional physics: a preload restores the same
            // post-fault view a counted write produced, without wear or
            // transient rolls (the data was programmed once already).
            for (col, &c) in codes.iter().enumerate() {
                self.cells[base + col] = faults.materialize(row, col, c);
            }
        } else {
            self.cells[base..base + codes.len()].copy_from_slice(codes);
        }
        let cells = &mut self.cells[base..base + self.geometry.cols];
        zero_tail_from(cells, &mut self.row_width[row], codes.len());
        Ok(())
    }
}

/// Zeroes a just-written row's cells from `width` up to its old width
/// `old` (cells past it are zero already) and records `width` there.
#[inline(always)]
fn zero_tail_from(row: &mut [u32], old: &mut usize, width: usize) {
    let old = std::mem::replace(old, width);
    if old > width {
        row[width..old].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(fidelity: Fidelity) -> MacCrossbar {
        MacCrossbar::new(MacGeometry::paper(), fidelity)
    }

    #[test]
    fn exact_dot_products() {
        let mut m = mac(Fidelity::Exact);
        m.write_row(2, &[1, 2, 3]).unwrap();
        m.write_row(7, &[4, 5, 6]).unwrap();
        let out = m
            .mac(MacDirection::RowsToColumns, &[2, 7], &[10, 1])
            .unwrap();
        assert_eq!(&out[..3], &[14, 25, 36]);
        assert!(out[3..].iter().all(|&v| v == 0));
    }

    #[test]
    fn transposed_direction() {
        let mut m = mac(Fidelity::Exact);
        m.write_row(0, &[1, 2]).unwrap();
        m.write_row(1, &[3, 4]).unwrap();
        // Activate columns 0 and 1 with inputs (5, 6): out[r] = 5*c[r][0] + 6*c[r][1].
        let out = m
            .mac(MacDirection::ColumnsToRows, &[0, 1], &[5, 6])
            .unwrap();
        assert_eq!(out[0], 17);
        assert_eq!(out[1], 39);
    }

    #[test]
    fn quantized_matches_exact_within_adc_range() {
        // Small operands keep every (step, slice) partial below the 6-bit
        // ADC full scale, so quantized must equal exact.
        let mut me = mac(Fidelity::Exact);
        let mut mq = mac(Fidelity::Quantized);
        for (r, codes) in [(0usize, [3u32, 7, 1]), (1, [2, 0, 5])] {
            me.write_row(r, &codes).unwrap();
            mq.write_row(r, &codes).unwrap();
        }
        let inputs = [9u32, 13];
        let a = me
            .mac(MacDirection::RowsToColumns, &[0, 1], &inputs)
            .unwrap();
        let b = mq
            .mac(MacDirection::RowsToColumns, &[0, 1], &inputs)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_saturates_on_overload() {
        // 16 rows of max 2-bit slice content with max 2-bit input slices
        // overloads a 6-bit ADC: the quantized result must fall below exact.
        let mut me = mac(Fidelity::Exact);
        let mut mq = mac(Fidelity::Quantized);
        let rows: Vec<usize> = (0..16).collect();
        for &r in &rows {
            me.write_row(r, &[0xFFFF]).unwrap();
            mq.write_row(r, &[0xFFFF]).unwrap();
        }
        let inputs = vec![0xFFFFu32; 16];
        let exact = me.mac(MacDirection::RowsToColumns, &rows, &inputs).unwrap()[0];
        let quant = mq.mac(MacDirection::RowsToColumns, &rows, &inputs).unwrap()[0];
        assert!(quant < exact, "quant {quant} should saturate below {exact}");
    }

    #[test]
    fn enforces_active_row_cap() {
        let mut m = mac(Fidelity::Exact);
        let rows: Vec<usize> = (0..17).collect();
        let inputs = vec![1u32; 17];
        assert!(matches!(
            m.mac(MacDirection::RowsToColumns, &rows, &inputs),
            Err(XbarError::TooManyActiveRows { limit: 16, .. })
        ));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let mut m = mac(Fidelity::Exact);
        assert!(m.mac(MacDirection::RowsToColumns, &[0, 1], &[1]).is_err());
    }

    #[test]
    fn rejects_out_of_range_lines() {
        let mut m = mac(Fidelity::Exact);
        assert!(m.mac(MacDirection::RowsToColumns, &[500], &[1]).is_err());
        assert!(m.mac(MacDirection::ColumnsToRows, &[16], &[1]).is_err());
        assert!(m.write_row(128, &[1]).is_err());
    }

    #[test]
    fn rejects_code_overflow() {
        let mut m = mac(Fidelity::Exact);
        assert!(m.write_row(0, &[0x1_0000]).is_err());
    }

    #[test]
    fn write_row_zeroes_tail() {
        let mut m = mac(Fidelity::Exact);
        m.write_row(0, &[9; 16]).unwrap();
        m.write_row(0, &[1, 2]).unwrap();
        assert_eq!(m.read_cell(0, 2).unwrap(), 0);
        assert_eq!(m.read_cell(0, 15).unwrap(), 0);
    }

    #[test]
    fn stats_account_periphery() {
        let mut m = mac(Fidelity::Exact);
        m.write_row(0, &[1, 2, 3]).unwrap();
        m.mac(MacDirection::RowsToColumns, &[0], &[5]).unwrap();
        let s = m.stats();
        assert_eq!(s.mac_ops, 1);
        assert_eq!(s.rows_activated, 1);
        assert_eq!(s.row_writes, 1);
        assert_eq!(s.cells_written, 3 * 8);
        // 16-bit inputs at 2 bits/step = 8 steps; 16 outputs × 8 slices.
        assert_eq!(s.dac_conversions, 8);
        assert_eq!(s.adc_samples, 16 * 8 * 8);
    }

    #[test]
    fn empty_activation_is_legal() {
        let mut m = mac(Fidelity::Exact);
        let out = m.mac(MacDirection::RowsToColumns, &[], &[]).unwrap();
        assert!(out.iter().all(|&v| v == 0));
        assert_eq!(m.stats().rows_per_mac.iter().sum::<u64>(), 1);
    }

    /// Twin crossbars for the restricted read-out tests, under every
    /// setup: no faults; stuck cells, always-failing writes and ADC flips;
    /// and the same with conductance noise. Exact fidelity never samples
    /// an ADC, so there the flips and the noise stay unseen.
    fn twins() -> Vec<(String, MacCrossbar, MacCrossbar)> {
        use crate::fault::{FaultModel, MacFaultState};
        let mut twins = Vec::new();
        for fidelity in [Fidelity::Exact, Fidelity::Quantized] {
            let model = FaultModel {
                seed: 5,
                mac_stuck_ber: 0.05,
                write_fail_rate: 1.0,
                adc_flip_rate: 0.5,
                ..FaultModel::none()
            };
            for (faults, noise) in [(None, None), (Some(model), None), (Some(model), Some(0.1))] {
                let build = || {
                    let mut m = mac(fidelity);
                    m.set_faults(faults.map(|f| MacFaultState::new(f, &m.geometry())));
                    m.set_noise(noise.map(|sigma| NoiseModel::new(sigma, 3)));
                    m
                };
                let (mut full, mut restricted) = (build(), build());
                for (r, codes) in [(0usize, [0xFFu32, 7, 1]), (3, [2, 0x3FF, 5])] {
                    full.write_row(r, &codes).unwrap();
                    restricted.write_row(r, &codes).unwrap();
                }
                twins.push((
                    format!("{fidelity:?} {faults:?} noise {noise:?}"),
                    full,
                    restricted,
                ));
            }
        }
        twins
    }

    /// The next transient writes latch the same values on both twins.
    fn assert_next_writes_agree(label: &str, full: &mut MacCrossbar, r: &mut MacCrossbar) {
        full.write_row(9, &[0x1234; 16]).unwrap();
        r.write_row(9, &[0x1234; 16]).unwrap();
        for col in 0..16 {
            assert_eq!(
                r.read_cell(9, col).unwrap(),
                full.read_cell(9, col).unwrap(),
                "{label}: next write diverged at col {col}"
            );
        }
    }

    #[test]
    fn mac_lines_matches_full_burst_and_billing() {
        for (label, mut full, mut lines) in twins() {
            let inputs = [0x1234u32, 0xBEEF];
            let out = full
                .mac(MacDirection::RowsToColumns, &[0, 3], &inputs)
                .unwrap();
            let mut got = Vec::new();
            lines
                .mac_lines_into(
                    MacDirection::RowsToColumns,
                    &[0, 3],
                    &inputs,
                    &[5, 0, 2],
                    &mut got,
                )
                .unwrap();
            assert_eq!(got, vec![out[5], out[0], out[2]], "{label}");
            // The transposed read-out `propagate_rows_into` issues.
            let out = full
                .mac(MacDirection::ColumnsToRows, &[0, 2], &inputs)
                .unwrap();
            lines
                .mac_lines_into(
                    MacDirection::ColumnsToRows,
                    &[0, 2],
                    &inputs,
                    &[3, 0],
                    &mut got,
                )
                .unwrap();
            assert_eq!(got, vec![out[3], out[0]], "{label} transposed");
            // Single-line read-outs, one per crossed line (the PageRank
            // gather's shape), each against a fresh full burst.
            for col in 0..16 {
                let out = full
                    .mac(MacDirection::RowsToColumns, &[0, 3], &inputs)
                    .unwrap();
                lines
                    .mac_lines_into(
                        MacDirection::RowsToColumns,
                        &[0, 3],
                        &inputs,
                        &[col],
                        &mut got,
                    )
                    .unwrap();
                assert_eq!(got, vec![out[col]], "{label} col {col}");
            }
            // Billing is per burst, not per line read: every restricted
            // call bills exactly one full burst.
            assert_eq!(lines.stats().mac_ops, full.stats().mac_ops);
            assert_eq!(lines.stats().dac_conversions, full.stats().dac_conversions);
            assert_eq!(lines.stats().adc_samples, full.stats().adc_samples);
            assert_next_writes_agree(&label, &mut full, &mut lines);
        }
    }

    #[test]
    fn mac_lines_rejects_out_of_range_lines_costlessly() {
        let mut m = mac(Fidelity::Exact);
        m.write_row(0, &[1, 2]).unwrap();
        m.write_row(1, &[3, 4]).unwrap();
        let mut out = Vec::new();
        // A transposed single-line read: out[1] = 5·c[1][0] + 6·c[1][1].
        m.mac_lines_into(
            MacDirection::ColumnsToRows,
            &[0, 1],
            &[5, 6],
            &[1],
            &mut out,
        )
        .unwrap();
        assert_eq!(out, vec![39]);
        let before = m.stats().mac_ops;
        out.push(99);
        assert!(matches!(
            m.mac_lines_into(MacDirection::RowsToColumns, &[0], &[1], &[16], &mut out),
            Err(XbarError::ColumnOutOfRange { col: 16, cols: 16 })
        ));
        assert!(matches!(
            m.mac_lines_into(MacDirection::ColumnsToRows, &[0], &[1], &[128], &mut out),
            Err(XbarError::RowOutOfRange {
                row: 128,
                rows: 128
            })
        ));
        assert!(matches!(
            m.mac_lines_into(MacDirection::RowsToColumns, &[500], &[1], &[0], &mut out),
            Err(XbarError::RowOutOfRange {
                row: 500,
                rows: 128
            })
        ));
        assert!(out.is_empty(), "error leaves the buffer cleared");
        assert_eq!(m.stats().mac_ops, before, "failed bursts cost nothing");
    }

    /// A restricted read-out sees exactly the flips the full burst draws
    /// on its lines, and draws nothing the next burst would see.
    #[test]
    fn mac_lines_with_flips_match_the_full_burst() {
        use crate::fault::{FaultModel, MacFaultState};
        let g = MacGeometry::paper();
        let model = FaultModel {
            seed: 21,
            adc_flip_rate: 0.05,
            ..FaultModel::none()
        };
        let mut full = MacCrossbar::new(g, Fidelity::Quantized);
        full.set_faults(Some(MacFaultState::new(model, &g)));
        let mut lines = MacCrossbar::new(g, Fidelity::Quantized);
        lines.set_faults(Some(MacFaultState::new(model, &g)));
        for m in [&mut full, &mut lines] {
            m.write_row(0, &[0x1FF, 0x2A]).unwrap();
        }
        let a = full
            .mac(MacDirection::RowsToColumns, &[0], &[0x7777])
            .unwrap();
        let mut b = Vec::new();
        lines
            .mac_lines_into(MacDirection::RowsToColumns, &[0], &[0x7777], &[1], &mut b)
            .unwrap();
        assert_eq!(b, vec![a[1]]);
        // Each burst keys its own draws, so the next burst agrees too.
        let a2 = full
            .mac(MacDirection::RowsToColumns, &[0], &[0x1234])
            .unwrap();
        let mut b2 = Vec::new();
        lines
            .mac_lines_into(MacDirection::RowsToColumns, &[0], &[0x1234], &[0], &mut b2)
            .unwrap();
        assert_eq!(b2, vec![a2[0]]);
    }

    #[test]
    fn read_cell_rejects_out_of_range_coordinates() {
        let m = mac(Fidelity::Exact);
        assert!(matches!(
            m.read_cell(128, 0),
            Err(XbarError::RowOutOfRange {
                row: 128,
                rows: 128
            })
        ));
        assert!(matches!(
            m.read_cell(0, 16),
            Err(XbarError::ColumnOutOfRange { col: 16, cols: 16 })
        ));
        assert_eq!(m.read_cell(127, 15).unwrap(), 0);
    }

    #[test]
    fn preload_row_error_paths_mirror_write_row() {
        let mut m = mac(Fidelity::Exact);
        assert!(matches!(
            m.preload_row(128, &[1]),
            Err(XbarError::RowOutOfRange {
                row: 128,
                rows: 128
            })
        ));
        assert!(matches!(
            m.preload_row(0, &[0u32; 17]),
            Err(XbarError::DimensionMismatch {
                got: 17,
                expected: 16,
                ..
            })
        ));
        assert!(matches!(
            m.preload_row(0, &[0x1_0000]),
            Err(XbarError::InvalidParameter(_))
        ));
        // A failed preload must leave cells and stats untouched.
        assert_eq!(m.read_cell(0, 0).unwrap(), 0);
        assert_eq!(m.stats().row_writes, 0);
        assert_eq!(m.stats().cells_written, 0);
    }

    #[test]
    fn stuck_faults_corrupt_writes_and_preloads_identically() {
        use crate::fault::{FaultModel, MacFaultState};
        let g = MacGeometry::paper();
        let model = FaultModel {
            seed: 9,
            mac_stuck_ber: 0.1,
            ..FaultModel::none()
        };
        let mut written = MacCrossbar::new(g, Fidelity::Exact);
        written.set_faults(Some(MacFaultState::new(model, &g)));
        let mut preloaded = MacCrossbar::new(g, Fidelity::Exact);
        preloaded.set_faults(Some(MacFaultState::new(model, &g)));
        let codes = [0x00FFu32, 0xFF00, 0x0F0F];
        let mut corrupted = 0;
        for row in 0..g.rows {
            written.write_row(row, &codes).unwrap();
            preloaded.preload_row(row, &codes).unwrap();
            for (col, &code) in codes.iter().enumerate() {
                let w = written.read_cell(row, col).unwrap();
                assert_eq!(w, preloaded.read_cell(row, col).unwrap());
                if w != code {
                    corrupted += 1;
                }
            }
        }
        assert!(corrupted > 0, "10% BER must touch some of 384 cells");
    }

    /// One row-programming step of a width-tracking scenario.
    #[derive(Clone, Copy)]
    enum RowOp<'a> {
        Write(usize, &'a [u32]),
        Preload(usize, &'a [u32]),
        Clear,
    }

    fn apply_row_ops(m: &mut MacCrossbar, ops: &[RowOp<'_>]) {
        for &op in ops {
            match op {
                RowOp::Write(row, codes) => m.write_row(row, codes).unwrap(),
                RowOp::Preload(row, codes) => m.preload_row(row, codes).unwrap(),
                RowOp::Clear => m.clear(),
            }
        }
    }

    /// Asserts that two crossbars hold the same cells and answer every
    /// full, single-line and multi-line burst over `rows` identically, in
    /// both directions.
    fn assert_same_array(label: &str, a: &mut MacCrossbar, b: &mut MacCrossbar, rows: &[usize]) {
        let g = a.geometry();
        for row in 0..g.rows {
            for col in 0..g.cols {
                assert_eq!(
                    a.read_cell(row, col).unwrap(),
                    b.read_cell(row, col).unwrap(),
                    "{label}: cell ({row}, {col})"
                );
            }
        }
        let inputs: Vec<u32> = (0..rows.len() as u32).map(|i| 3 + 5 * i).collect();
        let all_cols: Vec<usize> = (0..g.cols).collect();
        let col_inputs: Vec<u32> = (0..g.cols as u32).map(|i| 1 + i).collect();
        for (dir, active, inputs, lines) in [
            (MacDirection::RowsToColumns, rows, &inputs, all_cols.clone()),
            (
                MacDirection::ColumnsToRows,
                &all_cols[..],
                &col_inputs,
                rows.to_vec(),
            ),
        ] {
            let full = a.mac(dir, active, inputs).unwrap();
            assert_eq!(full, b.mac(dir, active, inputs).unwrap(), "{label}: mac");
            let (mut la, mut lb) = (Vec::new(), Vec::new());
            for &l in &lines {
                a.mac_lines_into(dir, active, inputs, &[l], &mut la)
                    .unwrap();
                b.mac_lines_into(dir, active, inputs, &[l], &mut lb)
                    .unwrap();
                assert_eq!(la, lb, "{label}: line {l}");
            }
            a.mac_lines_into(dir, active, inputs, &lines, &mut la)
                .unwrap();
            b.mac_lines_into(dir, active, inputs, &lines, &mut lb)
                .unwrap();
            assert_eq!(la, lb, "{label}: mac_lines_into");
        }
    }

    #[test]
    fn width_tracked_row_writes_match_a_fresh_array() {
        use crate::fault::{FaultModel, MacFaultState};
        let g = MacGeometry::paper();
        let wide: Vec<u32> = (0..g.cols as u32).map(|i| 0xFF00 | (i + 1)).collect();
        let (narrow, mid) = ([7u32, 9], [1u32, 2, 3, 4, 5]);
        // (scenario, every write issued, the final writes a fresh array gets)
        let scenarios: [(&str, Vec<RowOp<'_>>, Vec<RowOp<'_>>); 5] = [
            (
                "wide then narrow row",
                vec![RowOp::Write(3, &wide), RowOp::Write(3, &narrow)],
                vec![RowOp::Write(3, &narrow)],
            ),
            (
                "narrow then wider row",
                vec![RowOp::Write(4, &narrow), RowOp::Write(4, &mid)],
                vec![RowOp::Write(4, &mid)],
            ),
            (
                "preload then row",
                vec![RowOp::Preload(6, &wide), RowOp::Write(6, &narrow)],
                vec![RowOp::Write(6, &narrow)],
            ),
            (
                "row then preload, narrow to wide and back",
                vec![
                    RowOp::Write(7, &narrow),
                    RowOp::Preload(7, &wide),
                    RowOp::Preload(7, &mid),
                    RowOp::Write(8, &mid),
                    RowOp::Write(8, &wide),
                ],
                vec![RowOp::Preload(7, &mid), RowOp::Write(8, &wide)],
            ),
            (
                "clear then narrow rows",
                vec![
                    RowOp::Write(9, &wide),
                    RowOp::Write(10, &mid),
                    RowOp::Clear,
                    RowOp::Write(9, &narrow),
                    RowOp::Write(10, &[]),
                ],
                vec![RowOp::Write(9, &narrow), RowOp::Write(10, &[])],
            ),
        ];
        let rows = [3usize, 4, 5, 6, 7, 8, 9, 10];
        for fidelity in [Fidelity::Exact, Fidelity::Quantized] {
            for stuck_ber in [0.0, 0.1] {
                let model = FaultModel {
                    seed: 13,
                    mac_stuck_ber: stuck_ber,
                    ..FaultModel::none()
                };
                for (name, issued, last) in &scenarios {
                    let build = |ops: &[RowOp<'_>]| {
                        let mut m = MacCrossbar::new(g, fidelity);
                        if stuck_ber > 0.0 {
                            m.set_faults(Some(MacFaultState::new(model, &g)));
                        }
                        apply_row_ops(&mut m, ops);
                        m
                    };
                    let label = format!("{name} ({fidelity:?}, stuck BER {stuck_ber})");
                    assert_same_array(&label, &mut build(issued), &mut build(last), &rows);
                }
            }
        }
    }

    #[test]
    fn detached_faults_restore_clean_writes() {
        use crate::fault::{FaultModel, MacFaultState};
        let g = MacGeometry::paper();
        let mut m = MacCrossbar::new(g, Fidelity::Exact);
        m.set_faults(Some(MacFaultState::new(
            FaultModel {
                seed: 1,
                mac_stuck_ber: 1.0,
                ..FaultModel::none()
            },
            &g,
        )));
        m.write_row(0, &[0x5555]).unwrap();
        assert_ne!(m.read_cell(0, 0).unwrap(), 0x5555, "all cells stuck");
        m.set_faults(None);
        m.write_row(0, &[0x5555]).unwrap();
        assert_eq!(m.read_cell(0, 0).unwrap(), 0x5555);
        assert!(m.fault_stats().is_none());
    }
}
