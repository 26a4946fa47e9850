//! Analog multiply-and-accumulate crossbar model.

use crate::error::XbarError;
use crate::fault::{FaultStats, MacFaultState};
use crate::geometry::{MacGeometry, MAC_INPUT_BITS};
use crate::noise::NoiseModel;
use crate::XbarStats;

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
    faults: Option<MacFaultState>,
    stats: XbarStats,
    /// Reused full-width output buffer for [`MacCrossbar::mac_lines_into`]
    /// calls that must fall back to evaluating every crossed line.
    col_scratch: Vec<u64>,
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
            col_scratch: Vec::new(),
        }
    }

    /// Attaches a device-variation noise model (only observable under
    /// [`Fidelity::Quantized`]).
    pub fn set_noise(&mut self, noise: Option<NoiseModel>) {
        self.noise = noise;
    }

    /// Attaches seeded device-fault state. Stuck maps corrupt values as they
    /// are written or preloaded; transient write failures and ADC flips draw
    /// from the state's RNG. `None` detaches all fault behaviour.
    pub fn set_faults(&mut self, faults: Option<MacFaultState>) {
        self.faults = faults;
    }

    /// Injected-fault counters, when fault state is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(MacFaultState::stats)
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
            .as_ref()
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
    /// accounting window, preserving wear and the transient RNG stream
    /// (no-op without fault state).
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
        let base = row * self.geometry.cols;
        if let Some(faults) = self.faults.as_mut() {
            for (col, &c) in codes.iter().enumerate() {
                self.cells[base + col] = faults.programmed(row, col, c);
            }
        } else {
            self.cells[base..base + codes.len()].copy_from_slice(codes);
        }
        self.zero_tail(row, codes.len());
        self.stats.row_writes += 1;
        self.stats.cells_written += (codes.len() * self.geometry.slices) as u64;
    }

    /// Programs a whole block in one bank write (the paper's data-loading
    /// phase, §III-B): row `i` of `0..rows` takes
    /// `codes[i * width..(i + 1) * width]` and zeroes the rest of its
    /// cells. Rows past the block keep their contents.
    ///
    /// Equivalent to [`write_row`](Self::write_row)`(i, row codes)` for
    /// every row in order: the same cells, the same billing (`rows` row
    /// bursts and `rows × width × slices` cell writes, for a width of 0
    /// too), and the same fault outcomes — wear, stuck cells and
    /// transient write-failure draws apply per cell, in row then column
    /// order, from this crossbar's own stream.
    ///
    /// # Errors
    ///
    /// Errors as in [`check_block`](Self::check_block); a rejected block
    /// leaves the crossbar untouched.
    pub fn program_block(
        &mut self,
        codes: &[u32],
        width: usize,
        rows: usize,
    ) -> Result<(), XbarError> {
        self.check_block(codes, width, rows)?;
        // Faulty rows take `write_row`'s own body, so the two draw alike;
        // width 0 goes there too, as `chunks_exact(0)` would panic.
        if self.faults.is_some() || width == 0 {
            for row in 0..rows {
                self.land_row(row, &codes[row * width..(row + 1) * width]);
            }
            return Ok(());
        }
        let cols = self.geometry.cols;
        // gaasx-lint: hot
        let dsts = self.cells[..rows * cols].chunks_exact_mut(cols);
        let row_codes = dsts.zip(codes.chunks_exact(width));
        for ((dst, src), old) in row_codes.zip(&mut self.row_width[..rows]) {
            dst[..width].copy_from_slice(src);
            zero_tail_from(dst, old, width);
        }
        // gaasx-lint: end-hot
        self.stats.row_writes += rows as u64;
        self.stats.cells_written += (rows * width * self.geometry.slices) as u64;
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
    pub fn mac(
        &mut self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
    ) -> Result<Vec<u64>, XbarError> {
        let mut out = Vec::new();
        self.mac_into(direction, active, inputs, &mut out)?;
        Ok(out)
    }

    /// [`mac`](Self::mac), accumulating into a caller-owned buffer so the
    /// steady state allocates nothing. `out` is cleared and resized to the
    /// crossed-line count; prior contents are irrelevant. On error the
    /// buffer is left cleared and no cost is counted.
    ///
    /// # Errors
    ///
    /// As for [`mac`](Self::mac).
    pub fn mac_into(
        &mut self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
        out: &mut Vec<u64>,
    ) -> Result<(), XbarError> {
        out.clear();
        let out_len = self.validate_op(direction, active, inputs)?;
        self.bill_op(active.len(), out_len);
        out.resize(out_len, 0);
        match self.fidelity {
            Fidelity::Exact => self.mac_exact(direction, active, inputs, out),
            Fidelity::Quantized => self.mac_quantized(direction, active, inputs, out),
        }
        Ok(())
    }

    /// [`mac_into`](Self::mac_into) for callers that consume a *subset* of
    /// the crossed lines: fills `out` with one sum per entry of `lines`,
    /// in order. A single-entry `lines` reads one crossed line (the
    /// PageRank gather's shape).
    ///
    /// The analog array always evaluates every crossed line, so the cost
    /// accounting is exactly that of a full [`mac_into`](Self::mac_into)
    /// burst — one MAC op and the full complement of ADC samples. Only
    /// the *functional* evaluation is restricted, and only when the full
    /// burst draws no random numbers (quantized fidelity with a noise
    /// model or a nonzero ADC-flip rate does): each crossed line is then
    /// independent, so the sums computed here are bit-identical to the
    /// full burst's. A burst that draws runs in full instead, keeping the
    /// RNG draw sequence unchanged.
    ///
    /// # Errors
    ///
    /// As for [`mac_into`](Self::mac_into), plus a range error when an
    /// entry of `lines` exceeds the crossed-line count. On error `out` is
    /// left cleared and no cost is counted.
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
        if self.burst_draws() {
            let mut full = std::mem::take(&mut self.col_scratch);
            full.clear();
            full.resize(out_len, 0);
            match self.fidelity {
                Fidelity::Exact => self.mac_exact(direction, active, inputs, &mut full),
                Fidelity::Quantized => self.mac_quantized(direction, active, inputs, &mut full),
            }
            out.extend(lines.iter().map(|&l| full[l]));
            self.col_scratch = full;
            return Ok(());
        }
        out.reserve(lines.len());
        match self.fidelity {
            Fidelity::Exact => {
                // gaasx-lint: hot
                for &l in lines {
                    let mut slot = 0u64;
                    for (&a, &x) in active.iter().zip(inputs) {
                        slot += u64::from(x) * u64::from(self.crossed_cell(direction, a, l));
                    }
                    out.push(slot);
                }
                // gaasx-lint: end-hot
            }
            Fidelity::Quantized => {
                if active.len() <= 64 {
                    let x_planes = pack_bit_planes(inputs);
                    for &l in lines {
                        out.push(self.quantized_line_packed(direction, active, &x_planes, l));
                    }
                } else {
                    for &l in lines {
                        out.push(self.quantized_line_clean(direction, active, inputs, l));
                    }
                }
            }
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

    /// Whether a full burst draws random numbers: only the quantized
    /// periphery samples noisy analog sums or flipping ADCs. When it does
    /// not, every crossed line is independent, so the restricted read-outs
    /// and the lane bit-plane evaluation are bit-identical to the scalar
    /// full burst.
    fn burst_draws(&self) -> bool {
        self.fidelity == Fidelity::Quantized
            && (self.noise.is_some()
                || self
                    .faults
                    .as_ref()
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

    fn cell(&self, row: usize, col: usize) -> u32 {
        self.cells[row * self.geometry.cols + col]
    }

    fn crossed_cell(&self, direction: MacDirection, active: usize, out: usize) -> u32 {
        match direction {
            MacDirection::RowsToColumns => self.cell(active, out),
            MacDirection::ColumnsToRows => self.cell(out, active),
        }
    }

    /// Fills `out` (pre-sized and zeroed by [`mac_into`](Self::mac_into)).
    fn mac_exact(
        &self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
        out: &mut [u64],
    ) {
        // gaasx-lint: hot
        for (o, slot) in out.iter_mut().enumerate() {
            for (&a, &x) in active.iter().zip(inputs) {
                *slot += u64::from(x) * u64::from(self.crossed_cell(direction, a, o));
            }
        }
        // gaasx-lint: end-hot
    }

    /// Bit-sliced evaluation: inputs stream `dac_bits` per step (LSB first),
    /// weights are split into `slices` groups of `bits_per_cell`, each
    /// (step, slice) partial is an analog sum that saturates at the ADC full
    /// scale, then shift-and-add reconstructs the product sum.
    fn mac_quantized(
        &mut self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
        out: &mut [u64],
    ) {
        let g = self.geometry;
        let dac_mask = (1u32 << g.dac_bits) - 1;
        let cell_mask = (1u32 << g.bits_per_cell) - 1;
        let adc_full_scale = (1u64 << g.adc_bits) - 1;
        let steps = MAC_INPUT_BITS.div_ceil(g.dac_bits);
        if !self.burst_draws() && active.len() <= 64 {
            // No RNG is consumed, so every crossed line is independent and
            // the lane bit-plane evaluation replaces the scalar loop
            // (integer-identical results).
            let x_planes = pack_bit_planes(inputs);
            for (o, slot) in out.iter_mut().enumerate() {
                *slot = self.quantized_line_packed(direction, active, &x_planes, o);
            }
            return;
        }
        // gaasx-lint: hot
        for (o, slot) in out.iter_mut().enumerate() {
            let mut acc = 0u64;
            for step in 0..steps {
                for slice in 0..g.slices as u32 {
                    let mut partial = 0u64;
                    for (&a, &x) in active.iter().zip(inputs) {
                        let x_bits = (x >> (step * g.dac_bits)) & dac_mask;
                        let w_bits = (self.crossed_cell(direction, a, o)
                            >> (slice * g.bits_per_cell))
                            & cell_mask;
                        partial += u64::from(x_bits) * u64::from(w_bits);
                    }
                    if let Some(noise) = &mut self.noise {
                        partial = noise.perturb_count(partial);
                    }
                    let mut sampled = partial.min(adc_full_scale);
                    if let Some(faults) = &mut self.faults {
                        sampled = faults.perturb_sample(sampled);
                    }
                    acc += sampled << (step * g.dac_bits + slice * g.bits_per_cell);
                }
            }
            *slot = acc;
        }
        // gaasx-lint: end-hot
    }

    /// One crossed line of [`mac_quantized`](Self::mac_quantized) for a
    /// burst that draws no random numbers: identical bit-slicing and ADC
    /// saturation, restricted to slot `o`. The path for bursts wider than
    /// the 64 lanes [`quantized_line_packed`](Self::quantized_line_packed)
    /// holds, and its unit-test oracle.
    fn quantized_line_clean(
        &self,
        direction: MacDirection,
        active: &[usize],
        inputs: &[u32],
        o: usize,
    ) -> u64 {
        let g = self.geometry;
        let dac_mask = (1u32 << g.dac_bits) - 1;
        let cell_mask = (1u32 << g.bits_per_cell) - 1;
        let adc_full_scale = (1u64 << g.adc_bits) - 1;
        let steps = MAC_INPUT_BITS.div_ceil(g.dac_bits);
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
                acc += partial.min(adc_full_scale) << (step * g.dac_bits + slice * g.bits_per_cell);
            }
        }
        acc
        // gaasx-lint: end-hot
    }

    /// One crossed line of the clean quantized path, evaluated by lane
    /// bit-plane popcounts instead of per-lane multiply-adds.
    ///
    /// Each `(step, slice)` partial is
    /// `Σ_lanes x_bits · w_bits = Σ_{p<dac_bits, q<bits_per_cell} 2^{p+q} ·
    /// popcount(x_plane[step·dac+p] & w_plane[slice·cell+q])`, which is
    /// integer-identical to the scalar expansion, then saturates at the
    /// ADC full scale and shift-adds exactly as
    /// [`quantized_line_clean`](Self::quantized_line_clean) does. The
    /// `Exact` paths stay scalar on purpose: without the per-partial ADC
    /// clip the bit-plane expansion performs the same number of operations
    /// as the plain multiply-add, so there is nothing to win there.
    ///
    /// Callers must ensure `active.len() <= 64` (one lane per mask bit).
    fn quantized_line_packed(
        &self,
        direction: MacDirection,
        active: &[usize],
        x_planes: &[u64; 64],
        o: usize,
    ) -> u64 {
        let g = self.geometry;
        let adc_full_scale = (1u64 << g.adc_bits) - 1;
        let steps = MAC_INPUT_BITS.div_ceil(g.dac_bits);
        // gaasx-lint: hot
        let mut w_planes = [0u64; 64];
        for (lane, &a) in active.iter().enumerate() {
            let mut bits = self.crossed_cell(direction, a, o);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w_planes[b] |= 1 << lane;
            }
        }
        let mut acc = 0u64;
        for step in 0..steps {
            for slice in 0..g.slices as u32 {
                let mut partial = 0u64;
                for p in 0..g.dac_bits {
                    let x = x_planes[(step * g.dac_bits + p) as usize];
                    if x == 0 {
                        continue;
                    }
                    for q in 0..g.bits_per_cell {
                        let w = w_planes[(slice * g.bits_per_cell + q) as usize];
                        partial += u64::from((x & w).count_ones()) << (p + q);
                    }
                }
                acc += partial.min(adc_full_scale) << (step * g.dac_bits + slice * g.bits_per_cell);
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

    /// Zeroes `row`'s cells from `len` up to its recorded width (cells
    /// past the width are zero already) and records `len` as the new
    /// width, after the leading `len` cells were (re)written.
    fn zero_tail(&mut self, row: usize, len: usize) {
        let cols = self.geometry.cols;
        let cells = &mut self.cells[row * cols..(row + 1) * cols];
        zero_tail_from(cells, &mut self.row_width[row], len);
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
        self.zero_tail(row, codes.len());
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

/// Transposes up to 64 lane input words into per-bit lane masks:
/// `planes[b]` has bit `lane` set when `inputs[lane]` has bit `b` set.
/// Bits the bit-sliced walk never visits sit unread in the high planes, so
/// no masking is needed to stay identical to the scalar expansion.
fn pack_bit_planes(inputs: &[u32]) -> [u64; 64] {
    let mut planes = [0u64; 64];
    for (lane, &x) in inputs.iter().enumerate() {
        let mut bits = x;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            planes[b] |= 1 << lane;
        }
    }
    planes
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

    /// Twin crossbars for the restricted read-out tests, under each setup
    /// whose full burst draws no random numbers: no faults, and stuck
    /// cells with always-failing writes. Exact fidelity never samples an
    /// ADC, so there the fault model flips samples too.
    fn quiet_twins() -> Vec<(String, MacCrossbar, MacCrossbar)> {
        use crate::fault::{FaultModel, MacFaultState};
        let mut twins = Vec::new();
        for fidelity in [Fidelity::Exact, Fidelity::Quantized] {
            let model = FaultModel {
                seed: 5,
                mac_stuck_ber: 0.05,
                write_fail_rate: 1.0,
                adc_flip_rate: if fidelity == Fidelity::Exact {
                    0.5
                } else {
                    0.0
                },
                ..FaultModel::none()
            };
            for faults in [None, Some(model)] {
                let build = || {
                    let mut m = mac(fidelity);
                    m.set_faults(faults.map(|f| MacFaultState::new(f, &m.geometry())));
                    m
                };
                let (mut full, mut restricted) = (build(), build());
                for (r, codes) in [(0usize, [0xFFu32, 7, 1]), (3, [2, 0x3FF, 5])] {
                    full.write_row(r, &codes).unwrap();
                    restricted.write_row(r, &codes).unwrap();
                }
                twins.push((format!("{fidelity:?} {faults:?}"), full, restricted));
            }
        }
        twins
    }

    /// The restricted twin took no full-burst fallback, and its random
    /// draw sequence has not moved: the next transient writes latch the
    /// same values on both twins.
    fn assert_restricted_and_rng_unmoved(label: &str, full: &mut MacCrossbar, r: &mut MacCrossbar) {
        assert!(
            r.col_scratch.is_empty(),
            "{label}: fell back to a full burst"
        );
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
        for (label, mut full, mut lines) in quiet_twins() {
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
            assert_restricted_and_rng_unmoved(&label, &mut full, &mut lines);
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

    #[test]
    fn mac_lines_with_faults_matches_full_burst_rng_sequence() {
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
        // The fallback consumed full-burst RNG draws, so the next burst
        // still agrees bit-for-bit.
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
    fn packed_quantized_lines_match_the_scalar_oracle() {
        // Full 16-lane bursts with mixed magnitudes: saturating and
        // non-saturating partials of the lane bit-plane evaluation must
        // agree bit-for-bit with the scalar per-line expansion.
        let rows: Vec<usize> = (0..16).collect();
        let inputs: Vec<u32> = (0..16)
            .map(|i| 0x1111u32.wrapping_mul(i) & 0xFFFF)
            .collect();
        let mut m = mac(Fidelity::Quantized);
        for r in 0..16 {
            let codes: Vec<u32> = (0..16)
                .map(|c| ((r * 31 + c * 17) % 0xFFFF) as u32)
                .collect();
            m.write_row(r, &codes).unwrap();
        }
        let cols: Vec<usize> = (0..16).collect();
        for (dir, active) in [
            (MacDirection::RowsToColumns, &rows),
            (MacDirection::ColumnsToRows, &cols),
        ] {
            let full = m.mac(dir, active, &inputs).unwrap();
            let oracle: Vec<u64> = (0..full.len())
                .map(|o| m.quantized_line_clean(dir, active, &inputs, o))
                .collect();
            assert_eq!(full, oracle, "{dir:?} full burst");
            let lines = [full.len() - 1, 0, full.len() / 2];
            let mut restricted = Vec::new();
            m.mac_lines_into(dir, active, &inputs, &lines, &mut restricted)
                .unwrap();
            let want: Vec<u64> = lines.iter().map(|&l| oracle[l]).collect();
            assert_eq!(restricted, want, "{dir:?} restricted");
        }
    }

    #[test]
    fn quantized_bursts_wider_than_64_lanes_agree() {
        // Past 64 lanes the full burst takes the scalar loop and a
        // restricted read-out the per-line oracle; both must agree.
        let g = MacGeometry {
            max_active_rows: 128,
            ..MacGeometry::paper()
        };
        let mut m = MacCrossbar::new(g, Fidelity::Quantized);
        for r in 0..g.rows {
            m.write_row(r, &[(r as u32 * 257) & 0xFFFF, 3, 0xFFFF])
                .unwrap();
        }
        let active: Vec<usize> = (0..100).collect();
        let inputs: Vec<u32> = (0..100u32).map(|i| (i * 613 + 7) & 0xFFFF).collect();
        let full = m
            .mac(MacDirection::RowsToColumns, &active, &inputs)
            .unwrap();
        let mut lines = Vec::new();
        m.mac_lines_into(
            MacDirection::RowsToColumns,
            &active,
            &inputs,
            &[2, 0, 1],
            &mut lines,
        )
        .unwrap();
        assert_eq!(lines, vec![full[2], full[0], full[1]]);
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
