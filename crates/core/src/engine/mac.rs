//! MAC operation (§III-B) over CAM hit rows and the auxiliary crossbar,
//! and the special function execution that combines the results.

use gaasx_graph::VertexId;
use gaasx_sim::Phase;
use gaasx_xbar::{HitVector, MacDirection};

use super::Engine;
use crate::error::CoreError;

impl Engine {
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
            self.scratch.inputs_buf.clear();
            for &row in chunk {
                self.ledger.attr_buf.read(4);
                self.scratch.inputs_buf.push(input(row));
            }
            // Only `out_col` is evaluated; the burst is billed in full, and
            // its draws are keyed by line, so the sum is the full burst's.
            self.mac.mac_lines_into(
                MacDirection::RowsToColumns,
                self.rows.physical_chunk(chunk),
                &self.scratch.inputs_buf,
                &[out_col],
                &mut self.scratch.mac_out,
            )?;
            let v = self.scratch.mac_out[0];
            self.bill_mac(Phase::MacGather, chunk.len(), chunk.len());
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
        self.ledger.attr_buf.read(4 * col_inputs.len() as u64);
        let cap = self.config.mac_geometry.max_active_rows;
        // gaasx-lint: hot
        for chunk in hits.rows().chunks(cap) {
            // Only this chunk's rows are evaluated; the burst is billed in
            // full, and its draws are keyed by line, so the sums are too.
            self.mac.mac_lines_into(
                MacDirection::ColumnsToRows,
                cols,
                col_inputs,
                self.rows.physical_chunk(chunk),
                &mut self.scratch.mac_out,
            )?;
            self.bill_mac(Phase::MacPropagate, chunk.len(), chunk.len());
            results.extend(
                chunk
                    .iter()
                    .copied()
                    .zip(self.scratch.mac_out.iter().copied()),
            );
        }
        // gaasx-lint: end-hot
        Ok(())
    }

    /// Bills a MAC burst of `rows` active rows and `items` useful edge
    /// computations in `phase`.
    #[inline]
    fn bill_mac(&mut self, phase: Phase, rows: usize, items: usize) {
        self.ledger.rows_per_mac.record(rows);
        let ns = self.config.energy.mac_op_ns;
        self.ledger.add_compute(phase, ns, self.record_ops);
        self.trace_op(phase, ns);
        let done = &mut self.ledger.compute_items;
        *done = done.saturating_add(items as u64);
    }

    /// One source's step of a frontier traversal (SpMV-add, §IV):
    /// [`search_src_into`](Self::search_src_into) then
    /// [`propagate_rows_into`](Self::propagate_rows_into) through the
    /// engine's own buffers. Returns each hit row with its sum, ascending
    /// by row, valid until the next engine call.
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
        let mut hits = std::mem::replace(&mut self.scratch.hits_buf, HitVector::new(0));
        let mut results = std::mem::take(&mut self.scratch.results_buf);
        self.search_src_into(src, &mut hits);
        let propagated = self.propagate_rows_into(&hits, cols, col_inputs, &mut results);
        self.scratch.hits_buf = hits;
        self.scratch.results_buf = results;
        propagated.map(|()| self.scratch.results_buf.as_slice())
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
        let rows = active_rows.len();
        self.bill_mac(Phase::MacGather, rows.max(1), rows);
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
        let cols = active_cols.len();
        self.bill_mac(Phase::MacPropagate, cols.max(1), cols);
        Ok(out)
    }

    fn sfu_cost(&mut self) {
        let ns = self.sfu_lane_ns;
        self.ledger.add_compute(Phase::Sfu, ns, self.record_ops);
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
        self.ledger.attr_buf.read(bytes);
    }

    /// Writes `bytes` of vertex attributes to the on-chip attribute buffer.
    pub fn attr_write(&mut self, bytes: u64) {
        self.ledger.attr_buf.write(bytes);
    }

    /// Writes `bytes` of results to the output buffer.
    pub fn output_write(&mut self, bytes: u64) {
        self.ledger.output_buf.write(bytes);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::*;
    use crate::engine::CellLayout;
    use gaasx_graph::{generators, Edge};

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
        let hist = e.ledger.rows_per_mac.counts();
        assert_eq!(hist[15], 2); // two full 16-row bursts
        assert_eq!(hist[6], 1); // one 7-row burst
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
    fn sfu_add_u64_saturates_instead_of_overflowing() {
        let mut e = engine();
        // `u64::MAX + 5` panics in debug builds with a plain `+`.
        assert_eq!(e.sfu_add_u64(u64::MAX, 5), u64::MAX);
        assert_eq!(e.sfu_add_u64(7, 8), 15);
        assert_eq!(e.sfu.breakdown().0, 2, "both adds are charged");
    }
}
