//! The cost ledger: what the blocks and the controller billed, the wave
//! schedule that turns it into a makespan, the timeline replay, and the
//! [`Engine::finish`] fold into a [`RunReport`].

use gaasx_sim::pipeline::{
    pipelined_makespan, serial_makespan, wave_schedule, wave_stages, BlockStages, PhasePipe, Wave,
};
use gaasx_sim::timeline::{COMPUTE_LANE, LOAD_LANE, SEARCH_LANE};
use gaasx_sim::{
    attribute_makespan, EnergyBreakdown, FaultReport, Histogram, Nanos, OpSummary, Phase,
    RunReport, SramBuffer, Timeline, UtilizationReport, CONTROLLER_BANK,
};
use gaasx_xbar::XbarStats;

use super::Engine;

#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCost {
    pub(super) stream_ns: Nanos,
    pub(super) program_ns: Nanos,
    compute_ns: Nanos,
    /// Partition of `compute_ns` by [`Phase`] (indexed by `Phase::index`).
    /// Scheduling consumes the total; phase attribution the split.
    compute_phase_ns: [Nanos; 7],
    /// Per-operation `(phase, ns)` in issue order, kept only when the
    /// tracer observes timeline intervals: the timeline replays it.
    ops: Vec<(Phase, Nanos)>,
    /// Intra-block search/MAC overlap clock. Its makespan is the block's
    /// *pipelined* compute time, which scheduling consumes; `compute_ns`
    /// stays the serial sum that phase attribution consumes.
    pipe: PhasePipe,
}

impl BlockCost {
    pub(super) fn add_phase(&mut self, phase: Phase, ns: Nanos, record_op: bool) {
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

    /// The block's stages as the wave schedule consumes them: stream, row
    /// programming, and compute under the search/MAC overlap pipeline.
    fn stages(&self) -> BlockStages {
        BlockStages {
            stream: self.stream_ns,
            program: self.program_ns,
            compute: self.pipe.makespan(),
        }
    }

    /// Lays the block's occupancy on bank `bank`'s tracks: one load
    /// interval ending where compute starts, then its operations replayed
    /// through a fresh [`PhasePipe`] (CAM searches on [`SEARCH_LANE`], the
    /// rest on [`COMPUTE_LANE`]), so the timeline shows the overlap the
    /// makespan was billed for. Each lane's starts are monotone.
    fn push_intervals(&self, tl: &mut Timeline, bank: u32, compute_start: Nanos, block: u32) {
        let load_ns = self.stream_ns + self.program_ns;
        let start = compute_start - load_ns;
        tl.push(
            bank,
            LOAD_LANE,
            Phase::LoadBlock,
            start,
            load_ns,
            Some(block),
        );
        let mut pipe = PhasePipe::new();
        for &(phase, ns) in &self.ops {
            let (lane, start) = if phase == Phase::CamSearch {
                (SEARCH_LANE, pipe.search(ns))
            } else {
                (COMPUTE_LANE, pipe.compute(ns))
            };
            tl.push(bank, lane, phase, compute_start + start, ns, Some(block));
        }
    }
}

/// Everything a run bills: the open and the committed block costs, the
/// controller work outside any block, the op tallies, the recovery
/// counters and the on-chip buffer traffic. A resident engine starts each
/// query on a fresh ledger ([`Ledger::reset`]) and a sharded engine folds
/// its workers' ledgers into the primary's ([`Ledger::merge`]).
#[derive(Debug)]
pub(super) struct Ledger {
    /// The open block's costs, while `in_block`.
    pub(super) current: BlockCost,
    pub(super) phase_counts: [u64; 7],
    /// Useful edge computations.
    pub(super) compute_items: u64,
    pub(super) in_block: bool,
    /// Committed block costs, in the order the wave schedule fills banks.
    costs: Vec<BlockCost>,
    /// Controller work outside any block, per phase.
    pub(super) extra_phase_ns: [Nanos; 7],
    /// Auxiliary rows and cells billed by [`Engine::load_aux_rows_parallel`].
    pub(super) extra_aux_row_writes: u64,
    pub(super) extra_aux_cells: u64,
    pub(super) rows_per_mac: Histogram,
    pub(super) faults: FaultReport,
    pub(super) input_buf: SramBuffer,
    pub(super) output_buf: SramBuffer,
    pub(super) attr_buf: SramBuffer,
}

impl Ledger {
    /// An empty ledger for MAC bursts of at most `max_active_rows` rows.
    pub(super) fn new(max_active_rows: usize) -> Self {
        Ledger {
            current: BlockCost::default(),
            phase_counts: [0; 7],
            compute_items: 0,
            in_block: false,
            costs: Vec::new(),
            extra_phase_ns: [Nanos::ZERO; 7],
            extra_aux_row_writes: 0,
            extra_aux_cells: 0,
            rows_per_mac: Histogram::new(max_active_rows),
            faults: FaultReport::default(),
            input_buf: SramBuffer::input_16kb(),
            output_buf: SramBuffer::output_64kb(),
            attr_buf: SramBuffer::attribute_512kb(),
        }
    }

    /// Empties the ledger, keeping the committed-cost vector's capacity.
    pub(super) fn reset(&mut self, max_active_rows: usize) {
        let mut costs = std::mem::take(&mut self.costs);
        costs.clear();
        *self = Ledger {
            costs,
            ..Ledger::new(max_active_rows)
        };
    }

    /// Folds in a worker's ledger. Block costs travel separately, in
    /// canonical stream order ([`Engine::drain_costs`],
    /// [`Engine::append_costs`]), so the worker must hold none.
    pub(super) fn merge(&mut self, worker: &Ledger) {
        // Destructured, so a field added to the ledger must be named here.
        let Ledger {
            current: _,
            phase_counts,
            compute_items,
            in_block,
            costs,
            extra_phase_ns,
            extra_aux_row_writes,
            extra_aux_cells,
            rows_per_mac,
            faults,
            input_buf,
            output_buf,
            attr_buf,
        } = worker;
        debug_assert!(!in_block && costs.is_empty(), "drain worker costs first");
        for (acc, v) in self.phase_counts.iter_mut().zip(phase_counts) {
            *acc = acc.saturating_add(*v);
        }
        self.compute_items = self.compute_items.saturating_add(*compute_items);
        for (acc, v) in self.extra_phase_ns.iter_mut().zip(extra_phase_ns) {
            *acc += *v;
        }
        let (rows, cells) = (*extra_aux_row_writes, *extra_aux_cells);
        self.extra_aux_row_writes = self.extra_aux_row_writes.saturating_add(rows);
        self.extra_aux_cells = self.extra_aux_cells.saturating_add(cells);
        self.rows_per_mac.merge(rows_per_mac);
        self.faults.merge(faults);
        self.input_buf.merge(input_buf);
        self.output_buf.merge(output_buf);
        self.attr_buf.merge(attr_buf);
    }

    /// Bills `ns` of compute in `phase` to the open block, or else to the
    /// controller.
    pub(super) fn add_compute(&mut self, phase: Phase, ns: Nanos, record_op: bool) {
        if self.in_block {
            self.current.add_phase(phase, ns, record_op);
        } else {
            self.extra_phase_ns[phase.index()] += ns;
        }
    }

    /// Functional serial time per phase over the committed blocks and the
    /// out-of-block extras (`LoadBlock`: stream plus row programming).
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

    /// Walks the committed blocks through the wave schedule of `banks`
    /// banks, handing each wave to `visit`; returns their makespan.
    fn schedule<'a>(&'a self, banks: usize, visit: impl FnMut(Wave<'a, BlockCost>)) -> Nanos {
        wave_schedule(&self.costs, banks, BlockCost::stages, visit)
    }

    /// Replays the schedule into a bank-occupancy [`Timeline`]: controller
    /// extras on the synthetic controller track, then every block's
    /// intervals. Its per-phase fold equals [`Ledger::phase_busy_ns`].
    fn build_timeline(&self, banks: usize, makespan: Nanos) -> Timeline {
        let mut tl = Timeline::new(makespan);
        for phase in Phase::ALL {
            let ns = self.extra_phase_ns[phase.index()];
            tl.push(CONTROLLER_BANK, LOAD_LANE, phase, Nanos::ZERO, ns, None);
        }
        self.schedule(banks, |wave| {
            for (i, b) in wave.blocks.iter().enumerate() {
                b.push_intervals(
                    &mut tl,
                    i as u32,
                    wave.compute_start,
                    (wave.first + i) as u32,
                );
            }
        });
        tl
    }

    /// How much of the fully serial wave makespan the pipelines hide,
    /// `(serial − pipelined) / serial` (0 with nothing to overlap): both
    /// the load/compute double-buffering and the search/MAC overlap.
    fn wave_overlap_ratio(&self, banks: usize) -> f64 {
        let waves = self.costs.chunks(banks);
        let mut loads = Vec::with_capacity(waves.len());
        let mut serial_computes = Vec::with_capacity(waves.len());
        let mut piped_computes = Vec::with_capacity(waves.len());
        for wave in waves {
            let stages = wave_stages(wave, BlockCost::stages);
            loads.push(stages.load());
            let serial = wave
                .iter()
                .map(|b| b.compute_ns)
                .fold(Nanos::ZERO, Nanos::max);
            serial_computes.push(serial);
            piped_computes.push(stages.compute);
        }
        let serial = serial_makespan(&loads, &serial_computes);
        if serial <= Nanos::ZERO {
            return 0.0;
        }
        (serial - pipelined_makespan(&loads, &piped_computes)) / serial
    }
}

impl Engine {
    /// Counts one operation in `phase` and advances the functional-time
    /// cursor past it; returns where it starts.
    #[inline]
    pub(super) fn count_op(&mut self, phase: Phase, dur_ns: Nanos) -> Nanos {
        let count = &mut self.ledger.phase_counts[phase.index()];
        *count = count.saturating_add(1);
        let start = self.cursor_ns;
        self.cursor_ns += dur_ns;
        start
    }

    /// [`count_op`](Self::count_op), plus a leaf span when tracing is on
    /// (only a live tracer pays the untyped `.ns()` conversions).
    pub(super) fn trace_op(&mut self, phase: Phase, dur_ns: Nanos) {
        let start = self.count_op(phase, dur_ns);
        if self.tracer.enabled() {
            self.tracer.emit(phase, start.ns(), dur_ns.ns());
        }
    }

    /// Closes the current block, committing its costs to the wave schedule.
    pub fn end_block(&mut self) {
        let l = &mut self.ledger;
        if l.in_block {
            l.costs.push(std::mem::take(&mut l.current));
            l.in_block = false;
        }
    }

    /// Closes any open block and returns the number of committed block
    /// costs: where a worker's shard ends, for the sharded layer.
    pub(crate) fn committed_costs(&mut self) -> usize {
        self.end_block();
        self.ledger.costs.len()
    }

    /// Drains every committed block cost (closing any open block first),
    /// keeping the vector's capacity. The sharded layer re-appends its
    /// workers' costs to the primary in canonical shard-stream order, so
    /// the merged wave schedule is bit-identical to a serial run's.
    pub(crate) fn drain_costs(&mut self) -> std::vec::Drain<'_, BlockCost> {
        self.end_block();
        self.ledger.costs.drain(..)
    }

    /// Appends block costs drained from a worker engine, preserving order.
    pub(crate) fn append_costs(&mut self, costs: impl IntoIterator<Item = BlockCost>) {
        debug_assert!(
            !self.ledger.in_block,
            "close the primary's open block first"
        );
        self.ledger.costs.extend(costs);
    }

    /// Total useful edge computations performed so far.
    pub fn compute_items(&self) -> u64 {
        self.ledger.compute_items
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
        let (l, banks) = (&self.ledger, self.config.num_banks);
        let cam_cells = self.cam.stats().cells_written;
        let mac_cells =
            self.mac.stats().cells_written + self.aux_mac.stats().cells_written + l.extra_aux_cells;
        let mut stats = XbarStats::new();
        stats.merge(self.cam.stats());
        stats.merge(self.mac.stats());
        stats.merge(self.aux_mac.stats());

        let e = &self.config.energy;
        let buffer_nj = l.input_buf.energy_nj() + l.output_buf.energy_nj() + l.attr_buf.energy_nj();
        let energy = EnergyBreakdown {
            mac_nj: (e.mac_op_pj * stats.mac_ops).to_nanojoules(),
            cam_nj: (e.cam_search_pj * stats.cam_searches).to_nanojoules(),
            // Write-verify read-backs bill to the write path: they guard
            // programming bursts, not MAC compute.
            write_nj: (e.cell_write_pj * mac_cells
                + e.cam_bit_write_pj * cam_cells
                + e.verify_read_pj * l.faults.verify_reads)
                .to_nanojoules(),
            sfu_nj: (e.sfu_op_pj * self.sfu.total_ops()).to_nanojoules(),
            buffer_nj,
            static_nj: e.static_energy_nj(makespan),
        };
        let ops = OpSummary {
            mac_ops: stats.mac_ops,
            cam_searches: stats.cam_searches,
            cells_written: stats.cells_written + l.extra_aux_cells,
            row_writes: stats.row_writes + l.extra_aux_row_writes,
            verify_reads: l.faults.verify_reads,
            sfu_ops: self.sfu.total_ops(),
            buffer_accesses: l.input_buf.accesses()
                + l.output_buf.accesses()
                + l.attr_buf.accesses(),
            compute_items: l.compute_items,
        };
        // Attribute the makespan to the five pipeline phases in proportion
        // to their busy time; the shares sum to `elapsed_ns` exactly, for
        // sharded runs too (they funnel through the primary's `finish`).
        let busy = l.phase_busy_ns();
        let tallies: Vec<(Phase, Nanos, u64)> = Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::Dispatch)
            .map(|&p| (p, busy[p.index()], l.phase_counts[p.index()]))
            .collect();
        let phases = attribute_makespan(makespan, &tallies);
        debug_assert!(
            phases.is_empty() || phases.iter().map(|p| p.sched_ns).sum::<Nanos>() == makespan,
            "phase attribution dropped schedule time: {} != {makespan}",
            phases.iter().map(|p| p.sched_ns).sum::<Nanos>(),
        );

        if self.tracer.enabled() {
            // One dispatch span per block with its bank on the *scheduled*
            // time axis (operation spans live on the serial functional
            // axis), covering the bank's program + compute occupancy.
            l.schedule(banks, |wave| {
                let compute_start = wave.compute_start;
                for (i, b) in wave.blocks.iter().enumerate() {
                    let start = (compute_start - b.program_ns).max(Nanos::ZERO);
                    self.tracer
                        .span(Phase::Dispatch, start.ns())
                        .bank(i as u32)
                        .attr("block", wave.first + i)
                        .attr("wave", wave.index)
                        .end((compute_start + b.pipe.makespan()).ns());
                }
            });
        }
        // Replay the schedule into a bank-occupancy timeline when some
        // sink wants it; its per-phase fold sums the same integer
        // durations as the accounting, so it conserves the busy time.
        let utilization = self.record_ops.then(|| {
            let tl = l.build_timeline(banks, makespan);
            debug_assert!(
                tl.phase_busy_ns() == busy,
                "timeline phase fold diverged from accounting: {:?} != {busy:?}",
                tl.phase_busy_ns(),
            );
            for interval in tl.intervals() {
                self.tracer.emit_interval(interval);
            }
            UtilizationReport::from_timeline(&tl, l.wave_overlap_ratio(banks))
        });
        let t = &self.tracer;
        if let Some(metrics) = t.metrics() {
            metrics.publish_op_summary(&ops);
            // Mirror the report's rows-per-MAC distribution into the
            // registry so sharded merges carry it losslessly.
            metrics
                .histogram("rows_per_mac")
                .lock()
                .merge(&l.rows_per_mac);
        }
        if self.fault_active {
            // Recovery counters publish once here (already merged across
            // sharded workers), not at event time: worker engines carry
            // null tracers, so event-time publication would undercount.
            let f = &l.faults;
            t.counter_add("fault_verify_reads", f.verify_reads);
            t.counter_add("fault_detected", f.faults_detected);
            t.counter_add("fault_write_retries", f.write_retries);
            t.counter_add("fault_row_remaps", f.row_remaps);
            t.counter_add("fault_cam_double_checks", f.cam_double_checks);
        }
        t.gauge_set("elapsed_ns", makespan.ns());
        t.gauge_set("energy_total_nj", energy.total_nj().nj());
        t.flush();

        let mut report = RunReport::new(engine, algorithm, workload);
        report.iterations = iterations;
        report.elapsed_ns = makespan;
        report.energy = energy;
        report.ops = ops;
        report.faults = l.faults;
        report.rows_per_mac = l.rows_per_mac.clone();
        report.num_edges = num_edges;
        report.phases = phases;
        report.utilization = utilization;
        report
    }

    /// The scheduled makespan of all blocks committed so far, plus the
    /// out-of-block controller work.
    pub fn makespan_ns(&self) -> Nanos {
        let l = &self.ledger;
        l.schedule(self.config.num_banks, |_| {}) + l.extra_phase_ns.iter().sum::<Nanos>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GaasXConfig, RecoveryPolicy};
    use crate::engine::tests::*;
    use crate::engine::Keys;
    use gaasx_graph::generators;
    use gaasx_sim::Tracer;
    use gaasx_sim::{AggregateSink, Nanojoules, TimelineSink};
    use gaasx_xbar::{FaultModel, HitVector};
    use std::sync::Arc;

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

    /// A faulty engine (stuck cells, write failures and upsets, recovered
    /// with verify, retries, remaps and voted searches) whose tracer
    /// observes intervals, so its report carries a timeline.
    fn faulty_traced() -> Engine {
        let fault = FaultModel {
            cam_stuck_ber: 1e-3,
            mac_stuck_ber: 1e-3,
            write_fail_rate: 0.05,
            cam_upset_rate: 0.05,
            seed: 7,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        e.set_tracer(Tracer::with_sink(Arc::new(TimelineSink::new())));
        e
    }

    /// Work that touches every field of the ledger: nine full-block loads
    /// (more blocks than the small config's eight banks), voted searches,
    /// MAC gathers with SFU adds, buffer traffic, and controller work
    /// outside any block. `open` leaves the last block open and skips the
    /// controller work.
    fn bill_everything(e: &mut Engine, open: bool) {
        let edges: Vec<_> = (0..e.block_capacity() as u32)
            .map(|i| gaasx_graph::Edge::new(i, 1000 + i % 4, 3.0))
            .collect();
        let mut hits = HitVector::new(0);
        for _ in 0..9 {
            e.load_block(&edges, WEIGHT_AND_ONE).unwrap();
            for dst in 1000..1004 {
                e.search_dst_into(gaasx_graph::VertexId::new(dst), &mut hits);
                let _ = e.gather_rows(&hits, |_| 1, 0).unwrap();
            }
        }
        if open {
            return;
        }
        e.attr_write(8);
        e.output_write(8);
        e.end_block();
        e.load_aux_rows_parallel(4, 16);
        let _ = e.sfu_add(1.0, 2.0);
    }

    #[test]
    fn absorb_functional_matches_local_activity() {
        // Running a workload on one engine must give the same report as
        // running it on a worker and absorbing the worker into an idle
        // primary.
        let mut serial = faulty_traced();
        bill_everything(&mut serial, false);
        let want = serial.finish("t", "t", "t", 1, 8);
        assert!(want.faults.row_remaps > 0 && want.faults.write_retries > 0);
        assert!(want.faults.cam_double_checks > 0 && want.utilization.is_some());

        let mut primary = faulty_traced();
        let mut worker = faulty_traced();
        bill_everything(&mut worker, false);
        primary.append_costs(worker.drain_costs());
        primary.absorb_functional(&worker);
        assert_eq!(primary.finish("t", "t", "t", 1, 8), want);
    }

    #[test]
    fn reset_accounting_gives_a_resident_engine_a_clean_bill() {
        // A first query, left open mid-block, settles the remaps the stuck
        // cells force; after each reset the resident engine bills exactly
        // like the query before it: nothing leaks into the next report.
        let mut resident = faulty_traced();
        bill_everything(&mut resident, true);
        let mut bills = Vec::new();
        for _ in 0..2 {
            resident.reset_accounting();
            bill_everything(&mut resident, false);
            bills.push(resident.finish("gaasx", "probe", "t", 1, 8));
        }
        assert!(bills[0].faults.write_retries > 0 && bills[0].faults.cam_double_checks > 0);
        assert_eq!(bills[0], bills[1]);
    }

    #[test]
    fn timeline_conserves_phase_attribution() {
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
        assert!(intervals.iter().any(|iv| iv.bank == CONTROLLER_BANK));
    }

    #[test]
    fn untraced_runs_attach_no_utilization() {
        let mut e = engine();
        let _ = fig7_block(&mut e);
        let r = e.finish("t", "t", "t", 1, 8);
        assert!(r.utilization.is_none());
        // A null-sink tracer observes no intervals either.
        let mut e2 = engine();
        e2.set_tracer(Tracer::with_sink(Arc::new(gaasx_sim::NullSink)));
        let _ = fig7_block(&mut e2);
        let r2 = e2.finish("t", "t", "t", 1, 8);
        assert!(r2.utilization.is_none());
    }
}
