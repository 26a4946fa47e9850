//! Two-stage load/compute pipeline timing model.
//!
//! GaaS-X (like GraphR) streams sub-shards from storage into the crossbars
//! while the previous shard computes; with double buffering the makespan of
//! `n` shards is
//!
//! ```text
//! load_0 + Σ_{i=1..n-1} max(load_i, compute_{i-1}) + compute_{n-1}
//! ```
//!
//! which this module evaluates from per-shard load and compute times.
//!
//! [`wave_schedule`] is the block schedule both accelerator engines share:
//! a central controller fills `banks` banks with consecutive blocks, one
//! synchronous wave at a time, and waves overlap load with compute through
//! [`PipelineClock`].

use crate::units::Nanos;

/// Makespan of a two-stage pipeline with double buffering.
///
/// `loads[i]` and `computes[i]` are the stage times of shard `i` in any
/// consistent time unit.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// ```
/// use gaasx_sim::pipeline::pipelined_makespan;
///
/// // Perfect overlap: 3 shards, load 10, compute 10 -> 10 + 2*10 + 10.
/// assert_eq!(pipelined_makespan(&[10.0; 3], &[10.0; 3]), 40.0);
/// ```
pub fn pipelined_makespan(loads: &[f64], computes: &[f64]) -> f64 {
    assert_eq!(
        loads.len(),
        computes.len(),
        "pipeline stages must align per shard"
    );
    if loads.is_empty() {
        return 0.0;
    }
    let mut total = loads[0];
    for i in 1..loads.len() {
        total += loads[i].max(computes[i - 1]);
    }
    total + computes[computes.len() - 1]
}

/// Makespan with no overlap (single buffering): the serial sum.
pub fn serial_makespan(loads: &[f64], computes: &[f64]) -> f64 {
    assert_eq!(
        loads.len(),
        computes.len(),
        "pipeline stages must align per shard"
    );
    loads.iter().sum::<f64>() + computes.iter().sum::<f64>()
}

/// Incremental two-stage pipeline clock, for engines that discover shard
/// costs on the fly instead of collecting them up front.
#[derive(Debug, Clone, Default)]
pub struct PipelineClock {
    load_ready: f64,
    compute_done: f64,
}

impl PipelineClock {
    /// A clock at time zero with both stages idle.
    pub fn new() -> Self {
        PipelineClock::default()
    }

    /// Accounts one shard: its load starts as soon as the load unit is free
    /// and its compute starts once both the load finished and the compute
    /// unit freed up. Returns the shard's compute completion time.
    pub fn advance(&mut self, load_ns: f64, compute_ns: f64) -> f64 {
        let load_done = self.load_ready + load_ns;
        self.load_ready = load_done;
        let start = load_done.max(self.compute_done);
        self.compute_done = start + compute_ns;
        self.compute_done
    }

    /// Current makespan (completion time of the last computed shard).
    pub fn makespan(&self) -> f64 {
        self.compute_done.max(self.load_ready)
    }
}

/// One block's stage times in a [`wave_schedule`] — or, from
/// [`wave_stages`], one whole wave's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStages {
    /// Streaming the block from storage over the shared channel.
    pub stream: Nanos,
    /// Programming the block's rows into its bank.
    pub program: Nanos,
    /// Computing on the programmed block.
    pub compute: Nanos,
}

impl BlockStages {
    /// The load stage: streaming and row programming overlap, so the
    /// slower of the two bounds it.
    pub fn load(&self) -> Nanos {
        self.stream.max(self.program)
    }
}

/// A wave's stage times: its blocks stream one after another over the
/// shared channel (a sum), while programming and compute run
/// bank-parallel (a max). Sums and maxima accumulate in block order.
pub fn wave_stages<T>(wave: &[T], stages: impl Fn(&T) -> BlockStages) -> BlockStages {
    let mut w = BlockStages::default();
    for block in wave {
        let s = stages(block);
        w.stream += s.stream;
        w.program = w.program.max(s.program);
        w.compute = w.compute.max(s.compute);
    }
    w
}

/// One synchronous wave of a [`wave_schedule`].
#[derive(Debug)]
pub struct Wave<'a, T> {
    /// Position of the wave in the schedule.
    pub index: usize,
    /// Index of the wave's first block in the whole block slice; block
    /// `first + i` runs on bank `i`.
    pub first: usize,
    /// The wave's blocks, one per bank.
    pub blocks: &'a [T],
    /// When the wave's compute window opens (all its blocks loaded and
    /// the previous wave's compute drained).
    pub compute_start: Nanos,
    /// When the wave's slowest block finishes computing.
    pub compute_end: Nanos,
}

/// Schedules `blocks` in synchronous waves of `banks` consecutive blocks
/// and returns the makespan. Each wave's load ([`BlockStages::load`] of
/// its [`wave_stages`]) and compute advance one [`PipelineClock`], so
/// loading a wave overlaps the previous wave's compute. `visit` sees
/// every wave with its compute window, in order; the walk allocates
/// nothing.
///
/// # Panics
///
/// Panics if `banks` is zero.
pub fn wave_schedule<'a, T>(
    blocks: &'a [T],
    banks: usize,
    stages: impl Fn(&T) -> BlockStages,
    mut visit: impl FnMut(Wave<'a, T>),
) -> Nanos {
    let mut clock = PipelineClock::new();
    for (index, wave) in blocks.chunks(banks).enumerate() {
        let s = wave_stages(wave, &stages);
        let done = Nanos::from_ns(clock.advance(s.load().ns(), s.compute.ns()));
        visit(Wave {
            index,
            first: index * banks,
            blocks: wave,
            compute_start: done - s.compute,
            compute_end: done,
        });
    }
    Nanos::from_ns(clock.makespan())
}

/// Intra-block CAM-search / MAC-compute overlap clock.
///
/// GaaS-X pipelines the CAM search for the next vertex with the MAC
/// accumulation of the current one (paper §III-C): the search and compute
/// periphery are separate units, so a search may proceed while the
/// previous MAC burst drains. The one dependency is *forward*: a compute
/// op issued right after a search consumes that search's hit vector, so
/// it cannot start before the search finishes. Searches never wait for
/// computes.
///
/// Feed the block's op ledger in issue order — [`search`](PhasePipe::search)
/// for CAM-search ops, [`compute`](PhasePipe::compute) for everything else
/// — and [`makespan`](PhasePipe::makespan) yields the block's pipelined
/// compute time. Both calls return the op's modeled start time so a
/// timeline replay can place the op on its lane.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhasePipe {
    search_ready: f64,
    compute_done: f64,
    /// Whether the most recent op was a search — the next compute op then
    /// synchronizes on `search_ready` (it consumes the hit vector).
    last_was_search: bool,
}

impl PhasePipe {
    /// A clock at time zero with both units idle.
    pub fn new() -> Self {
        PhasePipe::default()
    }

    /// Accounts one CAM-search op on the search unit; returns its start.
    pub fn search(&mut self, ns: f64) -> f64 {
        let start = self.search_ready;
        self.search_ready = start + ns;
        self.last_was_search = true;
        start
    }

    /// Accounts one non-search op on the compute unit; returns its start.
    /// When the preceding op was a search, the compute first waits for the
    /// search unit (it consumes the freshly produced hit vector).
    pub fn compute(&mut self, ns: f64) -> f64 {
        if self.last_was_search {
            self.compute_done = self.compute_done.max(self.search_ready);
            self.last_was_search = false;
        }
        let start = self.compute_done;
        self.compute_done = start + ns;
        start
    }

    /// Pipelined makespan of the ops accounted so far.
    pub fn makespan(&self) -> f64 {
        self.compute_done.max(self.search_ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pipeline_is_zero() {
        assert_eq!(pipelined_makespan(&[], &[]), 0.0);
        assert_eq!(serial_makespan(&[], &[]), 0.0);
    }

    #[test]
    fn single_shard_is_serial() {
        assert_eq!(pipelined_makespan(&[5.0], &[7.0]), 12.0);
    }

    #[test]
    fn compute_bound_hides_loads() {
        // Loads of 1 hide entirely behind computes of 10 (after the first).
        let m = pipelined_makespan(&[1.0; 4], &[10.0; 4]);
        assert_eq!(m, 1.0 + 3.0 * 10.0 + 10.0);
    }

    #[test]
    fn load_bound_hides_computes() {
        let m = pipelined_makespan(&[10.0; 4], &[1.0; 4]);
        assert_eq!(m, 10.0 + 3.0 * 10.0 + 1.0);
    }

    #[test]
    fn pipeline_never_beats_critical_stage_or_exceeds_serial() {
        let loads = [3.0, 8.0, 2.0, 5.0];
        let computes = [6.0, 1.0, 9.0, 2.0];
        let p = pipelined_makespan(&loads, &computes);
        let s = serial_makespan(&loads, &computes);
        assert!(p <= s);
        assert!(p >= loads.iter().sum::<f64>().max(computes.iter().sum()));
    }

    #[test]
    fn clock_matches_batch_formula() {
        let loads = [3.0, 8.0, 2.0, 5.0];
        let computes = [6.0, 1.0, 9.0, 2.0];
        let mut clock = PipelineClock::new();
        for (&l, &c) in loads.iter().zip(&computes) {
            clock.advance(l, c);
        }
        assert!((clock.makespan() - pipelined_makespan(&loads, &computes)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        pipelined_makespan(&[1.0], &[]);
    }

    #[test]
    fn wave_schedule_by_hand() {
        // Five blocks on three banks: a full wave, then an uneven one.
        let ns = Nanos::from_ns;
        let blocks = [
            (2.0, 5.0, 10.0),
            (2.0, 3.0, 7.0),
            (2.0, 4.0, 12.0),
            (1.0, 8.0, 4.0),
            (1.0, 2.0, 9.0),
        ];
        let stages = |&(stream, program, compute): &(f64, f64, f64)| BlockStages {
            stream: ns(stream),
            program: ns(program),
            compute: ns(compute),
        };
        let mut waves = Vec::new();
        let makespan = wave_schedule(&blocks, 3, stages, |w| {
            waves.push((
                w.index,
                w.first,
                w.blocks.len(),
                w.compute_start,
                w.compute_end,
            ));
        });
        // Wave 0: streaming 2+2+2 = 6 outlasts the slowest program (5), so
        // compute runs 6..6+12. Wave 1: the slowest program (8) bounds the
        // load, done at 6+8 = 14, but compute waits for wave 0 until 18
        // and runs 18..18+9.
        assert_eq!(
            waves,
            [(0, 0, 3, ns(6.0), ns(18.0)), (1, 3, 2, ns(18.0), ns(27.0))]
        );
        assert_eq!(makespan, ns(27.0));
        assert_eq!(wave_schedule(&blocks[..0], 3, stages, |_| {}), Nanos::ZERO);
    }

    #[test]
    fn phase_pipe_overlaps_search_with_prior_compute() {
        // S(4) C(10) S(4) C(10): the second search runs during the first
        // MAC, so only the first search extends the makespan.
        let mut p = PhasePipe::new();
        assert_eq!(p.search(4.0), 0.0);
        assert_eq!(p.compute(10.0), 4.0);
        assert_eq!(p.search(4.0), 4.0); // overlapped with the MAC
        assert_eq!(p.compute(10.0), 14.0);
        assert_eq!(p.makespan(), 24.0);
        // Serial would be 28: the pipeline hid one 4 ns search.
    }

    #[test]
    fn phase_pipe_search_bound_blocks_compute() {
        // Long searches dominate: each compute waits for its hit vector.
        let mut p = PhasePipe::new();
        p.search(10.0);
        assert_eq!(p.compute(1.0), 10.0);
        p.search(10.0);
        assert_eq!(p.compute(1.0), 20.0);
        assert_eq!(p.makespan(), 21.0);
    }

    #[test]
    fn phase_pipe_consecutive_ops_serialize_within_a_unit() {
        // Voting searches (3 in a row) serialize on the search unit; the
        // following compute waits for all three. Consecutive computes
        // serialize on the compute unit without re-syncing.
        let mut p = PhasePipe::new();
        p.search(4.0);
        p.search(4.0);
        p.search(4.0);
        assert_eq!(p.compute(5.0), 12.0);
        assert_eq!(p.compute(5.0), 17.0);
        assert_eq!(p.makespan(), 22.0);
    }

    #[test]
    fn phase_pipe_without_searches_is_serial() {
        let mut p = PhasePipe::new();
        p.compute(3.0);
        p.compute(7.0);
        assert_eq!(p.makespan(), 10.0);
        // And search-only blocks are serial on the search unit.
        let mut q = PhasePipe::new();
        q.search(2.0);
        q.search(2.0);
        assert_eq!(q.makespan(), 4.0);
    }

    #[test]
    fn phase_pipe_never_beats_critical_unit_or_exceeds_serial() {
        let ops = [
            (true, 4.0),
            (false, 9.0),
            (true, 2.0),
            (true, 3.0),
            (false, 1.0),
            (false, 6.0),
        ];
        let mut p = PhasePipe::new();
        let mut serial = 0.0;
        let (mut s_total, mut c_total) = (0.0, 0.0);
        for &(is_search, ns) in &ops {
            if is_search {
                p.search(ns);
                s_total += ns;
            } else {
                p.compute(ns);
                c_total += ns;
            }
            serial += ns;
        }
        assert!(p.makespan() <= serial);
        assert!(p.makespan() >= s_total.max(c_total));
    }
}
