//! Bank-occupancy timelines: per-bank, per-lane intervals on the modeled
//! time axis, utilization reports derived from them, and Chrome-trace
//! export.
//!
//! Every billed device operation (CAM search, MAC burst, block
//! stream/program, SFU op, verify-read) occupies one
//! [`TimelineInterval`] on a `(bank, lane)` track. Engines build the
//! timeline at `finish` time by replaying their committed block-cost
//! stream through the same scheduler math that produces the makespan, so
//! a sharded run — which reassembles the cost stream in canonical order —
//! yields a bit-identical timeline to a serial one.
//!
//! ## Lanes
//!
//! Each physical bank carries up to three lanes: [`LOAD_LANE`] holds one
//! interval per block (streaming plus row programming), [`COMPUTE_LANE`]
//! holds one interval per non-search compute operation (MAC bursts, SFU
//! ops), and [`SEARCH_LANE`] holds CAM-search intervals, which the
//! engine's pipeline model may overlap with compute on the same bank.
//! Both compute-side lanes are laid from the block's scheduled compute
//! start at the offsets the intra-block pipeline clock produced.
//! Controller work that happens outside any block (auxiliary loads,
//! reduce arithmetic) lives on the synthetic [`CONTROLLER_BANK`].
//!
//! ## The conservation invariant
//!
//! [`Timeline::phase_busy_ns`] folds interval durations back into
//! per-phase busy totals. Durations are integer ticks, so the fold is
//! exact in any order: it reproduces the engine's phase attribution
//! bit-exactly (asserted by a `debug_assert` in the engine's `finish`
//! and by property tests), and so do the per-bank totals that regroup
//! the same durations across banks.

use serde::{Deserialize, Serialize};

use crate::obs::{Phase, Sink, SpanEvent};
use crate::units::Nanos;
use parking_lot::Mutex;

/// Synthetic bank id for controller-side work performed outside any
/// block (out-of-block SFU arithmetic, parallel auxiliary loads).
pub const CONTROLLER_BANK: u32 = u32::MAX;

/// Lane holding block load intervals (stream + row programming).
pub const LOAD_LANE: u32 = 0;

/// Lane holding per-operation compute intervals.
pub const COMPUTE_LANE: u32 = 1;

/// Lane holding CAM-search intervals when the engine models search/MAC
/// pipeline overlap: searches for the next vertex proceed while the
/// previous MAC burst drains, so they occupy their own track. The
/// conservation fold keys on phase, not lane, so splitting searches onto
/// this lane leaves per-phase busy totals unchanged.
pub const SEARCH_LANE: u32 = 2;

/// One occupancy interval on a `(bank, lane)` track of the modeled-time
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineInterval {
    /// Bank id ([`CONTROLLER_BANK`] for out-of-block controller work).
    pub bank: u32,
    /// Lane within the bank ([`LOAD_LANE`] or [`COMPUTE_LANE`]).
    pub lane: u32,
    /// Execution phase of the operation.
    pub phase: Phase,
    /// Start on the modeled time axis.
    pub start_ns: Nanos,
    /// Duration. Never clamped: the conservation fold consumes these
    /// exact values.
    pub dur_ns: Nanos,
    /// Index of the block this operation belongs to, in canonical
    /// cost-stream order; `None` for controller work.
    pub block: Option<u32>,
}

impl TimelineInterval {
    /// End of the interval.
    pub fn end_ns(&self) -> Nanos {
        self.start_ns + self.dur_ns
    }
}

/// An append-only occupancy timeline with per-`(bank, lane)` placement
/// cursors that keep every track free of overlaps.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    intervals: Vec<TimelineInterval>,
    /// End of the last interval per `(bank, lane)` track.
    cursors: std::collections::BTreeMap<(u32, u32), Nanos>,
    makespan_ns: Nanos,
}

impl Timeline {
    /// An empty timeline for a run of the given scheduled makespan.
    pub fn new(makespan_ns: Nanos) -> Self {
        Timeline {
            intervals: Vec::new(),
            cursors: std::collections::BTreeMap::new(),
            makespan_ns,
        }
    }

    /// Rebuilds a timeline from already-placed intervals, e.g. drained
    /// from a [`TimelineSink`]. Placement is idempotent: re-pushing a
    /// stream of per-track non-overlapping intervals in emission order
    /// reproduces their starts and durations exactly.
    pub fn from_intervals(makespan_ns: Nanos, intervals: &[TimelineInterval]) -> Self {
        let mut tl = Timeline::new(makespan_ns);
        for iv in intervals {
            tl.push(iv.bank, iv.lane, iv.phase, iv.start_ns, iv.dur_ns, iv.block);
        }
        tl
    }

    /// The scheduled makespan this timeline describes.
    pub fn makespan_ns(&self) -> Nanos {
        self.makespan_ns
    }

    /// Appends an interval at `start_ns.max(track cursor)` — a nominal
    /// start earlier than the track's last end is pushed right so tracks
    /// never overlap. The *duration* is recorded verbatim (conservation
    /// consumes durations, not placements). Zero or negative durations
    /// are dropped.
    pub fn push(
        &mut self,
        bank: u32,
        lane: u32,
        phase: Phase,
        start_ns: Nanos,
        dur_ns: Nanos,
        block: Option<u32>,
    ) {
        if dur_ns <= Nanos::ZERO {
            return;
        }
        let cursor = self.cursors.entry((bank, lane)).or_insert(Nanos::ZERO);
        let start = start_ns.max(*cursor);
        *cursor = start + dur_ns;
        self.intervals.push(TimelineInterval {
            bank,
            lane,
            phase,
            start_ns: start,
            dur_ns,
            block,
        });
    }

    /// The intervals in emission order (controller work first, then
    /// blocks in canonical cost-stream order).
    pub fn intervals(&self) -> &[TimelineInterval] {
        &self.intervals
    }

    /// Number of intervals recorded.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the timeline holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Latest interval end across all tracks (0 when empty). Can exceed
    /// [`Timeline::makespan_ns`] when track serialization pushed
    /// intervals past their nominal slots.
    pub fn max_end_ns(&self) -> Nanos {
        self.cursors
            .values()
            .fold(Nanos::ZERO, |acc, &v| acc.max(v))
    }

    /// Folds interval durations into per-phase busy totals (indexed by
    /// [`Phase::index`]); exact in any order (see the module docs).
    pub fn phase_busy_ns(&self) -> [Nanos; 7] {
        let mut busy = [Nanos::ZERO; 7];
        for iv in &self.intervals {
            busy[iv.phase.index()] += iv.dur_ns;
        }
        busy
    }
}

/// Busy/idle/overlap accounting for one bank, derived from its timeline
/// tracks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankUtilization {
    /// Bank id ([`CONTROLLER_BANK`] for the controller row).
    pub bank: u32,
    /// Total load-lane occupancy (streaming + programming).
    pub load_busy_ns: Nanos,
    /// Total compute-side occupancy (sum of compute- and search-lane
    /// interval durations; search/MAC overlap is *not* deduplicated here,
    /// mirroring the per-phase busy accounting).
    pub compute_busy_ns: Nanos,
    /// Union occupancy of all lanes (busy on *any*).
    pub busy_ns: Nanos,
    /// Time the load lane and the compute-side lanes were busy
    /// simultaneously — the double-buffering overlap this bank actually
    /// achieved.
    pub overlap_ns: Nanos,
    /// `busy_ns / makespan_ns` (0 for a zero makespan). Can nudge past
    /// 1.0 when track serialization pushed work past the makespan.
    pub utilization: f64,
}

/// Per-bank utilization summary of one run, attached to
/// [`crate::RunReport`] when the run recorded a timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// Scheduled makespan of the run (equals the report's `elapsed_ns`).
    pub makespan_ns: Nanos,
    /// Per-bank rows, ascending by bank id with the controller row last.
    pub banks: Vec<BankUtilization>,
    /// Per-phase busy totals (indexed by [`Phase::index`]) — the
    /// conservation anchor: bit-identical to the `busy_ns` values of the
    /// report's phase attribution.
    pub phase_busy_ns: [Nanos; 7],
    /// The busiest physical bank (the critical path under the bank-
    /// parallel schedule); `None` when no physical bank saw work.
    pub critical_bank: Option<u32>,
    /// `(serial − pipelined) / serial` makespan ratio of the wave
    /// load/compute stage times: 0 means no overlap was available, higher
    /// means the double-buffered pipeline hid more of the load time.
    pub pipeline_overlap_ratio: f64,
}

impl UtilizationReport {
    /// Derives the per-bank utilization view from a timeline.
    /// `pipeline_overlap_ratio` comes from the engine's wave stage times
    /// (the timeline alone cannot reconstruct the unpipelined serial
    /// makespan).
    pub fn from_timeline(timeline: &Timeline, pipeline_overlap_ratio: f64) -> Self {
        let makespan_ns = timeline.makespan_ns();
        // Group per bank. Each individual lane is sorted and
        // non-overlapping by construction, but the compute side spans two
        // lanes (COMPUTE_LANE and SEARCH_LANE) whose intervals interleave
        // and may genuinely overlap under the search/MAC pipeline — those
        // are sorted and swept into a union before the load/compute merge.
        let mut bank_ids: Vec<u32> = timeline.intervals().iter().map(|iv| iv.bank).collect();
        bank_ids.sort_unstable();
        bank_ids.dedup();
        // Controller row renders last.
        if let Some(pos) = bank_ids.iter().position(|&b| b == CONTROLLER_BANK) {
            bank_ids.remove(pos);
            bank_ids.push(CONTROLLER_BANK);
        }
        let mut banks = Vec::with_capacity(bank_ids.len());
        for &bank in &bank_ids {
            let span = |iv: &TimelineInterval| (iv.start_ns, iv.end_ns());
            let load: Vec<(Nanos, Nanos)> = timeline
                .intervals()
                .iter()
                .filter(|iv| iv.bank == bank && iv.lane == LOAD_LANE)
                .map(span)
                .collect();
            let mut compute: Vec<(Nanos, Nanos)> = timeline
                .intervals()
                .iter()
                .filter(|iv| iv.bank == bank && iv.lane != LOAD_LANE)
                .map(span)
                .collect();
            let length = |ivs: &[(Nanos, Nanos)]| ivs.iter().map(|&(s, e)| e - s).sum::<Nanos>();
            let load_busy_ns = length(&load);
            let compute_busy_ns = length(&compute);
            compute.sort_unstable();
            let compute = merge_sorted(compute);
            let busy_ns = union_ns(&load, &compute);
            let overlap_ns = (load_busy_ns + length(&compute) - busy_ns).max(Nanos::ZERO);
            banks.push(BankUtilization {
                bank,
                load_busy_ns,
                compute_busy_ns,
                busy_ns,
                overlap_ns,
                utilization: if makespan_ns > Nanos::ZERO {
                    busy_ns / makespan_ns
                } else {
                    0.0
                },
            });
        }
        let critical_bank = banks
            .iter()
            .filter(|b| b.bank != CONTROLLER_BANK)
            .max_by_key(|b| b.busy_ns)
            .map(|b| b.bank);
        UtilizationReport {
            makespan_ns,
            banks,
            phase_busy_ns: timeline.phase_busy_ns(),
            critical_bank,
            pipeline_overlap_ratio,
        }
    }

    /// The row for `bank`, if it saw any work.
    pub fn bank(&self, bank: u32) -> Option<&BankUtilization> {
        self.banks.iter().find(|b| b.bank == bank)
    }

    /// Total busy time across all phases (sum of the conservation anchor).
    pub fn total_busy_ns(&self) -> Nanos {
        self.phase_busy_ns.iter().sum()
    }

    /// Mean utilization over the physical banks that saw work (the
    /// controller row is excluded).
    pub fn mean_utilization(&self) -> f64 {
        let rows: Vec<&BankUtilization> = self
            .banks
            .iter()
            .filter(|b| b.bank != CONTROLLER_BANK)
            .collect();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|b| b.utilization).sum::<f64>() / rows.len() as f64
    }
}

/// Collapses a start-sorted interval list into its non-overlapping
/// union (touching intervals merge).
fn merge_sorted(intervals: Vec<(Nanos, Nanos)>) -> Vec<(Nanos, Nanos)> {
    let mut merged: Vec<(Nanos, Nanos)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some((_, end)) if s <= *end => *end = (*end).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Length of the union of two sorted, internally non-overlapping
/// interval lists.
fn union_ns(a: &[(Nanos, Nanos)], b: &[(Nanos, Nanos)]) -> Nanos {
    let mut total = Nanos::ZERO;
    let mut open: Option<(Nanos, Nanos)> = None;
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x.0 <= y.0 {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        match &mut open {
            Some((_, end)) if next.0 <= *end => *end = (*end).max(next.1),
            Some((start, end)) => {
                total += *end - *start;
                open = Some(next);
            }
            None => open = Some(next),
        }
    }
    if let Some((start, end)) = open {
        total += end - start;
    }
    total
}

/// Buffers every timeline interval in memory, in emission order.
///
/// Attaching a `TimelineSink` (directly or alongside other sinks) is what
/// switches an engine into timeline recording: the tracer reports
/// [`Sink::observes_intervals`], the engine records its per-op ledger,
/// and `finish` emits the built timeline here and attaches a
/// [`UtilizationReport`] to the run report.
#[derive(Debug, Default)]
pub struct TimelineSink {
    intervals: Mutex<Vec<TimelineInterval>>,
}

impl TimelineSink {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the buffered intervals in emission order.
    pub fn take(&self) -> Vec<TimelineInterval> {
        std::mem::take(&mut self.intervals.lock())
    }

    /// Copies the buffered intervals without draining.
    pub fn snapshot(&self) -> Vec<TimelineInterval> {
        self.intervals.lock().clone()
    }

    /// Number of intervals currently buffered.
    pub fn len(&self) -> usize {
        self.intervals.lock().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.lock().is_empty()
    }
}

impl Sink for TimelineSink {
    fn on_span(&self, _event: &SpanEvent) {}

    fn observes_spans(&self) -> bool {
        false
    }

    fn on_interval(&self, interval: &TimelineInterval) {
        self.intervals.lock().push(*interval);
    }

    fn observes_intervals(&self) -> bool {
        true
    }
}

/// JSON has no NaN/Infinity literals; encode them as null.
fn push_us(out: &mut String, ns: f64) {
    let us = ns / 1_000.0;
    if us.is_finite() {
        out.push_str(&format!("{us:.6}"));
    } else {
        out.push_str("null");
    }
}

fn tid_of(bank: u32, lane: u32) -> u64 {
    if bank == CONTROLLER_BANK {
        0
    } else {
        u64::from(bank) * 3 + u64::from(lane) + 1
    }
}

/// Renders one interval as a Chrome-trace JSONL record (no newline) —
/// the per-event encoding [`crate::JsonlSink`] streams for intervals.
pub fn interval_to_json(iv: &TimelineInterval) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"type\":\"interval\",\"bank\":");
    out.push_str(&iv.bank.to_string());
    out.push_str(",\"lane\":");
    out.push_str(&iv.lane.to_string());
    out.push_str(",\"phase\":\"");
    out.push_str(iv.phase.name());
    out.push_str("\",\"start_ns\":");
    push_ns(&mut out, iv.start_ns.ns());
    out.push_str(",\"dur_ns\":");
    push_ns(&mut out, iv.dur_ns.ns());
    if let Some(block) = iv.block {
        out.push_str(",\"block\":");
        out.push_str(&block.to_string());
    }
    out.push('}');
    out
}

fn push_ns(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:.3}"));
    } else {
        out.push_str("null");
    }
}

/// Renders a timeline as Chrome trace-event JSON (the format Perfetto
/// and `chrome://tracing` load): one complete (`"ph":"X"`) event per
/// interval with timestamps in microseconds, plus thread-name metadata
/// labeling each `(bank, lane)` track.
pub fn chrome_trace_json(timeline: &Timeline) -> String {
    let mut out = String::with_capacity(256 + timeline.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    // Thread-name metadata for each distinct track, in tid order.
    let mut tracks: Vec<(u32, u32)> = timeline
        .intervals()
        .iter()
        .map(|iv| (iv.bank, iv.lane))
        .collect();
    tracks.sort_unstable_by_key(|&(bank, lane)| tid_of(bank, lane));
    tracks.dedup();
    let mut first = true;
    for &(bank, lane) in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if bank == CONTROLLER_BANK {
            "controller".to_string()
        } else if lane == LOAD_LANE {
            format!("bank {bank} load")
        } else if lane == SEARCH_LANE {
            format!("bank {bank} search")
        } else {
            format!("bank {bank} compute")
        };
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{label}\"}}}}",
            tid_of(bank, lane)
        ));
    }
    for iv in timeline.intervals() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        out.push_str(iv.phase.name());
        out.push_str("\",\"ph\":\"X\",\"pid\":0,\"tid\":");
        out.push_str(&tid_of(iv.bank, iv.lane).to_string());
        out.push_str(",\"ts\":");
        push_us(&mut out, iv.start_ns.ns());
        out.push_str(",\"dur\":");
        push_us(&mut out, iv.dur_ns.ns());
        out.push_str(",\"args\":{\"bank\":");
        out.push_str(&iv.bank.to_string());
        out.push_str(",\"lane\":");
        out.push_str(&iv.lane.to_string());
        if let Some(block) = iv.block {
            out.push_str(",\"block\":");
            out.push_str(&block.to_string());
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: f64) -> Nanos {
        Nanos::from_ns(v)
    }

    #[test]
    fn push_serializes_tracks_and_skips_zero_durations() {
        let mut tl = Timeline::new(ns(100.0));
        tl.push(0, COMPUTE_LANE, Phase::CamSearch, ns(0.0), ns(4.0), Some(0));
        // Nominal start inside the previous interval: pushed right.
        tl.push(
            0,
            COMPUTE_LANE,
            Phase::MacGather,
            ns(2.0),
            ns(30.0),
            Some(0),
        );
        // Another lane is an independent track.
        tl.push(0, LOAD_LANE, Phase::LoadBlock, ns(1.0), ns(5.0), Some(0));
        tl.push(0, COMPUTE_LANE, Phase::Sfu, ns(0.0), ns(0.0), Some(0));
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.intervals()[1].start_ns, ns(4.0));
        assert_eq!(tl.intervals()[2].start_ns, ns(1.0));
        assert_eq!(tl.max_end_ns(), ns(34.0));
        // Non-overlap per track.
        for w in [COMPUTE_LANE, LOAD_LANE] {
            let mut end = Nanos::ZERO;
            for iv in tl.intervals().iter().filter(|iv| iv.lane == w) {
                assert!(iv.start_ns >= end);
                end = iv.end_ns();
            }
        }
    }

    #[test]
    fn from_intervals_round_trips_placed_streams() {
        let mut tl = Timeline::new(ns(50.0));
        tl.push(
            CONTROLLER_BANK,
            LOAD_LANE,
            Phase::Sfu,
            ns(0.0),
            ns(0.125),
            None,
        );
        tl.push(0, LOAD_LANE, Phase::LoadBlock, ns(0.0), ns(10.0), Some(0));
        tl.push(0, COMPUTE_LANE, Phase::CamSearch, ns(2.0), ns(4.0), Some(0));
        tl.push(
            0,
            COMPUTE_LANE,
            Phase::MacGather,
            ns(3.0),
            ns(30.0),
            Some(0),
        );
        let rebuilt = Timeline::from_intervals(tl.makespan_ns(), tl.intervals());
        assert_eq!(rebuilt.intervals(), tl.intervals());
        assert_eq!(rebuilt.makespan_ns(), tl.makespan_ns());
        assert_eq!(rebuilt.phase_busy_ns(), tl.phase_busy_ns());
    }

    #[test]
    fn phase_busy_fold_matches_manual_accounting() {
        let mut tl = Timeline::new(ns(50.0));
        // Controller extras first.
        tl.push(
            CONTROLLER_BANK,
            LOAD_LANE,
            Phase::Sfu,
            ns(0.0),
            ns(0.125),
            None,
        );
        // Block 0: load then two compute ops.
        tl.push(0, LOAD_LANE, Phase::LoadBlock, ns(0.0), ns(10.0), Some(0));
        tl.push(
            0,
            COMPUTE_LANE,
            Phase::CamSearch,
            ns(10.0),
            ns(4.0),
            Some(0),
        );
        tl.push(
            0,
            COMPUTE_LANE,
            Phase::MacGather,
            ns(14.0),
            ns(30.0),
            Some(0),
        );
        // Block 1 on another bank.
        tl.push(1, LOAD_LANE, Phase::LoadBlock, ns(0.0), ns(7.0), Some(1));
        tl.push(1, COMPUTE_LANE, Phase::CamSearch, ns(7.0), ns(4.0), Some(1));
        let busy = tl.phase_busy_ns();
        assert_eq!(busy[Phase::LoadBlock.index()], ns(17.0));
        assert_eq!(busy[Phase::CamSearch.index()], ns(8.0));
        assert_eq!(busy[Phase::MacGather.index()], ns(30.0));
        assert_eq!(busy[Phase::Sfu.index()], ns(0.125));
        assert_eq!(busy[Phase::Init.index()], Nanos::ZERO);
    }

    #[test]
    fn utilization_report_accounts_overlap_and_critical_bank() {
        let mut tl = Timeline::new(ns(40.0));
        // Bank 0: load [0,10), compute [5,25) -> union 25, overlap 5.
        tl.push(0, LOAD_LANE, Phase::LoadBlock, ns(0.0), ns(10.0), Some(0));
        tl.push(
            0,
            COMPUTE_LANE,
            Phase::MacGather,
            ns(5.0),
            ns(20.0),
            Some(0),
        );
        // Bank 1: compute only.
        tl.push(1, COMPUTE_LANE, Phase::CamSearch, ns(0.0), ns(4.0), Some(1));
        // Controller row.
        tl.push(
            CONTROLLER_BANK,
            LOAD_LANE,
            Phase::Sfu,
            ns(0.0),
            ns(2.0),
            None,
        );
        let u = UtilizationReport::from_timeline(&tl, 0.25);
        assert_eq!(u.banks.len(), 3);
        let b0 = u.bank(0).unwrap();
        assert_eq!(b0.load_busy_ns, ns(10.0));
        assert_eq!(b0.compute_busy_ns, ns(20.0));
        assert_eq!(b0.busy_ns, ns(25.0));
        assert_eq!(b0.overlap_ns, ns(5.0));
        assert!((b0.utilization - 25.0 / 40.0).abs() < 1e-12);
        assert_eq!(u.critical_bank, Some(0));
        // Controller row is last and never the critical bank.
        assert_eq!(u.banks.last().unwrap().bank, CONTROLLER_BANK);
        assert_eq!(u.pipeline_overlap_ratio, 0.25);
        assert!(u.mean_utilization() > 0.0);
    }

    #[test]
    fn utilization_sweeps_overlapping_search_and_compute_lanes() {
        let mut tl = Timeline::new(ns(40.0));
        // Load [0,10). Compute lane [10,30). Search lane [14,18) overlaps
        // the MAC and [32,36) runs past it.
        tl.push(0, LOAD_LANE, Phase::LoadBlock, ns(0.0), ns(10.0), Some(0));
        tl.push(
            0,
            COMPUTE_LANE,
            Phase::MacGather,
            ns(10.0),
            ns(20.0),
            Some(0),
        );
        tl.push(0, SEARCH_LANE, Phase::CamSearch, ns(14.0), ns(4.0), Some(0));
        tl.push(0, SEARCH_LANE, Phase::CamSearch, ns(32.0), ns(4.0), Some(0));
        let u = UtilizationReport::from_timeline(&tl, 0.0);
        let b0 = u.bank(0).unwrap();
        // Duration sum keeps the overlapped search visible...
        assert_eq!(b0.compute_busy_ns, ns(28.0));
        // ...while the union dedups it: [10,30) ∪ [32,36) ∪ load [0,10).
        assert_eq!(b0.busy_ns, ns(34.0));
        // Load never overlaps the compute side here.
        assert_eq!(b0.overlap_ns, ns(0.0));
        // Per-phase fold still counts every interval once.
        let busy = u.phase_busy_ns;
        assert_eq!(busy[Phase::CamSearch.index()], ns(8.0));
        assert_eq!(busy[Phase::MacGather.index()], ns(20.0));
    }

    #[test]
    fn chrome_trace_labels_search_lane_with_distinct_tid() {
        let mut tl = Timeline::new(ns(20.0));
        tl.push(0, SEARCH_LANE, Phase::CamSearch, ns(0.0), ns(4.0), Some(0));
        tl.push(1, LOAD_LANE, Phase::LoadBlock, ns(0.0), ns(5.0), Some(1));
        let json = chrome_trace_json(&tl);
        assert!(json.contains("\"name\":\"bank 0 search\""));
        // Bank 0's search lane must not collide with bank 1's load lane.
        assert_ne!(tid_of(0, SEARCH_LANE), tid_of(1, LOAD_LANE));
    }

    #[test]
    fn union_handles_disjoint_nested_and_touching() {
        let iv = |ivs: &[(f64, f64)]| -> Vec<(Nanos, Nanos)> {
            ivs.iter().map(|&(s, e)| (ns(s), ns(e))).collect()
        };
        assert_eq!(union_ns(&[], &[]), Nanos::ZERO);
        assert_eq!(union_ns(&iv(&[(0.0, 2.0)]), &[]), ns(2.0));
        // Touching intervals merge seamlessly.
        assert_eq!(
            union_ns(&iv(&[(0.0, 2.0), (4.0, 6.0)]), &iv(&[(2.0, 4.0)])),
            ns(6.0)
        );
        // Nested intervals count once.
        assert_eq!(
            union_ns(&iv(&[(0.0, 10.0)]), &iv(&[(2.0, 3.0), (5.0, 6.0)])),
            ns(10.0)
        );
        // Disjoint.
        assert_eq!(union_ns(&iv(&[(0.0, 1.0)]), &iv(&[(5.0, 6.0)])), ns(2.0));
    }

    #[test]
    fn timeline_sink_buffers_intervals() {
        use crate::obs::Tracer;
        use std::sync::Arc;
        let sink = Arc::new(TimelineSink::new());
        let t = Tracer::with_sink(sink.clone());
        assert!(t.observes_intervals());
        assert!(!t.observes_spans());
        let iv = TimelineInterval {
            bank: 3,
            lane: COMPUTE_LANE,
            phase: Phase::MacGather,
            start_ns: ns(1.0),
            dur_ns: ns(30.0),
            block: Some(0),
        };
        t.emit_interval(&iv);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.snapshot()[0], iv);
        assert_eq!(sink.take(), vec![iv]);
        assert!(sink.is_empty());
    }

    #[test]
    fn chrome_trace_encoding_is_wellformed() {
        let mut tl = Timeline::new(ns(40.0));
        tl.push(
            CONTROLLER_BANK,
            LOAD_LANE,
            Phase::Sfu,
            ns(0.0),
            ns(2.0),
            None,
        );
        tl.push(0, LOAD_LANE, Phase::LoadBlock, ns(0.0), ns(10.0), Some(0));
        tl.push(
            0,
            COMPUTE_LANE,
            Phase::MacGather,
            ns(10.0),
            ns(30.0),
            Some(0),
        );
        let json = chrome_trace_json(&tl);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"controller\""));
        assert!(json.contains("\"name\":\"bank 0 load\""));
        assert!(json.contains("\"name\":\"mac_gather\""));
        // 30 ns -> 0.030000 us.
        assert!(json.contains("\"dur\":0.030000"), "{json}");
        // Balanced braces (no nested strings contain braces).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn interval_json_is_stable() {
        let iv = TimelineInterval {
            bank: 2,
            lane: 1,
            phase: Phase::CamSearch,
            start_ns: ns(12.5),
            dur_ns: ns(4.0),
            block: Some(7),
        };
        assert_eq!(
            interval_to_json(&iv),
            "{\"type\":\"interval\",\"bank\":2,\"lane\":1,\"phase\":\"cam_search\",\
             \"start_ns\":12.500,\"dur_ns\":4.000,\"block\":7}"
        );
    }
}
