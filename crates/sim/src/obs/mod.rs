//! In-tree tracing and metrics: phase spans, per-bank counters, and
//! pluggable event sinks.
//!
//! Every engine in the workspace (the GaaS-X accelerator, the GraphR
//! baseline, the CPU GridGraph baseline) threads a [`Tracer`] through its
//! execution. The tracer emits:
//!
//! * **phase spans** ([`SpanEvent`]) — one per modeled operation, tagged
//!   with a [`Phase`], a start/duration on the engine's *modeled* time
//!   axis (wall-clock for the CPU baseline), an optional bank id, and
//!   free-form attributes;
//! * **named metrics** ([`MetricsRegistry`]) — lock-free counters and
//!   gauges (atomics) plus mutex-guarded histograms, which the engines
//!   feed with the same tallies that build [`crate::OpSummary`].
//!
//! Spans flow to any number of [`Sink`]s: [`NullSink`] discards
//! (near-zero overhead — the default when tracing is off is an entirely
//! disabled tracer, which is cheaper still), [`AggregateSink`] keeps
//! per-phase/per-bank rollups in memory, and [`JsonlSink`] streams one
//! JSON object per event to a writer for offline analysis (see the
//! `trace_summary` entry of `gaasx-bench`'s `experiments` binary).
//!
//! ## Time axes and the two totals
//!
//! A span's `start_ns`/`dur_ns` live on the engine's *functional* time
//! axis: operations are laid end to end as they execute, ignoring bank
//! parallelism. Summing span durations per phase therefore gives **busy
//! time** (`busy_ns`), which can far exceed the reported end-to-end
//! latency on a 2048-bank device. The engine separately attributes its
//! scheduled makespan to phases at `finish` time (**`sched_ns`**, see
//! [`PhaseBreakdown`]); those shares sum exactly to the run's
//! `elapsed_ns`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::histogram::Histogram;
use crate::report::OpSummary;
use crate::units::Nanos;

mod sink;
mod span;

pub use sink::{AggregateSink, JsonlSink, MemorySink, NullSink, Sink};
pub use span::{AttrValue, SpanEvent, SpanHandle};

/// Execution phase a span or counter belongs to.
///
/// The five pipeline phases mirror the paper's §III-B execution model;
/// [`Phase::Dispatch`] tags scheduler dispatch events (one per block,
/// carrying the bank id), and [`Phase::Init`] covers setup work outside
/// the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Setup outside the block pipeline (graph prep, buffer init).
    Init,
    /// Streaming a block/tile in and programming its crossbar rows.
    LoadBlock,
    /// CAM content searches locating active rows.
    CamSearch,
    /// Analog MAC accumulation in the gather direction.
    MacGather,
    /// Analog MAC accumulation in the propagate/scatter direction.
    MacPropagate,
    /// Scalar SFU arithmetic (apply/update steps).
    Sfu,
    /// Scheduler dispatch of a block to a bank.
    Dispatch,
}

impl Phase {
    /// All phases, in canonical display order.
    pub const ALL: [Phase; 7] = [
        Phase::Init,
        Phase::LoadBlock,
        Phase::CamSearch,
        Phase::MacGather,
        Phase::MacPropagate,
        Phase::Sfu,
        Phase::Dispatch,
    ];

    /// Stable snake_case name (also the JSONL encoding).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::LoadBlock => "load_block",
            Phase::CamSearch => "cam_search",
            Phase::MacGather => "mac_gather",
            Phase::MacPropagate => "mac_propagate",
            Phase::Sfu => "sfu",
            Phase::Dispatch => "dispatch",
        }
    }

    /// Parses the stable name back into a phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Dense index into [`Phase::ALL`].
    pub fn index(self) -> usize {
        match self {
            Phase::Init => 0,
            Phase::LoadBlock => 1,
            Phase::CamSearch => 2,
            Phase::MacGather => 3,
            Phase::MacPropagate => 4,
            Phase::Sfu => 5,
            Phase::Dispatch => 6,
        }
    }
}

/// Per-phase share of one run, attached to [`crate::RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// The phase.
    pub phase: Phase,
    /// Share of the end-to-end makespan attributed to this phase.
    /// Summed over all entries this equals the report's `elapsed_ns`.
    pub sched_ns: Nanos,
    /// Total busy time summed over all units/spans (exceeds `sched_ns`
    /// whenever banks work in parallel).
    pub busy_ns: Nanos,
    /// Number of operations (spans) in this phase.
    pub count: u64,
}

/// Per-bank rollup derived from dispatch/banked spans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankBreakdown {
    /// Bank id.
    pub bank: u32,
    /// Total busy time on this bank.
    pub busy_ns: Nanos,
    /// Blocks dispatched to this bank.
    pub count: u64,
}

/// A monotone counter (atomic; safe to share across threads).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float gauge (atomic f64 bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (compare-and-swap loop over the f64 bits).
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A named, shared, mutex-guarded histogram slot in the registry.
pub type SharedHistogram = Arc<Mutex<Histogram>>;

/// A registry of named counters, gauges, and histograms.
///
/// Counters and gauges are atomics behind an `RwLock`ed name table (the
/// lock is only taken to *find or create* a metric; updates through the
/// returned `Arc` are lock-free). Histograms take a mutex per update.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<Vec<(&'static str, Arc<Counter>)>>,
    gauges: RwLock<Vec<(&'static str, Arc<Gauge>)>>,
    histograms: RwLock<Vec<(&'static str, SharedHistogram)>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds or creates the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some((_, c)) = self.counters.read().iter().find(|(n, _)| *n == name) {
            return Arc::clone(c);
        }
        let mut table = self.counters.write();
        if let Some((_, c)) = table.iter().find(|(n, _)| *n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        table.push((name, Arc::clone(&c)));
        c
    }

    /// Finds or creates the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        if let Some((_, g)) = self.gauges.read().iter().find(|(n, _)| *n == name) {
            return Arc::clone(g);
        }
        let mut table = self.gauges.write();
        if let Some((_, g)) = table.iter().find(|(n, _)| *n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        table.push((name, Arc::clone(&g)));
        g
    }

    /// Finds or creates the histogram `name` (16 one-based buckets, the
    /// Fig 13 convention).
    pub fn histogram(&self, name: &'static str) -> Arc<Mutex<Histogram>> {
        if let Some((_, h)) = self.histograms.read().iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let mut table = self.histograms.write();
        if let Some((_, h)) = table.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Mutex::new(Histogram::new(16)));
        table.push((name, Arc::clone(&h)));
        h
    }

    /// Snapshot of all counters as `(name, value)` in creation order.
    pub fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .read()
            .iter()
            .map(|(n, c)| (*n, c.get()))
            .collect()
    }

    /// Snapshot of all gauges as `(name, value)` in creation order.
    pub fn gauge_snapshot(&self) -> Vec<(&'static str, f64)> {
        self.gauges
            .read()
            .iter()
            .map(|(n, g)| (*n, g.get()))
            .collect()
    }

    /// Publishes every field of an [`OpSummary`] as a counter (the
    /// canonical names `mac_ops`, `cam_searches`, `cells_written`,
    /// `row_writes`, `verify_reads`, `sfu_ops`, `buffer_accesses`,
    /// `compute_items`).
    pub fn publish_op_summary(&self, ops: &OpSummary) {
        self.counter("mac_ops").add(ops.mac_ops);
        self.counter("cam_searches").add(ops.cam_searches);
        self.counter("cells_written").add(ops.cells_written);
        self.counter("row_writes").add(ops.row_writes);
        self.counter("verify_reads").add(ops.verify_reads);
        self.counter("sfu_ops").add(ops.sfu_ops);
        self.counter("buffer_accesses").add(ops.buffer_accesses);
        self.counter("compute_items").add(ops.compute_items);
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the other registry's value (last write wins, matching how a
    /// worker's final gauge would have landed had it written here
    /// directly), histograms merge bucket-wise (lossless — see
    /// [`Histogram::merge`]). The sharded execution layer uses this to
    /// fold worker-tracer metrics into the primary's registry so nothing
    /// recorded on a worker is dropped at merge time.
    ///
    /// `other` must be a different registry; merging a registry into
    /// itself would deadlock on the histogram mutexes.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        for &(name, ref c) in other.counters.read().iter() {
            self.counter(name).add(c.get());
        }
        for &(name, ref g) in other.gauges.read().iter() {
            self.gauge(name).set(g.get());
        }
        for &(name, ref h) in other.histograms.read().iter() {
            self.histogram(name).lock().merge(&h.lock());
        }
    }

    /// Reassembles an [`OpSummary`] from the canonical counters (zero for
    /// any counter never touched).
    pub fn op_summary(&self) -> OpSummary {
        let get = |name: &str| {
            self.counters
                .read()
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, c)| c.get())
        };
        OpSummary {
            mac_ops: get("mac_ops"),
            cam_searches: get("cam_searches"),
            cells_written: get("cells_written"),
            row_writes: get("row_writes"),
            verify_reads: get("verify_reads"),
            sfu_ops: get("sfu_ops"),
            buffer_accesses: get("buffer_accesses"),
            compute_items: get("compute_items"),
        }
    }
}

/// Proportionally attributes a scheduled makespan to phases.
///
/// `busy` lists `(phase, busy_ns, op_count)` tallies; entries that saw
/// neither busy time nor operations are dropped. Each surviving phase
/// receives a `sched_ns` share proportional to its busy time (an even
/// split if no busy time was recorded at all), and the last nonzero share
/// is then adjusted so the shares sum to `makespan_ns` **exactly** — which
/// is what makes [`crate::RunReport::phases_total_sched_ns`] equal
/// `elapsed_ns` bit-for-bit rather than merely approximately. In the rare
/// case that no value of the last share lands the sum exactly, an earlier
/// nonzero share is pinned instead.
pub fn attribute_makespan(makespan_ns: Nanos, busy: &[(Phase, Nanos, u64)]) -> Vec<PhaseBreakdown> {
    let total: Nanos = busy.iter().map(|&(_, ns, _)| ns.max(Nanos::ZERO)).sum();
    let mut out: Vec<PhaseBreakdown> = busy
        .iter()
        .filter(|&&(_, ns, count)| ns > Nanos::ZERO || count > 0)
        .map(|&(phase, ns, count)| PhaseBreakdown {
            phase,
            sched_ns: if total > Nanos::ZERO {
                // Raw f64 keeps the historical `(makespan * busy) / total`
                // evaluation order; `makespan * (busy / total)` rounds
                // differently and would break report bit-identity. It
                // only serves when the product overflows a finite
                // makespan.
                let busy = ns.max(Nanos::ZERO).ns();
                let share = makespan_ns.ns() * busy / total.ns();
                Nanos::from_ns(if share.is_finite() || !makespan_ns.is_finite() {
                    share
                } else {
                    makespan_ns.ns() * (busy / total.ns())
                })
            } else {
                Nanos::ZERO
            },
            busy_ns: ns.max(Nanos::ZERO),
            count,
        })
        .collect();
    if out.is_empty() {
        return out;
    }
    if total <= Nanos::ZERO {
        let even = makespan_ns / out.len() as f64;
        for p in &mut out {
            p.sched_ns = even;
        }
    }
    // Pin a share so the sum is exact, not within rounding — against the
    // same left-to-right summation order `phases_total_sched_ns` uses
    // (float addition does not re-associate). The pinned share must be
    // the *last* nonzero one: any trailing additions are then `+0.0`
    // (exact), so the correction suffers a single rounding and one-ulp
    // steps cannot straddle the target the way a mid-stream adjustment
    // can (where one input ulp may move the re-summed total by two).
    let pinned = out
        .iter()
        .rposition(|p| p.sched_ns > Nanos::ZERO)
        .unwrap_or(out.len() - 1);
    let proportional = out[pinned].sched_ns;
    // Shares are non-negative finite, so stepping one ulp is a bit bump.
    let ulp_up = |x: Nanos| Nanos::from_ns(f64::from_bits(x.ns().to_bits() + 1));
    let ulp_down = |x: Nanos| {
        if x <= Nanos::ZERO {
            Nanos::ZERO
        } else {
            Nanos::from_ns(f64::from_bits(x.ns().to_bits() - 1))
        }
    };
    for _ in 0..64 {
        let total = sum_shares(&out);
        if total == makespan_ns {
            return out;
        }
        let cur = out[pinned].sched_ns;
        let mut next = (cur + (makespan_ns - total)).max(Nanos::ZERO);
        if next == cur {
            // The residue is below one ulp of the share; step directly.
            next = if total < makespan_ns {
                ulp_up(cur)
            } else {
                ulp_down(cur)
            };
        }
        if next == cur {
            break;
        }
        out[pinned].sched_ns = next;
    }
    if sum_shares(&out) != makespan_ns {
        out[pinned].sched_ns = proportional;
        pin_exactly(&mut out, makespan_ns);
    }
    out
}

/// Left-to-right sum of the shares — the order
/// [`crate::RunReport::phases_total_sched_ns`] adds them in.
fn sum_shares(shares: &[PhaseBreakdown]) -> Nanos {
    shares.iter().map(|p| p.sched_ns).sum()
}

/// Fallback of [`attribute_makespan`] for when its steps straddle the
/// target: if the partial sum before the pin is finer-grained than the
/// makespan, every candidate sum may fall on a rounding tie, and ties
/// round to even on both sides of an odd makespan. Pins each nonzero
/// share in turn, from the last to the first, and tries the few ulps
/// either side of its closed-form value `makespan − Σ(other shares)`;
/// keeps the first that lands the sum exactly. When none does the
/// shares stay proportional.
fn pin_exactly(shares: &mut [PhaseBreakdown], makespan_ns: Nanos) {
    const REACH: i64 = 4;
    for i in (0..shares.len()).rev() {
        let share = shares[i].sched_ns;
        if share <= Nanos::ZERO {
            continue;
        }
        shares[i].sched_ns = Nanos::ZERO;
        let estimate = (makespan_ns - sum_shares(shares))
            .max(Nanos::ZERO)
            .ns()
            .to_bits();
        for step in (0..=2 * REACH).map(|k| if k % 2 == 0 { k / 2 } else { -(k + 1) / 2 }) {
            let Some(bits) = estimate.checked_add_signed(step) else {
                continue;
            };
            shares[i].sched_ns = Nanos::from_ns(f64::from_bits(bits));
            if sum_shares(shares) == makespan_ns {
                return;
            }
        }
        shares[i].sched_ns = share;
    }
}

#[derive(Debug)]
struct TracerInner {
    sinks: Vec<Arc<dyn Sink>>,
    /// Any sink actually consumes spans ([`Sink::observes_spans`]); when
    /// false, `span`/`emit` return before building an event.
    spans_active: bool,
    /// Any sink consumes timeline intervals
    /// ([`Sink::observes_intervals`]); when false, engines skip the
    /// per-operation ledger entirely.
    intervals_active: bool,
    seq: AtomicU64,
    open: Mutex<Vec<u64>>,
    metrics: MetricsRegistry,
}

/// Handle through which engines emit spans and metrics.
///
/// Cloning is cheap (an `Arc` bump). The default tracer is *disabled*:
/// every call is a branch on a `None` and nothing allocates, so
/// uninstrumented runs pay effectively nothing.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A disabled tracer (no sinks, no metrics; all calls are no-ops).
    pub fn null() -> Self {
        Tracer::default()
    }

    /// A tracer fanning out to the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        let spans_active = sinks.iter().any(|s| s.observes_spans());
        let intervals_active = sinks.iter().any(|s| s.observes_intervals());
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sinks,
                spans_active,
                intervals_active,
                seq: AtomicU64::new(0),
                open: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// A tracer with a single sink.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Tracer::new(vec![sink])
    }

    /// `true` when spans/metrics are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` when at least one sink actually consumes spans. A sharded
    /// run uses this to skip buffering worker spans that the primary's
    /// sinks would discard anyway.
    pub fn observes_spans(&self) -> bool {
        self.inner
            .as_deref()
            .is_some_and(|inner| inner.spans_active)
    }

    /// `true` when at least one sink consumes timeline intervals. Engines
    /// gate their per-operation timeline ledger on this so
    /// interval-blind runs (disabled tracer, [`NullSink`], pure metrics)
    /// skip the bookkeeping entirely.
    pub fn observes_intervals(&self) -> bool {
        self.inner
            .as_deref()
            .is_some_and(|inner| inner.intervals_active)
    }

    /// Fans one timeline interval out to the interval-observing sinks
    /// (no-op unless [`Tracer::observes_intervals`]). Engines call this
    /// once per interval while emitting the built timeline at `finish`.
    pub fn emit_interval(&self, interval: &crate::timeline::TimelineInterval) {
        if let Some(inner) = &self.inner {
            if !inner.intervals_active {
                return;
            }
            for sink in &inner.sinks {
                sink.on_interval(interval);
            }
        }
    }

    /// Re-emits a span captured elsewhere (typically from a worker
    /// engine's [`MemorySink`]) into this tracer's sinks. The event keeps
    /// its phase, timing, bank, and attributes but receives a fresh
    /// sequence number on this tracer, and drops any parent link — replay
    /// is a flat stream, worker-side nesting does not transfer.
    pub fn replay_span(&self, event: &SpanEvent) {
        if let Some(inner) = &self.inner {
            if !inner.spans_active {
                return;
            }
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            let replayed = SpanEvent {
                seq,
                parent: None,
                ..event.clone()
            };
            for sink in &inner.sinks {
                sink.on_span(&replayed);
            }
        }
    }

    /// Opens a span for `phase` starting at `start_ns` on the engine's
    /// modeled time axis. Chain [`SpanHandle::attr`]/[`SpanHandle::bank`]
    /// and finish with [`SpanHandle::end`]; a dropped-unended span is
    /// discarded.
    pub fn span(&self, phase: Phase, start_ns: f64) -> SpanHandle {
        match &self.inner {
            None => SpanHandle::disabled(),
            Some(inner) if !inner.spans_active => SpanHandle::disabled(),
            Some(inner) => {
                let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
                let parent = {
                    let mut open = inner.open.lock();
                    let parent = open.last().copied();
                    open.push(seq);
                    parent
                };
                SpanHandle::open(Arc::clone(inner), phase, start_ns, seq, parent)
            }
        }
    }

    /// Emits a closed span in one call — the fast path for leaf operations
    /// that never nest (no open-stack push/pop, no handle).
    pub fn emit(&self, phase: Phase, start_ns: f64, dur_ns: f64) {
        if let Some(inner) = &self.inner {
            if !inner.spans_active {
                return;
            }
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            let parent = inner.open.lock().last().copied();
            let event = SpanEvent {
                seq,
                parent,
                phase,
                start_ns,
                dur_ns: dur_ns.max(0.0),
                bank: None,
                attrs: Vec::new(),
            };
            for sink in &inner.sinks {
                sink.on_span(&event);
            }
        }
    }

    /// The metrics registry, if the tracer is enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|inner| &inner.metrics)
    }

    /// Adds `n` to counter `name` (no-op when disabled).
    pub fn counter_add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter(name).add(n);
        }
    }

    /// Sets gauge `name` (no-op when disabled).
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge(name).set(value);
        }
    }

    /// Records `value` into histogram `name` (no-op when disabled).
    pub fn histogram_record(&self, name: &'static str, value: usize) {
        if let Some(inner) = &self.inner {
            inner.metrics.histogram(name).lock().record(value);
        }
    }

    /// Pushes the current metric snapshot to every sink and flushes
    /// buffered output (call once per run, at `finish`).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            let counters = inner.metrics.counter_snapshot();
            let gauges = inner.metrics.gauge_snapshot();
            for sink in &inner.sinks {
                for &(name, value) in &counters {
                    sink.on_counter(name, value);
                }
                for &(name, value) in &gauges {
                    sink.on_gauge(name, value);
                }
                sink.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
            assert_eq!(Phase::ALL[phase.index()], phase);
        }
        assert_eq!(Phase::from_name("bogus"), None);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::null();
        assert!(!t.enabled());
        t.span(Phase::Sfu, 0.0).attr("k", 1u64).bank(3).end(5.0);
        t.counter_add("mac_ops", 5);
        t.flush();
        assert!(t.metrics().is_none());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("mac_ops");
        c.add(3);
        reg.counter("mac_ops").inc();
        assert_eq!(reg.counter("mac_ops").get(), 4);
        let g = reg.gauge("util");
        g.set(0.5);
        g.add(0.25);
        assert!((reg.gauge("util").get() - 0.75).abs() < 1e-12);
        reg.histogram("rows").lock().record(3);
        assert_eq!(reg.histogram("rows").lock().total(), 1);
    }

    #[test]
    fn op_summary_round_trips_through_registry() {
        let reg = MetricsRegistry::new();
        let ops = OpSummary {
            mac_ops: 7,
            cam_searches: 5,
            cells_written: 100,
            row_writes: 10,
            verify_reads: 6,
            sfu_ops: 3,
            buffer_accesses: 42,
            compute_items: 99,
        };
        reg.publish_op_summary(&ops);
        assert_eq!(reg.op_summary(), ops);
        // Publishing again accumulates.
        reg.publish_op_summary(&ops);
        assert_eq!(reg.op_summary().mac_ops, 14);
    }

    #[test]
    fn attribution_sums_exactly_and_drops_idle_phases() {
        let makespan = Nanos::from_ns(1234.567);
        let busy = [
            (Phase::LoadBlock, Nanos::from_ns(300.0), 10),
            (Phase::CamSearch, Nanos::from_ns(0.1), 3),
            (Phase::MacGather, Nanos::from_ns(7000.0), 99),
            (Phase::Sfu, Nanos::ZERO, 0), // idle: dropped
        ];
        let phases = attribute_makespan(makespan, &busy);
        assert_eq!(phases.len(), 3);
        let sum: Nanos = phases.iter().map(|p| p.sched_ns).sum();
        assert_eq!(sum, makespan, "shares must sum exactly");
        // Shares order like busy times.
        assert!(phases[2].sched_ns > phases[0].sched_ns);
        assert!(phases[0].sched_ns > phases[1].sched_ns);
        assert_eq!(phases[2].count, 99);
    }

    #[test]
    fn attribution_handles_degenerate_inputs() {
        let ns = Nanos::from_ns;
        assert!(attribute_makespan(ns(10.0), &[]).is_empty());
        assert!(attribute_makespan(ns(10.0), &[(Phase::Sfu, Nanos::ZERO, 0)]).is_empty());
        // Counted ops without busy time split the makespan evenly.
        let phases = attribute_makespan(
            ns(10.0),
            &[
                (Phase::Sfu, Nanos::ZERO, 4),
                (Phase::CamSearch, Nanos::ZERO, 1),
            ],
        );
        let sum: Nanos = phases.iter().map(|p| p.sched_ns).sum();
        assert_eq!(sum, ns(10.0));
        // Zero makespan yields zero shares.
        let z = attribute_makespan(Nanos::ZERO, &[(Phase::Sfu, ns(5.0), 1)]);
        assert_eq!(z[0].sched_ns, Nanos::ZERO);
        assert_eq!(z[0].busy_ns, ns(5.0));
    }

    #[test]
    fn registry_merge_is_lossless() {
        let whole = MetricsRegistry::new();
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        // The same value stream split across two workers vs recorded in
        // one registry: merged quantiles must match the whole-run ones.
        for v in 1..=64usize {
            let value = (v % 16).max(1);
            let shard = if v % 2 == 0 { &a } else { &b };
            shard.histogram("rows_per_mac").lock().record(value);
            whole.histogram("rows_per_mac").lock().record(value);
        }
        a.counter("mac_ops").add(10);
        b.counter("mac_ops").add(5);
        a.gauge("elapsed_ns").set(1.0);
        b.gauge("elapsed_ns").set(2.0);

        let merged = MetricsRegistry::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.counter("mac_ops").get(), 15);
        assert!((merged.gauge("elapsed_ns").get() - 2.0).abs() < 1e-12);
        let m = merged.histogram("rows_per_mac");
        let w = whole.histogram("rows_per_mac");
        assert_eq!(*m.lock(), *w.lock(), "bucket-wise identical");
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                m.lock().value_at_quantile(q),
                w.lock().value_at_quantile(q),
                "quantile {q} differs after merge"
            );
        }
    }

    #[test]
    fn null_sink_tracer_skips_spans_but_keeps_metrics() {
        let t = Tracer::with_sink(Arc::new(NullSink));
        assert!(t.enabled());
        t.emit(Phase::MacGather, 0.0, 5.0);
        t.span(Phase::LoadBlock, 0.0).attr("k", 1u64).end(2.0);
        t.counter_add("mac_ops", 3);
        // No sequence numbers were consumed: emission short-circuited.
        let probe = Tracer::new(vec![Arc::new(NullSink), Arc::new(AggregateSink::new())]);
        probe.emit(Phase::Sfu, 0.0, 1.0); // mixed sinks stay active
        assert_eq!(t.metrics().unwrap().op_summary().mac_ops, 3);
        t.flush();
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let agg = Arc::new(AggregateSink::new());
        let t = Tracer::with_sink(agg.clone());
        let outer = t.span(Phase::LoadBlock, 0.0);
        t.span(Phase::CamSearch, 1.0).end(2.0);
        outer.end(10.0);
        let phases = agg.phase_rollup();
        let load = phases.iter().find(|p| p.phase == Phase::LoadBlock).unwrap();
        assert!((load.busy_ns.ns() - 10.0).abs() < 1e-12);
        assert_eq!(load.count, 1);
        let cam = phases.iter().find(|p| p.phase == Phase::CamSearch).unwrap();
        assert!((cam.busy_ns.ns() - 1.0).abs() < 1e-12);
    }
}
