//! Pluggable span/metric sinks: discard, in-memory rollup, or JSONL.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use super::span::{counter_to_json, gauge_to_json, span_to_json};
use super::{BankBreakdown, Phase, PhaseBreakdown, SpanEvent};
use crate::timeline::{interval_to_json, TimelineInterval};
use crate::units::Nanos;

/// Receives every finished span (and, at flush, the metric snapshot).
///
/// Implementations must be cheap and thread-safe: engines may emit spans
/// from parallel sections (the CPU baseline does).
pub trait Sink: Send + Sync + fmt::Debug {
    /// Called once per finished span.
    fn on_span(&self, event: &SpanEvent);

    /// Called per counter at [`super::Tracer::flush`] time.
    fn on_counter(&self, _name: &str, _value: u64) {}

    /// Called per gauge at [`super::Tracer::flush`] time.
    fn on_gauge(&self, _name: &str, _value: f64) {}

    /// Called once per bank-occupancy interval when an engine emits its
    /// timeline at `finish` time (see [`crate::timeline`]).
    fn on_interval(&self, _interval: &TimelineInterval) {}

    /// Called at the end of a run; flush buffered output.
    fn flush(&self) {}

    /// `true` when this sink provably ignores every span. A tracer whose
    /// sinks are all null skips span construction entirely, so `on_span`
    /// is never reached — metrics still flow.
    fn observes_spans(&self) -> bool {
        true
    }

    /// `true` when this sink consumes timeline intervals. Engines only
    /// keep the per-operation ledger that timeline construction needs
    /// when some attached sink reports `true`, so interval-blind runs
    /// pay nothing.
    fn observes_intervals(&self) -> bool {
        false
    }
}

/// Discards everything. Attached when a caller wants the tracer *wired*
/// (metrics registry live) but not recording spans; the tracer detects it
/// via [`Sink::observes_spans`] and skips span emission up front, which is
/// what keeps a NullSink-traced run within a few percent of an
/// uninstrumented one; `gaasx-core`'s `zero_alloc` test pins that a warm
/// NullSink-traced sweep allocates nothing, as an untraced one does.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn on_span(&self, _event: &SpanEvent) {}

    fn observes_spans(&self) -> bool {
        false
    }
}

/// Atomic f64 accumulator (CAS over the bit pattern).
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn add(&self, delta: f64) {
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

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct PhaseAgg {
    busy_ns: AtomicF64,
    count: AtomicU64,
}

/// In-memory per-phase and per-bank rollups.
///
/// Per-phase totals are lock-free (atomics); per-bank totals take a
/// short mutex because the bank set is discovered dynamically.
#[derive(Debug, Default)]
pub struct AggregateSink {
    phases: [PhaseAgg; Phase::ALL.len()],
    banks: Mutex<Vec<(u32, f64, u64)>>,
}

impl AggregateSink {
    /// A fresh, empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-phase totals: `busy_ns` is the plain sum of span durations in
    /// that phase (nesting does not discount children), `count` the
    /// number of spans. `sched_ns` is zero — only an engine's `finish`
    /// can attribute makespan shares; see
    /// [`super::PhaseBreakdown::sched_ns`]. Phases with no spans are
    /// omitted.
    pub fn phase_rollup(&self) -> Vec<PhaseBreakdown> {
        Phase::ALL
            .into_iter()
            .filter_map(|phase| {
                let agg = &self.phases[phase.index()];
                let count = agg.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                Some(PhaseBreakdown {
                    phase,
                    sched_ns: Nanos::ZERO,
                    busy_ns: Nanos::from_ns(agg.busy_ns.get()),
                    count,
                })
            })
            .collect()
    }

    /// Per-bank totals over all spans carrying a bank id, sorted by bank.
    pub fn bank_rollup(&self) -> Vec<BankBreakdown> {
        let mut banks: Vec<BankBreakdown> = self
            .banks
            .lock()
            .iter()
            .map(|&(bank, busy_ns, count)| BankBreakdown {
                bank,
                busy_ns: Nanos::from_ns(busy_ns),
                count,
            })
            .collect();
        banks.sort_by_key(|b| b.bank);
        banks
    }

    /// Total busy time across every phase.
    pub fn total_busy_ns(&self) -> Nanos {
        Nanos::from_ns(self.phases.iter().map(|p| p.busy_ns.get()).sum())
    }
}

impl Sink for AggregateSink {
    fn on_span(&self, event: &SpanEvent) {
        let agg = &self.phases[event.phase.index()];
        agg.busy_ns.add(event.dur_ns);
        agg.count.fetch_add(1, Ordering::Relaxed);
        if let Some(bank) = event.bank {
            let mut banks = self.banks.lock();
            match banks.iter_mut().find(|(b, _, _)| *b == bank) {
                Some(entry) => {
                    entry.1 += event.dur_ns;
                    entry.2 += 1;
                }
                None => banks.push((bank, event.dur_ns, 1)),
            }
        }
    }
}

/// Buffers every span in memory, in arrival order.
///
/// The sharded execution layer attaches one `MemorySink` per worker
/// engine: workers record spans on their private functional time axes,
/// and at merge time the primary engine drains each buffer (worker order,
/// so the merged stream is deterministic) and replays the events into its
/// own sinks via [`super::Tracer::replay_span`].
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<SpanEvent>>,
}

impl MemorySink {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the buffered spans in arrival order.
    pub fn take_events(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl Sink for MemorySink {
    fn on_span(&self, event: &SpanEvent) {
        self.events.lock().push(event.clone());
    }
}

/// Streams one JSON object per event to a writer (JSON Lines).
///
/// The format is hand-rolled (the workspace's serde is an offline shim —
/// see `shims/README.md`): `span`, `counter`, `gauge`, and `interval`
/// records as emitted by `span_to_json` and friends. Decoded by the
/// `trace_summary` entry of `gaasx-bench`'s `experiments` binary.
///
/// A full disk mid-trace must not abort a simulation, so write errors do
/// not propagate from the `Sink` callbacks; instead the first error is
/// retained ([`JsonlSink::take_error`]) and lost lines are counted
/// ([`JsonlSink::dropped_lines`]). Dropping the sink flushes the buffered
/// writer, so a trace file is complete without an explicit
/// `Tracer::flush`; if events were lost, the drop prints a warning to
/// stderr rather than discarding them silently.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    io_error: Mutex<Option<io::Error>>,
    dropped: AtomicU64,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Streams to an arbitrary writer.
    pub fn to_writer(writer: impl Write + Send + 'static) -> Self {
        JsonlSink {
            out: Mutex::new(Box::new(writer)),
            io_error: Mutex::new(None),
            dropped: AtomicU64::new(0),
        }
    }

    /// Creates (truncating) a trace file with a buffered writer.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::to_writer(BufWriter::new(File::create(path)?)))
    }

    /// Takes the first I/O error hit while writing or flushing, if any.
    pub fn take_error(&self) -> Option<io::Error> {
        self.io_error.lock().take()
    }

    /// Number of event lines lost to write errors so far.
    pub fn dropped_lines(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn record_error(&self, err: io::Error) {
        let mut slot = self.io_error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock();
        if let Err(err) = writeln!(out, "{line}") {
            // Keep simulating on a full disk; surface the loss instead
            // of aborting (or worse, hiding it).
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.record_error(err);
        }
    }
}

impl Sink for JsonlSink {
    fn on_span(&self, event: &SpanEvent) {
        self.write_line(&span_to_json(event));
    }

    fn on_counter(&self, name: &str, value: u64) {
        self.write_line(&counter_to_json(name, value));
    }

    fn on_gauge(&self, name: &str, value: f64) {
        self.write_line(&gauge_to_json(name, value));
    }

    fn on_interval(&self, interval: &TimelineInterval) {
        self.write_line(&interval_to_json(interval));
    }

    fn observes_intervals(&self) -> bool {
        true
    }

    fn flush(&self) {
        if let Err(err) = self.out.lock().flush() {
            self.record_error(err);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
        let dropped = self.dropped.load(Ordering::Relaxed);
        if let Some(err) = self.io_error.lock().as_ref() {
            eprintln!("warning: JSONL trace incomplete ({dropped} line(s) dropped): {err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::super::Tracer;
    use super::*;

    #[test]
    fn aggregate_rolls_up_phases_and_banks() {
        let agg = Arc::new(AggregateSink::new());
        let t = Tracer::with_sink(agg.clone());
        t.emit(Phase::CamSearch, 0.0, 2.0);
        t.emit(Phase::CamSearch, 2.0, 3.0);
        t.span(Phase::Dispatch, 0.0).bank(1).end(4.0);
        t.span(Phase::Dispatch, 4.0).bank(1).end(6.0);
        t.span(Phase::Dispatch, 0.0).bank(7).end(5.0);

        let phases = agg.phase_rollup();
        assert_eq!(phases.len(), 2);
        let cam = phases.iter().find(|p| p.phase == Phase::CamSearch).unwrap();
        assert!((cam.busy_ns.ns() - 5.0).abs() < 1e-12);
        assert_eq!(cam.count, 2);

        let banks = agg.bank_rollup();
        assert_eq!(banks.len(), 2);
        assert_eq!(banks[0].bank, 1);
        assert!((banks[0].busy_ns.ns() - 6.0).abs() < 1e-12);
        assert_eq!(banks[0].count, 2);
        assert_eq!(banks[1].bank, 7);
        assert!((agg.total_busy_ns().ns() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = Arc::new(JsonlSink::to_writer(SharedBuf(buf.clone())));
        let t = Tracer::with_sink(sink);
        t.emit(Phase::LoadBlock, 0.0, 8.0);
        t.span(Phase::MacGather, 8.0)
            .bank(0)
            .attr("rows", 4u64)
            .end(9.0);
        t.counter_add("mac_ops", 1);
        t.flush();

        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"phase\":\"load_block\""));
        assert!(lines[1].contains("\"bank\":0"));
        assert!(lines[1].contains("\"rows\":4"));
        assert!(lines[2].contains("\"type\":\"counter\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn memory_sink_buffers_and_drains_in_order() {
        let mem = Arc::new(MemorySink::new());
        let t = Tracer::with_sink(mem.clone());
        t.emit(Phase::CamSearch, 0.0, 4.0);
        t.span(Phase::MacGather, 4.0).bank(2).end(34.0);
        assert_eq!(mem.len(), 2);
        let events = mem.take_events();
        assert_eq!(events[0].phase, Phase::CamSearch);
        assert_eq!(events[1].phase, Phase::MacGather);
        assert_eq!(events[1].bank, Some(2));
        assert!(mem.is_empty());
        // Replaying into another tracer preserves phase/timing payloads.
        let agg = Arc::new(AggregateSink::new());
        let target = Tracer::with_sink(agg.clone());
        for e in &events {
            target.replay_span(e);
        }
        assert!((agg.total_busy_ns().ns() - 34.0).abs() < 1e-12);
        assert_eq!(agg.bank_rollup().len(), 1);
    }

    #[test]
    fn dropped_jsonl_sink_leaves_a_complete_parseable_file() {
        let path = std::env::temp_dir().join(format!(
            "gaasx_jsonl_drop_flush_{}.jsonl",
            std::process::id()
        ));
        {
            let sink = Arc::new(JsonlSink::create(&path).unwrap());
            let t = Tracer::with_sink(sink);
            for i in 0..64 {
                t.emit(Phase::CamSearch, i as f64, 4.0);
            }
            t.counter_add("cam_searches", 64);
            // No Tracer::flush: the trailing events sit in the BufWriter
            // and only the sink's Drop can save them.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 64);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors_and_counts_losses() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _data: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = Arc::new(JsonlSink::to_writer(FailingWriter));
        let t = Tracer::with_sink(sink.clone());
        for i in 0..5 {
            t.emit(Phase::Sfu, i as f64, 1.0);
        }
        assert_eq!(sink.dropped_lines(), 5);
        let err = sink.take_error().expect("first error is retained");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(sink.take_error().is_none(), "take_error drains the slot");
    }

    #[test]
    fn jsonl_sink_streams_intervals() {
        use crate::timeline::{TimelineInterval, COMPUTE_LANE};
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = Arc::new(JsonlSink::to_writer(SharedBuf(buf.clone())));
        assert!(sink.observes_intervals());
        let t = Tracer::with_sink(sink);
        t.emit_interval(&TimelineInterval {
            bank: 1,
            lane: COMPUTE_LANE,
            phase: Phase::MacGather,
            start_ns: Nanos::ZERO,
            dur_ns: Nanos::from_ns(30.0),
            block: Some(0),
        });
        t.flush();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert!(text.contains("\"type\":\"interval\""));
        assert!(text.contains("\"phase\":\"mac_gather\""));
    }

    #[test]
    fn null_sink_accepts_everything() {
        let t = Tracer::with_sink(Arc::new(NullSink));
        t.emit(Phase::Init, 0.0, 1.0);
        t.counter_add("mac_ops", 2);
        t.flush();
        assert!(t.enabled());
        assert_eq!(t.metrics().unwrap().counter("mac_ops").get(), 2);
    }
}
