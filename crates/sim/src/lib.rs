//! Cycle-level simulation kernel shared by the GaaS-X accelerator and its
//! PIM baselines.
//!
//! The kernel deliberately separates *what happened* from *what it cost*:
//! devices and accelerators record operation counts; this crate turns counts
//! into nanoseconds and nanojoules and renders them into comparable
//! reports. It provides:
//!
//! * [`EnergyBreakdown`] — per-component energy accounting,
//! * [`buffer::SramBuffer`] — CACTI-class on-chip SRAM access models for the
//!   paper's input/output/attribute buffers,
//! * [`Histogram`] — e.g. the rows-accumulated-per-MAC distribution behind
//!   Fig 13,
//! * [`pipeline`] — the two-stage load/compute overlap model of the shard
//!   streaming execution, and the wave schedule both accelerator engines
//!   dispatch their blocks with,
//! * [`obs`] — the tracing/metrics layer: phase spans, per-bank counters,
//!   and pluggable sinks (in-memory rollups or JSONL event streams),
//! * [`timeline`] — bank-occupancy timelines on the modeled time axis,
//!   per-bank [`UtilizationReport`]s, and Chrome-trace export,
//! * [`RunReport`] — the canonical result record each engine produces,
//! * [`table::Table`] — plain-text table rendering for the experiment
//!   binaries,
//! * [`stats`] — geometric means and summary helpers used across figures.

#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod energy;
pub mod histogram;
pub mod obs;
pub mod pipeline;
pub mod report;
pub mod stats;
pub mod table;
pub mod tenant;
pub mod timeline;
pub mod units;

pub use buffer::SramBuffer;
pub use energy::EnergyBreakdown;
pub use histogram::Histogram;
pub use obs::{
    attribute_makespan, AggregateSink, BankBreakdown, JsonlSink, MemorySink, MetricsRegistry,
    NullSink, Phase, PhaseBreakdown, Sink, SpanEvent, Tracer,
};
pub use report::{FaultReport, OpSummary, RunReport};
pub use tenant::{TenantLedger, TenantUsage};
pub use timeline::{
    chrome_trace_json, BankUtilization, Timeline, TimelineInterval, TimelineSink,
    UtilizationReport, CONTROLLER_BANK,
};
pub use units::{Nanojoules, Nanos, Picojoules};
