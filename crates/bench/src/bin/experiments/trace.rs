//! The two trace tools: `trace_export` writes a bank-occupancy timeline
//! as Chrome trace-event JSON, and `trace_summary` replays a JSONL event
//! trace into per-phase and per-bank tables.

use std::fmt::Write;
use std::path::Path;

use gaasx_bench::experiments::BenchResult;
use gaasx_bench::trace::TraceSummary;
use gaasx_core::algorithms::PageRank;
use gaasx_core::{GaasX, GaasXConfig};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_sim::table::{count, Table};
use gaasx_sim::{chrome_trace_json, Timeline, TimelineSink, Tracer, CONTROLLER_BANK};

use crate::Ctx;

/// Structural sanity scan over the exported JSON: delimiters balance
/// outside string literals and the document is one object holding a
/// `traceEvents` array with at least one complete (`"ph":"X"`) event.
fn check_json(json: &str) -> Result<(), String> {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        if depth_obj < 0 || depth_arr < 0 {
            return Err("unbalanced delimiters (closed before open)".into());
        }
    }
    if in_string {
        return Err("unterminated string literal".into());
    }
    if depth_obj != 0 || depth_arr != 0 {
        return Err(format!(
            "unbalanced delimiters at end (objects {depth_obj:+}, arrays {depth_arr:+})"
        ));
    }
    if !json.contains("\"traceEvents\":[") {
        return Err("missing traceEvents array".into());
    }
    if !json.contains("\"ph\":\"X\"") {
        return Err("no complete (ph=X) events in trace".into());
    }
    Ok(())
}

/// Runs PageRank on one RMAT graph with a [`TimelineSink`] attached,
/// writes the recorded timeline to `--timeline-out` (default
/// `results/trace.json`; load it in Perfetto at <https://ui.perfetto.dev>
/// or in `chrome://tracing`), and renders the per-bank utilization table
/// derived from the same intervals. The written JSON must then pass a
/// structural scan (balanced delimiters, a `traceEvents` array, at least
/// one complete event).
///
/// `deep` switches to the 2048-row deep-bank geometry, where load and
/// compute overlap far less evenly.
pub fn export(cx: &mut Ctx, deep: bool) -> BenchResult<String> {
    let path = cx.s.timeline.as_deref();
    let path = path.unwrap_or(Path::new("results/trace.json"));
    let edges = cx.s.cap_or(8_000).min(60_000);
    let vertices = (edges / 8).clamp(64, 1 << 16).next_power_of_two();
    let graph = rmat(&RmatConfig::new(vertices as u32, edges).with_seed(7))?;

    let config = if deep {
        GaasXConfig::deep_bank()
    } else {
        GaasXConfig::paper()
    };
    let sink = std::sync::Arc::new(TimelineSink::new());
    let mut accel = GaasX::new(config).with_tracer(Tracer::with_sink(sink.clone()));
    let report = accel
        .run(&PageRank::fixed_iterations(cx.s.iters_or(3)), &graph)?
        .report;

    let timeline = Timeline::from_intervals(report.elapsed_ns, &sink.take());
    let json = chrome_trace_json(&timeline);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, &json)?;

    let util = report
        .utilization
        .as_ref()
        .expect("interval-observing sink attached, utilization must be present");
    let mut out = String::new();
    writeln!(
        out,
        "Timeline export — PageRank on RMAT (|V|={}, |E|={}), {} banks, {} intervals, \
         makespan {:.0} ns.",
        count(graph.num_vertices() as u64),
        count(graph.num_edges() as u64),
        util.banks
            .iter()
            .filter(|b| b.bank != CONTROLLER_BANK)
            .count(),
        timeline.len(),
        util.makespan_ns,
    )?;
    // With hundreds of banks a full table is noise: show the busiest 16
    // plus the controller row and say how many were elided.
    const TABLE_CAP: usize = 16;
    let mut shown: Vec<_> = util
        .banks
        .iter()
        .filter(|b| b.bank != CONTROLLER_BANK)
        .collect();
    shown.sort_by(|a, b| b.busy_ns.total_cmp(&a.busy_ns));
    let elided = shown.len().saturating_sub(TABLE_CAP);
    shown.truncate(TABLE_CAP);
    shown.sort_by_key(|b| b.bank);
    shown.extend(util.banks.iter().filter(|b| b.bank == CONTROLLER_BANK));
    let mut t = Table::new(&[
        "Bank",
        "Load busy (ns)",
        "Compute busy (ns)",
        "Overlap (ns)",
        "Utilization",
    ]);
    for b in shown {
        let label = if b.bank == CONTROLLER_BANK {
            "ctrl".to_string()
        } else {
            b.bank.to_string()
        };
        t.row_owned(vec![
            label,
            format!("{:.1}", b.load_busy_ns),
            format!("{:.1}", b.compute_busy_ns),
            format!("{:.1}", b.overlap_ns),
            format!("{:.1}%", 100.0 * b.utilization),
        ]);
    }
    writeln!(out, "{t}")?;
    if elided > 0 {
        writeln!(
            out,
            "({elided} less-busy banks elided; the trace JSON holds all of them.)"
        )?;
    }
    writeln!(
        out,
        "Mean utilization {:.1}%, critical bank {}, pipeline overlap {:.1}%.",
        100.0 * util.mean_utilization(),
        util.critical_bank
            .map_or("-".to_string(), |b| b.to_string()),
        100.0 * util.pipeline_overlap_ratio,
    )?;
    writeln!(
        out,
        "Wrote {} — load in Perfetto (ui.perfetto.dev).",
        path.display()
    )?;
    check_json(&json).map_err(|e| format!("trace JSON failed the sanity scan: {e}"))?;
    writeln!(out, "JSON sanity scan passed.")?;
    Ok(out)
}

/// Replays the JSONL event trace named by `--trace` (written by
/// `trace_demo` or any `JsonlSink`) into per-phase and per-bank
/// utilization tables.
pub fn summary(cx: &mut Ctx) -> BenchResult<String> {
    let path =
        cx.s.trace
            .as_deref()
            .ok_or("trace_summary reads the JSONL file named by --trace")?;
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("trace_summary: cannot read {}: {err}", path.display()))?;
    let summary = TraceSummary::parse(&text);
    if summary.spans.is_empty() && summary.skipped > 0 {
        return Err(format!(
            "trace_summary: no recognizable events in {}",
            path.display()
        )
        .into());
    }
    Ok(format!("Trace: {}\n\n{}", path.display(), summary.render()))
}
