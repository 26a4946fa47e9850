//! Regenerates the tracing demo: PageRank per-phase breakdown on one
//! RMAT graph, GaaS-X vs GraphR. An optional first path argument streams
//! the GaaS-X run's JSONL events there; an optional `--timeline-out
//! <path>` writes the run's bank-occupancy timeline as Chrome
//! trace-event JSON (load in Perfetto or `chrome://tracing`).

#![allow(clippy::unwrap_used)]
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace = None;
    let mut timeline = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timeline-out" => {
                timeline = Some(PathBuf::from(
                    args.next()
                        .ok_or("--timeline-out requires a path argument")?,
                ));
            }
            other => trace = Some(PathBuf::from(other)),
        }
    }
    // `print!`: the rendered table already ends in a newline, so stdout is
    // byte-equal to the `results/trace_demo.md` that `run_all` writes.
    print!(
        "{}",
        gaasx_bench::experiments::trace_demo(trace.as_deref(), timeline.as_deref())?
    );
    Ok(())
}
