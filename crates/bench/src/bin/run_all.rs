//! Runs every experiment and writes the rendered tables to `results/`.
//!
//! `--trace <path>` additionally streams the trace-demo run's JSONL
//! events to `<path>` (replay with the `trace_summary` binary).
//! `--timeline-out <path>` writes the trace-demo run's bank-occupancy
//! timeline as Chrome trace-event JSON (load in Perfetto).
//! `--jobs <N>` fans the GaaS-X shard streams of the main matrix out over
//! `N` worker threads (default `GAASX_JOBS` or 1); reported totals are
//! bit-identical to the serial run.

#![allow(clippy::unwrap_used)]
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use gaasx_bench::experiments as exp;
use gaasx_sim::{EnergyBreakdown, OpSummary};

struct Cli {
    trace: Option<PathBuf>,
    timeline: Option<PathBuf>,
    jobs: usize,
}

fn cli() -> Result<Cli, String> {
    let mut trace = None;
    let mut timeline = None;
    let mut jobs = gaasx_bench::jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                trace = Some(PathBuf::from(
                    args.next().ok_or("--trace requires a path argument")?,
                ));
            }
            "--timeline-out" => {
                timeline = Some(PathBuf::from(
                    args.next()
                        .ok_or("--timeline-out requires a path argument")?,
                ));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j| j >= 1)
                    .ok_or("--jobs requires a worker count >= 1")?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Cli {
        trace,
        timeline,
        jobs,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cap = gaasx_bench::cap_edges();
    let iters = gaasx_bench::pr_iterations();
    let Cli {
        trace,
        timeline,
        jobs,
    } = cli()?;
    let start = Instant::now();
    fs::create_dir_all("results")?;

    let mut sections: Vec<(&str, String)> = vec![
        ("table1", exp::table1()),
        ("table2", exp::table2(cap)?),
        ("table3", exp::table3()),
        ("fig5", exp::fig5(cap)?),
    ];

    eprintln!(
        "[run_all] simulating GaaS-X + GraphR matrix \
         (cap {cap} edges, {jobs} job(s))..."
    );
    let matrix = exp::run_matrix_with_jobs(cap, iters, jobs)?;
    sections.push(("fig11", exp::fig11(&matrix)));
    sections.push(("fig12", exp::fig12(&matrix)));
    sections.push(("fig13", exp::fig13(&matrix)));
    sections.push(("fig14", exp::fig14(&matrix)));
    sections.push(("phases", exp::phase_table(&matrix)));

    eprintln!("[run_all] trace demo...");
    sections.push((
        "trace_demo",
        exp::trace_demo(trace.as_deref(), timeline.as_deref())?,
    ));

    eprintln!("[run_all] running software baselines...");
    let sw = exp::run_software(&matrix, cap, iters)?;
    sections.push(("fig15", exp::fig15(&sw)));
    sections.push(("fig16", exp::fig16(&sw)));
    sections.push(("gapbs", exp::gapbs_comparison(&sw)));

    eprintln!("[run_all] collaborative filtering...");
    sections.push(("fig17", exp::fig17((cap / 6).max(2_000), 32, 3)?));

    let mut combined = String::new();
    for (name, body) in &sections {
        fs::write(format!("results/{name}.md"), body)?;
        combined.push_str(body);
        combined.push_str("\n\n");
        println!("{body}\n");
    }
    fs::write("results/all.md", &combined)?;
    let total_ops: OpSummary = matrix.iter().map(|e| e.gaasx.ops + e.graphr.ops).sum();
    let total_energy: EnergyBreakdown = matrix
        .iter()
        .map(|e| e.gaasx.energy + e.graphr.energy)
        .sum();
    eprintln!(
        "[run_all] simulated {} MAC ops / {} CAM searches / {:.1} mJ across the matrix",
        total_ops.mac_ops,
        total_ops.cam_searches,
        total_energy.total_mj()
    );
    eprintln!(
        "[run_all] done in {:.1}s; wrote results/*.md",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}
