//! Fault-injection campaign: sweeps stuck-cell bit-error rates and
//! write-retry budgets over PageRank, SSSP, and BFS, and checks the three
//! acceptance properties of the fault layer:
//!
//! 1. **BER = 0 is bit-identical** — a zero-rate [`FaultModel`] plus any
//!    recovery policy reproduces the fault-free `RunReport` exactly;
//! 2. **recoverable faults never leak into results** — with write-verify,
//!    bounded retry, and spare-row remapping, every algorithm output
//!    matches the fault-free run exactly, while the report itemizes the
//!    recovery cost (verify reads, retries, remaps, time/energy overhead);
//! 3. **unrecoverable faults degrade gracefully** — a high-BER run under a
//!    detect-only policy surfaces a typed `CoreError::DeviceFault` carrying
//!    the partial report, never a panic.
//!
//! Errors on any violation, so CI exercises the recovery path on every
//! run. `--smoke` runs a tiny subset for the CI gate.
//!
//! Everything is seeded — the campaign replays bit-for-bit.

use std::fmt::Write;

use gaasx_bench::experiments::BenchResult;
use gaasx_core::algorithms::{Bfs, PageRank, Sssp};
use gaasx_core::{CoreError, GaasX, GaasXConfig, RecoveryPolicy, RunOutcome, ShardableAlgorithm};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::CooGraph;
use gaasx_sim::table::{count, Table};
use gaasx_sim::RunReport;
use gaasx_xbar::FaultModel;

use crate::Ctx;

/// The fault model for one sweep point: stuck cells in both arrays at
/// `ber`, plus a 1% transient write-failure rate whenever faults are on.
fn model(ber: f64) -> FaultModel {
    if ber == 0.0 {
        FaultModel::none()
    } else {
        FaultModel {
            seed: 0xFA01,
            cam_stuck_ber: ber,
            mac_stuck_ber: ber,
            write_fail_rate: 0.01,
            ..FaultModel::none()
        }
    }
}

fn policy(retry_budget: u32) -> RecoveryPolicy {
    RecoveryPolicy {
        retry_budget,
        ..RecoveryPolicy::standard()
    }
}

fn run_one<A: ShardableAlgorithm>(
    config: &GaasXConfig,
    algorithm: &A,
    graph: &A::Input,
) -> Result<RunOutcome<A::Output>, CoreError> {
    GaasX::new(config.clone()).run(algorithm, graph)
}

/// Sweeps one algorithm over BER × retry budget, appending one table row
/// per point. Returns an error on any acceptance violation.
fn sweep<A>(
    table: &mut Table,
    name: &str,
    algorithm: &A,
    graph: &A::Input,
    bers: &[f64],
    retries: &[u32],
) -> Result<(), String>
where
    A: ShardableAlgorithm,
    A::Output: PartialEq,
{
    let clean = run_one(&GaasXConfig::small(), algorithm, graph).map_err(|e| e.to_string())?;
    for &ber in bers {
        for &retry in retries {
            let config = GaasXConfig {
                fault: model(ber),
                recovery: policy(retry),
                ..GaasXConfig::small()
            };
            let faulty = run_one(&config, algorithm, graph)
                .map_err(|e| format!("{name} ber={ber:.0e} retry={retry}: {e}"))?;
            if ber == 0.0 {
                // Property 1: the fault layer is bit-free when off.
                if faulty.report != clean.report {
                    return Err(format!("{name}: BER=0 report diverged from fault-free run"));
                }
            }
            // Property 2: recovery never leaks into results.
            if faulty.result != clean.result {
                return Err(format!(
                    "{name} ber={ber:.0e} retry={retry}: output diverged from fault-free run"
                ));
            }
            let f = &faulty.report.faults;
            let time_ovh = faulty.report.elapsed_ns / clean.report.elapsed_ns - 1.0;
            let energy_ovh = faulty.report.energy.total_nj() / clean.report.energy.total_nj() - 1.0;
            table.row_owned(vec![
                name.into(),
                if ber == 0.0 {
                    "0".into()
                } else {
                    format!("{ber:.0e}")
                },
                retry.to_string(),
                count(f.verify_reads),
                count(f.faults_detected),
                count(f.write_retries),
                count(f.row_remaps),
                format!("{:.2}%", 100.0 * time_ovh),
                format!("{:.2}%", 100.0 * energy_ovh),
                if ber == 0.0 { "bit-identical" } else { "exact" }.into(),
            ]);
        }
    }
    Ok(())
}

/// Property 3: a BER far beyond the spare pool under a detect-only policy
/// must surface as a typed `DeviceFault` with a partial report attached.
fn check_graceful_degradation(graph: &CooGraph, out: &mut String) -> BenchResult<RunReport> {
    let config = GaasXConfig {
        fault: FaultModel {
            seed: 0xDEAD,
            cam_stuck_ber: 1e-2,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::detect_only(),
        ..GaasXConfig::small()
    };
    match run_one(&config, &PageRank::fixed_iterations(3), graph) {
        Err(CoreError::DeviceFault {
            report: Some(report),
            detail,
        }) => {
            if report.ops.verify_reads == 0 {
                return Err("partial report carries no verify reads".into());
            }
            writeln!(
                out,
                "detect-only @ BER=1e-2: DeviceFault as expected ({detail})"
            )?;
            Ok(*report)
        }
        Err(other) => Err(format!("want DeviceFault with partial report, got: {other}").into()),
        Ok(_) => Err("BER=1e-2 under detect-only unexpectedly succeeded".into()),
    }
}

pub fn run(cx: &mut Ctx) -> BenchResult<String> {
    let smoke = cx.s.smoke;
    let graph = rmat(&RmatConfig::new(64, if smoke { 200 } else { 600 }).with_seed(13))?;
    let src = gaasx_bench::traversal_source(&graph);
    let (bers, retries): (&[f64], &[u32]) = if smoke {
        (&[0.0, 1e-4], &[3])
    } else {
        (&[0.0, 1e-5, 1e-4, 3e-4], &[1, 3])
    };
    let mut out = String::new();
    writeln!(
        out,
        "Fault campaign — RMAT |V|={} |E|={}, stuck-cell BER sweep × retry budget, \
         write-fail 1%, 16 spare rows{}\n",
        count(graph.num_vertices() as u64),
        count(graph.num_edges() as u64),
        if smoke { " (smoke subset)" } else { "" },
    )?;

    let mut table = Table::new(&[
        "algorithm",
        "stuck BER",
        "retry",
        "verify reads",
        "detected",
        "retries",
        "remaps",
        "time ovh",
        "energy ovh",
        "results",
    ]);
    sweep(
        &mut table,
        "pagerank",
        &PageRank::fixed_iterations(3),
        &graph,
        bers,
        retries,
    )?;
    if !smoke {
        sweep(
            &mut table,
            "sssp",
            &Sssp::from_source(src),
            &graph,
            bers,
            retries,
        )?;
        sweep(
            &mut table,
            "bfs",
            &Bfs::from_source(src),
            &graph,
            bers,
            retries,
        )?;
    }
    writeln!(out, "{table}")?;

    let partial = check_graceful_degradation(&graph, &mut out)?;
    writeln!(
        out,
        "partial report: {} verify reads, {} faults detected before abort\n",
        count(partial.ops.verify_reads),
        count(partial.faults.faults_detected),
    )?;
    writeln!(
        out,
        "All sweep points reproduced the fault-free results; BER=0 was bit-identical; \
         the unrecoverable case degraded gracefully."
    )?;
    Ok(out)
}
