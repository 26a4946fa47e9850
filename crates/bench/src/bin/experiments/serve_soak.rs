//! Multi-tenant serving soak: drives a [`gaasx_serve::Server`] through
//! combined overload, deadline misses, quota exhaustion, capacity and
//! wear eviction, transient and unrecoverable device faults, a deliberate
//! worker panic, and batched queries — then checks the degradation
//! contract end to end:
//!
//! 1. **no panic escapes** — the injected worker panic is caught, the
//!    worker is replaced, and later queries on the same graph succeed;
//! 2. **every non-OK outcome is typed** — rejections bill nothing and
//!    carry retry/quota context; deadline misses and exhausted retries
//!    carry the partial `RunReport` of the work actually performed;
//! 3. **residency and batching are functionally invisible** — resident
//!    and batched results are bit-identical to fresh one-shot
//!    `run_labeled_sharded` runs, and a batch bills strictly less than
//!    the serial sum;
//! 4. **billing conserves exactly** — per-tenant sums recomputed from
//!    the responses equal the ledger, and the tenant sums equal the grand
//!    total, tick for tick.
//!
//! Errors on any violation. `--smoke` shrinks the traffic for the CI
//! gate; everything is seeded, so the soak replays bit-for-bit.

use std::fmt::Write;

use gaasx_bench::experiments::BenchResult;
use gaasx_core::algorithms::Bfs;
use gaasx_core::{GaasX, GaasXConfig, RecoveryPolicy};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::{CooGraph, VertexId};
use gaasx_serve::{QueryKind, QueryRequest, QueryResponse, ServeError, Server, ServerConfig};
use gaasx_sim::table::{count, Table};
use gaasx_sim::Nanos;
use gaasx_xbar::FaultModel;

use crate::Ctx;

fn graph(edges: usize, seed: u64) -> CooGraph {
    rmat(&RmatConfig::new(1 << 6, edges).with_seed(seed)).unwrap()
}

fn request(tenant: &str, graph: &str, kind: QueryKind, arrival: f64) -> QueryRequest {
    QueryRequest {
        tenant: tenant.into(),
        graph: graph.into(),
        kind,
        arrival_ns: Nanos::from_ns(arrival),
        deadline_ns: None,
    }
}

/// The worker-boundary `catch_unwind` swallows the injected panic, but
/// the default hook would still spray a backtrace into the CI log.
/// Silence exactly that payload; anything else keeps the loud default.
fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("deliberate debug panic"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("deliberate debug panic"));
        if !expected {
            default(info);
        }
    }));
}

/// Invariant 2 + 4 for one finished server: every non-OK outcome is a
/// typed error (with a partial report where the contract promises one),
/// rejections bill nothing, and recomputing per-tenant bills from the
/// responses reproduces the ledger exactly.
fn check_contract(label: &str, server: &Server, responses: &[QueryResponse]) -> Result<(), String> {
    for r in responses {
        match &r.outcome {
            Ok(_) => {}
            Err(e @ (ServeError::Overloaded { .. } | ServeError::QuotaExceeded { .. })) => {
                if r.billed_ns != Nanos::ZERO {
                    return Err(format!("{label}: rejection billed time: {e}"));
                }
            }
            Err(ServeError::UnknownGraph { .. } | ServeError::InvalidTiming { .. }) => {
                if r.billed_ns != Nanos::ZERO {
                    return Err(format!("{label}: rejection billed time"));
                }
            }
            Err(e @ ServeError::DeadlineExceeded { .. })
            | Err(e @ ServeError::DeviceFault { .. }) => {
                let report = e
                    .partial_report()
                    .ok_or_else(|| format!("{label}: `{e}` lost its partial report"))?;
                // Retries bill every attempt, so the bill is at least the
                // final attempt's partial work.
                if r.billed_ns < report.elapsed_ns {
                    return Err(format!("{label}: billed less than the partial report"));
                }
            }
            Err(ServeError::Internal { .. }) => {}
            Err(other) => return Err(format!("{label}: unexpected outcome `{other}`")),
        }
    }
    // Exact conservation: bills are integer ticks, so the responses may
    // be folded in any order; this walks them last to first.
    let mut per_tenant: std::collections::BTreeMap<&str, Nanos> = std::collections::BTreeMap::new();
    for r in responses.iter().rev() {
        *per_tenant.entry(r.tenant.as_str()).or_insert(Nanos::ZERO) += r.billed_ns;
    }
    let mut total = Nanos::ZERO;
    for (tenant, billed) in &per_tenant {
        let ledger = server.ledger().billed_ns(tenant);
        if ledger != *billed {
            return Err(format!(
                "{label}: tenant `{tenant}` ledger {ledger} != response sum {billed}"
            ));
        }
        total += *billed;
    }
    if server.ledger().total_billed_ns() != total {
        return Err(format!("{label}: tenant bills do not sum to the total"));
    }
    Ok(())
}

/// Scenario 1 — mixed multi-tenant traffic on a clean device: two graphs
/// that never fit together (capacity LRU churn), one service lane with a
/// two-deep queue (overload bursts), tight deadlines, a starved quota,
/// an unknown graph, a deliberate worker panic, and a batched query.
fn mixed_scenario(rounds: usize, edges: usize) -> Result<(Server, Vec<QueryResponse>), String> {
    let g0 = graph(edges, 21);
    let g1 = graph(edges + 50, 22);
    let mut config = ServerConfig::new(GaasXConfig::small());
    config.lanes = 1;
    config.queue_capacity = 2;
    config.capacity_edges = g0.num_edges().max(g1.num_edges()) + 10;
    let mut server = Server::new(config);
    server
        .register_graph("orders", g0)
        .map_err(|e| e.to_string())?;
    server
        .register_graph("social", g1)
        .map_err(|e| e.to_string())?;
    server.set_quota("delta", Nanos::from_ns(1.0));

    // Rounds are spaced far apart (1 s of modeled time) so each starts
    // with an idle lane; the intra-round burst shares one arrival
    // instant, so with one lane and a two-deep queue the tail sheds.
    for i in 0..rounds {
        let t = i as f64 * 1e9;
        // Alternating graphs forces a capacity eviction per round.
        server.submit(request(
            "acme",
            "orders",
            QueryKind::Bfs {
                source: (i % 16) as u32,
            },
            t,
        ));
        server.submit(request(
            "bolt",
            "social",
            QueryKind::Sssp {
                source: (i % 8) as u32,
            },
            t + 1.0,
        ));
        // Same-arrival burst: one lane, queue of two — the rest shed.
        server.submit(request(
            "carbon",
            "orders",
            QueryKind::Bfs { source: 2 },
            t + 1.0,
        ));
        server.submit(request(
            "carbon",
            "orders",
            QueryKind::Bfs { source: 3 },
            t + 1.0,
        ));
        // Mid-round, after the burst drains: delta's first query bills
        // real time against a 1 ns quota, locking every later one out.
        server.submit(request(
            "delta",
            "orders",
            QueryKind::Bfs { source: 0 },
            t + 5e8,
        ));
        if i == 1 {
            let mut miss = request("acme", "social", QueryKind::Sssp { source: 0 }, t + 6e8);
            miss.deadline_ns = Some(Nanos::from_ns(1.0));
            server.submit(miss);
            server.submit(request(
                "bolt",
                "missing",
                QueryKind::Bfs { source: 0 },
                t + 6e8,
            ));
        }
        if i == 2 {
            server.submit(request("acme", "orders", QueryKind::DebugPanic, t + 7e8));
        }
        if i == 3 {
            server.submit(request(
                "carbon",
                "orders",
                QueryKind::BatchBfs {
                    sources: vec![0, 1, 2],
                },
                t + 7e8,
            ));
        }
    }
    let responses = server.run();
    Ok((server, responses))
}

/// Invariant 3 on the mixed scenario's responses: a resident query and
/// every lane of the batched query match fresh one-shots bit-for-bit,
/// and the batch bills strictly less than the serial sum. Returns the
/// report line.
fn check_identity(responses: &[QueryResponse], edges: usize) -> Result<String, String> {
    // Mirrors `mixed_scenario`'s registration of `orders`.
    let g0 = graph(edges, 21);
    // Resident identity: first completed single-source BFS on `orders`.
    let resident = responses
        .iter()
        .find_map(|r| match r.outcome.as_ref() {
            Ok(out) if r.graph == "orders" && out.values.len() == 1 => Some(out),
            _ => None,
        })
        .ok_or("no completed query on `orders`")?;
    // Sources cycle per round; recover it from the BFS result itself
    // (the source is the unique vertex at distance zero).
    let source = resident.values[0]
        .iter()
        .position(|&d| d == 0.0)
        .ok_or("BFS result has no zero-distance source")? as u32;
    let one_shot = GaasX::new(GaasXConfig::small())
        .run_labeled_sharded(&Bfs::from_source(VertexId::new(source)), &g0, "orders", 1)
        .map_err(|e| e.to_string())?;
    if resident.values[0] != one_shot.result || resident.report.ops != one_shot.report.ops {
        return Err("resident query diverged from the one-shot run".into());
    }

    // Batch identity + strict cost win.
    let batch = responses
        .iter()
        .find_map(|r| match (&r.outcome, r.graph.as_str()) {
            (Ok(out), "orders") if out.values.len() == 3 => Some((out, r.billed_ns)),
            _ => None,
        })
        .ok_or("no completed batch query")?;
    let mut serial_sum = Nanos::ZERO;
    for (q, &source) in [0u32, 1, 2].iter().enumerate() {
        let one_shot = GaasX::new(GaasXConfig::small())
            .run_labeled_sharded(&Bfs::from_source(VertexId::new(source)), &g0, "orders", 1)
            .map_err(|e| e.to_string())?;
        if batch.0.values[q] != one_shot.result {
            return Err(format!("batch lane {q} diverged from its one-shot"));
        }
        if batch.0.iterations[q] != one_shot.report.iterations {
            return Err(format!("batch lane {q} iteration count diverged"));
        }
        serial_sum += one_shot.report.elapsed_ns;
    }
    if batch.1 >= serial_sum {
        return Err(format!(
            "batch billed {} ns >= serial sum {} ns",
            batch.1.ns(),
            serial_sum.ns()
        ));
    }
    Ok(format!(
        "identity: resident == one-shot (bit-exact); batch of 3 billed {} vs serial {} ns \
         ({:.1}% saved)\n",
        count(batch.1.ns() as u64),
        count(serial_sum.ns() as u64),
        100.0 * (1.0 - batch.1.ns() / serial_sum.ns()),
    ))
}

/// Scenario 2 — transient write faults under detect-only recovery:
/// seeded so the first attempt faults and a bounded retry succeeds.
fn flaky_scenario(edges: usize) -> Result<(Server, Vec<QueryResponse>), String> {
    let accel = GaasXConfig {
        fault: FaultModel {
            seed: 7,
            write_fail_rate: 5e-4,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::detect_only(),
        ..GaasXConfig::small()
    };
    let g = graph(edges, 4);
    let clean = GaasX::new(GaasXConfig::small())
        .run_labeled_sharded(&Bfs::from_source(VertexId::new(0)), &g, "flaky", 1)
        .map_err(|e| e.to_string())?;
    let mut config = ServerConfig::new(accel);
    config.max_retries = 3;
    let mut server = Server::new(config);
    server
        .register_graph("flaky", g)
        .map_err(|e| e.to_string())?;
    server.submit(request("acme", "flaky", QueryKind::Bfs { source: 0 }, 0.0));
    let responses = server.run();
    let out = responses[0]
        .outcome
        .as_ref()
        .map_err(|e| format!("flaky query failed outright: {e}"))?;
    if out.values[0] != clean.result {
        return Err("retried result diverged from the fault-free run".into());
    }
    if server.stats().retries == 0 {
        return Err("flaky scenario drew no retries — seed drifted".into());
    }
    Ok((server, responses))
}

/// Scenario 3 — unrecoverable write-fault rate: retries exhaust and the
/// query surfaces a typed `DeviceFault` carrying the partial report.
fn exhausted_scenario(edges: usize) -> Result<(Server, Vec<QueryResponse>), String> {
    let accel = GaasXConfig {
        fault: FaultModel {
            seed: 5,
            write_fail_rate: 2e-3,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::detect_only(),
        ..GaasXConfig::small()
    };
    let mut config = ServerConfig::new(accel);
    config.max_retries = 3;
    let mut server = Server::new(config);
    server
        .register_graph("doomed", graph(edges, 4))
        .map_err(|e| e.to_string())?;
    server.submit(request("bolt", "doomed", QueryKind::Bfs { source: 0 }, 0.0));
    let responses = server.run();
    match &responses[0].outcome {
        Err(ServeError::DeviceFault {
            attempts,
            report: Some(_),
            ..
        }) if *attempts == 4 => {}
        other => return Err(format!("want DeviceFault after 4 attempts, got {other:?}")),
    }
    Ok((server, responses))
}

/// Scenario 4 — endurance-tracked banks with a wear threshold of one
/// write: every query trips a wear eviction and the next reprograms,
/// with results unchanged.
fn worn_scenario(edges: usize) -> Result<(Server, Vec<QueryResponse>), String> {
    let accel = GaasXConfig {
        fault: FaultModel {
            seed: 3,
            endurance: 1_000_000_000,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::standard(),
        ..GaasXConfig::small()
    };
    let mut config = ServerConfig::new(accel);
    config.wear_threshold_writes = 1;
    let mut server = Server::new(config);
    server
        .register_graph("worn", graph(edges, 6))
        .map_err(|e| e.to_string())?;
    for i in 0..3 {
        server.submit(request(
            "carbon",
            "worn",
            QueryKind::Bfs { source: 0 },
            i as f64,
        ));
    }
    let responses = server.run();
    let first = responses[0].outcome.as_ref().map_err(|e| e.to_string())?;
    for r in &responses[1..] {
        let out = r.outcome.as_ref().map_err(|e| e.to_string())?;
        if out.values != first.values {
            return Err("wear-evicted reprogram changed the result".into());
        }
    }
    if server.stats().wear_evictions == 0 {
        return Err("wear threshold of 1 write tripped no evictions".into());
    }
    Ok((server, responses))
}

fn utilization_table(server: &Server) -> Table {
    let mut table = Table::new(&[
        "tenant",
        "admitted",
        "completed",
        "rejected",
        "failed",
        "billed ns",
        "share",
    ]);
    for (tenant, usage) in server.ledger().iter() {
        table.row_owned(vec![
            tenant.into(),
            count(usage.admitted),
            count(usage.completed),
            count(usage.rejected),
            count(usage.failed),
            count(usage.billed_ns.ns() as u64),
            format!("{:.1}%", 100.0 * server.ledger().billed_share(tenant)),
        ]);
    }
    table
}

pub fn run(cx: &mut Ctx) -> BenchResult<String> {
    let smoke = cx.s.smoke;
    install_quiet_panic_hook();
    let (rounds, edges) = if smoke { (4, 200) } else { (12, 500) };
    let mut out = String::new();
    writeln!(
        out,
        "Serving soak — {rounds} rounds x 4 tenants over RMAT graphs (|E|~{edges}), \
         overload + deadlines + quota + eviction + faults + panic{}\n",
        if smoke { " (smoke subset)" } else { "" },
    )?;

    let (mixed, mixed_responses) = mixed_scenario(rounds, edges)?;
    check_contract("mixed", &mixed, &mixed_responses)?;
    out.push_str(&check_identity(&mixed_responses, edges)?);
    let stats = mixed.stats();
    if stats.panics_caught != 1 || stats.worker_replacements != 1 {
        return Err(format!(
            "panic isolation: caught {} replaced {} (want 1/1)",
            stats.panics_caught, stats.worker_replacements
        )
        .into());
    }
    if stats.rejected_overload == 0 || stats.rejected_quota == 0 || stats.capacity_evictions == 0 {
        return Err(format!(
            "mixed scenario failed to exercise degradation: overload {} quota {} evictions {}",
            stats.rejected_overload, stats.rejected_quota, stats.capacity_evictions
        )
        .into());
    }
    if stats.failed_deadline == 0 || stats.rejected_unknown == 0 {
        return Err("mixed scenario missed its deadline/unknown-graph probes".into());
    }
    writeln!(
        out,
        "mixed: {} submitted, {} completed, {} shed (overload), {} quota, {} deadline-missed, \
         {} capacity evictions, 1 worker panic caught",
        count(mixed_responses.len() as u64),
        count(stats.completed),
        count(stats.rejected_overload),
        count(stats.rejected_quota),
        count(stats.failed_deadline),
        count(stats.capacity_evictions),
    )?;
    writeln!(
        out,
        "\nper-tenant utilization (mixed scenario):\n{}",
        utilization_table(&mixed)
    )?;

    let (flaky, flaky_responses) = flaky_scenario(400)?;
    check_contract("flaky", &flaky, &flaky_responses)?;
    writeln!(
        out,
        "flaky: transient write faults recovered after {} retry(ies), result bit-identical",
        count(flaky.stats().retries),
    )?;

    let (exhausted, exhausted_responses) = exhausted_scenario(400)?;
    check_contract("exhausted", &exhausted, &exhausted_responses)?;
    writeln!(
        out,
        "exhausted: unrecoverable fault surfaced typed DeviceFault with partial report"
    )?;

    let (worn, worn_responses) = worn_scenario(400)?;
    check_contract("worn", &worn, &worn_responses)?;
    writeln!(
        out,
        "worn: {} wear evictions, {} reprograms, results unchanged",
        count(worn.stats().wear_evictions),
        count(worn.stats().reprograms),
    )?;

    writeln!(
        out,
        "\nAll scenarios honored the degradation contract: no panic escaped, every \
         rejection/timeout/fault was typed, residency and batching were bit-invisible, \
         and per-tenant bills conserve exactly."
    )?;
    Ok(out)
}
