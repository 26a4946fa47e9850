//! Integration tests of the serving contract: typed rejection, deadline
//! misses with partial reports, bounded retries, panic isolation, wear
//! and capacity eviction, batching, and exact per-tenant billing.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;

use gaasx_core::algorithms::{Bfs, Sssp};
use gaasx_core::{GaasX, GaasXConfig, RecoveryPolicy};
use gaasx_graph::{generators, CooGraph, VertexId};
use gaasx_serve::{QueryKind, QueryRequest, ServeError, Server, ServerConfig};
use gaasx_sim::Nanos;
use gaasx_xbar::FaultModel;

fn rmat(edges: usize, seed: u64) -> CooGraph {
    generators::rmat(&generators::RmatConfig::new(1 << 6, edges).with_seed(seed)).unwrap()
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

#[test]
fn resident_queries_match_one_shot_runs_bit_for_bit() {
    let g = rmat(500, 3);
    for jobs in [1, 2, 4] {
        let mut config = ServerConfig::new(GaasXConfig::small());
        config.jobs = jobs;
        let mut server = Server::new(config);
        server.register_graph("g", g.clone()).unwrap();
        // Two identical queries: the second runs on warm resident banks.
        for i in 0..2 {
            server.submit(request(
                "acme",
                "g",
                QueryKind::Sssp { source: 1 },
                i as f64,
            ));
        }
        let responses = server.run();

        let one_shot = GaasX::new(GaasXConfig::small())
            .run_labeled_sharded(&Sssp::from_source(VertexId::new(1)), &g, "g", jobs)
            .unwrap();
        for (i, response) in responses.iter().enumerate() {
            let output = response.outcome.as_ref().unwrap();
            assert_eq!(output.values[0], one_shot.result, "jobs={jobs} query={i}");
            assert_eq!(
                output.report.ops, one_shot.report.ops,
                "jobs={jobs} query={i}"
            );
            assert_eq!(
                output.report.elapsed_ns, one_shot.report.elapsed_ns,
                "jobs={jobs} query={i}"
            );
            assert_eq!(
                output.report.energy.total_nj(),
                one_shot.report.energy.total_nj(),
                "jobs={jobs} query={i}"
            );
        }
        assert_eq!(server.graph("g").unwrap().programs(), 1, "jobs={jobs}");
    }
}

#[test]
fn a_worker_panic_is_caught_and_the_server_keeps_serving() {
    let mut server = Server::new(ServerConfig::new(GaasXConfig::small()));
    server.register_graph("g", rmat(300, 5)).unwrap();
    let before = server.submit(request("acme", "g", QueryKind::Bfs { source: 0 }, 0.0));
    let boom = server.submit(request("acme", "g", QueryKind::DebugPanic, 1e9));
    let after = server.submit(request("acme", "g", QueryKind::Bfs { source: 0 }, 2e9));
    let responses = server.run();

    let ok_before = responses
        .iter()
        .find(|r| r.id == before)
        .unwrap()
        .outcome
        .as_ref()
        .unwrap()
        .clone();
    match &responses.iter().find(|r| r.id == boom).unwrap().outcome {
        Err(ServeError::Internal { query_id, detail }) => {
            assert_eq!(*query_id, boom);
            assert!(detail.contains("deliberate debug panic"), "{detail}");
        }
        other => panic!("want Internal, got {other:?}"),
    }
    // The replacement worker serves the same results as before the panic.
    let ok_after = responses
        .iter()
        .find(|r| r.id == after)
        .unwrap()
        .outcome
        .as_ref()
        .unwrap();
    assert_eq!(ok_after.values, ok_before.values);
    assert_eq!(ok_after.report.ops, ok_before.report.ops);

    let stats = server.stats();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.worker_replacements, 1);
    assert_eq!(stats.failed_internal, 1);
    assert_eq!(stats.completed, 2);
}

#[test]
fn overload_sheds_load_with_typed_retry_hints() {
    let mut config = ServerConfig::new(GaasXConfig::small());
    config.lanes = 1;
    config.queue_capacity = 1;
    let mut server = Server::new(config);
    server.register_graph("g", rmat(400, 7)).unwrap();
    // Four simultaneous arrivals against one lane and a one-deep queue:
    // one runs, one queues, two shed.
    for _ in 0..4 {
        server.submit(request("acme", "g", QueryKind::Bfs { source: 0 }, 0.0));
    }
    let responses = server.run();
    assert_eq!(responses.len(), 4);

    let overloaded: Vec<_> = responses
        .iter()
        .filter_map(|r| match &r.outcome {
            Err(ServeError::Overloaded {
                queue_depth,
                queue_capacity,
                retry_after_ns,
            }) => Some((*queue_depth, *queue_capacity, *retry_after_ns)),
            _ => None,
        })
        .collect();
    assert_eq!(overloaded.len(), 2);
    for (depth, capacity, retry_after) in overloaded {
        assert_eq!((depth, capacity), (1, 1));
        assert!(retry_after > Nanos::ZERO, "hint must be actionable");
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.rejected_overload, 2);
    // Rejected queries are never billed.
    assert_eq!(server.ledger().usage("acme").unwrap().rejected, 2);
    assert_eq!(server.ledger().usage("acme").unwrap().admitted, 2);
}

#[test]
fn quota_exhaustion_rejects_before_any_work() {
    let mut server = Server::new(ServerConfig::new(GaasXConfig::small()));
    server.register_graph("g", rmat(400, 9)).unwrap();
    server.set_quota("miser", Nanos::from_ns(1.0));
    server.submit(request("miser", "g", QueryKind::Bfs { source: 0 }, 0.0));
    server.submit(request("miser", "g", QueryKind::Bfs { source: 0 }, 1e9));
    let responses = server.run();

    assert!(responses[0].outcome.is_ok());
    let billed_after_first = server.ledger().billed_ns("miser");
    assert!(billed_after_first > Nanos::ZERO);
    match &responses[1].outcome {
        Err(ServeError::QuotaExceeded {
            tenant,
            billed_ns,
            quota_ns,
        }) => {
            assert_eq!(tenant, "miser");
            assert_eq!(*billed_ns, billed_after_first);
            assert_eq!(*quota_ns, Nanos::from_ns(1.0));
        }
        other => panic!("want QuotaExceeded, got {other:?}"),
    }
    // The rejection itself cost nothing.
    assert_eq!(server.ledger().billed_ns("miser"), billed_after_first);
    assert_eq!(server.stats().rejected_quota, 1);
}

#[test]
fn deadline_misses_return_and_bill_the_partial_report() {
    let mut server = Server::new(ServerConfig::new(GaasXConfig::small()));
    server.register_graph("g", rmat(600, 11)).unwrap();
    let mut req = request("acme", "g", QueryKind::Sssp { source: 0 }, 0.0);
    req.deadline_ns = Some(Nanos::from_ns(1.0));
    server.submit(req);
    let responses = server.run();

    match &responses[0].outcome {
        Err(ServeError::DeadlineExceeded {
            deadline_ns,
            report: Some(report),
        }) => {
            assert_eq!(*deadline_ns, Nanos::from_ns(1.0));
            // The partial work is real and billed.
            assert!(report.elapsed_ns > Nanos::ZERO);
            assert_eq!(responses[0].billed_ns, report.elapsed_ns);
            assert_eq!(server.ledger().billed_ns("acme"), report.elapsed_ns);
        }
        other => panic!("want DeadlineExceeded with report, got {other:?}"),
    }
    assert_eq!(server.stats().failed_deadline, 1);
    assert_eq!(server.ledger().usage("acme").unwrap().failed, 1);

    // A server-wide default deadline applies to queries without one.
    let mut config = ServerConfig::new(GaasXConfig::small());
    config.default_deadline_ns = Some(Nanos::from_ns(1.0));
    let mut server = Server::new(config);
    server.register_graph("g", rmat(600, 11)).unwrap();
    server.submit(request("acme", "g", QueryKind::Sssp { source: 0 }, 0.0));
    let responses = server.run();
    assert!(matches!(
        responses[0].outcome,
        Err(ServeError::DeadlineExceeded { .. })
    ));
}

#[test]
fn unschedulable_timing_is_rejected_at_admission_and_never_billed() {
    let mut server = Server::new(ServerConfig::new(GaasXConfig::small()));
    server.register_graph("g", rmat(400, 5)).unwrap();
    let bfs = QueryKind::Bfs { source: 0 };
    let mut nan_deadline = request("acme", "g", bfs.clone(), 1.0);
    nan_deadline.deadline_ns = Some(Nanos::from_ns(f64::NAN));
    let bad = [
        (nan_deadline, "deadline_ns"),
        (request("acme", "g", bfs.clone(), f64::NAN), "arrival_ns"),
        (
            request("acme", "g", bfs.clone(), f64::INFINITY),
            "arrival_ns",
        ),
        (
            request("acme", "g", bfs.clone(), f64::NEG_INFINITY),
            "arrival_ns",
        ),
    ];
    let mut bad_ids = Vec::new();
    for (req, _) in &bad {
        bad_ids.push(server.submit(req.clone()));
    }
    // A finite negative deadline is a budget already spent: it is
    // admitted and misses at its first checkpoint, as before.
    let mut spent = request("acme", "g", bfs.clone(), 2.0);
    spent.deadline_ns = Some(Nanos::from_ns(-1.0));
    let spent_id = server.submit(spent);
    let ok_id = server.submit(request("acme", "g", bfs, 5.0));
    let responses = server.run();
    assert_eq!(responses.len(), bad.len() + 2);

    for (id, (_, field)) in bad_ids.iter().zip(&bad) {
        let r = responses.iter().find(|r| r.id == *id).unwrap();
        match &r.outcome {
            Err(e @ ServeError::InvalidTiming { field: got, .. }) => {
                assert_eq!(got, field, "query {id}");
                assert!(e.is_rejection());
                assert!(e.partial_report().is_none());
            }
            other => panic!("query {id}: want InvalidTiming, got {other:?}"),
        }
        assert_eq!(r.billed_ns, Nanos::ZERO);
    }
    let spent = responses.iter().find(|r| r.id == spent_id).unwrap();
    assert!(matches!(
        spent.outcome,
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let ok = responses.iter().find(|r| r.id == ok_id).unwrap();
    assert!(ok.outcome.is_ok());
    assert!(ok.start_ns.is_finite() && ok.finish_ns.is_finite());
    assert!(ok.start_ns >= Nanos::from_ns(5.0));

    let stats = server.stats();
    assert_eq!(stats.rejected_invalid, bad.len() as u64);
    assert_eq!(stats.rejected_overload, 0);
    assert_eq!(stats.admitted, 2);
    let usage = server.ledger().usage("acme").unwrap();
    assert_eq!(usage.rejected, bad.len() as u64);
    assert_eq!(usage.admitted, 2);
    let billed: Nanos = responses.iter().map(|r| r.billed_ns).sum();
    assert_eq!(server.ledger().billed_ns("acme"), billed);
}

#[test]
fn saturated_deadlines_mean_no_budget_or_invalid_timing() {
    // `+inf` saturates to `Nanos::MAX`, no budget at all; `-inf` lands on
    // `Nanos::MIN` with NaN and is rejected like it.
    let mut server = Server::new(ServerConfig::new(GaasXConfig::small()));
    server.register_graph("g", rmat(400, 5)).unwrap();
    let bfs = QueryKind::Bfs { source: 0 };
    let mut unbounded = request("acme", "g", bfs.clone(), 0.0);
    unbounded.deadline_ns = Some(Nanos::from_ns(f64::INFINITY));
    let mut past = request("acme", "g", bfs, 1.0);
    past.deadline_ns = Some(Nanos::from_ns(f64::NEG_INFINITY));
    let (unbounded, past) = (server.submit(unbounded), server.submit(past));
    let responses = server.run();
    let outcome = |id| &responses.iter().find(|r| r.id == id).unwrap().outcome;
    assert!(outcome(unbounded).is_ok());
    assert!(matches!(
        outcome(past),
        Err(ServeError::InvalidTiming {
            field: "deadline_ns",
            value: Nanos::MIN,
        })
    ));
}

#[test]
fn transient_device_faults_retry_and_succeed() {
    // Chosen so the first attempt write-faults under detect-only recovery
    // but a retry's fresh RNG draws succeed (deterministic per seed).
    let accel = GaasXConfig {
        fault: FaultModel {
            seed: 7,
            write_fail_rate: 5e-4,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::detect_only(),
        ..GaasXConfig::small()
    };
    let g = rmat(400, 4);
    let mut config = ServerConfig::new(accel);
    config.max_retries = 3;
    let mut server = Server::new(config);
    server.register_graph("g", g.clone()).unwrap();
    server.submit(request("acme", "g", QueryKind::Bfs { source: 0 }, 0.0));
    let responses = server.run();

    let output = responses[0].outcome.as_ref().unwrap();
    let clean = GaasX::new(GaasXConfig::small())
        .run_labeled_sharded(&Bfs::from_source(VertexId::new(0)), &g, "g", 1)
        .unwrap();
    assert_eq!(output.values[0], clean.result);
    let stats = server.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.completed, 1);
    // Failed attempts billed their partial work on top of the final run.
    assert!(responses[0].billed_ns > output.report.elapsed_ns);
    assert_eq!(
        server.ledger().billed_ns("acme"),
        responses[0].billed_ns,
        "ledger and response agree on the bill"
    );
}

#[test]
fn exhausted_retries_surface_a_typed_device_fault() {
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
    let backoff = config.retry_backoff_ns;
    let mut server = Server::new(config);
    server.register_graph("g", rmat(400, 4)).unwrap();
    server.submit(request("acme", "g", QueryKind::Bfs { source: 0 }, 0.0));
    let responses = server.run();

    match &responses[0].outcome {
        Err(ServeError::DeviceFault {
            attempts,
            report: Some(report),
            ..
        }) => {
            assert_eq!(*attempts, 4, "initial try plus three retries");
            assert!(report.faults.faults_detected > 0);
        }
        other => panic!("want DeviceFault with report, got {other:?}"),
    }
    assert_eq!(server.stats().retries, 3);
    assert_eq!(server.stats().failed_fault, 1);
    // Backoff occupies the lane but is not billed device time.
    assert_eq!(
        responses[0].finish_ns,
        responses[0].start_ns + responses[0].billed_ns + backoff * 3
    );
    assert!(responses[0].billed_ns > Nanos::ZERO);
}

#[test]
fn wear_threshold_evicts_and_reprograms_transparently() {
    // Endurance tracking on (large budget: no cell actually dies), wear
    // threshold low enough that every query trips an eviction.
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
    server.register_graph("g", rmat(400, 6)).unwrap();
    for i in 0..3 {
        server.submit(request("acme", "g", QueryKind::Bfs { source: 0 }, i as f64));
    }
    let responses = server.run();
    let values: Vec<_> = responses
        .iter()
        .map(|r| r.outcome.as_ref().unwrap().values[0].clone())
        .collect();
    assert_eq!(values[0], values[1]);
    assert_eq!(values[1], values[2]);
    let stats = server.stats();
    assert_eq!(stats.wear_evictions, 3);
    assert_eq!(
        stats.reprograms, 2,
        "every query after the first reprograms"
    );
    assert_eq!(server.graph("g").unwrap().programs(), 3);
}

#[test]
fn lru_capacity_eviction_keeps_results_correct() {
    let small = rmat(200, 1);
    let big = rmat(300, 2);
    let mut config = ServerConfig::new(GaasXConfig::small());
    // Capacity fits either graph alone but never both.
    config.capacity_edges = small.num_edges().max(big.num_edges()) + 10;
    let mut server = Server::new(config);
    server.register_graph("small", small.clone()).unwrap();
    server.register_graph("big", big.clone()).unwrap();
    // Alternate targets so each dispatch must evict the other graph.
    for i in 0..4 {
        let graph = if i % 2 == 0 { "small" } else { "big" };
        server.submit(request(
            "acme",
            graph,
            QueryKind::Bfs { source: 0 },
            i as f64,
        ));
    }
    let responses = server.run();

    let mut accel = GaasX::new(GaasXConfig::small());
    let want_small = accel
        .run_labeled_sharded(&Bfs::from_source(VertexId::new(0)), &small, "small", 1)
        .unwrap();
    let want_big = accel
        .run_labeled_sharded(&Bfs::from_source(VertexId::new(0)), &big, "big", 1)
        .unwrap();
    for (i, response) in responses.iter().enumerate() {
        let output = response.outcome.as_ref().unwrap();
        let want = if i % 2 == 0 { &want_small } else { &want_big };
        assert_eq!(output.values[0], want.result, "query {i}");
        assert_eq!(
            output.report.elapsed_ns, want.report.elapsed_ns,
            "query {i}"
        );
    }
    assert!(server.stats().capacity_evictions >= 3);
    assert!(server.stats().reprograms >= 2);
}

#[test]
fn unknown_graphs_and_oversized_registrations_are_typed() {
    let mut config = ServerConfig::new(GaasXConfig::small());
    config.capacity_edges = 100;
    let mut server = Server::new(config);
    match server.register_graph("huge", rmat(400, 8)) {
        Err(ServeError::CapacityExceeded { capacity_edges, .. }) => {
            assert_eq!(capacity_edges, 100);
        }
        other => panic!("want CapacityExceeded, got {other:?}"),
    }
    server.submit(request("acme", "ghost", QueryKind::Bfs { source: 0 }, 0.0));
    let responses = server.run();
    match &responses[0].outcome {
        Err(e @ ServeError::UnknownGraph { graph }) => {
            assert_eq!(graph, "ghost");
            assert!(e.is_rejection());
        }
        other => panic!("want UnknownGraph, got {other:?}"),
    }
    assert_eq!(server.stats().rejected_unknown, 1);
    assert_eq!(server.ledger().billed_ns("acme"), Nanos::ZERO);
}

#[test]
fn batched_queries_match_serial_one_shots_and_cost_less() {
    let g = rmat(600, 13);
    let sources = [0u32, 2, 5];

    let mut batch_server = Server::new(ServerConfig::new(GaasXConfig::small()));
    batch_server.register_graph("g", g.clone()).unwrap();
    batch_server.submit(request(
        "acme",
        "g",
        QueryKind::BatchSssp {
            sources: sources.to_vec(),
        },
        0.0,
    ));
    let batch = batch_server.run();
    let batch_output = batch[0].outcome.as_ref().unwrap();

    let mut serial_server = Server::new(ServerConfig::new(GaasXConfig::small()));
    serial_server.register_graph("g", g.clone()).unwrap();
    for (i, &source) in sources.iter().enumerate() {
        serial_server.submit(request(
            "acme",
            "g",
            QueryKind::Sssp { source },
            i as f64 * 1e12,
        ));
    }
    let serial = serial_server.run();

    let mut serial_billed = Nanos::ZERO;
    for (q, response) in serial.iter().enumerate() {
        let output = response.outcome.as_ref().unwrap();
        assert_eq!(batch_output.values[q], output.values[0], "source {q}");
        assert_eq!(
            batch_output.iterations[q], output.iterations[0],
            "source {q}"
        );
        serial_billed += response.billed_ns;
    }
    assert!(
        batch[0].billed_ns < serial_billed,
        "batch {} ns should beat serial {} ns",
        batch[0].billed_ns,
        serial_billed
    );
}

#[test]
fn per_tenant_billing_conserves_bit_exactly() {
    let mut config = ServerConfig::new(GaasXConfig::small());
    config.lanes = 1;
    config.queue_capacity = 2;
    config.default_deadline_ns = Some(Nanos::from_ns(50_000.0));
    let mut server = Server::new(config);
    server.register_graph("g", rmat(500, 15)).unwrap();
    server.register_graph("h", rmat(300, 16)).unwrap();
    let tenants = ["alpha", "beta", "gamma"];
    for i in 0..9 {
        let kind = match i % 3 {
            0 => QueryKind::Bfs { source: i as u32 },
            1 => QueryKind::Sssp { source: i as u32 },
            _ => QueryKind::BatchBfs {
                sources: vec![0, i as u32],
            },
        };
        let graph = if i % 2 == 0 { "g" } else { "h" };
        server.submit(request(tenants[i % 3], graph, kind, i as f64 * 10.0));
    }
    let responses = server.run();
    assert_eq!(responses.len(), 9);

    // Recompute per-tenant bills from the response stream: bills are
    // integer ticks, so this fold reproduces the ledger totals exactly.
    let mut recomputed: BTreeMap<&str, Nanos> = BTreeMap::new();
    for response in &responses {
        *recomputed
            .entry(response.tenant.as_str())
            .or_insert(Nanos::ZERO) += response.billed_ns;
    }
    for (tenant, &billed) in &recomputed {
        assert_eq!(
            server.ledger().billed_ns(tenant).ns().to_bits(),
            billed.ns().to_bits(),
            "tenant {tenant}"
        );
    }
    let total: Nanos = recomputed.values().copied().sum();
    assert_eq!(
        server.ledger().total_billed_ns().ns().to_bits(),
        total.ns().to_bits(),
        "per-tenant sums must reproduce the total exactly"
    );
    // Every query got a typed answer and was accounted exactly once.
    let stats = server.stats();
    assert_eq!(
        stats.admitted + stats.rejected_overload + stats.rejected_quota + stats.rejected_unknown,
        9
    );
}

#[test]
fn an_empty_graph_is_rejected_at_registration() {
    let mut server = Server::new(ServerConfig::new(GaasXConfig::small()));
    match server.register_graph("void", CooGraph::empty(0)) {
        Err(e @ ServeError::EmptyGraph { .. }) => {
            assert!(e.is_rejection());
            assert!(e.to_string().contains("\"void\""), "{e}");
        }
        other => panic!("want EmptyGraph, got {other:?}"),
    }
    assert!(server.graph("void").is_none());
    // Vertices without edges still form a servable graph.
    server
        .register_graph("isolated", CooGraph::empty(3))
        .unwrap();
    server.submit(request(
        "acme",
        "isolated",
        QueryKind::Bfs { source: 2 },
        0.0,
    ));
    let responses = server.run();
    let output = responses[0].outcome.as_ref().unwrap();
    assert_eq!(output.values[0], vec![f64::INFINITY, f64::INFINITY, 0.0]);
}

#[test]
fn a_negative_weight_fails_resident_sssp_but_not_bfs() {
    let g = CooGraph::from_edges(
        3,
        vec![
            gaasx_graph::Edge::new(0, 1, 2.0),
            gaasx_graph::Edge::new(1, 2, -1.0),
        ],
    )
    .unwrap();
    let mut server = Server::new(ServerConfig::new(GaasXConfig::small()));
    server.register_graph("neg", g).unwrap();
    let kinds = [
        QueryKind::Sssp { source: 0 },
        QueryKind::BatchSssp {
            sources: vec![0, 1],
        },
        QueryKind::Bfs { source: 0 },
        QueryKind::BatchBfs {
            sources: vec![0, 1],
        },
    ];
    let ids: Vec<u64> = kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| server.submit(request("acme", "neg", kind.clone(), i as f64 * 1e9)))
        .collect();
    let responses = server.run();
    let outcome = |id: u64| &responses.iter().find(|r| r.id == id).unwrap().outcome;
    for &id in &ids[..2] {
        match outcome(id) {
            Err(ServeError::Query(gaasx_core::CoreError::InvalidInput(msg))) => {
                assert!(msg.contains("negative edge weight"), "{msg}");
            }
            other => panic!("want InvalidInput, got {other:?}"),
        }
    }
    let bfs = outcome(ids[2]).as_ref().unwrap();
    assert_eq!(bfs.values[0], vec![0.0, 1.0, 2.0]);
    let batch = outcome(ids[3]).as_ref().unwrap();
    assert_eq!(batch.values[1], vec![f64::INFINITY, 0.0, 1.0]);
    assert_eq!(server.stats().failed_query, 2);
    assert_eq!(server.stats().completed, 2);
}
