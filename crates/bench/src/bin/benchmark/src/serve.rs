//! The serving workload: a synthetic query trace drained by a
//! `gaasx_serve::Server` with two lanes over three graphs, of which only
//! two fit on the banks at once.
//!
//! The trace is synthetic. Its query mix, graph split, graph sizes and
//! arrival rate are chosen, not taken from a measured trace; arrivals form
//! a Poisson process on the modeled clock.
//!
//! The trace is cut into segments of [`SEGMENT`] queries. A cycle is one
//! server serving the whole trace, one `Server::run` per segment, so
//! residency and the LRU order carry from each segment to the next; only
//! the lanes start idle again. A pass, one segment, is short enough to sit
//! between two calibration samples, which one `Server::run` over the whole
//! trace is not. The modeled latency and energy pool the first cycle, so
//! the p99 sees the whole trace.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gaasx_baselines::reference;
use gaasx_core::{GaasXConfig, ShardedEngine};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::{CooGraph, VertexId};
use gaasx_serve::{QueryKind, QueryRequest, QueryResponse, Server, ServerConfig, ServerStats};
use gaasx_sim::{Nanos, RunReport, Tracer};

use crate::heap;
use crate::layers::{device_metrics, overlap_ratio, time_partition, LayerSamples};
use crate::stats::{median, min_samples_for, percentile, Calibration, SplitMix, Timing};
use crate::timed::{run_cold, run_warm, same_report, timed_drop, Exec, Job, Output};
use crate::{sample_loop, Outcome, Tally, MIN_TRACED, SETUP_REPS};

const GRAPHS: [&str; 3] = ["orders", "social", "web"];
const TENANTS: [&str; 3] = ["acme", "bolt", "carbon"];
const LANES: usize = 2;
const JOBS: usize = 1;
/// Mean modeled time between arrivals: about 0.7 of what two lanes serve.
const MEAN_INTERVAL_NS: f64 = 8_000.0;
/// Seed of the gaps between arrivals. They are drawn once and shared by
/// every `--seed`, like a recorded trace: drawn per seed, the p99 latency
/// moved by a fifth from one draw to the next (quartile spread over ten
/// seeds), which would hide any change to the server.
const ARRIVAL_SEED: u64 = 0xA221_7A15;
/// Queries per segment (and per pass).
const SEGMENT: usize = 40;
/// The admission queue holds a whole segment, so no query is shed.
const QUEUE: usize = SEGMENT;
/// Queries of each kind in a segment: 50% BFS, 25% SSSP, 12.5% 4-source
/// batch BFS, 12.5% 2-source batch SSSP.
const KIND_COUNTS: [usize; 4] = [20, 10, 5, 5];
/// Queries on each graph in a segment: 60/30/10%.
const GRAPH_COUNTS: [usize; 3] = [24, 12, 4];

#[derive(Debug, Clone, Copy)]
struct Spec {
    vertices: u32,
    edges: usize,
    segments: usize,
}

impl Spec {
    fn new(smoke: bool) -> Spec {
        if smoke {
            Spec {
                vertices: 256,
                edges: 1_500,
                segments: 3,
            }
        } else {
            Spec {
                vertices: 2_048,
                edges: 10_000,
                segments: 25,
            }
        }
    }

    /// Room for two of the three graphs, so the third evicts one.
    fn capacity_edges(self) -> usize {
        self.edges * 5 / 2
    }

    fn server_config(self) -> ServerConfig {
        let mut config = ServerConfig::new(GaasXConfig::paper());
        config.jobs = JOBS;
        config.lanes = LANES;
        config.queue_capacity = QUEUE;
        config.capacity_edges = self.capacity_edges();
        config
    }
}

#[derive(Debug, Clone)]
struct Query {
    tenant: &'static str,
    graph: usize,
    job: Job,
    /// Modeled arrival time from the start of the query's segment.
    arrival_ns: f64,
}

impl Query {
    fn request(&self) -> QueryRequest {
        let kind = match &self.job {
            Job::Bfs { source } => QueryKind::Bfs { source: *source },
            Job::Sssp { source } => QueryKind::Sssp { source: *source },
            Job::BatchBfs { sources } => QueryKind::BatchBfs {
                sources: sources.clone(),
            },
            Job::BatchSssp { sources } => QueryKind::BatchSssp {
                sources: sources.clone(),
            },
            other => unreachable!("not a served query: {other:?}"),
        };
        QueryRequest {
            tenant: self.tenant.into(),
            graph: GRAPHS[self.graph].into(),
            kind,
            arrival_ns: Nanos::from_ns(self.arrival_ns),
            deadline_ns: None,
        }
    }

    /// `(weighted, sources)` of the traversals the query asks for.
    fn traversals(&self) -> (bool, Vec<u32>) {
        match &self.job {
            Job::Bfs { source } => (false, vec![*source]),
            Job::Sssp { source } => (true, vec![*source]),
            Job::BatchBfs { sources } => (false, sources.clone()),
            Job::BatchSssp { sources } => (true, sources.clone()),
            _ => (false, Vec::new()),
        }
    }
}

struct Inputs {
    spec: Spec,
    graphs: Vec<CooGraph>,
    trace: Vec<Query>,
}

/// `counts[i]` copies of each `i`, in a seeded random order.
fn shuffled(counts: &[usize], rng: &mut SplitMix) -> Vec<usize> {
    let mut v: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| std::iter::repeat(i).take(n))
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Three RMAT graphs and the query trace. Every segment holds the exact
/// kind and graph mix in a random order; sources are uniform over the
/// vertices with edges, tenants uniform, and the gaps between arrivals
/// exponential with mean [`MEAN_INTERVAL_NS`], drawn from [`ARRIVAL_SEED`].
fn generate(spec: Spec, seed: u64) -> Result<Inputs, String> {
    let mut rng = SplitMix(seed ^ 0x5E77_E000);
    let mut gaps = SplitMix(ARRIVAL_SEED);
    let graphs = GRAPHS
        .iter()
        .map(|_| rmat(&RmatConfig::new(spec.vertices, spec.edges).with_seed(rng.next_u64())))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let sources: Vec<Vec<u32>> = graphs
        .iter()
        .map(|g| {
            let deg = g.out_degrees();
            (0..deg.len() as u32)
                .filter(|&v| deg[v as usize] > 0)
                .collect()
        })
        .collect();
    let mut trace = Vec::with_capacity(spec.segments * SEGMENT);
    for _ in 0..spec.segments {
        let kinds = shuffled(&KIND_COUNTS, &mut rng);
        let on_graph = shuffled(&GRAPH_COUNTS, &mut rng);
        let mut arrival_ns = 0.0;
        for (i, (kind, graph)) in kinds.into_iter().zip(on_graph).enumerate() {
            if i > 0 {
                arrival_ns -= MEAN_INTERVAL_NS * gaps.unit().ln();
            }
            let pool = &sources[graph];
            let mut pick = |k: usize| -> Vec<u32> {
                (0..k)
                    .map(|_| pool[rng.below(pool.len() as u64) as usize])
                    .collect()
            };
            let job = match kind {
                0 => Job::Bfs { source: pick(1)[0] },
                1 => Job::Sssp { source: pick(1)[0] },
                2 => Job::BatchBfs { sources: pick(4) },
                _ => Job::BatchSssp { sources: pick(2) },
            };
            trace.push(Query {
                tenant: TENANTS[rng.below(3) as usize],
                graph,
                job,
                arrival_ns,
            });
        }
    }
    Ok(Inputs {
        spec,
        graphs,
        trace,
    })
}

impl Inputs {
    fn segment(&self, j: usize) -> &[Query] {
        &self.trace[j * SEGMENT..(j + 1) * SEGMENT]
    }

    /// A new server with every graph registered and nothing programmed.
    fn server(&self) -> Result<Server, String> {
        let mut server = Server::new(self.spec.server_config());
        for (name, g) in GRAPHS.iter().zip(&self.graphs) {
            server
                .register_graph(name, g.clone())
                .map_err(|e| e.to_string())?;
        }
        Ok(server)
    }

    /// Registration plus the first query on each graph: what a server
    /// pays before it serves traffic.
    fn warm_server(&self) -> Result<(), String> {
        let mut server = self.server()?;
        for g in 0..GRAPHS.len() {
            let first = self
                .trace
                .iter()
                .find(|q| q.graph == g && matches!(q.job, Job::Bfs { .. }));
            if let Some(q) = first {
                server.submit(q.request());
            }
        }
        match server.run().into_iter().find(|r| r.outcome.is_err()) {
            Some(r) => Err(format!("set-up query failed: {:?}", r.outcome.err())),
            None => Ok(()),
        }
    }

    /// The mean modeled time between arrivals in the trace; each segment
    /// starts at time 0.
    fn mean_interval_ns(&self) -> f64 {
        let spans: f64 = (0..self.spec.segments)
            .filter_map(|j| self.segment(j).last())
            .map(|q| q.arrival_ns)
            .sum();
        spans / self.trace.len().saturating_sub(self.spec.segments).max(1) as f64
    }
}

/// Oracle answers for every traversal in the trace.
struct Oracles(BTreeMap<(usize, bool, u32), Vec<f64>>);

impl Oracles {
    fn new(inputs: &Inputs) -> Oracles {
        let mut map = BTreeMap::new();
        for q in &inputs.trace {
            let (weighted, sources) = q.traversals();
            for s in sources {
                map.entry((q.graph, weighted, s)).or_insert_with(|| {
                    let g = &inputs.graphs[q.graph];
                    if weighted {
                        reference::dijkstra(g, VertexId::new(s))
                    } else {
                        reference::bfs(g, VertexId::new(s))
                    }
                });
            }
        }
        Oracles(map)
    }

    fn check(&self, q: &Query, values: &[Vec<f64>]) -> Result<(), String> {
        let (weighted, sources) = q.traversals();
        if values.len() != sources.len() {
            return Err(format!(
                "{} answers for {} sources",
                values.len(),
                sources.len()
            ));
        }
        for (s, got) in sources.iter().zip(values) {
            if self.0.get(&(q.graph, weighted, *s)) != Some(got) {
                return Err(format!(
                    "{} from {s} on {} differs from the oracle",
                    q.job.label(),
                    GRAPHS[q.graph]
                ));
            }
        }
        Ok(())
    }
}

/// One server serving the trace from its first segment on.
struct Cycle {
    server: Server,
    /// The segment the next pass serves.
    next: usize,
    /// Per-tenant sums of the responses' bills, in completion order.
    billed: BTreeMap<String, Nanos>,
}

impl Cycle {
    fn new(inputs: &Inputs) -> Result<Cycle, String> {
        Ok(Cycle {
            server: inputs.server()?,
            next: 0,
            billed: BTreeMap::new(),
        })
    }

    fn done(&self, inputs: &Inputs) -> bool {
        self.next == inputs.spec.segments
    }

    /// Serves the next segment. Only `Server::run` is timed.
    fn pass(&mut self, inputs: &Inputs) -> Pass {
        let segment = self.next;
        self.next += 1;
        let mut first_id = None;
        for q in inputs.segment(segment) {
            let id = self.server.submit(q.request());
            first_id.get_or_insert(id);
        }
        let t = Instant::now();
        let responses = self.server.run();
        let raw_s = t.elapsed().as_secs_f64();
        for r in &responses {
            *self.billed.entry(r.tenant.clone()).or_insert(Nanos::ZERO) += r.billed_ns;
        }
        Pass {
            segment,
            first_id: first_id.unwrap_or(0),
            raw_s,
            responses,
        }
    }

    /// Every admitted query billed once: per-tenant sums of the responses'
    /// bills, in completion order, equal the ledger bit for bit, and so
    /// does their lexicographic total.
    fn check_ledger(&self) -> Result<(), String> {
        let ledger = self.server.ledger();
        let mut total = Nanos::ZERO;
        for (tenant, billed) in &self.billed {
            if ledger.billed_ns(tenant).ns().to_bits() != billed.ns().to_bits() {
                return Err(format!(
                    "tenant {tenant}: ledger differs from the summed bills"
                ));
            }
            total += *billed;
        }
        if ledger.total_billed_ns().ns().to_bits() != total.ns().to_bits() {
            return Err("tenant bills do not sum to the ledger total".into());
        }
        Ok(())
    }
}

/// One segment served.
struct Pass {
    segment: usize,
    /// The server's id of the segment's first query.
    first_id: u64,
    raw_s: f64,
    responses: Vec<QueryResponse>,
}

impl Pass {
    /// Position in the segment of the query a response answers.
    fn offset(&self, r: &QueryResponse) -> u64 {
        r.id - self.first_id
    }

    /// Position in the whole trace of the query a response answers.
    fn index(&self, r: &QueryResponse) -> usize {
        self.segment * SEGMENT + self.offset(r) as usize
    }

    /// Checks every response against the oracle.
    fn check(&self, inputs: &Inputs, oracles: &Oracles, tally: &mut Tally) {
        for r in &self.responses {
            let q = &inputs.trace[self.index(r)];
            tally.record(match &r.outcome {
                Ok(out) => oracles.check(q, &out.values),
                Err(e) => Err(format!("query {}: {e}", self.index(r))),
            });
        }
    }

    fn completed(&self) -> impl Iterator<Item = (&QueryResponse, &RunReport)> {
        self.responses
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|out| (r, &out.report)))
    }

    /// The modeled schedule, bit for bit.
    fn schedule(&self) -> Vec<[u64; 4]> {
        self.responses
            .iter()
            .map(|r| {
                [
                    self.offset(r),
                    r.start_ns.ns().to_bits(),
                    r.finish_ns.ns().to_bits(),
                    r.billed_ns.ns().to_bits(),
                ]
            })
            .collect()
    }
}

struct Setup {
    inputs: Inputs,
    oracles: Oracles,
    /// Input generation alone, and generation plus server set-up.
    generate: Vec<Timing>,
    setup: Vec<Timing>,
}

fn prepare(seed: u64, smoke: bool, cal: &mut Calibration) -> Result<Setup, String> {
    let spec = Spec::new(smoke);
    let mut generate_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let at = cal.sample();
        let t = Instant::now();
        let generated = generate(spec, seed)?;
        generate_s.push((t.elapsed().as_secs_f64(), at));
        generated.warm_server()?;
        setup_s.push((t.elapsed().as_secs_f64(), at));
        inputs = Some(generated);
    }
    let inputs = inputs.ok_or("no set-up repetition ran")?;
    let oracles = Oracles::new(&inputs);
    Ok(Setup {
        inputs,
        oracles,
        generate: generate_s,
        setup: setup_s,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Outcome, String> {
    let mut cal = Calibration::default();
    let setup = prepare(seed, smoke, &mut cal)?;
    if trace {
        traced(&setup, seconds, cal)
    } else {
        // One cycle over every segment, and 40 passes for the p75; a smoke
        // run only checks answers.
        let segments = setup.inputs.spec.segments;
        let min_passes = if smoke {
            segments
        } else {
            segments.max(min_samples_for(0.75))
        };
        untraced(&setup, seconds, min_passes, cal)
    }
}

fn untraced(
    setup: &Setup,
    seconds: f64,
    min_passes: usize,
    mut cal: Calibration,
) -> Result<Outcome, String> {
    let Setup {
        inputs, oracles, ..
    } = setup;
    let segments = inputs.spec.segments;
    let mut tally = Tally::default();
    let heap_base = heap::mark();
    let mut cycle = Cycle::new(inputs)?;
    // What the first cycle did: the modeled schedule of each segment, which
    // later cycles must repeat, and the latency and energy of each query.
    let mut schedules: Vec<Vec<[u64; 4]>> = Vec::with_capacity(segments);
    let mut latency_us = Vec::with_capacity(inputs.trace.len());
    let mut energy_nj = 0.0;
    let mut completed = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let passes = sample_loop(&mut cal, deadline, min_passes, |_| {
        if cycle.done(inputs) {
            // The finished server, banks and all, goes before the next
            // one programs any.
            match Cycle::new(inputs) {
                Ok(next) => cycle = next,
                Err(e) => {
                    tally.invariant(Err(e));
                    return 0.0;
                }
            }
        }
        let pass = cycle.pass(inputs);
        pass.check(inputs, oracles, &mut tally);
        tally.invariant(cycle.check_ledger());
        completed.push(pass.completed().count() as f64);
        let schedule = pass.schedule();
        match schedules.get(pass.segment) {
            None => {
                for (r, report) in pass.completed() {
                    latency_us.push((r.finish_ns - r.arrival_ns).ns() / 1e3);
                    energy_nj += report.energy.total_nj().nj();
                }
                schedules.push(schedule);
            }
            Some(first) => tally.invariant(if *first == schedule {
                Ok(())
            } else {
                Err(format!(
                    "segment {}: modeled schedule differs between cycles",
                    pass.segment
                ))
            }),
        }
        pass.raw_s
    });
    if schedules.len() < segments {
        return Err(format!(
            "only {} of {segments} segments served",
            schedules.len()
        ));
    }
    let run_s = cal.refs(&passes);
    let qps: Vec<f64> = completed.iter().zip(&run_s).map(|(n, s)| n / s).collect();
    let metrics = vec![
        ("run_s_p50", percentile(&run_s, 0.5).unwrap_or(f64::NAN)),
        ("run_s_p75", percentile(&run_s, 0.75).unwrap_or(f64::NAN)),
        ("qps", median(&qps).unwrap_or(f64::NAN)),
        (
            "latency_p50_us",
            percentile(&latency_us, 0.5).unwrap_or(f64::NAN),
        ),
        (
            "latency_p99_us",
            percentile(&latency_us, 0.99).unwrap_or(f64::NAN),
        ),
        (
            "energy_uj_per_query",
            energy_nj / 1e3 / latency_us.len().max(1) as f64,
        ),
        ("setup_s", cal.median_ref(&setup.setup)),
        ("peak_heap_mb", heap::peak_above_mb(heap_base)),
    ];
    Ok(Outcome { tally, metrics })
}

fn traced(setup: &Setup, seconds: f64, mut cal: Calibration) -> Result<Outcome, String> {
    let Setup {
        inputs, oracles, ..
    } = setup;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let config = inputs.spec.server_config().accel;
    let mut tally = Tally::default();

    // One cycle, for the server's counters and the reports the replay
    // below must reproduce.
    let mut cycle = Cycle::new(inputs)?;
    let mut passes = Vec::with_capacity(inputs.spec.segments);
    while !cycle.done(inputs) {
        cal.sample();
        let pass = cycle.pass(inputs);
        pass.check(inputs, oracles, &mut tally);
        tally.invariant(cycle.check_ledger());
        passes.push(pass);
    }
    let mut served: Vec<Option<&RunReport>> = vec![None; inputs.trace.len()];
    for pass in &passes {
        for (r, report) in pass.completed() {
            served[pass.index(r)] = Some(report);
        }
    }

    // Replay the trace query by query on engines the benchmark owns:
    // untraced cold, traced cold (checked against the server's report),
    // and warm on a resident engine per graph. Each run comes right after
    // a calibration sample, and their order rotates from query to query.
    let mut resident = GRAPHS
        .iter()
        .map(|_| ShardedEngine::build(&config, JOBS))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut layers = LayerSamples::default();
    let mut next = 0usize;
    sample_loop(&mut cal, deadline, MIN_TRACED, |cal| {
        let t = Instant::now();
        let id = next % inputs.trace.len();
        let q = &inputs.trace[id];
        let (graph, name) = (&inputs.graphs[q.graph], GRAPHS[q.graph]);
        let check = |out: &Output| oracles.check(q, &out.values);
        for k in 0..3 {
            let at = if k == 0 { cal.latest() } else { cal.sample() };
            let result = match (next + k) % 3 {
                0 => run_cold::<ShardedEngine>(
                    &q.job,
                    graph,
                    name,
                    &config,
                    JOBS,
                    Tracer::null(),
                    false,
                )
                .map_err(|e| e.to_string())
                .and_then(|run| {
                    check(&run.output)?;
                    layers
                        .untraced
                        .push((run.layers.wall + timed_drop(run.exec), at));
                    Ok(())
                }),
                1 => run_cold::<ShardedEngine>(
                    &q.job,
                    graph,
                    name,
                    &config,
                    JOBS,
                    Tracer::null(),
                    true,
                )
                .map_err(|e| e.to_string())
                .and_then(|run| {
                    check(&run.output)?;
                    if !served[id].is_some_and(|want| same_report(&run.report, want)) {
                        return Err(format!(
                            "query {id}: replayed report differs from the server's"
                        ));
                    }
                    let drop_s = timed_drop(run.exec);
                    let searches = run.report.ops.cam_searches;
                    layers.push(&run.layers, drop_s, searches, time_partition(graph)?, at);
                    Ok(())
                }),
                _ => run_warm(&mut resident[q.graph], &q.job, graph, name)
                    .map_err(|e| e.to_string())
                    .and_then(|(out, _, wall)| {
                        check(&out)?;
                        layers.warm.push((wall, at));
                        Ok(())
                    }),
            };
            tally.record(result);
        }
        next += 1;
        t.elapsed().as_secs_f64()
    });
    if layers.traced() < MIN_TRACED {
        return Err(format!("only {} traced queries completed", layers.traced()));
    }

    let q0 = &inputs.trace[0];
    let overlap = overlap_ratio::<ShardedEngine>(
        &q0.job,
        &inputs.graphs[q0.graph],
        GRAPHS[q0.graph],
        &config,
        JOBS,
    )?;
    let (mut wait, mut latency, mut service, mut n) = (0.0, 0.0, 0.0, 0.0f64);
    for (r, _) in passes.iter().flat_map(Pass::completed) {
        wait += (r.start_ns - r.arrival_ns).ns();
        latency += (r.finish_ns - r.arrival_ns).ns();
        service += (r.finish_ns - r.start_ns).ns();
        n += 1.0;
    }
    let stats = cycle.server.stats();
    let count = |f: fn(&ServerStats) -> u64| f(stats) as f64;
    let raw: Vec<f64> = passes.iter().map(|p| p.raw_s).collect();
    let mut metrics = vec![("graph.generate_s", cal.median_ref(&setup.generate))];
    metrics.extend(layers.metrics(&cal, median(&raw).unwrap_or(f64::NAN)));
    metrics.extend(device_metrics(
        passes
            .iter()
            .flat_map(Pass::completed)
            .map(|(_, report)| report),
        overlap,
    ));
    metrics.extend([
        (
            "serve.queue_wait_share",
            if latency > 0.0 { wait / latency } else { 0.0 },
        ),
        (
            "serve.offered_load",
            service / n.max(1.0) / inputs.mean_interval_ns() / LANES as f64,
        ),
        ("serve.reprograms", count(|s| s.reprograms)),
        ("serve.capacity_evictions", count(|s| s.capacity_evictions)),
        ("serve.rejected_overload", count(|s| s.rejected_overload)),
        ("serve.retries", count(|s| s.retries)),
    ]);
    Ok(Outcome { tally, metrics })
}
