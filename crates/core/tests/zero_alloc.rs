//! Regression test: the engine's block loop must not touch the heap once
//! its buffers are warm. The engine owns reusable key, hit-vector, chunk,
//! input, MAC-output, distinct-vertex and bitmap buffers that are sized on
//! the first pass; every later pass reuses them.
//!
//! Three shapes are measured. The steady-state PageRank inner loop — CAM
//! search plus selective MAC gather on an already-loaded block — probes
//! the clean field index and gathers into the warm buffers, also under CAM
//! upsets, where every search is physically voted (three rounds or more) into
//! engine-owned scratch vectors. A whole frontier-filtered sweep over a
//! deep-bank shard — chunking, the frontier filter, every block load, the
//! distinct-source derivation, one search per frontier source and per
//! block for the shard's hub (each reload rebuilds the bucket field index;
//! a hub search fills hundreds of hit rows) and one propagate per search —
//! allocates nothing either. Neither does a dense paper-bank sweep that
//! programs each block's MAC cells in one bank write, one and two codes
//! per edge, and derives both distinct lists (the destination path and
//! the bitmap buffer), with one search and gather per destination, and
//! neither does that sweep on an engine traced through a [`NullSink`]:
//! the tracer skips every span before building it, which is what keeps
//! the NullSink overhead bar.
//!
//! The test installs a counting global allocator, warms the engine with two
//! full passes, then asserts a third pass performs zero allocations. It
//! lives in its own integration-test binary so no concurrently-running test
//! can disturb the counter.

#![allow(clippy::unwrap_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gaasx_core::algorithms::{traverse, Sssp};
use gaasx_core::engine::{partition_for_streaming, CellLayout, Engine, Keys};
use gaasx_core::{GaasXConfig, RecoveryPolicy, ShardedEngine};
use gaasx_graph::partition::TraversalOrder;
use gaasx_graph::{generators, Edge, VertexId};
use gaasx_sim::{NullSink, Phase, Tracer};
use gaasx_xbar::{FaultModel, HitVector};

/// Counts every allocation and reallocation made through the global
/// allocator; deallocations are free.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every measured configuration runs in this one test, one after the
/// other, so they never share the counter concurrently.
#[test]
fn steady_state_search_and_gather_allocate_nothing() {
    measure_steady_state(GaasXConfig::small());
    // Under CAM upsets every search is physically voted, three rounds or
    // more; the vote must reuse the engine's scratch.
    measure_steady_state(GaasXConfig {
        fault: FaultModel {
            seed: 3,
            cam_upset_rate: 0.5,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::standard(),
        ..GaasXConfig::small()
    });
    measure_frontier_sweep(GaasXConfig {
        num_banks: 8,
        ..GaasXConfig::deep_bank()
    });
    // One weight per MAC row (PageRank's shape) and two (traversal's).
    measure_dense_sweep(GaasXConfig::small(), 1, Tracer::null());
    measure_dense_sweep(GaasXConfig::small(), 2, Tracer::null());
    // A tracer wired to a sink that observes no spans costs nothing.
    measure_dense_sweep(
        GaasXConfig::small(),
        1,
        Tracer::with_sink(Arc::new(NullSink)),
    );
    measure_warm_traversals(1);
    measure_warm_traversals(2);
}

/// Sweeps the largest shard of a paper-bank partition the way PageRank
/// does: every block loads with per-edge MAC cells `width` codes wide,
/// both distinct lists are derived, and each destination is searched and
/// gathered, with `tracer` attached. Two warm-up sweeps size every
/// buffer; the third must allocate nothing. Each sweep starts from a
/// clean bill, as a resident engine's queries do, so the per-block cost
/// ledger refills its kept capacity.
fn measure_dense_sweep(config: GaasXConfig, width: usize, tracer: Tracer) {
    let graph =
        generators::rmat(&generators::RmatConfig::new(1 << 10, 20_000).with_seed(7)).unwrap();
    let grid = partition_for_streaming(&graph).unwrap();
    let shard = grid
        .stream(TraversalOrder::RowMajor)
        .max_by_key(|s| s.edges().len())
        .unwrap();
    let mut engine = Engine::new(config).unwrap();
    let traced = tracer.enabled();
    engine.set_tracer(tracer);
    assert!(
        shard.edges().len() > 2 * engine.block_capacity(),
        "the shard spans {} edges",
        shard.edges().len()
    );
    // The last column holds a constant 1, the one the gathers read.
    let cells = |edges: &[Edge], c: &mut Vec<u32>| {
        for e in edges {
            c.extend_from_slice(&[e.weight as u32, 1][2 - width..]);
        }
    };
    let mut hits = HitVector::new(0);
    let mut sweep = |engine: &mut Engine| {
        let (mut loads, mut srcs, mut total) = (0, 0, 0u64);
        engine
            .sweep(
                shard.edges(),
                CellLayout::PerEdge {
                    width,
                    fill: &cells,
                },
                Keys::Both,
                |_| true,
                |engine, block| {
                    loads += 1;
                    srcs += block.srcs().count();
                    for dst in block.dsts() {
                        engine.search_dst_into(dst, &mut hits);
                        total += engine.gather_rows(&hits, |_| 1, width - 1)?;
                    }
                    Ok(())
                },
            )
            .unwrap();
        (loads, srcs, total)
    };
    engine.reset_accounting();
    let warm = sweep(&mut engine);
    engine.reset_accounting();
    assert_eq!(sweep(&mut engine), warm);
    engine.reset_accounting();
    let before = ALLOCS.load(Ordering::SeqCst);
    let measured = sweep(&mut engine);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(measured, warm, "the measured sweep repeats the work");
    assert!(warm.0 > 2 && warm.2 > 0, "the sweep must do real work");
    assert_eq!(
        allocs, 0,
        "a warm width-{width} dense sweep of {} blocks (traced: {traced}) performed {allocs} \
         heap allocations",
        warm.0
    );
}

/// Sweeps the largest shard of a deep-bank partition the way a frontier
/// traversal does: only blocks whose source words meet the frontier
/// bitset load, and each block's sources set in a probe bitset (the
/// frontier plus the shard's hub, whose hit lists run to hundreds of rows)
/// are searched and propagated through the engine's own buffers. Two
/// warm-up sweeps size every buffer; the third must allocate nothing.
fn measure_frontier_sweep(config: GaasXConfig) {
    let graph =
        generators::rmat(&generators::RmatConfig::new(1 << 10, 100_000).with_seed(5)).unwrap();
    let grid = partition_for_streaming(&graph).unwrap();
    let shard = grid
        .stream(TraversalOrder::RowMajor)
        .max_by_key(|s| s.edges().len())
        .unwrap();
    let mut engine = Engine::new(config).unwrap();
    engine.preset_mac(1).unwrap();
    let blocks: Vec<&[Edge]> = shard.edges().chunks(engine.block_capacity()).collect();
    assert!(blocks.len() >= 3, "the shard spans {} blocks", blocks.len());
    let words = (graph.num_vertices() as usize).div_ceil(64);
    let set = |bits: &mut Vec<u64>, v: usize, on: bool| {
        if on {
            bits[v / 64] |= 1 << (v % 64);
        } else {
            bits[v / 64] &= !(1 << (v % 64));
        }
    };
    // The frontier: the last block's sources that the first block lacks,
    // so the filter skips at least the first block.
    let mut frontier = vec![0u64; words];
    blocks[blocks.len() - 1]
        .iter()
        .for_each(|e| set(&mut frontier, e.src.index(), true));
    blocks[0]
        .iter()
        .for_each(|e| set(&mut frontier, e.src.index(), false));
    // The shard's hub, its most frequent source, is searched in every
    // loaded block too: hundreds of hits, far past one MAC burst.
    let mut degree = vec![0usize; graph.num_vertices() as usize];
    shard
        .edges()
        .iter()
        .for_each(|e| degree[e.src.index()] += 1);
    let hub = (0..degree.len()).max_by_key(|&v| degree[v]).unwrap();
    let mut probe = frontier.clone();
    set(&mut probe, hub, true);
    let sweep = |engine: &mut Engine| {
        let (mut loads, mut searches, mut most_hits) = (0, 0, 0);
        engine
            .sweep(
                shard.edges(),
                CellLayout::Preset,
                Keys::Srcs,
                |block| block.has_src_in(&frontier),
                |engine, block| {
                    loads += 1;
                    for src in block.srcs_in(&probe) {
                        let results = engine.propagate_src(src, &[0, 1], &[1, 2])?;
                        searches += usize::from(!results.is_empty());
                        most_hits = most_hits.max(results.len());
                    }
                    Ok(())
                },
            )
            .unwrap();
        (loads, searches, most_hits)
    };
    let warm = sweep(&mut engine);
    assert_eq!(sweep(&mut engine), warm);
    let before = ALLOCS.load(Ordering::SeqCst);
    let (loads, searches, most_hits) = sweep(&mut engine);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        (loads, searches, most_hits),
        warm,
        "the measured sweep repeats the work"
    );
    assert!(loads > 0 && searches > 0, "the sweep must do real work");
    assert!(most_hits > 64, "the hub search hit only {most_hits} rows");
    assert!(
        loads < blocks.len(),
        "the frontier filter must skip a block"
    );
    assert_eq!(
        allocs, 0,
        "a warm sweep of {loads} blocks and {searches} searches performed {allocs} heap allocations"
    );
}

/// Allocations a warm traversal may make per superstep whatever the graph:
/// the shard pass's result vector, each worker's per-pass yield vector,
/// the merge's per-worker cursors and, above one job, the scoped threads.
/// The row-major shard stream walks the partition in place.
const PER_SUPERSTEP: u64 = 22;

/// Allocations a traversal may make once per query: its distance and
/// frontier vectors (one per source plus the outer vector each), the
/// reused next-frontier bitset, and the iteration, done and active flags.
fn per_query(sources: usize) -> u64 {
    2 * (sources as u64 + 1) + 4
}

/// Runs BFS, SSSP and a 2-source batch SSSP on a resident
/// [`ShardedEngine`] the way a server does — [`traverse`] over a grid
/// partitioned once, weights checked once, `finish` and
/// `reset_accounting` between queries — and bounds the third, warm run
/// of each: at most one allocation per (loaded shard, query), which is
/// the exactly sized candidate vector a shard returns, plus
/// [`PER_SUPERSTEP`] per superstep and [`per_query`] once. Every shard
/// fits one block, so the report's block loads count the loaded shards.
fn measure_warm_traversals(jobs: usize) {
    // A uniform graph of serve-mixed's size: 256 shards of about 39 edges.
    let graph =
        generators::erdos_renyi(&generators::ErdosRenyiConfig::new(2_048, 10_000).with_seed(13))
            .unwrap();
    let grid = partition_for_streaming(&graph).unwrap();
    let config = GaasXConfig::small();
    let capacity = Engine::new(config.clone()).unwrap().block_capacity();
    assert!(
        grid.shards().all(|s| s.num_edges() <= capacity),
        "every shard must fit one block"
    );
    let quant = Sssp::check_weights(&grid, config.mac_geometry.weight_bits()).unwrap();
    let mut exec = ShardedEngine::new(config, jobs).unwrap();
    let ids = |ids: &[u32]| ids.iter().copied().map(VertexId::new).collect::<Vec<_>>();
    let queries = [
        ("bfs", None, ids(&[0])),
        ("sssp", Some(&quant), ids(&[0])),
        ("sssp_batch", Some(&quant), ids(&[0, 3])),
    ];
    for (name, weights, sources) in queries {
        let run = |exec: &mut ShardedEngine| {
            let before = ALLOCS.load(Ordering::SeqCst);
            let out = traverse(exec, &grid, weights, &sources, u32::MAX).unwrap();
            let allocs = ALLOCS.load(Ordering::SeqCst) - before;
            let supersteps = out.iterations.iter().copied().max().unwrap();
            let report = exec.finish("gaasx", name, "zero_alloc", supersteps, 10_000);
            exec.reset_accounting();
            let loads = report.phase(Phase::LoadBlock).map_or(0, |p| p.count);
            (out, allocs, loads, u64::from(supersteps))
        };
        let warm = run(&mut exec);
        assert_eq!(run(&mut exec).0, warm.0);
        let (out, allocs, loads, supersteps) = run(&mut exec);
        assert_eq!(out, warm.0, "the measured {name} query repeats the work");
        assert!(
            supersteps > 2 && loads > 2 * supersteps,
            "{name} must do real work"
        );
        let k = sources.len() as u64;
        let bound = loads * k + PER_SUPERSTEP * supersteps + per_query(sources.len());
        println!("{name} jobs={jobs}: {allocs} allocations, bound {bound} ({loads} loaded shards, {supersteps} supersteps)");
        assert!(
            allocs <= bound,
            "a warm {name} at jobs={jobs} made {allocs} allocations over {loads} loaded \
             shards and {supersteps} supersteps; the bound is {bound}"
        );
    }
}

/// Warms an engine with two full search+gather passes over one block,
/// then asserts a third pass performs zero allocations and the same work
/// (an upset is keyed by the load and the search, so a repeated search
/// glitches alike).
fn measure_steady_state(config: GaasXConfig) {
    let graph = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(11)).unwrap();
    let mut engine = Engine::new(config).unwrap();
    let capacity = engine.block_capacity();
    let chunk = &graph.edges()[..capacity];
    let mut dsts: Vec<_> = chunk.iter().map(|e| e.dst).collect();
    dsts.sort_unstable();
    dsts.dedup();

    let cells = |edges: &[Edge], c: &mut Vec<u32>| c.resize(edges.len(), 1);
    engine
        .load_block(
            chunk,
            CellLayout::PerEdge {
                width: 1,
                fill: &cells,
            },
        )
        .unwrap();
    let mut hits = HitVector::new(0);

    // Two warm passes: the first builds the field index and sizes the
    // engine's scratch buffers; the second probes the clean index and
    // settles every buffer at its steady-state capacity.
    let mut warm_total = 0u64;
    for _ in 0..2 {
        for &dst in &dsts {
            engine.search_dst_into(dst, &mut hits);
            warm_total += engine.gather_rows(&hits, |_| 1, 0).unwrap();
        }
    }
    assert!(warm_total > 0, "warm passes must do real work");

    // Measured pass: bit-for-bit the same work, zero heap traffic.
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut total = 0u64;
    for &dst in &dsts {
        engine.search_dst_into(dst, &mut hits);
        total += engine.gather_rows(&hits, |_| 1, 0).unwrap();
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    assert_eq!(
        total * 2,
        warm_total,
        "steady-state pass must match warm work"
    );
    assert_eq!(
        allocs, 0,
        "steady-state search+gather pass performed {allocs} heap allocations"
    );
}
