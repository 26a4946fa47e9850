//! Regression test: the steady-state PageRank inner loop — CAM search plus
//! selective MAC gather on an already-loaded block — must not touch the
//! heap. The engine owns reusable hit-vector, chunk, input, and MAC-output
//! buffers that are sized on the first pass; every later pass (the common
//! case: PageRank runs tens of iterations over the same blocks) probes the
//! clean field index and gathers into the warm buffers — nothing is
//! replayed. The same holds under CAM upsets, where every search is
//! physically triple-voted into engine-owned scratch vectors, and for a
//! frontier traversal on a deep bank, whose searches after every block
//! reload rebuild the chained field index in its warm buffers.
//!
//! The test installs a counting global allocator, warms the engine with two
//! full passes, then asserts a third pass performs zero allocations. It
//! lives in its own integration-test binary so no concurrently-running test
//! can disturb the counter.

#![allow(clippy::unwrap_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gaasx_core::engine::{CellLayout, Engine};
use gaasx_core::{GaasXConfig, RecoveryPolicy};
use gaasx_graph::{generators, Edge};
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

/// Both measured configurations run in this one test, one after the
/// other, so they never share the counter concurrently.
#[test]
fn steady_state_search_and_gather_allocate_nothing() {
    measure_steady_state(GaasXConfig::small(), true);
    // Under CAM upsets every search is physically triple-voted; the vote
    // must reuse the engine's scratch.
    measure_steady_state(
        GaasXConfig {
            fault: FaultModel {
                seed: 3,
                cam_upset_rate: 0.5,
                ..FaultModel::none()
            },
            recovery: RecoveryPolicy::standard(),
            ..GaasXConfig::small()
        },
        false,
    );
    measure_index_rebuilds(GaasXConfig {
        num_banks: 8,
        ..GaasXConfig::deep_bank()
    });
}

/// Loads three full deep-bank blocks and searches them the way a frontier
/// traversal does — two warm-up blocks, then the first one's edges in reverse order, a new key
/// sequence with the same distinct sources — and asserts the searches on
/// the third block allocate nothing: an index rebuild over every valid
/// row, then one probe per distinct source. (`load_block` itself is
/// outside the count: it returns an owned
/// [`Block`](gaasx_core::engine::Block).)
fn measure_index_rebuilds(config: GaasXConfig) {
    let graph = generators::rmat(&generators::RmatConfig::new(1 << 10, 5000).with_seed(5)).unwrap();
    let mut engine = Engine::new(config).unwrap();
    let capacity = engine.block_capacity();
    let first = &graph.edges()[..capacity];
    let reversed: Vec<Edge> = first.iter().rev().copied().collect();
    let chunks = [first, &graph.edges()[capacity..2 * capacity], &reversed];
    let mut hits = HitVector::new(0);
    let mut allocs = 0;
    for chunk in chunks {
        let block = engine.load_block(chunk, CellLayout::Preset).unwrap();
        let srcs = block.distinct_srcs(); // derived on first use
        let before = ALLOCS.load(Ordering::SeqCst);
        for &src in srcs {
            engine.search_src_into(src, &mut hits);
            assert!(hits.any());
        }
        allocs = ALLOCS.load(Ordering::SeqCst) - before;
    }
    assert_eq!(
        allocs, 0,
        "searches after a block reload performed {allocs} heap allocations"
    );
}

/// Warms an engine with two full search+gather passes over one block,
/// then asserts a third pass performs zero allocations. `repeatable`
/// additionally checks the third pass does the same work (false under
/// upsets, which glitch each search differently).
fn measure_steady_state(config: GaasXConfig, repeatable: bool) {
    let graph = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(11)).unwrap();
    let mut engine = Engine::new(config).unwrap();
    let capacity = engine.block_capacity();
    let chunk: Vec<Edge> = graph.edges().iter().take(capacity).copied().collect();

    let cells = |_e: &Edge, c: &mut Vec<u32>| c.push(1u32);
    let block = engine
        .load_block(&chunk, CellLayout::PerEdge(&cells))
        .unwrap();
    let mut hits = HitVector::new(0);

    // Two warm passes: the first builds the field index and sizes the
    // engine's scratch buffers; the second probes the clean index and
    // settles every buffer at its steady-state capacity.
    let mut warm_total = 0u64;
    for _ in 0..2 {
        for &dst in block.distinct_dsts() {
            engine.search_dst_into(dst, &mut hits);
            warm_total += engine.gather_rows(&hits, &mut |_| 1, 0).unwrap();
        }
    }
    assert!(warm_total > 0, "warm passes must do real work");

    // Measured pass: bit-for-bit the same work, zero heap traffic.
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut total = 0u64;
    for &dst in block.distinct_dsts() {
        engine.search_dst_into(dst, &mut hits);
        total += engine.gather_rows(&hits, &mut |_| 1, 0).unwrap();
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    if repeatable {
        assert_eq!(
            total * 2,
            warm_total,
            "steady-state pass must match warm work"
        );
    }
    assert_eq!(
        allocs, 0,
        "steady-state search+gather pass performed {allocs} heap allocations"
    );
}
