//! Linear-vs-Indexed search-path microbenchmarks: the raw CAM search in
//! both host modes and a full PageRank run per mode. These measure the simulator's host cost — the modeled hardware
//! latency and every `RunReport` are bit-identical across modes.

#![allow(clippy::unwrap_used)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use gaasx_core::algorithms::PageRank;
use gaasx_core::{GaasX, GaasXConfig};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_xbar::geometry::CamGeometry;
use gaasx_xbar::{CamCrossbar, HitVector, SearchMode};

const DST_MASK: u128 = 0xFFFF_FFFF;

fn bench_cam_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_modes/cam");
    for mode in [SearchMode::Linear, SearchMode::Indexed] {
        let mut cam = CamCrossbar::new(CamGeometry::paper());
        cam.set_search_mode(mode);
        for row in 0..128u128 {
            cam.write(row as usize, ((row % 32) << 32) | (row % 16))
                .unwrap();
        }
        let mut hits = HitVector::new(0);
        // First search builds the index (Indexed mode); steady state is
        // what the loop measures.
        cam.search_into(5, DST_MASK, &mut hits);
        group.bench_function(format!("dst_search_{mode:?}"), |b| {
            b.iter(|| cam.search_into(black_box(5), DST_MASK, &mut hits))
        });
    }
    group.finish();
}

fn bench_pagerank(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_modes/pagerank");
    group.sample_size(10);
    let graph = rmat(&RmatConfig::new(1 << 9, 6_000).with_seed(23)).unwrap();
    for mode in [SearchMode::Linear, SearchMode::Indexed] {
        group.bench_function(format!("x5_{mode:?}"), |b| {
            b.iter(|| {
                let mut accel = GaasX::new(GaasXConfig {
                    search_mode: mode,
                    ..GaasXConfig::small()
                });
                accel
                    .run(&PageRank::fixed_iterations(5), black_box(&graph))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cam_search, bench_pagerank);
criterion_main!(benches);
