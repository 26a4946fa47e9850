//! Microbenchmarks of the word-parallel crossbar hot paths.
//!
//! The `search/` pair times one Linear-mode search through the packed
//! bit-plane matcher at paper (128-row) and deep-bank (2048-row) depth.
//! The write benchmark measures the other side of the trade: a write only
//! marks its plane word stale, so block programming should cost about a
//! plain store. The MAC benchmark times the bit-plane popcount evaluation
//! of a clean 16-row quantized burst.

#![allow(clippy::unwrap_used)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use gaasx_xbar::geometry::{CamGeometry, MacGeometry};
use gaasx_xbar::{CamCrossbar, Fidelity, HitVector, MacCrossbar, MacDirection, SearchMode};

/// A fully programmed bank at `rows` depth with colliding dst values, so
/// searches return multi-hit vectors like real edge blocks do.
fn programmed_cam(rows: usize) -> CamCrossbar {
    let mut cam = CamCrossbar::new(CamGeometry {
        rows,
        ..CamGeometry::paper()
    });
    cam.set_search_mode(SearchMode::Linear);
    for row in 0..rows {
        cam.write(row, ((row as u128) << 32) | (row as u128 % 61))
            .unwrap();
    }
    cam
}

fn bench_linear_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_search");
    for (label, rows) in [("paper_128", 128usize), ("deep_2048", 2048)] {
        let mut cam = programmed_cam(rows);
        let mut out = HitVector::new(rows);
        group.bench_function(format!("search/{label}"), |b| {
            b.iter(|| {
                cam.search_into(black_box(7), 0xFFFF_FFFF, &mut out);
                out.count()
            })
        });
    }
    group.finish();
}

fn bench_block_program(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_program");
    let mut cam = programmed_cam(2048);
    group.bench_function("rewrite_2048", |b| {
        b.iter(|| {
            cam.invalidate_all();
            for row in 0..2048u128 {
                cam.write(row as usize, black_box((row << 32) | (row % 53)))
                    .unwrap();
            }
        })
    });
    group.finish();
}

fn bench_quantized_mac(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_mac");
    let mut mac = MacCrossbar::new(MacGeometry::paper(), Fidelity::Quantized);
    for row in 0..16 {
        mac.write_row(row, &[(row as u32 + 1) * 3; 16]).unwrap();
    }
    let active: Vec<usize> = (0..16).collect();
    let inputs: Vec<u32> = (0..16).map(|i| i * 97 + 5).collect();
    group.bench_function("quantized_16rows", |b| {
        b.iter(|| {
            mac.mac(
                MacDirection::RowsToColumns,
                black_box(&active),
                black_box(&inputs),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_linear_search,
    bench_block_program,
    bench_quantized_mac
);
criterion_main!(benches);
