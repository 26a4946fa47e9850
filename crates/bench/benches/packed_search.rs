//! Packed-vs-scalar kernel microbenchmarks on the CAM/MAC hot paths.
//!
//! The headline gate is the 2048-row deep-bank Linear search: the packed
//! bit-plane matcher must clear 1.5x over the scalar scan there (the
//! `search/` pairs below; `results/BENCH_08.json` records the end-to-end
//! win, 1.9–2.6x on deep-bank runs). The write pair measures the other
//! side of the trade — a packed write only marks its plane word stale, so
//! block programming must cost what the scalar kernel's does — and the
//! MAC pair measures the bit-plane popcount evaluation of the clean
//! quantized burst.

#![allow(clippy::unwrap_used)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use gaasx_xbar::geometry::{CamGeometry, MacGeometry};
use gaasx_xbar::{CamCrossbar, Fidelity, HitVector, Kernel, MacCrossbar, MacDirection, SearchMode};

/// A fully programmed bank at `rows` depth with colliding dst values, so
/// searches return multi-hit vectors like real edge blocks do.
fn programmed_cam(rows: usize, kernel: Kernel) -> CamCrossbar {
    let mut cam = CamCrossbar::new(CamGeometry {
        rows,
        ..CamGeometry::paper()
    });
    cam.set_search_mode(SearchMode::Linear);
    cam.set_kernel(kernel);
    for row in 0..rows {
        cam.write(row, ((row as u128) << 32) | (row as u128 % 61))
            .unwrap();
    }
    cam
}

fn bench_linear_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_search");
    for (label, rows) in [("paper_128", 128usize), ("deep_2048", 2048)] {
        for kernel in [Kernel::Scalar, Kernel::Packed] {
            let mut cam = programmed_cam(rows, kernel);
            let mut out = HitVector::new(rows);
            group.bench_function(format!("search/{label}/{kernel}"), |b| {
                b.iter(|| {
                    cam.search_into(black_box(7), 0xFFFF_FFFF, &mut out);
                    out.count()
                })
            });
        }
    }
    group.finish();
}

fn bench_block_program(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_program");
    for kernel in [Kernel::Scalar, Kernel::Packed] {
        let mut cam = programmed_cam(2048, kernel);
        group.bench_function(format!("rewrite_2048/{kernel}"), |b| {
            b.iter(|| {
                cam.invalidate_all();
                for row in 0..2048u128 {
                    cam.write(row as usize, black_box((row << 32) | (row % 53)))
                        .unwrap();
                }
            })
        });
    }
    group.finish();
}

fn bench_quantized_mac(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_mac");
    for kernel in [Kernel::Scalar, Kernel::Packed] {
        let mut mac = MacCrossbar::new(MacGeometry::paper(), Fidelity::Quantized);
        mac.set_kernel(kernel);
        for row in 0..16 {
            mac.write_row(row, &[(row as u32 + 1) * 3; 16]).unwrap();
        }
        let active: Vec<usize> = (0..16).collect();
        let inputs: Vec<u32> = (0..16).map(|i| i * 97 + 5).collect();
        group.bench_function(format!("quantized_16rows/{kernel}"), |b| {
            b.iter(|| {
                mac.mac(
                    MacDirection::RowsToColumns,
                    black_box(&active),
                    black_box(&inputs),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_linear_search,
    bench_block_program,
    bench_quantized_mac
);
criterion_main!(benches);
