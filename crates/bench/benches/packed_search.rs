//! Microbenchmark of the word-parallel MAC hot path: the bit-plane
//! popcount evaluation of a clean 16-row quantized burst.

#![allow(clippy::unwrap_used)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use gaasx_xbar::geometry::MacGeometry;
use gaasx_xbar::{Fidelity, MacCrossbar, MacDirection};

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

criterion_group!(benches, bench_quantized_mac);
criterion_main!(benches);
