//! Microbenchmarks of the crossbar device models — the per-operation cost
//! of the simulator itself (not the modeled hardware latency).

#![allow(clippy::unwrap_used)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use gaasx_xbar::geometry::{CamGeometry, MacGeometry};
use gaasx_xbar::{CamCrossbar, Fidelity, HitVector, MacCrossbar, MacDirection};

fn bench_mac(c: &mut Criterion) {
    let mut group = c.benchmark_group("mac_crossbar");
    for (name, fidelity) in [
        ("exact", Fidelity::Exact),
        ("quantized", Fidelity::Quantized),
    ] {
        let mut mac = MacCrossbar::new(MacGeometry::paper(), fidelity);
        for row in 0..16 {
            mac.write_row(row, &[(row as u32 + 1) * 3; 16]).unwrap();
        }
        let active: Vec<usize> = (0..16).collect();
        let inputs: Vec<u32> = (0..16).map(|i| i * 97 + 5).collect();
        group.bench_function(format!("mac_16rows_{name}"), |b| {
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
    let mut mac = MacCrossbar::new(MacGeometry::paper(), Fidelity::Exact);
    group.bench_function("write_row_16vals", |b| {
        b.iter(|| {
            mac.write_row(black_box(7), black_box(&[42u32; 16]))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_cam(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_crossbar");
    let mut cam = CamCrossbar::new(CamGeometry::paper());
    for row in 0..128 {
        cam.write(row, ((row as u128) << 32) | (row as u128 % 16))
            .unwrap();
    }
    group.bench_function("search_dst_field", |b| {
        b.iter(|| cam.search(black_box(5), 0xFFFF_FFFF))
    });
    group.bench_function("write_entry", |b| {
        b.iter(|| cam.write(black_box(64), black_box(0xdead_beef)).unwrap())
    });
    group.finish();
}

fn bench_hit_vector(c: &mut Criterion) {
    let mut group = c.benchmark_group("hit_vector");
    let mut hv = HitVector::new(128);
    (0..128).step_by(3).for_each(|row| hv.push(row));
    group.bench_function("iter_rows", |b| {
        b.iter(|| black_box(&hv).rows().iter().sum::<usize>())
    });
    group.bench_function("chunks_of_16", |b| {
        b.iter(|| {
            black_box(&hv)
                .rows()
                .chunks(16)
                .map(<[usize]>::len)
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mac, bench_cam, bench_hit_vector);
criterion_main!(benches);
