//! Matcher equivalence gate: every CAM search — served by the low-bits
//! bucket index or, for a mask past the index cap, the scan; clean or
//! seeded-faulty, across invalidations and rewrites, on any bank depth
//! (including partial last words, `rows % 64 != 0`), with field values
//! colliding in one bucket — must return an ascending, duplicate-free hit
//! list equal to the bitmap of a reference scan this test builds from the
//! public [`CamCrossbar::read`]; under search upsets, equal but for the
//! counted toggled lines. A hit-list vote tally must equal a bitwise
//! majority. Quantized MAC bursts, full and restricted, must
//! equal a bit-sliced reference built from the public
//! [`MacCrossbar::read_cell`]. A bulk
//! [`CamCrossbar::program_block`] must leave a CAM exactly as
//! `invalidate_all` plus one `write` per row does, and a bulk
//! [`MacCrossbar::program_block`] a MAC crossbar exactly as one
//! `write_row` per row does, whatever rows the block maps to and in
//! whatever order the single writes come, given the same draw key.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

use gaasx_xbar::fault::{CamFaultState, MacFaultState};
use gaasx_xbar::geometry::{CamGeometry, MacGeometry};
use gaasx_xbar::{
    CamCrossbar, FaultModel, Fidelity, HitVector, MacCrossbar, MacDirection, VoteTally, XbarError,
};

/// Bank depths straddling the 64-row word boundary: one word exactly, a
/// partial single word, partial and full multi-word, the paper depth, and
/// the 2048-row deep bank.
const DEPTHS: [usize; 6] = [64, 70, 128, 130, 192, 2048];

/// The src and dst field masks the engine searches with.
const SRC_MASK: u128 = 0xFFFF_FFFF_0000_0000;
const DST_MASK: u128 = 0xFFFF_FFFF;

/// Deep-bank depth for the bucket-index tests.
const DEEP_ROWS: usize = 2048;

/// Source vertex held by every fourth row of the deep bank: one index
/// chain hundreds of rows long.
const HUB: u32 = 7;

/// The reference ternary match, as a bitmap over the rows: every valid
/// stored entry (post-fault, as `read` returns it) whose unmasked bits
/// within the geometry width equal the key's.
fn reference_scan(cam: &CamCrossbar, key: u128, mask: u128) -> Vec<bool> {
    let g = cam.geometry();
    let width_mask = if g.width_bits == 128 {
        u128::MAX
    } else {
        (1u128 << g.width_bits) - 1
    };
    (0..g.rows)
        .map(|row| {
            let e = cam.read(row).unwrap();
            e.valid && (e.bits ^ key) & mask & width_mask == 0
        })
        .collect()
}

/// Searches through `search_into` and returns how many match lines differ
/// from the reference scan. Without search upsets that must be zero; an
/// upset toggles exactly one line. Either way the hit list must ascend
/// without duplicates and stay inside the bank.
fn search_vs_reference(cam: &mut CamCrossbar, key: u128, mask: u128, out: &mut HitVector) -> usize {
    let want = reference_scan(cam, key, mask);
    cam.search_into(key, mask, out);
    assert_eq!(out.len(), want.len());
    let rows = out.rows();
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "hit rows must ascend without duplicates: {rows:?}"
    );
    let mut got = vec![false; want.len()];
    for &row in rows {
        got[row] = true;
    }
    got.iter().zip(&want).filter(|(g, w)| g != w).count()
}

/// Decodes one raw tuple into a CAM operation — program, invalidate
/// (single row or bulk), or a search over the src field, the dst field,
/// the exact key, or an arbitrary ternary mask — and returns the number
/// of match lines a search got wrong against the reference.
fn apply_cam_op(
    cam: &mut CamCrossbar,
    rows: usize,
    op: (u8, u8, u8, u8),
    hv: &mut HitVector,
) -> usize {
    let (code, a, b, c) = op;
    // 32 rows spread over the whole bank, first and last included: every
    // 64-row word is touched, and rows are rewritten and invalidated
    // often enough that most searches rebuild a stale index.
    let row = usize::from(a % 32) * (rows - 1) / 31;
    // Small vertex spaces force key collisions across rows.
    let src = u32::from(b) % 8;
    let dst = u32::from(c) % 8;
    let key = (u128::from(src) << 32) | u128::from(dst);
    match code % 9 {
        // Bias toward writes so searches see populated arrays.
        0..=2 => {
            cam.write(row, key).unwrap();
            0
        }
        3 => {
            cam.invalidate(row).unwrap();
            0
        }
        4 => {
            cam.invalidate_all();
            0
        }
        5 => search_vs_reference(cam, u128::from(src) << 32, SRC_MASK, hv),
        6 => search_vs_reference(cam, u128::from(dst), DST_MASK, hv),
        7 => search_vs_reference(cam, key, (u128::from(b) << 32) | u128::from(c), hv),
        _ => search_vs_reference(cam, key, SRC_MASK | DST_MASK, hv),
    }
}

/// The bit-sliced quantized burst for one crossed line, from the public
/// geometry and cell read-back: 16-bit inputs stream `dac_bits` per step,
/// weights split into `slices` of `bits_per_cell`, and every `(step,
/// slice)` partial saturates at the ADC full scale before shift-and-add.
fn reference_quantized_line(
    mac: &MacCrossbar,
    direction: MacDirection,
    active: &[usize],
    inputs: &[u32],
    line: usize,
) -> u64 {
    const INPUT_BITS: u32 = 16;
    let g = mac.geometry();
    let dac_mask = (1u32 << g.dac_bits) - 1;
    let cell_mask = (1u32 << g.bits_per_cell) - 1;
    let full_scale = (1u64 << g.adc_bits) - 1;
    let mut acc = 0u64;
    for step in 0..INPUT_BITS.div_ceil(g.dac_bits) {
        for slice in 0..g.slices as u32 {
            let mut partial = 0u64;
            for (&a, &x) in active.iter().zip(inputs) {
                let cell = match direction {
                    MacDirection::RowsToColumns => mac.read_cell(a, line),
                    MacDirection::ColumnsToRows => mac.read_cell(line, a),
                }
                .unwrap();
                let x_bits = (x >> (step * g.dac_bits)) & dac_mask;
                let w_bits = (cell >> (slice * g.bits_per_cell)) & cell_mask;
                partial += u64::from(x_bits) * u64::from(w_bits);
            }
            acc += partial.min(full_scale) << (step * g.dac_bits + slice * g.bits_per_cell);
        }
    }
    acc
}

/// The deep-bank edge key of `row`: every fourth row holds the [`HUB`]
/// source; the rest spread over 40 other sources. Destinations cycle
/// through 96 values, so the dst chains run about 21 rows each.
fn deep_key(row: usize) -> u128 {
    let src = if row % 4 == 0 {
        HUB
    } else {
        100 + (row % 40) as u32
    };
    (u128::from(src) << 32) | u128::from((row % 96) as u32)
}

/// A fully programmed 2048-row bank whose src and dst indexes are built
/// (and therefore clean) by one search each.
fn deep_indexed_bank() -> CamCrossbar {
    let mut cam = CamCrossbar::new(CamGeometry {
        rows: DEEP_ROWS,
        ..CamGeometry::paper()
    });
    for row in 0..DEEP_ROWS {
        cam.write(row, deep_key(row)).unwrap();
    }
    let mut hv = HitVector::new(0);
    assert_eq!(
        search_vs_reference(&mut cam, u128::from(HUB) << 32, SRC_MASK, &mut hv),
        0
    );
    assert_eq!(hv.rows().len(), DEEP_ROWS / 4);
    assert_eq!(search_vs_reference(&mut cam, 5, DST_MASK, &mut hv), 0);
    cam
}

/// Searches the hub, a plain source, and a few destinations, counting
/// match lines that differ from the reference scan.
fn deep_bank_mismatches(cam: &mut CamCrossbar, hv: &mut HitVector) -> usize {
    let mut wrong = search_vs_reference(cam, u128::from(HUB) << 32, SRC_MASK, hv);
    wrong += search_vs_reference(cam, 101u128 << 32, SRC_MASK, hv);
    for dst in [0u128, 5, 95] {
        wrong += search_vs_reference(cam, dst, DST_MASK, hv);
    }
    wrong
}

/// Single-row invalidates and rewrites on a searched deep bank drop the
/// head, the middle and the tail of the 512-row hub chain (and of the dst
/// chains they sit on) and move rewritten rows between chains; each turns
/// the index stale, and every search after every mutation rebuilds it and
/// answers like the reference scan.
#[test]
fn index_rebuilds_after_rewrites_match_the_reference_on_a_deep_hub_bank() {
    let mut cam = deep_indexed_bank();
    let mut hv = HitVector::new(0);
    // Hub rows are 0, 4, ..., 2044: the chain's head, middle and tail.
    let (head, middle, tail) = (0, 1024, 2044);
    let steps: [(&str, usize, Option<u128>); 9] = [
        ("invalidate the head", head, None),
        ("invalidate the tail", tail, None),
        ("invalidate the middle", middle, None),
        ("rewrite a hub row away", 4, Some((200u128 << 32) | 5)),
        (
            "rewrite a plain row into the hub",
            1,
            Some((u128::from(HUB) << 32) | 5),
        ),
        ("invalidate the relinked row", 1, None),
        ("rewrite the last hub row away", 2040, Some(101u128 << 32)),
        ("rewrite a row onto its own value", 8, Some(deep_key(8))),
        ("revive the old head", head, Some(deep_key(head))),
    ];
    for (what, row, write) in steps {
        match write {
            Some(key) => cam.write(row, key).unwrap(),
            None => cam.invalidate(row).unwrap(),
        }
        assert_eq!(
            deep_bank_mismatches(&mut cam, &mut hv),
            0,
            "after: {what} (row {row})"
        );
    }
    let hub_rows = (0..DEEP_ROWS)
        .map(|r| cam.read(r).unwrap())
        .filter(|e| e.valid && e.bits >> 32 == u128::from(HUB))
        .count();
    assert_eq!(hub_rows, DEEP_ROWS / 4 - 4, "four hub rows left the chain");
}

/// Fault model for the MAC twin tests: stuck cells, transient write
/// failures and an endurance low enough that repeated blocks wear cells
/// out.
fn mac_wear_model(seed: u64) -> FaultModel {
    FaultModel {
        seed,
        mac_stuck_ber: 0.02,
        write_fail_rate: 0.05,
        endurance: 3,
        ..FaultModel::none()
    }
}

/// `n` distinct physical rows below `rows`, in an order and selection
/// `salt` scrambles: the first `n` of the rows sorted by a hash.
fn scattered_rows(n: usize, rows: usize, salt: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..rows).collect();
    all.sort_by_key(|&r| {
        (r as u64 ^ salt)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    });
    all.truncate(n);
    all
}

/// A paper-geometry MAC crossbar, with [`mac_wear_model`] faults when
/// `seed` is given.
fn mac_twin(seed: Option<u64>) -> MacCrossbar {
    let g = MacGeometry::paper();
    let mut mac = MacCrossbar::new(g, Fidelity::Exact);
    mac.set_faults(seed.map(|s| MacFaultState::new(mac_wear_model(s), &g)));
    mac
}

/// Every observable of two MAC crossbars that should be twins: cells,
/// stats, fault counters and wear; then both take the same row writes
/// (retries of rows the block may have written) and must latch the same
/// values, so their attempt counts agree.
fn assert_mac_twins(a: &mut MacCrossbar, b: &mut MacCrossbar) {
    let g = a.geometry();
    for row in 0..g.rows {
        for col in 0..g.cols {
            assert_eq!(
                a.read_cell(row, col).unwrap(),
                b.read_cell(row, col).unwrap(),
                "cell ({}, {})",
                row,
                col
            );
        }
    }
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.fault_stats(), b.fault_stats());
    assert_eq!(a.fault_wear(), b.fault_wear());
    let next: Vec<u32> = (0..g.cols as u32).map(|c| 0x1234 ^ c).collect();
    for row in [0, g.rows - 1] {
        a.write_row(row, &next).unwrap();
        b.write_row(row, &next).unwrap();
        for col in 0..g.cols {
            assert_eq!(
                a.read_cell(row, col).unwrap(),
                b.read_cell(row, col).unwrap()
            );
        }
    }
    assert_eq!(a.fault_stats(), b.fault_stats());
    assert_eq!(a.fault_wear(), b.fault_wear());
}

/// A block [`MacCrossbar::program_block`] rejects — too many rows, a
/// width past the columns, a code count that is not rows × width, a
/// code past the cell range, or a row past the geometry — returns a typed
/// error and leaves the crossbar exactly as it was, attempt counts
/// included.
#[test]
fn mac_program_block_rejects_bad_blocks_untouched() {
    let prefix = |rows: usize| (0..rows).collect::<Vec<usize>>();
    for seed in [None, Some(17)] {
        let mut mac = mac_twin(seed);
        mac.program_block(&prefix(5), &[0xABCD; 3 * 5], 3).unwrap();
        let mut past_range = vec![1u32; 8];
        past_range[5] = 0x1_0000;
        let bad: [(Vec<u32>, usize, Vec<usize>); 5] = [
            (vec![1; 129], 1, prefix(129)),
            (vec![1; 17 * 2], 17, prefix(2)),
            (vec![1; 5], 3, prefix(2)),
            (past_range, 2, prefix(4)),
            (vec![1; 2], 1, vec![3, 128]),
        ];
        for (i, (codes, width, rows)) in bad.into_iter().enumerate() {
            let mut twin = mac.clone();
            let err = mac.program_block(&rows, &codes, width).unwrap_err();
            match i {
                0 => assert!(matches!(
                    err,
                    XbarError::RowOutOfRange {
                        row: 128,
                        rows: 128
                    }
                )),
                1 => assert!(matches!(
                    err,
                    XbarError::DimensionMismatch {
                        got: 17,
                        expected: 16,
                        ..
                    }
                )),
                2 => assert!(matches!(
                    err,
                    XbarError::DimensionMismatch {
                        got: 5,
                        expected: 6,
                        ..
                    }
                )),
                3 => assert!(matches!(err, XbarError::InvalidParameter(_))),
                _ => assert!(matches!(
                    err,
                    XbarError::RowOutOfRange {
                        row: 128,
                        rows: 128
                    }
                )),
            }
            assert_mac_twins(&mut mac, &mut twin);
        }
    }
}

/// The field index's bucket count on a bank of `rows` rows: values equal
/// modulo it share one bucket chain.
fn bucket_stride(rows: usize) -> u128 {
    (2 * rows).next_power_of_two() as u128
}

/// Field values that collide modulo the bucket count on the paper and
/// deep banks, absent values sharing a present value's bucket, and values
/// that differ only above bit 64: every search answers like the reference
/// scan.
#[test]
fn bucket_collisions_match_the_reference() {
    for rows in [128, DEEP_ROWS] {
        let stride = bucket_stride(rows);
        let mut cam = CamCrossbar::new(CamGeometry {
            rows,
            ..CamGeometry::paper()
        });
        let mut hv = HitVector::new(0);
        for row in 0..rows {
            let v = (row % 3) as u128 * stride;
            cam.write(row, (v << 32) | v).unwrap();
        }
        // 3·stride and 4·stride are absent; 1 and stride + 1 land in the
        // empty bucket 1.
        for v in [0, stride, 2 * stride, 3 * stride, 4 * stride, 1, stride + 1] {
            assert_eq!(search_vs_reference(&mut cam, v << 32, SRC_MASK, &mut hv), 0);
            assert_eq!(search_vs_reference(&mut cam, v, DST_MASK, &mut hv), 0);
        }
        for row in 0..rows {
            cam.write(row, (((row % 5) as u128) << 64) | 9).unwrap();
        }
        for k in 0..7u128 {
            assert_eq!(
                search_vs_reference(&mut cam, (k << 64) | 9, u128::MAX, &mut hv),
                0
            );
        }
        assert_eq!(search_vs_reference(&mut cam, 9, DST_MASK, &mut hv), 0);
        assert_eq!(hv.rows().len(), rows);
    }
}

/// A stuck-bit outlier — a row whose stored field differs from the key it
/// was written with — answers to its post-fault value, not the written one.
#[test]
fn stuck_bit_outliers_match_the_reference() {
    for rows in [128, DEEP_ROWS] {
        let g = CamGeometry {
            rows,
            ..CamGeometry::paper()
        };
        let mut cam = CamCrossbar::new(g);
        cam.set_faults(Some(CamFaultState::new(
            FaultModel {
                seed: 9,
                cam_stuck_ber: 0.005,
                ..FaultModel::none()
            },
            &g,
        )));
        let key = (11u128 << 32) | 4;
        for row in 0..rows {
            cam.write(row, key).unwrap();
        }
        let mut hv = HitVector::new(0);
        let mut outliers = 0;
        for row in 0..rows {
            let bits = cam.read(row).unwrap().bits;
            outliers += usize::from(bits & DST_MASK != 4);
            assert_eq!(search_vs_reference(&mut cam, bits, DST_MASK, &mut hv), 0);
            assert_eq!(search_vs_reference(&mut cam, bits, SRC_MASK, &mut hv), 0);
        }
        assert!(outliers > 0, "no stuck bit moved a dst field ({rows} rows)");
        assert_eq!(search_vs_reference(&mut cam, key, DST_MASK, &mut hv), 0);
        assert_eq!(hv.rows().len(), rows - outliers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random writes, invalidations and searches whose field values all
    /// sit in three buckets (multiples of the bucket count plus 0 or 1),
    /// fault-free or with stuck cells: every search answers like the
    /// reference scan.
    #[test]
    fn bucket_collisions_under_random_ops_match_the_reference(
        ops in prop::collection::vec((0u8..5, any::<u16>(), 0u8..12), 1..80),
        deep in any::<bool>(),
        seed in any::<u64>(),
        faulty in any::<bool>(),
    ) {
        let rows = if deep { DEEP_ROWS } else { 128 };
        let g = CamGeometry {
            rows,
            ..CamGeometry::paper()
        };
        let mut cam = CamCrossbar::new(g);
        if faulty {
            cam.set_faults(Some(CamFaultState::new(
                FaultModel {
                    seed,
                    cam_stuck_ber: 0.01,
                    ..FaultModel::none()
                },
                &g,
            )));
        }
        let stride = bucket_stride(rows);
        let mut hv = HitVector::new(0);
        for &(code, row, value) in &ops {
            let row = usize::from(row) % rows;
            let v = u128::from(value / 3) * stride + u128::from(value % 3);
            let wrong = match code {
                0 | 1 => {
                    cam.write(row, (v << 32) | v).unwrap();
                    0
                }
                2 => {
                    cam.invalidate(row).unwrap();
                    0
                }
                3 => search_vs_reference(&mut cam, v << 32, SRC_MASK, &mut hv),
                _ => search_vs_reference(&mut cam, v, DST_MASK, &mut hv),
            };
            prop_assert_eq!(wrong, 0, "search diverged from the reference scan");
        }
    }

    /// Random single-row invalidates and rewrites on the searched deep hub
    /// bank — never a bulk invalidate, so only row-level mutations turn
    /// the index stale — interleaved with searches of both fields, each of
    /// which rebuilds the index it probes.
    #[test]
    fn index_rebuilds_after_rewrites_match_the_reference(
        ops in prop::collection::vec((0u8..4, any::<u16>(), 0u8..8), 1..60),
    ) {
        let mut cam = deep_indexed_bank();
        let mut hv = HitVector::new(0);
        for &(code, row, value) in &ops {
            let row = usize::from(row) % DEEP_ROWS;
            let src = if value < 4 { HUB } else { 100 + u32::from(value) };
            let key = (u128::from(src) << 32) | u128::from(value % 3);
            let wrong = match code {
                0 => {
                    cam.invalidate(row).unwrap();
                    0
                }
                1 => {
                    cam.write(row, key).unwrap();
                    0
                }
                2 => search_vs_reference(&mut cam, u128::from(src) << 32, SRC_MASK, &mut hv),
                _ => search_vs_reference(&mut cam, u128::from(value % 3), DST_MASK, &mut hv),
            };
            prop_assert_eq!(wrong, 0, "search diverged from the reference scan");
        }
        prop_assert_eq!(deep_bank_mismatches(&mut cam, &mut hv), 0);
    }

    /// Any op interleaving on any bank depth, fault-free or with stuck
    /// cells, failed writes and search upsets:
    /// every search answers like the reference scan, except for the one
    /// match line each counted upset toggles.
    #[test]
    fn searches_match_the_reference_scan(
        ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..80,
        ),
        depth_ix in 0usize..DEPTHS.len(),
        seed in any::<u64>(),
        faulty in any::<bool>(),
        upsets in any::<bool>(),
    ) {
        let rows = DEPTHS[depth_ix];
        let g = CamGeometry {
            rows,
            ..CamGeometry::paper()
        };
        let mut cam = CamCrossbar::new(g);
        if faulty {
            cam.set_faults(Some(CamFaultState::new(
                FaultModel {
                    seed,
                    cam_stuck_ber: 0.01,
                    write_fail_rate: 0.05,
                    cam_upset_rate: if upsets { 0.2 } else { 0.0 },
                    ..FaultModel::none()
                },
                &g,
            )));
        }
        // A dirty, wrongly sized buffer: `search_into` must reset it.
        let mut hv = HitVector::new(3);
        hv.push(1);
        let mut wrong_lines = 0u64;
        for &op in &ops {
            let wrong = apply_cam_op(&mut cam, rows, op, &mut hv);
            prop_assert!(wrong <= 1, "a search missed {} lines", wrong);
            wrong_lines += wrong as u64;
        }
        let upset_count = cam.fault_stats().map_or(0, |f| f.cam_upsets);
        prop_assert_eq!(wrong_lines, upset_count, "mismatches must all be counted upsets");
    }

    /// Stuck cells and search upsets on fully programmed paper and deep
    /// banks, where a search matches dozens to hundreds of rows: every
    /// hit list ascends without duplicates and equals the bitmap
    /// reference scan except for the lines upsets toggled, and each
    /// search adds exactly as many upsets to the fault stats as it got
    /// lines wrong.
    #[test]
    fn hit_lists_under_stuck_cells_and_upsets_match_the_bitmap_reference(
        ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..60,
        ),
        deep in any::<bool>(),
        seed in any::<u64>(),
        upset_rate in 0.05f64..=1.0,
    ) {
        let rows = if deep { DEEP_ROWS } else { 128 };
        let g = CamGeometry {
            rows,
            ..CamGeometry::paper()
        };
        let mut cam = CamCrossbar::new(g);
        cam.set_faults(Some(CamFaultState::new(
            FaultModel {
                seed,
                cam_stuck_ber: 0.01,
                cam_upset_rate: upset_rate,
                ..FaultModel::none()
            },
            &g,
        )));
        // The src and dst fields span the values `apply_cam_op` searches.
        for row in 0..rows {
            cam.write(row, ((row % 8) as u128) << 32 | ((row / 8 % 8) as u128)).unwrap();
        }
        let mut hv = HitVector::new(0);
        for &op in &ops {
            let before = cam.fault_stats().unwrap().cam_upsets;
            let wrong = apply_cam_op(&mut cam, rows, op, &mut hv);
            let upsets = cam.fault_stats().unwrap().cam_upsets - before;
            prop_assert_eq!(wrong as u64, upsets, "wrong lines vs counted upsets");
        }
    }

    /// A vote tally over ascending hit lists keeps exactly the rows a
    /// bitwise majority of the votes' bitmaps sets, and is settled exactly
    /// when every row's majority leads by three votes.
    #[test]
    fn vote_tally_equals_the_bitwise_majority(
        bitmaps in prop::collection::vec(prop::collection::vec(any::<bool>(), 130), 3..=9),
    ) {
        let lists: Vec<HitVector> = bitmaps
            .iter()
            .map(|bits| {
                let mut hv = HitVector::new(bits.len());
                (0..bits.len()).filter(|&row| bits[row]).for_each(|row| hv.push(row));
                hv
            })
            .collect();
        let mut tally = VoteTally::default();
        lists.iter().for_each(|v| tally.add(v));
        let mut voted = HitVector::new(0);
        tally.majority_into(&mut voted);
        let n = bitmaps.len();
        let hits = |row: usize| bitmaps.iter().filter(|b| b[row]).count();
        let want: Vec<usize> = (0..130).filter(|&row| 2 * hits(row) > n).collect();
        prop_assert_eq!(voted.len(), 130);
        prop_assert_eq!(voted.rows(), &want[..]);
        let settled = (0..130).all(|row| (2 * hits(row)).abs_diff(n) >= 3);
        prop_assert_eq!(tally.settled(3), settled);
    }

    /// Twin crossbars from the same arbitrary prior state: one programs a
    /// block onto scattered rows with `program_block`, the other with
    /// `invalidate_all` plus one `write` per row, in another order, under
    /// the same draw key. Fault-free or with stuck cells and transient
    /// write failures on the same seed, they must agree on every stored
    /// row, the billing, the fault counters, every search, and every
    /// retry's draw.
    #[test]
    fn program_block_matches_invalidate_all_plus_writes(
        prior in prop::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 0..60),
        keys in prop::collection::vec((any::<u8>(), any::<u8>()), 0..=130),
        depth_ix in 0usize..4,
        seed in any::<u64>(),
        faulty in any::<bool>(),
        salt in any::<u64>(),
        load_key in any::<u64>(),
    ) {
        let rows = [64usize, 70, 128, 130][depth_ix];
        let g = CamGeometry {
            rows,
            ..CamGeometry::paper()
        };
        // Few distinct field values, so searches hit several rows.
        let key_of = |src: u8, dst: u8| (u128::from(src % 8) << 32) | u128::from(dst % 8);
        let keys: Vec<u128> = keys.iter().take(rows).map(|&(s, d)| key_of(s, d)).collect();
        let twin = || {
            let mut cam = CamCrossbar::new(g);
            if faulty {
                cam.set_faults(Some(CamFaultState::new(
                    FaultModel {
                        seed,
                        cam_stuck_ber: 0.01,
                        write_fail_rate: 0.2,
                        ..FaultModel::none()
                    },
                    &g,
                )));
            }
            // Prior contents, with the indexes clean after a prior search,
            // so an index left clean across the program would answer.
            let mut hv = HitVector::new(0);
            for &(code, row, v) in &prior {
                let row = usize::from(row) % rows;
                match code {
                    0 | 1 => cam.write(row, key_of(v, v >> 3)).unwrap(),
                    2 => cam.invalidate(row).unwrap(),
                    _ => {
                        cam.search_into(u128::from(v % 8), DST_MASK, &mut hv);
                        cam.search_into(u128::from(v % 8) << 32, SRC_MASK, &mut hv);
                    }
                }
            }
            cam
        };
        let mut bulk = twin();
        let mut rowwise = twin();
        let phys = scattered_rows(keys.len(), rows, salt);
        bulk.set_draw_key(load_key);
        bulk.program_block(&phys, &keys).unwrap();
        rowwise.set_draw_key(load_key);
        rowwise.invalidate_all();
        for i in scattered_rows(keys.len(), keys.len(), !salt) {
            rowwise.write(phys[i], keys[i]).unwrap();
        }
        for row in 0..rows {
            prop_assert_eq!(bulk.read(row).unwrap(), rowwise.read(row).unwrap(), "row {}", row);
        }
        prop_assert_eq!(bulk.stats(), rowwise.stats());
        prop_assert_eq!(bulk.fault_stats(), rowwise.fault_stats());
        let (mut a, mut b) = (HitVector::new(0), HitVector::new(0));
        for v in 0..8u128 {
            for (key, mask) in [(v << 32, SRC_MASK), (v, DST_MASK)] {
                prop_assert_eq!(search_vs_reference(&mut bulk, key, mask, &mut a), 0);
                rowwise.search_into(key, mask, &mut b);
                prop_assert_eq!(&a, &b, "search {:#x}/{:#x}", key, mask);
            }
        }
        // Retries of written rows and first writes of others draw alike.
        for row in [0, rows / 2, rows - 1] {
            bulk.write(row, key_of(5, 6)).unwrap();
            rowwise.write(row, key_of(5, 6)).unwrap();
            prop_assert_eq!(bulk.read(row).unwrap(), rowwise.read(row).unwrap());
        }
        prop_assert_eq!(bulk.fault_stats(), rowwise.fault_stats());
    }

    /// Twin MAC crossbars from the same prior row writes: one programs a
    /// run of blocks onto scattered rows with `program_block`, the other
    /// with one `write_row` per row, in another order, each block under
    /// the same draw key. Widths span 0..=cols and block lengths 0..=rows,
    /// in random order or shrinking; fault-free or with stuck cells,
    /// transient write failures and endurance wear on the same seed, the
    /// twins must agree on every cell, the stats, the fault counters, the
    /// wear and the next writes.
    #[test]
    fn mac_program_block_matches_write_row_per_row(
        prior in prop::collection::vec((0usize..128, 0usize..=16, any::<u16>()), 0..24),
        blocks in prop::collection::vec((0usize..=16, 0usize..=128, any::<u16>()), 1..5),
        shrinking in any::<bool>(),
        seed in any::<u64>(),
        faulty in any::<bool>(),
        salt in any::<u64>(),
    ) {
        let code = |salt: u16, row: usize, col: usize| {
            u32::from(salt) ^ ((row as u32 * 31 + col as u32 * 17) & 0xFFFF)
        };
        let seed = faulty.then_some(seed);
        let (mut bulk, mut rowwise) = (mac_twin(seed), mac_twin(seed));
        for &(row, width, salt) in &prior {
            let codes: Vec<u32> = (0..width).map(|col| code(salt, row, col)).collect();
            bulk.write_row(row, &codes).unwrap();
            rowwise.write_row(row, &codes).unwrap();
        }
        let mut blocks = blocks;
        if shrinking {
            blocks.sort_by_key(|b| std::cmp::Reverse(b.0));
        }
        for (b, &(width, rows, code_salt)) in blocks.iter().enumerate() {
            let codes: Vec<u32> = (0..rows * width)
                .map(|i| code(code_salt, i / width.max(1), i % width.max(1)))
                .collect();
            let block_salt = salt.wrapping_add(b as u64);
            let phys = scattered_rows(rows, 128, block_salt);
            bulk.set_draw_key(block_salt);
            bulk.program_block(&phys, &codes, width).unwrap();
            rowwise.set_draw_key(block_salt);
            for i in scattered_rows(rows, rows, !block_salt) {
                rowwise.write_row(phys[i], &codes[i * width..(i + 1) * width]).unwrap();
            }
        }
        assert_mac_twins(&mut bulk, &mut rowwise);
    }

    /// Quantized MAC bursts — full (`mac`) and restricted read-out
    /// (`mac_lines_into`), both directions, fault-free or stuck-cell
    /// seeded — equal the bit-sliced reference on every line. `wide`
    /// lifts the accumulation cap to 128 rows, so a burst activates up to
    /// 100 of them; `mix` replaces the cells and inputs with a full 16-lane
    /// pattern whose `(step, slice)` partials saturate the ADC about 4
    /// times in 10 and stay below its full scale otherwise.
    #[test]
    fn quantized_bursts_match_the_reference(
        cells in prop::collection::vec(
            prop::collection::vec(0u32..=0xFFFF, 1..=16),
            1..=100,
        ),
        seed in any::<u64>(),
        faulty in any::<bool>(),
        wide in any::<bool>(),
        mix in any::<bool>(),
    ) {
        let g = MacGeometry {
            max_active_rows: if wide { 128 } else { 16 },
            ..MacGeometry::paper()
        };
        let cells: Vec<Vec<u32>> = if mix {
            (0..16u32)
                .map(|r| (0..16u32).map(|c| 0xFFFF - (r * 31 + c * 17)).collect())
                .collect()
        } else {
            cells
        };
        let mut mac = MacCrossbar::new(g, Fidelity::Quantized);
        if faulty {
            mac.set_faults(Some(MacFaultState::new(
                FaultModel {
                    seed,
                    mac_stuck_ber: 0.02,
                    ..FaultModel::none()
                },
                &g,
            )));
        }
        for (r, row) in cells.iter().enumerate() {
            mac.write_row(r, row).unwrap();
        }
        // A transposed burst activates columns, of which there are 16.
        for (direction, lanes) in [
            (MacDirection::RowsToColumns, g.max_active_rows),
            (MacDirection::ColumnsToRows, g.cols),
        ] {
            let n = cells.len().min(lanes);
            let active: Vec<usize> = (0..n).collect();
            let inputs: Vec<u32> = (0..n as u32)
                .map(|i| if mix { 0x1111 * i } else { i * 7919 + 13 } & 0xFFFF)
                .collect();
            let full = mac.mac(direction, &active, &inputs).unwrap();
            for (l, &got) in full.iter().enumerate() {
                let want = reference_quantized_line(&mac, direction, &active, &inputs, l);
                prop_assert_eq!(got, want, "{:?} full burst, line {}", direction, l);
            }
            // Restricted read-out lines: every other crossed line, last first.
            let lines: Vec<usize> = (0..full.len()).step_by(2).rev().collect();
            let mut restricted = Vec::new();
            mac.mac_lines_into(direction, &active, &inputs, &lines, &mut restricted)
                .unwrap();
            for (i, &l) in lines.iter().enumerate() {
                prop_assert_eq!(restricted[i], full[l], "{:?} restricted line {}", direction, l);
            }
        }
    }

    /// Lazily rebuilt indexes on banks with a partial last
    /// word (70 rows), the paper depth and a deep bank, at widths below, at
    /// and above one 64-bit half: any interleaving of writes, single and
    /// bulk invalidations and searches answers exactly like the reference
    /// scan, including keys and masks with nonzero high halves. Arbitrary
    /// masks soon fill the index cap, so the scan fallback runs here too.
    #[test]
    fn index_matches_the_reference_across_depths_and_widths(
        ops in prop::collection::vec(
            (0u8..8, any::<u16>(), any::<u64>(), any::<u64>()),
            1..120,
        ),
        depth_ix in 0usize..3,
        width_ix in 0usize..3,
    ) {
        let rows = [70usize, 128, 2048][depth_ix];
        let g = CamGeometry {
            rows,
            width_bits: [48u32, 64, 128][width_ix],
        };
        let mut cam = CamCrossbar::new(g);
        let mut hv = HitVector::new(0);
        for &(code, row, lo, hi) in &ops {
            let row = usize::from(row) % rows;
            // Few distinct values per half force multi-row matches;
            // the high half is zero in about half of the keys.
            let key = (u128::from(hi % 4 * (hi >> 62)) << 64) | u128::from(lo % 6);
            let wrong = match code {
                0..=2 => {
                    cam.write(row, key).unwrap();
                    0
                }
                3 => {
                    cam.invalidate(row).unwrap();
                    0
                }
                4 => {
                    cam.invalidate_all();
                    0
                }
                5 => search_vs_reference(&mut cam, key, u128::MAX, &mut hv),
                6 => search_vs_reference(&mut cam, key, u128::from(u64::MAX), &mut hv),
                _ => search_vs_reference(
                    &mut cam,
                    key,
                    (u128::from(hi) << 64) | u128::from(lo),
                    &mut hv,
                ),
            };
            prop_assert_eq!(wrong, 0, "search diverged from the reference scan");
        }
    }
}
