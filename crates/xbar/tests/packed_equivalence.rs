//! Packed-kernel equivalence gate: the word-parallel bit-plane kernels
//! must be **bit-identical** — same hit vectors, same MAC sums, same
//! device and fault stats — to the scalar reference kernels under any
//! interleaving of operations, any search mode, any fault seed, and any
//! bank depth (including partial last words, `rows % 64 != 0`). The
//! kernel is a pure host-speed knob; any observable divergence is a bug.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

use gaasx_xbar::fault::{CamFaultState, MacFaultState};
use gaasx_xbar::geometry::{CamGeometry, MacGeometry};
use gaasx_xbar::{
    CamCrossbar, FaultModel, Fidelity, HitVector, Kernel, MacCrossbar, MacDirection, SearchMode,
};

/// Bank depths straddling the 64-row word boundary: one word exactly, a
/// partial single word, partial and full multi-word, and the paper depth.
const DEPTHS: [usize; 5] = [64, 70, 128, 130, 192];

const MODES: [SearchMode; 3] = [SearchMode::Linear, SearchMode::Indexed, SearchMode::Auto];

/// Decodes one raw tuple into a CAM operation — program, invalidate
/// (single row or bulk), kernel switch mid-stream, or a search over the
/// src field, the dst field, the exact key, or an arbitrary ternary mask.
fn apply_cam_op(
    cam: &mut CamCrossbar,
    rows: usize,
    flip_kernels: bool,
    op: (u8, u8, u8, u8),
    out: &mut Vec<HitVector>,
) {
    const SRC_MASK: u128 = 0xFFFF_FFFF_0000_0000;
    const DST_MASK: u128 = 0xFFFF_FFFF;
    let (code, a, b, c) = op;
    let row = usize::from(a) % rows;
    // Small vertex spaces force key collisions across rows.
    let src = u32::from(b) % 8;
    let dst = u32::from(c) % 8;
    let key = (u128::from(src) << 32) | u128::from(dst);
    match code % 9 {
        // Bias toward writes so searches see populated arrays.
        0..=2 => cam.write(row, key).unwrap(),
        3 => cam.invalidate(row).unwrap(),
        4 => cam.invalidate_all(),
        5 => out.push(cam.search(u128::from(src) << 32, SRC_MASK)),
        6 => out.push(cam.search(u128::from(dst), DST_MASK)),
        7 => out.push(cam.search(key, (u128::from(b) << 32) | u128::from(c))),
        _ => {
            // Mid-stream kernel switches must be seamless (they trigger
            // the lazy plane rebuild). Only the Packed run flips; the
            // Scalar reference stays scalar throughout.
            if flip_kernels {
                let other = match cam.kernel() {
                    Kernel::Packed => Kernel::Scalar,
                    Kernel::Scalar => Kernel::Packed,
                };
                cam.set_kernel(other);
            }
            out.push(cam.search(key, SRC_MASK | DST_MASK));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any op interleaving on any bank depth — fault-free or seeded-
    /// faulty, in every search mode, with kernel switches mid-stream —
    /// yields hit vectors, device stats, and fault stats bit-identical
    /// to the scalar linear-scan reference.
    #[test]
    fn packed_cam_matches_scalar(
        ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..80,
        ),
        depth_ix in 0usize..DEPTHS.len(),
        seed in any::<u64>(),
        faulty in any::<bool>(),
        mode_ix in 0usize..MODES.len(),
    ) {
        let rows = DEPTHS[depth_ix];
        let mode = MODES[mode_ix];
        let g = CamGeometry {
            rows,
            ..CamGeometry::paper()
        };
        let run = |kernel: Kernel, flip: bool| {
            let mut cam = CamCrossbar::new(g);
            cam.set_search_mode(mode);
            cam.set_kernel(kernel);
            if faulty {
                cam.set_faults(Some(CamFaultState::new(
                    FaultModel {
                        seed,
                        cam_stuck_ber: 0.01,
                        write_fail_rate: 0.05,
                        cam_upset_rate: 0.02,
                        ..FaultModel::none()
                    },
                    &g,
                )));
            }
            let mut hits = Vec::new();
            for &op in &ops {
                apply_cam_op(&mut cam, rows, flip, op, &mut hits);
            }
            (hits, cam.stats().clone(), cam.fault_stats().copied())
        };
        let scalar = run(Kernel::Scalar, false);
        let packed = run(Kernel::Packed, false);
        let flappy = run(Kernel::Packed, true);
        prop_assert_eq!(&scalar.0, &packed.0, "hit vectors diverged");
        prop_assert_eq!(&scalar.1, &packed.1, "device stats diverged");
        prop_assert_eq!(&scalar.2, &packed.2, "fault stats diverged");
        prop_assert_eq!(&scalar.0, &flappy.0, "kernel flip changed hits");
        prop_assert_eq!(&scalar.1, &flappy.1, "kernel flip changed stats");
    }

    /// Quantized MAC bursts — full (`mac`) and restricted read-out
    /// (`mac_lines_into`), both directions, fault-free or stuck-cell
    /// seeded — produce bit-identical sums and stats in both kernels.
    #[test]
    fn packed_mac_matches_scalar(
        cells in prop::collection::vec(
            prop::collection::vec(0u32..=0xFFFF, 1..=16),
            1..=16,
        ),
        seed in any::<u64>(),
        faulty in any::<bool>(),
        transposed in any::<bool>(),
    ) {
        let g = MacGeometry::paper();
        let n = cells.len();
        let inputs: Vec<u32> = (0..n).map(|i| (i as u32 * 7919 + 13) & 0xFFFF).collect();
        let active: Vec<usize> = (0..n).collect();
        let direction = if transposed {
            MacDirection::ColumnsToRows
        } else {
            MacDirection::RowsToColumns
        };
        // Restricted read-out lines: every other crossed line.
        let crossed = if transposed { g.rows } else { g.cols };
        let lines: Vec<usize> = (0..crossed).step_by(2).collect();
        let run = |kernel: Kernel| {
            let mut mac = MacCrossbar::new(g, Fidelity::Quantized);
            mac.set_kernel(kernel);
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
            let full = mac.mac(direction, &active, &inputs).unwrap();
            let mut restricted = Vec::new();
            mac.mac_lines_into(direction, &active, &inputs, &lines, &mut restricted)
                .unwrap();
            (full, restricted, mac.stats().clone())
        };
        let scalar = run(Kernel::Scalar);
        let packed = run(Kernel::Packed);
        prop_assert_eq!(&scalar.0, &packed.0, "full-burst sums diverged");
        prop_assert_eq!(&scalar.1, &packed.1, "restricted sums diverged");
        prop_assert_eq!(&scalar.2, &packed.2, "device stats diverged");
        // Restricted read-out agrees with the full burst line-for-line.
        for (i, &l) in lines.iter().enumerate() {
            prop_assert_eq!(packed.1[i], packed.0[l], "line {}", l);
        }
    }

    /// Lazily rebuilt planes on banks with a partial last word (70 rows),
    /// the paper depth and a deep bank, at widths below, at and above one
    /// 64-bit half: any interleaving of writes, single and bulk
    /// invalidations and searches answers exactly like the scalar scan,
    /// including keys and masks with nonzero high halves.
    #[test]
    fn lazy_planes_match_scalar_across_depths_and_widths(
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
        let run = |kernel: Kernel| {
            let mut cam = CamCrossbar::new(g);
            cam.set_search_mode(SearchMode::Linear);
            cam.set_kernel(kernel);
            let mut hits = Vec::new();
            for &(code, row, lo, hi) in &ops {
                let row = usize::from(row) % rows;
                // Few distinct values per half force multi-row matches;
                // the high half is zero in about half of the keys.
                let key = (u128::from(hi % 4 * (hi >> 62)) << 64) | u128::from(lo % 6);
                match code {
                    0..=2 => cam.write(row, key).unwrap(),
                    3 => cam.invalidate(row).unwrap(),
                    4 => cam.invalidate_all(),
                    5 => hits.push(cam.search(key, u128::MAX)),
                    6 => hits.push(cam.search(key, u128::from(u64::MAX))),
                    _ => hits.push(cam.search(key, (u128::from(hi) << 64) | u128::from(lo))),
                }
            }
            (hits, cam.stats().clone())
        };
        let scalar = run(Kernel::Scalar);
        let packed = run(Kernel::Packed);
        prop_assert_eq!(&scalar.0, &packed.0, "hit vectors diverged");
        prop_assert_eq!(&scalar.1, &packed.1, "device stats diverged");
    }
}
