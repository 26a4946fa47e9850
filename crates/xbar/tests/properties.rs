//! Property-based tests of the crossbar device models.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

use gaasx_xbar::fault::CamFaultState;
use gaasx_xbar::fixed::Quantizer;
use gaasx_xbar::geometry::{CamGeometry, MacGeometry};
use gaasx_xbar::{CamCrossbar, FaultModel, Fidelity, HitVector, MacCrossbar, MacDirection};

/// Strategy: cell contents for up to 16 rows × 16 cols plus matching
/// active-row inputs.
fn mac_setup() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<u32>)> {
    let rows = prop::collection::vec(prop::collection::vec(0u32..=0xFFFF, 1..=16), 1..=16);
    rows.prop_flat_map(|cells| {
        let n = cells.len();
        (Just(cells), prop::collection::vec(0u32..=0xFFFF, n..=n))
    })
}

fn loaded_mac(cells: &[Vec<u32>]) -> MacCrossbar {
    let mut mac = MacCrossbar::new(MacGeometry::paper(), Fidelity::Exact);
    for (r, row) in cells.iter().enumerate() {
        mac.write_row(r, row).unwrap();
    }
    mac
}

/// Decodes one raw tuple into a CAM operation — program, invalidate
/// (single row or bulk, the same paths spare-row remap exercises), or a
/// search over the src field, the dst field, the exact key, or an
/// arbitrary ternary mask — and applies it. Searches push their hit
/// vector into `out`.
fn apply_cam_op(cam: &mut CamCrossbar, op: (u8, u8, u8, u8), out: &mut Vec<HitVector>) {
    const SRC_MASK: u128 = 0xFFFF_FFFF_0000_0000;
    const DST_MASK: u128 = 0xFFFF_FFFF;
    let (code, a, b, c) = op;
    let row = usize::from(a) % 128;
    // Small vertex spaces force key collisions across rows.
    let src = u32::from(b) % 8;
    let dst = u32::from(c) % 8;
    let key = (u128::from(src) << 32) | u128::from(dst);
    match code % 8 {
        // Bias toward writes so searches see populated arrays.
        0..=2 => cam.write(row, key).unwrap(),
        3 => cam.invalidate(row).unwrap(),
        4 => cam.invalidate_all(),
        5 => out.push(cam.search(u128::from(src) << 32, SRC_MASK)),
        6 => out.push(cam.search(u128::from(dst), DST_MASK)),
        _ => out.push(cam.search(key, (u128::from(b) << 32) | u128::from(c))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under a fault model with stuck bits and write failures but no
    /// search upsets, a search draws no random numbers: repeating it on
    /// unchanged entries returns the same hit vector. This
    /// is what lets the engine replay the 2nd and 3rd vote of a CAM
    /// majority vote instead of searching again.
    #[test]
    fn upset_free_searches_repeat_exactly(
        ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..80,
        ),
        seed in any::<u64>(),
        cam_stuck_ber in 0.0..0.05f64,
        write_fail_rate in 0.0..0.5f64,
    ) {
        let g = CamGeometry::paper();
        let model = FaultModel {
            seed,
            cam_stuck_ber,
            write_fail_rate,
            ..FaultModel::none()
        };
        let mut cam = CamCrossbar::new(g);
        cam.set_faults(Some(CamFaultState::new(model, &g)));
        prop_assert!(!cam.search_draws());
        let mut hits = Vec::new();
        for &op in &ops {
            apply_cam_op(&mut cam, op, &mut hits);
            let before = hits.len();
            // Replaying the op repeats a search (and only a search).
            if op.0 % 8 >= 5 {
                apply_cam_op(&mut cam, op, &mut hits);
                prop_assert_eq!(&hits[before - 1], &hits[before], "repeat diverged");
            }
        }
        prop_assert_eq!(cam.fault_stats().unwrap().cam_upsets, 0);
        let mut upsetting = CamCrossbar::new(g);
        upsetting.set_faults(Some(CamFaultState::new(
            FaultModel { cam_upset_rate: 1e-3, ..model },
            &g,
        )));
        prop_assert!(upsetting.search_draws());
    }

    /// The exact MAC equals the host-side dot product, per column.
    #[test]
    fn exact_mac_matches_host_math((cells, inputs) in mac_setup()) {
        let mut mac = loaded_mac(&cells);
        let active: Vec<usize> = (0..cells.len()).collect();
        let out = mac.mac(MacDirection::RowsToColumns, &active, &inputs).unwrap();
        for (col, &got) in out.iter().enumerate().take(16) {
            let want: u64 = cells
                .iter()
                .zip(&inputs)
                .map(|(row, &x)| u64::from(x) * u64::from(row.get(col).copied().unwrap_or(0)))
                .sum();
            prop_assert_eq!(got, want);
        }
    }

    /// MAC is additive over disjoint activation sets.
    #[test]
    fn mac_is_additive_over_row_sets((cells, inputs) in mac_setup()) {
        let mut mac = loaded_mac(&cells);
        let n = cells.len();
        let all: Vec<usize> = (0..n).collect();
        let whole = mac.mac(MacDirection::RowsToColumns, &all, &inputs).unwrap();
        let split = n / 2;
        let a = mac
            .mac(MacDirection::RowsToColumns, &all[..split], &inputs[..split])
            .unwrap();
        let b = mac
            .mac(MacDirection::RowsToColumns, &all[split..], &inputs[split..])
            .unwrap();
        for col in 0..16 {
            prop_assert_eq!(whole[col], a[col] + b[col]);
        }
    }

    /// Quantized (ADC-saturating) outputs never exceed exact outputs.
    #[test]
    fn quantized_never_exceeds_exact((cells, inputs) in mac_setup()) {
        let mut exact = loaded_mac(&cells);
        let mut quant = MacCrossbar::new(MacGeometry::paper(), Fidelity::Quantized);
        for (r, row) in cells.iter().enumerate() {
            quant.write_row(r, row).unwrap();
        }
        let active: Vec<usize> = (0..cells.len()).collect();
        let e = exact.mac(MacDirection::RowsToColumns, &active, &inputs).unwrap();
        let q = quant.mac(MacDirection::RowsToColumns, &active, &inputs).unwrap();
        for col in 0..16 {
            prop_assert!(q[col] <= e[col], "col {}: {} > {}", col, q[col], e[col]);
        }
    }

    /// Transposing the direction transposes the computation.
    #[test]
    fn transposed_mac_matches_host_math((cells, _inputs) in mac_setup()) {
        let mut mac = loaded_mac(&cells);
        // Drive the first min(cols, 16) columns with their index as input.
        let active: Vec<usize> = (0..8).collect();
        let inputs: Vec<u32> = (0..8).map(|i| i as u32 * 3 + 1).collect();
        let out = mac.mac(MacDirection::ColumnsToRows, &active, &inputs).unwrap();
        for (r, row) in cells.iter().enumerate() {
            let want: u64 = active
                .iter()
                .zip(&inputs)
                .map(|(&c, &x)| u64::from(x) * u64::from(row.get(c).copied().unwrap_or(0)))
                .sum();
            prop_assert_eq!(out[r], want);
        }
    }

    /// CAM search equals a brute-force masked-match filter.
    #[test]
    fn cam_search_matches_brute_force(
        entries in prop::collection::vec(any::<u64>(), 1..100),
        key in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let mut cam = CamCrossbar::new(CamGeometry::paper());
        for (i, &e) in entries.iter().enumerate() {
            cam.write(i, u128::from(e)).unwrap();
        }
        let hits = cam.search(u128::from(key), u128::from(mask));
        // Rows beyond the written range never match.
        let want: Vec<usize> = (0..entries.len())
            .filter(|&i| (entries[i] ^ key) & mask == 0)
            .collect();
        prop_assert_eq!(hits.rows(), &want[..]);
    }

    /// Quantizer: encode∘decode error is bounded by one step, and encode
    /// is monotone.
    #[test]
    fn quantizer_roundtrip_and_monotonicity(
        max in 0.5f32..1000.0,
        bits in 4u32..20,
        a in 0.0f32..1.0,
        b in 0.0f32..1.0,
    ) {
        let q = Quantizer::for_max_value(max, bits).unwrap();
        let (va, vb) = (a * max, b * max);
        // Half a step plus slack for f32 division landing a hair past the
        // rounding boundary.
        prop_assert!((q.decode(q.encode(va)) - va).abs() <= q.step() * 0.505);
        if va <= vb {
            prop_assert!(q.encode(va) <= q.encode(vb));
        }
    }
}
