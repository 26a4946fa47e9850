//! Word-parallel packed bit-plane storage for the CAM search path.
//!
//! The scalar matcher walks one stored entry per iteration. Here the
//! stored bits are transposed into per-bit *planes* of `u64` words —
//! `planes[word * width_bits + bit]` holds bit `bit` of rows
//! `word*64 .. word*64+64` — so one XOR/AND/NOT per unmasked key bit
//! evaluates 64 rows at a time, and the accumulator going to zero ends the
//! word early. Searches over the paper's 32-bit src/dst fields touch at
//! most `32 × ⌈rows/64⌉` words instead of `rows` 128-bit entries.
//!
//! The planes are built from the *post-fault* [`CamEntry`] contents (after
//! stuck-bit corruption), so fault composition is inherited from the entry
//! store rather than re-modeled.
//!
//! Maintenance is *lazy and per word*. Writes and invalidations only set
//! the stale bit of the 64-row word they touch; the first packed search
//! after a change rebuilds just the stale words. A rebuild is one in-place
//! 64×64 bit-matrix transpose ([`transpose64`]) of the word's low 64 bits
//! per row, plus a second one for the high half only when some row of the
//! word has a nonzero high half (the paper's 32+32-bit edge keys never do,
//! so those planes are simply zeroed). Every block program rewrites the
//! whole bank and most blocks are served by the exact-match index, never
//! by the planes, so a block program only marks every word stale and the
//! planes are paid for only when a search needs them — in bulk.

use crate::cam::CamEntry;
use crate::hit_vector::HitVector;

/// Bit-plane transposed view of a CAM entry store, rebuilt per 64-row word
/// on demand. A word whose stale bit is clear mirrors its entries exactly:
/// stored bits in the planes, valid flags in `valid`.
#[derive(Debug, Clone)]
pub(crate) struct PackedPlanes {
    width_bits: usize,
    words: usize,
    /// `planes[word * width_bits + bit]`: bit `bit` of 64 consecutive rows.
    planes: Vec<u64>,
    /// One bit per row: whether the row holds live data.
    valid: Vec<u64>,
    /// One bit per 64-row word: set when the entry store changed under it
    /// since its last rebuild.
    stale: Vec<u64>,
}

impl PackedPlanes {
    /// All-invalid planes covering `rows × width_bits` cells (clean: they
    /// mirror a fresh entry store of zero, invalid rows).
    pub(crate) fn new(rows: usize, width_bits: usize) -> Self {
        let words = rows.div_ceil(64);
        PackedPlanes {
            width_bits,
            words,
            planes: vec![0; words * width_bits],
            valid: vec![0; words],
            stale: vec![0; words.div_ceil(64)],
        }
    }

    /// Marks the word holding `row` stale (its entry was written or
    /// invalidated).
    pub(crate) fn mark_stale(&mut self, row: usize) {
        let w = row / 64;
        self.stale[w / 64] |= 1 << (w % 64);
    }

    /// Marks every word stale (bulk invalidation).
    pub(crate) fn mark_all_stale(&mut self) {
        for (i, s) in self.stale.iter_mut().enumerate() {
            let words = self.words - i * 64;
            *s = if words >= 64 {
                u64::MAX
            } else {
                (1 << words) - 1
            };
        }
    }

    /// Whether any word awaits a rebuild.
    #[cfg(test)]
    fn is_stale(&self) -> bool {
        self.stale.iter().any(|&s| s != 0)
    }

    /// Rebuilds every stale word from the post-fault entry store; a clean
    /// store costs one pass over the stale mask.
    fn refresh(&mut self, entries: &[CamEntry]) {
        // gaasx-lint: hot
        for i in 0..self.stale.len() {
            let mut stale = std::mem::take(&mut self.stale[i]);
            while stale != 0 {
                let w = i * 64 + stale.trailing_zeros() as usize;
                stale &= stale - 1;
                self.rebuild_word(w, entries);
            }
        }
        // gaasx-lint: end-hot
    }

    /// Re-derives word `w`'s valid bits and planes from its (up to) 64
    /// entries: one transpose for the low halves, and one for the high
    /// halves only when one of them is nonzero.
    fn rebuild_word(&mut self, w: usize, entries: &[CamEntry]) {
        // gaasx-lint: hot
        let rows = &entries[w * 64..entries.len().min(w * 64 + 64)];
        let mut lo = [0u64; 64];
        let mut hi = [0u64; 64];
        let mut valid = 0u64;
        let mut any_hi = 0u64;
        for (i, e) in rows.iter().enumerate() {
            lo[i] = e.bits as u64;
            hi[i] = (e.bits >> 64) as u64;
            any_hi |= hi[i];
            valid |= u64::from(e.valid) << i;
        }
        self.valid[w] = valid;
        let base = w * self.width_bits;
        let low_planes = self.width_bits.min(64);
        transpose64(&mut lo);
        self.planes[base..base + low_planes].copy_from_slice(&lo[..low_planes]);
        if self.width_bits > 64 {
            let high = &mut self.planes[base + 64..base + self.width_bits];
            if any_hi == 0 {
                high.fill(0);
            } else {
                transpose64(&mut hi);
                high.copy_from_slice(&hi[..self.width_bits - 64]);
            }
        }
        // gaasx-lint: end-hot
    }

    /// Word-parallel ternary match: rebuilds any stale word from
    /// `entries`, then for each 64-row word starts the accumulator from
    /// the valid bits and AND-folds `plane` or `!plane` per unmasked key
    /// bit, ending the word as soon as it reaches zero. Every word of
    /// `out` is overwritten. `key`/`mask` must already be clipped to the
    /// geometry width.
    ///
    /// The mask is decomposed into `(plane offset, key bit)` pairs once,
    /// outside the word loop: the 128-bit `trailing_zeros`/`m &= m-1`
    /// fold compiles to multi-instruction double-word sequences, and
    /// paying them per *word* rather than per *search* used to cost more
    /// than the word-parallelism saved.
    pub(crate) fn search_into(
        &mut self,
        entries: &[CamEntry],
        key: u128,
        mask: u128,
        out: &mut HitVector,
    ) {
        // gaasx-lint: hot
        self.refresh(entries);
        let mut folds = [(0usize, false); 128];
        let mut n = 0;
        let mut m = mask;
        while m != 0 {
            let bit = m.trailing_zeros() as usize;
            m &= m - 1;
            folds[n] = (bit, key >> bit & 1 == 1);
            n += 1;
        }
        let folds = &folds[..n];
        for w in 0..self.words {
            let mut acc = self.valid[w];
            let base = w * self.width_bits;
            for &(bit, key_bit) in folds {
                if acc == 0 {
                    break;
                }
                let plane = self.planes[base + bit];
                acc &= if key_bit { plane } else { !plane };
            }
            out.set_word(w, acc);
        }
        // gaasx-lint: end-hot
    }
}

/// In-place transpose of a 64×64 bit matrix: afterwards bit `i` of `a[j]`
/// is what bit `j` of `a[i]` was. Six rounds swap the off-diagonal blocks
/// of halving size (32, 16, …, 1), each round one shift-XOR-mask step per
/// row pair — 192 steps instead of 4096 single-bit moves.
fn transpose64(a: &mut [u64; 64]) {
    // gaasx-lint: hot
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        // Visit each row `k` with bit `j` clear, paired with row `k + j`:
        // the high-`j` columns of row `k` trade places with the low-`j`
        // columns of row `k + j`.
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
    // gaasx-lint: end-hot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_scan(entries: &[CamEntry], key: u128, mask: u128) -> Vec<usize> {
        entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid && (e.bits ^ key) & mask == 0)
            .map(|(i, _)| i)
            .collect()
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn transpose64_matches_a_bit_by_bit_oracle() {
        let mut state = 0x5EED;
        for case in 0..64 {
            let mut a = [0u64; 64];
            for row in &mut a {
                *row = splitmix(&mut state);
                // Sparse and dense rows alongside uniform ones.
                match case % 3 {
                    1 => *row &= splitmix(&mut state) & splitmix(&mut state),
                    2 => *row |= splitmix(&mut state) | splitmix(&mut state),
                    _ => {}
                }
            }
            let mut oracle = [0u64; 64];
            for (i, &row) in a.iter().enumerate() {
                for (j, col) in oracle.iter_mut().enumerate() {
                    *col |= (row >> j & 1) << i;
                }
            }
            let mut t = a;
            transpose64(&mut t);
            assert_eq!(t, oracle, "case {case}");
            transpose64(&mut t);
            assert_eq!(t, a, "transpose is an involution (case {case})");
        }
    }

    #[test]
    fn packed_matches_scalar_on_partial_last_word() {
        // 70 rows: the last word has 6 live rows and 58 padding bits.
        let mut entries = vec![
            CamEntry {
                bits: 0,
                valid: false
            };
            70
        ];
        let mut planes = PackedPlanes::new(70, 128);
        for (row, e) in entries.iter_mut().enumerate() {
            // Rows 64.. carry a nonzero high half, so only the last word
            // takes the high-half transpose.
            let high = if row >= 64 { (row as u128) << 96 } else { 0 };
            let bits = high | ((row as u128 % 5) << 32) | (row as u128 % 7);
            *e = CamEntry { bits, valid: true };
            planes.mark_stale(row);
        }
        let mut out = HitVector::new(70);
        for v in 0..8u128 {
            for mask in [0xFFFF_FFFFu128, 0xFFFF_FFFF_0000_0000, u64::MAX as u128] {
                let key = if mask == 0xFFFF_FFFF { v } else { v << 32 };
                out.reset(70);
                planes.search_into(&entries, key, mask, &mut out);
                assert_eq!(
                    out.iter_ones().collect::<Vec<_>>(),
                    scalar_scan(&entries, key, mask),
                    "key={key:#x} mask={mask:#x}"
                );
            }
        }
        let key = (66u128 << 96) | (1 << 32) | 3;
        planes.search_into(&entries, key, u128::MAX, &mut out);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![66]);
    }

    #[test]
    fn invalidation_stales_the_word_and_never_matches() {
        let mut entries = vec![
            CamEntry {
                bits: 0,
                valid: false
            };
            64
        ];
        let mut planes = PackedPlanes::new(64, 8);
        entries[3] = CamEntry {
            bits: 0xAB,
            valid: true,
        };
        planes.mark_stale(3);
        let mut out = HitVector::new(64);
        planes.search_into(&entries, 0xAB, 0xFF, &mut out);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![3]);
        // The stored bits survive invalidation; only the flag drops.
        entries[3].valid = false;
        planes.mark_stale(3);
        planes.search_into(&entries, 0xAB, 0xFF, &mut out);
        assert_eq!(out.count(), 0);
        entries[3].valid = true;
        planes.mark_stale(3);
        planes.search_into(&entries, 0xAB, 0xFF, &mut out);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![3]);
        entries[3].valid = false;
        planes.mark_all_stale();
        planes.search_into(&entries, 0xAB, 0xFF, &mut out);
        assert_eq!(out.count(), 0);
    }

    #[test]
    fn high_planes_clear_once_no_row_has_a_high_half() {
        let mut entries = vec![
            CamEntry {
                bits: (1u128 << 100) | 7,
                valid: true,
            };
            64
        ];
        let mut planes = PackedPlanes::new(64, 128);
        planes.mark_all_stale();
        let mut out = HitVector::new(64);
        planes.search_into(&entries, (1u128 << 100) | 7, u128::MAX, &mut out);
        assert_eq!(out.count(), 64);
        // Every row loses its high half: the rebuild skips the high
        // transpose and must zero the high planes instead.
        for e in &mut entries {
            e.bits = 7;
        }
        planes.mark_all_stale();
        planes.search_into(&entries, 7, u128::MAX, &mut out);
        assert_eq!(out.count(), 64);
        planes.search_into(&entries, (1u128 << 100) | 7, u128::MAX, &mut out);
        assert_eq!(out.count(), 0);
    }

    #[test]
    fn searches_rebuild_only_stale_words() {
        let mut entries = vec![
            CamEntry {
                bits: 1,
                valid: true,
            };
            130
        ];
        let mut planes = PackedPlanes::new(130, 2);
        planes.mark_all_stale();
        assert!(planes.is_stale());
        let mut out = HitVector::new(130);
        planes.search_into(&entries, 1, 0b11, &mut out);
        assert!(!planes.is_stale());
        assert_eq!(out.count(), 130);
        // Change one row in each of words 0 and 2, but stale only word 2:
        // word 0 keeps answering from its last rebuild, so the search
        // provably touched nothing but the stale word.
        entries[5].bits = 2;
        entries[129].bits = 2;
        planes.mark_stale(129);
        planes.search_into(&entries, 2, 0b11, &mut out);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![129]);
        planes.mark_stale(5);
        planes.search_into(&entries, 2, 0b11, &mut out);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![5, 129]);
    }
}
