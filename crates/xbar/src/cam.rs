//! Ternary content-addressable memory (TCAM) crossbar model.
//!
//! The simulated hardware performs every search as one parallel TCAM
//! operation (paper §II-C, Fig 3(b)). The host derives the hit list from
//! a per-mask bucket index keyed by the field's low bits; a search whose
//! mask gets no index slot runs the scalar scan instead. Both push the
//! matching rows in ascending order, and neither path changes what a
//! search returns or bills.

use serde::{Deserialize, Serialize};

use crate::error::XbarError;
use crate::fault::{CamFaultState, FaultStats};
use crate::geometry::CamGeometry;
use crate::hit_vector::HitVector;
use crate::{is_prefix, XbarStats};

/// Most distinct search masks indexed before falling back to the linear
/// scan. Real workloads use exactly two (the src field and the dst field).
const MAX_INDEXED_MASKS: usize = 4;

/// Chain terminator in [`FieldIndex::heads`] and [`FieldIndex::next`].
const NIL: u32 = u32::MAX;

/// Bucket index over one maskable field: the low bits of
/// `stored_bits & mask` → rows.
///
/// A row's bucket is its masked field value shifted down to the mask's
/// lowest set bit, truncated to `heads.len()` (a power of two, at least
/// twice the row count). The rows of one bucket form a chain: `heads`
/// holds its first row and `next[row]` links each row to the following
/// one (or [`NIL`]). A rebuild is one O(rows) pass with no hashing, and a
/// probe walks its bucket's chain and keeps the rows whose field equals
/// the key's, so neither allocates — both buffers are sized once. This
/// emulates the paper's one-operation TCAM search at O(rows) host cost per
/// block load and O(chain) per search.
///
/// The probe is exact: every valid row sits in exactly one chain, the one
/// of its own value, and the compare drops rows of other values that
/// share the bucket. Consecutive vertex ids never share a bucket; in the
/// worst case, every value equal modulo the bucket count, a chain is as
/// long as a scan.
///
/// Built from the *post-fault* stored bits, so stuck-cell corruption is
/// indexed exactly as the device would match it. An index is **clean** when
/// `clean_epoch` equals the crossbar's entry-store epoch. Every mutation
/// bumps the epoch, so a written or invalidated row turns every index
/// stale and the next indexed search rebuilds it.
#[derive(Debug, Clone)]
struct FieldIndex {
    mask: u128,
    /// Bucket → first row of its chain ([`NIL`] when empty).
    heads: Vec<u32>,
    /// Per geometry row: the next row in the same bucket. Only meaningful
    /// for rows currently linked into a chain.
    next: Vec<u32>,
    clean_epoch: u64,
}

impl FieldIndex {
    fn new(mask: u128, rows: usize) -> Self {
        FieldIndex {
            mask,
            heads: vec![NIL; (2 * rows).next_power_of_two()],
            next: vec![NIL; rows],
            clean_epoch: 0,
        }
    }

    /// The bucket of a field value: its bits from the mask's lowest set
    /// bit up, truncated to the bucket count. A zero mask puts every
    /// value in bucket 0.
    fn bucket(&self, bits: u128) -> usize {
        ((bits & self.mask).wrapping_shr(self.mask.trailing_zeros()) as usize)
            & (self.heads.len() - 1)
    }

    /// Links `row` at the head of its bucket's chain.
    fn link_row(&mut self, bits: u128, row: u32) {
        let b = self.bucket(bits);
        self.next[row as usize] = self.heads[b];
        self.heads[b] = row;
    }
}

/// One stored CAM entry: up to 128 bits of content plus a valid flag.
///
/// GaaS-X packs an edge's `(src, dst)` vertex pair into one entry; the
/// ternary search masks whichever field is not being matched (paper §IV:
/// "The ternary CAM operation enables the flexibility to identify the edges
/// corresponding to a particular source or destination vertex").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CamEntry {
    /// The stored bits.
    pub bits: u128,
    /// Whether the row holds live data (cleared rows never match).
    pub valid: bool,
}

/// A ReRAM TCAM crossbar (paper Fig 3(b)).
///
/// Each search broadcasts a `(key, mask)` pair to all rows in parallel; a
/// row matches when every *unmasked* bit equals the key. The entire search
/// costs one 4 ns CAM operation regardless of how many rows match.
///
/// ```
/// use gaasx_xbar::{CamCrossbar, CamEntry};
/// use gaasx_xbar::geometry::CamGeometry;
///
/// let mut cam = CamCrossbar::new(CamGeometry::paper());
/// cam.write(0, 0xAB_01)?; // e.g. src=0xAB, dst=0x01
/// cam.write(1, 0xCD_01)?;
/// // Search dst field (low 8 bits) for 0x01, masking the src field.
/// let hits = cam.search(0x01, 0xFF);
/// assert_eq!(hits.rows(), &[0, 1]);
/// # Ok::<(), gaasx_xbar::XbarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CamCrossbar {
    geometry: CamGeometry,
    /// Stored entries. Always the *post-fault* view: stuck bits are applied
    /// as entries are written, so the hot search loop reads them unchanged.
    entries: Vec<CamEntry>,
    width_mask: u128,
    /// Boxed, so a fault-free crossbar holds one pointer of it.
    faults: Option<Box<CamFaultState>>,
    /// Draw key of the load held (see [`set_draw_key`](Self::set_draw_key)).
    draw_key: u64,
    stats: XbarStats,
    /// Entry-store version, bumped on every mutation. An index whose
    /// `clean_epoch` matches is exact; anything else rebuilds lazily.
    epoch: u64,
    /// Lazily created per-mask bucket indexes (at most
    /// [`MAX_INDEXED_MASKS`]; further masks use the linear scan).
    indexes: Vec<FieldIndex>,
    /// Debug-build scratch for cross-checking every index-served search
    /// against the scalar scan without allocating per search.
    #[cfg(debug_assertions)]
    check_hv: HitVector,
}

impl CamCrossbar {
    /// Creates an empty CAM with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid; construct via a validated
    /// [`CamGeometry`] to avoid this.
    pub fn new(geometry: CamGeometry) -> Self {
        // gaasx-lint: allow(panic-in-lib) -- documented panic contract of new(); validated presets cannot hit it
        geometry.validate().expect("invalid CAM geometry");
        let width_mask = if geometry.width_bits == 128 {
            u128::MAX
        } else {
            (1u128 << geometry.width_bits) - 1
        };
        CamCrossbar {
            geometry,
            entries: vec![
                CamEntry {
                    bits: 0,
                    valid: false
                };
                geometry.rows
            ],
            width_mask,
            faults: None,
            draw_key: 0,
            stats: XbarStats::new(),
            epoch: 1,
            indexes: Vec::new(),
            #[cfg(debug_assertions)]
            check_hv: HitVector::new(0),
        }
    }

    /// Attaches seeded device-fault state. Stuck bits corrupt entries as
    /// they are written; transient write failures and search upsets are
    /// keyed draws (see [`set_draw_key`](Self::set_draw_key)). `None`
    /// detaches all fault behaviour.
    pub fn set_faults(&mut self, faults: Option<CamFaultState>) {
        self.faults = faults.map(Box::new);
        if let Some(f) = self.faults.as_mut() {
            f.set_key(self.draw_key);
        }
    }

    /// Names the load the CAM now holds. Write failures draw on this key,
    /// the physical row and the row's attempt under the key (a new key
    /// restarts every row at attempt 0); search upsets draw on this key,
    /// the searched key and mask, and the vote round. Two CAMs given the
    /// same keys draw alike however their operations interleave.
    pub fn set_draw_key(&mut self, key: u64) {
        self.draw_key = key;
        if let Some(f) = self.faults.as_mut() {
            f.set_key(key);
        }
    }

    /// Injected-fault counters, when fault state is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_deref().map(CamFaultState::stats)
    }

    /// Whether a search draws upsets (attached fault state with a nonzero
    /// upset rate). When it does not, every round of a search on unchanged
    /// entries returns the same hit vector, so a caller may replay the
    /// result and bill the repeat with
    /// [`count_replayed_search`](Self::count_replayed_search).
    pub fn search_draws(&self) -> bool {
        self.faults
            .as_deref()
            .is_some_and(CamFaultState::upsets_searches)
    }

    /// Folds a sibling crossbar's injected-fault counters into this one
    /// (no-op without attached fault state).
    pub fn merge_fault_stats(&mut self, other: Option<&FaultStats>) {
        if let (Some(f), Some(o)) = (self.faults.as_mut(), other) {
            f.merge_stats(o);
        }
    }

    /// Cumulative per-row wear counts from the attached fault state.
    /// `None` when no fault state is attached or endurance tracking is off.
    pub fn fault_wear(&self) -> Option<&[u64]> {
        self.faults
            .as_deref()
            .map(CamFaultState::wear)
            .filter(|w| !w.is_empty())
    }

    /// Restores a wear map into the attached fault state (no-op without
    /// one, or on a geometry mismatch).
    pub fn restore_fault_wear(&mut self, wear: &[u64]) {
        if let Some(f) = self.faults.as_mut() {
            f.restore_wear(wear);
        }
    }

    /// Clears the attached fault state's injected-event counters for a new
    /// accounting window, preserving wear (no-op without fault state).
    pub fn reset_fault_stats(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            f.reset_stats();
        }
    }

    /// The geometry this CAM was built with.
    pub fn geometry(&self) -> CamGeometry {
        self.geometry
    }

    /// Number of rows currently holding valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Writes an entry into `row`, counting the cell programming cost.
    ///
    /// Host-side the write is a store plus an epoch bump: the exact-match
    /// indexes rebuild on their next search.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::RowOutOfRange`] if `row` exceeds the geometry.
    pub fn write(&mut self, row: usize, bits: u128) -> Result<(), XbarError> {
        if row >= self.geometry.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.geometry.rows,
            });
        }
        let masked = bits & self.width_mask;
        let stored = CamEntry {
            bits: match self.faults.as_mut() {
                Some(faults) => faults.programmed(row, masked) & self.width_mask,
                None => masked,
            },
            valid: true,
        };
        self.entries[row] = stored;
        self.epoch = self.epoch.wrapping_add(1);
        self.bill_row_writes(1);
        Ok(())
    }

    /// Programs a whole block in one bank write (the paper's data-loading
    /// phase, §III-B): physical row `rows[i]` stores `keys[i]` and every
    /// other row is left invalid. `rows` holds distinct rows, in any order.
    ///
    /// Equivalent to [`invalidate_all`](Self::invalidate_all) followed by
    /// [`write`](Self::write)`(rows[i], keys[i])` for every `i`, in any
    /// order: the same stored bits, the same billing, and the same fault
    /// outcomes — stuck bits apply per row, and each row burst draws its
    /// write failure on the current draw key, its row and its attempt,
    /// never on the order of the writes. Host-side it skips the per-row
    /// bookkeeping: the indexes turn stale once for the block.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::DimensionMismatch`] if `rows` and `keys`
    /// differ in length, or [`XbarError::RowOutOfRange`] for a row past
    /// the geometry, without touching the CAM.
    pub fn program_block(&mut self, rows: &[usize], keys: &[u128]) -> Result<(), XbarError> {
        if rows.len() != keys.len() {
            return Err(XbarError::DimensionMismatch {
                got: keys.len(),
                expected: rows.len(),
                what: "block keys",
            });
        }
        // An unremapped block is the prefix `0..n`: it writes the leading
        // rows in order and invalidates the rest. Any other block
        // invalidates every row, then writes its own.
        let prefix = rows.len() <= self.geometry.rows && is_prefix(rows);
        if !prefix {
            if let Some(&row) = rows.iter().find(|&&r| r >= self.geometry.rows) {
                return Err(XbarError::RowOutOfRange {
                    row,
                    rows: self.geometry.rows,
                });
            }
        }
        let stale = if prefix { rows.len() } else { 0 };
        self.entries[stale..]
            .iter_mut()
            .for_each(|e| e.valid = false);
        let width_mask = self.width_mask;
        let entry = |bits: u128| CamEntry {
            bits: bits & width_mask,
            valid: true,
        };
        match self.faults.as_mut() {
            None if prefix => {
                for (e, &key) in self.entries.iter_mut().zip(keys) {
                    *e = entry(key);
                }
            }
            mut faults => {
                for (&row, &key) in rows.iter().zip(keys) {
                    let key = key & width_mask;
                    let bits = faults.as_mut().map_or(key, |f| f.programmed(row, key));
                    self.entries[row] = entry(bits);
                }
            }
        }
        self.epoch = self.epoch.wrapping_add(1);
        self.bill_row_writes(keys.len() as u64);
        Ok(())
    }

    /// Bills `rows` row-programming bursts.
    fn bill_row_writes(&mut self, rows: u64) {
        self.stats.row_writes += rows;
        // A TCAM cell is a complementary ReRAM pair: 2 device writes per bit.
        self.stats.cells_written += 2 * self.geometry.width_bits as u64 * rows;
    }

    /// Invalidates `row` without counting a programming burst (valid bits
    /// live in CMOS latches).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::RowOutOfRange`] if `row` exceeds the geometry.
    pub fn invalidate(&mut self, row: usize) -> Result<(), XbarError> {
        if row >= self.geometry.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.geometry.rows,
            });
        }
        if self.entries[row].valid {
            self.entries[row].valid = false;
            self.epoch = self.epoch.wrapping_add(1);
        }
        Ok(())
    }

    /// Invalidates every row (start of a new shard load). Stored bits
    /// survive; the indexes are only marked stale and rebuild on their
    /// next use.
    pub fn invalidate_all(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Returns the position of a clean index over `mask`, building or
    /// rebuilding it from the valid post-fault entries when needed.
    /// `None` once the distinct-mask cap is hit — callers fall back to the
    /// linear scan, which is always correct.
    fn ensure_index(&mut self, mask: u128) -> Option<usize> {
        let pos = match self.indexes.iter().position(|ix| ix.mask == mask) {
            Some(p) => p,
            None => {
                if self.indexes.len() >= MAX_INDEXED_MASKS {
                    return None;
                }
                self.indexes.push(FieldIndex::new(mask, self.geometry.rows));
                self.indexes.len() - 1
            }
        };
        let epoch = self.epoch;
        let ix = &mut self.indexes[pos];
        if ix.clean_epoch != epoch {
            // Rows are linked in descending order so each chain lists its
            // rows ascending.
            ix.heads.fill(NIL);
            // gaasx-lint: hot
            for (row, e) in self.entries.iter().enumerate().rev() {
                if e.valid {
                    ix.link_row(e.bits, row as u32);
                }
            }
            // gaasx-lint: end-hot
            ix.clean_epoch = epoch;
        }
        Some(pos)
    }

    /// Ternary search: returns the ascending list of valid rows where
    /// `(stored ^ key) & mask == 0`. Bits outside the geometry width are
    /// ignored. One call = one 4 ns CAM operation.
    pub fn search(&mut self, key: u128, mask: u128) -> HitVector {
        let mut hv = HitVector::new(self.geometry.rows);
        self.search_into(key, mask, &mut hv);
        hv
    }

    /// [`search`](Self::search), writing the result into a caller-owned
    /// buffer so the steady state allocates nothing. `out` is resized (to
    /// the row count) and overwritten; prior contents are irrelevant.
    ///
    /// The hits come from the bucket index over `mask`, or from the
    /// scalar scan when every index slot holds another mask. The search is
    /// vote round 0 (see [`search_round_into`](Self::search_round_into)).
    pub fn search_into(&mut self, key: u128, mask: u128, out: &mut HitVector) {
        self.search_in_round(key, mask, 0, out);
    }

    /// [`search_into`](Self::search_into) as vote round `round` of a
    /// repeated search: the stored entries match alike in every round,
    /// but each round draws its own upset.
    pub fn search_round_into(&mut self, key: u128, mask: u128, round: u32, out: &mut HitVector) {
        self.search_in_round(key, mask, round, out);
    }

    /// The body of both searches, inlined into each so the common
    /// round-0 search costs one call.
    #[inline(always)]
    fn search_in_round(&mut self, key: u128, mask: u128, round: u32, out: &mut HitVector) {
        self.stats.cam_searches += 1;
        let key = key & self.width_mask;
        let mask = mask & self.width_mask;
        out.reset(self.geometry.rows);
        match self.ensure_index(mask) {
            Some(pos) => {
                let ix = &self.indexes[pos];
                let want = key & mask;
                // gaasx-lint: hot
                // Walk the key's bucket, which lists its rows ascending;
                // keep the rows of the key's value.
                let mut row = ix.heads[ix.bucket(key)];
                while row != NIL {
                    if self.entries[row as usize].bits & mask == want {
                        out.push(row as usize);
                    }
                    row = ix.next[row as usize];
                }
                // gaasx-lint: end-hot
                #[cfg(debug_assertions)]
                {
                    let mut check = std::mem::replace(&mut self.check_hv, HitVector::new(0));
                    check.reset(self.geometry.rows);
                    Self::linear_scan_into(&self.entries, key, mask, &mut check);
                    debug_assert!(
                        *out == check,
                        "indexed search diverged from the scalar scan \
                         (key={key:#x}, mask={mask:#x})"
                    );
                    self.check_hv = check;
                }
            }
            None => Self::linear_scan_into(&self.entries, key, mask, out),
        }
        if let Some(faults) = self.faults.as_mut() {
            faults.upset(out, key, mask, round);
        }
    }

    /// The scalar reference scan: O(rows) over the post-fault entries.
    /// Serves masks past the index cap, and is the debug-build
    /// cross-check of every index-served result.
    fn linear_scan_into(entries: &[CamEntry], key: u128, mask: u128, out: &mut HitVector) {
        // gaasx-lint: hot
        for (i, e) in entries.iter().enumerate() {
            if e.valid && (e.bits ^ key) & mask == 0 {
                out.push(i);
            }
        }
        // gaasx-lint: end-hot
    }

    /// Counts one CAM search without recomputing a hit vector.
    ///
    /// The engine's fault-free CAM vote re-searches unchanged entries and
    /// reuses the first result — but the simulated hardware still performs
    /// every physical search, so the device counter (and therefore energy
    /// accounting) must advance exactly as for [`search`](Self::search).
    pub fn count_replayed_search(&mut self) {
        self.stats.cam_searches += 1;
    }

    /// Reads back the entry at `row` (peripheral read, not a search).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::RowOutOfRange`] if `row` exceeds the geometry.
    #[inline]
    pub fn read(&self, row: usize) -> Result<CamEntry, XbarError> {
        self.entries
            .get(row)
            .copied()
            .ok_or(XbarError::RowOutOfRange {
                row,
                rows: self.geometry.rows,
            })
    }

    /// Device operation counters.
    pub fn stats(&self) -> &XbarStats {
        &self.stats
    }

    /// Resets the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = XbarStats::new();
    }

    /// Adds externally accumulated counters into this device's stats —
    /// how a primary engine absorbs the device activity of sibling worker
    /// engines when merging a sharded run.
    pub fn merge_stats(&mut self, other: &XbarStats) {
        self.stats.merge(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> CamCrossbar {
        CamCrossbar::new(CamGeometry::paper())
    }

    #[test]
    fn exact_search() {
        let mut c = cam();
        c.write(0, 42).unwrap();
        c.write(5, 43).unwrap();
        let hv = c.search(42, u128::MAX);
        assert_eq!(hv.rows(), vec![0]);
    }

    #[test]
    fn ternary_mask_ignores_fields() {
        let mut c = cam();
        // Entries share the low byte but differ in the next byte.
        c.write(0, 0x01_10).unwrap();
        c.write(1, 0x02_10).unwrap();
        c.write(2, 0x02_20).unwrap();
        let hv = c.search(0x10, 0xFF);
        assert_eq!(hv.rows().len(), 2);
    }

    #[test]
    fn invalid_rows_never_match() {
        let mut c = cam();
        c.write(0, 7).unwrap();
        c.invalidate(0).unwrap();
        assert_eq!(c.search(7, u128::MAX).rows().len(), 0);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn stats_count_operations() {
        let mut c = cam();
        c.write(0, 1).unwrap();
        c.write(1, 2).unwrap();
        c.search(1, u128::MAX);
        assert_eq!(c.stats().row_writes, 2);
        assert_eq!(c.stats().cam_searches, 1);
        assert_eq!(c.stats().cells_written, 2 * 2 * 128);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut c = cam();
        assert!(c.write(128, 0).is_err());
        assert!(c.invalidate(500).is_err());
        assert!(c.read(128).is_err());
    }

    #[test]
    fn width_mask_truncates() {
        let mut c = CamCrossbar::new(CamGeometry {
            rows: 4,
            width_bits: 8,
        });
        c.write(0, 0x1FF).unwrap(); // stored as 0xFF
        assert_eq!(c.read(0).unwrap().bits, 0xFF);
        assert_eq!(c.search(0xFF, u128::MAX).rows().len(), 1);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = cam();
        for i in 0..10 {
            c.write(i, i as u128).unwrap();
        }
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn program_block_fills_its_rows_and_rejects_a_bad_block() {
        let mut c = cam();
        for i in 0..10 {
            c.write(i, 99).unwrap();
        }
        c.program_block(&[0, 1, 2], &[5, 6, 7]).unwrap();
        assert_eq!(c.occupancy(), 3);
        assert_eq!(
            c.read(2).unwrap(),
            CamEntry {
                bits: 7,
                valid: true
            }
        );
        assert_eq!(c.search(99, u128::MAX).rows().len(), 0);
        assert_eq!(c.stats().row_writes, 13);
        let before = c.stats().clone();
        assert!(matches!(
            c.program_block(&[0, 128], &[1, 2]),
            Err(XbarError::RowOutOfRange {
                row: 128,
                rows: 128
            })
        ));
        assert!(matches!(
            c.program_block(&[0, 1], &[1]),
            Err(XbarError::DimensionMismatch {
                got: 1,
                expected: 2,
                ..
            })
        ));
        assert_eq!(c.stats(), &before);
        assert_eq!(c.occupancy(), 3, "a rejected block leaves the CAM alone");
        // Scattered rows in any order: the rest turns invalid.
        c.program_block(&[9, 4], &[8, 9]).unwrap();
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.read(4).unwrap().bits, 9);
        assert!(!c.read(0).unwrap().valid);
    }

    #[test]
    fn invalidate_is_free_of_programming_cost() {
        // Valid bits live in CMOS latches: neither per-row nor bulk
        // invalidation may count as device programming, and a failed
        // invalidate must not perturb stats either.
        let mut c = cam();
        for i in 0..10 {
            c.write(i, i as u128).unwrap();
        }
        let (writes, cells) = (c.stats().row_writes, c.stats().cells_written);
        c.invalidate(3).unwrap();
        c.invalidate(3).unwrap(); // idempotent, still free
        c.invalidate_all();
        assert!(c.invalidate(999).is_err());
        assert_eq!(c.stats().row_writes, writes);
        assert_eq!(c.stats().cells_written, cells);
        assert_eq!(c.stats().cam_searches, 0);
        // The stored bits survive invalidation; only the valid flag drops.
        assert_eq!(c.read(3).unwrap().bits, 3);
        assert!(!c.read(3).unwrap().valid);
    }

    #[test]
    fn stuck_bits_corrupt_stored_entries() {
        use crate::fault::{CamFaultState, FaultModel};
        let g = CamGeometry::paper();
        let mut c = CamCrossbar::new(g);
        c.set_faults(Some(CamFaultState::new(
            FaultModel {
                seed: 7,
                cam_stuck_ber: 0.02,
                ..FaultModel::none()
            },
            &g,
        )));
        let mut corrupted = 0;
        for row in 0..g.rows {
            let key = 0xA5A5_A5A5_A5A5_A5A5u128;
            c.write(row, key).unwrap();
            if c.read(row).unwrap().bits != key {
                corrupted += 1;
            }
        }
        assert!(corrupted > 0, "2% BER over 128×128 bits must corrupt rows");
        // An exact search for the intended key misses every corrupted row.
        let hits = c.search(0xA5A5_A5A5_A5A5_A5A5, u128::MAX);
        assert_eq!(hits.rows().len(), g.rows - corrupted);
    }

    /// One search, paired with the scalar scan's answer over the same
    /// post-fault entries.
    fn search_vs_scan(
        c: &mut CamCrossbar,
        key: u128,
        mask: u128,
        out: &mut Vec<(HitVector, HitVector)>,
    ) {
        let got = c.search(key, mask);
        let mut oracle = HitVector::new(c.geometry.rows);
        CamCrossbar::linear_scan_into(
            &c.entries,
            key & c.width_mask,
            mask & c.width_mask,
            &mut oracle,
        );
        out.push((got, oracle));
    }

    /// Runs `ops` on a CAM of `rows` rows and asserts every search it
    /// issued matched the scalar scan.
    fn assert_searches_match_scan(
        rows: usize,
        ops: impl Fn(&mut CamCrossbar, &mut Vec<(HitVector, HitVector)>),
    ) {
        let mut c = CamCrossbar::new(CamGeometry {
            rows,
            width_bits: 128,
        });
        let mut pairs = Vec::new();
        ops(&mut c, &mut pairs);
        assert!(!pairs.is_empty());
        for (i, (got, oracle)) in pairs.iter().enumerate() {
            assert_eq!(
                got, oracle,
                "search {i} diverged from the scan ({rows} rows)"
            );
        }
    }

    const SRC_MASK: u128 = 0xFFFF_FFFF_0000_0000;
    const DST_MASK: u128 = 0xFFFF_FFFF;

    #[test]
    fn field_searches_match_the_scan_including_a_partial_last_word() {
        for rows in [64, 70, 128, 130] {
            assert_searches_match_scan(rows, |c, out| {
                for i in 0..c.geometry().rows {
                    let key = (u128::from(i as u32 % 5) << 32) | u128::from(i as u32 % 7);
                    c.write(i, key).unwrap();
                }
                for v in 0..8u32 {
                    search_vs_scan(c, u128::from(v) << 32, SRC_MASK, out);
                    search_vs_scan(c, u128::from(v), DST_MASK, out);
                }
                search_vs_scan(c, 0, u128::MAX, out);
                search_vs_scan(c, (1u128 << 32) | 1, SRC_MASK | DST_MASK, out);
            });
        }
    }

    #[test]
    fn searches_match_the_scan_across_invalidate_and_rewrite() {
        assert_searches_match_scan(70, |c, out| {
            for i in 0..70 {
                c.write(i, (u128::from(i as u32 % 9) << 32) | 1).unwrap();
            }
            search_vs_scan(c, 1, DST_MASK, out);
            c.invalidate(3).unwrap();
            c.invalidate(3).unwrap(); // idempotent
            c.invalidate(69).unwrap();
            search_vs_scan(c, 1, DST_MASK, out);
            c.write(3, (7u128 << 32) | 2).unwrap(); // remap-style rewrite
            search_vs_scan(c, 2, DST_MASK, out);
            search_vs_scan(c, 7u128 << 32, SRC_MASK, out);
            c.invalidate_all();
            search_vs_scan(c, 1, DST_MASK, out);
            for i in 0..4 {
                c.write(i, (9u128 << 32) | u128::from(i as u32)).unwrap();
            }
            search_vs_scan(c, 9u128 << 32, SRC_MASK, out);
            c.program_block(&[0, 1, 2], &[1, 2, 1]).unwrap();
            search_vs_scan(c, 1, DST_MASK, out);
        });
    }

    #[test]
    fn a_mask_past_the_index_cap_is_scanned_and_writes_still_rebuild_the_indexes() {
        let mut c = cam();
        for i in 0..12 {
            c.write(i, u128::from(i as u32) * 3).unwrap();
        }
        let masks: Vec<u128> = (0..=MAX_INDEXED_MASKS as u32).map(|b| 1u128 << b).collect();
        let (indexed, past_cap) = masks.split_at(MAX_INDEXED_MASKS);
        let mut out = Vec::new();
        for &mask in indexed {
            search_vs_scan(&mut c, 0, mask, &mut out);
        }
        // The fifth mask gets no index slot: the scan serves it.
        search_vs_scan(&mut c, 0, past_cap[0], &mut out);
        assert_eq!(c.indexes.len(), MAX_INDEXED_MASKS);
        assert!(c.indexes.iter().all(|ix| ix.mask != past_cap[0]));
        // Later writes leave all four indexes stale; each rebuilds on its
        // next search and answers like the scan.
        c.write(20, 0).unwrap();
        c.invalidate(3).unwrap();
        for &mask in &masks {
            search_vs_scan(&mut c, 0, mask, &mut out);
            search_vs_scan(&mut c, mask, mask, &mut out);
        }
        for (i, (got, oracle)) in out.iter().enumerate() {
            assert_eq!(got, oracle, "search {i} diverged from the scan");
        }
        assert!(
            out[MAX_INDEXED_MASKS + 1].0.rows().contains(&20),
            "the write is visible"
        );
    }

    /// Field values equal modulo the bucket count share one chain; the
    /// probe's compare keeps only the key's rows, and an absent value in a
    /// present value's bucket hits nothing.
    #[test]
    fn values_colliding_in_one_bucket_match_the_scan() {
        for rows in [128, 2048] {
            assert_searches_match_scan(rows, |c, out| {
                let stride = (2 * rows).next_power_of_two() as u128;
                for i in 0..rows {
                    let v = (i % 3) as u128 * stride;
                    c.write(i, (v << 32) | v).unwrap();
                }
                // Values 3·stride and 4·stride are absent from bucket 0.
                for k in 0..5 {
                    search_vs_scan(c, (k * stride) << 32, SRC_MASK, out);
                    search_vs_scan(c, k * stride, DST_MASK, out);
                }
                for ix in &c.indexes {
                    assert_eq!(ix.heads.len() as u128, stride);
                    let (mut row, mut chain) = (ix.heads[0], 0);
                    while row != NIL {
                        chain += 1;
                        row = ix.next[row as usize];
                    }
                    assert_eq!(chain, rows, "every row collides in bucket 0");
                }
            });
        }
    }

    #[test]
    fn values_differing_only_above_bit_64_match_the_scan() {
        assert_searches_match_scan(128, |c, out| {
            for i in 0..128 {
                c.write(i, (u128::from(i as u32 % 9) << 64) | 5).unwrap();
            }
            for k in 0..11 {
                search_vs_scan(c, (k << 64) | 5, u128::MAX, out);
                search_vs_scan(c, k << 64, u128::MAX << 64, out);
            }
            search_vs_scan(c, 5, u128::from(u64::MAX), out);
        });
    }

    #[test]
    fn searches_reflect_post_fault_bits() {
        use crate::fault::{CamFaultState, FaultModel};
        let g = CamGeometry::paper();
        let mut c = CamCrossbar::new(g);
        c.set_faults(Some(CamFaultState::new(
            FaultModel {
                seed: 7,
                cam_stuck_ber: 0.02,
                ..FaultModel::none()
            },
            &g,
        )));
        let key = 0xA5A5_A5A5_A5A5_A5A5u128;
        for row in 0..g.rows {
            c.write(row, key).unwrap();
        }
        // The index is built over the corrupted bits, so it misses the
        // same rows the scan does.
        let mut out = Vec::new();
        search_vs_scan(&mut c, key, u128::MAX, &mut out);
        let (got, oracle) = &out[0];
        assert_eq!(got, oracle);
        assert!(got.rows().len() < g.rows, "stuck bits must miss some rows");
    }

    #[test]
    fn search_into_reuses_the_buffer_and_counts() {
        let mut c = cam();
        c.write(0, 42).unwrap();
        c.write(9, 42).unwrap();
        let mut hv = HitVector::new(0);
        c.search_into(42, u128::MAX, &mut hv);
        assert_eq!(hv.rows(), vec![0, 9]);
        c.search_into(7, u128::MAX, &mut hv);
        assert_eq!(hv.rows().len(), 0);
        assert_eq!(hv.len(), CamGeometry::paper().rows);
        assert_eq!(c.stats().cam_searches, 2);
    }

    #[test]
    fn replayed_searches_only_advance_the_counter() {
        let mut c = cam();
        c.write(0, 5).unwrap();
        let (writes, cells) = (c.stats().row_writes, c.stats().cells_written);
        c.count_replayed_search();
        c.count_replayed_search();
        assert_eq!(c.stats().cam_searches, 2);
        assert_eq!(c.stats().row_writes, writes);
        assert_eq!(c.stats().cells_written, cells);
    }

    #[test]
    fn writes_after_a_search_rebuild_the_index() {
        let mut c = cam();
        for i in 0..10 {
            c.write(i, u128::from(i as u32 % 3)).unwrap();
        }
        let a = c.search(1, DST_MASK);
        c.write(5, 1).unwrap(); // turns the now-clean index stale
        let d = c.search(1, DST_MASK);
        assert_eq!(d.rows().len(), a.rows().len() + 1);
        c.invalidate(1).unwrap();
        assert_eq!(c.search(1, DST_MASK).rows().len(), a.rows().len());
    }

    #[test]
    fn search_upsets_perturb_single_rows() {
        use crate::fault::{CamFaultState, FaultModel};
        let g = CamGeometry::paper();
        let mut c = CamCrossbar::new(g);
        c.set_faults(Some(CamFaultState::new(
            FaultModel {
                seed: 11,
                cam_upset_rate: 1.0,
                ..FaultModel::none()
            },
            &g,
        )));
        c.write(0, 99).unwrap();
        let hits = c.search(99, u128::MAX);
        // Exactly one match line toggled relative to the true result {0}.
        let wrong = (0..g.rows)
            .filter(|r| hits.rows().contains(r) != (*r == 0))
            .count();
        assert_eq!(wrong, 1);
        assert_eq!(c.fault_stats().unwrap().cam_upsets, 1);
    }
}
