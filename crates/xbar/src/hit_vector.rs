//! Hit vectors: the matching rows a CAM search returns.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The rows of a crossbar that matched a CAM search, in ascending order.
///
/// The paper (§III-A): "The CAM crossbars have capabilities to perform
/// parallel searches for a specific data and generate a hit vector (bit map
/// identifying the rows with matches)". The hit vector is then fed to the
/// MAC crossbar's input-vector control to activate only the matching rows.
/// A search matches a handful of rows out of hundreds or thousands, so the
/// host keeps the vector as the list of its set rows rather than as a
/// bitmap: the list is what the MAC bursts consume, chunk by chunk.
///
/// ```
/// use gaasx_xbar::HitVector;
///
/// let mut hv = HitVector::new(128);
/// hv.push(3);
/// hv.push(70);
/// assert_eq!(hv.rows(), &[3, 70]);
/// assert_eq!(hv.len(), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HitVector {
    len: usize,
    rows: Vec<usize>,
}

impl HitVector {
    /// Creates an empty hit vector covering `len` rows.
    pub fn new(len: usize) -> Self {
        HitVector {
            len,
            rows: Vec::new(),
        }
    }

    /// Number of rows covered (the crossbar's row count, not the hits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The matching rows, ascending and without duplicates.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Empties this vector and makes it cover `len` rows. The first reset
    /// to a given length reserves room for every row, so later searches
    /// into it allocate nothing.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.rows.clear();
        self.rows.reserve(len);
    }

    /// Appends `row` as the next hit, trusting the caller that it is below
    /// [`len`](Self::len) and above every row already held — the store of
    /// a CAM search, which visits its matching rows in ascending order.
    pub fn push(&mut self, row: usize) {
        debug_assert!(row < self.len, "hit row {row} out of {}", self.len);
        debug_assert!(
            self.rows.last().map_or(true, |&last| last < row),
            "hit rows must ascend"
        );
        self.rows.push(row);
    }

    /// Toggles one row's match line: a transient upset.
    pub(crate) fn toggle(&mut self, row: usize) {
        debug_assert!(row < self.len, "hit row {row} out of {}", self.len);
        match self.rows.binary_search(&row) {
            Ok(i) => {
                self.rows.remove(i);
            }
            Err(i) => self.rows.insert(i, row),
        }
    }

    /// Maps every hit row through `f`, drops the rows it maps to `None`,
    /// and sorts the rest. `f` must be injective and map below
    /// [`len`](Self::len): the list stays ascending and duplicate-free.
    pub fn translate(&mut self, mut f: impl FnMut(usize) -> Option<usize>) {
        self.rows.retain_mut(|row| match f(*row) {
            Some(to) => {
                *row = to;
                true
            }
            None => false,
        });
        self.rows.sort_unstable();
        debug_assert!(
            self.rows.windows(2).all(|w| w[0] < w[1])
                && self.rows.last().map_or(true, |&r| r < self.len),
            "translated hits must stay distinct and in range"
        );
    }

    /// Overwrites this vector with the rows that at least two of `a`, `b`
    /// and `c` hold — a three-way CAM vote, computed as one merge of the
    /// three ascending lists.
    ///
    /// # Panics
    ///
    /// Panics unless `a`, `b` and `c` share one length.
    pub fn majority3_from(&mut self, a: &HitVector, b: &HitVector, c: &HitVector) {
        assert!(
            a.len == b.len && b.len == c.len,
            "hit vector length mismatch"
        );
        self.reset(a.len);
        let head = |v: &HitVector, i: usize| v.rows.get(i).copied().unwrap_or(usize::MAX);
        let (mut i, mut j, mut k) = (0, 0, 0);
        loop {
            let (x, y, z) = (head(a, i), head(b, j), head(c, k));
            let row = x.min(y).min(z);
            if row == usize::MAX {
                break;
            }
            let (in_a, in_b, in_c) = (x == row, y == row, z == row);
            if usize::from(in_a) + usize::from(in_b) + usize::from(in_c) >= 2 {
                self.rows.push(row);
            }
            i += usize::from(in_a);
            j += usize::from(in_b);
            k += usize::from(in_c);
        }
    }
}

impl fmt::Display for HitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HitVector[{}/{} set]", self.rows.len(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(len: usize, rows: &[usize]) -> HitVector {
        let mut hv = HitVector::new(len);
        for &r in rows {
            hv.push(r);
        }
        hv
    }

    #[test]
    fn toggle_inserts_and_removes_in_order() {
        let mut hv = hits(130, &[0, 64, 129]);
        hv.toggle(63);
        hv.toggle(129);
        hv.toggle(1);
        assert_eq!(hv.rows(), &[0, 1, 63, 64]);
    }

    #[test]
    fn translate_maps_drops_and_sorts() {
        let mut hv = hits(10, &[1, 2, 5, 7]);
        // Row 2 moves past row 5; row 7 drops.
        hv.translate(|r| match r {
            2 => Some(6),
            7 => None,
            r => Some(r),
        });
        assert_eq!(hv.rows(), &[1, 5, 6]);
    }

    #[test]
    fn majority3_keeps_rows_with_two_or_more_votes() {
        let a = hits(130, &[1, 2, 3, 64, 129]);
        let b = hits(130, &[2, 3, 4, 129]);
        let c = hits(130, &[3, 4, 64, 100]);
        let mut voted = hits(7, &[6]);
        voted.majority3_from(&a, &b, &c);
        assert_eq!(voted.len(), 130);
        assert_eq!(voted.rows(), &[2, 3, 4, 64, 129]);
        // Unanimous votes pass through unchanged.
        voted.majority3_from(&a, &a, &a);
        assert_eq!(voted, a);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn majority3_rejects_length_mismatch() {
        HitVector::new(4).majority3_from(
            &HitVector::new(4),
            &HitVector::new(4),
            &HitVector::new(5),
        );
    }

    #[test]
    fn reset_empties_and_reserves_every_row() {
        let mut hv = hits(128, &[0, 64, 127]);
        hv.reset(200);
        assert_eq!((hv.len(), hv.rows()), (200, &[][..]));
        assert!(hv.rows.capacity() >= 200);
        hv.push(199);
        assert_eq!(hv.rows(), &[199]);
        assert_eq!(hv.to_string(), "HitVector[1/200 set]");
    }

    #[test]
    fn empty_vector_behaves() {
        let hv = HitVector::new(0);
        assert!(hv.is_empty());
        assert!(hv.rows().is_empty());
    }
}
