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
}

/// Per-row hit counts over the votes of one repeated CAM search, for a
/// majority vote that keeps searching until every row's verdict is clear.
///
/// ```
/// use gaasx_xbar::{HitVector, VoteTally};
///
/// let vote = |rows: &[usize]| {
///     let mut hv = HitVector::new(8);
///     rows.iter().for_each(|&r| hv.push(r));
///     hv
/// };
/// let mut tally = VoteTally::default();
/// for v in [vote(&[1, 2]), vote(&[2]), vote(&[2, 5])] {
///     tally.add(&v);
/// }
/// assert_eq!(tally.votes(), 3);
/// assert!(!tally.settled(3), "rows 1 and 5 lead by one vote");
/// let mut out = HitVector::new(0);
/// tally.majority_into(&mut out);
/// assert_eq!(out.rows(), &[2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VoteTally {
    len: usize,
    votes: u32,
    /// `(row, hits)` for every row some vote held, ascending by row.
    counts: Vec<(usize, u32)>,
    /// Merge scratch, swapped with `counts` on every vote.
    merged: Vec<(usize, u32)>,
}

impl VoteTally {
    /// Forgets every vote; the buffers keep their capacity.
    pub fn clear(&mut self) {
        self.votes = 0;
        self.counts.clear();
    }

    /// Votes counted since the last [`clear`](Self::clear).
    pub fn votes(&self) -> u32 {
        self.votes
    }

    /// Counts one more vote, merging its ascending rows into the tally.
    ///
    /// # Panics
    ///
    /// Panics if the vote covers another row count than the earlier ones.
    pub fn add(&mut self, vote: &HitVector) {
        assert!(
            self.votes == 0 || vote.len == self.len,
            "hit vector length mismatch"
        );
        self.len = vote.len;
        self.votes += 1;
        self.merged.clear();
        let (mut i, mut j) = (0, 0);
        let (counts, rows) = (&self.counts, &vote.rows);
        while i < counts.len() || j < rows.len() {
            let held = counts.get(i).map_or(usize::MAX, |&(r, _)| r);
            let voted = rows.get(j).copied().unwrap_or(usize::MAX);
            if held < voted {
                self.merged.push(counts[i]);
                i += 1;
            } else if voted < held {
                self.merged.push((voted, 1));
                j += 1;
            } else {
                self.merged.push((held, counts[i].1 + 1));
                i += 1;
                j += 1;
            }
        }
        std::mem::swap(&mut self.counts, &mut self.merged);
    }

    /// Whether every row's majority leads its minority by at least
    /// `margin` votes. A row no vote held leads by all of them.
    pub fn settled(&self, margin: u32) -> bool {
        self.votes >= margin
            && self
                .counts
                .iter()
                .all(|&(_, hits)| (2 * hits).abs_diff(self.votes) >= margin)
    }

    /// Overwrites `out` with the rows more than half the votes held.
    pub fn majority_into(&self, out: &mut HitVector) {
        out.reset(self.len);
        for &(row, hits) in &self.counts {
            if 2 * hits > self.votes {
                out.push(row);
            }
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
    fn tally_keeps_rows_most_votes_hold() {
        let a = hits(130, &[1, 2, 3, 64, 129]);
        let b = hits(130, &[2, 3, 4, 129]);
        let c = hits(130, &[3, 4, 64, 100]);
        let mut tally = VoteTally::default();
        for v in [&a, &b, &c] {
            tally.add(v);
        }
        let mut voted = hits(7, &[6]);
        tally.majority_into(&mut voted);
        assert_eq!(voted.len(), 130);
        assert_eq!(voted.rows(), &[2, 3, 4, 64, 129]);
        assert!(!tally.settled(3));
        // Unanimous votes pass through unchanged and settle.
        tally.clear();
        for _ in 0..3 {
            tally.add(&a);
        }
        tally.majority_into(&mut voted);
        assert_eq!(voted, a);
        assert!(tally.settled(3));
        assert!(!tally.settled(4), "three votes cannot lead by four");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn tally_rejects_length_mismatch() {
        let mut tally = VoteTally::default();
        tally.add(&HitVector::new(4));
        tally.add(&HitVector::new(5));
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
