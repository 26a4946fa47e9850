//! Hit vectors: the bitmap a CAM search returns.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A bitmap identifying which crossbar rows matched a CAM search.
///
/// The paper (§III-A): "The CAM crossbars have capabilities to perform
/// parallel searches for a specific data and generate a hit vector (bit map
/// identifying the rows with matches)". The hit vector is then fed to the
/// MAC crossbar's input-vector control to activate only the matching rows.
///
/// ```
/// use gaasx_xbar::HitVector;
///
/// let mut hv = HitVector::new(128);
/// hv.set(3);
/// hv.set(70);
/// assert_eq!(hv.count(), 2);
/// assert_eq!(hv.iter_ones().collect::<Vec<_>>(), vec![3, 70]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HitVector {
    len: usize,
    words: Vec<u64>,
}

impl HitVector {
    /// Creates an all-zero hit vector covering `len` rows.
    pub fn new(len: usize) -> Self {
        HitVector {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a hit vector from set row indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is `>= len`.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut hv = HitVector::new(len);
        for &i in indices {
            hv.set(i);
        }
        hv
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) {
        // gaasx-lint: allow(hot-reachable-panic) -- the bounds assert guards phantom rows in the padding bits; a silent wrong hit count is worse than an abort
        assert!(index < self.len, "hit index {index} out of {}", self.len);
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Clears row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn clear(&mut self, index: usize) {
        assert!(index < self.len, "hit index {index} out of {}", self.len);
        self.words[index / 64] &= !(1 << (index % 64));
    }

    /// Whether row `index` is set.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        // gaasx-lint: allow(hot-reachable-panic) -- the bounds assert guards phantom rows in the padding bits; a silent wrong hit count is worse than an abort
        assert!(index < self.len, "hit index {index} out of {}", self.len);
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// Sets row `index`, trusting the caller that `index < len` — the
    /// store half of an exact-match index probe, whose chains only ever
    /// link rows of the crossbar that sized this vector. An index past the
    /// backing words still panics; one in the last word's padding would
    /// break [`count`](HitVector::count), hence the narrow contract.
    pub fn set_chained_row(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Number of set rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any row is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Iterates the set row indices in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            hv: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Clears every set row, keeping the allocation — the in-place reset
    /// the allocation-free search path reuses between searches.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Reconfigures this vector to cover `len` all-zero rows, reusing the
    /// word buffer whenever it already has the right size. After the first
    /// call with a given length, subsequent resets allocate nothing.
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(64);
        self.len = len;
        if self.words.len() == words {
            self.clear_all();
        } else {
            self.words.clear();
            self.words.resize(words, 0);
        }
    }

    /// In-place bitwise OR with another hit vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn or_with(&mut self, other: &HitVector) {
        assert_eq!(self.len, other.len, "hit vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place bitwise AND with another hit vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn and_with(&mut self, other: &HitVector) {
        assert_eq!(self.len, other.len, "hit vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Overwrites this vector with the per-row majority of three votes,
    /// `(a & b) | (a & c) | (b & c)`, word by word and reusing the word
    /// buffer — the allocation-free form of a three-way CAM vote.
    ///
    /// # Panics
    ///
    /// Panics unless `a`, `b` and `c` share one length.
    pub fn majority3_from(&mut self, a: &HitVector, b: &HitVector, c: &HitVector) {
        assert!(
            a.len == b.len && b.len == c.len,
            "hit vector length mismatch"
        );
        self.len = a.len;
        self.words.clear();
        self.words.extend(
            a.words
                .iter()
                .zip(&b.words)
                .zip(&c.words)
                .map(|((&a, &b), &c)| (a & b) | (a & c) | (b & c)),
        );
    }

    /// Streams the set rows in chunks of at most `chunk` indices without
    /// per-chunk allocation: each [`ChunkOnes::next_chunk`] call refills
    /// one internal buffer and lends it out.
    ///
    /// ```
    /// use gaasx_xbar::HitVector;
    ///
    /// let hv = HitVector::from_indices(64, &[1, 5, 9, 40]);
    /// let mut chunks = hv.chunks_iter(3);
    /// assert_eq!(chunks.next_chunk(), Some(&[1, 5, 9][..]));
    /// assert_eq!(chunks.next_chunk(), Some(&[40][..]));
    /// assert_eq!(chunks.next_chunk(), None);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn chunks_iter(&self, chunk: usize) -> ChunkOnes<'_> {
        assert!(chunk > 0, "chunk size must be positive");
        ChunkOnes {
            ones: self.iter_ones(),
            cap: chunk,
            buf: Vec::with_capacity(chunk),
        }
    }
}

/// Iterator over set bits of a [`HitVector`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    hv: &'a HitVector,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.hv.words.len() {
                return None;
            }
            self.current = self.hv.words[self.word_idx];
        }
    }
}

/// Lending chunk iterator over the set bits of a [`HitVector`]
/// ([`HitVector::chunks_iter`]).
///
/// Not an [`Iterator`]: every [`next_chunk`](ChunkOnes::next_chunk) call
/// reuses one internal buffer, so the returned slice borrows the iterator
/// and must be consumed before the next call.
#[derive(Debug)]
pub struct ChunkOnes<'a> {
    ones: IterOnes<'a>,
    cap: usize,
    buf: Vec<usize>,
}

impl ChunkOnes<'_> {
    /// Fills the internal buffer with the next up-to-`chunk` set indices
    /// and lends it out; `None` once the bits are exhausted.
    pub fn next_chunk(&mut self) -> Option<&[usize]> {
        self.buf.clear();
        while self.buf.len() < self.cap {
            match self.ones.next() {
                Some(i) => self.buf.push(i),
                None => break,
            }
        }
        if self.buf.is_empty() {
            None
        } else {
            Some(&self.buf)
        }
    }
}

impl fmt::Display for HitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HitVector[{}/{} set]", self.count(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut hv = HitVector::new(70);
        hv.set(0);
        hv.set(69);
        assert!(hv.get(0) && hv.get(69) && !hv.get(1));
        hv.clear(0);
        assert!(!hv.get(0));
        assert_eq!(hv.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn set_out_of_range_panics() {
        HitVector::new(4).set(4);
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let hv = HitVector::from_indices(130, &[0, 63, 64, 129]);
        assert_eq!(hv.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn chunking_respects_cap() {
        let indices: Vec<usize> = (0..40).collect();
        let hv = HitVector::from_indices(128, &indices);
        let mut chunks = hv.chunks_iter(16);
        let mut lens = Vec::new();
        while let Some(chunk) = chunks.next_chunk() {
            lens.push(chunk.len());
        }
        assert_eq!(lens, vec![16, 16, 8]);
    }

    #[test]
    fn chunks_iter_covers_all_ones_in_order() {
        let indices = [0usize, 3, 63, 64, 65, 100, 129];
        let hv = HitVector::from_indices(130, &indices);
        for cap in [1, 2, 5, 16] {
            let mut streamed = Vec::new();
            let mut chunks = hv.chunks_iter(cap);
            while let Some(chunk) = chunks.next_chunk() {
                assert!(chunk.len() <= cap, "cap {cap}");
                streamed.extend_from_slice(chunk);
            }
            assert_eq!(streamed, indices, "cap {cap}");
        }
    }

    #[test]
    fn in_place_ops_combine_rows() {
        let a = HitVector::from_indices(130, &[1, 2, 3, 64, 129]);
        let b = HitVector::from_indices(130, &[2, 3, 4, 129]);
        let mut ored = a.clone();
        ored.or_with(&b);
        assert_eq!(
            ored.iter_ones().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 64, 129]
        );
        let mut anded = a.clone();
        anded.and_with(&b);
        assert_eq!(anded.iter_ones().collect::<Vec<_>>(), vec![2, 3, 129]);
    }

    #[test]
    fn majority3_sets_rows_with_two_or_more_votes() {
        let a = HitVector::from_indices(130, &[1, 2, 3, 64, 129]);
        let b = HitVector::from_indices(130, &[2, 3, 4, 129]);
        let c = HitVector::from_indices(130, &[3, 4, 64, 100]);
        let mut voted = HitVector::from_indices(7, &[6]);
        voted.majority3_from(&a, &b, &c);
        assert_eq!(voted.len(), 130);
        for row in 0..130 {
            let votes = [&a, &b, &c].iter().filter(|v| v.get(row)).count();
            assert_eq!(voted.get(row), votes >= 2, "row {row}");
        }
        assert_eq!(
            voted.iter_ones().collect::<Vec<_>>(),
            vec![2, 3, 4, 64, 129]
        );
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
    fn clear_all_and_reset_reuse_the_buffer() {
        let mut hv = HitVector::from_indices(128, &[0, 64, 127]);
        hv.clear_all();
        assert_eq!(hv.count(), 0);
        assert_eq!(hv.len(), 128);
        hv.set(5);
        hv.reset(128);
        assert_eq!(hv.count(), 0);
        hv.reset(200);
        assert_eq!(hv.len(), 200);
        hv.set(199);
        assert_eq!(hv.iter_ones().collect::<Vec<_>>(), vec![199]);
    }

    #[test]
    fn set_chained_row_matches_set() {
        let mut chained = HitVector::new(130);
        for r in [0, 63, 64, 129] {
            chained.set_chained_row(r);
            chained.set_chained_row(r); // idempotent
        }
        assert_eq!(chained, HitVector::from_indices(130, &[0, 63, 64, 129]));
        assert_eq!(chained.count(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn or_with_rejects_length_mismatch() {
        let mut a = HitVector::new(10);
        a.or_with(&HitVector::new(11));
    }

    #[test]
    fn chunks_iter_on_empty_vector_yields_nothing() {
        let hv = HitVector::new(128);
        assert_eq!(hv.chunks_iter(16).next_chunk(), None);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn chunks_iter_rejects_zero_cap() {
        let _ = HitVector::new(8).chunks_iter(0);
    }

    #[test]
    fn empty_vector_behaves() {
        let hv = HitVector::new(0);
        assert!(hv.is_empty());
        assert!(!hv.any());
        assert_eq!(hv.iter_ones().count(), 0);
    }
}
