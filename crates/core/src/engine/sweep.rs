//! Data loading, the controller loop (§III-A/§III-C): [`Engine::sweep`]
//! streams a shard as [`Block`]s.

use gaasx_graph::{Edge, VertexId};

use super::{CellLayout, Engine};
use crate::error::CoreError;

/// Which vertex words [`Engine::sweep`] derives for each block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// Distinct sources only (frontier traversals search the source field).
    Srcs,
    /// Distinct destinations only (gathers search the destination field).
    Dsts,
    /// Both (collaborative filtering searches items, then users).
    Both,
}

/// A loaded block as the controller sees it (§III-A): the edges at its
/// CAM/MAC rows, borrowed from the shard, and the distinct vertices of the
/// field(s) named by the sweep's [`Keys`] as *vertex words*: ascending
/// `(word, mask)` pairs in which bit `b` of `mask` marks vertex
/// `64 * word + b`, every word once with a non-zero mask, in buffers the
/// sweep reuses. They meet a frontier bitset over the same ids
/// (`frontier[w]` holding vertices `64 * w..64 * w + 64`) one word at a
/// time ([`Block::has_src_in`], [`Block::srcs_in`]).
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    rows: &'a [Edge],
    keys: Keys,
    srcs: &'a [(u32, u64)],
    dsts: &'a [(u32, u64)],
}

impl<'a> Block<'a> {
    /// The edge stored at a CAM/MAC row.
    ///
    /// # Panics
    ///
    /// Panics if `row` exceeds the block occupancy.
    pub fn edge(&self, row: usize) -> Edge {
        self.rows[row]
    }

    /// Distinct source vertices as vertex words (the controller tracks
    /// loaded vertex ranges as graph metadata, §III-A). Derived only when
    /// the sweep asked for [`Keys::Srcs`] or [`Keys::Both`].
    pub fn src_words(&self) -> &'a [(u32, u64)] {
        debug_assert!(self.keys != Keys::Dsts, "no source words derived");
        self.srcs
    }

    /// Distinct destination vertices as vertex words. Derived only when
    /// the sweep asked for [`Keys::Dsts`] or [`Keys::Both`].
    pub fn dst_words(&self) -> &'a [(u32, u64)] {
        debug_assert!(self.keys != Keys::Srcs, "no destination words derived");
        self.dsts
    }

    /// Distinct source vertices, ascending.
    pub fn srcs(&self) -> impl Iterator<Item = VertexId> + 'a {
        WordBits::new(self.src_words(), |_, m| m)
    }

    /// Distinct destination vertices, ascending.
    pub fn dsts(&self) -> impl Iterator<Item = VertexId> + 'a {
        WordBits::new(self.dst_words(), |_, m| m)
    }

    /// Whether any source of the block is set in the bitset `frontier`.
    ///
    /// # Panics
    ///
    /// Panics if `frontier` is shorter than the block's highest source
    /// word.
    pub fn has_src_in(&self, frontier: &[u64]) -> bool {
        self.src_words()
            .iter()
            .any(|&(w, m)| frontier[w as usize] & m != 0)
    }

    /// The block's sources set in the bitset `frontier`, ascending: the
    /// set bits of each source word ANDed with its frontier word.
    ///
    /// # Panics
    ///
    /// As [`Block::has_src_in`].
    pub fn srcs_in<'f>(&self, frontier: &'f [u64]) -> impl Iterator<Item = VertexId> + 'f
    where
        'a: 'f,
    {
        WordBits::new(self.src_words(), move |w, m| m & frontier[w as usize])
    }
}

/// The vertices marked in vertex words, ascending, each word's mask first
/// passed through `keep` (the identity, or an AND with a frontier word).
struct WordBits<'a, F> {
    words: std::slice::Iter<'a, (u32, u64)>,
    keep: F,
    base: u32,
    mask: u64,
}

impl<'a, F: FnMut(u32, u64) -> u64> WordBits<'a, F> {
    fn new(words: &'a [(u32, u64)], keep: F) -> Self {
        WordBits {
            words: words.iter(),
            keep,
            base: 0,
            mask: 0,
        }
    }
}

impl<F: FnMut(u32, u64) -> u64> Iterator for WordBits<'_, F> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        while self.mask == 0 {
            let &(word, mask) = self.words.next()?;
            // A word holds ids below 2^32, so `64 * word` does not overflow.
            self.base = 64 * word;
            self.mask = (self.keep)(word, mask);
        }
        let bit = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(VertexId::new(self.base + bit))
    }
}

/// Overwrites `out` with the vertex words of one edge field of `rows`
/// (see [`Block`]), reusing its capacity and that of `scratch`.
///
/// A field whose values span fewer than 64 ids per row is marked in
/// `scratch` as a bitmap over the words it touches, then read back
/// skipping empty words: linear time, no sort (a full block of a 16×16
/// partition of up to 131,072 vertices on 128-row banks qualifies). A
/// wider span sorts the raw ids in `scratch` and groups them by word.
fn words_into(
    rows: &[Edge],
    field: fn(&Edge) -> VertexId,
    out: &mut Vec<(u32, u64)>,
    scratch: &mut Vec<u64>,
) {
    out.clear();
    if rows.is_empty() {
        return;
    }
    let (mut min, mut max) = (u32::MAX, 0);
    for e in rows {
        let v = field(e).raw();
        min = min.min(v);
        max = max.max(v);
    }
    scratch.clear();
    if ((max - min) as usize) < 64 * rows.len() {
        let base = min / 64;
        scratch.resize((max / 64 - base) as usize + 1, 0);
        for e in rows {
            let v = field(e).raw();
            scratch[(v / 64 - base) as usize] |= 1 << (v % 64);
        }
        out.extend(
            (base..)
                .zip(scratch.iter().copied())
                .filter(|&(_, mask)| mask != 0),
        );
        return;
    }
    scratch.extend(rows.iter().map(|e| u64::from(field(e).raw())));
    scratch.sort_unstable();
    for &v in scratch.iter() {
        let (word, bit) = ((v / 64) as u32, 1 << (v % 64));
        match out.last_mut() {
            Some((w, mask)) if *w == word => *mask |= bit,
            _ => out.push((word, bit)),
        }
    }
}

impl Engine {
    /// Streams a shard through the working CAM+MAC bank block by block:
    /// the controller loop every algorithm runs (§III-A/§III-C).
    ///
    /// `edges` is cut into chunks of [`block_capacity`](Self::block_capacity)
    /// rows. Each chunk's vertex words (of the fields `keys` names) go to
    /// `filter` as a [`Block`]; a chunk it rejects is never loaded (a
    /// traversal's frontier check). An accepted chunk is loaded with
    /// [`load_block`](Self::load_block), then `visit` issues the block's
    /// searches, MAC operations and SFU work. The last block stays open.
    ///
    /// # Errors
    ///
    /// Propagates the first error of a load or a visit; later chunks are
    /// not loaded.
    pub fn sweep(
        &mut self,
        edges: &[Edge],
        cells: CellLayout<'_>,
        keys: Keys,
        mut filter: impl FnMut(&Block<'_>) -> bool,
        mut visit: impl FnMut(&mut Engine, &Block<'_>) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        // The words leave the engine so a block can borrow them while
        // `visit` holds it; words `keys` does not name stay empty.
        let mut srcs = std::mem::take(&mut self.scratch.srcs_buf);
        let mut dsts = std::mem::take(&mut self.scratch.dsts_buf);
        let mut scratch = std::mem::take(&mut self.scratch.words_scratch);
        srcs.clear();
        dsts.clear();
        let mut swept = Ok(());
        for rows in edges.chunks(self.block_capacity()) {
            if keys != Keys::Dsts {
                words_into(rows, |e| e.src, &mut srcs, &mut scratch);
            }
            if keys != Keys::Srcs {
                words_into(rows, |e| e.dst, &mut dsts, &mut scratch);
            }
            let block = Block {
                rows,
                keys,
                srcs: &srcs,
                dsts: &dsts,
            };
            if !filter(&block) {
                self.keys.skip_chunk();
                continue;
            }
            swept = self
                .load_block(rows, cells)
                .and_then(|()| visit(self, &block));
            if swept.is_err() {
                break;
            }
        }
        self.scratch.srcs_buf = srcs;
        self.scratch.dsts_buf = dsts;
        self.scratch.words_scratch = scratch;
        swept
    }

    /// Lends the frontier traversals' per-query candidate scratch: at
    /// least `queries` empty vectors that keep their capacity, so a warm
    /// shard pass collects its `(dst, MAC sum)` relaxations without
    /// allocating. Hand it back with [`restore_candidates`](Self::restore_candidates).
    pub(crate) fn take_candidates(&mut self, queries: usize) -> Vec<Vec<(u32, u64)>> {
        let mut cands = std::mem::take(&mut self.scratch.cands_buf);
        if cands.len() < queries {
            cands.resize_with(queries, Vec::new);
        }
        cands.iter_mut().for_each(Vec::clear);
        cands
    }

    /// Returns the scratch [`take_candidates`](Self::take_candidates) lent.
    pub(crate) fn restore_candidates(&mut self, cands: Vec<Vec<(u32, u64)>>) {
        self.scratch.cands_buf = cands;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engine;
    use gaasx_graph::generators;
    use gaasx_sim::Phase;

    /// The sweep loads exactly the chunks its filter accepts, the filter
    /// and the visit see the same words, and each block's vertices equal
    /// sort + dedup of its rows.
    #[test]
    fn sweep_filters_chunks_and_lists_match_sort_and_dedup() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as u32
        };
        let mut e = engine();
        let capacity = e.block_capacity();
        let sorted = |rows: &[Edge], field: fn(&Edge) -> VertexId| {
            let mut v: Vec<VertexId> = rows.iter().map(field).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for case in 0..60 {
            let len = next(3 * capacity as u64 + 1) as usize;
            // Narrow and wide vertex ranges: many and few duplicates.
            let span = if case % 2 == 0 { 8 } else { 1 << 20 };
            let edges: Vec<Edge> = (0..len)
                .map(|_| Edge::new(next(span), next(span), 1.0))
                .collect();
            let (mut chunk, mut filtered, mut seen, mut visited) =
                (0, Vec::new(), Vec::new(), Vec::new());
            let odd_chunks = |b: &Block<'_>| {
                chunk += 1;
                if chunk % 2 == 1 {
                    filtered.push((b.src_words().to_vec(), b.dst_words().to_vec()));
                }
                chunk % 2 == 1
            };
            e.sweep(
                &edges,
                CellLayout::Preset,
                Keys::Both,
                odd_chunks,
                |_, b| {
                    assert_eq!(b.srcs().collect::<Vec<_>>(), sorted(b.rows, |e| e.src));
                    assert_eq!(b.dsts().collect::<Vec<_>>(), sorted(b.rows, |e| e.dst));
                    seen.push((b.src_words().to_vec(), b.dst_words().to_vec()));
                    visited.push(b.rows.to_vec());
                    Ok(())
                },
            )
            .unwrap();
            let want: Vec<Vec<Edge>> = edges
                .chunks(capacity)
                .step_by(2)
                .map(<[_]>::to_vec)
                .collect();
            assert_eq!(visited, want, "case {case}");
            assert_eq!(seen, filtered, "the visit sees the words the filter saw");
        }
        // Words the keys do not name stay empty, not stale.
        let all = |_: &Block<'_>| true;
        e.sweep(
            &[Edge::new(0, 1, 1.0)],
            CellLayout::Preset,
            Keys::Srcs,
            all,
            |_, b| {
                assert_eq!((b.srcs.len(), b.dsts.len()), (1, 0));
                Ok(())
            },
        )
        .unwrap();
    }

    /// `words_into` marks exactly the sorted, deduplicated values on both
    /// paths: the bitmap (a span below 64 ids per row) and the sort
    /// fallback (a wider span). Each word appears once, ascending, with a
    /// non-zero mask, and a frontier meets exactly its own vertices.
    #[test]
    fn words_into_matches_sort_and_dedup_on_both_paths() {
        let top = u32::MAX;
        // (field values, whether the bitmap path serves them)
        let mut cases: Vec<(Vec<u32>, bool)> = vec![
            (vec![], false),
            (vec![42], true),
            (vec![top], true),
            (vec![0], true),
            (vec![top, 0, top, 0], false),
            (vec![top, top - 1, top - 255, top], true),
            (vec![5, 5 + 127], true),
            (vec![5, 5 + 128], false),
            ((0..10).rev().map(|i| 64 * i).collect(), true),
            ((0..10).map(|i| 1000 * i).collect(), false),
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..40 {
            let len = 1 + next(300);
            let span = [8, 64 * len - 1, 64 * len, 1 << 20][case % 4];
            let base = next(u64::from(top) - span) as u32;
            let mut values: Vec<u32> = (0..len).map(|_| base + next(span + 1) as u32).collect();
            // Pin both ends, so the span is exactly `span`.
            values[0] = base;
            *values.last_mut().unwrap() = base + span as u32;
            cases.push((values, span < 64 * len));
        }
        for (values, bitmap_path) in cases {
            let rows: Vec<Edge> = values
                .iter()
                .map(|&v| Edge::new(v, v.wrapping_mul(7), 1.0))
                .collect();
            let mut want = values.clone();
            want.sort_unstable();
            want.dedup();
            let (mut out, mut scratch) = (vec![(9, 9)], vec![u64::MAX; 3]);
            words_into(&rows, |e| e.src, &mut out, &mut scratch);
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "{out:?}");
            assert!(out.iter().all(|&(_, m)| m != 0));
            let block = Block {
                rows: &rows,
                keys: Keys::Srcs,
                srcs: &out,
                dsts: &[],
            };
            let got: Vec<u32> = block.srcs().map(VertexId::raw).collect();
            assert_eq!(got, want, "{} values", values.len());
            // The bitmap path leaves one scratch word per word between the
            // extremes; the sort path leaves the sorted ids.
            if let (Some(&min), Some(&max)) = (want.first(), want.last()) {
                if bitmap_path {
                    assert_eq!(scratch.len(), (max / 64 - min / 64) as usize + 1);
                } else {
                    let mut ids: Vec<u64> = values.iter().map(|&v| u64::from(v)).collect();
                    ids.sort_unstable();
                    assert_eq!(scratch, ids, "path for {values:?}");
                }
            }
            // A frontier of every other distinct value meets exactly those.
            if let Some(&(last, _)) = out.last() {
                let mut frontier = vec![0u64; last as usize + 1];
                for &v in want.iter().step_by(2) {
                    frontier[(v / 64) as usize] |= 1 << (v % 64);
                }
                let met: Vec<u32> = block.srcs_in(&frontier).map(VertexId::raw).collect();
                let even: Vec<u32> = want.iter().copied().step_by(2).collect();
                assert_eq!(met, even);
                assert!(block.has_src_in(&frontier));
                assert!(!block.has_src_in(&vec![0; frontier.len()]));
            }
        }
    }

    #[test]
    fn sweep_stops_at_the_first_visit_error() {
        let mut e = engine();
        let g = generators::path_graph(300); // three blocks of ≤128 edges
        let (all, mut visits) = (|_: &Block<'_>| true, 0);
        let err = e.sweep(g.edges(), CellLayout::Preset, Keys::Srcs, all, |_, _| {
            visits += 1;
            Err(CoreError::InvalidInput("stop".into()))
        });
        assert!(matches!(err, Err(CoreError::InvalidInput(_))));
        assert_eq!(visits, 1);
        let r = e.finish("t", "t", "t", 1, 299);
        assert_eq!(r.phase(Phase::LoadBlock).unwrap().count, 1);
    }
}
