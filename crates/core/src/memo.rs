//! Per-block CAM search memoization.
//!
//! Dense sweeps (PageRank and the other [`SearchProfile::OnePerKey`]
//! algorithms) reload the same edge blocks every iteration and re-issue
//! the identical field search for every distinct key on every visit.
//! The simulated hardware must perform — and be billed for — every one of
//! those searches, but the *host* does not need to recompute a hit vector
//! the block structure already determines. [`SearchMemo`] keys previously
//! derived hit vectors by block content (the exact CAM key sequence) and
//! `(key, mask)` pair, so a re-loaded block replays its results with one
//! hash probe and a word copy per search.
//!
//! Frontier traversals (BFS, SSSP, CC and the batch queries, declared
//! [`SearchProfile::Frontier`]) search only an active subset of a block's
//! keys per visit and rarely repeat one: BFS expands each vertex once, so
//! a memo would store every hit vector of the run and replay none of them
//! (0 of 104,758 searches on the repository benchmark's `bfs-deep-j2`).
//! The engine therefore admits a block only under `OnePerKey`.
//!
//! The memo is only safe when device state is a pure function of the
//! programmed keys: the engine enables it per block, exclusively for
//! blocks whose *resolved* search mode is
//! [`SearchMode::Indexed`](gaasx_xbar::SearchMode) — whether fixed by the
//! config or chosen by the `Auto` cost model — with **no** fault model
//! attached (stuck bits, write retries, remaps, and search upsets all make
//! physical results diverge from the logical key sequence and consume RNG
//! draws that replaying would skip). A mixed `Auto` bank therefore
//! memoizes only its Indexed blocks.
//!
//! [`SearchProfile::OnePerKey`]: gaasx_xbar::SearchProfile::OnePerKey
//! [`SearchProfile::Frontier`]: gaasx_xbar::SearchProfile::Frontier

use std::collections::hash_map::Entry;

use gaasx_xbar::fast_hash::FxHashMap;
use gaasx_xbar::HitVector;

/// Cached hit vectors across all blocks before the memo resets itself.
/// Sized so one full sweep of the standard benchmark workloads (hundreds
/// of thousands of edges → hundreds of thousands of distinct `(block,
/// vertex)` searches) stays resident across iterations; a 128-row hit
/// vector costs two arena words plus its map entry, so the cap bounds the
/// memo at well under 100 MB on pathological many-distinct-block
/// workloads.
const MAX_CACHED_VECTORS: usize = 1 << 20;

/// FNV-1a over the 64-bit halves of the key sequence, mixed with the
/// length. Collisions are survivable — [`SearchMemo::begin_block`] compares
/// the full key sequence before trusting a fingerprint match — so a
/// word-granularity fold (two multiplies per key) is plenty.
fn fingerprint(keys: &[u128]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &k in keys {
        for w in [k as u64, (k >> 64) as u64] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h ^ (keys.len() as u64)
}

/// Memoized searches for one distinct block content.
#[derive(Debug, Clone, Default)]
struct MemoBlock {
    /// The exact CAM key sequence, slot order — the collision guard.
    keys: Vec<u128>,
    /// `(key, mask)` → offset of the search's hit words in `words`.
    searches: FxHashMap<(u128, u128), usize>,
    /// Word arena: every cached hit vector of this block, back to back,
    /// `⌈rows/64⌉` words each.
    words: Vec<u64>,
}

/// See the module docs.
///
/// Blocks live in a flat arena; the fingerprint map resolves a key
/// sequence to its arena slot once per `begin_block`, so the per-search
/// [`lookup`](Self::lookup) is a single hash probe on the current slot
/// rather than a fingerprint probe followed by a search probe. Each block
/// stores its hit vectors as packed words in one arena of its own, so
/// caching a search appends words instead of allocating a vector.
#[derive(Debug, Clone)]
pub(crate) struct SearchMemo {
    blocks: Vec<MemoBlock>,
    /// Block-content fingerprint → arena slot in `blocks`.
    by_fp: FxHashMap<u64, usize>,
    /// Arena slot of the currently loaded block, when one is registered.
    current: Option<usize>,
    /// Arena words per cached hit vector: `⌈rows/64⌉` of the bank depth
    /// every vector covers.
    row_words: usize,
    /// Total hit vectors cached across all blocks (cap enforcement).
    cached_vectors: usize,
}

impl SearchMemo {
    /// An empty memo for hit vectors covering `rows` rows.
    pub fn new(rows: usize) -> Self {
        SearchMemo {
            blocks: Vec::new(),
            by_fp: FxHashMap::default(),
            current: None,
            row_words: rows.div_ceil(64),
            cached_vectors: 0,
        }
    }

    /// Registers the block just loaded (its full CAM key sequence, slot
    /// order). Re-loading a previously seen block makes its memoized
    /// searches live again; a new block starts empty.
    pub fn begin_block(&mut self, keys: &[u128]) {
        if self.cached_vectors >= MAX_CACHED_VECTORS {
            self.clear();
        }
        let fp = fingerprint(keys);
        let slot = match self.by_fp.get(&fp) {
            Some(&slot) if self.blocks[slot].keys == keys => slot,
            Some(&slot) => {
                // Fingerprint collision: evict the old tenant rather than
                // serve its (wrong) hit vectors, reclaiming its words.
                let block = &mut self.blocks[slot];
                self.cached_vectors -= block.searches.len();
                block.keys.clear();
                block.keys.extend_from_slice(keys);
                block.searches.clear();
                block.words.clear();
                slot
            }
            None => {
                self.blocks.push(MemoBlock {
                    keys: keys.to_vec(),
                    ..MemoBlock::default()
                });
                let slot = self.blocks.len() - 1;
                self.by_fp.insert(fp, slot);
                slot
            }
        };
        self.current = Some(slot);
    }

    /// Forgets the current block registration (the memo itself survives —
    /// lookups just miss until the next [`begin_block`](Self::begin_block)).
    pub fn end_block(&mut self) {
        self.current = None;
    }

    /// The packed words ([`HitVector::words`]) of the hit vector
    /// previously derived for `(key, mask)` on the current block, if any.
    /// Never allocates; one hash probe.
    pub fn lookup(&self, key: u128, mask: u128) -> Option<&[u64]> {
        let block = &self.blocks[self.current?];
        let at = *block.searches.get(&(key, mask))?;
        Some(&block.words[at..at + self.row_words])
    }

    /// Caches a freshly derived hit vector for the current block. No-op
    /// when no block is registered or the search is already cached.
    pub fn insert(&mut self, key: u128, mask: u128, hits: &HitVector) {
        let Some(slot) = self.current else {
            return;
        };
        debug_assert_eq!(hits.num_words(), self.row_words, "memo row count");
        let block = &mut self.blocks[slot];
        if let Entry::Vacant(v) = block.searches.entry((key, mask)) {
            v.insert(block.words.len());
            block.words.extend_from_slice(hits.words());
            self.cached_vectors += 1;
        }
    }

    /// Arena words held across all blocks.
    #[cfg(test)]
    fn cached_words(&self) -> usize {
        self.blocks.iter().map(|b| b.words.len()).sum()
    }

    /// Drops every cached vector and block registration.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.by_fp.clear();
        self.current = None;
        self.cached_vectors = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv(ones: &[usize]) -> HitVector {
        HitVector::from_indices(8, ones)
    }

    /// Replays a cached search as an 8-row hit vector.
    fn replay(memo: &SearchMemo, key: u128, mask: u128) -> Option<HitVector> {
        replay_rows(memo, key, mask, 8)
    }

    fn replay_rows(memo: &SearchMemo, key: u128, mask: u128, rows: usize) -> Option<HitVector> {
        memo.lookup(key, mask).map(|words| {
            let mut out = HitVector::new(0);
            out.copy_from_words(rows, words);
            out
        })
    }

    #[test]
    fn replays_searches_on_block_reload() {
        let mut memo = SearchMemo::new(8);
        let keys = [1u128, 2, 3];
        memo.begin_block(&keys);
        assert!(memo.lookup(2, u128::MAX).is_none());
        memo.insert(2, u128::MAX, &hv(&[1]));
        assert_eq!(replay(&memo, 2, u128::MAX), Some(hv(&[1])));

        // A different block misses; reloading the first block hits again.
        memo.begin_block(&[9u128]);
        assert!(memo.lookup(2, u128::MAX).is_none());
        memo.begin_block(&keys);
        assert_eq!(replay(&memo, 2, u128::MAX), Some(hv(&[1])));
    }

    #[test]
    fn distinguishes_masks_on_the_same_key() {
        let mut memo = SearchMemo::new(8);
        memo.begin_block(&[5u128]);
        memo.insert(5, 0xFF, &hv(&[0]));
        memo.insert(5, u128::MAX, &hv(&[0, 3]));
        assert_eq!(replay(&memo, 5, 0xFF), Some(hv(&[0])));
        assert_eq!(replay(&memo, 5, u128::MAX), Some(hv(&[0, 3])));
    }

    #[test]
    fn end_block_and_clear_stop_replay() {
        let mut memo = SearchMemo::new(8);
        memo.begin_block(&[7u128]);
        memo.insert(7, 1, &hv(&[2]));
        memo.end_block();
        assert!(memo.lookup(7, 1).is_none());
        memo.insert(7, 1, &hv(&[2])); // no-op without a current block
        memo.begin_block(&[7u128]);
        assert_eq!(replay(&memo, 7, 1), Some(hv(&[2])));
        memo.clear();
        assert!(memo.lookup(7, 1).is_none());
    }

    #[test]
    fn identical_prefix_blocks_do_not_alias() {
        let mut memo = SearchMemo::new(8);
        memo.begin_block(&[1u128, 2]);
        memo.insert(1, u128::MAX, &hv(&[0]));
        memo.begin_block(&[1u128, 2, 2]);
        assert!(
            memo.lookup(1, u128::MAX).is_none(),
            "a longer block with the same prefix must not replay the short block's results"
        );
    }

    #[test]
    fn multi_word_vectors_replay_from_the_arena() {
        let mut memo = SearchMemo::new(130);
        memo.begin_block(&[1u128]);
        let a = HitVector::from_indices(130, &[0, 64, 129]);
        let b = HitVector::from_indices(130, &[1, 127]);
        memo.insert(1, 1, &a);
        memo.insert(2, 1, &b);
        memo.insert(1, 1, &b); // first result stays
        assert_eq!(memo.cached_words(), 2 * 3);
        assert_eq!(replay_rows(&memo, 1, 1, 130), Some(a));
        assert_eq!(replay_rows(&memo, 2, 1, 130), Some(b));
    }

    /// Two one-key blocks with equal [`fingerprint`]s: FNV-1a multiplies
    /// by an odd constant, a bijection, so matching the state before the
    /// last fold pins the collision.
    fn colliding_keys() -> (u128, u128) {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let (lo_a, lo_b, hi_a) = (1u64, 2u64, 3u64);
        let hi_b = hi_a ^ (BASIS ^ lo_a).wrapping_mul(PRIME) ^ (BASIS ^ lo_b).wrapping_mul(PRIME);
        let a = (u128::from(hi_a) << 64) | u128::from(lo_a);
        let b = (u128::from(hi_b) << 64) | u128::from(lo_b);
        assert_ne!(a, b);
        assert_eq!(fingerprint(&[a]), fingerprint(&[b]));
        (a, b)
    }

    #[test]
    fn collision_eviction_reclaims_the_arena_words() {
        let (a, b) = colliding_keys();
        let mut memo = SearchMemo::new(8);
        memo.begin_block(&[a]);
        for k in 0..4 {
            memo.insert(k, 1, &hv(&[k as usize]));
        }
        assert_eq!((memo.cached_vectors, memo.cached_words()), (4, 4));
        // Same fingerprint, different keys: the tenant is evicted, and
        // its words go with its vectors.
        memo.begin_block(&[b]);
        assert_eq!(memo.blocks.len(), 1, "the collision reuses the slot");
        assert_eq!((memo.cached_vectors, memo.cached_words()), (0, 0));
        assert!(memo.lookup(0, 1).is_none());
        memo.insert(0, 1, &hv(&[5]));
        assert_eq!(replay(&memo, 0, 1), Some(hv(&[5])));
        assert_eq!(memo.cached_words(), 1);
    }
}
