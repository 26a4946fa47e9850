//! A minimal multiply-fold hasher for the simulator's hot-path hash maps.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! DoS-resistant, but costs tens of nanoseconds per 16-byte CAM key — more
//! than the entire crossbar scan it is supposed to replace. The indexed
//! search path hashes millions of fixed-width integer keys per run, all derived from graph data the process itself generated,
//! so collision-flooding resistance buys nothing here. [`FxHasher`] is the
//! classic Firefox/rustc multiply-rotate fold: one wrapping multiply per
//! word, a few instructions per key.
//!
//! Only integer-keyed maps should use this hasher; anything hashing
//! attacker-controlled strings should stay on the default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash_of(42u128), hash_of(42u128));
        assert_ne!(hash_of(42u128), hash_of(43u128));
        // High and low halves both contribute.
        assert_ne!(hash_of(1u128 << 64), hash_of(1u128));
        assert_ne!(hash_of((1u128, 2u128)), hash_of((2u128, 1u128)));
    }

    #[test]
    fn byte_writes_cover_tail() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut m: FxHashMap<u128, u32> = FxHashMap::default();
        for i in 0..1000u128 {
            m.insert(i << 32, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(999u128 << 32)), Some(&999));
    }
}
