//! A fast, non-cryptographic hasher in the style of rustc's FxHash.
//!
//! Dictionaries, registries and the gram index hash `u32`/`u64` and
//! string keys on hot paths (the mapping operators group by dense id
//! instead, `agg::IdGroups`); SipHash (std's default) is needlessly slow
//! there and HashDoS resistance is irrelevant for trusted in-process
//! data. This is the classic Fx multiply-rotate mix, implemented locally
//! to keep the workspace dependency-free.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
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
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Construct an empty [`FxHashMap`] with capacity.
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

/// Construct an empty [`FxHashSet`] with capacity.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(42u32), hash_one(42u32));
        assert_eq!(hash_one("abc"), hash_one("abc"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_one(1u32), hash_one(2u32));
        assert_ne!(hash_one((1u32, 2u32)), hash_one((2u32, 1u32)));
        assert_ne!(hash_one("ab"), hash_one("ba"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, &str> = fx_map_with_capacity(4);
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<(u32, u32)> = fx_set_with_capacity(4);
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
    }

    #[test]
    fn byte_tail_handling() {
        // 9 bytes exercises the chunk + remainder path.
        assert_ne!(hash_one([1u8; 9]), hash_one([2u8; 9]));
        let mut a = [1u8; 9];
        a[8] = 3;
        assert_ne!(hash_one([1u8; 9]), hash_one(a));
    }

    #[test]
    fn spread_over_small_ints() {
        // Low-entropy sequential keys should not collide.
        let hashes: std::collections::HashSet<u64> = (0u32..1000).map(hash_one).collect();
        assert_eq!(hashes.len(), 1000);
    }
}
