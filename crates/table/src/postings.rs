//! Sorted posting lists with a galloping lower bound.
//!
//! Two list types, one per inverted index family:
//!
//! * [`Postings`] is a sorted, duplicate-free `u32` id list — what
//!   `moma_core::blocking::TfIdfIndex`, built per match and never
//!   patched, keeps per token: sorted `insert` (in-order appends, the
//!   batch-build case, are O(1)) and read access as a slice or an
//!   iterator.
//! * [`BlockList`] is a sorted, duplicate-free `u64` key list cut into
//!   blocks of at most [`BLOCK`] keys — what [`crate::gram_index`] keeps
//!   per gram, a key being `(gram-set size, value id)`. A key range is a
//!   handful of contiguous slices ([`BlockList::window`]), which is what
//!   a probe wants to scan; an insert or a removal moves keys inside one
//!   block only, which is what maintenance under a lock wants — one
//!   flat run per gram would memmove half of a frequent gram's postings
//!   per update.
//!
//! [`gallop_lower_bound`] is the one search primitive the T-occurrence
//! probe needs: it walks a short sorted survivor set through a long
//! posting list in `O(small · log(large/small))` instead of
//! `O(small + large)`.

/// A sorted, duplicate-free `u32` posting list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Postings {
    /// Strictly increasing ids.
    ids: Vec<u32>,
}

impl Postings {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list holds no ids.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted ids as a slice.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Iterate the ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }

    /// Insert `id`, keeping the list sorted; `false` if already present.
    /// In-order appends (id larger than everything present) are O(1).
    pub fn insert(&mut self, id: u32) -> bool {
        match self.ids.last() {
            Some(&last) if id <= last => match self.ids.binary_search(&id) {
                Ok(_) => false,
                Err(pos) => {
                    self.ids.insert(pos, id);
                    true
                }
            },
            _ => {
                self.ids.push(id);
                true
            }
        }
    }
}

/// Most keys a [`BlockList`] block holds before it is split in two.
pub const BLOCK: usize = 256;

/// A sorted, duplicate-free `u64` key list in blocks: every block is
/// non-empty and sorted, holds at most [`BLOCK`] keys, and all its keys
/// are below the next block's. Each block is stored next to a copy of
/// its first key, so locating a key touches one small array.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockList {
    blocks: Vec<(u64, Vec<u64>)>,
}

impl BlockList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the list holds no keys.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of keys (a walk over the blocks).
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|(_, keys)| keys.len()).sum()
    }

    /// The blocks, in key order.
    pub fn blocks(&self) -> impl Iterator<Item = &[u64]> {
        self.blocks.iter().map(|(_, keys)| keys.as_slice())
    }

    /// Index of the block `key` belongs in: the last one starting at or
    /// below it (the first block for a key below everything).
    fn block_of(&self, key: u64) -> usize {
        self.blocks
            .partition_point(|&(first, _)| first <= key)
            .saturating_sub(1)
    }

    /// Insert `key`; `false` if already present. Appending a key above
    /// everything present (the batch-build case) is O(1).
    pub fn insert(&mut self, key: u64) -> bool {
        let Some((_, last)) = self.blocks.last_mut() else {
            self.blocks.push((key, vec![key]));
            return true;
        };
        if last.last().is_some_and(|&top| top < key) {
            if last.len() < BLOCK {
                last.push(key);
            } else {
                self.blocks.push((key, vec![key]));
            }
            return true;
        }
        let b = self.block_of(key);
        let (first, keys) = &mut self.blocks[b];
        let Err(at) = keys.binary_search(&key) else {
            return false;
        };
        keys.insert(at, key);
        *first = keys[0];
        if keys.len() > BLOCK {
            let upper = keys.split_off(BLOCK / 2);
            self.blocks.insert(b + 1, (upper[0], upper));
        }
        true
    }

    /// Remove `key`; `false` if absent.
    pub fn remove(&mut self, key: u64) -> bool {
        if self.blocks.is_empty() {
            return false;
        }
        let b = self.block_of(key);
        let (first, keys) = &mut self.blocks[b];
        let Ok(at) = keys.binary_search(&key) else {
            return false;
        };
        keys.remove(at);
        match keys.first() {
            Some(&head) => *first = head,
            None => {
                self.blocks.remove(b);
            }
        }
        true
    }

    /// Keep only keys satisfying the predicate (compaction sweep).
    pub fn retain(&mut self, mut pred: impl FnMut(u64) -> bool) {
        self.blocks.retain_mut(|(first, keys)| {
            keys.retain(|&key| pred(key));
            keys.first().is_some_and(|&head| {
                *first = head;
                true
            })
        });
    }

    /// Merge another list in; duplicates collapse. The contiguous-shard
    /// case (`other` entirely above `self`) appends its blocks as they
    /// are.
    pub fn merge(&mut self, other: BlockList) {
        let top = self.blocks.last().and_then(|(_, keys)| keys.last());
        if top < other.blocks.first().map(|(first, _)| first) {
            self.blocks.extend(other.blocks);
            return;
        }
        let mut keys: Vec<u64> = self
            .blocks()
            .chain(other.blocks())
            .flatten()
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        self.blocks = keys.chunks(BLOCK).map(|c| (c[0], c.to_vec())).collect();
    }

    /// Call `hit` for every key of `keys` (sorted) the list holds. Only
    /// the blocks some key falls into are read — each located through
    /// the block directory and galloped against the keys that fall into
    /// it, through whichever of the two is longer.
    pub fn for_each_common(&self, keys: &[u64], mut hit: impl FnMut(u64)) {
        let blocks = &self.blocks;
        // `b` blocks start at or below `keys[s]`: it belongs in block `b − 1`.
        let (mut s, mut b) = (0usize, 0usize);
        while s < keys.len() {
            b += blocks[b..].partition_point(|&(first, _)| first <= keys[s]);
            let until = match blocks.get(b) {
                Some(&(next, _)) => s + keys[s..].partition_point(|&key| key < next),
                None => keys.len(),
            };
            if b > 0 {
                let (group, block) = (&keys[s..until], &blocks[b - 1].1);
                if group.len() <= block.len() {
                    let mut j = 0usize;
                    for &key in group {
                        j += gallop_lower_bound(&block[j..], key);
                        if j >= block.len() {
                            break;
                        }
                        if block[j] == key {
                            hit(key);
                            j += 1;
                        }
                    }
                } else {
                    for &key in block {
                        if group.binary_search(&key).is_ok() {
                            hit(key);
                        }
                    }
                }
            }
            s = until;
        }
    }

    /// The keys in `[lo, hi]`, in order, as contiguous slices (none
    /// empty).
    pub fn window(&self, lo: u64, hi: u64) -> impl Iterator<Item = &[u64]> {
        let start = if self.blocks.is_empty() {
            0
        } else {
            self.block_of(lo)
        };
        self.blocks[start..]
            .iter()
            .take_while(move |&&(first, _)| first <= hi)
            .map(move |(_, keys)| {
                let from = keys.partition_point(|&key| key < lo);
                let to = keys.partition_point(|&key| key <= hi);
                &keys[from..to.max(from)] // empty for lo > hi
            })
            .filter(|keys| !keys.is_empty())
    }
}

/// Index of the first element of `slice` ≥ `target`, found by
/// exponential (galloping) search: probe offsets 1, 2, 4, … then binary
/// refine inside the bracketing window. `O(log d)` where `d` is the
/// answer's distance from the front — the reason galloping wins when a
/// probe advances in small hops through a long list.
pub fn gallop_lower_bound<T: Ord + Copy>(slice: &[T], target: T) -> usize {
    if slice.is_empty() || slice[0] >= target {
        return 0;
    }
    let mut hi = 1usize;
    while hi < slice.len() && slice[hi] < target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len());
    lo + slice[lo..hi].partition_point(|&v| v < target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_the_list_sorted() {
        let mut p = Postings::new();
        assert!(p.insert(5));
        assert!(p.insert(3)); // out of order
        assert!(p.insert(9));
        assert!(!p.insert(5)); // duplicate
        assert_eq!(p.ids(), &[3, 5, 9]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.iter().collect::<Vec<_>>(), [3, 5, 9]);
    }

    #[test]
    fn gallop_lower_bound_matches_partition_point() {
        let v: Vec<u32> = (0..97).map(|i| i * 5).collect();
        for t in 0..500u32 {
            assert_eq!(
                gallop_lower_bound(&v, t),
                v.partition_point(|&x| x < t),
                "target {t}"
            );
        }
        assert_eq!(gallop_lower_bound::<u32>(&[], 3), 0);
    }

    #[test]
    fn block_list_splits_and_keeps_order() {
        let mut list = BlockList::new();
        // Descending inserts: every key lands at the front of a block.
        for key in (0..1000u64).rev() {
            assert!(list.insert(key * 2));
        }
        assert!(!list.insert(10));
        assert_eq!(list.len(), 1000);
        assert!(list.blocks().all(|b| !b.is_empty() && b.len() <= BLOCK));
        let all: Vec<u64> = list.blocks().flatten().copied().collect();
        assert_eq!(all, (0..1000u64).map(|k| k * 2).collect::<Vec<_>>());
        // A window is the keys in the closed range, across blocks.
        let got: Vec<u64> = list.window(501, 1200).flatten().copied().collect();
        assert_eq!(got, (251..=600u64).map(|k| k * 2).collect::<Vec<_>>());
        assert_eq!(list.window(3, 3).count(), 0);
        assert_eq!(BlockList::new().window(0, u64::MAX).count(), 0);
        // In-order appends fill blocks to the brim.
        let mut appended = BlockList::new();
        for key in 0..(2 * BLOCK as u64) {
            appended.insert(key);
        }
        assert_eq!(appended.blocks().count(), 2);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random inserts agree with a `BTreeSet` model op by op, and
        /// leave exactly its sorted contents.
        #[test]
        fn inserts_match_a_sorted_set(ids in prop::collection::vec(0u32..400, 0..200)) {
            let mut p = Postings::new();
            let mut model = std::collections::BTreeSet::new();
            for id in ids {
                prop_assert_eq!(p.insert(id), model.insert(id));
            }
            let want: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(p.ids(), want.as_slice());
        }

        /// Random insert / remove / retain / merge interleavings on a
        /// [`BlockList`] agree with a `BTreeSet` model op by op — block
        /// invariants and every window included. Keys cluster (few high
        /// bits, many low ones) the way `(size, id)` keys do, and there
        /// are enough of them to split blocks.
        #[test]
        fn block_list_matches_a_sorted_set(
            ops in prop::collection::vec((0u64..4, 0u64..700, 0u8..8), 0..900),
            other in prop::collection::vec((0u64..6, 0u64..700), 0..300),
            window in (0u64..5, 0u64..700, 0u64..3, 0u64..700),
        ) {
            let key = |(hi, lo): (u64, u64)| hi << 32 | lo;
            let mut list = BlockList::new();
            let mut model = std::collections::BTreeSet::new();
            for (hi, lo, op) in ops {
                let k = key((hi, lo));
                match op {
                    0..=4 => prop_assert_eq!(list.insert(k), model.insert(k)),
                    5..=6 => prop_assert_eq!(list.remove(k), model.remove(&k)),
                    _ => {
                        list.retain(|key| key % 3 != lo % 3);
                        model.retain(|key| key % 3 != lo % 3);
                    }
                }
            }
            let mut merged = BlockList::new();
            let mut sorted: Vec<u64> = other.into_iter().map(key).collect();
            sorted.sort_unstable();
            for k in sorted {
                merged.insert(k);
                model.insert(k);
            }
            list.merge(merged);
            let firsts_agree = list.blocks.iter().all(|(first, keys)| keys.first() == Some(first));
            prop_assert!(firsts_agree);
            prop_assert!(list.blocks().all(|b| !b.is_empty() && b.len() <= BLOCK));
            let all: Vec<u64> = list.blocks().flatten().copied().collect();
            prop_assert_eq!(&all, &model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(list.len(), model.len());
            // Every third key of the model and some strangers, looked up.
            let probes: Vec<u64> = model
                .iter()
                .step_by(3)
                .copied()
                .chain((0..6).map(|hi| key((hi, 699))))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut common = Vec::new();
            list.for_each_common(&probes, |k| common.push(k));
            let want: Vec<u64> = probes.iter().copied().filter(|k| model.contains(k)).collect();
            prop_assert_eq!(common, want);
            let (lo, hi) = (key((window.0, window.1)), key((window.0 + window.2, window.3)));
            let got: Vec<u64> = list.window(lo, hi).flatten().copied().collect();
            let want: Vec<u64> = if lo <= hi { model.range(lo..=hi).copied().collect() } else { Vec::new() };
            prop_assert_eq!(got, want);
        }
    }
}
