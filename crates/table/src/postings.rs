//! Sorted posting lists with a galloping lower bound.
//!
//! [`Postings`] is a sorted, duplicate-free `u32` id list — the value
//! type of every inverted index in MOMA ([`crate::gram_index`] keeps
//! one per gram and size bucket, `moma_core::blocking::TfIdfIndex` one
//! per token). It offers exactly what index maintenance and the probes
//! use: sorted `insert` / `remove`, a `retain` sweep for compaction, a
//! `merge` for shard-built indexes, and read access as a slice or an
//! iterator. In-order appends (the batch-build case) are O(1).
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

    /// Remove `id`; `false` if absent.
    pub fn remove(&mut self, id: u32) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Keep only ids satisfying the predicate (compaction sweep).
    pub fn retain(&mut self, mut pred: impl FnMut(u32) -> bool) {
        self.ids.retain(|&id| pred(id));
    }

    /// Merge another (disjoint or overlapping) list in; duplicates
    /// collapse. The contiguous-shard case (`other` entirely after
    /// `self`) appends without re-merging.
    pub fn merge(&mut self, other: Postings) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        if self.ids.last() < other.ids.first() {
            self.ids.extend(other.ids);
            return;
        }
        let mut merged = Vec::with_capacity(self.ids.len() + other.ids.len());
        let (a, b) = (&self.ids, &other.ids);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.ids = merged;
    }
}

/// Index of the first element of `slice` ≥ `target`, found by
/// exponential (galloping) search: probe offsets 1, 2, 4, … then binary
/// refine inside the bracketing window. `O(log d)` where `d` is the
/// answer's distance from the front — the reason galloping wins when a
/// probe advances in small hops through a long list.
pub fn gallop_lower_bound(slice: &[u32], target: u32) -> usize {
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

    fn from_sorted(ids: impl IntoIterator<Item = u32>) -> Postings {
        let mut p = Postings::new();
        for id in ids {
            assert!(p.insert(id));
        }
        p
    }

    #[test]
    fn insert_remove_keep_the_list_sorted() {
        let mut p = Postings::new();
        assert!(p.insert(5));
        assert!(p.insert(3)); // out of order
        assert!(p.insert(9));
        assert!(!p.insert(5)); // duplicate
        assert_eq!(p.ids(), &[3, 5, 9]);
        assert!(p.remove(5));
        assert!(!p.remove(5));
        assert_eq!(p.ids(), &[3, 9]);
        assert_eq!(p.len(), 2);
        p.retain(|id| id != 3);
        assert_eq!(p.iter().collect::<Vec<_>>(), [9]);
    }

    #[test]
    fn merge_appends_or_interleaves() {
        // Contiguous shards: pure append.
        let mut a = from_sorted(0..100);
        a.merge(from_sorted(100..200));
        assert_eq!(a, from_sorted(0..200));
        // Interleaved with duplicates: collapsed merge.
        let mut b = from_sorted([1, 4, 7]);
        b.merge(from_sorted([2, 4, 9]));
        assert_eq!(b.ids(), &[1, 2, 4, 7, 9]);
        // Merging into/from empty.
        let mut e = Postings::new();
        e.merge(b.clone());
        assert_eq!(e, b);
        e.merge(Postings::new());
        assert_eq!(e, b);
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
        assert_eq!(gallop_lower_bound(&[], 3), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random insert/remove interleavings agree with a `BTreeSet`
        /// model op by op, and leave exactly its sorted contents.
        #[test]
        fn maintenance_matches_a_sorted_set(
            ops in prop::collection::vec((0u32..400, 0u8..2), 0..200),
        ) {
            let mut p = Postings::new();
            let mut model = std::collections::BTreeSet::new();
            for (id, op) in ops {
                if op == 1 {
                    prop_assert_eq!(p.insert(id), model.insert(id));
                } else {
                    prop_assert_eq!(p.remove(id), model.remove(&id));
                }
            }
            let want: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(p.ids(), want.as_slice());
        }
    }
}
