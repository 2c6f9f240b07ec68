//! The three-column mapping table (paper Definition 1).

use std::borrow::Cow;

use crate::hash::{fx_map_with_capacity, FxHashMap};

/// One row of a mapping table: a correspondence `(a, b, s)`.
///
/// `domain` and `range` are local instance indexes of the domain and range
/// LDS; `sim` is the similarity/strength `s ∈ [0,1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correspondence {
    /// Domain object (local index in the domain LDS).
    pub domain: u32,
    /// Range object (local index in the range LDS).
    pub range: u32,
    /// Similarity value in `[0, 1]`.
    pub sim: f64,
}

impl Correspondence {
    /// Construct a correspondence.
    pub fn new(domain: u32, range: u32, sim: f64) -> Self {
        Self { domain, range, sim }
    }
}

/// A mapping table: the set of correspondences of one instance mapping.
///
/// **Canonical order** is the table's contract: rows strictly increasing
/// by `(domain, range)` — sorted and pair-unique. Every producer in the
/// workspace guarantees it: [`MappingTable::from_rows`] /
/// [`MappingTable::from_triples`] and [`MappingTable::dedup_max`]
/// establish it (duplicate pairs keep the maximum similarity),
/// [`MappingTable::filtered`] / [`MappingTable::retain`] keep it,
/// [`MappingTable::inverted`] restores it, and every operator emits its
/// rows in it. [`MappingTable::push`] is a raw append and checks nothing —
/// a caller that pushes out of order or pushes a pair twice holds a
/// non-canonical table until it calls `dedup_max`. Operators therefore
/// read their inputs through [`MappingTable::canonical`], which borrows a
/// canonical table and repairs a copy of any other, and group rows by
/// scanning runs of that slice instead of hashing pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappingTable {
    rows: Vec<Correspondence>,
}

impl MappingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            rows: Vec::with_capacity(cap),
        }
    }

    /// Build from raw rows, deduplicating `(a,b)` pairs (max similarity).
    pub fn from_rows(rows: Vec<Correspondence>) -> Self {
        let mut t = Self { rows };
        t.dedup_max();
        t
    }

    /// Build from `(domain, range, sim)` triples, deduplicating.
    pub fn from_triples(triples: impl IntoIterator<Item = (u32, u32, f64)>) -> Self {
        Self::from_rows(
            triples
                .into_iter()
                .map(|(a, b, s)| Correspondence::new(a, b, s))
                .collect(),
        )
    }

    /// Append one correspondence (no dedup).
    pub fn push(&mut self, domain: u32, range: u32, sim: f64) {
        self.rows.push(Correspondence::new(domain, range, sim));
    }

    /// Number of correspondences.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row slice.
    pub fn rows(&self) -> &[Correspondence] {
        &self.rows
    }

    /// Iterate rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Correspondence> {
        self.rows.iter()
    }

    /// The rows in canonical order: borrowed when they already are
    /// strictly increasing by `(domain, range)` (one linear check — every
    /// table the workspace produces), otherwise a [`dedup_max`]-ed copy
    /// (a table an API user raw-[`push`]ed).
    ///
    /// [`dedup_max`]: MappingTable::dedup_max
    /// [`push`]: MappingTable::push
    pub fn canonical(&self) -> Cow<'_, [Correspondence]> {
        let key = |c: &Correspondence| (c.domain, c.range);
        if self.rows.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
            Cow::Borrowed(&self.rows)
        } else {
            Cow::Owned(Self::from_rows(self.rows.clone()).rows)
        }
    }

    /// Similarity of pair `(a, b)`, if present (linear scan; use
    /// [`crate::Adjacency`] for repeated lookups).
    pub fn sim_of(&self, domain: u32, range: u32) -> Option<f64> {
        self.rows
            .iter()
            .find(|c| c.domain == domain && c.range == range)
            .map(|c| c.sim)
    }

    /// Sort rows by `(domain, range)`.
    pub fn sort_by_domain(&mut self) {
        self.rows.sort_unstable_by_key(|x| (x.domain, x.range));
    }

    /// Collapse duplicate `(a,b)` pairs keeping the maximum similarity;
    /// leaves the table sorted by `(domain, range)`.
    pub fn dedup_max(&mut self) {
        if self.rows.len() < 2 {
            return;
        }
        self.sort_by_domain();
        let mut write = 0usize;
        for read in 1..self.rows.len() {
            let (prev, cur) = (self.rows[write], self.rows[read]);
            if prev.domain == cur.domain && prev.range == cur.range {
                if cur.sim > prev.sim {
                    self.rows[write].sim = cur.sim;
                }
            } else {
                write += 1;
                self.rows[write] = cur;
            }
        }
        self.rows.truncate(write + 1);
    }

    /// Swap domain and range columns (the inverse mapping table).
    pub fn inverted(&self) -> MappingTable {
        let mut rows: Vec<Correspondence> = self
            .rows
            .iter()
            .map(|c| Correspondence::new(c.range, c.domain, c.sim))
            .collect();
        rows.sort_unstable_by_key(|x| (x.domain, x.range));
        MappingTable { rows }
    }

    /// Keep only rows matching the predicate.
    pub fn retain(&mut self, mut pred: impl FnMut(&Correspondence) -> bool) {
        self.rows.retain(|c| pred(c));
    }

    /// New table with only rows matching the predicate.
    pub fn filtered(&self, mut pred: impl FnMut(&Correspondence) -> bool) -> MappingTable {
        MappingTable {
            rows: self.rows.iter().copied().filter(|c| pred(c)).collect(),
        }
    }

    /// Distinct domain objects (count).
    pub fn distinct_domains(&self) -> usize {
        let mut seen = crate::hash::fx_set_with_capacity(self.rows.len());
        self.rows.iter().filter(|c| seen.insert(c.domain)).count()
    }

    /// Distinct range objects (count).
    pub fn distinct_ranges(&self) -> usize {
        let mut seen = crate::hash::fx_set_with_capacity(self.rows.len());
        self.rows.iter().filter(|c| seen.insert(c.range)).count()
    }

    /// Map from domain object to its number of correspondences — the
    /// `n(a)` of the paper's Relative functions (Figure 5).
    pub fn domain_degrees(&self) -> FxHashMap<u32, u32> {
        let mut m = fx_map_with_capacity(self.rows.len());
        for c in &self.rows {
            *m.entry(c.domain).or_insert(0u32) += 1;
        }
        m
    }

    /// Map from range object to its number of correspondences — `n(b)`.
    pub fn range_degrees(&self) -> FxHashMap<u32, u32> {
        let mut m = fx_map_with_capacity(self.rows.len());
        for c in &self.rows {
            *m.entry(c.range).or_insert(0u32) += 1;
        }
        m
    }

    /// The set of `(domain, range)` pairs as a hash set.
    pub fn pair_set(&self) -> crate::hash::FxHashSet<(u32, u32)> {
        let mut s = crate::hash::fx_set_with_capacity(self.rows.len());
        for c in &self.rows {
            s.insert((c.domain, c.range));
        }
        s
    }

    /// Consume into the raw row vector.
    pub fn into_rows(self) -> Vec<Correspondence> {
        self.rows
    }
}

impl FromIterator<(u32, u32, f64)> for MappingTable {
    fn from_iter<I: IntoIterator<Item = (u32, u32, f64)>>(iter: I) -> Self {
        MappingTable::from_triples(iter)
    }
}

impl<'a> IntoIterator for &'a MappingTable {
    type Item = &'a Correspondence;
    type IntoIter = std::slice::Iter<'a, Correspondence>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_iter() {
        let mut t = MappingTable::new();
        assert!(t.is_empty());
        t.push(0, 1, 0.6);
        t.push(2, 3, 1.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn dedup_keeps_max() {
        let t = MappingTable::from_triples([(0, 1, 0.4), (0, 1, 0.9), (0, 1, 0.7), (1, 1, 0.2)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.sim_of(0, 1), Some(0.9));
        assert_eq!(t.sim_of(1, 1), Some(0.2));
    }

    #[test]
    fn dedup_on_sorted_single() {
        let mut t = MappingTable::new();
        t.push(5, 5, 0.5);
        t.dedup_max();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn inverted_swaps() {
        let t = MappingTable::from_triples([(0, 7, 0.5), (1, 3, 0.8)]);
        let inv = t.inverted();
        assert_eq!(inv.sim_of(7, 0), Some(0.5));
        assert_eq!(inv.sim_of(3, 1), Some(0.8));
        assert_eq!(inv.sim_of(0, 7), None);
    }

    #[test]
    fn double_inversion_is_identity() {
        let t = MappingTable::from_triples([(0, 7, 0.5), (1, 3, 0.8), (2, 2, 1.0)]);
        assert_eq!(t.inverted().inverted(), t);
    }

    #[test]
    fn degrees_match_paper_fig6() {
        // map1 of Figure 6: v1->{p1,p2,p3}, v2->{p2,p3}.
        let t = MappingTable::from_triples([
            (1, 101, 1.0),
            (1, 102, 1.0),
            (1, 103, 0.6),
            (2, 102, 0.6),
            (2, 103, 1.0),
        ]);
        let deg = t.domain_degrees();
        assert_eq!(deg[&1], 3);
        assert_eq!(deg[&2], 2);
        let rdeg = t.range_degrees();
        assert_eq!(rdeg[&102], 2);
    }

    #[test]
    fn distinct_counts() {
        let t = MappingTable::from_triples([(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)]);
        assert_eq!(t.distinct_domains(), 2);
        assert_eq!(t.distinct_ranges(), 2);
    }

    #[test]
    fn filter_and_retain() {
        let mut t = MappingTable::from_triples([(0, 1, 0.5), (1, 2, 0.9)]);
        let hi = t.filtered(|c| c.sim >= 0.8);
        assert_eq!(hi.len(), 1);
        t.retain(|c| c.sim < 0.8);
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0].domain, 0);
    }

    #[test]
    fn sort_by_domain_orders_rows() {
        let mut t = MappingTable::new();
        for (a, b, s) in [(2, 0, 0.1), (0, 2, 0.2), (1, 1, 0.3)] {
            t.push(a, b, s);
        }
        t.sort_by_domain();
        let domains: Vec<u32> = t.iter().map(|c| c.domain).collect();
        assert_eq!(domains, vec![0, 1, 2]);
    }

    #[test]
    fn canonical_borrows_what_producers_build() {
        let t = MappingTable::from_triples([(2, 0, 0.1), (0, 2, 0.2), (0, 1, 0.3)]);
        for table in [
            t.clone(),
            t.inverted(),
            t.filtered(|c| c.sim > 0.15),
            MappingTable::new(),
        ] {
            assert!(matches!(table.canonical(), Cow::Borrowed(_)));
            assert_eq!(&*table.canonical(), table.rows());
        }
    }

    #[test]
    fn canonical_repairs_a_raw_pushed_table() {
        let mut raw = MappingTable::new();
        raw.push(1, 1, 0.2);
        raw.push(0, 5, 0.5);
        raw.push(1, 1, 0.9);
        let rows = raw.canonical();
        assert!(matches!(rows, Cow::Owned(_)));
        assert_eq!(
            &*rows,
            &[
                Correspondence::new(0, 5, 0.5),
                Correspondence::new(1, 1, 0.9)
            ]
        );
        // `push` keeps the rows as appended.
        assert_eq!(raw.len(), 3);
        // Sorted but with a repeated pair is not canonical either.
        let mut dup = MappingTable::new();
        dup.push(0, 0, 0.9);
        dup.push(0, 0, 0.2);
        assert_eq!(&*dup.canonical(), &[Correspondence::new(0, 0, 0.9)]);
    }

    #[test]
    fn from_iterator() {
        let t: MappingTable = [(0u32, 1u32, 0.5f64)].into_iter().collect();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pair_set_contents() {
        let t = MappingTable::from_triples([(0, 1, 0.5), (1, 2, 0.9)]);
        let s = t.pair_set();
        assert!(s.contains(&(0, 1)));
        assert!(!s.contains(&(1, 0)));
    }
}
