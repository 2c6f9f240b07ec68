//! Join strategies over mapping tables.
//!
//! Composition of mappings is a relational join: rows `(a, c, s1)` of the
//! left table meet rows `(c, b, s2)` of the right table on the shared
//! object `c` (paper Section 3.2 / 5.3). Two strategies are provided —
//! the hash join and a nested-loop reference used to property-test it.
//! Both are sequential; the compose operator probes the same
//! [`Adjacency`] once per domain group of its left table
//! (`moma_core::ops::compose`).

use crate::index::Adjacency;
use crate::mapping_table::MappingTable;

/// A joined compose path `(a, c, b)` with both path similarities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinedPath {
    /// Domain object of the left table.
    pub a: u32,
    /// Intermediate object (left range == right domain).
    pub c: u32,
    /// Range object of the right table.
    pub b: u32,
    /// Similarity of `(a, c)` in the left table.
    pub s1: f64,
    /// Similarity of `(c, b)` in the right table.
    pub s2: f64,
}

/// Hash join: builds an [`Adjacency`] over the right table's canonical
/// rows and probes it with the range column of the left table's rows as
/// stored.
pub fn hash_join(left: &MappingTable, right: &MappingTable, mut sink: impl FnMut(JoinedPath)) {
    let right_adj = Adjacency::over_domain(right);
    for l in left.iter() {
        for &(b, s2) in right_adj.neighbors(l.range) {
            sink(JoinedPath {
                a: l.domain,
                c: l.range,
                b,
                s1: l.sim,
                s2,
            });
        }
    }
}

/// Reference nested-loop join (O(n·m)); used for correctness testing.
pub fn nested_loop_join(
    left: &MappingTable,
    right: &MappingTable,
    mut sink: impl FnMut(JoinedPath),
) {
    for l in left.iter() {
        for r in right.iter() {
            if l.range == r.domain {
                sink(JoinedPath {
                    a: l.domain,
                    c: l.range,
                    b: r.range,
                    s1: l.sim,
                    s2: r.sim,
                });
            }
        }
    }
}

/// Collect a join into a vector sorted by `(a, c, b)` — convenient for
/// comparisons in tests.
pub fn collect_sorted(
    join: impl Fn(&MappingTable, &MappingTable, &mut dyn FnMut(JoinedPath)),
    left: &MappingTable,
    right: &MappingTable,
) -> Vec<JoinedPath> {
    let mut out = Vec::new();
    join(left, right, &mut |p| out.push(p));
    out.sort_by_key(|x| (x.a, x.c, x.b));
    out
}

/// Collect a join as a canonical *multiset*: sorted by the full path
/// including similarity bits, so tables with duplicate rows (same pair,
/// different similarity) compare exactly.
pub fn collect_multiset(
    join: impl Fn(&MappingTable, &MappingTable, &mut dyn FnMut(JoinedPath)),
    left: &MappingTable,
    right: &MappingTable,
) -> Vec<JoinedPath> {
    let mut out = Vec::new();
    join(left, right, &mut |p| out.push(p));
    out.sort_by_key(|x| (x.a, x.c, x.b, x.s1.to_bits(), x.s2.to_bits()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig6_tables() -> (MappingTable, MappingTable) {
        // Paper Figure 6: map1 venue->pub, map2 pub->venue'.
        let map1 = MappingTable::from_triples([
            (1, 101, 1.0),
            (1, 102, 1.0),
            (1, 103, 0.6),
            (2, 102, 0.6),
            (2, 103, 1.0),
        ]);
        let map2 = MappingTable::from_triples([(101, 11, 1.0), (102, 11, 1.0), (103, 12, 1.0)]);
        (map1, map2)
    }

    #[test]
    fn hash_join_finds_all_paths() {
        let (m1, m2) = fig6_tables();
        let paths = collect_sorted(|l, r, s| hash_join(l, r, s), &m1, &m2);
        // Every map1 row has exactly one continuation in map2.
        assert_eq!(paths.len(), 5);
        // v1 reaches v'1 via p1 and p2.
        let v1_v11: Vec<&JoinedPath> = paths.iter().filter(|p| p.a == 1 && p.b == 11).collect();
        assert_eq!(v1_v11.len(), 2);
    }

    #[test]
    fn strategies_agree_on_fig6() {
        let (m1, m2) = fig6_tables();
        let h = collect_sorted(|l, r, s| hash_join(l, r, s), &m1, &m2);
        let nl = collect_sorted(|l, r, s| nested_loop_join(l, r, s), &m1, &m2);
        assert_eq!(h, nl);
    }

    #[test]
    fn disjoint_tables_join_empty() {
        let l = MappingTable::from_triples([(0, 1, 0.5)]);
        let r = MappingTable::from_triples([(2, 3, 0.5)]);
        assert!(collect_sorted(|l, r, s| hash_join(l, r, s), &l, &r).is_empty());
    }

    #[test]
    fn empty_inputs() {
        let e = MappingTable::new();
        let t = MappingTable::from_triples([(0, 1, 0.5)]);
        assert!(collect_sorted(|l, r, s| hash_join(l, r, s), &e, &t).is_empty());
        assert!(collect_sorted(|l, r, s| hash_join(l, r, s), &t, &e).is_empty());
    }

    #[test]
    fn similarities_flow_through() {
        let l = MappingTable::from_triples([(7, 8, 0.25)]);
        let r = MappingTable::from_triples([(8, 9, 0.75)]);
        let mut got = Vec::new();
        hash_join(&l, &r, |p| got.push(p));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].s1, 0.25);
        assert_eq!(got[0].s2, 0.75);
        assert_eq!((got[0].a, got[0].c, got[0].b), (7, 8, 9));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_table(max_key: u32, max_rows: usize) -> impl Strategy<Value = MappingTable> {
        prop::collection::vec((0..max_key, 0..max_key, 0.0f64..=1.0), 0..max_rows)
            .prop_map(MappingTable::from_triples)
    }

    /// Raw table that may contain duplicate `(a, b)` rows — built with
    /// `push` instead of `from_triples`, which would dedup them. A small
    /// key space makes duplicates likely.
    fn arb_dup_table(max_key: u32, max_rows: usize) -> impl Strategy<Value = MappingTable> {
        prop::collection::vec((0..max_key, 0..max_key, 0.0f64..=1.0), 0..max_rows).prop_map(
            |rows| {
                let mut t = MappingTable::new();
                for (a, b, s) in rows {
                    t.push(a, b, s);
                }
                t
            },
        )
    }

    proptest! {
        #[test]
        fn hash_join_equals_nested_loop(
            l in arb_table(24, 60),
            r in arb_table(24, 60),
        ) {
            let h = collect_sorted(|l, r, s| hash_join(l, r, s), &l, &r);
            let n = collect_sorted(|l, r, s| nested_loop_join(l, r, s), &l, &r);
            prop_assert_eq!(h, n);
        }

        /// Duplicate left rows flow through; the right side is read in
        /// canonical order, so the hash join equals the nested loop over
        /// the right table's canonical form (including the empty table:
        /// `0..60` rows starts at zero).
        #[test]
        fn hash_join_equals_nested_loop_on_raw_tables(
            l in arb_dup_table(8, 60),
            r in arb_dup_table(8, 60),
        ) {
            let canonical_r = MappingTable::from_rows(r.rows().to_vec());
            let reference = collect_multiset(|l, r, s| nested_loop_join(l, r, s), &l, &canonical_r);
            let h = collect_multiset(|l, r, s| hash_join(l, r, s), &l, &r);
            prop_assert_eq!(&h, &reference);
        }
    }
}
