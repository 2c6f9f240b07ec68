//! CSR adjacency index over a mapping table's domain column.
//!
//! Composing mappings needs, per intermediate object, its neighbor list
//! in the right-hand table. The [`Adjacency`] packs neighbor entries
//! contiguously in canonical order and locates an object's slice through
//! the offset array of one counting pass by domain id ([`IdGroups`]).

use crate::agg::IdGroups;
use crate::mapping_table::MappingTable;

/// Index over the domain column of a [`MappingTable`].
#[derive(Debug, Clone)]
pub struct Adjacency {
    /// The domain column counted: the neighbors of `key` are
    /// `entries[groups.span(key)]`.
    groups: IdGroups,
    /// Flattened `(range object, similarity)` entries grouped by key, in
    /// canonical order.
    entries: Vec<(u32, f64)>,
}

impl Adjacency {
    /// Build an index keyed by the *domain* column from the table's
    /// canonical rows, which are already grouped by domain.
    pub fn over_domain(table: &MappingTable) -> Self {
        let rows = table.canonical();
        let groups = IdGroups::count(rows.iter().map(|c| c.domain));
        let entries = rows.iter().map(|c| (c.range, c.sim)).collect();
        Self { groups, entries }
    }

    /// Neighbors of `key`: `(range object, similarity)` slice, ascending
    /// by range object.
    pub fn neighbors(&self, key: u32) -> &[(u32, f64)] {
        &self.entries[self.groups.span(key)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig6_map1() -> MappingTable {
        // Figure 6: v1->{p1:1, p2:1, p3:0.6}, v2->{p2:0.6, p3:1}.
        MappingTable::from_triples([
            (1, 101, 1.0),
            (1, 102, 1.0),
            (1, 103, 0.6),
            (2, 102, 0.6),
            (2, 103, 1.0),
        ])
    }

    #[test]
    fn domain_index_neighbors() {
        let adj = Adjacency::over_domain(&fig6_map1());
        assert_eq!(adj.neighbors(1), &[(101, 1.0), (102, 1.0), (103, 0.6)]);
        assert_eq!(adj.neighbors(2), &[(102, 0.6), (103, 1.0)]);
        assert!(adj.neighbors(99).is_empty());
    }

    #[test]
    fn raw_table_is_indexed_in_canonical_form() {
        let mut raw = MappingTable::new();
        raw.push(2, 7, 0.4);
        raw.push(1, 9, 0.5);
        raw.push(2, 3, 0.6);
        raw.push(2, 7, 0.8);
        let adj = Adjacency::over_domain(&raw);
        assert_eq!(adj.neighbors(1), &[(9, 0.5)]);
        assert_eq!(adj.neighbors(2), &[(3, 0.6), (7, 0.8)]);
    }

    #[test]
    fn empty_table() {
        let adj = Adjacency::over_domain(&MappingTable::new());
        assert!(adj.neighbors(0).is_empty());
    }

    #[test]
    fn degrees_consistent_with_table() {
        let t = fig6_map1();
        let adj = Adjacency::over_domain(&t);
        for (k, d) in t.domain_degrees() {
            assert_eq!(adj.neighbors(k).len() as u32, d);
        }
    }
}
