//! Duplicate clusters from self-mappings (paper Sections 4.3 / 5.6).
//!
//! A self-mapping over one LDS marks duplicate records. Treating its
//! correspondences as edges, connected components are *duplicate
//! clusters*; collapsing clusters to representatives is the paper's
//! outlook strategy for dirty sources like Google Scholar ("first
//! determine the duplicates within dirty sources … represent them as
//! self-mappings … then compose with same-mappings").

use moma_table::agg::IdGroups;
use moma_table::MappingTable;

use crate::error::{CoreError, Result};
use crate::mapping::Mapping;

/// Union-find (disjoint set) over dense `u32` ids.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: u32) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n as usize],
        }
    }

    /// Representative of `x` (with path halving).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns the new representative.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        hi
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// Duplicate clusters of a self-mapping: connected components with at
/// least two members, sorted by smallest member (deterministic).
///
/// `n` is the instance count of the LDS. Fails if the mapping is not a
/// self-mapping or holds an instance id `>= n`.
pub fn clusters(self_mapping: &Mapping, n: u32) -> Result<Vec<Vec<u32>>> {
    let reps = component_reps("clusters", self_mapping, n)?;
    // Instances grouped by representative: groups ascend by representative,
    // a cluster's smallest member, and members ascend within a group, so
    // both levels come out sorted. Only clusters of two or more allocate.
    let groups = IdGroups::count(reps.iter().copied());
    let members = groups.positions(reps.iter().copied());
    let clusters = groups.spans().filter(|(_, span)| span.len() > 1);
    Ok(clusters.map(|(_, span)| members[span].to_vec()).collect())
}

/// Map each instance to its cluster representative (smallest member id);
/// singletons map to themselves. Fails like [`clusters`].
pub fn representatives(self_mapping: &Mapping, n: u32) -> Result<Vec<u32>> {
    component_reps("representatives", self_mapping, n)
}

fn component_reps(what: &str, self_mapping: &Mapping, n: u32) -> Result<Vec<u32>> {
    if !self_mapping.is_self_mapping() {
        return Err(CoreError::Incompatible(format!(
            "{what} need a self-mapping, got ({}, {})",
            self_mapping.domain.0, self_mapping.range.0
        )));
    }
    let mut uf = UnionFind::new(n);
    for c in self_mapping.table.iter() {
        let id = c.domain.max(c.range);
        if id >= n {
            return Err(CoreError::Incompatible(format!(
                "{what}: `{}` holds instance id {id}, but the source has {n} instances",
                self_mapping.name
            )));
        }
        uf.union(c.domain, c.range);
    }
    // Ascending scan: the first member seen of a component is its
    // smallest, recorded at the component's root.
    let mut smallest = vec![u32::MAX; n as usize];
    let rep_of = |x: u32| {
        let root = uf.find(x) as usize;
        if smallest[root] == u32::MAX {
            smallest[root] = x;
        }
        smallest[root]
    };
    Ok((0..n).map(rep_of).collect())
}

/// Rewrite a mapping's *domain* column through a representative table
/// (collapsing duplicate clusters); duplicate output pairs keep max sim.
pub fn collapse_domain(mapping: &Mapping, reps: &[u32]) -> Mapping {
    let table = MappingTable::from_triples(mapping.table.iter().map(|c| {
        let d = reps.get(c.domain as usize).copied().unwrap_or(c.domain);
        (d, c.range, c.sim)
    }));
    Mapping {
        name: format!("collapse({})", mapping.name),
        kind: mapping.kind.clone(),
        domain: mapping.domain,
        range: mapping.range,
        table,
    }
}

/// Expand a mapping's domain column back over clusters: each output pair
/// `(rep, b)` yields `(member, b)` for every member of rep's cluster —
/// the paper's "find more correspondences" composition of self-mappings
/// with same-mappings.
pub fn expand_domain(mapping: &Mapping, reps: &[u32]) -> Mapping {
    // Members grouped by representative, ascending within a cluster.
    let groups = IdGroups::count(reps.iter().copied());
    let members = groups.positions(reps.iter().copied());
    let mut table = MappingTable::new();
    for c in mapping.table.iter() {
        let cluster = &members[groups.span(c.domain)];
        if cluster.is_empty() {
            table.push(c.domain, c.range, c.sim);
        }
        cluster.iter().for_each(|&m| table.push(m, c.range, c.sim));
    }
    table.dedup_max();
    Mapping {
        name: format!("expand({})", mapping.name),
        kind: mapping.kind.clone(),
        domain: mapping.domain,
        range: mapping.range,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::LdsId;

    fn self_mapping() -> Mapping {
        // Clusters: {0,1,2} via 0-1, 1-2; {4,5}; 3 and 6 singletons.
        Mapping::same(
            "dups",
            LdsId(0),
            LdsId(0),
            MappingTable::from_triples([(0, 1, 0.9), (1, 2, 0.8), (4, 5, 0.7)]),
        )
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.connected(0, 1));
        uf.union(0, 1);
        uf.union(3, 4);
        assert!(uf.connected(0, 1));
        assert!(uf.connected(4, 3));
        assert!(!uf.connected(1, 3));
        uf.union(1, 3);
        assert!(uf.connected(0, 4));
        assert_eq!(uf.len(), 5);
    }

    #[test]
    fn clusters_found() {
        let cs = clusters(&self_mapping(), 7).unwrap();
        assert_eq!(cs, vec![vec![0, 1, 2], vec![4, 5]]);
    }

    #[test]
    fn representatives_are_smallest() {
        let reps = representatives(&self_mapping(), 7).unwrap();
        assert_eq!(reps, vec![0, 0, 0, 3, 4, 4, 6]);
    }

    #[test]
    fn non_self_mapping_rejected() {
        let m = Mapping::same("x", LdsId(0), LdsId(1), MappingTable::new());
        assert!(clusters(&m, 3).is_err());
        assert!(representatives(&m, 3).is_err());
    }

    /// A mapping older than its shrunken source, or a caller's wrong `n`.
    #[test]
    fn out_of_range_ids_are_errors_not_panics() {
        for (a, b) in [(0, 7), (7, 0), (9, 9)] {
            let m = Mapping::same(
                "stale",
                LdsId(0),
                LdsId(0),
                MappingTable::from_triples([(0, 1, 0.9), (a, b, 0.8)]),
            );
            for err in [
                clusters(&m, 7).unwrap_err(),
                representatives(&m, 7).unwrap_err(),
            ] {
                let CoreError::Incompatible(msg) = err else {
                    panic!("expected Incompatible, got {err:?}");
                };
                assert!(msg.contains(&format!("instance id {}", a.max(b))), "{msg}");
                assert!(msg.contains("7 instances"), "{msg}");
            }
            assert!(clusters(&m, 10).is_ok());
        }
    }

    #[test]
    fn collapse_rewrites_domains() {
        let reps = representatives(&self_mapping(), 7).unwrap();
        let cross = Mapping::same(
            "cross",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(1, 100, 0.8), (2, 100, 0.9), (6, 101, 1.0)]),
        );
        let collapsed = collapse_domain(&cross, &reps);
        // Both 1 and 2 collapse to 0; max sim wins.
        assert_eq!(collapsed.table.sim_of(0, 100), Some(0.9));
        assert_eq!(collapsed.table.sim_of(6, 101), Some(1.0));
        assert_eq!(collapsed.len(), 2);
    }

    #[test]
    fn expand_projects_back_over_cluster() {
        let reps = representatives(&self_mapping(), 7).unwrap();
        let collapsed = Mapping::same(
            "c",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 100, 0.9)]),
        );
        let expanded = expand_domain(&collapsed, &reps);
        // All of cluster {0,1,2} now map to 100.
        assert_eq!(expanded.len(), 3);
        for d in [0, 1, 2] {
            assert_eq!(expanded.table.sim_of(d, 100), Some(0.9));
        }
    }

    #[test]
    fn collapse_then_expand_covers_original() {
        let reps = representatives(&self_mapping(), 7).unwrap();
        let cross = Mapping::same(
            "cross",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(1, 100, 0.8)]),
        );
        let round = expand_domain(&collapse_domain(&cross, &reps), &reps);
        // The original pair reappears (plus its cluster siblings).
        assert!(round.table.sim_of(1, 100).is_some());
        assert!(round.table.sim_of(0, 100).is_some());
        assert!(round.table.sim_of(2, 100).is_some());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use moma_model::LdsId;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn clusters_partition_edges(
            edges in prop::collection::vec((0u32..20, 0u32..20), 0..40)
        ) {
            let m = Mapping::same(
                "m",
                LdsId(0),
                LdsId(0),
                MappingTable::from_triples(edges.iter().map(|&(a, b)| (a, b, 1.0))),
            );
            let cs = clusters(&m, 20).unwrap();
            // Every edge's endpoints land in the same cluster.
            let mut cluster_of: std::collections::HashMap<u32, usize> = Default::default();
            for (i, c) in cs.iter().enumerate() {
                for &x in c {
                    cluster_of.insert(x, i);
                }
            }
            for (a, b) in edges {
                if a != b {
                    prop_assert_eq!(cluster_of.get(&a), cluster_of.get(&b));
                }
            }
            // Clusters are disjoint.
            let total: usize = cs.iter().map(|c| c.len()).sum();
            let distinct: std::collections::HashSet<u32> =
                cs.iter().flatten().copied().collect();
            prop_assert_eq!(total, distinct.len());
        }

        #[test]
        fn representatives_idempotent(
            edges in prop::collection::vec((0u32..16, 0u32..16), 0..30)
        ) {
            let m = Mapping::same(
                "m",
                LdsId(0),
                LdsId(0),
                MappingTable::from_triples(edges.into_iter().map(|(a, b)| (a, b, 0.5))),
            );
            let reps = representatives(&m, 16).unwrap();
            for (i, &r) in reps.iter().enumerate() {
                // rep of rep is rep; rep <= member.
                prop_assert_eq!(reps[r as usize], r);
                prop_assert!(r <= i as u32);
            }
        }
    }
}
