//! iFuice instance/mapping operators (paper Section 4).
//!
//! "iFuice supports other operators for querying data sources, accessing
//! object instances based on their ids, traversing mappings, and
//! aggregating objects interconnected by same-mappings."

use moma_core::Mapping;
use moma_table::FxHashSet;

/// Traverse a mapping from a set of domain instances: the reached range
/// instances (deduplicated, sorted).
pub fn traverse(mapping: &Mapping, domain_ids: &[u32]) -> Vec<u32> {
    let wanted: FxHashSet<u32> = domain_ids.iter().copied().collect();
    let mut out: Vec<u32> = mapping
        .table
        .iter()
        .filter(|c| wanted.contains(&c.domain))
        .map(|c| c.range)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::LdsId;
    use moma_table::MappingTable;

    fn mapping() -> Mapping {
        Mapping::association(
            "VenuePub",
            "publications of venue",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([
                (0, 10, 1.0),
                (0, 11, 1.0),
                (1, 11, 1.0),
                (1, 12, 1.0),
                (2, 13, 1.0),
            ]),
        )
    }

    #[test]
    fn traverse_reaches_ranges() {
        let m = mapping();
        assert_eq!(traverse(&m, &[0]), vec![10, 11]);
        assert_eq!(traverse(&m, &[0, 1]), vec![10, 11, 12]);
        assert_eq!(traverse(&m, &[9]), Vec::<u32>::new());
        assert_eq!(traverse(&m, &[]), Vec::<u32>::new());
    }
}
