//! iFuice instance/mapping operators (paper Section 4).
//!
//! "iFuice supports other operators for querying data sources, accessing
//! object instances based on their ids, traversing mappings, and
//! aggregating objects interconnected by same-mappings." The paper's web
//! sources (ACM DL, Google Scholar) "can both be accessed by queries"
//! (Section 5.1); [`query`] is that keyword interface over a registered
//! source.

use moma_core::Mapping;
use moma_model::{AttrValue, LdsId, SourceRegistry};
use moma_simstring::normalize::normalize;
use moma_table::FxHashSet;

/// Keyword query over one logical source: the live instances whose text
/// attributes contain every keyword token (sorted; none for no keyword).
pub fn query(registry: &SourceRegistry, lds: LdsId, keywords: &str) -> Vec<u32> {
    let keywords = normalize(keywords);
    let needles: Vec<&str> = keywords.split(' ').filter(|t| !t.is_empty()).collect();
    if needles.is_empty() {
        return Vec::new();
    }
    let is_text = |v: &&AttrValue| matches!(v, AttrValue::Text(_) | AttrValue::TextList(_));
    registry
        .lds(lds)
        .iter()
        .filter(|(_, inst)| {
            let text = inst.values.iter().flatten().filter(is_text);
            let text: Vec<String> = text.map(AttrValue::to_match_string).collect();
            let haystack = normalize(&text.join(" "));
            needles.iter().all(|n| haystack.contains(n))
        })
        .map(|(i, _)| i)
        .collect()
}

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
    use moma_model::{AttrDef, LogicalSource, ObjectType};
    use moma_table::MappingTable;

    fn gs() -> (SourceRegistry, LdsId) {
        let mut reg = SourceRegistry::new();
        let mut lds = LogicalSource::new(
            "GS",
            ObjectType::new("Publication"),
            vec![
                AttrDef::text("title"),
                AttrDef::text_list("authors"),
                AttrDef::year("year"),
            ],
        );
        lds.insert_record(
            "g0",
            vec![
                (
                    "title",
                    "Robust fuzzy match for online data cleaning".into(),
                ),
                (
                    "authors",
                    vec!["S. Chaudhuri".to_owned(), "K. Ganjam".to_owned()].into(),
                ),
                ("year", 2003u16.into()),
            ],
        )
        .unwrap();
        lds.insert_record(
            "g1",
            vec![("title", "Potter's wheel interactive data cleaning".into())],
        )
        .unwrap();
        lds.insert_record("g2", vec![("title", "Generic schema matching".into())])
            .unwrap();
        let id = reg.register(lds).unwrap();
        (reg, id)
    }

    #[test]
    fn keyword_query_conjunctive() {
        let (reg, id) = gs();
        assert_eq!(query(&reg, id, "data cleaning"), vec![0, 1]);
        assert_eq!(query(&reg, id, "fuzzy cleaning"), vec![0]);
        assert_eq!(query(&reg, id, "nothing matches this"), Vec::<u32>::new());
        assert_eq!(query(&reg, id, ""), Vec::<u32>::new());
    }

    #[test]
    fn query_searches_author_lists() {
        let (reg, id) = gs();
        assert_eq!(query(&reg, id, "chaudhuri"), vec![0]);
    }

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
