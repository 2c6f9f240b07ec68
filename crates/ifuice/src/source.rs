//! Data-source access layer.
//!
//! The paper's web sources (ACM DL, Google Scholar) "can both be
//! accessed by queries" (Section 5.1). A [`DataSource`] wraps one logical
//! source with that keyword-query interface; the script builtin `query`
//! goes through it.

use moma_model::{AttrValue, LdsId, SourceRegistry};
use moma_simstring::normalize::normalize;

/// Access interface over one logical data source.
pub trait DataSource: Send + Sync {
    /// The logical source this adapter serves.
    fn lds(&self) -> LdsId;

    /// Keyword query: instances whose text attributes contain every
    /// keyword token.
    fn query(&self, registry: &SourceRegistry, keywords: &str) -> Vec<u32>;
}

/// In-memory adapter over a registry LDS.
#[derive(Debug, Clone)]
pub struct InMemorySource {
    lds: LdsId,
}

impl InMemorySource {
    /// Adapter over a source whose instances are all in the registry.
    pub fn downloadable(lds: LdsId) -> Self {
        Self { lds }
    }
}

fn value_text(v: &AttrValue) -> Option<String> {
    match v {
        AttrValue::Text(_) | AttrValue::TextList(_) => Some(v.to_match_string()),
        _ => None,
    }
}

impl DataSource for InMemorySource {
    fn lds(&self) -> LdsId {
        self.lds
    }

    fn query(&self, registry: &SourceRegistry, keywords: &str) -> Vec<u32> {
        let needles: Vec<String> = normalize(keywords)
            .split(' ')
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect();
        if needles.is_empty() {
            return Vec::new();
        }
        let lds = registry.lds(self.lds);
        lds.iter()
            .filter(|(_, inst)| {
                let haystack: String = inst
                    .values
                    .iter()
                    .flatten()
                    .filter_map(value_text)
                    .collect::<Vec<_>>()
                    .join(" ");
                let haystack = normalize(&haystack);
                needles.iter().all(|n| haystack.contains(n.as_str()))
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::{AttrDef, LogicalSource, ObjectType};

    fn setup() -> (SourceRegistry, LdsId) {
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
        let (reg, id) = setup();
        let src = InMemorySource::downloadable(id);
        assert_eq!(src.query(&reg, "data cleaning"), vec![0, 1]);
        assert_eq!(src.query(&reg, "fuzzy cleaning"), vec![0]);
        assert_eq!(src.query(&reg, "nothing matches this"), Vec::<u32>::new());
        assert_eq!(src.query(&reg, ""), Vec::<u32>::new());
    }

    #[test]
    fn query_searches_author_lists() {
        let (reg, id) = setup();
        let src = InMemorySource::downloadable(id);
        assert_eq!(src.query(&reg, "chaudhuri"), vec![0]);
    }
}
