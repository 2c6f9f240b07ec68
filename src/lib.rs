//! # MOMA — a mapping-based object matching system
//!
//! A production-quality Rust reproduction of *MOMA — A Mapping-based
//! Object Matching System* (Andreas Thor, Erhard Rahm; CIDR 2007): a
//! domain-independent framework for object matching (entity resolution)
//! built around **instance mappings** — sets of correspondences
//! `(a, b, similarity)` between objects of two data sources.
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`model`] | logical data sources (each names its physical source), object instances, source deltas |
//! | [`table`] | 3-column mapping tables in canonical order, the grouping co-scan, indexes, hash join, TSV field escaping |
//! | [`simstring`] | similarity measures: trigram, TF-IDF, affix, edit distances, person names, … |
//! | [`core`] | **the paper's contribution**: merge/compose/selection operators, matcher library, neighborhood matcher, mapping repository |
//! | [`ifuice`] | mini iFuice platform: source operators, the workflow script language |
//! | [`datagen`] | synthetic bibliographic world (DBLP / ACM / Google Scholar views + gold standards) |
//! | [`tune`] | self-tuning: grid search and decision trees over matcher configurations |
//! | [`eval`] | reproduction harness for every table and figure of the paper |
//! | [`server`] | `moma serve`: long-lived matching service with a write-ahead delta log and snapshot-isolated reads |
//!
//! ## Quick start
//!
//! ```
//! use moma::model::{AttrDef, LogicalSource, ObjectType, SourceRegistry};
//! use moma::core::matchers::{AttributeMatcher, MatchContext, Matcher};
//! use moma::core::ops::{merge, select, MergeFn, MissingPolicy, Selection};
//! use moma::simstring::SimFn;
//!
//! // 1. Register two sources.
//! let mut reg = SourceRegistry::new();
//! let mut dblp = LogicalSource::new("DBLP", ObjectType::new("Publication"),
//!     vec![AttrDef::text("title"), AttrDef::year("year")]);
//! dblp.insert_record("d1", vec![
//!     ("title", "Generic Schema Matching with Cupid".into()),
//!     ("year", 2001u16.into()),
//! ]).unwrap();
//! let mut acm = LogicalSource::new("ACM", ObjectType::new("Publication"),
//!     vec![AttrDef::text("title"), AttrDef::year("year")]);
//! acm.insert_record("P-672191", vec![
//!     ("title", "Generic schema matching with CUPID".into()),
//!     ("year", 2001u16.into()),
//! ]).unwrap();
//! let d = reg.register(dblp).unwrap();
//! let a = reg.register(acm).unwrap();
//!
//! // 2. Execute two attribute matchers and merge their same-mappings.
//! let ctx = MatchContext::new(&reg);
//! let by_title = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.5)
//!     .execute(&ctx, d, a).unwrap();
//! let by_year = AttributeMatcher::new("year", "year", SimFn::Year(0), 1.0)
//!     .execute(&ctx, d, a).unwrap();
//! let combined = merge(&[&by_title, &by_year], MergeFn::Avg, MissingPolicy::Zero).unwrap();
//!
//! // 3. Select the confident correspondences.
//! let result = select(&combined, &Selection::Threshold(0.8));
//! assert_eq!(result.len(), 1);
//! ```
//!
//! See `examples/` for realistic scenarios, `docs/ARCHITECTURE.md` for
//! the design and `EXPERIMENTS.md` (the output of `repro all`) for every
//! table and figure of the paper, measured beside the paper's values.

pub use moma_core as core;
pub use moma_datagen as datagen;
pub use moma_eval as eval;
pub use moma_ifuice as ifuice;
pub use moma_model as model;
pub use moma_server as server;
pub use moma_simstring as simstring;
pub use moma_table as table;
pub use moma_tune as tune;

/// Crate version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        let _m = crate::core::Mapping::identity(crate::model::LdsId(0), 3);
        assert_eq!(crate::simstring::SimFn::Trigram.eval("a", "a"), 1.0);
        assert!(!crate::VERSION.is_empty());
    }
}
