//! Shared evaluation context: the generated scenario plus cached
//! intermediate mappings reused across experiments — mirroring MOMA's own
//! mapping cache ("MOMA not only processes the input instances but also
//! utilizes the mappings of the repository and the cache", Section 2.2).

use std::sync::Arc;

use moma_core::blocking::Blocking;
use moma_core::matchers::neighborhood::nh_match;
use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma_core::ops::compose::PathAgg;
use moma_core::ops::select::{select, Selection};
use moma_core::{Mapping, MappingRepository};
use moma_datagen::{Scenario, WorldConfig};
use moma_model::LdsId;
use moma_simstring::SimFn;

/// Scenario plus cached derived mappings.
pub struct EvalContext {
    /// The generated evaluation scenario.
    pub scenario: Scenario,
    cache: MappingRepository,
}

impl EvalContext {
    /// Wrap a scenario.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            cache: MappingRepository::new(),
        }
    }

    /// Paper-scale context (Table 1 sized).
    pub fn paper_scale() -> Self {
        Self::new(Scenario::paper_scale())
    }

    /// Small context for tests.
    pub fn small() -> Self {
        Self::new(Scenario::small())
    }

    /// Context from a custom configuration.
    pub fn with_config(config: WorldConfig) -> Self {
        Self::new(Scenario::generate(config))
    }

    /// The match context for running matchers.
    pub fn match_ctx(&self) -> MatchContext<'_> {
        MatchContext::with_repository(&self.scenario.registry, &self.scenario.repository)
    }

    /// Fetch-or-compute a cached mapping.
    pub fn cached(&self, name: &str, build: impl FnOnce() -> Mapping) -> Arc<Mapping> {
        if let Some(m) = self.cache.get(name) {
            return m;
        }
        self.cache.store_as(name, build())
    }

    /// Run one attribute matcher, once. Blocking is the rule over the
    /// measure that every other front end applies.
    fn attr(
        &self,
        cache_key: &str,
        (domain, range): (LdsId, LdsId),
        attribute: &str,
        sim: SimFn,
        threshold: f64,
    ) -> Arc<Mapping> {
        self.cached(cache_key, || {
            let matcher = AttributeMatcher::new(attribute, attribute, sim, threshold);
            let blocking = Blocking::auto_for(&matcher.sim);
            let matcher = matcher.with_blocking(blocking);
            let matched = matcher.execute(&self.match_ctx(), domain, range);
            matched.expect("attribute matcher")
        })
    }

    // ---- derived same-mappings ----

    /// The venue same-mapping DBLP→ACM from the 1:n neighborhood matcher
    /// with Best-1 selection — the paper's Section 5.4.2 input
    /// ("determined with the 1:n neighborhood matching and best-1
    /// selection").
    pub fn venue_same_dblp_acm(&self) -> Arc<Mapping> {
        self.cached("venueSame(D,A)", || {
            select(&self.venue_nh_dblp_acm(), &Selection::best1())
        })
    }

    /// Raw venue neighborhood mapping (no selection) for Table 4's
    /// selection-strategy comparison.
    pub fn venue_nh_dblp_acm(&self) -> Arc<Mapping> {
        self.cached("venueNh(D,A)", || {
            let repo = &self.scenario.repository;
            let asso1 = repo.get("DBLP.VenuePub").expect("assoc");
            let asso2 = repo.get("ACM.PubVenue").expect("assoc");
            let same = self.pub_title_dblp_acm();
            nh_match(&asso1, &same, &asso2, PathAgg::Relative).expect("nh")
        })
    }
}

/// The attribute matchers the experiments share, one row each:
/// `name: domain -> range, attribute, measure, threshold`.
macro_rules! attribute_matchers {
    ($($(#[$doc:meta])* $name:ident: $domain:ident -> $range:ident, $attr:literal, $sim:expr, $threshold:literal;)*) => {
        impl EvalContext {
            $(
                $(#[$doc])*
                pub fn $name(&self) -> Arc<Mapping> {
                    let ids = self.scenario.ids;
                    self.attr(stringify!($name), (ids.$domain, ids.$range), $attr, $sim, $threshold)
                }
            )*
        }
    };
}

attribute_matchers! {
    /// DBLP→ACM title trigram at the paper's 0.8 threshold.
    pub_title_dblp_acm: pub_dblp -> pub_acm, "title", SimFn::Trigram, 0.8;
    /// DBLP→ACM title trigram at a permissive 0.45 (merge input).
    pub_title_low_dblp_acm: pub_dblp -> pub_acm, "title", SimFn::Trigram, 0.45;
    /// DBLP→GS title trigram at 0.75 (GS titles are extraction-noisy).
    pub_title_dblp_gs: pub_dblp -> pub_gs, "title", SimFn::Trigram, 0.75;
    /// DBLP→GS title trigram at 0.45.
    pub_title_low_dblp_gs: pub_dblp -> pub_gs, "title", SimFn::Trigram, 0.45;
    /// GS→ACM title trigram at 0.75.
    pub_title_gs_acm: pub_gs -> pub_acm, "title", SimFn::Trigram, 0.75;
    /// GS→ACM title trigram at 0.45.
    pub_title_low_gs_acm: pub_gs -> pub_acm, "title", SimFn::Trigram, 0.45;
    /// DBLP→ACM author-list trigram at 0.8 (Table 2).
    pub_author_dblp_acm: pub_dblp -> pub_acm, "authors", SimFn::Trigram, 0.8;
    /// DBLP→ACM author-list trigram at 0.45.
    pub_author_low_dblp_acm: pub_dblp -> pub_acm, "authors", SimFn::Trigram, 0.45;
    /// DBLP→ACM year-equality matcher.
    pub_year_dblp_acm: pub_dblp -> pub_acm, "year", SimFn::Year(0), 1.0;
    /// DBLP→ACM author-name trigram at 0.8 (Table 6 attribute row).
    author_name_dblp_acm: author_dblp -> author_acm, "name", SimFn::Trigram, 0.8;
    /// DBLP→ACM author-name trigram at 0.3 (merge input).
    author_name_low_dblp_acm: author_dblp -> author_acm, "name", SimFn::Trigram, 0.3;
    /// DBLP→GS author same-mapping via the initials-aware person-name
    /// measure (GS abbreviates first names, Section 5.4.3).
    author_same_dblp_gs: author_dblp -> author_gs, "name", SimFn::PersonName, 0.85;
    /// GS→ACM author same-mapping.
    author_same_gs_acm: author_gs -> author_acm, "name", SimFn::PersonName, 0.85;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_computes_once() {
        let ctx = EvalContext::small();
        let a = ctx.pub_title_dblp_acm();
        let b = ctx.pub_title_dblp_acm();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.is_empty());
    }

    #[test]
    fn low_threshold_is_superset() {
        let ctx = EvalContext::small();
        let high = ctx.pub_title_dblp_acm();
        let low = ctx.pub_title_low_dblp_acm();
        assert!(low.len() >= high.len());
        let low_pairs = low.table.pair_set();
        for c in high.table.iter() {
            assert!(low_pairs.contains(&(c.domain, c.range)));
        }
    }

    #[test]
    fn venue_same_mapping_mostly_correct() {
        let ctx = EvalContext::small();
        let venue = ctx.venue_same_dblp_acm();
        let gold = &ctx.scenario.gold.venue_dblp_acm;
        let correct = venue
            .table
            .iter()
            .filter(|c| gold.contains(c.domain, c.range))
            .count();
        assert!(
            correct as f64 >= 0.8 * gold.len() as f64,
            "venue matching too weak: {correct}/{}",
            gold.len()
        );
    }

    #[test]
    fn year_matcher_covers_everything() {
        let ctx = EvalContext::small();
        let year = ctx.pub_year_dblp_acm();
        // Year matching is essentially the cross product within years:
        // recall must be ~100%, precision tiny (the Table 2 shape).
        let q = crate::metrics::MatchQuality::evaluate(&year, &ctx.scenario.gold.pub_dblp_acm);
        assert!(q.recall() > 0.88, "year recall {}", q.recall());
        assert!(q.precision() < 0.2, "year precision {}", q.precision());
    }
}
