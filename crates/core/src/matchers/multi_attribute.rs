//! Multi-attribute matcher (paper Section 2.2).
//!
//! "A multi-attribute matcher is also supported which directly evaluates
//! and combines the similarity for multiple attribute pairs, e.g., for
//! publication title and publication year."

use moma_model::{LdsId, LogicalSource};
use moma_simstring::{GramDict, SimFn};
use moma_table::{MappingTable, ProbeScratch};

use crate::blocking::{Blocking, CandidateIndex, Probe};
use crate::error::{CoreError, Result};
use crate::mapping::Mapping;
use crate::matchers::attribute::Value;
use crate::matchers::kernel::{present, probe, Side};
use crate::matchers::{check_threshold, AttributeMatcher, MatchContext, Matcher};
use crate::ops::merge::MissingPolicy;

/// One instance's match strings, aligned to the matcher's `attrs`, each
/// prepared once for its attribute's measure and index.
type Row = Vec<Option<Value>>;

/// The candidate index of one attribute over the range rows.
struct AttrIndex {
    /// Position in `attrs` (and in every [`Row`]).
    k: usize,
    index: CandidateIndex,
    /// Range rows with a missing attribute-`k` value, ascending:
    /// unconditional candidates for this attribute (they can pass
    /// through the others).
    unindexed: Vec<u32>,
}

/// One attribute pair with its similarity function and weight.
#[derive(Debug, Clone)]
pub struct AttrPair {
    /// Attribute on the domain LDS.
    pub domain_attr: String,
    /// Attribute on the range LDS.
    pub range_attr: String,
    /// Similarity function for this pair.
    pub sim: SimFn,
    /// Relative weight in the combined similarity.
    pub weight: f64,
}

impl AttrPair {
    /// Convenience constructor.
    pub fn new(
        domain_attr: impl Into<String>,
        range_attr: impl Into<String>,
        sim: SimFn,
        weight: f64,
    ) -> Self {
        Self {
            domain_attr: domain_attr.into(),
            range_attr: range_attr.into(),
            sim,
            weight,
        }
    }
}

/// Matcher combining several attribute similarities per candidate pair.
#[derive(Debug, Clone)]
pub struct MultiAttributeMatcher {
    /// The attribute pairs; the first is the *primary* (used for
    /// blocking).
    pub attrs: Vec<AttrPair>,
    /// Threshold on the combined similarity.
    pub threshold: f64,
    /// Missing-value treatment: ignore (renormalize weights over present
    /// attributes) or zero.
    pub missing: MissingPolicy,
    /// Candidate-generation strategy; by default the rule of
    /// [`AttributeMatcher::new`] over the primary measure.
    /// [`Blocking::TrigramPrefix`] blocks
    /// on the primary attribute only; [`Blocking::Threshold`] prunes
    /// through *every* attribute that admits a sound derived bound and
    /// intersects the per-attribute candidate sets. Either way an
    /// attribute is indexed at its *derived* bound
    /// ([`MultiAttributeMatcher::derived_threshold`]), resolved exactly
    /// as an [`AttributeMatcher`] on that attribute would.
    pub blocking: Blocking,
}

impl MultiAttributeMatcher {
    /// Create a matcher whose blocking is the one an
    /// [`AttributeMatcher`] on the primary (first) pair gets by default:
    /// for a q-gram primary [`Blocking::Threshold`] — every attribute
    /// with a q-gram measure and a sound *derived* threshold (see
    /// [`MultiAttributeMatcher::derived_threshold`]) prunes candidates
    /// through its own T-occurrence index and the per-attribute sets are
    /// intersected, with results always identical to
    /// [`Blocking::AllPairs`] — otherwise the prefix filter on the
    /// primary. `attrs` must be non-empty.
    pub fn new(attrs: Vec<AttrPair>, threshold: f64) -> Self {
        let blocking = match attrs.first() {
            Some(primary) => Blocking::auto_for(&primary.sim.clone().into()),
            None => Blocking::Threshold,
        };
        Self {
            attrs,
            threshold,
            missing: MissingPolicy::Ignore,
            blocking,
        }
    }

    /// Set the missing policy (builder style).
    pub fn with_missing(mut self, missing: MissingPolicy) -> Self {
        self.missing = missing;
        self
    }

    /// Set the blocking strategy (builder style).
    pub fn with_blocking(mut self, blocking: Blocking) -> Self {
        self.blocking = blocking;
        self
    }

    /// The attribute-`k` threshold a combined-similarity threshold `t`
    /// implies: with attribute weight `w_k` and total weight `W`, a pair
    /// whose attribute-`k` values are both present can only reach
    /// combined similarity `t` if that attribute's similarity reaches
    /// `1 − W·(1 − t)/w_k` — every other attribute contributes at most
    /// its full weight, and the divisor never exceeds `W` under either
    /// missing policy. `None` when the bound is vacuous (≤ 0), unsound
    /// (a negative weight anywhere, or `w_k ≤ 0`), or `k` out of range.
    pub fn derived_threshold(&self, k: usize) -> Option<f64> {
        let w = self.attrs.get(k)?.weight;
        if w <= 0.0 || self.attrs.iter().any(|p| p.weight < 0.0) {
            return None;
        }
        let total: f64 = self.attrs.iter().map(|p| p.weight).sum();
        let t_k = 1.0 - total * (1.0 - self.threshold) / w;
        (t_k > 0.0).then_some(t_k)
    }

    /// [`MultiAttributeMatcher::derived_threshold`] of the primary
    /// (first) attribute — the bound the prefix filter blocks on.
    pub fn primary_threshold(&self) -> Option<f64> {
        self.derived_threshold(0)
    }

    /// Combined similarity of two rows; NaN (never reaches a threshold)
    /// when no attribute is comparable.
    fn combined_sim(&self, d_vals: &Row, r_vals: &Row) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        let mut any = false;
        for (k, pair) in self.attrs.iter().enumerate() {
            match (&d_vals[k], &r_vals[k]) {
                (Some(a), Some(b)) => {
                    num += pair.weight * Value::score(&pair.sim, a, b);
                    den += pair.weight;
                    any = true;
                }
                _ => {
                    if self.missing == MissingPolicy::Zero {
                        den += pair.weight;
                    }
                }
            }
        }
        if !any || den <= 0.0 {
            f64::NAN
        } else {
            num / den
        }
    }

    /// Per-instance value rows by arena index (`None` = removed), every
    /// value prepared for its attribute's measure and — where
    /// `probes[k]` names one — index, through the match's dictionary.
    fn project(
        &self,
        lds: &LogicalSource,
        domain_side: bool,
        probes: &[Option<Probe>],
        dict: &mut GramDict,
    ) -> Result<Vec<Option<Row>>> {
        let slots: Vec<usize> = self
            .attrs
            .iter()
            .map(|p| {
                let attr = if domain_side {
                    &p.domain_attr
                } else {
                    &p.range_attr
                };
                lds.attr_slot(attr).map_err(CoreError::from)
            })
            .collect::<Result<_>>()?;
        let mut rows = vec![None; lds.len()];
        for (i, inst) in lds.iter() {
            let mut value = |k: usize| {
                let text = inst.value(slots[k])?.to_match_string();
                Some(Value::prepare(&text, &self.attrs[k].sim, probes[k], dict))
            };
            rows[i as usize] = Some((0..slots.len()).map(&mut value).collect());
        }
        Ok(rows)
    }

    /// How each attribute is indexed and probed, if at all. The blocking
    /// choice only selects *which* attributes may get an index (none,
    /// the primary, all); whether and how attribute `k` is indexed is
    /// what [`AttributeMatcher::probe`] resolves for its
    /// measure at its derived bound — an attribute with a vacuous bound,
    /// or one the plan scores all-pairs, prunes nothing.
    fn probes(&self) -> Vec<Option<Probe>> {
        let eligible = match self.blocking {
            Blocking::AllPairs => 0,
            Blocking::TrigramPrefix => 1,
            Blocking::Threshold => self.attrs.len(),
        };
        let probe_of = |(k, pair): (usize, &AttrPair)| {
            let bound = self.derived_threshold(k).filter(|_| k < eligible)?;
            let (d_attr, r_attr) = (&pair.domain_attr, &pair.range_attr);
            AttributeMatcher::new(d_attr, r_attr, pair.sim.clone(), bound)
                .with_blocking(self.blocking)
                .probe()
        };
        self.attrs.iter().enumerate().map(probe_of).collect()
    }

    /// The per-attribute indexes over the range rows, one per attribute
    /// with a probe. `None` (no attribute indexed) scores all pairs.
    fn index_range(
        &self,
        range: &[Option<Row>],
        probes: &[Option<Probe>],
        ctx: &MatchContext<'_>,
    ) -> Option<Vec<AttrIndex>> {
        let rows = present(range);
        let indexes: Vec<AttrIndex> = probes
            .iter()
            .enumerate()
            .filter_map(|(k, probe)| {
                let values: Vec<(u32, &[u32])> = rows
                    .iter()
                    .filter_map(|(i, row)| Some((*i, row[k].as_ref()?.tokens())))
                    .collect();
                let unindexed = rows
                    .iter()
                    .filter_map(|(i, row)| row[k].is_none().then_some(*i))
                    .collect();
                Some(AttrIndex {
                    k,
                    index: CandidateIndex::build((*probe)?, values, &ctx.parallelism),
                    unindexed,
                })
            })
            .collect();
        (!indexes.is_empty()).then_some(indexes)
    }
}

/// Intersect the per-attribute candidate sets (sorted id lists) of one
/// domain row. An attribute whose domain value is missing prunes nothing
/// (the pair can still clear the combined threshold through the
/// others); with every indexed attribute missing, all of `range` is a
/// candidate.
fn candidates(
    indexes: &[AttrIndex],
    d_row: &Row,
    range: &[Option<Row>],
    scratch: &mut ProbeScratch,
) -> Vec<u32> {
    let mut surviving: Option<Vec<u32>> = None;
    for ai in indexes {
        let Some(value) = &d_row[ai.k] else { continue };
        let mut set = ai.index.candidates(value.tokens(), scratch);
        if !ai.unindexed.is_empty() {
            set.extend_from_slice(&ai.unindexed);
            set.sort_unstable();
        }
        if let Some(prev) = &surviving {
            set.retain(|id| prev.binary_search(id).is_ok());
        }
        if set.is_empty() {
            return set;
        }
        surviving = Some(set);
    }
    surviving.unwrap_or_else(|| present(range).into_iter().map(|(i, _)| i).collect())
}

impl Matcher for MultiAttributeMatcher {
    fn name(&self) -> String {
        let attrs: Vec<String> = self
            .attrs
            .iter()
            .map(|p| format!("{}~{}:{}", p.domain_attr, p.range_attr, p.sim))
            .collect();
        format!("multiAttrMatch([{}], {})", attrs.join(", "), self.threshold)
    }

    fn execute(&self, ctx: &MatchContext<'_>, domain: LdsId, range: LdsId) -> Result<Mapping> {
        if self.attrs.is_empty() {
            return Err(CoreError::InvalidConfig(
                "multi-attribute matcher needs attributes".into(),
            ));
        }
        check_threshold(self.threshold)?;
        let (probes, mut dict) = (self.probes(), GramDict::new());
        let d_rows = self.project(ctx.registry.lds(domain), true, &probes, &mut dict)?;
        let r_rows = self.project(ctx.registry.lds(range), false, &probes, &mut dict)?;
        let index = self.index_range(&r_rows, &probes, ctx);
        let r_side = Side {
            vals: r_rows,
            index,
        };
        // The same kernel as the attribute matcher, over value rows.
        let rows = probe(
            ctx.parallelism,
            &present(&d_rows),
            &r_side,
            |indexes, d_row, scratch| candidates(indexes, d_row, &r_side.vals, scratch),
            |d, r| self.combined_sim(d, r),
            self.threshold,
            false,
        );
        let table = MappingTable::from_rows(rows);
        Ok(Mapping::same(self.name(), domain, range, table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::{AttrDef, LogicalSource, ObjectType, SourceRegistry};

    fn setup() -> (SourceRegistry, LdsId, LdsId) {
        let mut reg = SourceRegistry::new();
        let mut dblp = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        // Same title twice with different years — the conference/journal
        // version problem from paper Fig. 7.
        dblp.insert_record(
            "d0",
            vec![
                (
                    "title",
                    "A formal perspective on the view selection problem".into(),
                ),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        dblp.insert_record(
            "d1",
            vec![
                (
                    "title",
                    "A formal perspective on the view selection problem".into(),
                ),
                ("year", 2002u16.into()),
            ],
        )
        .unwrap();
        dblp.insert_record("d2", vec![("title", "No year record".into())])
            .unwrap();
        let mut acm = LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        acm.insert_record(
            "a0",
            vec![
                (
                    "title",
                    "A formal perspective on the view selection problem".into(),
                ),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        acm.insert_record("a1", vec![("title", "No year record".into())])
            .unwrap();
        let d = reg.register(dblp).unwrap();
        let a = reg.register(acm).unwrap();
        (reg, d, a)
    }

    fn matcher() -> MultiAttributeMatcher {
        MultiAttributeMatcher::new(
            vec![
                AttrPair::new("title", "title", SimFn::Trigram, 2.0),
                AttrPair::new("year", "year", SimFn::Year(0), 1.0),
            ],
            0.8,
        )
    }

    #[test]
    fn year_disambiguates_same_title() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let r = matcher().execute(&ctx, d, a).unwrap();
        // d0 (2001) combined = (2*1 + 1*1)/3 = 1; d1 (2002) = (2*1 + 0)/3 ≈ 0.67 < 0.8.
        assert_eq!(r.table.sim_of(0, 0), Some(1.0));
        assert_eq!(r.table.sim_of(1, 0), None);
    }

    #[test]
    fn missing_ignore_renormalizes() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let r = matcher().execute(&ctx, d, a).unwrap();
        // d2/a1 have no year; Ignore policy: title alone = 1.0.
        assert_eq!(r.table.sim_of(2, 1), Some(1.0));
    }

    #[test]
    fn missing_zero_penalizes() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let r = matcher()
            .with_missing(MissingPolicy::Zero)
            .execute(&ctx, d, a)
            .unwrap();
        // d2/a1: (2*1 + 0)/3 ≈ 0.67 < 0.8 -> dropped.
        assert_eq!(r.table.sim_of(2, 1), None);
    }

    #[test]
    fn parallel_equivalent() {
        use crate::exec::Parallelism;
        let (reg, d, a) = setup();
        let seq = matcher()
            .execute(
                &MatchContext::new(&reg).with_parallelism(Parallelism::sequential()),
                d,
                a,
            )
            .unwrap();
        for threads in [2usize, 8] {
            for blocking in [Blocking::AllPairs, Blocking::TrigramPrefix] {
                let ctx = MatchContext::new(&reg)
                    .with_parallelism(Parallelism::new(threads).with_min_shard_size(1));
                let par = matcher()
                    .with_blocking(blocking)
                    .execute(&ctx, d, a)
                    .unwrap();
                assert_eq!(
                    seq.table.rows(),
                    par.table.rows(),
                    "threads={threads} blocking={blocking:?}"
                );
            }
        }
    }

    #[test]
    fn blocking_equivalent() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let all = matcher().execute(&ctx, d, a).unwrap();
        let blocked = matcher()
            .with_blocking(Blocking::TrigramPrefix)
            .execute(&ctx, d, a)
            .unwrap();
        assert_eq!(all.table.pair_set(), blocked.table.pair_set());
    }

    #[test]
    fn primary_threshold_derivation() {
        // weights 2 (primary) + 1, t = 0.8: t_p = 1 − 3·0.2/2 = 0.7.
        let m = matcher();
        assert!((m.primary_threshold().unwrap() - 0.7).abs() < 1e-12);
        // Single attribute degenerates to the matcher threshold.
        let single =
            MultiAttributeMatcher::new(vec![AttrPair::new("t", "t", SimFn::Trigram, 1.0)], 0.6);
        assert!((single.primary_threshold().unwrap() - 0.6).abs() < 1e-12);
        // Vacuous bound: a low-weight primary cannot be bounded.
        let weak = MultiAttributeMatcher::new(
            vec![
                AttrPair::new("t", "t", SimFn::Trigram, 1.0),
                AttrPair::new("y", "y", SimFn::Year(0), 9.0),
            ],
            0.8,
        );
        assert_eq!(weak.primary_threshold(), None);
        // Non-positive weights are unsound for the bound.
        let zero =
            MultiAttributeMatcher::new(vec![AttrPair::new("t", "t", SimFn::Trigram, 0.0)], 0.8);
        assert_eq!(zero.primary_threshold(), None);
    }

    #[test]
    fn threshold_blocking_exact_with_missing_primaries() {
        // A range row with a *missing primary* can still clear the
        // combined threshold (Ignore renormalizes onto the year) — no
        // blocking variant may drop such pairs.
        let mut reg = SourceRegistry::new();
        let mut dblp = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        dblp.insert_record(
            "d0",
            vec![
                ("title", "Data Cleaning Survey".into()),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        dblp.insert_record("d1", vec![("year", 2002u16.into())])
            .unwrap();
        let mut acm = LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        // a0: no title at all; a1: title present.
        acm.insert_record("a0", vec![("year", 2001u16.into())])
            .unwrap();
        acm.insert_record(
            "a1",
            vec![
                ("title", "Data Cleaning Survey!".into()),
                ("year", 2002u16.into()),
            ],
        )
        .unwrap();
        let d = reg.register(dblp).unwrap();
        let a = reg.register(acm).unwrap();
        let ctx = MatchContext::new(&reg);
        let m = MultiAttributeMatcher::new(
            vec![
                AttrPair::new("title", "title", SimFn::Trigram, 2.0),
                AttrPair::new("year", "year", SimFn::Year(0), 1.0),
            ],
            0.8,
        );
        let all = m
            .clone()
            .with_blocking(Blocking::AllPairs)
            .execute(&ctx, d, a)
            .unwrap();
        let exact = m.execute(&ctx, d, a).unwrap(); // default = Threshold
        assert_eq!(all.table.rows(), exact.table.rows());
        // The missing-primary pairs really are in the result (year-only
        // renormalized similarity 1.0): d0×a0 and d1×a1.
        assert_eq!(exact.table.sim_of(0, 0), Some(1.0));
        assert_eq!(exact.table.sim_of(1, 1), Some(1.0));
        // ...and so does the prefix filter: an unindexed (missing-primary)
        // range row stays a candidate, and a domain row without a
        // primary prunes nothing.
        let prefix = m
            .clone()
            .with_blocking(Blocking::TrigramPrefix)
            .execute(&ctx, d, a)
            .unwrap();
        assert_eq!(all.table.rows(), prefix.table.rows());
    }

    #[test]
    fn prefix_blocking_probes_at_the_derived_bound() {
        // Title Dice 0.767 is below the combined threshold 0.8 but above
        // the derived primary bound 0.7, and the year match lifts the
        // pair to 0.844: probing the prefix filter at the *combined*
        // threshold lost it.
        let mut reg = SourceRegistry::new();
        let mk = |name: &str, title: &str| {
            let mut lds = LogicalSource::new(
                name,
                ObjectType::new("Publication"),
                vec![AttrDef::text("title"), AttrDef::year("year")],
            );
            lds.insert_record("x", vec![("title", title.into()), ("year", 2001u16.into())])
                .unwrap();
            lds
        };
        let d = reg
            .register(mk("DBLP", "generic schema matching selection"))
            .unwrap();
        let a = reg.register(mk("ACM", "generic schema matching")).unwrap();
        let ctx = MatchContext::new(&reg);
        let all = matcher()
            .with_blocking(Blocking::AllPairs)
            .execute(&ctx, d, a)
            .unwrap();
        assert_eq!(all.len(), 1);
        let s = all.table.sim_of(0, 0).unwrap();
        assert!((0.84..0.85).contains(&s), "combined = {s}");
        for blocking in [Blocking::Threshold, Blocking::TrigramPrefix] {
            let blocked = matcher()
                .with_blocking(blocking)
                .execute(&ctx, d, a)
                .unwrap();
            assert_eq!(all.table.rows(), blocked.table.rows(), "{blocking:?}");
        }
    }

    #[test]
    fn threshold_blocking_matches_allpairs_on_standard_data() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        for t in [0.5, 0.8] {
            for missing in [MissingPolicy::Ignore, MissingPolicy::Zero] {
                let base = MultiAttributeMatcher::new(
                    vec![
                        AttrPair::new("title", "title", SimFn::Trigram, 2.0),
                        AttrPair::new("year", "year", SimFn::Year(0), 1.0),
                    ],
                    t,
                )
                .with_missing(missing);
                let all = base
                    .clone()
                    .with_blocking(Blocking::AllPairs)
                    .execute(&ctx, d, a)
                    .unwrap();
                let exact = base
                    .clone()
                    .with_blocking(Blocking::Threshold)
                    .execute(&ctx, d, a)
                    .unwrap();
                assert_eq!(all.table.rows(), exact.table.rows(), "t={t} {missing:?}");
            }
        }
        // Non-q-gram primary: Threshold transparently scores all pairs.
        let jaro = MultiAttributeMatcher::new(
            vec![AttrPair::new("title", "title", SimFn::Jaro, 1.0)],
            0.9,
        )
        .with_blocking(Blocking::Threshold);
        let all = jaro
            .clone()
            .with_blocking(Blocking::AllPairs)
            .execute(&ctx, d, a)
            .unwrap();
        let fallback = jaro.execute(&ctx, d, a).unwrap();
        assert_eq!(all.table.rows(), fallback.table.rows());
    }

    #[test]
    fn multi_index_intersection_is_exact() {
        // Two q-gram attributes → two exact indexes, candidates
        // intersected. The result must still match all-pairs exactly,
        // including rows where one attribute is missing on either side.
        let mut reg = SourceRegistry::new();
        let mut dblp = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::text("venue")],
        );
        let d_recs: [(&str, Option<&str>, Option<&str>); 4] = [
            ("d0", Some("Data Cleaning Survey"), Some("VLDB Journal")),
            ("d1", Some("Schema Matching with Cupid"), Some("VLDB")),
            ("d2", Some("Potter's Wheel"), None),
            ("d3", None, Some("SIGMOD Record")),
        ];
        for (key, title, venue) in d_recs {
            let mut vals: Vec<(&str, moma_model::AttrValue)> = Vec::new();
            if let Some(t) = title {
                vals.push(("title", t.into()));
            }
            if let Some(v) = venue {
                vals.push(("venue", v.into()));
            }
            dblp.insert_record(key, vals).unwrap();
        }
        let mut acm = LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::text("venue")],
        );
        let a_recs: [(&str, Option<&str>, Option<&str>); 4] = [
            (
                "a0",
                Some("Data Cleaning Survey!"),
                Some("The VLDB Journal"),
            ),
            ("a1", Some("Schema Matching with Cupid"), None),
            ("a2", None, Some("VLDB")),
            ("a3", Some("Unrelated Title"), Some("Unrelated Venue")),
        ];
        for (key, title, venue) in a_recs {
            let mut vals: Vec<(&str, moma_model::AttrValue)> = Vec::new();
            if let Some(t) = title {
                vals.push(("title", t.into()));
            }
            if let Some(v) = venue {
                vals.push(("venue", v.into()));
            }
            acm.insert_record(key, vals).unwrap();
        }
        let d = reg.register(dblp).unwrap();
        let a = reg.register(acm).unwrap();
        let ctx = MatchContext::new(&reg);
        for t in [0.5, 0.7, 0.9] {
            for missing in [MissingPolicy::Ignore, MissingPolicy::Zero] {
                let m = MultiAttributeMatcher::new(
                    vec![
                        AttrPair::new("title", "title", SimFn::Trigram, 2.0),
                        AttrPair::new("venue", "venue", SimFn::QgramJaccard(2), 1.0),
                    ],
                    t,
                )
                .with_missing(missing);
                // Both attributes really are boundable at these
                // thresholds or not — either way results must agree.
                let all = m
                    .clone()
                    .with_blocking(Blocking::AllPairs)
                    .execute(&ctx, d, a)
                    .unwrap();
                let exact = m.execute(&ctx, d, a).unwrap(); // default Threshold
                assert_eq!(all.table.rows(), exact.table.rows(), "t={t} {missing:?}");
            }
        }
        // At t = 0.9 both derived bounds are sound (t_k > 0 for both
        // weights): pin that the secondary index actually prunes — the
        // unrelated range row never survives a selective probe pair.
        let m = MultiAttributeMatcher::new(
            vec![
                AttrPair::new("title", "title", SimFn::Trigram, 2.0),
                AttrPair::new("venue", "venue", SimFn::QgramJaccard(2), 1.0),
            ],
            0.9,
        );
        assert!(m.derived_threshold(0).is_some());
        assert!(m.derived_threshold(1).is_some());
        let r = m.execute(&ctx, d, a).unwrap();
        assert!(r.table.iter().all(|c| c.range != 3));
    }

    #[test]
    fn derived_threshold_per_attribute() {
        // weights 2 (primary) + 1, t = 0.8: t_0 = 1 − 3·0.2/2 = 0.7,
        // t_1 = 1 − 3·0.2/1 = 0.4.
        let m = matcher();
        assert!((m.derived_threshold(0).unwrap() - 0.7).abs() < 1e-12);
        assert!((m.derived_threshold(1).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(m.derived_threshold(2), None); // out of range
                                                  // Low-weight attributes get vacuous (None) bounds.
        let skewed = MultiAttributeMatcher::new(
            vec![
                AttrPair::new("t", "t", SimFn::Trigram, 9.0),
                AttrPair::new("v", "v", SimFn::Trigram, 1.0),
            ],
            0.8,
        );
        assert!(skewed.derived_threshold(0).is_some());
        assert_eq!(skewed.derived_threshold(1), None);
    }

    #[test]
    fn empty_config_rejected() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let m = MultiAttributeMatcher::new(vec![], 0.5);
        assert!(matches!(
            m.execute(&ctx, d, a),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn the_primary_measure_picks_the_default_blocking() {
        assert_eq!(matcher().blocking, Blocking::Threshold);
        let jaro = MultiAttributeMatcher::new(vec![AttrPair::new("t", "t", SimFn::Jaro, 1.0)], 0.9);
        assert_eq!(jaro.blocking, Blocking::TrigramPrefix);
    }

    #[test]
    fn thresholds_outside_the_unit_interval_are_refused() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        for t in [-0.1, 1.5, f64::NAN] {
            let mut m = matcher();
            m.threshold = t;
            assert!(
                matches!(m.execute(&ctx, d, a), Err(CoreError::InvalidConfig(_))),
                "t={t}"
            );
        }
    }

    #[test]
    fn name_lists_attrs() {
        let n = matcher().name();
        assert!(n.contains("title~title:trigram"));
        assert!(n.contains("year~year:year:0"));
    }
}
