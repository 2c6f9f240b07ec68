//! The generic attribute matcher (paper Section 2.2).
//!
//! "In our current implementation, we use a generic attribute matcher
//! that is provided with a pair of attributes to be matched, a similarity
//! function to be evaluated (e.g. n-gram, TF/IDF or affix) and a
//! similarity threshold to be exceeded by result correspondences."
//!
//! `AttributeMatcher::probe` is the single place a [`Blocking`] choice
//! is resolved; the resolved probe decides which index a side of the
//! match gets (none: all pairs), and the one match kernel
//! (`matchers::kernel::probe`) runs it.

use std::fmt;
use std::str::FromStr;

use moma_model::{LdsId, LogicalSource};
use moma_simstring::bounds::qgram_measure_of;
use moma_simstring::tfidf::cosine_vectors;
use moma_simstring::tokenize::remap_sorted;
use moma_simstring::{GramDict, Prepared, SimFn, TfIdfCorpus};
use moma_table::{MappingTable, ProbeScratch};

use crate::blocking::{Blocking, CandidateIndex, Probe, Tokens};
use crate::error::Result;
use crate::exec::Parallelism;
use crate::mapping::Mapping;
use crate::matchers::kernel::{present, probe, Side};
use crate::matchers::{check_threshold, MatchContext, Matcher};

/// Similarity configuration of an attribute matcher — the one spelling
/// every front end (wire, script, eval) parses a matcher's measure with:
/// every [`SimFn`] name (its `NAMES` and forms), plus `tfidf`
/// (case-insensitive).
#[derive(Debug, Clone, PartialEq)]
pub enum MatcherSim {
    /// A fixed similarity function.
    Fixed(SimFn),
    /// TF-IDF cosine with the corpus built from both attribute columns at
    /// execution time.
    TfIdf,
}

impl From<SimFn> for MatcherSim {
    fn from(sim: SimFn) -> Self {
        MatcherSim::Fixed(sim)
    }
}

impl FromStr for MatcherSim {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        if s.eq_ignore_ascii_case("tfidf") {
            return Ok(MatcherSim::TfIdf);
        }
        // The refusal lists what `SimFn` accepts, and `tfidf`.
        s.parse()
            .map(MatcherSim::Fixed)
            .map_err(|e: String| match e.strip_suffix(')') {
                Some(listed) => format!("{listed}/tfidf)"),
                None => e,
            })
    }
}

impl fmt::Display for MatcherSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatcherSim::Fixed(sim) => sim.fmt(f),
            MatcherSim::TfIdf => f.write_str("tfidf"),
        }
    }
}

/// Dice bound of the trigram prefix filter under
/// [`Blocking::TrigramPrefix`] when the scoring measure is not trigram
/// Dice: the filter's guarantee does not carry over to other measures,
/// so a conservative bound lets near-matches under e.g. person-name
/// similarity still surface as candidates.
pub(crate) const PREFIX_DICE_FLOOR: f64 = 0.3;

/// One match string, prepared once per match: everything the resolved
/// plan's index and the similarity function derive from a single value.
/// The text itself is not kept — nothing reads it after this.
#[derive(Debug, Clone)]
pub(crate) struct Value {
    /// The gram ids the plan's index stores and is probed with, when it
    /// tokenizes differently from the scorer (the prefix filter's
    /// trigram set); `None`: the index, if any, reads the scorer's
    /// grams (a threshold plan indexes exactly what its measure scores).
    tokens: Option<Box<[u32]>>,
    /// The value as the similarity function scores it.
    scored: Prepared,
}

impl Value {
    /// Prepare `text` for a match scoring with `sim`, indexed (if at
    /// all) by `probe`. Grams become ids of `dict` — one dictionary per
    /// match, shared by both sides. Only the prefix filter indexes other
    /// grams than the scorer's; a threshold plan is resolved for q-gram
    /// measures only, whose scored form is their grams.
    pub(crate) fn prepare(
        text: &str,
        sim: &SimFn,
        probe: Option<Probe>,
        dict: &mut GramDict,
    ) -> Self {
        let scored = sim.prepare(text, dict);
        let prefix = matches!(probe, Some(Probe::Prefix { .. }));
        let tokens = prefix.then(|| Tokens::UniqueTrigrams.intern(text, dict));
        Self { tokens, scored }
    }

    /// Move a value prepared with another dictionary over to the one
    /// that absorbed it (`remap`: old id → new id).
    fn remap(&mut self, remap: &[u32]) {
        // Index tokens of their own are a trigram set in gram order:
        // mapped, not re-sorted.
        for id in self.tokens.iter_mut().flat_map(|tokens| tokens.iter_mut()) {
            *id = remap[*id as usize];
        }
        self.scored.remap_grams(remap);
    }

    /// The gram ids the plan's index stores this value under and probes
    /// for it with.
    pub(crate) fn tokens(&self) -> &[u32] {
        match (&self.tokens, &self.scored) {
            (Some(tokens), _) => tokens,
            (None, Prepared::Grams(grams)) => grams,
            (None, _) => &[],
        }
    }

    /// `sim` of two values prepared for it, `(domain, range)`.
    pub(crate) fn score(sim: &SimFn, d: &Value, r: &Value) -> f64 {
        sim.eval_prepared(&d.scored, &r.scored)
    }
}

/// One string column of a match behind the index its plan calls for.
pub(crate) type StringSide = Side<Value, CandidateIndex>;

/// The candidates of one prepared query value: how the kernel walks a
/// [`StringSide`]'s index.
pub(crate) fn string_candidates(
    index: &CandidateIndex,
    query: &Value,
    scratch: &mut ProbeScratch,
) -> Vec<u32> {
    index.candidates(query.tokens(), scratch)
}

/// What a fixed-measure match ran over, kept by
/// [`AttributeMatcher::prime`]: the gram dictionary of the match, the
/// prepared domain column and the range side.
pub(crate) type MatchedSides = (GramDict, Vec<Option<Value>>, StringSide);

/// Prepare a projected column — every value once, through `prepare` —
/// sharded through `par`, each shard with a gram dictionary of its own,
/// which `dict` — the dictionary of the match — then absorbs, the
/// shard's values moving over to its ids through `remap`. Ids are
/// numbered on first sight in column order, whatever the sharding.
fn prepare_column<T: Send>(
    texts: &[Option<String>],
    dict: &mut GramDict,
    par: &Parallelism,
    prepare: impl Fn(&mut GramDict, &str) -> T + Sync,
    remap: impl Fn(&mut T, &[u32]),
) -> Vec<Option<T>> {
    let shards = par.run_sharded(texts, |chunk| {
        let mut local = GramDict::new();
        let mut value = |t: &String| prepare(&mut local, t);
        let vals: Vec<Option<T>> = chunk.iter().map(|t| t.as_ref().map(&mut value)).collect();
        (local, vals)
    });
    let mut column = Vec::with_capacity(texts.len());
    for (local, mut vals) in shards {
        if dict.is_empty() {
            *dict = local; // the first shard's ids stand as they are
        } else {
            let ids = dict.absorb(local);
            vals.iter_mut().flatten().for_each(|v| remap(v, &ids));
        }
        column.extend(vals);
    }
    column
}

/// Match-string projection of `attr` by arena index; `None` = instance
/// removed or attribute missing.
fn project(lds: &LogicalSource, attr: &str) -> Result<Vec<Option<String>>> {
    let mut vals = vec![None; lds.len()];
    for (i, v) in lds.project(attr)? {
        vals[i as usize] = Some(v.to_match_string());
    }
    Ok(vals)
}

/// Generic single-attribute matcher.
#[derive(Debug, Clone)]
pub struct AttributeMatcher {
    /// Attribute name on the domain LDS.
    pub domain_attr: String,
    /// Attribute name on the range LDS.
    pub range_attr: String,
    /// Similarity function.
    pub sim: MatcherSim,
    /// Result correspondences must reach this similarity.
    pub threshold: f64,
    /// Candidate-generation strategy.
    pub blocking: Blocking,
}

impl AttributeMatcher {
    /// Matcher with the candidate generation its measure calls for:
    /// [`Blocking::Threshold`] where exact bounds exist (the q-gram
    /// family and TF-IDF — results identical to all-pairs scoring, the
    /// threshold pruning candidates before any similarity is computed),
    /// [`Blocking::TrigramPrefix`] for every other measure. Use
    /// [`AttributeMatcher::with_blocking`] to pin a different strategy.
    pub fn new(
        domain_attr: impl Into<String>,
        range_attr: impl Into<String>,
        sim: impl Into<MatcherSim>,
        threshold: f64,
    ) -> Self {
        let sim = sim.into();
        Self {
            domain_attr: domain_attr.into(),
            range_attr: range_attr.into(),
            blocking: Blocking::auto_for(&sim),
            sim,
            threshold,
        }
    }

    /// TF-IDF matcher (corpus from both columns).
    pub fn tfidf(
        domain_attr: impl Into<String>,
        range_attr: impl Into<String>,
        threshold: f64,
    ) -> Self {
        Self::new(domain_attr, range_attr, MatcherSim::TfIdf, threshold)
    }

    /// Pin the candidate-generation strategy (builder style).
    pub fn with_blocking(mut self, blocking: Blocking) -> Self {
        self.blocking = blocking;
        self
    }

    /// Resolve the configured [`Blocking`] against the similarity
    /// function into how the range column is indexed and probed — the
    /// only place the choice is made; everything downstream runs the
    /// resolved probe. `None` means score all pairs.
    ///
    /// * [`Blocking::AllPairs`] scores all pairs.
    /// * TF-IDF with a positive threshold gets the exact weighted-prefix
    ///   probe over cached vectors under either pruning variant (a
    ///   trigram filter says nothing about corpus-weighted cosine; the
    ///   corpus is built from both columns at execution time and frozen
    ///   for the match).
    /// * [`Blocking::TrigramPrefix`] probes the trigram prefix filter at
    ///   the matcher threshold when scoring trigram Dice (exact),
    ///   otherwise at [`PREFIX_DICE_FLOOR`].
    /// * [`Blocking::Threshold`] gives a fixed q-gram measure with a
    ///   positive threshold the exact T-occurrence probe (its measure,
    ///   gram length and threshold baked in).
    /// * Everything else (non-q-gram fixed measures under `Threshold`,
    ///   `t ≤ 0`) scores all pairs — the transparent fallback.
    pub(crate) fn probe(&self) -> Option<Probe> {
        match (self.blocking, &self.sim) {
            (Blocking::AllPairs, _) => None,
            (_, MatcherSim::TfIdf) if self.threshold > 0.0 => Some(Probe::Weighted {
                threshold: self.threshold,
            }),
            (Blocking::TrigramPrefix, MatcherSim::Fixed(sim)) => Some(Probe::Prefix {
                dice_bound: match sim {
                    SimFn::Trigram | SimFn::QgramDice(3) => self.threshold,
                    _ => PREFIX_DICE_FLOOR,
                },
            }),
            (Blocking::Threshold, MatcherSim::Fixed(sim)) if self.threshold > 0.0 => {
                let (measure, q) = qgram_measure_of(sim)?;
                Some(Probe::Threshold {
                    measure,
                    q,
                    threshold: self.threshold,
                })
            }
            _ => None,
        }
    }

    /// Build the index the resolved plan of a fixed measure calls for
    /// over one prepared column's present values (postings sharded
    /// through `par`); `None` means score all pairs.
    pub(crate) fn build_candidate_index(
        &self,
        values: &[(u32, &Value)],
        par: &Parallelism,
    ) -> Option<CandidateIndex> {
        let values = values.iter().map(|(i, v)| (*i, v.tokens())).collect();
        Some(CandidateIndex::build(self.probe()?, values, par))
    }

    /// The full match: project both columns once, put the range column
    /// behind the plan's index, probe every domain value against it.
    /// A fixed measure returns, next to the canonical table, what the
    /// match ran over, so that [`AttributeMatcher::prime`] keeps it
    /// instead of rebuilding.
    ///
    /// A fixed measure prepares every value of both columns once (see
    /// [`Value`]; sharded, all grams ending up as ids of one
    /// [`GramDict`]) and runs the kernel over the prepared values: the
    /// index is built from and probed with their gram ids, the score
    /// reads their prepared form.
    ///
    /// TF-IDF tokenizes both columns into word ids the same way —
    /// sharded, one dictionary per shard, absorbed domain column first —
    /// counts document frequencies over the merged ids, turns every
    /// value's ids into its unit vector (sharded) and runs the same
    /// kernel over the vectors, indexed for the weighted probe; pruned
    /// or not, all scoring goes through [`cosine_vectors`] on those
    /// cached vectors, so the pruned plan is bit-identical to all-pairs
    /// by construction.
    pub(crate) fn full_match(
        &self,
        ctx: &MatchContext<'_>,
        domain: LdsId,
        range: LdsId,
    ) -> Result<(MappingTable, Option<MatchedSides>)> {
        check_threshold(self.threshold)?;
        let par = ctx.parallelism;
        let d_texts = project(ctx.registry.lds(domain), &self.domain_attr)?;
        let r_texts = project(ctx.registry.lds(range), &self.range_attr)?;
        match &self.sim {
            MatcherSim::Fixed(sim) => {
                let mut dict = GramDict::new();
                let probe_plan = self.probe();
                let prepare =
                    |dict: &mut GramDict, t: &str| Value::prepare(t, sim, probe_plan, dict);
                let r_vals = prepare_column(&r_texts, &mut dict, &par, prepare, Value::remap);
                let d_vals = prepare_column(&d_texts, &mut dict, &par, prepare, Value::remap);
                let index = self.build_candidate_index(&present(&r_vals), &par);
                let range = Side {
                    vals: r_vals,
                    index,
                };
                let rows = probe(
                    par,
                    &present(&d_vals),
                    &range,
                    string_candidates,
                    |d, r| Value::score(sim, d, r),
                    self.threshold,
                    false,
                );
                let sides = (dict, d_vals, range);
                Ok((MappingTable::from_rows(rows), Some(sides)))
            }
            MatcherSim::TfIdf => {
                let mut dict = GramDict::new();
                let words = GramDict::intern_word_ids;
                let remap = |ids: &mut Box<[u32]>, to: &[u32]| remap_sorted(ids, to);
                let d_ids = prepare_column(&d_texts, &mut dict, &par, words, remap);
                let r_ids = prepare_column(&r_texts, &mut dict, &par, words, remap);
                let docs = d_ids.iter().chain(&r_ids).flatten().map(|ids| &**ids);
                let corpus = TfIdfCorpus::of_ids(dict, docs);
                let vectorize = |ids: &[Option<Box<[u32]>>]| -> Vec<Option<Vec<(u32, f64)>>> {
                    let vector =
                        |v: &Option<Box<[u32]>>| v.as_ref().map(|v| corpus.vector_of_ids(v));
                    par.run_sharded(ids, |chunk| chunk.iter().map(vector).collect::<Vec<_>>())
                        .concat()
                };
                let d_vecs = vectorize(&d_ids);
                let r_vecs = vectorize(&r_ids);
                let index = self.probe().map(|_| {
                    let vectors = present(&r_vecs).into_iter();
                    let vectors = vectors.map(|(i, v)| (i, v.as_slice()));
                    CandidateIndex::build_weighted(self.threshold, vectors, &par)
                });
                let r_vecs = Side {
                    vals: r_vecs,
                    index,
                };
                let rows = probe(
                    par,
                    &present(&d_vecs),
                    &r_vecs,
                    |index: &CandidateIndex, query: &Vec<(u32, f64)>, ()| {
                        index.vector_candidates(query)
                    },
                    |d, r| cosine_vectors(d, r),
                    self.threshold,
                    false,
                );
                Ok((MappingTable::from_rows(rows), None))
            }
        }
    }
}

impl Matcher for AttributeMatcher {
    fn name(&self) -> String {
        format!(
            "attrMatch({}, {}, {}, {})",
            self.domain_attr, self.range_attr, self.sim, self.threshold
        )
    }

    fn execute(&self, ctx: &MatchContext<'_>, domain: LdsId, range: LdsId) -> Result<Mapping> {
        let (table, _) = self.full_match(ctx, domain, range)?;
        Ok(Mapping::same(self.name(), domain, range, table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use moma_model::{AttrDef, LogicalSource, ObjectType, SourceRegistry};

    fn setup() -> (SourceRegistry, LdsId, LdsId) {
        let mut reg = SourceRegistry::new();
        let mut dblp = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
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
                ("title", "Generic Schema Matching with Cupid".into()),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        dblp.insert_record("d2", vec![("title", "Potter's Wheel".into())])
            .unwrap();
        let mut acm = LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("name"), AttrDef::year("year")],
        );
        acm.insert_record(
            "a0",
            vec![
                (
                    "name",
                    "A formal perspective on the view selection problem.".into(),
                ),
                ("year", 2001u16.into()),
            ],
        )
        .unwrap();
        acm.insert_record(
            "a1",
            vec![
                ("name", "Generic schema matching with CUPID".into()),
                ("year", 2002u16.into()),
            ],
        )
        .unwrap();
        acm.insert_record("a2", vec![("name", "Reference Reconciliation".into())])
            .unwrap();
        let d = reg.register(dblp).unwrap();
        let a = reg.register(acm).unwrap();
        (reg, d, a)
    }

    #[test]
    fn trigram_title_matching() {
        let (reg, d, a) = setup();
        let m = AttributeMatcher::new("title", "name", SimFn::Trigram, 0.8);
        let ctx = MatchContext::new(&reg);
        let result = m.execute(&ctx, d, a).unwrap();
        assert_eq!(result.len(), 2);
        assert!(result.table.sim_of(0, 0).unwrap() >= 0.95);
        assert!(result.table.sim_of(1, 1).unwrap() >= 0.95);
        assert_eq!(result.table.sim_of(2, 2), None);
        assert!(result.kind.is_same());
    }

    #[test]
    fn blocking_matches_allpairs() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let all = AttributeMatcher::new("title", "name", SimFn::Trigram, 0.6)
            .with_blocking(Blocking::AllPairs)
            .execute(&ctx, d, a)
            .unwrap();
        for blocking in [Blocking::TrigramPrefix, Blocking::Threshold] {
            let blocked = AttributeMatcher::new("title", "name", SimFn::Trigram, 0.6)
                .with_blocking(blocking)
                .execute(&ctx, d, a)
                .unwrap();
            assert_eq!(
                all.table.rows(),
                blocked.table.rows(),
                "blocking={blocking:?}"
            );
        }
    }

    #[test]
    fn threshold_blocking_is_default_and_exact_per_measure() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        for sim in [
            SimFn::Trigram,
            SimFn::QgramDice(2),
            SimFn::QgramJaccard(3),
            SimFn::QgramCosine(3),
            SimFn::QgramOverlap(2),
        ] {
            for t in [0.5, 0.8] {
                let default = AttributeMatcher::new("title", "name", sim.clone(), t);
                assert_eq!(default.blocking, Blocking::Threshold);
                assert!(matches!(default.probe(), Some(Probe::Threshold { .. })));
                let exact = default.execute(&ctx, d, a).unwrap();
                let all = AttributeMatcher::new("title", "name", sim.clone(), t)
                    .with_blocking(Blocking::AllPairs)
                    .execute(&ctx, d, a)
                    .unwrap();
                assert_eq!(exact.table.rows(), all.table.rows(), "sim={sim} t={t}");
            }
        }
    }

    #[test]
    fn threshold_blocking_falls_back_transparently() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        // Non-q-gram measure: an explicitly named `Threshold` degrades to
        // all-pairs — identical results, no pruning.
        let jaro = AttributeMatcher::new("title", "name", SimFn::Jaro, 0.9)
            .with_blocking(Blocking::Threshold);
        assert_eq!(jaro.probe(), None);
        let got = jaro.execute(&ctx, d, a).unwrap();
        let want = jaro
            .clone()
            .with_blocking(Blocking::AllPairs)
            .execute(&ctx, d, a)
            .unwrap();
        assert_eq!(got.table.rows(), want.table.rows());
        // TF-IDF: the weighted-prefix bounds are exact — pruned plan.
        let weighted = Some(Probe::Weighted { threshold: 0.6 });
        assert_eq!(
            AttributeMatcher::tfidf("title", "name", 0.6).probe(),
            weighted
        );
        // ...under either pruning variant: a trigram filter says nothing
        // about corpus-weighted cosine, so `TrigramPrefix` resolves to
        // the same exact plan instead of scoring all pairs.
        let prefix_tfidf =
            AttributeMatcher::tfidf("title", "name", 0.6).with_blocking(Blocking::TrigramPrefix);
        assert_eq!(prefix_tfidf.probe(), weighted);
        // A TF-IDF threshold of 0 can prune nothing.
        for blocking in [Blocking::Threshold, Blocking::TrigramPrefix] {
            assert_eq!(
                AttributeMatcher::tfidf("title", "name", 0.0)
                    .with_blocking(blocking)
                    .probe(),
                None
            );
        }
        // Threshold 0 can prune nothing.
        assert_eq!(
            AttributeMatcher::new("title", "name", SimFn::Trigram, 0.0).probe(),
            None
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let (reg, d, a) = setup();
        let seq = AttributeMatcher::new("title", "name", SimFn::Trigram, 0.5)
            .execute(
                &MatchContext::new(&reg).with_parallelism(Parallelism::sequential()),
                d,
                a,
            )
            .unwrap();
        for threads in [1usize, 2, 8] {
            // min_shard_size 1 forces real sharding even on 3 values.
            let ctx = MatchContext::new(&reg)
                .with_parallelism(Parallelism::new(threads).with_min_shard_size(1));
            let par = AttributeMatcher::new("title", "name", SimFn::Trigram, 0.5)
                .execute(&ctx, d, a)
                .unwrap();
            assert_eq!(seq.table.rows(), par.table.rows(), "threads={threads}");
        }
    }

    #[test]
    fn year_matcher_is_low_precision() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let m = AttributeMatcher::new("year", "year", SimFn::Year(0), 1.0);
        let result = m.execute(&ctx, d, a).unwrap();
        // Both 2001 DBLP records match the single 2001 ACM record —
        // year matching alone over-matches (the Table 2 phenomenon).
        assert_eq!(result.len(), 2);
        assert_eq!(result.table.sim_of(0, 0), Some(1.0));
        assert_eq!(result.table.sim_of(1, 0), Some(1.0));
    }

    #[test]
    fn tfidf_matcher() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let m = AttributeMatcher::tfidf("title", "name", 0.6);
        let result = m.execute(&ctx, d, a).unwrap();
        assert!(result.table.sim_of(0, 0).unwrap() > 0.9);
        assert!(result.table.sim_of(1, 1).unwrap() > 0.9);
        assert!(result.table.sim_of(2, 2).is_none());
    }

    #[test]
    fn tfidf_threshold_blocking_matches_allpairs() {
        let (reg, d, a) = setup();
        for t in [0.3, 0.6, 0.9] {
            for threads in [1usize, 8] {
                let ctx = MatchContext::new(&reg)
                    .with_parallelism(Parallelism::new(threads).with_min_shard_size(1));
                let pruned = AttributeMatcher::tfidf("title", "name", t);
                assert_eq!(pruned.probe(), Some(Probe::Weighted { threshold: t }));
                let pruned = pruned.execute(&ctx, d, a).unwrap();
                let all = AttributeMatcher::tfidf("title", "name", t)
                    .with_blocking(Blocking::AllPairs)
                    .execute(&ctx, d, a)
                    .unwrap();
                // Bit-identical, not approximately equal: both plans
                // score through the same cached vectors.
                assert_eq!(pruned.table.rows(), all.table.rows(), "t={t}");
            }
        }
    }

    #[test]
    fn missing_attribute_errors() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        let m = AttributeMatcher::new("venue", "name", SimFn::Trigram, 0.5);
        assert!(m.execute(&ctx, d, a).is_err());
    }

    #[test]
    fn missing_values_skipped() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        // d2 has no year: the year matcher sees only d0, d1.
        let m = AttributeMatcher::new("year", "year", SimFn::Year(1), 0.1);
        let result = m.execute(&ctx, d, a).unwrap();
        assert!(result.table.iter().all(|c| c.domain != 2));
    }

    #[test]
    fn name_mentions_config() {
        let m = AttributeMatcher::new("title", "name", SimFn::Trigram, 0.8);
        assert_eq!(m.name(), "attrMatch(title, name, trigram, 0.8)");
        let m = AttributeMatcher::tfidf("title", "name", 0.5);
        assert_eq!(m.name(), "attrMatch(title, name, tfidf, 0.5)");
    }

    #[test]
    fn matcher_sims_parse_and_print_their_names() {
        for name in [
            "trigram",
            "tfidf",
            "jaro",
            "personname",
            "year:1",
            "qgramjaccard:2",
        ] {
            let sim: MatcherSim = name.parse().unwrap();
            assert_eq!(sim.to_string(), name);
        }
        assert_eq!("TfIdf".parse(), Ok(MatcherSim::TfIdf));
        assert_eq!("NGRAM".parse(), Ok(MatcherSim::Fixed(SimFn::Trigram)));
        let accepted = "trigram/levenshtein/jaro/jarowinkler/tokenjaccard/affix/personname/\
                        qgram:Q≤16/qgramdice:Q≤16/qgramjaccard:Q≤16/qgramcosine:Q≤16/\
                        qgramoverlap:Q≤16/year[:W]/tfidf";
        for bad in ["nosuch", "qgram:0", "year:x", "qgram:17"] {
            let err = bad.parse::<MatcherSim>().unwrap_err();
            assert_eq!(err, format!("unknown similarity `{bad}` ({accepted})"));
        }
    }

    #[test]
    fn the_measure_picks_the_default_blocking() {
        let blocking = |sim: &str| {
            AttributeMatcher::new("t", "t", sim.parse::<MatcherSim>().unwrap(), 0.5).blocking
        };
        for exact in ["trigram", "qgram:2", "qgramjaccard:3", "tfidf"] {
            assert_eq!(blocking(exact), Blocking::Threshold, "{exact}");
        }
        for lossy in ["jaro", "personname", "year:0", "levenshtein"] {
            assert_eq!(blocking(lossy), Blocking::TrigramPrefix, "{lossy}");
        }
    }

    #[test]
    fn thresholds_outside_the_unit_interval_are_refused() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        for t in [-0.1, 1.5, f64::NAN] {
            for m in [
                AttributeMatcher::new("title", "name", SimFn::Trigram, t),
                AttributeMatcher::tfidf("title", "name", t),
            ] {
                let refused = |r: Result<()>| matches!(r, Err(CoreError::InvalidConfig(_)));
                assert!(refused(m.execute(&ctx, d, a).map(drop)), "execute t={t}");
                assert!(refused(m.prime(&ctx, d, a).map(drop)), "prime t={t}");
            }
        }
        for t in [0.0, 1.0] {
            let m = AttributeMatcher::new("title", "name", SimFn::Trigram, t);
            assert!(m.execute(&ctx, d, a).is_ok(), "t={t}");
        }
    }

    #[test]
    fn self_matching_for_duplicates() {
        let (reg, d, _) = setup();
        let ctx = MatchContext::new(&reg);
        let m = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.9);
        let result = m.execute(&ctx, d, d).unwrap();
        // Every instance matches itself.
        for i in 0..3u32 {
            assert_eq!(result.table.sim_of(i, i), Some(1.0));
        }
    }
}
