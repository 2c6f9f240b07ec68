//! The generic attribute matcher (paper Section 2.2).
//!
//! "In our current implementation, we use a generic attribute matcher
//! that is provided with a pair of attributes to be matched, a similarity
//! function to be evaluated (e.g. n-gram, TF/IDF or affix) and a
//! similarity threshold to be exceeded by result correspondences."

use moma_model::LdsId;
use moma_simstring::bounds::{qgram_measure_of, QgramMeasure};
use moma_simstring::tfidf::cosine_vectors;
use moma_simstring::{SimFn, TfIdfCorpus};
use moma_table::{Correspondence, MappingTable};

use crate::blocking::{Blocking, CandidateIndex, TfIdfIndex, ThresholdIndex, TrigramIndex};
use crate::error::Result;
use crate::exec::Parallelism;
use crate::mapping::Mapping;
use crate::matchers::{MatchContext, Matcher};

/// Similarity configuration of an attribute matcher.
#[derive(Debug, Clone, PartialEq)]
pub enum MatcherSim {
    /// A fixed similarity function.
    Fixed(SimFn),
    /// TF-IDF cosine with the corpus built from both attribute columns at
    /// execution time.
    TfIdf,
}

/// The concrete candidate-generation plan a [`Blocking`] choice
/// resolves to for a given matcher configuration (see
/// [`AttributeMatcher::candidate_plan`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CandidatePlan {
    /// Score every pair.
    AllPairs,
    /// Prefix-filtered trigram index probed at a fixed Dice bound.
    Prefix {
        /// Dice bound of every probe (matcher threshold, or
        /// [`PREFIX_DICE_FLOOR`] when the measure is not trigram Dice).
        dice_bound: f64,
    },
    /// Threshold-exact T-occurrence index (matcher threshold baked in).
    Threshold {
        /// The q-gram measure the matcher scores with.
        measure: QgramMeasure,
        /// Gram length.
        q: usize,
    },
    /// Threshold-exact weighted-prefix index over cached TF-IDF vectors
    /// (see [`TfIdfIndex`]); the corpus is built from both columns at
    /// execution time and frozen for the match.
    TfIdf,
}

/// Dice bound of the trigram prefix filter under
/// [`Blocking::TrigramPrefix`] when the scoring measure is not trigram
/// Dice: the filter's guarantee does not carry over to other measures,
/// so a conservative bound lets near-matches under e.g. person-name
/// similarity still surface as candidates.
pub(crate) const PREFIX_DICE_FLOOR: f64 = 0.3;

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
    /// Per-matcher parallelism override; `None` (the default) inherits
    /// the [`MatchContext`]'s configuration.
    pub parallelism: Option<Parallelism>,
}

impl AttributeMatcher {
    /// Matcher with the default threshold-exact candidate generation
    /// ([`Blocking::Threshold`]): results are always identical to
    /// all-pairs scoring, but for q-gram measures the threshold prunes
    /// candidates before any similarity is computed. Use
    /// [`AttributeMatcher::with_blocking`] to pin a different strategy.
    pub fn new(
        domain_attr: impl Into<String>,
        range_attr: impl Into<String>,
        sim: SimFn,
        threshold: f64,
    ) -> Self {
        Self {
            domain_attr: domain_attr.into(),
            range_attr: range_attr.into(),
            sim: MatcherSim::Fixed(sim),
            threshold,
            blocking: Blocking::Threshold,
            parallelism: None,
        }
    }

    /// TF-IDF matcher (corpus from both columns).
    pub fn tfidf(
        domain_attr: impl Into<String>,
        range_attr: impl Into<String>,
        threshold: f64,
    ) -> Self {
        Self {
            domain_attr: domain_attr.into(),
            range_attr: range_attr.into(),
            sim: MatcherSim::TfIdf,
            threshold,
            blocking: Blocking::Threshold,
            parallelism: None,
        }
    }

    /// Pin the candidate-generation strategy (builder style).
    pub fn with_blocking(mut self, blocking: Blocking) -> Self {
        self.blocking = blocking;
        self
    }

    /// Enable or force-disable parallel scoring (builder style):
    /// `true` pins one thread per CPU, `false` pins sequential scoring.
    /// Either value *overrides* the [`MatchContext`] configuration and
    /// with it the `MOMA_THREADS` environment variable — prefer leaving
    /// the matcher untouched and configuring the context instead.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallelism = Some(if parallel {
            Parallelism::auto()
        } else {
            Parallelism::sequential()
        });
        self
    }

    /// Pin an explicit parallelism configuration (builder style).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Dice bound handed to the trigram prefix filter: the matcher
    /// threshold itself when scoring with trigram Dice (exact), otherwise
    /// [`PREFIX_DICE_FLOOR`].
    pub(crate) fn effective_candidate_threshold(&self) -> f64 {
        match &self.sim {
            MatcherSim::Fixed(SimFn::Trigram) | MatcherSim::Fixed(SimFn::QgramDice(3)) => {
                self.threshold
            }
            _ => PREFIX_DICE_FLOOR,
        }
    }

    /// Resolve the configured [`Blocking`] against the similarity
    /// function into the concrete candidate-generation plan. This is
    /// where [`Blocking::Threshold`]'s transparent fallback lives:
    ///
    /// * a fixed q-gram measure with a positive threshold gets the exact
    ///   T-occurrence engine,
    /// * TF-IDF with a positive threshold gets the exact weighted-prefix
    ///   engine over cached vectors,
    /// * everything else (non-q-gram fixed measures, `t ≤ 0`) scores
    ///   all pairs — exactly what [`Blocking::AllPairs`] would do.
    pub(crate) fn candidate_plan(&self) -> CandidatePlan {
        match self.blocking {
            Blocking::AllPairs => CandidatePlan::AllPairs,
            Blocking::TrigramPrefix => CandidatePlan::Prefix {
                dice_bound: self.effective_candidate_threshold(),
            },
            Blocking::Threshold => {
                if self.threshold > 0.0 {
                    match &self.sim {
                        MatcherSim::Fixed(sim) => {
                            if let Some((measure, q)) = qgram_measure_of(sim) {
                                return CandidatePlan::Threshold { measure, q };
                            }
                        }
                        MatcherSim::TfIdf => return CandidatePlan::TfIdf,
                    }
                }
                CandidatePlan::AllPairs
            }
        }
    }

    /// Build the candidate index the plan calls for over one side's
    /// `(instance index, match string)` projection (sharded through
    /// `par`); `None` means score all pairs.
    pub(crate) fn build_candidate_index<V: AsRef<str> + Sync>(
        &self,
        values: &[(u32, V)],
        par: &Parallelism,
    ) -> Option<CandidateIndex> {
        match self.candidate_plan() {
            CandidatePlan::AllPairs => None,
            CandidatePlan::Prefix { dice_bound } => Some(CandidateIndex::Prefix {
                index: TrigramIndex::build_par(values, par),
                dice_bound,
            }),
            CandidatePlan::Threshold { measure, q } => Some(CandidateIndex::Threshold(
                ThresholdIndex::build_par(measure, q, self.threshold, values, par),
            )),
            // The TF-IDF engine indexes cached vectors, not strings — it
            // lives inside the scoring path (see `score_tfidf`), and the
            // delta engine never asks for it (TF-IDF matchers are
            // non-incremental: the corpus shifts under every delta).
            CandidatePlan::TfIdf => None,
        }
    }

    /// Score a prepared candidate list. `domain_vals` / `range_vals` are
    /// `(instance index, match string)` projections. The domain values
    /// are sharded across `par` worker threads; every shard probes the
    /// shared read-only index, and shard outputs are concatenated in
    /// input order, so the result is identical at every thread count.
    fn score(
        &self,
        par: Parallelism,
        domain_vals: &[(u32, String)],
        range_vals: &[(u32, String)],
    ) -> MappingTable {
        let MatcherSim::Fixed(simfn) = &self.sim else {
            return self.score_tfidf(par, domain_vals, range_vals);
        };
        let score_one = |a: &str, b: &str| -> f64 { simfn.eval(a, b) };

        // Candidate index (per the resolved plan), built sharded.
        let index = self.build_candidate_index(range_vals, &par);
        // Position lookup for blocked mode: instance index -> slice pos.
        let pos_of: moma_table::FxHashMap<u32, usize> = match index {
            Some(_) => range_vals
                .iter()
                .enumerate()
                .map(|(p, (i, _))| (*i, p))
                .collect(),
            None => Default::default(),
        };

        let score_chunk = |chunk: &[(u32, String)]| -> Vec<Correspondence> {
            let mut out = Vec::new();
            for (d_idx, d_val) in chunk {
                match &index {
                    None => {
                        for (r_idx, r_val) in range_vals {
                            let s = score_one(d_val, r_val);
                            if s >= self.threshold {
                                out.push(Correspondence::new(*d_idx, *r_idx, s));
                            }
                        }
                    }
                    Some(idx) => {
                        for cand in idx.candidates(d_val) {
                            let (r_idx, r_val) = &range_vals[pos_of[&cand]];
                            let s = score_one(d_val, r_val);
                            if s >= self.threshold {
                                out.push(Correspondence::new(*d_idx, *r_idx, s));
                            }
                        }
                    }
                }
            }
            out
        };

        let mut rows = Vec::new();
        for shard in par.run_sharded(domain_vals, score_chunk) {
            rows.extend(shard);
        }
        MappingTable::from_rows(rows)
    }

    /// TF-IDF scoring over cached vectors. The corpus is built from both
    /// columns, every value's unit vector is computed once (sharded
    /// across `par`), and *all* scoring — pruned or not — runs through
    /// [`cosine_vectors`] on those cached vectors, so the pruned plan is
    /// bit-identical to all-pairs by construction. Under
    /// [`CandidatePlan::TfIdf`] the range vectors are additionally
    /// indexed in a [`TfIdfIndex`] keyed by range *position*, and each
    /// domain vector scores only its weighted-prefix candidates.
    fn score_tfidf(
        &self,
        par: Parallelism,
        domain_vals: &[(u32, String)],
        range_vals: &[(u32, String)],
    ) -> MappingTable {
        let mut corpus = TfIdfCorpus::new();
        for (_, v) in domain_vals.iter().chain(range_vals.iter()) {
            corpus.add_document(v);
        }
        // Cache every value's unit vector (the expensive tokenization +
        // weighting pass), preserving input order across shards.
        let vectorize = |vals: &[(u32, String)]| -> Vec<(u32, Vec<(u32, f64)>)> {
            let mut out = Vec::with_capacity(vals.len());
            for shard in par.run_sharded(vals, |chunk| {
                chunk
                    .iter()
                    .map(|(i, v)| (*i, corpus.vector(v)))
                    .collect::<Vec<_>>()
            }) {
                out.extend(shard);
            }
            out
        };
        let d_items = vectorize(domain_vals);
        let r_items = vectorize(range_vals);

        let index = match self.candidate_plan() {
            CandidatePlan::TfIdf => Some(TfIdfIndex::build(
                self.threshold,
                r_items
                    .iter()
                    .enumerate()
                    .map(|(p, (_, v))| (p as u32, v.as_slice())),
            )),
            _ => None,
        };

        let score_chunk = |chunk: &[(u32, Vec<(u32, f64)>)]| -> Vec<Correspondence> {
            let mut out = Vec::new();
            for (d_idx, d_vec) in chunk {
                match &index {
                    None => {
                        for (r_idx, r_vec) in &r_items {
                            let s = cosine_vectors(d_vec, r_vec);
                            if s >= self.threshold {
                                out.push(Correspondence::new(*d_idx, *r_idx, s));
                            }
                        }
                    }
                    Some(idx) => {
                        for p in idx.candidates(d_vec) {
                            let (r_idx, r_vec) = &r_items[p as usize];
                            let s = cosine_vectors(d_vec, r_vec);
                            if s >= self.threshold {
                                out.push(Correspondence::new(*d_idx, *r_idx, s));
                            }
                        }
                    }
                }
            }
            out
        };

        let mut rows = Vec::new();
        for shard in par.run_sharded(&d_items, score_chunk) {
            rows.extend(shard);
        }
        MappingTable::from_rows(rows)
    }
}

impl Matcher for AttributeMatcher {
    fn name(&self) -> String {
        let sim = match &self.sim {
            MatcherSim::Fixed(f) => f.name(),
            MatcherSim::TfIdf => "tfidf".into(),
        };
        format!(
            "attrMatch({}, {}, {sim}, {})",
            self.domain_attr, self.range_attr, self.threshold
        )
    }

    fn execute(&self, ctx: &MatchContext<'_>, domain: LdsId, range: LdsId) -> Result<Mapping> {
        let d_lds = ctx.registry.lds(domain);
        let r_lds = ctx.registry.lds(range);
        let d_vals: Vec<(u32, String)> = d_lds
            .project(&self.domain_attr)?
            .into_iter()
            .map(|(i, v)| (i, v.to_match_string()))
            .collect();
        let r_vals: Vec<(u32, String)> = r_lds
            .project(&self.range_attr)?
            .into_iter()
            .map(|(i, v)| (i, v.to_match_string()))
            .collect();
        let par = self.parallelism.unwrap_or(ctx.parallelism);
        let table = self.score(par, &d_vals, &r_vals);
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
                assert!(matches!(
                    default.candidate_plan(),
                    CandidatePlan::Threshold { .. }
                ));
                let exact = default.execute(&ctx, d, a).unwrap();
                let all = AttributeMatcher::new("title", "name", sim.clone(), t)
                    .with_blocking(Blocking::AllPairs)
                    .execute(&ctx, d, a)
                    .unwrap();
                assert_eq!(
                    exact.table.rows(),
                    all.table.rows(),
                    "sim={} t={t}",
                    sim.name()
                );
            }
        }
    }

    #[test]
    fn threshold_blocking_falls_back_transparently() {
        let (reg, d, a) = setup();
        let ctx = MatchContext::new(&reg);
        // Non-q-gram measure: plan degrades to all-pairs — identical
        // results, no pruning.
        let jaro = AttributeMatcher::new("title", "name", SimFn::Jaro, 0.9);
        assert_eq!(jaro.candidate_plan(), CandidatePlan::AllPairs);
        let got = jaro.execute(&ctx, d, a).unwrap();
        let want = jaro
            .clone()
            .with_blocking(Blocking::AllPairs)
            .execute(&ctx, d, a)
            .unwrap();
        assert_eq!(got.table.rows(), want.table.rows());
        // TF-IDF: the weighted-prefix bounds are exact — pruned plan.
        assert_eq!(
            AttributeMatcher::tfidf("title", "name", 0.6).candidate_plan(),
            CandidatePlan::TfIdf
        );
        // ...but a TF-IDF threshold of 0 can prune nothing.
        assert_eq!(
            AttributeMatcher::tfidf("title", "name", 0.0).candidate_plan(),
            CandidatePlan::AllPairs
        );
        // Threshold 0 can prune nothing.
        assert_eq!(
            AttributeMatcher::new("title", "name", SimFn::Trigram, 0.0).candidate_plan(),
            CandidatePlan::AllPairs
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
        // The legacy builder toggle still routes through the same engine.
        let via_builder = AttributeMatcher::new("title", "name", SimFn::Trigram, 0.5)
            .with_parallel(true)
            .execute(&MatchContext::new(&reg), d, a)
            .unwrap();
        assert_eq!(seq.table.rows(), via_builder.table.rows());
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
                assert_eq!(pruned.candidate_plan(), CandidatePlan::TfIdf);
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
