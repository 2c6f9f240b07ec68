//! Candidate generation (blocking) for attribute matchers.
//!
//! Matching large web sources all-pairs is quadratic — the paper's own
//! Google Scholar dataset has 64k entries. This module owns MOMA's
//! candidate generators: **one index, three probes**. Every plan that
//! prunes stores its values in the one maintained inverted index
//! ([`moma_table::GramIndex`]) under **ids** of one [`GramDict`] — a
//! value is tokenized once, and build, maintenance and probe all take
//! its id list — and differs from the others only in its tokenizer and
//! in how it probes:
//!
//! * **Prefix-filtered trigram blocking** ([`Blocking::TrigramPrefix`]):
//!   range values are indexed by their *set* of character trigrams; a
//!   domain value probes only its rarest trigrams
//!   ([`moma_table::GramIndex::rarest_union`]), whose number is derived
//!   from the similarity threshold so that any range value whose
//!   trigram-set Dice clears the threshold must share at least one
//!   probed gram (standard prefix-filtering argument, transferred from
//!   Jaccard to Dice via `t_j = t_d / (2 - t_d)`). Cheap, exact for
//!   values without repeated trigrams, and usable as a lossy pre-filter
//!   for *non*-trigram measures via a conservative Dice floor.
//! * **Threshold-exact blocking** ([`Blocking::Threshold`]): the
//!   SimString/CPMerge *T-occurrence* engine. Values are tokenized into
//!   their q-gram multiset with every repeat of a gram under an id of
//!   its own (so the scoring multisets become sets without losing
//!   multiplicities); a probe ([`moma_table::GramIndex::candidates`])
//!   applies the exact per-measure size window and minimum-overlap
//!   bounds of [`moma_simstring::bounds`] *before* any similarity is
//!   computed. The candidate set provably contains every pair reaching
//!   the matcher's threshold — and typically almost nothing else, so
//!   the scoring stage runs on a fraction of the prefix filter's
//!   candidates.
//! * **Weighted-prefix TF-IDF blocking** (the third probe, behind
//!   [`TfIdfIndex`]): the max-weight prefix filter of
//!   [`moma_simstring::wbounds`] over cached TF-IDF unit vectors. Values
//!   are indexed under their word-token ids (the "grams" of a TF-IDF
//!   match's dictionary), their token count as the size and their
//!   largest weight kept beside the index; a probe unions the postings
//!   of only its heaviest tokens — the minimal descending-weight prefix
//!   whose squared mass reaches `1 − t²` — at sizes inside the exact size
//!   window ([`moma_table::GramIndex::union`]), and screens each posting
//!   against the exact minimum-shared-token bound. Lossless like the
//!   T-occurrence engine: matcher results are bit-identical to all-pairs
//!   scoring. It is built per match and never patched (the corpus shifts
//!   under every delta).
//!
//! The generators come at two levels. The matchers hold
//! [`CandidateIndex`]es: one dictionary per match tokenizes the values
//! of *both* sides, every value keeps its ids, and index and probe never
//! see a string. [`TrigramIndex`] and [`ThresholdIndex`] are the same
//! postings and the same two string probes behind a string interface
//! for everyone else: each owns a dictionary, interns what it indexes
//! and looks a probe value up read-only; [`TfIdfIndex`] is the weighted
//! probe behind cached vectors.
//!
//! Posting storage, tombstoned removal and amortized compaction live in
//! `moma-table`; this module owns tokenization and the threshold
//! arithmetic.
//!
//! ## Read-only shared-index probing
//!
//! A built index is immutable through `&self`: every probe method only
//! reads the postings, so one index can be probed concurrently from any
//! number of matcher worker threads without locks (the index types are
//! `Send + Sync`; the working memory of a T-occurrence probe is the
//! caller's [`ProbeScratch`], one per worker). This is exactly how the
//! parallel attribute matchers use it — the range side is indexed once,
//! then the domain values are sharded across threads (see
//! [`crate::exec`]) and each shard probes the shared index
//! independently. Because probing never mutates, the per-shard
//! candidate sets — and hence the concatenated result — are
//! bit-identical to a sequential run.
//!
//! ## Incremental maintenance
//!
//! A [`CandidateIndex`] need not be rebuilt when its values change: the
//! [`GramIndex`] it dereferences to is patched in place with the ids the
//! values carry — `insert`, `remove` (tombstone) and `replace` (surgical
//! posting swap). [`crate::delta`]'s incremental matching does so
//! lazily, replaying a side's changes only when a probe is about to read
//! that side. Removal leaves dead posting entries behind until the
//! [`GramIndex`] compacts; probes filter them, so candidate sets are
//! always tombstone-exact. [`TrigramIndex`], [`ThresholdIndex`] and
//! [`TfIdfIndex`] are built once and only probed.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::str::FromStr;

use moma_simstring::bounds::{qgram_measure_of, QgramMeasure};
use moma_simstring::tokenize::UNKNOWN_GRAM;
use moma_simstring::{wbounds, GramDict};
use moma_table::exec::Parallelism;
use moma_table::names::{parse_name, print_name};
use moma_table::{GramIndex, ProbeScratch};

use crate::matchers::MatcherSim;

/// The two tokenizers a string index can sit behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tokens {
    /// The value's set of padded character trigrams, in gram order
    /// (prefix filter; the order is its frequency tie-break).
    UniqueTrigrams,
    /// The value's padded q-gram multiset, one id per occurrence, sorted
    /// (T-occurrence engine, and what the q-gram measures score).
    TaggedQgrams(usize),
}

impl Tokens {
    /// Tokenize a value that is stored or indexed: its grams get ids.
    pub(crate) fn intern(self, value: &str, dict: &mut GramDict) -> Box<[u32]> {
        match self {
            Tokens::UniqueTrigrams => dict.intern_qgram_set_ids(value, 3),
            Tokens::TaggedQgrams(q) => dict.intern_qgram_ids(value, q),
        }
    }

    /// Tokenize a value that only probes: the dictionary is left alone.
    fn lookup(self, value: &str, dict: &GramDict) -> Vec<u32> {
        match self {
            Tokens::UniqueTrigrams => dict.lookup_qgram_set_ids(value, 3),
            Tokens::TaggedQgrams(q) => dict.lookup_qgram_ids(value, q),
        }
    }
}

/// Build a [`GramIndex`] over `(id, gram ids)` values by sharding them
/// across threads: each shard builds a private index, and the shards
/// are merged in shard order. The values are fed in `(size, id)` order —
/// the order of the posting keys — so every insert appends and every
/// shard's postings lie above the previous shard's. The result is
/// observationally identical to a sequential build in any order.
fn build_grams(mut values: Vec<(u32, &[u32])>, par: &Parallelism) -> GramIndex {
    values.sort_unstable_by_key(|&(id, grams)| (grams.len(), id));
    let mut parts = par
        .run_sharded(&values, |shard| {
            let mut part = GramIndex::new();
            for &(id, grams) in shard {
                part.insert(id, grams);
            }
            part
        })
        .into_iter();
    let mut merged = parts.next().unwrap_or_default();
    for part in parts {
        merged.absorb(part);
    }
    merged
}

/// The prefix-filter probe: candidate ids for a query's trigram-set ids
/// (in gram order) under Dice threshold `dice_threshold` — the union of
/// the postings of the query's rarest `k = |G| − ⌈t_j·|G|⌉ + 1` grams
/// (`t_j` the Jaccard equivalent): a value reaching the threshold shares
/// at least `⌈t_j·|G|⌉` of the query's `|G|` grams, so it cannot miss
/// all `k`.
///
/// A query producing no trigrams returns exactly the indexed values
/// that also produced none: two empty gram multisets are identical
/// (trigram Dice 1.0), so those — and only those — can clear any
/// threshold.
fn prefix_probe(index: &GramIndex, query: &[u32], dice_threshold: f64) -> Vec<u32> {
    if query.is_empty() {
        return index.gramless_ids();
    }
    let n = query.len();
    let t_d = dice_threshold.clamp(0.0, 1.0);
    // ⌈t_j·n⌉ is the low end of the Dice size window (a match is at
    // least as large as its overlap), computed there with the
    // epsilon guard that keeps `(1 − t_j)·n = 1.9999999999999996`
    // from costing a gram.
    let must_share = if t_d > 0.0 {
        QgramMeasure::Dice.size_window(t_d, n).0
    } else {
        1
    };
    index.rarest_union(query, n - must_share + 1)
}

/// The T-occurrence probe: candidate ids for a query's occurrence-tagged
/// q-gram ids under `measure` at `threshold` — every live value whose
/// similarity to the query reaches the threshold (plus only such
/// near-misses as also clear the exact count bound). A gramless query
/// returns exactly the gramless values — the only ones it can match
/// (similarity 1.0).
fn threshold_probe(
    index: &GramIndex,
    query: &[u32],
    measure: QgramMeasure,
    threshold: f64,
    scratch: &mut ProbeScratch,
) -> Vec<u32> {
    if query.is_empty() {
        return if threshold <= 1.0 {
            index.gramless_ids()
        } else {
            Vec::new()
        };
    }
    let x = query.len();
    let (lo, hi) = measure.size_window(threshold, x);
    if lo > hi {
        return Vec::new();
    }
    let clamp = |s: usize| s.min(u32::MAX as usize) as u32;
    let min_overlap = |size: u32| clamp(measure.min_overlap(threshold, x, size as usize));
    index.candidates(query, clamp(lo), clamp(hi), &min_overlap, scratch)
}

/// A [`GramIndex`] behind its own gram dictionary and the tokenizer
/// that feeds it: the string-level build half of both index families,
/// which differ only in how they tokenize and probe. It is built once
/// and only probed; [`TrigramIndex`] and [`ThresholdIndex`] dereference
/// to it, so `index.len()` works on both.
#[derive(Debug, Clone)]
pub struct TokenIndex {
    dict: GramDict,
    tokens: Tokens,
    grams: GramIndex,
}

impl TokenIndex {
    /// Index `values`: tokenize them in order (one dictionary), then
    /// build the postings sharded through `par`.
    fn build<'a>(
        tokens: Tokens,
        values: impl IntoIterator<Item = (u32, &'a str)>,
        par: &Parallelism,
    ) -> Self {
        let mut dict = GramDict::new();
        let ids: Vec<(u32, Box<[u32]>)> = values
            .into_iter()
            .map(|(id, value)| (id, tokens.intern(value, &mut dict)))
            .collect();
        Self {
            grams: build_grams(ids.iter().map(|(id, g)| (*id, &**g)).collect(), par),
            dict,
            tokens,
        }
    }

    /// Whether `id` is indexed and not removed.
    pub fn is_live(&self, id: u32) -> bool {
        self.grams.is_live(id)
    }

    /// Number of live indexed *values* (not postings): every indexed
    /// `(id, value)` pair counts once, including values that yield no
    /// grams and can therefore only be returned to a gramless query.
    pub fn len(&self) -> usize {
        self.grams.len()
    }

    /// Whether no values are indexed. Note an index built only from
    /// gramless values (e.g. empty strings) is *not* empty by this
    /// definition even though its postings are.
    pub fn is_empty(&self) -> bool {
        self.grams.is_empty()
    }
}

/// Inverted trigram index over a set of `(id, value)` pairs, probed with
/// the prefix filter.
#[derive(Debug, Clone)]
pub struct TrigramIndex(TokenIndex);

impl Deref for TrigramIndex {
    type Target = TokenIndex;
    fn deref(&self) -> &TokenIndex {
        &self.0
    }
}

impl TrigramIndex {
    /// Build the index.
    pub fn build<'a>(values: impl IntoIterator<Item = (u32, &'a str)>) -> Self {
        let par = Parallelism::sequential();
        Self(TokenIndex::build(Tokens::UniqueTrigrams, values, &par))
    }

    /// Build the index with its postings sharded across threads
    /// (observationally identical to [`TrigramIndex::build`]).
    pub fn build_par<V: AsRef<str> + Sync>(values: &[(u32, V)], par: &Parallelism) -> Self {
        let values = values.iter().map(|(id, v)| (*id, v.as_ref()));
        Self(TokenIndex::build(Tokens::UniqueTrigrams, values, par))
    }

    /// Candidate range ids (sorted) for `query` under Dice threshold
    /// `dice_threshold`: the union of the postings of the query's
    /// rarest trigrams, as many as the threshold demands; a query
    /// without trigrams gets the values without trigrams.
    pub fn candidates(&self, query: &str, dice_threshold: f64) -> Vec<u32> {
        let query = self.0.tokens.lookup(query, &self.0.dict);
        prefix_probe(&self.0.grams, &query, dice_threshold)
    }
}

/// Index over values tokenized as occurrence-tagged q-grams, probed
/// with the exact threshold bounds of a fixed
/// [`QgramMeasure`] — the *T-occurrence*
/// candidate engine behind [`Blocking::Threshold`].
///
/// The measure, gram length `q` and similarity threshold are baked in
/// at construction: every probe applies
/// [`QgramMeasure::size_window`] to restrict the size buckets consulted
/// and [`QgramMeasure::min_overlap`] as the per-candidate count filter,
/// so [`ThresholdIndex::candidates`] returns a (typically tight)
/// superset of exactly the values whose similarity to the query reaches
/// the threshold — **no true match is ever pruned**. Like
/// [`TrigramIndex`] it is read-only-probeable from any number of
/// threads.
#[derive(Debug, Clone)]
pub struct ThresholdIndex {
    index: TokenIndex,
    measure: QgramMeasure,
    threshold: f64,
}

impl Deref for ThresholdIndex {
    type Target = TokenIndex;
    fn deref(&self) -> &TokenIndex {
        &self.index
    }
}

impl ThresholdIndex {
    fn over(index: TokenIndex, measure: QgramMeasure, threshold: f64) -> Self {
        debug_assert!(threshold > 0.0, "threshold blocking needs t > 0");
        Self {
            index,
            measure,
            threshold,
        }
    }

    /// Build the index for `measure` over `q`-grams (`q` ≥ 1) at
    /// `threshold` (> 0 — at 0 nothing can be pruned and the caller
    /// should not block).
    pub fn build<'a>(
        measure: QgramMeasure,
        q: usize,
        threshold: f64,
        values: impl IntoIterator<Item = (u32, &'a str)>,
    ) -> Self {
        let par = Parallelism::sequential();
        let index = TokenIndex::build(Tokens::TaggedQgrams(q), values, &par);
        Self::over(index, measure, threshold)
    }

    /// Build the index with its postings sharded across threads
    /// (observationally identical to [`ThresholdIndex::build`]).
    pub fn build_par<V: AsRef<str> + Sync>(
        measure: QgramMeasure,
        q: usize,
        threshold: f64,
        values: &[(u32, V)],
        par: &Parallelism,
    ) -> Self {
        let values = values.iter().map(|(id, v)| (*id, v.as_ref()));
        let index = TokenIndex::build(Tokens::TaggedQgrams(q), values, par);
        Self::over(index, measure, threshold)
    }

    /// Candidate ids (sorted) for `query`: every live value whose
    /// similarity to `query` under the index's measure reaches the
    /// index's threshold is returned (plus only such near-misses as
    /// also clear the exact count bound). A gramless query returns
    /// exactly the gramless values — the only ones it can match
    /// (similarity 1.0).
    pub fn candidates(&self, query: &str) -> Vec<u32> {
        let query = self.index.tokens.lookup(query, &self.index.dict);
        let mut scratch = ProbeScratch::default();
        let grams = &self.index.grams;
        threshold_probe(grams, &query, self.measure, self.threshold, &mut scratch)
    }
}

/// The weighted-prefix probe: candidate ids for a TF-IDF unit vector
/// under cosine threshold `threshold` — the postings of the query's
/// heaviest tokens (the minimal prefix [`wbounds::min_prefix_len`]
/// demands, weight ties broken by token id so probes are
/// deterministic), at sizes from [`wbounds::size_window`]'s low end up,
/// each screened against [`wbounds::min_shared_tokens`] with the
/// candidate's largest weight (`max_weight`, by value id). All three
/// bounds are exact (no false dismissals — see the `wbounds` property
/// tests). An empty query returns exactly the token-free values — the
/// only ones it can match (cosine 1.0).
fn weighted_probe(
    index: &GramIndex,
    max_weight: &[f64],
    query: &[(u32, f64)],
    threshold: f64,
) -> Vec<u32> {
    if query.is_empty() {
        return if threshold <= 1.0 {
            index.gramless_ids()
        } else {
            Vec::new()
        };
    }
    let mut by_weight: Vec<(f64, u32)> = query.iter().map(|&(id, w)| (w, id)).collect();
    by_weight.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let weights: Vec<f64> = by_weight.iter().map(|e| e.0).collect();
    let prefix = &by_weight[..wbounds::min_prefix_len(&weights, threshold)];
    let prefix: Vec<u32> = prefix.iter().map(|e| e.1).collect();
    let max_query = weights[0];
    let lo = wbounds::size_window(threshold, max_query).0;
    // Shared tokens are capped by both vector lengths.
    let keep = |size: u32, id: u32| {
        let need = wbounds::min_shared_tokens(threshold, max_query, max_weight[id as usize]);
        (size as usize).min(query.len()) >= need
    };
    index.union(&prefix, lo.min(u32::MAX as usize) as u32, keep)
}

/// How a [`CandidateIndex`] tokenizes and probes, parameters baked in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Probe {
    /// Prefix-filtered trigram sets probed at a fixed Dice bound (the
    /// matcher threshold when scoring trigram Dice, or a conservative
    /// floor for other measures — lossy by design).
    Prefix {
        /// Dice bound every probe uses.
        dice_bound: f64,
    },
    /// Threshold-exact T-occurrence probe of `measure` over `q`-grams.
    Threshold {
        /// The q-gram measure the bounds are exact for.
        measure: QgramMeasure,
        /// Gram length.
        q: usize,
        /// Similarity threshold the bounds are computed at (> 0).
        threshold: f64,
    },
    /// Weighted-prefix probe of TF-IDF cosine over cached unit vectors
    /// of one frozen corpus, indexed by word-token id.
    Weighted {
        /// Cosine threshold the bounds are computed at (> 0).
        threshold: f64,
    },
}

/// A built candidate index over gram *ids*, with its probe parameters
/// baked in — what a resolved candidate plan puts in front of one side
/// of a match (a plan that scores all pairs puts nothing there). The
/// match kernel probes it for full execution and for delta patches
/// alike; the sides of a [`crate::delta::DeltaMatchState`] bring theirs
/// up to date, before a probe reads it, through the [`GramIndex`] it
/// dereferences to, with the ids of the match's one dictionary.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    grams: GramIndex,
    probe: Probe,
    /// Largest weight of each indexed vector by value id: what the
    /// weighted probe's shared-token screen reads (empty under the
    /// string probes).
    max_weight: Vec<f64>,
}

impl Deref for CandidateIndex {
    type Target = GramIndex;
    fn deref(&self) -> &GramIndex {
        &self.grams
    }
}

impl DerefMut for CandidateIndex {
    fn deref_mut(&mut self) -> &mut GramIndex {
        &mut self.grams
    }
}

impl CandidateIndex {
    /// Index `(id, gram ids)` values for the prefix or threshold probe —
    /// trigram sets under [`Probe::Prefix`], the tagged q-grams the
    /// measure scores under [`Probe::Threshold`] — with the postings
    /// sharded through `par`.
    pub(crate) fn build(probe: Probe, values: Vec<(u32, &[u32])>, par: &Parallelism) -> Self {
        Self {
            grams: build_grams(values, par),
            probe,
            max_weight: Vec::new(),
        }
    }

    /// Index `(id, unit vector)` pairs of one frozen TF-IDF corpus (ids
    /// distinct) for the weighted probe at `threshold`, with the
    /// postings sharded through `par`. A vector is posted under its
    /// token ids, its token count the size; an out-of-corpus token
    /// ([`UNKNOWN_GRAM`], shared with nothing) is not posted, which only
    /// tightens the size and shared-token bounds.
    pub(crate) fn build_weighted<'a>(
        threshold: f64,
        vectors: impl IntoIterator<Item = (u32, &'a [(u32, f64)])>,
        par: &Parallelism,
    ) -> Self {
        let mut max_weight = Vec::new();
        // Every vector's posted tokens back to back, and where each lies.
        let (mut tokens, mut spans) = (Vec::new(), Vec::new());
        for (id, vector) in vectors {
            if id as usize >= max_weight.len() {
                max_weight.resize(id as usize + 1, 0.0);
            }
            max_weight[id as usize] = vector.iter().map(|e| e.1).fold(0.0, f64::max);
            let start = tokens.len();
            tokens.extend(vector.iter().map(|e| e.0).filter(|&t| t != UNKNOWN_GRAM));
            spans.push((id, start..tokens.len()));
        }
        let values = spans.iter().map(|(id, span)| (*id, &tokens[span.clone()]));
        Self {
            grams: build_grams(values.collect(), par),
            probe: Probe::Weighted { threshold },
            max_weight,
        }
    }

    /// Candidate ids (sorted) for one probe value's gram ids under the
    /// prefix or threshold probe.
    pub(crate) fn candidates(&self, query: &[u32], scratch: &mut ProbeScratch) -> Vec<u32> {
        match self.probe {
            Probe::Prefix { dice_bound } => prefix_probe(&self.grams, query, dice_bound),
            Probe::Threshold {
                measure, threshold, ..
            } => threshold_probe(&self.grams, query, measure, threshold, scratch),
            Probe::Weighted { .. } => panic!("a weighted index is probed with a vector"),
        }
    }

    /// Candidate ids (sorted) for one TF-IDF unit vector under the
    /// weighted probe.
    pub(crate) fn vector_candidates(&self, query: &[(u32, f64)]) -> Vec<u32> {
        let Probe::Weighted { threshold } = self.probe else {
            panic!("only a weighted index is probed with a vector")
        };
        weighted_probe(&self.grams, &self.max_weight, query, threshold)
    }
}

/// Weighted-prefix candidate index for TF-IDF cosine — the exact
/// `Blocking::Threshold` engine for corpus-weighted scoring: a
/// [`CandidateIndex`] under the weighted probe, built over the *cached
/// unit vectors* ([`moma_simstring::TfIdfCorpus::vector`]) of the range
/// side, with the corpus frozen for the duration of the match. It owns
/// no corpus and no strings.
///
/// [`TfIdfIndex::candidates`] returns a superset of exactly the vectors
/// whose cosine with the query reaches the threshold (see
/// [`Blocking::Threshold`]), so scoring the candidates reproduces
/// all-pairs results bit-identically. The index is build-and-probe
/// only: its vectors must come from one frozen corpus, and when the
/// corpus changes (document frequencies shift under every delta) every
/// vector does — which is why the delta engine treats TF-IDF matchers as
/// non-incremental and re-matches.
#[derive(Debug, Clone)]
pub struct TfIdfIndex(CandidateIndex);

impl Deref for TfIdfIndex {
    type Target = CandidateIndex;
    fn deref(&self) -> &CandidateIndex {
        &self.0
    }
}

impl TfIdfIndex {
    /// Build from `(id, cached vector)` pairs with distinct ids, pruning
    /// for TF-IDF cosine at `threshold` (> 0 — at 0 nothing can be
    /// pruned and the caller should score all pairs).
    pub fn build<'a>(
        threshold: f64,
        vectors: impl IntoIterator<Item = (u32, &'a [(u32, f64)])>,
    ) -> Self {
        debug_assert!(threshold > 0.0, "TF-IDF blocking needs t > 0");
        let par = Parallelism::sequential();
        Self(CandidateIndex::build_weighted(threshold, vectors, &par))
    }

    /// Candidate ids (sorted) for a query vector: every indexed vector
    /// whose cosine with `query` reaches the index threshold is returned
    /// (plus only such near-misses as also clear the exact weighted
    /// bounds). An empty query returns exactly the empty-vector values —
    /// the only ones it can match (cosine 1.0).
    pub fn candidates(&self, query: &[(u32, f64)]) -> Vec<u32> {
        self.0.vector_candidates(query)
    }
}

/// Candidate-generation strategy of an attribute matcher. A matcher's
/// default is a rule over its measure ([`AttributeMatcher::new`]):
/// [`Blocking::Threshold`] where exact bounds exist, otherwise
/// [`Blocking::TrigramPrefix`].
///
/// [`AttributeMatcher::new`]: crate::matchers::AttributeMatcher::new
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// Score every domain×range pair. Exact, quadratic.
    AllPairs,
    /// Prefix-filtered trigram blocking (see module docs); the default
    /// for measures outside the q-gram family and TF-IDF. For
    /// trigram-Dice scoring it is exact on values without repeated
    /// trigrams; the filter reasons over trigram *sets* while the scorer
    /// counts multisets, so repeat-heavy pairs can be dismissed
    /// (`"caccccc"` / `"ccccc"` score 0.75 and are missed at 0.75). Lossy
    /// by design (conservative Dice floor) for other measures; orders of
    /// magnitude fewer comparisons than all-pairs.
    TrigramPrefix,
    /// Threshold-exact blocking, the default where it is exact: for q-gram measures
    /// (trigram Dice, `qgram:*`, `qgramjaccard:*`, `qgramcosine:*`,
    /// `qgramoverlap:*`) the matcher threshold itself prunes candidates
    /// *before* scoring via the T-occurrence engine, and for TF-IDF
    /// cosine via the weighted-prefix engine ([`TfIdfIndex`]) — zero
    /// loss of matches either way. For every other configuration —
    /// non-q-gram fixed measures or a threshold of 0, where no sound
    /// bound exists — it transparently falls back to all-pairs. Matcher
    /// results under this variant are therefore always identical to
    /// [`Blocking::AllPairs`].
    Threshold,
}

impl Blocking {
    /// The default of a matcher scoring with `sim`:
    /// [`Blocking::Threshold`] when exact bounds apply (the q-gram
    /// family and TF-IDF), otherwise [`Blocking::TrigramPrefix`] (lossy
    /// floor-based pruning — speed over exactness for the other
    /// measures).
    pub(crate) fn auto_for(sim: &MatcherSim) -> Blocking {
        match sim {
            MatcherSim::Fixed(f) if qgram_measure_of(f).is_none() => Blocking::TrigramPrefix,
            _ => Blocking::Threshold,
        }
    }

    /// Accepted spellings (see [`crate::ops`]): what a logged `match`
    /// request's `blocking` field may carry.
    pub const NAMES: &'static [(&'static str, Blocking)] = &[
        ("all-pairs", Blocking::AllPairs),
        ("allpairs", Blocking::AllPairs),
        ("trigram-prefix", Blocking::TrigramPrefix),
        ("trigramprefix", Blocking::TrigramPrefix),
        ("prefix", Blocking::TrigramPrefix),
        ("threshold", Blocking::Threshold),
    ];
}

impl FromStr for Blocking {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        parse_name(Self::NAMES, &[], "blocking", s)
    }
}

impl fmt::Display for Blocking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(print_name(Self::NAMES, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_simstring::ngram::trigram;

    pub(super) fn titles() -> Vec<(u32, &'static str)> {
        vec![
            (0, "A formal perspective on the view selection problem"),
            (1, "Generic Schema Matching with Cupid"),
            (2, "Potter's Wheel: An Interactive Data Cleaning System"),
            (
                3,
                "Robust and Efficient Fuzzy Match for Online Data Cleaning",
            ),
            (4, "A formal perspective on the view selection problem."),
        ]
    }

    #[test]
    fn identical_value_is_candidate() {
        let idx = TrigramIndex::build(titles());
        let c = idx.candidates("A formal perspective on the view selection problem", 0.8);
        assert!(c.contains(&0));
        assert!(c.contains(&4));
    }

    #[test]
    fn typo_variant_is_candidate() {
        let idx = TrigramIndex::build(titles());
        let c = idx.candidates("Generic Schema Matchng with Cupid", 0.8);
        assert!(c.contains(&1));
    }

    #[test]
    fn blocking_recall_vs_allpairs() {
        // Every pair above the threshold must be generated as a candidate.
        let data = titles();
        let idx = TrigramIndex::build(data.clone());
        let threshold = 0.5;
        for (_, q) in &data {
            let cands = idx.candidates(q, threshold);
            for (id, v) in &data {
                if trigram(q, v) >= threshold {
                    assert!(cands.contains(id), "missed {v} for query {q}");
                }
            }
        }
    }

    #[test]
    fn unrelated_value_can_be_pruned() {
        let idx = TrigramIndex::build(titles());
        let c = idx.candidates("zzzz qqqq xxxx", 0.8);
        assert!(c.is_empty());
    }

    #[test]
    fn empty_query_no_candidates() {
        let idx = TrigramIndex::build(titles());
        assert!(idx.candidates("", 0.5).is_empty());
        assert!(idx.candidates("!!", 0.5).is_empty());
    }

    #[test]
    fn prefix_length_survives_float_rounding() {
        // Trigram Dice of "bcbc" {##b #bc bcb cbc bc# c##} and "bc"
        // {##b #bc bc# c##} is exactly 2·4/(6+4) = 0.8. At t = 0.8 the
        // six-gram query needs k = 6 − ⌈(2/3)·6⌉ + 1 = 3 probed grams;
        // (1 − t_j)·6 evaluates to 1.9999999999999996, and flooring that
        // probed only {bcb, cbc} — both absent from "bc".
        for (long, short) in [("bcbc", "bc"), (" dbdb", " db")] {
            assert_eq!(trigram(long, short), 0.8);
            let idx = TrigramIndex::build([(0, short)]);
            assert!(idx.candidates(long, 0.8).contains(&0), "{long} / {short}");
            let idx = TrigramIndex::build([(0, long)]);
            assert!(idx.candidates(short, 0.8).contains(&0), "{short} / {long}");
        }
    }

    #[test]
    fn len_counts_values_not_postings() {
        // Two values share every trigram; postings are per-gram lists,
        // but len()/is_empty() count indexed *values*.
        let idx = TrigramIndex::build([(0, "abc"), (1, "abc")]);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
        assert_eq!(idx.candidates("abc", 1.0).len(), 2);
    }

    #[test]
    fn empty_string_values_are_counted_but_never_candidates() {
        // "" and "!!" normalize to nothing: no trigrams, so they can
        // never be candidates — but they are still indexed values.
        let idx = TrigramIndex::build([(0, ""), (1, "!!"), (2, "data")]);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        assert!(idx.is_live(0) && idx.is_live(1) && idx.is_live(2));
        // Probing anything never surfaces the gram-less values.
        for t in [0.3, 0.8] {
            assert!(!idx.candidates("data", t).contains(&0));
            assert!(!idx.candidates("data", t).contains(&1));
        }
        // An index of only gram-less values: non-empty by len, empty postings.
        let gramless = TrigramIndex::build([(7, "")]);
        assert_eq!(gramless.len(), 1);
        assert!(!gramless.is_empty());
        assert!(gramless.candidates("anything", 0.5).is_empty());
    }

    #[test]
    fn short_values_get_padded_trigrams() {
        // Values shorter than 3 chars still produce padded grams
        // ("a" -> ##a, #a#, a## ; "ab" -> ##a, #ab, ab#, b##), so they
        // are reachable candidates — the <3-char edge of `trigrams`.
        let idx = TrigramIndex::build([(0, "a"), (1, "ab")]);
        assert_eq!(idx.len(), 2);
        assert!(idx.candidates("a", 0.9).contains(&0));
        assert!(idx.candidates("ab", 0.9).contains(&1));
        // Both hold "##a": a probe over all of "a"'s grams reaches both.
        assert_eq!(idx.candidates("a", 0.0).len(), 2);
    }

    #[test]
    fn parallel_build_is_identical() {
        let data = titles();
        let with_edges: Vec<(u32, &str)> = data
            .iter()
            .copied()
            .chain([(90, ""), (91, "ab"), (92, "!!")])
            .collect();
        let seq = TrigramIndex::build(with_edges.iter().copied());
        for threads in [1usize, 2, 8] {
            let par = Parallelism::new(threads).with_min_shard_size(1);
            let p = TrigramIndex::build_par(&with_edges, &par);
            assert_eq!(p.len(), seq.len(), "threads={threads}");
            // Same postings: the same candidate set for every probe, at
            // prefix lengths from one gram to all of them.
            for (id, v) in &with_edges {
                assert!(p.is_live(*id));
                for t in [0.0, 0.5, 0.9, 1.0] {
                    assert_eq!(
                        p.candidates(v, t),
                        seq.candidates(v, t),
                        "probe {v} t={t} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn lower_threshold_probes_more() {
        let idx = TrigramIndex::build(titles());
        let tight = idx.candidates("data cleaning", 0.9);
        let loose = idx.candidates("data cleaning", 0.3);
        assert!(loose.len() >= tight.len());
        // Both "data cleaning" titles reachable at a loose threshold.
        assert!(loose.contains(&2) && loose.contains(&3));
    }
}

#[cfg(test)]
mod threshold_tests {
    use super::*;
    use moma_simstring::ngram::{qgram_cosine, qgram_dice, qgram_jaccard, qgram_overlap};
    use moma_simstring::SimFn;

    fn eval(m: QgramMeasure, a: &str, b: &str, q: usize) -> f64 {
        match m {
            QgramMeasure::Dice => qgram_dice(a, b, q),
            QgramMeasure::Jaccard => qgram_jaccard(a, b, q),
            QgramMeasure::Cosine => qgram_cosine(a, b, q),
            QgramMeasure::Overlap => qgram_overlap(a, b, q),
        }
    }

    #[test]
    fn titles_threshold_probe_is_exact_superset() {
        let data = super::tests::titles();
        for m in moma_simstring::bounds::ALL_MEASURES {
            for t in [0.5, 0.8] {
                let idx = ThresholdIndex::build(m, 3, t, data.iter().copied());
                for (_, q) in &data {
                    let cands = idx.candidates(q);
                    for (id, v) in &data {
                        if eval(m, q, v, 3) >= t {
                            assert!(cands.contains(id), "{m:?} t={t}: missed `{v}` for `{q}`");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prunes_more_than_prefix_filter_here() {
        // Not a theorem, but on this data the exact filter is strictly
        // tighter than the prefix union for a selective probe.
        let data = super::tests::titles();
        let prefix = TrigramIndex::build(data.iter().copied());
        let exact = ThresholdIndex::build(QgramMeasure::Dice, 3, 0.8, data.iter().copied());
        let q = "A formal perspective on the view selection problem";
        assert!(exact.candidates(q).len() <= prefix.candidates(q, 0.8).len());
        // The unrelated probe is pruned to nothing by both.
        assert!(exact.candidates("zzzz qqqq xxxx").is_empty());
    }

    #[test]
    fn gramless_query_matches_gramless_values_only() {
        let idx = ThresholdIndex::build(
            QgramMeasure::Dice,
            3,
            0.7,
            [(0, ""), (1, "!!"), (2, "data")],
        );
        // "" and "!!" normalize to no grams: they match each other at
        // similarity 1.0 and nothing else.
        for q in ["", "?!"] {
            let c = idx.candidates(q);
            assert_eq!(c, [0, 1]);
        }
        assert!(!idx.candidates("data").contains(&0));
        assert!(idx.candidates("data").contains(&2));
    }

    #[test]
    fn parallel_build_is_identical() {
        let data: Vec<(u32, &str)> = super::tests::titles()
            .into_iter()
            .chain([(90, ""), (91, "ab"), (92, "!!")])
            .collect();
        let seq = ThresholdIndex::build(QgramMeasure::Jaccard, 3, 0.4, data.iter().copied());
        for threads in [1usize, 2, 8] {
            let par = Parallelism::new(threads).with_min_shard_size(1);
            let p = ThresholdIndex::build_par(QgramMeasure::Jaccard, 3, 0.4, &data, &par);
            assert_eq!(p.len(), seq.len(), "threads={threads}");
            for (_, v) in &data {
                assert_eq!(p.candidates(v), seq.candidates(v), "probe {v}");
            }
        }
    }

    #[test]
    fn candidate_index_runs_on_the_ids_of_one_dictionary() {
        let data = super::tests::titles();
        let q = "A formal perspective on the view selection problem";
        for (probe, tokens) in [
            (Probe::Prefix { dice_bound: 0.6 }, Tokens::UniqueTrigrams),
            (
                Probe::Threshold {
                    measure: QgramMeasure::Dice,
                    q: 3,
                    threshold: 0.6,
                },
                Tokens::TaggedQgrams(3),
            ),
        ] {
            let mut dict = GramDict::new();
            let mut ids = |v: &str| tokens.intern(v, &mut dict);
            let values: Vec<(u32, Box<[u32]>)> = data.iter().map(|(i, v)| (*i, ids(v))).collect();
            let values: Vec<(u32, &[u32])> = values.iter().map(|(i, g)| (*i, &**g)).collect();
            let par = Parallelism::new(2).with_min_shard_size(1);
            let mut idx = CandidateIndex::build(probe, values, &par);
            let mut scratch = ProbeScratch::default();
            let (query, other) = (ids(q), ids("something else entirely"));
            assert!(idx.candidates(&query, &mut scratch).contains(&0));
            assert!(idx.remove(0));
            assert!(!idx.candidates(&query, &mut scratch).contains(&0));
            assert!(idx.insert(0, &query));
            assert!(idx.replace(0, &query, &other));
            assert!(!idx.candidates(&query, &mut scratch).contains(&0));
            assert_eq!(idx.candidates(&other, &mut scratch), [0]);
            assert!(scratch.is_clean());
        }
    }

    #[test]
    fn a_value_with_more_grams_than_a_narrow_counter_holds_is_found() {
        // 70 002 tagged trigrams: the probe counts in `u32`, so the only
        // value that shares them all is still found at t = 1.
        let huge = "a".repeat(70_000);
        let idx = ThresholdIndex::build(QgramMeasure::Dice, 3, 1.0, [(0, huge.as_str()), (1, "a")]);
        assert_eq!(idx.candidates(&huge), [0]);
    }

    #[test]
    fn blocking_helpers() {
        let auto = |sim| Blocking::auto_for(&MatcherSim::Fixed(sim));
        assert_eq!(auto(SimFn::Trigram), Blocking::Threshold);
        assert_eq!(auto(SimFn::QgramJaccard(2)), Blocking::Threshold);
        assert_eq!(auto(SimFn::Jaro), Blocking::TrigramPrefix);
        assert_eq!(Blocking::auto_for(&MatcherSim::TfIdf), Blocking::Threshold);
        assert_eq!("threshold".parse(), Ok(Blocking::Threshold));
        assert_eq!("ALL-PAIRS".parse(), Ok(Blocking::AllPairs));
        assert_eq!("prefix".parse(), Ok(Blocking::TrigramPrefix));
        let refused = "nope".parse::<Blocking>().unwrap_err();
        assert_eq!(
            refused,
            "unknown blocking `nope` (all-pairs/trigram-prefix/threshold)"
        );
    }
}

#[cfg(test)]
mod tfidf_tests {
    use super::*;
    use moma_simstring::tfidf::cosine_vectors;
    use moma_simstring::TfIdfCorpus;
    use proptest::prelude::*;

    fn corpus_and_vectors(values: &[(u32, &str)]) -> (TfIdfCorpus, Vec<(u32, Vec<(u32, f64)>)>) {
        let corpus = TfIdfCorpus::build(values.iter().map(|(_, v)| *v));
        let vecs = values
            .iter()
            .map(|&(id, v)| (id, corpus.vector(v)))
            .collect();
        (corpus, vecs)
    }

    fn build(threshold: f64, vecs: &[(u32, Vec<(u32, f64)>)]) -> TfIdfIndex {
        TfIdfIndex::build(threshold, vecs.iter().map(|(id, v)| (*id, v.as_slice())))
    }

    #[test]
    fn probe_is_exact_superset() {
        let data = super::tests::titles();
        let (corpus, vecs) = corpus_and_vectors(&data);
        for t in [0.3, 0.6, 0.9] {
            let idx = build(t, &vecs);
            assert_eq!(idx.len(), data.len());
            for (_, q) in &data {
                let qv = corpus.vector(q);
                let cands = idx.candidates(&qv);
                for (id, v) in &data {
                    if corpus.cosine(q, v) >= t {
                        assert!(cands.contains(id), "t={t}: missed `{v}` for `{q}`");
                    }
                }
            }
        }
    }

    proptest! {
        /// The weighted probe is exact where weight order is not
        /// document-frequency order: words repeat inside a value, so a
        /// `tf > 1` token can be a value's heaviest without being its
        /// rarest. Candidates come sorted and duplicate-free, hold every
        /// value whose cosine reaches `t`, and a token-free query gets
        /// exactly the token-free values.
        #[test]
        fn weighted_probe_is_exact_where_weight_order_is_not_rarity(
            values in prop::collection::vec("([a-d]{1,2}( [a-d]{1,2}){0,5})?", 1..14),
            t in 0.01f64..=1.0,
        ) {
            let data: Vec<(u32, &str)> =
                values.iter().enumerate().map(|(i, v)| (i as u32, v.as_str())).collect();
            let (corpus, vecs) = corpus_and_vectors(&data);
            let idx = build(t, &vecs);
            let token_free: Vec<u32> =
                vecs.iter().filter(|(_, v)| v.is_empty()).map(|(id, _)| *id).collect();
            for (_, q) in &data {
                let qv = corpus.vector(q);
                let cands = idx.candidates(&qv);
                prop_assert!(cands.windows(2).all(|w| w[0] < w[1]), "{:?}", cands);
                for (id, v) in &vecs {
                    let s = cosine_vectors(&qv, v);
                    prop_assert!(s < t || cands.contains(id),
                        "t={}: missed {} (cos {}) for `{}`", t, id, s, q);
                }
                if qv.is_empty() {
                    prop_assert_eq!(&cands, &token_free);
                }
            }
        }
    }

    #[test]
    fn prefix_prunes_unrelated_probes() {
        let data = super::tests::titles();
        let (corpus, vecs) = corpus_and_vectors(&data);
        let idx = build(0.8, &vecs);
        // A query sharing no token with any title is pruned to nothing.
        let qv = corpus.vector("zzzz qqqq xxxx");
        assert!(idx.candidates(&qv).is_empty());
        // A selective probe returns fewer ids than the population.
        let qv = corpus.vector("Generic Schema Matching with Cupid");
        let c = idx.candidates(&qv);
        assert!(c.contains(&1));
        assert!(c.len() < data.len());
    }

    #[test]
    fn empty_vectors_match_each_other_only() {
        let values = [(0u32, ""), (1, "!!"), (2, "data cleaning")];
        let (corpus, vecs) = corpus_and_vectors(&values);
        let idx = build(0.7, &vecs);
        assert_eq!(idx.len(), 3);
        // "" and "!!" tokenize to nothing: cosine 1.0 with each other.
        assert_eq!(idx.candidates(&corpus.vector("?!")), [0, 1]);
        assert!(!idx.candidates(&corpus.vector("data cleaning")).contains(&0));
    }

    #[test]
    fn cached_vectors_score_like_strings() {
        // The identity the matcher relies on: screening + scoring over
        // cached vectors reproduces the string-level cosine exactly.
        let data = super::tests::titles();
        let (corpus, vecs) = corpus_and_vectors(&data);
        for (i, (_, a)) in data.iter().enumerate() {
            for (j, (_, b)) in data.iter().enumerate() {
                assert_eq!(cosine_vectors(&vecs[i].1, &vecs[j].1), corpus.cosine(a, b));
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use moma_simstring::ngram::trigram;
    use proptest::prelude::*;

    proptest! {
        /// Prefix filtering must never lose a pair whose Dice similarity
        /// clears the threshold.
        #[test]
        fn no_false_dismissals(
            values in prop::collection::vec("[a-d][a-d ]{2,11}", 1..20),
            query in "[a-d][a-d ]{2,11}",
            t in 0.4f64..0.95,
        ) {
            let idx = TrigramIndex::build(
                values.iter().enumerate().map(|(i, v)| (i as u32, v.as_str())),
            );
            let cands = idx.candidates(&query, t);
            for (i, v) in values.iter().enumerate() {
                if trigram(&query, v) >= t {
                    prop_assert!(cands.contains(&(i as u32)),
                        "missed `{}` for `{}` at t={}", v, query, t);
                }
            }
        }

        /// The T-occurrence engine makes the same promise for all four
        /// q-gram measures — including repeat-heavy strings where the
        /// multiset/set distinction matters — and additionally generates
        /// nothing outside the exact count criterion (verified against
        /// direct scoring).
        #[test]
        fn threshold_index_no_false_dismissals(
            values in prop::collection::vec("[a-c][a-c ]{0,11}", 1..20),
            query in "[a-c][a-c ]{0,11}",
            t in 0.3f64..=1.0,
            q in 2usize..4,
        ) {
            use moma_simstring::ngram::{qgram_cosine, qgram_dice, qgram_jaccard, qgram_overlap};
            for m in moma_simstring::bounds::ALL_MEASURES {
                let idx = ThresholdIndex::build(
                    m, q, t,
                    values.iter().enumerate().map(|(i, v)| (i as u32, v.as_str())),
                );
                let cands = idx.candidates(&query);
                for (i, v) in values.iter().enumerate() {
                    let s = match m {
                        QgramMeasure::Dice => qgram_dice(&query, v, q),
                        QgramMeasure::Jaccard => qgram_jaccard(&query, v, q),
                        QgramMeasure::Cosine => qgram_cosine(&query, v, q),
                        QgramMeasure::Overlap => qgram_overlap(&query, v, q),
                    };
                    if s >= t {
                        prop_assert!(cands.contains(&(i as u32)),
                            "{:?} q={} t={}: missed `{}` (sim {}) for `{}`", m, q, t, v, s, query);
                    }
                }
            }
        }
    }
}
