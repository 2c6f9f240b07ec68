//! TF-IDF weighted cosine similarity.
//!
//! One of the three similarity functions the paper names for the generic
//! attribute matcher (Section 2.2). Weights are learned from a corpus —
//! typically the union of both attribute columns being matched — so that
//! frequent tokens ("the", "conference", "data") contribute little and
//! rare tokens dominate.
//!
//! Tokens are word ids of a [`GramDict`] — the dictionary type every
//! match tokenizes through, here holding only words — and vectors are
//! sorted `(token id, weight)` pairs, so a cosine evaluation is a linear
//! merge over two sorted slices — no per-call `String`-keyed maps.
//! Callers that score one value many times (the attribute matcher)
//! cache the [`TfIdfCorpus::vector`] output per value and combine them
//! with [`cosine_vectors`] directly; both paths run the *same* merge
//! arithmetic, which is what lets threshold pruning in `moma-core`
//! promise bit-identical scores to all-pairs evaluation. Vector entries
//! and norms add up in token-id order, so the numbering — first sight,
//! the words of one value in string order — is part of every score's
//! last bits.

use moma_table::FxHashMap;

use crate::normalize::normalize;
use crate::tokenize::{words, GramDict, UNKNOWN_GRAM};

/// A token-frequency corpus providing IDF weights.
#[derive(Debug, Clone, Default)]
pub struct TfIdfCorpus {
    /// Word ↔ dense token id; `doc_freq[id]` is its df.
    tokens: GramDict,
    doc_freq: Vec<u32>,
    docs: u32,
}

impl TfIdfCorpus {
    /// Empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a corpus from an iterator of documents.
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a str>) -> Self {
        let mut c = Self::new();
        for d in docs {
            c.add_document(d);
        }
        c
    }

    /// The corpus of documents already tokenized through `tokens`
    /// ([`GramDict::intern_word_ids`]; sorted ids, one per occurrence) —
    /// how a match that tokenized its columns in shards, each with a
    /// dictionary of its own absorbed into `tokens`, counts document
    /// frequencies after the merge.
    pub fn of_ids<'a>(tokens: GramDict, docs: impl IntoIterator<Item = &'a [u32]>) -> Self {
        let mut c = Self {
            tokens,
            ..Self::default()
        };
        for ids in docs {
            c.count(ids);
        }
        c
    }

    /// Add one document's tokens to the document-frequency table.
    pub fn add_document(&mut self, doc: &str) {
        let ids = self.tokens.intern_word_ids(doc);
        self.count(&ids);
    }

    /// Count one document's sorted token ids into the frequencies.
    fn count(&mut self, ids: &[u32]) {
        self.docs += 1;
        self.doc_freq.resize(self.tokens.len(), 0);
        for (i, &id) in ids.iter().enumerate() {
            if i == 0 || ids[i - 1] != id {
                self.doc_freq[id as usize] += 1;
            }
        }
    }

    /// Number of documents.
    pub fn doc_count(&self) -> u32 {
        self.docs
    }

    /// Number of distinct corpus tokens: ids below it are corpus tokens.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// Smoothed inverse document frequency of a token:
    /// `ln(1 + N / (1 + df))`.
    pub fn idf(&self, token: &str) -> f64 {
        self.idf_by_id(self.tokens.lookup_word(token))
    }

    /// Smoothed idf by token id (df 0 for out-of-corpus ids).
    pub fn idf_by_id(&self, id: u32) -> f64 {
        let df = self.doc_freq.get(id as usize).copied().unwrap_or(0);
        (1.0 + self.docs as f64 / (1.0 + df as f64)).ln()
    }

    /// TF-IDF vector of a string (term frequency × idf), L2-normalized,
    /// as `(token id, weight)` pairs sorted by token id. Out-of-corpus
    /// tokens carry the unseen-token idf under the id [`UNKNOWN_GRAM`],
    /// which [`dot`] never matches: they are never shared between
    /// separate `vector` calls (inside one [`TfIdfCorpus::cosine`] the
    /// two sides do share them).
    pub fn vector(&self, s: &str) -> Vec<(u32, f64)> {
        let mut vector = self.vector_with(s, &mut FxHashMap::default());
        for (id, _) in &mut vector {
            if *id as usize >= self.token_count() {
                *id = UNKNOWN_GRAM;
            }
        }
        vector
    }

    /// As [`TfIdfCorpus::vector`], with out-of-corpus tokens numbered
    /// from [`TfIdfCorpus::token_count`] up as drawn from (and recorded
    /// in) `extra`, so multiple strings in one scoring call agree on
    /// them.
    fn vector_with(&self, s: &str, extra: &mut FxHashMap<String, u32>) -> Vec<(u32, f64)> {
        let next = self.token_count();
        let mut id = |word: &str| match self.tokens.lookup_word(word) {
            UNKNOWN_GRAM => {
                let fresh = (next + extra.len()) as u32;
                *extra.entry(word.to_owned()).or_insert(fresh)
            }
            id => id,
        };
        let text = normalize(s);
        let mut ids: Vec<u32> = text
            .split(' ')
            .filter(|w| !w.is_empty())
            .map(&mut id)
            .collect();
        ids.sort_unstable();
        self.vector_of_ids(&ids)
    }

    /// The L2-normalized TF-IDF vector of a value given its sorted token
    /// ids, one per occurrence (see [`GramDict::intern_word_ids`]).
    pub fn vector_of_ids(&self, ids: &[u32]) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = Vec::with_capacity(ids.len());
        let mut norm = 0.0;
        let mut i = 0;
        while i < ids.len() {
            let id = ids[i];
            let mut count = 0u32;
            while i < ids.len() && ids[i] == id {
                count += 1;
                i += 1;
            }
            let w = count as f64 * self.idf_by_id(id);
            norm += w * w;
            out.push((id, w));
        }
        let norm = norm.sqrt();
        if norm > 0.0 {
            for (_, w) in &mut out {
                *w /= norm;
            }
        }
        out
    }

    /// TF-IDF cosine similarity between two strings.
    pub fn cosine(&self, a: &str, b: &str) -> f64 {
        let mut extra = FxHashMap::default();
        let va = self.vector_with(a, &mut extra);
        if va.is_empty() {
            return if words(b).is_empty() { 1.0 } else { 0.0 };
        }
        let vb = self.vector_with(b, &mut extra);
        if vb.is_empty() {
            return 0.0;
        }
        dot(&va, &vb).clamp(0.0, 1.0)
    }
}

/// Dot product of two id-sorted sparse vectors — a linear merge. The
/// out-of-corpus id [`UNKNOWN_GRAM`] matches nothing, itself included.
pub fn dot(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut acc = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i].0 != UNKNOWN_GRAM {
                    acc += a[i].1 * b[j].1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Cosine of two cached unit vectors from the *same* corpus and token
/// numbering, with the empty-value edges of [`TfIdfCorpus::cosine`]:
/// two empty vectors (token-free values) score 1.0, one empty scores
/// 0.0. The attribute matcher evaluates every pair — pruned or not —
/// through this one function.
pub fn cosine_vectors(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    if a.is_empty() {
        return if b.is_empty() { 1.0 } else { 0.0 };
    }
    if b.is_empty() {
        return 0.0;
    }
    dot(a, b).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> TfIdfCorpus {
        TfIdfCorpus::build([
            "a formal perspective on the view selection problem",
            "generic schema matching with cupid",
            "the merge purge problem for large databases",
            "robust and efficient fuzzy match for online data cleaning",
            "data cleaning problems and current approaches",
        ])
    }

    #[test]
    fn identical_docs_cosine_one() {
        let c = corpus();
        let s = c.cosine(
            "generic schema matching with cupid",
            "generic schema matching with cupid",
        );
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_docs_cosine_zero() {
        let c = corpus();
        assert_eq!(c.cosine("cupid", "fuzzy"), 0.0);
    }

    #[test]
    fn rare_terms_dominate() {
        let c = corpus();
        // "cupid" is rare, "the" is frequent: sharing the rare term scores
        // higher than sharing the frequent one.
        let rare = c.cosine("cupid system", "cupid engine");
        let common = c.cosine("the system", "the engine");
        assert!(rare > common, "rare {rare} <= common {common}");
    }

    #[test]
    fn idf_monotone_in_rarity() {
        let c = corpus();
        assert!(c.idf("cupid") > c.idf("the"));
        assert!(c.idf("unseen-token") >= c.idf("cupid"));
    }

    #[test]
    fn empty_strings() {
        let c = corpus();
        assert_eq!(c.cosine("", ""), 1.0);
        assert_eq!(c.cosine("", "cupid"), 0.0);
        assert_eq!(c.cosine("cupid", ""), 0.0);
    }

    #[test]
    fn doc_count_tracks() {
        let c = corpus();
        assert_eq!(c.doc_count(), 5);
    }

    #[test]
    fn vector_is_normalized_and_sorted() {
        let c = corpus();
        let v = c.vector("generic schema matching");
        let norm: f64 = v.iter().map(|(_, w)| w * w).sum();
        assert!((norm - 1.0).abs() < 1e-9);
        assert!(v.windows(2).all(|w| w[0].0 < w[1].0), "ids not sorted");
        // All corpus tokens resolve to in-corpus handles.
        assert!(v.iter().all(|&(id, _)| (id as usize) < c.token_count()));
    }

    #[test]
    fn unknown_tokens_shared_within_one_cosine() {
        let c = corpus();
        // "zzz" is out of corpus on both sides: still a perfect match
        // when both sides are the same unknown-token string.
        assert!((c.cosine("zzz", "zzz") - 1.0).abs() < 1e-9);
        // Shared unknown token contributes; disjoint unknowns score 0.
        assert!(c.cosine("zzz cupid", "zzz engine") > 0.0);
        assert_eq!(c.cosine("zzz", "yyy"), 0.0);
    }

    #[test]
    fn separate_vectors_share_no_out_of_corpus_token() {
        let c = TfIdfCorpus::build(["a b c", "b c d"]);
        for (a, b) in [("zzz", "yyy"), ("a zzz", "a yyy")] {
            let (va, vb) = (c.vector(a), c.vector(b));
            assert_eq!(cosine_vectors(&va, &vb), c.cosine(a, b), "{a} / {b}");
        }
        // An unknown word keeps its weight in the norm, nothing else.
        let v = c.vector("a zzz");
        assert_eq!(v.last().map(|e| e.0), Some(UNKNOWN_GRAM));
        assert_eq!(cosine_vectors(&v, &c.vector("a")), c.cosine("a zzz", "a"));
        assert!(cosine_vectors(&v, &v) < 1.0);
    }

    #[test]
    fn cached_vectors_reproduce_cosine() {
        let c = corpus();
        let values = [
            "generic schema matching with cupid",
            "data cleaning problems",
            "",
            "the view selection problem",
        ];
        let vecs: Vec<_> = values.iter().map(|v| c.vector(v)).collect();
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                assert_eq!(
                    cosine_vectors(&vecs[i], &vecs[j]),
                    c.cosine(a, b),
                    "({a}, {b})"
                );
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cosine_range_and_symmetry(
            a in "[a-z]{1,8}( [a-z]{1,8}){0,4}",
            b in "[a-z]{1,8}( [a-z]{1,8}){0,4}",
        ) {
            let c = TfIdfCorpus::build([a.as_str(), b.as_str(), "common background text"]);
            let s1 = c.cosine(&a, &b);
            let s2 = c.cosine(&b, &a);
            prop_assert!((s1 - s2).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&s1));
            prop_assert!(c.cosine(&a, &a) > 0.999);
        }

        /// Separately built vectors score what one `cosine` call scores
        /// whenever the two strings share no out-of-corpus word: the
        /// unknown words of separate calls never meet.
        #[test]
        fn separate_vectors_match_cosine_without_shared_unknown_words(
            docs in prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,3}", 1..6),
            picks in prop::collection::vec((0usize..64, 0u8..2), 0..8),
            unknown_a in prop::collection::vec("[w-x]{4,6}", 0..3),
            unknown_b in prop::collection::vec("[y-z]{4,6}", 0..3),
        ) {
            let c = TfIdfCorpus::build(docs.iter().map(|s| s.as_str()));
            let corpus_words: Vec<String> = docs.iter().flat_map(|d| words(d)).collect();
            // Corpus words dealt to either side, each side's unknown words
            // from an alphabet of its own.
            let mut sides = [unknown_a, unknown_b];
            for (p, side) in picks {
                sides[side as usize].push(corpus_words[p % corpus_words.len()].clone());
            }
            let [a, b] = sides.map(|w| w.join(" "));
            prop_assert_eq!(cosine_vectors(&c.vector(&a), &c.vector(&b)), c.cosine(&a, &b));
        }

        /// Cached corpus vectors score every pair exactly like the
        /// string-level path — the identity the matcher's cached-vector
        /// scoring relies on.
        #[test]
        fn cached_vectors_match_string_path(
            docs in prop::collection::vec("[a-d]{1,4}( [a-d]{1,4}){0,3}", 2..8),
        ) {
            let c = TfIdfCorpus::build(docs.iter().map(|s| s.as_str()));
            let vecs: Vec<_> = docs.iter().map(|d| c.vector(d)).collect();
            for (i, a) in docs.iter().enumerate() {
                for (j, b) in docs.iter().enumerate() {
                    prop_assert_eq!(cosine_vectors(&vecs[i], &vecs[j]), c.cosine(a, b));
                }
            }
        }
    }
}
