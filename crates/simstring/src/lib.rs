//! # moma-simstring — similarity measures for object matching
//!
//! MOMA's generic attribute matcher "is provided with a pair of attributes
//! to be matched, a similarity function to be evaluated (e.g. n-gram,
//! TF/IDF or affix) and a similarity threshold" (paper Section 2.2). This
//! crate implements that similarity-function library from scratch:
//!
//! * [`edit`] — Levenshtein and Damerau–Levenshtein distances with
//!   normalized similarities,
//! * [`jaro`] — Jaro and Jaro–Winkler,
//! * [`ngram`] — character q-gram profiles; the *trigram* (Dice) metric
//!   the paper's evaluation uses throughout Section 5,
//! * [`token`] — token-set measures (Jaccard, Dice, overlap, cosine) and
//!   Monge–Elkan with a secondary measure,
//! * [`tfidf`] — corpus-weighted TF-IDF cosine similarity,
//! * [`affix`] — common prefix/suffix similarity,
//! * [`phonetic`] — Soundex and an initials-aware person-name measure
//!   (Google Scholar "reduces authors' first names to their first letter",
//!   Section 5.4.3),
//! * [`numeric`] — year/number proximity,
//! * [`bounds`] — exact threshold bounds (size windows, minimum shared
//!   grams) for the q-gram measures, powering candidate pruning in
//!   `moma-core`,
//! * [`wbounds`] — the weighted (max-weight prefix filter) counterparts
//!   for TF-IDF cosine, powering the exact `Threshold` plan for the
//!   paper's bibliographic workload,
//! * [`normalize`] / [`tokenize`] — shared preprocessing,
//! * [`registry`] — a name-indexed registry ([`SimFn`]) so workflows,
//!   scripts and the self-tuner can select measures dynamically.
//!
//! All similarities return values in `[0, 1]` with `1` meaning equality;
//! property tests assert range, symmetry and identity laws.

pub mod affix;
pub mod bounds;
pub mod edit;
pub mod jaro;
pub mod ngram;
pub mod normalize;
pub mod numeric;
pub mod phonetic;
pub mod registry;
pub mod tfidf;
pub mod token;
pub mod tokenize;
pub mod wbounds;

pub use bounds::{qgram_measure_of, QgramMeasure};
pub use registry::{Prepared, SimFn, Similarity};
pub use tfidf::TfIdfCorpus;
pub use tokenize::GramDict;
