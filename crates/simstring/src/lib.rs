//! # moma-simstring — similarity measures for object matching
//!
//! MOMA's generic attribute matcher "is provided with a pair of attributes
//! to be matched, a similarity function to be evaluated (e.g. n-gram,
//! TF/IDF or affix) and a similarity threshold" (paper Section 2.2). This
//! crate implements that similarity-function library from scratch:
//!
//! * [`edit`] — Levenshtein distance and its normalized similarity,
//! * [`jaro`] — Jaro and Jaro–Winkler,
//! * [`ngram`] — character q-gram profiles; the *trigram* (Dice) metric
//!   the paper's evaluation uses throughout Section 5,
//! * [`token`] — word-token sets and their Jaccard similarity,
//! * [`tfidf`] — corpus-weighted TF-IDF cosine similarity,
//! * [`affix`] — common prefix/suffix similarity,
//! * [`phonetic`] — an initials-aware person-name measure (Google
//!   Scholar "reduces authors' first names to their first letter",
//!   Section 5.4.3),
//! * [`numeric`] — year proximity,
//! * [`bounds`] — exact threshold bounds (size windows, minimum shared
//!   grams) for the q-gram measures, powering candidate pruning in
//!   `moma-core`,
//! * [`wbounds`] — the weighted (max-weight prefix filter) counterparts
//!   for TF-IDF cosine, powering the exact `Threshold` plan for the
//!   paper's bibliographic workload,
//! * [`normalize`] / [`tokenize`] — shared preprocessing,
//! * [`registry`] — [`SimFn`], the measures by name (one `NAMES` table
//!   behind `FromStr` / `Display`) and the one way to score them
//!   (`prepare` each value, `eval_prepared` a pair).
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
pub use registry::{Prepared, SimFn};
pub use tfidf::TfIdfCorpus;
pub use tokenize::GramDict;
