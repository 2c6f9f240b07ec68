//! Name-indexed registry of similarity measures.
//!
//! Match workflows, the iFuice script language (`attrMatch(..., Trigram,
//! 0.5, ...)`) and the self-tuner all select measures dynamically; the
//! [`SimFn`] enum is the closed set of built-ins and [`Similarity`] the
//! open extension point.

use crate::affix::{affix_containment_sim_normalized, affix_sim_normalized};
use crate::bounds::qgram_measure_of;
use crate::edit::{damerau_sim, levenshtein_sim};
use crate::jaro::{jaro_chars, jaro_winkler_chars};
use crate::normalize::normalize;
use crate::numeric::{parse_year, year_window};
use crate::phonetic::{parsed_name_sim, surname_soundex, PersonName};
use crate::tfidf::TfIdfCorpus;
use crate::token::{
    monge_elkan_sym_words, set_cosine, set_dice, set_jaccard, word_chars, word_set,
};
use crate::tokenize::{remap_sorted, shared, GramDict};

/// A similarity measure over two strings, yielding a value in `[0, 1]`.
pub trait Similarity: Send + Sync {
    /// Compute the similarity of `a` and `b`.
    fn sim(&self, a: &str, b: &str) -> f64;

    /// Human-readable name.
    fn name(&self) -> &str;
}

/// Built-in similarity functions, selectable by name.
#[derive(Debug, Clone, PartialEq)]
pub enum SimFn {
    /// Exact equality on normalized text.
    Exact,
    /// Trigram Dice — the paper's default metric.
    Trigram,
    /// Character q-gram Dice with chosen q.
    QgramDice(usize),
    /// Character q-gram Jaccard with chosen q.
    QgramJaccard(usize),
    /// Character q-gram cosine with chosen q.
    QgramCosine(usize),
    /// Character q-gram overlap coefficient with chosen q.
    QgramOverlap(usize),
    /// Normalized Levenshtein.
    Levenshtein,
    /// Normalized Damerau–Levenshtein.
    Damerau,
    /// Jaro.
    Jaro,
    /// Jaro–Winkler.
    JaroWinkler,
    /// Word-token Jaccard.
    TokenJaccard,
    /// Word-token Dice.
    TokenDice,
    /// Word-token cosine (unweighted).
    TokenCosine,
    /// Symmetric Monge–Elkan with Jaro–Winkler base.
    MongeElkan,
    /// Affix (best of prefix/suffix ratio).
    Affix,
    /// Containment-aware affix.
    AffixContainment,
    /// Soundex equality of surnames.
    Soundex,
    /// Initials-aware person-name measure.
    PersonName,
    /// Year proximity parsed from text, with window in years.
    Year(u16),
}

/// A value in the form one [`SimFn`] scores: everything the measure
/// derives from a single value — normalization, tokenization, parsing —
/// done once by [`SimFn::prepare`], so that
/// [`SimFn::eval_prepared`] only does the work that needs both values.
#[derive(Debug, Clone, PartialEq)]
pub enum Prepared {
    /// Normalized text (exact, edit distances, affix measures) or the
    /// surname's Soundex code.
    Text(String),
    /// Normalized text as chars (Jaro, Jaro–Winkler).
    Chars(Vec<char>),
    /// Sorted occurrence-tagged q-gram ids of the match's [`GramDict`]
    /// (the q-gram family).
    Grams(Box<[u32]>),
    /// Sorted distinct word tokens (token set measures).
    WordSet(Vec<String>),
    /// Word tokens in order, as chars (Monge–Elkan).
    Words(Vec<Vec<char>>),
    /// Parsed person name; `None` for a nameless value.
    Name(Option<PersonName>),
    /// Year parsed from the text, if any.
    Year(Option<u16>),
}

impl Prepared {
    /// Map the gram ids of a q-gram value through `remap` (old id → new
    /// id, see [`GramDict::absorb`]), keeping the list sorted. Other
    /// forms hold no ids.
    pub fn remap_grams(&mut self, remap: &[u32]) {
        if let Prepared::Grams(grams) = self {
            remap_sorted(grams, remap);
        }
    }
}

impl SimFn {
    /// Evaluate the measure on two raw strings:
    /// [`SimFn::eval_prepared`] of the two [`SimFn::prepare`]d values.
    /// Scoring one value against many? Prepare it once instead.
    pub fn eval(&self, a: &str, b: &str) -> f64 {
        let mut dict = GramDict::new();
        let (a, b) = (self.prepare(a, &mut dict), self.prepare(b, &mut dict));
        self.eval_prepared(&a, &b)
    }

    /// Put one value into the form this measure scores. Only the q-gram
    /// family uses `dict` (its grams become ids of it), so two values
    /// can be scored against each other only if they were prepared with
    /// the same dictionary.
    pub fn prepare(&self, value: &str, dict: &mut GramDict) -> Prepared {
        match self {
            SimFn::Trigram => Prepared::Grams(dict.intern_qgram_ids(value, 3)),
            // The tokenizer refuses a gram length of 0.
            SimFn::QgramDice(q)
            | SimFn::QgramJaccard(q)
            | SimFn::QgramCosine(q)
            | SimFn::QgramOverlap(q) => Prepared::Grams(dict.intern_qgram_ids(value, *q)),
            SimFn::Exact
            | SimFn::Levenshtein
            | SimFn::Damerau
            | SimFn::Affix
            | SimFn::AffixContainment => Prepared::Text(normalize(value)),
            SimFn::Jaro | SimFn::JaroWinkler => Prepared::Chars(normalize(value).chars().collect()),
            SimFn::TokenJaccard | SimFn::TokenDice | SimFn::TokenCosine => {
                Prepared::WordSet(word_set(value))
            }
            SimFn::MongeElkan => Prepared::Words(word_chars(value)),
            SimFn::Soundex => Prepared::Text(surname_soundex(value)),
            SimFn::PersonName => Prepared::Name(PersonName::parse(value)),
            SimFn::Year(_) => Prepared::Year(parse_year(value)),
        }
    }

    /// Evaluate the measure on two values [`SimFn::prepare`]d by it (for
    /// the q-gram family: with one dictionary). Panics on values
    /// prepared by a measure of another form.
    pub fn eval_prepared(&self, a: &Prepared, b: &Prepared) -> f64 {
        use Prepared::{Chars, Grams, Name, Text, WordSet, Words, Year};
        match (self, a, b) {
            (_, Grams(a), Grams(b)) => {
                let (measure, _) = qgram_measure_of(self).expect("grams are q-gram values");
                measure.eval_counts(shared(a, b), a.len(), b.len())
            }
            (SimFn::Exact | SimFn::Soundex, Text(a), Text(b)) => f64::from(a == b),
            (SimFn::Levenshtein, Text(a), Text(b)) => levenshtein_sim(a, b),
            (SimFn::Damerau, Text(a), Text(b)) => damerau_sim(a, b),
            (SimFn::Affix, Text(a), Text(b)) => affix_sim_normalized(a, b),
            (SimFn::AffixContainment, Text(a), Text(b)) => affix_containment_sim_normalized(a, b),
            (SimFn::Jaro, Chars(a), Chars(b)) => jaro_chars(a, b),
            (SimFn::JaroWinkler, Chars(a), Chars(b)) => jaro_winkler_chars(a, b),
            (SimFn::TokenJaccard, WordSet(a), WordSet(b)) => set_jaccard(a, b),
            (SimFn::TokenDice, WordSet(a), WordSet(b)) => set_dice(a, b),
            (SimFn::TokenCosine, WordSet(a), WordSet(b)) => set_cosine(a, b),
            (SimFn::MongeElkan, Words(a), Words(b)) => monge_elkan_sym_words(a, b),
            (SimFn::PersonName, Name(a), Name(b)) => parsed_name_sim(a.as_ref(), b.as_ref()),
            (SimFn::Year(window), Year(a), Year(b)) => match (a, b) {
                (Some(x), Some(y)) => year_window(*x, *y, *window),
                _ => 0.0,
            },
            _ => panic!("{} cannot score {a:?} against {b:?}", self.name()),
        }
    }

    /// Parse a measure name as used in scripts (case-insensitive);
    /// parameterized forms use `name:param` (e.g. `qgram:2`, `year:1`).
    /// A q-gram length of 0 is no measure (`None`), and neither is a
    /// `year:` tolerance that is not a whole number of years.
    pub fn parse(name: &str) -> Option<SimFn> {
        let lower = name.to_ascii_lowercase();
        let (base, param) = match lower.split_once(':') {
            Some((b, p)) => (b, Some(p)),
            None => (lower.as_str(), None),
        };
        Some(match base {
            "exact" => SimFn::Exact,
            "trigram" | "ngram" => SimFn::Trigram,
            "qgram" | "qgramdice" => SimFn::QgramDice(gram_length(param)?),
            "qgramjaccard" => SimFn::QgramJaccard(gram_length(param)?),
            "qgramcosine" => SimFn::QgramCosine(gram_length(param)?),
            "qgramoverlap" => SimFn::QgramOverlap(gram_length(param)?),
            "levenshtein" | "editdistance" => SimFn::Levenshtein,
            "damerau" => SimFn::Damerau,
            "jaro" => SimFn::Jaro,
            "jarowinkler" => SimFn::JaroWinkler,
            "tokenjaccard" | "jaccard" => SimFn::TokenJaccard,
            "tokendice" | "dice" => SimFn::TokenDice,
            "tokencosine" | "cosine" => SimFn::TokenCosine,
            "mongeelkan" => SimFn::MongeElkan,
            "affix" => SimFn::Affix,
            "affixcontainment" => SimFn::AffixContainment,
            "soundex" => SimFn::Soundex,
            "personname" | "name" => SimFn::PersonName,
            "year" => SimFn::Year(match param {
                Some(p) => p.parse().ok()?,
                None => 0,
            }),
            _ => return None,
        })
    }

    /// Canonical name of the measure.
    pub fn name(&self) -> String {
        match self {
            SimFn::Exact => "exact".into(),
            SimFn::Trigram => "trigram".into(),
            SimFn::QgramDice(q) => format!("qgram:{q}"),
            SimFn::QgramJaccard(q) => format!("qgramjaccard:{q}"),
            SimFn::QgramCosine(q) => format!("qgramcosine:{q}"),
            SimFn::QgramOverlap(q) => format!("qgramoverlap:{q}"),
            SimFn::Levenshtein => "levenshtein".into(),
            SimFn::Damerau => "damerau".into(),
            SimFn::Jaro => "jaro".into(),
            SimFn::JaroWinkler => "jarowinkler".into(),
            SimFn::TokenJaccard => "tokenjaccard".into(),
            SimFn::TokenDice => "tokendice".into(),
            SimFn::TokenCosine => "tokencosine".into(),
            SimFn::MongeElkan => "mongeelkan".into(),
            SimFn::Affix => "affix".into(),
            SimFn::AffixContainment => "affixcontainment".into(),
            SimFn::Soundex => "soundex".into(),
            SimFn::PersonName => "personname".into(),
            SimFn::Year(w) => format!("year:{w}"),
        }
    }

    /// All parameter-free built-ins (used by the self-tuner's search
    /// space).
    pub fn all_basic() -> Vec<SimFn> {
        vec![
            SimFn::Exact,
            SimFn::Trigram,
            SimFn::Levenshtein,
            SimFn::Damerau,
            SimFn::Jaro,
            SimFn::JaroWinkler,
            SimFn::TokenJaccard,
            SimFn::TokenDice,
            SimFn::TokenCosine,
            SimFn::MongeElkan,
            SimFn::Affix,
            SimFn::AffixContainment,
            SimFn::PersonName,
        ]
    }
}

impl Similarity for SimFn {
    fn sim(&self, a: &str, b: &str) -> f64 {
        self.eval(a, b)
    }

    fn name(&self) -> &str {
        // SimFn::name allocates for parameterized variants; for the trait
        // we return the base name.
        match self {
            SimFn::QgramDice(_) | SimFn::QgramJaccard(_) => "qgram",
            SimFn::QgramCosine(_) => "qgramcosine",
            SimFn::QgramOverlap(_) => "qgramoverlap",
            SimFn::Year(_) => "year",
            SimFn::Exact => "exact",
            SimFn::Trigram => "trigram",
            SimFn::Levenshtein => "levenshtein",
            SimFn::Damerau => "damerau",
            SimFn::Jaro => "jaro",
            SimFn::JaroWinkler => "jarowinkler",
            SimFn::TokenJaccard => "tokenjaccard",
            SimFn::TokenDice => "tokendice",
            SimFn::TokenCosine => "tokencosine",
            SimFn::MongeElkan => "mongeelkan",
            SimFn::Affix => "affix",
            SimFn::AffixContainment => "affixcontainment",
            SimFn::Soundex => "soundex",
            SimFn::PersonName => "personname",
        }
    }
}

/// The `q` of a `qgram*:q` name: required, and at least 1 — there are
/// no 0-grams to tokenize a value into.
fn gram_length(param: Option<&str>) -> Option<usize> {
    param?.parse().ok().filter(|&q| q >= 1)
}

/// A TF-IDF measure bound to a prepared corpus (TF-IDF needs corpus
/// statistics, so it cannot be a bare [`SimFn`] variant).
pub struct TfIdfSim {
    corpus: TfIdfCorpus,
}

impl TfIdfSim {
    /// Wrap a prepared corpus.
    pub fn new(corpus: TfIdfCorpus) -> Self {
        Self { corpus }
    }

    /// Access the corpus.
    pub fn corpus(&self) -> &TfIdfCorpus {
        &self.corpus
    }
}

impl Similarity for TfIdfSim {
    fn sim(&self, a: &str, b: &str) -> f64 {
        self.corpus.cosine(a, b)
    }

    fn name(&self) -> &str {
        "tfidf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for f in SimFn::all_basic() {
            let parsed = SimFn::parse(&f.name()).unwrap();
            assert_eq!(parsed, f, "roundtrip of {}", f.name());
        }
        assert_eq!(SimFn::parse("qgram:2"), Some(SimFn::QgramDice(2)));
        assert_eq!(SimFn::parse("qgramcosine:3"), Some(SimFn::QgramCosine(3)));
        assert_eq!(SimFn::parse("qgramoverlap:2"), Some(SimFn::QgramOverlap(2)));
        assert_eq!(SimFn::parse("year:1"), Some(SimFn::Year(1)));
        assert_eq!(SimFn::parse("TRIGRAM"), Some(SimFn::Trigram));
        assert_eq!(SimFn::parse("nope"), None);
        assert_eq!(SimFn::parse("qgram"), None); // missing parameter
        for name in [
            "qgram:0",
            "qgramdice:0",
            "qgramjaccard:0",
            "qgramcosine:0",
            "qgramoverlap:0",
        ] {
            assert_eq!(SimFn::parse(name), None, "{name}: there are no 0-grams");
        }
        assert_eq!(SimFn::parse("year"), Some(SimFn::Year(0)));
        for name in ["year:x", "year:-1", "year:1.5", "year:"] {
            assert_eq!(SimFn::parse(name), None, "{name}: no tolerance in years");
        }
    }

    #[test]
    fn exact_ignores_case_and_punct() {
        assert_eq!(SimFn::Exact.eval("VLDB 2002!", "vldb-2002"), 1.0);
        assert_eq!(SimFn::Exact.eval("a", "b"), 0.0);
    }

    #[test]
    fn year_variant() {
        assert_eq!(SimFn::Year(0).eval("2001", "2001"), 1.0);
        assert_eq!(SimFn::Year(1).eval("VLDB 2001", "Proc 2002"), 0.5);
        assert_eq!(SimFn::Year(0).eval("no year", "2001"), 0.0);
    }

    #[test]
    fn all_measures_satisfy_identity() {
        let text = "Generic Schema Matching with Cupid";
        for f in SimFn::all_basic() {
            let s = f.eval(text, text);
            assert!((s - 1.0).abs() < 1e-9, "{} identity gave {s}", f.name());
        }
    }

    #[test]
    fn trait_objects_work() {
        let measures: Vec<Box<dyn Similarity>> = vec![
            Box::new(SimFn::Trigram),
            Box::new(TfIdfSim::new(TfIdfCorpus::build(["a b c", "b c d"]))),
        ];
        for m in &measures {
            let s = m.sim("b c", "b c");
            assert!(s > 0.99, "{} gave {s}", m.name());
        }
    }

    #[test]
    fn trait_name_matches() {
        assert_eq!(Similarity::name(&SimFn::Trigram), "trigram");
        assert_eq!(Similarity::name(&SimFn::QgramDice(2)), "qgram");
    }
}
