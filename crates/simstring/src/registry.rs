//! The similarity measures, by name.
//!
//! [`SimFn`] is the closed set of measures an attribute matcher scores
//! with (TF-IDF, which needs corpus statistics, is `moma-core`'s
//! `MatcherSim::TfIdf` beside it). Match workflows, the iFuice script
//! language (`attrMatch(..., Trigram, 0.5, ...)`) and the wire's `match`
//! name one through [`SimFn::NAMES`] and the parameterized forms beside
//! it: `FromStr` parses a spelling (ignoring ASCII case) and `Display`
//! prints the canonical one, which mapping names and durable records
//! carry. A measure is scored one way: [`SimFn::prepare`] each value,
//! then [`SimFn::eval_prepared`] a pair.

use std::fmt;
use std::str::FromStr;

use moma_table::names::{name_param, parse_name, print_name};

use crate::affix::affix_sim_normalized;
use crate::bounds::qgram_measure_of;
use crate::edit::levenshtein_sim;
use crate::jaro::{jaro_chars, jaro_winkler_chars};
use crate::normalize::normalize;
use crate::numeric::{parse_year, year_window};
use crate::phonetic::{parsed_name_sim, PersonName};
use crate::token::{set_jaccard, word_set};
use crate::tokenize::{remap_sorted, shared, GramDict};

/// Built-in similarity functions, selectable by name.
#[derive(Debug, Clone, PartialEq)]
pub enum SimFn {
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
    /// Jaro.
    Jaro,
    /// Jaro–Winkler.
    JaroWinkler,
    /// Word-token Jaccard.
    TokenJaccard,
    /// Affix (best of prefix/suffix ratio).
    Affix,
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
    /// Normalized text (Levenshtein, affix).
    Text(String),
    /// Normalized text as chars (Jaro, Jaro–Winkler).
    Chars(Vec<char>),
    /// Sorted occurrence-tagged q-gram ids of the match's [`GramDict`]
    /// (the q-gram family).
    Grams(Box<[u32]>),
    /// Sorted distinct word tokens (token Jaccard).
    WordSet(Vec<String>),
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
            SimFn::Levenshtein | SimFn::Affix => Prepared::Text(normalize(value)),
            SimFn::Jaro | SimFn::JaroWinkler => Prepared::Chars(normalize(value).chars().collect()),
            SimFn::TokenJaccard => Prepared::WordSet(word_set(value)),
            SimFn::PersonName => Prepared::Name(PersonName::parse(value)),
            SimFn::Year(_) => Prepared::Year(parse_year(value)),
        }
    }

    /// Evaluate the measure on two values [`SimFn::prepare`]d by it (for
    /// the q-gram family: with one dictionary). Panics on values
    /// prepared by a measure of another form.
    pub fn eval_prepared(&self, a: &Prepared, b: &Prepared) -> f64 {
        use Prepared::{Chars, Grams, Name, Text, WordSet, Year};
        match (self, a, b) {
            (_, Grams(a), Grams(b)) => {
                let (measure, _) = qgram_measure_of(self).expect("grams are q-gram values");
                measure.eval_counts(shared(a, b), a.len(), b.len())
            }
            (SimFn::Levenshtein, Text(a), Text(b)) => levenshtein_sim(a, b),
            (SimFn::Affix, Text(a), Text(b)) => affix_sim_normalized(a, b),
            (SimFn::Jaro, Chars(a), Chars(b)) => jaro_chars(a, b),
            (SimFn::JaroWinkler, Chars(a), Chars(b)) => jaro_winkler_chars(a, b),
            (SimFn::TokenJaccard, WordSet(a), WordSet(b)) => set_jaccard(a, b),
            (SimFn::PersonName, Name(a), Name(b)) => parsed_name_sim(a.as_ref(), b.as_ref()),
            (SimFn::Year(window), Year(a), Year(b)) => match (a, b) {
                (Some(x), Some(y)) => year_window(*x, *y, *window),
                _ => 0.0,
            },
            _ => panic!("{self} cannot score {a:?} against {b:?}"),
        }
    }

    /// Accepted spellings of the parameter-free measures (see
    /// [`crate::registry`]). Beside them, `key:Q` spells a q-gram
    /// measure of gram length `1 ≤ Q ≤` [`SimFn::MAX_GRAM_LENGTH`]
    /// (`qgram` = `qgramdice`, `qgramjaccard`, `qgramcosine`,
    /// `qgramoverlap`) and `year[:W]` a year window of `W` years
    /// (default 0).
    pub const NAMES: &'static [(&'static str, SimFn)] = &[
        ("trigram", SimFn::Trigram),
        ("ngram", SimFn::Trigram),
        ("levenshtein", SimFn::Levenshtein),
        ("editdistance", SimFn::Levenshtein),
        ("jaro", SimFn::Jaro),
        ("jarowinkler", SimFn::JaroWinkler),
        ("tokenjaccard", SimFn::TokenJaccard),
        ("jaccard", SimFn::TokenJaccard),
        ("affix", SimFn::Affix),
        ("personname", SimFn::PersonName),
        ("name", SimFn::PersonName),
    ];

    /// The longest gram length a `qgram*:Q` spelling may name. A value
    /// is padded to `len + 2(Q − 1)` chars and tokenized into
    /// `len + Q − 1` grams of `Q` chars each, so one value costs memory
    /// in `Q·(len + Q)`: an unbounded `Q` lets a single `match` request
    /// (which the WAL logs before it runs, and replay runs again) exhaust
    /// the server's memory. No caller uses more than 5.
    pub const MAX_GRAM_LENGTH: usize = 16;
}

/// The `key:Q` spellings of the q-gram family, canonical key first.
const QGRAM_FORMS: &[(&str, fn(usize) -> SimFn)] = &[
    ("qgram", SimFn::QgramDice),
    ("qgramdice", SimFn::QgramDice),
    ("qgramjaccard", SimFn::QgramJaccard),
    ("qgramcosine", SimFn::QgramCosine),
    ("qgramoverlap", SimFn::QgramOverlap),
];

/// The key of the `year[:W]` spelling.
const YEAR: &str = "year";

impl FromStr for SimFn {
    type Err = String;

    /// A measure name as used in scripts and on the wire. A gram length
    /// outside `1..=MAX_GRAM_LENGTH` is no measure, and neither is a
    /// `year:` window that is not a whole number of years.
    fn from_str(s: &str) -> Result<Self, String> {
        if let Some((key, q)) = s.split_once(':') {
            let form = QGRAM_FORMS
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(key));
            if let (Some((_, form)), Ok(q @ 1..=SimFn::MAX_GRAM_LENGTH)) = (form, q.parse()) {
                return Ok(form(q));
            }
        }
        let window = match name_param(s, YEAR) {
            Some(w) => w.parse().ok(),
            None => s.eq_ignore_ascii_case(YEAR).then_some(0),
        };
        if let Some(w) = window {
            return Ok(SimFn::Year(w));
        }
        let max = SimFn::MAX_GRAM_LENGTH;
        let qgram = QGRAM_FORMS.iter().map(|(key, _)| format!("{key}:Q≤{max}"));
        let forms: Vec<String> = qgram.chain([format!("{YEAR}[:W]")]).collect();
        let forms: Vec<&str> = forms.iter().map(String::as_str).collect();
        parse_name(Self::NAMES, &forms, "similarity", s)
    }
}

impl fmt::Display for SimFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFn::QgramDice(q)
            | SimFn::QgramJaccard(q)
            | SimFn::QgramCosine(q)
            | SimFn::QgramOverlap(q) => {
                let (key, _) = QGRAM_FORMS
                    .iter()
                    .find(|(_, form)| form(*q) == *self)
                    .expect("every q-gram measure has a spelling");
                write!(f, "{key}:{q}")
            }
            SimFn::Year(w) => write!(f, "{YEAR}:{w}"),
            unit => f.write_str(print_name(Self::NAMES, unit)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_and_print() {
        for (name, sim) in SimFn::NAMES {
            assert_eq!(name.parse().as_ref(), Ok(sim), "{name}");
        }
        assert_eq!("qgram:2".parse(), Ok(SimFn::QgramDice(2)));
        assert_eq!("qgramcosine:3".parse(), Ok(SimFn::QgramCosine(3)));
        assert_eq!("qgramoverlap:2".parse(), Ok(SimFn::QgramOverlap(2)));
        assert_eq!("year:1".parse(), Ok(SimFn::Year(1)));
        assert_eq!("TRIGRAM".parse(), Ok(SimFn::Trigram));
        assert_eq!(SimFn::QgramJaccard(2).to_string(), "qgramjaccard:2");
        assert_eq!(SimFn::Year(0).to_string(), "year:0");
        let refused = "nope".parse::<SimFn>().unwrap_err();
        assert_eq!(
            refused,
            "unknown similarity `nope` (trigram/levenshtein/jaro/jarowinkler/\
             tokenjaccard/affix/personname/qgram:Q≤16/qgramdice:Q≤16/\
             qgramjaccard:Q≤16/qgramcosine:Q≤16/qgramoverlap:Q≤16/year[:W])"
        );
        // A missing gram length, and no 0-grams.
        for name in [
            "qgram",
            "qgram:0",
            "qgramdice:0",
            "qgramjaccard:0",
            "qgramcosine:0",
            "qgramoverlap:0",
        ] {
            let refused = name.parse::<SimFn>().unwrap_err();
            assert!(refused.starts_with(&format!("unknown similarity `{name}` (")));
        }
        assert_eq!("year".parse(), Ok(SimFn::Year(0)));
        for name in ["year:x", "year:-1", "year:1.5", "year:", "trigram:3"] {
            assert!(name.parse::<SimFn>().is_err(), "{name}");
        }
    }

    /// One value's grams cost memory in `Q·(len + Q)`: `qgram:1000000`
    /// would take gigabytes for a single title.
    #[test]
    fn gram_lengths_past_the_maximum_are_refused() {
        let max = SimFn::MAX_GRAM_LENGTH;
        assert_eq!(format!("qgram:{max}").parse(), Ok(SimFn::QgramDice(max)));
        for name in ["qgram:17", "qgramjaccard:100000", "qgramoverlap:1000000"] {
            let refused = name.parse::<SimFn>().unwrap_err();
            assert!(refused.starts_with(&format!("unknown similarity `{name}` (")));
            assert!(refused.contains(&format!("qgram:Q≤{max}")), "{refused}");
        }
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
        for (_, f) in SimFn::NAMES {
            let s = f.eval(text, text);
            assert!((s - 1.0).abs() < 1e-9, "{f} identity gave {s}");
        }
    }
}
