//! `SimFn::eval` is `eval_prepared(prepare(a), prepare(b))`, and the
//! match path prepares every value once through one shared dictionary.
//! Two things must therefore hold for every variant:
//!
//! * **the re-founded `eval` scores what the string-level `eval` it
//!   replaced scored** — `data/parent_score_bits.tsv` holds the score
//!   bits the previous release's `SimFn::eval` gave for a fixed list of
//!   pairs per variant (generated at that commit; `sim`, `a`, `b`,
//!   `f64::to_bits` in hex, tab-separated), and
//! * **a shared, long-lived dictionary changes nothing** — values
//!   prepared in any order through one `GramDict`, next to unrelated
//!   values, score bit for bit what a fresh `eval` of the pair scores
//!   (and, for the q-gram family, what the string-level reference
//!   scorers of `ngram.rs` score).

use moma_simstring::ngram::{qgram_cosine, qgram_dice, qgram_jaccard, qgram_overlap};
use moma_simstring::{GramDict, SimFn};
use proptest::prelude::*;

/// Every variant: the parameter-free ones, the q-gram family at several
/// gram lengths, and the two that `all_basic` leaves out.
fn all_variants() -> Vec<SimFn> {
    let mut sims = SimFn::all_basic();
    for q in [1usize, 2, 3, 5] {
        sims.extend([
            SimFn::QgramDice(q),
            SimFn::QgramJaccard(q),
            SimFn::QgramCosine(q),
            SimFn::QgramOverlap(q),
        ]);
    }
    sims.extend([SimFn::Soundex, SimFn::Year(1)]);
    sims
}

#[test]
fn eval_scores_what_the_previous_release_scored() {
    let table = include_str!("data/parent_score_bits.tsv");
    let mut checked = std::collections::BTreeSet::new();
    for (at, line) in table.lines().enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        let &[name, a, b, bits] = fields.as_slice() else {
            panic!("line {}: expected 4 fields, got {fields:?}", at + 1)
        };
        let sim = SimFn::parse(name).unwrap_or_else(|| panic!("line {}: sim {name}", at + 1));
        let want = u64::from_str_radix(bits, 16).expect("hex score bits");
        let got = sim.eval(a, b);
        assert_eq!(
            got.to_bits(),
            want,
            "{name}({a:?}, {b:?}) = {got}, the previous release scored {}",
            f64::from_bits(want)
        );
        checked.insert(sim.name());
    }
    for sim in all_variants() {
        assert!(
            checked.contains(&sim.name()),
            "no pinned pair for {}",
            sim.name()
        );
    }
}

/// Values that stress one-sided preparation: empty and punctuation-only
/// (no grams, no tokens, no name), non-ASCII letters (chars ≠ bytes),
/// repeat-heavy values (occurrence tagging), names past 64 chars (the
/// Jaro flag vectors), years.
fn hostile() -> Vec<String> {
    let long_given = "Maximilian Alexander ".repeat(3);
    vec![
        String::new(),
        "!!".into(),
        "?!  ...".into(),
        "caccccc".into(),
        "ccccc".into(),
        "a".repeat(15),
        "ab".repeat(40),
        "the the the view the".into(),
        "Jürgen Müller".into(),
        "Zoë Ångström".into(),
        "Ünïcödé ŧìŧłé ΑΒΓ".into(),
        "北京 大学".into(),
        format!("{long_given}Wolfeschlegelsteinhausenbergerdorffwelchevoralternwaren"),
        format!("M. A. {}", "Wolfeschlegelsteinhausenbergerdorf".repeat(2)),
        "J. Smith".into(),
        "John Smith".into(),
        "VLDB 2001".into(),
        "Proc. 2002".into(),
    ]
}

/// The string-level reference scorer of a q-gram variant.
fn reference(sim: &SimFn) -> Option<fn(&str, &str, usize) -> f64> {
    Some(match sim {
        SimFn::Trigram | SimFn::QgramDice(_) => qgram_dice,
        SimFn::QgramJaccard(_) => qgram_jaccard,
        SimFn::QgramCosine(_) => qgram_cosine,
        SimFn::QgramOverlap(_) => qgram_overlap,
        _ => return None,
    })
}

fn gram_length(sim: &SimFn) -> usize {
    match sim {
        SimFn::QgramDice(q)
        | SimFn::QgramJaccard(q)
        | SimFn::QgramCosine(q)
        | SimFn::QgramOverlap(q) => *q,
        _ => 3,
    }
}

/// Prepare `values` in order through one dictionary, then score every
/// pair both ways.
fn assert_shared_dictionary_is_invisible(values: &[String]) {
    for sim in all_variants() {
        let mut dict = GramDict::new();
        let prepared: Vec<_> = values.iter().map(|v| sim.prepare(v, &mut dict)).collect();
        for (a, pa) in values.iter().zip(&prepared) {
            for (b, pb) in values.iter().zip(&prepared) {
                let got = sim.eval_prepared(pa, pb);
                let fresh = sim.eval(a, b);
                assert_eq!(
                    got.to_bits(),
                    fresh.to_bits(),
                    "{}({a:?}, {b:?}): shared dictionary {got}, fresh {fresh}",
                    sim.name()
                );
                if let Some(scorer) = reference(&sim) {
                    let want = scorer(a, b, gram_length(&sim));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{}({a:?}, {b:?})",
                        sim.name()
                    );
                }
            }
        }
    }
}

#[test]
fn hostile_values_score_alike_prepared_or_not() {
    assert_shared_dictionary_is_invisible(&hostile());
}

proptest! {
    /// Random short values over a small alphabet (so grams repeat within
    /// and across values), mixed in among the hostile ones at a random
    /// position — the dictionary meets the grams in a different order
    /// every case.
    #[test]
    fn generated_values_score_alike_prepared_or_not(
        generated in prop::collection::vec("[a-cé .]{0,14}", 1..6),
        at in 0usize..18,
        picks in prop::collection::vec(0usize..18, 3..4),
    ) {
        let hostile = hostile();
        let mut values: Vec<String> = picks.iter().map(|&p| hostile[p].clone()).collect();
        let at = at % (values.len() + 1);
        values.splice(at..at, generated);
        assert_shared_dictionary_is_invisible(&values);
    }
}
