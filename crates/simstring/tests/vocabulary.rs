//! The measure vocabulary is the previous release's, less what was
//! deleted on purpose.
//!
//! `data/parent_spellings.tsv` maps each spelling to the name the
//! previous release's parser printed for it (`-`: refused), generated at
//! that commit: every alias in lower and upper case, each `qgram*:Q` for
//! several `Q` (past today's maximum too), `year[:W]`, and spellings it
//! refused. Today each spelling must parse and print that name — unless
//! it names a deleted measure, a gram length above
//! [`SimFn::MAX_GRAM_LENGTH`] or a unit measure with a `:` suffix (which
//! the previous release ignored), all refused now — and every spelling
//! refused then stays refused.

use moma_simstring::SimFn;
use proptest::prelude::*;

/// The names the previous release printed for the measures deleted since.
const DELETED: [&str; 7] = [
    "exact",
    "damerau",
    "mongeelkan",
    "affixcontainment",
    "tokendice",
    "tokencosine",
    "soundex",
];

/// Why `spelling` (which the previous release printed as `parent`) is
/// refused now, if it is.
fn refused_now(spelling: &str, parent: &str) -> Option<&'static str> {
    if DELETED.contains(&parent) {
        return Some("a deleted measure");
    }
    let (key, param) = spelling.split_once(':')?;
    if key.to_ascii_lowercase().starts_with("qgram") {
        let q: usize = param.parse().expect("the parent accepted it");
        return (q > SimFn::MAX_GRAM_LENGTH).then_some("a gram length above the maximum");
    }
    (!parent.contains(':')).then_some("a unit measure with a parameter")
}

#[test]
fn every_spelling_means_what_it_meant_or_is_refused() {
    let table = include_str!("data/parent_spellings.tsv");
    let (mut kept, mut refused) = (0, 0);
    for (at, line) in table.lines().enumerate() {
        let (spelling, parent) = line
            .split_once('\t')
            .unwrap_or_else(|| panic!("line {}: expected 2 fields", at + 1));
        let parsed = spelling.parse::<SimFn>();
        let why = match parent {
            "-" => Some("refused by the previous release"),
            _ => refused_now(spelling, parent),
        };
        match (why, parsed) {
            (None, Ok(sim)) => {
                assert_eq!(sim.to_string(), parent, "{spelling}");
                kept += 1;
            }
            (None, Err(e)) => panic!("{spelling} ({parent}) is refused: {e}"),
            (Some(why), Ok(sim)) => panic!("{spelling} ({why}) parses to {sim}"),
            (Some(_), Err(e)) => {
                let prefix = format!("unknown similarity `{spelling}` (");
                assert!(e.starts_with(&prefix), "{spelling}: {e}");
                refused += 1;
            }
        }
    }
    assert!(
        kept >= 60 && refused >= 30,
        "{kept} kept, {refused} refused"
    );
}

/// `spelling` with its ASCII case flipped wherever `mask` says.
fn flip_case(spelling: &str, mask: u64) -> String {
    let flip = |(i, c): (usize, char)| match mask >> (i % 64) & 1 {
        1 if c.is_ascii_lowercase() => c.to_ascii_uppercase(),
        1 => c.to_ascii_lowercase(),
        _ => c,
    };
    spelling.chars().enumerate().map(flip).collect()
}

/// The measure at `pick`: a unit measure of the name table, a q-gram
/// measure of gram length `q` or a year window of `w` years.
fn measure(pick: usize, q: usize, w: u16) -> SimFn {
    let q_grams = [
        SimFn::QgramDice,
        SimFn::QgramJaccard,
        SimFn::QgramCosine,
        SimFn::QgramOverlap,
    ];
    match pick.checked_sub(SimFn::NAMES.len()) {
        None => SimFn::NAMES[pick].1.clone(),
        Some(i) if i < q_grams.len() => q_grams[i](q),
        Some(_) => SimFn::Year(w),
    }
}

proptest! {
    /// `Display` ∘ `FromStr` is the identity: every name-table spelling
    /// in any ASCII case parses to its measure, and every measure's
    /// printed name — in any ASCII case — parses back to it.
    #[test]
    fn printed_names_parse_back(
        pick in 0usize..SimFn::NAMES.len() + 5,
        q in 1usize..=SimFn::MAX_GRAM_LENGTH,
        w in 0u16..=u16::MAX,
        mask in 0u64..u64::MAX,
    ) {
        if let Some((spelling, sim)) = SimFn::NAMES.get(pick) {
            prop_assert_eq!(&flip_case(spelling, mask).parse::<SimFn>(), &Ok(sim.clone()));
        }
        let sim = measure(pick, q, w);
        let printed = sim.to_string();
        for text in [printed.clone(), flip_case(&printed, mask)] {
            prop_assert_eq!(&text.parse::<SimFn>(), &Ok(sim.clone()), "{}", text);
        }
    }
}
