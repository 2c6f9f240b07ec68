//! Person-name similarity.
//!
//! Author matching across DBLP and Google Scholar must cope with "GS
//! reduces authors' first names to their first letter leading to
//! ambiguous author representations" (paper Section 5.4.3). The
//! [`parsed_name_sim`] measure (`SimFn::PersonName`) treats an initial as
//! compatible with any full name sharing that initial and scores
//! surnames with Jaro–Winkler.

use crate::jaro::jaro_winkler_chars;
use crate::normalize::normalize_keep_periods;

/// Parsed person name: given tokens + surname, as chars (what
/// Jaro–Winkler reads), trailing periods dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersonName {
    given: Vec<Vec<char>>,
    surname: Vec<char>,
}

impl PersonName {
    /// Parse a name; `None` for a value without any name token.
    pub fn parse(s: &str) -> Option<PersonName> {
        let norm = normalize_keep_periods(s);
        let toks: Vec<&str> = norm.split(' ').filter(|t| !t.is_empty()).collect();
        let (&surname, given) = toks.split_last()?;
        let chars = |t: &str| t.trim_end_matches('.').chars().collect();
        Some(PersonName {
            given: given.iter().map(|t| chars(t)).collect(),
            surname: chars(surname),
        })
    }
}

/// Whether a given-name token is an initial (single letter).
fn is_initial(t: &[char]) -> bool {
    t.len() == 1
}

/// Similarity of two given-name token lists, initials-aware:
/// an initial matches any name with the same first letter (score 0.85, a
/// deliberate discount: "J." is compatible with but not equal to "John").
fn given_sim(a: &[Vec<char>], b: &[Vec<char>]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        // One side has no given names at all (e.g. mononym): neutral-ish.
        return 0.6;
    }
    let pairs = a.len().min(b.len());
    let mut total = 0.0;
    for i in 0..pairs {
        let (x, y) = (&a[i], &b[i]);
        total += if x == y {
            1.0
        } else if (is_initial(x) || is_initial(y)) && x.first() == y.first() {
            0.85
        } else {
            jaro_winkler_chars(x, y) * 0.8
        };
    }
    // Unmatched extra tokens (e.g. a middle name on one side) dilute mildly.
    total / (pairs as f64 + 0.3 * (a.len().max(b.len()) - pairs) as f64)
}

/// Initials-aware similarity of two parsed names (`None` = nameless
/// value).
///
/// Surnames are compared with Jaro–Winkler (weight 0.6); given names with
/// the initials-aware given-name comparison (weight 0.4). `"J. Smith"` vs
/// `"John Smith"` scores ≈ 0.94 while `"J. Smith"` vs `"Jane Smyth"`
/// stays lower.
pub fn parsed_name_sim(a: Option<&PersonName>, b: Option<&PersonName>) -> f64 {
    match (a, b) {
        (Some(na), Some(nb)) => {
            let s_sur = jaro_winkler_chars(&na.surname, &nb.surname);
            if s_sur < 0.75 {
                // Different surnames dominate: do not let given names rescue.
                return s_sur * 0.55;
            }
            let s_giv = given_sim(&na.given, &nb.given);
            0.6 * s_sur + 0.4 * s_giv
        }
        (None, None) => 1.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use crate::SimFn;

    fn name_sim(a: &str, b: &str) -> f64 {
        SimFn::PersonName.eval(a, b)
    }

    #[test]
    fn initial_matches_full_name() {
        let s = name_sim("J. Smith", "John Smith");
        assert!(s > 0.9, "got {s}");
        let exact = name_sim("John Smith", "John Smith");
        assert_eq!(exact, 1.0);
        assert!(s < exact);
    }

    #[test]
    fn initial_mismatch_penalized() {
        let s_match = name_sim("J. Smith", "John Smith");
        let s_clash = name_sim("K. Smith", "John Smith");
        assert!(s_clash < s_match);
    }

    #[test]
    fn different_surnames_dominate() {
        let s = name_sim("John Smith", "John Miller");
        assert!(s < 0.5, "got {s}");
    }

    #[test]
    fn paper_duplicate_candidates_score_moderately() {
        // Table 9 style pairs: similar names, not identical.
        let s1 = name_sim("Agathoniki Trigoni", "Niki Trigoni");
        assert!(s1 > 0.5 && s1 < 1.0, "trigoni {s1}");
        let s2 = name_sim("Amir M. Zarkesh", "Amir Zarkesh");
        assert!(s2 > 0.75 && s2 < 1.0, "zarkesh {s2}");
        let s3 = name_sim("M. Barczyk", "M. Barczyc");
        assert!(s3 > 0.7 && s3 < 1.0, "barczyk {s3}");
    }

    #[test]
    fn mononyms() {
        assert!(name_sim("Madonna", "Madonna") > 0.8);
        assert_eq!(name_sim("", ""), 1.0);
        assert_eq!(name_sim("", "X"), 0.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use crate::SimFn;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn name_sim_range_symmetry(a in "[A-Za-z. ]{0,20}", b in "[A-Za-z. ]{0,20}") {
            let s = SimFn::PersonName.eval(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
            prop_assert!((s - SimFn::PersonName.eval(&b, &a)).abs() < 1e-9);
        }
    }
}
