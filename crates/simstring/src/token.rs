//! Token-level similarity measures.
//!
//! Each measure is a function of the two values' *tokenized* forms — a
//! sorted word set ([`word_set`]) or the word list as chars
//! ([`word_chars`]) — so a caller scoring one value against many
//! tokenizes it once and calls the `set_*` / [`monge_elkan_sym_words`]
//! forms; the `&str` forms tokenize both sides and call those.

use crate::jaro::jaro_winkler_chars;
use crate::tokenize::{shared, words};

/// The value's distinct word tokens, sorted.
pub fn word_set(s: &str) -> Vec<String> {
    let mut set = words(s);
    set.sort_unstable();
    set.dedup();
    set
}

/// The value's word tokens, in order, as chars.
pub fn word_chars(s: &str) -> Vec<Vec<char>> {
    words(s).iter().map(|w| w.chars().collect()).collect()
}

/// Jaccard similarity of two [`word_set`]s.
pub fn set_jaccard(sa: &[String], sb: &[String]) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = shared(sa, sb);
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Dice similarity of two [`word_set`]s.
pub fn set_dice(sa: &[String], sb: &[String]) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    2.0 * shared(sa, sb) as f64 / (sa.len() + sb.len()) as f64
}

/// Overlap coefficient of two [`word_set`]s.
pub fn set_overlap(sa: &[String], sb: &[String]) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    shared(sa, sb) as f64 / sa.len().min(sb.len()) as f64
}

/// Unweighted cosine similarity of two [`word_set`]s.
pub fn set_cosine(sa: &[String], sb: &[String]) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    (shared(sa, sb) as f64 / ((sa.len() as f64).sqrt() * (sb.len() as f64).sqrt())).min(1.0)
}

/// Jaccard similarity over word-token sets.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    set_jaccard(&word_set(a), &word_set(b))
}

/// Dice similarity over word-token sets.
pub fn token_dice(a: &str, b: &str) -> f64 {
    set_dice(&word_set(a), &word_set(b))
}

/// Overlap coefficient over word-token sets.
pub fn token_overlap(a: &str, b: &str) -> f64 {
    set_overlap(&word_set(a), &word_set(b))
}

/// Unweighted cosine similarity over word-token sets.
pub fn token_cosine(a: &str, b: &str) -> f64 {
    set_cosine(&word_set(a), &word_set(b))
}

/// [`monge_elkan`] of two [`word_chars`] lists.
fn monge_elkan_words(ta: &[Vec<char>], tb: &[Vec<char>]) -> f64 {
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for x in ta {
        let best = tb
            .iter()
            .map(|y| jaro_winkler_chars(x, y))
            .fold(0.0f64, f64::max);
        total += best;
    }
    (total / ta.len() as f64).min(1.0)
}

/// [`monge_elkan_sym`] of two [`word_chars`] lists.
pub fn monge_elkan_sym_words(ta: &[Vec<char>], tb: &[Vec<char>]) -> f64 {
    (monge_elkan_words(ta, tb) + monge_elkan_words(tb, ta)) / 2.0
}

/// Monge–Elkan similarity: mean over tokens of `a` of the best secondary
/// similarity (Jaro–Winkler) against tokens of `b`. Asymmetric by
/// definition; [`monge_elkan_sym`] symmetrizes.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    monge_elkan_words(&word_chars(a), &word_chars(b))
}

/// Symmetrized Monge–Elkan: mean of both directions.
pub fn monge_elkan_sym(a: &str, b: &str) -> f64 {
    monge_elkan_sym_words(&word_chars(a), &word_chars(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical() {
        for f in [
            token_jaccard,
            token_dice,
            token_overlap,
            token_cosine,
            monge_elkan_sym,
        ] {
            assert_eq!(f("view selection problem", "view selection problem"), 1.0);
        }
    }

    #[test]
    fn disjoint() {
        for f in [token_jaccard, token_dice, token_overlap, token_cosine] {
            assert_eq!(f("aaa bbb", "ccc ddd"), 0.0);
        }
    }

    #[test]
    fn empties() {
        assert_eq!(token_jaccard("", ""), 1.0);
        assert_eq!(token_dice("", "x"), 0.0);
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(monge_elkan("a", ""), 0.0);
    }

    #[test]
    fn word_order_invariance() {
        assert_eq!(
            token_jaccard("data cleaning problems", "problems cleaning data"),
            1.0
        );
    }

    #[test]
    fn half_overlap_values() {
        // {a,b} vs {b,c}: inter 1, union 3.
        assert!((token_jaccard("a b", "b c") - 1.0 / 3.0).abs() < 1e-12);
        assert!((token_dice("a b", "b c") - 0.5).abs() < 1e-12);
        assert!((token_overlap("a b", "b c") - 0.5).abs() < 1e-12);
        assert!((token_cosine("a b", "b c") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn monge_elkan_tolerates_token_typos() {
        let s = monge_elkan_sym("andreas thor", "andreas tohr");
        assert!(s > 0.85, "got {s}");
    }

    #[test]
    fn monge_elkan_subset_asymmetry() {
        // Every token of "erhard" is found in "erhard rahm" -> direction 1.
        assert_eq!(monge_elkan("erhard", "erhard rahm"), 1.0);
        assert!(monge_elkan("erhard rahm", "erhard") < 1.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ranges(a in "[a-z ]{0,24}", b in "[a-z ]{0,24}") {
            for f in [token_jaccard, token_dice, token_overlap, token_cosine, monge_elkan_sym] {
                let s = f(&a, &b);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
            }
        }

        #[test]
        fn symmetry(a in "[a-z ]{0,24}", b in "[a-z ]{0,24}") {
            for f in [token_jaccard, token_dice, token_overlap, token_cosine, monge_elkan_sym] {
                prop_assert!((f(&a, &b) - f(&b, &a)).abs() < 1e-12);
            }
        }
    }
}
