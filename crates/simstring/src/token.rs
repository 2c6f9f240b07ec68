//! Word-token similarity: Jaccard over the values' word sets.
//!
//! The measure is a function of the two values' *tokenized* forms — a
//! sorted word set ([`word_set`]) — so a caller scoring one value against
//! many tokenizes it once (`SimFn::TokenJaccard`'s `prepare`).

use crate::tokenize::{shared, words};

/// The value's distinct word tokens, sorted.
pub fn word_set(s: &str) -> Vec<String> {
    let mut set = words(s);
    set.sort_unstable();
    set.dedup();
    set
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

#[cfg(test)]
mod tests {
    use crate::SimFn;

    fn jaccard(a: &str, b: &str) -> f64 {
        SimFn::TokenJaccard.eval(a, b)
    }

    #[test]
    fn identical() {
        let s = "view selection problem";
        assert_eq!(jaccard(s, s), 1.0);
    }

    #[test]
    fn disjoint() {
        assert_eq!(jaccard("aaa bbb", "ccc ddd"), 0.0);
    }

    #[test]
    fn empties() {
        assert_eq!(jaccard("", ""), 1.0);
    }

    #[test]
    fn word_order_invariance() {
        assert_eq!(
            jaccard("data cleaning problems", "problems cleaning data"),
            1.0
        );
    }

    #[test]
    fn half_overlap_values() {
        // {a,b} vs {b,c}: inter 1, union 3.
        assert!((jaccard("a b", "b c") - 1.0 / 3.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod prop_tests {
    use crate::SimFn;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn range_and_symmetry(a in "[a-z ]{0,24}", b in "[a-z ]{0,24}") {
            let s = SimFn::TokenJaccard.eval(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
            prop_assert!((s - SimFn::TokenJaccard.eval(&b, &a)).abs() < 1e-12);
        }
    }
}
