//! Affix similarity — common prefix/suffix based measures.
//!
//! The third named similarity family of the paper's generic attribute
//! matcher ("e.g. n-gram, TF/IDF or affix", Section 2.2). Useful for
//! identifier-ish values where corruption happens at one end (truncated
//! titles in Google Scholar extractions, abbreviated venue names).

use crate::normalize::normalize;

/// Length (in chars) of the longest common prefix.
pub fn common_prefix_len(a: &str, b: &str) -> usize {
    a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count()
}

/// Length (in chars) of the longest common suffix.
pub fn common_suffix_len(a: &str, b: &str) -> usize {
    a.chars()
        .rev()
        .zip(b.chars().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

/// `common / max(|a|, |b|)` in chars; 1.0 for two empty strings.
fn ratio_of_longer(common: fn(&str, &str) -> usize, a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    common(a, b) as f64 / max as f64
}

/// Prefix similarity: `lcp / max(|a|, |b|)` on normalized text.
pub fn prefix_sim(a: &str, b: &str) -> f64 {
    ratio_of_longer(common_prefix_len, &normalize(a), &normalize(b))
}

/// Suffix similarity: `lcs / max(|a|, |b|)` on normalized text.
pub fn suffix_sim(a: &str, b: &str) -> f64 {
    ratio_of_longer(common_suffix_len, &normalize(a), &normalize(b))
}

/// Affix similarity: the better of prefix and suffix similarity. A
/// truncated copy ("A formal perspective on the view…" vs the full title)
/// still scores proportionally to the shared affix.
pub fn affix_sim(a: &str, b: &str) -> f64 {
    affix_sim_normalized(&normalize(a), &normalize(b))
}

/// [`affix_sim`] of two already [`normalize`]d strings.
pub fn affix_sim_normalized(na: &str, nb: &str) -> f64 {
    ratio_of_longer(common_prefix_len, na, nb).max(ratio_of_longer(common_suffix_len, na, nb))
}

/// Containment-aware affix similarity: if one normalized string contains
/// the other, score `|short| / |long|`; otherwise fall back to
/// [`affix_sim`].
pub fn affix_containment_sim(a: &str, b: &str) -> f64 {
    affix_containment_sim_normalized(&normalize(a), &normalize(b))
}

/// [`affix_containment_sim`] of two already [`normalize`]d strings.
pub fn affix_containment_sim_normalized(na: &str, nb: &str) -> f64 {
    if na.is_empty() && nb.is_empty() {
        return 1.0;
    }
    let (short, long) = if na.len() <= nb.len() {
        (na, nb)
    } else {
        (nb, na)
    };
    if !short.is_empty() && long.contains(short) {
        return short.chars().count() as f64 / long.chars().count() as f64;
    }
    affix_sim_normalized(na, nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcp_and_lcs() {
        assert_eq!(common_prefix_len("vldb journal", "vldb 2002"), 5);
        assert_eq!(common_suffix_len("acm sigmod", "ieee sigmod"), 7);
        assert_eq!(common_prefix_len("", "x"), 0);
    }

    #[test]
    fn identical() {
        assert_eq!(prefix_sim("same", "same"), 1.0);
        assert_eq!(suffix_sim("same", "same"), 1.0);
        assert_eq!(affix_sim("same", "same"), 1.0);
        assert_eq!(affix_containment_sim("", ""), 1.0);
    }

    #[test]
    fn truncation_scores_by_shared_prefix() {
        let full = "a formal perspective on the view selection problem";
        let cut = "a formal perspective on the view";
        let s = prefix_sim(full, cut);
        assert!(s > 0.6 && s < 1.0);
        assert_eq!(s, affix_sim(full, cut));
    }

    #[test]
    fn containment_uses_length_ratio() {
        let s = affix_containment_sim("view selection", "the view selection problem");
        assert!((s - 14.0 / 26.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_is_zero() {
        assert_eq!(affix_sim("aaa", "zzz"), 0.0);
    }

    #[test]
    fn normalization_applies() {
        assert_eq!(prefix_sim("VLDB!", "vldb"), 1.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_symmetry(a in "[a-z ]{0,16}", b in "[a-z ]{0,16}") {
            for f in [prefix_sim, suffix_sim, affix_sim, affix_containment_sim] {
                let s = f(&a, &b);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert!((s - f(&b, &a)).abs() < 1e-12);
            }
        }

        #[test]
        fn prefix_of_self_scales(a in "[a-z]{2,16}") {
            let half = &a[..a.len() / 2];
            let s = prefix_sim(&a, half);
            prop_assert!(s > 0.0);
        }
    }
}
