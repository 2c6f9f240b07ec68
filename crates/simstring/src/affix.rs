//! Affix similarity — the better of the common-prefix and the
//! common-suffix ratio.
//!
//! The third named similarity family of the paper's generic attribute
//! matcher ("e.g. n-gram, TF/IDF or affix", Section 2.2). Useful for
//! identifier-ish values where corruption happens at one end (truncated
//! titles in Google Scholar extractions, abbreviated venue names).

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

/// Affix similarity of two [`normalize`](crate::normalize::normalize)d
/// strings: the better of prefix (`lcp / max(|a|, |b|)`) and suffix
/// (`lcs / max(|a|, |b|)`) similarity. A truncated copy ("A formal
/// perspective on the view…" vs the full title) still scores
/// proportionally to the shared affix.
pub fn affix_sim_normalized(na: &str, nb: &str) -> f64 {
    ratio_of_longer(common_prefix_len, na, nb).max(ratio_of_longer(common_suffix_len, na, nb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::SimFn;

    fn prefix(a: &str, b: &str) -> f64 {
        ratio_of_longer(common_prefix_len, &normalize(a), &normalize(b))
    }

    fn suffix(a: &str, b: &str) -> f64 {
        ratio_of_longer(common_suffix_len, &normalize(a), &normalize(b))
    }

    fn affix(a: &str, b: &str) -> f64 {
        SimFn::Affix.eval(a, b)
    }

    #[test]
    fn lcp_and_lcs() {
        assert_eq!(common_prefix_len("vldb journal", "vldb 2002"), 5);
        assert_eq!(common_suffix_len("acm sigmod", "ieee sigmod"), 7);
        assert_eq!(common_prefix_len("", "x"), 0);
    }

    #[test]
    fn identical() {
        assert_eq!(prefix("same", "same"), 1.0);
        assert_eq!(suffix("same", "same"), 1.0);
        assert_eq!(affix("same", "same"), 1.0);
        assert_eq!(affix("", ""), 1.0);
    }

    #[test]
    fn truncation_scores_by_shared_prefix() {
        let full = "a formal perspective on the view selection problem";
        let cut = "a formal perspective on the view";
        let s = prefix(full, cut);
        assert!(s > 0.6 && s < 1.0);
        assert_eq!(s, affix(full, cut));
    }

    #[test]
    fn disjoint_is_zero() {
        assert_eq!(affix("aaa", "zzz"), 0.0);
    }

    #[test]
    fn normalization_applies() {
        assert_eq!(prefix("VLDB!", "vldb"), 1.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::SimFn;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_symmetry(a in "[a-z ]{0,16}", b in "[a-z ]{0,16}") {
            let s = SimFn::Affix.eval(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - SimFn::Affix.eval(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn prefix_of_self_scales(a in "[a-z]{2,16}") {
            let half = &a[..a.len() / 2];
            let s = ratio_of_longer(common_prefix_len, &normalize(&a), &normalize(half));
            prop_assert!(s > 0.0);
        }
    }
}
