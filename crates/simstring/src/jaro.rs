//! Jaro and Jaro–Winkler similarity — strong for short person names.
//!
//! The kernels ([`jaro_chars`], [`jaro_winkler_chars`]) work on `&[char]`
//! so a caller that scores one value many times decodes it once
//! (`SimFn::Jaro` / `SimFn::JaroWinkler` prepare the normalized chars);
//! when both values have at most 64 chars — every name and most titles —
//! the per-side "already matched" flags are one `u64` each and a call
//! allocates nothing. Longer values take the same steps over `Vec<bool>`
//! flags.

/// "Already matched" flags of one side of a Jaro comparison.
trait Flags {
    fn get(&self, i: usize) -> bool;
    fn set(&mut self, i: usize);
}

impl Flags for u64 {
    fn get(&self, i: usize) -> bool {
        (*self >> i) & 1 == 1
    }
    fn set(&mut self, i: usize) {
        *self |= 1 << i;
    }
}

impl Flags for Vec<bool> {
    fn get(&self, i: usize) -> bool {
        self[i]
    }
    fn set(&mut self, i: usize) {
        self[i] = true;
    }
}

/// Jaro similarity of two non-empty char slices over the given (all
/// unset) flags.
fn jaro_with<F: Flags>(a: &[char], b: &[char], mut a_matched: F, mut b_used: F) -> f64 {
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut matches = 0usize;
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, cb) in b.iter().enumerate().take(hi).skip(lo) {
            if !b_used.get(j) && cb == ca {
                b_used.set(j);
                a_matched.set(i);
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions between the matched subsequences.
    let matched_a = a.iter().enumerate().filter(|(i, _)| a_matched.get(*i));
    let matched_b = b.iter().enumerate().filter(|(j, _)| b_used.get(*j));
    let t = matched_a.zip(matched_b).filter(|(x, y)| x.1 != y.1).count() as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro similarity between two char slices.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a.len() <= 64 && b.len() <= 64 {
        jaro_with(a, b, 0u64, 0u64)
    } else {
        jaro_with(a, b, vec![false; a.len()], vec![false; b.len()])
    }
}

/// Jaro–Winkler similarity between two char slices, with the standard
/// prefix scale `p = 0.1` and a maximum considered prefix of 4
/// characters.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    (j + prefix * 0.1 * (1.0 - j)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    pub(super) fn j(a: &str, b: &str) -> f64 {
        jaro_chars(&chars(a), &chars(b))
    }

    pub(super) fn jw(a: &str, b: &str) -> f64 {
        jaro_winkler_chars(&chars(a), &chars(b))
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn textbook_values() {
        assert!(close(j("MARTHA", "MARHTA"), 0.944));
        assert!(close(j("DIXON", "DICKSONX"), 0.767));
        assert!(close(j("JELLYFISH", "SMELLYFISH"), 0.896));
    }

    #[test]
    fn winkler_boosts_common_prefix() {
        let (plain, boosted) = (j("MARTHA", "MARHTA"), jw("MARTHA", "MARHTA"));
        assert!(boosted > plain);
        assert!(close(boosted, 0.961));
    }

    #[test]
    fn identical_and_disjoint() {
        assert_eq!(j("abc", "abc"), 1.0);
        assert_eq!(j("abc", "xyz"), 0.0);
        assert_eq!(jw("", ""), 1.0);
        assert_eq!(j("", "abc"), 0.0);
    }

    #[test]
    fn mask_and_vector_flags_take_the_same_steps() {
        let words = [
            "",
            "a",
            "martha",
            "marhta",
            "dicksonx",
            "jellyfish smellyfish",
        ];
        for a in words.map(chars) {
            for b in words.map(chars) {
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                let masks = jaro_with(&a, &b, 0u64, 0u64);
                let vectors = jaro_with(&a, &b, vec![false; a.len()], vec![false; b.len()]);
                assert_eq!(masks.to_bits(), vectors.to_bits(), "{a:?} / {b:?}");
            }
        }
        // Past 64 chars the vector flags take over, at either side.
        let long = chars(&"abcdefghij".repeat(7));
        assert_eq!(jaro_chars(&long, &long), 1.0);
        assert!(jaro_chars(&long, &chars("abcdefghij")) > 0.0);
    }

    #[test]
    fn single_chars() {
        assert_eq!(j("a", "a"), 1.0);
        assert_eq!(j("a", "b"), 0.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::{j, jw};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn range_and_symmetry(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
            let s1 = j(&a, &b);
            let s2 = j(&b, &a);
            prop_assert!((s1 - s2).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&s1));
            let w = jw(&a, &b);
            prop_assert!((0.0..=1.0).contains(&w));
            prop_assert!(w + 1e-12 >= s1);
        }

        #[test]
        fn identity(a in "[a-z]{1,10}") {
            prop_assert_eq!(j(&a, &a), 1.0);
            prop_assert_eq!(jw(&a, &a), 1.0);
        }
    }
}
