//! Edit distance: Levenshtein and its normalized similarity.

/// Levenshtein distance (unit costs) between two strings, by characters.
///
/// Two-row dynamic program; O(|a|·|b|) time, O(min) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Keep the shorter string as the row to halve memory.
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Normalized Levenshtein similarity: `1 - dist / max_len` (1 for two
/// empty strings).
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn transpositions() {
        assert_eq!(levenshtein("ca", "ac"), 2);
    }

    #[test]
    fn normalized_range() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("a", "a"), 1.0);
        assert_eq!(levenshtein_sim("a", "b"), 0.0);
        let s = levenshtein_sim("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn unicode_chars_counted_once() {
        assert_eq!(levenshtein("café", "cafe"), 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn symmetry(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn identity(a in "[a-z]{0,12}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
            prop_assert_eq!(levenshtein_sim(&a, &a), 1.0);
        }

        #[test]
        fn triangle_inequality(a in "[a-z]{0,8}", b in "[a-z]{0,8}", c in "[a-z]{0,8}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn sim_in_range(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let s = levenshtein_sim(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}
