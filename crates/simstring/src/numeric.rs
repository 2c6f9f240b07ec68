//! Year proximity (`SimFn::Year`).
//!
//! The paper's third attribute matcher in Table 2 "compares publication
//! years"; object-value constraints also bound the admissible year
//! difference ("the publication year of matching publications should not
//! differ by more than one year", Section 2.2).

/// Windowed year similarity: linear falloff to 0 at `window + 1` years of
/// difference. `window = 0` is exact year equality (1.0 or 0.0).
pub fn year_window(a: u16, b: u16, window: u16) -> f64 {
    let diff = a.abs_diff(b);
    if diff > window {
        0.0
    } else {
        1.0 - diff as f64 / (window as f64 + 1.0)
    }
}

/// Parse a year out of free text (first 4-digit group in 1500..=2100).
pub fn parse_year(s: &str) -> Option<u16> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i - start == 4 {
                if let Ok(y) = s[start..i].parse::<u16>() {
                    if (1500..=2100).contains(&y) {
                        return Some(y);
                    }
                }
            }
        } else {
            i += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality() {
        assert_eq!(year_window(2001, 2001, 0), 1.0);
        assert_eq!(year_window(2001, 2002, 0), 0.0);
    }

    #[test]
    fn window_falloff() {
        assert_eq!(year_window(2000, 2000, 1), 1.0);
        assert_eq!(year_window(2000, 2001, 1), 0.5);
        assert_eq!(year_window(2000, 2002, 1), 0.0);
        assert_eq!(year_window(2000, 2002, 2), 1.0 - 2.0 / 3.0);
        assert_eq!(year_window(2000, 2001, 0), 0.0);
    }

    #[test]
    fn year_parsing() {
        assert_eq!(parse_year("VLDB 2002"), Some(2002));
        assert_eq!(parse_year("pp. 59-68, 2001."), Some(2001));
        assert_eq!(parse_year("no year here"), None);
        assert_eq!(parse_year("12345"), None); // 5-digit group is not a year
        assert_eq!(parse_year("year 0999"), None); // out of range
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn window_sim_properties(a in 1990u16..2010, b in 1990u16..2010, w in 0u16..5) {
            let s = year_window(a, b, w);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert_eq!(s, year_window(b, a, w));
            if a == b { prop_assert_eq!(s, 1.0); }
        }
    }
}
