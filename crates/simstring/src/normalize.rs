//! Text normalization shared by all measures.
//!
//! Matching "real, dirty data" (paper Section 1) starts with a canonical
//! form: lowercase, punctuation folded to spaces, whitespace collapsed.

/// Normalize for matching: lowercase, non-alphanumerics → space,
/// whitespace runs collapsed, trimmed.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_into(s, &mut out);
    out
}

/// [`normalize`] appended to `out` (a reusable buffer): the normal form
/// of `s` follows whatever `out` already holds, which it leaves alone.
pub fn normalize_into(s: &str, out: &mut String) {
    let start = out.len();
    let mut last_space = true;
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    if out.len() > start && out.ends_with(' ') {
        out.pop();
    }
}

/// Normalize but keep periods (useful for abbreviated person names where
/// `"J."` is meaningful).
pub fn normalize_keep_periods(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for ch in s.chars() {
        if ch.is_alphanumeric() || ch == '.' {
            out.push(ch.to_ascii_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_strips() {
        assert_eq!(
            normalize("Generic Schema Matching, with Cupid!"),
            "generic schema matching with cupid"
        );
    }

    #[test]
    fn collapses_whitespace() {
        assert_eq!(normalize("  a   b\t\nc  "), "a b c");
    }

    #[test]
    fn empty_and_punct_only() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("---"), "");
    }

    #[test]
    fn unicode_lowering() {
        assert_eq!(normalize("VLDB–2002"), "vldb 2002");
    }

    #[test]
    fn keep_periods_preserves_initials() {
        assert_eq!(normalize_keep_periods("J. Smith"), "j. smith");
        assert_eq!(normalize("J. Smith"), "j smith");
    }
}
