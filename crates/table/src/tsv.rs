//! TSV field escaping: what the repository's string-id files
//! (`moma-core`) escape their ids with, so that a value cannot break the
//! line / column structure.

/// Escape a free-form string for use as one TSV field: backslash, tab,
/// newline and carriage return become `\\`, `\t`, `\n`, `\r`. Every
/// other character (quotes, non-ASCII, …) passes through unchanged —
/// only the characters that would break the line/column structure are
/// rewritten, so escaped fields stay human-readable.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_field`]. A backslash followed by anything other
/// than `\\`/`t`/`n`/`r` — which [`escape_field`] never produces — is
/// kept literally (lenient, so hand-edited files don't hard-fail).
pub fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_structural_characters() {
        for s in [
            "plain",
            "tab\there",
            "new\nline",
            "cr\rreturn",
            "back\\slash",
            "quote\"and'quote",
            "mixé — ünïcode ★",
            "\\t literal backslash-t",
            "",
            "\t\n\r\\",
        ] {
            let e = escape_field(s);
            assert!(
                !e.contains('\t') && !e.contains('\n') && !e.contains('\r'),
                "{e:?}"
            );
            assert_eq!(unescape_field(&e), s, "round trip of {s:?}");
        }
        // Lenient unescape: unknown escapes and trailing backslash pass through.
        assert_eq!(unescape_field("a\\xb"), "a\\xb");
        assert_eq!(unescape_field("end\\"), "end\\");
    }
}
