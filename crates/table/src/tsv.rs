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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_rewrites_only_structural_characters() {
        for (s, escaped) in [
            ("plain", "plain"),
            ("tab\there", "tab\\there"),
            ("new\nline", "new\\nline"),
            ("cr\rreturn", "cr\\rreturn"),
            ("back\\slash", "back\\\\slash"),
            ("quote\"and'quote", "quote\"and'quote"),
            ("mixé — ünïcode ★", "mixé — ünïcode ★"),
            ("\\t literal backslash-t", "\\\\t literal backslash-t"),
            ("", ""),
            ("\t\n\r\\", "\\t\\n\\r\\\\"),
        ] {
            assert_eq!(escape_field(s), escaped, "escape of {s:?}");
        }
    }
}
