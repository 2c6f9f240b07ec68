//! TSV persistence for mapping tables.
//!
//! Mapping tables serialize to the obvious plain-text form — one
//! correspondence per line, `domain \t range \t sim` — with a one-line
//! header recording the row count. [`escape_field`] is what the
//! repository's string-id files (`moma-core`) escape their ids with.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::mapping_table::MappingTable;

/// Errors from TSV load/store.
#[derive(Debug)]
pub enum TsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line did not parse.
    Parse { line: usize, msg: String },
}

impl std::fmt::Display for TsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsvError::Io(e) => write!(f, "tsv io error: {e}"),
            TsvError::Parse { line, msg } => write!(f, "tsv parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TsvError {}

impl From<io::Error> for TsvError {
    fn from(e: io::Error) -> Self {
        TsvError::Io(e)
    }
}

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

/// Serialize a table to TSV text (numeric u32 columns).
pub fn to_string(table: &MappingTable) -> String {
    let mut out = String::with_capacity(16 + table.len() * 24);
    let _ = writeln!(out, "#moma-mapping-table\t{}", table.len());
    for c in table.iter() {
        let _ = writeln!(out, "{}\t{}\t{}", c.domain, c.range, c.sim);
    }
    out
}

/// Parse a table from TSV text produced by [`to_string`].
pub fn from_str(text: &str) -> Result<MappingTable, TsvError> {
    let mut table = MappingTable::new();
    for (no, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        fn field<'a>(p: Option<&'a str>, line: usize, what: &str) -> Result<&'a str, TsvError> {
            p.ok_or_else(|| TsvError::Parse {
                line,
                msg: format!("missing {what}"),
            })
        }
        let d: u32 = field(parts.next(), no + 1, "domain")?
            .parse()
            .map_err(|e| TsvError::Parse {
                line: no + 1,
                msg: format!("domain: {e}"),
            })?;
        let r: u32 =
            field(parts.next(), no + 1, "range")?
                .parse()
                .map_err(|e| TsvError::Parse {
                    line: no + 1,
                    msg: format!("range: {e}"),
                })?;
        let s: f64 = field(parts.next(), no + 1, "sim")?
            .parse()
            .map_err(|e| TsvError::Parse {
                line: no + 1,
                msg: format!("sim: {e}"),
            })?;
        table.push(d, r, s);
    }
    table.dedup_max();
    Ok(table)
}

/// Write a table to a file.
pub fn save(table: &MappingTable, path: impl AsRef<Path>) -> Result<(), TsvError> {
    fs::write(path, to_string(table))?;
    Ok(())
}

/// Read a table from a file.
pub fn load(path: impl AsRef<Path>) -> Result<MappingTable, TsvError> {
    from_str(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_numeric() {
        let t = MappingTable::from_triples([(0, 1, 0.6), (2, 3, 1.0), (4, 5, 0.123456)]);
        let text = to_string(&t);
        let back = from_str(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn header_and_comments_skipped() {
        let text = "#comment\n0\t1\t0.5\n\n2\t3\t0.25\n";
        let t = from_str(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.sim_of(2, 3), Some(0.25));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = from_str("0\t1\n").unwrap_err();
        match err {
            TsvError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        let err = from_str("0\tx\t0.5\n").unwrap_err();
        assert!(err.to_string().contains("range"));
    }

    #[test]
    fn file_roundtrip() {
        let t = MappingTable::from_triples([(1, 2, 0.75)]);
        let path = std::env::temp_dir().join("moma_tsv_roundtrip_test.tsv");
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, t);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn duplicate_rows_collapse_to_max() {
        let text = "0\t1\t0.3\n0\t1\t0.9\n";
        let t = from_str(text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.sim_of(0, 1), Some(0.9));
    }

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

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn text_roundtrip_is_identity(
            rows in prop::collection::vec((0u32..500, 0u32..500, 0.0f64..=1.0), 0..80)
        ) {
            let t = MappingTable::from_triples(rows);
            let back = from_str(&to_string(&t)).unwrap();
            prop_assert_eq!(back.len(), t.len());
            for c in t.iter() {
                let s = back.sim_of(c.domain, c.range).unwrap();
                prop_assert!((s - c.sim).abs() < 1e-12);
            }
        }
    }
}
