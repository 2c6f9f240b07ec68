//! Loading logical sources and association mappings from TSV files.
//!
//! Downstream users bring their own data; this module gives them the
//! plain-text on-ramp. A source file is a TSV table whose header declares
//! the schema:
//!
//! ```text
//! #source Publication@DBLP
//! id  title:text  authors:list  year:year  citations:int
//! conf/vldb/X01   Generic Schema Matching with Cupid  J. Madhavan|P. Bernstein|E. Rahm    2001    69
//! ```
//!
//! `list` values separate items with `|`. An association file is a
//! two-column TSV of `domain_id range_id` (see
//! [`load_association`]).

use std::path::Path;

use moma_core::Mapping;
use moma_model::{AttrDef, AttrKind, AttrValue, LdsId, LogicalSource, ObjectType, SourceRegistry};
use moma_table::MappingTable;

/// Errors raised while loading TSV data.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file content.
    Format {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        msg: String,
    },
    /// Propagated model error (duplicate ids, schema mismatch, …).
    Model(moma_model::ModelError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "load io error: {e}"),
            LoadError::Format { line, msg } => write!(f, "load error at line {line}: {msg}"),
            LoadError::Model(e) => write!(f, "load error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<moma_model::ModelError> for LoadError {
    fn from(e: moma_model::ModelError) -> Self {
        LoadError::Model(e)
    }
}

fn parse_value(kind: AttrKind, raw: &str, line: usize) -> Result<AttrValue, LoadError> {
    Ok(match kind {
        AttrKind::Text => AttrValue::Text(raw.to_owned()),
        AttrKind::TextList => {
            AttrValue::TextList(raw.split('|').map(|s| s.trim().to_owned()).collect())
        }
        AttrKind::Int => AttrValue::Int(raw.parse().map_err(|e| LoadError::Format {
            line,
            msg: format!("bad int `{raw}`: {e}"),
        })?),
        AttrKind::Year => AttrValue::Year(raw.parse().map_err(|e| LoadError::Format {
            line,
            msg: format!("bad year `{raw}`: {e}"),
        })?),
        AttrKind::Real => AttrValue::Real(raw.parse().map_err(|e| LoadError::Format {
            line,
            msg: format!("bad real `{raw}`: {e}"),
        })?),
    })
}

/// Parse a source from TSV text (see module docs for the format).
pub fn parse_source(text: &str) -> Result<LogicalSource, LoadError> {
    let mut lines = text.lines().enumerate();

    // `#source Type@PDS` directive.
    let (type_name, pds) = loop {
        let Some((no, line)) = lines.next() else {
            return Err(LoadError::Format {
                line: 0,
                msg: "missing `#source Type@PDS` line".into(),
            });
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(rest) = line.strip_prefix("#source") else {
            return Err(LoadError::Format {
                line: no + 1,
                msg: "first line must be `#source Type@PDS`".into(),
            });
        };
        let name = rest.trim();
        let Some((ty, pds)) = name.split_once('@') else {
            return Err(LoadError::Format {
                line: no + 1,
                msg: format!("bad source name `{name}` (expected Type@PDS)"),
            });
        };
        break (ty.to_owned(), pds.to_owned());
    };

    // Header row: `id  attr:kind ...`.
    let (header_no, header) =
        lines
            .by_ref()
            .find(|(_, l)| !l.trim().is_empty())
            .ok_or(LoadError::Format {
                line: 0,
                msg: "missing header row".into(),
            })?;
    let mut cols = header.split('\t');
    match cols.next() {
        Some("id") => {}
        _ => {
            return Err(LoadError::Format {
                line: header_no + 1,
                msg: "header must start with `id`".into(),
            })
        }
    }
    let mut schema = Vec::new();
    for col in cols {
        let Some((name, kind)) = col.split_once(':') else {
            return Err(LoadError::Format {
                line: header_no + 1,
                msg: format!("bad header column `{col}` (expected name:kind)"),
            });
        };
        schema.push(AttrDef::new(
            name.trim(),
            kind.trim().parse().map_err(|msg| LoadError::Format {
                line: header_no + 1,
                msg,
            })?,
        ));
    }

    let mut lds = LogicalSource::new(pds, ObjectType::new(type_name), schema.clone());
    for (no, line) in lines {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let id = fields
            .next()
            .filter(|s| !s.is_empty())
            .ok_or(LoadError::Format {
                line: no + 1,
                msg: "missing id".into(),
            })?;
        let mut values: Vec<(usize, AttrValue)> = Vec::new();
        for (slot, raw) in fields.enumerate() {
            if slot >= schema.len() {
                return Err(LoadError::Format {
                    line: no + 1,
                    msg: format!("too many columns (schema has {})", schema.len()),
                });
            }
            if raw.is_empty() {
                continue; // missing value
            }
            values.push((slot, parse_value(schema[slot].kind, raw, no + 1)?));
        }
        let mut inst = moma_model::ObjectInstance::new(id, schema.len());
        for (slot, v) in values {
            inst.set(slot, v);
        }
        lds.insert(inst)?;
    }
    Ok(lds)
}

/// Load a source file and register it.
pub fn load_source(
    registry: &mut SourceRegistry,
    path: impl AsRef<Path>,
) -> Result<LdsId, LoadError> {
    let text = std::fs::read_to_string(path)?;
    let lds = parse_source(&text)?;
    Ok(registry.register(lds)?)
}

/// Parse an association mapping from two-column TSV
/// (`domain_id \t range_id [\t sim]`), resolving ids through the given
/// sources. Unknown ids produce an error (associations are source data
/// and must be consistent).
pub fn parse_association(
    text: &str,
    registry: &SourceRegistry,
    name: &str,
    assoc_type: &str,
    domain: LdsId,
    range: LdsId,
) -> Result<Mapping, LoadError> {
    let d_lds = registry.lds(domain);
    let r_lds = registry.lds(range);
    let mut table = MappingTable::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(d), Some(r)) = (parts.next(), parts.next()) else {
            return Err(LoadError::Format {
                line: no + 1,
                msg: "expected two columns".into(),
            });
        };
        let sim: f64 = match parts.next() {
            Some(s) => s.parse().map_err(|e| LoadError::Format {
                line: no + 1,
                msg: format!("bad sim `{s}`: {e}"),
            })?,
            None => 1.0,
        };
        let di = d_lds.index_of(d).ok_or_else(|| LoadError::Format {
            line: no + 1,
            msg: format!("unknown domain id `{d}`"),
        })?;
        let ri = r_lds.index_of(r).ok_or_else(|| LoadError::Format {
            line: no + 1,
            msg: format!("unknown range id `{r}`"),
        })?;
        table.push(di, ri, sim);
    }
    table.dedup_max();
    Ok(Mapping::association(name, assoc_type, domain, range, table))
}

/// Load an association file.
#[allow(clippy::too_many_arguments)]
pub fn load_association(
    registry: &SourceRegistry,
    path: impl AsRef<Path>,
    name: &str,
    assoc_type: &str,
    domain: LdsId,
    range: LdsId,
) -> Result<Mapping, LoadError> {
    let text = std::fs::read_to_string(path)?;
    parse_association(&text, registry, name, assoc_type, domain, range)
}

/// Serialize a mapping result with string ids
/// (`domain_id \t range_id \t sim`), the inverse of [`parse_association`].
pub fn mapping_to_tsv(registry: &SourceRegistry, mapping: &Mapping) -> String {
    let d_lds = registry.lds(mapping.domain);
    let r_lds = registry.lds(mapping.range);
    let mut out = format!("# {} ({} correspondences)\n", mapping.name, mapping.len());
    for c in mapping.table.iter() {
        if let (Some(d), Some(r)) = (d_lds.get(c.domain), r_lds.get(c.range)) {
            out.push_str(&format!("{}\t{}\t{}\n", d.id, r.id, c.sim));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = "\
#source Publication@DBLP
id\ttitle:text\tauthors:list\tyear:year\tcitations:int
p1\tGeneric Schema Matching with Cupid\tJ. Madhavan|P. Bernstein|E. Rahm\t2001\t69
p2\tPotter's Wheel\tV. Raman|J. Hellerstein\t2001\t
p3\tNo attrs at all\t\t\t
";

    #[test]
    fn parse_source_full() {
        let lds = parse_source(SOURCE).unwrap();
        assert_eq!(lds.name(), "Publication@DBLP");
        assert_eq!(lds.len(), 3);
        let p1 = lds.by_id("p1").unwrap();
        assert_eq!(
            p1.value(0).unwrap().as_text(),
            Some("Generic Schema Matching with Cupid")
        );
        assert_eq!(p1.value(1).unwrap().as_text_list().unwrap().len(), 3);
        assert_eq!(p1.value(2).unwrap().as_year(), Some(2001));
        assert_eq!(p1.value(3).unwrap().as_int(), Some(69));
        // Missing trailing values stay missing.
        let p2 = lds.by_id("p2").unwrap();
        assert!(p2.value(3).is_none());
        // p3 has only its title; the three empty columns stay missing.
        let p3 = lds.by_id("p3").unwrap();
        assert_eq!(p3.present_count(), 1);
    }

    #[test]
    fn parse_source_errors() {
        assert!(matches!(parse_source(""), Err(LoadError::Format { .. })));
        assert!(matches!(
            parse_source("#source NoAtSign\nid\tt:text\n"),
            Err(LoadError::Format { .. })
        ));
        assert!(matches!(
            parse_source("#source A@B\nwrong\tt:text\n"),
            Err(LoadError::Format { .. })
        ));
        assert!(matches!(
            parse_source("#source A@B\nid\tt:nokind\n"),
            Err(LoadError::Format { .. })
        ));
        let dup = "#source A@B\nid\tt:text\nx\ta\nx\tb\n";
        assert!(matches!(parse_source(dup), Err(LoadError::Model(_))));
        let bad_year = "#source A@B\nid\ty:year\nx\tnope\n";
        assert!(matches!(
            parse_source(bad_year),
            Err(LoadError::Format { .. })
        ));
    }

    #[test]
    fn association_roundtrip() {
        let mut reg = SourceRegistry::new();
        let pubs = parse_source(SOURCE).unwrap();
        let d = reg.register(pubs).unwrap();
        let mut venues = LogicalSource::new(
            "DBLP",
            ObjectType::new("Venue"),
            vec![AttrDef::text("name")],
        );
        venues
            .insert_record("v1", vec![("name", "VLDB 2001".into())])
            .unwrap();
        let r = reg.register(venues).unwrap();

        let assoc_text = "p1\tv1\np2\tv1\t0.9\n";
        let m =
            parse_association(assoc_text, &reg, "PubVenue", "venue of publication", d, r).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.table.sim_of(0, 0), Some(1.0));
        assert_eq!(m.table.sim_of(1, 0), Some(0.9));

        let tsv = mapping_to_tsv(&reg, &m);
        assert!(tsv.contains("p1\tv1\t1"));
        assert!(tsv.contains("p2\tv1\t0.9"));

        // Unknown ids rejected.
        assert!(matches!(
            parse_association("ghost\tv1\n", &reg, "x", "t", d, r),
            Err(LoadError::Format { .. })
        ));
    }

    #[test]
    fn file_loading() {
        let dir = std::env::temp_dir().join("moma_loader_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("pubs.tsv"), SOURCE).unwrap();
        let mut reg = SourceRegistry::new();
        let id = load_source(&mut reg, dir.join("pubs.tsv")).unwrap();
        assert_eq!(reg.lds(id).len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
