//! The spec-name helpers behind every `NAMES` table: a type whose
//! values a script, a serve request, a WAL record or a checkpoint can
//! name (`moma_core::ops`, `moma_core::blocking::Blocking`,
//! `moma_simstring::SimFn`) parses and prints them through these, from
//! that type's table of accepted spellings. A value's first spelling is
//! the canonical one.

/// The value `s` spells in a `NAMES` table (ASCII case ignored), or the
/// `unknown …` error listing the canonical names and the parameterized
/// `forms` (`weighted:W`, …) beside them.
pub fn parse_name<T: Clone + PartialEq>(
    names: &[(&str, T)],
    forms: &[&str],
    what: &str,
    s: &str,
) -> Result<T, String> {
    if let Some((_, v)) = names.iter().find(|(n, _)| n.eq_ignore_ascii_case(s)) {
        return Ok(v.clone());
    }
    let canonical = names
        .iter()
        .enumerate()
        .filter(|(i, (_, v))| names[..*i].iter().all(|(_, earlier)| earlier != v))
        .map(|(_, (n, _))| *n);
    let expected: Vec<&str> = canonical.chain(forms.iter().copied()).collect();
    Err(format!("unknown {what} `{s}` ({})", expected.join("/")))
}

/// The canonical (first) spelling of `v` in a `NAMES` table.
pub fn print_name<T: PartialEq>(names: &[(&'static str, T)], v: &T) -> &'static str {
    let hit = names.iter().find(|(_, named)| named == v);
    hit.expect("every unit value has a spelling").0
}

/// The `V` of a parameterized `key:V` spelling (key matched ignoring
/// ASCII case).
pub fn name_param<'s>(s: &'s str, key: &str) -> Option<&'s str> {
    let (k, v) = s.split_once(':')?;
    k.eq_ignore_ascii_case(key).then_some(v)
}
