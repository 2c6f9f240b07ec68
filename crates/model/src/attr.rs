//! Attribute values and schema definitions.
//!
//! MOMA matches *real, dirty data* which "may not have a rich schema"
//! (paper Section 1). Attributes are therefore dynamically typed and
//! optional: every instance stores `Option<AttrValue>` per schema slot.

use std::fmt;
use std::str::FromStr;

/// The dynamic kind of an attribute, declared in an LDS schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// Free text, e.g. a publication title.
    Text,
    /// A list of text values, e.g. an author-name list.
    TextList,
    /// Integer quantity, e.g. a citation count.
    Int,
    /// A calendar year, e.g. the publication year.
    Year,
    /// Floating point quantity.
    Real,
}

impl AttrKind {
    /// Accepted spellings (matched ignoring ASCII case). A kind's first
    /// spelling is the one `Display` prints — the kind in a TSV header,
    /// the `"t"` tag of a value on the wire, in WAL records and in
    /// checkpoints.
    pub const NAMES: &'static [(&'static str, AttrKind)] = &[
        ("text", AttrKind::Text),
        ("str", AttrKind::Text),
        ("string", AttrKind::Text),
        ("list", AttrKind::TextList),
        ("textlist", AttrKind::TextList),
        ("int", AttrKind::Int),
        ("integer", AttrKind::Int),
        ("year", AttrKind::Year),
        ("real", AttrKind::Real),
        ("float", AttrKind::Real),
    ];
}

impl FromStr for AttrKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let hit = Self::NAMES.iter().find(|(n, _)| n.eq_ignore_ascii_case(s));
        hit.map(|&(_, kind)| kind)
            .ok_or_else(|| format!("unknown attr kind `{s}`"))
    }
}

impl fmt::Display for AttrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hit = Self::NAMES.iter().find(|(_, kind)| kind == self);
        f.write_str(hit.expect("every kind has a spelling").0)
    }
}

/// A dynamically typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Free text.
    Text(String),
    /// List of text values (kept in source order).
    TextList(Vec<String>),
    /// Integer quantity.
    Int(i64),
    /// Calendar year.
    Year(u16),
    /// Floating point quantity.
    Real(f64),
}

impl AttrValue {
    /// The kind corresponding to this value.
    pub fn kind(&self) -> AttrKind {
        match self {
            AttrValue::Text(_) => AttrKind::Text,
            AttrValue::TextList(_) => AttrKind::TextList,
            AttrValue::Int(_) => AttrKind::Int,
            AttrValue::Year(_) => AttrKind::Year,
            AttrValue::Real(_) => AttrKind::Real,
        }
    }

    /// Borrow as text if this is a [`AttrValue::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttrValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a text list if this is a [`AttrValue::TextList`].
    pub fn as_text_list(&self) -> Option<&[String]> {
        match self {
            AttrValue::TextList(v) => Some(v),
            _ => None,
        }
    }

    /// Return the year if this is a [`AttrValue::Year`].
    pub fn as_year(&self) -> Option<u16> {
        match self {
            AttrValue::Year(y) => Some(*y),
            _ => None,
        }
    }

    /// Return the integer if this is an [`AttrValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Render the value as a plain string for similarity computation.
    ///
    /// Text lists are joined with `", "` (the representation attribute
    /// matchers see when matching e.g. whole author lists); numbers use
    /// their canonical decimal form.
    pub fn to_match_string(&self) -> String {
        match self {
            AttrValue::Text(s) => s.clone(),
            AttrValue::TextList(v) => v.join(", "),
            AttrValue::Int(i) => i.to_string(),
            AttrValue::Year(y) => y.to_string(),
            AttrValue::Real(r) => format!("{r}"),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_match_string())
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Text(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Text(s)
    }
}

impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}

impl From<u16> for AttrValue {
    fn from(y: u16) -> Self {
        AttrValue::Year(y)
    }
}

impl From<Vec<String>> for AttrValue {
    fn from(v: Vec<String>) -> Self {
        AttrValue::TextList(v)
    }
}

/// Schema entry: an attribute name plus its declared kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name as used in match workflows, e.g. `"title"`.
    pub name: String,
    /// Declared kind.
    pub kind: AttrKind,
}

impl AttrDef {
    /// Create a new attribute definition.
    pub fn new(name: impl Into<String>, kind: AttrKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// Shorthand for a [`AttrKind::Text`] attribute.
    pub fn text(name: impl Into<String>) -> Self {
        Self::new(name, AttrKind::Text)
    }

    /// Shorthand for a [`AttrKind::TextList`] attribute.
    pub fn text_list(name: impl Into<String>) -> Self {
        Self::new(name, AttrKind::TextList)
    }

    /// Shorthand for a [`AttrKind::Year`] attribute.
    pub fn year(name: impl Into<String>) -> Self {
        Self::new(name, AttrKind::Year)
    }

    /// Shorthand for an [`AttrKind::Int`] attribute.
    pub fn int(name: impl Into<String>) -> Self {
        Self::new(name, AttrKind::Int)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_kinds_roundtrip() {
        assert_eq!(AttrValue::Text("x".into()).kind(), AttrKind::Text);
        assert_eq!(AttrValue::TextList(vec![]).kind(), AttrKind::TextList);
        assert_eq!(AttrValue::Int(3).kind(), AttrKind::Int);
        assert_eq!(AttrValue::Year(2001).kind(), AttrKind::Year);
        assert_eq!(AttrValue::Real(0.5).kind(), AttrKind::Real);
    }

    #[test]
    fn accessors() {
        assert_eq!(AttrValue::Text("a".into()).as_text(), Some("a"));
        assert_eq!(AttrValue::Year(1999).as_year(), Some(1999));
        assert_eq!(AttrValue::Int(7).as_int(), Some(7));
        assert_eq!(AttrValue::Text("a".into()).as_year(), None);
        let l = AttrValue::TextList(vec!["x".into(), "y".into()]);
        assert_eq!(l.as_text_list().unwrap().len(), 2);
    }

    #[test]
    fn match_string_joins_lists() {
        let v = AttrValue::TextList(vec!["A. Thor".into(), "E. Rahm".into()]);
        assert_eq!(v.to_match_string(), "A. Thor, E. Rahm");
    }

    #[test]
    fn match_string_numbers() {
        assert_eq!(AttrValue::Year(2001).to_match_string(), "2001");
        assert_eq!(AttrValue::Int(-3).to_match_string(), "-3");
        assert_eq!(AttrValue::Real(1.5).to_match_string(), "1.5");
    }

    #[test]
    fn from_impls() {
        assert_eq!(AttrValue::from("t"), AttrValue::Text("t".into()));
        assert_eq!(AttrValue::from(2000u16), AttrValue::Year(2000));
        assert_eq!(AttrValue::from(5i64), AttrValue::Int(5));
    }

    #[test]
    fn attr_def_shorthands() {
        assert_eq!(AttrDef::text("title").kind, AttrKind::Text);
        assert_eq!(AttrDef::year("year").kind, AttrKind::Year);
        assert_eq!(AttrDef::int("citations").kind, AttrKind::Int);
        assert_eq!(AttrDef::text_list("authors").kind, AttrKind::TextList);
    }

    #[test]
    fn display_kind() {
        assert_eq!(AttrKind::TextList.to_string(), "list");
    }

    /// `parse(print(k)) == k`, and every spelling the TSV loader (any
    /// case) and the serving engine (the canonical five) accepted
    /// before the table moved here still names the same kind.
    #[test]
    fn kind_names_round_trip_and_keep_every_old_spelling() {
        use AttrKind::*;
        for kind in [Text, TextList, Int, Year, Real] {
            assert_eq!(kind.to_string().parse(), Ok(kind));
            assert_eq!(kind.to_string().to_uppercase().parse(), Ok(kind));
        }
        for (spelling, kind) in [
            ("text", Text),
            ("str", Text),
            ("String", Text),
            ("list", TextList),
            ("textlist", TextList),
            ("TextList", TextList),
            ("int", Int),
            ("integer", Int),
            ("year", Year),
            ("real", Real),
            ("float", Real),
        ] {
            assert_eq!(spelling.parse(), Ok(kind), "{spelling}");
        }
        let unknown = "date".parse::<AttrKind>();
        assert_eq!(unknown, Err("unknown attr kind `date`".to_owned()));
    }
}
