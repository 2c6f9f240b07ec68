//! Minimal JSON value, parser and writer.
//!
//! The build environment is offline (no serde), and the serving
//! protocol needs a real JSON round trip — requests arrive over the
//! wire, WAL records must replay bit-identically, and responses are
//! consumed by scripts. This module implements the subset of JSON the
//! protocol uses: objects (order-preserving), arrays, strings with full
//! escape handling, IEEE doubles, booleans and null.
//!
//! Writing is deterministic: object members keep insertion order,
//! numbers use Rust's shortest-round-trip `f64` formatting (integers
//! without a fractional part print as integers), and strings escape
//! `"`, `\`, control characters and nothing else. Parsing accepts
//! arbitrary whitespace and `\uXXXX` escapes (including surrogate
//! pairs) and enforces a nesting-depth limit so hostile frames cannot
//! blow the stack.

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`].
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (IEEE double, like JavaScript).
    Num(f64),
    /// An unsigned integer that must round-trip exactly even above
    /// 2^53 (WAL sequence numbers, request counters). Writes as a plain
    /// JSON integer; the parser produces this variant only for integer
    /// literals too large for an exact `f64`.
    Uint(u64),
    /// [`Json::Uint`]'s negative half: an integer below -2^53 (an `int`
    /// attribute value) that must round-trip exactly.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved (and is the write order).
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Uint(a), Json::Uint(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            // Numeric equality across representations: `Num(7.0)` and
            // `Uint(7)` are the same JSON number.
            (Json::Num(f), Json::Uint(u)) | (Json::Uint(u), Json::Num(f)) => {
                *f >= 0.0 && *f < u64::MAX as f64 && f.fract() == 0.0 && (*f as u64) == *u
            }
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The exact JSON number for `n`: a double where that is exact, as
    /// the parser would read its literal, else the integer variants.
    pub fn int(n: i64) -> Json {
        match n {
            _ if n.unsigned_abs() <= 1 << 53 => Json::Num(n as f64),
            _ if n < 0 => Json::Int(n),
            _ => Json::Uint(n as u64),
        }
    }

    /// Borrow the value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Move the value of `key` (first occurrence, as [`Json::get`]) out
    /// of an object, dropping the rest — how a batch envelope gives up
    /// its `results` without cloning them.
    pub fn take_field(self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(members) => members.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Replace-or-insert: drop every existing `key` member and append
    /// `(key, value)`, so [`Json::get`] (which returns the first
    /// occurrence) sees the new value. A non-object is returned as is.
    pub fn set_field(mut self, key: &str, value: Json) -> Json {
        if let Json::Obj(members) = &mut self {
            members.retain(|(k, _)| k != key);
            members.push((key.to_owned(), value));
        }
        self
    }

    /// The string contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if a number. [`Json::Uint`] values above 2^53 round
    /// to the nearest representable double — use [`Json::as_u64`] where
    /// exactness matters.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Uint(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The number as an `i64`, if it is exactly one: a double only up
    /// to ±2^53 (beyond that a literal the parser had to round is not
    /// the integer it spelled), the integer variants over their range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 => Some(*n as i64),
            Json::Uint(n) => i64::try_from(*n).ok(),
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if a non-negative integral number.
    /// [`Json::Uint`] values convert exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The required field `key` read through `get` ([`Json::as_str`],
    /// [`Json::as_u64`], …) — or, when it is absent or of another type,
    /// the one wording every decoder of requests, records and
    /// checkpoint images answers with: "`what` missing \`key\`".
    pub fn need<'j, T>(
        &'j self,
        what: impl fmt::Display,
        key: &str,
        get: impl FnOnce(&'j Json) -> Option<T>,
    ) -> Result<T, String> {
        let found = self.get(key).and_then(get);
        found.ok_or_else(|| format!("{what} missing `{key}`"))
    }

    /// [`Json::need`] for an array field ("… missing \`key\` array").
    pub fn need_arr(&self, what: impl fmt::Display, key: &str) -> Result<&[Json], String> {
        let found = self.get(key).and_then(Json::as_arr);
        found.ok_or_else(|| format!("{what} missing `{key}` array"))
    }

    /// Convenience: `get(key)` as `&str`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: `get(key)` as `f64`.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Pretty-print with two-space indentation (for human-read report
    /// files; the wire format stays compact via `Display`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&Json::Str(k.clone()).to_string());
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }

    /// Parse a JSON document (the full text must be one value, trailing
    /// whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no Inf/NaN; null is the standard stand-in.
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Uint(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    members.push((key, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii span");
        // Integer literals too large for an exact f64 (> 2^53) become
        // [`Json::Uint`] so counters and sequence numbers round-trip
        // bit-exactly; everything else stays a double as before.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = text.parse::<u64>() {
                if v > (1u64 << 53) {
                    return Ok(Json::Uint(v));
                }
            }
        } else if let Ok(v) = text.parse::<i64>() {
            if v < -(1i64 << 53) {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}` at offset {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "unescaped control character at offset {}",
                        self.pos
                    ));
                }
                Some(b) if b < 0x80 => {
                    // Copy the maximal run of plain ASCII in one go —
                    // validating the whole remaining input per character
                    // made string parsing quadratic in frame size.
                    let start = self.pos;
                    while let Some(&nb) = self.bytes.get(self.pos) {
                        if nb == b'"' || nb == b'\\' || !(0x20..0x80).contains(&nb) {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii"));
                }
                Some(b) => {
                    // One multi-byte UTF-8 scalar: width from the leading
                    // byte, validated over just that span.
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(format!("invalid utf-8 at offset {}", self.pos)),
                    };
                    let span = self
                        .bytes
                        .get(self.pos..self.pos + width)
                        .ok_or("truncated utf-8 scalar")?;
                    let s = std::str::from_utf8(span)
                        .map_err(|_| format!("invalid utf-8 at offset {}", self.pos))?;
                    out.push_str(s);
                    self.pos += width;
                }
            }
        }
    }

    /// Read 4 hex digits, advancing past them; returns the code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let span = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(span).map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("roundtrip parse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(3.5),
            Json::Num(1e300),
            Json::Num(0.1 + 0.2),
            Json::Str(String::new()),
            Json::Str("plain".into()),
            Json::Str("tab\t nl\n quote\" back\\ é 中 \u{1}".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "{v}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        let v = Json::obj(vec![
            ("zeta", Json::Num(1.0)),
            ("alpha", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("nested", Json::obj(vec![("k", Json::Str("v".into()))])),
        ]);
        let text = v.to_string();
        assert!(text.starts_with("{\"zeta\":1,"), "{text}");
        assert_eq!(roundtrip(&v), v);
        assert_eq!(v.get("alpha").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.str_field("missing"), None);
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let v =
            Json::parse(" { \"a\" : [ 1 , 2.5 ,\n\"\\u0041\\u00e9\\ud83d\\ude00\" ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("Aé😀"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "01x",
            "{\"a\":1} trailing",
            "\"\\ud800\"",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        // Depth bomb: reject instead of overflowing the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn u64_extraction_guards() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
        assert_eq!(Json::Uint(u64::MAX).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn uint_roundtrips_exactly_above_2_pow_53() {
        // Values in this range are NOT representable as f64; a Num-based
        // path would silently round them.
        for v in [
            (1u64 << 53) + 1,
            u64::MAX,
            u64::MAX - 1,
            u64::MAX - 3,
            10_000_000_000_000_000_003,
        ] {
            let text = Json::Uint(v).to_string();
            assert_eq!(text, v.to_string());
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_u64(), Some(v), "{text}");
            assert_eq!(back, Json::Uint(v));
        }
        // Small integers keep parsing as doubles (no behavior change).
        assert!(matches!(Json::parse("42").unwrap(), Json::Num(_)));
        assert!(matches!(
            Json::parse(&(1u64 << 53).to_string()).unwrap(),
            Json::Num(_)
        ));
        // Nested in an object, exactness survives a full round trip.
        let obj = Json::obj(vec![("seq", Json::Uint(u64::MAX - 1))]);
        let back = Json::parse(&obj.to_string()).unwrap();
        assert_eq!(back.get("seq").and_then(Json::as_u64), Some(u64::MAX - 1));
    }

    /// `Json::int` builds what the parser reads back: a double where
    /// that is exact, the integer variants beyond ±2^53.
    #[test]
    fn int_roundtrips_exactly_over_all_of_i64() {
        for v in [
            i64::MIN,
            -(1 << 53) - 1,
            -(1 << 53),
            -3,
            0,
            1 << 53,
            (1 << 53) + 1,
            i64::MAX,
        ] {
            let built = Json::int(v);
            assert_eq!(built.to_string(), v.to_string());
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(back.as_i64(), Some(v));
            assert_eq!(back, built);
            assert_eq!(matches!(back, Json::Num(_)), v.unsigned_abs() <= 1 << 53);
        }
        assert_eq!(Json::Num(1.5).as_i64(), None);
        assert_eq!(Json::Uint(1 << 63).as_i64(), None);
    }

    #[test]
    fn uint_num_numeric_equality() {
        assert_eq!(Json::Uint(7), Json::Num(7.0));
        assert_eq!(Json::Num(0.0), Json::Uint(0));
        assert_ne!(Json::Uint(7), Json::Num(7.5));
        assert_ne!(Json::Uint(u64::MAX), Json::Num(u64::MAX as f64));
    }
}
