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
//! `"`, `\`, control characters and nothing else. There is one
//! encoder, [`Json::write_into`]: it appends the compact text to a
//! buffer, and `Display`, [`Json::pretty`], the wire, WAL records and
//! checkpoint images all go through it. Parsing accepts arbitrary
//! whitespace and `\uXXXX` escapes (including surrogate pairs) and
//! enforces a nesting-depth limit so hostile frames cannot blow the
//! stack. The parser doubles as a cursor: a checkpoint image is walked
//! one piece at a time, never parsed into one tree.
//!
//! [`Json::Raw`] is text the encoder copies verbatim. Only a read reply
//! carries one — a `query`'s `rows`, written straight from the read
//! view's id column — because a read reply is only ever encoded, never
//! looked into: a request, a WAL record or an `install` literal is a
//! tree. A `Raw` is opaque in process: `get` and
//! `as_arr` on it are `None`, and it equals only a `Raw` of the same
//! text — never the `Arr` it encodes. Parse the encoded bytes to read
//! it.

use std::fmt;
use std::mem::take;

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
    /// Pre-encoded JSON text, written as is. Only read replies carry
    /// one (see the module docs).
    Raw(String),
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
            (Json::Raw(a), Json::Raw(b)) => a == b,
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

    /// The elements, if an array — a [`Json::Raw`] is not one, even
    /// when its text is.
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
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.write_into(out),
        }
    }

    /// Append this value's compact encoding to `out` — the one encoder.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no Inf/NaN; null is the standard stand-in.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // Integral below 2^53: an integer, without a fraction.
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 => {
                push_display(out, *n as i64)
            }
            Json::Num(n) => push_display(out, n),
            Json::Uint(n) => push_display(out, n),
            Json::Int(n) => push_display(out, n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    write_str(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text),
        }
    }

    /// Parse a JSON document (the full text must be one value, trailing
    /// whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        let v = p.tree()?;
        p.end()?;
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

/// Append `s` as a JSON string: the unescaped runs are copied as
/// slices, and only `"`, `\` and the bytes below 0x20 are escaped. A
/// UTF-8 continuation byte is ≥ 0x80, so no multi-byte scalar is split.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.extend([b >> 4, b & 0xf].map(|d| char::from_digit(d.into(), 16).unwrap_or('0')));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `v`'s `Display` text: an integer, or a finite double in Rust's
/// shortest round-trip form.
fn push_display(out: &mut String, v: impl fmt::Display) {
    use fmt::Write as _;
    let _ = write!(out, "{v}");
}

/// The parser, and the cursor a decoder walks a large document with.
///
/// [`Json::parse`] builds the whole tree. A cursor builds only what its
/// caller asks for: [`Parser::object_but`] builds an object's members
/// but a few, which it returns as text; [`Parser::need_items`] visits
/// an array one item at a time; [`Parser::tree`] builds one value.
/// What a walk passes over is checked as `Json::parse` checks it, so a
/// walk refuses exactly the texts `Json::parse` refuses.
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The string read last, unescaped: reused while a walk passes over
    /// strings, taken by the tree when it builds one.
    scratch: String,
}

impl<'a> Parser<'a> {
    /// A cursor at the first value of `text`.
    pub(crate) fn new(text: &'a str) -> Parser<'a> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            scratch: String::new(),
        };
        p.skip_ws();
        p
    }

    /// The next value, as a tree.
    pub(crate) fn tree(&mut self) -> Result<Json, String> {
        self.value(0, true)
    }

    /// Walk the object that comes next. The first occurrence of each
    /// member named in `walk` is passed over and returned as its text;
    /// every other member is built into one object, in order — what a
    /// decoder of the whole tree would read through [`Json::get`]. A
    /// value that is no object is built whole, and nothing is walked.
    pub(crate) fn object_but<const N: usize>(
        &mut self,
        walk: [&str; N],
    ) -> Result<(Json, [Option<&'a str>; N]), String> {
        let mut walked = [None; N];
        if self.peek() != Some(b'{') {
            return Ok((self.tree()?, walked));
        }
        let mut members = Vec::new();
        self.list('}', |p| {
            p.key()?;
            match walk.iter().position(|w| *w == p.scratch) {
                Some(i) if walked[i].is_none() => walked[i] = Some(p.skip(1)?),
                Some(_) => drop(p.skip(1)?),
                None => members.push((take(&mut p.scratch), p.value(1, true)?)),
            }
            Ok(())
        })?;
        Ok((Json::Obj(members), walked))
    }

    /// [`Json::need_arr`] over text: call `each` with a cursor at every
    /// item of `text`, member `key` of a `what`, which `each` must read —
    /// or refuse the member as `need_arr` refuses an absent or non-array
    /// one.
    pub(crate) fn need_items(
        what: &str,
        key: &str,
        text: Option<&'a str>,
        each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut p = Parser::new(text.unwrap_or_default());
        if p.peek() != Some(b'[') {
            return Err(format!("{what} missing `{key}` array"));
        }
        p.list(']', each)
    }

    /// Nothing but whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(())
    }

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

    /// The next value, built when `build` — else only checked, with the
    /// same checks, and `Json::Null` returned.
    fn value(&mut self, depth: usize, build: bool) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') if build => self.string().map(|()| Json::Str(take(&mut self.scratch))),
            Some(b'"') => self.string().map(|()| Json::Null),
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(']', |p| {
                    let item = p.value(depth + 1, build)?;
                    items.extend(build.then_some(item));
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.list('}', |p| {
                    p.key()?;
                    let key = build.then(|| take(&mut p.scratch));
                    let v = p.value(depth + 1, build)?;
                    members.extend(key.map(|key| (key, v)));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    /// Pass over the next value, checked, and return its text.
    fn skip(&mut self, depth: usize) -> Result<&'a str, String> {
        let start = self.pos;
        self.value(depth, false)?;
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("a whole value"))
    }

    /// The separators of the array or object whose opening bracket is
    /// next, up to and including `close`; `item` reads each element.
    fn list(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close as u8) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if char::from(b) == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `{close}` at offset {}", self.pos)),
            }
        }
    }

    /// An object member's key, into `scratch`, and its colon.
    fn key(&mut self) -> Result<(), String> {
        self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
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

    /// Read the next string, unescaped, into `scratch`.
    fn string(&mut self) -> Result<(), String> {
        self.scratch.clear();
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => self.scratch.push('"'),
                        Some(b'\\') => self.scratch.push('\\'),
                        Some(b'/') => self.scratch.push('/'),
                        Some(b'b') => self.scratch.push('\u{8}'),
                        Some(b'f') => self.scratch.push('\u{c}'),
                        Some(b'n') => self.scratch.push('\n'),
                        Some(b'r') => self.scratch.push('\r'),
                        Some(b't') => self.scratch.push('\t'),
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
                            self.scratch.push(c);
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
                    self.scratch.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii"),
                    );
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
                    self.scratch.push_str(s);
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
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The formatter-driven `Display` of 9128605, kept as the oracle the
    /// buffer encoder must match byte for byte.
    struct Oracle<'a>(&'a Json);

    impl fmt::Display for Oracle<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Num(n) => {
                    if !n.is_finite() {
                        f.write_str("null")
                    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                }
                Json::Uint(n) => write!(f, "{n}"),
                Json::Int(n) => write!(f, "{n}"),
                Json::Str(s) => oracle_escaped(f, s),
                Json::Arr(items) => {
                    f.write_str("[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{}", Oracle(item))?;
                    }
                    f.write_str("]")
                }
                Json::Obj(members) => {
                    f.write_str("{")?;
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        oracle_escaped(f, k)?;
                        f.write_str(":")?;
                        write!(f, "{}", Oracle(v))?;
                    }
                    f.write_str("}")
                }
                Json::Raw(_) => unreachable!("the oracle predates `Raw`"),
            }
        }
    }

    fn oracle_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

    /// Characters a string is drawn from: every escaped byte, 0x7F, and
    /// 1- to 4-byte UTF-8 including astral planes.
    const CHARS: [char; 14] = [
        'a',
        'Z',
        ' ',
        '/',
        '\u{7f}',
        '\u{80}',
        'é',
        '\u{7ff}',
        '中',
        '\u{fffd}',
        '😀',
        '\u{10ffff}',
        '"',
        '\\',
    ];

    /// Numbers on every edge of the integer rule and of `f64`.
    const NUMS: [f64; 22] = [
        0.0,
        -0.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_992.0,
        9_007_199_254_740_991.0,
        -9_007_199_254_740_991.0,
        9_007_199_254_740_994.0,
        -9_007_199_254_740_994.0,
        1e-7,
        5e-324,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1 + 0.2,
        0.857_142_857_142_857_1,
        1.0,
        -17.0,
        1e21,
        123_456.789,
    ];

    /// Trees of every variant but `Raw`, up to depth 3.
    struct Trees;

    impl Strategy for Trees {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            tree(rng, 3)
        }
    }

    fn string(rng: &mut TestRng) -> String {
        (0..rng.below(12))
            .map(|_| match rng.below(3) {
                0 => char::from(rng.below(0x20) as u8),
                _ => CHARS[rng.below(CHARS.len() as u64) as usize],
            })
            .collect()
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Json {
        let leaf = if depth == 0 { 7 } else { 9 };
        match rng.below(leaf) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Num(NUMS[rng.below(NUMS.len() as u64) as usize]),
            3 => Json::Num(f64::from_bits(rng.next_u64())),
            4 => Json::Uint([0, 1 << 53, u64::MAX, rng.next_u64()][rng.below(4) as usize]),
            5 => Json::Int([i64::MIN, i64::MAX, -1, rng.next_u64() as i64][rng.below(4) as usize]),
            6 => Json::Str(string(rng)),
            7 => Json::Arr((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (string(rng), tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        /// The buffer encoder writes exactly the bytes of the formatter
        /// it replaced, and `Display` is the buffer encoder.
        #[test]
        fn the_encoder_writes_what_display_wrote(trees in prop::collection::vec(Trees, 1..16)) {
            for v in &trees {
                let mut out = String::from("prefix");
                v.write_into(&mut out);
                let want = Oracle(v).to_string();
                prop_assert_eq!(&out["prefix".len()..], want.as_str());
                prop_assert_eq!(v.to_string(), want);
            }
        }
    }

    /// Every byte below 0x20, 0x7F and every number edge, one at a time.
    #[test]
    fn every_escape_and_number_edge_matches_the_oracle() {
        let singles = (0u8..0x20)
            .chain([0x7f])
            .map(|b| Json::Str(char::from(b).to_string()));
        let nums = NUMS.iter().map(|&n| Json::Num(n));
        let ints = [
            Json::Uint(u64::MAX),
            Json::Uint(0),
            Json::Int(i64::MIN),
            Json::Int(i64::MAX),
        ];
        for v in singles.chain(nums).chain(ints) {
            assert_eq!(v.to_string(), Oracle(&v).to_string(), "{v:?}");
        }
        assert_eq!(Json::Num(-0.0).to_string(), "0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(
            Json::Str("\u{1}\u{1f}".into()).to_string(),
            r#""\u0001\u001f""#
        );
    }

    /// `Raw` is written verbatim and is opaque in process.
    #[test]
    fn raw_is_copied_verbatim_and_equals_only_raw() {
        let rows = Json::Arr(vec![Json::Arr(vec![
            Json::Str("d1".into()),
            Json::Num(0.5),
        ])]);
        let raw = Json::Raw(rows.to_string());
        let reply = Json::obj(vec![("rows", raw.clone())]);
        assert_eq!(reply.to_string(), r#"{"rows":[["d1",0.5]]}"#);
        assert_eq!(reply.pretty(), "{\n  \"rows\": [[\"d1\",0.5]]\n}");
        assert_eq!(raw.as_arr(), None);
        assert_eq!(raw.get("rows"), None);
        assert_ne!(raw, rows);
        assert_eq!(raw, Json::Raw(rows.to_string()));
    }

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
