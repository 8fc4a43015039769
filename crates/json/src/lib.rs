//! The one JSON codec of the APE workspace: a value type, a strict
//! recursive-descent parser, and a renderer whose `f64` output is Rust's
//! shortest-roundtrip `Display` form.
//!
//! The renderer's float format is what makes persisted calibration tables
//! and the daemon's wire results *bit-exact*: `f64::Display` prints the
//! shortest decimal string that parses back to the identical bits, so a
//! reader with any correctly-rounded `strtod` recovers exactly the floats
//! the estimator computed. Streaming writers that format their own lines
//! (probe traces, sweep JSONL) use the same [`escape`] and [`num`], so
//! every JSON byte the workspace emits follows one set of rules, and every
//! JSON file it reads back goes through [`parse`].
//!
//! The parser accepts RFC 8259 JSON and nothing else (no raw control
//! characters in strings, no leading zeros, no bare fraction points), with
//! a nesting bound so hostile input cannot overflow the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap): rendering is deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders this value as compact JSON (no whitespace, sorted keys,
    /// shortest-roundtrip floats). Non-finite numbers render as strings
    /// (`"inf"`, `"-inf"`, `"NaN"`) — JSON has no literal for them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(v) => {
                let _ = write!(out, "{}", num(*v));
            }
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", escape(k));
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Shorthand for a string value.
pub fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// Shorthand for a numeric value.
pub fn n(v: f64) -> Value {
    Value::Num(v)
}

/// An `Option<f64>` as number-or-null.
pub fn opt(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Num)
}

/// `s` escaped for the inside of a JSON string literal, as a `Display`
/// adapter: `format!("\"{}\"", escape(name))` writes a valid literal
/// without an intermediate `String`. Quote, backslash and every control
/// character below U+0020 are escaped; everything else is copied as is.
pub fn escape(s: &str) -> impl fmt::Display + '_ {
    Escaped(s)
}

struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Every byte that needs escaping is ASCII, and UTF-8 never uses an
        // ASCII byte inside a multi-byte scalar, so byte indices of escaped
        // characters are char boundaries.
        let mut run = 0;
        for (i, b) in self.0.bytes().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            f.write_str(&self.0[run..i])?;
            match b {
                b'"' => f.write_str("\\\""),
                b'\\' => f.write_str("\\\\"),
                b'\n' => f.write_str("\\n"),
                b'\r' => f.write_str("\\r"),
                b'\t' => f.write_str("\\t"),
                _ => write!(f, "\\u{b:04x}"),
            }?;
            run = i + 1;
        }
        f.write_str(&self.0[run..])
    }
}

/// `v` as a JSON number, as a `Display` adapter: Rust's shortest-roundtrip
/// form when finite, and the quoted strings `"inf"`, `"-inf"` or `"NaN"`
/// otherwise — JSON has no literal for them.
pub fn num(v: f64) -> impl fmt::Display {
    Num(v)
}

struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "\"{}\"", self.0)
        }
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Nesting bound: hostile input like `[[[[...` must not overflow the
/// parser's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.depth += 1;
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            // Duplicate keys: last one wins.
            members.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.depth += 1;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte. Those are ASCII, so both ends are char boundaries.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
            let escaped = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match escaped {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(self.err("bad escape")),
            }
        }
    }

    /// The scalar of a `\u` escape (the `\u` already consumed). A high
    /// surrogate followed by a `\u` low surrogate — how UTF-16-minded
    /// writers such as Python's `json.dumps` spell non-BMP characters —
    /// combines into one scalar; any other surrogate maps to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_hi = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            self.pos = after_hi;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let bytes = self.bytes;
        let hex = bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &b in hex {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Skips ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.digits() > 0 {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.1,
            1.0 / 3.0,
            5.420_921_003_163_208e-5,
            f64::MIN_POSITIVE,
            -2.2e-308,
            9.878_887_654e300,
        ] {
            let text = Value::Num(v).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn renders_deterministically_with_sorted_keys() {
        let a = obj([("zeta", n(1.0)), ("alpha", s("x"))]);
        assert_eq!(a.render(), r#"{"alpha":"x","zeta":1}"#);
    }

    #[test]
    fn escapes_and_unescapes() {
        assert_eq!(
            escape("a\"b\\c\nd\u{1}\u{e9}").to_string(),
            "a\\\"b\\\\c\\nd\\u0001\u{e9}"
        );
        let v = s("a\"b\\c\nd\u{1}\u{1f600}");
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_combine_and_strays_become_replacement_chars() {
        let str_of = |doc: &str| parse(doc).unwrap().as_str().unwrap().to_string();
        assert_eq!(str_of(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(str_of(r#""x\ud83d\ude00y""#), "x\u{1f600}y");
        assert_eq!(str_of(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(str_of(r#""\ude00""#), "\u{fffd}");
        assert_eq!(str_of(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert_eq!(str_of(r#""\ud83dA""#), "\u{fffd}A");
        assert_eq!(str_of(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(str_of(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
        assert!(parse(r#""\ud83d\u+041""#).is_err());
    }

    #[test]
    fn rejects_hostile_documents() {
        for bad in [
            "{",
            "[1,]",
            "{} x",
            "nul",
            "\"a\u{1}b\"",
            "\"a\nb\"",
            "\"\u{0}\"",
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            ".5",
            "1.e5",
            "-",
            "1e",
            "1e+",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        for (good, v) in [
            ("0", 0.0),
            ("-0.5e-3", -0.5e-3),
            ("10", 10.0),
            ("1E+2", 100.0),
        ] {
            assert_eq!(parse(good).unwrap().as_f64(), Some(v), "{good}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "depth bound must trip");
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn duplicate_keys_resolve_last_wins() {
        let v = parse(r#"{"a": 1, "b": [true, null], "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.render(), r#"{"a":2,"b":[true,null]}"#);
    }

    #[test]
    fn non_finite_numbers_render_as_strings() {
        assert_eq!(n(f64::INFINITY).render(), "\"inf\"");
        assert_eq!(n(f64::NAN).render(), "\"NaN\"");
    }
}
