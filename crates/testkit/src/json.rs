//! A minimal JSON reader/writer, replacing `serde` for the `results/`,
//! `CONTRACT.json` and sweep emitters and the tests that read them back.
//!
//! The value model is exactly what those artifacts need: null, bool,
//! finite numbers, strings, arrays, objects. Objects preserve insertion
//! order so emitted files are stable across runs. [`parse`] is a strict
//! recursive-descent reader for the same model; non-negative integers that
//! fit in `u64` parse as [`Json::UInt`] (exact), everything else numeric
//! as [`Json::Num`] — so serialize → parse round-trips cycle counts above
//! 2^53 without precision loss.
//!
//! # Example
//!
//! ```
//! use unizk_testkit::json::Json;
//!
//! let report = Json::obj([
//!     ("app", Json::str("fibonacci")),
//!     ("cycles", Json::from(123456u64)),
//!     ("fractions", Json::arr([0.5f64.into(), 0.25.into(), 0.25.into()])),
//! ]);
//! assert_eq!(
//!     report.to_string(),
//!     r#"{"app":"fibonacci","cycles":123456,"fractions":[0.5,0.25,0.25]}"#
//! );
//! ```

use core::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite floats serialize as `null`, matching
    /// `serde_json`'s behavior).
    Num(f64),
    /// An exact 64-bit unsigned integer (kept separate from `Num` so cycle
    /// counts above 2^53 don't lose precision).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An array from anything iterable.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object (`None` for missing keys and
    /// non-objects).
    ///
    /// ```
    /// use unizk_testkit::json::Json;
    /// let v = Json::obj([("a", Json::from(1u64))]);
    /// assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
    /// assert_eq!(v.get("missing"), None);
    /// ```
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer payload, if this is a [`Json::UInt`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `f64` ([`Json::Num`] or [`Json::UInt`] —
    /// the writer emits integral floats like `3.0` as `3`, which the
    /// parser reads back as `UInt`, so float fields must accept both).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is a [`Json::Obj`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, depth + 1);
                    out.push_str(&format!("{}: ", Escaped(k)));
                    v.write_pretty(out, depth + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::str(v)
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// A string with JSON escaping applied on display.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }
}

impl fmt::Display for Json {
    /// Compact (no whitespace) JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write!(f, "{}", Escaped(s)),
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
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Escaped(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Types that can render themselves as a [`Json`] value — the kit's
/// replacement for `#[derive(Serialize)]` on report structs.
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Examples
///
/// ```
/// use unizk_testkit::json::{parse, Json};
///
/// let v = parse(r#"{"cycles": 18446744073709551615, "ok": true}"#).unwrap();
/// assert_eq!(v, Json::obj([
///     ("cycles", Json::UInt(u64::MAX)),
///     ("ok", Json::Bool(true)),
/// ]));
/// // Round-trip: everything this module writes, it can read back.
/// assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
/// ```
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                c if c < 0x20 => return Err(self.err("unescaped control character")),
                _ => {
                    // Re-take the full UTF-8 character starting here.
                    self.pos -= 1;
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = s.chars().next().expect("non-empty checked above");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by \uDC00..=\uDFFF.
        if (0xD800..0xDC00).contains(&code) {
            self.eat("\\u")
                .map_err(|_| self.err("high surrogate not followed by low surrogate"))?;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(d) = self.peek().and_then(|c| (c as char).to_digit(16)) else {
                return Err(self.err("expected four hex digits after \\u"));
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::UInt(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::str("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te\u{1}").to_string(),
            r#""a\"b\\c\nd\te\u0001""#
        );
    }

    #[test]
    fn nested_compact() {
        let v = Json::obj([
            ("xs", Json::arr([Json::UInt(1), Json::UInt(2)])),
            ("ok", Json::Bool(false)),
        ]);
        assert_eq!(v.to_string(), r#"{"xs":[1,2],"ok":false}"#);
    }

    #[test]
    fn pretty_round_trips_structure() {
        let v = Json::obj([
            ("a", Json::arr([Json::UInt(1)])),
            ("b", Json::obj([("c", Json::Null)])),
            ("empty", Json::arr([])),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\"a\": [\n"), "{pretty}");
        assert!(pretty.contains("\"empty\": []"), "{pretty}");
        // Key order is preserved.
        assert!(pretty.find("\"a\"").unwrap() < pretty.find("\"b\"").unwrap());
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX),
            "u64::MAX stays exact"
        );
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("0.5").unwrap(), Json::Num(0.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("-1.25E-2").unwrap(), Json::Num(-0.0125));
        assert_eq!(parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parse_strings_with_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\te\u0001/\u00e9""#).unwrap(),
            Json::str("a\"b\\c\nd\te\u{1}/é")
        );
        assert_eq!(parse(r#""snowman \u2603""#).unwrap(), Json::str("snowman ☃"));
        // Surrogate pair → astral character.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::str("😀"));
        // Raw (unescaped) UTF-8 passes through.
        assert_eq!(parse("\"héllo ☃\"").unwrap(), Json::str("héllo ☃"));
    }

    #[test]
    fn parse_nested() {
        let v = parse(r#"{ "xs": [1, 2.5, null], "o": {"k": "v"}, "e": [] }"#).unwrap();
        assert_eq!(
            v,
            Json::obj([
                ("xs", Json::arr([Json::UInt(1), Json::Num(2.5), Json::Null])),
                ("o", Json::obj([("k", Json::str("v"))])),
                ("e", Json::arr([])),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2", "[1]]", "\"unterminated",
            "{'a':1}", "[,]", "\"\\q\"", "\"\\u12\"", "nul", "--1", "+1",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.message.is_empty());
            assert!(err.to_string().contains("JSON parse error"));
        }
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj([
            ("app", Json::str("fib\n\"quoted\"")),
            ("total_ns", Json::UInt(u64::MAX)),
            ("fraction", Json::Num(0.3333333333333333)),
            ("flags", Json::arr([Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("empty", Json::obj::<String>([]))])),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn to_json_on_collections() {
        struct P(u64);
        impl ToJson for P {
            fn to_json(&self) -> Json {
                Json::from(self.0)
            }
        }
        let v = vec![P(1), P(2)];
        assert_eq!(v.to_json().to_string(), "[1,2]");
    }
}
