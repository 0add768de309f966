//! A minimal, dependency-free JSON value: deterministic emission and a
//! strict parser.
//!
//! The workspace is deliberately free of external crates, so every JSON
//! artifact — campaign `BENCH_*.json` files, the result store, the CI
//! baseline, and the observability layer's JSONL / Chrome-trace exports —
//! is written and read by this module. Two properties matter more than
//! generality:
//!
//! * **Deterministic emission** — object keys keep insertion order, floats
//!   use Rust's shortest round-trip formatting, indentation is fixed. The
//!   same [`Json`] value always renders to the same bytes, which is what
//!   makes "byte-identical artifacts across thread counts" a testable
//!   guarantee.
//! * **Round-tripping** — everything the emitter produces, the parser
//!   accepts, so the store and the CI comparison gate read yesterday's
//!   artifacts without a schema mismatch.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (emission is
/// deterministic); integers are kept apart from floats so cycle counters
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects: that is a
    /// programming error, not a data error).
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("Json::push on a non-object"),
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value as `u64` (floats with integral value coerce).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline — the
    /// canonical artifact form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on a single line with no insignificant whitespace — the form
    /// used for JSONL event streams, where one value must occupy one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value at nesting depth `indent`, or on one line with no
    /// insignificant whitespace when `indent` is `None`. Empty containers
    /// are `[]` and `{}` either way.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_escaped(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// anything else is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Starts a line at depth `indent`; nothing in the compact form.
fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Shortest round-trip float formatting; non-finite values have no JSON
/// representation and must never reach an artifact, so they fail loudly.
fn write_f64(out: &mut String, f: f64) {
    assert!(f.is_finite(), "non-finite float in JSON artifact");
    if f == f.trunc() && f.abs() < 1e15 {
        // Keep an explicit fractional part so the value re-parses as Float:
        // integers and floats must round-trip into the same variant.
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Artifacts only ever escape control characters;
                            // surrogate pairs are out of scope.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let ch_len = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8"))?
                        .chars()
                        .next()
                        .map(char::len_utf8)
                        .unwrap_or(1);
                    s.push_str(std::str::from_utf8(&rest[..ch_len]).unwrap());
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Float(0.5),
            Json::Float(-1234.75),
            Json::Float(3.0),
            Json::Str("hello \"world\"\nline".to_string()),
            Json::Str(String::new()),
        ] {
            let text = v.render();
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_structure_roundtrips() {
        let mut inner = Json::obj();
        inner.push("latency", Json::Float(36.25));
        inner.push("delivered", Json::Int(1234));
        let v = Json::Obj(vec![
            ("schema".to_string(), Json::Str("v1".to_string())),
            ("runs".to_string(), Json::Arr(vec![inner, Json::Null])),
            ("empty_arr".to_string(), Json::Arr(vec![])),
            ("empty_obj".to_string(), Json::obj()),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn emission_is_deterministic_and_stable() {
        let mut v = Json::obj();
        v.push("b", Json::Int(1));
        v.push("a", Json::Float(2.0));
        // Insertion order, not alphabetical; fixed indentation; floats keep
        // a fractional part.
        assert_eq!(v.render(), "{\n  \"b\": 1,\n  \"a\": 2.0\n}\n");
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = Json::Float(20000.0).render();
        assert_eq!(text, "20000.0\n");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(20000.0));
    }

    #[test]
    fn compact_rendering_roundtrips_on_one_line() {
        let mut v = Json::obj();
        v.push("kind", Json::Str("power".to_string()));
        v.push("router", Json::Int(5));
        v.push("args", Json::Arr(vec![Json::Int(1), Json::Float(2.5)]));
        let line = v.render_compact();
        assert!(!line.contains('\n'), "{line:?}");
        assert_eq!(line, "{\"kind\":\"power\",\"router\":5,\"args\":[1,2.5]}");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn both_renderings_of_a_nested_document_are_pinned() {
        let mut inner = Json::obj();
        inner.push("e", Json::Null);
        let mut b = Json::obj();
        b.push("c", Json::Arr(Vec::new()));
        b.push("d", inner);
        let mut v = Json::obj();
        v.push(
            "a",
            Json::Arr(vec![Json::Int(1), Json::obj(), Json::Arr(Vec::new())]),
        );
        v.push("b", b);
        v.push("f", Json::Str("x".to_string()));
        assert_eq!(
            v.render(),
            "{\n  \"a\": [\n    1,\n    {},\n    []\n  ],\n  \"b\": {\n    \"c\": [],\n    \
             \"d\": {\n      \"e\": null\n    }\n  },\n  \"f\": \"x\"\n}\n"
        );
        assert_eq!(
            v.render_compact(),
            "{\"a\":[1,{},[]],\"b\":{\"c\":[],\"d\":{\"e\":null}},\"f\":\"x\"}"
        );
        assert_eq!(Json::obj().render_compact(), "{}");
        assert_eq!(Json::Arr(Vec::new()).render(), "[]\n");
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"\\q\"", "{} {}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn accessors_coerce_numbers() {
        let v = Json::parse("{\"i\": 7, \"f\": 7.0, \"s\": \"x\"}").unwrap();
        assert_eq!(v.get("i").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("f").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }
}
