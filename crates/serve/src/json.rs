//! Minimal hand-rolled JSON: a writer for the service's own documents and
//! a reader for the JSON the workspace takes in — the `--grid` file and
//! every job record the service stores (see `crate::recover`).
//!
//! The service's metrics snapshots and the load generator's summaries are
//! flat, fully-known shapes, so — like the bench crate's `--json` reports —
//! they are rendered by hand.  Stored records are written member by member
//! through `object` / `array`.  The reader (`parse` into a `Value`) is
//! the matching small half: strict RFC 8259 syntax, and numbers kept as
//! their source text so an integer field (a seed above 2^53) converts
//! exactly instead of through `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gridwfs_trace::push_escaped;

/// JSON string literal with the required escaping (quotes, backslash,
/// control characters) — the flight recorder's escaper, so journals,
/// metrics snapshots, stored records and bench reports share one writer.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// JSON number; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, v);
    out
}

fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Writes one JSON object into `out`, its members added by `body`.
pub(crate) fn object(out: &mut String, body: impl FnOnce(&mut Members<'_>)) {
    out.push('{');
    body(&mut Members { out, first: true });
    out.push('}');
}

/// Writes `items` into `out` as an array of objects, each one's members
/// added by `body`.
pub(crate) fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut body: impl FnMut(&mut Members<'_>, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        object(out, |m| body(m, item));
    }
    out.push(']');
}

/// The members of an object [`object`] is writing.
pub(crate) struct Members<'a> {
    out: &'a mut String,
    first: bool,
}

impl Members<'_> {
    /// Writes `"key":` and returns the buffer the value goes to.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        push_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub(crate) fn str(&mut self, key: &str, value: &str) {
        push_escaped(self.key(key), value);
    }

    /// A number member (`null` when non-finite), left out when `None`.
    pub(crate) fn num(&mut self, key: &str, value: impl Into<Option<f64>>) {
        if let Some(v) = value.into() {
            push_number(self.key(key), v);
        }
    }

    /// An exact integer member.
    pub(crate) fn uint(&mut self, key: &str, value: u64) {
        let _ = write!(self.key(key), "{value}");
    }

    /// A nested object member.
    pub(crate) fn object(&mut self, key: &str, body: impl FnOnce(&mut Members<'_>)) {
        object(self.key(key), body);
    }

    /// A member holding an array of objects (see [`array`]).
    pub(crate) fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        body: impl FnMut(&mut Members<'_>, T),
    ) {
        array(self.key(key), items, body);
    }
}

/// `path.key`: how errors name a member.
pub(crate) fn child(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// The optional member `key` of the object at `path`, read by `as_t`.
pub(crate) fn opt<'v, T>(
    obj: &'v Value,
    path: &str,
    key: &str,
    as_t: impl Fn(&'v Value, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    obj.get(key).map(|v| as_t(v, &child(path, key))).transpose()
}

/// The required member `key` of the object at `path`, read by `as_t`.
pub(crate) fn req<'v, T>(
    obj: &'v Value,
    path: &str,
    key: &str,
    as_t: impl Fn(&'v Value, &str) -> Result<T, String>,
) -> Result<T, String> {
    opt(obj, path, key, as_t)?.ok_or_else(|| format!("missing field '{}'", child(path, key)))
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its (validated) source text.
    Number(String),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, sorted by key; a repeated key keeps its last value.
    Object(BTreeMap<String, Value>),
}

impl Value {
    fn expected<T>(&self, what: &str, path: &str) -> Result<T, String> {
        let found = match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        };
        Err(format!("{path}: expected {what}, found {found}"))
    }

    /// The member `key` of an object; `None` when it is absent or `null`,
    /// or when `self` is not an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.get(key).filter(|v| **v != Value::Null),
            _ => None,
        }
    }

    /// The value as a finite `f64`; `path` names it in the error.
    pub(crate) fn as_f64(&self, path: &str) -> Result<f64, String> {
        match self {
            // Validated number text always parses; a huge exponent
            // saturates to infinity, which no writer could have meant.
            Value::Number(text) => match text.parse().expect("validated number") {
                v if f64::is_finite(v) => Ok(v),
                _ => Err(format!("{path}: {text} is out of range")),
            },
            other => other.expected("a number", path),
        }
    }

    /// The value as an exact unsigned integer: no sign, fraction or
    /// exponent, and in range.
    pub(crate) fn as_u64(&self, path: &str) -> Result<u64, String> {
        match self {
            Value::Number(text) => text
                .parse()
                .map_err(|_| format!("{path}: expected an unsigned integer, found {text}")),
            other => other.expected("an unsigned integer", path),
        }
    }

    /// The value as an exact unsigned integer that fits `T`.
    pub(crate) fn as_uint<T: TryFrom<u64>>(&self, path: &str) -> Result<T, String> {
        let n = self.as_u64(path)?;
        T::try_from(n).map_err(|_| format!("{path}: {n} too large"))
    }

    /// The value as a string slice.
    pub(crate) fn as_str(&self, path: &str) -> Result<&str, String> {
        match self {
            Value::String(s) => Ok(s),
            other => other.expected("a string", path),
        }
    }

    /// The value as an array's elements.
    pub(crate) fn as_array(&self, path: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            other => other.expected("an array", path),
        }
    }

    /// The value as an object's members.
    pub(crate) fn as_object(&self, path: &str) -> Result<&BTreeMap<String, Value>, String> {
        match self {
            Value::Object(members) => Ok(members),
            other => other.expected("an object", path),
        }
    }
}

/// Nesting deeper than this is rejected rather than risking the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; anything but whitespace after it is an
/// error.  Errors name the line and column.
pub(crate) fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        let before = &self.text[..self.pos];
        let line = before.matches('\n').count() + 1;
        let column = before.len() - before.rfind('\n').map_or(0, |i| i + 1) + 1;
        format!("line {line} column {column}: {what}")
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected a value"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated items of an array or object up to `close`
    /// (the opening bracket already consumed), each read by `item`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // '{'
        let mut members = BTreeMap::new();
        self.items(b'}', |p| {
            p.skip_ws();
            if p.peek() != Some(b'"') {
                return Err(p.error("expected a string key"));
            }
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(b':') {
                return Err(p.error("expected ':'"));
            }
            members.insert(key, p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Object(members))
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.error("expected a digit")),
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.error("expected a digit after '.'"));
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.error("expected a digit in the exponent"));
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits after \\u"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("checked hex digits"))
    }

    /// A `\uXXXX` escape (the `\u` already consumed), joining a UTF-16
    /// surrogate pair into one scalar value.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.text[self.pos..].starts_with("\\u") {
                    return Err(self.error("unpaired surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("unpaired surrogate in \\u escape"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error("unpaired surrogate in \\u escape")),
            other => other,
        };
        Ok(char::from_u32(code).expect("surrogates excluded"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character in one go (the input is already valid UTF-8).
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    self.pos += 1;
                    out.push(escaped);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_compact_objects_and_arrays() {
        let mut out = String::new();
        object(&mut out, |m| {
            m.str("s", "a\"b\n");
            m.num("n", 1.5);
            m.num("whole", 2.0);
            m.uint("u", u64::MAX);
            m.object("empty", |_| {});
            m.array("items", [1, 2], |m, i| m.uint("i", i));
        });
        assert_eq!(
            out,
            r#"{"s":"a\"b\n","n":1.5,"whole":2,"u":18446744073709551615,"empty":{},"items":[{"i":1},{"i":2}]}"#
        );
        let doc = parse(&out).unwrap();
        assert_eq!(doc.get("u").unwrap().as_uint::<u64>("u"), Ok(u64::MAX));
        assert_eq!(
            doc.get("u").unwrap().as_uint::<u32>("u"),
            Err("u: 18446744073709551615 too large".into())
        );
        let mut empty = String::new();
        array(&mut empty, Vec::<u8>::new(), |_, _| {});
        assert_eq!(empty, "[]");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_handle_non_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn reader_parses_nested_documents() {
        let doc = parse(r#" {"b": [1, {"c": null}, []], "a": {"t": true, "f": false}, "a": {}} "#);
        let object = |members: Vec<(&str, Value)>| {
            Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
        };
        let inner = object(vec![("c", Value::Null)]);
        let b = Value::Array(vec![Value::Number("1".into()), inner, Value::Array(vec![])]);
        // The repeated key "a" keeps its last value.
        assert_eq!(
            doc,
            Ok(object(vec![("a", object(vec![])), ("b", b.clone())]))
        );
        let doc = doc.unwrap();
        assert_eq!(doc.get("b"), Some(&b));
        // `get` reads `null` as absent.
        assert_eq!(b.as_array("b").unwrap()[1].get("c"), None);
        assert_eq!(doc.get("zz"), None);
        // The writer's output reads back.
        let text = format!("[{}]", json_string("tab\there \"q\" \u{1} é"));
        let back = parse(&text).unwrap();
        assert_eq!(
            back.as_array("x").unwrap()[0].as_str("x"),
            Ok("tab\there \"q\" \u{1} é")
        );
    }

    #[test]
    fn reader_decodes_string_escapes() {
        let s = |text: &str| parse(text).and_then(|v| v.as_str("s").map(String::from));
        assert_eq!(s(r#""a\"b\\c\/d""#).unwrap(), "a\"b\\c/d");
        assert_eq!(s(r#""\b\f\n\r\t""#).unwrap(), "\u{8}\u{c}\n\r\t");
        assert_eq!(s(r#""\u0041\u00e9\u20AC""#).unwrap(), "Aé€");
        // A surrogate pair joins into one scalar (U+1F600).
        assert_eq!(s(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        // Lone or mismatched surrogates, bad hex, unknown escapes and raw
        // control characters are errors.
        for bad in [
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\u12G4""#,
            r#""\x""#,
            "\"a\nb\"",
        ] {
            assert!(s(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reader_keeps_numbers_exact() {
        let v = |text: &str| parse(text).unwrap();
        for (text, want) in [
            ("-12", -12.0),
            ("0.25", 0.25),
            ("-1.5e3", -1500.0),
            ("2E-2", 0.02),
            ("1e+2", 100.0),
        ] {
            assert_eq!(v(text).as_f64("n"), Ok(want), "{text}");
        }
        // A number that overflows f64 is an error, not infinity.
        assert_eq!(
            v("-1e999").as_f64("n"),
            Err("n: -1e999 is out of range".into())
        );
        // Seeds above 2^53 survive exactly (f64 would round them).
        assert_eq!(
            v("9007199254740993").as_u64("seed"),
            Ok(9_007_199_254_740_993)
        );
        assert_eq!(v("18446744073709551615").as_u64("seed"), Ok(u64::MAX));
        for bad in ["-1", "1.0", "1e3", "18446744073709551616"] {
            let e = v(bad).as_u64("checks").unwrap_err();
            assert_eq!(
                e,
                format!("checks: expected an unsigned integer, found {bad}")
            );
        }
        for bad in ["01", "-", "1.", ".5", "1e", "+1", "1e+"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        for (bad, why) in [
            ("{\"a\": 1} x", "trailing characters"),
            ("[1, 2", "expected ',' or ']'"),
            ("{\"a\": 1", "expected ',' or '}'"),
            ("\"open", "unterminated string"),
            ("", "unexpected end of input"),
            ("{\"a\" 1}", "expected ':'"),
            ("{a: 1}", "expected a string key"),
            ("[1,]", "expected a value"),
            ("tru", "expected a value"),
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.contains(why), "{bad:?}: {e}");
        }
        assert_eq!(
            parse("{\n  \"a\": [1,\n   x]}").unwrap_err(),
            "line 3 column 4: expected a value"
        );
        assert!(parse(&"[".repeat(MAX_DEPTH + 2))
            .unwrap_err()
            .contains("nesting too deep"));
    }

    #[test]
    fn reader_names_the_field_path_on_a_type_error() {
        let doc = parse(r#"{"hosts": [{"speed": "fast"}]}"#).unwrap();
        let hosts = doc.get("hosts").unwrap();
        let speed = hosts.as_array("hosts").unwrap()[0].get("speed").unwrap();
        assert_eq!(
            speed.as_f64("hosts[0].speed"),
            Err("hosts[0].speed: expected a number, found a string".into())
        );
        assert_eq!(
            hosts.as_object("hosts"),
            Err("hosts: expected an object, found an array".into())
        );
        assert_eq!(
            doc.as_array("grid").unwrap_err(),
            "grid: expected an array, found an object"
        );
    }
}
