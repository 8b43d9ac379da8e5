//! The workspace's one JSON value type: a parser, a compact renderer
//! and a pretty renderer. Everything the reproduction emits as JSON
//! goes through it — the golden `SimStats` snapshots, the sweep
//! engine's result cache, the figure binaries' `--json` tables, the
//! linter's JSON and SARIF logs, the serving histograms and the
//! Chrome-trace timelines.
//!
//! The dialect is deliberately small: objects, arrays, strings (with
//! the common escapes), booleans, `null`, and **unsigned integers** —
//! every number the simulator produces is a `u64`, and refusing floats
//! keeps byte-identical round-trips trivial. Tables carry their floats
//! as already-formatted strings. The build environment is offline, so
//! vendoring `serde_json` is not an option.

use std::fmt::Write as _;

/// A parsed JSON value (integers only — see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so rendering is
    /// deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    /// A short description with the byte offset of the first problem.
    ///
    /// ```
    /// use sbrp_core::json::Json;
    /// let v = Json::parse(r#"{"cells": 3, "ok": true}"#).unwrap();
    /// assert_eq!(v.get("cells").and_then(Json::as_u64), Some(3));
    /// ```
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// An object from `(key, value)` pairs, in order.
    #[must_use]
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value compactly (no insignificant whitespace).
    /// Rendering then re-parsing yields an equal tree.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the value as a document for people and diffs, ending in
    /// a newline. One rule covers every value: an object puts one field
    /// per line (2-space indent, `"key": value`), an array of scalars
    /// stays on one line (`[1, 2]`), and any other array puts one
    /// element per line. An empty object or array renders as an empty
    /// block.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some("\n"));
        out.push('\n');
        out
    }

    /// Renders compactly with `newline == None`, else pretty, where
    /// `newline` is a line break plus the indent of the current line.
    fn write(&self, out: &mut String, newline: Option<&str>) {
        let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => return out.push_str(&v.to_string()),
            Json::Str(s) => return escape_into(s, out),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        // Pretty-printed entries go one per line unless they are all
        // scalars: `block` is the line break and indent of the current
        // line, `inner` those of the entries.
        let scalars = !entries.is_empty()
            && entries
                .iter()
                .all(|(k, v)| k.is_none() && !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let block = newline.filter(|_| !scalars);
        let inner = block.map(|nl| format!("{nl}  "));
        let (sep, colon) = match (newline, block) {
            (None, _) => (",", ":"),
            (Some(_), None) => (", ", ": "),
            (Some(_), Some(_)) => (",", ": "),
        };
        out.push(open);
        for (i, (key, v)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(inner.as_deref().unwrap_or(""));
            if let Some(k) = key {
                escape_into(k, out);
                out.push_str(colon);
            }
            v.write(out, inner.as_deref());
        }
        out.push_str(block.unwrap_or(""));
        out.push(close);
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        // Reject the float/exponent forms this dialect excludes.
        if self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            return Err(format!("non-integer number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::U64)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x\ny"}, null, true], "c": 0}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(v.get("c").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn round_trips_render_parse() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("quote \" slash \\ nl \n".into())),
            (
                "arr".into(),
                Json::Arr(vec![Json::U64(u64::MAX), Json::Bool(false), Json::Null]),
            ),
        ]);
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("-1").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2] tail").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn pretty_renders_nested_objects_scalar_arrays_and_arrays_of_arrays() {
        let v = Json::Obj(vec![
            ("title".into(), Json::Str("tab\t \"q\" back\\ nl\n".into())),
            (
                "inner".into(),
                Json::Obj(vec![
                    ("n".into(), Json::U64(7)),
                    ("ok".into(), Json::Bool(true)),
                    ("none".into(), Json::Null),
                ]),
            ),
            (
                "headers".into(),
                Json::Arr(vec![Json::Str("a".into()), Json::U64(1)]),
            ),
            (
                "rows".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Str("x".into()), Json::Str("y".into())]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let want = "{\n  \"title\": \"tab\\t \\\"q\\\" back\\\\ nl\\n\",\n  \"inner\": {\n    \"n\": 7,\n    \"ok\": true,\n    \"none\": null\n  },\n  \"headers\": [\"a\", 1],\n  \"rows\": [\n    [\"x\", \"y\"],\n    [\n    ]\n  ],\n  \"empty\": [\n  ]\n}\n";
        assert_eq!(v.pretty(), want);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }
}
