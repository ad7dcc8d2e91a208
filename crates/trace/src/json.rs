//! Minimal flat-JSON encoding and decoding for trace records.
//!
//! Trace records are deliberately *flat*: one JSON object per line,
//! every value a scalar (string / number / bool). That keeps the
//! encoder allocation-light and lets the decoder be a ~hundred-line
//! scanner instead of a vendored JSON crate (the build environment has
//! no crates.io access). Nested data (e.g. per-child case classes) is
//! packed into compact strings like `"7:II,12:III"`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A scalar value in a flat JSON object.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON string.
    Str(String),
    /// JSON number (always surfaced as f64; integral values round-trip
    /// exactly up to 2^53, far beyond any id or microsecond timestamp
    /// the simulator produces within a run).
    Num(f64),
    /// JSON true/false.
    Bool(bool),
}

impl Value {
    /// The value as f64, if numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as &str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a JSON string literal (with escaping).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Append a float in a deterministic, round-trippable form.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{:.1}", v);
        } else {
            let _ = write!(out, "{}", v);
        }
    } else {
        // JSON has no NaN/inf; encode as null so consumers fail loudly
        // rather than silently reading a wrong number.
        out.push_str("null");
    }
}

/// Builder for one flat JSON object, preserving insertion order.
#[derive(Default)]
pub struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    /// Start an object.
    pub fn new() -> Self {
        ObjWriter { buf: "{".into() }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        push_json_str(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{}", v);
        self
    }

    /// Add a float field.
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        push_json_f64(&mut self.buf, v);
        self
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        push_json_str(&mut self.buf, v);
        self
    }

    /// Add a bool field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add an array of finished objects, one element per line: the one
    /// nested field a report document needs. Never part of a trace record.
    pub fn objects(&mut self, k: &str, objs: impl IntoIterator<Item = String>) -> &mut Self {
        self.key(k);
        let objs: Vec<String> = objs.into_iter().collect();
        let _ = write!(self.buf, "[\n{}\n]", objs.join(",\n"));
        self
    }

    /// Finish and return the `{...}` string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Parse one flat JSON object (as produced by [`ObjWriter`]) into a
/// key → value map. Returns `None` on anything malformed or nested.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, Value>> {
    let s = line.trim();
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
        return None;
    }
    let mut out = BTreeMap::new();
    let inner = &s[1..s.len() - 1];
    let mut rest = inner.trim_start();
    if rest.is_empty() {
        return Some(out);
    }
    loop {
        // Key.
        let (key, after) = parse_string(rest)?;
        rest = after.trim_start();
        rest = rest.strip_prefix(':')?.trim_start();
        // Value.
        let (val, after) = parse_value(rest)?;
        out.insert(key, val);
        rest = after.trim_start();
        if rest.is_empty() {
            return Some(out);
        }
        rest = rest.strip_prefix(',')?.trim_start();
    }
}

fn hex4(chars: &mut std::str::CharIndices<'_>) -> Option<u32> {
    let mut code = 0u32;
    for _ in 0..4 {
        code = code * 16 + chars.next()?.1.to_digit(16)?;
    }
    Some(code)
}

fn parse_string(s: &str) -> Option<(String, &str)> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => return None,
    }
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000C}'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code = hex4(&mut chars)?;
                    if (0xD800..0xDC00).contains(&code) {
                        // High surrogate: JSON encodes astral-plane
                        // characters as a \uD8xx\uDCxx pair. The old
                        // parser fed the lone high half to
                        // `char::from_u32`, got `None`, and rejected
                        // the whole line — including lines other JSON
                        // encoders legitimately produce.
                        if chars.next()?.1 != '\\' || chars.next()?.1 != 'u' {
                            return None;
                        }
                        let low = hex4(&mut chars)?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return None;
                        }
                        let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        out.push(char::from_u32(c)?);
                    } else {
                        // Lone low surrogates fall out here: not a
                        // scalar value, `from_u32` is `None`, reject.
                        out.push(char::from_u32(code)?);
                    }
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

fn parse_value(s: &str) -> Option<(Value, &str)> {
    if s.starts_with('"') {
        let (v, rest) = parse_string(s)?;
        return Some((Value::Str(v), rest));
    }
    if let Some(rest) = s.strip_prefix("true") {
        return Some((Value::Bool(true), rest));
    }
    if let Some(rest) = s.strip_prefix("false") {
        return Some((Value::Bool(false), rest));
    }
    if let Some(rest) = s.strip_prefix("null") {
        // Encoded for non-finite floats; surface as NaN.
        return Some((Value::Num(f64::NAN), rest));
    }
    let end = s
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    if end == 0 {
        return None;
    }
    let num: f64 = s[..end].parse().ok()?;
    Some((Value::Num(num), &s[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_round_trips() {
        let mut w = ObjWriter::new();
        w.u64("t_us", 120_000_000)
            .str("kind", "walk_decision")
            .u64("host", 17)
            .f64("d_current", 0.3125)
            .str("cases", "7:II,12:III")
            .bool("hit", false);
        let line = w.finish();
        let m = parse_flat_object(&line).expect("parse");
        assert_eq!(m["t_us"].as_num(), Some(120_000_000.0));
        assert_eq!(m["kind"].as_str(), Some("walk_decision"));
        assert_eq!(m["host"].as_num(), Some(17.0));
        assert_eq!(m["d_current"].as_num(), Some(0.3125));
        assert_eq!(m["cases"].as_str(), Some("7:II,12:III"));
        assert_eq!(m["hit"], Value::Bool(false));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let mut w = ObjWriter::new();
        w.str("s", "a\"b\\c\nd\te");
        let line = w.finish();
        let m = parse_flat_object(&line).expect("parse");
        assert_eq!(m["s"].as_str(), Some("a\"b\\c\nd\te"));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_flat_object("not json").is_none());
        assert!(parse_flat_object("{\"a\":}").is_none());
        assert!(parse_flat_object("{\"a\":1").is_none());
        assert!(parse_flat_object("{\"a\":{\"nested\":1}}").is_none());
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let mut w = ObjWriter::new();
        w.f64("x", f64::NAN);
        let line = w.finish();
        assert!(line.contains("null"));
        let m = parse_flat_object(&line).expect("parse");
        assert!(m["x"].as_num().unwrap().is_nan());
    }

    #[test]
    fn full_escape_set_and_surrogate_pairs_decode() {
        // \b, \f, \/ are legal JSON escapes other encoders emit.
        let m = parse_flat_object(r#"{"s":"a\bb\fc\/d"}"#).expect("parse");
        assert_eq!(m["s"].as_str(), Some("a\u{8}b\u{c}c/d"));
        // Astral-plane characters arrive as \u surrogate pairs from
        // standard JSON encoders (and raw UTF-8 from ours).
        let m = parse_flat_object("{\"s\":\"ok \\ud83d\\ude00!\"}").expect("parse");
        assert_eq!(m["s"].as_str(), Some("ok \u{1F600}!"));
        let m = parse_flat_object("{\"s\":\"\\ud834\\udd1e\"}").expect("parse");
        assert_eq!(m["s"].as_str(), Some("\u{1D11E}"));
        let m = parse_flat_object("{\"s\":\"raw \u{1F600}\"}").expect("parse");
        assert_eq!(m["s"].as_str(), Some("raw \u{1F600}"));
    }

    #[test]
    fn lone_or_malformed_surrogates_are_rejected() {
        assert!(parse_flat_object(r#"{"s":"\ud83d"}"#).is_none());
        assert!(parse_flat_object(r#"{"s":"\ud83d oops"}"#).is_none());
        assert!(parse_flat_object(r#"{"s":"\ud83dA"}"#).is_none());
        assert!(parse_flat_object(r#"{"s":"\ude00"}"#).is_none());
        assert!(parse_flat_object(r#"{"s":"\uZZZZ"}"#).is_none());
        assert!(parse_flat_object(r#"{"s":"\q"}"#).is_none());
    }

    #[test]
    fn control_and_non_ascii_round_trip() {
        let nasty = "quote\" back\\slash \n\r\t \u{8}\u{c} \u{1b}[0m tab\tü 漢字 😀 \u{0} end";
        let mut w = ObjWriter::new();
        w.str("s", nasty).str("päth", "/tmp/a\"b.csv");
        let line = w.finish();
        assert!(!line.contains('\n'), "one record per line");
        let m = parse_flat_object(&line).expect("parse");
        assert_eq!(m["s"].as_str(), Some(nasty));
        assert_eq!(m["päth"].as_str(), Some("/tmp/a\"b.csv"));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Adversarial chars: the escape-relevant ASCII band, raw
        /// controls, and scattered non-ASCII up to the astral planes
        /// (surrogate code points filter out — they are not chars).
        fn chars_of(codes: &[u32]) -> String {
            codes.iter().filter_map(|&c| char::from_u32(c)).collect()
        }

        proptest! {
            /// Whatever string we encode — control characters, quotes,
            /// backslashes, non-ASCII, astral planes — parses back to
            /// exactly itself. This is the "logs we wrote ourselves
            /// must always re-parse" guarantee `trace filter` relies
            /// on.
            #[test]
            fn encode_parse_round_trips_adversarial_strings(
                low in proptest::collection::vec(0u32..0x80, 0..24),
                wide in proptest::collection::vec(0u32..0x11_0000, 0..24),
            ) {
                let s = format!("{}{}", chars_of(&low), chars_of(&wide));
                let mut w = ObjWriter::new();
                w.str("s", &s).u64("k", 7);
                let line = w.finish();
                let m = parse_flat_object(&line);
                prop_assert!(m.is_some(), "self-written line failed to parse: {line:?}");
                let m = m.unwrap();
                prop_assert_eq!(m["s"].as_str(), Some(s.as_str()));
                prop_assert_eq!(m["k"].as_num(), Some(7.0));
            }

            /// Adversarial *keys* round-trip too (host names and file
            /// paths land in keys in cache events).
            #[test]
            fn keys_round_trip(codes in proptest::collection::vec(0u32..0x11_0000, 1..16)) {
                let k = chars_of(&codes);
                prop_assume!(!k.is_empty());
                let mut w = ObjWriter::new();
                w.bool(&k, true);
                let m = parse_flat_object(&w.finish());
                prop_assert!(m.is_some());
                let m = m.unwrap();
                prop_assert_eq!(m.get(&k), Some(&Value::Bool(true)));
            }
        }
    }
}
