//! The workspace's one JSON codec (std-only).
//!
//! Every JSON document the workspace reads — `POST /jobs` bodies,
//! journal headers, server replies, bench reports — goes through
//! [`parse`], and every JSON string it writes goes through [`quote`].
//! Encoders stay where their formats live (`format!` templates with
//! fixed field order); only the escaping is shared.
//!
//! The decoder is total over outside bytes: any input yields a
//! [`Json`] value or a typed [`JsonError`] carrying the byte offset of
//! the problem, never a panic. It is strict RFC 8259:
//!
//! * numbers must match the RFC grammar (`01`, `1.`, `-` and `+1` are
//!   errors) and keep their raw lexeme, so `u64` seeds beyond 2^53
//!   survive ([`Json::as_u64`] parses the lexeme, not a float);
//! * `\uXXXX` surrogate pairs combine into one scalar, and a lone or
//!   reversed surrogate is an error;
//! * raw control characters inside strings and trailing data after the
//!   document are errors;
//! * arrays and objects nest at most [`MAX_DEPTH`] deep, so the
//!   recursive descent's stack use is bounded whatever a peer sends.
//!
//! # Examples
//!
//! ```
//! use hh_sim::json::{self, Json, JsonErrorKind};
//!
//! let doc = json::parse(r#"{"seed": 18446744073709551615, "name": "tiny"}"#).unwrap();
//! assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(u64::MAX));
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("tiny"));
//!
//! let err = json::parse("[1, 2,]").unwrap_err();
//! assert_eq!((err.kind, err.offset), (JsonErrorKind::Expected("a value"), 6));
//!
//! assert_eq!(json::quote("a\"b\n"), r#""a\"b\n""#);
//! ```

use std::error::Error;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. Job specs nest 2
/// deep and bench reports 3; the bound caps the parser's recursion.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw (RFC 8259-checked) lexeme.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (the first member named `key`).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as a `u64`, if it is a non-negative integer number
    /// that fits.
    pub fn as_u64(&self) -> Option<u64> {
        self.number()
    }

    /// The value as a `usize`, if it is a non-negative integer number
    /// that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.number()
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()
    }

    /// Parses a number's lexeme — never through an `f64` on the way to
    /// an integer, so every `u64` is exact.
    fn number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members of an object, in document order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Why a document failed to parse, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What was wrong there.
    pub kind: JsonErrorKind,
}

/// The kinds of [`JsonError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte the grammar does not allow here; names what it wanted.
    Expected(&'static str),
    /// Not `true`, `false` or `null`.
    InvalidLiteral,
    /// A number that does not match the RFC 8259 grammar.
    InvalidNumber,
    /// An unknown backslash escape or bad `\uXXXX` hex digits.
    InvalidEscape,
    /// A `\uD800`–`\uDFFF` escape that is not a high surrogate directly
    /// followed by a low one.
    LoneSurrogate,
    /// An unescaped U+0000–U+001F inside a string.
    ControlCharacter,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Non-whitespace after the document.
    TrailingData,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JsonErrorKind::UnexpectedEnd => write!(f, "unexpected end of input")?,
            JsonErrorKind::Expected(what) => write!(f, "expected {what}")?,
            JsonErrorKind::InvalidLiteral => write!(f, "invalid literal")?,
            JsonErrorKind::InvalidNumber => write!(f, "invalid number")?,
            JsonErrorKind::InvalidEscape => write!(f, "invalid escape")?,
            JsonErrorKind::LoneSurrogate => write!(f, "unpaired surrogate escape")?,
            JsonErrorKind::ControlCharacter => write!(f, "unescaped control character")?,
            JsonErrorKind::TooDeep => write!(f, "nesting deeper than MAX_DEPTH ({MAX_DEPTH})")?,
            JsonErrorKind::TrailingData => write!(f, "trailing data")?,
        }
        write!(f, " at byte {}", self.offset)
    }
}

impl Error for JsonError {}

/// Parses one JSON document; whitespace may surround it, anything else
/// after it is [`JsonErrorKind::TrailingData`].
///
/// # Errors
///
/// The first problem found, with its byte offset.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos < text.len() {
        return Err(parser.error(JsonErrorKind::TrailingData));
    }
    Ok(value)
}

/// Serializes `s` as a JSON string literal, quotes included: `"` and
/// `\` are backslash-escaped, `\n`/`\r`/`\t` use their short forms,
/// other controls below U+0020 become `\u00xx`, and everything else is
/// copied through as UTF-8.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn next_token(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.peek()
            .ok_or_else(|| self.error(JsonErrorKind::UnexpectedEnd))
    }

    /// A value inside `depth` enclosing arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.next_token()? {
            b'{' | b'[' if depth == MAX_DEPTH => Err(self.error(JsonErrorKind::TooDeep)),
            b'{' => self.object(depth + 1),
            b'[' => self.array(depth + 1),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.error(JsonErrorKind::Expected("a value"))),
        }
    }

    /// After one element: consumes `,` (more follow, `false`) or the
    /// closing byte (`true`).
    fn list_end(&mut self, close: u8, what: &'static str) -> Result<bool, JsonError> {
        let token = self.next_token()?;
        if token != b',' && token != close {
            return Err(self.error(JsonErrorKind::Expected(what)));
        }
        self.pos += 1;
        Ok(token == close)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.next_token()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.list_end(b']', "',' or ']'")? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1;
        let mut members = Vec::new();
        if self.next_token()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            if self.next_token()? != b'"' {
                return Err(self.error(JsonErrorKind::Expected("a string key")));
            }
            let key = self.string()?;
            if self.next_token()? != b':' {
                return Err(self.error(JsonErrorKind::Expected("':'")));
            }
            self.pos += 1;
            members.push((key, self.value(depth)?));
            if self.list_end(b'}', "',' or '}'")? {
                return Ok(Json::Obj(members));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.error(JsonErrorKind::InvalidLiteral));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let invalid = JsonError {
            offset: start,
            kind: JsonErrorKind::InvalidNumber,
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        let int_len = self.digits();
        if int_len == 0 || (int_len > 1 && self.text.as_bytes()[int] == b'0') {
            return Err(invalid);
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(invalid);
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid);
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte — all ASCII, so the slice ends
            // on a char boundary.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error(JsonErrorKind::ControlCharacter)),
            }
        }
    }

    /// Decodes the escape at the current backslash; errors point at it.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let fail = |kind| JsonError { offset: at, kind };
        self.pos += 1;
        let simple = match self.peek() {
            None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let unit = self.hex4().ok_or(fail(JsonErrorKind::InvalidEscape))?;
                let scalar = match unit {
                    // A high surrogate must be directly followed by a
                    // low one (RFC 8259 §7); together they encode one
                    // supplementary-plane scalar.
                    0xd800..=0xdbff => {
                        if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                            return Err(fail(JsonErrorKind::LoneSurrogate));
                        }
                        self.pos += 2;
                        let low = self.hex4().ok_or(fail(JsonErrorKind::InvalidEscape))?;
                        if !(0xdc00..=0xdfff).contains(&low) {
                            return Err(fail(JsonErrorKind::LoneSurrogate));
                        }
                        0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                    }
                    unit => unit,
                };
                // `None` only for a lone low surrogate.
                return char::from_u32(scalar).ok_or(fail(JsonErrorKind::LoneSurrogate));
            }
            Some(_) => return Err(fail(JsonErrorKind::InvalidEscape)),
        };
        self.pos += 1;
        Ok(simple)
    }

    /// Reads the 4 hex digits of a `\u` escape (the `\u` consumed).
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4)?;
        let mut unit = 0;
        for &d in digits {
            unit = unit * 16 + char::from(d).to_digit(16)?;
        }
        self.pos += 4;
        Some(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use JsonErrorKind::*;

    fn num(raw: &str) -> Json {
        Json::Num(raw.to_string())
    }

    fn text(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn err(kind: JsonErrorKind, offset: usize) -> Result<Json, JsonError> {
        Err(JsonError { offset, kind })
    }

    /// Each row is a `parse` input and the value or typed error it must
    /// produce.
    fn check_rows(rows: Vec<(&str, Result<Json, JsonError>)>) {
        for (input, want) in rows {
            assert_eq!(parse(input), want, "parse({input:?})");
        }
    }

    #[test]
    fn parses_nested_documents() {
        check_rows(vec![
            (
                r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": null, "e": true}"#,
                Ok(obj(vec![
                    ("a", Json::Arr(vec![num("1"), num("2.5"), num("-3")])),
                    ("b", obj(vec![("c", text("x\ny"))])),
                    ("d", Json::Null),
                    ("e", Json::Bool(true)),
                ])),
            ),
            (
                r#"{"a": [1, -2.5, 1e3], "b": {"q\"x": "yA\n"}, "c": null}"#,
                Ok(obj(vec![
                    ("a", Json::Arr(vec![num("1"), num("-2.5"), num("1e3")])),
                    ("b", obj(vec![("q\"x", text("yA\n"))])),
                    ("c", Json::Null),
                ])),
            ),
            (
                r#"{"base_seed": 18446744073709551615}"#,
                Ok(obj(vec![("base_seed", num("18446744073709551615"))])),
            ),
            (" \t\n[ ]\r\n", Ok(Json::Arr(vec![]))),
            ("{ }", Ok(obj(vec![]))),
            ("false", Ok(Json::Bool(false))),
            ("-0", Ok(num("-0"))),
            ("0.5E-07", Ok(num("0.5E-07"))),
            ("1.5e+300", Ok(num("1.5e+300"))),
        ]);
    }

    #[test]
    fn rejects_garbage() {
        check_rows(vec![
            // Numbers outside the RFC 8259 grammar.
            ("01", err(InvalidNumber, 0)),
            ("1.", err(InvalidNumber, 0)),
            ("-", err(InvalidNumber, 0)),
            ("1e", err(InvalidNumber, 0)),
            ("[-01]", err(InvalidNumber, 1)),
            ("+1", err(Expected("a value"), 0)),
            (".5", err(Expected("a value"), 0)),
            // Trailing data after the document.
            ("{} trailing", err(TrailingData, 3)),
            ("[1] ]", err(TrailingData, 4)),
            ("1 2", err(TrailingData, 2)),
            // Truncated and malformed documents.
            ("", err(UnexpectedEnd, 0)),
            ("  ", err(UnexpectedEnd, 2)),
            ("{", err(UnexpectedEnd, 1)),
            (r#"{"a": }"#, err(Expected("a value"), 6)),
            ("[1, 2,]", err(Expected("a value"), 6)),
            ("[1 2]", err(Expected("',' or ']'"), 3)),
            (r#"{"a": 1 "b": 2}"#, err(Expected("',' or '}'"), 8)),
            (r#"{"a" 1}"#, err(Expected("':'"), 5)),
            ("{1: 2}", err(Expected("a string key"), 1)),
            (r#"{"a": 1,}"#, err(Expected("a string key"), 8)),
            ("tru", err(InvalidLiteral, 0)),
            ("nulL", err(InvalidLiteral, 0)),
        ]);
    }

    /// The string codec: `parse` rows for escapes and surrogates, then
    /// `quote` input and the exact literal it must produce (which must
    /// parse back to the input).
    #[test]
    fn codec_table() {
        check_rows(vec![
            // Every simple escape; `\u` escapes of BMP scalars, including
            // the surrogate range's neighbours.
            (
                r#""\"\\\/\b\f\n\r\tAé""#,
                Ok(text("\"\\/\u{8}\u{c}\n\r\tAé")),
            ),
            ("\"\\ud7ff\\ue000\"", Ok(text("\u{d7ff}\u{e000}"))),
            // A surrogate pair decodes to one supplementary scalar.
            ("\"grin \\ud83d\\ude00!\"", Ok(text("grin \u{1f600}!"))),
            ("\"\\udbff\\udfff\"", Ok(text("\u{10FFFF}"))),
            // Lone and reversed surrogates are errors (the server's old
            // parser turned them into U+FFFD).
            (r#""\ud83d""#, err(LoneSurrogate, 1)),
            (r#""\ud83d rest""#, err(LoneSurrogate, 1)),
            (r#""\ud83d\u0041""#, err(LoneSurrogate, 1)),
            (r#""\ude00""#, err(LoneSurrogate, 1)),
            (r#""\ude00\ud83d""#, err(LoneSurrogate, 1)),
            (r#""ok \ud83d\ud83d""#, err(LoneSurrogate, 4)),
            // Malformed strings.
            ("\"unterminated", err(UnexpectedEnd, 13)),
            (r#""\x""#, err(InvalidEscape, 1)),
            (r#""\u12g4""#, err(InvalidEscape, 1)),
            (r#""\u+123""#, err(InvalidEscape, 1)),
            ("\"\\u12", err(InvalidEscape, 1)),
            ("\"\\", err(UnexpectedEnd, 2)),
            ("\"a\nb\"", err(ControlCharacter, 2)),
        ]);

        let quoted = [
            ("plain", r#""plain""#),
            ("a\"b\\c\nd", r#""a\"b\\c\nd""#),
            ("\u{1}", r#""\u0001""#),
            ("\t\r", r#""\t\r""#),
            ("\u{8}\u{c}\u{1f}", r#""\u0008\u000c\u001f""#),
            ("\u{7f}é/", "\"\u{7f}é/\""),
            ("name 😀 \u{10FFFF} plain", "\"name 😀 \u{10FFFF} plain\""),
        ];
        for (raw, literal) in quoted {
            assert_eq!(quote(raw), literal, "quote({raw:?})");
            assert_eq!(parse(literal), Ok(text(raw)), "round trip of {raw:?}");
        }
    }

    /// Number accessors parse the lexeme, not an `f64`, so `u64` seeds
    /// above 2^53 survive; the other accessors are typed views.
    #[test]
    fn big_u64_seeds_survive() {
        let doc = parse(
            r#"{"max": 18446744073709551615, "big": 9007199254740993, "neg": -3,
                "frac": 2.5, "exp": 1e3, "flag": true, "list": [1], "s": "x"}"#,
        )
        .unwrap();
        let field = |key| doc.get(key).unwrap();
        assert_eq!(field("max").as_u64(), Some(u64::MAX));
        // 2^53 + 1 has no f64; the lexeme keeps it exact.
        assert_eq!(field("big").as_u64(), Some((1 << 53) + 1));
        assert_eq!(
            field("big").as_usize(),
            usize::try_from((1u64 << 53) + 1).ok()
        );
        assert_eq!(field("neg").as_u64(), None);
        assert_eq!(field("neg").as_f64(), Some(-3.0));
        assert_eq!(field("frac").as_u64(), None);
        assert_eq!(field("frac").as_f64(), Some(2.5));
        assert_eq!(field("exp").as_f64(), Some(1000.0));
        assert_eq!(field("flag").as_bool(), Some(true));
        assert_eq!(field("list").as_array().map(<[Json]>::len), Some(1));
        assert_eq!(field("s").as_str(), Some("x"));
        assert_eq!(field("s").as_u64(), None);
        assert_eq!(doc.as_object().map(<[(String, Json)]>::len), Some(8));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(field("list").get("s"), None, "get on a non-object");
    }

    #[test]
    fn depth_limit_is_inclusive() {
        let arrays = |n| "[".repeat(n) + &"]".repeat(n);
        let objects = |n| "{\"k\": ".repeat(n) + "0" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&arrays(MAX_DEPTH + 1)), err(TooDeep, MAX_DEPTH));
        assert_eq!(parse(&objects(MAX_DEPTH + 1)), err(TooDeep, 6 * MAX_DEPTH));

        // A body of 20,000 `[` fails at the bound instead of recursing
        // 20,000 frames deep, and the message names the limit.
        let e = parse(&"[".repeat(20_000)).unwrap_err();
        assert_eq!(
            e,
            JsonError {
                offset: MAX_DEPTH,
                kind: TooDeep
            }
        );
        assert_eq!(
            e.to_string(),
            "nesting deeper than MAX_DEPTH (64) at byte 64"
        );
    }

    /// A job spec as `job_spec_to_json` writes it.
    const SPEC: &str = r#"{"scenarios": ["tiny", "micro"], "seeds": 3, "base_seed": 18446744073709551601, "attempts": 7, "bits": 5, "jobs": 2, "priority": 9, "fault_rate": 0.25, "fault_seed": 64001, "max_retries": 2, "backoff_ms": 1}"#;

    /// A bench report as `BenchReport::to_json` writes it.
    const REPORT: &str = "{\n  \"schema\": \"hyperhammer-bench-v1\",\n  \"quick\": true,\n  \"records\": [\n    {\"name\": \"dram/bank_of\", \"iters\": 119040, \"ns_per_iter\": 5.0, \"flips_per_sec\": null, \"scenario\": \"test_profile_64mib\", \"seed\": 99},\n    {\"name\": \"campaign_memory/micro_stream_64cells_2w\", \"iters\": 2, \"ns_per_iter\": 501405415.0, \"flips_per_sec\": 42.5, \"scenario\": \"micro_demo\", \"seed\": 1121344, \"peak_rss_kib\": 4668}\n  ]\n}";

    /// Flips, inserts and deletes bytes of valid documents: `parse`
    /// never panics, and every error points inside the input.
    #[test]
    fn mutated_documents_never_panic() {
        assert!(parse(SPEC).is_ok() && parse(REPORT).is_ok());
        // Bytes that steer the parser into its interesting branches.
        const ALPHABET: &[u8] = b"{}[]\",:\\/u0123456789abcdefABCDEF.eE+- \ntrulsn\x01\xed\xa0";
        check::cases(0x15_0a, check::DEFAULT_CASES * 4, |rng| {
            let doc = if rng.gen_bool(0.5) { SPEC } else { REPORT };
            let mut bytes = doc.as_bytes().to_vec();
            check::mutate(rng, &mut bytes, ALPHABET);
            let input = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse(&input) {
                assert!(e.offset <= input.len(), "{e} beyond {} bytes", input.len());
            }
        });
    }
}
